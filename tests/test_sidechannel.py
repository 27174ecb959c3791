import json
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from tracecrit import (
    Gf2Matrix,
    LinearCode,
    code_from_text,
    decision_region_census,
    gf2_rank,
    is_perfect_code,
    singular_fraction,
)
from tracecrit.cli import main, render_csv
from tracecrit.experiments import CODE_PRESETS, run_experiment
from tracecrit import sidechannel
from tracecrit.sidechannel import EXHAUSTIVE_SEED_CAP, _parity_check_rows
from tracecrit.errors import BadParams, ToolkitError, TooLarge

from helpers import census_loop, codeword, matrix_rows, pac_leakage, singular_fraction_loop, toeplitz_from_seed

HAMMING74 = [
    [1, 0, 0, 0, 1, 1, 0],
    [0, 1, 0, 0, 1, 0, 1],
    [0, 0, 1, 0, 0, 1, 1],
    [0, 0, 0, 1, 1, 1, 1],
]
CODE52 = [[1, 0, 1, 1, 0], [0, 1, 0, 1, 1]]


def brute_force_outputs(mat: Gf2Matrix) -> set[int]:
    """All outputs T x over the full input space, via int parity."""
    outs = set()
    for x in range(2**mat.cols):
        word = 0
        for i, row in enumerate(mat.row_bits):
            word |= (bin(row & x).count("1") & 1) << i
        outs.add(word)
    return outs


class TestToeplitz:
    def test_zero_seed(self):
        t = toeplitz_from_seed([0] * 5, 3, 3)
        assert t.row_bits == (0, 0, 0)

    def test_identity_from_diagonal_seed(self):
        seed = [0] * 5
        seed[2] = 1  # position n-1 fills the main diagonal
        t = toeplitz_from_seed(seed, 3, 3)
        assert matrix_rows(t) == np.eye(3, dtype=int).tolist()

    def test_constant_diagonals(self):
        seed = [1, 0, 1, 1, 0, 0, 1]
        rows = matrix_rows(toeplitz_from_seed(seed, 4, 4))
        for i in range(3):
            for j in range(3):
                assert rows[i][j] == rows[i + 1][j + 1]

    def test_two_by_two_structure(self):
        # seed order: (upper, diagonal, lower)
        for s0 in (0, 1):
            for s1 in (0, 1):
                for s2 in (0, 1):
                    t = toeplitz_from_seed([s0, s1, s2], 2, 2)
                    assert matrix_rows(t) == [[s1, s0], [s2, s1]]

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 7) for n in range(m + 1, 7)])
    def test_transposed_shape_has_the_same_rank(self, m, n):
        # the n x m matrix is the m x n one transposed with rows and columns reversed
        for s in range(2 ** (m + n - 1)):
            seed = [(s >> k) & 1 for k in range(m + n - 1)]
            assert gf2_rank(toeplitz_from_seed(seed, m, n)) == gf2_rank(toeplitz_from_seed(seed, n, m))


class TestGf2MatrixChecks:
    @pytest.mark.parametrize(
        "rows,cols,row_bits,message",
        [
            (0, 2, (), "dimensions must be positive"),
            (2, 0, (0, 0), "dimensions must be positive"),
            (2, 2, (1,), "expected 2 packed rows, got 1"),
            (1, 2, (4,), "row bits exceed 2 columns"),
            (1, 2, (-1,), "row bits exceed 2 columns"),
            (2, 2, (1.5, 2), "packed rows must be integers"),
            (1, 2, (True,), "packed rows must be integers"),
            (2.0, 2, (0, 0), "dimensions must be integers"),
            (1, True, (0,), "dimensions must be integers"),
        ],
    )
    def test_constructor_refuses(self, rows, cols, row_bits, message):
        with pytest.raises(BadParams, match=message):
            Gf2Matrix(rows, cols, row_bits)

    @pytest.mark.parametrize("rows", [[[1, 0.0]], [[True, 0]], [[1, 2]]])
    def test_from_rows_refuses_non_bits(self, rows):
        with pytest.raises(BadParams, match="entries must be bits"):
            Gf2Matrix.from_rows(rows)

    @pytest.mark.parametrize("rows", [[], [[]]])
    def test_from_rows_refuses_an_empty_matrix(self, rows):
        with pytest.raises(BadParams, match="at least one row and column"):
            Gf2Matrix.from_rows(rows)


class TestRank:
    def test_identity(self):
        assert gf2_rank(Gf2Matrix.from_rows(np.eye(4, dtype=int).tolist())) == 4

    def test_zero(self):
        assert gf2_rank(Gf2Matrix(2, 3, (0, 0))) == 0

    def test_repeated_row(self):
        assert gf2_rank(Gf2Matrix.from_rows([[1, 1], [1, 1]])) == 1

    def test_rank_bounded_by_shape(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            mat = Gf2Matrix.from_rows(rng.integers(0, 2, size=(m, n)).tolist())
            assert 0 <= gf2_rank(mat) <= min(m, n)


class TestPacLeakage:
    def test_full_rank_leaks_nothing(self):
        assert pac_leakage(Gf2Matrix.from_rows([[1, 0, 1], [0, 1, 1]])) == 0

    def test_rank_one_leaks_one_bit(self):
        mat = Gf2Matrix.from_rows([[1, 0, 1], [1, 0, 1]])
        assert pac_leakage(mat) == 1
        # brute-force: output support has 2 atoms, one bit short of 2 bits
        assert len(brute_force_outputs(mat)) == 2

    def test_zero_matrix_leaks_everything(self):
        mat = Gf2Matrix(2, 3, (0, 0))
        assert pac_leakage(mat) == 2
        assert len(brute_force_outputs(mat)) == 1

    def test_matches_entropy_deficit(self):
        # uniform input makes the output uniform on its support, so the
        # entropy deficit is m - log2(#outputs)
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, n + 1))
            mat = Gf2Matrix.from_rows(rng.integers(0, 2, size=(m, n)).tolist())
            deficit = m - int(math.log2(len(brute_force_outputs(mat))))
            assert pac_leakage(mat) == deficit


class TestSingularFraction:
    def test_two_by_two_exact(self):
        assert singular_fraction(2, 2) == 0.5

    def test_one_by_one(self):
        assert singular_fraction(1, 1) == 0.5

    def test_exhaustive_vs_sample(self):
        exact = singular_fraction(4, 4, mode="exhaustive")
        n_samples = 20000
        estimate = singular_fraction(4, 4, mode="sample", samples=n_samples, seed=99)
        stderr = math.sqrt(exact * (1 - exact) / n_samples)
        assert abs(estimate - exact) <= 3 * stderr

    def test_sample_is_reproducible(self):
        a = singular_fraction(3, 5, mode="sample", samples=500, seed=7)
        b = singular_fraction(3, 5, mode="sample", samples=500, seed=7)
        assert a == b

    @pytest.mark.parametrize("m,n", [(m, n) for n in range(1, 6) for m in range(1, n + 1)])
    def test_exhaustive_matches_closed_form(self, m, n):
        # a uniformly random m x n Toeplitz matrix (m <= n) is singular
        # with probability exactly 2^(m-n-1)
        assert singular_fraction(m, n) == 2.0 ** (m - n - 1)

    def test_errors(self):
        with pytest.raises(TooLarge):
            singular_fraction(13, 13, mode="exhaustive")
        with pytest.raises(BadParams):
            singular_fraction(2, 2, mode="sample", samples=10)  # no seed
        with pytest.raises(BadParams):
            singular_fraction(2, 2, mode="nope")
        with pytest.raises(BadParams):
            singular_fraction(0, 3)

    def test_oversize_exhaustive_request_builds_no_seed_count(self):
        # 2^(10^8) alone would take 12.5 MB; the cap compares exponents first
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                singular_fraction(10**8, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_sample_count_cap(self):
        with pytest.raises(TooLarge):
            singular_fraction(2, 2, mode="sample", samples=EXHAUSTIVE_SEED_CAP + 1, seed=0)

    def test_sample_mode_step_cap_is_the_costliest_exhaustive_request(self):
        def steps(total, m, n):
            batch = max(1, sidechannel._RANK_BATCH_CELLS // (m * n))
            return -(-total // batch) * m * n

        exhaustive = [
            steps(2 ** (m + n - 1), m, n)
            for m in range(1, 25)
            for n in range(1, 26 - m)
            if m + n - 1 < EXHAUSTIVE_SEED_CAP.bit_length()
        ]
        assert sidechannel._MAX_RANK_STEPS == max(exhaustive) == steps(EXHAUSTIVE_SEED_CAP, 12, 13)

    @pytest.mark.parametrize("m,n", [(10**6, 1), (1, 10**6), (442, 442)])
    def test_sample_mode_matrix_size_cap(self, m, n):
        start = time.perf_counter()
        with pytest.raises(TooLarge, match="elimination steps"):
            singular_fraction(m, n, mode="sample", samples=1, seed=1)
        assert time.perf_counter() - start < 1.0


def _cap_pairs():
    """(m, n) with m + n - 1 from 24 to 27, m <= 0 among them, in both orders;
    at 24, under the cap, only pairs the kernel refuses on their sign."""
    pairs = []
    for bits in range(24, 28):
        shapes = [(0, bits + 1), (-5, bits + 6)]
        if bits >= EXHAUSTIVE_SEED_CAP.bit_length():
            shapes += [(1, bits), (bits // 2, bits + 1 - bits // 2)]
        pairs += [p for m, n in shapes for p in ((m, n), (n, m))]
    return pairs


class TestCapsCheckedBeforeImport:
    """`cmd_toeplitz` refuses over-cap requests before it loads numpy; its
    stderr line must stay the one `singular_fraction` refuses with."""

    @staticmethod
    def refusal(capsys, params) -> str:
        assert main(["--experiment", "toeplitz", "--params", json.dumps(params)]) == 2
        return capsys.readouterr().err

    @pytest.mark.parametrize("m,n", _cap_pairs())
    def test_exhaustive(self, capsys, m, n):
        with pytest.raises(ToolkitError) as kernel:
            singular_fraction(m, n)
        over = m + n - 1 >= EXHAUSTIVE_SEED_CAP.bit_length()
        assert isinstance(kernel.value, TooLarge) == over
        assert self.refusal(capsys, {"m": m, "n": n}) == f"error: {kernel.value}\n"

    @pytest.mark.parametrize("samples", [EXHAUSTIVE_SEED_CAP + 1, 2**53, 0, -1])
    def test_sampled(self, capsys, samples):
        # a count at or below zero is refused first; the CLI always passes a seed
        with pytest.raises(ToolkitError) as kernel:
            singular_fraction(3, 3, mode="sample", samples=samples, seed=0)
        assert isinstance(kernel.value, TooLarge) == (samples > 0)
        params = {"m": 3, "n": 3, "mode": "sample", "samples": samples}
        assert self.refusal(capsys, params) == f"error: {kernel.value}\n"


SMALL_SHAPES = [(m, n) for m in range(1, 6) for n in range(1, 6)]


class TestBatchedRanksMatchLoop:
    """The batched GF(2) ranks against one gf2_rank call per seed."""

    @pytest.mark.parametrize("m,n", SMALL_SHAPES)
    def test_exhaustive(self, m, n):
        assert singular_fraction(m, n) == singular_fraction_loop(m, n)

    @pytest.mark.parametrize("m,n", SMALL_SHAPES)
    def test_sampled(self, m, n):
        for seed in (0, 7, 2**40 + 3):
            got = singular_fraction(m, n, mode="sample", samples=150, seed=seed)
            assert got == singular_fraction_loop(m, n, "sample", 150, seed)

    def test_partial_last_batch(self, monkeypatch):
        # 7 seeds per batch: 64 exhaustive seeds and 150 samples both end short
        monkeypatch.setattr(sidechannel, "_RANK_BATCH_CELLS", 7 * 12)
        assert singular_fraction(3, 4) == singular_fraction_loop(3, 4)
        got = singular_fraction(3, 4, mode="sample", samples=150, seed=11)
        assert got == singular_fraction_loop(3, 4, "sample", 150, 11)

    @pytest.mark.parametrize("m,n", [(3, 70), (70, 3), (66, 65)])
    def test_rows_wider_than_one_word(self, m, n):
        got = singular_fraction(m, n, mode="sample", samples=40, seed=5)
        assert got == singular_fraction_loop(m, n, "sample", 40, 5)


def _every_seed(m: int, n: int) -> np.ndarray:
    """Every seed of m + n - 1 bits as its one word: seed s is s."""
    return np.arange(2 ** (m + n - 1), dtype=np.uint64)[:, None]


def _pack(seed_bits: np.ndarray) -> np.ndarray:
    """(count, bits) bit rows as little-endian uint64 words, bit k in bit k % 64 of word k // 64."""
    count, bits = seed_bits.shape
    packed = np.zeros((count, 8 * -(-bits // 64)), dtype=np.uint8)
    packed[:, : -(-bits // 8)] = np.packbits(seed_bits, axis=1, bitorder="little")
    return packed.view("<u8")


def _unpack(seeds: np.ndarray, bits: int) -> np.ndarray:
    """The first ``bits`` bits of each row of little-endian uint64 words."""
    return np.unpackbits(seeds.astype("<u8").view(np.uint8), axis=1, count=bits, bitorder="little")


def _scalar_ranks(seeds: np.ndarray, m: int, n: int) -> list[int]:
    return [gf2_rank(toeplitz_from_seed(b, m, n)) for b in _unpack(seeds, m + n - 1)]


WORD_EDGES = (7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65)


class TestPackedRanksMatchScalar:
    """Each seed's rank from the packed kernel against one gf2_rank call."""

    @pytest.mark.parametrize("m,n", SMALL_SHAPES)
    def test_every_seed(self, m, n):
        seeds = _every_seed(m, n)
        assert sidechannel._toeplitz_ranks(seeds, m, n).tolist() == _scalar_ranks(seeds, m, n)

    @pytest.mark.parametrize(
        "m,n", [s for e in WORD_EDGES for s in ((5, e), (e, 5), (e, e))] + [(66, 70), (70, 66)]
    )
    def test_sampled_seeds_at_word_edges(self, m, n):
        # the zero seed and every one-bit seed give each rank from 0 to min(m, n)
        bits = m + n - 1
        rng = np.random.default_rng(m * 100 + n)
        drawn = [rng.random((30, bits)) < p for p in (0.5, 0.1, 0.02)]
        seeds = _pack(np.concatenate(drawn + [np.zeros((1, bits)), np.eye(bits)]).astype(np.uint8))
        assert sidechannel._toeplitz_ranks(seeds, m, n).tolist() == _scalar_ranks(seeds, m, n)


class TestToeplitzRankLaw:
    """Enumeration against the closed rank law of m x n Toeplitz matrices over GF(2)."""

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 17) for n in range(1, 18 - m)])
    def test_rank_histogram(self, m, n):
        full = min(m, n)
        law = [1] + [3 * 4 ** (r - 1) for r in range(1, full)] + [2 ** (m + n - 1) - 4 ** (full - 1)]
        ranks = sidechannel._toeplitz_ranks(_every_seed(m, n), m, n)
        assert np.bincount(ranks, minlength=full + 1).tolist() == law


class TestSampledRankLaw:
    """Sampled singular fractions beyond the exhaustive cap against the closed law 2^-(|m - n| + 1)."""

    @pytest.mark.parametrize("m,n", [(16, 16), (20, 23), (28, 30), (64, 64), (64, 66)])
    def test_within_five_binomial_deviations(self, m, n):
        samples, p = 20000, 2.0 ** -(abs(m - n) + 1)
        sigma = math.sqrt(p * (1 - p) / samples)
        for seed in range(5):
            assert abs(singular_fraction(m, n, "sample", samples, seed) - p) <= 5 * sigma


class TestSampledSeedStream:
    """The bulk-drawn seed words, unpacked, against one randrange(2) call per bit."""

    @pytest.mark.parametrize("seed", [0, 1, -7, 2**64 + 5, 2**200])
    @pytest.mark.parametrize("m,n,samples", [(64, 64, 1300), (10, 12, 2000), (1, 1, 5)])
    def test_bits_and_fraction_match_randrange(self, monkeypatch, seed, m, n, samples):
        ranks, batches = sidechannel._toeplitz_ranks, []

        def recording_ranks(seeds, rows, cols):
            batches.append(seeds.copy())
            return ranks(seeds, rows, cols)

        monkeypatch.setattr(sidechannel, "_toeplitz_ranks", recording_ranks)
        got = singular_fraction(m, n, "sample", samples, seed)
        rng = random.Random(seed)
        want = np.array([rng.randrange(2) for _ in range(samples * (m + n - 1))], dtype=np.uint8)
        want = want.reshape(samples, m + n - 1)
        assert np.array_equal(_unpack(np.concatenate(batches), m + n - 1), want)
        if (m, n) == (64, 64):
            assert len(batches) >= 3  # so every later batch starts where the last one stopped
        # one unbatched rank pass over the reference stream
        assert got == np.count_nonzero(ranks(_pack(want), m, n) < min(m, n)) / samples


class TestLinearCode:
    def test_rejects_rank_deficient_generator(self):
        with pytest.raises(BadParams):
            LinearCode(Gf2Matrix.from_rows([[1, 0, 1], [1, 0, 1]]))

    def test_codewords_match_per_message_encoding(self):
        rng = np.random.default_rng(3)
        for n in range(1, 11):
            for k in range(1, n + 1):
                code = LinearCode(_random_full_rank_generator(rng, k, n))
                words = code.codewords()
                assert words.dtype == np.int64
                assert words.tolist() == [codeword(code, i) for i in range(2**k)]

    def test_hamming_codewords(self):
        code = LinearCode(Gf2Matrix.from_rows(HAMMING74))
        words = code.codewords()
        assert len(set(int(w) for w in words)) == 16
        assert int(words[0]) == 0

    def test_parse_from_text(self):
        text = "1 0 1 1 0\n0 1 0 1 1\n"
        code = code_from_text(text)
        assert (code.n, code.k) == (5, 2)
        compact = code_from_text("10110\n01011")
        assert compact.generator.row_bits == code.generator.row_bits

    def test_parse_errors(self):
        with pytest.raises(BadParams):
            code_from_text("10\n1")
        with pytest.raises(BadParams):
            code_from_text("")


def _random_full_rank_generator(rng, k: int, n: int) -> Gf2Matrix:
    while True:
        g = Gf2Matrix.from_rows(rng.integers(0, 2, size=(k, n)).tolist())
        if gf2_rank(g) == k:
            return g


class TestParityCheck:
    @pytest.mark.parametrize(
        "generator",
        [Gf2Matrix.from_rows(HAMMING74), Gf2Matrix.from_rows(CODE52)]
        + [
            _random_full_rank_generator(np.random.default_rng(seed), k, n)
            for seed, (k, n) in enumerate([(1, 4), (3, 6), (4, 9), (5, 8), (6, 11), (7, 10)])
        ],
    )
    def test_orthogonal_complement_of_generator(self, generator):
        code = LinearCode(generator)
        h_rows = _parity_check_rows(code)
        assert len(h_rows) == code.n - code.k
        for h in h_rows:
            for g in generator.row_bits:
                assert (h & g).bit_count() % 2 == 0  # H G^T = 0 over GF(2)
        assert gf2_rank(Gf2Matrix(len(h_rows), code.n, tuple(h_rows))) == len(h_rows)


class TestCensus:
    def test_hamming_equal_regions_syndrome(self):
        code = LinearCode(Gf2Matrix.from_rows(HAMMING74))
        out = decision_region_census(code, "syndrome")
        assert sorted(out.region_sizes.values()) == [8] * 16
        assert out.bias_delta == 0.0

    def test_hamming_min_distance_matches_syndrome(self):
        # perfect single-error-correcting code: both rules give equal regions
        code = LinearCode(Gf2Matrix.from_rows(HAMMING74))
        out = decision_region_census(code, "min_distance")
        assert sorted(out.region_sizes.values()) == [8] * 16

    def test_code52_min_distance_bias(self):
        code = LinearCode(Gf2Matrix.from_rows(CODE52))
        out = decision_region_census(code, "min_distance")
        assert sum(out.region_sizes.values()) == 32
        assert len(set(out.region_sizes.values())) > 1
        assert out.bias_delta > 0.0

    def test_syndrome_regions_are_cosets(self):
        # syndrome decoding regions are translated coset-leader sets: always equal
        rng = np.random.default_rng(2)
        for _ in range(10):
            while True:
                rows = rng.integers(0, 2, size=(3, 6)).tolist()
                if gf2_rank(Gf2Matrix.from_rows(rows)) == 3:
                    break
            out = decision_region_census(LinearCode(Gf2Matrix.from_rows(rows)), "syndrome")
            assert set(out.region_sizes.values()) == {8}
            assert out.bias_delta == 0.0

    def test_identity_code_regions_of_one(self):
        code = LinearCode(Gf2Matrix.from_rows(np.eye(4, dtype=int).tolist()))
        out = decision_region_census(code, "syndrome")
        assert set(out.region_sizes.values()) == {1}
        assert out.bias_delta == 0.0

    def test_tiny_repetition_tiebreak_by_hand(self):
        # codewords 00 and 11; words 01 and 10 tie and go to message 0
        code = LinearCode(Gf2Matrix.from_rows([[1, 1]]))
        out = decision_region_census(code, "min_distance")
        assert out.region_sizes == {"0": 3, "1": 1}
        assert out.bias_delta == pytest.approx(0.25, abs=1e-15)

    def test_region_sizes_sum_for_both_rules(self):
        code = LinearCode(Gf2Matrix.from_rows(CODE52))
        for rule in ("syndrome", "min_distance"):
            out = decision_region_census(code, rule)
            assert sum(out.region_sizes.values()) == 2**code.n

    def test_census_csv(self):
        report = run_experiment("ecc", {"generator": [[1, 1]], "rule": "min_distance"})
        lines = render_csv(report).splitlines()
        assert lines[0] == "field,value"
        assert 'region_sizes,"{""0"":3,""1"":1}"' in lines

    def test_block_length_cap(self):
        rows = np.eye(21, dtype=int).tolist()
        with pytest.raises(TooLarge):
            decision_region_census(LinearCode(Gf2Matrix.from_rows(rows)), "syndrome")

    def test_bad_rule(self):
        code = LinearCode(Gf2Matrix.from_rows([[1, 1]]))
        with pytest.raises(BadParams):
            decision_region_census(code, "nearest")


def _named_codes(n: int) -> dict:
    """Repetition [n,1], even-weight [n,n-1] and identity [n,n] codes."""
    eye = np.eye(n, dtype=int)
    codes = {"repetition": [[1] * n], "identity": eye.tolist()}
    if n > 1:
        codes["even-weight"] = np.concatenate([eye[:-1, :-1], np.ones((n - 1, 1), int)], axis=1).tolist()
    return {name: LinearCode(Gf2Matrix.from_rows(g)) for name, g in codes.items()}


def _census_cases():
    rng = np.random.default_rng(20)
    cases = [(name, LinearCode(Gf2Matrix.from_rows(g))) for name, g in CODE_PRESETS.items()]
    for n in range(1, 13):
        cases += [(f"{name}-{n}", code) for name, code in _named_codes(n).items()]
        for k in range(1, n + 1):
            for trial in range(3):
                cases.append((f"random-{n}x{k}-{trial}", LinearCode(_random_full_rank_generator(rng, k, n))))
    return cases


class TestCensusAgainstLoops:
    """The coset census against decoding every word: the lexsort syndrome
    path and one min-distance pass per codeword."""

    CASES = _census_cases()

    def test_covers_every_shape(self):
        random_codes = [name for name, _ in self.CASES if name.startswith("random")]
        assert len(random_codes) >= 200
        shapes = {(code.n, code.k) for _, code in self.CASES}
        assert shapes >= {(n, k) for n in range(1, 13) for k in range(1, n + 1)}

    @pytest.mark.parametrize("rule", ["syndrome", "min_distance"])
    def test_sizes_and_bias_match(self, rule):
        for name, code in self.CASES:
            out = decision_region_census(code, rule)
            sizes, delta = census_loop(code, rule)
            assert list(out.region_sizes.values()) == sizes, name
            assert out.bias_delta == delta, name

    @pytest.mark.parametrize("rule", ["syndrome", "min_distance"])
    def test_identity_16_has_regions_of_one(self, rule):
        out = decision_region_census(_named_codes(16)["identity"], rule)
        assert set(out.region_sizes.values()) == {1}
        assert out.bias_delta == 0.0

    def test_repetition_16_ties_go_to_message_zero(self):
        out = decision_region_census(_named_codes(16)["repetition"], "min_distance")
        zero = sum(math.comb(16, i) for i in range(9))
        assert out.region_sizes == {"0": zero, "1": 2**16 - zero}
        syndrome = decision_region_census(_named_codes(16)["repetition"], "syndrome")
        assert syndrome.region_sizes == {"0": 2**15, "1": 2**15}

    def test_even_weight_16_closed_form(self):
        # an odd word's closest codewords flip one bit: its own message
        # (parity bit flipped) or the message with one bit flipped, the
        # least of which clears the top bit; an even word is a codeword
        n = 16
        out = decision_region_census(_named_codes(n)["even-weight"], "min_distance")
        want = [n + 1] + [n - 1 - m.bit_length() + 1 for m in range(1, 2 ** (n - 1))]
        assert list(out.region_sizes.values()) == want


class TestPerfectCodes:
    def test_hamming_is_perfect(self):
        assert is_perfect_code(LinearCode(Gf2Matrix.from_rows(HAMMING74)), 1)

    def test_code52_is_not(self):
        assert not is_perfect_code(LinearCode(Gf2Matrix.from_rows(CODE52)), 1)

    def test_repetition_three_one(self):
        assert is_perfect_code(LinearCode(Gf2Matrix.from_rows([[1, 1, 1]])), 1)

    def test_negative_radius_refused(self):
        with pytest.raises(BadParams, match="radius must be nonnegative, got -1"):
            is_perfect_code(LinearCode(Gf2Matrix.from_rows(HAMMING74)), -1)
