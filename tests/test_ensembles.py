import itertools
import math
import re
import types
from fractions import Fraction

import numpy as np
import pytest

from tracecrit import (
    CqEnsemble,
    DensityOperator,
    LeakSpec,
    ProbDist,
    SpikedDist,
    event_deviation_bound,
    measure_ensemble,
    pgm,
    tensor,
    two_bit_pkl_example,
    validate_density,
)
from tracecrit import ensembles, two_bit
from tracecrit.criteria import criterion_d_averaged
from tracecrit.ensembles import bit_strings
from tracecrit.errors import (
    TOL,
    ZERO_TOL,
    BadParams,
    BadTrace,
    NotHermitian,
    NotPsd,
)
from tracecrit.keys import _BIT_STRINGS

from helpers import (
    average_probe_loop,
    bit_strings_recursive,
    bits,
    condition_on_leak,
    mass,
    probdist_loop,
    probe,
    random_density,
    random_ensemble,
    random_probdist,
    single_bit_pure_example,
    spiked_dense,
    spiked_entropy_closed_form,
    spiked_mass,
)


class TestProbDist:
    def test_uniform_is_exact(self):
        p = ProbDist.uniform(("a", "b", "c"))
        assert (p.probs.tolist(), p.denominator) == ([1, 1, 1], 3)
        assert mass(p, "a") == Fraction(1, 3)
        assert sum(p.probs) == p.denominator

    def test_rejects_negative_mass(self):
        with pytest.raises(BadParams, match="negative"):
            ProbDist(("a", "b"), (1.2, -0.2))

    def test_rejects_bad_total(self):
        with pytest.raises(BadParams, match="sum"):
            ProbDist(("a", "b"), (0.6, 0.6))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(BadParams, match="unique"):
            ProbDist(("a", "a"), (0.5, 0.5))

    @pytest.mark.parametrize(
        "probs,message", [((1.0,), "2 labels but 1 masses"), ((0.5, 0.25, 0.25), "2 labels but 3 masses")]
    )
    def test_rejects_label_and_mass_counts_that_differ(self, probs, message):
        with pytest.raises(BadParams, match=message):
            ProbDist(("a", "b"), probs)

    def test_uniform_over_no_labels_refused(self):
        with pytest.raises(BadParams, match="zero labels"):
            ProbDist.uniform([])

    def test_unknown_label_refused(self):
        with pytest.raises(BadParams, match="unknown label 'c'"):
            mass(ProbDist.uniform(("a", "b")), "c")

    def test_clamps_float_noise(self):
        p = ProbDist(("a", "b"), (1.0 + 1e-13, -1e-13))
        assert p.probs[1] == 0.0

    @pytest.mark.parametrize("probs", [(math.nan, 1.0), (0.5, math.nan), (math.nan, math.nan)])
    def test_rejects_nan_mass(self, probs):
        with pytest.raises(BadParams, match="sum"):
            ProbDist(("a", "b"), probs)


def _accepted_edges() -> tuple[float, float]:
    """The smallest and the largest float total that |total - 1| <= TOL accepts."""
    lo, hi = 1.0 - TOL, 1.0 + TOL
    while not abs(lo - 1.0) <= TOL:
        lo = math.nextafter(lo, 1.0)
    while abs(math.nextafter(lo, 0.0) - 1.0) <= TOL:
        lo = math.nextafter(lo, 0.0)
    while not abs(hi - 1.0) <= TOL:
        hi = math.nextafter(hi, 1.0)
    while abs(math.nextafter(hi, 2.0) - 1.0) <= TOL:
        hi = math.nextafter(hi, 2.0)
    return lo, hi


def _totals() -> list[float]:
    """1 - TOL and 1 + TOL as accepted at the edge, one ulp either side of
    each, and 1."""
    lo, hi = _accepted_edges()
    return [math.nextafter(lo, 0.0), lo, math.nextafter(lo, 1.0), 1.0,
            math.nextafter(hi, 1.0), hi, math.nextafter(hi, 2.0)]


def _masses_summing_to(total: float, size: int) -> list[float]:
    """``size`` seeded float masses whose correctly rounded sum is ``total``."""
    if size == 2:
        return [0.25, total - 0.25]  # exact: both lie in [2^-2, 1)
    w = np.random.default_rng(size).random(size) + 0.5
    w = (w / w.sum()).tolist()  # every mass above 2^-28, so a multiple of 2^-80
    rest = sum(int(v * 2.0**80) for v in w[:-1])
    w[-1] = (int(total * 2.0**80) - rest) * 2.0**-80
    return w


def _extra_masses() -> list[float]:
    """Masses added to a distribution: clamped negatives in [-ZERO_TOL, 0),
    one just below that and refused, NaN and both infinities."""
    return [-ZERO_TOL, -ZERO_TOL / 2, -5e-324, math.nextafter(-ZERO_TOL, -1.0), math.nan, math.inf, -math.inf]


class TestProbDistTotal:
    """A float distribution is accepted, or refused with its message, exactly
    as by the correctly rounded total of `probdist_loop`."""

    @staticmethod
    def _assert_as_loop(probs) -> bool:
        labels = bit_strings(16) if len(probs) == 2**16 else tuple(f"x{i}" for i in range(len(probs)))
        try:
            want = probdist_loop(labels, probs)
        except BadParams as exc:
            with pytest.raises(BadParams) as got:
                ProbDist(labels, probs)
            assert str(got.value) == str(exc)
            return False
        p = ProbDist(labels, probs)
        assert bits(p.probs) == bits([float(v) for v in want[1]])
        return True

    @pytest.mark.parametrize("size", [2, 2**16])
    def test_boundary_totals(self, size):
        accepted = []
        for total in _totals():
            probs = _masses_summing_to(total, size)
            assert math.fsum(probs) == total
            accepted.append(self._assert_as_loop(probs))
            for i, extra in enumerate(_extra_masses()):
                changed = [extra, *probs] if i % 2 else [*probs[::-1], extra]
                clamped = -ZERO_TOL <= extra < 0
                assert self._assert_as_loop(changed) is (clamped and accepted[-1])
        assert accepted == [False, True, True, True, True, True, False]

    def test_sum_decides_only_clear_totals(self, monkeypatch):
        """A total well inside TOL is accepted from the plain sum; a total
        within rounding of the edge goes to one fsum."""
        calls = 0

        def counting(values):
            nonlocal calls
            calls += 1
            return math.fsum(values)

        monkeypatch.setattr(ensembles, "math", types.SimpleNamespace(**{**vars(math), "fsum": counting}))
        labels = bit_strings(16)
        ProbDist(labels, _masses_summing_to(1.0, 2**16))
        assert calls == 0
        lo, hi = _accepted_edges()
        for total in (lo, hi):
            ProbDist(labels, _masses_summing_to(total, 2**16))
        assert calls == 2


class TestBitStrings:
    def test_orderings(self):
        assert bit_strings(0) == ("",)
        assert bit_strings(1) == ("0", "1")
        assert bit_strings(2) == ("00", "01", "10", "11")

    @pytest.mark.parametrize("n", range(15))
    def test_memoized_and_equal_to_recursive_build(self, n):
        assert bit_strings(n) is bit_strings(n)
        assert bit_strings(n) == bit_strings_recursive(n)

    def test_rejects_negative_count(self):
        with pytest.raises(BadParams, match="nonnegative"):
            bit_strings(-1)

    def test_numpy_integer_count_accepted(self):
        assert bit_strings(np.int64(2)) is bit_strings(2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: bit_strings(2.5), "bit count must be an integer, got 2.5"),
        (lambda: bit_strings(1.0), "bit count must be an integer, got 1.0"),  # 1 is held
        (lambda: bit_strings(True), "bit count must be an integer, got True"),
        (lambda: CqEnsemble(1.5, ProbDist.uniform("01"), {}), "bit count must be an integer, got 1.5"),
        (lambda: SpikedDist(8.5, 3), "key length and spike exponent must be integers"),
        (lambda: SpikedDist(8, 2.5), "key length and spike exponent must be integers"),
        (lambda: SpikedDist(8, 3).event_deviation(2.0), "subsequence length must be an integer, got 2.0"),
        (lambda: SpikedDist(8, 3).event_deviation(2.0), "subsequence length must be an integer, got 2.0"),
        (
            lambda: event_deviation_bound(ProbDist.uniform(bit_strings(3)), 2.0),
            "subsequence length must be an integer, got 2.0",
        ),
    ],
    ids=[
        "bit_strings", "bit_strings-held", "bit_strings-bool", "CqEnsemble",
        "SpikedDist-n", "SpikedDist-spike", "event_deviation_bound-spiked", "SpikedDist.event_deviation",
        "event_deviation_bound-dense",
    ],
)
def test_non_integer_sizes_refused(call, message):
    with pytest.raises(BadParams, match=re.escape(message)):
        call()


class _Label(str):
    """A str subclass: equal to the plain string, but not of type str."""


class TestProbDistLabelChecks:
    def test_memoized_tuple_is_kept(self):
        p = ProbDist.uniform(bit_strings(3))
        assert p.labels is bit_strings(3)

    def test_equal_copy_is_checked(self):
        # equal to bit_strings(3) but another object: the type scan runs
        copy = tuple(_Label(x) for x in bit_strings(3))
        assert copy == bit_strings(3) and copy is not bit_strings(3)
        p = ProbDist.uniform(copy)
        assert p.labels == bit_strings(3)
        assert {type(x) for x in p.labels} == {str}

    def test_duplicate_among_bit_strings_refused(self):
        labels = bit_strings(3)[:-1] + ("000",)
        with pytest.raises(BadParams, match="unique"):
            ProbDist.uniform(labels)
        with pytest.raises(BadParams, match="unique"):
            ProbDist(list(labels), (1 / 8,) * 8)

    def test_int_labels_become_strings(self):
        p = ProbDist(tuple(range(4)), (0.25,) * 4)
        assert p.labels == ("0", "1", "2", "3")
        with pytest.raises(BadParams, match="unique"):
            ProbDist((1, "1"), (0.5, 0.5))


class TestAverageProbe:
    def test_equal_probes(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 3)
        e = CqEnsemble(
            1, ProbDist.uniform(bit_strings(1)), {"0": rho, "1": rho}
        )
        np.testing.assert_allclose(e.average.matrix, rho.matrix, atol=1e-12)

    def test_orthogonal_single_bit_gives_mixed(self):
        e = single_bit_pure_example(0.0)
        np.testing.assert_allclose(e.average.matrix, np.eye(2) / 2, atol=1e-12)

    def test_two_bit_family_average(self):
        rng = np.random.default_rng(1)
        sigma, rho1, rho2 = (random_density(rng, 2) for _ in range(3))
        e = two_bit_pkl_example(sigma, rho1, rho2)
        expected = tensor(sigma.matrix, (rho1.matrix + rho2.matrix) / 2)
        np.testing.assert_allclose(e.average.matrix, expected, atol=1e-12)

    def test_always_valid_density(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            e = random_ensemble(rng, 2, 3, uniform_prior=False)
            e.average  # validation happens inside


class TestSingleBitPureExample:
    def test_orthogonal_probes_reach_half(self):
        assert criterion_d_averaged(single_bit_pure_example(0.0)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_identical_probes(self):
        assert criterion_d_averaged(single_bit_pure_example(1.0)) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_intermediate_overlap(self):
        assert criterion_d_averaged(single_bit_pure_example(0.6)) == pytest.approx(
            0.4, abs=1e-12
        )

    def test_probe_overlap_is_c(self):
        e = single_bit_pure_example(0.37)
        overlap = np.trace(probe(e, "0").matrix @ probe(e, "1").matrix).real
        assert overlap == pytest.approx(0.37**2, abs=1e-12)

    def test_bad_overlap(self):
        with pytest.raises(BadParams, match=r"overlap must lie in \[0, 1\], got 1\.5"):
            single_bit_pure_example(1.5)

    @pytest.mark.parametrize("c", [0.0, -0.0, 5e-324, 0.37, 0.9999999999999999, 1.0])
    def test_overlap_pair_holds_the_one_bit_probes(self, c):
        """The pair the CLI reads an overlap into has the bits of the one-bit
        ensemble's two probes, and is read-only."""
        pair = two_bit._overlap_pair(c)
        e = single_bit_pure_example(c)
        for op, key in zip(pair, "01"):
            assert bits(op.matrix) == bits(probe(e, key).matrix)
            assert not op.matrix.flags.writeable

    @pytest.mark.parametrize("c", [1.5, -0.1, 1.0000000000000002, -5e-324, math.inf, math.nan])
    def test_overlap_pair_refuses_what_the_ensemble_refuses(self, c):
        with pytest.raises(BadParams, match=re.escape(f"overlap must lie in [0, 1], got {c!r}")):
            two_bit._overlap_pair(c)
        with pytest.raises(BadParams, match=re.escape(f"overlap must lie in [0, 1], got {c!r}")):
            single_bit_pure_example(c)


class TestTwoBitFamily:
    def test_identical_components_give_zero(self):
        rng = np.random.default_rng(3)
        sigma, rho = random_density(rng, 2), random_density(rng, 2)
        e = two_bit_pkl_example(sigma, rho, rho)
        assert criterion_d_averaged(e) == pytest.approx(0.0, abs=1e-9)

    def test_orthogonal_components(self):
        sigma = validate_density(np.eye(2) / 2)
        rho1 = validate_density(np.diag([1.0, 0.0]))
        rho2 = validate_density(np.diag([0.0, 1.0]))
        e = two_bit_pkl_example(sigma, rho1, rho2)
        assert criterion_d_averaged(e) == pytest.approx(0.5, abs=1e-12)

    def test_diagonal_mixed_components(self):
        sigma = validate_density(np.eye(2) / 2)
        rho1 = validate_density(np.diag([0.6, 0.4]))
        rho2 = validate_density(np.diag([0.1, 0.9]))
        e = two_bit_pkl_example(sigma, rho1, rho2)
        assert criterion_d_averaged(e) == pytest.approx(0.25, abs=1e-12)

    def test_probe_assignment(self):
        rng = np.random.default_rng(4)
        sigma, rho1, rho2 = (random_density(rng, 2) for _ in range(3))
        e = two_bit_pkl_example(sigma, rho1, rho2)
        np.testing.assert_array_equal(probe(e, "00").matrix, probe(e, "11").matrix)
        np.testing.assert_array_equal(probe(e, "01").matrix, probe(e, "10").matrix)

    def test_rejects_non_qubit(self):
        rng = np.random.default_rng(5)
        with pytest.raises(BadParams, match="sigma must be qubit-dimensioned, got dim 3"):
            two_bit_pkl_example(
                random_density(rng, 3), random_density(rng, 2), random_density(rng, 2)
            )


class TestSpikedDistribution:
    def test_peak_mass_by_construction(self):
        assert SpikedDist(8, 3).max_mass() == Fraction(1, 8)

    def test_distance_to_uniform(self):
        d = SpikedDist(8, 3).variational_from_uniform()
        assert d == Fraction(1, 8) - Fraction(1, 256)
        assert float(d) == 0.12109375

    def test_total_mass_exact_up_to_cap(self):
        for n, l in [(1, 0), (8, 3), (16, 8), (30, 20), (30, 30)]:
            d = SpikedDist(n, l)
            assert d.spike_mass + (2**n - 1) * d.rest_mass == 1

    def test_full_exponent_reduces_to_uniform(self):
        d = SpikedDist(8, 8)
        assert d.variational_from_uniform() == 0
        assert d.spike_mass == d.rest_mass

    def test_dense_expansion_matches_sparse(self):
        d = SpikedDist(6, 2)
        dense = spiked_dense(d)
        assert mass(dense, d.spike_label) == d.spike_mass
        assert sum(dense.probs) == dense.denominator

    @pytest.mark.parametrize("n", range(1, 11))
    def test_dense_expansion_matches_per_label_masses(self, n):
        for l in sorted({0, 1, n // 2, n}):
            d = SpikedDist(n, l)
            dense = spiked_dense(d)
            assert dense.labels == bit_strings(n)
            want = [spiked_mass(d, x) for x in dense.labels]
            assert [mass(dense, x) for x in dense.labels] == want
            assert dense.denominator == math.lcm(*(m.denominator for m in want))
            assert bits(dense.as_array()) == bits([float(m) for m in want])

    def test_entropy_matches_dense_sum(self):
        d = SpikedDist(8, 3)
        dense_h = -sum(
            float(p) * math.log2(float(p)) for p in spiked_dense(d).as_array() if p > 0
        )
        assert d.shannon_entropy() == pytest.approx(dense_h, abs=1e-12)
        assert SpikedDist(8, 0).shannon_entropy() == 0.0  # point mass
        assert SpikedDist(8, 8).shannon_entropy() == pytest.approx(8.0, abs=1e-12)

    def test_entropy_matches_closed_form(self):
        # every (n, l) under the cap: the grouped sum and the closed form part
        # by at most 2 ulps of the entropy, 3.6e-15 bits at n = 30
        pairs = [(n, l) for n in range(1, 31) for l in range(n + 1)]
        assert len(pairs) == 495
        for n, l in pairs:
            h = SpikedDist(n, l).shannon_entropy()
            assert abs(h - spiked_entropy_closed_form(n, l)) <= 4 * math.ulp(h), (n, l)

    def test_bad_params(self):
        with pytest.raises(BadParams):
            SpikedDist(8, 9)
        with pytest.raises(BadParams):
            SpikedDist(31, 3)


class TestConditionOnLeak:
    def test_two_bit_first_bit_leak(self):
        rng = np.random.default_rng(6)
        sigma, rho1, rho2 = (random_density(rng, 2) for _ in range(3))
        e = two_bit_pkl_example(sigma, rho1, rho2)
        conditioned = condition_on_leak(e, LeakSpec((0,), (0,)))
        assert conditioned.n_bits == 1
        assert (conditioned.prior.probs.tolist(), conditioned.prior.denominator) == ([1, 1], 2)
        np.testing.assert_array_equal(probe(conditioned, "0").matrix, probe(e, "00").matrix)
        np.testing.assert_array_equal(probe(conditioned, "1").matrix, probe(e, "01").matrix)

    def test_leak_nothing_is_identity(self):
        rng = np.random.default_rng(7)
        e = random_ensemble(rng, 2, 2)
        conditioned = condition_on_leak(e, LeakSpec((), ()))
        assert conditioned.keys == e.keys
        assert conditioned.prior.as_array().tolist() == e.prior.as_array().tolist()

    def test_leak_all_bits(self):
        rng = np.random.default_rng(8)
        e = random_ensemble(rng, 2, 2)
        conditioned = condition_on_leak(e, LeakSpec((0, 1), (1, 0)))
        assert conditioned.n_bits == 0
        assert conditioned.keys == ("",)
        np.testing.assert_array_equal(probe(conditioned, "").matrix, probe(e, "10").matrix)

    def test_zero_mass_pattern(self):
        rng = np.random.default_rng(9)
        probes = {k: random_density(rng, 2) for k in bit_strings(1)}
        e = CqEnsemble(1, ProbDist(bit_strings(1), (1.0, 0.0)), probes)
        with pytest.raises(BadParams, match="leaked pattern has zero prior probability"):
            condition_on_leak(e, LeakSpec((0,), (1,)))

    def test_conditional_average_identity(self):
        # conditioning then averaging equals the direct conditional average
        rng = np.random.default_rng(10)
        for _ in range(10):
            e = random_ensemble(rng, 3, 2, uniform_prior=False)
            leak = LeakSpec((0, 2), (1, 0))
            conditioned = condition_on_leak(e, leak)
            direct = np.zeros((2, 2), dtype=complex)
            total = 0.0
            for k, p in zip(e.keys, e.prior.as_array()):
                if k[0] == "1" and k[2] == "0":
                    direct += float(p) * probe(e, k).matrix
                    total += float(p)
            np.testing.assert_allclose(
                conditioned.average.matrix, direct / total, atol=1e-12
            )

    def test_position_out_of_range(self):
        rng = np.random.default_rng(11)
        e = random_ensemble(rng, 2, 2)
        with pytest.raises(BadParams):
            condition_on_leak(e, LeakSpec((5,), (0,)))


class TestLeakSpec:
    def test_positions_must_increase(self):
        with pytest.raises(BadParams):
            LeakSpec((1, 0), (0, 0))

    def test_values_must_be_bits(self):
        with pytest.raises(BadParams):
            LeakSpec((0,), (2,))

    @pytest.mark.parametrize(
        "positions,values,message",
        [
            ((0, 1), (0,), "equal length"),
            ((-1,), (0,), "nonnegative"),
            # int() would round 0.7 to 0 and 1.9 to 1, and takes True as 1
            ((0.7,), (1,), "leak positions must be integers"),
            ((True,), (1,), "leak positions must be integers"),
            ((0,), (1.9,), "leaked values must be bits"),
            ((0,), (True,), "leaked values must be bits"),
            ((0,), (np.bool_(True),), "leaked values must be bits"),
        ],
    )
    def test_malformed_specs_refused(self, positions, values, message):
        with pytest.raises(BadParams, match=message):
            LeakSpec(positions, values)

    def test_numpy_integers_accepted(self):
        leak = LeakSpec((np.int64(0), 2), (np.int8(1), 0))
        assert (leak.positions, leak.values) == ((0, 2), (1, 0))
        assert all(type(v) is int for v in (*leak.positions, *leak.values))


#: A probe matrix failing each density check, its error and the start of its message.
INVALID_PROBES = [
    (np.array([[0.5, 0.3], [0.0, 0.5]]), NotHermitian, "deviates from its adjoint by 3.000e-01"),
    (np.diag([1.5, -0.5]), NotPsd, "smallest eigenvalue -5.000e-01"),
    (np.diag([0.6, 0.6]), BadTrace, "trace is 1.2, off unit by 2.000e-01"),
]


class TestStackedValidation:
    """CqEnsemble checks plain-matrix probes itself, as one stack, and takes
    DensityOperators, checked when they were built, as they are."""

    def test_matrices_and_operators_give_the_same_bits(self):
        rng = np.random.default_rng(21)
        keys = bit_strings(3)
        prior = ProbDist(keys, tuple(rng.dirichlet(np.ones(8)).tolist()))
        ops = {k: random_density(rng, 3) for k in keys}
        a = CqEnsemble(3, prior, ops)
        b = CqEnsemble(3, prior, {k: op.matrix for k, op in ops.items()})
        assert bits(a.probe_stack) == bits(b.probe_stack)
        assert bits(a.weights) == bits(b.weights)

    @pytest.mark.parametrize("bad,error,message", INVALID_PROBES)
    def test_invalid_matrix_names_its_deviation(self, bad, error, message):
        with pytest.raises(error, match=message):
            CqEnsemble(1, ProbDist.uniform(bit_strings(1)), {"0": np.eye(2) / 2, "1": bad})

    def test_first_failing_matrix_is_named(self):
        probes = {"0": np.diag([0.6, 0.6]), "1": np.diag([1.5, -0.5])}
        with pytest.raises(BadTrace, match="trace is 1.2"):
            CqEnsemble(1, ProbDist.uniform(bit_strings(1)), probes)

    @pytest.mark.parametrize("keys", [("0",), ("0", "1", "2")])
    def test_probe_keys_must_match_the_prior(self, keys):
        probes = dict.fromkeys(keys, np.eye(2) / 2)
        with pytest.raises(BadParams, match="cover exactly the key values"):
            CqEnsemble(1, ProbDist.uniform(bit_strings(1)), probes)

    def test_prior_of_the_wrong_size_refused_before_building_keys(self):
        # a 2-label prior at 19 bits: refused on its count, no 2^19 keys memoized
        with pytest.raises(BadParams, match="^prior must range over the 2\\^n bit strings in lexicographic order$"):
            CqEnsemble(19, ProbDist.uniform(("0", "1")), {})
        assert 19 not in _BIT_STRINGS

    @pytest.mark.parametrize(
        "n_bits,labels,message",
        [
            (-1, ("0", "1", "2"), "bit count must be nonnegative, got -1"),  # n before the count
            (2, ("0", "1"), "prior must range over"),
            (1, ("1", "0"), "prior must range over"),
        ],
    )
    def test_key_space_refusal_order(self, n_bits, labels, message):
        """The bit count is checked as `bit_strings` checks it, then the
        prior's size against 2^n, then its labels against the bit strings."""
        with pytest.raises(BadParams, match=re.escape(message)):
            CqEnsemble(n_bits, ProbDist.uniform(labels), {})

    def test_unequal_shapes(self):
        probes = {"0": np.eye(2) / 2, "1": validate_density(np.eye(3) / 3)}
        with pytest.raises(BadParams, match="probe shapes differ"):
            CqEnsemble(1, ProbDist.uniform(bit_strings(1)), probes)

    def test_probe_reads_its_row(self):
        e = random_ensemble(np.random.default_rng(22), 2, 2)
        assert bits(probe(e, "10").matrix) == bits(e.probe_stack[2])


@pytest.fixture
def eigensolves(monkeypatch):
    """A function that runs a callable and returns how many np.linalg.eigvalsh
    and np.linalg.eigh calls it made."""
    calls = []
    for name in ("eigvalsh", "eigh"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(_original)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    def count(run) -> int:
        calls.clear()
        run()
        return len(calls)

    return count


class TestValidateOnce:
    """A density operator is eigen-checked once, where its matrix enters;
    operators derived from checked ones are wrapped, read-only, unchecked."""

    def _operators(self, n=2, dim=3):
        rng = np.random.default_rng(31)
        keys = bit_strings(n)
        prior = ProbDist(keys, tuple(rng.dirichlet(np.ones(2**n)).tolist()))
        return prior, {k: random_density(rng, dim) for k in keys}

    def test_ensemble_of_operators_makes_no_eigensolve(self, eigensolves):
        prior, ops = self._operators()
        e = CqEnsemble(2, prior, ops)
        assert eigensolves(lambda: CqEnsemble(2, prior, ops)) == 0
        assert eigensolves(lambda: probe(e, "01")) == 0
        assert eigensolves(lambda: e.average) == 0
        assert eigensolves(lambda: probe(condition_on_leak(e, LeakSpec((0,), (1,))), "1")) == 0

    def test_example_families_make_no_eigensolve(self, eigensolves):
        sigma, rho1, rho2 = (random_density(np.random.default_rng(s), 2) for s in (1, 2, 3))
        assert eigensolves(lambda: two_bit_pkl_example(sigma, rho1, rho2).average) == 0
        assert eigensolves(lambda: probe(single_bit_pure_example(0.3), "1")) == 0

    def test_matrices_are_checked_as_one_stack(self, eigensolves):
        prior, ops = self._operators()
        matrices = {k: op.matrix for k, op in ops.items()}
        assert eigensolves(lambda: CqEnsemble(2, prior, matrices)) == 1

    @pytest.mark.parametrize("bad,error,message", INVALID_PROBES)
    def test_one_raw_matrix_among_operators_is_checked(self, bad, error, message):
        probes = {"0": validate_density(np.eye(2) / 2), "1": bad}
        with pytest.raises(error, match=message):
            CqEnsemble(1, ProbDist.uniform(bit_strings(1)), probes)

    def test_derived_matrices_are_read_only(self):
        prior, ops = self._operators()
        e = CqEnsemble(2, prior, ops)
        residual = condition_on_leak(e, LeakSpec((1,), (0,)))
        sigma, rho1, rho2 = (random_density(np.random.default_rng(s), 2) for s in (4, 5, 6))
        family = two_bit_pkl_example(sigma, rho1, rho2)
        pure = single_bit_pure_example(0.6)
        derived = [
            probe(e, "10"), e.average, probe(residual, "0"), residual.average,
            probe(family, "00"), probe(family, "01"), family.average,
            probe(pure, "0"), probe(pure, "1"), pure.average,
        ]
        for op in derived:
            assert isinstance(op, DensityOperator)
            with pytest.raises(ValueError):
                op.matrix[0, 0] = 0
        for stack in (e.probe_stack, residual.probe_stack, family.probe_stack, pure.probe_stack):
            assert not stack.flags.writeable

    def test_derived_operators_keep_their_values(self):
        prior, ops = self._operators()
        e = CqEnsemble(2, prior, ops)
        assert bits(probe(e, "11").matrix) == bits(ops["11"].matrix)
        residual = condition_on_leak(e, LeakSpec((0,), (1,)))
        assert bits(residual.probe_stack) == bits(e.probe_stack[2:])
        assert bits(e.average.matrix) == bits(average_probe_loop(e))


class TestSerialization:
    def test_ensemble_key_validation(self):
        with pytest.raises(BadParams):
            CqEnsemble(
                1,
                ProbDist(("1", "0"), (0.5, 0.5)),  # wrong order
                {"0": validate_density(np.eye(2) / 2), "1": validate_density(np.eye(2) / 2)},
            )


class TestProbeStack:
    @pytest.mark.parametrize("uniform", [True, False])  # Fraction and float priors
    def test_stack_and_weights_follow_key_order(self, uniform):
        rng = np.random.default_rng(11)
        e = random_ensemble(rng, 3, 2, uniform_prior=uniform)
        assert e.probe_stack.shape == (8, 2, 2)
        for i, k in enumerate(e.keys):
            assert bits(e.probe_stack[i]) == bits(probe(e, k).matrix)
        assert e.weights.dtype == np.float64
        assert bits(e.weights) == bits([float(mass(e.prior, k)) for k in e.keys])

    def test_frozen(self):
        e = random_ensemble(np.random.default_rng(12), 2, 2)
        for a in (e.probe_stack, e.weights, e.key_norms):
            with pytest.raises(ValueError):
                a[0] = 0

    @pytest.mark.parametrize("n", range(8))
    def test_average_holds_the_bits_of_a_loop_over_the_weights(self, n):
        """The accumulated average against a key-order loop from a zero
        matrix, on real probes whose imaginary parts are -0.0 and on complex
        ones, under uniform and random priors."""
        rng = np.random.default_rng(n)
        keys = bit_strings(n)
        for dim, uniform, real in itertools.product((1, 2, 3, 16), (True, False), (True, False)):
            probes = {}
            for k in keys:
                m = random_density(rng, dim).matrix
                probes[k] = np.array(m.real if real else m, dtype=complex)
                if real:
                    probes[k].imag[...] = -0.0
            prior = ProbDist.uniform(keys) if uniform else random_probdist(rng, keys)
            e = CqEnsemble(n, prior, probes)
            acc = np.zeros((dim, dim), dtype=complex)
            for w, rho in zip(e.weights.tolist(), e.probe_stack):
                acc += w * rho
            assert bits(e.average.matrix) == bits(acc)

    def test_average_and_norms_computed_once(self):
        e = random_ensemble(np.random.default_rng(13), 3, 3)
        assert e.average is e.average
        assert e.key_norms is e.key_norms
        assert bits(e.average.matrix) == bits(average_probe_loop(e))

    def test_stack_is_the_only_probe_storage(self):
        e = random_ensemble(np.random.default_rng(15), 2, 2)
        assert "probes" not in vars(e)
        with pytest.raises(BadParams, match="unknown key"):
            probe(e, "x")

    def test_equality_is_identity(self):
        e = random_ensemble(np.random.default_rng(16), 1, 2)
        povm = pgm(e)
        values = [e, e.average, povm, measure_ensemble(e, povm)]
        twins = [
            condition_on_leak(e, LeakSpec((), ())),
            DensityOperator(e.average.matrix),
            pgm(e),
            measure_ensemble(e, povm),
        ]
        for a, b in zip(values, twins):
            assert a == a and a != b
            assert hash(a) == hash(a) and len({a, b}) == 2

    def test_conditioning_rebuilds_the_stack(self):
        e = random_ensemble(np.random.default_rng(14), 3, 2, uniform_prior=False)
        residual = condition_on_leak(e, LeakSpec((1,), (1,)))
        assert residual.probe_stack.shape == (4, 2, 2)
        for i, k in enumerate(residual.keys):
            assert bits(residual.probe_stack[i]) == bits(probe(residual, k).matrix)
