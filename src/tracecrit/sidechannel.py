"""GF(2) side-channel analysis: hash rank leakage and decoder bias.

A compressing Toeplitz hash with rank deficiency r leaks r bits of the
hashed key even when the input is perfectly uniform, and a linear code
whose decision regions are unequal biases the a-priori distribution of
decoded messages.  Both effects are quantified here by exact enumeration
over packed bit matrices.  This module owns every check of a GF(2)
request: the records refuse bad matrices and codes when built, and
`singular_fraction` and `decision_region_census` check their mode, rule,
seed and size caps before they import numpy, so a refused request loads
none.  The records are NamedTuples, so importing this module loads no
numpy and no dataclass machinery.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import BadParams, TooLarge
from .keys import _ints, bit_strings

#: Block-length cap for decision-region censuses (2^n received words).
CENSUS_BIT_CAP = 20
#: Seed-space cap for exhaustive singular-fraction enumeration, and sample cap of the sampled one.
EXHAUSTIVE_SEED_CAP = 2**24

DECODING_RULES = ("syndrome", "min_distance")


class _Matrix(NamedTuple):
    rows: int
    cols: int
    row_bits: tuple[int, ...]


class Gf2Matrix(_Matrix):
    """Binary matrix with rows packed as Python ints (bit j = column j)."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, row_bits):
        if min(_ints((rows, cols), "matrix dimensions must be integers")) <= 0:
            raise BadParams("matrix dimensions must be positive")
        bits = _ints(row_bits, "packed rows must be integers")
        if len(bits) != rows:
            raise BadParams(f"expected {rows} packed rows, got {len(bits)}")
        if any(r < 0 or r >> cols for r in bits):
            raise BadParams(f"row bits exceed {cols} columns")
        return super().__new__(cls, rows, cols, bits)

    @classmethod
    def from_rows(cls, rows) -> "Gf2Matrix":
        try:
            rows = [list(r) for r in rows]
        except TypeError:
            raise BadParams(f"matrix must be a sequence of rows, got {rows!r}") from None
        if not rows or not rows[0]:
            raise BadParams("matrix must have at least one row and column")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise BadParams("rows have unequal lengths")
        rows = [_ints(r, "entries must be bits") for r in rows]
        if any(set(r) - {0, 1} for r in rows):
            raise BadParams("entries must be bits")
        packed = tuple(sum(b << j for j, b in enumerate(r)) for r in rows)
        return cls(len(rows), n, packed)


def _gf2_rref(mat: Gf2Matrix) -> tuple[list[int], list[int]]:
    """Reduced row echelon form over GF(2) by Gaussian elimination on packed rows.

    Returns the reduced rows and the pivot columns: row i has its pivot at
    column pivots[i] and no other pivot bit set; rows past len(pivots) are
    zero.
    """
    work = list(mat.row_bits)
    pivots = []
    rank = 0
    for col in range(mat.cols):
        pivot = None
        for r in range(rank, len(work)):
            if (work[r] >> col) & 1:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(len(work)):
            if r != rank and ((work[r] >> col) & 1):
                work[r] ^= work[rank]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return work, pivots


def gf2_rank(mat: Gf2Matrix) -> int:
    """Rank over GF(2)."""
    return len(_gf2_rref(mat)[1])


#: Matrix entries ranked together in one batch (2 MiB of bits), which
#: bounds memory for any seed count and any matrix size.
_RANK_BATCH_CELLS = 2**21

#: Elimination steps (batches times matrix cells) of the costliest
#: exhaustive request, 12 x 13 at the seed cap; a sampled one may take no more.
_MAX_RANK_STEPS = -(-EXHAUSTIVE_SEED_CAP // (_RANK_BATCH_CELLS // 156)) * 156


def _gf2_ranks(rows: np.ndarray, cols: int) -> np.ndarray:
    """GF(2) rank of every matrix in a (rows, batch, words) array of packed rows.

    rows[r, b] is row r of matrix b, column j in bit j % w of word j // w,
    where w is the bit width of the unsigned dtype; only the first ``cols``
    columns are read.  Columns are eliminated in order: the first row holding
    column j is XORed into every row holding it, itself included, so column j
    leaves every row and the pivot row leaves the matrix.  The rank is the
    number of columns that found a pivot.  ``rows`` is overwritten.
    """
    import numpy as np

    n_rows, batch, words = rows.shape
    width = 8 * rows.itemsize
    weight = np.arange(n_rows, 0, -1, dtype=np.result_type(rows.dtype, np.min_scalar_type(n_rows)))
    past = np.arange(batch) + n_rows * batch
    flat = rows.reshape(-1, words)
    rank = np.zeros(batch, dtype=np.intp)
    for c in range(cols):
        bit = (rows[:, :, c // width] >> c % width) & 1
        top = np.maximum.reduce(bit * weight[:, None], axis=0)  # n_rows - first holder, 0 when none holds it
        rank += top != 0
        pivot = flat.take(past - top.astype(np.intp) * batch, axis=0, mode="clip")
        rows ^= bit[:, :, None] * pivot
    return rank


def _toeplitz_ranks(seeds: np.ndarray, m: int, n: int) -> np.ndarray:
    """Ranks of the m x n Toeplitz matrices of a (count, words) array of seeds,
    the matrix of a seed having entry(i, j) = seed[i - j + n - 1].

    Each seed is m + n - 1 bits in little-endian uint64 words (bit k in bit
    k % 64 of word k // 64).  Row i, seed bits i..i + n - 1 with its columns
    reversed, which keeps the rank, is shifted out into the narrowest unsigned
    dtype of n bits, or uint64 words past 64; later bits are never read.
    The n x m matrix of a seed, the m x n one transposed and reversed, has the
    same rank, so the taller of the two is ranked, with rows min(m, n) bits wide.
    """
    import numpy as np

    m, n = max(m, n), min(m, n)
    seed = np.concatenate([seeds.T, np.zeros((1, len(seeds)), seeds.dtype)])  # one zero word past the seed
    word, shift = np.divmod(np.arange(m)[:, None] + np.arange(0, n, 64), 64)  # (m, row words)
    shift = shift[..., None].astype(np.uint64)
    rows = seed[word]
    rows >>= shift
    if seeds.shape[1] > 1:  # (x << 1) << (63 - s) is x << (64 - s), and 0 when s = 0
        rows |= (seed[word + 1] << np.uint64(1)) << (np.uint64(63) - shift)
    rows = np.ascontiguousarray(rows.transpose(0, 2, 1), dtype=np.min_scalar_type(2 ** min(n, 64) - 1))
    return _gf2_ranks(rows, n)


def singular_fraction(
    m: int, n: int, mode: str = "exhaustive", samples: int | None = None, seed: int | None = None
) -> float:
    """Fraction of Toeplitz seeds whose matrix has rank below min(m, n).

    ``mode='exhaustive'`` enumerates every seed (capped at 2^24 seeds);
    ``mode='sample'`` draws ``samples`` seeds (at most 2^24) from a
    generator seeded with ``seed`` so estimates are reproducible.  Seeds
    are ranked in batches of bounded size, and a request may take no more
    elimination steps than the costliest exhaustive one.  Every check runs
    before numpy is imported.
    """
    bits = m + n - 1
    if mode == "exhaustive":
        if bits >= EXHAUSTIVE_SEED_CAP.bit_length():  # compare exponents: no 2**bits yet
            raise TooLarge(f"2^{bits} seeds exceed the exhaustive cap of {EXHAUSTIVE_SEED_CAP}")
    elif mode == "sample":
        if not samples or samples <= 0:
            raise BadParams("sample mode needs a positive sample count")
        if seed is None:
            raise BadParams("sample mode needs an explicit seed for reproducibility")
        if samples > EXHAUSTIVE_SEED_CAP:
            raise TooLarge(f"{samples} samples exceed the cap of {EXHAUSTIVE_SEED_CAP}")
    else:
        raise BadParams(f"mode must be 'exhaustive' or 'sample', got {mode!r}")
    if m <= 0 or n <= 0:
        raise BadParams("matrix dimensions must be positive")
    total = 2**bits if mode == "exhaustive" else samples
    batch = max(1, _RANK_BATCH_CELLS // (m * n))
    if -(-total // batch) * m * n > _MAX_RANK_STEPS:
        raise TooLarge(f"{total} {m}x{n} matrices exceed the cap of {_MAX_RANK_STEPS} elimination steps")
    import numpy as np

    if mode == "exhaustive":

        def draw(start: int, count: int) -> np.ndarray:
            return np.arange(start, start + count, dtype=np.uint64)[:, None]  # a seed is its index

    else:
        import random

        # randrange(2) is bit 30 of each MT19937 output with bit 31 clear
        _, key, _ = random.Random(seed).getstate()
        mt = np.random.MT19937()
        mt.state = {"bit_generator": "MT19937", "state": {"key": np.array(key[:-1], np.uint32), "pos": key[-1]}}

        def draw(start: int, count: int) -> np.ndarray:
            drawn, filled = np.empty(count * bits, dtype=np.uint8), 0
            while filled < drawn.size:  # one output per missing bit: none past the last kept
                raw = mt.random_raw(drawn.size - filled)
                kept = np.compress(raw < 2**31, raw) >> 30
                drawn[filled : filled + kept.size] = kept
                filled += kept.size
            packed = np.zeros((count, 8 * -(-bits // 64)), dtype=np.uint8)
            packed[:, : -(-bits // 8)] = np.packbits(drawn.reshape(count, bits), axis=1, bitorder="little")
            return packed.view("<u8")

    singular = 0
    for start in range(0, total, batch):
        ranks = _toeplitz_ranks(draw(start, min(batch, total - start)), m, n)
        singular += int(np.count_nonzero(ranks < min(m, n)))
    return singular / total


class _Code(NamedTuple):
    generator: Gf2Matrix


class LinearCode(_Code):
    """Binary linear [n, k] code given by a full-rank k x n generator."""

    __slots__ = ()

    def __new__(cls, generator: Gf2Matrix):
        code = super().__new__(cls, generator)
        code.__post_init__()
        return code

    # Kept apart from `__new__`: bench/spans.py's POST_INITS wraps it through `cls.__dict__`.
    def __post_init__(self):
        if gf2_rank(self.generator) != self.generator.rows:
            raise BadParams("generator matrix must have full row rank over GF(2)")

    @property
    def n(self) -> int:
        return self.generator.cols

    @property
    def k(self) -> int:
        return self.generator.rows

    def codewords(self) -> np.ndarray:
        """Every codeword, indexed by message: bit t of the k-bit message,
        counted from the leftmost, selects generator row t."""
        return _xor_span(reversed(self.generator.row_bits))


def _xor_span(gens) -> np.ndarray:
    """XOR of every subset of ``gens``: entry i takes gens[b] for each set bit b of i."""
    import numpy as np

    span = np.zeros(1, dtype=np.int64)
    for g in gens:
        span = np.concatenate([span, span ^ g])
    return span


def code_from_text(text: str) -> LinearCode:
    """Parse a generator matrix from plain text, one row of 0/1 per line.

    Digits may be contiguous ('1011') or whitespace-separated ('1 0 1 1').
    """
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        digits = line.split() if " " in line or "\t" in line else list(line)
        try:
            rows.append([int(d) for d in digits])
        except ValueError:
            raise BadParams(f"bad generator row {line!r}") from None
    if not rows:
        raise BadParams("generator file contains no rows")
    return LinearCode(Gf2Matrix.from_rows(rows))


def _parity_check_rows(code: LinearCode) -> list[int]:
    """Rows of a parity-check matrix (n-k of them) from the generator's RREF."""
    work, pivots = _gf2_rref(code.generator)
    free = (f for f in range(code.n) if f not in pivots)
    return [(1 << f) ^ sum(1 << p for row, p in zip(work, pivots) if (row >> f) & 1) for f in free]


class CensusResult(NamedTuple):
    """Region sizes by message, the decoded message's bias, the perfect radius
    (None for a code that is not perfect) and the cosets decoded with a tie."""

    region_sizes: dict[str, int]
    bias_delta: float
    perfect_radius: int | None
    ties: int


def decision_region_census(code: LinearCode, rule: str = "syndrome") -> CensusResult:
    """Decode every received word and measure the induced message bias.

    Words are decoded coset by coset.  Coset s is e_0 ^ C, E_s holds its
    members of least weight and the leader e_0 is the smallest of them.
    The codewords closest to e_0 ^ c_i are (e_0 ^ e) ^ c_i = c_(i ^ m_e)
    for e in E_s, where c_(m_e) = e_0 ^ e.  Syndrome decoding takes e_0
    alone and returns i, so its regions are equal; minimum distance returns
    the least i ^ m_e, which sends each tied m_e to message 0, so its
    regions are unequal exactly when some coset has a tie, |E_s| > 1.  A
    coset with one candidate gives each message one word; the others take
    sum |E_s| 2^k steps, at most 2^(n+k).  The bias is the variational
    distance of the decoded message (uniform words) from uniform.  The
    largest leader weight is the covering radius rho, and the balls of
    radius rho about the codewords cover every word, so the code is perfect,
    sum_{i<=rho} C(n, i) = 2^(n-k), exactly when its distance exceeds 2 rho.
    """
    if rule not in DECODING_RULES:
        raise BadParams(f"rule must be one of {DECODING_RULES}, got {rule!r}")
    n, k = code.n, code.k
    if n > CENSUS_BIT_CAP:
        raise TooLarge(f"block length {n} exceeds the census cap of {CENSUS_BIT_CAP} bits")
    import numpy as np

    h_rows = _parity_check_rows(code)
    syndromes = _xor_span(sum(((h >> j) & 1) << r for r, h in enumerate(h_rows)) for j in range(n))
    weights = np.bitwise_count(np.arange(2**n, dtype=np.int64))
    least = np.full(2 ** (n - k), n, dtype=weights.dtype)
    np.minimum.at(least, syndromes, weights)
    members = np.flatnonzero(weights == least[syndromes])  # every E_s, ascending
    if rule == "syndrome":
        members = members[np.unique(syndromes[members], return_index=True)[1]]
    sizes = np.bincount(syndromes[members], minlength=2 ** (n - k))
    members = members[np.lexsort((syndromes[members], -sizes[syndromes[members]]))]  # largest E_s first
    depth = -np.sort(-sizes[sizes > 1])  # in that order, so those above j are a prefix
    first = np.cumsum(depth) - depth
    message_of = np.empty(2**n, dtype=np.int64)
    codewords = code.codewords()
    message_of[codewords] = np.arange(2**k)
    messages = np.tile(np.arange(2**k), (len(depth), 1))
    for j in range(1, depth.max(initial=0)):
        rows = np.count_nonzero(depth > j)
        shift = message_of[members[first[:rows]] ^ members[first[:rows] + j]]
        np.minimum(messages[:rows], shift[:, None] ^ np.arange(2**k), out=messages[:rows])
    counts = np.bincount(messages.ravel(), minlength=2**k) + (2 ** (n - k) - len(depth))
    delta = int(np.abs(counts - 2 ** (n - k)).sum()) / 2 ** (n + 1)
    rho = int(least.max())
    perfect_radius = rho if weights[codewords[1:]].min() > 2 * rho else None
    return CensusResult(dict(zip(bit_strings(k), counts.tolist())), delta, perfect_radius, len(depth))
