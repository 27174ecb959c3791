"""Seeded random instances and loop oracles shared across the test modules."""

import itertools
import math
import numbers
import random
import types
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from tracecrit import (
    Coupling,
    CqEnsemble,
    DensityOperator,
    Gf2Matrix,
    LeakSpec,
    LinearCode,
    Povm,
    ProbDist,
    SpikedDist,
    gf2_rank,
    validate_density,
    variational_distance,
)
from tracecrit.ensembles import bit_strings
from tracecrit.errors import _PGM_SUPPORT_CUTOFF, TOL, ZERO_TOL, BadParams
from tracecrit.two_bit import TWO_BIT_PRESETS
from tracecrit.qmath import _hermitian_eigen, _require_hermitian_stack
from tracecrit.sidechannel import _parity_check_rows


def random_density(rng, dim: int, rank: int | None = None) -> DensityOperator:
    """A random density operator, of full rank unless ``rank`` is given."""
    rank = dim if rank is None else rank
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = a @ a.conj().T
    return validate_density(m / np.trace(m).real)


def random_pure_vector(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_unitary(rng, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_probdist(rng, labels) -> ProbDist:
    labels = tuple(labels)
    w = rng.random(len(labels)) + 1e-6
    return ProbDist(labels, tuple(w / w.sum()))


def random_ensemble(rng, n_bits: int, dim: int, uniform_prior: bool = True) -> CqEnsemble:
    keys = bit_strings(n_bits)
    prior = ProbDist.uniform(keys) if uniform_prior else random_probdist(rng, keys)
    probes = {k: random_density(rng, dim) for k in keys}
    return CqEnsemble(n_bits, prior, probes)


def single_bit_pure_example(c: float) -> CqEnsemble:
    """One-bit key with pure probes of real overlap c, embedded in dim 2: the
    ensemble the CLI's overlap pair was once read from, kept as its oracle."""
    if not 0.0 <= c <= 1.0:
        raise BadParams(f"overlap must lie in [0, 1], got {c!r}")
    kets = np.array([[1.0, 0.0], [c, math.sqrt(max(0.0, 1.0 - c * c))]], dtype=complex)
    probes = {k: DensityOperator._trusted(np.outer(v, v.conj())) for k, v in zip("01", kets)}
    return CqEnsemble(1, ProbDist.uniform(bit_strings(1)), probes)


def random_povm(rng, dim: int, n_outcomes: int) -> Povm:
    raws = []
    for _ in range(n_outcomes):
        b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        raws.append(b @ b.conj().T)
    total = np.sum(raws, axis=0)
    vals, vecs = np.linalg.eigh(total)
    inv_sqrt = vecs @ np.diag(vals**-0.5) @ vecs.conj().T
    elements = []
    for i, raw in enumerate(raws):
        op = inv_sqrt @ raw @ inv_sqrt
        elements.append((f"o{i}", 0.5 * (op + op.conj().T)))
    return Povm(tuple(elements))


class CountingNumpy(types.ModuleType):
    """numpy with a `matmul` that counts the matrix products it makes.  Set
    as `criteria.np`, it counts the key x outcome products that
    `_outcome_mass` computes, the module's one `matmul` outside the
    Walsh-Hadamard transform; a mass read again adds none."""

    def __init__(self):
        super().__init__("numpy")
        self.products = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b):
        out = np.matmul(a, b)
        self.products += out.size // (out.shape[-2] * out.shape[-1])
        return out


# -- scalar views of the packed and factored forms ------------------------


def mass(p: ProbDist, label: str):
    """One label's mass: a Fraction when p is exact, else a float."""
    if label not in p.labels:
        raise BadParams(f"unknown label {label!r}")
    i = p.labels.index(label)
    if p.denominator is None:
        return float(p.probs[i])
    return Fraction(p.probs[i], p.denominator)


def probe(e: CqEnsemble, key: str) -> DensityOperator:
    """The probe of one key, a read-only view of its row of the stack."""
    if key not in e.keys:
        raise BadParams(f"unknown key {key!r}")
    return DensityOperator._trusted(e.probe_stack[e.keys.index(key)])


def spiked_mass(d: SpikedDist, label: str) -> Fraction:
    """Mass of one key of a spiked distribution."""
    return d.spike_mass if label == d.spike_label else d.rest_mass


def spiked_dense(d: SpikedDist) -> ProbDist:
    """A spiked distribution as an exact dense ProbDist, one Fraction per key."""
    keys = bit_strings(d.n_bits)
    return ProbDist(keys, [spiked_mass(d, x) for x in keys])


def spiked_entropy_closed_form(n: int, l: int) -> float:
    """Entropy in bits of SpikedDist(n, l) in closed form,
    l 2^-l + (1 - 2^-l)(n + log2(1 - 2^-n) - log2(1 - 2^-l)), both logs
    through log1p; 0 at l = 0, where the second term's weight vanishes."""
    if l == 0:
        return 0.0

    def log2_1m(k):  # log2(1 - 2^-k)
        return math.log1p(-(2.0**-k)) / math.log(2)

    return l * 2.0**-l + (1 - 2.0**-l) * (n + log2_1m(n) - log2_1m(l))


def matrix_rows(mat: Gf2Matrix) -> list[list[int]]:
    """A packed GF(2) matrix as rows of bits, column j from bit j of a row."""
    return [[(row >> j) & 1 for j in range(mat.cols)] for row in mat.row_bits]


def toeplitz_from_seed(seed, m: int, n: int) -> Gf2Matrix:
    """The m x n Toeplitz matrix of m + n - 1 seed bits, entry(i, j) = seed[i - j + n - 1]."""
    return Gf2Matrix(m, n, tuple(sum(int(seed[i - j + n - 1]) << j for j in range(n)) for i in range(m)))


def pac_leakage(mat: Gf2Matrix) -> int:
    """Bits a compressing hash leaks by rank deficiency: a uniform input maps
    uniformly onto a subspace of dimension rank, rows - rank bits short."""
    return mat.rows - gf2_rank(mat)


def codeword(code: LinearCode, message: int) -> int:
    """Encode a message index one generator row at a time: bit t of the
    k-bit message, counted from the leftmost, selects row t."""
    word = 0
    for t in range(code.k):
        if (message >> (code.k - 1 - t)) & 1:
            word ^= code.generator.row_bits[t]
    return word


def coupling_cell(c: Coupling, i: int, j: int):
    """Mass of cell (i, j) of a factored coupling: a Fraction when its
    marginals are exact, else a float."""
    scale = c.leftover or 1  # a leftover of 0 means every residual is 0
    on = c.diagonal[i] if c.diagonal is not None and i == j else 0
    if c.denominator is None:
        return float(c.res_p[i] * c.res_q[j] / scale + on)
    return Fraction(c.res_p[i] * c.res_q[j], c.denominator * scale) + Fraction(on, c.denominator)


# -- loop oracles for the batched kernels --------------------------------


def bit_strings_recursive(n: int) -> tuple[str, ...]:
    """All n-bit strings in lexicographic order, rebuilt on every call."""
    if n == 0:
        return ("",)
    if n == 1:
        return ("0", "1")
    low = bit_strings_recursive(n // 2)
    return tuple(a + b for a in bit_strings_recursive(n - n // 2) for b in low)


def singular_fraction_loop(m: int, n: int, mode: str = "exhaustive", samples=None, seed=None) -> float:
    """Singular Toeplitz fraction, one gf2_rank per seed."""
    bits = m + n - 1
    if mode == "exhaustive":
        seeds = ([(s >> i) & 1 for i in range(bits)] for s in range(2**bits))
        total = 2**bits
    else:
        rng = random.Random(seed)
        seeds = ([rng.randrange(2) for _ in range(bits)] for _ in range(samples))
        total = samples
    singular = sum(gf2_rank(toeplitz_from_seed(b, m, n)) < min(m, n) for b in seeds)
    return singular / total


def census_loop(code: LinearCode, rule: str) -> tuple[list[int], float]:
    """(decision-region sizes in message order, bias delta), decoding all 2^n
    words per rule: syndrome decoding through coset leaders found by a
    lexsort, minimum distance by one pass per codeword (earlier message wins
    ties); the delta is the variational distance of the exact region masses
    from uniform."""
    n, k = code.n, code.k
    words = np.arange(2**n, dtype=np.int64)
    cws = np.asarray([codeword(code, i) for i in range(2**k)], dtype=np.int64)
    if rule == "syndrome":
        h_rows = _parity_check_rows(code)
        col_syndrome = np.zeros(n, dtype=np.int64)
        for j in range(n):
            col_syndrome[j] = sum(((h >> j) & 1) << r for r, h in enumerate(h_rows))
        syndromes = np.zeros(2**n, dtype=np.int64)
        for j in range(n):
            syndromes ^= ((words >> j) & 1) * col_syndrome[j]
        # coset leader: minimum weight, ties broken by smallest word value
        order = np.lexsort((words, np.bitwise_count(words)))
        uniq, first = np.unique(syndromes[order], return_index=True)
        leaders = np.zeros(2 ** (n - k), dtype=np.int64)
        leaders[uniq] = words[order[first]]
        msg_of_word = np.full(2**n, -1, dtype=np.int64)
        msg_of_word[cws] = np.arange(2**k)
        messages = msg_of_word[words ^ leaders[syndromes]]
    else:
        best_dist = np.full(2**n, n + 1, dtype=np.int64)
        messages = np.zeros(2**n, dtype=np.int64)
        for idx in range(2**k):
            dist = np.bitwise_count(words ^ cws[idx])
            better = dist < best_dist  # strict: earlier message wins ties
            best_dist = np.where(better, dist, best_dist)
            messages = np.where(better, idx, messages)
    counts = np.bincount(messages, minlength=2**k).tolist()
    labels = bit_strings(k)
    bias = ProbDist(labels, [Fraction(c, 2**n) for c in counts])
    return counts, float(variational_distance(bias, ProbDist.uniform(labels)))


class Recount(NamedTuple):
    """A code decoded by brute force: region sizes in message order, each
    word's distance to its nearest codeword, and how many codewords are that near."""

    sizes: tuple[int, ...]
    distance: np.ndarray
    nearest: np.ndarray


def recount(rows, rule: str) -> Recount:
    """Decode each of the 2^n words against all 2^k codewords of a generator
    given as rows of bits.  Message i's t-th bit from the left selects
    generator row t, and column j is bit j of a word.  Syndrome decoding
    subtracts the least-weight member of the word's coset, the smallest as
    an integer on ties; minimum distance takes the nearest codeword, the
    least message on ties."""
    n, k = len(rows[0]), len(rows)
    row_words = [sum(bit << j for j, bit in enumerate(row)) for row in rows]
    words = np.arange(2**n, dtype=np.int64)
    best = np.full(2**n, np.iinfo(np.int64).max)
    decoded = np.zeros(2**n, dtype=np.int64)
    distance = np.full(2**n, n + 1)
    nearest = np.zeros(2**n, dtype=np.int64)
    for i in range(2**k):
        codeword = 0
        for t, bit in enumerate(format(i, f"0{k}b")):
            if bit == "1":
                codeword ^= row_words[t]
        error = words ^ codeword
        weight = np.bitwise_count(error).astype(np.int64)
        nearest = np.where(weight < distance, 1, nearest + (weight == distance))
        distance = np.minimum(distance, weight)
        score = weight * 2**n + error if rule == "syndrome" else weight
        better = score < best  # strict: an earlier message keeps a tie
        best[better] = score[better]
        decoded[better] = i
    return Recount(tuple(np.bincount(decoded, minlength=2**k).tolist()), distance, nearest)


def perfect_radius(distance: np.ndarray, n: int, k: int) -> int:
    """The covering radius rho, the largest distance from a word to its
    nearest codeword, when the 2^k balls of radius rho have total volume
    2^n, sum_{i <= rho} C(n, i) = 2^(n-k), and so partition the words; -1
    for a code that is not perfect."""
    rho = int(distance.max())
    return rho if sum(math.comb(n, i) for i in range(rho + 1)) == 2 ** (n - k) else -1


def toeplitz_singular_law(m: int, n: int) -> Fraction:
    """Singular fraction of the m x n Toeplitz family by its rank law: of the
    2^(m+n-1) seeds, 4^(min(m, n) - 1) have rank below min(m, n)."""
    return Fraction(4 ** (min(m, n) - 1), 2 ** (m + n - 1))


def event_deviation_loop(p: ProbDist, m: int):
    """Largest m-bit subsequence event deviation, one bincount pass per position set."""
    n = len(p.labels[0])
    probs = p.as_array()
    keys = np.arange(2**n, dtype=np.int64)
    target = 2.0**-m
    best_dev = -1.0
    best_event = None
    for positions in itertools.combinations(range(n), m):
        idx = np.zeros(2**n, dtype=np.int64)
        for t, pos in enumerate(positions):
            idx |= ((keys >> (n - 1 - pos)) & 1) << (m - 1 - t)
        sums = np.bincount(idx, weights=probs, minlength=2**m)
        devs = np.abs(sums - target)
        j = int(np.argmax(devs))
        if devs[j] > best_dev:
            best_dev = float(devs[j])
            best_event = (positions, format(j, f"0{m}b"))
    return best_dev, best_event


def masses(p: ProbDist) -> tuple:
    """The masses of p in label order, one scalar each: Fractions when p is
    exact, floats otherwise."""
    return tuple(mass(p, x) for x in p.labels)


def probdist_loop(labels, probs) -> tuple:
    """(labels, cleaned masses) of a distribution, checked one mass at a time:
    a mass in [-ZERO_TOL, 0) is clamped to a zero of its own type."""
    labels = tuple(str(x) for x in labels)
    if len(set(labels)) != len(labels):
        raise BadParams("distribution labels must be unique")
    probs = tuple(probs)
    if len(labels) != len(probs):
        raise BadParams(f"{len(labels)} labels but {len(probs)} masses")
    cleaned = []
    for v in probs:
        if v < 0:
            if v < -ZERO_TOL:
                raise BadParams(f"negative probability mass {v!r}")
            v = abs(0 * v)
        cleaned.append(v)
    total = math.fsum(float(v) for v in cleaned)
    if not abs(total - 1.0) <= TOL:
        raise BadParams(f"masses sum to {total!r}, off unit by {abs(total - 1.0):.3e}")
    return labels, tuple(cleaned)


def _exact(values) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in values)


def variational_distance_loop(p: ProbDist, q: ProbDist):
    """Half the L1 distance over the outer join of the labels, one label at a time."""
    pm = dict(zip(p.labels, masses(p)))
    qm = dict(zip(q.labels, masses(q)))
    labels = list(p.labels) + [x for x in q.labels if x not in pm]
    diffs = [abs(pm.get(x, 0) - qm.get(x, 0)) for x in labels]
    if _exact(diffs):
        return sum(diffs, Fraction(0)) / 2
    return math.fsum(float(v) for v in diffs) / 2.0


def decomposition_fallacy_check(p: ProbDist, q: ProbDist, eps: float) -> bool:
    """Whether p = (1 - eps) q + eps p' for some distribution p': exactly when
    p(x) >= (1 - eps) q(x) at every label of either, one label at a time."""
    pm = dict(zip(p.labels, masses(p)))
    qm = dict(zip(q.labels, masses(q)))
    return all(float(pm.get(x, 0)) >= (1.0 - eps) * float(qm.get(x, 0)) - ZERO_TOL for x in pm.keys() | qm.keys())


def _mismatch_from_matches(matches):
    if _exact(matches):
        return 1 - sum(matches, Fraction(0))
    return 1.0 - math.fsum(float(v) for v in matches)


def independent_mismatch_loop(p: ProbDist, q: ProbDist):
    """Pr[X != X'] under the product coupling, one matching label at a time."""
    qm = dict(zip(q.labels, masses(q)))
    return _mismatch_from_matches([a * qm[x] for x, a in zip(p.labels, masses(p)) if x in qm])


def _maximal_factors(p: ProbDist, q: ProbDist) -> tuple:
    """Scalar diagonal, residuals and leftover of the maximal coupling, q aligned to p."""
    if set(p.labels) != set(q.labels):
        raise BadParams("coupled distributions must share one label universe")
    pp = masses(p)
    qm = dict(zip(q.labels, masses(q)))
    qp = tuple(qm[x] for x in p.labels)
    mins = tuple(min(a, b) for a, b in zip(pp, qp))
    res_p = tuple(a - m for a, m in zip(pp, mins))
    res_q = tuple(b - m for b, m in zip(qp, mins))
    exact = _exact((*pp, *qp))
    leftover = sum(res_p, Fraction(0)) if exact else math.fsum(float(v) for v in res_p)
    return pp, qp, mins, res_p, res_q, leftover


def maximal_mismatch_loop(p: ProbDist, q: ProbDist):
    """Pr[X != X'] under the maximal coupling, one diagonal cell at a time."""
    _, _, mins, res_p, res_q, leftover = _maximal_factors(p, q)
    matches = []
    for m, a, b in zip(mins, res_p, res_q):
        cell = a * b
        if cell and leftover != 1:
            cell = cell / leftover
        matches.append(m + cell if cell else m)
    return _mismatch_from_matches(matches)


def dense_maximal_coupling(p: ProbDist, q: ProbDist) -> tuple:
    """The cell rows of the maximal coupling, every cell of the joint mass materialized."""
    _, _, mins, res_p, res_q, leftover = _maximal_factors(p, q)
    n = len(p.labels)
    rows = [[0 * mins[0]] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = mins[i]
    if leftover > 0:
        for i in range(n):
            if res_p[i] == 0:
                continue
            for j in range(n):
                if res_q[j] == 0:
                    continue
                rows[i][j] = rows[i][j] + res_p[i] * res_q[j] / leftover
    return tuple(tuple(r) for r in rows)


def bits(x) -> bytes:
    """The exact float64 (or complex128) bit pattern of a value or array."""
    a = np.asarray(x)
    return a.astype(complex if np.iscomplexobj(a) else float).tobytes()


def gap_qubit(sign: int) -> DensityOperator:
    """A qubit probe that passes the entry check with both off-diagonal
    entries at 0.2 + sign * 0.45 TOL i, so it misses its adjoint by 0.9 TOL.
    A difference of two with opposite signs misses it by 1.8 TOL."""
    c = 0.2 + sign * 0.45 * TOL * 1j
    return validate_density(np.array([[0.5, c], [c, 0.5]]))


def gap_ensemble() -> CqEnsemble:
    """Two-bit ensemble of `gap_qubit` probes with signs +, +, +, -: the last
    probe minus the average misses its adjoint by 1.35 TOL."""
    plus, minus = gap_qubit(1), gap_qubit(-1)
    keys = bit_strings(2)
    return CqEnsemble(2, ProbDist.uniform(keys), dict(zip(keys, (plus, plus, plus, minus))))


def unchecked_norm(diff) -> float:
    """Trace norm of a matrix from its own eigensolve, with no Hermiticity
    check: the oracle for differences derived from accepted operators."""
    return math.fsum(abs(np.linalg.eigvalsh(diff)))


def hypothesis_ii_exact(sigma0: DensityOperator, sigma1: DensityOperator, d: float) -> float:
    """Exact success of the mixture reading, 1/2 + (d/4)||sigma0 - sigma1||_1:
    at most the cap 1/2 + d/2, with equality for orthogonal pure components."""
    return 0.5 + (d / 4.0) * unchecked_norm(sigma0.matrix - sigma1.matrix)


def trace_norm_loop(a) -> float:
    """Trace norm of one Hermitian matrix from its own eigensolve."""
    m = _require_hermitian_stack(np.asarray(a)[None])[0]
    return math.fsum(abs(float(v)) for v in np.linalg.eigvalsh(m))


def average_probe_loop(e: CqEnsemble) -> np.ndarray:
    """Prior-weighted average probe, one key at a time."""
    acc = np.zeros((e.probe_dim, e.probe_dim), dtype=complex)
    for k, p in zip(e.keys, masses(e.prior)):
        acc += float(p) * probe(e, k).matrix
    return acc


def d_k_per_key_loop(e: CqEnsemble) -> dict:
    """Unhalved per-key norms ||rho_k - rho_avg||_1, one eigensolve per key."""
    avg = average_probe_loop(e)
    return {k: trace_norm_loop(probe(e, k).matrix - avg) for k in e.keys}


def criterion_d_averaged_loop(e: CqEnsemble) -> float:
    avg = average_probe_loop(e)
    return 0.5 * math.fsum(
        float(p) * trace_norm_loop(probe(e, k).matrix - avg)
        for k, p in zip(e.keys, masses(e.prior))
    )


def pairwise_bound_loop(e: CqEnsemble):
    """(worst pair, worst value) over all key pairs, one eigensolve per pair."""
    worst_value = 0.0
    worst_pair = (e.keys[0], e.keys[0])
    for k1, k2 in itertools.combinations(e.keys, 2):
        v = trace_norm_loop(probe(e, k1).matrix - probe(e, k2).matrix)
        if v > worst_value:
            worst_value, worst_pair = v, (k1, k2)
    return worst_pair, worst_value


def outcome_mass_loop(e: CqEnsemble, povm: Povm) -> np.ndarray:
    """Key x outcome mass p_k tr(rho_k E_o), one product per cell."""
    mass = np.zeros((len(e.keys), len(povm.elements)))
    for i, (k, p) in enumerate(zip(e.keys, masses(e.prior))):
        rho = probe(e, k).matrix
        for j, (_, op) in enumerate(povm.elements):
            mass[i, j] = float(p) * float(np.trace(rho @ op).real)
    return mass


def criterion_d_entangled_loop(e: CqEnsemble) -> float:
    """Entangled-form criterion, the full matrices filled one key block at a time."""
    dim = 2**e.n_bits * e.probe_dim
    avg = average_probe_loop(e)
    d = e.probe_dim
    joint = np.zeros((dim, dim), dtype=complex)
    product = np.zeros((dim, dim), dtype=complex)
    for i, (k, p) in enumerate(zip(e.keys, masses(e.prior))):
        block = slice(i * d, (i + 1) * d)
        joint[block, block] = float(p) * probe(e, k).matrix
        product[block, block] = float(p) * avg
    return 0.5 * trace_norm_loop(joint - product)


def helstrom_projector(rho0: DensityOperator, rho1: DensityOperator, p0: float) -> np.ndarray:
    """Projector onto the positive eigenspace of (1 - p0) rho1 - p0 rho0,
    where the optimal two-state test accepts hypothesis 1, from numpy's
    eigensolver directly."""
    vals, vecs = np.linalg.eigh((1.0 - p0) * rho1.matrix - p0 * rho0.matrix)
    basis = vecs[:, vals > 0.0]
    return basis @ basis.conj().T


def success_probability_loop(e: CqEnsemble, m: Povm, guess: dict) -> float:
    """Guessing success, one trace product per guessed outcome."""
    terms = []
    for outcome, key in guess.items():
        p = float(mass(e.prior, key))
        rho = probe(e, key).matrix
        terms.append(p * float(np.trace(rho @ m.stack[m.labels.index(outcome)]).real))
    return math.fsum(terms)


def condition_on_leak(e: CqEnsemble, leak: LeakSpec) -> CqEnsemble:
    """Ensemble over the unleaked bits, prior renormalized, probes unchanged:
    the matching rows selected by mask, as `post_leak_discrimination` selects
    them, and kept as a validated ensemble."""
    n = e.n_bits
    if leak.positions and leak.positions[-1] >= n:
        raise BadParams(f"leak position {leak.positions[-1]} outside a {n}-bit key")
    mask = sum(1 << (n - 1 - pos) for pos in leak.positions)
    leaked = sum(bit << (n - 1 - pos) for pos, bit in zip(leak.positions, leak.values))
    rows = [i for i in range(2**n) if i & mask == leaked]
    matched = e.prior.probs[rows]
    exact = e.prior.denominator is not None
    total = sum(matched.tolist()) if exact else math.fsum(matched.tolist())
    if total <= 0:
        raise BadParams("leaked pattern has zero prior probability")
    n_kept = n - len(leak.positions)
    residual_keys = bit_strings(n_kept)
    probs = [Fraction(v, total) for v in matched.tolist()] if exact else matched / total
    probes = (DensityOperator._trusted(e.probe_stack[i]) for i in rows)
    return CqEnsemble(n_kept, ProbDist(residual_keys, probs), dict(zip(residual_keys, probes)))


def condition_on_leak_loop(e: CqEnsemble, leak: LeakSpec) -> CqEnsemble:
    """Leak conditioning that string-matches every key at every leaked position."""
    kept = [i for i in range(e.n_bits) if i not in set(leak.positions)]
    pattern = dict(zip(leak.positions, leak.values))
    matched = {}
    for k, p in zip(e.keys, masses(e.prior)):
        if all(k[pos] == str(bit) for pos, bit in pattern.items()):
            matched["".join(k[i] for i in kept)] = (k, p)
    exact = all(isinstance(p, (int, Fraction)) for _, p in matched.values())
    total = math.fsum(float(p) for _, p in matched.values())
    norm = sum((p for _, p in matched.values()), Fraction(0)) if exact else total
    residual_keys = bit_strings(len(kept))
    probs = tuple(matched[r][1] / norm for r in residual_keys)
    probes = {r: probe(e, matched[r][0]) for r in residual_keys}
    return CqEnsemble(len(kept), ProbDist(residual_keys, probs), probes)


def pgm_elements_loop(e: CqEnsemble) -> list:
    """Pretty-good measurement elements of the keys, one sandwich per key,
    on the support `pgm` keeps: eigenvalues above max(ZERO_TOL, c lam_max)."""
    (vals,), (vecs,) = _hermitian_eigen(average_probe_loop(e)[None])
    keep = vals > max(ZERO_TOL, _PGM_SUPPORT_CUTOFF * vals.max())
    basis = vecs[:, keep]
    inv_sqrt = basis @ np.diag(vals[keep] ** -0.5) @ basis.conj().T
    elements = []
    for k, p in zip(e.keys, masses(e.prior)):
        op = inv_sqrt @ (float(p) * probe(e, k).matrix) @ inv_sqrt
        elements.append((k, 0.5 * (op + op.conj().T)))
    return elements


def classical_dbar_loop(mass: np.ndarray) -> float:
    """Joint vs uniform-key x outcome-marginal distance, one term per cell."""
    u = 1.0 / mass.shape[0]
    col = mass.sum(axis=0)
    return 0.5 * math.fsum(
        abs(float(mass[i, j]) - u * float(col[j]))
        for i in range(mass.shape[0])
        for j in range(mass.shape[1])
    )


def variants_from_mass_loop(mass: np.ndarray) -> tuple:
    """The four deviation readings, one term per cell and outcome."""
    mass = np.maximum(mass, 0.0)
    n_keys, n_out = mass.shape
    outcome_mass = mass.sum(axis=0)
    support = [j for j in range(n_out) if outcome_mass[j] > 1e-12]
    u_support = 1.0 / len(support)
    v_outcome = 0.5 * math.fsum(abs(float(outcome_mass[j]) - u_support) for j in support)
    u_cell = (1.0 / n_keys) * (1.0 / n_out)
    v_joint = 0.5 * math.fsum(abs(float(v) - u_cell) for v in mass.ravel())
    u_key = 1.0 / n_keys
    post_devs = []
    for j in support:
        posterior = mass[:, j] / outcome_mass[j]
        post_devs.append(0.5 * math.fsum(abs(float(v) - u_key) for v in posterior))
    v_avg = math.fsum(float(outcome_mass[j]) * dev for j, dev in zip(support, post_devs))
    return v_outcome, v_joint, max(post_devs), v_avg


def helstrom_binary_loop(rho0: DensityOperator, rho1: DensityOperator, p0: float) -> float:
    """Optimal two-state success, p0 plus the positive values that
    `_hermitian_eigen` returns for (1 - p0) rho1 - p0 rho0, clamped into [0, 1]."""
    (vals,), _ = _hermitian_eigen(((1.0 - p0) * rho1.matrix - p0 * rho0.matrix)[None])
    p_success = p0 + math.fsum(float(v) for v in vals[vals > 0.0])
    return min(max(p_success, 0.0), 1.0)


def hermitian_eigen_loop(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues and eigenvectors of one matrix, each column's
    phase fixed by its first component above ZERO_TOL, found column by column."""
    vals, vecs = np.linalg.eigh(m)
    vecs = vecs[:, ::-1]
    pivots = vecs[np.argmax(np.abs(vecs) > ZERO_TOL, axis=0), np.arange(vecs.shape[1])]
    return vals[::-1].copy(), vecs * (pivots.conj() / np.abs(pivots))


def family_measurement_loop(sigma: DensityOperator, rho1: DensityOperator, rho2: DensityOperator) -> np.ndarray:
    """The (4, 4, 4) element stack of `cex_iii`'s product measurement, one
    Kronecker product of two projectors per element, pa[i] (x) pb[j] at 2i + j."""
    a = hermitian_eigen_loop(sigma.matrix)[1]
    b = hermitian_eigen_loop(rho1.matrix - rho2.matrix)[1]
    return np.array(
        [np.kron(np.outer(a[:, i], a[:, i].conj()), np.outer(b[:, j], b[:, j].conj())) for i in range(2) for j in range(2)]
    )


def jsonify_recursive(value):
    """JSON-safe form of a report value, one `numbers` test per scalar:
    non-finite floats as their repr, dict keys as strings, tuples as lists."""
    if type(value) in (int, str, bool, type(None)):
        return value
    if isinstance(value, dict):
        return {str(k): jsonify_recursive(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify_recursive(v) for v in value]
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        value = float(value)
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def random_bloch(rng, sphere: bool = False) -> tuple[float, float, float]:
    """A Bloch vector uniform in the unit ball, or on the unit sphere."""
    v = rng.normal(size=3)
    radius = 1.0 if sphere else rng.random() ** (1 / 3)
    return tuple((radius * v / np.linalg.norm(v)).tolist())


def two_bit_bloch(params: dict) -> tuple[tuple[float, float, float], ...]:
    """Bloch vectors (sigma, rho1, rho2) of a `cex_ii`/`cex_iii` request, read
    from its preset, its overlap or its three qubit specs: a 'diag' [a, b] is
    (0, 0, a - b), and the overlap-c pair is |0><0| and |v><v| with
    v = (c, sqrt(1 - c^2)), that is (2 c s, 0, c^2 - s^2)."""
    if "overlap" in params:
        c = params["overlap"]
        s = math.sqrt(max(0.0, 1.0 - c * c))
        return (0.0, 0.0, 1.0), (0.0, 0.0, 1.0), (2 * c * s, 0.0, c * c - s * s)
    specs = TWO_BIT_PRESETS[params["preset"]] if "preset" in params else params
    vectors = []
    for name in ("sigma", "rho1", "rho2"):
        spec = specs[name]
        if "diag" in spec:
            a, b = spec["diag"]
            vectors.append((0.0, 0.0, a - b))
        else:
            vectors.append(tuple(spec["bloch"]))
    return tuple(vectors)


def bloch_geometry(r1, r2) -> tuple[float, float, float]:
    """(g, x1, x2): g = |r1 - r2|, which is ||rho1 - rho2||_1, and each r_j's
    component along n = (r1 - r2) / g, the Bloch direction of the top
    eigenvector of rho1 - rho2; x1 = x2 = 0 when g = 0."""
    diff = [a - b for a, b in zip(r1, r2)]
    g = math.hypot(*diff)
    if g == 0.0:
        return 0.0, 0.0, 0.0
    return g, math.fsum(a * b for a, b in zip(r1, diff)) / g, math.fsum(a * b for a, b in zip(r2, diff)) / g
