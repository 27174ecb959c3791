"""Distance criteria comparing generated keys against the uniform ideal.

The canonical criterion here is the halved, prior-weighted form

    d = 1/2 * sum_k p_k ||rho_k - rho_avg||_1,

which agrees with the trace distance between the block-diagonal joint
key-probe state and the product of the key marginal with the average
probe.  Per-key distances are additionally reported unhalved, and the
classical analogues (variational distance, joint-vs-product distance,
subsequence event bounds) live alongside.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .ensembles import CqEnsemble, ProbDist, _joined
from .errors import TOL, ZERO_TOL, BadParams, NonUniformPrior, TooLarge
from .keys import SpikedDist, _ints, _key_space
from .qmath import _trace_norms

if TYPE_CHECKING:  # only for annotations; avoids a runtime import cycle
    from .discrimination import JointDistribution, Povm

#: Joint-dimension cap for materializing the entangled form.
ENTANGLED_DIM_CAP = 256
#: Event-count cap for dense subsequence enumeration.
EVENT_CAP = 2**24
#: Events per block of the Walsh-Hadamard event screen.
_SCREEN_CHUNK = 2**16
#: Sylvester-Hadamard blocks H_{2^r} for r = 0..4: entry (u, x) is (-1)^popcount(u & x).
_HADAMARD_BLOCKS = tuple(
    (-1.0) ** np.bitwise_count(np.arange(1 << r)[:, None] & np.arange(1 << r)) for r in range(5)
)
#: Matrix entries per block of a batched pair-difference or product stack.
_STACK_BATCH_CELLS = 2**16
#: Key pairs eigensolved first, in decreasing order of their norm bound, to
#: set the norm every other pair's bound must reach.
_SEED_PAIRS = 4


def variational_distance(p: ProbDist, q: ProbDist):
    """Half the L1 distance between two distributions.

    Label sets are outer-joined with zero mass for missing labels.  Two
    exact distributions give an exact Fraction.
    """
    _, P, Q, den = _joined(p, q)
    if den is not None:
        from fractions import Fraction

        return Fraction(int(np.abs(P - Q).sum()), 2 * den)
    return math.fsum(np.abs(P - Q).tolist()) / 2.0


def criterion_d_averaged(e: CqEnsemble) -> float:
    """Halved prior-weighted average of per-key trace-norm distances."""
    return 0.5 * math.fsum((e.weights * e.key_norms).tolist())


def criterion_d_entangled(e: CqEnsemble) -> float:
    """Trace distance between the materialized joint state and the product
    of the key marginal with the average probe.

    Deliberately computed on the full block-diagonal matrices rather than
    per block, so it serves as an independent route against
    :func:`criterion_d_averaged`.
    """
    dim = 2**e.n_bits * e.probe_dim
    if dim > ENTANGLED_DIM_CAP:
        raise TooLarge(f"joint dimension {dim} exceeds the cap of {ENTANGLED_DIM_CAP}")
    n_keys, d = len(e.keys), e.probe_dim
    w = e.weights[:, None, None]
    # (key, row, key, column) view of joint - product, held as one array:
    # w_k rho_k - w_k rho_avg on the diagonal blocks and +0 elsewhere
    diff = np.zeros((n_keys, d, n_keys, d), dtype=complex)
    diagonal = np.arange(n_keys)
    diff[diagonal, :, diagonal, :] = w * e.probe_stack - w * e.average.matrix
    (norm,) = _trace_norms(diff.reshape(1, dim, dim)).tolist()
    return 0.5 * norm


@dataclass(frozen=True)
class CriterionReport:
    """All distance-criterion values for one ensemble.

    ``d_k`` holds the unhalved per-key norms; ``d_max`` is the largest
    per-key value under the halved convention, so it always dominates
    ``d_averaged``.
    """

    d_entangled: float
    d_averaged: float
    d_k: dict[str, float]
    d_max: float
    epsilon_label: float

    def __post_init__(self):
        if abs(self.d_entangled - self.d_averaged) > TOL:
            raise BadParams(
                "entangled and averaged criterion values disagree by "
                f"{abs(self.d_entangled - self.d_averaged):.3e}"
            )
        if self.d_max < self.d_averaged - TOL:
            raise BadParams("max per-key distance fell below the average")


def criterion_report(e: CqEnsemble, epsilon: float) -> CriterionReport:
    """Evaluate both criterion forms and the per-key distances."""
    dk = dict(zip(e.keys, e.key_norms.tolist()))
    return CriterionReport(
        d_entangled=criterion_d_entangled(e),
        d_averaged=criterion_d_averaged(e),
        d_k=dk,
        d_max=max(dk.values()) / 2.0,
        epsilon_label=float(epsilon),
    )


class PairwiseBound(NamedTuple):
    holds: bool
    worst_pair: tuple[str, str]
    worst_value: float


def pairwise_distance_bound(e: CqEnsemble, eps: float) -> PairwiseBound:
    """Check ||rho_k1 - rho_k2||_1 <= 2*eps over all key pairs.

    The bound follows from the triangle inequality whenever every per-key
    distance is at most eps; the maximizing pair is returned either way,
    the first of tied pairs in ``itertools.combinations`` order.

    One Gram product of the flattened probes bounds every pair's norm from
    above, by the smaller of the Fuchs-van de Graaf bound

        ||rho - sigma||_1 <= 2 sqrt(1 - F(rho, sigma)^2) <= 2 sqrt(1 - tr rho sigma)

    (Fuchs and van de Graaf, IEEE Trans. Inf. Theory 45 (1999) 1216) and the
    Frobenius bound ||rho - sigma||_1 <= sqrt(d) ||rho - sigma||_F, each
    widened by the slack that validated probes and rounding need (see
    `_pair_norm_bounds`).  Pairs are then eigensolved in decreasing order of
    that bound: first a few, whose largest norm B is a lower bound on the
    maximum, then every pair whose bound reaches B.  A skipped pair has a norm
    below B, so it can neither hold nor tie the maximum, and each reported
    norm comes from the same eigensolve of the same difference as without
    the screen.  When no bound falls below B, every pair is eigensolved.
    """
    stack = e.probe_stack
    first, second = np.triu_indices(len(e.keys), 1)  # combinations order
    norms = np.full(len(first), -1.0)  # a skipped pair stays below every norm
    step = max(1, _STACK_BATCH_CELLS // stack[0].size)

    def solve(pairs):
        for start in range(0, len(pairs), step):
            block = pairs[start : start + step]
            norms[block] = _trace_norms(stack[first[block]] - stack[second[block]])

    bounds = _pair_norm_bounds(stack, first, second)
    order = np.argsort(-bounds)
    solve(order[:_SEED_PAIRS])
    rest = order[_SEED_PAIRS:]
    solve(rest[bounds[rest] >= norms.max(initial=-1.0)])
    worst_value = 0.0
    worst_pair = (e.keys[0], e.keys[0])
    if norms.size and norms.max() > worst_value:
        i = int(np.argmax(norms))
        worst_value, worst_pair = float(norms[i]), (e.keys[first[i]], e.keys[second[i]])
    return PairwiseBound(worst_value <= 2.0 * eps + TOL, worst_pair, worst_value)


def _pair_norm_bounds(stack: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """An upper bound on the computed trace norm of each pair difference
    stack[first] - stack[second], from one Gram product of the probes.

    What is bounded is what `_trace_norms` computes: the absolute eigenvalue
    sum of H_a - H_b, where H_a is the Hermitian matrix eigvalsh reads from
    one triangle of probe a.  Every probe satisfies, with tau = 2 TOL (twice
    the entry check, for derived probes such as products of validated
    factors, whose trace can be off by 1.8 TOL):
    lambda_min(H_a) >= -tau, |tr H_a - 1| <= tau, and H_a differs from
    rho_a by at most tau per entry (the adjoint gap), so by at most
    d tau / sqrt(2) in Frobenius norm.  Write H_a = P - P_, its positive and
    negative parts; tr H_a > 0 leaves at most d - 1 negative eigenvalues, so
    ||P_||_1 <= (d - 1) tau and tr P <= 1 + d tau.

    Fidelity term.  For positive P, Q,
    ||P - Q||_1^2 <= (tr P + tr Q)^2 - 4 F(P, Q)^2 <= (tr P + tr Q)^2 - 4 tr PQ
    (purify both and take the partial trace).  tr PQ >= tr H_a H_b - d tau^2,
    and the Gram entry g_ab = Re <rho_a, rho_b>_F is within 1.5 d tau of
    tr H_a H_b, so ||P - Q||_1 <= 2 sqrt(1 - g_ab + 5 d tau) once Gram
    rounding (about 4 d^2 eps) is added.  The negative parts add
    2 (d - 1) tau outside the root.

    Frobenius term.  ||H_a - H_b||_1 <= sqrt(d) ||H_a - H_b||_F, and
    ||H_a - H_b||_F <= ||rho_a - rho_b||_F + sqrt(2) d tau; squared, that
    adds at most 6 d tau to g_aa + g_bb - 2 g_ab, as ||rho_a - rho_b||_F <= 2.01.

    Hence eta = 16 d TOL inside both roots.  Outside them, eta' = 8 d TOL
    covers the negative parts, 4 (d - 1) TOL, and leaves 4 (d + 1) TOL for
    the eigensolver's backward error (d eigenvalues, each within
    p(d) eps ||H||_2 with ||H||_2 <= 2.01, for any p(d) up to about 8900), the
    rounded difference and the correctly rounded sum.
    """
    n_keys, d = len(stack), stack.shape[1]
    flat = stack.reshape(n_keys, -1).view(np.float64)  # (re, im) pairs
    gram = flat @ flat.T  # Re <rho_a, rho_b>_F
    cross = gram[first, second]
    squares = gram.diagonal()
    eta, eta_out = 16 * d * TOL, 8 * d * TOL
    fidelity = 2.0 * np.sqrt(np.maximum(1.0 - cross, 0.0) + eta)
    distance = np.maximum(squares[first] + squares[second] - 2.0 * cross, 0.0)  # ||.||_F^2
    frobenius = np.sqrt(d * (distance + eta))
    return np.minimum(fidelity, frobenius) + eta_out


def classical_dbar(joint: "JointDistribution") -> float:
    """Variational distance between the joint and the product of a uniform
    key marginal with the observed outcome marginal."""
    n_rows = len(joint.row_labels)
    u = 1.0 / n_rows
    row_sums = joint.mass.sum(axis=1)
    gap = float(abs(row_sums - u).max())
    if gap > TOL:
        raise NonUniformPrior(f"row marginal deviates from uniform by {gap:.3e}")
    col = joint.mass.sum(axis=0)
    return 0.5 * math.fsum(abs(joint.mass - u * col).ravel().tolist())


def event_deviation_bound(p, m: int):
    """Largest deviation of any m-bit subsequence event from 2^-m.

    ``p`` may be a dense :class:`ProbDist` over complete n-bit keys or a
    sparse :class:`SpikedDist`, which answers exactly through its own
    ``event_deviation``.  Returns ``(max_dev, (positions, pattern))``.
    The deviation never exceeds the variational distance to uniform, since
    subsequence events are events.
    """
    if isinstance(p, SpikedDist):
        return p.event_deviation(m)
    (m,) = _ints((m,), f"subsequence length must be an integer, got {m!r}")
    n = len(p.labels[0])
    _key_space(n, p.labels, "dense key distribution must cover all n-bit keys in order")
    if not 1 <= m <= n:
        raise BadParams(f"subsequence length must be in [1, {n}], got {m}")
    n_events = math.comb(n, m) * 2**m
    if n_events > EVENT_CAP:
        raise TooLarge(f"{n_events} events exceed the dense cap of {EVENT_CAP}")

    probs = p.as_array()
    target = 2.0**-m
    combos = list(itertools.combinations(range(n), m))
    screened = _screened_event_devs(probs, n, m, combos)
    # The screen and the bincount pass each round the exact event masses
    # by at most their summation error.  A bincount bin adds 2^(n-m) terms
    # in sequence.  A pass of the blocked transform rounds each entry it
    # writes by at most its 2^r - 1 additions, in any summation order (a
    # fused multiply-add by +-1 rounds once, like the addition), relative
    # to the sum of the absolute inputs.  Every entry of |H| is 1, so over
    # both transforms a screened marginal is off by at most
    # _walsh_additions(n) + _walsh_additions(m) roundings of sum(p).  Every
    # position set that can hold the bincount maximum lies within twice
    # both errors of the screened maximum.
    additions = 2 ** (n - m) + _walsh_additions(n) + _walsh_additions(m)
    slack = 4.0 * additions * np.finfo(float).eps * float(probs.sum())
    best_dev = -1.0
    best_event = None
    keys = np.arange(2**n)
    for c in np.flatnonzero(screened >= screened.max() - slack):
        positions = combos[c]
        # position pos is key bit n-1-pos, here pattern bit m-1-t
        idx = sum(((keys >> (n - 1 - pos)) & 1) << (m - 1 - t) for t, pos in enumerate(positions))
        sums = np.bincount(idx, weights=probs, minlength=2**m)
        devs = np.abs(sums - target)
        j = int(np.argmax(devs))
        if devs[j] > best_dev:
            best_dev = float(devs[j])
            best_event = (positions, format(j, f"0{m}b"))
    return best_dev, best_event


def _walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis, leaving
    ``a`` unchanged: entry u of the result is sum_x a[..., x] (-1)^popcount(u & x).

    H_{2^n} is the Kronecker product of Sylvester blocks H_{2^r}, so the
    transform is one matrix product per block of at most four index bits,
    lowest bits first, with a smaller last block when 4 does not divide n
    (Fino and Algazi, IEEE Trans. Computers C-25 (1976) 1142).  Each pass
    writes every entry as a sum of 2^r terms, each an input times +-1;
    `_walsh_additions` counts the additions.
    """
    *batch, size = a.shape
    low = 0
    while 1 << low < size:
        r = min(4, size.bit_length() - 1 - low)
        block = _HADAMARD_BLOCKS[r]
        if low == 0:  # the block's bits are the last axis of rows of 2^r
            a = a.reshape(-1, 1 << r) @ block
        else:
            a = np.matmul(block, a.reshape(-1, 1 << r, 1 << low))
        low += r
    return a.reshape(*batch, size)


def _walsh_additions(bits: int) -> int:
    """Additions that `_walsh_hadamard` makes into each entry of a transform
    over 2^bits values: 2^r - 1 per pass of an r-bit block."""
    return (bits // 4) * 15 + (1 << bits % 4) - 1


def _screened_event_devs(probs: np.ndarray, n: int, m: int, combos: list) -> np.ndarray:
    """Largest deviation from 2^-m of each position set's m-bit marginal,
    up to rounding, from one Walsh-Hadamard transform of the masses.

    The marginal of positions P is 2^-m times the transform, over the m
    pattern bits, of the Fourier coefficients of the subsets of P; position
    sets are screened in blocks of about ``_SCREEN_CHUNK`` events.
    """
    fourier = _walsh_hadamard(probs)
    step = max(1, _SCREEN_CHUNK >> m)
    devs = np.empty(len(combos))
    for start in range(0, len(combos), step):
        block = np.asarray(combos[start : start + step], dtype=np.int64).reshape(-1, m)
        # bit m-1-t of a subset u picks positions[t]; each position doubles the
        # filled prefix of a row, lowest subset bit first
        subset_keys = np.empty((len(block), 1 << m), dtype=np.int64)
        subset_keys[:, 0] = 0
        for t in range(m - 1, -1, -1):
            width = 1 << (m - 1 - t)
            position = (1 << (n - 1 - block[:, t]))[:, None]
            np.bitwise_or(subset_keys[:, :width], position, out=subset_keys[:, width : 2 * width])
        marginals = _walsh_hadamard(fourier[subset_keys]) * 2.0**-m
        devs[start : start + step] = np.abs(marginals - 2.0**-m).max(axis=1)
    return devs


class DeltaEVariants(NamedTuple):
    """Four readings of the attacker-side deviation from uniform.

    outcome_vs_uniform:        outcome distribution vs uniform on its support
    joint_vs_product_uniform:  joint (key, outcome) vs uniform x uniform
    max_posterior_dev:         worst posterior-vs-uniform deviation over outcomes
    avg_posterior_dev:         outcome-weighted average of the posterior deviation
    """

    outcome_vs_uniform: float
    joint_vs_product_uniform: float
    max_posterior_dev: float
    avg_posterior_dev: float


def _outcome_mass(e: CqEnsemble, povm: "Povm") -> np.ndarray:
    """Joint mass p_k tr(rho_k E_o), one row per key and one column per outcome.

    Both factors were validated within ``TOL``, so a cell below zero is
    rounding and is clamped to zero.  Each (ensemble, measurement) pair is
    computed once: the mass is frozen and kept on the ensemble for its
    lifetime, so `measure_ensemble` and `delta_E_variants` read one array.
    """
    if povm.dim != e.probe_dim:
        raise BadParams(f"measurement dim {povm.dim} does not match probe dim {e.probe_dim}")
    mass = e._outcome_masses.get(povm)
    if mass is not None:
        return mass
    ops = povm.stack
    mass = np.empty((len(e.keys), len(ops)))
    step = max(1, _STACK_BATCH_CELLS // ops.size)
    for start in range(0, len(e.keys), step):
        block = slice(start, start + step)
        products = np.matmul(e.probe_stack[block, None], ops[None])
        mass[block] = e.weights[block, None] * products.trace(0, 2, 3).real
    np.maximum(mass, 0.0, out=mass)
    mass.setflags(write=False)
    e._outcome_masses[povm] = mass
    return mass


def delta_E_variants(e: CqEnsemble, povm: "Povm") -> DeltaEVariants:
    """Evaluate all four candidate deviation readings for one measurement."""
    return _variants_from_mass(_outcome_mass(e, povm))


def _variants_from_mass(mass: np.ndarray) -> DeltaEVariants:
    """The four readings of a key x outcome mass, as `_outcome_mass` returns it."""
    n_keys, n_out = mass.shape

    outcome_mass = mass.sum(axis=0)
    support = (outcome_mass > ZERO_TOL).nonzero()[0]
    u_support = 1.0 / len(support)
    v_outcome = 0.5 * math.fsum(abs(outcome_mass[support] - u_support).tolist())

    u_cell = (1.0 / n_keys) * (1.0 / n_out)
    v_joint = 0.5 * math.fsum(abs(mass - u_cell).ravel().tolist())

    u_key = 1.0 / n_keys
    posteriors = mass[:, support] / outcome_mass[support]
    post_devs = [0.5 * math.fsum(col) for col in abs(posteriors - u_key).T.tolist()]
    v_max = max(post_devs)
    v_avg = math.fsum((outcome_mass[support] * post_devs).tolist())

    return DeltaEVariants(v_outcome, v_joint, v_max, v_avg)
