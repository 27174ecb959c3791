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
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .ensembles import CqEnsemble, ProbDist, SpikedDist, average_probe, bit_strings
from .errors import BadParams, DimMismatch, NonUniformPrior, TooLarge
from .qmath import trace_norm, trace_norms

if TYPE_CHECKING:  # only for annotations; avoids a runtime import cycle
    from .discrimination import JointDistribution, Povm

#: Joint-dimension cap for materializing the entangled form.
ENTANGLED_DIM_CAP = 256
#: Event-count cap for dense subsequence enumeration.
EVENT_CAP = 2**24
#: Events per block of the Walsh-Hadamard event screen.
_SCREEN_CHUNK = 2**16
#: Matrix entries per block of a batched pair-difference or product stack.
_STACK_BATCH_CELLS = 2**16
#: Outcome masses at or below this are treated as zero support.
SUPPORT_TOL = 1e-12

_EQUIV_TOL = 1e-9


def variational_distance(p: ProbDist, q: ProbDist):
    """Half the L1 distance between two distributions.

    Label sets are outer-joined with zero mass for missing labels.  Exact
    (Fraction) inputs give an exact result.
    """
    pm = dict(zip(p.labels, p.probs))
    qm = dict(zip(q.labels, q.probs))
    labels = list(p.labels) + [x for x in q.labels if x not in pm]
    diffs = [abs(pm.get(x, 0) - qm.get(x, 0)) for x in labels]
    if all(isinstance(v, (int, Fraction)) for v in diffs):
        return sum(diffs, Fraction(0)) / 2
    return math.fsum(float(v) for v in diffs) / 2.0


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
    avg = average_probe(e).matrix
    d = e.probe_dim
    joint = np.zeros((dim, dim), dtype=complex)
    product = np.zeros((dim, dim), dtype=complex)
    for i, (k, p) in enumerate(zip(e.keys, e.prior.probs)):
        block = slice(i * d, (i + 1) * d)
        joint[block, block] = float(p) * e.probe(k).matrix
        product[block, block] = float(p) * avg
    return 0.5 * trace_norm(joint - product)


def d_k_per_key(e: CqEnsemble) -> dict[str, float]:
    """Unhalved per-key trace norms ||rho_k - rho_avg||_1."""
    return dict(zip(e.keys, e.key_norms.tolist()))


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
        if abs(self.d_entangled - self.d_averaged) > _EQUIV_TOL:
            raise BadParams(
                "entangled and averaged criterion values disagree by "
                f"{abs(self.d_entangled - self.d_averaged):.3e}"
            )
        if self.d_max < self.d_averaged - _EQUIV_TOL:
            raise BadParams("max per-key distance fell below the average")

    def to_json_dict(self) -> dict:
        return {
            "d_entangled": self.d_entangled,
            "d_averaged": self.d_averaged,
            "d_k_unhalved": dict(sorted(self.d_k.items())),
            "d_max": self.d_max,
            "epsilon": self.epsilon_label,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def criterion_report(e: CqEnsemble, epsilon: float) -> CriterionReport:
    """Evaluate both criterion forms and the per-key distances."""
    dk = d_k_per_key(e)
    return CriterionReport(
        d_entangled=criterion_d_entangled(e),
        d_averaged=criterion_d_averaged(e),
        d_k=dk,
        d_max=max(dk.values()) / 2.0,
        epsilon_label=float(epsilon),
    )


@dataclass(frozen=True)
class PairwiseBound:
    holds: bool
    worst_pair: tuple[str, str]
    worst_value: float


def pairwise_distance_bound(e: CqEnsemble, eps: float) -> PairwiseBound:
    """Check ||rho_k1 - rho_k2||_1 <= 2*eps over all key pairs.

    The bound follows from the triangle inequality whenever every per-key
    distance is at most eps; the maximizing pair is returned either way,
    the first of tied pairs in ``itertools.combinations`` order.
    """
    stack = e.probe_stack
    first, second = np.triu_indices(len(e.keys), 1)  # combinations order
    norms = np.empty(len(first))
    step = max(1, _STACK_BATCH_CELLS // stack[0].size)
    for start in range(0, len(first), step):
        block = slice(start, start + step)
        norms[block] = trace_norms(stack[first[block]] - stack[second[block]])
    worst_value = 0.0
    worst_pair = (e.keys[0], e.keys[0])
    if norms.size and norms.max() > worst_value:
        i = int(np.argmax(norms))
        worst_value, worst_pair = float(norms[i]), (e.keys[first[i]], e.keys[second[i]])
    return PairwiseBound(worst_value <= 2.0 * eps + _EQUIV_TOL, worst_pair, worst_value)


def classical_dbar(joint: "JointDistribution") -> float:
    """Variational distance between the joint and the product of a uniform
    key marginal with the observed outcome marginal."""
    n_rows = len(joint.row_labels)
    u = 1.0 / n_rows
    row_sums = joint.mass.sum(axis=1)
    gap = float(np.max(np.abs(row_sums - u)))
    if gap > 1e-9:
        raise NonUniformPrior(f"row marginal deviates from uniform by {gap:.3e}")
    col = joint.mass.sum(axis=0)
    return 0.5 * math.fsum(np.abs(joint.mass - u * col).ravel().tolist())


def _event_deviation_spiked(p: SpikedDist, m: int):
    n = p.n_bits
    u = Fraction(1, 2**m)
    block = 2 ** (n - m)
    hit = p.spike_mass + (block - 1) * p.rest_mass
    miss = block * p.rest_mass
    dev_hit = abs(hit - u)
    dev_miss = abs(miss - u)
    positions = tuple(range(m))
    if dev_hit >= dev_miss:
        return dev_hit, (positions, p.spike_label[:m])
    # any pattern that avoids the spike prefix
    return dev_miss, (positions, "0" * (m - 1) + "1")


def event_deviation_bound(p, m: int):
    """Largest deviation of any m-bit subsequence event from 2^-m.

    ``p`` may be a dense :class:`ProbDist` over complete n-bit keys or a
    sparse :class:`SpikedDist`.  Returns ``(max_dev, (positions, pattern))``.
    The deviation never exceeds the variational distance to uniform, since
    subsequence events are events.
    """
    if isinstance(p, SpikedDist):
        if not 1 <= m <= p.n_bits:
            raise BadParams(f"subsequence length must be in [1, {p.n_bits}], got {m}")
        return _event_deviation_spiked(p, m)

    n = len(p.labels[0])
    if p.labels != bit_strings(n):
        raise BadParams("dense key distribution must cover all n-bit keys in order")
    if not 1 <= m <= n:
        raise BadParams(f"subsequence length must be in [1, {n}], got {m}")
    n_events = math.comb(n, m) * 2**m
    if n_events > EVENT_CAP:
        raise TooLarge(f"{n_events} events exceed the dense cap of {EVENT_CAP}")

    probs = p.as_array()
    keys = np.arange(2**n, dtype=np.int64)
    target = 2.0**-m
    combos = list(itertools.combinations(range(n), m))
    screened = _screened_event_devs(probs, n, m, combos)
    # The screen and the bincount pass each round the exact event masses
    # by at most their summation error: n + m pairwise levels for the
    # screen, 2^(n-m) sequential terms for bincount.  Every position set
    # that can hold the bincount maximum lies within twice that of the
    # screened maximum.
    slack = 4.0 * (2 ** (n - m) + n + m) * np.finfo(float).eps * float(probs.sum())
    best_dev = -1.0
    best_event = None
    for c in np.flatnonzero(screened >= screened.max() - slack):
        positions = combos[c]
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


def _walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis, in place:
    a[..., u] becomes sum_x a[..., x] (-1)^popcount(u & x)."""
    size = a.shape[-1]
    h = 1
    while h < size:
        pairs = a.reshape(*a.shape[:-1], size // (2 * h), 2, h)
        lo, hi = pairs[..., 0, :], pairs[..., 1, :]
        diff = lo - hi
        lo += hi
        hi[...] = diff
        h *= 2
    return a


def _screened_event_devs(probs: np.ndarray, n: int, m: int, combos: list) -> np.ndarray:
    """Largest deviation from 2^-m of each position set's m-bit marginal,
    up to rounding, from one Walsh-Hadamard transform of the masses.

    The marginal of positions P is 2^-m times the transform, over the m
    pattern bits, of the Fourier coefficients of the subsets of P; position
    sets are screened in blocks of about ``_SCREEN_CHUNK`` events.
    """
    fourier = _walsh_hadamard(probs.copy())
    # bit m-1-t of a subset u picks positions[t]
    pattern_bits = (np.arange(2**m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    step = max(1, _SCREEN_CHUNK >> m)
    devs = np.empty(len(combos))
    for start in range(0, len(combos), step):
        block = np.asarray(combos[start : start + step], dtype=np.int64).reshape(-1, m)
        subset_keys = (1 << (n - 1 - block)) @ pattern_bits.T
        marginals = _walsh_hadamard(fourier[subset_keys]) * 2.0**-m
        devs[start : start + step] = np.abs(marginals - 2.0**-m).max(axis=1)
    return devs


@dataclass(frozen=True)
class DeltaEVariants:
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
    """Joint mass p_k tr(rho_k E_o), one row per key and one column per outcome."""
    if povm.dim != e.probe_dim:
        raise DimMismatch(f"measurement dim {povm.dim} does not match probe dim {e.probe_dim}")
    ops = povm.stack
    mass = np.empty((len(e.keys), len(ops)))
    step = max(1, _STACK_BATCH_CELLS // ops.size)
    for start in range(0, len(e.keys), step):
        block = slice(start, start + step)
        products = np.matmul(e.probe_stack[block, None], ops[None])
        mass[block] = e.weights[block, None] * np.trace(products, axis1=2, axis2=3).real
    return mass


def delta_E_variants(e: CqEnsemble, povm: "Povm") -> DeltaEVariants:
    """Evaluate all four candidate deviation readings for one measurement."""
    return _variants_from_mass(_outcome_mass(e, povm))


def _variants_from_mass(mass: np.ndarray) -> DeltaEVariants:
    """The four readings of a key x outcome mass matrix (negative cells clamped)."""
    mass = np.maximum(mass, 0.0)
    n_keys, n_out = mass.shape

    outcome_mass = mass.sum(axis=0)
    support = np.flatnonzero(outcome_mass > SUPPORT_TOL)
    u_support = 1.0 / len(support)
    v_outcome = 0.5 * math.fsum(np.abs(outcome_mass[support] - u_support).tolist())

    u_cell = (1.0 / n_keys) * (1.0 / n_out)
    v_joint = 0.5 * math.fsum(np.abs(mass - u_cell).ravel().tolist())

    u_key = 1.0 / n_keys
    posteriors = mass[:, support] / outcome_mass[support]
    post_devs = [0.5 * math.fsum(col) for col in np.abs(posteriors - u_key).T.tolist()]
    v_max = max(post_devs)
    v_avg = math.fsum((outcome_mass[support] * post_devs).tolist())

    return DeltaEVariants(v_outcome, v_joint, v_max, v_avg)


def decomposition_fallacy_check(p: ProbDist, q: ProbDist, eps: float) -> bool:
    """Whether p admits the mixture form p = (1-eps) q + eps p'.

    Feasible exactly when p(x) >= (1-eps) q(x) for every x; the residual
    then normalizes to a valid distribution automatically.  A distance of
    eps between p and q does not imply feasibility, which is the point.
    """
    if eps < 0:
        raise BadParams(f"mixture weight must be nonnegative, got {eps!r}")
    if float(variational_distance(p, q)) > eps + 1e-12 and eps <= 1:
        raise BadParams("precondition failed: distance between p and q exceeds eps")
    pm = dict(zip(p.labels, p.probs))
    qm = dict(zip(q.labels, q.probs))
    labels = set(p.labels) | set(q.labels)
    return all(
        float(pm.get(x, 0)) >= (1.0 - eps) * float(qm.get(x, 0)) - 1e-12 for x in labels
    )
