"""Measurements and attacker success probabilities.

Covers the optimal two-hypothesis measurement, POVM application to an
ensemble, Bayes posteriors, the pretty-good measurement as a multi-state
lower bound, and discrimination of the residual key after a partial leak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from .criteria import _outcome_mass, criterion_d_averaged
from .ensembles import CqEnsemble, LeakSpec, ProbDist, average_probe, condition_on_leak
from .errors import (
    BadParams,
    BadRange,
    DimMismatch,
    NotBinaryResidual,
    ZeroMassOutcome,
)
from .qmath import HERM_TOL, PSD_TOL, DensityOperator, _adjoint_gaps, hermitian_eigen

#: Tolerance for POVM completeness (sum to identity).
POVM_SUM_TOL = 1e-9
#: Eigenvalues below this count as kernel when inverting the average probe.
PGM_KERNEL_TOL = 1e-12
#: Mass tolerance on joint distributions.
JOINT_MASS_TOL = 1e-9


@dataclass(frozen=True)
class Povm:
    """Finite collection of labelled positive operators summing to identity.

    Construction also freezes the elements as one (outcomes, d, d) stack
    in element order; ``elements`` holds views of it.
    """

    elements: tuple[tuple[str, np.ndarray], ...]
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.elements:
            raise BadParams("a measurement needs at least one element")
        labels = [str(label) for label, _ in self.elements]
        ops = [np.asarray(op, dtype=complex) for _, op in self.elements]
        for label, m in zip(labels, ops):
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise BadParams(f"element {label!r} is not square")
            if m.shape[0] != ops[0].shape[0]:
                raise DimMismatch(
                    f"element {label!r} has dim {m.shape[0]}, expected {ops[0].shape[0]}"
                )
        stack = np.stack(ops)
        dim = stack.shape[1]
        gaps = _adjoint_gaps(stack)
        lows = np.linalg.eigvalsh(stack)[:, 0]
        for label, gap, low in zip(labels, gaps.tolist(), lows.tolist()):
            if not gap <= HERM_TOL:  # NaN fails too
                raise BadParams(f"element {label!r} is not Hermitian (gap {gap:.3e})")
            if low < -PSD_TOL:
                raise BadParams(
                    f"element {label!r} has eigenvalue {low:.3e} below -{PSD_TOL:.1e}"
                )
        if len(set(labels)) != len(labels):
            raise BadParams("measurement labels must be unique")
        gap = float(np.max(np.abs(stack.sum(axis=0) - np.eye(dim))))
        if gap > POVM_SUM_TOL:
            raise BadParams(f"elements sum away from identity by {gap:.3e}")
        stack.setflags(write=False)
        object.__setattr__(self, "elements", tuple(zip(labels, stack)))
        object.__setattr__(self, "stack", stack)

    @property
    def dim(self) -> int:
        return self.elements[0][1].shape[0]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(x for x, _ in self.elements)

    def element(self, label: str) -> np.ndarray:
        for x, op in self.elements:
            if x == label:
                return op
        raise BadParams(f"no measurement element labelled {label!r}")


@dataclass(frozen=True)
class JointDistribution:
    """Joint mass over (key, outcome) pairs; rows are keys."""

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    mass: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mass, dtype=float)
        if m.shape != (len(self.row_labels), len(self.col_labels)):
            raise BadParams(f"mass shape {m.shape} does not match the labels")
        low = float(m.min(initial=0.0))
        if not low >= -1e-12:  # NaN fails too
            raise BadParams(f"negative or NaN joint mass {low:.3e}")
        m = np.where((m < 0.0), 0.0, m)
        total = math.fsum(m.ravel().tolist())
        if not abs(total - 1.0) <= JOINT_MASS_TOL:
            raise BadParams(f"total mass is {total!r}, off unit by {abs(total - 1.0):.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "mass", m)
        object.__setattr__(self, "row_labels", tuple(self.row_labels))
        object.__setattr__(self, "col_labels", tuple(self.col_labels))

    def row_marginal(self) -> ProbDist:
        return ProbDist(self.row_labels, tuple(float(v) for v in self.mass.sum(axis=1)))

    def col_marginal(self) -> ProbDist:
        return ProbDist(self.col_labels, tuple(float(v) for v in self.mass.sum(axis=0)))


class HelstromResult(NamedTuple):
    p_success: float
    projector: np.ndarray


class PostLeakResult(NamedTuple):
    p_success: float
    d_full: float


def helstrom_binary(
    rho0: DensityOperator, rho1: DensityOperator, p0: float
) -> HelstromResult:
    """Optimal success probability for discriminating two states.

    With prior p0 on the first hypothesis, the optimum accepts hypothesis 1
    on the strictly positive eigenspace of (1-p0) rho1 - p0 rho0 (the zero
    eigenspace is assigned to hypothesis 0, a convention that does not
    affect the success probability).  For p0 = 1/2 this reduces to
    1/2 + ||rho1 - rho0||_1 / 4.
    """
    if rho0.dim != rho1.dim:
        raise DimMismatch(f"dimensions differ: {rho0.dim} vs {rho1.dim}")
    if not 0.0 <= p0 <= 1.0:
        raise BadRange(f"prior must lie in [0, 1], got {p0!r}")
    gamma = (1.0 - p0) * rho1.matrix - p0 * rho0.matrix
    vals, vecs = hermitian_eigen(gamma)
    positive = vals > 0.0
    basis = vecs[:, positive]
    projector = basis @ basis.conj().T
    p_success = p0 + math.fsum(float(v) for v in vals[positive])
    return HelstromResult(min(max(p_success, 0.0), 1.0), projector)


def measure_ensemble(e: CqEnsemble, m: Povm) -> JointDistribution:
    """Joint distribution of the key and the measurement outcome."""
    return JointDistribution(e.keys, m.labels, _outcome_mass(e, m))


def posterior(j: JointDistribution, outcome: str) -> ProbDist:
    """Bayes-normalized key distribution given one measurement outcome."""
    try:
        col = j.col_labels.index(outcome)
    except ValueError:
        raise BadParams(f"unknown outcome {outcome!r}") from None
    column = j.mass[:, col]
    total = math.fsum(float(v) for v in column)
    if total <= 1e-15:
        raise ZeroMassOutcome(f"outcome {outcome!r} has zero probability")
    return ProbDist(j.row_labels, tuple(float(v) / total for v in column))


def pgm(e: CqEnsemble) -> Povm:
    """Pretty-good measurement built from the ensemble.

    Elements are avg^(-1/2) p_k rho_k avg^(-1/2) with the pseudo-inverse
    taken on the support of the average probe; any kernel is completed
    under the label 'null' so the elements sum to the identity.
    """
    avg = average_probe(e).matrix
    vals, vecs = hermitian_eigen(avg)
    keep = vals > PGM_KERNEL_TOL
    basis = vecs[:, keep]
    inv_sqrt = basis @ np.diag(vals[keep] ** -0.5) @ basis.conj().T

    ops = inv_sqrt @ (e.weights[:, None, None] * e.probe_stack) @ inv_sqrt
    ops = 0.5 * (ops + ops.conj().swapaxes(1, 2))
    elements = list(zip(e.keys, ops))
    kernel = np.eye(e.probe_dim) - basis @ basis.conj().T
    if float(np.trace(kernel).real) > 1e-9:
        elements.append(("null", 0.5 * (kernel + kernel.conj().T)))
    return Povm(tuple(elements))


def success_probability(e: CqEnsemble, m: Povm, guess: Mapping[str, str]) -> float:
    """Probability that the guessed key equals the true key.

    ``guess`` maps outcome labels to key values; outcomes without an entry
    never count as success, so deliberately bad or partial strategies can
    be scored too.
    """
    if m.dim != e.probe_dim:
        raise DimMismatch(f"measurement dim {m.dim} does not match probe dim {e.probe_dim}")
    key_index = {k: i for i, k in enumerate(e.keys)}
    for outcome, key in guess.items():
        if outcome not in m.labels:
            raise BadParams(f"guess references unknown outcome {outcome!r}")
        if key not in key_index:
            raise BadParams(f"guess references unknown key {key!r}")
    terms = []
    for outcome, key in guess.items():
        p = float(e.prior.probs[key_index[key]])
        rho = e.probe(key).matrix
        terms.append(p * float(np.trace(rho @ m.element(outcome)).real))
    return math.fsum(terms)


def post_leak_discrimination(e: CqEnsemble, leak: LeakSpec) -> PostLeakResult:
    """Optimal discrimination of the one remaining bit after a partial leak.

    Conditions the ensemble on the leaked bits, runs the optimal binary
    measurement on the two surviving hypotheses, and returns that success
    probability next to the criterion value of the *full* ensemble for
    comparison against composition-style caps.
    """
    residual = condition_on_leak(e, leak)
    if residual.n_bits != 1:
        raise NotBinaryResidual(
            f"leak leaves {residual.n_bits} unknown bits; exactly 1 is required"
        )
    p0 = float(residual.prior.mass("0"))
    outcome = helstrom_binary(residual.probe("0"), residual.probe("1"), p0)
    return PostLeakResult(outcome.p_success, criterion_d_averaged(e))
