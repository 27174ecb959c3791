"""Measurements and attacker success probabilities.

Covers the optimal two-hypothesis measurement, POVM application to an
ensemble, the pretty-good measurement as a multi-state lower bound, and
discrimination of the residual key after a partial leak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .criteria import _outcome_mass, criterion_d_averaged
from .ensembles import CqEnsemble, LeakSpec, condition_on_leak
from .errors import _PGM_SUPPORT_CUTOFF, TOL, ZERO_TOL, BadParams
from .qmath import DensityOperator, _adjoint_gaps, _hermitian_eigen


@dataclass(frozen=True, eq=False)
class Povm:
    """Finite collection of labelled positive operators summing to identity.

    Construction also freezes the elements as one (outcomes, d, d) stack
    in element order; ``elements`` holds views of it and ``labels`` their
    labels in the same order.
    """

    elements: tuple[tuple[str, np.ndarray], ...]
    labels: tuple[str, ...] = field(init=False, repr=False, compare=False)
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.elements:
            raise BadParams("a measurement needs at least one element")
        labels = tuple(str(label) for label, _ in self.elements)
        ops = [np.asarray(op, dtype=complex) for _, op in self.elements]
        for label, m in zip(labels, ops):
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise BadParams(f"element {label!r} is not square")
            if m.shape[0] != ops[0].shape[0]:
                raise BadParams(
                    f"element {label!r} has dim {m.shape[0]}, expected {ops[0].shape[0]}"
                )
        stack = np.array(ops)  # as np.stack would, at a third of its cost: the shapes are equal
        dim = stack.shape[1]
        gaps = _adjoint_gaps(stack)
        lows = np.linalg.eigvalsh(stack)[:, 0]
        for label, gap, low in zip(labels, gaps.tolist(), lows.tolist()):
            if not gap <= TOL:  # NaN fails too
                raise BadParams(f"element {label!r} is not Hermitian (gap {gap:.3e})")
            if low < -TOL:
                raise BadParams(
                    f"element {label!r} has eigenvalue {low:.3e} below -{TOL:.1e}"
                )
        if len(set(labels)) != len(labels):
            raise BadParams("measurement labels must be unique")
        gap = float(abs(stack.sum(axis=0) - np.eye(dim)).max())
        if gap > TOL:
            raise BadParams(f"elements sum away from identity by {gap:.3e}")
        stack.setflags(write=False)
        object.__setattr__(self, "elements", tuple(zip(labels, stack)))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "stack", stack)

    @property
    def dim(self) -> int:
        return self.elements[0][1].shape[0]


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Joint mass over (key, outcome) pairs; rows are keys.

    A mass passed in is checked; ``measure_ensemble`` wraps the mass it
    measured on a validated ensemble and measurement without a second check.
    """

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    mass: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mass, dtype=float)
        if m.shape != (len(self.row_labels), len(self.col_labels)):
            raise BadParams(f"mass shape {m.shape} does not match the labels")
        low = float(m.min(initial=0.0))
        if not low >= -ZERO_TOL:  # NaN fails too
            raise BadParams(f"negative or NaN joint mass {low:.3e}")
        m = np.where((m < 0.0), 0.0, m)
        total = math.fsum(m.ravel().tolist())
        if not abs(total - 1.0) <= TOL:
            raise BadParams(f"total mass is {total!r}, off unit by {abs(total - 1.0):.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "mass", m)
        object.__setattr__(self, "row_labels", tuple(self.row_labels))
        object.__setattr__(self, "col_labels", tuple(self.col_labels))

    @classmethod
    def _trusted(cls, row_labels: tuple, col_labels: tuple, mass: np.ndarray) -> "JointDistribution":
        """Wrap a float mass measured on validated inputs, unchecked and
        uncopied; the mass is frozen in place."""
        mass.setflags(write=False)
        self = cls.__new__(cls)
        vars(self).update(row_labels=row_labels, col_labels=col_labels, mass=mass)
        return self


class PostLeakResult(NamedTuple):
    p_success: float
    d_full: float


def helstrom_binary(rho0: DensityOperator, rho1: DensityOperator, p0: float) -> float:
    """Optimal success probability for discriminating two states.

    With prior p0 on the first hypothesis, the optimum accepts hypothesis 1
    on the positive eigenspace of (1-p0) rho1 - p0 rho0, so it succeeds with
    probability p0 plus the sum of that operator's positive eigenvalues.
    For p0 = 1/2 this reduces to 1/2 + ||rho1 - rho0||_1 / 4.
    """
    if rho0.dim != rho1.dim:
        raise BadParams(f"dimensions differ: {rho0.dim} vs {rho1.dim}")
    if not 0.0 <= p0 <= 1.0:
        raise BadParams(f"prior must lie in [0, 1], got {p0!r}")
    gamma = (1.0 - p0) * rho1.matrix - p0 * rho0.matrix
    # the values of the eigh solve `_hermitian_eigen` makes; eigvalsh's values-only path may round differently
    p_success = p0 + math.fsum(v for v in np.linalg.eigh(gamma)[0].tolist() if v > 0.0)
    return min(max(p_success, 0.0), 1.0)


def measure_ensemble(e: CqEnsemble, m: Povm) -> JointDistribution:
    """Joint distribution of the key and the measurement outcome, from the
    clamped mass of `criteria._outcome_mass`."""
    return JointDistribution._trusted(e.keys, m.labels, _outcome_mass(e, m))


def pgm(e: CqEnsemble) -> Povm:
    """Pretty-good measurement built from the ensemble.

    Elements are avg^(-1/2) p_k rho_k avg^(-1/2) with the pseudo-inverse
    taken on the support of the average probe, its eigenvalues above
    max(ZERO_TOL, 1e-6 lam_max); any kernel is completed under the label
    'null' so the elements sum to the identity.  Any measurement is a lower
    bound on the guessing probability, so a cut support keeps it one.
    """
    avg = e.average.matrix
    vals, vecs = _hermitian_eigen(avg)
    keep = vals > max(ZERO_TOL, _PGM_SUPPORT_CUTOFF * vals[0])
    basis = vecs[:, keep]
    inv_sqrt = basis @ np.diag(vals[keep] ** -0.5) @ basis.conj().T

    ops = inv_sqrt @ (e.weights[:, None, None] * e.probe_stack) @ inv_sqrt
    ops = 0.5 * (ops + ops.conj().swapaxes(1, 2))
    elements = list(zip(e.keys, ops))
    kernel = np.eye(e.probe_dim) - basis @ basis.conj().T
    if float(np.trace(kernel).real) > TOL:
        elements.append(("null", 0.5 * (kernel + kernel.conj().T)))
    return Povm(tuple(elements))


def post_leak_discrimination(e: CqEnsemble, leak: LeakSpec) -> PostLeakResult:
    """Optimal discrimination of the one remaining bit after a partial leak.

    Conditions the ensemble on the leaked bits, runs the optimal binary
    measurement on the two surviving hypotheses, and returns that success
    probability next to the criterion value of the *full* ensemble for
    comparison against composition-style caps.
    """
    residual = condition_on_leak(e, leak)
    if residual.n_bits != 1:
        raise BadParams(
            f"leak leaves {residual.n_bits} unknown bits; exactly 1 is required"
        )
    p0 = float(residual.prior.mass("0"))
    p_success = helstrom_binary(residual.probe("0"), residual.probe("1"), p0)
    return PostLeakResult(p_success, criterion_d_averaged(e))
