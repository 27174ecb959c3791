"""Dense complex linear algebra for small Hilbert spaces.

All operations work on plain numpy arrays (row-major, complex128) and
return fresh values; inputs are never mutated.  Dimensions stay small (at
most 256, the joint key-probe matrix of the entangled criterion form), so
dense Hermitian eigendecomposition is the workhorse and no sparse or
iterative machinery is needed.

Each Hermitian matrix is checked once, where it enters: `validate_density`
and the ensemble and measurement constructors check what a caller passes,
and the private eigen cores solve, unchecked, the matrices the package
derives from checked operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TOL, ZERO_TOL, BadParams, BadTrace, NotHermitian, NotPsd


def _adjoint_gaps(stack: np.ndarray) -> np.ndarray:
    """Largest entrywise deviation of each matrix of a (k, d, d) stack from
    its adjoint."""
    return abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2), initial=0.0)


def _require_hermitian_stack(stack) -> np.ndarray:
    """The stack as complex, after checking every matrix for Hermiticity;
    the first failing matrix names the deviation."""
    stack = np.asarray(stack, dtype=complex)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or not stack.shape[1]:
        raise NotHermitian(f"expected a stack of square matrices, got shape {stack.shape}")
    for gap in _adjoint_gaps(stack).tolist():
        if not gap <= TOL:  # NaN fails too
            raise NotHermitian(
                f"matrix deviates from its adjoint by {gap:.3e} (tolerance {TOL:.1e})"
            )
    return stack


def _require_density_stack(stack) -> np.ndarray:
    """The stack as complex, after checking every matrix for Hermiticity, then
    positivity and unit trace; the first failing matrix names the deviation."""
    stack = _require_hermitian_stack(stack)
    lows = np.linalg.eigvalsh(stack)[:, 0].tolist()  # eigvalsh sorts ascending
    for low, tr in zip(lows, stack.trace(axis1=1, axis2=2).real.tolist()):
        if low < -TOL:
            raise NotPsd(f"smallest eigenvalue {low:.3e} is below -{TOL:.1e}")
        if abs(tr - 1.0) > TOL:
            raise BadTrace(f"trace is {tr!r}, off unit by {abs(tr - 1.0):.3e}")
    return stack


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, positive semidefinite operator with unit trace.

    Construction validates all three invariants and freezes the matrix,
    so instances can be shared freely between threads.  An operator
    derived from validated ones (a row of a checked stack, a product, an
    average) is wrapped by ``_trusted`` instead, without a second check.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)  # the one copy, checked then frozen
        if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
            raise NotHermitian(f"expected a square matrix, got shape {m.shape}")
        _require_density_stack(m[None])
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _trusted(cls, matrix: np.ndarray) -> "DensityOperator":
        """Wrap a complex matrix computed from validated operators, unchecked
        and uncopied; the matrix is frozen in place."""
        matrix.setflags(write=False)
        self = cls.__new__(cls)
        vars(self).update(matrix=matrix)
        return self

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two matrices; dimensions multiply.  One broadcast
    multiply: the same bits as numpy's Kronecker routine, at a fraction of
    its per-call cost."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim != 2:
        raise BadParams(f"tensor takes two matrices, got shapes {a.shape} and {b.shape}")
    (r, c), (s, t) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(r * s, c * t)


def _hermitian_eigen(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues in descending order with matching orthonormal eigenvectors,
    phase-fixed by `_phase_fixed`, of a complex square matrix derived from
    checked operators, unchecked: a derived matrix may miss Hermiticity by
    the sum of its operands' slack."""
    vals, vecs = np.linalg.eigh(m)
    return vals[::-1].copy(), _phase_fixed(vecs[None, :, ::-1])[0]


def _phase_fixed(vecs: np.ndarray) -> np.ndarray:
    """Each column of a (k, d, d) stack of eigenvectors times the global phase
    that makes its first non-negligible component real and positive, so bases
    built from eigenvectors are reproducible run to run."""
    k, d, _ = vecs.shape
    # each column's first component above ZERO_TOL; a unit column always has one
    pivots = vecs[np.arange(k)[:, None], (abs(vecs) > ZERO_TOL).argmax(1), np.arange(d)]
    return vecs * (pivots.conj() / abs(pivots))[:, None, :]


def _trace_norms(stack: np.ndarray) -> np.ndarray:
    """Trace norm of each matrix of a complex (k, d, d) stack derived from
    checked operators, unchecked, like `_hermitian_eigen`: one batched
    eigensolve, each norm the correctly rounded sum of its absolute
    eigenvalues."""
    vals = abs(np.linalg.eigvalsh(stack))
    return np.array([math.fsum(row) for row in vals.tolist()])


def _trace_norm(m: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a complex square matrix derived from
    checked operators, unchecked, like `_hermitian_eigen`.  The general
    (singular-value) trace norm is out of scope; every use in this toolkit
    is a difference of Hermitian operators."""
    return math.fsum(abs(np.linalg.eigvalsh(m)).tolist())


def validate_density(m) -> DensityOperator:
    """Check Hermiticity, positivity and unit trace, returning a typed operator.

    Raises NotHermitian, NotPsd or BadTrace naming the violated invariant
    and its magnitude.
    """
    return DensityOperator(m)
