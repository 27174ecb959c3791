"""Dense complex linear algebra for small Hilbert spaces.

All operations work on plain numpy arrays (row-major, complex128) and
return fresh values; inputs are never mutated.  Dimensions stay small (at
most 256, the joint key-probe matrix of the entangled criterion form), so
dense Hermitian eigendecomposition is the workhorse and no sparse or
iterative machinery is needed.

Each Hermitian matrix is checked once, where it enters: the public eigen
kernels check their input, and their private cores eigensolve, unchecked,
the matrices the package derives from checked operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TOL, ZERO_TOL, BadTrace, DimMismatch, NotHermitian, NotPsd


def _as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def _adjoint_gaps(stack: np.ndarray) -> np.ndarray:
    """Largest entrywise deviation of each matrix of a (k, d, d) stack from
    its adjoint."""
    return np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2), initial=0.0)


def _require_hermitian_stack(stack) -> np.ndarray:
    """The stack as complex, after checking every matrix for Hermiticity;
    the first failing matrix names the deviation."""
    stack = _as_complex(stack)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or not stack.shape[1]:
        raise NotHermitian(f"expected a stack of square matrices, got shape {stack.shape}")
    for gap in _adjoint_gaps(stack).tolist():
        if not gap <= TOL:  # NaN fails too
            raise NotHermitian(
                f"matrix deviates from its adjoint by {gap:.3e} (tolerance {TOL:.1e})"
            )
    return stack


def _as_square(a) -> np.ndarray:
    a = _as_complex(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise NotHermitian(f"expected a square matrix, got shape {a.shape}")
    return a


def _require_square_hermitian(a) -> np.ndarray:
    return _require_hermitian_stack(_as_square(a)[None])[0]


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
        m = _require_density_stack(_as_square(self.matrix)[None])[0]
        object.__setattr__(self, "matrix", _frozen(m))

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
    a, b = _as_complex(a), _as_complex(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimMismatch(f"tensor takes two matrices, got shapes {a.shape} and {b.shape}")
    (r, c), (s, t) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(r * s, c * t)


def hermitian_eigen(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues in descending order with matching orthonormal eigenvectors.

    The global phase of each eigenvector column is fixed so that its first
    component of non-negligible magnitude is real and positive.  Measurement
    bases built from eigenvectors are therefore reproducible run to run.

    Raises NotHermitian when the input fails the symmetry check.
    """
    return _hermitian_eigen(_require_square_hermitian(h))


def _hermitian_eigen(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`hermitian_eigen` of a complex square matrix derived from checked
    operators, unchecked: the check never changes data, so the bits are the
    same, and a derived matrix may miss Hermiticity by the sum of its
    operands' slack."""
    vals, vecs = np.linalg.eigh(m)
    vecs = vecs[:, ::-1]
    # each column's first component above ZERO_TOL; a unit column always has one
    pivots = vecs[np.argmax(np.abs(vecs) > ZERO_TOL, axis=0), np.arange(vecs.shape[1])]
    return vals[::-1].copy(), vecs * (pivots.conj() / np.abs(pivots))


def _trace_norms(stack: np.ndarray) -> np.ndarray:
    """Trace norm of each matrix of a complex (k, d, d) stack derived from
    checked operators, unchecked, like `_hermitian_eigen`: one batched
    eigensolve, each norm the correctly rounded sum of its absolute
    eigenvalues."""
    vals = np.abs(np.linalg.eigvalsh(stack))
    return np.array([math.fsum(row) for row in vals.tolist()])


def trace_norm(a) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix.

    The general (singular-value) trace norm is out of scope; every use in
    this toolkit is a difference of Hermitian operators.
    """
    return _trace_norm(_require_square_hermitian(a))


def _trace_norm(m: np.ndarray) -> float:
    """`trace_norm` of a complex square matrix derived from checked
    operators, unchecked, like `_hermitian_eigen`."""
    return float(_trace_norms(m[None])[0])


def validate_density(m) -> DensityOperator:
    """Check Hermiticity, positivity and unit trace, returning a typed operator.

    Raises NotHermitian, NotPsd or BadTrace naming the violated invariant
    and its magnitude.
    """
    return DensityOperator(_as_complex(m))
