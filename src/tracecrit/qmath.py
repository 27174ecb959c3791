"""Dense complex linear algebra for small Hilbert spaces.

All operations work on plain numpy arrays (row-major, complex128) and
return fresh values; inputs are never mutated.  Dimensions stay small
(<= ~64), so dense Hermitian eigendecomposition is the workhorse and no
sparse or iterative machinery is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, BadTrace, DimMismatch, NotHermitian, NotPsd

#: Tolerance for Hermitian-symmetry checks.
HERM_TOL = 1e-9
#: Tolerance for unit-trace checks.
TRACE_TOL = 1e-9
#: Tolerance for unit-norm checks on state vectors.
NORM_TOL = 1e-9
#: Eigenvalues in [-PSD_TOL, 0) are treated as exact zeros.
PSD_TOL = 1e-9
#: Magnitude below which a vector component does not fix the eigenvector phase.
_PHASE_TOL = 1e-12


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
        if not gap <= HERM_TOL:  # NaN fails too
            raise NotHermitian(
                f"matrix deviates from its adjoint by {gap:.3e} (tolerance {HERM_TOL:.1e})"
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
        if low < -PSD_TOL:
            raise NotPsd(f"smallest eigenvalue {low:.3e} is below -{PSD_TOL:.1e}")
        if abs(tr - 1.0) > TRACE_TOL:
            raise BadTrace(f"trace is {tr!r}, off unit by {abs(tr - 1.0):.3e}")
    return stack


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, positive semidefinite operator with unit trace.

    Construction validates all three invariants and freezes the matrix,
    so instances can be shared freely between threads.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _require_density_stack(_as_square(self.matrix)[None])[0]
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector in a small Hilbert space."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = _as_complex(self.amplitudes).reshape(-1)
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > NORM_TOL:
            raise BadParams(f"state vector norm is {nrm!r}, not 1 within {NORM_TOL:.1e}")
        object.__setattr__(self, "amplitudes", _frozen(v))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def projector(self) -> DensityOperator:
        v = self.amplitudes
        return DensityOperator(np.outer(v, v.conj()))


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two matrices; dimensions multiply."""
    return np.kron(_as_complex(a), _as_complex(b))


def hermitian_eigen(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues in descending order with matching orthonormal eigenvectors.

    The global phase of each eigenvector column is fixed so that its first
    component of non-negligible magnitude is real and positive.  Measurement
    bases built from eigenvectors are therefore reproducible run to run.

    Raises NotHermitian when the input fails the symmetry check.
    """
    m = _require_square_hermitian(h)
    vals, vecs = np.linalg.eigh(m)
    vecs = vecs[:, ::-1]
    # each column's first component above _PHASE_TOL; a unit column always has one
    pivots = vecs[np.argmax(np.abs(vecs) > _PHASE_TOL, axis=0), np.arange(vecs.shape[1])]
    return vals[::-1].copy(), vecs * (pivots.conj() / np.abs(pivots))


def trace_norms(stack) -> np.ndarray:
    """Trace norm of each Hermitian matrix of a (k, d, d) stack, from one
    batched eigensolve; each norm is the correctly rounded sum of its
    absolute eigenvalues."""
    vals = np.abs(np.linalg.eigvalsh(_require_hermitian_stack(stack)))
    return np.array([math.fsum(row) for row in vals.tolist()])


def trace_norm(a) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix.

    The general (singular-value) trace norm is out of scope; every use in
    this toolkit is a difference of Hermitian operators.
    """
    return float(trace_norms(_as_square(a)[None])[0])


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Half the trace norm of rho - sigma; a metric with values in [0, 1]."""
    if rho.dim != sigma.dim:
        raise DimMismatch(f"dimensions differ: {rho.dim} vs {sigma.dim}")
    diff = rho.matrix - sigma.matrix
    # canonicalize the overall sign so both argument orders hit the
    # eigensolver with bit-identical input (symmetry holds exactly)
    flat = diff.ravel()
    nonzero = np.flatnonzero(flat)
    if nonzero.size:
        lead = flat[nonzero[0]]
        if lead.real < 0.0 or (lead.real == 0.0 and lead.imag < 0.0):
            diff = -diff
    val = 0.5 * trace_norm(diff)
    return min(max(val, 0.0), 1.0)


def validate_density(m) -> DensityOperator:
    """Check Hermiticity, positivity and unit trace, returning a typed operator.

    Raises NotHermitian, NotPsd or BadTrace naming the violated invariant
    and its magnitude.
    """
    return DensityOperator(_as_complex(m))
