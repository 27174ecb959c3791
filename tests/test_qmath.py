import math
from pathlib import Path

import numpy as np
import pytest

import tracecrit
from tracecrit import DensityOperator, tensor, validate_density
from tracecrit.errors import TOL, BadParams, BadTrace, NotHermitian, NotPsd
from tracecrit.qmath import _hermitian_eigen, _require_hermitian_stack, _trace_norm, _trace_norms

from helpers import (
    bits,
    random_density,
    random_pure_vector,
    random_unitary,
    trace_norm_loop,
)

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
KET_PLUS = np.array([1.0, 1.0]) / math.sqrt(2)


def projector(v):
    return np.outer(v, np.conj(v)).astype(complex)


class TestTensor:
    def test_identity_case(self):
        np.testing.assert_array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_dimension_arithmetic(self):
        assert tensor(np.ones((2, 2)), np.ones((3, 3))).shape == (6, 6)

    def test_basis_vector_block_structure(self):
        rho = random_density(np.random.default_rng(0), 2).matrix
        out = tensor(projector(KET0), rho)
        np.testing.assert_allclose(out[:2, :2], rho)
        assert np.all(out[2:, :] == 0) and np.all(out[:, 2:] == 0)

    def test_equals_kron_bit_for_bit(self):
        rng = np.random.default_rng(2)
        shapes = [(r, c) for r in range(1, 5) for c in range(1, 5)]
        for sa in shapes:
            for sb in shapes:
                a = rng.normal(size=sa) + 1j * rng.normal(size=sa)
                b = rng.normal(size=sb) + 1j * rng.normal(size=sb)
                np.testing.assert_array_equal(tensor(a, b), np.kron(a, b))

    def test_no_kron_in_the_package(self):
        package = Path(tracecrit.__file__).parent
        assert not [p.name for p in package.glob("*.py") if "np.kron" in p.read_text()]

    def test_rejects_non_matrices(self):
        with pytest.raises(BadParams, match="two matrices"):
            tensor(KET0, KET1)

    def test_bilinear(self):
        rng = np.random.default_rng(1)
        a, b, c = (rng.normal(size=(2, 2)) for _ in range(3))
        np.testing.assert_allclose(
            tensor(a + 2 * b, c), tensor(a, c) + 2 * tensor(b, c), atol=1e-12
        )


class TestHermitianEigen:
    """The unchecked eigen core on complex Hermitian matrices, as the package
    derives them."""

    def test_diagonal_case(self):
        vals, _ = _hermitian_eigen(np.diag([3.0, 1.0, 2.0]).astype(complex))
        np.testing.assert_allclose(vals, [3.0, 2.0, 1.0])

    def test_pauli_x(self):
        vals, _ = _hermitian_eigen(np.array([[0, 1], [1, 0]], dtype=complex))
        np.testing.assert_allclose(vals, [1.0, -1.0])

    def test_reconstruction_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = a + a.conj().T
            vals, vecs = _hermitian_eigen(h)
            residual = np.max(np.abs(h - vecs @ np.diag(vals) @ vecs.conj().T))
            assert residual <= 1e-10
            np.testing.assert_allclose(
                vecs.conj().T @ vecs, np.eye(4), atol=1e-10
            )

    def test_phase_convention_is_reproducible(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 3))
        h = (a + a.T).astype(complex)
        _, v1 = _hermitian_eigen(h)
        _, v2 = _hermitian_eigen(h.copy())
        np.testing.assert_array_equal(v1, v2)
        for j in range(3):
            lead = v1[np.argmax(np.abs(v1[:, j]) > 1e-12), j]
            assert lead.real > 0 and abs(lead.imag) < 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 8])
    def test_phase_fix_matches_a_column_loop(self, dim):
        rng = np.random.default_rng(dim)
        for degenerate in (False, True):  # eigenvalues 0, 0, 1, 1, ... when degenerate
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            if degenerate:
                u = random_unitary(rng, dim)
                a = u @ np.diag(np.arange(dim) // 2 / 2) @ u.conj().T
            h = a + a.conj().T
            vals, vecs = np.linalg.eigh(h)
            vecs = vecs[:, ::-1].copy()
            for j in range(dim):
                pivot = vecs[np.argmax(np.abs(vecs[:, j]) > 1e-12), j]
                vecs[:, j] = vecs[:, j] * (pivot.conj() / abs(pivot))
            got_vals, got_vecs = _hermitian_eigen(h)
            assert bits(got_vals) == bits(vals[::-1]) and bits(got_vecs) == bits(vecs)


class TestTraceNorm:
    """The unchecked trace-norm core on differences of Hermitian matrices."""

    def test_zero_difference(self):
        rho = random_density(np.random.default_rng(2), 3).matrix
        assert _trace_norm(rho - rho) == 0.0

    @pytest.mark.parametrize("dim", [1, 2, 4, 16])
    def test_one_matrix_matches_a_stack_of_one(self, dim):
        """Solved as a matrix, the norm has the bits of the batched route on a
        stack holding only that matrix."""
        rng = np.random.default_rng([32, dim])
        for _ in range(20):
            diff = random_density(rng, dim).matrix - random_density(rng, dim).matrix
            assert bits(_trace_norm(diff)) == bits(_trace_norms(diff[None])[0])

    def test_orthogonal_pure_states(self):
        assert _trace_norm(projector(KET0) - projector(KET1)) == pytest.approx(2.0, abs=1e-12)

    def test_half_overlap(self):
        # eigenvalues +-sqrt(1 - c^2) with c = 1/sqrt(2)
        val = _trace_norm(projector(KET0) - projector(KET_PLUS))
        assert val == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = a + a.conj().T
            u = random_unitary(rng, 4)
            assert _trace_norm(u @ h @ u.conj().T) == pytest.approx(
                _trace_norm(h), abs=1e-9
            )


def half_norm(rho: DensityOperator, sigma: DensityOperator) -> float:
    """The trace distance of two density operators, as the package computes it."""
    return 0.5 * _trace_norm(rho.matrix - sigma.matrix)


class TestTraceDistance:
    """The trace distance ||rho - sigma||_1 / 2 through the trace-norm kernel."""

    def test_identical_states(self):
        rho = random_density(np.random.default_rng(4), 4)
        assert half_norm(rho, rho) == 0.0

    def test_orthogonal_pure_pair(self):
        d = half_norm(
            validate_density(projector(KET0)), validate_density(projector(KET1))
        )
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_pure_overlap_oracle(self):
        # for pure states with overlap c the distance is sqrt(1 - c^2)
        rng = np.random.default_rng(5)
        for _ in range(25):
            u = random_pure_vector(rng, 3)
            v = random_pure_vector(rng, 3)
            c = abs(np.vdot(u, v))
            d = half_norm(
                validate_density(projector(u)), validate_density(projector(v))
            )
            assert d == pytest.approx(math.sqrt(1 - c * c), abs=1e-9)

    def test_real_overlap_point_six(self):
        v = np.array([0.6, 0.8])
        d = half_norm(
            validate_density(projector(KET0)), validate_density(projector(v))
        )
        assert d == pytest.approx(0.8, abs=1e-12)

    def test_metric_properties(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a, b, c = (random_density(rng, 3) for _ in range(3))
            assert half_norm(a, b) == half_norm(b, a)  # exact symmetry
            assert half_norm(a, c) <= half_norm(a, b) + half_norm(b, c) + 1e-9
            assert 0.0 <= half_norm(a, b) <= 1.0


class TestValidateDensity:
    def test_accepts_maximally_mixed(self):
        op = validate_density(np.eye(2) / 2)
        assert op.dim == 2

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPsd, match="eigenvalue"):
            validate_density(np.diag([1.5, -0.5]))

    def test_rejects_bad_trace(self):
        with pytest.raises(BadTrace, match="trace"):
            validate_density(np.diag([0.6, 0.6]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            validate_density(np.array([[0.5, 0.3], [0.0, 0.5]]))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        m = np.eye(2) / 2
        m[0, 0] = bad
        with pytest.raises(NotHermitian):
            validate_density(m)

    def test_empty_matrix_is_refused(self):
        with pytest.raises(NotHermitian, match=r"got shape \(0, 0\)"):
            validate_density(np.zeros((0, 0)))
        with pytest.raises(NotHermitian, match=r"got shape \(2, 0, 0\)"):
            _require_hermitian_stack(np.zeros((2, 0, 0)))

    def test_matrix_is_frozen(self):
        op = validate_density(np.eye(2) / 2)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 9.0


class TestPureState:
    def test_projector_is_density(self):
        v = np.array([0.6, 0.8j])
        op = validate_density(np.outer(v, v.conj()))
        assert isinstance(op, DensityOperator)
        assert float(op.matrix.trace().real) == pytest.approx(1.0, abs=1e-12)


class TestTraceNorms:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 8, 16])
    def test_matches_single_matrix_bits(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(9, dim, dim)) + 1j * rng.normal(size=(9, dim, dim))
        stack = a + a.conj().swapaxes(1, 2)
        norms = _trace_norms(stack)
        assert bits(norms) == bits([_trace_norm(h) for h in stack])
        assert bits(norms) == bits([trace_norm_loop(h) for h in stack])

    def test_empty_stack(self):
        assert _trace_norms(np.zeros((0, 3, 3), dtype=complex)).shape == (0,)

    def test_non_hermitian_names_first_failing_matrix(self):
        good = np.eye(2)
        skew = np.array([[0.0, 1.0], [0.0, 0.0]])
        worse = np.array([[0.0, 3.0], [0.0, 0.0]])
        with pytest.raises(NotHermitian) as single:
            validate_density(skew)
        with pytest.raises(NotHermitian) as stacked:
            _require_hermitian_stack(np.stack([good, skew, worse]))
        assert str(stacked.value) == str(single.value)
        assert "1.000e+00" in str(stacked.value)

    @pytest.mark.parametrize(
        "gap, message",
        [
            (0.3, "matrix deviates from its adjoint by 3.000e-01 (tolerance 1.0e-09)"),
            (1.1 * TOL, "matrix deviates from its adjoint by 1.100e-09 (tolerance 1.0e-09)"),
        ],
    )
    def test_public_kernels_check_raw_input(self, gap, message):
        raw = np.array([[0.5, 0.2 + gap], [0.2, 0.5]], dtype=complex)
        for call in (validate_density, lambda m: _require_hermitian_stack(np.stack([np.eye(2), m]))):
            with pytest.raises(NotHermitian) as refused:
                call(raw)
            assert str(refused.value) == message

    def test_shape_errors(self):
        with pytest.raises(NotHermitian, match="square matrix"):
            validate_density(np.ones(3))
        with pytest.raises(NotHermitian, match="stack of square"):
            _require_hermitian_stack(np.ones((2, 3)))
