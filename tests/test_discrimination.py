import math
from fractions import Fraction

import numpy as np
import pytest

from tracecrit import (
    CqEnsemble,
    DensityOperator,
    JointDistribution,
    LeakSpec,
    Povm,
    ProbDist,
    criterion_d_averaged,
    helstrom_binary,
    measure_ensemble,
    pgm,
    post_leak_discrimination,
    two_bit_pkl_example,
    validate_density,
)
from tracecrit.ensembles import bit_strings
from tracecrit.errors import (
    TOL,
    BadParams,
    NotHermitian,
    NotPsd,
)

from tracecrit.criteria import _outcome_mass, _variants_from_mass

from helpers import (
    bits,
    condition_on_leak,
    gap_ensemble,
    helstrom_binary_loop,
    helstrom_projector,
    mass,
    masses,
    pgm_elements_loop,
    probe,
    random_density,
    random_ensemble,
    random_povm,
    single_bit_pure_example,
    success_probability_loop,
    trace_norm_loop,
)


def projective_qubit_povm():
    return Povm((("0", np.diag([1.0, 0.0])), ("1", np.diag([0.0, 1.0]))))


class TestPovm:
    def test_accepts_projective(self):
        m = projective_qubit_povm()
        assert m.dim == 2 and m.labels == ("0", "1")

    def test_rejects_incomplete(self):
        with pytest.raises(BadParams, match="identity"):
            Povm((("0", np.diag([1.0, 0.0])), ("1", np.diag([0.0, 0.5]))))

    def test_rejects_negative_element(self):
        with pytest.raises(NotPsd, match="eigenvalue -5.000e-01 is below -1.0e-09 in element '1'$"):
            Povm((("0", np.diag([1.5, 1.0])), ("1", np.diag([-0.5, 0.0]))))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(BadParams, match="unique"):
            Povm((("x", np.eye(2) / 2), ("x", np.eye(2) / 2)))

    def test_labels_are_coerced_and_refused_by_the_one_label_rule(self):
        m = Povm(((0, np.eye(2) / 2), (1, np.eye(2) / 2)))
        assert m.labels == ("0", "1") and [label for label, _ in m.elements] == ["0", "1"]
        with pytest.raises(BadParams, match="^labels must be unique$"):
            Povm(((1, np.eye(2) / 2), ("1", np.eye(2) / 2)))

    def test_rejects_non_hermitian_element_by_label(self):
        skew = np.array([[0.5, 1e-6], [0.0, 0.5]])
        with pytest.raises(NotHermitian, match=r"by 1\.000e-06 \(tolerance 1\.0e-09\) in element 'b'$"):
            Povm((("a", np.eye(2) / 2), ("b", skew)))

    def test_hermitian_tolerance_is_qmath_tol(self):
        off = TOL / 2
        Povm((("a", np.array([[0.5, off], [0.0, 0.5]])), ("b", np.array([[0.5, -off], [0.0, 0.5]]))))
        off = TOL * 2
        with pytest.raises(NotHermitian, match="in element 'a'$"):
            Povm((("a", np.array([[0.5, off], [0.0, 0.5]])), ("b", np.array([[0.5, -off], [0.0, 0.5]]))))

    def test_rejects_nan_element(self):
        with pytest.raises(NotHermitian, match="by nan .* in element 'b'$"):
            Povm((("a", np.eye(2)), ("b", np.full((2, 2), np.nan))))

    def test_first_failing_element_is_named(self):
        bad = np.diag([-0.5, 0.0])
        with pytest.raises(NotPsd, match="^smallest eigenvalue -5.000e-01 is below -1.0e-09 in element 'y'$"):
            Povm((("x", np.diag([1.0, 1.0])), ("y", bad), ("z", np.diag([0.5, 0.0])), ("w", bad)))

    def test_shape_errors(self):
        with pytest.raises(BadParams, match="'a' is not square"):
            Povm((("a", np.ones((2, 3))),))
        with pytest.raises(BadParams, match="'b' has dim 3, expected 2"):
            Povm((("a", np.eye(2)), ("b", np.eye(3))))

    def test_rejects_empty(self):
        with pytest.raises(BadParams, match="at least one element"):
            Povm(())

    def test_element_stack(self):
        m = random_povm(np.random.default_rng(3), 3, 4)
        assert m.stack.shape == (4, 3, 3)
        for i, (label, op) in enumerate(m.elements):
            assert label == m.labels[i] and bits(op) == bits(m.stack[i])
        with pytest.raises(ValueError):
            m.stack[0, 0, 0] = 1.0


class TestHelstrom:
    def test_orthogonal_pure_states(self):
        rho0 = validate_density(np.diag([1.0, 0.0]))
        rho1 = validate_density(np.diag([0.0, 1.0]))
        assert helstrom_binary(rho0, rho1, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_identical_states_give_prior_guess(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 3)
        for p0 in (0.2, 0.5, 0.9):
            assert helstrom_binary(rho, rho, p0) == pytest.approx(
                max(p0, 1.0 - p0), abs=1e-9
            )

    def test_single_bit_family_success_is_half_plus_d(self):
        for c in np.linspace(0.0, 1.0, 11):
            e = single_bit_pure_example(float(c))
            d = criterion_d_averaged(e)
            success = helstrom_binary(probe(e, "0"), probe(e, "1"), 0.5)
            assert success == pytest.approx(0.5 + d, abs=1e-9)

    def test_equal_prior_matches_trace_distance(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            rho0, rho1 = random_density(rng, 3), random_density(rng, 3)
            expected = 0.5 + 0.25 * trace_norm_loop(rho0.matrix - rho1.matrix)
            assert helstrom_binary(rho0, rho1, 0.5) == pytest.approx(
                expected, abs=1e-9
            )

    @pytest.mark.parametrize("dim", [2, 4])
    def test_eigh_values_match_the_hermitian_eigen_route(self, dim):
        """Read from the eigh solve itself, the positive values give the bits
        that p0 plus the positive values of `_hermitian_eigen` give, at the
        priors 0, 1/2 and 1 and at random ones, on full and low-rank states."""
        rng = np.random.default_rng([32, dim])
        for _ in range(40):
            rho0 = random_density(rng, dim, rank=int(rng.integers(1, dim + 1)))
            rho1 = random_density(rng, dim)
            for p0 in (0.0, 0.5, 1.0, float(rng.random())):
                assert bits(helstrom_binary(rho0, rho1, p0)) == bits(helstrom_binary_loop(rho0, rho1, p0))
                assert bits(helstrom_binary(rho1, rho0, p0)) == bits(helstrom_binary_loop(rho1, rho0, p0))

    def test_errors(self):
        rng = np.random.default_rng(3)
        with pytest.raises(BadParams, match="dimensions differ: 2 vs 3"):
            helstrom_binary(random_density(rng, 2), random_density(rng, 3), 0.5)
        with pytest.raises(BadParams, match=r"prior must lie in \[0, 1\], got 1\.5"):
            helstrom_binary(random_density(rng, 2), random_density(rng, 2), 1.5)


class TestMeasureEnsemble:
    def test_trivial_povm_reproduces_prior(self):
        rng = np.random.default_rng(4)
        e = random_ensemble(rng, 2, 2, uniform_prior=False)
        joint = measure_ensemble(e, Povm((("all", np.eye(2)),)))
        np.testing.assert_allclose(
            joint.mass[:, 0], e.prior.as_array(), atol=1e-12
        )

    def test_orthogonal_family_four_atoms(self):
        sigma = validate_density(np.diag([1.0, 0.0]))
        rho1 = validate_density(np.diag([1.0, 0.0]))
        rho2 = validate_density(np.diag([0.0, 1.0]))
        e = two_bit_pkl_example(sigma, rho1, rho2)
        from tracecrit.two_bit import _family_measurement

        joint = measure_ensemble(e, _family_measurement(sigma, rho1, rho2))
        flat = sorted(float(v) for v in joint.mass.ravel())
        assert flat[-4:] == pytest.approx([0.25] * 4, abs=1e-12)
        assert all(v == pytest.approx(0.0, abs=1e-12) for v in flat[:-4])

    def test_outcome_marginal_matches_average_probe(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            e = random_ensemble(rng, 2, 3, uniform_prior=False)
            povm = random_povm(rng, 3, 4)
            joint = measure_ensemble(e, povm)
            avg = e.average.matrix
            for j, element in enumerate(povm.stack):
                direct = float(np.trace(avg @ element).real)
                assert float(joint.mass[:, j].sum()) == pytest.approx(direct, abs=1e-12)

    def test_dim_mismatch(self):
        rng = np.random.default_rng(6)
        with pytest.raises(BadParams, match="measurement dim 2 does not match probe dim 3"):
            measure_ensemble(random_ensemble(rng, 1, 3), projective_qubit_povm())

    def test_joint_holds_the_measured_mass_read_only(self):
        rng = np.random.default_rng(8)
        e = random_ensemble(rng, 2, 3, uniform_prior=False)
        povm = random_povm(rng, 3, 4)
        joint = measure_ensemble(e, povm)
        assert bits(joint.mass) == bits(_outcome_mass(e, povm))
        assert (joint.row_labels, joint.col_labels) == (e.keys, povm.labels)
        with pytest.raises(ValueError):
            joint.mass[0, 0] = 0.0

    def test_total_off_unit_by_accepted_slack_is_not_refused(self):
        # each probe is sigma (x) rho with both factors accepted at trace 1 + 9e-10
        sigma = validate_density(np.diag([1.0000000009, 0.0]))
        e = two_bit_pkl_example(sigma, sigma, validate_density(np.diag([0.0, 1.0])))
        joint = measure_ensemble(e, Povm((("all", np.eye(4)),)))
        assert abs(joint.mass.sum() - 1.0) > TOL
        with pytest.raises(BadParams, match="^masses sum to "):
            JointDistribution(joint.row_labels, joint.col_labels, joint.mass)


class TestPosterior:
    """The Bayes posterior mass[:, o] / P(o) of each outcome o, read through
    its deviation from the uniform key, as `_variants_from_mass` computes it
    for every outcome."""

    def test_independent_joint_returns_prior(self):
        # every posterior is the uniform prior
        out = _variants_from_mass(np.outer([0.25] * 4, [0.6, 0.4]))
        assert out.max_posterior_dev == pytest.approx(0.0, abs=1e-12)
        assert out.avg_posterior_dev == pytest.approx(0.0, abs=1e-12)

    def test_mixed_family_posterior(self):
        sigma = validate_density(np.diag([1.0, 0.0]))
        rho1 = validate_density(np.diag([0.6, 0.4]))
        rho2 = validate_density(np.diag([0.1, 0.9]))
        e = two_bit_pkl_example(sigma, rho1, rho2)
        from tracecrit.two_bit import _family_measurement

        joint = measure_ensemble(e, _family_measurement(sigma, rho1, rho2))
        column = joint.mass[:, [joint.col_labels.index("a:e+")]]
        # the posterior (3/7, 1/14, 1/14, 3/7) lies 5/14 from uniform
        assert _variants_from_mass(column).max_posterior_dev == pytest.approx(5 / 14, abs=1e-12)

    def test_deterministic_channel_point_mass(self):
        out = _variants_from_mass(np.diag([0.5, 0.5]))
        # each posterior is a point mass, 1/2 from uniform
        assert (out.max_posterior_dev, out.avg_posterior_dev) == (0.5, 0.5)

    def test_zero_mass_outcome(self):
        # outcome y never occurs: it has no posterior, and no reading counts it
        out = _variants_from_mass(np.array([[0.5, 0.0], [0.5, 0.0]]))
        assert (out.outcome_vs_uniform, out.max_posterior_dev, out.avg_posterior_dev) == (0.0, 0.0, 0.0)

    def test_outcome_with_mass_at_zero_tol_is_left_out(self):
        # y's posterior is a point mass, 1/2 from uniform; at a total of
        # 5e-13, at or below ZERO_TOL, it is left out, and at 2e-12 it counts
        for y, want in ((5e-13, 0.0), (2e-12, 0.5)):
            out = _variants_from_mass(np.array([[0.5, y], [0.5 - y, 0.0]]))
            assert out.max_posterior_dev == pytest.approx(want, abs=1e-12)


class TestPgm:
    def test_orthogonal_pure_probes_give_projective(self):
        e = single_bit_pure_example(0.0)
        m = pgm(e)
        assert set(m.labels) == {"0", "1"}
        guess = {"0": "0", "1": "1"}
        assert success_probability_loop(e, m, guess) == pytest.approx(1.0, abs=1e-9)

    def test_success_beats_guessing(self):
        for c in (0.2, 0.5, 0.8):
            e = single_bit_pure_example(c)
            m = pgm(e)
            guess = {k: k for k in e.keys}
            assert success_probability_loop(e, m, guess) >= 0.5 - 1e-12

    def test_never_beats_helstrom_on_binary(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            e = random_ensemble(rng, 1, 3)
            m = pgm(e)
            guess = {k: k for k in e.keys if k in m.labels}
            optimal = helstrom_binary(probe(e, "0"), probe(e, "1"), 0.5)
            assert success_probability_loop(e, m, guess) <= optimal + 1e-9

    @pytest.mark.parametrize("uniform", [True, False])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 8, 16])
    def test_elements_match_loop(self, dim, uniform):
        e = random_ensemble(np.random.default_rng(dim), 3, dim, uniform_prior=uniform)
        m = pgm(e)
        want = pgm_elements_loop(e)
        assert m.labels[: len(want)] == tuple(k for k, _ in want)
        for (_, got), (_, op) in zip(m.elements, want):
            assert bits(got) == bits(op)

    def test_kernel_completion(self):
        # rank-deficient average probe: both probes live on |0>
        rho = validate_density(np.diag([1.0, 0.0]))
        e = CqEnsemble(1, ProbDist.uniform(bit_strings(1)), {"0": rho, "1": rho})
        m = pgm(e)
        assert "null" in m.labels  # kernel projector completes the measurement

    def test_near_degenerate_probes_give_a_measurement(self):
        # eight pure probes, each one shared vector perturbed by eps: the
        # average probe's small eigenvalues sit near eps^2, where an inverse
        # square root cut only at ZERO_TOL scaled rounding past TOL
        rng = np.random.default_rng(1)
        keys = bit_strings(3)
        for _ in range(300):
            eps = 10 ** rng.uniform(-7, -3)
            base = rng.normal(size=4) + 1j * rng.normal(size=4)
            vecs = base + eps * (rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4)))
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            e = CqEnsemble(3, ProbDist.uniform(keys), dict(zip(keys, vecs[:, :, None] * vecs.conj()[:, None, :])))
            m = pgm(e)  # the Povm checks positivity and the identity sum within TOL
            assert m.labels[:8] == keys
            want = pgm_elements_loop(e)
            for (_, got), (_, op) in zip(m.elements, want):
                np.testing.assert_allclose(got, op, atol=1e-6)


class TestSuccessProbability:
    def test_random_guessing_is_two_to_minus_n(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 3):
            e = random_ensemble(rng, n, 2)
            m = Povm((("only", np.eye(2)),))
            assert success_probability_loop(e, m, {"only": e.keys[0]}) == pytest.approx(
                2.0**-n, abs=1e-12
            )

    def test_matches_helstrom_via_projector(self):
        rng = np.random.default_rng(9)
        for i in range(20):
            e = random_ensemble(rng, 1, 3, uniform_prior=i % 2 == 0)
            p0 = float(mass(e.prior, "0"))
            proj = helstrom_projector(probe(e, "0"), probe(e, "1"), p0)
            m = Povm((("0", np.eye(3) - proj), ("1", proj)))
            two_path = success_probability_loop(e, m, {"0": "0", "1": "1"})
            optimal = helstrom_binary(probe(e, "0"), probe(e, "1"), p0)
            assert two_path == pytest.approx(optimal, abs=1e-12)

    def test_no_random_povm_beats_helstrom(self):
        rng = np.random.default_rng(10)
        for _ in range(15):
            e = random_ensemble(rng, 1, 2)
            optimal = helstrom_binary(probe(e, "0"), probe(e, "1"), 0.5)
            povm = random_povm(rng, 2, 3)
            joint = measure_ensemble(e, povm)
            # best deterministic guess per outcome
            guess = {}
            for j, label in enumerate(povm.labels):
                guess[label] = e.keys[int(np.argmax(joint.mass[:, j]))]
            assert success_probability_loop(e, povm, guess) <= optimal + 1e-9

    def test_deliberately_bad_strategy(self):
        e = single_bit_pure_example(0.0)
        m = pgm(e)
        swapped = {"0": "1", "1": "0"}
        assert success_probability_loop(e, m, swapped) == pytest.approx(0.0, abs=1e-9)


LEAK_PRIORS = ["uniform", "fraction", "dirichlet"]


def leak_case(n: int, dim: int, prior: str) -> CqEnsemble:
    """Seeded n-bit ensemble of dim-dimensional probes under an exact
    uniform prior, an exact Fraction prior whose first key has mass 0, or a
    float Dirichlet prior."""
    rng = np.random.default_rng([n, dim, LEAK_PRIORS.index(prior)])
    keys = bit_strings(n)
    if prior == "dirichlet":
        dist = ProbDist(keys, tuple(rng.dirichlet(np.ones(len(keys))).tolist()))
    elif prior == "fraction":
        ints = [0] + [int(v) for v in rng.integers(1, 50, len(keys) - 1)]
        dist = ProbDist(keys, tuple(Fraction(v, sum(ints)) for v in ints))
    else:
        dist = ProbDist.uniform(keys)
    return CqEnsemble(n, dist, {k: random_density(rng, dim) for k in keys})


def one_bit_leaks(n: int):
    """Every leak of n - 1 of the n bits: each kept position, each pattern."""
    for kept in range(n):
        positions = tuple(p for p in range(n) if p != kept)
        for pattern in range(2 ** (n - 1)):
            yield LeakSpec(positions, tuple((pattern >> (n - 2 - t)) & 1 for t in range(n - 1)))


class TestPostLeakDiscrimination:
    @pytest.mark.parametrize("prior", LEAK_PRIORS)
    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_the_conditioned_ensemble_bit_for_bit(self, n, prior):
        """Against the route through a conditioned ensemble: condition on the
        leak, then the Helstrom test on the residual's two stack rows under
        its first key's mass."""
        for dim in range(1, 5):
            e = leak_case(n, dim, prior)
            d = criterion_d_averaged(e)
            for leak in one_bit_leaks(n):
                residual = condition_on_leak(e, leak)
                rho0, rho1 = (DensityOperator._trusted(m) for m in residual.probe_stack)
                want = helstrom_binary(rho0, rho1, float(masses(residual.prior)[0]))
                got = post_leak_discrimination(e, leak)
                assert bits(got) == bits([want, d]), (n, dim, leak)
                assert type(got.p_success) is float

    def test_refuses_a_position_outside_the_key(self):
        e = random_ensemble(np.random.default_rng(14), 2, 2)
        for leak, pos in ((LeakSpec((2,), (0,)), 2), (LeakSpec((0, 5), (0, 1)), 5)):
            with pytest.raises(BadParams, match=f"^leak position {pos} outside a 2-bit key$"):
                post_leak_discrimination(e, leak)

    @pytest.mark.parametrize("probs", [(Fraction(1, 4),) * 4 + (0,) * 4, (0.25,) * 4 + (0.0,) * 4])
    def test_refuses_a_zero_probability_pattern_before_counting_bits(self, probs):
        """Every key with a first bit of 1 has mass 0, so each leak of a first
        bit of 1 is refused for its pattern, whatever it leaves unknown."""
        rng = np.random.default_rng(15)
        keys = bit_strings(3)
        e = CqEnsemble(3, ProbDist(keys, probs), {k: random_density(rng, 2) for k in keys})
        for leak in (LeakSpec((0,), (1,)), LeakSpec((0, 1), (1, 0)), LeakSpec((0, 1, 2), (1, 1, 1))):
            with pytest.raises(BadParams, match="^leaked pattern has zero prior probability$"):
                post_leak_discrimination(e, leak)

    @pytest.mark.parametrize(
        "n, leak, left",
        [
            (2, LeakSpec((0, 1), (1, 0)), 0),
            (3, LeakSpec((0, 1, 2), (0, 1, 1)), 0),
            (2, LeakSpec((), ()), 2),
            (4, LeakSpec((1, 3), (1, 0)), 2),
        ],
    )
    def test_refuses_a_leak_that_leaves_other_than_one_bit(self, n, leak, left):
        e = random_ensemble(np.random.default_rng(16), n, 2, uniform_prior=False)
        with pytest.raises(BadParams, match=f"^leak leaves {left} unknown bits; exactly 1 is required$"):
            post_leak_discrimination(e, leak)

    def test_two_bit_family_success_half_plus_d(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            sigma, rho1, rho2 = (random_density(rng, 2) for _ in range(3))
            e = two_bit_pkl_example(sigma, rho1, rho2)
            success, d = post_leak_discrimination(e, LeakSpec((0,), (0,)))
            assert success == pytest.approx(0.5 + d, abs=1e-9)

    def test_identical_components_sit_at_cap(self):
        rng = np.random.default_rng(12)
        sigma, rho = random_density(rng, 2), random_density(rng, 2)
        e = two_bit_pkl_example(sigma, rho, rho)
        success, d = post_leak_discrimination(e, LeakSpec((0,), (0,)))
        assert success == pytest.approx(0.5, abs=1e-9)
        assert d == pytest.approx(0.0, abs=1e-9)

    def test_mixed_preset_violation(self):
        sigma = validate_density(np.diag([1.0, 0.0]))
        rho1 = validate_density(np.diag([0.6, 0.4]))
        rho2 = validate_density(np.diag([0.1, 0.9]))
        e = two_bit_pkl_example(sigma, rho1, rho2)
        success, d = post_leak_discrimination(e, LeakSpec((0,), (0,)))
        assert success == pytest.approx(0.75, abs=1e-12)
        assert d == pytest.approx(0.25, abs=1e-12)
        assert success > 0.5 + d / 2

    def test_differences_off_their_adjoint_are_not_refused(self):
        # the last probe minus the average misses its adjoint by 1.35 TOL;
        # leaking a first bit of 1 leaves the +, - probes of keys 10 and 11
        e = gap_ensemble()
        rho0, rho1 = e.probe_stack[2:]
        vals = np.linalg.eigh(0.5 * rho1 - 0.5 * rho0)[0]
        success = 0.5 + math.fsum(float(v) for v in vals if v > 0.0)
        d = criterion_d_averaged(e)  # against the unchecked oracle in test_criteria
        assert bits(post_leak_discrimination(e, LeakSpec((0,), (1,)))) == bits([success, d])
        assert success > 0.5

    def test_non_binary_residual(self):
        rng = np.random.default_rng(13)
        e = random_ensemble(rng, 3, 2)
        with pytest.raises(BadParams, match="leak leaves 2 unknown bits; exactly 1 is required"):
            post_leak_discrimination(e, LeakSpec((0,), (0,)))


class TestJointDistribution:
    def test_rejects_bad_mass(self):
        with pytest.raises(BadParams):
            JointDistribution(("0",), ("x",), np.array([[0.5]]))

    @pytest.mark.parametrize("shape", [(2, 1), (1, 2), (2, 2, 1)])
    def test_rejects_mass_shape_unlike_the_labels(self, shape):
        mass = np.full(shape, 1.0 / math.prod(shape))
        with pytest.raises(BadParams, match="does not match the labels"):
            JointDistribution(("0", "1"), ("x", "y"), mass)

    @pytest.mark.parametrize("cell", [(0, 0), (1, 1)])
    def test_rejects_nan_cell(self, cell):
        mass = np.array([[0.5, 0.0], [0.25, 0.25]])
        mass[cell] = np.nan
        with pytest.raises(BadParams, match="^masses sum to nan, off unit by nan$"):
            JointDistribution(("0", "1"), ("x", "y"), mass)

    @pytest.mark.parametrize(
        "mass,message",
        [
            ([["1"], ["0"]], "'1'"),
            ([[b"1"], [b"0"]], "b'1'"),
            (np.array([[True], [False]]), "True"),
            (np.array([[False], [True]]), "False"),
            ([[1.0], [None]], "None"),
            ([[0.5], [0.5j]], r"\(0\.5\+0j\)"),
        ],
        ids=["str", "bytes", "bool-array", "bool-array-false-first", "none", "complex"],
    )
    def test_refuses_masses_that_are_not_numbers(self, mass, message):
        with pytest.raises(BadParams, match=f"^probability mass {message} is not a number$"):
            JointDistribution(("0", "1"), ("x",), mass)

    def test_object_masses_of_real_numbers_are_read_as_floats(self):
        joint = JointDistribution(("0", "1"), ("x", "y"), [[Fraction(1, 2), 0], [0.25, Fraction(1, 4)]])
        assert joint.mass.dtype == np.float64 and joint.mass.shape == (2, 2)
        assert joint.mass.tolist() == [[0.5, 0.0], [0.25, 0.25]]
        assert not joint.mass.flags.writeable

    @pytest.mark.parametrize("rows,cols", [(("0", "0"), ("x", "y")), (("0", "1"), ("x", "x"))])
    def test_rejects_duplicate_labels(self, rows, cols):
        with pytest.raises(BadParams, match="^labels must be unique$"):
            JointDistribution(rows, cols, np.full((2, 2), 0.25))
