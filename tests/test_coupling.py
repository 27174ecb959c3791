from fractions import Fraction

import numpy as np
import pytest

from tracecrit import (
    Coupling,
    ProbDist,
    independent_coupling,
    maximal_coupling,
    mismatch_probability,
    variational_distance,
)
from tracecrit.errors import BadParams

from helpers import dense_maximal_coupling, random_probdist


class TestMaximalCoupling:
    def test_identical_marginals_identity_coupling(self):
        p = ProbDist(("a", "b", "c"), (0.2, 0.3, 0.5))
        c = maximal_coupling(p, p)
        assert mismatch_probability(c) == pytest.approx(0.0, abs=1e-15)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert c.mass(i, j) == 0

    def test_hand_construction(self):
        p = ProbDist(("x", "y"), (0.7, 0.3))
        q = ProbDist(("x", "y"), (0.4, 0.6))
        c = maximal_coupling(p, q)
        assert mismatch_probability(c) == pytest.approx(0.3, abs=1e-12)
        # overlap 0.4 + 0.3; residual 0.3 concentrated on (x, y)
        assert c.mass(0, 1) == pytest.approx(0.3, abs=1e-12)

    def test_disjoint_supports(self):
        p = ProbDist(("a", "b"), (1.0, 0.0))
        q = ProbDist(("a", "b"), (0.0, 1.0))
        assert mismatch_probability(maximal_coupling(p, q)) == pytest.approx(1.0, abs=1e-12)

    def test_attains_distance_on_random_pairs(self):
        rng = np.random.default_rng(0)
        labels = tuple(f"x{i}" for i in range(12))
        for _ in range(50):
            p = random_probdist(rng, labels)
            q = random_probdist(rng, labels)
            c = maximal_coupling(p, q)
            delta = float(variational_distance(p, q))
            assert abs(float(mismatch_probability(c)) - delta) <= 1e-12

    def test_exact_with_fractions(self):
        p = ProbDist(("a", "b"), (Fraction(3, 4), Fraction(1, 4)))
        q = ProbDist(("a", "b"), (Fraction(1, 4), Fraction(3, 4)))
        c = maximal_coupling(p, q)
        assert mismatch_probability(c) == Fraction(1, 2)
        assert variational_distance(p, q) == Fraction(1, 2)

    def test_requires_shared_universe(self):
        p = ProbDist(("a",), (1.0,))
        q = ProbDist(("b",), (1.0,))
        with pytest.raises(BadParams):
            maximal_coupling(p, q)

    def test_label_order_does_not_matter(self):
        p = ProbDist(("a", "b"), (0.7, 0.3))
        q = ProbDist(("b", "a"), (0.6, 0.4))
        c = maximal_coupling(p, q)
        assert float(mismatch_probability(c)) == pytest.approx(0.3, abs=1e-12)


def assert_matches_dense(p, q):
    c = maximal_coupling(p, q)
    d = dense_maximal_coupling(p, q)
    assert c.joint is None
    got, want = mismatch_probability(c), mismatch_probability(d)
    assert (type(got), got) == (type(want), want)
    n = len(p.labels)
    for i in range(n):
        for j in range(n):
            assert c.mass(i, j) == d.mass(i, j)


class TestFactoredMaximalCoupling:
    """The factored maximal coupling against the dense cell-by-cell build."""

    def test_random_float_pairs(self):
        rng = np.random.default_rng(20)
        labels = tuple(f"x{i}" for i in range(10))
        for _ in range(20):
            assert_matches_dense(random_probdist(rng, labels), random_probdist(rng, labels))

    def test_fraction_pairs(self):
        rng = np.random.default_rng(21)
        labels = tuple(f"x{i}" for i in range(7))
        for _ in range(20):
            a, b = rng.integers(0, 6, 7) + 1, rng.integers(0, 6, 7)
            b[0] += 1
            p = ProbDist(labels, tuple(Fraction(int(v), int(a.sum())) for v in a))
            q = ProbDist(labels, tuple(Fraction(int(v), int(b.sum())) for v in b))
            assert_matches_dense(p, q)

    def test_disjoint_supports(self):
        labels = ("a", "b", "c")
        assert_matches_dense(ProbDist(labels, (0.5, 0.5, 0.0)), ProbDist(labels, (0.0, 0.0, 1.0)))
        half, zero = Fraction(1, 2), Fraction(0)
        assert_matches_dense(
            ProbDist(labels, (half, half, zero)), ProbDist(labels, (zero, zero, Fraction(1)))
        )

    def test_exact_against_float_masses(self):
        # equal masses: every residual is zero, so the diagonal keeps P's Fractions
        p = ProbDist.uniform(("a", "b", "c", "d"))
        assert_matches_dense(p, ProbDist(p.labels, (0.25,) * 4))

    def test_label_permuted_q(self):
        rng = np.random.default_rng(22)
        labels = tuple(f"x{i}" for i in range(8))
        for _ in range(20):
            p = random_probdist(rng, labels)
            q = random_probdist(rng, labels)
            perm = rng.permutation(len(labels))
            shuffled = ProbDist(tuple(labels[k] for k in perm), tuple(q.probs[k] for k in perm))
            assert_matches_dense(p, shuffled)

    def test_derives_factors_from_the_diagonal(self):
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        p, q = (half, half), (quarter, 3 * quarter)
        c = Coupling(("a", "b"), ("a", "b"), p, q, diagonal=(quarter, half))
        assert (c.res_p, c.res_q, c.leftover) == ((quarter, 0), (0, quarter), quarter)
        with pytest.raises(TypeError):
            Coupling(("a",), ("a",), (1.0,), (1.0,), diagonal=(1.0,), res_p=(0.0,))

    def test_rejects_factors_with_wrong_marginals(self):
        # a diagonal above the second marginal
        with pytest.raises(BadParams, match="within both marginals"):
            Coupling(("a", "b"), ("a", "b"), (0.5, 0.5), (0.25, 0.75), diagonal=(0.5, 0.25))
        # residual totals 0.5 and 0.0 cannot be coupled
        with pytest.raises(BadParams, match="different totals"):
            Coupling(("a", "b"), ("a", "b"), (0.5, 0.5), (0.25, 0.25), diagonal=(0.25, 0.25))

    def test_rejects_incomplete_factors(self):
        with pytest.raises(BadParams, match="square factors"):
            Coupling(("a", "b"), ("a", "b"), (0.5, 0.5), (0.5, 0.5), diagonal=(0.5,))

    def test_rejects_negative_factors(self):
        with pytest.raises(BadParams, match="within both marginals"):
            Coupling(("a", "b"), ("a", "b"), (0.6, 0.4), (0.4, 0.6), diagonal=(-0.1, 0.4))


class TestIndependentCoupling:
    def test_uniform_four(self):
        p = ProbDist.uniform(tuple("abcd"))
        c = independent_coupling(p, p)
        assert mismatch_probability(c) == Fraction(3, 4)

    def test_uniform_256(self):
        labels = tuple(str(i) for i in range(256))
        p = ProbDist.uniform(labels)
        assert mismatch_probability(independent_coupling(p, p)) == 1 - Fraction(1, 256)

    def test_point_masses_at_same_atom(self):
        p = ProbDist(("a", "b"), (1.0, 0.0))
        assert mismatch_probability(independent_coupling(p, p)) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_mismatch_never_below_distance(self):
        rng = np.random.default_rng(1)
        labels = tuple(f"x{i}" for i in range(8))
        for _ in range(50):
            p = random_probdist(rng, labels)
            q = random_probdist(rng, labels)
            delta = float(variational_distance(p, q))
            assert float(mismatch_probability(independent_coupling(p, q))) >= delta - 1e-12


class TestCouplingValidation:
    def test_random_mixtures_are_valid_couplings(self):
        # convex mixtures of two couplings couple the same marginals
        rng = np.random.default_rng(2)
        labels = tuple(f"x{i}" for i in range(6))
        for _ in range(25):
            p = random_probdist(rng, labels)
            q = random_probdist(rng, labels)
            lam = float(rng.random())
            cm = maximal_coupling(p, q)
            ci = independent_coupling(p, q)
            n = len(labels)
            mixed_rows = tuple(
                tuple(
                    lam * float(cm.mass(i, j)) + (1 - lam) * float(ci.mass(i, j))
                    for j in range(n)
                )
                for i in range(n)
            )
            mixed = Coupling(p.labels, p.labels, p.probs, cm.q, mixed_rows)
            delta = float(variational_distance(p, q))
            assert float(mismatch_probability(mixed)) >= delta - 1e-12

    def test_rejects_wrong_marginals(self):
        with pytest.raises(BadParams):
            Coupling(
                ("a", "b"),
                ("a", "b"),
                (0.5, 0.5),
                (0.5, 0.5),
                ((0.5, 0.0), (0.25, 0.25)),
            )

    def test_rejects_negative_mass(self):
        with pytest.raises(BadParams):
            Coupling(
                ("a", "b"),
                ("a", "b"),
                (0.5, 0.5),
                (0.5, 0.5),
                ((0.6, -0.1), (0.0, 0.5)),
            )
