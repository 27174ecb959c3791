import math
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
from tracecrit.errors import TOL, BadParams

from helpers import (
    bits,
    coupling_cell,
    dense_maximal_coupling,
    independent_mismatch_loop,
    mass,
    masses,
    maximal_mismatch_loop,
    probdist_loop,
    random_probdist,
    variational_distance_loop,
)


class TestMaximalCoupling:
    def test_identical_marginals_identity_coupling(self):
        p = ProbDist(("a", "b", "c"), (0.2, 0.3, 0.5))
        c = maximal_coupling(p, p)
        assert mismatch_probability(c) == pytest.approx(0.0, abs=1e-15)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert coupling_cell(c, i, j) == 0

    def test_hand_construction(self):
        p = ProbDist(("x", "y"), (0.7, 0.3))
        q = ProbDist(("x", "y"), (0.4, 0.6))
        c = maximal_coupling(p, q)
        assert mismatch_probability(c) == pytest.approx(0.3, abs=1e-12)
        # overlap 0.4 + 0.3; residual 0.3 concentrated on (x, y)
        assert coupling_cell(c, 0, 1) == pytest.approx(0.3, abs=1e-12)

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
    rows = dense_maximal_coupling(p, q)
    assert c.joint is None
    # the mismatch is exact only when both marginals are
    matches = [rows[i][i] for i in range(len(rows))]
    if p.denominator is not None and q.denominator is not None:
        want = 1 - sum(matches, Fraction(0))
    else:
        want = 1.0 - math.fsum(float(v) for v in matches)
    got = mismatch_probability(c)
    assert (type(got), got) == (type(want), want)
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            assert coupling_cell(c, i, j) == cell


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
        # equal masses: every residual is zero; exact P beside float Q makes a float coupling
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
        p = ProbDist(("a", "b"), (half, half))
        q = ProbDist(("a", "b"), (quarter, 3 * quarter))
        c = maximal_coupling(p, q)
        # numerators over the common denominator 4: residuals 1/4, 0 and 0, 1/4
        assert c.denominator == 4
        assert (c.res_p.tolist(), c.res_q.tolist(), c.leftover) == ([1, 0], [0, 1], 1)
        with pytest.raises(TypeError):
            Coupling(p.labels, c.p, c.q, 4, c.diagonal, res_p=c.res_p)

    def test_residual_totals_within_the_mass_tolerance(self):
        # P sums to 1 + 5e-10, inside TOL, so the residual totals differ by that much
        p = ProbDist(("a", "b"), (0.5 + 5e-10, 0.5))
        q = ProbDist(("a", "b"), (0.25, 0.75))
        got = mismatch_probability(maximal_coupling(p, q))
        assert abs(got - variational_distance(p, q)) <= 2 * TOL


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


# -- array kernels against the tuple-of-scalars oracles ------------------

KINDS = ("exact", "float", "mixed")


def random_masses(rng, n: int, kind: str) -> tuple:
    """n masses summing to one: Fractions, floats, or a mix of the two."""
    if kind == "float":
        w = rng.random(n) + 0.01
        return tuple((w / w.sum()).tolist())
    counts = rng.integers(0, 6, n)
    counts[0] += 1
    exact = tuple(Fraction(int(c), int(counts.sum())) for c in counts)
    if kind == "exact":
        return exact
    return tuple(v if rng.random() < 0.5 else float(v) for v in exact)


def assert_same_value(got, want):
    """Equal Fractions, or floats with the same bit pattern."""
    assert type(got) is type(want)
    if isinstance(want, Fraction):
        assert got == want
    else:
        assert bits(got) == bits(want)


def assert_matches_loop(labels, probs):
    """ProbDist validation against the one-mass-at-a-time loop."""
    try:
        want = probdist_loop(labels, probs)
    except BadParams:
        with pytest.raises(BadParams):
            ProbDist(labels, probs)
        return None
    p = ProbDist(labels, probs)
    assert p.labels == want[0]
    cleaned = want[1]
    exact = all(isinstance(v, (int, Fraction)) for v in cleaned)
    assert (p.denominator is not None) == exact
    assert bits(p.as_array()) == bits([float(v) for v in cleaned])
    if exact:
        assert p.probs.dtype == object
        assert masses(p) == cleaned
        assert all(type(v) is Fraction for v in masses(p))
    else:
        assert p.probs.dtype == np.float64
    return p


class TestArrayKernelsAgainstScalarLoops:
    """ProbDist validation, variational distance and both mismatch
    probabilities against the tuple-of-scalars loops in helpers."""

    def test_validation(self):
        rng = np.random.default_rng(30)
        labels = tuple(f"x{i}" for i in range(9))
        for _ in range(40):
            for kind in KINDS:
                probs = random_masses(rng, len(labels), kind)
                assert_matches_loop(labels, probs)
                assert_matches_loop(labels, tuple(2 * v for v in probs))  # bad total

    @pytest.mark.parametrize("tiny", [-1e-13, Fraction(-1, 10**13), -1e-6, Fraction(-1, 10**6)])
    def test_negative_clamp(self, tiny):
        rng = np.random.default_rng(31)
        for kind in KINDS:
            probs = random_masses(rng, 5, kind)
            p = assert_matches_loop(tuple("abcdef"), (*probs, tiny))
            if abs(tiny) < 1e-12:
                assert mass(p, "f") == 0
            else:
                assert p is None

    def test_denominator_above_2_64(self):
        tiny = Fraction(1, 3**50)
        p = assert_matches_loop(("a", "b", "c"), (tiny, tiny, 1 - 2 * tiny))
        assert p.denominator == 3**50 > 2**64
        q = ProbDist(("c", "a", "b"), (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
        for got, want in [
            (variational_distance(p, q), variational_distance_loop(p, q)),
            (mismatch_probability(independent_coupling(p, q)), independent_mismatch_loop(p, q)),
            (mismatch_probability(maximal_coupling(p, q)), maximal_mismatch_loop(p, q)),
        ]:
            assert_same_value(got, want)

    @pytest.mark.parametrize("kind_p", KINDS)
    @pytest.mark.parametrize("kind_q", KINDS)
    def test_kernels_on_shuffled_labels(self, kind_p, kind_q):
        rng = np.random.default_rng([32, KINDS.index(kind_p), KINDS.index(kind_q)])
        labels = tuple(f"x{i}" for i in range(8))
        for _ in range(15):
            p = ProbDist(labels, random_masses(rng, 8, kind_p))
            perm = rng.permutation(8)
            q = ProbDist(tuple(labels[k] for k in perm), random_masses(rng, 8, kind_q))
            for a, b in ((p, q), (q, p), (p, p)):
                assert_same_value(variational_distance(a, b), variational_distance_loop(a, b))
                assert_same_value(
                    mismatch_probability(independent_coupling(a, b)), independent_mismatch_loop(a, b)
                )
                assert_same_value(
                    mismatch_probability(maximal_coupling(a, b)), maximal_mismatch_loop(a, b)
                )

    @pytest.mark.parametrize("kind_p", KINDS)
    @pytest.mark.parametrize("kind_q", KINDS)
    def test_kernels_on_partial_labels(self, kind_p, kind_q):
        rng = np.random.default_rng([33, KINDS.index(kind_p), KINDS.index(kind_q)])
        universe = tuple(f"x{i}" for i in range(10))
        for _ in range(15):
            a = tuple(universe[k] for k in rng.permutation(10)[: rng.integers(1, 10)])
            b = tuple(universe[k] for k in rng.permutation(10)[: rng.integers(1, 10)])
            b = b if a[0] in b else (a[0], *b)  # disjoint sets: see test_disjoint_labels
            p = ProbDist(a, random_masses(rng, len(a), kind_p))
            q = ProbDist(b, random_masses(rng, len(b), kind_q))
            assert_same_value(variational_distance(p, q), variational_distance_loop(p, q))
            assert_same_value(
                mismatch_probability(independent_coupling(p, q)), independent_mismatch_loop(p, q)
            )
            if set(a) != set(b):
                with pytest.raises(BadParams, match="one label universe"):
                    maximal_coupling(p, q)

    def test_disjoint_labels(self):
        # nothing matches; the result is exact only when both marginals are
        exact = ProbDist.uniform(("a", "b"))
        floats = ProbDist(("c", "d"), (0.5, 0.5))
        other = ProbDist.uniform(("c", "d"))
        assert_same_value(mismatch_probability(independent_coupling(exact, other)), Fraction(1))
        assert_same_value(mismatch_probability(independent_coupling(exact, floats)), 1.0)
        assert_same_value(variational_distance(exact, floats), 1.0)

    THREE, FIVE = ProbDist.uniform(range(3)), ProbDist.uniform(range(5))
    FOUR = ProbDist(("2", "x", "0", "y"), (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)))

    @pytest.mark.parametrize(
        "p, q, delta, mismatch, joined",
        [
            (THREE, FOUR, Fraction(13, 24), Fraction(19, 24), ("0", "1", "2", "x", "y")),
            (FOUR, THREE, Fraction(13, 24), Fraction(19, 24), ("2", "x", "0", "y", "1")),
            (THREE, FIVE, Fraction(2, 5), Fraction(4, 5), ("0", "1", "2", "3", "4")),
            (FIVE, THREE, Fraction(2, 5), Fraction(4, 5), ("0", "1", "2", "3", "4")),
            (THREE, THREE, Fraction(0), Fraction(2, 3), ("0", "1", "2")),
        ],
        ids=["3-4", "4-3", "3-5", "5-3", "3-3"],
    )
    def test_range_labels_join_as_their_strings(self, p, q, delta, mismatch, joined):
        """The outer join of range-labelled distributions reads as the join of
        the same distributions with their labels spelled out."""

        def spelled(d):
            return ProbDist(tuple(map(str, d.labels)), [Fraction(int(v), d.denominator) for v in d.probs])

        for a, b in ((p, q), (spelled(p), spelled(q))):
            assert_same_value(variational_distance(a, b), delta)
            c = independent_coupling(a, b)
            assert c.row_labels == joined and joined == c.row_labels
            assert_same_value(mismatch_probability(c), mismatch)
            if len(joined) != len(a.labels) or len(joined) != len(b.labels):
                with pytest.raises(BadParams, match="^coupled distributions must share one label universe$"):
                    maximal_coupling(a, b)
            else:
                assert_same_value(mismatch_probability(maximal_coupling(a, b)), delta)
