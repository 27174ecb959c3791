import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracecrit import (
    CqEnsemble,
    CriterionReport,
    JointDistribution,
    LeakSpec,
    Povm,
    ProbDist,
    SpikedDist,
    classical_dbar,
    criterion_d_averaged,
    criterion_d_entangled,
    criterion_report,
    delta_E_variants,
    event_deviation_bound,
    measure_ensemble,
    pairwise_distance_bound,
    pgm,
    two_bit_pkl_example,
    validate_density,
    variational_distance,
)
from tracecrit import criteria
from tracecrit.criteria import _outcome_mass
from tracecrit.ensembles import _BIT_STRINGS, bit_strings
from tracecrit.errors import TOL, BadParams, NonUniformPrior, TooLarge

from helpers import (
    CountingNumpy,
    bits,
    classical_dbar_loop,
    condition_on_leak,
    condition_on_leak_loop,
    criterion_d_averaged_loop,
    criterion_d_entangled_loop,
    d_k_per_key_loop,
    decomposition_fallacy_check,
    event_deviation_loop,
    gap_ensemble,
    gap_qubit,
    outcome_mass_loop,
    pairwise_bound_loop,
    probe,
    random_density,
    random_ensemble,
    random_povm,
    random_probdist,
    random_unitary,
    single_bit_pure_example,
    spiked_dense,
    success_probability_loop,
    trace_norm_loop,
    unchecked_norm,
    variants_from_mass_loop,
)


def mixed_family():
    sigma = validate_density(np.diag([1.0, 0.0]))
    rho1 = validate_density(np.diag([0.6, 0.4]))
    rho2 = validate_density(np.diag([0.1, 0.9]))
    return two_bit_pkl_example(sigma, rho1, rho2)


def family_measurement():
    from tracecrit.two_bit import TWO_BIT_PRESETS, _family_measurement, parse_qubit

    spec = TWO_BIT_PRESETS["two-bit-mixed"]
    return _family_measurement(*(parse_qubit(spec[k]) for k in ("sigma", "rho1", "rho2")))


class TestVariationalDistance:
    def test_identical(self):
        p = ProbDist(("a", "b"), (0.5, 0.5))
        assert variational_distance(p, p) == 0

    def test_disjoint_supports(self):
        p = ProbDist(("a",), (1.0,))
        q = ProbDist(("b",), (1.0,))
        assert variational_distance(p, q) == 1

    def test_hand_sum(self):
        p = ProbDist(("x", "y"), (0.7, 0.3))
        q = ProbDist(("x", "y"), (0.4, 0.6))
        assert variational_distance(p, q) == pytest.approx(0.3, abs=1e-12)

    def test_exact_for_fractions(self):
        p = ProbDist.uniform(("a", "b", "c", "d"))
        q = ProbDist(("a", "b", "c", "d"), (Fraction(1, 2), Fraction(1, 2), 0, 0))
        assert variational_distance(p, q) == Fraction(1, 2)


class TestCriterionForms:
    def test_single_bit_quarter_norm(self):
        e = single_bit_pure_example(0.3)
        quarter = 0.25 * trace_norm_loop(probe(e, "0").matrix - probe(e, "1").matrix)
        assert criterion_d_averaged(e) == pytest.approx(quarter, abs=1e-12)

    def test_equal_probes_zero(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 3)
        e = CqEnsemble(1, ProbDist.uniform(bit_strings(1)), {"0": rho, "1": rho})
        assert criterion_d_averaged(e) == pytest.approx(0.0, abs=1e-9)
        assert criterion_d_entangled(e) == pytest.approx(0.0, abs=1e-9)

    def test_forms_agree_on_random_ensembles(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            e = random_ensemble(rng, int(rng.integers(1, 4)), int(rng.integers(2, 5)))
            assert abs(criterion_d_entangled(e) - criterion_d_averaged(e)) <= 1e-9

    def test_forms_agree_after_conditioning(self):
        from tracecrit import LeakSpec

        rng = np.random.default_rng(2)
        e = condition_on_leak(random_ensemble(rng, 3, 2), LeakSpec((1,), (0,)))
        assert abs(criterion_d_entangled(e) - criterion_d_averaged(e)) <= 1e-9

    def test_two_bit_orthogonal_entangled(self):
        sigma = validate_density(np.diag([1.0, 0.0]))
        rho1 = validate_density(np.diag([1.0, 0.0]))
        rho2 = validate_density(np.diag([0.0, 1.0]))
        e = two_bit_pkl_example(sigma, rho1, rho2)
        assert criterion_d_entangled(e) == pytest.approx(0.5, abs=1e-12)

    def test_entangled_size_cap(self):
        rng = np.random.default_rng(3)
        e = random_ensemble(rng, 3, 64)
        with pytest.raises(TooLarge):
            criterion_d_entangled(e)

    @pytest.mark.parametrize("n, dim", [(4, 16), (6, 4)])
    def test_entangled_holds_one_joint_matrix(self, n, dim):
        # numpy's buffers are traced, LAPACK's internal copy is not; joint
        # and product arrays, a difference and a check would each add 1 MiB
        e = random_ensemble(np.random.default_rng(n), n, dim)
        one_matrix = 256 * 256 * np.dtype(complex).itemsize
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            criterion_d_entangled(e)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 1.5 * one_matrix


class TestPerKeyDistances:
    def test_identical_probes_all_zero(self):
        rng = np.random.default_rng(4)
        rho = random_density(rng, 2)
        e = CqEnsemble(1, ProbDist.uniform(bit_strings(1)), {"0": rho, "1": rho})
        assert all(v == pytest.approx(0.0, abs=1e-9) for v in criterion_report(e, 0.0).d_k.values())

    def test_orthogonal_single_bit_unhalved(self):
        # || pure - I/2 ||_1 = 1 for each key
        e = single_bit_pure_example(0.0)
        dk = criterion_report(e, 0.0).d_k
        assert dk["0"] == pytest.approx(1.0, abs=1e-12)
        assert dk["1"] == pytest.approx(1.0, abs=1e-12)

    def test_max_dominates_average(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            e = random_ensemble(rng, 2, 3)
            assert max(criterion_report(e, 0.0).d_k.values()) / 2 >= criterion_d_averaged(e) - 1e-12

    def test_report_fields(self):
        e = single_bit_pure_example(0.6)
        report = criterion_report(e, epsilon=2**-16)
        assert report.d_averaged == pytest.approx(0.4, abs=1e-12)
        assert report.d_entangled == pytest.approx(report.d_averaged, abs=1e-9)
        assert report.d_k == d_k_per_key_loop(e)
        assert report.d_max == max(report.d_k.values()) / 2
        assert report.d_max >= report.d_averaged - 1e-12
        assert report.epsilon_label == 2**-16

    @pytest.mark.parametrize(
        "values,message",
        [
            ((0.3, 0.2, 0.4), "disagree by 1.000e-01"),
            ((0.2, 0.2, 0.1), "fell below the average"),
        ],
    )
    def test_report_refuses_inconsistent_values(self, values, message):
        d_entangled, d_averaged, d_max = values
        with pytest.raises(BadParams, match=message):
            CriterionReport(d_entangled, d_averaged, {}, d_max, 0.0)


class TestPairwiseBound:
    def test_theorem_holds_with_per_key_eps(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            e = random_ensemble(rng, 2, 3)
            eps = max(criterion_report(e, 0.0).d_k.values())
            assert pairwise_distance_bound(e, eps).holds

    def test_identical_probes_zero(self):
        rng = np.random.default_rng(7)
        rho = random_density(rng, 2)
        e = CqEnsemble(1, ProbDist.uniform(bit_strings(1)), {"0": rho, "1": rho})
        out = pairwise_distance_bound(e, 0.0)
        assert out.holds and out.worst_value == pytest.approx(0.0, abs=1e-9)

    def test_two_bit_orthogonal_worst_pair(self):
        sigma = validate_density(np.diag([1.0, 0.0]))
        rho1 = validate_density(np.diag([1.0, 0.0]))
        rho2 = validate_density(np.diag([0.0, 1.0]))
        out = pairwise_distance_bound(two_bit_pkl_example(sigma, rho1, rho2), 1.0)
        assert out.worst_pair == ("00", "01")
        assert out.worst_value == pytest.approx(2.0, abs=1e-12)


def _uniform_ensemble(probes) -> CqEnsemble:
    n = (len(probes) - 1).bit_length()
    keys = bit_strings(n)
    return CqEnsemble(n, ProbDist.uniform(keys), dict(zip(keys, probes)))


def assert_screen_exact(e: CqEnsemble):
    """The screened bound equals the per-pair loop bit for bit, and every
    pair's Gram bound is at least its computed norm."""
    out = pairwise_distance_bound(e, 0.1)
    pair, value = pairwise_bound_loop(e)
    assert (out.worst_pair, bits(out.worst_value)) == (pair, bits(value))
    assert out.holds == (value <= 0.2 + TOL)
    first, second = np.triu_indices(len(e.keys), 1)
    stack = e.probe_stack
    bounds = criteria._pair_norm_bounds(stack, first, second)
    norms = [trace_norm_loop(stack[a] - stack[b]) for a, b in zip(first, second)]
    assert np.all(bounds >= norms)


def _near_tolerance_probe(rng, dim: int, kind: str) -> np.ndarray:
    """A probe that passes the entry check within 0.9 TOL of failing it."""
    vals = rng.random(dim)
    vals /= vals.sum()
    if kind == "lowest":  # one eigenvalue -0.9 TOL, trace still 1
        vals[0] = -0.9 * TOL
        vals[1:] *= (1.0 - vals[0]) / vals[1:].sum()
    u = random_unitary(rng, dim)
    m = (u * vals) @ u.conj().T
    if kind == "trace+":
        m *= 1.0 + 0.9 * TOL
    elif kind == "trace-":
        m *= 1.0 - 0.9 * TOL
    elif kind == "gap":  # one upper entry off its adjoint by 0.9 TOL
        m[0, -1] += 0.9 * TOL
    return m


class TestPairwiseScreen:
    """The Gram-screened pairwise bound against the one-eigensolve-per-pair
    loop, bit for bit, on inputs that tie, prune nothing or sit at the edge
    of the entry check."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 5),
        dim=st.integers(2, 8),
        uniform=st.booleans(),
        pure=st.booleans(),
    )
    def test_drawn_ensembles(self, seed, n, dim, uniform, pure):
        rng = np.random.default_rng(seed)
        keys = bit_strings(n)
        prior = ProbDist.uniform(keys) if uniform else random_probdist(rng, keys)
        ranks = [1 if pure else int(rng.integers(1, dim + 1)) for _ in keys]
        probes = {k: random_density(rng, dim, r) for k, r in zip(keys, ranks)}
        assert_screen_exact(CqEnsemble(n, prior, probes))

    def test_ties(self):
        rng = np.random.default_rng(31)
        a, b = random_density(rng, 3, 2), random_density(rng, 3)
        orthogonal = [np.diag(row) for row in np.eye(8)]
        u = random_unitary(rng, 4)
        rotated = [np.outer(u[:, i], u[:, i].conj()) for i in range(4)]
        for probes in (
            [a, b] * 4,  # repeated probes
            [a] * 4 + [b] * 4,
            orthogonal,  # every pair at norm 2
            rotated,
            [a] * 8,  # identical probes: every norm 0
            [np.eye(5) / 5] * 4,  # maximally mixed
            [a],  # one key, no pairs
        ):
            assert_screen_exact(_uniform_ensemble(probes))

    def test_dim_16_with_16_keys(self):
        rng = np.random.default_rng(32)
        for ranks in ([16] * 16, [int(r) for r in rng.integers(1, 17, 16)], [1] * 16):
            assert_screen_exact(_uniform_ensemble([random_density(rng, 16, r) for r in ranks]))

    @pytest.mark.parametrize("kind", ["lowest", "trace+", "trace-", "gap"])
    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_near_tolerance_probes(self, kind, dim):
        rng = np.random.default_rng([dim, 33])
        base = _near_tolerance_probe(rng, dim, kind)
        # near copies of one probe put the fidelity bound at its root, where
        # the slack matters most
        tweaks = [_near_tolerance_probe(rng, dim, kind) * 1e-6 for _ in range(7)]
        probes = [base] + [(1.0 - 1e-6) * base + t for t in tweaks]
        assert_screen_exact(_uniform_ensemble([validate_density(m) for m in probes]))
        others = [_near_tolerance_probe(rng, dim, kind) for _ in range(8)]
        assert_screen_exact(_uniform_ensemble(others))

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_opposite_gap_probes(self, dim):
        # upper corners off their adjoint by +0.9 TOL and -0.9 TOL: a pair
        # difference misses its adjoint by 1.8 TOL and is eigensolved as it is
        rng = np.random.default_rng([dim, 34])
        probes = [_near_tolerance_probe(rng, dim, "gap") for _ in range(8)]
        for m in probes[1::2]:
            m[0, -1] -= 1.8 * TOL
        qubits = [gap_qubit(1).matrix, gap_qubit(-1).matrix]
        for e in (_uniform_ensemble([validate_density(m) for m in probes]), _uniform_ensemble(qubits)):
            first, second = np.triu_indices(len(e.keys), 1)
            stack = e.probe_stack
            norms = [unchecked_norm(stack[a] - stack[b]) for a, b in zip(first, second)]
            i = int(np.argmax(norms))
            out = pairwise_distance_bound(e, 0.1)
            assert out.worst_pair == (e.keys[first[i]], e.keys[second[i]])
            assert bits(out.worst_value) == bits(norms[i])
            assert np.all(criteria._pair_norm_bounds(stack, first, second) >= norms)

    def test_product_probes_off_unit_trace(self):
        # sigma (x) rho has trace 1 + 1.8e-9 when both factors are 1 + 0.9e-9
        big = 1.0000000009
        for s, r1, r2 in (
            ([big, 0.0], [big, 0.0], [0.0, 1.0]),
            ([big, 0.0], [0.0, big], [big, 0.0]),
            ([0.5, 0.5], [big, 0.0], [0.5, 0.5]),
        ):
            qubits = [validate_density(np.diag(v)) for v in (s, r1, r2)]
            assert_screen_exact(two_bit_pkl_example(*qubits))


class TestDerivedDifferences:
    """A difference of accepted probes may miss its adjoint by the sum of
    their slack.  It is eigensolved as it is, bit for bit like an unchecked
    eigensolve of the same difference, not refused (pairwise differences:
    `TestPairwiseScreen.test_opposite_gap_probes`)."""

    def test_averaged_and_report(self):
        e = gap_ensemble()  # the last probe minus the average misses by 1.35 TOL
        avg = e.average.matrix
        norms = [unchecked_norm(rho - avg) for rho in e.probe_stack]
        d = 0.5 * math.fsum(w * v for w, v in zip(e.weights.tolist(), norms))
        joint = np.zeros((8, 8), dtype=complex)
        for i, (w, rho) in enumerate(zip(e.weights.tolist(), e.probe_stack)):
            joint[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = w * rho - w * avg
        assert bits(criterion_d_averaged(e)) == bits(d)
        report = criterion_report(e, 0.1)
        assert bits(report.d_averaged) == bits(d)
        assert bits(report.d_entangled) == bits(0.5 * unchecked_norm(joint))
        assert bits(list(report.d_k.values())) == bits(norms)
        assert bits(report.d_max) == bits(max(norms) / 2.0)


class TestClassicalDbar:
    def test_independent_joint_is_zero(self):
        q = np.array([0.2, 0.5, 0.3])
        mass = np.outer(np.full(4, 0.25), q)
        joint = JointDistribution(bit_strings(2), ("x", "y", "z"), mass)
        assert classical_dbar(joint) == pytest.approx(0.0, abs=1e-12)

    def test_equals_average_conditional_distance(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            rows = 4
            cond = rng.random((rows, 5)) + 1e-6
            cond /= cond.sum(axis=1, keepdims=True)
            mass = cond / rows
            joint = JointDistribution(
                bit_strings(2), tuple(f"o{j}" for j in range(5)), mass
            )
            avg = mass.sum(axis=0)
            expected = np.mean(
                [0.5 * np.abs(cond[i] - avg).sum() for i in range(rows)]
            )
            assert classical_dbar(joint) == pytest.approx(expected, abs=1e-12)

    def test_equals_outcome_weighted_posterior_deviation(self):
        rng = np.random.default_rng(9)
        rows = 4
        cond = rng.random((rows, 3)) + 1e-6
        cond /= cond.sum(axis=1, keepdims=True)
        mass = cond / rows
        joint = JointDistribution(bit_strings(2), ("x", "y", "z"), mass)
        col = mass.sum(axis=0)
        regrouped = sum(
            col[j] * 0.5 * np.abs(mass[:, j] / col[j] - 1 / rows).sum()
            for j in range(3)
        )
        assert classical_dbar(joint) == pytest.approx(regrouped, abs=1e-12)

    def test_rejects_non_uniform_prior(self):
        mass = np.array([[0.7, 0.1], [0.1, 0.1]])
        joint = JointDistribution(("0", "1"), ("x", "y"), mass)
        with pytest.raises(NonUniformPrior):
            classical_dbar(joint)


class TestEventDeviationBound:
    def test_uniform_has_zero_deviation(self):
        p = ProbDist.uniform(bit_strings(4))
        dev, _ = event_deviation_bound(p, 2)
        assert dev == pytest.approx(0.0, abs=1e-15)

    def test_spiked_full_key_event(self):
        dev, (positions, pattern) = event_deviation_bound(SpikedDist(8, 3), 8)
        assert dev == Fraction(1, 8) - Fraction(1, 256)
        assert float(dev) == 0.12109375
        assert positions == tuple(range(8))
        assert pattern == "0" * 8

    def test_sparse_matches_dense_path(self):
        sparse = SpikedDist(8, 3)
        dense = spiked_dense(sparse)
        for m in range(1, 9):
            dev_sparse, _ = event_deviation_bound(sparse, m)
            dev_dense, _ = event_deviation_bound(dense, m)
            assert float(dev_sparse) == pytest.approx(dev_dense, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_sparse_routes_match_dense_path_everywhere(self, n):
        # every (l, m): the method and the public route agree exactly, and the
        # dense route over the expanded table agrees to its summation error
        # (a bin adds 2^(n-m) rounded masses) on the spike's all-zeros prefix
        for l in range(n + 1):
            sparse = SpikedDist(n, l)
            dense = spiked_dense(sparse)
            for m in range(1, n + 1):
                dev, event = sparse.event_deviation(m)
                assert event_deviation_bound(sparse, m) == (dev, event)
                assert event == (tuple(range(m)), "0" * m)
                dense_dev, (_, pattern) = event_deviation_bound(dense, m)
                assert abs(float(dev) - dense_dev) <= 2 ** (n - m + 1) * np.finfo(float).eps
                if dev and m > 1:  # at m = 1 the other pattern ties; at dev = 0 every pattern does
                    assert pattern == "0" * m
            for m in (0, n + 1):
                message = rf"must be in \[1, {n}\], got {m}$"
                with pytest.raises(BadParams, match=message):
                    sparse.event_deviation(m)
                with pytest.raises(BadParams, match=message):
                    event_deviation_bound(sparse, m)
                with pytest.raises(BadParams, match=message):
                    event_deviation_bound(dense, m)

    def test_bounded_by_variational_distance(self):
        rng = np.random.default_rng(10)
        labels = bit_strings(8)
        uniform = ProbDist.uniform(labels)
        for _ in range(15):
            p = random_probdist(rng, labels)
            m = int(rng.integers(1, 9))
            dev, _ = event_deviation_bound(p, m)
            assert dev <= float(variational_distance(p, uniform))

    def test_dense_cap(self):
        labels = bit_strings(18)
        p = ProbDist(labels, (1.0 / len(labels),) * len(labels))
        with pytest.raises(TooLarge):
            event_deviation_bound(p, 12)

    def test_bad_subsequence_length(self):
        with pytest.raises(BadParams):
            event_deviation_bound(SpikedDist(8, 3), 9)

    @pytest.mark.parametrize("m", [0, 7])
    def test_dense_subsequence_length_outside_range(self, m):
        with pytest.raises(BadParams, match=r"must be in \[1, 6\], got " + str(m)):
            event_deviation_bound(ProbDist.uniform(bit_strings(6)), m)

    def test_label_tuple_compared_by_value(self):
        rng = np.random.default_rng(11)
        w = rng.random(2**6)
        probs = tuple(w / w.sum())
        copy = tuple(format(i, "06b") for i in range(2**6))
        assert copy == bit_strings(6) and copy is not bit_strings(6)
        assert event_deviation_bound(ProbDist(copy, probs), 2) == event_deviation_bound(
            ProbDist(bit_strings(6), probs), 2
        )
        permuted = copy[1:] + copy[:1]
        with pytest.raises(BadParams, match="in order"):
            event_deviation_bound(ProbDist(permuted, probs), 2)

    def test_short_label_tuple_refused_before_building_keys(self):
        # one 19-bit label: refused on its count, no 2^19 keys memoized
        with pytest.raises(BadParams, match="in order"):
            event_deviation_bound(ProbDist(("0" * 19,), (1.0,)), 1)
        assert 19 not in _BIT_STRINGS

    @pytest.mark.parametrize("n", [*range(1, 13), 16])
    def test_screen_matches_loop(self, n):
        # random; uniform (every event ties); spiked and weight-symmetric
        # (every position set ties exactly, and only rounding tells them apart);
        # n = 16 is the benchmark's size, at its m and below
        labels = bit_strings(n)
        rng = np.random.default_rng(n)
        w = rng.random(2**n)
        by_weight = rng.random(n + 1)[np.bitwise_count(np.arange(2**n))]
        dists = (
            ProbDist(labels, tuple(w / w.sum())),
            ProbDist.uniform(labels),
            spiked_dense(SpikedDist(n, (n + 1) // 2)),
            ProbDist(labels, tuple(by_weight / by_weight.sum())),
        )
        for p in dists:
            for m in range(1, n + 1) if n <= 12 else (1, 2, 3):
                dev, event = event_deviation_bound(p, m)
                want_dev, want_event = event_deviation_loop(p, m)
                assert (dev.hex(), event) == (want_dev.hex(), want_event)

    @pytest.mark.parametrize("n", [5, 9])
    def test_screen_per_position_set(self, n):
        # every position set's screened deviation, against its own bincount
        rng = np.random.default_rng([n, 12])
        w = rng.random(2**n)
        probs = w / w.sum()
        keys = np.arange(2**n)
        for m in range(1, n + 1):
            combos = list(itertools.combinations(range(n), m))
            want = []
            for positions in combos:
                idx = sum(((keys >> (n - 1 - p)) & 1) << (m - 1 - t) for t, p in enumerate(positions))
                sums = np.bincount(idx, weights=probs, minlength=2**m)
                want.append(np.abs(sums - 2.0**-m).max())
            got = criteria._screened_event_devs(probs, n, m, combos)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def _walsh_definition(a: np.ndarray) -> np.ndarray:
    """sum_x a[..., x] (-1)^popcount(u & x) for every u, in int64, from the
    +-1 matrix in blocks of rows."""
    size = a.shape[-1]
    x = np.arange(size)
    out = np.empty(a.shape, dtype=np.int64)
    for start in range(0, size, 256):
        u = np.arange(start, min(start + 256, size))
        signs = 1 - 2 * (np.bitwise_count(u[:, None] & x) & 1).astype(np.int64)
        out[..., u] = a @ signs.T
    return out


class TestWalshHadamard:
    """The blocked transform against its +-1 definition, at every size from
    2^0 to 2^12, with and without a leading batch axis."""

    SHAPES = [shape for k in range(13) for shape in ((2**k,), (3, 2**k))]

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_exact_on_small_integers(self, shape):
        ints = np.random.default_rng(shape[-1]).integers(-8, 9, shape)
        a = ints.astype(float)
        got = criteria._walsh_hadamard(a)
        assert got.shape == shape
        np.testing.assert_array_equal(got, _walsh_definition(ints))
        np.testing.assert_array_equal(a, ints)  # input left as it was

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_random_floats_within_bound(self, shape):
        # 52-bit multiples of 2^-52 in [0, 1): the exact transform, scaled by
        # 2^52, is an integer, found from its two 26-bit halves in int64
        k = np.random.default_rng(shape[-1] + 1).integers(0, 2**52, shape)
        a = k * 2.0**-52
        got = criteria._walsh_hadamard(a)
        high, low = _walsh_definition(k >> 26), _walsh_definition(k & (2**26 - 1))
        exact = [h * 2**26 + l for h, l in zip(high.ravel().tolist(), low.ravel().tolist())]
        errors = [abs(int(g * 2.0**52) - e) for g, e in zip(got.ravel().tolist(), exact)]
        n = shape[-1].bit_length() - 1
        # first order in the unit roundoff 2^-53, with room for the second
        bound = 1.001 * criteria._walsh_additions(n) * 2.0**-53 * a.sum(axis=-1) * 2.0**52
        assert np.all(np.reshape(errors, shape) <= np.asarray(bound)[..., None])
        if n >= 6:
            assert max(errors) > 0  # the inputs do round

    def test_addition_counts(self):
        # 2^r - 1 per r-bit block, blocks of four bits and a smaller last one
        assert [criteria._walsh_additions(n) for n in range(10)] == [0, 1, 3, 7, 15, 16, 18, 22, 30, 31]


class TestDeltaEVariants:
    def test_mixed_family_values(self):
        e = mixed_family()
        povm = family_measurement()
        out = delta_E_variants(e, povm)
        assert out.max_posterior_dev == pytest.approx(5 / 14, abs=1e-12)
        assert out.avg_posterior_dev == pytest.approx(0.25, abs=1e-12)
        assert out.outcome_vs_uniform == pytest.approx(0.15, abs=1e-12)

    def test_avg_equals_dbar_of_induced_joint(self):
        e = mixed_family()
        povm = family_measurement()
        out = delta_E_variants(e, povm)
        joint = measure_ensemble(e, povm)
        assert out.avg_posterior_dev == pytest.approx(classical_dbar(joint), abs=1e-12)

    def test_rounding_below_zero_reads_as_zero_mass(self):
        # the first probe has eigenvalue -5e-10, inside the entry tolerance, on |1>
        prior = ProbDist.uniform(("0", "1"))
        e = CqEnsemble(1, prior, {"0": np.diag([1 + 5e-10, -5e-10]), "1": np.diag([0.0, 1.0])})
        povm = Povm((("0", np.diag([1.0, 0.0])), ("1", np.diag([0.0, 1.0]))))
        joint = measure_ensemble(e, povm)
        assert joint.mass[0, 1] == 0.0
        assert bits(_outcome_mass(e, povm)) == bits(joint.mass)
        assert bits(tuple(delta_E_variants(e, povm))) == bits(variants_from_mass_loop(joint.mass))

    def test_data_processing_for_averaged_reading(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            e = random_ensemble(rng, 2, 3)
            povm = random_povm(rng, 3, 4)
            out = delta_E_variants(e, povm)
            assert out.avg_posterior_dev <= criterion_d_averaged(e) + 1e-9

    def test_eigenbasis_measurement_achieves_d(self):
        # the product measurement with the difference eigenbasis on the
        # second qubit saturates the data-processing bound for this family
        from tracecrit import two_bit_pkl_example
        from tracecrit.two_bit import _family_measurement
        from helpers import random_density

        rng = np.random.default_rng(12)
        for _ in range(20):
            sigma, rho1, rho2 = (random_density(rng, 2) for _ in range(3))
            e = two_bit_pkl_example(sigma, rho1, rho2)
            povm = _family_measurement(sigma, rho1, rho2)
            dbar = classical_dbar(measure_ensemble(e, povm))
            assert dbar == pytest.approx(criterion_d_averaged(e), abs=1e-9)


class TestDecompositionFallacy:
    def test_identical_distributions(self):
        p = ProbDist(("a", "b"), (0.5, 0.5))
        assert decomposition_fallacy_check(p, p, 0.0)
        assert decomposition_fallacy_check(p, p, 0.3)

    def test_counterexample_from_feasibility(self):
        # requires p(a) >= 0.6 * 0.9 = 0.54 > 0.5, so no mixture form exists
        p = ProbDist(("a", "b"), (0.5, 0.5))
        q = ProbDist(("a", "b"), (0.9, 0.1))
        assert variational_distance(p, q) == pytest.approx(0.4, abs=1e-12)
        assert not decomposition_fallacy_check(p, q, 0.4)

    def test_disjoint_supports_at_full_weight(self):
        p = ProbDist(("a",), (1.0,))
        q = ProbDist(("b",), (1.0,))
        assert decomposition_fallacy_check(p, q, 1.0)

    def test_exact_distributions(self):
        half, tenth = Fraction(1, 2), Fraction(1, 10)
        p = ProbDist(("a", "b"), (half, half))
        q = ProbDist(("a", "b"), (9 * tenth, tenth))
        assert p.denominator is not None and q.denominator is not None
        assert not decomposition_fallacy_check(p, q, 0.4)
        assert decomposition_fallacy_check(p, p, 0.0)
        assert decomposition_fallacy_check(p, ProbDist(("a", "b"), (3 * tenth, 7 * tenth)), 0.5)


def stacked_case(dim: int, prior: str, seed: int = 0) -> CqEnsemble:
    """Seeded ensemble with a float, Fraction or uniform prior; 16 keys up
    to dim 4, 8 keys above."""
    rng = np.random.default_rng([dim, seed])
    n_bits = 4 if dim <= 4 else 3
    keys = bit_strings(n_bits)
    if prior == "float":
        dist = random_probdist(rng, keys)
    elif prior == "fraction":
        ints = [int(v) for v in rng.integers(1, 50, len(keys))]
        dist = ProbDist(keys, tuple(Fraction(v, sum(ints)) for v in ints))
    else:
        dist = ProbDist.uniform(keys)
    return CqEnsemble(n_bits, dist, {k: random_density(rng, dim) for k in keys})


DIMS = [1, 2, 3, 4, 8, 16]
PRIORS = ["float", "fraction", "uniform"]


class TestStackedKernels:
    """The batched kernels reproduce the per-key, per-pair and per-cell
    loops bit for bit."""

    @pytest.mark.parametrize("prior", PRIORS)
    @pytest.mark.parametrize("dim", DIMS)
    def test_criterion_and_per_key_norms(self, dim, prior):
        e = stacked_case(dim, prior)
        assert bits(criterion_d_averaged(e)) == bits(criterion_d_averaged_loop(e))
        got, want = criterion_report(e, 0.0).d_k, d_k_per_key_loop(e)
        assert list(got) == list(want)
        assert bits(list(got.values())) == bits(list(want.values()))

    @pytest.mark.parametrize("prior", PRIORS)
    @pytest.mark.parametrize("dim", DIMS)
    def test_pairwise_bound(self, dim, prior):
        e = stacked_case(dim, prior)
        out = pairwise_distance_bound(e, 0.1)
        pair, value = pairwise_bound_loop(e)
        assert out.worst_pair == pair
        assert bits(out.worst_value) == bits(value)

    @pytest.mark.parametrize("prior", PRIORS)
    @pytest.mark.parametrize("dim", DIMS)
    def test_outcome_mass_and_readings(self, dim, prior):
        e = stacked_case(dim, prior)
        povm = random_povm(np.random.default_rng(dim), dim, 5)
        mass = _outcome_mass(e, povm)
        assert bits(mass) == bits(outcome_mass_loop(e, povm))
        assert bits(measure_ensemble(e, povm).mass) == bits(mass)
        readings = tuple(delta_E_variants(e, povm))
        assert bits(readings) == bits(variants_from_mass_loop(mass))
        if prior == "uniform":
            joint = measure_ensemble(e, povm)
            assert bits(classical_dbar(joint)) == bits(classical_dbar_loop(joint.mass))

    @pytest.mark.parametrize("prior", PRIORS)
    @pytest.mark.parametrize("dim", DIMS)
    def test_entangled_criterion(self, dim, prior):
        e = stacked_case(dim, prior)
        assert bits(criterion_d_entangled(e)) == bits(criterion_d_entangled_loop(e))

    @pytest.mark.parametrize("prior", PRIORS)
    @pytest.mark.parametrize("dim", DIMS)
    def test_success_probability(self, dim, prior):
        # a guessing strategy's success is the sum of the guessed cells of the measured mass
        e = stacked_case(dim, prior)
        rng = np.random.default_rng([dim, 1])
        povm = random_povm(rng, dim, 5)
        mass = measure_ensemble(e, povm).mass
        keys = rng.choice(e.keys, size=5).tolist()
        keys[1] = keys[0]  # one key guessed on two outcomes
        for n_guessed in (5, 3, 0):  # every outcome, some, none
            guess = dict(zip(povm.labels[:n_guessed], keys))
            cells = mass[[e.keys.index(k) for k in guess.values()], list(range(n_guessed))]
            assert bits(math.fsum(cells.tolist())) == bits(success_probability_loop(e, povm, guess))

    @pytest.mark.parametrize("prior", PRIORS)
    @pytest.mark.parametrize("dim", DIMS)
    def test_condition_on_leak(self, dim, prior):
        e = stacked_case(dim, prior)
        n = e.n_bits
        for leak in (
            LeakSpec((), ()),
            LeakSpec((1,), (1,)),
            LeakSpec((0, n - 1), (1, 0)),
            LeakSpec(tuple(range(n)), (0, 1) * (n // 2) + (1,) * (n % 2)),
        ):
            got, want = condition_on_leak(e, leak), condition_on_leak_loop(e, leak)
            assert got.keys == want.keys
            assert got.prior.probs.tolist() == want.prior.probs.tolist()
            assert (got.prior.probs.dtype, got.prior.denominator) == (
                want.prior.probs.dtype,
                want.prior.denominator,
            )
            assert bits(got.probe_stack) == bits(want.probe_stack)
            assert bits(got.weights) == bits(want.weights)

    def test_tied_pairs_first_in_combinations_order_wins(self):
        rng = np.random.default_rng(21)
        a, b = random_density(rng, 3), random_density(rng, 3)
        keys = bit_strings(2)
        for probes, want in (((a, b, a, b), ("00", "01")), ((a, a, b, b), ("00", "10"))):
            e = CqEnsemble(2, ProbDist.uniform(keys), dict(zip(keys, probes)))
            out = pairwise_distance_bound(e, 0.1)
            assert out.worst_pair == want == pairwise_bound_loop(e)[0]
            assert bits(out.worst_value) == bits(pairwise_bound_loop(e)[1])

    def test_identical_probes_keep_the_default_pair(self):
        rho = random_density(np.random.default_rng(22), 2)
        keys = bit_strings(3)
        e = CqEnsemble(3, ProbDist.uniform(keys), {k: rho for k in keys})
        out = pairwise_distance_bound(e, 0.0)
        assert (out.worst_pair, out.worst_value, out.holds) == (("000", "000"), 0.0, True)

    def test_single_key_has_no_pairs(self):
        rho = random_density(np.random.default_rng(23), 2)
        e = CqEnsemble(0, ProbDist.uniform(("",)), {"": rho})
        out = pairwise_distance_bound(e, 0.0)
        assert (out.worst_pair, out.worst_value) == (("", ""), 0.0)

    @pytest.mark.parametrize("cells", [1, 7 * 9, 17 * 9])
    def test_chunk_boundaries(self, monkeypatch, cells):
        # dim 3, 16 keys, 120 pairs, 5 outcomes: blocks of 1, 7 and 17
        # pairs, and of 1, 1 and 3 keys; the last two sizes leave a
        # partial last block.
        # The last two keys carry orthogonal pure probes, so the worst pair
        # is the last one.
        rng = np.random.default_rng(5)
        keys = bit_strings(4)
        probes = {k: random_density(rng, 3) for k in keys}
        probes["1110"] = validate_density(np.diag([1.0, 0.0, 0.0]))
        probes["1111"] = validate_density(np.diag([0.0, 1.0, 0.0]))
        e = CqEnsemble(4, random_probdist(rng, keys), probes)
        povm = random_povm(rng, 3, 5)
        assert pairwise_bound_loop(e) == (("1110", "1111"), 2.0)
        monkeypatch.setattr(criteria, "_STACK_BATCH_CELLS", cells)
        out = pairwise_distance_bound(e, 0.1)
        assert (out.worst_pair, bits(out.worst_value)) == (
            pairwise_bound_loop(e)[0],
            bits(pairwise_bound_loop(e)[1]),
        )
        assert bits(_outcome_mass(e, povm)) == bits(outcome_mass_loop(e, povm))


PRIORS_SHARED = ["uniform", "fraction", "dirichlet"]


def shared_mass_case(n: int, dim: int, prior: str):
    """A builder of fresh, equal ensembles from one seeded set of inputs
    (n bits, probe dim, an exact-uniform, Fraction or Dirichlet prior), and
    the measurements to read on them: the PGM, a random POVM, a projective
    measurement built by hand and, at dim 4, the two-bit family's product
    measurement."""
    rng = np.random.default_rng([n, dim, PRIORS_SHARED.index(prior)])
    keys = bit_strings(n)
    if prior == "dirichlet":
        dist = ProbDist(keys, tuple(rng.dirichlet(np.ones(len(keys))).tolist()))
    elif prior == "fraction":
        ints = [int(v) for v in rng.integers(1, 50, len(keys))]
        dist = ProbDist(keys, tuple(Fraction(v, sum(ints)) for v in ints))
    else:
        dist = ProbDist.uniform(keys)
    probes = {k: random_density(rng, dim) for k in keys}

    def fresh():
        return CqEnsemble(n, dist, probes)

    basis = random_unitary(rng, dim)
    projective = Povm(tuple((f"b{i}", np.outer(basis[:, i], basis[:, i].conj())) for i in range(dim)))
    povms = [pgm(fresh()), random_povm(rng, dim, 3), projective]
    if dim == 4:
        from tracecrit.two_bit import _family_measurement

        povms.append(_family_measurement(*(random_density(rng, 2) for _ in range(3))))
    return fresh, povms


class TestOneOutcomeMass:
    """`measure_ensemble` and `delta_E_variants` read the same key x outcome
    mass, in any order, as often as asked and for any number of measurements
    on one ensemble: each result has the bits it has on a freshly built
    ensemble."""

    @staticmethod
    def fresh_values(fresh, povm):
        return bits(measure_ensemble(fresh(), povm).mass), bits(tuple(delta_E_variants(fresh(), povm)))

    @pytest.mark.parametrize("prior", PRIORS_SHARED)
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 8, 16])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_either_order_and_repeats_match_a_fresh_ensemble(self, n, dim, prior):
        fresh, povms = shared_mass_case(n, dim, prior)
        for povm in povms:
            mass, readings = self.fresh_values(fresh, povm)
            measured_first, variants_first = fresh(), fresh()
            for _ in range(3):
                assert bits(measure_ensemble(measured_first, povm).mass) == mass
                assert bits(tuple(delta_E_variants(measured_first, povm))) == readings
                assert bits(tuple(delta_E_variants(variants_first, povm))) == readings
                assert bits(measure_ensemble(variants_first, povm).mass) == mass

    @pytest.mark.parametrize("prior", PRIORS_SHARED)
    @pytest.mark.parametrize("n,dim", [(1, 2), (3, 4), (6, 4), (5, 8)])
    def test_each_measurement_gets_its_own_mass(self, n, dim, prior):
        """Several measurements on one ensemble, interleaved, and a twin of
        each built from the same elements."""
        fresh, povms = shared_mass_case(n, dim, prior)
        povms += [Povm(povm.elements) for povm in povms]
        want = [self.fresh_values(fresh, povm) for povm in povms]
        e = fresh()
        for _ in range(2):
            for povm, (mass, readings) in zip(povms, want):
                assert bits(measure_ensemble(e, povm).mass) == mass
                assert bits(tuple(delta_E_variants(e, povm))) == readings
        assert len({mass for mass, _ in want[: len(want) // 2]}) == len(want) // 2

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_mismatched_dim_is_refused_and_changes_nothing(self, dim):
        fresh, povms = shared_mass_case(3, dim, "dirichlet")
        other = random_povm(np.random.default_rng(dim), dim + 1, 2)
        e = fresh()
        measure_ensemble(e, povms[0])
        before = {k: dict(v) if isinstance(v, dict) else v for k, v in vars(e).items()}
        for read in (measure_ensemble, delta_E_variants, _outcome_mass):
            with pytest.raises(BadParams, match=f"measurement dim {dim + 1} does not match probe dim {dim}"):
                read(e, other)
        after = {k: dict(v) if isinstance(v, dict) else v for k, v in vars(e).items()}
        assert after.keys() == before.keys()
        for k in before:
            if isinstance(before[k], dict):
                assert after[k].keys() == before[k].keys()
                assert all(after[k][p] is before[k][p] for p in before[k])
            else:
                assert after[k] is before[k]
        for povm in povms:
            mass, readings = self.fresh_values(fresh, povm)
            assert bits(tuple(delta_E_variants(e, povm))) == readings
            assert bits(measure_ensemble(e, povm).mass) == mass

    @pytest.mark.parametrize("n,dim", [(6, 4), (5, 8), (4, 16)])
    def test_an_ensemble_task_computes_the_mass_once(self, n, dim, monkeypatch):
        """`pgm`, `measure_ensemble` and `delta_E_variants` on one ensemble, as
        a quantum-ensembles task calls them, make the keys x outcomes trace
        products once, and both reads return the one frozen mass."""
        fresh, _ = shared_mass_case(n, dim, "dirichlet")
        e = fresh()
        counting = CountingNumpy()
        monkeypatch.setattr(criteria, "np", counting)
        povm = pgm(e)
        joint = measure_ensemble(e, povm)
        readings = delta_E_variants(e, povm)
        assert counting.products == len(e.keys) * len(povm.labels)
        assert _outcome_mass(e, povm) is joint.mass
        assert not joint.mass.flags.writeable
        assert bits(tuple(readings)) == bits(variants_from_mass_loop(joint.mass))
