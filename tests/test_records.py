"""The records the modules of every CLI request define are NamedTuples:
`Verdict`, `ExperimentReport`, `GuaranteeBudget` and `ComparisonRow` plain,
and `GuaranteeScenario` and `SpikedDist` with a validating constructor.  The
two refuse their inputs with the messages they gave as frozen dataclasses,
keep the values they were given or derive, and no record takes an
assignment.  The frozen array records of the numpy modules store every array
read-only, whichever route built them."""

import copy
import math
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest

from tracecrit import (
    CqEnsemble,
    DensityOperator,
    JointDistribution,
    Povm,
    ProbDist,
    independent_coupling,
    maximal_coupling,
    measure_ensemble,
)
from tracecrit.bounds import GuaranteeScenario, average_for_individual_guarantee, uniform_comparison_table
from tracecrit.errors import BadParams
from tracecrit.experiments import ExperimentReport, Verdict
from tracecrit.keys import SpikedDist

SCENARIO_REFUSALS = {
    "m-above-n": (dict(n=10, l=3, m=11), "need 0 < m <= n, got m=11, n=10"),
    "m-zero": (dict(n=10, l=3, m=0), "need 0 < m <= n, got m=0, n=10"),
    "m-before-l": (dict(n=10, l=-1, m=11), "need 0 < m <= n, got m=11, n=10"),
    "l-negative": (dict(n=10, l=-1, m=5), "exponent l must be nonnegative, got -1"),
    "l-negative-with-epsilon": (dict(n=10, l=-1, m=5, epsilon=0.5), "exponent l must be nonnegative, got -1"),
    "l-zero-default": (
        dict(n=10, l=0, m=5),
        "exponent l must be positive when epsilon is omitted, its default 2^-l being 1",
    ),
    "epsilon-above": (dict(n=10, l=3, m=5, epsilon=1.5), "epsilon must lie in [0, 1), got 1.5"),
    "epsilon-one": (dict(n=10, l=3, m=5, epsilon=1), "epsilon must lie in [0, 1), got 1"),
    "epsilon-negative": (dict(n=10, l=3, m=5, epsilon=-0.1), "epsilon must lie in [0, 1), got -0.1"),
    "epsilon-nan": (dict(n=10, l=3, m=5, epsilon=math.nan), "epsilon must lie in [0, 1), got nan"),
}


@pytest.mark.parametrize("kwargs, message", SCENARIO_REFUSALS.values(), ids=SCENARIO_REFUSALS)
def test_scenario_refusals(kwargs, message):
    with pytest.raises(BadParams, match=f"^{re.escape(message)}$"):
        GuaranteeScenario(**kwargs)


@pytest.mark.parametrize(
    "args, kwargs, stored",
    [
        ((10, 3, 5), {}, (10, 3, 5, 0.125, -3.0)),
        ((10, 3, 5), {"epsilon": 0.25}, (10, 3, 5, 0.25, -2.0)),
        ((10, 0, 5), {"epsilon": 0}, (10, 0, 5, 0.0, -math.inf)),
        ((2000, 1100, 1100), {}, (2000, 1100, 1100, 0.0, -1100.0)),
        ((2000, 1100, 1100), {"epsilon": 0.0}, (2000, 1100, 1100, 0.0, -math.inf)),
        ((), {"n": 1000, "l": 16, "m": 100, "epsilon": 1e-5}, (1000, 16, 100, 1e-5, math.log2(1e-5))),
    ],
)
def test_scenario_keeps_its_values_and_derives_the_rest(args, kwargs, stored):
    scenario = GuaranteeScenario(*args, **kwargs)
    assert tuple(scenario) == stored
    assert type(scenario.epsilon) is float
    assert (scenario.n, scenario.l, scenario.m, scenario.epsilon, scenario.epsilon_log2) == stored
    assert scenario == GuaranteeScenario(*args, **kwargs)


@pytest.mark.parametrize("epsilon", [None, 0.0, 0.25])
def test_scenario_copies_and_pickles_with_its_fields(epsilon):
    scenario = GuaranteeScenario(n=2000, l=1100, m=1100, epsilon=epsilon)
    for twin in (copy.copy(scenario), copy.deepcopy(scenario), pickle.loads(pickle.dumps(scenario))):
        assert type(twin) is GuaranteeScenario and tuple(twin) == tuple(scenario)


def test_scenario_keeps_the_integers_it_was_given():
    n, l, m = np.int64(10), np.int64(3), np.int64(5)
    scenario = GuaranteeScenario(n, l, m)
    assert scenario.n is n and scenario.l is l and scenario.m is m


#: Refusals besides the non-integral sizes of `test_ensembles.test_non_integer_sizes_refused`.
SPIKED_REFUSALS = {
    "n-bool": ((True, 1), "key length and spike exponent must be integers"),
    "n-zero": ((0, 0), "key length must be in [1, 30], got 0"),
    "n-above-cap": ((31, 3), "key length must be in [1, 30], got 31"),
    "n-before-l": ((31, 99), "key length must be in [1, 30], got 31"),
    "l-above-n": ((8, 9), "spike exponent must be in [0, 8], got 9"),
    "l-negative": ((8, -1), "spike exponent must be in [0, 8], got -1"),
}


@pytest.mark.parametrize("args, message", SPIKED_REFUSALS.values(), ids=SPIKED_REFUSALS)
def test_spiked_refusals(args, message):
    with pytest.raises(BadParams, match=f"^{re.escape(message)}$"):
        SpikedDist(*args)


def test_spiked_keeps_the_values_it_was_given():
    n, l = np.int64(8), np.uint8(3)
    dist = SpikedDist(n, l)
    assert dist.n_bits is n and dist.spike_exponent is l
    assert tuple(SpikedDist(30, 0)) == (30, 0)
    assert SpikedDist(n_bits=8, spike_exponent=3) == SpikedDist(8, 3)


def records() -> list:
    """One instance of each of the six records, the two in `bounds` that
    its functions return built by them."""
    verdict = Verdict("relation", "PASS", "detail")
    return [
        verdict,
        ExperimentReport("cex_i", {}, 0, {}, (verdict,), "0", 0.5),
        average_for_individual_guarantee(0.5, 0.5),
        uniform_comparison_table(GuaranteeScenario(n=10, l=3, m=5))[0],
        GuaranteeScenario(n=10, l=3, m=5),
        SpikedDist(8, 3),
    ]


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_records_are_tuples_that_take_no_assignment(record):
    assert isinstance(record, tuple) and tuple(record._asdict().values()) == tuple(record)
    for name in (*record._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
    assert not hasattr(record, "__dict__")



def _measured() -> JointDistribution:
    half = np.eye(2) / 2
    e = CqEnsemble(1, ProbDist.uniform(("0", "1")), {"0": half, "1": np.diag([1.0, 0.0])})
    return measure_ensemble(e, Povm((("a", np.diag([1.0, 0.0])), ("b", np.diag([0.0, 1.0])))))


_FLOATS = ProbDist(("x", "y", "z"), (0.5, 0.25, 0.25)), ProbDist(("x", "y", "z"), (0.25, 0.25, 0.5))
_EXACT = ProbDist(("x", "y"), (Fraction(1, 2), Fraction(1, 2))), ProbDist(("x", "y"), (Fraction(1, 3), Fraction(2, 3)))

#: Each construction route of a frozen array record: a builder and the fields
#: that hold arrays (`Povm.elements` holds one matrix per element).
FROZEN_ROUTES = {
    "DensityOperator": (lambda: DensityOperator(np.eye(2) / 2), {"matrix"}),
    "DensityOperator._trusted": (lambda: DensityOperator._trusted(np.eye(2, dtype=complex) / 2), {"matrix"}),
    "ProbDist-float": (lambda: _FLOATS[0], {"probs"}),
    "ProbDist-exact": (lambda: _EXACT[1], {"probs"}),
    "ProbDist.uniform": (lambda: ProbDist.uniform(("a", "b", "c")), {"probs"}),
    "CqEnsemble": (
        lambda: CqEnsemble(1, ProbDist(("0", "1"), (0.25, 0.75)), {"0": np.eye(2) / 2, "1": np.eye(2) / 2}),
        {"probe_stack", "weights"},
    ),
    "Povm": (lambda: Povm((("a", np.eye(2) / 2), ("b", np.eye(2) / 2))), {"elements", "stack"}),
    "JointDistribution": (lambda: JointDistribution(("0", "1"), ("a",), [[0.5], [0.5]]), {"mass"}),
    "measure_ensemble": (_measured, {"mass"}),
    "maximal_coupling-float": (lambda: maximal_coupling(*_FLOATS), {"p", "q", "diagonal", "res_p", "res_q"}),
    "maximal_coupling-exact": (lambda: maximal_coupling(*_EXACT), {"p", "q", "diagonal", "res_p", "res_q"}),
    "independent_coupling-float": (lambda: independent_coupling(*_FLOATS), {"p", "q", "res_p", "res_q"}),
    "independent_coupling-exact": (lambda: independent_coupling(*_EXACT), {"p", "q", "res_p", "res_q"}),
}


def stored_arrays(record) -> dict[str, list]:
    """Every ndarray the record stores, by field, those inside tuples and
    pairs (`Povm.elements`) included."""
    found = {}
    for name, value in vars(record).items():
        for item in value if isinstance(value, tuple) else (value,):
            for a in item if isinstance(item, tuple) else (item,):
                if isinstance(a, np.ndarray):
                    found.setdefault(name, []).append(a)
    return found


@pytest.mark.parametrize("route", FROZEN_ROUTES)
def test_every_stored_array_is_read_only(route):
    build, fields = FROZEN_ROUTES[route]
    arrays = stored_arrays(build())
    assert set(arrays) == fields
    writable = [name for name, found in arrays.items() for a in found if a.flags.writeable]
    assert not writable, f"{route} stores writable arrays in {writable}"
