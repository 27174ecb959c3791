"""Every float result of `cex_ii` and `cex_iii` against a second route: a
closed form in the Bloch vectors of the three qubits (Nielsen and Chuang,
*Quantum Computation and Quantum Information*, 2000, section 9.2).

Both experiments run on qubit probes.  With Bloch vectors r1 and r2 of rho1
and rho2, g = |r1 - r2| = ||rho1 - rho2||_1, and no `cex_ii` field depends
on sigma.  `cex_iii` measures sigma's eigenbasis on the first qubit and the
eigenbasis of rho1 - rho2 on the second, whose top eigenvector has Bloch
direction n = (r1 - r2) / g.  With x_j = r_j . n and x = (x1 + x2) / 2, and
sigma pure, only the two outcomes on sigma's top eigenvector carry mass,
(1 + x) / 2 and (1 - x) / 2.

Each route states its own bound, in ulps of its largest term: 1, the
probes' trace, except for `max_posterior_dev`, a ratio over the smaller
outcome mass (1 - |x|) / 2, whose rounding grows as 1 / (1 - |x|).  The
routes are checked on every golden report of both experiments and on
seeded specs, and a result key without a route fails the audit.
"""

import csv
import functools
import io
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

from tracecrit.experiments import run_experiment

from helpers import bloch_geometry, random_bloch, two_bit_bloch

EPS = sys.float_info.epsilon
GOLDEN = json.loads(Path(__file__).with_name("golden_outputs.json").read_text())
#: Seeded specs per experiment; one in ten is an overlap, the rest explicit Bloch vectors.
DRAWS = 250


def _unit(g, x1, x2) -> float:
    return 1.0


def _mean_offset(g, x1, x2) -> float:
    """|x|, the outcome masses' offset from 1/2."""
    return abs(x1 + x2) / 2


class Route(NamedTuple):
    """A field's closed form in (g, x1, x2), and its bound: ulps of its largest term."""

    form: Callable[[float, float, float], float]
    ulps: float
    largest: Callable[[float, float, float], float] = _unit


ROUTES = {
    ("cex_ii", "pair_trace_norm"): Route(lambda g, x1, x2: g, 6),
    ("cex_ii", "d"): Route(lambda g, x1, x2: g / 4, 4),
    ("cex_ii", "d_entangled"): Route(lambda g, x1, x2: g / 4, 4),
    ("cex_ii", "post_leak_success"): Route(lambda g, x1, x2: 0.5 + g / 4, 4),
    ("cex_ii", "single_bit_success"): Route(lambda g, x1, x2: 0.5 + g / 4, 4),
    ("cex_ii", "mixture_cap"): Route(lambda g, x1, x2: 0.5 + g / 8, 3),
    ("cex_ii", "violation_margin"): Route(lambda g, x1, x2: g / 8, 4),
    ("cex_ii", "single_bit_margin"): Route(lambda g, x1, x2: g / 8, 4),
    ("cex_iii", "d"): Route(lambda g, x1, x2: g / 4, 4),
    ("cex_iii", "dbar"): Route(lambda g, x1, x2: g / 4, 5),
    ("cex_iii", "avg_posterior_dev"): Route(lambda g, x1, x2: g / 4, 5),
    ("cex_iii", "outcome_vs_uniform"): Route(lambda g, x1, x2: _mean_offset(g, x1, x2) / 2, 4),
    ("cex_iii", "max_posterior_dev"): Route(
        lambda g, x1, x2: g / (4 * (1 - _mean_offset(g, x1, x2))),
        3,
        lambda g, x1, x2: 1 / (1 - _mean_offset(g, x1, x2)),
    ),
    ("cex_iii", "joint_vs_product_uniform"): Route(
        lambda g, x1, x2: 0.5 * (0.5 + max(0.25, abs(x1) / 2) + max(0.25, abs(x2) / 2)), 5
    ),
}


def golden_cases() -> list[tuple[str, str, dict, dict]]:
    """(name, experiment, params, results) of every golden report of either
    experiment: each JSON report, and each row of a CSV sweep over one of them."""
    cases = []
    for name, case in sorted(GOLDEN.items()):
        argv = dict(zip(case["argv"][::2], case["argv"][1::2]))
        params = json.loads(argv["--params"])
        if argv["--experiment"] in ("cex_ii", "cex_iii") and argv.get("--format") == "json":
            doc = json.loads(case["output"])
            cases.append((name, doc["experiment"], doc["params"], doc["results"]))
        elif argv["--experiment"] == "sweep" and params["experiment"] in ("cex_ii", "cex_iii"):
            (key,) = params["grid"]
            for row in csv.DictReader(io.StringIO(case["output"])):
                results = {k: float(v) for k, v in row.items() if k not in ("grid_index", key, "all_pass")}
                point = {**params.get("base", {}), key: json.loads(row[key])}
                cases.append((f"{name}[{row['grid_index']}]", params["experiment"], point, results))
    return cases


@functools.cache
def seeded_cases(experiment: str) -> tuple:
    """(params, results) of `DRAWS` seeded specs: rho1 and rho2 uniform in the
    Bloch ball, sigma too for `cex_ii` and on the sphere, pure, for `cex_iii`."""
    rng = np.random.default_rng([15, len(experiment)])
    cases = []
    for i in range(DRAWS):
        if i % 10 == 0:
            params = {"overlap": float(rng.random())}
        else:
            sigma = random_bloch(rng, sphere=experiment == "cex_iii")
            params = {"sigma": {"bloch": list(sigma)}}
            params.update({name: {"bloch": list(random_bloch(rng))} for name in ("rho1", "rho2")})
        cases.append((params, run_experiment(experiment, params).results))
    return tuple(cases)


def assert_routes_hold(experiment: str, params: dict, results: dict):
    _, r1, r2 = two_bit_bloch(params)
    g, x1, x2 = bloch_geometry(r1, r2)
    if experiment == "cex_iii":
        assert g > 0.0, "the cex_iii routes read the direction of r1 - r2"
    for field, value in results.items():
        route = ROUTES[(experiment, field)]
        want, bound = route.form(g, x1, x2), route.ulps * EPS * route.largest(g, x1, x2)
        assert abs(value - want) <= bound, f"{experiment} {field} {value!r} vs closed form {want!r} on {params}"


def test_every_result_key_has_a_route():
    found = {(experiment, field) for _, experiment, _, results in golden_cases() for field in results}
    for experiment in ("cex_ii", "cex_iii"):
        found |= {(experiment, field) for _, results in seeded_cases(experiment) for field in results}
    assert not found - set(ROUTES), f"result keys without a route: {sorted(found - set(ROUTES))}"
    assert not set(ROUTES) - found, f"routes of no result key: {sorted(set(ROUTES) - found)}"


def test_goldens_cover_both_experiments():
    experiments = [experiment for _, experiment, _, _ in golden_cases()]
    assert experiments.count("cex_ii") >= 4 and experiments.count("cex_iii") >= 2


@pytest.mark.parametrize(
    "experiment,params,results", [pytest.param(*case[1:], id=case[0]) for case in golden_cases()]
)
def test_golden_reports_match_their_routes(experiment, params, results):
    assert_routes_hold(experiment, params, results)


@pytest.mark.parametrize("experiment", ["cex_ii", "cex_iii"])
def test_seeded_specs_match_their_routes(experiment):
    cases = seeded_cases(experiment)
    assert len(cases) == DRAWS
    for params, results in cases:
        assert_routes_hold(experiment, params, results)
