"""Every result of `cex_i`, `cex_ii`, `cex_iii`, `markov` and `spiked`
against a second route, read from the run's parameters.

`cex_ii` and `cex_iii` read closed forms in the Bloch vectors of their three
qubits (Nielsen and Chuang, *Quantum Computation and Quantum Information*,
2000, section 9.2).  Both experiments run on qubit probes.  With Bloch
vectors r1 and r2 of rho1 and rho2, g = |r1 - r2| = ||rho1 - rho2||_1, and
no `cex_ii` field depends on sigma.  `cex_iii` measures sigma's eigenbasis
on the first qubit and the eigenbasis of rho1 - rho2 on the second, whose
top eigenvector has Bloch direction n = (r1 - r2) / g.  With x_j = r_j . n
and x = (x1 + x2) / 2, and sigma pure, only the two outcomes on sigma's top
eigenvector carry mass, (1 + x) / 2 and (1 - x) / 2.

`ecc` recounts the decision regions by brute force: each of the 2^n words
is decoded against every one of the 2^k codewords, apart from
`decision_region_census` and its cosets, at n <= 12.  Its `bias_delta` is
the integer counts' exact distance from uniform, and `perfect_radius` the
least radius that meets the sphere-packing equality.

`cex_i`, `spiked` and `markov` read exact `Fraction` arithmetic: two
identical uniform distributions on N atoms are at distance 0 and mismatch
under the independent coupling with probability (N - 1) / N; the spiked key
has peak 2^-l and distance 2^-l - 2^-n, which its full-key event attains;
a Markov budget is eps * delta^k.  The spiked entropy reads the closed form
of `helpers.spiked_entropy_closed_form`.

Each route states its own bound, in ulps of its largest term.  0 ulps asks
for the route's value itself, of the same type.  The Bloch forms' largest
term is 1, the probes' trace, except for `max_posterior_dev`, a ratio over
the smaller outcome mass (1 - |x|) / 2, whose rounding grows as
1 / (1 - |x|).  A route may also say that the run reports no such field
(`cex_i`'s dense coupling above 1024 atoms, `markov` without eps and
delta).  The routes are checked on every golden report of these
experiments and on seeded draws, and a result key without a route fails
the audit.  `table` and `toeplitz` have no routes yet.
"""

import csv
import functools
import io
import itertools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

from tracecrit import Gf2Matrix, gf2_rank
from tracecrit.experiments import CODE_PRESETS, REGISTRY, run_experiment

from helpers import bloch_geometry, random_bloch, spiked_entropy_closed_form, two_bit_bloch

EPS = sys.float_info.epsilon
GOLDEN = json.loads(Path(__file__).with_name("golden_outputs.json").read_text())
#: Experiments whose every result has a route; the two Bloch ones report only floats.
AUDITED = ("cex_i", "cex_ii", "cex_iii", "ecc", "markov", "spiked")
BLOCH = ("cex_ii", "cex_iii")
#: Seeded draws per experiment.
DRAWS = 250
#: A route's value for a field the run must not report.
ABSENT = object()


def _unit(run) -> float:
    return 1.0


class Route(NamedTuple):
    """A field's second route from the run's parameters, and its bound: ulps
    of its largest term, or 0 for the route's value itself."""

    form: Callable[[dict], object]
    ulps: float = 0
    largest: Callable[[dict], float] = _unit


def bloch(form):
    """A route form in (g, x1, x2), the geometry of the run's rho1 and rho2."""

    def read(run):
        _, r1, r2 = two_bit_bloch(run)
        return form(*bloch_geometry(r1, r2))

    return read


def _mean_offset(g, x1, x2) -> float:
    """|x|, the outcome masses' offset from 1/2."""
    return abs(x1 + x2) / 2


def _spiked_delta(run) -> Fraction:
    """2^-l - 2^-n, which is 0/1 at l = n."""
    return Fraction(2 ** (run["n"] - run["l"]) - 1, 2 ** run["n"])


def _spiked_entropy(run) -> float:
    return spiked_entropy_closed_form(run["n"], run["l"])


def _budget(read):
    """A `markov` route that only a run with eps and delta has."""
    return lambda run: ABSENT if "eps" not in run or "delta" not in run else read(run)


def _factor(run) -> float:
    return float(Fraction(run["delta"]) ** run["guarantees"])


def _required(run) -> float:
    return float(Fraction(run["eps"]) * Fraction(run["delta"]) ** run["guarantees"])


def _code_rows(run) -> tuple[tuple[int, ...], ...]:
    rows = CODE_PRESETS[run["preset"]] if "preset" in run else run["generator"]
    return tuple(map(tuple, rows))


@functools.cache
def _recount(rows: tuple, rule: str) -> tuple[int, ...]:
    """Decision-region sizes in message order, each of the 2^n words decoded
    against all 2^k codewords.  Message i's t-th bit from the left selects
    generator row t, and column j is bit j of a word.  Syndrome decoding
    subtracts the least-weight member of the word's coset, the smallest as
    an integer on ties; minimum distance takes the nearest codeword, the
    least message on ties."""
    n, k = len(rows[0]), len(rows)
    row_words = [sum(bit << j for j, bit in enumerate(row)) for row in rows]
    words = np.arange(2**n, dtype=np.int64)
    best = np.full(2**n, np.iinfo(np.int64).max)
    decoded = np.zeros(2**n, dtype=np.int64)
    for i in range(2**k):
        codeword = 0
        for t, bit in enumerate(format(i, f"0{k}b")):
            if bit == "1":
                codeword ^= row_words[t]
        error = words ^ codeword
        score = np.bitwise_count(error).astype(np.int64)
        if rule == "syndrome":
            score = score * 2**n + error
        better = score < best  # strict: an earlier message keeps a tie
        best[better] = score[better]
        decoded[better] = i
    return tuple(np.bincount(decoded, minlength=2**k).tolist())


def _region_sizes(run) -> dict[str, int]:
    rows = _code_rows(run)
    return {format(i, f"0{len(rows)}b"): size for i, size in enumerate(_recount(rows, run["rule"]))}


def _ecc_bias(run) -> Fraction:
    """The decoded message's distance from uniform, sum |size - 2^(n-k)| / 2^(n+1)."""
    rows = _code_rows(run)
    n, k = len(rows[0]), len(rows)
    return Fraction(sum(abs(size - 2 ** (n - k)) for size in _recount(rows, run["rule"])), 2 ** (n + 1))


def _sphere_packing_radius(run) -> int:
    """The least t with sum_{i <= t} C(n, i) = 2^(n-k), or -1."""
    rows = _code_rows(run)
    n, k = len(rows[0]), len(rows)
    volumes = itertools.accumulate(math.comb(n, i) for i in range(n + 1))
    return next((t for t, volume in enumerate(volumes) if volume == 2 ** (n - k)), -1)


ROUTES = {
    ("cex_i", "n_atoms"): Route(lambda run: run["N"]),
    ("cex_i", "delta"): Route(lambda run: 0.0),
    ("cex_i", "independent_mismatch"): Route(lambda run: float(Fraction(run["N"] - 1, run["N"]))),
    ("cex_i", "independent_mismatch_num"): Route(lambda run: run["N"] - 1),
    ("cex_i", "independent_mismatch_den"): Route(lambda run: run["N"]),
    ("cex_i", "maximal_mismatch"): Route(lambda run: 0.0 if run["N"] <= 1024 else ABSENT),
    ("cex_ii", "pair_trace_norm"): Route(bloch(lambda g, x1, x2: g), 6),
    ("cex_ii", "d"): Route(bloch(lambda g, x1, x2: g / 4), 4),
    ("cex_ii", "d_entangled"): Route(bloch(lambda g, x1, x2: g / 4), 4),
    ("cex_ii", "post_leak_success"): Route(bloch(lambda g, x1, x2: 0.5 + g / 4), 4),
    ("cex_ii", "single_bit_success"): Route(bloch(lambda g, x1, x2: 0.5 + g / 4), 4),
    ("cex_ii", "mixture_cap"): Route(bloch(lambda g, x1, x2: 0.5 + g / 8), 3),
    ("cex_ii", "violation_margin"): Route(bloch(lambda g, x1, x2: g / 8), 4),
    ("cex_ii", "single_bit_margin"): Route(bloch(lambda g, x1, x2: g / 8), 4),
    ("cex_iii", "d"): Route(bloch(lambda g, x1, x2: g / 4), 4),
    ("cex_iii", "dbar"): Route(bloch(lambda g, x1, x2: g / 4), 5),
    ("cex_iii", "avg_posterior_dev"): Route(bloch(lambda g, x1, x2: g / 4), 5),
    ("cex_iii", "outcome_vs_uniform"): Route(bloch(lambda g, x1, x2: _mean_offset(g, x1, x2) / 2), 4),
    ("cex_iii", "max_posterior_dev"): Route(
        bloch(lambda g, x1, x2: g / (4 * (1 - _mean_offset(g, x1, x2)))),
        3,
        bloch(lambda g, x1, x2: 1 / (1 - _mean_offset(g, x1, x2))),
    ),
    ("cex_iii", "joint_vs_product_uniform"): Route(
        bloch(lambda g, x1, x2: 0.5 * (0.5 + max(0.25, abs(x1) / 2) + max(0.25, abs(x2) / 2))), 5
    ),
    ("ecc", "n"): Route(lambda run: len(_code_rows(run)[0])),
    ("ecc", "k"): Route(lambda run: len(_code_rows(run))),
    ("ecc", "rule"): Route(lambda run: run["rule"]),
    ("ecc", "region_sizes"): Route(_region_sizes),
    ("ecc", "region_size_min"): Route(lambda run: min(_region_sizes(run).values())),
    ("ecc", "region_size_max"): Route(lambda run: max(_region_sizes(run).values())),
    # an int / int division rounds the exact quotient once, as float(Fraction) does: 0 ulps
    ("ecc", "bias_delta"): Route(lambda run: float(_ecc_bias(run))),
    ("ecc", "perfect_radius"): Route(_sphere_packing_radius),
    # a float division, and the cap at 1, round as the exact quotient does
    ("markov", "mean"): Route(lambda run: float(run["mean"])),
    ("markov", "threshold"): Route(lambda run: float(run["threshold"])),
    ("markov", "bound"): Route(lambda run: float(min(Fraction(1), Fraction(run["mean"]) / Fraction(run["threshold"])))),
    ("markov", "guarantees"): Route(_budget(lambda run: run["guarantees"])),
    # one pow, then one product: each rounds once
    ("markov", "degradation_factor"): Route(_budget(_factor), 1, _factor),
    ("markov", "required_average"): Route(_budget(_required), 2, _required),
    ("spiked", "n"): Route(lambda run: run["n"]),
    ("spiked", "l"): Route(lambda run: run["l"]),
    ("spiked", "peak_mass"): Route(lambda run: 2.0 ** -run["l"]),
    ("spiked", "peak_mass_num"): Route(lambda run: 1),
    ("spiked", "peak_mass_den"): Route(lambda run: 2 ** run["l"]),
    ("spiked", "delta_analytic"): Route(lambda run: float(_spiked_delta(run))),
    ("spiked", "delta_summed"): Route(lambda run: float(_spiked_delta(run))),
    ("spiked", "delta_num"): Route(lambda run: _spiked_delta(run).numerator),
    ("spiked", "delta_den"): Route(lambda run: _spiked_delta(run).denominator),
    ("spiked", "max_event_dev_full_key"): Route(lambda run: float(_spiked_delta(run))),
    ("spiked", "argmax_event_pattern"): Route(lambda run: "0" * run["n"]),
    ("spiked", "entropy_bits"): Route(_spiked_entropy, 4, _spiked_entropy),
}


def golden_cases() -> list[tuple[str, str, dict, dict]]:
    """(name, experiment, params, results) of every golden report of an
    audited experiment: each JSON report, and each row of a CSV sweep over a
    Bloch experiment."""
    cases = []
    for name, case in sorted(GOLDEN.items()):
        argv = dict(zip(case["argv"][::2], case["argv"][1::2]))
        params = json.loads(argv["--params"])
        if argv["--experiment"] in AUDITED and argv.get("--format") == "json":
            doc = json.loads(case["output"])
            cases.append((name, doc["experiment"], doc["params"], doc["results"]))
        elif argv["--experiment"] == "sweep" and params["experiment"] in BLOCH:
            (key,) = params["grid"]
            for row in csv.DictReader(io.StringIO(case["output"])):
                results = {k: float(v) for k, v in row.items() if k not in ("grid_index", key, "all_pass")}
                point = {**params.get("base", {}), key: json.loads(row[key])}
                cases.append((f"{name}[{row['grid_index']}]", params["experiment"], point, results))
    return cases


def bloch_params(rng, i: int, sphere: bool) -> dict:
    """One in ten an overlap, the rest rho1 and rho2 uniform in the Bloch ball
    and sigma in the ball or, pure, on the sphere."""
    if i % 10 == 0:
        return {"overlap": float(rng.random())}
    params = {"sigma": {"bloch": list(random_bloch(rng, sphere=sphere))}}
    params.update({name: {"bloch": list(random_bloch(rng))} for name in ("rho1", "rho2")})
    return params


def cex_i_params(rng, i: int) -> dict:
    """The edges 2, 1024 and 1025 first, then N log-uniform in [2, 2^14)."""
    return {"N": (2, 1024, 1025)[i] if i < 3 else int(2 ** rng.uniform(1, 14))}


def spiked_params(rng, i: int) -> dict:
    """The corners (1, 0), (1, 1) and (30, 30) first, then n in [1, 30] and l in [0, n]."""
    if i < 3:
        return dict(zip("nl", ((1, 0), (1, 1), (30, 30))[i]))
    n = int(rng.integers(1, 31))
    return {"n": n, "l": int(rng.integers(0, n + 1))}


#: Generators drawn first: the presets, a code that meets the sphere-packing
#: equality at radius 1 with distance 2, the [1, 1] and [12, 12] codes, and
#: the [3, 1] and [5, 1] repetition codes.
ECC_EDGES = (
    {"preset": "hamming74"},
    {"preset": "code52"},
    {"generator": [[1, 1, 0]]},
    {"generator": [[1]]},
    {"generator": np.eye(12, dtype=int).tolist()},
    {"generator": [[1, 1, 1]]},
    {"generator": [[1, 1, 1, 1, 1]]},
)


def ecc_params(rng, i: int) -> dict:
    """The edges first, each under both rules, then a full-rank k x n
    generator, n in [1, 12] and k in [1, n]; the rule alternates."""
    if i < 2 * len(ECC_EDGES):
        params = dict(ECC_EDGES[i // 2])
    else:
        n = int(rng.integers(1, 13))
        k = int(rng.integers(1, n + 1))
        rows = rng.integers(0, 2, (k, n)).tolist()
        while gf2_rank(Gf2Matrix.from_rows(rows)) < k:
            rows = rng.integers(0, 2, (k, n)).tolist()
        params = {"generator": rows}
    return {**params, "rule": ("syndrome", "min_distance")[i % 2]}


def markov_params(rng, i: int) -> dict:
    """mean and threshold up to 0.1, so some bounds cap at 1; three in four
    with eps, delta (1 in one of ten) and up to 20 guarantees."""
    params = {"mean": float(rng.random() / 10), "threshold": float(rng.random() / 10 + 1e-6)}
    if i % 4:
        delta = 1.0 if i % 10 == 1 else float(rng.uniform(0.01, 1.0))
        params.update(eps=float(rng.uniform(1e-6, 1.0)), delta=delta, guarantees=int(rng.integers(1, 21)))
    return params


#: Each experiment's draw and its seed stream; cex_ii and cex_iii keep streams 6 and 7.
DRAWERS = {
    "cex_i": (cex_i_params, 1),
    "cex_ii": (functools.partial(bloch_params, sphere=False), 6),
    "cex_iii": (functools.partial(bloch_params, sphere=True), 7),
    "ecc": (ecc_params, 4),
    "markov": (markov_params, 3),
    "spiked": (spiked_params, 2),
}


@functools.cache
def seeded_cases(experiment: str) -> tuple:
    """(params, results) of `DRAWS` seeded draws of the experiment."""
    draw, stream = DRAWERS[experiment]
    rng = np.random.default_rng([15, stream])
    cases = []
    for i in range(DRAWS):
        params = draw(rng, i)
        cases.append((params, run_experiment(experiment, params).results))
    return tuple(cases)


def assert_routes_hold(experiment: str, params: dict, results: dict):
    """Each route of the experiment on one run: the field is absent where its
    route says so, and otherwise within the route's bound."""
    defaults = {k: v for k, v in REGISTRY[experiment].__kwdefaults__.items() if v is not None}
    run = {**defaults, **params}
    if experiment == "cex_iii":
        assert bloch_geometry(*two_bit_bloch(run)[1:])[0] > 0.0, "the cex_iii routes read the direction of r1 - r2"
    routes = {field: route for (name, field), route in ROUTES.items() if name == experiment}
    assert set(results) <= set(routes), f"{experiment} keys without a route: {sorted(set(results) - set(routes))}"
    for field, route in routes.items():
        want = route.form(run)
        if want is ABSENT:
            assert field not in results, f"{experiment} {field} reported on {params}"
            continue
        value = results[field]
        message = f"{experiment} {field} {value!r} vs route {want!r} on {params}"
        if route.ulps:
            assert abs(value - want) <= route.ulps * EPS * route.largest(run), message
        else:
            assert type(value) is type(want) and value == want, message


def test_every_result_key_has_a_route():
    found = {(experiment, field) for _, experiment, _, results in golden_cases() for field in results}
    for experiment in AUDITED:
        found |= {(experiment, field) for _, results in seeded_cases(experiment) for field in results}
    assert not found - set(ROUTES), f"result keys without a route: {sorted(found - set(ROUTES))}"
    assert not set(ROUTES) - found, f"routes of no result key: {sorted(set(ROUTES) - found)}"


def test_goldens_cover_both_experiments():
    experiments = [experiment for _, experiment, _, _ in golden_cases()]
    assert experiments.count("cex_ii") >= 4 and experiments.count("cex_iii") >= 2


def test_goldens_cover_every_audited_experiment():
    assert {experiment for _, experiment, _, _ in golden_cases()} == set(AUDITED)


@pytest.mark.parametrize(
    "experiment,params,results", [pytest.param(*case[1:], id=case[0]) for case in golden_cases()]
)
def test_golden_reports_match_their_routes(experiment, params, results):
    assert_routes_hold(experiment, params, results)


@pytest.mark.parametrize("experiment", AUDITED)
def test_seeded_specs_match_their_routes(experiment):
    cases = seeded_cases(experiment)
    assert len(cases) == DRAWS
    for params, results in cases:
        assert_routes_hold(experiment, params, results)
