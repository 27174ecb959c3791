"""The benchmark's three workloads: seeded inputs, task lists and output checks.

A workload is built by `build(name, seed, root)`.  Each task is a closed
call into the public API (or one CLI child process) that returns its
output; the task's `check` says why that output is wrong, or returns None.
Checks use canonical-JSON digests recorded once from the seed code
(`digests.json`, fixed data) for seed-independent experiment runs and
independent numpy or exact-arithmetic oracles for seeded inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import signal
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import tracecrit as tc
from tracecrit import cli as tc_cli

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS_PATH = BENCH_DIR / "digests.json"

#: Criterion level passed to the criterion and pairwise checks.
EPSILON = 2.0**-16
#: (key bits, probe dim, prior) of each quantum ensemble task; joint dim 256.
ENSEMBLE_SPECS = (
    (6, 4, "uniform"),
    (6, 4, "uniform"),
    (6, 4, "dirichlet"),
    (5, 8, "uniform"),
    (5, 8, "uniform"),
    (5, 8, "dirichlet"),
    (4, 16, "uniform"),
    (4, 16, "uniform"),
    (4, 16, "dirichlet"),
)
SWEEP_GRID = [round(i / 49, 12) for i in range(50)]
#: Samples of the seeded 10x12 Toeplitz estimate.
TOEPLITZ_SAMPLES = 2000
#: Largest child run time before the benchmark kills it.
CHILD_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    name: str
    seed: int
    tasks: list[Task]
    #: In-process replay of the tasks, for the traced run of cli-cold.
    replay: list[Task] = field(default_factory=list)
    #: CLI invocations that break the documented exit-code contract today;
    #: run once per benchmark run and reported, never timed.
    contract_probes: list[Task] = field(default_factory=list)
    #: Fingerprint of the generated inputs (for the benchmark's own tests).
    input_digest: str = ""
    #: Spawns the children of cli-cold and tracks their peak RSS.
    runner: "CliRunner | None" = None


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(out) -> str:
    return out if isinstance(out, str) else repr(out)


# -- digests of seed-independent runs ------------------------------------


def _digest_key(kind: str, name: str, params: dict, seed: int = 0) -> str:
    return f"{kind} {name} {json.dumps(params, sort_keys=True)} seed={seed}"


class _Digests:
    """Checks outputs against the recorded digests."""

    def __init__(self):
        self.recorded = json.loads(DIGESTS_PATH.read_text())
        #: Hash of the seeded inputs the workload generated.
        self.inputs = hashlib.sha256()

    def check(self, key: str, text: str) -> str | None:
        want = self.recorded.get(key)
        if want is None:
            return f"no recorded digest for {key!r}"
        got = sha256(text)
        return None if got == want else f"digest {got[:12]} != recorded {want[:12]} for {key!r}"


def _experiment_task(digests: _Digests, label: str, name: str, params: dict, oracle=None) -> Task:
    """Seed-independent run_experiment task, checked against its digest."""
    key = _digest_key("experiment", name, params)

    def run():
        return tc.run_experiment(name, params, 0).canonical_json()

    def check(text):
        reason = digests.check(key, text)
        if reason is None and oracle is not None:
            reason = oracle(json.loads(text))
        return reason

    return Task(label, run, check)


def _bundle_task(digests: _Digests, label: str, runs: list[tuple[str, dict]]) -> Task:
    """Several tiny seed-independent runs timed as one task."""
    keys = [_digest_key("experiment", name, params) for name, params in runs]

    def run():
        return [tc.run_experiment(name, params, 0).canonical_json() for name, params in runs]

    def check(texts):
        for key, text in zip(keys, texts):
            reason = digests.check(key, text)
            if reason:
                return reason
        return None

    return Task(label, run, check)


# -- quantum-ensembles ----------------------------------------------------


def _random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    rank = int(rng.integers(1, dim + 1))
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _trace_norm_oracle(h: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(h)).sum())


def _ensemble_task(index: int, n: int, dim: int, prior_kind: str, rng: np.random.Generator) -> Task:
    prior = np.full(2**n, 2.0**-n) if prior_kind == "uniform" else rng.dirichlet(np.ones(2**n))
    probes = [_random_density(rng, dim) for _ in range(2**n)]
    leak_bits = tuple(int(b) for b in rng.integers(0, 2, n - 1))
    uniform = prior_kind == "uniform"

    def run():
        keys = tc.ensembles.bit_strings(n)
        e = tc.CqEnsemble(
            n,
            tc.ProbDist(keys, tuple(prior.tolist())),
            {k: tc.validate_density(m) for k, m in zip(keys, probes)},
        )
        report = tc.criterion_report(e, EPSILON)
        pair = tc.pairwise_distance_bound(e, EPSILON)
        povm = tc.pgm(e)
        joint = tc.measure_ensemble(e, povm)
        try:
            dbar = tc.classical_dbar(joint)
        except tc.errors.NonUniformPrior:
            dbar = None
        variants = tc.delta_E_variants(e, povm)
        leak = tc.post_leak_discrimination(e, tc.LeakSpec(tuple(range(n - 1)), leak_bits))
        return {
            "d_entangled": report.d_entangled,
            "d_averaged": report.d_averaged,
            "d_k_max": max(report.d_k.values()),
            "pair_worst": pair.worst_value,
            "joint_total": float(joint.mass.sum()),
            "dbar": dbar,
            "variants": tuple(
                float(v)
                for v in (
                    variants.outcome_vs_uniform,
                    variants.joint_vs_product_uniform,
                    variants.max_posterior_dev,
                    variants.avg_posterior_dev,
                )
            ),
            "leak_success": leak.p_success,
            "leak_d_full": leak.d_full,
        }

    avg = np.einsum("k,kij->ij", prior, np.asarray(probes))
    d_oracle = 0.5 * sum(p * _trace_norm_oracle(m - avg) for p, m in zip(prior, probes))
    prefix = "".join(str(b) for b in leak_bits)
    i0, i1 = int(prefix + "0", 2), int(prefix + "1", 2)
    p0, p1 = prior[i0] / (prior[i0] + prior[i1]), prior[i1] / (prior[i0] + prior[i1])
    helstrom_oracle = 0.5 * (1.0 + _trace_norm_oracle(p1 * probes[i1] - p0 * probes[i0]))

    def check(out):
        if abs(out["d_entangled"] - out["d_averaged"]) > 1e-9:
            return f"entangled {out['d_entangled']!r} vs averaged {out['d_averaged']!r}"
        if abs(out["d_averaged"] - d_oracle) > 1e-9:
            return f"averaged form {out['d_averaged']!r} vs numpy oracle {d_oracle!r}"
        if out["pair_worst"] > 2.0 * out["d_k_max"] + 1e-9:
            return "pairwise distance exceeds the triangle bound through the average"
        if abs(out["joint_total"] - 1.0) > 1e-9:
            return f"measured joint mass sums to {out['joint_total']!r}"
        avg_dev = out["variants"][3]
        if uniform:
            if out["dbar"] is None or abs(out["dbar"] - avg_dev) > 1e-9:
                return f"dbar {out['dbar']!r} vs averaged posterior deviation {avg_dev!r}"
        elif out["dbar"] is not None:
            return "classical_dbar accepted a non-uniform key marginal"
        if abs(out["leak_success"] - helstrom_oracle) > 1e-9:
            return f"post-leak success {out['leak_success']!r} vs Helstrom oracle {helstrom_oracle!r}"
        if out["leak_d_full"] != out["d_averaged"]:
            return "post-leak d differs from the averaged criterion"
        return None

    return Task(f"ensemble-{index}-n{n}-dim{dim}-{prior_kind}", run, check)


def _sweep_task(digests: _Digests, experiment: str) -> Task:
    grid = {"overlap": SWEEP_GRID}
    key = _digest_key("sweep", experiment, grid)

    def run():
        return tc.run_sweep(experiment, grid, seed=0)

    return Task(f"sweep-{experiment}-50", run, lambda text: digests.check(key, text))


def quantum_ensembles(seed: int, digests: _Digests) -> list[Task]:
    rng = np.random.default_rng([seed, 1])
    tasks = [_ensemble_task(i, n, d, kind, rng) for i, (n, d, kind) in enumerate(ENSEMBLE_SPECS)]
    digests.inputs.update(rng.bit_generator.state["state"]["state"].to_bytes(16, "little"))
    tasks += [_sweep_task(digests, "cex_ii"), _sweep_task(digests, "cex_iii")]
    # One task per experiment over both presets: with 13 tasks, p50 falls in
    # the plateau of five ~60 ms tasks (sweeps, n=5 ensembles) and p90 among
    # the n=6 ensembles, not on a step between task sizes.
    presets = ("two-bit-orthogonal", "two-bit-mixed")
    for name in ("cex_ii", "cex_iii"):
        tasks.append(_bundle_task(digests, f"{name}-presets", [(name, {"preset": p}) for p in presets]))
    return tasks


# -- classical-enumeration ------------------------------------------------


def _cex_i_oracle(n_atoms: int):
    def oracle(doc):
        r = doc["results"]
        if (r["independent_mismatch_num"], r["independent_mismatch_den"]) != (n_atoms - 1, n_atoms):
            return "independent mismatch is not exactly 1 - 1/N"
        if "maximal_mismatch" in r and r["maximal_mismatch"] != r["delta"]:
            return "maximal mismatch differs from delta"
        return None

    return oracle


def _toeplitz_oracle(m: int, n: int):
    def oracle(doc):
        want = 2.0 ** (m - n - 1)
        got = doc["results"]["singular_fraction"]
        return None if got == want else f"singular fraction {got!r} vs 2^(m-n-1) = {want!r}"

    return oracle


def _systematic_generator(rng: np.random.Generator, n: int, k: int) -> list[list[int]]:
    """Random full-rank k x n generator: [I | A] with shuffled columns."""
    g = np.concatenate([np.eye(k, dtype=np.int64), rng.integers(0, 2, (k, n - k))], axis=1)
    return g[:, rng.permutation(n)].tolist()


def _ecc_task(generator: list[list[int]], rule: str) -> Task:
    params = {"generator": generator, "rule": rule}
    n, k = len(generator[0]), len(generator)

    def run():
        return tc.run_experiment("ecc", params, 0).canonical_json()

    def check(text):
        sizes = json.loads(text)["results"]["region_sizes"]
        if len(sizes) != 2**k or sum(sizes.values()) != 2**n:
            return f"census regions do not partition the 2^{n} words"
        if rule == "syndrome" and set(sizes.values()) != {2 ** (n - k)}:
            return "syndrome regions are not all equal"
        return None

    return Task(f"ecc-{n}x{k}-{rule}", run, check)


def _toeplitz_sample_task(m: int, n: int, samples: int, seed: int) -> Task:
    params = {"m": m, "n": n, "mode": "sample", "samples": samples}

    def run():
        return tc.run_experiment("toeplitz", params, seed).canonical_json()

    def check(text):
        got = json.loads(text)["results"]["singular_fraction"]
        p = 2.0 ** (m - n - 1)
        tol = 6.0 * math.sqrt(p * (1.0 - p) / samples)
        return None if abs(got - p) <= tol else f"sampled fraction {got!r} outside {p!r} +- {tol:.4f}"

    return Task(f"toeplitz-{m}x{n}-sampled", run, check)


def _event_task(weights: list[float], n: int, m: int) -> Task:
    def run():
        dist = tc.ProbDist(tc.ensembles.bit_strings(n), tuple(weights))
        dev, (positions, pattern) = tc.event_deviation_bound(dist, m)
        return (float(dev), tuple(positions), pattern)

    probs = np.asarray(weights)
    vd = 0.5 * float(np.abs(probs - 2.0**-n).sum())
    keys = np.arange(2**n)

    def check(out):
        dev, positions, pattern = out
        hit = np.ones(2**n, dtype=bool)
        for pos, bit in zip(positions, pattern):
            hit &= ((keys >> (n - 1 - pos)) & 1) == int(bit)
        event_dev = abs(float(probs[hit].sum()) - 2.0**-m)
        if abs(event_dev - dev) > 1e-12:
            return f"argmax event deviates by {event_dev!r}, reported {dev!r}"
        return None if dev <= vd + 1e-12 else f"event deviation {dev!r} exceeds distance {vd!r}"

    return Task(f"event-n{n}-m{m}", run, check)


def _spiked_task(n: int, l: int) -> Task:
    params = {"n": n, "l": l}

    def run():
        return tc.run_experiment("spiked", params, 0).canonical_json()

    def check(text):
        r = json.loads(text)["results"]
        want = Fraction(1, 2**l) - Fraction(1, 2**n)
        if Fraction(r["delta_num"], r["delta_den"]) != want:
            return f"spiked delta is not 2^-{l} - 2^-{n}"
        if Fraction(r["peak_mass_num"], r["peak_mass_den"]) != Fraction(1, 2**l):
            return "spike mass is not 2^-l"
        return None

    return Task(f"spiked-n{n}", run, check)


def classical_enumeration(seed: int, digests: _Digests) -> list[Task]:
    rng = np.random.default_rng([seed, 2])
    weights = rng.random(2**16)
    weights = (weights / weights.sum()).tolist()
    generator = _systematic_generator(rng, 16, 8)
    sample_seed = int(rng.integers(0, 2**63))
    spike = int(rng.integers(1, 31))
    digests.inputs.update(repr((weights[:8], generator, sample_seed, spike)).encode())
    return [
        _experiment_task(digests, "cex_i-N256-dense", "cex_i", {"N": 256}, _cex_i_oracle(256)),
        _experiment_task(digests, "cex_i-N20000-factored", "cex_i", {"N": 20000}, _cex_i_oracle(20000)),
        _experiment_task(digests, "toeplitz-7x7", "toeplitz", {"m": 7, "n": 7}, _toeplitz_oracle(7, 7)),
        _experiment_task(digests, "toeplitz-6x9", "toeplitz", {"m": 6, "n": 9}, _toeplitz_oracle(6, 9)),
        _toeplitz_sample_task(10, 12, TOEPLITZ_SAMPLES, sample_seed),
        _ecc_task(generator, "min_distance"),
        _ecc_task(generator, "syndrome"),
        _event_task(weights, 16, 3),
        _spiked_task(30, spike),
        _bundle_task(
            digests,
            "code-presets",
            [("ecc", {"preset": p, "rule": r}) for p in ("hamming74", "code52") for r in ("syndrome", "min_distance")],
        ),
        _bundle_task(
            digests,
            "guarantee-presets",
            [
                ("table", {"preset": "headline-gap"}),
                ("table", {"preset": "bb84-headline"}),
                ("markov", {}),
                ("markov", {"mean": 0.001, "threshold": 0.01, "eps": 0.001, "delta": 0.5, "guarantees": 3}),
            ],
        ),
    ]


# -- cli-cold -------------------------------------------------------------


@dataclass(frozen=True)
class CliCase:
    name: str
    argv: tuple[str, ...]
    #: (experiment, params, seed, format) for a report; ("sweep", params, seed, "csv")
    #: for a sweep; None for an invalid invocation (exit 2).
    expect: tuple | None
    out_file: bool = False
    #: Key of the recorded digest of the API output, for seed-independent cases.
    digest_key: str | None = None


_ELAPSED = re.compile(r"^- elapsed: .*\n", re.MULTILINE)


def _report_case(name, experiment, params, fmt="json", seed=None, out_file=False) -> CliCase:
    argv = ["--experiment", experiment, "--params", json.dumps(params)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if fmt != "json":
        argv += ["--format", fmt]
    key = None if seed is not None else f"cli {json.dumps(argv)}"
    return CliCase(name, tuple(argv), (experiment, params, seed or 0, fmt), out_file, key)


def cli_cases(seed: int) -> list[CliCase]:
    rng = np.random.default_rng([seed, 3])
    sweep = {"experiment": "cex_ii", "grid": {"overlap": [0, 0.25, 0.5, 0.75, 1.0]}}
    cases = [
        _report_case("readme-cex_ii", "cex_ii", {"preset": "two-bit-orthogonal"}),
        _report_case("readme-cex_iii-md", "cex_iii", {"preset": "two-bit-mixed"}, "md"),
        _report_case("readme-spiked", "spiked", {"n": 8, "l": 3}),
        _report_case("readme-toeplitz", "toeplitz", {"m": 2, "n": 2}),
        _report_case("readme-ecc", "ecc", {"preset": "code52", "rule": "min_distance"}),
        _report_case("readme-table", "table", {"preset": "headline-gap"}),
        CliCase(
            "readme-sweep",
            ("--experiment", "sweep", "--params", json.dumps(sweep), "--format", "csv"),
            ("sweep", sweep, 0, "csv"),
            digest_key=f"cli sweep {json.dumps(sweep)}",
        ),
    ]
    presets = [("cex_ii", "preset", p) for p in ("two-bit-orthogonal", "two-bit-mixed")]
    presets += [("cex_iii", "preset", p) for p in ("two-bit-orthogonal", "two-bit-mixed")]
    presets += [("ecc", "preset", p) for p in ("hamming74", "code52")]
    presets += [("table", "preset", p) for p in ("headline-gap", "bb84-headline")]
    for fmt in ("json", "csv", "md"):
        for experiment, key, value in presets:
            cases.append(
                _report_case(f"{experiment}-{value}-{fmt}", experiment, {key: value}, fmt, out_file=fmt == "md")
            )
    invalid = [
        ("unknown-experiment", ("--experiment", "nosuch")),
        ("malformed-json", ("--experiment", "cex_i", "--params", '{"N": 4')),
        ("unknown-two-bit-preset", ("--experiment", "cex_ii", "--params", '{"preset": "nope"}')),
        ("unknown-code-preset", ("--experiment", "ecc", "--params", '{"preset": "nope"}')),
        ("toeplitz-13x13-over-cap", ("--experiment", "toeplitz", "--params", '{"m": 13, "n": 13}')),
        ("ecc-n21-over-cap", ("--experiment", "ecc", "--params", json.dumps({"generator": [[1] * 21]}))),
        ("missing-experiment", ("--params", "{}")),
    ]
    cases += [CliCase(f"invalid-{name}", argv, None) for name, argv in invalid]
    generator = _systematic_generator(rng, 8, 4)
    seeded = [
        _report_case(
            "seeded-toeplitz-sample",
            "toeplitz",
            {"m": 8, "n": 10, "mode": "sample", "samples": 500},
            seed=int(rng.integers(1, 2**63)),
        ),
        _report_case("seeded-cex_ii-overlap-csv", "cex_ii", {"overlap": round(float(rng.random()), 6)}, "csv"),
        _report_case("seeded-ecc-generator", "ecc", {"generator": generator, "rule": "syndrome"}),
        _report_case(
            "seeded-spiked", "spiked", {"n": int(rng.integers(10, 31)), "l": int(rng.integers(1, 10))}
        ),
    ]
    return cases + [replace(c, digest_key=None) for c in seeded]


#: Documented exit code 2, violated today (ROADMAP item 2).
CONTRACT_PROBES = (
    CliCase("contract-cex_i-non-integer-N", ("--experiment", "cex_i", "--params", '{"N": "abc"}'), None),
    CliCase("contract-markov-nan-mean", ("--experiment", "markov", "--params", '{"mean": NaN}'), None),
)


def _expected(case: CliCase) -> tuple[int, str] | None:
    """Exit code and output text that the API path gives for a case."""
    if case.expect is None:
        return None
    experiment, params, seed, fmt = case.expect
    if experiment == "sweep":
        text = tc.run_sweep(params["experiment"], params["grid"], seed=seed, base=params.get("base"))
        rows = [line for line in text.splitlines()[1:] if line]
        return (0 if all(r.rsplit(",", 1)[-1] == "True" for r in rows) else 1), text
    report = tc.run_experiment(experiment, params, seed)
    if fmt == "json":
        text = report.canonical_json() + "\n"
    elif fmt == "csv":
        text = tc_cli.render_csv(report)
    else:
        text = _ELAPSED.sub("", tc_cli.render_markdown(report))
    return (0 if report.all_ok() else 1), text


def _api_expectation(case: CliCase, digests: _Digests):
    """What a child must reproduce: (exit code, text), None for an invalid
    invocation, or the reason the API path itself is wrong."""
    if case.expect is None:
        return None
    try:
        code, text = _expected(case)
    except Exception as exc:  # a broken API path fails every run of the case
        return f"API path raised {type(exc).__name__}: {exc}"
    if case.digest_key is not None:
        reason = digests.check(case.digest_key, text)
        if reason:
            return reason
    return code, text


def _cli_check(case: CliCase, expected, out_path: Path | None):
    def check(out):
        code, stdout, stderr, written = out
        if isinstance(expected, str):
            return expected
        if "Traceback" in stderr:
            return f"exit {code} with a traceback"
        if expected is None:
            if code != 2:
                return f"invalid invocation exited {code}, contract says 2"
            return None if stdout == "" else "invalid invocation wrote to stdout"
        want_code, want_text = expected
        if code != want_code:
            return f"exit {code}, expected {want_code}"
        if stderr:
            return f"unexpected stderr: {stderr[:80]!r}"
        text = written if out_path is not None else stdout
        if out_path is not None and stdout:
            return "--out run also wrote to stdout"
        return None if text == want_text else "output differs from the API result"

    return check


def _normalized(code, stdout: str, stderr: str, out_path: Path | None):
    """(exit code, stdout, stderr, --out file) with Markdown timing lines removed."""
    written = out_path.read_text() if out_path is not None and out_path.exists() else ""
    return code, _ELAPSED.sub("", stdout), stderr, _ELAPSED.sub("", written)


def _kill(pidfd: int) -> None:
    try:
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], env: dict, stdout_path: Path, stderr_path: Path) -> tuple[int, float, int]:
    """Run one child to completion: (exit code, seconds, peak RSS in KiB).

    The child is killed if it outlives CHILD_TIMEOUT_S.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        pid = os.posix_spawn(
            argv[0],
            argv,
            env,
            file_actions=[
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
            ],
        )
        pidfd = os.pidfd_open(pid)
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill, (pidfd,))
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
            elapsed = time.perf_counter() - start
        finally:
            timer.cancel()
            timer.join()
            os.close(pidfd)
    return os.waitstatus_to_exitcode(status), elapsed, usage.ru_maxrss


class CliRunner:
    """Runs CLI cases as fresh `python -m tracecrit` children."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.peak_rss_kib = 0

    def child(self, args: list[str]) -> tuple[int, str, str]:
        out, err = self.work / "child.stdout", self.work / "child.stderr"
        code, _, rss = spawn([sys.executable, *args], self.env, out, err)
        self.peak_rss_kib = max(self.peak_rss_kib, rss)
        return code, out.read_text(), err.read_text()

    def out_path(self, case: CliCase) -> Path | None:
        return self.work / f"{case.name}.out" if case.out_file else None

    def argv(self, case: CliCase) -> list[str]:
        out_path = self.out_path(case)
        return list(case.argv) + (["--out", str(out_path)] if out_path else [])

    def child_task(self, case: CliCase, check) -> Task:
        out_path = self.out_path(case)
        argv = ["-m", "tracecrit", *self.argv(case)]

        def run():
            if out_path is not None:
                out_path.unlink(missing_ok=True)
            code, stdout, stderr = self.child(argv)
            return _normalized(code, stdout, stderr, out_path)

        return Task(case.name, run, check)

    def replay_task(self, case: CliCase, check) -> Task:
        """The same invocation through `cli.main` in this process."""
        out_path = self.out_path(case)
        argv = self.argv(case)

        def run():
            if out_path is not None:
                out_path.unlink(missing_ok=True)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = tc_cli.main(argv)
                except SystemExit as exc:  # argparse refusals
                    code = exc.code
            return _normalized(code, stdout.getvalue(), stderr.getvalue(), out_path)

        return Task(case.name, run, check)


def cli_cold(seed: int, root: Path, work: Path) -> Workload:
    runner = CliRunner(root, work)
    cases = cli_cases(seed)
    digests = _Digests()
    checks = [_cli_check(c, _api_expectation(c, digests), runner.out_path(c)) for c in cases]
    wl = Workload("cli-cold", seed, [runner.child_task(c, k) for c, k in zip(cases, checks)])
    wl.replay = [runner.replay_task(c, k) for c, k in zip(cases, checks)]
    wl.contract_probes = [runner.child_task(c, _cli_check(c, None, None)) for c in CONTRACT_PROBES]
    wl.input_digest = sha256(repr([c.argv for c in cases]))
    wl.runner = runner
    return wl


# -- entry points ---------------------------------------------------------


def build(name: str, seed: int, root: Path, work: Path) -> Workload:
    """Generate the seeded inputs and the task list of one workload."""
    if name == "cli-cold":
        return cli_cold(seed, root, work)
    digests = _Digests()
    if name == "quantum-ensembles":
        tasks = quantum_ensembles(seed, digests)
    elif name == "classical-enumeration":
        tasks = classical_enumeration(seed, digests)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, seed, tasks, input_digest=digests.inputs.hexdigest())

