"""tracecrit benchmark: one workload, one closed-loop client, seeded inputs.

    python3 bench/run.py --workload quantum-ensembles --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports the package from `src/`.
With `--trace 0` it times passes over the workload's task list for
`--seconds` and prints the end-to-end metrics; with `--trace 1` it
alternates untraced and traced passes and prints the per-layer metrics.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: the matrices are small (dim <= 256) and a single thread
# keeps the timings steady.  Set before numpy is imported, also for children.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Metric names and units of each section of BENCHMARK.json, in its order.
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
#: Set-ups measured per run (this process plus fresh children); setup_s is their median.
SETUPS = 5
#: Task latencies needed before p90 is reported.
MIN_SAMPLES = 100
#: A run stops starting passes after this long, whatever else is unmet.
HARD_STOP_S = 140.0
#: Traced passes kept at most, which bounds the spans held in memory.
MAX_TRACED_PASSES = 20
#: Fresh interpreters timed for cli.interp_ms and cli.import_ms.
START_PROBES = 9
#: Iterations of the calibration loop (about 5 ms).
CALIBRATION_LOOPS = 30_000
#: Calibrations after each task, and before and after each set-up: one
#: alone is often hit by a stall of the host, which takes 10-20 ms.
TASK_CALIBRATIONS = 3
SETUP_CALIBRATIONS = 5
#: Seconds the calibration loop takes on the reference host (a 2-vCPU VM,
#: Python 3.11): timings are reported in seconds at this host speed.
REFERENCE_CALIBRATION_S = 0.0052
#: Every calibration of this run, for the record.
calibrations: list[float] = []


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="set up once, print the seconds it took")
    return p.parse_args(argv)


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's current speed.

    The host is shared, and the speed of each of its CPUs drifts by up to
    2x over tens of seconds to minutes.  The benchmark and its children run
    on one CPU (see `main`), and every timing is scaled by
    REFERENCE_CALIBRATION_S over the calibration seconds around it, which
    takes that drift out and keeps a change in tracecrit's own speed in
    full.
    """
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(CALIBRATION_LOOPS):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 63] = acc
    seconds = time.perf_counter() - start
    calibrations.append(seconds)
    return seconds


def calibrations_now(count: int) -> list[float]:
    return [calibrate() for _ in range(count)]


def normalized(seconds: float, around: list[float]) -> float:
    """`seconds` at the reference host speed, from the calibrations around it.

    The mean, not the median or the minimum: the host slows a process
    mostly by stalling it, and a task of any length takes the stalls in
    proportion to its length, as the mean calibration does.
    """
    return seconds * REFERENCE_CALIBRATION_S / statistics.fmean(around)


def setup(workload: str, seed: int):
    """Import tracecrit, generate the seeded inputs, warm up: (workload, seconds).

    The seconds are normalized to the reference host speed.
    """
    before = calibrations_now(SETUP_CALIBRATIONS)
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import tracecrit

    if Path(tracecrit.__file__).resolve().parent != ROOT / "src" / "tracecrit":
        raise SystemExit(f"error: imported tracecrit from {tracecrit.__file__}, not from src/")
    import workloads

    WORK.mkdir(exist_ok=True)
    wl = workloads.build(workload, seed, ROOT, WORK)
    # Warm-up: numpy/BLAS first-call costs, and byte-compiling the package
    # for the children of cli-cold.
    warm = wl.tasks[-1]
    warm.check(warm.run())
    seconds = time.perf_counter() - start
    return wl, normalized(seconds, before + calibrations_now(SETUP_CALIBRATIONS))


def setup_seconds(args, own: float) -> list[float]:
    """This process's set-up time plus that of fresh child processes."""
    times = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUPS - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def run_pass(tasks, tracer=None):
    """One pass over the task list: (seconds, latencies, failures, fingerprints).

    Latencies are normalized to the reference host speed by calibrations
    before and after each task; `seconds` is their sum.
    """
    import workloads

    latencies, failures, prints = [], [], []
    gc.collect()
    before = calibrations_now(TASK_CALIBRATIONS)
    for index, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = index
        start = time.perf_counter()
        try:
            out = task.run()
        except Exception as exc:  # a task that raises is a failed task, the run goes on
            out, reason = None, f"raised {type(exc).__name__}: {exc}"
        else:
            reason = None
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.task = -1
        after = calibrations_now(TASK_CALIBRATIONS)
        latencies.append(normalized(elapsed, before + after))
        before = after
        if reason is None:
            reason = task.check(out)
            prints.append(workloads.fingerprint(out))
        else:
            prints.append(None)
        if reason:
            failures.append(f"{task.name}: {reason}")
    return sum(latencies), latencies, failures, prints


def measure(wl, seconds: float):
    """Untraced passes until `seconds` have passed and p90 has enough samples.

    Returns pass times, per-pass task latencies and failures; the samples
    are also written to .bench_work/samples-<workload>-seed<seed>.json.
    """
    walls, passes, failures = [], [], []
    begin = time.perf_counter()
    while True:
        wall, lat, fails, _ = run_pass(wl.tasks)
        walls.append(wall)
        passes.append(lat)
        failures += fails
        elapsed = time.perf_counter() - begin
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and sum(map(len, passes)) >= MIN_SAMPLES):
            break
    samples = {"tasks": [t.name for t in wl.tasks], "walls": walls, "latencies": passes}
    (WORK / f"samples-{wl.name}-seed{wl.seed}.json").write_text(json.dumps(samples))
    return walls, [x for lat in passes for x in lat], failures


def start_probes(runner_env) -> tuple[float, float]:
    """Median ms of a bare interpreter, and of `import tracecrit` on top of it."""
    import workloads

    def timed(code: str) -> float:
        times = []
        for _ in range(START_PROBES):
            rc, secs, _ = workloads.spawn(
                [sys.executable, "-c", code], runner_env, WORK / "probe.stdout", WORK / "probe.stderr"
            )
            if rc != 0:
                raise RuntimeError(f"start probe {code!r} exited {rc}")
            times.append(secs)
        return statistics.median(times) * 1e3

    interp = timed("pass")
    return interp, timed("import tracecrit") - interp


def measure_traced(wl, seconds: float):
    """Alternate untraced and traced passes; per-layer metrics of the traced ones."""
    import spans

    tasks = wl.replay or wl.tasks
    failures, mismatches, plain_latencies = [], [], []
    tracer = spans.Tracer()
    plain, traced = [], []
    attempted = 0
    begin = time.perf_counter()
    while True:
        wall, latencies, fails, plain_prints = run_pass(tasks)
        plain.append(wall)
        plain_latencies += latencies
        failures += fails
        tracer.install()
        try:
            wall, _, fails, traced_prints = run_pass(tasks, tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        failures += fails
        attempted += 2 * len(tasks)
        mismatches += [t.name for t, a, b in zip(tasks, plain_prints, traced_prints) if a != b]
        elapsed = time.perf_counter() - begin
        if elapsed >= seconds or elapsed >= HARD_STOP_S or len(traced) >= MAX_TRACED_PASSES:
            break
    tracer.write(WORK / f"spans-{wl.name}-seed{wl.seed}.tsv")
    metrics = tracer.layer_metrics(len(traced))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    interp_ms, import_ms = start_probes(env)
    metrics["cli.interp_ms"] = interp_ms
    metrics["cli.import_ms"] = import_ms
    # The rest of a CLI task once the package is imported: cli.main in process.
    metrics["cli.run_ms"] = statistics.median(plain_latencies) * 1e3 if wl.replay else 0.0
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = overhead / statistics.median(plain)
    failures += [f"{name}: traced output differs from untraced" for name in mismatches]
    return {name: (metrics[name], unit) for name, unit in PER_LAYER.items()}, attempted, failures


def environment(loadavg) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": int(BLAS_THREADS),
        "loadavg_at_start": [round(v, 2) for v in loadavg],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # One CPU for this process and every child: the calibrations then run
    # where the timed work runs, and no task migrates between CPUs of
    # different speed.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "tracecrit" / "__init__.py").is_file():
        print(f"error: no tracecrit sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    loadavg = os.getloadavg()
    if not args.setup_only:
        # Fill the file cache with the interpreter and package files, so
        # set-up times are not a cold read from disk.
        child_env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        subprocess.run([sys.executable, "-c", "import tracecrit"], env=child_env, check=True, timeout=120)
    wl, own_setup = setup(args.workload, args.seed)
    if args.setup_only:
        print(repr(own_setup))
        return 0
    env = environment(loadavg)

    if args.trace:
        metrics, attempted, failures = measure_traced(wl, args.seconds)
    else:
        setups = setup_seconds(args, own_setup)
        walls, latencies, failures = measure(wl, args.seconds)
        attempted = len(latencies)
        if wl.runner is not None:
            rss_kib = wl.runner.peak_rss_kib
        else:
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        deciles = statistics.quantiles(latencies, n=10, method="inclusive")
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "task_p50_ms": deciles[4] * 1e3,
            "task_p90_ms": deciles[8] * 1e3,
            "peak_rss_mib": rss_kib / 1024.0,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        print(f"passes {len(walls)}  task samples {len(latencies)}  setups {[round(s, 4) for s in setups]}")
    print(f"calibration median {statistics.median(calibrations):.6f} s, reference {REFERENCE_CALIBRATION_S} s")

    # Known contract violations: checked every run, reported, never timed.
    probes = [(t.name, t.check(t.run())) for t in wl.contract_probes]
    print(json.dumps({"env": env}))
    for name, reason in probes:
        print(f"contract probe {name}: {'VIOLATED (' + reason + ')' if reason else 'holds'}")
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    failed = len(failures)
    print(f"failed_frac {failed / attempted:.6f} ({failed} of {attempted} tasks)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
