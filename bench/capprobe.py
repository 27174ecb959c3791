"""One-off probe of each size cap's worst case (not a workload, not gated).

    python3 bench/capprobe.py [--timeout 60]

Each case runs once in a fresh child process with a per-case timeout.  The
child times only the capped call, after building its inputs; a case that
outlives the timeout is killed and recorded as such.  Results are printed
and written to .bench_work/capprobe.json.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_PRELUDE = """
import time
import numpy as np
import tracecrit as tc
from tracecrit.ensembles import bit_strings
rng = np.random.default_rng(0)
"""

#: cap name -> (worst case allowed by the cap, code that sets `call`)
CASES = {
    "MAX_DENSE_COUPLING": (
        "cex_i N=1024 (dense Fraction maximal coupling)",
        "call = lambda: tc.run_experiment('cex_i', {'N': 1024})",
    ),
    "CENSUS_BIT_CAP": (
        "ecc [20,10] min_distance census",
        "g = np.concatenate([np.eye(10, dtype=int), rng.integers(0, 2, (10, 10))], axis=1).tolist()\n"
        "call = lambda: tc.run_experiment('ecc', {'generator': g, 'rule': 'min_distance'})",
    ),
    "EVENT_CAP n=20 m=3": (
        "event_deviation_bound n=20 m=3 (1140 passes over 2^20 masses)",
        "w = rng.random(2**20); w = (w / w.sum()).tolist()\n"
        "p = tc.ProbDist(bit_strings(20), tuple(w))\n"
        "call = lambda: tc.event_deviation_bound(p, 3)",
    ),
    "EVENT_CAP n=20 m=7": (
        "event_deviation_bound n=20 m=7 (largest m under the cap at n=20)",
        "w = rng.random(2**20); w = (w / w.sum()).tolist()\n"
        "p = tc.ProbDist(bit_strings(20), tuple(w))\n"
        "call = lambda: tc.event_deviation_bound(p, 7)",
    ),
    "EXHAUSTIVE_SEED_CAP": (
        "toeplitz 12x13 exhaustive (2^24 seeds)",
        "call = lambda: tc.run_experiment('toeplitz', {'m': 12, 'n': 13})",
    ),
    "ENTANGLED_DIM_CAP": (
        "criterion_d_entangled at joint dim 256 (n=6, probe dim 4)",
        "def rho():\n"
        "    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)); m = g @ g.conj().T\n"
        "    return tc.validate_density(m / np.trace(m).real)\n"
        "keys = bit_strings(6)\n"
        "e = tc.CqEnsemble(6, tc.ProbDist.uniform(keys), {k: rho() for k in keys})\n"
        "call = lambda: tc.criterion_d_entangled(e)",
    ),
}


def probe(code: str, timeout: float) -> dict:
    script = _PRELUDE + code + "\nt = time.perf_counter(); call(); print(time.perf_counter() - t)\n"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    try:
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"status": "timeout", "seconds": None}
    if done.returncode != 0:
        return {"status": f"exit {done.returncode}", "seconds": None, "stderr": done.stderr[-400:]}
    return {"status": "ok", "seconds": float(done.stdout.split()[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--timeout", type=float, default=60.0, help="seconds per case")
    args = parser.parse_args(argv)
    results = {}
    for cap, (case, code) in CASES.items():
        result = {"case": case, "timeout_s": args.timeout, **probe(code, args.timeout)}
        results[cap] = result
        shown = f"{result['seconds']:.3f} s" if result["seconds"] is not None else result["status"]
        print(f"{cap:22s} {case:64s} {shown}", flush=True)
    out = ROOT / ".bench_work" / "capprobe.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
