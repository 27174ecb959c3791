"""Command-line front end.

One experiment per invocation; parameters arrive as a JSON string or a
path to a JSON file.  Exit code 0 means every verdict was PASS or
NOT-APPLICABLE, 1 means at least one FAIL, 2 means the invocation itself
was invalid.  `run` is the one way a process ends: every entry point
calls it.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import sys
from pathlib import Path
from typing import NoReturn

from .errors import ToolkitError
from .experiments import REGISTRY, ExperimentReport, _csv_text, _read_text, _sweep, run_experiment


def uint64(text: str) -> int:
    """An integer in [0, 2^64); argparse reports anything else as invalid."""
    value = int(text)
    if not 0 <= value < 2**64:
        raise ValueError(text)
    return value


class _Parser(argparse.ArgumentParser):
    """Refuses an invocation with one ``error:`` line, as every other exit 2
    does, and writes its help through `_write_stdout`, so a help text that
    cannot be written is refused too."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")

    def print_help(self):  # argparse's help action passes no file
        _write_stdout(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tracecrit",
        description=(
            "Deterministic experiments probing the trace-distance security "
            "criterion for quantum-generated keys"
        ),
    )
    parser.add_argument(
        "--experiment",
        required=True,
        help=f"one of: {', '.join(sorted(REGISTRY))}, or 'sweep'",
    )
    parser.add_argument(
        "--params",
        default="{}",
        help="experiment parameters as a JSON string or a path to a JSON file",
    )
    parser.add_argument("--seed", type=uint64, default=0, help="seed in [0, 2^64) (default 0)")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument(
        "--format",
        choices=tuple(RENDERERS),
        default=None,
        help="json (default), csv or md; a sweep writes csv only",
    )
    return parser


def load_params(raw: str) -> dict:
    """Parse --params as inline JSON when it starts with { or [, else as a file path."""
    text = raw.strip()
    if not text.startswith(("{", "[")):
        try:
            text = _read_text(text)
        except (OSError, ValueError) as exc:  # ValueError: undecodable or NUL in path
            raise ToolkitError(f"params is neither inline JSON nor a readable file: {exc}") from None
    try:
        parsed = json.loads(text, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:  # an int past Python's digit limit; nested too deep
        raise ToolkitError(f"bad JSON in --params: {exc}") from None
    if not isinstance(parsed, dict):
        raise ToolkitError("params must decode to a JSON object")
    return parsed


def _reject_constant(name: str):
    raise ToolkitError(f"params must be finite numbers, got {name}")


def render_csv(report: ExperimentReport) -> str:
    doc = report.to_dict()
    rows = [["field", "value"]]
    for key, value in sorted(doc["results"].items()):
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True, separators=(",", ":"))
        rows.append([key, value if isinstance(value, str) else repr(value)])
    rows += [[f"verdict:{v['relation']}", v["status"]] for v in doc["verdicts"]]
    return _csv_text(rows)


def render_markdown(report: ExperimentReport) -> str:
    doc = report.to_dict(include_timing=True)
    lines = [f"# experiment: {doc['experiment']}", ""]
    lines.append(f"- seed: {doc['seed']}")
    lines.append(f"- version: {doc['version']}")
    if "elapsed_seconds" in doc:
        lines.append(f"- elapsed: {doc['elapsed_seconds']:.4f} s")
    lines.append(f"- params: `{json.dumps(doc['params'], sort_keys=True)}`")
    lines.append("")
    rows = [("result", "value")] + [
        (k, json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else repr(v))
        for k, v in sorted(doc["results"].items())
    ]
    width0 = max(len(r[0]) for r in rows)
    width1 = max(len(r[1]) for r in rows)
    lines.append(f"| {rows[0][0].ljust(width0)} | {rows[0][1].ljust(width1)} |")
    lines.append(f"| {'-' * width0} | {'-' * width1} |")
    for name, value in rows[1:]:
        lines.append(f"| {name.ljust(width0)} | {value.ljust(width1)} |")
    lines.append("")
    for v in doc["verdicts"]:
        lines.append(f"- **{v['status']}** {v['relation']}: {v['detail']}")
    return "\n".join(lines) + "\n"


RENDERERS = {
    "json": lambda report: report.canonical_json() + "\n",
    "csv": render_csv,
    "md": render_markdown,
}


def _write_stdout(text: str = "") -> None:
    """Write `text` to stdout and flush it.  A failed write, such as into a
    closed pipe, points stdout at os.devnull, so that no later flush retries
    it, and is refused as a `ToolkitError`."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise ToolkitError(f"cannot write to stdout: {exc}") from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        _write_stdout(text)
        return
    try:
        Path(out).write_text(text)
    except (OSError, ValueError) as exc:  # ValueError: NUL in path
        raise ToolkitError(f"cannot write --out file: {exc}") from None


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        params = load_params(args.params)
        if args.experiment == "sweep":
            if args.format not in (None, "csv"):
                raise ToolkitError(f"a sweep writes csv, not {args.format}")
            if not params.get("experiment") or set(params) - {"experiment", "grid", "base"}:
                raise ToolkitError(f"sweep params are 'experiment', 'grid' and 'base', got {sorted(params)!r}")
            grid, base = params.get("grid", {}), params.get("base")
            rows, ok = _sweep(params["experiment"], grid, args.seed, base)
            text = _csv_text(rows)
        else:
            report = run_experiment(args.experiment, params, seed=args.seed)
            text = RENDERERS[args.format or "json"](report)
            ok = report.all_ok()
        _emit(text, args.out)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


def run() -> NoReturn:
    """Run `main` as a whole process and end it without interpreter teardown.

    After `main` returns, or argparse exits with an int code (`--help`, a
    usage refusal), the atexit handlers run, stdout and stderr are flushed,
    as `Py_FinalizeEx` does, and `os._exit` ends the process: no output
    depends on tearing down the modules numpy and the package created.  Any
    other exception leaves through the interpreter as usual.
    """
    try:
        code = main()
    except SystemExit as exc:
        if not isinstance(exc.code, int):
            raise
        code = exc.code
    atexit._run_exitfuncs()
    try:
        _write_stdout()  # what argparse or an atexit handler wrote
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
