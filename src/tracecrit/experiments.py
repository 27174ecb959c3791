"""Named experiments with machine-readable reports.

Each experiment reproduces one quantitative claim of the analysis as a
deterministic computation: given the same parameters and seed it emits a
byte-identical canonical JSON report.  Verdicts state whether the tested
relation held, failed, or did not apply to the supplied instance.

This module is the core every request runs: parameter kinds, binding,
reports, sweeps.  The commands live in one module per family (`two_bit`,
`classical`, `gf2`), which `REGISTRY` names and `_command` imports on first
use, so a request compiles only its own family.
"""

import importlib
import itertools
import json
import math
import numbers
import sys
import time
from typing import Mapping, NamedTuple

from . import __version__
from .errors import BadParams, ParseError, TooLarge, UnknownExperiment

PASS = "PASS"
FAIL = "FAIL"
NOT_APPLICABLE = "NOT-APPLICABLE"

#: Longest parameter or code file read, in bytes; a 20x20 generator file
#: is under 1 KiB.
_MAX_FILE_BYTES = 2**20
#: Grid points a sweep may hold: each costs about 200 bytes before the
#: first point runs, so the cap bounds memory (about 13 MiB), not time.
_MAX_SWEEP_POINTS = 2**16


class Verdict(NamedTuple):
    relation: str
    status: str
    detail: str


def _verdict(relation: str, ok: bool, detail: str, skip: str | None = None) -> Verdict:
    """PASS or FAIL by ``ok``; given a ``skip`` reason, NOT-APPLICABLE with that reason as its detail."""
    if skip is not None:
        return Verdict(relation, NOT_APPLICABLE, skip)
    return Verdict(relation, PASS if ok else FAIL, detail)


def _all_pass(verdicts) -> bool:
    """Whether no verdict FAILed: NOT-APPLICABLE passes, as in the exit code."""
    return all(v.status != FAIL for v in verdicts)


def _is_integer(value) -> bool:
    """Whether a value is an integer: an Integral other than a bool, or an integral float."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    return integral or (isinstance(value, float) and value.is_integer())


def _int_param(value, name: str) -> int:
    """An integer parameter; strings, booleans, non-integral numbers and
    magnitudes above 2^53, past which floats skip integers, exit 2."""
    if _is_integer(value):
        if abs(value) <= 2**53:
            return int(value)
        raise BadParams(f"parameter {name!r} must have magnitude at most 2^53")
    raise BadParams(f"parameter {name!r} must be an integer, got {value!r}")


def _seed(seed) -> int:
    """The seed as an int in [0, 2^64), the range the CLI's --seed takes;
    anything else exits 2."""
    if _is_integer(seed) and 0 <= seed < 2**64:
        return int(seed)
    raise BadParams(f"seed must be an integer in [0, 2^64), got {seed!r}")


def _float_param(value, name: str) -> float:
    """A finite real parameter; strings, booleans, containers and non-finite
    or out-of-range numbers exit 2."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if real and abs(value) <= sys.float_info.max:  # NaN fails too
        return float(value)
    raise BadParams(f"parameter {name!r} must be a finite number, got {value!r}")


def _int_list_param(value, name: str) -> tuple[int, ...]:
    """A non-empty list of integer parameters, as a tuple."""
    if not isinstance(value, (list, tuple)) or not value:
        raise BadParams(f"parameter {name!r} must be a non-empty list of integers, got {value!r}")
    return tuple(_int_param(v, name) for v in value)


def _preset(name, presets: Mapping, kind: str):
    """The named entry of a preset table; unknown or non-string names exit 2."""
    if not isinstance(name, str) or name not in presets:
        raise ParseError(f"unknown {kind} preset {name!r}")
    return presets[name]


#: The exact types `_jsonify` returns as they are; numpy integers and floats go on.
_PLAIN = {int, str, bool, type(None)}


def _jsonify(value):
    """Coerce results into JSON-safe, canonical-friendly values."""
    kind = type(value)
    if kind is float:  # the common case first, without the numbers ABCs
        return value if math.isfinite(value) else repr(value)
    if kind in _PLAIN:
        return value
    if isinstance(value, dict):
        if set(map(type, value.values())) <= _PLAIN and set(map(type, value)) <= {str}:
            return dict(value)  # a flat map, an ecc census's 2^k region sizes, copied without recursion
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, numbers.Integral):  # numpy integers register as Integral
        return int(value)
    if isinstance(value, numbers.Real):  # numpy floats and Fractions, as their float
        return _jsonify(float(value))
    return value


class ExperimentReport(NamedTuple):
    """One experiment run: inputs, named numeric results, verdicts.

    The canonical JSON form excludes elapsed time, so repeated runs with
    identical (parameters, seed) serialize byte-identically.
    """

    experiment: str
    params: dict
    seed: int
    results: dict
    verdicts: tuple[Verdict, ...]
    version: str
    elapsed_seconds: float | None = None

    def all_ok(self) -> bool:
        return _all_pass(self.verdicts)

    def to_dict(self, include_timing: bool = False) -> dict:
        doc = {
            "experiment": self.experiment,
            "params": _jsonify(self.params),
            "seed": self.seed,
            "results": _jsonify(self.results),
            "verdicts": [v._asdict() for v in self.verdicts],
            "version": self.version,
        }
        if include_timing and self.elapsed_seconds is not None:
            doc["elapsed_seconds"] = self.elapsed_seconds
        return doc

    def canonical_json(self) -> str:
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False
        )


def _read_text(path: str) -> str:
    """The UTF-8 text of a file of at most _MAX_FILE_BYTES bytes, read no further."""
    with open(path, "rb") as f:
        data = f.read(_MAX_FILE_BYTES + 1)
    if len(data) > _MAX_FILE_BYTES:
        raise TooLarge(f"file {path!r} is longer than {_MAX_FILE_BYTES} bytes")
    return data.decode()


#: Each experiment by name, with the module that defines its command,
#: `cmd_<name>`; a module is imported at the first run of one of its
#: experiments, so a request loads and compiles its own family only.
REGISTRY = {
    "cex_i": "classical",
    "cex_ii": "two_bit",
    "cex_iii": "two_bit",
    "spiked": "classical",
    "toeplitz": "gf2",
    "ecc": "gf2",
    "markov": "classical",
    "table": "classical",
}
#: Each command imported so far, by experiment name.
_COMMANDS: dict = {}


def _command(name):
    """The command of the experiment registered as ``name``, imported from
    its module on first use and kept; any other name, a non-string
    included, raises UnknownExperiment."""
    if not isinstance(name, str) or name not in REGISTRY:
        raise UnknownExperiment(f"unknown experiment {name!r}; available: {', '.join(sorted(REGISTRY))}")
    command = _COMMANDS.get(name)
    if command is None:
        module = importlib.import_module(f".{REGISTRY[name]}", __package__)
        command = _COMMANDS[name] = getattr(module, f"cmd_{name}")
    return command


def _kinds(name: str, keys) -> dict:
    """The command's parameter kinds, its annotations, by name; a key it does
    not declare, as a keyword-only parameter after the seed, raises ParseError."""
    command = _command(name)
    declared = command.__kwdefaults__
    undeclared = [k for k in keys if k not in declared]
    if undeclared:
        raise ParseError(f"{name} has no parameters {undeclared!r}; it declares {', '.join(declared)}")
    return command.__annotations__


def _coerce(kinds: dict, key: str, value):
    """The value by its parameter's kind, if it has one; null raises ParseError."""
    if value is None:
        raise ParseError(f"parameter {key!r} is null; omit it to take its default")
    kind = kinds.get(key)
    return value if kind is None else kind(value, key)


def _bind(name: str, params: Mapping) -> dict:
    """Every given value by its parameter's kind, whether the run reads it or not."""
    kinds = _kinds(name, params)
    return {k: _coerce(kinds, k, v) for k, v in params.items()}


def run_experiment(name: str, params: Mapping | None = None, seed: int = 0) -> ExperimentReport:
    """Run one registered experiment and wrap its results in a report; a seed
    outside [0, 2^64), a null or mistyped value or a name its signature
    lacks raises before it runs."""
    command = _command(name)
    seed = _seed(seed)
    params = dict(params or {})
    kwargs = _bind(name, params)
    start = time.perf_counter()
    results, verdicts = command(seed, **kwargs)
    elapsed = time.perf_counter() - start
    return ExperimentReport(
        experiment=name,
        params=params,
        seed=seed,
        results=results,
        verdicts=tuple(verdicts),
        version=__version__,
        elapsed_seconds=elapsed,
    )


def run_sweep(
    experiment: str,
    grid: Mapping[str, list],
    seed: int = 0,
    base: Mapping | None = None,
) -> str:
    """One CSV row per grid point, ordered by grid index.

    The grid is the cartesian product of the per-parameter value lists in
    declaration order; rows are independent, so a fixed seed makes the
    whole sweep reproducible byte for byte.  The seed, the base and every
    grid value are checked before the first point runs.  The result
    columns are the sorted union of every point's scalar results, blank
    where a point lacks one; a grid value that is a list or an object is
    written as compact JSON.
    """
    return _csv_text(_sweep(experiment, grid, seed, base)[0])


def _sweep(experiment: str, grid: Mapping[str, list], seed, base: Mapping | None) -> tuple[list, bool]:
    """The rows of `run_sweep`'s CSV, header first, and whether every point passed."""
    command = _command(experiment)
    seed = _seed(seed)
    if not isinstance(grid, Mapping) or not all(
        isinstance(v, (list, tuple)) for v in grid.values()
    ):
        raise ParseError(f"sweep grid must map parameter names to value lists, got {grid!r}")
    if base is not None and not isinstance(base, Mapping):
        raise ParseError(f"sweep base must be a parameter object, got {base!r}")
    count = math.prod(len(v) for v in grid.values())
    if count > _MAX_SWEEP_POINTS:
        raise TooLarge(f"sweep grid has {count} points, above the cap of {_MAX_SWEEP_POINTS}")
    base = _bind(experiment, base or {})
    names = list(grid.keys())
    kinds = _kinds(experiment, names)
    columns = [[_coerce(kinds, k, v) for v in grid[k]] for k in names]
    given = itertools.product(*(grid[k] for k in names))
    points = [] if not names else list(zip(given, itertools.product(*columns)))

    runs = []
    for point, bound in points:
        results, verdicts = command(seed, **{**base, **dict(zip(names, bound))})
        cells = [json.dumps(v, sort_keys=True, separators=(",", ":")) if isinstance(v, (dict, list)) else v for v in point]
        scalars = {k: v for k, v in _jsonify(results).items() if isinstance(v, (int, float, str))}
        runs.append((cells, scalars, _all_pass(verdicts)))
    result_keys = sorted(set().union(*(scalars for _, scalars, _ in runs)))  # a point may lack a result
    rows = [[i, *cells, *(scalars.get(k, "") for k in result_keys), ok] for i, (cells, scalars, ok) in enumerate(runs)]
    header = [f"result:{k}" if k in names else k for k in result_keys]  # own column: a table preset overrides a grid n
    return [["grid_index", *names, *header, "all_pass"], *rows], all(ok for *_, ok in runs)


def _csv_text(rows) -> str:
    """CSV with minimal quoting and bare newline line ends."""
    import csv
    import io

    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()
