"""Span tracing of the tracecrit modules from outside the package.

`Tracer.install()` wraps every public function of each traced module, the
validating `__post_init__` of the package's dataclasses and
`ExperimentReport.canonical_json`, and rebinds each wrapper in every
`tracecrit.*` namespace that holds the original.  `Tracer.uninstall()`
puts every original back.  Spans (name, start, end, parent, task) are kept
in memory; `layer_metrics()` reduces them to the per-module figures and
`write()` dumps them as TSV.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from fractions import Fraction

#: Traced layers, in report order; each is a module of the package.
LAYERS = (
    "qmath",
    "ensembles",
    "criteria",
    "discrimination",
    "coupling",
    "sidechannel",
    "bounds",
    "experiments",
    "cli",
)

#: Dataclasses whose validating constructor hook is traced, by layer.
POST_INITS = {
    "qmath": ("DensityOperator",),
    "ensembles": ("ProbDist", "CqEnsemble"),
    "discrimination": ("Povm",),
    "coupling": ("Coupling",),
    "sidechannel": ("LinearCode",),
}

EIGENSOLVERS = ("qmath.trace_norm", "qmath.hermitian_eigen", "qmath.DensityOperator.__post_init__")
PARSE_SPANS = ("cli.build_parser", "cli.load_params")
RENDER_SPANS = ("cli.render_csv", "cli.render_markdown", "experiments.ExperimentReport.canonical_json")

# Computed counters: after a traced call returns, its hook receives the
# call's arguments and adds to `counters` the work the call did.


def _eigensolve(counters, a, *_, **__):
    d = len(a)
    counters["eig_work"] += d**3
    counters["eig_dim_max"] = max(counters["eig_dim_max"], d)


def _density(counters, self):
    _eigensolve(counters, self.matrix)


def _probdist(counters, self):
    counters["probdist_masses"] += len(self.probs)
    counters["exact_masses"] += sum(isinstance(v, (int, Fraction)) for v in self.probs)


def _events(counters, p, m):
    if hasattr(p, "labels"):  # dense ProbDist; the spiked form is closed-form
        counters["event_passes"] += math.comb(len(p.labels[0]), m)


def _entangled(counters, e):
    dim = 2**e.n_bits * e.probe_dim
    counters["entangled_dim_max"] = max(counters["entangled_dim_max"], dim)


def _criteria_products(counters, e, povm):
    counters["criteria_products"] += len(e.keys) * len(povm.elements)


def _measure_products(counters, e, m):
    counters["discrimination_products"] += len(e.keys) * len(m.elements)


def _guess_products(counters, e, m, guess):
    counters["discrimination_products"] += len(guess)


def _povm(counters, self):
    counters["povm_eigensolves"] += len(self.elements)


def _coupling(counters, self):
    counters["atoms"] += len(self.row_labels)
    if self.joint is not None:
        counters["cells"] += len(self.row_labels) * len(self.col_labels)


def _seeds(counters, m, n, mode="exhaustive", samples=None, seed=None):
    counters["seeds"] += 2 ** (m + n - 1) if mode == "exhaustive" else int(samples)


def _census(counters, code, rule="syndrome"):
    candidates = 2**code.k if rule == "min_distance" else 1
    counters["census_pairs"] += 2**code.n * candidates


HOOKS = {
    "qmath.trace_norm": _eigensolve,
    "qmath.hermitian_eigen": _eigensolve,
    "qmath.DensityOperator.__post_init__": _density,
    "ensembles.ProbDist.__post_init__": _probdist,
    "criteria.event_deviation_bound": _events,
    "criteria.criterion_d_entangled": _entangled,
    "criteria.delta_E_variants": _criteria_products,
    "discrimination.measure_ensemble": _measure_products,
    "discrimination.success_probability": _guess_products,
    "discrimination.Povm.__post_init__": _povm,
    "coupling.Coupling.__post_init__": _coupling,
    "sidechannel.singular_fraction": _seeds,
    "sidechannel.decision_region_census": _census,
}

COUNTERS = (
    "eig_work",
    "eig_dim_max",
    "probdist_masses",
    "exact_masses",
    "event_passes",
    "entangled_dim_max",
    "criteria_products",
    "discrimination_products",
    "povm_eigensolves",
    "atoms",
    "cells",
    "seeds",
    "census_pairs",
)


class Tracer:
    """Records spans of calls into the package while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.task = -1
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        spans, stack, counters = self.spans, self.stack, self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.task)
            if hook is not None:  # count only work that was accepted
                hook(counters, *args, **kwargs)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        namespaces = [
            m for n, m in sorted(sys.modules.items()) if n == "tracecrit" or n.startswith("tracecrit.")
        ]
        for layer in LAYERS:
            module = sys.modules[f"tracecrit.{layer}"]
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._saved.append((ns, key, fn))
                            setattr(ns, key, wrapper)
            for cls_name in POST_INITS.get(layer, ()):
                self._patch(getattr(module, cls_name), "__post_init__", f"{layer}.{cls_name}.__post_init__")
        report = sys.modules["tracecrit.experiments"].ExperimentReport
        self._patch(report, "canonical_json", "experiments.ExperimentReport.canonical_json")

    def _patch(self, cls, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        self._saved.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- reduction ----------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass averages of the per-layer metrics over all recorded spans.

        Keys are a superset of the reported ones (every layer gets `calls`,
        `busy_s` and `self_s`); metrics that need the benchmark's own
        timings (`cli.interp_ms`, `cli.import_ms`, `cli.run_ms`,
        `trace.overhead_*`) are left to the caller.
        """
        layer_of = [LAYERS.index(n.split(".", 1)[0]) for n in self.names]
        n_layers = len(LAYERS)
        calls = [0] * n_layers
        busy = [0] * n_layers
        self_ns = [0] * n_layers
        by_name = [0] * len(self.names)
        name_ns = [0] * len(self.names)
        child_ns = [0] * len(self.spans)
        masks = [0] * len(self.spans)
        for i, (name_id, start, end, parent, _task) in enumerate(self.spans):
            duration = end - start
            layer = layer_of[name_id]
            bit = 1 << layer
            outer = masks[parent] if parent >= 0 else 0
            masks[i] = outer | bit
            if not outer & bit:
                busy[layer] += duration
            if parent >= 0:
                child_ns[parent] += duration
            calls[layer] += 1
            by_name[name_id] += 1
            name_ns[name_id] += duration
        for i, (name_id, start, end, _parent, _task) in enumerate(self.spans):
            self_ns[layer_of[name_id]] += end - start - child_ns[i]

        def count(name: str) -> int:
            return sum(c for n, c in zip(self.names, by_name) if n == name)

        def seconds(names) -> float:
            return sum(t for n, t in zip(self.names, name_ns) if n in names) / 1e9

        per = 1.0 / max(passes, 1)
        out: dict[str, float] = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = calls[i] * per
            out[f"{layer}.busy_s"] = busy[i] / 1e9 * per
            out[f"{layer}.self_s"] = self_ns[i] / 1e9 * per
        out["experiments.runs"] = count("experiments.run_experiment") * per

        c = self.counters
        eigensolves = sum(count(n) for n in EIGENSOLVERS)
        out["qmath.eigensolves"] = eigensolves * per
        out["qmath.eig_dim_max"] = c["eig_dim_max"]
        out["qmath.eig_work"] = c["eig_work"] * per
        out["qmath.validate_share"] = (
            count("qmath.DensityOperator.__post_init__") / eigensolves if eigensolves else 0.0
        )
        out["ensembles.cq_builds"] = count("ensembles.CqEnsemble.__post_init__") * per
        out["ensembles.probdist_masses"] = c["probdist_masses"] * per
        out["ensembles.exact_mass_share"] = (
            c["exact_masses"] / c["probdist_masses"] if c["probdist_masses"] else 0.0
        )
        out["criteria.event_passes"] = c["event_passes"] * per
        out["criteria.entangled_dim_max"] = c["entangled_dim_max"]
        out["criteria.trace_products"] = c["criteria_products"] * per
        out["discrimination.trace_products"] = c["discrimination_products"] * per
        out["discrimination.povm_eigensolves"] = c["povm_eigensolves"] * per
        out["coupling.cells"] = c["cells"] * per
        out["coupling.cells_per_atom"] = c["cells"] / c["atoms"] if c["atoms"] else 0.0
        out["sidechannel.rank_calls"] = count("sidechannel.gf2_rank") * per
        out["sidechannel.seeds"] = c["seeds"] * per
        out["sidechannel.census_pairs"] = c["census_pairs"] * per
        out["cli.parse_s"] = seconds(PARSE_SPANS) * per
        out["cli.render_s"] = self._render_seconds() * per
        out["trace.spans"] = len(self.spans) * per
        return out

    def _render_seconds(self) -> float:
        """Render time inside `cli.main`, so report checks made by the
        benchmark itself are not counted."""
        main_ids = {i for i, n in enumerate(self.names) if n == "cli.main"}
        render_ids = {i for i, n in enumerate(self.names) if n in RENDER_SPANS}
        inside = [False] * len(self.spans)
        total = 0
        for i, (name_id, start, end, parent, _task) in enumerate(self.spans):
            inside[i] = name_id in main_ids or (parent >= 0 and inside[parent])
            if name_id in render_ids and parent >= 0 and inside[parent]:
                total += end - start
        return total / 1e9

    def write(self, path) -> None:
        """Dump the spans as TSV: name, start_ns, end_ns, parent, task."""
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\ttask\n")
            for name_id, start, end, parent, task in self.spans:
                fh.write(f"{self.names[name_id]}\t{start}\t{end}\t{parent}\t{task}\n")
