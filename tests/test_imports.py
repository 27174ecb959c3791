"""Structure of the package: the runtime dependency stays numpy only, every
module of the package imports from the standard library, numpy and the
package itself, every name the package exports and every public function,
class and method it defines has a reader, a CLI request loads only the
modules of its experiment, and the first read of a package attribute binds
the whole API."""

import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tracecrit"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "tracecrit"}

#: Exported names that no other module, nothing in bench/ and no code in
#: README's Library section reads, each with why it stays: "oracle", or the
#: ROADMAP item whose experiment is to read it.
HELD = {
    "decomposition_fallacy_check": "ROADMAP item 3",
    "hypothesis_ii_exact": "ROADMAP item 3",
    "pac_leakage": "ROADMAP item 2",
    "success_probability": "ROADMAP item 1",
    "toeplitz_from_seed": "ROADMAP item 9",
}

#: Public methods that the standard library calls by name, with their caller.
OVERRIDES = {"error": "argparse.ArgumentParser.parse_args"}


def test_package_imports_only_stdlib_numpy_and_itself():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    for path in paths:
        roots = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                roots.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots.add(node.module.split(".")[0])
        assert roots <= ALLOWED, f"{path.name} imports {sorted(roots - ALLOWED)}"


def export_sources() -> dict[str, str]:
    """Each name `tracecrit/__init__.py` imports from its modules, with the
    module, wherever in the file the import block stands."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name: node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def exports() -> set[str]:
    """The names `tracecrit/__init__.py` imports from its modules."""
    return set(export_sources())


def loaded_names(paths) -> set[str]:
    """Every name and attribute the files load: not a definition, an
    assignment target, a string or a docstring."""
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.add(node.attr)
    return out


def readme_library_names() -> set[str]:
    """Identifiers in the code of README's Library section: its fenced
    blocks and inline code spans."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.findall(r"```\w*\n(.*?)```|`([^`\n]+)`", section, re.S)
    return {word for spans in code for span in spans for word in re.findall(r"\w+", span)}


def readers() -> dict[str, set[str]]:
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    return {
        "src": loaded_names(modules),
        "bench": loaded_names(sorted((ROOT / "bench").glob("*.py"))),
        "README Library": readme_library_names(),
    }


def test_every_export_has_a_reader():
    assert exports()
    found = readers()
    unread = sorted(
        name for name in exports() - HELD.keys() if not any(name in names for names in found.values())
    )
    assert not unread, f"exported but read by no module, bench/ or README's Library section: {unread}"


def public_definitions() -> dict[str, str]:
    """Each public function, class and method the package defines, by
    qualified name ("module.Class.method"), with its bare name; a method of
    a private class counts, since callers reach it through instances."""
    defs = ast.FunctionDef, ast.ClassDef
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, defs):
                continue
            members = node.body if isinstance(node, ast.ClassDef) else []
            named = [(node.name, node)] + [(f"{node.name}.{m.name}", m) for m in members if isinstance(m, defs)]
            out.update((f"{path.stem}.{q}", d.name) for q, d in named if not d.name.startswith("_"))
    return out


def test_every_public_definition_has_a_reader():
    """Every public function, class and method defined in the package is
    read by name somewhere in the package, bench/ or README's Library code,
    by the rule of `test_every_export_has_a_reader`.  The rule matches bare
    names, so it cannot see a method whose name a read attribute of another
    type shares (a `mass` method beside `ProbDist.mass`), nor one that only
    another unread method calls."""
    defined = public_definitions()
    assert defined
    found = readers()
    unread = sorted(
        qualname
        for qualname, name in defined.items()
        if name not in HELD.keys() | OVERRIDES.keys() and not any(name in names for names in found.values())
    )
    assert not unread, f"defined but read by no module, bench/ or README's Library section: {unread}"


def test_overrides_are_defined_and_unread():
    defined, found = set(public_definitions().values()), readers()
    for name in OVERRIDES:
        assert name in defined, f"{name} is exempt but not defined"
        assert not any(name in names for names in found.values()), f"{name} has a reader; drop it from OVERRIDES"


def test_held_names_are_exported_unread_and_explained():
    found = readers()
    roadmap = (ROOT / "ROADMAP.md").read_text()
    for name, reason in HELD.items():
        assert name in exports(), f"{name} is held but not exported"
        assert not any(name in names for names in found.values()), f"{name} has a reader; drop it from HELD"
        item = re.fullmatch(r"oracle|ROADMAP item (\d+)", reason)
        assert item, f"{name}: reason {reason!r} is neither 'oracle' nor 'ROADMAP item N'"
        if item.group(1):
            assert re.search(rf"^{item.group(1)}\. \*\*", roadmap, re.M), f"{name}: no {reason}"


# -- what a fresh interpreter loads ------------------------------------------

#: The modules the library API binds: every module but the CLI front end.
LIBRARY = {"bounds", "coupling", "criteria", "discrimination", "ensembles", "errors", "experiments", "qmath", "sidechannel"}
KERNELS = LIBRARY - {"errors", "experiments"}

#: Prefix of every probe: at exit, write the loaded package modules (short
#: names) and numpy, as JSON, to the path in argv[1], and drop that path.
PROBE = """\
import atexit, json, sys
def _dump(path=sys.argv.pop(1)):
    names = [m for m in sys.modules if m == "numpy" or m.startswith("tracecrit.")]
    with open(path, "w") as f:
        json.dump(sorted(m.replace("tracecrit.", "", 1) for m in names), f)
atexit.register(_dump)
"""

#: `python -m tracecrit`, with the probe's argv.
CLI = "import runpy\nrunpy.run_module('tracecrit', run_name='__main__', alter_sys=True)\n"


def run_probe(tmp_path, code: str, *argv: str):
    """Run the probe then `code` in a fresh interpreter; its process and the
    modules loaded when it exits."""
    out = tmp_path / "modules.json"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE + code, str(out), *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc, set(json.loads(out.read_text()))


REFUSED = {
    "unknown-experiment": ["--experiment", "nope"],
    "malformed-json": ["--experiment", "cex_ii", "--params", "{"],
    "missing-experiment": ["--params", "{}"],
}


@pytest.mark.parametrize("argv", REFUSED.values(), ids=REFUSED)
def test_refused_request_loads_no_kernel(tmp_path, argv):
    proc, modules = run_probe(tmp_path, CLI, *argv)
    assert proc.returncode == 2 and proc.stderr.startswith("error: ")
    assert not modules & (KERNELS | {"numpy"}), sorted(modules)


#: The guarantee experiments, `table` and `markov`, do float and log2
#: arithmetic only: they load `bounds` and no numpy and no other kernel.
#: Before Python 3.11 (no `math.exp2`) `table` borrows numpy's logaddexp2.
GUARANTEE = {"cli", "experiments", "errors", "bounds"}
NOT_IN_MARKOV = (KERNELS - {"bounds"}) | {"numpy"}
NOT_IN_TABLE = NOT_IN_MARKOV if hasattr(math, "exp2") else NOT_IN_MARKOV - {"numpy"}
GF2 = {"cli", "experiments", "numpy", "sidechannel"}
NOT_IN_GF2 = {"criteria", "discrimination", "coupling", "bounds"}
#: Requests, each with the modules it must load and those it must not.
RUNS = {
    "table-preset": (["--experiment", "table", "--params", '{"preset": "bb84-headline"}'], GUARANTEE, NOT_IN_TABLE),
    "table-ms": (["--experiment", "table", "--params", '{"n": 100, "l": 10, "m": 20, "ms": [1, 20]}'], GUARANTEE, NOT_IN_TABLE),
    "markov": (["--experiment", "markov", "--params", '{"eps": 0.01, "delta": 0.5, "guarantees": 3}'], GUARANTEE, NOT_IN_MARKOV),
    "ecc": (["--experiment", "ecc", "--params", '{"preset": "code52", "rule": "min_distance"}'], GF2, NOT_IN_GF2),
    "toeplitz": (["--experiment", "toeplitz", "--params", '{"m": 3, "n": 4}', "--format", "csv"], GF2, NOT_IN_GF2),
}


@pytest.mark.parametrize("argv, present, absent", RUNS.values(), ids=RUNS)
def test_request_loads_only_its_modules(tmp_path, argv, present, absent):
    proc, modules = run_probe(tmp_path, CLI, *argv)
    assert proc.returncode == 0, proc.stderr
    assert present <= modules, sorted(present - modules)
    assert not modules & absent, sorted(modules & absent)


#: After the first read: the public names, and the exports that are the
#: very object of the module they are imported from, given as JSON in argv[1].
NAMESPACE = """
import tracecrit
public = sorted(n for n in vars(tracecrit) if not n.startswith("_"))
sources = json.loads(sys.argv[1])
same = sorted(n for n, m in sources.items() if getattr(tracecrit, n) is getattr(sys.modules["tracecrit." + m], n))
print(json.dumps({"public": public, "same": same}))
"""

#: First reads of the package, each with the submodules it binds besides LIBRARY.
FIRST_READS = {
    "export": ("import tracecrit\ntracecrit.markov_bound\n", set()),
    "from-cli": ("from tracecrit import cli\n", {"cli"}),
    "star": ("from tracecrit import *\n", set()),
    "dir": ("import tracecrit\ndir(tracecrit)\n", set()),
}


@pytest.mark.parametrize("first, extra", FIRST_READS.values(), ids=FIRST_READS)
def test_first_read_binds_the_whole_api(tmp_path, first, extra):
    sources = export_sources()
    assert sources
    proc, modules = run_probe(tmp_path, first + NAMESPACE, json.dumps(sources))
    assert proc.returncode == 0, proc.stderr
    assert modules == LIBRARY | extra | {"numpy"}
    doc = json.loads(proc.stdout)
    assert set(doc["public"]) == set(sources) | LIBRARY | extra
    assert doc["same"] == sorted(sources)


def test_bare_import_loads_nothing(tmp_path):
    proc, modules = run_probe(tmp_path, "import tracecrit\nassert tracecrit.__version__\n")
    assert proc.returncode == 0, proc.stderr
    assert modules == set()
