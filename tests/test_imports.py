"""Structure of the package: the runtime dependency stays numpy only, every
module of the package imports from the standard library, numpy and the
package itself, `bounds` and `keys` from the standard library and `errors` alone,
every name the package exports and every public function, class and method
it defines has a reader, every exception class beyond `BadParams` has a
caller that tells it apart, a CLI request loads only the modules of its
experiment, a request that computes with no array loads neither numpy nor
`dataclasses` nor `inspect`, and the first read of a package attribute binds
the whole API."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tracecrit"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "tracecrit"}

#: Public methods that the standard library calls by name, with their caller.
OVERRIDES = {"error": "argparse.ArgumentParser.parse_args"}

#: Exception classes besides `ToolkitError` (the CLI's catch-all) and
#: `BadParams` (the one precondition type), each with the reader that tells
#: it apart: "except in <file>", an `except` clause there that names it;
#: "README <section>", a caller contract in that section; or "docstring
#: <module>.<function>", the public docstring that promises it.  A `raise`
#: is not a reader.
DISTINGUISHED = {
    "ParseError": "except in src/tracecrit/experiments.py",
    "UnknownExperiment": "README Library",
    "NonUniformPrior": "except in bench/workloads.py",
    "TooLarge": "README Errors",
    "NotHermitian": "docstring qmath.validate_density",
    "NotPsd": "docstring qmath.validate_density",
    "BadTrace": "docstring qmath.validate_density",
}


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


def all_imports(module: str) -> set[str]:
    """Every import in a package module, a function's own included: absolute
    ones by their top-level name, relative ones as ".name"."""
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or "").split(".")[0])
    return imported


def non_stdlib_imports(module: str) -> set[str]:
    """Every import in a package module that is not of the standard library."""
    imported = all_imports(module)
    assert imported
    return imported - set(sys.stdlib_module_names)


def test_bounds_imports_only_the_standard_library_and_errors():
    """`table` and `markov` run on `bounds` alone, without numpy or a kernel,
    so every import in it, a function's own included, is of the standard
    library or of `errors`."""
    assert non_stdlib_imports("bounds") <= {".errors"}


#: The modules every CLI request loads, whatever it runs.
EVERY_REQUEST = ("cli", "experiments", "bounds", "keys", "errors")
#: Standard-library modules whose import costs a request that builds no
#: array some milliseconds; numpy imports `inspect` itself.
COSTLY_STDLIB = {"dataclasses", "inspect"}


@pytest.mark.parametrize("module", EVERY_REQUEST)
def test_request_modules_import_no_dataclasses_or_inspect(module):
    """Their records are NamedTuples and parameters are bound from a
    command's `__kwdefaults__` and `__annotations__`, so no import in them,
    a function's own included, is of `dataclasses` or `inspect`."""
    assert not all_imports(module) & COSTLY_STDLIB


def test_keys_imports_only_the_standard_library_and_errors():
    """`spiked` runs on `keys` alone, and the GF(2) kernels read their bit
    strings from it, so every import in it is of the standard library or of
    `errors`: neither loads numpy through it."""
    assert non_stdlib_imports("keys") <= {".errors"}


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
    unread = sorted(name for name in exports() if not any(name in names for names in found.values()))
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


def _class_name(node, classes) -> str | None:
    """The class of `classes` that an annotation or a callee names plainly:
    `C`, `mod.C` or the string `"C"`."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
    return name if name in classes else None


def class_table(trees) -> tuple[dict[str, tuple[list[str], set[str]]], dict[str, str]]:
    """Each class the trees define, with its base names and method names,
    and each function or method name whose every definition is annotated to
    return one of those classes, with that class."""
    classes = {
        node.name: (
            [b.id if isinstance(b, ast.Name) else getattr(b, "attr", "") for b in node.bases],
            {m.name for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))},
        )
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    returns: dict[str, set] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                returns.setdefault(node.name, set()).add(node.returns and _class_name(node.returns, classes))
    return classes, {name: kinds.pop() for name, kinds in returns.items() if len(kinds) == 1 and None not in kinds}


_SCOPES = ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef


def _body(scope) -> list:
    return scope.body if isinstance(scope.body, list) else [scope.body]


def _scope_nodes(body):
    """The nodes one scope evaluates: of a nested function, lambda or class,
    its decorators, defaults, bases and annotations, but not its body."""
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        inner = _body(node) if isinstance(node, _SCOPES) else []
        stack.extend(child for child in ast.iter_child_nodes(node) if child not in inner)


def attribute_reads(trees, classes, returns) -> tuple[set[tuple[str, str]], set[str]]:
    """Attribute loads `x.m` in the trees: as (class, m) where the AST makes
    x's class plain, else as the bare name m.  x's class is plain when x is
    `self` or `cls` in a method of that class, a parameter annotated with
    it, a name bound only from its constructor or from a function annotated
    to return it, the class itself, or such a call.  A plain read counts
    for the first class on the receiver's package bases that defines m."""

    def call_class(node):
        if isinstance(node, ast.Call):
            name = _class_name(node.func, classes)
            callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            return name or returns.get(callee)
        return None

    def bindings(body, params) -> dict[str, str | None]:
        """Each name the scope binds, with its class where every binding
        gives it the same plain one, else None."""
        target_class, seen = {}, {name: {cls} for name, cls in params.items()}
        nodes = list(_scope_nodes(body))
        for node in nodes:
            if isinstance(node, ast.Assign):
                target_class.update((id(t), call_class(node.value)) for t in node.targets)
            elif isinstance(node, ast.AnnAssign):
                target_class[id(node.target)] = _class_name(node.annotation, classes)
        for node in nodes:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                seen.setdefault(node.id, set()).add(target_class.get(id(node)))
        return {name: next(iter(kinds)) if len(kinds) == 1 else None for name, kinds in seen.items()}

    def params(fn, owner) -> dict[str, str | None]:
        args = fn.args
        positional = args.posonlyargs + args.args
        out = {a.arg: a.annotation and _class_name(a.annotation, classes) for a in positional + args.kwonlyargs}
        out.update((a.arg, None) for a in (args.vararg, args.kwarg) if a)
        static = any(getattr(d, "id", None) == "staticmethod" for d in getattr(fn, "decorator_list", []))
        if owner in classes and positional and not static:
            out[positional[0].arg] = owner
        return out

    def owner_of(cls, attr):
        """The class on `cls`'s package bases that defines `attr`; None when
        none does, and "" when a base outside the package might."""
        while True:
            bases, methods = classes[cls]
            if attr in methods:
                return cls
            inside = [b for b in bases if b in classes]
            if not inside:
                return "" if bases else None
            cls = inside[0]

    typed, bare = set(), set()

    def visit(body, chain, owner=None):
        def resolve(node):
            if isinstance(node, ast.Name):
                for scope in chain:
                    if node.id in scope:
                        return scope[node.id]
                return node.id if node.id in classes else None
            return call_class(node)

        for node in _scope_nodes(body):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                cls = resolve(node.value)
                where = owner_of(cls, node.attr) if cls else ""
                if where:
                    typed.add((where, node.attr))
                elif where == "":
                    bare.add(node.attr)
            if isinstance(node, ast.ClassDef):
                visit(node.body, chain, owner=node.name)
            elif isinstance(node, _SCOPES):
                visit(_body(node), [bindings(_body(node), params(node, owner)), *chain])

    for tree in trees:
        visit(tree.body, [bindings(tree.body, {})])
    return typed, bare


def unread_methods(package_trees, reader_trees, words=frozenset()) -> set[tuple[str, str]]:
    """Each (class, method) of the package trees that no attribute load in
    the reader trees reads, by `attribute_reads`' rule, and whose name is
    not one of `words`."""
    classes, returns = class_table(package_trees)
    typed, bare = attribute_reads(reader_trees, classes, returns)
    return {
        (cls, method)
        for cls, (_, methods) in classes.items()
        for method in methods
        if (cls, method) not in typed and method not in bare | words
    }


def test_every_public_definition_has_a_reader():
    """Every public function and class defined in the package is read by
    name somewhere in the package, bench/ or README's Library code, by the
    rule of `test_every_export_has_a_reader`.  Every public method is read
    as an attribute in the package or bench/, by `attribute_reads`' rule,
    or named in README's Library code.  A read whose receiver's class the
    AST does not make plain counts for every method of that name, and a
    method that only another unread method calls still counts as read."""
    defined = public_definitions()
    assert defined
    found = readers()
    methods = unread_methods(
        [ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))],
        [ast.parse(p.read_text()) for p in [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "bench").glob("*.py"))]],
        found["README Library"],
    )
    unread = sorted(
        qualname
        for qualname, name in defined.items()
        if name not in OVERRIDES
        and (
            tuple(qualname.split(".")[1:]) in methods
            if qualname.count(".") == 2
            else not any(name in names for names in found.values())
        )
    )
    assert not unread, f"defined but read by no module, bench/ or README's Library section: {unread}"


#: Two classes that share a method name.  Each read of `mass` has a plain
#: receiver of class ProbDist, so only ProbDist.mass has a reader.
SHARED_NAME = """
class ProbDist:
    def mass(self, label): ...
    def peak(self):
        return self.mass("0")
    @classmethod
    def uniform(cls, labels) -> "ProbDist": ...

class SpikedDist:
    def mass(self, label): ...

def masses(p: ProbDist, labels):
    q = ProbDist.uniform(labels)
    r = ProbDist(labels)
    return p.mass("0"), q.mass("0"), r.mass("0"), ProbDist(labels).mass("0"), p.peak()
"""


def test_a_method_read_only_through_another_class_has_no_reader():
    tree = ast.parse(SHARED_NAME)
    assert unread_methods([tree], [tree]) == {("SpikedDist", "mass")}
    # A receiver of no plain class reads every `mass`, as a bare name would.
    untyped = ast.parse(SHARED_NAME + "\ndef first(x, y):\n    y = x\n    return y.mass('0')\n")
    assert unread_methods([tree], [untyped]) == set()


def test_overrides_are_defined_and_unread():
    defined, found = set(public_definitions().values()), readers()
    for name in OVERRIDES:
        assert name in defined, f"{name} is exempt but not defined"
        assert not any(name in names for names in found.values()), f"{name} has a reader; drop it from OVERRIDES"


def exception_classes() -> set[str]:
    """The package's exception classes: `ToolkitError` and every class that
    derives from a package exception class."""
    trees = [ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))]
    classes, _ = class_table(trees)
    found = {"ToolkitError"}
    while grown := {c for c, (bases, _) in classes.items() if found & set(bases)} - found:
        found |= grown
    return found


def readme_section(title: str) -> str:
    """The text of README's section `title`, up to the next heading."""
    text = (ROOT / "README.md").read_text()
    match = re.search(rf"^#{{2,3}} {re.escape(title)}\n(.*?)(?=^#{{1,3}} |\Z)", text, re.M | re.S)
    assert match, f"README has no section {title!r}"
    return match.group(1)


def has_reader(name: str, reader: str) -> bool:
    """Whether `reader`, in `DISTINGUISHED`'s notation, tells `name` apart."""
    kind, where = reader.split(" ", 1)
    if kind == "except":
        tree = ast.parse((ROOT / where.removeprefix("in ")).read_text())
        caught = {
            n.id if isinstance(n, ast.Name) else n.attr
            for h in ast.walk(tree)
            if isinstance(h, ast.ExceptHandler) and h.type is not None
            for n in ast.walk(h.type)
            if isinstance(n, (ast.Name, ast.Attribute))
        }
        return name in caught
    if kind == "README":
        return f"`{name}`" in readme_section(where)
    if kind == "docstring":
        module, function = where.split(".")
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        doc = next(ast.get_docstring(n) or "" for n in tree.body if getattr(n, "name", None) == function)
        return not function.startswith("_") and re.search(rf"\b{name}\b", doc) is not None
    raise AssertionError(f"{name}: unknown reader kind {reader!r}")


def test_every_exception_class_is_distinguished():
    """An exception class beyond `ToolkitError` and `BadParams` stays only
    where some caller tells it apart from `BadParams`; `DISTINGUISHED`
    names that caller."""
    classes = exception_classes()
    assert {"ToolkitError", "BadParams"} <= classes
    undistinguished = sorted(classes - {"ToolkitError", "BadParams"} - DISTINGUISHED.keys())
    assert not undistinguished, f"raised but told apart from BadParams by no caller: {undistinguished}"


def test_distinguished_classes_have_their_reader():
    classes = exception_classes()
    for name, reader in DISTINGUISHED.items():
        assert name in classes, f"{name} is distinguished but not defined"
        assert has_reader(name, reader), f"{name}: no reader at {reader!r}"


# -- what a fresh interpreter loads ------------------------------------------

#: The modules the library API binds: every module but the CLI front end.
LIBRARY = {
    "bounds", "coupling", "criteria", "discrimination", "ensembles", "errors", "experiments", "keys", "qmath", "sidechannel"
}
KERNELS = LIBRARY - {"errors", "experiments"}

#: Prefix of every probe: at exit, write the loaded package modules (short
#: names), numpy, `dataclasses` and `inspect`, as JSON, to the path in
#: argv[1], and drop that path.
PROBE = """\
import atexit, json, sys
def _dump(path=sys.argv.pop(1)):
    names = [m for m in sys.modules if m in ("numpy", "dataclasses", "inspect") or m.startswith("tracecrit.")]
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
    # over the seed caps, refused by the command before it loads `sidechannel`
    "toeplitz-over-cap": ["--experiment", "toeplitz", "--params", '{"m": 13, "n": 13}'],
    "toeplitz-samples-over-cap": [
        "--experiment", "toeplitz", "--params", '{"m": 3, "n": 3, "mode": "sample", "samples": 16777217}'
    ],
}


@pytest.mark.parametrize("argv", REFUSED.values(), ids=REFUSED)
def test_refused_request_loads_no_kernel(tmp_path, argv):
    proc, modules = run_probe(tmp_path, CLI, *argv)
    assert proc.returncode == 2 and proc.stderr.startswith("error: ")
    assert not modules & (KERNELS | {"numpy"} | COSTLY_STDLIB), sorted(modules)


def test_over_cap_ecc_refusal_loads_no_numpy(tmp_path):
    """A 21-column code passes its checks in `sidechannel`, then the census
    refuses it by its cap before it imports numpy."""
    generator = json.dumps({"generator": [[1] * 21]})
    proc, modules = run_probe(tmp_path, CLI, "--experiment", "ecc", "--params", generator)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: block length 21 exceeds the census cap of 20 bits\n"
    assert "sidechannel" in modules and "numpy" not in modules, sorted(modules)


#: The guarantee experiments, `table` and `markov`, do float and log2
#: arithmetic only: they load `bounds` and no numpy, no other kernel and
#: neither `dataclasses` nor `inspect`.
GUARANTEE = {"cli", "experiments", "errors", "bounds"}
NOT_IN_MARKOV = (KERNELS - {"bounds"}) | {"numpy"} | COSTLY_STDLIB
#: `spiked` is exact Fraction arithmetic on `keys`: no numpy, no other
#: kernel and neither `dataclasses` nor `inspect`.
SPIKED = {"cli", "experiments", "errors", "keys"}
NOT_IN_SPIKED = (KERNELS - {"keys"}) | {"numpy"} | COSTLY_STDLIB
GF2 = {"cli", "experiments", "numpy", "sidechannel"}
NOT_IN_GF2 = {"criteria", "discrimination", "coupling", "bounds", "ensembles", "qmath"}
#: The quantum and coupling experiments load numpy and the kernels below.
DENSITY = {"cli", "experiments", "numpy", "criteria", "ensembles", "qmath"}
#: Requests, each with the modules it must load and those it must not.
RUNS = {
    "table-preset": (["--experiment", "table", "--params", '{"preset": "bb84-headline"}'], GUARANTEE, NOT_IN_MARKOV),
    "table-ms": (["--experiment", "table", "--params", '{"n": 100, "l": 10, "m": 20, "ms": [1, 20]}'], GUARANTEE, NOT_IN_MARKOV),
    "markov": (["--experiment", "markov", "--params", '{"eps": 0.01, "delta": 0.5, "guarantees": 3}'], GUARANTEE, NOT_IN_MARKOV),
    "ecc": (["--experiment", "ecc", "--params", '{"preset": "code52", "rule": "min_distance"}'], GF2, NOT_IN_GF2),
    "toeplitz": (["--experiment", "toeplitz", "--params", '{"m": 3, "n": 4}', "--format", "csv"], GF2, NOT_IN_GF2),
    "cex_i": (["--experiment", "cex_i", "--params", '{"N": 256}'], DENSITY | {"coupling"}, {"discrimination", "sidechannel", "bounds"}),
    "spiked": (["--experiment", "spiked", "--params", '{"n": 10, "l": 3}'], SPIKED, NOT_IN_SPIKED),
    "cex_ii": (["--experiment", "cex_ii", "--params", '{"preset": "two-bit-mixed"}'], DENSITY | {"bounds", "discrimination"}, {"coupling", "sidechannel"}),
    "cex_iii": (["--experiment", "cex_iii", "--params", '{"preset": "two-bit-mixed"}'], DENSITY | {"discrimination"}, {"coupling", "sidechannel", "bounds"}),
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
    assert modules - COSTLY_STDLIB == LIBRARY | extra | {"numpy"}
    doc = json.loads(proc.stdout)
    assert set(doc["public"]) == set(sources) | LIBRARY | extra
    assert doc["same"] == sorted(sources)


def test_bare_import_loads_nothing(tmp_path):
    proc, modules = run_probe(tmp_path, "import tracecrit\nassert tracecrit.__version__\n")
    assert proc.returncode == 0, proc.stderr
    assert modules == set()
