"""Structure of the package: the runtime dependency stays numpy only, every
module of the package imports from the standard library, numpy and the
package itself, `bounds` and `keys` from the standard library and `errors` alone,
every name the package exports and every public function, class and method
it defines has a reader, every exception class beyond `BadParams` has a
caller that tells it apart, a CLI request, started as `python -m tracecrit`
or through the console script's code, loads only the modules of its
experiment, its own command family among them, and writes and returns what
`cli.main` does in process, a refusal made before any command loads no
command family, a refusal decided by its parameters loads only the modules
that decide it and no numpy, a request that computes with no array loads
neither numpy nor `dataclasses` nor `inspect`, one that reads no Fraction
does not load `fractions`, the first read of a package attribute binds
the whole API, and one routine, `qmath._frozen`, fills in every frozen array
record."""

import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tracecrit.experiments import REGISTRY

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tracecrit"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "tracecrit"}

#: Public methods that the standard library calls by name, with their caller.
OVERRIDES = {"error": "argparse.ArgumentParser.parse_args", "print_help": "argparse._HelpAction.__call__"}

#: Exception classes besides `ToolkitError` (the CLI's catch-all) and
#: `BadParams` (the one precondition type), each with the reader that tells
#: it apart: "except in <file>", an `except` clause there that names it;
#: "README <section>", a caller contract in that section; or "docstring
#: <module>.<function>", the public docstring that promises it.  A `raise`
#: is not a reader.
DISTINGUISHED = {
    "ParseError": "except in src/tracecrit/two_bit.py",
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


#: The modules every CLI request loads, whatever it runs, a refusal included.
EVERY_REQUEST = ("cli", "experiments", "errors")
#: The command families, one module each, that `experiments.REGISTRY` names.
FAMILIES = set(REGISTRY.values())
#: Standard-library modules whose import costs a request that builds no
#: array some milliseconds; numpy imports `inspect` itself.
COSTLY_STDLIB = {"dataclasses", "inspect"}


@pytest.mark.parametrize("module", [*EVERY_REQUEST, "bounds", "keys", "sidechannel", *sorted(FAMILIES)])
def test_request_modules_import_no_dataclasses_or_inspect(module):
    """The modules of every request, of the requests that build no array,
    `table`, `markov` and `spiked`, the GF(2) kernel, which refuses a request
    before it imports numpy, and the command families: their records are
    NamedTuples and parameters are bound from a command's `__kwdefaults__`
    and `__annotations__`, so no import in them, a function's own included,
    is of `dataclasses` or `inspect`."""
    assert not all_imports(module) & COSTLY_STDLIB


def test_keys_imports_only_the_standard_library_and_errors():
    """`spiked` runs on `keys` alone, and the GF(2) kernels read their bit
    strings from it, so every import in it is of the standard library or of
    `errors`: neither loads numpy through it."""
    assert non_stdlib_imports("keys") <= {".errors"}


def test_frozen_records_are_filled_in_by_one_routine():
    """No module stores a field past a frozen dataclass's guard with
    `object.__setattr__`; `qmath._frozen` alone writes fields through `vars`."""
    texts = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert not [name for name, text in texts.items() if "object.__setattr__" in text]
    (frozen,) = [
        node for node in ast.parse(texts["qmath.py"]).body if isinstance(node, ast.FunctionDef) and node.name == "_frozen"
    ]
    inside = len(re.findall(r"\bvars\(", ast.get_source_segment(texts["qmath.py"], frozen)))
    assert inside == 1
    assert sum(len(re.findall(r"\bvars\(", text)) for text in texts.values()) == inside


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
        # `experiments._command` reads each registered command by its name
        "REGISTRY": {f"cmd_{name}" for name in REGISTRY},
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

#: The modules the library API binds: every module but the CLI front end
#: and the command families, which `run_experiment` imports on first use.
LIBRARY = {
    "bounds", "coupling", "criteria", "discrimination", "ensembles", "errors", "experiments", "keys", "qmath", "sidechannel"
}
KERNELS = LIBRARY - {"errors", "experiments"}

#: Prefix of every probe: at exit, write the loaded package modules (short
#: names), numpy, `dataclasses`, `inspect` and `fractions`, as JSON, to the
#: path in argv[1], and drop that path.
PROBE = """\
import atexit, json, sys
def _dump(path=sys.argv.pop(1)):
    names = [m for m in sys.modules if m in ("numpy", "dataclasses", "inspect", "fractions") or m.startswith("tracecrit.")]
    with open(path, "w") as f:
        json.dump(sorted(m.replace("tracecrit.", "", 1) for m in names), f)
atexit.register(_dump)
"""

#: `python -m tracecrit`, with the probe's argv.
CLI = "import runpy\nrunpy.run_module('tracecrit', run_name='__main__', alter_sys=True)\n"
#: The console script that pip installs as `tracecrit` for `[project.scripts]`, with the probe's argv.
SCRIPT = """\
# -*- coding: utf-8 -*-
import re
import sys
from tracecrit.cli import run
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])
    sys.exit(run())
"""


def both_entries(cases: dict, scripted=None) -> list:
    """Parameters (entry code, *case) for each case: through `python -m
    tracecrit` under the case's name, and, for the names in `scripted`
    (every case by default), through the console script under
    "<name>-script"."""
    params = []
    for name, case in cases.items():
        case = case if isinstance(case, tuple) else (case,)
        params.append(pytest.param(CLI, *case, id=name))
        if scripted is None or name in scripted:
            params.append(pytest.param(SCRIPT, *case, id=f"{name}-script"))
    return params


def child_env(**overrides) -> dict:
    """The environment of a fresh interpreter that imports the package from
    src/, with `overrides`; an override of None unsets its variable."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **{k: v for k, v in overrides.items() if v is not None})
    for name in (k for k, v in overrides.items() if v is None):
        env.pop(name, None)
    return env


def run_probe(tmp_path, code: str, *argv: str):
    """Run the probe then `code` in a fresh interpreter; its process and the
    modules loaded when it exits."""
    out = tmp_path / "modules.json"
    proc = subprocess.run(
        [sys.executable, "-c", PROBE + code, str(out), *argv],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc, set(json.loads(out.read_text()))


#: Requests answered before any command is looked up, with their exit code.
BEFORE_ANY_COMMAND = {
    "unknown-experiment": (["--experiment", "nope"], 2),
    "malformed-json": (["--experiment", "cex_ii", "--params", "{"], 2),
    "missing-experiment": (["--params", "{}"], 2),
    "help": (["--help"], 0),
}


@pytest.mark.parametrize("entry, argv, code", both_entries(BEFORE_ANY_COMMAND))
def test_refusal_loads_no_command_family(tmp_path, entry, argv, code):
    """Only `cli`, `experiments` and `errors`: no family module is compiled
    and `fractions` is not imported."""
    proc, modules = run_probe(tmp_path, entry, *argv)
    assert proc.returncode == code, proc.stderr
    assert modules == set(EVERY_REQUEST), sorted(modules)


@pytest.mark.parametrize(
    "entry, argv", both_entries({name: argv for name, (argv, code) in BEFORE_ANY_COMMAND.items() if code == 2})
)
def test_refused_request_loads_no_kernel(tmp_path, entry, argv):
    proc, modules = run_probe(tmp_path, entry, *argv)
    assert proc.returncode == 2 and proc.stderr.startswith("error: ")
    assert not modules & (KERNELS | {"numpy"} | COSTLY_STDLIB), sorted(modules)


#: The refused requests of tests/refusals.json, each argv by name.
REFUSED = {name: row["argv"] for name, row in json.loads((ROOT / "tests" / "refusals.json").read_text()).items()}


def decided_in(*modules: str) -> set[str]:
    """What a refusal loads: the modules of every request and `modules`."""
    return {*EVERY_REQUEST, *modules}


#: What each refusal loads, by the module that decides it.  A check lives in
#: the code that reads the value and runs before that code imports numpy:
#: a refusal decided in `cli` loads no family, one decided in its family
#: module loads that family alone, and one decided in a numpy-free kernel
#: loads that kernel too.  Only the last two read a state already built, so
#: they load numpy: a spec missing after an explicit `sigma`, which binding
#: has parsed, and an impure `sigma`, whose purity is read off its matrix.
TWO_BIT_FAMILY = decided_in("two_bit")
GF2_KERNEL = decided_in("gf2", "sidechannel", "keys")
REFUSAL_LOADS = {
    "cex_i-N-1": decided_in("classical"),
    "cex_i-N-300000": decided_in("classical"),
    "cex_ii-overlap-1.5": TWO_BIT_FAMILY,
    "cex_iii-overlap--0.1": TWO_BIT_FAMILY,
    "cex_ii-no-spec": TWO_BIT_FAMILY,
    "qubit-not-a-mapping": TWO_BIT_FAMILY,
    "qubit-diag-one-entry": TWO_BIT_FAMILY,
    "qubit-no-diag-or-bloch": TWO_BIT_FAMILY,
    "qubit-diag-not-a-number": TWO_BIT_FAMILY,
    "qubit-bloch-too-long": TWO_BIT_FAMILY,
    "ecc-no-spec": decided_in("gf2"),
    "toeplitz-m-0": GF2_KERNEL,
    "toeplitz-m--4": GF2_KERNEL,
    "toeplitz-mode-bogus": GF2_KERNEL,
    "toeplitz-sample-no-samples": GF2_KERNEL,
    "toeplitz-samples-0": GF2_KERNEL,
    "toeplitz-rank-step-cap": GF2_KERNEL,
    "toeplitz-13x13-over-cap": GF2_KERNEL,
    "toeplitz-samples-over-cap": GF2_KERNEL,
    "ecc-rule-bogus": GF2_KERNEL,
    "ecc-rank-deficient": GF2_KERNEL,
    "ecc-n21-over-cap": GF2_KERNEL,
    "spiked-n-31": decided_in("classical", "keys"),
    "table-m-above-n": decided_in("classical", "bounds"),
    "markov-mean-negative": decided_in("classical", "bounds"),
    "params-inline-array": decided_in(),
    "cex_ii-rho2-missing": decided_in("two_bit", "numpy", "qmath"),
    "cex_iii-sigma-impure": decided_in("two_bit", "numpy", "qmath", "keys", "ensembles", "criteria", "discrimination"),
}


def test_every_refusal_has_its_loads():
    assert sorted(REFUSAL_LOADS) == sorted(REFUSED)


@pytest.mark.parametrize("entry, argv, loads", both_entries({k: (REFUSED[k], v) for k, v in REFUSAL_LOADS.items()}))
def test_refusal_loads_only_what_decides_it(tmp_path, entry, argv, loads):
    """Exactly its modules, and `inspect` and `dataclasses` only with numpy,
    which imports the one, and `qmath`, which imports the other."""
    proc, modules = run_probe(tmp_path, entry, *argv)
    assert (proc.returncode, proc.stdout) == (2, "") and proc.stderr.startswith("error: ")
    assert modules - COSTLY_STDLIB == loads, sorted(modules)
    assert "numpy" in loads or not modules & COSTLY_STDLIB, sorted(modules)


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
#: numpy imports `inspect` itself, so a GF(2) run is held to no `dataclasses` only.
NOT_IN_GF2 = {"criteria", "discrimination", "coupling", "bounds", "ensembles", "qmath"} | (COSTLY_STDLIB - {"inspect"})
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


#: The experiments that read a Fraction, and so load `fractions`.
READ_FRACTIONS = {"cex_i", "spiked"}


@pytest.mark.parametrize("entry, argv, present, absent", both_entries(RUNS, scripted=("spiked", "table-preset")))
def test_request_loads_only_its_modules(tmp_path, entry, argv, present, absent):
    """And of the command families, only the one of its experiment."""
    proc, modules = run_probe(tmp_path, entry, *argv)
    assert proc.returncode == 0, proc.stderr
    assert present <= modules, sorted(present - modules)
    assert not modules & absent, sorted(modules & absent)
    experiment = argv[argv.index("--experiment") + 1]
    assert modules & FAMILIES == {REGISTRY[experiment]}, sorted(modules)
    assert ("fractions" in modules) == (experiment in READ_FRACTIONS), sorted(modules)


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
    assert modules - COSTLY_STDLIB == LIBRARY | extra | {"numpy", "fractions"}
    doc = json.loads(proc.stdout)
    assert set(doc["public"]) == set(sources) | LIBRARY | extra
    assert doc["same"] == sorted(sources)


def test_bare_import_loads_nothing(tmp_path):
    proc, modules = run_probe(tmp_path, "import tracecrit\nassert tracecrit.__version__\n")
    assert proc.returncode == 0, proc.stderr
    assert modules == set()


# -- what a process writes and returns ---------------------------------------

#: A 1.38 MB `ecc` report, on the [16, 16] identity code: more than a pipe buffer holds.
IDENTITY_16 = json.dumps({"generator": [[int(i == j) for j in range(16)] for i in range(16)]})
_SWEEP = json.dumps({"experiment": "cex_ii", "grid": {"overlap": [0, 0.5, 1.0]}})
_ELAPSED = re.compile(rb"^- elapsed: .*\n", re.MULTILINE)

#: Requests, each with its exit code and whether it writes its report to an `--out` file.
OUTPUTS = {
    "json": (["--experiment", "cex_ii", "--params", '{"preset": "two-bit-orthogonal"}'], 0, False),
    "csv": (["--experiment", "toeplitz", "--params", '{"m": 3, "n": 4}', "--format", "csv"], 0, False),
    "md-out": (["--experiment", "cex_iii", "--params", '{"preset": "two-bit-mixed"}', "--format", "md"], 0, True),
    "sweep": (["--experiment", "sweep", "--params", _SWEEP], 0, False),
    # a correct kernel FAILs while singular seeds are rarer than 1/samples: re-pin when ROADMAP item 2 lands
    "exit-1": (["--experiment", "toeplitz", "--params", '{"m": 2, "n": 70, "mode": "sample", "samples": 64}'], 1, False),
    "toolkit-refusal": (["--experiment", "nope"], 2, False),
    "usage-refusal": (["--params", "{}"], 2, False),
    "help": (["--help"], 0, False),
    "ecc-identity-16": (["--experiment", "ecc", "--params", IDENTITY_16], 0, False),
}


def in_process(argv: list[str]) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of `cli.main` on `argv`, in this process."""
    from tracecrit.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: --help and usage refusals
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


def run_entry(entry: str, argv: list[str], stdout=subprocess.PIPE, **env) -> subprocess.CompletedProcess:
    """Run `entry` on `argv` in a fresh interpreter, its output read through pipes."""
    cmd = [sys.executable, "-c", entry, *argv]
    return subprocess.run(cmd, env=child_env(**env), stdout=stdout, stderr=subprocess.PIPE, timeout=120)


@pytest.mark.parametrize("entry, argv, code, to_file", both_entries(OUTPUTS))
def test_process_writes_what_main_writes(tmp_path, monkeypatch, entry, argv, code, to_file):
    """Both entry points give the exit code, stdout, stderr and `--out`
    bytes that `cli.main` gives in process; the large report arrives whole."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal's width
    outs = {side: tmp_path / f"{side}.out" for side in ("main", "child")}
    flags = {side: ["--out", str(path)] if to_file else [] for side, path in outs.items()}
    expected = in_process(argv + flags["main"])
    proc = run_entry(entry, argv + flags["child"])
    assert expected[0] == code
    assert (proc.returncode, proc.stdout, proc.stderr) == expected
    if to_file:
        # a Markdown report carries a wall-clock line, stripped on both sides
        assert _ELAPSED.sub(b"", outs["child"].read_bytes()) == _ELAPSED.sub(b"", outs["main"].read_bytes())


#: A report small enough to sit in stdout's buffer until the process flushes it.
TABLE = ["--experiment", "table", "--params", '{"preset": "headline-gap"}']


#: Requests into a closed stdout, with PYTHONUNBUFFERED: the write fails at
#: once or at the flush.  The help text goes through the CLI's own stdout
#: writer, not argparse's, which would drop a failed write and exit 0.
CLOSED_STDOUT = {
    "table-unbuffered": (TABLE, "1"),
    "table-buffered": (TABLE, None),
    "help-unbuffered": (["--help"], "1"),
    "help-buffered": (["--help"], None),
}


@pytest.mark.parametrize("entry, argv, unbuffered", both_entries(CLOSED_STDOUT))
def test_closed_stdout_exits_two(entry, argv, unbuffered):
    """A stdout whose reader has gone is refused with one `error:` line and
    exit 2, never a traceback or Python's exit 120."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_entry(entry, argv, stdout=write, PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (2, b"error: cannot write to stdout: [Errno 32] Broken pipe\n")
