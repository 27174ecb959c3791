"""Structure of the package: the runtime dependency stays numpy only, every
module of the package imports from the standard library, numpy and the
package itself, and every name the package exports has a reader."""

import ast
import re
import sys
from pathlib import Path

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


def exports() -> set[str]:
    """The names `tracecrit/__init__.py` imports from its modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


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
    found = readers()
    unread = sorted(
        name for name in exports() - HELD.keys() if not any(name in names for names in found.values())
    )
    assert not unread, f"exported but read by no module, bench/ or README's Library section: {unread}"


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
