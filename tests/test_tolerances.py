"""One tolerance policy: the package's float tolerances are the two named in
`errors`, and every other module reads them instead of its own literal."""

import ast
import importlib
from pathlib import Path

from tracecrit import errors, qmath

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tracecrit"
#: Names the tolerances had before they were folded into TOL and ZERO_TOL.
RETIRED = (
    "HERM_TOL", "TRACE_TOL", "NORM_TOL", "PSD_TOL", "_PHASE_TOL", "MASS_TOL", "NEG_MASS_TOL",
    "POVM_SUM_TOL", "PGM_KERNEL_TOL", "JOINT_MASS_TOL", "SUPPORT_TOL", "_EQUIV_TOL",
)


def test_only_errors_holds_tolerance_sized_floats():
    assert qmath.TOL is errors.TOL and qmath.ZERO_TOL is errors.ZERO_TOL
    paths = sorted(p for p in PACKAGE.glob("*.py") if p.name != "errors.py")
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and type(node.value) is float:
                assert not 0 < node.value <= 1e-6, f"{path.name}:{node.lineno} holds {node.value!r}"


def test_retired_tolerance_names_are_gone():
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"tracecrit.{path.stem}")
        present = [name for name in RETIRED if hasattr(module, name)]
        assert not present, f"{path.stem} still defines {present}"
