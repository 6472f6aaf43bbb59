"""Every module under src/satkit uses each name it imports, or lists it
in ``__all__`` as a re-export; every name that a script under
``scripts/`` or the benchmark under ``perfbench/`` imports from satkit
exists."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "satkit"


def _annotation_strings(tree):
    """String annotations, which name imports without an ``ast.Name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for annotation in filter(None, annotations):
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    yield sub.value


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for text in _annotation_strings(tree):
        used.update(n.id for n in ast.walk(ast.parse(text, mode="eval")) if isinstance(n, ast.Name))
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC.parent))
)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_flags_unused_and_spares_used_and_exported_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy as np\n"
        "from typing import Optional, Sequence\n"
        "from .a import Exported, Unused\n"
        "__all__ = ['Exported']\n"
        "def f(x: 'Optional[np.ndarray]') -> Sequence[int]:\n"
        "    return sys.argv\n"
    )
    assert unused_imports(source) == ["Unused", "os"]


def missing_satkit_imports(source: str) -> list[str]:
    """``module.name`` for each ``from satkit... import name`` whose
    module lacks the name."""
    missing = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and node.module.split(".")[0] == "satkit"
        ):
            module = importlib.import_module(node.module)
            missing.extend(
                f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)
            )
    return missing


@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")),
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_script_imports_only_names_satkit_defines(path):
    assert missing_satkit_imports(path.read_text(encoding="utf-8")) == []


def test_the_script_scan_flags_a_deleted_name():
    source = "import os\nfrom satkit.solver import Solver, solve\nfrom satkit.cnf import CnfFormula\n"
    assert missing_satkit_imports(source) == ["satkit.solver.solve"]
