"""Every module under src/satkit uses each name it imports, or lists it
in ``__all__`` as a re-export; each package's ``__all__`` holds only
names that some caller imports through the package; every name that a
script under ``scripts/`` or the benchmark under ``perfbench/`` imports
from satkit exists; no module that a greedy learned solve runs imports
the training code; ``convert``, ``solve --heuristic vsids`` and
``--version`` load neither numpy nor the HTTP client, and the learned
entrant's timed set-up imports nothing."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import satkit

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
    module neither defines the name nor has a submodule of that name.

    A submodule is an attribute of its package only once something has
    imported it, so it is looked up with ``find_spec``, which does not
    depend on what this process happened to import before."""
    missing = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and node.module.split(".")[0] == "satkit"
        ):
            module = importlib.import_module(node.module)
            missing.extend(
                f"{node.module}.{a.name}"
                for a in node.names
                if not hasattr(module, a.name)
                and importlib.util.find_spec(f"{node.module}.{a.name}") is None
            )
    return missing


@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")),
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_script_imports_only_names_satkit_defines(path):
    assert missing_satkit_imports(path.read_text(encoding="utf-8")) == []


def test_the_script_scan_flags_a_deleted_name(monkeypatch):
    # As in a process that has not imported satkit.generators yet.
    monkeypatch.delattr(satkit, "generators", raising=False)
    monkeypatch.delitem(sys.modules, "satkit.generators", raising=False)
    source = (
        "import os\n"
        "from satkit.solver import Solver, solve\n"
        "from satkit.cnf import CnfFormula\n"
        "from satkit import generators, plotting\n"
    )
    assert missing_satkit_imports(source) == ["satkit.solver.solve", "satkit.plotting"]


def imports_from(path: Path) -> list[tuple[str, list[str]]]:
    """``(module, names)`` for each ``from module import names`` in the
    file at ``path``, anywhere in it, with relative imports resolved for
    files under src/."""
    parts = path.relative_to(SRC.parent).with_suffix("").parts if SRC in path.parents else ()
    package = parts[:-1]  # an __init__'s own package is its directory too
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            base = package[: len(package) - node.level + 1]
            module = ".".join(base + ((node.module,) if node.module else ()))
        else:
            module = node.module
        found.append((module, [a.name for a in node.names]))
    return found


def _module_path(module: str) -> "Path | None":
    path = SRC.parent.joinpath(*module.split("."))
    for candidate in (path.with_suffix(".py"), path / "__init__.py"):
        if candidate.is_file():
            return candidate
    return None


def import_closure(module: str) -> set[str]:
    """The satkit modules that ``module``'s file imports, directly or
    through the files it imports, by the names in its import statements.
    A package's ``__init__``, which Python runs before any of its
    submodules, counts only where a file imports from the package."""
    seen, todo = set(), [module]
    while todo:
        current = todo.pop()
        if current in seen:
            continue
        seen.add(current)
        for target, names in imports_from(_module_path(current)):
            if _module_path(target) is None:
                continue  # not satkit
            todo.append(target)
            todo.extend(f"{target}.{n}" for n in names if _module_path(f"{target}.{n}"))
    return seen - {module}


@pytest.mark.parametrize("module", ["observation", "network", "policy", "heuristic"])
def test_learned_inference_imports_no_training_module(module):
    assert import_closure(f"satkit.rl.{module}") & {"satkit.rl.ppo", "satkit.rl.train"} == set()


def test_the_closure_follows_imports_through_files():
    assert {"satkit.rl.heuristic", "satkit.rl.ppo", "satkit.rl.policy"} <= import_closure("satkit.rl.train")
    assert "satkit" in import_closure("satkit.cli")  # from . import __version__


PACKAGES = ["satkit", "satkit.logic", "satkit.rl", "satkit.solver"]


def test_each_package_exports_only_names_its_callers_import_through_it():
    files = [p for d in ("src", "tests", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py")]
    imported = {package: set() for package in PACKAGES}
    for path in files:
        for module, names in imports_from(path):
            if module in imported:
                imported[module].update(names)
    unused = {
        package: sorted(set(importlib.import_module(package).__all__) - imported[package])
        for package in PACKAGES
    }
    assert unused == {package: [] for package in PACKAGES}


# -- what each path loads -------------------------------------------------------

def _run_fresh(code: str, *args: str) -> dict:
    """The JSON object that ``code`` prints last, run with ``args`` in a
    new interpreter that imports satkit from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_CONVERT_AND_SOLVE = """
import contextlib, io, json, sys
import satkit, satkit.logic, satkit.solver, satkit.bench, satkit.cli
expr_path, cnf_path = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        satkit.cli.main(["convert", expr_path, "--out", cnf_path]),
        satkit.cli.main(["solve", cnf_path, "--heuristic", "vsids"]),
        satkit.cli.main(["--version"]),
    ]
heavy = ["numpy", "urllib.request", "http.client"]
print(json.dumps({"codes": codes, "loaded": [m for m in heavy if m in sys.modules]}))
"""


def test_convert_and_a_vsids_solve_load_neither_numpy_nor_the_http_client(tmp_path):
    expr_path = tmp_path / "e.txt"
    expr_path.write_text("Or(A, B)\nImplies(A, Not(C))\n", encoding="utf-8")
    out = _run_fresh(_CONVERT_AND_SOLVE, str(expr_path), str(tmp_path / "e.cnf"))
    assert out == {"codes": [0, 10, 0], "loaded": []}


_RL_SET_UP = """
import json, random, sys
from satkit import bench
from satkit.generators import planted_ksat
before_load = "satkit.rl.heuristic" in sys.modules
from satkit.rl.policy import load_policy_file
policy = load_policy_file(sys.argv[1])
after_load = "satkit.rl.heuristic" in sys.modules
modules = set(sys.modules)
bench.ENTRANTS["rl"](policy, planted_ksat(6, 20, random.Random(0)))
print(json.dumps({
    "before_load": before_load,
    "after_load": after_load,
    "imported_by_set_up": sorted(set(sys.modules) - modules),
}))
"""


def test_the_rl_set_up_that_run_comparison_times_imports_nothing(tmp_path):
    from satkit.rl.policy import Policy, PpoConfig, save_policy_file

    path = tmp_path / "policy.bin"
    save_policy_file(Policy(6, 20, PpoConfig(hidden_sizes=(8,)), seed=0), path)
    out = _run_fresh(_RL_SET_UP, str(path))
    assert out == {"before_load": False, "after_load": True, "imported_by_set_up": []}
