"""What a fresh interpreter loads when it imports walklab.

Every dense solve goes through numpy.linalg, so walklab never imports
scipy, not even at its first hitting, resistance or eigenvalue solve. The
process-pool machinery costs about 20 ms to import and loads only when a
run starts more than one worker. Each check runs in its own interpreter,
since the test process may have loaded either. The source checks read the
modules with ast: no other import hides inside a function, and every name
a module exports exists. The benchmark's workloads are read the same way,
so a name they take from walklab cannot be removed unnoticed.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import walklab

SRC = str(Path(walklab.__file__).resolve().parents[1])


def _fresh(code: str, tmp_path: Path) -> None:
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_import_loads_neither_scipy_nor_the_process_pool(tmp_path):
    _fresh(
        """
        import sys
        import walklab, walklab.cli
        assert "scipy" not in sys.modules
        assert "concurrent.futures.process" not in sys.modules
        """,
        tmp_path,
    )


def _runs_without_scipy(runs: list[list[str]], tmp_path: Path) -> None:
    _fresh(
        f"""
        import sys
        from walklab.cli import main

        runs = {runs!r}
        for args in runs:
            try:
                main(["run", *args, "--seed", "11", "--out", args[0]])
            except SystemExit as exc:
                assert exc.code == 0, (args, exc.code)
            assert "scipy" not in sys.modules, args
        """,
        tmp_path,
    )


def test_experiments_without_a_dense_solve_never_load_scipy(tmp_path):
    runs = [
        ["st-connect-demo", "--family", "path:8", "--trials", "20"],
        ["p-simple", "--trials", "800"],
    ]
    _runs_without_scipy(runs, tmp_path)


def test_experiments_with_a_dense_solve_never_load_scipy(tmp_path):
    # exact hitting, the cover recursion, resistances and the lazy spectrum
    runs = [
        ["closed-forms", "--n", "2..6"],
        ["commute-identity", "--trials", "3"],
        ["grid-resistance", "--n", "2..4"],
        ["conductance-survey", "--trials", "1"],
    ]
    _runs_without_scipy(runs, tmp_path)


def test_dense_solves_leave_scipy_unloaded_and_match_the_closed_form(tmp_path):
    _fresh(
        """
        import sys
        from walklab import build_kernel, exact_hitting, family
        from walklab.electrical import resistance_matrix
        from walklab.spectral import kernel_eigenvalues

        g = family("cycle:6")
        h = exact_hitting(build_kernel(g))
        resistance_matrix(g)
        kernel_eigenvalues(build_kernel(g, lazy=True))
        assert "scipy" not in sys.modules
        for r in range(6):
            assert abs(h[0, r] - r * (6 - r)) <= 1e-9, (r, h[0, r])
        """,
        tmp_path,
    )


SOURCES = sorted(Path(walklab.__file__).parent.glob("*.py"))
DEFERRED = {"concurrent.futures.ProcessPoolExecutor"}


def _imported(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    module = "." * node.level + (node.module or "")
    return [f"{module}.{alias.name}" for alias in node.names]


def test_only_the_process_pool_imports_below_module_level():
    assert SOURCES
    nested = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top:
                nested += [(path.name, name) for name in _imported(node)]
    assert {name for _, name in nested} <= DEFERRED, nested


def test_every_exported_name_exists():
    exporters = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = set()
        exported = None
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound.update(t.id for t in targets if isinstance(t, ast.Name))
                if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                    exported = ast.literal_eval(node.value)
        if exported is None:
            continue  # errors.py has no __all__
        exporters.append(path.stem)
        missing = sorted(set(exported) - bound)
        assert not missing, f"{path.name} exports undefined names {missing}"
    assert "__init__" in exporters


def test_every_name_the_benchmark_reads_exists():
    # perfbench/workloads.py imports walklab as wl and WalkConfig from it
    source = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "wl"
    }
    names |= {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "walklab"
        for alias in node.names
    }
    assert {"family", "simulate", "WalkConfig"} <= names
    missing = sorted(name for name in names if not hasattr(walklab, name))
    assert not missing, f"perfbench/workloads.py reads walklab names that do not exist: {missing}"
