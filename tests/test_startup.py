"""What a fresh interpreter loads when it imports walklab.

scipy.linalg costs about 0.3 s to import and the process-pool machinery
about 20 ms, so both load only when a run first needs them: scipy at the
first dense solve, the pool when a run starts more than one worker. Each
check runs in its own interpreter, since the test process has long since
loaded both. The source checks read the modules with ast: no other import
hides inside a function, and every name a module exports exists.
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


def test_experiments_without_a_dense_solve_never_load_scipy(tmp_path):
    _fresh(
        """
        import sys
        from walklab.cli import main

        runs = [
            ["st-connect-demo", "--family", "path:8", "--trials", "20"],
            ["p-simple", "--trials", "800"],
        ]
        for args in runs:
            try:
                main(["run", *args, "--seed", "11", "--out", args[0]])
            except SystemExit as exc:
                assert exc.code == 0, (args, exc.code)
            assert "scipy" not in sys.modules, args
        """,
        tmp_path,
    )


def test_first_dense_solve_loads_scipy_and_matches_the_closed_form(tmp_path):
    _fresh(
        """
        import sys
        from walklab import build_kernel, exact_hitting, family

        assert "scipy" not in sys.modules
        h = exact_hitting(build_kernel(family("cycle:6")))
        assert "scipy.linalg" in sys.modules
        for r in range(6):
            assert abs(h[0, r] - r * (6 - r)) <= 1e-9, (r, h[0, r])
        """,
        tmp_path,
    )


SOURCES = sorted(Path(walklab.__file__).parent.glob("*.py"))
DEFERRED = {"scipy.linalg", "concurrent.futures.ProcessPoolExecutor"}


def _imported(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    module = "." * node.level + (node.module or "")
    return [f"{module}.{alias.name}" for alias in node.names]


def test_only_scipy_and_the_process_pool_import_below_module_level():
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
