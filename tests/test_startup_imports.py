"""Start-up cost guard: ``scipy.stats`` stays off the engine path.

Importing ``scipy.stats`` costs about a second of CPU and ~70 MB of
resident memory, and no figure needs it.  Every CLI call, ``repro
serve`` start and subprocess would pay it if any module imported scipy
at module level, so scipy is imported only inside the function that
needs it (the sensitivity ANOVA, Welch's t, the gap test), and the
Student-t quantile of sampled plans comes from ``scipy.special``.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys

import repro

_PACKAGE = pathlib.Path(repro.__file__).resolve().parent
_SRC = str(_PACKAGE.parent)

#: A fresh interpreter importing every public entry point, then running
#: one tiny sampled plan (which needs a Student-t quantile).
_SCRIPT = """\
import json, sys
import repro, repro.api, repro.cli, repro.serve
from repro import api
result = api.run_figure13(scale=12, sample="fraction:0.5")
estimates = result.data["sampling"]["estimates"].values()
print(json.dumps({"scipy_stats": "scipy.stats" in sys.modules,
                  "t_intervals": sum(e["n"] > 1 for e in estimates)}))
"""


def test_sampled_plan_in_fresh_process_leaves_scipy_stats_unloaded(tmp_path):
    env = dict(os.environ, PYTHONPATH=_SRC, REPRO_CACHE="0",
               REPRO_TRACE="0", REPRO_CACHE_DIR=str(tmp_path))
    out = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                         capture_output=True, text=True, check=True).stdout
    document = json.loads(out)
    assert document["t_intervals"] > 0
    assert not document["scipy_stats"]


def _module_level_scipy_imports(tree: ast.AST):
    """Import nodes of ``scipy`` reached without entering a function."""
    stack = list(ast.iter_child_nodes(tree))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == "scipy" for alias in node.names):
            yield node
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module or "").split(".")[0] == "scipy":
            yield node
        stack.extend(ast.iter_child_nodes(node))


def test_no_module_level_scipy_import():
    offenders = [
        f"{path.relative_to(_PACKAGE.parent)}:{node.lineno}"
        for path in sorted(_PACKAGE.rglob("*.py"))
        for node in _module_level_scipy_imports(
            ast.parse(path.read_text(), filename=str(path)))
    ]
    assert offenders == []


def test_module_level_scipy_import_is_detected():
    tree = ast.parse("import os\n"
                     "from scipy import stats\n"
                     "if True:\n    import scipy.special\n"
                     "def f():\n    from scipy import stats\n")
    assert sorted(node.lineno for node in
                  _module_level_scipy_imports(tree)) == [2, 4]
