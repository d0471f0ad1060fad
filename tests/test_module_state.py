"""No module state between the engine and the timing kernels.

The kernel mode and the validation watchdog reach the replay as
arguments, and the replay's telemetry comes back as a return value
(``WindowResult.telemetry``).  This static check keeps hidden
channels through module globals from coming back: every ``global``
statement under ``src/repro`` must name an allowed global.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: (module path under ``src/repro``, global name) -> why it may be
#: rebound from inside a function.
ALLOWED_GLOBALS = {
    ("engine/core.py", "_default_engine"):
        "the process-wide default engine behind get_engine/set_engine",
    ("timing/runner.py", "_last_replay_info"):
        "write-only mirror of the last replay's telemetry, read by the "
        "benchmark's span tracer (perfbench/tracer.py)",
    ("timing/fastpath_vec.py", "last_kernel"):
        "write-only mirror of the last vector-kernel call's kernel, read "
        "by the benchmark's span tracer (perfbench/tracer.py)",
}

#: Names of the retired module-state channels; none may come back.
RETIRED_NAMES = (
    "fastpath_override", "set_fastpath_override", "fastpath_mode",
    "validation_override", "set_validation_settings",
    "get_validation_settings", "take_validation_ticket", "_replay_counter",
    "stats_tap", "_stats_tap", "consume_replay_info", "last_route",
    "last_iterations",
)


def _modules():
    return sorted(SRC.rglob("*.py"))


def _global_names():
    for path in _modules():
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                for name in node.names:
                    yield path.relative_to(SRC).as_posix(), name, node.lineno


def test_global_statements_name_only_allowed_globals():
    found = list(_global_names())
    assert found, "the scan found no global statement at all"
    unexpected = [f"{module}:{line} global {name}"
                  for module, name, line in found
                  if (module, name) not in ALLOWED_GLOBALS]
    assert unexpected == []


def test_every_allowed_global_still_exists():
    """An allowance whose global is gone must be dropped with it."""
    found = {(module, name) for module, name, _ in _global_names()}
    assert set(ALLOWED_GLOBALS) <= found


def test_retired_channels_are_gone():
    hits = []
    for path in _modules():
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(
                        node, (ast.FunctionDef, ast.ClassDef))
                    else None)
            if name in RETIRED_NAMES:
                hits.append(f"{path.relative_to(SRC)}:{node.lineno} {name}")
    assert hits == []
