"""Every ``REPRO_*`` environment variable the package names is
documented in the one engine table (``docs/engine.md``) or the serve
table (``docs/serve.md``)."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
NAME = re.compile(r"REPRO_[A-Z_]+")


def _source_names():
    names = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                for name in NAME.findall(node.value):
                    names.setdefault(name, path.relative_to(ROOT))
    return names


def test_every_env_name_is_documented():
    documented = set()
    for doc in ("engine.md", "serve.md"):
        documented |= set(NAME.findall(
            (ROOT / "docs" / doc).read_text(encoding="utf-8")))
    missing = {
        name: str(path) for name, path in _source_names().items()
        if name not in documented
    }
    assert not missing, f"undocumented REPRO_* names: {missing}"
