"""Every module names what it imports at the top level.

``__init__.py`` files are skipped, their imports being re-exports, and so
are ``from __future__`` imports, which switch compiler features on.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list:
    """Names bound by the module's top-level imports that it never names."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in named]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, os.path as osp\nfrom math import pi, tau as t\nimport numpy\nnumpy.ones(pi)\n"
    assert unused_imports(source) == ["os", "osp", "t"]


def test_no_module_imports_what_it_never_names():
    paths = [path for folder in ("src/learnedbp", "tests", "demos") for path in sorted((ROOT / folder).glob("*.py"))]
    assert len(paths) > 20
    unused = {
        str(path.relative_to(ROOT)): names
        for path in paths
        if path.name != "__init__.py" and (names := unused_imports(path.read_text()))
    }
    assert unused == {}
