"""Every name a cocyclelab module imports is used in that module.

Parsed with the standard library's `ast`: an import binds a name (the alias,
or the first component of a dotted `import a.b`), and a use is any Name node,
which covers attribute bases (`np.array`) and unquoted annotations.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cocyclelab"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items(), key=lambda b: b[1])
            if name not in used]


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\nimport os\nimport os.path as osp\n"
              "import numpy as np\nfrom typing import Optional, Sequence\n"
              "def f(x: Optional[int]) -> None:\n    return np.abs(x)\n")
    assert unused_imports(source) == ["os (line 2)", "osp (line 3)", "Sequence (line 5)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
