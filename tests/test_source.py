import ast
from pathlib import Path

import bghultman

# pyproject.toml declares requires-python = ">=3.10".
FLOOR = (3, 10)


def test_library_parses_on_declared_floor():
    sources = sorted(Path(bghultman.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
