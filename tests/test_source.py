import ast
from pathlib import Path

import bghultman

# pyproject.toml declares requires-python = ">=3.10".
FLOOR = (3, 10)
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_library_parses_on_declared_floor():
    library = sorted(Path(bghultman.__file__).parent.glob("*.py"))
    scripts = sorted(SCRIPTS.glob("*.py"))
    assert library and scripts
    for path in library + scripts:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
