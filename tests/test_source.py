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


class _RaiseSites(ast.NodeVisitor):
    # "<module>.<function>" of every `raise E` or `raise E(...)` for the
    # exception names in `sites`; a raise outside any function is recorded
    # as "<module>.<module>".
    def __init__(self, module, sites):
        self.where = [module]
        self.sites = sites

    def visit_FunctionDef(self, node):
        self.where.append(node.name)
        self.generic_visit(node)
        self.where.pop()

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id in self.sites:
            self.sites[exc.id].append(f"{self.where[0]}.{self.where[-1]}")


def test_one_exactness_check_and_one_size_guard():
    sites = {"ExactnessError": [], "GuardError": []}
    for path in sorted(Path(bghultman.__file__).parent.glob("*.py")):
        _RaiseSites(path.stem, sites).visit(ast.parse(path.read_text(encoding="utf-8")))
    assert sites == {"ExactnessError": ["exactmath.exact_div"], "GuardError": ["perm.check_size"]}


def test_one_unsigned_precondition_in_distances():
    # Every cycle-based metric's group is checked in _metric_value, the one
    # route that bid, td_lower, ptd_lower, bound_report and verify share.
    path = Path(bghultman.__file__).parent / "distances.py"
    sites = {"PermutationError": []}
    _RaiseSites(path.stem, sites).visit(ast.parse(path.read_text(encoding="utf-8")))
    assert sites == {"PermutationError": ["distances._metric_value"]}


def test_no_library_call_to_r_coefficient():
    # r_coefficient is the per-term reference; the library walks A_n only in
    # hultman._r_groups.
    callers = []
    for path in sorted(Path(bghultman.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "r_coefficient":
                    callers.append(f"{path.stem}:{node.lineno}")
    assert callers == []
