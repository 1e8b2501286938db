import ast
from pathlib import Path

import bghultman
from bghultman import cli, verify

# pyproject.toml declares requires-python = ">=3.10".
FLOOR = (3, 10)
ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


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


def test_no_dataclasses_import():
    # dataclasses brings inspect, ast, dis and tokenize into every launch, and
    # each decoration execs generated code; the records are __slots__ classes.
    imports = []
    for path in sorted(Path(bghultman.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.partition(".")[0] == "dataclasses" for m in modules):
                imports.append(f"{path.stem}:{node.lineno}")
    assert imports == []


def test_cli_spells_the_verify_suites():
    # cli names the suites itself so that only `hultman verify` imports them.
    assert cli._SUITE_NAMES == tuple(sorted(verify.SUITES))


def test_one_exactness_check_and_one_size_guard():
    sites = {"ExactnessError": [], "GuardError": []}
    for path in sorted(Path(bghultman.__file__).parent.glob("*.py")):
        _RaiseSites(path.stem, sites).visit(ast.parse(path.read_text(encoding="utf-8")))
    assert sites == {"ExactnessError": ["exactmath.exact_div"], "GuardError": ["perm.check_size"]}


def test_one_unsigned_precondition_in_distances():
    # Every cycle-based metric's group is checked in _metric_value, the one
    # route that bid, td_lower, ptd_lower and verify share.
    path = Path(bghultman.__file__).parent / "distances.py"
    sites = {"PermutationError": []}
    _RaiseSites(path.stem, sites).visit(ast.parse(path.read_text(encoding="utf-8")))
    assert sites == {"PermutationError": ["distances._metric_value"]}


def test_cycle_weights_are_spelled_once():
    # A weight is a row of bpgraph.CYCLE_WEIGHTS; no module picks behaviour
    # by comparing a value with a row's name.
    names = set(bghultman.bpgraph.CYCLE_WEIGHTS)
    compares = []
    for path in sorted(Path(bghultman.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare) and any(
                isinstance(side, ast.Constant) and side.value in names
                for side in (node.left, *node.comparators)
            ):
                compares.append(f"{path.stem}:{node.lineno}")
    assert compares == []


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


# Public names that nothing outside the tests calls, kept on purpose.
IDLE_BY_DESIGN = {
    "hultman.r_coefficient",  # per-term oracle of r_sum
    "perm.count_factorizations",  # brute-force oracle of the unsigned closed forms
    "bpgraph.matching_from_pairs",  # builds the tests' matching fixtures
    "perm.identity",  # builds the tests' permutation fixtures
}


def _exported(tree):
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return [elt.value for elt in stmt.value.elts]
    return []


def _references(tree):
    # Every name a module loads, reads as an attribute or imports, with the
    # top-level definition it sits in, so that no definition counts as its
    # own caller.  Docstrings are constants and never count.
    refs = []
    for stmt in tree.body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.append((node.id, owner))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, owner))
            elif isinstance(node, ast.alias):
                refs.append((node.name, owner))
    return refs


def test_every_public_name_has_a_caller():
    # A caller is another library module, a re-export in bghultman/__init__,
    # a script or the benchmark; the tests alone do not keep a name alive.
    library = sorted(Path(bghultman.__file__).parent.glob("*.py"))
    others = sorted(SCRIPTS.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in library + others}
    callers = {}
    for path, tree in trees.items():
        for name, owner in _references(tree):
            callers.setdefault(name, set()).add((path, owner))
    idle = {
        f"{path.stem}.{name}"
        for path in library
        for name in _exported(trees[path])
        if not callers.get(name, set()) - {(path, name)}
    }
    assert idle == IDLE_BY_DESIGN


# Private names one library module still reads from another.
ALLOWED_REACH_INS = {
    "distances -> census._run_census",  # the census runner behind bound_distribution
    "distances -> hultman._cycle_row",  # the closed-form row that bid and dcj read
    "verify -> distances._metric_value",  # the per-permutation bound check
}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_no_private_reach_ins():
    reach_ins = set()
    for path in sorted(Path(bghultman.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()  # local names bound to sibling modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules.add(alias.asname or alias.name)
                    elif _private(alias.name):
                        reach_ins.add(f"{path.stem} -> {node.module}.{alias.name}")
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and _private(node.attr)
            ):
                reach_ins.add(f"{path.stem} -> {node.value.id}.{node.attr}")
    assert reach_ins == ALLOWED_REACH_INS


# Every lru_cache in the library, with the caller that repeats its argument.
CACHED = {
    "bpgraph.grey_matching",  # cycle_lengths_images, once per permutation verify checks
    "hultman._falling_sum_poly",  # hultman_new_formula, once per k of a row
    # GeneratorSet.moves, once per state of the tests' _tuple_bfs and of
    # perfbench's move timing; _value_tables, once per BFS run.
    "distances._generators",
}


def test_caches_are_allowlisted():
    cached = set()
    for path in sorted(Path(bghultman.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                for dec in node.decorator_list:
                    f = dec.func if isinstance(dec, ast.Call) else dec
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    if name in ("lru_cache", "cache"):
                        cached.add(f"{path.stem}.{node.name}")
    assert cached == CACHED
