import ast
import hashlib
import importlib
import inspect
import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

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


def _floor_interpreter():
    # python3.10 on PATH, else a pyenv install; a candidate counts only if it
    # runs and reports 3.10, which an inactive pyenv shim does not.
    installs = sorted(Path.home().glob(".pyenv/versions/3.10*/bin/python3.10"))
    for exe in filter(None, [shutil.which("python3.10"), *map(str, installs)]):
        probe = subprocess.run(
            [exe, "-c", "import sys; print(*sys.version_info[:2])"],
            capture_output=True, text=True, timeout=60,
        )
        if probe.returncode == 0 and probe.stdout.split() == [str(v) for v in FLOOR]:
            return exe
    return None


def test_commands_run_on_declared_floor(capsys):
    # The benchmark self-test's tiny commands against their recorded digests;
    # a transposition BFS, which takes the toric orbits, a signed reversal
    # BFS, which takes the mirror, and a prefix signed reversal BFS, each
    # ending in bottom-up rounds, two unsigned tables with counts past 28
    # digits, printed from Decimal, and the five verify suites, which between
    # them compare every kind of value record, against this interpreter's
    # output; and three command lines the parser rejects, since argparse calls
    # error() from different places in different versions.
    exe = _floor_interpreter()
    if exe is None:
        pytest.skip("no Python 3.10 interpreter found")
    selftest = ast.parse((ROOT / "perfbench" / "selftest.py").read_text(encoding="utf-8"))
    tiny = next(
        ast.literal_eval(node.value)
        for node in selftest.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TINY"
    )
    digests = json.loads((ROOT / "perfbench" / "digests.json").read_text(encoding="utf-8"))
    here = {}
    for command in [
        "dist --metric transposition --n 6", "dist --metric signed_reversal --n 5",
        "dist --metric prefix_signed_reversal --n 5", "table --n 60 --format json",
        "table --n 60 --dense",
    ] + [
        f"verify --suite {suite}" for suite in cli._SUITE_NAMES
    ]:
        assert cli.main(command.split()) == 0, command
        here[command] = capsys.readouterr().out.encode()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    for command in [*tiny, *here]:
        run = subprocess.run(
            [exe, "-m", "bghultman", *command.split()], capture_output=True, env=env, timeout=120
        )
        assert (run.returncode, run.stderr) == (0, b""), command
        if command in digests:
            assert hashlib.sha256(run.stdout).hexdigest() == digests[command], command
        else:
            assert run.stdout == here[command], command
    for command in ["table --n x", "dist --metric nope --n 3", "census"]:
        run = subprocess.run(
            [exe, "-m", "bghultman", *command.split()], capture_output=True, env=env, timeout=120
        )
        assert (run.returncode, run.stdout) == (2, b""), command
        assert run.stderr.startswith(b"hultman ") and run.stderr.count(b"\n") == 1, command


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


def _importers(package):
    # "<module>:<line>" of every library import of ``package`` or its submodules.
    imports = []
    for path in sorted(Path(bghultman.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.partition(".")[0] == package for m in modules):
                imports.append(f"{path.stem}:{node.lineno}")
    return imports


def test_no_dataclasses_import():
    # dataclasses brings inspect, ast, dis and tokenize into every launch, and
    # each decoration execs generated code; the records are __slots__ classes.
    assert _importers("dataclasses") == []


def test_one_module_imports_decimal():
    # Every count is an int; only hultman.unsigned_decimal_rows builds
    # Decimal integers, which `table` prints in linear time.
    assert [site.partition(":")[0] for site in _importers("decimal")] == ["hultman"]


def test_cli_spells_the_verify_suites():
    # cli names the suites itself so that only `hultman verify` imports them.
    assert cli._SUITE_NAMES == tuple(sorted(verify.SUITES))


def test_one_exactness_check_and_one_size_guard():
    sites = {"ExactnessError": [], "GuardError": []}
    for path in sorted(Path(bghultman.__file__).parent.glob("*.py")):
        _RaiseSites(path.stem, sites).visit(ast.parse(path.read_text(encoding="utf-8")))
    assert sites == {"ExactnessError": ["exactmath.exact_div"], "GuardError": ["perm.check_size"]}


def _value_error_sites(matches):
    # "<module>.<top-level definition>" of every `raise ValueError(...)`
    # whose call node satisfies ``matches``.
    sites = []
    for path in sorted(Path(bghultman.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Raise)
                    and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "ValueError"
                    and matches(node.exc)
                ):
                    sites.append(f"{path.stem}.{getattr(stmt, 'name', path.stem)}")
    return sites


def test_one_check_for_a_negative_size():
    # Every "must be >= 0" ValueError is raised by perm.check_nonnegative,
    # apart from MomentPair's, which checks a variance, not a size.
    sites = _value_error_sites(lambda call: any(
        isinstance(part, ast.Constant) and "must be >= 0" in str(part.value)
        for part in ast.walk(call)
    ))
    assert sites == ["hultman.MomentPair", "perm.check_nonnegative"]


def _message_head(call):
    # The literal text a message starts with: a plain string, or the first
    # piece of an f-string.
    head = call.args[0] if call.args else None
    if isinstance(head, ast.JoinedStr) and head.values:
        head = head.values[0]
    return head.value if isinstance(head, ast.Constant) and isinstance(head.value, str) else ""


def test_one_check_for_an_unknown_name():
    # Every ValueError whose message starts with "unknown " is raised by
    # perm.lookup, the one way the library reads a table by name.
    sites = _value_error_sites(lambda call: _message_head(call).startswith("unknown "))
    assert sites == ["perm.lookup"]


def test_one_equality_rule_for_the_records():
    # Equality, hash and repr come from perm.Record alone; a record whose
    # fields hold a dict opts out of hashing with `__hash__ = None`.
    rule = {"__eq__", "__hash__", "__repr__"}
    owners = []
    for path in sorted(Path(bghultman.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef):
                    names = {stmt.name}
                elif isinstance(stmt, ast.Assign) and not (
                    isinstance(stmt.value, ast.Constant) and stmt.value.value is None
                ):
                    names = {getattr(t, "id", None) for t in stmt.targets}
                else:
                    continue
                if names & rule:
                    owners.append(f"{path.stem}.{node.name}")
    assert sorted(set(owners)) == ["perm.Record"]


def test_one_unsigned_precondition_in_distances():
    # Every cycle-based metric's group is checked in metric_value, the one
    # per-permutation route, which verify and the tests share.
    path = Path(bghultman.__file__).parent / "distances.py"
    sites = {"PermutationError": []}
    _RaiseSites(path.stem, sites).visit(ast.parse(path.read_text(encoding="utf-8")))
    assert sites == {"PermutationError": ["distances.metric_value"]}


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


def test_metric_names_are_spelled_once():
    # A metric's route follows its METRICS row, never its name: in distances
    # a metric's name is a METRICS key and no other string constant.
    names = set(bghultman.distances.METRICS)
    path = Path(bghultman.__file__).parent / "distances.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    metrics = next(s for s in tree.body if isinstance(s, ast.AnnAssign) and s.target.id == "METRICS")
    allowed = set(map(id, metrics.value.keys))
    spelled = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in names and id(node) not in allowed
    ]
    assert spelled == []


def test_generator_sets_read_their_row():
    # A generator set's prefix and sign are fields of its GENERATOR_SETS
    # row; nothing in distances reads them off the set's name.
    path = Path(bghultman.__file__).parent / "distances.py"
    spelled = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and node.value in ("prefix_", "signed_")
    ]
    assert spelled == []


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


# A size is a parameter of one of these names.  The other required
# parameters of a public name that takes one get a value that is valid at
# size 0, from SAMPLE_ARGUMENTS unless SAMPLE_OVERRIDES names the entry.
SIZE_PARAMETERS = {"n", "m", "max_n", "length"}
SAMPLE_ARGUMENTS = {
    "k": 1, "a": 1, "b": 1, "offset": 0, "black": (), "signed": False, "weight": "c",
    "metric": "td_lower", "generator_set": "reversal", "guard": 5, "force": False, "what": "test",
}
SAMPLE_OVERRIDES = {"distances.compare_to_shifted": {"metric": "reversal"}}
# Records that store the size they are given; the functions that build them check it.
STORES_A_SIZE = {"census.DistributionTable", "distances.ComparisonResult"}


def _public(name):
    # The object the public name "<module>.<name>" stands for.
    module, _, attr = name.partition(".")
    return getattr(importlib.import_module(f"bghultman.{module}"), attr)


def _parameters(name):
    # The parameters of a public name, or None for a constant or an
    # exception class.
    try:
        return inspect.signature(_public(name)).parameters
    except (TypeError, ValueError):
        return None


def _size_entries():
    # "<module>.<name>" of every public name that takes a size.
    names = [
        f"{path.stem}.{name}"
        for path in sorted(Path(bghultman.__file__).parent.glob("*.py"))
        for name in _exported(ast.parse(path.read_text(encoding="utf-8")))
    ]
    return [
        name for name in names
        if name not in STORES_A_SIZE and SIZE_PARAMETERS & set(_parameters(name) or ())
    ]


@pytest.mark.parametrize("name", _size_entries())
def test_every_size_entry_rejects_a_negative_size(name):
    # test_one_check_for_a_negative_size finds the raise sites; this calls
    # each public name that takes a size with a size of -1 and otherwise
    # valid arguments, so a check that runs before the size check fails it.
    params = _parameters(name)
    (size,) = SIZE_PARAMETERS & set(params)
    args = {p: SAMPLE_ARGUMENTS[p] for p, v in params.items() if v.default is v.empty and p != size}
    args.update(SAMPLE_OVERRIDES.get(name, {}), **{size: -1})
    with pytest.raises(ValueError, match=rf"^{size} must be >= 0, got -1$"):
        _public(name)(**args)


# Private names one library module still reads from another.
ALLOWED_REACH_INS = set()


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
    # GeneratorSet.moves, called once per state by the tests' _tuple_bfs and
    # by perfbench's move timing.  A BFS run reads it once, in _value_tables.
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
