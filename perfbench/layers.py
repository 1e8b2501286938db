"""The traced run: per-layer metrics from an in-process pass over a workload.

Each command runs through ``cli.main(argv)`` in this process, with stdout
captured and every ``lru_cache`` of the package cleared first, so a command
does the same work as in a fresh ``python -m bghultman`` process.  For the
traced pass, the public functions of each layer module, and the names other
modules imported from them, are replaced by span recorders.  A span holds
its name, start, end, parent span and command index; a layer's self time is
its spans' durations minus the time their child spans cover.

Functions that run once per permutation are not wrapped: a recorder there
would cost more than the work it measures.  Those kernels are timed
standalone instead, in ns per item, on inputs drawn from the seed.
"""

from __future__ import annotations

import compileall
import functools
import importlib
import inspect
import io
import json
import re
import statistics
import sys
import time
from collections import deque
from contextlib import redirect_stdout
from math import factorial
from pathlib import Path
from random import Random
from typing import Callable

from checks import Tally

LAYERS = ("exactmath", "perm", "bpgraph", "hultman", "census", "distances")
PER_ITEM = {
    "exactmath.exact_div",
    "perm.iter_images_signed",
    "perm.iter_images_unsigned",
    "bpgraph.iter_partner_tuples",
    "bpgraph.cycle_count_images",
    "bpgraph.cycle_lengths_images",
}
CENSUS_SPANS = {
    "census.hultman_census",
    "census.signed_hultman_census",
    "census.odd_hultman_census",
}


def _table_total(table) -> dict:
    return {"perms": table.total()}


def _bfs_shape(dist: dict) -> dict:
    return {"states": len(dist), "levels": max(dist.values()) + 1 if dist else 0}


OBSERVERS: dict[str, Callable[[object], dict]] = {
    "distances.bfs_distances": _bfs_shape,
    "distances.bound_distribution": _table_total,
    "perm.first_values": lambda firsts: {"tasks": len(firsts)},
    **{name: _table_total for name in CENSUS_SPANS},
}

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "B",
    "hultman.signed_gf.self_s": "s",
    "hultman.signed_gf.calls": "count",
    "hultman.signed_gf.cache_hits": "count",
    "hultman.hook_shapes": "count",
    "hultman.signed_variance.self_s": "s",
    "hultman.r_sum.self_s": "s",
    "exactmath.harmonic.self_s": "s",
    "exactmath.harmonic.cache_hits": "count",
    "exactmath.linear_product.self_s": "s",
    "exactmath.linear_product.calls": "count",
    "exactmath.poly_add.self_s": "s",
    "exactmath.poly_add.calls": "count",
    "exactmath.poly_mul.self_s": "s",
    "exactmath.poly_mul.calls": "count",
    "perm.iter_images_signed.ns_per_item": "ns",
    "perm.iter_images_unsigned.ns_per_item": "ns",
    "bpgraph.cycle_count_images.ns_per_call": "ns",
    "bpgraph.cycle_lengths_images.ns_per_call": "ns",
    "census.self_s": "s",
    "census.perms": "count",
    "census.ns_per_perm": "ns",
    "distances.bound_distribution.ns_per_perm": "ns",
    "census.tasks": "count",
    "census.parallel_speedup": "ratio",
    "distances.bfs.self_s": "s",
    "distances.bfs.states": "count",
    "distances.bfs.levels": "count",
    "distances.bfs.states_per_s": "1/s",
    "distances.moves.ns_per_move": "ns",
    "distances.compare.fit_s": "s",
    "trace.overhead_s": "s",
}


class Recorder:
    """Keeps spans in memory: [name, parent index, command, start, end, counters]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.items: dict[str, int] = {}
        self.command = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.command, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if observe is not None:
                span[5] = observe(result)
            return result

        return recorded

    def count_items(self, name: str, gen_fn: Callable) -> Callable:
        """Wrap a generator function, counting what it yields."""
        items = self.items
        items.setdefault(name, 0)

        @functools.wraps(gen_fn)
        def counted(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                items[name] += 1
                yield item

        return counted

    def dump(self, path: Path, commands: list[str]) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"commands": commands, "names": names, "items": self.items}, fh)
            fh.write("\n")
            for name, parent, cmd, start, end, counters in self.spans:
                row = [index[name], parent, cmd, round(start, 9), round(end, 9)]
                if counters:
                    row.append(counters)
                fh.write(json.dumps(row) + "\n")


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name.startswith("bghultman.")]


def instrument(recorder: Recorder) -> Callable[[], None]:
    """Swap span recorders in for layer functions; returns the undo function."""
    wrappers: dict[int, tuple[Callable, Callable]] = {}
    for layer in LAYERS:
        module = sys.modules[f"bghultman.{layer}"]
        for attr in module.__all__:
            fn = getattr(module, attr)
            name = f"{layer}.{attr}"
            if name in PER_ITEM or inspect.isclass(fn) or not callable(fn):
                continue
            if inspect.isgeneratorfunction(fn):
                wrappers[id(fn)] = (fn, recorder.count_items(name, fn))
            else:
                wrappers[id(fn)] = (fn, recorder.wrap(name, fn))
    undo = []
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            original, wrapper = wrappers.get(id(value), (None, None))
            if value is original:
                undo.append((module, attr, value))
                setattr(module, attr, wrapper)
    poly = sys.modules["bghultman.exactmath"].Polynomial
    for attr, name in (("__add__", "exactmath.poly_add"), ("__mul__", "exactmath.poly_mul")):
        original = vars(poly)[attr]
        undo.append((poly, attr, original))
        setattr(poly, attr, recorder.wrap(name, original))

    def restore() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


def lru_caches() -> dict[str, Callable]:
    """Every lru_cache in the package, by qualified name."""
    found = {}
    for module in _package_modules():
        for attr, value in vars(module).items():
            if hasattr(value, "cache_clear") and value.__module__ == module.__name__:
                found[f"{module.__name__.rsplit('.', 1)[1]}.{attr}"] = value
    return found


class InProcess:
    """Runs commands through cli.main in this process and checks their output."""

    def __init__(self, cli_main: Callable, caches: dict[str, Callable], checker) -> None:
        self.cli_main = cli_main
        self.caches = caches
        self.checker = checker
        self.tally = Tally()
        self.stdout_bytes = 0
        self.cache_hits: dict[str, int] = {name: 0 for name in caches}

    def run(self, command: str, main: Callable | None = None) -> float:
        for cache in self.caches.values():
            cache.cache_clear()
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(buf):
                code = (main or self.cli_main)(command.split())
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed command, not a failed run
            code = repr(exc)
        elapsed = time.perf_counter() - t0
        out = buf.getvalue().encode("utf-8")
        self.stdout_bytes += len(out)
        for name, cache in self.caches.items():
            self.cache_hits[name] += cache.cache_info().hits
        found = [f"exit {code}"] if code != 0 else self.checker.problems(command, out)
        self.tally.add(command, found)
        return elapsed

    def run_pass(self, commands: list[str], main: Callable | None = None) -> float:
        return sum(self.run(c, main) for c in commands)


def _median_ns(samples: list[tuple[float, int]]) -> float:
    return statistics.median(1e9 * t / count for t, count in samples)


def time_kernels(rng: Random) -> dict[str, float]:
    """Standalone ns-per-item timings of the per-permutation kernels."""
    perm = sys.modules["bghultman.perm"]
    bpgraph = sys.modules["bghultman.bpgraph"]
    distances = sys.modules["bghultman.distances"]
    clock = time.perf_counter

    def stream(fn: Callable, n: int, signed: bool, draws: int) -> float:
        firsts = perm.first_values(n, signed)
        per_first = (2 ** (n - 1) if signed else 1) * factorial(n - 1)
        samples = []
        for first in rng.choices(firsts, k=draws):
            t0 = clock()
            deque(fn(n, first), maxlen=0)
            samples.append((clock() - t0, per_first))
        return _median_ns(samples)

    def random_images(n: int, signed: bool) -> tuple[int, ...]:
        values = rng.sample(range(1, n + 1), n)
        return tuple(v if not signed or rng.random() < 0.5 else -v for v in values)

    def walker(fn: Callable, n: int, signed: bool) -> float:
        sample = [random_images(n, signed) for _ in range(4000)]
        samples = []
        for _ in range(5):
            t0 = clock()
            for images in sample:
                fn(images)
            samples.append((clock() - t0, len(sample)))
        return _median_ns(samples)

    def moves() -> float:
        cases = [("signed_reversal", 6), ("transposition", 8), ("prefix_signed_reversal", 6)]
        states = []
        for name, n in cases:
            gset = distances.GENERATOR_SETS[name]
            states += [(gset.moves, random_images(n, gset.signed)) for _ in range(300)]
        samples = []
        for _ in range(5):
            produced = 0
            t0 = clock()
            for gen, state in states:
                produced += len(list(gen(state)))
            samples.append((clock() - t0, produced))
        return _median_ns(samples)

    return {
        "perm.iter_images_signed.ns_per_item": stream(perm.iter_images_signed, 7, True, 5),
        "perm.iter_images_unsigned.ns_per_item": stream(perm.iter_images_unsigned, 9, False, 9),
        "bpgraph.cycle_count_images.ns_per_call": walker(bpgraph.cycle_count_images, 7, True),
        "bpgraph.cycle_lengths_images.ns_per_call": walker(bpgraph.cycle_lengths_images, 9, False),
        "distances.moves.ns_per_move": moves(),
    }


def serial_twin(command: str) -> str | None:
    """The same command with --jobs 1, if it asks for more than one job."""
    match = re.search(r"--jobs (\d+)", command)
    if match is None or int(match.group(1)) <= 1:
        return None
    return command[: match.start()] + "--jobs 1" + command[match.end() :]


def span_metrics(recorder: Recorder) -> dict[str, float]:
    """Self times, calls and counters from the recorded spans."""
    spans = recorder.spans
    child_time = [0.0] * len(spans)
    for name, parent, _, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_by_name: dict[str, float] = {}
    incl_by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    counters: dict[str, int] = {}
    fit = 0.0
    for i, (name, parent, _, start, end, observed) in enumerate(spans):
        self_by_name[name] = self_by_name.get(name, 0.0) + end - start - child_time[i]
        incl_by_name[name] = incl_by_name.get(name, 0.0) + end - start
        calls[name] = calls.get(name, 0) + 1
        for key, value in (observed or {}).items():
            counters[f"{name}:{key}"] = counters.get(f"{name}:{key}", 0) + value
        if name == "distances.compare_to_shifted":
            fit += end - start
        elif name == "distances.bfs_level_sizes" and parent >= 0:
            if spans[parent][0] == "distances.compare_to_shifted":
                fit -= end - start

    def self_of_layer(layer: str) -> float:
        return sum(t for n, t in self_by_name.items() if n.split(".")[0] == layer)

    perms = sum(counters.get(f"{n}:perms", 0) for n in CENSUS_SPANS)
    census_time = sum(incl_by_name.get(n, 0.0) for n in CENSUS_SPANS)
    bound_perms = counters.get("distances.bound_distribution:perms", 0)
    states = counters.get("distances.bfs_distances:states", 0)
    bfs_time = incl_by_name.get("distances.bfs_distances", 0.0)
    metrics = {
        "cli.self_s": self_of_layer("cli"),
        "hultman.signed_gf.self_s": self_by_name.get("hultman.signed_gf", 0.0),
        "hultman.signed_gf.calls": calls.get("hultman.signed_gf", 0),
        "hultman.hook_shapes": recorder.items.get("hultman.hook_partitions", 0),
        "hultman.signed_variance.self_s": self_by_name.get("hultman.signed_variance", 0.0),
        "hultman.r_sum.self_s": self_by_name.get("hultman.r_sum", 0.0),
        "exactmath.harmonic.self_s": self_by_name.get("exactmath.harmonic", 0.0),
        "census.self_s": self_of_layer("census"),
        "census.perms": perms,
        "census.ns_per_perm": 1e9 * census_time / perms if perms else 0.0,
        "distances.bound_distribution.ns_per_perm": (
            1e9 * incl_by_name.get("distances.bound_distribution", 0.0) / bound_perms
            if bound_perms
            else 0.0
        ),
        "census.tasks": counters.get("perm.first_values:tasks", 0),
        "distances.bfs.self_s": self_by_name.get("distances.bfs_distances", 0.0),
        "distances.bfs.states": states,
        "distances.bfs.levels": counters.get("distances.bfs_distances:levels", 0),
        "distances.bfs.states_per_s": states / bfs_time if bfs_time else 0.0,
        "distances.compare.fit_s": fit,
    }
    for short in ("linear_product", "poly_add", "poly_mul"):
        metrics[f"exactmath.{short}.self_s"] = self_by_name.get(f"exactmath.{short}", 0.0)
        metrics[f"exactmath.{short}.calls"] = calls.get(f"exactmath.{short}", 0)
    return metrics


def command_time(recorder: Recorder, command: int) -> float:
    """Duration of the cli.main span of one command."""
    return sum(s[4] - s[3] for s in recorder.spans if s[0] == "cli.main" and s[2] == command)


def traced_run(
    root: Path, commands: list[str], rng: Random, seconds: float, checker, spans_path: Path
) -> tuple[dict[str, float], Tally, dict]:
    """Per-layer metrics for one workload; see the module docstring."""
    started = time.perf_counter()
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    # Compile first, as the untimed first launch does in the untraced run.
    compileall.compile_dir(src, quiet=1)
    t0 = time.perf_counter()
    cli = importlib.import_module("bghultman.cli")
    import_s = time.perf_counter() - t0

    kernels = time_kernels(rng)
    order = rng.sample(commands, len(commands))
    runner = InProcess(cli.main, lru_caches(), checker)
    untraced = [runner.run_pass(order)]

    recorder = Recorder()
    traced_main = recorder.wrap("cli.main", cli.main)
    restore = instrument(recorder)
    bytes_before, hits_before = runner.stdout_bytes, dict(runner.cache_hits)
    parallel = serial = 0.0
    try:
        traced = 0.0
        for i, command in enumerate(order):
            recorder.command = i
            traced += runner.run(command, traced_main)
        stdout_bytes = runner.stdout_bytes - bytes_before
        hits = {k: v - hits_before[k] for k, v in runner.cache_hits.items()}
        metrics = span_metrics(recorder)
        for i, command in enumerate(order):
            twin = serial_twin(command)
            if twin is None:
                continue
            recorder.command = len(order) + i
            runner.run(twin, traced_main)
            parallel += command_time(recorder, i)
            serial += command_time(recorder, recorder.command)
    finally:
        restore()
    recorder.dump(spans_path, order + [serial_twin(c) or "" for c in order])

    pass_estimate = untraced[0]
    while len(untraced) < 3 and time.perf_counter() - started + pass_estimate <= seconds:
        untraced.append(runner.run_pass(order))

    metrics.update(kernels)
    metrics.update(
        {
            "cli.import_s": import_s,
            "cli.stdout_bytes": stdout_bytes,
            "hultman.signed_gf.cache_hits": hits.get("hultman.signed_gf", 0),
            "exactmath.harmonic.cache_hits": hits.get("exactmath.harmonic", 0),
            "census.parallel_speedup": serial / parallel if parallel else 0.0,
            "trace.overhead_s": traced - statistics.median(untraced),
        }
    )
    extra = {
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "spans": len(recorder.spans),
        "spans_file": str(spans_path.relative_to(root)),
    }
    return {k: metrics[k] for k in PER_LAYER_UNITS}, runner.tally, extra
