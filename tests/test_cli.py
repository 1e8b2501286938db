import hashlib
import json
import os
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest

from bghultman import census, cli, distances, golden, hultman
from bghultman.cli import main
from bghultman.exactmath import ExactnessError


DIGESTS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "digests.json").read_text()
)


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def modules_after_cli_import():
    """The names in sys.modules of a fresh interpreter after `import bghultman.cli`."""
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", "import sys, bghultman.cli; print(*sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_launch_footprint():
    # dataclasses would bring inspect, ast, dis and tokenize into every
    # launch, and only `hultman verify` runs the suites.  perfbench/layers.py
    # reads the six layer modules from sys.modules after this import.
    modules = modules_after_cli_import()
    assert not modules & {"dataclasses", "inspect", "bghultman.verify", "bghultman.golden"}
    layers = ("exactmath", "perm", "bpgraph", "hultman", "census", "distances")
    assert {f"bghultman.{name}" for name in layers} <= modules


class TestTable:
    def test_reproduces_reference_values(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--signed", "--n", "11")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "k", "count"]
        got = {(int(n), int(k)): int(v) for n, k, v in rows if int(n) >= 1}
        expected = {
            (n, k): golden.golden_value(n, k)
            for n in range(1, 12)
            for k in range(1, n + 2)
        }
        assert got == expected
        assert len(got) == 77

    def test_small_unsigned(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--n", "2")
        _, rows = parse_csv(out)
        n2 = [(r[1], r[2]) for r in rows if r[0] == "2"]
        assert n2 == [("1", "1"), ("3", "1")]

    def test_n_zero(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--n", "0")
        _, rows = parse_csv(out)
        assert rows == [["0", "1", "1"]]

    def test_dense_includes_zeros(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--n", "3", "--dense")
        _, rows = parse_csv(out)
        assert ["3", "1", "0"] in rows

    def test_json_counts_are_strings(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--signed", "--n", "6", "--format", "json")
        _, csv_out, _ = run_cli(capsys, "table", "--signed", "--n", "6")
        payload = json.loads(out)
        assert payload["statistic"] == "signed_cycles"
        counts = [row["count"] for row in payload["rows"]]
        assert len(counts) == 28 and all(isinstance(count, str) for count in counts)
        _, csv_rows = parse_csv(csv_out)
        assert [[str(r["n"]), str(r["k"]), r["count"]] for r in payload["rows"]] == csv_rows


class TestCensus:
    def test_signed_matches_table(self, capsys):
        _, census_out, _ = run_cli(capsys, "census", "--signed", "--n", "5")
        _, table_out, _ = run_cli(capsys, "table", "--signed", "--n", "5")
        _, census_rows = parse_csv(census_out)
        _, table_rows = parse_csv(table_out)
        row5 = {k: v for n, k, v in table_rows if n == "5"}
        assert {k: v for k, v in census_rows} == row5

    def test_odd_statistic_total(self, capsys):
        _, out, _ = run_cli(capsys, "census", "--n", "7", "--statistic", "odd")
        _, rows = parse_csv(out)
        assert sum(int(v) for _, v in rows) == 5040

    def test_jobs_do_not_change_bytes(self, capsys):
        _, seq, _ = run_cli(capsys, "census", "--n", "5", "--jobs", "1")
        _, par, _ = run_cli(capsys, "census", "--n", "5", "--jobs", "4")
        assert seq == par

    @pytest.mark.parametrize("command", ["census", "dist"])
    def test_jobs_help_says_no_effect(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0
        assert "no effect" in " ".join(out.split())

    def test_import_loads_no_worker_pool(self):
        # Every census runs in the calling process, so the CLI needs neither
        # concurrent.futures nor multiprocessing.
        modules = modules_after_cli_import()
        assert [m for m in modules if m.startswith(("concurrent", "multiprocessing"))] == []

    def test_guard_exit_code(self, capsys):
        n = census.UNSIGNED_CENSUS_GUARD + 1
        code, _, err = run_cli(capsys, "census", "--n", str(n))
        assert code == 2
        assert "guard" in err
        assert "--force" in err

    def test_signed_odd_rejected(self, capsys):
        code, _, err = run_cli(capsys, "census", "--signed", "--n", "3", "--statistic", "odd")
        assert code == 2
        assert "unsigned" in err


class TestMoments:
    def test_rows(self, capsys):
        _, out, _ = run_cli(capsys, "moments", "--signed", "--max-n", "2")
        header, rows = parse_csv(out)
        assert header == ["n", "mean", "variance", "mean_float", "variance_float"]
        assert rows[0][:3] == ["1", "3/2", "1/4"]

    def test_unsigned_values(self, capsys):
        _, out, _ = run_cli(capsys, "moments", "--max-n", "2")
        _, rows = parse_csv(out)
        assert rows[0][1:3] == ["2/1", "0/1"]
        assert rows[1][1] == "2/1"


class TestDist:
    def test_dcj_row(self, capsys):
        _, out, _ = run_cli(capsys, "dist", "--metric", "dcj", "--n", "3")
        _, rows = parse_csv(out)
        assert rows == [["0", "1"], ["1", "6"], ["2", "21"], ["3", "20"]]

    def test_bid_total(self, capsys):
        _, out, _ = run_cli(capsys, "dist", "--metric", "bid", "--n", "3")
        _, rows = parse_csv(out)
        assert sum(int(v) for _, v in rows) == 6

    def test_bfs_metric(self, capsys):
        _, out, _ = run_cli(capsys, "dist", "--metric", "signed_reversal", "--n", "3")
        _, rows = parse_csv(out)
        assert sum(int(v) for _, v in rows) == 48

    @pytest.mark.parametrize(
        "argv, name, n",
        [
            ("dist --metric transposition --n 256", "transposition", 256),
            ("dist --metric transposition --n 200", "transposition", 200),
            ("compare --metric signed_reversal --n 128", "signed_reversal", 128),
        ],
    )
    def test_bfs_encoding_limit_is_one_line(self, capsys, argv, name, n):
        # One limit for both groups: every state is the bytes v + n.
        code, out, err = run_cli(capsys, *argv.split(), "--force")
        assert (code, out) == (2, "")
        assert err == f"error: {name} BFS stores states as bytes, so n must be below 128, got {n}\n"


class TestCompare:
    def test_reports_offset_and_series(self, capsys):
        _, out, _ = run_cli(capsys, "compare", "--metric", "signed_reversal", "--n", "5")
        header, rows = parse_csv(out)
        assert header == ["k", "distance", "shifted", "offset"]
        offsets = {r[3] for r in rows}
        assert len(offsets) == 1
        assert sum(int(r[1]) for r in rows) == 2**5 * factorial(5)

    def test_json_payload(self, capsys):
        _, out, _ = run_cli(capsys, "compare", "--metric", "prefix_reversal", "--n", "4", "--format", "json")
        payload = json.loads(out)
        assert set(payload) == {"n", "metric", "offset", "total_variation", "rows"}


class TestOutFile(object):
    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "table", "--n", "2", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("n,k,count\n")

    def test_unwritable_path_is_one_line_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "census", "--n", "3", "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_existing_file_is_replaced(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        target.write_text("stale\n" * 1000)
        code, _, _ = run_cli(capsys, "table", "--n", "2", "--out", str(target))
        _, expected, _ = run_cli(capsys, "table", "--n", "2")
        assert code == 0
        assert target.read_text() == expected
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]

    def test_failed_replace_keeps_old_file(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "x.csv"
        target.write_text("old\n")

        def refuse(src, dst):
            raise PermissionError(13, "Permission denied", src)

        monkeypatch.setattr(cli.os, "replace", refuse)
        code, out, err = run_cli(capsys, "census", "--n", "3", "--out", str(target))
        assert code == 2 and out == ""
        assert err == f"error: [Errno 13] Permission denied: '{target}'\n"
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]

    def test_failing_stream_keeps_old_file(self, tmp_path, monkeypatch):
        self.check_failing_stream(tmp_path, monkeypatch, "csv")

    def test_failing_json_stream_keeps_old_file(self, tmp_path, monkeypatch):
        self.check_failing_stream(tmp_path, monkeypatch, "json")

    @staticmethod
    def check_failing_stream(tmp_path, monkeypatch, fmt):
        # Rows 0..3 reach the temporary file before row 4 fails to divide.
        target = tmp_path / f"x.{fmt}"
        target.write_bytes(b"old\n")
        seeds = [list(seed) for seed in hultman._SIGNED_SEEDS]
        seeds[3][1] += 1
        monkeypatch.setattr(hultman, "_SIGNED_SEEDS", tuple(map(tuple, seeds)))
        with pytest.raises(ExactnessError):
            main(["table", "--signed", "--n", "30", "--format", fmt, "--out", str(target)])
        assert target.read_bytes() == b"old\n"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_closed_pipe_is_quiet_success(self):
        self.check_closed_pipe("csv", b"n,k,count\n")

    def test_closed_pipe_json_is_quiet_success(self):
        self.check_closed_pipe("json", b"{\n")

    @staticmethod
    def check_closed_pipe(fmt, first_line):
        # A reader that stops after one line, as `| head -1` does: the table
        # is far larger than a pipe buffer, so the writer meets the closed pipe.
        src = Path(cli.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "bghultman", "table", "--n", "200", "--format", fmt],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == first_line
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, b"")


class TestBadInput:
    @pytest.mark.parametrize(
        "argv",
        [
            "table --n -1",
            "dist --metric bid --n -2",
            "dist --metric td_lower --n -1",
            "moments --max-n -3",
            "moments --max-n 0",
            "census --n -1",
            "census --n 3 --jobs -4",
            "census --n 3 --jobs 0",
            "verify --suite table1 --max-n -1",
        ],
    )
    def test_bad_numbers_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_library_value_error_is_one_line(self, capsys, monkeypatch):
        def reject(*args, **kwargs):
            raise ValueError("n must be >= 0")

        monkeypatch.setattr(distances, "distance_distribution", reject)
        code, out, err = run_cli(capsys, "dist", "--metric", "td_lower", "--n", "3")
        assert (code, out, err) == (2, "", "error: n must be >= 0\n")


class TestVerify:
    @pytest.mark.parametrize(
        "suite, max_n",
        [("table1", "11"), ("formulas", "3"), ("lemmas", "2"), ("bounds", "3"), ("moments", "2")],
    )
    def test_suites_pass(self, capsys, suite, max_n):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--max-n", max_n)
        assert code == 0
        assert "FAIL" not in out
        assert "PASS" in out

    def test_failure_sets_exit_code(self, capsys, monkeypatch):
        broken = dict(golden.SIGNED_CYCLE_COUNTS)
        broken[3] = ("20", "21", "7", "1")
        monkeypatch.setattr(golden, "SIGNED_CYCLE_COUNTS", broken)
        code, out, err = run_cli(capsys, "verify", "--suite", "table1")
        assert code == 1
        assert "FAIL table1.row_n3" in out
        assert "failed" in err

    def test_closed_pipe_is_quiet_success(self):
        # A reader that stops after one line, as `| head -1` does; unbuffered,
        # each check's line goes out as it comes, so later lines meet the
        # closed pipe.
        src = Path(cli.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": "1"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "bghultman", "verify", "--suite", "formulas"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline().startswith(b"PASS formulas.")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, b"")

    def test_no_checks_is_failure(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "table1", "--max-n", "0")
        assert code == 1
        assert out == ""
        assert "no checks" in err


class TestRecordedDigests:
    # perfbench/digests.json records the SHA-256 of each benchmark command's
    # stdout; any drift in those bytes fails here, not only in the benchmark.
    @pytest.mark.parametrize("command", list(DIGESTS))
    def test_stdout_matches_digest(self, capsys, command):
        code, out, _ = run_cli(capsys, *command.split())
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[command]


# The JSON payloads as the CLI once built them whole, before one json.dumps:
# the oracle for the streamed writer, which must match them byte for byte.
def dumps(payload):
    return json.dumps(payload, indent=2) + "\n"


def table_payload(n, signed, dense):
    stream = enumerate((hultman.signed_rows if signed else hultman.unsigned_rows)(n))
    cells = ((m, k, row.coefficient(k)) for m, row in stream for k in range(1, m + 2))
    return {
        "statistic": "signed_cycles" if signed else "unsigned_cycles",
        "rows": [{"n": m, "k": k, "count": str(v)} for m, k, v in cells if v or dense],
    }


def moments_payload(max_n, signed):
    keys = ("n", "mean", "variance", "mean_float", "variance_float")
    rows = []
    for n in range(1, max_n + 1):
        pair = hultman.signed_moments(n) if signed else hultman.unsigned_moments(n)
        exact = [f"{x.numerator}/{x.denominator}" for x in (pair.mean, pair.variance)]
        hints = [f"{float(x):.15g}" for x in (pair.mean, pair.variance)]
        rows.append(dict(zip(keys, (n, *exact, *hints))))
    return {"statistic": "signed_cycles" if signed else "unsigned_cycles", "rows": rows}


def distribution_payload(table):
    return {
        "n": table.n,
        "statistic": table.statistic,
        "counts": {str(k): str(v) for k, v in sorted(table.counts.items())},
    }


def compare_payload(result):
    return {
        "n": result.n,
        "metric": result.metric,
        "offset": result.offset,
        "total_variation": str(result.total_variation),
        "rows": [{"k": k, "distance": str(d), "shifted": str(s)} for k, d, s in result.rows],
    }


CENSUSES = {
    "cycles": ([], census.hultman_census),
    "signed": (["--signed"], census.signed_hultman_census),
    "odd": (["--statistic", "odd"], census.odd_hultman_census),
}
DIST_METRICS = (
    list(distances.FORMULA_METRICS) + list(distances.BOUND_METRICS) + list(distances.GENERATOR_SETS)
)


class TestJsonStream:
    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("dense", [False, True])
    def test_table(self, capsys, signed, dense):
        flags = ["--signed"] * signed + ["--dense"] * dense
        for n in range(13):
            code, out, _ = run_cli(capsys, "table", "--n", str(n), *flags, "--format", "json")
            assert (code, out) == (0, dumps(table_payload(n, signed, dense)))

    @pytest.mark.parametrize("signed", [False, True])
    def test_moments(self, capsys, signed):
        for max_n in range(1, 9):
            argv = ["moments", "--max-n", str(max_n)] + ["--signed"] * signed
            code, out, _ = run_cli(capsys, *argv, "--format", "json")
            assert (code, out) == (0, dumps(moments_payload(max_n, signed)))

    @pytest.mark.parametrize("statistic", list(CENSUSES))
    def test_census(self, capsys, statistic):
        flags, build = CENSUSES[statistic]
        for n in range(7):
            code, out, _ = run_cli(capsys, "census", "--n", str(n), *flags, "--format", "json")
            assert (code, out) == (0, dumps(distribution_payload(build(n))))

    @pytest.mark.parametrize("metric", DIST_METRICS)
    def test_dist(self, capsys, metric):
        for n in range(5):
            code, out, _ = run_cli(capsys, "dist", "--metric", metric, "--n", str(n), "--format", "json")
            table = distances.distance_distribution(n, metric)
            assert (code, out) == (0, dumps(distribution_payload(table)))

    @pytest.mark.parametrize("metric", sorted(distances.GENERATOR_SETS))
    def test_compare(self, capsys, metric):
        for n in range(5):
            argv = ["compare", "--metric", metric, "--n", str(n), "--format", "json"]
            code, out, _ = run_cli(capsys, *argv)
            result = distances.compare_to_shifted(n, metric)
            assert (code, out) == (0, dumps(compare_payload(result)))

    def test_empty_containers(self, capsys, monkeypatch):
        # No command yields an empty container today; json.dumps writes them as [] and {}.
        monkeypatch.setattr(cli, "unsigned_rows", lambda n: iter(()))
        monkeypatch.setattr(
            census, "hultman_census", lambda n, force: census.DistributionTable(n, "cycles", {})
        )
        empty = distances.ComparisonResult(3, "reversal", 1, 0, ())
        monkeypatch.setattr(distances, "compare_to_shifted", lambda n, metric, force: empty)
        expected = {
            "table --n 3": {"statistic": "unsigned_cycles", "rows": []},
            "census --n 3": {"n": 3, "statistic": "cycles", "counts": {}},
            "compare --metric reversal --n 3": compare_payload(empty),
        }
        for command, payload in expected.items():
            code, out, _ = run_cli(capsys, *command.split(), "--format", "json")
            assert (code, out) == (0, dumps(payload))


# Spawns one command from a small interpreter, so that the reported max RSS
# is the command's own and not the test runner's, which a child inherits.
_MAX_RSS = (
    "import os, subprocess, sys\n"
    "proc = subprocess.Popen([sys.executable, '-m', 'bghultman', *sys.argv[1:]],"
    " stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(proc.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def test_json_peak_rss_matches_csv():
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    peak_kib = {}
    for fmt in ("csv", "json"):
        argv = ["table", "--signed", "--n", "200", "--format", fmt]
        result = subprocess.run(
            [sys.executable, "-c", _MAX_RSS, *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        code, peak_kib[fmt] = map(int, result.stdout.split())
        assert code == 0, result.stderr
    assert peak_kib["json"] - peak_kib["csv"] <= 4 * 1024, peak_kib
