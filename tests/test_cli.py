import hashlib
import json
import os
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest

from bghultman import cli, distances, golden
from bghultman.cli import main


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
        _, out, _ = run_cli(capsys, "table", "--signed", "--n", "2", "--format", "json")
        payload = json.loads(out)
        assert payload["statistic"] == "signed_cycles"
        assert all(isinstance(row["count"], str) for row in payload["rows"])


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
        src = Path(cli.__file__).resolve().parent.parent
        code = (
            "import sys, bghultman.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('concurrent', 'multiprocessing'))))"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    def test_guard_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "census", "--n", "11")
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
