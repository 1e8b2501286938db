import re
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_moment_asymptotics_runs():
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "moment_asymptotics.py"), "--sizes", "10"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "signed variance" in result.stdout


def _guess(*args):
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "guess_recurrence.py"), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    return result.returncode, result.stdout


def test_guess_recurrence_control_case():
    # The unsigned generating function satisfies
    # (n+2) P_n = (2n+1) x P_{n-1} + (n-1)(n^2 - x^2) P_{n-2}.
    code, out = _guess("--gf", "unsigned", "--order", "2", "--degrees", "3", "2", "--max-n", "12")
    assert code == 0, out
    assert "rank 35" in out
    assert "c_0[x^0] = 1*n + 2" in out
    assert "c_2[x^2] = -1*n + 1" in out
    code, out = _guess("--gf", "unsigned", "--order", "1", "--degrees", "3", "2", "--max-n", "12")
    assert code == 1 and "null space of dimension 0" in out


def test_guess_recurrence_rederives_signed_rows():
    from bghultman.hultman import _signed_steps

    code, out = _guess()
    assert code == 0, out
    found = dict(re.findall(r"^(c_\d\[x\^\d\]) = (.*)$", out, re.MULTILINE))
    assert len(found) == 25
    for n in range(4, 12):
        assert eval(found["c_0[x^0]"], {"n": n}) == n + 2
        for i, c in enumerate(_signed_steps(n), 1):
            padded = c + (0,) * (5 - len(c))
            assert tuple(eval(found[f"c_{i}[x^{b}]"], {"n": n}) for b in range(5)) == padded
