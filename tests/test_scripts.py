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
