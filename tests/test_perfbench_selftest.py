"""The benchmark's verdict oracle must agree with the CLI's exit codes and
verdicts: ``perfbench/selftest.py`` checks it, and exits 1 if any check fails."""

import os
import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"


def test_benchmark_oracle_selftest_passes(tmp_path):
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, str(SELFTEST)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr
