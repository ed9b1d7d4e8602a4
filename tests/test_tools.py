"""Smoke tests of the developer scripts under tools/."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_ab_time_prints_one_line_per_side():
    proc = subprocess.run(
        [sys.executable, os.path.join("tools", "ab_time.py"), ".", ".",
         "--n", "2", "--mode", "eval", "--reps", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["A", "B", "A/B"]
    for line in lines[:2]:
        assert " best " in line and " median " in line
