"""Smoke tests of the developer scripts under tools/."""

import importlib.util
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_ab_time_prints_one_line_per_side():
    for extra, strategy, windows in (([], "sra", 1), (["--strategy", "sa"], "sa", 1),
                                     (["--windows", "4"], "sra", 4)):
        proc = subprocess.run(
            [sys.executable, os.path.join("tools", "ab_time.py"), ".", ".",
             "--n", "2", "--mode", "eval", "--reps", "1", *extra],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert [line.split()[0] for line in lines] == ["A", "B", "A/B"]
        for line in lines[:2]:
            assert " best " in line and " median " in line
            assert f"(eval, {strategy}, n=2, windows={windows}," in line
    proc = subprocess.run(
        [sys.executable, os.path.join("tools", "ab_time.py"), ".", ".", "--strategy", "xa"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2 and "invalid choice" in proc.stderr


def test_state_digest_prints_one_json_line_with_every_case():
    proc = subprocess.run(
        [sys.executable, os.path.join("tools", "state_digest.py"), "."],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert re.fullmatch(r"[0-9a-f]{64}", report["sha256"])
    spec = importlib.util.spec_from_file_location(
        "state_digest", os.path.join(ROOT, "tools", "state_digest.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert sorted(report["losses"]) == sorted(f"{s}-{n}" for s, n in tool.CASES)
    for losses in report["losses"].values():
        assert len(losses) == tool.EPOCHS
        assert all(float(loss) >= 0.0 for loss in losses)
