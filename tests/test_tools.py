"""Smoke tests of the developer scripts under tools/."""

import importlib.util
import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_ab_time_prints_one_line_per_side():
    for extra, mode, strategy, n, windows in (
            ([], "eval", "sra", "2", 1), (["--strategy", "sa"], "eval", "sa", "2", 1),
            (["--windows", "4"], "eval", "sra", "2", 4),
            (["--n", "2,3,2", "--windows", "2"], "eval", "sra", "2,3,2", 2),
            (["--n", "2,1", "--mode", "train"], "train", "sra", "2,1", 1)):
        proc = subprocess.run(
            [sys.executable, os.path.join("tools", "ab_time.py"), ".", ".",
             "--n", "2", "--mode", "eval", "--reps", "1", *extra],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert [line.split()[0] for line in lines] == ["A", "B", "A/B"]
        for line in lines[:2]:
            assert " best " in line and " median " in line
            assert f"({mode}, {strategy}, n={n}, windows={windows}," in line
    proc = subprocess.run(
        [sys.executable, os.path.join("tools", "ab_time.py"), ".", ".", "--strategy", "xa"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2 and "invalid choice" in proc.stderr
    proc = subprocess.run(
        [sys.executable, os.path.join("tools", "ab_time.py"), ".", ".", "--n", "2,x"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2 and "not a comma list of integers" in proc.stderr


def write_sweep(directory, workload, seeds, factor):
    """A sweep directory as ``perfbench/sweep.py`` leaves it, with one
    result per side and seed; the change side's rate is factor times the
    parent's and its time the parent's over factor."""
    for side, f in (("parent", 1.0), ("change", factor)):
        results = directory / side / "results"
        results.mkdir(parents=True)
        for seed in seeds:
            record = {"workload": workload, "trace": 0, "seed": seed, "failed": 0,
                      "environment": {"host": "test"},
                      "metrics": {"train.windows_per_s": {"value": f * (40.0 + seed / 8),
                                                          "unit": "1/s"},
                                  "diffcore.backward_ms": {"value": (9.0 + seed / 8) / f,
                                                           "unit": "ms"}}}
            (results / f"{workload}-{seed}.json").write_text(json.dumps(record))


def test_bench_file_leaves_a_one_seed_group_unresolved(tmp_path):
    # one pair shows no spread; two or more keep compare.py's verdict
    write_sweep(tmp_path / "one", "train-crowd", [11], 0.5)
    write_sweep(tmp_path / "many", "train-small", range(1, 11), 1.5)
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, os.path.join("tools", "bench_file.py"), "--out", str(out),
         str(tmp_path / "one"), str(tmp_path / "many")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    verdicts = {g["workload"]: {name: m["verdict"] for name, m in g["metrics"].items()}
                for g in json.loads(out.read_text())["groups"]}
    assert verdicts == {
        "train-crowd": {"train.windows_per_s": "unresolved",
                        "diffcore.backward_ms": "unresolved"},
        "train-small": {"train.windows_per_s": "improved",
                        "diffcore.backward_ms": "improved"}}


@pytest.fixture(scope="module")
def state_digests():
    """``tools/state_digest.py .`` run with BLAS on 1 and on 2 threads,
    keyed by the thread count; each test reads what it needs."""
    runs = {}
    for threads in (1, 2):
        env = dict(os.environ, **dict.fromkeys(
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), str(threads)))
        runs[threads] = subprocess.run(
            [sys.executable, os.path.join("tools", "state_digest.py"), "."],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    return runs


def test_state_digest_prints_one_json_line_with_every_case(state_digests):
    proc = state_digests[1]
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
    # one digest per kind of state, so a moved sha256 names what moved
    assert sorted(report["parts"]) == sorted(tool.PARTS)
    assert all(re.fullmatch(r"[0-9a-f]{64}", h) for h in report["parts"].values())
    # a checkpoint gives back exactly the state it saved
    assert report["parts"]["reloaded"] == report["parts"]["trained"]
    for losses in report["losses"].values():
        assert len(losses) == tool.EPOCHS
        assert all(float(loss) >= 0.0 for loss in losses)


def test_state_digest_has_the_same_bits_at_1_and_2_blas_threads(state_digests):
    # every product whose bits could follow the thread count is computed in
    # a shape whose bits do not (see diffcore._contract)
    reports = []
    for threads, proc in state_digests.items():
        assert proc.returncode == 0, (threads, proc.stderr)
        reports.append(json.loads(proc.stdout))
    one, two = reports
    assert one["sha256"] == two["sha256"]
    assert one["parts"] == two["parts"]


def test_code_lines_prints_total_and_code_lines(tmp_path):
    package = tmp_path / "src" / "sralstm"
    package.mkdir(parents=True)
    (package / "a.py").write_text('"""Module\ndocstring."""\n\n# a comment\nX = """not\na docstring"""\n\n\n'
                                  'def f():\n    """One line."""\n    return X  # trailing\n')
    (package / "b.py").write_text("")
    proc = subprocess.run(
        [sys.executable, os.path.join("tools", "code_lines.py"), str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # lines 5, 6, 9 and 11 of 11: a string that is no docstring counts
    assert proc.stdout.splitlines() == ["total 11", "code 4"]
    proc = subprocess.run(
        [sys.executable, os.path.join("tools", "code_lines.py"), str(tmp_path / "none")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1 and "no src/sralstm/*.py" in proc.stderr


def test_step_memory_prints_one_json_line_per_crowd_size():
    proc = subprocess.run(
        [sys.executable, os.path.join("tools", "step_memory.py"), ".", "--n", "1,3",
         "--strategy", "sa"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(r["n"], r["strategy"], r["pairs"]) for r in rows] == [(1, "sa", 0), (3, "sa", 6)]
    for r in rows:
        assert r["rss_growth_mb"] >= 0.0 and r["traced_peak_mb"] > 0.0
    for bad in ("2,x", "0"):
        proc = subprocess.run(
            [sys.executable, os.path.join("tools", "step_memory.py"), ".", "--n", bad],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 2 and "--n" in proc.stderr
