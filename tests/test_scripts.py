"""Smoke runs of the experiment scripts in scripts/, which call the
public API directly."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_hard_square_report_script():
    proc = run_script("bracket_report.py", "hard-square", "2", "4")
    assert proc.returncode == 0, proc.stderr
    assert "doubling checks: 2/2 hold" in proc.stdout


def test_coloring_report_script():
    proc = run_script("bracket_report.py", "coloring:3", "2", "4")
    assert proc.returncode == 0, proc.stderr
    assert "inside bracket: True" in proc.stdout


def test_side_timings_script():
    proc = run_script("side_timings.py", "hard-square", "2", "2-3,5", "1")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    # side, slice count (F(n+2) on hard-square d=2), then five timings
    assert [row[:2] for row in rows] == [["2", "3"], ["3", "5"], ["5", "13"]]
    assert all(len(row) == 7 for row in rows)
    proc = run_script("side_timings.py", "coloring:3", "2", "3", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1].split()[:2] == ["3", "12"]
    # d = 3: windows of n cells in the listing
    proc = run_script("side_timings.py", "hard-square", "3", "2-3", "1")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [row[:2] for row in rows] == [["2", "7"], ["3", "63"]]
    assert all(len(row) == 7 for row in rows)
