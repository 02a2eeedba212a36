"""Smoke tests of the experiment scripts in scripts/: each runs in its own
interpreter, as a user would start it, and writes its tables into tmp_path."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_visibility_sweep(tmp_path):
    run_script("visibility_sweep.py", "--experiments", "5", "--out-dir", str(tmp_path),
               cwd=tmp_path)
    for name in ("phi_pi8", "phi_3pi16", "phi_pi4"):
        rows = read_rows(tmp_path / f"sweep_{name}.csv")
        # 11 assumed visibilities x 4 orders
        assert len(rows) == 44
        assert {row["n_experiments"] for row in rows} == {"5"}
        assert (tmp_path / f"sweep_{name}.csv.manifest.json").is_file()


def test_bound_curves(tmp_path):
    out = tmp_path / "curves.csv"
    run_script("bound_curves.py", "--step", "0.1", "--out", str(out), cwd=tmp_path)
    rows = read_rows(out)
    # phases 0, 0.1, ..., 1.5 x 4 orders
    assert len(rows) == 64
    assert float(rows[0]["phase"]) == 0.0 and float(rows[-1]["phase"]) == 1.5


def test_make_synthetic_counts(tmp_path):
    out = tmp_path / "counts.csv"
    run_script("make_synthetic_counts.py", "--phase", "2.8", "--fold", "--out", str(out),
               cwd=tmp_path)
    rows = read_rows(out)
    assert len(rows) == 1
    assert float(rows[0]["phase_rad"]) == 2.8
    assert sum(int(rows[0][c]) for c in ("c0", "c1", "c2", "c3")) == 10000
