import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gcrb.cli import _map_in_order, main, parse_value_list
from gcrb.ingest import CountsRecord, write_counts
from gcrb.montecarlo import experiment_rng, sample_tally

PI = math.pi
ROOT = Path(__file__).resolve().parents[1]


def read(path):
    return path.read_text(encoding="utf-8")


def rows_of(path):
    lines = read(path).strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_parse_value_list():
    assert parse_value_list(["0.9:1.0:0.01"]) == pytest.approx(
        [round(0.9 + 0.01 * i, 12) for i in range(11)]
    )
    assert parse_value_list(["0.95", "1.0"]) == [0.95, 1.0]
    assert parse_value_list(["1.5,2,3,4"]) == [1.5, 2.0, 3.0, 4.0]
    with pytest.raises(ValueError):
        parse_value_list(["1:2"])
    with pytest.raises(ValueError):
        parse_value_list(["2:1:0.1"])
    # a range with a non-finite end or step is named, not expanded: inf used
    # to end in an OverflowError and nan in a failed int conversion
    for spec in ("0:inf:1", "nan:1:0.1", "-inf:1:0.1", "0:1:inf", "0:1:nan"):
        with pytest.raises(ValueError, match=f"range '{spec}' must have finite"):
            parse_value_list([f"0.5,{spec}"])


def test_non_finite_range_exit_code(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "gcrb.cli", "bounds", "--phase-true", "0:inf:1",
         "--out", str(tmp_path / "b.csv")],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1
    assert done.stderr == "gcrb: error: range '0:inf:1' must have finite a, b and step\n"
    assert not (tmp_path / "b.csv").exists()


def test_simulate_default_sweep_shape(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["simulate", "--experiments", "400", "--seed", "0", "--out", str(out)])
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 11 * 4
    v_values = sorted({row["v_est"] for row in rows})
    assert v_values[0] == "0.9" and v_values[-1] == "1.0"
    for row in rows:
        frac = float(row["sigma_frac"])
        assert 0.0 <= frac <= 1.0
        assert frac == int(row["n_violations"]) / int(row["n_experiments"])
    assert (tmp_path / "sweep.csv.manifest.json").exists()


def test_simulate_single_experiment_fractions(tmp_path):
    out = tmp_path / "one.csv"
    assert main([
        "simulate", "--experiments", "1", "--v-est", "0.95", "--v-est", "1.0",
        "--seed", "3", "--out", str(out),
    ]) == 0
    for row in rows_of(out):
        assert row["sigma_frac"] in ("0.0", "1.0")


def test_simulate_reruns_are_byte_identical(tmp_path):
    args = ["simulate", "--experiments", "25", "--v-est", "0.97:1.0:0.01",
            "--seed", "11"]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert read(out_a) == read(out_b)


def test_simulate_manifest_contents(tmp_path):
    out = tmp_path / "m.csv"
    assert main(["simulate", "--experiments", "2", "--v-est", "0.95",
                 "--seed", "17", "--out", str(out)]) == 0
    manifest = json.loads(read(tmp_path / "m.csv.manifest.json"))
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 17
    assert manifest["model"] == "noon2-4setting"
    assert manifest["outputs"] == ["m.csv"]
    assert manifest["config"]["experiments"] == 2
    assert manifest["config"]["shots"] == 2000


def test_simulate_invalid_config_leaves_no_output(tmp_path):
    out = tmp_path / "bad.csv"
    code = main(["simulate", "--v-true", "1.5", "--out", str(out)])
    assert code == 1
    assert not out.exists()
    assert not (tmp_path / "bad.csv.manifest.json").exists()


def test_simulate_zero_information_v_est_flags_its_own_rows(tmp_path, capsys):
    # v_est = 0 leaves Sigma_beta undefined; its rows are nan and the other
    # rows match a sweep without it
    clean, mixed = tmp_path / "clean.csv", tmp_path / "mixed.csv"
    assert main(["simulate", "--v-est", "0.95", "--experiments", "5", "--out", str(clean)]) == 0
    capsys.readouterr()
    assert main(["simulate", "--v-est", "0,0.95", "--experiments", "5", "--out", str(mixed)]) == 0
    assert "v_est=0.0" in capsys.readouterr().err
    header, *lines = read(mixed).splitlines()
    assert header == read(clean).splitlines()[0]
    assert lines[:4] == [f"0.0,{b},nan,nan,5" for b in ("1.5", "2.0", "3.0", "4.0")]
    assert lines[4:] == read(clean).splitlines()[1:]


def test_bounds_reference_value(tmp_path):
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--phase-true", repr(PI / 4.0), "--v-est", "0.95",
                 "--shots", "2000", "--beta", "2", "--out", str(out)]) == 0
    (row,) = rows_of(out)
    assert float(row["f_alpha"]) == pytest.approx(1.805, rel=1e-12)
    assert float(row["bound_delta_beta"]) == pytest.approx(2.770e-4, rel=1e-3)
    assert float(row["bound_rescaled"]) == pytest.approx(1.805 ** -0.5, rel=1e-12)


def test_bounds_zero_visibility_markers(tmp_path):
    out = tmp_path / "flat.csv"
    assert main(["bounds", "--phase-true", "0.3", "--v-est", "0", "--out", str(out)]) == 0
    for row in rows_of(out):
        assert row["bound_delta_beta"] == "inf"
        assert row["bound_rescaled"] == "inf"


def test_bounds_sweep_extrema(tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["bounds", "--phase-true", "0:1.5707963267948966:0.001",
                 "--v-est", "0.95", "--beta", "2", "--out", str(out)]) == 0
    rows = rows_of(out)
    phases = [float(r["phase"]) for r in rows]
    info = [float(r["f_alpha"]) for r in rows]
    peak = phases[info.index(max(info))]
    valley = phases[info.index(min(info))]
    assert min(abs(peak - PI / 8.0), abs(peak - 3.0 * PI / 8.0)) <= 1.1e-3
    assert min(abs(valley - x) for x in (0.0, PI / 4.0, PI / 2.0)) <= 1.1e-3


def write_synthetic_counts(path, phase, v_true, shots, n_rows, seed=0):
    records = []
    for i in range(n_rows):
        tally = sample_tally(phase, v_true, shots, experiment_rng(seed, i))
        records.append(CountsRecord(phase_label=phase, counts=tally))
    write_counts(records, path)


def test_analyze_kappa_near_one_at_matching_visibility(tmp_path):
    counts = tmp_path / "counts.csv"
    folded = 2.8 - PI / 2.0
    write_synthetic_counts(counts, folded, v_true=0.96, shots=10000, n_rows=3)
    out = tmp_path / "report.csv"
    assert main(["analyze", str(counts), "--v-est", "0.96", "--beta", "2",
                 "--out", str(out)]) == 0
    rows = rows_of(out)
    assert len(rows) == 3
    for row in rows:
        assert float(row["kappa_beta"]) == pytest.approx(1.0, abs=0.1)
        assert float(row["gauss_ratio"]) == pytest.approx(1.0, abs=1e-9)
        assert float(row["phi_hat"]) == pytest.approx(folded, abs=0.02)


def test_analyze_overestimated_visibility_hits_beta3_first(tmp_path):
    counts = tmp_path / "counts.csv"
    write_synthetic_counts(counts, 2.8 - PI / 2.0, v_true=0.96, shots=10000, n_rows=5)
    out = tmp_path / "report.csv"
    assert main(["analyze", str(counts), "--v-est", "0.98", "--beta", "2,3",
                 "--out", str(out)]) == 0
    rows = rows_of(out)
    kappa2 = [float(r["kappa_beta"]) for r in rows if r["beta"] == "2.0"]
    kappa3 = [float(r["kappa_beta"]) for r in rows if r["beta"] == "3.0"]
    assert all(k3 < k2 for k2, k3 in zip(kappa2, kappa3))
    assert min(kappa3) < 1.0


def test_analyze_fold_option_changes_label_only(tmp_path):
    # counts generated at the folded phase but labeled with the nominal 2.8 rad
    counts = tmp_path / "counts.csv"
    tally = sample_tally(2.8 - PI / 2.0, 0.96, 5000, experiment_rng(0, 0))
    write_counts([CountsRecord(phase_label=2.8, counts=tally)], counts)
    for fold in (False, True):
        out = tmp_path / f"fold_{fold}.csv"
        args = ["analyze", str(counts), "--v-est", "0.96", "--beta", "2", "--out", str(out)]
        if fold:
            args.insert(2, "--fold")
        assert main(args) == 0
    unfolded = rows_of(tmp_path / "fold_False.csv")[0]
    folded = rows_of(tmp_path / "fold_True.csv")[0]
    assert unfolded["phi_hat"] == folded["phi_hat"]
    assert float(unfolded["phase_label"]) == 2.8
    assert float(folded["phase_label"]) == pytest.approx(2.8 - PI / 2.0, rel=1e-12)


def test_analyze_empty_file(tmp_path):
    counts = tmp_path / "empty.csv"
    counts.write_text("phase_rad,c0,c1,c2,c3\n", encoding="utf-8")
    out = tmp_path / "report.csv"
    assert main(["analyze", str(counts), "--v-est", "0.95", "--out", str(out)]) == 0
    assert read(out) == "phase_label,v_est,beta,phi_hat,delta_beta,kappa_beta,gauss_ratio\n"


def test_analyze_parse_error_exit_code(tmp_path, capsys):
    counts = tmp_path / "bad.csv"
    # a negative count, and a count no float64 holds (it used to overflow)
    for row in ("0.0,1,-2,3,4", f"0.0,{10 ** 400},2,3,4"):
        counts.write_text(f"phase_rad,c0,c1,c2,c3\n{row}\n", encoding="utf-8")
        code = main(["analyze", str(counts), "--v-est", "0.95", "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert "line 2" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()
    # a Latin-1 acquisition_id is not UTF-8: a data error that names the
    # file (the decode error, a ValueError, used to read as a usage error)
    counts.write_bytes("phase_rad,c0,c1,c2,c3,acquisition_id\n0.0,1,2,3,4,caf\u00e9\n"
                       .encode("latin-1"))
    code = main(["analyze", str(counts), "--v-est", "0.95", "--out", str(tmp_path / "r.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"gcrb: data error: counts file {str(counts)!r} is not UTF-8 text: ")
    assert "0xe9" in err
    assert not (tmp_path / "r.csv").exists()


def test_analyze_missing_file_exit_code(tmp_path):
    code = main(["analyze", str(tmp_path / "nope.csv"), "--v-est", "0.95",
                 "--out", str(tmp_path / "r.csv")])
    assert code == 2


def spread_records(rng):
    """Twenty counts rows, two per set phase, with M from 1e3 to 1e6."""
    labels = np.repeat(rng.uniform(0.0, PI / 2.0, 10), 2)
    shots = np.rint(10.0 ** rng.uniform(3.0, 6.0, labels.size)).astype(int)
    records = []
    for phase, m in zip(labels, shots):
        tally = sample_tally(float(phase), 0.95, int(m), rng)
        records.append(CountsRecord(float(phase), tally))
    return records


def test_analyze_shuffled_rows_give_the_same_row_per_record(tmp_path):
    # a shuffled file puts each record in other blockmates' company; its
    # output rows keep their bytes
    rng = np.random.default_rng(4)
    records = spread_records(rng)
    perm = rng.permutation(len(records))
    per_record = 2 * 2  # v_est values x orders
    outputs = []
    for name, rows in (("a", records), ("b", [records[i] for i in perm])):
        counts = tmp_path / f"{name}.csv"
        write_counts(rows, counts)
        out = tmp_path / f"{name}.out.csv"
        assert main(["analyze", str(counts), "--v-est", "0.95,0.99", "--beta", "2,3",
                     "--out", str(out)]) == 0
        lines = read(out).splitlines()[1:]
        outputs.append([lines[i:i + per_record] for i in range(0, len(lines), per_record)])
    original, shuffled = outputs
    assert len(original) == len(records)
    for k, i in enumerate(perm):
        assert shuffled[k] == original[i]


def test_analyze_cells_do_not_depend_on_the_labels(tmp_path):
    # blocks are filled in order of each row's likelihood peak, taken from
    # the counts: the same counts labelled all 0.0 give the same cells
    records = spread_records(np.random.default_rng(5))
    cells = []
    for name, rows in (("true", records),
                       ("zero", [CountsRecord(0.0, r.counts) for r in records])):
        counts = tmp_path / f"{name}.csv"
        write_counts(rows, counts)
        out = tmp_path / f"{name}.out.csv"
        assert main(["analyze", str(counts), "--v-est", "0.95,1.0", "--out", str(out)]) == 0
        cells.append([{k: row[k] for k in ("phi_hat", "delta_beta", "kappa_beta", "gauss_ratio")}
                      for row in rows_of(out)])
    assert len(cells[0]) == len(records) * 2 * 4
    assert cells[0] == cells[1]


def test_analyze_rerun_byte_identical(tmp_path):
    counts = tmp_path / "counts.csv"
    write_synthetic_counts(counts, 1.1, v_true=0.95, shots=2000, n_rows=2)
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["analyze", str(counts), "--v-est", "0.95:0.97:0.01"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert read(out_a) == read(out_b)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--no-such-flag"])
    assert err.value.code == 1


def test_missing_subcommand_exit_code():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 1


# --- v_est values on forked workers -----------------------------------------

def use_cpus(monkeypatch, cpus):
    """Make the affinity mask hold `cpus` CPUs, and so the pool that many
    workers at most."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def run_cli(monkeypatch, capsys, tmp_path, cpus, argv):
    """Exit code, output bytes and stderr of one CLI run on `cpus` CPUs; no
    worker may outlive it."""
    use_cpus(monkeypatch, cpus)
    out = tmp_path / f"cpus{cpus}" / "out.csv"
    code = main([*argv, "--out", str(out)])
    assert multiprocessing.active_children() == []
    files = [p.read_bytes() if p.exists() else None
             for p in (out, out.with_name(out.name + ".manifest.json"))]
    return code, files, capsys.readouterr().err


def pid_of(value):
    return os.getpid()


def reject_two(value):
    if value == 2:
        raise ValueError("two")
    return value


def test_map_in_order_forks_one_worker_per_cpu(monkeypatch):
    use_cpus(monkeypatch, 1)
    assert _map_in_order(pid_of, [0, 1, 2]) == [os.getpid()] * 3
    use_cpus(monkeypatch, 2)
    pids = _map_in_order(pid_of, [0, 1, 2, 3])
    assert os.getpid() not in pids and len(set(pids)) <= 2
    assert _map_in_order(reject_two, [0, 1, 3]) == [0, 1, 3]
    with pytest.raises(ValueError, match="two"):
        _map_in_order(reject_two, [1, 2, 3])
    assert multiprocessing.active_children() == []


def test_simulate_bytes_do_not_depend_on_the_worker_count(monkeypatch, capsys, tmp_path):
    argv = ["simulate", "--v-est", "0,0.95,1.0", "--experiments", "20", "--seed", "5"]
    one, two = (run_cli(monkeypatch, capsys, tmp_path, cpus, argv) for cpus in (1, 2))
    assert one == two
    code, (csv_bytes, manifest), err = one
    assert code == 0 and csv_bytes.count(b"\n") == 1 + 3 * 4 and manifest is not None
    assert "v_est=0.0" in err


def test_analyze_bytes_do_not_depend_on_the_worker_count(monkeypatch, capsys, tmp_path):
    counts = tmp_path / "counts.csv"
    write_counts(spread_records(np.random.default_rng(6)), counts)
    argv = ["analyze", str(counts), "--v-est", "0.95,0.97,0.99,1.0", "--beta", "2,3"]
    one, two = (run_cli(monkeypatch, capsys, tmp_path, cpus, argv) for cpus in (1, 2))
    assert one == two
    code, (csv_bytes, _), _ = one
    assert code == 0 and csv_bytes.count(b"\n") == 1 + 20 * 4 * 2


def test_first_bad_v_est_is_reported_whatever_the_worker_count(monkeypatch, capsys, tmp_path):
    for cpus in (1, 2):
        code, files, err = run_cli(monkeypatch, capsys, tmp_path, cpus,
                                   ["simulate", "--v-est", "0.95,2.0,1.5", "--experiments", "5"])
        assert code == 1 and files == [None, None]
        assert err == "gcrb: error: v_est must lie in [0, 1], got 2.0\n"


def test_importing_the_cli_does_not_import_multiprocessing():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, gcrb.cli; print(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
