import argparse
import dataclasses
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gcrb
import gcrb.cli
import gcrb.montecarlo
from gcrb.cli import _emit, _map_in_order, main, parse_value_list
from gcrb.errors import EstimationError, UndefinedRatioError
from gcrb.ingest import CountsTable, write_counts
from gcrb.montecarlo import CampaignConfig, campaign_tallies, draw_tallies, run_campaign

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
    # finite ends and step whose value count overflows a float are named too
    # (it used to end in an OverflowError)
    for spec in ("0:1e300:1e-300", "-1e308:1e308:1e-10"):
        with pytest.raises(ValueError, match=f"range '{spec}' must have a finite number of values"):
            parse_value_list([spec])
    # so is a range of more than a million values, before it is expanded
    # (0:1e9:1 used to need tens of GB)
    with pytest.raises(ValueError, match="range '0:2e6:1' has 2000001 values, more than 1000000"):
        parse_value_list(["0.5,0:2e6:1"])


def test_non_finite_range_exit_code(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    for spec, reason in (("0:inf:1", "must have finite a, b and step"),
                         ("0:1e300:1e-300", "must have a finite number of values")):
        done = subprocess.run(
            [sys.executable, "-m", "gcrb.cli", "bounds", "--phase-true", spec,
             "--out", str(tmp_path / "b.csv")],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 1
        assert done.stderr == f"gcrb: error: range '{spec}' {reason}\n"
        assert not (tmp_path / "b.csv").exists()


def test_failed_stream_leaves_the_old_output(tmp_path):
    # a line iterator that raises partway leaves no temporary file, and the
    # previous output and its manifest keep their bytes
    out = tmp_path / "out.csv"
    assert main(["bounds", "--phase-true", "0.3", "--out", str(out)]) == 0
    before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())

    def lines():
        yield "1,2"
        raise RuntimeError("stream broke")

    with pytest.raises(RuntimeError, match="stream broke"):
        _emit(argparse.Namespace(command="test", out=str(out)), ("a", "b"), lines())
    assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before


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
    # each order's cells are the column mean and sum of the campaign table's
    # flags for the same config
    config = CampaignConfig(phase_true=PI / 8.0, v_true=0.95, v_est=0.97,
                            n_experiments=25, seed=11)
    rows = rows_of(out_a)
    assert len(rows) == 4 * len(config.beta_list)
    for row in rows:
        flags = run_campaign(dataclasses.replace(config, v_est=float(row["v_est"]))).flags
        k = config.beta_list.index(float(row["beta"]))
        assert float(row["sigma_frac"]) == flags.mean(axis=0)[k]
        assert int(row["n_violations"]) == flags.sum(axis=0)[k]


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


def test_manifests_record_every_parsed_option(tmp_path):
    # the complete configuration of each command with non-default options:
    # every parsed option but the command, the output and the seed, with the
    # resolved v_est values, orders, phases and domain
    counts = tmp_path / "counts.csv"
    counts.write_text("phase_rad,c0,c1,c2,c3\n0.3,510,600,490,400\n", encoding="utf-8")
    runs = {
        "simulate": (["simulate", "--phase-true", "0.5", "--v-true", "0.93", "--v-est", "0.9",
                      "--v-est", "0.95:0.97:0.01", "--shots", "500", "--experiments", "3",
                      "--seed", "5", "--sigma-window", "2.5", "--violation-rule",
                      "two-sided-bound", "--window-scale", "posterior-sd", "--beta", "1.5",
                      "--beta", "2,3.5", "--domain=-0.5:1.0"], 5, {
            "phase_true": 0.5, "v_true": 0.93, "v_est": [0.9, 0.95, 0.96, 0.97], "shots": 500,
            "experiments": 3, "sigma_window": 2.5, "violation_rule": "two-sided-bound",
            "window_scale": "posterior-sd", "beta": [1.5, 2.0, 3.5],
            "domain": {"lower": -0.5, "upper": 1.0}}),
        "bounds": (["bounds", "--phase-true", "0.1", "--phase-true", "0.2:0.4:0.1", "--v-est",
                    "0.9", "--shots", "300", "--beta", "1.2,5"], None, {
            "phase": [0.1, 0.2, 0.3, 0.4], "v_est": 0.9, "shots": 300, "beta": [1.2, 5.0]}),
        "analyze": (["analyze", str(counts), "--fold", "--v-est", "0.9,0.95", "--beta", "6",
                     "--domain", "0.1:1.2"], None, {
            "counts": str(counts), "v_est": [0.9, 0.95], "beta": [6.0], "fold": True,
            "domain": {"lower": 0.1, "upper": 1.2}}),
    }
    for command, (argv, seed, config) in runs.items():
        out = tmp_path / f"{command}.csv"
        assert main([*argv, "--out", str(out)]) == 0
        manifest = json.loads(read(tmp_path / f"{command}.csv.manifest.json"))
        assert manifest == {"command": command, "config": config, "model": "noon2-4setting",
                            "outputs": [out.name], "seed": seed, "version": gcrb.__version__}


def test_simulate_invalid_config_leaves_no_output(tmp_path):
    out = tmp_path / "bad.csv"
    code = main(["simulate", "--v-true", "1.5", "--out", str(out)])
    assert code == 1
    assert not out.exists()
    assert not (tmp_path / "bad.csv.manifest.json").exists()


def test_oversized_shot_counts_are_usage_errors(tmp_path, capsys):
    # a campaign's shots stop at 2**53 and any count at float range: one
    # error line, exit code 1 and no output, not an OverflowError
    out = tmp_path / "out.csv"
    for argv in (["simulate", "--shots", "1" + "0" * 30, "--v-est", "0.95", "--experiments", "2"],
                 ["simulate", "--shots", str(2 ** 60), "--v-est", "0.95", "--experiments", "2"],
                 ["bounds", "--shots", "1" + "0" * 400]):
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("gcrb: error: shots must be") and err.count("\n") == 1
        assert not out.exists() and not (tmp_path / "out.csv.manifest.json").exists()
    # the bounds themselves have no count limit
    assert main(["bounds", "--shots", "1" + "0" * 20, "--out", str(out)]) == 0
    assert all(float(row["bound_delta_beta"]) > 0.0 for row in rows_of(out))


def test_orders_beyond_the_gaussian_moments_are_usage_errors(tmp_path, capsys):
    # the Gaussian moment of an order above 342.2487539126054 leaves float
    # range, and a campaign's window takes it at twice each order: one error
    # line naming the largest order that fits, exit code 1 and no output, not
    # an OverflowError
    counts = tmp_path / "counts.csv"
    counts.write_text("phase_rad,c0,c1,c2,c3\n0.3,510,600,490,400\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    for argv, largest in (
            (["simulate", "--beta", "200", "--experiments", "2", "--v-est", "0.95"],
             "171.1243769563027"),
            (["simulate", "--beta", "2,171.2", "--experiments", "2", "--v-est", "0.95"],
             "171.1243769563027"),
            (["analyze", str(counts), "--beta", "400", "--v-est", "0.95"], "342.2487539126054"),
            (["analyze", str(counts), "--beta", "2,343", "--v-est", "0.9,0.95"],
             "342.2487539126054")):
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("gcrb: error: moment order must be") and err.count("\n") == 1
        assert f", {largest}]" in err
        assert not out.exists() and not (tmp_path / "out.csv.manifest.json").exists()
    # a campaign at the largest order that fits, and a report at order 100, still run
    for argv in (["simulate", "--beta", "171.1243769563027", "--experiments", "2",
                  "--v-est", "0.95"],
                 ["analyze", str(counts), "--beta", "2,100", "--v-est", "0.95"]):
        assert main([*argv, "--out", str(out)]) == 0


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


def test_simulate_orders_beyond_float_range_flag_their_own_rows(tmp_path, capsys):
    # at beta = 100 sigma_beta's Gaussian moment of order 200 underflows and
    # the window was 0, which flagged every experiment: that row is nan with
    # one warning, and the other order's row matches a run without it
    clean, mixed = tmp_path / "clean.csv", tmp_path / "mixed.csv"
    argv = ["simulate", "--experiments", "4", "--v-est", "0.95"]
    assert main([*argv, "--beta", "2", "--out", str(clean)]) == 0
    assert capsys.readouterr().err == ""
    assert main([*argv, "--beta", "2,100", "--out", str(mixed)]) == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("warning: v_est=0.95 beta=100.0:")
    header, *lines = read(mixed).splitlines()
    assert [header, lines[0]] == read(clean).splitlines()
    assert lines[1:] == ["0.95,100.0,nan,nan,4"]


def test_analyze_ratios_beyond_float_range_are_nan(tmp_path, capsys):
    # at beta = 300 the bound and the Gaussian moment underflow to 0: kappa
    # and the Gaussianity ratio were inf, with two RuntimeWarnings
    counts = tmp_path / "counts.csv"
    counts.write_text("phase_rad,c0,c1,c2,c3\n0.3,510,600,490,400\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main(["analyze", str(counts), "--beta", "300", "--v-est", "0.95", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    (row,) = rows_of(out)
    assert math.isfinite(float(row["delta_beta"]))
    assert (row["kappa_beta"], row["gauss_ratio"]) == ("nan", "nan")
    # at beta = 1.01, alpha = 101, and a phi_hat near the zero of p_3 at pi/4
    # under v = 1 takes f_alpha to inf: kappa is nan, where it was a usage
    # error and an overflow warning
    counts.write_text("phase_rad,c0,c1,c2,c3\n0.78,500,1000,500,0\n", encoding="utf-8")
    assert main(["analyze", str(counts), "--beta", "1.01,2", "--v-est", "1.0", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    low, two = rows_of(out)
    assert low["kappa_beta"] == "nan" and math.isfinite(float(two["kappa_beta"]))


def test_bounds_reference_value(tmp_path):
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--phase-true", repr(PI / 4.0), "--v-est", "0.95",
                 "--shots", "2000", "--beta", "2", "--out", str(out)]) == 0
    (row,) = rows_of(out)
    assert float(row["f_alpha"]) == pytest.approx(1.805, rel=1e-12)
    assert float(row["bound_delta_beta"]) == pytest.approx(2.770e-4, rel=1e-3)
    assert float(row["bound_rescaled"]) == pytest.approx(1.805 ** -0.5, rel=1e-12)


def test_bounds_rows_of_a_phase_do_not_depend_on_the_other_phases(tmp_path):
    # each power to an order takes one scalar exponent: phase 0.3 alone and
    # among 15,001 phases gets the same bytes (f_2 alone used to end in ...75)
    alone, among = tmp_path / "alone.csv", tmp_path / "among.csv"
    assert main(["bounds", "--phase-true", "0.3", "--out", str(alone)]) == 0
    assert main(["bounds", "--phase-true", "0:1.5:0.0001", "--out", str(among)]) == 0
    rows = read(alone).splitlines()[1:]
    assert len(rows) == 4 and rows[1].startswith("0.3,2.0,2.0,3.2200419436281753,")
    assert [line for line in read(among).splitlines() if line.startswith("0.3,")] == rows


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


def counts_table(labels, tallies):
    """The CountsTable of the labels and their tallies, without ids."""
    return CountsTable(np.array(labels, dtype=float), np.array(tallies).reshape(-1, 4),
                       ("",) * len(labels))


def write_synthetic_counts(path, phase, v_true, shots, n_rows, seed=0):
    tallies = draw_tallies(phase, v_true, shots, seed, np.arange(n_rows))
    write_counts(counts_table([phase] * n_rows, tallies), path)


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


def test_analyze_of_a_campaign_file_writes_the_campaign_table(tmp_path):
    # simulate and analyze report through one routine: analyze on a file of
    # a campaign's tallies, labelled phase_true, writes each cell as the repr
    # of the matching cell of the campaign's table
    config = CampaignConfig(phase_true=PI / 8.0, v_true=0.95, v_est=0.95, n_experiments=30,
                            seed=7)
    counts = campaign_tallies(config)
    path = tmp_path / "campaign.csv"
    write_counts(counts_table([config.phase_true] * len(counts), counts), path)
    orders = len(config.beta_list)
    for v in (0.95, 0.99):
        table = run_campaign(dataclasses.replace(config, v_est=v), counts)
        out = tmp_path / f"report_{v}.csv"
        assert main(["analyze", str(path), "--v-est", repr(v), "--out", str(out)]) == 0
        rows = rows_of(out)
        assert len(rows) == len(counts) * orders
        for n, row in enumerate(rows):
            i, k = divmod(n, orders)
            assert (row["phase_label"], row["beta"]) == (repr(config.phase_true),
                                                         repr(config.beta_list[k]))
            assert row["phi_hat"] == repr(float(table.phi_hat[i]))
            for column, cells in (("delta_beta", table.deltas), ("kappa_beta", table.kappas),
                                  ("gauss_ratio", table.gauss_ratios)):
                assert row[column] == repr(float(cells[i, k])), (column, i, k)


def test_analyze_fold_option_changes_label_only(tmp_path):
    # counts generated at the folded phase but labeled with the nominal 2.8 rad
    counts = tmp_path / "counts.csv"
    write_counts(counts_table([2.8], draw_tallies(2.8 - PI / 2.0, 0.96, 5000, 0, [0])), counts)
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


def test_analyze_warns_of_infeasible_rows_by_their_file_label(tmp_path, capsys):
    # at v_est = 1 the second row's c2 count is impossible on [0, 1e-9]; the
    # warning prints the label as a Python float, unfolded under --fold too
    counts = tmp_path / "counts.csv"
    counts.write_text("phase_rad,c0,c1,c2,c3\n2.5e-10,900,400,0,600\n0.3,900,400,1,600\n",
                      encoding="utf-8")
    for fold in ([], ["--fold"]):
        assert main(["analyze", str(counts), "--v-est", "0.95,1.0", "--domain", "0:1e-9",
                     "--beta", "2", *fold, "--out", str(tmp_path / "r.csv")]) == 0
        assert capsys.readouterr().err == (
            "warning: infeasible row flagged: phase_rad=0.3 v_est=1.0\n")


def test_analyze_missing_file_exit_code(tmp_path):
    code = main(["analyze", str(tmp_path / "nope.csv"), "--v-est", "0.95",
                 "--out", str(tmp_path / "r.csv")])
    assert code == 2


def spread_table(rng):
    """Twenty counts rows, two per set phase, with M from 1e3 to 1e6."""
    labels = np.repeat(rng.uniform(0.0, PI / 2.0, 10), 2)
    shots = np.rint(10.0 ** rng.uniform(3.0, 6.0, labels.size)).astype(int)
    seed = int(rng.integers(2 ** 32))
    return counts_table(labels, [draw_tallies(phase, 0.95, m, seed, [i])
                                 for i, (phase, m) in enumerate(zip(labels, shots))])


def test_analyze_shuffled_rows_give_the_same_row_per_record(tmp_path):
    # a shuffled file puts each row in other blockmates' company; its
    # output rows keep their bytes
    rng = np.random.default_rng(4)
    table = spread_table(rng)
    perm = rng.permutation(len(table.counts))
    per_record = 2 * 2  # v_est values x orders
    outputs = []
    shuffled_table = counts_table(table.phase_label[perm], table.counts[perm])
    for name, rows in (("a", table), ("b", shuffled_table)):
        counts = tmp_path / f"{name}.csv"
        write_counts(rows, counts)
        out = tmp_path / f"{name}.out.csv"
        assert main(["analyze", str(counts), "--v-est", "0.95,0.99", "--beta", "2,3",
                     "--out", str(out)]) == 0
        lines = read(out).splitlines()[1:]
        outputs.append([lines[i:i + per_record] for i in range(0, len(lines), per_record)])
    original, shuffled = outputs
    assert len(original) == len(table.counts)
    for k, i in enumerate(perm):
        assert shuffled[k] == original[i]


def test_analyze_cells_do_not_depend_on_the_labels(tmp_path):
    # blocks are filled in order of each row's likelihood peak, taken from
    # the counts: the same counts labelled all 0.0 give the same cells
    table = spread_table(np.random.default_rng(5))
    cells = []
    for name, rows in (("true", table),
                       ("zero", table._replace(phase_label=np.zeros(len(table.counts))))):
        counts = tmp_path / f"{name}.csv"
        write_counts(rows, counts)
        out = tmp_path / f"{name}.out.csv"
        assert main(["analyze", str(counts), "--v-est", "0.95,1.0", "--out", str(out)]) == 0
        cells.append([{k: row[k] for k in ("phi_hat", "delta_beta", "kappa_beta", "gauss_ratio")}
                      for row in rows_of(out)])
    assert len(cells[0]) == len(table.counts) * 2 * 4
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


# --- v_est values shared between the process and forked children -----------

@pytest.fixture(autouse=True)
def deadline():
    """Fail a test after 60 s, so that a pipe that never ends or a child that
    is never reaped fails the test instead of hanging the suite.  Children
    forked during the test inherit no alarm."""
    def expire(signum, frame):
        raise TimeoutError("test ran for over 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def use_cpus(monkeypatch, cpus):
    """Make the affinity mask hold `cpus` CPUs, and so the v_est values run
    on that many processes at most."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_cli(monkeypatch, capsys, tmp_path, cpus, argv):
    """Exit code, output bytes and stderr of one CLI run on `cpus` CPUs; no
    child process may outlive it."""
    use_cpus(monkeypatch, cpus)
    out = tmp_path / f"cpus{cpus}" / "out.csv"
    code = main([*argv, "--out", str(out)])
    assert_no_child_left()
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
    parent = os.getpid()
    use_cpus(monkeypatch, 1)
    assert _map_in_order(pid_of, [0, 1, 2]) == [parent] * 3
    use_cpus(monkeypatch, 2)
    pids = _map_in_order(pid_of, [0, 1, 2, 3, 4])
    # the parent computes values[0::2] and one child values[1::2]
    assert pids[0::2] == [parent] * 3
    assert len(set(pids[1::2])) == 1 and parent not in pids[1::2]
    assert_no_child_left()
    use_cpus(monkeypatch, 3)
    pids = _map_in_order(pid_of, [0, 1, 2, 3, 4])
    assert pids[0::3] == [parent] * 2 and len(set(pids)) == 3
    assert pids[1] == pids[4]
    # no more processes than values
    assert _map_in_order(pid_of, [0]) == [parent]
    assert len(set(_map_in_order(pid_of, [0, 1]))) == 2
    assert _map_in_order(reject_two, [0, 1, 3]) == [0, 1, 3]
    for values in ([1, 2, 3], [2, 1, 3], [1, 3, 2]):
        with pytest.raises(ValueError, match="two"):
            _map_in_order(reject_two, values)
        assert_no_child_left()


def test_a_child_without_a_result_is_an_error(monkeypatch):
    parent = os.getpid()

    def die_in_child(value):
        if os.getpid() != parent:
            os._exit(3)
        return value

    for cpus in (2, 3):
        use_cpus(monkeypatch, cpus)
        with pytest.raises(ChildProcessError, match="exited with status 3 and no result"):
            _map_in_order(die_in_child, [0, 1, 2])
        assert_no_child_left()


def test_a_child_exception_reaches_the_parent_as_itself(monkeypatch):
    def reject_odd(value):
        if value == 1:
            raise EstimationError("degenerate posterior")
        if value == 3:
            raise UndefinedRatioError("no information")
        return value

    use_cpus(monkeypatch, 2)
    for values, kind, message in (([0, 1], EstimationError, "degenerate posterior"),
                                  ([0, 3], UndefinedRatioError, "no information")):
        with pytest.raises(EstimationError) as err:
            _map_in_order(reject_odd, values)
        assert type(err.value) is kind and err.value.args == (message,)
        assert_no_child_left()


def test_a_failing_parent_share_kills_the_children(monkeypatch):
    parent = os.getpid()

    def sleep_in_child(value):
        if os.getpid() != parent:
            time.sleep(60)
            return value
        raise ValueError("parent share")

    use_cpus(monkeypatch, 3)
    start = time.monotonic()
    with pytest.raises(ValueError, match="parent share"):
        _map_in_order(sleep_in_child, [0, 1, 2])
    assert time.monotonic() - start < 10
    assert_no_child_left()


def large(value):
    return bytes([value]) * (4 << 20)


def test_results_larger_than_a_pipe_buffer_round_trip(monkeypatch):
    # a child blocks writing until the parent reads its pipe
    for cpus in (2, 3):
        use_cpus(monkeypatch, cpus)
        results = _map_in_order(large, [0, 1, 2])
        assert [len(r) for r in results] == [4 << 20] * 3
        assert [r[0] for r in results] == [0, 1, 2] and results[2] == large(2)
        assert_no_child_left()


def test_simulate_bytes_do_not_depend_on_the_worker_count(monkeypatch, capsys, tmp_path):
    # each worker formats its value's lines, the nan ones of v_est = 0 too
    argv = ["simulate", "--v-est", "0,0.95,1.0", "--experiments", "20", "--seed", "5"]
    runs = [run_cli(monkeypatch, capsys, tmp_path, cpus, argv) for cpus in (1, 2, 3)]
    assert runs[1] == runs[0] and runs[2] == runs[0]
    code, (csv_bytes, manifest), err = runs[0]
    assert code == 0 and csv_bytes.count(b"\n") == 1 + 3 * 4 and manifest is not None
    assert "v_est=0.0" in err


def test_simulate_draws_the_tallies_once_before_the_fork(monkeypatch, tmp_path):
    # the workers take the parent's draw as an argument instead of each
    # drawing again; every draw, a child's too, leaves its pid in a file
    draws = tmp_path / "draws"
    draw = gcrb.montecarlo.draw_tallies
    map_in_order = gcrb.cli._map_in_order

    def logged_draw(*args):
        with open(draws, "a", encoding="utf-8") as log:
            log.write(f"{os.getpid()}\n")
        return draw(*args)

    def in_order(func, values):
        drawn_before.append(draws.read_text(encoding="utf-8").split())
        return map_in_order(func, values)

    monkeypatch.setattr(gcrb.montecarlo, "draw_tallies", logged_draw)
    monkeypatch.setattr(gcrb.cli, "_map_in_order", in_order)
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        draws.write_text("", encoding="utf-8")
        drawn_before = []
        assert main(["simulate", "--v-est", "0.9,0.95,1.0", "--experiments", "5",
                     "--out", str(tmp_path / f"sim{cpus}.csv")]) == 0
        assert_no_child_left()
        parent = [str(os.getpid())]
        assert drawn_before == [parent], cpus
        assert draws.read_text(encoding="utf-8").split() == parent, cpus


def test_simulate_takes_one_flagging_reference_per_v_est(monkeypatch, tmp_path):
    # each campaign takes its bounds, windows, centres and defined orders
    # from one _reference call; with one CPU every share runs in-process
    reference = gcrb.montecarlo._reference
    calls = []

    def counted(config):
        calls.append(config.v_est)
        return reference(config)

    monkeypatch.setattr(gcrb.montecarlo, "_reference", counted)
    use_cpus(monkeypatch, 1)
    assert main(["simulate", "--v-est", "0.9,0.95,1.0", "--experiments", "5",
                 "--out", str(tmp_path / "sim.csv")]) == 0
    assert calls == [0.9, 0.95, 1.0]


def test_analyze_bytes_do_not_depend_on_the_worker_count(monkeypatch, capsys, tmp_path):
    # each worker formats its value's lines, and the parent interleaves them
    counts = tmp_path / "counts.csv"
    write_counts(spread_table(np.random.default_rng(6)), counts)
    empty = tmp_path / "empty.csv"
    empty.write_text("phase_rad,c0,c1,c2,c3\n", encoding="utf-8")
    for args, n_lines in (([str(counts), "--v-est", "0.95,0.97,0.99,1.0"], 20 * 4 * 2),
                          ([str(counts), "--v-est", "0,0.97", "--fold"], 20 * 2 * 2),
                          ([str(empty), "--v-est", "0.95,1.0"], 0)):
        argv = ["analyze", *args, "--beta", "2,3"]
        runs = [run_cli(monkeypatch, capsys, tmp_path, cpus, argv) for cpus in (1, 2, 3)]
        assert runs[1] == runs[0] and runs[2] == runs[0]
        code, (csv_bytes, _), _ = runs[0]
        assert code == 0 and csv_bytes.count(b"\n") == 1 + n_lines


def test_first_bad_v_est_is_reported_whatever_the_worker_count(monkeypatch, capsys, tmp_path):
    for cpus in (1, 2):
        code, files, err = run_cli(monkeypatch, capsys, tmp_path, cpus,
                                   ["simulate", "--v-est", "0.95,2.0,1.5", "--experiments", "5"])
        assert code == 1 and files == [None, None]
        assert err == "gcrb: error: visibility must be a finite real in [0, 1], got 2.0\n"


def test_importing_the_cli_does_not_import_multiprocessing(tmp_path):
    # nor does an analyze run whose three v_est values are split between the
    # process and one forked child
    counts = tmp_path / "counts.csv"
    write_synthetic_counts(counts, 0.4, v_true=0.95, shots=2000, n_rows=3)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    script = (
        "import os, sys\n"
        "import gcrb.cli\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "fork, forks = os.fork, []\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "code = gcrb.cli.main(['analyze', sys.argv[1], '--v-est', '0.9,0.95,1.0',\n"
        "                      '--out', sys.argv[2]])\n"
        "print(code, len(forks), sorted(m for m in sys.modules\n"
        "                                if m.split('.')[0] == 'multiprocessing'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(counts), str(tmp_path / "report.csv")],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 1 []\n"
    assert read(tmp_path / "report.csv").count("\n") == 1 + 3 * 3 * 4
