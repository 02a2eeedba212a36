"""Golden CLI outputs and campaign moments recorded from the reference
implementation.

Violation counts must match exactly; bound and analysis columns match at the
stated relative tolerances, with identical ``nan``/``inf`` markers.  The
analysis rows and sweep moments were pinned where they agree with a dense
quadrature of each posterior (the oracle of tests/test_bayes.py) within
1e-11 relative in Delta_beta and 1e-12 in phi_hat, and the empty tally with
(pi/4)**beta / (beta + 1) within 1e-13.
"""

import math

import pytest

from gcrb.cli import main
from gcrb.ingest import CountsTable, write_counts
from gcrb.montecarlo import CampaignConfig, campaign_tallies, run_campaign

PI = math.pi

SIMULATE_COUNTS = [
    ("0.95", "1.5", 12), ("0.95", "2.0", 12), ("0.95", "3.0", 11), ("0.95", "4.0", 11),
    ("0.98", "1.5", 20), ("0.98", "2.0", 20), ("0.98", "3.0", 20), ("0.98", "4.0", 19),
    ("1.0", "1.5", 20), ("1.0", "2.0", 20), ("1.0", "3.0", 20), ("1.0", "4.0", 19),
]

# phase, beta, alpha, f_alpha, bound_delta_beta, bound_rescaled
BOUNDS_ROWS = [
    ("0.0", "1.5", "3.0", 3.4294999999999995, 0.0018055607265069285, 0.6631163420499333),
    ("0.0", "2.0", "2.0", 1.805, 0.0002770083102493075, 0.7443229275647869),
    ("0.0", "3.0", "1.5", 1.309484631448571, 6.520099074208455e-06, 0.8354742378779997),
    ("0.0", "4.0", "1.3333333333333333", 1.1766342131486622, 1.534672078943532e-07,
     0.8851541213196995),
    ("0.3", "1.5", "3.0", 11.611523452344763, 0.0009812573016761948, 0.44160799980035237),
    ("0.3", "2.0", "2.0", 3.2200419436281753, 0.00015527748046555756, 0.5572745830657586),
    ("0.3", "3.0", "1.5", 1.9228902617018129, 3.023750871287188e-06, 0.6466912726327659),
    ("0.3", "4.0", "1.3333333333333333", 1.6672422183605433, 5.394409499126597e-08,
     0.681555105911146),
    ("0.39269908169872414", "1.5", "3.0", 11.687159621454953, 0.000978076930379889,
     0.4406532810064321),
    ("0.39269908169872414", "2.0", "2.0", 3.2892938496583133, 0.00015200831024930753,
     0.5513770220988675),
    ("0.39269908169872414", "3.0", "1.5", 1.961223835409079, 2.906703148445721e-06,
     0.6382368734972732),
    ("0.39269908169872414", "4.0", "1.3333333333333333", 1.699080642710518,
     5.096805167805539e-08, 0.6719539418112164),
    ("0.7853981633974483", "1.5", "3.0", 3.4295, 0.0018055607265069285, 0.6631163420499333),
    ("0.7853981633974483", "2.0", "2.0", 1.805, 0.0002770083102493075, 0.7443229275647869),
    ("0.7853981633974483", "3.0", "1.5", 1.309484631448571, 6.520099074208455e-06,
     0.8354742378779997),
    ("0.7853981633974483", "4.0", "1.3333333333333333", 1.1766342131486622,
     1.534672078943532e-07, 0.8851541213196995),
    ("1.2", "1.5", "3.0", 11.685375534843558, 0.0009781515923944727, 0.44067570572042014),
    ("1.2", "2.0", "2.0", 3.2855952638130272, 0.00015217942559965093, 0.5516872766335126),
    ("1.2", "3.0", "1.5", 1.9591044282913828, 2.9129956354982983e-06, 0.6386970973886007),
    ("1.2", "4.0", "1.3333333333333333", 1.6973088283727231, 5.112783443421845e-08,
     0.6724799608484405),
]

ANALYZE_COUNTS = [
    (1.1, (232, 876, 777, 115)),
    (0.3, (0, 0, 0, 0)),
    (0.7, (14408, 24318, 10498, 776)),
]

# phase_label, v_est, beta, phi_hat, delta_beta, kappa_beta, gauss_ratio
ANALYZE_ROWS = [
    ("1.1", "0.95", "1.5", 1.0934972369642975, 0.0011858102934033732, 1.2094629263184626,
     0.9999894923294184),
    ("1.1", "0.95", "2.0", 1.0934972369642975, 0.0001534622331438209, 0.991999205709918, 1.0),
    ("1.1", "0.95", "3.0", 1.0934972369642975, 3.033829690599847e-06, 1.010086772692029,
     1.0000434498367459),
    ("1.1", "0.95", "4.0", 1.0934972369642975, 7.066033765665488e-08, 1.3224964551456255,
     1.0001184206480105),
    ("0.3", "0.95", "1.5", 0.785398163397449, 0.2784163998415856, "nan", 1.0601865450680028),
    ("0.3", "0.95", "2.0", 0.785398163397449, 0.20561675835602844, "nan", 0.9999999999999999),
    ("0.3", "0.95", "3.0", 0.785398163397449, 0.12111826828242128, "nan", 0.8140514113780508),
    ("0.3", "0.95", "4.0", 0.785398163397449, 0.07610085237031448, "nan", 0.5999999999999995),
    ("0.7", "0.95", "1.5", 0.7031231876304613, 0.00014232707660314105, 1.1112778022437493,
     0.9999799755111235),
    ("0.7", "0.95", "2.0", 0.7031231876304613, 9.085945107696706e-06, 0.9985830196572842, 1.0),
    ("0.7", "0.95", "3.0", 0.7031231876304613, 4.37085009587581e-08, 1.098444881587525,
     1.0000937007513155),
    ("0.7", "0.95", "4.0", 0.7031231876304613, 2.4773107068929244e-10, 1.479333682264438,
     1.0002740624779638),
]

# experiments 0-9 of the sweep campaign at v_est = v_true = 0.95 (pi/8, 2000
# shots, seed 11): tally, phi_hat and Delta_beta for beta = 1.5, 2, 3, 4
SWEEP_EXPERIMENTS = [
    ((868, 835, 135, 162), 0.37120199091491834,
     (0.0012059508002511745, 0.00015694363259973062,
      3.1374227082016193e-06, 7.38882406123281e-08)),
    ((826, 840, 168, 166), 0.3956378504238937,
     (0.0011724549601743288, 0.0001511584107866381,
      2.9655515605358763e-06, 6.854112704849109e-08)),
    ((822, 840, 164, 174), 0.38871202878724803,
     (0.0011691700896613961, 0.00015059401901951745,
      2.948958747835907e-06, 6.803029369892251e-08)),
    ((831, 833, 164, 172), 0.3879996055220492,
     (0.0011708436111416323, 0.00015088149422671975,
      2.9574067342271708e-06, 6.829026537269773e-08)),
    ((826, 828, 162, 184), 0.3794725527281987,
     (0.0011631067529903809, 0.0001495537012812461,
      2.918459505360875e-06, 6.709395742007125e-08)),
    ((805, 877, 148, 170), 0.3877548373310054,
     (0.0011862408482747218, 0.00015353276744862468,
      3.0356946378022973e-06, 7.071105915412857e-08)),
    ((841, 820, 170, 169), 0.3907757559217926,
     (0.0011682597891661088, 0.0001504377077248743,
      2.944368699593754e-06, 6.788914864445427e-08)),
    ((822, 854, 166, 158), 0.40162442177199453,
     (0.0011810998608746974, 0.00015264629114433863,
      3.0094449846078e-06, 6.989710321863492e-08)),
    ((856, 820, 172, 152), 0.40078196326655713,
     (0.0011812233983328625, 0.00015266755275490025,
      3.010072211157067e-06, 6.991648072309813e-08)),
    ((811, 823, 185, 181), 0.39651614580757966,
     (0.0011463246759919577, 0.00014668349600781822,
      2.8348481151204655e-06, 6.454335673336436e-08)),
]


def data_rows(path):
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    return [line.split(",") for line in lines[1:]]


def assert_cells(got, want, rel):
    """Exact match for string cells (labels and markers), relative for numbers."""
    assert len(got) == len(want)
    for cell, expected in zip(got, want):
        if isinstance(expected, str):
            assert cell == expected
        else:
            assert float(cell) == pytest.approx(expected, rel=rel, abs=0.0)


def test_simulate_violation_counts_are_exact(tmp_path):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--phase-true", repr(PI / 4.0), "--v-est", "0.95,0.98,1.0",
                 "--experiments", "20", "--seed", "29", "--out", str(out)]) == 0
    got = [(row[0], row[1], int(row[3])) for row in data_rows(out)]
    assert got == SIMULATE_COUNTS


def test_bounds_rows(tmp_path):
    out = tmp_path / "bounds.csv"
    args = ["bounds", "--v-est", "0.95", "--shots", "2000", "--out", str(out)]
    for phase in ("0.0", "0.3", repr(PI / 8.0), repr(PI / 4.0), "1.2"):
        args += ["--phase-true", phase]
    assert main(args) == 0
    rows = data_rows(out)
    assert len(rows) == len(BOUNDS_ROWS)
    for got, want in zip(rows, BOUNDS_ROWS):
        assert_cells(got, want, rel=1e-14)


def test_analyze_rows(tmp_path):
    counts = tmp_path / "counts.csv"
    labels, tallies = zip(*ANALYZE_COUNTS)
    write_counts(CountsTable(list(labels), list(tallies), ("",) * len(labels)), counts)
    out = tmp_path / "report.csv"
    assert main(["analyze", str(counts), "--v-est", "0.95", "--out", str(out)]) == 0
    rows = data_rows(out)
    assert len(rows) == len(ANALYZE_ROWS)
    for got, want in zip(rows, ANALYZE_ROWS):
        assert_cells(got, want, rel=1e-12)


def test_sweep_experiment_moments():
    config = CampaignConfig(phase_true=PI / 8.0, v_true=0.95, v_est=0.95, shots=2000,
                            n_experiments=10, seed=11)
    tallies, table = campaign_tallies(config), run_campaign(config)
    assert len(table.feasible) == len(SWEEP_EXPERIMENTS) and table.feasible.all()
    for i, (counts, phi_hat, deltas) in enumerate(SWEEP_EXPERIMENTS):
        assert tuple(tallies[i].tolist()) == counts
        assert table.phi_hat[i] == phi_hat
        for got, want in zip(table.deltas[i].tolist(), deltas):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
