#!/usr/bin/env python3
"""Benchmark of the gcrb command line: the simulate, bounds and analyze paths.

    python3 perfbench/run.py --workload {sweep,curves,ingest} --seed N --seconds S --trace {0,1}

Run it from the repository root; it uses the package under `src/` and
nothing installed.  Each workload invokes the real CLI in a child process,
one invocation at a time (a closed loop with one client), for S seconds.
The inputs are made from the seed before any timing; gcrb receives only those
inputs.  Every invocation's output is checked: the first against references
computed here (see checks.py), the others for byte identity with the first.

With --trace 0 the last line of standard output is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics, taken from
invocations run under tracer.py and alternated with untraced ones so that
the tracing overhead is measured too.  The lines before it are a readable
report: the run's context, then every metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACER = BENCH_DIR / "tracer.py"

OUT = "out.csv"
MANIFEST = OUT + ".manifest.json"
BETAS = [1.5, 2.0, 3.0, 4.0]
BETA_SPEC = "1.5,2,3,4"
PHASE_STEP = 1e-4

# fresh-interpreter imports of gcrb.cli give setup_s: one before each
# invocation and at least this many per run, after one uncounted import that
# warms the file cache and writes bytecode
SETUP_RUNS = 7
# the whole run must end within 180 s; no invocation starts past this budget
BUDGET_S = 150.0
TIMEOUT_S = 175

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("bayes.moment_set.calls", "count"),
    ("bayes.moment_set.self_s", "s"),
    ("bayes.moment_set.p50_us", "us"),
    ("bayes.moment_set.p99_us", "us"),
    ("bayes.posterior.calls", "count"),
    ("bayes.posterior.self_s", "s"),
    ("bayes.posterior.p50_us", "us"),
    ("bayes.posterior.p99_us", "us"),
    ("bayes.grid_nodes", "count"),
    ("bayes.logprob_cache_hit_frac", "fraction"),
    ("model.log_prob_grid.calls", "count"),
    ("model.log_prob_grid.self_s", "s"),
    ("fisher.generalized_fisher.calls", "count"),
    ("fisher.generalized_fisher.self_s", "s"),
    ("fisher.crb_bound.calls", "count"),
    ("fisher.crb_bound.self_s", "s"),
    ("fisher.repeat_frac", "fraction"),
    ("montecarlo.experiments", "count"),
    ("montecarlo.infeasible_frac", "fraction"),
    ("montecarlo.violation_fractions.self_s", "s"),
    ("montecarlo.run_experiment.self_s", "s"),
    ("montecarlo.sample_tally.self_s", "s"),
    ("ingest.parse_counts.self_s", "s"),
    ("ingest.rows", "count"),
    ("cli.cmd.self_s", "s"),
    ("cli.rows_emitted", "count"),
    ("cli.bytes_written", "bytes"),
    ("other.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("check.max_rel_err", "fraction"),
    ("check.flagged_rows", "count"),
    ("check.rows_over_1e-5", "count"),
)


# --- workloads -------------------------------------------------------------------

@dataclass
class Workload:
    name: str
    argv: list[str]
    items: int
    item_name: str
    check: Callable[[str], checks.CheckResult]
    inputs: dict[str, str] = field(default_factory=dict)


def _values(lo: float, hi: float, step: float) -> list[float]:
    return [round(lo + i * step, 12) for i in range(round((hi - lo) / step) + 1)]


def _range_spec(lo: float, hi: float, step: float) -> str:
    return f"{lo!r}:{hi!r}:{step!r}"


def sweep(seed: int, experiments: int = 400, v_est=(0.9, 1.0, 0.01)) -> Workload:
    """The paper's campaign: 11 assumed visibilities x 400 experiments x 2000
    shots at phi = pi/8, v_true = 0.95; the seed is the campaign seed."""
    values = _values(*v_est)
    argv = ["simulate", "--phase-true", repr(math.pi / 8.0), "--v-true", "0.95",
            "--v-est", _range_spec(*v_est), "--shots", "2000",
            "--experiments", str(experiments), "--seed", str(seed % 2 ** 64),
            "--beta", BETA_SPEC, "--out", OUT]
    return Workload("sweep", argv, len(values) * experiments, "experiments",
                    lambda text: checks.check_sweep(text, values, BETAS, experiments))


def curves(seed: int, width: float = math.pi / 2.0) -> Workload:
    """Bounds on a 1e-4 rad phase grid over `width` at v = 0.95; the seed
    shifts the grid by less than one step."""
    start = round(float(np.random.default_rng(seed % 2 ** 64).uniform(0.0, PHASE_STEP)), 12)
    n_phases = math.floor(width / PHASE_STEP) + 1
    argv = ["bounds", "--phase-true", _range_spec(start, start + width, PHASE_STEP),
            "--v-est", "0.95", "--shots", "2000", "--beta", BETA_SPEC, "--out", OUT]
    return Workload("curves", argv, n_phases * len(BETAS), "rows",
                    lambda text: checks.check_curves(text, start, n_phases, PHASE_STEP, 0.95,
                                                     BETAS, 2000))


def ingest(seed: int, rows: int = 200, v_est=(0.9, 1.0, 0.005)) -> Workload:
    """A counts table drawn from the seed: phases uniform on [0, pi/2], shots
    log-uniform in [1e3, 1e6], v_true = 0.95; analyzed at 21 visibilities."""
    rng = np.random.default_rng(seed % 2 ** 64)
    phases = rng.uniform(0.0, math.pi / 2.0, rows)
    shots = np.rint(10.0 ** rng.uniform(3.0, 6.0, rows)).astype(np.int64)
    cu, su = np.cos(2.0 * phases), np.sin(2.0 * phases)
    probs = 0.25 * (1.0 + 0.95 * np.stack([cu, su, -cu, -su], axis=1))
    counts = np.stack([rng.multinomial(m, p) for m, p in zip(shots, probs)])
    lines = ["phase_rad,c0,c1,c2,c3"]
    lines += [",".join([repr(float(ph)), *map(str, c)]) for ph, c in zip(phases, counts)]
    values = _values(*v_est)
    argv = ["analyze", "counts.csv", "--v-est", _range_spec(*v_est), "--beta", BETA_SPEC,
            "--out", OUT]
    return Workload("ingest", argv, rows * len(values), "posteriors",
                    lambda text: checks.check_ingest(text, phases, counts, values, BETAS),
                    inputs={"counts.csv": "\n".join(lines) + "\n"})


WORKLOADS = {"sweep": sweep, "curves": curves, "ingest": ingest}


# --- child processes -------------------------------------------------------------

@dataclass
class Invocation:
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    traced: bool
    digest: str = ""
    profile: dict | None = None


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(cmd: list[str], cwd: Path) -> tuple[float, int, float]:
    """Run a child to completion: wall seconds, exit code, peak RSS in MB."""
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=_child_env(), stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def _invoke(workload: Workload, run_dir: Path, traced: bool) -> Invocation:
    for name in (OUT, MANIFEST):
        (run_dir / name).unlink(missing_ok=True)
    spans = run_dir / "spans.npz"
    if traced:
        cmd = [sys.executable, str(TRACER), spans.name, *workload.argv]
    else:
        cmd = [sys.executable, "-m", "gcrb.cli", *workload.argv]
    wall, code, rss = _spawn(cmd, run_dir)
    inv = Invocation(wall, rss, code, traced)
    if code == 0:
        digest = hashlib.sha256()
        for name in (OUT, MANIFEST):
            path = run_dir / name
            digest.update(path.read_bytes() if path.exists() else b"<missing>")
        inv.digest = digest.hexdigest()
    if traced and spans.exists():
        inv.profile = _layer_profile(spans)
        spans.unlink()
    return inv


def _check(workload: Workload, out: Path, manifest_path: Path) -> checks.CheckResult:
    try:
        text = out.read_text(encoding="utf-8")
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        result = checks.CheckResult()
        result.fail(f"cannot read the outputs: {exc}")
        return result
    result = workload.check(text)
    if manifest.get("command") != workload.argv[0] or manifest.get("outputs") != [OUT]:
        result.fail("manifest does not name the command and its output")
    return result


# --- tracing ---------------------------------------------------------------------

def _layer_profile(path: Path) -> dict:
    """Self time and calls per span name for one traced invocation."""
    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        name_id, start, end, parent = data["name_id"], data["start"], data["end"], data["parent"]
    dur = end - start
    child = parent >= 0
    # spans of one thread nest, so the children of a span cover exactly the
    # sum of their durations
    nested = bool(np.all(start[child] >= start[parent[child]]) and
                  np.all(end[child] <= end[parent[child]]))
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    self_time = dur - covered
    names = meta["names"]
    k = len(names)
    return {
        "calls": dict(zip(names, np.bincount(name_id, minlength=k).tolist())),
        "self_s": dict(zip(names, np.bincount(name_id, weights=self_time, minlength=k).tolist())),
        "durations": {n: dur[name_id == i] for i, n in enumerate(names)
                      if n in ("bayes.posterior", "bayes.moment_set")},
        "wall_s": float(dur[0]),
        "self_total_s": float(self_time.sum()),
        "nested": nested,
        "counts": meta["counts"],
        "missing": meta["missing"],
    }


def _per_layer(profiles: list[dict], untraced: list[float], traced: list[float],
               check: checks.CheckResult, rows: int, size: int) -> dict[str, float]:
    first = profiles[0]

    def calls(name: str) -> int:
        return int(first["calls"].get(name, 0))

    def self_s(*names: str) -> float:
        return statistics.median(sum(p["self_s"].get(n, 0.0) for n in names) for p in profiles)

    def pct(name: str, q: float) -> float:
        pooled = [p["durations"].get(name, np.empty(0)) for p in profiles]
        pooled = np.concatenate(pooled)
        return float(np.percentile(pooled, q)) * 1e6 if pooled.size else 0.0

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    counts = first["counts"]
    posteriors = calls("bayes.posterior")
    fisher_calls = calls("fisher.generalized_fisher")
    experiments = calls("montecarlo.run_experiment")
    return {
        "bayes.moment_set.calls": calls("bayes.moment_set"),
        "bayes.moment_set.self_s": self_s("bayes.moment_set"),
        "bayes.moment_set.p50_us": pct("bayes.moment_set", 50),
        "bayes.moment_set.p99_us": pct("bayes.moment_set", 99),
        "bayes.posterior.calls": posteriors,
        "bayes.posterior.self_s": self_s("bayes.posterior"),
        "bayes.posterior.p50_us": pct("bayes.posterior", 50),
        "bayes.posterior.p99_us": pct("bayes.posterior", 99),
        "bayes.grid_nodes": frac(counts["grid_nodes"], posteriors),
        "bayes.logprob_cache_hit_frac": frac(posteriors - calls("model.log_prob_grid"), posteriors),
        "model.log_prob_grid.calls": calls("model.log_prob_grid"),
        "model.log_prob_grid.self_s": self_s("model.log_prob_grid"),
        "fisher.generalized_fisher.calls": fisher_calls,
        "fisher.generalized_fisher.self_s": self_s("fisher.generalized_fisher"),
        "fisher.crb_bound.calls": calls("fisher.crb_bound"),
        "fisher.crb_bound.self_s": self_s("fisher.crb_bound"),
        "fisher.repeat_frac": frac(fisher_calls - counts["fisher_distinct_args"], fisher_calls),
        "montecarlo.experiments": experiments,
        "montecarlo.infeasible_frac": frac(counts["experiments_infeasible"], experiments),
        "montecarlo.violation_fractions.self_s": self_s("montecarlo.violation_fractions"),
        "montecarlo.run_experiment.self_s": self_s("montecarlo.run_experiment"),
        "montecarlo.sample_tally.self_s": self_s("montecarlo.sample_tally",
                                                 "montecarlo.experiment_rng"),
        "ingest.parse_counts.self_s": self_s("ingest.parse_counts"),
        "ingest.rows": counts["ingest_rows"],
        "cli.cmd.self_s": self_s("cli.cmd"),
        "cli.rows_emitted": rows,
        "cli.bytes_written": size,
        "other.self_s": self_s("other"),
        "trace.wall_s": statistics.median(p["wall_s"] for p in profiles),
        "trace.overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1.0,
        "check.max_rel_err": check.max_rel_err,
        "check.flagged_rows": check.flagged_rows,
        "check.rows_over_1e-5": check.rows_over_tol,
    }


# --- context ---------------------------------------------------------------------

def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def context() -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "loadavg_before": list(os.getloadavg()),
    }


# --- one run ---------------------------------------------------------------------

@dataclass
class RunResult:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    problems: list[str]
    report: list[str]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def run(workload: Workload, seconds: float, trace: bool, setup_runs: int = SETUP_RUNS) -> RunResult:
    """Measure one workload; raises RuntimeError when nothing could be timed."""
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        return _measure(workload, run_dir, seconds, trace, setup_runs)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def _measure(workload: Workload, run_dir: Path, seconds: float, trace: bool,
             setup_runs: int) -> RunResult:
    began = time.perf_counter()
    ctx = context()
    for name, text in workload.inputs.items():
        (run_dir / name).write_text(text, encoding="utf-8")

    setup: list[float] = []

    def time_import() -> None:
        wall, code, _ = _spawn([sys.executable, "-c", "import gcrb.cli"], run_dir)
        if code != 0:
            raise RuntimeError("importing gcrb.cli failed: "
                               + (run_dir / "stderr.txt").read_text(errors="replace"))
        setup.append(wall)

    if not trace:
        time_import()
        setup.clear()

    invocations: list[Invocation] = []
    reference: Invocation | None = None
    deadline = time.perf_counter() + seconds
    while True:
        # set-up is timed between invocations so that both see the same load
        if not trace:
            time_import()
        traced = trace and len(invocations) % 2 == 1
        inv = _invoke(workload, run_dir, traced)
        invocations.append(inv)
        if reference is None and inv.exit_code == 0:
            reference = inv
            for name in (OUT, MANIFEST):
                if (run_dir / name).exists():
                    os.replace(run_dir / name, run_dir / ("reference." + name))
        now = time.perf_counter()
        done = now >= deadline and (not trace or len(invocations) >= 2)
        if done or now - began + inv.wall_s > BUDGET_S:
            break
    while not trace and len(setup) < setup_runs:
        time_import()
    if reference is None:
        raise RuntimeError(f"every invocation of {workload.name} failed: "
                           + (run_dir / "stderr.txt").read_text(errors="replace"))

    # the first successful output is checked against the references; every
    # other invocation of the same inputs must reproduce its bytes
    check = _check(workload, run_dir / ("reference." + OUT), run_dir / ("reference." + MANIFEST))
    problems = list(check.problems)
    if any(inv.exit_code == 0 and inv.digest != reference.digest for inv in invocations):
        problems.append("outputs differ between invocations of the same inputs")
    failed = sum(not (inv.exit_code == 0 and inv.digest == reference.digest and check.ok)
                 for inv in invocations)
    text = (run_dir / ("reference." + OUT)).read_text(encoding="utf-8")
    rows = max(text.count("\n") - 1, 0)
    size = sum(path.stat().st_size for path in run_dir.glob("reference.*"))

    plain = [inv for inv in invocations if not inv.traced and inv.exit_code == 0]
    walls = [inv.wall_s for inv in plain]
    report = [f"context {json.dumps(ctx)}"]
    report.append(f"workload {workload.name}: {' '.join(workload.argv)}")
    report.append(f"{len(invocations)} invocations in {time.perf_counter() - began:.1f} s, "
                  f"{len(plain)} untraced ok; {workload.items} {workload.item_name} each")

    if trace:
        profiles = [inv.profile for inv in invocations if inv.traced and inv.profile]
        traced_walls = [inv.wall_s for inv in invocations if inv.traced and inv.exit_code == 0]
        if not profiles or not walls:
            raise RuntimeError("tracing needs a successful untraced and a traced invocation")
        for prof in profiles:
            if not prof["nested"] or abs(prof["self_total_s"] - prof["wall_s"]) > 1e-6 * prof["wall_s"]:
                problems.append("span self times do not add up to the traced wall time")
                break
        values = _per_layer(profiles, walls, traced_walls, check, rows, size)
        units = PER_LAYER
        if profiles[0]["missing"]:
            report.append(f"entry points not found (not traced): {', '.join(profiles[0]['missing'])}")
        report.append(f"layer self times + other = {profiles[0]['self_total_s']:.6f} s; "
                      f"traced wall = {profiles[0]['wall_s']:.6f} s")
    else:
        # the fastest sample is the cost without interference: on a shared
        # machine, slow phases lasting tens of seconds move a run's median by
        # more than they move its minimum
        setup_s = min(setup)
        wall_s = min(walls)
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "items_per_s": workload.items / (wall_s - setup_s),
            "peak_rss_mb": statistics.median(inv.peak_rss_mb for inv in plain),
        }
        units = END_TO_END
        for name, samples in (("wall_s", walls), ("setup_s", setup)):
            report.append(f"{name} samples ({len(samples)}, median {statistics.median(samples):.4f}): "
                          + " ".join(f"{w:.4f}" for w in samples))
    metrics = {name: (values[name], unit) for name, unit in units}
    attempted = len(invocations)
    report.append(f"metric failed_frac = {failed / attempted!r} fraction ({failed} of {attempted})")
    report.append(f"metric max_rel_err = {check.max_rel_err!r} fraction "
                  f"({check.rows_over_tol} values beyond {checks.REPORT_REL_TOL}, "
                  f"{check.flagged_rows} flagged nan and not scored)")
    for name, (value, unit) in metrics.items():
        report.append(f"metric {name} = {value!r} {unit}")
    for problem in problems:
        report.append(f"check failed: {problem}")
    report.append(f"loadavg_after {json.dumps(list(os.getloadavg()))}")
    return RunResult(metrics, attempted, failed, problems, report)


# --- entry point -----------------------------------------------------------------

class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "gcrb" / "cli.py").is_file():
        print(f"perfbench: no gcrb sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(TIMEOUT_S)
    try:
        result = run(WORKLOADS[args.workload](args.seed), args.seconds, bool(args.trace))
    except _Timeout:
        print(f"perfbench: {args.workload} did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    print("\n".join(result.report))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
