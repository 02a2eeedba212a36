"""Command-line driver emitting machine-readable diagnostic tables.

Subcommands
    simulate   violation fractions Sigma_beta over a v_est sweep (CSV)
    bounds     f_alpha and the order-beta lower bounds over phases (CSV)
    analyze    per-row moments, kappa ratios and Gaussianity for a counts CSV

`analyze` calls the library's analysis routine, `gcrb.bayes.report_counts`,
once per v_est on the whole counts table.  `simulate` calls
`gcrb.montecarlo.run_campaign` once per v_est, which shares that routine's
counts evaluator, ``nan`` on infeasible rows (`gcrb.bayes._evaluate_counts`),
and writes per order the column sum of the table's flags (n_violations) and
their column mean Sigma_beta (sigma_frac).
`bounds` computes every f_alpha from one `generalized_fisher` call and the
bounds from the resulting arrays (`gcrb.fisher.order_bound`).

`simulate` and `analyze` validate every v_est value, then share the values
between this process and forked children (`_map_in_order`): n processes, one
per CPU in the affinity mask and at most one per value, where process w takes
every n-th value from the w-th.  This process computes its own share and
forks one child for each other share; `simulate` draws the campaign's tallies
before the fork, so that all share one draw.  Every process formats its own
rows as finished CSV lines, and each child sends its lines back pickled over
a pipe.  The parent puts them in order, (record, v_est) for `analyze` and
value order for `simulate`, and writes the warnings in the same order.  A
child's exception is raised in the parent; a child that dies without a result
is an error naming its exit status, and a failure in the parent's share kills
the children.  Either way no child outlives the call and no output is
written.  The output bytes do not depend on the process count, and one CPU
(``taskset -c 0``) runs the values in-process.  On Python >= 3.12 the fork
may emit a DeprecationWarning, because OpenBLAS threads make the process
multi-threaded.

Every output CSV is streamed line by line into a temporary file that then
replaces the output atomically, and is accompanied by
``<out>.manifest.json`` recording the command, the fully resolved
configuration, the seed and the tool version.  Reruns with the same manifest
reproduce the output byte for byte.

Exit codes: 0 success, 1 usage or configuration error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import sys
import tempfile
from dataclasses import replace
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .bayes import DEFAULT_BETAS, PhaseDomain, report_counts
from .errors import EstimationError, UndefinedRatioError
from .fisher import conjugate_exponent, generalized_fisher, order_bound
from .ingest import fold_phase, parse_counts
from .model import MODEL_NAME, ModelParams
from .montecarlo import (VIOLATION_RULES, WINDOW_SCALES, CampaignConfig, campaign_tallies,
                         run_campaign)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

DEFAULT_DOMAIN_SPEC = "0:1.5707963267948966"
DEFAULT_VEST_SPEC = "0.9:1.0:0.01"
DEFAULT_PHASE = math.pi / 8.0
# a range is expanded into a list, and each value into CSV rows, before the
# first output: a bound turns a mistyped step (0:1e9:1, tens of GB) into a
# usage error instead of exhausted memory
MAX_RANGE_VALUES = 10 ** 6


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; the interface reserves
    # 2 for data errors, so steer usage problems to exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def parse_value_list(specs) -> list[float]:
    """Expand repeatable values and a:b:step ranges (inclusive endpoints)."""
    values: list[float] = []
    for spec in specs:
        for part in str(spec).split(","):
            part = part.strip()
            if not part:
                continue
            if ":" in part:
                pieces = part.split(":")
                if len(pieces) != 3:
                    raise ValueError(f"range must be a:b:step, got {part!r}")
                a, b, step = (float(x) for x in pieces)
                if not all(map(math.isfinite, (a, b, step))):
                    raise ValueError(f"range {part!r} must have finite a, b and step")
                if step <= 0 or b < a:
                    raise ValueError(f"range {part!r} must have b >= a and step > 0")
                steps = (b - a) / step
                if not math.isfinite(steps):
                    raise ValueError(f"range {part!r} must have a finite number of values")
                count = int(math.floor(steps + 0.5))
                if count + 1 > MAX_RANGE_VALUES:
                    raise ValueError(f"range {part!r} has {count + 1} values, "
                                     f"more than {MAX_RANGE_VALUES}")
                values.extend(round(a + i * step, 12) for i in range(count + 1)
                              if a + i * step <= b + step * 1e-9)
            else:
                values.append(float(part))
    if not values:
        raise ValueError("no values given")
    return values


def parse_domain(spec: str) -> PhaseDomain:
    pieces = str(spec).split(":")
    if len(pieces) != 2:
        raise ValueError(f"domain must be lo:hi, got {spec!r}")
    return PhaseDomain(float(pieces[0]), float(pieces[1]))


def _write_atomic(path: Path, lines) -> None:
    """Write each line of the iterable, and a newline after it, to a temporary
    file that then replaces path; on any exception the temporary file is
    removed and path keeps its old bytes."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            for line in lines:
                handle.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(out: Path, header: tuple[str, ...], lines, manifest: dict) -> None:
    """Stream the header and the CSV lines to out, then write its manifest."""
    _write_atomic(out, chain([",".join(header)], lines))
    manifest_path = out.with_name(out.name + ".manifest.json")
    _write_atomic(manifest_path, [json.dumps(manifest, indent=2, sort_keys=True)])


def _manifest(command: str, seed, config: dict, outputs: list[str]) -> dict:
    return {
        "command": command,
        "config": config,
        "model": MODEL_NAME,
        "outputs": outputs,
        "seed": seed,
        "version": __version__,
    }


def _run_share(func, share, write_fd):
    """In a forked child: write ``(True, results)`` for the share, or
    ``(False, exception)``, pickled to write_fd, and leave by `os._exit`, which
    runs none of the parent's exit handlers.  A payload that does not pickle
    or reach the pipe leaves status 1 and no result."""
    status = 1
    try:
        try:
            payload = (True, [func(v) for v in share])
        except BaseException as exc:
            payload = (False, exc)
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


def _map_in_order(func, values) -> list:
    """``[func(v) for v in values]``, shared between this process and forked
    children: with n = min(len(values), CPUs in the affinity mask), process w
    computes ``values[w::n]``.  This process computes share 0; each child
    pickles its results, or its exception, to its own pipe, and the parent
    reads each pipe to the end, reaps the child and interleaves the results.

    It runs in-process when n is 1, or where the platform lacks
    `os.sched_getaffinity` or `os.fork`.  Results and exceptions must pickle.
    A child's exception is raised here as itself, and a child that leaves no
    result raises ChildProcessError naming its exit status; if this process's
    share raises, the children are killed and reaped first.  Which share's
    exception is raised does not follow value order, so callers validate
    their values first.
    """
    try:
        n = min(len(values), len(os.sched_getaffinity(0)))
    except AttributeError:
        n = 1
    if n < 2 or not hasattr(os, "fork"):
        return [func(v) for v in values]
    # a child that prints would write the parent's buffered output again
    sys.stdout.flush()
    sys.stderr.flush()
    children = []  # (pid, read end of its pipe) of each child not yet reaped
    try:
        for w in range(1, n):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                for _, fd in children:
                    os.close(fd)
                _run_share(func, values[w::n], write_fd)
            # closed at once, so that the pipe ends when the child exits
            os.close(write_fd)
            children.append((pid, read_fd))
        results = [None] * len(values)
        results[0::n] = [func(v) for v in values[0::n]]
        for w in range(1, n):
            pid, read_fd = children[0]
            with open(read_fd, "rb", closefd=False) as pipe:
                payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(read_fd)
            del children[0]
            if code != 0 or not payload:
                raise ChildProcessError(f"worker process {pid} exited with status {code} "
                                        f"and no result")
            ok, share = pickle.loads(payload)
            if not ok:
                raise share
            results[w::n] = share
        return results
    except BaseException:
        # imported here: only a failure needs it
        import signal

        for pid, read_fd in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_fd)
        raise


def _campaign_lines(config: CampaignConfig) -> tuple[bool, str]:
    """Whether Sigma_beta is defined at the campaign's v_est, and the
    campaign's CSV lines joined by newlines.  Where it is undefined (no Fisher
    information at phase_true) the lines carry nan, and the sweep goes on."""
    v_est, n = config.v_est, config.n_experiments
    try:
        flags = run_campaign(config).flags
    except UndefinedRatioError:
        return False, "\n".join(f"{v_est!r},{b!r},nan,nan,{n}" for b in config.beta_list)
    return True, "\n".join(f"{v_est!r},{b!r},{c / n!r},{c},{n}"
                            for b, c in zip(config.beta_list, flags.sum(axis=0).tolist()))


def cmd_simulate(args) -> int:
    domain = parse_domain(args.domain)
    v_est_values = parse_value_list(args.v_est)
    betas = tuple(parse_value_list(args.beta))
    base = CampaignConfig(
        phase_true=args.phase_true,
        v_true=args.v_true,
        v_est=v_est_values[0],
        shots=args.shots,
        n_experiments=args.experiments,
        beta_list=betas,
        domain=domain,
        seed=args.seed,
        sigma_window=args.sigma_window,
        violation_rule=args.violation_rule,
        window_scale=args.window_scale,
    )
    # every config is validated here, so that a bad v_est gives the same
    # error whichever worker would have met it first
    configs = [replace(base, v_est=v_est) for v_est in v_est_values]
    # drawn here, before the fork, so that the workers share one draw
    campaign_tallies(base)
    results = _map_in_order(_campaign_lines, configs)
    undefined = [v_est for v_est, (defined, _) in zip(v_est_values, results) if not defined]
    out = Path(args.out)
    config = {
        "phase_true": args.phase_true,
        "v_true": args.v_true,
        "v_est": v_est_values,
        "shots": args.shots,
        "experiments": args.experiments,
        "beta": list(betas),
        "domain": {"lower": domain.lower, "upper": domain.upper},
        "sigma_window": args.sigma_window,
        "violation_rule": args.violation_rule,
        "window_scale": args.window_scale,
    }
    _emit(out, ("v_est", "beta", "sigma_frac", "n_violations", "n_experiments"),
          (lines for _, lines in results), _manifest("simulate", args.seed, config, [out.name]))
    for v_est in undefined:
        print(f"warning: v_est={v_est!r} has zero Fisher information at "
              f"phase_true={args.phase_true!r}; its sigma_beta rows are nan", file=sys.stderr)
    return EXIT_OK


def cmd_bounds(args) -> int:
    # tuples keep the arguments of generalized_fisher hashable for
    # perfbench/tracer.py, which records them
    phases = tuple(parse_value_list(args.phase_true))
    betas = tuple(parse_value_list(args.beta))
    params = ModelParams(args.v_est)
    alphas = tuple(conjugate_exponent(betas).tolist())
    # f_alpha for every (order, phase) from one model evaluation, and the
    # bounds from it, each (orders, phases); a vanishing f_alpha gives inf
    infos = generalized_fisher(alphas, phases, params)
    bounds = order_bound(np.array(betas)[:, np.newaxis], infos, args.shots)
    with np.errstate(divide="ignore"):
        rescaled = infos ** (-1.0 / np.array(alphas)[:, np.newaxis])
    lines = (
        f"{phase!r},{b!r},{a!r},{f!r},{bound!r},{r!r}"
        for phase, *cells in zip(phases, infos.T.tolist(), bounds.T.tolist(), rescaled.T.tolist())
        for b, a, f, bound, r in zip(betas, alphas, *cells)
    )
    out = Path(args.out)
    config = {
        "phase": phases,
        "v_est": args.v_est,
        "shots": args.shots,
        "beta": list(betas),
    }
    _emit(out, ("phase", "beta", "alpha", "f_alpha", "bound_delta_beta", "bound_rescaled"),
          lines, _manifest("bounds", None, config, [out.name]))
    return EXIT_OK


def _report_lines(counts: np.ndarray, labels: list[str], betas, domain: PhaseDomain,
                  params: ModelParams) -> tuple[np.ndarray, list[str]]:
    """feasible and the CSV lines of the counts rows at one v_est: one string
    per counts row, its lines at each order joined by newlines.  Infeasible
    rows come back as nan, which formats as "nan"."""
    report = report_counts(counts, params, domain, betas)
    v_est = repr(params.visibility)
    orders = [repr(b) for b in betas]
    lines = []
    for label, phi, *cells in zip(labels, report.phi_hat.tolist(), report.deltas.tolist(),
                                  report.kappas.tolist(), report.gauss_ratios.tolist()):
        # formatted once per row, not once per order
        lead, phi = f"{label},{v_est},", repr(phi)
        lines.append("\n".join(f"{lead}{b},{phi},{d!r},{k!r},{g!r}"
                               for b, d, k, g in zip(orders, *cells)))
    return report.feasible, lines


def cmd_analyze(args) -> int:
    domain = parse_domain(args.domain)
    v_est_values = parse_value_list(args.v_est)
    betas = tuple(parse_value_list(args.beta))
    try:
        records = parse_counts(args.counts)
    except OSError as exc:
        print(f"gcrb: data error: cannot read counts file: {exc}", file=sys.stderr)
        return EXIT_DATA
    except UnicodeDecodeError as exc:
        print(f"gcrb: data error: counts file {args.counts!r} is not UTF-8 text: {exc}",
              file=sys.stderr)
        return EXIT_DATA
    # a header-only file gives a (0, 4) table
    counts = np.array([r.counts for r in records], dtype=np.int64).reshape(-1, 4)
    # cells are formatted with repr, the full round-trip decimal form of a
    # Python float, which no locale changes
    labels = [repr(float(fold_phase(r.phase_label, domain) if args.fold else r.phase_label))
              for r in records]
    # every v_est is validated here, before the first fork
    params = [ModelParams(v_est) for v_est in v_est_values]
    # one report per v_est, so that each log-likelihood table is built once
    results = _map_in_order(partial(_report_lines, counts, labels, betas, domain), params)
    # each (records, v_est)
    feasible = np.stack([f for f, _ in results], axis=1)
    out = Path(args.out)
    config = {
        "counts": str(args.counts),
        "v_est": v_est_values,
        "beta": list(betas),
        "domain": {"lower": domain.lower, "upper": domain.upper},
        "fold": bool(args.fold),
    }
    # one string per (record, v_est), in that order
    lines = chain.from_iterable(zip(*(value_lines for _, value_lines in results)))
    _emit(out, ("phase_label", "v_est", "beta", "phi_hat", "delta_beta", "kappa_beta", "gauss_ratio"),
          lines, _manifest("analyze", None, config, [out.name]))
    for ir, iv in zip(*np.nonzero(~feasible)):
        print(f"warning: infeasible row flagged: phase_rad={records[ir].phase_label!r} "
              f"v_est={v_est_values[iv]!r}", file=sys.stderr)
    return EXIT_OK


def _add_common(parser, *, with_domain=True):
    parser.add_argument("--beta", action="append", default=None,
                        help="moment order(s), repeatable or comma list (default 1.5,2,3,4)")
    if with_domain:
        parser.add_argument("--domain", default=DEFAULT_DOMAIN_SPEC,
                            help="prior support lo:hi in radians (default [0, pi/2])")
    parser.add_argument("--out", required=True, help="output CSV path")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gcrb",
                     description="Generalized Cramer-Rao bound diagnostics for "
                                 "interferometric phase estimation")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="Monte Carlo violation fractions over a v_est sweep")
    sim.add_argument("--phase-true", type=float, default=DEFAULT_PHASE,
                     help="true phase in radians (default pi/8)")
    sim.add_argument("--v-true", type=float, default=0.95, help="true visibility (default 0.95)")
    sim.add_argument("--v-est", action="append", default=None,
                     help="assumed visibility, repeatable or range a:b:step "
                          f"(default {DEFAULT_VEST_SPEC})")
    sim.add_argument("--shots", type=int, default=2000, help="measurements per experiment M")
    sim.add_argument("--experiments", type=int, default=400, help="experiments per campaign")
    sim.add_argument("--seed", type=int, default=0, help="campaign seed (default 0)")
    sim.add_argument("--sigma-window", type=float, default=3.0,
                     help="statistical window half-width in sigma_beta units (default 3)")
    sim.add_argument("--violation-rule", choices=VIOLATION_RULES, default="composite")
    sim.add_argument("--window-scale", choices=WINDOW_SCALES, default="standard-error")
    _add_common(sim)
    sim.set_defaults(func=cmd_simulate)

    bnd = sub.add_parser("bounds", help="generalized bounds over one or more phases")
    bnd.add_argument("--phase-true", action="append", default=None,
                     help="phase(s) in radians, repeatable or range a:b:step (default pi/8)")
    bnd.add_argument("--v-est", type=float, default=0.95, help="visibility (default 0.95)")
    bnd.add_argument("--shots", type=int, default=2000, help="measurements M (default 2000)")
    _add_common(bnd, with_domain=False)
    bnd.set_defaults(func=cmd_bounds)

    ana = sub.add_parser("analyze", help="moment and kappa report for a counts CSV")
    ana.add_argument("counts", help="counts CSV (phase_rad,c0,c1,c2,c3[,acquisition_id])")
    ana.add_argument("--v-est", action="append", required=True,
                     help="assumed visibility, repeatable or range a:b:step")
    ana.add_argument("--fold", action="store_true",
                     help="fold phase labels into the analysis domain (width-modular)")
    _add_common(ana)
    ana.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "beta", None) is None:
        args.beta = [",".join(str(b) for b in DEFAULT_BETAS)]
    if getattr(args, "v_est", None) is None and args.command == "simulate":
        args.v_est = [DEFAULT_VEST_SPEC]
    if args.command == "bounds" and args.phase_true is None:
        args.phase_true = [str(DEFAULT_PHASE)]
    try:
        return args.func(args)
    except EstimationError as exc:
        print(f"gcrb: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, OSError) as exc:
        print(f"gcrb: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
