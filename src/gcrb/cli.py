"""Command-line driver emitting machine-readable diagnostic tables.

Subcommands
    simulate   violation fractions Sigma_beta over a v_est sweep (CSV)
    bounds     f_alpha and the order-beta lower bounds over phases (CSV)
    analyze    per-row moments, kappa ratios and Gaussianity for a counts CSV

`analyze` calls the library's analysis routine, `gcrb.bayes.report_counts`,
once per v_est on the whole counts table; `simulate` shares its counts
evaluator, ``nan`` on infeasible rows (`gcrb.bayes._evaluate_counts`).
`bounds` computes every f_alpha from one `generalized_fisher` call and the
bounds from the resulting arrays (`gcrb.fisher.order_bound`).

`simulate` and `analyze` validate every v_est value, then evaluate the values
on forked worker processes (`_map_in_order`), one per CPU in the affinity
mask and at most one per value, and write the rows and warnings in value
order; the output bytes do not depend on the worker count, and one CPU
(``taskset -c 0``) runs them in-process.  On Python >= 3.12 the fork may emit
a DeprecationWarning, because OpenBLAS threads make the process
multi-threaded.

Every output CSV is written atomically and is accompanied by
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
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .bayes import DEFAULT_BETAS, PhaseDomain, report_counts
from .errors import EstimationError, UndefinedRatioError
from .fisher import conjugate_exponent, generalized_fisher, order_bound
from .ingest import fold_phase, parse_counts
from .model import MODEL_NAME, ModelParams
from .montecarlo import VIOLATION_RULES, WINDOW_SCALES, CampaignConfig, violation_fractions

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

DEFAULT_DOMAIN_SPEC = "0:1.5707963267948966"
DEFAULT_VEST_SPEC = "0.9:1.0:0.01"
DEFAULT_PHASE = math.pi / 8.0


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; the interface reserves
    # 2 for data errors, so steer usage problems to exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    """Full round-trip decimal formatting, locale independent."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


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
                count = int(math.floor((b - a) / step + 0.5))
                values.extend(round(a + i * step, 12) for i in range(count + 1)
                              if a + i * step <= b + step * 1e-9)
            else:
                values.append(float(part))
    if not values:
        raise ValueError("no values given")
    return values


def parse_domain(spec: str, grid_points: int) -> PhaseDomain:
    pieces = str(spec).split(":")
    if len(pieces) != 2:
        raise ValueError(f"domain must be lo:hi, got {spec!r}")
    return PhaseDomain(float(pieces[0]), float(pieces[1]), grid_points)


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(out: Path, header: tuple[str, ...], rows, manifest: dict) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    _write_atomic(out, "\n".join(lines) + "\n")
    manifest_path = out.with_name(out.name + ".manifest.json")
    _write_atomic(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _manifest(command: str, seed, config: dict, outputs: list[str]) -> dict:
    return {
        "command": command,
        "config": config,
        "model": MODEL_NAME,
        "outputs": outputs,
        "seed": seed,
        "version": __version__,
    }


def _map_in_order(func, values) -> list:
    """``[func(v) for v in values]``, computed on forked worker processes, one
    per CPU in this process's affinity mask and at most one per value.

    It runs in-process when one worker would do, or where the platform lacks
    `os.sched_getaffinity` or the fork start method.  func and the values must
    pickle; the first exception in value order is not guaranteed to be the one
    raised, so callers validate their values first.
    """
    try:
        workers = min(len(values), len(os.sched_getaffinity(0)))
    except AttributeError:
        workers = 1
    if workers > 1:
        # imported here: multiprocessing.pool adds ~25 ms to every start-up
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            pool = multiprocessing.get_context("fork").Pool(workers)
            try:
                results = pool.map(func, values, chunksize=1)
            except BaseException:
                pool.terminate()
                pool.join()
                raise
            pool.close()
            pool.join()
            return results
    return [func(v) for v in values]


def _campaign_stats(config: CampaignConfig):
    """The campaign's ViolationStats, or None when Sigma_beta is undefined at
    its v_est (no Fisher information at phase_true); such a v_est flags its
    own rows and the sweep goes on."""
    try:
        return violation_fractions(config)
    except UndefinedRatioError:
        return None


def cmd_simulate(args) -> int:
    domain = parse_domain(args.domain, args.grid_points)
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
    configs = [base.with_v_est(v_est) for v_est in v_est_values]
    rows = []
    undefined: list[float] = []
    for v_est, stats in zip(v_est_values, _map_in_order(_campaign_stats, configs)):
        if stats is None:
            undefined.append(v_est)
            rows.extend((_fmt(float(v_est)), _fmt(float(b)), "nan", "nan",
                         _fmt(base.n_experiments)) for b in betas)
            continue
        for b in betas:
            rows.append((
                _fmt(float(v_est)),
                _fmt(float(b)),
                _fmt(stats.sigma_fracs[b]),
                _fmt(stats.violation_counts[b]),
                _fmt(stats.n_experiments),
            ))
    out = Path(args.out)
    config = {
        "phase_true": args.phase_true,
        "v_true": args.v_true,
        "v_est": v_est_values,
        "shots": args.shots,
        "experiments": args.experiments,
        "beta": list(betas),
        "domain": {"lower": domain.lower, "upper": domain.upper},
        "grid_points": domain.grid_points,
        "sigma_window": args.sigma_window,
        "violation_rule": args.violation_rule,
        "window_scale": args.window_scale,
    }
    _emit(out, ("v_est", "beta", "sigma_frac", "n_violations", "n_experiments"),
          rows, _manifest("simulate", args.seed, config, [out.name]))
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
    rows = []
    for phase, *cells in zip(phases, infos.T.tolist(), bounds.T.tolist(), rescaled.T.tolist()):
        rows.extend(
            (_fmt(float(phase)), _fmt(float(b)), _fmt(a), _fmt(f), _fmt(bound), _fmt(r))
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
          rows, _manifest("bounds", None, config, [out.name]))
    return EXIT_OK


def cmd_analyze(args) -> int:
    domain = parse_domain(args.domain, args.grid_points)
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
    # int64 counts: report_counts sums each row's shots before the conversion to float
    counts = np.array([r.counts for r in records], dtype=np.int64).reshape(-1, 4)
    # one report per v_est, so that each log-likelihood table is built once;
    # infeasible rows come back as nan, which formats as "nan"
    params = [ModelParams(v_est) for v_est in v_est_values]
    columns = _map_in_order(partial(report_counts, counts, domain=domain, betas=betas), params)
    # each (records, v_est, ...)
    feasible, estimates, deltas, kappas, ratios = (np.stack(c, axis=1) for c in zip(*columns))
    rows = []
    for ir, record in enumerate(records):
        label = _fmt(float(fold_phase(record.phase_label, domain) if args.fold
                           else record.phase_label))
        for iv, v_est in enumerate(v_est_values):
            phi_hat = _fmt(float(estimates[ir, iv]))
            rows.extend(
                (label, _fmt(float(v_est)), _fmt(b), phi_hat, _fmt(d), _fmt(k), _fmt(g))
                for b, d, k, g in zip(betas, deltas[ir, iv].tolist(), kappas[ir, iv].tolist(),
                                      ratios[ir, iv].tolist())
            )
    out = Path(args.out)
    config = {
        "counts": str(args.counts),
        "v_est": v_est_values,
        "beta": list(betas),
        "domain": {"lower": domain.lower, "upper": domain.upper},
        "grid_points": domain.grid_points,
        "fold": bool(args.fold),
    }
    _emit(out, ("phase_label", "v_est", "beta", "phi_hat", "delta_beta", "kappa_beta", "gauss_ratio"),
          rows, _manifest("analyze", None, config, [out.name]))
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
        parser.add_argument("--grid-points", type=int, default=4096,
                            help="posterior grid resolution (default 4096)")
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
