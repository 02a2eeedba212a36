"""Command-line driver emitting machine-readable diagnostic tables.

Subcommands
    simulate   violation fractions Sigma_beta over a v_est sweep (CSV)
    bounds     f_alpha and the order-beta lower bounds over phases (CSV)
    analyze    per-row moments, kappa ratios and Gaussianity for a counts CSV

`analyze` calls the library's analysis routine, `gcrb.bayes.report_counts`,
once per v_est on the whole counts table.  `simulate` calls
`gcrb.montecarlo.run_campaign` once per v_est, which flags that routine's
report of the campaign's tallies, and writes per order the column sum of the
report's flags (n_violations) and their column mean Sigma_beta (sigma_frac).
`bounds` computes every f_alpha from one `generalized_fisher` call and the
bounds from the resulting arrays (`gcrb.fisher.order_bound`).

`simulate` and `analyze` validate every v_est value, then share the values
between this process and forked children (`_map_in_order`): n processes, one
per CPU in the affinity mask and at most one per value, where process w takes
every n-th value from the w-th.  This process computes its own share and
forks one child for each other share.  `simulate` draws the campaign's
tallies, and `analyze` reads its counts, once before the fork, and each
value's task takes that one table as an argument.  Every process formats its
own rows as finished CSV lines, and each child sends its lines back pickled
over a pipe.  The parent puts them in order, (row, v_est) for `analyze` and
value order for `simulate`, and writes the warnings in the same order.  A
child's exception is raised in the parent; a child that dies without a result
is an error naming its exit status, and a failure in the parent's share kills
the children.  Either way no child outlives the call and no output is
written.  The output bytes do not depend on the process count, and one CPU
(``taskset -c 0``) runs the values in-process.  On Python >= 3.12 the fork
may emit a DeprecationWarning, because OpenBLAS threads make the process
multi-threaded.

`simulate` writes nan in a row whose Sigma_beta is undefined, every row of
a v_est without Fisher information at phase_true and the row of an order
whose bound, window or Gaussian centre leaves float range, and warns of
each such row on stderr.

Every output CSV is streamed line by line into a temporary file that then
replaces the output atomically, and is accompanied by
``<out>.manifest.json`` recording the command, the fully resolved
configuration, the seed and the tool version (`_emit`).  The configuration
is the parsed options themselves, ``vars(args)`` but the command, the output
and the seed, with the values a command resolves (the v_est list, the
orders, the phases, the domain as ``{lower, upper}``) in place of their
specs, so an option added to the parser is recorded without more code.
Reruns with the same manifest reproduce the output byte for byte.

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
from dataclasses import asdict, replace
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .bayes import DEFAULT_BETAS, DEFAULT_DOMAIN, PhaseDomain, report_counts
from .errors import EstimationError
from .fisher import conjugate_exponent, generalized_fisher, order_bound, per_order
from .ingest import fold_phase, parse_counts
from .model import MODEL_NAME, ModelParams
from .montecarlo import (VIOLATION_RULES, WINDOW_SCALES, CampaignConfig, campaign_tallies,
                         run_campaign)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

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


def _emit(args, header: tuple[str, ...], lines, **resolved) -> None:
    """Stream the header and the CSV lines to args.out, then write its
    manifest, whose configuration is every parsed option but the command,
    the output and the seed, each one given in resolved taking its resolved
    value in place of its spec."""
    out = Path(args.out)
    _write_atomic(out, chain([",".join(header)], lines))
    options = vars(args)
    config = {key: value for key, value in options.items()
              if key not in ("command", "func", "out", "seed")}
    manifest = {
        "command": args.command,
        "config": {**config, **resolved},
        "model": MODEL_NAME,
        "outputs": [out.name],
        "seed": options.get("seed"),
        "version": __version__,
    }
    _write_atomic(out.with_name(out.name + ".manifest.json"),
                  [json.dumps(manifest, indent=2, sort_keys=True)])


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


def _campaign_lines(counts: np.ndarray, config: CampaignConfig) -> tuple[list[str], str]:
    """The warnings of the campaign on counts, and its CSV lines joined by
    newlines.  A row whose Sigma_beta is undefined, at every order where
    phase_true has no Fisher information and at an order whose reference
    leaves float range (the campaign's ``defined`` mask), carries nan and
    has a warning, and the sweep goes on."""
    v_est, n, phase = config.v_est, config.n_experiments, config.phase_true
    table = run_campaign(config, counts)
    defined, sums = table.defined.tolist(), table.flags.sum(axis=0).tolist()
    cells = [f"{c / n!r},{c}" if ok else "nan,nan" for ok, c in zip(defined, sums)]
    return ([f"v_est={v_est!r} beta={b!r}: zero Fisher information, or a bound, window "
             f"or Gaussian centre out of float range, at phase_true={phase!r}; its "
             f"sigma_beta row is nan"
             for b, ok in zip(config.beta_list, defined) if not ok],
            "\n".join(f"{v_est!r},{b!r},{cell},{n}" for b, cell in zip(config.beta_list, cells)))


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
    # drawn once, before the fork: a tally does not depend on v_est
    counts = campaign_tallies(base)
    results = _map_in_order(partial(_campaign_lines, counts), configs)
    _emit(args, ("v_est", "beta", "sigma_frac", "n_violations", "n_experiments"),
          (lines for _, lines in results), v_est=v_est_values, beta=betas, domain=asdict(domain))
    for warnings, _ in results:
        for warning in warnings:
            print(f"warning: {warning}", file=sys.stderr)
    return EXIT_OK


def cmd_bounds(args) -> int:
    # tuples keep the arguments of generalized_fisher hashable for
    # perfbench/tracer.py, which records them
    phases = tuple(parse_value_list(args.phase))
    betas = tuple(parse_value_list(args.beta))
    params = ModelParams(args.v_est)
    alphas = tuple(conjugate_exponent(betas).tolist())
    # f_alpha for every (order, phase) from one model evaluation, and the
    # bounds from it, each (orders, phases); a vanishing f_alpha gives inf
    infos = generalized_fisher(alphas, phases, params)
    bounds = order_bound(np.array(betas)[:, np.newaxis], infos, args.shots)
    with np.errstate(divide="ignore"):
        rescaled = per_order(lambda a, f: f ** (-1.0 / a), np.array(alphas)[:, np.newaxis], infos)
    lines = (
        f"{phase!r},{b!r},{a!r},{f!r},{bound!r},{r!r}"
        for phase, *cells in zip(phases, infos.T.tolist(), bounds.T.tolist(), rescaled.T.tolist())
        for b, a, f, bound, r in zip(betas, alphas, *cells)
    )
    _emit(args, ("phase", "beta", "alpha", "f_alpha", "bound_delta_beta", "bound_rescaled"),
          lines, phase=phases, beta=betas)
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
        table = parse_counts(args.counts)
    except OSError as exc:
        print(f"gcrb: data error: cannot read counts file: {exc}", file=sys.stderr)
        return EXIT_DATA
    except UnicodeDecodeError as exc:
        print(f"gcrb: data error: counts file {args.counts!r} is not UTF-8 text: {exc}",
              file=sys.stderr)
        return EXIT_DATA
    # cells are formatted with repr, the full round-trip decimal form of a
    # Python float, which no locale changes
    phases = fold_phase(table.phase_label, domain) if args.fold else table.phase_label
    labels = [repr(phase) for phase in phases.tolist()]
    # every v_est is validated here, before the first fork
    params = [ModelParams(v_est) for v_est in v_est_values]
    # one report_counts call per v_est on the whole table
    results = _map_in_order(partial(_report_lines, table.counts, labels, betas, domain), params)
    # each (row, v_est)
    feasible = np.stack([f for f, _ in results], axis=1)
    # one string per (row, v_est), in that order
    lines = chain.from_iterable(zip(*(value_lines for _, value_lines in results)))
    _emit(args, ("phase_label", "v_est", "beta", "phi_hat", "delta_beta", "kappa_beta", "gauss_ratio"),
          lines, v_est=v_est_values, beta=betas, domain=asdict(domain))
    # the file's label as a Python float: numpy 2 writes np.float64(0.3)
    for ir, iv in zip(*np.nonzero(~feasible)):
        print(f"warning: infeasible row flagged: phase_rad={float(table.phase_label[ir])!r} "
              f"v_est={v_est_values[iv]!r}", file=sys.stderr)
    return EXIT_OK


def _add_common(parser, *, with_domain=True):
    parser.add_argument("--beta", action="append", default=None,
                        help="moment order(s), repeatable or comma list (default 1.5,2,3,4)")
    if with_domain:
        parser.add_argument("--domain", default=f"{DEFAULT_DOMAIN.lower!r}:{DEFAULT_DOMAIN.upper!r}",
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
    bnd.add_argument("--phase-true", action="append", default=None, dest="phase",
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
    if args.command == "bounds" and args.phase is None:
        args.phase = [str(DEFAULT_PHASE)]
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
