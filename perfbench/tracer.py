"""Run one gcrb CLI invocation with spans around each layer's entry points.

    python3 perfbench/tracer.py SPANS_OUT gcrb-arguments...

The entry points are wrapped where their callers look them up (for example
`gcrb.cli.posterior` and `gcrb.montecarlo.posterior`), so gcrb itself is
unchanged.  Spans (name, start, end, parent) are kept in memory and written
to SPANS_OUT as an .npz archive when the CLI returns, together with a few
counts taken at the same boundaries.  Span 0, named `other`, covers the whole
run from this module's first statement; its self time is the part no layer
span covers.  The exit code is the CLI's.
"""

import time

_T0 = time.perf_counter()

import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

# (module, attribute, span name); attributes a later gcrb lacks are skipped
# and reported, so the benchmark keeps running across refactors
ENTRY_POINTS = (
    ("gcrb.cli", "cmd_simulate", "cli.cmd"),
    ("gcrb.cli", "cmd_bounds", "cli.cmd"),
    ("gcrb.cli", "cmd_analyze", "cli.cmd"),
    ("gcrb.cli", "parse_counts", "ingest.parse_counts"),
    ("gcrb.cli", "violation_fractions", "montecarlo.violation_fractions"),
    ("gcrb.montecarlo", "run_experiment", "montecarlo.run_experiment"),
    ("gcrb.montecarlo", "experiment_rng", "montecarlo.experiment_rng"),
    ("gcrb.montecarlo", "sample_tally", "montecarlo.sample_tally"),
    ("gcrb.cli", "posterior", "bayes.posterior"),
    ("gcrb.montecarlo", "posterior", "bayes.posterior"),
    ("gcrb.cli", "moment_set", "bayes.moment_set"),
    ("gcrb.montecarlo", "moment_set", "bayes.moment_set"),
    ("gcrb.model.Noon2Model", "log_prob_grid", "model.log_prob_grid"),
    ("gcrb.cli", "crb_bound", "fisher.crb_bound"),
    ("gcrb.montecarlo", "crb_bound", "fisher.crb_bound"),
    ("gcrb.cli", "generalized_fisher", "fisher.generalized_fisher"),
    ("gcrb.fisher", "generalized_fisher", "fisher.generalized_fisher"),
)


class Tracer:
    """Spans in flat lists; span 0 is the root, open from `start`."""

    def __init__(self, start: float) -> None:
        self.names = ["other"]
        self.name_id = [0]
        self.start = [start]
        self.end = [0.0]
        self.parent = [-1]
        self.stack = [0]
        self.counts = {
            "experiments_infeasible": 0,
            "grid_nodes": 0,
            "ingest_rows": 0,
            "fisher_distinct_args": 0,
        }
        self.fisher_args = set()
        self.missing = []

    def wrap(self, fn, name: str, observe=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_id, start, end, parent, stack = self.name_id, self.start, self.end, self.parent, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        traced.__traced__ = True
        return traced

    def install(self) -> None:
        observers = {
            "montecarlo.run_experiment": self._on_experiment,
            "bayes.posterior": self._on_posterior,
            "ingest.parse_counts": self._on_parse,
            "fisher.generalized_fisher": self._on_fisher,
        }
        wrapped = {}
        for module_name, attr, span in ENTRY_POINTS:
            owner = _resolve(module_name)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if getattr(fn, "__traced__", False):
                continue
            if (id(fn), span) not in wrapped:
                wrapped[(id(fn), span)] = self.wrap(fn, span, observers.get(span))
            setattr(owner, attr, wrapped[(id(fn), span)])

    def _on_experiment(self, args, record) -> None:
        self.counts["experiments_infeasible"] += bool(getattr(record, "infeasible", False))

    def _on_posterior(self, args, post) -> None:
        self.counts["grid_nodes"] += int(np.size(getattr(post, "densities", ())))

    def _on_parse(self, args, records) -> None:
        self.counts["ingest_rows"] += len(records)

    def _on_fisher(self, args, result) -> None:
        # callers pass (alpha, phase, params) positionally
        key = (args[0], args[1], getattr(args[2], "visibility", None)) if len(args) >= 3 else None
        self.fisher_args.add(key)

    def dump(self, path: str, exit_code: int) -> None:
        self.end[0] = time.perf_counter()
        self.counts["fisher_distinct_args"] = len(self.fisher_args)
        meta = {"names": self.names, "counts": self.counts, "missing": self.missing,
                "exit_code": exit_code}
        np.savez(
            path,
            name_id=np.asarray(self.name_id, dtype=np.int32),
            start=np.asarray(self.start, dtype=np.float64),
            end=np.asarray(self.end, dtype=np.float64),
            parent=np.asarray(self.parent, dtype=np.int32),
            meta=np.asarray(json.dumps(meta)),
        )


def _resolve(dotted: str):
    """Import a module, or a class inside one (`package.module.Class`)."""
    try:
        return importlib.import_module(dotted)
    except ImportError:
        module_name, _, attr = dotted.rpartition(".")
        try:
            return getattr(importlib.import_module(module_name), attr, None)
        except ImportError:
            return None


def main(argv: list[str]) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    tracer = Tracer(_T0)
    import gcrb.cli

    tracer.install()
    code = gcrb.cli.main(cli_args)
    tracer.dump(spans_out, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
