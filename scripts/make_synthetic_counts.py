#!/usr/bin/env python3
"""Generate a synthetic coincidence-count CSV for the analyze pathway.

Counts are drawn from the four-setting model at a fixed true visibility, one
row per requested phase, mimicking a measured acquisition series.  Phases
outside the analysis domain can be folded at generation time so the analysis
is self-consistent.
"""

import argparse
import sys
from pathlib import Path

from gcrb.bayes import DEFAULT_DOMAIN
from gcrb.ingest import CountsRecord, fold_phase, write_counts
from gcrb.montecarlo import experiment_rng, sample_tally


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("results/synthetic_counts.csv"))
    parser.add_argument("--phase", type=float, action="append", required=True,
                        help="nominal phase in radians, repeatable")
    parser.add_argument("--v-true", type=float, default=0.96)
    parser.add_argument("--shots", type=int, default=10000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--fold", action="store_true",
                        help="fold phases into the default domain before sampling")
    args = parser.parse_args()

    records = []
    for i, phase in enumerate(args.phase):
        target = fold_phase(phase, DEFAULT_DOMAIN) if args.fold else phase
        rng = experiment_rng(args.seed, i)
        tally = sample_tally(target, args.v_true, args.shots, rng)
        records.append(CountsRecord(phase_label=phase, counts=tally,
                                    acquisition_id=f"synthetic-{i:04d}"))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    write_counts(records, args.out)
    print(f"wrote {args.out} ({len(records)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
