#!/usr/bin/env python3
"""Run the three-phase visibility sweep and write one CSV per phase.

For each true phase in {pi/8, 3pi/16, pi/4} this sweeps the assumed
visibility over [0.90, 1.00] and records the violation fractions Sigma_beta
(400 experiments of 2000 shots each, v_true = 0.95).  It takes about
0.4-0.5 s on a 2-core Xeon VM.
"""

import argparse
import math
import sys
from pathlib import Path

from gcrb.cli import main as gcrb_main

PHASES = {
    "phi_pi8": math.pi / 8.0,
    "phi_3pi16": 3.0 * math.pi / 16.0,
    "phi_pi4": math.pi / 4.0,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("results"))
    parser.add_argument("--experiments", type=int, default=400)
    parser.add_argument("--shots", type=int, default=2000)
    parser.add_argument("--v-true", type=float, default=0.95)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for name, phase in PHASES.items():
        out = args.out_dir / f"sweep_{name}.csv"
        code = gcrb_main([
            "simulate",
            "--phase-true", repr(phase),
            "--v-true", repr(args.v_true),
            "--shots", str(args.shots),
            "--experiments", str(args.experiments),
            "--seed", str(args.seed),
            "--out", str(out),
        ])
        if code != 0:
            return code
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
