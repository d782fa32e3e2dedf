#!/usr/bin/env python3
"""Sweep the proposition suite over seeds and norm exponents.

The single-run `slicefock verify` command certifies one (seed, p) cell; this
script repeats the run over a grid of cells and prints one table per cell
plus a final worst-case summary per proposition, so a change that only
breaks an unusual exponent or an unlucky corpus still surfaces.

Example:

    python3 scripts/run_verification.py --seeds 0,1,2 --p 2.0,3.0
"""

import argparse
import math
import sys
import time

from slicefock import FockParams, GridTooCoarse
from slicefock.cli import _parse_values
from slicefock.verify import format_text, run_verify


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                     allow_abbrev=False)
    parser.add_argument("--seeds", default="0,1,2",
                        help="comma separated corpus seeds (default 0,1,2)")
    parser.add_argument("--p", default="2.0,3.0",
                        help="comma separated norm exponents (default 2.0,3.0)")
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--sphere", type=int, default=16,
                        help="imaginary units per run (default 16; the "
                             "acceptance gate uses 64)")
    parser.add_argument("--props", default=None,
                        help="comma separated proposition subset (default all)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        seeds = _parse_values(args.seeds, "--seeds", int)
        exponents = _parse_values(args.p, "--p", float)
        for p in exponents:             # refused before any cell runs
            FockParams(alpha=args.alpha, p=p)
            if not math.isfinite(p):
                raise ValueError(f"verify needs a finite p, got {p!r}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    worst: dict[str, float] = {}
    all_passed = True
    for seed in seeds:
        for p in exponents:
            start = time.monotonic()
            try:
                results = run_verify(seed=seed, props=args.props,
                                     alpha=args.alpha, p=p,
                                     sphere_count=args.sphere)
            except ValueError as exc:       # an empty or unknown --props, a bad --sphere
                print(f"error: {exc}", file=sys.stderr)
                return 2
            except GridTooCoarse as exc:    # exit 1 is a failed cell
                print(f"error: {exc}", file=sys.stderr)
                return 3
            elapsed = time.monotonic() - start
            print(f"== seed={seed} p={p} alpha={args.alpha} "
                  f"({elapsed:.1f} s) ==")
            print(format_text(results))
            print()
            for r in results:
                ratio = r.worst / r.bound if r.bound else r.worst
                worst[r.name] = max(worst.get(r.name, 0.0), ratio)
                all_passed = all_passed and r.passed

    print("== worst observed margin (worst/bound, over all cells) ==")
    for name in sorted(worst):
        print(f"{name:<18} {worst[name]:.3e}")
    print("all cells passed" if all_passed else "SOME CELLS FAILED")
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
