#!/usr/bin/env python3
"""Tabulate weighted norms of the monomials q^n across alpha and p.

Emits a CSV table (stdout or --output) with one row per (n, alpha, p):
the slice p-norm on C_i, the ball norm from the sampled sphere, their
ratio, and the weighted sup norm.  At p = 2 the squared slice norm of q^n
is n! P(n+1, alpha R^2)/(pi alpha^n), P the regularized lower incomplete
gamma function, so it approaches n!/(pi alpha^n) as R -> infinity
(1/(0.5 pi) = 0.63662 at n = 1, alpha = 0.5, R = 30).  p = 2 takes that
closed form and builds no grid, so only at p != 2 does the table double as
a quick sanity read on quadrature behaviour as alpha grows; plot it
externally if a picture is wanted.

Example:

    python3 scripts/norm_sweep.py --degrees 0,1,2,4 --alphas 0.5,1,2 --p 2,3
"""

import argparse
import sys

from slicefock import (UNIT_I, FockParams, GridTooCoarse, Quaternion,
                       SliceSeries, default_sphere, fock_norm_p, slice_norm_p,
                       sup_norm)


def monomial(n: int) -> SliceSeries:
    return SliceSeries((Quaternion(0.0),) * n + (Quaternion(1.0),))


def parse_values(text: str, flag: str, kind) -> list:
    """The comma separated values of a flag; none, or one that kind()
    refuses, raises ValueError."""
    try:
        values = [kind(s) for s in text.split(",") if s]
    except ValueError:
        raise ValueError(f"{flag} expects comma separated {kind.__name__} "
                         f"values, got {text!r}") from None
    if not values:
        raise ValueError(f"{flag} names no value")
    return values


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                     allow_abbrev=False)
    parser.add_argument("--degrees", default="0,1,2,3,4")
    parser.add_argument("--alphas", default="0.5,1.0,2.0")
    parser.add_argument("--p", default="2.0,3.0")
    parser.add_argument("--radius", type=float, default=1.0)
    parser.add_argument("--sphere", type=int, default=8)
    parser.add_argument("--output", default=None,
                        help="CSV file to write (default stdout)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        degrees = parse_values(args.degrees, "--degrees", int)
        alphas = parse_values(args.alphas, "--alphas", float)
        exponents = parse_values(args.p, "--p", float)
        if min(degrees) < 0:
            raise ValueError(f"--degrees must be nonnegative, got {args.degrees!r}")
        for alpha in alphas:            # refused before any row is computed
            for p in exponents:
                FockParams(alpha=alpha, p=p, radius=args.radius)
        sphere = default_sphere(args.sphere)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    lines = ["n,alpha,p,slice_norm,ball_norm,ball_over_slice,sup_norm"]
    try:
        for n in degrees:
            f = monomial(n)
            for alpha in alphas:
                sup_params = FockParams(alpha=alpha, p=2.0, radius=args.radius)
                sup = sup_norm(f, sup_params, sphere).value
                for p in exponents:
                    params = FockParams(alpha=alpha, p=p, radius=args.radius)
                    on_slice = slice_norm_p(f, UNIT_I, params)
                    ball = fock_norm_p(f, params, sphere=sphere).value
                    lines.append(f"{n},{alpha!r},{p!r},{on_slice!r},{ball!r},"
                                 f"{ball / on_slice!r},{sup!r}")
    except GridTooCoarse as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {len(lines) - 1} rows to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
