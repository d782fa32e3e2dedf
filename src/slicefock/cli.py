"""Command line interface.

Subcommands:

    eval      evaluate a stored function at a point, with a one-slice
              reconstruction cross-check and optional truncation tail bound
    norm      weighted p-norm (quadrature) or weighted sup norm (--p inf)
    verify    run the proposition suite on the seeded corpus
    kernel    truncated exponential kernel value and tail bound
    synth     build a function from kernel atoms and store it
    profile   boundary decay profile M(rho) and the vanishing verdict

Each subcommand returns its result in every output format; main alone writes
the one --out asks for and maps errors to exit codes.  Exit codes: 0 success,
1 a verified proposition failed, 2 bad input, 3 a computed value is not
finite (nothing is written then, not even synth's file) or quadrature failed
to stabilize at the resolution cap.  Output carries no timing or environment
data, so a command line is reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import partial
from typing import Callable, NamedTuple

from . import fock, kernels, serialize, verify
from .errors import GridTooCoarse, SliceFockError
from .quadrature import DEFAULT_ANGULAR, DEFAULT_RADIAL, QuadratureGrid
from .quaternion import ImaginaryUnit, Quaternion, default_sphere
from .series import MultiPolynomial, rep_eval, tail_bound, truncate

__all__ = ["main", "build_parser"]


def _parse_quaternion(text: str, flag: str) -> Quaternion:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"{flag} expects 'w,x,y,z', got {text!r}")
    try:
        values = [float(v) for v in parts]
    except ValueError as exc:
        raise ValueError(f"{flag} expects four numbers, got {text!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{flag} expects four finite numbers, got {text!r}")
    return Quaternion(*values)


def _parse_unit(text: str, flag: str) -> ImaginaryUnit:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"{flag} expects 'x,y,z', got {text!r}")
    try:
        x, y, z = (float(v) for v in parts)
    except ValueError as exc:
        raise ValueError(f"{flag} expects three numbers, got {text!r}") from exc
    if not all(math.isfinite(v) for v in (x, y, z)):
        raise ValueError(f"{flag} expects three finite numbers, got {text!r}")
    norm = math.sqrt(x * x + y * y + z * z)
    if norm < 1e-6:
        raise ValueError(f"{flag} must be a nonzero direction, got {text!r}")
    return ImaginaryUnit(x / norm, y / norm, z / norm)


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise ValueError(f"{flag} expects comma separated numbers, got {text!r}") from exc


def _parse_p(text: str) -> float:
    if text.lower() in ("inf", "infinity"):
        return math.inf
    try:
        return float(text)
    except ValueError as exc:
        raise ValueError(f"--p expects a number or 'inf', got {text!r}") from exc


def _shown(value) -> str:
    """A float as its repr, a Quaternion as [w, x, y, z] of reprs."""
    if isinstance(value, Quaternion):
        return f"[{value.w!r}, {value.x!r}, {value.y!r}, {value.z!r}]"
    return repr(value)


def _spaced(q: Quaternion) -> str:
    return " ".join(map(repr, serialize.quaternion_to_list(q)))


class _NotFinite(Exception):
    """A computed value is not finite; main refuses it with exit code 3."""


class _Result(NamedTuple):
    """A subcommand's result: one maker per output format, and the exit code.

    main calls only the maker of the format it writes, so no formatter runs
    for output that is not written.
    """

    json: Callable[[], object]  # the payload main writes as canonical JSON
    csv: Callable[[], str]
    text: Callable[[], str]
    code: int = 0


def _finite(value) -> bool:
    """Whether a float, or every component of a Quaternion, is finite."""
    if isinstance(value, Quaternion):
        return all(map(math.isfinite, serialize.quaternion_to_list(value)))
    return math.isfinite(value)


def _require_finite(*shown) -> None:
    """Raise _NotFinite naming every (label, value) pair unless all are finite."""
    if not all(_finite(value) for _, value in shown):
        raise _NotFinite(", ".join(f"{label} = {_shown(value)}" for label, value in shown))


def _load_series(path: str, refusal: str):
    f = serialize.load_function(path)
    if isinstance(f, MultiPolynomial):
        raise ValueError(refusal)
    return f


# ---------------------------------------------------------------------------
# subcommands: each returns a _Result, which main writes in the --out format
# ---------------------------------------------------------------------------

def cmd_eval(args) -> _Result:
    f = _load_series(args.function, "eval handles one-variable functions; "
                     "evaluate several-variable polynomials through the library")
    q = _parse_quaternion(args.point, "--point")
    unit = _parse_unit(args.slice_unit, "--slice-unit")
    value = f.eval(q)
    residual = (value - rep_eval(f, unit, q)).modulus()
    _require_finite(("f(q)", value), ("rep-formula residual", residual))
    payload = {"point": serialize.quaternion_to_list(q),
               "value": serialize.quaternion_to_list(value),
               "modulus": value.modulus(),
               "rep_residual": residual,
               "outside_radius": q.modulus() > f.nominal_radius + 1e-12}
    lines = [f"value = {_shown(value)}",
             f"|value| = {value.modulus()!r}",
             f"rep-formula residual = {residual!r}"]
    if args.truncate is not None:
        approx = truncate(f, args.truncate).eval(q)
        bound = tail_bound(f, q.modulus(), args.truncate)
        _require_finite((f"truncated({args.truncate})", approx), ("tail bound", bound))
        payload["truncated"] = serialize.quaternion_to_list(approx)
        payload["tail_bound"] = bound
        lines += [f"truncated({args.truncate}) = {_shown(approx)}",
                  f"tail bound = {bound!r}"]
    if payload["outside_radius"]:
        lines.append("warning: point lies outside the nominal radius")
    return _Result(lambda: payload,
                   lambda: f"point,value,rep_residual\n{_spaced(q)},{_spaced(value)},"
                           f"{residual!r}",
                   lambda: "\n".join(lines))


def cmd_norm(args) -> _Result:
    f = _load_series(args.function, "norm handles one-variable functions; use the "
                     "library for slice suprema in several variables")
    p = _parse_p(args.p)
    params = fock.FockParams(args.alpha, p, radius=args.radius)
    sphere = default_sphere(args.sphere)
    if p == math.inf:
        report = fock.sup_norm(f, params, sphere)
    else:
        # p = 2 is in closed form and reads no grid
        grid = (None if p == 2.0 else
                QuadratureGrid.build(args.radial, args.angular, args.radius))
        report = fock.fock_norm_p(f, params, grid, sphere)
    _require_finite(("norm", report.value))
    shown_p = "inf" if p == math.inf else p
    worst = max(report.per_slice, key=lambda uv: uv[1])[0]
    lines = [f"norm = {report.value!r}",
             f"p = {shown_p} alpha = {args.alpha!r} radius = {args.radius!r}",
             "grid: " + " ".join(f"{k}={v}" for k, v in sorted(report.grid_spec.items())),
             f"worst slice unit = [{worst.x!r}, {worst.y!r}, {worst.z!r}]"]
    return _Result(lambda: {**serialize.norm_report_to_dict(report), "p": shown_p,
                            "alpha": args.alpha, "radius": args.radius},
                   lambda: "function-id,p,alpha,R,value\n" + "\n".join(
                       serialize.norm_report_csv_rows(args.function, p, args.alpha,
                                                      args.radius, report)),
                   lambda: "\n".join(lines))


def cmd_verify(args) -> _Result:
    results = verify.run_verify(seed=args.seed, props=args.props or None,
                                alpha=args.alpha, p=_parse_p(args.p),
                                radius=args.radius, sphere_count=args.sphere,
                                radial=args.radial, angular=args.angular)
    return _Result(partial(verify.results_to_dicts, results),
                   partial(verify.format_csv, results),
                   partial(verify.format_text, results),
                   0 if all(r.passed for r in results) else 1)


def cmd_kernel(args) -> _Result:
    q = _parse_quaternion(args.q, "--q")
    w = _parse_quaternion(args.w, "--w")
    if args.normalized:
        value = kernels.normalized_kernel_eval(w, q, args.alpha, args.trunc)
        tail = kernels.normalized_kernel_tail_bound(w, q, args.alpha, args.trunc)
    else:
        value = kernels.star_exp_eval(q, w, args.alpha, args.trunc)
        tail = kernels.star_exp_tail_bound(q, w, args.alpha, args.trunc)
    _require_finite(("kernel value", value), ("tail bound", tail))
    payload = {"value": serialize.quaternion_to_list(value),
               "tail_bound": tail, "alpha": args.alpha, "N": args.trunc,
               "normalized": bool(args.normalized)}
    return _Result(lambda: payload, lambda: f"value,tail_bound\n{_spaced(value)},{tail!r}",
                   lambda: f"kernel value = {_shown(value)}\ntail bound = {tail!r}")


def cmd_synth(args) -> _Result:
    data, unit = serialize.load_atomic(args.atoms)
    series = kernels.atomic_synthesis(data, unit)
    # refused before the file is written
    _require_finite(*[(f"coefficient {k}", c) for k, c in enumerate(series.coeffs)
                      if not _finite(c)])
    serialize.save_function(series, args.output)
    atoms, degree = len(data.points), series.degree
    return _Result(lambda: {"output": args.output, "degree": degree, "atoms": atoms},
                   lambda: f"output,degree,atoms\n{args.output},{degree},{atoms}",
                   lambda: f"wrote degree {degree} function from {atoms} atoms "
                           f"to {args.output}")


def cmd_profile(args) -> _Result:
    f = _load_series(args.function, "profile handles one-variable functions")
    params = fock.FockParams(args.alpha, 2.0, radius=args.radius)
    rhos = _parse_floats(args.rho, "--rho")
    if not rhos:
        raise ValueError("--rho expects at least one radius")
    report = fock.little_space_profile(f, params, rhos,
                                       angular_count=args.angular,
                                       tolerance=args.tolerance)
    pairs = list(zip(report.rhos, report.values))
    _require_finite(*[(f"M({r!r})", v) for r, v in pairs if not _finite(v)])
    payload = {"rhos": list(report.rhos), "values": list(report.values),
               "decreasing_tail": report.decreasing_tail,
               "member": report.member, "tolerance": report.tolerance}
    lines = [f"rho = {r!r}  M = {v!r}" for r, v in pairs]
    lines.append(f"vanishes at the boundary (tolerance {report.tolerance!r}): "
                 f"{'yes' if report.member else 'no'}")
    return _Result(lambda: payload,
                   lambda: "\n".join(["rho,value"] + [f"{r!r},{v!r}" for r, v in pairs]),
                   lambda: "\n".join(lines))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub, *, with_p=True, with_grid=True, with_sphere=True):
    sub.add_argument("--alpha", type=float, default=1.0,
                     help="Gaussian weight parameter (default 1.0)")
    sub.add_argument("--radius", type=float, default=1.0,
                     help="ball radius R (default 1.0)")
    if with_p:
        sub.add_argument("--p", default="2.0",
                         help="norm exponent, a number or 'inf' (default 2.0)")
    if with_sphere:
        sub.add_argument("--sphere", type=int, default=64,
                         help="imaginary units sampled on the sphere (default 64)")
    if with_grid:
        sub.add_argument("--radial", type=int, default=DEFAULT_RADIAL,
                         help=f"radial quadrature nodes at p != 2 "
                              f"(default {DEFAULT_RADIAL})")
        sub.add_argument("--angular", type=int, default=DEFAULT_ANGULAR,
                         help=f"angular quadrature nodes at p != 2 "
                              f"(default {DEFAULT_ANGULAR})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicefock",
        description="Slice-regular functions with Gaussian-weighted norms "
                    "on the quaternionic unit ball.")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out", choices=("text", "json", "csv"), default="text",
                        help="output format (default text)")
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        sub = subs.add_parser(name, parents=[shared], help=help_text)
        sub.set_defaults(handler=handler)
        return sub

    sub = add("eval", cmd_eval, "evaluate a stored function at a point")
    sub.add_argument("function", help="JSON function file")
    sub.add_argument("--point", required=True, help="quaternion 'w,x,y,z'")
    sub.add_argument("--slice-unit", default="1,0,0",
                     help="unit 'x,y,z' for the reconstruction cross-check "
                          "(default i)")
    sub.add_argument("--truncate", type=int, default=None,
                     help="also evaluate the truncation at this degree with "
                          "a tail bound")

    sub = add("norm", cmd_norm, "weighted p-norm or sup norm of a function")
    sub.add_argument("function", help="JSON function file")
    _add_common(sub)

    sub = add("verify", cmd_verify, "run the proposition suite on the seeded corpus")
    _add_common(sub)
    sub.add_argument("--seed", type=int, default=0,
                     help="corpus seed (default 0)")
    sub.add_argument("--props", default=None,
                     help="comma separated proposition names (default all): "
                          + ",".join(verify.PROPOSITIONS))

    sub = add("kernel", cmd_kernel, "truncated exponential kernel value and tail bound")
    sub.add_argument("--q", required=True, help="evaluation point 'w,x,y,z'")
    sub.add_argument("--w", required=True, help="kernel point 'w,x,y,z'")
    sub.add_argument("--alpha", type=float, default=1.0)
    sub.add_argument("--trunc", type=int, default=32,
                     help="truncation degree N (default 32)")
    sub.add_argument("--normalized", action="store_true",
                     help="multiply by e^{-alpha |w|^2 / 2}")

    sub = add("synth", cmd_synth, "synthesize a function from kernel atoms")
    sub.add_argument("atoms", help="JSON synthesis file")
    sub.add_argument("--output", required=True, help="function file to write")

    sub = add("profile", cmd_profile, "boundary decay profile M(rho)")
    sub.add_argument("function", help="JSON function file")
    _add_common(sub, with_p=False, with_grid=False, with_sphere=False)
    sub.add_argument("--angular", type=int, default=256,
                     help="angular samples per circle (default 256)")
    sub.add_argument("--rho", required=True,
                     help="comma separated radii, strictly increasing in (0, R]")
    sub.add_argument("--tolerance", type=float, default=1e-3,
                     help="membership threshold on M(rho_max) (default 1e-3)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = args.handler(args)
        text = getattr(result, args.out)()
        if args.out == "json":
            text = serialize.dumps_canonical(text)
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return result.code
    except _NotFinite as exc:
        sys.stderr.write(f"error: a value is not finite: {exc}\n")
        return 3
    except GridTooCoarse as exc:
        sys.stderr.write(f"error: {exc}\n")
        for spec, values in exc.trace:
            shown = ", ".join(repr(v) for v in values[:4])
            if len(values) > 4:
                shown += ", ..."
            sys.stderr.write(f"  grid {spec}: [{shown}]\n")
        return 3
    except (SliceFockError, ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
