"""Command line interface.

Subcommands:

    eval      evaluate a stored function at a point, with a one-slice
              reconstruction cross-check and optional truncation tail bound
    norm      weighted p-norm (quadrature) or weighted sup norm (--p inf)
    verify    run the proposition suite on the seeded corpus
    kernel    truncated exponential kernel value and tail bound
    synth     build a function from kernel atoms and store it
    profile   boundary decay profile M(rho) and the vanishing verdict

Exit codes: 0 success, 1 a verified proposition failed, 2 bad input,
3 a computed value is not finite or quadrature failed to stabilize at the
resolution cap.  Output carries no timing or environment data, so a command
line is reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import math
import sys

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


def _quat_str(q: Quaternion) -> str:
    return f"[{q.w!r}, {q.x!r}, {q.y!r}, {q.z!r}]"


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _params_from(args, p: float | None = None) -> fock.FockParams:
    return fock.FockParams(alpha=args.alpha,
                           p=args.p if p is None else p,
                           n=getattr(args, "n", 1),
                           radius=args.radius)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    f = serialize.load_function(args.function)
    if isinstance(f, MultiPolynomial):
        raise ValueError("eval handles one-variable functions; evaluate "
                         "several-variable polynomials through the library")
    q = _parse_quaternion(args.point, "--point")
    unit = _parse_unit(args.slice_unit, "--slice-unit")
    value = f.eval(q)
    reconstructed = rep_eval(f, unit, q)
    residual = (value - reconstructed).modulus()
    if not all(map(math.isfinite, (value.w, value.x, value.y, value.z, residual))):
        sys.stderr.write(f"error: a value is not finite: f(q) = {_quat_str(value)}, "
                         f"rep-formula residual = {residual!r}\n")
        return 3
    outside = q.modulus() > f.nominal_radius + 1e-12
    payload = {"point": serialize.quaternion_to_list(q),
               "value": serialize.quaternion_to_list(value),
               "modulus": value.modulus(),
               "rep_residual": residual,
               "outside_radius": outside}
    extra_lines = []
    if args.truncate is not None:
        approx = truncate(f, args.truncate).eval(q)
        bound = tail_bound(f, q.modulus(), args.truncate)
        if not all(map(math.isfinite, (approx.w, approx.x, approx.y, approx.z,
                                       bound))):
            sys.stderr.write(f"error: a value is not finite: truncated("
                             f"{args.truncate}) = {_quat_str(approx)}, "
                             f"tail bound = {bound!r}\n")
            return 3
        payload["truncated"] = serialize.quaternion_to_list(approx)
        payload["tail_bound"] = bound
        extra_lines.append(f"truncated({args.truncate}) = {_quat_str(approx)}")
        extra_lines.append(f"tail bound = {bound!r}")
    if args.out == "json":
        _emit(serialize.dumps_canonical(payload))
    elif args.out == "csv":
        _emit("point,value,rep_residual\n"
              f"{' '.join(repr(v) for v in payload['point'])},"
              f"{' '.join(repr(v) for v in payload['value'])},{residual!r}")
    else:
        lines = [f"value = {_quat_str(value)}",
                 f"|value| = {value.modulus()!r}",
                 f"rep-formula residual = {residual!r}"]
        lines += extra_lines
        if outside:
            lines.append("warning: point lies outside the nominal radius")
        _emit("\n".join(lines))
    return 0


def cmd_norm(args) -> int:
    f = serialize.load_function(args.function)
    if isinstance(f, MultiPolynomial):
        raise ValueError("norm handles one-variable functions; use the "
                         "library for slice suprema in several variables")
    p = _parse_p(args.p)
    params = _params_from(args, p)
    sphere = default_sphere(args.sphere)
    if p == math.inf:
        report = fock.sup_norm(f, params, sphere)
    else:
        # p = 2 is in closed form and reads no grid
        grid = (None if p == 2.0 else
                QuadratureGrid.build(args.radial, args.angular, args.radius))
        report = fock.fock_norm_p(f, params, grid, sphere)
    if not math.isfinite(report.value):
        sys.stderr.write(f"error: a value is not finite: norm = {report.value!r}\n")
        return 3
    if args.out == "json":
        payload = serialize.norm_report_to_dict(report)
        payload.update({"p": "inf" if p == math.inf else p,
                        "alpha": args.alpha, "radius": args.radius})
        _emit(serialize.dumps_canonical(payload))
    elif args.out == "csv":
        rows = serialize.norm_report_csv_rows(args.function, p, args.alpha,
                                              args.radius, report)
        _emit("\n".join(["function-id,p,alpha,R,value"] + rows))
    else:
        worst = max(report.per_slice, key=lambda uv: uv[1])
        lines = [f"norm = {report.value!r}",
                 f"p = {'inf' if p == math.inf else repr(p)} "
                 f"alpha = {args.alpha!r} radius = {args.radius!r}",
                 "grid: " + " ".join(f"{k}={v}" for k, v
                                     in sorted(report.grid_spec.items())),
                 f"worst slice unit = [{worst[0].x!r}, {worst[0].y!r}, "
                 f"{worst[0].z!r}]"]
        _emit("\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    props = args.props if args.props else None
    results = verify.run_verify(seed=args.seed, props=props, alpha=args.alpha,
                                p=_parse_p(args.p), radius=args.radius,
                                sphere_count=args.sphere, radial=args.radial,
                                angular=args.angular)
    if args.out == "json":
        _emit(serialize.dumps_canonical(verify.results_to_dicts(results)))
    elif args.out == "csv":
        _emit(verify.format_csv(results))
    else:
        _emit(verify.format_text(results))
    return 0 if all(r.passed for r in results) else 1


def cmd_kernel(args) -> int:
    q = _parse_quaternion(args.q, "--q")
    w = _parse_quaternion(args.w, "--w")
    if args.normalized:
        value = kernels.normalized_kernel_eval(w, q, args.alpha, args.trunc)
        tail = kernels.normalized_kernel_tail_bound(w, q, args.alpha, args.trunc)
    else:
        value = kernels.star_exp_eval(q, w, args.alpha, args.trunc)
        tail = kernels.star_exp_tail_bound(q, w, args.alpha, args.trunc)
    if not all(map(math.isfinite, (value.w, value.x, value.y, value.z, tail))):
        sys.stderr.write(f"error: a value is not finite: kernel value = "
                         f"{_quat_str(value)}, tail bound = {tail!r}\n")
        return 3
    payload = {"value": serialize.quaternion_to_list(value),
               "tail_bound": tail, "alpha": args.alpha, "N": args.trunc,
               "normalized": bool(args.normalized)}
    if args.out == "json":
        _emit(serialize.dumps_canonical(payload))
    elif args.out == "csv":
        _emit("value,tail_bound\n"
              f"{' '.join(repr(v) for v in payload['value'])},{tail!r}")
    else:
        _emit(f"kernel value = {_quat_str(value)}\ntail bound = {tail!r}")
    return 0


def cmd_synth(args) -> int:
    data, unit = serialize.load_atomic(args.atoms)
    series = kernels.atomic_synthesis(data, unit)
    serialize.save_function(series, args.output)
    payload = {"output": args.output, "degree": series.degree,
               "atoms": len(data.points)}
    if args.out == "json":
        _emit(serialize.dumps_canonical(payload))
    elif args.out == "csv":
        _emit("output,degree,atoms\n"
              f"{args.output},{series.degree},{len(data.points)}")
    else:
        _emit(f"wrote degree {series.degree} function from "
              f"{len(data.points)} atoms to {args.output}")
    return 0


def cmd_profile(args) -> int:
    f = serialize.load_function(args.function)
    if isinstance(f, MultiPolynomial):
        raise ValueError("profile handles one-variable functions")
    params = _params_from(args, 2.0)
    rhos = _parse_floats(args.rho, "--rho")
    if not rhos:
        raise ValueError("--rho expects at least one radius")
    report = fock.little_space_profile(f, params, rhos,
                                       angular_count=args.angular,
                                       tolerance=args.tolerance)
    if not all(map(math.isfinite, report.values)):
        shown = ", ".join(f"M({r!r}) = {v!r}"
                          for r, v in zip(report.rhos, report.values)
                          if not math.isfinite(v))
        sys.stderr.write(f"error: a value is not finite: {shown}\n")
        return 3
    if args.out == "json":
        payload = {"rhos": list(report.rhos), "values": list(report.values),
                   "decreasing_tail": report.decreasing_tail,
                   "member": report.member, "tolerance": report.tolerance}
        _emit(serialize.dumps_canonical(payload))
    elif args.out == "csv":
        lines = ["rho,value"]
        lines += [f"{r!r},{v!r}" for r, v in zip(report.rhos, report.values)]
        _emit("\n".join(lines))
    else:
        lines = [f"rho = {r!r}  M = {v!r}"
                 for r, v in zip(report.rhos, report.values)]
        verdict = "yes" if report.member else "no"
        lines.append(f"vanishes at the boundary (tolerance {report.tolerance!r}): "
                     f"{verdict}")
        _emit("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub, *, with_p=True, with_grid=True, with_sphere=True):
    sub.add_argument("--alpha", type=float, default=1.0,
                     help="Gaussian weight parameter (default 1.0)")
    sub.add_argument("--radius", type=float, default=1.0,
                     help="ball radius R (default 1.0)")
    sub.add_argument("--out", choices=("text", "json", "csv"), default="text",
                     help="output format (default text)")
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
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("eval", help="evaluate a stored function at a point")
    sub.add_argument("function", help="JSON function file")
    sub.add_argument("--point", required=True, help="quaternion 'w,x,y,z'")
    sub.add_argument("--slice-unit", default="1,0,0",
                     help="unit 'x,y,z' for the reconstruction cross-check "
                          "(default i)")
    sub.add_argument("--truncate", type=int, default=None,
                     help="also evaluate the truncation at this degree with "
                          "a tail bound")
    sub.add_argument("--out", choices=("text", "json", "csv"), default="text")
    sub.set_defaults(handler=cmd_eval)

    sub = subs.add_parser("norm", help="weighted p-norm or sup norm of a function")
    sub.add_argument("function", help="JSON function file")
    _add_common(sub)
    sub.set_defaults(handler=cmd_norm)

    sub = subs.add_parser("verify",
                          help="run the proposition suite on the seeded corpus")
    _add_common(sub)
    sub.add_argument("--seed", type=int, default=0,
                     help="corpus seed (default 0)")
    sub.add_argument("--props", default=None,
                     help="comma separated proposition names (default all): "
                          + ",".join(verify.PROPOSITIONS))
    sub.set_defaults(handler=cmd_verify)

    sub = subs.add_parser("kernel",
                          help="truncated exponential kernel value and tail bound")
    sub.add_argument("--q", required=True, help="evaluation point 'w,x,y,z'")
    sub.add_argument("--w", required=True, help="kernel point 'w,x,y,z'")
    sub.add_argument("--alpha", type=float, default=1.0)
    sub.add_argument("--trunc", type=int, default=32,
                     help="truncation degree N (default 32)")
    sub.add_argument("--normalized", action="store_true",
                     help="multiply by e^{-alpha |w|^2 / 2}")
    sub.add_argument("--out", choices=("text", "json", "csv"), default="text")
    sub.set_defaults(handler=cmd_kernel)

    sub = subs.add_parser("synth",
                          help="synthesize a function from kernel atoms")
    sub.add_argument("atoms", help="JSON synthesis file")
    sub.add_argument("--output", required=True, help="function file to write")
    sub.add_argument("--out", choices=("text", "json", "csv"), default="text")
    sub.set_defaults(handler=cmd_synth)

    sub = subs.add_parser("profile", help="boundary decay profile M(rho)")
    sub.add_argument("function", help="JSON function file")
    _add_common(sub, with_p=False, with_grid=False, with_sphere=False)
    sub.add_argument("--angular", type=int, default=256,
                     help="angular samples per circle (default 256)")
    sub.add_argument("--rho", required=True,
                     help="comma separated radii, strictly increasing in (0, R]")
    sub.add_argument("--tolerance", type=float, default=1e-3,
                     help="membership threshold on M(rho_max) (default 1e-3)")
    sub.set_defaults(handler=cmd_profile)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
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
