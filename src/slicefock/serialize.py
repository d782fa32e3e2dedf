"""JSON codecs for the on-disk formats.

Function files:   {"n": 1, "radius": 1.0, "coeffs": [[w, x, y, z], ...]}
Multi-variable:   {"n": k, "monomials": [{"m": [m1, ...], "a": [w, x, y, z]}]}
Synthesis data:   {"alpha": a, "N": n, "slice": [x, y, z],
                   "points": [[w, x, y, z], ...], "coeffs": [[w, x, y, z], ...]}
Norm reports:     {"value": v, "per_slice": [[[x, y, z], v], ...],
                   "grid": {...}}

Floats go through repr, so emitted files reload to bit-identical values.
Loaders raise ValueError on malformed input with the offending field named;
NaN, Infinity and true/false are not accepted as numbers.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .fock import NormReport
from .kernels import AtomicData
from .quaternion import ImaginaryUnit, Quaternion
from .series import MultiMonomial, MultiPolynomial, SliceSeries

__all__ = [
    "quaternion_to_list", "quaternion_from_list",
    "unit_to_list", "unit_from_list",
    "function_to_dict", "function_from_dict",
    "load_function", "save_function",
    "atomic_to_dict", "atomic_from_dict", "load_atomic",
    "norm_report_to_dict",
    "dumps_canonical",
]


def quaternion_to_list(q: Quaternion) -> list[float]:
    return [q.w, q.x, q.y, q.z]


def _is_number(value: Any) -> bool:
    """A finite JSON number; true and false are ints to Python, not numbers here."""
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:       # an integer too large for a float
        return False


def _is_integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _numbers(data: Any, count: int) -> bool:
    return (isinstance(data, (list, tuple)) and len(data) == count
            and all(_is_number(v) for v in data))


def quaternion_from_list(data: Any, context: str = "quaternion") -> Quaternion:
    if not _numbers(data, 4):
        raise ValueError(f"{context} must be a list of four finite numbers, got {data!r}")
    return Quaternion(*data)


def unit_to_list(u: ImaginaryUnit) -> list[float]:
    return [u.x, u.y, u.z]


def unit_from_list(data: Any, context: str = "unit") -> ImaginaryUnit:
    if not _numbers(data, 3):
        raise ValueError(f"{context} must be a list of three finite numbers, got {data!r}")
    try:
        return ImaginaryUnit(*data)
    except ValueError as exc:
        raise ValueError(f"{context}: {exc}") from exc


def function_to_dict(f: SliceSeries | MultiPolynomial) -> dict:
    if isinstance(f, SliceSeries):
        return {"n": 1, "radius": f.nominal_radius,
                "coeffs": [quaternion_to_list(a) for a in f.coeffs]}
    if isinstance(f, MultiPolynomial):
        return {"n": f.n,
                "monomials": [{"m": list(m.multi_index),
                               "a": quaternion_to_list(m.coeff)}
                              for m in f.monomials]}
    raise ValueError(f"cannot serialize {type(f).__name__} as a function file")


def function_from_dict(data: Any) -> SliceSeries | MultiPolynomial:
    if not isinstance(data, dict):
        raise ValueError("function file must be a JSON object")
    n = data.get("n")
    if not _is_integer(n) or n < 1:
        raise ValueError(f"field 'n' must be a positive integer, got {n!r}")
    if n == 1:
        coeffs = data.get("coeffs")
        if not isinstance(coeffs, list) or not coeffs:
            raise ValueError("field 'coeffs' must be a nonempty list")
        radius = data.get("radius", 1.0)
        if not _is_number(radius) or not radius > 0:
            raise ValueError(f"field 'radius' must be positive, got {radius!r}")
        qs = tuple(quaternion_from_list(c, f"coeffs[{i}]")
                   for i, c in enumerate(coeffs))
        return SliceSeries(qs, float(radius))
    monomials = data.get("monomials")
    if not isinstance(monomials, list):
        raise ValueError("field 'monomials' must be a list")
    monos = []
    for i, entry in enumerate(monomials):
        if not isinstance(entry, dict) or "m" not in entry or "a" not in entry:
            raise ValueError(f"monomials[{i}] must be an object with 'm' and 'a'")
        m = entry["m"]
        if (not isinstance(m, list) or len(m) != n
                or not all(_is_integer(v) and v >= 0 for v in m)):
            raise ValueError(f"monomials[{i}].m must be {n} nonnegative integers")
        monos.append(MultiMonomial(tuple(m),
                                   quaternion_from_list(entry["a"],
                                                        f"monomials[{i}].a")))
    return MultiPolynomial(n, tuple(monos))


def _load_json(path: str) -> Any:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def load_function(path: str) -> SliceSeries | MultiPolynomial:
    return function_from_dict(_load_json(path))


def save_function(f: SliceSeries | MultiPolynomial, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(function_to_dict(f)))
        fh.write("\n")


def atomic_to_dict(data: AtomicData, unit: ImaginaryUnit) -> dict:
    return {"alpha": data.alpha, "N": data.trunc_degree,
            "slice": unit_to_list(unit),
            "points": [quaternion_to_list(p) for p in data.points],
            "coeffs": [quaternion_to_list(c) for c in data.coeffs]}


def atomic_from_dict(data: Any) -> tuple[AtomicData, ImaginaryUnit]:
    if not isinstance(data, dict):
        raise ValueError("synthesis file must be a JSON object")
    alpha = data.get("alpha")
    if not _is_number(alpha) or not alpha > 0:
        raise ValueError(f"field 'alpha' must be positive, got {alpha!r}")
    degree = data.get("N")
    if not _is_integer(degree) or degree < 0:
        raise ValueError(f"field 'N' must be a nonnegative integer, got {degree!r}")
    unit = unit_from_list(data.get("slice"), "slice")
    points = data.get("points")
    coeffs = data.get("coeffs")
    if not isinstance(points, list) or not isinstance(coeffs, list):
        raise ValueError("fields 'points' and 'coeffs' must be lists")
    ps = tuple(quaternion_from_list(p, f"points[{i}]") for i, p in enumerate(points))
    cs = tuple(quaternion_from_list(c, f"coeffs[{i}]") for i, c in enumerate(coeffs))
    return AtomicData(ps, cs, float(alpha), degree), unit


def load_atomic(path: str) -> tuple[AtomicData, ImaginaryUnit]:
    return atomic_from_dict(_load_json(path))


def norm_report_to_dict(report: NormReport) -> dict:
    return {"value": report.value,
            "per_slice": [[unit_to_list(u), v] for u, v in report.per_slice],
            "grid": dict(report.grid_spec)}


def dumps_canonical(obj: Any) -> str:
    """Deterministic JSON: sorted keys, fixed separators, repr floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
