"""Star exponential kernels, normalized kernels and atomic synthesis.

The star exponential in the kernel variable w is

    e_*^{a q wbar} = sum_n q^n a^n wbar^n / n!

with the power of q on the left, the power of wbar in the middle and the
real scalar on the right; the three factors do not commute, so the order is
part of the definition.  Truncation at degree N leaves the explicit tail

    (a |q| |w|)^{N+1} / (N+1)! * e^{a |q| |w|},

and the normalized kernel's tail is that bound times e^{-a |w|^2 / 2}.

When q and w share one slice, the kernel collapses to the complex Gaussian
kernel e^{a z wbar} on that slice.  Atomic synthesis assembles the series

    f = sum_k  w_{z_k} a_k,      w_{z_k}(q) = e_*^{a q zbar_k} e^{-a |z_k|^2 / 2},

from points z_k on a common slice and quaternion coefficients a_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PointOffSlice, _require_positive_finite
from .quaternion import (_CONJ_SIGNS, ImaginaryUnit, Quaternion, _from_rows,
                         _qmul, _qpowers, _rows)
from .series import SliceSeries, _truncation_degree

__all__ = [
    "AtomicData",
    "star_exp_eval",
    "star_exp_tail_bound",
    "kernel_series",
    "normalized_kernel_eval",
    "normalized_kernel_tail_bound",
    "atomic_synthesis",
    "lattice_points",
]

_SLICE_TOL = 1e-10


@dataclass(frozen=True)
class AtomicData:
    """Synthesis data: points z_k on one slice, coefficients a_k, weight alpha."""

    points: tuple[Quaternion, ...]
    coeffs: tuple[Quaternion, ...]
    alpha: float
    trunc_degree: int

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.points) != len(self.coeffs):
            raise ValueError("points and coefficients must pair up")
        if not self.points:
            raise ValueError("need at least one synthesis point")
        _require_positive_finite("alpha", self.alpha)
        # a float degree is refused here, not inside atomic_synthesis' range
        object.__setattr__(self, "trunc_degree", _truncation_degree(self.trunc_degree))
        if not all(math.isfinite(a.w) and math.isfinite(a.x) and math.isfinite(a.y)
                   and math.isfinite(a.z) for a in self.points + self.coeffs):
            raise ValueError("synthesis points and coefficients must be finite")


def star_exp_eval(q: Quaternion, w: Quaternion, alpha: float,
                  trunc_degree: int) -> Quaternion:
    """Truncated star exponential sum_{n<=N} q^n alpha^n wbar^n / n!.

    The recurrences qp = qp * q, wp = wp * wbar and acc = acc + (qp * wp) *
    scale run on floats, written out in the terms and order of the
    `Quaternion` operators, so the value is the same bit for bit.  Where
    that sum is not finite, because q^n or wbar^n overflows or 1/n!
    underflows while the terms are representable, it is formed again with
    the three kept as mantissa times 2^e (see _star_exp_sum).
    """
    _require_positive_finite("alpha", alpha)
    trunc_degree = _truncation_degree(trunc_degree)
    value = _star_exp_sum(q, w, alpha, trunc_degree, scaled=False)
    if not all(map(math.isfinite, value)):
        value = _star_exp_sum(q, w, alpha, trunc_degree, scaled=True)
    return Quaternion(*value)


def _ldexp(x: float, e: int) -> float:
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _star_exp_sum(q: Quaternion, w: Quaternion, alpha: float, trunc_degree: int,
                  scaled: bool) -> tuple[float, float, float, float]:
    """Components of star_exp_eval's sum; scaled keeps the factors representable.

    Scaled, qp, wp and scale are divided by a power of two after every
    step, and each term takes the three powers back through its scale
    factor.  Both are exact for normal numbers, so a term rounds as the
    unscaled one does wherever that one is representable.
    """
    qw, qx, qy, qz = q.w, q.x, q.y, q.z
    bw, bx, by, bz = w.w, -w.x, -w.y, -w.z                # wbar
    aw, ax, ay, az = 1.0, 0.0, 0.0, 0.0                   # acc
    pw, px, py, pz = 1.0, 0.0, 0.0, 0.0                   # qp = q^n 2^-ep
    vw, vx, vy, vz = 1.0, 0.0, 0.0, 0.0                   # wp = wbar^n 2^-ev
    scale, ep, ev, es = 1.0, 0, 0, 0                      # scale = a^n/n! 2^-es
    for n in range(1, trunc_degree + 1):
        pw, px, py, pz = (pw * qw - px * qx - py * qy - pz * qz,
                          pw * qx + px * qw + py * qz - pz * qy,
                          pw * qy - px * qz + py * qw + pz * qx,
                          pw * qz + px * qy - py * qx + pz * qw)
        vw, vx, vy, vz = (vw * bw - vx * bx - vy * by - vz * bz,
                          vw * bx + vx * bw + vy * bz - vz * by,
                          vw * by - vx * bz + vy * bw + vz * bx,
                          vw * bz + vx * by - vy * bx + vz * bw)
        scale *= alpha / n
        # scaled, the term's factor takes back all three powers of two
        step = _ldexp(scale, ep + ev + es) if scaled else scale
        aw += (pw * vw - px * vx - py * vy - pz * vz) * step
        ax += (pw * vx + px * vw + py * vz - pz * vy) * step
        ay += (pw * vy - px * vz + py * vw + pz * vx) * step
        az += (pw * vz + px * vy - py * vx + pz * vw) * step
        if scaled:
            k = math.frexp(max(abs(pw), abs(px), abs(py), abs(pz)))[1]
            pw, px, py, pz, ep = (math.ldexp(pw, -k), math.ldexp(px, -k),
                                  math.ldexp(py, -k), math.ldexp(pz, -k), ep + k)
            k = math.frexp(max(abs(vw), abs(vx), abs(vy), abs(vz)))[1]
            vw, vx, vy, vz, ev = (math.ldexp(vw, -k), math.ldexp(vx, -k),
                                  math.ldexp(vy, -k), math.ldexp(vz, -k), ev + k)
            k = math.frexp(scale)[1]
            scale, es = math.ldexp(scale, -k), es + k
    return aw, ax, ay, az


def _tail_bound(x: float, trunc_degree: int, log_damp: float = 0.0) -> float:
    """min(x^{N+1}/(N+1)!, 1) e^{x + log_damp}; inf only where that overflows a float.

    The dropped tail sum_{n>N} x^n/n! is at most (x^{N+1}/(N+1)!) e^x
    (Taylor's remainder) and at most e^x (all terms are positive), so the
    smaller factor is taken.  Where the product of floats is positive and
    finite it is the bound.  Elsewhere (e^x overflows, or the power
    underflows against it) the bound is formed from its logarithm, so a
    damping factor enters before anything overflows and an underflowed power
    never meets an infinite exponential as 0 * inf.
    """
    lead = 1.0
    for n in range(1, trunc_degree + 2):
        lead *= x / n
    try:
        bound = min(lead, 1.0) * math.exp(x) * math.exp(log_damp)
    except OverflowError:
        bound = math.inf
    if 0.0 < bound < math.inf or x == 0.0:
        return bound
    log_lead = (trunc_degree + 1) * math.log(x) - math.lgamma(trunc_degree + 2)
    try:
        return math.exp(min(log_lead, 0.0) + x + log_damp)
    except OverflowError:
        return math.inf


def star_exp_tail_bound(q: Quaternion, w: Quaternion, alpha: float,
                        trunc_degree: int) -> float:
    """Bound min((a|q||w|)^{N+1}/(N+1)!, 1) e^{a|q||w|} on the dropped tail.

    Never raises: a bound that overflows a float is inf (see _tail_bound).
    """
    _require_positive_finite("alpha", alpha)
    return _tail_bound(alpha * q.modulus() * w.modulus(), trunc_degree)


def _exp_scales(alpha: float, trunc_degree: int) -> np.ndarray:
    """alpha^n / n! for n = 0, ..., N: each the last times (alpha / n), not
    (last * alpha) / n, which rounds otherwise."""
    scales = [1.0]
    for n in range(1, trunc_degree + 1):
        scales.append(scales[-1] * (alpha / n))
    return np.array(scales)


def kernel_series(w: Quaternion, alpha: float, trunc_degree: int,
                  radius: float = 1.0) -> SliceSeries:
    """The kernel q -> e_*^{a q wbar} as a series with coefficients a^n wbar^n/n!.

    wbar^n comes from _qpowers and a^n/n! from _exp_scales, the tables
    atomic_synthesis takes, so each coefficient is the `Quaternion` loop's
    wp = wp * wbar times its scale bit for bit.  A coefficient that
    overflows comes back inf or NaN, quietly, as the floats make it.
    """
    _require_positive_finite("alpha", alpha)
    trunc_degree = _truncation_degree(trunc_degree)
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = (_qpowers(_rows([w]) * _CONJ_SIGNS, trunc_degree)[:, 0]
                  * _exp_scales(alpha, trunc_degree)[:, None])
    return SliceSeries(_from_rows(coeffs), radius)


def normalized_kernel_eval(point: Quaternion, q: Quaternion, alpha: float,
                           trunc_degree: int) -> Quaternion:
    """Normalized kernel w_{z_k}(q) = e_*^{a q zbar_k} e^{-a |z_k|^2 / 2}."""
    damp = math.exp(-0.5 * alpha * point.modulus_sq())
    return star_exp_eval(q, point, alpha, trunc_degree) * damp


def normalized_kernel_tail_bound(point: Quaternion, q: Quaternion, alpha: float,
                                 trunc_degree: int) -> float:
    """star_exp_tail_bound(q, point) times e^{-a |z_k|^2 / 2}, never raising.

    The damping enters the logarithm before it is exponentiated, so a bound
    whose undamped value overflows but whose damped value fits is returned.
    """
    _require_positive_finite("alpha", alpha)
    return _tail_bound(alpha * q.modulus() * point.modulus(), trunc_degree,
                       -0.5 * alpha * point.modulus_sq())


def atomic_synthesis(data: AtomicData, unit: ImaginaryUnit) -> SliceSeries:
    """Series sum_k w_{z_k} a_k truncated at the stored degree.

    All points must lie on C_I to within 1e-10.  The coefficient of q^n is

        sum_k  a^n zbar_k^n e^{-a |z_k|^2 / 2} a_k / n!

    accumulated over k in storage order, so the result is deterministic.
    """
    points = _rows(data.points)
    pw, px, py, pz = points.T
    # the distances of Im z_k from the line R I and the |z_k|^2, in the terms
    # and order of the scalar expressions; huge points overflow quietly, as
    # floats do, and fail the test below or damp to 0
    with np.errstate(over="ignore", invalid="ignore"):
        d = px * unit.x + py * unit.y + pz * unit.z
        rx, ry, rz = px - d * unit.x, py - d * unit.y, pz - d * unit.z
        dist = np.sqrt(rx * rx + ry * ry + rz * rz)
        modulus_sq = pw * pw + px * px + py * py + pz * pz
    off = np.flatnonzero(~(dist <= _SLICE_TOL))        # a NaN distance fails too
    if off.size:
        k = off[0]
        raise PointOffSlice(f"synthesis point {data.points[k]!r} is "
                            f"{dist[k]:.3e} away from the slice")
    # math.exp, not np.exp: the two may round differently
    damps = np.array([math.exp(-0.5 * data.alpha * m) for m in modulus_sq.tolist()])
    # a coefficient that overflows comes back inf or NaN, quietly; the
    # caller decides whether to refuse it
    with np.errstate(over="ignore", invalid="ignore"):
        conj_powers = _qpowers(points * _CONJ_SIGNS, data.trunc_degree)
        terms = _qmul(conj_powers, _rows(data.coeffs)) * (
            _exp_scales(data.alpha, data.trunc_degree)[:, None] * damps)[..., None]
        # add the atoms one by one in storage order; a BLAS product or np.sum
        # over k would reduce in a shape-dependent order, so a coefficient
        # could change with the truncation degree
        coeffs = np.zeros((data.trunc_degree + 1, 4))
        for k in range(len(data.points)):
            coeffs += terms[:, k]
    return SliceSeries(_from_rows(coeffs))


def lattice_points(spacing: float, unit: ImaginaryUnit,
                   radius: float) -> list[Quaternion]:
    """Square lattice {spacing * (m + I n)} clipped to |z| <= radius.

    Points are ordered by modulus, then by angle in [0, 2 pi), which makes
    the enumeration deterministic.
    """
    if not spacing > 0.0:
        raise ValueError("spacing must be positive")
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    reach = int(math.floor(radius / spacing + 1e-12))
    out = []
    for m in range(-reach, reach + 1):
        for n in range(-reach, reach + 1):
            mod = spacing * math.hypot(m, n)
            if mod <= radius:
                angle = math.atan2(n, m) % (2.0 * math.pi)
                out.append((mod, angle,
                            Quaternion(spacing * m, spacing * n * unit.x,
                                       spacing * n * unit.y, spacing * n * unit.z)))
    out.sort(key=lambda item: (item[0], item[1]))
    return [item[2] for item in out]
