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
from .quaternion import (_CONJ_SIGNS, ImaginaryUnit, Quaternion, _product_table,
                         _qpowers, _rows, _table_mul)
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
    """Synthesis data: points z_k on one slice, coefficients a_k, weight alpha.

    The points and coefficients are also kept as read-only (K, 4) rows,
    `_point_rows` and `_coeff_rows`, for atomic_synthesis.  They are not
    fields, so ==, hash and repr see the quaternions alone.
    """

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
        rows = _rows(self.points + self.coeffs)
        if not np.isfinite(rows).all():
            raise ValueError("synthesis points and coefficients must be finite")
        rows.flags.writeable = False
        object.__setattr__(self, "_point_rows", rows[:len(self.points)])
        object.__setattr__(self, "_coeff_rows", rows[len(self.points):])


def star_exp_eval(q: Quaternion, w: Quaternion, alpha: float,
                  trunc_degree: int) -> Quaternion:
    """Truncated star exponential sum_{n<=N} q^n alpha^n wbar^n / n!.

    Nested from the inside out,

        1 + (a/1) q (1 + (a/2) q (... (1 + (a/N) q wbar) ...) wbar) wbar,

    one step acc = 1 + (q' acc wbar') (a/n) for n = N, ..., 1, so no power
    and no factorial is formed, and every partial value is at most
    e^{a|q||w|} in modulus.  q' = q 2^-k and wbar' = wbar 2^k, with k half
    the difference of the frexp exponents of the largest |component| of q
    and of w, balance the two factors and leave every term unchanged: a
    huge q against a tiny w neither overflows nor underflows.  The loop
    runs on floats in the terms and order of the `Quaternion` operators,
    ONE + x included (it adds 0.0 to each imaginary component), so the
    value is theirs bit for bit.
    """
    _require_positive_finite("alpha", alpha)
    trunc_degree = _truncation_degree(trunc_degree)
    k = (math.frexp(max(abs(q.w), abs(q.x), abs(q.y), abs(q.z)))[1]
         - math.frexp(max(abs(w.w), abs(w.x), abs(w.y), abs(w.z)))[1]) // 2
    qw, qx, qy, qz = (math.ldexp(c, -k) for c in (q.w, q.x, q.y, q.z))
    bw, bx, by, bz = (math.ldexp(c, k) for c in (w.w, -w.x, -w.y, -w.z))   # wbar'
    aw, ax, ay, az = 1.0, 0.0, 0.0, 0.0                                     # acc
    for n in range(trunc_degree, 0, -1):
        tw, tx, ty, tz = (qw * aw - qx * ax - qy * ay - qz * az,         # q' acc
                          qw * ax + qx * aw + qy * az - qz * ay,
                          qw * ay - qx * az + qy * aw + qz * ax,
                          qw * az + qx * ay - qy * ax + qz * aw)
        s = alpha / n
        aw, ax, ay, az = (1.0 + (tw * bw - tx * bx - ty * by - tz * bz) * s,
                          0.0 + (tw * bx + tx * bw + ty * bz - tz * by) * s,
                          0.0 + (tw * by - tx * bz + ty * bw + tz * bx) * s,
                          0.0 + (tw * bz + tx * by - ty * bx + tz * bw) * s)
    return Quaternion(aw, ax, ay, az)


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
    return SliceSeries._of_rows(coeffs, radius)


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

    summed by one reduce over k in storage order from +0.0,
    0.0 + t_0 + t_1 + ..., so the result is deterministic and does not
    depend on the truncation degree.  The products zbar_k^n a_k take the
    table form of a_k, which repeats along n (quaternion._table_mul).
    """
    points = data._point_rows
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
        # zbar_k^n a_k by the table of a_k, which repeats along n: the
        # powers components first, (4, 1, N + 1, K), against the table
        # (4, 4, 1, K), give the terms (4, N + 1, K)
        conj_powers = _qpowers(points * _CONJ_SIGNS, data.trunc_degree).transpose(2, 0, 1)
        terms = _table_mul(conj_powers[:, None], _product_table(data._coeff_rows)[:, :, None])
        terms *= _exp_scales(data.alpha, data.trunc_degree)[:, None] * damps
        # the atoms added in storage order, 0.0 + t_0 + t_1 + ...: with k the
        # outermost axis of a contiguous copy, numpy adds whole (4, N + 1)
        # blocks one by one, where a BLAS product or np.sum over k would
        # reduce in a shape-dependent order (pairwise along a contiguous k)
        terms = np.ascontiguousarray(terms.transpose(2, 0, 1))
        coeffs = np.add.reduce(terms, axis=0, initial=0.0).T
    return SliceSeries._of_rows(coeffs)


def lattice_points(spacing: float, unit: ImaginaryUnit,
                   radius: float) -> list[Quaternion]:
    """Square lattice {spacing * (m + I n)} clipped to |z| <= radius.

    Points are ordered by modulus, then by angle in [0, 2 pi), which makes
    the enumeration deterministic.
    """
    _require_positive_finite("spacing", spacing)
    _require_positive_finite("radius", radius)
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
