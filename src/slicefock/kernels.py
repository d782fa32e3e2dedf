"""Star exponential kernels, normalized kernels and atomic synthesis.

The star exponential in the kernel variable w is

    e_*^{a q wbar} = sum_n q^n a^n wbar^n / n!

with the power of q on the left, the power of wbar in the middle and the
real scalar on the right; the three factors do not commute, so the order is
part of the definition.  Truncation at degree N leaves the explicit tail

    (a |q| |w|)^{N+1} / (N+1)! * e^{a |q| |w|}.

When q and w share one slice, the kernel collapses to the complex Gaussian
kernel e^{a z wbar} on that slice.  Atomic synthesis assembles the series

    f = sum_k  w_{z_k} a_k,      w_{z_k}(q) = e_*^{a q zbar_k} e^{-a |z_k|^2 / 2},

from points z_k on a common slice and quaternion coefficients a_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PointOffSlice
from .quaternion import (_CONJ_SIGNS, ImaginaryUnit, Quaternion, _from_rows,
                         _qmul, _rows)
from .series import SliceSeries

__all__ = [
    "AtomicData",
    "star_exp_eval",
    "star_exp_tail_bound",
    "kernel_series",
    "normalized_kernel_eval",
    "atomic_synthesis",
    "lattice_points",
]

_SLICE_TOL = 1e-10


def _require_alpha(alpha: float) -> None:
    if not 0.0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")


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
        _require_alpha(self.alpha)
        if self.trunc_degree < 0:
            raise ValueError("truncation degree must be nonnegative")


def star_exp_eval(q: Quaternion, w: Quaternion, alpha: float,
                  trunc_degree: int) -> Quaternion:
    """Truncated star exponential sum_{n<=N} q^n alpha^n wbar^n / n!.

    The recurrences qp = qp * q, wp = wp * wbar and acc = acc + (qp * wp) *
    scale run on floats, written out in the terms and order of the
    `Quaternion` operators, so the value is the same bit for bit.
    """
    _require_alpha(alpha)
    if trunc_degree < 0:
        raise ValueError("truncation degree must be nonnegative")
    qw, qx, qy, qz = q.w, q.x, q.y, q.z
    bw, bx, by, bz = w.w, -w.x, -w.y, -w.z                # wbar
    aw, ax, ay, az = 1.0, 0.0, 0.0, 0.0                   # acc
    pw, px, py, pz = 1.0, 0.0, 0.0, 0.0                   # qp = q^n
    vw, vx, vy, vz = 1.0, 0.0, 0.0, 0.0                   # wp = wbar^n
    scale = 1.0
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
        aw += (pw * vw - px * vx - py * vy - pz * vz) * scale
        ax += (pw * vx + px * vw + py * vz - pz * vy) * scale
        ay += (pw * vy - px * vz + py * vw + pz * vx) * scale
        az += (pw * vz + px * vy - py * vx + pz * vw) * scale
    return Quaternion(aw, ax, ay, az)


def star_exp_tail_bound(q: Quaternion, w: Quaternion, alpha: float,
                        trunc_degree: int) -> float:
    """Bound (a|q||w|)^{N+1}/(N+1)! e^{a|q||w|} on the dropped tail.

    Never raises: a bound that overflows a float is inf.  Where e^x alone
    overflows, the bound is formed from its logarithm, so an underflowed
    power never meets an infinite exponential as 0 * inf.
    """
    _require_alpha(alpha)
    x = alpha * q.modulus() * w.modulus()
    lead = 1.0
    for n in range(1, trunc_degree + 2):
        lead *= x / n
    try:
        return lead * math.exp(x)
    except OverflowError:
        log_bound = ((trunc_degree + 1) * math.log(x)
                     - math.lgamma(trunc_degree + 2) + x)
        try:
            return math.exp(log_bound)
        except OverflowError:
            return math.inf


def kernel_series(w: Quaternion, alpha: float, trunc_degree: int,
                  radius: float = 1.0) -> SliceSeries:
    """The kernel q -> e_*^{a q wbar} as a series with coefficients a^n wbar^n/n!."""
    _require_alpha(alpha)
    if trunc_degree < 0:
        raise ValueError("truncation degree must be nonnegative")
    coeffs = [Quaternion(1.0)]
    wp = Quaternion(1.0)
    wbar = w.conjugate()
    scale = 1.0
    for n in range(1, trunc_degree + 1):
        wp = wp * wbar
        scale *= alpha / n
        coeffs.append(wp * scale)
    return SliceSeries(tuple(coeffs), radius)


def normalized_kernel_eval(point: Quaternion, q: Quaternion, alpha: float,
                           trunc_degree: int) -> Quaternion:
    """Normalized kernel w_{z_k}(q) = e_*^{a q zbar_k} e^{-a |z_k|^2 / 2}."""
    damp = math.exp(-0.5 * alpha * point.modulus_sq())
    return star_exp_eval(q, point, alpha, trunc_degree) * damp


def _off_slice_distance(point: Quaternion, unit: ImaginaryUnit) -> float:
    """Distance of Im(point) from the line R * I."""
    px, py, pz = point.imag_vector()
    d = px * unit.x + py * unit.y + pz * unit.z
    rx, ry, rz = px - d * unit.x, py - d * unit.y, pz - d * unit.z
    return math.sqrt(rx * rx + ry * ry + rz * rz)


def atomic_synthesis(data: AtomicData, unit: ImaginaryUnit) -> SliceSeries:
    """Series sum_k w_{z_k} a_k truncated at the stored degree.

    All points must lie on C_I to within 1e-10.  The coefficient of q^n is

        sum_k  a^n zbar_k^n e^{-a |z_k|^2 / 2} a_k / n!

    accumulated over k in storage order, so the result is deterministic.
    """
    for point in data.points:
        dist = _off_slice_distance(point, unit)
        if dist > _SLICE_TOL:
            raise PointOffSlice(
                f"synthesis point {point!r} is {dist:.3e} away from the slice")
    # math.exp, not np.exp: the two may round differently
    damps = np.array([math.exp(-0.5 * data.alpha * p.modulus_sq())
                      for p in data.points])
    conj_points = _rows(data.points) * _CONJ_SIGNS
    conj_powers = np.empty((data.trunc_degree + 1,) + conj_points.shape)
    conj_powers[0] = [1.0, 0.0, 0.0, 0.0]
    scales = [1.0]
    for n in range(1, data.trunc_degree + 1):
        conj_powers[n] = _qmul(conj_powers[n - 1], conj_points)
        # scale * (alpha / n), not (scale * alpha) / n, which rounds otherwise
        scales.append(scales[-1] * (data.alpha / n))
    terms = _qmul(conj_powers, _rows(data.coeffs)) * (
        np.array(scales)[:, None] * damps)[..., None]
    # add the atoms one by one in storage order; a BLAS product or np.sum
    # over k would reduce in a shape-dependent order, so a coefficient could
    # change with the truncation degree
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
