"""Reference arithmetic that checks the library's outputs.

Everything here works on float64 arrays whose last axis holds the quaternion
components (w, x, y, z).  None of it calls slicefock, so a defect in the
library cannot hide itself by also breaking its own check.
"""

from __future__ import annotations

import math

import numpy as np

ONE = np.array([1.0, 0.0, 0.0, 0.0])


def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product, broadcast over the leading axes."""
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = aw * bw - ax * bx - ay * by - az * bz
    out[..., 1] = aw * bx + ax * bw + ay * bz - az * by
    out[..., 2] = aw * by - ax * bz + ay * bw + az * bx
    out[..., 3] = aw * bz + ax * by - ay * bx + az * bw
    return out


def conj(a: np.ndarray) -> np.ndarray:
    return a * np.array([1.0, -1.0, -1.0, -1.0])


def inv(a: np.ndarray) -> np.ndarray:
    return conj(a) / (a * a).sum(axis=-1, keepdims=True)


def modulus(a: np.ndarray) -> np.ndarray:
    return np.sqrt((a * a).sum(axis=-1))


def horner(coeffs: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sum_n q^n a_n for coefficients of shape (N + 1, 4) and points (..., 4)."""
    acc = np.broadcast_to(coeffs[-1], q.shape).copy()
    for a in coeffs[-2::-1]:
        acc = qmul(q, acc) + a
    return acc


def convolve(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Star product coefficients c_n = sum_k a_k b_{n-k}."""
    out = np.zeros((len(f) + len(g) - 1, 4))
    for k, a in enumerate(f):
        out[k:k + len(g)] += qmul(a, g)
    return out


def on_slice(z: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """Complex numbers z as the quaternions Re z + Im z * I."""
    return np.concatenate([z.real[..., None], z.imag[..., None] * unit], axis=-1)


# ---------------------------------------------------------------------------
# norm-refine: one slice p-norm on a polar Gauss-Legendre x trapezoid grid
# ---------------------------------------------------------------------------

def slice_norm(coeffs: np.ndarray, unit: np.ndarray, p: float, alpha: float,
               radius: float, radial: int, angular: int) -> float:
    """((alpha/pi)/pi * integral of |f|^p e^{-alpha p |z|^2 / 2} dx dy)^(1/p).

    The integral runs over the disk of the given radius on the slice C_I,
    with radial Gauss-Legendre nodes and the angular trapezoid rule.
    """
    xs, ws = np.polynomial.legendre.leggauss(radial)
    r = 0.5 * radius * (xs + 1.0)
    w = 0.5 * radius * ws
    t = 2.0 * np.pi * np.arange(angular) / angular
    z = (r[:, None] * np.exp(1j * t)[None, :]).ravel()
    values = horner(coeffs, on_slice(z, unit))
    absq = (values * values).sum(axis=-1)
    rsq = (z * z.conjugate()).real
    area = ((w * r)[:, None] * np.full(angular, 2.0 * np.pi / angular)).ravel()
    integral = (absq ** (p / 2.0) * np.exp(-0.5 * alpha * p * rsq) * area).sum()
    return float((alpha / math.pi / math.pi * integral) ** (1.0 / p))


# ---------------------------------------------------------------------------
# algebra: kernels
# ---------------------------------------------------------------------------

def kernel_sum(q: np.ndarray, points: np.ndarray, coeffs: np.ndarray,
               alpha: float, trunc: int) -> np.ndarray:
    """sum_k e_*^{alpha q zbar_k} e^{-alpha |z_k|^2 / 2} a_k, truncated at trunc.

    q has shape (S, 4), points and coeffs (K, 4); the n-th kernel term is
    q^n zbar_k^n alpha^n / n!, in that order.  Returns shape (S, 4).
    """
    damp = np.exp(-0.5 * alpha * (points * points).sum(axis=-1))
    zbar = conj(points)
    qn = np.broadcast_to(ONE, q.shape)
    zn = np.broadcast_to(ONE, points.shape)
    kernel = np.broadcast_to(ONE, (len(q), len(points), 4)).copy()
    scale = 1.0
    for n in range(1, trunc + 1):
        qn = qmul(qn, q)
        zn = qmul(zn, zbar)
        scale *= alpha / n
        kernel += qmul(qn[:, None, :], zn[None, :, :]) * scale
    return (qmul(kernel, coeffs[None]) * damp[None, :, None]).sum(axis=1)


def exp_tail_bound(q: np.ndarray, w: np.ndarray, alpha: float, trunc: int) -> float:
    """(alpha |q| |w|)^{N+1} / (N+1)! * e^{alpha |q| |w|}."""
    x = alpha * float(modulus(q)) * float(modulus(w))
    return x ** (trunc + 1) / math.factorial(trunc + 1) * math.exp(x)
