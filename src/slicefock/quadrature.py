"""Polar quadrature on a slice disk: Gauss-Legendre radius, trapezoid angle.

fock integrates on these grids only at p != 2; at p = 2 its norms and inner
products are closed forms that read no grid.

The disk B_I(0, R) is parametrized by z = r e^{I t}; integrals of smooth
integrands against dx dy are computed as

    sum_i sum_j  h(r_i e^{I t_j}) * w_i * r_i * (2 pi / M)

with (r_i, w_i) Gauss-Legendre nodes on [0, R] and t_j = 2 pi j / M.  For the
periodic angular direction the trapezoid rule is spectrally accurate, and the
Gaussian weights appearing in the norm integrands are entire, so the default
64 x 128 grid already integrates the polynomial corpus to machine precision.
Point and weight orderings are fixed (radius outer, angle inner) so repeated
runs reduce in the same order.  Gauss-Legendre nodes on [-1, 1] are computed
once per count and shared, read-only, by every grid of that count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureGrid", "DEFAULT_RADIAL", "DEFAULT_ANGULAR",
           "RADIAL_CAP", "ANGULAR_CAP"]

DEFAULT_RADIAL = 64
DEFAULT_ANGULAR = 128
RADIAL_CAP = 512
ANGULAR_CAP = 1024


@functools.lru_cache(maxsize=32)
def _legendre_nodes(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]."""
    xs, ws = np.polynomial.legendre.leggauss(count)
    xs.flags.writeable = ws.flags.writeable = False
    return xs, ws


@dataclass(frozen=True)
class QuadratureGrid:
    """Positive-weight polar grid for one slice disk of the given radius."""

    radial_nodes: tuple[tuple[float, float], ...]
    angular_count: int
    radius: float

    def __post_init__(self):
        if self.angular_count < 1:
            raise ValueError("angular_count must be positive")
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")
        for r, w in self.radial_nodes:
            if not (0.0 <= r <= self.radius and w > 0.0):
                raise ValueError("radial nodes must lie in [0, R] with positive weights")

    @classmethod
    def build(cls, radial_count: int = DEFAULT_RADIAL,
              angular_count: int = DEFAULT_ANGULAR,
              radius: float = 1.0) -> "QuadratureGrid":
        if radial_count < 1:
            raise ValueError("radial_count must be positive")
        xs, ws = _legendre_nodes(radial_count)
        r = 0.5 * radius * (xs + 1.0)
        w = 0.5 * radius * ws
        nodes = tuple((float(a), float(b)) for a, b in zip(r, w))
        return cls(nodes, int(angular_count), float(radius))

    @property
    def radial_count(self) -> int:
        return len(self.radial_nodes)

    def doubled(self) -> "QuadratureGrid":
        return QuadratureGrid.build(2 * self.radial_count,
                                    2 * self.angular_count, self.radius)

    def radial_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        r = np.array([n[0] for n in self.radial_nodes])
        w = np.array([n[1] for n in self.radial_nodes])
        return r, w

    def angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.angular_count) / self.angular_count

    def points(self) -> np.ndarray:
        """Complex nodes r_i e^{i t_j}, flattened radius-major."""
        r, _ = self.radial_arrays()
        t = self.angles()
        return (r[:, None] * np.exp(1j * t)[None, :]).ravel()

    def area_weights(self) -> np.ndarray:
        """dx dy weights w_i r_i (2 pi / M) matching points(); sums to pi R^2."""
        r, w = self.radial_arrays()
        ang = np.full(self.angular_count, 2.0 * np.pi / self.angular_count)
        return ((w * r)[:, None] * ang[None, :]).ravel()

    def integrate(self, values: np.ndarray):
        """Integral over the disk against dx dy of values sampled at points()."""
        return (np.asarray(values) * self.area_weights()).sum()

    def describe(self) -> dict:
        return {"radial": self.radial_count, "angular": self.angular_count,
                "radius": self.radius}
