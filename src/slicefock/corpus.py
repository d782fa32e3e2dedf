"""Seeded random generators shared by the verifier and the test suite."""

from __future__ import annotations

import numpy as np

from .quaternion import ImaginaryUnit, Quaternion
from .series import SliceSeries

__all__ = [
    "rng_for",
    "random_quaternion",
    "random_unit",
    "random_orthogonal_pair",
    "random_ball_point",
    "random_series",
    "standard_corpus",
]


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_quaternion(rng: np.random.Generator, scale: float = 1.0) -> Quaternion:
    """Coefficients uniform in [-scale, scale]^4."""
    w, x, y, z = rng.uniform(-scale, scale, 4)
    return Quaternion(w, x, y, z)


def random_unit(rng: np.random.Generator) -> ImaginaryUnit:
    while True:
        v = rng.normal(size=3)
        n = float(np.linalg.norm(v))
        if n > 1e-6:
            return ImaginaryUnit(v[0] / n, v[1] / n, v[2] / n)


def random_orthogonal_pair(rng: np.random.Generator,
                           ) -> tuple[ImaginaryUnit, ImaginaryUnit]:
    unit_i = random_unit(rng)
    while True:
        v = rng.normal(size=3)
        d = v[0] * unit_i.x + v[1] * unit_i.y + v[2] * unit_i.z
        w = v - d * np.array([unit_i.x, unit_i.y, unit_i.z])
        n = float(np.linalg.norm(w))
        if n > 1e-6:
            return unit_i, ImaginaryUnit(w[0] / n, w[1] / n, w[2] / n)


def _orthogonal_pair_rows(rng: np.random.Generator, count: int) -> np.ndarray:
    """count random_orthogonal_pair draws as rows (I, J), shape (count, 2, 3).

    One rng.normal call draws the normals that count scalar draws take
    when none is rejected, and they are normalized in the scalar loop's
    operations and order (np.vecdot takes the same dot product as
    np.linalg.norm), so the rows equal the scalar pairs bit for bit.  Where
    the scalar loop would reject a draw (a norm <= 1e-6), the generator is
    put back and the scalar loop runs, so the stream is followed either way.
    """
    state = rng.bit_generator.state
    draws = rng.normal(size=(count, 2, 3))
    first, second = draws[:, 0], draws[:, 1]
    norm_i = np.sqrt(np.vecdot(first, first))
    units = first / norm_i[:, None]
    d = (second[:, 0] * units[:, 0] + second[:, 1] * units[:, 1]
         + second[:, 2] * units[:, 2])
    w = second - d[:, None] * units
    norm_j = np.sqrt(np.vecdot(w, w))
    if not (np.all(norm_i > 1e-6) and np.all(norm_j > 1e-6)):
        rng.bit_generator.state = state
        return np.array([[[u.x, u.y, u.z] for u in random_orthogonal_pair(rng)]
                         for _ in range(count)]).reshape(count, 2, 3)
    return np.stack([units, w / norm_j[:, None]], axis=1)


def random_ball_point(rng: np.random.Generator, radius: float = 1.0) -> Quaternion:
    """Uniform draw from the solid 4-ball of the given radius."""
    v = rng.normal(size=4)
    n = float(np.linalg.norm(v))
    while n < 1e-12:
        v = rng.normal(size=4)
        n = float(np.linalg.norm(v))
    r = radius * rng.uniform() ** 0.25
    v = v * (r / n)
    return Quaternion(v[0], v[1], v[2], v[3])


def random_series(rng: np.random.Generator, max_degree: int = 12,
                  radius: float = 1.0) -> SliceSeries:
    degree = int(rng.integers(0, max_degree + 1))
    return SliceSeries(tuple(random_quaternion(rng)
                             for _ in range(degree + 1)), radius)


def standard_corpus(seed: int, count: int = 200,
                    max_degree: int = 12) -> list[SliceSeries]:
    """The seeded polynomial corpus used by the verifier.

    Degrees are uniform on 0..max_degree and coefficients uniform in
    [-1, 1]^4; the draw order is fixed, so a seed pins the corpus exactly.
    """
    rng = rng_for(seed)
    return [random_series(rng, max_degree) for _ in range(count)]
