"""Quaternion arithmetic, the sphere of imaginary units, and slice coordinates.

Every quaternion q = w + x*i + y*j + z*k decomposes as q = re + im * I with
im = |Im q| >= 0 and I a purely imaginary unit.  The slice C_I = R + R*I
through I is a copy of the complex plane inside H, and all slice-wise
constructions in the rest of the package are phrased in these coordinates.

All values here are immutable and all operations are pure functions, so
concurrent use requires no locking.

A private array section at the end holds the package's one array kernel:
quaternions as rows (w, x, y, z) on the last axis of a float64 array, a
Hamilton product on such arrays, the modulus and inverse of every row, and
conversions to and from `Quaternion`.  Hot loops in series, kernels, fock
and verify work on whole tables at once through it.  Its product uses the
same formula, term order and rounding as `Quaternion.__mul__`, so an array
product equals the scalar one bit for bit.  The row moduli are taken with
`math.hypot` row by row, as `Quaternion.modulus` takes them (numpy has no
four-argument hypot, and a sum of squares rounds otherwise), and the row
inverse divides by the modulus twice, as `Quaternion.inverse` does.

Loops that run one point at a time, the scalar Horner evaluation, the star
reciprocal and the representation formula in series and the star
exponential in kernels, run on plain floats instead of constructing one
`Quaternion` per step: each step writes out the components of the
`Quaternion` operators it replaces, term for term and in the same order,
so the result equals the operator loop's bit for bit.  Only the result is
built as a `Quaternion`.

`_qmul` is the one general array product.  `_qpowers` takes successive
powers q^n = q^{n-1} q of one fixed table of rows, as atomic synthesis
needs them: it builds the sign-permuted table of q once, and each power is
one broadcast product and three sums, equal to `_qmul`'s bit for bit.  It
works on components first, so its 4 ufunc calls a power each sweep
contiguous rows, against `_qmul`'s 28 on strided component views: the
powers of 49 rows to degree 32 take 0.10 ms against 0.31 ms by `_qmul`,
and of 1,257 rows 0.48 against 0.96 ms (2-vCPU Xeon host).  A general
product has no fixed factor to tabulate, so it stays `_qmul`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ZeroDivisor

__all__ = [
    "Quaternion",
    "ImaginaryUnit",
    "SliceCoords",
    "ONE",
    "UNIT_I",
    "UNIT_J",
    "UNIT_K",
    "decompose",
    "compose",
    "orthonormal_partner",
    "sphere_sample",
    "default_sphere",
]

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
# below this modulus an inverse is treated as a division by zero
_INVERSION_FLOOR = 1e-300
# an |Im q| whose square is below the smallest normal double is taken on
# (x, y, z) 2^_IMAG_SCALE, where the squares keep their bits, and scaled back
_IMAG_SCALE = 600


@dataclass(frozen=True, slots=True, init=False)
class Quaternion:
    """Element w + x*i + y*j + z*k of the real quaternion algebra.

    Multiplication follows the Hamilton rules i*j = k, j*k = i, k*i = j and
    is not commutative; everything else behaves like a 4-dimensional real
    vector space.

    >>> Quaternion(0, 1, 0, 0) * Quaternion(0, 0, 1, 0)
    Quaternion(w=0.0, x=0.0, y=0.0, z=1.0)
    """

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __init__(self, w: float = 0.0, x: float = 0.0, y: float = 0.0,
                 z: float = 0.0):
        # the slot setters write past the frozen __setattr__ in one pass;
        # float() keeps every stored component a Python float
        _SET_W(self, float(w))
        _SET_X(self, float(x))
        _SET_Y(self, float(y))
        _SET_Z(self, float(z))

    def __add__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.w + other.w, self.x + other.x,
                              self.y + other.y, self.z + other.z)
        if isinstance(other, (int, float)):
            return Quaternion(self.w + other, self.x, self.y, self.z)
        return NotImplemented

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.w - other.w, self.x - other.x,
                              self.y - other.y, self.z - other.z)
        if isinstance(other, (int, float)):
            return Quaternion(self.w - other, self.x, self.y, self.z)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(other - self.w, -self.x, -self.y, -self.z)
        return NotImplemented

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            a, b = self, other
            return Quaternion(
                a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
                a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
                a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
                a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
            )
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return NotImplemented

    def __rmul__(self, other):
        # scalars commute with everything, so only this case is needed
        if isinstance(other, (int, float)):
            return Quaternion(other * self.w, other * self.x,
                              other * self.y, other * self.z)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w / other, self.x / other,
                              self.y / other, self.z / other)
        return NotImplemented

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def modulus(self) -> float:
        # hypot rescales internally, so |q| is finite whenever q is
        return math.hypot(self.w, self.x, self.y, self.z)

    __abs__ = modulus

    def modulus_sq(self) -> float:
        return (self.w * self.w + self.x * self.x
                + self.y * self.y + self.z * self.z)

    def inverse(self) -> "Quaternion":
        m = self.modulus()
        if m < _INVERSION_FLOOR:
            raise ZeroDivisor(f"cannot invert quaternion of modulus {m!r}")
        # divide by |q| twice instead of |q|^2 so tiny moduli do not underflow
        return Quaternion(self.w / m / m, -self.x / m / m,
                          -self.y / m / m, -self.z / m / m)

    def real_part(self) -> float:
        return self.w

    def imag_vector(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    def imag_modulus(self) -> float:
        sq = self.x * self.x + self.y * self.y + self.z * self.z
        if not sq < sys.float_info.min:
            return math.sqrt(sq)
        x, y, z = (math.ldexp(c, _IMAG_SCALE) for c in (self.x, self.y, self.z))
        return math.ldexp(math.sqrt(x * x + y * y + z * z), -_IMAG_SCALE)


_SET_W, _SET_X, _SET_Y, _SET_Z = (Quaternion.__dict__[name].__set__
                                  for name in "wxyz")
ONE = Quaternion(1.0)


@dataclass(frozen=True, slots=True)
class ImaginaryUnit:
    """Point of the 2-sphere S = {xi + yj + zk : x^2 + y^2 + z^2 = 1}.

    Each such I satisfies I^2 = -1 and selects the slice C_I = R + R*I.
    """

    x: float
    y: float
    z: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "z", float(self.z))
        nsq = self.x * self.x + self.y * self.y + self.z * self.z
        # written so that a NaN component fails too
        if not abs(nsq - 1.0) <= 1e-12:
            raise ValueError(f"imaginary unit must have norm 1, got |v|^2 = {nsq!r}")

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> "ImaginaryUnit":
        n = math.sqrt(x * x + y * y + z * z)
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(x / n, y / n, z / n)

    def as_quaternion(self) -> Quaternion:
        return Quaternion(0.0, self.x, self.y, self.z)

    def dot(self, other: "ImaginaryUnit") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def __neg__(self):
        return ImaginaryUnit(-self.x, -self.y, -self.z)


UNIT_I = ImaginaryUnit(1.0, 0.0, 0.0)
UNIT_J = ImaginaryUnit(0.0, 1.0, 0.0)
UNIT_K = ImaginaryUnit(0.0, 0.0, 1.0)


@dataclass(frozen=True, slots=True)
class SliceCoords:
    """Coordinates q = re + im * unit with im >= 0.

    A negative im is canonicalized by absorbing the sign into the unit, so
    equal quaternions always produce equal coordinates.
    """

    re: float
    im: float
    unit: ImaginaryUnit

    def __post_init__(self):
        object.__setattr__(self, "re", float(self.re))
        object.__setattr__(self, "im", float(self.im))
        if self.im < 0.0:
            object.__setattr__(self, "im", -self.im)
            object.__setattr__(self, "unit", -self.unit)


def decompose(q: Quaternion) -> SliceCoords:
    """Slice coordinates (re, im, I) of q, with im >= 0.

    Real quaternions have no preferred slice; by convention they report the
    unit i so that compose(decompose(q)) is always well defined.
    """
    im = q.imag_modulus()
    if im == 0.0:
        return SliceCoords(q.w, 0.0, UNIT_I)
    if im < sys.float_info.min:
        # a subnormal im has lost bits: Im q 2^_IMAG_SCALE gives the unit
        return SliceCoords(q.w, im, ImaginaryUnit.normalized(
            *(math.ldexp(c, _IMAG_SCALE) for c in (q.x, q.y, q.z))))
    return SliceCoords(q.w, im, ImaginaryUnit(q.x / im, q.y / im, q.z / im))


def compose(coords: SliceCoords) -> Quaternion:
    """Quaternion re + im * unit from slice coordinates."""
    u = coords.unit
    return Quaternion(coords.re, coords.im * u.x, coords.im * u.y, coords.im * u.z)


def orthonormal_partner(unit: ImaginaryUnit) -> ImaginaryUnit:
    """Deterministic unit J orthogonal to the given I.

    Gram-Schmidt applied to the first canonical basis vector of {i, j, k}
    that is not parallel to I, so i -> j, j -> i and (i+j)/sqrt2 -> (i-j)/sqrt2.
    """
    for ex, ey, ez in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)):
        d = ex * unit.x + ey * unit.y + ez * unit.z
        if 1.0 - abs(d) > 1e-6:
            return ImaginaryUnit.normalized(ex - d * unit.x,
                                            ey - d * unit.y,
                                            ez - d * unit.z)
    raise ValueError("no canonical basis vector is transverse to the unit")


def sphere_sample(count: int) -> list[ImaginaryUnit]:
    """Deterministic Fibonacci lattice of `count` imaginary units.

    Latitudes are the midpoints 1 - 2(k + 1/2)/count and longitudes advance
    by the golden angle, which keeps pairwise angles bounded away from zero.
    count = 1 returns [i].
    """
    if count < 1:
        raise ValueError("count must be a positive integer")
    units = []
    for idx in range(count):
        lat = 1.0 - 2.0 * (idx + 0.5) / count
        rad = math.sqrt(max(0.0, 1.0 - lat * lat))
        phi = idx * _GOLDEN_ANGLE
        units.append(ImaginaryUnit.normalized(rad * math.cos(phi),
                                              rad * math.sin(phi), lat))
    return units


def default_sphere(count: int = 64) -> list[ImaginaryUnit]:
    """Fibonacci sample of the sphere plus the canonical units i, j, k.

    This is the sampling used by the norm routines when no explicit list is
    given: the lattice covers the sphere evenly while the canonical units
    keep the classical slices exercised.
    """
    units = sphere_sample(count)
    for extra in (UNIT_I, UNIT_J, UNIT_K):
        if all(u != extra for u in units):
            units.append(extra)
    return units


# ---------------------------------------------------------------------------
# array section: quaternions as rows (w, x, y, z) on the last axis
# ---------------------------------------------------------------------------

# row-wise conjugation: multiply by these signs
_CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])
_ONE_ROW = np.array([1.0, 0.0, 0.0, 0.0])


def _qmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product of broadcastable (..., 4) arrays, shape (..., 4).

    Each component is the expression of `Quaternion.__mul__`, evaluated in
    the same order, so every element equals the scalar product exactly.
    """
    pw, px, py, pz = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    qw, qx, qy, qz = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    w = pw * qw - px * qx - py * qy - pz * qz
    # a fresh C-contiguous result: fock's BLAS products round by layout
    out = np.empty(w.shape + (4,))
    out[..., 0] = w
    out[..., 1] = pw * qx + px * qw + py * qz - pz * qy
    out[..., 2] = pw * qy - px * qz + py * qw + pz * qx
    out[..., 3] = pw * qz + px * qy - py * qx + pz * qw
    return out


# _qmul(p, q) = sum_j p_j T_j(q): row j of these holds the components of q,
# and their signs, that p_j meets in w, x, y, z of `Quaternion.__mul__`
_PRODUCT_PERM = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_PRODUCT_SIGNS = np.array([[1.0, 1.0, 1.0, 1.0], [-1.0, 1.0, -1.0, 1.0],
                           [-1.0, 1.0, 1.0, -1.0], [-1.0, -1.0, 1.0, 1.0]])


def _qpowers(q: np.ndarray, count: int) -> np.ndarray:
    """q^0, ..., q^count of every row of an (N, 4) array, shape (count + 1, N, 4).

    q^n = _qmul(q^{n-1}, q) bit for bit.  The sign-permuted table T_j(q) is
    built once; each power is then one broadcast product p_j T_j(q) and
    three sums over j in order, so every term and partial sum is _qmul's:
    s - a b and s + a (-b) round alike.  Only which NaN survives where two
    meet may differ (IEEE 754 leaves it open, and numpy may swap the
    operands of a sum).  The work runs on components first, (4, N), so
    every ufunc sweeps whole contiguous component rows; the result is a
    view with the components moved back to the last axis.
    """
    table = q.T[_PRODUCT_PERM] * _PRODUCT_SIGNS[..., None]         # (4, 4, N)
    out = np.empty((count + 1, 4, len(q)))
    out[0] = _ONE_ROW[:, None]
    terms = np.empty(table.shape)
    for n in range(1, count + 1):
        np.multiply(out[n - 1][:, None], table, out=terms)
        np.add(terms[0], terms[1], out=out[n])
        out[n] += terms[2]
        out[n] += terms[3]
    return out.transpose(0, 2, 1)


def _modulus_rows(rows: np.ndarray) -> np.ndarray:
    """|q| of every row of a (..., 4) array, shape (...); math.hypot per row.

    numpy has no four-argument hypot, and a sum of squares rounds otherwise,
    so each modulus is `Quaternion.modulus` of its row bit for bit.
    """
    w, x, y, z = rows.reshape(-1, 4).T.tolist()
    return np.fromiter(map(math.hypot, w, x, y, z), float, len(w)).reshape(rows.shape[:-1])


def _inverse_rows(rows: np.ndarray) -> np.ndarray:
    """q^{-1} of every row, as `Quaternion.inverse` forms it: (w, -x, -y, -z) / m / m.

    Rows of modulus below the inversion floor are not refused here: callers
    mask them out, as the scalar callers skip them.
    """
    m = _modulus_rows(rows)[..., None]
    return rows * _CONJ_SIGNS / m / m


def _unit_rows(units) -> np.ndarray:
    """Imaginary units as rows (x, y, z), shape (M, 3)."""
    return np.array([[u.x, u.y, u.z] for u in units]).reshape(-1, 3)


def _decompose_rows(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """decompose's im, shape (N, ...), and unit, (N, ..., 3), of rows (x, y, z).

    Both are taken in the terms and order of `Quaternion.imag_modulus` and
    decompose, so they equal the scalar forms bit for bit; a zero row takes
    the unit i.
    """
    x, y, z = vectors[..., 0], vectors[..., 1], vectors[..., 2]
    sq = x * x + y * y + z * z
    im = np.sqrt(sq)
    tiny = sq < sys.float_info.min
    if tiny.any():
        x, y, z = np.ldexp(vectors[tiny], _IMAG_SCALE).T
        im[tiny] = np.ldexp(np.sqrt(x * x + y * y + z * z), -_IMAG_SCALE)
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(im[..., None] == 0.0, _unit_rows([UNIT_I]),
                        vectors / im[..., None])
    sub = (im > 0.0) & (im < sys.float_info.min)
    if sub.any():
        scaled = np.ldexp(vectors[sub], _IMAG_SCALE)
        x, y, z = scaled.T
        unit[sub] = scaled / np.sqrt(x * x + y * y + z * z)[:, None]
    return im, unit


def _imaginary_rows(vectors: np.ndarray) -> np.ndarray:
    """Vectors (..., 3) as purely imaginary quaternion rows (0, x, y, z), (..., 4)."""
    return np.concatenate([np.zeros(vectors.shape[:-1] + (1,)), vectors], axis=-1)


def _rows(quaternions) -> np.ndarray:
    """Quaternions as rows (w, x, y, z), shape (K, 4)."""
    return np.array([[a.w, a.x, a.y, a.z] for a in quaternions]).reshape(-1, 4)


def _from_rows(rows: np.ndarray) -> tuple[Quaternion, ...]:
    """Rows (w, x, y, z) of a (K, 4) array as a tuple of quaternions."""
    return tuple(Quaternion(*row) for row in rows.tolist())
