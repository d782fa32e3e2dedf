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
the conversion of `Quaternion`s to rows (a series built from rows makes
its own `Quaternion`s, on demand).  Hot loops in series, kernels, fock
and verify work on whole tables at once through it.  Its product uses the
same formula, term order and rounding as `Quaternion.__mul__`, so an array
product equals the scalar one bit for bit.  The row moduli are taken with
`math.hypot` row by row, as `Quaternion.modulus` takes them (numpy has no
four-argument hypot, and a sum of squares rounds otherwise), and the row
inverse divides by the modulus twice, as `Quaternion.inverse` does.

Loops that run one point or one pair at a time, the scalar Horner
evaluation, the transformed point, the star reciprocal, the representation
formula and extend in series and the star exponential in kernels, run on
plain floats instead of constructing one `Quaternion` per step or calling
numpy: each step writes out the components of the `Quaternion` operators
or array rows it replaces, term for term and in the same order, so the
result equals theirs bit for bit.  Only the result is built as a
`Quaternion`.

`_qmul` is the one general array product.  A product whose right factor
repeats along a broadcast axis takes the table form instead: the
sign-permuted table T_j(q) of the right factor is built once
(`_product_table`), and `_table_mul` forms sum_j p_j T_j(q) with one
broadcast product and one ordered reduce, equal to `_qmul`'s bit for bit.
It works on components first, so its 2 ufunc calls sweep contiguous
component rows, against `_qmul`'s 28 on strided component views.  The
powers q^n = q^{n-1} q of `_qpowers`, the star product's a_k b_l
(series._convolve_rows) and atomic synthesis' zbar_k^n a_k take it: all
13 x 13 pairs of coefficient rows in about 11 us against 28 us by
`_qmul`, the powers of 49 rows to degree 32 in 0.11 ms against 0.44 ms
(2-vCPU Xeon host).  An elementwise product has no repeated factor to
tabulate, so it stays `_qmul`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

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
        # a Quaternion on the left multiplies in its own __mul__, so only a
        # scalar reaches here, and IEEE products commute
        return self.__mul__(other)

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
        *_, sq, e = _scaled_vector(self.x, self.y, self.z)
        return _unscaled_root(sq, e)


_SET_W, _SET_X, _SET_Y, _SET_Z = (Quaternion.__dict__[name].__set__
                                  for name in "wxyz")
ONE = Quaternion(1.0)


def _scaled_vector(x: float, y: float, z: float):
    """(x, y, z) 2^-e, the sum of their squares, and e.

    e = 0 where x^2 + y^2 + z^2 is a normal, finite float, so such a vector
    takes the plain sum of squares.  Elsewhere e is the frexp exponent of
    the largest |component|: the squares of the scaled components then sum
    to [1/4, 3), so neither a huge nor a tiny vector loses its norm.
    """
    sq = x * x + y * y + z * z
    if sys.float_info.min <= sq < math.inf:
        return x, y, z, sq, 0
    e = math.frexp(max(abs(x), abs(y), abs(z)))[1]
    x, y, z = math.ldexp(x, -e), math.ldexp(y, -e), math.ldexp(z, -e)
    return x, y, z, x * x + y * y + z * z, e


def _unscaled_root(sq: float, e: int) -> float:
    """sqrt(sq) 2^e for _scaled_vector's sq and e: the vector's norm, inf
    where the norm itself exceeds the largest float."""
    try:
        return math.ldexp(math.sqrt(sq), e)
    except OverflowError:
        return math.inf


def _direction(x: float, y: float, z: float, scaled) -> tuple[float, float, float]:
    """(x, y, z) / |(x, y, z)| from scaled = _scaled_vector(x, y, z).

    A non-finite component is refused by name.  It is the one case in
    which the square sum, scaled or not, is inf or NaN.
    """
    sx, sy, sz, sq, _ = scaled
    if not sq < math.inf:
        raise ValueError(f"imaginary unit direction must be finite, got {(x, y, z)!r}")
    n = math.sqrt(sq)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return sx / n, sy / n, sz / n


def _imag_parts(x: float, y: float, z: float) -> tuple[float, float, float, float]:
    """decompose's im and unit of the imaginary part (x, y, z), on floats.

    (im, ux, uy, uz): im as `Quaternion.imag_modulus` takes it and the unit
    as `ImaginaryUnit.normalized` does, bit for bit; the zero vector takes
    the unit i, and a non-finite component is refused as normalized
    refuses it.
    """
    scaled = _scaled_vector(x, y, z)
    im = _unscaled_root(scaled[3], scaled[4])
    if im == 0.0:
        return 0.0, 1.0, 0.0, 0.0
    return (im, *_direction(x, y, z, scaled))


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
        """(x, y, z) / |(x, y, z)|, for any finite nonzero vector (see _scaled_vector).

        A non-finite component is refused by name (see _direction).
        """
        return cls(*_direction(x, y, z, _scaled_vector(x, y, z)))

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
    im, ux, uy, uz = _imag_parts(q.x, q.y, q.z)
    return SliceCoords(q.w, im, UNIT_I if im == 0.0 else ImaginaryUnit(ux, uy, uz))


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
    keep the classical slices exercised.  Each call returns a fresh list of
    the cached units, so a caller that changes it changes no later call's.
    """
    return list(_default_sphere(count))


@lru_cache(maxsize=8)
def _default_sphere(count: int) -> tuple[ImaginaryUnit, ...]:
    units = sphere_sample(count)
    for extra in (UNIT_I, UNIT_J, UNIT_K):
        if all(u != extra for u in units):
            units.append(extra)
    return tuple(units)


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


def _product_table(q: np.ndarray) -> np.ndarray:
    """Sign-permuted table T_j(q) of (L, 4) rows, components first: (4, 4, L).

    T_j(q)[c] holds the component of q, with its sign, that p_j meets in
    component c of the product p q (see _table_mul).
    """
    return q.T[_PRODUCT_PERM] * _PRODUCT_SIGNS[..., None]


def _table_mul(p: np.ndarray, table: np.ndarray, out=None) -> np.ndarray:
    """Hamilton products sum_j p_j T_j(q), reduced over the first axis.

    p holds the left factors' components p_j on its first axis and table
    is _product_table(q), T_j(q) on its first axis and the product's
    components c on its second.  The caller moves and inserts axes so
    that p[j] broadcasts against table[j]: a length-1 axis in p where c
    runs, and one in table where the right factor repeats.  The result is
    p[j] * table[j] with the j axis reduced.  The reduce runs over j in
    order, -0.0 + t_0 + t_1 + t_2 + t_3, so every term and partial sum is
    _qmul's (s - a b and s + a (-b) round alike) and every product equals
    _qmul's bit for bit.  -0.0 + t is t for every t, where numpy's default
    start, +0.0, would turn a -0.0 sum into +0.0.  Only which NaN survives
    where two meet may differ: IEEE 754 leaves it open, and numpy may swap
    the operands of a sum.

    The terms are laid out in C order whatever the operands' layouts, so j
    is their outermost axis and numpy adds whole term blocks one by one;
    were j the contiguous axis, it would sum pairwise.  The result, unless
    out is given, is C-contiguous too, so a caller's later reduce over one
    of its outer axes runs in order as well.
    """
    return np.add.reduce(np.multiply(p, table, order="C"), axis=0, initial=-0.0,
                         out=out)


def _qpowers(q: np.ndarray, count: int) -> np.ndarray:
    """q^0, ..., q^count of every row of an (N, 4) array, shape (count + 1, N, 4).

    q^n = _qmul(q^{n-1}, q) bit for bit: the table T_j(q) is built once and
    each power is one _table_mul of the last.  The powers are kept
    components first, (count + 1, 4, N), so every ufunc sweeps whole
    contiguous component rows; the result is a view with the components
    moved back to the last axis.
    """
    table = _product_table(q)                                        # (4, 4, N)
    out = np.empty((count + 1, 4, len(q)))
    out[0] = _ONE_ROW[:, None]
    for n in range(1, count + 1):
        _table_mul(out[n - 1][:, None], table, out=out[n])
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
    decompose, so they equal the scalar forms bit for bit: a nonzero row
    whose square sum is not a normal float is scaled as _scaled_vector
    scales it, and a zero row takes the unit i.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        x, y, z = vectors[..., 0], vectors[..., 1], vectors[..., 2]
        sq = x * x + y * y + z * z
        im = np.sqrt(sq)
        odd = ~((sq >= sys.float_info.min) & (sq < np.inf)) & vectors.any(axis=-1)
        unit = np.where(im[..., None] == 0.0, _unit_rows([UNIT_I]),
                        vectors / im[..., None])
        if odd.any():
            e = np.frexp(np.abs(vectors[odd]).max(axis=-1))[1]
            scaled = np.ldexp(vectors[odd], -e[:, None])
            x, y, z = scaled.T
            n = np.sqrt(x * x + y * y + z * z)
            im[odd] = np.ldexp(n, e)
            unit[odd] = scaled / n[:, None]
    return im, unit


def _imaginary_rows(vectors: np.ndarray) -> np.ndarray:
    """Vectors (..., 3) as purely imaginary quaternion rows (0, x, y, z), (..., 4)."""
    return np.concatenate([np.zeros(vectors.shape[:-1] + (1,)), vectors], axis=-1)


def _rows(quaternions) -> np.ndarray:
    """Quaternions as rows (w, x, y, z), shape (K, 4).

    np.fromiter over one flat list of the components, which numpy reads
    faster than a nested list: 18 against 27 us for 98 quaternions.
    """
    return np.fromiter([c for a in quaternions for c in (a.w, a.x, a.y, a.z)],
                       float).reshape(-1, 4)
