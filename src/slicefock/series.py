"""Truncated quaternionic power series and their star-product algebra.

A series f(q) = sum_n q^n a_n has quaternion coefficients on the right and
powers of the variable on the left; that ordering makes f slice regular on
the ball where it converges.  Because the variable does not commute with the
coefficients the natural product is the star product (Cauchy convolution of
coefficients), not the pointwise one; the two are reconciled by

    (f * g)(q) = f(q) g(f(q)^{-1} q f(q))      whenever f(q) != 0,

and (f * g)(q) = 0 whenever f(q) = 0.

The module also provides the slice machinery: splitting a series into two
complex polynomials along an orthogonal pair (I, J), the inverse extension,
and evaluation anywhere in the ball from data on a single slice.

A SliceSeries has one state, whatever built it: its coefficient rows, a
read-only, C-contiguous (N, 4) array.  A series built from quaternions
turns them into rows at construction; star_mul, extend, truncate, dilate,
derivative, scale_right, embed and from_reals, the corpus draw, and
kernels.kernel_series and atomic_synthesis compute their rows directly.
Everything else is read from the rows, once, on first use: the float rows
the Horner loop reads, the series f^c and f^s = f * f^c, and the `coeffs`
tuple of `Quaternion`s.  The tuple is the rows' values bit for bit, so ==,
hash, repr and dataclasses.replace, which read `coeffs`, see one series
however it was built, and a pickle or copy is rebuilt from `coeffs` and
holds its own rows.  The float rows and the cached f^c and f^s take no
part in ==, hash, repr or pickling.

Each point formula has one body, written on four components that may be
floats or numpy arrays, in the terms and order of the `Quaternion`
operators: the Horner step (`_horner_rows`), v^{-1} q v (`_moved_point`),
the representation formula with its I_q I (`_represent`) and extend's
f1_n + f2_n J (`_join`).  eval, transform_point, rep_eval and extend run
it on floats for one point or pair, because a numpy call costs more than
the arithmetic at one point.  The private row forms `_eval_rows`,
`_transform_rows`, `_rep_eval_rows` and `_extend_rows` run it on component
arrays for verify's batches of points, units or pairs: they move the
component axis first, call the body and stack the result, so each row is
the one-point value bit for bit.  star_inverse_eval reads the float rows
of the cached f^c and f^s; its row form is two `_eval_rows` and one array
product.  split is a one-pair call of its row form, one batched solve.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (BadRadius, NotOrthogonal, SingularPoint, UnitMismatch,
                     ZeroValue, _require_positive_finite)
from .quaternion import (_CONJ_SIGNS, ImaginaryUnit, Quaternion, _decompose_rows,
                         _imag_parts, _inverse_rows, _modulus_rows, _product_table,
                         _qmul, _rows, _table_mul, _unit_rows)

__all__ = [
    "SliceSeries",
    "ComplexSlicePolynomial",
    "MultiMonomial",
    "MultiPolynomial",
    "star_mul",
    "regular_conjugate",
    "symmetrization",
    "star_inverse_eval",
    "transform_point",
    "split",
    "extend",
    "embed_complex",
    "rep_eval",
    "derivative",
    "dilate",
    "truncate",
    "tail_bound",
]

_SINGULAR_TOL = 1e-12
_ORTHOGONAL_TOL = 1e-10
_UNIT_MATCH_TOL = 1e-12


@dataclass(frozen=True)
class SliceSeries:
    """Truncated power series sum_{n=0}^{N} q^n a_n with a_n in H.

    `nominal_radius` records the ball the coefficients are meant for;
    evaluation outside it is legal but callers are expected to flag it.
    The coefficients are held as the rows `_coeff_rows` (see the module
    docstring); an empty tuple is the zero series.
    """

    coeffs: tuple[Quaternion, ...]
    nominal_radius: float = 1.0

    def __post_init__(self):
        _require_positive_finite("nominal_radius", self.nominal_radius)
        _hold_rows(self, _rows(self.__dict__.pop("coeffs")))

    @classmethod
    def _of_rows(cls, rows: np.ndarray, radius: float = 1.0) -> "SliceSeries":
        """Series whose coefficient rows are rows (N, 4); no rows is one zero row."""
        _require_positive_finite("nominal_radius", radius)
        f = object.__new__(cls)
        f.__dict__["nominal_radius"] = radius
        _hold_rows(f, rows)
        return f

    def __getattr__(self, name):
        # reached only when normal lookup fails: coeffs, on first read
        if name != "coeffs":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        coeffs = tuple(Quaternion(*row) for row in self._float_rows)
        self.__dict__["coeffs"] = coeffs
        return coeffs

    @classmethod
    def from_reals(cls, values, radius: float = 1.0) -> "SliceSeries":
        """Series with the real coefficients values: column 0 of zero rows."""
        reals = [float(v) for v in values]
        rows = np.zeros((len(reals), 4))
        rows[:, 0] = reals
        return cls._of_rows(rows, radius)

    @property
    def degree(self) -> int:
        return len(self._coeff_rows) - 1

    def __reduce__(self):
        # a copy is built from the coefficients, so it holds its own rows
        return type(self), (self.coeffs, self.nominal_radius)

    # The cached float rows, f^c and f^s.  cached_property stores each in the
    # instance __dict__ past the frozen __setattr__, on first use.  Building
    # one calls no public function and no `Quaternion` operator, so what a
    # call counts does not depend on whether they are already built.

    @cached_property
    def _float_rows(self) -> tuple:
        """Coefficients as (w, x, y, z) tuples of floats, for the Horner loop."""
        return tuple(map(tuple, self._coeff_rows.tolist()))

    @cached_property
    def _conj(self) -> "SliceSeries":
        """f^c, every coefficient conjugated; regular_conjugate returns it."""
        return SliceSeries._of_rows(self._coeff_rows * _CONJ_SIGNS, self.nominal_radius)

    @cached_property
    def _sym(self) -> "SliceSeries":
        """f^s = f * f^c, star_mul's rows bit for bit; symmetrization returns it."""
        return SliceSeries._of_rows(_convolve_rows(self._coeff_rows, self._conj._coeff_rows),
                                    self.nominal_radius)

    def eval(self, q: Quaternion) -> Quaternion:
        """Left-Horner evaluation a_0 + q(a_1 + q(a_2 + ...)).

        eval at q = 0 returns a_0 exactly.  The loop runs on floats (see
        _horner_rows), so only the result is built as a `Quaternion`.
        """
        return Quaternion(*_horner_rows(self._float_rows, q.w, q.x, q.y, q.z))

    def scale_right(self, c: Quaternion) -> "SliceSeries":
        """Series of q -> f(q) c, i.e. every coefficient multiplied by c."""
        return SliceSeries._of_rows(_qmul(self._coeff_rows, _rows([c])), self.nominal_radius)


@dataclass(frozen=True)
class ComplexSlicePolynomial:
    """Polynomial with coefficients in the slice C_I, stored as complex pairs.

    The pair (re, im) stands for re + im * I; complex arithmetic on the pairs
    matches quaternion arithmetic inside the commutative slice.
    """

    unit: ImaginaryUnit
    coeffs: tuple[complex, ...]

    def __post_init__(self):
        cs = tuple(complex(c) for c in self.coeffs)
        if not cs:
            cs = (0j,)
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval(self, z: complex) -> complex:
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = z * acc + c
        return acc

    def derivative(self, order: int = 1) -> "ComplexSlicePolynomial":
        return _derivative(self, order, self.coeffs, lambda scales, cs: ComplexSlicePolynomial(
            self.unit, tuple(s * c for s, c in zip(scales, cs))))

    def embed(self) -> SliceSeries:
        """The same polynomial as a quaternionic series with C_I coefficients.

        Its rows are (re, im x, im y, im z), as embed_complex forms them.
        """
        cs, unit = np.array(self.coeffs), self.unit
        return SliceSeries._of_rows(np.stack(
            [cs.real, cs.imag * unit.x, cs.imag * unit.y, cs.imag * unit.z], axis=1))


@dataclass(frozen=True)
class MultiMonomial:
    """Monomial z^m a_m = z_1^{m_1} ... z_n^{m_n} a_m in n slice variables."""

    multi_index: tuple[int, ...]
    coeff: Quaternion

    def __post_init__(self):
        m = tuple(int(v) for v in self.multi_index)
        if not m or any(v < 0 for v in m):
            raise ValueError("multi-index must be nonempty with entries >= 0")
        object.__setattr__(self, "multi_index", m)

    @property
    def total_degree(self) -> int:
        return sum(self.multi_index)

    def slice_eval(self, zs, unit: ImaginaryUnit) -> Quaternion:
        """Value at (z_1, ..., z_n) in C_I^n; full H^n evaluation is not defined."""
        if len(zs) != len(self.multi_index):
            raise ValueError("point dimension does not match the multi-index")
        prod = complex(1.0)
        for z, m in zip(zs, self.multi_index):
            prod *= complex(z) ** m
        return embed_complex(prod, unit) * self.coeff


@dataclass(frozen=True)
class MultiPolynomial:
    """Finite sum of multi-monomials in n slice variables, evaluated on slices."""

    n: int
    monomials: tuple[MultiMonomial, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        ms = tuple(self.monomials)
        for mono in ms:
            if len(mono.multi_index) != self.n:
                raise ValueError("monomial dimension does not match n")
        object.__setattr__(self, "monomials", ms)

    def slice_eval(self, zs, unit: ImaginaryUnit) -> Quaternion:
        acc = Quaternion()
        for mono in self.monomials:
            acc = acc + mono.slice_eval(zs, unit)
        return acc


def embed_complex(c: complex, unit: ImaginaryUnit) -> Quaternion:
    """The quaternion re(c) + im(c) * I for the given slice unit."""
    return Quaternion(c.real, c.imag * unit.x, c.imag * unit.y, c.imag * unit.z)


def _hold_rows(f: SliceSeries, rows: np.ndarray) -> None:
    """Store rows (N, 4), C-contiguous and read-only, as f's coefficient rows.

    They are the series' one state: coeffs, the float rows, f^c and f^s are
    read from them.  No rows (N = 0) is one zero row.
    """
    rows = np.ascontiguousarray(rows) if len(rows) else np.zeros((1, 4))
    rows.flags.writeable = False
    f.__dict__["_coeff_rows"] = rows


# The point bodies.  Each takes its quaternions as four components, Python
# floats for one point (a series' cached float rows feed the Horner loop) or
# numpy arrays that broadcast against each other for many, and writes every
# product and sum out in the terms and order of the `Quaternion` operators,
# so a value is the operator form's bit for bit, on floats and on arrays.

def _horner_rows(rows, qw, qx, qy, qz):
    """Components of sum_n q^n a_n, each step `q * acc + a` written out.

    rows is a sequence of coefficient rows (w, x, y, z): tuples of floats,
    or an array (K, 4, ...) whose components broadcast against q's.
    """
    aw, ax, ay, az = rows[-1]
    for bw, bx, by, bz in reversed(rows[:-1]):
        aw, ax, ay, az = (qw * aw - qx * ax - qy * ay - qz * az + bw,
                          qw * ax + qx * aw + qy * az - qz * ay + bx,
                          qw * ay - qx * az + qy * aw + qz * ax + by,
                          qw * az + qx * ay - qy * ax + qz * aw + bz)
    return aw, ax, ay, az


def _moved_point(v, m, q):
    """Components of v^{-1} q v, from v's and q's components and m = |v|.

    v^{-1} is formed as `Quaternion.inverse` forms it, dividing by m twice.
    """
    vw, vx, vy, vz = v
    qw, qx, qy, qz = q
    iw, ix, iy, iz = vw / m / m, -vx / m / m, -vy / m / m, -vz / m / m   # v^{-1}
    aw, ax, ay, az = (iw * qw - ix * qx - iy * qy - iz * qz,             # v^{-1} q
                      iw * qx + ix * qw + iy * qz - iz * qy,
                      iw * qy - ix * qz + iy * qw + iz * qx,
                      iw * qz + ix * qy - iy * qx + iz * qw)
    return (aw * vw - ax * vx - ay * vy - az * vz,
            aw * vx + ax * vw + ay * vz - az * vy,
            aw * vy - ax * vz + ay * vw + az * vx,
            aw * vz + ax * vy - ay * vx + az * vw)


def _represent(rows, re, im, point_unit, unit):
    """Components of (1 - I_q I) f(zp) / 2 + (1 + I_q I) f(zm) / 2.

    f has the coefficient rows rows (as _horner_rows reads them), the point
    is re + im I_q with I_q = point_unit (x, y, z), and zp, zm = re +- im I
    for unit = I.
    """
    ix, iy, iz = point_unit
    ux, uy, uz = unit
    pw, px, py, pz = _horner_rows(rows, re, im * ux, im * uy, im * uz)      # f(zp)
    mw, mx, my, mz = _horner_rows(rows, re, -im * ux, -im * uy, -im * uz)   # f(zm)
    # I_q I as (0, I_q) * (0, I); the 0.0 * terms keep the signs of zeros
    cw = 0.0 * 0.0 - ix * ux - iy * uy - iz * uz
    cx = 0.0 * ux + ix * 0.0 + iy * uz - iz * uy
    cy = 0.0 * uy - ix * uz + iy * 0.0 + iz * ux
    cz = 0.0 * uz + ix * uy - iy * ux + iz * 0.0
    aw, ax, ay, az = 1.0 - cw, 0.0 - cx, 0.0 - cy, 0.0 - cz                # 1 - I_q I
    bw, bx, by, bz = 1.0 + cw, 0.0 + cx, 0.0 + cy, 0.0 + cz                # 1 + I_q I
    return (0.5 * ((aw * pw - ax * px - ay * py - az * pz)
                   + (bw * mw - bx * mx - by * my - bz * mz)),
            0.5 * ((aw * px + ax * pw + ay * pz - az * py)
                   + (bw * mx + bx * mw + by * mz - bz * my)),
            0.5 * ((aw * py - ax * pz + ay * pw + az * px)
                   + (bw * my - bx * mz + by * mw + bz * mx)),
            0.5 * ((aw * pz + ax * py - ay * px + az * pw)
                   + (bw * mz + bx * my - by * mx + bz * mw)))


def _join(aw, ai, bw, bi, unit_i, unit_j):
    """Components of embed_complex(f1_n) + embed_complex(f2_n) * J.

    f1_n = aw + ai I and f2_n = bw + bi I, and unit_i and unit_j are I's
    and J's components (x, y, z).  The `* 0.0` terms are J's zero real
    part, so signed zeros come out as the operators make them.
    """
    ux, uy, uz = unit_i
    jx, jy, jz = unit_j
    bx, by, bz = bi * ux, bi * uy, bi * uz                      # embed_complex(f2_n)
    return (bw * 0.0 - bx * jx - by * jy - bz * jz + aw,        # f2_n J + f1_n
            bw * jx + bx * 0.0 + by * jz - bz * jy + ai * ux,
            bw * jy - bx * jz + by * 0.0 + bz * jx + ai * uy,
            bw * jz + bx * jy - by * jx + bz * 0.0 + ai * uz)


def _convolve_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficient rows of the star product, c_n = sum_k a_k b_{n-k}, (K + L - 1, 4).

    a (K, 4) and b (L, 4) are coefficient rows.  Each c_n sums its terms
    over ascending k from +0.0.
    """
    size, width = len(a), len(b)
    # every a_k b_l by the table form (b repeats along k), written
    # components first into rows of width + size zeros: the flat offset of
    # a_k b_l in a component is k (width + size) + l.  Read with row stride
    # width + size - 1, row k then holds a_k b_{n-k} at column n and +0.0
    # elsewhere.
    buf = np.zeros((4, size, width + size))
    _table_mul(a.T[:, None, :, None], _product_table(b)[:, :, None, :],
               out=buf[..., :width])
    skew = np.ndarray((4, size, size + width - 1), buffer=buf,
                      strides=(buf.strides[0], buf.strides[1] - buf.itemsize,
                               buf.itemsize))
    # one reduce over k in ascending order (k is not the contiguous axis, so
    # numpy adds row by row): 0.0 + t_0 + t_1 + ..., where a BLAS product or
    # np.sum would reduce in a shape-dependent order.  A sum started at +0.0
    # is never -0.0, so the +0.0 outside a_k's columns changes no bit.
    return np.add.reduce(skew, axis=1, initial=0.0).T.copy()


def star_mul(f: SliceSeries, g: SliceSeries) -> SliceSeries:
    """Star product: coefficient convolution c_n = sum_k a_k b_{n-k}.

    The sum runs over ascending k so the reduction order is fixed.
    """
    out = _convolve_rows(f._coeff_rows, g._coeff_rows)
    return SliceSeries._of_rows(out, min(f.nominal_radius, g.nominal_radius))


def regular_conjugate(f: SliceSeries) -> SliceSeries:
    """Series f^c with every coefficient conjugated, cached on f."""
    return f._conj


def symmetrization(f: SliceSeries) -> SliceSeries:
    """f^s = f * f^c; its coefficients are real up to rounding.

    Cached on f, and equal to star_mul(f, regular_conjugate(f)) bit for bit.
    """
    return f._sym


def star_inverse_eval(f: SliceSeries, q: Quaternion) -> Quaternion:
    """Value of the star reciprocal, (f^s(q))^{-1} f^c(q).

    Only the pointwise value is formed; the reciprocal is not a polynomial
    so no series object exists for it.  The float rows of f's cached f^c and
    f^s are evaluated by the float Horner loop, so the value is that of
    symmetrization(f).eval(q).inverse() * regular_conjugate(f).eval(q) bit
    for bit.  Raises SingularPoint at (numerical) zeros of the
    symmetrization.
    """
    qw, qx, qy, qz = q.w, q.x, q.y, q.z
    s = Quaternion(*_horner_rows(f._sym._float_rows, qw, qx, qy, qz))
    if s.modulus() < _SINGULAR_TOL:
        raise SingularPoint(
            f"symmetrization vanishes at this point (|f^s(q)| = {s.modulus():.3e})")
    return s.inverse() * Quaternion(*_horner_rows(f._conj._float_rows, qw, qx, qy, qz))


def transform_point(f: SliceSeries, q: Quaternion) -> Quaternion:
    """Conjugated point f(q)^{-1} q f(q) appearing in the pointwise star formula.

    Preserves the real part and the modulus of q, so the result stays on the
    same sphere x + y*S.  Raises ZeroValue when f(q) is numerically zero.
    It runs on floats: v = f(q) by the Horner loop, |v| by math.hypot and
    v^{-1} q v by _moved_point, so the value is v.inverse() * q * v bit for
    bit.
    """
    point = q.w, q.x, q.y, q.z
    v = _horner_rows(f._float_rows, *point)
    m = math.hypot(*v)
    if m < _SINGULAR_TOL:
        raise ZeroValue(f"function vanishes at this point (|f(q)| = {m:.3e})")
    return Quaternion(*_moved_point(v, m, point))


def _check_orthogonal(unit_i: ImaginaryUnit, unit_j: ImaginaryUnit) -> None:
    d = unit_i.dot(unit_j)
    if abs(d) >= _ORTHOGONAL_TOL:
        raise NotOrthogonal(f"<I, J> = {d!r} is not zero to working precision")


def split(f: SliceSeries, unit_i: ImaginaryUnit, unit_j: ImaginaryUnit,
          ) -> tuple[ComplexSlicePolynomial, ComplexSlicePolynomial]:
    """Components f_1, f_2 with f = f_1 + f_2 * J and C_I coefficients.

    One pair of _split_rows: a single solve in the orthonormal basis
    {1, I, J, IJ}, with one right-hand side per coefficient.  extend()
    inverts it exactly up to rounding.
    """
    _check_orthogonal(unit_i, unit_j)
    parts = _split_rows(f._coeff_rows, *_unit_rows([unit_i, unit_j]))
    c1, c2 = np.ascontiguousarray(parts).view(complex).T.tolist()
    return (ComplexSlicePolynomial(unit_i, tuple(c1)),
            ComplexSlicePolynomial(unit_i, tuple(c2)))


def extend(f1: ComplexSlicePolynomial, f2: ComplexSlicePolynomial,
           unit_j: ImaginaryUnit) -> SliceSeries:
    """Series with coefficients a_n = f1_n + f2_n * J, inverse of split().

    The shorter component is padded with zeros.  One pair runs _join on
    floats, coefficient by coefficient, so the coefficients are
    _extend_rows' bit for bit, signed zeros too.
    """
    if (abs(f1.unit.x - f2.unit.x) > _UNIT_MATCH_TOL
            or abs(f1.unit.y - f2.unit.y) > _UNIT_MATCH_TOL
            or abs(f1.unit.z - f2.unit.z) > _UNIT_MATCH_TOL):
        raise UnitMismatch("component polynomials live on different slices")
    _check_orthogonal(f1.unit, unit_j)
    unit_i = f1.unit.x, f1.unit.y, f1.unit.z
    unit_j = unit_j.x, unit_j.y, unit_j.z
    width = max(len(f1.coeffs), len(f2.coeffs))
    return SliceSeries._of_rows(np.fromiter([
        c for a, b in zip(f1.coeffs + (0j,) * (width - len(f1.coeffs)),
                          f2.coeffs + (0j,) * (width - len(f2.coeffs)))
        for c in _join(a.real, a.imag, b.real, b.imag, unit_i, unit_j)], float).reshape(-1, 4))


def rep_eval(f: SliceSeries, unit: ImaginaryUnit, q: Quaternion) -> Quaternion:
    """Value at q reconstructed from the slice C_I alone.

    Uses the representation formula

        f(q) = (1 - I_q I) f(x + yI) / 2 + (1 + I_q I) f(x - yI) / 2

    for q = x + y*I_q, which collapses to plain evaluation when q lies in
    C_I and to f(x) when q is real.  It runs on floats: y and I_q as
    decompose takes them (a non-finite direction is refused with its
    ValueError), then _represent, so the value is the `Quaternion`
    operators' bit for bit.
    """
    im, *point_unit = _imag_parts(q.x, q.y, q.z)
    return Quaternion(*_represent(f._float_rows, q.w, im, point_unit,
                                  (unit.x, unit.y, unit.z)))


# ---------------------------------------------------------------------------
# row forms: many points, units or pairs at once.  Each runs its one-point
# body on component arrays, so each row equals the one-point value bit for bit
# ---------------------------------------------------------------------------

def _row_table(tables) -> np.ndarray:
    """Row tables (N_j, 4) of several series, zero-padded at the top, (len, K, 4)."""
    out = np.zeros((len(tables), max(map(len, tables)), 4))
    for row, table in zip(out, tables):
        row[:len(table)] = table
    return out


def _components(rows: np.ndarray) -> np.ndarray:
    """Rows (..., C) with the component axis first, (C, ...), as the bodies read them."""
    return np.moveaxis(rows, -1, 0)


def _stacked(parts, *shapes) -> np.ndarray:
    """Components (w, x, y, z), broadcast to the shapes' broadcast, as rows (..., 4)."""
    out = np.empty(np.broadcast_shapes(*shapes) + (4,))
    for c, part in enumerate(parts):
        out[..., c] = part
    return out


def _eval_rows(table: np.ndarray, points: np.ndarray) -> np.ndarray:
    """SliceSeries.eval on rows: coefficient tables (..., K, 4) at points (..., 4).

    The tables broadcast against the points.  Tables of series of different
    degree are zero-padded at the top (_row_table); a leading zero
    coefficient changes nothing, as q 0 + a = a up to the sign of a zero.
    """
    # the table's coefficients first, then its components: (K, 4, ...)
    return _stacked(_horner_rows(np.moveaxis(table, (-2, -1), (0, 1)), *_components(points)),
                    table.shape[:-2], points.shape[:-1])


def _transform_rows(values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """transform_point on rows, v^{-1} q v, from the values v = f(q).

    Rows with v = 0 are not refused: callers mask them out.
    """
    return _stacked(_moved_point(_components(values), _modulus_rows(values),
                                 _components(points)), values.shape[:-1], points.shape[:-1])


def _star_inverse_rows(sym: np.ndarray, fc: np.ndarray,
                       points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """star_inverse_eval on rows: (f^s(q))^{-1} f^c(q), and |f^s(q)|.

    sym and fc are the coefficient tables of f^s and f^c.  A row whose
    |f^s(q)| is below _SINGULAR_TOL, where the scalar form raises
    SingularPoint, is left for the caller to mask.
    """
    s = _eval_rows(sym, points)
    return _qmul(_inverse_rows(s), _eval_rows(fc, points)), _modulus_rows(s)


def _rep_eval_rows(table: np.ndarray, units: np.ndarray,
                   points: np.ndarray) -> np.ndarray:
    """rep_eval on rows: coefficient tables (..., K, 4), units (..., 3), points (..., 4).

    Slice coordinates as decompose forms them (a real point takes the unit
    i), then _represent.
    """
    im, point_unit = _decompose_rows(points[..., 1:])
    return _stacked(_represent(np.moveaxis(table, (-2, -1), (0, 1)), points[..., 0], im,
                               _components(point_unit), _components(units)),
                    table.shape[:-2], units.shape[:-1], points.shape[:-1])


def _split_rows(coeffs: np.ndarray, units_i: np.ndarray,
                units_j: np.ndarray) -> np.ndarray:
    """split on rows: components (re f1, im f1, re f2, im f2) per coefficient.

    coeffs (..., K, 4) broadcasts against the units (..., 3) of the pairs;
    the result has shape (..., K, 4).  One batched np.linalg.solve on the
    (..., 4, 4) bases {1, I, J, IJ}, with K right-hand sides each.  LAPACK
    solves each basis alone, so a pair's components are those of a
    one-pair call bit for bit, as long as K is the same: the right-hand
    side count changes the rounding, so tables are never padded here.
    """
    basis = np.zeros(np.broadcast_shapes(units_i.shape, units_j.shape)[:-1] + (4, 4))
    basis[..., 0, 0] = 1.0
    basis[..., 1:, 1] = units_i
    basis[..., 1:, 2] = units_j
    basis[..., :, 3] = _qmul(basis[..., :, 1], basis[..., :, 2])        # IJ
    return np.linalg.solve(basis, np.swapaxes(coeffs, -1, -2)).swapaxes(-1, -2)


def _extend_rows(parts: np.ndarray, units_i: np.ndarray,
                 units_j: np.ndarray) -> np.ndarray:
    """extend on rows, the inverse of _split_rows: a_n = f1_n + f2_n J, (..., K, 4).

    parts (..., K, 4) holds (re f1_n, im f1_n, re f2_n, im f2_n); each table's
    units (..., 3) broadcast along its K coefficients into _join.
    """
    units_i, units_j = units_i[..., None, :], units_j[..., None, :]
    return _stacked(_join(*_components(parts), _components(units_i), _components(units_j)),
                    parts.shape[:-1], units_i.shape[:-1], units_j.shape[:-1])


def derivative(f: SliceSeries, order: int = 1) -> SliceSeries:
    """Slice derivative of the given order: b_k = (k+t)!/k! * a_{k+t}.

    The order is an integer (operator.index): a float is refused, not
    rounded or taken as an order past the degree.
    """
    return _derivative(f, order, f._coeff_rows, lambda scales, rows: SliceSeries._of_rows(
        rows * np.array(scales).reshape(-1, 1), f.nominal_radius))


def _derivative(f, order, coeffs, build):
    """derivative's body for both coefficient types: f itself at order 0, else
    build(scales, coeffs[t:]) with b_k = scales[k] * a_{k+t}.

    scales[k] = float((k+t)!/k!), which is what an int factor rounds to in a
    float or complex product, so b_k is `(k+t)!/k! * a_{k+t}` bit for bit.
    Both are empty past f's degree: build makes that the zero series.
    """
    order = operator.index(order)
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    if order == 0:
        return f
    return build([float(math.perm(k + order, order)) for k in range(len(coeffs) - order)],
                 coeffs[order:])


def dilate(f: SliceSeries, r: float) -> SliceSeries:
    """Dilated series f_r(q) = f(rq), i.e. a_k -> r^k a_k, for 0 < r <= 1."""
    if not 0.0 < r <= 1.0:
        raise BadRadius(f"dilation factor must lie in (0, 1], got {r!r}")
    if r == 1.0:
        return f
    scales = np.full((len(f._coeff_rows), 1), r)
    scales[0] = 1.0
    # 1, r, r r, ... as one running product, in the order of `scale *= r`
    return SliceSeries._of_rows(np.multiply.accumulate(scales) * f._coeff_rows,
                                f.nominal_radius)


def _truncation_degree(degree) -> int:
    """degree as an int (operator.index), refused with ValueError if negative."""
    degree = operator.index(degree)
    if degree < 0:
        raise ValueError("truncation degree must be nonnegative")
    return degree


def truncate(f: SliceSeries, degree: int) -> SliceSeries:
    """Series with coefficients beyond the given degree dropped."""
    return SliceSeries._of_rows(f._coeff_rows[:_truncation_degree(degree) + 1],
                                f.nominal_radius)


def tail_bound(f: SliceSeries, point_modulus: float, degree: int) -> float:
    """Bound sum_{k > degree} |q|^k |a_k| on |f(q) - truncate(f, degree)(q)|.

    The terms are summed on a power-of-two scale, so a representable bound
    is returned even where |q|^k alone overflows or underflows.  The degree
    is an integer (operator.index) and nonnegative, as truncate's is: a
    negative degree raises ValueError.  A bound that overflows a float is
    inf, and so is the bound at an infinite modulus; a negative or NaN
    modulus is refused.
    """
    degree = _truncation_degree(degree)
    if not point_modulus >= 0.0:
        raise ValueError(f"point_modulus must be nonnegative, got {point_modulus!r}")
    if degree >= f.degree:
        return 0.0
    mant, step = math.frexp(point_modulus)
    power, shift = 1.0, 0          # |q|^k = power 2^shift, power in [1/2, 1)
    terms = []                     # (m, e) for the term m 2^e
    for k, a in enumerate(f._float_rows[1:], 1):
        power, e = math.frexp(power * mant)
        shift += step + e
        if k > degree:
            m, e = math.frexp(math.hypot(*a))
            if m:                  # skip zeros: an infinite power never meets 0
                terms.append((power * m, shift + e))
    if not terms:
        return 0.0
    top = max(e for _, e in terms)
    total = math.fsum(math.ldexp(m, e - top) for m, e in terms)
    try:
        return math.ldexp(total, top)
    except OverflowError:
        return math.inf
