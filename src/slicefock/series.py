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

Private row forms evaluate many points, units or pairs at once on
quaternion rows (see quaternion.py): the Horner evaluation `_eval_rows`,
the transformed point, the star reciprocal, the representation formula,
and split/extend as `_split_rows`/`_extend_rows`.  Each row equals its
scalar counterpart bit for bit.  split and extend are one-pair calls of
their row forms; the scalar eval, transform_point, star_inverse_eval and
rep_eval keep their own loops, because a numpy call costs more than the
arithmetic at one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BadRadius, NotOrthogonal, SingularPoint, UnitMismatch,
                     ZeroValue)
from .quaternion import (_ONE_ROW, UNIT_I, ImaginaryUnit, Quaternion,
                         _from_rows, _imaginary_rows, _inverse_rows,
                         _modulus_rows, _qmul, _rows, _unit_rows, decompose)

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
    """

    coeffs: tuple[Quaternion, ...]
    nominal_radius: float = 1.0

    def __post_init__(self):
        cs = tuple(self.coeffs)
        if not cs:
            cs = (Quaternion(),)
        object.__setattr__(self, "coeffs", cs)
        if not self.nominal_radius > 0.0:
            raise ValueError("nominal_radius must be positive")

    @classmethod
    def from_reals(cls, values, radius: float = 1.0) -> "SliceSeries":
        return cls(tuple(Quaternion(float(v)) for v in values), radius)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval(self, q: Quaternion) -> Quaternion:
        """Left-Horner evaluation a_0 + q(a_1 + q(a_2 + ...)).

        eval at q = 0 returns a_0 exactly.  The loop runs on floats: each
        step is `q * acc + a` written out in the terms and order of
        `Quaternion.__mul__` and `__add__`, so the value is the same bit for
        bit and only the result is built as a `Quaternion`.
        """
        acc = self.coeffs[-1]
        qw, qx, qy, qz = q.w, q.x, q.y, q.z
        aw, ax, ay, az = acc.w, acc.x, acc.y, acc.z
        for a in reversed(self.coeffs[:-1]):
            aw, ax, ay, az = (qw * aw - qx * ax - qy * ay - qz * az + a.w,
                              qw * ax + qx * aw + qy * az - qz * ay + a.x,
                              qw * ay - qx * az + qy * aw + qz * ax + a.y,
                              qw * az + qx * ay - qy * ax + qz * aw + a.z)
        return Quaternion(aw, ax, ay, az)

    def scale_right(self, c: Quaternion) -> "SliceSeries":
        """Series of q -> f(q) c, i.e. every coefficient multiplied by c."""
        return SliceSeries(tuple(a * c for a in self.coeffs), self.nominal_radius)


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
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        if order == 0:
            return self
        if order > self.degree:
            return ComplexSlicePolynomial(self.unit, (0j,))
        out = tuple(math.perm(k + order, order) * self.coeffs[k + order]
                    for k in range(len(self.coeffs) - order))
        return ComplexSlicePolynomial(self.unit, out)

    def embed(self) -> SliceSeries:
        """The same polynomial as a quaternionic series with C_I coefficients."""
        return SliceSeries(tuple(embed_complex(c, self.unit) for c in self.coeffs))


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


def star_mul(f: SliceSeries, g: SliceSeries) -> SliceSeries:
    """Star product: coefficient convolution c_n = sum_k a_k b_{n-k}.

    The sum runs over ascending k so the reduction order is fixed.
    """
    n, m = f.degree, g.degree
    prod = _qmul(_rows(f.coeffs)[:, None], _rows(g.coeffs))    # a_k b_l
    out = np.zeros((n + m + 1, 4))
    # one row of products per k, added in ascending k: every c_n sums its
    # terms in the order above.  A BLAS product or np.sum would reduce in a
    # shape-dependent order and change the rounding.
    for k in range(n + 1):
        out[k:k + m + 1] += prod[k]
    return SliceSeries(_from_rows(out), min(f.nominal_radius, g.nominal_radius))


def regular_conjugate(f: SliceSeries) -> SliceSeries:
    """Series f^c with every coefficient conjugated."""
    return SliceSeries(tuple(a.conjugate() for a in f.coeffs), f.nominal_radius)


def symmetrization(f: SliceSeries) -> SliceSeries:
    """f^s = f * f^c; its coefficients are real up to rounding."""
    return star_mul(f, regular_conjugate(f))


def star_inverse_eval(f: SliceSeries, q: Quaternion) -> Quaternion:
    """Value of the star reciprocal, (f^s(q))^{-1} f^c(q).

    Only the pointwise value is formed; the reciprocal is not a polynomial
    so no series object exists for it.  Raises SingularPoint at (numerical)
    zeros of the symmetrization.
    """
    fc = regular_conjugate(f)
    return _star_inverse_at(star_mul(f, fc), fc, q)


def _star_inverse_at(sym: SliceSeries, fc: SliceSeries, q: Quaternion) -> Quaternion:
    """star_inverse_eval given f^s = sym and f^c = fc, formed once per function."""
    s = sym.eval(q)
    if s.modulus() < _SINGULAR_TOL:
        raise SingularPoint(
            f"symmetrization vanishes at this point (|f^s(q)| = {s.modulus():.3e})")
    return s.inverse() * fc.eval(q)


def transform_point(f: SliceSeries, q: Quaternion) -> Quaternion:
    """Conjugated point f(q)^{-1} q f(q) appearing in the pointwise star formula.

    Preserves the real part and the modulus of q, so the result stays on the
    same sphere x + y*S.  Raises ZeroValue when f(q) is numerically zero.
    """
    v = f.eval(q)
    if v.modulus() < _SINGULAR_TOL:
        raise ZeroValue(f"function vanishes at this point (|f(q)| = {v.modulus():.3e})")
    return v.inverse() * q * v


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
    parts = _split_rows(_rows(f.coeffs), *_unit_rows([unit_i, unit_j]))
    c1, c2 = np.ascontiguousarray(parts).view(complex).T.tolist()
    return (ComplexSlicePolynomial(unit_i, tuple(c1)),
            ComplexSlicePolynomial(unit_i, tuple(c2)))


def extend(f1: ComplexSlicePolynomial, f2: ComplexSlicePolynomial,
           unit_j: ImaginaryUnit) -> SliceSeries:
    """Series with coefficients a_n = f1_n + f2_n * J, inverse of split().

    One pair of _extend_rows; the shorter component is padded with zeros.
    """
    if (abs(f1.unit.x - f2.unit.x) > _UNIT_MATCH_TOL
            or abs(f1.unit.y - f2.unit.y) > _UNIT_MATCH_TOL
            or abs(f1.unit.z - f2.unit.z) > _UNIT_MATCH_TOL):
        raise UnitMismatch("component polynomials live on different slices")
    _check_orthogonal(f1.unit, unit_j)
    parts = np.zeros((max(len(f1.coeffs), len(f2.coeffs)), 2), complex)
    parts[:len(f1.coeffs), 0] = f1.coeffs
    parts[:len(f2.coeffs), 1] = f2.coeffs
    out = _extend_rows(parts.view(float), *_unit_rows([f1.unit, unit_j]))
    return SliceSeries(_from_rows(out))


def rep_eval(f: SliceSeries, unit: ImaginaryUnit, q: Quaternion) -> Quaternion:
    """Value at q reconstructed from the slice C_I alone.

    Uses the representation formula

        f(q) = (1 - I_q I) f(x + yI) / 2 + (1 + I_q I) f(x - yI) / 2

    for q = x + y*I_q, which collapses to plain evaluation when q lies in
    C_I and to f(x) when q is real.
    """
    sc = decompose(q)
    zp = Quaternion(sc.re, sc.im * unit.x, sc.im * unit.y, sc.im * unit.z)
    zm = Quaternion(sc.re, -sc.im * unit.x, -sc.im * unit.y, -sc.im * unit.z)
    prod = sc.unit.as_quaternion() * unit.as_quaternion()
    one = Quaternion(1.0)
    return 0.5 * ((one - prod) * f.eval(zp) + (one + prod) * f.eval(zm))


# ---------------------------------------------------------------------------
# row forms: many points, units or pairs at once, each row equal to its
# scalar counterpart bit for bit
# ---------------------------------------------------------------------------

def _coeff_table(fs) -> np.ndarray:
    """Coefficient rows of several series, zero-padded at the top, (len(fs), K, 4)."""
    table = np.zeros((len(fs), max(len(f.coeffs) for f in fs), 4))
    for row, f in zip(table, fs):
        row[:len(f.coeffs)] = _rows(f.coeffs)
    return table


def _eval_rows(table: np.ndarray, points: np.ndarray) -> np.ndarray:
    """SliceSeries.eval on rows: coefficient tables (..., K, 4) at points (..., 4).

    A left Horner, acc = q acc + a_k through _qmul: every step is eval's
    `q * acc + a` in the same terms and order, so every value is the same
    bit for bit.  The tables broadcast against the points.  Tables of
    series of different degree are zero-padded at the top (_coeff_table);
    a leading zero coefficient changes nothing, as q 0 + a = a up to the
    sign of a zero.
    """
    shape = np.broadcast_shapes(table.shape[:-2] + (4,), points.shape)
    acc = np.broadcast_to(table[..., -1, :], shape).copy()
    for k in range(table.shape[-2] - 2, -1, -1):
        acc = _qmul(points, acc)
        acc += table[..., k, :]
    return acc


def _transform_rows(values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """transform_point on rows, v^{-1} q v, from the values v = f(q).

    Rows with v = 0 are not refused: callers mask them out.
    """
    return _qmul(_qmul(_inverse_rows(values), points), values)


def _star_inverse_rows(sym: np.ndarray, fc: np.ndarray,
                       points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_star_inverse_at on rows: (f^s(q))^{-1} f^c(q), and |f^s(q)|.

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
    i), then the representation formula in rep_eval's terms and order.
    """
    re, vec = points[..., :1], points[..., 1:]
    im = np.sqrt(vec[..., 0] * vec[..., 0] + vec[..., 1] * vec[..., 1]
                 + vec[..., 2] * vec[..., 2])[..., None]
    with np.errstate(invalid="ignore", divide="ignore"):
        point_unit = np.where(im == 0.0, _unit_rows([UNIT_I]), vec / im)
    zp = np.concatenate([re, im * units], axis=-1)
    zm = np.concatenate([re, -im * units], axis=-1)
    prod = _qmul(_imaginary_rows(point_unit), _imaginary_rows(units))
    return 0.5 * (_qmul(_ONE_ROW - prod, _eval_rows(table, zp))
                  + _qmul(_ONE_ROW + prod, _eval_rows(table, zm)))


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


# the columns (re, im, im, im) of the first and second component in a part row
_FIRST, _SECOND = np.array([0, 1, 1, 1]), np.array([2, 3, 3, 3])


def _extend_rows(parts: np.ndarray, units_i: np.ndarray,
                 units_j: np.ndarray) -> np.ndarray:
    """extend on rows, the inverse of _split_rows: a_n = f1_n + f2_n J, (..., K, 4).

    Each coefficient is embed_complex(f1_n) + embed_complex(f2_n) * J in the
    terms and order of the `Quaternion` operators.
    """
    # (re, im, im, im) (1, ux, uy, uz) = (re, im ux, im uy, im uz), as embed_complex
    scale = np.ones(units_i.shape[:-1] + (1, 4))
    scale[..., 0, 1:] = units_i
    out = _qmul(parts[..., _SECOND] * scale, _imaginary_rows(units_j)[..., None, :])
    out += parts[..., _FIRST] * scale
    return out


def derivative(f: SliceSeries, order: int = 1) -> SliceSeries:
    """Slice derivative of the given order: b_k = (k+t)!/k! * a_{k+t}."""
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    if order == 0:
        return f
    if order > f.degree:
        return SliceSeries((Quaternion(),), f.nominal_radius)
    coeffs = tuple(math.perm(k + order, order) * f.coeffs[k + order]
                   for k in range(len(f.coeffs) - order))
    return SliceSeries(coeffs, f.nominal_radius)


def dilate(f: SliceSeries, r: float) -> SliceSeries:
    """Dilated series f_r(q) = f(rq), i.e. a_k -> r^k a_k, for 0 < r <= 1."""
    if not 0.0 < r <= 1.0:
        raise BadRadius(f"dilation factor must lie in (0, 1], got {r!r}")
    if r == 1.0:
        return f
    coeffs = []
    scale = 1.0
    for a in f.coeffs:
        coeffs.append(scale * a)
        scale *= r
    return SliceSeries(tuple(coeffs), f.nominal_radius)


def truncate(f: SliceSeries, degree: int) -> SliceSeries:
    """Series with coefficients beyond the given degree dropped."""
    if degree < 0:
        raise ValueError("truncation degree must be nonnegative")
    return SliceSeries(f.coeffs[:degree + 1], f.nominal_radius)


def tail_bound(f: SliceSeries, point_modulus: float, degree: int) -> float:
    """Bound sum_{k > degree} |q|^k |a_k| on |f(q) - truncate(f, degree)(q)|.

    The terms are summed on a power-of-two scale, so a representable bound
    is returned even where |q|^k alone overflows or underflows.  Never
    raises: a bound that overflows a float is inf.
    """
    if degree >= f.degree:
        return 0.0
    mant, step = math.frexp(point_modulus)
    power, shift = 1.0, 0          # |q|^k = power 2^shift, power in [1/2, 1)
    terms = []                     # (m, e) for the term m 2^e
    for k, a in enumerate(f.coeffs[1:], 1):
        power, e = math.frexp(power * mant)
        shift += step + e
        if k > degree:
            m, e = math.frexp(a.modulus())
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
