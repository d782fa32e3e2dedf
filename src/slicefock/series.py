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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BadRadius, NotOrthogonal, SingularPoint, UnitMismatch,
                     ZeroValue)
from .quaternion import (ImaginaryUnit, Quaternion, _from_rows, _qmul, _rows,
                         decompose)

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

    Solves one 4x4 real linear system per coefficient in the orthogonal
    basis {1, I, J, IJ}; extend() inverts this exactly up to rounding.
    """
    _check_orthogonal(unit_i, unit_j)
    qi = unit_i.as_quaternion()
    qj = unit_j.as_quaternion()
    qk = qi * qj
    basis = np.array([
        [1.0, 0.0, qj.w, qk.w],
        [0.0, unit_i.x, qj.x, qk.x],
        [0.0, unit_i.y, qj.y, qk.y],
        [0.0, unit_i.z, qj.z, qk.z],
    ])
    sol = np.linalg.solve(basis, _rows(f.coeffs).T)
    c1 = tuple(complex(re, im) for re, im in zip(sol[0], sol[1]))
    c2 = tuple(complex(re, im) for re, im in zip(sol[2], sol[3]))
    return (ComplexSlicePolynomial(unit_i, c1), ComplexSlicePolynomial(unit_i, c2))


def extend(f1: ComplexSlicePolynomial, f2: ComplexSlicePolynomial,
           unit_j: ImaginaryUnit) -> SliceSeries:
    """Series with coefficients a_n = f1_n + f2_n * J, inverse of split().

    Each coefficient is `embed_complex(a) + embed_complex(b) * J` written out
    on floats in the terms and order of the `Quaternion` operators, so it is
    the same bit for bit and only one `Quaternion` is built per coefficient.
    """
    if (abs(f1.unit.x - f2.unit.x) > _UNIT_MATCH_TOL
            or abs(f1.unit.y - f2.unit.y) > _UNIT_MATCH_TOL
            or abs(f1.unit.z - f2.unit.z) > _UNIT_MATCH_TOL):
        raise UnitMismatch("component polynomials live on different slices")
    _check_orthogonal(f1.unit, unit_j)
    ux, uy, uz = f1.unit.x, f1.unit.y, f1.unit.z
    jw, jx, jy, jz = 0.0, unit_j.x, unit_j.y, unit_j.z      # J as a quaternion
    width = max(len(f1.coeffs), len(f2.coeffs))
    c1 = f1.coeffs + (0j,) * (width - len(f1.coeffs))
    c2 = f2.coeffs + (0j,) * (width - len(f2.coeffs))
    coeffs = []
    for a, b in zip(c1, c2):
        bw, bx, by, bz = b.real, b.imag * ux, b.imag * uy, b.imag * uz
        coeffs.append(Quaternion(
            a.real + (bw * jw - bx * jx - by * jy - bz * jz),
            a.imag * ux + (bw * jx + bx * jw + by * jz - bz * jy),
            a.imag * uy + (bw * jy - bx * jz + by * jw + bz * jx),
            a.imag * uz + (bw * jz + bx * jy - by * jx + bz * jw)))
    return SliceSeries(tuple(coeffs))


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
