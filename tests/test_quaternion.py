import dataclasses
import doctest
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import slicefock.quaternion
from slicefock import (ONE, UNIT_I, UNIT_J, UNIT_K, ImaginaryUnit, Quaternion,
                       SliceCoords, ZeroDivisor, compose, decompose,
                       default_sphere, orthonormal_partner, sphere_sample)
from slicefock.quaternion import _CONJ_SIGNS, _decompose_rows, _qmul, _qpowers

component = st.floats(min_value=-10.0, max_value=10.0,
                      allow_nan=False, allow_infinity=False)
quats = st.builds(Quaternion, component, component, component, component)
EPS = 2.220446049250313e-16


def qdist(a, b):
    return (a - b).modulus()


# --- multiplication table and arithmetic ---

def test_basis_table():
    i, j, k = UNIT_I.as_quaternion(), UNIT_J.as_quaternion(), UNIT_K.as_quaternion()
    assert i * j == k
    assert j * k == i
    assert k * i == j
    assert j * i == -k
    assert i * i == Quaternion(-1.0)


def test_unit_element():
    q = Quaternion(0.3, -1.2, 4.0, 2.5)
    assert q * ONE == q
    assert ONE * q == q


def test_one_plus_i_times_one_plus_j():
    a = Quaternion(1.0, 1.0, 0.0, 0.0)
    b = Quaternion(1.0, 0.0, 1.0, 0.0)
    assert a * b == Quaternion(1.0, 1.0, 1.0, 1.0)


def test_conjugate_modulus_inverse_worked():
    q = Quaternion(1.0, 1.0, 1.0, 1.0)
    assert q.conjugate() == Quaternion(1.0, -1.0, -1.0, -1.0)
    assert q.modulus() == 2.0
    assert qdist(q.inverse(), Quaternion(0.25, -0.25, -0.25, -0.25)) == 0.0

    i = Quaternion(0.0, 1.0, 0.0, 0.0)
    assert i.conjugate() == -i
    assert i.modulus() == 1.0
    assert i.inverse() == -i


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisor):
        Quaternion().inverse()


@given(quats, quats, quats)
def test_associativity(a, b, c):
    scale = max(1.0, a.modulus() * b.modulus() * c.modulus())
    assert qdist((a * b) * c, a * (b * c)) <= 1e-12 * scale


@given(quats, quats)
def test_modulus_multiplicative(a, b):
    scale = max(1.0, a.modulus() * b.modulus())
    assert abs((a * b).modulus() - a.modulus() * b.modulus()) <= 1e-12 * scale


@given(quats, quats, quats)
def test_distributive(a, b, c):
    scale = max(1.0, a.modulus() * (b.modulus() + c.modulus()))
    assert qdist(a * (b + c), a * b + a * c) <= 1e-12 * scale


@given(quats, quats)
def test_conjugate_reverses_products(a, b):
    scale = max(1.0, a.modulus() * b.modulus())
    assert qdist((a * b).conjugate(), b.conjugate() * a.conjugate()) <= 1e-12 * scale


@given(quats)
def test_inverse_ulp_scale(q):
    if q.modulus() < 1e-3:
        return
    assert qdist(q * q.inverse(), ONE) <= 8.0 * EPS
    assert qdist(q.inverse() * q, ONE) <= 8.0 * EPS


def test_inverse_extreme_scales():
    # two-division form must survive |q|^2 overflow/underflow territory
    big = Quaternion(1e200, -3e200, 0.0, 2e200)
    assert qdist(big * big.inverse(), ONE) <= 8.0 * EPS
    tiny = Quaternion(1e-200, 1e-200, 0.0, 0.0)
    assert qdist(tiny * tiny.inverse(), ONE) <= 8.0 * EPS
    with pytest.raises(ZeroDivisor):
        Quaternion(1e-320, 0.0, 0.0, 0.0).inverse()


# --- slice coordinates ---

def test_decompose_worked_examples():
    c = decompose(Quaternion(3.0, 4.0, 0.0, 0.0))
    assert (c.re, c.im) == (3.0, 4.0)
    assert (c.unit.x, c.unit.y, c.unit.z) == (1.0, 0.0, 0.0)

    c = decompose(Quaternion(5.0))
    assert (c.re, c.im) == (5.0, 0.0)
    assert c.unit == UNIT_I  # real axis convention

    c = decompose(Quaternion(1.0, 1.0, 1.0, 1.0))
    assert c.re == 1.0
    assert abs(c.im - math.sqrt(3.0)) <= 1e-15
    s = 1.0 / math.sqrt(3.0)
    assert max(abs(c.unit.x - s), abs(c.unit.y - s), abs(c.unit.z - s)) <= 1e-15


@pytest.mark.parametrize("vec", [(0.0, 0.0, 1e-160), (3e-170, -4e-170, 0.0),
                                 (5e-324, 0.0, 0.0), (1e-155, 2e-155, -2e-155)])
def test_decompose_keeps_tiny_imaginary_parts(vec):
    # the squares of these components are subnormal or 0
    q = Quaternion(0.25, *vec)
    c = decompose(q)
    want = max(map(abs, vec)) * math.sqrt(sum((v / max(map(abs, vec))) ** 2
                                              for v in vec))
    assert abs(c.im - want) <= 1e-15 * want
    assert qdist(compose(c), q) <= 4e-16 * c.im
    im, unit = _decompose_rows(np.array([vec]))
    assert (im[0], *unit[0]) == (c.im, c.unit.x, c.unit.y, c.unit.z)


@given(quats)
@settings(max_examples=100)
def test_imag_modulus_of_normal_squares_is_the_plain_root(q):
    sq = q.x * q.x + q.y * q.y + q.z * q.z
    if sq >= sys.float_info.min:
        assert q.imag_modulus() == math.sqrt(sq)
    c = decompose(q)
    im, unit = _decompose_rows(np.array([[q.x, q.y, q.z]]))
    assert (im[0], *unit[0]) == (c.im, c.unit.x, c.unit.y, c.unit.z)


def test_slice_coords_canonicalize_negative_im():
    c = SliceCoords(2.0, -3.0, UNIT_J)
    assert c.im == 3.0
    assert c.unit == ImaginaryUnit(0.0, -1.0, 0.0)
    assert qdist(compose(c), Quaternion(2.0, 0.0, -3.0, 0.0)) == 0.0


def test_compose_decompose_roundtrip_bulk():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        q = Quaternion(*rng.uniform(-5.0, 5.0, 4))
        back = compose(decompose(q))
        assert qdist(back, q) <= 1e-12 * max(1.0, q.modulus())
        assert decompose(q).im >= 0.0


def test_imaginary_unit_validation():
    with pytest.raises(ValueError):
        ImaginaryUnit(1.0, 1.0, 0.0)
    u = ImaginaryUnit.normalized(1.0, 1.0, 0.0)
    s = 1.0 / math.sqrt(2.0)
    assert abs(u.x - s) <= 1e-15 and abs(u.y - s) <= 1e-15
    with pytest.raises(ValueError):
        ImaginaryUnit.normalized(0.0, 0.0, 0.0)
    for bad in ((math.nan, 0.0, 0.0), (0.0, math.nan, 1.0), (math.inf, 0.0, 0.0)):
        with pytest.raises(ValueError):
            ImaginaryUnit(*bad)


def test_unit_squares_to_minus_one():
    for u in sphere_sample(50):
        q = u.as_quaternion()
        assert qdist(q * q, Quaternion(-1.0)) <= 1e-12


# --- orthonormal partners ---

def test_partner_worked_examples():
    assert orthonormal_partner(UNIT_I) == UNIT_J
    p = orthonormal_partner(UNIT_J)
    assert abs(p.x - 1.0) <= 1e-15 and abs(p.y) <= 1e-15 and abs(p.z) <= 1e-15

    s = 1.0 / math.sqrt(2.0)
    diag = ImaginaryUnit(s, s, 0.0)
    p = orthonormal_partner(diag)
    assert abs(p.x - s) <= 1e-12 and abs(p.y + s) <= 1e-12 and abs(p.z) <= 1e-12


def test_partner_orthogonality_bulk():
    for u in sphere_sample(97):
        p = orthonormal_partner(u)
        assert abs(u.dot(p)) <= 1e-12
        assert abs(p.x**2 + p.y**2 + p.z**2 - 1.0) <= 1e-12
        # real part of I * conj(J) is the euclidean dot
        prod = u.as_quaternion() * p.as_quaternion().conjugate()
        assert abs(prod.w) <= 1e-12


# --- sphere sampling ---

def test_sphere_sample_one_is_i():
    assert sphere_sample(1) == [UNIT_I]


def test_sphere_sample_two_antipodal_ish():
    a, b = sphere_sample(2)
    for u in (a, b):
        assert abs(u.x**2 + u.y**2 + u.z**2 - 1.0) <= 1e-12
    assert a.dot(b) < -0.5


def test_sphere_sample_hundred_separated():
    units = sphere_sample(100)
    assert len(units) == 100
    pts = np.array([[u.x, u.y, u.z] for u in units])
    dots = pts @ pts.T
    np.fill_diagonal(dots, -1.0)
    assert dots.max() < 1.0 - 1e-6  # pairwise minimal angle > 0


def test_sphere_sample_rejects_bad_count():
    with pytest.raises(ValueError):
        sphere_sample(0)


def test_default_sphere_appends_canonical_units():
    units = default_sphere(16)
    assert len(units) == 19
    assert units[-3:] == [UNIT_I, UNIT_J, UNIT_K]


# --- misc accessors ---

@given(quats)
@settings(max_examples=50)
def test_accessors(q):
    assert q.real_part() == q.w
    x, y, z = q.imag_vector()
    assert (x, y, z) == (q.x, q.y, q.z)
    assert abs(q.imag_modulus() - math.sqrt(x * x + y * y + z * z)) <= 1e-12
    assert abs(q.modulus_sq() - q.modulus() ** 2) <= 1e-9 * max(1.0, q.modulus_sq())
    assert abs(q) == q.modulus()


# --- constructor contract ---

def test_constructor_coerces_to_float():
    q = Quaternion(1, np.float64(2.5), True, -3)
    assert (q.w, q.x, q.y, q.z) == (1.0, 2.5, 1.0, -3.0)
    assert all(type(c) is float for c in (q.w, q.x, q.y, q.z))


def test_constructor_keywords_and_defaults():
    assert Quaternion() == Quaternion(0.0, 0.0, 0.0, 0.0)
    assert Quaternion(z=2, w=1) == Quaternion(1.0, 0.0, 0.0, 2.0)
    assert Quaternion(0.5, y=-1) == Quaternion(0.5, 0.0, -1.0, 0.0)
    with pytest.raises(TypeError):
        Quaternion(1, 2, 3, 4, 5)
    with pytest.raises(TypeError):
        Quaternion(v=1)


def test_repr_eq_hash_frozen_and_slots():
    q = Quaternion(1, 2.5, -0.0, 3)
    assert repr(q) == "Quaternion(w=1.0, x=2.5, y=-0.0, z=3.0)"
    assert q == Quaternion(1.0, 2.5, 0.0, 3.0)
    assert q != (1.0, 2.5, 0.0, 3.0)
    assert hash(q) == hash((1.0, 2.5, -0.0, 3.0))
    assert len({q, Quaternion(1.0, 2.5, 0.0, 3.0)}) == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        q.w = 0.0
    assert not hasattr(q, "__dict__")
    assert dataclasses.replace(q, w=-2) == Quaternion(-2.0, 2.5, 0.0, 3.0)


def test_module_doctests_pass():
    result = doctest.testmod(slicefock.quaternion)
    assert result.attempted >= 1
    assert result.failed == 0


# --- array kernel ---

def _stacked_qmul(p, q):
    """The moveaxis/stack form _qmul replaced, kept as the reference."""
    pw, px, py, pz = np.moveaxis(p, -1, 0)
    qw, qx, qy, qz = np.moveaxis(q, -1, 0)
    return np.stack([pw * qw - px * qx - py * qy - pz * qz,
                     pw * qx + px * qw + py * qz - pz * qy,
                     pw * qy - px * qz + py * qw + pz * qx,
                     pw * qz + px * qy - py * qx + pz * qw], axis=-1)


def float_rows(*shape):
    return hnp.arrays(np.float64, shape, elements=st.floats(-1e3, 1e3))


@given(st.data(), st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_qmul_equals_stacked_form_bit_for_bit(data, k, n):
    cases = [
        # star_mul and fock's ray coefficients: (K, 1, 4) x (L, 4)
        (data.draw(float_rows(k, 1, 4)), data.draw(float_rows(n, 4))),
        # fock's pairing: transposed, non-contiguous (N, 4) rows
        (data.draw(float_rows(4, k)).T, data.draw(float_rows(4, k)).T * _CONJ_SIGNS),
        (data.draw(float_rows(4, k)).T, data.draw(float_rows(4, k)).T),
        # atomic_synthesis: (N + 1, K, 4) x (K, 4)
        (data.draw(float_rows(n + 1, k, 4)), data.draw(float_rows(k, 4))),
    ]
    for p, q in cases:
        out, ref = _qmul(p, q), _stacked_qmul(p, q)
        assert out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()     # bits, so -0.0 != 0.0 too
        assert out.flags.c_contiguous


special_floats = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                     5e-324, -2.5e-320, 1e-310, 2.2250738585072014e-308]))


@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 8), st.just(4)),
                  elements=special_floats),
       st.integers(0, 40))
@example(np.array([[0.0, -0.0, math.inf, math.nan]]), 3)
@example(np.array([[-0.0, 5e-324, -0.0, 0.0], [0.5, -1e-310, 2.0, -0.25]]), 40)
@settings(max_examples=100, deadline=None)
def test_qpowers_equal_repeated_qmul_bit_for_bit(q, count):
    want = [np.broadcast_to([1.0, 0.0, 0.0, 0.0], q.shape)]
    with np.errstate(all="ignore"):
        for _ in range(count):
            want.append(_qmul(want[-1], q))
        got = _qpowers(q, count)
    want = np.array(want)
    assert got.shape == want.shape
    # bits, so -0.0 != 0.0 too; only which NaN survives where two meet is
    # left open by IEEE 754, so a NaN matches any NaN
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all()
    assert got[~nan].tobytes() == want[~nan].tobytes()
