import collections
import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slicefock import (UNIT_I, UNIT_J, UNIT_K, BadRadius, ComplexSlicePolynomial,
                       ImaginaryUnit, MultiMonomial, MultiPolynomial,
                       NotOrthogonal, Quaternion, SingularPoint, SliceSeries,
                       UnitMismatch, ZeroValue, decompose, derivative, dilate,
                       embed_complex, extend, orthonormal_partner,
                       regular_conjugate, rep_eval, split, star_inverse_eval,
                       star_mul, sup_norm, symmetrization, tail_bound,
                       transform_point, truncate)
from slicefock.corpus import (random_ball_point, random_orthogonal_pair,
                              random_series, random_unit, rng_for)
from slicefock.series import (_coeff_table, _eval_rows, _extend_rows,
                              _rep_eval_rows, _split_rows, _star_inverse_rows,
                              _transform_rows)
import slicefock.series as series_module
from slicefock.fock import FockParams
from slicefock.quaternion import _rows

I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)
ONE = Quaternion(1.0)


def qdist(a, b):
    return (a - b).modulus()


def series(*cs):
    return SliceSeries(tuple(cs))


# --- evaluation ---

def test_eval_constant():
    f = series(ONE)
    assert f.eval(Quaternion(0.3, -2.0, 1.0, 0.5)) == ONE


def test_eval_right_coefficient_order():
    f = series(Quaternion(), I)  # f(q) = q * i
    assert f.eval(J) == -K


def test_eval_unit_imaginary_square():
    q = Quaternion(0.0, 1.0, 1.0, 0.0) * (1.0 / math.sqrt(2.0))
    f = series(ONE, ONE, ONE)  # 1 + q + q^2 with q^2 = -1
    assert qdist(f.eval(q), q) <= 1e-15


def test_eval_at_zero_is_exact():
    f = series(Quaternion(0.25, -1.0, 3.0, 0.125), I, J)
    assert f.eval(Quaternion()) == f.coeffs[0]


def test_empty_coeffs_become_zero_series():
    f = SliceSeries(())
    assert f.coeffs == (Quaternion(),)
    assert f.degree == 0


def test_nominal_radius_validation():
    with pytest.raises(ValueError):
        SliceSeries((ONE,), 0.0)


def test_from_reals_and_scale_right():
    f = SliceSeries.from_reals([1.0, 2.0])
    assert f.coeffs == (ONE, Quaternion(2.0))
    g = f.scale_right(J)
    assert g.coeffs == (J, Quaternion(0.0, 0.0, 2.0, 0.0))


# --- star product ---

def test_star_worked_example():
    f = series(ONE, I)
    g = series(ONE, J)
    fg = star_mul(f, g)
    assert fg.coeffs == (ONE, I + J, K)
    gf = star_mul(g, f)
    assert gf.coeffs == (ONE, I + J, -K)  # noncommutative


def test_star_unit():
    f = series(Quaternion(0.5, 1.0, -2.0, 0.25), I, J + K)
    assert star_mul(f, series(ONE)).coeffs == f.coeffs
    assert star_mul(series(ONE), f).coeffs == f.coeffs


def test_star_keeps_smaller_radius():
    f = SliceSeries((ONE,), 2.0)
    g = SliceSeries((ONE,), 0.5)
    assert star_mul(f, g).nominal_radius == 0.5


def _scalar_star_mul(f, g):
    """The scalar convolution loop star_mul replaced, kept as the reference."""
    n, m = f.degree, g.degree
    out = []
    for idx in range(n + m + 1):
        acc = Quaternion()
        for k in range(max(0, idx - m), min(idx, n) + 1):
            acc = acc + f.coeffs[k] * g.coeffs[idx - k]
        out.append(acc)
    return tuple(out)


quats = st.builds(Quaternion, *[st.floats(-1e3, 1e3)] * 4)
coeff_lists = st.lists(quats, min_size=1, max_size=14)


@given(coeff_lists, coeff_lists)
@example([ONE], [I])                                  # degree 0 times degree 0
@example([Quaternion(0.3, -1.0, 2.0, 0.5)], [I, J, K, ONE])
@example([I, J, K, ONE, I], [Quaternion(-2.0, 0.1, 0.0, 7.0), K])
@settings(max_examples=150, deadline=None)
def test_star_mul_equals_scalar_convolution_bit_for_bit(a, b):
    f, g = series(*a), series(*b)
    assert star_mul(f, g).coeffs == _scalar_star_mul(f, g)
    assert symmetrization(f).coeffs == _scalar_star_mul(f, regular_conjugate(f))


def _quaternion_horner(f, q):
    """The Quaternion-operator loop SliceSeries.eval replaced, kept as the reference."""
    acc = f.coeffs[-1]
    for a in reversed(f.coeffs[:-1]):
        acc = q * acc + a
    return acc


def bits(q):
    """Components as hex strings, so == also tells -0.0 from 0.0."""
    return tuple(c.hex() for c in (q.w, q.x, q.y, q.z))


SIGNED_ZEROS = Quaternion(-0.0, 0.0, -0.0, 0.0)


@given(coeff_lists, quats)
@example([SIGNED_ZEROS], Quaternion(0.5, -1.0, 2.0, 0.25))           # degree 0
@example([Quaternion(1.5, -0.0, 0.0, -2.0), SIGNED_ZEROS, I], Quaternion())  # q = 0
@example([SIGNED_ZEROS, SIGNED_ZEROS], Quaternion(-0.0, -0.0, 0.0, -0.0))
@example([ONE, I, J, K], Quaternion(0.3, -1.25, 0.5, 2.0))
@settings(max_examples=200, deadline=None)
def test_eval_equals_quaternion_horner_bit_for_bit(a, q):
    f = series(*a)
    assert bits(f.eval(q)) == bits(_quaternion_horner(f, q))


def test_regular_conjugate():
    assert regular_conjugate(series(ONE, I)).coeffs == (ONE, -I)
    assert regular_conjugate(series(J)).coeffs == (-J,)


def test_symmetrization_worked_examples():
    assert symmetrization(series(ONE, I)).coeffs == (ONE, Quaternion(), ONE)
    c = Quaternion(1.0, 2.0, -1.0, 0.5)
    assert symmetrization(series(c)).coeffs == (Quaternion(c.modulus_sq()),)
    assert symmetrization(series(Quaternion(), ONE)).coeffs \
        == (Quaternion(), Quaternion(), ONE)


def test_symmetrization_real_coefficients():
    rng = rng_for(3)
    for _ in range(100):
        f = random_series(rng, max_degree=8)
        for c in symmetrization(f).coeffs:
            assert c.imag_modulus() < 1e-12


def test_star_inverse_worked_examples():
    a = Quaternion(0.0, 2.0, 0.0, 1.0)
    assert qdist(star_inverse_eval(series(a), random_ball_point(rng_for(1))),
                 a.inverse()) <= 1e-15

    v = star_inverse_eval(series(ONE, I), Quaternion(0.5))
    assert qdist(v, Quaternion(0.8, -0.4, 0.0, 0.0)) <= 1e-15

    with pytest.raises(SingularPoint):
        star_inverse_eval(series(Quaternion(), ONE), Quaternion())


def _reference_star_inverse(f, q):
    """star_inverse_eval as it formed f^s at every point, kept as the reference.

    f^s comes from the scalar convolution, not from symmetrization, which
    reads the series' cached f^s table under test.
    """
    s = SliceSeries(_scalar_star_mul(f, regular_conjugate(f))).eval(q)
    if s.modulus() < 1e-12:
        raise SingularPoint(
            f"symmetrization vanishes at this point (|f^s(q)| = {s.modulus():.3e})")
    return s.inverse() * regular_conjugate(f).eval(q)


ball_quats = st.builds(Quaternion, *[st.floats(-0.6, 0.6)] * 4)


@given(coeff_lists, ball_quats)
@example([Quaternion(), ONE], Quaternion())                 # f^s(0) = 0
@example([ONE, I], Quaternion(0.5))
@example([Quaternion(0.0, 2.0, 0.0, 1.0)], Quaternion(0.1, -0.2, 0.3, 0.0))
@settings(max_examples=150, deadline=None)
def test_star_inverse_at_equals_star_inverse_eval(a, q):
    f = series(*a)
    try:
        want = _reference_star_inverse(f, q)
    except SingularPoint as exc:
        with pytest.raises(SingularPoint) as raised:
            star_inverse_eval(f, q)
        assert str(raised.value) == str(exc)
        return
    assert bits(star_inverse_eval(f, q)) == bits(want)


# --- cached coefficient tables ---

def _table_bits(rows):
    return np.ascontiguousarray(rows).tobytes()


@given(coeff_lists)
@example([SIGNED_ZEROS])
@example([Quaternion(1.5, -0.0, 0.0, -2.0), SIGNED_ZEROS, I])
@settings(max_examples=100, deadline=None)
def test_cached_tables_equal_their_conversions_and_are_read_only(a):
    f = series(*a)
    fc = regular_conjugate(f)
    assert _table_bits(f._coeff_rows) == _table_bits(_rows(f.coeffs))
    assert _table_bits(f._conj_rows) == _table_bits(_rows(fc.coeffs))
    assert _table_bits(f._sym_rows) == _table_bits(_rows(_scalar_star_mul(f, fc)))
    for rows in (f._coeff_rows, f._conj_rows, f._sym_rows):
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0


def _warm(f):
    """f with every table built, through the calls that read them."""
    f.eval(Quaternion(0.1))
    split(f, UNIT_I, UNIT_J)
    symmetrization(f)
    star_mul(f, f)
    return f


def test_warm_tables_take_no_part_in_equality_hash_or_repr():
    a = (Quaternion(0.3, -1.0, 2.0, 0.5), I, J)
    warm, cold = _warm(series(*a)), series(*a)
    assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)


def _values(f, q):
    unit = ImaginaryUnit(0.6, 0.0, 0.8)
    return (bits(f.eval(q)), bits(rep_eval(f, unit, q)), bits(star_inverse_eval(f, q)))


@pytest.mark.parametrize("clone", [lambda f: pickle.loads(pickle.dumps(f)),
                                   copy.deepcopy, copy.copy],
                         ids=["pickle", "deepcopy", "copy"])
def test_copies_keep_the_values_and_build_read_only_tables(clone):
    rng = rng_for(5)
    f = _warm(random_series(rng, max_degree=9))
    twin = clone(f)
    assert twin == f
    for _ in range(5):
        q = random_ball_point(rng)
        assert _values(twin, q) == _values(f, q)
    for rows in (twin._coeff_rows, twin._conj_rows, twin._sym_rows):
        assert not rows.flags.writeable


def test_replace_builds_fresh_tables():
    f = _warm(series(ONE, I, J))
    g = dataclasses.replace(f, coeffs=(K, ONE))
    fresh = series(K, ONE)
    q = Quaternion(0.1, -0.2, 0.3, 0.05)
    assert _table_bits(g._coeff_rows) == _table_bits(fresh._coeff_rows)
    assert _table_bits(g._sym_rows) == _table_bits(fresh._sym_rows)
    assert _values(g, q) == _values(fresh, q)


def test_repeated_star_inverse_calls_return_the_first_bits():
    f = series(Quaternion(), ONE, Quaternion(0.25, 0.0, -0.5, 0.0))
    points = [Quaternion(), Quaternion(0.3, 0.1, -0.2, 0.4), Quaternion(-0.5)]

    def outcomes(g):
        out = []
        for q in points:
            try:
                out.append(bits(star_inverse_eval(g, q)))
            except SingularPoint as exc:      # f^s(0) = 0
                out.append(str(exc))
        return out

    first = outcomes(f)
    assert first[0].startswith("symmetrization vanishes")
    assert outcomes(f) == first
    assert outcomes(series(*f.coeffs)) == first


def test_first_call_makes_the_same_counted_calls_as_later_ones(monkeypatch):
    """Building a table calls no public series function and no Quaternion
    product, inverse or SliceSeries.eval, so per-call counts do not depend
    on whether a series' tables are warm."""
    calls = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in series_module.__all__:
        fn = getattr(series_module, name)
        if callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(series_module, name, counting(name, fn))
    for cls, name in ((Quaternion, "__mul__"), (Quaternion, "inverse"),
                      (SliceSeries, "eval")):
        monkeypatch.setattr(cls, name, counting(name, cls.__dict__[name]))

    f, g = random_series(rng_for(8), max_degree=7), series(ONE, I)
    q = Quaternion(0.1, 0.2, -0.3, 0.05)

    def counted_calls():
        calls.clear()
        series_module.star_mul(f, g)
        series_module.symmetrization(f)
        series_module.star_inverse_eval(f, q)
        series_module.rep_eval(f, UNIT_J, q)
        series_module.split(f, UNIT_I, UNIT_J)
        f.eval(q)
        return dict(calls)

    first = counted_calls()
    assert first == counted_calls()
    assert first["star_mul"] == 1          # symmetrization reads its table


def test_transform_point_worked_examples():
    q = Quaternion(0.1, 0.2, -0.3, 0.4)
    assert transform_point(series(ONE), q) == q

    f = SliceSeries.from_reals([0.5, 1.0, 0.25])
    z = Quaternion(0.3, 0.2, 0.0, 0.0)  # in C_i
    assert qdist(transform_point(f, z), z) <= 1e-12

    assert qdist(transform_point(series(J), I), -I) <= 1e-15

    with pytest.raises(ZeroValue):
        transform_point(series(Quaternion(), ONE), Quaternion())


def test_star_pointwise_formula():
    rng = rng_for(11)
    for _ in range(50):
        f = random_series(rng, max_degree=8)
        g = random_series(rng, max_degree=8)
        fg = star_mul(f, g)
        for _ in range(4):
            q = random_ball_point(rng)
            vf = f.eval(q)
            if vf.modulus() <= 1e-6:
                continue
            lhs = fg.eval(q)
            rhs = vf * g.eval(transform_point(f, q))
            assert qdist(lhs, rhs) <= 1e-10 * max(1.0, lhs.modulus(), rhs.modulus())


def test_star_zero_rule():
    rng = rng_for(12)
    for _ in range(50):
        z0 = random_ball_point(rng)
        h = random_series(rng, max_degree=5)
        g = random_series(rng, max_degree=5)
        f = star_mul(SliceSeries((-z0, ONE)), h)  # f(z0) = 0
        assert star_mul(f, g).eval(z0).modulus() <= 1e-10


# --- splitting and extension ---

def test_split_worked_example():
    f = series(Quaternion(1.0, 1.0, 1.0, 1.0))
    f1, f2 = split(f, UNIT_I, UNIT_J)
    assert abs(f1.coeffs[0] - (1 + 1j)) <= 1e-14
    assert abs(f2.coeffs[0] - (1 + 1j)) <= 1e-14  # (1+i) j = j + k


def test_split_slice_coefficients_give_zero_second_component():
    f = series(Quaternion(0.5, -2.0, 0.0, 0.0), Quaternion(1.0, 3.0, 0.0, 0.0))
    f1, f2 = split(f, UNIT_I, UNIT_J)
    assert max(abs(c) for c in f2.coeffs) <= 1e-14
    assert abs(f1.coeffs[0] - (0.5 - 2j)) <= 1e-14


def test_split_constant_j():
    f1, f2 = split(series(J), UNIT_I, UNIT_J)
    assert abs(f1.coeffs[0]) <= 1e-15
    assert abs(f2.coeffs[0] - 1.0) <= 1e-15


def test_split_requires_orthogonal_units():
    with pytest.raises(NotOrthogonal):
        split(series(ONE), UNIT_I, ImaginaryUnit.normalized(1.0, 1e-3, 0.0))


def test_extend_worked_examples():
    one = ComplexSlicePolynomial(UNIT_I, (1.0 + 0j,))
    zero = ComplexSlicePolynomial(UNIT_I, (0j,))
    assert extend(one, zero, UNIT_J).coeffs == (ONE,)

    lin = ComplexSlicePolynomial(UNIT_I, (0j, 1.0 + 0j))
    f = extend(zero, lin, UNIT_J)
    assert f.coeffs == (Quaternion(), J)  # f(q) = q j


def test_extend_unit_mismatch():
    a = ComplexSlicePolynomial(UNIT_I, (1.0 + 0j,))
    b = ComplexSlicePolynomial(UNIT_J, (1.0 + 0j,))
    with pytest.raises(UnitMismatch):
        extend(a, b, UNIT_J)


def _operator_extend(f1, f2, unit_j):
    """extend's coefficients in Quaternion operators, kept as the reference."""
    qj = unit_j.as_quaternion()
    width = max(len(f1.coeffs), len(f2.coeffs))
    c1 = f1.coeffs + (0j,) * (width - len(f1.coeffs))
    c2 = f2.coeffs + (0j,) * (width - len(f2.coeffs))
    return tuple(embed_complex(a, f1.unit) + embed_complex(b, f1.unit) * qj
                 for a, b in zip(c1, c2))


complexes = st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
unit_dirs = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: sum(c * c for c in v) > 1e-2)
SIGNED_ZERO_COMPLEX = [complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0)]


@given(st.lists(complexes, min_size=1, max_size=9),
       st.lists(complexes, min_size=1, max_size=9), unit_dirs,
       st.floats(0.0, 2.0 * math.pi))
@example(SIGNED_ZERO_COMPLEX, SIGNED_ZERO_COMPLEX[::-1], (0.0, 0.0, 1.0), 0.0)
@example([1 + 2j], [0j, -3 - 0.5j, 1j], (1.0, 0.0, 0.0), 1.0)
@settings(max_examples=150, deadline=None)
def test_extend_equals_operator_form_bit_for_bit(c1, c2, direction, turn):
    unit_i = ImaginaryUnit.normalized(*direction)
    p = orthonormal_partner(unit_i)
    # every unit orthogonal to I: p turned by the given angle about I
    ip = unit_i.as_quaternion() * p.as_quaternion()
    unit_j = ImaginaryUnit.normalized(*(math.cos(turn) * a + math.sin(turn) * b
                                        for a, b in zip((p.x, p.y, p.z),
                                                        (ip.x, ip.y, ip.z))))
    f1 = ComplexSlicePolynomial(unit_i, tuple(c1))
    f2 = ComplexSlicePolynomial(unit_i, tuple(c2))
    got = extend(f1, f2, unit_j).coeffs
    want = _operator_extend(f1, f2, unit_j)
    assert [bits(a) for a in got] == [bits(b) for b in want]


def test_split_extend_roundtrip():
    rng = rng_for(21)
    for _ in range(20):
        f = random_series(rng, max_degree=10)
        unit_i, unit_j = random_orthogonal_pair(rng)
        f1, f2 = split(f, unit_i, unit_j)
        back = extend(f1, f2, unit_j)
        assert max(qdist(a, b) for a, b in zip(back.coeffs, f.coeffs)) <= 1e-14


def test_split_components_satisfy_cauchy_riemann():
    # (d_x + I d_y) of the slice restriction vanishes for slice-regular f
    rng = rng_for(22)
    h = 1e-5
    for _ in range(10):
        f = random_series(rng, max_degree=8)
        unit = random_unit(rng)
        uq = unit.as_quaternion()

        def at(x, y):
            return f.eval(Quaternion(x) + uq * y)

        for x, y in ((0.3, 0.1), (-0.2, 0.4), (0.05, -0.35)):
            dx = (at(x + h, y) - at(x - h, y)) * (0.5 / h)
            dy = (at(x, y + h) - at(x, y - h)) * (0.5 / h)
            assert (dx + uq * dy).modulus() < 1e-6


# --- representation formula ---

def test_rep_eval_same_slice_collapses():
    rng = rng_for(31)
    f = random_series(rng, max_degree=9)
    z = Quaternion(0.4, 0.0, 0.3, 0.0)  # on C_j
    assert qdist(rep_eval(f, UNIT_J, z), f.eval(z)) <= 1e-14


def test_rep_eval_square_on_diagonal_unit():
    f = series(Quaternion(), Quaternion(), ONE)  # f(q) = q^2
    q = Quaternion(0.0, 1.0, 1.0, 0.0) * (1.0 / math.sqrt(2.0))
    assert qdist(rep_eval(f, UNIT_I, q), Quaternion(-1.0)) <= 1e-15


def test_rep_eval_real_coefficients_conjugate_symmetry():
    rng = rng_for(32)
    f = SliceSeries.from_reals(rng.uniform(-1.0, 1.0, 7))
    for _ in range(20):
        q = random_ball_point(rng)
        unit = random_unit(rng)
        left = rep_eval(f, unit, q.conjugate())
        right = rep_eval(f, unit, q).conjugate()
        assert qdist(left, right) <= 1e-12


def test_rep_eval_matches_direct():
    rng = rng_for(33)
    for _ in range(200):
        f = random_series(rng, max_degree=12)
        unit = random_unit(rng)
        q = random_ball_point(rng)
        direct = f.eval(q)
        assert qdist(rep_eval(f, unit, q), direct) \
            <= 1e-11 * max(1.0, direct.modulus())


def _operator_rep_eval(f, unit, q):
    """rep_eval as a composition of Quaternion operators, kept as the reference."""
    sc = decompose(q)
    zp = Quaternion(sc.re, sc.im * unit.x, sc.im * unit.y, sc.im * unit.z)
    zm = Quaternion(sc.re, -sc.im * unit.x, -sc.im * unit.y, -sc.im * unit.z)
    prod = sc.unit.as_quaternion() * unit.as_quaternion()
    one = Quaternion(1.0)
    return 0.5 * ((one - prod) * f.eval(zp) + (one + prod) * f.eval(zm))


unit_directions = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: sum(c * c for c in v) > 1e-2)


@given(coeff_lists, quats, unit_directions, st.floats(-1.0, 1.0),
       st.sampled_from([5e-324, -2.5e-320, 1e-310, 3e-160]))
@example([SIGNED_ZEROS, I], Quaternion(-0.0, 0.0, -0.0, 0.0), (1.0, 0.0, 0.0), 0.0,
         5e-324)
@example([ONE, I, J, K], Quaternion(0.3, -1.25, 0.5, 2.0), (0.0, -1.0, 0.0), -0.5,
         -2.5e-320)
@settings(max_examples=150, deadline=None)
def test_rep_eval_equals_operator_form_bit_for_bit(a, q, direction, t, tiny):
    f = series(*a)
    unit = ImaginaryUnit.normalized(*direction)
    points = [q,
              Quaternion(q.w),                                      # real
              Quaternion(q.w, t * unit.x, t * unit.y, t * unit.z),  # C_I, C_{-I}
              Quaternion(q.w, tiny, 0.0, 0.0),                      # subnormal |Im q|
              Quaternion(q.w, 0.0, tiny * unit.y, tiny)]
    for p in points:
        assert bits(rep_eval(f, unit, p)) == bits(_operator_rep_eval(f, unit, p))


# --- calculus helpers ---

def test_derivative_worked_examples():
    f = series(Quaternion(3.0), I, Quaternion(2.0, 0.0, 1.0, 0.0))
    d2 = derivative(f, 2)
    assert d2.coeffs == (Quaternion(4.0, 0.0, 2.0, 0.0),)
    assert derivative(f, 0).coeffs == f.coeffs
    assert derivative(f, 5).coeffs == (Quaternion(),)
    with pytest.raises(ValueError):
        derivative(f, -1)


def test_derivative_central_difference():
    rng = rng_for(41)
    h = 1e-5
    for _ in range(50):
        f = random_series(rng, max_degree=10)
        d = derivative(f, 1)
        x = float(rng.uniform(-0.8, 0.8))
        fd = (f.eval(Quaternion(x + h)) - f.eval(Quaternion(x - h))) * (0.5 / h)
        exact = d.eval(Quaternion(x))
        assert qdist(fd, exact) <= 1e-8 * max(1.0, exact.modulus())


def test_dilate_worked_examples():
    f = series(Quaternion(), Quaternion(), ONE)
    assert dilate(f, 1.0).coeffs == f.coeffs
    assert dilate(f, 0.5).coeffs == (Quaternion(), Quaternion(), Quaternion(0.25))
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(BadRadius):
            dilate(f, bad)


def test_dilate_matches_argument_scaling():
    rng = rng_for(42)
    for _ in range(100):
        f = random_series(rng, max_degree=9)
        r = float(rng.uniform(0.1, 1.0))
        q = random_ball_point(rng)
        assert qdist(dilate(f, r).eval(q), f.eval(q * r)) <= 1e-12


def test_truncate_and_tail_bound():
    f = SliceSeries.from_reals([1.0, 1.0, 1.0, 1.0])
    assert truncate(f, 5).coeffs == f.coeffs
    assert truncate(f, 1).coeffs == (ONE, ONE)
    with pytest.raises(ValueError):
        truncate(f, -1)

    r = 0.7
    bounds = [tail_bound(f, r, k) for k in range(4)]
    assert bounds[0] > bounds[1] > bounds[2] > 0.0
    assert bounds[3] == 0.0
    q = Quaternion(r)
    for k in range(4):
        assert qdist(f.eval(q), truncate(f, k).eval(q)) <= bounds[k] + 1e-15


def test_truncated_dilation_error_shrinks():
    rng = rng_for(43)
    f = random_series(rng, max_degree=6)
    params = FockParams(alpha=1.0, p=2.0, n=1, radius=1.0)
    sphere = [UNIT_I]

    def err(r, k):
        g = truncate(dilate(f, r), k)
        diff = SliceSeries(tuple(a - b for a, b in zip(
            g.coeffs + (Quaternion(),) * (f.degree - g.degree), f.coeffs)))
        return sup_norm(diff, params, sphere, 65, angular_count=64).value

    errors_k = [err(0.9, k) for k in (1, 3, 6)]
    assert errors_k[0] >= errors_k[1] >= errors_k[2]
    errors_r = [err(r, 6) for r in (0.5, 0.9, 0.99)]
    assert errors_r[0] > errors_r[1] > errors_r[2]


# --- pair algebra and several variables ---

def test_pair_algebra_matches_embedded_evaluation():
    rng = rng_for(51)
    for _ in range(25):
        unit = random_unit(rng)
        coeffs = tuple(complex(a, b) for a, b in rng.uniform(-1, 1, (6, 2)))
        poly = ComplexSlicePolynomial(unit, coeffs)
        f = poly.embed()
        z = complex(*rng.uniform(-0.7, 0.7, 2))
        direct = embed_complex(poly.eval(z), unit)
        assert qdist(direct, f.eval(embed_complex(z, unit))) <= 1e-12


def test_complex_polynomial_derivative():
    poly = ComplexSlicePolynomial(UNIT_I, (1.0, 2.0, 3.0 + 1j))
    d = poly.derivative()
    assert d.coeffs == (2.0 + 0j, 6.0 + 2j)
    assert poly.derivative(5).coeffs == (0j,)


def test_multi_monomial_and_polynomial():
    mono = MultiMonomial((2, 1), J)
    assert mono.total_degree == 3
    v = mono.slice_eval((0.5 + 0.5j, 2.0), UNIT_I)
    expected = embed_complex((0.5 + 0.5j) ** 2 * 2.0, UNIT_I) * J
    assert qdist(v, expected) <= 1e-15
    with pytest.raises(ValueError):
        mono.slice_eval((1.0,), UNIT_I)
    with pytest.raises(ValueError):
        MultiMonomial((), ONE)
    with pytest.raises(ValueError):
        MultiMonomial((1, -2), ONE)

    poly = MultiPolynomial(2, (mono, MultiMonomial((0, 0), ONE)))
    v = poly.slice_eval((0.5 + 0.5j, 2.0), UNIT_I)
    assert qdist(v, expected + ONE) <= 1e-15
    with pytest.raises(ValueError):
        MultiPolynomial(3, (mono,))


# --- row forms: many points or pairs at once, equal to the scalar forms ---

def _row(q):
    return [q.w, q.x, q.y, q.z]


unit_coeffs = st.builds(Quaternion, *[st.floats(-1.0, 1.0)] * 4)
scaled_series = st.tuples(st.lists(unit_coeffs, min_size=1, max_size=17),
                          st.sampled_from([1e-200, 1.0, 1e200]))


@given(st.lists(scaled_series, min_size=1, max_size=6),
       st.lists(st.builds(Quaternion, *[st.floats(-1.5, 1.5)] * 4), min_size=1,
                max_size=5))
@example([([ONE], 1e-200), ([I] * 17, 1e200), ([J, K], 1.0)],
         [Quaternion(), Quaternion(0.5), Quaternion(0.1, -0.2, 0.3, 0.4)])
@settings(max_examples=100, deadline=None)
def test_eval_rows_equal_eval_in_one_zero_padded_table(functions, points):
    # degrees 0 to 16 in one table: the shorter series are zero-padded on top
    fs = [series(*(c * scale for c in coeffs)) for coeffs, scale in functions]
    got = _eval_rows(_coeff_table(fs)[:, None], np.array([_row(q) for q in points]))
    assert got.tolist() == [[_row(f.eval(q)) for q in points] for f in fs]


def _parent_split(f, unit_i, unit_j):
    """split's body before the row form, kept as the reference: (K, 4) rows."""
    qi = unit_i.as_quaternion()
    qj = unit_j.as_quaternion()
    qk = qi * qj
    basis = np.array([
        [1.0, 0.0, qj.w, qk.w],
        [0.0, unit_i.x, qj.x, qk.x],
        [0.0, unit_i.y, qj.y, qk.y],
        [0.0, unit_i.z, qj.z, qk.z],
    ])
    return np.linalg.solve(basis, np.array([_row(a) for a in f.coeffs]).T).T


def _parent_extend(f1, f2, unit_j):
    """extend's float loop before the row form, kept as the reference."""
    ux, uy, uz = f1.unit.x, f1.unit.y, f1.unit.z
    jw, jx, jy, jz = 0.0, unit_j.x, unit_j.y, unit_j.z
    width = max(len(f1.coeffs), len(f2.coeffs))
    c1 = f1.coeffs + (0j,) * (width - len(f1.coeffs))
    c2 = f2.coeffs + (0j,) * (width - len(f2.coeffs))
    coeffs = []
    for a, b in zip(c1, c2):
        bw, bx, by, bz = b.real, b.imag * ux, b.imag * uy, b.imag * uz
        coeffs.append([
            a.real + (bw * jw - bx * jx - by * jy - bz * jz),
            a.imag * ux + (bw * jx + bx * jw + by * jz - bz * jy),
            a.imag * uy + (bw * jy - bx * jz + by * jw + bz * jx),
            a.imag * uz + (bw * jz + bx * jy - by * jx + bz * jw)])
    return coeffs


def _unit_array(units):
    return np.array([[u.x, u.y, u.z] for u in units])


@given(st.integers(1, 13), st.integers(1, 4), st.integers(1, 5),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_split_and_extend_rows_equal_the_scalar_bodies(width, count, pairs, seed):
    # count functions of one coefficient count, each against its own pairs
    rng = rng_for(seed)
    fs = [SliceSeries(tuple(Quaternion(*rng.uniform(-1, 1, 4)) for _ in range(width)))
          for _ in range(count)]
    drawn = [[random_orthogonal_pair(rng) for _ in range(pairs)] for _ in fs]
    units_i = np.array([_unit_array(u for u, _ in row) for row in drawn])
    units_j = np.array([_unit_array(v for _, v in row) for row in drawn])
    parts = _split_rows(_coeff_table(fs)[:, None], units_i, units_j)
    back = _extend_rows(parts, units_i, units_j)
    for f, row, got, again in zip(fs, drawn, parts, back):
        for (unit_i, unit_j), one, coeffs in zip(row, got, again):
            assert one.tolist() == _parent_split(f, unit_i, unit_j).tolist()
            f1, f2 = split(f, unit_i, unit_j)
            assert coeffs.tolist() == _parent_extend(f1, f2, unit_j)
            assert [_row(a) for a in extend(f1, f2, unit_j).coeffs] == coeffs.tolist()


@given(st.lists(unit_coeffs, min_size=1, max_size=10),
       st.lists(st.builds(Quaternion, *[st.floats(-0.9, 0.9)] * 4), min_size=1,
                max_size=4),
       st.integers(0, 2 ** 32 - 1))
@example([Quaternion(), ONE], [Quaternion()], 0)           # f(0) = 0, f^s(0) = 0
@example([ONE, I], [Quaternion(0.5), Quaternion(-0.25)], 1)  # real points
@example([ONE], [Quaternion(0.0, 0.0, 0.0, 7.607277396786046e-162)], 0)
@settings(max_examples=100, deadline=None)
def test_point_row_forms_equal_the_scalar_forms(coeffs, drawn, seed):
    f = series(*coeffs)
    fc = regular_conjugate(f)
    rng = rng_for(seed)
    units = [random_unit(rng) for _ in drawn]
    # each point also as a real point and on the slice of its unit
    points = drawn + [Quaternion(q.w) for q in drawn] + [
        Quaternion(q.w, q.x * u.x, q.x * u.y, q.x * u.z) for q, u in zip(drawn, units)]
    units = units * 3
    q = np.array([_row(p) for p in points])
    table = _coeff_table([f])[0]
    # the rows where the scalar forms refuse may divide by zero or overflow
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        moved = _transform_rows(_eval_rows(table, q), q)
        recip, sym_modulus = _star_inverse_rows(_coeff_table([star_mul(f, fc)])[0],
                                                _coeff_table([fc])[0], q)
    via_slice = _rep_eval_rows(table, _unit_array(units), q)
    for i, (p, unit) in enumerate(zip(points, units)):
        assert via_slice[i].tolist() == _row(rep_eval(f, unit, p))
        if f.eval(p).modulus() >= 1e-12:
            assert moved[i].tolist() == _row(transform_point(f, p))
        try:
            want = star_inverse_eval(f, p)
        except SingularPoint:
            assert sym_modulus[i] < 1e-12
            continue
        assert sym_modulus[i] == symmetrization(f).eval(p).modulus()
        assert recip[i].tolist() == _row(want)
