import collections
import copy
import dataclasses
import math
import pickle
import types
import unittest.mock

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
                              random_quaternion, random_series, random_unit, rng_for,
                              standard_corpus)
from slicefock.series import (_eval_rows, _extend_rows, _rep_eval_rows,
                              _row_table, _split_rows, _star_inverse_rows,
                              _transform_rows)
import slicefock.series as series_module
from slicefock import fock
from slicefock.fock import FockParams
from slicefock.kernels import AtomicData, atomic_synthesis, kernel_series
from slicefock.quaternion import _rows
from slicefock.serialize import load_function, save_function

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


def test_nominal_radius_must_be_finite():
    # an infinite radius was accepted, saved as "radius":Infinity and then
    # refused by load_function
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            SliceSeries((ONE,), bad)


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


@given(st.lists(st.builds(Quaternion, *[st.floats(allow_nan=False)] * 4),
                min_size=1, max_size=14))
@example([SIGNED_ZEROS, Quaternion(0.0, -0.0, 0.0, -0.0)])
@example([Quaternion(-0.0, 1e-320, -1e308, float("inf")), ONE, I])
@settings(max_examples=100, deadline=None)
def test_regular_conjugate_equals_quaternion_conjugate_bit_for_bit(a):
    # the series' cached f^c; every component, so a -0.0 shows
    fc = regular_conjugate(SliceSeries(tuple(a), 0.5))
    assert [bits(c) for c in fc.coeffs] == [bits(c.conjugate()) for c in a]
    assert fc.nominal_radius == 0.5


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
    returns the series' cached f^s under test.
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
    # the reference conjugate comes from Quaternion.conjugate, not from
    # regular_conjugate, which returns f._conj itself
    fc = series(*(c.conjugate() for c in f.coeffs))
    assert _table_bits(f._coeff_rows) == _table_bits(_rows(f.coeffs))
    assert _table_bits(f._conj._coeff_rows) == _table_bits(_rows(fc.coeffs))
    assert _table_bits(f._sym._coeff_rows) == _table_bits(_rows(_scalar_star_mul(f, fc)))
    for rows in (f._coeff_rows, f._conj._coeff_rows, f._sym._coeff_rows):
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
    cold = random_series(rng, max_degree=9)          # coeffs not yet read
    f = _warm(random_series(rng, max_degree=9))
    for original in (cold, f):
        twin = clone(original)
        # a copy holds its own rows from the start, and no coeffs until read
        assert "_coeff_rows" in vars(twin) and "coeffs" not in vars(twin)
        assert twin._coeff_rows.flags.c_contiguous
        assert twin == original and repr(twin) == repr(original)
    for _ in range(5):
        q = random_ball_point(rng)
        assert _values(twin, q) == _values(f, q)
    for rows in (twin._coeff_rows, twin._conj._coeff_rows, twin._sym._coeff_rows):
        assert not rows.flags.writeable


def test_replace_builds_fresh_tables():
    f = _warm(series(ONE, I, J))
    g = dataclasses.replace(f, coeffs=(K, ONE))
    fresh = series(K, ONE)
    q = Quaternion(0.1, -0.2, 0.3, 0.05)
    assert _table_bits(g._coeff_rows) == _table_bits(fresh._coeff_rows)
    assert _table_bits(g._sym._coeff_rows) == _table_bits(fresh._sym._coeff_rows)
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


def _operator_transform_point(f, q):
    """transform_point as a composition of Quaternion operators, kept as the reference."""
    v = f.eval(q)
    return v.inverse() * q * v


edge_floats = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-150, -1e150, 1e150])
edge_quats = st.builds(Quaternion, *[edge_floats | st.floats(-2.0, 2.0)] * 4)


@given(st.lists(edge_quats, min_size=1, max_size=8), edge_quats)
@example([Quaternion(), ONE], Quaternion())                        # f(0) = 0
@example([SIGNED_ZEROS, ONE], Quaternion(-0.0, 0.5, -0.0, 0.0))
@example([ONE, I], Quaternion(1e150, -0.0, 1e-150, 5e-324))       # |v|^2 overflows
@example([Quaternion(0.0, -5e-324, 0.0, 0.0)], ONE)                # |v| = 5e-324
@example([Quaternion(1e-150, 0.0, -0.0, 2.0)], Quaternion(-0.0, -0.0, 5e-324, 0.0))
@settings(max_examples=200, deadline=None)
def test_transform_point_equals_operator_form_bit_for_bit(a, q):
    f = series(*a)
    if f.eval(q).modulus() < 1e-12:
        with pytest.raises(ZeroValue, match="function vanishes at this point"):
            transform_point(f, q)
    else:
        assert bits(transform_point(f, q)) == bits(_operator_transform_point(f, q))


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
    unit_i, unit_j = _turned_pair(direction, turn)
    f1 = ComplexSlicePolynomial(unit_i, tuple(c1))
    f2 = ComplexSlicePolynomial(unit_i, tuple(c2))
    got = extend(f1, f2, unit_j).coeffs
    want = _operator_extend(f1, f2, unit_j)
    assert [bits(a) for a in got] == [bits(b) for b in want]


def _turned_pair(direction, turn):
    """I along the direction, and J its orthonormal partner turned by the angle about I.

    Every unit orthogonal to I is such a J.
    """
    unit_i = ImaginaryUnit.normalized(*direction)
    p = orthonormal_partner(unit_i)
    ip = unit_i.as_quaternion() * p.as_quaternion()
    return unit_i, ImaginaryUnit.normalized(*(math.cos(turn) * a + math.sin(turn) * b
                                              for a, b in zip((p.x, p.y, p.z),
                                                              (ip.x, ip.y, ip.z))))


edge_complexes = st.builds(complex, edge_floats | st.floats(-1e3, 1e3),
                           edge_floats | st.floats(-1e3, 1e3))
# every pair of signed-zero coefficients; on the four (I, J) of the examples
# below, each `* 0.0` term from J's zero real part decides some sign
_ZEROS = [complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]
ZERO_PAIRS = ([a for a in _ZEROS for _ in _ZEROS], _ZEROS * 4)


@given(st.lists(edge_complexes, min_size=1, max_size=9),
       st.lists(edge_complexes, min_size=1, max_size=9), unit_dirs,
       st.floats(0.0, 2.0 * math.pi))
@example(SIGNED_ZERO_COMPLEX, [complex(-0.0, 1.5)], (0.0, 0.0, 1.0), 0.0)  # f2 padded
@example([complex(2.0, -0.0)], SIGNED_ZERO_COMPLEX + [-1j], (1.0, -1.0, 0.5), 2.0)
@example(*ZERO_PAIRS, (1.0, 0.0, 0.0), 0.0)
@example(*ZERO_PAIRS, (1.0, 0.0, 0.0), 2.0)
@example(*ZERO_PAIRS, (0.0, 0.0, 1.0), 2.0)
@example(*ZERO_PAIRS, (1.0, -1.0, 0.5), 1.0)
@settings(max_examples=150, deadline=None)
def test_extend_equals_its_row_form_bit_for_bit(c1, c2, direction, turn):
    # one pair on floats against _extend_rows on the zero-padded part rows
    unit_i, unit_j = _turned_pair(direction, turn)
    parts = np.zeros((max(len(c1), len(c2)), 4))
    parts[:len(c1), :2] = [(c.real, c.imag) for c in c1]
    parts[:len(c2), 2:] = [(c.real, c.imag) for c in c2]
    rows = _extend_rows(parts, *_unit_array([unit_i, unit_j]))
    got = extend(ComplexSlicePolynomial(unit_i, tuple(c1)),
                 ComplexSlicePolynomial(unit_i, tuple(c2)), unit_j)
    assert [bits(a) for a in got.coeffs] == [tuple(c.hex() for c in row)
                                             for row in rows.tolist()]


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


def test_derivative_order_must_be_an_integer():
    # a float order read as past the degree gave the zero series (7.5), and
    # one inside it failed in math.perm (1.5)
    f = series(*(Quaternion(float(k + 1)) for k in range(5)))
    poly = ComplexSlicePolynomial(UNIT_I, (1.0, 2j, 3.0, 0.5j, 1.0))
    for order in (1.5, 7.5, 2.0):
        with pytest.raises(TypeError):
            derivative(f, order)
        with pytest.raises(TypeError):
            poly.derivative(order)
    assert derivative(f, np.int64(2)) == derivative(f, 2)
    assert poly.derivative(np.int64(2)) == poly.derivative(2)


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
    # every coefficient past the degree is zero: no term, so the bound is 0
    assert tail_bound(SliceSeries.from_reals([1.0, 1.0, 0.0, 0.0]), r, 1) == 0.0


def test_tail_bound_degree_must_be_an_integer():
    # 0.5 gave the degree-0 bound, while truncate(f, 0.5) raises
    f = SliceSeries((Quaternion(1.0), Quaternion(0.0, 0.5)))
    for degree in (0.5, 1.0):
        with pytest.raises(TypeError):
            tail_bound(f, 0.5, degree)


def test_tail_bound_refuses_a_negative_degree():
    # the sum started at k = 1, so degree -1 gave 0.75 < |f(0.5)| = 5.75
    f = SliceSeries.from_reals([5.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        tail_bound(f, 0.5, -1)


def test_tail_bound_refuses_a_negative_or_nan_modulus():
    # -0.5 gave -0.25, a negative bound on a sum of moduli, and NaN gave NaN
    f = SliceSeries((Quaternion(1.0), Quaternion(0.0, 0.5)))
    for bad in (-0.5, -math.inf, math.nan):
        with pytest.raises(ValueError, match="point_modulus"):
            tail_bound(f, bad, 0)
    assert tail_bound(f, math.inf, 0) == math.inf
    assert tail_bound(f, 0.0, 0) == 0.0


def test_truncated_dilation_error_shrinks():
    rng = rng_for(43)
    f = random_series(rng, max_degree=6)
    params = FockParams(alpha=1.0, p=2.0, radius=1.0)
    sphere = [UNIT_I]

    def err(r, k):
        g = truncate(dilate(f, r), k)
        diff = SliceSeries(tuple(a - b for a, b in zip(
            g.coeffs + (Quaternion(),) * (f.degree - g.degree), f.coeffs)))
        with unittest.mock.patch.multiple(fock, SUP_RADIAL=65, SUP_ANGULAR=64):
            return sup_norm(diff, params, sphere).value

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
    with pytest.raises(ValueError, match="n must be at least 1"):
        MultiPolynomial(0, ())


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
    got = _eval_rows(_row_table([f._coeff_rows for f in fs])[:, None],
                     np.array([_row(q) for q in points]))
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
    parts = _split_rows(_row_table([f._coeff_rows for f in fs])[:, None],
                        units_i, units_j)
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
    table = f._coeff_rows
    # the rows where the scalar forms refuse may divide by zero or overflow
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        moved = _transform_rows(_eval_rows(table, q), q)
        recip, sym_modulus = _star_inverse_rows(star_mul(f, fc)._coeff_rows,
                                                fc._coeff_rows, q)
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


# --- results built from rows ---

def _results_from_rows(f, g):
    """Every result built from rows, by name, with f, g and an atomic datum.

    f^c and f^s are cached on their series, so each of those calls takes a
    fresh copy of f's rows and returns a series read cold.
    """
    unit_j = orthonormal_partner(UNIT_K)
    f1, f2 = split(f, UNIT_K, unit_j)
    atoms = AtomicData((Quaternion(0.1), Quaternion(-0.2, 0.0, 0.0, 0.3)), (I, J), 1.5, 9)
    w = Quaternion(0.2, -0.1, 0.4, 0.0)
    poly = ComplexSlicePolynomial(UNIT_K, (complex(1.5, -0.0), -0.25j, 0j))

    def fresh():
        return SliceSeries._of_rows(f._coeff_rows, f.nominal_radius)

    return {"star_mul": lambda: star_mul(f, g),
            "regular_conjugate": lambda: regular_conjugate(fresh()),
            "symmetrization": lambda: symmetrization(fresh()),
            "extend": lambda: extend(f1, f2, unit_j),
            "embed": poly.embed,
            "from_reals": lambda: SliceSeries.from_reals([0.5, -0.0, 3, np.float64(-2.5)]),
            "standard_corpus": lambda: standard_corpus(3, count=4)[-1],
            "kernel_series": lambda: kernel_series(w, 2.0, 11, radius=3.0),
            "atomic_synthesis": lambda: atomic_synthesis(atoms, UNIT_K)}


def test_results_built_from_rows_make_no_quaternion_until_coeffs_is_read(monkeypatch,
                                                                        tmp_path):
    made = collections.Counter()
    init = Quaternion.__init__

    def counting(self, *args, **kwargs):
        made["Quaternion"] += 1
        init(self, *args, **kwargs)

    f, g = random_series(rng_for(3), max_degree=9), series(ONE, I, SIGNED_ZEROS)
    path = tmp_path / "f.json"
    save_function(f, str(path))
    coeffs = f.coeffs
    # every series holds rows alone, whatever built it; a file makes its
    # Quaternions while it parses, before the series
    parsed = {"load_function": lambda: load_function(str(path))}
    results = {**_results_from_rows(f, g), **parsed,
               "quaternions": lambda: SliceSeries(coeffs, 2.0),
               "truncate": lambda: truncate(f, 4), "dilate": lambda: dilate(f, 0.75),
               "derivative": lambda: derivative(f, 2), "scale_right": lambda: f.scale_right(J)}
    monkeypatch.setattr(Quaternion, "__init__", counting)
    for name, make in results.items():
        made.clear()
        h = make()
        if name in parsed:
            made.clear()
        assert "_coeff_rows" in vars(h) and "coeffs" not in vars(h), name
        h.degree, h._float_rows, h._coeff_rows, h._conj._float_rows, h._sym._float_rows
        tail_bound(h, 0.5, 0)
        assert made["Quaternion"] == 0, name
        assert "coeffs" not in vars(h), name
        coeffs = h.coeffs
        assert made["Quaternion"] == len(coeffs) == h.degree + 1, name
        assert h.coeffs is coeffs                     # built once


def _hex_rows(rows):
    return [tuple(c.hex() for c in row) for row in rows]


def test_results_built_from_rows_equal_their_quaternion_twins():
    f, g = random_series(rng_for(4), max_degree=8), series(SIGNED_ZEROS, K, -ONE)
    fc = series(*(c.conjugate() for c in f.coeffs))
    references = {"star_mul": _scalar_star_mul(f, g), "regular_conjugate": fc.coeffs,
                  "symmetrization": _scalar_star_mul(f, fc)}
    for name, make in _results_from_rows(f, g).items():
        h = make()
        assert h._coeff_rows.flags.c_contiguous and not h._coeff_rows.flags.writeable
        # the kernel values are pinned against their references in test_kernels
        coeffs = references.get(name) or tuple(
            Quaternion(*row) for row in h._coeff_rows.tolist())
        twin = SliceSeries(tuple(coeffs), h.nominal_radius)
        fresh = [make() for _ in range(4)]            # each read cold, coeffs unbuilt
        assert fresh[0] == twin and twin == fresh[1], name
        assert hash(fresh[2]) == hash(twin), name
        assert repr(fresh[3]) == repr(twin), name
        copied = pickle.loads(pickle.dumps(make()))
        assert copied == twin and repr(copied) == repr(twin), name
        assert dataclasses.replace(make()) == twin, name
        assert (dataclasses.replace(make(), nominal_radius=0.5)
                == dataclasses.replace(twin, nominal_radius=0.5)), name
        assert _hex_rows(h._float_rows) == _hex_rows(twin._float_rows), name
        assert [bits(a) for a in h.coeffs] == [bits(a) for a in twin.coeffs], name


def test_drawn_embedded_and_real_rows_equal_their_quaternion_constructions():
    # the Quaternion constructions the row forms replaced, kept as the reference
    for seed in range(6):
        old = rng_for(seed)
        for f in standard_corpus(seed):
            degree = int(old.integers(0, 13))
            twin = SliceSeries(tuple(random_quaternion(old) for _ in range(degree + 1)))
            assert _hex_rows(f._float_rows) == _hex_rows(twin._float_rows)
    for unit in (UNIT_K, ImaginaryUnit(0.6, 0.0, -0.8)):
        for cs in ((complex(1.5, -0.0), -0.25j, complex(-0.0, 3.0), 0j), ()):
            poly = ComplexSlicePolynomial(unit, cs)
            twin = SliceSeries(tuple(embed_complex(c, unit) for c in poly.coeffs))
            assert _hex_rows(poly.embed()._float_rows) == _hex_rows(twin._float_rows)
    for values in ([0.5, -0.0, 3, np.float64(-2.5), math.inf], []):
        twin = SliceSeries(tuple(Quaternion(float(v)) for v in values), 2.0)
        f = SliceSeries.from_reals(values, 2.0)
        assert f == twin and _hex_rows(f._float_rows) == _hex_rows(twin._float_rows)


# --- transforms on rows, against their Quaternion-operator forms ---

def _operator_dilate(f, r):
    """The Quaternion-operator loop dilate replaced, kept as the reference."""
    coeffs, scale = [], 1.0
    for a in f.coeffs:
        coeffs.append(scale * a)
        scale *= r
    return tuple(coeffs)


def _operator_derivative(coeffs, order, zero):
    """The operator form of both derivatives, (k+t)!/k! * a_{k+t}, kept as the reference."""
    if order >= len(coeffs):
        return (zero,)
    return tuple(math.perm(k + order, order) * coeffs[k + order]
                 for k in range(len(coeffs) - order))


def _dilation_difference(f, r):
    """The series f_r - f that fock._dilation_values hands to the sup search."""
    jobs = []

    def capture(batch, *args, **kwargs):
        jobs.extend(batch)
        return [types.SimpleNamespace(ball=0.0)] * len(batch)

    with unittest.mock.patch.object(fock, "_sup_over_rows", capture):
        fock._dilation_values([f], FockParams(alpha=1.0, p=2.0, radius=1.0), [r], 9, 8)
    return jobs[0][0]


signed_floats = st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3)
signed_quats = st.builds(Quaternion, *[signed_floats] * 4)


@given(st.lists(signed_quats, min_size=1, max_size=14), signed_quats,
       st.floats(1e-3, 1.0, exclude_max=True), st.integers(0, 16), st.integers(1, 24))
@example([SIGNED_ZEROS], SIGNED_ZEROS, 0.5, 0, 1)
@example([Quaternion(-0.0, 1e3, -0.0, 0.0), SIGNED_ZEROS, -I, SIGNED_ZEROS],
         Quaternion(0.0, -0.0, 2.0, -0.0), 0.25, 1, 2)
@example([ONE] * 30, ONE, 0.75, 13, 15)             # (k+t)!/k! past 2^53
@settings(max_examples=100, deadline=None)
def test_row_transforms_equal_their_operator_forms_bit_for_bit(a, c, r, degree, order):
    f = series(*a)
    want = {"quaternions": tuple(a),
            "truncate": tuple(a[:degree + 1]),
            "dilate": _operator_dilate(f, r),
            "dilation difference": tuple(x - y for x, y in zip(_operator_dilate(f, r), a)),
            "derivative": _operator_derivative(tuple(a), order, Quaternion()),
            "scale_right": tuple(x * c for x in a)}
    got = {"quaternions": series(*a), "truncate": truncate(f, degree),
           "dilate": dilate(f, r), "dilation difference": _dilation_difference(f, r),
           "derivative": derivative(f, order), "scale_right": f.scale_right(c)}
    for name, h in got.items():
        reference = [bits(x) for x in want[name]]
        assert _hex_rows(h._coeff_rows.tolist()) == reference, name
        assert [bits(x) for x in h.coeffs] == reference, name
        assert h._coeff_rows.flags.c_contiguous and not h._coeff_rows.flags.writeable, name


signed_complexes = st.builds(complex, signed_floats, signed_floats)


@given(st.lists(signed_complexes, min_size=1, max_size=14), st.integers(1, 24))
@example([complex(-0.0, 0.0), complex(1.0, -0.0), complex(-0.0, -0.0)], 1)
@example([complex(1.0, -1.0)] * 30, 15)             # (k+t)!/k! past 2^53
@settings(max_examples=100, deadline=None)
def test_complex_derivative_equals_its_operator_form_bit_for_bit(cs, order):
    poly = ComplexSlicePolynomial(UNIT_K, cs)
    got = poly.derivative(order).coeffs
    want = _operator_derivative(poly.coeffs, order, 0j)
    assert [(z.real.hex(), z.imag.hex()) for z in got] == \
        [(z.real.hex(), z.imag.hex()) for z in want]


@given(coeff_lists, st.sampled_from([1e154, 1e200, 1e300, 1.2e308]),
       unit_directions)
@settings(max_examples=60, deadline=None)
def test_rep_eval_equals_decompose_form_at_huge_imaginary_parts(a, size, direction):
    f = series(*a[:2])
    unit = ImaginaryUnit.normalized(*direction)
    for q in (Quaternion(0.5, size, 0.0, 0.0), Quaternion(0.0, size, -size, 0.5 * size)):
        with np.errstate(all="ignore"):
            got, want = rep_eval(f, unit, q), _operator_rep_eval(f, unit, q)
        assert bits(got) == bits(want)


@pytest.mark.parametrize("vec", [(math.inf, 0.0, 0.0), (math.nan, 1.0, 0.0),
                                 (0.0, -math.inf, math.nan)])
def test_rep_eval_refuses_a_non_finite_direction_as_decompose_does(vec):
    q = Quaternion(0.25, *vec)
    with pytest.raises(ValueError) as want:
        decompose(q)
    with pytest.raises(ValueError) as got:
        rep_eval(series(ONE, I), UNIT_J, q)
    assert str(got.value) == str(want.value)
    assert "direction must be finite" in str(got.value)
