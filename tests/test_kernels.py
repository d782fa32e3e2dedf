import cmath
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slicefock import (UNIT_I, UNIT_J, AtomicData, FockParams, PointOffSlice,
                       ImaginaryUnit, Quaternion, SliceSeries,
                       atomic_synthesis,
                       embed_complex, fock_norm_p, kernel_series,
                       lattice_points, normalized_kernel_eval,
                       normalized_kernel_tail_bound, rep_eval,
                       star_exp_eval, star_exp_tail_bound)
from slicefock.corpus import random_unit, rng_for

I_Q = Quaternion(0.0, 1.0, 0.0, 0.0)
J_Q = Quaternion(0.0, 0.0, 1.0, 0.0)


def qdist(a, b):
    return (a - b).modulus()


def brute_horner(q, w, alpha, trunc):
    # same series, summed highest order first
    coeffs = []
    wb = Quaternion(1.0)
    scale = 1.0
    for n in range(trunc + 1):
        coeffs.append(wb * scale)
        wb = wb * w.conjugate()
        scale *= alpha / (n + 1)
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = q * acc + c
    return acc


def test_kernel_at_zero_weight_point():
    q = Quaternion(0.2, -0.4, 0.1, 0.7)
    assert star_exp_eval(q, Quaternion(), 1.0, 25) == Quaternion(1.0)


def test_kernel_brute_force_oracle():
    value = star_exp_eval(I_Q, J_Q, 1.0, 40)
    assert qdist(value, brute_horner(I_Q, J_Q, 1.0, 40)) <= 1e-14


def test_kernel_validation():
    with pytest.raises(ValueError):
        star_exp_eval(I_Q, J_Q, 0.0, 10)
    for call in (lambda degree: star_exp_eval(I_Q, J_Q, 1.0, degree),
                 lambda degree: kernel_series(J_Q, 1.0, degree)):
        with pytest.raises(ValueError, match="truncation degree must be nonnegative"):
            call(-1)
        with pytest.raises(TypeError):
            call(2.5)
    for alpha in (math.inf, math.nan, -1.0):
        for call in (lambda: star_exp_eval(I_Q, J_Q, alpha, 10),
                     lambda: star_exp_tail_bound(I_Q, J_Q, alpha, 10),
                     lambda: kernel_series(J_Q, alpha, 10)):
            with pytest.raises(ValueError, match="positive and finite"):
                call()


def test_tail_bound_dominates_truncation_error():
    rng = rng_for(81)
    for _ in range(25):
        q = Quaternion(*rng.uniform(-1, 1, 4))
        w = Quaternion(*rng.uniform(-1, 1, 4))
        full = star_exp_eval(q, w, 1.5, 60)
        for trunc in (4, 8, 16):
            short = star_exp_eval(q, w, 1.5, trunc)
            assert qdist(full, short) <= star_exp_tail_bound(q, w, 1.5, trunc) + 1e-15


@pytest.mark.parametrize("x, trunc", [(900.0, 40), (710.0, 0), (720.0, 2000),
                                      (710.0, 20000), (1e300, 3)])
def test_tail_bound_never_raises_where_e_x_overflows(x, trunc):
    # e^x > 1.8e308 for x > 709.8; the bound is formed from its logarithm
    q, w = Quaternion(x), Quaternion(1.0)
    log_bound = (trunc + 1) * math.log(x) - math.lgamma(trunc + 2) + x
    bound = star_exp_tail_bound(q, w, 1.0, trunc)
    if log_bound > 709.8:
        assert bound == math.inf
    else:
        # x = 720, N = 2000: the power alone is about 1e-20, the bound 1e292;
        # x = 710, N = 20000: the power underflows to 0 and so does the bound
        assert math.isclose(bound, math.exp(log_bound), rel_tol=1e-10)


def _parent_tail_bound(x, trunc):
    """(x^{N+1}/(N+1)!) e^x as the bound was formed before the e^x cap."""
    lead = 1.0
    for n in range(1, trunc + 2):
        lead *= x / n
    try:
        bound = lead * math.exp(x) * math.exp(0.0)
    except OverflowError:
        bound = math.inf
    if 0.0 < bound < math.inf or x == 0.0:
        return bound
    log_bound = (trunc + 1) * math.log(x) - math.lgamma(trunc + 2) + x + 0.0
    try:
        return math.exp(log_bound)
    except OverflowError:
        return math.inf


def test_tail_bound_at_n_300_is_finite_and_dominates_the_tail():
    # x = alpha |q| |w| = 400: the tail sum_{n > 300} x^n/n! is close to e^400,
    # which fits a float; summed in log space from its terms
    x, trunc = 400.0, 300
    bound = star_exp_tail_bound(Quaternion(20.0), Quaternion(20.0), 1.0, trunc)
    logs = [n * math.log(x) - math.lgamma(n + 1) for n in range(trunc + 1, 3000)]
    top = max(logs)
    tail = math.exp(top) * math.fsum(math.exp(v - top) for v in logs)
    assert math.isfinite(bound)
    assert tail <= bound
    assert _parent_tail_bound(x, trunc) == math.inf


@given(st.floats(0.0, 800.0), st.integers(0, 2500))
@example(x=720.0, trunc=2000)      # e^720 overflows: the log branch, power 1e-20
@example(x=1.0, trunc=0)           # the power is exactly 1
@settings(max_examples=200, deadline=None)
def test_tail_bound_unchanged_where_the_power_is_at_most_one(x, trunc):
    lead = 1.0
    for n in range(1, trunc + 2):
        lead *= x / n
    bound = star_exp_tail_bound(Quaternion(x), Quaternion(1.0), 1.0, trunc)
    if lead <= 1.0:
        assert bound == _parent_tail_bound(x, trunc)
    else:
        assert bound <= _parent_tail_bound(x, trunc)


def test_slice_collapse_to_complex_exponential():
    rng = rng_for(82)
    for _ in range(100):
        unit = random_unit(rng)
        zq = complex(*rng.uniform(-1, 1, 2))
        zw = complex(*rng.uniform(-1, 1, 2))
        q = embed_complex(zq, unit)
        w = embed_complex(zw, unit)
        value = star_exp_eval(q, w, 1.0, 36)
        expected = embed_complex(cmath.exp(zq * zw.conjugate()), unit)
        tail = star_exp_tail_bound(q, w, 1.0, 36)
        assert qdist(value, expected) <= tail + 1e-12


def test_kernel_series_matches_pointwise_kernel():
    rng = rng_for(83)
    w = Quaternion(0.3, -0.2, 0.5, 0.1)
    series = kernel_series(w, 2.0, 24)
    assert series.degree == 24
    for _ in range(10):
        q = Quaternion(*rng.uniform(-0.9, 0.9, 4))
        assert qdist(series.eval(q), star_exp_eval(q, w, 2.0, 24)) <= 1e-13


def test_kernel_two_slice_consistency():
    # the kernel is slice regular in q, so one slice determines the rest
    w = embed_complex(0.4 - 0.3j, UNIT_I)
    series = kernel_series(w, 1.0, 30)
    for y in (0.2, -0.55, 0.8):
        q = Quaternion(0.1, 0.0, y, 0.0)  # points of C_j
        assert qdist(rep_eval(series, UNIT_I, q), series.eval(q)) <= 1e-10


def test_normalized_kernel_examples():
    q = Quaternion(0.25, 0.1, -0.3, 0.0)
    assert qdist(normalized_kernel_eval(Quaternion(), q, 1.0, 20),
                 Quaternion(1.0)) <= 1e-15

    z = embed_complex(0.6 + 0.2j, UNIT_I)
    value = normalized_kernel_eval(z, z, 1.0, 40)
    expected = Quaternion(math.exp(0.5 * z.modulus_sq()))
    damp = math.exp(-0.5 * z.modulus_sq())
    tail = star_exp_tail_bound(z, z, 1.0, 40) * damp
    assert normalized_kernel_tail_bound(z, z, 1.0, 40) == tail
    assert qdist(value, expected) <= tail + 1e-12


def test_normalized_kernel_ball_norm_below_one():
    # unit norm on the full plane, so strictly less on the ball
    z = embed_complex(0.5 + 0.1j, UNIT_I)
    damp = math.exp(-0.5 * z.modulus_sq())
    series = kernel_series(z, 1.0, 40).scale_right(Quaternion(damp))
    params = FockParams(alpha=1.0, p=2.0, radius=1.0)
    report = fock_norm_p(series, params, sphere=[UNIT_I, UNIT_J])
    assert 0.0 < report.value < 1.0


# --- atomic synthesis ---

def test_synthesis_single_point_at_origin():
    c = Quaternion(0.3, 0.1, -0.2, 0.5)
    data = AtomicData((Quaternion(),), (c,), 1.0, 12)
    f = atomic_synthesis(data, UNIT_I)
    assert f.coeffs[0] == c
    assert all(a.modulus() == 0.0 for a in f.coeffs[1:])


def test_synthesis_degree_must_be_an_integer():
    # 2.5 was accepted here and failed later inside atomic_synthesis' range
    with pytest.raises(TypeError):
        AtomicData((Quaternion(),), (Quaternion(1.0),), 1.0, 2.5)


def test_synthesis_two_point_parity():
    alpha = 1.0
    data = AtomicData((Quaternion(0.5), Quaternion(-0.5)),
                      (Quaternion(1.0), Quaternion(1.0)), alpha, 16)
    f = atomic_synthesis(data, UNIT_I)
    damp = math.exp(-alpha / 8.0)
    for n, coeff in enumerate(f.coeffs):
        if n % 2 == 1:
            assert coeff.modulus() < 1e-15
        else:
            expected = alpha**n * damp * (0.5**n + (-0.5) ** n) / math.factorial(n)
            assert abs(coeff.w - expected) <= 1e-15
            assert coeff.imag_modulus() == 0.0


def test_synthesis_linearity():
    rng = rng_for(84)
    pts = tuple(embed_complex(complex(*rng.uniform(-0.7, 0.7, 2)), UNIT_I)
                for _ in range(4))
    a = tuple(Quaternion(*rng.uniform(-1, 1, 4)) for _ in range(4))
    b = tuple(Quaternion(*rng.uniform(-1, 1, 4)) for _ in range(4))
    c = Quaternion(0.3, -0.5, 0.2, 0.8)

    f_a = atomic_synthesis(AtomicData(pts, a, 1.0, 18), UNIT_I)
    f_b = atomic_synthesis(AtomicData(pts, b, 1.0, 18), UNIT_I)
    f_sum = atomic_synthesis(
        AtomicData(pts, tuple(x + y for x, y in zip(a, b)), 1.0, 18), UNIT_I)
    worst = max(qdist(s, x + y) for s, x, y
                in zip(f_sum.coeffs, f_a.coeffs, f_b.coeffs))
    assert worst <= 1e-13

    f_scaled = atomic_synthesis(
        AtomicData(pts, tuple(x * c for x in a), 1.0, 18), UNIT_I)
    worst = max(qdist(s, x * c) for s, x in zip(f_scaled.coeffs, f_a.coeffs))
    assert worst <= 1e-13


def test_synthesis_truncation_stability():
    rng = rng_for(85)
    pts = tuple(embed_complex(complex(*rng.uniform(-0.7, 0.7, 2)), UNIT_I)
                for _ in range(3))
    coeffs = tuple(Quaternion(*rng.uniform(-1, 1, 4)) for _ in range(3))
    f32 = atomic_synthesis(AtomicData(pts, coeffs, 2.0, 32), UNIT_I)
    f64 = atomic_synthesis(AtomicData(pts, coeffs, 2.0, 64), UNIT_I)
    shared = max(qdist(a, b) for a, b in zip(f32.coeffs, f64.coeffs))
    assert shared <= 1e-15  # shared coefficients use the identical formula
    tail = max(a.modulus() for a in f64.coeffs[33:])
    assert tail < 1e-12


def _scalar_synthesis(data):
    """The scalar loop atomic_synthesis replaced, kept as the reference."""
    damps = [math.exp(-0.5 * data.alpha * p.modulus_sq()) for p in data.points]
    conj_powers = [Quaternion(1.0) for _ in data.points]
    coeffs = []
    scale = 1.0
    for n in range(data.trunc_degree + 1):
        if n > 0:
            scale *= data.alpha / n
            conj_powers = [cp * p.conjugate()
                           for cp, p in zip(conj_powers, data.points)]
        acc = Quaternion()
        for cp, damp, a in zip(conj_powers, damps, data.coeffs):
            acc = acc + (cp * a) * (scale * damp)
        coeffs.append(acc)
    return tuple(coeffs)


directions = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: sum(c * c for c in v) > 1e-2)
atoms = st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5),
                           st.tuples(*[st.floats(-2.0, 2.0)] * 4)),
                 min_size=1, max_size=12)


@given(directions, atoms, st.floats(0.05, 4.0), st.integers(0, 40))
@example((1.0, 0.0, 0.0), [(0.4, -0.3, (1.0, 0.5, -0.25, 2.0))], 1.0, 12)   # one atom
@example((0.0, 1.0, 1.0), [(0.0, 0.0, (0.3, 0.1, -0.2, 0.5)),               # origin
                           (0.5, 0.7, (1.0, 0.0, 0.0, 0.0))], 2.5, 33)
@example((0.2, -1.0, 0.3), [(0.5, 0.0, (1.0, 1.0, 0.0, 0.0)),               # real atoms
                            (-1.2, 0.0, (0.0, 0.0, 1.0, -1.0))], 0.3, 0)
@settings(max_examples=150, deadline=None)
def test_synthesis_equals_scalar_loop_bit_for_bit(direction, atom_list, alpha, trunc):
    unit = ImaginaryUnit.normalized(*direction)
    points = tuple(embed_complex(complex(re, im), unit) for re, im, _ in atom_list)
    coeffs = tuple(Quaternion(*c) for _, _, c in atom_list)
    data = AtomicData(points, coeffs, alpha, trunc)
    assert atomic_synthesis(data, unit).coeffs == _scalar_synthesis(data)


def _quaternion_star_exp(q, w, alpha, trunc):
    """The Quaternion-operator loop star_exp_eval replaced, kept as the reference."""
    acc = Quaternion(1.0)
    qp = Quaternion(1.0)
    wp = Quaternion(1.0)
    wbar = w.conjugate()
    scale = 1.0
    for n in range(1, trunc + 1):
        qp = qp * q
        wp = wp * wbar
        scale *= alpha / n
        acc = acc + (qp * wp) * scale
    return acc


def bits(q):
    """Components as hex strings, so == also tells -0.0 from 0.0."""
    return tuple(c.hex() for c in (q.w, q.x, q.y, q.z))


kernel_quats = st.builds(Quaternion, *[st.floats(-2.0, 2.0)] * 4)


@given(kernel_quats, kernel_quats, st.floats(0.05, 4.0), st.integers(0, 40))
@example(Quaternion(0.3, -0.2, 0.1, 0.5), Quaternion(-0.0, 0.7, -0.0, 0.2), 2.5, 0)
@example(Quaternion(0.3, -0.2, 0.1, 0.5), Quaternion(0.4, 0.7, -0.1, 0.2), 0.3, 32)
@example(Quaternion(-0.0, 0.0, -0.0, 0.0), Quaternion(0.4, -0.0, 0.0, -0.0), 1.7, 5)
@settings(max_examples=150, deadline=None)
def test_star_exp_equals_quaternion_loop_bit_for_bit(q, w, alpha, trunc):
    assert bits(star_exp_eval(q, w, alpha, trunc)) == bits(
        _quaternion_star_exp(q, w, alpha, trunc))


def test_synthesis_rejects_off_slice_points():
    data = AtomicData((Quaternion(0.1, 0.0, 0.5, 0.0),), (Quaternion(1.0),),
                      1.0, 8)
    with pytest.raises(PointOffSlice):
        atomic_synthesis(data, UNIT_I)
    # the first point off the slice is named, also where its distance is NaN:
    # <Im z, I> overflows and inf * 0 enters the residual
    huge = Quaternion(0.0, 1.7e308, 1.7e308, 1.7e308)
    data = AtomicData((Quaternion(0.2), huge, Quaternion(0.0, 0.0, 0.5, 0.0)),
                      (Quaternion(1.0),) * 3, 1.0, 8)
    with pytest.raises(PointOffSlice, match="1.7e"):
        atomic_synthesis(data, ImaginaryUnit(0.6, 0.8, 0.0))


def test_atomic_data_validation():
    with pytest.raises(ValueError):
        AtomicData((Quaternion(),), (), 1.0, 4)
    for alpha in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            AtomicData((Quaternion(),), (Quaternion(1.0),), alpha, 4)
    with pytest.raises(ValueError):
        AtomicData((Quaternion(),), (Quaternion(1.0),), 1.0, -1)
    # non-finite points passed the slice check (dist > tol is False for NaN,
    # and inf * 0 = NaN) and synthesized all-NaN coefficients
    for bad in (Quaternion(0.1, math.nan, 0.0, 0.0), Quaternion(0.1, 0.0, math.inf, 0.0),
                Quaternion(-math.inf)):
        with pytest.raises(ValueError):
            AtomicData((bad,), (Quaternion(1.0),), 1.0, 4)
        with pytest.raises(ValueError):
            AtomicData((Quaternion(0.1),), (bad,), 1.0, 4)


# --- lattices ---

def test_lattice_origin_only():
    pts = lattice_points(1.0, UNIT_I, 0.9)
    assert pts == [Quaternion()]


def test_lattice_thirteen_points():
    pts = lattice_points(0.5, UNIT_I, 1.01)
    assert len(pts) == 13
    values = {(round(p.w, 10), round(p.x, 10)) for p in pts}
    expected = {(0.0, 0.0), (0.5, 0.0), (-0.5, 0.0), (0.0, 0.5), (0.0, -0.5),
                (0.5, 0.5), (0.5, -0.5), (-0.5, 0.5), (-0.5, -0.5),
                (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)}
    assert values == expected
    assert all(p.y == 0.0 and p.z == 0.0 for p in pts)
    mods = [p.modulus() for p in pts]
    assert mods == sorted(mods)  # ordered by modulus first


def test_lattice_deterministic():
    a = lattice_points(0.3, UNIT_J, 1.0)
    b = lattice_points(0.3, UNIT_J, 1.0)
    assert a == b
    assert all(p.x == 0.0 and p.z == 0.0 for p in a)  # lives on C_j


def test_lattice_validation():
    with pytest.raises(ValueError):
        lattice_points(0.0, UNIT_I, 1.0)
    with pytest.raises(ValueError):
        lattice_points(0.5, UNIT_I, 0.0)


def test_star_exp_sum_stays_finite_where_the_powers_overflow():
    # 20^300 overflows a float, but every term 400^n / n!, n <= 300, and
    # their sum (about 1e167) are representable
    value = star_exp_eval(Quaternion(20.0), Quaternion(20.0), 1.0, 300)
    logs = [n * math.log(400.0) - math.lgamma(n + 1) for n in range(301)]
    top = max(logs)
    want = math.exp(top) * math.fsum(math.exp(t - top) for t in logs)
    assert all(map(math.isfinite, (value.w, value.x, value.y, value.z)))
    assert abs(value.w - want) <= 1e-12 * want
    assert value.x == value.y == value.z == 0.0
