import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slicefock import (ONE, UNIT_I, UNIT_J, AtomicData, FockParams, PointOffSlice,
                       ImaginaryUnit, Quaternion, SliceSeries,
                       atomic_synthesis,
                       embed_complex, fock_norm_p, kernel_series,
                       lattice_points, normalized_kernel_eval,
                       normalized_kernel_tail_bound, rep_eval,
                       star_exp_eval, star_exp_tail_bound)
from slicefock.corpus import random_unit, rng_for
from slicefock.quaternion import _rows

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
@example((0.0, 0.0, 1.0), [(-0.0, 0.0, (-0.0, 0.0, -0.0, -0.0))], 1.0, 3)  # -0.0 terms
@settings(max_examples=150, deadline=None)
def test_synthesis_equals_scalar_loop_bit_for_bit(direction, atom_list, alpha, trunc):
    unit = ImaginaryUnit.normalized(*direction)
    points = tuple(embed_complex(complex(re, im), unit) for re, im, _ in atom_list)
    coeffs = tuple(Quaternion(*c) for _, _, c in atom_list)
    data = AtomicData(points, coeffs, alpha, trunc)
    # hex bits: the sum starts from +0.0 on both sides, so -0.0 must not show
    assert [bits(a) for a in atomic_synthesis(data, unit).coeffs] == [
        bits(a) for a in _scalar_synthesis(data)]


def _quaternion_star_exp(q, w, alpha, trunc):
    """The power sum with `Quaternion` operators, kept as a second oracle."""
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


def _nested_star_exp(q, w, alpha, trunc):
    """The nested loop with `Quaternion` operators, kept as the reference.

    q 2^-k and wbar 2^k, k half the difference of the frexp exponents of
    the largest |component| of q and of w, then acc = 1 + (q acc wbar)(a/n)
    for n = N, ..., 1.
    """
    k = (math.frexp(max(map(abs, (q.w, q.x, q.y, q.z))))[1]
         - math.frexp(max(map(abs, (w.w, w.x, w.y, w.z))))[1]) // 2
    q = Quaternion(*(math.ldexp(c, -k) for c in (q.w, q.x, q.y, q.z)))
    wbar = w.conjugate()
    wbar = Quaternion(*(math.ldexp(c, k) for c in (wbar.w, wbar.x, wbar.y, wbar.z)))
    acc = ONE
    for n in range(trunc, 0, -1):
        acc = ONE + (q * acc * wbar) * (alpha / n)
    return acc


def bits(q):
    """Components as hex strings, so == also tells -0.0 from 0.0."""
    return tuple(c.hex() for c in (q.w, q.x, q.y, q.z))


kernel_quats = st.builds(Quaternion, *[st.floats(-2.0, 2.0)] * 4)


@given(kernel_quats, kernel_quats, st.floats(0.05, 4.0), st.integers(0, 40))
@example(Quaternion(0.3, -0.2, 0.1, 0.5), Quaternion(-0.0, 0.7, -0.0, 0.2), 2.5, 0)
@example(Quaternion(0.3, -0.2, 0.1, 0.5), Quaternion(0.4, 0.7, -0.1, 0.2), 0.3, 32)
@example(Quaternion(-0.0, 0.0, -0.0, 0.0), Quaternion(0.4, -0.0, 0.0, -0.0), 1.7, 5)
@example(Quaternion(1e300, -0.0, 2e299, 0.0), Quaternion(-0.0, 1e-300, 0.0, 3e-301), 1.0, 9)
@settings(max_examples=150, deadline=None)
def test_star_exp_equals_quaternion_loop_bit_for_bit(q, w, alpha, trunc):
    assert bits(star_exp_eval(q, w, alpha, trunc)) == bits(
        _nested_star_exp(q, w, alpha, trunc))


def _hamilton(a, b):
    """The Hamilton product of two 4-tuples, as `Quaternion.__mul__` forms it."""
    return (a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3],
            a[0] * b[1] + a[1] * b[0] + a[2] * b[3] - a[3] * b[2],
            a[0] * b[2] - a[1] * b[3] + a[2] * b[0] + a[3] * b[1],
            a[0] * b[3] + a[1] * b[2] - a[2] * b[1] + a[3] * b[0])


def _exact_star_exp(q, w, alpha, trunc):
    """sum_{n<=N} q^n alpha^n wbar^n / n! of the floats given, as four Fractions.

    Every float is an integer over a power of two, so with one shift s,
    q = Q/2^s, wbar = B/2^s and alpha = A/2^s for integers Q, B, A, and the
    sum is that of Q^n B^n A^n / (2^{3sn} n!), taken over the common
    denominator 2^{3sN} N! in integers.
    """
    ratios = [c.as_integer_ratio() for c in (q.w, q.x, q.y, q.z,
                                             w.w, -w.x, -w.y, -w.z, alpha)]
    shift = max(d.bit_length() for _, d in ratios) - 1
    ints = [n << (shift + 1 - d.bit_length()) for n, d in ratios]
    big_q, big_b, big_a = ints[0:4], ints[4:8], ints[8]
    qp = bp = (1, 0, 0, 0)
    total = [0, 0, 0, 0]
    for n in range(trunc + 1):
        if n:
            qp, bp = _hamilton(qp, big_q), _hamilton(bp, big_b)
        weight = (big_a ** n << 3 * shift * (trunc - n)) \
            * (math.factorial(trunc) // math.factorial(n))
        total = [t + c * weight for t, c in zip(total, _hamilton(qp, bp))]
    denominator = (1 << 3 * shift * trunc) * math.factorial(trunc)
    return [Fraction(t, denominator) for t in total]


# The bound's constant, from Horner's error analysis (Higham, Accuracy and
# Stability of Numerical Algorithms, 2nd ed., 2002, ch. 3 and 5), with
# u = 2^-53 and gamma_m = m u / (1 - m u).  A quaternion product rounds each
# component as a 4-term dot product, within gamma_4 of the sum of its |terms|;
# that sum is at most |a||b| per component (Cauchy-Schwarz), so the product
# is within 2 gamma_4 |a||b| <= gamma_8 |a||b| in modulus.
#
# Nested: step n takes the computed acc_n to acc_{n-1} = fl(1 + (q' acc_n
# wbar') fl(a/n)): two products, the rounded a/n, one scalar product and one
# sum.  With x = a|q||w| and y = x/n its rounding error is at most
# theta (1 + y |acc_n|), theta = (1 + gamma_8)^2 (1 + u)^3 - 1 <= gamma_19.
# H_N = 1, H_{n-1} = 1 + y H_n are the Horner values of sum x^m/m!, which
# bound the exact partial values, and H_0 = sum_{n<=N} x^n/n!.  The error
# D_n of acc_n then has D_{n-1} <= (1 + theta) y D_n + theta H_{n-1}, so by
# induction D_n <= ((1 + theta)^{N-n} - 1) H_n, and the value is within
# ((1 + gamma_19)^N - 1) H_0 <= gamma_{19N} H_0 (Higham Lemma 3.3).  Scaling
# by 2^k is exact for every input here.
#
# Power sum: term n is made of 2n - 1 products, 2n + 1 scalar roundings and
# at most N + 1 sums, so it is exact up to gamma_{8(2n-1) + 2n+1 + N+1} <=
# gamma_{19N}, times x^n/n!.
#
# gamma_{19N} <= 20 N u for 19 N u <= 1/20, which holds for N < 10^13, so
# both errors are at most C (N + 1) u H_0 with C = 20.  An underflowed term
# adds at most 2^-1074 per rounding, far below the bound's floor of 20 u.
_HORNER_C = 20.0


def _error_and_bound(value, q, w, alpha, trunc):
    """|value - exact| and C (N + 1) 2^-53 sum_{n<=N} x^n/n!, x = a|q||w|."""
    exact = _exact_star_exp(q, w, alpha, trunc)
    got = (value.w, value.x, value.y, value.z)
    error = math.sqrt(sum(float(Fraction(v) - e) ** 2 for v, e in zip(got, exact)))
    x = alpha * q.modulus() * w.modulus()
    term, total = 1.0, 1.0
    for n in range(1, trunc + 1):
        term *= x / n
        total += term
    return error, _HORNER_C * (trunc + 1) * 2.0 ** -53 * total


def test_star_exp_is_within_horner_error_bound():
    rng = rng_for(86)
    for _ in range(400):
        q = Quaternion(*rng.uniform(-5.0, 5.0, 4))
        w = Quaternion(*rng.uniform(-5.0, 5.0, 4))
        alpha = float(rng.uniform(0.05, 4.0))
        trunc = int(rng.integers(0, 61))
        for value in (star_exp_eval(q, w, alpha, trunc),
                      _quaternion_star_exp(q, w, alpha, trunc)):
            error, bound = _error_and_bound(value, q, w, alpha, trunc)
            assert error <= bound


@pytest.mark.parametrize("q, w, trunc", [(20.0, 20.0, 300), (1e300, 1e-300, 32),
                                         (1e-300, 1e300, 32), (1.5e308, 1e-308, 32)])
def test_star_exp_is_finite_and_within_the_bound_at_extreme_inputs(q, w, trunc):
    # the powers of q or wbar overflow or underflow; the terms do not, and
    # at q = 1.5e308 neither does q acc once q and wbar are balanced.  The
    # power-sum oracle is not held to these: its q^n underflows at 1e-300
    q, w = Quaternion(q), Quaternion(w)
    value = star_exp_eval(q, w, 1.0, trunc)
    assert all(map(math.isfinite, (value.w, value.x, value.y, value.z)))
    error, bound = _error_and_bound(value, q, w, 1.0, trunc)
    assert error <= bound


def _quaternion_kernel_series(w, alpha, trunc):
    """The Quaternion-operator loop kernel_series replaced, kept as the reference."""
    coeffs = [Quaternion(1.0)]
    wp = Quaternion(1.0)
    wbar = w.conjugate()
    scale = 1.0
    for n in range(1, trunc + 1):
        wp = wp * wbar
        scale *= alpha / n
        coeffs.append(wp * scale)
    return coeffs


@given(kernel_quats, st.sampled_from([1e-200, 1.0, 1e200]), st.floats(0.05, 5.0),
       st.integers(0, 40))
@example(Quaternion(0.3, -0.2, 0.1, 0.5), 1.0, 1.0, 0)                    # N = 0
@example(Quaternion(1.0, -0.3, 0.0, -0.0), 1e200, 1.0, 6)    # inf and NaN powers
@example(Quaternion(-0.0, 0.7, -0.0, 0.2), 1.0, 5.0, 40)                  # alpha = 5
@settings(max_examples=150, deadline=None)
def test_kernel_series_equals_quaternion_loop_bit_for_bit(w, size, alpha, trunc):
    w = w * size
    got = kernel_series(w, alpha, trunc, radius=2.0)
    # tobytes: every bit, also the sign of a zero or a NaN
    assert _rows(got.coeffs).tobytes() == _rows(
        _quaternion_kernel_series(w, alpha, trunc)).tobytes()
    assert got.nominal_radius == 2.0


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


def test_atomic_data_rows_are_not_state():
    points = (Quaternion(0.1, 0.2), Quaternion(-0.3))
    coeffs = (Quaternion(1.0, 0.0, 0.5), Quaternion(0.0, -0.25, 0.0, 1.0))
    data = AtomicData(points, coeffs, 1.0, 6)
    assert data._point_rows.tolist() == [[0.1, 0.2, 0.0, 0.0], [-0.3, 0.0, 0.0, 0.0]]
    assert data._coeff_rows.tolist() == [[1.0, 0.0, 0.5, 0.0], [0.0, -0.25, 0.0, 1.0]]
    assert "_rows" not in repr(data)
    other = AtomicData(points, coeffs, 1.0, 6)
    assert other == data and hash(other) == hash(data)
    assert not data._point_rows.flags.writeable
    assert not data._coeff_rows.flags.writeable


def test_atomic_data_validation():
    with pytest.raises(ValueError):
        AtomicData((Quaternion(),), (), 1.0, 4)
    with pytest.raises(ValueError, match="at least one synthesis point"):
        AtomicData((), (), 1.0, 4)
    for alpha in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            AtomicData((Quaternion(),), (Quaternion(1.0),), alpha, 4)
    with pytest.raises(ValueError):
        AtomicData((Quaternion(),), (Quaternion(1.0),), 1.0, -1)
    # non-finite points passed the slice check (dist > tol is False for NaN,
    # and inf * 0 = NaN) and synthesized all-NaN coefficients
    for bad in (Quaternion(0.1, math.nan, 0.0, 0.0), Quaternion(0.1, 0.0, math.inf, 0.0),
                Quaternion(-math.inf)):
        with pytest.raises(ValueError, match="must be finite"):
            AtomicData((bad,), (Quaternion(1.0),), 1.0, 4)
        with pytest.raises(ValueError, match="must be finite"):
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
    # an infinite radius has no finite reach, and an infinite spacing puts
    # the origin at inf * 0 = nan: both are refused, not overflowed or emptied
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        lattice_points(0.25, UNIT_I, math.inf)
    with pytest.raises(ValueError, match="spacing must be positive and finite"):
        lattice_points(math.inf, UNIT_I, 1.0)


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


@pytest.mark.parametrize("trunc", [0, 1, 2, 7])
def test_synthesis_adds_many_atoms_in_storage_order_at_every_degree(trunc):
    # 49 atoms: a sum over k taken pairwise (numpy does so where k is the
    # contiguous axis, as it would be at N = 0 in a (4, K, N + 1) table)
    # rounds differently from the ordered one
    rng = rng_for(23)
    unit = random_unit(rng)
    points = tuple(lattice_points(0.25, unit, 1.0))
    coeffs = tuple(Quaternion(*rng.uniform(-1.0, 1.0, 4)) for _ in points)
    data = AtomicData(points, coeffs, 1.0, trunc)
    assert len(points) == 49
    assert _rows(atomic_synthesis(data, unit).coeffs).tobytes() == _rows(
        _scalar_synthesis(data)).tobytes()
