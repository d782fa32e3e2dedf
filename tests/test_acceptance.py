"""Certification gate: one test per headline guarantee of the library.

Each test asserts its guarantee with pinned tolerances and prints a single
summary line, so the gate reads as one pass/fail line per criterion under
`pytest -v` (or with `-s` for the printed summaries).  Tolerances here are
contract values; loosening them is never the fix.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import gammainc

from slicefock import (UNIT_I, AtomicData, FockParams, Quaternion, SliceSeries,
                       QuadratureGrid, atomic_synthesis, default_sphere,
                       derivative, fock_norm_p, slice_norm_p, star_exp_eval,
                       star_exp_tail_bound, star_inverse_eval, star_mul,
                       sup_norm, symmetrization, transform_point, truncate)
from slicefock.corpus import (random_ball_point, random_quaternion,
                              random_series, random_unit, rng_for,
                              standard_corpus)
from slicefock.errors import SingularPoint, ZeroValue
from slicefock.fock import _slice_norms_on_grid
from slicefock.verify import run_verify

COUNT = 10_000
PARAMS = FockParams(alpha=1.0, p=2.0, n=1, radius=1.0)


@pytest.fixture(scope="module")
def full_verify():
    start = time.monotonic()
    results = run_verify(seed=0)
    elapsed = time.monotonic() - start
    return {r.name: r for r in results}, elapsed


def _report(line):
    print(line)


# -- criterion 1 -----------------------------------------------------------

def test_criterion_1_algebra_suite():
    rng = rng_for(20260814)
    start = time.monotonic()

    worst_assoc = 0.0
    worst_modulus = 0.0
    for _ in range(COUNT):
        a, b, c = (random_quaternion(rng, 2.0) for _ in range(3))
        scale = max(1.0, a.modulus() * b.modulus() * c.modulus())
        worst_assoc = max(worst_assoc,
                          ((a * b) * c - a * (b * c)).modulus() / scale)
        ab = a * b
        worst_modulus = max(worst_modulus,
                            abs(ab.modulus() - a.modulus() * b.modulus())
                            / max(1.0, a.modulus() * b.modulus()))
    assert worst_assoc <= 1e-12
    assert worst_modulus <= 1e-12

    one = SliceSeries((Quaternion(1.0),))
    for _ in range(COUNT):
        f = random_series(rng, max_degree=8)
        assert star_mul(f, one).coeffs == f.coeffs  # unit element, exact

    worst_real = 0.0
    for _ in range(COUNT):
        f = random_series(rng, max_degree=6)
        sym = symmetrization(f)
        scale = max(1.0, max(c.modulus() for c in sym.coeffs))
        worst_real = max(worst_real,
                         max(c.imag_modulus() for c in sym.coeffs) / scale)
    assert worst_real <= 1e-12

    pairs = [(random_series(rng, max_degree=6), random_series(rng, max_degree=6))
             for _ in range(COUNT // 20)]
    products = [star_mul(f, g) for f, g in pairs]
    worst_point = 0.0
    worst_inverse = 0.0
    done_point = done_inverse = 0
    while done_point < COUNT or done_inverse < COUNT:
        idx = int(rng.integers(0, len(pairs)))
        f, g = pairs[idx]
        q = random_ball_point(rng, 0.8)
        value = f.eval(q)
        if value.modulus() <= 1e-6:
            continue
        moved = transform_point(f, q)
        if done_point < COUNT:
            lhs = products[idx].eval(q)
            rhs = value * g.eval(moved)
            denom = max(1.0, lhs.modulus(), rhs.modulus())
            worst_point = max(worst_point, (lhs - rhs).modulus() / denom)
            done_point += 1
        if done_inverse < COUNT:
            try:
                recip = star_inverse_eval(f, moved)
            except (SingularPoint, ZeroValue):
                continue
            worst_inverse = max(worst_inverse,
                                (value * recip - Quaternion(1.0)).modulus())
            done_inverse += 1
    assert worst_point <= 1e-10
    assert worst_inverse <= 1e-10

    worst_zero = 0.0
    for _ in range(COUNT):
        h = random_series(rng, max_degree=5)
        g = random_series(rng, max_degree=5)
        z0 = random_ball_point(rng, 0.8)
        f = star_mul(SliceSeries((-z0, Quaternion(1.0))), h)
        fg = star_mul(f, g)
        scale = max(1.0, sum(c.modulus() * z0.modulus() ** k
                             for k, c in enumerate(fg.coeffs)))
        worst_zero = max(worst_zero, fg.eval(z0).modulus() / scale)
    assert worst_zero <= 1e-10

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(f"criterion 1 (algebra suite, 7 x {COUNT} instances, "
            f"{elapsed:.1f} s): PASS")


# -- criterion 2 -----------------------------------------------------------

def test_criterion_2_split_extend_and_representation(full_verify):
    by_name, _ = full_verify
    split_res = by_name["split"]
    rep_res = by_name["rep-formula"]
    assert split_res.instances == 4000 and split_res.bound == 1e-14
    assert split_res.passed, f"split round-trip worst={split_res.worst}"
    assert rep_res.instances == 1000 and rep_res.bound == 1e-11
    assert rep_res.passed, f"representation worst={rep_res.worst}"
    _report(f"criterion 2 (split/extend {split_res.worst:.2e} <= 1e-14, "
            f"representation {rep_res.worst:.2e} <= 1e-11): PASS")


# -- criterion 3 -----------------------------------------------------------

def test_criterion_3_closed_form_norm_oracles():
    one = SliceSeries((Quaternion(1.0),))
    ident = SliceSeries((Quaternion(0.0), Quaternion(1.0)))

    norm_one_sq = slice_norm_p(one, UNIT_I, PARAMS) ** 2
    norm_q_sq = slice_norm_p(ident, UNIT_I, PARAMS) ** 2
    exact_one = (1.0 - math.exp(-1.0)) / math.pi
    exact_q = (1.0 - 2.0 * math.exp(-1.0)) / math.pi
    assert abs(norm_one_sq - exact_one) / exact_one <= 1e-8
    assert abs(norm_q_sq - exact_q) / exact_q <= 1e-8

    sup = sup_norm(ident, PARAMS, [UNIT_I]).value
    exact_sup = math.exp(-0.5)
    assert abs(sup - exact_sup) / exact_sup <= 1e-9
    _report("criterion 3 (norm^2 of 1 and q match (1-e^-1)/pi and "
            "(1-2e^-1)/pi to 1e-8; sup of q matches e^-1/2 to 1e-9): PASS")


# -- criterion 4 -----------------------------------------------------------

def test_criterion_4_norm_sandwiches_and_full_verify(full_verify):
    by_name, elapsed = full_verify
    assert len(by_name) == 9
    failed = [name for name, r in by_name.items() if not r.passed]
    assert not failed, f"propositions failed: {failed}"
    assert elapsed < 300.0
    assert by_name["norm-sandwich-p"].worst <= 2.0 ** 2 + 1e-9
    assert by_name["norm-sandwich-sup"].worst <= 2.0 + 1e-9

    # real coefficients: every slice carries the same norm
    rng = rng_for(99)
    units = default_sphere(8)
    worst_spread = 0.0
    for _ in range(20):
        coeffs = tuple(Quaternion(float(c))
                       for c in rng.uniform(-1.0, 1.0, int(rng.integers(1, 11))))
        vals = _slice_norms_on_grid(SliceSeries(coeffs), units, PARAMS,
                                    QuadratureGrid.build())
        worst_spread = max(worst_spread, float(vals.max() / vals.min()) - 1.0)
    assert worst_spread <= 1e-9

    _report(f"criterion 4 (p and sup sandwiches hold with slack 1e-9; "
            f"real-coefficient slice spread {worst_spread:.2e} <= 1e-9; "
            f"full verify {elapsed:.0f} s < 300 s): PASS")


# -- criterion 5 -----------------------------------------------------------

def test_criterion_5_quadrature_certification():
    grid = QuadratureGrid.build()
    pts = grid.points()
    worst_moment = 0.0
    for alpha in (1.0, 2.5):
        gauss = np.exp(-alpha * np.abs(pts) ** 2)
        for k in (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 63):
            approx = grid.integrate(np.abs(pts) ** (2 * k) * gauss)
            exact = (math.pi * math.factorial(k) * gammainc(k + 1, alpha)
                     / alpha ** (k + 1))
            worst_moment = max(worst_moment, abs(approx - exact) / exact)
    assert worst_moment <= 1e-12

    corpus = standard_corpus(0)
    units = default_sphere(64)
    fine = grid.doubled()

    def stability(f):
        coarse_vals = _slice_norms_on_grid(f, units, PARAMS, grid)
        fine_vals = _slice_norms_on_grid(f, units, PARAMS, fine)
        return float(np.max(np.abs(fine_vals - coarse_vals)
                            / np.maximum(np.abs(fine_vals), 1e-300)))

    worst_stability = max(stability(f) for f in corpus)
    assert worst_stability <= 1e-8
    _report(f"criterion 5 (moments exact to {worst_moment:.2e} <= 1e-12; "
            f"corpus grid-doubling drift {worst_stability:.2e} <= 1e-8): PASS")


# -- criterion 6 -----------------------------------------------------------

def test_criterion_6_kernel_and_synthesis():
    rng = rng_for(606)
    trunc = 32
    worst_collapse = 0.0
    for _ in range(100):
        unit = random_unit(rng)
        iq = unit.as_quaternion()
        az, aw = rng.uniform(0.05, 0.95, 2)
        tz, tw = rng.uniform(0.0, 2.0 * math.pi, 2)
        q = Quaternion(az * math.cos(tz)) + iq * Quaternion(az * math.sin(tz))
        w = Quaternion(aw * math.cos(tw)) + iq * Quaternion(aw * math.sin(tw))
        value = star_exp_eval(q, w, 1.0, trunc)
        zc = complex(az * math.cos(tz), az * math.sin(tz))
        wc = complex(aw * math.cos(tw), aw * math.sin(tw))
        expected = np.exp(zc * wc.conjugate())
        collapsed = Quaternion(expected.real) + iq * Quaternion(expected.imag)
        tail = star_exp_tail_bound(q, w, 1.0, trunc)
        excess = (value - collapsed).modulus() - tail
        worst_collapse = max(worst_collapse, excess)
    assert worst_collapse <= 1e-12

    # two atoms at +/- w with equal weights synthesize an even function
    half = Quaternion(0.5)
    data = AtomicData((half, -half), (Quaternion(1.0), Quaternion(1.0)),
                      1.0, 24)
    series = atomic_synthesis(data, UNIT_I)
    worst_odd = max((c.modulus() for c in series.coeffs[1::2]), default=0.0)
    assert worst_odd < 1e-15

    norms = []
    for _ in range(5):
        count = int(rng.integers(1, 5))
        points, coeffs = [], []
        for _ in range(count):
            r, t = rng.uniform(0.0, 0.8), rng.uniform(0.0, 2.0 * math.pi)
            points.append(Quaternion(r * math.cos(t), r * math.sin(t), 0.0, 0.0))
            coeffs.append(random_quaternion(rng))
        f = atomic_synthesis(AtomicData(tuple(points), tuple(coeffs), 1.0, 24),
                             UNIT_I)
        report = fock_norm_p(f, PARAMS, sphere=default_sphere(8))
        assert math.isfinite(report.value)
        norms.append(report.value)
    assert all(v >= 0.0 for v in norms)
    _report(f"criterion 6 (slice collapse within tail bound +{1e-12:.0e}; "
            f"odd parity coefficients {worst_odd:.1e} < 1e-15; "
            f"{len(norms)} synthesized norms finite): PASS")


# -- criterion 7 -----------------------------------------------------------

def test_criterion_7_derivative_and_dilation(full_verify):
    rng = rng_for(707)
    h = 1e-5
    worst = 0.0
    for _ in range(50):
        f = truncate(random_series(rng, max_degree=10), 10)
        df = derivative(f)
        for _ in range(4):
            q = random_ball_point(rng, 0.6)
            fd = (f.eval(q + Quaternion(h)) - f.eval(q - Quaternion(h))) \
                * Quaternion(0.5 / h)
            exact = df.eval(q)
            worst = max(worst, (fd - exact).modulus()
                        / max(1.0, exact.modulus()))
    assert worst <= 1e-8

    by_name, _ = full_verify
    deriv = by_name["derivative"]
    assert deriv.instances == 150 and deriv.passed, deriv
    dil = by_name["dilation"]
    assert dil.passed, dil
    _report(f"criterion 7 (derivative vs central difference {worst:.2e} "
            f"<= 1e-8; split-sum bound holds on 50 f x t in 1..3; "
            f"dilation sequences strictly decrease): PASS")
