import concurrent.futures
import inspect
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import unittest.mock
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc, gammaln

from slicefock import (UNIT_I, UNIT_J, FockParams, GridTooCoarse,
                       ImaginaryUnit, MultiMonomial,
                       Quaternion, QuadratureGrid, SliceSeries,
                       default_sphere, derivative, derivative_criterion,
                       dilate, dilation_convergence, embed_complex, fock_norm_p,
                       inner_product, little_space_profile,
                       orthonormal_partner, slice_norm_p, slice_sup_norm,
                       split, sup_norm)
from slicefock import fock, verify
from slicefock.corpus import random_quaternion, random_series, rng_for, standard_corpus
from slicefock.fock import (_BLOCK_POINTS, _POLISH_ROUNDS, _POLISH_ROWS,
                            _GridMaxima, _abs_sq_evaluator, _chebyshev_radii,
                            _ray_coeffs, _ray_evaluator, _scaled_rows,
                            _secant_max_rows, _slice_norms_on_grid, _slice_terms,
                            _sup_over_rows, _terms_table, _unit_rows)
from slicefock.kernels import kernel_series
from slicefock.quadrature import ANGULAR_CAP, RADIAL_CAP
from slicefock.quaternion import _CONJ_SIGNS, _qmul, _rows
from slicefock.serialize import save_function

P2 = FockParams(alpha=1.0, p=2.0, radius=1.0)
ONE_F = SliceSeries((Quaternion(1.0),))
Q_F = SliceSeries((Quaternion(), Quaternion(1.0)))


_GOLDEN_RATIO_CONJ = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(fn, lo: float, hi: float, iters: int = 48) -> float:
    """Maximum of a unimodal fn on [lo, hi], one point at a time.

    A scalar golden-section search, kept as a reference independent of the
    sup polish; endpoints are always checked.
    """
    best = max(fn(lo), fn(hi))
    a, b = lo, hi
    c = b - _GOLDEN_RATIO_CONJ * (b - a)
    d = a + _GOLDEN_RATIO_CONJ * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        best = max(best, fc, fd)
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN_RATIO_CONJ * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN_RATIO_CONJ * (b - a)
            fd = fn(d)
    return max(best, fc, fd)


def small_sphere():
    return default_sphere(8)


def sup_grid(radial, angular):
    """fock's sup search grid patched to radial x angular inside a with block."""
    return unittest.mock.patch.multiple(fock, SUP_RADIAL=radial, SUP_ANGULAR=angular)


def monomial_series(n):
    return SliceSeries((Quaternion(),) * n + (Quaternion(1.0),))


# --- closed-form oracles ---

def test_params_validation():
    for bad in (dict(alpha=0.0), dict(p=0.0), dict(radius=0.0),
                dict(alpha=math.inf), dict(radius=math.inf),
                dict(alpha=math.nan), dict(radius=math.nan)):
        kwargs = dict(alpha=1.0, p=2.0, radius=1.0)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            FockParams(**kwargs)
    assert FockParams(alpha=1.0, p=math.inf, radius=1.0).p == math.inf


def test_constant_norm_closed_form():
    value = slice_norm_p(ONE_F, UNIT_I, P2)
    expected_sq = (1.0 - math.exp(-1.0)) / math.pi
    assert abs(value**2 - expected_sq) <= 1e-8 * expected_sq


def test_linear_norm_closed_form():
    value = slice_norm_p(Q_F, UNIT_J, P2)
    expected_sq = (1.0 - 2.0 * math.exp(-1.0)) / math.pi
    assert abs(value**2 - expected_sq) <= 1e-8 * expected_sq


def test_zero_function_norm():
    zero = SliceSeries((Quaternion(),))
    assert slice_norm_p(zero, UNIT_I, P2) == 0.0
    assert fock_norm_p(zero, P2, sphere=small_sphere()).value == 0.0


def test_quadrature_norm_refusals():
    with pytest.raises(ValueError, match="sup_norm"):
        fock_norm_p(Q_F, FockParams(alpha=1.0, p=math.inf, radius=1.0))


def test_small_p_norm_is_computable():
    params = FockParams(alpha=1.0, p=0.5, radius=1.0)
    assert slice_norm_p(ONE_F, UNIT_I, params) > 0.0


def test_real_coefficients_make_slices_equal():
    rng = rng_for(61)
    f = SliceSeries.from_reals(rng.uniform(-1.0, 1.0, 9))
    report = fock_norm_p(f, P2, sphere=small_sphere())
    values = [v for _, v in report.per_slice]
    assert max(values) - min(values) <= 1e-10 * max(values)


def test_constant_j_norm_equals_constant_one():
    j_f = SliceSeries((Quaternion(0.0, 0.0, 1.0, 0.0),))
    a = fock_norm_p(j_f, P2, sphere=small_sphere())
    b = slice_norm_p(ONE_F, UNIT_I, P2)
    values = [v for _, v in a.per_slice]
    assert max(values) - min(values) <= 1e-12
    assert abs(a.value - b) <= 1e-12


def test_right_scalar_scaling():
    rng = rng_for(62)
    f = random_series(rng, max_degree=7)
    c = Quaternion(0.3, -1.2, 0.5, 2.0)
    base = slice_norm_p(f, UNIT_I, P2)
    scaled = slice_norm_p(f.scale_right(c), UNIT_I, P2)
    assert abs(scaled - base * c.modulus()) <= 1e-12 * max(1.0, scaled)
    sup_base = sup_norm(f, P2, small_sphere()).value
    sup_scaled = sup_norm(f.scale_right(c), P2, small_sphere()).value
    assert abs(sup_scaled - sup_base * c.modulus()) <= 1e-12 * max(1.0, sup_scaled)


def test_norm_monotone_in_radius():
    rng = rng_for(63)
    f = random_series(rng, max_degree=6)
    values = []
    for radius in (0.5, 1.0, 1.5):
        params = FockParams(alpha=1.0, p=2.0, radius=radius)
        values.append(slice_norm_p(f, UNIT_I, params))
    assert values[0] <= values[1] <= values[2]


def test_point_evaluation_stays_bounded():
    # growth bound at z0 = 0.3 + 0.2i: ratios must not diverge with degree
    rng = rng_for(64)
    z0 = Quaternion(0.3, 0.2, 0.0, 0.0)
    worst_low, worst_high = 0.0, 0.0
    for degree in range(1, 17):
        for _ in range(5):
            f = random_series(rng, max_degree=0)
            coeffs = tuple(Quaternion(*rng.uniform(-1, 1, 4))
                           for _ in range(degree + 1))
            f = SliceSeries(coeffs)
            norm = slice_norm_p(f, UNIT_I, P2)
            ratio = f.eval(z0).modulus() / norm
            if degree <= 8:
                worst_low = max(worst_low, ratio)
            else:
                worst_high = max(worst_high, ratio)
    assert worst_high <= 4.0 * max(worst_low, 1.0)
    assert max(worst_low, worst_high) < 10.0


# --- inner products ---

def test_inner_product_constants():
    v = inner_product(ONE_F, ONE_F, P2)
    expected = (1.0 - math.exp(-1.0)) / math.pi
    assert abs(v.w - expected) <= 1e-8 * expected
    assert v.imag_modulus() <= 1e-12


def test_inner_product_monomial_orthogonality():
    for n, m in ((0, 1), (1, 3), (2, 5)):
        v = inner_product(monomial_series(n), monomial_series(m), P2)
        assert v.modulus() <= 1e-12


def test_inner_product_matches_norm():
    rng = rng_for(65)
    for _ in range(5):
        f = random_series(rng, max_degree=8)
        v = inner_product(f, f, P2)
        norm = slice_norm_p(f, UNIT_I, P2)
        assert abs(v.w - norm**2) <= 1e-10 * max(1.0, norm**2)
        assert v.imag_modulus() <= 1e-10 * max(1.0, norm**2)


def test_inner_product_left_linear_in_first_argument():
    rng = rng_for(66)
    f = random_series(rng, max_degree=6)
    g = random_series(rng, max_degree=6)
    h = random_series(rng, max_degree=6)
    fsum = SliceSeries(tuple(a + b for a, b in zip(f.coeffs, g.coeffs)))
    left = inner_product(fsum, h, P2)
    right = inner_product(f, h, P2) + inner_product(g, h, P2)
    assert (left - right).modulus() <= 1e-10


def _pointwise_pairing(f, g, unit, params, grid):
    """integral conj(g) f dlambda_I as a grid sum, the closed form's reference."""
    r, _ = grid.radial_arrays()
    fv, gv = ((r[:, None] ** np.arange(len(c.coeffs))
               @ _ray_coeffs(_rows(c.coeffs), [unit], grid.angles())).reshape(4, -1).T
              for c in (f, g))
    weight = (grid.area_weights().reshape(r.size, -1)
              * np.exp(-params.alpha * r * r)[:, None]).ravel()
    pairs = _qmul(gv * _CONJ_SIGNS, fv)
    return Quaternion(*(params.alpha / math.pi ** 2 * (weight @ pairs)))


@pytest.mark.parametrize("unit", [UNIT_I, default_sphere()[9]])
def test_inner_product_equals_the_pointwise_quadrature(unit):
    # general quaternion coefficients: the quadrature of conj(g) f on each
    # slice equals the one closed form, which takes no unit
    rng = rng_for(67)
    for alpha, radius in ((1.0, 1.0), (0.5, 2.0), (2.5, 1.5)):
        params = FockParams(alpha=alpha, p=2.0, radius=radius)
        for _ in range(5):
            f = random_series(rng, max_degree=8)
            g = random_series(rng, max_degree=8)
            angular = 2 * max(len(f.coeffs), len(g.coeffs))
            want = _pointwise_pairing(f, g, unit, params,
                                      QuadratureGrid.build(64, angular, radius))
            got = inner_product(f, g, params)
            bound = slice_norm_p(f, unit, params) * slice_norm_p(g, unit, params)
            assert (got - want).modulus() <= 1e-13 * bound


def test_inner_product_of_a_scaled_pair_keeps_its_value():
    # |1e160 f|^2 overflows although the pairing of 1e160 f with 1e-160 g
    # is that of f with g, about (0.1006, 0.0421, -0.0402, 0)
    f = SliceSeries((Quaternion(1.0), Quaternion(0.0, 0.5, 0.0, 0.0)))
    g = SliceSeries((Quaternion(0.5, 0.0, 0.2, 0.0), Quaternion(1.0)))
    want = inner_product(f, g, P2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = inner_product(f.scale_right(Quaternion(1e160)),
                            g.scale_right(Quaternion(1e-160)), P2)
    assert (got - want).modulus() <= 1e-14 * want.modulus()
    assert abs(want.w - 0.1006) <= 1e-4 and abs(want.z) <= 1e-15


def test_inner_product_reproduces_a_value_against_the_plane_kernel():
    # <f, g> = sum conj(b_k) a_k m_k with b_k = pi wbar^k / k! and, at
    # R = 7, m_k = k! P(k + 1, 49) / pi: the sum is f(w) up to the tail of P
    unit = default_sphere()[9]
    w = Quaternion(0.3, 0.4 * unit.x, 0.4 * unit.y, 0.4 * unit.z)
    params = FockParams(alpha=1.0, p=2.0, radius=7.0)
    kernel = kernel_series(w, 1.0, 60, 7.0).scale_right(Quaternion(math.pi))
    for f in standard_corpus(0, count=20):
        want = f.eval(w)
        assert (inner_product(f, kernel, params) - want).modulus() <= 1e-12 * want.modulus()


def test_inner_product_is_right_linear_in_f_and_conjugate_linear_in_g():
    rng = rng_for(70)
    fs = standard_corpus(0, count=20)
    for f, g in zip(fs[::2], fs[1::2]):
        c = random_quaternion(rng)
        value = inner_product(f, g, P2)
        bound = 1e-15 * slice_norm_p(f, UNIT_I, P2) * slice_norm_p(g, UNIT_I, P2) * c.modulus()
        assert (inner_product(f.scale_right(c), g, P2) - value * c).modulus() <= bound
        assert (inner_product(f, g.scale_right(c), P2) - c.conjugate() * value).modulus() <= bound


def test_p2_builds_and_evaluates_no_grid():
    f = random_series(rng_for(68), max_degree=7)

    def refuse(*args, **kwargs):
        raise AssertionError("a quadrature grid is used at p = 2")

    with unittest.mock.patch.multiple(QuadratureGrid, build=refuse, doubled=refuse,
                                      radial_arrays=refuse, angles=refuse,
                                      points=refuse, area_weights=refuse):
        report = fock_norm_p(f, P2, sphere=small_sphere())
        value = slice_norm_p(f, UNIT_J, P2)
        pairing = inner_product(f, f, P2)
    assert report.grid_spec == {"rule": "closed form", "radius": 1.0,
                                "sphere": len(small_sphere())}
    assert value == report.value
    assert abs(pairing.w - value ** 2) <= 1e-14 * value ** 2


# --- sup norms ---

def test_sup_norm_constant():
    c = Quaternion(0.5, 0.5, 0.5, 0.5)
    report = sup_norm(SliceSeries((c,)), P2, small_sphere())
    assert abs(report.value - c.modulus()) <= 1e-12


def test_sup_norm_linear_oracle():
    value = sup_norm(Q_F, P2, small_sphere()).value
    assert abs(value - math.exp(-0.5)) <= 1e-9


def test_sup_norm_interior_maximum():
    params = FockParams(alpha=4.0, p=2.0, radius=1.0)
    value = sup_norm(Q_F, params, small_sphere()).value
    assert abs(value - 0.5 * math.exp(-0.5)) <= 1e-9


def test_slice_sup_equals_sup_for_real_coefficients():
    rng = rng_for(71)
    f = SliceSeries.from_reals(rng.uniform(-1.0, 1.0, 8))
    a = slice_sup_norm(f, UNIT_J, P2)
    b = sup_norm(f, P2, small_sphere()).value
    assert abs(a - b) <= 1e-12 * max(1.0, b)
    assert abs(slice_sup_norm(ONE_F, UNIT_I, P2) - 1.0) <= 1e-12


def test_sup_sandwich_random():
    rng = rng_for(72)
    for _ in range(10):
        f = random_series(rng, max_degree=10)
        slice_val = slice_sup_norm(f, UNIT_I, P2)
        global_val = sup_norm(f, P2, small_sphere()).value
        assert slice_val <= global_val + 1e-12
        assert global_val <= 2.0 * slice_val + 1e-9


def test_ball_sup_is_exact_over_the_units():
    # value is the max of w sqrt(s + 2|v|): no sampled unit, not even one of
    # 4000, exceeds it on the same grid
    rng = rng_for(83)
    many = default_sphere(4000)
    for _ in range(20):
        f = random_series(rng, max_degree=12)
        with sup_grid(33, 64):
            report = sup_norm(f, P2, None)
            assert report.value >= max(v for _, v in report.per_slice)
            sampled = max(v for i in range(0, len(many), 1000)
                          for _, v in sup_norm(f, P2, many[i:i + 1000]).per_slice)
        assert report.value >= sampled


def test_sup_norm_reaches_the_best_unit_off_the_sample():
    # f = 1 + q c with c = (i + 2j + 3k)/sqrt(14): max_I |f|^2 = 1 + r^2 + 2|y|,
    # so the sup is max_r (1 + r) e^{-r^2/2}, at r = (sqrt(5) - 1)/2 and
    # y = r (angle pi/2, a grid node); no sampled unit is -c or c
    c = ImaginaryUnit.normalized(1.0, 2.0, 3.0).as_quaternion()
    f = SliceSeries((Quaternion(1.0), c))
    r = (math.sqrt(5.0) - 1.0) / 2.0
    oracle = (1.0 + r) * math.exp(-0.5 * r * r)
    report = sup_norm(f, P2)
    assert abs(report.value - oracle) <= 1e-12
    assert max(v for _, v in report.per_slice) < oracle * (1.0 - 1e-6)


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_fock_norm_p_refuses_an_empty_sphere(p):
    # numpy refused it at the parent: a reshape of size 0 at p = 1.5 and a
    # zero-size maximum at p = 2
    with pytest.raises(ValueError, match="sphere must hold at least one unit"):
        fock_norm_p(Q_F, FockParams(alpha=1.0, p=p), sphere=[])


def test_sup_functions_own_their_grid():
    # no public sup function takes a grid size; each reads SUP_RADIAL and
    # SUP_ANGULAR when it is called, and sup_norm reports them
    for fn in (sup_norm, slice_sup_norm, dilation_convergence, derivative_criterion):
        assert not {"radial_samples", "angular_count"} & \
            set(inspect.signature(fn).parameters), fn.__name__
    spec = sup_norm(Q_F, P2).grid_spec
    assert (spec["radial"], spec["angular"]) == (fock.SUP_RADIAL, fock.SUP_ANGULAR) \
        == (129, 256)
    with sup_grid(17, 32):
        spec = sup_norm(Q_F, P2).grid_spec
        [found] = _sup_over_rows([(Q_F, [UNIT_I], False)], 1.0, 1.0, 17, 32)
        assert slice_sup_norm(Q_F, UNIT_I, P2) == float(found.sups[0])
    assert (spec["radial"], spec["angular"]) == (17, 32)


def test_derivative_criterion_refuses_a_fractional_order():
    # at the parent order 7.5 passed with zero sups on a degree-4 series
    f = SliceSeries(tuple(Quaternion(float(k + 1)) for k in range(5)))
    for order in (1.5, 7.5):
        with pytest.raises(TypeError):
            derivative_criterion(f, order, P2)


def test_ball_row_alone_gives_the_sup_norm_value():
    rng = rng_for(84)
    for _ in range(5):
        f = random_series(rng, max_degree=9)
        [found] = _sup_over_rows([(f, [], True)], 1.0, 1.0, 65, 128)
        assert found.sups.size == 0
        with sup_grid(65, 128):
            assert found.ball == sup_norm(f, P2, []).value
            assert found.ball >= sup_norm(f, P2, None).value * (1.0 - 1e-12)


# --- norm equivalence: the slice sandwich on fock_norm_p's slice norms ---

def _sandwich_ratio(report, p):
    """max_I sup^p / slice^p, which is also max_{I,J} slice_J^p / slice_I^p.

    The zero function satisfies every bound with ratio 1.
    """
    powered = np.array([v for _, v in report.per_slice]) ** p
    if powered.max() < 1e-300:
        return 1.0
    return float(powered.max() / powered.min())


def test_norm_equivalence_p2_ratios_are_unit():
    rng = rng_for(73)
    f = random_series(rng, max_degree=9)
    report = fock_norm_p(f, P2, sphere=small_sphere())
    # the slice 2-norm is slice independent, so every ratio collapses to 1
    assert abs(_sandwich_ratio(report, 2.0) - 1.0) <= 1e-9
    assert report.value == max(v for _, v in report.per_slice)


def test_norm_equivalence_p3_within_bounds():
    rng = rng_for(74)
    params = FockParams(alpha=1.0, p=3.0, radius=1.0)
    f = random_series(rng, max_degree=6)
    ratio = _sandwich_ratio(fock_norm_p(f, params, sphere=small_sphere()), 3.0)
    assert 1.0 <= ratio <= 8.0 + 1e-9


def test_norm_equivalence_zero_function():
    report = fock_norm_p(SliceSeries((Quaternion(),)), P2, sphere=small_sphere())
    assert report.value == 0.0
    assert _sandwich_ratio(report, 2.0) == 1.0


# --- refinement control ---

def test_cusp_integrand_hits_grid_cap(monkeypatch):
    monkeypatch.setattr(fock, "RADIAL_CAP", 8)
    monkeypatch.setattr(fock, "ANGULAR_CAP", 16)
    params = FockParams(alpha=1.0, p=0.4, radius=1.0)
    f = SliceSeries((Quaternion(-0.3), Quaternion(1.0)))  # zero inside the disk
    grid = QuadratureGrid.build(4, 8, 1.0)
    with pytest.raises(GridTooCoarse) as err:
        fock._refine_norms(f, [UNIT_I], params, grid)
    assert len(err.value.trace) >= 2
    assert "cap" in str(err.value)


# refinement exists only at p != 2; p = 2 is a closed form
P15 = FockParams(alpha=1.0, p=1.5, radius=1.0)


def test_cap_start_grid_is_refused(monkeypatch):
    # a single grid certifies nothing: a start at the cap has no coarser
    # grid to agree with, even for a constant
    monkeypatch.setattr(fock, "RADIAL_CAP", 8)
    monkeypatch.setattr(fock, "ANGULAR_CAP", 16)
    grid = QuadratureGrid.build(8, 16, 1.0)
    with pytest.raises(GridTooCoarse, match="cap") as err:
        fock._refine_norms(ONE_F, small_sphere(), P15, grid)
    assert [spec for spec, _ in err.value.trace] == [grid.describe()]


SMOKE_F = SliceSeries((Quaternion(1.0), Quaternion(0.0, 0.5)))


@pytest.mark.parametrize("params", [FockParams(alpha=1e12, p=1.5),
                                    FockParams(alpha=1e16, p=1.5),
                                    FockParams(alpha=1.0, p=1.5, radius=1e-200),
                                    FockParams(alpha=1.0, p=1e300)])
def test_a_zero_norm_of_a_nonzero_function_is_refused(params):
    # the weight or the area underflows at every node, so the grids read 0;
    # at alpha = 1e12 the norm is about 0.565
    with pytest.raises(GridTooCoarse, match="cap"):
        fock_norm_p(SMOKE_F, params, sphere=[UNIT_I])


def test_the_zero_function_keeps_its_zero_norm():
    zero = SliceSeries((Quaternion(),))
    with np.errstate(divide="raise"):
        report = fock_norm_p(zero, P15, sphere=small_sphere())
    assert report.value == 0.0
    assert {v for _, v in report.per_slice} == {0.0}
    assert report.grid_spec["refinements"] == 1


def test_refinement_count_reported():
    report = fock_norm_p(Q_F, P15, sphere=small_sphere())
    assert report.grid_spec["refinements"] >= 1
    assert report.grid_spec["rule"] == "gauss-legendre x trapezoid"


def test_norms_return_the_last_relative_change():
    units = small_sphere()
    values, spec, rel = fock._norms(Q_F, units, P15)
    assert 0.0 < rel <= fock.REFINE_TOL
    assert values.tolist() == [v for _, v in fock_norm_p(Q_F, P15, sphere=units).per_slice]
    # the closed form is exact and reads no grid
    assert fock._norms(Q_F, units, P2)[2] == 0.0
    # _refine_norms returns the same values and rel from the same start grid
    start = QuadratureGrid.build(radius=1.0)
    refined, grid, again, refinements = fock._refine_norms(Q_F, units, P15, start)
    assert refined.tolist() == values.tolist() and again == rel
    assert (grid.radial_count, refinements) == (spec["radial"], spec["refinements"])
    # from a coarser start, too, the last doubling agrees to REFINE_TOL
    _, _, coarse_rel, _ = fock._refine_norms(Q_F, units, P15,
                                             QuadratureGrid.build(4, 8))
    assert 0.0 < coarse_rel <= fock.REFINE_TOL


def test_public_norms_take_no_grid_size():
    # the library picks the start grid and the profile's angles; no public
    # norm or profile takes a size, and sphere is keyword-only, so an old
    # positional grid is refused rather than read as a sphere
    sizes = {"grid", "radial", "angular", "angular_count", "tolerance"}
    for fn in (fock_norm_p, slice_norm_p, little_space_profile):
        assert not sizes & set(inspect.signature(fn).parameters), fn.__name__
    sphere = inspect.signature(fock_norm_p).parameters["sphere"]
    assert sphere.kind is inspect.Parameter.KEYWORD_ONLY
    with pytest.raises(TypeError):
        fock_norm_p(Q_F, P15, QuadratureGrid.build(8, 16))


# --- monomial bound: ||z^k a_k||_inf <= 2^{max(p,1)} sqrt(k/2) slice sup of f ---

def test_monomial_bound_single_variable_example():
    lhs = fock._monomial_sup(MultiMonomial((1,), Quaternion(1.0)), 1.0, 1.0)
    rhs = 4.0 * math.sqrt(0.5) * slice_sup_norm(Q_F, UNIT_I, P2)
    expected_sup = math.exp(-0.5)  # max of r e^{-r^2/2} on [0, 1]
    assert abs(lhs - expected_sup) <= 1e-9
    assert abs(rhs / lhs - 4.0 * math.sqrt(0.5)) <= 1e-9


def test_monomial_bound_random_degree_five_terms():
    rng = rng_for(75)
    for _ in range(10):
        coeffs = tuple(Quaternion(*rng.uniform(-1, 1, 4)) for _ in range(6))
        ssup = slice_sup_norm(SliceSeries(coeffs), UNIT_I, P2)
        for k in range(1, 6):
            lhs = fock._monomial_sup(MultiMonomial((k,), coeffs[k]), 1.0, 1.0)
            assert lhs <= 4.0 * math.sqrt(k / 2.0) * ssup + 1e-9


@pytest.mark.parametrize("m, alpha, radius", [((1,), 1.0, 1.0), ((5,), 1.0, 1.0),
                                              ((3,), 4.0, 2.0), ((2, 1), 0.5, 3.0),
                                              ((0, 4), 2.0, 0.5), ((7,), 0.01, 2.0)])
def test_monomial_sup_closed_form_matches_a_golden_search(m, alpha, radius):
    # interior maxima at sqrt(|m|/alpha) and boundary maxima at R
    mono = MultiMonomial(m, Quaternion(0.5, -0.5, 0.2, 0.1))
    total, a = sum(m), mono.coeff.modulus()
    direction = math.prod((k / total) ** (k / 2.0) for k in m if k)
    golden = _golden_max(lambda s: a * direction * s ** total
                         * math.exp(-0.5 * alpha * s * s), 0.0, radius, iters=64)
    got = fock._monomial_sup(mono, alpha, radius)
    assert golden <= got * (1.0 + 1e-15)
    assert got <= golden * (1.0 + 1e-12)


# --- dilation and derivative criteria ---

def test_dilation_constant_gives_zeros():
    with sup_grid(33, 64):
        values = dilation_convergence(ONE_F, P2, (0.5, 0.9))
    assert values == [0.0, 0.0]


def test_dilation_linear_closed_form():
    with sup_grid(65, 64):
        values = dilation_convergence(Q_F, P2, (0.5, 0.9, 0.99))
    for r, v in zip((0.5, 0.9, 0.99), values):
        assert abs(v - (1.0 - r) * math.exp(-0.5)) <= 1e-9


def test_dilation_strictly_decreasing_random():
    rng = rng_for(76)
    for _ in range(5):
        f = random_series(rng, max_degree=6)
        with sup_grid(33, 64):
            values = dilation_convergence(f, P2, (0.5, 0.9, 0.99))
        if max(values) < 1e-12:
            continue
        assert values[0] > values[1] > values[2]


def test_dilation_validates_factors():
    for bad in ((0.9, 0.5), (0.0, 0.5), (0.5, 1.0)):
        with pytest.raises(ValueError):
            dilation_convergence(Q_F, P2, bad)


def test_derivative_criterion_order_zero_is_sup_norm():
    rng = rng_for(77)
    f = random_series(rng, max_degree=7)
    with sup_grid(65, 128):
        rep = derivative_criterion(f, 0, P2)
        sup = sup_norm(f, P2, small_sphere()).value
    assert abs(rep.sup_ratio - sup) <= 1e-12 * max(1.0, sup)


def test_derivative_criterion_square_oracle():
    # d(q^2) = 2q; maximize 2r e^{-r^2/2} / (1+r): stationary at r^3+r^2 = 1
    f = SliceSeries((Quaternion(), Quaternion(), Quaternion(1.0)))
    with sup_grid(129, 64):
        rep = derivative_criterion(f, 1, P2)
    roots = np.roots([1.0, 1.0, 0.0, -1.0])
    r = float(roots[np.isreal(roots)].real.max())
    oracle = 2.0 * r * math.exp(-0.5 * r * r) / (1.0 + r)
    assert abs(rep.sup_ratio - oracle) <= 1e-9
    assert rep.passed


def test_derivative_criterion_flags_a_vacuous_instance():
    # d^t f = 0 when t passes the degree or the top coefficients are zero
    zero_top = SliceSeries((Quaternion(1.0), Quaternion(), Quaternion()))
    with sup_grid(17, 32):
        reports = [derivative_criterion(Q_F, 2, P2),
                   derivative_criterion(zero_top, 1, P2),
                   derivative_criterion(monomial_series(2), 1, P2)]
    assert [rep.vacuous for rep in reports] == [True, True, False]
    assert reports[0].component_sups == (0.0, 0.0) and reports[0].passed
    assert reports[2].sup_ratio > 0.0


def test_derivative_criterion_past_the_float_range_reads_nan():
    # the re-evaluation at the ball argmax overflowed in (1 + |z|)^3 and
    # raised OverflowError; the sups there are NaN, and so is the report
    report = derivative_criterion(standard_corpus(0)[0], 3, FockParams(1.0, 2.0, 1e110))
    assert math.isnan(report.sup_ratio) and not report.passed and not report.vacuous


def test_derivative_criterion_split_inequality_random():
    rng = rng_for(78)
    for _ in range(10):
        f = random_series(rng, max_degree=9)
        for order in (1, 2, 3):
            with sup_grid(33, 64):
                rep = derivative_criterion(f, order, P2)
            assert rep.passed
            assert rep.sup_ratio <= sum(rep.component_sups) + 1e-9


# --- boundary decay profile ---

def test_little_space_profile_fast_weight():
    params = FockParams(alpha=20.0, p=2.0, radius=3.0)
    report = little_space_profile(ONE_F, params, (1.0, 2.0, 3.0))
    for rho, value in zip(report.rhos, report.values):
        assert abs(value - math.exp(-10.0 * rho * rho)) <= 1e-12


def test_little_space_profile_unit_weight():
    report = little_space_profile(ONE_F, P2, (0.25, 0.5, 0.75, 1.0))
    for rho, value in zip(report.rhos, report.values):
        assert abs(value - math.exp(-0.5 * rho * rho)) <= 1e-12
    # the report holds M(rho) only: no verdict on the boundary
    assert set(vars(report)) == {"rhos", "values"}


def test_little_space_profile_zero_function():
    zero = SliceSeries((Quaternion(),))
    report = little_space_profile(zero, P2, (0.5, 0.75, 1.0))
    assert all(v == 0.0 for v in report.values)


@pytest.mark.parametrize("scale", [3.5e-203, 1e200])
def test_little_space_profile_scales_tiny_and_huge_coefficients(scale):
    # |f| = scale on the whole ball; unscaled squares under- or overflow
    f = SliceSeries((Quaternion(0.0, 0.0, 0.0, scale),))
    report = little_space_profile(f, P2, (0.5, 0.8, 1.0))
    for rho, value in zip(report.rhos, report.values):
        assert math.isclose(value, scale * math.exp(-0.5 * rho * rho),
                            rel_tol=1e-12)


def test_little_space_profile_is_exact_over_the_units():
    # on each circle M(rho) is the max of w sqrt(s + 2|v|) over the angles;
    # 4000 sampled units on the same angles reach it from below
    rng = rng_for(85)
    theta = 2.0 * np.pi * np.arange(64) / 64
    rhos = (0.25, 0.5, 0.75, 1.0)
    units = default_sphere(4000)
    for _ in range(5):
        f = random_series(rng, max_degree=10)
        with unittest.mock.patch.object(fock, "SUP_ANGULAR", 64):
            report = little_space_profile(f, P2, rhos)
        absq = _abs_sq_evaluator(_rows(f.coeffs), units, theta)(np.array(rhos))
        sampled = np.sqrt(absq.reshape(len(units), len(rhos), -1).max(axis=(0, 2)))
        for rho, value, low in zip(rhos, report.values, sampled):
            weighted = low * math.exp(-0.5 * rho * rho)
            assert weighted <= value * (1.0 + 1e-12)
            assert value <= weighted * (1.0 + 1e-3)


def test_little_space_profile_refuses_an_empty_rho_list():
    # an empty list used to fail with IndexError at values[-1]
    with pytest.raises(ValueError, match="rho_list"):
        little_space_profile(ONE_F, P2, [])


def test_little_space_profile_validates_rhos():
    for bad in ((1.0, 0.5), (0.0, 0.5), (0.5, 1.5)):
        with pytest.raises(ValueError):
            little_space_profile(ONE_F, P2, bad)


# --- cancellation guard at a zero on a grid node ---

def test_zero_on_a_grid_node_gives_finite_norms():
    # f(q) = q - I0 vanishes at z = i on C_I0: the Chebyshev radius R = 1 and
    # the angle pi/2 are sup-grid nodes, and rho = 1 is a profile radius
    unit = default_sphere()[9]
    f = SliceSeries((-unit.as_quaternion(), Quaternion(1.0)))
    theta = 2.0 * np.pi * np.arange(256) / 256
    absq = _abs_sq_evaluator(_rows(f.coeffs), default_sphere(), theta)(np.array([1.0]))
    assert absq.min() >= 0.0
    assert absq[9, 64] <= 1e-15
    sup = sup_norm(f, P2)
    assert math.isfinite(sup.value) and sup.value > 0.0
    norm = fock_norm_p(f, FockParams(alpha=1.0, p=1.5, radius=1.0))
    assert math.isfinite(norm.value) and norm.value > 0.0
    profile = little_space_profile(f, P2, (0.5, 0.75, 1.0))
    assert all(math.isfinite(v) for v in profile.values)


# --- the A + I B evaluator against independent references ---

def _series_from(rows):
    return SliceSeries(tuple(Quaternion(*row) for row in rows))


coeff_rows = st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 4), min_size=1,
                      max_size=13)
directions = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: sum(c * c for c in v) > 1e-2)


@given(coeff_rows, st.lists(directions, min_size=1, max_size=7),
       st.lists(st.floats(0.0, 1.5), min_size=1, max_size=4),
       st.lists(st.floats(0.0, 2.0 * math.pi), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_abs_sq_rows_matches_quaternion_horner(rows, dirs, radii, angles):
    # fewer than five units take |A + I B|^2, more take s + 2 <v, I>
    f = _series_from(rows)
    units = [ImaginaryUnit.normalized(*d) for d in dirs]
    radii, theta = np.array(radii), np.array(angles)
    absq = _abs_sq_evaluator(_rows(f.coeffs), units, theta)(radii)
    assert absq.shape == (len(units), radii.size * theta.size)
    for m, unit in enumerate(units):
        for i, r in enumerate(radii):
            scale = sum(a.modulus() * r ** k for k, a in enumerate(f.coeffs)) ** 2
            for j, t in enumerate(theta):
                q = Quaternion(r * math.cos(t), *(r * math.sin(t) * c for c in
                                                  (unit.x, unit.y, unit.z)))
                want = f.eval(q).modulus_sq()
                got = absq[m, i * theta.size + j]
                assert abs(got - want) <= 1e-13 * max(scale, 1.0)


def _split_reference_norms(f, units, params, grid):
    """Per-unit slice norms from the splitting f = f_1 + f_2 J.

    The parts are divided by the largest coefficient modulus, so that tiny
    and huge coefficients square without underflow or overflow.  Real and
    imaginary parts are divided as floats: complex division multiplies by
    the reciprocal of a subnormal scale, which overflows.
    """
    z = grid.points()
    weight = grid.area_weights() * np.exp(-0.5 * params.alpha * params.p
                                          * np.abs(z) ** 2)
    scale = max(a.modulus() for a in f.coeffs) or 1.0
    out = []
    for unit in units:
        f1, f2 = split(f, unit, orthonormal_partner(unit))
        absq = 0.0
        for part in (f1, f2):
            c = np.array(part.coeffs[::-1])
            absq = absq + np.abs(np.polyval(c.real / scale + 1j * (c.imag / scale), z)) ** 2
        integral = (params.alpha / math.pi) / math.pi * float(
            (absq ** (params.p / 2.0)) @ weight)
        out.append(scale * integral ** (1.0 / params.p))
    return np.array(out)


# p != 2 sums blocks of _BLOCK_POINTS // angular radial rows: one block, and
# two full blocks plus a partial one
BLOCK_GRIDS = [(16, 32), (2 * (_BLOCK_POINTS // 64) + 3, 64)]


@given(coeff_rows, st.sampled_from([1.5, 2.0, 3.0]), st.floats(0.3, 2.5),
       st.sampled_from([1, 8]), st.sampled_from(BLOCK_GRIDS))
# squared unscaled, a coefficient of 2.8e-227 underflows to a norm of 0
@example(rows=[(0.0, 0.0, 0.0, 2.7593618519186086e-227)], p=1.5, alpha=1.0,
         count=1, shape=(16, 32))
# a subnormal scale: the reference must not divide by it as a complex number
@example(rows=[(0.0, 0.0, 0.0, 2.225073858507e-311)], p=1.5, alpha=1.0,
         count=1, shape=(16, 32))
@settings(max_examples=40, deadline=None)
def test_slice_norms_on_grid_match_split_reference(rows, p, alpha, count, shape):
    # default_sphere(1) is i, j, k: at p != 2 it takes the few-unit route
    f = _series_from(rows)
    params = FockParams(alpha=alpha, p=p, radius=1.0)
    units = default_sphere(count)
    grid = QuadratureGrid.build(*shape)
    got = _slice_norms_on_grid(f, units, params, grid)
    want = _split_reference_norms(f, units, params, grid)
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(want, 1e-300))


# --- p = 2 in closed form against the pointwise grid sum and gamma ---

def _pointwise_p2_norms(f, units, params, grid):
    """The p = 2 slice norms as a sum of |f|^2 over the grid points.

    s and v are evaluated at every point and weighted by the area weights
    times e^{-a r^2}, then the units enter; kept as the quadrature reference
    of the closed form.
    """
    r, _ = grid.radial_arrays()
    (coeffs, exponent), theta = _scaled_rows(f), grid.angles()
    w = (grid.area_weights().reshape(r.size, -1)
         * np.exp(-params.alpha * r * r)[:, None]).ravel()
    s, v = _slice_terms(_terms_table(coeffs, theta), r)
    sums = s @ w + 2.0 * (_unit_rows(units) @ (v @ w))
    integrals = params.alpha / math.pi / math.pi * sums
    return np.ldexp(np.maximum(integrals, 0.0) ** 0.5, exponent)


deep_rows = st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 4), min_size=1,
                     max_size=17)


@given(deep_rows, st.integers(0, 3), st.integers(64, 96), st.floats(0.2, 3.0),
       st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=80, deadline=None)
def test_p2_closed_form_equals_the_pointwise_sum_on_converged_grids(
        rows, extra_angles, radial, alpha, radius):
    # at least 64 radii and 2K angles: the trapezoid sum of |f|^2, a
    # trigonometric polynomial of degree 2K - 2, is exact, and Gauss-Legendre
    # has converged for these weights.  The grid sum carries the rounding of
    # its many terms: 1.2e-14 on the norm of z^3 at R = 0.5, where the
    # closed form's m_3 is within 4e-16 of a 40-digit value
    f = _series_from(rows)
    params = FockParams(alpha=alpha, p=2.0, radius=radius)
    units = default_sphere(2)
    grid = QuadratureGrid.build(radial, 2 * len(rows) + extra_angles, radius)
    got = np.array([slice_norm_p(f, unit, params) for unit in units])
    want = _pointwise_p2_norms(f, units, params, grid)
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(want, 1e-300))


def test_slice_norms_on_grid_at_p2_is_the_grid_sum():
    # a plain quadrature rule at p = 2 too: on a 4 x 8 grid it is the grid
    # sum, far from the closed form that the norms take
    f = random_series(rng_for(70), max_degree=7)
    units = small_sphere()
    grid = QuadratureGrid.build(4, 8)
    got = _slice_norms_on_grid(f, units, P2, grid)
    want = _pointwise_p2_norms(f, units, P2, grid)
    assert np.all(np.abs(got - want) <= 1e-13 * want)
    closed = slice_norm_p(f, UNIT_I, P2)
    assert np.all(np.abs(got - closed) > 1e-6 * closed)


# a R^2 from far below the first moment's peak to far above the last one's
MOMENT_CASES = [(x, alpha) for x in (9e-5, 1.0, 4.5, 180.0, 900.0, 18000.0)
                for alpha in (9e-5, 0.25, 1.0, 4.0)]


def _normal(values):
    return np.isfinite(values) & (np.abs(values) >= np.finfo(float).tiny)


@pytest.mark.parametrize("x, alpha", MOMENT_CASES)
def test_moments_equal_the_incomplete_gamma_function(x, alpha):
    # m_k = k! P(k + 1, x) / (pi a^k), joined in log space where P is normal
    k = np.arange(200)
    with np.errstate(over="ignore"):
        got = np.exp(fock._log_moments(200, alpha, math.sqrt(x / alpha)))
    assert got.shape == (200,)
    gamma = gammainc(k + 1, x)
    with np.errstate(divide="ignore", over="ignore"):
        want = np.exp(gammaln(k + 1) + np.log(gamma) - k * math.log(alpha)
                      - math.log(math.pi))
    normal = _normal(gamma) & _normal(want)
    assert normal.sum() >= 50
    assert np.all(np.abs(got[normal] - want[normal]) <= 1e-12 * want[normal])
    # past the normal range the table overflows to inf or underflows to 0
    assert np.all(np.isinf(got[np.isinf(want)]))


@pytest.mark.parametrize("x, alpha", MOMENT_CASES)
def test_moments_equal_the_radial_integral(x, alpha):
    # m_k = (2a/pi) integral_0^R r^{2k+1} e^{-a r^2} dr.  With u = a r^2 it
    # is integral_0^x u^k e^{-u} du / (pi a^k); the integrand is taken
    # relative to its peak at u = min(k, x) so that it stays representable
    with np.errstate(over="ignore"):
        got = np.exp(fock._log_moments(200, alpha, math.sqrt(x / alpha)))
    for k in (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 199):
        top = min(float(k), x)
        peak = k * math.log(top) - top if k else 0.0
        scaled, _ = quad(lambda u: math.exp(k * math.log(u) - u - peak) if u else
                         float(k == 0), 0.0, x, points=[top] if 0.0 < top < x else None,
                         epsabs=0.0, epsrel=2e-14, limit=200)
        with np.errstate(over="ignore"):
            want = np.exp(math.log(scaled) + peak - k * math.log(alpha)
                          - math.log(math.pi))
        if _normal(want):
            assert abs(got[k] - want) <= 1e-12 * want, k


def test_p2_per_slice_values_are_bit_equal():
    for f in standard_corpus(0)[:20]:
        report = fock_norm_p(f, P2)
        values = np.array([v for _, v in report.per_slice])
        assert len(values) == 67
        assert values.tobytes() == np.full(67, report.value).tobytes()


@pytest.mark.parametrize("alpha, radius", [(1.0, 1.0), (0.5, 2.0), (2.5, 1.5)])
def test_p2_norm_equals_the_incomplete_gamma_closed_form(alpha, radius):
    # ||f||_2^2 = sum_k |a_k|^2 k! P(k + 1, a R^2) / (pi a^k)
    params = FockParams(alpha=alpha, p=2.0, radius=radius)
    for f in standard_corpus(0)[:60]:
        want = math.sqrt(sum(
            a.modulus_sq() * math.factorial(k) * gammainc(k + 1, alpha * radius ** 2)
            / (math.pi * alpha ** k) for k, a in enumerate(f.coeffs)))
        got = fock_norm_p(f, params).value
        assert abs(got - want) <= 1e-13 * want


def test_moments_take_no_downward_run_past_the_table():
    # with a R^2 = 9e6, 1e12 and 1e600 every m_k is k!/(pi a^k): the table
    # is filled upward in count steps and the downward recurrence, which
    # would start at 2 a R^2, never starts
    for radius in (3e3, 1e6, 1e300):
        start = time.perf_counter()
        with np.errstate(over="ignore"):
            got = np.exp(fock._log_moments(200, 1.0, radius))
        assert time.perf_counter() - start < 1.0
        k = np.arange(200)
        with np.errstate(over="ignore"):
            want = np.exp(gammaln(k + 1) - math.log(math.pi))
        fits = np.isfinite(want)
        assert fits.sum() == 171 and np.all(np.isinf(got[~fits]))
        assert np.all(np.abs(got[fits] - want[fits]) <= 1e-12 * want[fits])


@pytest.mark.parametrize("radius", [1e5, 1e6])
def test_p2_norm_on_a_huge_ball_is_the_full_space_norm(radius):
    # ||f||_2^2 = sum_k |a_k|^2 k! / (pi a^k) once e^{-a R^2} is 0
    params = FockParams(alpha=1.0, p=2.0, radius=radius)
    for f in standard_corpus(0)[:10]:
        want = math.sqrt(sum(a.modulus_sq() * math.factorial(k) / math.pi
                             for k, a in enumerate(f.coeffs)))
        start = time.perf_counter()
        got = fock_norm_p(f, params, sphere=small_sphere()).value
        assert time.perf_counter() - start < 1.0
        assert abs(got - want) <= 1e-13 * want


def _sparse(**coeffs):
    """The series with coefficient coeffs["a<k>"] (real) at q^k."""
    top = max(int(key[1:]) for key in coeffs)
    return SliceSeries(tuple(Quaternion(coeffs.get(f"a{k}", 0.0))
                             for k in range(top + 1)))


@pytest.mark.parametrize("alpha, radius, coeff", [(1e-3, 1e3, 1e-200),
                                                  (0.1, 100.0, 1e-200),
                                                  (0.5, 40.0, 1e-100)])
def test_p2_norm_past_an_overflowing_moment_is_finite(alpha, radius, coeff):
    # m_200 is about 1e974, 1e574 and 1e434: it overflows, while its
    # coefficient brings the norm of 1 + coeff q^200 to about 1e287, 1e87
    # and 1e117.  The square of 1e-200 underflows; that of 1e-100 does not
    f = _sparse(a0=1.0, a200=coeff)
    params = FockParams(alpha=alpha, p=2.0, radius=radius)
    with np.errstate(over="ignore"):
        assert np.isinf(np.exp(fock._log_moments(201, alpha, radius))[200])
    x = alpha * radius * radius
    log_sq = (2.0 * math.log(coeff) + gammaln(201) + math.log(gammainc(201, x))
              - 200 * math.log(alpha) - math.log(math.pi))
    want = math.exp(0.5 * np.logaddexp(log_sq, math.log(gammainc(1, x) / math.pi)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fock_norm_p(f, params, sphere=small_sphere()).value
        pairing = inner_product(f, f, params)
    assert abs(got - want) <= 1e-12 * want
    # <f, f> = ||f||^2 fits or overflows to inf, never NaN
    assert (pairing.x, pairing.y, pairing.z) == (0.0, 0.0, 0.0)
    if want < 1e154:
        assert abs(pairing.w - want * want) <= 1e-12 * want * want
    else:
        assert pairing.w == math.inf


def test_inner_product_past_an_overflowing_moment_is_finite():
    # m_200 (about 1e434) overflows, 0 m_200 is NaN, but the pairing of
    # 1 + 1e-100 q^200 with 1 + 1e-100 j q^200 is about m_0 - 1e234 j
    alpha, radius = 0.5, 40.0
    params = FockParams(alpha=alpha, p=2.0, radius=radius)
    f = _sparse(a0=1.0, a200=1e-100)
    g = SliceSeries(f.coeffs[:200] + (Quaternion(0.0, 0.0, 1e-100, 0.0),))
    with np.errstate(over="ignore"):
        assert np.isinf(np.exp(fock._log_moments(201, alpha, radius))[200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = inner_product(f, g, params)
    x = alpha * radius * radius
    m0 = gammainc(1, x) / math.pi
    pair = -math.exp(2.0 * math.log(1e-100) + gammaln(201)
                     + math.log(gammainc(201, x)) - 200 * math.log(alpha)
                     - math.log(math.pi))
    # terms are taken relative to the largest, 1e234, in log space
    assert abs(got.y - pair) <= 1e-12 * abs(pair)
    assert abs(got.w - m0) <= 1e-12 * m0 and got.x == got.z == 0.0


@given(coeff_rows, st.integers(0, 3), st.sampled_from([1, 11]))
# squared, a coefficient of 3.5e-203 underflows unless it is scaled first
@example(rows=[(0.0, 0.0, 0.0, 3.543643236417232e-203)], order=0, sphere_count=1)
@settings(max_examples=30, deadline=None)
def test_lockstep_polish_matches_scalar_golden(rows, order, sphere_count):
    f = _series_from(rows)
    units = default_sphere(sphere_count)
    radial, angular = 17, 32
    [(sups, _, _)] = _sup_over_rows([(f, units, False)], 1.0, 1.0, radial,
                                    angular, weight_order=order)
    radii = _chebyshev_radii(radial, 1.0)
    theta = 2.0 * np.pi * np.arange(angular) / angular
    for unit, sup in zip(units, sups):
        def weighted(z):
            q = Quaternion(z.real, z.imag * unit.x, z.imag * unit.y, z.imag * unit.z)
            return f.eval(q).modulus() * math.exp(-0.5 * abs(z) ** 2) \
                / (1.0 + abs(z)) ** order

        # the first grid max in radius-major order, as argmax takes it
        grid_max, point = max(((weighted(z), z) for r in radii for t in theta
                               for z in [r * complex(math.cos(t), math.sin(t))]),
                              key=lambda vz: vz[0])
        assert sup >= grid_max * (1.0 - 1e-13)
        ri = int(np.argmin(np.abs(radii - abs(point))))
        phase = point / abs(point) if abs(point) > 0.0 else 1.0 + 0.0j
        ray = _golden_max(lambda r: weighted(r * phase), float(radii[max(ri - 1, 0)]),
                          float(radii[min(ri + 1, radial - 1)]))
        assert abs(sup - max(ray, grid_max)) <= 1e-12 * max(sup, 1e-300)


# --- the secant polish: F' from the ray tables, peaks reached exactly ---

def _ray_rows(f, units, angles):
    """_GridMaxima of f's rows along angles (one per unit, or one ball row)."""
    coeffs, _ = _scaled_rows(f)
    angles = np.array(angles, dtype=float)
    return _GridMaxima(coeffs, units, angles, np.zeros((angles.size, 2)),
                       np.zeros(angles.size))


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_ray_slope_matches_a_central_difference(order):
    rng = rng_for(41 + order)
    fs = [random_series(rng, max_degree=12) for _ in range(3)]
    # real coefficients: v = Im(A conj(B)) vanishes along every ray
    real = SliceSeries.from_reals(rng.uniform(-1.0, 1.0, 7))
    const = SliceSeries((Quaternion(0.3, -0.4, 0.5, 0.1),))
    units = [UNIT_I, UNIT_J, ImaginaryUnit.normalized(1.0, -2.0, 3.0)]
    sets = [_ray_rows(f, units, [0.3, 1.9, 4.0]) for f in fs + [const]]
    sets += [_ray_rows(f, None, [angle]) for f in fs + [real, const]
             for angle in (0.7, 2.9)]
    evaluate = _ray_evaluator(sets, 1.3, order)
    rows = sum(rows.angles.size for rows in sets)
    h = 1e-6
    for r in (0.05, 0.37, 0.81, 1.3):
        value, slope = evaluate(np.full(rows, r))
        ahead, _ = evaluate(np.full(rows, r + h))
        behind, _ = evaluate(np.full(rows, r - h))
        central = (ahead - behind) / (2.0 * h)
        assert np.all(np.abs(slope - central) <= 1e-7 * np.maximum(1.0, np.abs(value)))
    # at r = 0 a ball row's v vanishes, and its slope is the one from the right
    value, slope = evaluate(np.zeros(rows))
    ahead, _ = evaluate(np.full(rows, h))
    further, _ = evaluate(np.full(rows, 2.0 * h))
    right = (4.0 * ahead - 3.0 * value - further) / (2.0 * h)
    assert np.all(np.abs(slope - right) <= 1e-7 * np.maximum(1.0, value))


@pytest.mark.parametrize("coeff", [Quaternion(0.3, -0.4, 0.5, 0.1), Quaternion(1.0),
                                   Quaternion(0.0, 3e-200, 0.0, -7e-201)])
@pytest.mark.parametrize("radius", [1.0, 1.2])
def test_polish_reaches_an_interior_peak_exactly(coeff, radius):
    # |q a| e^{-2|q|^2} = r |a| e^{-2 r^2} peaks at r = 1/2 on every slice.
    # At radius 1 that is a Chebyshev node; at radius 1.2 it lies between
    # nodes, where the grid alone reads 2.7e-5 low
    f = SliceSeries((Quaternion(), coeff))
    params = FockParams(alpha=4.0, p=math.inf, radius=radius)
    want = coeff.modulus() * 0.5 * math.exp(-0.5)
    for got in (slice_sup_norm(f, UNIT_J, params), sup_norm(f, params).value):
        assert abs(got - want) <= 1e-15 * want


@pytest.mark.parametrize("coeffs, alpha, radius, want", [
    # f(0) = 0, so F' = 0 at r = 0, and the peak lies inside the first cells
    ((0.0, 1.0), 1.0, 1e4, math.exp(-0.5)),
    ((0.0, 1.0), 1e7, 1.0, math.sqrt(math.exp(-1.0) / 1e7)),
    ((0.0, 0.0, 0.0, 1.0), 1.0, 1e4, 3.0 ** 1.5 * math.exp(-1.5)),
    # |1 + q^2| e^{-|q|^2/2} is stationary at 0 and peaks at |q| = 1 (2 e^{-1/2})
    ((1.0, 0.0, 1.0), 1.0, 3e4, 2.0 * math.exp(-0.5)),
    # the weight underflows at every grid radius but 0
    ((0.0, 1.0), 1.0, 1e6, math.exp(-0.5)),
])
def test_polish_finds_a_peak_in_a_cell_flat_at_its_start(coeffs, alpha, radius, want):
    f = SliceSeries(tuple(Quaternion(c) for c in coeffs))
    params = FockParams(alpha=alpha, p=math.inf, radius=radius)
    for got in (slice_sup_norm(f, UNIT_J, params), sup_norm(f, params).value):
        assert abs(got - want) <= 1e-15 * want


def test_polish_keeps_peaks_at_the_ends_of_the_radius():
    a = Quaternion(0.3, -0.4, 0.5, 0.1)
    params = FockParams(alpha=1.0, p=math.inf, radius=1.2)
    # a constant peaks at r = 0, where the weight is 1; r^3 |a| e^{-r^2/2}
    # rises up to r = sqrt(3), beyond R
    for f, want in ((SliceSeries((a,)), a.modulus()),
                    (SliceSeries((Quaternion(),) * 3 + (a,)),
                     a.modulus() * 1.2 ** 3 * math.exp(-0.72))):
        for got in (slice_sup_norm(f, UNIT_J, params), sup_norm(f, params).value):
            assert abs(got - want) <= 1e-15 * want


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_more_polish_round_changes_no_verify_sup(seed, monkeypatch):
    # every row of verify's sup calls has stopped before the last round
    calls, sup_over_rows = [], fock._sup_over_rows

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return sup_over_rows(*args, **kwargs)

    monkeypatch.setattr(fock, "_usable_cores", lambda: 1)     # no worker
    monkeypatch.setattr(fock, "_sup_over_rows", recorded)
    monkeypatch.setattr(verify, "_sup_over_rows", recorded)
    verify.run_verify(seed, "derivative,dilation,monomial,norm-sandwich-sup")
    assert len(calls) == 6
    for args, kwargs in calls:
        want = sup_over_rows(*args, **kwargs)
        with unittest.mock.patch.object(fock, "_POLISH_ROUNDS", _POLISH_ROUNDS + 1):
            got = sup_over_rows(*args, **kwargs)
        assert [_sups_bytes(found) for found in got] == \
            [_sups_bytes(found) for found in want]


def test_blocked_p_norm_memory_stays_cache_sized():
    # at the 512 x 1024 cap one units x points array of |f|^p would take
    # 67 x 524288 doubles, 281 MB; the blocked sum never holds more than a block
    f = _series_from([(0.3, -0.2, 0.5, 0.1)] * 12)
    units = default_sphere()
    assert len(units) * RADIAL_CAP * ANGULAR_CAP * 8 > 280e6
    grid = QuadratureGrid.build(RADIAL_CAP, ANGULAR_CAP)
    tracemalloc.start()
    try:
        values = _slice_norms_on_grid(f, units, FockParams(1.0, 1.5), grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(values))
    assert peak < 32e6


# --- the p != 2 lanes against the serial block loop they replaced ---

def _serial_abs_sq_blocks(coeffs, units, radii, theta, rows):
    """The block generator of the serial loop, kept as the reference."""
    if len(units) < 5:
        ks, table = np.arange(len(coeffs)), _ray_coeffs(coeffs, units, theta)
        for i in range(0, radii.size, rows):
            vals = radii[i:i + rows, None] ** ks @ table
            yield i, np.square(vals, out=vals).sum(axis=1).reshape(len(units), -1)
        return
    table, unit_rows = _terms_table(coeffs, theta), _unit_rows(units)
    for i in range(0, radii.size, rows):
        s, v = _slice_terms(table, radii[i:i + rows])
        out = unit_rows @ (2.0 * v)
        out += s
        yield i, np.maximum(out, 0.0, out=out)


def _log_exp_power(powered, p):
    """|f|^p from powered = |f|^2 in place, as the library takes it."""
    with np.errstate(divide="ignore"):
        np.log(powered, out=powered)
    powered *= p / 2.0
    return np.exp(powered, out=powered)


def _serial_slice_norms(f, units, params, grid, power=_log_exp_power):
    """_slice_norms_on_grid at p != 2 with every block on the calling thread."""
    r, _ = grid.radial_arrays()
    (coeffs, exponent), theta = _scaled_rows(f), grid.angles()
    p = params.p
    w = (grid.area_weights().reshape(r.size, -1)
         * np.exp(-0.5 * params.alpha * p * r * r)[:, None]).ravel()
    rows, nt = max(1, _BLOCK_POINTS // theta.size), theta.size
    sums = np.zeros(len(units))
    for i, powered in _serial_abs_sq_blocks(coeffs, units, r, theta, rows):
        sums += power(powered, p) @ w[i * nt:(i + rows) * nt]
    integrals = params.alpha / math.pi / math.pi * sums
    with np.errstate(over="ignore"):
        return np.ldexp(np.maximum(integrals, 0.0) ** (1.0 / p), exponent)


# a block holds _BLOCK_POINTS // angular radial rows: these grids give 1, 3,
# 9 and 13 blocks, each with a partial last block
@given(coeff_rows, st.sampled_from([0.7, 1.5, 3.0]), st.sampled_from([1, 4, 5, 67]),
       st.sampled_from([(16, 64), (131, 64), (67, 512), (200, 256)]),
       st.sampled_from([1e-200, 1.0, 1e200]), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_lanes_equal_the_serial_block_loop_bit_for_bit(rows, p, count, shape,
                                                       scale, lanes):
    f = _series_from(rows).scale_right(Quaternion(scale))
    units = default_sphere()[:count]
    params = FockParams(alpha=1.3, p=p, radius=1.2)
    grid = QuadratureGrid.build(*shape, 1.2)
    with unittest.mock.patch.object(fock, "_usable_cores", lambda: lanes):
        got = _slice_norms_on_grid(f, units, params, grid)
    assert got.tobytes() == _serial_slice_norms(f, units, params, grid).tobytes()


@pytest.mark.parametrize("p", [0.7, 1.5, 3.0])
@pytest.mark.parametrize("scale", [2.0 ** -664, 1.0, 2.0 ** 664])   # about 1e-+200
@pytest.mark.parametrize("count", [1, 67])
def test_log_exp_power_matches_np_power(p, scale, count):
    # f = (q - r_0) scale vanishes at the grid node r_0 on every slice
    # (angle 0), exactly, as the scale is a power of two; so log takes a 0
    # there, which the caller's divide="raise" must not see
    grid = QuadratureGrid.build(64, 128, 1.0)
    r0 = float(grid.radial_arrays()[0][3])
    f = SliceSeries((Quaternion(-r0 * scale), Quaternion(scale)))
    units = default_sphere()[:count]
    params = FockParams(alpha=1.3, p=p, radius=1.0)
    assert _abs_sq_evaluator(_scaled_rows(f)[0], units, grid.angles())(
        np.array([r0])).min() == 0.0
    with np.errstate(divide="raise"):
        got = _slice_norms_on_grid(f, units, params, grid)
    want = _serial_slice_norms(f, units, params, grid,
                               power=lambda x, p: np.power(x, p / 2.0, out=x))
    assert np.all(want > 0.0)
    assert np.max(np.abs(got - want) / want) <= 1e-13


def test_helper_lanes_keep_the_callers_error_state():
    # two blocks of 64 radial rows; only the outer one, a helper's, overflows
    radius = 2.2e19
    f = monomial_series(8)
    grid = QuadratureGrid.build(128, 64, radius)
    units = default_sphere()
    r, _ = grid.radial_arrays()
    coeffs, _ = _scaled_rows(f)
    params = FockParams(alpha=1.0, p=1.5, radius=radius)
    with np.errstate(over="raise"):
        _abs_sq_evaluator(coeffs, units, grid.angles())(r[:64])
        with pytest.raises(FloatingPointError):
            _abs_sq_evaluator(coeffs, units, grid.angles())(r[64:])
        with pytest.raises(FloatingPointError):
            _serial_slice_norms(f, units, params, grid)
        with unittest.mock.patch.object(fock, "_usable_cores", lambda: 2):
            with pytest.raises(FloatingPointError):
                fock._refine_norms(f, units, params, grid)


def test_helper_exception_reaches_the_caller():
    helper_took = threading.Event()

    def fn(x):
        # any lane may take any item: a helper raises on the first it takes,
        # and the caller's items wait for that, so a helper takes one
        if threading.current_thread().name.startswith("slicefock-lane"):
            helper_took.set()
            raise ValueError(threading.current_thread().name)
        assert helper_took.wait(timeout=30)
        return x

    with unittest.mock.patch.object(fock, "_usable_cores", lambda: 2):
        assert fock._in_lanes(lambda x: 2 * x, range(5)) == [0, 2, 4, 6, 8]
        with pytest.raises(ValueError, match="slicefock-lane"):
            fock._in_lanes(fn, range(4))


def test_lanes_take_the_next_item_when_free():
    # item 0 waits until every other item is done: dealt round-robin, its
    # lane would hold items after it and never finish; from a shared
    # counter the other lane takes them all
    count, done, lock = 6, [], threading.Lock()
    rest_done = threading.Event()

    def fn(x):
        if x == 0:
            assert rest_done.wait(timeout=10), "item 0 waited for a lane's own items"
        else:
            with lock:
                done.append(x)
                if len(done) == count - 1:
                    rest_done.set()
        return x

    with unittest.mock.patch.object(fock, "_usable_cores", lambda: 2):
        assert fock._in_lanes(fn, range(count)) == list(range(count))


def test_no_lane_starts_an_item_after_a_raise():
    # items 0 and 1 run at once; 1 raises while 0 runs, and 0 ends after
    # the raise, so neither lane may start items 2 onwards
    started, ended, lock = [], [], threading.Lock()
    running, raised = threading.Event(), threading.Event()

    def fn(x):
        with lock:
            started.append(x)
        if x == 0:
            running.set()
            assert raised.wait(timeout=30)
            time.sleep(0.1)             # the raise reaches its lane meanwhile
        elif x == 1:
            assert running.wait(timeout=30)
            raised.set()
            raise ValueError("item 1")
        with lock:
            ended.append(x)
        return x

    with unittest.mock.patch.object(fock, "_usable_cores", lambda: 2):
        with pytest.raises(ValueError, match="item 1"):
            fock._in_lanes(fn, range(20))
    assert sorted(started) == [0, 1]
    assert ended == [0]                 # the caller raised once both had stopped


def test_concurrent_callers_make_one_pool_and_equal_results():
    # six callers of three lanes each on however many cores, switching often;
    # a slow pool start widens the window in which a second one could be made
    made = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            time.sleep(0.05)
            super().__init__(*args, **kwargs)

    f = random_series(rng_for(23), max_degree=8)
    units, params = default_sphere(), FockParams(alpha=1.0, p=1.5)
    grid = QuadratureGrid.build(67, 512)
    want = _serial_slice_norms(f, units, params, grid).tobytes()
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with unittest.mock.patch.object(fock, "_POOL", None), \
                unittest.mock.patch.object(fock, "_usable_cores", lambda: 3), \
                unittest.mock.patch.object(concurrent.futures, "ThreadPoolExecutor",
                                           Counted):
            callers = [threading.Thread(target=lambda: got.append(
                _slice_norms_on_grid(f, units, params, grid).tobytes()))
                for _ in range(6)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
            for pool in made:
                pool.shutdown()
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert len(made) == 1
    assert got == [want] * 6


def test_a_lane_that_cannot_start_leaves_its_blocks_to_the_caller(monkeypatch):
    # at a thread limit Thread.start raises RuntimeError inside the pool's
    # submit, after the helper's task is queued; the caller takes every block
    f = SliceSeries((Quaternion(-0.3, 0.1), Quaternion(1.0, 0.0, 0.2)))
    params = FockParams(alpha=1.0, p=1.5)
    monkeypatch.setattr(fock, "_usable_cores", lambda: 1)
    want = fock_norm_p(f, params)
    assert want.grid_spec["refinements"] >= 1
    pool = concurrent.futures.ThreadPoolExecutor(1, thread_name_prefix="slicefock-lane")
    monkeypatch.setattr(fock, "_POOL", pool)
    monkeypatch.setattr(fock, "_usable_cores", lambda: 2)
    refused = []

    def refuse(thread):
        refused.append(thread.name)
        raise RuntimeError("can't start new thread")

    try:
        with monkeypatch.context() as patched:
            patched.setattr(threading.Thread, "start", refuse)
            assert fock_norm_p(f, params) == want
        assert refused and all(n.startswith("slicefock-lane") for n in refused)
        # the refused tasks are still queued: the next call's helper takes
        # them first, finds no block left, and the call returns
        got = []
        caller = threading.Thread(target=lambda: got.append(fock_norm_p(f, params)))
        caller.start()
        caller.join(timeout=120)
        assert got == [want]
    finally:
        pool.shutdown()


FORK_SCRIPT = """
import os, sys, time
from slicefock import FockParams, SliceSeries, Quaternion, fock_norm_p
f = SliceSeries((Quaternion(1.0), Quaternion(0.0, 0.5, 0.2, 0.1), Quaternion(0.3)))
params = FockParams(alpha=1.0, p=1.5)
fock_norm_p(f, params)                       # the parent's pool now exists
pid = os.fork()
if pid == 0:
    value = fock_norm_p(f, params).value
    os._exit(0 if value > 0.0 else 1)
deadline = time.monotonic() + 60.0
while time.monotonic() < deadline:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        sys.exit(os.waitstatus_to_exitcode(status))
    time.sleep(0.05)
os.kill(pid, 9)
os.waitpid(pid, 0)
sys.exit("the forked child hung")
"""


def test_forked_child_computes_with_a_fresh_pool(src_env):
    done = subprocess.run([sys.executable, "-c", FORK_SCRIPT], env=src_env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_norm_output_does_not_depend_on_the_core_count(tmp_path, src_env):
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) < 2:
        pytest.skip("needs two usable cores")
    # the zero at 0.3 makes |f|^1.5 rough, so the grid doubles to many blocks
    path = tmp_path / "f.json"
    save_function(SliceSeries((Quaternion(-0.3, 0.1), Quaternion(1.0, 0.0, 0.2))),
                  str(path))
    argv = [sys.executable, "-m", "slicefock", "norm", str(path), "--p", "1.5",
            "--out", "json"]
    free = subprocess.run(argv, env=src_env, capture_output=True, timeout=120)
    pinned = subprocess.run(argv, env=src_env, capture_output=True, timeout=120,
                            preexec_fn=lambda: os.sched_setaffinity(0, cores[:1]))
    assert free.returncode == pinned.returncode == 0, free.stderr + pinned.stderr
    assert json.loads(free.stdout)["grid"]["refinements"] >= 1
    assert free.stdout == pinned.stdout


NO_POOL_SCRIPT = """
import sys, threading
from slicefock import FockParams, SliceSeries, Quaternion, fock_norm_p, sup_norm
from slicefock.verify import run_verify
f = SliceSeries((Quaternion(1.0), Quaternion(0.0, 0.5, 0.2, 0.1), Quaternion(0.3)))
fock_norm_p(f, FockParams(alpha=1.0, p=2.0))
sup_norm(f, FockParams(alpha=1.0))
run_verify(seed=0, sphere_count=4)
assert threading.active_count() == 1, threading.enumerate()
assert "concurrent.futures" not in sys.modules
"""


def test_p2_sup_and_verify_start_no_thread(src_env):
    done = subprocess.run([sys.executable, "-c", NO_POOL_SCRIPT], env=src_env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


# --- refinement refuses non-finite values ---

def test_refinement_refuses_non_finite_values(monkeypatch):
    # the norms of 1 + q are 8.52 (p = 2) and 6.81 (p = 1.5) here, so those
    # of 1e308 (1 + q) overflow
    huge = SliceSeries((Quaternion(1e308), Quaternion(1e308)))
    params = FockParams(alpha=0.001, p=1.5, radius=30.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # p = 2 refines nothing: the closed form overflows to inf, as sup_norm does
        p2 = FockParams(alpha=0.001, p=2.0, radius=30.0)
        assert fock_norm_p(huge, p2, sphere=small_sphere()).value == math.inf
        assert slice_norm_p(huge, UNIT_I, p2) == math.inf
        with pytest.raises(GridTooCoarse, match="not finite"):
            fock_norm_p(huge, params, sphere=small_sphere())
        # also when the start grid already sits at the cap
        monkeypatch.setattr(fock, "RADIAL_CAP", 8)
        monkeypatch.setattr(fock, "ANGULAR_CAP", 16)
        with pytest.raises(GridTooCoarse, match="not finite"):
            fock._refine_norms(huge, small_sphere(), params,
                               QuadratureGrid.build(8, 16, 30.0))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("scale", [3.543643236417232e-203, 1e200])
def test_quadrature_norm_scales_tiny_and_huge_coefficients(p, scale):
    # squared unscaled, 3.5e-203 underflows to 0 and 1e200 overflows to inf
    f = random_series(rng_for(19), max_degree=6)
    params = FockParams(alpha=1.0, p=p, radius=1.0)
    want = fock_norm_p(f, params, sphere=small_sphere()).value * scale
    got = fock_norm_p(f.scale_right(Quaternion(scale)), params,
                      sphere=small_sphere()).value
    assert abs(got - want) <= 1e-13 * want


# --- the in-place grid stages against the array expressions they replaced ---

def _reference_sup_over_rows(f, units, alpha, radius, radial_samples,
                             angular_count, weight_order=0):
    """_sup_over_rows with its grid stage in fresh arrays, kept as the reference."""
    coeffs, exponent = _scaled_rows(f)
    radii = _chebyshev_radii(radial_samples, radius)
    theta = 2.0 * np.pi * np.arange(angular_count) / angular_count
    mags = np.sqrt(_abs_sq_evaluator(coeffs, units, theta)(radii))
    weight = np.exp(-0.5 * alpha * radii ** 2) / (1.0 + radii) ** weight_order
    vals = (mags.reshape(-1, radial_samples, angular_count)
            * weight[None, :, None]).reshape(len(units), -1)
    flat = vals.argmax(axis=1)
    grid_max = vals[np.arange(flat.size), flat]
    ri, ti = np.divmod(flat, angular_count)
    ks = np.arange(coeffs.shape[0])
    ray = _ray_coeffs(coeffs, units, theta[ti][:, None])[..., 0].transpose(0, 2, 1)

    def weighted_sq(r):
        # F = W |f|^2 and F' = W (2 <f, f'> + |f|^2 (log W)') from r^k and k r^(k-1)
        pw = r[:, None] ** ks
        dpw = np.concatenate([np.zeros((r.size, 1)), pw[:, :-1] * ks[1:]], axis=1)
        vec, der = (np.stack([pw, dpw], axis=1) @ ray).transpose(1, 0, 2)
        sq, dsq = (vec * vec).sum(axis=-1), 2.0 * (vec * der).sum(axis=-1)
        gauss, scale = np.exp(-alpha * r * r), (1.0 + r) ** (2 * weight_order)
        value = sq * gauss
        slope = (dsq - sq * (2.0 * alpha * r + 2.0 * weight_order / (1.0 + r))) * gauss
        return value / scale, slope / scale

    refined = np.sqrt(_secant_max_rows(weighted_sq, radii[np.maximum(ri - 1, 0)],
                                       radii[np.minimum(ri + 1, radial_samples - 1)]))
    return np.ldexp(np.maximum(refined, grid_max), exponent)


def _reference_slice_terms(table, radii):
    a, b = (radii[:, None] ** np.arange(table.shape[2]) @ table).reshape(2, 6, -1)
    s = (a[:4] ** 2).sum(axis=0) + (b[:4] ** 2).sum(axis=0)
    v = b[0] * a[1:4] - a[0] * b[1:4] - (a[2:5] * b[3:6] - a[3:6] * b[2:5])
    return s, v


# 1 and 4 units take |A + I B|^2; 5 and 67 take s + 2 <v, I> and evaluate
# only the grid blocks where the bound w sqrt(s + 2|v|) can hold a unit's max
@pytest.mark.parametrize("sphere", [[UNIT_I], default_sphere(1) + [UNIT_J],
                                    default_sphere(1) + [UNIT_I, UNIT_J],
                                    default_sphere()])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
def test_sup_over_rows_equals_reference_bit_for_bit(sphere, order, scale):
    rng = rng_for(17 + order)
    assert len(sphere) in (1, 4, 5, 67)
    # ties: a constant is the same everywhere, real coefficients on every
    # unit, and zero is both
    fs = [random_series(rng, max_degree=12) for _ in range(3)] + [
        SliceSeries((Quaternion(0.3, -0.4, 0.5, 0.1),)),
        SliceSeries.from_reals(rng.uniform(-1.0, 1.0, 9)),
        SliceSeries((Quaternion(),))]
    for f in fs:
        f = f.scale_right(Quaternion(scale))
        for radial, angular in ((17, 32), (33, 64), (65, 128), (129, 256)):
            [got] = _sup_over_rows([(f, sphere, False)], 1.3, 1.2, radial, angular,
                                   order)
            want = _reference_sup_over_rows(f, sphere, 1.3, 1.2, radial, angular,
                                            order)
            assert got.sups.tobytes() == want.tobytes()


@pytest.mark.parametrize("sphere", [default_sphere(1) + [UNIT_I, UNIT_J],
                                    default_sphere()])
@pytest.mark.parametrize("alpha", [1e-300, 1.3])
def test_sup_over_rows_equals_reference_bit_for_bit_on_overflow(sphere, alpha):
    # r^12 overflows on the outer radii: |f|^2 is inf there and, where the
    # weight underflows to 0 or inf meets -inf, NaN
    f = random_series(rng_for(16), max_degree=12)
    with np.errstate(all="ignore"):
        [got] = _sup_over_rows([(f, sphere, False)], alpha, 1e30, 65, 128)
        want = _reference_sup_over_rows(f, sphere, alpha, 1e30, 65, 128)
    assert not np.all(np.isfinite(want))
    assert got.sups.tobytes() == want.tobytes()


# --- the units x points kernel against a clamp of every column ---

_KERNEL_SPHERES = {5: default_sphere()[:5], 67: default_sphere(),
                   200: default_sphere(200)[:200]}


def _kernel_and_unclamped(coeffs, units, radii, theta, cols):
    """_unit_abs_sq on the grid points cols, and unit_rows @ (2v) + s there."""
    s, v = _slice_terms(_terms_table(coeffs, theta), radii)
    s, v, unit_rows = s[cols], v[:, cols], _unit_rows(units)
    raw = unit_rows @ (2.0 * v)
    raw += s
    return fock._unit_abs_sq(s, v, unit_rows), raw


def _node_zero(unit, radii, theta, i, j):
    """Rows of f = q - q0, q0 = r_i (cos t_j + I sin t_j) on the slice of unit."""
    x0, y0 = radii[i] * np.cos(theta[j]), radii[i] * np.sin(theta[j])
    return np.array([[-x0, -y0 * unit.x, -y0 * unit.y, -y0 * unit.z],
                     [1.0, 0.0, 0.0, 0.0]])


def _aligned_blocks(rng, size):
    """About half of the aligned 16-point blocks of a grid, as the pruning keeps them."""
    return np.flatnonzero(np.repeat(rng.uniform(size=size // 16) < 0.5, 16))


# a zero: (radial node, angular node, unit); at R = 1e30, r^k overflows on the
# outer radii, and a 1e200 scale overflows the squares, so s and v hold inf
# and NaN there
@given(coeff_rows, st.sampled_from([5, 67, 200]), st.sampled_from([1e-200, 1.0, 1e200]),
       st.sampled_from([1.2, 1e30]), st.booleans(), st.integers(0, 2 ** 32 - 1),
       st.none() | st.tuples(st.integers(0, 32), st.integers(1, 31), st.integers(0, 199)))
@example([(0.3, -0.2, 0.5, 0.1)] * 13, 67, 1.0, 1e30, False, 0, None)
@example([(0.0, 0.0, 0.0, 0.0)], 67, 1.0, 1.2, True, 0, (20, 5, 66))
@settings(max_examples=80, deadline=None)
def test_unit_abs_sq_equals_a_clamp_of_every_column_bit_for_bit(
        rows, count, scale, radius, pruned, seed, zero):
    units = _KERNEL_SPHERES[count]
    radii, theta = _chebyshev_radii(33, radius), 2.0 * np.pi * np.arange(64) / 64
    if zero is not None:
        rows = _node_zero(units[zero[2] % count], radii, theta, *zero[:2])
    size = radii.size * theta.size
    cols = _aligned_blocks(np.random.default_rng(seed), size) if pruned \
        else np.arange(size)
    with np.errstate(all="ignore"):
        got, raw = _kernel_and_unclamped(np.array(rows) * scale, units, radii,
                                         theta, cols)
        want = np.maximum(raw, 0.0)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("count", [5, 67, 200])
def test_unit_abs_sq_clamps_the_values_below_zero_at_a_zero_of_f(count):
    # f = q - q0 with q0 a non-real node of one unit's slice on the start
    # grid: |f|^2 is 0 there, and s + 2 <v, I> rounds below 0 for some of
    # these f (a real q0 gives an exact 0).  So a kernel that clamps none of
    # its columns, or too few, fails here
    units = _KERNEL_SPHERES[count]
    grid = QuadratureGrid.build(64, 128)
    radii, theta = grid.radial_arrays()[0], grid.angles()
    rng = np.random.default_rng(count)
    below = 0
    for n in range(40):
        unit = units[rng.integers(count)]
        rows = _node_zero(unit, radii, theta, rng.integers(64), rng.integers(1, 64))
        cols = _aligned_blocks(rng, radii.size * theta.size) if n % 2 \
            else np.arange(radii.size * theta.size)
        got, raw = _kernel_and_unclamped(rows, units, radii, theta, cols)
        assert got.tobytes() == np.maximum(raw, 0.0).tobytes()
        below += int(np.count_nonzero(raw < 0.0))
    assert below > 0


@given(coeff_rows, st.lists(st.floats(0.0, 1.5), min_size=1, max_size=9),
       st.integers(1, 17))
@settings(max_examples=60, deadline=None)
def test_slice_terms_equal_reference_bit_for_bit(rows, radii, angular):
    theta = 2.0 * np.pi * np.arange(angular) / angular
    table = _terms_table(_rows(_series_from(rows).coeffs), theta)
    got, want = _slice_terms(table, np.array(radii)), \
        _reference_slice_terms(table, np.array(radii))
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sup_grid_stage_holds_one_units_by_points_array():
    # the fresh-array grid stage peaked at 2.03 such arrays
    f = _series_from([(0.3, -0.2, 0.5, 0.1)] * 13)
    units = default_sphere()
    array_bytes = len(units) * 65 * 128 * 8
    peak = _traced_peak(lambda: _sup_over_rows([(f, units, False)], 1.0, 1.0, 65, 128))
    assert peak <= 1.25 * array_bytes


def test_p2_slice_terms_peak_stays_near_the_table():
    # s and v through scratch rows: the fresh-array terms peaked at 2.0 tables
    coeffs, _ = _scaled_rows(_series_from([(0.3, -0.2, 0.5, 0.1)] * 13))
    grid = QuadratureGrid.build(128, 256)
    r, _ = grid.radial_arrays()
    table = _terms_table(coeffs, grid.angles())
    table_bytes = 2 * 6 * 128 * 256 * 8
    peak = _traced_peak(lambda: _slice_terms(table, r))
    assert peak <= 1.8 * table_bytes


# --- one polish for a batch of jobs against one call per job ---

jobs_strategy = st.lists(
    st.tuples(coeff_rows, st.lists(directions, max_size=7),
              st.sampled_from([1e-200, 1.0, 1e200]), st.booleans()),
    min_size=1, max_size=6)


def _sups_bytes(found):
    """A _Sups as bytes, so == also tells -0.0 from 0.0 and NaN from NaN."""
    ball = None if found.ball is None else \
        np.array([found.ball, found.ball_point]).tobytes()
    return found.sups.tobytes(), ball


# a chunk of 3 rows splits jobs and coefficient groups across chunks
@given(jobs_strategy, st.integers(0, 3), st.sampled_from([3, _POLISH_ROWS]),
       st.sampled_from([(9, 16), (17, 32)]))
@settings(max_examples=60, deadline=None)
def test_batched_polish_equals_one_call_per_job(jobs, order, chunk, shape):
    # 1 to 4 units take the _ray_coeffs route, 5 to 7 take s + 2 <v, I>; a
    # job may have no unit, and a ball row or none
    jobs = [(_series_from(rows).scale_right(Quaternion(scale)),
             [ImaginaryUnit.normalized(*d) for d in dirs], ball)
            for rows, dirs, scale, ball in jobs]
    with unittest.mock.patch.object(fock, "_POLISH_ROWS", chunk):
        batched = _sup_over_rows(jobs, 1.3, 1.2, *shape, order)
    assert len(batched) == len(jobs)
    for job, found in zip(jobs, batched):
        [want] = _sup_over_rows([job], 1.3, 1.2, *shape, order)
        assert _sups_bytes(found) == _sups_bytes(want)
        assert found.sups.size == len(job[1])
        assert (found.ball is None) == (not job[2])


@given(st.lists(st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)), min_size=2,
                max_size=9))
@example([(0.0, 0.9), (0.0, 2.0), (0.3, 1.9), (1.2, 2.0), (0.1, 0.2)])
@settings(max_examples=40, deadline=None)
def test_secant_rows_take_the_same_steps_alone_and_in_a_batch(cells):
    # a lone row and a stack of rows must be cut at the same abscissae.
    # F = sin(3r)^2 e^{-r} has F'(0) = 0, so cells from 0 take a first cut
    # just above it and then midpoints, and F = F' = 0 beyond 1.8 stands for
    # an underflowed weight, which is cut at midpoints too
    lo, hi = np.array(cells).T
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)

    def recorded(log):
        def fn(r):
            log.append(r.copy())
            sin, cos, decay = np.sin(3.0 * r), np.cos(3.0 * r), np.exp(-r) * (r <= 1.8)
            return sin * sin * decay, (6.0 * cos - sin) * sin * decay
        return fn

    batch_log = []
    batched = _secant_max_rows(recorded(batch_log), lo, hi)
    for m in range(lo.size):
        row_log = []
        alone = _secant_max_rows(recorded(row_log), lo[m:m + 1], hi[m:m + 1])
        assert alone.tobytes() == batched[m:m + 1].tobytes()
        # the batch may run on after this row has stopped
        assert np.array(row_log)[:, 0].tobytes() == \
            np.array(batch_log)[:len(row_log), m].tobytes()


def test_batched_polish_crosses_a_chunk_boundary():
    # 24 jobs of 67 units at one coefficient count make 1608 rows, two chunks
    rng = rng_for(23)
    units = default_sphere()
    jobs = [(_series_from(rng.uniform(-scale, scale, (8, 4))), units, True)
            for scale in (1e-200, 1.0, 1e200) * 8]
    assert len(jobs) * len(units) > _POLISH_ROWS
    for order in (0, 3):
        batched = _sup_over_rows(jobs, 1.0, 1.0, 17, 32, order)
        for job, found in zip(jobs, batched):
            [want] = _sup_over_rows([job], 1.0, 1.0, 17, 32, order)
            assert _sups_bytes(found) == _sups_bytes(want)


def test_polish_runs_one_secant_loop_per_chunk():
    # 50 functions at order 2 make 150 jobs, 18 of them f = 0, which take no
    # grid; the other 132 rows form one chunk, so one secant loop, where one
    # loop per (coefficient count, kind) group made 22
    loops, made = [], []

    def counted(*args, **kwargs):
        loops.append(args[1].size)
        return _secant_max_rows(*args, **kwargs)

    def grid_stage(*args, stage=fock._sup_grid_stage):
        staged = stage(*args)
        made.extend(rows.angles.size for rows in staged[2])
        return staged

    subset = standard_corpus(0)[:50]
    with unittest.mock.patch.object(fock, "_secant_max_rows", counted), \
            unittest.mock.patch.object(fock, "_sup_grid_stage", grid_stage):
        reports = fock._derivative_reports(subset, 2, P2, 33, 64)
    assert loops == [sum(made)] == [132]
    for f, report in zip(subset[:3], reports):
        with sup_grid(33, 64):
            assert report == derivative_criterion(f, 2, P2)


@pytest.mark.parametrize("count", [3, 67])
@pytest.mark.parametrize("ball", [False, True])
@pytest.mark.parametrize("order", [0, 2])
def test_a_zero_function_takes_no_sup_grid(count, ball, order):
    # f = 0, as a derivative above the degree leaves it, has the values the
    # grid path gave it: 0.0 per unit and on the ball, at the point 0j
    # (the argmax of an all-zero bound is node 0, where r = 0)
    rng = rng_for(29)
    f = _series_from(rng.uniform(-1.0, 1.0, (6, 4)))
    zero = _series_from([(0.0, 0.0, 0.0, 0.0)])
    units = default_sphere()[:count]
    jobs = [(f, units, ball), (zero, units, ball), (f, [UNIT_I], True)]
    staged = []

    def grid_stage(*args, stage=fock._sup_grid_stage):
        staged.append(args[0])
        return stage(*args)

    with unittest.mock.patch.object(fock, "_sup_grid_stage", grid_stage):
        found = _sup_over_rows(jobs, 1.0, 1.0, 17, 32, order)
    assert len(staged) == len(jobs) - 1 and all(g is not zero for g in staged)
    want = fock._Sups(np.zeros(count), 0.0 if ball else None, 0j if ball else None)
    assert _sups_bytes(found[1]) == _sups_bytes(want)
    for job, got in zip(jobs[::2], found[::2]):
        [alone] = _sup_over_rows([job], 1.0, 1.0, 17, 32, order)
        assert _sups_bytes(got) == _sups_bytes(alone)


@pytest.mark.parametrize("limit", [3, 100])
def test_polish_chunks_hold_whole_row_sets(limit):
    # sets of 1 to 67 unit rows and ball rows at three coefficient counts
    rng = rng_for(37)
    jobs = [(_series_from(rng.uniform(-1.0, 1.0, (count, 4))),
             default_sphere()[:units], ball)
            for count in (3, 8, 3, 13) for units, ball in
            ((0, True), (1, False), (4, True), (7, False), (67, True))]
    made, chunks, loops = [], [], []

    def grid_stage(*args, stage=fock._sup_grid_stage):
        staged = stage(*args)
        made.extend(staged[2])
        return staged

    def ray_evaluator(sets, *args, evaluator=fock._ray_evaluator):
        chunks.append(sets)
        return evaluator(sets, *args)

    def secant(fn, lo, hi):
        loops.append(lo.size)
        return _secant_max_rows(fn, lo, hi)

    with unittest.mock.patch.multiple(fock, _POLISH_ROWS=limit,
                                      _sup_grid_stage=grid_stage,
                                      _ray_evaluator=ray_evaluator,
                                      _secant_max_rows=secant):
        batched = _sup_over_rows(jobs, 1.0, 1.0, 17, 32)
    sizes = [[rows.angles.size for rows in chunk] for chunk in chunks]
    assert loops == [sum(chunk) for chunk in sizes]
    assert sorted(map(id, made)) == sorted(id(rows) for chunk in chunks for rows in chunk)
    assert all(sum(chunk) >= limit for chunk in sizes[:-1])
    assert all(sum(chunk[:-1]) < limit for chunk in sizes)
    for job, found in zip(jobs, batched):
        [want] = _sup_over_rows([job], 1.0, 1.0, 17, 32)
        assert _sups_bytes(found) == _sups_bytes(want)


def test_sup_over_rows_takes_jobs_with_no_rows():
    assert _sup_over_rows([], 1.0, 1.0, 17, 32) == []
    jobs = [(Q_F, [UNIT_I], True), (Q_F, [], False), (ONE_F, [UNIT_J], False)]
    batched = _sup_over_rows(jobs, 1.0, 1.0, 17, 32)
    assert batched[1].sups.size == 0 and batched[1].ball is None
    for job, found in zip(jobs, batched):
        [want] = _sup_over_rows([job], 1.0, 1.0, 17, 32)
        assert _sups_bytes(found) == _sups_bytes(want)


def _parent_dilation_convergence(f, params, r_list, radial_samples, angular_count):
    """dilation_convergence as one sup call per factor."""
    out = []
    for r in r_list:
        diff = SliceSeries(tuple(a - b for a, b in
                                 zip(dilate(f, r).coeffs, f.coeffs)),
                           f.nominal_radius)
        with sup_grid(radial_samples, angular_count):
            report = sup_norm(diff, params, [])
        out.append(report.value)
    return out


def _parent_derivative_criterion(f, order, params, radial_samples,
                                 angular_count, slack=1e-9):
    """derivative_criterion as one sup call per function."""
    der = derivative(f, order)
    [left] = _sup_over_rows([(der, [], True)], params.alpha, params.radius,
                            radial_samples, angular_count, weight_order=order)
    sup_f, zstar = left.ball, left.ball_point

    f1, f2 = split(der, UNIT_I, orthonormal_partner(UNIT_I))
    part_sups = [float(_sup_over_rows([(part.embed(), [UNIT_I], False)], params.alpha,
                                      params.radius, radial_samples,
                                      angular_count, weight_order=order)[0].sups[0])
                 for part in (f1, f2)]

    def ratio_at(poly, z):
        mag = abs(poly.eval(z))
        return mag * math.exp(-0.5 * params.alpha * abs(z) ** 2) \
            / (1.0 + abs(z)) ** order

    s1 = max(part_sups[0], ratio_at(f1, zstar), ratio_at(f1, zstar.conjugate()))
    s2 = max(part_sups[1], ratio_at(f2, zstar), ratio_at(f2, zstar.conjugate()))
    return sup_f, (s1, s2), sup_f <= s1 + s2 + slack


def test_derivative_and_dilation_equal_their_unbatched_bodies():
    rng = rng_for(29)
    params = FockParams(alpha=1.3, p=2.0, radius=1.2)
    for degree in (2, 5, 12):
        f = random_series(rng, max_degree=degree)
        with sup_grid(17, 32):
            got = dilation_convergence(f, params, (0.5, 0.9, 0.99))
        want = _parent_dilation_convergence(f, params, (0.5, 0.9, 0.99), 17, 32)
        assert got == want
        for order in range(4):
            with sup_grid(17, 32):
                rep = derivative_criterion(f, order, params)
            assert rep.order == order
            assert (rep.sup_ratio, rep.component_sups, rep.passed) == \
                _parent_derivative_criterion(f, order, params, 17, 32)


def test_dilation_values_of_a_batch_equal_one_call_per_function():
    # verify's dilation row: mixed coefficient counts, a constant among them
    rng = rng_for(31)
    params = FockParams(alpha=1.3, p=2.0, radius=1.2)
    fs = [random_series(rng, max_degree=d) for d in (2, 12, 5, 12)] + [ONE_F]
    factors = (0.5, 0.9, 0.99)
    got = fock._dilation_values(fs, params, factors, 17, 32)
    with sup_grid(17, 32):
        assert got == [dilation_convergence(f, params, factors) for f in fs]


def test_batched_sup_call_holds_one_grid_buffer_at_a_time():
    # a job's units x points array is released before the next one is built;
    # holding the previous one raises the peak to about 2 such arrays
    f = _series_from([(0.3, -0.2, 0.5, 0.1)] * 13)
    units = default_sphere()
    one = _traced_peak(lambda: _sup_over_rows([(f, units, True)], 1.0, 1.0, 65, 128))
    many = _traced_peak(lambda: _sup_over_rows([(f, units, True)] * 40, 1.0, 1.0,
                                               65, 128))
    assert many <= 1.25 * one
