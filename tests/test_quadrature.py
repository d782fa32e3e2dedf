import math

import numpy as np
import pytest
from scipy.special import gammainc

from slicefock.quadrature import (ANGULAR_CAP, DEFAULT_ANGULAR, DEFAULT_RADIAL,
                                  RADIAL_CAP, QuadratureGrid, _legendre_nodes)


def gaussian_moment(k: int, alpha: float, radius: float) -> float:
    """Closed form of integral over |z| <= R of |z|^{2k} e^{-alpha |z|^2} dxdy."""
    return math.pi * math.factorial(k) * float(gammainc(k + 1, alpha * radius**2)) \
        / alpha ** (k + 1)


def grid_moment(grid: QuadratureGrid, k: int, l: int, alpha: float) -> complex:
    z = grid.points()
    vals = z**k * np.conj(z) ** l * np.exp(-alpha * np.abs(z) ** 2)
    return complex((vals * grid.area_weights()).sum())


def test_defaults_and_caps():
    assert (DEFAULT_RADIAL, DEFAULT_ANGULAR) == (64, 128)
    assert (RADIAL_CAP, ANGULAR_CAP) == (512, 1024)
    g = QuadratureGrid.build()
    assert (g.radial_count, g.angular_count, g.radius) == (64, 128, 1.0)


def test_build_validation():
    with pytest.raises(ValueError):
        QuadratureGrid.build(0, 8, 1.0)
    with pytest.raises(ValueError):
        QuadratureGrid.build(8, 0, 1.0)
    for radius in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            QuadratureGrid.build(8, 8, radius)


def test_counts_must_be_integers():
    # the angular count went through int(): 16.7 silently built 16 angles
    for counts in ((8, 16.7), (8.0, 16)):
        with pytest.raises(TypeError):
            QuadratureGrid.build(*counts)
        with pytest.raises(TypeError):
            QuadratureGrid(*counts, 1.0)
    grid = QuadratureGrid(np.int64(8), np.int64(16), 1.0)
    assert type(grid.radial_count) is type(grid.angular_count) is int


def test_weights_sum_to_disk_area():
    for radius in (1.0, 0.35, 2.5):
        g = QuadratureGrid.build(32, 64, radius)
        assert abs(g.area_weights().sum() - math.pi * radius**2) \
            <= 1e-10 * max(1.0, radius**2)


def test_nodes_inside_open_disk():
    g = QuadratureGrid.build(16, 32, 0.8)
    r, w = g.radial_arrays()
    assert np.all(r > 0.0) and np.all(r < 0.8)
    assert np.all(w > 0.0)
    assert g.points().shape == (16 * 32,)
    assert g.area_weights().shape == (16 * 32,)


def test_cached_nodes_equal_leggauss_and_are_read_only():
    for count in (1, 2, 7, 64, 128, 512):
        xs, ws = _legendre_nodes(count)
        want_x, want_w = np.polynomial.legendre.leggauss(count)
        assert np.array_equal(xs, want_x) and np.array_equal(ws, want_w)
        assert _legendre_nodes(count)[0] is xs
        for array in (xs, ws):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
    # build scales the shared nodes without writing to them
    g = QuadratureGrid.build(64, 8, 2.0)
    r, w = g.radial_arrays()
    want_x, want_w = np.polynomial.legendre.leggauss(64)
    assert np.array_equal(r, 0.5 * 2.0 * (want_x + 1.0))
    assert np.array_equal(w, 0.5 * 2.0 * want_w)
    assert np.array_equal(_legendre_nodes(64)[0], want_x)


def test_doubled_and_describe():
    g = QuadratureGrid.build(16, 32, 1.0)
    d = g.doubled()
    assert (d.radial_count, d.angular_count) == (32, 64)
    assert g.describe() == {"radial": 16, "angular": 32, "radius": 1.0}


def test_integrate_matches_manual_sum():
    g = QuadratureGrid.build(8, 16, 1.0)
    vals = np.abs(g.points()) ** 2
    assert abs(g.integrate(vals) - (vals * g.area_weights()).sum()) <= 1e-15


def test_diagonal_moments_match_closed_form():
    for alpha in (1.0, 2.5):
        g = QuadratureGrid.build(64, 128, 1.0)
        for k in (0, 1, 2, 5, 10, 20, 40, 63):
            approx = grid_moment(g, k, k, alpha)
            closed = gaussian_moment(k, alpha, 1.0)
            assert abs(approx.imag) <= 1e-12 * closed
            assert abs(approx.real - closed) <= 1e-12 * closed


def test_diagonal_moments_other_radius():
    g = QuadratureGrid.build(64, 128, 1.7)
    for k in (0, 3, 12):
        approx = grid_moment(g, k, k, 0.8)
        closed = gaussian_moment(k, 0.8, 1.7)
        assert abs(approx.real - closed) <= 1e-12 * closed


def test_off_diagonal_moments_vanish():
    g = QuadratureGrid.build(32, 64, 1.0)
    scale = gaussian_moment(0, 1.0, 1.0)
    for k, l in ((1, 0), (2, 5), (7, 3), (0, 9)):
        assert abs(grid_moment(g, k, l, 1.0)) <= 1e-12 * scale


def test_doubling_stability_on_smooth_integrand():
    g = QuadratureGrid.build(64, 128, 1.0)
    a = grid_moment(g, 4, 4, 1.0).real
    b = grid_moment(g.doubled(), 4, 4, 1.0).real
    assert abs(a - b) <= 1e-12 * abs(b)
