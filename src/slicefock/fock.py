"""Gaussian-weighted norms, sup norms and inner products on slice disks.

Conventions.  For 0 < p < infinity the slice norm on C_I is

    ||f||_{p,I} = ( (a/pi)^n  integral_{B_I} |f(z) e^{-a|z|^2/2}|^p dA_I(z) )^{1/p}

with dA_I = dx dy / pi, the global norm is the supremum of the slice norms
over the sampled sphere of imaginary units, and for p = infinity

    ||f||_inf = sup |f(q)| e^{-a|q|^2/2}

over the sampled ball.  The inner product pairs f against the conjugate of g
with weight (a/pi)^n e^{-a|z|^2}.  Quadrature is polar Gauss-Legendre times
trapezoid (see quadrature.py) with automatic refinement: the grid is doubled
until successive values agree to 1e-8 relative or the 512 x 1024 cap, and a
residual disagreement above 1e-6, or a non-finite value, raises GridTooCoarse.

Suprema are discretized on Chebyshev radii times a uniform angle grid over
the sampled units, then the best radial cell of every unit is polished by
golden-section search.  One call takes a list of (f, units) jobs: it finds
the grid maxima job by job, then polishes the rows of every job together,
one row per unit, so the polish costs a few numpy calls per round however
many functions are batched.  A row's arithmetic does not depend on the
rows beside it.  The radial endpoints are grid nodes, so boundary maxima
are exact.  Quadrature and sup norms both work on f 2^-e, with the largest
coefficient component in [1/2, 1), and scale the result back by 2^e.

Evaluation on a slice uses f(x + yI) = A(z) + I B(z) (Colombo, Gentili,
Sabadini, Struppa, Adv. Math. 2009): with z = x + iy and z^k = u_k + i v_k,
A = sum u_k a_k and B = sum v_k a_k do not depend on I, and
|f|^2 = |A|^2 + |B|^2 + 2 <Im(A conj(B)), I>: one table of powers serves every
unit at one 3-vector dot product per point.  At p = 2 the integrand is linear
in |f|^2, so the sums over the points are taken before the units enter (the
same quadrature rule, summed in another order).  At p != 2 the units x points
array of |f|^p is built and summed in blocks of radial rows holding a few
thousand points each, so it stays cache-sized however fine the grid.  The
blocks are dealt round-robin to lanes, one per usable core: the calling
thread runs the first lane and helper threads, made on first use, run the
others, reading only the tables the calling thread built.  A block is numpy
work that releases the GIL, so the lanes run at once.  Each block's unit
sums are the same whichever lane makes them, and they are added in block
order, as a serial loop adds them, so every norm is the same bit for bit on
any number of cores.

Grid stages work in one buffer.  The sup search takes the root and the
radial weight in place in the units x points array of |f|^2, and s and v
are written through two scratch rows; both keep every term and its order,
so the values are those of the fresh-array expressions bit for bit, without
the page faults of a new multi-megabyte temporary per call.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GridTooCoarse, ViolationDetected
from .quadrature import (ANGULAR_CAP, RADIAL_CAP, QuadratureGrid)
from .quaternion import (_CONJ_SIGNS, ImaginaryUnit, Quaternion, UNIT_I,
                         _qmul, _rows, default_sphere, orthonormal_partner)
from .series import (ComplexSlicePolynomial, MultiMonomial, MultiPolynomial,
                     SliceSeries, derivative, dilate, split)

__all__ = [
    "FockParams",
    "NormReport",
    "NormEquivalenceReport",
    "MonomialBoundReport",
    "DerivativeCriterionReport",
    "LittleSpaceReport",
    "slice_norm_p",
    "fock_norm_p",
    "sup_norm",
    "slice_sup_norm",
    "inner_product",
    "norm_equivalence_check",
    "monomial_bound_check",
    "dilation_convergence",
    "derivative_criterion",
    "little_space_profile",
]

REFINE_TOL = 1e-8
COARSE_TOL = 1e-6
DEFAULT_RADIAL_SAMPLES = 129
DEFAULT_SUP_ANGULAR = 256
_GOLDEN_RATIO_CONJ = (math.sqrt(5.0) - 1.0) / 2.0
# grid points per block of the p != 2 quadrature sum: 67 units x 4096 points
# of float64 is 2.2 MB, which stays in cache.  With two lanes on 2 cores,
# 2048 and 4096 measured alike at the 512 x 1024 cap (158 ms a call) and
# 8192 took twice as long (320 ms).  The block size sets the grouping of the
# sums, so changing it moves the last bits of the norms.
_BLOCK_POINTS = 4096
# rows per golden polish call: a chunk's (rows, 2, K) powers and values stay
# small however many jobs one sup call batches (1024 and 2048 measured alike)
_POLISH_ROWS = 1024


@dataclass(frozen=True)
class FockParams:
    """Finite weight alpha > 0, exponent p, dimension n, finite ball radius."""

    alpha: float
    p: float = 2.0
    n: int = 1
    radius: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if not (self.p > 0.0 or self.p == math.inf):
            raise ValueError("p must be positive or infinity")
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if not 0.0 < self.radius < math.inf:
            raise ValueError("radius must be positive and finite")


@dataclass(frozen=True)
class NormReport:
    """A computed norm with its per-slice values and grid provenance."""

    value: float
    per_slice: tuple[tuple[ImaginaryUnit, float], ...]
    grid_spec: dict


@dataclass(frozen=True)
class NormEquivalenceReport:
    p: float
    sandwich_constant: float        # 2^p on p-th powers of slice norms
    pair_constant: float            # 2^{max(p,1)} on pairs of slices
    sup_value: float
    per_slice: tuple[tuple[ImaginaryUnit, float], ...]
    worst_lower: float              # max_I slice^p / sup^p, <= 1
    worst_upper: float              # max_I sup^p / slice^p, <= 2^p
    worst_pair: float               # max_{I,J} slice_J^p / slice_I^p
    passed: bool


@dataclass(frozen=True)
class MonomialBoundReport:
    lhs: float
    rhs: float
    constant: float
    vacuous: bool
    passed: bool


@dataclass(frozen=True)
class DerivativeCriterionReport:
    order: int
    sup_ratio: float
    component_sups: tuple[float, float]
    passed: bool


@dataclass(frozen=True)
class LittleSpaceReport:
    rhos: tuple[float, ...]
    values: tuple[float, ...]
    decreasing_tail: bool
    member: bool
    tolerance: float


# ---------------------------------------------------------------------------
# slice evaluation: f(x + yI) = A(z) + I B(z)
# ---------------------------------------------------------------------------

def _unit_rows(units) -> np.ndarray:
    """Units as rows (x, y, z), shape (M, 3)."""
    return np.array([[u.x, u.y, u.z] for u in units]).reshape(-1, 3)


def _terms_table(coeffs: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """cos(kt) and sin(kt) times components (w, x, y, z, x, y) of a_k, (2, 6, K, Nt).

    The shifted components (x, y) after (w, x, y, z) give the cross product.
    """
    angle = np.arange(coeffs.shape[0])[:, None] * theta
    return (np.stack([np.cos(angle), np.sin(angle)])[:, None]
            * coeffs.T[[0, 1, 2, 3, 1, 2], :, None])


def _slice_terms(table: np.ndarray,
                 radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s = |A|^2 + |B|^2, shape (N,), and v = Im(A conj(B)), shape (3, N).

    Points z = r_i e^{i t_j} run radius-major as in QuadratureGrid.points();
    with z^k = r^k (cos kt + i sin kt), A = sum_k r^k cos(kt) a_k and
    B = sum_k r^k sin(kt) a_k, and on C_I, |f(x + yI)|^2 = s + 2 <v, I>.

    s and v are written into their own arrays through two scratch rows,
    one component at a time: the terms and their order are those of
    (a[:4]**2).sum(0) + (b[:4]**2).sum(0) and
    b[0] a[1:4] - a[0] b[1:4] - (a[2:5] b[3:6] - a[3:6] b[2:5]), so the
    values are the same bit for bit without (3, N) or (4, N) temporaries.
    """
    a, b = (radii[:, None] ** np.arange(table.shape[2]) @ table).reshape(2, 6, -1)
    t1, t2 = np.empty(a.shape[1]), np.empty(a.shape[1])
    s = np.square(a[0])
    np.square(b[0], out=t2)
    for k in range(1, 4):
        s += np.square(a[k], out=t1)
        t2 += np.square(b[k], out=t1)
    s += t2
    v = np.empty((3, a.shape[1]))
    for c, row in enumerate(v, 1):
        np.multiply(b[0], a[c], out=row)
        row -= np.multiply(a[0], b[c], out=t1)
        np.multiply(a[c + 1], b[c + 2], out=t1)
        t1 -= np.multiply(a[c + 2], b[c + 1], out=t2)
        row -= t1
    return s, v


def _ray_coeffs(coeffs: np.ndarray, units, theta: np.ndarray) -> np.ndarray:
    """Coefficients of r -> f(r e^{I t}) = sum_k r^k (cos(kt) a_k + sin(kt) I a_k).

    theta holds T angles, shared or one row per unit; the result has shape
    (M, 4, K, T), so radii[:, None] ** k @ result gives f on each slice.
    """
    unit_q = np.hstack([np.zeros((len(units), 1)), _unit_rows(units)])[:, None]
    i_times = _qmul(unit_q, coeffs).transpose(0, 2, 1)                # I a_k
    angle = np.arange(coeffs.shape[0])[:, None] * np.atleast_2d(theta)[:, None, :]
    return (np.cos(angle)[:, None] * coeffs.T[:, :, None]
            + np.sin(angle)[:, None] * i_times[..., None])


def _abs_sq_evaluator(coeffs: np.ndarray, units, theta: np.ndarray):
    """radii -> |f|^2 on the polar grid of every slice C_I, (M, radii.size * Nt).

    The angle table is built here, once for every block of radial rows; the
    evaluator only reads it and makes its own arrays, so several threads
    may call it at once.  Many units share s and v; s + 2 <v, I> can land a
    few ulps below 0 at a zero of f, so it is clamped.  Under five units
    |A + I B|^2 is cheaper; it is squared in place, as a second temporary
    re-faults the heap each call.
    """
    if len(units) < 5:
        ks, table = np.arange(len(coeffs)), _ray_coeffs(coeffs, units, theta)

        def few(radii):
            vals = radii[:, None] ** ks @ table
            return np.square(vals, out=vals).sum(axis=1).reshape(len(units), -1)
        return few
    table, unit_rows = _terms_table(coeffs, theta), _unit_rows(units)

    def many(radii):
        s, v = _slice_terms(table, radii)
        out = unit_rows @ (2.0 * v)
        out += s
        return np.maximum(out, 0.0, out=out)
    return many


def _scaled_rows(f: SliceSeries) -> tuple[np.ndarray, int]:
    """Coefficient rows of f 2^-e, and e; undo with np.ldexp(|.|, e).

    |f| = 2^e |f 2^-e| exactly; with the largest coefficient component in
    [1/2, 1) the squares of tiny or huge coefficients stay representable.
    """
    coeffs = _rows(f.coeffs)
    exponent = math.frexp(float(np.abs(coeffs).max()))[1]
    return np.ldexp(coeffs, -exponent), exponent


def _abs_sq_rows(coeffs: np.ndarray, units, radii: np.ndarray,
                 theta: np.ndarray) -> np.ndarray:
    """|f|^2 on the polar grid of every slice C_I, shape (M, Nr * Nt)."""
    return _abs_sq_evaluator(coeffs, units, theta)(radii)


# ---------------------------------------------------------------------------
# lanes: one per usable core, for the blocks of the p != 2 quadrature sum
# ---------------------------------------------------------------------------

def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_POOL = None
_POOL_LOCK = threading.Lock()


def _lane_pool():
    """One helper thread per spare core, made on first use (never at import)."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            from concurrent.futures import ThreadPoolExecutor
            _POOL = ThreadPoolExecutor(max(1, _usable_cores() - 1),
                                       thread_name_prefix="slicefock-lane")
        return _POOL


def _forget_pool() -> None:
    # a forked child has none of the parent's threads: an inherited pool
    # would hang on its first task, and the lock may have been held
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):         # absent where there is no fork
    os.register_at_fork(after_in_child=_forget_pool)


def _in_lanes(fn, items) -> list:
    """[fn(x) for x in items], the items dealt round-robin to one lane per core.

    The calling thread runs lane 0 and pool helpers run the others, each
    under a copy of the caller's context, so numpy's error state (a
    contextvar) holds there too.  fn must only read shared arrays.  The
    results come back in item order, so what a caller makes of them does
    not depend on the number of lanes; a helper's exception reaches the
    caller once every lane has finished.
    """
    items = list(items)
    lanes = min(_usable_cores(), len(items))
    if lanes < 2:
        return [fn(x) for x in items]
    pool = _lane_pool()
    futures = [pool.submit(contextvars.copy_context().run,
                           lambda part: [fn(x) for x in part], items[lane::lanes])
               for lane in range(1, lanes)]
    try:
        parts = [[fn(x) for x in items[::lanes]]]
    finally:
        for future in futures:
            future.exception()                  # waits, never raises
    parts += [future.result() for future in futures]
    out = [None] * len(items)
    for lane, part in enumerate(parts):
        out[lane::lanes] = part
    return out


# ---------------------------------------------------------------------------
# p-norms by quadrature with automatic refinement
# ---------------------------------------------------------------------------

def _require_quadrature_params(params: FockParams) -> None:
    if params.p == math.inf:
        raise ValueError("p = infinity has no quadrature norm; use sup_norm")
    if params.n != 1:
        raise ValueError("quadrature norms are implemented for n = 1 only; "
                         "several variables are restricted to slice suprema")


def _grid_for(params: FockParams, grid: QuadratureGrid | None) -> QuadratureGrid:
    if grid is None:
        return QuadratureGrid.build(radius=params.radius)
    if abs(grid.radius - params.radius) > 1e-12:
        raise ValueError("grid radius does not match params.radius")
    return grid


def _slice_norms_on_grid(f: SliceSeries, units, params: FockParams,
                         grid: QuadratureGrid) -> np.ndarray:
    r, _ = grid.radial_arrays()
    (coeffs, exponent), theta = _scaled_rows(f), grid.angles()
    p = params.p
    w = (grid.area_weights().reshape(r.size, -1)
         * np.exp(-0.5 * params.alpha * p * r * r)[:, None]).ravel()
    if p == 2.0:
        # linear in |f|^2 = s + 2 <v, I>: reduce over the points first
        s, v = _slice_terms(_terms_table(coeffs, theta), r)
        sums = s @ w + 2.0 * (_unit_rows(units) @ (v @ w))
    else:
        # blocks of radial rows keep the units x points array cache-sized;
        # their unit sums are added in block order, whatever lane made them
        evaluate = _abs_sq_evaluator(coeffs, units, theta)
        rows, nt = max(1, _BLOCK_POINTS // theta.size), theta.size

        def block_sum(i):
            powered = evaluate(r[i:i + rows])
            return np.power(powered, p / 2.0, out=powered) @ w[i * nt:(i + rows) * nt]

        sums = np.zeros(len(units))
        for part in _in_lanes(block_sum, range(0, r.size, rows)):
            sums += part
    integrals = (params.alpha / math.pi) ** params.n / math.pi * sums
    # a norm that overflows is inf, which _refine refuses; numpy need not warn
    with np.errstate(over="ignore"):
        return np.ldexp(np.maximum(integrals, 0.0) ** (1.0 / p), exponent)


def _refine(compute, gap, grid, radial_cap, angular_cap):
    """Double the grid until gap(finer, coarser) <= 1e-8; see module docstring.

    Returns (values, grid, trace, refinements).  A start grid at the cap is
    accepted; a non-finite value never stabilizes and raises at once.
    """
    trace, coarser = [], None
    while True:
        values = compute(grid)
        trace.append((grid.describe(), [float(v) for v in values]))
        if not np.all(np.isfinite(values)):
            raise GridTooCoarse("a value is not finite on grid "
                                f"{grid.radial_count} x {grid.angular_count}", trace)
        at_cap = grid.radial_count >= radial_cap or grid.angular_count >= angular_cap
        rel = gap(values, coarser) if coarser is not None else 0.0 if at_cap else math.inf
        if rel <= REFINE_TOL or (at_cap and rel <= COARSE_TOL):
            return values, grid, trace, len(trace) - 1
        if at_cap:
            raise GridTooCoarse("grid refinements disagree beyond 1e-6 relative at the "
                                f"resolution cap {radial_cap} x {angular_cap}", trace)
        coarser, grid = values, grid.doubled()


def _refine_norms(f, units, params, grid, radial_cap, angular_cap):
    """Per-slice norms on the first grid that agrees with its coarser one."""
    return _refine(lambda g: _slice_norms_on_grid(f, units, params, g),
                   lambda finer, coarser: float(np.max(
                       np.abs(finer - coarser) / np.maximum(np.abs(finer), 1e-300))),
                   grid, radial_cap, angular_cap)


def slice_norm_p(f: SliceSeries, unit: ImaginaryUnit, params: FockParams,
                 grid: QuadratureGrid | None = None, *,
                 radial_cap: int = RADIAL_CAP,
                 angular_cap: int = ANGULAR_CAP) -> float:
    """p-norm of f restricted to the slice C_I, 0 < p < infinity."""
    _require_quadrature_params(params)
    g = _grid_for(params, grid)
    values, _, _, _ = _refine_norms(f, [unit], params, g, radial_cap, angular_cap)
    return float(values[0])


def fock_norm_p(f: SliceSeries, params: FockParams,
                grid: QuadratureGrid | None = None, sphere=None, *,
                radial_cap: int = RADIAL_CAP,
                angular_cap: int = ANGULAR_CAP) -> NormReport:
    """Supremum of the slice p-norms over the sampled sphere of units."""
    _require_quadrature_params(params)
    g = _grid_for(params, grid)
    units = list(sphere) if sphere is not None else default_sphere()
    values, final_grid, _, refinements = _refine_norms(
        f, units, params, g, radial_cap, angular_cap)
    per_slice = tuple((u, float(v)) for u, v in zip(units, values))
    spec = final_grid.describe()
    spec.update({"rule": "gauss-legendre x trapezoid", "refinements": refinements,
                 "sphere": len(units)})
    return NormReport(float(values.max()), per_slice, spec)


def inner_product(f: SliceSeries, g: SliceSeries, unit: ImaginaryUnit,
                  params: FockParams, grid: QuadratureGrid | None = None, *,
                  radial_cap: int = RADIAL_CAP,
                  angular_cap: int = ANGULAR_CAP) -> Quaternion:
    """Quaternion-valued pairing integral_{B_I} f(z) conj(g(z)) dlambda_I(z).

    The weight is (a/pi)^n e^{-a|z|^2} dA_I.  Linear in f; conjugate-linear
    in g only for slice-valued g, which tests keep visible.
    """
    _require_quadrature_params(FockParams(params.alpha, 2.0, params.n, params.radius))
    quad = _grid_for(params, grid)
    coeff_f, coeff_g = _rows(f.coeffs), _rows(g.coeffs)
    prefactor = (params.alpha / math.pi) ** params.n / math.pi

    def compute(quad_grid):
        """The pairing's components, then the Cauchy-Schwarz bound as floor."""
        r, _ = quad_grid.radial_arrays()
        fv, gv = ((r[:, None] ** np.arange(len(c))
                   @ _ray_coeffs(c, [unit], quad_grid.angles())).reshape(4, -1)
                  for c in (coeff_f, coeff_g))
        # kept row-major (4, N): BLAS rounds the transposed product differently
        prod = np.ascontiguousarray(_qmul(fv.T, gv.T * _CONJ_SIGNS).T)
        weight = (quad_grid.area_weights().reshape(r.size, -1)
                  * np.exp(-params.alpha * r * r)[:, None]).ravel()
        bound = math.sqrt(float((fv * fv).sum(axis=0) @ weight)
                          * float((gv * gv).sum(axis=0) @ weight))
        return prefactor * np.append(prod @ weight, bound)

    def gap(finer, coarser):
        delta = float(np.linalg.norm(finer[:4] - coarser[:4]))
        return delta / max(float(np.linalg.norm(finer[:4])), finer[4], 1e-300)

    values, _, _, _ = _refine(compute, gap, quad, radial_cap, angular_cap)
    return Quaternion(*(float(c) for c in values[:4]))


# ---------------------------------------------------------------------------
# weighted suprema
# ---------------------------------------------------------------------------

def _chebyshev_radii(count: int, radius: float) -> np.ndarray:
    if count < 3:
        raise ValueError("need at least 3 radial samples")
    i = np.arange(count)
    return 0.5 * radius * (1.0 - np.cos(math.pi * i / (count - 1)))


def _golden_max(fn, lo: float, hi: float, iters: int = 48) -> float:
    """Maximum of a unimodal fn on [lo, hi]; endpoints are always checked."""
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


# interval ends (a, b) -> (a, c, d, b) with c = b - g (b - a), d = a + g (b - a)
_GOLDEN_SPLIT = np.array([[1.0, _GOLDEN_RATIO_CONJ, 1.0 - _GOLDEN_RATIO_CONJ, 0.0],
                          [0.0, 1.0 - _GOLDEN_RATIO_CONJ, _GOLDEN_RATIO_CONJ, 1.0]])


def _golden_max_rows(fn, lo: np.ndarray, hi: np.ndarray, iters: int = 48) -> np.ndarray:
    """_golden_max for every row at once; fn maps (M, 2) abscissae to values.

    A round evaluates both interior points of every row in one call, so it
    costs a few numpy calls however many rows there are.  The cuts are
    formed elementwise, not as a BLAS product: BLAS rounds a lone row (gemv)
    and a stack of rows (gemm, fused multiply-add) differently, and a row
    must come out the same in every batch.
    """
    ends = np.stack([lo, hi], axis=1)
    best = fn(ends).max(axis=1)
    for _ in range(iters):
        cuts = ends[:, :1] * _GOLDEN_SPLIT[0] + ends[:, 1:] * _GOLDEN_SPLIT[1]
        vals = fn(cuts[:, 1:3])
        np.maximum(best, vals.max(axis=1), out=best)
        ends = np.where((vals[:, 0] >= vals[:, 1])[:, None],
                        cuts[:, 0::2], cuts[:, 1::2])
    return best


class _GridMaxima(NamedTuple):
    """One job's grid stage: its rows, one per unit, ready for the polish."""

    coeffs: np.ndarray          # f 2^-exponent as rows (K, 4)
    units: list                 # sliced per chunk by the polish
    angles: np.ndarray          # angle of each unit's best ray, (M,)
    brackets: np.ndarray        # radial cell around each maximum, (M, 2)
    grid_max: np.ndarray
    points: np.ndarray          # complex grid argmax of each unit
    exponent: int


def _sup_grid_stage(f: SliceSeries, units, radii: np.ndarray, theta: np.ndarray,
                    weight: np.ndarray) -> _GridMaxima:
    """Maxima of one job on the polar grid of every unit.

    The root and the radial weight are taken in place in the units x points
    array of |f|^2, which is released on return, before the next job's is
    built.
    """
    coeffs, exponent = _scaled_rows(f)
    vals = _abs_sq_rows(coeffs, units, radii, theta)
    np.sqrt(vals, out=vals)
    cells = vals.reshape(len(units), radii.size, theta.size)   # a view
    cells *= weight[:, None]
    flat = vals.argmax(axis=1)
    ri, ti = np.divmod(flat, theta.size)
    return _GridMaxima(coeffs, units, theta[ti],
                       np.stack([radii[np.maximum(ri - 1, 0)],
                                 radii[np.minimum(ri + 1, radii.size - 1)]], axis=1),
                       vals[np.arange(flat.size), flat],
                       radii[ri] * np.exp(1j * theta[ti]), exponent)


def _row_chunks(sizes, limit: int):
    """Cut the rows of consecutive jobs into chunks of at most limit rows.

    sizes holds (job, rows) pairs; yields lists of (job, slice of its rows).
    """
    chunk, room = [], limit
    for job, rows in sizes:
        start = 0
        while start < rows:
            stop = min(rows, start + room)
            chunk.append((job, slice(start, stop)))
            room -= stop - start
            start = stop
            if not room:
                yield chunk
                chunk, room = [], limit
    if chunk:
        yield chunk


def _polish(pieces, alpha: float, weight_order: int) -> np.ndarray:
    """Golden-section max of the weight times |f| along the best ray of each row.

    pieces holds (grid maxima of a job, slice of its rows); the rays'
    coefficients are built here, so that only one chunk's are ever held.
    """
    ray = np.concatenate([_ray_coeffs(stage.coeffs, stage.units[rows],
                                      stage.angles[rows, None])[..., 0]
                          for stage, rows in pieces]).transpose(0, 2, 1)
    brackets = np.concatenate([stage.brackets[rows] for stage, rows in pieces])
    ks = np.arange(ray.shape[1])

    def weighted_sq(r):
        vec = r[..., None] ** ks @ ray              # f on the ray, (M, 2, 4)
        out = (vec * vec).sum(axis=-1) * np.exp(-alpha * r * r)
        return out / (1.0 + r) ** (2 * weight_order) if weight_order else out

    return np.sqrt(_golden_max_rows(weighted_sq, brackets[:, 0], brackets[:, 1]))


def _sup_over_rows(jobs, alpha: float, radius: float, radial_samples: int,
                   angular_count: int, weight_order: int = 0):
    """Weighted sup of |f|(z) e^{-a|z|^2/2} / (1+|z|)^t on each slice C_I.

    jobs is a list of (f, units); returns one (sups, argmax points) per job,
    with one complex grid argmax per unit.  Chebyshev radii (hitting 0 and R
    exactly) times a uniform angle grid locate each maximum, one job at a
    time (see _sup_grid_stage).  The radial cells around the maxima of all
    jobs are then polished together by golden-section search along the best
    rays, one row per unit, grouped by coefficient count K and in chunks of
    at most _POLISH_ROWS rows.  A row's arithmetic does not depend on the
    other rows, so a batch gives what one call per job gives, bit for bit.
    """
    radii = _chebyshev_radii(radial_samples, radius)
    theta = 2.0 * np.pi * np.arange(angular_count) / angular_count
    weight = np.exp(-0.5 * alpha * radii ** 2) / (1.0 + radii) ** weight_order
    stages = [_sup_grid_stage(f, units, radii, theta, weight) for f, units in jobs]
    groups = defaultdict(list)
    for j, stage in enumerate(stages):
        groups[len(stage.coeffs)].append((j, len(stage.units)))
    refined = [None] * len(stages)
    for sizes in groups.values():
        polished = np.concatenate([
            _polish([(stages[j], rows) for j, rows in chunk], alpha, weight_order)
            for chunk in _row_chunks(sizes, _POLISH_ROWS)])
        for j, rows in sizes:
            refined[j], polished = polished[:rows], polished[rows:]
    results = []
    for stage, best in zip(stages, refined):
        # a sup that overflows is inf, which callers refuse; numpy need not warn
        with np.errstate(over="ignore"):
            sups = np.ldexp(np.maximum(best, stage.grid_max), stage.exponent)
        results.append((sups, stage.points))
    return results


def sup_norm(f: SliceSeries, params: FockParams, sphere=None,
             radial_samples: int = DEFAULT_RADIAL_SAMPLES, *,
             angular_count: int = DEFAULT_SUP_ANGULAR) -> NormReport:
    """sup of |f(q)| e^{-a|q|^2/2} over the sampled ball of radius R."""
    units = list(sphere) if sphere is not None else default_sphere()
    [(sups, _)] = _sup_over_rows([(f, units)], params.alpha, params.radius,
                                 radial_samples, angular_count)
    per_slice = tuple((u, float(v)) for u, v in zip(units, sups))
    spec = {"rule": "chebyshev x trapezoid + golden", "radial": radial_samples,
            "angular": angular_count, "radius": params.radius,
            "sphere": len(units)}
    return NormReport(float(sups.max()), per_slice, spec)


def slice_sup_norm(f: SliceSeries, unit: ImaginaryUnit, params: FockParams,
                   radial_samples: int = DEFAULT_RADIAL_SAMPLES, *,
                   angular_count: int = DEFAULT_SUP_ANGULAR) -> float:
    """sup of |f(z)| e^{-a|z|^2/2} over the single slice disk B_I."""
    [(sups, _)] = _sup_over_rows([(f, [unit])], params.alpha, params.radius,
                                 radial_samples, angular_count)
    return float(sups[0])


# ---------------------------------------------------------------------------
# certified inequalities and profiles
# ---------------------------------------------------------------------------

def norm_equivalence_check(f: SliceSeries, params: FockParams,
                           grid: QuadratureGrid | None = None, sphere=None, *,
                           slack: float = 1e-9) -> NormEquivalenceReport:
    """Certify the slice-norm sandwich and the pairwise slice bound.

    For 1 < p < infinity and every sampled I, J:

        ||f||_{p,I}^p <= ||f||_p^p <= 2^p ||f||_{p,I}^p
        ||f||_{p,J}^p <= 2^{max(p,1)} ||f||_{p,I}^p

    Ratios are measured with the given slack; any violation raises
    ViolationDetected because it signals a bug, never expected behaviour.
    """
    if not (1.0 < params.p < math.inf):
        raise ValueError("the sandwich constants require 1 < p < infinity; "
                         f"got p = {params.p!r}")
    report = fock_norm_p(f, params, grid, sphere)
    units = [u for u, _ in report.per_slice]
    values = np.array([v for _, v in report.per_slice])
    p = params.p
    sandwich_c = 2.0 ** p
    pair_c = 2.0 ** max(p, 1.0)
    powered = values ** p
    sup_pow = float(powered.max())
    if sup_pow < 1e-300:
        # the zero function satisfies everything with ratio 1
        per = tuple((u, float(v)) for u, v in zip(units, values))
        return NormEquivalenceReport(p, sandwich_c, pair_c, report.value, per,
                                     1.0, 1.0, 1.0, True)
    lower = powered / sup_pow
    upper = sup_pow / powered
    worst_lower = float(lower.max())
    worst_upper = float(upper.max())
    pair_matrix = powered[None, :] / powered[:, None]
    worst_pair = float(pair_matrix.max())
    if worst_lower > 1.0 + slack or worst_upper > sandwich_c + slack:
        bad = int(np.argmax(upper))
        raise ViolationDetected(
            f"slice sandwich failed: ratio {worst_upper!r} exceeds {sandwich_c!r}",
            unit_i=units[bad], unit_j=None, ratio=worst_upper)
    if worst_pair > pair_c + slack:
        bad_j, bad_i = np.unravel_index(int(np.argmax(pair_matrix)),
                                        pair_matrix.shape)
        raise ViolationDetected(
            f"pairwise slice bound failed: ratio {worst_pair!r} exceeds {pair_c!r}",
            unit_i=units[bad_i], unit_j=units[bad_j], ratio=worst_pair)
    return NormEquivalenceReport(p, sandwich_c, pair_c, report.value,
                                 report.per_slice, worst_lower, worst_upper,
                                 worst_pair, True)


def _monomial_sup(mono: MultiMonomial, alpha: float, radius: float) -> float:
    """sup over the ball of |z^m a_m| e^{-a|z|^2/2} by radial reduction.

    |z^m| depends only on the moduli r_k, and for a fixed total radius s the
    product prod r_k^{m_k} is maximized at r_k^2 = s^2 m_k / |m|, so the sup
    reduces to one unimodal function of s on [0, R].
    """
    m = mono.multi_index
    total = sum(m)
    a = mono.coeff.modulus()
    if total == 0:
        return a * 1.0  # weight at s = 0
    direction = 1.0
    for mk in m:
        if mk > 0:
            direction *= (mk / total) ** (mk / 2.0)

    def g(s):
        return a * direction * s ** total * math.exp(-0.5 * alpha * s * s)

    return _golden_max(g, 0.0, radius, iters=64)


def _multi_slice_sup(poly: MultiPolynomial, unit: ImaginaryUnit, alpha: float,
                     radius: float, samples: int = 4096) -> float:
    """Sampled sup of |f| e^{-a|z|^2/2} over B_I^n for a multi-polynomial.

    Deterministic Kronecker sampling of radii and angles plus a golden
    polish along the best ray; a sampled lower bound of the true sup.
    """
    n = poly.n
    dims = 2 * n + 1
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    gammas = np.array([math.sqrt(primes[d % len(primes)] + d // len(primes))
                       for d in range(dims)])
    gammas = gammas - np.floor(gammas)
    idx = np.arange(1, samples + 1)[:, None]
    u = (idx * gammas[None, :]) % 1.0
    scale = np.sqrt(u[:, 0])                      # overall radius fraction
    weights = u[:, 1:n + 1] + 1e-9
    weights = weights / weights.sum(axis=1, keepdims=True)
    r = radius * scale[:, None] * np.sqrt(weights)   # (S, n), sum r^2 <= R^2
    theta = 2.0 * np.pi * u[:, n + 1:2 * n + 1]
    zs = r * np.exp(1j * theta)                      # (S, n)

    iq = unit.as_quaternion()
    comps = np.zeros((samples, 4))
    for mono in poly.monomials:
        prod = np.ones(samples, dtype=complex)
        for k, mk in enumerate(mono.multi_index):
            if mk:
                prod = prod * zs[:, k] ** mk
        a = mono.coeff
        ia = iq * a
        av = np.array([a.w, a.x, a.y, a.z])
        iav = np.array([ia.w, ia.x, ia.y, ia.z])
        comps += prod.real[:, None] * av[None, :] + prod.imag[:, None] * iav[None, :]
    mags = np.sqrt((comps ** 2).sum(axis=1))
    rsq = (r ** 2).sum(axis=1)
    vals = mags * np.exp(-0.5 * alpha * rsq)
    best = int(np.argmax(vals))

    ray = zs[best]
    ray_scale = math.sqrt(float(rsq[best]))
    if ray_scale == 0.0:
        return float(vals[best])
    ray_dir = ray / ray_scale

    def along(s):
        pt = ray_dir * s
        val = poly.slice_eval(list(pt), unit)
        return val.modulus() * math.exp(-0.5 * alpha * s * s)

    return max(float(vals[best]), _golden_max(along, 0.0, radius, iters=64))


def monomial_bound_check(mono: MultiMonomial, f, params: FockParams,
                         unit: ImaginaryUnit, *,
                         radial_samples: int = DEFAULT_RADIAL_SAMPLES,
                         slack: float = 1e-9) -> MonomialBoundReport:
    """Check ||z^m a_m||_inf <= 2^{max(p,1)} prod_k sqrt(m_k/2) * slice sup of f.

    Terms with any m_k = 0 make the right-hand side vanish and the bound
    says nothing; they are reported as vacuous and skipped.
    """
    constant = 2.0 ** max(params.p, 1.0)
    if min(mono.multi_index) == 0:
        return MonomialBoundReport(0.0, 0.0, constant, True, True)
    product = 1.0
    for mk in mono.multi_index:
        product *= math.sqrt(mk / 2.0)
    lhs = _monomial_sup(mono, params.alpha, params.radius)
    if isinstance(f, SliceSeries):
        slice_sup = slice_sup_norm(f, unit, params, radial_samples)
    else:
        slice_sup = _multi_slice_sup(f, unit, params.alpha, params.radius)
    rhs = constant * product * slice_sup
    passed = lhs <= rhs + slack * max(1.0, rhs)
    return MonomialBoundReport(float(lhs), float(rhs), constant, False, passed)


def dilation_convergence(f: SliceSeries, params: FockParams, r_list,
                         sphere=None,
                         radial_samples: int = DEFAULT_RADIAL_SAMPLES, *,
                         angular_count: int = DEFAULT_SUP_ANGULAR) -> list[float]:
    """Values ||f_r - f||_inf for each dilation factor in r_list.

    r_list must be strictly increasing inside (0, 1); for a polynomial the
    values decrease to 0 as r -> 1.
    """
    units = list(sphere) if sphere is not None else default_sphere()
    return _dilation_values([f], params, r_list, units, radial_samples,
                            angular_count)[0]


def _dilation_values(fs, params: FockParams, r_list, units, radial_samples: int,
                     angular_count: int) -> list[list[float]]:
    """dilation_convergence for each f in fs, with one sup call for all of them."""
    rs = [float(r) for r in r_list]
    if any(not 0.0 < r < 1.0 for r in rs) or any(b <= a for a, b in zip(rs, rs[1:])):
        raise ValueError("r_list must be strictly increasing inside (0, 1)")
    jobs = [(SliceSeries(tuple(a - b for a, b in zip(dilate(f, r).coeffs, f.coeffs)),
                         f.nominal_radius), units) for f in fs for r in rs]
    results = _sup_over_rows(jobs, params.alpha, params.radius, radial_samples,
                             angular_count)
    sups = [float(s.max()) for s, _ in results]
    return [sups[i * len(rs):(i + 1) * len(rs)] for i in range(len(fs))]


def derivative_criterion(f: SliceSeries, order: int, params: FockParams,
                         sphere=None,
                         radial_samples: int = DEFAULT_RADIAL_SAMPLES, *,
                         angular_count: int = DEFAULT_SUP_ANGULAR,
                         slack: float = 1e-9) -> DerivativeCriterionReport:
    """Weighted sup of the t-th slice derivative against its split components.

    Computes  sup |d^t f(q)| e^{-a|q|^2/2} / (1+|q|)^t  over the sampled ball
    and the matching suprema of the two split components on C_i, then checks

        sup(f) <= sup(f_1) + sup(f_2) + slack.

    The argmax of the left side (and its conjugate) is re-evaluated on the
    component side so discretization cannot break the comparison.
    """
    units = list(sphere) if sphere is not None else default_sphere()
    return _derivative_reports([f], order, params, units, radial_samples,
                               angular_count, slack)[0]


def _derivative_reports(fs, order: int, params: FockParams, units,
                        radial_samples: int, angular_count: int,
                        slack: float) -> list[DerivativeCriterionReport]:
    """derivative_criterion for each f in fs, with one sup call for all of them.

    The call polishes d^t f on every unit and its two split parts on i.
    """
    ders = [derivative(f, order) for f in fs]
    parts = [split(der, UNIT_I, orthonormal_partner(UNIT_I)) for der in ders]
    jobs = []
    for der, (f1, f2) in zip(ders, parts):
        jobs += [(der, units), (f1.embed(), [UNIT_I]), (f2.embed(), [UNIT_I])]
    results = _sup_over_rows(jobs, params.alpha, params.radius, radial_samples,
                             angular_count, weight_order=order)

    def ratio_at(poly: ComplexSlicePolynomial, z: complex) -> float:
        mag = abs(poly.eval(z))
        return mag * math.exp(-0.5 * params.alpha * abs(z) ** 2) \
            / (1.0 + abs(z)) ** order

    reports = []
    for i, (f1, f2) in enumerate(parts):
        (sups, points), (sups1, _), (sups2, _) = results[3 * i:3 * i + 3]
        best_row = int(np.argmax(sups))
        sup_f = float(sups[best_row])
        zstar = complex(points[best_row])
        s1 = max(float(sups1[0]), ratio_at(f1, zstar), ratio_at(f1, zstar.conjugate()))
        s2 = max(float(sups2[0]), ratio_at(f2, zstar), ratio_at(f2, zstar.conjugate()))
        reports.append(DerivativeCriterionReport(order, sup_f, (s1, s2),
                                                 sup_f <= s1 + s2 + slack))
    return reports


def little_space_profile(f: SliceSeries, params: FockParams, rho_list,
                         sphere=None, *,
                         angular_count: int = DEFAULT_SUP_ANGULAR,
                         tolerance: float = 1e-3) -> LittleSpaceReport:
    """Boundary decay profile M(rho) = max_{|q| = rho} |f(q)| e^{-a rho^2/2}.

    rho_list must increase inside (0, R].  A non-increasing tail over the
    last three entries that also drops below the tolerance is reported as
    membership in the vanishing-at-the-boundary subspace.
    """
    rhos = [float(r) for r in rho_list]
    if any(not 0.0 < r <= params.radius for r in rhos) \
            or any(b <= a for a, b in zip(rhos, rhos[1:])):
        raise ValueError("rho_list must be strictly increasing inside (0, R]")
    units = list(sphere) if sphere is not None else default_sphere()
    theta = 2.0 * np.pi * np.arange(angular_count) / angular_count
    coeffs, exponent = _scaled_rows(f)
    absq = _abs_sq_rows(coeffs, units, np.array(rhos), theta)
    peaks = np.sqrt(absq.reshape(len(units), len(rhos), angular_count).max(axis=(0, 2)))
    # an M that overflows is inf, which callers refuse; numpy need not warn
    with np.errstate(over="ignore"):
        values = [float(np.ldexp(m * math.exp(-0.5 * params.alpha * rho * rho),
                                 exponent)) for m, rho in zip(peaks, rhos)]
    tail = values[-3:] if len(values) >= 3 else values
    decreasing = all(b <= a + 1e-15 for a, b in zip(tail, tail[1:]))
    member = decreasing and values[-1] <= tolerance
    return LittleSpaceReport(tuple(rhos), tuple(values), decreasing, member,
                             tolerance)
