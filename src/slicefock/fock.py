"""Gaussian-weighted norms, sup norms and inner products on slice disks.

Conventions.  For 0 < p < infinity the slice norm on C_I is

    ||f||_{p,I} = ( (a/pi)  integral_{B_I} |f(z) e^{-a|z|^2/2}|^p dA_I(z) )^{1/p}

with dA_I = dx dy / pi.  This is the paper's (a/pi)^n at n = 1: the norms
are of one-variable series, and a function's dimension is its own
(MultiPolynomial.n), not a setting of the norm.  The global norm is the
supremum of the slice norms over the sampled sphere of imaginary units,
and for p = infinity

    ||f||_inf = sup |f(q)| e^{-a|q|^2/2}

over the ball.  The inner product is the left pairing <f, g> = integral
conj(g) f with weight (a/pi) e^{-a|z|^2}, that of the slice Fock space.  At
p = 2 the norm and the inner product are closed forms in the moments m_k
below, and no grid is built; _norms is the one place that picks the closed
form for a norm.  The quadrature rule itself, polar Gauss-Legendre times
trapezoid (see quadrature.py), takes any finite p, p = 2 included; the norms
use it at p != 2 with automatic refinement: from the library's 64 x 128
start grid (no norm takes a grid), the grid is doubled until successive
values agree to 1e-8 relative or the 512 x 1024 cap, and a residual
disagreement above 1e-6, or a non-finite value, raises GridTooCoarse.  Every
value is compared with a coarser grid's: one grid alone certifies nothing.

p = 2.  On C_I write f(z) = sum z^k a_k, g(z) = sum z^k b_k and
z = r e^{I t}.  Then conj(g(z)) f(z) = sum_{k,l} conj(b_l) conj(z)^l z^k a_k,
and conj(z)^l z^k = r^{k+l} e^{I(k-l)t} is a C_I scalar whose angular
integral is 0 unless k = l.  Hence, with the weight above,

    ||f||_{2,I}^2 = sum_k |a_k|^2 m_k,
    <f, g> = sum_k conj(b_k) a_k m_k,
    m_k = (a/pi^2) integral_{|z| < R} |z|^{2k} e^{-a|z|^2} dx dy
        = (2a/pi) integral_0^R r^{2k+1} e^{-a r^2} dr = k! P(k + 1, x) / (pi a^k),

with x = a R^2 and P the regularized lower incomplete gamma function.  The
norm and the pairing are the same on every slice; the pairing is
right-linear in f, <f c, g> = <f, g> c, and conjugate-linear in g,
<f, g c> = conj(c) <f, g>, for every quaternion c.  (Zhu, Analysis on Fock
Spaces, 2012, ch. 2, for the complex case; Alpay, Colombo, Sabadini,
Salomon 2014 for the slice case.)  _log_moments takes log m_k in two
regimes.  Where k + 1 > x, P = e^{-x} x^{k+1}/k! S_k with
S_{k-1} = (x S_k + 1)/k, run downward from S = 0 at index count + 2x + 60
(above 2x each step damps the start's error by x/k < 1/2), and only where
x < count, so it takes fewer than 3 count + 60 steps; then
m_k = e^{-x} a R^{2k+2} S_k / pi.  Where k + 1 <= x,
P = 1 - e^{-x} x^k/k! U_k with U_k = 1 + k U_{k-1}/x from U_0 = 1, and the
subtracted tail is at most about 1/2.  Each recurrence runs the way its
factor x/k or k/x is at most 1, so rounding does not grow; a single downward
recurrence would underflow e^{-x} beyond x = 745, and a Poisson tail
normalized by k! would overflow near k = 170.  _pairing splits every term
m_k conj(b_k) a_k into mantissas and powers of two, so a norm or pairing
within the float range is finite even where a moment or a square alone is
not, and one beyond it is inf, never NaN.

Suprema.  On C_I, |f(x + yI)|^2 = s + 2 <v, I> with s and v independent of I
(below), so max_I |f|^2 = s + 2|v| exactly: the ball sup is exact over the
units, and only the disk is sampled.  So every sup, the ball's as well as
a slice's, is a sampled lower bound over the disk.  Both are discretized on
Chebyshev radii times a uniform angle grid, SUP_RADIAL x SUP_ANGULAR in the
public sup functions (not a parameter: the sup is one number per f, a and
R), then the best radial cell of every row is polished along its best ray.  There the
weighted square F = W |f|^2, W = e^{-a r^2} / (1+r)^{2t}, has the
derivative F' = W (P' + P (log W)') with P = |f|^2 on a unit row and
s + 2|v| on the ball row, and P' comes from the same power tables (r^k and
k r^{k-1}); Illinois regula falsi on F' closes the cell around the root to
1e-10 of its width in a few rounds, and halves it while F' is 0 at an end
(r = 0 where f(0) = 0, or where the weight underflows).  One call takes a
list of jobs (f, units, ball): it finds the grid maxima job by job, then
polishes the rows of every job together, in chunks of whole row sets (a
job's unit rows, or its ball row) that run one secant loop each, whatever
mix of coefficient counts and row kinds they hold.  A chunk is closed once
it holds _POLISH_ROWS rows.  A round then costs one product per
coefficient count and kind in the chunk plus a few shared numpy calls,
however many functions are batched.  A row's arithmetic does not depend
on the rows beside it.  The radial endpoints are grid nodes, so boundary
maxima are exact.
Quadrature and sup norms both work on f 2^-e, with the largest coefficient
component in [1/2, 1), and scale the result back by 2^e.

The per-unit grid stage is pruned by the ball row.  No unit's weighted |f|
at a point exceeds the bound w sqrt(s + 2|v|) there, beyond rounding.  Every
unit is evaluated on the 64 points of largest bound; the least of the
units' maxima there is a floor under every unit's grid max, so only the
aligned blocks of 16 points that hold a bound above the floor are evaluated,
in the full array's terms and order, and each unit's grid max and argmax are
those of the full units x points array bit for bit.

Evaluation on a slice uses f(x + yI) = A(z) + I B(z) (Colombo, Gentili,
Sabadini, Struppa, Adv. Math. 2009): with z = x + iy and z^k = u_k + i v_k,
A = sum u_k a_k and B = sum v_k a_k do not depend on I, and
|f|^2 = |A|^2 + |B|^2 + 2 <Im(A conj(B)), I>: one table of powers serves every
unit at one 3-vector dot product per point.  One kernel, _unit_abs_sq, forms
that s + 2 <v, I> for the p != 2 blocks and the sup search alike: the units x
points product in column blocks that each stay on the calling thread, then
the separate + s.  s >= 2|v| exactly, so rounding can push a value below 0
only where the two nearly cancel, at a zero of f; the clamp at 0 is taken
only on the columns where s does not exceed 2|v| by a slack derived from
the rounding (a handful of columns, usually none), and the values are those
of a clamp of every column bit for bit.  At p != 2 the units x points
array of |f|^p is built and summed in blocks of radial rows holding a few
thousand points each, so it stays cache-sized however fine the grid.  |f|^p
is taken in place as exp((p/2) log |f|^2), which is cheaper than a general
power; log 0 = -inf and exp(-inf) = 0, so a zero of f needs no case of its
own.  The blocks run on lanes, one per usable core: the calling thread runs
one lane and helper threads, made on first use, run the others, reading
only the tables the calling thread built.  A helper thread that cannot
start is no lane, and the lanes that run take its blocks.  Each lane takes
the next block from a shared counter, so no lane idles while another has
blocks queued.  A block is numpy work that releases the GIL, so the lanes
run at once.  Each
block's unit sums are the same whichever lane makes them, and they are added
in block order, as a serial loop adds them, so every norm is the same bit
for bit on any number of cores.

Grid stages work in place.  s and v are written through two scratch rows,
and under _FEW_UNITS units the sup search takes the root and the radial
weight in place in the units x points array of |f|^2; both keep every term
and its order, so the values are those of the fresh-array expressions bit
for bit, without the page faults of a new multi-megabyte temporary per call.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import os
import threading
from dataclasses import dataclass
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .errors import GridTooCoarse, _require_positive_finite
from .quadrature import ANGULAR_CAP, RADIAL_CAP, QuadratureGrid
from .quaternion import (_CONJ_SIGNS, ImaginaryUnit, Quaternion, UNIT_I,
                         _imaginary_rows, _qmul, _unit_rows,
                         default_sphere, orthonormal_partner)
from .series import (ComplexSlicePolynomial, MultiMonomial,
                     SliceSeries, derivative, dilate, split)

__all__ = [
    "FockParams",
    "NormReport",
    "DerivativeCriterionReport",
    "LittleSpaceReport",
    "slice_norm_p",
    "fock_norm_p",
    "sup_norm",
    "slice_sup_norm",
    "inner_product",
    "dilation_convergence",
    "derivative_criterion",
    "little_space_profile",
]

REFINE_TOL = 1e-8
COARSE_TOL = 1e-6
# the sup search's grid: Chebyshev radii times uniform angles; the public sup
# functions read these at each call
SUP_RADIAL = 129
SUP_ANGULAR = 256
# the sup polish: a row stops once its bracket is this fraction of its radial
# cell, and a chunk after at most _POLISH_ROUNDS secant rounds, room for the
# 34 halvings a bisection takes down to that bracket (2^-34 = 5.8e-11);
# verify's chunks stop after 8 rounds at most (seeds 0-39)
_POLISH_TOL = 1e-10
_POLISH_ROUNDS = 48
SLACK = 1e-9                   # rounding allowance of derivative_criterion's test
# grid points per block of the p != 2 quadrature sum: 67 units x 4096 points
# of float64 is 2.2 MB, which stays in cache.  With two lanes on 2 vCPU, a
# 67-unit call at the 512 x 1024 cap took 136 ms at 4096 and 131 ms at 2048
# (medians of 8), 209 ms at 1024 and 342 ms at 8192.  The block size sets
# the grouping of the sums, so changing it moves the last bits of the norms.
_BLOCK_POINTS = 4096
# rows after which a polish chunk is closed: a chunk's (rows, 2, K) powers
# and values stay small however many jobs one sup call batches (1024 and
# 2048 measured alike).  A chunk holds fewer rows than this plus one set's,
# and a set has no more rows than its job has units, whose units x points
# array the grid stage already held.
_POLISH_ROWS = 1024
# the per-unit grid stage first evaluates every unit on this many points of
# largest bound w sqrt(s + 2|v|), then on whole blocks of _PRUNE_BLOCK
# consecutive points (see _pruned_unit_maxima)
_TOP_POINTS = 64
_PRUNE_BLOCK = 16
# m n k of the largest units x points product _unit_abs_sq forms at once, for
# the p != 2 blocks and the sup search alike: OpenBLAS threads a dgemm above
# 65536 x 4
_SERIAL_PRODUCT = 1 << 18
# _unit_abs_sq clamps s + 2 <v, I> only where not s > 2 (1 + _CLAMP_SLACK)
# max(|v|, _CLAMP_FLOOR); both are derived in its docstring, not tuned
_CLAMP_SLACK = 1e-12
_CLAMP_FLOOR = 2.0 ** -510
# relative allowance for rounding in "a unit's weighted |f| never exceeds the
# bound at the same point"; the rounding itself is a few ulps
_BOUND_SLACK = 1e-12
# under this many units a slice is evaluated as |A + I B|^2, from this many on
# as s + 2 <v, I> with s and v shared by the units
_FEW_UNITS = 5


@dataclass(frozen=True)
class FockParams:
    """Finite weight alpha > 0, exponent p, finite ball radius."""

    alpha: float
    p: float = 2.0
    radius: float = 1.0

    def __post_init__(self):
        _require_positive_finite("alpha", self.alpha)
        if not (self.p > 0.0 or self.p == math.inf):
            raise ValueError("p must be positive or infinity")
        _require_positive_finite("radius", self.radius)


@dataclass(frozen=True)
class NormReport:
    """A computed norm with its per-slice values and grid provenance."""

    value: float
    per_slice: tuple[tuple[ImaginaryUnit, float], ...]
    grid_spec: dict


@dataclass(frozen=True)
class DerivativeCriterionReport:
    """vacuous: d^t f is the zero series, so 0 <= 0 + 0 certifies nothing."""

    order: int
    sup_ratio: float
    component_sups: tuple[float, float]
    passed: bool
    vacuous: bool


@dataclass(frozen=True)
class LittleSpaceReport:
    """M(rho) at each rho of little_space_profile."""

    rhos: tuple[float, ...]
    values: tuple[float, ...]


# ---------------------------------------------------------------------------
# slice evaluation: f(x + yI) = A(z) + I B(z)
# ---------------------------------------------------------------------------

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
    return _s_and_v(*(radii[:, None] ** np.arange(table.shape[2]) @ table)
                    .reshape(2, 6, -1))


def _s_and_v(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_slice_terms' s and v from A and B as components (w, x, y, z, x, y), (6, N)."""
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
    unit_q = _imaginary_rows(_unit_rows(units))[:, None]
    i_times = _qmul(unit_q, coeffs).transpose(0, 2, 1)                # I a_k
    angle = np.arange(coeffs.shape[0])[:, None] * np.atleast_2d(theta)[:, None, :]
    return (np.cos(angle)[:, None] * coeffs.T[:, :, None]
            + np.sin(angle)[:, None] * i_times[..., None])


def _abs_sq_evaluator(coeffs: np.ndarray, units, theta: np.ndarray):
    """radii -> |f|^2 on the polar grid of every slice C_I, (M, radii.size * Nt).

    The angle table is built here, once for every block of radial rows; the
    evaluator only reads it and makes its own arrays, so several threads
    may call it at once.  Many units share s and v and take s + 2 <v, I>
    from _unit_abs_sq, clamped at 0 where rounding could push it below.
    Under _FEW_UNITS units |A + I B|^2 is cheaper; it is squared in place,
    as a second temporary re-faults the heap each call.
    """
    if len(units) < _FEW_UNITS:
        ks, table = np.arange(len(coeffs)), _ray_coeffs(coeffs, units, theta)

        def few(radii):
            vals = radii[:, None] ** ks @ table
            return np.square(vals, out=vals).sum(axis=1).reshape(len(units), -1)
        return few
    table, unit_rows = _terms_table(coeffs, theta), _unit_rows(units)
    return lambda radii: _unit_abs_sq(*_slice_terms(table, radii), unit_rows)


def _unit_abs_sq(s: np.ndarray, v: np.ndarray, unit_rows: np.ndarray) -> np.ndarray:
    """max(s + 2 <v, I>, 0) for every unit row I at every point, (M, N).

    The product I @ (2v) is formed in column blocks of at most
    _SERIAL_PRODUCT / (3M) points, whole multiples of _PRUNE_BLOCK, then s
    is added.  OpenBLAS runs a dgemm whose m n k exceeds that size on helper
    threads that spin between calls and take the cores of the p != 2 lanes
    and of verify's sup worker; a block keeps each product on the calling
    thread.  Every column keeps its place modulo the kernel width, so the
    values are those of one product, bit for bit, on every grid the library
    evaluates.

    s >= 2|v| exactly, so a value can fall below 0 only where the two nearly
    cancel, at a zero of f.  The clamp np.maximum(., 0) is therefore taken
    only on the columns where not s > 2 (1 + d) max(|v|, 2^-510), with
    d = _CLAMP_SLACK and |v| = sqrt(sum v_k^2) as rounded; elsewhere every
    unit's rounded sum is already >= 0, and the result is the full clamp's
    bit for bit.  With u = 2^-53: the rounded sum has the sign of p + s,
    where p is the rounded product, so it is >= 0 where s >= |p|.  The
    3-term product, in any order and with or without fused multiply-adds,
    is within 3.01 u 2|I||v| of the exact one, beyond absolute underflow
    errors of at most 5 2^-1075, and an ImaginaryUnit has |I|^2 within
    1e-12 of 1, so |p| <= 2|v| (1 + 5e-13 + 6 u) + 5 2^-1075.  Where the
    rounded sum of squares is at least 2^-1020, the rounded |v| is at least
    |v| (1 - 3 u); below that |v| < 2^-510 (1 + 3 u), which the floor
    covers, so the floored |v| is never below |v| (1 - 3 u).  The rounded
    factor 2 (1 + d) and the rounded threshold lose at most u each, and the
    threshold is at least 2^-509, so the underflow errors are below u s.
    An unflagged column thus has s (1 - u) > 2 (1 + d) (1 - 6 u) |v|, which
    is at least the bound on |p| for any d >= 5e-13 + 13 u; d = 1e-12 is
    that, rounded up.  A NaN s, a NaN or infinite v component, and a v
    whose squares overflow all fail the comparison, so those columns are
    clamped too; an infinite s with a finite v sums to inf either way.
    """
    width = _SERIAL_PRODUCT // (3 * len(unit_rows))
    width = max(_PRUNE_BLOCK, width - width % _PRUNE_BLOCK)
    out = np.empty((len(unit_rows), s.size))
    for start in range(0, s.size, width):
        out[:, start:start + width] = unit_rows @ (2.0 * v[:, start:start + width])
    out += s
    norm = np.sqrt(np.einsum("ij,ij->j", v, v))
    near = np.flatnonzero(~(s > 2.0 * (1.0 + _CLAMP_SLACK)
                            * np.maximum(norm, _CLAMP_FLOOR, out=norm)))
    out[:, near] = np.maximum(out[:, near], 0.0)
    return out


def _scaled_rows(f: SliceSeries) -> tuple[np.ndarray, int]:
    """Coefficient rows of f 2^-e, and e; undo with np.ldexp(|.|, e).

    |f| = 2^e |f 2^-e| exactly; with the largest coefficient component in
    [1/2, 1) the squares of tiny or huge coefficients stay representable.
    """
    coeffs = f._coeff_rows
    exponent = math.frexp(float(np.abs(coeffs).max()))[1]
    return np.ldexp(coeffs, -exponent), exponent


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
    """[fn(x) for x in items], each lane taking the next item from a shared counter.

    One lane per usable core: the calling thread runs one and pool helpers
    run the others, each under a copy of the caller's context, so numpy's
    error state (a contextvar) holds there too.  fn must only read shared
    arrays.  A lane that finishes early takes the next item, so no lane
    idles while another has a queue.  The results come back in item order,
    so what a caller makes of them does not depend on the number of lanes
    or on which lane made each.  Once any lane raises, no lane starts a new
    item, and the exception reaches the caller once every lane has stopped;
    a helper that had not started when the items ran out is cancelled.
    A helper whose thread cannot start (submit raises RuntimeError) is no
    lane: the lanes that run take its items.  Its task stays queued until a
    pool thread is free; with one caller at a time that is once a lane has
    ended, so it finds no item left.
    """
    items = list(items)
    lanes = min(_usable_cores(), len(items))
    if lanes < 2:
        return [fn(x) for x in items]
    out, taken, failed = [None] * len(items), itertools.count(), threading.Event()

    def lane():
        # next() on a count is one call under the GIL: no index is taken twice
        for i in taken:
            if i >= len(items) or failed.is_set():
                return
            try:
                out[i] = fn(items[i])
            except BaseException:
                failed.set()
                raise

    pool = _lane_pool()
    futures = []
    for _ in range(1, lanes):
        try:
            futures.append(pool.submit(contextvars.copy_context().run, lane))
        except RuntimeError:
            break
    try:
        lane()
    finally:
        for future in futures:
            if not future.cancel():
                future.exception()              # waits, never raises
    for future in futures:
        if not future.cancelled():
            future.result()                     # a helper's exception
    return out


# ---------------------------------------------------------------------------
# p-norms: closed form at p = 2, quadrature with refinement otherwise
# ---------------------------------------------------------------------------

def _log_moments(count: int, alpha: float, radius: float) -> np.ndarray:
    """log m_k for k < count, m_k = k! P(k + 1, a R^2) / (pi a^k); see module docstring."""
    # e^{-x} x^k is 0 long before x = 1e300, and inf has no int
    x, log_r2 = min(alpha * radius * radius, 1e300), 2.0 * math.log(radius)
    logs, u = [], 1.0
    for k in range(min(count, int(x))):         # k + 1 <= x
        u = 1.0 + k * u / x
        tail = math.exp(k * math.log(x) - x - math.lgamma(k + 1) + math.log(u))
        logs.append(math.lgamma(k + 1) - k * math.log(alpha) + math.log1p(-tail))
    # k + 1 > x, downward from far above; none left once x >= count, so the
    # start count + 2x + 60 stays below 3 count + 60
    upper, s = [], 0.0
    start = int(count + 2.0 * x) + 60 if len(logs) < count else count
    for k in range(start, len(logs), -1):
        s = (x * s + 1.0) / k                   # S_{k-1}
        if k <= count:
            upper.append(k * log_r2 + math.log(alpha) + math.log(s) - x)
    return np.array(logs + upper[::-1]) - math.log(math.pi)


def _row_exponents(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rows 2^-e_k with each row's largest component in [1/2, 1), and e_k; 0 stays 0."""
    exps = np.frexp(np.abs(rows).max(axis=1))[1]
    return np.ldexp(rows, -exps[:, None]), exps


def _pairing(f: SliceSeries, g: SliceSeries, params: FockParams) -> tuple[np.ndarray, int]:
    """(sums, shift) with <f, g> = sums 2^shift and shift even.

    Every row conj(b_k) a_k m_k is split into a mantissa and a power of two,
    and the powers are taken relative to the largest, so no moment,
    coefficient or product over- or underflows on its own and np.ldexp(sums,
    shift) is inf only where the pairing leaves the float range.  Where m_k
    is a normal float the scaling is by powers of two alone, so the terms
    are those of the plain sum of m_k conj(b_k) a_k, scaled exactly.
    """
    count = min(f.degree, g.degree) + 1
    (a, exp_a), (b, exp_b) = (_row_exponents(h._coeff_rows[:count]) for h in (f, g))
    pairs = _qmul(b * _CONJ_SIGNS, a)
    logs = _log_moments(count, params.alpha, params.radius)
    # m_k = mant 2^(n + exp_m); n = 0 wherever e^logs is a normal float, so
    # that there mant 2^exp_m is the float m_k exactly
    n = np.where(np.abs(logs) < 700.0, 0, np.rint(logs / math.log(2.0))).astype(int)
    mant, exp_m = np.frexp(np.exp(logs - n * math.log(2.0)))
    exps, live = n + exp_m + exp_a + exp_b, pairs.any(axis=1)
    shift = int(exps[live].max() + exps[live].max() % 2) if live.any() else 0   # even
    with np.errstate(over="ignore"):
        weights = np.where(live, np.ldexp(mant, exps - shift), 0.0)
    return weights @ pairs, shift


def _p2_norm(f: SliceSeries, params: FockParams) -> float:
    """||f||_{2,I} = sqrt(<f, f>) = sqrt(sum_k |a_k|^2 m_k), the same on every slice."""
    sums, shift = _pairing(f, f, params)
    with np.errstate(over="ignore"):
        return float(np.ldexp(math.sqrt(sums[0]), shift // 2))


def _slice_norms_on_grid(f: SliceSeries, units, params: FockParams,
                         grid: QuadratureGrid) -> np.ndarray:
    """Slice p-norm of f on every unit by the grid's quadrature rule, shape (M,).

    A plain quadrature rule at any finite p, p = 2 included: |f|^p is
    evaluated in blocks of radial rows on the lanes.  A norm that overflows
    is inf.
    """
    p = params.p
    r, _ = grid.radial_arrays()
    (coeffs, exponent), theta = _scaled_rows(f), grid.angles()
    # blocks of radial rows keep the units x points array cache-sized;
    # their unit sums are added in block order, whatever lane made them
    w = (grid.area_weights().reshape(r.size, -1)
         * np.exp(-0.5 * params.alpha * p * r * r)[:, None]).ravel()
    evaluate = _abs_sq_evaluator(coeffs, units, theta)
    rows, nt = max(1, _BLOCK_POINTS // theta.size), theta.size

    def block_sum(i):
        # |f|^p = exp((p/2) log |f|^2): log 0 = -inf and exp(-inf) = 0
        powered = evaluate(r[i:i + rows])
        with np.errstate(divide="ignore"):
            np.log(powered, out=powered)
        powered *= p / 2.0
        return np.exp(powered, out=powered) @ w[i * nt:(i + rows) * nt]

    sums = np.zeros(len(units))
    for part in _in_lanes(block_sum, range(0, r.size, rows)):
        sums += part
    integrals = params.alpha / math.pi / math.pi * sums
    # a norm that overflows is inf, which _refine_norms refuses; numpy need not warn
    with np.errstate(over="ignore"):
        return np.ldexp(np.maximum(integrals, 0.0) ** (1.0 / p), exponent)


def _refine_norms(f, units, params, grid):
    """Per-slice norms on the first grid that agrees with its coarser one.

    The grid is doubled until successive values agree to 1e-8 relative or
    it reaches RADIAL_CAP x ANGULAR_CAP (see module docstring).  Returns
    (values, grid, rel, refinements), rel the last relative change between
    successive grids.  A single grid certifies nothing, so a start grid at
    the cap raises, as a residual disagreement there does.  A nonzero
    slice-regular f has |f|^p > 0 almost everywhere on every slice, so a 0
    value of it is an underflow (of the weight, say) and agrees with
    nothing; the zero function keeps its 0.  A non-finite value never
    stabilizes and raises at once; GridTooCoarse carries every grid's values.
    """
    trace, coarser, nonzero = [], None, bool(f._coeff_rows.any())
    while True:
        values = _slice_norms_on_grid(f, units, params, grid)
        trace.append((grid.describe(), [float(v) for v in values]))
        if not np.all(np.isfinite(values)):
            raise GridTooCoarse("a value is not finite on grid "
                                f"{grid.radial_count} x {grid.angular_count}", trace)
        at_cap = grid.radial_count >= RADIAL_CAP or grid.angular_count >= ANGULAR_CAP
        vanished = nonzero and not np.all(values > 0.0)
        rel = (float(np.max(np.abs(values - coarser)
                            / np.maximum(np.abs(values), 1e-300)))
               if coarser is not None and not vanished else math.inf)
        if rel <= REFINE_TOL or (at_cap and rel <= COARSE_TOL):
            return values, grid, rel, len(trace) - 1
        if at_cap:
            why = ("a slice norm of a nonzero function is still 0" if vanished else
                   "no grid agrees with a coarser one within 1e-6 relative")
            raise GridTooCoarse(f"{why} up to the resolution cap {RADIAL_CAP} x "
                                f"{ANGULAR_CAP}", trace)
        coarser, grid = values, grid.doubled()


def _norms(f, units, params) -> tuple[np.ndarray, dict, float]:
    """Slice norms of f on every unit, their grid spec and their relative change.

    The one place that picks how a p-norm is taken.  At p = 2 the closed
    form, exact and with no grid built, so the relative change is 0.0.  At
    any other finite p the quadrature refined by _refine_norms from the
    library's start grid, quadrature's DEFAULT_RADIAL x DEFAULT_ANGULAR
    (64 x 128), and the relative change is that of its last doubling.
    """
    if params.p == math.inf:
        raise ValueError("p = infinity has no quadrature norm; use sup_norm")
    if params.p == 2.0:
        return (np.full(len(units), _p2_norm(f, params)),
                {"rule": "closed form", "radius": params.radius}, 0.0)
    values, final_grid, rel, refinements = _refine_norms(
        f, units, params, QuadratureGrid.build(radius=params.radius))
    return values, {**final_grid.describe(), "rule": "gauss-legendre x trapezoid",
                    "refinements": refinements}, rel


def slice_norm_p(f: SliceSeries, unit: ImaginaryUnit, params: FockParams) -> float:
    """p-norm of f restricted to the slice C_I, 0 < p < infinity."""
    values, _, _ = _norms(f, [unit], params)
    return float(values[0])


def fock_norm_p(f: SliceSeries, params: FockParams, *, sphere=None) -> NormReport:
    """Supremum of the slice p-norms over the sampled sphere of units.

    At p = 2 every slice norm is the same, so per_slice holds one value
    for every unit, and a norm that overflows is inf.  The sphere must hold
    a unit: a supremum over none has no value.
    """
    units = list(sphere) if sphere is not None else default_sphere()
    if not units:
        raise ValueError("sphere must hold at least one unit")
    values, spec, _ = _norms(f, units, params)
    per_slice = tuple((u, float(v)) for u, v in zip(units, values))
    return NormReport(float(values.max()), per_slice, {**spec, "sphere": len(units)})


def inner_product(f: SliceSeries, g: SliceSeries, params: FockParams) -> Quaternion:
    """Quaternion-valued pairing <f, g> = integral_{B_I} conj(g(z)) f(z) dlambda_I(z).

    The weight is (a/pi) e^{-a|z|^2} dA_I.  In closed form it is
    sum_k conj(b_k) a_k m_k (module docstring), the same on every slice, so
    it takes no unit.  Right-linear in f, <f c, g> = <f, g> c, and
    conjugate-linear in g, <f, g c> = conj(c) <f, g>, for every quaternion c.
    """
    sums, shift = _pairing(f, g, params)
    with np.errstate(over="ignore"):
        return Quaternion(*(float(c) for c in np.ldexp(sums, shift)))


# ---------------------------------------------------------------------------
# weighted suprema
# ---------------------------------------------------------------------------

def _chebyshev_radii(count: int, radius: float) -> np.ndarray:
    if count < 3:
        raise ValueError("need at least 3 radial samples")
    i = np.arange(count)
    return 0.5 * radius * (1.0 - np.cos(math.pi * i / (count - 1)))


def _secant_max_rows(fn, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Max of F on [lo, hi] for every row, at the root of F' by Illinois regula falsi.

    fn maps (M,) abscissae to F and F', each (M,).  A row whose F' falls
    from >= 0 at lo to < 0 at hi holds a root of F' in its bracket; every
    round cuts the bracket at the secant's root, and where the same end was
    kept twice running its F' is halved (the Illinois rule), so both ends
    close in superlinearly.  A cut is kept half of _POLISH_TOL's share of
    the first bracket inside the bracket, so that one which would land on
    an end, where a root is pinned to it, lands across the root instead.
    F = F' = 0 is the weight underflowing past the peak, and counts as F'
    < 0.  While F' is 0 at an end the cut is the midpoint, as the secant
    would land on that end; at lo (r = 0 with f(0) = 0, or a stationary
    |f| there) a first cut just above lo tells a minimum, from which F
    rises, from a maximum, where the row is done.  A row stops once its
    bracket is _POLISH_TOL of its first one, or F' is 0 or not finite at a
    cut; any other row is done at once, as its max is at an end.  The
    result is the largest F of every point a row evaluated while it ran,
    ends included.  All of it is elementwise, so a row takes the same steps
    alone and in any batch; a stopped row's F is no longer taken, and the
    loop ends early once every row has stopped.
    """
    (best, slope_a), (top, slope_b) = fn(lo), fn(hi)
    np.maximum(best, top, out=best)
    a, b, tol = lo, hi, _POLISH_TOL * (hi - lo)
    live = (slope_a >= 0.0) & ((slope_b < 0.0) | (top == 0.0)) & (b - a > tol)
    kept_a, kept_b, rising = (np.zeros_like(live) for _ in range(3))
    for _ in range(_POLISH_ROUNDS):
        if not live.any():
            break
        probe = (slope_a == 0.0) & ~rising
        # a stopped row's step is not taken, and may divide 0 by 0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x = np.where((slope_a == 0.0) | (slope_b == 0.0), 0.5 * (a + b),
                         a + (b - a) * (slope_a / (slope_a - slope_b)))
        x = np.minimum(np.maximum(np.where(probe, a, x), a + 0.5 * tol), b - 0.5 * tol)
        live &= (a < x) & (x < b)
        x = np.where(live, x, a)
        value, slope = fn(x)
        np.maximum(best, value, out=best, where=live)
        up = live & (slope > 0.0)                               # the root above x
        down = live & ((slope < 0.0) | (value == 0.0) & (slope == 0.0))   # below x
        # F rises from a stationary a: a stays, and the bracket is halved
        lifted, up = probe & up, up & ~probe
        rising |= lifted
        slope_a = np.where(up, slope, np.where(down & kept_a, 0.5 * slope_a, slope_a))
        slope_b = np.where(down, slope, np.where(up & kept_b, 0.5 * slope_b, slope_b))
        a, b = np.where(up, x, a), np.where(down, x, b)
        kept_a, kept_b = down, up
        live = (up | down | lifted) & (b - a > tol)
    return best


class _GridMaxima(NamedTuple):
    """Grid maxima of one set of rows, ready for the polish.

    A row is the slice of one unit or, with units None, the ball row: the
    unit-free w sqrt(s + 2|v|), which is max_I w |f(x + yI)| exactly.
    """

    coeffs: np.ndarray          # f 2^-exponent as rows (K, 4)
    units: list | None          # None: ball row
    angles: np.ndarray          # angle of each row's best ray, (M,)
    brackets: np.ndarray        # radial cell around each maximum, (M, 2)
    grid_max: np.ndarray
    ball_point: complex | None  # complex grid argmax of the ball row; None: units
    exponent: int


class _Sups(NamedTuple):
    """One job's weighted suprema."""

    sups: np.ndarray            # on each unit's slice disk, (M,)
    ball: float | None          # over the ball, exact over the units; None if not asked
    ball_point: complex | None  # complex grid argmax of the ball row


def _grid_maxima(coeffs, units, exponent, flat, grid_max, radii, theta) -> _GridMaxima:
    """_GridMaxima of rows whose grid maxima sit at the flat indices flat."""
    ri, ti = np.divmod(flat, theta.size)
    point = None if units is not None else \
        complex(radii[ri[0]] * np.exp(1j * theta[ti[0]]))
    return _GridMaxima(coeffs, units, theta[ti],
                       np.stack([radii[np.maximum(ri - 1, 0)],
                                 radii[np.minimum(ri + 1, radii.size - 1)]], axis=1),
                       grid_max, point, exponent)


def _ball_abs_sq(s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """s + 2|v|, the max of |f|^2 = s + 2 <v, I> over all units I, shape (N,)."""
    out = np.sqrt(np.einsum("ij,ij->j", v, v))
    out *= 2.0
    out += s
    return out


def _unit_values(s, v, unit_rows, w, cols) -> np.ndarray:
    """Weighted |f| of every unit on the grid points cols, (M, cols.size).

    _unit_abs_sq on the columns cols, the many-unit evaluator's kernel, then
    the root and the weight: where BLAS rounds the product alike (see
    _pruned_unit_maxima) each value is the one a full units x points array
    holds, bit for bit.
    """
    out = _unit_abs_sq(s[cols], v[:, cols], unit_rows)
    np.sqrt(out, out=out)
    out *= w[cols]
    return out


def _pruned_unit_maxima(s, v, bound, units, w) -> tuple[np.ndarray, np.ndarray]:
    """Flat grid argmax and max of the weighted |f| of every unit.

    bound is the ball row w sqrt(s + 2|v|), which no unit's value exceeds
    beyond rounding.  Every unit is evaluated on the _TOP_POINTS points of
    largest bound; the least of the units' maxima there, low, is a floor
    under every unit's grid max, so a point whose bound is below low, with
    a relative rounding allowance, holds no unit's max.  Only the aligned
    blocks of _PRUNE_BLOCK points that hold some other point are evaluated.
    NaN and inf compare below nothing, so non-finite points stay in, and so
    does every tie to a max: the first max in flat order is the one argmax
    finds on the whole grid.

    BLAS rounds the trailing columns of a product differently when their
    count is not a multiple of its kernel width (measured: OpenBLAS moves
    a partial group of 4 by an ulp).  Whole aligned blocks keep every
    column at its place modulo _PRUNE_BLOCK and the count a multiple of it,
    and a grid whose size is not such a multiple is evaluated whole.
    """
    unit_rows = _unit_rows(units)
    cols = np.arange(bound.size)
    if bound.size % _PRUNE_BLOCK == 0 and bound.size > _TOP_POINTS:
        top = np.argpartition(bound, -_TOP_POINTS)[-_TOP_POINTS:]
        low = _unit_values(s, v, unit_rows, w, top).max(axis=1).min()
        # rounding is relative only down to the smallest normal number
        if low >= np.finfo(float).tiny:
            keep = ~(bound < low * (1.0 - _BOUND_SLACK))
            blocks = keep.reshape(-1, _PRUNE_BLOCK).any(axis=1)
            cols = np.flatnonzero(np.repeat(blocks, _PRUNE_BLOCK))
    vals = _unit_values(s, v, unit_rows, w, cols)
    best = vals.argmax(axis=1)
    return cols[best], vals[np.arange(best.size), best]


def _sup_grid_stage(f: SliceSeries, units, ball: bool, radii: np.ndarray,
                    theta: np.ndarray, weight: np.ndarray) -> list[_GridMaxima]:
    """Grid maxima of one job: its unit rows if it has units, then its ball row.

    _FEW_UNITS units or more and the ball row share one s and v.  Under
    _FEW_UNITS units the root and the radial weight are taken in place in
    the units x points array of |f|^2.  Every grid array is released on
    return, before the next job's is built.
    """
    coeffs, exponent = _scaled_rows(f)
    out = []
    if ball or len(units) >= _FEW_UNITS:
        s, v = _slice_terms(_terms_table(coeffs, theta), radii)
        w = np.repeat(weight, theta.size)
        bound = _ball_abs_sq(s, v)
        np.sqrt(bound, out=bound)
        bound *= w
    if len(units) >= _FEW_UNITS:
        flat, grid_max = _pruned_unit_maxima(s, v, bound, units, w)
        out.append(_grid_maxima(coeffs, units, exponent, flat, grid_max, radii, theta))
    elif units:
        vals = _abs_sq_evaluator(coeffs, units, theta)(radii)
        np.sqrt(vals, out=vals)
        cells = vals.reshape(len(units), radii.size, theta.size)   # a view
        cells *= weight[:, None]
        flat = vals.argmax(axis=1)
        out.append(_grid_maxima(coeffs, units, exponent, flat,
                                vals[np.arange(flat.size), flat], radii, theta))
    if ball:
        flat = np.array([bound.argmax()])
        out.append(_grid_maxima(coeffs, None, exponent, flat, bound[flat], radii, theta))
    return out


def _ray_evaluator(sets, alpha: float, weight_order: int):
    """r -> F and F' of every row of sets at its abscissa in r, (M,) each.

    F(r) = W(r) P(r) along the row's best ray, with W = e^{-a r^2} / (1+r)^{2t}
    and P = |f|^2 (a unit row, on its slice) or s + 2|v| (a ball row, from A
    and B); F' = W (P' + P (log W)').  One product per run of sets of one kind
    and coefficient count K takes the values and the r-derivatives at once:
    r^k and k r^{k-1} (k times the power below, with no second power) stacked
    as (rows, 2, K) @ ray.  A unit row takes P' = 2 <f, f'>; the ball rows take
    s and v from one _s_and_v over (A, B), (A', B) and (A, B'), so that
    v' = v(A', B) + v(A, B') by bilinearity, and P' = s' + 2 <v', v/|v|> (the
    envelope rule).  Where v = 0, P' is taken from the right, s' + 2|v'|: at
    r = 0, where v always vanishes, v ~ r v' makes that the limit of F' from
    above, and the polish needs no more at an end.  All of it is elementwise
    or per item of a stacked product, so a row's values do not depend on the
    rows beside it.  The rays' coefficients are built here, so that only one
    chunk's are ever held.
    """
    runs, start = [], 0            # (rows of the chunk, ray (M, K, 4 or 12), ball)
    for (_, ball), run in groupby(sets, lambda rows: (len(rows.coeffs),
                                                      rows.units is None)):
        run = list(run)
        if ball:
            # (M, K, 12): r^k @ ray gives A then B as in _terms_table
            ray = np.concatenate([_terms_table(rows.coeffs, rows.angles)
                                  .transpose(3, 2, 0, 1) for rows in run])
            ray = ray.reshape(*ray.shape[:2], 12)
        else:
            ray = np.concatenate([_ray_coeffs(rows.coeffs, rows.units,
                                              rows.angles[:, None])[..., 0]
                                  for rows in run]).transpose(0, 2, 1)
        runs.append((slice(start, start + len(ray)), ray, ball))
        start += len(ray)

    ball_at = np.array([i for rows, _, ball in runs if ball
                        for i in range(rows.start, rows.stop)], dtype=np.intp)

    def evaluate(r):
        sq, dsq = np.empty(r.shape), np.empty(r.shape)
        ball_parts = []
        for rows, ray, ball in runs:
            count = ray.shape[1]
            powers = np.empty((rows.stop - rows.start, 2, count))
            np.power(r[rows, None], np.arange(count), out=powers[:, 0])
            powers[:, 1, 0] = 0.0
            np.multiply(powers[:, 0, :-1], np.arange(1, count), out=powers[:, 1, 1:])
            vec = powers @ ray                  # values, then r-derivatives
            if ball:
                ball_parts.append(vec)
            else:
                sq[rows] = (vec[:, 0] * vec[:, 0]).sum(axis=-1)
                dsq[rows] = 2.0 * (vec[:, 0] * vec[:, 1]).sum(axis=-1)
        if ball_parts:
            vec = np.concatenate(ball_parts)
            val, der, n = vec[:, 0], vec[:, 1], len(vec)
            s, v = _s_and_v(np.concatenate([val, der, val]).T[:6],
                            np.concatenate([val, val, der]).T[6:])
            v, dv = v[:, :n], v[:, n:2 * n] + v[:, 2 * n:]
            norm, steep = (np.sqrt(np.einsum("ij,ij->j", w, w)) for w in (v, dv))
            turn = np.divide(np.einsum("ij,ij->j", v, dv), norm, out=steep,
                             where=norm > 0.0)
            sq[ball_at] = 2.0 * norm + s[:n]    # _ball_abs_sq's terms and order
            dsq[ball_at] = 2.0 * ((val[:, :4] * der[:, :4]).sum(axis=-1)
                                  + (val[:, 6:10] * der[:, 6:10]).sum(axis=-1) + turn)
        gauss = np.exp(-alpha * r * r)
        # at t = 0 the divisor (1 + r)^0 is exactly 1.0
        scale = (1.0 + r) ** (2 * weight_order)
        slope = dsq - sq * (2.0 * alpha * r + 2.0 * weight_order / (1.0 + r))
        return sq * gauss / scale, slope * gauss / scale
    return evaluate


def _polish(sets, alpha: float, weight_order: int) -> list[np.ndarray]:
    """Max of the weight times |f| along the best ray of each row, from its radial cell.

    sets holds whole _GridMaxima, with those of one kind (unit or ball) and
    coefficient count K adjacent; returns each set's polished rows.  One
    secant loop (_secant_max_rows) serves the whole chunk, and a round makes
    one (rows, 2, K) @ ray per run of sets of one kind and K, one _s_and_v
    over the ball rows, and one weight for all rows (see _ray_evaluator).
    """
    brackets = np.concatenate([rows.brackets for rows in sets])
    best = np.sqrt(_secant_max_rows(_ray_evaluator(sets, alpha, weight_order),
                                    brackets[:, 0], brackets[:, 1]))
    return np.split(best, np.cumsum([rows.angles.size for rows in sets])[:-1])


def _sup_over_rows(jobs, alpha: float, radius: float, radial_samples: int,
                   angular_count: int, weight_order: int = 0) -> list[_Sups]:
    """Weighted sup of |f|(q) e^{-a|q|^2/2} / (1+|q|)^t, per slice and on the ball.

    jobs is a list of (f, units, ball); returns one _Sups per job: the sup
    on each unit's slice disk C_I and, if ball, the sup over the ball of
    radius R, exact over the units.  Chebyshev radii (hitting 0 and R
    exactly) times a uniform angle grid locate each maximum, one job at a
    time (see _sup_grid_stage); a job whose f is 0 needs no grid, and its
    sups are 0.0 at the point 0.  The radial cells around the maxima of all
    jobs are then polished together along the best rays, one row per unit
    and one per ball, by regula falsi on the r-derivative of the weighted
    square.  The sets of rows are ordered by coefficient count K and row
    kind, and a chunk is closed between two sets once it holds _POLISH_ROWS
    rows, so no set is split; each chunk runs one secant loop (see
    _polish).  A row's arithmetic does not depend on the other rows, so a
    batch gives what one call per job gives, bit for bit.  A polished value
    is the largest of the points the row evaluated, and never below its
    grid max.
    """
    radii = _chebyshev_radii(radial_samples, radius)
    theta = 2.0 * np.pi * np.arange(angular_count) / angular_count
    weight = np.exp(-0.5 * alpha * radii ** 2) / (1.0 + radii) ** weight_order
    zero = [not f._coeff_rows.any() for f, _, _ in jobs]
    sets = [rows for (f, units, ball), z in zip(jobs, zero) if not z
            for rows in _sup_grid_stage(f, units, ball, radii, theta, weight)]
    chunks, held = [], 0
    for j in sorted(range(len(sets)),
                    key=lambda j: (len(sets[j].coeffs), sets[j].units is None)):
        if not chunks or held >= _POLISH_ROWS:
            chunks.append([])
            held = 0
        chunks[-1].append(j)
        held += sets[j].angles.size
    refined = [None] * len(sets)
    for chunk in chunks:
        for j, best in zip(chunk, _polish([sets[j] for j in chunk], alpha, weight_order)):
            refined[j] = best
    # a sup that overflows is inf, which callers refuse; numpy need not warn
    with np.errstate(over="ignore"):
        found = iter([(np.ldexp(np.maximum(best, rows.grid_max), rows.exponent),
                       rows.ball_point) for rows, best in zip(sets, refined)])
    results = []
    for (_, units, ball), z in zip(jobs, zero):
        if z:
            # f = 0: the grid path's values, whose argmax is node 0, at r = 0
            results.append(_Sups(np.zeros(len(units)), 0.0 if ball else None,
                                 0j if ball else None))
            continue
        sups = next(found)[0] if units else np.empty(0)
        top, point = next(found) if ball else (None, None)
        results.append(_Sups(sups, None if top is None else float(top[0]), point))
    return results


def sup_norm(f: SliceSeries, params: FockParams, sphere=None) -> NormReport:
    """A lower bound of sup |f(q)| e^{-a|q|^2/2} over the ball of radius R.

    The value is the ball row's sup, or the largest slice sup where
    rounding or the polish puts one above it: exact over the units, but
    sampled over the disk, on a SUP_RADIAL x SUP_ANGULAR grid whose best
    cells are polished along their rays only.  So the value itself is a
    lower bound of the sup: a peak on the circle r = R stays at the best
    grid angle, and at R = 1 the value reads up to 5.6e-4 relative low.
    per_slice holds the sup on the slice disk of each sampled unit, a lower
    bound of the value.
    """
    units = list(sphere) if sphere is not None else default_sphere()
    [found] = _sup_over_rows([(f, units, True)], params.alpha, params.radius,
                             SUP_RADIAL, SUP_ANGULAR)
    per_slice = tuple((u, float(v)) for u, v in zip(units, found.sups))
    spec = {"rule": "chebyshev x trapezoid + secant", "radial": SUP_RADIAL,
            "angular": SUP_ANGULAR, "radius": params.radius, "sphere": len(units)}
    return NormReport(float(np.append(found.sups, found.ball).max()), per_slice, spec)


def slice_sup_norm(f: SliceSeries, unit: ImaginaryUnit, params: FockParams) -> float:
    """A lower bound of sup |f(z)| e^{-a|z|^2/2} over the slice disk B_I.

    Sampled on the SUP_RADIAL x SUP_ANGULAR grid and polished along the
    best ray only, so it can read low as sup_norm's value does.
    """
    [found] = _sup_over_rows([(f, [unit], False)], params.alpha, params.radius,
                             SUP_RADIAL, SUP_ANGULAR)
    return float(found.sups[0])


# ---------------------------------------------------------------------------
# certified inequalities and profiles
# ---------------------------------------------------------------------------

def _monomial_sup(mono: MultiMonomial, alpha: float, radius: float) -> float:
    """sup over the ball of |z^m a_m| e^{-a|z|^2/2} by radial reduction.

    |z^m| depends only on the moduli r_k, and for a fixed total radius s the
    product prod r_k^{m_k} is maximized at r_k^2 = s^2 m_k / |m|.  What is
    left, s^{|m|} e^{-a s^2/2}, rises up to s = sqrt(|m|/a) and falls after
    it, so its max on [0, R] is at s = min(R, sqrt(|m|/a)).  At |m| = 0 that
    is s = 0, where the formula reads |a_m| (0.0 ** 0 = 1).
    """
    m = mono.multi_index
    total = sum(m)
    a = mono.coeff.modulus()
    direction = 1.0
    for mk in m:
        if mk > 0:
            direction *= (mk / total) ** (mk / 2.0)
    s = min(radius, math.sqrt(total / alpha))
    return a * direction * s ** total * math.exp(-0.5 * alpha * s * s)


def dilation_convergence(f: SliceSeries, params: FockParams, r_list) -> list[float]:
    """Values ||f_r - f||_inf for each dilation factor in r_list.

    Each value is the sup over the ball, exact over the units.  r_list must
    be strictly increasing inside (0, 1); for a polynomial the values
    decrease to 0 as r -> 1.
    """
    return _dilation_values([f], params, r_list, SUP_RADIAL, SUP_ANGULAR)[0]


def _dilation_values(fs, params: FockParams, r_list, radial_samples: int,
                     angular_count: int) -> list[list[float]]:
    """dilation_convergence for each f in fs, with one sup call for all of them."""
    rs = [float(r) for r in r_list]
    if any(not 0.0 < r < 1.0 for r in rs) or any(b <= a for a, b in zip(rs, rs[1:])):
        raise ValueError("r_list must be strictly increasing inside (0, 1)")
    jobs = [(SliceSeries._of_rows(dilate(f, r)._coeff_rows - f._coeff_rows, f.nominal_radius),
             [], True) for f in fs for r in rs]
    sups = [found.ball for found in _sup_over_rows(
        jobs, params.alpha, params.radius, radial_samples, angular_count)]
    return [sups[i * len(rs):(i + 1) * len(rs)] for i in range(len(fs))]


def derivative_criterion(f: SliceSeries, order: int,
                         params: FockParams) -> DerivativeCriterionReport:
    """Weighted sup of the t-th slice derivative against its split components.

    Computes  sup |d^t f(q)| e^{-a|q|^2/2} / (1+|q|)^t  over the ball, exact
    over the units, and the matching suprema of the two split components on
    C_i, then checks

        sup(f) <= sup(f_1) + sup(f_2) + SLACK.

    The argmax of the left side (and its conjugate) is re-evaluated on the
    component side so discretization cannot break the comparison.  Where
    d^t f is the zero series (t above the degree, or zero top coefficients)
    the report is vacuous: it passes, and certifies nothing.
    """
    return _derivative_reports([f], order, params, SUP_RADIAL, SUP_ANGULAR)[0]


def _derivative_reports(fs, order: int, params: FockParams, radial_samples: int,
                        angular_count: int) -> list[DerivativeCriterionReport]:
    """derivative_criterion for each f in fs, with one sup call for all of them.

    The call polishes the ball row of d^t f and its two split parts on i.
    """
    ders = [derivative(f, order) for f in fs]
    parts = [split(der, UNIT_I, orthonormal_partner(UNIT_I)) for der in ders]
    jobs = []
    for der, (f1, f2) in zip(ders, parts):
        jobs += [(der, [], True), (f1.embed(), [UNIT_I], False),
                 (f2.embed(), [UNIT_I], False)]
    results = _sup_over_rows(jobs, params.alpha, params.radius, radial_samples,
                             angular_count, weight_order=order)

    def ratio_at(poly: ComplexSlicePolynomial, z: complex) -> float:
        mag = abs(poly.eval(z))
        return mag * math.exp(-0.5 * params.alpha * abs(z) ** 2) \
            / (1.0 + abs(z)) ** order

    reports = []
    for i, (f1, f2) in enumerate(parts):
        left, part1, part2 = results[3 * i:3 * i + 3]
        zstar = left.ball_point
        s1 = max(float(part1.sups[0]), ratio_at(f1, zstar), ratio_at(f1, zstar.conjugate()))
        s2 = max(float(part2.sups[0]), ratio_at(f2, zstar), ratio_at(f2, zstar.conjugate()))
        reports.append(DerivativeCriterionReport(order, left.ball, (s1, s2),
                                                 left.ball <= s1 + s2 + SLACK,
                                                 not ders[i]._coeff_rows.any()))
    return reports


def little_space_profile(f: SliceSeries, params: FockParams,
                         rho_list) -> LittleSpaceReport:
    """Boundary decay profile M(rho) = max_{|q| = rho} |f(q)| e^{-a rho^2/2}.

    The max is exact over the units but sampled over SUP_ANGULAR angles,
    with no polish, so each M(rho) is a lower bound of the max over the
    circle, not the max itself.  rho_list must be non-empty and increase
    inside (0, R].
    """
    rhos = [float(r) for r in rho_list]
    if not rhos:
        raise ValueError("rho_list must hold at least one radius")
    if any(not 0.0 < r <= params.radius for r in rhos) \
            or any(b <= a for a, b in zip(rhos, rhos[1:])):
        raise ValueError("rho_list must be strictly increasing inside (0, R]")
    theta = 2.0 * np.pi * np.arange(SUP_ANGULAR) / SUP_ANGULAR
    coeffs, exponent = _scaled_rows(f)
    s, v = _slice_terms(_terms_table(coeffs, theta), np.array(rhos))
    peaks = np.sqrt(_ball_abs_sq(s, v).reshape(len(rhos), SUP_ANGULAR).max(axis=1))
    # an M that overflows is inf, which callers refuse; numpy need not warn
    with np.errstate(over="ignore"):
        values = [float(np.ldexp(m * math.exp(-0.5 * params.alpha * rho * rho),
                                 exponent)) for m, rho in zip(peaks, rhos)]
    return LittleSpaceReport(tuple(rhos), tuple(values))
