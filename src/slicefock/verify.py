"""Numerical certification of the algebra and norm propositions.

The verifier draws a seeded corpus (200 polynomials of degree <= 12 with
coefficients uniform in [-1, 1]^4), measures every certified identity and
inequality on it, and reports one line per proposition: name, number of
instances, worst observed ratio or residual, allowed bound, PASS or FAIL.
Runs with the same seed and flags produce byte-identical reports; the
output ordering is canonical (sorted by proposition name).  The p rows
take every slice norm as `norm` takes it, through fock's one p-norm path:
the closed form at p = 2, the refined quadrature at any other finite p,
so their values are certified or the run raises GridTooCoarse.

Every row reduces its figures one way, _worst: the largest figure, from
0.0 or from -inf where a row may have nothing to compare.  A NaN figure
makes the row's worst NaN, so the row fails, and the CLI refuses a NaN or
+inf worst with exit 3 rather than report it; no row passes on a NaN or
raises for one.

The sup row takes about as long as the other eight rows together in a
serial default run.  So whenever that row is selected, the system has
fork and two cores are usable, run_verify first forks one worker for it.
Its one runner then takes every other selected row in this process, on
the second core meanwhile, and appends the sup row last:
the worker's, or the row computed here when no worker ran or it sent
nothing.  A worker that cannot start (os.pipe or os.fork raises OSError at
a process or descriptor limit) is no worker.  The worker computes the same
row from the same corpus in a copy of the process, so the report is the
same bit for bit.  A worker that
raised or died sends nothing; verify is deterministic, so the row computed
here raises its exception in this process, with this process's traceback
and after any other row's exception.  A serial run is the same run without
a worker, and the one failure path.  The worker is reaped on every path,
killed at once if another row raises.  A thread would not help: the
search is many small numpy calls that hold the GIL.

Propositions:

    derivative          weighted sup of d^t f against its split components
    dilation            ||f_r - f||_inf decreases strictly along r -> 1
    monomial            coefficient bound with constant 2^{max(p,1)} sqrt(m/2)
    norm-sandwich-p     ||f||_p^p <= 2^p ||f||_{p,I}^p, the paper's upper side;
                        ||f||_p is the largest sampled slice norm, so its
                        lower side ||f||_{p,I}^p <= ||f||_p^p holds by
                        construction and is not checked
    norm-sandwich-sup   slice sup <= global sup <= 2 * slice sup
    rep-formula         one-slice reconstruction equals direct evaluation
    slice-pair          ||f||_{p,J}^p <= 2^{max(p,1)} ||f||_{p,I}^p; its worst
                        ratio, max over min of the sampled ||f||_{p,I}^p, is
                        norm-sandwich-p's too
    split               split/extend round-trip is exact to 1e-14
    star                pointwise star formula, zero rule, symmetrization
                        realness and the pointwise star reciprocal
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .corpus import (_orthogonal_pair_rows, random_ball_point, random_unit,
                     rng_for, standard_corpus)
from . import fock
from .fock import (SLACK, FockParams, _derivative_reports, _dilation_values,
                   _monomial_sup, _norms, _sup_over_rows)
# not called here: perfbench's test_tracer_counts_the_grid_evaluations_verify_makes
# reads verify._slice_norms_on_grid
from .fock import _slice_norms_on_grid  # noqa: F401
from .quaternion import (_ONE_ROW, UNIT_I, Quaternion, _imaginary_rows,
                         _modulus_rows, _qmul, _rows, default_sphere)
from .series import (_SINGULAR_TOL, MultiMonomial, SliceSeries, _eval_rows,
                     _extend_rows, _rep_eval_rows, _row_table, _split_rows,
                     _star_inverse_rows, _transform_rows, star_mul, truncate)

__all__ = ["PropositionResult", "PROPOSITIONS", "run_verify",
           "format_text", "results_to_dicts", "format_csv"]

PROPOSITIONS = (
    "derivative",
    "dilation",
    "monomial",
    "norm-sandwich-p",
    "norm-sandwich-sup",
    "rep-formula",
    "slice-pair",
    "split",
    "star",
)

# sup search grids (Chebyshev radii, uniform angles) of the rows that take
# one; monomial takes fock's SUP_RADIAL x SUP_ANGULAR
SANDWICH_SUP_GRID = (65, 128)       # norm-sandwich-sup
CRITERIA_SUP_GRID = (33, 64)        # dilation and derivative


@dataclass(frozen=True)
class PropositionResult:
    name: str
    instances: int
    worst: float
    bound: float
    passed: bool
    detail: str = ""


def _select(props) -> list[str]:
    if props is None:
        return list(PROPOSITIONS)
    if isinstance(props, str):
        props = [tok for tok in props.split(",") if tok]
    if not props:
        raise ValueError("no proposition selected; choose from "
                         + ", ".join(PROPOSITIONS))
    for token in props:
        if token not in PROPOSITIONS:
            raise ValueError(f"unknown proposition {token!r}; "
                             f"choose from {', '.join(PROPOSITIONS)}")
    return sorted(set(props))


# ---------------------------------------------------------------------------
# individual propositions
# ---------------------------------------------------------------------------

def _worst(figures, start: float = 0.0) -> float:
    """The largest of start and every figure; a NaN figure makes it NaN."""
    return float(np.max(figures, initial=start))


def _check_star(corpus, seed: int) -> PropositionResult:
    rng = rng_for(seed + 101)
    fs = [truncate(f, 8) for f in corpus]
    firsts, seconds = fs[0:200:2], fs[1:200:2]
    zeros, products, points = [], [], []
    for f, g in zip(firsts, seconds):
        products.append(star_mul(f, g))

        # a zero of the left factor must kill the star product
        z0 = random_ball_point(rng)
        vanishing = star_mul(SliceSeries((-z0, Quaternion(1.0))), truncate(f, 6))
        killed = star_mul(vanishing, g)
        scale = max(1.0, sum(math.hypot(*c) * z0.modulus() ** k
                             for k, c in enumerate(killed._float_rows)))
        zeros.append(killed.eval(z0).modulus() / scale)
        points.append(_rows([random_ball_point(rng) for _ in range(20)]))

    # every point of a function at once: one table row per function, (100, 1, K, 4)
    f, g, fg = (_row_table([h._coeff_rows for h in column])[:, None]
                for column in (firsts, seconds, products))
    fc = _row_table([h._conj._coeff_rows for h in firsts])[:, None]
    sym = _row_table([h._sym._coeff_rows for h in firsts])[:, None]
    # realness of f^s: the largest |Im c|, the modulus of (0, Im c), over
    # max(1, largest |c|) per function; the zero rows that pad a short f^s
    # move neither max.  A non-finite scale is NaN, so an overflowed f^s
    # reads a NaN realness figure, not |Im c| / inf = 0
    coeff_scale = np.maximum(1.0, _modulus_rows(sym).max(axis=-1))
    coeff_scale[~np.isfinite(coeff_scale)] = np.nan
    worst_real = _worst(_modulus_rows(_imaginary_rows(sym[..., 1:])).max(axis=-1)
                        / coeff_scale)
    q = np.array(points)
    # points where f(q) is small are skipped below; their rows may be inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vf = _eval_rows(f, q)
        moved = _transform_rows(vf, q)
        lhs = _eval_rows(fg, q)
        rhs = _qmul(vf, _eval_rows(g, moved))
        recip, sym_modulus = _star_inverse_rows(sym, fc, moved)
        residual = _qmul(vf, recip) - _ONE_ROW
    kept = ~(_modulus_rows(vf) <= 1e-6)
    denom = np.fmax(np.fmax(1.0, _modulus_rows(lhs)), _modulus_rows(rhs))
    worst_point = _worst(_modulus_rows(lhs - rhs)[kept] / denom[kept])
    instances = int(kept.sum())
    # the reciprocal is skipped where f^s vanishes (SingularPoint)
    regular = kept & ~(sym_modulus < _SINGULAR_TOL)
    worst_inverse = _worst(_modulus_rows(residual[regular]))
    worst_zero = _worst(zeros)
    worst = _worst([worst_point / 1e-10, worst_zero / 1e-10,
                    worst_real / 1e-12, worst_inverse / 1e-10])
    detail = (f"pointwise={worst_point:.2e} zero={worst_zero:.2e} "
              f"real={worst_real:.2e} reciprocal={worst_inverse:.2e}")
    return PropositionResult("star", instances, worst, 1.0, worst <= 1.0, detail)


def _check_split(corpus, seed: int) -> PropositionResult:
    # (I, J) of each draw, as len(corpus) * 20 random_orthogonal_pair draws
    pairs = _orthogonal_pair_rows(rng_for(seed + 102), len(corpus) * 20)
    units_i, units_j = pairs[:, 0], pairs[:, 1]
    widths = np.repeat([len(f._coeff_rows) for f in corpus], 20)
    worst = 0.0
    # one solve per coefficient count: padding would change the rounding
    for width in np.unique(widths):
        at = np.flatnonzero(widths == width)
        table = np.repeat([f._coeff_rows for f in corpus if len(f._coeff_rows) == width],
                          20, axis=0)
        back = _extend_rows(_split_rows(table, units_i[at], units_j[at]),
                            units_i[at], units_j[at])
        worst = _worst(_modulus_rows(back - table), worst)
    return PropositionResult("split", len(pairs), worst, 1e-14, worst <= 1e-14)


def _check_rep_formula(corpus, seed: int) -> PropositionResult:
    rng = rng_for(seed + 103)
    draws = np.empty((1000, 7))                # unit (x, y, z), point (w, x, y, z)
    for row in draws:
        unit, q = random_unit(rng), random_ball_point(rng)
        row[:] = unit.x, unit.y, unit.z, q.w, q.x, q.y, q.z
    table = _row_table([f._coeff_rows for f in corpus])[np.arange(1000) % len(corpus)]
    direct = _eval_rows(table, draws[:, 3:])
    viaslice = _rep_eval_rows(table, draws[:, :3], draws[:, 3:])
    worst = _worst(_modulus_rows(viaslice - direct)
                   / np.fmax(1.0, _modulus_rows(direct)))
    return PropositionResult("rep-formula", 1000, worst, 1e-11, worst <= 1e-11)


def _check_p_norms(corpus, params: FockParams,
                   units) -> tuple[PropositionResult, PropositionResult]:
    # the global norm is the largest sampled slice norm, so only the upper
    # sides can fail, and both rows take one ratio per function: the largest
    # sampled ||f||_{p,I}^p over the smallest
    p = params.p

    def ratio(vals):
        powered = vals ** p
        top = powered.max()
        return 1.0 if top < 1e-300 else float(top / powered.min())

    values, specs, rels = zip(*(_norms(f, units, params) for f in corpus))
    worst = _worst([ratio(vals) for vals in values])
    # a doubling is reported only where _norms compared grids
    detail = f"grid-doubling-rel={max(rels):.2e}" if "refinements" in specs[0] else ""
    instances = len(corpus) * len(units)
    sandwich_bound, pair_bound = 2.0 ** p, 2.0 ** max(p, 1.0)
    return (PropositionResult("norm-sandwich-p", instances, worst, sandwich_bound,
                              worst <= sandwich_bound + SLACK, detail),
            PropositionResult("slice-pair", instances, worst, pair_bound,
                              worst <= pair_bound + SLACK))


def _check_sup_norms(corpus, params: FockParams, units) -> PropositionResult:
    def one(found):
        # the ball sup is exact over the units, so lower tests the sampled
        # slice sups against an independent computation
        top = found.ball
        if top < 1e-300:
            return 1.0, 1.0
        return float(found.sups.max() / top), top / float(found.sups.min())

    results = _sup_over_rows([(f, units, True) for f in corpus], params.alpha,
                             params.radius, *SANDWICH_SUP_GRID)
    worst_lower, worst_upper = (_worst(col) for col in zip(*map(one, results)))
    instances = len(corpus) * len(units)
    ok = worst_upper <= 2.0 + SLACK and worst_lower <= 1.0 + SLACK
    return PropositionResult("norm-sandwich-sup", instances, worst_upper, 2.0,
                             ok, f"lower={worst_lower:.12f}")


def _check_dilation(corpus, params: FockParams) -> PropositionResult:
    subset = corpus[::10][:20]
    factors = (0.5, 0.9, 0.99)

    def one(vals):
        if _worst(vals) < 1e-12:
            return -math.inf  # already converged, nothing to order
        return _worst(np.diff(vals), -math.inf)

    worst = _worst([one(vals) for vals in _dilation_values(
        subset, params, factors, *CRITERIA_SUP_GRID)], -math.inf)
    return PropositionResult("dilation", len(subset) * len(factors), worst,
                             0.0, worst < 0.0)


def _check_derivative(corpus, params: FockParams) -> PropositionResult:
    # where d^t f is the zero series, 0 <= 0 + 0 certifies nothing: such
    # instances are counted as vacuous and kept out of the worst margin
    subset = corpus[:50]
    orders = (1, 2, 3)
    margins, vacuous = [], 0
    for order in orders:
        for rep in _derivative_reports(subset, order, params, *CRITERIA_SUP_GRID):
            if rep.vacuous:
                vacuous += 1
            else:
                margins.append(rep.sup_ratio - sum(rep.component_sups))
    worst = _worst(margins, -math.inf)
    return PropositionResult("derivative", len(subset) * len(orders), worst,
                             SLACK, worst <= SLACK, f"vacuous={vacuous}")


def _check_monomial(corpus, params: FockParams) -> PropositionResult:
    subset = corpus[:50]
    constant = 2.0 ** max(params.p, 1.0)
    ratios = []
    lows = [truncate(f, 5) for f in subset]
    results = _sup_over_rows([(low, [UNIT_I], False) for low in lows],
                             params.alpha, params.radius, fock.SUP_RADIAL,
                             fock.SUP_ANGULAR)
    for low, found in zip(lows, results):
        ssup = float(found.sups[0])
        if ssup < 1e-300:
            continue
        for k in range(1, low.degree + 1):
            mono = MultiMonomial((k,), low.coeffs[k])
            lhs = _monomial_sup(mono, params.alpha, params.radius)
            ratios.append(lhs / (constant * math.sqrt(k / 2.0) * ssup))
    worst = _worst(ratios)
    return PropositionResult("monomial", len(ratios), worst, 1.0,
                             worst <= 1.0 + SLACK)


# ---------------------------------------------------------------------------
# runner and report formatting
# ---------------------------------------------------------------------------

class _Worker:
    """task() in a forked child, whose result() returns its result or None.

    The child writes its pickled result to a pipe and leaves with os._exit,
    so it runs no exit handler and flushes none of the output buffers it
    inherited.  Its exit code is 0 only after a whole write, so result()
    returns None for a child that raised or died.  close() reaps the child
    on every path; a child whose result was not read is killed first.  When
    the pipe or the child cannot be made (OSError: a process or descriptor
    limit), the constructor closes what it opened and raises.
    """

    def __init__(self, task):
        read, write = os.pipe()
        with warnings.catch_warnings():
            # Python 3.12+ warns at a fork beside other threads.  Here they
            # are OpenBLAS's, which it stops before a fork, and fock's lane
            # pool, which the child forgets; the child takes no lock they hold.
            warnings.filterwarnings("ignore", r".*multi-threaded.*fork",
                                    DeprecationWarning)
            try:
                self.pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
        if self.pid == 0:
            status = 1
            try:
                os.close(read)
                with open(write, "wb") as pipe:
                    pipe.write(pickle.dumps(task()))
                status = 0
            finally:
                os._exit(status)
        os.close(write)
        self.read = read

    def result(self):
        with open(self.read, "rb") as pipe:
            self.read = None
            payload = pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return pickle.loads(payload) if os.waitstatus_to_exitcode(status) == 0 else None

    def close(self) -> None:
        if self.read is not None:
            os.close(self.read)
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)


def _run_rows(selected, corpus, params: FockParams, units,
              seed: int) -> list[PropositionResult]:
    """The selected rows but the sup row, one after another in this process."""
    results = []
    if "norm-sandwich-p" in selected or "slice-pair" in selected:
        results += [r for r in _check_p_norms(corpus, params, units) if r.name in selected]
    if "star" in selected:
        results.append(_check_star(corpus, seed))
    if "split" in selected:
        results.append(_check_split(corpus, seed))
    if "rep-formula" in selected:
        results.append(_check_rep_formula(corpus, seed))
    if "dilation" in selected:
        results.append(_check_dilation(corpus, params))
    if "derivative" in selected:
        results.append(_check_derivative(corpus, params))
    if "monomial" in selected:
        results.append(_check_monomial(corpus, params))
    return results


def run_verify(seed: int = 0, props=None, *, alpha: float = 1.0, p: float = 2.0,
               radius: float = 1.0, sphere_count: int = 64) -> list[PropositionResult]:
    """Run the selected propositions on the seeded corpus.

    The p rows take each function's slice norms as `norm` does: the closed
    form at p = 2, and at any other finite p Gauss-Legendre x trapezoid
    quadrature refined, as `norm` refines it, from fock's start grid.
    norm-sandwich-p's grid-doubling-rel is the largest relative change of a
    last doubling, printed only where grids were compared (not at p = 2,
    where no grid is built), and a function whose values do not stabilize
    raises GridTooCoarse.  Sup propositions search Chebyshev radii times
    uniform angles, SANDWICH_SUP_GRID, CRITERIA_SUP_GRID or fock's
    SUP_RADIAL x SUP_ANGULAR, and polish each best cell by regula falsi on
    the radial derivative (fock._sup_over_rows).  Any row's worst is NaN
    where one of its figures is (a NaN sup, round trip or point value, say),
    and the CLI refuses a NaN or +inf worst with exit 3.  The same seed and flags always produce the same results, and
    the same exception when rows raise, on any number of cores.  One runner takes
    every selected row but norm-sandwich-sup in this process, then that
    row last: the worker's when one was forked (the row is selected, the
    system has fork and two cores are usable) and sent it, else computed
    here, so the row's exception is raised here (see the module
    docstring).  p must be finite: the p-sandwich integrates |f|^p, and
    the sup norms have their own proposition.  props names propositions
    exactly, as a list or a comma separated string; an unknown name or an
    empty selection raises ValueError.
    """
    if not math.isfinite(p):
        raise ValueError(f"verify needs a finite p, got {p!r}")
    selected = _select(props)
    params = FockParams(alpha=alpha, p=p, radius=radius)
    corpus = standard_corpus(seed)
    units = default_sphere(sphere_count)

    worker = sup = None
    if ("norm-sandwich-sup" in selected and hasattr(os, "fork")
            and fock._usable_cores() >= 2):
        try:
            worker = _Worker(lambda: _check_sup_norms(corpus, params, units))
        except OSError:
            pass                    # a worker that cannot start is no worker
    try:
        results = _run_rows(selected, corpus, params, units, seed)
        if worker is not None:
            sup = worker.result()
    finally:
        if worker is not None:
            worker.close()
    if "norm-sandwich-sup" in selected:
        # no worker ran, or it raised or died and sent nothing: the row here, last
        results.append(sup if sup is not None else _check_sup_norms(corpus, params, units))
    return sorted(results, key=lambda r: r.name)


def format_text(results) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = (f"{r.name:<18} instances={r.instances:<6d} "
                f"worst={r.worst:.6e} bound={r.bound:.3e} {status}")
        if r.detail:
            line += f"  [{r.detail}]"
        lines.append(line)
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} propositions passed")
    return "\n".join(lines)


def results_to_dicts(results) -> list[dict]:
    return [asdict(r) for r in results]


def format_csv(results) -> str:
    lines = ["name,instances,worst,bound,passed"]
    for r in results:
        lines.append(f"{r.name},{r.instances},{r.worst!r},{r.bound!r},"
                     f"{str(r.passed).lower()}")
    return "\n".join(lines)
