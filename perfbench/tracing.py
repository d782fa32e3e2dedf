"""Spans around the public functions of each slicefock module.

A Tracer replaces every binding of a traced function (in every loaded
slicefock module, so callers that imported the name directly are covered
too) with a wrapper that records a span: name, start, end and the index of
the enclosing span.  Quaternion products and inverses are only counted,
because a span costs more than the product it would time.  The fock helpers
that evaluate on a grid and refine it are only counted too: their arguments
and results give the computed work counts.  The spans stay in memory until
the run ends; `window` derives counts and self times from them.
"""

from __future__ import annotations

import json
import statistics
import sys
import timeit
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("fock", "quadrature", "series", "kernels", "verify", "cli",
          "serialize")

# verify's per-proposition checks; `norm-sandwich-p` also computes `slice-pair`
PROPOSITION_CHECKS = {
    "_check_derivative": "derivative",
    "_check_dilation": "dilation",
    "_check_monomial": "monomial",
    "_check_p_norms": "norm-sandwich-p",
    "_check_sup_norms": "norm-sandwich-sup",
    "_check_rep_formula": "rep-formula",
    "_check_split": "split",
    "_check_star": "star",
}

QUADRATURE_METHODS = ("build", "points", "area_weights", "radial_arrays",
                      "angles", "integrate")


class Tracer:
    """Installs span wrappers on entry and removes them on exit."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            spans[index][1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, fn, wrapper) -> None:
        """Point every slicefock module attribute bound to fn at wrapper."""
        for name, module in list(sys.modules.items()):
            if name != "slicefock" and not name.startswith("slicefock."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    # -- installation ------------------------------------------------------

    def __enter__(self):
        from slicefock import (cli, fock, kernels, quadrature, quaternion,
                               serialize, series, verify)

        for module in (fock, series, kernels, serialize, verify):
            layer = module.__name__.rsplit(".", 1)[1]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if callable(fn) and not isinstance(fn, type):
                    self._rebind(fn, self._span(f"{layer}.{attr}", fn))
        for attr, prop in PROPOSITION_CHECKS.items():
            fn = getattr(verify, attr)
            self._rebind(fn, self._span(f"verify.{prop}", fn))
        self._rebind(cli.main, self._span("cli.main", cli.main))

        series_cls = series.SliceSeries
        self._set(series_cls, "eval",
                  self._span("series.eval", series_cls.__dict__["eval"]))

        grid_cls = quadrature.QuadratureGrid
        for attr in QUADRATURE_METHODS:
            raw = grid_cls.__dict__[attr]
            if attr == "build":
                self._set(grid_cls, attr,
                          classmethod(self._span("quadrature.build",
                                                 self._counting_build(raw.__func__))))
            else:
                self._set(grid_cls, attr, self._span(f"quadrature.{attr}", raw))

        quat = quaternion.Quaternion
        counts = self.counts
        mul, inverse = quat.__dict__["__mul__"], quat.__dict__["inverse"]

        def counted_mul(a, b):
            if type(b) is quat:
                counts["quaternion.products"] += 1
            return mul(a, b)

        def counted_inverse(a):
            counts["quaternion.inverses"] += 1
            return inverse(a)

        self._set(quat, "__mul__", counted_mul)
        self._set(quat, "inverse", counted_inverse)

        evaluate, refine = fock._slice_norms_on_grid, fock._refine_norms
        self._rebind(evaluate, self._counting_evaluation(evaluate))
        self._rebind(refine, self._counting_refinement(refine))
        return self

    def _counting_build(self, build):
        def counted(cls, *args, **kwargs):
            grid = build(cls, *args, **kwargs)
            self.counts["quadrature.grids_built"] += 1
            self.counts["quadrature.points_built"] += (grid.radial_count
                                                       * grid.angular_count)
            return grid
        return counted

    def _counting_evaluation(self, evaluate):
        """Work of one batched slice evaluation, computed from its arguments.

        A point is one grid node on one unit; it costs 8 flops (one complex
        multiply-add) per coefficient for each of the 2 split components.
        """
        counts = self.counts

        def counted(f, units, params, grid):
            points = len(units) * grid.radial_count * grid.angular_count
            counts["fock.points_evaluated"] += points
            counts["fock.eval_flops"] += 16 * (f.degree + 1) * points
            return evaluate(f, units, params, grid)
        return counted

    def _counting_refinement(self, refine):
        """Grid doublings of the adaptive p-norm loop, from its result."""
        counts = self.counts

        def counted(*args):
            result = refine(*args)
            counts["fock.refinements"] += result[3]
            return result
        return counted

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        return False

    # -- results -----------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        return len(self.spans), Counter(self.counts)

    def window(self, start: tuple[int, Counter], end: tuple[int, Counter]):
        """Counts and self times of the spans recorded between two marks.

        Counts hold calls per span name, the quaternion and grid counters and
        `trace.spans`.  A span's self time is its duration minus its direct
        children's; children of a span in the window are in the window too.
        """
        lo, hi = start[0], end[0]
        spans = self.spans[lo:hi]
        counts = end[1] - start[1]
        counts.update(name for name, *_ in spans)
        counts["trace.spans"] = len(spans)
        inner = [0.0] * len(spans)
        for _, begin, finish, parent in spans:
            if parent >= lo:
                inner[parent - lo] += finish - begin
        self_s: dict[str, float] = defaultdict(float)
        for (name, begin, finish, _), covered in zip(spans, inner):
            self_s[name] += (finish - begin) - covered
        return counts, dict(self_s)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def event_costs(calls: int = 10000, rounds: int = 9) -> tuple[float, float]:
    """Seconds that one span and one counted quaternion product add.

    Each round times `calls` no-op calls and products untraced and then
    traced, back to back; each cost is the median over the rounds of the
    difference per call, so that a slow phase of the host cancels out.
    """
    from slicefock.quaternion import Quaternion

    probe = Tracer()
    q = Quaternion(0.5, 0.5, 0.5, 0.5)

    def noop():
        return None

    def product():
        return q * q

    span = probe._span("probe", noop)
    span_costs, product_costs = [], []
    for _ in range(rounds):
        bare_span = timeit.timeit(noop, number=calls)
        bare_product = timeit.timeit(product, number=calls)
        with probe:
            traced_span = timeit.timeit(span, number=calls)
            traced_product = timeit.timeit(product, number=calls)
        probe.spans.clear()
        span_costs.append((traced_span - bare_span) / calls)
        product_costs.append((traced_product - bare_product) / calls)
    return statistics.median(span_costs), statistics.median(product_costs)
