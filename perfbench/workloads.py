"""The three benchmark workloads and the process that measures one of them.

Each workload builds its inputs from the seed, makes one untimed warm-up
call, then runs a fixed batch of timed calls, one at a time (a closed loop
with a single client).  Every output is checked against an oracle after its
call returns, outside the timed region.

    verify       `slicefock verify --seed S --out json` with all defaults
    norm-refine  `slicefock norm F --p 1.5 --out json` over 18 function files
    algebra      star product, pointwise identities, split/extend, atomic
                 synthesis and the star exponential for each corpus function

run.py starts this file as a fresh process per measurement:

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --t0 T [--setup-only]

where T is the parent's time.perf_counter() just before the process was
started (CLOCK_MONOTONIC, shared by all processes), so setup time includes
interpreter start-up.  The process prints one JSON object on its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import oracles  # noqa: E402
from tracing import LAYERS, Tracer, event_costs  # noqa: E402
from slicefock import cli, corpus, kernels, series  # noqa: E402
from slicefock.kernels import AtomicData  # noqa: E402
from slicefock.quaternion import ImaginaryUnit, Quaternion  # noqa: E402

WORK_DIR = ROOT / ".bench_build" / "perfbench"


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def as_array(q: Quaternion) -> np.ndarray:
    return np.array([q.w, q.x, q.y, q.z])


def coeff_array(f) -> np.ndarray:
    return np.array([[c.w, c.x, c.y, c.z] for c in f.coeffs])


def quaternion_of(a: np.ndarray) -> Quaternion:
    return Quaternion(*(float(v) for v in a))


def too_far(got: np.ndarray, want: np.ndarray, tol) -> bool:
    """Whether any entry differs by more than tol (NaN counts as too far)."""
    return not np.all(np.abs(got - want) <= tol)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class Verify:
    """The certification run users launch, in-process through cli.main."""

    name = "verify"
    nominal_batch_s = 45.0
    host_scaled = False
    # the warm-up runs the cheap propositions; the timed run must repeat them
    # byte for byte
    WARM_PROPS = ("monomial", "rep-formula")
    UNITS = 64 + 3

    def __init__(self, seed: int, workdir: Path, limit: int | None = None):
        # one call per batch, so `limit` has nothing to shorten
        self.seed = seed
        self.corpus = corpus.standard_corpus(seed)
        count = len(self.corpus)
        self.expected = {
            "derivative": 50 * 3, "dilation": 20 * 3,
            "monomial": sum(min(f.degree, 5) for f in self.corpus[:50]),
            "norm-sandwich-p": count * self.UNITS,
            "norm-sandwich-sup": count * self.UNITS,
            "rep-formula": 1000, "slice-pair": count * self.UNITS,
            "split": count * 20,
        }
        self.reference: dict[str, str] = {}

    def argv(self, *extra: str) -> list[str]:
        return ["verify", "--seed", str(self.seed), "--out", "json", *extra]

    def warm_up(self) -> None:
        code, text = run_cli(self.argv("--props", ",".join(self.WARM_PROPS)))
        if code != 0:
            raise RuntimeError(f"warm-up verify exited {code}")
        self.reference = {row["name"]: json.dumps(row, sort_keys=True)
                          for row in json.loads(text)}

    def operations(self):
        yield (lambda: run_cli(self.argv())), self.check

    def check(self, output) -> list[str]:
        code, text = output
        rows = {row["name"]: row for row in json.loads(text)}
        problems = [] if code == 0 else [f"exit code {code}"]
        if len(rows) != 9 or not all(row["passed"] for row in rows.values()):
            problems.append("not 9/9 PASS: " + ", ".join(
                f"{n}={r['passed']}" for n, r in sorted(rows.items())))
        for name, count in self.expected.items():
            if rows.get(name, {}).get("instances") != count:
                problems.append(f"{name}: expected {count} instances")
        star = rows.get("star", {}).get("instances", 0)
        if not 0 < star <= 2000:
            problems.append(f"star: {star} instances outside (0, 2000]")
        for name, ref in self.reference.items():
            if json.dumps(rows.get(name), sort_keys=True) != ref:
                problems.append(f"{name}: report differs from the warm-up run")
        return problems


# ---------------------------------------------------------------------------
# norm-refine
# ---------------------------------------------------------------------------

# (real zeros, degree of the seeded zero-free factor).  A zero of f inside
# the disk makes |f|^1.5 non-smooth there, which sets how often the grid
# doubles: none gives 1 doubling, one zero at 0.3 gives 2, and zeros at
# +-0.97 give 3 (up to 512 x 1024).  The zero-free factor is a unit
# quaternion plus terms of total size <= 0.5, so the seed moves the values
# but not the doubling count, and a run's cost does not depend on the seed.
# Two doublings is the largest group, so the median and the tail of the call
# latency both fall inside it, well away from the much faster and much slower
# groups.
NORM_BATCH = ([((), d) for d in (2, 4, 6, 8, 10, 12)]
              + [((0.3,), d) for d in range(2, 12)]
              + [((0.97, -0.97), d) for d in (4, 8)])


def zero_template(rng: np.random.Generator, zeros, degree: int) -> np.ndarray:
    """Coefficients of prod_x (q - x) * (c + sum_k q^k b_k), shape (n, 4)."""
    c = rng.uniform(-1.0, 1.0, 4)
    coeffs = np.vstack([c / np.linalg.norm(c),
                        rng.uniform(-0.5 / degree, 0.5 / degree, (degree, 4))])
    for x in zeros:
        shifted = np.vstack([np.zeros(4), coeffs])
        shifted[:-1] -= x * coeffs
        coeffs = shifted
    return coeffs


class NormRefine:
    """The adaptive p-norm through the `norm` command, p = 1.5."""

    name = "norm-refine"
    nominal_batch_s = 11.0
    host_scaled = False
    P = 1.5
    START = (64, 128)

    def __init__(self, seed: int, workdir: Path, limit: int | None = None):
        rng = np.random.default_rng(seed)
        batch = NORM_BATCH[:limit]
        self.functions = [zero_template(rng, zeros, d) for zeros, d in batch]
        self.paths = [self._write(workdir / f"f{i:02d}.json", coeffs)
                      for i, coeffs in enumerate(self.functions)]
        self.warm_path = self._write(workdir / "warm.json",
                                     zero_template(rng, (), 4))

    @staticmethod
    def _write(path: Path, coeffs: np.ndarray) -> str:
        path.write_text(json.dumps({"n": 1, "radius": 1.0,
                                    "coeffs": coeffs.tolist()}) + "\n")
        return str(path)

    def argv(self, path: str) -> list[str]:
        return ["norm", path, "--p", repr(self.P), "--out", "json"]

    def warm_up(self) -> None:
        code, _ = run_cli(self.argv(self.warm_path))
        if code != 0:
            raise RuntimeError(f"warm-up norm exited {code}")

    def operations(self):
        for path, coeffs in zip(self.paths, self.functions):
            yield ((lambda path=path: run_cli(self.argv(path))),
                   (lambda output, coeffs=coeffs: self.check(coeffs, output)))

    def check(self, coeffs: np.ndarray, output) -> list[str]:
        code, text = output
        if code != 0:
            return [f"exit code {code}"]
        report = json.loads(text)
        grid = report["grid"]
        values = [v for _, v in report["per_slice"]]
        problems = []
        if report["value"] != max(values):
            problems.append(f"value {report['value']!r} != max(per_slice)")
        scale = 2 ** grid["refinements"]
        if (grid["radial"], grid["angular"]) != (self.START[0] * scale,
                                                 self.START[1] * scale):
            problems.append(f"final grid {grid} does not match its refinements")
        unit, worst = max(report["per_slice"], key=lambda uv: uv[1])
        want = oracles.slice_norm(coeffs, np.array(unit), self.P, 1.0, 1.0,
                                  grid["radial"], grid["angular"])
        if not abs(worst - want) <= 1e-9 * want:
            problems.append(f"worst slice {worst!r} != oracle {want!r}")
        return problems


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

ALPHA = 1.0
TRUNC = 32
BALL_POINTS = 8
EXP_PAIRS = 4
SYNTH_POINTS = 2
LATTICE_SPACING = 0.25      # 49 lattice points in the closed unit disk


def random_unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_ball_point(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=4)
    return v / np.linalg.norm(v) * rng.uniform() ** 0.25


def random_disk_point(rng: np.random.Generator) -> complex:
    r, t = math.sqrt(rng.uniform()), rng.uniform(0.0, 2.0 * math.pi)
    return complex(r * math.cos(t), r * math.sin(t))


def library_unit(v: np.ndarray) -> ImaginaryUnit:
    return ImaginaryUnit.normalized(*(float(x) for x in v))


class AlgebraCase:
    """Seeded inputs for one corpus function's bundle."""

    def __init__(self, rng: np.random.Generator):
        self.points = [random_ball_point(rng) for _ in range(BALL_POINTS)]
        self.rep_unit = library_unit(random_unit(rng))
        unit_i = random_unit(rng)
        v = rng.normal(size=3)
        unit_j = v - (v @ unit_i) * unit_i
        self.unit_i, self.unit_j = library_unit(unit_i), library_unit(unit_j)
        self.atom_unit = library_unit(random_unit(rng))
        atoms = kernels.lattice_points(LATTICE_SPACING, self.atom_unit, 1.0)
        self.atoms = AtomicData(tuple(atoms),
                                tuple(quaternion_of(rng.uniform(-1, 1, 4))
                                      for _ in atoms), ALPHA, TRUNC)
        self.synth_points = [random_ball_point(rng) for _ in range(SYNTH_POINTS)]
        exp_unit = random_unit(rng)
        self.exp_pairs = []
        for _ in range(EXP_PAIRS):
            z, w = random_disk_point(rng), random_disk_point(rng)
            self.exp_pairs.append((z, w, exp_unit))


class Algebra:
    """Scalar quaternion algebra in series, kernels and quaternion."""

    name = "algebra"
    nominal_batch_s = 7.0
    host_scaled = True

    def __init__(self, seed: int, workdir: Path, limit: int | None = None):
        self.corpus = corpus.standard_corpus(seed)[:limit]
        rng = np.random.default_rng([seed, 1])
        self.cases = [AlgebraCase(rng) for _ in self.corpus]
        self.inputs = [self._inputs(case) for case in self.cases]

    @staticmethod
    def _inputs(case: AlgebraCase):
        points = [quaternion_of(p) for p in case.points]
        pairs = [(quaternion_of(oracles.on_slice(np.array(z), u)),
                  quaternion_of(oracles.on_slice(np.array(w), u)))
                 for z, w, u in case.exp_pairs]
        return points, pairs

    def warm_up(self) -> None:
        self.bundle(0)

    def operations(self):
        for i in range(len(self.corpus)):
            yield ((lambda i=i: self.bundle(i)),
                   (lambda output, i=i: self.check(i, output)))

    def bundle(self, i: int) -> dict:
        f = self.corpus[i]
        g = self.corpus[(i + 1) % len(self.corpus)]
        case = self.cases[i]
        points, pairs = self.inputs[i]
        fg = series.star_mul(f, g)
        pointwise = []
        for q in points:
            moved = series.transform_point(f, q)
            pointwise.append((fg.eval(q), f.eval(q) * g.eval(moved), moved,
                              series.star_inverse_eval(f, moved),
                              series.rep_eval(f, case.rep_unit, q)))
        f1, f2 = series.split(f, case.unit_i, case.unit_j)
        return {"star": fg, "sym": series.symmetrization(f),
                "pointwise": pointwise,
                "round_trip": series.extend(f1, f2, case.unit_j),
                "synthesis": kernels.atomic_synthesis(case.atoms, case.atom_unit),
                "exp": [kernels.star_exp_eval(q, w, ALPHA, TRUNC) for q, w in pairs]}

    def check(self, i: int, out: dict) -> list[str]:
        f = coeff_array(self.corpus[i])
        g = coeff_array(self.corpus[(i + 1) % len(self.corpus)])
        case = self.cases[i]
        problems = []

        fg = oracles.convolve(f, g)
        if too_far(coeff_array(out["star"]), fg, 1e-12 * max(1.0, np.abs(fg).max())):
            problems.append("star_mul differs from the coefficient convolution")
        sym = oracles.convolve(f, oracles.conj(f))
        scale = max(1.0, np.abs(sym).max())
        got = coeff_array(out["sym"])
        if too_far(got, sym, 1e-12 * scale) or np.abs(got[:, 1:]).max() > 1e-12 * scale:
            problems.append("symmetrization is not f * f^c or not real")

        q = np.array(case.points)
        lhs, rhs, moved, recip, rep = (np.array([as_array(row[k]) for row in out["pointwise"]])
                                       for k in range(5))
        fq = oracles.horner(f, q)
        if too_far(moved, oracles.qmul(oracles.qmul(oracles.inv(fq), q), fq), 1e-12):
            problems.append("transform_point differs from f(q)^-1 q f(q)")
        want_lhs = oracles.horner(fg, q)
        want_rhs = oracles.qmul(fq, oracles.horner(g, moved))
        bound = 1e-10 * np.maximum(1.0, oracles.modulus(want_lhs))[:, None]
        if (too_far(lhs, want_lhs, bound) or too_far(rhs, want_rhs, bound)
                or too_far(want_lhs, want_rhs, bound)):
            problems.append("pointwise star formula fails")
        if too_far(oracles.qmul(fq, recip), oracles.ONE, 1e-9):
            problems.append("f(q) * star reciprocal(moved) != 1")
        if too_far(rep, fq, 1e-11 * np.maximum(1.0, oracles.modulus(fq))[:, None]):
            problems.append("rep_eval differs from direct evaluation")

        if too_far(coeff_array(out["round_trip"]), f, 1e-14):
            problems.append("split/extend round trip is not exact")

        points = np.array([as_array(p) for p in case.atoms.points])
        weights = np.array([as_array(a) for a in case.atoms.coeffs])
        q = np.array(case.synth_points)
        want = oracles.kernel_sum(q, points, weights, ALPHA, TRUNC)
        size = float(np.abs(weights).sum()) * math.e
        if too_far(oracles.horner(coeff_array(out["synthesis"]), q), want, 1e-12 * size):
            problems.append("synthesis differs from the sum of kernel terms")

        for (z, w, unit), got in zip(case.exp_pairs, out["exp"]):
            want = oracles.on_slice(np.array(np.exp(ALPHA * z * w.conjugate())), unit)
            tail = oracles.exp_tail_bound(oracles.on_slice(np.array(z), unit),
                                          oracles.on_slice(np.array(w), unit),
                                          ALPHA, TRUNC)
            if too_far(as_array(got), want,
                       tail + 1e-12 * max(1.0, float(oracles.modulus(want)))):
                problems.append("star exponential does not collapse to exp(a z wbar)")
        return problems


WORKLOADS = {cls.name: cls for cls in (Verify, NormRefine, Algebra)}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest rank with at least 10 samples above.

    With 10 samples or fewer no rank qualifies, and the maximum is reported
    as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Record:
    """Calls attempted and failed, with the first few problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.extend(problems[:2])


# On a shared host the speed of interpreted Python swings between 1x and
# about 2.2x within seconds, with the load of other tenants on the same cores;
# over a 20 s run that moved algebra's median latency by 20-40 % from run to
# run.  A fixed pure-Python loop (`probe`), timed just before each call,
# slows down with it, so a workload whose calls are pure Python
# (`host_scaled`) scales each call by REFERENCE_S / probe time: the call's
# latency at the speed where the probe takes REFERENCE_S.
PROBE_PRODUCTS = 3000
REFERENCE_S = 0.9e-3    # the probe on an unloaded core of a 2-vCPU Xeon host


def probe() -> float:
    """Seconds taken by PROBE_PRODUCTS Hamilton products on float tuples."""
    qw, qx, qy, qz = 0.5, 0.5, 0.5, 0.5
    aw, ax, ay, az = 1.0, 0.0, 0.0, 0.0
    start = perf_counter()
    for _ in range(PROBE_PRODUCTS):
        aw, ax, ay, az = (aw * qw - ax * qx - ay * qy - az * qz,
                          aw * qx + ax * qw + ay * qz - az * qy,
                          aw * qy - ax * qz + ay * qw + az * qx,
                          aw * qz + ax * qy - ay * qx + az * qw)
    return perf_counter() - start


class Batch:
    def __init__(self):
        self.wall = 0.0             # scaled, as the latencies
        self.raw_wall = 0.0         # as measured
        self.latencies: list[float] = []


def run_batch(workload, record: Record) -> Batch:
    batch = Batch()
    for call, check in workload.operations():
        scale = REFERENCE_S / probe() if workload.host_scaled else 1.0
        start = perf_counter()
        try:
            output = call()
        except Exception as exc:  # a failed call is counted, not fatal
            output, problems = None, [f"{type(exc).__name__}: {exc}"]
        elapsed = perf_counter() - start
        batch.raw_wall += elapsed
        batch.wall += scale * elapsed
        batch.latencies.append(scale * elapsed)
        if output is not None:
            try:
                problems = check(output)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        record.add(problems)
    return batch


def layer_metrics(counts: Counter, self_s: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json for one traced batch.

    `<layer>.self_s` sums the self time of every span of the layer,
    `<span>.self_s` and `<span>.calls` are those of one span name, and any
    other name is a count.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    for name in (m["name"] for m in spec["per_layer"]):
        head, _, kind = name.rpartition(".")
        if kind == "self_s" and head in LAYERS:
            metrics[name] = sum((v for k, v in self_s.items()
                                 if k.split(".", 1)[0] == head), 0.0)
        elif kind == "self_s":
            metrics[name] = self_s.get(head, 0.0)
        elif kind == "calls":
            metrics[name] = counts[head]
        else:
            metrics[name] = counts[name]
    return metrics


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def measure(name: str, seed: int, seconds: int, trace: bool, t0: float,
            setup_only: bool = False, limit: int | None = None) -> dict:
    """Set up one workload, run its batches and return what was measured.

    `seconds` fixes the number of batches through the workload's nominal
    batch time, so every run of one setting does the same work.  With
    `trace`, the batches run under a Tracer and the times are traced times.
    """
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR))
    try:
        workload = WORKLOADS[name](seed, workdir, limit)
        workload.warm_up()
        setup_s = perf_counter() - t0
        if setup_only:
            return {"setup_s": setup_s}
        batches = max(1, round(seconds / workload.nominal_batch_s))
        record = Record()
        runs, windows = [], []
        tracer = Tracer()
        with tracer if trace else contextlib.nullcontext():
            for _ in range(batches):
                start = tracer.mark()
                runs.append(run_batch(workload, record))
                windows.append(tracer.window(start, tracer.mark()))
        latencies_ms = [1000.0 * t for b in runs for t in b.latencies]
        tail_ms, tail_pct = tail(latencies_ms)
        result = {
            "setup_s": setup_s, "batches": batches,
            "calls_per_batch": len(runs[0].latencies),
            "wall_s": statistics.median(b.wall for b in runs),
            "raw_wall_s": statistics.median(b.raw_wall for b in runs),
            "host_scaled": workload.host_scaled,
            "call_p50_ms": statistics.median(latencies_ms),
            "call_tail_ms": tail_ms, "tail_percentile": tail_pct,
            "samples": len(latencies_ms)}
        if trace:
            tracer.write(WORK_DIR / f"spans-{name}-{seed}.jsonl")
            counts = windows[0][0]
            if any(c != counts for c, _ in windows):
                record.add(["traced counts differ between batches"])
            self_times = [t for _, t in windows]
            metrics = layer_metrics(counts, {
                k: statistics.median(t.get(k, 0.0) for t in self_times)
                for k in set().union(*self_times)})
            span_cost, product_cost = event_costs()
            metrics["trace.overhead_s"] = (
                counts["trace.spans"] * span_cost
                + (counts["quaternion.products"] + counts["quaternion.inverses"])
                * product_cost)
            metrics["trace.wall_s"] = result["wall_s"]
            result["per_layer"] = metrics
        result.update({
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "attempted": record.attempted, "failed": record.failed,
            "problems": record.problems, "numpy": np.__version__,
            "blas": blas_version()})
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.t0, args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
