"""Benchmark for slicefock: one workload, one seed, one result line.

    python3 perfbench/run.py --workload verify|norm-refine|algebra \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The workload runs in a fresh child
process (perfbench/workloads.py), so peak memory is the workload's own.
SLICE_FOCK_THREADS is removed from the child's environment and OpenBLAS is
given as many threads as there are usable cores, whatever the caller's
environment says.  With --trace 0 the result holds the end-to-end metrics;
setup_s is the median over SETUP_SAMPLES set-ups, each in its own process,
taken before and after the measured one.  With --trace 1 it holds the
per-layer metrics of a traced run of the same batches and the tracing
overhead.  Human-readable lines, with the provenance, come first; the last
line of stdout is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when a result was printed, whether or not it is correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
# a run must end within 180 s; the slowest runs, verify's, take 45 to 60 s
# traced or not, which leaves about 3x headroom under this deadline
CHILD_TIMEOUT_S = 170.0
WORKLOADS = ("verify", "norm-refine", "algebra")


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the `end_to_end` or `per_layer` metrics in BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def blas_threads() -> int:
    """OpenBLAS thread count: the usable cores."""
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SLICE_FOCK_THREADS", None)
    env["OPENBLAS_NUM_THREADS"] = str(blas_threads())
    return env


def run_child(root: Path, args, setup_only: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    done = subprocess.run(cmd + ["--t0", repr(t0)], cwd=root, env=child_env(),
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - t0))
    if done.returncode != 0:
        raise RuntimeError(f"workload process exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def provenance(root: Path, args, child: dict, setups: int) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                capture_output=True, timeout=10).stdout.strip()
    except OSError:
        commit = ""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "slicefock").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit or "unavailable (not a git checkout)",
            "source_sha256": digest.hexdigest()[:16],
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": child["numpy"], "blas": child["blas"],
            "openblas_threads_cap": blas_threads(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "batches": child["batches"],
            "calls_per_batch": child["calls_per_batch"],
            "latency_samples": child["samples"],
            "setup_samples": setups}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="slicefock benchmark: prints metrics, last line JSON")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "slicefock" / "__init__.py").is_file():
        sys.stderr.write(f"error: {root} holds no src/slicefock; run from the "
                         "root of a slicefock checkout\n")
        return 2

    deadline = perf_counter() + CHILD_TIMEOUT_S
    try:
        # set-ups on both sides of the measured run, so that a slow phase of
        # the host at one end of the run does not decide the median
        extra = 0 if args.trace else SETUP_SAMPLES // 2
        setups = [run_child(root, args, True, deadline)["setup_s"]
                  for _ in range(extra)]
        child = run_child(root, args, False, deadline)
        setups.append(child["setup_s"])
        setups += [run_child(root, args, True, deadline)["setup_s"]
                   for _ in range(extra)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    print("provenance: " + json.dumps(provenance(root, args, child, len(setups)),
                                         sort_keys=True))
    base = f"{child['failed']}/{child['attempted']}"
    print(f"fail_ratio = {child['failed'] / child['attempted']!r} ({base} operations failed)")
    for problem in child["problems"]:
        print(f"  problem: {problem}")
    if args.trace:
        units = metric_units("per_layer")
        values = child["per_layer"]
        print(f"tracing overhead = {values['trace.overhead_s']!r} s per batch, "
              f"computed as spans and counted products times their measured "
              f"cost; per-layer values are per batch, and units ending in "
              f".computed are computed, not measured")
        for name, unit in units.items():
            print(f"  {name} = {values[name]!r} {unit}")
    else:
        units = metric_units("end_to_end")
        values = {**child, "setup_s": statistics.median(setups)}
        print(f"setup_s = {values['setup_s']!r} s (median of {len(setups)} "
              f"set-ups: {', '.join(f'{s:.3f}' for s in setups)})")
        print(f"wall_s = {values['wall_s']!r} s (median of {child['batches']} "
              f"batches of {child['calls_per_batch']} calls)")
        print(f"call_p50_ms = {values['call_p50_ms']!r} ms "
              f"({child['samples']} samples)")
        print(f"call_tail_ms = {values['call_tail_ms']!r} ms (p"
              f"{child['tail_percentile']:.1f} of {child['samples']} samples)")
        print(f"peak_rss_mb = {values['peak_rss_mb']!r} MiB")
        if child["host_scaled"]:
            print(f"  call times are scaled to the host-speed probe; wall_s as "
                  f"measured = {child['raw_wall_s']!r} s")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": child["failed"] == 0,
                      "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
