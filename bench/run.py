"""Run one regfrac benchmark workload and print its metrics.

    python3 bench/run.py --workload eigen-ladder --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from ``src/``.  Before numpy or regfrac load, the process pins
BLAS to one thread and drops REGFRAC_TABLE_CACHE.  Then it:

* sets up five times from a cold table cache (near-table build plus the
  workload's masks) and reports the median as ``setup_s``;
* runs timed passes back to back, one caller in a closed loop, starting
  new ones until ``--seconds`` have passed (at least three passes), pass
  k at seed 1000 * seed + k, and reports the median pass as ``wall_s``;
* gates every operation of every pass (see workloads.py).

With ``--trace 1`` the set-ups are traced and pass 0 runs untraced,
traced, and traced again; the two traced runs must repeat every work
counter and every result exactly.  Further untraced/traced pairs measure
the tracing overhead.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every gate passed.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import (DETERMINISTIC, LAYERS, PER_LAYER_UNITS, Tracer,
                     pass_metrics, rebind)
from workloads import DIM, SIGMA, TABLE_DEPTH, TABLE_TOL, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREADS = 1
SETUP_REPEATS = 5
MIN_PASSES = 3
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid measurement."""


def pin_environment() -> None:
    threads = str(min(THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    os.environ.pop("REGFRAC_TABLE_CACHE", None)


def load_modules() -> dict:
    if not (ROOT / "src" / "regfrac" / "__init__.py").is_file():
        raise BenchError(f"no regfrac sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    return {name: importlib.import_module(f"regfrac.{name}") for name in LAYERS}


def pin_table(rf) -> None:
    """Every caller, the CLI included, builds and shares the benchmark's
    table instead of the default-depth one."""
    real = rf["gagliardo"].build_near_table

    @functools.wraps(real)
    def pinned(dim, sigma, *args, **kwargs):
        return real(dim, sigma, depth=TABLE_DEPTH, convergence_tol=TABLE_TOL)

    rebind(real, pinned)


def clear_table_caches(g) -> None:
    """Empty the in-process table caches, so that a set-up pays for a
    build as a new process does."""
    for name in ("_TABLE_CACHE", "_GAP_GEOMETRY_CACHE"):
        cache = getattr(g, name, None)
        if cache is not None:
            cache.clear()


def check_metric_names() -> None:
    """The metrics printed must be the ones BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["end_to_end"] + spec["per_layer"]}
    ours = {**END_TO_END_UNITS, **PER_LAYER_UNITS}
    if declared != ours:
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(declared.items()) ^ set(ours.items()))}")


def environment(args) -> dict:
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = None
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "nproc": os.cpu_count(),
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "table_depth": TABLE_DEPTH, "table_tol": TABLE_TOL,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


class Bench:
    def __init__(self, rf, workload, seed: int, seconds: float):
        self.rf = rf
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failures: list[str] = []     # failed operations
        self.mismatches: list[str] = []   # reruns at one seed that differ

    def setup(self, tracer: Tracer | None = None) -> list[float]:
        """Time SETUP_REPEATS cold set-ups; the last one stays in use."""
        g = self.rf["gagliardo"]
        times, previous = [], None
        for rep in range(SETUP_REPEATS):
            clear_table_caches(g)
            traced = tracer.installed(-1 - rep) if tracer \
                else contextlib.nullcontext()
            with traced:
                start = time.perf_counter()
                table = g.build_near_table(DIM, SIGMA)
                self.workload.setup(table)
                times.append(time.perf_counter() - start)
            if table is previous:
                raise BenchError("near table came from a cache; set-up "
                                 "would not measure a build")
            previous = table
        return times

    def one_pass(self, k: int, tracer: Tracer | None = None, run: int = 0):
        traced = tracer.installed(run) if tracer else contextlib.nullcontext()
        with traced:
            start = time.perf_counter()
            results = self.workload.run(1000 * self.seed + k)
            wall = time.perf_counter() - start
        for verdict in self.workload.check(results):
            self.attempted += 1
            if verdict is not None:
                self.failures.append(f"pass {k}: {verdict}")
        return wall, results

    def time_left(self, started: float) -> bool:
        return time.perf_counter() - started < self.seconds

    def measure(self) -> list[float]:
        walls: list[float] = []
        started = time.perf_counter()
        while len(walls) < MIN_PASSES or self.time_left(started):
            walls.append(self.one_pass(len(walls))[0])
        return walls

    def measure_traced(self, tracer: Tracer) -> dict:
        started = time.perf_counter()
        plain, plain_res = self.one_pass(0)
        first, first_res = self.one_pass(0, tracer, run=0)
        again, again_res = self.one_pass(0, tracer, run=1)
        metrics = pass_metrics(tracer.spans, 0, first)
        repeat = pass_metrics(tracer.spans, 1, again)
        fp = self.workload.fingerprint
        if not fp(plain_res) == fp(first_res) == fp(again_res):
            self.mismatches.append("pass 0: results differ between runs "
                                   "at one seed")
        for key in DETERMINISTIC:
            if metrics[key] != repeat[key]:
                self.mismatches.append(f"pass 0: counter {key} is "
                                       f"{metrics[key]}, then {repeat[key]}")
        overheads = [first - plain]
        k = 1
        # a further untraced/traced pair only if it ends within --seconds
        while (time.perf_counter() - started
               + 2 * statistics.median([plain, first, again]) < self.seconds):
            plain_k, _ = self.one_pass(k)
            traced_k, _ = self.one_pass(k, tracer, run=k + 1)
            overheads.append(traced_k - plain_k)
            k += 1
        # the set-ups' table and mask spans join the pass's own
        reps = [pass_metrics(tracer.spans, -1 - rep, 0.0)
                for rep in range(SETUP_REPEATS)]
        for key in ("gagliardo.table_s", "geometry.mask_s"):
            metrics[key] += statistics.median(r[key] for r in reps)
        metrics["gagliardo.table_calls"] += reps[-1]["gagliardo.table_calls"]
        metrics["gagliardo.assemble_peak_mb"] = tracer.assemble_peak_mb(0)
        metrics["untraced_wall_s"] = plain
        metrics["traced_wall_s"] = first
        metrics["tracing_overhead_s"] = statistics.median(overheads)
        name = f"spans-{self.workload.name}-{self.seed}.json"
        tracer.write(HERE / ".out" / name, runs=(0, -SETUP_REPEATS))
        return metrics


def run(args) -> tuple[Bench, dict]:
    pin_environment()
    rf = load_modules()
    check_metric_names()
    print(json.dumps({"environment": environment(args)}))
    pin_table(rf)
    workload = WORKLOADS[args.workload](
        rf, json.loads((HERE / "references.json").read_text()))
    bench = Bench(rf, workload, args.seed, args.seconds)
    try:
        tracer = Tracer(rf) if args.trace else None
        setups = bench.setup(tracer)
        if args.trace:
            values = bench.measure_traced(tracer)
        else:
            walls = bench.measure()
            print("set-ups: " + " ".join(f"{t:.4f}" for t in setups))
            print(f"passes: {len(walls)}, wall_s per pass: "
                  + " ".join(f"{w:.4f}" for w in walls))
            values = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(walls),
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    finally:
        workload.close()
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    return bench, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        bench, metrics = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for failure in bench.failures + bench.mismatches:
        print(f"FAILED {failure}", file=sys.stderr)
    correct = not bench.failures and not bench.mismatches
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": len(bench.failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
