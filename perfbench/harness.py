"""Untraced and traced benchmark runs of one workload.

The untraced run gives the end-to-end metrics: it sets up several times,
each in a fresh process, and reports the median set-up time; then it makes
passes at ``--threads 2`` until the measuring time is used up, and reports
the median pass rate.  Both are in reference seconds, read off the speed
meter that runs beside them (see ``probe.py``).

The traced run gives the per-layer metrics: it runs at ``--threads 1`` so
that no worker process hides a call, and measures one untraced pass, one
traced pass, the scalar micro-benchmarks and the process pool's speedup.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import mpmath
import numpy

import micro
import spans
from coldsetup import cold_setup
from probe import SpeedMeter
from hypersphere_lab import cli, constructions, counting, geometry, scalars
from workloads import THREADS, Op, Workload, load

# set-up repeats at least SETUP_MIN_REPS times, and on while it has taken
# less than SETUP_SECONDS, up to SETUP_MAX_REPS times; a cheap set-up so
# gets more repetitions than an expensive one
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 7
SETUP_SECONDS = 10.0
# a coset-cyclo pass takes longer than the measuring time; a run still
# makes at least this many passes
MIN_PASSES = 2
# time outside every program span may be at most this share of a traced pass
BENCH_SHARE_MAX = 0.01


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics of
    BENCHMARK.json, the one list of what a run reports."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@dataclass
class PassResult:
    work: int
    attempted: int
    # perf_counter (start, end) of each operation
    intervals: list
    failures: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(t1 - t0 for t0, t1 in self.intervals)

    def ref_seconds(self, meter: SpeedMeter) -> float:
        return sum(meter.ref_seconds(t0, t1) for t0, t1 in self.intervals)


def execute(ops: list[Op]) -> list[tuple]:
    """Run the ops in order; (op, output, (start, end), error) for each."""
    raw = []
    for op in ops:
        t0 = perf_counter()
        try:
            out, err = op.call(), None
        except Exception as exc:  # a raising operation is a failed one
            out, err = None, f"{type(exc).__name__}: {exc}"
        raw.append((op, out, (t0, perf_counter()), err))
    return raw


def judge(raw: list[tuple]) -> PassResult:
    failures = []
    for op, out, _, err in raw:
        why = err or op.check(out)
        if why:
            failures.append(f"{op.label}: {why}")
    return PassResult(sum(r[0].work for r in raw), len(raw), [r[2] for r in raw], failures)


def run_pass(wl: Workload, threads: int) -> PassResult:
    return judge(execute(wl.ops(threads)))


def peak_rss_mb() -> float:
    """Largest of this process and its largest waited-for child (Linux: KiB)."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024


def tail_percentile(samples: list[float]):
    """Highest of p99/p90 with at least ten samples beyond it, else None."""
    for p in (99, 90):
        if len(samples) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100)[p - 1]
    return None


def run_untraced(wl: Workload, seconds: float) -> dict:
    with SpeedMeter() as meter:
        setups = []
        start = perf_counter()
        while len(setups) < SETUP_MIN_REPS or (
                len(setups) < SETUP_MAX_REPS and perf_counter() - start < SETUP_SECONDS):
            setups.append(cold_setup(wl))
        wl.warm_up()
        wl.prepare()
        passes = []
        start = perf_counter()
        while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
            passes.append(run_pass(wl, THREADS))
    rates = [p.work / p.ref_seconds(meter) for p in passes]
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    return {
        "metrics": {
            "work_per_s": statistics.median(rates),
            "setup_s": statistics.median(meter.ref_seconds(*s) for s in setups),
            "peak_rss_mb": peak_rss_mb(),
        },
        "attempted": attempted,
        "failures": failures,
        "checks": [],
        "detail": {
            "passes": len(passes),
            "work_per_pass": passes[0].work,
            "tail_percentile": tail_percentile(rates),
            "wall_work_per_s": statistics.median(p.work / p.seconds for p in passes),
            "pass_wall_s": [p.seconds for p in passes],
            "pass_ref_s": [p.ref_seconds(meter) for p in passes],
            "setup_wall_s": [t1 - t0 for t0, t1 in setups],
            "speed_samples": len(meter.samples),
        },
    }


def pool_speedup(wl: Workload) -> tuple[float, int, list]:
    """Spectrum time at 1 thread over time at THREADS on the largest input."""
    largest = wl.largest()
    if largest is None:
        return 0.0, 0, []
    path, expected = largest
    ps = load(path)
    times, failures = [], []
    for threads in (1, THREADS):
        t0 = perf_counter()
        spec = counting.spectrum(ps, threads=threads)
        times.append(perf_counter() - t0)
        if spec.counts != expected:
            failures.append(f"spectrum threads={threads}: {spec.counts} != {expected}")
    return times[0] / times[1], 2, failures


def closed_expressions(wl: Workload) -> dict:
    """Counter values one pass must produce, from the expected spectra."""
    cases = wl.spectra()
    return {
        "counting.subsets": sum(math.comb(c.n, c.r) for c in cases),
        "counting.incidence_tests": sum(math.comb(c.n, c.r) * (c.n - c.r) for c in cases),
        "counting.incidence_hits": sum(
            nm * math.comb(m, c.r) * (m - c.r) for c in cases for m, nm in c.counts.items()),
    }


def layer_metrics(pass_sum: dict, setup_sum: dict) -> dict:
    names, agg, layers = pass_sum["names"], pass_sum["agg"], pass_sum["layers"]

    def name(key, field_):
        return names.get(key, {}).get(field_, 0)

    def counted(key, field_):
        return agg.get(key, {}).get(field_, 0)

    cof_calls = name("geometry.maximal_cofactors", "calls")
    tests = counted("scalars.is_zero", "calls")
    hits = counted("scalars.is_zero", "true")
    return {
        "scalars.mul_calls": counted("scalars.mul", "calls"),
        "scalars.mul_s": counted("scalars.mul", "s"),
        "scalars.add_calls": counted("scalars.add", "calls"),
        "scalars.add_s": counted("scalars.add", "s"),
        "scalars.self_s": layers.get("scalars", 0.0),
        "geometry.cofactor_calls": cof_calls,
        "geometry.cofactor_s": name("geometry.maximal_cofactors", "self_s"),
        "geometry.cofactor_us": (
            name("geometry.maximal_cofactors", "incl_s") / cof_calls * 1e6 if cof_calls else 0.0),
        "geometry.general_position_s": (
            setup_sum["names"].get("geometry.general_position", {}).get("incl_s", 0.0)),
        "geometry.lift_set_s": name("geometry.lift_set", "incl_s"),
        "geometry.load_s": name("geometry.load", "incl_s"),
        "geometry.self_s": layers.get("geometry", 0.0),
        "counting.spectrum_s": (
            name("counting.spectrum", "incl_s") + name("counting.hyperplane_spectrum", "incl_s")),
        "counting.self_s": layers.get("counting", 0.0),
        "counting.subsets": pass_sum["tagged"].get("subset", 0),
        "counting.incidence_tests": tests,
        "counting.incidence_hits": hits,
        "counting.hit_ratio": hits / tests if tests else 0.0,
        "constructions.generate_s": (
            setup_sum["names"].get("constructions.generate", {}).get("incl_s", 0.0)),
        "constructions.oracle_s": name("constructions.oracle", "incl_s"),
        "constructions.self_s": layers.get("constructions", 0.0),
        "cli.self_s": layers.get("cli", 0.0),
        "trace.pass_s": pass_sum["duration_s"],
    }


def run_traced(wl: Workload, spans_path: str | None = None) -> dict:
    modules = (cli, constructions, counting, geometry, scalars)
    tracer = spans.Tracer()
    patches = spans.install(tracer, *modules)
    try:
        setup_root = tracer.open("bench.setup")
        wl.setup()
        wl.warm_up()
        tracer.close(setup_root)
    finally:
        patches.restore()
    wl.prepare()
    scalar_us = micro.scalar_metrics(wl.seed)

    # both passes are timed in reference seconds, so that CPU speed drift
    # between them does not show as tracing overhead
    with SpeedMeter() as meter:
        untraced = run_pass(wl, 1)
        patches = spans.install(tracer, *modules)
        try:
            root = tracer.open("bench.pass")
            raw = execute(wl.ops(1))
            tracer.close(root)
        finally:
            patches.restore()
    traced = judge(raw)
    speedup, pool_ops, pool_failures = pool_speedup(wl)

    pass_sum = spans.summarize(tracer, root)
    metrics = layer_metrics(pass_sum, spans.summarize(tracer, setup_root))
    metrics.update(scalar_us)
    metrics["counting.pool_speedup"] = speedup
    metrics["trace.overhead"] = traced.ref_seconds(meter) / untraced.ref_seconds(meter)

    expected = closed_expressions(wl)
    checks = []
    for key, want in expected.items():
        if metrics[key] != want:
            checks.append(f"{key} = {metrics[key]}, closed expression gives {want}")
    if metrics["geometry.cofactor_calls"] != metrics["counting.subsets"]:
        checks.append("maximal_cofactors ran outside the subset walk during the pass")
    # self times add up to the pass by construction; what can go wrong is a
    # call counted twice (a negative self time), a public entry point left
    # unpatched (its time lands in the benchmark's own span), or a root span
    # that does not hold the operations
    if pass_sum["min_self_s"] < -1e-9:
        checks.append(f"a span has negative self time {pass_sum['min_self_s']}")
    pass_s = metrics["trace.pass_s"]
    bench_s = pass_sum["layers"].get("bench", 0.0)
    if bench_s > BENCH_SHARE_MAX * pass_s:
        checks.append(f"{bench_s} s of the {pass_s} s pass ran outside every program span")
    if abs(pass_s - traced.seconds) > BENCH_SHARE_MAX * traced.seconds:
        checks.append(f"traced pass spans {pass_s} s, its operations took {traced.seconds} s")
    if spans_path:
        tracer.write(spans_path)
    return {
        "metrics": metrics,
        "attempted": untraced.attempted + traced.attempted + pool_ops,
        "failures": untraced.failures + traced.failures + pool_failures,
        "checks": checks,
        "detail": {
            "threads": 1,
            "untraced_pass_s": untraced.seconds,
            "traced_pass_s": traced.seconds,
            "layer_self_s": pass_sum["layers"],
            "bench_self_s": bench_s,
            "closed_expressions": expected,
            "spans": len(tracer.spans),
        },
    }


def git_rev(root: str) -> str:
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def stamp(root: str, wl: Workload) -> dict:
    return {
        "workload": wl.name,
        "seed": wl.seed,
        "seed_note": (
            "seeds trivial_config" if wl.seeded
            else "unused: this workload is deterministic by construction"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "start_method": multiprocessing.get_start_method(),
        "git_rev": git_rev(root),
        "platform": platform.platform(),
    }
