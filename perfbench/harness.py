"""Measure one workload: set-up, closed loop or traced passes, checks, and
the result record. `run.py` pins BLAS before this module loads numpy.
Metric names and units come from BENCHMARK.json at the repository root."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import speed
import tracing
import workloads
from retline.tensor import OpCounter, count_ops

SETUP_REPEATS = 5
SETUP_SAMPLES = 3  # kernel samples on each side of a cold set-up


def machine(usable_cpus) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    cpu = ""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(usable_cpus),
        "pinned_cpu": min(usable_cpus),
        "cpu": cpu,
        "python": f"{platform.python_implementation()} "
                  f"{platform.python_version()}",
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def total_s(calls) -> float:
    return sum(c.seconds for c in calls)


def run_ops(wl, ctx, indices, failures) -> list:
    """Run the operations at `indices`; a raised exception is a failure."""
    calls = []
    for i in indices:
        try:
            op_calls, op_failures = wl.op(ctx, i)
        except Exception as exc:  # an operation that raises has failed
            op_calls, op_failures = [], [f"{type(exc).__name__}: {exc}"]
        calls += op_calls
        if op_failures:
            failures.append((i, op_failures))
    return calls


def fresh_workdir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def setup_only(name, seed, workdir) -> int:
    """What `--setup-only` runs in a fresh interpreter: make the inputs, load
    the weights and make the first, warm-up call."""
    wl = workloads.WORKLOADS[name]
    wl.warmup(wl.setup(seed, fresh_workdir(workdir)))
    return 0


def cold_setup_s(name, seed, workdir, root, sampler) -> tuple:
    """Seconds from starting a fresh interpreter to the end of its warm-up
    call: imports, inputs, weights and any first-call work, which a
    later run in the same process would no longer pay. Returns the wall
    seconds and the reference seconds, at the median kernel speed of
    samples taken just before and just after (speed.py)."""
    before = sampler.burst(SETUP_SAMPLES)
    start = time.perf_counter()
    subprocess.run([sys.executable, os.path.join(root, "perfbench", "run.py"),
                    "--workload", name, "--seed", str(seed), "--setup-only",
                    workdir], check=True)
    elapsed = time.perf_counter() - start
    after = sampler.burst(SETUP_SAMPLES)
    shutil.rmtree(workdir, ignore_errors=True)
    return elapsed, elapsed * speed.REF_KERNEL_S / statistics.median(
        before + after)


def timed_run(wl, seed, seconds, workdir, root, failures):
    """Cold set-ups, then this process's own set-up and warm-up call,
    then a closed loop for `seconds` that stops only at a whole cycle of
    inputs, so every line length is timed equally often. The kernel of
    speed.py is sampled on a timer during the loop and each call's time is
    converted to reference seconds. Returns (end-to-end values, context,
    calls, attempted, log of calls and kernel samples, wall-time
    values)."""
    sampler = speed.Sampler()
    setups = [cold_setup_s(wl.name, seed, workdir + "-cold", root, sampler)
              for _ in range(SETUP_REPEATS)]
    ctx = wl.setup(seed, fresh_workdir(workdir))
    wl.warmup(ctx)
    sampler.burst(SETUP_SAMPLES)
    calls, op_ends, start, i = [], [], time.perf_counter(), 0
    with sampler:
        while True:
            calls += run_ops(wl, ctx, [i], failures)
            op_ends.append(len(calls))
            i += 1
            if i % wl.cycle == 0 and time.perf_counter() - start >= seconds:
                break
    sampler.burst(SETUP_SAMPLES)
    for c in calls:
        c.seconds, c.ref_seconds = sampler.account(c.start, c.end)
    ops, first = [], 0
    for last in op_ends:
        ops.append([[c.label, c.start - start, c.end - start, c.seconds,
                     c.ref_seconds, c.items] for c in calls[first:last]])
        first = last
    log = {
        # per cold set-up: [wall s, reference s]
        "setups": setups,
        # per timed operation, per call: [label, start and end offsets in
        # s, wall s, reference s, items]
        "operations": ops,
        # per kernel sample: [start offset in s, s]
        "kernel_samples": [[t - start, s] for t, s in sampler.samples],
    }
    values = {
        "items_per_ref_s": workloads.per_s(calls, ref=True),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "setup_s": statistics.median(ref for _, ref in setups),
    }
    wall = {
        "items_per_s": (workloads.per_s(calls), "1/s"),
        "setup_wall_s": (statistics.median(w for w, _ in setups), "s"),
        "kernel_ms_median": (1e3 * statistics.median(
            s for _, s in sampler.samples), "ms"),
        "kernel_samples": (len(sampler.samples), "count"),
    }
    return values, ctx, calls, i, log, wall


def traced_run(wl, seed, workdir, failures, spans_path):
    """One set-up under spans, then the workload's fixed work five times: a
    warm-up, then untraced, traced, traced, untraced, so a steady drift
    cancels out of the overhead. Spans and op counts are kept from the set-up
    and the first traced pass. Returns (per-layer values, context, the first
    untraced pass's calls, attempted)."""
    tracer, counter = tracing.Tracer(), OpCounter()
    tracing.install(tracer)
    try:
        ctx = wl.setup(seed, fresh_workdir(workdir))
    finally:
        tracer.close()
    ops = range(wl.trace_ops)
    run_ops(wl, ctx, ops, failures)
    plain = run_ops(wl, ctx, ops, failures)
    tracing.install(tracer)
    try:
        with count_ops(counter):
            traced = run_ops(wl, ctx, ops, failures)
        kept = len(tracer.spans)
        traced_again = run_ops(wl, ctx, ops, failures)
    finally:
        tracer.close()
    del tracer.spans[kept:]
    plain_again = run_ops(wl, ctx, ops, failures)
    overhead = total_s(traced + traced_again) / total_s(plain + plain_again) - 1
    cli_lines = sum(c.items for c in traced) if wl.cli_decode else 0
    values = tracing.layer_metrics(tracer.spans, counter.snapshot(),
                                   total_s(plain), total_s(traced), overhead,
                                   cli_lines)
    tracing.write_spans(spans_path, tracer.spans)
    return values, ctx, plain, 5 * len(ops)


def run_workload(name, seed, seconds, trace, root) -> int:
    out = os.path.join(root, ".perfbench_out")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer" if trace else "end_to_end"]
    os.makedirs(out, exist_ok=True)
    # One CPU for this process and the set-ups it starts, so the kernel
    # samples of speed.py time the CPU the measured work runs on.
    usable_cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(usable_cpus)})
    wl = workloads.WORKLOADS[name]
    tag = f"{name}-seed{seed}-trace{trace}"
    workdir = os.path.join(out, f"{tag}-work")
    failures, log, wall = [], {}, {}
    try:
        if trace:
            values, ctx, calls, attempted = traced_run(
                wl, seed, workdir, failures,
                os.path.join(out, f"{tag}-spans.csv"))
        else:
            values, ctx, calls, attempted, log, wall = timed_run(
                wl, seed, seconds, workdir, root, failures)
        try:
            checks = wl.check(ctx)
            details = {**wall, **wl.details(ctx, calls)}
        except Exception as exc:  # a check that cannot run has failed
            checks, details = [f"check raised {type(exc).__name__}: {exc}"], {}
    except (OSError, ValueError, subprocess.CalledProcessError) as exc:
        print(f"error: {name} could not be set up or measured: {exc}",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}

    failed = len(failures)
    correct = failed == 0 and not checks
    labels = sorted({c.label for c in calls})
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine(usable_cpus), "correct": correct,
        "attempted": attempted, "failed": failed,
        "failures": [f"op {i}: {msg}" for i, msgs in failures for msg in msgs],
        "checks": checks, "metrics": metrics,
        "details": {k: {"value": v, "unit": u} for k, (v, u) in details.items()},
        "timed_calls": {label: sum(c.label == label for c in calls)
                        for label in labels},
        **log,
    }
    with open(os.path.join(out, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    print(f"{name} seed {seed} trace {trace}: {attempted} operations, "
          f"{failed} failed, checks {'pass' if correct else 'FAIL'}; timed "
          + ", ".join(f"{n} {k} calls"
                      for k, n in record["timed_calls"].items()))
    for msg in record["failures"][:5] + checks:
        print(f"  failure: {msg}")
    for key, m in list(metrics.items()) + list(record["details"].items()):
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    m = record["machine"]
    print(f"  machine: {m['nproc']} cpus ({m['cpu']}), {m['python']}, numpy "
          f"{m['numpy']}, {m['blas']}, BLAS threads {m['blas_threads']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0
