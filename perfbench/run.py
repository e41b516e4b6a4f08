#!/usr/bin/env python3
"""leanformer benchmark: closed-loop workloads, checked outputs, named metrics.

Run from the repository root; the package is imported from ./src.

    python3 perfbench/run.py --workload table2-forward --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 10
    python3 perfbench/run.py --workload train-copy --seed 1 --seconds 20 --trace 1

One process runs one caller per workload, which sends its next operation
only after the previous one returned, and checks every output. `--trace 0`
measures the end-to-end metrics with tracing off. `--trace 1` is the
per-module traced run: whichever benchmark workload is named, it drives
every benchmark workload (and the named one) in turn, each operation once
traced and once plain, and reports per-layer numbers plus the tracing
overhead. `--workload all` runs each workload in turn untraced. Before
numpy loads, BLAS is pinned to one thread and glibc's malloc thresholds
are fixed; the host block records both.

Every result is printed as a table with units and sample counts, followed
by the host block and, as the last line, one JSON object with the keys
correct, attempted, failed and metrics. Result records and span files go
to perfbench/out/. The exit code is 0 when every check passed, 1 when a
check failed and 2 when the package cannot be found or an argument is bad.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# glibc mallopt parameters and the values the benchmark fixes them at.
# Left dynamic, malloc's thresholds depend on the process's allocation
# history: some runs then mmap, fault in and unmap about 4 MB per
# compress-roundtrip op and run 1.5-2x slower than others with the same code.
# Fixed at glibc's ceiling, arrays below 32 MB come from the heap and the
# heap is not trimmed, the state a long-running process settles in.
MALLOC_PINS = {"M_TRIM_THRESHOLD": (-1, 64 << 20), "M_MMAP_THRESHOLD": (-3, 32 << 20)}

# the workloads BENCHMARK.json lists; gradcheck-tiny is left out because
# grad_check reports more than 1e-4 on some seeds (see CHANGES.md)
BENCH_WORKLOADS = ("table2-forward", "train-copy", "compress-roundtrip")

# name -> unit; the first five are the end-to-end metrics of BENCHMARK.json,
# the last two are printed but not declared there (see CHANGES.md)
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_alloc_mb": "MB",
    "tokens_per_s": "1/s",
    "error_rate": "ratio",
}
DECLARED_END_TO_END = ("setup_s", "op_p50_ms", "op_p90_ms", "ops_per_s", "peak_alloc_mb")

PER_LAYER_UNITS = {"calls": "count", "ms": "ms", "us": "us", "mb": "MB",
                   "written": "bytes", "coverage": "ratio", "ratio": "ratio", "sparsity": "ratio"}

MIN_OPS = 100  # so that at least ten samples lie beyond p90
WARMUP_OPS = 3
SETUP_ROUNDS = 7
PEAK_OPS = 3
MAX_SECONDS = 120
PROFILER_ROUNDS = 5
PROFILER_REPS = 20

# what the traced run wraps inside leanformer.model: the numerics helpers it
# imports, and the model functions that other model functions call
NUMERICS_NAMES = ("matmul", "relu", "softmax_rows", "rng_uniform_array")
MODEL_NAMES = ("model_forward", "loss_and_grads", "batch_loss")

IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy, leanformer.cli; "
                "print(time.perf_counter() - t)")


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from the last word of its second part."""
    return PER_LAYER_UNITS[name.split(".")[1].rsplit("_", 1)[-1]]


class Tally:
    """Operations attempted and failed: each failure's message, the first one's traceback."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.first_traceback = ""

    def run(self, wl, i: int, call=None) -> None:
        """Run and check op i of `wl`; `call(i)`, when given, does both itself."""
        self.attempted += 1
        try:
            if call is None:
                wl.check(i, wl.op(i))
            else:
                call(i)
        except Exception as exc:  # a failed op is counted, the run goes on
            self.failures.append(f"{wl.name} op {i}: {type(exc).__name__}: {exc}")
            self.first_traceback = self.first_traceback or traceback.format_exc()


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter, as a user pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def set_up(name: str, seed: int, tally: Tally):
    """Build the workload SETUP_ROUNDS times; returns the last one and each round's seconds."""
    import workloads

    wl, seconds = None, []
    for _ in range(SETUP_ROUNDS):
        imported = import_seconds()
        if wl is not None:
            wl.close()
        t0 = time.perf_counter()
        wl = workloads.WORKLOADS[name](seed, OUT)
        for i in range(WARMUP_OPS):
            tally.run(wl, i)
        seconds.append(imported + time.perf_counter() - t0)
    return wl, seconds


def peak_alloc_mb(wl, first_op: int, tally: Tally) -> float:
    """Median tracemalloc peak of PEAK_OPS operations, each in its own untimed pass."""
    peaks = []

    def traced(i):
        tracemalloc.start()
        try:
            out = wl.op(i)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        wl.check(i, out)

    for k in range(PEAK_OPS):
        tally.run(wl, first_op + k, traced)
    return statistics.median(peaks) / 1e6


def measure(wl, seconds: float, first_op: int, tally: Tally) -> list[float]:
    """Closed loop for `seconds` (and at least MIN_OPS ops); returns op latencies in s."""
    latencies = []

    def timed(i):
        t0 = time.perf_counter()
        out = wl.op(i)
        latencies.append(time.perf_counter() - t0)
        wl.check(i, out)

    start = time.perf_counter()
    i = first_op
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(latencies) >= MIN_OPS) or elapsed >= MAX_SECONDS:
            break
        tally.run(wl, i, timed)
        i += 1
    return latencies


def run_workload(name: str, seed: int, seconds: float) -> dict:
    from benchstats import error_rate, percentile

    tally = Tally()
    wl, setup_rounds = set_up(name, seed, tally)
    try:
        peak = peak_alloc_mb(wl, WARMUP_OPS, tally)
        wl.begin()
        lat = measure(wl, seconds, WARMUP_OPS + PEAK_OPS, tally)
        checks = wl.run_checks()
    finally:
        wl.close()
    metrics = {
        "setup_s": (statistics.median(setup_rounds), len(setup_rounds)),
        "op_p50_ms": (1e3 * percentile(lat, 50), len(lat)),
        "op_p90_ms": (1e3 * percentile(lat, 90), len(lat)),
        "ops_per_s": (len(lat) / sum(lat), len(lat)),
        "peak_alloc_mb": (peak, PEAK_OPS),
    }
    if wl.tokens_per_op:
        metrics["tokens_per_s"] = (wl.tokens_per_op * len(lat) / sum(lat), len(lat))
    metrics["error_rate"] = (error_rate(len(tally.failures), tally.attempted), tally.attempted)
    return {"workload": name, "metrics": metrics, "units": END_TO_END, "checks": checks,
            "tally": tally, "samples": {"op_s": lat, "setup_s": setup_rounds}}


def profiler_metrics(seed: int) -> tuple[dict, dict]:
    """Untraced profiler.time_forward on both presets, interleaved, plus the memory pair."""
    from leanformer import model as M, profiler
    from workloads import BASELINE, BATCH, PAPER_GATE, REDUCED, SEQ

    models = {n: (M.init_params(M.PRESETS[n], seed), M.PRESETS[n]) for n in (BASELINE, REDUCED)}
    medians = {n: [] for n in models}
    for r in range(PROFILER_ROUNDS):
        for n in (BASELINE, REDUCED) if r % 2 == 0 else (REDUCED, BASELINE):
            params, cfg = models[n]
            stats = profiler.time_forward(params, cfg, BATCH, SEQ, reps=PROFILER_REPS, warmup=2)
            medians[n].append(stats.median)
    base, red = statistics.median(medians[BASELINE]), statistics.median(medians[REDUCED])
    params, cfg = models[BASELINE]
    batch = [[t % cfg.vocab_size for t in range(k, k + SEQ)] for k in range(BATCH)]
    peaks = []
    for _ in range(PEAK_OPS):
        tracemalloc.start()
        try:
            M.model_forward(params, cfg, batch)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
    metrics = {
        "profiler.baseline_fwd_p50_ms": (1e3 * base, PROFILER_ROUNDS),
        "profiler.reduced_fwd_p50_ms": (1e3 * red, PROFILER_ROUNDS),
        "profiler.reduced_time_ratio": (red / base, PROFILER_ROUNDS),
        "profiler.activation_mb": (profiler.activation_bytes(cfg, BATCH, SEQ) / 1e6, 1),
        "profiler.forward_peak_mb": (statistics.median(peaks) / 1e6, PEAK_OPS),
    }
    checks = {"paper_gate": (red / base <= PAPER_GATE,
                             f"profiler reduced/baseline median {red / base:.3f} "
                             f"(must be <= {PAPER_GATE})")}
    return metrics, checks


def traced_op(tracer, wl, i: int) -> tuple[float, dict[str, float]]:
    """Run, check and trace op i of `wl`; returns the op's traced ms and its layer metrics."""
    import workloads
    from leanformer import model as M
    from spans import ms

    wl.span = tracer.span
    tracer.begin(wl.name, i)
    try:
        with tracer.patched(M, NUMERICS_NAMES, "numerics"), tracer.patched(M, MODEL_NAMES, "model"):
            with tracer.span("op"):
                out = wl.op(i)
            wl.check(i, out)
            wl.traced_extra(i, out)
    finally:
        wl.span = workloads.no_span
        spans = tracer.end()
    return ms(spans.named("op")), wl.layer_metrics(i, out, spans)


def traced_run(named: str, seed: int, seconds: float) -> dict:
    """Per-module traced run over the benchmark workloads (and `named`)."""
    import workloads
    from spans import Tracer

    tally = Tally()
    names = list(dict.fromkeys([*BENCH_WORKLOADS, named]))
    wls = {}
    try:
        for n in names:
            wls[n] = workloads.WORKLOADS[n](seed, OUT)
            for i in range(WARMUP_OPS):
                tally.run(wls[n], i)
        tracer = Tracer()
        per_op = defaultdict(list)
        op_ms = {n: {"traced": [], "plain": []} for n in names}

        def traced(wl):
            def call(i):
                t, layer = traced_op(tracer, wl, i)
                op_ms[wl.name]["traced"].append(t)
                for key, value in layer.items():
                    per_op[key].append(value)
            return call

        def plain(wl):
            def call(i):
                t0 = time.perf_counter()
                out = wl.op(i)
                op_ms[wl.name]["plain"].append(1e3 * (time.perf_counter() - t0))
                wl.check(i, out)
            return call

        start = time.perf_counter()
        i, rounds = WARMUP_OPS, 0
        while True:
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and rounds >= 10) or elapsed >= MAX_SECONDS:
                break
            for wl in wls.values():
                for mode in (traced, plain) if rounds % 2 == 0 else (plain, traced):
                    tally.run(wl, i, mode(wl))
                    i += 1
            rounds += 1
    finally:
        for wl in wls.values():
            wl.close()

    metrics = {k: (statistics.median(v), len(v)) for k, v in sorted(per_op.items())}
    prof, checks = profiler_metrics(seed)
    metrics.update(prof)
    for n in names:
        t, p = op_ms[n]["traced"], op_ms[n]["plain"]
        if t and p:
            metrics[f"trace.overhead_ms.{n}"] = (statistics.median(t) - statistics.median(p), len(t))
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{named}-seed{seed}.jsonl"
    tracer.write(spans_path)
    units = {k: per_layer_unit(k) for k in metrics}
    return {"workload": named, "traced": names, "metrics": metrics, "units": units,
            "checks": checks, "tally": tally, "spans_file": str(spans_path.relative_to(ROOT))}


def pin_malloc() -> dict | None:
    """Fix glibc's malloc thresholds; returns the values set, or None off glibc."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    pinned = {}
    for name, (param, value) in MALLOC_PINS.items():
        if mallopt(param, value) != 1:
            return None
        pinned[name] = value
    return pinned


def host_block(malloc: dict | None) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy before 1.26 prints instead of returning dicts
        blas = {"name": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "malloc": malloc,
        "machine": platform.machine(),
    }


def render(result: dict) -> str:
    tally = result["tally"]
    lines = [f"workload {result['workload']}"
             + (f" (traced: {', '.join(result['traced'])})" if "traced" in result else "")]
    width = max(len(k) for k in result["metrics"])
    for name, (value, n) in result["metrics"].items():
        lines.append(f"  {name:<{width}}  {value:>14.6g} {result['units'][name]:<6} n={n}")
    lines.append(f"  attempted {tally.attempted}, failed {len(tally.failures)}")
    for failure in tally.failures[:3]:
        lines.append(f"  FAILED {failure}")
    for name, (passed, detail) in result["checks"].items():
        lines.append(f"  {name}: {'PASS' if passed else 'FAIL'} - {detail}")
    return "\n".join(lines)


def correct(result: dict) -> bool:
    return not result["tally"].failures and all(ok for ok, _ in result["checks"].values())


def record(result: dict, host: dict, seed: int, seconds: float, trace: int) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    doc = {k: v for k, v in result.items() if k not in ("tally", "units", "metrics")}
    doc.update(seed=seed, seconds=seconds, trace=trace, host=host, correct=correct(result),
               attempted=result["tally"].attempted, failures=result["tally"].failures,
               first_traceback=result["tally"].first_traceback,
               metrics={k: {"value": v, "unit": result["units"][k], "n": n}
                        for k, (v, n) in result["metrics"].items()})
    path = OUT / f"result-{result['workload']}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if "numpy" in sys.modules:
        print("run.py: numpy was imported before the BLAS threads were pinned", file=sys.stderr)
        return 2
    # BLAS reads these once, when numpy first loads it
    for var in THREAD_VARS:
        os.environ[var] = "1"
    malloc = pin_malloc()
    if not (SRC / "leanformer" / "__init__.py").is_file():
        print(f"run.py: no leanformer package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import leanformer
    import workloads

    if Path(leanformer.__file__).resolve().parent != SRC / "leanformer":
        print(f"run.py: imported leanformer from {leanformer.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    if not 0 < args.seconds <= MAX_SECONDS:
        print(f"run.py: --seconds must lie in (0, {MAX_SECONDS}]", file=sys.stderr)
        return 2
    if args.workload == "all" and args.trace:
        print("run.py: --trace 1 takes one workload; the traced run covers all of them",
              file=sys.stderr)
        return 2

    host = host_block(malloc)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        if args.trace:
            result = traced_run(name, args.seed, args.seconds)
        else:
            result = run_workload(name, args.seed, args.seconds)
        record(result, host, args.seed, args.seconds, args.trace)
        print(render(result), flush=True)
        results.append(result)
    print("host " + json.dumps(host))

    if len(results) == 1:
        r = results[0]
        wanted = DECLARED_END_TO_END if not args.trace else list(r["metrics"])
        metrics = {k: {"value": r["metrics"][k][0], "unit": r["units"][k]} for k in wanted}
    else:
        metrics = {f"{r['workload']}/{k}": {"value": v, "unit": r["units"][k]}
                   for r in results for k, (v, _) in r["metrics"].items()}
    ok = all(correct(r) for r in results)
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["tally"].attempted for r in results),
        "failed": sum(len(r["tally"].failures) for r in results),
        "metrics": metrics,
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
