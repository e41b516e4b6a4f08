"""Self-tests for the benchmark: its maths, its checks, its counts, its declaration.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from benchstats import error_rate, percentile, ratio, self_time  # noqa: E402
from leanformer import model as M  # noqa: E402
from spans import Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))


# --- statistics on scripted samples -------------------------------------------------

def test_percentile_interpolates_between_ranks():
    xs = [float(v) for v in range(1, 11)]
    assert percentile(xs, 50) == 5.5
    assert percentile(xs, 90) == pytest.approx(9.1)
    assert percentile(xs, 0) == 1.0 and percentile(xs, 100) == 10.0
    assert percentile(list(reversed(xs)), 50) == 5.5
    assert percentile([3.0], 90) == 3.0


def test_p90_of_min_ops_keeps_ten_samples_beyond():
    xs = [float(v) for v in range(run.MIN_OPS)]
    assert sum(x > percentile(xs, 90) for x in xs) >= 10


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_ratio_and_error_rate():
    assert ratio(3.0, 4.0) == 0.75
    with pytest.raises(ValueError):
        ratio(1.0, 0.0)
    assert error_rate(0, 10) == 0.0
    assert error_rate(3, 12) == 0.25
    for failed, attempted in ((0, 0), (5, 4), (-1, 3)):
        with pytest.raises(ValueError):
            error_rate(failed, attempted)


def test_self_time_counts_overlapping_children_once():
    # children cover [1, 5] and [7, 8] of [0, 10]
    assert self_time(10.0, [(2.0, 5.0), (1.0, 3.0), (7.0, 8.0)], 0.0) == 5.0
    assert self_time(10.0, [], 0.0) == 10.0
    # a child running past the parent's end is clipped to it
    assert self_time(4.0, [(3.0, 6.0)], 0.0) == 3.0


def test_tracer_nests_spans_and_restores_patches():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Mod:
        @staticmethod
        def f(x):
            return x + 1

    tracer.begin("kind", 7)
    with tracer.patched(Mod, ["f"], "mod"):
        with tracer.span("outer"):
            assert Mod.f(1) == 2
    spans = tracer.end()
    assert Mod.f.__name__ == "f" and not hasattr(Mod.f, "__wrapped__")
    outer, inner = spans.named("outer")[0], spans.named("mod.f")[0]
    assert inner.parent == outer.id and inner.op == outer.op == 7
    assert spans.under(outer, "mod.f") == [inner]
    assert spans.self_ms(outer) == pytest.approx(1e3 * ((outer.end - outer.start) - (inner.end - inner.start)))


# --- checks: a corrupted output must count as a failure --------------------------------

def _corrupt_table2(out):
    logits, secs = out
    for name in logits:
        for k, m in enumerate(logits[name]):
            bad = m.copy()
            bad[0, 0] += 1e-9 * abs(bad).max()
            logits[name][k] = bad
    return logits, secs


def _corrupt_compress(out):
    out["p1"] = M.init_params(M.PRESETS[workloads.BASELINE], 12345)
    return out


CORRUPTIONS = {
    "table2-forward": _corrupt_table2,
    "train-copy": lambda loss: float("nan"),
    "gradcheck-tiny": lambda err: 2 * workloads.GRAD_CHECK_TOL,
    "compress-roundtrip": _corrupt_compress,
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_output_raises_error_rate(name, tmp_path):
    wl = workloads.WORKLOADS[name](3, tmp_path)
    try:
        clean, corrupted = run.Tally(), run.Tally()
        for i in range(2):
            clean.run(wl, i)
        for i in range(2, 4):
            corrupted.run(wl, i, lambda i: wl.check(i, CORRUPTIONS[name](wl.op(i))))
    finally:
        wl.close()
    if name != "gradcheck-tiny":  # its clean ops may fail; see CHANGES.md
        assert error_rate(len(clean.failures), clean.attempted) == 0.0, clean.failures
    assert error_rate(len(corrupted.failures), corrupted.attempted) == 1.0


def test_train_run_check_needs_a_lower_loss(tmp_path):
    wl = workloads.WORKLOADS["train-copy"](3, tmp_path)
    wl.losses = [2.0] * workloads.POOL + [2.0] * workloads.POOL
    assert not wl.run_checks()["loss_decreased"][0]
    wl.losses[-1] = 1.0
    assert wl.run_checks()["loss_decreased"][0]


# --- exact counts repeat ----------------------------------------------------------------

def test_exact_counts_repeat(tmp_path):
    tracer = Tracer()
    table2 = workloads.WORKLOADS["table2-forward"](5, tmp_path)
    grad = workloads.WORKLOADS["gradcheck-tiny"](5, tmp_path)
    for i in range(2):  # both preset orders
        _, layer = run.traced_op(tracer, table2, i)
        assert layer["numerics.matmul_calls"] == 1216
        assert layer["numerics.softmax_calls"] == 384
        assert 0.5 < layer["model.stage_coverage"] < 1.5
    for i in range(2):
        # count the calls even on a seed whose error misses the bound
        grad.check = lambda i, out: None
        _, layer = run.traced_op(tracer, grad, i)
        assert layer["model.batch_loss_calls"] == 2 * M.param_count(M.PRESETS["tiny"]) == 376


def test_staged_forward_is_bit_equal_to_model_forward(tmp_path):
    wl = workloads.WORKLOADS["table2-forward"](6, tmp_path)
    wl.traced_extra(0, wl.op(0))  # raises CheckFailed on any differing bit
    out = wl.op(1)
    first = out[0][workloads.BASELINE][0].copy()
    first[0, 0] = np.nextafter(first[0, 0], np.inf)
    out[0][workloads.BASELINE][0] = first
    with pytest.raises(workloads.CheckFailed):
        wl.traced_extra(1, out)


# --- the declaration in BENCHMARK.json matches the code -------------------------------

def test_benchmark_json_matches_the_code():
    declared = [w["name"] for w in BENCHMARK["workloads"]]
    assert declared == list(run.BENCH_WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert list(e2e) == list(run.DECLARED_END_TO_END)
    assert all(run.END_TO_END[k] == unit for k, unit in e2e.items())
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_traced_run_reports_every_declared_per_layer_metric():
    result = run.traced_run("table2-forward", 4, seconds=0.1)
    assert not result["tally"].failures, result["tally"].failures
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert set(result["metrics"]) == set(declared)
    assert {k: result["units"][k] for k in declared} == declared
    assert result["metrics"]["numerics.matmul_calls"][0] == 1216
    assert result["metrics"]["numerics.softmax_calls"][0] == 384
    assert all(math.isfinite(v) for v, _ in result["metrics"].values())


def test_malloc_thresholds_are_pinned_on_glibc():
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("mallopt is glibc's")
    assert run.pin_malloc() == {name: value for name, (_, value) in run.MALLOC_PINS.items()}
