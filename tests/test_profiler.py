import json
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leanformer.model import (
    ModelConfig,
    PRESETS,
    init_params,
    model_forward,
    param_count,
    param_count_enumerated,
    synth_copy_batch,
    trace_element_count,
)
from leanformer.profiler import (
    ResourceReport,
    TimingStats,
    activation_bytes,
    compare,
    config_search,
    memory_bytes,
    profile_model,
    render_comparison,
    time_forward,
)

small_configs = st.builds(
    ModelConfig,
    vocab_size=st.integers(2, 40),
    max_seq_len=st.integers(1, 8),
    d_model=st.sampled_from([2, 4, 8]),
    n_heads=st.sampled_from([1, 2]),
    d_ff=st.integers(1, 16),
    n_layers=st.integers(0, 3),
    use_bias=st.booleans(),
)


class FakeClock:
    """Scripted monotonic clock; one value per call."""

    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def durations_clock(durations):
    """Clock whose consecutive call pairs produce the given durations."""
    t = 0.0
    times = []
    for d in durations:
        times.append(t)
        t += d
        times.append(t)
    return FakeClock(times)


class TestMemoryBytes:
    def test_paper_values(self):
        assert memory_bytes(PRESETS["paper-baseline"]) == 1_122_304
        assert memory_bytes(PRESETS["paper-reduced"]) == 536_576

    def test_smallest(self):
        assert memory_bytes(ModelConfig(1, 1, 1, 1, 1, 0)) == 16

    @given(small_configs, st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_eight_bytes_per_enumerated_param(self, cfg, seed):
        assert memory_bytes(cfg) == 8 * param_count_enumerated(init_params(cfg, seed))


class TestActivationBytes:
    def test_matches_trace_enumeration_baseline(self):
        cfg = PRESETS["paper-baseline"]
        p = init_params(cfg, 0)
        batch, _ = synth_copy_batch(1, 1, 10, cfg.vocab_size)
        logits, _ = model_forward(p, cfg, list(batch))
        _, trace = model_forward(p, cfg, list(batch), trace=True)
        assert activation_bytes(cfg, 1, 10) == 8 * (trace_element_count(trace) + logits.size)

    @given(small_configs, st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_matches_trace_enumeration_random(self, cfg, batch_size):
        seq = cfg.max_seq_len
        p = init_params(cfg, 1)
        batch, _ = synth_copy_batch(2, batch_size, seq, cfg.vocab_size)
        logits, _ = model_forward(p, cfg, list(batch))
        _, trace = model_forward(p, cfg, list(batch), trace=True)
        assert activation_bytes(cfg, batch_size, seq) == 8 * (trace_element_count(trace) + logits.size)

    def test_layerless_collapse(self):
        cfg = ModelConfig(50, 8, 4, 2, 16, 0)
        n = 5
        assert activation_bytes(cfg, 1, n) == 8 * (n * 4 + n * 50)

    def test_head_pruned_config_still_matches_trace(self):
        from leanformer.compression import prune_heads
        cfg = ModelConfig(23, 6, 8, 4, 16, 1)
        p = init_params(cfg, 5)
        pruned, pcfg, _ = prune_heads(p, cfg, 0, {0, 3, 2})
        batch, _ = synth_copy_batch(6, 2, 6, cfg.vocab_size)
        logits, _ = model_forward(pruned, pcfg, list(batch))
        _, trace = model_forward(pruned, pcfg, list(batch), trace=True)
        assert activation_bytes(pcfg, 2, 6) == 8 * (trace_element_count(trace) + logits.size)

    @pytest.mark.parametrize("cfg", [
        PRESETS["paper-baseline"],
        PRESETS["paper-reduced"],
        ModelConfig(50, 10, 4, 2, 8, 64),
        ModelConfig(13, 6, 8, 4, 16, 2, use_bias=True),
    ], ids=["paper-baseline", "paper-reduced", "64-layer", "biased-2-layer"])
    def test_forward_peak_stays_near_the_accounted_bytes(self, cfg):
        # the traced forward holds its trace plus one sequence's temporaries,
        # and no logits, so little is measured beyond the trace's own bytes
        n = min(10, cfg.max_seq_len)
        p = init_params(cfg, 1)
        batch, _ = synth_copy_batch(1, 32, n, cfg.vocab_size)
        tracemalloc.start()
        try:
            _, trace = model_forward(p, cfg, batch, trace=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 8 * trace_element_count(trace) + 64_000

    @pytest.mark.parametrize("name", ["paper-baseline", "paper-reduced"])
    def test_untraced_forward_peak_is_the_logits(self, name):
        # logits, ids and the embedded input (rewritten in place by the layers),
        # plus one sequence's temporaries: far below the trace's 0.53-1.06 MB
        cfg = PRESETS[name]
        b, n = 32, 10
        p = init_params(cfg, 1)
        batch, _ = synth_copy_batch(1, b, n, cfg.vocab_size)
        tracemalloc.start()
        try:
            model_forward(p, cfg, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * b * n * (cfg.vocab_size + cfg.d_model) + 100_000

    def test_linear_in_batch(self):
        cfg = PRESETS["paper-reduced"]
        assert activation_bytes(cfg, 16, 10) * 2 == activation_bytes(cfg, 32, 10)

    def test_seq_len_guard(self):
        with pytest.raises(ValueError, match="seq_len"):
            activation_bytes(PRESETS["tiny"], 1, 99)


class TestTimeForward:
    def test_scripted_clock_statistics(self):
        cfg = PRESETS["tiny"]
        p = init_params(cfg, 0)
        stats = time_forward(p, cfg, batch_size=2, seq_len=3, reps=3, warmup=1,
                             clock=durations_clock([0.005, 0.001, 0.003]))
        doc = stats.to_json()
        assert stats.samples == pytest.approx((0.005, 0.001, 0.003))
        assert stats.median == pytest.approx(0.003)
        assert doc["min_s"] == pytest.approx(0.001)
        assert doc["mean_s"] == pytest.approx(0.003)
        assert stats.median == stats.samples[2] and doc["min_s"] == stats.samples[1]
        assert doc["reps"] == 3 and stats.warmup == 1

    def test_single_rep_collapses_stats(self):
        cfg = PRESETS["tiny"]
        p = init_params(cfg, 0)
        stats = time_forward(p, cfg, 2, 3, reps=1, warmup=0,
                             clock=durations_clock([0.0125]))
        doc = stats.to_json()
        assert stats.median == doc["mean_s"] == doc["min_s"] == 0.0125

    def test_zero_reps_rejected(self):
        cfg = PRESETS["tiny"]
        p = init_params(cfg, 0)
        with pytest.raises(ValueError, match="reps"):
            time_forward(p, cfg, 2, 3, reps=0, warmup=0)

    def test_median_order_statistics(self):
        even = TimingStats((4.0, 1.0, 3.0, 2.0), warmup=0)
        assert even.median == 2.5
        odd = TimingStats((9.0, 1.0, 5.0), warmup=0)
        assert odd.median == 5.0

    @given(st.lists(st.floats(0, 10), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_min_median_max_ordering(self, samples):
        stats = TimingStats(tuple(samples), warmup=0)
        doc = stats.to_json()
        assert doc["min_s"] <= stats.median <= max(samples)
        assert doc["reps"] == len(samples)


class TestCompare:
    def test_paper_counts_reduction(self):
        a = _mk_report("base", 140_288)
        b = _mk_report("small", 67_072)
        cr = compare(a, b)
        assert cr.ratios["param_count"] == 67_072 / 140_288
        assert cr.reductions_pct["param_count"] == pytest.approx(52.19, abs=0.01)
        assert cr.reductions_pct["param_bytes"] == pytest.approx(52.19, abs=0.01)

    def test_identical_reports_zero_reduction(self):
        a = _mk_report("x", 1000)
        cr = compare(a, a)
        for name, ratio in cr.ratios.items():
            assert ratio == 1.0
            assert cr.reductions_pct[name] == 0.0

    def test_zero_baseline_metric_marked_undefined(self):
        a = _mk_report("x", 1000, median=0.0)
        b = _mk_report("y", 500, median=0.1)
        cr = compare(a, b)
        assert cr.ratios["time_median_s"] is None
        assert cr.reductions_pct["time_median_s"] is None

    def test_ratio_antisymmetry(self):
        a = _mk_report("x", 1400, act=2000, median=0.25)
        b = _mk_report("y", 700, act=1500, median=0.125)
        fwd = compare(a, b).ratios
        rev = compare(b, a).ratios
        for name in fwd:
            assert fwd[name] * rev[name] == pytest.approx(1.0, abs=1e-12)

    def test_render_mirrors_three_rows(self):
        text = render_comparison(compare(_mk_report("base", 140_288), _mk_report("small", 67_072)))
        assert "Memory Usage (Bytes)" in text
        assert "Execution Time (Seconds)" in text
        assert "Parameter Count" in text
        assert "1,122,304" in text and "536,576" in text

    def test_json_schema_fields(self):
        doc = compare(_mk_report("base", 10), _mk_report("v", 5)).to_json()
        assert set(doc) == {"baseline", "variant", "ratios", "reductions_pct"}
        for side in ("baseline", "variant"):
            assert set(doc[side]) == {"label", "param_count", "param_bytes",
                                      "activation_bytes", "timing"}
            assert set(doc[side]["timing"]) == {"median_s", "mean_s", "min_s",
                                                "reps", "warmup"}


def _mk_report(label, count, act=1000, median=0.5):
    return ResourceReport(label=label, param_count=count, activation_bytes=act,
                          timing=TimingStats((median,), warmup=0))


class TestConfigSearch:
    def test_paper_targets_include_reconstruction(self):
        pairs = config_search(140_288, 67_072)
        assert pairs
        hits = [
            (cfg, red) for cfg, red in pairs
            if cfg.vocab_size + cfg.max_seq_len == 4000 and cfg.d_model == 32
            and cfg.n_heads == 8 and cfg.d_ff == 128 and cfg.n_layers == 1
            and not cfg.use_bias
        ]
        assert len(hits) == 1
        cfg, red = hits[0]
        assert red == PRESETS["paper-reduced"]

    def test_all_pairs_reverify(self):
        for cfg, red in config_search(140_288, 67_072):
            assert param_count(cfg) == 140_288
            assert param_count(red) == 67_072
            assert red.d_model == cfg.d_model // 2

    def test_tiny_targets_empty_due_to_divisibility(self):
        # (2, 1) would need d=1, which cannot be halved
        assert config_search(2, 1) == []

    def test_impossible_targets_empty_not_error(self):
        assert config_search(3, 5) == []

    def test_search_respects_vs_cap(self):
        assert all(
            cfg.vocab_size + cfg.max_seq_len <= 100
            for cfg, _ in config_search(140_288, 67_072, max_vocab_plus_seq=100)
        )

    def test_layer_bound_beyond_the_target_costs_nothing(self):
        # no model of more than 140,288 layers fits 140,288 parameters
        start = time.perf_counter()
        deep = config_search(140_288, 67_072, max_layers=10**6)
        assert time.perf_counter() - start < 1.0
        assert deep == config_search(140_288, 67_072, max_layers=140_288)


class TestProfileModel:
    def test_report_fields_consistent(self):
        cfg = PRESETS["tiny"]
        p = init_params(cfg, 0)
        rep = profile_model(p, cfg, "tiny", batch_size=2, seq_len=3, reps=2, warmup=0,
                            clock=durations_clock([0.002, 0.004]))
        assert rep.param_count == param_count(cfg)
        assert rep.param_bytes == 8 * rep.param_count
        assert rep.timing.median == pytest.approx(0.003)


# Pinned from a scripted-clock run of both paper presets: the comparison's
# every value and the search's full output, which no refactor may move.
PAPER_COMPARISON_JSON = {
    "baseline": {
        "label": "paper-baseline", "param_count": 140288, "param_bytes": 1122304,
        "activation_bytes": 11238400,
        "timing": {"median_s": 0.01295, "mean_s": 0.01285, "min_s": 0.012,
                   "reps": 4, "warmup": 1},
    },
    "variant": {
        "label": "paper-reduced", "param_count": 67072, "param_bytes": 536576,
        "activation_bytes": 10726400,
        "timing": {"median_s": 0.0088, "mean_s": 0.008725, "min_s": 0.0081,
                   "reps": 4, "warmup": 1},
    },
    "ratios": {
        "param_count": 0.4781021897810219, "param_bytes": 0.4781021897810219,
        "activation_bytes": 0.9544419134396356, "time_median_s": 0.6795366795366796,
    },
    "reductions_pct": {
        "param_count": 52.18978102189781, "param_bytes": 52.18978102189781,
        "activation_bytes": 4.555808656036442, "time_median_s": 32.04633204633204,
    },
}

PAPER_COMPARISON_TABLE = "\n".join([
    "Metric                    paper-baseline  paper-reduced  Reduction",
    "------------------------  --------------  -------------  ---------",
    "Memory Usage (Bytes)      1,122,304       536,576        52.19%   ",
    "Execution Time (Seconds)  0.012950        0.008800       32.05%   ",
    "Parameter Count           140,288         67,072         52.19%   ",
])

# (d_model, n_heads, d_ff, n_layers, use_bias, vocab_size) of each base
# config, in the search's order; every one has max_seq_len 10
PAPER_SEARCH = [
    (d, heads, d_ff, layers, bias, vocab)
    for d, d_ff, layers, vocabs in ((16, 64, 4, (7990, 7954)), (32, 128, 1, (3990, 3981)),
                                    (32, 32, 2, (3990, 3978)))
    for heads in (2, 4, 8, 16)
    for bias, vocab in zip((False, True), vocabs)
]


class TestPinnedOutputs:
    def test_paper_comparison_json_and_table(self):
        reports = [
            profile_model(init_params(PRESETS[name], 0), PRESETS[name], name, reps=4, warmup=1,
                          clock=durations_clock(durations))
            for name, durations in (("paper-baseline", [0.012, 0.0135, 0.0128, 0.0131]),
                                    ("paper-reduced", [0.0081, 0.0092, 0.0087, 0.0089]))
        ]
        cr = compare(*reports)
        assert json.dumps(cr.to_json(), indent=2) == json.dumps(PAPER_COMPARISON_JSON, indent=2)
        assert render_comparison(cr) == PAPER_COMPARISON_TABLE

    def test_paper_search_output(self):
        expected = [
            (ModelConfig(vocab, 10, d, heads, d_ff, layers, bias),
             ModelConfig(vocab, 10, d // 2, heads // 2, d_ff // 2, layers, bias))
            for d, heads, d_ff, layers, bias, vocab in PAPER_SEARCH
        ]
        assert config_search(140_288, 67_072) == expected
