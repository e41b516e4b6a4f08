import importlib.util
import json
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import leanformer.model as model
from leanformer.model import (
    ModelConfig,
    PRESETS,
    batch_loss,
    embed,
    init_params,
    model_forward,
    param_count,
    param_count_enumerated,
    synth_copy_batch,
    train_step,
)
from leanformer.profiler import (
    ComparisonReport,
    ResourceReport,
    TimingStats,
    activation_bytes,
    config_search,
    forward_flops,
    host_block,
    memory_bytes,
    profile_model,
    render_comparison,
    time_forward,
    train_step_bytes,
    train_step_stage_bytes,
)

from reference import stage_peaks, traced_peak

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
    @given(small_configs, st.integers(1, 4))
    @example(ModelConfig(23, 6, 8, 4, 16, 1, head_dim=2, layer_heads=(1,)), 2)  # head-pruned
    @settings(max_examples=40, deadline=None)
    def test_matches_the_untraced_forwards_logits_and_embedded_rows(self, cfg, batch_size):
        seq = cfg.max_seq_len
        p = init_params(cfg, 1)
        batch, _ = synth_copy_batch(2, batch_size, seq, cfg.vocab_size)
        logits, _ = model_forward(p, cfg, batch)
        assert activation_bytes(cfg, batch_size, seq) == 8 * (logits.size + embed(p, batch).size)

    def test_layerless_collapse(self):
        cfg = ModelConfig(50, 8, 4, 2, 16, 0)
        n = 5
        assert activation_bytes(cfg, 1, n) == 8 * (n * 4 + n * 50)

    @pytest.mark.parametrize("cfg", [
        PRESETS["paper-baseline"],
        PRESETS["paper-reduced"],
        ModelConfig(50, 10, 4, 2, 8, 64),
        ModelConfig(13, 6, 8, 4, 16, 2, use_bias=True),
    ], ids=["paper-baseline", "paper-reduced", "64-layer", "biased-2-layer"])
    def test_checkpoint_forward_peak_is_the_checkpoints_and_one_chunk(self, cfg):
        # the traced forward holds the embedded rows, each layer's output, and
        # one chunk of one layer's stages at a time, and no logits
        b, n, d = 32, min(10, cfg.max_seq_len), cfg.d_model
        p = init_params(cfg, 1)
        batch, _ = synth_copy_batch(1, b, n, cfg.vocab_size)
        peak = traced_peak(model_forward, p, cfg, batch, trace=True)
        kept = 8 * b * n * d
        chunk = max(model._chunk_sequences(b, seq) * seq
                    for seq in (model._layer_sequence_bytes(cfg, layer, n) for layer in range(cfg.n_layers)))
        assert cfg.n_layers * kept <= peak <= (cfg.n_layers + 1) * kept + chunk + 64_000

    @pytest.mark.parametrize("name", ["paper-baseline", "paper-reduced"])
    def test_untraced_forward_peak_is_the_logits(self, name):
        # logits, ids and the embedded input (rewritten in place by the layers),
        # plus one sequence's temporaries: what activation_bytes accounts, and a
        # little more, far below the trace's 0.53-1.06 MB
        cfg = PRESETS[name]
        b, n = 32, 10
        p = init_params(cfg, 1)
        batch, _ = synth_copy_batch(1, b, n, cfg.vocab_size)
        peak = traced_peak(model_forward, p, cfg, batch)
        accounted = activation_bytes(cfg, b, n)
        assert accounted <= peak <= accounted + 100_000

    def test_linear_in_batch(self):
        cfg = PRESETS["paper-reduced"]
        assert activation_bytes(cfg, 16, 10) * 2 == activation_bytes(cfg, 32, 10)

    def test_seq_len_guard(self):
        with pytest.raises(ValueError, match="seq_len"):
            activation_bytes(PRESETS["tiny"], 1, 99)


TRAIN_STEP_CONFIGS = {
    "paper-baseline": PRESETS["paper-baseline"],
    "paper-reduced": PRESETS["paper-reduced"],
    "biased-3-layer": ModelConfig(13, 6, 8, 4, 16, 3, use_bias=True),
    "6-layer": ModelConfig(3990, 10, 32, 8, 128, 6),
    "layerless": ModelConfig(50, 8, 4, 2, 16, 0),
    "layerless-d16": ModelConfig(50, 10, 16, 4, 64, 0),
    "layerless-d64": ModelConfig(50, 10, 64, 4, 64, 0),
    "small": PRESETS["small"],
    "layerless-d1": ModelConfig(4, 10, 1, 1, 4, 0),
    # many heads and pruned heads: layer stages where the attention backward
    # holds about as much as the FFN backward, or more
    "16-head": ModelConfig(100, 10, 32, 16, 32, 2),
    "pruned-heads": ModelConfig(11, 5, 8, 2, 6, 3, head_dim=3, layer_heads=(4, 2, 1)),
}
# each config at batch 32, and three small-vocabulary ones at a batch whose
# logit chunks span thousands of rows, so the per-row vectors count; at
# d_model 1 they outweigh the (rows, d) factors. The many- and pruned-head
# configs also at batch 256, where their layer 0 runs in more than one chunk
TRAIN_STEP_BATCHES = [pytest.param(name, 32, id=name) for name in TRAIN_STEP_CONFIGS] + [
    ("small", 256), ("layerless-d16", 256), ("layerless-d1", 2048), ("16-head", 256), ("pruned-heads", 256)]


def against(what, peak, form):
    """An assert message: the measured peak, the form it is held to and their signed difference."""
    return f"{what}: measured {peak:,} B, form {form:,} B, difference {peak - form:+,} B"


class TestTrainStepBytes:
    @pytest.mark.parametrize("name, b", TRAIN_STEP_BATCHES)
    def test_peak_of_a_warm_step_is_the_accounted_bytes(self, name, b):
        # the presets and the layerless configs peak in the output stage, the
        # deeper configs and pruned-heads in a layer's backward, 16-head in one
        # or the other by batch; the measured peak may exceed the form by numpy's
        # working buffers, up to 64 KiB each, and the form may overstate it by
        # 16 kB at most. A layerless config's one chunk spans the batch at
        # batch 32, so its (rows, d) temporaries are batch-sized
        cfg = TRAIN_STEP_CONFIGS[name]
        n = min(10, cfg.max_seq_len)
        p = init_params(cfg, 1)
        batch, targets = synth_copy_batch(1, b, n, cfg.vocab_size)
        train_step(p, cfg, batch, targets, 0.05)
        accounted = train_step_bytes(cfg, b, n)
        peak = traced_peak(train_step, p, cfg, batch, targets, 0.05)
        assert accounted - 16_000 <= peak <= accounted + 96_000, against("step", peak, accounted)

    @pytest.mark.parametrize("name, b", TRAIN_STEP_BATCHES)
    def test_each_stage_peaks_at_its_own_term(self, name, b):
        # each term against its own stage, in the same window, so a stage that
        # grows while the other one bounds the step still fails; the forward
        # runs before the gradient exists and peaks below the step's form
        cfg = TRAIN_STEP_CONFIGS[name]
        n = min(10, cfg.max_seq_len)
        p = init_params(cfg, 1)
        batch, targets = synth_copy_batch(1, b, n, cfg.vocab_size)
        train_step(p, cfg, batch, targets, 0.05)
        peaks = stage_peaks(train_step, p, cfg, batch, targets, 0.05)
        grads = 8 * param_count(cfg)
        output, layers = train_step_stage_bytes(cfg, b, n)
        step = train_step_bytes(cfg, b, n)
        assert grads + output - 16_000 <= peaks["output"] <= grads + output + 96_000, \
            against("output stage", peaks["output"], grads + output)
        if cfg.n_layers:
            assert grads + layers - 16_000 <= peaks["layers"] <= grads + layers + 96_000, \
                against("layer stage", peaks["layers"], grads + layers)
        else:
            assert layers == peaks["layers"] == 0, against("layer stage", peaks["layers"], layers)
        assert peaks["forward"] < step, against("checkpoint forward", peaks["forward"], step)
        assert peaks["step"] == max(peaks.values()), f"stage peaks {peaks}"

    @pytest.mark.parametrize("name, b", TRAIN_STEP_BATCHES)
    def test_batch_loss_peaks_within_the_larger_stage(self, name, b):
        # the loss alone runs the checkpoint forward and the output stage
        # without the gradient: no more than the larger stage, in the same
        # window, and on the presets below a tenth of the untraced forward's
        cfg = TRAIN_STEP_CONFIGS[name]
        n = min(10, cfg.max_seq_len)
        p = init_params(cfg, 1)
        batch, targets = synth_copy_batch(1, b, n, cfg.vocab_size)
        batch_loss(p, cfg, batch, targets)
        peak = traced_peak(batch_loss, p, cfg, batch, targets)
        form = max(train_step_stage_bytes(cfg, b, n))
        assert peak <= form + 96_000, against("batch_loss", peak, form)
        if name.startswith("paper-"):
            untraced = activation_bytes(cfg, b, n)
            assert peak < untraced / 10, against("batch_loss", peak, untraced)

    def test_batch_loss_drops_the_checkpoints_it_never_reads(self):
        # the loss reads only the last output: on a deep model the output stage
        # holds no other layer's checkpoint, so the checkpoint forward bounds it
        cfg = TRAIN_STEP_CONFIGS["6-layer"]
        p = init_params(cfg, 1)
        batch, targets = synth_copy_batch(1, 32, 10, cfg.vocab_size)
        batch_loss(p, cfg, batch, targets)
        forward = traced_peak(model_forward, p, cfg, batch, trace=True)
        peak = traced_peak(batch_loss, p, cfg, batch, targets)
        assert peak <= forward + 16_000, against("batch_loss", peak, forward)

    def test_softmax_backward_reads_each_heads_weights_in_place(self):
        # each head's weights are one contiguous block, which the softmax
        # backward's products read with no numpy working buffer: the layer
        # stage of the pruned heads at batch 256, in several chunks, stays
        # within 16 kB of its form
        cfg = TRAIN_STEP_CONFIGS["pruned-heads"]
        b, n = 256, cfg.max_seq_len
        p = init_params(cfg, 1)
        batch, targets = synth_copy_batch(1, b, n, cfg.vocab_size)
        train_step(p, cfg, batch, targets, 0.05)
        peaks = stage_peaks(train_step, p, cfg, batch, targets, 0.05)
        form = 8 * param_count(cfg) + train_step_stage_bytes(cfg, b, n)[1]
        assert peaks["layers"] <= form + 16_000, against("layer stage", peaks["layers"], form)

    def test_output_stage_counts_a_vocabulary_blocks_partial_product(self):
        # a chunk of one 512-position sequence against 1,030 words: the second
        # vocabulary block's (512, 64) partial product outweighs a 256-row
        # share of tok_emb's gradient by 131,072 B, in the same window
        cfg = ModelConfig(1030, 512, 64, 4, 64, 0)
        b, n = 2, 512
        p = init_params(cfg, 1)
        batch, targets = synth_copy_batch(1, b, n, cfg.vocab_size)
        train_step(p, cfg, batch, targets, 0.05)
        peaks = stage_peaks(train_step, p, cfg, batch, targets, 0.05)
        form = 8 * param_count(cfg) + train_step_stage_bytes(cfg, b, n)[0]
        assert form - 16_000 <= peaks["output"] <= form + 96_000, against("output stage", peaks["output"], form)

    def test_paper_values(self):
        # 8P + the last output, which dx overwrites, + one 2-sequence chunk of
        # logits with its scaled rows and their two row vectors + the batch's
        # loss terms + a 256-row share
        assert train_step_bytes(PRESETS["paper-baseline"], 32, 10) == 1_916_160
        assert train_step_bytes(PRESETS["paper-reduced"], 32, 10) == 1_254_144

    def test_seq_len_guard(self):
        with pytest.raises(ValueError, match="train_step_bytes: seq_len 99 exceeds"):
            train_step_bytes(PRESETS["tiny"], 1, 99)
        with pytest.raises(ValueError, match="train_step_stage_bytes: seq_len 99 exceeds"):
            train_step_stage_bytes(PRESETS["tiny"], 1, 99)


class TestForwardFlops:
    @pytest.mark.parametrize("cfg", [
        PRESETS["paper-baseline"],
        PRESETS["paper-reduced"],
        ModelConfig(13, 6, 8, 4, 16, 3, use_bias=True),
        ModelConfig(11, 5, 8, 2, 6, 3, head_dim=3, layer_heads=(4, 2, 1)),
    ], ids=["paper-baseline", "paper-reduced", "biased-3-layer", "pruned-heads"])
    def test_is_the_sum_of_a_real_forwards_products(self, cfg, monkeypatch):
        # every product of the forward goes through numerics.matmul; each costs 2·m·k·n
        real, flops = model.matmul, []

        def counted(a, b, out=None):
            c = real(a, b, out=out)
            flops.append(2 * c.size * a.shape[-1])
            return c

        monkeypatch.setattr(model, "matmul", counted)
        b, n = 32, min(10, cfg.max_seq_len)
        batch, _ = synth_copy_batch(1, b, n, cfg.vocab_size)
        model_forward(init_params(cfg, 1), cfg, batch)
        assert sum(flops) == forward_flops(cfg, b, n)

    def test_paper_values(self):
        # 133,017,600 per table2 op, which runs both presets on one 32 x 10 batch
        assert forward_flops(PRESETS["paper-baseline"], 32, 10) == 89_989_120
        assert forward_flops(PRESETS["paper-reduced"], 32, 10) == 43_028_480

    def test_seq_len_guard(self):
        with pytest.raises(ValueError, match="forward_flops: seq_len 99 exceeds"):
            forward_flops(PRESETS["tiny"], 1, 99)


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

    def test_negative_warmup_rejected(self):
        cfg = PRESETS["tiny"]
        with pytest.raises(ValueError, match=r"^time_forward: warmup must be >= 0, got -1$"):
            time_forward(init_params(cfg, 0), cfg, 2, 3, reps=1, warmup=-1)

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
        cr = ComparisonReport(a, b)
        assert cr.ratios["param_count"] == 67_072 / 140_288
        assert cr.reductions_pct["param_count"] == pytest.approx(52.19, abs=0.01)
        assert cr.reductions_pct["param_bytes"] == pytest.approx(52.19, abs=0.01)

    def test_identical_reports_zero_reduction(self):
        a = _mk_report("x", 1000)
        cr = ComparisonReport(a, a)
        for name, ratio in cr.ratios.items():
            assert ratio == 1.0
            assert cr.reductions_pct[name] == 0.0

    def test_zero_baseline_metric_marked_undefined(self):
        a = _mk_report("x", 1000, median=0.0)
        b = _mk_report("y", 500, median=0.1)
        cr = ComparisonReport(a, b)
        assert cr.ratios["time_median_s"] is None
        assert cr.reductions_pct["time_median_s"] is None

    def test_ratio_antisymmetry(self):
        a = _mk_report("x", 1400, act=2000, median=0.25)
        b = _mk_report("y", 700, act=1500, median=0.125)
        fwd = ComparisonReport(a, b).ratios
        rev = ComparisonReport(b, a).ratios
        for name in fwd:
            assert fwd[name] * rev[name] == pytest.approx(1.0, abs=1e-12)

    def test_render_mirrors_three_rows(self):
        text = render_comparison(ComparisonReport(_mk_report("base", 140_288), _mk_report("small", 67_072)))
        assert "Memory Usage (Bytes)" in text
        assert "Execution Time (Seconds)" in text
        assert "Parameter Count" in text
        assert "1,122,304" in text and "536,576" in text

    def test_json_schema_fields(self):
        doc = ComparisonReport(_mk_report("base", 10), _mk_report("v", 5)).to_json()
        assert set(doc) == {"baseline", "variant", "ratios", "reductions_pct"}
        for side in ("baseline", "variant"):
            assert set(doc[side]) == {"label", "param_count", "param_bytes", "activation_bytes",
                                      "train_step_bytes", "forward_flops", "timing"}
            assert set(doc[side]["timing"]) == {"median_s", "mean_s", "min_s", "p10_s", "p90_s",
                                                "reps", "warmup"}

    @pytest.mark.parametrize("samples, p10, p90", [
        ((0.5,), 0.5, 0.5),
        # ranks 0.9 and 8.1 of the sorted ten: between 0 and 1, and between 8 and 10
        ((10.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0), 0.9, 8.2),
    ], ids=["one-sample", "ten-samples"])
    def test_percentiles_interpolate_between_ranks(self, samples, p10, p90):
        timing = TimingStats(samples, warmup=0).to_json()
        assert timing["p10_s"] == pytest.approx(p10, abs=1e-12)
        assert timing["p90_s"] == pytest.approx(p90, abs=1e-12)


def test_host_block_is_the_benchmarks_schema():
    # one schema for every record: perfbench/run.py's host block, with no allocator pins
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    assert host_block() == {**run.host_block(None), "malloc": None}


def _mk_report(label, count, act=1000, median=0.5):
    return ResourceReport(label=label, param_count=count, activation_bytes=act,
                          train_step_bytes=2 * act, forward_flops=3 * act,
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
        "activation_bytes": 10296320, "train_step_bytes": 1916160, "forward_flops": 89989120,
        "timing": {"median_s": 0.01295, "mean_s": 0.01285, "min_s": 0.012,
                   "p10_s": 0.01224, "p90_s": 0.013380000000000001, "reps": 4, "warmup": 1},
    },
    "variant": {
        "label": "paper-reduced", "param_count": 67072, "param_bytes": 536576,
        "activation_bytes": 10255360, "train_step_bytes": 1254144, "forward_flops": 43028480,
        "timing": {"median_s": 0.0088, "mean_s": 0.008725, "min_s": 0.0081,
                   "p10_s": 0.00828, "p90_s": 0.00911, "reps": 4, "warmup": 1},
    },
    "ratios": {
        "param_count": 0.4781021897810219, "param_bytes": 0.4781021897810219,
        "activation_bytes": 0.9960218796618597, "train_step_bytes": 0.6545090180360722,
        "forward_flops": 0.4781520254893036, "time_median_s": 0.6795366795366796,
    },
    "reductions_pct": {
        "param_count": 52.18978102189781, "param_bytes": 52.18978102189781,
        "activation_bytes": 0.39781203381402674, "train_step_bytes": 34.54909819639278,
        "forward_flops": 52.18479745106964, "time_median_s": 32.04633204633204,
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
        cr = ComparisonReport(*reports)
        assert json.dumps(cr.to_json(), indent=2) == json.dumps(PAPER_COMPARISON_JSON, indent=2)
        assert render_comparison(cr) == PAPER_COMPARISON_TABLE

    def test_paper_search_output(self):
        expected = [
            (ModelConfig(vocab, 10, d, heads, d_ff, layers, bias),
             ModelConfig(vocab, 10, d // 2, heads // 2, d_ff // 2, layers, bias))
            for d, heads, d_ff, layers, bias, vocab in PAPER_SEARCH
        ]
        assert config_search(140_288, 67_072) == expected
