import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leanformer.compression import (
    _SMALL_SCALES,
    _TINY,
    CompressionReport,
    QuantizedTensor,
    dequantize,
    dequantize_params,
    head_importance,
    prune_heads,
    prune_layers,
    prune_magnitude,
    quantize_params,
    quantize_report,
    quantize_tensor,
    quantized_memory_bytes,
    reduce_config,
)
from leanformer.model import (
    ModelConfig,
    PRESETS,
    attention_forward,
    embed,
    ffn_forward,
    init_params,
    iter_params,
    model_forward,
    param_count,
    param_count_enumerated,
    synth_copy_batch,
)
from leanformer.numerics import rng_uniform_array


def random_matrix(rows, cols, seed, lo=-1.0, hi=1.0):
    m = rng_uniform_array(seed, (rows, cols), lo, hi)
    return m


class TestReduceConfig:
    def test_paper_pair(self):
        assert reduce_config(PRESETS["paper-baseline"]) == PRESETS["paper-reduced"]

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError, match="not divisible"):
            reduce_config(ModelConfig(100, 10, 30, 3, 60, 1))

    def test_vocab_seq_layers_unchanged(self):
        cfg = ModelConfig(123, 7, 16, 4, 32, 3)
        out = reduce_config(cfg)
        assert (out.vocab_size, out.max_seq_len, out.n_layers) == (123, 7, 3)
        assert (out.d_model, out.n_heads, out.d_ff) == (8, 2, 16)


class TestPruneMagnitude:
    def test_zero_threshold_keeps_everything(self):
        p = init_params(PRESETS["tiny"], 3)
        pruned, report = prune_magnitude(p, 0.0)
        for (_, a), (_, b) in zip(iter_params(p), iter_params(pruned)):
            assert np.array_equal(a, b)
        assert report.max_error == 0.0

    def test_huge_threshold_zeroes_everything(self):
        p = init_params(PRESETS["tiny"], 3)
        pruned, report = prune_magnitude(p, 1.0)
        assert report.sparsity == 1.0
        for _, arr in iter_params(pruned):
            assert np.array_equal(arr, np.zeros_like(arr))

    def test_forced_two_by_two(self):
        cfg = ModelConfig(2, 2, 1, 1, 1, 0)
        p = init_params(cfg, 0)
        flat = np.array([0.1, -0.5, 0.2, 0.9])
        p = p.with_theta(flat)
        pruned, report = prune_magnitude(p, 0.3)
        assert np.array_equal(pruned.theta, [0.0, -0.5, 0.0, 0.9])
        assert report.sparsity == 0.5
        assert report.max_error == pytest.approx(0.2)

    def test_counts_unchanged(self):
        p = init_params(PRESETS["paper-reduced"], 1)
        pruned, report = prune_magnitude(p, 0.02)
        assert report.params_before == report.params_after == 67_072
        assert report.bytes_before == report.bytes_after == 536_576

    def test_negative_threshold_rejected(self):
        p = init_params(PRESETS["tiny"], 0)
        with pytest.raises(ValueError, match="threshold"):
            prune_magnitude(p, -1e-9)

    def test_nan_threshold_rejected(self):
        p = init_params(PRESETS["tiny"], 0)
        with pytest.raises(ValueError, match="threshold must be >= 0, got nan"):
            prune_magnitude(p, np.nan)

    @given(st.floats(0, 0.06), st.floats(0, 0.06))
    @settings(max_examples=40, deadline=None)
    def test_sparsity_monotone_in_threshold(self, t1, t2):
        p = init_params(PRESETS["tiny"], 5)
        lo, hi = sorted((t1, t2))
        _, r_lo = prune_magnitude(p, lo)
        _, r_hi = prune_magnitude(p, hi)
        assert r_lo.sparsity <= r_hi.sparsity


class TestHeadImportance:
    def test_zeroed_block_scores_zero(self):
        cfg = ModelConfig(10, 4, 8, 4, 16, 1)
        p = init_params(cfg, 2)
        wo = p.layers[0].wo.copy()
        wo[2 * 2:3 * 2, :] = 0.0  # head 2 of 4, head width 2
        p = p.with_theta(p.theta.copy())
        p.layers[0].wo[...] = wo
        scores = head_importance(p, cfg, 0)
        assert scores[2] == 0.0
        assert all(s > 0 for i, s in enumerate(scores) if i != 2)

    def test_identical_blocks_equal_scores(self):
        cfg = ModelConfig(10, 4, 8, 4, 16, 1)
        p = init_params(cfg, 2)
        block = random_matrix(2, 8, seed=8)
        p = p.with_theta(p.theta.copy())
        p.layers[0].wo[...] = np.vstack([block] * 4)
        scores = head_importance(p, cfg, 0)
        assert all(s == scores[0] for s in scores)

    def test_constructed_norms(self):
        cfg = ModelConfig(10, 4, 4, 4, 8, 1)
        p = init_params(cfg, 2)
        wo = np.zeros((4, 4))
        for h, norm in enumerate([1.0, 2.0, 3.0, 4.0]):
            wo[h, h] = norm  # head width 1: each block is one row
        p = p.with_theta(p.theta.copy())
        p.layers[0].wo[...] = wo
        assert head_importance(p, cfg, 0) == [1.0, 2.0, 3.0, 4.0]

    def test_bad_layer_rejected(self):
        p = init_params(PRESETS["tiny"], 0)
        with pytest.raises(ValueError, match="layer"):
            head_importance(p, PRESETS["tiny"], 5)

    def test_config_other_than_the_params_rejected(self):
        # 8 heads of width 2 would fit the reduced model's 16-wide Wo
        cfg = PRESETS["paper-reduced"]
        with pytest.raises(ValueError, match="head_importance: config .* does not describe params"):
            head_importance(init_params(cfg, 0), replace(cfg, n_heads=8), 0)


class TestPruneHeads:
    def test_keep_all_is_bit_identical_forward(self):
        cfg = PRESETS["tiny"]
        p = init_params(cfg, 7)
        pruned, new_cfg, report = prune_heads(p, cfg, 0, set(range(cfg.n_heads)))
        assert new_cfg == cfg
        batch, _ = synth_copy_batch(1, 3, 4, cfg.vocab_size)
        a, _ = model_forward(p, cfg, list(batch))
        b, _ = model_forward(pruned, new_cfg, list(batch))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        assert report.params_before == report.params_after

    def test_drop_four_of_eight_baseline(self):
        cfg = PRESETS["paper-baseline"]  # d=32, H=8, head width 4
        p = init_params(cfg, 0)
        pruned, new_cfg, report = prune_heads(p, cfg, 0, {0, 2, 4, 6})
        drop = 4 * 4 * cfg.d_model * (cfg.d_model // cfg.n_heads)
        assert drop == 2048
        assert report.params_before - report.params_after == drop
        assert param_count_enumerated(pruned) == 140_288 - 2048
        assert new_cfg.n_heads == 4 and new_cfg.head_dim == 4
        assert param_count(new_cfg) == 140_288 - 2048

    def test_pruned_model_runs_and_serializes_count(self):
        cfg = PRESETS["paper-baseline"]
        p = init_params(cfg, 0)
        pruned, new_cfg, _ = prune_heads(p, cfg, 0, {1, 3, 5})
        batch, _ = synth_copy_batch(3, 2, 10, cfg.vocab_size)
        logits, _ = model_forward(pruned, new_cfg, list(batch))
        assert logits[0].shape == (10, cfg.vocab_size)
        assert param_count(new_cfg) == param_count_enumerated(pruned)

    def test_dropping_zero_output_head_is_transparent(self):
        cfg = ModelConfig(13, 6, 8, 4, 16, 1)
        p = init_params(cfg, 9)
        dh = cfg.d_model // cfg.n_heads
        wo = p.layers[0].wo.copy()
        wo[3 * dh:4 * dh, :] = 0.0
        p = p.with_theta(p.theta.copy())
        p.layers[0].wo[...] = wo
        pruned, new_cfg, _ = prune_heads(p, cfg, 0, {0, 1, 2})
        batch, _ = synth_copy_batch(5, 3, 6, cfg.vocab_size)
        before, _ = model_forward(p, cfg, list(batch))
        after, _ = model_forward(pruned, new_cfg, list(batch))
        for x, y in zip(before, after):
            assert np.max(np.abs(x - y)) <= 1e-12

    def test_empty_keep_rejected(self):
        cfg = PRESETS["tiny"]
        p = init_params(cfg, 0)
        with pytest.raises(ValueError, match="non-empty"):
            prune_heads(p, cfg, 0, set())

    def test_bad_index_rejected(self):
        cfg = PRESETS["tiny"]
        p = init_params(cfg, 0)
        with pytest.raises(ValueError, match="outside"):
            prune_heads(p, cfg, 0, {0, 9})

    def test_config_other_than_the_params_rejected(self):
        cfg = PRESETS["paper-reduced"]
        with pytest.raises(ValueError, match="prune_heads: config .* does not describe params"):
            prune_heads(init_params(cfg, 0), replace(cfg, n_heads=8), 0, {0, 1})


class TestPruneLayers:
    def test_keep_all_identity(self):
        cfg = ModelConfig(9, 4, 4, 2, 8, 2)
        p = init_params(cfg, 3)
        pruned, new_cfg, report = prune_layers(p, cfg, [0, 1])
        assert new_cfg == cfg
        assert report.params_before == report.params_after
        batch, _ = synth_copy_batch(2, 2, 4, cfg.vocab_size)
        a, _ = model_forward(p, cfg, list(batch))
        b, _ = model_forward(pruned, new_cfg, list(batch))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_keep_none_leaves_embedding_path(self):
        cfg = PRESETS["tiny"]
        p = init_params(cfg, 1)
        pruned, new_cfg, _ = prune_layers(p, cfg, [])
        assert new_cfg.n_layers == 0
        tokens = [1, 2, 3]
        logits, _ = model_forward(pruned, new_cfg, [tokens])
        from leanformer.model import embed
        assert np.array_equal(logits[0], embed(pruned, tokens) @ pruned.tok_emb.T)

    def test_dropping_one_baseline_layer(self):
        cfg = ModelConfig(3990, 10, 32, 8, 128, 2)
        p = init_params(cfg, 0)
        pruned, new_cfg, report = prune_layers(p, cfg, [0])
        expected_drop = 4 * 32 * 32 + 2 * 32 * 128
        assert expected_drop == 12_288
        assert report.params_before - report.params_after == expected_drop
        assert param_count(new_cfg) == param_count_enumerated(pruned)

    def test_uneven_heads_without_head_dim_keep_their_width(self):
        # as a hand-written header may give it: layers of 2 and 4 heads, each
        # d_model // n_heads = 2 wide, with no head_dim
        cfg = ModelConfig(11, 4, 8, 4, 8, 2, layer_heads=(2, 4))
        p = init_params(cfg, 5)
        pruned, new_cfg, _ = prune_layers(p, cfg, [0])
        assert (new_cfg.n_layers, new_cfg.n_heads, new_cfg.head_width) == (1, 2, 2)
        tokens = [1, 7, 3, 10]
        y, _ = attention_forward(p, 0, embed(p, tokens), 2)
        logits, _ = model_forward(pruned, new_cfg, [tokens])
        assert np.array_equal(logits[0], ffn_forward(p, 0, y) @ p.tok_emb.T)

    def test_unsorted_rejected(self):
        cfg = ModelConfig(9, 4, 4, 2, 8, 3)
        p = init_params(cfg, 0)
        with pytest.raises(ValueError, match="increasing"):
            prune_layers(p, cfg, [2, 0])

    def test_out_of_range_rejected(self):
        cfg = PRESETS["tiny"]
        p = init_params(cfg, 0)
        with pytest.raises(ValueError, match="outside"):
            prune_layers(p, cfg, [0, 1])

    def test_config_other_than_the_params_rejected(self):
        cfg = PRESETS["paper-reduced"]
        with pytest.raises(ValueError, match="prune_layers: config .* does not describe params"):
            prune_layers(init_params(cfg, 0), replace(cfg, n_heads=8), [0])


class TestStructuralPruningWithBiases:
    CFG = ModelConfig(11, 5, 8, 4, 12, 2, use_bias=True)  # head width 2

    def params(self):
        theta = rng_uniform_array(4, (param_count(self.CFG),), -1.0, 1.0)
        return init_params(self.CFG, 0).with_theta(theta)

    def test_prune_heads_equals_hand_sliced_arrays(self):
        p = self.params()
        pruned, new_cfg, _ = prune_heads(p, self.CFG, 1, {0, 2})
        cols = [0, 1, 4, 5]
        a, b = p.layers[1], pruned.layers[1]
        for w, bias in (("wq", "bq"), ("wk", "bk"), ("wv", "bv")):
            assert np.array_equal(getattr(b, w), getattr(a, w)[:, cols])
            assert np.array_equal(getattr(b, bias), getattr(a, bias)[cols])
        assert np.array_equal(b.wo, a.wo[cols, :])
        for name in ("bo", "w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(b, name), getattr(a, name))
        for name, arr in iter_params(p):
            if not name.startswith("layers.1."):
                assert np.array_equal(dict(iter_params(pruned))[name], arr)
        assert param_count(new_cfg) == param_count_enumerated(pruned)

    def test_prune_layers_equals_kept_layer_arrays(self):
        p = self.params()
        pruned, new_cfg, _ = prune_layers(p, self.CFG, [1])
        kept = dict(iter_params(pruned))
        assert list(kept) == [name for name, _ in iter_params(p) if not name.startswith("layers.1.")]
        for name, arr in iter_params(p):
            if not name.startswith("layers.0."):
                assert np.array_equal(kept[name.replace("layers.1.", "layers.0.")], arr)
        assert new_cfg.n_layers == 1


class TestQuantize:
    def test_unit_peak_exact(self):
        qt = quantize_tensor(np.array([[1.0]]))
        assert qt.scale == 1.0 / 127.0
        assert qt.values.tolist() == [[127]]
        assert dequantize(qt)[0, 0] == 1.0

    def test_all_zero_convention(self):
        qt = quantize_tensor(np.zeros((2, 3)))
        assert qt.scale == 1.0
        assert np.array_equal(qt.values, np.zeros((2, 3), np.int8))
        assert np.array_equal(dequantize(qt), np.zeros((2, 3)))

    def test_forced_pair(self):
        qt = quantize_tensor(np.array([[-2.0, 1.0]]))
        assert qt.scale == pytest.approx(2.0 / 127.0, rel=1e-15)
        assert qt.values.tolist() == [[-127, 64]]
        deq = dequantize(qt)
        assert deq[0, 0] == -2.0
        assert deq[0, 1] == pytest.approx(128.0 / 127.0, rel=1e-15)

    def test_half_rounds_away_from_zero(self):
        # 0.5 * scale sits exactly on the rounding boundary
        qt = quantize_tensor(np.array([[127.0, 62.5, -62.5]]))
        assert qt.scale == 1.0
        assert qt.values.tolist() == [[127, 63, -63]]

    def test_never_produces_minus_128(self):
        m = random_matrix(40, 40, seed=3, lo=-9.0, hi=9.0)
        qt = quantize_tensor(m)
        assert int(qt.values.min()) >= -127

    @given(st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_error_bound_and_idempotence(self, seed):
        scale_exp = (seed % 13) - 6
        m = random_matrix(5, 7, seed=seed, lo=-1.0, hi=1.0) * (10.0 ** scale_exp)
        qt = quantize_tensor(m)
        deq = dequantize(qt)
        assert np.max(np.abs(deq - m)) <= qt.scale / 2
        again = quantize_tensor(deq)
        assert again.scale == qt.scale
        assert np.array_equal(again.values, qt.values)

    def test_error_bound_exhaustive_on_params(self):
        p = init_params(ModelConfig(9, 4, 4, 2, 8, 1, use_bias=True), 11)
        for name, qt in quantize_params(p):
            orig = dict(iter_params(p))[name]
            deq = dequantize(qt)
            assert deq.shape == orig.shape
            assert np.max(np.abs(deq - orig)) <= qt.scale / 2

    def test_bias_keeps_its_shape(self):
        qt = quantize_tensor(np.array([0.5, -1.0, 0.25]))
        assert qt.values.shape == (3,) and dequantize(qt).shape == (3,)

    def test_subnormal_peaks_within_bound_and_idempotent(self):
        # peaks k * 5e-324: a nearest scale peak / 127 would round to 0 below
        # k = 64 and clip the peak past scale/2 at k = 190 or 300
        for k in range(1, 2 ** 15 + 1):
            m = np.array([k, 1 - k, k // 2, -(k // 3), 2 * k // 3, 1]) * 5e-324
            qt = quantize_tensor(m)
            assert 0.0 < qt.scale < np.inf
            assert np.max(np.abs(dequantize(qt) - m)) <= qt.scale / 2, k
            again = quantize_tensor(dequantize(qt))
            assert again.scale == qt.scale and np.array_equal(again.values, qt.values), k

    def test_largest_float_peak_gets_a_finite_scale(self):
        top = np.finfo(np.float64).max
        m = np.array([[top, -top / 3, 1.0]])
        qt = quantize_tensor(m)
        assert 0.0 < qt.scale < np.inf and np.isfinite(dequantize(qt)).all()
        assert np.max(np.abs(dequantize(qt) - m)) <= qt.scale / 2
        again = quantize_tensor(dequantize(qt))
        assert again.scale == qt.scale and np.array_equal(again.values, qt.values)


def _requantize_scale(s):
    """g(s): the scale that quantizing a dequantized peak of 127 * s gives."""
    return (127.0 * s) / 127.0


class TestScaleFixedPoint:
    """g(g(s)) == g(s), so quantize_tensor's one step of g lands on g's fixed point."""

    EXPONENTS = np.arange(-1022, 1024)

    def assert_fixed(self, s):
        with np.errstate(over="ignore"):
            s = s[np.isfinite(127.0 * s)]  # a larger scale is stepped down before g
            g = _requantize_scale(s)
            assert np.isfinite(g).all()
            bad = s[_requantize_scale(g) != g]
        assert bad.size == 0, bad[:5]

    def test_binade_edge_significands_of_every_normal_exponent(self):
        sig = np.array([2.0 ** 52, 2.0 ** 52 + 1, 2.0 ** 53 - 2, 2.0 ** 53 - 1])
        self.assert_fixed(np.ldexp(sig, self.EXPONENTS[:, None] - 52).ravel())

    def test_scales_whose_product_is_exceptional(self):
        # quantize_tensor's direct checks: t = fl(127 s) a power of two, or of significand
        # 2**53 - 1, for s = t / 127 and its neighbours. At the top, no finite 127 s
        # rounds to the largest float, so assert_fixed drops that t's scales.
        t = np.ldexp(np.array([2.0 ** 52, 2.0 ** 53 - 1]), self.EXPONENTS[:, None] - 52).ravel()
        s = t / 127.0
        self.assert_fixed(np.concatenate([np.nextafter(s, 0.0), s, np.nextafter(s, np.inf)]))

    def test_subnormal_table_scales_are_exact(self):
        for _, n in _SMALL_SCALES:
            s = n * _TINY
            assert 127.0 * s == 127 * n * _TINY and _requantize_scale(s) == s

    def test_seeded_random_significands_of_every_binade(self):
        sig = np.random.default_rng(32).integers(2 ** 52, 2 ** 53, (self.EXPONENTS.size, 8))
        self.assert_fixed(np.ldexp(sig.astype(np.float64), self.EXPONENTS[:, None] - 52).ravel())

    def test_largest_floats_get_finite_scales_that_requantize_to_themselves(self):
        top = np.float64(np.finfo(np.float64).max).view(np.int64)
        for x in np.arange(top - 19_999, top + 1, dtype=np.int64).view(np.float64).reshape(-1, 1):
            qt = quantize_tensor(x)
            assert 0.0 < qt.scale < np.inf
            assert quantize_tensor(dequantize(qt)).scale == qt.scale, x


class TestHalfPointBound:
    """In exact arithmetic, |x - d| <= scale/2 + 2**-52 * |d| (quantize_tensor's docstring)."""

    @staticmethod
    def excess(x, qt):
        """max over the elements of |x - d| - (scale/2 + 2**-52 * |d|), in exact rationals."""
        d = dequantize(qt)
        return max(abs(Fraction(a) - Fraction(b)) - Fraction(qt.scale) / 2 - Fraction(abs(b)) / 2 ** 52
                   for a, b in zip(x.tolist(), d.tolist()))

    def test_half_point_breaks_scale_over_two_but_not_the_bound(self):
        x = np.array([0.127, 0.0635])
        qt = quantize_tensor(x)
        assert qt.scale == 0.001 and qt.values.tolist() == [127, 64]
        err = abs(Fraction(0.0635) - Fraction(float(dequantize(qt)[1])))
        assert err > Fraction(qt.scale) / 2
        assert self.excess(x, qt) <= 0

    def test_half_point_exceeds_scale_over_two_by_more_than_an_ulp(self):
        # 6.949... / scale rounds to 4.5, which rounds away to 5: one ulp of d would not cover it
        x = np.array([196.11662760113737, 6.949014363819828])
        qt = quantize_tensor(x)
        d = float(dequantize(qt)[1])
        over = abs(Fraction(x[1]) - Fraction(d)) - Fraction(qt.scale) / 2
        assert qt.values[1] == 5 and over > Fraction(math.ulp(d))
        assert self.excess(x, qt) <= 0

    def test_bound_holds_exactly_on_20000_half_point_tensors(self):
        rng = np.random.default_rng(6)
        s = np.ldexp(1.0 + rng.random(20_000), rng.integers(-60, 61, 20_000))
        x = s[:, None] * np.array([127.0, 63.5, -0.5, 10.5])
        qts = [quantize_tensor(row) for row in x]
        scale = np.array([qt.scale for qt in qts])
        d = np.array([dequantize(qt) for qt in qts])
        # In units of u = ulp(scale)/2, x (|x| >= scale/2), d (0 or >= scale) and scale/2 are
        # whole numbers below 2**61, so these int64 sums are exact. 2**-52 * |d| is
        # |D| / 2**52 units, and a whole excess e is at most that iff e <= |D| >> 52.
        k = (np.frexp(scale)[1] - 54)[:, None]
        X, D = (np.ldexp(a, -k).astype(np.int64) for a in (x, d))
        assert np.array_equal(np.ldexp(X.astype(np.float64), k), x)
        assert np.array_equal(np.ldexp(D.astype(np.float64), k), d)
        half = np.ldexp(scale[:, None], -k - 1).astype(np.int64)
        excess = np.abs(X - D) - half
        assert (excess > 0).sum() > 10_000  # scale/2 alone fails on most of them
        assert (excess <= np.abs(D) >> 52).all()


class TestQuantizedParams:
    def test_roundtrip_shapes(self):
        cfg = ModelConfig(9, 4, 4, 2, 8, 1, use_bias=True)
        p = init_params(cfg, 3)
        restored = dequantize_params(p, quantize_params(p))
        for (na, a), (nb, b) in zip(iter_params(p), iter_params(restored)):
            assert na == nb and a.shape == b.shape

    def test_memory_bytes_baseline(self):
        cfg = PRESETS["paper-baseline"]
        # 140,288 int8 values + 8 tensors x 8-byte scales
        assert quantized_memory_bytes(cfg) == 140_288 + 64

    def test_memory_bytes_smallest(self):
        cfg = ModelConfig(1, 1, 1, 1, 1, 0)
        assert quantized_memory_bytes(cfg) == 2 + 16

    def test_quantized_smaller_than_float(self):
        cfg = PRESETS["tiny"]
        p = init_params(cfg, 0)
        assert quantized_memory_bytes(cfg) < 8 * param_count_enumerated(p)

    def test_report_counts_int8_bytes_zeros_and_error(self):
        cfg = ModelConfig(9, 4, 4, 2, 8, 2, use_bias=True)
        p = init_params(cfg, 3)
        quantized = quantize_params(p)
        report = quantize_report(p, quantized)
        n = p.theta.size
        deq = np.concatenate([dequantize(qt).ravel() for _, qt in quantized])
        zeros = sum(int((qt.values == 0).sum()) for _, qt in quantized)
        assert report == CompressionReport("quantize", n, n, 8 * n, n + 8 * len(quantized),
                                           zeros / n, float(np.max(np.abs(p.theta - deq))))
        assert 0 < zeros < n


class TestReportInvariants:
    def test_growth_rejected(self):
        with pytest.raises(ValueError, match="grow"):
            CompressionReport("x", 10, 11, 80, 88, 0.0, 0.0)

    def test_sparsity_range_enforced(self):
        with pytest.raises(ValueError, match="sparsity"):
            CompressionReport("x", 10, 10, 80, 80, 1.5, 0.0)


class TestSpecialValues:
    """Bit-level results of the passes on signed zeros, non-finite values and subnormals."""

    SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 0.004, -0.004, 0.02, -0.02]

    def special_params(self, fill=0.5):
        p = init_params(PRESETS["tiny"], 0)
        theta = np.full(p.theta.size, fill)
        theta[:len(self.SPECIAL)] = self.SPECIAL
        return p.with_theta(theta)

    def test_threshold_zero_keeps_every_bit(self):
        p = self.special_params()
        pruned, report = prune_magnitude(p, 0.0)
        assert pruned.theta.tobytes() == p.theta.tobytes()
        assert report.max_error == 0.0 and report.sparsity == 2 / p.theta.size

    def test_pruned_zeros_are_positive_and_non_finite_values_kept(self):
        p = self.special_params()
        pruned, report = prune_magnitude(p, 0.01)
        want = p.theta.copy()
        want[3:7] = 0.0  # -0.0, 0.0 and +-0.004 become +0.0
        assert pruned.theta.tobytes() == want.tobytes()
        assert not np.signbit(pruned.theta[3])
        assert report.max_error == 0.004 and report.sparsity == 4 / p.theta.size

    def test_infinite_threshold_zeroes_every_finite_value(self):
        p = self.special_params(fill=-7.0)
        pruned, report = prune_magnitude(p, np.inf)
        want = np.zeros(p.theta.size)
        want[:3] = self.SPECIAL[:3]
        assert pruned.theta.tobytes() == want.tobytes()
        assert report.max_error == 7.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_all_non_finite_prunes_nothing_and_reports_zero(self, value):
        p = init_params(PRESETS["tiny"], 0)
        p = p.with_theta(np.full(p.theta.size, value))
        pruned, report = prune_magnitude(p, 1.0)
        assert pruned.theta.tobytes() == p.theta.tobytes()
        assert report.max_error == 0.0 and report.sparsity == 0.0

    def test_quantize_signed_zeros(self):
        for m in ([[0.0, -0.0]], [[-0.0]], [-0.0, -0.0, 0.0]):
            qt = quantize_tensor(np.array(m))
            assert qt.scale == 1.0 and not qt.values.any()
        qt = quantize_tensor(np.array([[-0.0, 1.0, 0.0, -1.0]]))
        assert qt.scale == 1.0 / 127.0 and qt.values.tolist() == [[0, 127, 0, -127]]

    @pytest.mark.parametrize("m, values, scale", [
        ([[1e-310, -5e-311, 3e-312, -0.0, 0.0, 5e-324]], [[127, -63, 4, 0, 0, 0]],
         "0x0.000251b4d7cc6p-1022"),
        ([[-2.2250738585072014e-308, 1e-309, -0.0]], [[-127, 6, 0]], "0x0.0204081020408p-1022"),
        ([[1e-300, 1e-310, -5e-324]], [[127, 0, 0]], "0x1.5995267c88462p-1004"),
    ], ids=["subnormal-peak", "smallest-normal-peak", "normal-peak"])
    def test_quantize_subnormals(self, m, values, scale):
        qt = quantize_tensor(np.array(m))
        assert qt.values.tolist() == values and qt.scale.hex() == scale
