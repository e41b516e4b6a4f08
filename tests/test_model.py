import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leanformer.model import (
    ModelConfig,
    PRESETS,
    attention_forward,
    batch_loss,
    embed,
    ffn_forward,
    grad_check,
    init_params,
    iter_params,
    loss_and_grads,
    model_forward,
    param_count,
    param_count_enumerated,
    param_shapes,
    param_tensor_count,
    synth_copy_batch,
    train_step,
)
from leanformer import model
from leanformer.model import LayerParams, ParamSet
from leanformer.numerics import matmul, relu, rng_uniform_array

import reference

TINY = ModelConfig(vocab_size=11, max_seq_len=4, d_model=4, n_heads=2, d_ff=8, n_layers=1)


def writable_copy(p: ParamSet) -> ParamSet:
    return p.with_theta(p.theta.copy())


def with_zeroed(p: ParamSet, names: set[str]) -> ParamSet:
    q = writable_copy(p)
    for name, arr in iter_params(q):
        if name in names:
            arr[...] = 0.0
    return q


def layout_of_layers(p: ParamSet) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of each tensor, named from the `LayerParams` fields of `p.layers`.

    The forward and backward read these fields, and this builds their names apart from
    `param_shapes`, the walk `iter_params` follows.
    """
    return [("tok_emb", p.tok_emb.shape), ("pos_emb", p.pos_emb.shape)] + [
        (f"layers.{i}.{name}", arr.shape)
        for i, lay in enumerate(p.layers) for name, arr in vars(lay).items() if arr is not None]


# Strategy over small valid configs for property tests.
small_configs = st.builds(
    ModelConfig,
    vocab_size=st.integers(2, 40),
    max_seq_len=st.integers(1, 8),
    d_model=st.sampled_from([2, 4, 6, 8]),
    n_heads=st.sampled_from([1, 2]),
    d_ff=st.integers(1, 16),
    n_layers=st.integers(0, 3),
    use_bias=st.booleans(),
)


class TestConfig:
    def test_heads_must_divide_width(self):
        with pytest.raises(ValueError, match="n_heads"):
            ModelConfig(10, 4, 6, 4, 8, 1)

    def test_dimensions_positive(self):
        with pytest.raises(ValueError):
            ModelConfig(0, 4, 4, 2, 8, 1)
        with pytest.raises(ValueError):
            ModelConfig(10, 4, 4, 2, 8, -1)

    def test_zero_layers_allowed(self):
        cfg = ModelConfig(10, 4, 4, 2, 8, 0)
        assert cfg.n_layers == 0

    def test_layer_heads_one_per_layer(self):
        with pytest.raises(ValueError, match=r"^ModelConfig: layer_heads has 1 entries for 2 layers$"):
            ModelConfig(10, 4, 4, 2, 8, 2, head_dim=2, layer_heads=(2,))


class TestInit:
    def test_deterministic(self):
        a = init_params(TINY, seed=5)
        b = init_params(TINY, seed=5)
        for (na, arr_a), (nb, arr_b) in zip(iter_params(a), iter_params(b)):
            assert na == nb
            assert np.array_equal(arr_a, arr_b)

    @pytest.mark.parametrize("seed", [np.int64(3), np.int32(-5), np.uint64(2**63 + 1)])
    def test_numpy_integer_seed_draws_the_python_int_stream(self, seed):
        assert init_params(TINY, seed).theta.tobytes() == init_params(TINY, int(seed)).theta.tobytes()
        assert np.array_equal(synth_copy_batch(seed, 2, 3, 11)[0], synth_copy_batch(int(seed), 2, 3, 11)[0])

    def test_layerless_model_has_only_embeddings(self):
        cfg = ModelConfig(6, 3, 4, 2, 8, 0)
        p = init_params(cfg, seed=0)
        assert [name for name, _ in iter_params(p)] == ["tok_emb", "pos_emb"]

    def test_first_element_is_first_stream_draw(self):
        p = init_params(TINY, seed=1)
        # first SplitMix64 output for seed 1 mapped into [-0.05, 0.05),
        # frozen from the independent oracle
        assert p.tok_emb[0, 0] == 0.00665615751722809
        assert p.tok_emb[0, 0] == reference.uniforms(1, 1, -0.05, 0.05)[0]

    def test_values_within_init_interval(self):
        p = init_params(PRESETS["paper-reduced"], seed=3)
        for _, arr in iter_params(p):
            assert np.all(arr >= -0.05) and np.all(arr < 0.05)

    def test_biases_start_at_zero(self):
        cfg = ModelConfig(6, 3, 4, 2, 8, 1, use_bias=True)
        p = init_params(cfg, seed=2)
        lay = p.layers[0]
        for b in (lay.bq, lay.bk, lay.bv, lay.bo, lay.b1, lay.b2):
            assert np.array_equal(b, np.zeros_like(b))


class TestEmbed:
    def test_zero_positions_give_token_rows(self):
        p = with_zeroed(init_params(TINY, 0), {"pos_emb"})
        out = embed(p, [7])
        assert np.array_equal(out, p.tok_emb[[7]])

    def test_zero_tokens_give_position_rows(self):
        p = with_zeroed(init_params(TINY, 0), {"tok_emb"})
        out = embed(p, [3, 9])
        assert np.array_equal(out, p.pos_emb[:2])

    def test_out_of_range_id_names_position(self):
        p = init_params(TINY, 0)
        with pytest.raises(ValueError, match=r"token id 11 at position 1"):
            embed(p, [0, TINY.vocab_size])

    def test_too_long_sequence(self):
        p = init_params(TINY, 0)
        with pytest.raises(ValueError, match="max_seq_len"):
            embed(p, [0] * (TINY.max_seq_len + 1))

    @pytest.mark.parametrize("tokens", [[], [[]], np.zeros((1, 2, 2), np.int64)],
                             ids=["empty", "empty-row", "3-d"])
    def test_empty_or_3d_ids_rejected(self, tokens):
        with pytest.raises(ValueError, match=r"^embed: need a non-empty sequence or \(sequences, n\) array"):
            embed(init_params(TINY, 0), tokens)


class TestAttention:
    def test_zero_query_gives_uniform_weights(self):
        p = with_zeroed(init_params(TINY, 4), {"layers.0.wq"})
        x = np.linspace(-1, 1, 3 * TINY.d_model).reshape(3, TINY.d_model)
        out, trace = attention_forward(p, 0, x, TINY.n_heads)
        n = x.shape[0]
        for w in trace.weights:
            assert np.array_equal(w, np.full((n, n), 1.0 / n))
        mean_v = np.tile((x @ p.layers[0].wv).mean(axis=0), (n, 1))
        assert np.allclose(out, mean_v @ p.layers[0].wo, atol=1e-15)

    def test_zero_key_also_uniform(self):
        p = with_zeroed(init_params(TINY, 4), {"layers.0.wk"})
        x = np.linspace(-1, 1, 3 * TINY.d_model).reshape(3, TINY.d_model)
        _, trace = attention_forward(p, 0, x, TINY.n_heads)
        for w in trace.weights:
            assert np.array_equal(w, np.full((3, 3), 1.0 / 3.0))

    def test_single_position_weight_is_one(self):
        p = init_params(TINY, 8)
        x = np.array([[0.3, -0.2, 0.1, 0.7]])
        out, trace = attention_forward(p, 0, x, TINY.n_heads)
        for w in trace.weights:
            assert np.array_equal(w, [[1.0]])
        assert np.allclose(out, x @ p.layers[0].wv @ p.layers[0].wo, atol=1e-15)

    def test_matches_loop_reference(self):
        cfg = ModelConfig(9, 5, 4, 2, 8, 1)
        p = init_params(cfg, seed=13)
        x = np.linspace(-0.8, 0.9, 3 * 4).reshape(3, 4)
        out, _ = attention_forward(p, 0, x, 2)
        lay = p.layers[0]
        expect = reference.attention(
            x.tolist(), lay.wq.tolist(), lay.wk.tolist(), lay.wv.tolist(),
            lay.wo.tolist(), heads=2,
        )
        assert np.allclose(out, expect, rtol=1e-12, atol=1e-14)

    def test_weight_rows_sum_to_one(self):
        cfg = ModelConfig(30, 8, 8, 4, 16, 1)
        p = init_params(cfg, seed=21)
        x = np.linspace(-2, 2, 6 * 8).reshape(6, 8)
        _, trace = attention_forward(p, 0, x, 4)
        for w in trace.weights:
            assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-12

    def test_stack_weights_are_head_major_blocks(self):
        # on a (sequences, n, d) stack the weights are (heads, sequences, n, n):
        # each head's block is C-contiguous and holds each sequence's 2-D weights
        cfg = ModelConfig(9, 5, 12, 3, 8, 1, use_bias=True)
        p = init_params(cfg, 0).with_theta(rng_uniform_array(2, (param_count(cfg),), -0.5, 0.5))
        x = rng_uniform_array(3, (4, 5, 12), -1.0, 1.0)
        _, trace = attention_forward(p, 0, x, 3)
        assert trace.weights.shape == (3, 4, 5, 5)
        assert all(w.flags.c_contiguous for w in trace.weights)
        for j, xs in enumerate(x):
            _, alone = attention_forward(p, 0, xs, 3)
            assert trace.weights[:, j].tobytes() == alone.weights.tobytes()

    def test_shape_mismatch(self):
        p = init_params(TINY, 0)
        with pytest.raises(ValueError, match="does not match"):
            attention_forward(p, 0, np.zeros((3, 5)), TINY.n_heads)

    @pytest.mark.parametrize("layer", [-1, 2], ids=["negative", "n_layers"])
    def test_layer_outside_the_model_rejected(self, layer):
        # -1 would index the last layer, 2 past the end
        cfg = ModelConfig(9, 4, 4, 2, 8, 2)
        with pytest.raises(ValueError, match=rf"attention_forward: layer index {layer} out of range \[0, 2\)"):
            attention_forward(init_params(cfg, 0), layer, np.zeros((3, 4)), 2)

    @pytest.mark.parametrize("heads", [1, 4])
    def test_head_count_other_than_the_layers_rejected(self, heads):
        # both divide the width 4, so each would compute some other attention
        with pytest.raises(ValueError, match=f"attention_forward: layer 0 has 2 heads, not {heads}"):
            attention_forward(init_params(TINY, 0), 0, np.zeros((3, 4)), heads)


class TestFfn:
    def test_zero_w1_gives_zeros(self):
        p = with_zeroed(init_params(TINY, 4), {"layers.0.w1"})
        x = np.ones((2, TINY.d_model))
        assert np.array_equal(ffn_forward(p, 0, x), np.zeros((2, TINY.d_model)))

    def test_zero_input_gives_zeros(self):
        p = init_params(TINY, 4)
        x = np.zeros((3, TINY.d_model))
        assert np.array_equal(ffn_forward(p, 0, x), np.zeros((3, TINY.d_model)))

    def test_one_by_one_analytic(self):
        cfg = ModelConfig(2, 1, 1, 1, 1, 1)
        p = writable_copy(init_params(cfg, 0))
        p.layers[0].w1[...] = [[2.0]]
        p.layers[0].w2[...] = [[3.0]]
        assert ffn_forward(p, 0, np.array([[-1.0]]))[0, 0] == 0.0
        assert ffn_forward(p, 0, np.array([[1.0]]))[0, 0] == 6.0

    @pytest.mark.parametrize("layer", [-2, 2], ids=["negative", "n_layers"])
    def test_layer_outside_the_model_rejected(self, layer):
        # -2 would index layer 0, 2 past the end
        cfg = ModelConfig(9, 4, 4, 2, 8, 2)
        with pytest.raises(ValueError, match=rf"ffn_forward: layer index {layer} out of range \[0, 2\)"):
            ffn_forward(init_params(cfg, 0), layer, np.zeros((3, 4)))

    @pytest.mark.parametrize("shape", [(3, 5), (4,)], ids=["width", "1-d"])
    def test_input_other_than_d_model_wide_rejected(self, shape):
        message = f"ffn_forward: input shape {shape} does not match d_model 4"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ffn_forward(init_params(TINY, 0), 0, np.zeros(shape))


class TestForward:
    def test_all_zero_params_give_uniform_logits(self):
        p = with_zeroed(init_params(TINY, 0), {name for name, _ in iter_params(init_params(TINY, 0))})
        logits, _ = model_forward(p, TINY, [[1, 2, 3]])
        assert np.array_equal(logits[0], np.zeros((3, TINY.vocab_size)))
        from leanformer.numerics import softmax_rows
        probs = softmax_rows(logits[0])
        assert np.allclose(probs, 1.0 / TINY.vocab_size, atol=1e-15)

    def test_layerless_forward_is_tied_lookup(self):
        cfg = ModelConfig(9, 4, 4, 2, 8, 0)
        p = init_params(cfg, seed=6)
        tokens = [2, 5, 8]
        logits, _ = model_forward(p, cfg, [tokens])
        assert np.array_equal(logits[0], embed(p, tokens) @ p.tok_emb.T)
        # the traced forward's one checkpoint is the embedded rows, the output stage's input
        (checkpoint,) = model_forward(p, cfg, [tokens], trace=True)[1].outputs
        assert checkpoint.shape == (1, 3, 4) and checkpoint.tobytes() == embed(p, [tokens]).tobytes()

    def test_deterministic_bitwise(self):
        cfg = ModelConfig(15, 6, 8, 2, 16, 2)
        p = init_params(cfg, seed=42)
        batch = [[1, 2, 3, 4], [5, 6, 7, 8]]
        a, _ = model_forward(p, cfg, batch)
        b, _ = model_forward(p, cfg, batch)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_matches_reference_and_frozen_checksum(self):
        cfg = ModelConfig(vocab_size=20, max_seq_len=6, d_model=8, n_heads=2,
                          d_ff=16, n_layers=1)
        p = init_params(cfg, seed=42)
        batch, _ = synth_copy_batch(42, 2, 5, cfg.vocab_size)
        logits, _ = model_forward(p, cfg, list(batch))
        for tokens, got in zip(batch, logits):
            expect = np.array(reference.forward(p, cfg, list(tokens)))
            assert np.allclose(got, expect, rtol=1e-10, atol=1e-20)
        checksum = float(sum(np.abs(lg).sum() for lg in logits))
        # recorded from the first run verified against the slow reference
        assert checksum == pytest.approx(6.787563234587767e-06, rel=1e-9)

    @pytest.mark.parametrize("batch", [[[1, 2, 3, 4, 5, 6], [7, 0, 12, 3, 3, 1], [0, 12, 3, 5, 6, 7]],
                                       [[7], [0]]], ids=["length-6", "length-1"])
    def test_batch_bit_equal_to_per_sequence_path(self, batch):
        cfg = ModelConfig(13, 6, 8, 4, 16, 2, use_bias=True)
        theta = rng_uniform_array(9, (param_count(cfg),), -0.5, 0.5)
        p = init_params(cfg, 0).with_theta(theta)
        logits, _ = model_forward(p, cfg, batch)
        for tokens, got in zip(batch, logits):
            x = embed(p, tokens)
            for layer in range(cfg.n_layers):
                x, _ = attention_forward(p, layer, x, cfg.heads_in_layer(layer))
                x = ffn_forward(p, layer, x)
            want = matmul(x, p.tok_emb.T)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_untraced_forward_gives_the_traced_logits_and_no_trace(self):
        cfg = ModelConfig(13, 6, 8, 4, 16, 2, use_bias=True)
        p = init_params(cfg, 0).with_theta(rng_uniform_array(3, (param_count(cfg),), -0.5, 0.5))
        batch = [[1, 2, 3, 4, 5], [7, 0, 12, 3, 3]]
        logits, trace = model_forward(p, cfg, batch)
        assert trace is None
        # the traced forward stops at the last layer: the backward takes the logits itself
        traced, checkpoints = model_forward(p, cfg, batch, trace=True)
        assert traced is None
        tied = np.array([matmul(x, p.tok_emb.T) for x in checkpoints.outputs[-1]])
        assert logits.tobytes() == tied.tobytes()

    def test_empty_batch_rejected(self):
        p = init_params(TINY, 0)
        with pytest.raises(ValueError, match="non-empty"):
            model_forward(p, TINY, [])

    def test_config_other_than_the_params_rejected(self):
        # 8 heads of width 2 would fit the reduced model's 16-wide layers
        cfg = PRESETS["paper-reduced"]
        with pytest.raises(ValueError, match="model_forward: config .* does not describe params"):
            model_forward(init_params(cfg, 0), dataclasses.replace(cfg, n_heads=8), [[1, 2]])

    @pytest.mark.parametrize("budget", [None, 1], ids=["default-chunks", "one-sequence-chunks"])
    def test_checkpoints_and_recompute_are_the_stages_run_on_one_sequence(self, budget, monkeypatch):
        # the checkpoint forward keeps each layer's output; the backward recomputes
        # q, k, v, the weights, the attention output and the FFN hidden layer a
        # chunk at a time: each row is the stage run on its one sequence
        cfg = ModelConfig(13, 6, 8, 4, 16, 2, use_bias=True, head_dim=3, layer_heads=(2, 1))
        p = init_params(cfg, 0).with_theta(rng_uniform_array(5, (param_count(cfg),), -0.5, 0.5))
        batch = [[1, 2, 3, 4, 5], [7, 0, 12, 3, 3], [0, 12, 3, 5, 6]]
        b, n, d = 3, 5, cfg.d_model
        if budget is not None:
            monkeypatch.setattr(model, "STEP_CHUNK_BYTES", budget)
        _, checkpoints = model_forward(p, cfg, batch, trace=True)
        assert checkpoints.ids.shape == (b, n) and checkpoints.ids.tolist() == batch
        assert [out.shape for out in checkpoints.outputs] == [(b, n, d)] * cfg.n_layers
        assert all(out.flags.c_contiguous for out in checkpoints.outputs)

        recomputed = {layer: [] for layer in range(cfg.n_layers)}
        real_attention, real_hidden, real_backward = (
            model.attention_forward, model._ffn_hidden, model._layer_backward)

        def layer_backward(q, g, layer, x, dx):
            # only the backward's stage calls are recorded
            def attention(*args):
                y, attn = real_attention(*args)
                # copies: the backward writes gradients over some of them
                recomputed[layer].append([a.copy() for a in (attn.q, attn.k, attn.v, attn.weights, y)])
                return y, attn

            def hidden(*args):
                h = real_hidden(*args)
                recomputed[layer][-1].append(h.copy())
                return h

            monkeypatch.setattr(model, "attention_forward", attention)
            monkeypatch.setattr(model, "_ffn_hidden", hidden)
            try:
                return real_backward(q, g, layer, x, dx)
            finally:
                monkeypatch.setattr(model, "attention_forward", real_attention)
                monkeypatch.setattr(model, "_ffn_hidden", real_hidden)

        monkeypatch.setattr(model, "_layer_backward", layer_backward)
        loss_and_grads(p, cfg, batch, batch)
        # each stage's sequence axis: the weights are head-major, (heads, sequences, n, n)
        axes = (0, 0, 0, 1, 0, 0)
        for layer, chunks in recomputed.items():
            w, h = cfg.attn_width(layer), cfg.heads_in_layer(layer)
            # the stages' arrays, chunks stacked back into the batch
            q, k, v, weights, y, hidden = (np.concatenate(arrays, axis) for arrays, axis in zip(zip(*chunks), axes))
            assert [q.shape, k.shape, v.shape] == [(b, n, w)] * 3
            assert weights.shape == (h, b, n, n)
            assert y.shape == (b, n, d) and hidden.shape == (b, n, cfg.d_ff)
            recomputed[layer] = q, k, v, weights, y, hidden
        for s, tokens in enumerate(batch):
            x = embed(p, tokens)
            for layer, out in enumerate(checkpoints.outputs):
                lay = p.layers[layer]
                y, attn = attention_forward(p, layer, x, cfg.heads_in_layer(layer))
                hidden = relu(matmul(y, lay.w1) + lay.b1)
                x = ffn_forward(p, layer, y)
                want = [attn.q, attn.k, attn.v, np.array(attn.weights), y, hidden]
                got = [np.take(a, s, axis) for a, axis in zip(recomputed[layer], axes)]
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
                assert out[s].tobytes() == x.tobytes()

    @pytest.mark.parametrize("trace, budget", [(True, None), (True, 1), (False, None)],
                             ids=["traced", "traced-one-sequence-chunks", "untraced"])
    def test_stage_calls_per_layer(self, trace, budget, monkeypatch):
        # traced, each stage runs once per layer per chunk, on (sequences, n, d)
        # stacks: the whole batch by default, a stack of one sequence at a
        # one-sequence budget; untraced, once per sequence on its (n, d)
        # matrix, never on a stack of one, which costs the timed forward time
        cfg = ModelConfig(13, 6, 8, 4, 16, 2, use_bias=True)
        batch = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        b, n, d = 3, 3, cfg.d_model
        if budget is not None:
            monkeypatch.setattr(model, "STEP_CHUNK_BYTES", budget)
        shapes = {"attention_forward": [], "ffn_forward": []}
        for name in shapes:
            def recorded(p, layer, x, *args, _stage=getattr(model, name), _name=name):
                shapes[_name].append(x.shape)
                return _stage(p, layer, x, *args)
            monkeypatch.setattr(model, name, recorded)
        model_forward(init_params(cfg, 0), cfg, batch, trace=trace)
        if not trace:
            want = [(n, d)] * b
        else:
            want = [(b, n, d)] if budget is None else [(1, n, d)] * b
        assert shapes == {"attention_forward": want * cfg.n_layers, "ffn_forward": want * cfg.n_layers}

    @pytest.mark.parametrize("name, per_sequence", [("paper-baseline", (23, 8)), ("paper-reduced", (15, 4))],
                             ids=["paper-baseline", "paper-reduced"])
    def test_numerics_calls_per_untraced_forward(self, name, per_sequence, monkeypatch):
        # per sequence: Q, K, V, two per head, the output projection, two FFN
        # products and the tied logits; one softmax per head
        cfg = PRESETS[name]
        calls = {"matmul": 0, "softmax_rows": 0}
        for fn in calls:
            def counted(*args, _fn=getattr(model, fn), _name=fn, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(model, fn, counted)
        batch, _ = synth_copy_batch(1, 32, 10, cfg.vocab_size)
        model_forward(init_params(cfg, 0), cfg, batch)
        assert (calls["matmul"], calls["softmax_rows"]) == tuple(32 * c for c in per_sequence)

    @staticmethod
    def tied_calls(p, monkeypatch) -> list:
        """Spy on `model.matmul`: (right operand, out) of each tied product, in call order."""
        calls, real = [], model.matmul

        def spied(a, b, out=None):
            if b.shape == p.tok_emb.shape[::-1]:
                calls.append((b, out))
            return real(a, b, out=out)

        monkeypatch.setattr(model, "matmul", spied)
        return calls

    @staticmethod
    def strided(b, p) -> bool:
        """Whether `b` is the view `p.tok_emb.T` itself, not a copy of it."""
        return b.ctypes.data == p.tok_emb.ctypes.data and b.strides == p.tok_emb.T.strides

    def test_untraced_tied_products_read_a_copy_in_the_logits(self, monkeypatch):
        # paper-baseline at 32 x 10: tok_emb^T, C-contiguous, fills the first
        # ceil(32 / 10) = 4 sequences' rows; sequences 31 down to 4 read it,
        # then 0 to 3 read the strided view, overwriting the copy
        cfg = PRESETS["paper-baseline"]
        p = init_params(cfg, 0)
        calls = self.tied_calls(p, monkeypatch)
        batch, _ = synth_copy_batch(1, 32, 10, cfg.vocab_size)
        logits, _ = model_forward(p, cfg, batch)
        assert len(calls) == 32
        for b, _ in calls[:28]:
            assert b.flags.c_contiguous and np.shares_memory(b, logits[:4])
        assert all(self.strided(b, p) for b, _ in calls[28:])
        sequences = [next(s for s in range(32) if np.shares_memory(out, logits[s])) for _, out in calls]
        assert sequences == [*range(31, 3, -1), *range(4)]

    @pytest.mark.parametrize("name, b", [("paper-baseline", 11), ("paper-baseline", 4), ("paper-reduced", 5)])
    def test_small_batches_read_the_strided_view(self, name, b, monkeypatch):
        # below 3 * ceil(d / n) sequences the copy costs more than it saves
        cfg = PRESETS[name]
        p = init_params(cfg, 0)
        calls = self.tied_calls(p, monkeypatch)
        batch, _ = synth_copy_batch(1, b, 10, cfg.vocab_size)
        model_forward(p, cfg, batch)
        assert len(calls) == b and all(self.strided(b, p) for b, _ in calls)

    def test_training_tied_products_read_vocabulary_blocks(self, monkeypatch):
        # vocabulary-major logits: at 32 x 10 a chunk is two sequences, 20
        # rows, and each of its four vocabulary blocks is one product of at
        # most 1024 rows of tok_emb against the chunk's (d, rows) copy, into
        # that block's slab of the one (vocab, rows) buffer
        cfg = PRESETS["paper-baseline"]
        d, vocab = cfg.d_model, cfg.vocab_size
        p = init_params(cfg, 0)
        calls, real = [], model.matmul

        def spied(a, b, out=None):
            if np.shares_memory(a, p.tok_emb):
                calls.append((a, b.copy(), b.flags.c_contiguous, out))
            return real(a, b, out=out)

        monkeypatch.setattr(model, "matmul", spied)
        batch, targets = synth_copy_batch(1, 32, 10, vocab)
        x = model_forward(p, cfg, batch, trace=True)[1].outputs[-1].reshape(-1, d)
        loss_and_grads(p, cfg, batch, targets)
        assert len(calls) == 64
        buf = calls[0][3].base
        for i, (a, b, b_contiguous, out) in enumerate(calls):
            chunk, v = divmod(i, 4)
            v *= 1024
            rows = min(1024, vocab - v)
            # a C-contiguous view of tok_emb's rows v to v + rows, not a copy
            assert a.flags.c_contiguous and a.shape == (rows, d)
            assert a.ctypes.data == p.tok_emb[v].ctypes.data and a.strides == p.tok_emb.strides
            assert b_contiguous and b.tobytes() == x[20 * chunk:20 * chunk + 20].T.tobytes()
            assert out.shape == (rows, 20) and out.flags.c_contiguous and out.base is buf
            assert out.ctypes.data == buf.ctypes.data + 8 * 20 * v

    @staticmethod
    def logits_and_strided_products(cfg, b, n):
        p = init_params(cfg, 2)
        batch, _ = synth_copy_batch(3, b, n, cfg.vocab_size)
        logits, _ = model_forward(p, cfg, batch)
        _, checkpoints = model_forward(p, cfg, batch, trace=True)
        return logits, np.array([matmul(xs, p.tok_emb.T) for xs in checkpoints.outputs[-1]])

    @pytest.mark.parametrize("b", [12, 32])
    @pytest.mark.parametrize("n", [2, 5, 10])
    @pytest.mark.parametrize("name", ["paper-baseline", "paper-reduced"])
    def test_preset_logits_are_the_strided_products(self, name, n, b):
        # the staged forward perfbench compares with model_forward takes the strided product
        logits, want = self.logits_and_strided_products(PRESETS[name], b, n)
        assert logits.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cfg", [PRESETS["small"], ModelConfig(100, 10, 32, 16, 32, 2)],
                             ids=["small", "16-head"])
    def test_small_vocabulary_logits_agree_with_the_strided_products(self, cfg):
        # OpenBLAS's small-matrix kernels may sum in an order set by the
        # operand layout; the first sequences, which overwrite the copy, take
        # the strided product itself, so a stale byte of the copy would show
        b, n = 32, 10
        logits, want = self.logits_and_strided_products(cfg, b, n)
        held = -(-cfg.d_model // n)
        assert logits[:held].tobytes() == want[:held].tobytes()
        assert np.abs(logits - want).max() <= 1e-15 * np.abs(want).max()

    def test_batch_embedding_names_sequence_and_position(self):
        p = init_params(TINY, 0)
        rows = np.array([embed(p, [1, 2]), embed(p, [3, 4])])
        assert embed(p, [[1, 2], [3, 4]]).tobytes() == rows.tobytes()
        with pytest.raises(ValueError, match=r"token id 11 at position 0 of sequence 1 outside"):
            model_forward(p, TINY, [[1, 2], [11, 3]])


class TestParamSet:
    def test_wrong_sized_theta_rejected(self):
        p = init_params(TINY, 0)
        with pytest.raises(ValueError, match="theta"):
            p.with_theta(np.zeros(p.theta.size + 1))

    def test_views_are_read_only_windows_into_theta(self):
        p = init_params(TINY, 0)
        for _, arr in iter_params(p):
            assert not arr.flags.writeable and np.shares_memory(arr, p.theta)
        with pytest.raises(ValueError, match="read-only"):
            p.layers[0].wo[0, 0] = 1.0

    def test_views_cannot_be_rebound(self):
        p = init_params(TINY, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.layers[0].wo = np.zeros_like(p.layers[0].wo)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.tok_emb = np.zeros_like(p.tok_emb)


class TestParamCount:
    def test_paper_baseline(self):
        assert param_count(PRESETS["paper-baseline"]) == 140_288

    def test_paper_reduced(self):
        assert param_count(PRESETS["paper-reduced"]) == 67_072

    def test_smallest_model(self):
        assert param_count(ModelConfig(1, 1, 1, 1, 1, 0)) == 2

    def test_enumeration_small_case(self):
        cfg = ModelConfig(2, 1, 3, 1, 1, 0)
        assert param_count_enumerated(init_params(cfg, 0)) == 9

    def test_baseline_enumerated(self):
        p = init_params(PRESETS["paper-baseline"], seed=0)
        assert param_count_enumerated(p) == 140_288

    @given(small_configs, st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_closed_form_equals_enumeration(self, cfg, seed):
        assert param_count(cfg) == param_count_enumerated(init_params(cfg, seed))

    @given(st.integers(1, 5000), st.integers(1, 32), st.sampled_from([8, 16, 32, 64]))
    @settings(max_examples=60, deadline=None)
    def test_halving_formula(self, vocab, seq, d):
        # with f = 4d and one layer, halving d (and f, heads) takes the
        # count from (V+S)d + 12d^2 to (V+S)(d/2) + 3d^2
        base = ModelConfig(vocab, seq, d, 8, 4 * d, 1)
        assert param_count(base) == (vocab + seq) * d + 12 * d * d
        from leanformer.compression import reduce_config
        half = reduce_config(base)
        assert param_count(half) == (vocab + seq) * (d // 2) + 3 * d * d

    @given(small_configs)
    @settings(max_examples=60, deadline=None)
    def test_tensor_count_equals_layout_length(self, cfg):
        layout = layout_of_layers(init_params(cfg, 0))
        assert param_tensor_count(cfg) == len(layout)
        assert list(param_shapes(cfg)) == layout

    def test_tensor_count_of_pruned_biased_config(self):
        cfg = ModelConfig(13, 6, 8, 4, 16, 2, use_bias=True, head_dim=3, layer_heads=(2, 1))
        layout = layout_of_layers(init_params(cfg, 0))
        assert param_tensor_count(cfg) == len(layout) == 26
        assert list(param_shapes(cfg)) == layout

    @pytest.mark.parametrize("heads", [1, 2, 4, 8])
    def test_head_count_does_not_change_count(self, heads):
        cfg = ModelConfig(100, 10, 8, heads, 32, 2)
        assert param_count(cfg) == param_count(ModelConfig(100, 10, 8, 1, 32, 2))


def layerless_1d(tok_emb, pos_emb=(0.0,)) -> tuple[ModelConfig, ParamSet]:
    """A width-1 layerless model: token t at position i gets logits (tok_emb[t] + pos_emb[i]) * tok_emb."""
    cfg = ModelConfig(len(tok_emb), len(pos_emb), 1, 1, 1, 0)
    return cfg, init_params(cfg, 0).with_theta(np.array([*tok_emb, *pos_emb], dtype=float))


class TestCrossEntropy:
    def test_uniform_logits(self):
        cfg, p = layerless_1d([0.0] * 4000)
        assert batch_loss(p, cfg, [[5]], [[17]]) == pytest.approx(math.log(4000), rel=1e-12)
        assert reference.cross_entropy(np.zeros((3, 4000)), [0, 17, 3999]) == pytest.approx(
            math.log(4000), rel=1e-12)

    def test_confident_correct_prediction(self):
        # logits (0, 0, 20, 0, 0) for token 2
        cfg, p = layerless_1d([0.0, 0.0, math.sqrt(20.0), 0.0, 0.0])
        assert batch_loss(p, cfg, [[2]], [[2]]) < 1e-8

    def test_two_class_analytic(self):
        # logits (0, log 3) for token 0 at position 0
        cfg, p = layerless_1d([0.0, 1.0], [math.log(3.0)])
        assert batch_loss(p, cfg, [[0]], [[0]]) == pytest.approx(math.log(4.0), rel=1e-12)

    def test_target_out_of_range(self):
        cfg, p = layerless_1d([0.0] * 5)
        with pytest.raises(ValueError, match=r"batch_loss: target id 5 outside \[0, 5\)"):
            batch_loss(p, cfg, [[1]], [[5]])


class TestTraining:
    def test_zero_lr_keeps_params_bit_identical(self):
        p = init_params(TINY, 3)
        batch, targets = synth_copy_batch(3, 4, 3, TINY.vocab_size)
        p2, loss = train_step(p, TINY, list(batch), list(targets), lr=0.0)
        for (_, a), (_, b) in zip(iter_params(p), iter_params(p2)):
            assert np.array_equal(a, b)
        assert loss == pytest.approx(batch_loss(p, TINY, list(batch), list(targets)), rel=1e-15)

    def test_negative_lr_rejected(self):
        p = init_params(TINY, 3)
        batch, targets = synth_copy_batch(3, 2, 3, TINY.vocab_size)
        with pytest.raises(ValueError, match="learning rate"):
            train_step(p, TINY, list(batch), list(targets), lr=-0.1)

    @pytest.mark.parametrize("lr", [math.inf, math.nan])
    def test_non_finite_lr_rejected(self, lr):
        p = init_params(TINY, 3)
        batch, targets = synth_copy_batch(3, 2, 3, TINY.vocab_size)
        with pytest.raises(ValueError, match=f"learning rate must be finite and >= 0, got {lr}"):
            train_step(p, TINY, list(batch), list(targets), lr=lr)

    def test_ten_iterations_reduce_loss(self):
        cfg = PRESETS["small"]
        p = init_params(cfg, 0)
        batch, targets = synth_copy_batch(0, 32, 10, cfg.vocab_size)
        losses = []
        for _ in range(10):
            p, loss = train_step(p, cfg, list(batch), list(targets), lr=0.05)
            losses.append(loss)
        assert losses[-1] < losses[0]

    def test_returns_pre_update_loss(self):
        cfg = TINY
        p = init_params(cfg, 9)
        batch, targets = synth_copy_batch(9, 4, 3, cfg.vocab_size)
        before = batch_loss(p, cfg, list(batch), list(targets))
        _, reported = train_step(p, cfg, list(batch), list(targets), lr=0.1)
        assert reported == pytest.approx(before, rel=1e-15)


class TestGradCheck:
    def test_tiny_config_passes_tolerance(self):
        assert grad_check(TINY, seed=7, eps=1e-5) < 1e-4

    def test_halving_eps_bounded_growth(self):
        err = grad_check(TINY, seed=7, eps=1e-4)
        err_half = grad_check(TINY, seed=7, eps=5e-5)
        assert err_half <= 4 * err

    def test_layerless_gradients_only_in_embeddings(self):
        cfg = ModelConfig(7, 3, 4, 2, 8, 0)
        p = init_params(cfg, 1)
        batch, targets = synth_copy_batch(1, 2, 3, cfg.vocab_size)
        _, grads = loss_and_grads(p, cfg, list(batch), list(targets))
        assert grads.layers == []
        assert np.any(grads.tok_emb != 0.0)
        assert np.any(grads.pos_emb != 0.0)
        assert grad_check(cfg, seed=1, eps=1e-5) < 1e-4

    def test_oversized_config_rejected(self):
        with pytest.raises(ValueError, match="smaller config"):
            grad_check(PRESETS["paper-baseline"], seed=0, eps=1e-5)

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError, match="eps"):
            grad_check(TINY, seed=0, eps=0.0)

    @pytest.mark.parametrize("eps", [math.inf, math.nan])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match=f"eps must be finite and > 0, got {eps}"):
            grad_check(TINY, seed=0, eps=eps)

    def test_nan_loss_fails_the_check(self, monkeypatch):
        # a NaN relative error must not vanish in max(worst, nan)
        monkeypatch.setattr(model, "batch_loss", lambda *args: math.nan)
        assert math.isnan(grad_check(TINY, seed=0, eps=1e-5))

    def test_multilayer_gradients_close_in_absolute_terms(self):
        # deep near-zero gradients sit at the fd noise floor, so the
        # relative metric is uninformative there; absolute closeness is the
        # right multi-layer assertion
        cfg = ModelConfig(7, 3, 4, 2, 6, 2)
        from leanformer.model import _init_uniform
        p = _init_uniform(cfg, 11, -0.25, 0.25)
        batch, targets = synth_copy_batch(11, 2, 3, cfg.vocab_size)
        _, grads = loss_and_grads(p, cfg, list(batch), list(targets))
        theta = p.theta
        analytic = grads.theta
        eps = 1e-5
        worst = 0.0
        for i in range(theta.size):
            b = theta.copy()
            b[i] = theta[i] + eps
            hi = batch_loss(p.with_theta(b), cfg, list(batch), list(targets))
            b[i] = theta[i] - eps
            lo = batch_loss(p.with_theta(b), cfg, list(batch), list(targets))
            worst = max(worst, abs(analytic[i] - (hi - lo) / (2 * eps)))
        assert worst < 1e-8

    def test_bias_gradients_check_out(self):
        cfg = ModelConfig(9, 3, 4, 2, 6, 1, use_bias=True)
        assert grad_check(cfg, seed=5, eps=1e-5) < 1e-4


class TestSynthCopyBatch:
    def test_deterministic(self):
        a = synth_copy_batch(4, 8, 5, 30)
        b = synth_copy_batch(4, 8, 5, 30)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_ids_in_range_and_targets_copy(self):
        inputs, targets = synth_copy_batch(99, 16, 7, 13)
        assert inputs.shape == (16, 7)
        assert np.all((inputs >= 0) & (inputs < 13))
        assert np.array_equal(inputs, targets)

    def test_run_shape_of_the_benchmark(self):
        inputs, _ = synth_copy_batch(0, 32, 10, 3990)
        assert inputs.shape == (32, 10)

    def test_degenerate_vocab_rejected(self):
        with pytest.raises(ValueError, match="vocab_size"):
            synth_copy_batch(0, 2, 2, 1)

    def test_largest_draw_floors_below_every_vocab(self):
        # the generator's largest u is 1 - 2**-53, so floor(u * V) <= V - 1 needs no clip
        u = 1.0 - 2.0 ** -53
        edges = [2 ** k + j for k in range(1, 63) for j in (-1, 0, 1)]
        for vocab in [*np.array_split(np.arange(2, 2 ** 22), 4), np.array(edges[1:])]:
            assert (np.floor(u * vocab).astype(np.int64) <= vocab - 1).all()
