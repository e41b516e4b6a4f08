"""The batched backward: scalar oracle, the shared loss, rectangular batches and the logit array."""

import numpy as np
import pytest

import leanformer.model as model
from leanformer.cli import main
from leanformer.model import (
    ModelConfig,
    PRESETS,
    batch_loss,
    embed,
    init_params,
    iter_params,
    loss_and_grads,
    model_forward,
    param_count,
    synth_copy_batch,
    train_step,
)
from leanformer.profiler import train_step_bytes

import reference

TINY = PRESETS["tiny"]
BIASED_2L = ModelConfig(vocab_size=9, max_seq_len=5, d_model=6, n_heads=3, d_ff=7, n_layers=2,
                        use_bias=True)
# paper-baseline with three layers: the layer stage outweighs the output stage
BASELINE_3L = ModelConfig(vocab_size=3990, max_seq_len=10, d_model=32, n_heads=8, d_ff=128, n_layers=3)
# structurally pruned: narrower heads, and a different head count per layer
PRUNED = ModelConfig(vocab_size=11, max_seq_len=5, d_model=8, n_heads=2, d_ff=6, n_layers=2,
                     head_dim=3, layer_heads=(2, 1))
# four heads of width 2 in each of two layers: the backward's head blocks past the third
FOUR_HEADS = ModelConfig(vocab_size=9, max_seq_len=4, d_model=8, n_heads=4, d_ff=8, n_layers=2)


def random_params(cfg, seed):
    """Every parameter drawn from [-0.5, 0.5), biases included, so each path carries signal."""
    p = init_params(cfg, 0)
    return p.with_theta(np.random.default_rng(seed).uniform(-0.5, 0.5, p.theta.size))


def shifted_targets(batch, vocab):
    return [[(t * 7 + 1) % vocab for t in seq] for seq in batch]


def rel_err(got, want):
    """Max-norm error relative to the max-norm of `want`, over the whole vector.

    Taken over all of theta rather than per tensor: a key bias's true
    gradient is exactly zero (a softmax row ignores a constant shift), so
    a per-tensor ratio there compares rounding noise with rounding noise.
    """
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


CASES = {
    "tiny": (TINY, [[1, 2, 3, 4], [5, 6, 7, 0]]),
    "biased-2-layer": (BIASED_2L, [[1, 2, 3, 4, 5], [8, 0, 2, 2, 1], [3, 3, 3, 3, 3]]),
    "pruned-heads": (PRUNED, [[1, 2, 3, 4], [4, 5, 6, 7], [7, 8, 9, 10], [9, 10, 0, 1]]),
    "4-head-2-layer": (FOUR_HEADS, [[1, 2, 3, 4], [5, 6, 7, 8], [0, 3, 6, 2]]),
}


class TestScalarOracle:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_loss_and_grads_match_reverse_mode_over_lists(self, case, seed):
        cfg, batch = CASES[case]
        p = random_params(cfg, seed)
        targets = shifted_targets(batch, cfg.vocab_size)
        loss, grads = loss_and_grads(p, cfg, batch, targets)
        ref_loss, ref_grads = reference.loss_and_grads(p, cfg, batch, targets)
        assert set(ref_grads) == {name for name, _ in iter_params(grads)}
        want = np.concatenate([np.ravel(ref_grads[name]) for name, _ in iter_params(grads)])
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        assert rel_err(grads.theta, want) <= 1e-12


CHUNKS = {
    "one-sequence": lambda b: 1,
    # from three sequences on, full chunks and then a last chunk of one
    "all-but-one": lambda b: b - 1,
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestLogitChunks:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("chunk", sorted(CHUNKS))
    def test_chunked_logits_keep_the_loss_and_the_oracle_gradient(self, case, chunk, monkeypatch):
        # the vocabulary in blocks of 8 columns: every case's (9 or 11) ends
        # in a partial block, whose dx product adds into the first block's
        self.check_chunked(case, chunk, 8, monkeypatch)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_vocabulary_block_keeps_the_oracle_gradient(self, case, monkeypatch):
        # 12 columns hold every case's vocabulary: the first block's dx product is the whole one
        self.check_chunked(case, "all-but-one", 12, monkeypatch)

    @staticmethod
    def check_chunked(case, chunk, vocab_block, monkeypatch):
        cfg, batch = CASES[case]
        per = CHUNKS[chunk](len(batch))
        monkeypatch.setattr(model, "STEP_CHUNK_BYTES", per * 8 * len(batch[0]) * cfg.vocab_size)
        # tok_emb's gradient in blocks of 4 rows, the last one partial
        monkeypatch.setattr(model, "_TOK_EMB_GRAD_BLOCK", 4)
        monkeypatch.setattr(model, "_VOCAB_BLOCK", vocab_block)
        real, shared = model._output_backward, []

        def spy(p, x, *rest):
            loss, dx = real(p, x, *rest)
            shared.append(np.shares_memory(dx, x))
            return loss, dx

        monkeypatch.setattr(model, "_output_backward", spy)
        p = random_params(cfg, 3)
        targets = shifted_targets(batch, cfg.vocab_size)
        loss, grads = loss_and_grads(p, cfg, batch, targets)
        # the gradient at the last output is written over the last output's rows
        assert shared == [True]
        assert loss == batch_loss(p, cfg, batch, targets)
        _, ref_grads = reference.loss_and_grads(p, cfg, batch, targets)
        want = np.concatenate([np.ravel(ref_grads[name]) for name, _ in iter_params(grads)])
        assert rel_err(grads.theta, want) <= 1e-12
        with pytest.raises(ValueError, match="train_step: loss is nan"):
            train_step(p.with_theta(p.theta * 1e60), cfg, batch, targets, lr=0.1)


class TestOneLoss:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_loss_and_grads_reports_batch_loss_exactly(self, case, monkeypatch):
        # at the default budget and in one-sequence chunks; no loss reads the
        # untraced logits, and a plain log-softmax of them agrees
        cfg, batch = CASES[case]
        p = random_params(cfg, 2)
        targets = shifted_targets(batch, cfg.vocab_size)
        loss = batch_loss(p, cfg, batch, targets)
        assert loss_and_grads(p, cfg, batch, targets)[0] == loss
        monkeypatch.setattr(model, "STEP_CHUNK_BYTES", 1)
        assert batch_loss(p, cfg, batch, targets) == loss
        assert loss_and_grads(p, cfg, batch, targets)[0] == loss
        z = model_forward(p, cfg, batch)[0].reshape(-1, cfg.vocab_size)
        top = z.max(axis=1)
        logsumexp = top + np.log(np.exp(z - top[:, None]).sum(axis=1))
        plain = float(np.mean(logsumexp - z[np.arange(len(z)), np.ravel(targets)]))
        assert abs(loss - plain) <= 1e-13 * abs(plain)

    def test_on_the_paper_baseline(self):
        cfg = PRESETS["paper-baseline"]
        p = init_params(cfg, 1)
        batch, targets = synth_copy_batch(1, 8, 10, cfg.vocab_size)
        assert loss_and_grads(p, cfg, batch, targets)[0] == batch_loss(p, cfg, batch, targets)

    @pytest.mark.parametrize("seed", range(5))
    def test_layerless_model_embeds_once_and_keeps_the_oracle_loss(self, seed, monkeypatch):
        # the embedded rows are the traced forward's one checkpoint and the output stage's input
        cfg = ModelConfig(50, 10, 16, 4, 64, 0)
        p = random_params(cfg, seed)
        batch, _ = synth_copy_batch(seed, 3, cfg.max_seq_len, cfg.vocab_size)
        targets = shifted_targets(batch, cfg.vocab_size)
        calls = []
        monkeypatch.setattr(model, "embed", lambda *args: calls.append(1) or embed(*args))
        loss = batch_loss(p, cfg, batch, targets)
        got, grads = loss_and_grads(p, cfg, batch, targets)
        assert len(calls) == 2 and got == loss
        ref_loss, ref_grads = reference.loss_and_grads(p, cfg, batch, targets)
        want = np.concatenate([np.ravel(ref_grads[name]) for name, _ in iter_params(grads)])
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        assert rel_err(grads.theta, want) <= 1e-12

    def test_wrong_target_count_rejected(self):
        p = init_params(TINY, 0)
        with pytest.raises(ValueError, match=r"targets of shape \(1, 2\) for positions of shape \(1, 3\)"):
            batch_loss(p, TINY, [[1, 2, 3]], [[1, 2]])
        with pytest.raises(ValueError, match="outside"):
            loss_and_grads(p, TINY, [[1, 2, 3]], [[1, 2, 11]])


# layerless, so x is tok_emb + pos_emb: theta x 300 takes the largest logit
# of synth_copy_batch(3, 4, 10) to 2152, past exp's range (about 709.78)
HOT = ModelConfig(50, 10, 16, 4, 64, 0)


class TestShiftFreeBound:
    @staticmethod
    def hot():
        p = init_params(HOT, 3)
        batch, targets = synth_copy_batch(3, 4, 10, HOT.vocab_size)
        return p.with_theta(p.theta * 300), batch, targets

    def test_past_the_limit_the_max_is_subtracted(self):
        # no floating-point warning: pytest raises every warning as an error
        p, batch, targets = self.hot()
        loss, grads = loss_and_grads(p, HOT, batch, targets)
        ref_loss, ref_grads = reference.loss_and_grads(p, HOT, batch, targets)
        want = np.concatenate([np.ravel(ref_grads[name]) for name, _ in iter_params(grads)])
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        assert rel_err(grads.theta, want) <= 1e-12
        assert batch_loss(p, HOT, batch, targets) == loss

    def test_the_shift_free_path_overflows_past_the_limit(self, monkeypatch):
        p, batch, targets = self.hot()
        monkeypatch.setattr(model, "_SHIFT_FREE_LIMIT", np.inf)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            batch_loss(p, HOT, batch, targets)

    def test_a_norm_past_the_square_root_of_the_range_is_shifted(self, monkeypatch):
        # logits up to 191, but rows of tok_emb near 1e229, whose squared
        # norm reads inf: the shift-free exponentials (up to e^191) would
        # overflow the products with tok_emb, so the max is subtracted
        p = init_params(HOT, 3)
        batch, _ = synth_copy_batch(3, 2, 5, HOT.vocab_size)
        x = embed(p, batch) * 8e-227
        p = p.with_theta(p.theta * 1e230)
        ids = np.arange(10) * 7 % HOT.vocab_size
        z = x.reshape(10, -1) @ p.tok_emb.T
        assert 190 < z.max() < model._SHIFT_FREE_LIMIT
        g_tok_emb = np.zeros_like(p.tok_emb)
        loss, dx = model._output_backward(p, x.copy(), ids, g_tok_emb)
        softmax = np.exp(z - z.max(axis=1, keepdims=True))
        softmax /= softmax.sum(axis=1, keepdims=True)
        ref_loss = -np.mean(np.log(softmax[np.arange(10), ids]))
        softmax[np.arange(10), ids] -= 1
        softmax /= 10
        assert abs(loss - ref_loss) <= 1e-12 * ref_loss
        assert rel_err(dx.reshape(10, -1), softmax @ p.tok_emb) <= 1e-12
        assert rel_err(g_tok_emb, softmax.T @ x.reshape(10, -1)) <= 1e-12
        # the same input with tok_emb's squared norm read as 1 overflows
        real = model._largest_square_norm
        monkeypatch.setattr(model, "_largest_square_norm", lambda m: min(real(m), 1.0))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            model._output_backward(p, x.copy(), ids, g_tok_emb)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_both_paths_agree_on_the_presets(self, name, monkeypatch):
        # the presets' logits are far below the limit: the default is the
        # shift-free path itself, and the shifted one agrees with it
        cfg = PRESETS[name]
        p = init_params(cfg, 1)
        batch, targets = synth_copy_batch(1, 8, min(10, cfg.max_seq_len), cfg.vocab_size)
        runs = {}
        for limit in (model._SHIFT_FREE_LIMIT, np.inf, 0.0):
            monkeypatch.setattr(model, "_SHIFT_FREE_LIMIT", limit)
            runs[limit] = loss_and_grads(p, cfg, batch, targets)
        (loss, grads), (free, free_grads), (shifted, shifted_grads) = runs.values()
        assert loss == free and grads.theta.tobytes() == free_grads.theta.tobytes()
        assert abs(shifted - loss) <= 1e-15 * abs(shifted)
        assert rel_err(grads.theta, shifted_grads.theta) <= 1e-15


class TestLayerChunks:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("chunk", sorted(CHUNKS))
    def test_chunked_layers_keep_the_loss_and_the_oracle_gradient(self, case, chunk, monkeypatch):
        cfg, batch = CASES[case]
        b, n = len(batch), len(batch[0])
        per = CHUNKS[chunk](b)
        monkeypatch.setattr(model, "STEP_CHUNK_BYTES", per * model._layer_sequence_bytes(cfg, 0, n))
        real, seen = model._layer_backward, []

        def spy(p, g, layer, x, dx):
            seen.append((layer, len(x)))
            return real(p, g, layer, x, dx)

        monkeypatch.setattr(model, "_layer_backward", spy)
        p = random_params(cfg, 3)
        targets = shifted_targets(batch, cfg.vocab_size)
        loss, grads = loss_and_grads(p, cfg, batch, targets)
        # the top layer first; layer 0 in chunks of `per` sequences, the last one partial
        assert [layer for layer, _ in seen] == sorted((layer for layer, _ in seen), reverse=True)
        assert [size for layer, size in seen if layer == 0] == [per] * (b // per) + [b % per] * (b % per > 0)
        assert loss == batch_loss(p, cfg, batch, targets)
        _, ref_grads = reference.loss_and_grads(p, cfg, batch, targets)
        want = np.concatenate([np.ravel(ref_grads[name]) for name, _ in iter_params(grads)])
        assert rel_err(grads.theta, want) <= 1e-12


    @pytest.mark.parametrize("name, sequence_bytes, per", [("paper-baseline", 30_720, 21),
                                                            ("paper-reduced", 15_360, 42)])
    def test_preset_layer_chunks(self, name, sequence_bytes, per):
        # the FFN step and the re-embedded input bound both presets; train-copy's
        # gradient bits follow these chunks, which the presets' step peak, bounded
        # by the output stage, does not show
        assert model._layer_sequence_bytes(PRESETS[name], 0, 10) == sequence_bytes
        assert model._chunk_sequences(256, sequence_bytes) == per


class TestLogitBuffer:
    def test_logits_are_one_contiguous_array_the_traces_view(self):
        p = init_params(BIASED_2L, 0)
        batch = [[1, 2, 3], [4, 5, 6], [8, 0, 2], [3, 3, 3]]
        logits, _ = model_forward(p, BIASED_2L, batch)
        assert logits.shape == (4, 3, BIASED_2L.vocab_size) and logits.dtype == np.float64
        assert logits.flags.c_contiguous

    @pytest.mark.parametrize("cfg", [PRESETS["paper-baseline"], PRESETS["paper-reduced"], BASELINE_3L],
                             ids=["paper-baseline", "paper-reduced", "baseline-3-layer"])
    def test_backward_releases_the_buffer_before_the_layers(self, cfg):
        # the gradient vector and the checkpoints beside either one chunk of
        # logits and a block of its tok_emb-gradient share, or one chunk of a
        # layer's recompute and backward temporaries: never both, and never a
        # second theta; the slack is below one (b·n, d) array of the d_model
        # 32 configs, so that any such array held past its last reader fails
        p = init_params(cfg, 1)
        b, n = 32, 10
        batch, targets = synth_copy_batch(1, b, n, cfg.vocab_size)
        train_step(p, cfg, batch, targets, 0.05)
        peak = reference.traced_peak(train_step, p, cfg, batch, targets, 0.05)
        assert peak <= train_step_bytes(cfg, b, n) + 64_000


class TestCheckpoints:
    def test_one_traced_forward_per_step(self, monkeypatch):
        # perfbench's train-copy split reads the one model_forward span inside loss_and_grads
        real, calls = model.model_forward, []

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(model, "model_forward", counted)
        cfg, batch = CASES["biased-2-layer"]
        p = random_params(cfg, 4)
        loss_and_grads(p, cfg, batch, batch)
        train_step(p, cfg, batch, batch, 0.1)
        assert calls == [{"trace": True}] * 2

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("budget", [None, 1], ids=["default-chunks", "one-sequence-chunks"])
    def test_recomputed_stages_are_the_forwards(self, case, budget, monkeypatch):
        # the forward runs each layer up, the backward recomputes it down, over
        # the same chunks and from the same inputs: every stage array has the
        # forward's bits
        cfg, batch = CASES[case]
        if budget is not None:
            monkeypatch.setattr(model, "STEP_CHUNK_BYTES", budget)
        calls = []

        def recorded(name):
            real = getattr(model, name)

            def run(p, layer, x, *rest):
                result = real(p, layer, x, *rest)
                out, attn = result if name == "attention_forward" else (result, None)
                arrays = [x, out] + ([] if attn is None else list(vars(attn).values()))
                calls.append((name, layer, [a.tobytes() for a in arrays]))
                return result
            return run

        for name in ("attention_forward", "_ffn_hidden"):
            monkeypatch.setattr(model, name, recorded(name))
        p = random_params(cfg, 4)
        loss_and_grads(p, cfg, batch, shifted_targets(batch, cfg.vocab_size))
        half = len(calls) // 2
        forward, backward = calls[:half], calls[half:]
        assert [layer for _, layer, _ in forward] == sorted(layer for _, layer, _ in forward)
        assert [layer for _, layer, _ in backward] == sorted((layer for _, layer, _ in backward), reverse=True)
        assert sorted(forward) == sorted(backward)

    def test_peak_grows_with_depth_by_parameters_and_checkpoints_only(self):
        # each layer adds its parameters to the gradient and one (b, n, d)
        # checkpoint, and nothing else: no stage holds more than one chunk
        b, n = 32, 10
        peaks = {}
        for n_layers in (1, 3, 6):
            cfg = ModelConfig(3990, 10, 32, 8, 128, n_layers)
            p = init_params(cfg, 1)
            batch, targets = synth_copy_batch(1, b, n, cfg.vocab_size)
            train_step(p, cfg, batch, targets, 0.05)
            peaks[n_layers] = (reference.traced_peak(train_step, p, cfg, batch, targets, 0.05),
                               8 * param_count(cfg))
        peak_1, params_1 = peaks[1]
        for n_layers in (3, 6):
            peak, params = peaks[n_layers]
            grown = params - params_1 + (n_layers - 1) * 8 * b * n * 32
            assert abs(peak - peak_1 - grown) <= 64_000
        assert peaks[6][0] < 3_260_000


class TestInPlaceUpdate:
    @pytest.mark.parametrize("cfg, seed", [(PRESETS["paper-baseline"], None), (BIASED_2L, 5)],
                             ids=["paper-baseline", "biased-2-layer"])
    def test_update_is_theta_minus_lr_g_in_a_new_frozen_vector(self, cfg, seed):
        p = init_params(cfg, 1) if seed is None else random_params(cfg, seed)
        p.theta.flags.writeable = False
        batch, targets = synth_copy_batch(2, 4, cfg.max_seq_len, cfg.vocab_size)
        before = p.theta.tobytes()
        _, grads = loss_and_grads(p, cfg, batch, targets)
        new, _ = train_step(p, cfg, batch, targets, 0.05)
        assert p.theta.tobytes() == before and not p.theta.flags.writeable
        assert not new.theta.flags.writeable and not np.shares_memory(new.theta, p.theta)
        assert new.theta.tobytes() == (p.theta - 0.05 * grads.theta).tobytes()

    def test_zero_lr_returns_params_themselves(self):
        cfg, batch = CASES["biased-2-layer"]
        p = random_params(cfg, 4)
        assert train_step(p, cfg, batch, batch, 0.0)[0] is p


MIXED = [[1, 2, 3], [4, 5]]


class TestRectangularBatches:
    @pytest.mark.parametrize("call", [
        lambda p, batch: model_forward(p, TINY, batch),
        lambda p, batch: batch_loss(p, TINY, batch, batch),
        lambda p, batch: loss_and_grads(p, TINY, batch, batch),
        lambda p, batch: train_step(p, TINY, batch, batch, 0.1),
    ], ids=["model_forward", "batch_loss", "loss_and_grads", "train_step"])
    def test_mixed_length_batch_rejected(self, call):
        with pytest.raises(ValueError, match=r"model_forward: batch must be one \(sequences, n\) array"):
            call(init_params(TINY, 0), MIXED)

    @pytest.mark.parametrize("call, who", [
        (lambda p, targets: batch_loss(p, TINY, [[1, 2, 3], [4, 5, 6]], targets), "batch_loss"),
        (lambda p, targets: loss_and_grads(p, TINY, [[1, 2, 3], [4, 5, 6]], targets), "loss_and_grads"),
        (lambda p, targets: train_step(p, TINY, [[1, 2, 3], [4, 5, 6]], targets, 0.1), "loss_and_grads"),
    ], ids=["batch_loss", "loss_and_grads", "train_step"])
    def test_mixed_length_targets_rejected(self, call, who):
        with pytest.raises(ValueError, match=rf"{who}: targets must be one \(sequences, n\) array"):
            call(init_params(TINY, 0), MIXED)


NOT_INTEGERS = {
    "float": [[1.0, 2.0]],
    "truncating-float": [[1.9, 3.99]],
    "bool": np.array([[True, False]]),
    "beyond-int64": [[1, 2**70]],
}


class TestIntegerIds:
    @pytest.mark.parametrize("ids", NOT_INTEGERS.values(), ids=NOT_INTEGERS.keys())
    def test_non_integer_batch_refused(self, ids):
        p = init_params(TINY, 0)
        with pytest.raises(ValueError, match="model_forward: batch must hold integer ids"):
            model_forward(p, TINY, ids)
        with pytest.raises(ValueError, match="model_forward: batch must hold integer ids"):
            train_step(p, TINY, ids, [[1, 2]], 0.1)
        with pytest.raises(ValueError, match="embed: tokens must hold integer ids"):
            embed(p, ids[0])

    @pytest.mark.parametrize("ids", NOT_INTEGERS.values(), ids=NOT_INTEGERS.keys())
    def test_non_integer_targets_refused(self, ids):
        p = init_params(TINY, 0)
        with pytest.raises(ValueError, match="batch_loss: targets must hold integer ids"):
            batch_loss(p, TINY, [[1, 2]], ids)
        with pytest.raises(ValueError, match="loss_and_grads: targets must hold integer ids"):
            loss_and_grads(p, TINY, [[1, 2]], ids)

    @pytest.mark.parametrize("big", [2**64 - 1, 2**63], ids=["max-uint64", "2**63"])
    def test_unsigned_id_beyond_int64_named_as_given(self, big):
        # a cast to int64 would wrap these to -1 and -2**63
        p = init_params(TINY, 0)
        ids = np.array([[1, big]], dtype=np.uint64)
        with pytest.raises(ValueError, match=rf"model_forward: id {big} in batch is outside"):
            model_forward(p, TINY, ids)
        with pytest.raises(ValueError, match=rf"model_forward: id {big} in batch is outside"):
            batch_loss(p, TINY, ids, [[1, 2]])
        with pytest.raises(ValueError, match=rf"embed: id {big} in tokens is outside"):
            embed(p, ids[0])
        with pytest.raises(ValueError, match=rf"batch_loss: id {big} in targets is outside"):
            batch_loss(p, TINY, [[1, 2]], ids)
        with pytest.raises(ValueError, match=rf"loss_and_grads: id {big} in targets is outside"):
            loss_and_grads(p, TINY, [[1, 2]], ids)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, np.uint64])
    def test_any_integer_type_reads_as_int64(self, dtype):
        p = init_params(TINY, 0)
        batch = [[1, 2, 3], [4, 5, 6]]
        want = loss_and_grads(p, TINY, batch, batch)
        got = loss_and_grads(p, TINY, np.array(batch, dtype=dtype), np.array(batch, dtype=dtype))
        assert got[0] == want[0] and got[1].theta.tobytes() == want[1].theta.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteTraining:
    def test_overflowing_logits_raise(self):
        p = init_params(TINY, 3)
        batch, targets = synth_copy_batch(3, 4, 4, TINY.vocab_size)
        hot = p.with_theta(p.theta * 1e60)
        _, checkpoints = model_forward(hot, TINY, batch, trace=True)
        assert np.all(np.isfinite(checkpoints.outputs[-1][0]))
        logits, _ = model_forward(hot, TINY, batch)
        assert not np.all(np.isfinite(np.concatenate(logits)))
        with pytest.raises(ValueError, match="train_step: loss is nan"):
            train_step(hot, TINY, batch, targets, lr=0.1)

    def test_non_finite_gradient_is_named(self, monkeypatch):
        real = model.loss_and_grads

        def inf_gradient(p, cfg, batch, targets):
            loss, grads = real(p, cfg, batch, targets)
            grads.layers[0].w1[1, 2] = np.inf
            return loss, grads

        monkeypatch.setattr(model, "loss_and_grads", inf_gradient)
        p = init_params(TINY, 3)
        batch, targets = synth_copy_batch(3, 2, 3, TINY.vocab_size)
        with pytest.raises(ValueError, match="gradient of layers.0.w1 is not finite"):
            train_step(p, TINY, batch, targets, lr=0.0)

    def test_cli_train_exits_2(self, capsys):
        # the first step sends the weights to about 1e297; the second overflows
        assert main(["train", "--config", "tiny", "--iters", "3", "--lr", "1e300"]) == 2
        assert "not finite" in capsys.readouterr().err
