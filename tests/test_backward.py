"""The batched backward: scalar oracle, the shared loss, rectangular batches and the logit array."""

import tracemalloc

import numpy as np
import pytest

import leanformer.model as model
from leanformer.cli import main
from leanformer.model import (
    ModelConfig,
    PRESETS,
    batch_loss,
    cross_entropy,
    embed,
    init_params,
    iter_params,
    loss_and_grads,
    model_forward,
    synth_copy_batch,
    train_step,
)

import reference

TINY = PRESETS["tiny"]
BIASED_2L = ModelConfig(vocab_size=9, max_seq_len=5, d_model=6, n_heads=3, d_ff=7, n_layers=2,
                        use_bias=True)
# structurally pruned: narrower heads, and a different head count per layer
PRUNED = ModelConfig(vocab_size=11, max_seq_len=5, d_model=8, n_heads=2, d_ff=6, n_layers=2,
                     head_dim=3, layer_heads=(2, 1))


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
        cfg, batch = CASES[case]
        per = CHUNKS[chunk](len(batch))
        monkeypatch.setattr(model, "LOGIT_CHUNK_BYTES", per * 8 * len(batch[0]) * cfg.vocab_size)
        # tok_emb's gradient in blocks of 4 rows, the last one partial
        monkeypatch.setattr(model, "_TOK_EMB_GRAD_BLOCK", 4)
        p = random_params(cfg, 3)
        targets = shifted_targets(batch, cfg.vocab_size)
        loss, grads = loss_and_grads(p, cfg, batch, targets)
        assert loss == batch_loss(p, cfg, batch, targets)
        _, ref_grads = reference.loss_and_grads(p, cfg, batch, targets)
        want = np.concatenate([np.ravel(ref_grads[name]) for name, _ in iter_params(grads)])
        assert rel_err(grads.theta, want) <= 1e-12
        with pytest.raises(ValueError, match="train_step: loss is nan"):
            train_step(p.with_theta(p.theta * 1e60), cfg, batch, targets, lr=0.1)


class TestOneLoss:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_loss_and_grads_reports_batch_loss_exactly(self, case):
        cfg, batch = CASES[case]
        p = random_params(cfg, 2)
        targets = shifted_targets(batch, cfg.vocab_size)
        assert loss_and_grads(p, cfg, batch, targets)[0] == batch_loss(p, cfg, batch, targets)

    def test_on_the_paper_baseline(self):
        cfg = PRESETS["paper-baseline"]
        p = init_params(cfg, 1)
        batch, targets = synth_copy_batch(1, 8, 10, cfg.vocab_size)
        assert loss_and_grads(p, cfg, batch, targets)[0] == batch_loss(p, cfg, batch, targets)

    def test_wrong_target_count_rejected(self):
        p = init_params(TINY, 0)
        with pytest.raises(ValueError, match=r"targets of shape \(1, 2\) for positions of shape \(1, 3\)"):
            batch_loss(p, TINY, [[1, 2, 3]], [[1, 2]])
        with pytest.raises(ValueError, match="outside"):
            loss_and_grads(p, TINY, [[1, 2, 3]], [[1, 2, 11]])


class TestLogitBuffer:
    def test_logits_are_one_contiguous_array_the_traces_view(self):
        p = init_params(BIASED_2L, 0)
        batch = [[1, 2, 3], [4, 5, 6], [8, 0, 2], [3, 3, 3]]
        logits, _ = model_forward(p, BIASED_2L, batch)
        assert logits.shape == (4, 3, BIASED_2L.vocab_size) and logits.dtype == np.float64
        assert logits.flags.c_contiguous

    def test_backward_releases_the_buffer_before_the_layers(self):
        # the trace, the gradient vector, one chunk of logits and a block of
        # its tok_emb-gradient share: never the whole logit block
        cfg = PRESETS["paper-baseline"]
        p = init_params(cfg, 1)
        batch, targets = synth_copy_batch(1, 32, 10, cfg.vocab_size)
        _, trace = model_forward(p, cfg, batch, trace=True)
        accounted = 8 * model.trace_element_count(trace) + 2 * p.theta.nbytes + model.LOGIT_CHUNK_BYTES
        del trace
        loss_and_grads(p, cfg, batch, targets)
        tracemalloc.start()
        try:
            loss_and_grads(p, cfg, batch, targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= accounted + 300_000


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
        with pytest.raises(ValueError, match="cross_entropy: targets must hold integer ids"):
            cross_entropy(np.zeros((2, TINY.vocab_size)), ids[0])

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
        _, trace = model_forward(hot, TINY, batch, trace=True)
        assert np.all(np.isfinite(trace.layers[-1].ffn_out[0]))
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
