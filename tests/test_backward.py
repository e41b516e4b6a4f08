"""The batched backward: scalar oracle, ragged batches, the shared loss and the logit buffer."""

import tracemalloc

import numpy as np
import pytest

import leanformer.model as model
from leanformer.cli import main
from leanformer.model import (
    ModelConfig,
    PRESETS,
    batch_loss,
    init_params,
    loss_and_grads,
    model_forward,
    synth_copy_batch,
    train_step,
)

import reference

TINY = PRESETS["tiny"]
BIASED_2L = ModelConfig(vocab_size=9, max_seq_len=5, d_model=6, n_heads=3, d_ff=7, n_layers=2,
                        use_bias=True)
RAGGED_CFG = ModelConfig(vocab_size=13, max_seq_len=6, d_model=8, n_heads=2, d_ff=10, n_layers=2,
                         use_bias=True)
RAGGED = [[1, 2, 3], [4], [5, 6, 7, 8, 9, 10], [0, 1, 2], [3, 3], [12, 11, 10, 9, 8, 7]]
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
    "ragged": (RAGGED_CFG, RAGGED),
    "pruned-heads": (PRUNED, [[1, 2, 3], [4, 5, 6], [7, 8], [9, 10, 0, 1, 2]]),
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
        assert set(ref_grads) == {name for name, _ in grads.named}
        want = np.concatenate([np.ravel(ref_grads[name]) for name, _ in grads.named])
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        assert rel_err(grads.theta, want) <= 1e-12


class TestRaggedBatches:
    def test_equal_the_position_weighted_sum_of_single_sequences(self):
        # ragged batches are bucketed by length in the backward; the result
        # must not depend on that grouping
        p = random_params(RAGGED_CFG, 4)
        targets = shifted_targets(RAGGED, RAGGED_CFG.vocab_size)
        loss, grads = loss_and_grads(p, RAGGED_CFG, RAGGED, targets)
        total = sum(len(s) for s in RAGGED)
        want_loss, want_grad = 0.0, np.zeros_like(p.theta)
        for seq, tgt in zip(RAGGED, targets):
            one_loss, one_grads = loss_and_grads(p, RAGGED_CFG, [seq], [tgt])
            want_loss += one_loss * len(seq) / total
            want_grad += one_grads.theta * (len(seq) / total)
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        assert rel_err(grads.theta, want_grad) <= 1e-12


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
        with pytest.raises(ValueError, match="2 targets for 3 positions"):
            batch_loss(p, TINY, [[1, 2, 3]], [[1, 2]])
        with pytest.raises(ValueError, match="outside"):
            loss_and_grads(p, TINY, [[1, 2, 3]], [[1, 2, 11]])


class TestLogitBuffer:
    def test_ragged_logits_are_consecutive_rows_of_one_buffer(self):
        p = init_params(RAGGED_CFG, 0)
        logits, _ = model_forward(p, RAGGED_CFG, RAGGED)
        buffer = logits[0].base
        assert isinstance(buffer, np.ndarray) and buffer.flags.c_contiguous
        assert buffer.shape == (sum(len(s) for s in RAGGED), RAGGED_CFG.vocab_size)
        row = 0
        for seq, lg in zip(RAGGED, logits):
            assert lg.base is buffer
            assert lg.ctypes.data == buffer.ctypes.data + row * buffer.strides[0]
            assert lg.shape == (len(seq), RAGGED_CFG.vocab_size)
            row += len(seq)

    @pytest.mark.parametrize("broken", ["copied", "out of order"])
    def test_backward_refuses_logits_laid_out_otherwise(self, monkeypatch, broken):
        def broken_forward(p, cfg, batch):
            logits, traces = model_forward(p, cfg, batch)
            if broken == "copied":
                return [lg.copy() for lg in logits], traces
            return logits[1::-1] + logits[2:], traces

        monkeypatch.setattr(model, "model_forward", broken_forward)
        p = init_params(RAGGED_CFG, 0)
        batch = RAGGED if broken == "copied" else [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        targets = shifted_targets(batch, RAGGED_CFG.vocab_size)
        with pytest.raises(ValueError, match="consecutive row slices"):
            loss_and_grads(p, RAGGED_CFG, batch, targets)
        with pytest.raises(ValueError, match="consecutive row slices"):
            batch_loss(p, RAGGED_CFG, batch, targets)

    def test_backward_releases_the_buffer_before_the_layers(self):
        # over the forward's own peak, the backward holds the gradient vector
        # and a few (positions, d_model) arrays, never the logit buffer beside
        # the layer gradients' temporaries
        cfg = PRESETS["paper-baseline"]
        p = init_params(cfg, 1)
        batch, targets = synth_copy_batch(1, 32, 10, cfg.vocab_size)
        loss_and_grads(p, cfg, batch, targets)
        tracemalloc.start()
        try:
            model_forward(p, cfg, batch)
            forward_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            loss_and_grads(p, cfg, batch, targets)
            backward_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert backward_peak - forward_peak <= p.theta.nbytes + 500_000


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteTraining:
    def test_overflowing_logits_raise(self):
        p = init_params(TINY, 3)
        batch, targets = synth_copy_batch(3, 4, 4, TINY.vocab_size)
        hot = p.with_theta(p.theta * 1e60)
        logits, traces = model_forward(hot, TINY, batch)
        assert np.all(np.isfinite(traces[0].layers[-1].ffn_out))
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
