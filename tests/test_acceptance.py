"""Acceptance suite: one test per shipped criterion, each at its stated
tolerance and runtime budget. Every test prints a single PASS line;
pytest's own failure reporting marks the FAIL side.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

from leanformer.compression import (
    dequantize,
    prune_heads,
    prune_layers,
    quantize_tensor,
)
from leanformer.model import (
    ModelConfig,
    PRESETS,
    attention_forward,
    grad_check,
    init_params,
    iter_params,
    model_forward,
    param_count,
    param_count_enumerated,
    synth_copy_batch,
    train_step,
)
from leanformer.modelfile import load_model, save_model
from leanformer.numerics import rng_uniform_array, softmax_rows
from leanformer.profiler import config_search, memory_bytes, time_forward


@contextmanager
def criterion(number: int, title: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {title}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget ({elapsed:.2f}s)"
    print(f"criterion {number} PASS: {title} ({elapsed:.2f}s)")


def random_config(rng: random.Random) -> ModelConfig:
    d = rng.choice([2, 4, 8, 16])
    heads = rng.choice([h for h in (1, 2, 4) if d % h == 0])
    return ModelConfig(
        vocab_size=rng.randint(2, 200),
        max_seq_len=rng.randint(1, 12),
        d_model=d,
        n_heads=heads,
        d_ff=rng.randint(1, 32),
        n_layers=rng.randint(0, 3),
        use_bias=rng.random() < 0.5,
    )


def test_criterion_1_parameter_count_reproduction():
    with criterion(1, "parameter counts 140,288 / 67,072 and 52.19% reduction", 1.0):
        base = param_count(PRESETS["paper-baseline"])
        reduced = param_count(PRESETS["paper-reduced"])
        assert base == 140_288
        assert reduced == 67_072
        reduction_pct = (1.0 - reduced / base) * 100.0
        assert abs(reduction_pct - 52.19) < 0.01


def test_criterion_2_memory_reproduction():
    with criterion(2, "memory bytes 1,122,304 / 536,576 and 8 bytes per parameter", 5.0):
        assert memory_bytes(PRESETS["paper-baseline"]) == 1_122_304
        assert memory_bytes(PRESETS["paper-reduced"]) == 536_576
        rng = random.Random(20_24)
        for _ in range(50):
            cfg = random_config(rng)
            p = init_params(cfg, rng.randrange(2**63))
            assert memory_bytes(cfg) == 8 * param_count_enumerated(p)


def test_criterion_3_config_reconstruction():
    with criterion(3, "search over the bounded grid recovers the shipped presets", 30.0):
        pairs = config_search(140_288, 67_072)
        assert pairs, "search returned no candidates"
        for cfg, red in pairs:
            assert param_count(cfg) == 140_288
            assert param_count(red) == 67_072
        family = [
            (cfg, red) for cfg, red in pairs
            if cfg.vocab_size + cfg.max_seq_len == 4000 and cfg.d_model == 32
            and cfg.n_heads == 8 and cfg.d_ff == 4 * cfg.d_model
            and cfg.n_layers == 1 and not cfg.use_bias
        ]
        assert family, "the V+S=4000, d=32, H=8, f=4d, L=1, no-bias family is missing"
        assert family[0][1] == PRESETS["paper-reduced"]


def test_criterion_4_execution_time_reduction():
    with criterion(4, "reduced model at least 20% faster (median of 100 reps)", 60.0):
        # both presets warmed, then 100 rounds of one timed forward each, the
        # first preset alternating, so host drift falls on both samples alike
        names = ["paper-baseline", "paper-reduced"]
        params = {name: init_params(PRESETS[name], 0) for name in names}
        samples = {name: [] for name in names}
        for name in names:
            time_forward(params[name], PRESETS[name], batch_size=32, seq_len=10, reps=1, warmup=10)
        for _ in range(100):
            for name in names:
                samples[name] += time_forward(params[name], PRESETS[name], batch_size=32, seq_len=10,
                                              reps=1, warmup=0).samples
            names.reverse()
        base = statistics.median(samples["paper-baseline"])
        reduced = statistics.median(samples["paper-reduced"])
        assert reduced <= 0.80 * base, (
            f"median {reduced:.6f}s is only {(1 - reduced / base) * 100:.1f}% "
            f"below baseline {base:.6f}s"
        )


def test_criterion_5_gradient_check():
    with criterion(5, "backprop within 1e-4 of central finite differences", 30.0):
        err = grad_check(ModelConfig(11, 4, 4, 2, 8, 1), seed=7, eps=1e-5)
        assert err < 1e-4, f"max relative error {err:.3e}"


def test_criterion_6_attention_softmax_invariants():
    with criterion(6, "softmax row invariants on 1,000 random rows; uniform attention at Wq=0", 5.0):
        rows = rng_uniform_array(6, (1000, 9), -10.0, 10.0)
        out = softmax_rows(rows)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-12
        shifted = softmax_rows(rows + 3.5)
        assert np.max(np.abs(shifted - out)) <= 1e-12
        assert np.array_equal(np.argmax(out, axis=1), np.argmax(rows, axis=1))

        cfg = PRESETS["tiny"]
        p = init_params(cfg, 3)
        q = p.with_theta(p.theta.copy())
        q.layers[0].wq[...] = 0.0
        x = rng_uniform_array(7, (4, cfg.d_model), -1.0, 1.0)
        _, trace = attention_forward(q, 0, x, cfg.n_heads)
        for w in trace.weights:
            assert np.array_equal(w, np.full((4, 4), 0.25))


def test_criterion_7_training_sanity():
    with criterion(7, "ten copy-task iterations at B=32, n=10 reduce the loss", 30.0):
        cfg = PRESETS["small"]
        p = init_params(cfg, 0)
        inputs, targets = synth_copy_batch(0, 32, 10, cfg.vocab_size)
        batch, tgts = list(inputs), list(targets)
        losses = []
        for _ in range(10):
            p, loss = train_step(p, cfg, batch, tgts, lr=0.05)
            losses.append(loss)
        assert losses[-1] < losses[0], f"loss went {losses[0]:.9f} -> {losses[-1]:.9f}"


def test_criterion_8_quantization_bound():
    with criterion(8, "dequantization error <= scale/2 and idempotent requantization, 100 tensors", 5.0):
        for k in range(100):
            base = rng_uniform_array(800 + k, (11, 13), -1.0, 1.0)
            m = base * (10.0 ** ((k % 13) - 6))
            qt = quantize_tensor(m)
            deq = dequantize(qt)
            assert np.max(np.abs(deq - m)) <= qt.scale / 2
            again = quantize_tensor(deq)
            assert again.scale == qt.scale
            assert np.array_equal(again.values, qt.values)


def test_criterion_9_compression_accounting(tmp_path):
    with criterion(9, "structural pruning arithmetic exact; model files round-trip bit-exact", 5.0):
        cfg = PRESETS["paper-baseline"]
        p = init_params(cfg, 0)
        dh = cfg.d_model // cfg.n_heads
        for kept in ({0, 1, 2, 3}, {0, 5}, {7,}):
            pruned, pcfg, _ = prune_heads(p, cfg, 0, kept)
            dropped = cfg.n_heads - len(kept)
            assert param_count_enumerated(p) - param_count_enumerated(pruned) \
                == dropped * 4 * cfg.d_model * dh
            assert param_count(pcfg) == param_count_enumerated(pruned)

        two_layer = ModelConfig(3990, 10, 32, 8, 128, 2)
        p2 = init_params(two_layer, 1)
        sliced, scfg, _ = prune_layers(p2, two_layer, [1])
        assert param_count_enumerated(p2) - param_count_enumerated(sliced) \
            == 4 * 32 * 32 + 2 * 32 * 128
        assert param_count(scfg) == param_count_enumerated(sliced)

        path = tmp_path / "roundtrip.retf"
        save_model(path, cfg, p)
        cfg2, p3 = load_model(path)
        assert cfg2 == cfg
        for (_, a), (_, b) in zip(iter_params(p), iter_params(p3)):
            assert np.array_equal(a, b)
