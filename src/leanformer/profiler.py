"""Resource accounting: parameter memory, activation memory, wall-clock timing.

Parameter memory is exact (8 bytes per float64 element); activation memory
is the closed-form size of the batch-sized arrays the timed (inference)
forward holds, its logits and its embedded rows, and `train_step_bytes`
that of a training step's peak (`train_step_stage_bytes` that of each of its
two stages); `forward_flops` counts the forward's
matrix-product FLOPs in closed form; timing is measured with
warmup and reported through order statistics, with the clock injectable so
the statistics pipeline is testable without real time; `host_block` names
the host behind a measurement.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from .compression import reduce_config
from .model import (
    _TOK_EMB_GRAD_BLOCK,
    _VOCAB_BLOCK,
    _chunk_sequences,
    _layer_sequence_bytes,
    ModelConfig,
    ParamSet,
    model_forward,
    param_count,
    synth_copy_batch,
)

BYTES_PER_PARAM = 8  # float64

# fixed seed for benchmark batches so every rep sees identical input
_BENCH_BATCH_SEED = 0x5EED


@dataclass(frozen=True)
class TimingStats:
    """Wall-clock seconds of each recorded rep, after `warmup` unrecorded ones."""

    samples: tuple[float, ...]
    warmup: int

    @property
    def median(self) -> float:
        return statistics.median(self.samples)

    def to_json(self) -> dict:
        # numpy's default percentile: rank q/100 * (n - 1) of the sorted samples, linearly interpolated
        p10, p90 = np.percentile(self.samples, [10, 90]).tolist()
        return {
            "median_s": self.median,
            "mean_s": statistics.fmean(self.samples),
            "min_s": min(self.samples),
            "p10_s": p10,
            "p90_s": p90,
            "reps": len(self.samples),
            "warmup": self.warmup,
        }


@dataclass(frozen=True)
class ResourceReport:
    """One configuration's Table-style row set: parameters, bytes, timing."""

    label: str
    param_count: int
    activation_bytes: int
    train_step_bytes: int
    forward_flops: int
    timing: TimingStats

    @property
    def param_bytes(self) -> int:
        return BYTES_PER_PARAM * self.param_count

    def metrics(self) -> dict[str, float]:
        """The values a comparison sets side by side, by name."""
        return {
            "param_count": self.param_count,
            "param_bytes": self.param_bytes,
            "activation_bytes": self.activation_bytes,
            "train_step_bytes": self.train_step_bytes,
            "forward_flops": self.forward_flops,
            "time_median_s": self.timing.median,
        }

    def to_json(self) -> dict:
        """`metrics()` by name, with the median time widened to the whole timing record."""
        closed_forms = self.metrics()
        closed_forms.pop("time_median_s")
        return {"label": self.label, **closed_forms, "timing": self.timing.to_json()}


@dataclass(frozen=True)
class ComparisonReport:
    """Variant-over-baseline ratios and percent reductions per metric.

    A zero baseline metric yields None (undefined) rather than a division
    error.
    """

    baseline: ResourceReport
    variant: ResourceReport

    @property
    def ratios(self) -> dict[str, float | None]:
        base, var = self.baseline.metrics(), self.variant.metrics()
        return {name: None if base[name] == 0 else var[name] / base[name] for name in base}

    @property
    def reductions_pct(self) -> dict[str, float | None]:
        return {name: None if r is None else (1.0 - r) * 100.0 for name, r in self.ratios.items()}

    def to_json(self) -> dict:
        return {
            "baseline": self.baseline.to_json(),
            "variant": self.variant.to_json(),
            "ratios": self.ratios,
            "reductions_pct": self.reductions_pct,
        }


def host_block() -> dict:
    """The host behind a measurement: Python, numpy and BLAS builds, CPUs and thread variables.

    The keys are those of the benchmark's host block; `malloc` is None, as
    the package pins no allocator setting.
    """
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
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "malloc": None,
        "machine": platform.machine(),
    }


def memory_bytes(cfg: ModelConfig) -> int:
    """Parameter memory in bytes: 8 per stored element."""
    return BYTES_PER_PARAM * param_count(cfg)


def _check_batch(who: str, cfg: ModelConfig, batch_size: int, seq_len: int) -> None:
    for name, value in (("batch_size", batch_size), ("seq_len", seq_len)):
        if value < 1:
            raise ValueError(f"{who}: {name} must be >= 1, got {value}")
    if seq_len > cfg.max_seq_len:
        raise ValueError(f"{who}: seq_len {seq_len} exceeds max_seq_len {cfg.max_seq_len}")


def activation_bytes(cfg: ModelConfig, batch_size: int, seq_len: int) -> int:
    """Bytes of the batch-sized arrays the timed forward holds: 8*b*n*(V + d).

    The untraced (inference) forward that `time_forward` times holds the
    (b, n, V) logits and the (b, n, d) embedded rows, which each sequence's
    last-layer output overwrites; beside them it holds only one sequence's
    temporaries. The contiguous copy of tok_emb^T that its tied products
    read on larger batches lies in the logits' first rows, so it adds no
    term. `batch_loss` and training hold less (see `train_step_bytes`).
    """
    _check_batch("activation_bytes", cfg, batch_size, seq_len)
    return BYTES_PER_PARAM * batch_size * seq_len * (cfg.vocab_size + cfg.d_model)


def train_step_bytes(cfg: ModelConfig, batch_size: int, seq_len: int) -> int:
    """Bytes a `train_step` holds at its peak: the gradient, 8*P, plus the larger of two stages.

    `train_step_stage_bytes` gives the two stages. The checkpoint forward runs
    before the gradient exists, on chunks of the same size, and holds less.
    """
    _check_batch("train_step_bytes", cfg, batch_size, seq_len)
    return BYTES_PER_PARAM * param_count(cfg) + max(train_step_stage_bytes(cfg, batch_size, seq_len))


def train_step_stage_bytes(cfg: ModelConfig, batch_size: int, seq_len: int) -> tuple[int, int]:
    """Bytes the output stage and the layer stage of a `train_step` hold beside the gradient.

    Both hold (b, n, d) arrays, 8*b*n*d bytes each, beside one chunk of at
    most `model.STEP_CHUNK_BYTES` of whole sequences (at least one, at most
    the batch). The output stage holds the traced forward's max(1, L)
    checkpoints, the last of which is its input at every depth (a layerless
    model's one is its embedded rows) and has its rows overwritten by their
    gradient, beside the larger of the batch's scaled rows for the
    one-hot share and one chunk: its (vocab, rows) logits, the batch's loss
    terms, its scaled (rows, d) factors with their two vectors (the column
    sums and scales) and the larger of one block's share of tok_emb's
    gradient (`model._TOK_EMB_GRAD_BLOCK` rows) and, past the first
    `model._VOCAB_BLOCK` rows of tok_emb, a block's (rows, d) partial
    product before it is added to the gradient rows; the two are never held
    at once. The chunk's (d, rows) copy, which the logit products read, is
    dropped before the cross-entropy, which holds at most three vectors, so
    neither is held at the peak.
    The backward of layer l holds the checkpoints of layers 0 to l-1 and the
    gradient rows beside one chunk of `model._layer_sequence_bytes` per
    sequence and W2's (d_ff, d) gradient product; the layer stage is its
    largest layer, and 0 without layers.
    numpy's working buffers, up to 64 KiB each, are not counted: numpy makes
    one for each operand that an elementwise op broadcasts along rows, such
    as the row max and row sums of the stacked softmax's subtract and divide,
    the bias adds and the output stage's column-max subtract, which it takes
    only when its overflow bound does not rule the max out.
    """
    _check_batch("train_step_stage_bytes", cfg, batch_size, seq_len)
    b, n, d, vocab = batch_size, seq_len, cfg.d_model, cfg.vocab_size
    word = BYTES_PER_PARAM
    kept = word * b * n * d
    rows = _chunk_sequences(b, word * n * vocab) * n
    block = max(min(vocab, _TOK_EMB_GRAD_BLOCK), rows if vocab > _VOCAB_BLOCK else 0)
    chunk = word * (rows * (vocab + d + 2) + b * n + block * d)
    output = max(1, cfg.n_layers) * kept + max(kept, chunk)
    layers = 0
    for layer in range(cfg.n_layers):
        seq = _layer_sequence_bytes(cfg, layer, n)
        layers = max(layers, (layer + 1) * kept + _chunk_sequences(b, seq) * seq + word * cfg.d_ff * d)
    return output, layers


def forward_flops(cfg: ModelConfig, batch_size: int, seq_len: int) -> int:
    """FLOPs of one forward's matrix products: 2bn(dV + sum over layers of (4dw + 2nw + 2df)).

    Per position, a layer of attention width w takes its Q, K, V and output
    projections (4dw), its scores and their weighted sum of values (2nw, over
    all heads) and its two FFN products (2df); the tied logits take dV. The
    softmax, the rectifier, the bias adds and the embedding lookup are not
    counted.
    """
    _check_batch("forward_flops", cfg, batch_size, seq_len)
    n, d = seq_len, cfg.d_model
    per_position = d * cfg.vocab_size + sum(
        (4 * d + 2 * n) * cfg.attn_width(layer) + 2 * d * cfg.d_ff for layer in range(cfg.n_layers))
    return 2 * batch_size * n * per_position


def time_forward(
    p: ParamSet,
    cfg: ModelConfig,
    batch_size: int = 32,
    seq_len: int = 10,
    reps: int = 100,
    warmup: int = 10,
    clock: Callable[[], float] = time.perf_counter,
) -> TimingStats:
    """Time repeated forward passes over one fixed seeded batch.

    Runs `warmup` unrecorded passes, then `reps` recorded ones, single
    threaded, identical input every rep. The clock only has to be
    monotonic; tests inject a fake one.
    """
    if reps < 1:
        raise ValueError(f"time_forward: reps must be >= 1, got {reps}")
    if warmup < 0:
        raise ValueError(f"time_forward: warmup must be >= 0, got {warmup}")
    batch, _ = synth_copy_batch(_BENCH_BATCH_SEED, batch_size, seq_len, cfg.vocab_size)

    for _ in range(warmup):
        model_forward(p, cfg, batch)

    samples = []
    for _ in range(reps):
        start = clock()
        model_forward(p, cfg, batch)
        samples.append(clock() - start)
    return TimingStats(tuple(samples), warmup)


def profile_model(
    p: ParamSet,
    cfg: ModelConfig,
    label: str,
    batch_size: int = 32,
    seq_len: int = 10,
    reps: int = 100,
    warmup: int = 10,
    clock: Callable[[], float] = time.perf_counter,
) -> ResourceReport:
    return ResourceReport(
        label=label,
        param_count=param_count(cfg),
        activation_bytes=activation_bytes(cfg, batch_size, seq_len),
        train_step_bytes=train_step_bytes(cfg, batch_size, seq_len),
        forward_flops=forward_flops(cfg, batch_size, seq_len),
        timing=time_forward(p, cfg, batch_size, seq_len, reps, warmup, clock),
    )


def compare(baseline: ResourceReport, variant: ResourceReport) -> ComparisonReport:
    """Pair two reports; the pair derives its ratios and reductions."""
    return ComparisonReport(baseline, variant)


def render_comparison(cr: ComparisonReport) -> str:
    """Three-row text table: memory, execution time, parameter count."""
    b, v, reductions = cr.baseline.metrics(), cr.variant.metrics(), cr.reductions_pct

    def pct(name: str) -> str:
        red = reductions[name]
        return "undefined" if red is None else f"{red:.2f}%"

    rows = [(title, fmt.format(b[name]), fmt.format(v[name]), pct(name)) for title, name, fmt in (
        ("Memory Usage (Bytes)", "param_bytes", "{:,}"),
        ("Execution Time (Seconds)", "time_median_s", "{:.6f}"),
        ("Parameter Count", "param_count", "{:,}"),
    )]
    headers = ("Metric", cr.baseline.label, cr.variant.label, "Reduction")
    widths = [max(len(r[i]) for r in rows + [headers]) for i in range(4)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(4)),
    ]
    for r in rows:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(4)))
    return "\n".join(lines)


# the configuration search's fixed choices; FFN width is a multiple of d_model.
# Every d and head count is even, so each candidate's d, heads and d_ff
# halve exactly, as reduce_config(cfg) needs.
D_CHOICES = (2, 4, 8, 16, 32, 64, 128, 256, 512)
HEAD_CHOICES = (2, 4, 8, 16)
FF_MULTIPLIERS = (1, 2, 4)
BIAS_OPTIONS = (False, True)


def config_search(
    target_base: int, target_variant: int, *,
    seq_len: int = 10, max_layers: int = 4, max_vocab_plus_seq: int = 1_000_000,
) -> list[tuple[ModelConfig, ModelConfig]]:
    """Find every (config, half-sized config) pair hitting both parameter targets.

    Enumerates d, head count, FFN multiplier and bias over the module's
    choice sets. A model and its half-sized pair share V+S, so the two
    targets fix each combination's layer count (at most `max_layers`); the
    embedding total V+S then follows from the closed-form count, and
    V = (V+S) - seq_len must be >= 1 with V+S <= `max_vocab_plus_seq`.
    Every candidate is re-verified against param_count exactly.
    """
    if target_base < 1 or target_variant < 1:
        raise ValueError("config_search: targets must be positive")
    for name, value, least in (("seq_len", seq_len, 1), ("max_layers", max_layers, 0),
                               ("max_vocab_plus_seq", max_vocab_plus_seq, 2)):
        if value < least:
            raise ValueError(f"config_search: {name} must be >= {least}, got {value}")
    found = []
    for d, heads, mult, use_bias in product(D_CHOICES, HEAD_CHOICES, FF_MULTIPLIERS, BIAS_OPTIONS):
        if d % heads != 0:
            continue
        d_ff = mult * d
        layer = ModelConfig(1, 1, d, heads, d_ff, 1, use_bias)
        # what one layer adds to the model's count and to its pair's, whose V+S weighs d / 2:
        # target_base - 2 * target_variant = n_layers * (per_layer - 2 * per_half)
        per_layer = param_count(layer) - 2 * d
        per_half = param_count(reduce_config(layer)) - d
        n_layers, rest = divmod(target_base - 2 * target_variant, per_layer - 2 * per_half)
        total_vs, rest_vs = divmod(target_base - n_layers * per_layer, d)
        vocab = total_vs - seq_len
        if (rest or rest_vs or not 0 <= n_layers <= max_layers
                or vocab < 1 or total_vs > max_vocab_plus_seq):
            continue
        cfg = ModelConfig(
            vocab_size=vocab, max_seq_len=seq_len, d_model=d, n_heads=heads,
            d_ff=d_ff, n_layers=n_layers, use_bias=use_bias,
        )
        reduced = reduce_config(cfg)
        if param_count(cfg) == target_base and param_count(reduced) == target_variant:
            found.append((cfg, reduced))
    found.sort(key=lambda pair: (pair[0].d_model, pair[0].n_layers, pair[0].d_ff,
                                 pair[0].n_heads, pair[0].use_bias))
    return found
