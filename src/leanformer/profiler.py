"""Resource accounting: parameter memory, activation memory, wall-clock timing.

Parameter memory is exact (8 bytes per float64 element); activation memory
is the closed-form element count of one forward's trace and logits; timing
is measured with warmup and reported through order statistics, with the
clock injectable so the statistics pipeline is testable without real time.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from itertools import product
from typing import Callable

from .compression import reduce_config
from .model import (
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
        return {
            "median_s": self.median,
            "mean_s": statistics.fmean(self.samples),
            "min_s": min(self.samples),
            "reps": len(self.samples),
            "warmup": self.warmup,
        }


@dataclass(frozen=True)
class ResourceReport:
    """One configuration's Table-style row set: parameters, bytes, timing."""

    label: str
    param_count: int
    activation_bytes: int
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
            "time_median_s": self.timing.median,
        }

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "param_count": self.param_count,
            "param_bytes": self.param_bytes,
            "activation_bytes": self.activation_bytes,
            "timing": self.timing.to_json(),
        }


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


def memory_bytes(cfg: ModelConfig) -> int:
    """Parameter memory in bytes: 8 per stored element."""
    return BYTES_PER_PARAM * param_count(cfg)


def activation_bytes(cfg: ModelConfig, batch_size: int, seq_len: int) -> int:
    """Bytes of a forward pass's intermediate activations and logits.

    Per sequence: the embedded input (n*d), per layer Q, K, V (3*n*w), the
    per-head attention weights (heads*n^2), the attention output (n*d),
    the FFN hidden (n*f) and output (n*d), and the logits (n*V). Matches
    8x the element count of the batch's ForwardTrace plus its logits by
    construction. No pass holds all of it at once: training holds the
    trace plus one chunk of logits (`model.LOGIT_CHUNK_BYTES`), and
    inference holds the logits, the embedded input and one sequence's
    temporaries.
    """
    for name, value in (("batch_size", batch_size), ("seq_len", seq_len)):
        if value < 1:
            raise ValueError(f"activation_bytes: {name} must be >= 1, got {value}")
    if seq_len > cfg.max_seq_len:
        raise ValueError(
            f"activation_bytes: seq_len {seq_len} exceeds max_seq_len {cfg.max_seq_len}"
        )
    n, d = seq_len, cfg.d_model
    elems = n * d + n * cfg.vocab_size
    for layer in range(cfg.n_layers):
        w = cfg.attn_width(layer)
        heads = cfg.heads_in_layer(layer)
        elems += 3 * n * w + heads * n * n + n * d + n * cfg.d_ff + n * d
    return BYTES_PER_PARAM * batch_size * elems


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
        timing=time_forward(p, cfg, batch_size, seq_len, reps, warmup, clock),
    )


def compare(baseline: ResourceReport, variant: ResourceReport) -> ComparisonReport:
    """Pair two reports; the pair derives its ratios and reductions."""
    return ComparisonReport(baseline, variant)


def render_comparison(cr: ComparisonReport) -> str:
    """Three-row text table: memory, execution time, parameter count."""
    b, v = cr.baseline, cr.variant
    reductions = cr.reductions_pct

    def pct(name: str) -> str:
        red = reductions[name]
        return "undefined" if red is None else f"{red:.2f}%"

    rows = [
        ("Memory Usage (Bytes)", f"{b.param_bytes:,}", f"{v.param_bytes:,}", pct("param_bytes")),
        ("Execution Time (Seconds)", f"{b.timing.median:.6f}", f"{v.timing.median:.6f}",
         pct("time_median_s")),
        ("Parameter Count", f"{b.param_count:,}", f"{v.param_count:,}", pct("param_count")),
    ]
    headers = ("Metric", b.label, v.label, "Reduction")
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
