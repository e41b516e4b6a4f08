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
from typing import Callable, Iterable

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
    """Wall-clock samples plus their summary statistics (seconds)."""

    samples: tuple[float, ...]
    median: float
    mean: float
    min: float
    reps: int
    warmup: int

    @classmethod
    def from_samples(cls, samples: Iterable[float], warmup: int) -> "TimingStats":
        xs = tuple(samples)
        if not xs:
            raise ValueError("TimingStats: need at least one sample")
        return cls(
            samples=xs,
            median=statistics.median(xs),
            mean=statistics.fmean(xs),
            min=min(xs),
            reps=len(xs),
            warmup=warmup,
        )

    def to_json(self) -> dict:
        return {
            "median_s": self.median,
            "mean_s": self.mean,
            "min_s": self.min,
            "reps": self.reps,
            "warmup": self.warmup,
        }


@dataclass(frozen=True)
class ResourceReport:
    """One configuration's Table-style row set: parameters, bytes, timing."""

    label: str
    param_count: int
    param_bytes: int
    activation_bytes: int
    timing: TimingStats

    def __post_init__(self):
        if self.param_bytes != BYTES_PER_PARAM * self.param_count:
            raise ValueError("ResourceReport: param_bytes must equal 8 * param_count")

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
    baseline: ResourceReport
    variant: ResourceReport
    ratios: dict[str, float | None]
    reductions_pct: dict[str, float | None]

    def to_json(self) -> dict:
        return {
            "baseline": self.baseline.to_json(),
            "variant": self.variant.to_json(),
            "ratios": dict(self.ratios),
            "reductions_pct": dict(self.reductions_pct),
        }


def memory_bytes(cfg: ModelConfig) -> int:
    """Parameter memory in bytes: 8 per stored element."""
    return BYTES_PER_PARAM * param_count(cfg)


def activation_bytes(cfg: ModelConfig, batch_size: int, seq_len: int) -> int:
    """Bytes of intermediate activations for one forward pass.

    Per sequence: the embedded input (n*d), per layer Q, K, V (3*n*w), the
    per-head attention weights (heads*n^2), the attention output (n*d),
    the FFN hidden (n*f) and output (n*d), and the logits (n*V). Matches
    8x the element count of the batch's ForwardTrace plus its logits by
    construction, and a forward's measured peak sits just above it.
    """
    if batch_size < 1 or seq_len < 1:
        raise ValueError("activation_bytes: batch_size and seq_len must be >= 1")
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
    return TimingStats.from_samples(samples, warmup=warmup)


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
    count = param_count(cfg)
    return ResourceReport(
        label=label,
        param_count=count,
        param_bytes=BYTES_PER_PARAM * count,
        activation_bytes=activation_bytes(cfg, batch_size, seq_len),
        timing=time_forward(p, cfg, batch_size, seq_len, reps, warmup, clock),
    )


_COMPARE_METRICS = ("param_count", "param_bytes", "activation_bytes", "time_median_s")


def _metric(report: ResourceReport, name: str) -> float:
    if name == "time_median_s":
        return report.timing.median
    return getattr(report, name)


def compare(baseline: ResourceReport, variant: ResourceReport) -> ComparisonReport:
    """Variant-over-baseline ratios and percent reductions per metric.

    A zero baseline metric yields None (undefined) rather than a division
    error.
    """
    ratios: dict[str, float | None] = {}
    reductions: dict[str, float | None] = {}
    for name in _COMPARE_METRICS:
        base = _metric(baseline, name)
        if base == 0:
            ratios[name] = None
            reductions[name] = None
        else:
            r = _metric(variant, name) / base
            ratios[name] = r
            reductions[name] = (1.0 - r) * 100.0
    return ComparisonReport(baseline=baseline, variant=variant,
                            ratios=ratios, reductions_pct=reductions)


def render_comparison(cr: ComparisonReport) -> str:
    """Three-row text table: memory, execution time, parameter count."""
    b, v = cr.baseline, cr.variant

    def pct(name: str) -> str:
        red = cr.reductions_pct[name]
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


# the configuration search's fixed choices; FFN width is a multiple of d_model
D_CHOICES = (2, 4, 8, 16, 32, 64, 128, 256, 512)
HEAD_CHOICES = (2, 4, 8, 16)
FF_MULTIPLIERS = (1, 2, 4)
BIAS_OPTIONS = (False, True)


@dataclass(frozen=True)
class SearchBounds:
    """The configuration search's settable ranges."""

    seq_len: int = 10
    max_layers: int = 4
    max_vocab_plus_seq: int = 1_000_000

    def __post_init__(self):
        if self.seq_len < 1 or self.max_layers < 0 or self.max_vocab_plus_seq < 2:
            raise ValueError("SearchBounds: degenerate bounds")


def config_search(
    target_base: int, target_variant: int, bounds: SearchBounds = SearchBounds()
) -> list[tuple[ModelConfig, ModelConfig]]:
    """Find every (config, half-sized config) pair hitting both parameter targets.

    Enumerates d, layer count, FFN multiplier, bias and head count over the
    module's choice sets and `bounds`; for each combination the embedding total V+S follows directly
    from the closed-form count, so only the divisibility and range filters
    remain. Every candidate is re-verified against param_count exactly.
    """
    if target_base < 1 or target_variant < 1:
        raise ValueError("config_search: targets must be positive")
    found = []
    for d in D_CHOICES:
        for heads in HEAD_CHOICES:
            # reduce_config(cfg, 2) needs d, heads and f all even, heads >= 2
            if d % heads != 0 or d % 2 != 0 or heads % 2 != 0:
                continue
            for n_layers in range(bounds.max_layers + 1):
                for mult in FF_MULTIPLIERS:
                    d_ff = mult * d
                    if d_ff % 2 != 0:
                        continue
                    for use_bias in BIAS_OPTIONS:
                        # the count of a one-token, one-position model, less its 2 * d embeddings
                        layers = ModelConfig(1, 1, d, heads, d_ff, n_layers, use_bias)
                        remainder = target_base - (param_count(layers) - 2 * d)
                        if remainder <= 0 or remainder % d != 0:
                            continue
                        total_vs = remainder // d
                        vocab = total_vs - bounds.seq_len
                        if vocab < 1 or total_vs > bounds.max_vocab_plus_seq:
                            continue
                        cfg = ModelConfig(
                            vocab_size=vocab, max_seq_len=bounds.seq_len,
                            d_model=d, n_heads=heads, d_ff=d_ff,
                            n_layers=n_layers, use_bias=use_bias,
                        )
                        reduced = reduce_config(cfg, 2)
                        if param_count(cfg) == target_base and param_count(reduced) == target_variant:
                            found.append((cfg, reduced))
    found.sort(key=lambda pair: (pair[0].d_model, pair[0].n_layers, pair[0].d_ff,
                                 pair[0].n_heads, pair[0].use_bias))
    return found
