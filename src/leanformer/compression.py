"""Compression passes: dimension reduction, pruning and int8 quantization.

Four independent ways to shrink a model. Dimension reduction is a config
transform (the small model is built fresh, not distilled); magnitude
pruning zeroes weights in place of structure; head and layer pruning
remove whole blocks; quantization rewrites float64 tensors as int8 plus
one symmetric scale per tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (LayerParams, ModelConfig, ParamSet, _check_config, _freeze, _layer,
                    iter_params, param_count, param_shapes, param_tensor_count)
from .numerics import Matrix


@dataclass(frozen=True)
class QuantizedTensor:
    """Signed int8 values with one positive symmetric scale.

    Values stay within [-127, 127]: quantization never produces -128, and the
    v2 loader refuses it. A zero tensor gets scale 1.0 by convention.
    """

    values: np.ndarray  # int8, shaped like the parameter it stores
    scale: float

    def __post_init__(self):
        if self.values.dtype != np.int8:
            raise ValueError(f"QuantizedTensor: dtype must be int8, got {self.values.dtype}")
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"QuantizedTensor: scale must be positive and finite, got {self.scale}")


@dataclass(frozen=True)
class CompressionReport:
    pass_name: str
    params_before: int
    params_after: int
    bytes_before: int
    bytes_after: int
    sparsity: float
    max_error: float

    def __post_init__(self):
        if self.params_after > self.params_before or self.bytes_after > self.bytes_before:
            raise ValueError("CompressionReport: pass may not grow the model")
        if not 0.0 <= self.sparsity <= 1.0:
            raise ValueError(f"CompressionReport: sparsity {self.sparsity} outside [0, 1]")

    def lines(self) -> list[str]:
        return [
            f"pass:        {self.pass_name}",
            f"parameters:  {self.params_before} -> {self.params_after}",
            f"bytes:       {self.bytes_before} -> {self.bytes_after}",
            f"sparsity:    {self.sparsity:.4f}",
            f"max error:   {self.max_error:.6g}",
        ]


def _report(pass_name: str, before: ParamSet, after: ParamSet,
            max_error: float = 0.0) -> CompressionReport:
    """The report of a pass that maps float64 `before` to float64 `after`."""
    return CompressionReport(
        pass_name=pass_name,
        params_before=before.theta.size,
        params_after=after.theta.size,
        bytes_before=8 * before.theta.size,
        bytes_after=8 * after.theta.size,
        sparsity=int(np.count_nonzero(after.theta == 0.0)) / after.theta.size,
        max_error=max_error,
    )


def reduce_config(cfg: ModelConfig) -> ModelConfig:
    """Halve d_model, n_heads and d_ff.

    Vocab, sequence length and depth stay put. The reduced model is meant
    to be freshly initialized, not projected from the original weights.
    """
    if cfg.head_dim is not None or cfg.layer_heads is not None:
        raise ValueError("reduce_config: cannot reduce a structurally pruned config")
    for name in ("d_model", "n_heads", "d_ff"):
        if getattr(cfg, name) % 2 != 0:
            raise ValueError(f"reduce_config: {name} ({getattr(cfg, name)}) not divisible by 2")
    return replace(cfg, d_model=cfg.d_model // 2, n_heads=cfg.n_heads // 2, d_ff=cfg.d_ff // 2)


def prune_magnitude(p: ParamSet, threshold: float) -> tuple[ParamSet, CompressionReport]:
    """Zero every parameter with |w| < threshold; structure is untouched.

    Parameter and byte counts do not change; the resulting sparsity is the
    compression proxy. The largest zeroed magnitude is reported as the
    reconstruction error (strictly below the threshold by construction).
    """
    if not threshold >= 0:  # NaN too; an infinite threshold zeroes every finite weight
        raise ValueError(f"prune_magnitude: threshold must be >= 0, got {threshold}")

    theta = np.asarray(p.theta, dtype=np.float64)  # native order, so its bits match mag's
    mag = np.abs(theta)
    mask = mag < threshold
    # kept entries read 0, or NaN where they are NaN or infinite, which fmax skips
    with np.errstate(invalid="ignore"):
        max_err = float(np.fmax.reduce(np.multiply(mag, mask, out=mag), initial=0.0))
    # in mag's buffer, mask - 1 is all ones where kept and 0 where pruned, so the
    # AND leaves theta's own bits or +0.0 with no per-element branch
    bits = np.subtract(mask, 1, dtype=np.uint64, out=mag.view(np.uint64))
    np.bitwise_and(bits, theta.view(np.uint64), out=bits)
    pruned = p.with_theta(_freeze(mag))
    return pruned, _report("prune-magnitude", p, pruned, max_err)


def head_importance(p: ParamSet, cfg: ModelConfig, layer: int) -> list[float]:
    """Frobenius norm of each head's output-projection row block.

    A head whose slice of Wo is near zero contributes almost nothing to
    the layer output, so its score approaches zero.
    """
    _check_config("head_importance", cfg, p)
    lay, heads = _layer("head_importance", p, layer)
    dh = lay.wo.shape[0] // heads
    return [float(np.linalg.norm(lay.wo[h * dh:(h + 1) * dh, :])) for h in range(heads)]


def _with_heads(cfg: ModelConfig, counts: list[int]) -> ModelConfig:
    """`cfg` with `counts[i]` heads in layer i, folded into `n_heads` when all are equal.

    `head_dim` is pinned whenever `d_model // n_heads` would not give the head width back.
    """
    dh = cfg.head_width
    if len(set(counts)) > 1:
        return replace(cfg, n_layers=len(counts), head_dim=dh, layer_heads=tuple(counts))
    n_heads = counts[0] if counts else cfg.n_heads
    head_dim = None if n_heads * dh == cfg.d_model and cfg.head_dim is None else dh
    return replace(cfg, n_layers=len(counts), n_heads=n_heads, head_dim=head_dim,
                   layer_heads=None)


def prune_heads(
    p: ParamSet, cfg: ModelConfig, layer: int, keep: set[int]
) -> tuple[ParamSet, ModelConfig, CompressionReport]:
    """Drop whole attention heads from one layer.

    Removes the dropped heads' column blocks from Wq/Wk/Wv (and their bias
    entries) and row blocks from Wo, so the layer's internal attention width
    shrinks while its input/output width stays d_model. Each dropped head
    removes exactly 4 * d_model * head_width weight elements.
    """
    _check_config("prune_heads", cfg, p)
    lay, heads = _layer("prune_heads", p, layer)
    kept = sorted(set(keep))
    if not kept:
        raise ValueError("prune_heads: keep set must be non-empty")
    if kept[0] < 0 or kept[-1] >= heads:
        raise ValueError(f"prune_heads: head indices {kept} outside [0, {heads})")

    cols = np.repeat([h in kept for h in range(heads)], cfg.head_width)
    qkv = {name: getattr(lay, name)[..., cols] for name in ("wq", "bq", "wk", "bk", "wv", "bv")
           if getattr(lay, name) is not None}
    layers = [*p.layers]
    layers[layer] = replace(lay, wo=lay.wo[cols], **qkv)
    return _rebuild("prune-heads", p, cfg, layers)


def prune_layers(
    p: ParamSet, cfg: ModelConfig, keep_layers: list[int]
) -> tuple[ParamSet, ModelConfig, CompressionReport]:
    """Keep only the listed layers, re-indexed in order."""
    _check_config("prune_layers", cfg, p)
    kept = list(keep_layers)
    if sorted(set(kept)) != kept:
        raise ValueError(f"prune_layers: keep_layers {kept} must be strictly increasing")
    if kept and (kept[0] < 0 or kept[-1] >= cfg.n_layers):
        raise ValueError(f"prune_layers: layer indices {kept} outside [0, {cfg.n_layers})")
    return _rebuild("prune-layers", p, cfg, [p.layers[i] for i in kept])


def _rebuild(pass_name: str, p: ParamSet, cfg: ModelConfig,
             layers: list[LayerParams]) -> tuple[ParamSet, ModelConfig, CompressionReport]:
    """A pass's frozen params, config and report: p's embeddings, then `layers`, in canonical order."""
    new_cfg = _with_heads(cfg, [lay.wq.shape[1] // cfg.head_width for lay in layers])
    arrays = [p.tok_emb, p.pos_emb, *(a for lay in layers for a in vars(lay).values() if a is not None)]
    pruned = ParamSet(_freeze(np.concatenate([a.ravel() for a in arrays])), new_cfg)
    return pruned, new_cfg, _report(pass_name, p, pruned)


# The smallest subnormal float64. A peak of k * _TINY with k <= 16065 (where
# peak / 127 < 127 * _TINY) gets scale n * _TINY from the first row (top, n) with k <= top, not the
# nearest peak / 127, which is 0 below k = 64 and elsewhere may clip the peak
# past scale/2 or requantize to another scale. Each row's k range is whole
# rounding cells of its n within k <= 127.5 * n, so the error stays within
# scale/2 and the dequantized peak falls in the same row.
_TINY = 5e-324
_SMALL_SCALES = ((127, 1), (382, 3), (1147, 9), (3442, 27), (5143, 81), (16065, 127))


def quantize_tensor(m: Matrix) -> QuantizedTensor:
    """Symmetric per-tensor int8 quantization; the values keep `m`'s shape.

    scale = max|m| / 127, one of `_SMALL_SCALES` for a peak of at most 16065
    subnormal steps, or the next float down where 127 * scale would overflow;
    an all-zero tensor gets 1.0, and one holding inf or NaN is refused. Values are
    rounded half away from zero and clamped to [-127, 127]. In exact arithmetic each element x
    and its dequantized d = fl(v * scale) satisfy |x - d| <= scale/2 + 2**-52 * |d|.
    Let r = x / scale and q = fl(r), which v rounds. Each k + 1/2 is a float, so
    |r - v| <= 1/2 (the clamp cuts only q >= 127.5, where r <= 127.5) unless
    q = k + 1/2, k >= 0 say: then v = k + 1 and r may fall ulp(q)/2 <= 2**-53 * q
    short of q. fl(v * scale) adds at most 2**-53 * v * scale, and as q + v =
    2v - 1/2 and |d| >= v * scale * (1 - 2**-53), their sum is below 2**-52 * |d|.
    (q + 1/2 also rounds up to 1 for the float 2**-54 below 1/2, well within it.)
    So scale/2 alone fails on half-points: [0.127, 0.0635] gives d = 0.064,
    5.000000000000004e-4 from 0.0635, against scale/2 = 5e-4.
    """
    a = np.asarray(m, dtype=np.float64)
    # max|a| without an |a| temporary; NaN still propagates
    peak = float(np.maximum(a.max(), -a.min())) if a.size else 0.0
    if not math.isfinite(peak):  # before any division or cast, which would warn
        raise ValueError(f"quantize_tensor: tensor holds a non-finite value (max |m| = {peak})")
    if peak == 0.0:
        return QuantizedTensor(np.zeros(a.shape, np.int8), 1.0)

    scale = peak / 127.0
    if scale < 127 * _TINY:
        scale = _TINY * next(n for top, n in _SMALL_SCALES if peak / _TINY <= top)
    elif 127.0 * scale == math.inf:  # 127 * scale must dequantize the peak to a finite value
        scale = math.nextafter(scale, 0.0)

    # round half away from zero: add half a step, clamp, and the int8 cast truncates toward zero
    q = a / scale
    q += np.copysign(0.5, q)
    np.clip(q, -127, 127, out=q)
    return QuantizedTensor(q.astype(np.int8), scale)


def dequantize(q: QuantizedTensor) -> Matrix:
    return q.values.astype(np.float64) * q.scale


def quantize_params(p: ParamSet) -> list[tuple[str, QuantizedTensor]]:
    """Quantize every tensor of a ParamSet in canonical order."""
    return [(name, quantize_tensor(arr)) for name, arr in iter_params(p)]


def _check_layout(who: str, cfg: ModelConfig, quantized: list[tuple[str, QuantizedTensor]]) -> None:
    """Refuse `quantized` unless it holds cfg's tensors: each name and shape, in canonical order.

    The count goes first, so no longer config is laid out; the layout comes from the config
    alone (`param_shapes`) and builds no arrays."""
    if len(quantized) != param_tensor_count(cfg) or any(
            (name, qt.values.shape) != layout for (name, qt), layout in zip(quantized, param_shapes(cfg))):
        raise ValueError(f"{who}: tensors do not match the canonical layout")


def dequantize_params(p: ParamSet, quantized: list[tuple[str, QuantizedTensor]]) -> ParamSet:
    """Rebuild float64 params shaped like `p` from quantized tensors."""
    _check_layout("dequantize_params", p.cfg, quantized)
    theta, at = np.empty(p.theta.size), 0
    for _, qt in quantized:
        # the same products as dequantize(qt), written in place
        np.multiply(qt.values, qt.scale, out=theta[at: at + qt.values.size].reshape(qt.values.shape))
        at += qt.values.size
    return p.with_theta(_freeze(theta))


def quantized_memory_bytes(cfg: ModelConfig) -> int:
    """Storage cost of the fully int8-quantized model: the v2 payload size.

    One byte per parameter plus eight bytes per tensor for its scale.
    """
    return param_count(cfg) + 8 * param_tensor_count(cfg)


def quantize_report(p: ParamSet, quantized: list[tuple[str, QuantizedTensor]]) -> CompressionReport:
    """The report of `quantize_params(p)`; dequantized values are 0 exactly where int8 ones are."""
    restored = dequantize_params(p, quantized)
    report = _report("quantize", p, restored, float(abs(p.theta - restored.theta).max()))
    return replace(report, bytes_after=quantized_memory_bytes(p.cfg))
