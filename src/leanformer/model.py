"""Slimmed-down transformer encoder.

The stack is deliberately bare: token + learned position embeddings, then
per layer multi-head self-attention followed by a two-matrix feed-forward
block, with no residual connections, no layer normalization and (by
default) no biases. The output projection reuses the transposed token
embedding, so it adds no parameters. This is exactly the structure whose
parameter count the profiler reproduces byte-for-byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .numerics import Matrix, matmul, relu, rng_uniform_array, softmax_rows

INIT_LO = -0.05
INIT_HI = 0.05

# finite-differencing every parameter is quadratic-ish; keep it honest
GRAD_CHECK_MAX_PARAMS = 2000

# grad_check's pass bound on the relative error, and its floor's constant c,
# the loss's rounding in ulps. A central difference of a loss L computed to
# relative accuracy eps_f carries a rounding error of about eps_f |L| / eps
# (Press et al., Numerical Recipes, section 5.7), so it resolves a relative
# error of 1e-4 only in gradients above eps_f |L| / eps / 1e-4: below that
# the relative error divides rounding by rounding. The loss, a mean of
# log-sum-exps over the tied logits, is a few roundings deep, so eps_f is
# some ulps: c = 8, three bits. At eps 1e-5 the most measured over seeds
# 0-149 of the grad-checked one-layer configs was 0.7 ulps, so rounding
# alone moves a gradient at the floor by under 1e-5 relative
GRAD_CHECK_BOUND = 1e-4
_LOSS_ROUNDING_ULPS = 8


@dataclass(frozen=True)
class ModelConfig:
    """All hyperparameters of one encoder instance.

    `head_dim` and `layer_heads` are only ever set on structurally pruned
    models (see the compression passes); freshly built configs leave them
    at None, meaning every layer runs `n_heads` heads of width
    `d_model // n_heads`.
    """

    vocab_size: int
    max_seq_len: int
    d_model: int
    n_heads: int
    d_ff: int
    n_layers: int
    use_bias: bool = False
    head_dim: int | None = None
    layer_heads: tuple[int, ...] | None = None

    def __post_init__(self):
        # one pass over the fields by annotation: a config holds only what header JSON carries
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "bool":
                if type(value) is not bool:
                    raise ValueError(f"ModelConfig: {f.name} must be a boolean, got {value!r}")
                continue
            if value is None and f.default is None:  # not structurally pruned
                continue
            many = f.type.startswith("tuple")  # layer_heads: one count per layer
            kind = "a tuple of integers" if many else "an integer"
            if many and type(value) is not tuple:
                raise ValueError(f"ModelConfig: {f.name} must be {kind}, got {value!r}")
            least = 0 if f.name == "n_layers" else 1
            for count in value if many else (value,):
                if type(count) is not int:
                    raise ValueError(f"ModelConfig: {f.name} must be {kind}, got {value!r}")
                if count < least:
                    what = f"every {f.name} entry" if many else f.name
                    raise ValueError(f"ModelConfig: {what} must be >= {least}, got {value!r}")
        if self.head_dim is None and self.d_model % self.n_heads != 0:
            raise ValueError(f"ModelConfig: n_heads ({self.n_heads}) must divide d_model ({self.d_model})")
        if self.layer_heads is not None and len(self.layer_heads) != self.n_layers:
            raise ValueError(f"ModelConfig: layer_heads has {len(self.layer_heads)} entries "
                             f"for {self.n_layers} layers")

    @property
    def head_width(self) -> int:
        return self.head_dim if self.head_dim is not None else self.d_model // self.n_heads

    def heads_in_layer(self, layer: int) -> int:
        if not 0 <= layer < self.n_layers:
            raise ValueError(f"layer index {layer} out of range [0, {self.n_layers})")
        return self.layer_heads[layer] if self.layer_heads is not None else self.n_heads

    def attn_width(self, layer: int) -> int:
        """Width of the Q/K/V projections in `layer` (equals d_model unless pruned)."""
        return self.heads_in_layer(layer) * self.head_width


# Shipped configurations. The two paper-* presets are the exhaustive-search
# reconstruction of the published 140,288 / 67,072 parameter pair; `tiny`
# is small enough to finite-difference and `small` is a quick training demo.
PRESETS: dict[str, ModelConfig] = {
    "paper-baseline": ModelConfig(vocab_size=3990, max_seq_len=10, d_model=32,
                                  n_heads=8, d_ff=128, n_layers=1),
    "paper-reduced": ModelConfig(vocab_size=3990, max_seq_len=10, d_model=16,
                                 n_heads=4, d_ff=64, n_layers=1),
    "tiny": ModelConfig(vocab_size=11, max_seq_len=4, d_model=4,
                        n_heads=2, d_ff=8, n_layers=1),
    "small": ModelConfig(vocab_size=50, max_seq_len=10, d_model=16,
                         n_heads=4, d_ff=64, n_layers=1),
}


@dataclass(frozen=True)
class LayerParams:
    """One layer's weights, each followed by its bias (None without biases), in canonical order."""

    wq: Matrix
    bq: np.ndarray | None
    wk: Matrix
    bk: np.ndarray | None
    wv: Matrix
    bv: np.ndarray | None
    wo: Matrix
    bo: np.ndarray | None
    w1: Matrix
    b1: np.ndarray | None
    w2: Matrix
    b2: np.ndarray | None


def _weight_shapes(cfg: ModelConfig, layer: int) -> tuple[tuple[int, int], ...]:
    """(rows, cols) of `layer`'s six weights in `LayerParams` order; each bias is `cols` long."""
    d, f, w = cfg.d_model, cfg.d_ff, cfg.attn_width(layer)
    return (d, w), (d, w), (d, w), (w, d), (d, f), (f, d)


@dataclass(frozen=True, eq=False)
class ParamSet:
    """Every parameter of one model instance in one flat vector `theta`.

    `cfg`'s tensors lie in theta back to back, row-major, in canonical order:
    tok_emb, pos_emb, then each layer's in `LayerParams` field order. Embedding
    views are made on construction, layer views on the first read of `layers`,
    so code that touches only theta builds none. Views share theta's writeability:
    gradients are written through them; every theta the package hands out is frozen.
    """

    theta: np.ndarray
    cfg: ModelConfig
    tok_emb: Matrix = field(init=False, repr=False)
    pos_emb: Matrix = field(init=False, repr=False)

    def __post_init__(self):
        theta = np.ascontiguousarray(self.theta)
        cfg = self.cfg
        size = param_count(cfg)
        if theta.shape != (size,):
            raise ValueError(f"ParamSet: theta has shape {theta.shape}, layout needs ({size},)")
        d = cfg.d_model
        emb = cfg.vocab_size * d
        pos = emb + cfg.max_seq_len * d
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "tok_emb", theta[:emb].reshape(cfg.vocab_size, d))
        object.__setattr__(self, "pos_emb", theta[emb:pos].reshape(cfg.max_seq_len, d))

    @cached_property
    def layers(self) -> list[LayerParams]:
        theta, cfg = self.theta, self.cfg
        bias = cfg.use_bias
        pos = self.tok_emb.size + self.pos_emb.size
        layers = []
        for i in range(cfg.n_layers):
            views = []
            # each weight, then the bias that adds to its output columns
            for rows, cols in _weight_shapes(cfg, i):
                end = pos + rows * cols
                views += theta[pos:end].reshape(rows, cols), theta[end:end + cols] if bias else None
                pos = end + cols * bias
            layers.append(LayerParams(*views))
        return layers

    def with_theta(self, theta: np.ndarray) -> ParamSet:
        """The same config over another vector."""
        return ParamSet(theta, self.cfg)


def iter_params(p: ParamSet) -> Iterator[tuple[str, np.ndarray]]:
    """Yield (name, view) in canonical order, biases only when present."""
    yield "tok_emb", p.tok_emb
    yield "pos_emb", p.pos_emb
    for i, lay in enumerate(p.layers):
        for name, arr in vars(lay).items():
            if arr is not None:
                yield f"layers.{i}.{name}", arr


def param_sizes(cfg: ModelConfig) -> Iterator[tuple[str, int]]:
    """Yield (name, element count) of each tensor `iter_params` yields, from `cfg` alone: no arrays."""
    yield "tok_emb", cfg.vocab_size * cfg.d_model
    yield "pos_emb", cfg.max_seq_len * cfg.d_model
    names = [f.name for f in fields(LayerParams)]
    for i in range(cfg.n_layers):
        for (rows, cols), weight, bias in zip(_weight_shapes(cfg, i), names[::2], names[1::2]):
            yield f"layers.{i}.{weight}", rows * cols
            if cfg.use_bias:
                yield f"layers.{i}.{bias}", cols


def param_count_enumerated(p: ParamSet) -> int:
    """Element count summed over every stored array; the counting oracle."""
    return sum(arr.size for _, arr in iter_params(p))


def param_count(cfg: ModelConfig) -> int:
    """Closed-form parameter count; must agree with enumeration exactly.

    (V+S)*d for the embeddings, then 4*d*W + 2*d*f*L where W is the summed
    attention width of the L layers (W == L*d unless heads were pruned),
    plus 3*W + (d + f + d)*L bias elements when biases are enabled. No
    term loops over layers unless `layer_heads` lists them.
    """
    d, f, n_layers = cfg.d_model, cfg.d_ff, cfg.n_layers
    heads = sum(cfg.layer_heads) if cfg.layer_heads is not None else cfg.n_heads * n_layers
    width = heads * cfg.head_width
    n = (cfg.vocab_size + cfg.max_seq_len) * d + 4 * d * width + 2 * d * f * n_layers
    if cfg.use_bias:
        n += 3 * width + (d + f + d) * n_layers
    return n


def param_tensor_count(cfg: ModelConfig) -> int:
    """The number of tensors `iter_params` yields, without building a ParamSet.

    Two embeddings, then six weights per layer, each followed by its bias
    when biases are enabled.
    """
    return 2 + cfg.n_layers * (12 if cfg.use_bias else 6)


def _check_config(who: str, cfg: ModelConfig, p: ParamSet) -> None:
    if cfg != p.cfg:
        raise ValueError(f"{who}: config {cfg} does not describe params built for {p.cfg}")


def _freeze(theta: np.ndarray) -> np.ndarray:
    # parameters are immutable by contract; make accidental writes loud
    theta.flags.writeable = False
    return theta


def _init_uniform(cfg: ModelConfig, seed: int, lo: float, hi: float) -> ParamSet:
    theta = np.zeros(param_count(cfg))
    # views of a read-only alias stay read-only; the weights are written through theta itself
    p = ParamSet(_freeze(theta.view()), cfg)
    tensors = [arr for _, arr in iter_params(p)]
    is_weight = np.repeat([arr.ndim == 2 for arr in tensors], [arr.size for arr in tensors])
    theta[is_weight] = rng_uniform_array(seed, (int(is_weight.sum()),), lo, hi)
    _freeze(theta)
    return p


def init_params(cfg: ModelConfig, seed: int) -> ParamSet:
    """Fill every weight matrix from one SplitMix64 stream, uniform in [-0.05, 0.05).

    Matrices are filled row-major in canonical order; biases start at zero
    and draw nothing from the stream. Deterministic given (cfg, seed).
    """
    return _init_uniform(cfg, seed, INIT_LO, INIT_HI)


def _id_array(who: str, what: str, rows: Sequence) -> np.ndarray:
    """`rows` as one int64 array; mixed row lengths or non-integer ids are a ValueError naming `who`."""
    try:
        ids = np.asarray(rows)
    except ValueError as exc:
        raise ValueError(f"{who}: {what} must be one (sequences, n) array: {exc}") from None
    # an empty list reads as float64; the caller's emptiness check names it
    if ids.size and not np.issubdtype(ids.dtype, np.integer):
        raise ValueError(f"{who}: {what} must hold integer ids, got dtype {ids.dtype}")
    if ids.dtype.kind == "u":
        # the cast below would wrap unsigned ids of 2**63 and above to negative ones
        over = ids[ids > np.iinfo(np.int64).max]
        if over.size:
            raise ValueError(f"{who}: id {int(over[0])} in {what} is outside the int64 range")
    return ids.astype(np.int64, copy=False)


def embed(p: ParamSet, tokens: Sequence) -> np.ndarray:
    """Token plus learned position embedding, row per position, of ids shaped (n,) or (sequences, n)."""
    ids = _id_array("embed", "tokens", tokens)
    if ids.ndim not in (1, 2) or ids.size < 1:
        raise ValueError("embed: need a non-empty sequence or (sequences, n) array of token ids")
    max_len, vocab, n = p.pos_emb.shape[0], p.tok_emb.shape[0], ids.shape[-1]
    if n > max_len:
        raise ValueError(f"embed: sequence length {n} exceeds max_seq_len {max_len}")
    bad = np.argwhere((ids < 0) | (ids >= vocab))
    if bad.size:
        *seq, i = bad[0]
        where = f"position {i}" + "".join(f" of sequence {s}" for s in seq)
        raise ValueError(f"embed: token id {int(ids[tuple(bad[0])])} at {where} outside [0, {vocab})")
    return p.tok_emb[ids] + p.pos_emb[:n]


@dataclass
class AttentionTrace:
    q: np.ndarray  # (..., n, width), as are k and v; "..." is the input's stack shape
    k: np.ndarray
    v: np.ndarray
    weights: np.ndarray  # (heads, ..., n, n): weights[h] is head h's C-contiguous block


@dataclass
class Checkpoints:
    """What a traced forward keeps for the backward, no stage's internals; `outputs[-1]` feeds the output stage."""

    ids: np.ndarray  # the checked (sequences, n) token ids
    outputs: list[np.ndarray]  # each layer's (sequences, n, d) output in order; without layers, the embedded rows


def _linear(x: np.ndarray, w: Matrix, b: np.ndarray | None) -> np.ndarray:
    """The affine map `x W + b` as one `matmul`; the bias, if any, is added in the fresh product."""
    y = matmul(x, w)
    if b is not None:
        y += b
    return y


def _linear_backward(x: Matrix, w: Matrix, g_w: Matrix, g_b: np.ndarray | None, dy: Matrix,
                     out: Matrix | None = None) -> Matrix:
    """Backward of `_linear` over (rows, ·) `x` and `dy`: adds into `g_w` (and `g_b`), returns dx.

    dx is written into `out` if given, which may be `x` itself: `x` is read before it.
    """
    g_w += x.T @ dy
    if g_b is not None:
        g_b += dy.sum(axis=0)
    return np.matmul(dy, w.T, out=out)


def _layer(who: str, p: ParamSet, layer: int) -> tuple[LayerParams, int]:
    """Layer `layer`'s weights and head count; a ValueError naming `who` unless 0 <= layer < n_layers."""
    try:
        heads = p.cfg.heads_in_layer(layer)
    except ValueError as exc:
        raise ValueError(f"{who}: {exc}") from None
    return p.layers[layer], heads


def attention_forward(
    p: ParamSet, layer: int, x: Matrix, heads: int
) -> tuple[Matrix, AttentionTrace]:
    """Bidirectional multi-head self-attention (no masking) over `x`, (..., n, d).

    Q, K, V are split column-wise into `heads` blocks; each block attends
    with scores scaled by 1/sqrt(head width), and the concatenated head
    outputs go through the output projection. Leading axes are independent
    sequences: each slice's result is the 2-D call's on that slice, bit for bit.
    The weights are head-major, (heads, ..., n, n): head h's softmax runs in its block weights[h].
    """
    lay, own = _layer("attention_forward", p, layer)
    d = lay.wq.shape[0]
    if x.ndim < 2 or x.shape[-1] != d:
        raise ValueError(f"attention_forward: input shape {tuple(x.shape)} does not match d_model {d}")
    if heads != own:
        raise ValueError(f"attention_forward: layer {layer} has {own} heads, not {heads}")
    dh = lay.wq.shape[1] // heads

    q, k, v = _linear(x, lay.wq, lay.bq), _linear(x, lay.wk, lay.bk), _linear(x, lay.wv, lay.bv)

    scale = 1.0 / math.sqrt(dh)
    n = x.shape[-2]
    weights = np.empty((heads, *x.shape[:-2], n, n))
    concat = np.empty(q.shape)
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        a = matmul(q[..., cols], k[..., cols].swapaxes(-1, -2), out=weights[h])
        a *= scale
        softmax_rows(a, out=a)
        matmul(a, v[..., cols], out=concat[..., cols])
    return _linear(concat, lay.wo, lay.bo), AttentionTrace(q=q, k=k, v=v, weights=weights)


def _ffn_hidden(p: ParamSet, layer: int, x: Matrix) -> Matrix:
    """The feed-forward block's hidden layer relu(x W1 + b1)."""
    lay, _ = _layer("ffn_forward", p, layer)
    if x.ndim < 2 or x.shape[-1] != lay.w1.shape[0]:
        raise ValueError(f"ffn_forward: input shape {tuple(x.shape)} does not match d_model {lay.w1.shape[0]}")
    # the rectifier works in the fresh product: no second array of the batch's size
    hidden = _linear(x, lay.w1, lay.b1)
    return relu(hidden, out=hidden)


def ffn_forward(p: ParamSet, layer: int, x: Matrix) -> Matrix:
    """Position-wise feed-forward block: relu(x W1 + b1) W2 + b2."""
    hidden = _ffn_hidden(p, layer, x)
    lay = p.layers[layer]
    return _linear(hidden, lay.w2, lay.b2)


# The one byte budget of a training step's chunks: the output stage takes
# the tied logits and their cross-entropy, and the backward recomputes and
# differentiates each layer, this many bytes' worth of whole sequences at a
# time, and at least one sequence. 640 KiB holds two sequences of logits
# of the paper presets at n = 10
STEP_CHUNK_BYTES = 5 << 17


def _chunk_sequences(b: int, sequence_bytes: int) -> int:
    """The most whole sequences of `sequence_bytes` each within STEP_CHUNK_BYTES: 1 to `b`."""
    return min(b, max(1, STEP_CHUNK_BYTES // sequence_bytes))


def _layer_sequence_bytes(cfg: ModelConfig, layer: int, n: int) -> int:
    """Bytes one sequence of n positions adds to `_layer_backward`'s peak on `layer`.

    It sizes the layer's chunks, in the forward (which holds less) and in
    the backward: the larger of two steps of the backward, plus layer 0's
    re-embedded input. The FFN step holds the recomputed q, k, v, attention
    weights, attention output and FFN hidden layer and the rectifier's mask.
    The attention step holds q, k, v, the weights and dO, which is written
    over the recomputed head outputs, beside either dy or one head's dA, the
    product dA * A and its row sums; the recompute's softmax works in A.
    """
    d, f, w, heads = cfg.d_model, cfg.d_ff, cfg.attn_width(layer), cfg.heads_in_layer(layer)
    scores = heads * n * n
    peak = max(8 * (3 * n * w + scores + n * (d + f)) + n * f,  # the rectifier's bool mask beside all six
               8 * (4 * n * w + scores + max(n * d, 2 * n * n + n)))  # q, k, v, A, dO beside dy or one head's dA
    return peak + (8 * n * d if layer == 0 else 0)


def model_forward(
    p: ParamSet, cfg: ModelConfig, batch: Sequence[Sequence[int]], *, trace: bool = False
) -> tuple[np.ndarray | None, Checkpoints | None]:
    """Run the full encoder over a (sequences, n) batch of token ids.

    Untraced (inference), returns the logits as one C-contiguous
    (sequences, n, vocab) array and None. With `trace` (the checkpoint
    forward of `loss_and_grads` and `batch_loss`), stops after the last
    layer and returns None and the batch's Checkpoints: the checked ids and
    each layer's output, and no logits, q, k, v, attention weights or FFN
    hidden layer, which later stages take a chunk at a time. Layers compose as
    x <- ffn(attention(x)) with no residual paths; the logits are x against
    the transposed token embedding. The whole batch passes `embed`'s checks
    first. Both passes run one loop over the layers, which hands each
    layer's stages one choice of rows at a time. Untraced, the rows are each
    sequence, an (n, d) matrix, whose output is written back over its own
    embedded rows, which the logits read. Traced, they are (sequences, n, d)
    stacks sized by STEP_CHUNK_BYTES, the chunks the backward recomputes;
    layer 0 writes over the embedded rows and each later layer into a fresh
    array, so each layer's output, its checkpoint, is one array of its own;
    a layerless model's one checkpoint is its embedded rows.

    Untraced, each sequence's logits are one product against a (d, vocab)
    right operand. BLAS packs a C-contiguous one much faster than the
    strided view tok_emb^T, and a copy of it fits in the rows of the first
    s = ceil(d / n) sequences of the fresh logits, so it adds no bytes.
    With b >= 3s sequences the forward copies tok_emb^T there, runs
    sequences b-1 down to s against the copy, then sequences 0 to s-1
    against the strided view itself, overwriting the copy last. Below 3s
    the copy costs more than it saves (at n = 10 the paper-baseline forward
    breaks even near b = 12-14, paper-reduced near b = 4) and every
    sequence reads the strided view.
    """
    _check_config("model_forward", cfg, p)
    ids = _id_array("model_forward", "batch", batch)
    if ids.ndim != 2 or len(ids) == 0:
        raise ValueError("model_forward: batch must be a non-empty (sequences, n) array of token ids")
    b, n = ids.shape
    x, outputs = embed(p, ids), []
    for layer in range(cfg.n_layers):
        if trace:
            per = _chunk_sequences(b, _layer_sequence_bytes(cfg, layer, n))
            # layer 0's input is no checkpoint: the backward embeds its ids again
            rows, out = [slice(s, s + per) for s in range(0, b, per)], np.empty_like(x) if layer else x
            outputs.append(out)
        else:
            rows, out = range(b), x
        heads = cfg.heads_in_layer(layer)
        for r in rows:
            out[r] = ffn_forward(p, layer, attention_forward(p, layer, x[r], heads)[0])
        x = out
        del rows  # so the untraced pass holds nothing of the loop's beside its logits
    if trace:
        return None, Checkpoints(ids=ids, outputs=outputs or [x])
    # after the layers: each sequence's product streams all of tok_emb, evicting the layer weights
    logits = np.empty((*ids.shape, p.tok_emb.shape[0]))
    held = -(-cfg.d_model // n)  # the first sequences, whose logit rows hold tok_emb^T
    if b >= 3 * held:
        emb_t = logits.reshape(-1)[:p.tok_emb.size].reshape(p.tok_emb.shape[::-1])
        emb_t[...] = p.tok_emb.T
        for s in reversed(range(held, b)):
            matmul(x[s], emb_t, out=logits[s])
    else:
        held = b
    for s in range(held):
        matmul(x[s], p.tok_emb.T, out=logits[s])
    return logits, None


def _target_ids(who: str, targets: Sequence, shape: tuple[int, ...], vocab: int) -> np.ndarray:
    """The target ids, flattened, checked against the logits' `shape` and the vocabulary."""
    ids = _id_array(who, "targets", targets)
    if ids.shape != shape:
        raise ValueError(f"{who}: targets of shape {ids.shape} for positions of shape {shape}")
    ids = ids.ravel()
    bad = (ids < 0) | (ids >= vocab)
    if bad.any():
        raise ValueError(f"{who}: target id {int(ids[np.argmax(bad)])} outside [0, {vocab})")
    return ids


def batch_loss(
    p: ParamSet,
    cfg: ModelConfig,
    batch: Sequence[Sequence[int]],
    targets: Sequence[Sequence[int]],
) -> float:
    """Mean cross-entropy over every position in the batch: `loss_and_grads`' pass with no gradient."""
    _, checkpoints = model_forward(p, cfg, batch, trace=True)
    targets = _target_ids("batch_loss", targets, checkpoints.ids.shape, p.tok_emb.shape[0])
    x = checkpoints.outputs[-1]
    del checkpoints  # the loss reads only the last checkpoint
    return _output_backward(p, x, targets, None)[0]


# rows of tok_emb's gradient that a chunk adds per product: a block's
# (rows, d) share is added while still in cache, where a whole (vocab, d)
# one would be written out and read back for every chunk. One share is held
# beside a chunk of logits at the output stage's peak: 256 rows hold it to
# 65,536 B at d = 32
_TOK_EMB_GRAD_BLOCK = 256

# vocabulary rows of a chunk's (vocab, rows) logits that the output stage
# takes at once, a multiple of _TOK_EMB_GRAD_BLOCK: each block of the logits
# is one product, and both tied gradients read each block of the
# exponentials, tok_emb's share first and then the gradient at x's partial
# product, while it is still in cache. A vocabulary of at most this many is
# one block
_VOCAB_BLOCK = 1024

# the output stage takes exp of the logits as they are, with no max
# subtracted, while max|x|^2 * max|tok_emb|^2, over the rows' norms, is below
# this limit squared. Then every logit lies in (-300, 300) and each
# exponential in [e^-300, e^300] ~ [5e-131, 2e130], normal (exp overflows
# past 709.78). Each squared norm is finite too, so each norm is below
# sqrt(1.8e308) ~ 1.3e154: a column sum is at most V e^300, its scale
# 1 / (sum * N) at most e^300, the scaled rows x / (sum * N) below 2.6e284
# and each partial product with tok_emb's rows below V * 2.6e284, all finite
# for any vocabulary below 6e23. A squared norm past float64's range reads
# inf and a NaN reads NaN, and either takes the shifted path
_SHIFT_FREE_LIMIT = 300.0


def _largest_square_norm(m: Matrix) -> float:
    """The largest squared row norm of `m`, inf past float64's range; NaN propagates."""
    return float(np.einsum("ij,ij->i", m, m).max())


def _output_backward(
    p: ParamSet, x: np.ndarray, ids: np.ndarray, g_tok_emb: Matrix | None
) -> tuple[float, np.ndarray]:
    """Mean loss and its gradient at `x`, the last (sequences, n, d) output, which it consumes.

    The tied logits and their cross-entropy (exp, column sum; a position's
    term log(sum) - logit[target] goes into the batch's terms, summed once)
    run one chunk of whole sequences at a time (STEP_CHUNK_BYTES of logits).
    A chunk's logits are vocabulary-major: one reused buffer holds them as a
    C-contiguous (vocab, rows) block, filled by one product per _VOCAB_BLOCK
    rows of tok_emb against a C-contiguous (d, rows) copy of the chunk, and
    left holding the unnormalised exponentials. While the bound
    max|x| * max|tok_emb| on every logit, over the rows' norms, rules out
    overflow (_SHIFT_FREE_LIMIT) the logits are exponentiated as they are;
    past it each column's max is subtracted first. `g_tok_emb` None means the loss
    alone, and `x` is returned as it was. Otherwise the logit gradient
    (softmax - onehot) / positions is never written out. The one-hot share
    of the output projection's gradient, x / positions at the target rows,
    is subtracted from `g_tok_emb` once, for the whole batch, before the
    first chunk. Then each chunk scales its rows of `x` by
    1 / (sum * positions), the last read of those rows, and walks the
    exponentials in blocks of _VOCAB_BLOCK: each block adds its softmax
    share to `g_tok_emb`, _TOK_EMB_GRAD_BLOCK rows at a time, then its
    partial product with its rows of tok_emb to the gradient at the chunk's
    rows, which the first block writes over those rows of `x`. The returned
    (sequences, n, d) gradient is `x` itself, so `x` must be C-contiguous
    and the caller's to give up.
    """
    b, n, d = x.shape
    vocab = p.tok_emb.shape[0]
    flat = x.reshape(-1, d)  # a view: x is contiguous
    shift = not (_largest_square_norm(flat) * _largest_square_norm(p.tok_emb) < _SHIFT_FREE_LIMIT ** 2)
    if g_tok_emb is not None:
        np.subtract.at(g_tok_emb, ids, flat / ids.size)  # ids repeat
    step = _chunk_sequences(b, 8 * n * vocab) * n
    buf = np.empty(step * vocab)
    terms = np.empty(ids.size)
    for s in range(0, ids.size, step):
        rows = slice(s, s + step)
        chunk, target = flat[rows], ids[rows]
        z, ct = buf[:vocab * len(chunk)].reshape(vocab, -1), np.ascontiguousarray(chunk.T)
        for v in range(0, vocab, _VOCAB_BLOCK):
            matmul(p.tok_emb[v:v + _VOCAB_BLOCK], ct, out=z[v:v + _VOCAB_BLOCK])
        del ct
        if shift:
            z -= z.max(axis=0)
        terms[rows] = z[target, np.arange(target.size)]
        np.exp(z, out=z)
        colsum = np.einsum("ij->j", z)
        terms[rows] = np.log(colsum) - terms[rows]
        if g_tok_emb is None:
            continue
        # the logit gradient is exp * r - onehot / N, r = 1 / (sum * N); it is
        # linear in exp, so r scales the (rows, d) factors, not the logit block
        r = (1.0 / (colsum * ids.size))[:, None]
        xr = chunk * r  # the chunk's last read of its rows of x
        for v in range(0, vocab, _VOCAB_BLOCK):
            end = min(v + _VOCAB_BLOCK, vocab)
            for u in range(v, end, _TOK_EMB_GRAD_BLOCK):
                g_tok_emb[u:u + _TOK_EMB_GRAD_BLOCK] += z[u:u + _TOK_EMB_GRAD_BLOCK] @ xr
            if v:
                chunk += z[v:end].T @ p.tok_emb[v:end]
            else:  # over the rows xr has read
                np.matmul(z[v:end].T, p.tok_emb[v:end], out=chunk)
        del xr
        chunk *= r
        onehot = p.tok_emb[target]
        onehot /= ids.size
        chunk -= onehot
        del onehot, colsum, r  # before the next chunk's rows
    return float(np.sum(terms)) / ids.size, x


def _layer_backward(p: ParamSet, g: LayerParams, layer: int, x: np.ndarray, dx: np.ndarray) -> None:
    """Recompute `layer` on a chunk of sequences and differentiate it: adds into `g`, writes over `dx`.

    `x` is the chunk's (sequences, n, d) input and `dx` the gradient at the
    layer's output, a C-contiguous (sequences, n, d) block, worked on as
    rows; the gradient at `x` is written over `dx`, which the FFN backward
    has read for the last time.
    The stages run as in the forward, so the recomputed arrays have the
    forward's bits; the FFN output, which no backward reads, is not
    recomputed. Attention is differentiated on the forward's head blocks:
    head h is the column block c = h*dh:(h+1)*dh of the (sequences, n, w)
    q, k, v and head outputs, with weights a[h]. Each gradient is written
    over an array that is read for the last time: the ones at the FFN hidden
    layer and at the attention output over them, dO over the recomputed head
    outputs, and each head's dV over v[..., c], its dQ over dO[..., c] and
    its dK over k[..., c]. So the input-gradient products read the
    gradients at q, k and v as rows of those buffers, and no gradient takes
    an array of its own. Each array is released after its last reader.
    """
    lay, heads = p.layers[layer], p.cfg.heads_in_layer(layer)
    y, attn = attention_forward(p, layer, x, heads)
    hidden = _ffn_hidden(p, layer, y)
    q, k, v, a = attn.q, attn.k, attn.v, attn.weights
    del attn

    # feed-forward: out = relu(y W1 + b1) W2 + b2; the gradients at the
    # hidden layer and at y are written over them once they are read
    x, hidden, y, dx = (m.reshape(-1, m.shape[-1]) for m in (x, hidden, y, dx))
    dead = hidden <= 0
    dz = _linear_backward(hidden, lay.w2, g.w2, g.b2, dx, out=hidden)
    del hidden
    # zero the gradient at the rectifier's dead units in place: no float copy of a mask
    np.multiply(dz, 0.0, out=dz, where=dead)
    del dead
    dy = _linear_backward(y, lay.w1, g.w1, g.b1, dz, out=y)
    del dz, y

    # attention: y = concat(heads) @ Wo + bo, head h's block softmax(q_h k_h^T s) v_h
    w = q.shape[-1]
    dh = w // heads
    blocks = [slice(h * dh, (h + 1) * dh) for h in range(heads)]
    d_out = np.empty_like(q)
    for h, c in enumerate(blocks):
        np.matmul(a[h], v[..., c], out=d_out[..., c])  # the forward's head output
    _linear_backward(d_out.reshape(-1, w), lay.wo, g.wo, g.bo, dy, out=d_out.reshape(-1, w))
    del dy
    for h, c in enumerate(blocks):
        da = d_out[..., c] @ v[..., c].swapaxes(1, 2)
        np.matmul(a[h].swapaxes(1, 2), d_out[..., c], out=v[..., c])  # dV
        # softmax rows, in place in dA: dS = (dA - rowsum(dA * A)) * A
        da -= (da * a[h]).sum(axis=-1, keepdims=True)
        da *= a[h]
        np.matmul(da, k[..., c], out=d_out[..., c])  # dQ / s
        np.matmul(da.swapaxes(1, 2), q[..., c], out=k[..., c])  # dK / s
    del a, q, da
    s = 1.0 / math.sqrt(dh)
    d_out *= s
    k *= s

    # (q-term + k-term) + v-term
    _linear_backward(x, lay.wq, g.wq, g.bq, d_out.reshape(-1, w), out=dx)
    del d_out
    dx += _linear_backward(x, lay.wk, g.wk, g.bk, k.reshape(-1, w))
    del k
    dx += _linear_backward(x, lay.wv, g.wv, g.bv, v.reshape(-1, w))


def loss_and_grads(
    p: ParamSet,
    cfg: ModelConfig,
    batch: Sequence[Sequence[int]],
    targets: Sequence[Sequence[int]],
) -> tuple[float, ParamSet]:
    """Batch loss and its full gradient via reverse-mode differentiation.

    The loss is the mean cross-entropy over every position in the batch;
    gradients carry the same averaging. The tied output projection sends
    gradient into tok_emb from both the logit matmul and the lookup.

    Checkpointed reverse mode (Chen et al. 2016) over whole sequences,
    which are independent in this model. In order: one checkpoint
    `model_forward` (trace=True), which keeps the checked ids and each
    layer's output; then the gradient vector is allocated; the output stage
    takes the logits, the loss and their gradient a chunk of sequences at a
    time, and writes the gradient at the last checkpoint, dx, over that
    checkpoint, a (sequences, n, d) array; then each layer, from the top
    down, is recomputed from its input checkpoint (layer 0 embeds its
    chunk's ids again) and differentiated a chunk of sequences at a time,
    each chunk writing the gradient at its input over its sequences of dx,
    and each checkpoint is dropped once its layer is done; the embedding
    gradients are added from dx as it stands, by token id and by position.
    Every chunk holds at most STEP_CHUNK_BYTES' worth of whole sequences, so
    the peak is the gradient, the checkpoints and one chunk. The recompute
    runs the forward's stage calls on the same chunks, so it has the
    forward's bits; `batch_loss` is the same pass with no gradient.
    """
    _, checkpoints = model_forward(p, cfg, batch, trace=True)
    ids, outputs = checkpoints.ids, checkpoints.outputs
    b, n = ids.shape
    targets = _target_ids("loss_and_grads", targets, ids.shape, p.tok_emb.shape[0])
    grads = p.with_theta(np.zeros_like(p.theta))
    # dx is the last checkpoint's own buffer
    loss, dx = _output_backward(p, outputs.pop(), targets, grads.tok_emb)

    for layer in reversed(range(cfg.n_layers)):
        x = outputs.pop() if layer else None
        per = _chunk_sequences(b, _layer_sequence_bytes(cfg, layer, n))
        for s in range(0, b, per):
            chunk = x[s:s + per] if layer else embed(p, ids[s:s + per])
            _layer_backward(p, grads.layers[layer], layer, chunk, dx[s:s + per])
        del chunk  # a view: x dies when the next layer's input replaces it

    # embedding lookup: a row of tok_emb per token id, of pos_emb per position
    np.add.at(grads.tok_emb, ids, dx)
    grads.pos_emb[:n] += dx.sum(axis=0)
    return loss, grads


def _check_finite(p: ParamSet, what: str) -> None:
    """Raise ValueError "<what> <name> is not finite" for the first tensor holding a NaN or an inf."""
    # min and max propagate NaN and reach any infinity, with no temporary the size of theta
    if math.isfinite(p.theta.min()) and math.isfinite(p.theta.max()):
        return
    name = next(name for name, arr in iter_params(p) if not np.isfinite(arr).all())
    raise ValueError(f"{what} {name} is not finite")


def train_step(
    p: ParamSet,
    cfg: ModelConfig,
    batch: Sequence[Sequence[int]],
    targets: Sequence[Sequence[int]],
    lr: float,
) -> tuple[ParamSet, float]:
    """One plain gradient-descent step; returns the new params and pre-update loss.

    Raises ValueError when the loss or any gradient is not finite, naming
    the first parameter whose gradient is not, before anything is updated.
    The update is written into the gradient's own vector, which becomes the
    new (frozen) theta: `-lr * g + theta` is `theta - lr * g` bit for bit, and
    no third theta-sized array is made. `p` is left as it was; with `lr` 0
    it is returned itself.
    """
    if not 0 <= lr < math.inf:
        raise ValueError(f"train_step: learning rate must be finite and >= 0, got {lr}")
    loss, grads = loss_and_grads(p, cfg, batch, targets)
    if not math.isfinite(loss):
        raise ValueError(f"train_step: loss is {loss}, not finite")
    _check_finite(grads, "train_step: gradient of")
    if lr == 0:
        return p, loss

    g = grads.theta
    g *= -lr
    g += p.theta
    return p.with_theta(_freeze(g)), loss


def synth_copy_batch(
    seed: int, batch_size: int, seq_len: int, vocab_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded copy-task batch: random token ids, targets equal inputs."""
    for name, value in (("batch_size", batch_size), ("seq_len", seq_len)):
        if value < 1:
            raise ValueError(f"synth_copy_batch: {name} must be >= 1, got {value}")
    if vocab_size < 2:
        raise ValueError(f"synth_copy_batch: vocab_size must be >= 2, got {vocab_size}")
    u = rng_uniform_array(seed, (batch_size, seq_len), 0.0, 1.0)
    inputs = np.floor(u * vocab_size).astype(np.int64)
    # floor can only hit vocab_size if u rounds to 1.0, which [0,1) excludes,
    # but clip anyway so the contract cannot drift
    np.clip(inputs, 0, vocab_size - 1, out=inputs)
    return inputs, inputs.copy()


def grad_check(cfg: ModelConfig, seed: int, eps: float) -> float:
    """Max relative error between backprop and central finite differences.

    Perturbs every parameter of a seeded model on a fixed copy-task batch.
    The check point is drawn wider than the real init, uniform in
    [-b, b) with b = 0.5 / max(1, n_layers): at the tiny [-0.05, 0.05)
    init scale the deeper gradients sit below the float64 noise floor of
    the difference quotient, while much hotter draws saturate the softmax
    and bury those gradients instead. A gradient below the floor
    max(1e-8, c |L| 2^-52 / eps / GRAD_CHECK_BOUND), where the difference
    quotient cannot resolve the bound, is divided by the floor: its error
    is in effect absolute. Only feasible for small configs;
    raises if the model holds more than GRAD_CHECK_MAX_PARAMS parameters.
    Any NaN relative error (a non-finite loss or gradient) makes it NaN.
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"grad_check: eps must be finite and > 0, got {eps}")
    n_params = param_count(cfg)
    if n_params > GRAD_CHECK_MAX_PARAMS:
        raise ValueError(
            f"grad_check: config has {n_params} parameters, more than "
            f"{GRAD_CHECK_MAX_PARAMS}; use a smaller config"
        )
    bound = 0.5 / max(1, cfg.n_layers)
    p = _init_uniform(cfg, seed, -bound, bound)
    batch, targets = synth_copy_batch(seed, 2, min(cfg.max_seq_len, 4), cfg.vocab_size)

    loss, grads = loss_and_grads(p, cfg, batch, targets)
    analytic = grads.theta
    theta = p.theta
    bumped = p.with_theta(theta.copy())

    floor = max(1e-8, _LOSS_ROUNDING_ULPS * abs(loss) * 2.0**-52 / eps / GRAD_CHECK_BOUND)
    errors = np.empty(theta.size)
    for i in range(theta.size):
        bumped.theta[i] = theta[i] + eps
        hi = batch_loss(bumped, cfg, batch, targets)
        bumped.theta[i] = theta[i] - eps
        lo = batch_loss(bumped, cfg, batch, targets)
        bumped.theta[i] = theta[i]
        numeric = (hi - lo) / (2 * eps)
        denom = max(abs(analytic[i]), abs(numeric), floor)
        errors[i] = abs(analytic[i] - numeric) / denom
    return float(errors.max())  # unlike Python's max, keeps a NaN
