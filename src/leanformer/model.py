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
    weights: np.ndarray  # (..., heads, n, n)


@dataclass
class LayerTrace:
    """One layer's activations for a batch, each array led by a sequence axis."""

    attn: AttentionTrace  # q, k, v (sequences, n, width); weights (sequences, heads, n, n)
    attn_out: np.ndarray
    ffn_hidden: np.ndarray
    ffn_out: np.ndarray


@dataclass
class ForwardTrace:
    """Every intermediate activation of one batch's forward pass."""

    ids: np.ndarray  # the checked (sequences, n) token ids
    embedded: np.ndarray  # (sequences, n, d)
    layers: list[LayerTrace]


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
    weights = np.empty((*x.shape[:-2], heads, n, n))
    concat = np.empty(q.shape)
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        a = softmax_rows(matmul(q[..., cols], k[..., cols].swapaxes(-1, -2)) * scale,
                         out=weights[..., h, :, :])
        matmul(a, v[..., cols], out=concat[..., cols])
    return _linear(concat, lay.wo, lay.bo), AttentionTrace(q=q, k=k, v=v, weights=weights)


def _ffn(p: ParamSet, layer: int, x: Matrix) -> tuple[Matrix, Matrix]:
    lay, _ = _layer("ffn_forward", p, layer)
    if x.ndim < 2 or x.shape[-1] != lay.w1.shape[0]:
        raise ValueError(f"ffn_forward: input shape {tuple(x.shape)} does not match d_model {lay.w1.shape[0]}")
    # the rectifier works in the fresh product: no second array of the batch's size
    hidden = _linear(x, lay.w1, lay.b1)
    relu(hidden, out=hidden)
    return hidden, _linear(hidden, lay.w2, lay.b2)


def ffn_forward(p: ParamSet, layer: int, x: Matrix) -> Matrix:
    """Position-wise feed-forward block: relu(x W1 + b1) W2 + b2."""
    return _ffn(p, layer, x)[1]


def _tied_logits(x: np.ndarray, tok_emb: Matrix, out: np.ndarray) -> None:
    """Each sequence's logits `x[s] @ tok_emb^T` into `out[s]`, one product per sequence.

    The one place the tied output product is taken, so training and
    inference give every row the same bits.
    """
    for o, xs in zip(out, x):
        matmul(xs, tok_emb.T, out=o)


def _encode(p: ParamSet, cfg: ModelConfig, x: np.ndarray,
            layers: list[LayerTrace] | None = None) -> np.ndarray:
    """The last layer's output for `x`, (..., n, d); appends each layer's trace to `layers` if given."""
    for layer in range(cfg.n_layers):
        y, attn = attention_forward(p, layer, x, cfg.heads_in_layer(layer))
        hidden, x = _ffn(p, layer, y)
        if layers is not None:
            layers.append(LayerTrace(attn, y, hidden, x))
    return x


def model_forward(
    p: ParamSet, cfg: ModelConfig, batch: Sequence[Sequence[int]], *, trace: bool = False
) -> tuple[np.ndarray | None, ForwardTrace | None]:
    """Run the full encoder over a (sequences, n) batch of token ids.

    Untraced (inference), returns the logits as one C-contiguous
    (sequences, n, vocab) array and None. With `trace` (what the backward
    reads), stops after the last layer and returns None and one
    ForwardTrace for the batch: `loss_and_grads` takes the logits itself, a
    chunk at a time. Layers compose as x <- ffn(attention(x)) with no
    residual paths; the logits are x against the transposed token embedding.
    The whole batch passes `embed`'s checks first. Traced, each stage runs
    once per layer on the whole (sequences, n, d) stack, and what it returns
    is the trace. Untraced, the same stages run a sequence at a time, and each
    last-layer output is written over its embedded rows, which the logits read.
    """
    _check_config("model_forward", cfg, p)
    ids = _id_array("model_forward", "batch", batch)
    if ids.ndim != 2 or len(ids) == 0:
        raise ValueError("model_forward: batch must be a non-empty (sequences, n) array of token ids")
    embedded = embed(p, ids)
    if trace:
        layers: list[LayerTrace] = []
        _encode(p, cfg, embedded, layers)
        return None, ForwardTrace(ids=ids, embedded=embedded, layers=layers)
    for s, x in enumerate(embedded):
        embedded[s] = _encode(p, cfg, x)
    # after the layers: each sequence's product streams all of tok_emb, evicting the layer weights
    logits = np.empty((*ids.shape, p.tok_emb.shape[0]))
    _tied_logits(embedded, p.tok_emb, logits)
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


def _fused_cross_entropy(z: Matrix, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cross-entropy of each row of `z` against `ids`, worked out in `z` itself.

    One max, one exp and one row sum: a row's term is
    log(rowsum) - shifted[target]. Returns the per-row terms and row sums;
    `z` is left holding the unnormalised exponentials.
    """
    z -= z.max(axis=1, keepdims=True)
    picked = z[np.arange(ids.size), ids]
    np.exp(z, out=z)
    rowsum = z.sum(axis=1)
    return np.log(rowsum) - picked, rowsum


def batch_loss(
    p: ParamSet,
    cfg: ModelConfig,
    batch: Sequence[Sequence[int]],
    targets: Sequence[Sequence[int]],
) -> float:
    """Mean cross-entropy over every position in the batch (no gradients)."""
    logits, _ = model_forward(p, cfg, batch)
    ids = _target_ids("batch_loss", targets, logits.shape[:2], logits.shape[2])
    return float(np.sum(_fused_cross_entropy(logits.reshape(ids.size, -1), ids)[0])) / ids.size


def _heads_view(m: np.ndarray, n: int, heads: int) -> np.ndarray:
    """(sequences, n, heads * dh) or its rows as a (sequences, heads, n, dh) view."""
    return m.reshape(-1, n, heads, m.shape[-1] // heads).transpose(0, 2, 1, 3)


def _heads_merge(t: np.ndarray) -> Matrix:
    """Inverse of `_heads_view`: (sequences, heads, n, dh) to (sequences * n, heads * dh)."""
    b, h, n, dh = t.shape
    return t.transpose(0, 2, 1, 3).reshape(b * n, h * dh)


# The most logit bytes `loss_and_grads` holds at once: it takes the tied
# logits and their cross-entropy this many bytes' worth of whole sequences
# at a time, and at least one sequence
LOGIT_CHUNK_BYTES = 1 << 20

# rows of tok_emb's gradient that a chunk adds per product: a block's
# (rows, d) share is added while still in cache, where a whole (vocab, d)
# one would be written out and read back for every chunk. One share is held
# beside a chunk of logits at the output stage's peak: 256 rows hold it to
# 65,536 B at d = 32, half of what 512 held, for 2-3% more step time
_TOK_EMB_GRAD_BLOCK = 256


def _output_backward(
    p: ParamSet, x: np.ndarray, ids: np.ndarray, g_tok_emb: Matrix
) -> tuple[float, Matrix]:
    """Mean loss and its gradient at `x`, the last (sequences, n, d) output, which it consumes.

    The tied logits x @ tok_emb^T and the fused cross-entropy run one chunk
    of whole sequences at a time in one reused buffer, which is left holding
    the unnormalised exponentials. The logit gradient (softmax - onehot) /
    positions is never written out. The one-hot share of the output
    projection's gradient, x / positions at the target rows, is subtracted
    from `g_tok_emb` once, for the whole batch, before the first chunk.
    Then each chunk adds its softmax share, a block of rows at a time, from
    the exponentials and its rows of `x` scaled by 1 / (rowsum * positions),
    and writes its rows of the (positions, d) gradient at `x` over those
    rows of `x`, which it has read for the last time: the returned gradient
    is `x`'s own buffer, so `x` must be C-contiguous and the caller's to
    give up. The per-row loss terms are summed once, over the whole batch.
    """
    b, n, d = x.shape
    vocab = p.tok_emb.shape[0]
    dx = x.reshape(-1, d)  # a view: x is contiguous
    np.subtract.at(g_tok_emb, ids, dx / ids.size)  # ids repeat
    per = min(b, max(1, LOGIT_CHUNK_BYTES // (8 * n * vocab)))
    buf = np.empty((per, n, vocab))
    terms = np.empty(ids.size)
    for s in range(0, b, per):
        chunk = x[s:s + per]
        rows = slice(s * n, (s + len(chunk)) * n)
        z = buf[:len(chunk)]
        _tied_logits(chunk, p.tok_emb, z)
        z, target = z.reshape(-1, vocab), ids[rows]
        terms[rows], rowsum = _fused_cross_entropy(z, target)
        # the logit gradient is exp * r - onehot / N, r = 1 / (rowsum * N); it is
        # linear in exp, so r scales the (rows, d) factors, not the logit block
        r = (1.0 / (rowsum * ids.size))[:, None]
        xr = dx[rows] * r
        for v in range(0, vocab, _TOK_EMB_GRAD_BLOCK):
            g_tok_emb[v:v + _TOK_EMB_GRAD_BLOCK] += z[:, v:v + _TOK_EMB_GRAD_BLOCK].T @ xr
        # xr was the chunk's last read of its rows of x
        dxc = np.matmul(z, p.tok_emb, out=dx[rows])
        dxc *= r
        dxc -= p.tok_emb[target] / ids.size
    return float(np.sum(terms)) / ids.size, dx


def _layer_backward(lay: LayerParams, g: LayerParams, lt: LayerTrace, x_in: Matrix,
                    dx: Matrix, heads: int) -> Matrix:
    """One layer's backward for the batch: adds into `g` and returns the gradient at `x_in`.

    `x_in` and `dx` are (sequences * n, ·) rows; the trace's (sequences, n, ·)
    arrays are read as such rows and its heads as (sequences, heads, n, head
    width) views. `lt` is consumed: it is taken apart and emptied on entry,
    so each of its arrays and each temporary is released after its last
    reader: the FFN output at once, the FFN hidden (which takes the gradient
    at it) and the attention output once the FFN is done, v, the weights, k
    and q as the attention backward reads them for the last time.
    """
    attn, y, hidden = lt.attn, lt.attn_out, lt.ffn_hidden
    n = y.shape[1]
    q, k, v = (_heads_view(m, n, heads) for m in (attn.q, attn.k, attn.v))
    a = attn.weights
    vars(lt).clear()
    vars(attn).clear()

    # feed-forward: out = relu(y W1 + b1) W2 + b2; the gradient at the
    # hidden layer is written over it once its mask is taken
    hidden, y = hidden.reshape(len(dx), -1), y.reshape(len(dx), -1)
    mask = hidden > 0
    dz = _linear_backward(hidden, lay.w2, g.w2, g.b2, dx, out=hidden)
    del hidden
    dz *= mask
    del mask
    dy = _linear_backward(y, lay.w1, g.w1, g.b1, dz)
    del dz, y

    # attention: y = concat(heads) @ Wo + bo, each head softmax(q k^T s) v
    s = 1.0 / math.sqrt(lay.wq.shape[1] // heads)
    concat = _heads_merge(a @ v)
    d_out = _heads_view(_linear_backward(concat, lay.wo, g.wo, g.bo, dy, out=concat), n, heads)
    del concat, dy
    da = d_out @ v.transpose(0, 1, 3, 2)
    del v
    # softmax rows, in place in dA: dS = (dA - rowsum(dA * A)) * A
    da -= (da * a).sum(axis=-1, keepdims=True)
    da *= a
    dv = _heads_merge(a.transpose(0, 1, 3, 2) @ d_out)
    del a, d_out
    dq = da @ k
    del k
    dq *= s
    dq = _heads_merge(dq)
    dk = da.transpose(0, 1, 3, 2) @ q
    del da, q
    dk *= s
    dk = _heads_merge(dk)

    # (q-term + k-term) + v-term
    dx = _linear_backward(x_in, lay.wq, g.wq, g.bq, dq)
    del dq
    dx += _linear_backward(x_in, lay.wk, g.wk, g.bk, dk)
    del dk
    dx += _linear_backward(x_in, lay.wv, g.wv, g.bv, dv)
    return dx


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

    In order: one traced `model_forward`, which stops after the last layer;
    only the last layer's output and the checked ids are kept, and the layer
    traces and the embedded rows are dropped; the output stage takes the
    logits, the loss and their gradient a chunk of sequences at a time (see
    LOGIT_CHUNK_BYTES), and writes the gradient at the last output over the
    last output itself, so one (positions, d) array serves as both; the ids are
    embedded again and the layers run again through the same stage calls, so
    the rebuilt rows and trace have the same bits; last, each layer is
    differentiated once for the whole batch: its trace is popped into
    `_layer_backward`, which releases each array after its last reader. So a
    chunk of logits and the layer traces are never held at once.
    """
    _, trace = model_forward(p, cfg, batch, trace=True)
    ids = trace.ids
    n = ids.shape[1]
    targets = _target_ids("loss_and_grads", targets, ids.shape, p.tok_emb.shape[0])
    grads = p.with_theta(np.zeros_like(p.theta))
    x_final = trace.layers[-1].ffn_out if trace.layers else trace.embedded
    del trace
    loss, dx = _output_backward(p, x_final, targets, grads.tok_emb)
    del x_final  # dx is its buffer

    embedded, layers = embed(p, ids), []
    _encode(p, cfg, embedded, layers)
    for layer in reversed(range(cfg.n_layers)):
        x_in = (layers[-2].ffn_out if layer else embedded).reshape(ids.size, -1)
        dx = _layer_backward(p.layers[layer], grads.layers[layer], layers.pop(), x_in, dx,
                             cfg.heads_in_layer(layer))

    # embedding lookup: a row of tok_emb per token id, of pos_emb per position
    np.add.at(grads.tok_emb, ids.ravel(), dx)
    grads.pos_emb[:n] += dx.reshape(-1, n, dx.shape[1]).sum(axis=0)
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
    and bury those gradients instead. Only feasible for small configs;
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

    _, grads = loss_and_grads(p, cfg, batch, targets)
    analytic = grads.theta
    theta = p.theta
    bumped = p.with_theta(theta.copy())

    errors = np.empty(theta.size)
    for i in range(theta.size):
        bumped.theta[i] = theta[i] + eps
        hi = batch_loss(bumped, cfg, batch, targets)
        bumped.theta[i] = theta[i] - eps
        lo = batch_loss(bumped, cfg, batch, targets)
        bumped.theta[i] = theta[i]
        numeric = (hi - lo) / (2 * eps)
        denom = max(abs(analytic[i]), abs(numeric), 1e-8)
        errors[i] = abs(analytic[i] - numeric) / denom
    return float(errors.max())  # unlike Python's max, keeps a NaN
