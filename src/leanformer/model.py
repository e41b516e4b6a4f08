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
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .numerics import Matrix, RngState, matmul, relu, rng_uniform_array, softmax_rows

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
        for name in ("vocab_size", "max_seq_len", "d_model", "n_heads", "d_ff"):
            if getattr(self, name) < 1:
                raise ValueError(f"ModelConfig: {name} must be >= 1, got {getattr(self, name)}")
        if self.n_layers < 0:
            raise ValueError(f"ModelConfig: n_layers must be >= 0, got {self.n_layers}")
        if self.head_dim is None:
            if self.d_model % self.n_heads != 0:
                raise ValueError(
                    f"ModelConfig: n_heads ({self.n_heads}) must divide d_model ({self.d_model})"
                )
        elif self.head_dim < 1:
            raise ValueError(f"ModelConfig: head_dim must be >= 1, got {self.head_dim}")
        if self.layer_heads is not None:
            if len(self.layer_heads) != self.n_layers:
                raise ValueError(
                    f"ModelConfig: layer_heads has {len(self.layer_heads)} entries "
                    f"for {self.n_layers} layers"
                )
            if any(h < 1 for h in self.layer_heads):
                raise ValueError("ModelConfig: every layer_heads entry must be >= 1")

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
    wq: Matrix
    wk: Matrix
    wv: Matrix
    wo: Matrix
    w1: Matrix
    w2: Matrix
    bq: np.ndarray | None = None
    bk: np.ndarray | None = None
    bv: np.ndarray | None = None
    bo: np.ndarray | None = None
    b1: np.ndarray | None = None
    b2: np.ndarray | None = None


Layout = tuple[tuple[str, tuple[int, ...]], ...]


def param_layout(cfg: ModelConfig) -> Layout:
    """(name, shape) of every parameter in canonical order, from the config alone.

    Canonical order (used by serialization, enumeration and the gradient
    checker): tok_emb, pos_emb, then per layer wq, wk, wv, wo, w1, w2 with
    each bias immediately after its weight when biases are enabled.
    """
    d, f = cfg.d_model, cfg.d_ff
    out = [("tok_emb", (cfg.vocab_size, d)), ("pos_emb", (cfg.max_seq_len, d))]
    for i in range(cfg.n_layers):
        w = cfg.attn_width(i)
        for suffix, shape in (("q", (d, w)), ("k", (d, w)), ("v", (d, w)),
                              ("o", (w, d)), ("1", (d, f)), ("2", (f, d))):
            out.append((f"layers.{i}.w{suffix}", shape))
            if cfg.use_bias:
                # a bias adds to its weight's output columns
                out.append((f"layers.{i}.b{suffix}", shape[1:]))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class ParamSet:
    """Every parameter of one model instance in one flat vector `theta`.

    `theta` holds the arrays of `layout` back to back, row-major.
    `tok_emb`, `pos_emb` and each layer's weights and biases are views into
    it, so they share its writeability: the package freezes every theta it
    hands out, while gradients (and bool keep-masks laid out the same way)
    are written through their views.
    """

    theta: np.ndarray
    layout: Layout
    tok_emb: Matrix = field(init=False, repr=False)
    pos_emb: Matrix = field(init=False, repr=False)
    layers: list[LayerParams] = field(init=False, repr=False)
    named: tuple[tuple[str, np.ndarray], ...] = field(init=False, repr=False)

    def __post_init__(self):
        theta = np.ascontiguousarray(self.theta)
        size = sum(math.prod(shape) for _, shape in self.layout)
        if theta.shape != (size,):
            raise ValueError(f"ParamSet: theta has shape {theta.shape}, layout needs ({size},)")
        named, pos = [], 0
        for name, shape in self.layout:
            n = math.prod(shape)
            named.append((name, theta[pos: pos + n].reshape(shape)))
            pos += n
        per_layer: dict[int, dict[str, np.ndarray]] = {}
        for name, view in named[2:]:
            _, i, field_name = name.split(".")
            per_layer.setdefault(int(i), {})[field_name] = view
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "named", tuple(named))
        object.__setattr__(self, "tok_emb", named[0][1])
        object.__setattr__(self, "pos_emb", named[1][1])
        object.__setattr__(self, "layers", [LayerParams(**kw) for kw in per_layer.values()])

    def with_theta(self, theta: np.ndarray) -> ParamSet:
        """The same layout over another vector."""
        return ParamSet(theta, self.layout)


def iter_params(p: ParamSet) -> Iterator[tuple[str, np.ndarray]]:
    """Yield (name, view) in canonical order, biases only when present."""
    yield from p.named


def param_count_enumerated(p: ParamSet) -> int:
    """Element count summed over every stored array; the counting oracle."""
    return sum(arr.size for _, arr in iter_params(p))


def param_count(cfg: ModelConfig) -> int:
    """Closed-form parameter count; must agree with enumeration exactly.

    (V+S)*d for the embeddings, then per layer 4*d*w + 2*d*f where w is the
    layer's attention width (w == d unless heads were pruned), plus
    3*w + d + f + d bias elements when biases are enabled.
    """
    n = (cfg.vocab_size + cfg.max_seq_len) * cfg.d_model
    for layer in range(cfg.n_layers):
        w = cfg.attn_width(layer)
        n += 4 * cfg.d_model * w + 2 * cfg.d_model * cfg.d_ff
        if cfg.use_bias:
            n += 3 * w + cfg.d_model + cfg.d_ff + cfg.d_model
    return n


def _freeze(theta: np.ndarray) -> np.ndarray:
    # parameters are immutable by contract; make accidental writes loud
    theta.flags.writeable = False
    return theta


def _init_uniform(cfg: ModelConfig, seed: int, lo: float, hi: float) -> ParamSet:
    layout = param_layout(cfg)
    is_weight = np.concatenate([np.full(math.prod(shape), len(shape) == 2) for _, shape in layout])
    draws, _ = rng_uniform_array(RngState(seed), (int(is_weight.sum()),), lo, hi)
    theta = np.zeros(is_weight.size)
    theta[is_weight] = draws
    return ParamSet(_freeze(theta), layout)


def init_params(cfg: ModelConfig, seed: int) -> ParamSet:
    """Fill every weight matrix from one SplitMix64 stream, uniform in [-0.05, 0.05).

    Matrices are filled row-major in canonical order; biases start at zero
    and draw nothing from the stream. Deterministic given (cfg, seed).
    """
    return _init_uniform(cfg, seed, INIT_LO, INIT_HI)


def embed(p: ParamSet, tokens: Sequence[int]) -> Matrix:
    """Token embedding plus learned position embedding, row per position."""
    ids = np.asarray(tokens, dtype=np.int64)
    if ids.ndim != 1 or ids.size < 1:
        raise ValueError("embed: need a non-empty 1-D sequence of token ids")
    max_len = p.pos_emb.shape[0]
    vocab = p.tok_emb.shape[0]
    if ids.size > max_len:
        raise ValueError(f"embed: sequence length {ids.size} exceeds max_seq_len {max_len}")
    bad = np.where((ids < 0) | (ids >= vocab))[0]
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"embed: token id {int(ids[i])} at position {i} outside [0, {vocab})")
    return p.tok_emb[ids] + p.pos_emb[: ids.size]


@dataclass
class AttentionTrace:
    q: Matrix
    k: Matrix
    v: Matrix
    weights: list[Matrix]  # one n x n matrix per head
    out: Matrix


@dataclass
class LayerTrace:
    attn: AttentionTrace
    ffn_hidden: Matrix
    ffn_out: Matrix


@dataclass
class ForwardTrace:
    """Every intermediate activation of one sequence's forward pass."""

    embedded: Matrix
    layers: list[LayerTrace]
    logits: Matrix


def trace_element_count(t: ForwardTrace) -> int:
    """Total activation elements held by a trace (the memory-accounting oracle)."""
    n = t.embedded.size + t.logits.size
    for lt in t.layers:
        n += lt.attn.q.size + lt.attn.k.size + lt.attn.v.size
        n += sum(w.size for w in lt.attn.weights)
        n += lt.attn.out.size + lt.ffn_hidden.size + lt.ffn_out.size
    return n


def attention_forward(
    p: ParamSet, layer: int, x: Matrix, heads: int
) -> tuple[Matrix, AttentionTrace]:
    """Bidirectional multi-head self-attention (no masking).

    Q, K, V are split column-wise into `heads` blocks; each block attends
    with scores scaled by 1/sqrt(head width), and the concatenated head
    outputs go through the output projection.
    """
    lay = p.layers[layer]
    d = lay.wq.shape[0]
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError(f"attention_forward: input shape {tuple(x.shape)} does not match d_model {d}")
    width = lay.wq.shape[1]
    if heads < 1 or width % heads != 0:
        raise ValueError(f"attention_forward: {heads} heads do not divide attention width {width}")
    dh = width // heads

    q = matmul(x, lay.wq)
    k = matmul(x, lay.wk)
    v = matmul(x, lay.wv)
    if lay.bq is not None:
        q = q + lay.bq
        k = k + lay.bk
        v = v + lay.bv

    scale = 1.0 / math.sqrt(dh)
    weights = []
    head_outs = []
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        a = softmax_rows(matmul(q[:, cols], k[:, cols].T) * scale)
        weights.append(a)
        head_outs.append(matmul(a, v[:, cols]))
    concat = np.hstack(head_outs)
    out = matmul(concat, lay.wo)
    if lay.bo is not None:
        out = out + lay.bo
    return out, AttentionTrace(q=q, k=k, v=v, weights=weights, out=out)


def _ffn(p: ParamSet, layer: int, x: Matrix) -> tuple[Matrix, Matrix]:
    lay = p.layers[layer]
    if x.ndim != 2 or x.shape[1] != lay.w1.shape[0]:
        raise ValueError(f"ffn_forward: input shape {tuple(x.shape)} does not match d_model {lay.w1.shape[0]}")
    z = matmul(x, lay.w1)
    if lay.b1 is not None:
        z = z + lay.b1
    hidden = relu(z)
    out = matmul(hidden, lay.w2)
    if lay.b2 is not None:
        out = out + lay.b2
    return hidden, out


def ffn_forward(p: ParamSet, layer: int, x: Matrix) -> Matrix:
    """Position-wise feed-forward block: relu(x W1 + b1) W2 + b2."""
    return _ffn(p, layer, x)[1]


def model_forward(
    p: ParamSet, cfg: ModelConfig, batch: Sequence[Sequence[int]]
) -> tuple[list[Matrix], list[ForwardTrace]]:
    """Run the full encoder over a batch of token sequences.

    Returns one n x vocab logit matrix and one ForwardTrace per sequence.
    Layers compose as x <- ffn(attention(x)) with no residual paths; the
    logits are x against the transposed token embedding. Every sequence's
    logits are row slices of one buffer, allocated once the whole batch
    has passed `embed`'s checks, so a batch costs one large allocation
    however earlier work left the heap.
    """
    if len(batch) == 0:
        raise ValueError("model_forward: batch must be non-empty")
    passes = []
    for tokens in batch:
        x0 = embed(p, tokens)
        x = x0
        layer_traces = []
        for layer in range(cfg.n_layers):
            y, attn_trace = attention_forward(p, layer, x, cfg.heads_in_layer(layer))
            hidden, x = _ffn(p, layer, y)
            layer_traces.append(LayerTrace(attn=attn_trace, ffn_hidden=hidden, ffn_out=x))
        passes.append((x0, layer_traces, x))
    buffer = np.empty((sum(x.shape[0] for _, _, x in passes), p.tok_emb.shape[0]))
    row = 0
    logits_list = []
    traces = []
    for x0, layer_traces, x in passes:
        logits = matmul(x, p.tok_emb.T, out=buffer[row: row + x.shape[0]])
        row += x.shape[0]
        logits_list.append(logits)
        traces.append(ForwardTrace(embedded=x0, layers=layer_traces, logits=logits))
    return logits_list, traces


def _target_ids(
    who: str, targets: Sequence[Sequence[int]], lengths: Sequence[int], vocab: int
) -> np.ndarray:
    """Every sequence's target ids back to back, checked against its length and the vocabulary."""
    if len(targets) != len(lengths):
        raise ValueError(f"{who}: {len(lengths)} sequences but {len(targets)} target rows")
    rows = [np.asarray(t, dtype=np.int64) for t in targets]
    for ids, n in zip(rows, lengths):
        if ids.ndim != 1 or ids.size != n:
            raise ValueError(f"{who}: {ids.size} targets for {n} positions")
    ids = np.concatenate(rows)
    bad = (ids < 0) | (ids >= vocab)
    if bad.any():
        raise ValueError(f"{who}: target id {int(ids[np.argmax(bad)])} outside [0, {vocab})")
    return ids


def _fused_cross_entropy(z: Matrix, ids: np.ndarray, grad: bool) -> float:
    """Mean cross-entropy of the rows of `z` against `ids`, worked out in `z` itself.

    One max, one exp and one row sum: a row's loss is
    log(rowsum) - shifted[target]. With `grad`, `z` is then left holding
    (softmax(z) - onehot(ids)) / rows, the gradient of the mean loss;
    otherwise it holds the unnormalised exponentials.
    """
    rows = np.arange(ids.size)
    z -= z.max(axis=1, keepdims=True)
    picked = z[rows, ids]
    np.exp(z, out=z)
    rowsum = z.sum(axis=1)
    loss = float(np.sum(np.log(rowsum) - picked)) / ids.size
    if grad:
        z *= (1.0 / (rowsum * ids.size))[:, None]
        z[rows, ids] -= 1.0 / ids.size
    return loss


def _logit_buffer(who: str, logits_list: Sequence[Matrix]) -> Matrix:
    """The one C-contiguous (sum of lengths, vocab) array that `logits_list` slices in order.

    `model_forward` lays the logits out that way, and the loss works on the
    buffer in place, so logits laid out any other way are refused, not copied.
    """
    buffer = logits_list[0].base
    starts = np.cumsum([0] + [lg.shape[0] for lg in logits_list])
    ok = (isinstance(buffer, np.ndarray) and buffer.dtype == np.float64
          and buffer.flags.c_contiguous and buffer.flags.writeable
          and buffer.shape == (starts[-1], logits_list[0].shape[1])
          and all(lg.base is buffer and lg.shape[1:] == buffer.shape[1:]
                  and lg.ctypes.data == buffer.ctypes.data + int(row) * buffer.strides[0]
                  for lg, row in zip(logits_list, starts)))
    if not ok:
        raise ValueError(f"{who}: logits are not consecutive row slices of one C-contiguous buffer")
    return buffer


def cross_entropy(logits: Matrix, targets: Sequence[int]) -> float:
    """Mean negative log-likelihood of the targets, one per logit row."""
    ids = _target_ids("cross_entropy", [targets], [logits.shape[0]], logits.shape[1])
    return _fused_cross_entropy(np.array(logits, dtype=np.float64), ids, grad=False)


def batch_loss(
    p: ParamSet,
    cfg: ModelConfig,
    batch: Sequence[Sequence[int]],
    targets: Sequence[Sequence[int]],
) -> float:
    """Mean cross-entropy over every position in the batch (no gradients)."""
    logits_list, _ = model_forward(p, cfg, batch)
    lengths = [lg.shape[0] for lg in logits_list]
    ids = _target_ids("batch_loss", targets, lengths, p.tok_emb.shape[0])
    return _fused_cross_entropy(_logit_buffer("batch_loss", logits_list), ids, grad=False)


def _heads_view(m: Matrix, rows: np.ndarray, heads: int) -> np.ndarray:
    """The rows of `m` that `rows` indexes, one row of `rows` per sequence, per head.

    `m` is (positions, heads * dh) and `rows` is (sequences, n); the result
    is (sequences, heads, n, dh).
    """
    return m[rows.ravel()].reshape(*rows.shape, heads, -1).transpose(0, 2, 1, 3)


def _heads_merge(t: np.ndarray) -> Matrix:
    """Inverse of `_heads_view`: (sequences, heads, n, dh) to (sequences * n, heads * dh)."""
    b, h, n, dh = t.shape
    return t.transpose(0, 2, 1, 3).reshape(b * n, h * dh)


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

    The backward runs on the whole batch at once: the cross-entropy works
    in place on `model_forward`'s logit buffer, which then becomes the
    logit gradient and is released before the layers; every weight
    gradient is one product over all positions; attention is differentiated
    per sequence length, as (sequences, heads, n, head width) stacks.
    """
    logits_list, traces = model_forward(p, cfg, batch)
    lengths = np.array([lg.shape[0] for lg in logits_list])
    ids = _target_ids("loss_and_grads", targets, lengths, p.tok_emb.shape[0])
    # the logits until the fused cross-entropy turns them into their gradient
    dlogits = _logit_buffer("loss_and_grads", logits_list)
    del logits_list
    loss = _fused_cross_entropy(dlogits, ids, grad=True)

    # logits = x_final @ tok_emb^T  (tied output); grads start at zero, so
    # the product is written straight into tok_emb's gradient
    grads = p.with_theta(np.zeros_like(p.theta))
    x_final = np.concatenate([t.layers[-1].ffn_out if t.layers else t.embedded for t in traces])
    np.matmul(dlogits.T, x_final, out=grads.tok_emb)
    dx = dlogits @ p.tok_emb
    # the last references to the logit buffer: freeing it here keeps it out
    # of the layer backward's peak memory
    del dlogits
    for t in traces:
        t.logits = None

    # each length's positions in the concatenated rows, one row per sequence
    starts = np.cumsum(lengths) - lengths
    groups = [(starts[lengths == n][:, None] + np.arange(n), np.flatnonzero(lengths == n))
              for n in np.unique(lengths)]

    for layer in reversed(range(cfg.n_layers)):
        lay = p.layers[layer]
        g = grads.layers[layer]
        lts = [t.layers[layer] for t in traces]
        x_in = np.concatenate([t.layers[layer - 1].ffn_out if layer else t.embedded for t in traces])

        # feed-forward: out = relu(y W1 + b1) W2 + b2
        hidden = np.concatenate([lt.ffn_hidden for lt in lts])
        y = np.concatenate([lt.attn.out for lt in lts])
        np.matmul(hidden.T, dx, out=g.w2)
        if g.b2 is not None:
            g.b2[...] = dx.sum(axis=0)
        dz = (dx @ lay.w2.T) * (hidden > 0)
        np.matmul(y.T, dz, out=g.w1)
        if g.b1 is not None:
            g.b1[...] = dz.sum(axis=0)
        dy = dz @ lay.w1.T

        # attention: y = concat(heads) @ Wo + bo, each head softmax(q k^T s) v
        heads = cfg.heads_in_layer(layer)
        s = 1.0 / math.sqrt(lay.wq.shape[1] // heads)
        q, k, v = (np.concatenate([getattr(lt.attn, name) for lt in lts]) for name in "qkv")
        stacks = []
        concat = np.empty_like(v)
        for rows, members in groups:
            a = np.array([lts[i].attn.weights for i in members])
            vh = _heads_view(v, rows, heads)
            concat[rows.ravel()] = _heads_merge(a @ vh)
            stacks.append((rows, a, vh))
        np.matmul(concat.T, dy, out=g.wo)
        if g.bo is not None:
            g.bo[...] = dy.sum(axis=0)
        dconcat = dy @ lay.wo.T

        dq, dk, dv = np.empty_like(q), np.empty_like(k), np.empty_like(v)
        for rows, a, vh in stacks:
            d_out = _heads_view(dconcat, rows, heads)
            da = d_out @ vh.transpose(0, 1, 3, 2)
            # softmax rows: dS = A * (dA - rowsum(dA * A))
            dscores = a * (da - (da * a).sum(axis=-1, keepdims=True))
            flat = rows.ravel()
            dv[flat] = _heads_merge(a.transpose(0, 1, 3, 2) @ d_out)
            dq[flat] = _heads_merge(dscores @ _heads_view(k, rows, heads) * s)
            dk[flat] = _heads_merge(
                dscores.transpose(0, 1, 3, 2) @ _heads_view(q, rows, heads) * s)

        np.matmul(x_in.T, dq, out=g.wq)
        np.matmul(x_in.T, dk, out=g.wk)
        np.matmul(x_in.T, dv, out=g.wv)
        if g.bq is not None:
            g.bq[...] = dq.sum(axis=0)
            g.bk[...] = dk.sum(axis=0)
            g.bv[...] = dv.sum(axis=0)
        dx = dq @ lay.wq.T + dk @ lay.wk.T + dv @ lay.wv.T

    # embedding lookup: a row of tok_emb per token id, of pos_emb per position
    np.add.at(grads.tok_emb, np.concatenate([np.asarray(t, dtype=np.int64) for t in batch]), dx)
    np.add.at(grads.pos_emb, np.arange(ids.size) - np.repeat(starts, lengths), dx)
    return loss, grads


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
    """
    if lr < 0:
        raise ValueError(f"train_step: learning rate must be >= 0, got {lr}")
    loss, grads = loss_and_grads(p, cfg, batch, targets)
    if not math.isfinite(loss):
        raise ValueError(f"train_step: loss is {loss}, not finite")
    if not np.isfinite(grads.theta).all():
        name = next(name for name, g in grads.named if not np.isfinite(g).all())
        raise ValueError(f"train_step: gradient of {name} is not finite")
    if lr == 0:
        return p, loss

    return p.with_theta(_freeze(p.theta - lr * grads.theta)), loss


def synth_copy_batch(
    seed: int, batch_size: int, seq_len: int, vocab_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded copy-task batch: random token ids, targets equal inputs."""
    if batch_size < 1 or seq_len < 1:
        raise ValueError("synth_copy_batch: batch_size and seq_len must be >= 1")
    if vocab_size < 2:
        raise ValueError(f"synth_copy_batch: vocab_size must be >= 2, got {vocab_size}")
    u, _ = rng_uniform_array(RngState(seed), (batch_size, seq_len), 0.0, 1.0)
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
    """
    if eps <= 0:
        raise ValueError(f"grad_check: eps must be > 0, got {eps}")
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

    worst = 0.0
    for i in range(theta.size):
        bumped.theta[i] = theta[i] + eps
        hi = batch_loss(bumped, cfg, batch, targets)
        bumped.theta[i] = theta[i] - eps
        lo = batch_loss(bumped, cfg, batch, targets)
        bumped.theta[i] = theta[i]
        numeric = (hi - lo) / (2 * eps)
        denom = max(abs(analytic[i]), abs(numeric), 1e-8)
        worst = max(worst, abs(analytic[i] - numeric) / denom)
    return worst
