"""Independent slow-path oracles used by the tests.

Everything here is written from scratch against the published definitions
(scalar loops, no numpy vectorization) so it shares no code path with the
package. Oracles stay deliberately dumb.
"""

import math
import tracemalloc

_M64 = (1 << 64) - 1


def splitmix64(seed, count):
    """Straight port of the published SplitMix64 C reference."""
    x = seed & _M64
    out = []
    for _ in range(count):
        x = (x + 0x9E3779B97F4A7C15) & _M64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        z = z ^ (z >> 31)
        out.append(z)
    return out


def uniforms(seed, count, lo, hi):
    return [lo + (hi - lo) * ((u >> 11) * 2.0**-53) for u in splitmix64(seed, count)]


def matmul(a, b):
    """Triple-loop product over nested lists, accumulating left to right."""
    rows, inner, cols = len(a), len(b), len(b[0])
    assert len(a[0]) == inner
    out = [[0.0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc = 0.0
            for k in range(inner):
                acc += a[i][k] * b[k][j]
            out[i][j] = acc
    return out


def transpose(m):
    return [list(col) for col in zip(*m)]


def softmax_row(row):
    peak = max(row)
    exps = [math.exp(v - peak) for v in row]
    total = sum(exps)
    return [e / total for e in exps]


def relu(m):
    return [[v if v > 0 else 0.0 for v in row] for row in m]


def add_bias(m, bias):
    return [[v + bias[j] for j, v in enumerate(row)] for row in m]


def attention(x, wq, wk, wv, wo, heads, bq=None, bk=None, bv=None, bo=None, record=None):
    """Single-loop multi-head attention over nested lists.

    `record`, when given, receives q, k, v, the per-head weights and the
    concatenated head outputs for the backward oracle.
    """
    q = matmul(x, wq)
    k = matmul(x, wk)
    v = matmul(x, wv)
    if bq is not None:
        q, k, v = add_bias(q, bq), add_bias(k, bk), add_bias(v, bv)
    width = len(wq[0])
    dh = width // heads
    n = len(x)
    concat = [[0.0] * width for _ in range(n)]
    weights = []
    for h in range(heads):
        lo = h * dh
        qh = [row[lo:lo + dh] for row in q]
        kh = [row[lo:lo + dh] for row in k]
        vh = [row[lo:lo + dh] for row in v]
        scores = matmul(qh, transpose(kh))
        scale = 1.0 / math.sqrt(dh)
        scores = [[s * scale for s in row] for row in scores]
        weights.append([softmax_row(row) for row in scores])
        out_h = matmul(weights[-1], vh)
        for i in range(n):
            for j in range(dh):
                concat[i][lo + j] = out_h[i][j]
    out = matmul(concat, wo)
    if bo is not None:
        out = add_bias(out, bo)
    if record is not None:
        record.update(q=q, k=k, v=v, weights=weights, concat=concat)
    return out


def ffn(x, w1, w2, b1=None, b2=None, record=None):
    z = matmul(x, w1)
    if b1 is not None:
        z = add_bias(z, b1)
    if record is not None:
        record["z"] = z
    out = matmul(relu(z), w2)
    if b2 is not None:
        out = add_bias(out, b2)
    return out


def forward(params, cfg, tokens):
    """Full slow forward pass; `params` is a leanformer ParamSet."""
    tok_emb = params.tok_emb.tolist()
    pos_emb = params.pos_emb.tolist()
    x = [[tok_emb[t][j] + pos_emb[i][j] for j in range(len(tok_emb[0]))]
         for i, t in enumerate(tokens)]
    for layer in range(cfg.n_layers):
        lay = params.layers[layer]
        x = attention(
            x, lay.wq.tolist(), lay.wk.tolist(), lay.wv.tolist(), lay.wo.tolist(),
            cfg.heads_in_layer(layer),
            bq=None if lay.bq is None else lay.bq.tolist(),
            bk=None if lay.bk is None else lay.bk.tolist(),
            bv=None if lay.bv is None else lay.bv.tolist(),
            bo=None if lay.bo is None else lay.bo.tolist(),
        )
        x = ffn(
            x, lay.w1.tolist(), lay.w2.tolist(),
            b1=None if lay.b1 is None else lay.b1.tolist(),
            b2=None if lay.b2 is None else lay.b2.tolist(),
        )
    return matmul(x, transpose(tok_emb))


def cross_entropy(logits, targets):
    total = 0.0
    for row, t in zip(logits, targets):
        peak = max(row)
        log_z = peak + math.log(sum(math.exp(v - peak) for v in row))
        total += log_z - row[t]
    return total / len(targets)


def _zeros(rows, cols):
    return [[0.0] * cols for _ in range(rows)]


def _accumulate(into, m):
    for i, row in enumerate(m):
        for j, v in enumerate(row):
            into[i][j] += v


def _accumulate_colsum(into, m):
    for row in m:
        for j, v in enumerate(row):
            into[j] += v


def _columns(m, lo, hi):
    return [row[lo:hi] for row in m]


def _as_list(a):
    return None if a is None else a.tolist()


def _layer_forward(x, lay, heads):
    """One layer over nested lists, keeping what the backward needs."""
    rec = {"x": x, "dh": len(lay.wq[0]) // heads}
    rec["y"] = attention(x, lay.wq.tolist(), lay.wk.tolist(), lay.wv.tolist(), lay.wo.tolist(),
                         heads, bq=_as_list(lay.bq), bk=_as_list(lay.bk), bv=_as_list(lay.bv),
                         bo=_as_list(lay.bo), record=rec)
    rec["out"] = ffn(rec["y"], lay.w1.tolist(), lay.w2.tolist(), b1=_as_list(lay.b1),
                     b2=_as_list(lay.b2), record=rec)
    return rec


def _layer_backward(rec, lay, g, dout):
    """Reverse one layer: add its parameter gradients into `g`, return d(input)."""
    bias = lay.bq is not None
    # out = relu(z) W2 + b2
    _accumulate(g["w2"], matmul(transpose(relu(rec["z"])), dout))
    dz = matmul(dout, transpose(lay.w2.tolist()))
    dz = [[d if zv > 0 else 0.0 for d, zv in zip(drow, zrow)] for drow, zrow in zip(dz, rec["z"])]
    # z = y W1 + b1
    _accumulate(g["w1"], matmul(transpose(rec["y"]), dz))
    dy = matmul(dz, transpose(lay.w1.tolist()))
    # y = concat Wo + bo
    _accumulate(g["wo"], matmul(transpose(rec["concat"]), dy))
    dconcat = matmul(dy, transpose(lay.wo.tolist()))
    n, width = len(rec["q"]), len(rec["q"][0])
    dq, dk, dv = _zeros(n, width), _zeros(n, width), _zeros(n, width)
    dh = rec["dh"]
    scale = 1.0 / math.sqrt(dh)
    for h, a in enumerate(rec["weights"]):
        lo = h * dh
        d_out = _columns(dconcat, lo, lo + dh)
        da = matmul(d_out, transpose(_columns(rec["v"], lo, lo + dh)))
        dv_h = matmul(transpose(a), d_out)
        # a row of softmax: dS_ij = A_ij (dA_ij - sum_k dA_ik A_ik); S = q k^T * scale
        ds = []
        for arow, darow in zip(a, da):
            inner = sum(x * y for x, y in zip(arow, darow))
            ds.append([av * (dav - inner) * scale for av, dav in zip(arow, darow)])
        dq_h = matmul(ds, _columns(rec["k"], lo, lo + dh))
        dk_h = matmul(transpose(ds), _columns(rec["q"], lo, lo + dh))
        for i in range(n):
            for j in range(dh):
                dq[i][lo + j] = dq_h[i][j]
                dk[i][lo + j] = dk_h[i][j]
                dv[i][lo + j] = dv_h[i][j]
    if bias:
        for name, d in (("b2", dout), ("b1", dz), ("bo", dy), ("bq", dq), ("bk", dk), ("bv", dv)):
            _accumulate_colsum(g[name], d)
    dx = _zeros(n, len(rec["x"][0]))
    for name, d in (("wq", dq), ("wk", dk), ("wv", dv)):
        _accumulate(g[name], matmul(transpose(rec["x"]), d))
        _accumulate(dx, matmul(d, transpose(getattr(lay, name).tolist())))
    return dx


def loss_and_grads(params, cfg, batch, targets):
    """Mean cross-entropy over every position of `batch`, and its gradient.

    Hand-written reverse mode over nested lists, one sequence at a time,
    for any number of layers, with or without biases. Returns the loss and
    a dict from canonical parameter name to a nested-list gradient.
    """
    tok_emb, pos_emb = params.tok_emb.tolist(), params.pos_emb.tolist()
    total = sum(len(t) for t in targets)
    g = {"tok_emb": _zeros(len(tok_emb), len(tok_emb[0])),
         "pos_emb": _zeros(len(pos_emb), len(pos_emb[0]))}
    layer_grads = []
    for layer, lay in enumerate(params.layers):
        lg = {}
        for name in ("wq", "wk", "wv", "wo", "w1", "w2", "bq", "bk", "bv", "bo", "b1", "b2"):
            arr = getattr(lay, name)
            if arr is not None:
                lg[name] = _zeros(*arr.shape) if arr.ndim == 2 else [0.0] * arr.shape[0]
                g[f"layers.{layer}.{name}"] = lg[name]
        layer_grads.append(lg)

    loss = 0.0
    for tokens, tgt in zip(batch, targets):
        tokens = [int(t) for t in tokens]
        x = [[tok_emb[t][j] + pos_emb[i][j] for j in range(len(tok_emb[0]))]
             for i, t in enumerate(tokens)]
        records = []
        for layer, lay in enumerate(params.layers):
            rec = _layer_forward(x, lay, cfg.heads_in_layer(layer))
            records.append(rec)
            x = rec["out"]
        logits = matmul(x, transpose(tok_emb))
        loss += cross_entropy(logits, [int(t) for t in tgt]) * len(tokens) / total

        dlogits = []
        for row, t in zip(logits, tgt):
            probs = softmax_row(row)
            probs[int(t)] -= 1.0
            dlogits.append([pv / total for pv in probs])
        _accumulate(g["tok_emb"], matmul(transpose(dlogits), x))
        dx = matmul(dlogits, tok_emb)
        for layer in reversed(range(len(records))):
            dx = _layer_backward(records[layer], params.layers[layer], layer_grads[layer], dx)
        for i, t in enumerate(tokens):
            for j, d in enumerate(dx[i]):
                g["tok_emb"][t][j] += d
                g["pos_emb"][i][j] += d
    return loss, g


def traced_peak(fn, *args, **kwargs):
    """tracemalloc peak, in bytes, of one call `fn(*args, **kwargs)`; its result is dropped."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def stage_peaks(fn, *args, **kwargs):
    """tracemalloc peaks of one call `fn(*args, **kwargs)`, whole and per training stage.

    Returns a dict: "step" is the call's peak, as `traced_peak` gives it;
    "forward", "output" and "layers" are the most bytes traced while
    `model.model_forward`, `model._output_backward` and any one
    `model._layer_backward` call ran (0 for a stage that did not run). Each
    stage's wrapper folds the peak so far into the step's and restarts the
    count on entry, so it sees only what is held during its own run.
    """
    import leanformer.model as model

    peaks = {"step": 0, "forward": 0, "output": 0, "layers": 0}
    stages = {"forward": "model_forward", "output": "_output_backward", "layers": "_layer_backward"}
    real = {stage: getattr(model, name) for stage, name in stages.items()}

    def staged(stage):
        def run(*a, **k):
            peaks["step"] = max(peaks["step"], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            try:
                return real[stage](*a, **k)
            finally:
                peaks[stage] = max(peaks[stage], tracemalloc.get_traced_memory()[1])
        return run

    for stage, name in stages.items():
        setattr(model, name, staged(stage))
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        peaks["step"] = max(peaks["step"], tracemalloc.get_traced_memory()[1])
        return peaks
    finally:
        tracemalloc.stop()
        for stage, name in stages.items():
            setattr(model, name, real[stage])
