"""An independent float64 forward pass, used to check the program's logits.

It shares no code with `leanformer.model`: heads are handled as one
(heads, n, head_width) tensor with einsum instead of a loop over column
blocks, so a bug in the program's head split or softmax cannot cancel
out against the same bug here.
"""

from __future__ import annotations

import numpy as np


def oracle_logits(params, cfg, tokens) -> np.ndarray:
    """Logits (n x vocab) of one token sequence, all arithmetic in float64."""
    ids = np.asarray(tokens, dtype=np.int64)
    n = ids.size
    x = params.tok_emb[ids].astype(np.float64) + params.pos_emb[:n]
    for layer, lay in enumerate(params.layers):
        heads = cfg.heads_in_layer(layer)
        width = lay.wq.shape[1]
        dh = width // heads

        def project(w, b):
            y = x @ w
            if b is not None:
                y = y + b
            return y.reshape(n, heads, dh).transpose(1, 0, 2)

        q, k, v = project(lay.wq, lay.bq), project(lay.wk, lay.bk), project(lay.wv, lay.bv)
        scores = np.einsum("hid,hjd->hij", q, k) / np.sqrt(dh)
        weights = np.exp(scores - scores.max(axis=2, keepdims=True))
        weights /= weights.sum(axis=2, keepdims=True)
        attended = np.einsum("hij,hjd->hid", weights, v).transpose(1, 0, 2).reshape(n, width)
        y = attended @ lay.wo
        if lay.bo is not None:
            y = y + lay.bo
        z = y @ lay.w1
        if lay.b1 is not None:
            z = z + lay.b1
        x = np.maximum(z, 0.0) @ lay.w2
        if lay.b2 is not None:
            x = x + lay.b2
    return x @ params.tok_emb.T


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    """max |got - want| over max |want| (absolute error when want is all zero)."""
    if got.shape != want.shape:
        return float("inf")
    scale = float(np.max(np.abs(want))) or 1.0
    return float(np.max(np.abs(got - want))) / scale
