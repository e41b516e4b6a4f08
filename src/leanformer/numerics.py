"""The forward's matrix helpers and the package's one SplitMix64 stream.

The forward pass multiplies, rectifies and normalizes through the helpers
in this module; the backward works on numpy arrays directly. Matrices are
plain 2-D float64 numpy arrays in row-major order, or stacks of them that
the helpers take slice by slice. All randomness comes from one SplitMix64
stream, so every run is reproducible bit-for-bit from a single integer seed.
"""

from __future__ import annotations

import operator

import numpy as np

# A Matrix is a 2-D float64 ndarray, or a stack of them along leading axes.
# Kept as an alias rather than a wrapper class so the linear algebra stays plain numpy.
Matrix = np.ndarray

_MASK64 = (1 << 64) - 1

# SplitMix64 constants (Steele, Lea & Flood's published mixer).
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def matmul(a: Matrix, b: Matrix, out: Matrix | None = None) -> Matrix:
    """Matrix product with an explicit shape check.

    `a` is a matrix or a stack; `b` is one matrix for every slice of `a`, or a
    stack of `a`'s leading shape. Each slice's product is the 2-D one, bit for bit.
    Accumulation happens in float64; on a given platform the result is
    deterministic for identical inputs. `out`, when given, receives the
    product in place and is returned.
    """
    if (a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]
            or b.ndim > 2 and b.shape[:-2] != a.shape[:-2]):
        raise ValueError(
            f"matmul: incompatible shapes {tuple(a.shape)} x {tuple(b.shape)}"
        )
    return np.matmul(a, b, out=out)


def softmax_rows(m: Matrix, out: Matrix | None = None) -> Matrix:
    """Softmax along the last axis of a matrix or a stack, the max subtracted first.

    The subtraction is required for numerical stability and makes the
    result invariant to adding a constant to a row. `out`, when given (`m`
    itself included), is worked in, receives the result and is returned;
    beside it only row vectors and numpy's working buffers are made.
    """
    if m.ndim < 2 or m.shape[-1] < 1:
        raise ValueError(f"softmax_rows: expected a non-empty 2-D or stacked array, got shape {m.shape}")
    e = np.subtract(m, m.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    return np.divide(e, e.sum(axis=-1, keepdims=True), out=e)


def relu(m: Matrix, out: Matrix | None = None) -> Matrix:
    """max(m, 0) elementwise; `out`, when given (`m` itself included), receives it and is returned."""
    return np.maximum(m, 0.0, out=out)


def rng_uniform_array(seed: int, shape: tuple[int, ...], lo: float, hi: float) -> np.ndarray:
    """`shape`-many SplitMix64 draws from `seed`, uniform in [lo, hi), row-major.

    Draw k advances the state to seed + k * GAMMA (mod 2**64), mixes it,
    and keeps the top 53 bits of the output as a fraction in [0, 1). Any
    integer type seeds the stream, numpy's included.
    """
    if not lo < hi:
        raise ValueError(f"rng_uniform_array: empty interval [{lo}, {hi})")
    n = int(np.prod(shape, dtype=np.int64)) if shape else 1
    if n < 1:
        raise ValueError(f"rng_uniform_array: empty shape {shape}")
    # all n mixer inputs are known up front; uint64 array arithmetic wraps mod 2^64
    steps = np.arange(1, n + 1, dtype=np.uint64)
    s = np.uint64(operator.index(seed) & _MASK64) + np.uint64(_GAMMA) * steps
    z = (s ^ (s >> np.uint64(30))) * np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
    z = z ^ (z >> np.uint64(31))
    u = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
    out = lo + (hi - lo) * u
    return out.reshape(shape)
