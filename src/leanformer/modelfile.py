"""Versioned binary model container.

Layout (all integers little-endian):

  magic   4 bytes   b"RETF"
  version u32       1 = float64 payload, 2 = int8 + per-tensor scales
  [v2 only] element-type tag: u32 length + UTF-8 bytes (currently "int8")
  config  u32 length + UTF-8 JSON of the model configuration
  payload v1: every parameter as float64, canonical order, row-major
          (exactly the bytes of ParamSet.theta)
          v2: per tensor one float64 scale, then its int8 values

Round-trips are bit-exact. Loaders reject trailing or missing bytes, NaN or
infinite float64 values, and v2 scales that are not positive and finite.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .compression import QuantizedTensor
from .model import ModelConfig, ParamSet, _check_finite, _freeze, param_count, param_layout

MAGIC = b"RETF"
VERSION_FLOAT64 = 1
VERSION_INT8 = 2
_INT8_TAG = "int8"

_CONFIG_KEYS = ("vocab_size", "max_seq_len", "d_model", "n_heads",
                "d_ff", "n_layers", "use_bias")


def config_to_json_dict(cfg: ModelConfig) -> dict:
    doc = {key: getattr(cfg, key) for key in _CONFIG_KEYS}
    # structural-pruning fields only appear when they carry information,
    # so ordinary models serialize with exactly the documented keys
    if cfg.head_dim is not None:
        doc["head_dim"] = cfg.head_dim
    if cfg.layer_heads is not None:
        doc["layer_heads"] = list(cfg.layer_heads)
    return doc


def config_from_json_dict(doc: dict, *, allow_pruned: bool = True) -> ModelConfig:
    """Parse a config JSON object with key-specific error messages."""
    if not isinstance(doc, dict):
        raise ValueError("config: expected a JSON object")
    allowed = set(_CONFIG_KEYS) | ({"head_dim", "layer_heads"} if allow_pruned else set())
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ValueError(f"config: unknown key {unknown[0]!r}")
    kwargs = {}
    for key in _CONFIG_KEYS:
        if key == "use_bias":
            value = doc.get(key, False)
            if not isinstance(value, bool):
                raise ValueError(f"config: key 'use_bias' must be a boolean, got {value!r}")
        else:
            if key not in doc:
                raise ValueError(f"config: missing required key '{key}'")
            value = doc[key]
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"config: key '{key}' must be an integer, got {value!r}")
        kwargs[key] = value
    if "head_dim" in doc:
        if not isinstance(doc["head_dim"], int) or isinstance(doc["head_dim"], bool):
            raise ValueError(f"config: key 'head_dim' must be an integer, got {doc['head_dim']!r}")
        kwargs["head_dim"] = doc["head_dim"]
    if "layer_heads" in doc:
        lh = doc["layer_heads"]
        if not isinstance(lh, list) or not all(isinstance(h, int) and not isinstance(h, bool) for h in lh):
            raise ValueError(f"config: key 'layer_heads' must be a list of integers, got {lh!r}")
        kwargs["layer_heads"] = tuple(lh)
    try:
        return ModelConfig(**kwargs)
    except ValueError as exc:
        raise ValueError(f"config: {exc}") from exc


def parse_config(raw: bytes, source: str | Path, *, allow_pruned: bool = True) -> ModelConfig:
    """Decode UTF-8 config JSON read from `source`; every failure is a ValueError naming it."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, deep nesting
        raise ValueError(f"{source}: config is not valid JSON: {exc}") from exc
    try:
        return config_from_json_dict(doc, allow_pruned=allow_pruned)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from exc


def _config_block(cfg: ModelConfig) -> bytes:
    raw = json.dumps(config_to_json_dict(cfg), sort_keys=True).encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


class _Reader:
    def __init__(self, blob: bytes, path: str):
        self.blob = blob
        self.pos = 0
        self.path = path

    def skip(self, n: int) -> int:
        """Claim the next n bytes; returns their offset in the blob."""
        if self.pos + n > len(self.blob):
            raise ValueError(f"{self.path}: truncated model file")
        self.pos += n
        return self.pos - n

    def take(self, n: int) -> bytes:
        start = self.skip(n)
        return self.blob[start: start + n]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def expect(self, n: int) -> None:
        """Require exactly n bytes after the header, before anything sized from it is built."""
        left = len(self.blob) - self.pos
        if left < n:
            raise ValueError(f"{self.path}: truncated model file")
        if left > n:
            raise ValueError(f"{self.path}: {left - n} trailing bytes")


def save_model(path: str | Path, cfg: ModelConfig, p: ParamSet) -> None:
    """Write a version-1 (float64) model file."""
    header = MAGIC + struct.pack("<I", VERSION_FLOAT64) + _config_block(cfg)
    Path(path).write_bytes(header + p.theta.astype("<f8", copy=False).tobytes())


def save_quantized_model(
    path: str | Path, cfg: ModelConfig, quantized: list[tuple[str, QuantizedTensor]]
) -> None:
    """Write a version-2 (int8 + scales) model file."""
    tag = _INT8_TAG.encode("utf-8")
    chunks = [MAGIC, struct.pack("<I", VERSION_INT8),
              struct.pack("<I", len(tag)) + tag, _config_block(cfg)]
    for _, qt in quantized:
        chunks.append(struct.pack("<d", qt.scale))
        chunks.append(qt.values.astype("|i1").tobytes())
    Path(path).write_bytes(b"".join(chunks))


def read_header(path: str | Path) -> tuple[int, ModelConfig, _Reader]:
    blob = Path(path).read_bytes()
    r = _Reader(blob, str(path))
    if r.take(4) != MAGIC:
        raise ValueError(f"{path}: not a model file (bad magic)")
    version = r.u32()
    if version not in (VERSION_FLOAT64, VERSION_INT8):
        raise ValueError(f"{path}: unsupported format version {version}")
    if version == VERSION_INT8:
        tag = r.take(r.u32()).decode("utf-8")
        if tag != _INT8_TAG:
            raise ValueError(f"{path}: unsupported element type '{tag}'")
    return version, parse_config(r.take(r.u32()), path), r


def load_model(path: str | Path) -> tuple[ModelConfig, ParamSet]:
    """Load a version-1 model file; rejects quantized files."""
    version, cfg, r = read_header(path)
    if version != VERSION_FLOAT64:
        raise ValueError(
            f"{path}: version {version} holds int8 data; expected a float64 (version 1) file"
        )
    n = param_count(cfg)
    r.expect(8 * n)
    theta = np.frombuffer(r.blob, dtype="<f8", count=n, offset=r.pos).astype(np.float64)
    p = ParamSet(_freeze(theta), param_layout(cfg))
    _check_finite(p, f"{path}: tensor")
    return cfg, p


def load_quantized_model(
    path: str | Path,
) -> tuple[ModelConfig, list[tuple[str, QuantizedTensor]]]:
    """Load a version-2 model file as named quantized tensors."""
    version, cfg, r = read_header(path)
    if version != VERSION_INT8:
        raise ValueError(
            f"{path}: version {version} holds float64 data; expected an int8 (version 2) file"
        )
    # one float64 scale per tensor, then one byte per value
    r.expect(8 * (2 + cfg.n_layers * (12 if cfg.use_bias else 6)) + param_count(cfg))
    tensors = []
    for name, shape in param_layout(cfg):
        scale = struct.unpack("<d", r.take(8))[0]
        n = math.prod(shape)
        # bias vectors are stored (and quantized) as 1 x n tensors
        qshape = shape if len(shape) == 2 else (1, n)
        values = np.frombuffer(r.take(n), dtype="|i1").reshape(qshape).copy()
        try:
            tensors.append((name, QuantizedTensor(values, scale)))
        except ValueError as exc:
            raise ValueError(f"{path}: tensor {name}: {exc}") from exc
    return cfg, tensors
