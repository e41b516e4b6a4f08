"""Versioned binary model container.

Layout (all integers little-endian):

  magic   4 bytes   b"RETF"
  version u32       1 = float64 payload, 2 = int8 + per-tensor scales
  [v2 only] element-type tag: u32 length + UTF-8 bytes (currently "int8")
  config  u32 length + UTF-8 JSON of the model configuration
  payload v1: every parameter as float64, canonical order, row-major
          (exactly the bytes of ParamSet.theta)
          v2: per tensor one float64 scale, then its int8 values
          (`compression.quantized_memory_bytes(cfg)` bytes in all)

Files stream between disk and arrays: a save writes the header and then
theta's (or each int8 tensor's) own buffer, and a load reads the header
fields with reads bounded by the file's length, then reads the payload
straight into the arrays it returns (`readinto`), so neither side holds a
second copy of the parameters. Shapes come from the config: an int8 tensor
loads in its parameter's shape. Both loaders open files through `_open`.

Round-trips are bit-exact. Loaders reject trailing or missing bytes, NaN or
infinite float64 values, and v2 scales that are not positive and finite.
Every size the header implies is checked against the file's length before
anything is allocated from it.
"""

from __future__ import annotations

import json
import os
import struct
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .compression import QuantizedTensor, quantized_memory_bytes
from .model import ModelConfig, ParamSet, _check_finite, _freeze, param_count, param_layout

MAGIC = b"RETF"
VERSION_FLOAT64 = 1
VERSION_INT8 = 2
_INT8_TAG = "int8"
# per version: what its payload holds, and how an error names a file of it
_HOLDS = {VERSION_FLOAT64: ("float64", "a float64"), VERSION_INT8: ("int8", "an int8")}

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
    """Bounded reads from an open model file, each checked against the bytes it has left.

    A `with` block closes the file.
    """

    def __init__(self, path: str | Path):
        self.path = str(path)
        self.file = open(path, "rb")
        self.left = os.fstat(self.file.fileno()).st_size

    def __enter__(self) -> _Reader:
        return self

    def __exit__(self, *exc) -> None:
        self.file.close()

    def into(self, a: np.ndarray) -> np.ndarray:
        """Fill the C-contiguous array `a` with the next `a.nbytes` bytes and return it."""
        if a.nbytes > self.left or self.file.readinto(a.reshape(-1).view(np.uint8)) != a.nbytes:
            raise ValueError(f"{self.path}: truncated model file")
        self.left -= a.nbytes
        return a

    def take(self, n: int) -> bytes:
        """The next n bytes; nothing larger than the rest of the file is read."""
        data = self.file.read(min(n, self.left))
        if len(data) != n:
            raise ValueError(f"{self.path}: truncated model file")
        self.left -= n
        return data

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def expect(self, n: int) -> None:
        """Require exactly n bytes after the header, before anything sized from it is built."""
        if self.left < n:
            raise ValueError(f"{self.path}: truncated model file")
        if self.left > n:
            raise ValueError(f"{self.path}: {self.left - n} trailing bytes")


def save_model(path: str | Path, cfg: ModelConfig, p: ParamSet) -> None:
    """Write a version-1 (float64) model file: the header, then theta's own buffer."""
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<I", VERSION_FLOAT64) + _config_block(cfg))
        f.write(np.ascontiguousarray(p.theta, dtype="<f8"))


def save_quantized_model(
    path: str | Path, cfg: ModelConfig, quantized: list[tuple[str, QuantizedTensor]]
) -> None:
    """Write a version-2 (int8 + scales) model file."""
    tag = _INT8_TAG.encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<I", VERSION_INT8) + struct.pack("<I", len(tag)) + tag
                + _config_block(cfg))
        for _, qt in quantized:
            f.write(struct.pack("<d", qt.scale))
            f.write(np.ascontiguousarray(qt.values, dtype="|i1"))


@contextmanager
def _open(path: str | Path, version: int) -> Iterator[tuple[ModelConfig, _Reader]]:
    """The config of a model file of `version`, and a reader at its payload; exiting closes it.

    Checks the magic, the version, the v2 element tag, the config, then `version`, in that order.
    """
    with _Reader(path) as r:
        if r.take(4) != MAGIC:
            raise ValueError(f"{path}: not a model file (bad magic)")
        found = r.u32()
        if found not in _HOLDS:
            raise ValueError(f"{path}: unsupported format version {found}")
        if found == VERSION_INT8:
            tag = r.take(r.u32()).decode("utf-8")
            if tag != _INT8_TAG:
                raise ValueError(f"{path}: unsupported element type '{tag}'")
        cfg = parse_config(r.take(r.u32()), path)
        if found != version:
            raise ValueError(f"{path}: version {found} holds {_HOLDS[found][0]} data; "
                             f"expected {_HOLDS[version][1]} (version {version}) file")
        yield cfg, r


def load_model(path: str | Path) -> tuple[ModelConfig, ParamSet]:
    """Load a version-1 model file; rejects quantized files."""
    with _open(path, VERSION_FLOAT64) as (cfg, r):
        n = param_count(cfg)
        r.expect(8 * n)
        theta = r.into(np.empty(n, "<f8")).astype(np.float64, copy=False)
    p = ParamSet(_freeze(theta), param_layout(cfg))
    _check_finite(p, f"{path}: tensor")
    return cfg, p


def load_quantized_model(
    path: str | Path,
) -> tuple[ModelConfig, list[tuple[str, QuantizedTensor]]]:
    """Load a version-2 model file as named quantized tensors."""
    with _open(path, VERSION_INT8) as (cfg, r):
        # checked before the layout is built, since a header can name any number of layers
        r.expect(quantized_memory_bytes(cfg))
        tensors = []
        for name, shape in param_layout(cfg):
            scale = struct.unpack("<d", r.take(8))[0]
            values = r.into(np.empty(shape, np.int8))
            try:
                tensors.append((name, QuantizedTensor(values, scale)))
            except ValueError as exc:
                raise ValueError(f"{path}: tensor {name}: {exc}") from exc
    return cfg, tensors
