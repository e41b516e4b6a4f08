"""The model-file loaders on bytes from outside the program: size arithmetic and mutations."""

import json
import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leanformer.compression import quantize_params
from leanformer.model import PRESETS, ModelConfig, init_params, param_count
from leanformer.modelfile import (
    MAGIC, VERSION_FLOAT64, VERSION_INT8, load_model, load_quantized_model, save_model,
    save_quantized_model,
)

LOADERS = {VERSION_FLOAT64: load_model, VERSION_INT8: load_quantized_model}


def header(version, doc):
    """Magic, version, (for v2) the int8 tag and the config block: a file with no payload."""
    config = json.dumps(doc).encode("utf-8")
    tag = b"" if version == VERSION_FLOAT64 else struct.pack("<I", 4) + b"int8"
    return MAGIC + struct.pack("<I", version) + tag + struct.pack("<I", len(config)) + config


def load_peak(load, path):
    """tracemalloc peak of one load, which may raise only ValueError."""
    tracemalloc.start()
    try:
        load(path)
    except ValueError:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def peak_bound(size):
    """A loader may hold a few copies of the file, plus a fixed few tens of kilobytes."""
    return 4 * size + 32_000


@pytest.mark.parametrize("version, loader", LOADERS.items())
def test_dims_whose_product_wraps_int64_read_as_truncated(tmp_path, version, loader):
    # tok_emb is 2**32 x 2**32: its element count wraps to 0 in int64
    doc = {"vocab_size": 2**32, "max_seq_len": 1, "d_model": 2**32,
           "n_heads": 1, "d_ff": 1, "n_layers": 0}
    path = tmp_path / "huge.retf"
    path.write_bytes(header(version, doc) + bytes(64))
    with pytest.raises(ValueError, match="truncated"):
        loader(path)


@pytest.mark.parametrize("version, loader", LOADERS.items())
def test_deep_header_without_payload_fails_before_layout(tmp_path, version, loader):
    # the payload size is checked before a 100,000-layer layout is built
    doc = {"vocab_size": 2, "max_seq_len": 1, "d_model": 1, "n_heads": 1, "d_ff": 1,
           "n_layers": 100_000}
    path = tmp_path / "deep.retf"
    path.write_bytes(header(version, doc))
    with pytest.raises(ValueError, match=r"deep\.retf: truncated model file"):
        loader(path)
    assert load_peak(loader, path) <= peak_bound(path.stat().st_size)


def test_v2_values_without_scales_fail_before_layout(tmp_path):
    # one byte per value of a 200-layer, one-wide model, but no 8-byte scales:
    # the file holds more bytes than values, so only the exact size can refuse it
    doc = {"vocab_size": 1, "max_seq_len": 1, "d_model": 1, "n_heads": 1, "d_ff": 1,
           "n_layers": 200, "use_bias": True}
    path = tmp_path / "scaleless.retf"
    path.write_bytes(header(VERSION_INT8, doc) + bytes(2 + 12 * 200))
    with pytest.raises(ValueError, match=r"scaleless\.retf: truncated model file"):
        load_quantized_model(path)
    assert load_peak(load_quantized_model, path) <= peak_bound(path.stat().st_size)


@pytest.mark.parametrize("edit, message", [(lambda b: b[:-1], "truncated model file"),
                                           (lambda b: b + b"xyz", "3 trailing bytes")],
                         ids=["short", "long"])
def test_v2_payload_size_named(tmp_path, edit, message):
    cfg = PRESETS["tiny"]
    path = tmp_path / "q.retf"
    save_quantized_model(path, cfg, quantize_params(init_params(cfg, 0)))
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValueError, match=message):
        load_quantized_model(path)


OTHER = {VERSION_FLOAT64: VERSION_INT8, VERSION_INT8: VERSION_FLOAT64}
ERRORS = [  # (case, the file a loader of version v is given, the exact error after "<path>: ")
    ("bad-magic", lambda files, v: b"RETX" + files[v][4:], "not a model file (bad magic)"),
    ("unknown-version", lambda files, v: MAGIC + struct.pack("<I", 3) + files[v][8:],
     "unsupported format version 3"),
    ("unknown-tag", lambda files, v: files[VERSION_INT8].replace(b"int8", b"int4", 1),
     "unsupported element type 'int4'"),
    ("version-mismatch", lambda files, v: files[OTHER[v]],
     {VERSION_FLOAT64: "version 2 holds int8 data; expected a float64 (version 1) file",
      VERSION_INT8: "version 1 holds float64 data; expected an int8 (version 2) file"}),
    ("truncated", lambda files, v: files[v][:-1], "truncated model file"),
    ("truncated-header", lambda files, v: files[v][:10], "truncated model file"),
    ("trailing", lambda files, v: files[v] + b"xyz", "3 trailing bytes"),
]


@pytest.mark.parametrize("version", LOADERS, ids=["v1", "v2"])
@pytest.mark.parametrize("edit, message", [case[1:] for case in ERRORS],
                         ids=[case[0] for case in ERRORS])
def test_loader_error_text(tmp_path, version, edit, message):
    cfg = ModelConfig(9, 4, 4, 2, 8, 1, use_bias=True)
    p = init_params(cfg, 0)
    save_model(tmp_path / "v1.retf", cfg, p)
    save_quantized_model(tmp_path / "v2.retf", cfg, quantize_params(p))
    files = {VERSION_FLOAT64: (tmp_path / "v1.retf").read_bytes(),
             VERSION_INT8: (tmp_path / "v2.retf").read_bytes()}
    path = tmp_path / "case.retf"
    path.write_bytes(edit(files, version))
    with pytest.raises(ValueError) as exc:
        LOADERS[version](path)
    text = message if isinstance(message, str) else message[version]
    assert str(exc.value) == f"{path}: {text}"


FUZZ_CFG = ModelConfig(vocab_size=7, max_seq_len=3, d_model=4, n_heads=2, d_ff=5, n_layers=1,
                       use_bias=True)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    p = init_params(FUZZ_CFG, 5)
    save_model(root / "v1.retf", FUZZ_CFG, p)
    save_quantized_model(root / "v2.retf", FUZZ_CFG, quantize_params(p))
    return root, {v: (root / f"v{v}.retf").read_bytes() for v in LOADERS}


byte_edits = st.lists(st.tuples(st.integers(0, 2**16), st.binary(min_size=1, max_size=4)),
                      max_size=4)


@given(version=st.sampled_from(sorted(LOADERS)), writes=byte_edits, inserts=byte_edits,
       cut=st.one_of(st.none(), st.integers(0, 1600)))
@settings(max_examples=200, deadline=None)
def test_mutated_files_raise_only_value_error_within_bounded_memory(
        fuzz_files, version, writes, inserts, cut):
    root, originals = fuzz_files
    blob = bytearray(originals[version])
    for at, data in writes:
        at %= len(blob)
        blob[at: at + len(data)] = data
    for at, data in inserts:
        at %= len(blob) + 1
        blob[at:at] = data
    path = root / "mutant.retf"
    path.write_bytes(bytes(blob[:cut]))
    for load in LOADERS.values():
        assert load_peak(load, path) <= peak_bound(path.stat().st_size)


SLACK = 64_000  # header, config, layout and ParamSet views


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("name", ["paper-baseline", "paper-reduced"])
def test_files_stream_between_disk_and_theta(tmp_path, name):
    # a save holds no copy of the payload, and a load holds only the one it returns
    cfg = PRESETS[name]
    p = init_params(cfg, 0)
    quantized = quantize_params(p)
    v1, v2 = tmp_path / "f.retf", tmp_path / "q.retf"
    assert traced_peak(save_model, v1, cfg, p) <= SLACK
    assert traced_peak(load_model, v1) <= 8 * param_count(cfg) + SLACK
    assert traced_peak(save_quantized_model, v2, cfg, quantized) <= SLACK
    assert traced_peak(load_quantized_model, v2) <= param_count(cfg) + SLACK
