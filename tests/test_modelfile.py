import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leanformer.compression import (
    dequantize,
    prune_heads,
    prune_layers,
    quantize_params,
)
from leanformer.model import (
    ModelConfig,
    PRESETS,
    init_params,
    iter_params,
    param_count,
)
from leanformer.modelfile import (
    MAGIC,
    VERSION_FLOAT64,
    VERSION_INT8,
    config_from_json_dict,
    config_to_json_dict,
    load_model,
    load_quantized_model,
    save_model,
    save_quantized_model,
)
from leanformer.numerics import rng_uniform_array

small_configs = st.builds(
    ModelConfig,
    vocab_size=st.integers(2, 30),
    max_seq_len=st.integers(1, 6),
    d_model=st.sampled_from([2, 4, 8]),
    n_heads=st.sampled_from([1, 2]),
    d_ff=st.integers(1, 12),
    n_layers=st.integers(0, 2),
    use_bias=st.booleans(),
)


class TestConfigJson:
    def test_plain_roundtrip_has_exact_keys(self):
        doc = config_to_json_dict(PRESETS["paper-baseline"])
        assert set(doc) == {"vocab_size", "max_seq_len", "d_model", "n_heads",
                            "d_ff", "n_layers", "use_bias"}
        assert config_from_json_dict(doc) == PRESETS["paper-baseline"]

    def test_unknown_key_named(self):
        doc = config_to_json_dict(PRESETS["tiny"])
        doc["dropout"] = 0.5
        with pytest.raises(ValueError, match="unknown key 'dropout'"):
            config_from_json_dict(doc)

    def test_missing_key_named(self):
        doc = config_to_json_dict(PRESETS["tiny"])
        del doc["d_model"]
        with pytest.raises(ValueError, match="missing required key 'd_model'"):
            config_from_json_dict(doc)

    def test_wrong_type_named(self):
        doc = config_to_json_dict(PRESETS["tiny"])
        doc["n_heads"] = "two"
        with pytest.raises(ValueError, match="'n_heads' must be an integer"):
            config_from_json_dict(doc)

    def test_use_bias_optional_defaults_false(self):
        doc = config_to_json_dict(PRESETS["tiny"])
        del doc["use_bias"]
        assert config_from_json_dict(doc).use_bias is False

    def test_pruned_fields_rejected_in_strict_mode(self):
        doc = config_to_json_dict(PRESETS["tiny"])
        doc["head_dim"] = 2
        with pytest.raises(ValueError, match="unknown key 'head_dim'"):
            config_from_json_dict(doc, allow_pruned=False)


class TestFloatModelFile:
    def test_header_layout(self, tmp_path):
        cfg = PRESETS["tiny"]
        p = init_params(cfg, 1)
        path = tmp_path / "m.retf"
        save_model(path, cfg, p)
        blob = path.read_bytes()
        assert blob[:4] == MAGIC == b"RETF"
        assert struct.unpack("<I", blob[4:8])[0] == VERSION_FLOAT64
        cfg_len = struct.unpack("<I", blob[8:12])[0]
        doc = json.loads(blob[12:12 + cfg_len].decode("utf-8"))
        assert config_from_json_dict(doc) == cfg
        payload = blob[12 + cfg_len:]
        assert len(payload) == 8 * param_count(cfg)

    def test_baseline_payload_size(self, tmp_path):
        cfg = PRESETS["paper-baseline"]
        p = init_params(cfg, 0)
        path = tmp_path / "base.retf"
        save_model(path, cfg, p)
        blob = path.read_bytes()
        cfg_len = struct.unpack("<I", blob[8:12])[0]
        assert len(blob) - 12 - cfg_len == 140_288 * 8

    def test_roundtrip_bit_exact(self, tmp_path):
        cfg = ModelConfig(17, 5, 8, 2, 12, 2, use_bias=True)
        p = init_params(cfg, 99)
        path = tmp_path / "m.retf"
        save_model(path, cfg, p)
        cfg2, p2 = load_model(path)
        assert cfg2 == cfg
        for (na, a), (nb, b) in zip(iter_params(p), iter_params(p2)):
            assert na == nb
            assert np.array_equal(a, b)

    @given(cfg=small_configs, seed=st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_bit_exact_random(self, tmp_path_factory, cfg, seed):
        p = init_params(cfg, seed)
        path = tmp_path_factory.mktemp("mf") / "m.retf"
        save_model(path, cfg, p)
        cfg2, p2 = load_model(path)
        assert cfg2 == cfg
        for (_, a), (_, b) in zip(iter_params(p), iter_params(p2)):
            assert np.array_equal(a, b)

    def test_same_seed_same_bytes(self, tmp_path):
        cfg = PRESETS["tiny"]
        a, b = tmp_path / "a.retf", tmp_path / "b.retf"
        save_model(a, cfg, init_params(cfg, 7))
        save_model(b, cfg, init_params(cfg, 7))
        assert a.read_bytes() == b.read_bytes()

    def test_pruned_model_roundtrip(self, tmp_path):
        cfg = PRESETS["paper-baseline"]
        p = init_params(cfg, 0)
        pruned, cfg2, _ = prune_heads(p, cfg, 0, {0, 1, 5})
        path = tmp_path / "pruned.retf"
        save_model(path, cfg2, pruned)
        cfg3, p3 = load_model(path)
        assert cfg3 == cfg2
        assert cfg3.head_dim == 4 and cfg3.n_heads == 3
        for (_, a), (_, b) in zip(iter_params(pruned), iter_params(p3)):
            assert np.array_equal(a, b)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.retf"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="bad magic"):
            load_model(path)

    def test_truncated_rejected(self, tmp_path):
        cfg = PRESETS["tiny"]
        path = tmp_path / "m.retf"
        save_model(path, cfg, init_params(cfg, 0))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ValueError, match="truncated"):
            load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        cfg = PRESETS["tiny"]
        path = tmp_path / "m.retf"
        save_model(path, cfg, init_params(cfg, 0))
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(ValueError, match="trailing"):
            load_model(path)

    def test_config_other_than_the_params_rejected(self, tmp_path):
        path = tmp_path / "m.retf"
        with pytest.raises(ValueError, match="save_model: config .* does not describe params"):
            save_model(path, PRESETS["tiny"], init_params(PRESETS["small"], 0))
        assert not path.exists()

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "m.retf"
        path.write_bytes(MAGIC + struct.pack("<I", 9) + b"\x00" * 8)
        with pytest.raises(ValueError, match="version 9"):
            load_model(path)


class TestQuantizedModelFile:
    def test_roundtrip_identical_tensors(self, tmp_path):
        cfg = ModelConfig(9, 4, 4, 2, 8, 1, use_bias=True)
        p = init_params(cfg, 3)
        quantized = quantize_params(p)
        path = tmp_path / "q.retf"
        save_quantized_model(path, cfg, quantized)
        cfg2, loaded = load_quantized_model(path)
        assert cfg2 == cfg
        assert [n for n, _ in loaded] == [n for n, _ in quantized]
        for (_, qa), (_, qb) in zip(quantized, loaded):
            assert qa.scale == qb.scale
            assert np.array_equal(qa.values, qb.values)
            assert np.array_equal(dequantize(qa), dequantize(qb))

    def test_version_tag(self, tmp_path):
        cfg = PRESETS["tiny"]
        p = init_params(cfg, 0)
        path = tmp_path / "q.retf"
        save_quantized_model(path, cfg, quantize_params(p))
        blob = path.read_bytes()
        assert struct.unpack("<I", blob[4:8])[0] == VERSION_INT8
        tag_len = struct.unpack("<I", blob[8:12])[0]
        assert blob[12:12 + tag_len] == b"int8"

    def test_quantized_file_smaller(self, tmp_path):
        cfg = PRESETS["paper-reduced"]
        p = init_params(cfg, 0)
        fpath, qpath = tmp_path / "f.retf", tmp_path / "q.retf"
        save_model(fpath, cfg, p)
        save_quantized_model(qpath, cfg, quantize_params(p))
        assert qpath.stat().st_size < fpath.stat().st_size / 7

    def test_cross_version_loads_rejected(self, tmp_path):
        cfg = PRESETS["tiny"]
        p = init_params(cfg, 0)
        fpath, qpath = tmp_path / "f.retf", tmp_path / "q.retf"
        save_model(fpath, cfg, p)
        save_quantized_model(qpath, cfg, quantize_params(p))
        with pytest.raises(ValueError, match="int8"):
            load_model(qpath)
        with pytest.raises(ValueError, match="float64"):
            load_quantized_model(fpath)


class TestNonFiniteFiles:
    CFG = ModelConfig(9, 4, 4, 2, 8, 1)

    @pytest.mark.parametrize("index, value, name", [(5, np.nan, "tok_emb"),
                                                    (37, -np.inf, "pos_emb"),
                                                    (-1, np.inf, "layers.0.w2")])
    def test_v1_value_named(self, tmp_path, index, value, name):
        p = init_params(self.CFG, 0)
        theta = p.theta.copy()
        theta[index] = value
        path = tmp_path / "m.retf"
        save_model(path, self.CFG, p.with_theta(theta))
        with pytest.raises(ValueError, match=rf"m\.retf: tensor {name} is not finite"):
            load_model(path)

    def v2_file_with_pos_emb_bytes(self, tmp_path, skip, data):
        """A v2 file of CFG with `data` written `skip` bytes into pos_emb's scale and values."""
        quantized = quantize_params(init_params(self.CFG, 0))
        path = tmp_path / "q.retf"
        save_quantized_model(path, self.CFG, quantized)
        blob = bytearray(path.read_bytes())
        # pos_emb's scale follows the header and tok_emb's scale and values
        at = (len(blob) - sum(8 + qt.values.size for _, qt in quantized)
              + 8 + quantized[0][1].values.size + skip)
        blob[at: at + len(data)] = data
        path.write_bytes(bytes(blob))
        return path

    @pytest.mark.parametrize("scale", [np.inf, np.nan, 0.0, -1.0])
    def test_v2_scale_named(self, tmp_path, scale):
        path = self.v2_file_with_pos_emb_bytes(tmp_path, 0, struct.pack("<d", scale))
        with pytest.raises(ValueError, match=r"q\.retf: tensor pos_emb: .*scale must be positive and finite"):
            load_quantized_model(path)

    def test_v2_minus_128_named(self, tmp_path):
        # quantization never writes 0x80; pos_emb's first value follows its scale
        path = self.v2_file_with_pos_emb_bytes(tmp_path, 8, b"\x80")
        with pytest.raises(ValueError, match=r"q\.retf: tensor pos_emb: .*-128 is outside the symmetric range"):
            load_quantized_model(path)


class TestFileBytesPinned:
    # sha256 prefixes of the v1 and v2 files of each paper preset at seed 0
    PINS = {"paper-baseline": ("73833d92dfabf92f", "fcda487d323f9027"),
            "paper-reduced": ("262fd2153af1d734", "6b91f4beb43869ba")}

    @pytest.mark.parametrize("name", PINS)
    def test_v1_and_v2_bytes(self, tmp_path, name):
        cfg = PRESETS[name]
        p = init_params(cfg, 0)
        save_model(tmp_path / "f.retf", cfg, p)
        save_quantized_model(tmp_path / "q.retf", cfg, quantize_params(p))
        digests = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()[:16]
                        for f in ("f.retf", "q.retf"))
        assert digests == self.PINS[name]

    def test_biased_pruned_config_names_and_bytes(self, tmp_path):
        # the presets have no biases and one head count for every layer
        cfg = ModelConfig(13, 6, 8, 4, 16, 2, use_bias=True, head_dim=3, layer_heads=(2, 1))
        p = init_params(cfg, 0)
        assert [name for name, _ in iter_params(p)] == ["tok_emb", "pos_emb"] + [
            f"layers.{i}.{kind}{part}" for i in range(2)
            for part in "qkvo12" for kind in "wb"]
        save_model(tmp_path / "f.retf", cfg, p)
        save_quantized_model(tmp_path / "q.retf", cfg, quantize_params(p))
        digests = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()[:16]
                        for f in ("f.retf", "q.retf"))
        assert digests == ("c76f25ef884f1309", "51fa56873cf2dd48")


def test_head_and_layer_pruning_theta_pinned():
    # sha256 prefixes of theta, so both pruning passes keep their bytes and canonical order
    cfg = ModelConfig(13, 6, 8, 4, 16, 3, use_bias=True)
    heads, heads_cfg, _ = prune_heads(init_params(cfg, 1), cfg, 1, {0, 3})
    layers, _, _ = prune_layers(heads, heads_cfg, [0, 1])
    assert heads_cfg.layer_heads == (4, 2, 4)
    assert [hashlib.sha256(p.theta.tobytes()).hexdigest()[:16] for p in (heads, layers)] == [
        "9fe4f3ca3d04272a", "7744c5da6fac9716"]


def test_pruning_theta_pinned_with_random_biases():
    # init_params leaves biases at zero, so only a random theta lets the pins see their order
    cfg = ModelConfig(13, 6, 8, 4, 16, 3, use_bias=True)
    p = init_params(cfg, 1).with_theta(rng_uniform_array(7, (param_count(cfg),), -0.5, 0.5))
    heads, heads_cfg, _ = prune_heads(p, cfg, 1, {0, 3})
    layers, _, _ = prune_layers(heads, heads_cfg, [0, 1])
    assert [hashlib.sha256(p.theta.tobytes()).hexdigest()[:16] for p in (heads, layers)] == [
        "ed4285162ece52cb", "12b9eff277489517"]
