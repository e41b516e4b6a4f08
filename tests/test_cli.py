import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import leanformer
from leanformer import compression, modelfile, profiler
from leanformer.cli import main
from leanformer.model import ModelConfig, PRESETS, init_params, param_count
from leanformer.modelfile import (
    MAGIC, VERSION_FLOAT64, load_model, load_quantized_model, save_model,
)


def write_config(tmp_path, name="cfg.json", **overrides):
    doc = {"vocab_size": 30, "max_seq_len": 6, "d_model": 8, "n_heads": 2,
           "d_ff": 16, "n_layers": 1, "use_bias": False}
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc), "utf-8")
    return path


def assert_input_error(capsys, code, path):
    """Exit 2 with exactly one `error:` line on stderr that names `path`."""
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err
    assert "Traceback" not in err
    return err


class TestInit:
    def test_preset_payload_size(self, tmp_path, capsys):
        out = tmp_path / "base.retf"
        assert main(["init", "--config", "paper-baseline", "--out", str(out)]) == 0
        blob = out.read_bytes()
        cfg_len = struct.unpack("<I", blob[8:12])[0]
        assert len(blob) - 12 - cfg_len == 140_288 * 8
        printed = capsys.readouterr().out
        assert "140288" in printed and "1122304" in printed

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.retf", tmp_path / "b.retf"
        main(["init", "--config", "tiny", "--seed", "4", "--out", str(a)])
        main(["init", "--config", "tiny", "--seed", "4", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_config_file_exit_2(self, tmp_path, capsys):
        code = main(["init", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "m.retf")])
        assert code == 2
        assert "neither a preset" in capsys.readouterr().err

    def test_config_file_accepted(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "m.retf"
        assert main(["init", "--config", str(cfg_path), "--out", str(out)]) == 0
        cfg, _ = load_model(out)
        assert cfg.vocab_size == 30

    def test_bad_key_named_in_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, extra_key=1)
        code = main(["init", "--config", str(cfg_path), "--out", str(tmp_path / "m.retf")])
        assert code == 2
        assert "extra_key" in capsys.readouterr().err

    def test_invalid_value_named_in_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, n_heads=3)  # does not divide d_model=8
        code = main(["init", "--config", str(cfg_path), "--out", str(tmp_path / "m.retf")])
        assert code == 2
        assert "n_heads" in capsys.readouterr().err

    def test_directory_as_config_exit_2(self, tmp_path, capsys):
        code = main(["init", "--config", str(tmp_path), "--out", str(tmp_path / "m.retf")])
        assert_input_error(capsys, code, tmp_path)

    @pytest.mark.parametrize("where", ["directory", "missing directory"])
    def test_bad_init_out_refused_before_building(self, tmp_path, capsys, monkeypatch, where):
        built = []
        monkeypatch.setattr(leanformer.cli, "init_params", lambda *a: built.append(a))
        out = tmp_path if where == "directory" else tmp_path / "nodir" / "m.retf"
        code = main(["init", "--config", "tiny", "--out", str(out)])
        reason = "is a directory" if where == "directory" else f"directory {out.parent} does not exist"
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {out}: {reason}\n")
        assert built == []


class TestCompare:
    def test_paper_presets_table_and_json(self, tmp_path, capsys):
        json_path = tmp_path / "cmp.json"
        code = main(["compare", "--baseline", "paper-baseline", "--variant", "paper-reduced",
                     "--reps", "3", "--warmup", "1", "--json", str(json_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "140,288" in out and "67,072" in out
        assert "1,122,304" in out and "536,576" in out
        doc = json.loads(json_path.read_text("utf-8"))
        assert doc["baseline"]["param_count"] == 140_288
        assert doc["variant"]["param_count"] == 67_072
        assert doc["baseline"]["param_bytes"] == 1_122_304
        assert doc["variant"]["param_bytes"] == 536_576
        assert doc["reductions_pct"]["param_count"] == pytest.approx(52.19, abs=0.01)
        # the JSON, not the profiler's report, names the host behind its timings
        assert doc["host"] == profiler.host_block()
        assert {"p10_s", "p90_s"} <= set(doc["baseline"]["timing"])

    def test_identical_configs_zero_reduction(self, capsys):
        code = main(["compare", "--baseline", "tiny", "--variant", "tiny",
                     "--seq", "4", "--batch", "4", "--reps", "2", "--warmup", "0"])
        assert code == 0
        assert "0.00%" in capsys.readouterr().out

    def test_seq_beyond_config_exit_2(self, capsys):
        code = main(["compare", "--baseline", "tiny", "--variant", "tiny",
                     "--reps", "2", "--warmup", "0"])
        assert code == 2
        assert "max_seq_len" in capsys.readouterr().err

    def test_unwritable_json_path_exit_2(self, tmp_path, capsys):
        code = main(["compare", "--baseline", "tiny", "--variant", "tiny", "--seq", "4",
                     "--batch", "2", "--reps", "1", "--warmup", "0", "--json", str(tmp_path)])
        assert_input_error(capsys, code, tmp_path)

    @pytest.mark.parametrize("where", ["directory", "missing directory"])
    def test_bad_json_path_refused_before_profiling(self, tmp_path, capsys, monkeypatch, where):
        profiled = []
        monkeypatch.setattr(profiler, "profile_model", lambda *a, **k: profiled.append(a))
        out = tmp_path if where == "directory" else tmp_path / "nodir" / "c.json"
        code = main(["compare", "--baseline", "tiny", "--variant", "tiny", "--json", str(out)])
        assert_input_error(capsys, code, out)
        assert profiled == []

    def test_json_deterministic_outside_timing(self, tmp_path, capsys):
        docs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert main(["compare", "--baseline", "paper-baseline",
                         "--variant", "paper-reduced", "--seed", "9",
                         "--reps", "2", "--warmup", "0", "--json", str(path)]) == 0
            doc = json.loads(path.read_text("utf-8"))
            for side in ("baseline", "variant"):
                del doc[side]["timing"]
            del doc["ratios"]["time_median_s"]
            del doc["reductions_pct"]["time_median_s"]
            docs.append(doc)
        assert docs[0] == docs[1]


class TestTrain:
    def test_small_preset_improves(self, capsys):
        code = main(["train", "--config", "small", "--iters", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("iter ") == 10

    def test_zero_lr_exit_1(self, capsys):
        code = main(["train", "--config", "small", "--iters", "3", "--lr", "0"])
        assert code == 1

    def test_single_iteration_prints_one_line(self, capsys):
        # one iteration cannot demonstrate a strict decrease, so the
        # checked-condition exit applies
        code = main(["train", "--config", "tiny", "--iters", "1"])
        assert code == 1
        assert capsys.readouterr().out.count("iter ") == 1

    def test_negative_lr_exit_2(self, capsys):
        assert main(["train", "--config", "tiny", "--lr", "-1"]) == 2

    def test_seq_beyond_config_exit_2(self, capsys):
        code = main(["train", "--config", "tiny", "--seq", "99"])
        out, err = capsys.readouterr()
        assert code == 2
        assert err == "error: --seq 99 exceeds max_seq_len 4\n"
        assert "iter" not in out

    def test_non_numeric_flag_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", "tiny", "--iters", "many"])
        assert exc.value.code == 2

    def test_zero_iters_exit_2(self, capsys):
        code = main(["train", "--config", "tiny", "--iters", "0"])
        out, err = capsys.readouterr()
        assert code == 2
        assert err == "error: --iters must be >= 1, got 0\n" and out == ""

    @pytest.mark.parametrize("lr", ["0.05", "0"])
    def test_jsonl_has_one_record_per_step_and_stdout_is_unchanged(self, lr, tmp_path, capsys):
        command = ["train", "--config", "small", "--iters", "4", "--lr", lr]
        code = main(command)
        plain = capsys.readouterr()
        path = tmp_path / "steps.jsonl"
        assert main(command + ["--jsonl", str(path)]) == code
        assert capsys.readouterr() == plain
        records = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
        assert [sorted(r) for r in records] == [["iter", "loss", "step_s", "update_norm"]] * 4
        assert [r["iter"] for r in records] == [1, 2, 3, 4]
        assert [f"iter {r['iter']}: loss {r['loss']:.6f}" for r in records] == plain.out.splitlines()
        assert all(r["step_s"] > 0 for r in records)
        # ||theta' - theta|| / lr is the gradient's norm; no step is taken at lr 0
        norms = [r["update_norm"] for r in records]
        assert norms == [None] * 4 if lr == "0" else all(0 < norm < 1 for norm in norms)

    def test_jsonl_into_a_directory_exit_2_before_training(self, tmp_path, capsys):
        code = main(["train", "--config", "tiny", "--jsonl", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert err == f"error: {tmp_path}: is a directory\n"
        assert "iter" not in out


class TestCompress:
    @pytest.fixture
    def model_path(self, tmp_path):
        path = tmp_path / "m.retf"
        assert main(["init", "--config", "paper-baseline", "--out", str(path)]) == 0
        return path

    def test_quantize_writes_v2(self, tmp_path, model_path, capsys):
        out = tmp_path / "q.retf"
        assert main(["compress", "quantize", "--model", str(model_path),
                     "--out", str(out)]) == 0
        cfg, tensors = load_quantized_model(out)
        assert param_count(cfg) == 140_288
        assert len(tensors) == 8
        printed = capsys.readouterr().out
        assert "140288" in printed.replace(",", "") or "140288" in printed
        # int8 payload: params + scales, far below 1,122,304 float bytes
        assert out.stat().st_size < 1_122_304 / 7

    def test_prune_magnitude_zero_threshold_identity(self, tmp_path, model_path):
        out = tmp_path / "p.retf"
        assert main(["compress", "prune-magnitude", "--model", str(model_path),
                     "--out", str(out), "--threshold", "0"]) == 0
        cfg_a, pa = load_model(model_path)
        cfg_b, pb = load_model(out)
        assert cfg_a == cfg_b
        from leanformer.model import iter_params
        for (_, a), (_, b) in zip(iter_params(pa), iter_params(pb)):
            assert np.array_equal(a, b)

    def test_prune_heads_count_drop(self, tmp_path, model_path, capsys):
        out = tmp_path / "h.retf"
        assert main(["compress", "prune-heads", "--model", str(model_path),
                     "--out", str(out), "--layer", "0", "--keep", "0,1,2,3"]) == 0
        cfg, params = load_model(out)
        assert param_count(cfg) == 140_288 - 4 * 4 * 32 * 4
        printed = capsys.readouterr().out
        assert "140288 -> 138240" in printed

    def test_prune_layers(self, tmp_path):
        cfg_path = write_config(tmp_path, n_layers=2)
        model = tmp_path / "m2.retf"
        assert main(["init", "--config", str(cfg_path), "--out", str(model)]) == 0
        out = tmp_path / "l.retf"
        assert main(["compress", "prune-layers", "--model", str(model),
                     "--out", str(out), "--keep-layers", "1"]) == 0
        cfg, _ = load_model(out)
        assert cfg.n_layers == 1

    def test_pass_on_quantized_file_exit_2(self, tmp_path, model_path, capsys):
        qpath = tmp_path / "q.retf"
        main(["compress", "quantize", "--model", str(model_path), "--out", str(qpath)])
        code = main(["compress", "prune-magnitude", "--model", str(qpath),
                     "--out", str(tmp_path / "x.retf"), "--threshold", "0.1"])
        assert code == 2
        assert "int8" in capsys.readouterr().err

    def test_missing_model_exit_2(self, tmp_path, capsys):
        code = main(["compress", "quantize", "--model", str(tmp_path / "none.retf"),
                     "--out", str(tmp_path / "q.retf")])
        assert code == 2

    def test_bad_keep_list_exit_2(self, tmp_path, model_path):
        code = main(["compress", "prune-heads", "--model", str(model_path),
                     "--out", str(tmp_path / "x.retf"), "--layer", "0", "--keep", "a,b"])
        assert code == 2

    def test_directory_as_model_exit_2(self, tmp_path, capsys):
        code = main(["compress", "quantize", "--model", str(tmp_path),
                     "--out", str(tmp_path / "q.retf")])
        assert_input_error(capsys, code, tmp_path)

    @pytest.mark.parametrize("pass_args", [["quantize"],
                                           ["prune-magnitude", "--threshold", "0"]])
    def test_out_in_missing_directory_exit_2(self, tmp_path, model_path, capsys, pass_args):
        out = tmp_path / "nodir" / "x.retf"
        code = main(["compress", pass_args[0], "--model", str(model_path),
                     "--out", str(out), *pass_args[1:]])
        assert_input_error(capsys, code, out)

    @pytest.mark.parametrize("pass_args", [["quantize"], ["prune-magnitude", "--threshold", "0"],
                                           ["prune-heads", "--layer", "0", "--keep", "0"],
                                           ["prune-layers", "--keep-layers", "0"]])
    @pytest.mark.parametrize("where", ["directory", "missing directory"])
    def test_bad_out_refused_before_loading_or_compressing(
            self, tmp_path, model_path, capsys, monkeypatch, pass_args, where):
        calls = []
        for module, name in ((modelfile, "load_model"), (compression, "quantize_params"),
                             (compression, "prune_magnitude"), (compression, "prune_heads"),
                             (compression, "prune_layers")):
            monkeypatch.setattr(module, name, lambda *a, name=name: calls.append(name))
        out = tmp_path if where == "directory" else tmp_path / "nodir" / "x.retf"
        code = main(["compress", pass_args[0], "--model", str(model_path),
                     "--out", str(out), *pass_args[1:]])
        assert_input_error(capsys, code, out)
        assert calls == []

    def test_negative_threshold_exit_2(self, tmp_path, model_path, capsys):
        code = main(["compress", "prune-magnitude", "--model", str(model_path),
                     "--out", str(tmp_path / "x.retf"), "--threshold", "-1"])
        assert code == 2
        assert "threshold must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "x.retf").exists()

    def test_nan_threshold_exit_2(self, tmp_path, model_path, capsys):
        code = main(["compress", "prune-magnitude", "--model", str(model_path),
                     "--out", str(tmp_path / "x.retf"), "--threshold", "nan"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: prune_magnitude: threshold must be >= 0, got nan\n"
        assert not (tmp_path / "x.retf").exists()


class TestNonFiniteModelFile:
    def test_nan_in_v1_file_exit_2(self, tmp_path, capsys):
        cfg = PRESETS["tiny"]
        p = init_params(cfg, 0)
        path, out = tmp_path / "nan.retf", tmp_path / "q.retf"
        save_model(path, cfg, p)
        # a save refuses NaN, so it is written over theta[3]'s bytes; theta ends the file
        blob = bytearray(path.read_bytes())
        at = len(blob) - p.theta.nbytes + 8 * 3
        blob[at: at + 8] = struct.pack("<d", np.nan)
        path.write_bytes(bytes(blob))
        code = main(["compress", "quantize", "--model", str(path), "--out", str(out)])
        assert "tensor tok_emb is not finite" in assert_input_error(capsys, code, path)
        assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, flag", [(["train", "--config", "tiny", "--iters", "1"], "--lr"),
                                           (["gradcheck", "--config", "tiny"], "--eps")],
                         ids=["train", "gradcheck"])
def test_non_finite_float_flag_exit_2(capsys, command, flag, value):
    code = main([*command, flag, value])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and f"got {value}" in err
    assert out == ""  # no iter line, no error figure


@pytest.mark.parametrize("command, flag, message", [
    (["compare", "--baseline", "tiny", "--variant", "tiny", "--seq", "4"], "--batch",
     "activation_bytes: batch_size must be >= 1, got 0"),
    (["compare", "--baseline", "tiny", "--variant", "tiny"], "--seq",
     "activation_bytes: seq_len must be >= 1, got 0"),
    (["train", "--config", "tiny"], "--batch", "synth_copy_batch: batch_size must be >= 1, got 0"),
    (["train", "--config", "tiny"], "--seq", "synth_copy_batch: seq_len must be >= 1, got 0"),
], ids=["compare-batch", "compare-seq", "train-batch", "train-seq"])
def test_zero_batch_or_seq_named_exit_2(capsys, command, flag, message):
    code = main([*command, flag, "0"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


class TestSearch:
    def test_paper_targets_found(self, capsys):
        code = main(["search", "--target-base", "140288", "--target-variant", "67072"])
        assert code == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines() if line]
        assert lines
        family = [
            doc for doc in lines
            if doc["base"]["vocab_size"] + doc["base"]["max_seq_len"] == 4000
            and doc["base"]["d_model"] == 32 and doc["base"]["n_heads"] == 8
            and doc["base"]["d_ff"] == 128 and doc["base"]["n_layers"] == 1
            and not doc["base"]["use_bias"]
        ]
        assert len(family) == 1
        for doc in lines:
            assert doc["base_params"] == 140_288
            assert doc["reduced_params"] == 67_072

    def test_unreachable_targets_exit_1(self, capsys):
        assert main(["search", "--target-base", "1", "--target-variant", "1"]) == 1
        assert capsys.readouterr().out.strip() == ""

    def test_non_numeric_target_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--target-base", "lots", "--target-variant", "67072"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, value, bound", [
        ("--max-layers", "-1", "max_layers must be >= 0, got -1"),
        ("--seq-len", "0", "seq_len must be >= 1, got 0"),
        ("--max-vs-total", "1", "max_vocab_plus_seq must be >= 2, got 1"),
    ], ids=["max-layers", "seq-len", "max-vs-total"])
    def test_degenerate_bound_named_exit_2(self, capsys, flag, value, bound):
        code = main(["search", "--target-base", "140288", "--target-variant", "67072", flag, value])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: config_search: {bound}\n"

    def test_zero_target_exit_2(self, capsys):
        assert main(["search", "--target-base", "0", "--target-variant", "67072"]) == 2
        assert "targets must be positive" in capsys.readouterr().err


class TestGradcheck:
    def test_tiny_preset_passes(self, capsys):
        code = main(["gradcheck", "--config", "tiny", "--seed", "7"])
        assert code == 0
        assert "max relative error" in capsys.readouterr().out

    def test_zero_eps_exit_2(self, capsys):
        assert main(["gradcheck", "--config", "tiny", "--eps", "0"]) == 2

    def test_oversized_config_exit_2(self, capsys):
        code = main(["gradcheck", "--config", "paper-baseline"])
        assert code == 2
        assert "smaller config" in capsys.readouterr().err


class TestUsage:
    def test_no_command_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


UNDECODABLE_JSON = pytest.mark.parametrize(
    "raw", [b"[" * 100_000 + b"]" * 100_000, b'{"vocab_size": \xff}'],
    ids=["nested-100000-deep", "not-utf8"])


class TestUndecodableConfigJson:
    """Config JSON that does not decode, in a --config file or a RETF header."""

    @UNDECODABLE_JSON
    def test_config_file_exit_2(self, tmp_path, capsys, raw):
        path = tmp_path / "cfg.json"
        path.write_bytes(raw)
        code = main(["init", "--config", str(path), "--out", str(tmp_path / "m.retf")])
        assert "not valid JSON" in assert_input_error(capsys, code, path)

    @UNDECODABLE_JSON
    def test_model_config_block_exit_2(self, tmp_path, capsys, raw):
        path = tmp_path / "m.retf"
        path.write_bytes(MAGIC + struct.pack("<II", VERSION_FLOAT64, len(raw)) + raw)
        code = main(["compress", "quantize", "--model", str(path),
                     "--out", str(tmp_path / "q.retf")])
        assert "not valid JSON" in assert_input_error(capsys, code, path)


class TestTooLargeToAllocate:
    @pytest.mark.parametrize("command", ["init", "compare", "compare-variant", "train"])
    def test_exits_2_with_one_error_line(self, tmp_path, capsys, command):
        # 8e15 token-embedding elements: past the 2**48-byte address space, so
        # the first allocation fails under any overcommit setting, touching nothing
        path = write_config(tmp_path, vocab_size=10**15)
        out = tmp_path / "m.retf"
        compare = ["compare", "--reps", "1", "--warmup", "0", "--seq", "2"]
        argv = {"init": ["init", "--config", str(path), "--out", str(out)],
                "compare": compare + ["--baseline", str(path), "--variant", "tiny"],
                "compare-variant": compare + ["--baseline", "tiny", "--variant", str(path)],
                "train": ["train", "--config", str(path), "--iters", "1"]}[command]
        code = main(argv)
        captured = capsys.readouterr()
        err = captured.err
        assert code == 2 and err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert "allocate" in err and not out.exists() and "loss" not in captured.out


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)
VALID_DOCS = [modelfile.config_to_json_dict(cfg) for cfg in (
    PRESETS["tiny"], ModelConfig(13, 6, 8, 4, 16, 2, use_bias=True, head_dim=3, layer_heads=(2, 1)))]


@st.composite
def mutated_configs(draw):
    """A valid config document with keys dropped, added or given a value of any type."""
    doc = dict(draw(st.sampled_from(VALID_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["drop", "add", "swap"]))
        if op == "add":
            doc[draw(st.sampled_from(sorted(VALID_DOCS[1])) | st.text(max_size=8))] = draw(JSON_VALUES)
        elif doc:
            key = draw(st.sampled_from(sorted(doc)))
            if op == "drop":
                del doc[key]
            else:
                doc[key] = draw(JSON_VALUES)
    return doc


class TestConfigFuzz:
    @given(doc=JSON_VALUES | mutated_configs())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_rejected_only_by_value_error_and_the_cli_exits_2(self, tmp_path, capsys, doc):
        raw = json.dumps(doc).encode("utf-8")
        path = tmp_path / "cfg.json"
        rejected = {}
        for allow_pruned in (True, False):
            try:
                modelfile.parse_config(raw, path, allow_pruned=allow_pruned)
                rejected[allow_pruned] = False
            except ValueError as exc:
                assert str(exc).startswith(f"{path}: ")
                rejected[allow_pruned] = True
        assert rejected[False] or not rejected[True]
        # a config that parses may ask for a model of any size, so only
        # rejected ones go through the CLI
        if rejected[False]:
            path.write_bytes(raw)
            out = tmp_path / "m.retf"
            assert_input_error(capsys, main(["init", "--config", str(path), "--out", str(out)]), path)
            assert not out.exists()


def run_cli(*argv):
    """`python -m leanformer.cli argv` in its own interpreter, which exits through entry()."""
    env = dict(os.environ, PYTHONPATH=str(Path(leanformer.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "leanformer.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_process_exits_2_without_traceback(tmp_path):
    # an exception that escapes main() exits 1 with a traceback, which only
    # a separate interpreter shows
    proc = run_cli("compress", "quantize", "--model", str(tmp_path), "--out", str(tmp_path / "q.retf"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and str(tmp_path) in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, code, error", [
    (["gradcheck", "--config", "tiny"], 0, None),
    (["gradcheck", "--config", "tiny", "--bogus"], 2, "leanformer: error: unrecognized arguments: --bogus"),
    (["gradcheck", "--config", "tiny", "--eps", "0"], 2,
     "error: grad_check: eps must be finite and > 0, got 0.0"),
], ids=["passes", "unknown-flag", "bad-flag-value"])
def test_process_exit_code_is_mains(argv, code, error):
    proc = run_cli(*argv)
    assert proc.returncode == code
    if error is None:
        assert proc.stderr == "" and "max relative error" in proc.stdout
    else:
        assert proc.stderr.splitlines()[-1] == error and proc.stdout == ""
