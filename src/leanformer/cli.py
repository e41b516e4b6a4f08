"""Command-line surface.

Exit codes follow one contract everywhere: 0 success, 1 a checked
condition failed (training did not improve, search found nothing,
gradient check too loose), 2 usage or input errors. The library validates
its inputs; any ValueError or OSError it raises (a bad flag value, an
unreadable or unwritable path, a malformed model or config file), and the
MemoryError of a model too large to allocate, which names the config that
asked for it, ends as one `error:` line on stderr and exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from . import compression, modelfile, profiler
from .model import (
    GRAD_CHECK_BOUND,
    ModelConfig,
    PRESETS,
    grad_check,
    init_params,
    param_count,
    synth_copy_batch,
    train_step,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _load_config(spec: str) -> ModelConfig:
    """Resolve a --config value: preset name or path to a JSON document."""
    if spec in PRESETS:
        return PRESETS[spec]
    path = Path(spec)
    if not path.exists():
        raise ValueError(
            f"config '{spec}' is neither a preset ({', '.join(sorted(PRESETS))}) "
            f"nor an existing file"
        )
    # user-facing config documents carry exactly the documented keys
    return modelfile.parse_config(path.read_bytes(), spec, allow_pruned=False)


@contextmanager
def _sized_by(spec: str):
    """Prefix a MemoryError raised inside the block with the config spec that sized it."""
    try:
        yield
    except MemoryError as exc:
        raise MemoryError(f"{spec}: {exc}") from exc


def _int_list(text: str, flag: str) -> list[int]:
    """Parse a comma-separated list of integers such as '0,1,3'."""
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"{flag} must be a comma-separated list of integers, got {text!r}") from None


def _check_output(path: str) -> None:
    """Refuse an output path that cannot be written, before any work is done for it."""
    out = Path(path)
    if out.is_dir():
        raise ValueError(f"{path}: is a directory")
    if not out.parent.is_dir():
        raise ValueError(f"{path}: directory {out.parent} does not exist")


def cmd_init(args) -> int:
    cfg = _load_config(args.config)
    with _sized_by(args.config):
        params = init_params(cfg, args.seed)
    modelfile.save_model(args.out, cfg, params)
    print(f"wrote {args.out}")
    print(f"parameters: {param_count(cfg)}")
    print(f"parameter bytes: {profiler.memory_bytes(cfg)}")
    return EXIT_OK


def cmd_compare(args) -> int:
    if args.json:
        _check_output(args.json)
    baseline_cfg = _load_config(args.baseline)
    variant_cfg = _load_config(args.variant)
    reports = []
    for label, cfg in (("baseline", baseline_cfg), ("variant", variant_cfg)):
        spec = getattr(args, label)
        with _sized_by(spec):
            params = init_params(cfg, args.seed)
            reports.append(profiler.profile_model(
                params, cfg, label=spec,
                batch_size=args.batch, seq_len=args.seq,
                reps=args.reps, warmup=args.warmup,
            ))
    result = profiler.ComparisonReport(*reports)
    print(profiler.render_comparison(result))
    if args.json:
        doc = {**result.to_json(), "host": profiler.host_block()}
        Path(args.json).write_text(json.dumps(doc, indent=2) + "\n", "utf-8")
        print(f"wrote {args.json}")
    return EXIT_OK


def cmd_train(args) -> int:
    if args.iters < 1:
        raise ValueError(f"--iters must be >= 1, got {args.iters}")
    if args.jsonl:
        _check_output(args.jsonl)
    cfg = _load_config(args.config)
    seq_len = min(cfg.max_seq_len, 10) if args.seq is None else args.seq
    if seq_len > cfg.max_seq_len:
        raise ValueError(f"--seq {seq_len} exceeds max_seq_len {cfg.max_seq_len}")
    batch, targets = synth_copy_batch(args.seed, args.batch, seq_len, cfg.vocab_size)
    jsonl = open(args.jsonl, "w", encoding="utf-8") if args.jsonl else nullcontext()
    with _sized_by(args.config), jsonl as records:
        params = init_params(cfg, args.seed)
        losses = []
        for it in range(1, args.iters + 1):
            start = time.perf_counter()
            new, loss = train_step(params, cfg, batch, targets, args.lr)
            seconds = time.perf_counter() - start
            if records:
                # the step's length in gradient units; undefined at lr 0
                norm = float(np.linalg.norm(new.theta - params.theta)) / args.lr if args.lr else None
                records.write(json.dumps({"iter": it, "loss": loss, "step_s": seconds,
                                          "update_norm": norm}) + "\n")
            params = new
            losses.append(loss)
            print(f"iter {it}: loss {loss:.6f}")
    if losses[-1] < losses[0]:
        return EXIT_OK
    print("training did not reduce the loss", file=sys.stderr)
    return EXIT_CHECK_FAILED


def cmd_compress(args) -> int:
    _check_output(args.out)
    cfg, params = modelfile.load_model(args.model)

    if args.pass_name == "quantize":
        quantized = compression.quantize_params(params)
        report = compression.quantize_report(params, quantized)
        modelfile.save_quantized_model(args.out, cfg, quantized)
    else:
        if args.pass_name == "prune-magnitude":
            pruned, report = compression.prune_magnitude(params, args.threshold)
        elif args.pass_name == "prune-heads":
            keep = set(_int_list(args.keep, "--keep"))
            pruned, cfg, report = compression.prune_heads(params, cfg, args.layer, keep)
        else:  # prune-layers
            kept = _int_list(args.keep_layers, "--keep-layers")
            pruned, cfg, report = compression.prune_layers(params, cfg, kept)
        modelfile.save_model(args.out, cfg, pruned)

    for line in report.lines():
        print(line)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_search(args) -> int:
    pairs = profiler.config_search(
        args.target_base, args.target_variant, seq_len=args.seq_len,
        max_layers=args.max_layers, max_vocab_plus_seq=args.max_vs_total,
    )
    for cfg, reduced in pairs:
        print(json.dumps({
            "base": modelfile.config_to_json_dict(cfg),
            "base_params": param_count(cfg),
            "reduced": modelfile.config_to_json_dict(reduced),
            "reduced_params": param_count(reduced),
        }, sort_keys=True))
    return EXIT_OK if pairs else EXIT_CHECK_FAILED


def cmd_gradcheck(args) -> int:
    err = grad_check(_load_config(args.config), args.seed, args.eps)
    print(f"max relative error: {err:.3e}")
    return EXIT_OK if err < GRAD_CHECK_BOUND else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leanformer",
        description="Build, profile, train and compress the slim transformer encoder.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="initialize a model and write it to disk")
    p.add_argument("--config", required=True, help="preset name or config JSON path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("compare", help="profile two configs and print the comparison table")
    p.add_argument("--baseline", required=True)
    p.add_argument("--variant", required=True)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--seq", type=int, default=10)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--warmup", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", default=None, help="also write the comparison as JSON")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("train", help="train on the synthetic copy task")
    p.add_argument("--config", required=True)
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--seq", type=int, default=None, help="default: min(10, max_seq_len)")
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jsonl", default=None,
                   help="also write one JSON record per step: iteration, loss, step seconds, update norm")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compress", help="apply a compression pass to a saved model")
    p.set_defaults(func=cmd_compress)
    csub = p.add_subparsers(dest="pass_name", required=True)
    paths = argparse.ArgumentParser(add_help=False)
    paths.add_argument("--model", required=True)
    paths.add_argument("--out", required=True)

    csub.add_parser("quantize", parents=[paths], help="int8-quantize all tensors")

    q = csub.add_parser("prune-magnitude", parents=[paths], help="zero weights below a threshold")
    q.add_argument("--threshold", type=float, required=True)

    q = csub.add_parser("prune-heads", parents=[paths], help="structurally remove attention heads")
    q.add_argument("--layer", type=int, required=True)
    q.add_argument("--keep", required=True, help="comma-separated head indices to keep")

    q = csub.add_parser("prune-layers", parents=[paths], help="keep only the listed layers")
    q.add_argument("--keep-layers", dest="keep_layers", required=True,
                   help="comma-separated layer indices to keep")

    p = sub.add_parser("search", help="find configs matching two parameter-count targets")
    p.add_argument("--target-base", dest="target_base", type=int, required=True)
    p.add_argument("--target-variant", dest="target_variant", type=int, required=True)
    p.add_argument("--seq-len", dest="seq_len", type=int, default=10)
    p.add_argument("--max-layers", dest="max_layers", type=int, default=4)
    p.add_argument("--max-vs-total", dest="max_vs_total", type=int, default=1_000_000)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("gradcheck", help="verify backprop against finite differences")
    p.add_argument("--config", required=True)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
