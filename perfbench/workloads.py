"""The benchmark's closed-loop workloads.

Each workload builds its inputs from the workload seed in `__init__`,
runs one operation per `op(i)` call and checks that operation's output in
`check(i, out)`, raising CheckFailed on a wrong result. One caller drives a
workload and sends the next operation only after the previous one
returned. `span` marks layer boundaries; it does nothing unless the traced
run swaps in a Tracer's span, and `layer_metrics` turns one traced
operation's spans into per-layer numbers.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from leanformer import compression, modelfile, numerics, profiler
from leanformer import model as M

from benchstats import ratio
from oracle import oracle_logits, relative_error
from spans import OpSpans, ms

BASELINE, REDUCED = "paper-baseline", "paper-reduced"
# the published parameter counts and float64 byte sizes
EXPECTED = {BASELINE: (140_288, 1_122_304), REDUCED: (67_072, 536_576)}
BATCH, SEQ = 32, 10
POOL = 8  # distinct seeded inputs each workload cycles through
PAPER_GATE = 0.80  # reduced forward median over baseline median (acceptance criterion 4)
ORACLE_RTOL = 1e-12
GRAD_CHECK_TOL = 1e-4
TRAIN_LR = 0.05
PRUNE_THRESHOLD = 0.01
KEEP_HEADS = 4


class CheckFailed(Exception):
    """An operation returned a wrong result."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def no_span(name: str):
    return contextlib.nullcontext()


def _check_counts(params, cfg, name: str) -> None:
    count, nbytes = EXPECTED[name]
    require(M.param_count_enumerated(params) == count,
            f"{name}: {M.param_count_enumerated(params)} params, expected {count}")
    require(profiler.memory_bytes(cfg) == nbytes,
            f"{name}: {profiler.memory_bytes(cfg)} bytes, expected {nbytes}")


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _digest(a: np.ndarray) -> tuple:
    return a.shape, a.dtype.str, hashlib.blake2b(np.ascontiguousarray(a).data).digest()


class Workload:
    name = ""
    why = ""
    tokens_per_op: int | None = None

    def __init__(self, seed: int, workdir: Path):
        self.span = no_span
        self.rng = np.random.default_rng(seed)

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> None:
        raise NotImplementedError

    def begin(self) -> None:
        """Called once warmup is over, before the measured operations."""

    def run_checks(self) -> dict[str, tuple[bool, str]]:
        """Checks on the whole run: name -> (passed, detail)."""
        return {}

    def traced_extra(self, i: int, out) -> None:
        """Extra traced work after a traced operation (outside its "op" span)."""

    def layer_metrics(self, i: int, out, spans: OpSpans) -> dict[str, float]:
        return {}

    def close(self) -> None:
        """Release what __init__ acquired."""


class Table2Forward(Workload):
    name = "table2-forward"
    why = ("The paper's 32x10 comparison: baseline and reduced forwards on the same "
           "batch, order flipped every op so host drift cannot bias the reduction.")
    tokens_per_op = 2 * BATCH * SEQ

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.models = {}
        for name in (BASELINE, REDUCED):
            cfg = M.PRESETS[name]
            self.models[name] = (M.init_params(cfg, seed), cfg)
        vocab = M.PRESETS[BASELINE].vocab_size
        self.pool = [self.rng.integers(0, vocab, size=(BATCH, SEQ)) for _ in range(POOL)]
        # one sequence per op is re-computed by the oracle
        self.sampled = self.rng.integers(0, BATCH, size=POOL)
        self.secs = {BASELINE: [], REDUCED: []}

    def order(self, i: int) -> tuple[str, str]:
        return (BASELINE, REDUCED) if i % 2 == 0 else (REDUCED, BASELINE)

    def op(self, i: int):
        batch = self.pool[i % POOL]
        logits, secs = {}, {}
        for name in self.order(i):
            params, cfg = self.models[name]
            with self.span(f"forward.{name}"):
                t0 = time.perf_counter()
                logits[name], _ = M.model_forward(params, cfg, batch)
                secs[name] = time.perf_counter() - t0
        return logits, secs

    def check(self, i: int, out) -> None:
        logits, secs = out
        batch = self.pool[i % POOL]
        j = int(self.sampled[i % POOL])
        for name, (params, cfg) in self.models.items():
            _check_counts(params, cfg, name)
            got = logits[name]
            require(len(got) == BATCH, f"{name}: {len(got)} logit matrices for {BATCH} sequences")
            require(all(g.shape == (SEQ, cfg.vocab_size) for g in got), f"{name}: wrong logit shape")
            err = relative_error(got[j], oracle_logits(params, cfg, batch[j]))
            require(err <= ORACLE_RTOL, f"{name}: sequence {j} logits off the oracle by {err:.3g}")
            self.secs[name].append(secs[name])

    def begin(self) -> None:
        self.secs = {BASELINE: [], REDUCED: []}

    def gate_ratio(self) -> float:
        return ratio(statistics.median(self.secs[REDUCED]), statistics.median(self.secs[BASELINE]))

    def run_checks(self):
        r = self.gate_ratio()
        return {"paper_gate": (r <= PAPER_GATE,
                               f"reduced/baseline forward median {r:.3f} (must be <= {PAPER_GATE})")}

    def staged_forward(self, params, cfg, batch) -> list:
        """The forward rebuilt from the public stage functions, one span per stage."""
        out = []
        for tokens in batch:
            with self.span("model.embed"):
                x = M.embed(params, tokens)
            for layer in range(cfg.n_layers):
                with self.span("model.attention_forward"):
                    x, _ = M.attention_forward(params, layer, x, cfg.heads_in_layer(layer))
                with self.span("model.ffn_forward"):
                    x = M.ffn_forward(params, layer, x)
            with self.span("model.logits"):
                out.append(numerics.matmul(x, params.tok_emb.T))
        return out

    def traced_extra(self, i: int, out) -> None:
        # Keep digests and free the op's 20 MB of logits first: with them alive
        # the staged pass page-faults fresh memory and its stages add up to
        # about 1.4x the forward instead of about 1x.
        logits, _ = out
        digests = {name: [_digest(a) for a in logits[name]] for name in logits}
        logits.clear()
        batch = self.pool[i % POOL]
        for name in self.order(i):
            params, cfg = self.models[name]
            with self.span(f"staged.{name}"):
                staged = self.staged_forward(params, cfg, batch)
            require([_digest(a) for a in staged] == digests[name],
                    f"{name}: staged forward logits are not bit-equal to model_forward's")
            del staged

    def layer_metrics(self, i, out, spans: OpSpans):
        m = {}
        fwd = [s for name in self.models for root in spans.named(f"forward.{name}")
               for s in spans.under(root, "model.model_forward")]
        for fn, key in (("matmul", "matmul"), ("softmax_rows", "softmax")):
            calls = [c for f in fwd for c in spans.under(f, f"numerics.{fn}")]
            m[f"numerics.{key}_calls"] = len(calls)
            m[f"numerics.{key}_ms"] = ms(calls)
        staged_total = 0.0
        for name, suffix in ((BASELINE, "baseline"), (REDUCED, "reduced")):
            root = spans.named(f"staged.{name}")[0]
            for stage, key in (("embed", "embed"), ("attention_forward", "attention"),
                               ("ffn_forward", "ffn"), ("logits", "logits")):
                t = ms(spans.under(root, f"model.{stage}"))
                m[f"model.{key}_ms.{suffix}"] = t
                staged_total += t
        m["model.stage_coverage"] = ratio(staged_total, ms(fwd))
        return m


class TrainCopy(Workload):
    name = "train-copy"
    why = ("Training steps on the baseline: backward is about 4/5 of a step and the "
           "step rebuilds the ParamSet, work that table2-forward never runs.")
    tokens_per_op = BATCH * SEQ

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.cfg = M.PRESETS[BASELINE]
        self.params = M.init_params(self.cfg, seed)
        self.pool = [self.rng.integers(0, self.cfg.vocab_size, size=(BATCH, SEQ))
                     for _ in range(POOL)]
        self.losses: list[float] = []

    def op(self, i: int):
        batch = self.pool[i % POOL]
        with self.span("model.train_step"):
            self.params, loss = M.train_step(self.params, self.cfg, batch, batch, TRAIN_LR)
        return loss

    def check(self, i: int, loss) -> None:
        require(math.isfinite(loss), f"step {i}: loss {loss}")
        _check_counts(self.params, self.cfg, BASELINE)
        self.losses.append(loss)

    def run_checks(self):
        # compare whole passes over the pool, so each batch is in both means
        first = statistics.fmean(self.losses[:POOL])
        last = statistics.fmean(self.losses[-POOL:])
        return {"loss_decreased": (len(self.losses) >= 2 * POOL and last < first,
                                   f"mean loss of first {POOL} steps {first:.12g}, "
                                   f"of last {POOL} steps {last:.12g}")}

    def layer_metrics(self, i, out, spans: OpSpans):
        step = spans.named("model.train_step")[0]
        lag = spans.under(step, "model.loss_and_grads")[0]
        fwd = spans.under(lag, "model.model_forward")[0]
        lag_ms, fwd_ms = ms([lag]), ms([fwd])
        return {
            "model.forward_ms": fwd_ms,
            "model.loss_and_grads_ms": lag_ms,
            "model.backward_ms": lag_ms - fwd_ms,
            "model.update_ms": ms([step]) - lag_ms,
        }


class GradcheckTiny(Workload):
    name = "gradcheck-tiny"
    why = ("Gradient checks on tiny: 2x4 batches where the fixed cost of each call "
           "dominates, so per-call overhead added for large shapes shows here.")

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.cfg = M.PRESETS["tiny"]
        self.seeds = [int(s) for s in self.rng.integers(0, 2**31, size=POOL)]

    def op(self, i: int):
        with self.span("model.grad_check"):
            return M.grad_check(self.cfg, self.seeds[i % POOL], 1e-5)

    def check(self, i: int, err) -> None:
        require(math.isfinite(err) and err < GRAD_CHECK_TOL,
                f"grad_check seed {self.seeds[i % POOL]}: error {err:.3g} (must be < {GRAD_CHECK_TOL})")

    def layer_metrics(self, i, out, spans: OpSpans):
        gc = spans.named("model.grad_check")[0]
        calls = spans.under(gc, "model.batch_loss")
        return {
            "model.batch_loss_calls": len(calls),
            "model.batch_loss_us": 1e3 * ms(calls) / len(calls),
            "model.grad_check_self_ms": spans.self_ms(gc),
        }


class CompressRoundtrip(Workload):
    name = "compress-roundtrip"
    why = ("Model files and compression passes: v1 and int8 v2 save/load, magnitude and "
           "head pruning; writes beside reads and runs no forward.")

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.cfg = M.PRESETS[BASELINE]
        self.models = [M.init_params(self.cfg, int(s))
                       for s in self.rng.integers(0, 2**31, size=POOL // 2)]
        workdir.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="compress-", dir=workdir))

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def op(self, i: int):
        src = self.models[i % len(self.models)]
        cfg, span = self.cfg, self.span
        # fresh names each op: rewriting one path makes ext4 flush the
        # truncated file on close, which adds disk waits to the tail
        paths = {k: self.dir / f"{i}-{k}.retf" for k in ("v1", "v2", "pruned")}
        with span("modelfile.save_model"):
            modelfile.save_model(paths["v1"], cfg, src)
        with span("modelfile.load_model"):
            cfg1, p1 = modelfile.load_model(paths["v1"])
        with span("compression.quantize_params"):
            quant = compression.quantize_params(p1)
        with span("modelfile.save_quantized_model"):
            modelfile.save_quantized_model(paths["v2"], cfg1, quant)
        with span("modelfile.load_quantized_model"):
            cfg2, quant2 = modelfile.load_quantized_model(paths["v2"])
        with span("compression.dequantize_params"):
            deq = compression.dequantize_params(p1, quant2)
        with span("compression.prune_magnitude"):
            sparse, mag_report = compression.prune_magnitude(deq, PRUNE_THRESHOLD)
        with span("compression.head_importance"):
            scores = compression.head_importance(sparse, cfg2, 0)
        keep = set(np.argsort(scores, kind="stable")[::-1][:KEEP_HEADS].tolist())
        with span("compression.prune_heads"):
            pruned, cfg_h, head_report = compression.prune_heads(sparse, cfg2, 0, keep)
        with span("modelfile.save_model"):
            modelfile.save_model(paths["pruned"], cfg_h, pruned)
        with span("modelfile.load_model"):
            cfg3, p3 = modelfile.load_model(paths["pruned"])
        sizes = {k: p.stat().st_size for k, p in paths.items()}
        return dict(src=src, cfg1=cfg1, p1=p1, quant=quant, cfg2=cfg2, quant2=quant2, deq=deq,
                    sparse=sparse, mag_report=mag_report, pruned=pruned, cfg_h=cfg_h,
                    head_report=head_report, cfg3=cfg3, p3=p3, paths=paths, sizes=sizes)

    def check(self, i: int, out) -> None:
        for path in out["paths"].values():
            path.unlink()
        cfg = self.cfg
        count, nbytes = EXPECTED[BASELINE]
        require(out["cfg1"] == cfg and out["cfg2"] == cfg, "config changed in a round trip")
        _check_counts(out["p1"], out["cfg1"], BASELINE)
        header = out["sizes"]["v1"] - nbytes
        require(0 < header < 1024, f"v1 file holds {nbytes + header} bytes for {nbytes} of payload")
        require(all(_same_bits(a, b) for (_, a), (_, b)
                    in zip(M.iter_params(out["src"]), M.iter_params(out["p1"]))),
                "v1 round trip is not bit-exact")
        for (name, q), (name2, q2), (_, orig), (_, back) in zip(
                out["quant"], out["quant2"], M.iter_params(out["p1"]), M.iter_params(out["deq"])):
            require(name == name2 and q.scale == q2.scale and _same_bits(q.values, q2.values),
                    f"{name}: v2 round trip is not exact")
            require(float(np.max(np.abs(back - orig))) <= q.scale / 2,
                    f"{name}: dequantization error above scale/2")
        for (name, before), (_, after) in zip(M.iter_params(out["deq"]), M.iter_params(out["sparse"])):
            small = np.abs(before) < PRUNE_THRESHOLD
            require(not after[small].any() and _same_bits(after[~small], before[~small]),
                    f"{name}: magnitude pruning zeroed the wrong weights")
        dropped = (cfg.n_heads - KEEP_HEADS) * 4 * cfg.d_model * cfg.head_width
        rep = out["head_report"]
        require(rep.params_before == count and rep.params_after == count - dropped
                and M.param_count(out["cfg_h"]) == rep.params_after
                and M.param_count_enumerated(out["p3"]) == rep.params_after,
                f"head pruning: {rep.params_before} -> {rep.params_after}, expected "
                f"{count} -> {count - dropped}")
        require(out["cfg3"] == out["cfg_h"]
                and all(_same_bits(a, b) for (_, a), (_, b)
                        in zip(M.iter_params(out["pruned"]), M.iter_params(out["p3"]))),
                "pruned model round trip is not bit-exact")

    def layer_metrics(self, i, out, spans: OpSpans):
        m = {}
        for key, name in (("modelfile.save_v1_ms", "modelfile.save_model"),
                          ("modelfile.load_v1_ms", "modelfile.load_model"),
                          ("modelfile.save_v2_ms", "modelfile.save_quantized_model"),
                          ("modelfile.load_v2_ms", "modelfile.load_quantized_model"),
                          ("compression.quantize_ms", "compression.quantize_params"),
                          ("compression.dequantize_ms", "compression.dequantize_params"),
                          ("compression.prune_magnitude_ms", "compression.prune_magnitude")):
            m[key] = ms(spans.named(name))
        m["compression.prune_heads_ms"] = ms(spans.named("compression.head_importance")
                                             + spans.named("compression.prune_heads"))
        m["modelfile.bytes_written"] = sum(out["sizes"].values())
        m["compression.sparsity"] = out["mag_report"].sparsity
        return m


WORKLOADS = {w.name: w for w in (Table2Forward, TrainCopy, GradcheckTiny, CompressRoundtrip)}
