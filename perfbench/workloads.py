"""The four benchmark workloads.

Each workload turns the benchmark seed into inputs (rendered lines, or the
decoded-length grid of a cost sweep), then runs operations in a closed loop
through the entry points a user calls: `training.train`,
`decode.beam_search` and `cli.main`. An operation returns the timed calls it
made and the reasons it failed, if any; `check` runs the correctness checks
that need the whole run (CER).

Lines are drawn an equal number of times at every length, so the mix of
line lengths -- which sets most of the cost of an operation -- is the same
for every seed and every cycle of operations.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from retline import checkpoint, cli, data, decode, metrics, model, training

CHARS = "abcdefghijkl"
BACKENDS = ("recurrent", "kv")
HERE = os.path.dirname(os.path.abspath(__file__))
WEIGHTS = os.path.join(HERE, "weights", "toy")
# written by perfbench/make_weights.py
WEIGHT_SHA256 = {
    ".json": "cf407ddd43abf67404c783adbf59078389790bbeeae16069f19ac07f98f0bb14",
    ".bin": "03a748faa0fde3857444a64dd207cdf92633e540a62f1d03ebbdd9ef50fde7b6",
}
CER_TARGET = 0.02  # acceptance criterion 9a
TOY = dict(max_text_len=18, layers=2, heads=4, d_model=64, d_ff=128,
           mixer="retention", gamma_strategy="layerwise", dropout_mix=0.0,
           dropout_embed=0.0)


@dataclass
class Call:
    """One timed call into retline from `start` to `end` (perf_counter),
    covering `items` units of work. The timed loop replaces `seconds` by the
    wall time without its kernel samples and sets `ref_seconds` (speed.py)."""

    label: str
    start: float
    end: float
    items: int
    seconds: float = 0.0
    ref_seconds: float = 0.0

    def __post_init__(self):
        self.seconds = self.end - self.start


@dataclass
class Context:
    seed: int
    workdir: str
    vocab: data.Vocab
    pool: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    # line key -> (hypothesis, reference), for the CER check
    transcripts: dict = field(default_factory=dict)


def timed(fn, *args, **kwargs):
    """The result of the call and its (start, end) perf_counter times."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, (start, time.perf_counter())


def generate_lines(workdir: str, seed: int, lengths, per_length: int):
    """Render `per_length` lines of each length with `data.generate_dataset`
    and load them back with `data.load_manifest`, as a user would. Returns
    {length: samples} and the vocabulary."""
    by_length, vocab = {}, None
    for length in lengths:
        out = os.path.join(workdir, f"len{length}")
        data_seed = int(np.random.SeedSequence([seed, length])
                        .generate_state(1)[0])
        data.generate_dataset(out, CHARS, per_length, length, length,
                              seed=data_seed)
        ds = data.load_manifest(os.path.join(out, "manifest.tsv"))
        by_length[length], vocab = list(ds.samples), ds.vocab
    return by_length, vocab


def interleave(by_length, start: int, stop: int) -> list:
    """Rows start..stop-1 of every length bucket, one line per length in
    turn, so each run of len(by_length) lines holds every length once."""
    return [by_length[length][row] for row in range(start, stop)
            for length in sorted(by_length)]


def load_weights():
    """The committed trained toy model, after checking both files' digests."""
    for ext, digest in WEIGHT_SHA256.items():
        with open(WEIGHTS + ext, "rb") as fh:
            actual = hashlib.sha256(fh.read()).hexdigest()
        if actual != digest:
            raise ValueError(f"{WEIGHTS + ext}: sha256 {actual}, "
                             f"expected {digest}")
    return checkpoint.load_checkpoint(WEIGHTS)


def corpus_cer(pairs) -> float:
    edits = chars = 0
    for hyp, ref in pairs:
        edits += metrics.edit_distance(hyp, ref)
        chars += len(ref)
    return edits / chars


def cer_failures(ctx: Context, lines: dict, beam: int) -> list:
    """CER over every held-out line of the run. Lines that no timed
    operation reached (a traced run does fixed, smaller work) are decoded
    here first, untimed, on the recurrent backend."""
    for key, sample in lines.items():
        if key not in ctx.transcripts:
            result = decode.beam_search(ctx.extra["model"], sample.image,
                                        beam=beam, backend="recurrent")
            ctx.transcripts[key] = (data.detokenize(result.tokens, ctx.vocab),
                                    sample.transcript)
    cer = corpus_cer(ctx.transcripts.values())
    ctx.extra["cer"] = cer
    if cer > CER_TARGET:
        return [f"CER {cer:.4f} over {len(ctx.transcripts)} held-out lines "
                f"is above {CER_TARGET}"]
    return []


def per_s(calls, label=None, ref=False) -> float:
    """Items per wall second, or per reference second (speed.py)."""
    chosen = [c for c in calls if label in (None, c.label)]
    seconds = sum(c.ref_seconds if ref else c.seconds for c in chosen)
    return sum(c.items for c in chosen) / seconds if seconds else 0.0


def ms_quantiles(calls, label=None) -> dict:
    """Median, and p90 when at least ten samples lie beyond it."""
    values = [1e3 * c.seconds / c.items for c in calls
              if label in (None, c.label)]
    out = {"p50": statistics.median(values)}
    if len(values) >= 100:
        out["p90"] = statistics.quantiles(values, n=10)[-1]
    return out


class TrainToy:
    """`training.train` for one epoch of the acceptance toy config, from a
    fresh seeded init, on 4-16-char lines with a small validation split."""

    name = "train_toy"
    cycle = 1
    trace_ops = 1
    cli_decode = False
    lengths = range(4, 17)
    train_rows, val_rows = 12, 2  # per length: 156 training, 26 held out

    def setup(self, seed: int, workdir: str) -> Context:
        by_length, vocab = generate_lines(
            workdir, seed, self.lengths, self.train_rows + self.val_rows)
        ctx = Context(seed=seed, workdir=workdir, vocab=vocab,
                      pool=interleave(by_length, 0, self.train_rows))
        ctx.extra.update(
            val=interleave(by_length, self.train_rows,
                           self.train_rows + self.val_rows),
            config=model.ModelConfig(vocab_size=vocab.size, **TOY),
            opt=training.OptimizerSettings(lr_max=3e-3, lr_min=3e-5,
                                           weight_decay=1e-3,
                                           restart_epochs=56),
            settings=training.TrainSettings(epochs=1, batch_size=16,
                                            label_smoothing=0.0, seed=seed),
        )
        return ctx

    def warmup(self, ctx: Context) -> None:
        x = ctx.extra
        training.train(model.Model(x["config"], seed=ctx.seed), ctx.pool[:16],
                       [], ctx.vocab, x["opt"], x["settings"])

    def op(self, ctx: Context, index: int):
        x = ctx.extra
        net = model.Model(x["config"], seed=ctx.seed)
        rows, span = timed(training.train, net, ctx.pool, x["val"],
                              ctx.vocab, x["opt"], x["settings"])
        # every operation trains the same fresh model on the same data, so
        # the last one stands for all in the held-out loss check
        x["model"] = net
        failures = []
        if not math.isfinite(rows[-1]["loss"]):
            failures.append(f"training loss {rows[-1]['loss']}")
        return [Call("train", *span, len(ctx.pool))], failures

    def held_out_loss(self, ctx: Context, net) -> float:
        x = ctx.extra
        losses = []
        for sample in x["val"]:
            ids = data.tokenize(sample.transcript, ctx.vocab,
                                x["config"].max_text_len)
            inputs, targets = model.teacher_pair(ids)
            logits = net.forward(sample.image, inputs)
            losses.append(model.training_loss(logits, targets, 0.0).item())
        return float(np.mean(losses))

    def check(self, ctx: Context) -> list:
        """The trained model's held-out loss must be finite and below that of
        the same untrained init. (One epoch only reaches the unigram plateau,
        which lies within about 0.1 of ln(vocab size) on either side, so
        ln(vocab size) cannot be the bar.)"""
        x = ctx.extra
        before = self.held_out_loss(ctx, model.Model(x["config"],
                                                     seed=ctx.seed))
        after = x["held_out_loss"] = self.held_out_loss(ctx, x["model"])
        if not after < before:  # also catches NaN
            return [f"held-out loss {after:.4f} after one epoch is not below "
                    f"{before:.4f} at init"]
        return []

    def details(self, ctx: Context, calls) -> dict:
        return {"train_samples_per_s": (per_s(calls), "1/s"),
                "held_out_loss": (ctx.extra["held_out_loss"], "nats")}


class DecodeGreedy:
    """Per-line `decode.beam_search(beam=1)` on both backends over held-out
    4-16-char lines with the committed trained weights."""

    name = "decode_greedy"
    lengths = range(4, 17)
    cycle = len(lengths)
    trace_ops = 2 * len(lengths)
    cli_decode = False
    rows = 10  # per length

    def setup(self, seed: int, workdir: str) -> Context:
        net = load_weights()
        by_length, vocab = generate_lines(workdir, seed, self.lengths,
                                          self.rows)
        ctx = Context(seed=seed, workdir=workdir, vocab=vocab,
                      pool=interleave(by_length, 0, self.rows))
        ctx.extra["model"] = net
        return ctx

    def warmup(self, ctx: Context) -> None:
        for backend in BACKENDS:
            decode.beam_search(ctx.extra["model"], ctx.pool[-1].image, beam=1,
                               backend=backend)

    def op(self, ctx: Context, index: int):
        key = index % len(ctx.pool)
        sample = ctx.pool[key]
        calls, texts = [], {}
        for backend in BACKENDS:
            result, span = timed(decode.beam_search, ctx.extra["model"],
                                    sample.image, beam=1, backend=backend)
            texts[backend] = data.detokenize(result.tokens, ctx.vocab)
            calls.append(Call(backend, *span, 1))
        ctx.transcripts[key] = (texts["recurrent"], sample.transcript)
        failures = []
        if texts["recurrent"] != texts["kv"]:
            failures.append(f"line {key}: recurrent {texts['recurrent']!r} "
                            f"!= kv {texts['kv']!r}")
        return calls, failures

    def check(self, ctx: Context) -> list:
        return cer_failures(ctx, dict(enumerate(ctx.pool)), beam=1)

    def details(self, ctx: Context, calls) -> dict:
        out = {}
        for backend in BACKENDS:
            for q, value in ms_quantiles(calls, backend).items():
                out[f"line_ms_{q}.{backend}"] = (value, "ms")
        out["cer"] = (ctx.extra["cer"], "ratio")
        return out


class DecodeBeam10:
    """`retline decode --beam 10` through `cli.main` on both backends, one
    manifest of held-out 12-16-char lines per call."""

    name = "decode_beam10"
    cycle = 1
    trace_ops = 1
    cli_decode = True
    lengths = range(12, 17)
    manifests = 8  # each holds one line of every length

    def setup(self, seed: int, workdir: str) -> Context:
        net = load_weights()
        by_length, vocab = generate_lines(workdir, seed, self.lengths,
                                          self.manifests)
        with open(os.path.join(workdir, "dataset.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"vocab": vocab.chars}, fh)
        ctx = Context(seed=seed, workdir=workdir, vocab=vocab)
        ctx.extra["lines"] = {}
        for j in range(self.manifests):
            path = os.path.join(workdir, f"manifest{j}.tsv")
            refs = {}
            with open(path, "w", encoding="utf-8") as fh:
                for length in self.lengths:
                    sample = by_length[length][j]
                    line_id = f"len{length}-{sample.sample_id}"
                    image = f"len{length}/images/{sample.sample_id}.pgm"
                    fh.write(f"{line_id}\t{image}\t{sample.transcript}\n")
                    refs[line_id] = sample.transcript
                    ctx.extra["lines"][line_id] = sample
            ctx.pool.append((path, refs))
        ctx.extra["model"] = net
        return ctx

    def warmup(self, ctx: Context) -> None:
        sample = next(iter(ctx.extra["lines"].values()))
        for backend in BACKENDS:
            decode.beam_search(ctx.extra["model"], sample.image, beam=10,
                               backend=backend)

    def op(self, ctx: Context, index: int):
        manifest, refs = ctx.pool[index % len(ctx.pool)]
        calls, texts, failures = [], {}, []
        for backend in BACKENDS:
            out = os.path.join(ctx.workdir, f"out-{backend}")
            argv = ["--out-dir", out, "decode", "--checkpoint", WEIGHTS,
                    "--data", manifest, "--beam", "10", "--backend", backend]
            with contextlib.redirect_stdout(io.StringIO()):
                code, span = timed(cli.main, argv)
            if code != 0:
                failures.append(f"decode --backend {backend} exited {code}")
                continue
            with open(os.path.join(out, "transcripts.txt"),
                      encoding="utf-8") as fh:
                texts[backend] = dict(line.rstrip("\n").split("\t", 1)
                                      for line in fh if line.strip("\n"))
            calls.append(Call(backend, *span, len(refs)))
        if failures:
            return calls, failures
        for line_id, ref in refs.items():
            rec = texts["recurrent"].get(line_id)
            if rec is None or rec != texts["kv"].get(line_id):
                failures.append(f"{line_id}: recurrent {rec!r} != kv "
                                f"{texts['kv'].get(line_id)!r}")
            ctx.transcripts[line_id] = (rec or "", ref)
        return calls, failures

    def check(self, ctx: Context) -> list:
        return cer_failures(ctx, ctx.extra["lines"], beam=10)

    def details(self, ctx: Context, calls) -> dict:
        out = {f"lines_per_s.{b}": (per_s(calls, b), "1/s") for b in BACKENDS}
        out["cer"] = (ctx.extra["cer"], "ratio")
        return out


class CostSweep:
    """`retline bench-memory` through `cli.main` on its default beam grid
    (1..10) and five seeded decoded lengths, at d=128 and 4 heads."""

    name = "cost_sweep"
    cycle = 1
    trace_ops = 1
    cli_decode = False
    width, heads, decodeds = 128, 4, 5
    beams = 10  # the subcommand's default --beam 1..10

    def setup(self, seed: int, workdir: str) -> Context:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
        decoded = sorted(int(n) for n in rng.choice(np.arange(16, 129),
                                                    self.decodeds,
                                                    replace=False))
        ctx = Context(seed=seed, workdir=workdir, vocab=data.Vocab(CHARS))
        ctx.extra["argv"] = [
            "--out-dir", os.path.join(workdir, "sweep"), "bench-memory",
            "--d", str(self.width), "--heads", str(self.heads),
            "--decoded", ",".join(map(str, decoded)),
        ]
        return ctx

    def warmup(self, ctx: Context) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(ctx.extra["argv"] + ["--beam", "1"])

    def op(self, ctx: Context, index: int):
        with contextlib.redirect_stdout(io.StringIO()):
            code, span = timed(cli.main, ctx.extra["argv"])
        if code != 0:
            return [], [f"bench-memory exited {code}"]
        path = os.path.join(ctx.workdir, "sweep", "memory.csv")
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        # vanilla rows are dropped by the subcommand: two forms remain
        expected = 2 * self.beams * self.decodeds
        failures = []
        if len(rows) != expected:
            failures.append(f"{len(rows)} sweep rows, expected {expected}")
        for row in rows:
            if row["total"] != row["closed_form_total"]:
                failures.append(
                    f"{row['form']} B={row['B']} N={row['N']}: instrumented "
                    f"{row['total']} != closed form {row['closed_form_total']}")
        return [Call("sweep", *span, len(rows))], failures

    def check(self, ctx: Context) -> list:
        return []

    def details(self, ctx: Context, calls) -> dict:
        return {"sweep_rows_per_s": (per_s(calls), "1/s")}


WORKLOADS = {w.name: w for w in (TrainToy(), DecodeGreedy(), DecodeBeam10(),
                                 CostSweep())}
