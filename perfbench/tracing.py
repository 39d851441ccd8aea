"""Spans around retline's public entry points, recorded from the benchmark.

`Tracer.wrap(owner, attr, name)` replaces `owner.attr` -- on the object the
caller looks the name up on -- by a wrapper that records one span
(name, start, end, parent, tag) per call and then calls the original. Spans
stay in memory until `write_spans`; nothing inside retline changes, and
`close` puts every original back.

`layer_metrics` turns the spans of one traced run into the per-layer
metrics that BENCHMARK.json lists and perfbench/NOTES.md explains. A span's self time is its duration
minus the durations of its direct children (calls on one thread nest, so
children never overlap).
"""

from __future__ import annotations

import csv
import time
from collections import defaultdict

from retline import (checkpoint, cli, costmodel, data, decode, metrics,
                     model, training)

POSITIONS = (1, 8, 16)
BACKENDS = ("recurrent", "kv")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, tag]
        self._stack = []
        self._patches = []

    def wrap(self, owner, attr, name, tag=None):
        original = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if tag is not None:
                span[4] = tag(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def close(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _beam_tag(args, result):
    stats = result.stats
    return (stats[0]["backend"], len(stats),
            max(row["live_elements"] for row in stats))


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the benchmark measures, under the module
    or class its caller resolves it through."""
    w = tracer.wrap
    w(training, "backward", "tensor.backward")
    w(model.Model, "embed_image", "model.embed_image")
    w(model.Model, "build_image_cache", "model.build_image_cache")
    w(model.DecoderLayer, "forward", "model.layer_forward")
    w(model.DecoderLayer, "step_kv", "model.step_kv")
    w(model.Model, "head_logits", "model.head_logits")
    w(model, "marmf_forward", "fusion.marmf_forward")
    w(model, "marmf_recurrent_step", "fusion.marmf_recurrent_step")
    w(decode, "beam_search", "decode.beam_search", _beam_tag)
    # one call per live lane per step; args are (model, state, lane, token,
    # position)
    w(decode, "_lane_logits_recurrent", "decode.lane_step",
      lambda a, r: ("recurrent", a[4]))
    w(decode, "_lane_logits_kv", "decode.lane_step", lambda a, r: ("kv", a[4]))
    w(decode.RecurrentDecodeState, "reindex", "decode.reindex")
    w(decode, "kv_reindex", "decode.kv_reindex")
    w(training, "train", "training.train")
    w(training.AdamW, "step", "training.adamw_step")
    for owner in (training, cli):
        w(owner, "corpus_rates", "training.corpus_rates")
    w(cli, "main", "cli.main")
    w(costmodel, "flops_instrumented", "costmodel.flops_instrumented",
      lambda a, r: (r.form, r.n, r.d))
    w(data, "generate_dataset", "data.generate_dataset",
      lambda a, r: len(r))
    for owner in (data, cli):
        w(owner, "load_manifest", "data.load_manifest", lambda a, r: len(r))
    for owner in (checkpoint, cli):
        w(owner, "load_checkpoint", "checkpoint.load_checkpoint")
    # the char-level call is the one made once per scored line
    for owner in (metrics, training):
        w(owner, "edit_distance", "metrics.edit_distance",
          lambda a, r: isinstance(a[0], str))


def write_spans(path, spans) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(("index", "name", "start_s", "end_s", "parent", "tag"))
        for i, (name, start, end, parent, tag) in enumerate(spans):
            out.writerow((i, name, f"{start:.9f}", f"{end:.9f}", parent,
                          "" if tag is None else tag))


def layer_metrics(spans, op_counts, untraced_s: float, traced_s: float,
                  overhead: float, cli_lines: int) -> dict:
    """Per-layer metrics of one traced pass. `untraced_s` and `traced_s` are
    the program time of the same fixed work without and with spans;
    `overhead` is the tracing overhead as a fraction; `cli_lines` is the
    number of lines the pass decoded through `cli.main`."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    for (name, start, end, _, _), covered in zip(spans, child):
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - covered

    def ratio(a, b):
        return a / b if b else 0.0

    def by(name):
        return [s for s in spans if s[0] == name]

    mults, adds = op_counts
    beams = by("decode.beam_search")
    steps = {b: sum(s[4][1] for s in beams if s[4][0] == b) for b in BACKENDS}
    lanes = by("decode.lane_step")
    flops = by("costmodel.flops_instrumented")
    edits = by("metrics.edit_distance")

    def under_cli(index):
        while index >= 0:
            if spans[index][0] == "cli.main":
                return True
            index = spans[index][3]
        return False

    cli_beams = sum(1 for s in beams if under_cli(s[3]))
    out = {
        "tensor.mults": mults,
        "tensor.adds": adds,
        "tensor.gflops": ratio(mults + adds, untraced_s) / 1e9,
        "tensor.backward.self_ms_per_sample":
            1e3 * ratio(own["tensor.backward"], calls["tensor.backward"]),
        "model.embed_image.ms_per_call":
            1e3 * ratio(total["model.embed_image"], calls["model.embed_image"]),
        "model.embed_image.share": ratio(total["model.embed_image"], traced_s),
        "model.build_image_cache.ms_per_line":
            1e3 * ratio(total["model.build_image_cache"],
                        calls["model.build_image_cache"]),
        "model.layer_forward.self_ms_per_call":
            1e3 * ratio(own["model.layer_forward"], calls["model.layer_forward"]),
        "model.step_kv.us_per_call":
            1e6 * ratio(total["model.step_kv"], calls["model.step_kv"]),
        "model.head_logits.us_per_call":
            1e6 * ratio(total["model.head_logits"], calls["model.head_logits"]),
        "fusion.marmf_forward.ms_per_call":
            1e3 * ratio(total["fusion.marmf_forward"],
                        calls["fusion.marmf_forward"]),
        "fusion.marmf_recurrent_step.us_per_call":
            1e6 * ratio(total["fusion.marmf_recurrent_step"],
                        calls["fusion.marmf_recurrent_step"]),
        "decode.beam_search.self_ms_per_step":
            1e3 * ratio(own["decode.beam_search"], sum(steps.values())),
        "decode.reindex.us_per_step":
            1e6 * ratio(total["decode.reindex"], steps["recurrent"]),
        "decode.kv_reindex.us_per_step":
            1e6 * ratio(total["decode.kv_reindex"], steps["kv"]),
        "decode.steps": sum(steps.values()),
        "decode.lane_steps": len(lanes),
    }
    for b in BACKENDS:
        out[f"decode.peak_live_elements.{b}"] = max(
            (s[4][2] for s in beams if s[4][0] == b), default=0)
    for pos in POSITIONS:
        for b in BACKENDS:
            at = [s[2] - s[1] for s in lanes if s[4] == (b, pos)]
            out[f"decode.step_us_at_pos.{pos}.{b}"] = 1e6 * ratio(sum(at),
                                                                 len(at))
    out.update({
        "training.adamw_step.ms_per_call":
            1e3 * ratio(total["training.adamw_step"],
                        calls["training.adamw_step"]),
        "training.corpus_rates.share":
            ratio(total["training.corpus_rates"], traced_s),
        "cli.decode.beam_search_calls_per_line": ratio(cli_beams, cli_lines),
        "costmodel.flops_instrumented.calls": len(flops),
        "costmodel.flops_instrumented.self_ms":
            1e3 * own["costmodel.flops_instrumented"],
        "costmodel.flops_instrumented.distinct_share":
            ratio(len({s[4] for s in flops}), len(flops)),
        "data.generate_dataset.ms_per_line":
            1e3 * ratio(total["data.generate_dataset"],
                        sum(s[4] for s in by("data.generate_dataset"))),
        "data.load_manifest.ms_per_line":
            1e3 * ratio(total["data.load_manifest"],
                        sum(s[4] for s in by("data.load_manifest"))),
        "checkpoint.load_checkpoint.ms":
            1e3 * ratio(total["checkpoint.load_checkpoint"],
                        calls["checkpoint.load_checkpoint"]),
        "metrics.edit_distance.us_per_line":
            1e6 * ratio(total["metrics.edit_distance"],
                        sum(1 for s in edits if s[4])),
        "trace.spans": len(spans),
        "trace.overhead_pct": 100.0 * overhead,
    })
    return out
