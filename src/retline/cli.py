"""Command-line entry point.

Subcommands: verify (invariant suite), bench-flops / bench-memory (cost-model
sweeps), gen-data (seeded synthetic dataset), train, decode, dump-maps, and
report (aggregate CSVs into a summary). Every run writes a config echo next
to its outputs so results reproduce from (config, seed) alone. Exit codes:
0 success, 1 runtime or verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

from . import decode
from .checkpoint import load_checkpoint, save_checkpoint
from .costmodel import beam_memory_summary, sweep_rows, write_sweep_csv
from .data import (
    DEFAULT_HEIGHT,
    Vocab,
    detokenize,
    generate_dataset,
    load_manifest,
    render_line,
    tokenize,
)
from .model import Model, ModelConfig, teacher_pair
from .training import (
    OptimizerSettings,
    TrainSettings,
    TrainingDiverged,
    corpus_rates,  # noqa: F401  perfbench/tracing.py wraps cli.corpus_rates
    train,
    transcript_rates,
)

# defaults follow the published configuration wherever one is stated; desk
# runs override them through the config file
CONFIG_DEFAULTS = {
    "layers": 12,
    "heads": 12,
    "d_model": 768,
    "d_ff": 3072,
    "mixer": "retention",
    "gamma_strategy": "layerwise",
    "gamma_subtractor": 0.86,
    "tau": 16.0,
    "image_prior": "none",
    "dropout_mix": 0.3,
    "dropout_embed": 0.1,
    "height": DEFAULT_HEIGHT,
    "max_text_len": 95,
    "max_image_tokens": 512,
    "cnn_channels": "8,16,16",
    "epochs": 30,
    "batch_size": 16,
    "lr_max": 1e-4,
    "lr_min": 1e-6,
    "weight_decay": 1e-3,
    "restart_epochs": 30,
    "label_smoothing": 0.4,
    "augment_train": False,
    "beam": 10,
    "backend": "auto",  # recurrent for retention models, kv for the twin
    "chars": "abcdefghijkl",
    "count": 576,
    "min_len": 4,
    "max_len": 16,
    "val_count": 64,
}

_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _channels(spec: str) -> tuple:
    return tuple(int(c) for c in spec.split(","))


def _parse_value(key: str, value: str):
    """A config value typed like the key's default: booleans take the words
    of _BOOL_WORDS, and cnn_channels stays text that must list integers."""
    default = CONFIG_DEFAULTS[key]
    if isinstance(default, bool):  # bool is an int: test it first
        if value.lower() not in _BOOL_WORDS:
            raise ValueError(f"expected a boolean, got {value!r}")
        return _BOOL_WORDS[value.lower()]
    if isinstance(default, (int, float)):
        return type(default)(value)
    if key == "cnn_channels":
        _channels(value)
    return value


def load_config(path: str | None) -> dict:
    config = dict(CONFIG_DEFAULTS)
    if path is None:
        return config
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in config:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                config[key] = _parse_value(key, value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return config


def echo_config(out_dir: str, config: dict, seed: int) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config_echo.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(f"seed={seed}\n")
        for key in sorted(config):
            fh.write(f"{key}={config[key]}\n")


def model_config_from(config: dict, vocab_size: int) -> ModelConfig:
    values = {f.name: config[f.name] for f in dataclasses.fields(ModelConfig)
              if f.name != "vocab_size"}
    values["cnn_channels"] = _channels(config["cnn_channels"])
    return ModelConfig(vocab_size=vocab_size, **values)


def parse_range(spec: str) -> list:
    """Accept '1..4' (inclusive) or comma-separated values."""
    spec = spec.strip()
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in spec.split(",") if tok]


def _cmd_verify(args, config) -> int:
    # imported by the one command that runs them, as dump_maps is, so no
    # other command pays for their import
    from .verification import format_report, run_all

    echo_config(args.out_dir, config, args.seed)
    results = run_all(seed=args.seed, quick=args.quick)
    report = format_report(results)
    with open(os.path.join(args.out_dir, "verify.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(report)
    print(report, end="")
    return 0 if all(r.passed for r in results) else 1


def _cmd_bench_flops(args, config) -> int:
    echo_config(args.out_dir, config, args.seed)
    rows = sweep_rows(parse_range(args.n), parse_range(args.d),
                      [args.beam], [args.decoded], parse_range(args.heads))
    if args.form != "all":
        rows = [r for r in rows if r["form"] == args.form]
    path = os.path.join(args.out_dir, "flops.csv")
    write_sweep_csv(path, rows)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def _cmd_bench_memory(args, config) -> int:
    echo_config(args.out_dir, config, args.seed)
    rows = sweep_rows([1], parse_range(args.d), parse_range(args.beam),
                      parse_range(args.decoded), parse_range(args.heads))
    rows = [r for r in rows if r["form"] != "vanilla"]
    path = os.path.join(args.out_dir, "memory.csv")
    write_sweep_csv(path, rows)
    summary = beam_memory_summary()
    note_path = os.path.join(args.out_dir, "memory_summary.txt")
    with open(note_path, "w", encoding="utf-8") as fh:
        fh.write(
            "recurrent per-layer elements (B={beam}, d={d}, H={heads}): "
            "{recurrent_elements:,}\n"
            "kv persistent per-layer elements (B={beam}, N={decoded}, d={d}): "
            "{kv_persistent_elements:,}\n"
            "kv peak per-layer elements: {kv_peak_elements:,}\n"
            "{note}\n".format(**summary)
        )
    print(f"wrote {len(rows)} rows to {path} and summary to {note_path}")
    return 0


def _cmd_gen_data(args, config) -> int:
    echo_config(args.out_dir, config, args.seed)
    ds = generate_dataset(
        args.out_dir, config["chars"], config["count"], config["min_len"],
        config["max_len"], height=config["height"], seed=args.seed,
        augment_lines=config["augment_train"],
    )
    print(f"wrote {len(ds)} lines under {args.out_dir}")
    return 0


def _split_dataset(ds, val_count: int):
    if val_count >= len(ds.samples):
        raise ValueError("validation split leaves no training data")
    if val_count > 0:
        return ds.samples[:-val_count], ds.samples[-val_count:]
    return ds.samples, ()


def _check_lines_fit(model, ds, path) -> None:
    """Fail before any work on the first line whose image the model cannot
    embed, naming the manifest and the line."""
    for sample in ds.samples:
        try:
            model.check_image((1, sample.height, sample.width))
        except ValueError as exc:
            raise ValueError(f"{path}: {sample.sample_id}: {exc}") from None


def _cmd_train(args, config) -> int:
    echo_config(args.out_dir, config, args.seed)
    ds = load_manifest(args.data)
    train_samples, val_samples = _split_dataset(ds, config["val_count"])
    model = Model(model_config_from(config, ds.vocab.size), seed=args.seed)
    _check_lines_fit(model, ds, args.data)
    opt = OptimizerSettings(
        lr_max=config["lr_max"], lr_min=config["lr_min"],
        weight_decay=config["weight_decay"],
        restart_epochs=config["restart_epochs"],
    )
    settings = TrainSettings(
        epochs=config["epochs"], batch_size=config["batch_size"],
        label_smoothing=config["label_smoothing"], seed=args.seed,
        augment_train=bool(config["augment_train"]),
    )
    metrics_path = os.path.join(args.out_dir, "metrics.csv")
    rows = train(model, train_samples, val_samples, ds.vocab, opt, settings,
                 metrics_path=metrics_path,
                 log=lambda msg: print(msg, file=sys.stderr, flush=True))
    save_checkpoint(model, os.path.join(args.out_dir, "model"))
    last = rows[-1]
    print(f"trained {config['epochs']} epochs; final loss {last['loss']:.4f} "
          f"val_cer {last['val_cer']:.4f}; checkpoint + {metrics_path} written")
    return 0


def _cmd_decode(args, config) -> int:
    echo_config(args.out_dir, config, args.seed)
    model = load_checkpoint(args.checkpoint)
    ds = load_manifest(args.data)
    _check_lines_fit(model, ds, args.data)
    beam = args.beam if args.beam is not None else config["beam"]
    backend = args.backend if args.backend is not None else config["backend"]
    if backend == "auto":
        backend = "recurrent" if model.config.mixer == "retention" else "kv"
    results, lines, pairs = [], [], []
    for sample in ds.samples:
        result = decode.beam_search(model, sample.image, beam=beam,
                                    backend=backend)
        text = detokenize(result.tokens, ds.vocab)
        results.append(result)
        lines.append(f"{sample.sample_id}\t{text}")
        pairs.append((text, sample.transcript))
    out_txt = os.path.join(args.out_dir, "transcripts.txt")
    with open(out_txt, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    decode.write_stats_csv(os.path.join(args.out_dir, "decode_stats.csv"),
                           results)
    cer_val, wer_val = transcript_rates(pairs)
    print(f"decoded {len(ds.samples)} lines (beam {beam}, {backend}); "
          f"cer {cer_val:.4f} wer {wer_val:.4f}; wrote {out_txt}")
    return 0


def _cmd_dump_maps(args, config) -> int:
    from .maps import dump_maps

    echo_config(args.out_dir, config, args.seed)
    vocab = Vocab(config["chars"])
    if args.checkpoint:
        model = load_checkpoint(args.checkpoint)
    else:
        model = Model(model_config_from(config, vocab.size), seed=args.seed)
    text = args.text or config["chars"][: min(8, len(config["chars"]))]
    sample = render_line(text, height=model.config.height, seed=args.seed)
    ids = tokenize(text, vocab, model.config.max_text_len)
    inputs, _ = teacher_pair(ids)
    maps_dir = os.path.join(args.out_dir, "maps")
    layers = dump_maps(model, sample.image, inputs, maps_dir)
    n_files = sum(len(heads) for heads in layers)
    print(f"wrote score maps for {len(layers)} layers ({n_files} heads) "
          f"under {maps_dir}")
    return 0


def _cmd_report(args, config) -> int:
    echo_config(args.out_dir, config, args.seed)
    sections = []
    for name in ("metrics.csv", "flops.csv", "memory.csv", "decode_stats.csv"):
        path = os.path.join(args.out_dir, name)
        if not os.path.exists(path):
            continue
        with open(path, "r", encoding="utf-8") as fh:
            rows = fh.read().strip().splitlines()
        header = rows[0] if rows else ""
        sections.append((name, len(rows) - 1, header, rows[-1] if len(rows) > 1 else ""))
    summary_txt = os.path.join(args.out_dir, "report.txt")
    summary_csv = os.path.join(args.out_dir, "report.csv")
    with open(summary_txt, "w", encoding="utf-8") as fh:
        if not sections:
            fh.write("no artifact CSVs found\n")
        for name, count, header, last in sections:
            fh.write(f"{name}: {count} data rows\n")
            fh.write(f"  columns: {header}\n")
            if last:
                fh.write(f"  last row: {last}\n")
    with open(summary_csv, "w", encoding="utf-8") as fh:
        fh.write("artifact,rows\n")
        for name, count, _, _ in sections:
            fh.write(f"{name},{count}\n")
    print(f"wrote {summary_txt} ({len(sections)} artifacts)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retline",
        description="retentive line-recognition workbench",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--config", default=None,
                        help="config file; defaults to $RETLINE_CONFIG")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--quick", action="store_true",
                   help="reduced trial counts for a fast smoke pass")

    p = sub.add_parser("bench-flops", help="operation-count sweep to CSV")
    p.add_argument("--form", default="all",
                   choices=("all", "vanilla", "kv_cached", "recurrent"))
    p.add_argument("--n", default="1..16")
    p.add_argument("--d", default="1,2,4,8,16")
    p.add_argument("--beam", type=int, default=10)
    p.add_argument("--decoded", type=int, default=94)
    p.add_argument("--heads", default="1")

    p = sub.add_parser("bench-memory", help="memory-element sweep to CSV")
    p.add_argument("--beam", default="1..10")
    p.add_argument("--decoded", default="16,32,64,94,128")
    p.add_argument("--d", default="768")
    p.add_argument("--heads", default="12")

    sub.add_parser("gen-data", help="render a seeded synthetic dataset")

    p = sub.add_parser("train", help="train a model on a rendered dataset")
    p.add_argument("--data", required=True, help="path to manifest.tsv")

    p = sub.add_parser("decode", help="decode a dataset with a checkpoint")
    p.add_argument("--checkpoint", required=True, help="checkpoint path prefix")
    p.add_argument("--data", required=True)
    p.add_argument("--beam", type=int, default=None)
    p.add_argument("--backend", default=None, choices=(None, "recurrent", "kv"))

    p = sub.add_parser("dump-maps", help="write per-layer score heatmaps")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--text", default=None)

    sub.add_parser("report", help="aggregate output CSVs into a summary")
    return parser


_COMMANDS = {
    "verify": _cmd_verify,
    "bench-flops": _cmd_bench_flops,
    "bench-memory": _cmd_bench_memory,
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "decode": _cmd_decode,
    "dump-maps": _cmd_dump_maps,
    "report": _cmd_report,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reads, built once per process: building it costs
    more than a parse, and parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.config is None:
        args.config = os.environ.get("RETLINE_CONFIG")
    try:
        config = load_config(args.config)
        return _COMMANDS[args.command](args, config)
    except (ValueError, OSError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
