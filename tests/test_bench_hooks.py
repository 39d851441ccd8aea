"""The benchmark's tracer (perfbench/tracing.py) patches retline's entry
points on the module or class each caller resolves them through. A caller
that binds a name at import (`from .decode import beam_search`) escapes the
patch, and its calls silently drop out of the per-layer metrics; these
tests catch that here rather than in a benchmark run."""

import importlib.util
import os

import pytest

from retline import cli, training
from retline.checkpoint import save_checkpoint
from retline.data import generate_dataset
from retline.model import Model, ModelConfig

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                       "tracing.py")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ancestors(spans, index):
    names = []
    while index >= 0:
        names.append(spans[index][0])
        index = spans[index][3]
    return names


def toy_run(tmp_path):
    """Two generated lines, a one-layer retention model saved beside them,
    and the `retline decode` arguments that read both."""
    ds = generate_dataset(tmp_path / "data", "ab", count=2, min_len=2,
                          max_len=3, seed=0)
    model = Model(ModelConfig(vocab_size=ds.vocab.size, max_text_len=8,
                              layers=1, heads=2, d_model=16, d_ff=32,
                              cnn_channels=(4, 8, 8), dropout_mix=0.0,
                              dropout_embed=0.0), seed=0)
    save_checkpoint(model, str(tmp_path / "model"))
    argv = ["--out-dir", str(tmp_path / "out"), "decode",
            "--checkpoint", str(tmp_path / "model"),
            "--data", str(tmp_path / "data" / "manifest.tsv"), "--beam", "2"]
    return ds, model, argv


def test_decode_spans_under_cli_and_corpus_rates(tracing, tmp_path):
    ds, model, argv = toy_run(tmp_path)
    tracer = tracing.Tracer()
    try:
        # install resolves every name it wraps, or raises AttributeError
        tracing.install(tracer)
        patches = list(tracer._patches)
        for owner, attr, original in patches:
            assert callable(original), attr
            assert getattr(owner, attr) is not original, attr
        assert cli.main(argv) == 0
        training.corpus_rates(model, ds.samples, ds.vocab)
    finally:
        tracer.close()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, attr
    spans = tracer.spans
    beams = [i for i, s in enumerate(spans) if s[0] == "decode.beam_search"]
    under = [ancestors(spans, spans[i][3]) for i in beams]
    assert sum("cli.main" in names for names in under) == 2
    assert sum("training.corpus_rates" in names for names in under) == 2


def test_lane_steps_and_gathers_on_both_backends(tracing, tmp_path):
    # beam 2 moves lanes at the first step, so each backend gathers
    _, _, argv = toy_run(tmp_path)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        for backend in ("recurrent", "kv"):
            assert cli.main(argv + ["--backend", backend]) == 0
    finally:
        tracer.close()
    names = {s[0] for s in tracer.spans}
    assert {"decode.reindex", "decode.kv_reindex"} <= names
    assert {s[4][0] for s in tracer.spans
            if s[0] == "decode.lane_step"} == {"recurrent", "kv"}
