"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v` (add -s to watch the lines as
they appear). Criteria 9a/9b train two toy models end to end and dominate
the runtime; everything else completes in about a minute.
"""

import time

import numpy as np
import pytest

from retline.data import detokenize, generate_dataset
from retline.decode import beam_search
from retline.maps import collect_maps
from retline.metrics import edit_distance
from retline.model import Model, ModelConfig
from retline.tensor import Tensor
from retline.training import OptimizerSettings, TrainSettings, train
from retline.verification import (
    check_armf_equivalence,
    check_backend_equivalence,
    check_flop_oracle,
    check_gamma_schedules,
    check_memory_oracle,
    check_parallel_recurrent,
    check_structural,
    gradient_check_model,
)

from oracles import sub_diagonal_mass

SEED = 7


def report(criterion, passed, detail):
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


class TestCriteria:
    def test_01_parallel_recurrent_equivalence(self):
        t0 = time.perf_counter()
        result = check_parallel_recurrent(SEED, trials=200, tolerance=1e-10)
        elapsed = time.perf_counter() - t0
        report("1", result.passed and elapsed < 10.0,
               f"{result.detail}, {elapsed:.1f}s (< 10 s)")

    def test_02_armf_equivalence(self):
        t0 = time.perf_counter()
        result = check_armf_equivalence(SEED, trials=100, tolerance=1e-10)
        elapsed = time.perf_counter() - t0
        report("2", result.passed and elapsed < 30.0,
               f"{result.detail}, {elapsed:.1f}s (< 30 s)")

    def test_03_flop_oracle(self):
        result = check_flop_oracle()
        report("3", result.passed, result.detail)

    def test_04_memory_oracle(self):
        result = check_memory_oracle(SEED)
        report("4", result.passed, result.detail)

    def test_05_gamma_schedules(self):
        result = check_gamma_schedules(tolerance=1e-12)
        report("5", result.passed, result.detail)

    @pytest.mark.slow
    def test_06_gradient_correctness(self):
        t0 = time.perf_counter()
        worst, worst_name, tolerance = gradient_check_model(SEED)
        elapsed = time.perf_counter() - t0
        report("6", worst <= tolerance and elapsed < 300.0,
               f"worst relative error {worst:.3e} at {worst_name} "
               f"(tol {tolerance:g}), {elapsed:.0f}s (< 300 s)")

    def test_07_structural_invariants(self):
        result = check_structural(SEED, trials=100)
        report("7", result.passed, result.detail)

    def test_08_decode_backend_equivalence(self):
        result = check_backend_equivalence(SEED, inputs=50,
                                           beams=(1, 3, 6, 10))
        report("8", result.passed, result.detail)


# --- criterion 9: end-to-end toy learning -----------------------------------

TOY_CHARS = "abcdefghijkl"
TOY_BUDGET = dict(
    opt=OptimizerSettings(lr_max=3e-3, lr_min=3e-5, weight_decay=1e-3,
                          restart_epochs=56),
    settings=TrainSettings(epochs=56, batch_size=16, label_smoothing=0.0,
                           seed=0, stop_below_cer=0.01),
)
CPU_BUDGET_SECONDS = 30 * 60


@pytest.fixture(scope="module")
def toy_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy_lines")
    ds = generate_dataset(out, TOY_CHARS, count=576, min_len=4, max_len=16,
                          seed=42)
    return ds.samples[:512], ds.samples[512:], ds.vocab


def _beam_cer(model, samples, vocab, beam, backend) -> float:
    edits = total = 0
    for sample in samples:
        result = beam_search(model, sample.image, beam=beam, backend=backend)
        edits += edit_distance(detokenize(result.tokens, vocab),
                               sample.transcript)
        total += len(sample.transcript)
    return edits / total


def _train_toy(mixer, toy_dataset):
    train_samples, val_samples, vocab = toy_dataset
    cfg = ModelConfig(vocab_size=vocab.size, max_text_len=18, layers=2,
                      heads=4, d_model=64, d_ff=128, mixer=mixer,
                      gamma_strategy="layerwise", dropout_mix=0.0,
                      dropout_embed=0.0)
    model = Model(cfg, seed=1)
    cpu0 = time.process_time()
    train(model, train_samples, val_samples, vocab,
          TOY_BUDGET["opt"], TOY_BUDGET["settings"])
    cpu_used = time.process_time() - cpu0
    backend = "recurrent" if mixer == "retention" else "kv"
    cer = _beam_cer(model, val_samples, vocab, beam=10, backend=backend)
    return cer, cpu_used


@pytest.fixture(scope="module")
def trained_retention(toy_dataset):
    return _train_toy("retention", toy_dataset)


class TestCriterion9:
    @pytest.mark.slow
    def test_09a_retention_reaches_target(self, trained_retention):
        cer, cpu_used = trained_retention
        report("9a", cer <= 0.02 and cpu_used < CPU_BUDGET_SECONDS,
               f"retention held-out CER {cer:.4f} (<= 0.02) in "
               f"{cpu_used / 60:.1f} CPU-min (< 30)")

    @pytest.mark.slow
    def test_09b_baseline_matches_within_band(self, toy_dataset,
                                              trained_retention):
        retention_cer, _ = trained_retention
        baseline_cer, cpu_used = _train_toy("attention", toy_dataset)
        gap = abs(baseline_cer - retention_cer)
        report("9b", gap <= 0.02 and cpu_used < CPU_BUDGET_SECONDS,
               f"baseline CER {baseline_cer:.4f} vs retention "
               f"{retention_cer:.4f}, |gap| {gap:.4f} (<= 0.02) in "
               f"{cpu_used / 60:.1f} CPU-min")


class TestCriterion10:
    def test_10_map_dump_local_to_global(self):
        cfg = ModelConfig(vocab_size=15, max_text_len=18, layers=3, heads=4,
                          d_model=32, d_ff=64, cnn_channels=(4, 8, 8),
                          gamma_strategy="layerwise", dropout_mix=0.0,
                          dropout_embed=0.0)
        model = Model(cfg, seed=SEED)
        rng = np.random.default_rng(SEED)
        failures = []
        for case in range(5):
            image = Tensor(rng.random((1, 32, int(rng.integers(24, 48)))))
            ids = np.concatenate(([1], rng.integers(3, 15, size=8)))
            layers = collect_maps(model, image, ids)
            first = np.mean([sub_diagonal_mass(e["scores"]) for e in layers[0]])
            last = np.mean([sub_diagonal_mass(e["scores"]) for e in layers[-1]])
            if not last > first:
                failures.append(f"case {case}: first {first:.3f} last {last:.3f}")
        report("10", not failures,
               "sub-diagonal score mass strictly grows with depth on 5 inputs"
               if not failures else "; ".join(failures))
