"""Invariant suite: every architectural claim checked against an independent
oracle, with one pass/fail record per check.

These functions back both the `verify` subcommand and the acceptance tests:
parallel/recurrent equivalence of the retention kernels the model runs and
of the fusion layer, gamma-schedule values against literal re-evaluations of
their closed forms, instrumented against closed-form operation counts, live
decode memory against the element formulas, end-to-end gradients against
central finite differences, and the structural guarantees (modality
firewall, text causality, softmax normalization).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costmodel import (
    beam_memory_summary,
    flops_closed_form,
    flops_instrumented,
    memory_elements,
)
from .decode import beam_search
from .fusion import (ARMFHeadConfig, ARMFProjections, FusionSequence, armf_parallel,
                     image_heads, marmf_forward, marmf_recurrent_step,
                     retention_step, retention_weights, scaled_scores, split_heads)
from .model import Model, ModelConfig, training_loss
from .retention import GammaSchedule, PhaseConfig, apply_phases, build_decay, gamma_schedule
from .tensor import (Tape, Tensor, backward, bmatmul, central_differences, matmul,
                     slice_rows, sum_all)

EQUIV_GAMMAS = (0.1, 0.5, 0.96875)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_parallel_recurrent(seed: int = 0, trials: int = 200,
                             tolerance: float = 1e-10) -> CheckResult:
    """Retention operator: the model's parallel kernel (`retention_weights`)
    over the whole sequence against n steps of its recurrent kernel
    (`retention_step`), one head at full width, over random configurations;
    odd trials rotate q and k by position first."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 20]))
    worst = 0.0
    for trial in range(trials):
        n = int(rng.integers(1, 33))
        d = 2 * int(rng.integers(1, 9))
        gamma = EQUIV_GAMMAS[trial % len(EQUIV_GAMMAS)]
        x = Tensor(rng.standard_normal((n, d)))
        wq, wk, wv = (Tensor(rng.standard_normal((d, d))) for _ in range(3))
        phases = PhaseConfig(enabled=bool(trial % 2))
        positions = np.arange(1, n + 1)
        q, k = (split_heads(apply_phases(matmul(x, w), positions, phases), 1)
                for w in (wq, wk))
        v = split_heads(matmul(x, wv), 1)
        weights = retention_weights(scaled_scores(q, k), build_decay(n, gamma))
        par = bmatmul(weights, v).data[0]
        state = np.zeros((1, 1, d, d))
        q, k, v = q.data[0], k.data[0], v.data[0]
        for i in range(n):
            row = retention_step(state, q[i:i + 1], k[i:i + 1], v[i:i + 1], gamma)
            worst = max(worst, float(np.max(np.abs(row[0] - par[i]))))
    return CheckResult(
        name="retention parallel vs recurrent",
        passed=worst <= tolerance,
        detail=f"max |delta| {worst:.3e} over {trials} configs (tol {tolerance:g})",
    )


def check_armf_equivalence(seed: int = 0, trials: int = 100,
                           tolerance: float = 1e-10) -> CheckResult:
    """Fusion layer: parallel multi-head forward against cached-image
    recurrent steps, random head counts and partitions."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 21]))
    worst = 0.0
    for trial in range(trials):
        heads = int(rng.choice([1, 2, 4]))
        d_head = int(rng.integers(1, max(2, 16 // heads + 1)))
        d = heads * d_head
        n_image = int(rng.integers(1, 9))
        n_text = int(rng.integers(1, 17))
        proj = ARMFProjections(*(Tensor(rng.standard_normal((d, d)))
                                 for _ in range(4)))
        sched = GammaSchedule("layerwise", layers=2, heads=heads,
                              gamma_subtractor=0.86)
        cfg = ARMFHeadConfig(d_model=d, heads=heads)
        layer_index = trial % 2
        x = rng.standard_normal((n_image + n_text, d))
        par = marmf_forward(FusionSequence(Tensor(x), n_image, n_text),
                            layer_index, sched, proj, cfg).data
        image = image_heads(x[:n_image] @ proj.wk.data,
                            x[:n_image] @ proj.wv.data, heads)
        state = np.zeros((1, heads, d_head, d_head))  # one decode lane
        decay = sched.layer_values(layer_index)[:, None, None]
        for t in range(n_text):
            row, state = marmf_recurrent_step(
                state, image, x[n_image + t:n_image + t + 1],
                proj, cfg, decay,
            )
            worst = max(worst, float(np.max(np.abs(row[0] - par[n_image + t]))))
    return CheckResult(
        name="fusion parallel vs recurrent",
        passed=worst <= tolerance,
        detail=f"max |delta| {worst:.3e} over {trials} configs (tol {tolerance:g})",
    )


def check_flop_oracle() -> CheckResult:
    """Instrumented counts must equal the closed forms as exact integers over
    the whole grid; the recurrent form must be step-invariant and the cached
    form must grow by exactly 2d + 2 per step."""
    failures = []
    for d in (1, 2, 4, 8, 16):
        for n in range(1, 17):
            for form in ("vanilla", "kv_cached", "recurrent"):
                inst = flops_instrumented(form, n, d)
                closed = flops_closed_form(form, n, d)
                if (inst.mults, inst.adds) != (closed.mults, closed.adds):
                    failures.append(f"{form} n={n} d={d}")
        rec = {flops_instrumented("recurrent", n, d).total for n in range(1, 17)}
        if len(rec) != 1:
            failures.append(f"recurrent not constant at d={d}")
        kv = [flops_instrumented("kv_cached", n, d).total for n in range(1, 17)]
        if set(np.diff(kv)) != {2 * d + 2}:
            failures.append(f"kv step difference wrong at d={d}")
    return CheckResult(
        name="operation-count oracle",
        passed=not failures,
        detail="instrumented == closed form on full grid" if not failures
        else f"mismatches: {failures[:4]}",
    )


def check_memory_oracle(seed: int = 0) -> CheckResult:
    """Element formulas at the headline configuration plus live counts
    observed during a real beam decode at every step."""
    problems = []
    summary = beam_memory_summary()
    if summary["recurrent_elements"] != 491_520:
        problems.append("recurrent headline count")
    if summary["kv_persistent_elements"] != 1_443_840:
        problems.append("persistent headline count")
    if summary["kv_peak_elements"] != 2_887_680:
        problems.append("peak headline count")
    if "discrepancy" not in summary["note"]:
        problems.append("missing discrepancy flag")

    model = Model(ModelConfig(vocab_size=8, max_text_len=10, layers=2, heads=2,
                              d_model=16, d_ff=32, cnn_channels=(4, 8, 8),
                              dropout_mix=0.0, dropout_embed=0.0), seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 22]))
    image = Tensor(rng.random((1, 32, 24)))
    beam = 3
    kv = beam_search(model, image, beam=beam, max_len=6, backend="kv")
    for row in kv.stats:
        if row["step"] == 1:
            continue
        want = memory_elements("kv_persistent", beam, row["step"],
                               model.config.d_model, 1) * model.config.layers
        if row["live_elements"] != want:
            problems.append(f"kv live elements at step {row['step']}")
    rec = beam_search(model, image, beam=beam, max_len=6, backend="recurrent")
    want = memory_elements("recurrent", beam, 1, model.config.d_model,
                           model.config.heads) * model.config.layers
    for row in rec.stats[1:]:
        if row["live_elements"] != want:
            problems.append(f"recurrent live elements at step {row['step']}")
    return CheckResult(
        name="memory-element oracle",
        passed=not problems,
        detail="formulas match live decode counts" if not problems
        else f"failed: {problems[:4]}",
    )


def _schedule_reference(strategy: str, L: int, H: int, sub: float) -> np.ndarray:
    """Independent re-evaluation of the closed forms with explicit loops."""
    lo, hi = np.log(1 / 32), np.log(1 / 512)
    spread = [lo] if H == 1 else [lo + (hi - lo) * h / (H - 1) for h in range(H)]
    table = np.zeros((L, H))
    for l in range(L):
        for h in range(H):
            if strategy == "original":
                table[l, h] = 1 - np.exp(spread[h])
            elif strategy == "small_gamma":
                table[l, h] = 1 - sub - np.exp(spread[h])
            elif strategy == "headwise":
                frac = 1.0 if H == 1 else h / (H - 1)
                table[l, h] = (1 - sub - 1 / 32) + frac * sub
            elif strategy == "layerwise":
                frac = 1.0 if L == 1 else l / (L - 1)
                table[l, h] = 1 - sub * (1 - frac) - np.exp(spread[h])
    return table


def check_gamma_schedules(tolerance: float = 1e-12) -> CheckResult:
    problems = []
    for strategy in ("original", "small_gamma", "headwise", "layerwise"):
        for (L, H) in ((1, 1), (2, 2), (3, 4), (12, 12), (4, 8)):
            got = gamma_schedule(GammaSchedule(strategy, L, H, 0.86))
            want = _schedule_reference(strategy, L, H, 0.86)
            if np.max(np.abs(got - want)) > tolerance:
                problems.append(f"{strategy} L={L} H={H}")
    lw = gamma_schedule(GammaSchedule("layerwise", 12, 12, 0.86))
    orig = gamma_schedule(GammaSchedule("original", 12, 12, 0.86))
    if not np.array_equal(lw[-1], orig[-1]):
        problems.append("layerwise last layer != original")
    if abs(float(lw.min()) - 0.10875) > 1e-12:
        problems.append(f"min value {lw.min()!r} != 0.10875")
    return CheckResult(
        name="gamma schedules",
        passed=not problems,
        detail="closed forms reproduced to 1e-12" if not problems
        else f"failed: {problems[:4]}",
    )


def gradient_check_model(seed: int = 0, tolerance: float = 1e-4,
                         floor: float = 1e-6, stride: int = 1):
    """Central finite differences against the tape gradient for every
    coordinate of every parameter of a small two-layer model. A stride above
    one subsamples coordinates for smoke passes."""
    model = Model(ModelConfig(vocab_size=8, max_text_len=10, layers=2, heads=2,
                              d_model=16, d_ff=32, cnn_channels=(4, 8, 8),
                              max_image_tokens=8, dropout_mix=0.0,
                              dropout_embed=0.0), seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 23]))
    image = Tensor(rng.random((1, 32, 16)))  # four image tokens
    inputs = np.array([1, 3, 4, 5, 6])       # SOS plus four characters
    targets = np.array([3, 4, 5, 6, 2])

    def loss_value() -> float:
        logits = model.forward(image, inputs)
        return training_loss(logits, targets, epsilon=0.1).item()

    with Tape():
        logits = model.forward(image, inputs)
        loss = training_loss(logits, targets, epsilon=0.1)
        backward(loss)

    worst, worst_name = 0.0, ""
    for name, p in model.params.items():
        analytic = np.zeros(p.shape) if p.grad is None else p.grad
        err, i = central_differences(p.data.reshape(-1), analytic.reshape(-1),
                                     loss_value, 1e-5, floor, stride)
        if err > worst:
            worst, worst_name = err, f"{name}[{i}]"
        p.grad = None
    return worst, worst_name, tolerance


def check_gradients(seed: int = 0, stride: int = 1) -> CheckResult:
    worst, worst_name, tolerance = gradient_check_model(seed, stride=stride)
    return CheckResult(
        name="end-to-end gradient check",
        passed=worst <= tolerance,
        detail=f"worst relative error {worst:.3e} at {worst_name} (tol {tolerance:g})",
    )


def check_structural(seed: int = 0, trials: int = 100) -> CheckResult:
    """Modality firewall (exact and via autodiff), text causality (exact),
    and softmax row normalization, each over random inputs."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 24]))
    problems = []
    for trial in range(trials):
        d = 2 * int(rng.integers(1, 7))
        n_image = int(rng.integers(1, 7))
        n_text = int(rng.integers(1, 9))
        gamma = float(rng.uniform(0.05, 0.99))
        proj = ARMFProjections(*(Tensor(rng.standard_normal((d, d)))
                                 for _ in range(4)))
        base = rng.standard_normal((n_image + n_text, d))

        out1 = armf_parallel(FusionSequence(Tensor(base), n_image, n_text),
                             proj, gamma).data
        poked = base.copy()
        poked[n_image:] = rng.standard_normal((n_text, d))
        out2 = armf_parallel(FusionSequence(Tensor(poked), n_image, n_text),
                             proj, gamma).data
        if not np.array_equal(out1[:n_image], out2[:n_image]):
            problems.append(f"firewall perturbation trial {trial}")

        x = Tensor(base, requires_grad=True)
        with Tape():
            out = armf_parallel(FusionSequence(x, n_image, n_text), proj, gamma)
            backward(sum_all(slice_rows(out, 0, n_image)))
        if np.max(np.abs(x.grad[n_image:])) > 1e-12:
            problems.append(f"firewall gradient trial {trial}")

        if n_text >= 2:
            t = int(rng.integers(0, n_text - 1))
            poked = base.copy()
            poked[n_image + n_text - 1] += 1.0
            out3 = armf_parallel(FusionSequence(Tensor(poked), n_image, n_text),
                                 proj, gamma).data
            if not np.array_equal(out1[:n_image + t + 1], out3[:n_image + t + 1]):
                problems.append(f"causality trial {trial}")

        q = base @ proj.wq.data
        k = base @ proj.wk.data
        dots = (q @ k.T) / np.sqrt(d)
        img = dots[:, :n_image]
        e = np.exp(img - img.max(axis=1, keepdims=True))
        soft = e / e.sum(axis=1, keepdims=True)
        if np.max(np.abs(soft.sum(axis=1) - 1.0)) > 1e-12:
            problems.append(f"softmax rows trial {trial}")
        if trial == 0:
            mask_rows = (dots[n_image:, n_image:]
                         * build_decay(n_text, gamma)).sum(axis=1)
            if np.all(np.abs(mask_rows - 1.0) < 1e-6):
                problems.append("text rows unexpectedly normalized")
    return CheckResult(
        name="structural invariants",
        passed=not problems,
        detail=f"firewall, causality, normalization over {trials} inputs"
        if not problems else f"failed: {problems[:4]}",
    )


def check_backend_equivalence(seed: int = 0, inputs: int = 50,
                              beams=(1, 3, 6, 10),
                              score_tol: float = 1e-9) -> CheckResult:
    model = Model(ModelConfig(vocab_size=8, max_text_len=12, layers=2, heads=2,
                              d_model=16, d_ff=32, cnn_channels=(4, 8, 8),
                              dropout_mix=0.0, dropout_embed=0.0), seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 25]))
    problems = []
    for case in range(inputs):
        image = Tensor(rng.random((1, 32, int(rng.integers(16, 40)))))
        for beam in beams:
            rec = beam_search(model, image, beam=beam, backend="recurrent")
            kv = beam_search(model, image, beam=beam, backend="kv")
            if rec.tokens != kv.tokens:
                problems.append(f"case {case} beam {beam}: transcripts differ")
            elif abs(rec.score - kv.score) > score_tol:
                problems.append(f"case {case} beam {beam}: scores differ")
    return CheckResult(
        name="decode backend equivalence",
        passed=not problems,
        detail=f"{inputs} inputs x beams {tuple(beams)} agree"
        if not problems else f"failed: {problems[:4]}",
    )


def run_all(seed: int = 0, quick: bool = False) -> list:
    scale = 0.2 if quick else 1.0
    results = [
        check_parallel_recurrent(seed, trials=max(10, int(200 * scale))),
        check_armf_equivalence(seed, trials=max(10, int(100 * scale))),
        check_flop_oracle(),
        check_memory_oracle(seed),
        check_gamma_schedules(),
        check_structural(seed, trials=max(10, int(100 * scale))),
        check_backend_equivalence(seed, inputs=max(4, int(50 * scale)),
                                  beams=(1, 3) if quick else (1, 3, 6, 10)),
        check_gradients(seed, stride=17 if quick else 1),
    ]
    return results


def format_report(results) -> str:
    lines = []
    for r in results:
        lines.append(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    lines.append(
        f"{sum(r.passed for r in results)}/{len(results)} checks passed"
    )
    return "\n".join(lines) + "\n"
