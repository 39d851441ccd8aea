"""Training loop: decoupled weight decay, cosine annealing with warm restarts,
per-epoch held-out error rates, and a metrics CSV.

Gradients accumulate across the samples of a batch on one tape each; the
optimizer then takes a single step. Parameters are snapped back through
float32 after every update (training runs in the 32-bit regime; verification
math stays in doubles). A non-finite loss aborts immediately with context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import decode
from .data import Vocab, augment, detokenize, tokenize
from .metrics import edit_distance
from .model import Model, TrainContext, teacher_pair, training_loss, _f32
from .tensor import Tape, backward, mul_const

METRICS_COLUMNS = ("epoch", "step", "lr", "loss", "val_cer", "val_wer")

# Adam's moment decays and denominator epsilon (its published defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class TrainingDiverged(RuntimeError):
    pass


def _check_count(settings, name: str) -> None:
    value = getattr(settings, name)
    if type(value) is not int or value < 1:
        raise ValueError(f"{name} must be a whole number of at least 1, "
                         f"got {value!r}")


def _check_real(settings, name: str, below: float = math.inf) -> None:
    value = getattr(settings, name)
    if type(value) not in (int, float) or not 0.0 <= value < below:
        raise ValueError(f"{name} must be a real number in [0, {below}), "
                         f"got {value!r}")


@dataclass(frozen=True)
class OptimizerSettings:
    """Checked when made, so a run fails before any work on the first bad
    setting, named by its key."""

    lr_max: float = 1e-4
    lr_min: float = 1e-6
    weight_decay: float = 1e-3
    restart_epochs: int = 5

    def __post_init__(self):
        for name in ("lr_max", "lr_min", "weight_decay"):
            _check_real(self, name)
        if self.lr_min > self.lr_max:
            raise ValueError(f"lr_min must not exceed lr_max, got lr_min "
                             f"{self.lr_min!r} > lr_max {self.lr_max!r}")
        _check_count(self, "restart_epochs")


@dataclass(frozen=True)
class TrainSettings:
    """Checked when made, as OptimizerSettings is."""

    epochs: int = 20
    batch_size: int = 16
    label_smoothing: float = 0.4
    seed: int = 0
    augment_train: bool = False  # re-augment each sample every epoch
    stop_below_cer: float | None = None  # early-stop once held-out CER drops under

    def __post_init__(self):
        _check_count(self, "epochs")
        _check_count(self, "batch_size")
        _check_real(self, "label_smoothing", below=1.0)


class AdamW:
    """Adam with decoupled weight decay; the decay is scaled by the learning
    rate, so lr = 0 leaves parameters bitwise untouched."""

    def __init__(self, params: dict, settings: OptimizerSettings):
        self.params = params
        self.s = settings
        self.m = {k: np.zeros(t.shape) for k, t in params.items()}
        self.v = {k: np.zeros(t.shape) for k, t in params.items()}
        self.t = 0

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    def step(self, lr: float) -> None:
        if lr == 0.0:
            return
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[name] = b1 * self.m[name] + (1 - b1) * g
            v = self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            update = (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
            p.data = _f32(p.data - lr * (update + self.s.weight_decay * p.data))


def cosine_lr(epoch: int, opt: OptimizerSettings) -> float:
    """Cosine from lr_max down toward lr_min, restarting every restart_epochs."""
    pos = (epoch % opt.restart_epochs) / opt.restart_epochs
    return float(
        opt.lr_min + 0.5 * (opt.lr_max - opt.lr_min) * (1 + np.cos(np.pi * pos))
    )


def transcript_rates(pairs):
    """Corpus-level CER/WER of (hypothesis, reference) text pairs: total edit
    distance over total reference length."""
    char_edits = char_total = 0
    word_edits = word_total = 0
    for hyp, ref in pairs:
        char_edits += edit_distance(hyp, ref)
        char_total += len(ref)
        word_edits += edit_distance(hyp.split(), ref.split())
        word_total += len(ref.split())
    cer = char_edits / max(char_total, 1)
    wer = word_edits / max(word_total, 1)
    return cer, wer


def corpus_rates(model: Model, samples, vocab: Vocab, backend: str | None = None):
    """Corpus-level CER/WER of greedy (beam 1) transcripts of `samples`."""
    if backend is None:
        backend = "recurrent" if model.config.mixer == "retention" else "kv"
    pairs = []
    for sample in samples:
        result = decode.beam_search(model, sample.image, beam=1,
                                    backend=backend)
        pairs.append((detokenize(result.tokens, vocab), sample.transcript))
    return transcript_rates(pairs)


def train(model: Model, train_samples, val_samples, vocab: Vocab,
          opt_settings: OptimizerSettings = OptimizerSettings(),
          settings: TrainSettings = TrainSettings(),
          metrics_path=None, log=None) -> list:
    """Run the full loop; returns the metrics rows (and writes them as CSV
    when metrics_path is given)."""
    if not train_samples:
        raise ValueError("training needs a nonempty dataset")
    optimizer = AdamW(model.params, opt_settings)
    order_rng = np.random.default_rng(np.random.SeedSequence(
        entropy=[settings.seed, 10]))
    dropout_rng = np.random.default_rng(np.random.SeedSequence(
        entropy=[settings.seed, 11]))
    tokens = {
        s.sample_id: tokenize(s.transcript, vocab, model.config.max_text_len)
        for s in train_samples
    }
    rows, global_step = [], 0
    for epoch in range(settings.epochs):
        lr = cosine_lr(epoch, opt_settings)
        order = order_rng.permutation(len(train_samples))
        epoch_losses = []
        for start in range(0, len(order), settings.batch_size):
            batch = [(int(i), train_samples[i])
                     for i in order[start:start + settings.batch_size]]
            optimizer.zero_grad()
            batch_loss = 0.0
            for idx, sample in batch:
                seed = (settings.seed * 131 + epoch) * 100003 + idx
                image = (augment(sample, seed) if settings.augment_train
                         else sample.image)
                inputs, targets = teacher_pair(tokens[sample.sample_id])
                with Tape():
                    logits = model.forward(image, inputs,
                                           train=TrainContext(rng=dropout_rng))
                    loss = training_loss(logits, targets,
                                         epsilon=settings.label_smoothing)
                    backward(mul_const(loss, 1.0 / len(batch)))
                batch_loss += loss.item() / len(batch)
            if not np.isfinite(batch_loss):
                raise TrainingDiverged(
                    f"non-finite loss {batch_loss} at epoch {epoch}, "
                    f"step {global_step}, lr {lr:.2e}"
                )
            optimizer.step(lr)
            epoch_losses.append(batch_loss)
            global_step += 1
        val_cer, val_wer = corpus_rates(model, val_samples, vocab)
        row = {
            "epoch": epoch,
            "step": global_step,
            "lr": lr,
            "loss": float(np.mean(epoch_losses)),
            "val_cer": val_cer,
            "val_wer": val_wer,
        }
        rows.append(row)
        if log is not None:
            log(f"epoch {epoch}: lr {lr:.2e} loss {row['loss']:.4f} "
                f"val_cer {val_cer:.4f} val_wer {val_wer:.4f}")
        if (settings.stop_below_cer is not None
                and val_cer <= settings.stop_below_cer):
            break
    if metrics_path is not None:
        write_metrics_csv(metrics_path, rows)
    return rows


def write_metrics_csv(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(METRICS_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(row[c])) if isinstance(row[c], float)
                              else str(row[c]) for c in METRICS_COLUMNS) + "\n")
