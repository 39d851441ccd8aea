import hashlib

import numpy as np
import pytest

from retline.data import Vocab, render_line
from retline.model import Model, ModelConfig
from retline.training import (
    AdamW,
    OptimizerSettings,
    TrainSettings,
    TrainingDiverged,
    cosine_lr,
    corpus_rates,
    train,
    write_metrics_csv,
)


def tiny_setup(n_train=8, n_val=2, chars="abcd", dropout_mix=0.0,
               dropout_embed=0.0):
    vocab = Vocab(chars)
    rng = np.random.default_rng(0)
    samples = []
    for i in range(n_train + n_val):
        text = "".join(rng.choice(list(chars), size=rng.integers(2, 4)))
        samples.append(render_line(text, height=32, sample_id=f"s{i}"))
    cfg = ModelConfig(vocab_size=vocab.size, max_text_len=8, layers=1, heads=2,
                      d_model=16, d_ff=32, cnn_channels=(4, 8, 8),
                      dropout_mix=dropout_mix, dropout_embed=dropout_embed)
    return Model(cfg, seed=0), samples[:n_train], samples[n_train:], vocab


class TestSchedule:
    def test_restart_boundary_returns_to_max(self):
        opt = OptimizerSettings(lr_max=1e-4, lr_min=1e-6, restart_epochs=30)
        assert cosine_lr(0, opt) == pytest.approx(1e-4)
        assert cosine_lr(30, opt) == pytest.approx(1e-4)
        assert cosine_lr(60, opt) == pytest.approx(1e-4)

    def test_monotone_decline_within_cycle(self):
        opt = OptimizerSettings(lr_max=1e-3, lr_min=1e-5, restart_epochs=10)
        lrs = [cosine_lr(e, opt) for e in range(10)]
        assert all(b < a for a, b in zip(lrs, lrs[1:]))
        assert lrs[-1] > opt.lr_min  # approaches but only reaches min in the limit

    def test_bad_restart_period(self):
        with pytest.raises(ValueError):
            cosine_lr(0, OptimizerSettings(restart_epochs=0))


class TestSettingsChecked:
    """A bad setting is refused when the settings are made, naming its key,
    before any training work."""

    @pytest.mark.parametrize("kwargs, key", [
        ({"lr_max": float("nan")}, "lr_max"),
        ({"lr_max": float("inf")}, "lr_max"),
        ({"lr_max": 1e-5, "lr_min": -1e-6}, "lr_min"),
        ({"weight_decay": float("inf")}, "weight_decay"),
        ({"weight_decay": float("nan")}, "weight_decay"),
        ({"lr_max": 1e-3, "lr_min": 1e-2}, "lr_min"),
        ({"restart_epochs": 0}, "restart_epochs"),
    ])
    def test_bad_optimizer_setting(self, kwargs, key):
        with pytest.raises(ValueError, match=f"^{key} "):
            OptimizerSettings(**kwargs)

    @pytest.mark.parametrize("kwargs, key", [
        ({"epochs": 0}, "epochs"),
        ({"epochs": -3}, "epochs"),
        ({"epochs": 2.5}, "epochs"),
        ({"batch_size": 0}, "batch_size"),
        ({"label_smoothing": 1.0}, "label_smoothing"),
        ({"label_smoothing": float("nan")}, "label_smoothing"),
    ])
    def test_bad_train_setting(self, kwargs, key):
        with pytest.raises(ValueError, match=f"^{key} "):
            TrainSettings(**kwargs)

    def test_equal_rates_and_zero_decay_accepted(self):
        opt = OptimizerSettings(lr_max=0.0, lr_min=0.0, weight_decay=0.0)
        assert cosine_lr(3, opt) == 0.0


class TestOptimizer:
    def test_zero_lr_leaves_parameters_bitwise(self):
        model, train_s, val_s, vocab = tiny_setup()
        before = {k: t.data.copy() for k, t in model.params.items()}
        opt = OptimizerSettings(lr_max=0.0, lr_min=0.0, restart_epochs=5)
        train(model, train_s, val_s, vocab, opt,
              TrainSettings(epochs=1, batch_size=4, label_smoothing=0.0))
        for name, t in model.params.items():
            np.testing.assert_array_equal(t.data, before[name], err_msg=name)

    def test_step_moves_parameters(self):
        model, train_s, val_s, vocab = tiny_setup()
        before = {k: t.data.copy() for k, t in model.params.items()}
        opt = OptimizerSettings(lr_max=1e-3, lr_min=1e-4, restart_epochs=5)
        train(model, train_s, val_s, vocab, opt,
              TrainSettings(epochs=1, batch_size=4, label_smoothing=0.0))
        moved = sum(
            np.any(t.data != before[name]) for name, t in model.params.items()
        )
        assert moved > len(model.params) // 2

    def test_parameters_stay_float32_representable(self):
        model, train_s, val_s, vocab = tiny_setup()
        opt = OptimizerSettings(lr_max=1e-3, lr_min=1e-4, restart_epochs=5)
        train(model, train_s, val_s, vocab, opt,
              TrainSettings(epochs=1, batch_size=4, label_smoothing=0.1))
        for name, t in model.params.items():
            snapped = t.data.astype(np.float32).astype(np.float64)
            np.testing.assert_array_equal(t.data, snapped, err_msg=name)

    def test_weight_decay_shrinks_unused_parameters(self):
        model, train_s, val_s, vocab = tiny_setup()
        # rows of the image position table beyond every sample's token count
        # receive zero gradient, so only the decoupled decay moves them
        widths = {model.image_token_count(s.width) for s in train_s}
        row = max(widths)
        before = np.abs(model.params["img_pos"].data[row + 1]).sum()
        opt = OptimizerSettings(lr_max=1e-2, lr_min=1e-2, weight_decay=0.1,
                                restart_epochs=5)
        train(model, train_s, val_s, vocab, opt,
              TrainSettings(epochs=2, batch_size=4, label_smoothing=0.0))
        after = np.abs(model.params["img_pos"].data[row + 1]).sum()
        assert after < before


class TestLoop:
    def test_loss_halves_within_100_steps_on_fixed_batch(self):
        model, train_s, _, vocab = tiny_setup(n_train=4, n_val=0)
        opt = OptimizerSettings(lr_max=3e-3, lr_min=3e-3, restart_epochs=1000)
        # one batch per epoch, so 100 epochs = 100 optimizer steps
        rows = train(model, train_s, (), vocab, opt,
                     TrainSettings(epochs=100, batch_size=4,
                                   label_smoothing=0.0))
        assert rows[-1]["loss"] <= 0.5 * rows[0]["loss"]

    def test_empty_dataset_rejected(self):
        model, _, _, vocab = tiny_setup()
        with pytest.raises(ValueError):
            train(model, [], [], vocab)

    def test_divergence_aborts_with_context(self):
        model, train_s, val_s, vocab = tiny_setup()
        model.params["head_w"].data *= 1e30  # force an overflow in softmax
        opt = OptimizerSettings(lr_max=1e30, lr_min=1e30, restart_epochs=5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises((TrainingDiverged, ValueError)):
                train(model, train_s, val_s, vocab, opt,
                      TrainSettings(epochs=3, batch_size=4,
                                    label_smoothing=0.0))

    def test_metrics_csv_columns(self, tmp_path):
        model, train_s, val_s, vocab = tiny_setup()
        opt = OptimizerSettings(lr_max=1e-3, lr_min=1e-4, restart_epochs=5)
        path = tmp_path / "metrics.csv"
        rows = train(model, train_s, val_s, vocab, opt,
                     TrainSettings(epochs=2, batch_size=4,
                                   label_smoothing=0.1),
                     metrics_path=str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,step,lr,loss,val_cer,val_wer"
        assert len(lines) == 3
        assert len(rows) == 2
        # plain decimal floats, not numpy scalar reprs
        assert "np.float" not in path.read_text()
        assert float(lines[1].split(",")[2]) == pytest.approx(1e-3)

    def test_loss_rows_match_pinned_values(self):
        # recorded with the gather-index im2col that the strided `unfold`
        # replaced; the second loss depends on every CNN gradient
        model, train_s, val_s, vocab = tiny_setup()
        opt = OptimizerSettings(lr_max=3e-3, lr_min=1e-4, restart_epochs=5)
        rows = train(model, train_s, val_s, vocab, opt,
                     TrainSettings(epochs=2, batch_size=4,
                                   label_smoothing=0.1))
        assert rows == [
            {"epoch": 0, "step": 2, "lr": 0.003, "loss": 2.3609989555162763,
             "val_cer": 1.0, "val_wer": 1.0},
            {"epoch": 1, "step": 4, "lr": 0.002723074641843674,
             "loss": 1.9605148480189118, "val_cer": 1.0, "val_wer": 1.0},
        ]

    def test_dropout_run_matches_pinned_parameters(self):
        # captured while the last layer still computed its image-query rows:
        # its dropout masks are drawn at the full row count, so the stream
        # and every kept mask value are unchanged
        model, train_s, val_s, vocab = tiny_setup(dropout_mix=0.3,
                                                  dropout_embed=0.1)
        opt = OptimizerSettings(lr_max=1e-3, lr_min=1e-4, restart_epochs=5)
        train(model, train_s, val_s, vocab, opt,
              TrainSettings(epochs=2, batch_size=4, label_smoothing=0.1))
        digest = hashlib.sha256()
        for name in sorted(model.params):
            digest.update(model.params[name].data.tobytes())
        assert digest.hexdigest() == (
            "4e9b3b490cba6faf69af42a20fcfffbba9d2aa417a256c3a61d2dbea4b73825f")

    def test_corpus_rates_on_perfect_hypotheses(self):
        model, train_s, val_s, vocab = tiny_setup()
        cer_val, wer_val = corpus_rates(model, val_s, vocab)
        assert 0.0 <= cer_val
        assert 0.0 <= wer_val
