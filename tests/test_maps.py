import os

import numpy as np
import pytest

from retline.data import SOS_ID, read_pgm
from retline.fusion import FusionSequence, build_armf_mask
from retline.maps import collect_maps, dump_maps, sub_diagonal_mass
from retline.model import Model, ModelConfig, attention_allow
from retline.retention import build_decay_gated
from retline.tensor import Tensor, concat_rows


def make_model(mixer="retention", layers=2, strategy="layerwise"):
    cfg = ModelConfig(vocab_size=8, max_text_len=12, layers=layers, heads=2,
                      d_model=16, d_ff=32, cnn_channels=(4, 8, 8), mixer=mixer,
                      dropout_mix=0.0, dropout_embed=0.0,
                      gamma_strategy=strategy)
    return Model(cfg, seed=2)


def recomputed_maps(model, image, ids):
    """Independent numpy reference: rerun each layer on its input rows and
    rebuild every head's (scores, decay) from q and k."""
    cfg = model.config
    img, txt = model.embed_image(image), model.embed_text(ids)
    n_image, n_text = img.shape[0], len(ids)
    x = concat_rows([img, txt])
    dh = cfg.d_head
    layers = []
    for layer in model.layers:
        q = x.data @ layer.projections.wq.data
        k = x.data @ layer.projections.wk.data
        if cfg.gamma_strategy == "gated":
            z = x.data[n_image:] @ layer.gate_weights.data
            gates = (1.0 / (1.0 + np.exp(-z))) ** (1.0 / cfg.tau)
        heads = []
        for h in range(cfg.heads):
            sl = slice(h * dh, (h + 1) * dh)
            dots = (q[:, sl] @ k[:, sl].T) / np.sqrt(dh)
            if cfg.mixer == "attention":
                allow = attention_allow(n_image, n_text)
                masked = np.where(allow, dots, -np.inf)
                e = np.exp(masked - masked.max(axis=1, keepdims=True))
                heads.append(((e / e.sum(axis=1, keepdims=True))[n_image:], None))
                continue
            if cfg.gamma_strategy == "gated":
                decay = build_decay_gated(gates[:, h])
            else:
                gamma = model.schedule.layer_values(layer.index)[h]
                decay = build_armf_mask(n_image, n_text, gamma)[n_image:]
            heads.append((dots[n_image:, n_image:] * decay, decay))
        layers.append(heads)
        x = layer.forward(FusionSequence(x, n_image, n_text), None)
    return layers


def toy_image(seed=0, width=32):
    return Tensor(np.random.default_rng(seed).random((1, 32, width)))


class TestCollect:
    def test_decay_matches_builder_exactly(self):
        model = make_model()
        layers = collect_maps(model, toy_image(), [SOS_ID, 3, 4, 5])
        n_image = model.image_token_count(32)
        for li, heads in enumerate(layers):
            gammas = model.schedule.layer_values(li)
            for hi, entry in enumerate(heads):
                expected = build_armf_mask(n_image, 4, float(gammas[hi]))
                np.testing.assert_array_equal(
                    entry["decay"], expected[n_image:]
                )

    def test_attention_rows_sum_to_one(self):
        model = make_model(mixer="attention")
        layers = collect_maps(model, toy_image(), [SOS_ID, 3, 4])
        for heads in layers:
            for entry in heads:
                np.testing.assert_allclose(
                    entry["scores"].sum(axis=1), 1.0, atol=1e-12
                )
                assert entry["decay"] is None

    def test_layerwise_mass_grows_with_depth(self):
        model = make_model(layers=3)
        for seed in range(3):
            layers = collect_maps(model, toy_image(seed), [SOS_ID, 3, 4, 5, 6, 7])
            first = np.mean([sub_diagonal_mass(e["scores"]) for e in layers[0]])
            last = np.mean([sub_diagonal_mass(e["scores"]) for e in layers[-1]])
            assert last > first

    def test_decay_mass_grows_with_depth(self):
        model = make_model(layers=3)
        layers = collect_maps(model, toy_image(), [SOS_ID, 3, 4, 5])
        first = np.mean([sub_diagonal_mass(e["decay"]) for e in layers[0]])
        last = np.mean([sub_diagonal_mass(e["decay"]) for e in layers[-1]])
        assert last > first


class TestCapture:
    @pytest.mark.parametrize("mixer, strategy", [
        ("retention", "layerwise"), ("retention", "gated"),
        ("attention", "layerwise"),
    ])
    def test_maps_are_the_captured_forward_weights(self, mixer, strategy):
        model = make_model(mixer=mixer, strategy=strategy)
        ids = [SOS_ID, 3, 4, 5]
        captured = []
        model.forward(toy_image(), ids, capture=captured)
        layers = collect_maps(model, toy_image(), ids)
        n_image = model.image_token_count(32)
        n = n_image + len(ids)
        assert len(captured) == len(layers) == 2
        for (weights, decay), heads in zip(captured, layers):
            assert weights.shape == (2, n, n)
            for h, entry in enumerate(heads):
                if mixer == "attention":
                    assert decay is None and entry["decay"] is None
                    np.testing.assert_array_equal(entry["scores"],
                                                  weights[h, n_image:])
                else:
                    np.testing.assert_array_equal(
                        entry["scores"], weights[h, n_image:, n_image:])
                    np.testing.assert_array_equal(entry["decay"], decay[h])

    @pytest.mark.parametrize("mixer, strategy", [
        ("retention", "layerwise"), ("retention", "gated"),
        ("attention", "layerwise"),
    ])
    def test_maps_match_numpy_recomputation(self, mixer, strategy):
        model = make_model(mixer=mixer, strategy=strategy)
        ids = [SOS_ID, 3, 4, 5, 6]
        layers = collect_maps(model, toy_image(1), ids)
        reference = recomputed_maps(model, toy_image(1), ids)
        for heads, expected in zip(layers, reference):
            for entry, (scores, decay) in zip(heads, expected):
                np.testing.assert_allclose(entry["scores"], scores, rtol=0,
                                           atol=1e-12)
                if decay is None:
                    assert entry["decay"] is None
                else:
                    np.testing.assert_allclose(entry["decay"], decay, rtol=0,
                                               atol=1e-15)


class TestDump:
    def test_writes_csv_and_pgm(self, tmp_path):
        model = make_model()
        out = tmp_path / "maps"
        layers = dump_maps(model, toy_image(), [SOS_ID, 3, 4], str(out))
        for li in range(2):
            for hi in range(2):
                scores_csv = out / f"scores_l{li}_h{hi}.csv"
                decay_csv = out / f"decay_l{li}_h{hi}.csv"
                assert scores_csv.exists() and decay_csv.exists()
                loaded = np.loadtxt(scores_csv, delimiter=",")
                np.testing.assert_allclose(loaded, layers[li][hi]["scores"],
                                           atol=1e-12)
                heat = read_pgm(out / f"scores_l{li}_h{hi}.pgm")
                assert heat.shape == layers[li][hi]["scores"].shape
                assert heat.min() >= 0.0 and heat.max() <= 1.0

    def test_sub_diagonal_mass_definition(self):
        m = np.array([[5.0, 9.0], [-2.0, 7.0]])
        assert sub_diagonal_mass(m) == 2.0
