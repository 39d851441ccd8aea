import hashlib
from pathlib import Path

import numpy as np
import pytest

from retline.checkpoint import load_checkpoint, save_checkpoint
from retline.data import EOS_ID, PAD_ID, SOS_ID, Vocab, render_line, tokenize
from retline.fusion import IMAGE_PRIORS, FusionSequence
from retline.model import (
    Model,
    ModelConfig,
    TrainContext,
    attention_allow,
    sinusoidal_positions,
    teacher_pair,
    training_loss,
)
from retline.retention import GAMMA_STRATEGIES
from retline.tensor import (
    OpCounter,
    Tape,
    Tensor,
    backward,
    count_ops,
    matmul,
    mul,
    sum_all,
)


def tiny_config(**overrides):
    base = dict(
        vocab_size=7, max_text_len=10, layers=2, heads=2, d_model=16,
        d_ff=32, cnn_channels=(4, 8, 8), height=32, dropout_mix=0.0,
        dropout_embed=0.0,
    )
    base.update(overrides)
    return ModelConfig(**base)


def toy_image(width=40, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.random((1, 32, width)))


def parameter_shapes(model):
    return {name: t.shape for name, t in model.params.items()}


class TestConfig:
    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError):
            tiny_config(d_model=15)

    def test_zero_heads_rejected_before_the_modulo(self):
        with pytest.raises(ValueError, match="heads"):
            tiny_config(heads=0)

    def test_minimum_vocab(self):
        with pytest.raises(ValueError):
            tiny_config(vocab_size=3)

    def test_unknown_mixer(self):
        with pytest.raises(ValueError):
            tiny_config(mixer="mamba")

    def test_height_divisibility(self):
        with pytest.raises(ValueError):
            tiny_config(height=30)


class TestImageEmbedding:
    def test_feature_shape_contract(self):
        model = Model(tiny_config(cnn_channels=(8, 16, 16)))
        tokens = model.embed_image(toy_image(width=40))
        assert tokens.shape == (10, 16)

    def test_token_count_doubles_with_width(self):
        model = Model(tiny_config())
        n1 = model.embed_image(toy_image(width=40)).shape[0]
        n2 = model.embed_image(toy_image(width=80)).shape[0]
        assert n2 == 2 * n1
        assert model.image_token_count(40) == n1

    def test_zero_image_is_pure_bias_plus_positions(self):
        model = Model(tiny_config())
        tok = model.embed_image(Tensor(np.zeros((1, 32, 16)))).data
        n = tok.shape[0]
        # conv stack on zeros gives constant feature columns, so every token
        # differs from the next only through the learned positional table
        pos = model.params["img_pos"].data[:n]
        spread = tok - pos
        assert np.max(np.abs(spread - spread[0])) < 1e-12

    def test_wrong_height_rejected(self):
        model = Model(tiny_config())
        with pytest.raises(ValueError):
            model.embed_image(Tensor(np.zeros((1, 40, 16))))

    @pytest.mark.parametrize("text,digest", [
        ("ab", "cd831a26941795b2da2f2b167763c62d"
               "8193ab24a983a894a800c1ed9db49f47"),
        ("abcdabcdabc", "cdd9498ce763922de5fa6e1ee6a15828"
                        "e623dc92f18b885632969fbea712836d"),
    ])
    def test_tokens_match_pinned_digest(self, text, digest):
        # sha256 of the float64 token bytes, recorded with the gather-index
        # im2col that the strided `unfold` replaced
        import hashlib

        tokens = Model(tiny_config(), seed=11).embed_image(
            render_line(text).image).data
        assert hashlib.sha256(tokens.tobytes()).hexdigest() == digest


def toy_embedder_digests(width: int) -> tuple:
    """sha256 of the embed_image tokens, and of every cnn*/img_proj gradient
    of a seeded upstream, at the benchmark's toy CNN (8, 16, 16) and d=64,
    with nonzero biases so that the bias adds are covered."""
    model = Model(tiny_config(heads=4, d_model=64, d_ff=128,
                              cnn_channels=(8, 16, 16)), seed=5)
    rng = np.random.default_rng(width)
    for name in ("cnn0_b", "cnn1_b", "cnn2_b", "img_proj_b"):
        param = model.params[name]
        param.data = rng.normal(0.0, 0.1, param.shape)
    image = Tensor(rng.random((1, 32, width)))
    with Tape():
        tokens = model.embed_image(image)
        upstream = Tensor(rng.standard_normal(tokens.shape))
        backward(sum_all(mul(tokens, upstream)))
    grads = hashlib.sha256()
    for name in sorted(model.params):
        if name.startswith(("cnn", "img_proj")):
            grads.update(model.params[name].grad.tobytes())
    return hashlib.sha256(tokens.data.tobytes()).hexdigest(), grads.hexdigest()


# captured with unfold -> matmul -> bias add -> reshape per CNN stage, before
# the fused tensor.conv replaced them
PINNED_TOY_EMBEDDER = {
    100: ("8a5ad681d3f2af8baa09ce993f156021a1322171d3c5b3b7f6c4f7ec677a1d71",
          "d26ada47ec82a2a9c7a16a63f99b7e122d39bdc5c68539429363b0c8fcfc45e0"),
    221: ("f2042a2993bf4630312b88c3bf5c840fdcb7f6d4394952b5e6d50701ef9ab986",
          "0faaaae8b7cfa00d73e99a9006310b174e56fd7ce127b73c79a4af94c26a0e39"),
    388: ("8ba5cb8d6eca1077a5609fd74e1bbb8ab28cfd8a86491262bd6c3aa1d15c735c",
          "a40a1d95753e48cb96ad3cee6dfacaa86a7a5091f0463574ce9983250dec8e5b"),
}


class TestPinnedToyEmbedder:
    @pytest.mark.parametrize("width", sorted(PINNED_TOY_EMBEDDER))
    def test_tokens_and_gradients(self, width):
        assert toy_embedder_digests(width) == PINNED_TOY_EMBEDDER[width]


class TestTextEmbedding:
    def test_position_zero_contributions(self):
        pe = sinusoidal_positions(1, 8)[0]
        np.testing.assert_array_equal(pe[0::2], 0.0)
        np.testing.assert_array_equal(pe[1::2], 1.0)

    def test_single_row_equals_table_row(self):
        table = sinusoidal_positions(200, 64)
        for pos in range(200):
            row = sinusoidal_positions(1, 64, first=pos)
            np.testing.assert_array_equal(row, table[pos:pos + 1])

    def test_step_embedding_equals_sequence_embedding(self):
        model = Model(tiny_config())
        ids = [3, 4, 5, 6, 3]
        rows = model.embed_text(ids).data
        for pos, token in enumerate(ids):
            step = model.embed_text_step([token], pos)
            np.testing.assert_array_equal(step[0], rows[pos])

    @pytest.mark.parametrize("order", ["ascending", "past_the_table_first"])
    def test_step_rows_past_max_text_len(self, order):
        # the position table starts at max_text_len rows and grows on demand
        model = Model(tiny_config())
        positions = list(range(40))
        if order == "past_the_table_first":
            positions = [35] + positions
        emb = model.params["char_embed"].data[3]
        for pos in positions:
            expected = emb + sinusoidal_positions(1, 16, first=pos)[0]
            np.testing.assert_array_equal(model.embed_text_step([3], pos)[0],
                                          expected)

    def test_bounded(self):
        pe = sinusoidal_positions(1000, 24)
        assert pe.min() >= -1.0 and pe.max() <= 1.0

    def test_same_id_different_positions_differ(self):
        model = Model(tiny_config())
        rows = model.embed_text([3, 3, 3]).data
        assert np.any(rows[0] != rows[1])
        assert np.any(rows[1] != rows[2])

    def test_out_of_range_id_rejected(self):
        model = Model(tiny_config())
        with pytest.raises(ValueError):
            model.embed_text([7])


class TestStepDecay:
    """Under a fixed schedule, a kv decode step reads the decay of its t
    text keys as the last t columns of one table of powers, grown past
    max_text_len on demand; it equals the per-step power
    gamma^(t-1) .. gamma^0 bitwise."""

    @pytest.mark.parametrize("strategy", [s for s in GAMMA_STRATEGIES
                                          if s != "gated"])
    @pytest.mark.parametrize("subtractor", [0.3, 0.6, 0.86])
    def test_text_decay_equals_per_step_powers(self, strategy, subtractor):
        model = Model(tiny_config(layers=3, heads=4, gamma_strategy=strategy,
                                  gamma_subtractor=subtractor))
        lengths = np.random.default_rng(0).permutation(np.arange(1, 97))
        for layer in model.layers:
            gammas = model.schedule.layer_values(layer.index)
            for t in lengths.tolist():
                expected = gammas[:, None] ** np.arange(t - 1, -1, -1,
                                                        dtype=np.float64)
                assert np.array_equal(layer._text_decay(t), expected), t


class TestImageOnlyPass:
    """The image cache, built on plain arrays with no tape, holds bitwise the
    keys and values of the image rows that the parallel forward of an
    image-only sequence carries from layer to layer."""

    @pytest.mark.parametrize("mixer,strategy,prior", [
        ("retention", s, p) for s in GAMMA_STRATEGIES for p in IMAGE_PRIORS
        if s != "gated" or p == "none"  # gated decay rejects image priors
    ] + [("attention", "layerwise", p) for p in ("none", "fixed")])
    def test_cache_equals_forward_projections(self, mixer, strategy, prior):
        model = Model(tiny_config(layers=3, heads=4, d_model=64, d_ff=128,
                                  cnn_channels=(8, 16, 16), mixer=mixer,
                                  gamma_strategy=strategy, image_prior=prior),
                      seed=3)
        image = toy_image(width=44)
        cache = model.build_image_cache(image)
        assert isinstance(cache, tuple) and len(cache) == len(model.layers)
        x = model.embed_image(image)
        for (keys, values), layer in zip(cache, model.layers):
            proj = layer.projections
            assert isinstance(keys, np.ndarray), layer.index
            assert np.array_equal(keys, matmul(x, proj.wk).data), layer.index
            assert np.array_equal(values, matmul(x, proj.wv).data), layer.index
            x = layer.forward(FusionSequence(x, x.shape[0], 0), train=None)


class TestForward:
    def test_logits_shape(self):
        model = Model(tiny_config())
        logits = model.forward(toy_image(), [SOS_ID, 3, 4])
        assert logits.shape == (3, 7)

    def test_eval_deterministic_bitwise(self):
        model = Model(tiny_config())
        a = model.forward(toy_image(), [SOS_ID, 3, 4]).data
        b = model.forward(toy_image(), [SOS_ID, 3, 4]).data
        np.testing.assert_array_equal(a, b)

    def test_future_target_invariance_exact(self):
        model = Model(tiny_config())
        img = toy_image()
        a = model.forward(img, [SOS_ID, 3, 4, 5, 6]).data
        b = model.forward(img, [SOS_ID, 3, 4, 6, 3]).data
        np.testing.assert_array_equal(a[:3], b[:3])

    def test_empty_text_rejected(self):
        model = Model(tiny_config())
        with pytest.raises(ValueError):
            model.forward(toy_image(), [])

    def test_dropout_changes_training_path_only(self):
        model = Model(tiny_config(dropout_mix=0.3, dropout_embed=0.1))
        img = toy_image()
        ids = [SOS_ID, 3, 4]
        eval_a = model.forward(img, ids).data
        eval_b = model.forward(img, ids).data
        np.testing.assert_array_equal(eval_a, eval_b)
        rng = np.random.default_rng(0)
        train_out = model.forward(img, ids, train=TrainContext(rng=rng)).data
        assert np.any(train_out != eval_a)


def forward_backward_digest(ids=(SOS_ID, 3, 4, 5, 6),
                            targets=(3, 4, 5, 6, EOS_ID), **overrides) -> str:
    """sha256 over the logits and every parameter gradient of one seeded
    teacher-forced forward and backward pass."""
    model = Model(tiny_config(**overrides), seed=3)
    with Tape():
        logits = model.forward(toy_image(36, seed=4), list(ids))
        backward(training_loss(logits, list(targets)))
    digest = hashlib.sha256(logits.data.tobytes())
    for name in sorted(model.params):
        digest.update(model.params[name].grad.tobytes())
    return digest.hexdigest()


# captured before the head-batched mixer core replaced the per-head loops;
# every mixer configuration must reproduce them bitwise
PINNED_DIGESTS = {
    ("original", "none"):
        "77775a9e2f8ecec2eeb1d2d25bdbacd68edd742e2fef5b1981181909023a9d24",
    ("original", "fixed"):
        "8500133660ae5d4fa67cafd9fbf159a78f8d1b92044bf94457feb81ba17deb62",
    ("original", "layerwise"):
        "8500133660ae5d4fa67cafd9fbf159a78f8d1b92044bf94457feb81ba17deb62",
    ("gated", "none"):
        "4a6259afefb69eca09c74f0070e6445890c4ddb2477e6e7b53454ddeeaa93403",
    ("small_gamma", "none"):
        "cc29383b7c13fbab2c288bdd3d5c253c8bb428b5929d594c3266d0472a4ec96a",
    ("small_gamma", "fixed"):
        "12ec7ebc5576820a6db4b0efc7e6839fa4902328b27173c3c1f669721e3ccb3f",
    ("small_gamma", "layerwise"):
        "e056945f12b5c20b6d2a6d3b98fa2c61eb1a0461e6a92b75509029ff763d3b46",
    ("headwise", "none"):
        "c6fad6a9ba2cf24bf52b3f19633c8908e9f44bd46c31f2d9f516ffd89b4223a8",
    ("headwise", "fixed"):
        "ca102469adadcf6f6d87d27853dcfab0d7bb8d0da337edab5f43204e947b4999",
    ("headwise", "layerwise"):
        "7a3a712dafaf05efcbc54a8cb8c90341ce7bcfc97dfcfe89cac4ca6d8fcfdfda",
    ("layerwise", "none"):
        "2698e6be2d414f1162dc72b966b6fbcfbc1f794312df32ed681cebf42a408692",
    ("layerwise", "fixed"):
        "288bf8933eebf6cf346019444df17f3c3605d744079326af2dd2c6d8774008ab",
    ("layerwise", "layerwise"):
        "b3c09d048cd8d6c1d765238265ae48b41fe700d4c347cfaa5083ef31a7270952",
    ("attention", "none"):
        "767b89b47e7a298370c64570007b1053e65aebdc524c34a7db71ad8c3626e880",
}


class TestPinnedDigests:
    @pytest.mark.parametrize("strategy, prior", [
        (s, p) for s in GAMMA_STRATEGIES for p in IMAGE_PRIORS
        if s != "gated" or p == "none"
    ])
    def test_retention_logits_and_gradients(self, strategy, prior):
        digest = forward_backward_digest(gamma_strategy=strategy,
                                         image_prior=prior)
        assert digest == PINNED_DIGESTS[strategy, prior]

    def test_attention_twin_logits_and_gradients(self):
        digest = forward_backward_digest(mixer="attention")
        assert digest == PINNED_DIGESTS["attention", "none"]


# every retention strategy x image prior the model accepts, and the twin
MIXER_CONFIGS = [
    dict(gamma_strategy=s, image_prior=p) for s in GAMMA_STRATEGIES
    for p in IMAGE_PRIORS if s != "gated" or p == "none"
] + [dict(mixer="attention")]
MIXER_IDS = ["-".join(c.values()) for c in MIXER_CONFIGS]

# captured before the last layer stopped computing its image-query rows;
# keyed by (strategy, prior) as in PINNED_DIGESTS: ([SOS], [SOS, 3]) inputs
PINNED_SHORT_DIGESTS = {
    ("original", "none"): (
        "f9e407d790e654bc5046213eac864528909c00b90193a599cf764484916f2fce",
        "f79a0a2a741b03054b3b041cb38991558d613438e2f00676cd9a0324523cf070"),
    ("original", "fixed"): (
        "c4396c708062d58de9c71ee7317b9e19e3f8fa6738e43f34bab7fc3467ae7300",
        "87ef8ada5af8ed6f84bfe98fe7d8ec48427cb85fa8d7b152c1a303d182ca0425"),
    ("original", "layerwise"): (
        "c4396c708062d58de9c71ee7317b9e19e3f8fa6738e43f34bab7fc3467ae7300",
        "87ef8ada5af8ed6f84bfe98fe7d8ec48427cb85fa8d7b152c1a303d182ca0425"),
    ("gated", "none"): (
        "fd90e845ebb7f0265f4f024224db75dbb7b080844af3375f102b153594152e13",
        "d4c2275c20cd095427fe8b9161ed40809a88ff966a9238d41134a149c488e760"),
    ("small_gamma", "none"): (
        "f9e407d790e654bc5046213eac864528909c00b90193a599cf764484916f2fce",
        "f7179c5b89c7daf7ee7e01fecc27adfcb5ebfb79e01d1a10ff39733f1c8d18a4"),
    ("small_gamma", "fixed"): (
        "c4396c708062d58de9c71ee7317b9e19e3f8fa6738e43f34bab7fc3467ae7300",
        "21b98c422253016f2b2098c99593c5f92879a49cc3a3f3ef5a22ccdba9d2c51f"),
    ("small_gamma", "layerwise"): (
        "70569850c8e688fb4393d63044630a9106f590774f66c79bc3f68cd0572ebe9f",
        "21573f43df277624d62a5f7cba93e53f0f84412055bc4f4b31b144d6133609ec"),
    ("headwise", "none"): (
        "f9e407d790e654bc5046213eac864528909c00b90193a599cf764484916f2fce",
        "87af6087cea244c628eafeef99912685ee9dbf2e88ce37d10a76f84b4f44ebfd"),
    ("headwise", "fixed"): (
        "c4396c708062d58de9c71ee7317b9e19e3f8fa6738e43f34bab7fc3467ae7300",
        "7a25595b5cb96879088b4c02ae35ff37d76c61f1b7bfaecf985f517da25d6ef3"),
    ("headwise", "layerwise"): (
        "9e677eceb424495de2c0acb9bcf1d8041e0b7dbdd610cf00875139fa31ce1361",
        "be2e13147452b3309752984628bb3f5c7dccfdf980f032577246941bf52e8da3"),
    ("layerwise", "none"): (
        "f9e407d790e654bc5046213eac864528909c00b90193a599cf764484916f2fce",
        "16f99be8c054b5add66f773d70ebddfdbd8d47bb42e7a1f603a9e06a1ff44fba"),
    ("layerwise", "fixed"): (
        "c4396c708062d58de9c71ee7317b9e19e3f8fa6738e43f34bab7fc3467ae7300",
        "99db2d745e0f35414bcea35b07d9f477988a05133d7becb9912d043e019ff982"),
    ("layerwise", "layerwise"): (
        "70569850c8e688fb4393d63044630a9106f590774f66c79bc3f68cd0572ebe9f",
        "00f3eb9b60b9d1e96528fb20ade697b9cefb89e7a73c7cda87a0309211289b51"),
    ("attention", "none"): (
        "310bfff25f3f3353eaa9d22f3a3a343cd6247b671907f3504e8014bea0386623",
        "a1ecb04c49664e3744b48f698116dca29288d9d0c6735953bcd0bd975277515d"),
}

# (mults, adds) of one forward_counts pass while every layer computed every
# row: the gated gate projection adds N_T * d * H mults per layer
PINNED_FULL_COUNTS = {False: (305456, 297165), True: (305876, 297465)}


def forward_counts(ids=(SOS_ID, 3, 4, 5, 6), capture=None, **overrides):
    """Counted (mults, adds) of one seeded teacher-forced forward."""
    model = Model(tiny_config(**overrides), seed=3)
    counter = OpCounter()
    with count_ops(counter):
        model.forward(toy_image(36, seed=4), list(ids), capture=capture)
    return counter.snapshot()


class TestLastLayerTextRows:
    """The last layer computes only the text rows the head reads; its
    results are bitwise those of the full pass, which `capture` keeps."""

    @pytest.mark.parametrize("overrides", MIXER_CONFIGS, ids=MIXER_IDS)
    def test_logits_and_gradients_equal_the_full_pass(self, overrides):
        runs = []
        for capture in (None, []):
            model = Model(tiny_config(**overrides), seed=3)
            with Tape():
                logits = model.forward(toy_image(36, seed=4),
                                       [SOS_ID, 3, 4, 5, 6], capture=capture)
                backward(training_loss(logits, [3, 4, 5, 6, EOS_ID]))
            runs.append((logits.data, {k: t.grad for k, t in
                                       model.params.items()}))
        (logits, grads), (full_logits, full_grads) = runs
        assert np.array_equal(logits, full_logits)
        assert grads.keys() == full_grads.keys()
        for name in grads:
            assert np.array_equal(grads[name], full_grads[name]), name

    @pytest.mark.parametrize("overrides", MIXER_CONFIGS, ids=MIXER_IDS)
    def test_short_inputs_match_pinned_digests(self, overrides):
        key = ("attention", "none") if "mixer" in overrides else (
            overrides["gamma_strategy"], overrides["image_prior"])
        one = forward_backward_digest([SOS_ID], [3], **overrides)
        two = forward_backward_digest([SOS_ID, 3], [3, EOS_ID], **overrides)
        assert (one, two) == PINNED_SHORT_DIGESTS[key]

    @pytest.mark.parametrize("overrides", MIXER_CONFIGS, ids=MIXER_IDS)
    def test_counts_drop_by_the_image_query_rows(self, overrides):
        cfg = tiny_config(**overrides)
        d, dff, heads, dh = cfg.d_model, cfg.d_ff, cfg.heads, cfg.d_head
        n_i = Model(cfg).image_token_count(36)
        n = n_i + 5
        # per image row: q and o projections, scores, value mix, FFN
        mults = n_i * (2 * d * d + 2 * n * d + 2 * d * dff)
        adds = n_i * (2 * d * (d - 1) + heads * n * (dh - 1)
                      + heads * dh * (n - 1) + dff * (d - 1) + d * (dff - 1))
        full = forward_counts(capture=[], **overrides)
        assert full == PINNED_FULL_COUNTS[cfg.gamma_strategy == "gated"]
        assert forward_counts(**overrides) == (full[0] - mults,
                                               full[1] - adds)

    def test_single_text_token_keeps_every_row(self):
        # a one-row product would take BLAS's matrix-vector path
        assert (forward_counts(ids=[SOS_ID])
                == forward_counts(ids=[SOS_ID], capture=[]))


class TestBaseline:
    def test_allow_mask_matches_row_loop(self):
        for n_image in (1, 2, 5):
            for n_text in (0, 1, 2, 6):
                n = n_image + n_text
                expected = np.zeros((n, n), dtype=bool)
                expected[:, :n_image] = True
                for r in range(n_text):
                    expected[n_image + r, n_image:n_image + r + 1] = True
                np.testing.assert_array_equal(attention_allow(n_image, n_text),
                                              expected)

    def test_attention_rows_sum_to_one(self):
        model = Model(tiny_config(mixer="attention"))
        img = toy_image()
        feat = model.embed_image(img)
        txt = model.embed_text([SOS_ID, 3])
        from retline.fusion import FusionSequence
        from retline.tensor import concat_rows

        x = concat_rows([feat, txt])
        n_image = feat.shape[0]
        seq = FusionSequence(x, n_image, 2)
        layer = model.layers[0]
        # reconstruct the joint attention of head 0 and check normalization
        q = (x.data @ layer.projections.wq.data)[:, :8]
        k = (x.data @ layer.projections.wk.data)[:, :8]
        dots = q @ k.T / np.sqrt(8)
        n = x.shape[0]
        allow = np.zeros((n, n), dtype=bool)
        allow[:, :n_image] = True
        for r in range(2):
            allow[n_image + r, n_image:n_image + r + 1] = True
        masked = np.where(allow, dots, -np.inf)
        z = np.exp(masked - masked.max(axis=1, keepdims=True))
        z = np.where(allow, z, 0.0)
        np.testing.assert_allclose((z / z.sum(axis=1, keepdims=True)).sum(axis=1),
                                   1.0, atol=1e-12)

    def test_image_rows_invariant_to_text(self):
        model = Model(tiny_config(mixer="attention"))
        img = toy_image()
        a = model.forward(img, [SOS_ID, 3, 4]).data
        b = model.forward(img, [SOS_ID, 5, 6]).data
        # position 0 sees only SOS + image in both cases
        np.testing.assert_array_equal(a[0], b[0])

    def test_parameter_shapes_match_retention_twin(self):
        retention = Model(tiny_config(mixer="retention"))
        attention = Model(tiny_config(mixer="attention"))
        assert parameter_shapes(retention) == parameter_shapes(attention)

    def test_recurrent_decode_rejected_for_attention(self):
        from retline.decode import beam_search

        model = Model(tiny_config(mixer="attention"))
        with pytest.raises(ValueError):
            beam_search(model, toy_image(), beam=1, backend="recurrent")


class TestLoss:
    def test_uniform_logits_any_epsilon(self):
        v = 7
        logits = Tensor(np.zeros((4, v)))
        for eps in (0.0, 0.1, 0.4):
            loss = training_loss(logits, [3, 4, 5, 6], epsilon=eps)
            assert loss.item() == pytest.approx(np.log(v), abs=1e-12)

    def test_perfect_logits_zero_loss_without_smoothing(self):
        targets = [3, 4, 5]
        logits = np.full((3, 7), -200.0)
        for i, t in enumerate(targets):
            logits[i, t] = 200.0
        loss = training_loss(Tensor(logits), targets, epsilon=0.0)
        assert loss.item() == pytest.approx(0.0, abs=1e-8)

    def test_pad_positions_excluded(self):
        logits = Tensor(np.random.default_rng(0).standard_normal((4, 7)))
        full = training_loss(logits, [3, 4, PAD_ID, PAD_ID], epsilon=0.1)
        trimmed = training_loss(
            Tensor(logits.data[:2].copy()), [3, 4], epsilon=0.1
        )
        assert full.item() == pytest.approx(trimmed.item(), abs=1e-12)

    def test_all_pad_rejected(self):
        logits = Tensor(np.zeros((2, 7)))
        with pytest.raises(ValueError):
            training_loss(logits, [PAD_ID, PAD_ID])

    def test_teacher_pair_trims_at_eos(self):
        v = Vocab("ab")
        tokens = tokenize("ab", v, 8)
        inputs, targets = teacher_pair(tokens)
        np.testing.assert_array_equal(inputs, [SOS_ID, 3, 4])
        np.testing.assert_array_equal(targets, [3, 4, EOS_ID])


class TestCheckpoint:
    def test_save_load_save_byte_identical(self, tmp_path):
        model = Model(tiny_config(), seed=3)
        p1 = str(tmp_path / "a")
        save_checkpoint(model, p1)
        loaded = load_checkpoint(p1)
        p2 = str(tmp_path / "b")
        save_checkpoint(loaded, p2)
        assert Path(p1 + ".bin").read_bytes() == Path(p2 + ".bin").read_bytes()
        assert Path(p1 + ".json").read_text() == Path(p2 + ".json").read_text()

    def test_load_reproduces_logits_bitwise(self, tmp_path):
        model = Model(tiny_config(), seed=4)
        img = toy_image()
        before = model.forward(img, [SOS_ID, 3, 4]).data
        save_checkpoint(model, str(tmp_path / "m"))
        loaded = load_checkpoint(str(tmp_path / "m"))
        after = loaded.forward(img, [SOS_ID, 3, 4]).data
        np.testing.assert_array_equal(before, after)

    def test_corrupt_shape_rejected(self, tmp_path):
        import json

        model = Model(tiny_config(), seed=5)
        save_checkpoint(model, str(tmp_path / "m"))
        manifest = json.loads((tmp_path / "m.json").read_text())
        manifest["tensors"]["head_w"]["shape"] = [2, 2]
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="shape"):
            load_checkpoint(str(tmp_path / "m"))

    def test_truncated_blob_rejected(self, tmp_path):
        model = Model(tiny_config(), seed=6)
        save_checkpoint(model, str(tmp_path / "m"))
        raw = (tmp_path / "m.bin").read_bytes()
        (tmp_path / "m.bin").write_bytes(raw[:-8])
        with pytest.raises(ValueError):
            load_checkpoint(str(tmp_path / "m"))

    def test_load_draws_no_random_initialization(self, tmp_path, monkeypatch):
        model = Model(tiny_config(), seed=8)
        save_checkpoint(model, str(tmp_path / "m"))

        def no_draws(*args, **kwargs):
            raise AssertionError("loading a checkpoint drew random parameters")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        loaded = load_checkpoint(str(tmp_path / "m"))
        assert list(loaded.params) == list(model.params)
        for name, t in model.params.items():
            assert loaded.params[name].data.dtype == np.float64
            assert loaded.params[name].data.tobytes() == t.data.tobytes()

    def test_missing_tensor_names_it_and_the_file(self, tmp_path):
        prefix = self.edited_manifest(
            tmp_path, lambda m: m["tensors"].pop("layer0.pff_b1"))
        with pytest.raises(ValueError, match="missing tensor 'layer0.pff_b1'") as err:
            load_checkpoint(prefix)
        assert prefix in str(err.value)

    def edited_manifest(self, tmp_path, edit):
        import json

        save_checkpoint(Model(tiny_config(), seed=7), str(tmp_path / "m"))
        manifest = json.loads((tmp_path / "m.json").read_text())
        edit(manifest)
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        return str(tmp_path / "m")

    def test_unknown_config_key_names_the_file(self, tmp_path):
        prefix = self.edited_manifest(
            tmp_path, lambda m: m["config"].update(warp_speed=9))
        with pytest.raises(ValueError, match="warp_speed") as err:
            load_checkpoint(prefix)
        assert prefix in str(err.value)

    @pytest.mark.parametrize("key", ["blob_bytes", "config", "tensors"])
    def test_missing_manifest_section_names_the_file(self, tmp_path, key):
        prefix = self.edited_manifest(tmp_path, lambda m: m.pop(key))
        with pytest.raises(ValueError, match=key) as err:
            load_checkpoint(prefix)
        assert prefix in str(err.value)


class TestEndToEndGradients:
    def test_loss_gradient_flows_to_every_parameter(self):
        model = Model(tiny_config())
        sample = render_line("ab", height=32)
        vocab = Vocab("abcd")
        ids = tokenize("ab", vocab, 10)
        inputs, targets = teacher_pair(ids)
        with Tape():
            logits = model.forward(sample.image, inputs)
            loss = training_loss(logits, targets, epsilon=0.1)
            backward(loss)
        missing = [name for name, t in model.params.items() if t.grad is None]
        assert missing == []
        zero_grads = [
            name for name, t in model.params.items()
            if np.all(t.grad == 0) and "img_pos" not in name
        ]
        # the positional table rows beyond the image length stay untouched,
        # everything else must receive signal
        assert zero_grads == []
