import numpy as np
import pytest

from retline.costmodel import memory_elements
from retline.decode import (
    KVDecodeState,
    beam_search,
    decode_transcript,
    greedy_decode,
    kv_reindex,
    write_stats_csv,
)
from retline.data import EOS_ID, Vocab
from retline.fusion import IMAGE_PRIORS
from retline.model import Model, ModelConfig
from retline.retention import GAMMA_STRATEGIES
from retline.tensor import Tensor


def small_model(mixer="retention", seed=1, vocab_size=8):
    cfg = ModelConfig(
        vocab_size=vocab_size, max_text_len=12, layers=2, heads=2, d_model=16,
        d_ff=32, cnn_channels=(4, 8, 8), mixer=mixer,
        dropout_mix=0.0, dropout_embed=0.0,
    )
    return Model(cfg, seed=seed)


def toy_image(seed=0, width=24):
    rng = np.random.default_rng(seed)
    return Tensor(rng.random((1, 32, width)))


class TestGreedy:
    def test_equals_beam_one(self):
        model = small_model()
        img = toy_image(3)
        g = greedy_decode(model, img)
        b = beam_search(model, img, beam=1)
        assert g.tokens == b.tokens
        assert g.score == b.score

    def test_terminates_within_max_len(self):
        model = small_model()
        out = greedy_decode(model, toy_image(4), max_len=5)
        assert len(out.tokens) <= 5

    def test_deterministic(self):
        model = small_model()
        a = greedy_decode(model, toy_image(5))
        b = greedy_decode(model, toy_image(5))
        assert a.tokens == b.tokens and a.score == b.score


class TestBeam:
    def test_beam_zero_rejected(self):
        with pytest.raises(ValueError):
            beam_search(small_model(), toy_image(), beam=0)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            beam_search(small_model(), toy_image(), beam=1, backend="paged")

    def test_backends_agree(self):
        model = small_model(seed=7)
        for seed in range(6):
            img = toy_image(seed)
            for beam in (1, 3):
                rec = beam_search(model, img, beam=beam, backend="recurrent")
                kv = beam_search(model, img, beam=beam, backend="kv")
                assert rec.tokens == kv.tokens, (seed, beam)
                assert abs(rec.score - kv.score) <= 1e-9

    def test_backends_agree_with_gated_decay(self):
        cfg = ModelConfig(
            vocab_size=8, max_text_len=12, layers=2, heads=2, d_model=16,
            d_ff=32, cnn_channels=(4, 8, 8), gamma_strategy="gated",
            dropout_mix=0.0, dropout_embed=0.0,
        )
        model = Model(cfg, seed=3)
        for seed in range(4):
            img = toy_image(seed)
            rec = beam_search(model, img, beam=3, backend="recurrent")
            kv = beam_search(model, img, beam=3, backend="kv")
            assert rec.tokens == kv.tokens, seed
            assert abs(rec.score - kv.score) <= 1e-9

    def test_recurrent_per_step_count_constant(self):
        model = small_model(seed=8)
        out = beam_search(model, toy_image(9), beam=3, max_len=8,
                          backend="recurrent")
        steady = [row["mults"] for row in out.stats[1:]]  # step 1 has 1 lane
        assert len(set(steady)) == 1

    def test_kv_per_step_count_strictly_increasing(self):
        model = small_model(seed=8)
        out = beam_search(model, toy_image(9), beam=3, max_len=8, backend="kv")
        steady = [row["mults"] for row in out.stats[1:]]
        assert all(b > a for a, b in zip(steady, steady[1:]))

    def test_monotone_child_scores(self):
        model = small_model(seed=9)
        img = toy_image(10)
        # replay the search and confirm returned score <= 0 and decreasing
        out = beam_search(model, img, beam=4)
        assert out.score <= 0.0

    def test_live_elements_match_accountant(self):
        model = small_model(seed=10)
        cfg = model.config
        beam = 3
        out_kv = beam_search(model, toy_image(11), beam=beam, max_len=6,
                             backend="kv")
        for row in out_kv.stats:
            if row["step"] == 1:
                continue  # lane count B applies from the first pruning on
            predicted = memory_elements(
                "kv_persistent", beam, row["step"], cfg.d_model, 1
            ) * cfg.layers
            assert row["live_elements"] == predicted, row

        out_rec = beam_search(model, toy_image(11), beam=beam, max_len=6,
                              backend="recurrent")
        predicted = memory_elements(
            "recurrent", beam, 1, cfg.d_model, cfg.heads
        ) * cfg.layers
        for row in out_rec.stats[1:]:
            assert row["live_elements"] == predicted, row

    def test_recurrent_elements_never_change(self):
        model = small_model(seed=11)
        out = beam_search(model, toy_image(12), beam=2, max_len=7,
                          backend="recurrent")
        counts = {row["live_elements"] for row in out.stats[1:]}
        assert len(counts) == 1

    def test_finished_hypotheses_preserved(self):
        model = small_model(seed=12)
        out = beam_search(model, toy_image(13), beam=2)
        if out.finished:
            assert out.tokens == tuple(out.tokens)

    def test_transcript_helper_strips_specials(self):
        model = small_model(seed=13, vocab_size=7)
        vocab = Vocab("abcd")
        text, result = decode_transcript(model, vocab, toy_image(14), beam=2)
        assert len(text) == len(result.tokens)
        assert all(c in "abcd" for c in text)

    def test_stats_csv(self, tmp_path):
        model = small_model(seed=14)
        out = beam_search(model, toy_image(15), beam=2, max_len=4)
        path = tmp_path / "stats.csv"
        write_stats_csv(path, [out])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,backend,beam,mults,adds,live_elements"
        assert len(lines) == len(out.stats) + 1


class TestBatchedLanes:
    """Every live lane advances in one batched call per step; the counts,
    transcripts and scores must not depend on that batching."""

    # (mults, adds, live_elements) per step, recorded from the per-lane,
    # per-head decoder this batched one replaced
    PINNED = {
        "recurrent": [(5120, 4544, 768)] + [(15360, 13632, 768)] * 5,
        "kv": [(4672, 4348, 192), (14208, 13224, 384), (14400, 13404, 576),
               (14592, 13584, 768), (14784, 13764, 960), (14976, 13944, 1152)],
    }

    @staticmethod
    def no_eos(model):
        # EOS never wins, so every decode runs to max_len
        model.params["head_b"].data[EOS_ID] = -1e3
        return model

    @pytest.mark.parametrize("backend", ["recurrent", "kv"])
    def test_step_stats_pinned(self, backend):
        model = self.no_eos(small_model(seed=8))
        out = beam_search(model, toy_image(9), beam=3, max_len=6,
                          backend=backend)
        rows = [(r["mults"], r["adds"], r["live_elements"]) for r in out.stats]
        assert rows == self.PINNED[backend]

    @pytest.mark.parametrize("strategy,prior", [
        (s, p) for s in GAMMA_STRATEGIES for p in IMAGE_PRIORS
        if s != "gated" or p == "none"  # gated decay rejects image priors
    ])
    def test_backends_agree_at_beam_10(self, strategy, prior):
        cfg = ModelConfig(
            vocab_size=8, max_text_len=12, layers=2, heads=2, d_model=16,
            d_ff=32, cnn_channels=(4, 8, 8), gamma_strategy=strategy,
            image_prior=prior, dropout_mix=0.0, dropout_embed=0.0,
        )
        model = self.no_eos(Model(cfg, seed=4))
        for seed in range(2):
            img = toy_image(seed, width=20 + 8 * seed)
            rec = beam_search(model, img, beam=10, max_len=8,
                              backend="recurrent")
            kv = beam_search(model, img, beam=10, max_len=8, backend="kv")
            assert rec.tokens == kv.tokens, seed
            assert abs(rec.score - kv.score) <= 1e-9

    def test_long_decode_backends_agree(self):
        # the published max_text_len, with gammas near 1 (original schedule)
        cfg = ModelConfig(
            vocab_size=8, max_text_len=95, layers=2, heads=2, d_model=16,
            d_ff=32, cnn_channels=(4, 8, 8), gamma_strategy="original",
            dropout_mix=0.0, dropout_embed=0.0,
        )
        model = self.no_eos(Model(cfg, seed=6))
        img = toy_image(7)
        rec = beam_search(model, img, beam=2, backend="recurrent")
        kv = beam_search(model, img, beam=2, backend="kv")
        assert len(rec.stats) == len(kv.stats) == 95
        assert rec.tokens == kv.tokens
        assert abs(rec.score - kv.score) <= 1e-9


class TestStepwiseMatchesParallel:
    """The decode-time step path must reproduce the teacher-forced forward
    logits position by position, for every mixer, backend, and decay mode."""

    def _stepwise_logits(self, model, image, ids, backend):
        from retline.decode import (
            KVDecodeState,
            RecurrentDecodeState,
            _lane_logits_kv,
            _lane_logits_recurrent,
        )

        cache = model.build_image_cache(image)
        if backend == "recurrent":
            state = RecurrentDecodeState.fresh(model.config)
            step = _lane_logits_recurrent
        else:
            state = KVDecodeState.fresh(model.config)
            step = _lane_logits_kv
        # one lane: each call returns a (1, vocab) logits row
        return np.array([step(model, state, cache, [tok], t)[0]
                         for t, tok in enumerate(ids)])

    @pytest.mark.parametrize("mixer,backend,extra", [
        ("retention", "recurrent", {}),
        ("retention", "kv", {}),
        ("attention", "kv", {}),
        ("retention", "recurrent", {"image_prior": "layerwise"}),
        ("retention", "recurrent", {"image_prior": "fixed"}),
        ("retention", "recurrent", {"gamma_strategy": "gated"}),
        ("retention", "kv", {"gamma_strategy": "gated"}),
    ])
    def test_logits_agree(self, mixer, backend, extra):
        cfg = ModelConfig(
            vocab_size=8, max_text_len=12, layers=2, heads=2, d_model=16,
            d_ff=32, cnn_channels=(4, 8, 8), mixer=mixer,
            dropout_mix=0.0, dropout_embed=0.0, **extra,
        )
        model = Model(cfg, seed=5)
        image = toy_image(21)
        ids = [1, 3, 4, 5, 6, 3]
        parallel = model.forward(image, ids).data
        stepwise = self._stepwise_logits(model, image, ids, backend)
        assert np.max(np.abs(parallel - stepwise)) <= 1e-9, (mixer, backend)


class TestKvReindex:
    def lanes(self):
        # one layer, three lanes of one head, t=3, d_head=2
        keys = np.stack([np.arange(6.0).reshape(3, 2),
                         np.arange(6.0, 12.0).reshape(3, 2),
                         np.arange(12.0, 18.0).reshape(3, 2)])[:, None]
        values = np.stack([np.zeros((3, 2)), np.ones((3, 2)),
                           np.full((3, 2), 2.0)])[:, None]
        return KVDecodeState(keys=[keys], values=[values], gate_logs=[None])

    def test_identity_permutation_keeps_contents(self):
        state = self.lanes()
        out = kv_reindex(state, [0, 1, 2])
        for lane in range(3):
            np.testing.assert_array_equal(out.keys[0][lane], state.keys[0][lane])
            # fresh copy
            assert not np.shares_memory(out.keys[0][lane], state.keys[0][lane])

    def test_gather_contract(self):
        state = self.lanes()
        out = kv_reindex(state, [2, 0, 0])
        np.testing.assert_array_equal(out.keys[0][0], state.keys[0][2])
        np.testing.assert_array_equal(out.keys[0][1], state.keys[0][0])
        np.testing.assert_array_equal(out.keys[0][2], state.keys[0][0])

    def test_out_of_range_parent_rejected(self):
        with pytest.raises(ValueError):
            kv_reindex(self.lanes(), [3])
