from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from retline.fusion import (
    IMAGE_PRIORS,
    ARMFHeadConfig,
    ARMFProjections,
    FusionSequence,
    armf_parallel,
    build_armf_mask,
    image_heads,
    marmf_forward,
    marmf_recurrent_step,
)
from retline.retention import GAMMA_STRATEGIES, GammaSchedule, gate_gammas
from retline.tensor import Tape, Tensor, backward, slice_rows, sum_all


def make_proj(d, rng):
    return ARMFProjections(*(Tensor(rng.standard_normal((d, d))) for _ in range(4)))


def single_head_step(state, k_img, v_img, x, proj, gamma):
    """One recurrent fusion step at H = 1 with an identity output
    projection, on a (1, d) row: advances the (1, 1, d, d) state in place and
    returns the (1, d) output and the state."""
    d = x.shape[1]
    unprojected = ARMFProjections(proj.wq, proj.wk, proj.wv, Tensor(np.eye(d)))
    return marmf_recurrent_step(state, image_heads(k_img, v_img, 1), x,
                                unprojected,
                                ARMFHeadConfig(d_model=d, heads=1),
                                np.array([gamma])[:, None, None])


def fresh_state(d):
    return np.zeros((1, 1, d, d))


def fused_oracle(x, wq, wk, wv, n_image, gamma, prior_gamma=None):
    """Independent reference: per-row softmax over image keys, explicit decay
    loop over text keys, no matrix shortcuts."""
    n, d = x.shape
    n_text = n - n_image
    q, k, v = x @ wq, x @ wk, x @ wv
    dots = (q @ k.T) / np.sqrt(d)
    ret = np.zeros((n, n))
    for i in range(n):
        row = dots[i, :n_image]
        e = np.exp(row - row.max())
        soft = e / e.sum()
        if prior_gamma is not None and i < n_image:
            weights = prior_gamma ** np.abs(np.arange(n_image) - i)
            soft = soft * weights
            soft = soft / soft.sum()
        ret[i, :n_image] = soft
        if i >= n_image:
            r = i - n_image
            for j in range(r + 1):
                ret[i, n_image + j] = dots[i, n_image + j] * gamma ** (r - j)
    return ret @ v


class TestFusionSequence:
    def test_partition_must_cover_rows(self):
        with pytest.raises(ValueError):
            FusionSequence(Tensor(np.zeros((5, 4))), n_image=2, n_text=2)

    def test_zero_image_tokens_rejected(self):
        with pytest.raises(ValueError):
            FusionSequence(Tensor(np.zeros((3, 4))), n_image=0, n_text=3)

    def test_text_only_suffix_allowed_empty(self):
        FusionSequence(Tensor(np.zeros((3, 4))), n_image=3, n_text=0)


class TestMask:
    def test_hand_values(self):
        mask = build_armf_mask(2, 2, 0.5)
        np.testing.assert_array_equal(mask, [[0, 0], [0, 0], [1, 0], [0.5, 1]])

    def test_image_rows_all_zero(self):
        mask = build_armf_mask(4, 6, 0.9)
        assert np.all(mask[:4] == 0)

    def test_text_diagonal_is_one(self):
        mask = build_armf_mask(3, 5, 0.4)
        for r in range(5):
            assert mask[3 + r, r] == 1.0


class TestParallel:
    def test_no_text_reduces_to_softmax_attention(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((5, 6)))
        seq = FusionSequence(x, n_image=5, n_text=0)
        proj = make_proj(6, rng)
        out = armf_parallel(seq, proj, gamma=0.5)
        dots = (x.data @ proj.wq.data) @ (x.data @ proj.wk.data).T / np.sqrt(6)
        e = np.exp(dots - dots.max(axis=1, keepdims=True))
        attn = e / e.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(out.data, attn @ (x.data @ proj.wv.data), atol=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            n_image = int(rng.integers(1, 6))
            n_text = int(rng.integers(0, 8))
            d = int(rng.integers(2, 8))
            gamma = float(rng.uniform(0.1, 0.95))
            x = Tensor(rng.standard_normal((n_image + n_text, d)))
            seq = FusionSequence(x, n_image, n_text)
            proj = make_proj(d, rng)
            out = armf_parallel(seq, proj, gamma)
            expected = fused_oracle(
                x.data, proj.wq.data, proj.wk.data, proj.wv.data, n_image, gamma
            )
            assert np.max(np.abs(out.data - expected)) < 1e-11, trial

    def test_image_rows_bit_identical_under_text_perturbation(self):
        rng = np.random.default_rng(2)
        base = rng.standard_normal((7, 4))
        proj = make_proj(4, rng)
        out1 = armf_parallel(FusionSequence(Tensor(base), 3, 4), proj, 0.5).data
        poked = base.copy()
        poked[3:] = rng.standard_normal((4, 4))
        out2 = armf_parallel(FusionSequence(Tensor(poked), 3, 4), proj, 0.5).data
        np.testing.assert_array_equal(out1[:3], out2[:3])

    def test_text_causality_exact(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((8, 4))
        proj = make_proj(4, rng)
        out1 = armf_parallel(FusionSequence(Tensor(base), 3, 5), proj, 0.7).data
        poked = base.copy()
        poked[6] += 2.5  # text position 3; rows 3..5 must not move
        out2 = armf_parallel(FusionSequence(Tensor(poked), 3, 5), proj, 0.7).data
        np.testing.assert_array_equal(out1[:6], out2[:6])

    def test_firewall_via_autodiff(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        proj = make_proj(4, rng)
        with Tape():
            out = armf_parallel(FusionSequence(x, 2, 4), proj, 0.5)
            backward(sum_all(slice_rows(out, 0, 2)))
        assert np.max(np.abs(x.grad[2:])) <= 1e-12

    def test_text_rows_not_normalized(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((6, 4)))
        proj = make_proj(4, rng)
        seq = FusionSequence(x, 2, 4)
        # reconstruct the mixing rows: image part sums to 1, text part is free
        out_v_identity = armf_parallel(
            seq, ARMFProjections(proj.wq, proj.wk, Tensor(np.eye(4)), proj.wo), 0.5
        )
        # if text rows were normalized, each full row sum would be 1 exactly;
        # check the decay-masked rows deviate for at least one text row
        dots = (x.data @ proj.wq.data) @ (x.data @ proj.wk.data).T / 2.0
        mask = build_armf_mask(2, 4, 0.5)
        text_sums = (dots[:, 2:] * mask).sum(axis=1)[2:]
        assert np.any(np.abs(text_sums) > 1e-6)

    def test_image_prior_rows_renormalize(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((5, 4)))
        proj = ARMFProjections(proj_eye := Tensor(np.eye(4)), proj_eye,
                               Tensor(np.eye(4)), proj_eye)
        seq = FusionSequence(x, 5, 0)
        out = armf_parallel(seq, proj, 0.5, prior_gamma=0.5)
        expected = fused_oracle(x.data, np.eye(4), np.eye(4), np.eye(4), 5, 0.5, 0.5)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_image_prior_matches_oracle_with_text(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((9, 6)))
        proj = make_proj(6, rng)
        out = armf_parallel(FusionSequence(x, 4, 5), proj, 0.8, prior_gamma=0.9)
        expected = fused_oracle(
            x.data, proj.wq.data, proj.wk.data, proj.wv.data, 4, 0.8, 0.9
        )
        assert np.max(np.abs(out.data - expected)) < 1e-11


class TestRecurrent:
    def test_single_image_token_passes_value_through(self):
        rng = np.random.default_rng(8)
        d = 4
        proj = make_proj(d, rng)
        k_img = rng.standard_normal((1, d))
        v_img = rng.standard_normal((1, d))
        x = rng.standard_normal((1, d))
        out, _ = single_head_step(fresh_state(d), k_img, v_img, x, proj, 0.5)
        q = x @ proj.wq.data
        k = x @ proj.wk.data
        v = x @ proj.wv.data
        o_text = (q / np.sqrt(d)) @ (k.T @ v)
        np.testing.assert_allclose(out, o_text + v_img, atol=1e-12)

    def test_first_step_text_term(self):
        rng = np.random.default_rng(9)
        d = 6
        proj = make_proj(d, rng)
        k_img = rng.standard_normal((3, d))
        v_img = rng.standard_normal((3, d))
        x = rng.standard_normal((1, d))
        out, state = single_head_step(fresh_state(d), k_img, v_img, x, proj,
                                      0.9)
        q = x @ proj.wq.data
        k = x @ proj.wk.data
        v = x @ proj.wv.data
        np.testing.assert_allclose(state[0, 0], k.T @ v, atol=1e-13)
        dots = q @ k_img.T / np.sqrt(d)
        e = np.exp(dots - dots.max())
        o_img = (e / e.sum()) @ v_img
        np.testing.assert_allclose(
            out, (q / np.sqrt(d)) @ state[0, 0] + o_img, atol=1e-12
        )

    def test_steps_reproduce_parallel_text_rows(self):
        rng = np.random.default_rng(10)
        for trial in range(10):
            n_image = int(rng.integers(1, 9))
            n_text = int(rng.integers(1, 17))
            d = int(rng.integers(2, 17))
            gamma = float(rng.uniform(0.1, 0.97))
            x = rng.standard_normal((n_image + n_text, d))
            proj = make_proj(d, rng)
            seq = FusionSequence(Tensor(x), n_image, n_text)
            par = armf_parallel(seq, proj, gamma).data

            x_img = Tensor(x[:n_image])
            k_img = (x_img.data @ proj.wk.data)
            v_img = (x_img.data @ proj.wv.data)
            state = fresh_state(d)
            worst = 0.0
            for t in range(n_text):
                row, state = single_head_step(
                    state, k_img, v_img, x[n_image + t:n_image + t + 1],
                    proj, gamma,
                )
                worst = max(worst, np.max(np.abs(row[0] - par[n_image + t])))
            assert worst <= 1e-10, trial


class TestStepCosts:
    def test_recurrent_step_multiply_count_constant(self):
        from retline.tensor import OpCounter, count_ops

        rng = np.random.default_rng(30)
        d, n_image, n_text = 8, 5, 12
        proj = make_proj(d, rng)
        k_img = rng.standard_normal((n_image, d))
        v_img = rng.standard_normal((n_image, d))
        state = fresh_state(d)
        counts = set()
        for t in range(n_text):
            counter = OpCounter()
            with count_ops(counter):
                _, state = single_head_step(
                    state, k_img, v_img,
                    rng.standard_normal((1, d)), proj, 0.9,
                )
            counts.add((counter.mults, counter.adds))
        assert len(counts) == 1


class TestMultiHead:
    def schedule(self, layers=1, heads=2):
        return GammaSchedule("layerwise", layers, heads, 0.86)

    def test_single_head_reduces_to_armf_parallel(self):
        rng = np.random.default_rng(15)
        d = 6
        proj = make_proj(d, rng)
        x = Tensor(rng.standard_normal((7, d)))
        seq = FusionSequence(x, 3, 4)
        sched = GammaSchedule("original", 1, 1)
        cfg = ARMFHeadConfig(d_model=d, heads=1)
        out = marmf_forward(seq, 0, sched, proj, cfg)
        gamma = float(sched.values()[0, 0])
        plain = armf_parallel(seq, proj, gamma)
        expected = plain.data @ proj.wo.data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_tied_heads_produce_identical_outputs(self):
        rng = np.random.default_rng(16)
        d, h = 8, 2
        dh = d // h
        # same column block repeated for both heads, same gamma for both
        blocks = {name: rng.standard_normal((d, dh)) for name in "qkv"}
        proj = ARMFProjections(
            Tensor(np.hstack([blocks["q"], blocks["q"]])),
            Tensor(np.hstack([blocks["k"], blocks["k"]])),
            Tensor(np.hstack([blocks["v"], blocks["v"]])),
            Tensor(np.eye(d)),
        )
        sched = SimpleNamespace(
            strategy="original", layers=1, heads=2,
            layer_values=lambda layer: np.array([0.7, 0.7]),
        )
        x = Tensor(rng.standard_normal((6, d)))
        out = marmf_forward(FusionSequence(x, 2, 4), 0, sched, proj,
                            ARMFHeadConfig(d_model=d, heads=h))
        np.testing.assert_array_equal(out.data[:, :dh], out.data[:, dh:])

    def test_layer_index_out_of_range(self):
        rng = np.random.default_rng(17)
        proj = make_proj(4, rng)
        seq = FusionSequence(Tensor(rng.standard_normal((3, 4))), 2, 1)
        with pytest.raises(ValueError):
            marmf_forward(seq, 3, self.schedule(layers=2), proj,
                          ARMFHeadConfig(d_model=4, heads=2))

    def test_zero_heads_rejected_before_the_modulo(self):
        with pytest.raises(ValueError, match="heads"):
            ARMFHeadConfig(d_model=4, heads=0)

    def test_recurrent_multi_head_matches_parallel(self):
        rng = np.random.default_rng(18)
        for heads in (1, 2, 4):
            d = 8
            n_image, n_text = 4, 6
            proj = make_proj(d, rng)
            sched = GammaSchedule("layerwise", 2, heads, 0.86)
            cfg = ARMFHeadConfig(d_model=d, heads=heads)
            x = rng.standard_normal((n_image + n_text, d))
            seq = FusionSequence(Tensor(x), n_image, n_text)
            par = marmf_forward(seq, 1, sched, proj, cfg).data

            image = image_heads(x[:n_image] @ proj.wk.data,
                                x[:n_image] @ proj.wv.data, heads)
            state = np.zeros((1, heads, cfg.d_head, cfg.d_head))  # one lane
            decay = sched.layer_values(1)[:, None, None]
            for t in range(n_text):
                row, state = marmf_recurrent_step(
                    state, image,
                    x[n_image + t:n_image + t + 1], proj, cfg, decay,
                )
                delta = np.max(np.abs(row[0] - par[n_image + t]))
                assert delta <= 1e-10, (heads, t, delta)

    def test_gated_parallel_matches_recurrent(self):
        rng = np.random.default_rng(19)
        d, heads = 8, 2
        n_image, n_text = 3, 7
        proj = make_proj(d, rng)
        w_gamma = Tensor(rng.standard_normal((d, heads)))
        sched = GammaSchedule("gated", 1, heads, tau=16.0)
        cfg = ARMFHeadConfig(d_model=d, heads=heads)
        x = rng.standard_normal((n_image + n_text, d))
        seq = FusionSequence(Tensor(x), n_image, n_text)
        par = marmf_forward(seq, 0, sched, proj, cfg, gate_weights=w_gamma).data

        image = image_heads(x[:n_image] @ proj.wk.data,
                            x[:n_image] @ proj.wv.data, heads)
        state = np.zeros((1, heads, cfg.d_head, cfg.d_head))  # one lane
        for t in range(n_text):
            x_n = x[n_image + t:n_image + t + 1]
            z = x_n @ w_gamma.data
            gammas = (1.0 / (1.0 + np.exp(-z))) ** (1.0 / 16.0)
            row, state = marmf_recurrent_step(
                state, image, x_n, proj, cfg, gammas[:, :, None, None],
            )
            assert np.max(np.abs(row[0] - par[n_image + t])) <= 1e-10

    def test_gated_requires_weights(self):
        rng = np.random.default_rng(20)
        proj = make_proj(4, rng)
        seq = FusionSequence(Tensor(rng.standard_normal((4, 4))), 2, 2)
        with pytest.raises(ValueError):
            marmf_forward(seq, 0, GammaSchedule("gated", 1, 2), proj,
                          ARMFHeadConfig(d_model=4, heads=2))



class TestFirstRow:
    """A pass from `first_row` returns bitwise the last rows of the full
    pass, its gradients included, for every start between 0 and N_I."""

    @pytest.mark.parametrize("strategy, prior", [
        (s, p) for s in GAMMA_STRATEGIES for p in IMAGE_PRIORS
        if s != "gated" or p == "none"
    ])
    def test_rows_and_gradients_equal_the_full_pass(self, strategy, prior):
        rng = np.random.default_rng(21)
        d, heads, n_image, n_text = 8, 2, 5, 4
        proj = make_proj(d, rng)
        sched = GammaSchedule(strategy, 2, heads)
        cfg = ARMFHeadConfig(d_model=d, heads=heads, image_prior=prior)
        w_gamma = (Tensor(rng.standard_normal((d, heads)))
                   if strategy == "gated" else None)
        x = Tensor(rng.standard_normal((n_image + n_text, d)))
        readout = rng.standard_normal((n_image + n_text, d))
        leaves = [x, proj.wq, proj.wk, proj.wv, proj.wo]
        if w_gamma is not None:
            leaves.append(w_gamma)
        for t in leaves:
            t.requires_grad = True

        def run(first_row, rows):
            for t in leaves:
                t.grad = None
            with Tape():
                out = marmf_forward(FusionSequence(x, n_image, n_text), 1,
                                    sched, proj, cfg, gate_weights=w_gamma,
                                    first_row=first_row)
                kept = slice_rows(out, rows - first_row, out.shape[0])
                backward(sum_all(kept * Tensor(readout[rows:])))
            return kept.data, [t.grad for t in leaves]

        for first_row in range(n_image + 1):
            full, full_grads = run(0, first_row)
            part, part_grads = run(first_row, first_row)
            assert np.array_equal(part, full), first_row
            for a, b in zip(part_grads, full_grads):
                assert np.array_equal(a, b), first_row

    def test_capture_holds_the_computed_rows(self):
        rng = np.random.default_rng(22)
        d, heads, n_image, n_text = 8, 2, 5, 3
        captured = []
        marmf_forward(FusionSequence(Tensor(rng.standard_normal((8, d))),
                                     n_image, n_text), 0,
                      GammaSchedule("layerwise", 1, heads), make_proj(d, rng),
                      ARMFHeadConfig(d_model=d, heads=heads),
                      capture=captured, first_row=2)
        weights, decay = captured[0]
        assert weights.shape == (heads, 6, 8)
        assert decay.shape == (heads, n_text, n_text)

    @pytest.mark.parametrize("first_row", [-1, 4])
    def test_start_outside_the_image_rows_rejected(self, first_row):
        rng = np.random.default_rng(23)
        seq = FusionSequence(Tensor(rng.standard_normal((5, 4))), 3, 2)
        with pytest.raises(ValueError, match="first row"):
            marmf_forward(seq, 0, GammaSchedule("layerwise", 1, 2),
                          make_proj(4, rng), ARMFHeadConfig(d_model=4, heads=2),
                          first_row=first_row)

class TestParallelRecurrentProperty:
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("strategy, prior", [
        (s, p) for s in GAMMA_STRATEGIES for p in IMAGE_PRIORS
        if s != "gated" or p == "none"
    ])
    @given(
        d_head=st.integers(1, 4),
        n_image=st.integers(1, 8),
        n_text=st.integers(1, 16),
        layer_index=st.integers(0, 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_text_rows_match_recurrent_steps(self, strategy, prior, heads,
                                             d_head, n_image, n_text,
                                             layer_index, seed):
        # the image prior reweights image-query rows only, so text rows must
        # still equal the recurrent steps under every prior
        rng = np.random.default_rng(seed)
        d = heads * d_head
        proj = make_proj(d, rng)
        sched = GammaSchedule(strategy, 2, heads)
        cfg = ARMFHeadConfig(d_model=d, heads=heads, image_prior=prior)
        w_gamma = (Tensor(rng.standard_normal((d, heads)))
                   if strategy == "gated" else None)
        x = rng.standard_normal((n_image + n_text, d))
        par = marmf_forward(FusionSequence(Tensor(x), n_image, n_text),
                            layer_index, sched, proj, cfg,
                            gate_weights=w_gamma).data

        image = image_heads(x[:n_image] @ proj.wk.data,
                            x[:n_image] @ proj.wv.data, heads)
        state = np.zeros((1, heads, d_head, d_head))  # one decode lane
        for t in range(n_text):
            x_n = x[n_image + t:n_image + t + 1]
            gammas = (gate_gammas(Tensor(x_n) @ w_gamma, sched.tau).data[0]
                      if w_gamma is not None else sched.layer_values(layer_index))
            row, state = marmf_recurrent_step(state, image, x_n, proj, cfg,
                                              gammas[:, None, None])
            delta = np.max(np.abs(row[0] - par[n_image + t]))
            assert delta <= 1e-10, (t, delta)
