import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from retline.fusion import (
    merge_heads,
    retention_step,
    retention_weights,
    scaled_scores,
    split_heads,
)
from retline.retention import (
    GammaSchedule,
    PhaseConfig,
    apply_phases,
    build_decay,
    build_decay_bidirectional,
    default_theta,
    gamma_schedule,
    gate_gammas,
)
from retline.tensor import Tensor, bmatmul, matmul

from oracles import build_decay_gated


def brute_force_retention(x, wq, wk, wv, decay, phases=None):
    """Independent oracle: explicit double loop over query/key positions,
    scores scaled by 1/sqrt(d) as the kernels scale them."""
    n, d = x.shape
    q, k, v = x @ wq, x @ wk, x @ wv
    if phases is not None and phases.enabled:
        ang = phases.angles(np.arange(1, n + 1), d)
        q = rotate_ref(q, ang)
        k = rotate_ref(k, ang)
    out = np.zeros((n, d))
    for i in range(n):
        for j in range(n):
            out[i] += decay[i, j] * (q[i] @ k[j]) / np.sqrt(d) * v[j]
    return out


def one_head(x, wq, wk, wv, phases):
    """(1, n, d) single-head q, k, v; q and k rotated by positions 1..n."""
    positions = np.arange(1, x.shape[0] + 1)
    q, k = (apply_phases(matmul(x, w), positions, phases) for w in (wq, wk))
    return tuple(split_heads(t, 1) for t in (q, k, matmul(x, wv)))


def parallel(x, wq, wk, wv, decay, phases=PhaseConfig()):
    """The model's parallel kernel, one head at full width: (n, d) rows."""
    q, k, v = one_head(x, wq, wk, wv, phases)
    return merge_heads(bmatmul(retention_weights(scaled_scores(q, k), decay), v))


def recurrent(x, wq, wk, wv, gamma, phases=PhaseConfig()):
    """n steps of the model's recurrent kernel from a zero state: (n, d)."""
    q, k, v = (t.data[0] for t in one_head(x, wq, wk, wv, phases))
    n, d = q.shape
    state = np.zeros((1, 1, d, d))
    return np.concatenate([
        retention_step(state, q[i:i + 1], k[i:i + 1], v[i:i + 1], gamma)
        for i in range(n)])


def rotate_ref(x, ang):
    out = np.empty_like(x)
    cos, sin = np.cos(ang), np.sin(ang)
    out[:, 0::2] = x[:, 0::2] * cos - x[:, 1::2] * sin
    out[:, 1::2] = x[:, 0::2] * sin + x[:, 1::2] * cos
    return out


class TestDecayMatrices:
    def test_causal_n3_half(self):
        d = build_decay(3, 0.5)
        np.testing.assert_allclose(
            d, [[1, 0, 0], [0.5, 1, 0], [0.25, 0.5, 1]], atol=0
        )

    def test_single_token(self):
        np.testing.assert_array_equal(build_decay(1, 0.3), [[1.0]])

    def test_columns_strictly_decrease_below_diagonal(self):
        d = build_decay(6, 0.9)
        for j in range(6):
            col = d[j:, j]
            assert np.all(np.diff(col) < 0)

    def test_gamma_bounds_rejected(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                build_decay(4, bad)

    def test_entries_within_unit_interval(self):
        for gamma in (0.05, 0.5, 0.998):
            e = build_decay(12, gamma)
            assert e.min() >= 0.0 and e.max() <= 1.0
            np.testing.assert_array_equal(np.diag(e), 1.0)

    def test_gated_hand_product(self):
        d = build_decay_gated([0.9, 0.8, 0.7])
        # row 3, column 1 in 1-based terms: product of gates 2 and 3
        assert d[2, 0] == pytest.approx(0.8 * 0.7, abs=0)
        np.testing.assert_array_equal(np.diag(d), 1.0)
        assert d[1, 0] == pytest.approx(0.8, abs=0)

    def test_gated_constant_gates_match_fixed_gamma(self):
        fixed = build_decay(8, 0.6)
        gated = build_decay_gated(np.full(8, 0.6))
        assert np.max(np.abs(fixed - gated)) < 1e-15

    def test_gate_value_at_zero_preactivation(self):
        g = gate_gammas(Tensor(np.zeros((1, 1))), tau=16.0)
        assert g.data[0, 0] == pytest.approx(0.5 ** (1 / 16), abs=1e-12)

    def test_gated_rejects_out_of_range_gates(self):
        with pytest.raises(ValueError):
            build_decay_gated([0.5, 1.0])
        with pytest.raises(ValueError):
            build_decay_gated([0.0, 0.5])

    def test_bidirectional_n3_half(self):
        d = build_decay_bidirectional(3, 0.5)
        np.testing.assert_allclose(
            d, [[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]], atol=0
        )

    def test_bidirectional_symmetric_unit_diagonal(self):
        d = build_decay_bidirectional(7, 0.83)
        np.testing.assert_array_equal(d, d.T)
        np.testing.assert_array_equal(np.diag(d), 1.0)

    def test_bidirectional_gamma_bounds(self):
        with pytest.raises(ValueError):
            build_decay_bidirectional(3, 1.0)


class TestGammaSchedule:
    def test_original_two_heads(self):
        vals = gamma_schedule(GammaSchedule("original", layers=1, heads=2))
        np.testing.assert_allclose(vals, [[1 - 1 / 32, 1 - 1 / 512]], atol=0)
        assert vals[0, 0] == 0.96875
        assert vals[0, 1] == 0.998046875

    def test_layerwise_first_layer_first_head(self):
        vals = gamma_schedule(
            GammaSchedule("layerwise", layers=3, heads=2, gamma_subtractor=0.86)
        )
        assert vals[0, 0] == pytest.approx(1 - 0.86 - 1 / 32, abs=1e-15)
        assert vals[0, 0] == pytest.approx(0.10875, abs=1e-12)

    def test_layerwise_last_layer_equals_original(self):
        for L, H in [(2, 3), (5, 4), (3, 1)]:
            lw = gamma_schedule(GammaSchedule("layerwise", L, H, 0.86))
            orig = gamma_schedule(GammaSchedule("original", L, H, 0.86))
            np.testing.assert_array_equal(lw[L - 1], orig[L - 1])

    def test_layerwise_single_layer_degenerates_to_original(self):
        lw = gamma_schedule(GammaSchedule("layerwise", 1, 4, 0.86))
        orig = gamma_schedule(GammaSchedule("original", 1, 4, 0.86))
        np.testing.assert_array_equal(lw, orig)

    def test_headwise_two_heads(self):
        vals = gamma_schedule(
            GammaSchedule("headwise", layers=1, heads=2, gamma_subtractor=0.86)
        )
        np.testing.assert_allclose(vals, [[0.10875, 0.96875]], atol=1e-15)

    def test_small_gamma_uniform_shift(self):
        small = gamma_schedule(GammaSchedule("small_gamma", 2, 3, 0.5))
        orig = gamma_schedule(GammaSchedule("original", 2, 3, 0.5))
        np.testing.assert_allclose(small, orig - 0.5, atol=1e-15)

    def test_all_strategies_inside_unit_interval(self):
        for strategy in ("original", "small_gamma", "headwise", "layerwise"):
            vals = gamma_schedule(GammaSchedule(strategy, 4, 6, 0.86))
            assert np.all(vals > 0.0) and np.all(vals < 1.0)

    def test_layerwise_nondecreasing_in_depth(self):
        vals = gamma_schedule(GammaSchedule("layerwise", 6, 4, 0.86))
        assert np.all(np.diff(vals, axis=0) >= 0)

    def test_oversized_subtractor_rejected(self):
        with pytest.raises(ValueError):
            gamma_schedule(GammaSchedule("small_gamma", 1, 2, 0.99))

    def test_gated_strategy_needs_data(self):
        with pytest.raises(ValueError):
            gamma_schedule(GammaSchedule("gated", 2, 2))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            GammaSchedule("softmax", 1, 1)

    @pytest.mark.parametrize("tau", [0.0, -2.0])
    def test_nonpositive_tau_rejected(self, tau):
        # a negative tau would make every gate exceed 1, so the "decay" grows
        with pytest.raises(ValueError, match="tau"):
            GammaSchedule("gated", 1, 2, tau=tau)


class TestPhases:
    def test_rotation_preserves_norm(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((6, 8)))
        out = apply_phases(x, np.arange(1, 7), PhaseConfig())
        np.testing.assert_allclose(
            np.linalg.norm(out.data, axis=1),
            np.linalg.norm(x.data, axis=1),
            atol=1e-12,
        )

    def test_equal_position_inner_products_unchanged(self):
        rng = np.random.default_rng(5)
        q = Tensor(rng.standard_normal((5, 12)))
        k = Tensor(rng.standard_normal((5, 12)))
        pos = np.arange(1, 6)
        qr = apply_phases(q, pos, PhaseConfig())
        kr = apply_phases(k, pos, PhaseConfig())
        before = np.einsum("nd,nd->n", q.data, k.data)
        after = np.einsum("nd,nd->n", qr.data, kr.data)
        np.testing.assert_allclose(after, before, atol=1e-12)

    def test_scores_depend_on_relative_offset(self):
        # shifting all positions by a constant leaves pairwise scores unchanged
        rng = np.random.default_rng(6)
        q = Tensor(rng.standard_normal((4, 8)))
        k = Tensor(rng.standard_normal((4, 8)))
        cfg = PhaseConfig()
        s1 = apply_phases(q, np.arange(4), cfg).data @ apply_phases(
            k, np.arange(4), cfg
        ).data.T
        s2 = apply_phases(q, np.arange(4) + 11, cfg).data @ apply_phases(
            k, np.arange(4) + 11, cfg
        ).data.T
        np.testing.assert_allclose(s1, s2, atol=1e-10)

    def test_default_theta_shape(self):
        assert default_theta(8).shape == (4,)
        with pytest.raises(ValueError):
            default_theta(7)


class TestParallelForm:
    def test_single_token_is_scaled_value(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((1, 4)))
        wq, wk, wv = (Tensor(rng.standard_normal((4, 4))) for _ in range(3))
        out = parallel(x, wq, wk, wv, build_decay(1, 0.5))
        q = rotate_ref(x.data @ wq.data, PhaseConfig().angles([1], 4))
        k = rotate_ref(x.data @ wk.data, PhaseConfig().angles([1], 4))
        v = x.data @ wv.data
        np.testing.assert_allclose(out.data, (q @ k.T) / np.sqrt(4) * v,
                                   atol=1e-12)

    def test_identity_decay_is_memoryless(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((5, 6)))
        wq, wk, wv = (Tensor(rng.standard_normal((6, 6))) for _ in range(3))
        decay = np.eye(5)
        out = parallel(x, wq, wk, wv, decay, PhaseConfig(enabled=False))
        q, k, v = x.data @ wq.data, x.data @ wk.data, x.data @ wv.data
        expected = (np.einsum("nd,nd->n", q, k) / np.sqrt(6))[:, None] * v
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((8, 4)))
        wq, wk, wv = (Tensor(rng.standard_normal((4, 4))) for _ in range(3))
        decay = build_decay(8, 0.7)
        phases = PhaseConfig()
        out = parallel(x, wq, wk, wv, decay, phases)
        expected = brute_force_retention(
            x.data, wq.data, wk.data, wv.data, decay, phases
        )
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_causality_exact(self):
        rng = np.random.default_rng(10)
        base = rng.standard_normal((6, 4))
        wq, wk, wv = (Tensor(rng.standard_normal((4, 4))) for _ in range(3))
        decay = build_decay(6, 0.5)
        out1 = parallel(Tensor(base), wq, wk, wv, decay).data
        poked = base.copy()
        poked[4] += 3.0  # token after row 3
        out2 = parallel(Tensor(poked), wq, wk, wv, decay).data
        np.testing.assert_array_equal(out1[:4], out2[:4])


class TestRecurrentForm:
    def test_first_step_matches_parallel_single_token(self):
        rng = np.random.default_rng(12)
        q = rng.standard_normal((1, 5))
        k = rng.standard_normal((1, 5))
        v = rng.standard_normal((1, 5))
        state = np.zeros((1, 1, 5, 5))
        out = retention_step(state, q, k, v, 0.5)
        expected = (q @ k.T) / np.sqrt(5) * v
        np.testing.assert_allclose(out, expected, atol=1e-14)
        # the state was advanced in place to k^T v, each entry one product
        np.testing.assert_array_equal(state[0, 0], np.outer(k, v))

    def test_zero_gamma_overwrites_state(self):
        rng = np.random.default_rng(13)
        state = np.zeros((1, 1, 4, 4))
        for _ in range(4):
            q = rng.standard_normal((1, 4))
            k = rng.standard_normal((1, 4))
            v = rng.standard_normal((1, 4))
            out = retention_step(state, q, k, v, 0.0)
            expected = (q @ k.T) / np.sqrt(4) * v
            np.testing.assert_allclose(out, expected, atol=1e-13)

    def test_state_equals_brute_force_sum(self):
        rng = np.random.default_rng(14)
        d, n, gamma = 6, 10, 0.8
        ks = rng.standard_normal((n, d))
        vs = rng.standard_normal((n, d))
        state = np.zeros((1, 1, d, d))
        for i in range(n):
            retention_step(state, np.zeros((1, d)), ks[i:i + 1], vs[i:i + 1],
                           gamma)
        expected = sum(
            gamma ** (n - 1 - m) * np.outer(ks[m], vs[m]) for m in range(n)
        )
        assert np.max(np.abs(state[0, 0] - expected)) < 1e-10

    def test_sixteen_steps_reproduce_parallel(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.standard_normal((16, 8)))
        wq, wk, wv = (Tensor(rng.standard_normal((8, 8))) for _ in range(3))
        gamma = 0.9
        par = parallel(x, wq, wk, wv, build_decay(16, gamma)).data
        rec = recurrent(x, wq, wk, wv, gamma)
        assert np.max(np.abs(par - rec)) < 1e-10

    def test_state_shape_mismatch_rejected(self):
        q = np.zeros((1, 3))
        with pytest.raises(ValueError):
            retention_step(np.zeros((1, 1, 4, 4)), q, q, q, 0.5)

    @given(seed=st.integers(0, 2**32 - 1), lanes=st.integers(1, 3),
           heads=st.integers(1, 3), d_head=st.integers(1, 4),
           steps=st.integers(1, 95),
           gammas=st.lists(st.floats(0.05, 0.999), min_size=3, max_size=3))
    def test_state_norm_bound(self, seed, lanes, heads, d_head, steps, gammas):
        # for fixed gamma, ||S_t||_F <= sum_m gamma^(t-m) ||k_m|| ||v_m||
        # <= max_m ||k_m|| ||v_m|| / (1 - gamma), per lane and head
        rng = np.random.default_rng(seed)
        gamma = np.array(gammas[:heads])
        d = heads * d_head
        state = np.zeros((lanes, heads, d_head, d_head))
        weighted = np.zeros((lanes, heads))
        largest = np.zeros((lanes, heads))
        slack = 1.0 + 1e-9
        for _ in range(steps):
            k, v = rng.standard_normal((2, lanes, d)) * rng.uniform(0.0, 3.0)
            retention_step(state, np.zeros((lanes, d)), k, v,
                           gamma[:, None, None])
            size = (np.linalg.norm(k.reshape(lanes, heads, d_head), axis=-1)
                    * np.linalg.norm(v.reshape(lanes, heads, d_head), axis=-1))
            weighted = gamma * weighted + size
            largest = np.maximum(largest, size)
            assert np.all(np.linalg.norm(state, axis=(-2, -1))
                          <= weighted * slack)
            assert np.all(weighted <= largest / (1.0 - gamma) * slack)

    @given(seed=st.integers(0, 2**32 - 1), lanes=st.integers(1, 3),
           heads=st.integers(1, 3), d_head=st.integers(1, 4),
           steps=st.integers(1, 95), tau=st.floats(0.5, 64.0))
    def test_gated_state_norm_bound(self, seed, lanes, heads, d_head, steps,
                                    tau):
        # for per-lane gates g_t, ||S_t||_F <= sum_m (prod_{j>m} g_j)
        # ||k_m|| ||v_m|| <= sum_m ||k_m|| ||v_m||, per lane and head
        rng = np.random.default_rng(seed)
        d = heads * d_head
        state = np.zeros((lanes, heads, d_head, d_head))
        weighted = np.zeros((lanes, heads))
        total = np.zeros((lanes, heads))
        slack = 1.0 + 1e-9
        for _ in range(steps):
            k, v = rng.standard_normal((2, lanes, d)) * rng.uniform(0.0, 3.0)
            gates = gate_gammas(Tensor(rng.normal(0.0, 4.0, (lanes, heads))),
                                tau).data
            retention_step(state, np.zeros((lanes, d)), k, v,
                           gates[:, :, None, None])
            size = (np.linalg.norm(k.reshape(lanes, heads, d_head), axis=-1)
                    * np.linalg.norm(v.reshape(lanes, heads, d_head), axis=-1))
            weighted = gates * weighted + size
            total += size
            assert np.all(np.linalg.norm(state, axis=(-2, -1))
                          <= weighted * slack)
            assert np.all(weighted <= total * slack)


class TestGradients:
    def test_retention_layer_loss_gradcheck(self):
        from retline.tensor import grad_check, mul_const, sum_all

        rng = np.random.default_rng(21)
        wq, wk, wv = (Tensor(rng.standard_normal((6, 6))) for _ in range(3))
        decay = build_decay(3, 0.5)
        weights = rng.standard_normal((3, 6))

        def loss(x):
            out = parallel(x, wq, wk, wv, decay)
            return sum_all(mul_const(out, weights))

        x = Tensor(rng.standard_normal((3, 6)))
        assert grad_check(loss, x) <= 1e-4


class TestEquivalenceSweep:
    def test_parallel_recurrent_agree_across_configs(self):
        rng = np.random.default_rng(16)
        worst = 0.0
        for trial in range(30):
            n = int(rng.integers(1, 33))
            d = int(rng.integers(1, 9)) * 2
            gamma = [0.1, 0.5, 0.96875][trial % 3]
            x = Tensor(rng.standard_normal((n, d)))
            wq, wk, wv = (Tensor(rng.standard_normal((d, d))) for _ in range(3))
            par = parallel(x, wq, wk, wv, build_decay(n, gamma)).data
            rec = recurrent(x, wq, wk, wv, gamma)
            worst = max(worst, float(np.max(np.abs(par - rec))))
        assert worst <= 1e-10

    def test_gated_constant_equals_fixed(self):
        rng = np.random.default_rng(17)
        x = Tensor(rng.standard_normal((7, 4)))
        wq, wk, wv = (Tensor(rng.standard_normal((4, 4))) for _ in range(3))
        fixed = parallel(
            x, wq, wk, wv, build_decay(7, 0.75), PhaseConfig(enabled=False)
        ).data
        gated = parallel(
            x, wq, wk, wv, build_decay_gated(np.full(7, 0.75)),
            PhaseConfig(enabled=False),
        ).data
        assert np.max(np.abs(fixed - gated)) < 1e-13
