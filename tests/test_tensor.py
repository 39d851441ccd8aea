import weakref

import numpy as np
import pytest

from retline.tensor import (
    OpCounter,
    Tape,
    Tensor,
    add,
    backward,
    bmatmul,
    concat_cols,
    concat_rows,
    conv,
    count_ops,
    dropout,
    embedding_rows,
    gelu,
    grad_check,
    layer_norm,
    log_softmax_rows,
    masked_softmax_rows,
    matmul,
    mul,
    mul_const,
    no_tape,
    permute,
    pow_const,
    rotate_pairs,
    sigmoid,
    slice_cols,
    slice_rows,
    softmax_rows,
    sum_all,
)


def rand(shape, seed=0):
    return Tensor(np.random.default_rng(seed).standard_normal(shape))


def detach(t):
    """A tensor on `t`'s data that no gradient reaches."""
    return Tensor._wrap(t.data, False)


class TestConstruction:
    def test_shape_matches_data(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.size == 4

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Tensor([np.inf, 1.0])
        with pytest.raises(ValueError):
            Tensor([np.nan])

    def test_detach_drops_grad_tracking(self):
        t = Tensor([1.0], requires_grad=True)
        assert not detach(t).requires_grad
        assert detach(t).data is t.data


class TestMatmul:
    def test_identity(self):
        a = Tensor([[2.0, -1.0], [0.5, 3.0]])
        eye = Tensor(np.eye(2))
        np.testing.assert_array_equal(matmul(eye, a).data, a.data)

    def test_zero(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        z = Tensor([[0.0], [0.0]])
        np.testing.assert_array_equal(matmul(a, z).data, [[0.0], [0.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            matmul(rand((2, 3)), rand((2, 3)))

    def test_1x1_counts_one_mult_zero_adds(self):
        c = OpCounter()
        with count_ops(c):
            matmul(Tensor([[2.0]]), Tensor([[3.0]]))
        assert c.mults == 1
        assert c.adds == 0

    def test_count_is_mkp(self):
        for (m, k, p) in [(1, 1, 1), (3, 4, 5), (8, 8, 8), (2, 7, 1)]:
            c = OpCounter()
            with count_ops(c):
                matmul(rand((m, k), seed=m), rand((k, p), seed=p))
            assert c.mults == m * k * p
            assert c.adds == m * p * (k - 1)

    def test_associativity_consistent(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a, b, c = (Tensor(rng.standard_normal((8, 8))) for _ in range(3))
            left = matmul(matmul(a, b), c).data
            right = matmul(a, matmul(b, c)).data
            assert np.max(np.abs(left - right)) / np.max(np.abs(left)) < 1e-9

    def test_counters_nest_per_context(self):
        outer, inner = OpCounter(), OpCounter()
        with count_ops(outer):
            matmul(rand((2, 2)), rand((2, 2)))
            with count_ops(inner):
                matmul(rand((2, 2)), rand((2, 2)))
        assert inner.mults == 8
        assert outer.mults == 16


class TestBatchedMatmul:
    def test_slices_and_counts_match_matmul(self):
        for (n, m, k, p) in [(1, 1, 1, 1), (3, 1, 4, 5), (4, 2, 7, 1),
                             (2, 8, 8, 8)]:
            a, b = rand((n, m, k), seed=k), rand((n, k, p), seed=p)
            batched, sliced = OpCounter(), OpCounter()
            with count_ops(batched):
                out = bmatmul(a, b)
            with count_ops(sliced):
                for i in range(n):
                    want = matmul(Tensor(a.data[i]), Tensor(b.data[i])).data
                    np.testing.assert_allclose(out.data[i], want, rtol=1e-12,
                                               atol=1e-12)
            assert batched.snapshot() == sliced.snapshot()

    def test_shape_mismatch_rejected(self):
        for sa, sb in [((2, 3, 4), (3, 4, 2)), ((2, 3, 4), (2, 3, 2)),
                       ((3, 4), (4, 2))]:
            with pytest.raises(ValueError):
                bmatmul(rand(sa), rand(sb))

    def test_gradient(self):
        rng = np.random.default_rng(44)
        w = Tensor(rng.standard_normal((3, 4, 2)))
        cases = [
            lambda t: sum_all(mul(bmatmul(t, w), bmatmul(t, w))),
            lambda t: sum_all(mul(bmatmul(permute(t, (0, 2, 1)), t),
                                  bmatmul(permute(t, (0, 2, 1)), t))),
        ]
        for i, f in enumerate(cases):
            for trial in range(3):
                x = Tensor(rng.standard_normal((3, 2, 4)))
                err = grad_check(f, x)
                assert err <= 1e-6, f"case {i} trial {trial}: {err}"


class TestSoftmax:
    def test_uniform_row(self):
        out = softmax_rows(Tensor([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3] * 3], atol=1e-15)

    def test_single_column(self):
        out = softmax_rows(Tensor([[5.0], [-2.0]]))
        np.testing.assert_array_equal(out.data, [[1.0], [1.0]])

    def test_log_ratio_row(self):
        out = softmax_rows(Tensor([[np.log(1.0), np.log(3.0)]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-15)

    def test_rows_sum_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((20, 9))
        s = softmax_rows(Tensor(x))
        np.testing.assert_allclose(s.data.sum(axis=1), 1.0, atol=1e-12)
        s2 = softmax_rows(Tensor(x + 13.7))
        assert np.max(np.abs(s.data - s2.data)) < 1e-12

    def test_masked_softmax_zeroes_blocked_entries(self):
        x = Tensor(np.random.default_rng(0).standard_normal((4, 6)))
        allow = np.zeros((4, 6), dtype=bool)
        allow[:, :3] = True
        s = masked_softmax_rows(x, allow)
        assert np.all(s.data[:, 3:] == 0.0)
        np.testing.assert_allclose(s.data.sum(axis=1), 1.0, atol=1e-12)

    def test_masked_softmax_rejects_empty_row(self):
        with pytest.raises(ValueError):
            masked_softmax_rows(rand((2, 2)), np.zeros((2, 2), dtype=bool))


class TestGelu:
    def test_zero(self):
        assert gelu(Tensor([0.0])).data[0] == 0.0

    def test_saturates_to_identity(self):
        assert abs(gelu(Tensor([10.0])).data[0] - 10.0) < 1e-9

    def test_kills_large_negative(self):
        assert abs(gelu(Tensor([-10.0])).data[0]) < 1e-9


class TestLayerNorm:
    def test_constant_vector_maps_to_zero(self):
        x = Tensor([[4.0, 4.0, 4.0]])
        out = layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_two_point_vector(self):
        out = layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-5)

    def test_normalizes_mean_and_variance(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((16, 32)))
        out = layer_norm(x, Tensor(np.ones(32)), Tensor(np.zeros(32)))
        np.testing.assert_allclose(out.data.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data.var(axis=1), 1.0, atol=1e-4)

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            layer_norm(Tensor(np.zeros((2, 0))), Tensor(np.zeros(0)), Tensor(np.zeros(0)))


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape():
            backward(sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_matmul_grad_pattern(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        b = Tensor([[5.0, 6.0], [7.0, 8.0]], requires_grad=True)
        with Tape():
            backward(sum_all(matmul(a, b)))
        np.testing.assert_array_equal(a.grad, np.ones((2, 2)) @ b.data.T)
        np.testing.assert_array_equal(b.grad, a.data.T @ np.ones((2, 2)))

    def test_detached_receives_no_grad(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        frozen = Tensor([[3.0, 4.0]])
        with Tape():
            backward(sum_all(mul(x, frozen)))
        assert frozen.grad is None
        np.testing.assert_array_equal(x.grad, frozen.data)

    def test_non_scalar_loss_rejected(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        with Tape():
            y = mul(x, x)
            with pytest.raises(ValueError):
                backward(y)

    def test_repeat_backward_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape():
            loss = sum_all(mul(x, x))
            backward(loss)
            backward(loss)
        np.testing.assert_allclose(x.grad, [8.0])

    def test_requires_active_tape(self):
        x = Tensor([1.0], requires_grad=True)
        loss = sum_all(x)
        with pytest.raises(RuntimeError):
            backward(loss)

    def test_backward_does_not_mutate_forward_values(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        with Tape():
            y = gelu(x)
            kept = y.data.copy()
            backward(sum_all(y))
        np.testing.assert_array_equal(y.data, kept)


class TestLeanTape:
    """The tape holds leaves and the arrays its closures read, not the
    tensors it recorded."""

    @staticmethod
    def chain(x, w, held, ids):
        # thousands of intermediates, each dropped unless `held` keeps it
        y = x
        for i in range(1500):
            z = mul_const(gelu(y), 0.5) if i % 3 else add(y, w)
            y = layer_norm(z, w, w) if i % 50 == 0 else z
            ids.add(id(y))
            if held is not None:
                held.append(y)
        return sum_all(mul(y, y))

    def test_dropped_intermediates_match_held_ones(self):
        # dropped tensors free their ids, which CPython hands to new ones
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal(4), requires_grad=True)
        grads, distinct = [], []
        for held in (None, []):
            x.grad = w.grad = None
            ids = set()
            with Tape() as tape:
                loss = self.chain(x, w, held, ids)
                backward(loss)
            grads.append((x.grad, w.grad, loss.data))
            distinct.append(len(ids))
        assert len(tape) > 2500
        assert distinct[0] < distinct[1] == 1500
        for dropped, kept in zip(*grads):
            assert dropped.tobytes() == kept.tobytes()

    def test_tensor_of_an_earlier_tape_is_a_leaf(self):
        x = Tensor([[1.0, -2.0]], requires_grad=True)
        with Tape():
            h = mul_const(x, 3.0)  # node 0 of this tape
        with Tape():
            backward(sum_all(mul(h, h)))  # node 0 again, on another tape
        np.testing.assert_array_equal(h.grad, 2.0 * h.data)
        assert x.grad is None

    def test_unread_intermediate_is_freed(self):
        rng = np.random.default_rng(13)
        a = Tensor(rng.standard_normal(100_000), requires_grad=True)
        b = Tensor(rng.standard_normal(100_000), requires_grad=True)
        with Tape():
            s = add(a, b)
            alive = weakref.ref(s.data)
            loss = sum_all(mul_const(s, 2.0))
            del s
            assert alive() is None
            backward(loss)
        np.testing.assert_array_equal(a.grad, np.full(100_000, 2.0))
        np.testing.assert_array_equal(b.grad, np.full(100_000, 2.0))

    @pytest.mark.parametrize("op", [
        lambda t: slice_cols(t, 1, 3),
        lambda t: concat_rows([t, t]),
        lambda t: layer_norm(t, Tensor(np.ones(4), requires_grad=True),
                             Tensor(np.zeros(4))),
        lambda t: conv(t, *conv_case(4, 2, 3, seed=14), 3, (2, 1), 1),
    ], ids=["slice_cols", "concat_rows", "layer_norm", "conv"])
    def test_input_no_closure_reads_is_freed(self, op):
        rng = np.random.default_rng(15)
        x = Tensor(rng.standard_normal((5, 6, 4)), requires_grad=True)
        with Tape():
            y = gelu(x)
            alive = weakref.ref(y.data)
            out = op(y)
            del y
            assert alive() is None
            backward(sum_all(mul(out, out)))
        assert x.grad is not None


class TestGradCheck:
    def test_quadratic(self):
        x = rand((3, 4), seed=5)
        assert grad_check(lambda t: sum_all(mul(t, t)), x) <= 1e-7

    def test_non_contiguous_input(self):
        # the perturbations must reach a transposed view's data, not a copy
        x = Tensor(np.random.default_rng(5).standard_normal((4, 3)).T)
        assert grad_check(lambda t: sum_all(mul(t, t)), x) <= 1e-7

    def test_constant_function(self):
        x = rand((2, 2), seed=6)
        const = Tensor(np.zeros(()))
        assert grad_check(lambda t: const, x) == 0.0

    def test_every_primitive_under_random_points(self):
        rng = np.random.default_rng(42)
        weights = rng.standard_normal((4, 6))
        cases = [
            lambda t: sum_all(mul_const(softmax_rows(t), weights)),
            lambda t: sum_all(mul(softmax_rows(t), t)),
            lambda t: sum_all(log_softmax_rows(t)),
            lambda t: sum_all(gelu(t)),
            lambda t: sum_all(sigmoid(t)),
            lambda t: sum_all(mul_const(
                layer_norm(t, Tensor(np.ones(6)), Tensor(np.zeros(6))), weights)),
            lambda t: sum_all(matmul(t, permute(t, (1, 0)))),
            lambda t: sum_all(mul(slice_rows(t, 1, 3), slice_rows(t, 0, 2))),
            lambda t: sum_all(mul(slice_cols(t, 0, 3), slice_cols(t, 2, 5))),
            lambda t: sum_all(concat_rows([t, t])),
            lambda t: sum_all(mul(concat_cols([t, t]), concat_cols([t, t]))),
            lambda t: mul_const(sum_all(mul_const(
                t, np.arange(24.0).reshape(4, 6))), 1 / 24),
            lambda t: sum_all(mul_const(mul(t, t), np.arange(1.0, 5.0)[:, None])),
            lambda t: sum_all(rotate_pairs(t, np.linspace(0, 2, 12).reshape(4, 3))),
        ]
        for i, f in enumerate(cases):
            for trial in range(10):
                x = Tensor(rng.standard_normal((4, 6)))
                err = grad_check(f, x)
                assert err <= 1e-4, f"case {i} trial {trial}: {err}"

    def test_pow_const_gradient(self):
        x = Tensor(np.random.default_rng(1).random((3, 3)) + 0.5)
        assert grad_check(lambda t: sum_all(pow_const(t, 1 / 16)), x) <= 1e-6

    def test_embedding_gradient_scatters(self):
        table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        with Tape():
            out = embedding_rows(table, [1, 1, 3])
            backward(sum_all(out))
        expected = np.zeros((4, 3))
        expected[1] = 2.0
        expected[3] = 1.0
        np.testing.assert_array_equal(table.grad, expected)

    def test_embedding_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            embedding_rows(rand((4, 3)), [4])


class TestRotation:
    def test_norm_preserved(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((5, 8)))
        ang = rng.random((5, 4)) * 6.0
        y = rotate_pairs(x, ang)
        np.testing.assert_allclose(
            np.linalg.norm(y.data, axis=1), np.linalg.norm(x.data, axis=1), atol=1e-12
        )


def channels_last(chw):
    """A (c, h, w) array as the (h, w, c) tensor `conv` takes."""
    return Tensor(np.ascontiguousarray(np.transpose(chw, (1, 2, 0))))


def conv_case(c, c_out, kernel, seed):
    """Seeded (c*k*k, c_out) weights and (c_out,) bias, requiring gradients."""
    rng = np.random.default_rng(seed)
    w = Tensor(rng.standard_normal((c * kernel * kernel, c_out)),
               requires_grad=True)
    b = Tensor(rng.standard_normal(c_out), requires_grad=True)
    return w, b


class TestConv:
    def test_identity_weights_give_the_columns(self):
        # with identity weights and no bias, the output is the im2col itself
        x = channels_last(np.arange(2 * 4 * 4, dtype=float).reshape(2, 4, 4))
        y = conv(x, Tensor(np.eye(18)), Tensor(np.zeros(18)), kernel=3,
                 stride=(2, 2), pad=1)
        assert y.shape == (2, 2, 18)
        # top-left patch, channel 0, with zero padding around the corner
        np.testing.assert_array_equal(
            y.data[0, 0, :9], [0, 0, 0, 0, 0, 1, 0, 4, 5]
        )

    def test_counts_the_im2col_product(self):
        x = channels_last(np.zeros((3, 6, 7)))
        w, b = conv_case(3, 4, 3, seed=0)
        with count_ops(OpCounter()) as ops:
            y = conv(x, w, b, 3, (2, 1), 1)
        m = y.shape[0] * y.shape[1]
        assert ops.snapshot() == (m * 27 * 4, m * 4 * 26)

    def test_mismatched_bias_rejected(self):
        x = channels_last(np.zeros((1, 5, 5)))
        with pytest.raises(ValueError, match="bias"):
            conv(x, Tensor(np.zeros((9, 2))), Tensor(np.zeros(3)), 3, (1, 1), 1)

    def test_kernel_larger_than_input_rejected(self):
        x = channels_last(np.zeros((1, 2, 2)))
        with pytest.raises(ValueError, match="does not fit"):
            conv(x, Tensor(np.zeros((25, 1))), Tensor(np.zeros(1)), 5, (1, 1), 0)

    @pytest.mark.parametrize("wrt", ["x", "w", "b"])
    def test_gradient(self, wrt):
        x = channels_last(np.random.default_rng(2).standard_normal((2, 6, 5)))
        w, b = conv_case(2, 3, 3, seed=3)
        args = {"x": x, "w": w, "b": b}

        def f(t):
            y = conv(*(t if k == wrt else args[k] for k in "xwb"), 3, (2, 1), 1)
            return sum_all(mul(y, y))

        assert grad_check(f, args[wrt]) <= 1e-6

    def test_two_calls_on_one_input_sum_their_gradients(self):
        # one tape, the same x, w and b in two convolutions of one geometry:
        # each output is what the call alone gives, and every gradient the
        # sum of what each call alone gives, so no buffer is shared by calls
        rng = np.random.default_rng(4)
        x = channels_last(rng.standard_normal((3, 9, 8)))
        x.requires_grad = True
        w, b = conv_case(3, 4, 5, seed=5)
        upstreams = [Tensor(rng.standard_normal((5, 4, 4))) for _ in range(2)]
        outputs, alone = [], []
        for upstream in upstreams:
            for t in (x, w, b):
                t.grad = None
            with Tape():
                y = conv(x, w, b, 5, (2, 2), 2)
                backward(sum_all(mul(y, upstream)))
            outputs.append(y.data)
            alone.append([t.grad for t in (x, w, b)])
        for t in (x, w, b):
            t.grad = None
        with Tape():
            ys = [conv(x, w, b, 5, (2, 2), 2) for _ in upstreams]
            first, second = (sum_all(mul(y, u)) for y, u in zip(ys, upstreams))
            backward(add(first, second))
        for y, expected in zip(ys, outputs):
            assert np.array_equal(y.data, expected)
        for t, one, two in zip((x, w, b), *alone):
            assert np.array_equal(t.grad, one + two)


def gather_unfold(x, kernel, stride, pad):
    """The index-array im2col that the strided `conv` columns replaced: a
    fancy-index gather forward and an `np.add.at` scatter backward. Returns
    (cols, backward)."""
    c, h, w = x.shape
    sh, sw = stride
    oh = (h + 2 * pad - kernel) // sh + 1
    ow = (w + 2 * pad - kernel) // sw + 1
    hp, wp = h + 2 * pad, w + 2 * pad
    padded = np.zeros((c, hp, wp))
    padded[:, pad:pad + h, pad:pad + w] = x
    ci = np.arange(c)[None, :, None, None]
    ki = np.arange(kernel)[None, None, :, None]
    kj = np.arange(kernel)[None, None, None, :]
    base_i = (np.arange(oh) * sh)[:, None]
    base_j = (np.arange(ow) * sw)[None, :]
    pos_i = (base_i + np.zeros_like(base_j)).reshape(-1)[:, None, None, None]
    pos_j = (base_j + np.zeros_like(base_i)).reshape(-1)[:, None, None, None]
    flat = ((ci * hp + pos_i + ki) * wp + (pos_j + kj)).reshape(oh * ow, -1)

    def backward_fn(g):
        gpad = np.zeros(c * hp * wp)
        np.add.at(gpad, flat.reshape(-1), g.reshape(-1))
        return gpad.reshape(c, hp, wp)[:, pad:pad + h, pad:pad + w]

    return padded.reshape(-1)[flat], backward_fn


class TestConvMatchesGather:
    """`conv` equals the gather im2col times the weights plus the bias, and
    its input gradient the `np.add.at` scatter of `g @ w.T`, bitwise, as do
    the weight and bias gradients. The reference works on (c, h, w); `conv`
    takes the same values channels-last, and its gradient is transposed
    back. At c >= 2 the input gradient is made one kernel offset at a time
    (c = 16 is the input of the model's last stage, `cnn2`), at c = 1 from
    one product."""

    @pytest.mark.parametrize("c", [1, 2, 3, 8, 16])
    @pytest.mark.parametrize("c_out", [1, 4, 8, 16])
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("stride", [(1, 1), (2, 1), (2, 2), (3, 2)])
    @pytest.mark.parametrize("pad", [0, 2])
    @pytest.mark.parametrize("hw", [(7, 9), (5, 11)])  # (5, 11) at k=5, pad=0: oh == 1
    def test_bitwise(self, c, c_out, kernel, stride, pad, hw):
        seed = c * 1000 + c_out * 100 + kernel * 10 + pad
        rng = np.random.default_rng(seed)
        chw = rng.standard_normal((c,) + hw)
        x = channels_last(chw)
        x.requires_grad = True
        w, b = conv_case(c, c_out, kernel, seed)
        ref_cols, ref_backward = gather_unfold(chw, kernel, stride, pad)
        upstream = rng.standard_normal((ref_cols.shape[0], c_out))
        with Tape():
            y = conv(x, w, b, kernel, stride, pad)
            backward(sum_all(mul(y, Tensor(upstream.reshape(y.shape)))))
        assert np.array_equal(y.data.reshape(-1, c_out),
                              ref_cols @ w.data + b.data)
        assert np.array_equal(np.transpose(x.grad, (2, 0, 1)),
                              ref_backward(upstream @ w.data.T))
        assert np.array_equal(w.grad, ref_cols.T @ upstream)
        assert np.array_equal(b.grad, upstream.sum(axis=0))

    def test_grid_has_a_single_output_row(self):
        x = channels_last(np.zeros((1, 5, 11)))
        assert conv(x, Tensor(np.zeros((25, 1))), Tensor(np.zeros(1)),
                    5, (3, 2), 0).shape[0] == 1


class TestDropout:
    def test_zero_rate_is_identity(self):
        x = rand((3, 3))
        assert dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_preserves_expectation(self):
        x = Tensor(np.ones((200, 50)))
        out = dropout(x, 0.3, np.random.default_rng(8))
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            dropout(rand((2, 2)), 1.0, np.random.default_rng(0))

    def test_last_rows_of_a_longer_draw(self):
        x = rand((7, 5))
        tail = Tensor(x.data[3:])
        rng_full, rng_tail = np.random.default_rng(4), np.random.default_rng(4)
        full = dropout(x, 0.4, rng_full)
        out = dropout(tail, 0.4, rng_tail, rows=7)
        assert np.array_equal(out.data, full.data[3:])
        # both drew the same numbers, so the streams continue alike
        assert rng_full.random() == rng_tail.random()


class TestConcurrency:
    def test_distinct_tapes_run_concurrently(self):
        import threading

        shared = Tensor(np.full((4, 4), 2.0))  # read-only across threads
        results = {}

        def worker(tid):
            x = Tensor(np.full((4, 4), float(tid + 1)), requires_grad=True)
            with Tape():
                backward(sum_all(mul(mul(x, x), shared)))
            results[tid] = x.grad.copy()

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for tid, grad in results.items():
            np.testing.assert_allclose(grad, 2.0 * (tid + 1) * 2.0)
        assert shared.grad is None

    def test_counters_are_per_thread(self):
        import threading

        counts = {}

        def worker(tid, reps):
            c = OpCounter()
            with count_ops(c):
                for _ in range(reps):
                    matmul(rand((2, 2), seed=tid), rand((2, 2), seed=tid))
            counts[tid] = c.mults

        threads = [threading.Thread(target=worker, args=(t, t + 1))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counts == {t: 8 * (t + 1) for t in range(4)}


class TestBlasPin:
    def test_a_missing_setter_is_reported(self, monkeypatch, capsys):
        import os

        from retline import tensor as tensor_module

        monkeypatch.setattr(os, "listdir", lambda path: [])
        tensor_module._pin_blas_threads()
        assert "scipy_openblas_set_num_threads64_" in capsys.readouterr().err


class TestAddVariants:
    def test_row_vector_bias(self):
        x = Tensor(np.zeros((3, 2)), requires_grad=True)
        b = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with Tape():
            out = add(x, b)
            backward(sum_all(out))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0]] * 3)
        np.testing.assert_array_equal(b.grad, [3.0, 3.0])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            add(rand((2, 3)), rand((3, 2)))


class TestConvWorkspace:
    """conv's buffers outlive the call that took them: no buffer a live
    closure or gradient still reads is handed out again, so interleaved
    passes give the gradients of passes run one after the other."""

    TOY_WIDTHS = [24 * chars + 4 for chars in range(4, 17)]  # train_toy's lines

    @staticmethod
    def embedder():
        from retline.model import Model, ModelConfig

        return Model(ModelConfig(vocab_size=8, max_text_len=18, layers=1,
                                 heads=2, d_model=16, d_ff=32), seed=3)

    @staticmethod
    def columns(model, width) -> list:
        """Each CNN stage's im2col column count, (oh*ow) * (c*k*k), for a
        32-pixel line `width` pixels wide."""
        from retline.model import _CNN_KERNEL, _CNN_PAD, _CNN_STRIDES

        (h, w), c, out = (32, width), 1, []
        for (sh, sw), c_out in zip(_CNN_STRIDES, model.config.cnn_channels):
            h = (h + 2 * _CNN_PAD - _CNN_KERNEL) // sh + 1
            w = (w + 2 * _CNN_PAD - _CNN_KERNEL) // sw + 1
            out.append(h * w * c * _CNN_KERNEL ** 2)
            c = c_out
        return out

    @staticmethod
    def loss(model, width):
        """The CNN and image projection under a seeded upstream gradient."""
        rng = np.random.default_rng(width)
        tokens = model.embed_image(Tensor(rng.random((1, 32, width))))
        return sum_all(mul(tokens, Tensor(rng.standard_normal(tokens.shape))))

    @staticmethod
    def grads(model) -> bytes:
        out = b"".join(p.grad.tobytes() for p in model.params.values()
                       if p.grad is not None)
        for p in model.params.values():
            p.grad = None
        return out

    def alone(self, model, width) -> bytes:
        with Tape():
            backward(self.loss(model, width))
        return self.grads(model)

    @staticmethod
    def in_thread(fn):
        """fn() in a new thread, whose workspace starts empty."""
        import threading

        result = []
        thread = threading.Thread(target=lambda: result.append(fn()))
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive() and result
        return result[0]

    def test_two_tapes_recorded_before_either_backward(self):
        model = self.embedder()
        expected = [self.alone(model, w) for w in (100, 388)]
        first, second = Tape(), Tape()
        with first:
            loss_first = self.loss(model, 100)
        with second:
            loss_second = self.loss(model, 388)
        with second:
            backward(loss_second)
        got_second = self.grads(model)
        with first:
            backward(loss_first)
        assert [self.grads(model), got_second] == expected

    def test_no_tape_embed_between_forward_and_backward(self):
        model = self.embedder()
        image = Tensor(np.random.default_rng(6).random((1, 32, 244)))
        with no_tape():
            tokens = model.embed_image(image).data
        expected = self.alone(model, 172)
        with Tape():
            loss = self.loss(model, 172)
            with no_tape():
                between = model.embed_image(image).data
            backward(loss)
        assert self.grads(model) == expected
        assert between.tobytes() == tokens.tobytes()

    def test_repeated_backward_after_another_sample(self):
        model = self.embedder()
        tape = Tape()
        with tape:
            loss = self.loss(model, 316)
            backward(loss)
        first = self.grads(model)
        self.alone(model, 148)
        with tape:
            backward(loss)
        assert self.grads(model) == first

    def test_pool_bounded_by_the_most_ever_live(self, monkeypatch):
        from retline import tensor as tensor_module

        # track the arrays handed out: how many are alive, and their sizes
        live, most, taken = set(), [0], []
        take = tensor_module._Workspace.take

        def tracked(ws, n):
            arr = take(ws, n)
            live.add(id(arr))
            weakref.finalize(arr, live.discard, id(arr))
            most[0] = max(most[0], len(live))
            taken.append(n)
            return arr

        monkeypatch.setattr(tensor_module._Workspace, "take", tracked)
        model = self.embedder()

        def run(widths):
            for width in widths:
                self.alone(model, width)
                with no_tape():
                    model.embed_image(Tensor(np.zeros((1, 32, width))))
            return [slot[0].size for slot in tensor_module._workspace().slots]

        # what one training sample of the widest line takes, buffer by buffer
        self.in_thread(lambda: self.alone(model, max(self.TOY_WIDTHS)))
        widest = sum(taken)
        columns = self.columns(model, max(self.TOY_WIDTHS))
        shuffled = list(self.TOY_WIDTHS)
        np.random.default_rng(7).shuffle(shuffled)
        for widths in (self.TOY_WIDTHS, shuffled):
            most[0] = 0
            sizes = self.in_thread(lambda: run(widths))
            assert len(sizes) <= most[0] == 5
            assert sum(sizes) <= widest
            # the backward's column gradient is made one kernel offset at a
            # time, so no buffer outgrows the widest stage's columns, and the
            # pool holds less than the widest line's columns plus one full
            # (oh*ow, c*k*k) column gradient (a pool that kept one held more)
            assert max(sizes) <= max(columns)
            assert sum(sizes) < sum(columns) + max(columns)
            # a second pass over the same lines takes no new memory
            assert self.in_thread(lambda: run(widths + widths)) == sizes

    def test_a_view_keeps_its_buffer_from_reuse(self):
        from retline import tensor as tensor_module

        def check():
            ws = tensor_module._workspace()
            arr = ws.take(1000)
            view = arr.reshape(10, 100)[2:5, 3:]
            del arr
            other = ws.take(1000)
            assert not np.shares_memory(view, other)
            del view, other
            return len(ws.slots)

        assert self.in_thread(check) == 2

    def test_threads_never_share_a_held_buffer(self):
        import threading

        from retline import tensor as tensor_module

        model = self.embedder()
        expected = self.alone(model, 364)
        recorded, done, seen = threading.Event(), threading.Event(), {}

        def holder():
            with Tape():
                loss = self.loss(model, 364)
                seen["holder"] = [s[0] for s in tensor_module._workspace().slots]
                recorded.set()
                done.wait(timeout=60)
                backward(loss)

        def other():
            recorded.wait(timeout=60)
            other_model = self.embedder()
            self.alone(other_model, 364)
            seen["other"] = [s[0] for s in tensor_module._workspace().slots]
            done.set()

        threads = [threading.Thread(target=f) for f in (holder, other)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        assert self.grads(model) == expected
        assert seen["holder"] and seen["other"]
        assert not any(np.shares_memory(a, b) for a in seen["holder"]
                       for b in seen["other"])
