import numpy as np
import pytest

from attention_mamba.tensor_core import (
    MacCounter,
    ShapeError,
    Tensor,
    affine,
    backward,
    concatenate,
    conv1d_depthwise_causal,
    count_macs,
    fuse_pool,
    gradients,
    matmul,
    pool_window_bounds,
    reverse,
    slice_axis,
    softmax_last,
)
from helpers import gradcheck, rel_error

RNG = np.random.default_rng(7)


def rand(*shape, lo=-2.0, hi=2.0):
    return RNG.uniform(lo, hi, size=shape)


class TestMatmul:
    def test_identity(self):
        eye = np.eye(2)
        out = matmul(Tensor(eye), Tensor(eye))
        np.testing.assert_array_equal(out.data, eye)

    def test_hand_arithmetic(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        np.testing.assert_array_equal(matmul(a, b).data, [[3.0], [7.0]])

    def test_gradient_vs_finite_differences(self):
        gradcheck(matmul, [rand(3, 4), rand(4, 2)])

    def test_batched_with_broadcast(self):
        gradcheck(matmul, [rand(3, 2, 4), rand(1, 4, 2)])
        gradcheck(matmul, [rand(1, 2, 4), rand(3, 4, 2)])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError) as exc:
            matmul(Tensor(rand(2, 3)), Tensor(rand(2, 3)))
        assert "(2, 3)" in str(exc.value)

    def test_batch_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(rand(2, 3, 4)), Tensor(rand(3, 4, 2)))


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(rand(3, 4, 2), requires_grad=True)
        backward(x.sum())
        np.testing.assert_array_equal(x.grad, np.ones((3, 4, 2)))

    def test_half_square_gives_x(self):
        data = rand(5, 3)
        x = Tensor(data, requires_grad=True)
        backward((x * x).sum() * 0.5)
        np.testing.assert_allclose(x.grad, data, rtol=1e-12)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(rand(3), requires_grad=True)
        with pytest.raises(ShapeError):
            backward(x * 2.0)

    def test_linearity(self):
        data = rand(4, 3)

        def f(x):
            return (x * x).sum()

        def g(x):
            return x.exp().sum()

        a, b = 1.7, -0.4
        x1 = Tensor(data, requires_grad=True)
        backward(f(x1) * a + g(x1) * b)
        x2 = Tensor(data, requires_grad=True)
        backward(f(x2))
        gf = x2.grad.copy()
        x3 = Tensor(data, requires_grad=True)
        backward(g(x3))
        gg = x3.grad.copy()
        np.testing.assert_allclose(x1.grad, a * gf + b * gg, rtol=1e-12)

    def test_shared_subexpression_accumulates_once_per_use(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * 2.0
        backward((y * y).sum())
        np.testing.assert_allclose(x.grad, [24.0])

    @pytest.mark.parametrize("add_first", [True, False])
    def test_gradient_shared_by_two_inputs_is_not_aliased(self, add_first):
        # the add hands the same upstream array to x and y; x's later
        # gradient must not leak into y's
        x = Tensor(np.arange(3.0), requires_grad=True)
        y = Tensor(np.ones(3), requires_grad=True)
        terms = [(x + y).sum(), (x * 3.0).sum()]
        backward(terms[0] + terms[1] if add_first else terms[1] + terms[0])
        np.testing.assert_array_equal(x.grad, np.full(3, 4.0))
        np.testing.assert_array_equal(y.grad, np.ones(3))

    def test_unreachable_parameter_gets_zero_gradient(self):
        x = Tensor(rand(2), requires_grad=True)
        unused = Tensor(rand(3), requires_grad=True)
        grads = gradients(x.sum(), [x, unused])
        np.testing.assert_array_equal(grads[1], np.zeros(3))


def avg_half(a):
    """fuse_pool with every block's maximum pinned to a constant 3 that a
    never reaches, so only the average half's gradient flows into a."""
    keep = np.ones(a.data.shape[-1])
    keep[3::4] = 0.0
    return fuse_pool(a * Tensor(keep) + Tensor(3.0 * (1.0 - keep)))


def max_half(a):
    """fuse_pool(a) + fuse_pool(-a): the average halves cancel, leaving each
    block's max minus its min, so only the max routing reaches a."""
    return fuse_pool(a) + fuse_pool(-a)


# Every differentiable primitive, checked against central finite differences
# at 64-bit on random inputs in [-2, 2] (positive inputs where required).
PRIMITIVE_CASES = [
    ("add", lambda a, b: a + b, lambda: [rand(3, 4), rand(3, 4)]),
    ("add_broadcast", lambda a, b: a + b, lambda: [rand(3, 4), rand(1, 4)]),
    ("sub", lambda a, b: a - b, lambda: [rand(3, 4), rand(3, 4)]),
    ("mul", lambda a, b: a * b, lambda: [rand(3, 4), rand(3, 4)]),
    ("mul_broadcast", lambda a, b: a * b, lambda: [rand(2, 3, 1), rand(2, 1, 5)]),
    ("div", lambda a, b: a / b, lambda: [rand(3, 4), rand(3, 4, lo=0.5, hi=2.0)]),
    ("neg", lambda a: -a, lambda: [rand(3, 4)]),
    ("scalar_ops", lambda a: a * 1.5 + 0.25, lambda: [rand(3, 4)]),
    ("matmul", matmul, lambda: [rand(2, 3, 4), rand(2, 4, 5)]),
    ("transpose_last2", lambda a: a.transpose_last2(), lambda: [rand(2, 3, 4)]),
    ("reshape", lambda a: a.reshape(6, 2), lambda: [rand(3, 4)]),
    ("concatenate", lambda a, b: concatenate([a, b], axis=1), lambda: [rand(2, 3), rand(2, 2)]),
    ("slice", lambda a: slice_axis(a, 1, 1, 3), lambda: [rand(2, 5)]),
    ("reverse", lambda a: reverse(a, 1), lambda: [rand(2, 5)]),
    ("sum_all", lambda a: a.sum() * Tensor(1.0), lambda: [rand(3, 4)]),
    ("sum_axis", lambda a: a.sum(axis=1), lambda: [rand(3, 4, 2)]),
    ("sum_keepdims", lambda a: a.sum(axis=-1, keepdims=True), lambda: [rand(3, 4)]),
    ("mean_all", lambda a: a.mean() * Tensor(1.0), lambda: [rand(3, 4)]),
    ("mean_axis", lambda a: a.mean(axis=1, keepdims=True), lambda: [rand(3, 4, 2)]),
    ("exp", lambda a: a.exp(), lambda: [rand(3, 4)]),
    ("sqrt", lambda a: a.sqrt(), lambda: [rand(3, 4, lo=0.5, hi=2.0)]),
    ("silu", lambda a: a.silu(), lambda: [rand(3, 4)]),
    ("gelu", lambda a: a.gelu(), lambda: [rand(3, 4)]),
    ("softplus", lambda a: a.softplus(), lambda: [rand(3, 4)]),
    ("softmax_last", softmax_last, lambda: [rand(3, 5)]),
    ("affine", affine, lambda: [rand(2, 3, 4), rand(4, 3), rand(3)]),
    ("conv1d_causal", conv1d_depthwise_causal, lambda: [rand(2, 6, 3), rand(3, 3), rand(3)]),
    ("adaptive_avg_pool", avg_half, lambda: [rand(2, 7, 12)]),             # 7 rows to 3 windows
    ("adaptive_max_pool", max_half, lambda: [rand(2, 7, 12)]),
    ("adaptive_avg_pool_upsample", avg_half, lambda: [rand(2, 5, 32)]),    # 5 rows to 8 windows
    ("adaptive_max_pool_upsample", max_half, lambda: [rand(2, 5, 32)]),
    ("fuse_pool", fuse_pool, lambda: [rand(2, 9, 12)]),            # 9 rows to 3 windows
    ("fuse_pool_upsample", fuse_pool, lambda: [rand(2, 3, 20)]),   # 3 rows to 5 windows
]


@pytest.mark.parametrize("name,op,make", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_gradients(name, op, make):
    gradcheck(op, make(), tol=1e-6)


@pytest.mark.parametrize("name,op,make", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitives_finite_on_finite_inputs(name, op, make):
    out = op(*[Tensor(a) for a in make()])
    assert np.all(np.isfinite(out.data))


class TestReductionsAndRouting:
    def test_max_pool_tie_routes_to_first(self):
        # one 1x4 block: the average spreads 1/4, the max goes to the first 2
        x = Tensor(np.array([[[2.0, 2.0, 1.0, 1.0]]]), requires_grad=True)
        backward(fuse_pool(x).sum())
        np.testing.assert_array_equal(x.grad, [[[1.25, 0.25, 0.25, 0.25]]])
        # one 2x4 block, maxima at (row 0, col 2) and (row 1, col 1): columns
        # are the outer axis, so the lower column wins
        x = Tensor(np.array([[[0.0, 0.0, 2.0, 0.0], [0.0, 2.0, 0.0, 0.0]]]), requires_grad=True)
        backward(fuse_pool(x).sum())
        expected = np.full((1, 2, 4), 0.125)
        expected[0, 1, 1] += 1.0
        np.testing.assert_array_equal(x.grad, expected)


class TestCausalConv:
    def test_slides_along_token_axis(self):
        # x is [B, N, C]: channel 0 takes the previous token, channel 1 the current one
        x = Tensor(np.array([[[1.0, 10.0], [2.0, 20.0], [3.0, 30.0], [4.0, 40.0]]]))
        weight = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        out = conv1d_depthwise_causal(x, weight, Tensor(np.array([0.5, 0.0])))
        np.testing.assert_array_equal(out.data, [[[0.5, 10.0], [1.5, 20.0], [2.5, 30.0], [3.5, 40.0]]])

    def test_channel_major_input_rejected(self):
        # 3 channels and 5 tokens, laid out channel-major [B, C, N]
        with pytest.raises(ShapeError, match="channel mismatch"):
            conv1d_depthwise_causal(Tensor(np.ones((2, 3, 5))), Tensor(np.ones((3, 2))),
                                    Tensor(np.ones(3)))


class TestInvariants:
    def test_reverse_is_involution_exact(self):
        x = rand(3, 5, 2)
        out = reverse(reverse(Tensor(x), 1), 1)
        np.testing.assert_array_equal(out.data, x)

    def test_softmax_rows_nonnegative_sum_to_one(self):
        s = softmax_last(Tensor(rand(4, 6, lo=-30, hi=30))).data
        assert np.all(s >= 0)
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-6)

    def test_element_count_matches_shape(self):
        x = Tensor(rand(3, 4, 5))
        assert x.data.size == 3 * 4 * 5

    def test_float32_ops_stay_float32(self):
        x = Tensor(rand(3, 4).astype(np.float32))
        w = Tensor(rand(4, 2).astype(np.float32))
        b = Tensor(rand(2).astype(np.float32))
        for out in (x * 2.0 + 1.0, x.gelu(), x.silu(), x.softplus(), softmax_last(x), affine(x, w, b)):
            assert out.data.dtype == np.float32


class TestPoolWindows:
    def test_spec_windows_7_to_3(self):
        assert pool_window_bounds(7, 3) == [(0, 3), (2, 5), (4, 7)]

    def test_identity_when_sizes_match(self):
        # N = E/4 rows pool to themselves; equal columns in each group of 4
        # make both the average and the max that column's value
        x = RNG.integers(-8, 8, (2, 6, 6)).astype(np.float64)
        out = fuse_pool(Tensor(np.repeat(x, 4, axis=2)))
        np.testing.assert_array_equal(out.data, 2.0 * x)

    def test_hand_example(self):
        # two rows to two windows, columns in groups of 4: mean + max per group
        x = Tensor(np.arange(16.0).reshape(1, 2, 8))
        np.testing.assert_array_equal(fuse_pool(x).data, [[[1.5 + 3.0, 5.5 + 7.0], [9.5 + 11.0, 13.5 + 15.0]]])

    def test_upsampling_windows_cover_input(self):
        bounds = pool_window_bounds(7, 8)
        assert all(e > s for s, e in bounds)
        assert bounds[0][0] == 0 and bounds[-1][1] == 7


class TestMacCounter:
    def test_matmul_count(self):
        with count_macs() as c:
            matmul(Tensor(rand(3, 2, 4)), Tensor(rand(3, 4, 5)))
        assert c.total == 3 * 2 * 4 * 5

    def test_affine_and_conv_counts(self):
        with count_macs() as c:
            affine(Tensor(rand(2, 3, 4)), Tensor(rand(4, 6)), Tensor(rand(6)))
        assert c.total == 2 * 3 * 4 * 6
        with count_macs() as c:
            conv1d_depthwise_causal(Tensor(rand(2, 5, 3)), Tensor(rand(3, 2)), Tensor(rand(3)))
        assert c.total == 2 * 3 * 5 * 2

    def test_counters_nest(self):
        with count_macs() as outer:
            matmul(Tensor(rand(2, 2)), Tensor(rand(2, 2)))
            with count_macs() as inner:
                matmul(Tensor(rand(2, 2)), Tensor(rand(2, 2)))
        assert inner.total == 8
        assert outer.total == 16

    def test_inactive_by_default(self):
        out = matmul(Tensor(rand(2, 2)), Tensor(rand(2, 2)))
        assert out.data.shape == (2, 2)


class TestDeterminism:
    def test_repeated_backward_is_bit_identical(self):
        data = rand(4, 4)

        def run():
            x = Tensor(data, requires_grad=True)
            y = softmax_last(matmul(x, x).gelu()).sum()
            backward(y)
            return x.grad

        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)
