import itertools
import warnings
import weakref

import numpy as np
import pytest
from scipy.special import erf, expit

from attention_mamba import tensor_core
from attention_mamba.tensor_core import (
    GraphConsumedError,
    MacCounter,
    ShapeError,
    Tensor,
    affine,
    backward,
    conv1d_depthwise_causal,
    count_macs,
    fuse_pool,
    gradients,
    matmul,
    no_grad,
    pool_window_bounds,
    selective_scan,
    silu_gate,
    softmax_last,
    _erf,
    _row_windows,
    _sigmoid,
)
from helpers import concatenate, conv1d_per_tap, exp, gradcheck, kept_bytes, neg, rel_error, softplus

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

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError) as exc:
            matmul(Tensor(rand(2, 3)), Tensor(rand(2, 3)))
        assert "(2, 3)" in str(exc.value)

    def test_batch_mismatch_rejected(self):
        # batch extents must be equal: none broadcasts, from 1 or from none
        for a, b in [((2, 3, 4), (3, 4, 2)), ((3, 2, 4), (1, 4, 2)), ((1, 2, 4), (3, 4, 2)),
                     ((2, 3, 4), (4, 2))]:
            with pytest.raises(ShapeError, match="batch extents disagree"):
                matmul(Tensor(rand(*a)), Tensor(rand(*b)))


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
            return exp(x).sum()

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

    @pytest.mark.parametrize("constant", [np.float32(2.0), np.full(3, 2.0), 2.0, 2],
                             ids=["numpy_scalar", "numpy_array", "float", "int"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_constant_operands_take_the_tensor_dtype(self, constant, dtype):
        x = Tensor(np.ones(3, dtype), requires_grad=True)
        for out in (x + constant, x - constant, x * constant, x / constant):
            assert out.data.dtype == dtype
        backward((x * constant).sum())
        assert x.grad.dtype == dtype
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))

    def test_gradients_on_two_graphs_of_one_loss_agree(self):
        # one sweep per graph: the loss is built again for the second sweep
        x = Tensor(np.ones(3), requires_grad=True)
        for _ in range(2):
            np.testing.assert_array_equal(gradients((x * x).sum(), [x])[0], [2.0, 2.0, 2.0])

    @pytest.mark.parametrize("sweep", [backward, lambda loss: gradients(loss, [])],
                             ids=["backward", "gradients"])
    def test_second_sweep_over_one_graph_raises(self, sweep):
        x = Tensor(rand(4, 3), requires_grad=True)
        w = Tensor(rand(3, 2), requires_grad=True)
        hidden = matmul(x, w).gelu()
        sweep((hidden * hidden).sum())
        first = x.grad.copy()
        with pytest.raises(GraphConsumedError, match="one sweep per graph"):
            sweep(hidden.sum())               # reaches the swept nodes under `hidden`
        with pytest.raises(GraphConsumedError, match="one sweep per graph"):
            sweep((hidden * hidden).sum())
        # the refused sweeps changed no gradient
        assert x.grad.tobytes() == first.tobytes()

    def test_interior_nodes_release_their_gradients(self):
        # each node is walked before the sweep, which then leaves it without
        # gradient, closure or parent links; only the leaves keep a gradient
        x = Tensor(rand(4, 3), requires_grad=True)
        w = Tensor(rand(3, 2), requires_grad=True)
        loss = softmax_last(matmul(x, w).gelu()).sum() * 0.5
        seen, stack, interior = set(), [loss._node], []
        while stack:
            node = stack.pop()
            if node is not None and id(node) not in seen and node._prev:
                seen.add(id(node))
                interior.append(node)
                stack.extend(node._prev)
        gradients(loss, [x, w])
        assert len(interior) == 5
        assert all(node.grad is None and node._backward is None and node._prev == ()
                   for node in interior)
        assert x.grad is not None and w.grad is not None

    def test_an_output_no_backward_reads_dies_with_its_frame(self):
        # the add and the sum read nothing, so the product's array is held
        # by the name alone, not by the graph
        x = Tensor(rand(4, 3), requires_grad=True)
        product = x * Tensor(rand(4, 3))
        loss = (product + 1.0).sum()
        array = weakref.ref(product.data)
        del product
        assert array() is None
        backward(loss)
        assert x.grad is not None

    def test_unreachable_parameter_gets_zero_gradient(self):
        x = Tensor(rand(2), requires_grad=True)
        unused = Tensor(rand(3), requires_grad=True)
        grads = gradients(x.sum(), [x, unused])
        np.testing.assert_array_equal(grads[1], np.zeros(3))

    def test_loss_that_reaches_no_leaf_gives_zero_gradients(self):
        p = Tensor(rand(2), requires_grad=True)
        with no_grad():
            untaped = (p * p).sum()
        for loss in ((Tensor(rand(3)) * 2.0).sum(), untaped):
            assert loss._graph_node() is None
            np.testing.assert_array_equal(gradients(loss, [p])[0], np.zeros(2))
            assert p.grad is None


def avg_half(a):
    """fuse_pool with every block's maximum pinned to a constant 3 that a
    never reaches, so only the average half's gradient flows into a."""
    keep = np.ones(a.data.shape[-1])
    keep[3::4] = 0.0
    return fuse_pool(a * Tensor(keep) + Tensor(3.0 * (1.0 - keep)))


def max_half(a):
    """fuse_pool(a) + fuse_pool(neg(a)): the average halves cancel, leaving each
    block's max minus its min, so only the max routing reaches a."""
    return fuse_pool(a) + fuse_pool(neg(a))


# Every differentiable primitive, checked against central finite differences
# at 64-bit on random inputs in [-2, 2] (positive inputs where required).
PRIMITIVE_CASES = [
    ("add", lambda a, b: a + b, lambda: [rand(3, 4), rand(3, 4)]),
    ("add_broadcast", lambda a, b: a + b, lambda: [rand(3, 4), rand(1, 4)]),
    ("sub", lambda a, b: a - b, lambda: [rand(3, 4), rand(3, 4)]),
    ("mul", lambda a, b: a * b, lambda: [rand(3, 4), rand(3, 4)]),
    ("mul_broadcast", lambda a, b: a * b, lambda: [rand(2, 3, 1), rand(2, 1, 5)]),
    ("div", lambda a, b: a / b, lambda: [rand(3, 4), rand(3, 4, lo=0.5, hi=2.0)]),
    ("neg", neg, lambda: [rand(3, 4)]),
    ("scalar_ops", lambda a: a * 1.5 + 0.25, lambda: [rand(3, 4)]),
    ("matmul", matmul, lambda: [rand(2, 3, 4), rand(2, 4, 5)]),
    ("transpose_last2", lambda a: a.transpose_last2(), lambda: [rand(2, 3, 4)]),
    ("concatenate", lambda a, b: concatenate([a, b], axis=1), lambda: [rand(2, 3), rand(2, 2)]),
    ("slice", lambda a: a[:, 1:3], lambda: [rand(2, 5)]),
    ("reverse", lambda a: a[:, ::-1], lambda: [rand(2, 5)]),
    ("slice_ellipsis", lambda a: a[..., 1:3], lambda: [rand(2, 3, 5)]),
    ("sum_all", lambda a: a.sum() * Tensor(1.0), lambda: [rand(3, 4)]),
    ("mean_all", lambda a: a.mean() * Tensor(1.0), lambda: [rand(3, 4)]),
    ("mean_axis", lambda a: a.mean(axis=1), lambda: [rand(3, 4, 2)]),
    ("exp", exp, lambda: [rand(3, 4)]),
    ("sqrt", lambda a: a.sqrt(), lambda: [rand(3, 4, lo=0.5, hi=2.0)]),
    ("silu", lambda a: a.silu(), lambda: [rand(3, 4)]),
    ("silu_gate", silu_gate, lambda: [rand(3, 4), rand(3, 4)]),
    ("gelu", lambda a: a.gelu(), lambda: [rand(3, 4)]),
    ("softplus", softplus, lambda: [rand(3, 4)]),
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


@pytest.mark.parametrize("name,op,make", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitives_record_no_tape_under_no_grad(name, op, make):
    leaves = [Tensor(a, requires_grad=True) for a in make()]
    with no_grad():
        out = op(*leaves)
    assert not out.requires_grad and out._node is None
    np.testing.assert_array_equal(out.data, op(*leaves).data)


@pytest.mark.parametrize("name,op,make", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitives_record_no_tape_on_constants(name, op, make):
    out = op(*[Tensor(a) for a in make()])
    assert not out.requires_grad and out._node is None


# Every op with more than one input, a broadcast operand where the op
# broadcasts: the cases of the one gradient rule, that ``_acc`` alone
# decides which input gets a gradient.
MULTI_INPUT_CASES = [
    ("add", lambda a, b: a + b, lambda: [rand(3, 4), rand(1, 4)]),
    ("sub", lambda a, b: a - b, lambda: [rand(2, 1, 4), rand(3, 1)]),
    ("mul", lambda a, b: a * b, lambda: [rand(2, 3, 1), rand(2, 1, 5)]),
    ("div", lambda a, b: a / b, lambda: [rand(3, 4), rand(4, lo=0.5, hi=2.0)]),
    ("matmul", matmul, lambda: [rand(2, 3, 4), rand(2, 4, 5)]),
    ("silu_gate", silu_gate, lambda: [rand(2, 3, 1), rand(2, 1, 5)]),
    ("affine", affine, lambda: [rand(2, 3, 4), rand(4, 3), rand(3)]),
    ("conv1d_causal", conv1d_depthwise_causal, lambda: [rand(2, 6, 3), rand(3, 3), rand(3)]),
    ("selective_scan", selective_scan,
     lambda: [rand(1, 4, 3), rand(1, 4, 3), rand(3, 2), rand(1, 4, 2), rand(1, 4, 2), rand(3)]),
]


@pytest.mark.parametrize("name,op,make", MULTI_INPUT_CASES, ids=[c[0] for c in MULTI_INPUT_CASES])
def test_constant_inputs_get_no_gradient_and_change_no_other(name, op, make):
    arrays = make()
    probe = Tensor(RNG.standard_normal(op(*map(Tensor, arrays)).data.shape))
    def grads(constant):
        leaves = [Tensor(a, requires_grad=i not in constant) for i, a in enumerate(arrays)]
        backward((op(*leaves) * probe).sum())
        return [leaf.grad for leaf in leaves]
    every = grads(())
    for size in range(1, len(arrays)):
        for constant in itertools.combinations(range(len(arrays)), size):
            for i, got in enumerate(grads(constant)):
                if i in constant:
                    assert got is None, f"constant input {i} of {constant} received a gradient"
                else:
                    assert np.array_equal(got, every[i]), f"input {i}, constants {constant}"


class TestNoGrad:
    def test_scan_records_no_tape(self):
        # u, dt [B=2, N=5, C=3], A_log [C, S=4], B/C [B, N, S], D [C]
        arrays = [rand(2, 5, 3), rand(2, 5, 3), rand(3, 4), rand(2, 5, 4), rand(2, 5, 4), rand(3)]
        with no_grad():
            out = selective_scan(*[Tensor(a, requires_grad=True) for a in arrays])
        assert not out.requires_grad and out._node is None

    def test_nests_and_restores_after_an_error(self):
        x = Tensor(rand(3), requires_grad=True)
        with no_grad():
            with no_grad():
                assert not (x * x).requires_grad
            assert not (x * x).requires_grad
        assert (x * x).requires_grad
        with pytest.raises(ShapeError):
            with no_grad():
                matmul(x, x)
        assert (x * x).requires_grad

    def test_gradients_work_after_the_block(self):
        x = Tensor(rand(3, 4), requires_grad=True)
        with no_grad():
            (x * x).sum()
        (g,) = gradients((x * x).sum(), [x])
        np.testing.assert_array_equal(g, 2.0 * x.data)


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

    def test_row_windows_are_cached_read_only_maps(self):
        # E/4 = 32 windows over N < E/4 (overlapping), N = E/4 and N > E/4 rows
        dtype = np.dtype(np.float32)
        for n_rows in (7, 32, 321):
            average, padded = _row_windows(n_rows, 32, dtype)
            again = _row_windows(n_rows, 32, dtype)
            assert again[0] is average and again[1] is padded
            assert not average.flags.writeable and not padded.flags.writeable
            assert average.shape == (32, n_rows) and average.dtype == dtype
            for i, (start, stop) in enumerate(pool_window_bounds(n_rows, 32)):
                np.testing.assert_array_equal(np.flatnonzero(average[i]), np.arange(start, stop))
                np.testing.assert_array_equal(np.unique(padded[i]), np.arange(start, stop))


class TestCausalConv:
    def test_slides_along_token_axis(self):
        # x is [B, N, C]: channel 0 takes the previous token, channel 1 the current one
        x = Tensor(np.array([[[1.0, 10.0], [2.0, 20.0], [3.0, 30.0], [4.0, 40.0]]]))
        weight = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        out = conv1d_depthwise_causal(x, weight, Tensor(np.array([0.5, 0.0])))
        np.testing.assert_array_equal(out.data, [[[0.5, 10.0], [1.5, 20.0], [2.5, 30.0], [3.5, 40.0]]])

    @pytest.mark.parametrize("width", [1, 4, 9])
    def test_windowed_matches_per_tap_loop(self, width):
        # kernel width 1, narrower than the 9 tokens, and as wide as them
        rng = np.random.default_rng(width)
        arrays = [rng.standard_normal((3, 9, 5)), rng.standard_normal((5, width)),
                  rng.standard_normal(5)]
        probe = Tensor(rng.standard_normal((3, 9, 5)))
        results = []
        for conv in (conv1d_depthwise_causal, conv1d_per_tap):
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            out = conv(*leaves)
            results.append([out.data] + gradients((out * probe).sum(), leaves))
        for name, got, want in zip(("output", "x", "weight", "bias"), *results):
            assert rel_error(got, want) <= 1e-12, name

    def test_channel_major_input_rejected(self):
        # 3 channels and 5 tokens, laid out channel-major [B, C, N]
        with pytest.raises(ShapeError, match="channel mismatch"):
            conv1d_depthwise_causal(Tensor(np.ones((2, 3, 5))), Tensor(np.ones((3, 2))),
                                    Tensor(np.ones(3)))


class TestWhatANodeKeeps:
    def test_silu_keeps_no_sigmoid(self):
        x = Tensor(rand(64, 1024), requires_grad=True)
        assert x.silu().requires_grad
        kept = kept_bytes(x.silu)
        # the output, and no second x-sized array for the sigmoid
        assert kept < 1.5 * x.data.nbytes, f"{kept} bytes kept for a {x.data.nbytes}-byte input"

    def test_silu_gate_keeps_no_silu_output(self):
        x, z = (Tensor(rand(64, 1024), requires_grad=True) for _ in range(2))
        assert silu_gate(x, z).requires_grad
        kept = kept_bytes(lambda: silu_gate(x, z))
        # the output, and no second x-sized array for silu(z)
        assert kept < 1.5 * x.data.nbytes, f"{kept} bytes kept for a {x.data.nbytes}-byte input"

    def test_conv_keeps_no_padded_copy(self):
        x, weight, bias = (Tensor(a, requires_grad=True)
                           for a in (rand(2, 64, 256), rand(256, 4), rand(256)))
        assert conv1d_depthwise_causal(x, weight, bias).requires_grad
        kept = kept_bytes(lambda: conv1d_depthwise_causal(x, weight, bias))
        # the output and the [K, C] taps; the padded x would be [2, 67, 256]
        limit = x.data.nbytes + weight.data.nbytes + x.data.nbytes // 2
        assert kept < limit, f"{kept} bytes kept, limit {limit}"


def scattered(shape, index, g):
    """The gradient of a slice as a full-size array, zero outside `index`."""
    out = np.zeros(shape)
    out[index] = g
    return out


class TestIndex:
    def test_two_slices_of_one_parent_add_as_scattered_gradients(self):
        # overlapping slices [0, 4) and [2, 7) of axis 1
        x = Tensor(rand(3, 7, 5), requires_grad=True)
        w1, w2 = rand(3, 4, 5), rand(3, 5, 5)
        backward((x[:, 0:4] * Tensor(w1)).sum() + (x[:, 2:7] * Tensor(w2)).sum())
        expected = (scattered(x.data.shape, np.s_[:, 0:4], w1)
                    + scattered(x.data.shape, np.s_[:, 2:7], w2))
        assert x.grad.tobytes() == expected.tobytes()

    def test_slice_adds_into_a_held_gradient(self):
        x = Tensor(rand(3, 7, 5), requires_grad=True)
        held = rand(3, 7, 5)
        held[:, 0, :2] = -0.0             # outside the slice [2, 6)
        held[:, 3, :2] = -0.0             # inside it
        x.grad = held.copy()
        w = rand(3, 4, 5)
        backward((x[:, 2:6] * Tensor(w)).sum())
        expected = held + scattered(x.data.shape, np.s_[:, 2:6], w)
        # bit for bit as scatter-into-zeros plus add, but for the sign of a
        # zero outside the slice: there the held -0.0 stays -0.0, where
        # adding the scattered +0.0 gave +0.0
        outside_neg_zero = np.zeros(x.data.shape, bool)
        outside_neg_zero[:, 0, :2] = True
        assert np.signbit(x.grad[outside_neg_zero]).all()
        assert not np.signbit(expected[outside_neg_zero]).any()
        expected[outside_neg_zero] = -0.0
        assert x.grad.tobytes() == expected.tobytes()

    def test_gradient_keeps_parent_dtype(self):
        x = Tensor(rand(2, 6).astype(np.float32), requires_grad=True)
        backward(x[:, 1:3].sum())
        assert x.grad.dtype == np.float32
        np.testing.assert_array_equal(x.grad, scattered((2, 6), np.s_[:, 1:3], 1.0))

    @pytest.mark.parametrize("index", [np.s_[:, 1:3], np.s_[:, ::-1]], ids=["slice", "flip"])
    def test_output_is_a_view_of_the_input(self, index):
        x = Tensor(rand(2, 5), requires_grad=True)
        out = x[index]
        assert np.shares_memory(out.data, x.data)
        np.testing.assert_array_equal(out.data, x.data[index])

    @pytest.mark.parametrize("index", [1, np.s_[:, 0], [0, 0], np.array([0, 0]), True,
                                       np.array([True, False]), np.s_[None, :]],
                             ids=["int", "int_in_tuple", "list", "array", "bool", "mask", "newaxis"])
    def test_other_indices_raise_and_record_no_node(self, index, monkeypatch):
        made = []
        monkeypatch.setattr(tensor_core, "_Node", lambda *args: made.append(args))
        x = Tensor(rand(2, 5), requires_grad=True)
        with pytest.raises(TypeError, match="only slices and"):
            x[index]
        assert made == []


class TestInvariants:
    def test_reverse_is_involution_exact(self):
        x = rand(3, 5, 2)
        out = Tensor(x)[:, ::-1][:, ::-1]
        np.testing.assert_array_equal(out.data, x)

    def test_softmax_rows_nonnegative_sum_to_one(self):
        s = softmax_last(Tensor(rand(4, 6, lo=-30, hi=30))).data
        assert np.all(s >= 0)
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-6)

    def test_saturated_softmax_gradient_has_no_subnormals(self):
        # logit ranges of ~100-200, as a trained pooled attention's scores
        rng = np.random.default_rng(0)
        x = Tensor(rng.uniform(-100, 100, (16, 32)).astype(np.float32), requires_grad=True)
        g = rng.uniform(-2, 2, (16, 32)).astype(np.float32)
        s = softmax_last(x)
        backward((s * Tensor(g)).sum())
        unflushed = s.data * (g - (g * s.data).sum(axis=-1, keepdims=True))
        tiny = np.finfo(np.float32).tiny
        normal = np.abs(unflushed) >= tiny
        assert np.any((unflushed != 0) & ~normal)    # the unflushed gradient holds subnormals
        assert x.grad.dtype == np.float32
        assert not np.any((x.grad != 0) & (np.abs(x.grad) < tiny))
        np.testing.assert_array_equal(x.grad[normal], unflushed[normal])
        assert not np.any(x.grad[~normal])

    def test_integer_data_becomes_float64(self):
        x = Tensor(np.arange(6, dtype=np.int32).reshape(2, 3))
        assert x.data.dtype == np.float64
        np.testing.assert_array_equal(x.data, [[0, 1, 2], [3, 4, 5]])

    def test_element_count_matches_shape(self):
        x = Tensor(rand(3, 4, 5))
        assert x.data.size == 3 * 4 * 5

    def test_repr_names_shape_dtype_and_requires_grad(self):
        x = Tensor(np.zeros((2, 3), np.float32), requires_grad=True)
        assert repr(x) == "Tensor(shape=(2, 3), dtype=float32, requires_grad=True)"

    def test_float32_ops_stay_float32(self):
        x = Tensor(rand(3, 4).astype(np.float32))
        w = Tensor(rand(4, 2).astype(np.float32))
        b = Tensor(rand(2).astype(np.float32))
        for out in (x * 2.0 + 1.0, x.gelu(), x.silu(), softmax_last(x), affine(x, w, b)):
            assert out.data.dtype == np.float32


def ulps(got, want, bits):
    return np.abs(got.view(bits).astype(np.int64) - want.view(bits).astype(np.int64))


class TestSigmoid:
    """The numpy sigmoid that silu and the scan's dt gradient use, against
    the scalar loop of scipy's expit, which computes the same formula."""

    @pytest.mark.parametrize("dtype,bits", [(np.float32, np.int32), (np.float64, np.int64)])
    def test_within_4_ulp_of_expit(self, dtype, bits):
        # past exp's float32 overflow edge at x ~ -88.7
        x = np.linspace(-120, 120, 480_001).astype(dtype)
        got = _sigmoid(x)
        assert got.dtype == dtype
        assert ulps(got, expit(x), bits).max() <= 4

    @pytest.mark.parametrize("dtype,edge", [(np.float32, 200.0), (np.float64, 800.0)])
    def test_exact_limits_nan_and_no_warning(self, dtype, edge):
        # exp(edge) overflows in dtype, so the limits are exact
        x = np.array([-edge, edge, -np.inf, np.inf, np.nan, 0.0], dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = _sigmoid(x)
        assert s.dtype == dtype
        np.testing.assert_array_equal(s, [0.0, 1.0, 0.0, 1.0, np.nan, 0.5])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_silu_forward_and_gradient_use_it(self, dtype):
        x = Tensor(rand(4, 6, lo=-30, hi=30).astype(dtype), requires_grad=True)
        s = _sigmoid(x.data)
        assert x.silu().data.tobytes() == (x.data * s).tobytes()
        backward(x.silu().sum())
        assert x.grad.tobytes() == (s * (1.0 + x.data * (1.0 - s))).tobytes()


class TestSiluGate:
    @pytest.mark.parametrize("shapes", [((4, 6), (4, 6)), ((2, 3, 1), (2, 1, 5))],
                             ids=["same_shape", "broadcast"])
    def test_float32_bits_of_x_times_silu_z(self, shapes):
        # output and both gradients byte-equal to the two-node form it replaces
        arrays = [rand(*shape, lo=-30, hi=30).astype(np.float32) for shape in shapes]
        results = []
        for gate in (silu_gate, lambda x, z: x * z.silu()):
            x, z = (Tensor(a, requires_grad=True) for a in arrays)
            out = gate(x, z)
            probe = Tensor(np.random.default_rng(3).standard_normal(out.data.shape).astype(np.float32))
            backward((out * probe).sum())
            results.append((out.data, x.grad, z.grad))
        for name, got, want in zip(("output", "x", "z"), *results):
            assert got.dtype == np.float32, name
            assert got.tobytes() == want.tobytes(), name


class TestErf:
    """The numpy erf that gelu uses, against scipy's, which evaluates the
    same Cephes forms in C. ``tests/erf_sweep.py`` compares every float32
    input in [0, 6]."""

    def test_float32_equals_scipy_on_a_bit_pattern_sample(self):
        # every 997th float32 in [0, 6], and its negative: both forms, the
        # switch between them at 1, and the tail where erf rounds to 1
        x = np.arange(0, np.float32(6.0).view(np.int32) + 1, 997, dtype=np.int32).view(np.float32)
        x = np.concatenate([x, -x])
        got = _erf(x)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got.view(np.int32), erf(x).view(np.int32))

    def test_special_points_equal_scipy(self):
        tiny = np.finfo(np.float32).smallest_subnormal
        edges = [np.nextafter(np.float32(v), np.float32(t)) for v in (1.0, 8.0) for t in (0.0, 9.0)]
        x = np.array([0.0, np.inf, np.nan, tiny, 8 * tiny, np.finfo(np.float32).tiny, 1.0, 8.0, *edges],
                     np.float32)
        x = np.concatenate([x, -x])
        got = _erf(x)
        np.testing.assert_array_equal(got.view(np.int32)[~np.isnan(x)],
                                      erf(x).view(np.int32)[~np.isnan(x)])
        assert np.isnan(got[np.isnan(x)]).all()
        half = len(x) // 2   # x[half:] is -x: -0.0, -inf, ...
        np.testing.assert_array_equal(got[[0, half, 1, half + 1]], [0.0, -0.0, 1.0, -1.0])
        np.testing.assert_array_equal(np.signbit(got[[0, half]]), [False, True])

    def test_float64_within_2_ulp_of_scipy(self):
        x = np.concatenate([rand(200_000, lo=-9.0, hi=9.0), RNG.standard_normal(100_000),
                            rand(1000, lo=0.99, hi=1.01), rand(1000, lo=7.99, hi=8.01),
                            [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1.0, -1.0, 8.0, np.inf, -np.inf]])
        got = _erf(x)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(np.signbit(got), np.signbit(x))
        assert ulps(got, erf(x), np.int64).max() <= 2

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_warning_on_any_input(self, dtype):
        x = np.array([np.nan, np.inf, -np.inf, 1e30, -1e-30, 0.0, 2.0], dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _erf(x)

    def test_gelu_forward_equals_the_scipy_formula_in_float32(self):
        x = rand(64, 40, lo=-10.0, hi=10.0).astype(np.float32)
        want = x * (0.5 * (1.0 + erf(x * np.float32(1.0 / np.sqrt(2.0)))))
        assert Tensor(x).gelu().data.tobytes() == want.tobytes()


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
        # u, dt [B=2, N=5, C=3], A_log [C, S=4]: a state update and a readout per state element
        with count_macs() as c:
            selective_scan(Tensor(rand(2, 5, 3)), Tensor(rand(2, 5, 3)), Tensor(rand(3, 4)),
                           Tensor(rand(2, 5, 4)), Tensor(rand(2, 5, 4)), Tensor(rand(3)))
        assert c.total == 2 * 5 * 2 * 4 * 3

    def test_counters_nest(self):
        with count_macs() as outer:
            matmul(Tensor(rand(2, 2)), Tensor(rand(2, 2)))
            with count_macs() as inner:
                matmul(Tensor(rand(2, 2)), Tensor(rand(2, 2)))
        assert inner.total == 8
        assert outer.total == 16

    def test_counter_stops_when_its_block_raises(self):
        with pytest.raises(ShapeError):
            with count_macs() as c:
                matmul(Tensor(rand(2, 2)), Tensor(rand(2, 2)))
                matmul(Tensor(rand(2, 2)), Tensor(rand(3, 2)))
        with count_macs() as after:
            matmul(Tensor(rand(2, 2)), Tensor(rand(2, 2)))
        assert c.total == 8
        assert after.total == 8

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
