import numpy as np
import pytest

from attention_mamba import pooled_attention
from attention_mamba.pooled_attention import PooledAttentionParams, attention_weights, fuse_pool
from attention_mamba.tensor_core import ShapeError, Tensor, backward, count_macs, no_grad
from helpers import check_parameter_gradients

RNG = np.random.default_rng(23)


def windows(in_size: int, target: int) -> list:
    """Adaptive windows [floor(i*I/O), ceil((i+1)*I/O)), written out afresh."""
    return [(int(np.floor(i * in_size / target)), int(np.ceil((i + 1) * in_size / target)))
            for i in range(target)]


def brute_force_pool(x: np.ndarray, target: int, mode: str) -> np.ndarray:
    """Window-enumeration oracle over the last axis."""
    cols = []
    for start, end in windows(x.shape[-1], target):
        window = x[..., start:end]
        cols.append(window.mean(axis=-1) if mode == "avg" else window.max(axis=-1))
    return np.stack(cols, axis=-1)


def two_axes(x: np.ndarray, mode: str) -> np.ndarray:
    """Pool [B, N, E] rows, then columns, to E/4 each, one axis at a time."""
    quarter = x.shape[-1] // 4
    rows = brute_force_pool(np.ascontiguousarray(x.swapaxes(-1, -2)), quarter, mode)
    return brute_force_pool(np.ascontiguousarray(rows.swapaxes(-1, -2)), quarter, mode)


def max_half_input(z: np.ndarray) -> np.ndarray:
    """[B, N, E/2] to [B, N, E] with each group of 4 columns (a, -a, b, -b).

    Each row window's mean of -a is exactly minus its mean of a, so the
    average half of fuse_pool is exactly 0 and the output is the max half.
    """
    return np.stack([z, -z], axis=-1).reshape(*z.shape[:-1], 2 * z.shape[-1])


def avg_half_input(z: np.ndarray) -> np.ndarray:
    """-|z| with the last column of each group of 4 set to 0.

    Every block's maximum is that 0, so the max half of fuse_pool is exactly
    0 and the output is the average half.
    """
    x = -np.abs(z)
    x[..., 3::4] = 0.0
    return x


def fuse_pool_grad_oracle(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of sum(fuse_pool(x) * g), window by window.

    The average and max parts are summed apart, each window in order, and
    added at the end. Max routes to a block's first maximal element with
    columns as the outer axis.
    """
    batch, n_rows, embed = x.shape
    avg = np.zeros_like(x)
    mx = np.zeros_like(x)
    for i, (start, end) in enumerate(windows(n_rows, embed // 4)):
        for j in range(embed // 4):
            cols = slice(4 * j, 4 * j + 4)
            avg[:, start:end, cols] += (g[:, i, j] / 4 / (end - start))[:, None, None]
            for b in range(batch):
                col, row = divmod(int(x[b, start:end, cols].T.argmax()), end - start)
                mx[b, start + row, 4 * j + col] += g[b, i, j]
    return avg + mx


def assert_matches_oracle(got: np.ndarray, want: np.ndarray, x: np.ndarray) -> None:
    """fuse_pool(x) against the oracle: bit-identical while no row window is
    wider than 2 rows (always when N <= E/4), as every scale of the average
    is then a power of two and a window sums at most 2 terms; within
    w_max * eps * max|x| of it otherwise, w_max being the widest window."""
    w_max = max(end - start for start, end in windows(x.shape[1], x.shape[2] // 4))
    if w_max <= 2:
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=w_max * np.finfo(x.dtype).eps * np.abs(x).max())


class TestAdaptivePool1d:
    """Each half of fuse_pool along the token axis, which pools adaptively
    into E/4 windows; the inputs of max_half_input and avg_half_input make
    the other half exactly 0."""

    HALF_INPUT = {"avg": avg_half_input, "max": lambda z: max_half_input(z[..., ::2])}

    @pytest.mark.parametrize("mode", ["avg", "max"])
    def test_identity_when_target_equals_input(self, mode):
        # N = E/4: every row window is one row, so rows pass through and
        # only the groups of 4 columns are pooled
        x = self.HALF_INPUT[mode](RNG.standard_normal((3, 6, 24)))
        groups = x.reshape(3, 6, 6, 4)
        expected = groups.mean(axis=-1) if mode == "avg" else groups.max(axis=-1)
        np.testing.assert_array_equal(fuse_pool(Tensor(x)).data, expected)

    def test_hand_arithmetic(self):
        # rows 1, 2, 3, 4 into the windows {1, 2} and {3, 4}
        rows = np.array([1.0, 2.0, 3.0, 4.0])[None, :, None]
        x = max_half_input(np.repeat(rows, 4, axis=2))
        np.testing.assert_array_equal(fuse_pool(Tensor(x)).data, [[[2.0, 2.0], [4.0, 4.0]]])
        # columns -r, -r, -r, 0: row means -1.5 and -3.5 in 3 of the 4 columns
        x = avg_half_input(np.repeat(rows, 8, axis=2))
        np.testing.assert_array_equal(fuse_pool(Tensor(x)).data,
                                      [[[-1.125, -1.125], [-2.625, -2.625]]])

    @pytest.mark.parametrize("mode", ["avg", "max"])
    def test_window_enumeration_oracle_sweep(self, mode):
        # rows pooled down (N > E/4), passed through and overlapping (N < E/4)
        for n_rows in range(1, 17):
            for quarter in range(1, 17):
                x = self.HALF_INPUT[mode](RNG.standard_normal((2, n_rows, 4 * quarter)))
                got = fuse_pool(Tensor(x)).data
                if mode == "avg":
                    assert_matches_oracle(got, two_axes(x, mode), x)
                else:
                    np.testing.assert_array_equal(got, two_axes(x, mode))


class TestFusePool:
    def test_constant_input_gives_twice_constant(self):
        x = Tensor(np.full((2, 4, 8), 3.5))
        out = fuse_pool(x)
        np.testing.assert_allclose(out.data, 7.0, rtol=1e-12)
        assert out.data.shape == (2, 2, 2)

    def test_zero_input_gives_zero(self):
        out = fuse_pool(Tensor(np.zeros((1, 5, 8))))
        np.testing.assert_array_equal(out.data, np.zeros((1, 2, 2)))

    def test_axis_composition_oracle(self):
        # ramp input, B=1, N=4, E=8: must equal per-axis 1-d pooling composed
        x = np.arange(32.0).reshape(1, 4, 8)
        got = fuse_pool(Tensor(x)).data
        np.testing.assert_array_equal(got, two_axes(x, "avg") + two_axes(x, "max"))

    def test_fuse_equals_avg_plus_max(self):
        # the bench shapes: row windows of width 1-2 (N=21, exact) and 11-12
        # (N=321), and Traffic's N=862, 27-28 rows
        for n_rows, dtype in ((21, np.float32), (321, np.float32), (321, np.float64), (862, np.float32)):
            x = RNG.standard_normal((2, n_rows, 128)).astype(dtype)
            out = fuse_pool(Tensor(x)).data
            assert out.dtype == dtype
            assert_matches_oracle(out, two_axes(x, "avg") + two_axes(x, "max"), x)

    def test_taped_and_untaped_forwards_agree(self):
        # the taped forward only adds the backward closure
        for n_rows in (7, 21, 321):
            x = RNG.standard_normal((3, n_rows, 128)).astype(np.float32)
            taped = fuse_pool(Tensor(x, requires_grad=True))
            assert taped._node is not None
            with no_grad():
                untaped = fuse_pool(Tensor(x, requires_grad=True))
            assert untaped._node is None
            assert taped.data.tobytes() == untaped.data.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_window_oracle_sweep(self, dtype):
        # rows pooled down (N > E/4), passed through (N = E/4) and overlapping (N < E/4)
        for n_rows in range(1, 17):
            for embed in (4, 8, 16, 32):
                x = RNG.standard_normal((2, n_rows, embed)).astype(dtype)
                got = fuse_pool(Tensor(x)).data
                assert_matches_oracle(got, two_axes(x, "avg") + two_axes(x, "max"), x)

    def test_seven_rows_to_three_windows(self):
        # rows 0-2, 2-4 and 4-6; every column holds its row index
        x = np.repeat(np.arange(7.0)[None, :, None], 12, axis=2)
        np.testing.assert_array_equal(fuse_pool(Tensor(x)).data[0, :, 0], [1.0 + 2.0, 3.0 + 4.0, 5.0 + 6.0])

    def test_token_axis_smaller_than_target(self):
        # 7 tokens pooled "down" to 8: windows overlap, output still 8x8
        out = fuse_pool(Tensor(RNG.standard_normal((2, 7, 32))))
        assert out.data.shape == (2, 8, 8)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_gradient_matches_window_oracle(self, dtype):
        # rows pooled down (to 11-12 row windows at electricity's N=321), then
        # rows in up to 2, 3 (weather's N=21, E=128) and 8 windows. The
        # average's gradient is a matmul that sums each row's windows in its
        # own order, so it is exact only where every row lies in at most 2
        # windows of at most 2 rows. Elsewhere it is held to the forward's
        # bound, in g and with the widest sum of either matmul: w_max rows a
        # window, or k_max windows a row.
        for shape in ((2, 21, 32), (3, 12, 16), (1, 16, 4), (2, 321, 128), (2, 7, 32), (2, 21, 128),
                      (1, 3, 32), (2, 1, 32)):
            bounds = windows(shape[1], shape[2] // 4)
            w_max = max(end - start for start, end in bounds)
            k_max = max(sum(start <= r < end for start, end in bounds) for r in range(shape[1]))
            exact = w_max <= 2 and k_max <= 2
            g = RNG.standard_normal((shape[0], shape[2] // 4, shape[2] // 4)).astype(dtype)
            atol = max(w_max, k_max) * np.finfo(dtype).eps * np.abs(g).max()
            # continuous values and small integers (ties across rows and columns)
            for x in (RNG.standard_normal(shape), RNG.integers(-1, 2, shape)):
                x = x.astype(dtype)
                leaf = Tensor(x, requires_grad=True)
                backward((fuse_pool(leaf) * Tensor(g)).sum())
                assert leaf.grad.dtype == dtype
                want = fuse_pool_grad_oracle(x, g)
                if exact:
                    assert np.array_equal(leaf.grad, want), shape
                else:
                    np.testing.assert_allclose(leaf.grad, want, rtol=0, atol=atol, err_msg=str(shape))

    def test_one_tape_node_whatever_the_length(self):
        for n_rows in (1, 7, 40):
            leaf = Tensor(RNG.standard_normal((2, n_rows, 32)), requires_grad=True)
            assert fuse_pool(leaf)._node._prev == (leaf,)   # a leaf is its own graph node

    @pytest.mark.parametrize("shape", [(3, 8), (1, 2, 3, 8), (2, 3, 6), (2, 3, 2), (2, 3, 0), (2, 0, 8)],
                             ids=["2d", "4d", "e6", "e2", "e0", "n0"])
    def test_bad_shapes_rejected(self, shape):
        with pytest.raises(ShapeError, match="fuse_pool"):
            fuse_pool(Tensor(np.zeros(shape)))


def make_params(n_variates, embed_dim):
    return PooledAttentionParams.init(n_variates, embed_dim, np.random.default_rng(0))


def captured_softmax(monkeypatch) -> list:
    """Wrap the module's ``softmax_last``; each call appends (scores, softmax)."""
    calls = []
    original = pooled_attention.softmax_last

    def capture(scores):
        out = original(scores)
        calls.append((scores.data, out.data))
        return out

    monkeypatch.setattr(pooled_attention, "softmax_last", capture)
    return calls


def counted_matmul(monkeypatch) -> list:
    """Wrap the module's ``matmul`` in ``count_macs``; each call appends its MACs."""
    macs = []
    original = pooled_attention.matmul

    def counted(a, b):
        with count_macs() as counter:
            out = original(a, b)
        macs.append(counter.total)
        return out

    monkeypatch.setattr(pooled_attention, "matmul", counted)
    return macs


class TestAttentionWeights:
    def test_shape_contract(self, monkeypatch):
        calls = captured_softmax(monkeypatch)
        params = make_params(7, 32)
        weights = attention_weights(Tensor(RNG.standard_normal((2, 7, 32))), params)
        assert weights.data.shape == (2, 7, 32)
        [(scores, _)] = calls
        assert scores.shape == (2, 8, 8)

    def test_zero_input_zero_bias_gives_uniform_softmax(self, monkeypatch):
        calls = captured_softmax(monkeypatch)
        params = make_params(5, 16)
        for layer in (params.q_proj, params.k_proj):
            layer.bias.data[:] = 0.0
        attention_weights(Tensor(np.zeros((2, 5, 16))), params)
        [(scores, sm)] = calls
        np.testing.assert_array_equal(scores, np.zeros((2, 4, 4)))
        np.testing.assert_allclose(sm, 1.0 / 4.0, rtol=1e-12)

    def test_gradient_of_weight_sum_vs_finite_differences(self):
        params = make_params(4, 8)
        x = RNG.uniform(-1, 1, (2, 4, 8))

        check_parameter_gradients(lambda: attention_weights(Tensor(x), params).sum(),
                                  [("q_proj.weight", params.q_proj.weight)], tol=1e-4)

    def test_score_stage_macs_independent_of_n(self, monkeypatch):
        # counted as the bench counts them: the MACs of the module's matmul
        macs = counted_matmul(monkeypatch)
        embed_dim = 32
        quarter = embed_dim // 4
        batch = 2
        for n in (5, 7, 16, 40):
            attention_weights(Tensor(RNG.standard_normal((batch, n, embed_dim))), make_params(n, embed_dim))
        assert macs == [batch * quarter**3] * 4

    def test_not_permutation_equivariant(self):
        # the recovery projection is position-dependent; a permuted input
        # must not produce a correspondingly permuted output
        params = make_params(6, 16)
        x = RNG.standard_normal((1, 6, 16))
        perm = np.array([3, 0, 5, 1, 4, 2])
        w_base = attention_weights(Tensor(x), params)
        w_perm = attention_weights(Tensor(x[:, perm, :]), params)
        assert not np.allclose(w_perm.data, w_base.data[:, perm, :], atol=1e-8)

    def test_embed_dim_not_divisible_by_4_rejected(self):
        with pytest.raises(ShapeError, match="multiple of 4"):
            attention_weights(Tensor(RNG.standard_normal((1, 5, 30))), make_params(5, 30))
