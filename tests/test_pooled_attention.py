import numpy as np
import pytest

from attention_mamba.pooled_attention import (
    AttentionTrace,
    PooledAttentionParams,
    attention_weights,
    fuse_pool,
)
from attention_mamba.tensor_core import (
    ShapeError,
    Tensor,
    adaptive_avg_pool_last,
    adaptive_max_pool_last,
    gradients,
    softmax_last,
)
from helpers import numerical_grad, rel_error

RNG = np.random.default_rng(23)

POOLS = {"avg": adaptive_avg_pool_last, "max": adaptive_max_pool_last}


def brute_force_pool(x: np.ndarray, target: int, mode: str) -> np.ndarray:
    """Window-enumeration oracle over the last axis."""
    in_size = x.shape[-1]
    cols = []
    for i in range(target):
        start = int(np.floor(i * in_size / target))
        end = int(np.ceil((i + 1) * in_size / target))
        window = x[..., start:end]
        cols.append(window.mean(axis=-1) if mode == "avg" else window.max(axis=-1))
    return np.stack(cols, axis=-1)


class TestAdaptivePool1d:
    @pytest.mark.parametrize("mode", ["avg", "max"])
    def test_identity_when_target_equals_input(self, mode):
        x = RNG.standard_normal((3, 6))
        out = POOLS[mode](Tensor(x), 6)
        np.testing.assert_array_equal(out.data, x)

    def test_hand_arithmetic(self):
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4))
        np.testing.assert_array_equal(adaptive_avg_pool_last(x, 2).data, [[1.5, 3.5]])
        np.testing.assert_array_equal(adaptive_max_pool_last(x, 2).data, [[2.0, 4.0]])

    def test_seven_to_three_windows(self):
        x = Tensor(np.arange(7.0).reshape(1, 7))
        np.testing.assert_array_equal(adaptive_avg_pool_last(x, 3).data, [[1.0, 3.0, 5.0]])
        np.testing.assert_array_equal(adaptive_max_pool_last(x, 3).data, [[2.0, 4.0, 6.0]])

    @pytest.mark.parametrize("mode", ["avg", "max"])
    def test_window_enumeration_oracle_sweep(self, mode):
        for in_size in range(1, 17):
            x = RNG.standard_normal((2, in_size))
            for target in range(1, in_size + 1):
                got = POOLS[mode](Tensor(x), target).data
                np.testing.assert_array_equal(got, brute_force_pool(x, target, mode))

    def test_invalid_targets_rejected(self):
        with pytest.raises(ShapeError):
            adaptive_avg_pool_last(Tensor(np.zeros((2, 4))), 0)
        with pytest.raises(ShapeError):
            adaptive_max_pool_last(Tensor(np.zeros((2, 4))), 0)
        # fuse_pool, the production caller, also rejects targets above E
        x = Tensor(np.zeros((2, 3, 4)))
        with pytest.raises(ShapeError):
            fuse_pool(x, 5)
        with pytest.raises(ShapeError):
            fuse_pool(x, 0)


class TestFusePool:
    def test_constant_input_gives_twice_constant(self):
        x = Tensor(np.full((2, 4, 8), 3.5))
        out = fuse_pool(x, 2)
        np.testing.assert_allclose(out.data, 7.0, rtol=1e-12)
        assert out.data.shape == (2, 2, 2)

    def test_zero_input_gives_zero(self):
        out = fuse_pool(Tensor(np.zeros((1, 5, 8))), 2)
        np.testing.assert_array_equal(out.data, np.zeros((1, 2, 2)))

    def test_axis_composition_oracle(self):
        # ramp input, B=1, N=4, E=8: must equal per-axis 1-d pooling composed
        x = np.arange(32.0).reshape(1, 4, 8)
        target = 2

        def compose(mode):
            first = brute_force_pool(x.swapaxes(-1, -2), target, mode).swapaxes(-1, -2)
            return brute_force_pool(first, target, mode)

        got = fuse_pool(Tensor(x), target).data
        np.testing.assert_array_equal(got, compose("avg") + compose("max"))

    def test_fuse_equals_avg_plus_max_exactly(self):
        x = RNG.standard_normal((3, 12, 16))
        target = 4

        def two_axes(mode):
            pooled = POOLS[mode](Tensor(x).transpose_last2(), target).transpose_last2()
            return POOLS[mode](pooled, target).data

        np.testing.assert_array_equal(fuse_pool(Tensor(x), target).data, two_axes("avg") + two_axes("max"))

    def test_token_axis_smaller_than_target(self):
        # 7 tokens pooled "down" to 8: windows overlap, output still 8x8
        out = fuse_pool(Tensor(RNG.standard_normal((2, 7, 32))), 8)
        assert out.data.shape == (2, 8, 8)


def make_params(n_variates, embed_dim, dtype=np.float64, seed=0):
    return PooledAttentionParams.init(n_variates, embed_dim, np.random.default_rng(seed), dtype)


class TestAttentionWeights:
    def test_shape_contract(self):
        params = make_params(7, 32)
        x = Tensor(RNG.standard_normal((2, 7, 32)))
        weights, trace = attention_weights(x, params)
        assert weights.data.shape == (2, 7, 32)
        assert trace.scores.shape == (2, 8, 8)
        assert trace.fused_query.shape == (2, 8, 8)
        assert trace.pooled_key.shape == (2, 8, 8)
        assert trace.query.shape == (2, 7, 32)
        assert trace.weights.shape == (2, 7, 32)

    def test_zero_input_zero_bias_gives_uniform_softmax(self):
        params = make_params(5, 16)
        for layer in (params.q_proj, params.k_proj):
            layer.bias.data[:] = 0.0
        _, trace = attention_weights(Tensor(np.zeros((2, 5, 16))), params)
        np.testing.assert_array_equal(trace.scores, np.zeros((2, 4, 4)))
        sm = softmax_last(Tensor(trace.scores)).data
        np.testing.assert_allclose(sm, 1.0 / 4.0, rtol=1e-12)

    def test_softmax_of_scores_rows_sum_to_one(self):
        params = make_params(6, 16)
        _, trace = attention_weights(Tensor(RNG.standard_normal((3, 6, 16))), params)
        sm = softmax_last(Tensor(trace.scores)).data
        np.testing.assert_allclose(sm.sum(axis=-1), 1.0, atol=1e-6)

    def test_gradient_of_weight_sum_vs_finite_differences(self):
        params = make_params(4, 8)
        x = RNG.uniform(-1, 1, (2, 4, 8))

        loss = attention_weights(Tensor(x), params)[0].sum()
        analytic = gradients(loss, [params.q_proj.weight])[0]

        base = params.q_proj.weight.data.copy()

        def f(w):
            params.q_proj.weight.data = w
            out = attention_weights(Tensor(x), params)[0].sum().item()
            params.q_proj.weight.data = base
            return out

        numeric = numerical_grad(f, base)
        assert rel_error(analytic, numeric) < 1e-4

    def test_score_stage_macs_independent_of_n(self):
        embed_dim = 32
        quarter = embed_dim // 4
        batch = 2
        macs = []
        for n in (5, 7, 16, 40):
            params = make_params(n, embed_dim)
            _, trace = attention_weights(Tensor(RNG.standard_normal((batch, n, embed_dim))), params)
            macs.append(trace.score_macs)
        assert all(m == batch * quarter**3 for m in macs)

    def test_not_permutation_equivariant(self):
        # the recovery projection is position-dependent; a permuted input
        # must not produce a correspondingly permuted output
        params = make_params(6, 16)
        x = RNG.standard_normal((1, 6, 16))
        perm = np.array([3, 0, 5, 1, 4, 2])
        w_base, _ = attention_weights(Tensor(x), params)
        w_perm, _ = attention_weights(Tensor(x[:, perm, :]), params)
        assert not np.allclose(w_perm.data, w_base.data[:, perm, :], atol=1e-8)

    def test_embed_dim_not_divisible_by_4_rejected(self):
        with pytest.raises(ValueError):
            make_params(5, 30)
