import numpy as np
import pytest

from attention_mamba.layers import LinearLayer, RevIN, linear
from attention_mamba.tensor_core import ShapeError, Tensor
from helpers import gradcheck

RNG = np.random.default_rng(11)


def float32_revin(n_variates: int) -> RevIN:
    """A RevIN with its parameters cast to float32, as the model casts them."""
    revin = RevIN(n_variates)
    for t in (revin.gamma, revin.beta):
        t.data = t.data.astype(np.float32)
    return revin


class TestLinear:
    def test_identity_weight_zero_bias(self):
        layer = LinearLayer(Tensor(np.eye(3)), Tensor(np.zeros(3)))
        x = RNG.standard_normal((2, 4, 3))
        np.testing.assert_allclose(linear(Tensor(x), layer).data, x, rtol=1e-12)

    def test_hand_arithmetic(self):
        layer = LinearLayer(Tensor([[1.0], [1.0]]), Tensor([0.0]))
        out = linear(Tensor([[3.0, 4.0]]), layer)
        np.testing.assert_array_equal(out.data, [[7.0]])

    def test_gradient_vs_finite_differences(self):
        def op(x, w, b):
            return linear(x, LinearLayer(w, b))

        gradcheck(op, [RNG.uniform(-2, 2, (2, 3, 4)), RNG.uniform(-2, 2, (4, 5)), RNG.uniform(-2, 2, 5)])

    def test_extent_mismatch(self):
        layer = LinearLayer(Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))
        with pytest.raises(ShapeError):
            linear(Tensor(np.zeros((2, 3))), layer)

    def test_init_bounds_and_shapes(self):
        layer = LinearLayer.init(16, 8, np.random.default_rng(0))
        bound = 1.0 / 4.0
        assert layer.weight.data.shape == (16, 8)
        assert layer.bias.data.shape == (8,)
        assert np.all(np.abs(layer.weight.data) <= bound)
        assert np.all(np.abs(layer.bias.data) <= bound)


class TestRevInNormalize:
    def test_constant_input_maps_to_zero(self):
        revin = RevIN(3)
        x = np.full((2, 5, 3), 7.0)
        out, _ = revin.normalize(Tensor(x))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_hand_arithmetic_single_variate(self):
        revin = RevIN(1)
        x = np.array([[[1.0], [2.0], [3.0]]])
        out, state = revin.normalize(Tensor(x))
        np.testing.assert_allclose(state.mu.data, [[[2.0]]])
        expected_sigma = np.sqrt(2.0 / 3.0 + 1e-5)
        np.testing.assert_allclose(state.sigma.data, [[[expected_sigma]]], rtol=1e-12)
        np.testing.assert_allclose(
            out.data[0, :, 0], [-1.0 / expected_sigma, 0.0, 1.0 / expected_sigma], rtol=1e-12
        )
        np.testing.assert_allclose(out.data[0, :, 0], [-1.2247, 0.0, 1.2247], atol=1e-3)

    def test_statistics_oracle_random_input(self):
        # direct statistics oracle: per-variate mean ~ 0, std ~ 1 before affine
        revin = RevIN(4)
        x = RNG.standard_normal((3, 64, 4)) * 5.0 + 2.0
        out, _ = revin.normalize(Tensor(x))
        assert np.abs(out.data.mean(axis=1)).max() < 1e-6
        np.testing.assert_allclose(out.data.std(axis=1), 1.0, atol=1e-4)


class TestRevInRoundTrip:
    def test_identity_affine_round_trip(self):
        revin = RevIN(3)
        x = RNG.standard_normal((2, 8, 3)) * 3.0 + 1.0
        out, state = revin.normalize(Tensor(x))
        back = revin.denormalize(out, state)
        np.testing.assert_allclose(back.data, x, atol=1e-6)

    def test_round_trip_float32(self):
        revin = float32_revin(3)
        x = (RNG.standard_normal((2, 16, 3)) * 2.0).astype(np.float32)
        out, state = revin.normalize(Tensor(x))
        back = revin.denormalize(out, state)
        assert np.abs(back.data - x).max() < 1e-6

    def test_learned_affine_round_trip(self):
        # algebraic inversion oracle with gamma=2, beta=0.5
        revin = RevIN(3)
        revin.gamma.data[:] = 2.0
        revin.beta.data[:] = 0.5
        x = RNG.standard_normal((2, 10, 3))
        out, state = revin.normalize(Tensor(x))
        back = revin.denormalize(out, state)
        np.testing.assert_allclose(back.data, x, atol=1e-5)

    def test_zero_normalized_input_gives_mu(self):
        revin = RevIN(2)
        x = RNG.standard_normal((1, 6, 2))
        _, state = revin.normalize(Tensor(x))
        out = revin.denormalize(Tensor(np.zeros((1, 4, 2))), state)
        np.testing.assert_allclose(out.data, np.broadcast_to(state.mu.data, (1, 4, 2)), rtol=1e-12)

    def test_round_trip_property_sweep(self):
        # any finite input with per-variate std above 1e-3
        revin = float32_revin(5)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            scale = rng.uniform(0.01, 100.0)
            x = (rng.standard_normal((2, 12, 5)) * scale).astype(np.float32)
            out, state = revin.normalize(Tensor(x))
            back = revin.denormalize(out, state)
            assert np.abs(back.data - x).max() / max(scale, 1.0) < 1e-6

    def test_gradients_flow_through_affine(self):
        def op(x, gamma, beta):
            revin = RevIN(3)
            revin.gamma = gamma
            revin.beta = beta
            out, state = revin.normalize(x)
            return revin.denormalize(out * 0.5, state)

        gradcheck(
            op,
            [RNG.uniform(-2, 2, (2, 6, 3)), RNG.uniform(0.5, 2, 3), RNG.uniform(-1, 1, 3)],
            tol=1e-6,
        )
