import numpy as np
import pytest

from attention_mamba import mamba, tensor_core
from attention_mamba.mamba import MambaParams, bidirectional_mamba, mamba_forward, selective_scan
from attention_mamba.tensor_core import ShapeError, Tensor, concatenate, gradients, reverse, slice_axis
from helpers import numerical_grad, rel_error

RNG = np.random.default_rng(31)


def naive_scan(u, delta, A, B, C, D):
    """Literal per-step recurrence, plain numpy; u, delta and the result are
    [B, N, C], the loop works on channel-major [B, C, N] views of them."""
    u, delta = u.swapaxes(1, 2), delta.swapaxes(1, 2)
    batch, channels, n = u.shape
    state = A.shape[1]
    h = np.zeros((batch, channels, state))
    y = np.zeros_like(u)
    for t in range(n):
        dA = np.exp(delta[:, :, t, None] * A[None, :, :])
        dBu = (delta[:, :, t] * u[:, :, t])[:, :, None] * B[:, None, t, :]
        h = dA * h + dBu
        y[:, :, t] = (h * C[:, None, t, :]).sum(axis=-1) + D[None, :] * u[:, :, t]
    return y.swapaxes(1, 2)


def tape_scan_reference(u, delta, A, B_ssm, C_ssm, D_skip):
    """The scan built from per-token tape ops, about a dozen nodes per token.
    It slices exact channel-major [B, C, N] copies of u and delta."""
    u, delta = u.transpose_last2(), delta.transpose_last2()
    batch, channels, n_tokens = u.data.shape
    state_dim = A.data.shape[1]
    d_col = D_skip.reshape(channels, 1)
    h = Tensor(np.zeros((batch, channels, state_dim), dtype=u.data.dtype))
    outputs = []
    for t in range(n_tokens):
        delta_t = slice_axis(delta, 2, t, t + 1)   # [B, C, 1]
        u_t = slice_axis(u, 2, t, t + 1)           # [B, C, 1]
        b_t = slice_axis(B_ssm, 1, t, t + 1)       # [B, 1, S]
        c_t = slice_axis(C_ssm, 1, t, t + 1)       # [B, 1, S]
        decay = (delta_t * A).exp()                # [B, C, S]
        drive = (delta_t * u_t) * b_t              # [B, C, S]
        h = decay * h + drive
        y_t = (h * c_t).sum(axis=-1, keepdims=True) + d_col * u_t
        outputs.append(y_t)
    return concatenate(outputs, axis=2).transpose_last2()


def tape_nodes(out):
    """Operation nodes reachable from out through the tape's parent links."""
    seen, stack = set(), [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen and node._prev:
            seen.add(id(node))
            stack.extend(node._prev)
    return len(seen)


# Token-run sizes for the fused scan: one token per run, runs that split
# mid-batch, and the default, under which these small inputs form one run.
RUN_SIZES = (1, 37, tensor_core._SCAN_RUN_ELEMENTS)


def random_scan_inputs(rng, batch=1, channels=3, n=6, state=4):
    """Scan inputs, u and delta token-major [B, N, C]; the draws are those of
    the channel-major [B, C, N] layout, so the values do not depend on it."""
    u = rng.standard_normal((batch, channels, n))
    delta = rng.uniform(0.05, 1.5, (batch, channels, n))
    a_mat = -rng.uniform(0.1, 3.0, (channels, state))
    b = rng.standard_normal((batch, n, state))
    c = rng.standard_normal((batch, n, state))
    d = rng.standard_normal(channels)
    u, delta = (np.ascontiguousarray(a.swapaxes(1, 2)) for a in (u, delta))
    return u, delta, a_mat, b, c, d


class TestSelectiveScan:
    def test_length_one_no_recurrence(self):
        u, delta, a_mat, b, c, d = random_scan_inputs(RNG, n=1)
        out = selective_scan(Tensor(u), Tensor(delta), Tensor(a_mat), Tensor(b), Tensor(c), Tensor(d))
        expected = ((delta[:, 0, :] * u[:, 0, :])[:, :, None] * b[:, None, 0, :] * c[:, None, 0, :]).sum(-1) \
            + d[None, :] * u[:, 0, :]
        np.testing.assert_allclose(out.data[:, 0, :], expected, rtol=1e-12)

    def test_large_negative_state_matrix_is_memoryless(self):
        u, delta, _, b, c, d = random_scan_inputs(RNG)
        a_mat = np.full((3, 4), -np.exp(20.0))
        out = selective_scan(Tensor(u), Tensor(delta), Tensor(a_mat), Tensor(b), Tensor(c), Tensor(d))
        memoryless = np.zeros_like(u)
        for t in range(u.shape[1]):
            dBu = (delta[:, t, :] * u[:, t, :])[:, :, None] * b[:, None, t, :]
            memoryless[:, t, :] = (dBu * c[:, None, t, :]).sum(-1) + d[None, :] * u[:, t, :]
        np.testing.assert_allclose(out.data, memoryless, atol=1e-12)

    def test_matches_naive_recurrence_oracle(self):
        u, delta, a_mat, b, c, d = random_scan_inputs(RNG)
        out = selective_scan(Tensor(u), Tensor(delta), Tensor(a_mat), Tensor(b), Tensor(c), Tensor(d))
        np.testing.assert_allclose(out.data, naive_scan(u, delta, a_mat, b, c, d), atol=1e-10)

    def test_oracle_sweep_random_dims(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            dims = dict(
                batch=int(rng.integers(1, 3)),
                channels=int(rng.integers(1, 9)),
                n=int(rng.integers(1, 17)),
                state=int(rng.integers(1, 9)),
            )
            u, delta, a_mat, b, c, d = random_scan_inputs(rng, **dims)
            out = selective_scan(Tensor(u), Tensor(delta), Tensor(a_mat), Tensor(b), Tensor(c), Tensor(d))
            assert np.abs(out.data - naive_scan(u, delta, a_mat, b, c, d)).max() < 1e-10

    def test_channel_major_input_rejected(self):
        u, delta, a_mat, b, c, d = random_scan_inputs(np.random.default_rng(0), channels=3, n=6)
        u_cm, delta_cm = u.swapaxes(1, 2), delta.swapaxes(1, 2)   # [B, C, N]
        with pytest.raises(ShapeError):
            selective_scan(Tensor(u_cm), Tensor(delta_cm), Tensor(a_mat), Tensor(b), Tensor(c), Tensor(d))

    def test_nonpositive_delta_rejected(self):
        u, delta, a_mat, b, c, d = random_scan_inputs(RNG)
        delta[0, 0, 0] = 0.0
        with pytest.raises(ValueError):
            selective_scan(Tensor(u), Tensor(delta), Tensor(a_mat), Tensor(b), Tensor(c), Tensor(d))

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(3)
        u, delta, a_mat, b, c, d = random_scan_inputs(rng, batch=1, channels=2, n=4, state=3)
        arrays = [u, delta, a_mat, b, c, d]
        probe = rng.standard_normal(u.shape)

        def loss_from(tensors):
            out = selective_scan(*tensors)
            return (out * Tensor(probe)).sum()

        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        analytic = gradients(loss_from(leaves), leaves)
        for idx in range(len(arrays)):
            def f(v, idx=idx):
                args = [Tensor(v if j == idx else arrays[j]) for j in range(len(arrays))]
                return loss_from(args).item()

            err = rel_error(analytic[idx], numerical_grad(f, arrays[idx]))
            assert err < 1e-6, f"scan input {idx}: rel err {err}"


class TestFusedScanOracle:
    """The fused scan node against the per-token tape scan it replaces."""

    @staticmethod
    def sweep_dims(rng):
        for trial in range(8):
            yield dict(
                batch=int(rng.integers(2, 4)),
                channels=int(rng.integers(1, 9)),
                n=1 if trial == 0 else int(rng.integers(1, 17)),
                state=int(rng.integers(1, 9)),
            )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_bit_identical_to_tape_scan(self, dtype, monkeypatch):
        rng = np.random.default_rng(11)
        for run in RUN_SIZES:
            monkeypatch.setattr(tensor_core, "_SCAN_RUN_ELEMENTS", run)
            for dims in self.sweep_dims(rng):
                tensors = [Tensor(a.astype(dtype)) for a in random_scan_inputs(rng, **dims)]
                got = selective_scan(*tensors).data
                want = tape_scan_reference(*tensors).data
                assert got.dtype == dtype
                assert np.array_equal(got, want), (run, dims)

    def test_gradients_match_tape_scan_float64(self, monkeypatch):
        rng = np.random.default_rng(12)
        for run in RUN_SIZES:
            monkeypatch.setattr(tensor_core, "_SCAN_RUN_ELEMENTS", run)
            for dims in self.sweep_dims(rng):
                arrays = random_scan_inputs(rng, **dims)
                probe = Tensor(rng.standard_normal(arrays[0].shape))
                grads = []
                for scan in (selective_scan, tape_scan_reference):
                    leaves = [Tensor(a, requires_grad=True) for a in arrays]
                    grads.append(gradients((scan(*leaves) * probe).sum(), leaves))
                for idx, (got, want) in enumerate(zip(*grads)):
                    err = rel_error(got, want)
                    assert err < 1e-9, f"run {run}, {dims}, input {idx}: rel err {err}"

    @pytest.mark.parametrize("wanted", [(0, 3), (1, 2, 5), (4,)])
    def test_gradcheck_with_some_inputs_constant(self, wanted, monkeypatch):
        monkeypatch.setattr(tensor_core, "_SCAN_RUN_ELEMENTS", 20)
        rng = np.random.default_rng(13)
        arrays = random_scan_inputs(rng, batch=2, channels=3, n=5, state=2)
        probe = Tensor(rng.standard_normal(arrays[0].shape))
        leaves = [Tensor(a, requires_grad=i in wanted) for i, a in enumerate(arrays)]
        analytic = gradients((selective_scan(*leaves) * probe).sum(), [leaves[i] for i in wanted])
        for i, leaf in enumerate(leaves):
            if i not in wanted:
                assert leaf.grad is None, f"constant input {i} received a gradient"
        for i, got in zip(wanted, analytic):
            def f(v, i=i):
                args = [Tensor(v if j == i else a) for j, a in enumerate(arrays)]
                return (selective_scan(*args) * probe).sum().item()

            err = rel_error(got, numerical_grad(f, arrays[i]))
            assert err < 1e-6, f"input {i}: rel err {err}"

    def test_one_tape_node_whatever_the_length(self):
        for n in (1, 16):
            leaves = [Tensor(a, requires_grad=True)
                      for a in random_scan_inputs(RNG, batch=2, n=n)]
            out = selective_scan(*leaves)
            assert out._prev == tuple(leaves)


class TestStability:
    def test_decay_factor_below_one(self):
        # A = -exp(A_log) and delta in (0, 10] keep |exp(delta*A)| < 1
        a_log = RNG.uniform(-3, 3, (5, 4))
        a_mat = -np.exp(a_log)
        delta = RNG.uniform(1e-6, 10.0, (2, 5, 1))
        decay = np.exp(delta * a_mat[None, :, :])
        assert np.all(np.abs(decay) < 1.0)

    def test_zero_input_state_decays_monotonically(self):
        a_mat = -np.exp(RNG.uniform(-1, 1, (3, 4)))
        delta = RNG.uniform(0.1, 2.0, (3,))
        h = np.abs(RNG.standard_normal((3, 4))) + 0.1
        for _ in range(20):
            h_next = np.exp(delta[:, None] * a_mat) * h
            assert np.all(np.abs(h_next) < np.abs(h))
            h = h_next


def tiny_params(embed_dim=8, n_tokens=4, state_dim=4, seed=0, dtype=np.float64):
    return MambaParams.init(
        embed_dim, n_tokens, np.random.default_rng(seed),
        expansion=1, conv_width=32, state_dim=state_dim, dtype=dtype,
    )


class TestMambaForward:
    def test_output_shape_matches_input(self):
        p = MambaParams.init(32, 7, np.random.default_rng(0), dtype=np.float64)
        out = mamba_forward(Tensor(RNG.standard_normal((2, 7, 32))), p)
        assert out.data.shape == (2, 7, 32)

    def test_conv_width_clamped_to_tokens(self):
        p = MambaParams.init(8, 4, np.random.default_rng(0), conv_width=64)
        assert p.conv_weight.data.shape[1] == 4

    def test_zero_input_zero_biases_gives_zero(self):
        p = tiny_params()
        for layer in (p.in_proj, p.x_proj, p.dt_proj, p.out_proj):
            layer.bias.data[:] = 0.0
        p.conv_bias.data[:] = 0.0
        out = mamba_forward(Tensor(np.zeros((2, 4, 8))), p)
        np.testing.assert_array_equal(out.data, np.zeros((2, 4, 8)))

    def test_causality(self):
        p = tiny_params(n_tokens=6)
        x = RNG.standard_normal((1, 6, 8))
        base = mamba_forward(Tensor(x), p).data
        for t in range(6):
            bumped = x.copy()
            bumped[0, t, :] += 0.5
            out = mamba_forward(Tensor(bumped), p).data
            changed = np.abs(out - base).max(axis=2)[0] > 1e-12
            assert not changed[:t].any(), f"token {t} perturbation leaked backwards"

    def test_full_gradient_check_tiny_dims(self):
        p = tiny_params()
        x = RNG.uniform(-1, 1, (1, 4, 8))
        names = [n for n, _ in p.named_parameters()]
        params = [t for _, t in p.named_parameters()]
        probe = np.random.default_rng(9).standard_normal((1, 4, 8))

        loss = (mamba_forward(Tensor(x), p) * Tensor(probe)).sum()
        analytic = gradients(loss, params)

        for name, tensor, got in zip(names, params, analytic):
            base = tensor.data.copy()

            def f(v):
                tensor.data = v
                out = (mamba_forward(Tensor(x), p) * Tensor(probe)).sum().item()
                tensor.data = base
                return out

            err = rel_error(got, numerical_grad(f, base))
            assert err < 1e-4, f"{name}: rel err {err}"


class TestBidirectional:
    def test_identity_stub_algebra(self, monkeypatch):
        # with the scan replaced by identity: value = reverse(x + reverse(x)) = reverse(x) + x
        monkeypatch.setattr(mamba, "mamba_forward", lambda t, p: t)
        x = RNG.standard_normal((2, 5, 3))
        out = bidirectional_mamba(Tensor(x), None, None)
        np.testing.assert_allclose(out.data, x + x[:, ::-1, :], rtol=1e-12)

    def test_reverse_is_involution(self):
        x = RNG.standard_normal((2, 5, 3))
        np.testing.assert_array_equal(reverse(reverse(Tensor(x), 1), 1).data, x)

    def test_compositional_oracle_shared_params(self):
        p = tiny_params()
        x = RNG.standard_normal((2, 4, 8))
        got = bidirectional_mamba(Tensor(x), p, p).data
        normal = mamba_forward(Tensor(x), p).data
        rev_branch = mamba_forward(Tensor(x[:, ::-1, :].copy()), p).data
        np.testing.assert_allclose(got, (normal + rev_branch)[:, ::-1, :], atol=1e-12)

    def test_literal_form_differs_from_conventional(self):
        p_fwd = tiny_params(seed=1)
        p_bwd = tiny_params(seed=2)
        x = RNG.standard_normal((1, 5, 8))
        fused = bidirectional_mamba(Tensor(x), p_fwd, p_bwd, variant="fused-reverse").data
        conventional = bidirectional_mamba(Tensor(x), p_fwd, p_bwd, variant="per-branch-reverse").data
        assert not np.allclose(fused, conventional, atol=1e-8)

    @pytest.mark.parametrize("n_tokens,embed_dim", [(4, 8), (21, 16)])
    def test_tape_nodes_per_call(self, n_tokens, embed_dim):
        # 17 nodes a direction, the sum and the outer reverse; reversing an
        # input that needs no gradient adds no node
        p_fwd = tiny_params(embed_dim, n_tokens, seed=1)
        p_bwd = tiny_params(embed_dim, n_tokens, seed=2)
        x = np.random.default_rng(0).standard_normal((2, n_tokens, embed_dim))
        out = bidirectional_mamba(Tensor(x), p_fwd, p_bwd)
        assert tape_nodes(out) == 36

    def test_unknown_variant_rejected(self, monkeypatch):
        monkeypatch.setattr(mamba, "mamba_forward", lambda t, p: t)
        with pytest.raises(ValueError):
            bidirectional_mamba(Tensor(np.zeros((1, 2, 8))), None, None, variant="bogus")
