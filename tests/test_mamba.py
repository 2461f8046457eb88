import tracemalloc

import numpy as np
import pytest

from attention_mamba import mamba, tensor_core
from attention_mamba.layers import named_tensors
from attention_mamba.mamba import CONV_WIDTH, MambaParams, bidirectional_mamba, mamba_forward, selective_scan
from attention_mamba.tensor_core import NonPositiveStepError, ShapeError, Tensor, gradients, matmul
from helpers import (check_parameter_gradients, concatenate, exp, gradcheck, kept_bytes, neg, numerical_grad,
                     rel_error, softplus)

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


def discretize(dt, a_log):
    """The step size softplus(dt) and the state matrix -exp(A_log), in numpy,
    for the float64 oracles that compare within a tolerance."""
    return np.logaddexp(0.0, dt), -np.exp(a_log)


def tape_scan_reference(u, delta, A, B_ssm, C_ssm, D_skip):
    """The scan built from per-token tape ops, about a dozen nodes per token.
    Its state is channels-last, [B, S, C], as the fused node's is."""
    batch, n_tokens, channels = u.data.shape
    state_dim = A.data.shape[1]
    a_t = A.transpose_last2()                      # [S, C]
    h = Tensor(np.zeros((batch, state_dim, channels), dtype=u.data.dtype))
    outputs = []
    for t in range(n_tokens):
        delta_t = delta[:, t:t + 1]                # [B, 1, C]
        u_t = u[:, t:t + 1]                        # [B, 1, C]
        b_t = B_ssm[:, t:t + 1].transpose_last2()  # [B, S, 1]
        c_t = C_ssm[:, t:t + 1]                    # [B, 1, S]
        decay = exp(delta_t * a_t)                 # [B, S, C]
        drive = (delta_t * u_t) * b_t              # [B, S, C]
        h = decay * h + drive
        outputs.append(matmul(c_t, h) + D_skip * u_t)
    return concatenate(outputs, axis=1)


def tape_scan_oracle(u, dt, A_log, B_ssm, C_ssm, D_skip):
    """The per-token tape scan on the delta and A that the fused scan forms
    from dt and A_log, by tape ops of the same operations, so the forward
    matches bit for bit and gradients reach dt and A_log."""
    return tape_scan_reference(u, softplus(dt), neg(exp(A_log)), B_ssm, C_ssm, D_skip)


def tape_nodes(out):
    """Graph nodes reachable from out's node through the parent links."""
    seen, stack = set(), [out._node]
    while stack:
        node = stack.pop()
        if node is not None and id(node) not in seen and node._prev:
            seen.add(id(node))
            stack.extend(node._prev)
    return len(seen)


# Run lengths, in tokens, that the fused scan's slab term asks for. Runs
# are at least floor(sqrt(N)) tokens long, so 1 gives runs of floor(sqrt(N))
# tokens, one token where N <= 3; 5 gives longer runs for N < 36, several
# where N > 5; 16 gives one run at every N of the sweeps.
RUN_TOKENS = (1, 5, 16)


def set_run_tokens(monkeypatch, tokens, dims):
    """Size the scan's slab to tokens tokens of dims' [B, S, C] state."""
    monkeypatch.setattr(tensor_core, "_SCAN_RUN_ELEMENTS",
                        tokens * dims["batch"] * dims["channels"] * dims["state"])


def random_scan_inputs(rng, batch=1, channels=3, n=6, state=4):
    """Scan inputs u, dt, A_log, B, C, D, with u and dt token-major [B, N, C].
    The draws are those of the channel-major [B, C, N] layout, so the values
    do not depend on it. dt and A_log are drawn through the step size
    softplus(dt) in [0.05, 1.5] and the state matrix -exp(A_log) in
    [-3, -0.1]."""
    u = rng.standard_normal((batch, channels, n))
    delta = rng.uniform(0.05, 1.5, (batch, channels, n))
    a_mat = -rng.uniform(0.1, 3.0, (channels, state))
    b = rng.standard_normal((batch, n, state))
    c = rng.standard_normal((batch, n, state))
    d = rng.standard_normal(channels)
    u, delta = (np.ascontiguousarray(a.swapaxes(1, 2)) for a in (u, delta))
    return u, np.log(np.expm1(delta)), np.log(-a_mat), b, c, d


def with_signed_zeros(rng, arrays):
    """A copy of scan inputs with +0.0 and -0.0 in about a third of the token
    rows of u and of the entries of B, C and D; dt and A_log stay as drawn."""
    u, dt, a_log, b, c, d = (a.copy() for a in arrays)
    for x, lead in ((u, 2), (b, 3), (c, 3), (d, 1)):
        mask = rng.random(x.shape[:lead]) < 0.35
        signs = np.where(rng.random(int(mask.sum())) < 0.5, -0.0, 0.0)
        x[mask] = signs.reshape((-1,) + (1,) * (x.ndim - lead))
    return u, dt, a_log, b, c, d


class TestSelectiveScan:
    def test_length_one_no_recurrence(self):
        u, dt, a_log, b, c, d = random_scan_inputs(RNG, n=1)
        out = selective_scan(Tensor(u), Tensor(dt), Tensor(a_log), Tensor(b), Tensor(c), Tensor(d))
        delta, _ = discretize(dt, a_log)
        expected = ((delta[:, 0, :] * u[:, 0, :])[:, :, None] * b[:, None, 0, :] * c[:, None, 0, :]).sum(-1) \
            + d[None, :] * u[:, 0, :]
        np.testing.assert_allclose(out.data[:, 0, :], expected, rtol=1e-12)

    def test_large_negative_state_matrix_is_memoryless(self):
        u, dt, _, b, c, d = random_scan_inputs(RNG)
        a_log = np.full((3, 4), 20.0)
        out = selective_scan(Tensor(u), Tensor(dt), Tensor(a_log), Tensor(b), Tensor(c), Tensor(d))
        delta, _ = discretize(dt, a_log)
        memoryless = np.zeros_like(u)
        for t in range(u.shape[1]):
            dBu = (delta[:, t, :] * u[:, t, :])[:, :, None] * b[:, None, t, :]
            memoryless[:, t, :] = (dBu * c[:, None, t, :]).sum(-1) + d[None, :] * u[:, t, :]
        np.testing.assert_allclose(out.data, memoryless, atol=1e-12)

    def test_matches_naive_recurrence_oracle(self):
        u, dt, a_log, b, c, d = random_scan_inputs(RNG)
        out = selective_scan(Tensor(u), Tensor(dt), Tensor(a_log), Tensor(b), Tensor(c), Tensor(d))
        np.testing.assert_allclose(out.data, naive_scan(u, *discretize(dt, a_log), b, c, d), atol=1e-10)

    def test_oracle_sweep_random_dims(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            dims = dict(
                batch=int(rng.integers(1, 3)),
                channels=int(rng.integers(1, 9)),
                n=int(rng.integers(1, 17)),
                state=int(rng.integers(1, 9)),
            )
            u, dt, a_log, b, c, d = random_scan_inputs(rng, **dims)
            out = selective_scan(Tensor(u), Tensor(dt), Tensor(a_log), Tensor(b), Tensor(c), Tensor(d))
            assert np.abs(out.data - naive_scan(u, *discretize(dt, a_log), b, c, d)).max() < 1e-10

    def test_channel_major_input_rejected(self):
        u, dt, a_log, b, c, d = random_scan_inputs(np.random.default_rng(0), channels=3, n=6)
        u_cm, dt_cm = u.swapaxes(1, 2), dt.swapaxes(1, 2)   # [B, C, N]
        with pytest.raises(ShapeError):
            selective_scan(Tensor(u_cm), Tensor(dt_cm), Tensor(a_log), Tensor(b), Tensor(c), Tensor(d))

    @pytest.mark.parametrize("dt_shape", [(1, 6, 1), (1, 1, 3)], ids=["one_channel", "one_token"])
    def test_dt_shape_must_match_u(self, dt_shape):
        # a dt that broadcasts against u is refused, not spread over it
        u, dt, a_log, b, c, d = random_scan_inputs(np.random.default_rng(0), channels=3, n=6)
        with pytest.raises(ShapeError, match=r"dt shape \(1, \d, \d\) must match u \(1, 6, 3\)"):
            selective_scan(Tensor(u), Tensor(dt[:, :dt_shape[1], :dt_shape[2]]), Tensor(a_log),
                           Tensor(b), Tensor(c), Tensor(d))

    def test_nonpositive_delta_rejected(self):
        # softplus(-1000) is 0.0 in float64
        u, dt, a_log, b, c, d = random_scan_inputs(RNG)
        dt[0, 0, 0] = -1000.0
        with pytest.raises(NonPositiveStepError):
            selective_scan(Tensor(u), Tensor(dt), Tensor(a_log), Tensor(b), Tensor(c), Tensor(d))

    def test_softplus_underflow_in_float32_rejected(self):
        # softplus(-200) is 0.0 in float32; softplus(-100) is subnormal, still > 0
        arrays = [a.astype(np.float32) for a in random_scan_inputs(RNG)]
        arrays[1][0, 0, 0] = -100.0
        assert np.all(np.isfinite(selective_scan(*map(Tensor, arrays)).data))
        arrays[1][0, 0, 0] = -200.0
        with pytest.raises(NonPositiveStepError):
            selective_scan(*map(Tensor, arrays))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nan_step_rejected(self, dtype):
        # NaN <= 0 is false, so only a check that the step is > 0 catches it
        arrays = [a.astype(dtype) for a in random_scan_inputs(RNG, batch=1, channels=3, n=4)]
        arrays[1][0, 2, 1] = np.nan
        with pytest.raises(NonPositiveStepError, match="NaN"):
            selective_scan(*map(Tensor, arrays))

    def test_gradients_vs_finite_differences(self):
        # all six inputs, dt and A_log through the softplus and exp the node forms
        arrays = random_scan_inputs(np.random.default_rng(3), batch=1, channels=2, n=4, state=3)
        gradcheck(selective_scan, arrays, tol=1e-6)


class TestFusedScanOracle:
    """The fused scan node against the per-token tape scan it replaces."""

    @staticmethod
    def sweep_dims(rng):
        for trial in range(8):
            yield dict(
                batch=int(rng.integers(2, 4)),
                channels=int(rng.integers(1, 9)),
                n=(1, 3)[trial] if trial < 2 else int(rng.integers(1, 17)),
                state=int(rng.integers(1, 9)),
            )

    @staticmethod
    def sweep_inputs(rng):
        """Each sweep's inputs, then the same inputs with signed zeros."""
        for dims in TestFusedScanOracle.sweep_dims(rng):
            arrays = random_scan_inputs(rng, **dims)
            yield dims, arrays
            yield dict(dims, signed_zeros=True), with_signed_zeros(rng, arrays)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_bit_identical_to_tape_scan(self, dtype, monkeypatch):
        # byte equality, so a zero output must carry the reference's sign
        rng = np.random.default_rng(11)
        for run in RUN_TOKENS:
            for dims, arrays in self.sweep_inputs(rng):
                set_run_tokens(monkeypatch, run, dims)
                tensors = [Tensor(a.astype(dtype)) for a in arrays]
                got = selective_scan(*tensors).data
                want = tape_scan_oracle(*tensors).data
                assert got.dtype == dtype
                assert got.tobytes() == want.tobytes(), (run, dims)

    def test_gradients_match_tape_scan_float64(self, monkeypatch):
        rng = np.random.default_rng(12)
        for run in RUN_TOKENS:
            for dims, arrays in self.sweep_inputs(rng):
                set_run_tokens(monkeypatch, run, dims)
                probe = Tensor(rng.standard_normal(arrays[0].shape))
                grads = []
                for scan in (selective_scan, tape_scan_oracle):
                    leaves = [Tensor(a, requires_grad=True) for a in arrays]
                    grads.append(gradients((scan(*leaves) * probe).sum(), leaves))
                for idx, (got, want) in enumerate(zip(*grads)):
                    err = rel_error(got, want)
                    assert err < 1e-9, f"run {run}, {dims}, input {idx}: rel err {err}"

    def test_two_sweeps_over_one_graph_give_the_same_gradients(self, monkeypatch):
        # the backward reads the forward's run-end states; it must not write
        # them. A sweep consumes its graph, so the scan node's closure is run
        # twice by hand, on the same upstream gradient, before any sweep.
        # runs of 3 tokens, by the slab and by floor(sqrt(13)) alike: 5 runs,
        # the last of one token
        monkeypatch.setattr(tensor_core, "_SCAN_RUN_ELEMENTS", 3 * (3 * 4 * 2))
        rng = np.random.default_rng(14)
        arrays = random_scan_inputs(rng, batch=3, channels=4, n=13, state=2)
        g = rng.standard_normal(arrays[0].shape)
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        node = selective_scan(*leaves)._node
        sweeps = []
        for _ in range(2):
            for leaf in leaves:
                leaf.grad = None
            node._backward(g, *node._prev)
            sweeps.append([leaf.grad for leaf in leaves])
        for idx, (a, b) in enumerate(zip(*sweeps)):
            assert a.tobytes() == b.tobytes(), f"input {idx}"

    def test_node_keeps_run_end_states_not_every_state(self, monkeypatch):
        # runs of floor(sqrt(96)) = 9 tokens, past the slab's 8: 11 runs;
        # float64 states of every token would take every_state bytes
        batch, channels, n_tokens, state = 2, 32, 96, 16
        monkeypatch.setattr(tensor_core, "_SCAN_RUN_ELEMENTS", 8 * batch * channels * state)
        leaves = [Tensor(a, requires_grad=True) for a in random_scan_inputs(
            np.random.default_rng(15), batch=batch, channels=channels, n=n_tokens, state=state)]
        every_state = n_tokens * batch * state * channels * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = selective_scan(*leaves)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert kept < every_state / 2, f"{kept} bytes kept, all states are {every_state}"

    def test_node_keeps_no_token_sized_delta_u(self, monkeypatch):
        # 16 runs of 16 tokens: the run-end states and a slab are each a
        # quarter of an [N, B, C] array such as delta * u
        batch, channels, n_tokens, state, span = 2, 32, 256, 4, 16
        monkeypatch.setattr(tensor_core, "_SCAN_RUN_ELEMENTS", span * batch * channels * state)
        leaves = [Tensor(a, requires_grad=True) for a in random_scan_inputs(
            np.random.default_rng(16), batch=batch, channels=channels, n=n_tokens, state=state)]
        token_sized = n_tokens * batch * channels * 8
        ends = n_tokens // span * batch * state * channels * 8
        slab = span * batch * state * channels * 8
        assert selective_scan(*leaves).requires_grad
        kept = kept_bytes(lambda: selective_scan(*leaves))
        # the output, delta = softplus(dt), the run-end states and at most
        # one slab more
        limit = 2 * token_sized + ends + slab
        assert kept < limit, f"{kept} bytes kept, limit {limit}"

    @pytest.mark.parametrize("n_runs", [1, 4])
    def test_node_keeps_the_end_states_of_every_run_but_the_last(self, n_runs, monkeypatch):
        # runs of 8 tokens; no run starts from the last run's end state, so a
        # k-run scan keeps k - 1 end states and a one-run scan none
        batch, channels, state, span = 2, 64, 16, 8
        monkeypatch.setattr(tensor_core, "_SCAN_RUN_ELEMENTS", span * batch * channels * state)
        leaves = [Tensor(a, requires_grad=True) for a in random_scan_inputs(
            np.random.default_rng(17), batch=batch, channels=channels, n=n_runs * span, state=state)]
        token_sized = n_runs * span * batch * channels * 8
        end_state = batch * state * channels * 8
        kept = kept_bytes(lambda: selective_scan(*leaves))
        # the output, delta = softplus(dt), A^T and the end states, and less
        # than half an end state in Python objects
        arrays = 2 * token_sized + state * channels * 8 + (n_runs - 1) * end_state
        assert arrays <= kept < arrays + end_state // 2, f"{kept} bytes kept, arrays {arrays}"

    @pytest.mark.parametrize("n_tokens, n_ends", [(400, 19), (399, 20)])
    def test_runs_of_at_least_sqrt_n_tokens_bound_the_end_states(self, n_tokens, n_ends, monkeypatch):
        # a slab of one token's state asks for one-token runs, N - 1 end
        # states; runs of floor(sqrt(N)) tokens keep ceil(N / floor(sqrt(N))) - 1
        batch, channels, state = 2, 128, 16
        monkeypatch.setattr(tensor_core, "_SCAN_RUN_ELEMENTS", batch * channels * state)
        leaves = [Tensor(a, requires_grad=True) for a in random_scan_inputs(
            np.random.default_rng(20), batch=batch, channels=channels, n=n_tokens, state=state)]
        token_sized = n_tokens * batch * channels * 8
        end_state = batch * state * channels * 8
        kept = kept_bytes(lambda: selective_scan(*leaves))
        # the output, delta = softplus(dt), A^T and the end states
        ends = (kept - 2 * token_sized - state * channels * 8) / end_state
        assert n_ends <= ends < n_ends + 0.5, f"{ends:.2f} end states kept"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_run_partition_moves_only_a_logs_gradient(self, dtype, monkeypatch):
        # runs of 4 and of 7 tokens: A_log's gradient adds one partial sum a
        # run, so only its bits may differ; every other value is formed token
        # by token
        dims = dict(batch=2, channels=8, n=16, state=4)
        rng = np.random.default_rng(21)
        arrays = [a.astype(dtype) for a in random_scan_inputs(rng, **dims)]
        probe = Tensor(rng.standard_normal(arrays[0].shape).astype(dtype))
        results = []
        for tokens in (4, 7):
            set_run_tokens(monkeypatch, tokens, dims)
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            out = selective_scan(*leaves)
            results.append([out.data, *gradients((out * probe).sum(), leaves)])
        names = ("output", "u", "dt", "A_log", "B", "C", "D")
        for name, a, b in zip(names, *results):
            if name == "A_log":
                err = rel_error(a, b)
                assert err < 50 * np.finfo(dtype).eps, f"A_log: rel err {err}"
            else:
                assert a.tobytes() == b.tobytes(), name

    def test_zero_tokens_give_empty_outputs_and_gradients(self):
        arrays = random_scan_inputs(np.random.default_rng(18), batch=2, channels=3, n=0, state=4)
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = selective_scan(*leaves)
        assert out.data.shape == (2, 0, 3)
        for leaf, grad in zip(leaves, gradients(out.sum(), leaves)):
            assert grad.shape == leaf.data.shape
            assert not grad.any()

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
            # leaves are their own graph nodes
            assert out._node._prev == tuple(leaves)


class TestScanOperandLayout:
    """The scan works on token-major copies of delta, B, C and g. The layout
    it is given must not change a bit, and its in-place writes must not reach
    the caller's arrays, which at B=1 or N=1 are already token-major."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch,n", [(1, 6), (3, 1), (3, 6)])
    def test_strided_and_contiguous_b_c_give_the_same_bits(self, dtype, batch, n):
        rng = np.random.default_rng(16)
        u, dt, a_log, b, c, d = (a.astype(dtype) for a in random_scan_inputs(
            rng, batch=batch, channels=5, n=n, state=3))
        g = rng.standard_normal(u.shape).astype(dtype)
        before = [a.copy() for a in (u, dt, g)]
        results = []
        for strided in (True, False):
            if strided:   # as the model slices B and C out of one projection
                joint = Tensor(np.concatenate([b, c], axis=-1), requires_grad=True)
                b_t, c_t = joint[..., :3], joint[..., 3:]
                assert not b_t.data.flags.c_contiguous
            else:
                b_t, c_t = Tensor(b.copy(), requires_grad=True), Tensor(c.copy(), requires_grad=True)
            inputs = [Tensor(u, requires_grad=True), Tensor(dt, requires_grad=True),
                      Tensor(a_log, requires_grad=True), b_t, c_t, Tensor(d, requires_grad=True)]
            out = selective_scan(*inputs)
            node = out._node
            node._backward(g, *node._prev)
            # a slice's gradient is held by its graph node, a leaf's by the leaf
            results.append([out.data] + [p.grad for p in node._prev])
            for name, a, kept in zip(("u", "dt", "g"), (u, dt, g), before):
                assert a.tobytes() == kept.tobytes(), f"the backward wrote into the caller's {name}"
        for idx, (got, want) in enumerate(zip(*results)):
            assert got.dtype == dtype
            assert got.tobytes() == want.tobytes(), f"array {idx} differs"


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


def tiny_params(embed_dim=8, n_tokens=4, seed=0):
    return MambaParams.init(embed_dim, n_tokens, np.random.default_rng(seed))


class TestMambaForward:
    def test_output_shape_matches_input(self):
        p = MambaParams.init(32, 7, np.random.default_rng(0))
        out = mamba_forward(Tensor(RNG.standard_normal((2, 7, 32))), p)
        assert out.data.shape == (2, 7, 32)

    def test_conv_width_clamped_to_tokens(self):
        for n_tokens, width in ((4, 4), (CONV_WIDTH, CONV_WIDTH), (40, CONV_WIDTH)):
            p = MambaParams.init(8, n_tokens, np.random.default_rng(0))
            assert p.conv.weight.data.shape[1] == width

    def test_zero_input_zero_biases_gives_zero(self):
        p = tiny_params()
        for layer in (p.in_proj, p.x_proj, p.dt_proj, p.out_proj, p.conv):
            layer.bias.data[:] = 0.0
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
        probe = np.random.default_rng(9).standard_normal((1, 4, 8))
        check_parameter_gradients(lambda: (mamba_forward(Tensor(x), p) * Tensor(probe)).sum(),
                                  named_tensors(p), tol=1e-4)


class TestBidirectional:
    def test_identity_stub_algebra(self, monkeypatch):
        # with the scan replaced by identity: value = x + x[:, ::-1][:, ::-1] = 2x
        monkeypatch.setattr(mamba, "mamba_forward", lambda t, p: t)
        x = RNG.standard_normal((2, 5, 3))
        out = bidirectional_mamba(Tensor(x), None, None)
        np.testing.assert_allclose(out.data, 2 * x, rtol=1e-12)

    def test_reverse_is_involution(self):
        x = RNG.standard_normal((2, 5, 3))
        np.testing.assert_array_equal(Tensor(x)[:, ::-1][:, ::-1].data, x)

    def test_compositional_oracle_shared_params(self):
        p = tiny_params()
        x = RNG.standard_normal((2, 4, 8))
        got = bidirectional_mamba(Tensor(x), p, p).data
        normal = mamba_forward(Tensor(x), p).data
        rev_branch = mamba_forward(Tensor(x[:, ::-1, :].copy()), p).data
        np.testing.assert_allclose(got, normal + rev_branch[:, ::-1, :], atol=1e-12)

    @pytest.mark.parametrize("n_tokens", [7, 21])
    def test_every_output_token_sees_every_input_token(self, n_tokens):
        # float64 gradients: a structurally unreachable input token gets an
        # exact zero, and every reachable one a non-zero gradient. A sweep
        # consumes its graph, so each output token gets its own forward.
        p_fwd = tiny_params(8, n_tokens, seed=1)
        p_bwd = tiny_params(8, n_tokens, seed=2)
        x = Tensor(np.random.default_rng(5).standard_normal((1, n_tokens, 8)), requires_grad=True)
        probe = np.random.default_rng(6).standard_normal(x.data.shape)
        for i in range(n_tokens):
            mask = np.zeros_like(probe)
            mask[:, i, :] = probe[:, i, :]
            out = bidirectional_mamba(x, p_fwd, p_bwd)
            (grad,) = gradients((out * Tensor(mask)).sum(), [x])
            seen = np.abs(grad[0]).max(axis=1) > 0
            assert seen.all(), f"output token {i} misses input tokens {np.flatnonzero(~seen)}"

    @pytest.mark.parametrize("n_tokens,embed_dim", [(4, 8), (21, 16)])
    def test_tape_nodes_per_call(self, n_tokens, embed_dim):
        # 13 nodes a direction, the flip back of the reversed branch and the
        # sum; reversing an input that needs no gradient adds no node
        p_fwd = tiny_params(embed_dim, n_tokens, seed=1)
        p_bwd = tiny_params(embed_dim, n_tokens, seed=2)
        x = np.random.default_rng(0).standard_normal((2, n_tokens, embed_dim))
        out = bidirectional_mamba(Tensor(x), p_fwd, p_bwd)
        assert tape_nodes(out) == 28
