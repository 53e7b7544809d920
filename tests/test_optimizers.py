import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmetasim import (
    Batch,
    ClientOptimizerConfig,
    ContractViolation,
    NumericError,
    ServerOptimizerState,
    ModelSpec,
    init_params,
    make_client_batches,
    server_apply,
    sgd_trajectory,
    substream,
)
from fedmetasim.data import ClientDataset
from fedmetasim.optimizers import adam_step, sgd_update
from util import make_client, reference_adam_step, reference_client_batches


class TestServerSgd:
    def test_unit_lr_adds_delta(self):
        state = ServerOptimizerState("sgd", lr=1.0)
        params = np.array([1.0, -2.0, 0.5])
        delta = np.array([0.25, 0.5, -1.0])
        new, state2 = server_apply(state, params, delta)
        assert np.array_equal(new, params + delta)
        assert state2.step_count == 1

    def test_non_finite_delta_rejected(self):
        state = ServerOptimizerState("sgd", lr=1.0)
        with pytest.raises(NumericError):
            server_apply(state, np.zeros(2), np.array([1.0, np.inf]))

    def test_dim_mismatch_rejected(self):
        state = ServerOptimizerState("sgd", lr=1.0)
        with pytest.raises(ContractViolation):
            server_apply(state, np.zeros(2), np.zeros(3))

    def test_overflowing_step_rejected(self):
        # A finite delta can still carry the parameters past the float range.
        state = ServerOptimizerState("sgd", lr=10.0)
        with pytest.raises(NumericError, match="after the server step"):
            server_apply(state, np.array([1e308]), np.array([1e308]))


class TestServerMomentum:
    def test_first_step_equals_sgd(self):
        params = np.array([0.0, 1.0])
        delta = np.array([0.3, -0.7])
        m_state = ServerOptimizerState("momentum", lr=0.5, momentum=0.9)
        new, _ = server_apply(m_state, params, delta)
        assert np.array_equal(new, params + 0.5 * delta)

    def test_zero_momentum_matches_sgd_bitwise(self):
        rng = np.random.default_rng(0)
        params = rng.normal(size=5)
        m_state = ServerOptimizerState("momentum", lr=0.7, momentum=0.0)
        s_state = ServerOptimizerState("sgd", lr=0.7)
        for _ in range(6):
            delta = rng.normal(size=5)
            p_m, m_state = server_apply(m_state, params, delta)
            p_s, s_state = server_apply(s_state, params, delta)
            assert np.array_equal(p_m, p_s)
            params = p_m

    def test_velocity_accumulates(self):
        params = np.zeros(2)
        delta = np.array([1.0, 1.0])
        state = ServerOptimizerState("momentum", lr=1.0, momentum=0.5)
        p1, state = server_apply(state, params, delta)
        p2, state = server_apply(state, p1, delta)
        # second velocity = 0.5 * 1 + 1 = 1.5
        np.testing.assert_allclose(p2 - p1, 1.5 * delta)

    def test_does_not_mutate_inputs(self):
        fresh = ServerOptimizerState("momentum", lr=1.0, momentum=0.9)
        params = np.array([1.0, 2.0])
        delta = np.array([0.5, 0.5])
        _, state = server_apply(fresh, params, delta)
        assert fresh.velocity is None and fresh.step_count == 0
        old_velocity = state.velocity.copy()
        server_apply(state, params, delta)
        assert np.array_equal(state.velocity, old_velocity)
        assert state.step_count == 1


class TestServerAdam:
    def test_first_step_normalized_delta(self):
        params = np.array([0.0, 0.0, 0.0])
        delta = np.array([0.4, -0.02, 1e-12])
        lr, eps = 0.05, 1e-8
        state = ServerOptimizerState("adam", lr=lr, eps=eps)
        new, state2 = server_apply(state, params, delta)
        expected = params + lr * delta / (np.abs(delta) + eps)
        np.testing.assert_allclose(new, expected, rtol=1e-12)
        assert state2.step_count == 1

    def test_first_step_magnitude_bounded_by_lr(self):
        rng = np.random.default_rng(1)
        lr = 0.3
        state = ServerOptimizerState("adam", lr=lr)
        new, _ = server_apply(state, np.zeros(8), rng.normal(size=8))
        assert np.all(np.abs(new) <= lr * (1 + 1e-9))

    def test_step_count_increments_by_one(self):
        state = ServerOptimizerState("adam", lr=0.1)
        params = np.zeros(2)
        for t in range(1, 5):
            params, state = server_apply(state, params, np.array([0.1, -0.1]))
            assert state.step_count == t

    def test_pure_transition(self):
        state = ServerOptimizerState("adam", lr=0.1)
        params = np.array([1.0, -1.0])
        delta = np.array([0.2, 0.1])
        a1 = server_apply(state, params, delta)
        a2 = server_apply(state, params, delta)
        assert np.array_equal(a1[0], a2[0])
        assert np.array_equal(a1[1].m, a2[1].m)

    def test_state_buffers_untouched_and_unshared(self):
        rng = np.random.default_rng(2)
        state = ServerOptimizerState("adam", lr=0.1)
        params = rng.normal(size=6)
        params, state = server_apply(state, params, rng.normal(size=6))
        m_bytes, v_bytes = state.m.tobytes(), state.v.tobytes()
        params_bytes = params.tobytes()
        new_params, new_state = server_apply(state, params, rng.normal(size=6))
        assert (state.m.tobytes(), state.v.tobytes()) == (m_bytes, v_bytes)
        assert params.tobytes() == params_bytes
        for old in (state.m, state.v, params):
            for new in (new_state.m, new_state.v, new_params):
                assert not np.shares_memory(old, new)

    def test_steps_match_reference_adam(self):
        rng = np.random.default_rng(3)
        lr, beta1, beta2, eps = 0.05, 0.8, 0.99, 1e-6
        state = ServerOptimizerState("adam", lr=lr, beta1=beta1, beta2=beta2, eps=eps)
        params = rng.normal(size=5)
        expected, m, v = params, np.zeros(5), np.zeros(5)
        for t in range(1, 5):
            delta = rng.normal(size=5)
            params, state = server_apply(state, params, delta)
            expected, m, v = reference_adam_step(expected, -delta, m, v, t, lr, beta1, beta2, eps)
            assert params.tobytes() == expected.tobytes()
            assert (state.m.tobytes(), state.v.tobytes()) == (m.tobytes(), v.tobytes())


adam_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e150, -1e150, 1e300, -1e300]),
    st.floats(-1e6, 1e6),
)


class TestAdamStep:
    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 8),
        t=st.integers(1, 100_000),
        lr=st.floats(1e-8, 10.0),
        beta1=st.floats(0.0, 0.999999),
        beta2=st.floats(0.0, 0.999999),
        eps=st.floats(1e-300, 1.0),
    )
    def test_in_place_matches_reference(self, data, n, t, lr, beta1, beta2, eps):
        vector = st.lists(adam_values, min_size=n, max_size=n).map(np.array)
        params, g, m = data.draw(vector), data.draw(vector), data.draw(vector)
        v = np.abs(data.draw(vector))
        with np.errstate(all="ignore"):
            expected = reference_adam_step(params, g, m, v, t, lr, beta1, beta2, eps)
            inputs = params.tobytes(), g.tobytes()
            out, scratch = np.empty(n), np.empty(n)
            adam_step(params, g, m, v, t, lr, beta1, beta2, eps, out=out, scratch=scratch)
        assert (out.tobytes(), m.tobytes(), v.tobytes()) == tuple(
            a.tobytes() for a in expected
        )
        assert (params.tobytes(), g.tobytes()) == inputs


class TestCreateValidation:
    def test_unknown_kind(self):
        with pytest.raises(ContractViolation):
            ServerOptimizerState("nesterov", lr=0.1)

    def test_bad_momentum(self):
        with pytest.raises(ContractViolation):
            ServerOptimizerState("momentum", lr=0.1, momentum=1.0)

    def test_bad_lr(self):
        with pytest.raises(ContractViolation):
            ServerOptimizerState("sgd", lr=0.0)

    @pytest.mark.parametrize("field, value", [
        ("lr", float("nan")), ("beta1", 1.0), ("beta1", -0.1),
        ("beta2", 1.5), ("eps", -1.0), ("eps", 0.0),
        ("lr", float("inf")), ("eps", float("inf")),
    ])
    def test_bad_hyperparameter_named(self, field, value):
        with pytest.raises(ContractViolation, match=f"^server {field} must "):
            ServerOptimizerState("adam", **{"lr": 0.1, field: value})

    @pytest.mark.parametrize("lr", [-0.5, float("nan")])
    def test_client_lr_negative_or_nan_rejected(self, lr):
        with pytest.raises(ContractViolation, match="client lr"):
            ClientOptimizerConfig(lr=lr, batch_size=4)

    def test_defaults_are_valid_for_every_kind(self):
        for kind in ("sgd", "momentum", "adam"):
            state = ServerOptimizerState(kind, lr=0.1)
            assert (state.momentum, state.beta1, state.beta2, state.eps) == (0.9, 0.9, 0.999, 1e-8)
            assert state.velocity is None and state.m is None and state.v is None


class TestClientBatches:
    def test_single_full_batch(self):
        client = make_client(np.random.default_rng(0), n_train=20)
        cfg = ClientOptimizerConfig(lr=0.02, batch_size=20)
        batches = list(make_client_batches(client, 1, cfg.batch_size, substream(0, "b")))
        assert len(batches) == 1
        assert batches[0].n == 20

    def test_one_batch_per_epoch(self):
        client = make_client(np.random.default_rng(1), n_train=20)
        cfg = ClientOptimizerConfig(lr=0.02, batch_size=20)
        batches = list(make_client_batches(client, 10, cfg.batch_size, substream(1, "b")))
        assert [b.n for b in batches] == [20] * 10

    def test_chunk_arithmetic_with_short_tail(self):
        client = make_client(np.random.default_rng(2), n_train=45)
        cfg = ClientOptimizerConfig(lr=0.02, batch_size=20)
        batches = list(make_client_batches(client, 6, cfg.batch_size, substream(2, "b")))
        assert [b.n for b in batches] == [20, 20, 5, 20, 20, 5]

    def test_each_epoch_covers_every_example(self):
        client = make_client(np.random.default_rng(3), n_train=13)
        cfg = ClientOptimizerConfig(lr=0.02, batch_size=5)
        batches = list(make_client_batches(client, 6, cfg.batch_size, substream(3, "b")))
        for epoch_batches in (batches[:3], batches[3:]):
            xs = np.concatenate([b.x for b in epoch_batches])
            assert xs.shape[0] == 13
            assert np.array_equal(
                np.sort(xs, axis=0), np.sort(client.train.x, axis=0)
            )

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 45),
        batch_size=st.integers(1, 9),
        steps=st.integers(1, 100),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_epoch_loop(self, n, batch_size, steps, seed):
        client = make_client(np.random.default_rng(seed), n_train=n)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = list(make_client_batches(client, steps, batch_size, rng))
        expected = reference_client_batches(client, steps, batch_size, ref_rng)
        assert [(b.x.tobytes(), b.y.tobytes()) for b in got] == [
            (b.x.tobytes(), b.y.tobytes()) for b in expected
        ]
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_no_steps_or_no_training_data_refused(self):
        client = make_client(np.random.default_rng(7), n_train=5)
        with pytest.raises(ContractViolation, match="steps must be positive"):
            make_client_batches(client, 0, 2, substream(7, "b"))
        empty = ClientDataset(train=client.train[np.arange(0)], test=client.test)
        with pytest.raises(ContractViolation, match="no training data"):
            make_client_batches(empty, 1, 2, substream(7, "b"))

    @pytest.mark.parametrize("batch_size", [-3, 0, 2.5, "2", None])
    def test_batch_size_not_a_positive_int_refused_at_the_call(self, batch_size):
        client = make_client(np.random.default_rng(7), n_train=5)
        with pytest.raises(ContractViolation, match="batch size must be a positive int"):
            make_client_batches(client, 3, batch_size, substream(7, "b"))

    def test_numpy_int_batch_size_accepted(self):
        client = make_client(np.random.default_rng(7), n_train=5)
        batches = make_client_batches(client, 3, np.int64(2), substream(7, "b"))
        assert [b.n for b in batches] == [2, 2, 1]

    def test_deterministic_in_stream(self):
        client = make_client(np.random.default_rng(4), n_train=17)
        cfg = ClientOptimizerConfig(lr=0.02, batch_size=4)
        a = list(make_client_batches(client, 2, cfg.batch_size, substream(9, "b", 0)))
        b = list(make_client_batches(client, 2, cfg.batch_size, substream(9, "b", 0)))
        assert all(np.array_equal(x.x, y.x) for x, y in zip(a, b))

    def test_config_validation(self):
        with pytest.raises(ContractViolation):
            ClientOptimizerConfig(lr=0.02, batch_size=0)
        with pytest.raises(ContractViolation):
            ClientOptimizerConfig(lr=-0.1, batch_size=5)

    def test_minibatches_are_views_and_no_step_builds_a_batch(self, monkeypatch):
        # Hot-path guard: one epoch is one gather of the split, its
        # minibatches are read-only views into it, and stepping over them
        # converts and range-checks nothing again.
        client = make_client(np.random.default_rng(5), n_train=23)
        batches = list(make_client_batches(client, 10, 5, substream(5, "b")))
        for epoch in (batches[:5], batches[5:]):
            x, y = epoch[0].x.base, epoch[0].y.base
            assert x.shape == (23, 4) and y.shape == (23,)
            assert not np.shares_memory(x, client.train.x)
            for batch in epoch:
                assert not batch.x.flags.writeable and not batch.y.flags.writeable
                assert batch.x.base is x and np.shares_memory(batch.x, x)
                assert batch.y.base is y and np.shares_memory(batch.y, y)
                assert batch.label_bound == client.train.label_bound
        assert batches[0].x.base is not batches[5].x.base

        spec = ModelSpec(4, (6, 3))
        built, post_init = [0], Batch.__post_init__

        def counting(self):
            built[0] += 1
            post_init(self)

        monkeypatch.setattr(Batch, "__post_init__", counting)
        schedules = [make_client_batches(client, 15, 5, substream(6, "b", i)) for i in range(2)]
        _, _, failures = sgd_trajectory(
            spec, init_params(spec, substream(6, "init")), schedules, sgd_update(0.1)
        )
        assert failures == [None, None]
        assert built == [0]
