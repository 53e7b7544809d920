import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fedmetasim import (
    Batch,
    ClientOptimizerConfig,
    ContractViolation,
    DivergenceError,
    EvalConfig,
    ModelSpec,
    PersonalizationConfig,
    RoundConfig,
    ServerOptimizerState,
    StageConfig,
    RoundTrace,
    decompose_round,
    eval_population,
    generate_synthetic,
    gradient,
    init_params,
    make_client_batches,
    run_personalized_fedavg,
    run_round,
    run_stage,
    sample_clients,
    split_train_eval,
    substream,
)
from fedmetasim.data import ClientDataset, FederatedDataset
from fedmetasim.errors import NumericError
from util import (
    drain,
    make_client,
    onehot,
    quad_hessian,
    quad_linear_term,
    reference_local_update,
    reference_round_updates,
)

CFG = ClientOptimizerConfig(lr=0.05, batch_size=20)


def fedavg(client_cfg, **local):
    """Single-client fedavg round config; ``local`` picks epochs or steps."""
    return RoundConfig("fedavg", 1, client_cfg, **local)


def reptile(client_cfg, steps):
    return RoundConfig("reptile", 1, client_cfg, steps=steps)


def quadratic_client(seed, d=3, c=2, n=8):
    """Client whose loss is an affine quadratic in the parameters."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = rng.integers(0, c, size=n)
    spec = ModelSpec(d, (c,), activation="identity", loss="quadratic")
    client = ClientDataset(train=Batch(x, y), test=Batch(x[:2], y[:2]))
    a = quad_hessian(spec, x)
    lin = quad_linear_term(spec, x, onehot(y, c))
    return spec, client, a, lin


def round_weight(spec, params, client, cfg):
    """The aggregation weight ``run_round`` gives ``client`` as the one
    client of a round."""
    ds = FederatedDataset(
        clients={0: client},
        train_client_ids=(0,),
        eval_client_ids=(),
        input_dim=spec.input_dim,
        num_classes=spec.num_classes,
    )
    server = ServerOptimizerState("sgd", lr=1.0)
    _, _, trace = run_round(spec, params, ds, cfg, server, 0, 0)
    return trace.weights[0]


class TestSampleClients:
    def test_exhaustive_sample_sorted(self):
        ids = (5, 1, 9, 3)
        assert sample_clients(ids, 4, substream(0, "s")) == [1, 3, 5, 9]

    def test_singleton(self):
        assert len(sample_clients((1, 2, 3), 1, substream(0, "s"))) == 1

    def test_deterministic(self):
        ids = tuple(range(30))
        a = sample_clients(ids, 7, substream(4, "s", 12))
        b = sample_clients(ids, 7, substream(4, "s", 12))
        assert a == b

    def test_distinct_without_replacement(self):
        picked = sample_clients(tuple(range(10)), 8, substream(1, "s"))
        assert len(set(picked)) == 8

    def test_oversample_rejected(self):
        with pytest.raises(ContractViolation):
            sample_clients((1, 2), 3, substream(0, "s"))

    @pytest.mark.parametrize("m", [0, -2])
    def test_count_below_one_rejected(self, m):
        with pytest.raises(ContractViolation, match=f"cannot sample {m} of 6 train clients"):
            sample_clients(range(6), m, substream(0, "s"))


class TestClientUpdate:
    def test_single_epoch_full_batch_is_one_step(self):
        client = make_client(np.random.default_rng(0), n_train=20)
        spec = ModelSpec(4, (6, 3))
        params = init_params(spec, substream(0, "init"))
        delta, _ = reference_local_update(
            spec, params, client, fedavg(CFG, epochs=1), substream(0, "b", 0)
        )
        batch = list(make_client_batches(client, 1, CFG.batch_size, substream(0, "b", 0)))[0]
        expected = -CFG.lr * gradient(spec, params, batch)
        np.testing.assert_allclose(delta, expected, rtol=0, atol=5e-15)

    def test_zero_lr_zero_delta(self):
        client = make_client(np.random.default_rng(1), n_train=12)
        spec = ModelSpec(4, (6, 3))
        params = init_params(spec, substream(1, "init"))
        cfg = ClientOptimizerConfig(lr=0.0, batch_size=4)
        delta, _ = reference_local_update(
            spec, params, client, fedavg(cfg, epochs=3), substream(1, "b")
        )
        assert np.array_equal(delta, np.zeros_like(params))
        assert round_weight(spec, params, client, fedavg(cfg, epochs=3)) == 12.0

    def test_uniform_weight_is_one(self):
        client = make_client(np.random.default_rng(2), n_train=9)
        spec = ModelSpec(4, (6, 3))
        params = init_params(spec, substream(2, "init"))
        cfg = fedavg(CFG, epochs=1, weighting="uniform")
        assert round_weight(spec, params, client, cfg) == 1.0

    def test_quadratic_affine_recurrence(self):
        # Oracle: iterate theta <- theta - beta (A theta - c) with A, c built
        # from the batch by explicit Jacobian assembly.
        spec, client, a, lin = quadratic_client(seed=5, n=8)
        params = np.random.default_rng(5).normal(size=spec.param_count)
        beta = 0.2 / np.linalg.eigvalsh(a).max()
        cfg = ClientOptimizerConfig(lr=beta, batch_size=50)  # full batch
        k = 5
        delta, _ = reference_local_update(
            spec, params, client, fedavg(cfg, epochs=k), substream(5, "b")
        )
        expected = params.copy()
        for _ in range(k):
            expected = expected - beta * (a @ expected - lin)
        np.testing.assert_allclose(delta, expected - params, rtol=1e-9, atol=1e-12)

    def test_trace_records_per_step_gradients(self):
        client = make_client(np.random.default_rng(3), n_train=10)
        spec = ModelSpec(4, (6, 3))
        params = init_params(spec, substream(3, "init"))
        cfg = ClientOptimizerConfig(lr=0.05, batch_size=5)
        delta, grads = reference_local_update(
            spec, params, client, fedavg(cfg, epochs=2), substream(3, "b"), trace=True
        )
        assert grads.shape == (4, spec.param_count)  # 2 epochs x 2 batches
        total = sum(grads)
        np.testing.assert_allclose(delta, -cfg.lr * total, rtol=0, atol=1e-14)
        untraced = reference_local_update(
            spec, params, client, fedavg(cfg, epochs=2), substream(3, "b")
        )
        assert np.array_equal(untraced[0], delta) and untraced[1] is None


class TestInnerLoopReptile:
    def test_single_step_matches_first_gradient(self):
        client = make_client(np.random.default_rng(4), n_train=20)
        spec = ModelSpec(4, (6, 3))
        params = init_params(spec, substream(4, "init"))
        delta, _ = reference_local_update(spec, params, client, reptile(CFG, 1), substream(4, "b"))
        batch = list(make_client_batches(client, 1, CFG.batch_size, substream(4, "b")))[0]
        np.testing.assert_allclose(
            delta, -CFG.lr * gradient(spec, params, batch), rtol=0, atol=5e-15
        )
        assert round_weight(spec, params, client, reptile(CFG, 1)) == 1.0

    def test_step_count_exact(self):
        client = make_client(np.random.default_rng(5), n_train=7)
        spec = ModelSpec(4, (6, 3))
        params = init_params(spec, substream(5, "init"))
        cfg = ClientOptimizerConfig(lr=0.05, batch_size=3)
        _, grads = reference_local_update(
            spec, params, client, reptile(cfg, 5), substream(5, "b"), trace=True
        )
        assert len(grads) == 5

    def test_quadratic_closed_form(self):
        spec, client, a, lin = quadratic_client(seed=6, n=10)
        params = np.random.default_rng(6).normal(size=spec.param_count)
        beta = 0.15 / np.linalg.eigvalsh(a).max()
        cfg = ClientOptimizerConfig(lr=beta, batch_size=50)
        k = 4
        delta, _ = reference_local_update(spec, params, client, reptile(cfg, k), substream(6, "b"))
        expected = params.copy()
        for _ in range(k):
            expected = expected - beta * (a @ expected - lin)
        np.testing.assert_allclose(delta, expected - params, rtol=1e-9, atol=1e-12)


class TestFomamlUpdate:
    """The FedSGD and FOMAML terms ``decompose_round`` builds from traced
    trajectories: row k is -beta times the clients' mean (k+1)th gradient."""

    def traced(self, seed, steps):
        client = make_client(np.random.default_rng(seed), n_train=12)
        spec = ModelSpec(4, (6, 3))
        params = init_params(spec, substream(seed, "init"))
        cfg = ClientOptimizerConfig(lr=0.05, batch_size=4)
        _, grads = reference_local_update(
            spec, params, client, reptile(cfg, steps), substream(seed, "b"), trace=True
        )
        return grads

    def terms(self, grads, beta):
        """[FedSGD term, FOMAML term 1, ...] of a uniform round with ``grads``."""
        m, p = len(grads), grads[0].shape[1]
        trace = RoundTrace(
            0, list(range(m)), np.ones(m), np.zeros((m, p)), np.zeros(p), beta, grads
        )
        report = decompose_round(trace)
        return [report.g_fedsgd, *report.g_fomaml_by_j]

    def test_k0_is_mean_first_gradient(self):
        lists = [self.traced(s, 3) for s in (0, 1, 2)]
        got = self.terms(lists, 0.05)[0]
        expected = -0.05 * np.mean([g[0] for g in lists], axis=0)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-16)

    def test_single_client(self):
        lists = [self.traced(7, 4)]
        got = self.terms(lists, 0.1)[2]
        np.testing.assert_allclose(got, -0.1 * lists[0][2], rtol=0, atol=1e-16)

    def test_matches_replayed_trajectories(self):
        # Replay oracle: rebuild each client's batch sequence from the same
        # stream and redo the SGD steps by hand.
        spec = ModelSpec(4, (6, 3))
        cfg = ClientOptimizerConfig(lr=0.05, batch_size=4)
        clients = [make_client(np.random.default_rng(s), n_train=12) for s in (0, 1, 2)]
        params = init_params(spec, substream(9, "init"))
        k = 3

        lists = [
            reference_local_update(
                spec, params, c, reptile(cfg, k + 1), substream(9, "b", i), trace=True
            )[1]
            for i, c in enumerate(clients)
        ]
        got = self.terms(lists, cfg.lr)[k]

        replayed = []
        for i, c in enumerate(clients):
            batches = list(make_client_batches(c, k + 1, cfg.batch_size, substream(9, "b", i)))
            theta = params.copy()
            for b in batches[:k]:
                theta = theta - cfg.lr * gradient(spec, theta, b)
            replayed.append(gradient(spec, theta, batches[k]))
        expected = -cfg.lr * np.mean(replayed, axis=0)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-15)


class TestLocalUpdate:
    def test_fomaml_delta_is_scaled_gradient_at_adapted_params(self):
        # Replay: K plain SGD steps by hand, then -beta times the gradient at
        # theta_K on batch K+1; equal at atol=0 since the arithmetic matches.
        client = make_client(np.random.default_rng(20), n_train=10)
        spec = ModelSpec(4, (6, 3))
        params = init_params(spec, substream(20, "init"))
        cfg = ClientOptimizerConfig(lr=0.05, batch_size=4)
        k = 3
        fomaml = RoundConfig("fomaml", 1, cfg, steps=k)
        delta, _ = reference_local_update(spec, params, client, fomaml, substream(20, "b"))
        batches = list(make_client_batches(client, k + 1, cfg.batch_size, substream(20, "b")))
        theta = params.copy()
        for b in batches[:k]:
            theta = theta - cfg.lr * gradient(spec, theta, b)
        expected = -cfg.lr * gradient(spec, theta, batches[k])
        assert np.array_equal(delta, expected)
        assert round_weight(spec, params, client, fomaml) == 1.0

    def test_fomaml_nonfinite_extra_gradient_names_step(self):
        # Two single-example batches; the second holds a feature so large
        # that the quadratic-loss gradient overflows. Pick the stream that
        # puts it last, so only fomaml's extra gradient is non-finite.
        spec = ModelSpec(3, (2,), activation="identity", loss="quadratic")
        x = np.array([[0.5, -0.2, 0.1], [1e200, 1e200, 1e200]])
        client = ClientDataset(
            train=Batch(x, np.array([0, 1])), test=Batch(x[:1], np.array([0]))
        )
        seed = next(
            s for s in range(50)
            if list(make_client_batches(client, 2, 1, substream(s, "b")))[1].x[0, 0] > 1.0
        )
        cfg = RoundConfig("fomaml", 1, ClientOptimizerConfig(0.01, 1), steps=1)
        params = np.full(spec.param_count, 0.3)
        with pytest.raises(DivergenceError) as err:
            reference_local_update(spec, params, client, cfg, substream(seed, "b"))
        assert err.value.step_index == 1

    def test_step_counted_fedavg_weights_by_train_size(self):
        client = make_client(np.random.default_rng(21), n_train=13)
        spec = ModelSpec(4, (6, 3))
        params = init_params(spec, substream(21, "init"))
        cfg = ClientOptimizerConfig(lr=0.05, batch_size=4)
        delta, _ = reference_local_update(
            spec, params, client, fedavg(cfg, steps=5), substream(21, "b")
        )
        assert round_weight(spec, params, client, fedavg(cfg, steps=5)) == client.train.n == 13
        rep, _ = reference_local_update(spec, params, client, reptile(cfg, 5), substream(21, "b"))
        assert np.array_equal(delta, rep)
        assert round_weight(spec, params, client, reptile(cfg, 5)) == 1.0


class TestRoundConfig:
    def test_fedsgd_pins_single_step(self):
        cfg = RoundConfig("fedsgd", 2, CFG)
        assert cfg.steps == 1
        with pytest.raises(ContractViolation):
            RoundConfig("fedsgd", 2, CFG, steps=3)

    def test_fedavg_needs_exactly_one_mode(self):
        with pytest.raises(ContractViolation):
            RoundConfig("fedavg", 2, CFG)
        with pytest.raises(ContractViolation):
            RoundConfig("fedavg", 2, CFG, epochs=2, steps=3)

    def test_reptile_defaults_uniform(self):
        cfg = RoundConfig("reptile", 2, CFG, steps=3)
        assert cfg.weighting == "uniform"
        with pytest.raises(ContractViolation):
            RoundConfig("reptile", 2, CFG, steps=3, weighting="data_proportional")

    def test_fedavg_defaults_data_proportional(self):
        assert RoundConfig("fedavg", 2, CFG, epochs=1).weighting == "data_proportional"


def toy_dataset(seed=0, num_clients=6, examples=20):
    return generate_synthetic(
        seed=seed,
        num_clients=num_clients,
        classes_per_client=3,
        examples_per_client=examples,
        input_dim=4,
        num_classes=3,
        heterogeneity=0.5,
    )


class TestRunRound:
    def test_single_client_sgd_server_is_one_local_run(self):
        ds = toy_dataset(num_clients=1)
        spec = ModelSpec(4, (6, 3))
        params = init_params(spec, substream(3, "init"))
        cfg = RoundConfig("fedavg", 1, ClientOptimizerConfig(0.05, 100), epochs=1)
        server = ServerOptimizerState("sgd", lr=1.0)
        new_params, _, trace = run_round(spec, params, ds, cfg, server, 0, 3)
        batch = list(make_client_batches(
            ds.clients[0], 1, cfg.client_cfg.batch_size, substream(3, "round.batch", 0, 0)
        ))[0]
        expected = params - 0.05 * gradient(spec, params, batch)
        np.testing.assert_allclose(new_params, expected, rtol=0, atol=5e-15)
        assert trace.client_ids == [0]

    @settings(max_examples=40, deadline=None)
    @given(
        num_clients=st.integers(1, 7),
        data=st.data(),
        examples=st.integers(2, 40),
        seed=st.integers(0, 2**16),
    )
    def test_uniform_equals_proportional_for_equal_data(self, num_clients, data, examples, seed):
        # Equal client sizes make every data-proportional weight n / (M n),
        # which rounds to exactly 1 / M.
        m = data.draw(st.integers(1, num_clients))
        ds = toy_dataset(seed=seed, num_clients=num_clients, examples=examples)
        assert len({c.train.n for c in ds.clients.values()}) == 1
        spec = ModelSpec(4, (6, 3))
        params = init_params(spec, substream(seed, "init"))
        server = ServerOptimizerState("sgd", lr=1.0)
        out = {}
        for weighting in ("data_proportional", "uniform"):
            cfg = RoundConfig(
                "fedavg", m, ClientOptimizerConfig(0.05, 8), epochs=2, weighting=weighting
            )
            new, _, trace = run_round(spec, params, ds, cfg, server, 0, seed)
            out[weighting] = new.tobytes(), trace.aggregate.tobytes()
        assert out["uniform"] == out["data_proportional"]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), weighting=st.sampled_from(["data_proportional", "uniform"]))
    def test_aggregate_is_weighted_mean_of_client_updates(self, data, weighting):
        # Quadratic clients of unequal train sizes; the expected aggregate is
        # rebuilt from per-client reference_local_update calls and the
        # clients' own weights: exact in ascending-id order, within roundoff
        # in any order.
        sizes = data.draw(st.lists(st.integers(2, 30), min_size=1, max_size=8))
        seed = data.draw(st.integers(0, 2**16))
        clients = {cid: quadratic_client(seed + cid, n=n)[1] for cid, n in enumerate(sizes)}
        spec = quadratic_client(seed)[0]
        ds = FederatedDataset(
            clients=clients, train_client_ids=tuple(clients), eval_client_ids=(),
            input_dim=3, num_classes=2,
        )
        params = np.random.default_rng(seed).normal(size=spec.param_count)
        cfg = RoundConfig(
            "fedavg", len(sizes), ClientOptimizerConfig(0.05, 4), epochs=2, weighting=weighting
        )
        server = ServerOptimizerState("sgd", lr=1.0)
        _, _, trace = run_round(spec, params, ds, cfg, server, 3, seed)

        ids = sorted(clients)
        weights = {
            cid: float(clients[cid].weight) if weighting == "data_proportional" else 1.0
            for cid in ids
        }
        deltas = {
            cid: reference_local_update(
                spec, params, clients[cid], cfg, substream(seed, "round.batch", 3, cid)
            )[0]
            for cid in ids
        }

        def weighted_sum(order):
            total = sum(weights[cid] for cid in order)
            out = np.zeros(spec.param_count)
            for cid in order:
                out += (weights[cid] / total) * deltas[cid]
            return out

        assert np.array_equal(weighted_sum(ids), trace.aggregate)
        order = data.draw(st.permutations(ids))
        scale = sum(weights[cid] / sum(weights.values()) * np.abs(deltas[cid]) for cid in ids)
        assert np.all(np.abs(weighted_sum(order) - trace.aggregate) <= 1e-12 * scale)

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        mode=st.sampled_from(["fedavg-epochs", "fedavg-steps"]),
        server=st.sampled_from(["sgd", "momentum", "adam"]),
    )
    def test_equal_sizes_make_weighting_irrelevant(self, data, mode, server):
        # With one train size n for every client, n / (M * n) rounds to
        # exactly 1 / M, so data-proportional and uniform weights give the
        # same coefficients and the same bytes.
        n = data.draw(st.integers(1, 25), label="n")
        count = data.draw(st.integers(1, 6), label="clients")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        m = data.draw(st.integers(1, count), label="m")
        k = data.draw(st.integers(1, 3), label="k")
        client_cfg = ClientOptimizerConfig(
            data.draw(st.sampled_from([0.05, 0.5]), label="lr"),
            data.draw(st.integers(1, 9), label="batch_size"),
        )
        ds = poisoned_dataset([n] * count, [False] * count, seed)
        spec = ModelSpec(4, (5, 3))
        params = init_params(spec, substream(seed, "init"))
        state = ServerOptimizerState(server, lr=0.5)
        rounds = [
            run_round(
                spec, params, ds, MODES[mode](client_cfg, m, k, w), state, 2, seed
            )
            for w in ("data_proportional", "uniform")
        ]
        (p_data, _, data_tr), (p_uniform, _, uniform_tr) = rounds
        assert data_tr.weights.tolist() == [float(n)] * m
        assert uniform_tr.weights.tolist() == [1.0] * m
        assert data_tr.deltas.tobytes() == uniform_tr.deltas.tobytes()
        assert data_tr.aggregate.tobytes() == uniform_tr.aggregate.tobytes()
        assert p_data.tobytes() == p_uniform.tobytes()

    def test_aggregate_is_weighted_mean_of_deltas(self):
        ds = toy_dataset(num_clients=5, examples=24)
        spec = ModelSpec(4, (6, 3))
        params = init_params(spec, substream(5, "init"))
        cfg = RoundConfig("fedavg", 3, ClientOptimizerConfig(0.05, 8), epochs=1)
        server = ServerOptimizerState("sgd", lr=1.0)
        _, _, trace = run_round(spec, params, ds, cfg, server, 2, 5)
        total = sum(trace.weights)
        expected = sum((w / total) * d for w, d in zip(trace.weights, trace.deltas))
        np.testing.assert_allclose(trace.aggregate, expected, rtol=0, atol=1e-16)

    def test_deterministic_trace(self):
        ds = toy_dataset(num_clients=5)
        spec = ModelSpec(4, (6, 3))
        params = init_params(spec, substream(6, "init"))
        cfg = RoundConfig("reptile", 3, ClientOptimizerConfig(0.05, 8), steps=2)
        outs = []
        for _ in range(2):
            server = ServerOptimizerState("adam", lr=0.01)
            outs.append(run_round(spec, params, ds, cfg, server, 7, 6))
        assert np.array_equal(outs[0][0], outs[1][0])
        assert outs[0][2].client_ids == outs[1][2].client_ids
        assert np.array_equal(outs[0][2].aggregate, outs[1][2].aggregate)

    def test_fomaml_round_runs(self):
        ds = toy_dataset(num_clients=4)
        spec = ModelSpec(4, (6, 3))
        params = init_params(spec, substream(7, "init"))
        cfg = RoundConfig("fomaml", 2, ClientOptimizerConfig(0.05, 8), steps=2)
        server = ServerOptimizerState("sgd", lr=1.0)
        _, _, trace = run_round(
            spec, params, ds, cfg, server, 0, 7, trace=True
        )
        for grads in trace.step_gradients:
            assert len(grads) == 3  # K steps + evaluation gradient
        assert np.array_equal(trace.weights, [1.0, 1.0])

    def test_fedsgd_round_equals_single_step_reptile(self):
        ds = toy_dataset(num_clients=4)
        spec = ModelSpec(4, (6, 3))
        params = init_params(spec, substream(12, "init"))
        out = {}
        for algorithm in ("fedsgd", "reptile"):
            cfg = RoundConfig(algorithm, 3, ClientOptimizerConfig(0.05, 8), steps=1)
            server = ServerOptimizerState("sgd", lr=1.0)
            out[algorithm], _, _ = run_round(
                spec, params, ds, cfg, server, 0, 12
            )
        assert np.array_equal(out["fedsgd"], out["reptile"])

    def test_divergence_names_client_and_round(self):
        spec, client, a, _ = quadratic_client(seed=10)
        from fedmetasim.data import FederatedDataset

        ds = FederatedDataset(
            clients={0: client},
            train_client_ids=(0,),
            eval_client_ids=(),
            input_dim=3,
            num_classes=2,
        )
        params = np.random.default_rng(0).normal(size=spec.param_count)
        cfg = RoundConfig("fedavg", 1, ClientOptimizerConfig(1e200, 50), epochs=30)
        server = ServerOptimizerState("sgd", lr=1.0)
        with pytest.raises(DivergenceError) as err:
            run_round(spec, params, ds, cfg, server, 4, 8)
        assert err.value.client_id == 0
        assert err.value.round_index == 4

    def test_nonfinite_gradient_names_client_and_round(self):
        # relu 6->8->3 at client lr 1e3: the gradient overflows before the
        # parameters do, and the error must still name client, round, step.
        ds = generate_synthetic(
            seed=0, num_clients=6, classes_per_client=3, examples_per_client=30,
            input_dim=6, num_classes=3, heterogeneity=0.6,
        )
        spec = ModelSpec(6, (8, 3), activation="relu")
        params = init_params(spec, substream(0, "init"))
        cfg = RoundConfig("fedavg", 3, ClientOptimizerConfig(1e3, 10), epochs=30)
        server = ServerOptimizerState("sgd", lr=1.0)
        with pytest.raises(DivergenceError) as err:
            run_round(spec, params, ds, cfg, server, 2, 0)
        with pytest.raises(DivergenceError) as expected:
            reference_round_updates(spec, params, ds, cfg, 2, 0)
        assert err.value.client_id == expected.value.client_id
        assert err.value.round_index == 2
        assert err.value.step_index == expected.value.step_index
        assert str(err.value) == str(expected.value)
        assert str(err.value.__cause__) == str(expected.value.__cause__)
        assert "non-finite gradient" in str(err.value.__cause__)

    def test_server_overflow_names_round(self):
        # Finite client deltas of order 1e299 overflow under server lr 1e10;
        # the error must blame the server step of this round, not a client.
        spec, client, *_ = quadratic_client(seed=4)
        ds = FederatedDataset(
            clients={0: client},
            train_client_ids=(0,),
            eval_client_ids=(),
            input_dim=3,
            num_classes=2,
        )
        params = np.full(spec.param_count, 1e300)
        cfg = RoundConfig("fedavg", 1, ClientOptimizerConfig(0.1, 50), epochs=1)
        server = ServerOptimizerState("sgd", lr=1e10)
        with pytest.raises(DivergenceError) as err:
            run_round(spec, params, ds, cfg, server, 4, 8)
        assert err.value.round_index == 4
        assert err.value.client_id is None and err.value.step_index is None
        assert str(err.value).startswith("server step diverged in round 4")
        assert isinstance(err.value.__cause__, NumericError)


class TestFedAvgReptileCoincidence:
    def test_identical_deltas_when_data_fits_one_batch(self):
        # Uniform weights plus one batch per epoch make the two local rules
        # draw identical batch sequences and hence identical deltas.
        ds = toy_dataset(num_clients=3, examples=20)
        spec = ModelSpec(4, (6, 3))
        params = init_params(spec, substream(9, "init"))
        cfg = ClientOptimizerConfig(lr=0.05, batch_size=16)  # holds all 16 train rows
        e = 4
        for cid in ds.train_client_ids:
            client = ds.clients[cid]
            avg_cfg = fedavg(cfg, epochs=e, weighting="uniform")
            avg, _ = reference_local_update(spec, params, client, avg_cfg, substream(9, "b", cid))
            rep, _ = reference_local_update(
                spec, params, client, reptile(cfg, e), substream(9, "b", cid)
            )
            assert np.array_equal(avg, rep)
            assert (
                round_weight(spec, params, client, avg_cfg)
                == round_weight(spec, params, client, reptile(cfg, e))
                == 1.0
            )


def eval_cfg():
    return EvalConfig(
        personalization=PersonalizationConfig(optimizer="sgd", lr=0.05, epochs=2, batch_size=8),
        every=0,
    )


def stage(algorithm, rounds, server_kind="sgd", lr=0.5, **round_kwargs):
    round_cfg = RoundConfig(algorithm, 2, ClientOptimizerConfig(0.05, 8), **round_kwargs)
    return StageConfig(
        rounds=rounds,
        round_cfg=round_cfg,
        server=ServerOptimizerState(kind=server_kind, lr=lr),
    )


class TestRunPersonalizedFedAvg:
    def dataset(self):
        return split_train_eval(toy_dataset(num_clients=6), 0.34, seed=0)

    def test_two_stage_run_counts_rounds(self):
        run = drain(run_personalized_fedavg(
            ModelSpec(4, (6, 3)),
            self.dataset(),
            [stage("fedavg", 3, "momentum", 0.5, epochs=2),
             stage("reptile", 2, "adam", 0.01, steps=2)],
            eval_cfg(),
            seed=1,
        ))
        assert len(run.wallclock_ms) == 5
        assert run.final_params is not None
        # snapshots at both stage ends
        assert [s.round_index for s in run.snapshots] == [3, 5]

    def test_stage2_zero_is_plain_first_stage(self):
        run = drain(run_personalized_fedavg(
            ModelSpec(4, (6, 3)),
            self.dataset(),
            [stage("fedavg", 3, "momentum", 0.5, epochs=2),
             StageConfig(rounds=0, round_cfg=None, server=None)],
            eval_cfg(),
            seed=1,
        ))
        assert len(run.wallclock_ms) == 3
        assert [s.round_index for s in run.snapshots] == [3]

    def test_stage1_zero_finetunes_from_init(self):
        run = drain(run_personalized_fedavg(
            ModelSpec(4, (6, 3)),
            self.dataset(),
            [StageConfig(rounds=0, round_cfg=None, server=None),
             stage("reptile", 4, "adam", 0.01, steps=2)],
            eval_cfg(),
            seed=1,
        ))
        assert len(run.wallclock_ms) == 4

    def test_bit_identical_reruns(self):
        args = (
            ModelSpec(4, (6, 3)),
            self.dataset(),
            [stage("fedavg", 3, "momentum", 0.5, epochs=2),
             stage("reptile", 2, "adam", 0.01, steps=2)],
            eval_cfg(),
        )
        a = drain(run_personalized_fedavg(*args, seed=5))
        b = drain(run_personalized_fedavg(*args, seed=5))
        assert np.array_equal(a.final_params, b.final_params)
        assert [s.initial_mean for s in a.snapshots] == [s.initial_mean for s in b.snapshots]

    def test_periodic_snapshots(self):
        cfg = EvalConfig(
            personalization=PersonalizationConfig("sgd", 0.05, 1, 8), every=2
        )
        run = drain(run_personalized_fedavg(
            ModelSpec(4, (6, 3)),
            self.dataset(),
            [stage("fedavg", 5, "momentum", 0.5, epochs=1)],
            cfg,
            seed=2,
        ))
        assert [s.round_index for s in run.snapshots] == [2, 4, 5]

    def test_snapshot_is_the_population_report(self):
        """Each snapshot the stream carries is ``eval_population``'s report
        at that round's parameters, per-client outcomes included."""
        spec, ds = ModelSpec(4, (6, 3)), self.dataset()
        cfg = EvalConfig(personalization=PersonalizationConfig("sgd", 0.05, 1, 8), every=2)
        snapshots = [
            (tr.round_index, tr.snapshot, params)
            for tr, params in run_personalized_fedavg(
                spec, ds, [stage("fedavg", 5, "momentum", 0.5, epochs=1)], cfg, seed=2
            )
            if tr.snapshot is not None
        ]
        assert [r + 1 for r, _, _ in snapshots] == [2, 4, 5]
        for r, snapshot, params in snapshots:
            assert snapshot == eval_population(
                spec, params, ds, ds.eval_client_ids, cfg.personalization, 2,
                snapshot_index=r + 1,
            )
            assert len(snapshot.outcomes) == len(ds.eval_client_ids)

    def test_divergence_ends_stream_after_earlier_rounds(self):
        """The rounds before the diverging one are yielded in order; then the
        stream raises, naming the client, its step and the round."""
        spec = ModelSpec(4, (3,), activation="identity", loss="quadratic")
        ds = poisoned_dataset([8, 8, 8], [False, False, True], seed=0)
        bad_stage = StageConfig(
            rounds=20,
            round_cfg=RoundConfig("fedavg", 1, ClientOptimizerConfig(0.05, 8), epochs=3),
            server=ServerOptimizerState(kind="sgd", lr=1.0),
        )
        seen = []
        with pytest.raises(DivergenceError) as err:
            for tr, _ in run_personalized_fedavg(spec, ds, [bad_stage], None, seed=5):
                seen.append((tr.round_index, tr.client_ids))
        # Seed 5 first samples the poisoned client 2 in round 5.
        assert [r for r, _ in seen] == [0, 1, 2, 3, 4]
        assert all(ids != [2] for _, ids in seen)
        assert (err.value.client_id, err.value.round_index) == (2, 5)
        assert str(err.value) == f"client 2 diverged at step {err.value.step_index} in round 5"

    def test_stream_yields_each_full_round_once_in_order(self):
        args = (
            ModelSpec(4, (6, 3)),
            self.dataset(),
            [stage("fedavg", 3, "momentum", 0.5, epochs=2),
             stage("reptile", 2, "adam", 0.01, steps=2)],
            EvalConfig(personalization=eval_cfg().personalization, every=2),
        )
        seen = []
        run = drain(tapped(run_personalized_fedavg(*args, seed=5, trace=True), seen))
        assert [tr.round_index for tr, _ in seen] == [0, 1, 2, 3, 4]
        for tr, _ in seen:
            assert len(tr.deltas) == 2 and tr.aggregate is not None
            assert len(tr.step_gradients) == 2 and all(len(g) for g in tr.step_gradients)
        # snapshots after rounds 2 and 4 (every=2) and at both stage ends
        assert [tr.round_index for tr, _ in seen if tr.snapshot] == [1, 2, 3, 4]
        assert [tr.snapshot for tr, _ in seen if tr.snapshot] == run.snapshots
        # the collector keeps each round's wall time
        assert run.wallclock_ms == [tr.wallclock_ms for tr, _ in seen]
        plain = drain(run_personalized_fedavg(*args, seed=5))
        assert plain.final_params.tobytes() == run.final_params.tobytes()
        assert plain.snapshots == run.snapshots
        assert len(plain.wallclock_ms) == 5

    def test_stream_yields_each_round_global_model(self):
        def run(rounds):
            return run_personalized_fedavg(
                ModelSpec(4, (6, 3)),
                self.dataset(),
                [stage("fedavg", rounds, "momentum", 0.5, epochs=1)],
                eval_cfg(),
                seed=4,
            )

        seen = []
        full = drain(tapped(run(4), seen))
        assert seen[-1][1] is full.final_params
        # Each round's parameters are left as they were, so a consumer needs no copy.
        for r, (_, params) in enumerate(seen):
            assert params.tobytes() == drain(run(r + 1)).final_params.tobytes()

    def test_stage_forked_from_stage1_run_equals_two_stage_run(self):
        """Stage 2 run from the [stage1] run's last parameters, at its round
        count, is the [stage1, stage2] run's stage 2, bit for bit."""
        spec, ds = ModelSpec(4, (6, 3)), self.dataset()
        evals = EvalConfig(personalization=eval_cfg().personalization, every=2)
        stage1 = stage("fedavg", 3, "momentum", 0.5, epochs=2)
        base = drain(run_personalized_fedavg(spec, ds, [stage1], evals, seed=5))
        for steps in (1, 2):
            stage2 = stage("reptile", 3, "adam", 0.01, steps=steps)
            whole, forked = [], []
            drain(tapped(run_personalized_fedavg(
                spec, ds, [stage1, stage2], evals, seed=5, trace=True
            ), whole))
            drain(tapped(run_stage(
                spec, ds, stage2, evals, 5, base.final_params, 3, trace=True
            ), forked))
            # snapshots at global round 4 (every=2) and at the stage end
            assert [tr.snapshot.round_index for tr, _ in forked if tr.snapshot] == [4, 6]
            assert len(forked) == 3
            for (a, a_params), (b, b_params) in zip(whole[3:], forked):
                assert (a.round_index, a.client_ids, a.beta, a.snapshot) == (
                    b.round_index, b.client_ids, b.beta, b.snapshot)
                for x, y in zip(
                    [a.weights, a.deltas, a.aggregate, *a.step_gradients, a_params],
                    [b.weights, b.deltas, b.aggregate, *b.step_gradients, b_params],
                ):
                    assert x.shape == y.shape and x.tobytes() == y.tobytes()
                assert len(a.step_gradients) == len(b.step_gradients)


def tapped(rounds, seen):
    """Passes a round stream through, appending each (trace, params) to ``seen``."""
    for item in rounds:
        seen.append(item)
        yield item


MODES = {
    "fedavg-epochs": lambda cfg, m, k, w: RoundConfig("fedavg", m, cfg, epochs=k, weighting=w),
    "fedavg-steps": lambda cfg, m, k, w: RoundConfig("fedavg", m, cfg, steps=k, weighting=w),
    "reptile": lambda cfg, m, k, w: RoundConfig("reptile", m, cfg, steps=k),
    "fedsgd": lambda cfg, m, k, w: RoundConfig("fedsgd", m, cfg),
    "fomaml": lambda cfg, m, k, w: RoundConfig("fomaml", m, cfg, steps=k),
}


def poisoned_dataset(sizes, poisoned, seed, d=4, c=3):
    """Clients of the given train sizes; a poisoned client holds one example
    of magnitude 1e150, which can make its gradient or iterate overflow."""
    rng = np.random.default_rng(seed)
    clients = {}
    for cid, (n, bad) in enumerate(zip(sizes, poisoned)):
        x = rng.normal(size=(n, d))
        if bad:
            x[rng.integers(n)] *= 1e150
        clients[cid] = ClientDataset(
            train=Batch(x, rng.integers(0, c, size=n)),
            test=Batch(x[:1], np.zeros(1, dtype=np.int64)),
        )
    return FederatedDataset(
        clients=clients, train_client_ids=tuple(clients), eval_client_ids=(),
        input_dim=d, num_classes=c,
    )


def lockstep_params(data, spec):
    """Parameters with entries replaced by +-0.0 and large magnitudes."""
    seed = data.draw(st.integers(0, 2**16), label="params seed")
    params = np.random.default_rng(seed).normal(size=spec.param_count)
    special = st.sampled_from([0.0, -0.0, 1e100, -1e100, 3e7])
    for i in data.draw(st.lists(st.integers(0, spec.param_count - 1), max_size=6), label="at"):
        params[i] = data.draw(special)
    return params


def divergence_facts(err):
    """What a round's DivergenceError reports, its cause's text included."""
    return (str(err), err.client_id, err.step_index, err.round_index, str(err.__cause__))


class TestLockstepRound:
    """``run_round`` steps its clients in lockstep; every output byte, and
    every divergence report, equals the clients run one after another by
    the one-client oracle."""

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        mode=st.sampled_from(sorted(MODES)),
        weighting=st.sampled_from(["data_proportional", "uniform"]),
        trace=st.booleans(),
        activation=st.sampled_from(["tanh", "relu"]),
    )
    def test_round_bytes_equal_one_client_oracle(self, data, mode, weighting, trace, activation):
        sizes = data.draw(st.lists(st.integers(1, 25), min_size=1, max_size=6), label="sizes")
        poisoned = data.draw(
            st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)), label="poisoned"
        )
        seed = data.draw(st.integers(0, 2**16), label="seed")
        m = data.draw(st.integers(1, len(sizes)), label="m")
        k = data.draw(st.integers(1, 4), label="k")
        batch_size = data.draw(st.integers(1, 9), label="batch_size")
        lr = data.draw(st.sampled_from([0.05, 0.5, 1e250]), label="lr")
        ds = poisoned_dataset(sizes, poisoned, seed)
        spec = ModelSpec(4, (5, 3), activation=activation)
        params = lockstep_params(data, spec)
        cfg = MODES[mode](ClientOptimizerConfig(lr, batch_size), m, k, weighting)
        server = ServerOptimizerState("sgd", lr=1.0)

        try:
            ids, deltas, grads = reference_round_updates(
                spec, params, ds, cfg, 3, seed, trace
            )
        except DivergenceError as exc:
            event(f"client diverged: {str(exc.__cause__).split(' at ')[0]}")
            with pytest.raises(DivergenceError) as err:
                run_round(spec, params, ds, cfg, server, 3, seed, trace)
            assert divergence_facts(err.value) == divergence_facts(exc)
            return
        try:
            _, _, tr = run_round(spec, params, ds, cfg, server, 3, seed, trace)
        except DivergenceError as err:
            assert err.client_id is None  # only the server step may still overflow
            event("server step diverged")
            return
        if cfg.epochs is not None:
            per_epoch = {-(-ds.clients[cid].train.n // batch_size) for cid in ids}
            event(f"{len(per_epoch)} lockstep group(s)")
        assert tr.client_ids == ids
        assert tr.deltas.tobytes() == deltas.tobytes()
        weights = [
            float(ds.clients[cid].weight) if cfg.weighting == "data_proportional" else 1.0
            for cid in ids
        ]
        aggregate = np.zeros(spec.param_count)
        for w, delta in zip(weights, deltas):
            aggregate += (w / sum(weights)) * delta
        assert tr.aggregate.tobytes() == aggregate.tobytes()
        if trace:
            assert [g.tobytes() for g in tr.step_gradients] == [g.tobytes() for g in grads]
        else:
            assert tr.step_gradients is None

    def test_lower_id_client_diverging_later_is_named(self):
        # Client 1 overflows its gradient on its first step; client 0's
        # iterate only overflows after a few steps. Run one after another,
        # client 0 fails first, so the error must name client 0 at its own
        # step, although client 1 diverged at an earlier step position.
        spec = ModelSpec(3, (2,), activation="identity", loss="quadratic")
        rng = np.random.default_rng(4)
        x0, x1 = rng.normal(size=(4, 3)) * 1e40, rng.normal(size=(4, 3))
        x1[2] = 1e200
        clients = {
            cid: ClientDataset(train=Batch(x, np.zeros(4)), test=Batch(x[:1], [0]))
            for cid, x in enumerate((x0, x1))
        }
        ds = FederatedDataset(
            clients=clients, train_client_ids=(0, 1), eval_client_ids=(),
            input_dim=3, num_classes=2,
        )
        params = rng.normal(size=spec.param_count)
        cfg = RoundConfig("fedavg", 2, ClientOptimizerConfig(1.0, 4), epochs=20)
        alone = {}
        for cid, client in clients.items():
            with pytest.raises(DivergenceError) as err:
                reference_local_update(spec, params, client, cfg, substream(0, "b"))
            alone[cid] = err.value
        assert alone[1].step_index == 0 < alone[0].step_index
        assert "non-finite gradient" in str(alone[1])

        with pytest.raises(DivergenceError) as expected:
            reference_round_updates(spec, params, ds, cfg, 6, 2)
        with pytest.raises(DivergenceError) as err:
            run_round(
                spec, params, ds, cfg, ServerOptimizerState("sgd", lr=1.0), 6, 2
            )
        assert divergence_facts(err.value) == divergence_facts(expected.value)
        assert err.value.client_id == 0 and err.value.round_index == 6
        assert err.value.step_index > 0
