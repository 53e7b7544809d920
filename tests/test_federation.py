import numpy as np
import pytest

from fedmetasim import (
    Batch,
    ClientOptimizerConfig,
    ContractViolation,
    DivergenceError,
    EvalConfig,
    ModelSpec,
    PersonalizationConfig,
    RoundConfig,
    ServerOptimizerConfig,
    ServerOptimizerState,
    StageConfig,
    StreamFactory,
    fomaml_update,
    generate_synthetic,
    gradient,
    init_params,
    local_update,
    make_client_batches,
    run_personalized_fedavg,
    run_round,
    sample_clients,
    split_train_eval,
    substream,
)
from fedmetasim.data import ClientDataset, ExampleSet, FederatedDataset
from fedmetasim.errors import NumericError
from util import make_client, quad_hessian, quad_linear_term, onehot

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
    client = ClientDataset(train=ExampleSet(x, y), test=ExampleSet(x[:2], y[:2]))
    a = quad_hessian(spec, x)
    lin = quad_linear_term(spec, x, onehot(y, c))
    return spec, client, a, lin


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


class TestClientUpdate:
    def test_single_epoch_full_batch_is_one_step(self):
        client = make_client(np.random.default_rng(0), n_train=20)
        spec = ModelSpec(4, (6, 3))
        params = init_params(spec, substream(0, "init"))
        res = local_update(spec, params, client, fedavg(CFG, epochs=1), substream(0, "b", 0))
        batch = make_client_batches(client, 1, CFG.batch_size, substream(0, "b", 0))[0]
        expected = -CFG.lr * gradient(spec, params, batch)
        np.testing.assert_allclose(res.delta, expected, rtol=0, atol=5e-15)

    def test_zero_lr_zero_delta(self):
        client = make_client(np.random.default_rng(1), n_train=12)
        spec = ModelSpec(4, (6, 3))
        params = init_params(spec, substream(1, "init"))
        cfg = ClientOptimizerConfig(lr=0.0, batch_size=4)
        res = local_update(spec, params, client, fedavg(cfg, epochs=3), substream(1, "b"))
        assert np.array_equal(res.delta, np.zeros_like(params))
        assert res.weight == 12.0

    def test_uniform_weight_is_one(self):
        client = make_client(np.random.default_rng(2), n_train=9)
        spec = ModelSpec(4, (6, 3))
        params = init_params(spec, substream(2, "init"))
        res = local_update(
            spec, params, client, fedavg(CFG, epochs=1, weighting="uniform"), substream(2, "b")
        )
        assert res.weight == 1.0

    def test_quadratic_affine_recurrence(self):
        # Oracle: iterate theta <- theta - beta (A theta - c) with A, c built
        # from the batch by explicit Jacobian assembly.
        spec, client, a, lin = quadratic_client(seed=5, n=8)
        params = np.random.default_rng(5).normal(size=spec.param_count)
        beta = 0.2 / np.linalg.eigvalsh(a).max()
        cfg = ClientOptimizerConfig(lr=beta, batch_size=50)  # full batch
        k = 5
        res = local_update(spec, params, client, fedavg(cfg, epochs=k), substream(5, "b"))
        expected = params.copy()
        for _ in range(k):
            expected = expected - beta * (a @ expected - lin)
        np.testing.assert_allclose(res.delta, expected - params, rtol=1e-9, atol=1e-12)

    def test_trace_records_per_step_gradients(self):
        client = make_client(np.random.default_rng(3), n_train=10)
        spec = ModelSpec(4, (6, 3))
        params = init_params(spec, substream(3, "init"))
        cfg = ClientOptimizerConfig(lr=0.05, batch_size=5)
        res = local_update(
            spec, params, client, fedavg(cfg, epochs=2), substream(3, "b"), trace=True
        )
        assert len(res.step_gradients) == 4  # 2 epochs x 2 batches
        total = sum(res.step_gradients)
        np.testing.assert_allclose(res.delta, -cfg.lr * total, rtol=0, atol=1e-14)


class TestInnerLoopReptile:
    def test_single_step_matches_first_gradient(self):
        client = make_client(np.random.default_rng(4), n_train=20)
        spec = ModelSpec(4, (6, 3))
        params = init_params(spec, substream(4, "init"))
        res = local_update(spec, params, client, reptile(CFG, 1), substream(4, "b"))
        batch = make_client_batches(client, 1, CFG.batch_size, substream(4, "b"))[0]
        np.testing.assert_allclose(
            res.delta, -CFG.lr * gradient(spec, params, batch), rtol=0, atol=5e-15
        )
        assert res.weight == 1.0

    def test_step_count_exact(self):
        client = make_client(np.random.default_rng(5), n_train=7)
        spec = ModelSpec(4, (6, 3))
        params = init_params(spec, substream(5, "init"))
        cfg = ClientOptimizerConfig(lr=0.05, batch_size=3)
        res = local_update(
            spec, params, client, reptile(cfg, 5), substream(5, "b"), trace=True
        )
        assert len(res.step_gradients) == 5

    def test_quadratic_closed_form(self):
        spec, client, a, lin = quadratic_client(seed=6, n=10)
        params = np.random.default_rng(6).normal(size=spec.param_count)
        beta = 0.15 / np.linalg.eigvalsh(a).max()
        cfg = ClientOptimizerConfig(lr=beta, batch_size=50)
        k = 4
        res = local_update(spec, params, client, reptile(cfg, k), substream(6, "b"))
        expected = params.copy()
        for _ in range(k):
            expected = expected - beta * (a @ expected - lin)
        np.testing.assert_allclose(res.delta, expected - params, rtol=1e-9, atol=1e-12)


class TestFomamlUpdate:
    def traced(self, seed, steps):
        client = make_client(np.random.default_rng(seed), n_train=12)
        spec = ModelSpec(4, (6, 3))
        params = init_params(spec, substream(seed, "init"))
        cfg = ClientOptimizerConfig(lr=0.05, batch_size=4)
        res = local_update(
            spec, params, client, reptile(cfg, steps), substream(seed, "b"), trace=True
        )
        return res.step_gradients

    def test_k0_is_mean_first_gradient(self):
        lists = [self.traced(s, 3) for s in (0, 1, 2)]
        got = fomaml_update(lists, 0, 0.05)
        expected = -0.05 * np.mean([g[0] for g in lists], axis=0)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-16)

    def test_single_client(self):
        lists = [self.traced(7, 4)]
        got = fomaml_update(lists, 2, 0.1)
        np.testing.assert_allclose(got, -0.1 * lists[0][2], rtol=0, atol=1e-16)

    def test_insufficient_trajectory_rejected(self):
        lists = [self.traced(8, 2)]
        with pytest.raises(ContractViolation):
            fomaml_update(lists, 2, 0.1)

    def test_matches_replayed_trajectories(self):
        # Replay oracle: rebuild each client's batch sequence from the same
        # stream and redo the SGD steps by hand.
        spec = ModelSpec(4, (6, 3))
        cfg = ClientOptimizerConfig(lr=0.05, batch_size=4)
        clients = [make_client(np.random.default_rng(s), n_train=12) for s in (0, 1, 2)]
        params = init_params(spec, substream(9, "init"))
        k = 3

        lists = [
            local_update(
                spec, params, c, reptile(cfg, k + 1), substream(9, "b", i), trace=True
            ).step_gradients
            for i, c in enumerate(clients)
        ]
        got = fomaml_update(lists, k, cfg.lr)

        replayed = []
        for i, c in enumerate(clients):
            batches = make_client_batches(c, 2, cfg.batch_size, substream(9, "b", i))[: k + 1]
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
        res = local_update(
            spec, params, client, RoundConfig("fomaml", 1, cfg, steps=k),
            substream(20, "b"),
        )
        batches = make_client_batches(client, 2, cfg.batch_size, substream(20, "b"))
        theta = params.copy()
        for b in batches[:k]:
            theta = theta - cfg.lr * gradient(spec, theta, b)
        expected = -cfg.lr * gradient(spec, theta, batches[k])
        assert np.array_equal(res.delta, expected)
        assert res.weight == 1.0

    def test_fomaml_nonfinite_extra_gradient_names_step(self):
        # Two single-example batches; the second holds a feature so large
        # that the quadratic-loss gradient overflows. Pick the stream that
        # puts it last, so only fomaml's extra gradient is non-finite.
        spec = ModelSpec(3, (2,), activation="identity", loss="quadratic")
        x = np.array([[0.5, -0.2, 0.1], [1e200, 1e200, 1e200]])
        client = ClientDataset(
            train=ExampleSet(x, np.array([0, 1])), test=ExampleSet(x[:1], np.array([0]))
        )
        seed = next(
            s for s in range(50)
            if make_client_batches(client, 1, 1, substream(s, "b"))[1].x[0, 0] > 1.0
        )
        cfg = RoundConfig("fomaml", 1, ClientOptimizerConfig(0.01, 1), steps=1)
        params = np.full(spec.param_count, 0.3)
        with pytest.raises(DivergenceError) as err:
            local_update(spec, params, client, cfg, substream(seed, "b"))
        assert err.value.step_index == 1

    def test_step_counted_fedavg_weights_by_train_size(self):
        client = make_client(np.random.default_rng(21), n_train=13)
        spec = ModelSpec(4, (6, 3))
        params = init_params(spec, substream(21, "init"))
        cfg = ClientOptimizerConfig(lr=0.05, batch_size=4)
        res = local_update(spec, params, client, fedavg(cfg, steps=5), substream(21, "b"))
        assert res.weight == client.train.n == 13
        rep = local_update(spec, params, client, reptile(cfg, 5), substream(21, "b"))
        assert np.array_equal(res.delta, rep.delta)
        assert rep.weight == 1.0


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
        server = ServerOptimizerState.create("sgd", spec.param_count, lr=1.0)
        streams = StreamFactory(3)
        new_params, _, trace = run_round(spec, params, ds, cfg, server, 0, streams)
        batch = make_client_batches(
            ds.clients[0], 1, cfg.client_cfg.batch_size, streams.stream("round.batch", 0, 0)
        )[0]
        expected = params - 0.05 * gradient(spec, params, batch)
        np.testing.assert_allclose(new_params, expected, rtol=0, atol=5e-15)
        assert trace.client_ids == [0]

    def test_uniform_equals_proportional_for_equal_data(self):
        ds = toy_dataset(num_clients=4, examples=20)
        spec = ModelSpec(4, (6, 3))
        params = init_params(spec, substream(4, "init"))
        server = ServerOptimizerState.create("sgd", spec.param_count, lr=1.0)
        streams = StreamFactory(11)
        out = {}
        for weighting in ("data_proportional", "uniform"):
            cfg = RoundConfig(
                "fedavg", 4, ClientOptimizerConfig(0.05, 8), epochs=2, weighting=weighting
            )
            out[weighting], _, _ = run_round(spec, params, ds, cfg, server, 0, streams)
        assert np.array_equal(out["uniform"], out["data_proportional"])

    def test_aggregate_is_weighted_mean_of_deltas(self):
        ds = toy_dataset(num_clients=5, examples=24)
        spec = ModelSpec(4, (6, 3))
        params = init_params(spec, substream(5, "init"))
        cfg = RoundConfig("fedavg", 3, ClientOptimizerConfig(0.05, 8), epochs=1)
        server = ServerOptimizerState.create("sgd", spec.param_count, lr=1.0)
        _, _, trace = run_round(spec, params, ds, cfg, server, 2, StreamFactory(5))
        total = sum(r.weight for r in trace.results)
        expected = sum((r.weight / total) * r.delta for r in trace.results)
        np.testing.assert_allclose(trace.aggregate, expected, rtol=0, atol=1e-16)

    def test_deterministic_trace(self):
        ds = toy_dataset(num_clients=5)
        spec = ModelSpec(4, (6, 3))
        params = init_params(spec, substream(6, "init"))
        cfg = RoundConfig("reptile", 3, ClientOptimizerConfig(0.05, 8), steps=2)
        outs = []
        for _ in range(2):
            server = ServerOptimizerState.create("adam", spec.param_count, lr=0.01)
            outs.append(run_round(spec, params, ds, cfg, server, 7, StreamFactory(6)))
        assert np.array_equal(outs[0][0], outs[1][0])
        assert outs[0][2].client_ids == outs[1][2].client_ids
        assert np.array_equal(outs[0][2].aggregate, outs[1][2].aggregate)

    def test_fomaml_round_runs(self):
        ds = toy_dataset(num_clients=4)
        spec = ModelSpec(4, (6, 3))
        params = init_params(spec, substream(7, "init"))
        cfg = RoundConfig("fomaml", 2, ClientOptimizerConfig(0.05, 8), steps=2)
        server = ServerOptimizerState.create("sgd", spec.param_count, lr=1.0)
        _, _, trace = run_round(
            spec, params, ds, cfg, server, 0, StreamFactory(7), trace=True
        )
        for res in trace.results:
            assert len(res.step_gradients) == 3  # K steps + evaluation gradient
            assert res.weight == 1.0

    def test_fedsgd_round_equals_single_step_reptile(self):
        ds = toy_dataset(num_clients=4)
        spec = ModelSpec(4, (6, 3))
        params = init_params(spec, substream(12, "init"))
        out = {}
        for algorithm in ("fedsgd", "reptile"):
            cfg = RoundConfig(algorithm, 3, ClientOptimizerConfig(0.05, 8), steps=1)
            server = ServerOptimizerState.create("sgd", spec.param_count, lr=1.0)
            out[algorithm], _, _ = run_round(
                spec, params, ds, cfg, server, 0, StreamFactory(12)
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
        server = ServerOptimizerState.create("sgd", spec.param_count, lr=1.0)
        with pytest.raises(DivergenceError) as err:
            run_round(spec, params, ds, cfg, server, 4, StreamFactory(8))
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
        server = ServerOptimizerState.create("sgd", spec.param_count, lr=1.0)
        with pytest.raises(DivergenceError) as err:
            run_round(spec, params, ds, cfg, server, 2, StreamFactory(0))
        assert err.value.client_id in ds.train_client_ids
        assert err.value.round_index == 2
        assert err.value.step_index is not None
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
        server = ServerOptimizerState.create("sgd", spec.param_count, lr=1e10)
        with pytest.raises(DivergenceError) as err:
            run_round(spec, params, ds, cfg, server, 4, StreamFactory(8))
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
            avg = local_update(
                spec, params, client, fedavg(cfg, epochs=e, weighting="uniform"),
                substream(9, "b", cid),
            )
            rep = local_update(spec, params, client, reptile(cfg, e), substream(9, "b", cid))
            assert np.array_equal(avg.delta, rep.delta)
            assert avg.weight == rep.weight == 1.0


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
        server=ServerOptimizerConfig(kind=server_kind, lr=lr),
    )


class TestRunPersonalizedFedAvg:
    def dataset(self):
        return split_train_eval(toy_dataset(num_clients=6), 0.34, seed=0)

    def test_two_stage_run_counts_rounds(self):
        run = run_personalized_fedavg(
            ModelSpec(4, (6, 3)),
            self.dataset(),
            stage("fedavg", 3, "momentum", 0.5, epochs=2),
            stage("reptile", 2, "adam", 0.01, steps=2),
            eval_cfg(),
            seed=1,
        )
        assert len(run.traces) == 5
        assert run.stage1_rounds == 3
        assert run.final_params is not None
        # snapshots at both stage ends
        assert [s.round_index for s in run.snapshots] == [3, 5]

    def test_stage2_zero_is_plain_first_stage(self):
        run = run_personalized_fedavg(
            ModelSpec(4, (6, 3)),
            self.dataset(),
            stage("fedavg", 3, "momentum", 0.5, epochs=2),
            StageConfig(rounds=0, round_cfg=None, server=None),
            eval_cfg(),
            seed=1,
        )
        assert len(run.traces) == 3
        assert [s.round_index for s in run.snapshots] == [3]

    def test_stage1_zero_finetunes_from_init(self):
        run = run_personalized_fedavg(
            ModelSpec(4, (6, 3)),
            self.dataset(),
            StageConfig(rounds=0, round_cfg=None, server=None),
            stage("reptile", 4, "adam", 0.01, steps=2),
            eval_cfg(),
            seed=1,
        )
        assert len(run.traces) == 4
        assert run.stage1_rounds == 0

    def test_bit_identical_reruns(self):
        args = (
            ModelSpec(4, (6, 3)),
            self.dataset(),
            stage("fedavg", 3, "momentum", 0.5, epochs=2),
            stage("reptile", 2, "adam", 0.01, steps=2),
            eval_cfg(),
        )
        a = run_personalized_fedavg(*args, seed=5)
        b = run_personalized_fedavg(*args, seed=5)
        assert np.array_equal(a.final_params, b.final_params)
        assert [s.initial_mean for s in a.snapshots] == [s.initial_mean for s in b.snapshots]

    def test_periodic_snapshots(self):
        cfg = EvalConfig(
            personalization=PersonalizationConfig("sgd", 0.05, 1, 8), every=2
        )
        run = run_personalized_fedavg(
            ModelSpec(4, (6, 3)),
            self.dataset(),
            stage("fedavg", 5, "momentum", 0.5, epochs=1),
            None,
            cfg,
            seed=2,
        )
        assert [s.round_index for s in run.snapshots] == [2, 4, 5]

    def test_divergence_attaches_partial_run(self):
        spec, client, *_ = quadratic_client(seed=11)
        from fedmetasim.data import FederatedDataset

        ds = FederatedDataset(
            clients={0: client, 1: client},
            train_client_ids=(0,),
            eval_client_ids=(1,),
            input_dim=3,
            num_classes=2,
        )
        bad_stage = StageConfig(
            rounds=5,
            round_cfg=RoundConfig("fedavg", 1, ClientOptimizerConfig(1e200, 50), epochs=30),
            server=ServerOptimizerConfig(kind="sgd", lr=1.0),
        )
        with pytest.raises(DivergenceError) as err:
            run_personalized_fedavg(spec, ds, bad_stage, None, eval_cfg(), seed=3)
        assert hasattr(err.value, "partial_run")

    def test_on_round_sees_each_full_round_once_in_order(self):
        args = (
            ModelSpec(4, (6, 3)),
            self.dataset(),
            stage("fedavg", 3, "momentum", 0.5, epochs=2),
            stage("reptile", 2, "adam", 0.01, steps=2),
            EvalConfig(personalization=eval_cfg().personalization, every=2),
        )
        seen = []
        run = run_personalized_fedavg(*args, seed=5, trace=True, on_round=seen.append)
        assert [tr.round_index for tr in seen] == [0, 1, 2, 3, 4]
        for tr in seen:
            assert len(tr.results) == 2 and tr.aggregate is not None
            assert all(res.step_gradients for res in tr.results)
        # snapshots after rounds 2 and 4 (every=2) and at both stage ends
        assert [tr.round_index for tr in seen if tr.snapshot] == [1, 2, 3, 4]
        assert [tr.snapshot for tr in seen if tr.snapshot] == run.snapshots
        # the run keeps a summary of each round, without per-client results
        assert [tr.client_ids for tr in run.traces] == [tr.client_ids for tr in seen]
        assert all(tr.results == [] and tr.aggregate is None for tr in run.traces)
        plain = run_personalized_fedavg(*args, seed=5)
        assert plain.final_params.tobytes() == run.final_params.tobytes()
        assert plain.snapshots == run.snapshots
        assert all(tr.results == [] and tr.aggregate is None for tr in plain.traces)

    def test_checkpoint_schedule(self):
        run = run_personalized_fedavg(
            ModelSpec(4, (6, 3)),
            self.dataset(),
            stage("fedavg", 4, "momentum", 0.5, epochs=1),
            None,
            eval_cfg(),
            seed=4,
            checkpoint_every=2,
        )
        assert sorted(run.checkpoints) == [2, 4]
