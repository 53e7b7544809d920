from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fedmetasim import (
    Batch,
    ContractViolation,
    ModelSpec,
    PersonalizationConfig,
    epochs_sweep,
    eval_population,
    evaluate_accuracy,
    forward_logits,
    generate_synthetic,
    gradient,
    init_params,
    make_client_batches,
    personalize,
    split_train_eval,
    substream,
)
from fedmetasim import personalization
from fedmetasim.data import ClientDataset, FederatedDataset
from fedmetasim.errors import NumericError
from util import (
    drain,
    make_client,
    onehot,
    quad_hessian,
    quad_linear_term,
    reference_adam_step,
    reference_personalize,
)

SPEC = ModelSpec(4, (6, 3))


def personalize_one(spec, params, client, cfg, rng):
    """``personalize`` over a population of one: (its row, its flag)."""
    adapted, diverged = personalize(spec, params, [client], cfg, [rng])
    return adapted[0], bool(diverged[0])


def toy_dataset(seed=0, num_clients=6):
    ds = generate_synthetic(
        seed=seed,
        num_clients=num_clients,
        classes_per_client=3,
        examples_per_client=20,
        input_dim=4,
        num_classes=3,
        heterogeneity=0.6,
    )
    return split_train_eval(ds, 0.34, seed=seed)


class TestEvaluateAccuracy:
    def test_constant_class_zero_model(self):
        # Huge bias on class 0 forces the argmax everywhere.
        spec = ModelSpec(2, (3,))
        params = np.zeros(spec.param_count)
        params[2 * 3] = 100.0  # b0
        examples = Batch(np.random.default_rng(0).normal(size=(10, 2)), np.zeros(10))
        assert evaluate_accuracy(spec, params, examples) == 1.0

    def test_zero_params_ties_break_to_class_zero(self):
        spec = ModelSpec(2, (3,))
        y = np.array([0, 0, 1, 2, 0])
        examples = Batch(np.ones((5, 2)), y)
        assert evaluate_accuracy(spec, np.zeros(spec.param_count), examples) == 0.6

    def test_matches_per_example_check(self):
        rng = np.random.default_rng(7)
        params = init_params(SPEC, substream(7, "init"))
        examples = Batch(rng.normal(size=(25, 4)), rng.integers(0, 3, size=25))
        got = evaluate_accuracy(SPEC, params, examples)
        correct = 0
        for i in range(25):
            logits = forward_logits(SPEC, params, examples.x[i : i + 1])[0]
            best = 0
            for c in range(1, 3):
                if logits[c] > logits[best]:
                    best = c
            correct += best == examples.y[i]
        assert got == correct / 25

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            evaluate_accuracy(SPEC, np.zeros(SPEC.param_count), Batch(np.zeros((0, 4)), np.zeros(0)))


class TestPersonalize:
    @pytest.mark.parametrize("lr", [-0.5, float("nan")])
    def test_lr_negative_or_nan_rejected(self, lr):
        with pytest.raises(ContractViolation, match="personalization lr"):
            PersonalizationConfig(lr=lr)

    @pytest.mark.parametrize("epochs", [0, 2])
    @pytest.mark.parametrize("streams", [1, 2, 4])
    def test_one_stream_per_client_required(self, epochs, streams):
        clients = [make_client(np.random.default_rng(i)) for i in range(3)]
        params = init_params(SPEC, substream(0, "init"))
        cfg = PersonalizationConfig(optimizer="sgd", lr=0.1, epochs=epochs, batch_size=10)
        rngs = [substream(0, "p", i) for i in range(streams)]
        with pytest.raises(ContractViolation, match=f"{streams} random streams for 3 clients"):
            personalize(SPEC, params, clients, cfg, rngs)

    def test_zero_epochs_identity(self):
        client = make_client(np.random.default_rng(0))
        params = init_params(SPEC, substream(0, "init"))
        cfg = PersonalizationConfig(optimizer="sgd", lr=0.1, epochs=0, batch_size=10)
        adapted, diverged = personalize_one(SPEC, params, client, cfg, substream(0, "p"))
        assert np.array_equal(adapted, params)
        assert not diverged

    def test_zero_lr_identity(self):
        client = make_client(np.random.default_rng(1))
        params = init_params(SPEC, substream(1, "init"))
        cfg = PersonalizationConfig(optimizer="sgd", lr=0.0, epochs=3, batch_size=10)
        adapted, diverged = personalize_one(SPEC, params, client, cfg, substream(1, "p"))
        assert np.array_equal(adapted, params)
        assert not diverged

    def test_quadratic_single_full_batch_epoch(self):
        rng = np.random.default_rng(2)
        spec = ModelSpec(3, (2,), activation="identity", loss="quadratic")
        x = rng.normal(size=(8, 3))
        y = rng.integers(0, 2, size=8)
        client = ClientDataset(train=Batch(x, y), test=Batch(x[:2], y[:2]))
        a = quad_hessian(spec, x)
        lin = quad_linear_term(spec, x, onehot(y, 2))
        params = rng.normal(size=spec.param_count)
        lr = 0.1
        cfg = PersonalizationConfig(optimizer="sgd", lr=lr, epochs=1, batch_size=50)
        adapted, _ = personalize_one(spec, params, client, cfg, substream(2, "p"))
        expected = params - lr * (a @ params - lin)
        np.testing.assert_allclose(adapted, expected, rtol=1e-10, atol=1e-13)

    def test_divergence_flagged_with_finite_iterate(self):
        rng = np.random.default_rng(3)
        spec = ModelSpec(3, (2,), activation="identity", loss="quadratic")
        x = rng.normal(size=(8, 3))
        y = rng.integers(0, 2, size=8)
        client = ClientDataset(train=Batch(x, y), test=Batch(x[:2], y[:2]))
        params = rng.normal(size=spec.param_count)
        cfg = PersonalizationConfig(optimizer="sgd", lr=1e200, epochs=5, batch_size=50)
        adapted, diverged = personalize_one(spec, params, client, cfg, substream(3, "p"))
        assert diverged
        assert np.all(np.isfinite(adapted))

    @pytest.mark.parametrize("optimizer, cause", [
        ("sgd", "gradient"), ("adam", "gradient"), ("sgd", "iterate"),
    ])
    def test_divergent_client_returns_replayed_iterate(self, optimizer, cause):
        # One example far out of range makes the gradient of the step that
        # draws it overflow; a huge SGD step size makes the iterate
        # overflow after a few steps instead.
        rng = np.random.default_rng(6)
        spec = ModelSpec(3, (2,), activation="identity", loss="quadratic")
        x = rng.normal(size=(9, 3))
        if cause == "gradient":
            x[4] = 1e200
        y = rng.integers(0, 2, size=9)
        client = ClientDataset(train=Batch(x, y), test=Batch(x[:2], y[:2]))
        params = rng.normal(size=spec.param_count)
        lr = 1e120 if cause == "iterate" else 0.05
        cfg = PersonalizationConfig(optimizer=optimizer, lr=lr, epochs=2, batch_size=2)

        theta, m, v = params.copy(), np.zeros_like(params), np.zeros_like(params)
        count = cfg.epochs * -(-client.train.n // cfg.batch_size)
        steps = list(make_client_batches(client, count, cfg.batch_size, substream(6, "p")))
        with np.errstate(over="ignore", invalid="ignore"):
            for j, batch in enumerate(steps):
                try:
                    g = gradient(spec, theta, batch)
                except NumericError:
                    break
                if optimizer == "sgd":
                    candidate = theta - lr * g
                else:
                    candidate, m, v = reference_adam_step(theta, g, m, v, j + 1, 0.001)
                if not np.isfinite(candidate).all():
                    break
                theta = candidate
        assert 2 <= j < len(steps) - 1

        before = params.tobytes()
        adapted, diverged = personalize_one(spec, params, client, cfg, substream(6, "p"))
        assert diverged
        assert adapted.tobytes() == theta.tobytes()
        assert params.tobytes() == before
        assert not np.shares_memory(adapted, params)

    def test_adam_runs_with_defaults(self):
        client = make_client(np.random.default_rng(4))
        params = init_params(SPEC, substream(4, "init"))
        cfg = PersonalizationConfig(optimizer="adam", epochs=2, batch_size=10)
        adapted, diverged = personalize_one(SPEC, params, client, cfg, substream(4, "p"))
        assert not diverged
        assert not np.array_equal(adapted, params)
        # every coordinate moves at most lr per step
        steps = 2 * 2  # 2 epochs x 2 batches of 10 over 20 examples
        assert np.max(np.abs(adapted - params)) <= steps * 0.001 * (1 + 1e-9)

    def test_adam_matches_hand_replay(self):
        # Replay: per-epoch permutation of the train split chunked into
        # batches, then the reference Adam (lr 1e-3, betas 0.9/0.999,
        # eps 1e-8) step by step; equal at atol=0.
        client = make_client(np.random.default_rng(8), n_train=23)
        params = init_params(SPEC, substream(8, "init"))
        cfg = PersonalizationConfig(optimizer="adam", epochs=3, batch_size=10)
        adapted, diverged = personalize_one(SPEC, params, client, cfg, substream(8, "p"))

        rng = substream(8, "p")
        theta = params.copy()
        m = np.zeros_like(theta)
        v = np.zeros_like(theta)
        t = 0
        train = client.train
        for _ in range(cfg.epochs):
            order = rng.permutation(train.n)
            for start in range(0, train.n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                g = gradient(SPEC, theta, Batch(train.x[idx], train.y[idx]))
                t += 1
                theta, m, v = reference_adam_step(theta, g, m, v, t, 0.001)
        assert t == 9
        assert not diverged
        assert np.array_equal(adapted, theta)

    def test_deterministic(self):
        client = make_client(np.random.default_rng(5))
        params = init_params(SPEC, substream(5, "init"))
        cfg = PersonalizationConfig(optimizer="sgd", lr=0.05, epochs=3, batch_size=7)
        a, _ = personalize_one(SPEC, params, client, cfg, substream(5, "p"))
        b, _ = personalize_one(SPEC, params, client, cfg, substream(5, "p"))
        assert np.array_equal(a, b)


def solo_failure(spec, params, client, cfg, rng):
    """Replay one client's adaptation alone: how it first left the finite
    range ("gradient" or "iterate") and at which step, or None."""
    theta, m, v = params.copy(), np.zeros_like(params), np.zeros_like(params)
    with np.errstate(over="ignore", invalid="ignore"):
        steps = cfg.epochs * -(-client.train.n // cfg.batch_size)
        for t, batch in enumerate(make_client_batches(client, steps, cfg.batch_size, rng)):
            try:
                g = gradient(spec, theta, batch)
            except NumericError:
                return "gradient", t
            if cfg.optimizer == "sgd":
                candidate = theta - cfg.lr * g
            else:
                candidate, m, v = reference_adam_step(theta, g, m, v, t + 1, 0.001)
            if not np.isfinite(candidate).all():
                return "iterate", t
            theta = candidate
    return None


class TestLockstepPopulation:
    """``personalize`` steps a population in lockstep; each row and flag
    equals that client adapted alone by the one-client oracle."""

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        optimizer=st.sampled_from(["sgd", "adam"]),
        activation=st.sampled_from(["tanh", "relu"]),
    )
    def test_population_bytes_equal_one_client_oracle(self, data, optimizer, activation):
        sizes = data.draw(st.lists(st.integers(1, 25), min_size=1, max_size=6), label="sizes")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        rng = np.random.default_rng(seed)
        clients = []
        for n in sizes:
            x = rng.normal(size=(n, 4))
            if data.draw(st.booleans(), label="poisoned"):
                x[rng.integers(n)] *= 1e150
            y = rng.integers(0, 3, n)
            clients.append(ClientDataset(Batch(x, y), Batch(x, y)))
        spec = ModelSpec(4, (5, 3), activation=activation)
        params = rng.normal(size=spec.param_count)
        special = st.sampled_from([0.0, -0.0, 1e100, -1e100, 3e7])
        for i in data.draw(st.lists(st.integers(0, spec.param_count - 1), max_size=6), label="at"):
            params[i] = data.draw(special)
        cfg = PersonalizationConfig(
            optimizer,
            lr=data.draw(st.sampled_from([0.05, 1e250]), label="lr"),
            epochs=data.draw(st.integers(0, 3), label="epochs"),
            batch_size=data.draw(st.integers(1, 9), label="batch_size"),
        )
        before = params.tobytes()
        adapted, diverged = personalize(
            spec, params, clients, cfg, [substream(seed, "p", i) for i in range(len(clients))]
        )
        assert params.tobytes() == before
        assert adapted.shape == (len(clients), spec.param_count)
        for i, client in enumerate(clients):
            theta, flag = reference_personalize(spec, params, client, cfg, substream(seed, "p", i))
            assert adapted[i].tobytes() == theta.tobytes()
            assert diverged[i] == flag
        event(f"{int(diverged.sum())} of {len(clients)} diverged")

    # Client 2 of 4 leaves the finite range; the others never do. Feature 0
    # is zero for every other client, so the weight W[0, 0] that scales it
    # only moves client 2: a 1e200 entry overflows its gradient, and with
    # W[0, 0] near the float maximum its SGD or Adam iterate overflows.
    DIVERGING = {
        ("sgd", "gradient"): dict(w00=1.0, x0=1e200, rows=1, lr=0.05, batch_size=2),
        ("adam", "gradient"): dict(w00=1.0, x0=1e200, rows=1, lr=0.05, batch_size=2),
        ("sgd", "iterate"): dict(w00=0.3 * np.finfo(float).max, x0=1.0, rows=1, lr=10.0,
                                 batch_size=2),
        ("adam", "iterate"): dict(w00=np.finfo(float).max, x0=1.0, rows=6, lr=0.05,
                                  batch_size=6),
    }

    @pytest.mark.parametrize("optimizer, cause", sorted(DIVERGING))
    def test_one_diverging_client_leaves_the_others_as_alone(self, optimizer, cause):
        case = self.DIVERGING[optimizer, cause]
        spec = ModelSpec(3, (2,), activation="identity", loss="quadratic")
        rng = np.random.default_rng(12)
        clients = []
        for i in range(4):
            x = rng.normal(scale=0.3, size=(6, 3))
            x[:, 0] = 0.0
            if i == 2:
                x[: case["rows"], 0] = case["x0"]
            y = rng.integers(0, 2, 6)
            clients.append(ClientDataset(Batch(x, y), Batch(x, y)))
        params = rng.normal(size=spec.param_count)
        params[0] = case["w00"]
        cfg = PersonalizationConfig(optimizer, case["lr"], epochs=3, batch_size=case["batch_size"])
        # A stream under which client 2 fails after its first step, so the
        # others step on past a frozen row.
        key = next(
            k for k in range(100)
            if (solo_failure(spec, params, clients[2], cfg, substream(k, "p", 2)) or ("", 0))[1]
        )
        assert solo_failure(spec, params, clients[2], cfg, substream(key, "p", 2))[0] == cause
        adapted, diverged = personalize(
            spec, params, clients, cfg, [substream(key, "p", i) for i in range(4)]
        )
        assert diverged.tolist() == [False, False, True, False]
        for i, client in enumerate(clients):
            alone, flag = personalize(spec, params, [client], cfg, [substream(key, "p", i)])
            assert adapted[i].tobytes() == alone[0].tobytes()
            assert diverged[i] == flag[0]
            theta, _ = reference_personalize(spec, params, client, cfg, substream(key, "p", i))
            assert adapted[i].tobytes() == theta.tobytes()
        assert np.isfinite(adapted).all()


class TestEvalPopulation:
    def test_zero_epochs_report_equality(self):
        ds = toy_dataset()
        params = init_params(SPEC, substream(0, "init"))
        cfg = PersonalizationConfig(optimizer="sgd", lr=0.05, epochs=0, batch_size=10)
        report = eval_population(SPEC, params, ds, ds.eval_client_ids, cfg, 0)
        assert report.personalized_mean == report.initial_mean
        assert report.personalized_std == report.initial_std
        for o in report.outcomes:
            assert o.personalized_acc == o.initial_acc
        assert report.negative_fraction == 0.0

    def test_identical_clients_zero_std(self):
        client = make_client(np.random.default_rng(6))
        from fedmetasim.data import FederatedDataset

        ds = FederatedDataset(
            clients={0: client, 1: client, 2: client},
            train_client_ids=(0, 1, 2),
            eval_client_ids=(),
            input_dim=4,
            num_classes=3,
        )
        params = init_params(SPEC, substream(6, "init"))
        cfg = PersonalizationConfig(optimizer="sgd", lr=0.05, epochs=0, batch_size=10)
        report = eval_population(SPEC, params, ds, ds.train_client_ids, cfg, 6)
        assert report.initial_std == 0.0

    def test_negative_fraction_complement(self):
        ds = toy_dataset(seed=2)
        params = init_params(SPEC, substream(2, "init"))
        cfg = PersonalizationConfig(optimizer="sgd", lr=0.05, epochs=2, batch_size=10)
        report = eval_population(SPEC, params, ds, ds.eval_client_ids, cfg, 2)
        frac_ge = np.mean(
            [o.personalized_acc >= o.initial_acc for o in report.outcomes]
        )
        assert report.negative_fraction + frac_ge == 1.0

    def test_populations_disjoint(self):
        ds = toy_dataset(seed=3)
        params = init_params(SPEC, substream(3, "init"))
        cfg = PersonalizationConfig(optimizer="sgd", lr=0.05, epochs=0, batch_size=10)
        train_report = eval_population(SPEC, params, ds, ds.train_client_ids, cfg, 3)
        eval_report = eval_population(SPEC, params, ds, ds.eval_client_ids, cfg, 3)
        train_ids = {o.client_id for o in train_report.outcomes}
        eval_ids = {o.client_id for o in eval_report.outcomes}
        assert not train_ids & eval_ids

    def test_empty_population_rejected(self):
        ds = generate_synthetic(
            seed=0, num_clients=2, classes_per_client=2, examples_per_client=10,
            input_dim=4, num_classes=3, heterogeneity=0.0,
        )
        params = init_params(SPEC, substream(0, "init"))
        cfg = PersonalizationConfig()
        with pytest.raises(ContractViolation):
            eval_population(SPEC, params, ds, ds.eval_client_ids, cfg, 0)

    def test_client_without_test_examples_rejected(self):
        client = make_client(np.random.default_rng(8))
        empty = ClientDataset(client.train, client.test[:0])
        ds = FederatedDataset({0: client, 1: empty}, (0, 1), (), input_dim=4, num_classes=3)
        params = init_params(SPEC, substream(8, "init"))
        with pytest.raises(ContractViolation, match="^client 1 has no test examples$"):
            eval_population(SPEC, params, ds, ds.train_client_ids, PersonalizationConfig(), 0)

    def test_mean_invariant_to_client_order(self):
        ds = toy_dataset(seed=4)
        params = init_params(SPEC, substream(4, "init"))
        cfg = PersonalizationConfig(optimizer="sgd", lr=0.05, epochs=1, batch_size=10)
        report = eval_population(SPEC, params, ds, ds.train_client_ids, cfg, 4)
        # Per-client outcomes are keyed by stream, not position: recompute the
        # mean from a shuffled copy of the outcomes.
        shuffled = sorted(report.outcomes, key=lambda o: -o.client_id)
        assert np.mean([o.initial_acc for o in shuffled]) == pytest.approx(
            report.initial_mean, abs=0
        )


class TestEpochsSweep:
    def test_rows_enumerate_epochs(self):
        ds = toy_dataset(seed=5)
        params = init_params(SPEC, substream(5, "init"))
        cfgs = [
            PersonalizationConfig(optimizer="sgd", lr=0.05, batch_size=10),
            PersonalizationConfig(optimizer="adam", batch_size=10),
        ]
        rows = epochs_sweep(SPEC, params, ds, ds.eval_client_ids, cfgs, 3, 5)
        assert len(rows) == 6
        sgd_rows = [r for r in rows if r[0].startswith("sgd")]
        assert [r[1] for r in sgd_rows] == [1, 2, 3]
        labels = {r[0] for r in rows}
        assert labels == {"sgd(lr=0.05)", "adam"}

    def test_first_row_matches_eval_population(self):
        ds = toy_dataset(seed=6)
        params = init_params(SPEC, substream(6, "init"))
        cfg = PersonalizationConfig(optimizer="sgd", lr=0.05, batch_size=10)
        rows = epochs_sweep(SPEC, params, ds, ds.eval_client_ids, [cfg], 2, 6)
        from dataclasses import replace

        report = eval_population(
            SPEC, params, ds, ds.eval_client_ids, replace(cfg, epochs=1),
            6, snapshot_index=1,
        )
        assert rows[0][2] == report.personalized_mean

    def test_cells_score_only_the_adapted_rows(self, monkeypatch):
        # Every cell equals eval_population's personalized mean, bit for
        # bit, yet evaluates each client's test split once per cell: the
        # unadapted accuracies no cell reads are not computed.
        ds = toy_dataset(seed=6)
        ids = ds.train_client_ids
        params = init_params(SPEC, substream(6, "init"))
        cfgs = [
            PersonalizationConfig(optimizer="sgd", lr=0.05, batch_size=10),
            PersonalizationConfig(optimizer="adam", batch_size=10),
        ]
        scored = []

        def counting(spec, params, examples):
            scored.append(examples)
            return evaluate_accuracy(spec, params, examples)

        monkeypatch.setattr(personalization, "evaluate_accuracy", counting)
        rows = epochs_sweep(SPEC, params, ds, ids, cfgs, 3, 6)
        assert len(scored) == len(cfgs) * 3 * len(ids)
        monkeypatch.undo()
        expected = [
            (cfg.label(), e, eval_population(
                SPEC, params, ds, ids, replace(cfg, epochs=e), 6, snapshot_index=e
            ).personalized_mean)
            for cfg in cfgs for e in (1, 2, 3)
        ]
        assert rows == expected

    def test_invalid_max_epochs(self):
        ds = toy_dataset(seed=7)
        params = init_params(SPEC, substream(7, "init"))
        with pytest.raises(ContractViolation):
            epochs_sweep(SPEC, params, ds, ds.eval_client_ids, [PersonalizationConfig()], 0, 7)

    def test_matched_sgd_beats_default_adam_somewhere(self):
        # Train a small model, then sweep both optimizers: the SGD sweep with
        # the training step size should dominate the stock-Adam sweep at some
        # epoch count (Adam's tiny default step barely adapts in few epochs).
        from fedmetasim import (
            ClientOptimizerConfig,
            RoundConfig,
            ServerOptimizerState,
            StageConfig,
            run_personalized_fedavg,
        )

        ds = toy_dataset(seed=8)
        spec = SPEC
        stage = StageConfig(
            rounds=30,
            round_cfg=RoundConfig("fedavg", 3, ClientOptimizerConfig(0.05, 10), epochs=2),
            server=ServerOptimizerState("momentum", 0.5, 0.9),
        )
        run = drain(run_personalized_fedavg(spec, ds, [stage], None, seed=8))
        cfgs = [
            PersonalizationConfig(optimizer="sgd", lr=0.05, batch_size=10),
            PersonalizationConfig(optimizer="adam", batch_size=10),
        ]
        rows = epochs_sweep(spec, run.final_params, ds, ds.eval_client_ids, cfgs, 4, 8)
        sgd = {e: acc for label, e, acc in rows if label.startswith("sgd")}
        adam = {e: acc for label, e, acc in rows if label == "adam"}
        assert any(sgd[e] > adam[e] for e in sgd)
