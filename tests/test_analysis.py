import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmetasim import (
    Batch,
    ClientOptimizerConfig,
    ContractViolation,
    ModelSpec,
    RoundConfig,
    ServerOptimizerState,
    TrainingRun,
    decompose_round,
    fomaml_maml_gap,
    format_mean_std,
    generate_synthetic,
    init_params,
    per_snapshot_stats,
    rounds_to_threshold,
    run_round,
    substream,
    threshold_stats,
)
from fedmetasim.analysis import decomposition_text
from util import max_relative_error, quadratic_problem, snapshot_run


def traced_round(seed=42, clients=3, k=4, spec=None, lr=0.05):
    spec = spec or ModelSpec(8, (16, 4))
    ds = generate_synthetic(
        seed=seed,
        num_clients=max(clients, 3),
        classes_per_client=4,
        examples_per_client=30,
        input_dim=8,
        num_classes=4,
        heterogeneity=0.5,
    )
    params = init_params(spec, substream(seed, "init"))
    cfg = RoundConfig("reptile", clients, ClientOptimizerConfig(lr, 8), steps=k)
    server = ServerOptimizerState("sgd", lr=1.0)
    _, _, trace = run_round(
        spec, params, ds, cfg, server, 0, seed, trace=True
    )
    return trace


class TestDecomposeRound:
    def test_residual_small_for_traced_round(self):
        trace = traced_round(seed=42, clients=3, k=4)
        report = decompose_round(trace)
        assert report.residual_norm <= 1e-10
        assert len(report.g_fomaml_by_j) == 3

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 6),
        m=st.integers(1, 5),
        activation=st.sampled_from(["identity", "relu", "tanh"]),
        seed=st.integers(0, 2**16),
    )
    def test_residual_small_for_any_traced_round(self, k, m, activation, seed):
        spec = ModelSpec(8, (16, 4), activation=activation)
        trace = traced_round(seed=seed, clients=m, k=k, spec=spec)
        report = decompose_round(trace)
        assert report.residual_norm <= 1e-8
        assert len(report.g_fomaml_by_j) == k - 1

    def test_single_step_round_has_no_adapted_terms(self):
        trace = traced_round(seed=1, clients=3, k=1)
        report = decompose_round(trace)
        assert report.g_fomaml_by_j == []
        assert report.residual_norm <= 1e-12
        np.testing.assert_allclose(report.g_fedavg, report.g_fedsgd, atol=1e-12)

    def test_zero_lr_all_terms_zero(self):
        trace = traced_round(seed=2, clients=3, k=3, lr=0.0)
        report = decompose_round(trace)
        assert np.array_equal(report.g_fedavg, np.zeros_like(report.g_fedavg))
        assert report.residual_norm == 0.0

    def test_untraced_round_rejected(self):
        trace = traced_round(seed=3, clients=3, k=2)
        trace.step_gradients = None
        with pytest.raises(ContractViolation, match="trac"):
            decompose_round(trace)

    def test_unequal_step_counts_rejected(self):
        trace = traced_round(seed=4, clients=3, k=3)
        trace.step_gradients[1] = trace.step_gradients[1][:-1]
        with pytest.raises(ContractViolation, match="common K"):
            decompose_round(trace)

    def test_non_uniform_weights_rejected(self):
        trace = traced_round(seed=5, clients=3, k=3)
        trace.weights[0] = 2.0
        with pytest.raises(ContractViolation, match="uniform"):
            decompose_round(trace)

    def test_report_text_lists_terms(self):
        trace = traced_round(seed=6, clients=3, k=3)
        text = decomposition_text(decompose_round(trace))
        assert text.startswith("fms-decomposition/1\n")
        assert "norm_fedsgd=" in text
        assert "norm_fomaml_2=" in text
        assert "residual_norm=" in text


class TestFomamlMamlGap:
    def test_quadratic_gap_matches_closed_form(self):
        spec, params, batch, a = quadratic_problem(seed=21, d=3, c=2, n=10)
        beta = 0.2 / np.linalg.eigvalsh(a).max()
        k = 4
        gap, cosine = fomaml_maml_gap(spec, params, [batch] * k, None, k, beta)
        prop = np.linalg.matrix_power(np.eye(a.shape[0]) - beta * a, k)
        expected = np.linalg.norm((prop - np.eye(a.shape[0])) @ a @ prop @ params)
        assert abs(gap - expected) / expected <= 1e-6
        assert cosine > 0.9

    def test_gap_vanishes_as_beta_tiny(self):
        spec, params, batch, a = quadratic_problem(seed=22)
        lam = np.linalg.eigvalsh(a).max()
        gap_big, _ = fomaml_maml_gap(spec, params, [batch] * 3, None, 3, 0.1 / lam)
        gap_tiny, _ = fomaml_maml_gap(spec, params, [batch] * 3, None, 3, 1e-4 / lam)
        assert gap_tiny < 0.01 * gap_big

    def test_zero_steps_zero_gap(self):
        spec, params, batch, _ = quadratic_problem(seed=23)
        gap, cosine = fomaml_maml_gap(spec, params, [batch], batch, 0, 0.1)
        assert gap <= 1e-9
        assert cosine == pytest.approx(1.0, abs=1e-9)

    def test_halving_beta_halves_gap(self):
        spec, params, batch, a = quadratic_problem(seed=24, d=3, c=2, n=10)
        beta = 0.1 / np.linalg.eigvalsh(a).max()
        gap_full, _ = fomaml_maml_gap(spec, params, [batch] * 3, None, 3, beta)
        gap_half, _ = fomaml_maml_gap(spec, params, [batch] * 3, None, 3, beta / 2)
        assert 0.3 <= gap_half / gap_full <= 0.7

    def test_insufficient_batches_rejected(self):
        spec, params, batch, _ = quadratic_problem(seed=25)
        with pytest.raises(ContractViolation):
            fomaml_maml_gap(spec, params, [batch], None, 2, 0.1)


class TestRoundsToThreshold:
    def test_never_reaching(self):
        run = snapshot_run([0.1, 0.2, 0.3])
        assert rounds_to_threshold(run, "initial", 0.8) is None

    def test_first_snapshot_already_above(self):
        run = snapshot_run([0.9, 0.95])
        assert rounds_to_threshold(run, "initial", 0.8) == 1

    def test_monotone_series_crossing(self):
        values = [0.1 * i for i in range(1, 11)]  # crosses 0.65 at round 7
        run = snapshot_run(values)
        assert rounds_to_threshold(run, "initial", 0.65) == 7

    def test_no_snapshots_rejected(self):
        with pytest.raises(ContractViolation):
            rounds_to_threshold(TrainingRun(seed=0), "initial", 0.5)

    def test_monotone_in_threshold_over_random_traces(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            values = rng.random(rng.integers(1, 12))
            run = snapshot_run(list(values))
            t1, t2 = sorted(rng.random(2))
            r1 = rounds_to_threshold(run, "initial", t1)
            r2 = rounds_to_threshold(run, "initial", t2)
            inf = float("inf")
            assert (r1 if r1 is not None else inf) <= (r2 if r2 is not None else inf)


class TestThresholdStats:
    def test_mean_excludes_never(self):
        runs = [
            snapshot_run([0.5, 0.9]),
            snapshot_run([0.2, 0.3]),
            snapshot_run([0.95]),
        ]
        stats = threshold_stats(runs, "initial", 0.8)
        assert stats.reached_count == 2
        assert stats.mean_rounds == pytest.approx((2 + 1) / 2)
        assert stats.format() == "1.5(2)"

    def test_never_format(self):
        stats = threshold_stats([snapshot_run([0.1])], "initial", 0.8)
        assert stats.format() == "never"


def final_stats(runs, metric="initial"):
    """(mean, std) across replicas at the last snapshot, as the report's
    final accuracy lines show them."""
    return per_snapshot_stats(runs, metric)[-1][1:]


class TestAggregateReplicas:
    def test_single_replica_zero_std(self):
        mean, std = final_stats([snapshot_run([0.5, 0.7])])
        assert (mean, std) == (0.7, 0.0)

    def test_equal_values_zero_std(self):
        runs = [snapshot_run([0.4, 0.7]), snapshot_run([0.2, 0.7])]
        mean, std = final_stats(runs)
        assert mean == 0.7
        assert std == 0.0

    def test_arithmetic(self):
        runs = [snapshot_run([v]) for v in (0.78, 0.80, 0.82)]
        mean, std = final_stats(runs)
        assert mean == pytest.approx(0.80)
        # population std computed directly from the definition
        expected = math.sqrt(((0.02) ** 2 + 0.0 + (0.02) ** 2) / 3)
        assert std == pytest.approx(expected, rel=1e-12)
        assert format_mean_std(mean, std) == "0.8000 (0.0163)"

    def test_permutation_invariant(self):
        runs = [snapshot_run([v]) for v in (0.3, 0.5, 0.9)]
        assert per_snapshot_stats(runs, "initial") == per_snapshot_stats(runs[::-1], "initial")

    def test_inconsistent_schedules_rejected(self):
        runs = [snapshot_run([0.1, 0.2]), snapshot_run([0.1])]
        with pytest.raises(ContractViolation):
            per_snapshot_stats(runs, "initial")

    def test_per_snapshot_stats(self):
        runs = [snapshot_run([0.1, 0.3]), snapshot_run([0.3, 0.5])]
        stats = per_snapshot_stats(runs, "initial")
        assert stats[0][0] == 1 and stats[1][0] == 2
        assert stats[0][1] == pytest.approx(0.2)
        assert stats[1][1] == pytest.approx(0.4)


def test_format_mean_std():
    assert format_mean_std(0.78789, 0.03155) == "0.7879 (0.0316)"
