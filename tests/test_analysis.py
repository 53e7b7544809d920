import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedmetasim import (
    Batch,
    ClientOptimizerConfig,
    ContractViolation,
    DivergenceError,
    EvalSnapshot,
    ModelSpec,
    RoundConfig,
    RoundTrace,
    ServerOptimizerState,
    decompose_round,
    fomaml_maml_gap,
    generate_synthetic,
    init_params,
    maml_gradient_oracle,
    replica_rows,
    rounds_to_threshold,
    run_round,
    substream,
)
from fedmetasim.analysis import decomposition_text
from fedmetasim.cli import _report
from util import first_round, max_relative_error, quadratic_problem, snapshot_run


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

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_terms_are_the_stacked_client_mean_bit_for_bit(self, data):
        """The per-step client mean, summed in place, keeps every bit of
        numpy's mean over the stacked (M, K, P) gradients."""
        m, k, p = (data.draw(st.integers(lo, hi)) for lo, hi in ((1, 7), (1, 5), (2, 30)))
        value = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))
        grads = [data.draw(hnp.arrays(np.float64, (k, p), elements=value)) for _ in range(m)]
        beta = data.draw(st.floats(1e-6, 1.0))
        report = decompose_round(RoundTrace(
            round_index=0, client_ids=list(range(m)), weights=np.ones(m),
            deltas=np.zeros((m, p)), aggregate=np.zeros(p), beta=beta, step_gradients=grads,
        ))
        want = -beta * np.stack(grads).mean(axis=0)
        got = np.stack([report.g_fedsgd, *report.g_fomaml_by_j])
        assert got.tobytes() == want.tobytes()

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

    def test_trace_without_clients_rejected(self):
        trace = traced_round(seed=3, clients=3, k=2)
        trace.step_gradients = []
        with pytest.raises(ContractViolation, match="^trace has no clients$"):
            decompose_round(trace)

    def test_unequal_step_counts_rejected(self):
        trace = traced_round(seed=4, clients=3, k=3)
        trace.step_gradients[1] = trace.step_gradients[1][:-1]
        with pytest.raises(ContractViolation, match="common K"):
            decompose_round(trace)

    def test_one_parameter_client_rejected_not_broadcast(self):
        trace = traced_round(seed=4, clients=3, k=3)
        trace.step_gradients[1] = trace.step_gradients[1][:, :1]
        with pytest.raises(ContractViolation, match=r"shapes \[\(3, 1\), \(3, \d+\)\]"):
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

    @pytest.mark.parametrize("call, error, message", [
        (lambda spec, params, batch: fomaml_maml_gap(spec, params, [batch], None, -1, 0.1),
         ContractViolation, "steps must be non-negative"),
        (lambda spec, params, batch: maml_gradient_oracle(spec, params, [], 0.1),
         ContractViolation, "eval_batch required when there are no adaptation batches"),
        (lambda spec, params, batch: maml_gradient_oracle(spec, 1e200 * params, [batch], 1e200),
         DivergenceError, "parameters diverged at step 0"),
    ], ids=["negative-steps", "no-eval-batch", "diverging-replay"])
    def test_refused(self, call, error, message):
        spec, params, batch, _ = quadratic_problem(seed=26)
        with pytest.raises(error, match=f"^{message}$"):
            call(spec, params, batch)


# SHA-256 over certificate_digest's outputs, recorded when the oracle and
# fomaml_maml_gap moved into one module; any moved bit changes it.
CERTIFICATE_SHA256 = "e361bc0abc6b0aaa52fffbe40b2e5285eff7b1582e8b38576663202b10f68485"


def certificate_digest():
    """A SHA-256 over the oracle's meta-gradients and fomaml_maml_gap's
    (gap, cosine) on fixed MLP cases, every activation with an explicit and
    a default eval batch at 0-3 steps, and on fixed quadratic cases."""
    h = hashlib.sha256()
    rng = np.random.default_rng(2718)
    for activation in ("identity", "relu", "tanh"):
        spec = ModelSpec(3, (4, 2), activation=activation)
        params = rng.normal(scale=0.8, size=spec.param_count)
        batches = [Batch(rng.normal(size=(5, 3)), rng.integers(0, 2, size=5)) for _ in range(3)]
        held_out = Batch(rng.normal(size=(4, 3)), rng.integers(0, 2, size=4))
        for steps in range(4):
            for eval_batch in (held_out, None) if steps else (held_out,):
                oracle = maml_gradient_oracle(spec, params, batches[:steps], 0.3, eval_batch)
                gap = fomaml_maml_gap(spec, params, batches, eval_batch, steps, 0.3)
                h.update(oracle.tobytes() + np.array(gap).tobytes())
    for seed in (31, 32):
        spec, params, batch, a = quadratic_problem(seed=seed, d=3, c=2, n=10)
        beta = 0.2 / np.linalg.eigvalsh(a).max()
        for steps in range(1, 4):
            oracle = maml_gradient_oracle(spec, params, [batch] * steps, beta)
            gap = fomaml_maml_gap(spec, params, [batch] * steps, None, steps, beta)
            h.update(oracle.tobytes() + np.array(gap).tobytes())
    return h.hexdigest()


def test_certificate_keeps_every_bit():
    assert certificate_digest() == CERTIFICATE_SHA256


def initial(snap):
    return snap.initial_mean


class TestRoundsToThreshold:
    def test_never_reaching(self):
        runs = [snapshot_run([0.1, 0.2, 0.3]), snapshot_run([0.1])]
        assert rounds_to_threshold(runs, initial, 0.8) == "never"

    def test_first_snapshot_already_above(self):
        run = snapshot_run([0.9, 0.95])
        assert rounds_to_threshold([run], initial, 0.8) == "1.0(1)"

    def test_monotone_series_crossing(self):
        values = [0.1 * i for i in range(1, 11)]  # crosses 0.65 at round 7
        run = snapshot_run(values)
        assert rounds_to_threshold([run], initial, 0.65) == "7.0(1)"

    def test_no_snapshots_rejected(self):
        # report reduces the rows, and so checks every run, before any threshold
        with pytest.raises(ContractViolation, match="every run needs evaluation snapshots"):
            replica_rows([snapshot_run([0.5]), snapshot_run([])])

    def test_mean_excludes_never(self):
        runs = [
            snapshot_run([0.5, 0.9]),
            snapshot_run([0.2, 0.3]),
            snapshot_run([0.95]),
        ]
        assert rounds_to_threshold(runs, initial, 0.8) == "1.5(2)"

    def test_never_format(self):
        assert rounds_to_threshold([snapshot_run([0.1])], initial, 0.8) == "never"

    def test_metric_is_the_callable(self):
        runs = [[EvalSnapshot(1, 0.1, 0.0, 0.9, 0.0), EvalSnapshot(2, 0.9, 0.0, 0.1, 0.0)]]
        assert rounds_to_threshold(runs, initial, 0.8) == "2.0(1)"
        assert rounds_to_threshold(runs, lambda s: s.personalized_mean, 0.8) == "1.0(1)"

    def test_monotone_in_threshold_over_random_traces(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            values = rng.random(rng.integers(1, 12))
            run = snapshot_run(list(values))
            t1, t2 = sorted(rng.random(2))
            assert first_round(run, t1) <= first_round(run, t2)


def final_stats(runs):
    """(mean, std) of the initial means across replicas at the last
    snapshot, as the report's final accuracy lines show them."""
    return replica_rows(runs)[-1][1:3]


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
        assert "\nfinal initial_accuracy: 0.8000 (0.0163)\n" in _report("0" * 12, runs, 0.8)[0]

    def test_permutation_invariant(self):
        runs = [snapshot_run([v]) for v in (0.3, 0.5, 0.9)]
        assert replica_rows(runs) == replica_rows(runs[::-1])

    def test_inconsistent_schedules_rejected(self):
        runs = [snapshot_run([0.1, 0.2]), snapshot_run([0.1])]
        with pytest.raises(ContractViolation, match="inconsistent snapshot schedules"):
            replica_rows(runs)

    def test_per_snapshot_stats(self):
        runs = [snapshot_run([0.1, 0.3]), snapshot_run([0.3, 0.5])]
        stats = replica_rows(runs)
        assert stats[0][0] == 1 and stats[1][0] == 2
        assert stats[0][1] == pytest.approx(0.2)
        assert stats[1][1] == pytest.approx(0.4)
        assert [row[1:3] for row in stats] == [row[3:] for row in stats]

    def test_no_runs_rejected(self):
        with pytest.raises(ContractViolation, match="need at least one run"):
            replica_rows([])


def snapshot_lists(draw_values, replicas, snapshots):
    """``replicas`` runs sharing the schedule 1..``snapshots``, each
    snapshot's two means drawn independently."""
    return [
        [EvalSnapshot(i + 1, draw_values(), 0.0, draw_values(), 0.0) for i in range(snapshots)]
        for _ in range(replicas)
    ]


def cell_bits(values):
    """A report cell pair as bytes: the mean and population std of
    ``np.sort(values)``, each reduced in one 1-D pass."""
    values = np.sort(values)
    return np.float64(values.mean()).tobytes() + np.float64(values.std()).tobytes()


def row_bits(row):
    return b"".join(np.float64(cell).tobytes() for cell in row[1:])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), replicas=st.integers(1, 12), snapshots=st.integers(1, 5))
def test_replica_rows_keep_every_bit(data, replicas, snapshots):
    """Every cell is the 1-D sorted mean and std of that snapshot's values,
    byte for byte, and no order of the replicas moves a bit. Up to 12
    replicas, so the default 9, where numpy sums pairwise, is covered."""
    value = st.floats(0.0, 1.0, allow_subnormal=False)
    runs = snapshot_lists(lambda: data.draw(value), replicas, snapshots)
    rows = replica_rows(runs)
    assert [row[0] for row in rows] == list(range(1, snapshots + 1))
    for i, row in enumerate(rows):
        expected = cell_bits([run[i].initial_mean for run in runs]) + cell_bits(
            [run[i].personalized_mean for run in runs]
        )
        assert row_bits(row) == expected
    order = data.draw(st.permutations(range(replicas)))
    shuffled = replica_rows([runs[j] for j in order])
    assert [row_bits(row) for row in shuffled] == [row_bits(row) for row in rows]
