"""Acceptance suite: one test per release criterion, printed pass lines.

The heavyweight training suites (criteria 4-6) run once in one
module-scoped fixture and are shared: each seed's stage 1 is trained once,
and both fine-tuning variants fork from it. Each criterion asserts its own
direction, margin, and runtime budget. Everything is deterministic for a
fixed environment.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fedmetasim import (
    Batch,
    ClientOptimizerConfig,
    ModelSpec,
    PersonalizationConfig,
    RoundConfig,
    ServerOptimizerState,
    decompose_round,
    eval_population,
    fomaml_maml_gap,
    format_mean_std,
    generate_synthetic,
    gradient,
    init_params,
    maml_gradient_oracle,
    per_snapshot_stats,
    rounds_to_threshold,
    run_personalized_fedavg,
    run_round,
    run_stage,
    split_train_eval,
    substream,
)
from fedmetasim.cli import main as cli_main
from fedmetasim.config import (
    build_dataset,
    build_eval_config,
    build_model_spec,
    build_stage,
    load_config,
)
from util import drain, fd_gradient, max_relative_error, quadratic_problem, snapshot_run

pytestmark = pytest.mark.slow

CONFIG_DIR = "configs"


@pytest.fixture(scope="module")
def bundle():
    cfg = load_config(f"{CONFIG_DIR}/synthetic.ini")
    dataset = build_dataset(cfg)
    spec = build_model_spec(cfg)
    stage1 = build_stage(cfg, "stage1")
    stage2 = build_stage(cfg, "stage2")
    eval_cfg = replace(build_eval_config(cfg), every=0)  # stage-end snapshots only
    return {
        "cfg": cfg,
        "dataset": dataset,
        "spec": spec,
        "stage1": stage1,
        "stage2": stage2,
        "eval_cfg": eval_cfg,
        "seeds": range(1, 6),
    }


@pytest.fixture(scope="module")
def runs(bundle):
    """Final (initial, personalized) accuracy per seed: of stage-1-only
    training at the bundled E=10 and at E=2, keyed ("epochs", E, seed), and
    of stage 2 with K=1 and K=10 forked from the E=10 run's last parameters
    at its last round, keyed ("steps", K, seed)."""
    spec, dataset, eval_cfg = bundle["spec"], bundle["dataset"], bundle["eval_cfg"]
    stage1, stage2 = bundle["stage1"], bundle["stage2"]
    e2 = replace(stage1, round_cfg=replace(stage1.round_cfg, epochs=2))

    def last(run):
        snap = run.snapshots[-1]
        return snap.initial_mean, snap.personalized_mean

    t0 = time.perf_counter()
    out = {}
    for seed in bundle["seeds"]:
        base = drain(run_personalized_fedavg(spec, dataset, [stage1], eval_cfg, seed=seed))
        out[("epochs", 10, seed)] = last(base)
        for steps in (1, 10):
            fork = replace(stage2, round_cfg=replace(stage2.round_cfg, steps=steps))
            out[("steps", steps, seed)] = last(drain(run_stage(
                spec, dataset, fork, eval_cfg, seed,
                base.final_params, stage1.rounds,
            )))
        out[("epochs", 2, seed)] = last(
            drain(run_personalized_fedavg(spec, dataset, [e2], eval_cfg, seed=seed))
        )
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_1_round_update_decomposition():
    t0 = time.perf_counter()
    spec = ModelSpec(8, (16, 4))
    dataset = generate_synthetic(
        seed=42, num_clients=3, classes_per_client=4, examples_per_client=30,
        input_dim=8, num_classes=4, heterogeneity=0.5,
    )
    cfg = RoundConfig("reptile", 3, ClientOptimizerConfig(0.05, 8), steps=4)
    server = ServerOptimizerState("sgd", lr=1.0)
    params = init_params(spec, substream(42, "init"))
    _, _, trace = run_round(
        spec, params, dataset, cfg, server, 0, 42, trace=True
    )
    report = decompose_round(trace)
    elapsed = time.perf_counter() - t0
    assert len(report.g_fomaml_by_j) == 3
    assert report.residual_norm <= 1e-10
    assert elapsed < 1.0
    print(
        f"\nPASS criterion 1: decomposition residual {report.residual_norm:.2e} "
        f"<= 1e-10 (T=3, K=4, {elapsed:.2f}s)"
    )


def test_criterion_2_gradient_correctness():
    t0 = time.perf_counter()
    cases = []
    activations = ("identity", "relu", "tanh")
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        input_dim = int(rng.integers(3, 7))
        hidden = int(rng.integers(4, 9))
        classes = int(rng.integers(2, 5))
        spec = ModelSpec(input_dim, (hidden, classes), activation=activations[i % 3])
        params = rng.normal(scale=0.7, size=spec.param_count)
        batch = Batch(
            rng.normal(size=(6, input_dim)), rng.integers(0, classes, size=6)
        )
        cases.append((spec, params, batch))
    worst = 0.0
    for spec, params, batch in cases:
        exact = gradient(spec, params, batch)
        approx = fd_gradient(spec, params, batch, h=1e-5)
        worst = max(worst, max_relative_error(approx, exact))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-5
    assert elapsed < 5.0
    print(
        f"\nPASS criterion 2: max relative gradient error {worst:.2e} <= 1e-5 "
        f"over 20 cases ({elapsed:.2f}s)"
    )


def test_criterion_3_meta_gradient_oracle():
    t0 = time.perf_counter()
    spec, params, batch, a = quadratic_problem(seed=33, d=3, c=2, n=10)
    lam = np.linalg.eigvalsh(a).max()
    beta = 0.2 / lam
    k = 4
    oracle = maml_gradient_oracle(spec, params, [batch] * k, beta)
    prop = np.linalg.matrix_power(np.eye(a.shape[0]) - beta * a, k)
    closed = prop @ a @ prop @ params
    rel = max_relative_error(oracle, closed, floor=1e-10)
    assert rel <= 1e-6

    beta_small = 0.1 / lam
    gap_full, _ = fomaml_maml_gap(spec, params, [batch] * 3, None, 3, beta_small)
    gap_half, _ = fomaml_maml_gap(spec, params, [batch] * 3, None, 3, beta_small / 2)
    ratio = gap_half / gap_full
    elapsed = time.perf_counter() - t0
    assert 0.3 <= ratio <= 0.7
    assert elapsed < 5.0
    print(
        f"\nPASS criterion 3: oracle vs closed form rel err {rel:.2e} <= 1e-6, "
        f"gap ratio {ratio:.3f} in [0.3, 0.7] ({elapsed:.2f}s)"
    )


def test_criterion_4_personalization_gap_direction(runs, bundle):
    gaps = []
    for seed in bundle["seeds"]:
        init, pers = runs[("epochs", 10, seed)]
        gaps.append(pers - init)
    assert all(g >= 0.02 for g in gaps), f"gaps below 2pp: {gaps}"
    wins = sum(
        runs[("epochs", 10, seed)][1] >= runs[("epochs", 2, seed)][1]
        for seed in bundle["seeds"]
    )
    assert wins >= 4, f"E=10 personalized >= E=2 in only {wins}/5 seeds"
    assert runs["elapsed"] < 600.0
    print(
        f"\nPASS criterion 4: personalization gap min {min(gaps)*100:.1f}pp >= 2pp "
        f"in every seed; E=10 >= E=2 personalized in {wins}/5 seeds "
        f"({runs['elapsed']:.0f}s)"
    )


def test_criterion_5_finetune_tradeoff_direction(runs, bundle):
    init_wins = sum(
        runs[("steps", 1, seed)][0] > runs[("steps", 10, seed)][0]
        for seed in bundle["seeds"]
    )
    pers_wins = sum(
        runs[("steps", 10, seed)][1] > runs[("steps", 1, seed)][1]
        for seed in bundle["seeds"]
    )
    assert init_wins >= 4, f"single-step fine-tune higher initial in only {init_wins}/5"
    assert pers_wins >= 4, f"10-step fine-tune higher personalized in only {pers_wins}/5"
    assert runs["elapsed"] < 600.0
    print(
        f"\nPASS criterion 5: initial accuracy favors 1-step fine-tuning in "
        f"{init_wins}/5 seeds, personalized favors 10-step in {pers_wins}/5 "
        f"({runs['elapsed']:.0f}s)"
    )


def test_criterion_6_finetune_stability(runs, bundle):
    stage1_std = float(np.std([runs[("epochs", 10, seed)][0] for seed in bundle["seeds"]]))
    stage2_std = float(np.std([runs[("steps", 10, seed)][0] for seed in bundle["seeds"]]))
    assert stage2_std < stage1_std
    print(
        f"\nPASS criterion 6: initial-accuracy std across seeds "
        f"{stage1_std:.4f} (stage 1) -> {stage2_std:.4f} (after fine-tuning)"
    )


def test_criterion_7_protocol_exactness(tmp_path, capsys):
    # (a) zero-epoch personalization reports are exactly the initial metrics
    dataset = split_train_eval(
        generate_synthetic(
            seed=3, num_clients=8, classes_per_client=3, examples_per_client=40,
            input_dim=6, num_classes=4, heterogeneity=0.6,
        ),
        0.25, seed=3,
    )
    spec = ModelSpec(6, (10, 4))
    params = init_params(spec, substream(3, "init"))
    report = eval_population(
        spec, params, dataset, dataset.eval_client_ids,
        PersonalizationConfig(optimizer="sgd", lr=0.05, epochs=0, batch_size=10),
        3,
    )
    assert report.personalized_mean == report.initial_mean
    assert report.personalized_std == report.initial_std
    assert all(o.personalized_acc == o.initial_acc for o in report.outcomes)

    # (b) rounds_to_threshold is monotone in the threshold over random traces
    rng = np.random.default_rng(7)
    for _ in range(100):
        run = snapshot_run(rng.random(rng.integers(1, 12)).tolist())
        lo, hi = sorted(rng.random(2))
        r_lo = rounds_to_threshold(run, "initial", lo)
        r_hi = rounds_to_threshold(run, "initial", hi)
        inf = float("inf")
        assert (r_lo if r_lo is not None else inf) <= (r_hi if r_hi is not None else inf)

    # (c) replica aggregation uses the "mean (std)" format, against the golden
    runs = [snapshot_run(values) for values in ((0.78, 0.80), (0.80, 0.82), (0.82, 0.78))]
    _, mean, std = per_snapshot_stats(runs, "initial")[-1]
    assert format_mean_std(mean, std) == "0.8000 (0.0163)"

    # (d) identical train invocations write byte-identical metric CSVs
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        rc = cli_main(
            ["train", "-c", f"{CONFIG_DIR}/smoke.ini", "--out", str(out)]
        )
        assert rc == 0
    for replica in range(3):
        a = (out_a / f"replica_{replica:02d}" / "metrics.csv").read_bytes()
        b = (out_b / f"replica_{replica:02d}" / "metrics.csv").read_bytes()
        assert a == b

    # (e) the aggregated report reproduces the committed golden byte for byte
    report_dir = tmp_path / "report"
    rc = cli_main(
        ["report", *(str(out_a / f"replica_{i:02d}") for i in range(3)),
         "--out", str(report_dir)]
    )
    assert rc == 0
    capsys.readouterr()
    golden = Path("tests/golden/smoke_report.txt").read_bytes()
    assert (report_dir / "report.txt").read_bytes() == golden
    print(
        "\nPASS criterion 7: zero-epoch equality exact, threshold monotone over "
        "100 traces, mean (std) formatting matches golden, reruns byte-identical"
    )
