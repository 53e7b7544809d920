"""Numerical certification of the update-decomposition claims and
replica-level statistics.

The central check: when every sampled client takes the same number K of
plain SGD steps and updates are averaged uniformly, the round's mean
parameter delta is, term for term, the single-step baseline update plus the
K-1 adapted-gradient updates built from the same recorded trajectories.
Because every term comes from the same trajectory record, the identity
holds to floating-point roundoff, not just in expectation. The record is the
round's ``RoundTrace``: its (K, P) gradient arrays, one per client, stack
into an (M, K, P) array whose client mean gives every term at once.

Convention: recorded step gradients are raw loss gradients; the client step
size enters once, with a minus sign, when an update vector is built from
them. All update-space quantities here follow that convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .federation import RoundTrace, TrainingRun
from .model import (
    Batch,
    ModelSpec,
    gradient,
    maml_gradient_oracle,
    merge_batches,
    sgd_trajectory,
)

METRICS = ("initial", "personalized")


@dataclass
class DecompositionReport:
    g_fedavg: np.ndarray
    g_fedsgd: np.ndarray
    g_fomaml_by_j: list[np.ndarray]
    residual_norm: float


def decompose_round(trace: RoundTrace, beta: float) -> DecompositionReport:
    """Split a traced uniform round update into its per-step components.

    Requires the trace to carry raw step gradients, every client to have
    taken the same number of steps, and uniform weights; with
    data-proportional weights the rearrangement does not telescope and the
    round is rejected rather than approximated.
    """
    grads = trace.step_gradients
    if grads is None:
        raise ContractViolation(
            "round was not traced with step gradients; rerun with tracing enabled"
        )
    if not grads:
        raise ContractViolation("trace has no clients")
    lengths = {len(g) for g in grads}
    if len(lengths) != 1:
        raise ContractViolation(
            f"clients took different step counts {sorted(lengths)}; "
            "the decomposition requires a common K"
        )
    if len(set(trace.weights.tolist())) != 1:
        raise ContractViolation(
            "decomposition requires uniform client weights"
        )

    g_fedavg = np.asarray(trace.aggregate, dtype=np.float64)
    # Row 0 is the FedSGD update, row j the jth FOMAML term. The mean adds
    # the clients in order, as a per-step (M, P) mean does when P >= 2
    # (every ModelSpec); at P = 1 numpy would sum that axis pairwise.
    g_fedsgd, *terms = -beta * np.stack(grads).mean(axis=0)

    reconstruction = g_fedsgd.copy()
    for term in terms:
        reconstruction += term
    residual = float(np.linalg.norm(g_fedavg - reconstruction))
    return DecompositionReport(
        g_fedavg=g_fedavg,
        g_fedsgd=g_fedsgd,
        g_fomaml_by_j=terms,
        residual_norm=residual,
    )


def decomposition_text(report: DecompositionReport) -> str:
    lines = [
        "fms-decomposition/1",
        f"norm_fedavg={np.linalg.norm(report.g_fedavg):.12e}",
        f"norm_fedsgd={np.linalg.norm(report.g_fedsgd):.12e}",
    ]
    for j, term in enumerate(report.g_fomaml_by_j, start=1):
        lines.append(f"norm_fomaml_{j}={np.linalg.norm(term):.12e}")
    lines.append(f"residual_norm={report.residual_norm:.12e}")
    return "\n".join(lines) + "\n"


def fomaml_maml_gap(
    spec: ModelSpec,
    params: np.ndarray,
    batches: list[Batch],
    eval_batch: Batch | None,
    steps: int,
    beta: float,
    fd_step: float = 1e-5,
) -> tuple[float, float]:
    """Distance and cosine between the exact meta-gradient and its
    first-order surrogate for a single client.

    The exact meta-gradient differentiates through the K adaptation steps
    (finite differences); the surrogate is the raw gradient at the adapted
    parameters. Both shrink together as beta -> 0, and their gap is
    proportional to beta to first order.
    """
    if steps < 0:
        raise ContractViolation("steps must be non-negative")
    if len(batches) < steps:
        raise ContractViolation(f"need {steps} adaptation batches, got {len(batches)}")
    adapt = batches[:steps]
    if eval_batch is None:
        if not adapt:
            raise ContractViolation("eval_batch required when steps is 0")
        eval_batch = merge_batches(adapt)

    g_maml = maml_gradient_oracle(spec, params, adapt, beta, eval_batch, fd_step)
    theta = sgd_trajectory(spec, params, [adapt], beta)[0][0] if steps else np.asarray(params, dtype=np.float64)
    g_first_order = gradient(spec, theta, eval_batch)

    gap = float(np.linalg.norm(g_maml - g_first_order))
    n1 = np.linalg.norm(g_maml)
    n2 = np.linalg.norm(g_first_order)
    cosine = 1.0 if n1 == 0.0 or n2 == 0.0 else float(g_maml @ g_first_order / (n1 * n2))
    return gap, cosine


def rounds_to_threshold(run: TrainingRun, metric: str, threshold: float) -> int | None:
    """First evaluated round whose metric reaches the threshold, else None."""
    if metric not in METRICS:
        raise ContractViolation(f"unknown metric {metric!r}")
    snapshots = run.snapshots
    if not snapshots:
        raise ContractViolation("run has no evaluation snapshots")
    for snap in snapshots:
        if _snapshot_value(snap, metric) >= threshold:
            return snap.round_index
    return None


@dataclass
class ThresholdStats:
    mean_rounds: float | None
    reached_count: int

    def format(self) -> str:
        if self.reached_count == 0:
            return "never"
        return f"{self.mean_rounds:.1f}({self.reached_count})"


def threshold_stats(runs: list[TrainingRun], metric: str, threshold: float) -> ThresholdStats:
    """Mean rounds-to-threshold over the replicas that reached it."""
    per_replica = [rounds_to_threshold(run, metric, threshold) for run in runs]
    reached = [r for r in per_replica if r is not None]
    mean_rounds = float(np.mean(reached)) if reached else None
    return ThresholdStats(mean_rounds=mean_rounds, reached_count=len(reached))


def format_mean_std(mean: float, std: float) -> str:
    return f"{mean:.4f} ({std:.4f})"


def _snapshot_value(snap, metric: str) -> float:
    return snap.initial_mean if metric == "initial" else snap.personalized_mean


def _check_schedules(runs: list[TrainingRun]) -> None:
    if not runs:
        raise ContractViolation("need at least one run")
    schedules = [[s.round_index for s in run.snapshots] for run in runs]
    if any(not s for s in schedules):
        raise ContractViolation("every run needs evaluation snapshots")
    if any(s != schedules[0] for s in schedules[1:]):
        raise ContractViolation("runs have inconsistent snapshot schedules")


def per_snapshot_stats(runs: list[TrainingRun], metric: str) -> list[tuple[int, float, float]]:
    """(round, mean, population std) across replicas at every snapshot."""
    if metric not in METRICS:
        raise ContractViolation(f"unknown metric {metric!r}")
    _check_schedules(runs)
    out = []
    for i, snap in enumerate(runs[0].snapshots):
        # Sort before reducing so the stats are exactly permutation-invariant.
        vals = np.sort([_snapshot_value(run.snapshots[i], metric) for run in runs])
        out.append((snap.round_index, float(vals.mean()), float(vals.std())))
    return out
