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

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .federation import RoundTrace
from .model import (
    Batch,
    ModelSpec,
    gradient,
    maml_gradient_oracle,
    merge_batches,
    sgd_trajectory,
)
from .optimizers import sgd_update
from .personalization import EvalSnapshot


@dataclass
class DecompositionReport:
    g_fedavg: np.ndarray
    g_fedsgd: np.ndarray
    g_fomaml_by_j: list[np.ndarray]
    residual_norm: float


def decompose_round(trace: RoundTrace) -> DecompositionReport:
    """Split a traced uniform round update into its per-step components.

    The terms are scaled by the round's own client step size, ``trace.beta``.
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
    shapes = {np.shape(g) for g in grads}
    if len(shapes) != 1:
        raise ContractViolation(
            f"clients' step gradients have shapes {sorted(shapes)}; "
            "the decomposition requires a common K and P"
        )
    if len(set(trace.weights.tolist())) != 1:
        raise ContractViolation(
            "decomposition requires uniform client weights"
        )

    g_fedavg = np.asarray(trace.aggregate, dtype=np.float64)
    # Row 0 is the FedSGD update, row j the jth FOMAML term. Adding the clients
    # in order to zeros, then dividing by M, is numpy's mean of the stacked
    # (M, K, P) gradients over clients when P >= 2 (every ModelSpec), bit for bit.
    total = np.zeros(np.shape(grads[0]))
    for g in grads:
        total += g
    g_fedsgd, *terms = -trace.beta * (total / len(grads))

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

    g_maml = maml_gradient_oracle(spec, params, adapt, beta, eval_batch)
    theta = params
    if steps:
        (theta,), _, (failure,) = sgd_trajectory(spec, params, [adapt], sgd_update(beta))
        if failure is not None:
            raise failure
    g_first_order = gradient(spec, theta, eval_batch)

    gap = float(np.linalg.norm(g_maml - g_first_order))
    n1 = np.linalg.norm(g_maml)
    n2 = np.linalg.norm(g_first_order)
    cosine = 1.0 if n1 == 0.0 or n2 == 0.0 else float(g_maml @ g_first_order / (n1 * n2))
    return gap, cosine


def replica_rows(runs: list[list[EvalSnapshot]]) -> list[tuple[int, float, float, float, float]]:
    """The report's rows, one per snapshot of the replicas' shared schedule:
    the round, then the mean and population std across replicas of the
    initial and of the personalized means."""
    if not runs:
        raise ContractViolation("need at least one run")
    schedules = [[s.round_index for s in run] for run in runs]
    if not all(schedules):
        raise ContractViolation("every run needs evaluation snapshots")
    if any(s != schedules[0] for s in schedules[1:]):
        raise ContractViolation("runs have inconsistent snapshot schedules")
    rows = []
    for snaps in zip(*runs):
        row = [snaps[0].round_index]
        for values in ([s.initial_mean for s in snaps], [s.personalized_mean for s in snaps]):
            # Sorted, so the stats are exactly permutation-invariant. One 1-D
            # pass per cell: an (R, S) axis-0 pass adds in another order once R >= 8.
            values = np.sort(values)
            row += [float(values.mean()), float(values.std())]
        rows.append(tuple(row))
    return rows


def rounds_to_threshold(
    runs: list[list[EvalSnapshot]], metric: Callable[[EvalSnapshot], float], threshold: float
) -> str:
    """The mean, over the replicas whose ``metric`` reaches ``threshold``, of
    the first snapshot round where it does, and their count, as ``1.5(2)``;
    ``never`` if no replica reaches it."""
    firsts = [next((s.round_index for s in run if metric(s) >= threshold), None) for run in runs]
    reached = [r for r in firsts if r is not None]
    return f"{np.mean(reached):.1f}({len(reached)})" if reached else "never"
