"""Numerical certification of the update-decomposition claims, the
meta-gradient certificate, and replica-level statistics.

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

The meta-gradient certificate measures how far first-order MAML is from MAML,
whose exact meta-gradient a finite-difference oracle gives for small models.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ContractViolation
from .federation import RoundTrace
from .model import Batch, ModelSpec, _check_params, forward_loss, gradient, sgd_trajectory
from .optimizers import sgd_update
from .personalization import EvalSnapshot


# The meta-gradient oracle costs two trajectory replays per parameter.
MAML_ORACLE_MAX_DIM = 2000
FD_STEP = 1e-5


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


def _eval_batch_or_union(batches: list[Batch], eval_batch: Batch | None) -> Batch:
    """``eval_batch``, by default one batch of every example of ``batches`` in order."""
    if eval_batch is not None:
        return eval_batch
    if not batches:
        raise ContractViolation("eval_batch required when there are no adaptation batches")
    xs = np.concatenate([b.x for b in batches])
    ys = np.concatenate([b.y for b in batches])
    if all(b.targets is not None for b in batches):
        return Batch(xs, ys, np.concatenate([b.targets for b in batches]))
    return Batch(xs, ys)


def _adapted(spec: ModelSpec, theta: np.ndarray, batches: list[Batch], beta: float) -> np.ndarray:
    """``theta`` after one SGD step of size ``beta`` per batch, replayed through
    ``sgd_trajectory``; a replay that diverges raises its DivergenceError."""
    update = sgd_update(beta)  # checks beta even with no batch to replay
    if batches:
        (theta,), _, (failure,) = sgd_trajectory(spec, theta, [batches], update)
        if failure is not None:
            raise failure
    return theta


def maml_gradient_oracle(
    spec: ModelSpec,
    params: np.ndarray,
    batches: list[Batch],
    beta: float,
    eval_batch: Batch | None = None,
) -> np.ndarray:
    """Central finite differences of theta -> loss(adapt(theta), eval_batch):
    the meta-gradient, the loss after K local SGD steps differentiated with
    respect to the starting point.

    ``adapt`` replays the SGD trajectory over ``batches``, and a replay that
    diverges raises. One coordinate moves by +-FD_STEP at a time, at two
    trajectory replays per parameter, so the dimension is capped. With no
    batches (or beta = 0) the adaptation is the identity and the result is
    the plain gradient up to finite-difference error. The oracle is
    deliberately independent of backpropagation, so the two check each other.
    """
    params = _check_params(spec, params)
    if spec.param_count > MAML_ORACLE_MAX_DIM:
        raise CapacityError(
            f"oracle capped at {MAML_ORACLE_MAX_DIM} parameters, spec has {spec.param_count}"
        )
    eval_batch = _eval_batch_or_union(batches, eval_batch)
    out = np.empty(spec.param_count)
    for i in range(spec.param_count):
        bumped = params.copy()
        bumped[i] = params[i] + FD_STEP
        up = forward_loss(spec, _adapted(spec, bumped, batches, beta), eval_batch)
        bumped[i] = params[i] - FD_STEP
        down = forward_loss(spec, _adapted(spec, bumped, batches, beta), eval_batch)
        out[i] = (up - down) / (2.0 * FD_STEP)
    return out


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
    eval_batch = _eval_batch_or_union(adapt, eval_batch)

    g_maml = maml_gradient_oracle(spec, params, adapt, beta, eval_batch)
    g_first_order = gradient(spec, _adapted(spec, params, adapt, beta), eval_batch)

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
