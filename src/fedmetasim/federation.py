"""The round engine.

One communication round samples clients, runs their local SGD trajectories
in lockstep (one ``model.sgd_trajectory`` call, whatever their lengths),
aggregates the weighted parameter deltas in ascending client-id order, and
applies the server optimizer.

The four algorithms differ only in how many batches a client's trajectory
covers and which vector the client returns:

- fedavg: E epochs (or exactly K steps) of local SGD, delta = theta_K - theta.
- reptile: exactly K local SGD steps, same delta, uniform weighting.
- fedsgd: the single-step special case of reptile.
- fomaml: K adaptation steps plus one on the next batch; the update is
  -beta times that last gradient, evaluated at the adapted parameters.

A round's record, ``RoundTrace``, holds every member of its trace file:
the weights (M,), the client deltas (M, P) row by row in client-id order,
the aggregate (P,), the client step size beta, and, with ``trace=True``,
one (K_i, P) array of raw per-step gradients per client, from which the
averaged round update can later be decomposed exactly into its single-step
and adapted-gradient components. A non-finite gradient or iterate raises
DivergenceError naming the round and the lowest-id client that diverged, at
its own step, as if the clients had run one after another; a non-finite
server step raises it naming the round.

The driver, ``run_personalized_fedavg``, chains one ``run_stage`` stream per
stage: each yields every round's ``RoundTrace``, with its evaluation snapshot
(the held-out population's ``PersonalizationReport``) attached when one is
due, and the global parameters after it, one round at a time. Its consumer
keeps what it needs.

Randomness is drawn from counter-based substreams keyed by (purpose, round,
client), so per-client work is order-independent and a run is a pure
function of (config, seed, dataset).
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .data import FederatedDataset
from .errors import ContractViolation, DivergenceError, NumericError
from .model import ModelSpec, init_params, sgd_trajectory
from .optimizers import (
    ClientOptimizerConfig,
    ServerOptimizerState,
    make_client_batches,
    server_apply,
    sgd_update,
)
from .personalization import PersonalizationConfig, PersonalizationReport, eval_population
from .rng import substream

ALGORITHMS = ("fedavg", "reptile", "fedsgd", "fomaml")
WEIGHTINGS = ("data_proportional", "uniform")


@dataclass(frozen=True)
class RoundConfig:
    """Per-round behaviour: algorithm, client sampling, local optimization.

    Exactly one of ``epochs``/``steps`` selects the local mode; fedavg
    accepts either, reptile and fomaml are step-counted by definition, and
    fedsgd is pinned to a single step. Non-fedavg algorithms average client
    updates uniformly regardless of local data volume.
    """

    algorithm: str
    clients_per_round: int
    client_cfg: ClientOptimizerConfig
    epochs: int | None = None
    steps: int | None = None
    weighting: str | None = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ContractViolation(f"unknown algorithm {self.algorithm!r}")
        if self.clients_per_round < 1:
            raise ContractViolation("clients_per_round must be positive")
        if self.algorithm == "fedsgd":
            if self.epochs is not None or self.steps not in (None, 1):
                raise ContractViolation("fedsgd implies exactly one local step")
            object.__setattr__(self, "steps", 1)
        elif self.algorithm in ("reptile", "fomaml"):
            if self.steps is None or self.epochs is not None:
                raise ContractViolation(f"{self.algorithm} requires steps, not epochs")
        else:
            if (self.epochs is None) == (self.steps is None):
                raise ContractViolation("fedavg requires exactly one of epochs/steps")
        if self.steps is not None and self.steps < 1:
            raise ContractViolation("steps must be positive")
        if self.epochs is not None and self.epochs < 1:
            raise ContractViolation("epochs must be positive")
        if self.weighting is None:
            default = "data_proportional" if self.algorithm == "fedavg" else "uniform"
            object.__setattr__(self, "weighting", default)
        if self.weighting not in WEIGHTINGS:
            raise ContractViolation(f"unknown weighting {self.weighting!r}")
        if self.algorithm != "fedavg" and self.weighting != "uniform":
            raise ContractViolation(f"{self.algorithm} averages uniformly")


@dataclass
class RoundTrace:
    """One round, as its trace file holds it: the M sampled clients in
    ascending order, their aggregation weights (M,) and deltas (M, P) in
    the same order, the applied aggregate (P,), the client step size
    ``beta``, and one (K_i, P) array of raw step gradients per client, or
    None when the round was not traced."""

    round_index: int
    client_ids: list[int]
    weights: np.ndarray
    deltas: np.ndarray
    aggregate: np.ndarray
    beta: float
    step_gradients: list[np.ndarray] | None = None
    snapshot: PersonalizationReport | None = None
    wallclock_ms: float = 0.0


def sample_clients(
    train_client_ids, m: int, rng: np.random.Generator
) -> list[int]:
    """M distinct training clients, uniform without replacement, ascending."""
    ids = list(train_client_ids)
    if not 1 <= m <= len(ids):
        raise ContractViolation(f"cannot sample {m} of {len(ids)} train clients")
    picked = rng.permutation(len(ids))[:m]
    return sorted(ids[i] for i in picked)


def run_round(
    spec: ModelSpec,
    params: np.ndarray,
    dataset: FederatedDataset,
    cfg: RoundConfig,
    server_state: ServerOptimizerState,
    round_index: int,
    seed: int,
    trace: bool = False,
) -> tuple[np.ndarray, ServerOptimizerState, RoundTrace]:
    """One communication round: sample, update, aggregate, apply.

    The sampled clients' trajectories run in lockstep, each to its own end
    or divergence. Epoch-counted fedavg runs E full epochs, E * ceil(n / B)
    steps; otherwise a trajectory covers the first K batches (K+1 for
    fomaml). fomaml's update is -beta times the last gradient, taken at the
    adapted parameters on the extra batch; every other algorithm's is the
    parameter delta.
    """
    started = time.perf_counter()
    sample_rng = substream(seed, "round.sample", round_index)
    ids = sample_clients(dataset.train_client_ids, cfg.clients_per_round, sample_rng)
    clients = [dataset.clients[cid] for cid in ids]

    proportional = cfg.weighting == "data_proportional"
    weights = [float(c.weight) if proportional else 1.0 for c in clients]
    lr, batch_size = cfg.client_cfg.lr, cfg.client_cfg.batch_size
    fomaml = cfg.algorithm == "fomaml"
    if cfg.epochs is not None:
        lengths = [cfg.epochs * math.ceil(c.train.n / batch_size) for c in clients]
    else:
        lengths = [cfg.steps + fomaml] * len(ids)

    schedules = [
        make_client_batches(c, k, batch_size, substream(seed, "round.batch", round_index, cid))
        for c, k, cid in zip(clients, lengths, ids)
    ]
    stacked = np.empty((len(ids), max(lengths), params.size)) if trace else None
    final, last, failures = sgd_trajectory(spec, params, schedules, sgd_update(lr), stacked)
    # Each row stops only at its own end or divergence, so the lowest-id
    # failure is the one a client-by-client run would meet first.
    for cid, failure in zip(ids, failures):
        if failure is not None:
            raise DivergenceError(
                f"client {cid} diverged at step {failure.step_index} in round {round_index}",
                step_index=failure.step_index,
                client_id=cid,
                round_index=round_index,
            ) from failure
    deltas = -lr * last if fomaml else final - params

    # Normalize weights before scaling so equal weights reduce to exactly
    # 1/M coefficients regardless of their common magnitude.
    total_weight = sum(weights)
    aggregate = np.zeros_like(params)
    for w, delta in zip(weights, deltas):
        aggregate += (w / total_weight) * delta

    try:
        new_params, new_state = server_apply(server_state, params, aggregate)
    except NumericError as exc:
        raise DivergenceError(
            f"server step diverged in round {round_index}: {exc}",
            round_index=round_index,
        ) from exc
    trace_record = RoundTrace(
        round_index, ids, np.array(weights), deltas, aggregate, lr,
        [g[:k] for g, k in zip(stacked, lengths)] if trace else None,
        wallclock_ms=1000.0 * (time.perf_counter() - started),
    )
    return new_params, new_state, trace_record


@dataclass(frozen=True)
class StageConfig:
    """A stage's round count, round config and fresh server state."""

    rounds: int
    round_cfg: RoundConfig | None
    server: ServerOptimizerState | None

    def __post_init__(self):
        if self.rounds < 0:
            raise ContractViolation("rounds must be non-negative")
        if self.rounds > 0 and (self.round_cfg is None or self.server is None):
            raise ContractViolation("a non-empty stage needs round and server configs")


@dataclass(frozen=True)
class EvalConfig:
    """Personalization-evaluation schedule during training.

    A snapshot is taken every ``every`` rounds (0 disables periodic
    snapshots) and always at the end of each stage. Snapshots run on the
    held-out evaluation clients.
    """

    personalization: PersonalizationConfig
    every: int = 0


def run_stage(
    spec: ModelSpec,
    dataset: FederatedDataset,
    stage: StageConfig,
    eval_cfg: EvalConfig | None,
    seed: int,
    params: np.ndarray,
    first_round: int,
    trace: bool = False,
) -> Iterator[tuple[RoundTrace, np.ndarray]]:
    """One stage's rounds as a stream, from ``params`` at global round
    ``first_round``, under the stage's fresh server state. Yields each round
    as the driver does and returns the last parameters. Rounds are keyed by
    their global index, so a stage forked from a run's parameters at its
    round index continues that run bit for bit."""
    server_state = stage.server
    round_index = first_round
    for r in range(stage.rounds):
        params, server_state, tr = run_round(
            spec, params, dataset, stage.round_cfg,
            server_state, round_index, seed, trace,
        )
        round_index += 1
        if eval_cfg is not None and (
            r == stage.rounds - 1 or (eval_cfg.every and round_index % eval_cfg.every == 0)
        ):
            tr.snapshot = eval_population(
                spec, params, dataset, dataset.eval_client_ids,
                eval_cfg.personalization, seed, snapshot_index=round_index,
            )
        yield tr, params
        # Deleting drops this round's arrays before the next one runs.
        del tr
    return params


def run_personalized_fedavg(
    spec: ModelSpec,
    dataset: FederatedDataset,
    stages: list[StageConfig],
    eval_cfg: EvalConfig | None,
    seed: int,
    trace: bool = False,
) -> Iterator[tuple[RoundTrace, np.ndarray]]:
    """Staged training as a stream of rounds: each stage continues from the
    parameters the one before left, with its own fresh server state.

    The paper's workflow is two stages, averaged-epoch rounds and then
    step-counted fine-tuning; either may be empty (rounds=0), so an empty
    second stage is plain first-stage training and an empty first stage
    fine-tunes the random initialization. Yields each finished round once,
    in order, as its ``RoundTrace``, with its snapshot attached when one is
    due, and the global parameters its server step left (never mutated
    later, so they need no copy). A divergence raises out of the stream
    after the rounds before it were yielded.
    """
    params = init_params(spec, substream(seed, "init"))
    first_round = 0
    for stage in stages:
        params = yield from run_stage(
            spec, dataset, stage, eval_cfg, seed, params, first_round, trace
        )
        first_round += stage.rounds
