"""The round engine.

One communication round samples clients, runs their local SGD trajectories
in lockstep (``model.sgd_trajectory``, one call per schedule length),
aggregates the weighted parameter deltas in ascending client-id order, and
applies the server optimizer.

The four algorithms differ only in how many batches a client's trajectory
covers and which vector the client returns:

- fedavg: E epochs (or exactly K steps) of local SGD, delta = theta_K - theta.
- reptile: exactly K local SGD steps, same delta, uniform weighting.
- fedsgd: the single-step special case of reptile.
- fomaml: K adaptation steps plus one on the next batch; the update is
  -beta times that last gradient, evaluated at the adapted parameters.

A round's record, ``RoundTrace``, holds the same arrays as its trace file:
the weights (M,), the client deltas (M, P) row by row in client-id order,
the aggregate (P,), and, with ``trace=True``, one (K_i, P) array of raw
per-step gradients per client, from which the averaged round update can
later be decomposed exactly into its single-step and adapted-gradient
components. A non-finite gradient or iterate raises DivergenceError naming
the round and the lowest-id client that diverged, at its own step, as if
the clients had run one after another; a non-finite server step raises it
naming the round.

Randomness is drawn from counter-based substreams keyed by (purpose, round,
client), so per-client work is order-independent and a run is a pure
function of (config, seed, dataset).
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .data import FederatedDataset
from .errors import ContractViolation, DivergenceError, NumericError
from .model import ModelSpec, init_params, sgd_trajectory
from .optimizers import (
    ClientOptimizerConfig,
    ServerOptimizerState,
    lockstep_groups,
    make_client_batches,
    server_apply,
)
from .personalization import PersonalizationConfig, eval_population
from .rng import StreamFactory

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
class EvalSnapshot:
    round_index: int
    initial_mean: float
    initial_std: float
    personalized_mean: float
    personalized_std: float


@dataclass
class RoundTrace:
    """One round, as its trace file holds it: the M sampled clients in
    ascending order, their aggregation weights (M,) and deltas (M, P) in
    the same order, the applied aggregate (P,), and one (K_i, P) array of
    raw step gradients per client, or None when the round was not traced."""

    round_index: int
    client_ids: list[int]
    weights: np.ndarray
    deltas: np.ndarray
    aggregate: np.ndarray
    step_gradients: list[np.ndarray] | None = None
    snapshot: EvalSnapshot | None = None
    wallclock_ms: float = 0.0


@dataclass
class TrainingRun:
    """What one seeded training execution keeps: its evaluation snapshots,
    each round's wall time (index i for round i), periodic checkpoints and
    the final parameters."""

    seed: int
    snapshots: list[EvalSnapshot] = field(default_factory=list)
    wallclock_ms: list[float] = field(default_factory=list)
    checkpoints: dict[int, np.ndarray] = field(default_factory=dict)
    final_params: np.ndarray | None = None


def sample_clients(
    train_client_ids, m: int, rng: np.random.Generator
) -> list[int]:
    """M distinct training clients, uniform without replacement, ascending."""
    ids = list(train_client_ids)
    if m > len(ids):
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
    streams: StreamFactory,
    trace: bool = False,
) -> tuple[np.ndarray, ServerOptimizerState, RoundTrace]:
    """One communication round: sample, update, aggregate, apply.

    The sampled clients' trajectories run in lockstep, one group per
    schedule length. Epoch-counted fedavg runs E full epochs; otherwise a
    trajectory covers the first K batches (K+1 for fomaml) of as many epochs
    as that needs. fomaml's update is -beta times the last gradient, taken at
    the adapted parameters on the extra batch; every other algorithm's is
    the parameter delta.
    """
    started = time.perf_counter()
    sample_rng = streams.stream("round.sample", round_index)
    ids = sample_clients(dataset.train_client_ids, cfg.clients_per_round, sample_rng)
    clients = [dataset.clients[cid] for cid in ids]

    proportional = cfg.weighting == "data_proportional"
    weights = [float(c.weight) if proportional else 1.0 for c in clients]
    lr, batch_size = cfg.client_cfg.lr, cfg.client_cfg.batch_size
    fomaml = cfg.algorithm == "fomaml"
    per_epoch = [math.ceil(c.train.n / batch_size) for c in clients]
    if cfg.epochs is not None:
        lengths = [cfg.epochs * b for b in per_epoch]
    else:
        lengths = [cfg.steps + fomaml] * len(ids)

    def schedule(i: int):
        rng = streams.stream("round.batch", round_index, ids[i])
        epochs = math.ceil(lengths[i] / per_epoch[i])
        return islice(make_client_batches(clients[i], epochs, batch_size, rng), lengths[i])

    deltas = np.empty((len(ids), params.size))
    grads = [None] * len(ids)
    # The first client to diverge and its error. A client after it is not
    # run, as if the clients had run one after another in id order.
    first, failure = len(ids), None
    for rows in lockstep_groups(lengths):
        rows = [i for i in rows if i < first]
        if not rows:
            continue
        stacked = np.empty((len(rows), lengths[rows[0]], params.size)) if trace else None
        try:
            final, last = sgd_trajectory(
                spec, params, [schedule(i) for i in rows], lr, stacked
            )
        except DivergenceError as exc:
            first, failure = rows[exc.client_id], exc
            continue
        deltas[rows] = -lr * last if fomaml else final - params
        if trace:
            for i, g in zip(rows, stacked):
                grads[i] = g
    if failure is not None:
        raise DivergenceError(
            f"client {ids[first]} diverged at step {failure.step_index} in round {round_index}",
            step_index=failure.step_index,
            client_id=ids[first],
            round_index=round_index,
        ) from failure

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
        round_index, ids, np.array(weights), deltas, aggregate,
        grads if trace else None,
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


def run_personalized_fedavg(
    spec: ModelSpec,
    dataset: FederatedDataset,
    stage1: StageConfig,
    stage2: StageConfig | None,
    eval_cfg: EvalConfig | None,
    seed: int,
    trace: bool = False,
    checkpoint_every: int = 0,
    on_round: Callable[[RoundTrace], None] | None = None,
) -> TrainingRun:
    """Two-stage training: averaged-epoch rounds, then step-counted
    fine-tuning continuing from stage-1 parameters with fresh server state.

    Either stage may be empty (rounds=0): stage2=0 is plain first-stage
    training, stage1=0 fine-tunes directly from the random initialization.
    Each finished round, with its snapshot attached when one is due, is
    passed to ``on_round`` once, in order; the run then keeps only its
    snapshot and wall time. On divergence the partially completed run is
    attached to the raised error as ``partial_run``.
    """
    streams = StreamFactory(seed)
    params = init_params(spec, streams.stream("init"))
    run = TrainingRun(seed=seed)

    def snapshot(round_index: int) -> EvalSnapshot:
        report = eval_population(
            spec, params, dataset, "eval_clients",
            eval_cfg.personalization, streams, snapshot_index=round_index,
        )
        return EvalSnapshot(
            round_index=round_index,
            initial_mean=report.mean_initial,
            initial_std=report.std_initial,
            personalized_mean=report.mean_personalized,
            personalized_std=report.std_personalized,
        )

    round_index = 0
    stages = [stage1] + ([stage2] if stage2 is not None else [])
    try:
        for stage in stages:
            if stage.rounds == 0:
                continue
            server_state = stage.server
            for r in range(stage.rounds):
                params, server_state, tr = run_round(
                    spec, params, dataset, stage.round_cfg,
                    server_state, round_index, streams, trace,
                )
                round_index += 1
                stage_end = r == stage.rounds - 1
                if eval_cfg is not None and (
                    stage_end or (eval_cfg.every and round_index % eval_cfg.every == 0)
                ):
                    tr.snapshot = snapshot(round_index)
                if on_round is not None:
                    on_round(tr)
                if tr.snapshot is not None:
                    run.snapshots.append(tr.snapshot)
                run.wallclock_ms.append(tr.wallclock_ms)
                # Deleting drops this round's arrays before the next one runs.
                del tr
                if checkpoint_every and round_index % checkpoint_every == 0:
                    run.checkpoints[round_index] = params.copy()
    except DivergenceError as exc:
        run.final_params = None
        exc.partial_run = run
        raise

    run.final_params = params
    return run
