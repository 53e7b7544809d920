"""The round engine.

One communication round samples clients, runs ``local_update`` per client,
aggregates the weighted parameter deltas in ascending client-id order, and
applies the server optimizer.

``local_update`` is the single local routine behind all four algorithms,
which differ only in how many batches the client's SGD trajectory covers and
which vector the client returns:

- fedavg: E epochs (or exactly K steps) of local SGD, delta = theta_K - theta.
- reptile: exactly K local SGD steps, same delta, uniform weighting.
- fedsgd: the single-step special case of reptile.
- fomaml: K adaptation steps plus one on the next batch; the update is
  -beta times that last gradient, evaluated at the adapted parameters.

A non-finite gradient or iterate raises DivergenceError naming the client,
round and step; a non-finite server step raises it naming the round. Raw
per-step gradients can be recorded (``trace=True``) so that an averaged
round update can later be decomposed exactly into its single-step and
adapted-gradient components.

Randomness is drawn from counter-based substreams keyed by (purpose, round,
client), so per-client work is order-independent and a run is a pure
function of (config, seed, dataset).
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .data import ClientDataset, FederatedDataset
from .errors import ContractViolation, DivergenceError, NumericError
from .model import ModelSpec, init_params, sgd_trajectory
from .optimizers import (
    ClientOptimizerConfig,
    ServerOptimizerState,
    make_client_batches,
    server_apply,
)
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
class ClientUpdateResult:
    client_id: int
    delta: np.ndarray
    weight: float
    step_gradients: list[np.ndarray] | None = None


@dataclass
class EvalSnapshot:
    round_index: int
    initial_mean: float
    initial_std: float
    personalized_mean: float
    personalized_std: float


@dataclass
class RoundTrace:
    """One round: sampled clients, their results and the applied aggregate.

    The summaries a ``TrainingRun`` keeps have no results and no aggregate.
    """

    round_index: int
    client_ids: list[int]
    results: list[ClientUpdateResult]
    aggregate: np.ndarray | None
    snapshot: EvalSnapshot | None = None
    wallclock_ms: float = 0.0


@dataclass
class TrainingRun:
    """What one seeded training execution keeps: a summary of each round
    (index, sampled ids, snapshot, wall time), periodic checkpoints and the
    final parameters."""

    seed: int
    traces: list[RoundTrace] = field(default_factory=list)
    checkpoints: dict[int, np.ndarray] = field(default_factory=dict)
    final_params: np.ndarray | None = None
    stage1_rounds: int = 0

    @property
    def snapshots(self) -> list[EvalSnapshot]:
        return [t.snapshot for t in self.traces if t.snapshot is not None]


def sample_clients(
    train_client_ids, m: int, rng: np.random.Generator
) -> list[int]:
    """M distinct training clients, uniform without replacement, ascending."""
    ids = list(train_client_ids)
    if m > len(ids):
        raise ContractViolation(f"cannot sample {m} of {len(ids)} train clients")
    picked = rng.permutation(len(ids))[:m]
    return sorted(ids[i] for i in picked)


def local_update(
    spec: ModelSpec,
    params: np.ndarray,
    client: ClientDataset,
    cfg: RoundConfig,
    rng: np.random.Generator,
    trace: bool = False,
    client_id: int = -1,
) -> ClientUpdateResult:
    """One client's local SGD from ``params`` under the round's algorithm.

    Epoch-counted fedavg runs E full epochs; otherwise the trajectory covers
    the first K batches (K+1 for fomaml) of as many epochs as that needs.
    fomaml returns -beta times the last recorded gradient, i.e. the gradient
    at the adapted parameters on the extra batch; every other algorithm
    returns the parameter delta. The weight follows ``cfg.weighting``.
    """
    lr, batch_size = cfg.client_cfg.lr, cfg.client_cfg.batch_size
    if cfg.epochs is not None:
        batches = make_client_batches(client, cfg.epochs, batch_size, rng)
    else:
        k = cfg.steps + (cfg.algorithm == "fomaml")
        epochs = math.ceil(k / math.ceil(client.train.n / batch_size))
        batches = make_client_batches(client, epochs, batch_size, rng)[:k]
    final, grads = sgd_trajectory(spec, params, batches, lr)
    return ClientUpdateResult(
        client_id=client_id,
        delta=-lr * grads[-1] if cfg.algorithm == "fomaml" else final - params,
        weight=float(client.weight) if cfg.weighting == "data_proportional" else 1.0,
        step_gradients=grads if trace else None,
    )


def fomaml_update(
    step_gradient_lists: list[list[np.ndarray]], k: int, beta: float
) -> np.ndarray:
    """Average of -beta times each client's (k+1)th recorded raw gradient.

    With k = 0 this is the single-step baseline update built from each
    client's first gradient.
    """
    if not step_gradient_lists:
        raise ContractViolation("need at least one client trajectory")
    for grads in step_gradient_lists:
        if len(grads) < k + 1:
            raise ContractViolation(
                f"trajectory has {len(grads)} gradients, need at least {k + 1}"
            )
    stacked = np.stack([grads[k] for grads in step_gradient_lists])
    return -beta * stacked.mean(axis=0)


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
    """One communication round: sample, update, aggregate, apply."""
    started = time.perf_counter()
    sample_rng = streams.stream("round.sample", round_index)
    ids = sample_clients(dataset.train_client_ids, cfg.clients_per_round, sample_rng)

    results = []
    for cid in ids:
        rng = streams.stream("round.batch", round_index, cid)
        try:
            res = local_update(spec, params, dataset.clients[cid], cfg, rng, trace, cid)
        except DivergenceError as exc:
            raise DivergenceError(
                f"client {cid} diverged at step {exc.step_index} in round {round_index}",
                step_index=exc.step_index,
                client_id=cid,
                round_index=round_index,
            ) from exc
        results.append(res)

    # Normalize weights before scaling so equal weights reduce to exactly
    # 1/M coefficients regardless of their common magnitude.
    total_weight = sum(r.weight for r in results)
    aggregate = np.zeros_like(params)
    for r in results:
        aggregate += (r.weight / total_weight) * r.delta

    try:
        new_params, new_state = server_apply(server_state, params, aggregate)
    except NumericError as exc:
        raise DivergenceError(
            f"server step diverged in round {round_index}: {exc}",
            round_index=round_index,
        ) from exc
    trace_record = RoundTrace(
        round_index, ids, results, aggregate,
        wallclock_ms=1000.0 * (time.perf_counter() - started),
    )
    return new_params, new_state, trace_record


@dataclass(frozen=True)
class ServerOptimizerConfig:
    kind: str
    lr: float
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def create_state(self, dim: int) -> ServerOptimizerState:
        return ServerOptimizerState.create(
            self.kind, dim, self.lr, self.momentum, self.beta1, self.beta2, self.eps
        )


@dataclass(frozen=True)
class StageConfig:
    rounds: int
    round_cfg: RoundConfig | None
    server: ServerOptimizerConfig | None

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

    personalization: "PersonalizationConfig"
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
    summary, without client results or aggregate. On divergence the
    partially completed run is attached to the raised error as
    ``partial_run``.
    """
    from .personalization import eval_population  # circular at import time

    streams = StreamFactory(seed)
    params = init_params(spec, streams.stream("init"))
    run = TrainingRun(seed=seed, stage1_rounds=stage1.rounds)

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
            server_state = stage.server.create_state(spec.param_count)
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
                # Rebinding drops this round's results before the next one runs.
                tr = replace(tr, results=[], aggregate=None)
                run.traces.append(tr)
                if checkpoint_every and round_index % checkpoint_every == 0:
                    run.checkpoints[round_index] = params.copy()
    except DivergenceError as exc:
        run.final_params = None
        exc.partial_run = run
        raise

    run.final_params = params
    return run
