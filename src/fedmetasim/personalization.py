"""Per-client personalization evaluation.

A global model is adapted on each client's train split and scored on its
test split. The whole population adapts in lockstep, one group per
schedule length, with one stacked SGD or Adam update per step position.
Aggregates are uniform over clients (every device counts the same,
regardless of its data volume). A client whose adaptation leaves the
finite range is scored from its last finite iterate and flagged, not
dropped; dropping would bias the uniform averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import ClientDataset, ExampleSet, FederatedDataset
from .errors import ContractViolation, NumericError
from .model import ModelSpec, forward_logits, gradient
from .optimizers import adam_step, lockstep_groups, make_client_batches
from .rng import StreamFactory

PERSONALIZATION_OPTIMIZERS = ("sgd", "adam")

# "adam" always runs with the stock defaults.
ADAM_LR = 0.001


@dataclass(frozen=True)
class PersonalizationConfig:
    optimizer: str = "sgd"
    lr: float = 0.02
    epochs: int = 5
    batch_size: int = 100

    def __post_init__(self):
        if self.optimizer not in PERSONALIZATION_OPTIMIZERS:
            raise ContractViolation(f"unknown personalization optimizer {self.optimizer!r}")
        if self.epochs < 0:
            raise ContractViolation("epochs must be non-negative")
        if self.batch_size < 1:
            raise ContractViolation("batch_size must be positive")

    def label(self) -> str:
        if self.optimizer == "adam":
            return "adam"
        return f"sgd(lr={self.lr:g})"


@dataclass
class ClientOutcome:
    client_id: int
    initial_acc: float
    personalized_acc: float
    n_train: int
    n_test: int
    diverged: bool = False


@dataclass
class PersonalizationReport:
    outcomes: list[ClientOutcome]
    mean_initial: float
    std_initial: float
    mean_personalized: float
    std_personalized: float
    negative_fraction: float


def evaluate_accuracy(spec: ModelSpec, params: np.ndarray, examples: ExampleSet) -> float:
    """Fraction of argmax-correct predictions; ties go to the lowest class."""
    if examples.n == 0:
        raise ContractViolation("cannot evaluate on an empty example set")
    logits = forward_logits(spec, params, examples.x)
    return float(np.mean(np.argmax(logits, axis=1) == examples.y))


def personalize(
    spec: ModelSpec,
    params: np.ndarray,
    clients: list[ClientDataset],
    cfg: PersonalizationConfig,
    rngs: list[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """Adapt ``params`` on each client's train split for cfg.epochs epochs.

    Client i draws its batches from ``rngs[i]``. The clients step in
    lockstep, one group per schedule length: ``gradient`` is called once per
    client step, and each step's SGD or Adam update runs once for the whole
    group; every operation is elementwise, so each row rounds exactly as
    that client adapted alone would. Returns the (M, P) adapted parameters,
    row i for client i, and the (M,) diverged flags; ``params`` is not
    mutated. With epochs=0 every row is ``params``. Optimizer state always
    starts from zero.
    """
    params = np.asarray(params, dtype=np.float64)
    adapted = np.tile(params, (len(clients), 1))
    diverged = np.zeros(len(clients), dtype=bool)
    if cfg.epochs == 0:
        return adapted, diverged
    schedules = [
        make_client_batches(c, cfg.epochs, cfg.batch_size, rng) for c, rng in zip(clients, rngs)
    ]
    lengths = [cfg.epochs * math.ceil(c.train.n / cfg.batch_size) for c in clients]
    # One set of buffers for the population; a group uses its leading rows.
    # Each step writes the candidates into the spare buffer; the two then
    # swap, after a frozen row's last finite iterate is copied across.
    theta, spare, g = (np.empty_like(adapted) for _ in range(3))
    if cfg.optimizer == "adam":
        m, v, scratch = (np.empty_like(adapted) for _ in range(3))

    # Divergence is tolerated: a client keeps its last finite iterate, is
    # flagged, and takes no further gradient.
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in lockstep_groups(lengths):
            n = len(rows)
            it, cand, grad, frozen = theta[:n], spare[:n], g[:n], diverged[rows]
            it[...] = params
            if cfg.optimizer == "adam":
                m[:n], v[:n] = 0.0, 0.0
            for t, batches in enumerate(zip(*(schedules[i] for i in rows)), start=1):
                for i, batch in enumerate(batches):
                    if frozen[i]:
                        continue
                    try:
                        grad[i] = gradient(spec, it[i], batch)
                    except NumericError:
                        frozen[i] = True
                if cfg.optimizer == "sgd":
                    grad *= cfg.lr
                    np.subtract(it, grad, out=cand)
                else:
                    adam_step(it, grad, m[:n], v[:n], t, ADAM_LR, out=cand, scratch=scratch[:n])
                frozen |= ~np.isfinite(cand).all(axis=1)
                if frozen.any():
                    cand[frozen] = it[frozen]
                    if frozen.all():
                        break
                it, cand = cand, it
            adapted[rows], diverged[rows] = it, frozen
    return adapted, diverged


def _report_from_outcomes(outcomes: list[ClientOutcome]) -> PersonalizationReport:
    init = np.array([o.initial_acc for o in outcomes])
    pers = np.array([o.personalized_acc for o in outcomes])
    return PersonalizationReport(
        outcomes=outcomes,
        mean_initial=float(init.mean()),
        std_initial=float(init.std()),
        mean_personalized=float(pers.mean()),
        std_personalized=float(pers.std()),
        negative_fraction=float(np.mean(pers < init)),
    )


def eval_population(
    spec: ModelSpec,
    params: np.ndarray,
    dataset: FederatedDataset,
    which: str,
    cfg: PersonalizationConfig,
    streams: StreamFactory,
    snapshot_index: int = 0,
) -> PersonalizationReport:
    """Personalize and score every client in the selected population.

    ``which`` is "train_clients" or "eval_clients". Each client gets its own
    substream keyed by (snapshot_index, client id), so the report does not
    depend on evaluation order.
    """
    if which == "train_clients":
        ids = dataset.train_client_ids
    elif which == "eval_clients":
        ids = dataset.eval_client_ids
    else:
        raise ContractViolation(f"unknown population {which!r}")
    if not ids:
        raise ContractViolation(f"no clients in population {which!r}")

    clients = [dataset.clients[cid] for cid in ids]
    for cid, client in zip(ids, clients):
        if client.test.n == 0:
            raise ContractViolation(f"client {cid} has no test examples")
    initial = [evaluate_accuracy(spec, params, c.test) for c in clients]
    adapted, diverged = personalize(
        spec, params, clients, cfg,
        [streams.stream("personalize", snapshot_index, cid) for cid in ids],
    )
    outcomes = [
        ClientOutcome(
            client_id=cid,
            initial_acc=initial[i],
            personalized_acc=evaluate_accuracy(spec, adapted[i], clients[i].test),
            n_train=clients[i].train.n,
            n_test=clients[i].test.n,
            diverged=bool(diverged[i]),
        )
        for i, cid in enumerate(ids)
    ]
    return _report_from_outcomes(outcomes)


def epochs_sweep(
    spec: ModelSpec,
    params: np.ndarray,
    dataset: FederatedDataset,
    optimizers: list[PersonalizationConfig],
    max_epochs: int,
    streams: StreamFactory,
    which: str = "eval_clients",
) -> list[tuple[str, int, float]]:
    """Mean personalized accuracy at every epoch count in 1..max_epochs.

    Each (optimizer, epoch count) cell is an independent population
    evaluation starting from the same global model, with fresh optimizer
    state per cell.
    """
    if max_epochs < 1:
        raise ContractViolation("max_epochs must be at least 1")
    rows = []
    for cfg in optimizers:
        for e in range(1, max_epochs + 1):
            report = eval_population(
                spec, params, dataset, which, replace(cfg, epochs=e), streams,
                snapshot_index=e,
            )
            rows.append((cfg.label(), e, report.mean_personalized))
    return rows


def sweep_csv(rows: list[tuple[str, int, float]]) -> str:
    lines = ["optimizer,epochs,mean_personalized_acc"]
    lines.extend(f"{label},{e},{acc:.8f}" for label, e, acc in rows)
    return "\n".join(lines) + "\n"
