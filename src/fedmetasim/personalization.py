"""Per-client personalization evaluation.

A global model is adapted on each client's train split and scored on its
test split. The whole population adapts in lockstep through
``model.sgd_trajectory``, the step loop of local training, with one
stacked SGD or Adam update per step position. Aggregates are uniform over
clients (every device counts the same, regardless of its data volume). A
client whose adaptation leaves the finite range is scored from its last
finite iterate and flagged, not dropped; dropping would bias the uniform
averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import ClientDataset, FederatedDataset
from .errors import ContractViolation
from .model import Batch, ModelSpec, forward_logits, sgd_trajectory
from .optimizers import adam_step, make_client_batches, sgd_update
from .rng import substream

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
        if not 0 <= self.lr < np.inf:
            raise ContractViolation("personalization lr must be non-negative and finite")
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
class EvalSnapshot:
    """A population's accuracy before and after personalization at
    snapshot ``round_index`` (in training, the rounds run so far): the mean
    and population std over its clients. One metrics.csv row."""

    round_index: int
    initial_mean: float
    initial_std: float
    personalized_mean: float
    personalized_std: float


@dataclass
class PersonalizationReport(EvalSnapshot):
    """A snapshot with what it was computed from: each client's outcome,
    and the fraction of clients that personalization made worse."""

    outcomes: list[ClientOutcome]
    negative_fraction: float


def evaluate_accuracy(spec: ModelSpec, params: np.ndarray, examples: Batch) -> float:
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
    lockstep through ``model.sgd_trajectory``, under SGD or under Adam with
    (M, P) moments; each row rounds exactly as that client adapted alone
    would. Returns the (M, P) adapted parameters, row i for client i, and
    the (M,) diverged flags; ``params`` is not mutated. With epochs=0 every
    row is ``params``. Optimizer state always starts from zero.
    """
    if len(rngs) != len(clients):
        raise ContractViolation(f"{len(rngs)} random streams for {len(clients)} clients")
    params = np.asarray(params, dtype=np.float64)
    if cfg.epochs == 0:
        return np.tile(params, (len(clients), 1)), np.zeros(len(clients), dtype=bool)
    schedules = [
        make_client_batches(c, cfg.epochs * math.ceil(c.train.n / cfg.batch_size),
                            cfg.batch_size, rng)
        for c, rng in zip(clients, rngs)
    ]
    if cfg.optimizer == "sgd":
        update = sgd_update(cfg.lr)
    else:
        m, v, scratch = (np.zeros((len(clients), params.size)) for _ in range(3))

        def update(theta, g, t, out):
            adam_step(theta, g, m, v, t, ADAM_LR, out=out, scratch=scratch)

    adapted, _, failures = sgd_trajectory(spec, params, schedules, update)
    return adapted, np.array([f is not None for f in failures])


def _personalized_accuracy(
    spec: ModelSpec,
    params: np.ndarray,
    dataset: FederatedDataset,
    ids: tuple[int, ...],
    cfg: PersonalizationConfig,
    seed: int,
    snapshot_index: int,
) -> tuple[list[ClientDataset], np.ndarray, np.ndarray]:
    """The clients ``ids``, each one's test accuracy after personalization,
    and the (M,) diverged flags: the adapt-and-score path of
    ``eval_population`` and ``epochs_sweep``.
    """
    if not ids:
        raise ContractViolation("no clients in the population")
    clients = [dataset.clients[cid] for cid in ids]
    for cid, client in zip(ids, clients):
        if client.test.n == 0:
            raise ContractViolation(f"client {cid} has no test examples")
    adapted, diverged = personalize(
        spec, params, clients, cfg,
        [substream(seed, "personalize", snapshot_index, cid) for cid in ids],
    )
    final = np.array([evaluate_accuracy(spec, row, c.test) for row, c in zip(adapted, clients)])
    return clients, final, diverged


def eval_population(
    spec: ModelSpec,
    params: np.ndarray,
    dataset: FederatedDataset,
    ids: tuple[int, ...],
    cfg: PersonalizationConfig,
    seed: int,
    snapshot_index: int = 0,
) -> PersonalizationReport:
    """Personalize and score the clients ``ids`` of ``dataset``, usually
    its ``train_client_ids`` or ``eval_client_ids``, and score them under
    ``params`` unadapted.

    Each client gets its own substream keyed by (snapshot_index, client
    id), so the report does not depend on evaluation order.
    """
    clients, final, diverged = _personalized_accuracy(
        spec, params, dataset, ids, cfg, seed, snapshot_index
    )
    initial = np.array([evaluate_accuracy(spec, params, c.test) for c in clients])
    return PersonalizationReport(
        round_index=snapshot_index,
        initial_mean=float(initial.mean()),
        initial_std=float(initial.std()),
        personalized_mean=float(final.mean()),
        personalized_std=float(final.std()),
        outcomes=[
            ClientOutcome(cid, float(a), float(b), c.train.n, c.test.n, bool(d))
            for cid, a, b, c, d in zip(ids, initial, final, clients, diverged)
        ],
        negative_fraction=float(np.mean(final < initial)),
    )


def epochs_sweep(
    spec: ModelSpec,
    params: np.ndarray,
    dataset: FederatedDataset,
    ids: tuple[int, ...],
    optimizers: list[PersonalizationConfig],
    max_epochs: int,
    seed: int,
) -> list[tuple[str, int, float]]:
    """Mean personalized accuracy at every epoch count in 1..max_epochs.

    Each (optimizer, epoch count) cell is an independent population
    adaptation starting from the same global model, with fresh optimizer
    state per cell, scored as ``eval_population``'s personalized mean. The
    unadapted accuracies, which no cell reads, are not computed.
    """
    if max_epochs < 1:
        raise ContractViolation("max_epochs must be at least 1")
    rows = []
    for cfg in optimizers:
        for e in range(1, max_epochs + 1):
            _, final, _ = _personalized_accuracy(
                spec, params, dataset, ids, replace(cfg, epochs=e), seed, snapshot_index=e
            )
            rows.append((cfg.label(), e, float(final.mean())))
    return rows
