"""Per-client personalization evaluation.

A global model is adapted on each client's train split and scored on its
test split. Aggregates are uniform over clients (every device counts the
same, regardless of its data volume). A client whose adaptation leaves the
finite range is scored from its last finite iterate and flagged, not
dropped; dropping would bias the uniform averages.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import ClientDataset, ExampleSet, FederatedDataset
from .errors import ContractViolation, NumericError
from .model import ModelSpec, forward_logits, gradient
from .optimizers import adam_step, make_client_batches
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
    client: ClientDataset,
    cfg: PersonalizationConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, bool]:
    """Adapt ``params`` on the client's train split for cfg.epochs epochs.

    Returns (adapted params, diverged flag); the result is a new array and
    ``params`` is not mutated. With epochs=0 the parameters are returned
    unchanged. Optimizer state always starts from zero.
    """
    theta = np.array(params, dtype=np.float64)
    if cfg.epochs == 0:
        return theta, False
    batches = make_client_batches(client, cfg.epochs, cfg.batch_size, rng)
    # Each step writes its candidate into the spare buffer; a finite
    # candidate becomes the iterate and the old iterate the next spare, so
    # the last finite iterate survives a divergent step untouched.
    candidate = np.empty_like(theta)
    if cfg.optimizer == "adam":
        m, v, scratch = np.zeros_like(theta), np.zeros_like(theta), np.empty_like(theta)

    # Divergence is tolerated: keep the last finite iterate and flag it.
    with np.errstate(over="ignore", invalid="ignore"):
        for t, batch in enumerate(batches, start=1):
            try:
                g = gradient(spec, theta, batch)
            except NumericError:
                return theta, True
            if cfg.optimizer == "sgd":
                g *= cfg.lr
                np.subtract(theta, g, out=candidate)
            else:
                adam_step(theta, g, m, v, t, ADAM_LR, out=candidate, scratch=scratch)
            if not np.isfinite(candidate).all():
                return theta, True
            theta, candidate = candidate, theta
    return theta, False


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

    outcomes = []
    for cid in ids:
        client = dataset.clients[cid]
        if client.test.n == 0:
            raise ContractViolation(f"client {cid} has no test examples")
        initial = evaluate_accuracy(spec, params, client.test)
        adapted, diverged = personalize(
            spec, params, client, cfg, streams.stream("personalize", snapshot_index, cid)
        )
        personalized = evaluate_accuracy(spec, adapted, client.test)
        outcomes.append(
            ClientOutcome(
                client_id=cid,
                initial_acc=initial,
                personalized_acc=personalized,
                n_train=client.train.n,
                n_test=client.test.n,
                diverged=diverged,
            )
        )
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
