"""Federated dataset construction.

Clients are keyed by int64 integers; each owns an immutable train/test
split. The synthetic generator is the desk-scale stand-in for a naturally
partitioned user dataset: label skew comes from a per-client Dirichlet
draw and feature skew from a per-client affine style shift, both scaled
by one heterogeneity knob in [0, 1].
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ContractViolation, ParseError, SchemaError
from .model import Batch
from .rng import substream

TRAIN_FRACTION = 0.8

# Synthetic feature geometry. Class means overlap enough that the global
# problem is not trivially separable; per-client style shifts are kept below
# class separation so a global model transfers across clients, while label
# skew (class subsets plus the Dirichlet draw) carries most of the
# heterogeneity that local adaptation can exploit.
CLASS_MEAN_SCALE = 0.9
FEATURE_NOISE = 1.0
STYLE_SCALE_JITTER = 0.3
STYLE_OFFSET_STD = 0.6


@dataclass(frozen=True)
class ClientDataset:
    train: Batch
    test: Batch

    @property
    def weight(self) -> int:
        return self.train.n


@dataclass(frozen=True)
class FederatedDataset:
    clients: dict[int, ClientDataset]
    train_client_ids: tuple[int, ...]
    eval_client_ids: tuple[int, ...]
    input_dim: int
    num_classes: int

    def __post_init__(self):
        object.__setattr__(self, "train_client_ids", tuple(self.train_client_ids))
        object.__setattr__(self, "eval_client_ids", tuple(self.eval_client_ids))
        if set(self.train_client_ids) & set(self.eval_client_ids):
            raise ContractViolation("train and eval client sets overlap")
        known = set(self.clients)
        for cid in (*self.train_client_ids, *self.eval_client_ids):
            if cid not in known:
                raise ContractViolation(f"unknown client id {cid}")
        for cid, client in self.clients.items():
            # Random streams and traces key a client by an int64.
            if not (isinstance(cid, (int, np.integer)) and -(2**63) <= cid < 2**63):
                raise ContractViolation(f"client id {cid!r} is not an int64 integer")
            for part in (client.train, client.test):
                if part.n and part.x.shape[1] != self.input_dim:
                    raise ContractViolation(f"client {cid} feature dim mismatch")
                if part.n and part.label_bound >= self.num_classes:
                    raise ContractViolation(f"client {cid} has labels outside [0, C)")
        for cid in self.train_client_ids:
            if self.clients[cid].train.n == 0:
                raise ContractViolation(f"training client {cid} has no train examples")


def _split_examples(x: np.ndarray, y: np.ndarray) -> ClientDataset:
    n = x.shape[0]
    n_train = max(1, int(TRAIN_FRACTION * n))
    return ClientDataset(
        train=Batch(x[:n_train], y[:n_train]),
        test=Batch(x[n_train:], y[n_train:]),
    )


def generate_synthetic(
    seed: int,
    num_clients: int,
    classes_per_client: int,
    examples_per_client: int,
    input_dim: int,
    num_classes: int,
    heterogeneity: float,
) -> FederatedDataset:
    """Deterministic synthetic federation with a tunable non-i.i.d. level.

    Per client: a subset of ``classes_per_client`` classes, label proportions
    from Dirichlet(concentration (1 - heterogeneity) * 10 + 0.05), features
    drawn as class-mean + Gaussian noise and passed through a per-client
    affine style shift whose magnitude scales with ``heterogeneity``. Each
    client is split 80/20 into train/test; all clients start as training
    clients (use split_train_eval to hold some out).
    """
    if num_clients < 1:
        raise ContractViolation("num_clients must be positive")
    if not 1 <= classes_per_client <= num_classes:
        raise ContractViolation("classes_per_client must lie in [1, num_classes]")
    if examples_per_client < 2:
        raise ContractViolation("examples_per_client must be at least 2")
    if not 0.0 <= heterogeneity <= 1.0:
        raise ContractViolation("heterogeneity must lie in [0, 1]")
    if input_dim < 1 or num_classes < 2:
        raise ContractViolation("need input_dim >= 1 and num_classes >= 2")

    means = CLASS_MEAN_SCALE * substream(seed, "synth.class_means").normal(
        size=(num_classes, input_dim)
    )
    concentration = (1.0 - heterogeneity) * 10.0 + 0.05

    clients = {}
    for cid in range(num_clients):
        label_rng = substream(seed, "synth.labels", cid)
        support = np.sort(
            label_rng.choice(num_classes, size=classes_per_client, replace=False)
        )
        proportions = label_rng.dirichlet(np.full(classes_per_client, concentration))
        y = support[label_rng.choice(classes_per_client, size=examples_per_client, p=proportions)]

        style_rng = substream(seed, "synth.style", cid)
        scale = 1.0 + heterogeneity * style_rng.uniform(
            -STYLE_SCALE_JITTER, STYLE_SCALE_JITTER, size=input_dim
        )
        offset = heterogeneity * style_rng.normal(0.0, STYLE_OFFSET_STD, size=input_dim)

        noise = substream(seed, "synth.features", cid).normal(
            0.0, FEATURE_NOISE, size=(examples_per_client, input_dim)
        )
        x = scale * (means[y] + noise) + offset
        clients[cid] = _split_examples(x, y)

    return FederatedDataset(
        clients=clients,
        train_client_ids=tuple(range(num_clients)),
        eval_client_ids=(),
        input_dim=input_dim,
        num_classes=num_classes,
    )


def read_utf8(path) -> str:
    """The text of ``path`` decoded as UTF-8, whatever the locale. A byte
    that does not decode is one ParseError naming the file and its offset."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8: {exc.reason} at byte offset {exc.start}") from None


def load_csv_dataset(path, input_dim: int, num_classes: int, seed: int = 0) -> FederatedDataset:
    """Group CSV rows by client id and split each client 80/20.

    Row layout: client_id, label, feature_0 .. feature_{input_dim-1}. The
    per-client split shuffles row order with a stream keyed by (seed, client
    id), so the partition is stable for a given seed regardless of how the
    file is chunked by client. A nan or infinite feature is refused. Every
    input error names the file and, for a row, its line.
    """
    rows_by_client: dict[int, list[tuple[int, np.ndarray]]] = {}
    with io.StringIO(read_utf8(path), newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if len(row) != 2 + input_dim:
                raise SchemaError(
                    f"{path}, line {lineno}: expected {2 + input_dim} columns, got {len(row)}"
                )
            try:
                cid = int(row[0])
                label = int(row[1])
                feats = np.array([float(v) for v in row[2:]])
            except ValueError as exc:
                raise ParseError(f"{path}, line {lineno}: {exc}") from exc
            if cid < 0:
                raise SchemaError(f"{path}, line {lineno}: negative client id {cid}")
            if cid >= 2**63:
                raise SchemaError(f"{path}, line {lineno}: client id {cid} is outside int64")
            if not (finite := np.isfinite(feats)).all():
                column = 3 + int(finite.argmin())  # 1-based, after client id and label
                raise SchemaError(
                    f"{path}, line {lineno}, column {column}: "
                    f"feature {row[column - 1]!r} is not finite"
                )
            if not 0 <= label < num_classes:
                raise SchemaError(
                    f"{path}, line {lineno}: label {label} outside [0, {num_classes})"
                )
            rows_by_client.setdefault(cid, []).append((label, feats))
    if not rows_by_client:
        raise SchemaError(f"{path}: no data rows in file")

    clients = {}
    for cid in sorted(rows_by_client):
        rows = rows_by_client[cid]
        y = np.array([label for label, _ in rows], dtype=np.int64)
        x = np.stack([feats for _, feats in rows])
        order = substream(seed, "csv.split", cid).permutation(len(rows))
        clients[cid] = _split_examples(x[order], y[order])

    return FederatedDataset(
        clients=clients,
        train_client_ids=tuple(sorted(clients)),
        eval_client_ids=(),
        input_dim=input_dim,
        num_classes=num_classes,
    )


def split_train_eval(
    ds: FederatedDataset, eval_fraction: float, seed: int
) -> FederatedDataset:
    """Hold out floor(eval_fraction * N) clients for personalization evaluation.

    Held-out clients are never visited by the round driver, which samples
    from train_client_ids only.
    """
    if not 0.0 <= eval_fraction < 1.0:
        raise ContractViolation("eval_fraction must lie in [0, 1)")
    all_ids = sorted(ds.clients)
    n_eval = int(eval_fraction * len(all_ids))
    order = substream(seed, "split.eval").permutation(len(all_ids))
    eval_ids = tuple(sorted(all_ids[i] for i in order[:n_eval]))
    train_ids = tuple(sorted(set(all_ids) - set(eval_ids)))
    return replace(ds, train_client_ids=train_ids, eval_client_ids=eval_ids)


def dataset_manifest(ds: FederatedDataset) -> str:
    """Structured text summary for experiment provenance."""
    histogram = np.zeros(ds.num_classes, dtype=np.int64)
    n_train = n_test = 0
    for client in ds.clients.values():
        for part in (client.train, client.test):
            if part.n:
                histogram += np.bincount(part.y, minlength=ds.num_classes)
        n_train += client.train.n
        n_test += client.test.n
    lines = [
        "fms-dataset/1",
        f"clients={len(ds.clients)}",
        f"train_clients={len(ds.train_client_ids)}",
        f"eval_clients={len(ds.eval_client_ids)}",
        f"input_dim={ds.input_dim}",
        f"num_classes={ds.num_classes}",
        f"train_examples={n_train}",
        f"test_examples={n_test}",
        "class_histogram=" + ",".join(f"c{i}:{int(v)}" for i, v in enumerate(histogram)),
    ]
    return "\n".join(lines) + "\n"
