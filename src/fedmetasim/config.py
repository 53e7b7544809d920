"""Experiment configuration: INI parsing, validation, and object assembly.

Sections: [dataset], [model], [stage1], [stage2], [personalization], [run].
Stage sections use dotted keys for the two optimizers, e.g. server.kind,
server.lr, client.lr, client.batch_size, and exactly one of client.epochs /
client.steps. Every resolved config has a stable hash; a run's metrics and
the reports built from them carry it, so cross-config aggregation can be
refused.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass
from pathlib import Path

from .data import FederatedDataset, generate_synthetic, load_csv_dataset, split_train_eval
from .errors import ConfigError, ContractViolation
from .federation import EvalConfig, RoundConfig, StageConfig
from .model import ModelSpec
from .optimizers import ClientOptimizerConfig, ServerOptimizerState
from .personalization import PersonalizationConfig

_STAGE1 = {
    "rounds": "200",
    "algorithm": "fedavg",
    "clients_per_round": "5",
    "weighting": "",
    "client.epochs": "10",
    "client.steps": "",
    "client.lr": "0.02",
    "client.batch_size": "20",
    "server.kind": "momentum",
    "server.lr": "1.0",
    "server.momentum": "0.9",
    "server.adam_beta1": "0.9",
    "server.adam_beta2": "0.999",
    "server.adam_eps": "1e-8",
}

_DEFAULTS = {
    "dataset": {
        "kind": "synthetic",
        "seed": "0",
        "num_clients": "20",
        "classes_per_client": "5",
        "examples_per_client": "120",
        "input_dim": "16",
        "num_classes": "5",
        "heterogeneity": "0.8",
        "eval_fraction": "0.25",
        "path": "",
    },
    "model": {
        "layer_dims": "24,5",
        "activation": "tanh",
        "loss": "softmax_cross_entropy",
    },
    "stage1": _STAGE1,
    # Stage 2 fine-tunes: Reptile steps under an Adam server.
    "stage2": {
        **_STAGE1,
        "rounds": "0",
        "algorithm": "reptile",
        "client.epochs": "",
        "client.steps": "10",
        "server.kind": "adam",
        "server.lr": "0.001",
    },
    "personalization": {
        "optimizer": "sgd",
        "lr": "0.02",
        "epochs": "5",
        "batch_size": "100",
        "eval_every": "0",
    },
    "run": {
        "replicas": "9",
        "seed": "1",
        "output_dir": "",
        "checkpoint_every": "0",
        "trace": "false",
    },
}


@dataclass
class ExperimentConfig:
    """Fully resolved configuration plus the hash of its canonical text."""

    values: dict[str, dict[str, str]]
    hash: str

    def get(self, section: str, key: str) -> str:
        return self.values[section][key]

    def get_int(self, section: str, key: str) -> int:
        try:
            return int(self.values[section][key])
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: expected integer") from exc

    def get_float(self, section: str, key: str) -> float:
        try:
            return float(self.values[section][key])
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: expected number") from exc

    def get_bool(self, section: str, key: str) -> bool:
        raw = self.values[section][key].strip().lower()
        if raw in ("true", "1", "yes"):
            return True
        if raw in ("false", "0", "no", ""):
            return False
        raise ConfigError(f"[{section}] {key}: expected boolean, got {raw!r}")


def load_config(path) -> ExperimentConfig:
    # Values are literal ('%' is not special), so every parse error names a line.
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(Path(path).read_text(encoding="utf-8"), source=str(path))
    except FileNotFoundError:
        raise FileNotFoundError(f"config file not found: {path}") from None
    except IsADirectoryError:
        raise ConfigError(f"config {path} is a directory, not a file") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"config {path} is not UTF-8: {exc.reason} at offset {exc.start}"
        ) from None
    except configparser.Error as exc:  # its text names the file and line; one line here
        raise ConfigError(" ".join(str(exc).split())) from None

    values = {}
    for section, defaults in _DEFAULTS.items():
        values[section] = dict(defaults)
        explicit = set()
        if parser.has_section(section):
            for key, val in parser.items(section):
                if key not in defaults:
                    raise ConfigError(f"unknown key [{section}] {key}")
                values[section][key] = val.strip()
                explicit.add(key)
        # epochs/steps are one choice; setting one clears the other's default
        if section in ("stage1", "stage2"):
            if "client.steps" in explicit and "client.epochs" not in explicit:
                values[section]["client.epochs"] = ""
            if "client.epochs" in explicit and "client.steps" not in explicit:
                values[section]["client.steps"] = ""
    for section in parser.sections():
        if section not in _DEFAULTS:
            raise ConfigError(f"unknown config section [{section}]")

    canonical = "\n".join(
        f"{section}.{key}={values[section][key]}"
        for section in sorted(values)
        for key in sorted(values[section])
    )
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
    return ExperimentConfig(values=values, hash=digest)


def build_dataset(cfg: ExperimentConfig) -> FederatedDataset:
    """Construct and split the dataset. Uses dataset.seed, not the run seed,
    so replicas share one dataset and differ only in initialization and
    sampling."""
    kind = cfg.get("dataset", "kind")
    seed = cfg.get_int("dataset", "seed")
    if kind == "synthetic":
        ds = generate_synthetic(
            seed=seed,
            num_clients=cfg.get_int("dataset", "num_clients"),
            classes_per_client=cfg.get_int("dataset", "classes_per_client"),
            examples_per_client=cfg.get_int("dataset", "examples_per_client"),
            input_dim=cfg.get_int("dataset", "input_dim"),
            num_classes=cfg.get_int("dataset", "num_classes"),
            heterogeneity=cfg.get_float("dataset", "heterogeneity"),
        )
    elif kind == "csv":
        path = cfg.get("dataset", "path")
        if not path:
            raise ConfigError("[dataset] path required for kind=csv")
        ds = load_csv_dataset(
            path,
            cfg.get_int("dataset", "input_dim"),
            cfg.get_int("dataset", "num_classes"),
            seed,
        )
    else:
        raise ConfigError(f"unknown dataset kind {kind!r}")
    return split_train_eval(ds, cfg.get_float("dataset", "eval_fraction"), seed)


def build_model_spec(cfg: ExperimentConfig) -> ModelSpec:
    layer_dims = tuple(
        int(v) for v in cfg.get("model", "layer_dims").split(",") if v.strip()
    )
    spec = ModelSpec(
        input_dim=cfg.get_int("dataset", "input_dim"),
        layer_dims=layer_dims,
        activation=cfg.get("model", "activation"),
        loss=cfg.get("model", "loss"),
    )
    if spec.num_classes != cfg.get_int("dataset", "num_classes"):
        raise ConfigError(
            f"model emits {spec.num_classes} classes but dataset has "
            f"{cfg.get_int('dataset', 'num_classes')}"
        )
    return spec


def build_stage(cfg: ExperimentConfig, section: str) -> StageConfig:
    rounds = cfg.get_int(section, "rounds")
    if rounds == 0:
        return StageConfig(rounds=0, round_cfg=None, server=None)
    client_cfg = ClientOptimizerConfig(
        lr=cfg.get_float(section, "client.lr"),
        batch_size=cfg.get_int(section, "client.batch_size"),
    )
    epochs = cfg.get(section, "client.epochs")
    steps = cfg.get(section, "client.steps")
    weighting = cfg.get(section, "weighting") or None
    round_cfg = RoundConfig(
        algorithm=cfg.get(section, "algorithm"),
        clients_per_round=cfg.get_int(section, "clients_per_round"),
        client_cfg=client_cfg,
        epochs=int(epochs) if epochs else None,
        steps=int(steps) if steps else None,
        weighting=weighting,
    )
    server = ServerOptimizerState(
        kind=cfg.get(section, "server.kind"),
        lr=cfg.get_float(section, "server.lr"),
        momentum=cfg.get_float(section, "server.momentum"),
        beta1=cfg.get_float(section, "server.adam_beta1"),
        beta2=cfg.get_float(section, "server.adam_beta2"),
        eps=cfg.get_float(section, "server.adam_eps"),
    )
    return StageConfig(rounds=rounds, round_cfg=round_cfg, server=server)


def build_personalization(cfg: ExperimentConfig) -> PersonalizationConfig:
    return PersonalizationConfig(
        optimizer=cfg.get("personalization", "optimizer"),
        lr=cfg.get_float("personalization", "lr"),
        epochs=cfg.get_int("personalization", "epochs"),
        batch_size=cfg.get_int("personalization", "batch_size"),
    )


def build_eval_config(cfg: ExperimentConfig) -> EvalConfig:
    return EvalConfig(
        personalization=build_personalization(cfg),
        every=cfg.get_int("personalization", "eval_every"),
    )


def validate(cfg: ExperimentConfig, dataset: FederatedDataset) -> None:
    """Cross-checks that need the materialized dataset, each stage's round
    and server settings, and the ranges of the run's counts and schedules."""
    for section in ("stage1", "stage2"):
        try:
            stage = build_stage(cfg, section)
        except ContractViolation as exc:
            raise ConfigError(f"[{section}] {exc}") from exc
        if stage.rounds and stage.round_cfg.clients_per_round > len(dataset.train_client_ids):
            raise ConfigError(
                f"[{section}] clients_per_round exceeds {len(dataset.train_client_ids)} "
                "train clients"
            )
    if not cfg.get_int("stage1", "rounds") + cfg.get_int("stage2", "rounds"):
        raise ConfigError("no rounds to train; set [stage1] or [stage2] rounds > 0")
    if not dataset.eval_client_ids:
        raise ConfigError(
            "no evaluation clients; set dataset.eval_fraction > 0"
        )
    for cid in dataset.eval_client_ids:
        if dataset.clients[cid].test.n == 0:
            raise ConfigError(f"held-out client {cid} has no test examples")
    if cfg.get_int("run", "replicas") < 1:
        raise ConfigError("[run] replicas must be positive")
    for section, key in (("run", "checkpoint_every"), ("personalization", "eval_every")):
        if cfg.get_int(section, key) < 0:
            raise ConfigError(f"[{section}] {key} must be non-negative (0 turns it off)")


def output_dir(cfg: ExperimentConfig, override: str | None) -> Path:
    raw = override or cfg.get("run", "output_dir")
    if not raw:
        raise ConfigError("output directory required ([run] output_dir or --out)")
    return Path(raw)
