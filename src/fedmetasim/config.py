"""Experiment configuration: one table of keys, INI parsing, validation, and
object assembly.

Sections: [dataset], [model], [stage1], [stage2], [personalization], [run].
Stage sections use dotted keys for the two optimizers, e.g. server.kind,
server.lr, client.lr, client.batch_size, and exactly one of client.epochs /
client.steps. ``_KEYS`` gives each key of each section its default text and
its parser. ``load_config`` hashes the resolved text, then parses every value
once, in every section and in an empty stage too; a value that does not parse
is one ConfigError, ``[section] key = 'raw': expected ...``. Readers use the
parsed ``ExperimentConfig.values``: no config text is parsed anywhere else.
A run's metrics and the reports built from them carry the hash, so
cross-config aggregation can be refused.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

from .data import (
    FederatedDataset, generate_synthetic, load_csv_dataset, read_utf8, split_train_eval,
)
from .errors import ConfigError, ContractViolation
from .federation import EvalConfig, RoundConfig, StageConfig
from .model import ModelSpec
from .optimizers import ClientOptimizerConfig, ServerOptimizerState
from .personalization import PersonalizationConfig


def _named(name: str, parse):
    """``parse`` under ``name``, which a refusal quotes as what was expected."""
    parse.__name__ = name
    return parse


def bounded(convert, low, high=math.inf):
    """A parser of ``convert(text)`` within [low, high], so not nan, for
    config keys and command-line flags alike. Its refusal is an
    ``argparse.ArgumentTypeError``, whose text argparse prints as is."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"expected {parse.__name__}, got {text!r}")
        return value
    return _named(f"{convert.__name__} in [{low}, {high}]", parse)


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False, "": False}
_OPTIONAL_INT = _named("int or empty", lambda text: int(text) if text else None)
_OPTIONAL_STR = _named("str or empty", lambda text: text or None)
_INTS = _named(
    "comma-separated ints", lambda text: tuple(int(v) for v in text.split(",") if v.strip())
)
_BOOL = _named("true or false", lambda text: _BOOLS[text.lower()])
_SCHEDULE = bounded(int, 0)  # rounds between events; 0 turns them off
SEED = bounded(int, -2**63, 2**63 - 1)  # rng.substream packs a seed as int64

# Each key's default text and parser. The hash covers the text; a parser's
# __name__ says what it expects.
_STAGE1 = {
    "rounds": ("200", int),
    "algorithm": ("fedavg", str),
    "clients_per_round": ("5", int),
    "weighting": ("", _OPTIONAL_STR),
    "client.epochs": ("10", _OPTIONAL_INT),
    "client.steps": ("", _OPTIONAL_INT),
    "client.lr": ("0.02", float),
    "client.batch_size": ("20", int),
    "server.kind": ("momentum", str),
    "server.lr": ("1.0", float),
    "server.momentum": ("0.9", float),
    "server.adam_beta1": ("0.9", float),
    "server.adam_beta2": ("0.999", float),
    "server.adam_eps": ("1e-8", float),
}

# Stage 2 fine-tunes: Reptile steps under an Adam server.
_STAGE2_DEFAULTS = {"rounds": "0", "algorithm": "reptile", "client.epochs": "",
                    "client.steps": "10", "server.kind": "adam", "server.lr": "0.001"}

_KEYS = {
    "dataset": {
        "kind": ("synthetic", str),
        "seed": ("0", SEED),
        "num_clients": ("20", int),
        "classes_per_client": ("5", int),
        "examples_per_client": ("120", int),
        "input_dim": ("16", int),
        "num_classes": ("5", int),
        "heterogeneity": ("0.8", float),
        "eval_fraction": ("0.25", float),
        "path": ("", str),
    },
    "model": {
        "layer_dims": ("24,5", _INTS),
        "activation": ("tanh", str),
        "loss": ("softmax_cross_entropy", str),
    },
    "stage1": _STAGE1,
    "stage2": {
        key: (_STAGE2_DEFAULTS.get(key, default), parse)
        for key, (default, parse) in _STAGE1.items()
    },
    "personalization": {
        "optimizer": ("sgd", str),
        "lr": ("0.02", float),
        "epochs": ("5", int),
        "batch_size": ("100", int),
        "eval_every": ("0", _SCHEDULE),
    },
    "run": {
        "replicas": ("9", bounded(int, 1)),
        "seed": ("1", SEED),
        "output_dir": ("", str),
        "checkpoint_every": ("0", _SCHEDULE),
        "trace": ("false", _BOOL),
    },
}


@dataclass
class ExperimentConfig:
    """Every key's parsed value, by section, and the hash of the resolved text."""

    values: dict[str, dict[str, object]]
    hash: str


def load_config(path) -> ExperimentConfig:
    # Values are literal ('%' is not special), so every parse error names a line.
    parser = configparser.ConfigParser(interpolation=None)
    try:
        # Universal newlines, as a text-mode read gives.
        parser.read_file(io.StringIO(read_utf8(path), newline=None), source=str(path))
    except FileNotFoundError:
        raise FileNotFoundError(f"config file not found: {path}") from None
    except IsADirectoryError:
        raise ConfigError(f"config {path} is a directory, not a file") from None
    except configparser.Error as exc:  # its text names the file and line; one line here
        raise ConfigError(" ".join(str(exc).split())) from None
    if parser.defaults():  # configparser would merge its keys into every section
        raise ConfigError(f"unknown config section [{parser.default_section}]")

    text = {}
    for section, keys in _KEYS.items():
        text[section] = {key: default for key, (default, _) in keys.items()}
        explicit = set()
        if parser.has_section(section):
            for key, val in parser.items(section):
                if key not in keys:
                    raise ConfigError(f"unknown key [{section}] {key}")
                text[section][key] = val.strip()
                explicit.add(key)
        # epochs/steps are one choice; setting one clears the other's default
        if section in ("stage1", "stage2"):
            if "client.steps" in explicit and "client.epochs" not in explicit:
                text[section]["client.epochs"] = ""
            if "client.epochs" in explicit and "client.steps" not in explicit:
                text[section]["client.steps"] = ""
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown config section [{section}]")

    canonical = "\n".join(
        f"{section}.{key}={text[section][key]}"
        for section in sorted(text)
        for key in sorted(text[section])
    )
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]

    values = {}
    for section, keys in _KEYS.items():
        values[section] = {}
        for key, (_, parse) in keys.items():
            raw = text[section][key]
            try:
                values[section][key] = parse(raw)
            except (ValueError, KeyError, argparse.ArgumentTypeError):
                raise ConfigError(
                    f"[{section}] {key} = {raw!r}: expected {parse.__name__}") from None
    return ExperimentConfig(values=values, hash=digest)


@contextlib.contextmanager
def _section(name: str):
    """Refuse a value the objects built inside reject as a ConfigError that
    names ``[name]``."""
    try:
        yield
    except ContractViolation as exc:
        raise ConfigError(f"[{name}] {exc}") from exc


def build_dataset(cfg: ExperimentConfig) -> FederatedDataset:
    """Construct and split the dataset. Uses dataset.seed, not the run seed,
    so replicas share one dataset and differ only in initialization and
    sampling."""
    d = cfg.values["dataset"]
    with _section("dataset"):
        if d["kind"] == "synthetic":
            ds = generate_synthetic(
                seed=d["seed"],
                num_clients=d["num_clients"],
                classes_per_client=d["classes_per_client"],
                examples_per_client=d["examples_per_client"],
                input_dim=d["input_dim"],
                num_classes=d["num_classes"],
                heterogeneity=d["heterogeneity"],
            )
        elif d["kind"] == "csv":
            if not d["path"]:
                raise ConfigError("[dataset] path required for kind=csv")
            ds = load_csv_dataset(d["path"], d["input_dim"], d["num_classes"], d["seed"])
        else:
            raise ConfigError(f"[dataset] unknown kind {d['kind']!r}")
        return split_train_eval(ds, d["eval_fraction"], d["seed"])


def build_model_spec(cfg: ExperimentConfig) -> ModelSpec:
    m, d = cfg.values["model"], cfg.values["dataset"]
    with _section("model"):
        spec = ModelSpec(
            input_dim=d["input_dim"],
            layer_dims=m["layer_dims"],
            activation=m["activation"],
            loss=m["loss"],
        )
    if spec.num_classes != d["num_classes"]:
        raise ConfigError(
            f"[model] layer_dims emits {spec.num_classes} classes "
            f"but [dataset] num_classes is {d['num_classes']}"
        )
    return spec


def build_stage(cfg: ExperimentConfig, section: str) -> StageConfig:
    s = cfg.values[section]
    if s["rounds"] == 0:
        return StageConfig(rounds=0, round_cfg=None, server=None)
    round_cfg = RoundConfig(
        algorithm=s["algorithm"],
        clients_per_round=s["clients_per_round"],
        client_cfg=ClientOptimizerConfig(lr=s["client.lr"], batch_size=s["client.batch_size"]),
        epochs=s["client.epochs"],
        steps=s["client.steps"],
        weighting=s["weighting"],
    )
    server = ServerOptimizerState(
        kind=s["server.kind"],
        lr=s["server.lr"],
        momentum=s["server.momentum"],
        beta1=s["server.adam_beta1"],
        beta2=s["server.adam_beta2"],
        eps=s["server.adam_eps"],
    )
    return StageConfig(rounds=s["rounds"], round_cfg=round_cfg, server=server)


def build_personalization(cfg: ExperimentConfig) -> PersonalizationConfig:
    p = cfg.values["personalization"]
    with _section("personalization"):
        return PersonalizationConfig(
            optimizer=p["optimizer"], lr=p["lr"], epochs=p["epochs"], batch_size=p["batch_size"]
        )


def build_eval_config(cfg: ExperimentConfig) -> EvalConfig:
    return EvalConfig(
        personalization=build_personalization(cfg),
        every=cfg.values["personalization"]["eval_every"],
    )


def validate(cfg: ExperimentConfig, dataset: FederatedDataset) -> None:
    """Cross-checks that need the materialized dataset, and each stage's
    round and server settings."""
    for section in ("stage1", "stage2"):
        with _section(section):
            stage = build_stage(cfg, section)
        if stage.rounds and stage.round_cfg.clients_per_round > len(dataset.train_client_ids):
            raise ConfigError(
                f"[{section}] clients_per_round exceeds {len(dataset.train_client_ids)} "
                "train clients"
            )
    if not cfg.values["stage1"]["rounds"] + cfg.values["stage2"]["rounds"]:
        raise ConfigError("no rounds to train; set [stage1] or [stage2] rounds > 0")
    if not dataset.eval_client_ids:
        raise ConfigError("no evaluation clients; set [dataset] eval_fraction > 0")
    for cid in dataset.eval_client_ids:
        if dataset.clients[cid].test.n == 0:
            raise ConfigError(f"[dataset] held-out client {cid} has no test examples")


def output_dir(cfg: ExperimentConfig, override: str | None) -> Path:
    raw = override or cfg.values["run"]["output_dir"]
    if not raw:
        raise ConfigError("output directory required ([run] output_dir or --out)")
    return Path(raw)
