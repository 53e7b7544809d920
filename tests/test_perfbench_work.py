"""A fast guard on the fedmetasim API the benchmark calls.

``perfbench/child.py`` counts each workload's defined SGD steps through
``config.load_config``, ``build_dataset``, ``validate``,
``build_personalization``, ``build_eval_config`` and ``build_stage``. A
break there otherwise shows only in the slow self-check or in a failed
benchmark run. The module is loaded from its file without writing
bytecode beside it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from fedmetasim import config

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def child(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_child", ROOT / "perfbench/child.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def loaded(path):
    cfg = config.load_config(ROOT / path)
    dataset = config.build_dataset(cfg)
    config.validate(cfg, dataset)
    return cfg, dataset


@pytest.mark.parametrize("path, steps", [
    ("configs/synthetic.ini", 89_800),
    ("perfbench/configs/traced_decompose.ini", 14_050),
])
def test_training_work_steps(child, path, steps):
    assert child.training_work(config, *loaded(path))["steps"] == steps


def test_sweep_work_steps(child):
    assert child.sweep_work(config, *loaded("configs/synthetic.ini"), 20)["steps"] == 51_600
