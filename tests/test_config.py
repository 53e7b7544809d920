"""Pinned config hashes of the bundled configs.

The hash covers every resolved value, defaults included, and heads each
run's metrics.csv and each benchmark digest. A moved default moves every
one of them, so each move must show here first.
"""

from pathlib import Path

import pytest

from fedmetasim.config import load_config

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("path, digest", [
    ("configs/smoke.ini", "00d7e8363dee"),
    ("configs/synthetic.ini", "216640f40998"),
    ("configs/decompose.ini", "52caa3057225"),
    ("perfbench/configs/traced_decompose.ini", "aa4b5295dc2d"),
])
def test_bundled_config_hash_is_pinned(path, digest):
    assert load_config(ROOT / path).hash == digest
