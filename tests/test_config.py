"""Pinned config hashes of the bundled configs, and refused INI syntax.

The hash covers every resolved value, defaults included, and heads each
run's metrics.csv and each benchmark digest. A moved default moves every
one of them, so each move must show here first.
"""

import re
from pathlib import Path

import pytest

from fedmetasim import ConfigError
from fedmetasim.config import _KEYS, load_config

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("path, digest", [
    ("configs/smoke.ini", "00d7e8363dee"),
    ("configs/synthetic.ini", "216640f40998"),
    ("configs/decompose.ini", "52caa3057225"),
    ("perfbench/configs/traced_decompose.ini", "aa4b5295dc2d"),
])
def test_bundled_config_hash_is_pinned(path, digest):
    assert load_config(ROOT / path).hash == digest


@pytest.mark.parametrize("text, line", [
    ("[run]\nseed = 1\n[run]\n", 3),
    ("[run]\nseed = 1\nseed = 2\n", 3),
    ("seed = 1\n", 1),
    ("[run]\nseed = 1\nno value here\n", 3),
], ids=["repeated-section", "repeated-key", "no-section-header", "no-value"])
def test_syntax_error_names_file_and_line(tmp_path, text, line):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(ConfigError) as info:
        load_config(path)
    message = str(info.value)
    assert str(path) in message and "\n" not in message
    assert re.search(rf"\bline:? {line}\b", message), message


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nrounds = 2\n[stage1]\n[stage2]\n",
    "[DEFAULT]\nseed = 3\n\n" + (ROOT / "configs/smoke.ini").read_text(),
], ids=["merged-into-both-stages", "merged-into-model"])
def test_default_section_with_keys_refused(tmp_path, text):
    """configparser would merge [DEFAULT]'s keys into every section: here
    into both stages' rounds, or into [model], which has no seed."""
    path = tmp_path / "default.ini"
    path.write_text(text)
    with pytest.raises(ConfigError, match=r"^unknown config section \[DEFAULT\]$"):
        load_config(path)


def test_empty_default_section_is_no_key(tmp_path):
    path = tmp_path / "default.ini"
    path.write_text("[DEFAULT]\n" + (ROOT / "configs/smoke.ini").read_text())
    assert load_config(path).hash == load_config(ROOT / "configs/smoke.ini").hash


def test_percent_sign_is_literal(tmp_path):
    path = tmp_path / "percent.ini"
    path.write_text("[run]\noutput_dir = runs/100%\n")
    assert load_config(path).values["run"]["output_dir"] == "runs/100%"


def test_readme_config_block_names_every_key():
    """README's "Config format" block lists exactly the sections and keys
    that ``load_config`` reads: a ``[section]`` run heads a group, and the
    words after it, less values and parenthesized notes, are its keys."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Config format", 1)[1].split("```")[1]
    block = re.sub(r"\([^)]*\)|=[\w|]+", " ", block)
    listed, group, in_keys = {}, [], False
    for token in re.findall(r"\[\w+\]|[\w.]+", block):
        if token.startswith("["):
            if in_keys:
                group, in_keys = [], False
            group.append(token[1:-1])
            listed[token[1:-1]] = set()
        else:
            in_keys = True
            for section in group:
                listed[section].add(token)
    assert listed == {section: set(keys) for section, keys in _KEYS.items()}
