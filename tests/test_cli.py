import ast
import configparser
import functools
import gc
import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tracemalloc
import zipfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedmetasim import (
    ClientOptimizerConfig,
    ConfigError,
    ModelSpec,
    ParseError,
    RoundConfig,
    ServerOptimizerState,
    init_params,
    load_checkpoint,
    run_round,
    substream,
)
from fedmetasim import __version__, cli, federation
from fedmetasim.cli import _load_trace, _save_trace, main
from fedmetasim.config import _KEYS, load_config
from fedmetasim.data import FederatedDataset
from fedmetasim.federation import RoundTrace
from util import make_client

SMOKE = "configs/smoke.ini"
DECOMPOSE = "configs/decompose.ini"
GOLDEN = Path("tests/golden/smoke_report.txt")


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    rc = main(["train", "-c", SMOKE, "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    rc = main(["train", "-c", DECOMPOSE, "--out", str(out), "--trace"])
    assert rc == 0
    return out


def config_variant(tmp_path, name, replacements, base=SMOKE):
    """The ``base`` config with each (old, new) text replacement made once."""
    text = Path(base).read_text()
    for old, new in replacements:
        assert old in text
        text = text.replace(old, new, 1)
    config = tmp_path / name
    config.write_text(text)
    return config


def config_with(tmp_path, section, key, value, base=SMOKE):
    """The ``base`` config with ``[section] key`` set to ``value``."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(base, encoding="utf-8")
    if not parser.has_section(section):
        parser.add_section(section)
    parser.set(section, key, value)
    path = tmp_path / "variant.ini"
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return path


# Every key whose parser can refuse a value, each given one it refuses.
UNPARSABLE = [
    (SMOKE, section, key, "x")
    for section, keys in _KEYS.items()
    for key, (_, parse) in keys.items()
    if parse.__name__ not in ("str", "str or empty")
] + [
    (SMOKE, "model", "layer_dims", "24,x"),
    (SMOKE, "stage1", "client.epochs", "two"),
    (DECOMPOSE, "stage2", "client.lr", "fast"),  # an empty stage
]

# Values the smoke config (4 train clients) refuses beyond their parse, each
# with its whole error line.
INT64 = "int in [-9223372036854775808, 9223372036854775807]"
REFUSED = [
    ("dataset", "seed", "99999999999999999999",
     f"[dataset] seed = '99999999999999999999': expected {INT64}"),
    ("run", "seed", "-9223372036854775809",
     f"[run] seed = '-9223372036854775809': expected {INT64}"),
    ("stage1", "client.momentum", "0.9", "unknown key [stage1] client.momentum"),
    ("extra", "key", "1", "unknown config section [extra]"),
    ("dataset", "kind", "csv", "[dataset] path required for kind=csv"),
    ("dataset", "kind", "parquet", "[dataset] unknown kind 'parquet'"),
    ("dataset", "num_classes", "4",
     "[model] layer_dims emits 3 classes but [dataset] num_classes is 4"),
    ("dataset", "eval_fraction", "0", "no evaluation clients; set [dataset] eval_fraction > 0"),
    ("dataset", "input_dim", "0", "[dataset] need input_dim >= 1 and num_classes >= 2"),
    ("model", "loss", "hinge", "[model] unknown loss 'hinge'"),
    ("model", "activation", "gelu", "[model] unknown activation 'gelu'"),
    ("stage1", "algorithm", "sgd", "[stage1] unknown algorithm 'sgd'"),
    ("stage1", "clients_per_round", "0", "[stage1] clients_per_round must be positive"),
    ("stage1", "clients_per_round", "5", "[stage1] clients_per_round exceeds 4 train clients"),
    ("stage1", "weighting", "equal", "[stage1] unknown weighting 'equal'"),
    ("stage1", "client.epochs", "0", "[stage1] epochs must be positive"),
    ("personalization", "optimizer", "rmsprop",
     "[personalization] unknown personalization optimizer 'rmsprop'"),
    ("personalization", "epochs", "-1", "[personalization] epochs must be non-negative"),
    ("personalization", "batch_size", "0", "[personalization] batch_size must be positive"),
    ("stage1", "client.lr", "inf", "[stage1] client lr must be non-negative and finite"),
    ("stage2", "server.lr", "inf", "[stage2] server lr must be positive and finite"),
    ("stage2", "server.adam_eps", "inf", "[stage2] server eps must be positive and finite"),
    ("personalization", "lr", "inf",
     "[personalization] personalization lr must be non-negative and finite"),
]


def diverging_config(tmp_path):
    """The smoke config as relu 6->8->3 with client lr 1e3 over 30 epochs,
    which overflows a gradient in the first replica."""
    return config_variant(tmp_path, "diverge.ini", (
        ("activation = tanh", "activation = relu"),
        ("client.epochs = 2", "client.epochs = 30"),
        ("client.lr = 0.05", "client.lr = 1e3"),
    ))


def must_not_run(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} ran before the overwrite check")
    return fail


def tree_bytes(root):
    """Every file under ``root`` with its contents."""
    return {p: p.read_bytes() for p in sorted(Path(root).rglob("*")) if p.is_file()}


def interrupt_at_round(monkeypatch, stop):
    """Makes ``train`` raise KeyboardInterrupt when round ``stop`` ends."""
    save = cli._save_trace

    def interrupting(path, trace):
        if trace.round_index == stop:
            raise KeyboardInterrupt
        save(path, trace)

    monkeypatch.setattr(cli, "_save_trace", interrupting)


def replace_member(path, name, blob):
    """Rewrites the archive at ``path`` with member ``<name>.npy`` holding ``blob``."""
    with zipfile.ZipFile(path) as archive:
        members = {info.filename: archive.read(info) for info in archive.infolist()}
    assert f"{name}.npy" in members
    members[f"{name}.npy"] = blob
    with zipfile.ZipFile(path, "w") as archive:
        for filename, data in members.items():
            archive.writestr(filename, data)


def refused_without_change(argv, root, capsys):
    """Runs ``argv``, which must refuse to overwrite, and checks that it
    wrote, removed and changed nothing under ``root``."""
    before = tree_bytes(root)
    rc = main(argv)
    assert rc == 1
    assert "refusing to overwrite" in capsys.readouterr().err
    assert tree_bytes(root) == before


def refused_wrong_kind(argv, blocker, capsys):
    """Runs ``argv``, whose --out is blocked by ``blocker`` (a file where a
    directory must go, or a directory where a file must go), and checks that
    it exits 1 with one error line and adds, removes and changes nothing
    beside ``blocker``: no staged file is left."""
    root = blocker.parent
    before = sorted(root.rglob("*")), tree_bytes(root)
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert (sorted(root.rglob("*")), tree_bytes(root)) == before


def one_error_line(capsys):
    """The one line a failed command wrote to stderr, which must be its only
    line and start with ``error:``."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


def fail_writing(monkeypatch, name):
    """Makes the write of a file whose name holds ``name``, through
    ``Path.write_text`` or ``cli.save_checkpoint``, raise OSError after its
    bytes are on disk."""
    def failing(write):
        def wrapper(path, *args):
            write(path, *args)
            if name in Path(path).name:
                raise OSError("disk full")
        return wrapper

    monkeypatch.setattr(Path, "write_text", failing(Path.write_text))
    monkeypatch.setattr(cli, "save_checkpoint", failing(cli.save_checkpoint))


FORCE = pytest.mark.parametrize("force", [[], ["--force"]], ids=["plain", "force"])


class TestTrain:
    def test_replica_layout_and_seeds(self, smoke_run):
        dirs = sorted(p.name for p in smoke_run.iterdir())
        assert dirs == ["replica_00", "replica_01", "replica_02"]
        for replica, expected_seed in ((0, 7), (1, 8), (2, 9)):
            manifest = (smoke_run / f"replica_{replica:02d}" / "manifest.txt").read_text()
            assert f"seed={expected_seed}" in manifest
            assert "config_hash=" in manifest

    def test_outputs_exist(self, smoke_run):
        rdir = smoke_run / "replica_00"
        for name in ("metrics.csv", "timings.csv", "manifest.txt", "checkpoint.fms"):
            assert (rdir / name).exists()

    def test_metrics_columns(self, smoke_run):
        lines = (smoke_run / "replica_00" / "metrics.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1].startswith("# seed=")
        assert lines[2] == (
            "round,mean_initial_acc,std_initial_acc,"
            "mean_personalized_acc,std_personalized_acc"
        )
        rows = [l for l in lines[3:] if l]
        assert [int(r.split(",")[0]) for r in rows] == [4, 8, 12]

    def test_checkpoint_loads(self, smoke_run):
        spec, params = load_checkpoint(smoke_run / "replica_00" / "checkpoint.fms")
        assert spec.layer_dims == (8, 3)
        assert params.shape == (spec.param_count,)

    def test_refuses_overwrite_without_force(self, smoke_run, capsys):
        rc = main(["train", "-c", SMOKE, "--out", str(smoke_run)])
        assert rc == 1
        assert "refusing to overwrite" in capsys.readouterr().err

    def test_existing_later_replica_refused_before_training(self, tmp_path, capsys):
        out = tmp_path / "runs"
        (out / "replica_01").mkdir(parents=True)
        (out / "replica_01" / "metrics.csv").write_text("earlier run\n")
        refused_without_change(
            ["train", "-c", SMOKE, "--out", str(out), "--replicas", "2"], out, capsys
        )
        assert not (out / "replica_00").exists()

    @FORCE
    def test_out_under_a_file_refused_before_training(self, tmp_path, capsys, monkeypatch, force):
        monkeypatch.setattr(cli, "run_personalized_fedavg", must_not_run("training"))
        blocker = tmp_path / "runs"
        blocker.write_text("not a directory\n")
        refused_wrong_kind(["train", "-c", SMOKE, "--out", str(blocker), *force], blocker, capsys)

    def test_existing_trace_refused(self, tmp_path, capsys):
        out = tmp_path / "runs"
        (out / "replica_00" / "traces").mkdir(parents=True)
        (out / "replica_00" / "traces" / "round_00000.npz").write_bytes(b"earlier trace")
        refused_without_change(
            ["train", "-c", SMOKE, "--out", str(out), "--replicas", "1", "--trace"],
            out, capsys,
        )

    def test_existing_periodic_checkpoint_refused(self, tmp_path, capsys):
        config = config_variant(
            tmp_path, "ckpt.ini", (("[run]\n", "[run]\ncheckpoint_every = 4\n"),)
        )
        out = tmp_path / "runs"
        (out / "replica_00").mkdir(parents=True)
        (out / "replica_00" / "ckpt_00004.fms").write_bytes(b"earlier checkpoint")
        refused_without_change(
            ["train", "-c", str(config), "--out", str(out), "--replicas", "1"], out, capsys
        )

    @pytest.mark.parametrize("key, replacement", [
        ("checkpoint_every", ("[run]\n", "[run]\ncheckpoint_every = -4\n")),
        ("eval_every", ("eval_every = 4", "eval_every = -4")),
    ], ids=["checkpoint_every", "eval_every"])
    def test_negative_schedule_rejected(self, tmp_path, capsys, key, replacement):
        config = config_variant(tmp_path, "negative.ini", (replacement,))
        message = f"{key} = '-4': expected int in [0, inf]"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(config)
        out = tmp_path / "runs"
        assert main(["train", "-c", str(config), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_negative_personalization_lr_rejected(self, tmp_path, capsys):
        config = config_variant(
            tmp_path, "negative_lr.ini", (("sgd\nlr = 0.05", "sgd\nlr = -0.02"),)
        )
        out = tmp_path / "runs"
        assert main(["train", "-c", str(config), "--out", str(out)]) == 1
        assert (
            "error: [personalization] personalization lr must be non-negative"
            in capsys.readouterr().err
        )
        assert not out.exists()

    def rejected_before_output(self, config, tmp_path, capsys, monkeypatch, message):
        """``train`` on ``config`` exits 1 before any round runs, with one
        ``error:`` line matching ``message``, and creates no output directory."""
        monkeypatch.setattr(federation, "run_round", must_not_run("run_round"))
        out = tmp_path / "runs"
        assert main(["train", "-c", str(config), "--out", str(out), "--replicas", "1"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert re.search(message, err[0])
        assert not out.exists()

    @pytest.mark.parametrize(
        "base, section, key, value", UNPARSABLE, ids=[f"{s}.{k}={v}" for _, s, k, v in UNPARSABLE]
    )
    def test_unparsable_value_rejected_before_output(
        self, tmp_path, capsys, monkeypatch, base, section, key, value
    ):
        config = config_with(tmp_path, section, key, value, base)
        self.rejected_before_output(
            config, tmp_path, capsys, monkeypatch,
            "^" + re.escape(f"error: [{section}] {key} = {value!r}: expected "),
        )

    @pytest.mark.parametrize(
        "section, key, value, message", REFUSED, ids=[f"{s}.{k}={v}" for s, k, v, _ in REFUSED]
    )
    def test_refused_value_rejected_before_output(
        self, tmp_path, capsys, monkeypatch, section, key, value, message
    ):
        config = config_with(tmp_path, section, key, value)
        self.rejected_before_output(
            config, tmp_path, capsys, monkeypatch, "^" + re.escape(f"error: {message}") + "$"
        )

    def test_empty_output_dir_without_out_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(federation, "run_round", must_not_run("run_round"))
        monkeypatch.chdir(tmp_path)
        config = config_with(tmp_path, "run", "output_dir", "")
        assert main(["train", "-c", str(config)]) == 1
        assert one_error_line(capsys) == (
            "error: output directory required ([run] output_dir or --out)"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["variant.ini"]

    def test_last_replica_seed_outside_int64_rejected_before_output(
        self, tmp_path, capsys, monkeypatch
    ):
        """A seed whose later replicas would overflow is refused before the
        first replica trains, not after it is committed."""
        monkeypatch.setattr(federation, "run_round", must_not_run("run_round"))
        out = tmp_path / "runs"
        top = 2**63 - 1
        assert main(["train", "-c", SMOKE, "--out", str(out), "--seed", str(top),
                     "--replicas", "2"]) == 1
        assert one_error_line(capsys) == (
            f"error: replica 1 would take seed {top + 1}, past the largest seed {top}"
        )
        assert not out.exists()

    def test_undecodable_csv_dataset_is_parse_error(self, tmp_path, capsys, monkeypatch):
        rows = "".join(f"{cid},{cid % 3}," + ",".join(["0.5"] * 6) + "\n" for cid in range(6))
        data = tmp_path / "data.csv"
        data.write_bytes(rows.encode() + b"6,0,0.5,\xff\n")
        config = config_variant(tmp_path, "csv.ini", (
            ("kind = synthetic", f"kind = csv\npath = {data}"),
        ))
        self.rejected_before_output(
            config, tmp_path, capsys, monkeypatch, "^" + re.escape(
                f"error: {data} is not UTF-8: invalid start byte at byte offset {len(rows) + 8}"
            ) + "$",
        )

    @pytest.mark.parametrize("last_row, message", [
        ("6,0,0.5\n", "line 7: expected 8 columns, got 3"),
        ("6,0,x,0.5,0.5,0.5,0.5,0.5\n", "line 7: could not convert string to float: 'x'"),
        ("-6,0,0.5,0.5,0.5,0.5,0.5,0.5\n", "line 7: negative client id -6"),
        (f"{2**63},0,0.5,0.5,0.5,0.5,0.5,0.5\n", f"line 7: client id {2**63} is outside int64"),
        ("6,3,0.5,0.5,0.5,0.5,0.5,0.5\n", "line 7: label 3 outside [0, 3)"),
        (None, "no data rows in file"),
    ], ids=["columns", "parse", "client-id", "client-id-int64", "label", "no-rows"])
    def test_csv_input_error_names_the_file(
        self, tmp_path, capsys, monkeypatch, last_row, message
    ):
        data = tmp_path / "data.csv"
        if last_row is None:
            data.write_text("\n\n")
        else:
            rows = "".join(f"{cid},{cid % 3}," + ",".join(["0.5"] * 6) + "\n" for cid in range(6))
            data.write_text(rows + last_row)
        config = config_variant(tmp_path, "csv.ini", (
            ("kind = synthetic", f"kind = csv\npath = {data}"),
        ))
        separator = ": " if last_row is None else ", "
        self.rejected_before_output(
            config, tmp_path, capsys, monkeypatch,
            "^" + re.escape(f"error: {data}{separator}{message}") + "$",
        )

    def test_no_rounds_rejected_before_output(self, tmp_path, capsys, monkeypatch):
        config = config_variant(tmp_path, "empty.ini", (
            ("rounds = 8", "rounds = 0"), ("rounds = 4", "rounds = 0"),
        ))
        self.rejected_before_output(config, tmp_path, capsys, monkeypatch, "no rounds to train")

    def test_held_out_client_without_test_examples_rejected(
        self, tmp_path, capsys, monkeypatch
    ):
        # One row per client: each keeps it for training and has no test split.
        rng = np.random.default_rng(0)
        data = tmp_path / "data.csv"
        data.write_text("".join(
            f"{cid},{cid % 3}," + ",".join(f"{v:.3f}" for v in rng.normal(size=6)) + "\n"
            for cid in range(6)
        ))
        config = config_variant(tmp_path, "csv.ini", (
            ("kind = synthetic", f"kind = csv\npath = {data}"),
        ))
        self.rejected_before_output(
            config, tmp_path, capsys, monkeypatch, r"held-out client \d+ has no test examples"
        )

    def test_force_overwrites(self, tmp_path):
        out = tmp_path / "runs"
        assert main(["train", "-c", SMOKE, "--out", str(out), "--replicas", "1"]) == 0
        assert main(
            ["train", "-c", SMOKE, "--out", str(out), "--replicas", "1", "--force"]
        ) == 0

    def test_interrupted_run_leaves_nothing(self, tmp_path, monkeypatch):
        out = tmp_path / "runs"
        interrupt_at_round(monkeypatch, 2)
        with pytest.raises(KeyboardInterrupt):
            main(["train", "-c", DECOMPOSE, "--out", str(out), "--trace"])
        assert not out.exists()

    def test_interrupted_force_run_changes_nothing(self, traced_run, tmp_path, monkeypatch):
        out = tmp_path / "runs"
        shutil.copytree(traced_run, out)
        before = tree_bytes(out)
        interrupt_at_round(monkeypatch, 2)
        with pytest.raises(KeyboardInterrupt):
            main(["train", "-c", DECOMPOSE, "--out", str(out), "--trace", "--force"])
        assert tree_bytes(out) == before
        assert sorted(p.name for p in out.iterdir()) == ["replica_00"]

    def test_stale_files_at_staged_names_cleared(self, traced_run, tmp_path):
        out = tmp_path / "runs"
        rdir = out / "replica_00"
        (rdir / ".metrics.csv.staging").mkdir(parents=True)
        (rdir / ".metrics.csv.staging" / "left.txt").write_text("stale\n")
        (rdir / "traces").mkdir()
        (rdir / "traces" / ".round_00001.npz.staging").write_bytes(b"stale")
        (rdir / ".checkpoint.fms.staging").symlink_to(tmp_path / "elsewhere.fms")
        assert main(["train", "-c", DECOMPOSE, "--out", str(out), "--trace"]) == 0
        assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".staging")]
        assert not (tmp_path / "elsewhere.fms").exists()
        got, want = tree_bytes(rdir), tree_bytes(traced_run / "replica_00")
        assert {p.relative_to(rdir): b for p, b in got.items() if p.name != "timings.csv"} == {
            p.relative_to(traced_run / "replica_00"): b
            for p, b in want.items() if p.name != "timings.csv"
        }

    def test_force_replaces_trace_set(self, tmp_path, capsys):
        out = tmp_path / "runs"
        longer = config_variant(
            tmp_path, "longer.ini", (("rounds = 3", "rounds = 4"),), base=DECOMPOSE
        )
        assert main(["train", "-c", str(longer), "--out", str(out), "--trace"]) == 0
        notes = out / "replica_00" / "traces" / "notes.txt"
        notes.write_text("kept\n")
        assert main(["train", "-c", DECOMPOSE, "--out", str(out), "--trace", "--force"]) == 0
        traces = sorted(p.name for p in (out / "replica_00" / "traces").glob("*.npz"))
        assert traces == [f"round_{r:05d}.npz" for r in range(3)]
        assert notes.read_text() == "kept\n"
        capsys.readouterr()
        rc = main(["decompose", "-c", DECOMPOSE, "--run-dir", str(out / "replica_00"),
                   "--round", "3"])
        assert rc == 1
        assert one_error_line(capsys) == (
            f"error: no round 3 in {out / 'replica_00'}: its last round is 2"
        )

    def test_force_replaces_checkpoint_set(self, tmp_path):
        out = tmp_path / "runs"
        for every in (4, 6):
            config = config_variant(tmp_path, f"ckpt{every}.ini", (
                ("[run]\n", f"[run]\ncheckpoint_every = {every}\n"),
            ))
            assert main(["train", "-c", str(config), "--out", str(out),
                         "--replicas", "1", "--force"]) == 0
        names = sorted(p.name for p in (out / "replica_00").iterdir())
        assert names == ["checkpoint.fms", "ckpt_00006.fms", "ckpt_00012.fms",
                         "manifest.txt", "metrics.csv", "timings.csv"]

    def test_periodic_checkpoint_equals_shorter_run(self, tmp_path):
        out = tmp_path / "runs"
        config = config_variant(
            tmp_path, "ckpt.ini", (("[run]\n", "[run]\ncheckpoint_every = 4\n"),)
        )
        assert main(["train", "-c", str(config), "--out", str(out), "--replicas", "1"]) == 0
        short = tmp_path / "short"
        config = config_variant(tmp_path, "short.ini", (
            ("rounds = 4", "rounds = 0"), ("rounds = 8", "rounds = 4"),
        ))
        assert main(["train", "-c", str(config), "--out", str(short), "--replicas", "1"]) == 0
        rdir = out / "replica_00"
        assert (rdir / "ckpt_00004.fms").read_bytes() == (
            short / "replica_00" / "checkpoint.fms"
        ).read_bytes()
        assert (rdir / "ckpt_00012.fms").read_bytes() == (rdir / "checkpoint.fms").read_bytes()

    def test_traced_memory_does_not_grow_with_rounds(self, tmp_path):
        # One round of configs/decompose.ini holds 3 clients' 4 step
        # gradients and deltas of 212 float64 parameters, about 25 kB.
        round_bytes = 3 * (4 + 1) * 212 * 8

        def peak(rounds):
            config = config_variant(tmp_path, f"r{rounds}.ini", (
                ("rounds = 3", f"rounds = {rounds}"),
            ), base=DECOMPOSE)
            gc.collect()  # so an earlier run's reference cycles are not freed mid-run
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            argv = ["train", "-c", str(config), "--out", str(tmp_path / f"runs{rounds}"),
                    "--trace"]
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1] - start

        tracemalloc.start()
        try:
            peak(2)  # warm-up: imports and caches
            short, long = peak(4), peak(32)
        finally:
            tracemalloc.stop()
        assert long - short < 3 * round_bytes, (short, long)

    def test_fedavg_only_mode_marked(self, traced_run):
        manifest = (traced_run / "replica_00" / "manifest.txt").read_text()
        assert "mode=fedavg-only" in manifest
        assert "stage2=none" in manifest

    def test_nonfinite_gradient_names_replica_client_and_round(self, tmp_path, capsys):
        config = diverging_config(tmp_path)
        rc = main(["train", "-c", str(config), "--out", str(tmp_path / "runs")])
        err = one_error_line(capsys)
        assert rc == 1
        assert err.startswith("error: replica 0 (seed 7): client ")
        assert " at step " in err and " in round " in err

    def test_diverged_replica_leaves_no_directory(self, tmp_path, capsys):
        out = tmp_path / "runs"
        rc = main(["train", "-c", str(diverging_config(tmp_path)), "--out", str(out)])
        capsys.readouterr()
        assert rc == 1
        assert not (out / "replica_00").exists()

    def test_missing_config_fails(self, tmp_path, capsys):
        config = tmp_path / "nope.ini"
        rc = main(["train", "-c", str(config), "--out", str(tmp_path)])
        assert rc == 1
        assert one_error_line(capsys) == f"error: config file not found: {config}"

    @pytest.mark.parametrize("make, problem", [
        (lambda path: path.write_bytes(b"[run]\nseed = \xff\n"),
         "{} is not UTF-8: invalid start byte at byte offset 13"),
        (lambda path: path.mkdir(), "config {} is a directory, not a file"),
    ], ids=["not-utf8", "directory"])
    def test_unreadable_config_is_one_error_line(self, tmp_path, capsys, make, problem):
        config = tmp_path / "bad.ini"
        make(config)
        out = tmp_path / "runs"
        assert main(["train", "-c", str(config), "--out", str(out)]) == 1
        assert one_error_line(capsys) == "error: " + problem.format(config)
        assert not out.exists()

    def test_seed_and_replicas_flags_leave_config_values(self, tmp_path, monkeypatch, capsys):
        """``--seed`` and ``--replicas`` are read beside the config, not
        written into it, as ``personalize`` reads ``--seed``."""
        loaded = []

        def load(path):
            loaded.append(load_config(path))
            return loaded[-1]

        monkeypatch.setattr(cli, "load_config", load)
        out = tmp_path / "runs"
        assert main(["train", "-c", SMOKE, "--out", str(out), "--seed", "20",
                     "--replicas", "2"]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in out.iterdir()) == ["replica_00", "replica_01"]
        assert "seed=21" in (out / "replica_01" / "manifest.txt").read_text()
        assert loaded[0].values == load_config(SMOKE).values

    @pytest.mark.parametrize("replacement, message", [
        (("server.kind = adam", "server.kind = adamw"), "unknown server optimizer 'adamw'"),
        (("server.lr = 0.01", "server.lr = 0.01\nserver.adam_beta1 = 1.0"), "beta1"),
        (("server.lr = 0.01", "server.lr = 0.01\nserver.adam_beta2 = 1.5"), "beta2"),
        (("server.lr = 0.01", "server.lr = 0.01\nserver.adam_eps = -1"), "eps"),
    ], ids=["kind", "beta1", "beta2", "eps"])
    def test_bad_server_config_rejected_before_training(
        self, tmp_path, capsys, monkeypatch, replacement, message
    ):
        config = config_variant(tmp_path, "server.ini", (replacement,))
        monkeypatch.setattr(federation, "run_round", must_not_run("run_round"))
        out = tmp_path / "runs"
        assert main(["train", "-c", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [stage2] ")
        assert message in err
        assert not out.exists()


class TestReport:
    def run_dirs(self, root):
        return [str(root / f"replica_{i:02d}") for i in range(3)]

    def test_report_matches_golden(self, smoke_run, tmp_path, capsys):
        out = tmp_path / "report"
        rc = main(["report", *self.run_dirs(smoke_run), "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        assert (out / "report.txt").read_bytes() == GOLDEN.read_bytes()

    def test_run_dir_without_metrics_refused(self, smoke_run, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "report"
        rc = main(["report", *self.run_dirs(smoke_run), str(empty), "--out", str(out)])
        assert rc == 1
        assert one_error_line(capsys) == f"error: no metrics.csv in {empty}"
        assert not out.exists()

    def test_report_csv_emitted(self, smoke_run, tmp_path, capsys):
        out = tmp_path / "report"
        main(["report", *self.run_dirs(smoke_run), "--out", str(out)])
        capsys.readouterr()
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1].startswith("round,")

    def test_single_run_zero_std(self, smoke_run, capsys):
        rc = main(["report", self.run_dirs(smoke_run)[0]])
        assert rc == 0
        text = capsys.readouterr().out
        assert "(0.0000)" in text

    def test_duplicate_replicas_refused(self, smoke_run, capsys):
        dirs = self.run_dirs(smoke_run)
        rc = main(["report", dirs[0], dirs[1], dirs[0]])
        assert rc == 1
        assert "duplicate replicas: seeds [7, 8, 7]" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["x7,0.1,0.1,0.1,0.1", "7,0.1"], ids=["round", "columns"])
    def test_malformed_row_is_parse_error(self, smoke_run, tmp_path, capsys, row):
        rdir = tmp_path / "replica_00"
        shutil.copytree(smoke_run / "replica_00", rdir)
        metrics = rdir / "metrics.csv"
        lines = metrics.read_text().splitlines()
        lines[4] = row
        metrics.write_text("\n".join(lines) + "\n")
        rc = main(["report", str(rdir)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {metrics}, line 5: malformed ")

    def test_undecodable_metrics_is_parse_error(self, smoke_run, tmp_path, capsys):
        rdir = tmp_path / "replica_00"
        shutil.copytree(smoke_run / "replica_00", rdir)
        metrics = rdir / "metrics.csv"
        text = metrics.read_bytes()
        metrics.write_bytes(text + b"\xff\n")
        assert main(["report", str(rdir)]) == 1
        assert one_error_line(capsys) == (
            f"error: {metrics} is not UTF-8: invalid start byte at byte offset {len(text)}"
        )

    @pytest.mark.parametrize("header", ["# config_hash=", "# seed="])
    def test_missing_header_line_is_parse_error(self, smoke_run, tmp_path, capsys, header):
        dirs = []
        for i in range(2):
            rdir = tmp_path / f"replica_{i:02d}"
            shutil.copytree(smoke_run / f"replica_{i:02d}", rdir)
            metrics = rdir / "metrics.csv"
            lines = metrics.read_text().splitlines()
            metrics.write_text("\n".join(l for l in lines if not l.startswith(header)) + "\n")
            dirs.append(str(rdir))
        rc = main(["report", *dirs])
        assert rc == 1
        captured = capsys.readouterr()
        first = tmp_path / "replica_00" / "metrics.csv"
        assert captured.err == f"error: {first} has no '{header}' line\n"
        assert captured.out == ""

    def test_mixed_configs_refused(self, smoke_run, traced_run, capsys):
        rc = main(["report", self.run_dirs(smoke_run)[0], str(traced_run / "replica_00")])
        assert rc == 1
        assert "different configs" in capsys.readouterr().err

    @FORCE
    def test_out_under_a_file_refused_before_reading_runs(
        self, smoke_run, tmp_path, capsys, monkeypatch, force
    ):
        monkeypatch.setattr(cli, "_load_metrics", must_not_run("_load_metrics"))
        blocker = tmp_path / "report"
        blocker.write_text("not a directory\n")
        refused_wrong_kind(
            ["report", *self.run_dirs(smoke_run), "--out", str(blocker), *force], blocker, capsys
        )

    def test_existing_report_refused_before_reading_runs(
        self, smoke_run, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "_load_metrics", must_not_run("_load_metrics"))
        out = tmp_path / "report"
        out.mkdir()
        (out / "report.csv").write_text("earlier report\n")
        refused_without_change(
            ["report", *self.run_dirs(smoke_run), "--out", str(out)], out, capsys
        )


class TestPersonalize:
    @FORCE
    def test_out_under_a_file_refused_before_evaluation(
        self, smoke_run, tmp_path, capsys, monkeypatch, force
    ):
        monkeypatch.setattr(cli, "eval_population", must_not_run("eval_population"))
        blocker = tmp_path / "pers"
        blocker.write_text("not a directory\n")
        refused_wrong_kind([
            "personalize", "-c", SMOKE, "--checkpoint",
            str(smoke_run / "replica_00" / "checkpoint.fms"), "--out", str(blocker), *force,
        ], blocker, capsys)

    def test_existing_report_refused_before_evaluation(
        self, smoke_run, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "eval_population", must_not_run("eval_population"))
        out = tmp_path / "pers"
        out.mkdir()
        (out / "report.csv").write_text("earlier report\n")
        refused_without_change([
            "personalize", "-c", SMOKE,
            "--checkpoint", str(smoke_run / "replica_00" / "checkpoint.fms"), "--out", str(out),
        ], out, capsys)

    def test_report_and_summary(self, smoke_run, tmp_path, capsys):
        ckpt = smoke_run / "replica_00" / "checkpoint.fms"
        out = tmp_path / "pers"
        rc = main([
            "personalize", "-c", SMOKE, "--checkpoint", str(ckpt), "--out", str(out)
        ])
        assert rc == 0
        capsys.readouterr()
        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 <= summary["mean_personalized_acc"] <= 1.0
        assert summary["population"] == "eval_clients"
        lines = (out / "report.csv").read_text().splitlines()
        header = lines[2]
        assert header == "client_id,n_train,n_test,initial_acc,personalized_acc,diverged"
        assert len(lines) == 3 + summary["clients"]

    def test_sweep_rows(self, smoke_run, tmp_path, capsys):
        ckpt = smoke_run / "replica_00" / "checkpoint.fms"
        out = tmp_path / "sweep"
        rc = main([
            "personalize", "-c", SMOKE, "--checkpoint", str(ckpt),
            "--out", str(out), "--sweep-epochs", "3",
        ])
        assert rc == 0
        capsys.readouterr()
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "optimizer,epochs,mean_personalized_acc"
        # two optimizers (configured sgd + default adam), three epochs each
        assert len(lines) == 1 + 6
        epochs = [int(l.split(",")[1]) for l in lines[1:4]]
        assert epochs == [1, 2, 3]

    def test_missing_checkpoint_no_partial_files(self, smoke_run, tmp_path, capsys):
        out = tmp_path / "missing"
        rc = main([
            "personalize", "-c", SMOKE, "--checkpoint", str(tmp_path / "no.fms"),
            "--out", str(out),
        ])
        assert rc == 1
        assert not out.exists()

    def test_out_of_range_run_value_refused_before_evaluation(
        self, smoke_run, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "eval_population", must_not_run("eval_population"))
        out = tmp_path / "pers"
        rc = main([
            "personalize", "-c", str(config_with(tmp_path, "run", "checkpoint_every", "-1")),
            "--checkpoint", str(smoke_run / "replica_00" / "checkpoint.fms"), "--out", str(out),
        ])
        assert rc == 1
        assert one_error_line(capsys) == (
            "error: [run] checkpoint_every = '-1': expected int in [0, inf]"
        )
        assert not out.exists()

    def test_empty_population_named_before_evaluation(
        self, smoke_run, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "eval_population", must_not_run("eval_population"))
        out = tmp_path / "pers"
        rc = main([
            "personalize", "-c", str(config_with(tmp_path, "dataset", "eval_fraction", "0")),
            "--checkpoint", str(smoke_run / "replica_00" / "checkpoint.fms"), "--out", str(out),
        ])
        assert rc == 1
        assert one_error_line(capsys) == "error: no clients in population 'eval_clients'"
        assert not out.exists()

    def test_spec_mismatch_rejected(self, traced_run, tmp_path, capsys):
        # decompose config has a different model spec than smoke
        ckpt = traced_run / "replica_00" / "checkpoint.fms"
        rc = main([
            "personalize", "-c", SMOKE, "--checkpoint", str(ckpt),
            "--out", str(tmp_path / "x"),
        ])
        assert rc == 1
        assert "does not match" in capsys.readouterr().err


class TestDecompose:
    def damaged_copy(self, traced_run, tmp_path):
        """A copy of the traced replica and the path of its round-1 trace."""
        rdir = tmp_path / "damaged"
        shutil.copytree(traced_run / "replica_00", rdir)
        return rdir, rdir / "traces" / "round_00001.npz"

    def test_residual_within_gate(self, traced_run, capsys):
        rc = main([
            "decompose", "-c", DECOMPOSE, "--run-dir",
            str(traced_run / "replica_00"), "--round", "1",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "residual_norm=" in out
        residual = float(out.split("residual_norm=")[1].split()[0])
        assert residual <= 1e-10

    def test_single_step_round_lists_no_adapted_terms(self, traced_run, capsys):
        out_text = None
        rc = main([
            "decompose", "-c", DECOMPOSE, "--run-dir",
            str(traced_run / "replica_00"), "--round", "0",
        ])
        out_text = capsys.readouterr().out
        assert rc == 0
        assert "norm_fomaml_3" in out_text  # K=4 round has terms 1..3

    def test_trace_carries_its_stage_step_size(self, tmp_path, capsys):
        out = tmp_path / "runs"
        config = config_variant(tmp_path, "beta.ini", (
            ("client.steps = 2\nclient.lr = 0.05", "client.steps = 2\nclient.lr = 0.03"),
        ))
        assert main(["train", "-c", str(config), "--out", str(out), "--replicas", "1",
                     "--trace"]) == 0
        rdir = out / "replica_00"
        betas = [_load_trace(cli._trace_path(rdir, r)).beta for r in range(12)]
        assert betas == [0.05] * 8 + [0.03] * 4
        for r in range(12):
            assert main(["decompose", "-c", str(config), "--run-dir", str(rdir),
                         "--round", str(r)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("damage", ["other-config", "no-manifest"])
    def test_run_of_another_config_refused_before_output(
        self, traced_run, tmp_path, capsys, damage
    ):
        rdir, _ = self.damaged_copy(traced_run, tmp_path)
        if damage == "other-config":
            config = SMOKE
            expected = (
                "error: refusing to decompose a run of another config: "
                f"{rdir / 'manifest.txt'} does not record "
                f"config_hash={load_config(SMOKE).hash} of {SMOKE}"
            )
        else:
            config = DECOMPOSE
            (rdir / "manifest.txt").unlink()
            expected = f"error: no manifest.txt in {rdir}"
        out = tmp_path / "round_1.txt"
        rc = main(["decompose", "-c", config, "--run-dir", str(rdir), "--round", "1",
                   "--out", str(out)])
        assert rc == 1
        assert one_error_line(capsys) == expected
        assert not out.exists()

    def test_fomaml_round_refused_before_output(self, tmp_path, capsys):
        config = config_variant(tmp_path, "fomaml.ini", (
            ("rounds = 3", "rounds = 1"), ("algorithm = reptile", "algorithm = fomaml"),
        ), base=DECOMPOSE)
        runs = tmp_path / "runs"
        assert main(["train", "-c", str(config), "--out", str(runs), "--trace"]) == 0
        capsys.readouterr()
        out = tmp_path / "round_0.txt"
        rc = main(["decompose", "-c", str(config), "--run-dir", str(runs / "replica_00"),
                   "--round", "0", "--out", str(out)])
        assert rc == 1
        assert one_error_line(capsys) == (
            "error: round 0 is a fomaml round, whose update is -beta times its last "
            "gradient, not a sum of its steps, so it does not decompose"
        )
        assert not out.exists()

    def test_untraced_run_explains_tracing(self, smoke_run, capsys):
        rc = main([
            "decompose", "-c", SMOKE, "--run-dir",
            str(smoke_run / "replica_00"), "--round", "1",
        ])
        assert rc == 1
        line = one_error_line(capsys)
        assert line.startswith("error: no trace at ") and "--trace" in line

    def test_report_file_written(self, traced_run, tmp_path, capsys):
        target = tmp_path / "decomp.txt"
        rc = main([
            "decompose", "-c", DECOMPOSE, "--run-dir",
            str(traced_run / "replica_00"), "--round", "2", "--out", str(target),
        ])
        capsys.readouterr()
        assert rc == 0
        assert target.read_text().startswith("# config_hash=")

    def test_existing_output_refused_before_loading(
        self, traced_run, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "_load_trace", must_not_run("_load_trace"))
        out = tmp_path / "round_1.txt"
        out.write_text("earlier decomposition\n")
        refused_without_change([
            "decompose", "-c", DECOMPOSE, "--run-dir", str(traced_run / "replica_00"),
            "--round", "1", "--out", str(out),
        ], tmp_path, capsys)

    @FORCE
    def test_out_that_is_a_directory_refused_before_loading(
        self, traced_run, tmp_path, capsys, monkeypatch, force
    ):
        monkeypatch.setattr(cli, "_load_trace", must_not_run("_load_trace"))
        blocker = tmp_path / "round_1.txt"
        blocker.mkdir()
        (blocker / "inside.txt").write_text("kept\n")
        refused_wrong_kind([
            "decompose", "-c", DECOMPOSE, "--run-dir", str(traced_run / "replica_00"),
            "--round", "1", "--out", str(blocker), *force,
        ], blocker, capsys)

    def test_failed_write_keeps_existing_output(self, traced_run, tmp_path, monkeypatch, capsys):
        out = tmp_path / "round_1.txt"
        out.write_text("earlier decomposition\n")
        write_text = Path.write_text

        def half_then_fail(self, text):
            write_text(self, text[: len(text) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", half_then_fail)
        rc = main(["decompose", "-c", DECOMPOSE, "--run-dir", str(traced_run / "replica_00"),
                   "--round", "1", "--out", str(out), "--force"])
        monkeypatch.undo()
        assert rc == 1
        assert one_error_line(capsys) == "error: disk full"
        assert out.read_text() == "earlier decomposition\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_residual_gate_fails_corrupted_trace(self, traced_run, tmp_path, capsys):
        rdir, path = self.damaged_copy(traced_run, tmp_path)
        with np.load(path) as data:
            arrays = {k: data[k].copy() for k in data.files}
        arrays["aggregate"] = arrays["aggregate"] + 1e-6
        np.savez(path, **arrays)
        rc = main(["decompose", "-c", DECOMPOSE, "--run-dir", str(rdir), "--round", "1"])
        assert rc == 1
        line = one_error_line(capsys)
        assert line.startswith("error: residual ") and line.endswith(" exceeds 1e-08")


    @pytest.mark.parametrize("damage", ["round", "beta"])
    def test_trace_of_another_round_or_step_size_refused_before_output(
        self, traced_run, tmp_path, capsys, damage
    ):
        rdir, path = self.damaged_copy(traced_run, tmp_path)
        if damage == "round":  # round 0's trace under round 1's name
            shutil.copyfile(rdir / "traces" / "round_00000.npz", path)
            recorded = "round 0 with beta=0.05"
        else:
            with np.load(path) as data:
                arrays = {k: data[k].copy() for k in data.files}
            arrays["beta"] = np.array(0.05000000000000001)
            np.savez(path, **arrays)
            recorded = "round 1 with beta=0.05000000000000001"
        out = tmp_path / "round_1.txt"
        rc = main(["decompose", "-c", DECOMPOSE, "--run-dir", str(rdir), "--round", "1",
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == (
            f"error: refusing to decompose {path}: it records {recorded}, "
            "not round 1 with [stage1] client.lr=0.05\n"
        )
        assert not out.exists()

    def test_truncated_trace_is_parse_error(self, traced_run, tmp_path, capsys):
        rdir, path = self.damaged_copy(traced_run, tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        rc = main(["decompose", "-c", DECOMPOSE, "--run-dir", str(rdir), "--round", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: damaged trace {path}: ")

    def test_missing_member_is_parse_error(self, traced_run, tmp_path, capsys):
        rdir, path = self.damaged_copy(traced_run, tmp_path)
        with np.load(path) as data:
            arrays = {k: data[k].copy() for k in data.files if k != "grads_2"}
        np.savez(path, **arrays)
        rc = main(["decompose", "-c", DECOMPOSE, "--run-dir", str(rdir), "--round", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: damaged trace {path}: ")
        assert "grads_2" in err

    @pytest.mark.parametrize("damage, named", [
        ("round_index", "round_index"),  # two elements, not 0-d
        ("beta", "beta"),
        ("aggregate", "deltas"),  # one column short, so P no longer fits deltas
        ("grads_0", "grads_0"),
        ("client_ids", "weights"),  # 2 of 3 ids, so M no longer fits weights
        ("deltas", "deltas"),
    ])
    def test_misshaped_member_is_parse_error(self, traced_run, tmp_path, capsys, damage, named):
        rdir, path = self.damaged_copy(traced_run, tmp_path)
        with np.load(path) as data:
            arrays = {k: data[k].copy() for k in data.files}
        array = arrays[damage]
        if array.ndim == 0:
            arrays[damage] = np.stack([array, array])
        elif damage == "client_ids":
            arrays[damage] = array[:2]
        else:
            arrays[damage] = array[..., :-1]
        np.savez(path, **arrays)
        rc = main(["decompose", "-c", DECOMPOSE, "--run-dir", str(rdir), "--round", "1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith(f"error: damaged trace {path}: {named}: shape ")
        assert captured.out == ""

    def test_encrypted_member_is_parse_error(self, traced_run, tmp_path, capsys):
        rdir, path = self.damaged_copy(traced_run, tmp_path)
        blob = bytearray(path.read_bytes())
        blob[struct.unpack_from("<L", blob, len(blob) - 6)[0] + 8] |= 0x01  # the first entry's
        path.write_bytes(blob)
        rc = main(["decompose", "-c", DECOMPOSE, "--run-dir", str(rdir), "--round", "1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == (
            f"error: damaged trace {path}: round_index.npy: not a stored, unencrypted member "
            "within the directory\n"
        )

    @pytest.mark.parametrize("name", ["deltas", "weights", "grads_2"])
    def test_member_without_npy_magic_is_parse_error(
        self, traced_run, tmp_path, capsys, name
    ):
        rdir, path = self.damaged_copy(traced_run, tmp_path)
        replace_member(path, name, bytes(64))
        rc = main(["decompose", "-c", DECOMPOSE, "--run-dir", str(rdir), "--round", "1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith(f"error: damaged trace {path}: {name}: ")
        assert "magic" in captured.err
        assert captured.out == ""


def unequal_traced_round(algorithm="fedavg"):
    """A traced round over four clients of different sizes. Epoch-counted
    fedavg gives distinct deltas, data-proportional weights and unequal step
    counts; reptile and fomaml take 3 steps (fomaml one more) at uniform
    weights."""
    rng = np.random.default_rng(3)
    clients = {
        cid: make_client(rng, n_train=n, n_test=4)
        for cid, n in enumerate((7, 12, 20, 31))
    }
    ds = FederatedDataset(
        clients=clients,
        train_client_ids=tuple(clients),
        eval_client_ids=(),
        input_dim=4,
        num_classes=3,
    )
    spec = ModelSpec(4, (5, 3))
    local = {"epochs": 1} if algorithm == "fedavg" else {"steps": 3}
    cfg = RoundConfig(algorithm, 4, ClientOptimizerConfig(0.05, 5), **local)
    server = ServerOptimizerState("sgd", lr=1.0)
    params = init_params(spec, substream(3, "init"))
    _, _, trace = run_round(spec, params, ds, cfg, server, 6, 3, trace=True)
    return trace


def trace_members(trace):
    """The arrays of ``trace`` by member name, as ``np.savez`` is given them."""
    return {
        "round_index": np.array(trace.round_index),
        "client_ids": np.array(trace.client_ids),
        "aggregate": trace.aggregate,
        "weights": trace.weights,
        "deltas": trace.deltas,
        "beta": np.array(trace.beta),
        **{f"grads_{i}": g for i, g in enumerate(trace.step_gradients)},
    }


def assert_same_trace(loaded, trace):
    """Every member of ``loaded`` holds the bytes, dtype and shape of ``trace``'s."""
    got, want = trace_members(loaded), trace_members(trace)
    assert got.keys() == want.keys()
    for name, array in want.items():
        assert got[name].dtype == array.dtype and got[name].shape == array.shape, name
        assert got[name].tobytes() == array.tobytes(), name


@functools.cache
def saved_unequal_trace():
    """``unequal_traced_round()`` and its trace file's bytes, as ``np.savez``
    writes them (``_save_trace`` writes the same)."""
    trace = unequal_traced_round()
    buf = io.BytesIO()
    np.savez(buf, **trace_members(trace))
    return trace, buf.getvalue()


class TestTraceFile:
    def test_round_trip_is_exact(self, tmp_path):
        trace = unequal_traced_round()
        assert len({len(g) for g in trace.step_gradients}) == 4
        assert len(set(trace.weights.tolist())) == 4
        path = tmp_path / "round.npz"
        _save_trace(path, trace)
        loaded = _load_trace(path)
        assert loaded.beta == trace.beta == 0.05
        assert loaded.round_index == trace.round_index
        assert loaded.client_ids == trace.client_ids
        assert np.array_equal(loaded.aggregate, trace.aggregate)
        assert np.array_equal(loaded.weights, trace.weights)
        assert np.array_equal(loaded.deltas, trace.deltas)
        assert len(loaded.step_gradients) == len(trace.step_gradients)
        for got, want in zip(loaded.step_gradients, trace.step_gradients):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("algorithm", ["fedavg", "reptile", "fomaml"])
    def test_resave_reproduces_file(self, tmp_path, algorithm):
        trace = unequal_traced_round(algorithm)
        path, again = tmp_path / "round.npz", tmp_path / "again.npz"
        _save_trace(path, trace)
        _save_trace(again, _load_trace(path))
        assert again.read_bytes() == path.read_bytes()

    def test_load_reads_each_member_once(self, tmp_path, monkeypatch):
        path, trace = self.saved(tmp_path)
        crcs, parses = [], []
        crc32, npy_array = zlib.crc32, cli._npy_array

        def counting_crc(blob, *args):
            crcs.append(len(blob))
            return crc32(blob, *args)

        def counting_parse(name, blob):
            parses.append(name)
            return npy_array(name, blob)

        monkeypatch.setattr(zlib, "crc32", counting_crc)
        monkeypatch.setattr(cli, "_npy_array", counting_parse)
        _load_trace(path)
        members = 6 + len(trace.client_ids)
        assert len(crcs) == len(parses) == members
        assert len(set(parses)) == members

    def saved(self, tmp_path):
        """The path of a saved ``unequal_traced_round`` trace, and the trace."""
        trace = unequal_traced_round()
        path = tmp_path / "round.npz"
        _save_trace(path, trace)
        return path, trace

    def test_flipped_data_byte_is_parse_error(self, tmp_path):
        path, _ = self.saved(tmp_path)
        blob = bytearray(path.read_bytes())
        with zipfile.ZipFile(path) as archive:
            info = archive.getinfo("aggregate.npy")
        name_len, extra_len = struct.unpack_from("<HH", blob, info.header_offset + 26)
        data_end = info.header_offset + 30 + name_len + extra_len + info.compress_size
        blob[data_end - 1] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="CRC"):
            _load_trace(path)

    def test_header_declaring_more_rows_is_parse_error(self, tmp_path):
        path, trace = self.saved(tmp_path)
        deltas = trace.deltas
        buf = io.BytesIO()
        np.lib.format.write_array_header_1_0(buf, {
            "descr": "<f8", "fortran_order": False,
            "shape": (deltas.shape[0] + 1, deltas.shape[1]),
        })
        replace_member(path, "deltas", buf.getvalue() + deltas.tobytes())
        with pytest.raises(ParseError, match="deltas"):
            _load_trace(path)

    def test_object_dtype_member_is_parse_error(self, tmp_path):
        path, trace = self.saved(tmp_path)
        buf = io.BytesIO()
        np.save(buf, np.array([1.0, None, 2.0, 3.0], dtype=object), allow_pickle=True)
        replace_member(path, "weights", buf.getvalue())
        with pytest.raises(ParseError, match="weights"):
            _load_trace(path)

    def test_npy_version_other_than_1_0_is_parse_error(self, tmp_path):
        path, trace = self.saved(tmp_path)
        buf = io.BytesIO()
        np.lib.format.write_array(buf, trace.weights, version=(2, 0))
        replace_member(path, "weights", buf.getvalue())
        with pytest.raises(ParseError) as err:
            _load_trace(path)
        assert str(err.value) == (
            f"damaged trace {path}: weights: unsupported .npy version (2, 0)"
        )

    @pytest.mark.parametrize("limit, count", [
        (0, 0),  # every size, offset and count (the first member's offset is 0)
        (2600, 65535),  # the offsets of beta and the grads_i, and the directory's (9199)
        (9000, 65535),  # the directory's offset alone
        (10**6, 9),  # the member count (10) alone
        (10**6, 10),  # nothing
    ])
    def test_bytes_equal_savez_past_zip64_limits(self, tmp_path, monkeypatch, limit, count):
        """Past zipfile's ZIP64_LIMIT bytes or ZIP_FILECOUNT_LIMIT members,
        np.savez records sizes, offsets and counts in zip64 fields; the
        limits are lowered here so that a small trace crosses them."""
        trace = unequal_traced_round()
        for module in (zipfile, cli):
            prefix = "_" if module is cli else ""
            monkeypatch.setattr(module, f"{prefix}ZIP64_LIMIT", limit)
            monkeypatch.setattr(module, f"{prefix}ZIP_FILECOUNT_LIMIT", count)
        path = tmp_path / "round.npz"
        _save_trace(path, trace)
        reference = io.BytesIO()
        np.savez(reference, **trace_members(trace))
        assert path.read_bytes() == reference.getvalue()
        assert_same_trace(_load_trace(path), trace)

    @pytest.mark.parametrize("damage", ["end64 signature", "directory offset", "zip64 tag"])
    def test_damaged_zip64_record_is_parse_error(self, tmp_path, monkeypatch, damage):
        """A trace written with every size, offset and count in zip64 fields,
        then one of those records damaged."""
        monkeypatch.setattr(cli, "_ZIP64_LIMIT", 0)
        monkeypatch.setattr(cli, "_ZIP_FILECOUNT_LIMIT", 0)
        path, _ = self.saved(tmp_path)
        blob = bytearray(path.read_bytes())
        end64 = len(blob) - cli._END.size - cli._LOCATOR.size - cli._END64.size
        size, start = cli._END64.unpack_from(blob, end64)[8:10]
        if damage == "end64 signature":
            blob[end64 + 3] ^= 0x01
            message = "no zip64 end of central directory record before its locator"
        elif damage == "directory offset":
            struct.pack_into("<Q", blob, end64 + 48, start + 1)  # the record's last field
            message = f"central directory of {size} bytes at {start + 1} does not end at {end64}"
        else:  # the first entry's extra field: tag 1 holds the zip64 values
            extra_at = start + cli._CENTRAL.size + len(b"round_index.npy")
            assert struct.unpack_from("<H", blob, extra_at) == (1,)
            struct.pack_into("<H", blob, extra_at, 2)
            message = "round_index.npy: no zip64 field for its sizes and offset"
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError) as err:
            _load_trace(path)
        assert str(err.value) == f"damaged trace {path}: {message}"

    @pytest.mark.parametrize("name", ["round_index", "beta"])
    def test_complex_scalar_is_parse_error(self, tmp_path, name):
        trace = unequal_traced_round()
        members = trace_members(trace)
        members[name] = np.array(1 + 2j)
        path = tmp_path / "round.npz"
        np.savez(path, **members)
        with pytest.raises(ParseError, match=f"damaged trace {re.escape(str(path))}: "):
            _load_trace(path)

    @pytest.mark.parametrize("name, value, dtype", [
        ("client_ids", lambda ids: np.array(ids, dtype=np.float64) + 0.5, "float64"),
        ("round_index", lambda _: np.array(2.0**70), "float64"),
        ("client_ids", lambda ids: np.array(ids, dtype=np.int32), "int32"),
        ("weights", lambda w: w.astype(np.float32), "float32"),
        ("beta", lambda b: np.array(b).astype(">f8"), ">f8"),
        ("grads_1", lambda g: g.astype(np.int64), "int64"),
    ])
    def test_member_of_another_dtype_is_parse_error(self, tmp_path, name, value, dtype):
        """A member of another dtype is refused, not read as a number it does not hold."""
        members = trace_members(unequal_traced_round())
        members[name] = value(members[name])
        path = tmp_path / "round.npz"
        np.savez(path, **members)
        expected = "int64" if name in ("round_index", "client_ids") else "float64"
        with pytest.raises(ParseError) as err:
            _load_trace(path)
        assert str(err.value) == f"damaged trace {path}: {name}: dtype {dtype}, expected {expected}"

    def test_loaded_arrays_are_read_only(self, tmp_path):
        path, _ = self.saved(tmp_path)
        loaded = _load_trace(path)
        arrays = [loaded.aggregate, loaded.weights, loaded.deltas, *loaded.step_gradients]
        assert not any(a.flags.writeable for a in arrays)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bytes_equal_savez(self, tmp_path_factory, data):
        value = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(width=64))
        m = data.draw(st.integers(1, 6))
        p = data.draw(st.integers(1, 40))
        steps = data.draw(st.lists(st.integers(1, 6), min_size=m, max_size=m))
        trace = RoundTrace(
            round_index=data.draw(st.integers(0, 10**6)),
            client_ids=sorted(data.draw(st.sets(st.integers(0, 10**4), min_size=m, max_size=m))),
            weights=data.draw(hnp.arrays(np.float64, m, elements=value)),
            deltas=data.draw(hnp.arrays(np.float64, (m, p), elements=value)),
            aggregate=data.draw(hnp.arrays(np.float64, p, elements=value)),
            beta=data.draw(value),
            step_gradients=[
                data.draw(hnp.arrays(np.float64, (k, p), elements=value)) for k in steps
            ],
        )
        members = trace_members(trace)
        path = tmp_path_factory.mktemp("trace") / "round.npz"
        _save_trace(path, trace)
        reference = io.BytesIO()
        np.savez(reference, **members)
        assert path.read_bytes() == reference.getvalue()
        with np.load(path) as archive:
            assert archive.files == list(members)
            for name, array in members.items():
                assert archive[name].dtype == array.dtype
                assert archive[name].shape == array.shape
                assert archive[name].tobytes() == array.tobytes()
        assert_same_trace(_load_trace(path), trace)

    @settings(max_examples=300, deadline=None)
    @given(at=st.integers(0, 2**14), from_directory=st.booleans(), mask=st.integers(0, 255))
    @example(at=8, from_directory=True, mask=0x01)  # the first directory entry's encrypted flag
    @example(at=6, from_directory=True, mask=0x80)  # its version to extract: 45 becomes 173
    def test_damaged_file_loads_unchanged_or_is_parse_error(
        self, tmp_path_factory, at, from_directory, mask
    ):
        """A trace file with one byte flipped by ``mask``, or cut at that
        byte when ``mask`` is 0, loads the saved arrays or is refused with a
        ParseError. The byte is ``at`` past the start of the file or of the
        central directory (modulo the file's length); the two examples made
        zipfile raise RuntimeError and NotImplementedError."""
        trace, blob = saved_unequal_trace()
        blob = bytearray(blob)
        start = struct.unpack_from("<L", blob, len(blob) - 6)[0] if from_directory else 0
        at = (start + at) % len(blob)
        if mask:
            blob[at] ^= mask
        else:
            del blob[at:]
        path = tmp_path_factory.mktemp("damaged") / "round.npz"
        path.write_bytes(blob)
        try:
            loaded = _load_trace(path)
        except ParseError as exc:
            assert str(exc).startswith(f"damaged trace {path}: ")
        else:
            assert_same_trace(loaded, trace)


class TestOutputSets:
    @pytest.mark.parametrize("command", ["train", "personalize", "decompose", "report"])
    def test_failed_last_write_keeps_every_earlier_output(
        self, smoke_run, traced_run, tmp_path, monkeypatch, capsys, command
    ):
        """A ``--force`` rerun whose last write fails leaves the earlier
        output set byte for byte, with no staged name beside it."""
        out = tmp_path / "out"
        argv, change, last = {
            "train": (["train", "-c", DECOMPOSE, "--out", str(out), "--trace"],
                      ["--seed", "5"], "checkpoint.fms"),
            "personalize": (["personalize", "-c", SMOKE, "--out", str(out), "--checkpoint",
                             str(smoke_run / "replica_00" / "checkpoint.fms"),
                             "--sweep-epochs", "2"], ["--seed", "5"], "sweep.csv"),
            "decompose": (["decompose", "-c", DECOMPOSE, "--out", str(out / "round.txt"),
                           "--run-dir", str(traced_run / "replica_00"), "--round", "1"],
                          ["--round", "2"], "round.txt"),
            "report": (["report", *(str(smoke_run / f"replica_{i:02d}") for i in range(3)),
                        "--out", str(out)], ["--threshold", "0.5"], "report.csv"),
        }[command]
        assert main(argv) == 0
        capsys.readouterr()
        before = sorted(tmp_path.rglob("*")), tree_bytes(tmp_path)
        fail_writing(monkeypatch, last)
        assert main([*argv, *change, "--force"]) == 1
        assert one_error_line(capsys) == "error: disk full"
        assert (sorted(tmp_path.rglob("*")), tree_bytes(tmp_path)) == before

    def test_one_os_replace_call_site(self):
        """Every output reaches its place through ``cli._staged``: a second
        ``os.replace`` (or ``os.rename``) would be a second write path."""
        src = Path(cli.__file__).parent
        sites = [
            (path.name, node.lineno)
            for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in ("replace", "rename")
            and isinstance(node.value, ast.Name) and node.value.id == "os"
        ]
        assert [name for name, _ in sites] == ["cli.py"], sites


class TestUsage:
    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_consecutive_calls_parse_independently(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_train", lambda args: seen.append(vars(args)) or 0)
        assert main(["train", "-c", SMOKE, "--seed", "5", "--replicas", "2", "--force"]) == 0
        assert main(["train", "-c", DECOMPOSE]) == 0
        keys = ("config", "seed", "replicas", "out", "trace", "force")
        assert [[args[k] for k in keys] for args in seen] == [
            [SMOKE, 5, 2, None, False, True],
            [DECOMPOSE, None, None, None, False, False],
        ]

    def test_command_replaced_after_first_call_runs(self, traced_run, monkeypatch, capsys):
        argv = ["decompose", "-c", DECOMPOSE, "--run-dir",
                str(traced_run / "replica_00"), "--round", "1"]
        assert main(argv) == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_decompose", lambda args: calls.append(args.round) or 7)
        assert main(argv) == 7
        assert calls == [1]
        capsys.readouterr()

    @pytest.mark.parametrize("argv, message", [
        (["train", "-c", SMOKE, "--out", "runs", "--replicas", "0"],
         "--replicas: expected int in [1, inf], got '0'"),
        (["personalize", "-c", SMOKE, "--checkpoint", "ckpt.fms", "--out", "pers",
          "--sweep-epochs", "-3"], "--sweep-epochs: expected int in [0, inf], got '-3'"),
        (["report", "runs", "--threshold", "nan"], "--threshold: expected float in [0, 1]"),
        (["report", "runs", "--threshold", "7"], "--threshold: expected float in [0, 1]"),
        (["decompose", "-c", DECOMPOSE, "--run-dir", "runs", "--round", "-1"],
         "--round: expected int in [0, inf], got '-1'"),
        (["decompose", "-c", DECOMPOSE, "--run-dir", "runs", "--round", "one"],
         "--round: expected int in [0, inf], got 'one'"),
        (["train", "-c", SMOKE, "--out", "runs", "--seed", "99999999999999999999"],
         f"--seed: expected {INT64}, got '99999999999999999999'"),
        (["personalize", "-c", SMOKE, "--checkpoint", "ckpt.fms", "--out", "pers",
          "--seed", "-9223372036854775809"],
         f"--seed: expected {INT64}, got '-9223372036854775809'"),
    ], ids=["replicas", "sweep-epochs", "threshold-nan", "threshold-7", "round", "round-text",
            "train-seed", "personalize-seed"])
    def test_out_of_range_flag_is_usage_error(self, monkeypatch, capsys, argv, message):
        for name in ("load_config", "eval_population", "_load_metrics", "_load_trace"):
            monkeypatch.setattr(cli, name, must_not_run(name))
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert message in capsys.readouterr().err

    def test_flag_range_bounds_accepted(self):
        parse = cli.build_parser().parse_args
        assert parse(["train", "-c", SMOKE, "--replicas", "1"]).replicas == 1
        assert parse(["report", "runs", "--threshold", "0"]).threshold == 0.0
        assert parse(["report", "runs", "--threshold", "1"]).threshold == 1.0
        assert parse(["decompose", "-c", DECOMPOSE, "--run-dir", "runs", "--round", "0"]).round == 0
        argv = ["personalize", "-c", SMOKE, "--checkpoint", "c.fms", "--out", "p"]
        assert parse(argv).sweep_epochs == 0
        assert parse([*argv, "--sweep-epochs", "0"]).sweep_epochs == 0

    def test_commands_fail_only_by_raising(self):
        """No function but ``main`` writes to stderr or returns 1, so every
        exit-1 path ends in ``main``'s one ``error:`` line."""
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        functions = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name != "main"]
        assert {f"cmd_{c}" for c in ("train", "personalize", "decompose", "report")} <= {
            f.name for f in functions}
        offending = [
            (f.name, node.lineno)
            for f in functions for node in ast.walk(f)
            if (isinstance(node, ast.Attribute) and node.attr == "stderr")
            or (isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
                and node.value.value == 1)
        ]
        assert offending == []

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv, code, stdout, stderr", [
        (["--version"], 0, f"{__version__}\n", ""),
        (["train", "-c", SMOKE, "--out", "runs", "--replicas", "0"], 2, "",
         "--replicas: expected int in [1, inf], got '0'"),
        (["train", "-c", "nope.ini", "--out", "runs"], 1, "",
         "error: config file not found: nope.ini\n"),
    ], ids=["version", "out-of-range-flag", "missing-config"])
    def test_process_exit_code(self, tmp_path, argv, code, stdout, stderr):
        """The exit-code contract of the real entry point, ``sys.exit(main())``."""
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-m", "fedmetasim.cli", *argv], cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == code
        assert result.stdout == stdout
        if code == 2:
            assert stderr in result.stderr
        else:
            assert result.stderr == stderr
        assert list(tmp_path.iterdir()) == []

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
