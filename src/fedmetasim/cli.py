"""Experiment runner.

Subcommands: train, personalize, decompose, report. The config hash and seed
head metrics.csv, timings.csv, manifest.txt and personalize's report.csv and
summary.json; decompose's and report's files carry the hash only, and
sweep.csv, checkpoints and traces neither. Every CSV table is written by
``_table``. Existing files are never overwritten without --force.
Exit codes: 0 success, 1 domain or I/O error, 2 usage error.

Round metrics go to metrics.csv (deterministic columns only, so reruns with
the same config and seed are byte-identical); per-round wallclock goes to a
sibling timings.csv. ``train`` consumes the driver's round stream: each
round's trace and periodic checkpoint is written as the round is yielded.

Every command writes its output set through ``_staged``: under staged names
first, then one ``os.replace`` per file in a fixed order, metrics.csv last for
``train``. A failure before the moves leaves every earlier output as it was; a
crash during them, one rename per file, can leave a mix of new and old files.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import shutil
import stat
import struct
import sys
import zlib
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import decompose_round, decomposition_text, replica_rows, rounds_to_threshold
from .config import (
    SEED,
    bounded,
    build_dataset,
    build_eval_config,
    build_model_spec,
    build_personalization,
    build_stage,
    load_config,
    output_dir,
    validate,
)
from .data import dataset_manifest, read_utf8
from .errors import ConfigError, DivergenceError, FedMetaSimError, ParseError
from .federation import RoundTrace, StageConfig, run_personalized_fedavg
from .model import load_checkpoint, save_checkpoint
from .personalization import EvalSnapshot, PersonalizationConfig, epochs_sweep, eval_population

DECOMPOSE_RESIDUAL_GATE = 1e-8


def _ensure_writable(paths: list[Path], force: bool) -> None:
    """Refuse, before any work, outputs that cannot be written even with
    --force (under a non-directory, or a directory themselves) and, without
    --force, outputs that exist."""
    for path in paths:
        try:
            mode = path.stat().st_mode
        except FileNotFoundError:
            continue
        except NotADirectoryError:
            raise ConfigError(f"cannot write {path}: a parent is not a directory") from None
        if stat.S_ISDIR(mode):
            raise ConfigError(f"cannot write {path}: it is a directory")
        if not force:
            raise ConfigError(f"refusing to overwrite {path} (use --force)")


@contextlib.contextmanager
def _staged(outputs: list[Path]):
    """Yield a map from each of ``outputs`` to its staged name, ``.<name>.staging``
    beside it, cleared of any stale file or directory. When the body returns,
    move the staged files into place in the order of ``outputs``; if anything
    raises first, remove them and the directories made for them."""
    staged = {path: path.with_name(f".{path.name}.staging") for path in outputs}
    made = []
    try:
        for directory in dict.fromkeys(path.parent for path in outputs):
            missing = []
            while not directory.is_dir():
                missing.append(directory)
                directory = directory.parent
            if missing:
                missing[0].mkdir(parents=True)
            made += reversed(missing)
        for name in staged.values():
            shutil.rmtree(name, ignore_errors=True)  # a stale directory
            name.unlink(missing_ok=True)  # a stale file or link
        yield staged
        for path, name in staged.items():
            os.replace(name, path)
    except BaseException:
        for name in staged.values():
            name.unlink(missing_ok=True)
        for directory in reversed(made):
            with contextlib.suppress(OSError):  # kept if anything else is in it
                directory.rmdir()
        raise


def _trace_path(rdir: Path, round_index: int) -> Path:
    return rdir / "traces" / f"round_{round_index:05d}.npz"


def _ckpt_path(rdir: Path, round_index: int) -> Path:
    return rdir / f"ckpt_{round_index:05d}.fms"


def _replica_outputs(rdir: Path, rounds: int, checkpoint_every: int, trace: bool) -> list[Path]:
    """Every file ``train`` writes for a replica, in commit order: metrics.csv last."""
    paths = [rdir / "timings.csv", rdir / "manifest.txt", rdir / "checkpoint.fms"]
    if checkpoint_every:
        paths += [_ckpt_path(rdir, r)
                  for r in range(checkpoint_every, rounds + 1, checkpoint_every)]
    if trace:
        paths += [_trace_path(rdir, r) for r in range(rounds)]
    return paths + [rdir / "metrics.csv"]


def _table(columns: str, row_format: str, rows, cfg_hash: str | None = None,
           seed: int | None = None) -> str:
    """A CSV table: ``# config_hash=`` and ``# seed=`` lines for the values
    given, the ``columns`` header, and ``row_format.format(*row)`` per row."""
    lines = [] if cfg_hash is None else [f"# config_hash={cfg_hash}"]
    if seed is not None:
        lines.append(f"# seed={seed}")
    lines += [columns, *(row_format.format(*row) for row in rows)]
    return "\n".join(lines) + "\n"


def _stage_summary(stage: StageConfig) -> str:
    if stage.rounds == 0:
        return "none"
    rc, server = stage.round_cfg, stage.server
    local = f"epochs={rc.epochs}" if rc.epochs is not None else f"steps={rc.steps}"
    return f"{rc.algorithm}({local}) rounds={stage.rounds} server={server.kind}(lr={server.lr})"


def _manifest_text(cfg_hash: str, stages: list[StageConfig], seed: int, replica: int,
                   dataset) -> str:
    mode = "fedavg-only" if stages[1].rounds == 0 else "personalized-fedavg"
    lines = [
        "fms-manifest/1",
        f"version={__version__}",
        f"config_hash={cfg_hash}",
        f"seed={seed}",
        f"replica={replica}",
        f"mode={mode}",
        f"stage1={_stage_summary(stages[0])}",
        f"stage2={_stage_summary(stages[1])}",
        "dataset:",
    ]
    lines.extend("  " + line for line in dataset_manifest(dataset).splitlines())
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=256)
def _npy_header(dtype: np.dtype, shape: tuple[int, ...]) -> bytes:
    """The .npy 1.0 header ``np.save`` writes for a C-ordered array."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, {
        "descr": np.lib.format.dtype_to_descr(dtype),
        "fortran_order": False,
        "shape": shape,
    })
    return buf.getvalue()


@functools.lru_cache(maxsize=256)
def _parse_npy_header(header: bytes) -> tuple[tuple[int, ...], np.dtype]:
    """The shape and dtype a .npy 1.0 header declares; raises ValueError on
    a bad magic, another version, Fortran order or an object dtype."""
    fp = io.BytesIO(header)
    version = np.lib.format.read_magic(fp)
    if version != (1, 0):
        raise ValueError(f"unsupported .npy version {version}")
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fp)
    if fortran_order or dtype.hasobject:
        raise ValueError(f"unsupported array layout {dtype}, fortran_order={fortran_order}")
    return shape, dtype


def _npy_array(name: str, blob: memoryview) -> np.ndarray:
    """A read-only view of the array in the .npy bytes ``blob``."""
    end = 10 + int.from_bytes(blob[8:10], "little")  # magic, version, header length
    try:
        shape, dtype = _parse_npy_header(bytes(blob[:end]))  # the cache keeps no trace buffer
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc
    count = math.prod(shape)
    if len(blob) - end != count * dtype.itemsize:
        raise ValueError(
            f"{name}: {len(blob) - end} data bytes for shape {shape} of {dtype}"
        )
    return np.frombuffer(blob, dtype, count, end).reshape(shape)


# The records zipfile writes for np.savez, and the sizes, offsets and member count past
# which it writes zip64 fields. Members are dated 1980-01-01 00:00 (DOS date 33).
_LOCAL, _CENTRAL = struct.Struct("<4s2B4HL2L2H"), struct.Struct("<4s4B4HL2L5H2L")
_END, _END64, _LOCATOR = (struct.Struct(f) for f in ("<4s4H2LH", "<4sQ2H2L4Q", "<4sLQL"))
_ZIP64_LIMIT, _ZIP_FILECOUNT_LIMIT, _FULL = (1 << 31) - 1, (1 << 16) - 1, 0xFFFFFFFF


def _save_trace(path: Path, trace: RoundTrace) -> None:
    """Write ``trace`` as the bytes ``np.savez`` writes for the same members:
    a stored zip64 member ``<name>.npy`` per array, then the central
    directory and end records, built in memory and written with one call."""
    arrays = {
        "round_index": np.array(trace.round_index, dtype=np.int64),
        "client_ids": np.array(trace.client_ids, dtype=np.int64),
        "aggregate": np.asarray(trace.aggregate, dtype=np.float64),
        "weights": np.asarray(trace.weights, dtype=np.float64),
        "deltas": np.asarray(trace.deltas, dtype=np.float64),
        "beta": np.array(trace.beta, dtype=np.float64),
    }
    for i, grads in enumerate(trace.step_gradients):
        arrays[f"grads_{i}"] = np.asarray(grads, dtype=np.float64)
    members, directory, offset = [], [], 0
    for name, array in arrays.items():
        filename, header = f"{name}.npy".encode(), _npy_header(array.dtype, array.shape)
        data = np.ascontiguousarray(array)
        size, crc = len(header) + data.nbytes, zlib.crc32(data, zlib.crc32(header))
        members += [_LOCAL.pack(b"PK\x03\x04", 45, 0, 0, 0, 0, 33, crc, _FULL, _FULL,
                                len(filename), 20),
                    filename, struct.pack("<HHQQ", 1, 16, size, size), header, data]
        wide = [size, size] * (size > _ZIP64_LIMIT) + [offset] * (offset > _ZIP64_LIMIT)
        extra = struct.pack(f"<HH{len(wide)}Q", 1, 8 * len(wide), *wide) if wide else b""
        low = [_FULL if v > _ZIP64_LIMIT else v for v in (size, size, offset)]
        directory += [_CENTRAL.pack(b"PK\x01\x02", 45, 3, 45, 0, 0, 0, 0, 33, crc, *low[:2],
                                    len(filename), len(extra), 0, 0, 0, 0o600 << 16, low[2]),
                      filename, extra]
        offset += _LOCAL.size + len(filename) + 20 + size
    count, size = len(arrays), sum(map(len, directory))
    if count > _ZIP_FILECOUNT_LIMIT or offset > _ZIP64_LIMIT or size > _ZIP64_LIMIT:
        directory += [_END64.pack(b"PK\x06\x06", 44, 45, 45, 0, 0, count, count, size, offset),
                      _LOCATOR.pack(b"PK\x06\x07", 0, offset + size, 1)]
        count, size, offset = min(count, 0xFFFF), min(size, _FULL), min(offset, _FULL)
    directory.append(_END.pack(b"PK\x05\x06", 0, 0, count, count, size, offset, 0))
    path.write_bytes(b"".join(members + directory))


def _zip_members(data: memoryview) -> dict[str, memoryview]:
    """Each member of the zip archive ``data`` by name, as a view of its bytes;
    ValueError unless the end records follow the directory and close the file, and
    every member is stored, unencrypted, named alike in its local header and CRC-valid."""
    end = len(data) - _END.size
    if end < 0 or data[end:end + 4] != b"PK\x05\x06":
        raise ValueError("no end of central directory record at the end of the file")
    size, start = _END.unpack_from(data, end)[5:7]
    if end >= _LOCATOR.size + _END64.size and data[end - 20:end - 16] == b"PK\x06\x07":
        end -= _LOCATOR.size + _END64.size
        if data[end:end + 4] != b"PK\x06\x06":
            raise ValueError("no zip64 end of central directory record before its locator")
        size, start = _END64.unpack_from(data, end)[8:10]
    if start + size != end:
        raise ValueError(f"central directory of {size} bytes at {start} does not end at {end}")
    members, pos = {}, start
    while pos < end:  # as zipfile walks it: by its size, whatever count the end records give
        if pos + _CENTRAL.size > end or data[pos:pos + 4] != b"PK\x01\x02":
            raise ValueError(f"no central directory entry at offset {pos}")
        (flags, method, _, _, crc, stored, length, name_len, extra_len, comment_len, _, _, _,
         offset) = _CENTRAL.unpack_from(data, pos)[5:]
        extra_at = pos + _CENTRAL.size + name_len
        raw, pos = data[extra_at - name_len:extra_at], extra_at + extra_len + comment_len
        name = str(raw, "latin-1")
        if wide := sum(v == _FULL for v in (length, stored, offset)):  # zip64 holds those
            tag, wide_len, *values = struct.unpack_from(f"<HH{wide}Q", data, extra_at)
            if tag != 1 or not 8 * wide <= wide_len <= extra_len - 4:
                raise ValueError(f"{name}: no zip64 field for its sizes and offset")
            length, stored, offset = (values.pop(0) if v == _FULL else v
                                      for v in (length, stored, offset))
        if pos > end or flags & 1 or method or stored != length:
            raise ValueError(f"{name}: not a stored, unencrypted member within the directory")
        sig, *_, n_len, x_len = _LOCAL.unpack_from(data, offset)
        at = offset + _LOCAL.size + n_len + x_len  # where its data starts
        if sig != b"PK\x03\x04" or data[at - x_len - n_len:][:n_len] != raw or start < at + stored:
            raise ValueError(f"{name}: no local header of that name at {offset} before its data")
        members[name] = blob = data[at:at + stored]
        if zlib.crc32(blob) != crc:
            raise ValueError(f"{name}: bad CRC-32")
    return members


def _load_trace(path: Path) -> RoundTrace:
    """Read a trace written by ``_save_trace``, each member exactly once.

    The file is read whole; each member's CRC is checked, and it must hold
    the .npy magic, a C-ordered non-object dtype, exactly the data its
    header declares, its dtype in the record, int64 for round_index and
    client_ids and float64 for the rest, and its shape in the record: () for
    round_index and beta, (M,) for client_ids and weights, (P,) for
    aggregate, (M, P) for deltas and (K_i, P) for grads_i, where M >= 1 is
    the length of client_ids, P >= 1 that of aggregate and K_i >= 1. The
    arrays returned are read-only views of the members' bytes.
    """
    try:
        members, dims = _zip_members(memoryview(path.read_bytes())), {}

        def member(name: str, shape: str = "", dtype: type = np.float64) -> np.ndarray:
            if f"{name}.npy" not in members:
                raise ValueError(f"no member {name}.npy")
            array = _npy_array(name, members[f"{name}.npy"])
            if array.dtype != dtype:
                raise ValueError(f"{name}: dtype {array.dtype}, expected {np.dtype(dtype)}")
            want = shape.split()
            if len(array.shape) != len(want) or not all(
                got >= 1 and got == dims.get(d, got) for got, d in zip(array.shape, want)
            ):
                expected = "(" + ", ".join(want) + ("," if len(want) == 1 else "") + ")"
                sizes = "".join(f", {d} = {dims[d]}" for d in want if d in dims)
                raise ValueError(f"{name}: shape {array.shape}, expected {expected}{sizes}")
            return array

        client_ids = member("client_ids", "M", np.int64)
        aggregate = member("aggregate", "P")
        dims.update(M=len(client_ids), P=len(aggregate))
        return RoundTrace(
            round_index=int(member("round_index", dtype=np.int64)),
            client_ids=[int(c) for c in client_ids],
            weights=member("weights", "M"),
            deltas=member("deltas", "M P"),
            aggregate=aggregate,
            beta=float(member("beta")),
            step_gradients=[member(f"grads_{i}", "K P") for i in range(dims["M"])],
        )
    except (IndexError, TypeError, ValueError, EOFError, struct.error) as exc:
        raise ParseError(f"damaged trace {path}: {exc}") from exc


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    dataset = build_dataset(cfg)
    validate(cfg, dataset)
    spec = build_model_spec(cfg)
    stages = [build_stage(cfg, "stage1"), build_stage(cfg, "stage2")]
    eval_cfg = build_eval_config(cfg)
    run = cfg.values["run"]
    trace = args.trace or run["trace"]
    base_seed = args.seed if args.seed is not None else run["seed"]
    replicas = args.replicas if args.replicas is not None else run["replicas"]
    if base_seed + replicas - 1 > 2**63 - 1:
        raise ConfigError(
            f"replica {replicas - 1} would take seed {base_seed + replicas - 1}, "
            f"past the largest seed {2**63 - 1}"
        )
    checkpoint_every = run["checkpoint_every"]
    out_root = output_dir(cfg, args.out)
    rounds = sum(stage.rounds for stage in stages)
    rdirs = [out_root / f"replica_{replica:02d}" for replica in range(replicas)]
    # Every output of every replica is checked before the first one trains.
    _ensure_writable(
        [p for rdir in rdirs for p in _replica_outputs(rdir, rounds, checkpoint_every, trace)],
        args.force,
    )

    for replica, rdir in enumerate(rdirs):
        seed = base_seed + replica
        outputs = _replica_outputs(rdir, rounds, checkpoint_every, trace)
        snapshots, wallclock_ms = [], []
        try:
            with _staged(outputs) as staged:
                # A round's trace and checkpoint are written iff _replica_outputs lists them.
                for tr, params in run_personalized_fedavg(
                    spec, dataset, stages, eval_cfg, seed, trace
                ):
                    if path := staged.get(_trace_path(rdir, tr.round_index)):
                        _save_trace(path, tr)
                    if path := staged.get(_ckpt_path(rdir, tr.round_index + 1)):
                        save_checkpoint(path, spec, params)
                    if tr.snapshot is not None:
                        snapshots.append(tr.snapshot)
                    wallclock_ms.append(tr.wallclock_ms)
                    # Deleting drops this round's arrays before the next one runs.
                    del tr
                for name, text in (
                    ("metrics.csv", _table(
                        "round,mean_initial_acc,std_initial_acc,"
                        "mean_personalized_acc,std_personalized_acc",
                        "{},{:.8f},{:.8f},{:.8f},{:.8f}",
                        [(s.round_index, s.initial_mean, s.initial_std,
                          s.personalized_mean, s.personalized_std) for s in snapshots],
                        cfg.hash, seed,
                    )),
                    ("timings.csv", _table("round,wallclock_ms", "{},{:.3f}",
                                           enumerate(wallclock_ms), cfg.hash, seed)),
                    ("manifest.txt", _manifest_text(cfg.hash, stages, seed, replica, dataset)),
                ):
                    staged[rdir / name].write_text(text)
                save_checkpoint(staged[rdir / "checkpoint.fms"], spec, params)
        except DivergenceError as exc:
            raise DivergenceError(
                f"replica {replica} (seed {seed}): {exc}",
                exc.step_index, exc.client_id, exc.round_index,
            ) from exc
        # --force replaces the trace and periodic checkpoint sets, and no other file.
        for path in {*rdir.glob("ckpt_*.fms"), *rdir.glob("traces/round_*.npz")} - {*outputs}:
            path.unlink()

        last = snapshots[-1]
        print(
            f"replica {replica} seed {seed}: rounds={len(wallclock_ms)} "
            f"initial={last.initial_mean:.4f} personalized={last.personalized_mean:.4f}"
        )
    return 0


def cmd_personalize(args) -> int:
    out = Path(args.out)
    outputs = [out / "report.csv", out / "summary.json"]
    if args.sweep_epochs:
        outputs.append(out / "sweep.csv")
    _ensure_writable(outputs, args.force)

    cfg = load_config(args.config)
    spec = build_model_spec(cfg)
    ckpt_spec, params = load_checkpoint(args.checkpoint)
    if ckpt_spec != spec:
        raise ConfigError(
            "checkpoint model spec does not match the configured model"
        )
    dataset = build_dataset(cfg)
    pcfg = build_personalization(cfg)
    seed = args.seed if args.seed is not None else cfg.values["run"]["seed"]
    which = f"{args.which}_clients"
    ids = dataset.train_client_ids if args.which == "train" else dataset.eval_client_ids
    if not ids:
        raise ConfigError(f"no clients in population {which!r}")

    report = eval_population(spec, params, dataset, ids, pcfg, seed)
    sweep_rows = None
    if args.sweep_epochs:
        optimizers = [pcfg]
        if pcfg.optimizer != "adam":
            optimizers.append(
                PersonalizationConfig(optimizer="adam", batch_size=pcfg.batch_size)
            )
        sweep_rows = epochs_sweep(
            spec, params, dataset, ids, optimizers, args.sweep_epochs, seed
        )

    summary = {
        "config_hash": cfg.hash,
        "seed": seed,
        "population": which,
        "clients": len(report.outcomes),
        "mean_initial_acc": report.initial_mean,
        "std_initial_acc": report.initial_std,
        "mean_personalized_acc": report.personalized_mean,
        "std_personalized_acc": report.personalized_std,
        "negative_fraction": report.negative_fraction,
    }
    with _staged(outputs) as staged:
        staged[out / "report.csv"].write_text(_table(
            "client_id,n_train,n_test,initial_acc,personalized_acc,diverged",
            "{},{},{},{:.8f},{:.8f},{:d}",
            [(o.client_id, o.n_train, o.n_test, o.initial_acc, o.personalized_acc, o.diverged)
             for o in report.outcomes],
            cfg.hash, seed,
        ))
        staged[out / "summary.json"].write_text(json.dumps(summary, indent=2) + "\n")
        if sweep_rows is not None:
            staged[out / "sweep.csv"].write_text(
                _table("optimizer,epochs,mean_personalized_acc", "{},{},{:.8f}", sweep_rows)
            )
    print(
        f"{which}: initial={report.initial_mean:.4f} "
        f"personalized={report.personalized_mean:.4f} "
        f"negative_fraction={report.negative_fraction:.3f}"
    )
    return 0


def cmd_decompose(args) -> int:
    out = Path(args.out) if args.out else None
    if out is not None:
        _ensure_writable([out], args.force)
    cfg = load_config(args.config)
    manifest = Path(args.run_dir) / "manifest.txt"
    if not manifest.exists():
        raise ConfigError(f"no manifest.txt in {args.run_dir}")
    if f"config_hash={cfg.hash}" not in read_utf8(manifest).splitlines():
        raise ConfigError(
            f"refusing to decompose a run of another config: {manifest} does not "
            f"record config_hash={cfg.hash} of {args.config}"
        )
    rounds = cfg.values["stage1"]["rounds"] + cfg.values["stage2"]["rounds"]
    if args.round >= rounds:
        raise ConfigError(
            f"no round {args.round} in {args.run_dir}: its last round is {rounds - 1}"
        )
    trace_path = _trace_path(Path(args.run_dir), args.round)
    if not trace_path.exists():
        raise ConfigError(
            f"no trace at {trace_path}; train with --trace (or [run] trace=true) "
            "to record per-step gradients"
        )
    stage = "stage1" if args.round < cfg.values["stage1"]["rounds"] else "stage2"
    if cfg.values[stage]["algorithm"] == "fomaml":
        raise ConfigError(
            f"round {args.round} is a fomaml round, whose update is -beta times its last "
            "gradient, not a sum of its steps, so it does not decompose"
        )
    trace, lr = _load_trace(trace_path), cfg.values[stage]["client.lr"]
    if (trace.round_index, trace.beta) != (args.round, lr):
        raise ConfigError(
            f"refusing to decompose {trace_path}: it records round {trace.round_index} with "
            f"beta={trace.beta!r}, not round {args.round} with [{stage}] client.lr={lr!r}"
        )
    report = decompose_round(trace)
    text = decomposition_text(report)
    print(text, end="")
    if out is not None:
        with _staged([out]) as staged:
            staged[out].write_text(f"# config_hash={cfg.hash}\n" + text)
    if report.residual_norm > DECOMPOSE_RESIDUAL_GATE:
        raise FedMetaSimError(
            f"residual {report.residual_norm:.3e} exceeds {DECOMPOSE_RESIDUAL_GATE:.0e}"
        )
    return 0


REPORT_COLUMNS = "round,initial_mean,initial_std,personalized_mean,personalized_std"
REPORT_ROW = "{},{:.6f},{:.6f},{:.6f},{:.6f}"


def _load_metrics(path: Path) -> tuple[str, int, list[EvalSnapshot]]:
    """A replica's config hash, seed and snapshots, from its metrics.csv."""
    cfg_hash, seed, snapshots = "", None, []
    for number, line in enumerate(read_utf8(path).splitlines(), start=1):
        try:
            if line.startswith("# config_hash="):
                cfg_hash = line.split("=", 1)[1]
            elif line.startswith("# seed="):
                seed = int(line.split("=", 1)[1])
            elif line.startswith("#") or line.startswith("round,") or not line.strip():
                continue
            else:
                rnd, im, istd, pm, pstd = line.split(",")
                snapshots.append(
                    EvalSnapshot(int(rnd), float(im), float(istd), float(pm), float(pstd))
                )
        except ValueError as exc:
            raise ParseError(f"{path}, line {number}: malformed {line!r}") from exc
    if not cfg_hash:
        raise ParseError(f"{path} has no '# config_hash=' line")
    if seed is None:
        raise ParseError(f"{path} has no '# seed=' line")
    return cfg_hash, seed, snapshots


def _report(cfg_hash: str, runs: list[list[EvalSnapshot]], threshold: float) -> tuple[str, list]:
    """The report text, and its REPORT_COLUMNS rows: the mean and std across
    replicas at each snapshot."""
    rows = replica_rows(runs)
    _, im, istd, pm, pstd = rows[-1]
    lines = [
        "fms-report/1",
        f"config_hash={cfg_hash}",
        f"replicas={len(runs)}",
        f"threshold={threshold:g}",
        "rounds_to_threshold initial: "
        + rounds_to_threshold(runs, lambda s: s.initial_mean, threshold),
        "rounds_to_threshold personalized: "
        + rounds_to_threshold(runs, lambda s: s.personalized_mean, threshold),
        f"final initial_accuracy: {im:.4f} ({istd:.4f})",
        f"final personalized_accuracy: {pm:.4f} ({pstd:.4f})",
    ]
    return "\n".join(lines) + "\n\n" + _table(REPORT_COLUMNS, REPORT_ROW, rows), rows


def cmd_report(args) -> int:
    out = Path(args.out) if args.out else None
    if out is not None:
        _ensure_writable([out / "report.txt", out / "report.csv"], args.force)
    hashes, seeds, runs = set(), [], []
    for rdir in args.run_dirs:
        path = Path(rdir) / "metrics.csv"
        if not path.exists():
            raise ConfigError(f"no metrics.csv in {rdir}")
        cfg_hash, seed, snapshots = _load_metrics(path)
        hashes.add(cfg_hash)
        seeds.append(seed)
        runs.append(snapshots)
    hashes = sorted(hashes)
    if len(hashes) != 1:
        raise ConfigError(
            "refusing to aggregate runs with different configs: " + ", ".join(hashes)
        )
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"refusing to aggregate duplicate replicas: seeds {seeds}")

    text, rows = _report(hashes[0], runs, args.threshold)
    print(text, end="")
    if out is not None:
        with _staged([out / "report.txt", out / "report.csv"]) as staged:
            staged[out / "report.txt"].write_text(text)
            staged[out / "report.csv"].write_text(
                _table(REPORT_COLUMNS, REPORT_ROW, rows, hashes[0])
            )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="fedmetasim",
        description="Deterministic federated averaging / meta-learning simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the two-stage training driver")
    p_train.add_argument("-c", "--config", required=True)
    p_train.add_argument("--seed", type=SEED, default=None)
    p_train.add_argument("--replicas", type=bounded(int, 1), default=None)
    p_train.add_argument("--out", default=None)
    p_train.add_argument("--trace", action="store_true",
                         help="record per-step gradients; each round's trace is written "
                              "as it ends, so disk, not memory, is the limit")
    p_train.add_argument("--force", action="store_true")

    p_pers = sub.add_parser("personalize", help="evaluate personalization of a checkpoint")
    p_pers.add_argument("-c", "--config", required=True)
    p_pers.add_argument("--checkpoint", required=True)
    p_pers.add_argument("--out", required=True)
    p_pers.add_argument("--seed", type=SEED, default=None)
    p_pers.add_argument("--which", choices=("eval", "train"), default="eval")
    p_pers.add_argument("--sweep-epochs", type=bounded(int, 0), default=0,
                        help="0: no sweep")
    p_pers.add_argument("--force", action="store_true")

    p_dec = sub.add_parser("decompose", help="decompose a traced round update")
    p_dec.add_argument("-c", "--config", required=True)
    p_dec.add_argument("--run-dir", required=True)
    p_dec.add_argument("--round", type=bounded(int, 0), required=True)
    p_dec.add_argument("--out", default=None)
    p_dec.add_argument("--force", action="store_true")

    p_rep = sub.add_parser("report", help="aggregate replica runs into tables")
    p_rep.add_argument("run_dirs", nargs="+")
    p_rep.add_argument("--threshold", type=bounded(float, 0, 1), default=0.8)
    p_rep.add_argument("--out", default=None)
    p_rep.add_argument("--force", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command]  # looked up per call, so it can be replaced
    try:
        return command(args)
    except (FedMetaSimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
