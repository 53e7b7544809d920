"""Experiment runner.

Subcommands: train, personalize, decompose, report. The config hash and seed
head metrics.csv, timings.csv, manifest.txt and personalize's report.csv and
summary.json; decompose's and report's files carry the hash only, and
sweep.csv, checkpoints and traces neither. Existing files are never
overwritten without --force.
Exit codes: 0 success, 1 domain error, 2 usage error.

Round metrics go to metrics.csv (deterministic columns only, so reruns with
the same config and seed are byte-identical); per-round wallclock goes to a
sibling timings.csv.

Every output appears whole or not at all. ``train`` writes a replica's files,
each round's trace and periodic checkpoint as the round ends, into a staging
directory beside the replica directory and moves them into place only when
the replica completes; the other commands write each file through a temp
file and ``os.replace``.
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
import sys
import zipfile
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    decompose_round,
    decomposition_text,
    format_mean_std,
    per_snapshot_stats,
    threshold_stats,
)
from .config import (
    ExperimentConfig,
    build_dataset,
    build_eval_config,
    build_model_spec,
    build_personalization,
    build_stage,
    load_config,
    output_dir,
    validate,
)
from .data import dataset_manifest
from .errors import ConfigError, ContractViolation, DivergenceError, FedMetaSimError, ParseError
from .federation import EvalSnapshot, RoundTrace, TrainingRun, run_personalized_fedavg
from .model import load_checkpoint, save_checkpoint
from .personalization import PersonalizationConfig, epochs_sweep, eval_population, sweep_csv
from .rng import StreamFactory

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


def _bounded(convert, low, high=math.inf):
    """An argparse type: ``convert(text)`` within [low, high], so not nan."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(
                f"expected {convert.__name__} in [{low}, {high}], got {text!r}"
            )
        return value
    return parse


def _write_atomic(path: Path, text: str) -> None:
    """Write ``path`` whole or not at all: a temp file beside it, then ``os.replace``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _trace_path(rdir: Path, round_index: int) -> Path:
    return rdir / "traces" / f"round_{round_index:05d}.npz"


def _ckpt_path(rdir: Path, round_index: int) -> Path:
    return rdir / f"ckpt_{round_index:05d}.fms"


def _replica_outputs(rdir: Path, rounds: int, checkpoint_every: int, trace: bool) -> list[Path]:
    """Every file ``train`` writes for one replica of ``rounds`` rounds."""
    paths = [rdir / "metrics.csv", rdir / "timings.csv",
             rdir / "manifest.txt", rdir / "checkpoint.fms"]
    if checkpoint_every:
        paths += [_ckpt_path(rdir, r)
                  for r in range(checkpoint_every, rounds + 1, checkpoint_every)]
    if trace:
        paths += [_trace_path(rdir, r) for r in range(rounds)]
    return paths


def _commit_replica(staging: Path, rdir: Path, outputs: list[Path]) -> None:
    """Move a finished replica's ``outputs`` from ``staging`` into ``rdir``,
    metrics.csv (which ``report`` reads) last, then delete the traces and
    periodic checkpoints of an earlier run that this one did not write."""
    for path in sorted(outputs, key=lambda p: p.name == "metrics.csv"):
        path.parent.mkdir(parents=True, exist_ok=True)
        os.replace(staging / path.relative_to(rdir), path)
    keep = set(outputs)
    for path in [*rdir.glob("ckpt_*.fms"), *rdir.glob("traces/round_*.npz")]:
        if path not in keep:
            path.unlink()


def _metrics_lines(cfg_hash: str, seed: int, run: TrainingRun) -> str:
    lines = [
        f"# config_hash={cfg_hash}",
        f"# seed={seed}",
        "round,mean_initial_acc,std_initial_acc,mean_personalized_acc,std_personalized_acc",
    ]
    for snap in run.snapshots:
        lines.append(
            f"{snap.round_index},{snap.initial_mean:.8f},{snap.initial_std:.8f},"
            f"{snap.personalized_mean:.8f},{snap.personalized_std:.8f}"
        )
    return "\n".join(lines) + "\n"


def _timings_lines(cfg_hash: str, seed: int, run: TrainingRun) -> str:
    lines = [f"# config_hash={cfg_hash}", f"# seed={seed}", "round,wallclock_ms"]
    for round_index, wallclock_ms in enumerate(run.wallclock_ms):
        lines.append(f"{round_index},{wallclock_ms:.3f}")
    return "\n".join(lines) + "\n"


def _stage_summary(cfg: ExperimentConfig, section: str) -> str:
    rounds = cfg.get_int(section, "rounds")
    if rounds == 0:
        return "none"
    algorithm = cfg.get(section, "algorithm")
    epochs = cfg.get(section, "client.epochs")
    steps = cfg.get(section, "client.steps")
    local = f"epochs={epochs}" if epochs else f"steps={steps}"
    server = cfg.get(section, "server.kind")
    lr = cfg.get(section, "server.lr")
    return f"{algorithm}({local}) rounds={rounds} server={server}(lr={lr})"


def _manifest_text(cfg: ExperimentConfig, seed: int, replica: int, dataset) -> str:
    mode = "fedavg-only" if cfg.get_int("stage2", "rounds") == 0 else "personalized-fedavg"
    lines = [
        "fms-manifest/1",
        f"version={__version__}",
        f"config_hash={cfg.hash}",
        f"seed={seed}",
        f"replica={replica}",
        f"mode={mode}",
        f"stage1={_stage_summary(cfg, 'stage1')}",
        f"stage2={_stage_summary(cfg, 'stage2')}",
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


def _npy_array(name: str, blob: bytes) -> np.ndarray:
    """A read-only view of the array in the .npy bytes ``blob``."""
    end = 10 + int.from_bytes(blob[8:10], "little")  # magic, version, header length
    try:
        shape, dtype = _parse_npy_header(blob[:end])
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc
    count = math.prod(shape)
    if len(blob) - end != count * dtype.itemsize:
        raise ValueError(
            f"{name}: {len(blob) - end} data bytes for shape {shape} of {dtype}"
        )
    return np.frombuffer(blob, dtype, count, end).reshape(shape)


def _save_trace(path: Path, trace: RoundTrace) -> None:
    """Write ``trace`` as the bytes ``np.savez`` writes for the same members:
    a stored zip64 member ``<name>.npy`` per array, built in memory and
    written with one call."""
    arrays = {
        "round_index": np.array(trace.round_index),
        "client_ids": np.array(trace.client_ids),
        "aggregate": trace.aggregate,
        "weights": trace.weights,
        "deltas": trace.deltas,
        "beta": np.array(trace.beta),
    }
    for i, grads in enumerate(trace.step_gradients):
        arrays[f"grads_{i}"] = grads
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", allowZip64=True) as archive:
        for name, array in arrays.items():
            with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                member.write(_npy_header(array.dtype, array.shape))
                member.write(np.ascontiguousarray(array))
    path.write_bytes(buf.getbuffer())


def _load_trace(path: Path) -> RoundTrace:
    """Read a trace written by ``_save_trace``, each member exactly once.

    The file is read whole; each member's CRC is checked, and it must hold
    the .npy magic, a C-ordered non-object dtype, exactly the data its
    header declares, and its shape in the record: () for round_index and
    beta, (M,) for client_ids and weights, (P,) for aggregate, (M, P) for
    deltas and (K_i, P) for grads_i, where M >= 1 is the length of
    client_ids, P >= 1 that of aggregate and K_i >= 1. The arrays returned
    are read-only views of the members' bytes.
    """
    try:
        with zipfile.ZipFile(io.BytesIO(path.read_bytes())) as archive:
            dims = {}

            def member(name: str, shape: str = "") -> np.ndarray:
                array = _npy_array(name, archive.read(f"{name}.npy"))
                want = shape.split()
                if len(array.shape) != len(want) or not all(
                    got >= 1 and got == dims.get(d, got) for got, d in zip(array.shape, want)
                ):
                    expected = "(" + ", ".join(want) + ("," if len(want) == 1 else "") + ")"
                    sizes = "".join(f", {d} = {dims[d]}" for d in want if d in dims)
                    raise ValueError(f"{name}: shape {array.shape}, expected {expected}{sizes}")
                return array

            client_ids = member("client_ids", "M")
            aggregate = member("aggregate", "P")
            dims.update(M=len(client_ids), P=len(aggregate))
            return RoundTrace(
                round_index=int(member("round_index")),
                client_ids=[int(c) for c in client_ids],
                weights=member("weights", "M"),
                deltas=member("deltas", "M P"),
                aggregate=aggregate,
                beta=float(member("beta")),
                step_gradients=[member(f"grads_{i}", "K P") for i in range(dims["M"])],
            )
    except (zipfile.BadZipFile, KeyError, IndexError, ValueError, EOFError) as exc:
        raise ParseError(f"damaged trace {path}: {exc}") from exc


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.values["run"]["seed"] = str(args.seed)
    if args.replicas is not None:
        cfg.values["run"]["replicas"] = str(args.replicas)

    dataset = build_dataset(cfg)
    validate(cfg, dataset)
    spec = build_model_spec(cfg)
    stage1 = build_stage(cfg, "stage1")
    stage2 = build_stage(cfg, "stage2")
    eval_cfg = build_eval_config(cfg)
    trace = args.trace or cfg.get_bool("run", "trace")
    base_seed = cfg.get_int("run", "seed")
    replicas = cfg.get_int("run", "replicas")
    checkpoint_every = cfg.get_int("run", "checkpoint_every")
    out_root = output_dir(cfg, args.out)
    rounds = stage1.rounds + stage2.rounds
    rdirs = [out_root / f"replica_{replica:02d}" for replica in range(replicas)]
    # Every output of every replica is checked before the first one trains.
    _ensure_writable(
        [p for rdir in rdirs for p in _replica_outputs(rdir, rounds, checkpoint_every, trace)],
        args.force,
    )

    made_root = not out_root.exists()
    for replica, rdir in enumerate(rdirs):
        seed = base_seed + replica
        staging = rdir.with_name(f".{rdir.name}.staging")
        shutil.rmtree(staging, ignore_errors=True)
        (staging / "traces" if trace else staging).mkdir(parents=True)

        def save_round(tr: RoundTrace, params: np.ndarray) -> None:
            if trace:
                _save_trace(_trace_path(staging, tr.round_index), tr)
            if checkpoint_every and (tr.round_index + 1) % checkpoint_every == 0:
                save_checkpoint(_ckpt_path(staging, tr.round_index + 1), spec, params)

        try:
            run = run_personalized_fedavg(
                spec, dataset, stage1, stage2, eval_cfg, seed, trace=trace, on_round=save_round,
            )
            (staging / "metrics.csv").write_text(_metrics_lines(cfg.hash, seed, run))
            (staging / "timings.csv").write_text(_timings_lines(cfg.hash, seed, run))
            (staging / "manifest.txt").write_text(_manifest_text(cfg, seed, replica, dataset))
            save_checkpoint(staging / "checkpoint.fms", spec, run.final_params)
            _commit_replica(
                staging, rdir, _replica_outputs(rdir, rounds, checkpoint_every, trace)
            )
        except DivergenceError as exc:
            print(
                f"replica {replica} (seed {seed}): {exc}",
                file=sys.stderr,
            )
            return 1
        finally:
            shutil.rmtree(staging, ignore_errors=True)
            if made_root:  # removed only while empty, when the first replica failed
                with contextlib.suppress(OSError):
                    out_root.rmdir()

        last = run.snapshots[-1]
        print(
            f"replica {replica} seed {seed}: rounds={len(run.wallclock_ms)} "
            f"initial={last.initial_mean:.4f} personalized={last.personalized_mean:.4f}"
        )
    return 0


def cmd_personalize(args) -> int:
    out = Path(args.out)
    paths = [out / "report.csv", out / "summary.json"]
    if args.sweep_epochs:
        paths.append(out / "sweep.csv")
    _ensure_writable(paths, args.force)

    cfg = load_config(args.config)
    spec = build_model_spec(cfg)
    ckpt_spec, params = load_checkpoint(args.checkpoint)
    if ckpt_spec != spec:
        raise ConfigError(
            "checkpoint model spec does not match the configured model"
        )
    dataset = build_dataset(cfg)
    pcfg = build_personalization(cfg)
    seed = args.seed if args.seed is not None else cfg.get_int("run", "seed")
    streams = StreamFactory(seed)
    which = f"{args.which}_clients"

    report = eval_population(spec, params, dataset, which, pcfg, streams)
    sweep_rows = None
    if args.sweep_epochs:
        optimizers = [pcfg]
        if pcfg.optimizer != "adam":
            optimizers.append(
                PersonalizationConfig(optimizer="adam", batch_size=pcfg.batch_size)
            )
        sweep_rows = epochs_sweep(
            spec, params, dataset, optimizers, args.sweep_epochs, streams, which
        )

    lines = [
        f"# config_hash={cfg.hash}",
        f"# seed={seed}",
        "client_id,n_train,n_test,initial_acc,personalized_acc,diverged",
    ]
    for o in report.outcomes:
        lines.append(
            f"{o.client_id},{o.n_train},{o.n_test},{o.initial_acc:.8f},"
            f"{o.personalized_acc:.8f},{int(o.diverged)}"
        )
    _write_atomic(out / "report.csv", "\n".join(lines) + "\n")
    summary = {
        "config_hash": cfg.hash,
        "seed": seed,
        "population": which,
        "clients": len(report.outcomes),
        "mean_initial_acc": report.mean_initial,
        "std_initial_acc": report.std_initial,
        "mean_personalized_acc": report.mean_personalized,
        "std_personalized_acc": report.std_personalized,
        "negative_fraction": report.negative_fraction,
    }
    _write_atomic(out / "summary.json", json.dumps(summary, indent=2) + "\n")
    if sweep_rows is not None:
        _write_atomic(out / "sweep.csv", sweep_csv(sweep_rows))
    print(
        f"{which}: initial={report.mean_initial:.4f} "
        f"personalized={report.mean_personalized:.4f} "
        f"negative_fraction={report.negative_fraction:.3f}"
    )
    return 0


def cmd_decompose(args) -> int:
    out = Path(args.out) if args.out else None
    if out is not None:
        _ensure_writable([out], args.force)
    cfg = load_config(args.config)
    trace_path = _trace_path(Path(args.run_dir), args.round)
    if not trace_path.exists():
        print(
            f"no trace at {trace_path}; train with --trace (or [run] trace=true) "
            "to record per-step gradients",
            file=sys.stderr,
        )
        return 1
    report = decompose_round(_load_trace(trace_path))
    text = decomposition_text(report)
    print(text, end="")
    if out is not None:
        _write_atomic(out, f"# config_hash={cfg.hash}\n" + text)
    if report.residual_norm > DECOMPOSE_RESIDUAL_GATE:
        print(
            f"residual {report.residual_norm:.3e} exceeds {DECOMPOSE_RESIDUAL_GATE:.0e}",
            file=sys.stderr,
        )
        return 1
    return 0


REPORT_COLUMNS = "round,initial_mean,initial_std,personalized_mean,personalized_std"


def _load_metrics(path: Path) -> tuple[str, TrainingRun]:
    """A replica's config hash, and its seed and snapshots, from its metrics.csv."""
    cfg_hash, seed, snapshots = "", None, []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
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
    return cfg_hash, TrainingRun(seed=seed, snapshots=snapshots)


def _report(cfg_hash: str, runs: list[TrainingRun], threshold: float) -> tuple[str, list[str]]:
    """The report text, and its REPORT_COLUMNS rows: the mean and std across
    replicas at each snapshot."""
    stats_i = per_snapshot_stats(runs, "initial")
    stats_p = per_snapshot_stats(runs, "personalized")
    rows = [
        f"{rnd},{im:.6f},{istd:.6f},{pm:.6f},{pstd:.6f}"
        for (rnd, im, istd), (_, pm, pstd) in zip(stats_i, stats_p)
    ]
    t_init = threshold_stats(runs, "initial", threshold)
    t_pers = threshold_stats(runs, "personalized", threshold)
    lines = [
        "fms-report/1",
        f"config_hash={cfg_hash}",
        f"replicas={len(runs)}",
        f"threshold={threshold:g}",
        f"rounds_to_threshold initial: {t_init.format()}",
        f"rounds_to_threshold personalized: {t_pers.format()}",
        f"final initial_accuracy: {format_mean_std(*stats_i[-1][1:])}",
        f"final personalized_accuracy: {format_mean_std(*stats_p[-1][1:])}",
        "",
        REPORT_COLUMNS,
        *rows,
    ]
    return "\n".join(lines) + "\n", rows


def cmd_report(args) -> int:
    out = Path(args.out) if args.out else None
    if out is not None:
        _ensure_writable([out / "report.txt", out / "report.csv"], args.force)
    hashes, runs = set(), []
    for rdir in args.run_dirs:
        path = Path(rdir) / "metrics.csv"
        if not path.exists():
            raise ConfigError(f"no metrics.csv in {rdir}")
        cfg_hash, run = _load_metrics(path)
        hashes.add(cfg_hash)
        runs.append(run)
    hashes = sorted(hashes)
    if len(hashes) != 1:
        raise ConfigError(
            "refusing to aggregate runs with different configs: " + ", ".join(hashes)
        )
    seeds = [run.seed for run in runs]
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"refusing to aggregate duplicate replicas: seeds {seeds}")

    text, rows = _report(hashes[0], runs, args.threshold)
    print(text, end="")
    if out is not None:
        _write_atomic(out / "report.txt", text)
        csv_lines = [f"# config_hash={hashes[0]}", REPORT_COLUMNS, *rows]
        _write_atomic(out / "report.csv", "\n".join(csv_lines) + "\n")
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
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--replicas", type=int, default=None)
    p_train.add_argument("--out", default=None)
    p_train.add_argument("--trace", action="store_true",
                         help="record per-step gradients; each round's trace is written "
                              "as it ends, so disk, not memory, is the limit")
    p_train.add_argument("--force", action="store_true")

    p_pers = sub.add_parser("personalize", help="evaluate personalization of a checkpoint")
    p_pers.add_argument("-c", "--config", required=True)
    p_pers.add_argument("--checkpoint", required=True)
    p_pers.add_argument("--out", required=True)
    p_pers.add_argument("--seed", type=int, default=None)
    p_pers.add_argument("--which", choices=("eval", "train"), default="eval")
    p_pers.add_argument("--sweep-epochs", type=_bounded(int, 0), default=0,
                        help="0: no sweep")
    p_pers.add_argument("--force", action="store_true")

    p_dec = sub.add_parser("decompose", help="decompose a traced round update")
    p_dec.add_argument("-c", "--config", required=True)
    p_dec.add_argument("--run-dir", required=True)
    p_dec.add_argument("--round", type=_bounded(int, 0), required=True)
    p_dec.add_argument("--out", default=None)
    p_dec.add_argument("--force", action="store_true")

    p_rep = sub.add_parser("report", help="aggregate replica runs into tables")
    p_rep.add_argument("run_dirs", nargs="+")
    p_rep.add_argument("--threshold", type=_bounded(float, 0, 1), default=0.8)
    p_rep.add_argument("--out", default=None)
    p_rep.add_argument("--force", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command]  # looked up per call, so it can be replaced
    try:
        return command(args)
    except (FedMetaSimError, FileNotFoundError, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
