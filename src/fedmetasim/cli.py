"""Experiment runner.

Subcommands: train, personalize, decompose, report. All outputs embed the
config hash and seed; existing files are never overwritten without --force.
Exit codes: 0 success, 1 domain error, 2 usage error.

Round metrics go to metrics.csv (deterministic columns only, so reruns with
the same config and seed are byte-identical); per-round wallclock goes to a
sibling timings.csv.

Every output appears whole or not at all. ``train`` writes a replica's files,
each round's trace as the round ends, into a staging directory beside the
replica directory and moves them into place only when the replica completes;
the other commands write each file through a temp file and ``os.replace``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    decompose_round,
    decomposition_text,
    aggregate_replicas,
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
from .federation import ClientUpdateResult, EvalSnapshot, RoundTrace, TrainingRun, run_personalized_fedavg
from .model import load_checkpoint, save_checkpoint
from .personalization import PersonalizationConfig, epochs_sweep, eval_population, sweep_csv
from .rng import StreamFactory

DECOMPOSE_RESIDUAL_GATE = 1e-8


def _ensure_writable(paths: list[Path], force: bool) -> None:
    if force:
        return
    for path in paths:
        if path.exists():
            raise ConfigError(f"refusing to overwrite {path} (use --force)")


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
    for trace in run.traces:
        lines.append(f"{trace.round_index},{trace.wallclock_ms:.3f}")
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


def _save_trace(path: Path, trace: RoundTrace, beta: float) -> None:
    arrays = {
        "round_index": np.array(trace.round_index),
        "client_ids": np.array(trace.client_ids),
        "aggregate": trace.aggregate,
        "weights": np.array([r.weight for r in trace.results]),
        "deltas": np.stack([r.delta for r in trace.results]),
        "beta": np.array(beta),
    }
    for i, res in enumerate(trace.results):
        arrays[f"grads_{i}"] = np.stack(res.step_gradients)
    np.savez(path, **arrays)


def _load_trace(path: Path) -> tuple[RoundTrace, float]:
    """Read a trace written by ``_save_trace``, each member exactly once."""
    try:
        with np.load(path) as data:
            client_ids = [int(c) for c in data["client_ids"]]
            deltas, weights = data["deltas"], data["weights"]
            results = [
                ClientUpdateResult(
                    client_id=cid,
                    delta=deltas[i],
                    weight=float(weights[i]),
                    step_gradients=list(data[f"grads_{i}"]),
                )
                for i, cid in enumerate(client_ids)
            ]
            trace = RoundTrace(
                round_index=int(data["round_index"]),
                client_ids=client_ids,
                results=results,
                aggregate=data["aggregate"],
            )
            return trace, float(data["beta"])
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

        def save_round(tr: RoundTrace) -> None:
            stage = stage1 if tr.round_index < stage1.rounds else stage2
            beta = stage.round_cfg.client_cfg.lr
            _save_trace(_trace_path(staging, tr.round_index), tr, beta)

        try:
            run = run_personalized_fedavg(
                spec, dataset, stage1, stage2, eval_cfg, seed,
                trace=trace,
                checkpoint_every=checkpoint_every,
                on_round=save_round if trace else None,
            )
            (staging / "metrics.csv").write_text(_metrics_lines(cfg.hash, seed, run))
            (staging / "timings.csv").write_text(_timings_lines(cfg.hash, seed, run))
            (staging / "manifest.txt").write_text(_manifest_text(cfg, seed, replica, dataset))
            save_checkpoint(staging / "checkpoint.fms", spec, run.final_params)
            for round_index, params in run.checkpoints.items():
                save_checkpoint(_ckpt_path(staging, round_index), spec, params)
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
            f"replica {replica} seed {seed}: rounds={len(run.traces)} "
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
    trace, beta = _load_trace(trace_path)
    report = decompose_round(trace, beta)
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


@dataclass
class _LoadedRun:
    """A replica's config hash, seed and snapshot series from its metrics.csv."""

    cfg_hash: str
    seed: int | None
    snapshots: list[EvalSnapshot]


def _load_metrics(path: Path) -> _LoadedRun:
    run = _LoadedRun(cfg_hash="", seed=None, snapshots=[])
    for line in path.read_text().splitlines():
        if line.startswith("# config_hash="):
            run.cfg_hash = line.split("=", 1)[1]
        elif line.startswith("# seed="):
            run.seed = int(line.split("=", 1)[1])
        elif line.startswith("#") or line.startswith("round,") or not line.strip():
            continue
        else:
            parts = line.split(",")
            run.snapshots.append(
                EvalSnapshot(
                    round_index=int(parts[0]),
                    initial_mean=float(parts[1]),
                    initial_std=float(parts[2]),
                    personalized_mean=float(parts[3]),
                    personalized_std=float(parts[4]),
                )
            )
    return run


def _snapshot_rows(runs: list[_LoadedRun]) -> list[str]:
    """One REPORT_COLUMNS row per snapshot: mean and std across replicas."""
    stats_i = per_snapshot_stats(runs, "initial")
    stats_p = per_snapshot_stats(runs, "personalized")
    return [
        f"{rnd},{im:.6f},{istd:.6f},{pm:.6f},{pstd:.6f}"
        for (rnd, im, istd), (_, pm, pstd) in zip(stats_i, stats_p)
    ]


def _report_text(
    cfg_hash: str, runs: list[_LoadedRun], threshold: float, rows: list[str]
) -> str:
    init = aggregate_replicas(runs, "initial")
    pers = aggregate_replicas(runs, "personalized")
    t_init = threshold_stats(runs, "initial", threshold)
    t_pers = threshold_stats(runs, "personalized", threshold)
    lines = [
        "fms-report/1",
        f"config_hash={cfg_hash}",
        f"replicas={len(runs)}",
        f"threshold={threshold:g}",
        f"rounds_to_threshold initial: {t_init.format()}",
        f"rounds_to_threshold personalized: {t_pers.format()}",
        f"final initial_accuracy: {init.format()}",
        f"final personalized_accuracy: {pers.format()}",
        "",
        REPORT_COLUMNS,
        *rows,
    ]
    return "\n".join(lines) + "\n"


def cmd_report(args) -> int:
    out = Path(args.out) if args.out else None
    if out is not None:
        _ensure_writable([out / "report.txt", out / "report.csv"], args.force)
    runs = []
    for rdir in args.run_dirs:
        path = Path(rdir) / "metrics.csv"
        if not path.exists():
            raise ConfigError(f"no metrics.csv in {rdir}")
        runs.append(_load_metrics(path))
    hashes = sorted({run.cfg_hash for run in runs})
    if len(hashes) != 1:
        raise ConfigError(
            "refusing to aggregate runs with different configs: " + ", ".join(hashes)
        )
    seeds = [run.seed for run in runs]
    if None in seeds:
        raise ConfigError("every metrics.csv needs a '# seed=' line")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"refusing to aggregate duplicate replicas: seeds {seeds}")

    rows = _snapshot_rows(runs)
    text = _report_text(hashes[0], runs, args.threshold, rows)
    print(text, end="")
    if out is not None:
        _write_atomic(out / "report.txt", text)
        csv_lines = [f"# config_hash={hashes[0]}", REPORT_COLUMNS, *rows]
        _write_atomic(out / "report.csv", "\n".join(csv_lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    p_train.set_defaults(func=cmd_train)

    p_pers = sub.add_parser("personalize", help="evaluate personalization of a checkpoint")
    p_pers.add_argument("-c", "--config", required=True)
    p_pers.add_argument("--checkpoint", required=True)
    p_pers.add_argument("--out", required=True)
    p_pers.add_argument("--seed", type=int, default=None)
    p_pers.add_argument("--which", choices=("eval", "train"), default="eval")
    p_pers.add_argument("--sweep-epochs", type=int, default=0)
    p_pers.add_argument("--force", action="store_true")
    p_pers.set_defaults(func=cmd_personalize)

    p_dec = sub.add_parser("decompose", help="decompose a traced round update")
    p_dec.add_argument("-c", "--config", required=True)
    p_dec.add_argument("--run-dir", required=True)
    p_dec.add_argument("--round", type=int, required=True)
    p_dec.add_argument("--out", default=None)
    p_dec.add_argument("--force", action="store_true")
    p_dec.set_defaults(func=cmd_decompose)

    p_rep = sub.add_parser("report", help="aggregate replica runs into tables")
    p_rep.add_argument("run_dirs", nargs="+")
    p_rep.add_argument("--threshold", type=float, default=0.8)
    p_rep.add_argument("--out", default=None)
    p_rep.add_argument("--force", action="store_true")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FedMetaSimError, FileNotFoundError, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
