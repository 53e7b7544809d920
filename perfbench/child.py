"""One repeat of one benchmark workload, in a fresh process.

Started by ``run.py`` with BLAS pinned to one thread. The child imports
fedmetasim from the checkout's ``src``, sets up (``load_config``,
``build_dataset``, ``validate``), prints ``ready <ops>`` on stdout, runs the
workload's CLI commands through ``fedmetasim.cli.main`` with the timer on,
and only then digests the outputs and counts the work. Everything it
measured goes to ``result.json`` in its repeat directory; a traced child
also writes its spans there.

With ``--prepare`` it records the environment fingerprint instead and
builds the untimed inputs a workload needs (the checkpoint that
``personalize_sweep`` adapts).
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import hashlib
import json
import os
import platform
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_EVERY_S = 0.02

# Workload inputs at the measured size and at the self-check size.
SCALES = {
    "full": {
        "two_stage": {"config": "configs/synthetic.ini"},
        "personalize_sweep": {"config": "configs/synthetic.ini", "sweep_epochs": 20},
        "traced_decompose": {"config": "perfbench/configs/traced_decompose.ini"},
    },
    "tiny": {
        "two_stage": {"config": "configs/smoke.ini"},
        "personalize_sweep": {"config": "configs/smoke.ini", "sweep_epochs": 2},
        "traced_decompose": {"config": "configs/decompose.ini"},
    },
}


def fingerprint() -> dict:
    """The environment the output digests are valid for."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_id = "unknown"
    cpu = platform.machine() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_id,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {var: os.environ.get(var, "") for var in THREAD_VARS},
    }


class SpeedProbe:
    """Samples how fast this CPU runs while the child sets up and works.

    On a shared host the same work can take twice as long from one minute
    to the next, and the other CPU's speed does not track this one's. So
    every 20 ms a SIGALRM handler times a fixed kernel shaped like the
    simulator's steps, 40 small matmul + tanh calls (about 0.2 ms), in this
    process and on this CPU; that costs about 1%. The probe starts before
    fedmetasim is imported, so set-up is sampled too.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._tanh, self._a, self._w = np.tanh, rng.random((20, 12)), rng.random((24, 12))
        self.samples: list[float] = []

    def sample(self, *_):
        started = time.perf_counter()
        for _ in range(40):
            self._tanh(self._a @ self._w.T)
        self.samples.append(time.perf_counter() - started)

    def take(self) -> list[float]:
        """The samples so far, leaving the list empty."""
        taken, self.samples = self.samples, []
        return taken

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def training_work(config, cfg, dataset) -> dict:
    """Work of one ``train`` replica, counted from the config and dataset.

    Every SGD step counts once, whether or not a later kernel batches it.
    Epoch-counted stages need equally sized train clients, which the
    benchmark's synthetic datasets have.
    """
    pcfg = config.build_personalization(cfg)
    every = config.build_eval_config(cfg).every
    snapshot_steps = sum(
        pcfg.epochs * _ceil_div(dataset.clients[c].train.n, pcfg.batch_size)
        for c in dataset.eval_client_ids
    )
    sizes = {dataset.clients[c].train.n for c in dataset.train_client_ids}
    work = {"steps": 0, "rounds": 0, "client_updates": 0, "snapshots": 0}
    for section in ("stage1", "stage2"):
        stage = config.build_stage(cfg, section)
        if stage.rounds == 0:
            continue
        rc = stage.round_cfg
        if rc.epochs is not None:
            if len(sizes) != 1:
                raise ValueError("epoch-counted workloads need equally sized train clients")
            local = rc.epochs * _ceil_div(min(sizes), rc.client_cfg.batch_size)
        else:
            local = rc.steps
        work["steps"] += stage.rounds * rc.clients_per_round * local
        for r in range(stage.rounds):
            work["rounds"] += 1
            if r == stage.rounds - 1 or (every and work["rounds"] % every == 0):
                work["snapshots"] += 1
        work["client_updates"] += stage.rounds * rc.clients_per_round
    work["steps"] += work["snapshots"] * snapshot_steps
    return work


def sweep_work(config, cfg, dataset, sweep_epochs: int) -> dict:
    """Work of ``personalize --which train --sweep-epochs N``: one report at
    the configured epochs, then every epoch count 1..N for SGD and Adam."""
    pcfg = config.build_personalization(cfg)
    per_epoch = sum(
        _ceil_div(dataset.clients[c].train.n, pcfg.batch_size)
        for c in dataset.train_client_ids
    )
    optimizers = 1 if pcfg.optimizer == "adam" else 2
    steps = per_epoch * (pcfg.epochs + optimizers * sweep_epochs * (sweep_epochs + 1) // 2)
    return {"steps": steps, "rounds": 0, "client_updates": 0, "snapshots": 0}


def prepared_config(config_path: Path, prep_dir: Path) -> Path:
    """A cheap variant of the workload config for training the checkpoint
    that ``personalize_sweep`` adapts: one local epoch, no periodic
    snapshots. Same dataset and model, so the checkpoint fits."""
    parser = configparser.ConfigParser()
    parser.read(config_path)
    for section in ("stage1", "stage2"):
        if parser.has_option(section, "client.epochs"):
            parser.set(section, "client.epochs", "1")
    parser.set("personalization", "eval_every", "0")
    path = prep_dir / "prepare.ini"
    with open(path, "w") as fh:
        parser.write(fh)
    return path


def plan(args, config_path: Path, work: dict) -> tuple[list[list[str]], list[list[str]]]:
    """CLI commands of one repeat and, per command, the deterministic output
    files (relative to the repeat directory) that must match across repeats."""
    seed = str(args.seed)
    rep = args.rep_dir
    train = ["train", "-c", str(config_path), "--replicas", "1", "--seed", seed,
             "--out", str(rep / "train")]
    train_outputs = ["train/replica_00/metrics.csv", "train/replica_00/checkpoint.fms"]
    if args.workload == "two_stage":
        return [train], [train_outputs]
    if args.workload == "personalize_sweep":
        sweep = SCALES[args.scale][args.workload]["sweep_epochs"]
        cmd = ["personalize", "-c", str(config_path),
               "--checkpoint", str(args.prep_dir / "train/replica_00/checkpoint.fms"),
               "--out", str(rep / "pers"), "--which", "train",
               "--sweep-epochs", str(sweep), "--seed", seed]
        return [cmd], [["pers/report.csv", "pers/summary.json", "pers/sweep.csv"]]
    commands, outputs = [train + ["--trace"]], [train_outputs]
    for r in range(work["rounds"]):
        text = f"decompose/round_{r:05d}.txt"
        commands.append(["decompose", "-c", str(config_path),
                         "--run-dir", str(rep / "train/replica_00"),
                         "--round", str(r), "--out", str(rep / text)])
        outputs.append([text])
    return commands, outputs


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def op_digest(rep_dir: Path, files: list[str]) -> str:
    """Digest of one command's outputs; a missing file digests as missing."""
    h = hashlib.sha256()
    for rel in files:
        path = rep_dir / rel
        h.update(f"{rel} {sha256_file(path) if path.exists() else 'missing'}\n".encode())
    return h.hexdigest()


def _data_rows(path: Path) -> int:
    if not path.exists():
        return -1
    lines = path.read_text().splitlines()
    return sum(1 for line in lines if line and not line.startswith("#") and not line[0].isalpha())


def observe(args, outputs: list[list[str]]) -> dict:
    """Counts and checks read back from the outputs after the timed run."""
    rep = args.rep_dir
    replica = rep / "train/replica_00"
    traces = sorted((replica / "traces").glob("*.npz")) if replica.exists() else []
    # timings.csv holds wall-clock figures of varying width; leaving it out
    # keeps the byte count exact across repeats.
    files = [p for p in rep.rglob("*") if p.is_file() and p.name != "timings.csv"]
    observed = {
        "bytes_written": sum(p.stat().st_size for p in files),
        "trace_bytes": sum(p.stat().st_size for p in traces),
        "trace_files": len(traces),
    }
    if args.workload != "personalize_sweep":
        observed["rounds"] = _data_rows(replica / "timings.csv")
        observed["snapshots"] = _data_rows(replica / "metrics.csv")
    residuals = []  # one per decompose command; they follow the train command
    for files_of_op in outputs[1:]:
        path = rep / files_of_op[0]
        value = float("inf")
        if path.exists():
            for line in path.read_text().splitlines():
                if line.startswith("residual_norm="):
                    value = float(line.split("=", 1)[1])
        residuals.append(value)
    observed["residuals"] = residuals
    return observed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--scale", choices=tuple(SCALES), default="full")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep-dir", type=Path, required=True)
    parser.add_argument("--prep-dir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", action="store_true")
    args = parser.parse_args(argv)

    with SpeedProbe() as probe:
        return run_repeat(args, probe)


def run_repeat(args, probe: SpeedProbe) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from fedmetasim import cli, config
    from spans import Recorder

    recorder = Recorder() if args.trace else None
    absent = recorder.install() if recorder else []

    config_path = ROOT / SCALES[args.scale][args.workload]["config"]
    t0 = time.perf_counter()
    cfg = config.load_config(config_path)
    t1 = time.perf_counter()
    dataset = config.build_dataset(cfg)
    t2 = time.perf_counter()
    config.validate(cfg, dataset)
    if args.workload == "personalize_sweep":
        sweep = SCALES[args.scale][args.workload]["sweep_epochs"]
        work = sweep_work(config, cfg, dataset, sweep)
    else:
        work = training_work(config, cfg, dataset)
    work["decomposed_rounds"] = work["rounds"] if args.workload == "traced_decompose" else 0
    args.rep_dir.mkdir(parents=True, exist_ok=True)

    if args.prepare:
        result = {"fingerprint": fingerprint(), "rc": 0}
        if args.workload == "personalize_sweep":
            prep_cfg = prepared_config(config_path, args.prep_dir)
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                result["rc"] = cli.main(["train", "-c", str(prep_cfg), "--replicas", "1",
                                         "--seed", str(args.seed),
                                         "--out", str(args.prep_dir / "train")])
        (args.rep_dir / "result.json").write_text(json.dumps(result))
        return result["rc"]

    commands, outputs = plan(args, config_path, work)
    setup_probes = probe.take()
    print(f"ready {len(commands)}", flush=True)

    rcs, durations = [], []
    probe.sample()
    started = time.perf_counter()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for command in commands:
            t = time.perf_counter()
            try:
                rc = cli.main(command)
            except Exception:  # one failed command is one failed operation
                traceback.print_exc()
                rc = -1
            durations.append(time.perf_counter() - t)
            rcs.append(rc)
    run_wall_s = time.perf_counter() - started
    probes_in_run = sum(probe.samples[1:])
    probe.sample()
    run_probes = probe.take()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digests = [op_digest(args.rep_dir, files) for files in outputs]
    inputs = []
    if args.workload == "personalize_sweep":
        inputs.append(sha256_file(args.prep_dir / "train/replica_00/checkpoint.fms"))
    result = {
        "rc": 0,
        "run_wall_s": run_wall_s,
        "setup_probes_s": setup_probes,
        "run_probes_s": run_probes,
        "probes_in_run_s": probes_in_run,
        "op_rc": rcs,
        "op_s": durations,
        "op_names": [c[0] for c in commands],
        "peak_rss_mb": peak_rss_mb,
        "op_digests": digests,
        "digest": hashlib.sha256("\n".join(inputs + digests).encode()).hexdigest(),
        "work": work,
        "observed": observe(args, outputs),
        "load_config_s": t1 - t0,
        "build_dataset_s": t2 - t1,
        "absent": absent,
    }
    if recorder:
        with open(args.rep_dir / "spans.json", "w") as fh:
            json.dump(recorder.spans, fh)
    (args.rep_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
