"""fedmetasim benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload two_stage --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each repeat of the workload runs in a
fresh child process (``child.py``) with BLAS pinned to one thread. Repeats
continue while the next one is expected to end within ``--seconds``, with
at least three untraced repeats, or with ``--trace 1`` at least one
untraced and one traced, alternating. The figures reported are medians
over repeats. End-to-end times are given at a reference CPU speed, which
the child measures with an in-process probe (``child.SpeedProbe``); the
wall-clock figures are printed beside them.

Correctness is checked on every repeat: each CLI command must succeed,
every decomposed round must meet the 1e-8 residual gate, each command's
outputs must be byte-identical to the first repeat's, the work counts must
match the workload definition, and the outputs and counts must match the
digests pinned in ``pins.json`` for this seed and environment. Any of
these that fails is one failed operation. Under an environment whose
fingerprint has no pins the pinned comparison is reported as unverified.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. The lines before it name every figure with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from child import THREAD_VARS  # noqa: E402
from spans import WRAPPED, percentile, summarize  # noqa: E402

CHILD = HERE / "child.py"
PINS = HERE / "pins.json"
RESIDUAL_GATE = 1e-8  # the decompose gate, checked again from the texts
BUDGET_S = 165.0  # a run must end well inside 180 s
# The speed probe's typical time on the development machine (2-vCPU Xeon VM).
REF_PROBE_S = 0.0002
WORK_KEYS = ("steps", "rounds", "client_updates", "snapshots", "decomposed_rounds",
             "trace_bytes")


class ChildFailed(Exception):
    pass


def child_env(pycache: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    # Bytecode goes to a cache of this run's own, which the untimed
    # preparing child fills. Every timed child then reads the same warm
    # bytecode, whatever __pycache__ directories the checkout holds.
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(args, rep_dir: Path, prep_dir: Path, trace: bool, prepare: bool,
              timeout: float) -> dict:
    """Start one child, time its set-up from spawn to ``ready``, and return
    its result with ``setup_wall_s`` and the number of operations it planned."""
    cmd = [sys.executable, str(CHILD), "--workload", args.workload,
           "--scale", args.scale, "--seed", str(args.seed), "--rep-dir", str(rep_dir),
           "--prep-dir", str(prep_dir), "--trace", str(int(trace))]
    if prepare:
        cmd.append("--prepare")
    started = time.perf_counter()
    deadline = started + timeout
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(prep_dir / "pycache"),
                            cwd=args.root)
    ops, setup_wall_s = 1, None
    try:
        if not prepare:
            ready, _, _ = select.select([proc.stdout], [], [], timeout)
            line = proc.stdout.readline() if ready else b""
            setup_wall_s = time.perf_counter() - started
            if line.startswith(b"ready "):
                ops = int(line.split()[1])
        # The child prints nothing after "ready", so waiting cannot block on the pipe.
        rc = proc.wait(max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child timed out after {timeout:.0f} s", ops)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    result_path = rep_dir / "result.json"
    if rc != 0 or not result_path.exists():
        raise ChildFailed(f"child exited with {rc}", ops)
    result = json.loads(result_path.read_text())
    result["setup_wall_s"] = setup_wall_s
    result["ops"] = ops
    spans_path = rep_dir / "spans.json"
    if spans_path.exists():
        result["layers"] = summarize(json.loads(spans_path.read_text()))
    return result


@contextlib.contextmanager
def scratch_dir(root: Path, tag: str):
    """A fresh directory under perfbench/_work, removed on exit."""
    path = root / "perfbench" / "_work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            path.parent.rmdir()


def fingerprint_id(fp: dict) -> str:
    return hashlib.sha256(json.dumps(fp, sort_keys=True).encode()).hexdigest()[:16]


def load_pins(fp_id: str, scale: str, workload: str) -> dict | None:
    if not PINS.exists():
        return None
    pins = json.loads(PINS.read_text())
    return pins.get("fingerprints", {}).get(fp_id, {}).get(scale, {}).get(workload)


def work_counts(rep: dict) -> dict:
    counts = dict(rep["work"])
    counts["trace_bytes"] = rep["observed"]["trace_bytes"]
    return {key: counts[key] for key in WORK_KEYS}


def check_rep(rep: dict, first: dict | None, pinned: dict | None, seed: int,
              notes: list[str]) -> set[int]:
    """Indices of this repeat's operations that failed a check."""
    failed = {i for i, rc in enumerate(rep["op_rc"]) if rc != 0}
    observed, work = rep["observed"], rep["work"]
    for i, residual in enumerate(observed["residuals"], start=1):
        if not residual <= RESIDUAL_GATE:
            failed.add(i)
            notes.append(f"round {i - 1}: residual {residual:.3e} exceeds {RESIDUAL_GATE:.0e}")
    for key in ("rounds", "snapshots"):
        if key in observed and observed[key] != work[key]:
            failed.add(0)
            notes.append(f"{key}: wrote {observed[key]}, definition says {work[key]}")
    if work["decomposed_rounds"] and observed["trace_files"] != work["decomposed_rounds"]:
        failed.add(0)
        notes.append(f"trace files: {observed['trace_files']}, rounds {work['rounds']}")
    if first is not None:
        for i, (a, b) in enumerate(zip(rep["op_digests"], first["op_digests"])):
            if a != b:
                failed.add(i)
                notes.append(f"operation {i} ({rep['op_names'][i]}): outputs differ from repeat 0")
        if work_counts(rep) != work_counts(first) or (
            observed["bytes_written"] != first["observed"]["bytes_written"]
        ):
            failed.add(0)
            notes.append("work counts differ from repeat 0")
    if pinned is not None:
        digest = pinned["digests"].get(str(seed))
        if digest is not None and digest != rep["digest"]:
            failed.add(0)
            notes.append(f"outputs differ from the digest pinned for seed {seed}")
        if pinned["work"] != work_counts(rep):
            failed.add(0)
            notes.append("work counts differ from the pinned counts")
    return failed


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer figures: the median over traced repeats of each value."""

    def med(fn):
        return statistics.median(fn(rep) for rep in traced)

    def layer(rep, name):
        return rep["layers"].get(name, {"calls": 0, "self_s": 0.0, "durations": []})

    out: dict[str, float] = {}
    for name in sorted(span for _, _, span in WRAPPED):
        out[f"{name}.calls"] = med(lambda rep: layer(rep, name)["calls"])
        out[f"{name}.self_s"] = med(lambda rep: layer(rep, name)["self_s"])
        out[f"{name}.ms_p50"] = med(lambda rep: 1e3 * percentile(layer(rep, name)["durations"], 50))
        out[f"{name}.ms_p90"] = med(lambda rep: 1e3 * percentile(layer(rep, name)["durations"], 90))
    calls = out["model.gradient.calls"]
    out["model.gradient.us_per_call"] = 1e6 * out["model.gradient.self_s"] / calls if calls else 0.0
    out["cli.bytes_written"] = med(lambda rep: rep["observed"]["bytes_written"])
    out["config.load_config.s"] = med(lambda rep: rep["load_config_s"])
    out["config.build_dataset.s"] = med(lambda rep: rep["build_dataset_s"])
    out["trace.overhead_s"] = med(run_s) - statistics.median(map(run_s, untraced))
    return out


def speed(probes: list[float]) -> float:
    """The CPU's mean speed over the probes, relative to REF_PROBE_S."""
    return statistics.fmean(REF_PROBE_S / p for p in probes)


def setup_s(rep: dict) -> float:
    """The repeat's set-up time at the reference CPU speed."""
    return rep["setup_wall_s"] * speed(rep["setup_probes_s"])


def run_s(rep: dict) -> float:
    """The repeat's run time without the probes, at the reference CPU speed."""
    return (rep["run_wall_s"] - rep["probes_in_run_s"]) * speed(rep["run_probes_s"])


def end_to_end_metrics(reps: list[dict]) -> dict[str, float]:
    steps = reps[0]["work"]["steps"]
    norm_s = statistics.median(map(run_s, reps))
    wall_s = statistics.median(rep["run_wall_s"] for rep in reps)
    decompose = [s for rep in reps for name, s in zip(rep["op_names"], rep["op_s"])
                 if name == "decompose"]
    out = {
        "setup_s": statistics.median(map(setup_s, reps)),
        "run_s": norm_s,
        "steps_per_s": steps / norm_s,
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "setup_wall_s": statistics.median(rep["setup_wall_s"] for rep in reps),
        "run_wall_s": wall_s,
        "steps_per_wall_s": steps / wall_s,
        "cpu_speed": statistics.median(speed(rep["run_probes_s"]) for rep in reps),
    }
    if decompose:
        out["decompose_ms_p50"] = 1e3 * percentile(decompose, 50)
        out["decompose_ms_p90"] = 1e3 * percentile(decompose, 90)
    return out


def measure(args) -> dict:
    """Prepare, run repeats until the time is up, and check every repeat."""
    begun = time.perf_counter()
    with scratch_dir(args.root, args.workload) as work_dir:
        prep_dir = work_dir / "prep"
        prep = run_child(args, prep_dir, prep_dir, False, True, BUDGET_S)
        fp = prep["fingerprint"]
        fp_id = fingerprint_id(fp)
        pinned = load_pins(fp_id, args.scale, args.workload)
        min_reps = 2 if args.trace else 3
        reps, attempted, failed, notes, longest = [], 0, 0, [], 0.0
        started = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            rep_dir = work_dir / f"rep_{len(reps):02d}"
            remaining = BUDGET_S - (time.perf_counter() - begun)
            t = time.perf_counter()
            try:
                rep = run_child(args, rep_dir, prep_dir, traced, False, remaining)
            except ChildFailed as exc:
                message, ops = exc.args
                attempted += ops
                failed += ops
                notes.append(f"repeat {len(reps)}: {message}")
                break
            finally:
                shutil.rmtree(rep_dir, ignore_errors=True)
            longest = max(longest, time.perf_counter() - t)
            rep["traced"] = traced
            attempted += rep["ops"]
            failed += len(check_rep(rep, reps[0] if reps else None, pinned, args.seed, notes))
            reps.append(rep)
            # Stop once the next repeat would end after --seconds.
            if len(reps) >= min_reps and time.perf_counter() - started + longest > args.seconds:
                break
            if time.perf_counter() - begun + 1.5 * longest > BUDGET_S:
                break

    if pinned is None:
        pin_status = "unverified (no pins for this environment fingerprint)"
    elif str(args.seed) not in pinned["digests"]:
        pin_status = f"unpinned seed {args.seed} (work counts checked against pins)"
    else:
        pin_status = "checked"
    return {
        "fingerprint": fp, "fingerprint_id": fp_id, "pin_status": pin_status,
        "reps": reps, "untraced": [rep for rep in reps if not rep["traced"]],
        "traced": [rep for rep in reps if rep["traced"]],
        "attempted": attempted, "failed": failed, "notes": notes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fedmetasim benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs the self-check's smoke-sized inputs")
    args = parser.parse_args(argv)
    args.root = Path.cwd()
    # Turn SIGTERM into an exit, so the child is killed and awaited and the
    # scratch directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (args.root / "src" / "fedmetasim" / "cli.py").is_file():
        print("error: run from the root of a fedmetasim checkout (no src/fedmetasim)",
              file=sys.stderr)
        return 2
    bench = json.loads((args.root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    try:
        m = measure(args)
    except ChildFailed as exc:
        print(f"error: preparing the inputs failed: {exc.args[0]}", file=sys.stderr)
        return 1
    if not m["untraced"] or (args.trace and not m["traced"]):
        for note in m["notes"]:
            print(f"error: {note}", file=sys.stderr)
        print("error: no complete measurement", file=sys.stderr)
        return 1

    fp = m["fingerprint"]
    threads = ",".join(f"{k}={v}" for k, v in sorted(fp["threads"].items()))
    print(f"env fingerprint={m['fingerprint_id']} python={fp['python']} numpy={fp['numpy']} "
          f"blas={fp['blas']!r} nproc={fp['nproc']} cpu={fp['cpu']!r} threads={threads}")
    first = m["reps"][0]
    counts = work_counts(first)
    print("work " + " ".join(f"{k}={v}" for k, v in counts.items())
          + f" bytes_written={first['observed']['bytes_written']}")
    print(f"check repeats={len(m['reps'])} traced={len(m['traced'])} "
          f"pinned={m['pin_status']} residual_gate={RESIDUAL_GATE:.0e}")
    for note in m["notes"]:
        print(f"check failure: {note}")

    e2e = end_to_end_metrics(m["untraced"])
    e2e["failed_frac"] = m["failed"] / m["attempted"]
    units = {"setup_s": "s", "run_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB",
             "setup_wall_s": "s", "run_wall_s": "s", "steps_per_wall_s": "1/s",
             "cpu_speed": "ratio", "failed_frac": "1", "decompose_ms_p50": "ms",
             "decompose_ms_p90": "ms"}
    for name, value in e2e.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    print("run_wall_s per repeat: " + " ".join(f"{rep['run_wall_s']:.4f}" for rep in m["untraced"]))
    print("run_s per repeat: " + " ".join(f"{run_s(rep):.4f}" for rep in m["untraced"]))

    if args.trace:
        layers = layer_metrics(m["traced"], m["untraced"])
        gone = {span for rep in m["traced"] for span in rep["absent"]}
        wanted = [w for w in bench["per_layer"]
                  if w["name"] in layers and not any(w["name"].startswith(g + ".") for g in gone)]
        absent = sorted({w["name"] for w in bench["per_layer"]} - {w["name"] for w in wanted})
        print(f"check model.gradient.calls={layers['model.gradient.calls']:.0f} "
              f"steps={counts['steps']}")
        if absent:
            print("absent " + " ".join(absent))
        for w in wanted:
            print(f"metric {w['name']} {layers[w['name']]:.6g} {w['unit']}")
        metrics = {w["name"]: {"value": layers[w["name"]], "unit": w["unit"]} for w in wanted}
    else:
        metrics = {w["name"]: {"value": e2e[w["name"]], "unit": w["unit"]}
                   for w in bench["end_to_end"]}
    print(json.dumps({"correct": m["failed"] == 0, "attempted": m["attempted"],
                      "failed": m["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
