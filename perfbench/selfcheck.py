"""Fast self-check of the benchmark on smoke-sized inputs.

    python3 perfbench/selfcheck.py

Run from the root of a checkout; takes a few seconds. It runs every
workload untraced and traced at the ``tiny`` scale and asserts that each
run is correct, that every metric named in ``BENCHMARK.json`` is printed
with its unit or marked absent, that the pinned-digest gate ran where
this environment has pins, and that the traced ``model.gradient`` calls
equal the steps counted from the workload definition. It also feeds the correctness checks repeats
that must fail, and confirms that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from child import SCALES  # noqa: E402

SEED = 0


def expect(condition, message: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck failed: {message}")


def benchmark(root: Path, workload: str, trace: int):
    """Run the benchmark as the checkout at ``root`` holds it."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def check_run(bench: dict, workload: str, trace: int, proc) -> None:
    where = f"{workload} --trace {trace}"
    expect(proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, where)
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{where}: {result}\n{proc.stdout}")
    pinned = next(line for line in lines if line.startswith("check repeats="))
    if "pinned=unverified" in pinned:
        print(f"note {where}: no pins for this environment, digests unverified")
    else:
        expect("pinned=checked" in pinned, f"{where}: the pinned-digest gate did not run")
    absent = set()
    for line in lines:
        if line.startswith("absent "):
            absent.update(line.split()[1:])
    printed = {m.group(1): m.group(2) for m in
               (re.match(r"metric (\S+) \S+ (\S+)$", line) for line in lines) if m}
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        if name in absent:
            expect(name not in result["metrics"], f"{where}: {name} both absent and reported")
            continue
        expect(printed.get(name) == unit, f"{where}: {name} not printed with unit {unit}")
        expect(result["metrics"][name]["unit"] == unit, f"{where}: {name}")
        expect(isinstance(result["metrics"][name]["value"], (int, float)), f"{where}: {name}")
    for name in ("failed_frac", "run_s", "setup_s"):
        expect(name in printed, f"{where}: {name} not printed")
    if workload == "traced_decompose":
        expect("decompose_ms_p50" in printed and "decompose_ms_p90" in printed, where)
    if trace and "model.gradient.calls" not in absent:
        # Each SGD step calls gradient once, so the spans count the steps the
        # workload definition gives. A change that batches steps into fewer
        # calls has to revise this check on purpose.
        counted = next(re.match(r"check model\.gradient\.calls=(\d+) steps=(\d+)$", line)
                       for line in lines if line.startswith("check model.gradient.calls="))
        expect(counted.group(1) == counted.group(2),
               f"{where}: model.gradient ran {counted.group(1)} times for "
               f"{counted.group(2)} steps")


def check_gates() -> None:
    """Repeats that break each correctness check must count as failures."""
    good = {
        "op_rc": [0, 0], "op_names": ["train", "decompose"], "op_digests": ["a", "b"],
        "digest": "d", "work": {"steps": 4, "rounds": 1, "client_updates": 1, "snapshots": 1,
                                "decomposed_rounds": 1},
        "observed": {"rounds": 1, "snapshots": 1, "trace_files": 1, "trace_bytes": 10,
                     "bytes_written": 20, "residuals": [1e-16]},
    }
    pinned = {"digests": {str(SEED): "d"}, "work": run.work_counts(good)}
    expect(not run.check_rep(good, good, pinned, SEED, []), "a good repeat failed a gate")

    def broken(edit) -> dict:
        rep = copy.deepcopy(good)
        edit(rep)
        return rep

    cases = {
        "command failed": broken(lambda r: r["op_rc"].__setitem__(1, 1)),
        "residual gate": broken(lambda r: r["observed"]["residuals"].__setitem__(0, 1e-6)),
        "repeat differs": broken(lambda r: r["op_digests"].__setitem__(1, "x")),
        "pinned digest": broken(lambda r: r.__setitem__("digest", "x")),
        "rounds written": broken(lambda r: r["observed"].__setitem__("rounds", 2)),
        "trace bytes": broken(lambda r: r["observed"].__setitem__("trace_bytes", 11)),
    }
    for what, rep in cases.items():
        expect(run.check_rep(rep, good, pinned, SEED, []), f"gate missed: {what}")


def check_refuses_without_sources(root: Path) -> None:
    """With only BENCHMARK.json and perfbench, the benchmark must fail
    without printing a result."""
    with run.scratch_dir(root, "bare") as bare:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = benchmark(bare, "two_stage", 0)
    expect(proc.returncode != 0, "ran without the program's sources")
    expect(not proc.stdout.strip(), f"printed a result without sources: {proc.stdout}")


def main() -> int:
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    expect(set(layers) == {m["name"] for m in bench["per_layer"]}, "layers.json out of step")
    expect({w["name"] for w in bench["workloads"]} == set(SCALES["tiny"]), "workloads")
    check_gates()
    check_refuses_without_sources(root)
    for workload in SCALES["tiny"]:
        for trace in (0, 1):
            check_run(bench, workload, trace, benchmark(root, workload, trace))
            print(f"ok {workload} --trace {trace}")
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
