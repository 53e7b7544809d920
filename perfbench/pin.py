"""Pin output digests and work counts for the current environment.

    python3 perfbench/pin.py --scale full --seeds 0-23
    python3 perfbench/pin.py --scale tiny --seeds 0-2

Run from the root of a checkout. For each workload and seed this prepares
the inputs, runs one repeat, checks it, and records the digest of its
deterministic outputs and its work counts in ``perfbench/pins.json`` under
the environment fingerprint. A digest or count that disagrees with one
already pinned is refused, never overwritten.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from child import SCALES  # noqa: E402


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=tuple(SCALES), required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-23")
    args = parser.parse_args(argv)
    root = Path.cwd()
    pins = json.loads(run.PINS.read_text()) if run.PINS.exists() else {"fingerprints": {}}

    for workload in SCALES[args.scale]:
        for seed in args.seeds:
            job = argparse.Namespace(workload=workload, scale=args.scale, seed=seed, root=root)
            with run.scratch_dir(root, f"pin-{workload}") as work_dir:
                prep_dir = work_dir / "prep"
                fp = run.run_child(job, prep_dir, prep_dir, False, True, run.BUDGET_S)["fingerprint"]
                rep = run.run_child(job, work_dir / "rep", prep_dir, False, False, run.BUDGET_S)
            notes: list[str] = []
            if run.check_rep(rep, None, None, seed, notes):
                print(f"{workload} seed {seed}: not pinned: {'; '.join(notes)}", file=sys.stderr)
                return 1
            entry = pins["fingerprints"].setdefault(run.fingerprint_id(fp), {"env": fp})
            entry = entry.setdefault(args.scale, {}).setdefault(
                workload, {"work": run.work_counts(rep), "digests": {}})
            old = entry["digests"].setdefault(str(seed), rep["digest"])
            if entry["work"] != run.work_counts(rep) or old != rep["digest"]:
                print(f"{workload} seed {seed}: disagrees with the pinned outputs",
                      file=sys.stderr)
                return 1
            print(f"{workload} seed {seed}: {rep['digest']}")
            run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
