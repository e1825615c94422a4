#!/usr/bin/env python3
"""Pin each workload's output digest for a range of seeds.

    python3 perfbench/make_pins.py --seeds 0-23 [--workload NAME ...]

For every (workload, seed) it generates the inputs, runs one full pass and
stores the digest of the pass's outputs in perfbench/pins.json.  Run it on
a tree whose outputs are trusted: benchmark runs on a pinned seed count a
pass whose digest differs as a failed operation.  Seeds without a pin are
checked for agreement between the passes of one run only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil

import harness


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-23")
    parser.add_argument("--workload", action="append", choices=sorted(harness.WORKLOADS))
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    harness.check_sources()
    pins_file = harness.HERE / "pins.json"
    pins = json.loads(pins_file.read_text("utf-8")) if pins_file.is_file() else {}
    for name in args.workload or sorted(harness.WORKLOADS):
        for seed in seeds:
            work = harness.HERE / "work" / f"pin-{name}-seed{seed}-{os.getpid()}"
            try:
                bench = harness.Bench(harness.WORKLOADS[name], seed, work)
                bench.setup(1)
                bench.run_pass(None)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if bench.ops.failed:
                raise SystemExit(f"{name} seed {seed}: {bench.ops.errors}")
            pins.setdefault(name, {})[str(seed)] = bench.reference_digest
            print(f"{name} seed {seed}: {bench.reference_digest}", flush=True)
            pins_file.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
