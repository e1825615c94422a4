#!/usr/bin/env python3
"""Staged-pipeline benchmark for lemmabench.

Run from the root of a lemmabench checkout:

    python3 perfbench/run.py --workload baseline-100k --seed 1 --seconds 30 --trace 0

It generates the workload's inputs from the seed, replays the committed
fixture once as a self-check, then runs full eight-stage passes for the
given number of seconds, each pass in a fresh process.  With ``--trace 0``
it reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics and the
tracing overhead.  Human-readable
lines come first; the last line of standard output is one JSON object.
A fuller record (environment, input statistics, every sample) goes to
``perfbench/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import time
from pathlib import Path

import harness
from harness import HERE, ROOT
from spans import METRIC_UNITS

RESULTS = HERE / "results"

E2E_UNITS = {
    "setup_s": "s",
    "tokens_per_s": "tokens/s",
    "stage.ingest_s": "s",
    "stage.split_s": "s",
    "stage.induce_s": "s",
    "stage.train_baseline_s": "s",
    "stage.run_s": "s",
    "stage.reporting_s": "s",
    "peak_rss_mb": "MB",
}
TRACE_UNITS = {
    "trace.tokens_per_s": "tokens/s",
    "trace.untraced_tokens_per_s": "tokens/s",
    "trace.overhead": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every metric a traced run reports, with its unit."""
    return {**METRIC_UNITS, **TRACE_UNITS}


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _filesystem(path: Path) -> str:
    """Type of the filesystem holding path, from this process's mount table."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[4]
                kind = fields[fields.index("-") + 1]
                if (str(path) + "/").startswith(mount.rstrip("/") + "/") and len(mount) > len(best):
                    best, fstype = mount, kind
    except (OSError, ValueError, IndexError):
        pass
    return fstype


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lemmabench").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\n" + path.read_bytes())
    return digest.hexdigest()[:16]


def _environment(work: Path, seed: int, parallelism: int) -> dict:
    return {
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "parallelism": parallelism,
        "seed": seed,
        "work_dir": os.path.relpath(work, ROOT),
        "work_filesystem": _filesystem(work),
    }


def _summary(samples: list[float], unit: str) -> dict:
    return {"value": statistics.median(samples), "unit": unit, "samples": len(samples),
            "all": samples}


def measure(workload, seed: int, seconds: float, trace: bool, work: Path,
            pinned: str | None, spans: Path) -> dict:
    bench = harness.Bench(workload, seed, work)
    bench.self_check()
    setups = bench.setup(1 if trace else harness.SETUP_REPEATS)

    # Passes (untraced, or untraced+traced pairs) start until `seconds` have
    # gone by; at least MIN_PASSES untraced ones, or one pair.
    passes, traced = [], []
    start = time.perf_counter()
    while len(passes) < (1 if trace else harness.MIN_PASSES) or \
            time.perf_counter() - start < seconds:
        passes.append(bench.run_pass(pinned))
        if trace:
            traced.append(bench.run_pass(pinned, spans))
    rates = [bench.tokens / p["seconds"] for p in passes]

    metrics: dict[str, dict] = {}
    if trace:
        for name, unit in METRIC_UNITS.items():
            metrics[name] = _summary([p["layers"][name] for p in traced], unit)
        traced_rates = [bench.tokens / p["seconds"] for p in traced]
        metrics["trace.tokens_per_s"] = _summary(traced_rates, "tokens/s")
        metrics["trace.untraced_tokens_per_s"] = _summary(rates, "tokens/s")
        metrics["trace.overhead"] = {
            "value": statistics.median(rates) / statistics.median(traced_rates) - 1,
            "unit": "ratio", "samples": len(traced_rates)}
    else:
        metrics["setup_s"] = _summary(setups, "s")
        metrics["tokens_per_s"] = _summary(rates, "tokens/s")
        for stage in harness.STAGES[:5]:
            metrics[f"stage.{stage.replace('-', '_')}_s"] = _summary(
                [p["stages"][stage] for p in passes], "s")
        metrics["stage.reporting_s"] = _summary(
            [sum(p["stages"][s] for s in harness.REPORTING) for p in passes], "s")
        metrics["peak_rss_mb"] = _summary([p["rss_mb"] for p in passes], "MB")
    ops = bench.ops
    metrics["ops_failed"] = {"value": ops.failed / ops.attempted, "unit": "ratio",
                             "samples": ops.attempted}
    return {
        "workload": workload.name,
        "why": workload.why,
        "trace": trace,
        "seconds": seconds,
        "passes": len(passes) + len(traced),
        "environment": _environment(work, seed, bench.parallelism),
        "inputs": bench.stats,
        "digest": {"pinned": pinned is not None,
                   "reference": pinned or bench.reference_digest},
        "untraced": traced[0]["untraced"] if traced else [],
        "attempted": ops.attempted,
        "failed": ops.failed,
        "errors": ops.errors,
        "metrics": metrics,
        "setup_steps": bench.setup_steps,
        "pass_steps": [p["steps"] for p in passes + traced],
        "pass_pids": [p["pid"] for p in passes + traced],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    harness.check_sources()
    workload = harness.WORKLOADS[args.workload]
    pins_file = HERE / "pins.json"
    pins = json.loads(pins_file.read_text("utf-8")) if pins_file.is_file() else {}
    pinned = pins.get(workload.name, {}).get(str(args.seed))

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    spans = RESULTS / f"{stem}.spans.tsv"
    work = HERE / "work" / stem
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace), work, pinned,
                         spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n", "utf-8")

    for error in result["errors"]:
        print(f"# failed: {error}")
    if result["untraced"]:
        print(f"# untraced (not in the program): {' '.join(result['untraced'])}")
    env = result["environment"]
    print(f"# {workload.name} seed={args.seed} passes={result['passes']} "
          f"parallelism={env['parallelism']} work={env['work_dir']} ({env['work_filesystem']})")
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']} (n={metric['samples']})")
    wanted = per_layer_units() if args.trace else E2E_UNITS
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name]["value"], "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
