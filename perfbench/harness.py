"""Workloads, closed-loop passes and output checks of the pipeline benchmark.

One pass runs the eight pipeline stages in order, each starting when the
previous one has returned: one client, closed loop, the way a researcher
drives the CLI.  Stages go through ``lemmabench.cli.main`` except the
record-mode ``run`` stage, which needs a transport and so calls
``experiment.run_predictions`` directly.

Each pass, each set-up and the fixture self-check is a job that runs in a
fresh ``python3 perfbench/harness.py JOB`` process, which imports
lemmabench anew.  The stages of one pass share that process, but no module
state (a memo table, a cache) carries from one pass into the next, just as
none carries between two CLI invocations.
The parent (``Bench``) never imports lemmabench.  It starts one job at a
time, checks each pass's output digest, and removes the pass's directory,
untimed, afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import synth
from spans import METRIC_UNITS, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODULES = ("cli", "experiment", "corpus", "editscript", "baseline", "prompt", "gateway", "align",
           "evaluation")
JOB_TIMEOUT_S = 170
STAGES = ("ingest", "split", "induce", "train-baseline", "run", "score", "compare", "report")
REPORTING = ("score", "compare", "report")
SETUP_REPEATS = 3
MIN_PASSES = 2


@dataclass(frozen=True)
class Workload:
    name: str
    shape: synth.Shape
    cache_mode: str | None  # None: baseline only; "replay" or "record" adds two LLM systems
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "baseline-100k",
            synth.Shape(train=4000, dev=500, test=500, median_len=17, sigma=0.55, min_len=3,
                        max_len=80, lemmas=12000),
            None,
            "~100k tokens, baseline only: corpus, editscript and baseline do the work; "
            "gateway, prompt and align stay idle",
        ),
        Workload(
            "llm-replay-long",
            synth.Shape(train=200, dev=300, test=400, median_len=36, sigma=0.42, min_len=4,
                        max_len=150, lemmas=5000),
            "replay",
            "400 long test sentences replayed from a recorded cache: align dominates run, "
            "gateway read path",
        ),
        Workload(
            "llm-record-short",
            synth.Shape(train=200, dev=200, test=400, median_len=8, sigma=0.35, min_len=4,
                        max_len=14, lemmas=4000),
            "record",
            "400 short test sentences recorded into an empty cache: gateway write path, "
            "align light",
        ),
    )
}

_PROVIDER = {"base_url": "http://sim.invalid/v1", "model": "sim-chat-1",
             "api_key_env": "LEMMABENCH_SIM_KEY", "temperature": 1.0, "top_p": 1.0,
             "max_retries": 0, "retry_backoff": 0.0}
_LLM_SYSTEMS = [
    {"name": "llm-basic-4shot", "kind": "llm",
     "prompt": {"template": "basic", "input_mode": "word-list", "shots": 4,
                "selection": "most-errors", "seed": 0}},
    {"name": "llm-full-0shot", "kind": "llm",
     "prompt": {"template": "full", "input_mode": "sentence-string", "shots": 0,
                "selection": "random", "seed": 1}},
]


# Wall times on a shared machine drift with its load by tens of percent:
# a fixed pure-Python workload varies that much within a second (its
# autocorrelation fades over ~0.3 s) and across minutes.  So every timed
# step is bracketed by samples of that reference workload and reported in
# reference seconds: wall x (REFERENCE_S / held) ** REFERENCE_ELASTICITY,
# where `held` is the reference time while the step ran.  For a short step
# that is the mean of its two neighbouring samples; a long step averages
# the fast swings out, so it takes the mean of all samples of its group (a
# pass, or the set-ups); the two are blended with weight
# exp(-wall / REFERENCE_TAU_S).  The pipeline slows down less than the
# reference does: over ~190 passes of the three workloads on a 2-vCPU VM,
# log stage time against log reference time had slopes 0.5-0.97, median
# ~0.75, which is REFERENCE_ELASTICITY.  REFERENCE_S is the reference
# workload's typical time on that VM with CPython 3.11, so reference
# seconds read close to wall seconds there.
REFERENCE_S = 0.03
REFERENCE_TAU_S = 0.3
REFERENCE_ELASTICITY = 0.75

_REFERENCE_PAIRS = [(f"{i * 7919 % 10007:x}{'abcdefghij'[i % 10] * (i % 5)}",
                     f"{'aeiou'[i % 5]}{i * 104729 % 10007:x}{'xyz'[i % 3]}") for i in range(300)]


def reference_seconds() -> float:
    """Time a fixed pure-Python workload shaped like the pipeline's hot loops:
    a longest-common-substring scan over short strings, dict counting, a sort."""
    start = time.perf_counter()
    for _ in range(8):
        table: dict[str, int] = {}
        for word, other in _REFERENCE_PAIRS:
            run = [0] * (len(other) + 1)
            best = 0
            for char in word:
                diagonal = 0
                for j, other_char in enumerate(other, 1):
                    current = run[j]
                    run[j] = diagonal + 1 if char == other_char else 0
                    best = max(best, run[j])
                    diagonal = current
            table[word[-3:]] = table.get(word[-3:], 0) + best
        "".join(sorted(table))
    return time.perf_counter() - start


class Clock:
    """Times consecutive steps, each between two reference samples."""

    def __init__(self):
        self.last = reference_seconds()

    def time(self, call) -> dict:
        """Run call(); returns its wall and CPU seconds and the samples around it."""
        before = self.last
        start, cpu = time.perf_counter(), os.times()
        call()
        wall, cpu_end = time.perf_counter() - start, os.times()
        self.last = reference_seconds()
        return {"wall": wall, "user": cpu_end.user - cpu.user,
                "system": cpu_end.system - cpu.system, "before": before, "after": self.last}


def reference_times(steps: list[dict]) -> list[float]:
    """Reference seconds of a group of consecutive steps (see REFERENCE_S)."""
    group = statistics.mean([steps[0]["before"]] + [step["after"] for step in steps])
    out = []
    for step in steps:
        weight = math.exp(-step["wall"] / REFERENCE_TAU_S)
        held = weight * (step["before"] + step["after"]) / 2 + (1 - weight) * group
        out.append(step["wall"] * (REFERENCE_S / held) ** REFERENCE_ELASTICITY)
    return out


def parallelism() -> int:
    return len(os.sched_getaffinity(0))


def experiment_config(workload: Workload, corpus: str, cache_dir: str) -> dict:
    shape = workload.shape
    llm = workload.cache_mode is not None
    return {
        "name": workload.name,
        "language": "Spanish",
        "corpus": {"path": corpus, "format": "conllu", "name": "synth"},
        "split": {"train": shape.train, "dev": shape.dev, "test": shape.test,
                  "rule": "first-n", "seed": 0},
        "baseline": {"max_suffix_len": 5},
        "systems": [{"name": "baseline", "kind": "baseline"}] + (_LLM_SYSTEMS if llm else []),
        "provider": _PROVIDER,
        "runs": 3 if llm else 1,
        "parallelism": parallelism(),
        "cache_dir": cache_dir,
        "cache_mode": workload.cache_mode or "replay",
        "out_dir": "out",
        "scoring": {"policy": "strict", "alpha": 0.05, "mcnemar_run": 0},
        "comparisons": "all-pairs",
    }


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, ensure_ascii=False) + "\n", "utf-8")


def output_digest(out_dir: Path, predictions_only: bool = False) -> str:
    """sha256 over the non-comment lines of the score, McNemar and prediction TSVs.

    Comment lines carry provenance (config hash, stamps), not results, so
    they are left out.
    """
    files = sorted((out_dir / "predictions").rglob("*.tsv"))
    if not predictions_only:
        files += [out_dir / "reports" / "scores.tsv", out_dir / "reports" / "mcnemar.tsv"]
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.relative_to(out_dir).as_posix().encode("utf-8") + b"\n")
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if not line.startswith("#"):
                    digest.update(line.encode("utf-8"))
    return digest.hexdigest()




def check_sources():
    """Exit unless this checkout holds the program and the committed fixture."""
    for needed in (ROOT / "src" / "lemmabench" / "__init__.py",
                   ROOT / "fixtures" / "replay" / "config.json"):
        if not needed.is_file():
            raise SystemExit(f"perfbench: {needed} not found; run from a lemmabench checkout")


def load_lemmabench() -> dict:
    """Import lemmabench from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"lemmabench.{name}") for name in MODULES}
    origin = Path(modules["cli"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: imported lemmabench from {origin}, not from {src}")
    return modules


@dataclass
class Ops:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, what: str):
        self.failed += 1
        self.errors.append(what)

    def merge(self, other: dict):
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.errors += other["errors"]


class Bench:
    """One benchmark invocation: a workload, a seed, a work directory.

    Runs in the parent process; every step that calls lemmabench is a job
    in a child process (see the module docstring).
    """

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.ops = Ops()
        self.parallelism = parallelism()
        self.inputs: Path | None = None
        self.tokens = 0
        self.stats: dict = {}
        self.reference_digest: str | None = None
        self.setup_steps: list[dict] = []
        self._jobs = 0
        self._passes = 0

    def _job(self, kind: str, **details) -> dict:
        """Run one job in a fresh process and return its result."""
        self._jobs += 1
        job_file = self.work / f"job-{self._jobs}.json"
        result_file = self.work / f"job-{self._jobs}.result.json"
        _write_json(job_file, {"kind": kind, "workload": asdict(self.workload), "seed": self.seed,
                               "parallelism": self.parallelism, "result": str(result_file),
                               **details})
        child = subprocess.run([sys.executable, str(Path(__file__).resolve()), str(job_file)],
                               cwd=ROOT, capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
        if child.returncode != 0 or not result_file.is_file():
            raise SystemExit(f"perfbench: {kind} job exited {child.returncode}:\n"
                             f"{child.stderr.strip()[-3000:]}")
        result = json.loads(result_file.read_text("utf-8"))
        job_file.unlink()
        result_file.unlink()
        self.ops.merge(result["ops"])
        return result

    def self_check(self):
        """Replay the committed fixture, all eight stages, offline; compare reports."""
        out = self.work / "selfcheck" / "out"
        self._job("selfcheck", out=str(out))
        shutil.rmtree(self.work / "selfcheck", ignore_errors=True)

    def setup(self, repeats: int) -> list[float]:
        """Generate this workload's inputs `repeats` times; returns reference seconds.

        Each repeat is its own job and writes a fresh directory; the last
        one feeds the passes.  Each repeat after the first starts right
        after the previous one's directory is removed, as each pass starts
        right after the previous pass's: creating files soon after deleting
        many costs far more on some filesystems (see README), so every
        timed step should follow the same kind of deletion.
        """
        for index in range(repeats):
            if self.inputs is not None:
                shutil.rmtree(self.inputs)
            inputs = self.work / f"inputs-{index}"
            result = self._job("setup", inputs=str(inputs))
            self.setup_steps.append(result["step"])
            self.tokens, self.stats = result["tokens"], result["stats"]
            self.inputs = inputs
        return reference_times(self.setup_steps)

    def run_pass(self, pinned: str | None, spans: Path | None = None) -> dict:
        """Run the eight stages once as one job, then check and remove its outputs.

        Returns per-stage reference seconds, their sum, the raw steps and
        the pass process's peak RSS.  With ``spans`` the pass is traced,
        appends its spans to that file and also returns its per-layer
        metrics (seconds rescaled like the stages).
        """
        self._passes += 1
        pass_dir = self.work / f"pass-{self._passes}"
        cache = "cache" if self.workload.cache_mode == "record" else \
            os.path.relpath(self.inputs / "cache", pass_dir)
        config = pass_dir / "config.json"
        _write_json(config, experiment_config(
            self.workload, os.path.relpath(self.inputs / "corpus.conllu", pass_dir), cache))
        result = self._job(
            "pass", config=str(config), pass_index=self._passes,
            spans=str(spans) if spans else None,
            # Untimed, once per invocation: record and replay must agree.
            replay_check=self.workload.cache_mode == "record" and self._passes == 1)
        shutil.rmtree(pass_dir)

        digest = result["digest"]
        if digest is not None:
            reference = pinned or self.reference_digest
            if reference is None:
                self.reference_digest = digest
            elif digest != reference:
                self.ops.fail(f"pass {self._passes}: output digest {digest[:12]} "
                              f"!= {reference[:12]}")
        steps = result["steps"]
        times = dict(zip(STAGES, reference_times(steps)))
        seconds = sum(times.values())
        out = {"stages": times, "seconds": seconds, "steps": dict(zip(STAGES, steps)),
               "rss_mb": result["rss_mb"], "pid": result["pid"]}
        if spans:
            # Span times are wall seconds; convert with the pass's own ratio.
            scale = seconds / sum(step["wall"] for step in steps)
            out["layers"] = {name: value * scale if METRIC_UNITS[name] == "s" else value
                             for name, value in result["layers"].items()}
            out["untraced"] = result["untraced"]
        return out


# -- jobs: what a child process runs -------------------------------------------


class Stages:
    """Invokes stages in a child process and records each as an operation."""

    def __init__(self, lb: dict, ops: Ops, tracer: Tracer | None = None):
        self.lb = lb  # lemmabench modules by short name
        self.ops = ops
        self.tracer = tracer

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def cli(self, argv: list[str]) -> int:
        with self._span("cli.main"):
            return self.lb["cli"].main(argv)

    def invoke(self, label: str, call):
        """Run one stage operation and record whether it failed."""
        self.ops.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with self._span(f"stage.{label}"):
                    code = call()
        except Exception:  # noqa: BLE001 - a failed stage is a measured outcome
            self.ops.fail(f"{label}: {traceback.format_exc(limit=4)}")
            return
        if code != 0:
            self.ops.fail(f"{label}: exit {code}: {err.getvalue().strip()}")

    def stage(self, stage: str, config: Path, model=None, transport=None):
        """One pipeline stage; the record-mode run stage gets the simulated model."""
        if model is None:
            self.invoke(stage, lambda: self.cli([stage, "--config", str(config)]))
            return
        experiment, gateway = self.lb["experiment"], self.lb["gateway"]

        def record() -> int:
            with synth.run_index_hook(gateway.LlmGateway):
                experiment.run_predictions(experiment.load_config(config),
                                           transport=transport or model)
            model.check_hooked()
            return 0

        self.invoke(stage, record)


def _selfcheck_job(lb: dict, job: dict, ops: Ops) -> dict:
    fixture = ROOT / "fixtures" / "replay"
    out = Path(job["out"])
    experiment = lb["experiment"]
    config = fixture / "config.json"
    stages = Stages(lb, ops)

    def forbidden(cfg, prompt_text):
        raise RuntimeError("fixture replay attempted a provider call")

    def run_offline() -> int:
        cfg = experiment.load_config(config, out_dir=str(out))
        experiment.run_predictions(cfg, transport=forbidden)
        return 0

    for stage in STAGES:
        if stage == "run":
            stages.invoke("selfcheck.run", run_offline)
        else:
            stages.invoke(f"selfcheck.{stage}", lambda s=stage: lb["cli"].main(
                [s, "--config", str(config), "--out", str(out)]))
    if ops.failed == 0:
        differ = [path.name for path in sorted((fixture / "expected").iterdir())
                  if (out / "reports" / path.name).read_bytes() != path.read_bytes()]
        if differ:
            ops.fail(f"selfcheck: reports {differ} differ from the fixture")
    return {}


def _setup_job(lb: dict, job: dict, workload: Workload) -> dict:
    inputs = Path(job["inputs"])
    made = {}

    def generate():
        corpus = made["corpus"] = synth.generate(job["seed"], workload.shape)
        inputs.mkdir(parents=True)
        (inputs / "corpus.conllu").write_text(synth.conllu_text(corpus), "utf-8")
        if workload.cache_mode == "replay":
            _record_cache(lb, workload, inputs, corpus, job["parallelism"])

    step = Clock().time(generate)
    return {"step": step, "tokens": made["corpus"].tokens(), "stats": made["corpus"].stats()}


def _record_cache(lb: dict, workload: Workload, inputs: Path, corpus: synth.GeneratedCorpus,
                  workers: int):
    """Record every LLM request of the workload into inputs/cache."""
    experiment, gateway, prompt = (lb[m] for m in ("experiment", "gateway", "prompt"))
    config = inputs / "record.json"
    _write_json(config, experiment_config(workload, "corpus.conllu", "cache"))
    cfg = experiment.load_config(config, out_dir=str(inputs / "record-out"))
    experiment.run_ingest(cfg)
    splits = experiment.run_split(cfg)
    experiment.run_induce(cfg)
    experiment.run_train_baseline(cfg)
    model = synth.SimulatedChatModel(corpus.gold_by_words())
    recorder = gateway.LlmGateway(cfg.provider, gateway.ResponseCache(cfg.cache_dir),
                                  gateway.RECORD, transport=model)
    with synth.run_index_hook(gateway.LlmGateway):
        for system in cfg.systems:
            if system.kind != "llm":
                continue
            examples = experiment.select_system_examples(cfg, system, splits["dev"])
            prompts = [prompt.render_prompt(system.prompt, examples, s)
                       for s in splits["test"].sentences]
            batch = recorder.run_batch(prompts, runs=cfg.runs, parallelism=workers)
            model.check_hooked()
            if batch.failures:
                raise RuntimeError(f"recording failed: {batch.failures[:3]}")
    shutil.rmtree(inputs / "record-out")


def _pass_job(lb: dict, job: dict, workload: Workload, ops: Ops) -> dict:
    config = Path(job["config"])
    model = transport = None
    if workload.cache_mode == "record":
        model = synth.SimulatedChatModel(synth.generate(job["seed"], workload.shape)
                                         .gold_by_words())
    tracer = Tracer(job["pass_index"]) if job["spans"] else None
    if tracer and model:
        transport = tracer.wrap_transport(model)
    stages = Stages(lb, ops, tracer)

    clock = Clock()
    steps = []
    with tracer.install(lb) if tracer else contextlib.nullcontext():
        for stage in STAGES:
            steps.append(clock.time(functools.partial(
                stages.stage, stage, config, *((model, transport) if stage == "run" else ()))))
    result = {"steps": steps, "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "pid": os.getpid(), "digest": None}
    if tracer:
        result["layers"] = layer_metrics(tracer.spans, tracer.counts, tracer.pairs,
                                         job["parallelism"])
        result["untraced"] = tracer.untraced
        tracer.write(Path(job["spans"]))

    if ops.failed == 0:
        out = config.parent / "out"
        result["digest"] = output_digest(out)
        if job["replay_check"]:
            recorded = output_digest(out, predictions_only=True)
            stages.invoke("replay-check", lambda: lb["cli"].main(
                ["run", "--config", str(config), "--cache-mode", "replay"]))
            if output_digest(out, predictions_only=True) != recorded:
                ops.fail("replaying the recorded cache changed the predictions")
    return result


def run_job(job_file: str) -> int:
    """Child-process entry: run the job described in job_file, write its result."""
    job = json.loads(Path(job_file).read_text("utf-8"))
    spec = job["workload"]
    workload = Workload(**{**spec, "shape": synth.Shape(**spec["shape"])})
    lb = load_lemmabench()
    ops = Ops()
    if job["kind"] == "selfcheck":
        result = _selfcheck_job(lb, job, ops)
    elif job["kind"] == "setup":
        result = _setup_job(lb, job, workload)
    else:
        result = _pass_job(lb, job, workload, ops)
    result["ops"] = asdict(ops)
    _write_json(Path(job["result"]), result)
    return 0


if __name__ == "__main__":
    raise SystemExit(run_job(sys.argv[1]))
