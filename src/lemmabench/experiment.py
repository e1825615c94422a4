"""Experiment orchestration: staged pipeline over a JSON configuration.

Stages mirror the CLI subcommands and communicate only through files in
the output directory, so any stage can be rerun in isolation.  Every .tsv
file is in lemmabench.artifact's format:

    corpora/      {corpus}.tsv: the ingested corpus, one block per sentence
    splits/       {corpus}-{train,dev,test}.tsv, and manifest.tsv: split<TAB>id
    inventory/    {corpus}.tsv: the edit-script labels induced from train, and
                  {corpus}.pairs.tsv: the label id and token count of each
                  distinct training pair, which train-baseline learns from
    models/       baseline.tsv: the frequency-table baseline model
    predictions/  {system}/{corpus}.run{r}.tsv and .diag.json per run; the
                  baseline's run on dev ({corpus}-dev.run0) ranks few-shot
                  examples for the most-errors selection
    reports/      runs.tsv (each run's exact tallies) and scores.tsv, both
                  written by score; mcnemar.tsv, written by compare; and
                  report.txt, which report renders from those two alone

No artifact embeds a timestamp or an absolute path, so rerunning an
experiment from the same inputs reproduces every file byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

from . import artifact
from . import baseline as baseline_mod
from . import corpus as corpus_mod
from . import editscript as editscript_mod
from . import evaluation as eval_mod
from . import gateway as gateway_mod
from . import prompt as prompt_mod
from .align import (
    PredictionBlock,
    align as align_prediction,
    parse_output,
    read_diagnostics,
    read_predictions,
    write_diagnostics,
    write_predictions,
)
from .errors import ConfigError, ScoringError

CONLLU = "conllu"
TSV = "tsv"

BASELINE = "baseline"
LLM = "llm"
EXTERNAL = "external"


@dataclass(frozen=True)
class SystemSpec:
    """One system under evaluation; exactly one kind of source."""

    name: str
    kind: str
    prompt: prompt_mod.PromptSpec | None = None
    manual_ids: tuple[str, ...] = ()
    dev_diagnostics: str | None = None  # path; default is the baseline dev run
    predictions: tuple[str, ...] = ()  # external files, one per run or one shared


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    language: str
    corpus_path: str
    corpus_format: str
    corpus_name: str
    split: corpus_mod.SplitSpec
    reduce_to: int | None
    reduce_rule: str
    reduce_seed: int
    max_suffix_len: int
    systems: tuple[SystemSpec, ...]
    provider: gateway_mod.ProviderConfig
    runs: int
    parallelism: int
    cache_dir: str
    cache_mode: str
    out_dir: str
    policy: str
    alpha: float
    mcnemar_run: int
    comparisons: tuple[tuple[str, str], ...]
    config_hash: str


def _hash_config(raw: dict) -> str:
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def _expect(ok: bool, name: str, what: str, value) -> None:
    if not ok:
        raise ConfigError(f"{name} must be {what}, got {json.dumps(value)}")


def _section(value, name: str, keys: tuple[str, ...] | None = None) -> dict:
    """value when it is a JSON object whose keys are all in keys (any key
    when keys is None)."""
    _expect(isinstance(value, dict), name, "a JSON object", value)
    for key in value:
        if keys is not None and key not in keys:
            raise ConfigError(f"{name}.{key} is not a known key; use one of {', '.join(keys)}")
    return value


def _string(value, name: str) -> str:
    _expect(isinstance(value, str), name, "a string", value)
    return value


def _choice(value, name: str, choices: tuple[str, ...]) -> str:
    _expect(value in choices, name, " or ".join(choices), value)
    return value


def _integer(value, name: str, nullable: bool = False) -> int | None:
    """value when it is a JSON integer (true and false are not), or null
    where that is allowed."""
    _expect(type(value) is int or (value is None and nullable), name, "an integer", value)
    return value


def _number(value, name: str) -> float:
    """value when it is a JSON number, integer or not (true and false are not)."""
    _expect(type(value) in (int, float), name, "a number", value)
    return value


def _build(cls, values, name: str, integers: tuple[str, ...], numbers: tuple[str, ...] = ()):
    """cls(**values), refusing a key that is not one of cls's fields, a
    non-string value of a field whose default is a string, a non-integer
    value of a key in integers (null where the default is None) and a
    non-number value of a key in numbers."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key, value in _section(values, name, tuple(fields)).items():
        if isinstance(fields[key].default, str):
            _string(value, f"{name}.{key}")
        if key in integers:
            _integer(value, f"{name}.{key}", nullable=fields[key].default is None)
        if key in numbers:
            _number(value, f"{name}.{key}")
    return cls(**values)


def _parse_system(entry: dict, base: Path, runs: int, language: str) -> SystemSpec:
    entry = _section(entry, "systems entry")
    try:
        name, kind = _string(entry["name"], "systems entry name"), entry["kind"]
    except KeyError as exc:
        raise ConfigError(f"system entry missing {exc}") from exc
    label = f"system {name}"
    if kind == BASELINE:
        _section(entry, label, ("name", "kind"))
        return SystemSpec(name=name, kind=kind)
    if kind == LLM:
        _section(entry, label, ("name", "kind", "prompt", "manual_ids", "dev_diagnostics"))
        prompt = {"language_name": language, **_section(entry.get("prompt", {}), "prompt")}
        spec = _build(prompt_mod.PromptSpec, prompt, "prompt", integers=("shots", "seed"))
        diag = entry.get("dev_diagnostics")
        diag_ok = diag is None or isinstance(diag, str)
        _expect(diag_ok, f"{label}.dev_diagnostics", "a file path", diag)
        manual_ids = entry.get("manual_ids", [])
        ids_ok = isinstance(manual_ids, list) and all(isinstance(i, str) for i in manual_ids)
        _expect(ids_ok, f"{label}.manual_ids", "a list of sentence ids", manual_ids)
        return SystemSpec(
            name=name,
            kind=kind,
            prompt=spec,
            manual_ids=tuple(manual_ids),
            dev_diagnostics=str(base / diag) if diag else None,
        )
    if kind == EXTERNAL:
        _section(entry, label, ("name", "kind", "predictions"))
        paths = entry.get("predictions")
        if not paths:
            raise ConfigError(f"external system {name} needs a predictions path list")
        if isinstance(paths, str):
            paths = [paths]
        paths_ok = isinstance(paths, list) and all(isinstance(p, str) for p in paths)
        _expect(paths_ok, f"{label}.predictions", "a file path or a list of them", paths)
        if len(paths) not in (1, runs):
            raise ConfigError(f"external system {name}: give 1 or {runs} prediction files")
        return SystemSpec(name=name, kind=kind, predictions=tuple(str(base / p) for p in paths))
    raise ConfigError(f"{label}: unknown kind {kind!r}")


def load_config(
    path: str | Path, out_dir: str | None = None, cache_mode: str | None = None
) -> ExperimentConfig:
    """Load and validate a JSON experiment config.

    Relative paths are resolved against the config file's directory;
    out_dir and cache_mode accept command-line overrides.
    """
    path = Path(path)
    base = path.parent
    try:
        raw = json.loads(path.read_text("utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    _section(raw, "config", tuple(
        "name language corpus split reduce baseline systems provider runs parallelism"
        " cache_dir cache_mode out_dir scoring comparisons".split()
    ))

    try:
        corpus_raw = _section(raw["corpus"], "corpus", ("path", "format", "name"))
        split_raw = _section(raw["split"], "split", ("train", "dev", "test", "rule", "seed"))
    except KeyError as exc:
        raise ConfigError(f"config missing section {exc}") from exc

    corpus_path = corpus_raw.get("path")
    _expect(isinstance(corpus_path, str), "corpus.path", "a file path", corpus_path)
    corpus_format = _choice(corpus_raw.get("format", CONLLU), "corpus.format", (CONLLU, TSV))

    rules = corpus_mod.SELECTION_RULES
    split = corpus_mod.SplitSpec(
        train_count=_integer(split_raw.get("train"), "split.train"),
        dev_count=_integer(split_raw.get("dev"), "split.dev"),
        test_count=_integer(split_raw.get("test"), "split.test"),
        selection_rule=_choice(split_raw.get("rule", corpus_mod.FIRST_N), "split.rule", rules),
        seed=_integer(split_raw.get("seed", 0), "split.seed"),
    )
    reduce_raw = _section(raw.get("reduce", {}), "reduce", ("max_sentences", "rule", "seed"))
    reduce_to = _integer(reduce_raw.get("max_sentences"), "reduce.max_sentences", nullable=True)
    _expect(reduce_to is None or reduce_to >= 1, "reduce.max_sentences", "at least 1", reduce_to)
    reduce_rule = _choice(reduce_raw.get("rule", corpus_mod.FIRST_N), "reduce.rule", rules)
    baseline_raw = _section(raw.get("baseline", {}), "baseline", ("max_suffix_len",))
    max_suffix_len = _integer(baseline_raw.get("max_suffix_len", 5), "baseline.max_suffix_len")
    _expect(max_suffix_len >= 0, "baseline.max_suffix_len", "at least 0", max_suffix_len)
    runs = _integer(raw.get("runs", 1), "runs")
    _expect(runs >= 1, "runs", "at least 1", runs)
    parallelism = _integer(raw.get("parallelism", 4), "parallelism")
    _expect(parallelism >= 1, "parallelism", "at least 1", parallelism)

    language = _string(raw.get("language", "English"), "language")
    systems = tuple(_parse_system(e, base, runs, language) for e in raw.get("systems", []))
    if len({s.name for s in systems}) != len(systems):
        raise ConfigError("system names must be unique")

    provider = _build(
        gateway_mod.ProviderConfig,
        raw.get("provider", {}),
        "provider",
        integers=("max_tokens", "max_retries"),
        numbers=("temperature", "top_p", "timeout", "retry_backoff"),
    )
    tokens = provider.max_tokens
    for key, ok, what in (
        ("max_retries", provider.max_retries >= 0, "at least 0"),
        ("retry_backoff", provider.retry_backoff >= 0, "at least 0"),
        ("timeout", provider.timeout > 0, "above 0"),
        ("max_tokens", tokens is None or tokens >= 1, "null or at least 1"),
    ):
        _expect(ok, f"provider.{key}", what, getattr(provider, key))
    scoring = _section(raw.get("scoring", {}), "scoring", ("policy", "alpha", "mcnemar_run"))
    policy = _choice(scoring.get("policy", eval_mod.STRICT), "scoring.policy", eval_mod.POLICIES)
    comparisons_raw = raw.get("comparisons", "all-pairs")
    if comparisons_raw == "all-pairs":
        comparisons = tuple(itertools.combinations([s.name for s in systems], 2))
    else:
        pairs_ok = isinstance(comparisons_raw, list) and all(
            isinstance(p, list) and len(p) == 2 for p in comparisons_raw
        )
        _expect(pairs_ok, "comparisons", '"all-pairs" or a list of name pairs', comparisons_raw)
        comparisons = tuple((a, b) for a, b in comparisons_raw)
    known = [s.name for s in systems]  # a list: a name that is not a string is unknown too
    for a, b in comparisons:
        if a not in known or b not in known:
            raise ConfigError(f"comparison ({a}, {b}) names an unknown system")

    name = _string(raw.get("name", path.stem), "name")
    corpus_name = _string(corpus_raw.get("name", Path(corpus_path).stem), "corpus.name")
    # These values land in "# key = value" artifact headers, where a tab
    # would turn the line into a row and a line break would end it early.
    for label, value in (
        ("name", name),
        ("language", language),
        ("corpus file name", Path(corpus_path).name),
        ("corpus name", corpus_name),
        ("provider model", provider.model),
        *(("system name", s.name) for s in systems),
    ):
        if any(c in str(value) for c in "\t\n\r"):
            raise ConfigError(f"{label} {value!r} holds a tab or a line break")

    mcnemar_run = _integer(scoring.get("mcnemar_run", 0), "scoring.mcnemar_run")
    if not 0 <= mcnemar_run < runs:
        raise ConfigError(f"scoring.mcnemar_run {mcnemar_run} is not a run in 0..{runs - 1}")

    alpha = _number(scoring.get("alpha", 0.05), "scoring.alpha")
    _expect(0 < alpha < 1, "scoring.alpha", "between 0 and 1, exclusive", alpha)
    cache_dir = _string(raw.get("cache_dir", "cache"), "cache_dir")
    configured_out = _string(raw.get("out_dir", "out"), "out_dir")
    modes = gateway_mod.CACHE_MODES
    mode = _choice(cache_mode or raw.get("cache_mode", gateway_mod.REPLAY), "cache_mode", modes)
    return ExperimentConfig(
        name=name,
        language=language,
        corpus_path=str(base / corpus_path),
        corpus_format=corpus_format,
        corpus_name=corpus_name,
        split=split,
        reduce_to=reduce_to,
        reduce_rule=reduce_rule,
        reduce_seed=_integer(reduce_raw.get("seed", 0), "reduce.seed"),
        max_suffix_len=max_suffix_len,
        systems=systems,
        provider=provider,
        runs=runs,
        parallelism=parallelism,
        cache_dir=str(base / cache_dir),
        cache_mode=mode,
        out_dir=str(Path(out_dir) if out_dir else base / configured_out),
        policy=policy,
        alpha=float(alpha),
        mcnemar_run=mcnemar_run,
        comparisons=comparisons,
        config_hash=_hash_config(raw),
    )


class Layout:
    """All output paths in one place, derived from the experiment config."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.root = Path(cfg.out_dir)

    def corpus_tsv(self) -> Path:
        return self.root / "corpora" / f"{self.cfg.corpus_name}.tsv"

    def split_name(self, part: str) -> str:
        """The corpus name of a split: train, dev or test."""
        return f"{self.cfg.corpus_name}-{part}"

    def split_tsv(self, part: str) -> Path:
        return self.root / "splits" / f"{self.split_name(part)}.tsv"

    def manifest(self) -> Path:
        return self.root / "splits" / "manifest.tsv"

    def inventory(self) -> Path:
        return self.root / "inventory" / f"{self.cfg.corpus_name}.tsv"

    def pair_labels(self) -> Path:
        return self.root / "inventory" / f"{self.cfg.corpus_name}.pairs.tsv"

    def model(self) -> Path:
        return self.root / "models" / "baseline.tsv"

    def predictions(self, system: str, corpus: str, run: int) -> Path:
        return self.root / "predictions" / system / f"{corpus}.run{run}.tsv"

    def diagnostics(self, system: str, corpus: str, run: int) -> Path:
        return self.root / "predictions" / system / f"{corpus}.run{run}.diag.json"

    def runs(self) -> Path:
        return self.root / "reports" / "runs.tsv"

    def scores(self) -> Path:
        return self.root / "reports" / "scores.tsv"

    def mcnemar(self) -> Path:
        return self.root / "reports" / "mcnemar.tsv"

    def report(self) -> Path:
        return self.root / "reports" / "report.txt"


def _meta(cfg: ExperimentConfig, **extra: str) -> dict[str, str]:
    meta = {"experiment": cfg.name, "config_hash": cfg.config_hash}
    meta.update(extra)
    return meta


def run_ingest(cfg: ExperimentConfig) -> corpus_mod.Corpus:
    """Read the source corpus, optionally cap its size, write canonical TSV."""
    if cfg.corpus_format == CONLLU:
        corpus = corpus_mod.ingest_conllu(cfg.corpus_path, cfg.corpus_name, cfg.language)
    else:
        corpus = corpus_mod.ingest_tsv(cfg.corpus_path, cfg.corpus_name, cfg.language)
    if cfg.reduce_to is not None:
        corpus = corpus_mod.reduce_corpus(corpus, cfg.reduce_to, cfg.reduce_rule, cfg.reduce_seed)
    meta = _meta(cfg, source=Path(cfg.corpus_path).name, language=cfg.language)
    corpus_mod.write_tsv(corpus, Layout(cfg).corpus_tsv(), meta)
    return corpus


def _load_split(layout: Layout, part: str) -> corpus_mod.Corpus:
    name, language = layout.split_name(part), layout.cfg.language
    return corpus_mod.ingest_tsv(layout.split_tsv(part), name, language)


def run_split(cfg: ExperimentConfig) -> dict[str, corpus_mod.Corpus]:
    layout = Layout(cfg)
    corpus = corpus_mod.ingest_tsv(layout.corpus_tsv(), cfg.corpus_name, cfg.language)
    train, dev, test = corpus_mod.make_splits(corpus, cfg.split)
    splits = {"train": train, "dev": dev, "test": test}
    for part, sub in splits.items():
        meta = _meta(cfg, split=part, rule=cfg.split.selection_rule, seed=str(cfg.split.seed))
        corpus_mod.write_tsv(sub, layout.split_tsv(part), meta)
    manifest = {s.name: s for s in (train, dev, test)}
    corpus_mod.write_split_manifest(manifest, layout.manifest(), _meta(cfg))
    return splits


def run_induce(cfg: ExperimentConfig) -> editscript_mod.LabelInventory:
    """Induce each distinct training pair once; write the label inventory and
    each pair's label, which is all train-baseline needs of the train split."""
    layout = Layout(cfg)
    pairs = editscript_mod.pair_scripts(_load_split(layout, "train"))
    inventory = editscript_mod.build_inventory(pairs)
    editscript_mod.write_inventory(inventory, layout.inventory())
    editscript_mod.write_pair_labels(pairs, inventory, layout.pair_labels())
    return inventory


def _write_system_run(
    layout: Layout,
    system: str,
    gold: corpus_mod.Corpus,
    run: int,
    lemmas_by_id: dict[str, tuple[str | None, ...]],
    counts_by_id: dict[str, dict[str, int]],
    extra_meta: dict[str, str] | None = None,
):
    """Write one run's prediction file and its diagnostics sidecar."""
    blocks = []
    sentences: dict[str, dict[str, int]] = {}
    for sentence in gold.sentences:
        slots = lemmas_by_id[sentence.id]
        blocks.append((sentence.id, sentence.wordforms, slots))
        counts = {"missing": slots.count(None), "wrong": 0, "random": 0}
        counts.update(counts_by_id.get(sentence.id, {}))
        pairs = zip(slots, sentence.lemmas, strict=True)
        counts["incorrect"] = sum(p is not None and p != g for p, g in pairs)
        sentences[sentence.id] = counts
    meta = _meta(layout.cfg, system=system, corpus=gold.name, run=str(run), **(extra_meta or {}))
    write_predictions(layout.predictions(system, gold.name, run), blocks, metadata=meta)
    write_diagnostics(layout.diagnostics(system, gold.name, run), meta, sentences)


def run_train_baseline(cfg: ExperimentConfig) -> baseline_mod.BaselineModel:
    """Train the baseline from the induce stage's pair labels and score it on
    dev for later example selection."""
    layout = Layout(cfg)
    inventory = editscript_mod.read_inventory(layout.inventory())
    pairs = editscript_mod.read_pair_labels(layout.pair_labels(), inventory)
    model = baseline_mod.train(pairs, inventory, cfg.max_suffix_len)
    dev = _load_split(layout, "dev")
    baseline_mod.write_model(model, layout.model())
    lemmas = {s.id: tuple(baseline_mod.predict(model, s)) for s in dev.sentences}
    _write_system_run(layout, BASELINE, dev, 0, lemmas, {})
    return model


def select_system_examples(
    cfg: ExperimentConfig, system: SystemSpec, dev: corpus_mod.Corpus
) -> list[prompt_mod.FewShotExample]:
    """A system's worked examples, so callers can reproduce its exact prompts."""
    spec = system.prompt
    diagnostics = None
    if spec.shots and spec.selection == prompt_mod.MOST_ERRORS:
        layout = Layout(cfg)
        default = layout.diagnostics(BASELINE, layout.split_name("dev"), 0)
        _, diagnostics = read_diagnostics(system.dev_diagnostics or default)
    return prompt_mod.select_examples(
        spec.selection,
        spec.shots,
        dev,
        dev_diagnostics=diagnostics,
        seed=spec.seed,
        manual_ids=list(system.manual_ids) or None,
    )


def _run_llm_system(
    layout: Layout,
    system: SystemSpec,
    test: corpus_mod.Corpus,
    dev: corpus_mod.Corpus,
    gateway: gateway_mod.LlmGateway,
):
    cfg = layout.cfg
    examples = select_system_examples(cfg, system, dev)
    prompts = [
        prompt_mod.render_prompt(system.prompt, examples, sentence)
        for sentence in test.sentences
    ]
    batch = gateway.run_batch(prompts, runs=cfg.runs, parallelism=cfg.parallelism)
    for run in range(cfg.runs):
        lemmas_by_id: dict[str, tuple[str | None, ...]] = {}
        counts_by_id: dict[str, dict[str, int]] = {}
        failed = batch.failed_items(run)
        for idx, sentence in enumerate(test.sentences):
            if idx in failed:
                # A sentence whose request failed scores as all missing
                # rather than silently vanishing from the denominator.
                lemmas_by_id[sentence.id] = (None,) * len(sentence)
                continue
            response = batch.responses[run][idx]
            aligned = align_prediction(parse_output(response.raw_text), sentence)
            lemmas_by_id[sentence.id] = aligned.lemmas
            counts_by_id[sentence.id] = aligned.counts()
        extra = {
            "model": cfg.provider.model,
            "template_version": prompt_mod.TEMPLATE_VERSION,
            "failures": str(len(failed)),
        }
        _write_system_run(layout, system.name, test, run, lemmas_by_id, counts_by_id, extra)


def run_predictions(cfg: ExperimentConfig, transport: gateway_mod.Transport | None = None) -> None:
    """Produce prediction files for every configured system and run."""
    layout = Layout(cfg)
    test = _load_split(layout, "test")
    gateway = dev = None
    try:
        for system in cfg.systems:
            if system.kind == BASELINE:
                model = baseline_mod.read_model(layout.model())
                lemmas = {s.id: tuple(baseline_mod.predict(model, s)) for s in test.sentences}
                for run in range(cfg.runs):
                    # Deterministic system: every run is the same honest pass.
                    _write_system_run(layout, system.name, test, run, lemmas, {})
            elif system.kind == EXTERNAL:
                for run in range(cfg.runs):
                    source = system.predictions[run if len(system.predictions) > 1 else 0]
                    _write_system_run(layout, system.name, test, run, _read_slots(source, test), {})
            else:  # LLM, the one kind left: load_config refuses any other
                if gateway is None:  # only LLM systems need the cache and the dev split
                    live = cfg.cache_mode == gateway_mod.LIVE  # live mode opens no cache
                    cache = None if live else gateway_mod.ResponseCache(cfg.cache_dir)
                    gateway = gateway_mod.LlmGateway(
                        cfg.provider, cache, cfg.cache_mode, transport=transport
                    )
                    dev = _load_split(layout, "dev")
                _run_llm_system(layout, system, test, dev, gateway)
    finally:
        if gateway is not None and gateway.cache is not None:
            gateway.cache.close()


def blocks_to_slots(
    blocks: list[PredictionBlock], gold: corpus_mod.Corpus
) -> dict[str, tuple[str | None, ...]]:
    """Map prediction blocks onto gold sentences by id, else by order.

    Every gold sentence needs a block that repeats its wordforms, and no
    sent_id may appear twice or name no gold sentence; each fault is a
    ScoringError naming the sentence.
    """
    with_ids = [b for b in blocks if b.sentence_id is not None]
    if with_ids and len(with_ids) != len(blocks):
        raise ScoringError("prediction file mixes sent_id blocks with anonymous blocks")
    if with_ids:
        gold_ids = {sentence.id for sentence in gold.sentences}
        by_id: dict[str, PredictionBlock] = {}
        for block in blocks:
            if block.sentence_id in by_id:
                raise ScoringError(f"prediction file repeats sent_id {block.sentence_id}")
            if block.sentence_id not in gold_ids:
                raise ScoringError(
                    f"prediction file has a block for {block.sentence_id}, no gold sentence"
                )
            by_id[block.sentence_id] = block
    elif len(blocks) != len(gold.sentences):
        raise ScoringError(
            f"{len(blocks)} anonymous prediction blocks for {len(gold.sentences)} sentences"
        )
    else:
        by_id = {s.id: b for s, b in zip(gold.sentences, blocks)}
    for sentence in gold.sentences:
        block = by_id.get(sentence.id)
        if block is None:
            raise ScoringError(f"prediction file has no block for {sentence.id}")
        if block.wordforms != sentence.wordforms:
            raise ScoringError(
                f"prediction block for {sentence.id} does not repeat its gold wordforms"
            )
    return {sentence_id: block.lemmas for sentence_id, block in by_id.items()}


def _read_slots(path: Path, gold: corpus_mod.Corpus) -> dict[str, tuple[str | None, ...]]:
    return blocks_to_slots(read_predictions(path)[1], gold)


def run_score(cfg: ExperimentConfig) -> list[eval_mod.EvalReport]:
    """Score every run of every system; write each run's exact tallies to
    runs.tsv and their means and stds to scores.tsv."""
    layout = Layout(cfg)
    test = _load_split(layout, "test")
    reports = []
    for system in cfg.systems:
        scores = []
        for run in range(cfg.runs):
            slots = _read_slots(layout.predictions(system.name, test.name, run), test)
            _, diag = read_diagnostics(layout.diagnostics(system.name, test.name, run))
            scores.append(eval_mod.score_run(slots, test, cfg.policy, diag))
        reports.append(eval_mod.EvalReport(system.name, test.name, tuple(scores)))
    meta = _meta(cfg, policy=cfg.policy)
    artifact.publish(layout.runs(), [eval_mod.render_runs_tsv(reports, meta)])
    meta["runs"] = str(cfg.runs)
    artifact.publish(layout.scores(), [eval_mod.render_scores_tsv(reports, meta)])
    return reports


def run_compare(cfg: ExperimentConfig) -> list[tuple[str, str, str, eval_mod.McNemarResult]]:
    """McNemar's test over configured system pairs, on one agreed run."""
    layout = Layout(cfg)
    test = _load_split(layout, "test")
    vectors = {
        s.name: eval_mod.correctness_vector(
            _read_slots(layout.predictions(s.name, test.name, cfg.mcnemar_run), test), test
        )
        for s in cfg.systems
    }
    rows = [
        (test.name, a, b, eval_mod.mcnemar(vectors[a], vectors[b]))
        for a, b in cfg.comparisons
    ]
    meta = _meta(cfg, run=str(cfg.mcnemar_run), alpha=str(cfg.alpha))
    artifact.publish(layout.mcnemar(), [eval_mod.render_mcnemar_tsv(rows, meta, cfg.alpha)])
    return rows


def _read_current(
    cfg: ExperimentConfig,
    stage: str,
    path: Path,
    columns: tuple[str, ...],
    keys: list[tuple[str, ...]],
    width: int | None = None,
) -> dict[tuple[str, ...], list[int]]:
    """The rows of a report table, refused unless `stage` wrote it under the
    current config and it holds a row for each of keys."""
    meta, rows = eval_mod.read_counts(path, columns, width)
    if meta.get("config_hash") != cfg.config_hash:
        raise ConfigError(
            f"{path} was written under config_hash {meta.get('config_hash')}, "
            f"not {cfg.config_hash}: re-run `{stage}`"
        )
    for key in keys:
        if key not in rows:
            raise ConfigError(f"{path} has no row for {' '.join(key)}: re-run `{stage}`")
    return rows


def run_report(cfg: ExperimentConfig) -> str:
    """Write report.txt from the tallies score and compare wrote; reads no
    prediction, diagnostics or split file."""
    layout = Layout(cfg)
    corpus = layout.split_name("test")
    keys = [(s.name, corpus, str(run)) for s in cfg.systems for run in range(cfg.runs)]
    tallies = _read_current(cfg, "score", layout.runs(), eval_mod.RUNS_COLUMNS, keys)
    reports = [
        eval_mod.EvalReport(s.name, corpus, tuple(
            eval_mod.RunScore.from_counts(*tallies[s.name, corpus, str(run)])
            for run in range(cfg.runs)
        ))
        for s in cfg.systems
    ]
    rows = []
    if cfg.comparisons:
        pairs = [(corpus, a, b) for a, b in cfg.comparisons]
        counts = _read_current(
            cfg, "compare", layout.mcnemar(), eval_mod.MCNEMAR_COLUMNS, pairs, width=2
        )
        rows = [(*pair, eval_mod.mcnemar_counts(*counts[pair])) for pair in pairs]
    meta = _meta(cfg, corpus=cfg.corpus_name, language=cfg.language, policy=cfg.policy)
    text = eval_mod.render_report_text(reports, rows, meta, cfg.alpha)
    artifact.publish(layout.report(), [text])  # beside runs.tsv
    return text
