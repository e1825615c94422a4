"""Experiment orchestration: staged pipeline over a JSON configuration.

Stages mirror the CLI subcommands and communicate only through files in
the output directory, so any stage can be rerun in isolation.  PATHS names
each file and cli._STAGES which stage reads and writes it; every .tsv file
is in lemmabench.artifact's format.  No artifact embeds a timestamp or an
absolute path, so rerunning an experiment from the same inputs reproduces
every file byte for byte.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from . import artifact
from . import baseline as baseline_mod
from . import corpus as corpus_mod
from . import editscript as editscript_mod
from . import evaluation as eval_mod
from . import gateway as gateway_mod
from . import prompt as prompt_mod
from .align import (
    AlignedPrediction,
    align as align_prediction,
    parse_output,
    read_diagnostics,
    read_predictions,
    write_diagnostics,
    write_predictions,
)
from .errors import ConfigError, PromptError, ScoringError
from .prompt import INPUT_MODES, SELECTIONS, TEMPLATES

CONLLU = "conllu"
TSV = "tsv"

BASELINE = "baseline"
LLM = "llm"
EXTERNAL = "external"
KINDS = (BASELINE, LLM, EXTERNAL)
ALL_PAIRS = "all-pairs"


@dataclass(frozen=True)
class SystemSpec:
    """One system under evaluation; exactly one kind of source."""

    name: str
    kind: str
    prompt: prompt_mod.PromptSpec | None = None
    manual_ids: tuple[str, ...] = ()
    dev_diagnostics: str | None = None  # path; default is the baseline dev run
    predictions: tuple[str, ...] = ()  # external files, one per run or one shared


# Each artifact's path under the output directory (ExperimentConfig.path).
# {corpus} is the config's corpus name and {split} a split's
# (ExperimentConfig.split_name).  The baseline's run 0 on dev ranks few-shot
# examples for the most-errors selection.
PATHS = {
    "corpus": "corpora/{corpus}.tsv",
    "train": "splits/{corpus}-train.tsv",
    "dev": "splits/{corpus}-dev.tsv",
    "test": "splits/{corpus}-test.tsv",
    "manifest": "splits/manifest.tsv",  # split<TAB>id
    "inventory": "inventory/{corpus}.tsv",  # the edit-script labels induced from train
    "pair_labels": "inventory/{corpus}.pairs.tsv",  # each distinct training pair's label
    "model": "models/baseline.tsv",
    "predictions": "predictions/{system}/{split}.run{run}.tsv",
    "diagnostics": "predictions/{system}/{split}.run{run}.diag.json",
    "runs": "reports/runs.tsv",  # each run's exact tallies
    "scores": "reports/scores.tsv",
    "mcnemar": "reports/mcnemar.tsv",
    "report": "reports/report.txt",  # rendered from runs and mcnemar alone
}


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

    def split_name(self, part: str) -> str:
        """The corpus name of a split: train, dev or test."""
        return f"{self.corpus_name}-{part}"

    def path(self, name: str, **keys) -> Path:
        """Artifact name's path; keys fill the {split}, {system} and {run} of PATHS[name]."""
        return Path(self.out_dir) / PATHS[name].format(corpus=self.corpus_name, **keys)


def _hash_config(raw: dict) -> str:
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def _expect(ok: bool, name: str, what: str, value) -> None:
    if not ok:
        raise ConfigError(f"{name} must be {what}, got {json.dumps(value)}")


@dataclass(frozen=True)
class _Row:
    """One config key.  type and range are (what the value must be, a test); null skips range.
    default is ... on a required key, and None on a non-null key load_config derives."""

    type: tuple[str, Callable[[object], bool]]
    default: object = ...
    range: tuple[str, Callable[[object], bool]] | None = None
    null: bool = False


def _one_of(*choices: str):
    return " or ".join(choices), lambda v: v in choices


_STRING = ("a string", lambda v: isinstance(v, str))
_PATH = ("a file path", lambda v: isinstance(v, str) and "\0" not in v)  # open() refuses NUL
_INTEGER = ("an integer", lambda v: type(v) is int)  # true and false are not
_NUMBER = ("a number", lambda v: type(v) is int or type(v) is float and math.isfinite(v))
_IDS = ("a list of sentence ids", lambda v: isinstance(v, list) and all(type(i) is str for i in v))
_AT_LEAST_0, _AT_LEAST_1 = ("at least 0", lambda v: v >= 0), ("at least 1", lambda v: v >= 1)
_PROVIDER, _PROMPT = gateway_mod.ProviderConfig(), prompt_mod.PromptSpec()
# One row per dotted key, in the order messages list them.  The config, each
# section and each system entry refuse a key no row names; a section holding a
# required key is required.  systems.* rows hold for every entry, systems.KIND
# rows for entries of that kind.  json.loads reads NaN and Infinity; no row does.
_SCHEMA = {
    "name": _Row(_STRING, None),  # default: the config file's stem
    "language": _Row(_STRING, "English"),
    "corpus.path": _Row(_PATH),
    "corpus.format": _Row(_one_of(CONLLU, TSV), CONLLU),
    "corpus.name": _Row(_STRING, None),  # default: the corpus file's stem
    "split.train": _Row(_INTEGER, range=_AT_LEAST_1),
    "split.dev": _Row(_INTEGER, range=_AT_LEAST_1),
    "split.test": _Row(_INTEGER, range=_AT_LEAST_1),
    "split.rule": _Row(_one_of(*corpus_mod.SELECTION_RULES), corpus_mod.FIRST_N),
    "split.seed": _Row(_INTEGER, 0),
    "reduce.max_sentences": _Row(_INTEGER, None, _AT_LEAST_1, null=True),
    "reduce.rule": _Row(_one_of(*corpus_mod.SELECTION_RULES), corpus_mod.FIRST_N),
    "reduce.seed": _Row(_INTEGER, 0),
    "baseline.max_suffix_len": _Row(_INTEGER, 5, _AT_LEAST_0),
    "systems": _Row(("a list of system entries", lambda v: isinstance(v, list)),
                    range=("non-empty", bool)),
    "systems.*.name": _Row(_STRING),
    "systems.*.kind": _Row(_one_of(*KINDS)),
    "systems.llm.prompt.template": _Row(_STRING, _PROMPT.template, _one_of(*TEMPLATES)),
    "systems.llm.prompt.input_mode": _Row(_STRING, _PROMPT.input_mode, _one_of(*INPUT_MODES)),
    "systems.llm.prompt.shots": _Row(_INTEGER, _PROMPT.shots, (
        f"between 0 and {prompt_mod.MAX_SHOTS}", lambda v: 0 <= v <= prompt_mod.MAX_SHOTS)),
    "systems.llm.prompt.selection": _Row(_STRING, _PROMPT.selection, _one_of(*SELECTIONS)),
    "systems.llm.prompt.seed": _Row(_INTEGER, _PROMPT.seed),
    "systems.llm.prompt.language_name": _Row(_STRING, None),  # default: the config's language
    "systems.llm.manual_ids": _Row(_IDS, ()),
    "systems.llm.dev_diagnostics": _Row(_PATH, None, null=True),
    # An empty predictions value passes its row and _parse_system refuses it.
    "systems.external.predictions": _Row(("a file path or a list of them", lambda v: (
        not v or _PATH[1](v) or isinstance(v, list) and all(map(_PATH[1], v)))), None),
    "provider.base_url": _Row(_STRING, _PROVIDER.base_url),
    "provider.model": _Row(_STRING, _PROVIDER.model),
    "provider.api_key_env": _Row(_STRING, _PROVIDER.api_key_env),
    "provider.temperature": _Row(_NUMBER, _PROVIDER.temperature, (
        "between 0 and 2", lambda v: 0 <= v <= 2)),
    "provider.top_p": _Row(_NUMBER, _PROVIDER.top_p, ("between 0 and 1", lambda v: 0 <= v <= 1)),
    "provider.max_tokens": _Row(
        _INTEGER, _PROVIDER.max_tokens, ("null or at least 1", lambda v: v >= 1), null=True),
    "provider.timeout": _Row(_NUMBER, _PROVIDER.timeout, ("above 0", lambda v: v > 0)),
    "provider.max_retries": _Row(_INTEGER, _PROVIDER.max_retries, _AT_LEAST_0),
    "provider.retry_backoff": _Row(_NUMBER, _PROVIDER.retry_backoff, _AT_LEAST_0),
    "runs": _Row(_INTEGER, 1, _AT_LEAST_1),
    "parallelism": _Row(_INTEGER, 4, _AT_LEAST_1),
    "cache_dir": _Row(_PATH, "cache"),
    "cache_mode": _Row(_one_of(*gateway_mod.CACHE_MODES), gateway_mod.REPLAY),
    "out_dir": _Row(_PATH, "out"),
    "scoring.policy": _Row(_one_of(*eval_mod.POLICIES), eval_mod.STRICT),
    "scoring.alpha": _Row(_NUMBER, 0.05, ("between 0 and 1, exclusive", lambda v: 0 < v < 1)),
    "scoring.mcnemar_run": _Row(_INTEGER, 0),  # one of the runs: see load_config
    "comparisons": _Row(('"all-pairs" or a list of name pairs', lambda v: v == ALL_PAIRS or (
        isinstance(v, list) and all(isinstance(p, list) and len(p) == 2 for p in v))), ALL_PAIRS),
}


def _walk(section, prefixes: tuple[str, ...], label: str = "") -> dict:
    """Each key of the rows under prefixes: section's value, checked, or else
    the row's default; a subsection gives a dict.  label names section in messages."""
    rows = {k[len(p):]: row for p in prefixes for k, row in _SCHEMA.items() if k.startswith(p)}
    where = label or "config"
    _expect(isinstance(section, dict), where, "a JSON object", section)
    keys = dict.fromkeys(key.partition(".")[0] for key in rows)
    for key in section:
        if key not in keys:
            raise ConfigError(f"{where}.{key} is not a known key; use one of {', '.join(keys)}")
    values = {}
    for key in keys:
        row, name = rows.get(key), f"{label}.{key}" if label else key
        if row is None:  # a subsection
            required = any(r.default is ... for k, r in rows.items() if k.startswith(key + "."))
            if key not in section and required:
                raise ConfigError(f"{where} missing section {key!r}")
            values[key] = _walk(section.get(key, {}), tuple(f"{p}{key}." for p in prefixes), key)
        elif key in section or row.default is ...:  # a required key that is missing is null
            value = values[key] = section.get(key)
            _expect(row.type[1](value) or (value is None and row.null), name, row.type[0], value)
            if row.range and value is not None:
                _expect(row.range[1](value), name, row.range[0], value)
        elif row.default is not None or row.null:  # else load_config derives the value
            values[key] = row.default
    return values


def _parse_system(entry, base: Path, runs: int, language: str) -> SystemSpec:
    _expect(isinstance(entry, dict), "systems entry", "a JSON object", entry)
    try:
        name = entry["name"]
        _expect(isinstance(name, str), "systems entry name", "a string", name)
        kind = entry["kind"]
    except KeyError as exc:
        raise ConfigError(f"system entry missing {exc}") from exc
    if kind not in KINDS:
        raise ConfigError(f"system {name}: unknown kind {kind!r}")
    values = _walk(entry, ("systems.*.", f"systems.{kind}."), f"system {name}")
    if kind == LLM:
        spec = prompt_mod.PromptSpec(**{"language_name": language, **values["prompt"]})
        diag = values["dev_diagnostics"]
        diag = str(base / diag) if diag else None
        ids = tuple(values["manual_ids"])
        if spec.selection == prompt_mod.MANUAL and spec.shots:  # ids not in dev: refused by run
            try:
                prompt_mod.check_manual_ids(spec.shots, ids)
            except PromptError as exc:
                raise ConfigError(f"system {name}: {exc}") from None
        return SystemSpec(name, kind, spec, ids, dev_diagnostics=diag)
    if kind == EXTERNAL:
        paths = values.get("predictions")
        if not paths:
            raise ConfigError(f"external system {name} needs a predictions path list")
        paths = [paths] if isinstance(paths, str) else paths
        if len(paths) not in (1, runs):
            raise ConfigError(f"external system {name}: give 1 or {runs} prediction files")
        return SystemSpec(name, kind, predictions=tuple(str(base / p) for p in paths))
    return SystemSpec(name, kind)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """json.loads' object hook: an object that repeats a key is a ValueError,
    not its last value."""
    keys = [key for key, _ in pairs]
    if repeated := [key for i, key in enumerate(keys) if key in keys[:i]]:
        raise ValueError(f"key {repeated[0]!r} appears twice in one object")
    return dict(pairs)


def load_config(
    path: str | Path, out_dir: str | None = None, cache_mode: str | None = None
) -> ExperimentConfig:
    """Load a JSON experiment config, checked against _SCHEMA; a leading
    byte-order mark is skipped, and an object that repeats a key is refused.
    Relative paths are resolved against the config file's directory; out_dir and
    cache_mode accept command-line overrides, and the file's cache_mode goes unchecked under one."""
    _expect(_PATH[1](str(out_dir)), "--out", _PATH[0], str(out_dir))  # out_dir may be a Path
    path = Path(path)
    base = path.parent
    try:
        raw = json.loads(path.read_text("utf-8-sig"), object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    overridden = {**raw, "cache_mode": cache_mode} if cache_mode and isinstance(raw, dict) else raw
    top = _walk(overridden, ("",))
    corpus, split, reduce, scoring = top["corpus"], top["split"], top["reduce"], top["scoring"]
    runs, language, mcnemar_run = top["runs"], top["language"], scoring["mcnemar_run"]
    systems = tuple(_parse_system(entry, base, runs, language) for entry in top["systems"])
    known = [s.name for s in systems]
    if len(set(known)) != len(known):
        raise ConfigError("system names must be unique")
    pairs = top["comparisons"]
    pairs = tuple(itertools.combinations(known, 2) if pairs == ALL_PAIRS else map(tuple, pairs))
    for i, (a, b) in enumerate(pairs):
        if a not in known or b not in known:  # a list: a name that is not a string is unknown
            raise ConfigError(f"comparison ({a}, {b}) names an unknown system")
        if a == b:
            raise ConfigError(f"comparison ({a}, {b}) compares a system with itself")
        if (a, b) in pairs[:i]:
            raise ConfigError(f"comparison ({a}, {b}) is repeated")
    name, corpus_file = top.get("name", path.stem), Path(corpus["path"])
    corpus_name = corpus.get("name", corpus_file.stem)
    provider = gateway_mod.ProviderConfig(**top["provider"])
    # These values land in "# key = value" artifact headers, where a tab
    # would turn the line into a row and a line break would end it early.
    # The corpus and system names also name files and directories in out_dir.
    headers = {"name": name, "language": language, "corpus file name": corpus_file.name,
               "corpus name": corpus_name, "provider model": provider.model}
    for label, value in [*headers.items(), *(("system name", s) for s in known)]:
        if any(c in str(value) for c in "\t\n\r"):
            raise ConfigError(f"{label} {value!r} holds a tab or a line break")
        if label in ("corpus name", "system name") and (
            value in ("", ".", "..") or "/" in value or "\0" in value
        ):
            raise ConfigError(f"{label} {value!r} cannot name a file: it is empty, . or .., "
                              "or holds / or NUL")
    if not 0 <= mcnemar_run < runs:
        raise ConfigError(f"scoring.mcnemar_run {mcnemar_run} is not a run in 0..{runs - 1}")
    return ExperimentConfig(
        name=name, language=language, corpus_path=str(base / corpus_file),
        corpus_format=corpus["format"], corpus_name=corpus_name,
        split=corpus_mod.SplitSpec(*split.values()),  # the rows' order is the fields' order
        reduce_to=reduce["max_sentences"], reduce_rule=reduce["rule"], reduce_seed=reduce["seed"],
        max_suffix_len=top["baseline"]["max_suffix_len"], systems=systems, provider=provider,
        runs=runs, parallelism=top["parallelism"], cache_dir=str(base / top["cache_dir"]),
        cache_mode=top["cache_mode"], out_dir=str(Path(out_dir or base / top["out_dir"])),
        policy=scoring["policy"], alpha=float(scoring["alpha"]), mcnemar_run=mcnemar_run,
        comparisons=pairs, config_hash=_hash_config(raw),
    )


def _meta(cfg: ExperimentConfig, **extra: str) -> dict[str, str]:
    return {"experiment": cfg.name, "config_hash": cfg.config_hash, **extra}


def run_ingest(cfg: ExperimentConfig) -> tuple[int, int]:
    """Read the source corpus a block at a time, optionally capped, into its
    canonical TSV; returns the (tokens, sentences) written.  Every block is
    read, kept or not, so a fault anywhere in the source leaves no new file."""
    def read():
        return corpus_mod._sentences(cfg.corpus_path, cfg.corpus_name, cfg.corpus_format == TSV)

    kept = None
    if cfg.reduce_to is not None:  # seeded-random samples from a first pass's count
        total = sum(1 for _ in read()) if cfg.reduce_rule == corpus_mod.SEEDED_RANDOM else None
        kept = corpus_mod.reduced_indices(cfg.reduce_to, cfg.reduce_rule, cfg.reduce_seed, total)
    tokens = []  # of each sentence written

    def blocks():
        for n, (sentence_id, forms, _, rows) in enumerate(read()):
            if kept is None or n in kept:
                tokens.append(len(forms))
                yield sentence_id, rows

    meta = _meta(cfg, source=Path(cfg.corpus_path).name, language=cfg.language)
    corpus_mod._write_texts(cfg.path("corpus"), meta, blocks())
    return sum(tokens), len(tokens)


def _load_split(cfg: ExperimentConfig, part: str) -> corpus_mod.Corpus:
    return corpus_mod.ingest_tsv(cfg.path(part), cfg.split_name(part))


class _Routed(NamedTuple):
    """A sentence as the split stage routes it: its id, its token count and
    the text of its rows, copied to its split file as the reader checked it."""

    id: str
    tokens: int
    rows: str


class Splits(Mapping[str, corpus_mod.Corpus]):
    """run_split's result: each part's Corpus (train, dev, test), read from
    its split file on first access and kept, and sizes, each part's
    (tokens, sentences) as routed."""

    def __init__(self, cfg: ExperimentConfig, sizes: dict[str, tuple[int, int]]):
        self._cfg, self.sizes, self._loaded = cfg, sizes, {}

    def __getitem__(self, part: str) -> corpus_mod.Corpus:
        if part not in self.sizes:
            raise KeyError(part)
        if part not in self._loaded:
            self._loaded[part] = _load_split(self._cfg, part)
        return self._loaded[part]

    def __iter__(self):
        return iter(self.sizes)

    def __len__(self) -> int:
        return len(self.sizes)


def run_split(cfg: ExperimentConfig) -> Splits:
    """Route the corpus's sentences to train, dev and test by the split rule;
    write each split file, copying each sentence's rows, then the manifest."""
    sentences = corpus_mod._sentences(cfg.path("corpus"), cfg.corpus_name, True)
    routed = corpus_mod.Corpus(cfg.corpus_name, tuple(
        _Routed(sentence_id, len(forms), rows) for sentence_id, forms, _, rows in sentences
    ))
    parts = dict(zip(("train", "dev", "test"), corpus_mod.make_splits(routed, cfg.split)))
    for part, sub in parts.items():
        meta = _meta(cfg, split=part, rule=cfg.split.selection_rule, seed=str(cfg.split.seed))
        corpus_mod._write_texts(cfg.path(part), meta, ((s.id, s.rows) for s in sub.sentences))
    manifest = {sub.name: sub for sub in parts.values()}
    corpus_mod.write_split_manifest(manifest, cfg.path("manifest"), _meta(cfg))
    return Splits(cfg, {
        part: (sum(s.tokens for s in sub.sentences), len(sub)) for part, sub in parts.items()
    })


def run_induce(cfg: ExperimentConfig) -> editscript_mod.LabelInventory:
    """Induce each distinct training pair once, reading the train split a
    block at a time; write the label inventory and each pair's label, which
    is all train-baseline needs of the train split."""
    train = corpus_mod._sentences(cfg.path("train"), cfg.split_name("train"), True)
    pairs = editscript_mod.pair_scripts(corpus_mod.Sentence(*s[:3]) for s in train)
    inventory = editscript_mod.build_inventory(pairs)
    editscript_mod.write_inventory(inventory, cfg.path("inventory"))
    editscript_mod.write_pair_labels(pairs, inventory, cfg.path("pair_labels"))
    return inventory


def _unaligned(lemmas) -> AlignedPrediction:
    """Lemma slots that came from no LLM output: no wrong or random rows."""
    return AlignedPrediction(tuple(lemmas), 0, 0)


def _write_system_run(
    cfg: ExperimentConfig,
    system: str,
    gold: corpus_mod.Corpus,
    run: int,
    predicted: list[AlignedPrediction],
    extra_meta: dict[str, str] | None = None,
):
    """Write one run's prediction file and its diagnostics sidecar from one
    prediction per gold sentence, in gold order."""
    blocks = []
    sentences: dict[str, dict[str, int]] = {}
    for sentence, prediction in zip(gold.sentences, predicted, strict=True):
        blocks.append((sentence.id, sentence.wordforms, prediction.lemmas))
        pairs = zip(prediction.lemmas, sentence.lemmas, strict=True)
        incorrect = sum(p != g and None not in (p, g) for p, g in pairs)
        sentences[sentence.id] = {**prediction.counts(), "incorrect": incorrect}
    meta = _meta(cfg, system=system, corpus=gold.name, run=str(run), **(extra_meta or {}))
    keys = {"system": system, "split": gold.name, "run": run}
    write_predictions(cfg.path("predictions", **keys), blocks, metadata=meta)
    write_diagnostics(cfg.path("diagnostics", **keys), meta, sentences)


def run_train_baseline(cfg: ExperimentConfig) -> baseline_mod.BaselineModel:
    """Train the baseline from the induce stage's pair labels and score it on
    dev for later example selection."""
    inventory = editscript_mod.read_inventory(cfg.path("inventory"))
    pairs = editscript_mod.read_pair_labels(cfg.path("pair_labels"), inventory)
    model = baseline_mod.train(pairs, inventory, cfg.max_suffix_len)
    dev = _load_split(cfg, "dev")
    baseline_mod.write_model(model, cfg.path("model"))
    predicted = [_unaligned(baseline_mod.predict(model, s)) for s in dev.sentences]
    _write_system_run(cfg, BASELINE, dev, 0, predicted)
    return model


def select_system_examples(
    cfg: ExperimentConfig, system: SystemSpec, dev: corpus_mod.Corpus
) -> list[corpus_mod.Sentence]:
    """A system's worked example sentences, so callers can reproduce its exact prompts."""
    spec = system.prompt
    diagnostics = None
    if spec.shots and spec.selection == prompt_mod.MOST_ERRORS:
        default = cfg.path("diagnostics", system=BASELINE, split=cfg.split_name("dev"), run=0)
        _, diagnostics = read_diagnostics(system.dev_diagnostics or default)
    return prompt_mod.select_examples(
        spec.selection,
        spec.shots,
        dev,
        dev_diagnostics=diagnostics,
        seed=spec.seed,
        manual_ids=list(system.manual_ids),
    )


def _run_llm_system(
    cfg: ExperimentConfig,
    system: SystemSpec,
    test: corpus_mod.Corpus,
    dev: corpus_mod.Corpus,
    gateway: gateway_mod.LlmGateway,
):
    examples = select_system_examples(cfg, system, dev)
    prompts = [prompt_mod.render_prompt(system.prompt, examples, s) for s in test.sentences]
    batch = gateway.run_batch(prompts, runs=cfg.runs, parallelism=cfg.parallelism)
    for run, responses in enumerate(batch.responses):
        # A sentence whose request failed (its response is None) scores as
        # all missing rather than silently vanishing from the denominator.
        predicted = [
            align_prediction(parse_output(r.raw_text), s) if r else _unaligned((None,) * len(s))
            for s, r in zip(test.sentences, responses)
        ]
        extra = {
            "model": cfg.provider.model,
            "template_version": prompt_mod.TEMPLATE_VERSION,
            "failures": str(responses.count(None)),
        }
        _write_system_run(cfg, system.name, test, run, predicted, extra)


def open_cache(cfg: ExperimentConfig, must_hold_log: bool) -> gateway_mod.ResponseCache:
    """Load the response cache, checking every record's digest; with
    must_hold_log, a cache_dir that holds no log, say a typo, is refused."""
    cache = gateway_mod.ResponseCache(cfg.cache_dir)
    if must_hold_log and not cache.log_path.exists():
        raise ConfigError(f"no response cache at {cache.log_path}: check cache_dir")
    return cache


def run_predictions(cfg: ExperimentConfig, transport: gateway_mod.Transport | None = None) -> None:
    """Produce prediction files for every configured system and run, once
    every test sentence has the gold lemmas score needs and every external
    system's files have been read and checked."""
    test = _load_split(cfg, "test")
    for sentence in test.sentences:  # before any cache is opened or request sent
        sentence.require_lemmas()
    # Every external file is read and checked once, before any system writes.
    sources = {s.name: [_read_slots(p, test) for p in s.predictions] for s in cfg.systems}
    gateway = dev = None
    try:
        # Only LLM systems need the cache and the dev split.  A replay cache is
        # refused before any file is written if its cache_dir holds no log.
        if any(system.kind == LLM for system in cfg.systems):
            live = cfg.cache_mode == gateway_mod.LIVE  # live mode opens no cache
            cache = None if live else open_cache(cfg, cfg.cache_mode == gateway_mod.REPLAY)
            gateway = gateway_mod.LlmGateway(
                cfg.provider, cache, cfg.cache_mode, transport=transport
            )
            dev = _load_split(cfg, "dev")
        for system in cfg.systems:
            if system.kind == BASELINE:
                model = baseline_mod.read_model(cfg.path("model"))
                predicted = [_unaligned(baseline_mod.predict(model, s)) for s in test.sentences]
                for run in range(cfg.runs):
                    # Deterministic: a second pass would predict the same list.
                    _write_system_run(cfg, system.name, test, run, predicted)
            elif system.kind == EXTERNAL:
                files = sources[system.name]
                for run in range(cfg.runs):
                    slots = files[run if len(files) > 1 else 0]
                    predicted = [_unaligned(slots[s.id]) for s in test.sentences]
                    _write_system_run(cfg, system.name, test, run, predicted)
            else:  # LLM, the one kind left: load_config refuses any other
                _run_llm_system(cfg, system, test, dev, gateway)
    finally:
        if gateway is not None and gateway.cache is not None:
            gateway.cache.close()


def blocks_to_slots(
    blocks: list[corpus_mod.Block], gold: corpus_mod.Corpus
) -> dict[str, tuple[str | None, ...]]:
    """Map (sent_id or None, wordforms, lemma slots) prediction blocks onto
    gold sentences by id, else by order.

    Every gold sentence needs a block that repeats its wordforms, and no
    sent_id may appear twice or name no gold sentence; each fault is a
    ScoringError naming the sentence.  Anonymous blocks take the gold ids
    in gold order, then go through the same checks as named ones.
    """
    anonymous = sum(block[0] is None for block in blocks)  # a sent_id of "" is a name
    if anonymous == len(blocks):  # an empty file too
        if anonymous != len(gold):
            raise ScoringError(f"{anonymous} anonymous prediction blocks for {len(gold)} sentences")
        blocks = [(s.id, *block[1:]) for s, block in zip(gold.sentences, blocks)]
    elif anonymous:
        raise ScoringError("prediction file mixes sent_id blocks with anonymous blocks")
    gold_ids = {sentence.id for sentence in gold.sentences}
    by_id: dict[str, tuple] = {}
    for block_id, forms, lemmas in blocks:
        if block_id in by_id:
            raise ScoringError(f"prediction file repeats sent_id {block_id}")
        if block_id not in gold_ids:
            raise ScoringError(f"prediction file has a block for {block_id}, no gold sentence")
        by_id[block_id] = forms, lemmas
    for sentence in gold.sentences:
        if sentence.id not in by_id:
            raise ScoringError(f"prediction file has no block for {sentence.id}")
        if by_id[sentence.id][0] != sentence.wordforms:
            raise ScoringError(
                f"prediction block for {sentence.id} does not repeat its gold wordforms"
            )
    return {sentence_id: lemmas for sentence_id, (_, lemmas) in by_id.items()}


def _read_slots(path: Path, gold: corpus_mod.Corpus) -> dict[str, tuple[str | None, ...]]:
    try:
        return blocks_to_slots(read_predictions(path)[1], gold)
    except ScoringError as exc:
        raise ScoringError(f"{path}: {exc}") from None


def run_score(cfg: ExperimentConfig) -> list[eval_mod.EvalReport]:
    """Score every run of every system; write each run's exact tallies to
    runs.tsv and their means and stds to scores.tsv."""
    test = _load_split(cfg, "test")
    reports = []
    for system in cfg.systems:
        scores = []
        for run in range(cfg.runs):
            keys = {"system": system.name, "split": test.name, "run": run}
            slots = _read_slots(cfg.path("predictions", **keys), test)
            _, diag = read_diagnostics(cfg.path("diagnostics", **keys))
            scores.append(eval_mod.score_run(slots, test, cfg.policy, diag))
        reports.append(eval_mod.EvalReport(system.name, test.name, tuple(scores)))
    meta = _meta(cfg, policy=cfg.policy)
    artifact.publish(cfg.path("runs"), [eval_mod.render_runs_tsv(reports, meta)])
    meta["runs"] = str(cfg.runs)
    artifact.publish(cfg.path("scores"), [eval_mod.render_scores_tsv(reports, meta)])
    return reports


def run_compare(cfg: ExperimentConfig) -> list[tuple[str, str, str, eval_mod.McNemarResult]]:
    """McNemar's test over configured system pairs, on one agreed run."""
    test = _load_split(cfg, "test")
    keys = {"split": test.name, "run": cfg.mcnemar_run}
    vectors = {
        s.name: eval_mod.correctness_vector(
            _read_slots(cfg.path("predictions", system=s.name, **keys), test), test
        )
        for s in cfg.systems
    }
    rows = [
        (test.name, a, b, eval_mod.mcnemar(vectors[a], vectors[b]))
        for a, b in cfg.comparisons
    ]
    meta = _meta(cfg, run=str(cfg.mcnemar_run), alpha=str(cfg.alpha))
    artifact.publish(cfg.path("mcnemar"), [eval_mod.render_mcnemar_tsv(rows, meta, cfg.alpha)])
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
    corpus = cfg.split_name("test")
    keys = [(s.name, corpus, str(run)) for s in cfg.systems for run in range(cfg.runs)]
    tallies = _read_current(cfg, "score", cfg.path("runs"), eval_mod.RUNS_COLUMNS, keys)
    reports = [
        eval_mod.EvalReport(s.name, corpus, tuple(
            eval_mod.RunScore(*tallies[s.name, corpus, str(run)])
            for run in range(cfg.runs)
        ))
        for s in cfg.systems
    ]
    rows = []
    if cfg.comparisons:
        pairs = [(corpus, a, b) for a, b in cfg.comparisons]
        counts = _read_current(
            cfg, "compare", cfg.path("mcnemar"), eval_mod.MCNEMAR_COLUMNS, pairs, width=2
        )
        rows = [(*pair, eval_mod.mcnemar_counts(*counts[pair])) for pair in pairs]
    meta = _meta(cfg, corpus=cfg.corpus_name, language=cfg.language, policy=cfg.policy)
    text = eval_mod.render_report_text(reports, rows, meta, cfg.alpha)
    artifact.publish(cfg.path("report"), [text])  # beside runs.tsv
    return text
