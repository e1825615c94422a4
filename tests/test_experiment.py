"""Config loading, the staged pipeline, and its failure policy."""

import ast
import dataclasses
import hashlib
import itertools
import json
import math
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from lemmabench import baseline, cli, corpus as corpus_mod, editscript, evaluation, experiment
from lemmabench.align import read_diagnostics, read_predictions, write_predictions
from lemmabench.corpus import ingest_tsv, write_tsv
from lemmabench.errors import (
    ConfigError,
    FileFormatError,
    MissingLemmaError,
    PromptError,
    ScoringError,
    SplitError,
    TransportError,
)
from lemmabench.experiment import (
    blocks_to_slots,
    load_config,
    run_compare,
    run_induce,
    run_ingest,
    run_predictions,
    run_report,
    run_score,
    run_split,
    run_train_baseline,
)

from conftest import corpus, sentence
from oracles import (
    oracle_accuracies,
    oracle_blocks_to_slots,
    oracle_load_config,
    oracle_mcnemar,
    oracle_read_prediction_blocks,
    oracle_report_text,
)


def forbidden_transport(config, prompt):
    raise AssertionError("replay run must not touch the network")


def identity_transport(config, prompt):
    """Reads the word list out of the prompt and lemmatizes by identity."""
    lines = prompt.splitlines()
    words = ast.literal_eval(lines[lines.index("Sentence:") + 1])
    return "\n".join(f"{w}\t{w}" for w in words)


# --- config loading -----------------------------------------------------------


def test_load_replay_config(fixtures_dir):
    cfg = load_config(fixtures_dir / "replay" / "config.json")
    assert cfg.name == "es-replay"
    assert cfg.language == "Spanish"
    from pathlib import Path

    assert Path(cfg.corpus_path).resolve() == fixtures_dir / "corpora" / "es_fix.conllu"
    assert cfg.corpus_name == "es_fix"
    assert (cfg.split.train_count, cfg.split.dev_count, cfg.split.test_count) == (40, 15, 25)
    assert [s.name for s in cfg.systems] == ["baseline", "llm-basic-4shot", "llm-full-0shot"]
    assert cfg.systems[1].prompt.shots == 4
    assert cfg.runs == 3
    assert cfg.cache_mode == "replay"
    assert cfg.cache_dir == str(fixtures_dir / "replay" / "cache")
    assert cfg.out_dir == str(fixtures_dir / "replay" / "out")
    assert len(cfg.comparisons) == 3
    assert cfg.config_hash == "2d54beb5c1ef"


def test_load_config_overrides(fixtures_dir, tmp_path):
    cfg = load_config(
        fixtures_dir / "replay" / "config.json",
        out_dir=tmp_path / "elsewhere",
        cache_mode="record",
    )
    assert cfg.out_dir == str(tmp_path / "elsewhere")
    assert cfg.cache_mode == "record"


def test_load_config_skips_a_byte_order_mark(fixtures_dir, tmp_path):
    text = (fixtures_dir / "replay" / "config.json").read_text("utf-8")
    (tmp_path / "plain.json").write_text(text, "utf-8")
    (tmp_path / "bom.json").write_text("\ufeff" + text, "utf-8")
    bom = load_config(tmp_path / "bom.json")
    assert bom == load_config(tmp_path / "plain.json")
    assert bom.config_hash == "2d54beb5c1ef"


@pytest.mark.parametrize("given, repeated", [
    ('"runs": 3,', '"runs": 3, "runs": 1,'),
    ('"shots": 4,', '"shots": 4, "shots": 0,'),
], ids=["runs", "shots"])
def test_load_config_refuses_a_repeated_key(fixtures_dir, tmp_path, given, repeated):
    """json.loads alone keeps the last value: 1 run, or a 0-shot system
    still named llm-basic-4shot."""
    text = (fixtures_dir / "replay" / "config.json").read_text("utf-8")
    assert text.count(given) == 1
    path = tmp_path / "config.json"
    path.write_text(text.replace(given, repeated), "utf-8")
    key = given.split('"')[1]
    with pytest.raises(ConfigError, match=f"^cannot read config .*: key '{key}' appears twice"):
        load_config(path)


def _write_config(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), "utf-8")
    return path


def _minimal_raw(**overrides):
    raw = {
        "corpus": {"path": "corpus.tsv", "format": "tsv"},
        "split": {"train": 3, "dev": 2, "test": 1},
        "systems": [{"name": "baseline", "kind": "baseline"}],
    }
    raw.update(overrides)
    return raw


def _llm_system(**prompt):
    return {"systems": [{"name": "llm", "kind": "llm", "prompt": prompt}]}


# (the key the error must name, a change that gives it a wrong value): an
# integer field accepts only a JSON integer, so no float, string or bool,
# and an unknown key is refused rather than passed to a constructor.
_WRONG_VALUES = [
    ("runs", lambda raw: raw.update(runs=True)),
    ("runs", lambda raw: raw.update(runs="x")),
    ("runs", lambda raw: raw.update(runs=2.0)),
    ("parallelism", lambda raw: raw.update(parallelism="4")),
    ("baseline.max_suffix_len", lambda raw: raw.update(baseline={"max_suffix_len": 2.9})),
    ("scoring.mcnemar_run", lambda raw: raw.update(runs=3, scoring={"mcnemar_run": 1.7})),
    ("scoring.mcnemar_run", lambda raw: raw.update(runs=3, scoring={"mcnemar_run": False})),
    ("scoring.alpha", lambda raw: raw.update(scoring={"alpha": "x"})),
    ("split.train", lambda raw: raw["split"].update(train="40")),
    ("split.test", lambda raw: raw["split"].pop("test")),
    ("split.seed", lambda raw: raw["split"].update(seed=0.5)),
    ("reduce.max_sentences", lambda raw: raw.update(reduce={"max_sentences": "10"})),
    ("reduce.seed", lambda raw: raw.update(reduce={"max_sentences": 10, "seed": None})),
    ("provider.temprature", lambda raw: raw.update(provider={"temprature": 0.5})),
    ("provider.max_retries", lambda raw: raw.update(provider={"max_retries": 2.5})),
    ("provider.max_tokens", lambda raw: raw.update(provider={"max_tokens": "256"})),
    ("provider", lambda raw: raw.update(provider=["model"])),
    ("split", lambda raw: raw.update(split=3)),
    ("systems", lambda raw: raw.update(systems=["baseline"])),
    ("prompt.shot", lambda raw: raw.update(_llm_system(shot=4))),
    ("prompt.shots", lambda raw: raw.update(_llm_system(shots="4"))),
    ("prompt.seed", lambda raw: raw.update(_llm_system(seed=True))),
    ("provider.temperature", lambda raw: raw.update(provider={"temperature": "hot"})),
    ("provider.top_p", lambda raw: raw.update(provider={"top_p": None})),
    ("provider.timeout", lambda raw: raw.update(provider={"timeout": "60"})),
    ("provider.retry_backoff", lambda raw: raw.update(provider={"retry_backoff": False})),
    ("manual_ids", lambda raw: raw.update(
        systems=[{"name": "llm", "kind": "llm", "manual_ids": 5}])),
    ("comparisons", lambda raw: raw.update(comparisons=[["baseline"]])),
    ("comparisons", lambda raw: raw.update(comparisons="none")),
    ("corpus.path", lambda raw: raw["corpus"].pop("path")),
    ("cache_mode", lambda raw: raw.update(cache_mode="bogus")),
    # Every section refuses a key it does not know, rather than ignoring it.
    ("config.rnus", lambda raw: raw.update(rnus=5)),
    ("corpus.nmae", lambda raw: raw["corpus"].update(nmae="es")),
    ("split.ruel", lambda raw: raw["split"].update(ruel="first-n")),
    ("reduce.sede", lambda raw: raw.update(reduce={"max_sentences": 10, "sede": 1})),
    ("baseline.max_suffix", lambda raw: raw.update(baseline={"max_suffix": 3})),
    ("scoring.polciy", lambda raw: raw.update(scoring={"polciy": "renormalize"})),
    ("system llm.promt", lambda raw: raw.update(
        systems=[{"name": "llm", "kind": "llm", "promt": {"shots": 0}}])),
    ("system baseline.prompt", lambda raw: raw.update(
        systems=[{"name": "baseline", "kind": "baseline", "prompt": {}}])),
    ("system ext.manual_ids", lambda raw: raw.update(
        systems=[{"name": "ext", "kind": "external", "predictions": "p.tsv", "manual_ids": []}])),
    # Names and paths must be strings.
    ("name", lambda raw: raw.update(name=5)),
    ("language", lambda raw: raw.update(language=["Spanish"])),
    ("corpus.name", lambda raw: raw["corpus"].update(name=5)),
    ("cache_dir", lambda raw: raw.update(cache_dir=5)),
    ("out_dir", lambda raw: raw.update(out_dir=None)),
    ("systems entry name", lambda raw: raw.update(systems=[{"name": 5, "kind": "baseline"}])),
    ("system llm.dev_diagnostics", lambda raw: raw.update(
        systems=[{"name": "llm", "kind": "llm", "dev_diagnostics": 5}])),
    ("system ext.predictions", lambda raw: raw.update(
        systems=[{"name": "ext", "kind": "external", "predictions": [5]}])),
    # A field whose default is a string takes only a string: a model of 5
    # passed every stage up to run, which then missed the replay cache.
    ("provider.model", lambda raw: raw.update(provider={"model": 5})),
    ("provider.base_url", lambda raw: raw.update(provider={"base_url": None})),
    ("provider.api_key_env", lambda raw: raw.update(provider={"api_key_env": ["KEY"]})),
    ("prompt.template", lambda raw: raw.update(_llm_system(template=1))),
    ("prompt.input_mode", lambda raw: raw.update(_llm_system(input_mode=None))),
    ("prompt.selection", lambda raw: raw.update(_llm_system(selection=True))),
    # json.loads reads these: an infinite backoff ended in an OverflowError from
    # time.sleep, and a NaN temperature reached every request fingerprint.
    ("provider.retry_backoff must be a number", lambda raw: raw.update(
        provider={"retry_backoff": math.inf})),
    ("provider.temperature must be a number", lambda raw: raw.update(
        provider={"temperature": math.nan})),
    ("provider.timeout must be a number", lambda raw: raw.update(provider={"timeout": math.inf})),
]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda raw: raw.pop("corpus"),
        lambda raw: raw.pop("split"),
        lambda raw: raw["corpus"].update(format="xml"),
        lambda raw: raw.update(runs=0),
        lambda raw: raw.update(systems=[{"name": "x", "kind": "oracle"}]),
        lambda raw: raw.update(systems=[{"name": "x", "kind": "baseline"}] * 2),
        lambda raw: raw.update(comparisons=[["baseline", "ghost"]]),
        lambda raw: raw.update(systems=[{"name": "x", "kind": "external"}]),
        lambda raw: raw.update(
            runs=3,
            systems=[{"name": "x", "kind": "external", "predictions": ["a.tsv", "b.tsv"]}],
        ),
        lambda raw: raw.update(scoring={"policy": "renormalise"}),
        # mcnemar_run must name one of the runs 0..runs-1.
        lambda raw: raw.update(runs=3, scoring={"mcnemar_run": 7}),
        lambda raw: raw.update(runs=3, scoring={"mcnemar_run": 3}),
        lambda raw: raw.update(scoring={"mcnemar_run": -1}),
        # Values that land in "# key = value" artifact headers.
        lambda raw: raw.update(name="tab\tname"),
        lambda raw: raw.update(language="Eng\nlish"),
        lambda raw: raw["corpus"].update(path="cor\tpus.tsv"),
        lambda raw: raw["corpus"].update(name="two\nlines"),
        lambda raw: raw.update(systems=[{"name": "base\tline", "kind": "baseline"}]),
        lambda raw: raw.update(provider={"model": "stub\r"}),
        *[mutate for _, mutate in _WRONG_VALUES],
        # compare wrote the pair twice, and report then refused mcnemar.tsv.
        lambda raw: raw.update(
            systems=[{"name": "a", "kind": "baseline"}, {"name": "b", "kind": "baseline"}],
            comparisons=[["a", "b"], ["a", "b"]],
        ),
    ],
)
def test_load_config_rejects_bad_input(tmp_path, mutate):
    raw = _minimal_raw()
    mutate(raw)
    with pytest.raises(ConfigError):
        load_config(_write_config(tmp_path, raw))


@pytest.mark.parametrize("key, mutate", _WRONG_VALUES, ids=[key for key, _ in _WRONG_VALUES])
def test_load_config_names_the_key_of_a_wrong_value(tmp_path, key, mutate):
    raw = _minimal_raw()
    mutate(raw)
    with pytest.raises(ConfigError, match=key):
        load_config(_write_config(tmp_path, raw))


@pytest.mark.parametrize("mutate, message", [
    (lambda raw: raw.update(systems=[]), "systems must be non-empty, got []"),
    (lambda raw: raw.pop("systems"), "systems must be a list of system entries, got null"),
], ids=["empty", "missing"])
def test_a_config_without_systems_is_refused(tmp_path, mutate, message):
    """With no system every stage would exit 0 and report.txt hold no table."""
    raw = _minimal_raw()
    mutate(raw)
    with pytest.raises(ConfigError) as refused:
        load_config(_write_config(tmp_path, raw))
    assert str(refused.value) == message


# (the key the error must name, a section holding a value out of its range).
_OUT_OF_RANGE = [
    # train-baseline used to write this model and run to refuse it.
    ("baseline.max_suffix_len", {"baseline": {"max_suffix_len": -1}}),
    ("split.rule", {"split": {"train": 3, "dev": 2, "test": 1, "rule": "first-m"}}),
    # Checked only once the corpus had more sentences than max_sentences.
    ("reduce.rule", {"reduce": {"max_sentences": 10, "rule": "first-m"}}),
    # -1 dropped the last sentence; with seeded-random it ended in a traceback.
    ("reduce.max_sentences", {"reduce": {"max_sentences": -1}}),
    ("reduce.max_sentences", {"reduce": {"max_sentences": 0}}),
    # alpha 2 marked every comparison significant.
    ("scoring.alpha", {"scoring": {"alpha": 2}}),
    ("scoring.alpha", {"scoring": {"alpha": 1}}),
    ("scoring.alpha", {"scoring": {"alpha": 0}}),
    # -1 retries never called the transport and raised a TypeError.
    ("provider.max_retries", {"provider": {"max_retries": -1}}),
    ("provider.retry_backoff", {"provider": {"retry_backoff": -0.5}}),
    ("provider.timeout", {"provider": {"timeout": 0}}),
    ("provider.max_tokens", {"provider": {"max_tokens": 0}}),
    ("parallelism", {"parallelism": 0}),
    # These escaped as a PromptError or a SplitError that named no key.
    ("prompt.shots", _llm_system(shots=99)),
    ("prompt.shots", _llm_system(shots=-1)),
    ("prompt.template", _llm_system(template="bogus")),
    ("prompt.input_mode", _llm_system(input_mode="words")),
    ("prompt.selection", _llm_system(selection="best")),
    ("split.train", {"split": {"train": -1, "dev": 2, "test": 1}}),
    ("split.test", {"split": {"train": 3, "dev": 2, "test": -5}}),
    # These reached every request fingerprint.
    ("provider.temperature", {"provider": {"temperature": 99}}),
    ("provider.temperature", {"provider": {"temperature": -0.5}}),
    ("provider.top_p", {"provider": {"top_p": -5}}),
    ("provider.top_p", {"provider": {"top_p": 1.5}}),
    # A zero-size split loaded, and induce, train-baseline or run then found
    # no sentences in it.
    ("split.train", {"split": {"train": 0, "dev": 2, "test": 1}}),
    ("split.dev", {"split": {"train": 3, "dev": 0, "test": 1}}),
    ("split.test", {"split": {"train": 3, "dev": 2, "test": 0}}),
]


@pytest.mark.parametrize(
    "key, change", _OUT_OF_RANGE, ids=[json.dumps(change) for _, change in _OUT_OF_RANGE]
)
def test_load_config_refuses_a_value_out_of_range(tmp_path, key, change):
    with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be"):
        load_config(_write_config(tmp_path, _minimal_raw(**change)))


def test_load_config_accepts_the_ends_of_each_range(tmp_path):
    raw = _minimal_raw(
        baseline={"max_suffix_len": 0},
        reduce={"max_sentences": 1, "rule": "seeded-random"},
        scoring={"alpha": 0.999},
        provider={"max_retries": 0, "retry_backoff": 0, "timeout": 0.001, "max_tokens": 1,
                  "temperature": 2, "top_p": 0},
        parallelism=1,
    )
    cfg = load_config(_write_config(tmp_path, raw))
    assert (cfg.max_suffix_len, cfg.reduce_to, cfg.reduce_rule) == (0, 1, "seeded-random")
    assert cfg.alpha == 0.999
    provider = cfg.provider
    assert (provider.max_retries, provider.retry_backoff, provider.max_tokens) == (0, 0, 1)
    assert (provider.timeout, cfg.parallelism) == (0.001, 1)
    assert (provider.temperature, provider.top_p) == (2, 0)


# "" and {} loaded as no systems, and "ab" was refused as its first letter.
@pytest.mark.parametrize("systems", ["", "ab", {}, {"name": "x", "kind": "baseline"}])
def test_load_config_refuses_systems_that_are_not_a_list(tmp_path, systems):
    message = f"systems must be a list of system entries, got {json.dumps(systems)}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_config(_write_config(tmp_path, _minimal_raw(systems=systems)))


def test_load_config_accepts_the_last_run_for_mcnemar(tmp_path):
    raw = _minimal_raw(runs=3, scoring={"mcnemar_run": 2})
    assert load_config(_write_config(tmp_path, raw)).mcnemar_run == 2


def test_config_hash_ignores_key_order_but_not_content(tmp_path):
    raw = _minimal_raw()
    first = load_config(_write_config(tmp_path, raw)).config_hash
    reordered = json.loads(json.dumps(raw))
    reordered["split"] = {"test": 1, "dev": 2, "train": 3}
    (tmp_path / "b").mkdir()
    second = load_config(_write_config(tmp_path / "b", reordered)).config_hash
    assert first == second
    raw["split"]["train"] = 4
    (tmp_path / "c").mkdir()
    third = load_config(_write_config(tmp_path / "c", raw)).config_hash
    assert third != first


def test_external_system_accepts_single_shared_file(tmp_path):
    raw = _minimal_raw(
        runs=3,
        systems=[{"name": "x", "kind": "external", "predictions": "preds.tsv"}],
    )
    cfg = load_config(_write_config(tmp_path, raw))
    assert cfg.systems[0].predictions == (str(tmp_path / "preds.tsv"),)


def test_load_config_names_a_repeated_comparison(tmp_path):
    systems = [{"name": "a", "kind": "baseline"}, {"name": "b", "kind": "baseline"}]
    raw = _minimal_raw(systems=systems, comparisons=[["a", "b"], ["b", "a"], ["a", "b"]])
    with pytest.raises(ConfigError, match=r"^comparison \(a, b\) is repeated$"):
        load_config(_write_config(tmp_path, raw))
    raw["comparisons"].pop()  # the reversed pair is another row of mcnemar.tsv
    assert load_config(_write_config(tmp_path, raw)).comparisons == (("a", "b"), ("b", "a"))


def test_load_config_refuses_a_comparison_of_a_system_with_itself(tmp_path):
    # Let through, such a pair reaches mcnemar.tsv as "b vs b: b01=0 b10=0 ... p=1".
    systems = [{"name": "a", "kind": "baseline"}, {"name": "b", "kind": "baseline"}]
    raw = _minimal_raw(systems=systems, comparisons=[["a", "b"], ["b", "b"]])
    with pytest.raises(ConfigError, match=r"^comparison \(b, b\) compares a system with itself$"):
        load_config(_write_config(tmp_path, raw))


def _manual_system(shots, ids, selection="manual"):
    prompt = {"shots": shots, "selection": selection}
    return {"systems": [{"name": "llm", "kind": "llm", "prompt": prompt, "manual_ids": ids}]}


@pytest.mark.parametrize(
    "shots, ids, message",
    [
        (4, ["d-1", "d-1"], "manual selection needs exactly 4 sentence ids"),
        (1, ["d-1", "d-2"], "manual selection needs exactly 1 sentence ids"),
        (2, [], "manual selection needs exactly 2 sentence ids"),
        (3, ["d-1", "d-2", "d-1"], "manual example id 'd-1' is repeated"),
    ],
)
def test_load_config_refuses_manual_ids_that_do_not_fit_shots(tmp_path, shots, ids, message):
    # Before, only the run stage refused them, after four stages had run.
    raw = _minimal_raw(**_manual_system(shots, ids))
    with pytest.raises(ConfigError, match=re.escape(f"system llm: {message}")):
        load_config(_write_config(tmp_path, raw))


@pytest.mark.parametrize(
    "shots, ids, selection",
    [(2, ["d-2", "d-1"], "manual"), (0, ["d-1", "d-1"], "manual"), (4, ["d-1"], "random")],
)
def test_load_config_keeps_manual_ids_that_fit_or_go_unused(tmp_path, shots, ids, selection):
    raw = _minimal_raw(**_manual_system(shots, ids, selection))
    assert load_config(_write_config(tmp_path, raw)).systems[0].manual_ids == tuple(ids)


def test_readme_config_table_lists_every_schema_key(fixtures_dir):
    readme = (fixtures_dir.parent / "README.md").read_text("utf-8")
    section = readme.split("## Experiment configs", 1)[1].split("\n## ", 1)[0]
    keys = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
    assert sorted(keys) == sorted(experiment._SCHEMA) and len(keys) == len(set(keys))


# --- the schema against the key-by-key loader it replaced ----------------------

_NAMES = ("base", "llm", "ext")
# The values a changed key may take: every JSON type, each range's ends and
# outsides, each choice, the systems' names, and NaN and +-Infinity, which
# json.loads reads.
_ANY_VALUES = [
    None, True, False, 0, 1, 2, 5, 6, 99, -1, 10**30, 0.0, 0.5, 1.0, 1.5, -0.5, 2.0,
    math.nan, math.inf, -math.inf, "", "x", "tab\tvalue", "p.tsv", "first-m", *_NAMES,
    *experiment.KINDS, *experiment.TEMPLATES, *experiment.INPUT_MODES, *experiment.SELECTIONS,
    *corpus_mod.SELECTION_RULES, experiment.CONLLU, experiment.TSV, *evaluation.POLICIES,
    "live", "record", "replay", experiment.ALL_PAIRS, [], ["x"], [5], ["d-1"], ["p0.tsv", "p1.tsv"],
    [["base", "llm"]], [["base", "llm"], ["base", "llm"]], [["base", "base"]], [["llm", "ghost"]],
    [["base"]], ["base"], {}, {"name": "x", "kind": "baseline"}, {"shots": 2},
]
# Drawn as often as all of the above: the values next to each range's ends,
# the ones the schema refuses and the parent did not, and null.
_EDGE_VALUES = [None, -1, 0, 6, "x", math.nan, math.inf, -math.inf, [["base", "llm"]] * 2,
                [["base", "base"]]]
# Each row's key, each section, a system entry and the config itself ("").
_SITES = sorted({*experiment._SCHEMA, "", "corpus", "split", "reduce", "baseline", "provider",
                 "scoring", "systems.*", "systems.llm.prompt"})


def _optional(**keys):
    return st.fixed_dictionaries({}, optional=keys)


@st.composite
def _valid_raw(draw):
    """A config that both loaders accept, with one system of each kind."""
    runs = draw(st.integers(1, 3))
    llm = draw(st.fixed_dictionaries({"name": st.just("llm"), "kind": st.just("llm")}, optional={
        "prompt": _optional(
            template=st.sampled_from(experiment.TEMPLATES),
            input_mode=st.sampled_from(experiment.INPUT_MODES),
            shots=st.integers(0, 5), selection=st.sampled_from(experiment.SELECTIONS),
            seed=st.integers(0, 3), language_name=st.sampled_from(["Basque", ""])),
        "manual_ids": st.lists(st.sampled_from(["d-1", "d-2"]), max_size=2),
        "dev_diagnostics": st.sampled_from([None, "", "diag.json"]),
    }))
    paths = st.sampled_from(["p.tsv", ["p.tsv"], [f"p{r}.tsv" for r in range(runs)]])
    systems = [{"name": "base", "kind": "baseline"}, llm,
               {"name": "ext", "kind": "external", "predictions": draw(paths)}]
    prompt = llm.get("prompt", {})
    if prompt.get("selection", "most-errors") == "manual" and prompt.get("shots", 4):
        llm["manual_ids"] = [f"d-{n}" for n in range(prompt.get("shots", 4))]  # else refused
    pairs = st.lists(st.sampled_from(list(itertools.permutations(_NAMES, 2))), unique=True)
    rules, numbers = st.sampled_from(corpus_mod.SELECTION_RULES), st.sampled_from([0, 0.5, 1.0, 2])
    return draw(st.fixed_dictionaries({
        "corpus": st.fixed_dictionaries(
            {"path": st.sampled_from(["corpus.tsv", "sub/es.conllu", "/abs/c.tsv"])},
            optional={"format": st.sampled_from([experiment.CONLLU, experiment.TSV]),
                      "name": st.sampled_from(["es", "es.v2"])}),
        "split": st.fixed_dictionaries(
            {"train": st.integers(1, 40), "dev": st.integers(1, 9), "test": st.integers(1, 9)},
            optional={"rule": rules, "seed": st.integers(0, 9)}),
        "systems": st.permutations(systems),
        "runs": st.just(runs),
    }, optional={
        "name": st.sampled_from(["exp", ""]),
        "language": st.sampled_from(["Spanish", "English"]),
        "reduce": _optional(max_sentences=st.none() | st.integers(1, 99), rule=rules,
                            seed=st.integers(0, 9)),
        "baseline": _optional(max_suffix_len=st.integers(0, 6)),
        "provider": _optional(
            base_url=st.just("http://replay.invalid/v1"), model=st.sampled_from(["m", "sim"]),
            api_key_env=st.just("KEY"), temperature=numbers,
            top_p=st.sampled_from([0, 0.5, 1.0]),
            max_tokens=st.none() | st.integers(1, 512), timeout=st.sampled_from([0.001, 30]),
            max_retries=st.integers(0, 4), retry_backoff=numbers),
        "parallelism": st.integers(1, 8),
        "cache_dir": st.just("cache"),
        "cache_mode": st.sampled_from(["live", "record", "replay"]),
        "out_dir": st.just("out"),
        "scoring": _optional(policy=st.sampled_from(evaluation.POLICIES),
                             alpha=st.sampled_from([0.001, 0.05, 0.999]),
                             mcnemar_run=st.integers(0, runs - 1)),
        "comparisons": st.just(experiment.ALL_PAIRS) | pairs.map(lambda ps: [[*p] for p in ps]),
    }))


def _site(raw, key, draw):
    """The container of a dotted schema key in raw and the key within it; a
    systems.KIND key picks an entry of that kind, and a missing section is
    made empty."""
    container, parts = raw, key.split(".")
    if parts[0] == "systems" and len(parts) > 1:
        kinds = [i for i, e in enumerate(raw["systems"]) if parts[1] in ("*", e["kind"])]
        container, parts = raw["systems"], [draw(st.sampled_from(kinds)), *parts[2:]]
        if len(parts) > 1:
            container, parts = container[parts[0]], parts[1:]
    for part in parts[:-1]:
        container = container.setdefault(part, {})
    return container, parts[-1]


def _load(loader, path, **overrides):
    """The config, or the error: a ConfigError as its message."""
    try:
        return loader(path, **overrides)
    except ConfigError as exc:
        return f"ConfigError: {exc}"
    except Exception as exc:  # the oracle's PromptError, SplitError or TypeError
        return exc


def _departure(key, value, old, new):
    """The name of the allowed departure of new from old, or None."""
    if isinstance(old, experiment.ExperimentConfig) and isinstance(new, str):
        repeated = [p for i, p in enumerate(old.comparisons) if p in old.comparisons[:i]]
        if repeated and new == "ConfigError: comparison ({}, {}) is repeated".format(*repeated[0]):
            return "repeated comparison"
        selves = [p for p in old.comparisons if p[0] == p[1]]
        if selves and new == "ConfigError: comparison ({}, {}) compares a system with itself".format(
            *selves[0]
        ):
            return "self comparison"
    non_finite = isinstance(value, float) and not math.isfinite(value)
    if non_finite and not isinstance(old, Exception) and isinstance(new, str):
        if re.fullmatch(rf"ConfigError: \S+ must be a number, got {json.dumps(value)}", new):
            return "non-finite number"
    if isinstance(old, (PromptError, SplitError)) and isinstance(new, str):
        if re.match(r"ConfigError: (prompt|split)\.\w+ must be ", new):
            return "prompt or split value out of range"
    refused = "ConfigError: systems must be a list of system entries, got "
    if key == "systems" and isinstance(old, TypeError) and str(new).startswith(refused):
        return "systems neither a list, a string nor an object: the oracle crashed"
    if key == "systems" and isinstance(value, (str, dict)) and new == refused + json.dumps(value):
        return "systems a string or an object: the oracle iterated it"
    if isinstance(old, experiment.ExperimentConfig) and isinstance(new, str):
        for system in old.systems:
            ids, spec = system.manual_ids, system.prompt
            if spec and spec.selection == "manual" and spec.shots and (
                len(ids) != spec.shots or len(set(ids)) < len(ids)
            ) and new.startswith(f"ConfigError: system {system.name}: manual "):
                return "manual ids that do not fit shots"
        names = [("corpus name", old.corpus_name), *(("system name", s.name) for s in old.systems)]
        for label, name in names:
            unusable = name in ("", ".", "..") or "/" in name or "\0" in name
            if unusable and new.startswith(f"ConfigError: {label} {name!r} cannot name a file"):
                return "a corpus or system name that cannot name a file"
        split = old.split
        counts = {"train": split.train_count, "dev": split.dev_count, "test": split.test_count}
        if new in (f"ConfigError: split.{part} must be at least 1, got 0"
                   for part, count in counts.items() if count == 0):
            return "zero-size split"
    if key in ("cache_dir", "out_dir") and isinstance(old, str) and new == old.replace(
        f"{key} must be a string, got ", f"{key} must be a file path, got "
    ) != old:
        return "cache_dir or out_dir named a file path, as corpus.path is"
    sampling = key in ("provider.temperature", "provider.top_p")
    if sampling and isinstance(old, experiment.ExperimentConfig) and isinstance(new, str):
        if new.startswith(f"ConfigError: {key} must be between 0 and "):
            return "temperature or top_p out of range"
    return None


@pytest.mark.parametrize("key", _SITES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_load_config_matches_the_key_by_key_oracle_on_one_changed_key(key, data):
    """One key of a valid config takes another value, goes missing or gains
    an unknown sibling: the schema and the loader it replaced agree on the
    config or on the error's text, but for the refusals the schema added."""
    raw = data.draw(_valid_raw())
    actions = ["set", "set", "delete", "sibling", "override"] if key else ["set"]
    action = data.draw(st.sampled_from(actions))
    value = data.draw(st.sampled_from(_EDGE_VALUES) | st.sampled_from(_ANY_VALUES))
    if not key:
        raw = value
    elif action != "override":
        container, last = _site(raw, key, data.draw)
        if action == "set":
            container[last] = value
        elif action == "delete" and isinstance(container, dict):
            container.pop(last, None)
        elif action == "delete":
            del container[last]
        elif isinstance(container, dict):
            container[f"{last}_x"] = 1
    overrides = data.draw(_optional(out_dir=st.just("elsewhere"),
                                    cache_mode=st.sampled_from(["", "record"])))
    if action == "override":
        overrides["cache_mode"] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(raw), "utf-8")
        old = _load(oracle_load_config, path, **overrides)
        new = _load(load_config, path, **overrides)
    assert not isinstance(new, Exception), new  # the schema refuses; it does not crash
    departure = _departure(key, value, old, new)
    event(departure or ("refused" if isinstance(old, str) else "accepted"))
    if departure is None:
        assert new == old and repr(new) == repr(old)


# --- blocks_to_slots ------------------------------------------------------------


def _two_sentence_gold():
    return corpus(
        "g",
        sentence("g-0000", ("a", "A"), ("b", "B")),
        sentence("g-0001", ("c", "C")),
    )


def test_blocks_to_slots_by_id():
    blocks = [
        ("g-0001", ("c",), ("x",)),
        ("g-0000", ("a", "b"), ("y", None)),
    ]
    slots = blocks_to_slots(blocks, _two_sentence_gold())
    assert slots == {"g-0001": ("x",), "g-0000": ("y", None)}


def test_blocks_to_slots_anonymous_by_order():
    blocks = [
        (None, ("a", "b"), ("y", "z")),
        (None, ("c",), ("x",)),
    ]
    slots = blocks_to_slots(blocks, _two_sentence_gold())
    assert slots == {"g-0000": ("y", "z"), "g-0001": ("x",)}


def test_blocks_to_slots_rejects_mixed_and_miscounted():
    gold = _two_sentence_gold()
    with pytest.raises(ScoringError):
        blocks_to_slots([("g-0000", (), ()), (None, (), ())], gold)
    with pytest.raises(ScoringError):
        blocks_to_slots([(None, ("a",), ("y",))], gold)


@pytest.mark.parametrize("sentence_id", ["d-0000", None])
def test_blocks_to_slots_rejects_wordforms_that_differ_from_gold(sentence_id):
    gold = corpus("d", sentence("d-0000", ("perro", "perro"), ("ladra", "ladrar")))
    block = (sentence_id, ("gato", "come"), ("gato", "comer"))
    with pytest.raises(ScoringError, match="d-0000"):
        blocks_to_slots([block], gold)


def test_blocks_to_slots_rejects_missing_gold_sentence():
    blocks = [("g-0001", ("c",), ("C",))]
    with pytest.raises(ScoringError, match="g-0000"):
        blocks_to_slots(blocks, _two_sentence_gold())


def test_blocks_to_slots_rejects_a_block_of_no_gold_sentence():
    blocks = [
        ("g-0000", ("a", "b"), ("A", "B")),
        ("g-0001", ("c",), ("C",)),
        ("dev-0099", ("zz",), ("q",)),
    ]
    with pytest.raises(ScoringError, match="dev-0099"):
        blocks_to_slots(blocks, _two_sentence_gold())


def test_blocks_to_slots_rejects_repeated_sent_id():
    blocks = [
        ("g-0000", ("a", "b"), ("A", "B")),
        ("g-0001", ("c",), ("C",)),
        ("g-0000", ("a", "b"), ("x", "x")),
    ]
    with pytest.raises(ScoringError, match="g-0000"):
        blocks_to_slots(blocks, _two_sentence_gold())


_GOLD_FORMS = (("Los", "perros"), ("ladran",), ("muy", "fuerte"))


def _slot_gold(middle):
    """Three gold sentences, the middle one named middle."""
    ids = ("g-0", middle, "g-2")
    return corpus("g", *(
        sentence(i, *[(w, w.lower()) for w in forms]) for i, forms in zip(ids, _GOLD_FORMS)
    ))


@st.composite
def slot_cases(draw):
    """(gold, blocks): _slot_gold, its middle sentence maybe named "", and
    0 to 4 prediction blocks, all named, all anonymous or mixed, that take
    the gold sentences in a drawn order; now and then a block names another
    sentence (repeated, unknown or "") or holds other wordforms."""
    gold = _slot_gold(draw(st.sampled_from(["g-1", ""])))
    ids = [s.id for s in gold.sentences]
    style = draw(st.sampled_from(["named", "anonymous", "mixed"]))
    order = draw(st.permutations(range(3)))
    blocks = []
    for k in range(draw(st.sampled_from([0, 1, 2, 3, 3, 3, 4]))):
        block_id, forms = ids[order[k % 3]], _GOLD_FORMS[order[k % 3]]
        if draw(st.integers(0, 5)) == 0:
            block_id = draw(st.sampled_from([*ids, "", "x-9"]))
        if draw(st.integers(0, 5)) == 0:
            forms = ("gatos",)
        if style == "anonymous" or style == "mixed" and draw(st.booleans()):
            block_id = None
        lemmas = tuple(draw(st.sampled_from([w.lower(), "x", None])) for w in forms)
        blocks.append((block_id, forms, lemmas))
    return gold, blocks


def _slots_or_message(to_slots, blocks, gold):
    try:
        return list(to_slots(blocks, gold).items())
    except ScoringError as exc:
        return str(exc)


@given(case=slot_cases())
@example(case=(_slot_gold(""), [  # "" names a gold sentence, in any order
    ("g-2", ("muy", "fuerte"), ("x", None)), ("", ("ladran",), ("x",)),
    ("g-0", ("Los", "perros"), ("el", "x")),
]))
@example(case=(_slot_gold(""), [("", ("ladran",), ("x",)), ("", ("ladran",), ("x",))]))
@example(case=(_slot_gold("g-1"), [("", ("ladran",), ("x",))]))  # "" names no gold sentence
@settings(max_examples=300, deadline=None)
def test_blocks_to_slots_matches_the_two_branch_oracle(tmp_path_factory, case):
    """One loop for named and anonymous blocks gives the oracle's slots, in
    its order, or raises its message; so does the whole read path on the
    file the blocks make, against the reader with its own row rule."""
    gold, blocks = case
    expected = _slots_or_message(oracle_blocks_to_slots, blocks, gold)
    assert _slots_or_message(blocks_to_slots, blocks, gold) == expected
    event("slots" if isinstance(expected, list) else expected.split(" for ")[0])
    path = tmp_path_factory.mktemp("slots") / "run0.tsv"
    write_predictions(path, blocks)
    new = _slots_or_message(blocks_to_slots, read_predictions(path)[1], gold)
    old = _slots_or_message(oracle_blocks_to_slots, oracle_read_prediction_blocks(path)[1], gold)
    assert new == old == expected


def test_run_refuses_an_unannotated_test_token_before_any_request(fixtures_dir, tmp_path):
    # score refuses a gold token without a lemma, as induce does; run refuses it
    # first, so a record or live run sends, and pays for, no request it cannot score.
    text = (fixtures_dir / "corpora" / "es_fix.conllu").read_text("utf-8")
    head, sep, tail = text.partition("# sent_id = es-fix-61\n")  # es_fix-0060, in test
    (tmp_path / "es_fix.conllu").write_text(
        head + sep + tail.replace("1\tMadrid\tMadrid\t", "1\tMadrid\t_\t", 1), "utf-8"
    )
    raw = json.loads((fixtures_dir / "replay" / "config.json").read_text("utf-8"))
    raw["corpus"]["path"] = "es_fix.conllu"
    cfg = load_config(_write_config(tmp_path, raw), cache_mode="record")
    for stage in (run_ingest, run_split, run_induce, run_train_baseline):
        stage(cfg)
    calls = []

    def counting_transport(config, prompt):
        calls.append(prompt)
        return identity_transport(config, prompt)

    with pytest.raises(MissingLemmaError, match=r"^token 1 \('Madrid'\) of es_fix-0060 has no lemma$"):
        run_predictions(cfg, transport=counting_transport)
    assert calls == []
    assert not Path(cfg.cache_dir).exists()
    assert list(Path(cfg.out_dir).glob("predictions/*/es_fix-test.*")) == []


# --- full pipeline on the replay fixture ----------------------------------------


@pytest.fixture(scope="module")
def replay_out(fixtures_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("replay-out")
    cfg = load_config(fixtures_dir / "replay" / "config.json", out_dir=out)
    run_ingest(cfg)
    run_split(cfg)
    run_induce(cfg)
    run_train_baseline(cfg)
    run_predictions(cfg, transport=forbidden_transport)
    run_score(cfg)
    run_compare(cfg)
    run_report(cfg)
    return cfg


def test_train_baseline_refuses_pairs_file_of_another_induce_run(fixtures_dir, tmp_path):
    raw = json.loads((fixtures_dir / "replay" / "config.json").read_text("utf-8"))
    raw["corpus"]["path"] = str(fixtures_dir / "corpora" / "es_fix.conllu")
    raw["split"]["train"] = 20
    small = load_config(_write_config(tmp_path, raw), out_dir=tmp_path / "small")
    full = load_config(fixtures_dir / "replay" / "config.json", out_dir=tmp_path / "full")
    for cfg in (small, full):
        run_ingest(cfg)
        run_split(cfg)
        run_induce(cfg)
    assert len(editscript.read_inventory(small.path("inventory"))) == len(
        editscript.read_inventory(full.path("inventory"))
    )  # every label id of the copied file is in range: only the counts tell
    full.path("pair_labels").write_bytes(small.path("pair_labels").read_bytes())
    with pytest.raises(FileFormatError, match=r"es_fix\.pairs\.tsv: label \d+ covers"):
        run_train_baseline(full)
    assert not full.path("model").exists()


def test_pipeline_writes_every_artifact(replay_out):
    cfg = replay_out
    assert cfg.path("corpus").exists()
    for part in ("train", "dev", "test"):
        assert cfg.path(part).exists()
    assert cfg.path("manifest").exists()
    assert cfg.path("inventory").exists()
    assert cfg.path("pair_labels").exists()
    assert cfg.path("model").exists()
    for system in cfg.systems:
        for run in range(cfg.runs):
            keys = {"system": system.name, "split": "es_fix-test", "run": run}
            assert cfg.path("predictions", **keys).exists()
            assert cfg.path("diagnostics", **keys).exists()
    assert cfg.path("runs").exists()
    assert cfg.path("scores").exists()
    assert cfg.path("mcnemar").exists()
    assert cfg.path("report").exists()


def test_pipeline_reports_match_frozen_expectations(replay_out, fixtures_dir):
    cfg = replay_out
    expected = fixtures_dir / "replay" / "expected"
    assert cfg.path("runs").read_bytes() == (expected / "runs.tsv").read_bytes()
    assert cfg.path("scores").read_bytes() == (expected / "scores.tsv").read_bytes()
    assert cfg.path("mcnemar").read_bytes() == (expected / "mcnemar.tsv").read_bytes()
    assert cfg.path("report").read_bytes() == (expected / "report.txt").read_bytes()


# The sha256 of every file the replay pipeline writes.  The frozen reports
# under fixtures/replay/expected/ pin only reports/; these pin the corpus,
# split, induce, model and prediction artifacts too, so a change to any
# reader or writer that alters a byte shows here.
PINNED_ARTIFACTS = {
    "corpora/es_fix.tsv": "5508657b0915c70a6e30926a13bee77e3417b021302070dd9f211957f85b2a84",
    "inventory/es_fix.pairs.tsv": "93fb818a4630780cec41c67d1c69be4c3e699824e65aba1240ffd3e6f6694dd4",
    "inventory/es_fix.tsv": "68f8cb6a77e7ba38800eb1f9410db2fee03761b22616229225989b2c159b93e6",
    "models/baseline.tsv": "c3697fa72e1eb84bfb338519f6573a647b02662c6f24f184d65ae2c4f5463f07",
    "predictions/baseline/es_fix-dev.run0.diag.json": "27296d572300124221208b10fc539c1edfcd3e527f2a34ef0e5409c92d961c54",
    "predictions/baseline/es_fix-dev.run0.tsv": "8563704656233e10c4f39c5b63f76bb6cf709665f23c160d7e99a6748b0c3785",
    "predictions/baseline/es_fix-test.run0.diag.json": "cb195fd0728f10672ae89df47cb18ce5f57597596c40c20f0aa74925af0924b1",
    "predictions/baseline/es_fix-test.run0.tsv": "b57543f9aa9f3e3ecd77e98d5e87825b1b9ce9a8399c2e40018f2ff93117af1c",
    "predictions/baseline/es_fix-test.run1.diag.json": "fe3c14a9811e9f0e11f4dc6ded89ece66dbc0fa792b6a90971b62f9ee6c17ca5",
    "predictions/baseline/es_fix-test.run1.tsv": "0516a76491c6f1c4de666c27a33bc2262454e3e5608aa4684267d164294b4a6b",
    "predictions/baseline/es_fix-test.run2.diag.json": "6d04f01efddf5f39f782b385681d7353f694482a9a5cc53bf4a2e2b5ed17cb32",
    "predictions/baseline/es_fix-test.run2.tsv": "22c4a8dcd46217309f794f858116087c0a46da6f5e51057a3c59a630cd9d265f",
    "predictions/llm-basic-4shot/es_fix-test.run0.diag.json": "ac7b288be2c572bb1939e1e764cbd1815e32d930e38bff391ea1e895f2357e60",
    "predictions/llm-basic-4shot/es_fix-test.run0.tsv": "cc3fbd245fa950cc254b8eb7d8b204c1c08db9be97d05d33569fb536b591b929",
    "predictions/llm-basic-4shot/es_fix-test.run1.diag.json": "f7bec685af347ccd3a96fbfbec9beb50bd07371c8f0f9375ffc255ce4530b0ed",
    "predictions/llm-basic-4shot/es_fix-test.run1.tsv": "e47c62b8b93e412bbdf9bbe9e2f547b844d359841422de9f5929a1ccad0d4909",
    "predictions/llm-basic-4shot/es_fix-test.run2.diag.json": "b0cbef486094ed0ed29bf326afd19f88521f2a48e6a14ad323d5631addc830b0",
    "predictions/llm-basic-4shot/es_fix-test.run2.tsv": "91b29aa09211adc0679196e2ae762a4e9ad7ba2acf1a37636f40ba3b09dd27f8",
    "predictions/llm-full-0shot/es_fix-test.run0.diag.json": "bf4506f441686c205f36955149a71a5ee79bcad8c3297c154362dff672cc57c4",
    "predictions/llm-full-0shot/es_fix-test.run0.tsv": "c7a148cbf625f3e11852b2539f4157518963f36831c9788ba4b55c41262a6444",
    "predictions/llm-full-0shot/es_fix-test.run1.diag.json": "adcf6ec82c15ab8fb51f68a76cbc40a6d0050741920556723a3799373ce49e9f",
    "predictions/llm-full-0shot/es_fix-test.run1.tsv": "6ecd5b9eb3f068c2a77d1c38f54650854cbe76485c7c3a801fd9156d04d040d3",
    "predictions/llm-full-0shot/es_fix-test.run2.diag.json": "9a7b263e53bc843acaa8de4e0f9a7b691dc7380e47567c075ee3c17c6ff029a0",
    "predictions/llm-full-0shot/es_fix-test.run2.tsv": "4c41603a5794775836ec2f7555b28a558506d9f3a811f63346ba26ed169ec896",
    "reports/mcnemar.tsv": "82bc16fbae2b70ce9c3f03c6b1723b7633912d082a92e43a1e8f92f6d94bb1f4",
    "reports/report.txt": "1ef16b821a6d3e4778f321ea91da487000f97fbee020113a7b4e0ba468a3496c",
    "reports/runs.tsv": "aca05140c38b42d7b95c88f00e734141e6ae239f7fe22592d78bc24355f91de8",
    "reports/scores.tsv": "5164902bbb0c7968bc5f4c9ced0eaa93f7c64b75d6db82e6b1c7db01c139def5",
    "splits/es_fix-dev.tsv": "72732d8f5c785bf6c34e87395233c9cea18b5188ac949920ef215d57dd79e41d",
    "splits/es_fix-test.tsv": "4d9038875b688f57d2cd7a3cada095f4ba5b46adf73ab776b126be2ae58e5ad5",
    "splits/es_fix-train.tsv": "a195ba3c59a0016fe82f97e899ece95870325699de2da717e69d5b22c9604667",
    "splits/manifest.tsv": "74f9e4b96d4e9fe88abbe05a21d8adafb53a15667cee0b2df781502728e70f06",
}


def _replay_digests(fixtures_dir, out_dir):
    """The sha256 of every file a replay of the fixture experiment writes."""
    cfg = load_config(fixtures_dir / "replay" / "config.json", out_dir=out_dir)
    for stage in (run_ingest, run_split, run_induce, run_train_baseline):
        stage(cfg)
    run_predictions(cfg, transport=forbidden_transport)
    for stage in (run_score, run_compare, run_report):
        stage(cfg)
    return _digests(out_dir)


def _digests(out_dir):
    """The sha256 of every file under out_dir, by its path there."""
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*")) if path.is_file()
    }


def test_replay_pipeline_writes_the_pinned_bytes_of_every_artifact(fixtures_dir, tmp_path):
    assert _replay_digests(fixtures_dir, tmp_path / "out") == PINNED_ARTIFACTS


def test_no_stage_builds_tokens(fixtures_dir, tmp_path, monkeypatch):
    """Every stage reads a sentence's two columns; Sentence.tokens is there
    for perfbench's baseline.predict_tokens counter only."""

    def refuse(sentence):
        raise AssertionError(f"a stage built the tokens of {sentence.id}")

    monkeypatch.setattr(corpus_mod.Sentence, "tokens", property(refuse))
    assert _replay_digests(fixtures_dir, tmp_path / "out") == PINNED_ARTIFACTS


def test_artifacts_carry_no_absolute_paths_or_timestamps(replay_out, fixtures_dir):
    cfg = replay_out
    files = sorted(path for path in Path(cfg.out_dir).rglob("*") if path.is_file())
    assert len(files) == len(PINNED_ARTIFACTS)
    for path in files:
        text = path.read_text("utf-8")
        assert cfg.out_dir not in text and str(fixtures_dir) not in text, path
        # no date (ISO 8601) or clock time sneaks into a header
        assert not re.search(r"\d{4}-\d{2}-\d{2}|\d{1,2}:\d{2}(:\d{2})?\b", text), path


@pytest.mark.parametrize("stage", list(cli._STAGES))
def test_rerunning_a_stage_after_a_clean_build_changes_no_file(
    replay_out, fixtures_dir, tmp_path, stage
):
    cfg = replay_out
    shutil.copytree(cfg.out_dir, tmp_path / "out")
    config = str(fixtures_dir / "replay" / "config.json")
    assert cli.main([stage, "--config", config, "--out", str(tmp_path / "out")]) == 0
    assert _digests(tmp_path / "out") == PINNED_ARTIFACTS


def test_report_matches_the_rescoring_oracle(replay_out, fixtures_dir):
    cfg = replay_out
    text = oracle_report_text(cfg)
    assert text == cfg.path("report").read_text("utf-8")
    expected = fixtures_dir / "replay" / "expected" / "report.txt"
    assert text.encode("utf-8") == expected.read_bytes()


@pytest.mark.parametrize(
    "name, stage",
    [
        ("runs.tsv", run_score),
        ("scores.tsv", run_score),
        ("mcnemar.tsv", run_compare),
        ("report.txt", run_report),
    ],
)
def test_a_report_writer_that_fails_keeps_the_old_file_and_leaves_no_other(
    replay_out, tmp_path, disk_full, name, stage
):
    cfg = replay_out
    shutil.copytree(cfg.out_dir, tmp_path / "out")
    cfg = dataclasses.replace(cfg, out_dir=str(tmp_path / "out"))
    reports = cfg.path("report").parent
    (reports / name).write_bytes(b"previous bytes\n")
    before = sorted(path.name for path in reports.iterdir())
    disk_full(name)
    with pytest.raises(OSError, match="No space left on device"):
        stage(cfg)
    assert (reports / name).read_bytes() == b"previous bytes\n"
    assert sorted(path.name for path in reports.iterdir()) == before


@pytest.fixture()
def report_inputs(replay_out, tmp_path):
    """A copy of the replay fixture's reports/, for report to read."""
    cfg = replay_out
    shutil.copytree(Path(cfg.out_dir) / "reports", tmp_path / "reports")
    cfg = dataclasses.replace(cfg, out_dir=str(tmp_path))
    cfg.path("report").unlink()
    return cfg


def _edit(path, old, new):
    text = path.read_text("utf-8")
    assert old in text
    path.write_text(text.replace(old, new), "utf-8")


@pytest.mark.parametrize("table, stage", [("runs.tsv", "score"), ("mcnemar.tsv", "compare")])
def test_report_refuses_a_table_of_another_config(report_inputs, table, stage):
    cfg = report_inputs
    path = Path(cfg.out_dir) / "reports" / table
    _edit(path, f"# config_hash = {cfg.config_hash}\n", "# config_hash = 957dc2e0216e\n")
    stale = f"957dc2e0216e, not {cfg.config_hash}: re-run `{stage}`"
    with pytest.raises(ConfigError, match=stale):
        run_report(cfg)
    assert not cfg.path("report").exists()


def test_report_refuses_tallies_when_the_config_changed(report_inputs):
    cfg = report_inputs
    changed = dataclasses.replace(cfg, alpha=0.01, config_hash="0123456789ab")
    with pytest.raises(ConfigError, match=r"runs\.tsv .*: re-run `score`"):
        run_report(changed)


def test_report_refuses_runs_without_a_configured_run(report_inputs):
    cfg = report_inputs
    lines = cfg.path("runs").read_text("utf-8").splitlines(keepends=True)
    assert lines[-1].startswith("llm-full-0shot\tes_fix-test\t2\t")
    cfg.path("runs").write_text("".join(lines[:-1]), "utf-8")
    missing = "no row for llm-full-0shot es_fix-test 2: re-run `score`"
    with pytest.raises(ConfigError, match=missing):
        run_report(cfg)


def test_report_refuses_mcnemar_without_a_configured_comparison(report_inputs):
    cfg = report_inputs
    lines = cfg.path("mcnemar").read_text("utf-8").splitlines(keepends=True)
    assert lines[-2].startswith("es_fix-test\tbaseline\tllm-full-0shot\t")
    cfg.path("mcnemar").write_text("".join(lines[:-2] + lines[-1:]), "utf-8")
    with pytest.raises(
        ConfigError, match="no row for es_fix-test baseline llm-full-0shot: re-run `compare`"
    ):
        run_report(cfg)


_LAST_TEST = "es_fix-test\tllm-basic-4shot\tllm-full-0shot\t7\t7\texact\t7.000000\t1\tno\n"


@pytest.mark.parametrize(
    "table, old, new, error",
    [
        ("runs.tsv", "baseline\tes_fix-test\t1\t184\t", "baseline\tes_fix-test\t1\t-184\t",
         r"runs\.tsv:6: a count is not a non-negative integer"),
        ("runs.tsv", "\tcorrect_sentences\t", "\tcorrect_sents\t",
         r"runs\.tsv:4: expected the column line"),
        ("mcnemar.tsv", _LAST_TEST, _LAST_TEST.replace("\t1\tno", ""),
         r"mcnemar\.tsv:8: expected the fields"),
        ("mcnemar.tsv", _LAST_TEST, _LAST_TEST * 2,
         r"mcnemar\.tsv:9: repeats the row for es_fix-test llm-basic-4shot llm-full-0shot"),
    ],
)
def test_report_names_a_bad_line(report_inputs, table, old, new, error):
    cfg = report_inputs
    _edit(Path(cfg.out_dir) / "reports" / table, old, new)
    with pytest.raises(FileFormatError, match=error):
        run_report(cfg)


def test_score_refuses_a_run_without_diagnostics(replay_out, tmp_path, capsys):
    # run always writes a .diag.json beside each prediction file; a run
    # without one is an error, not a run with no wrong or random words.
    cfg = replay_out
    shutil.copytree(cfg.out_dir, tmp_path / "out", ignore=shutil.ignore_patterns("reports"))
    cfg = dataclasses.replace(cfg, out_dir=str(tmp_path / "out"))
    cfg.path("diagnostics", system="llm-basic-4shot", split="es_fix-test", run=1).unlink()
    with pytest.raises(FileNotFoundError, match=r"llm-basic-4shot/es_fix-test\.run1\.diag"):
        run_score(cfg)
    assert not cfg.path("runs").exists() and not cfg.path("scores").exists()


# A torn file, a payload that is not an object, and objects without a
# "sentences" object: each used to end score with a traceback or, for {},
# to score the run with wrong = random = 0.
def _first_entry(value):
    """A damage that sets the first sentence entry of a diagnostics file."""

    def damage(text):
        payload = json.loads(text)
        payload["sentences"][next(iter(payload["sentences"]))] = value
        return json.dumps(payload)

    return damage


_BAD_DIAGNOSTICS = {
    "truncated": lambda text: text[: len(text) // 2],
    "list": lambda text: "[]",
    "empty object": lambda text: "{}",
    "sentences a list": lambda text: '{"metadata": {}, "sentences": []}',
    # Counts that are not non-negative integers used to end score with a
    # ValueError traceback ("many") or to be summed into runs.tsv (-7, true).
    "count a word": _first_entry({"wrong": "many"}),
    "count negative": _first_entry({"wrong": -7}),
    "count a bool": _first_entry({"random": True}),
    "count a float": _first_entry({"wrong": 1.0}),
    "entry a number": _first_entry(3),
}


@pytest.mark.parametrize("damage", list(_BAD_DIAGNOSTICS))
def test_score_refuses_a_diagnostics_file_that_is_not_a_diagnostics_object(
    replay_out, tmp_path, damage
):
    cfg = replay_out
    shutil.copytree(cfg.out_dir, tmp_path / "out", ignore=shutil.ignore_patterns("reports"))
    cfg = dataclasses.replace(cfg, out_dir=str(tmp_path / "out"))
    path = cfg.path("diagnostics", system="baseline", split="es_fix-test", run=0)
    path.write_text(_BAD_DIAGNOSTICS[damage](path.read_text("utf-8")), "utf-8")
    with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: diagnostics are not"):
        run_score(cfg)
    assert not cfg.path("runs").exists() and not cfg.path("scores").exists()


# --- report against the re-scoring oracle on random tallies -----------------------

_SYSTEMS = ("sys-a", "sys-b", "sys-c")


@st.composite
def _tallies(draw):
    """(correct, total, correct sentences, sentences, missing, wrong, random)."""
    total = draw(st.integers(0, 30000))
    sentences = draw(st.integers(0, 1500))
    return (
        draw(st.integers(0, total)), total,
        draw(st.integers(0, sentences)), sentences,
        draw(st.integers(0, total)), draw(st.integers(0, 99)), draw(st.integers(0, 99)),
    )


def _report_from_tallies(tallies, tests):
    """run_report on a runs.tsv and mcnemar.tsv holding the given per-system
    run tallies and per-pair discordant counts, next to the oracle's text."""
    raw = _minimal_raw(
        systems=[{"name": name, "kind": "baseline"} for name in tallies],
        runs=len(next(iter(tallies.values()))),
        comparisons=[list(pair) for pair in tests],
    )
    with tempfile.TemporaryDirectory() as tmp:
        cfg = load_config(_write_config(Path(tmp), raw))
        test_name = f"{cfg.corpus_name}-test"
        reports = [
            evaluation.EvalReport(name, test_name, tuple(evaluation.RunScore(*t) for t in runs))
            for name, runs in tallies.items()
        ]
        for report in reports:  # each accuracy is its exact ratio, rounded once
            for score, counts in zip(report.runs, tallies[report.system]):
                assert (score.word_accuracy, score.sentence_accuracy) == oracle_accuracies(*counts)
        rows = [(test_name, a, b, oracle_mcnemar(*counts)) for (a, b), counts in tests.items()]
        cfg.path("runs").parent.mkdir(parents=True)
        meta = {"experiment": cfg.name, "config_hash": cfg.config_hash}
        cfg.path("runs").write_text(evaluation.render_runs_tsv(reports, meta), "utf-8")
        cfg.path("mcnemar").write_text(evaluation.render_mcnemar_tsv(rows, meta, cfg.alpha), "utf-8")
        text = run_report(cfg)
    meta.update(corpus=cfg.corpus_name, language=cfg.language, policy=cfg.policy)
    return text, evaluation.render_report_text(reports, rows, meta, cfg.alpha)


def _starred(text):
    return [line.split()[0] for line in text.splitlines() if line.split()[1:2] == ["*"]]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda runs: st.lists(
            st.lists(_tallies(), min_size=runs, max_size=runs), min_size=1, max_size=3
        )
    ),
    st.lists(st.tuples(st.integers(0, 80), st.integers(0, 80)), min_size=3, max_size=3),
)
def test_report_matches_the_oracle_on_random_tallies(per_system, discordant):
    tallies = dict(zip(_SYSTEMS, per_system))
    pairs = [(a, b) for i, a in enumerate(tallies) for b in list(tallies)[i + 1 :]]
    text, oracle = _report_from_tallies(tallies, dict(zip(pairs, discordant)))
    assert text == oracle


@settings(max_examples=30, deadline=None)
@given(st.lists(_tallies(), min_size=1, max_size=3), st.permutations(range(3)))
def test_report_stars_both_systems_whose_means_tie_exactly(runs, order):
    # sys-b repeats sys-a's runs in another order: the means are equal floats.
    tallies = {"sys-a": runs, "sys-b": [runs[i] for i in order if i < len(runs)]}
    text, oracle = _report_from_tallies(tallies, {})
    assert text == oracle
    assert _starred(text) == ["sys-a", "sys-b"]


@settings(max_examples=30, deadline=None)
@given(st.integers(20000, 60000), st.floats(0.01, 0.99), st.booleans())
def test_report_stars_one_of_two_means_equal_to_four_decimals(total, share, swap):
    # Farey neighbours: other/other_total exceeds correct/total by exactly
    # 1/(total*other_total), as little as 1e-9 apart.
    correct = round(total * share)
    assume(math.gcd(correct, total) == 1)
    other_total = -pow(correct, -1, total) % total
    other = (1 + correct * other_total) // total
    assume(f"{correct / total:.4f}" == f"{other / other_total:.4f}")
    runs = [[(correct, total, 0, 10, 0, 0, 0)], [(other, other_total, 0, 10, 0, 0, 0)]]
    tallies = dict(zip(("sys-a", "sys-b"), runs[::-1] if swap else runs))
    text, oracle = _report_from_tallies(tallies, {})
    assert text == oracle
    assert _starred(text) == ["sys-a" if swap else "sys-b"]


def test_baseline_runs_are_identical(replay_out):
    cfg = replay_out
    keys = {"system": "baseline", "split": "es_fix-test"}
    _, run0 = read_predictions(cfg.path("predictions", **keys, run=0))
    _, run1 = read_predictions(cfg.path("predictions", **keys, run=1))
    assert run0 == run1


def test_report_text_names_all_systems(replay_out):
    cfg = replay_out
    text = cfg.path("report").read_text("utf-8")
    for system in cfg.systems:
        assert system.name in text
    assert "McNemar's test" in text


# --- failure policy and external systems on a tiny experiment -------------------


@pytest.fixture()
def tiny_experiment(tmp_path):
    tiny = corpus(
        "tiny",
        sentence("tiny-0000", ("aa", "aa"), ("bb", "bb")),
        sentence("tiny-0001", ("cc", "cc"), ("dd", "dd")),
        sentence("tiny-0002", ("ee", "ee"), ("ff", "ff")),
        sentence("tiny-0003", ("gg", "gg"), ("hh", "hh")),
        sentence("tiny-0004", ("failme", "failme"), ("ii", "ii")),
        sentence("tiny-0005", ("jj", "jj"), ("kk", "kk")),
    )
    write_tsv(tiny, tmp_path / "corpus.tsv")
    external = tmp_path / "external.tsv"
    external.write_text("failme\tfailme\nii\tii\n\njj\tjj\nkk\tWRONG\n", "utf-8")
    raw = {
        "name": "tiny",
        "language": "English",
        "corpus": {"path": "corpus.tsv", "format": "tsv", "name": "tiny"},
        "split": {"train": 2, "dev": 2, "test": 2},
        "systems": [
            {
                "name": "llm-identity",
                "kind": "llm",
                "prompt": {
                    "template": "basic",
                    "input_mode": "word-list",
                    "shots": 0,
                    "selection": "random",
                },
            },
            {"name": "external-ref", "kind": "external", "predictions": ["external.tsv"]},
        ],
        "provider": {"model": "stub", "max_retries": 0, "retry_backoff": 0.0},
        "runs": 1,
        "cache_mode": "record",
        "comparisons": [],
    }
    cfg = load_config(_write_config(tmp_path, raw))
    run_ingest(cfg)
    run_split(cfg)
    return cfg


def test_failed_request_scores_as_all_missing(tiny_experiment):
    cfg = tiny_experiment

    def flaky(config, prompt):
        if "failme" in prompt:
            raise TransportError("simulated outage")
        return identity_transport(config, prompt)

    run_predictions(cfg, transport=flaky)
    metadata, blocks = read_predictions(
        cfg.path("predictions", system="llm-identity", split="tiny-test", run=0)
    )
    assert metadata["failures"] == "1"
    assert blocks == [
        ("tiny-0004", ("failme", "ii"), (None, None)),
        ("tiny-0005", ("jj", "kk"), ("jj", "kk")),
    ]

    keys = {"system": "llm-identity", "split": "tiny-test", "run": 0}
    _, diag = read_diagnostics(cfg.path("diagnostics", **keys))
    assert diag["tiny-0004"] == {"missing": 2, "wrong": 0, "random": 0, "incorrect": 0}

    reports = run_score(cfg)
    scores = {r.system: r for r in reports}
    assert scores["llm-identity"].runs[0].word_accuracy == 0.5
    assert scores["external-ref"].runs[0].word_accuracy == 0.75  # one WRONG lemma


def test_live_mode_opens_no_cache(tiny_experiment):
    cfg = dataclasses.replace(tiny_experiment, cache_mode="live")
    cache_dir = Path(cfg.cache_dir)
    cache_dir.mkdir()
    (cache_dir / "index.tsv").write_text("# cache-format = lemmabench-cache/1\n", "utf-8")  # refused if opened
    run_predictions(cfg, transport=identity_transport)
    assert cfg.path("predictions", system="llm-identity", split="tiny-test", run=0).exists()
    assert [p.name for p in cache_dir.iterdir()] == ["index.tsv"]


def test_external_predictions_are_normalized_with_ids(tiny_experiment):
    cfg = tiny_experiment
    run_predictions(cfg, transport=identity_transport)
    keys = {"system": "external-ref", "split": "tiny-test", "run": 0}
    _, blocks = read_predictions(cfg.path("predictions", **keys))
    assert [sentence_id for sentence_id, _, _ in blocks] == ["tiny-0004", "tiny-0005"]


def _external_only(cfg, directory, files):
    """cfg with one external system, ext, over these files, and 3 runs."""
    for name, text in files.items():
        (directory / name).write_text(text, "utf-8")
    system = experiment.SystemSpec(
        "ext", "external", predictions=tuple(str(directory / name) for name in files)
    )
    return dataclasses.replace(cfg, systems=(system,), runs=3, comparisons=())


def test_a_shared_external_file_is_read_once_for_every_run(tiny_experiment, tmp_path, monkeypatch):
    files = {"shared.tsv": "failme\tfailme\nii\tii\n\njj\tjj\nkk\tkk\n"}
    cfg = _external_only(tiny_experiment, tmp_path, files)
    reads = []
    monkeypatch.setattr(
        experiment, "read_predictions", lambda path: reads.append(path) or read_predictions(path)
    )
    run_predictions(cfg)
    assert len(reads) == 1
    for run in range(3):
        path = cfg.path("predictions", system="ext", split="tiny-test", run=run)
        _, blocks = read_predictions(path)
        assert [lemmas for _, _, lemmas in blocks] == [("failme", "ii"), ("jj", "kk")]


def test_a_faulty_last_external_file_leaves_no_run_written(tiny_experiment, tmp_path):
    good = "failme\tfailme\nii\tii\n\njj\tjj\nkk\tkk\n"
    files = {"run0.tsv": good, "run1.tsv": good, "run2.tsv": "failme\tfailme\nii\tii\n"}
    cfg = _external_only(tiny_experiment, tmp_path, files)
    last = cfg.systems[0].predictions[2]
    with pytest.raises(ScoringError, match=rf"^{re.escape(last)}: 1 anonymous prediction blocks"):
        run_predictions(cfg)
    system_dir = cfg.path("predictions", system="ext", split="tiny-test", run=0).parent
    assert not system_dir.exists() or not any(system_dir.iterdir())


def test_report_stage_returns_rendered_text(tiny_experiment):
    cfg = tiny_experiment
    run_predictions(cfg, transport=identity_transport)
    run_score(cfg)
    run_compare(cfg)
    text = run_report(cfg)
    assert "llm-identity" in text and "external-ref" in text
    assert cfg.path("report").read_text("utf-8") == text


# --- the baseline path: induce once, train from the pair labels -----------------


@pytest.fixture()
def baseline_experiment(tmp_path):
    toy = corpus(
        "toy",
        sentence("toy-0000", ("Perros", "perro"), ("perros", "perro"), ("1", "1")),
        sentence("toy-0001", ("perros", "perro"), ("ladran", "ladrar"), ("1", "1")),
        sentence("toy-0002", ("gatos", "gato"), ("comen", "comer")),
        sentence("toy-0003", ("perros", "perro"), ("comen", "comer")),
    )
    write_tsv(toy, tmp_path / "corpus.tsv")
    raw = _minimal_raw(split={"train": 2, "dev": 1, "test": 1})
    cfg = load_config(_write_config(tmp_path, raw))
    run_ingest(cfg)
    run_split(cfg)
    return cfg


def test_pipeline_induces_each_distinct_pair_once(baseline_experiment, monkeypatch):
    cfg = baseline_experiment
    train = ingest_tsv(cfg.path("train"))
    calls = []
    real_induce = editscript.induce

    def counting_induce(wordform, lemma):
        calls.append((wordform, lemma))
        return real_induce(wordform, lemma)

    monkeypatch.setattr(editscript, "induce", counting_induce)
    run_induce(cfg)
    assert sorted(calls) == sorted(
        {("Perros", "perro"), ("perros", "perro"), ("1", "1"), ("ladran", "ladrar")}
    )
    calls.clear()
    # train-baseline neither reads the train split nor induces anything.
    cfg.path("train").unlink()
    model = run_train_baseline(cfg)
    assert calls == []
    pairs = editscript.pair_scripts(train.sentences)
    assert model == baseline.train(pairs, editscript.build_inventory(pairs), cfg.max_suffix_len)


def test_baseline_only_run_leaves_the_dev_split_unread(baseline_experiment):
    cfg = baseline_experiment
    run_induce(cfg)
    run_train_baseline(cfg)
    cfg.path("dev").unlink()
    run_predictions(cfg, transport=forbidden_transport)
    assert run_score(cfg)[0].runs[0].total == 2


def test_dev_diagnostics_count_only_annotated_tokens_as_incorrect(tmp_path):
    # The dev sentence's "gatos" has no gold lemma: the baseline's lemma for it
    # is neither right nor wrong, so it is not counted as incorrect.
    toy = corpus(
        "toy",
        sentence("toy-0000", ("Perros", "perro"), ("perros", "perro"), ("1", "1")),
        sentence("toy-0001", ("perros", "perro"), ("ladran", "ladrar"), ("1", "1")),
        sentence("toy-0002", ("gatos", None), ("perros", "perrito"), ("1", "1")),
        sentence("toy-0003", ("perros", "perro"), ("comen", "comer")),
    )
    write_tsv(toy, tmp_path / "corpus.tsv")
    raw = _minimal_raw(split={"train": 2, "dev": 1, "test": 1})
    cfg = load_config(_write_config(tmp_path, raw))
    for stage in (run_ingest, run_split, run_induce, run_train_baseline):
        stage(cfg)
    dev = cfg.split_name("dev")
    _, blocks = read_predictions(cfg.path("predictions", system="baseline", split=dev, run=0))
    assert blocks == [("toy-0002", ("gatos", "perros", "1"), ("gato", "perro", "1"))]
    _, diag = read_diagnostics(cfg.path("diagnostics", system="baseline", split=dev, run=0))
    assert diag == {"toy-0002": {"missing": 0, "wrong": 0, "random": 0, "incorrect": 1}}


def test_hash_initial_wordform_survives_ingest_to_score(tmp_path):
    # A hashtag token (as in UD EWT) is a row, not a comment, in every TSV
    # artifact between ingest and score.
    def conllu_sentence(*forms):
        return "".join(
            f"{i}\t{form}\t{form.lower()}\t_\t_\t_\t_\t_\t_\t_\n"
            for i, form in enumerate(forms, start=1)
        ) + "\n"

    (tmp_path / "tweets.conllu").write_text(
        "# sent_id = 1\n# text = Love #nlp !\n"
        + conllu_sentence("Love", "#nlp", "!")
        + conllu_sentence("#nlp", "rocks")
        + conllu_sentence("#nlp", "!")
        + conllu_sentence("We", "love", "#nlp", "!"),
        "utf-8",
    )
    raw = _minimal_raw(
        corpus={"path": "tweets.conllu", "format": "conllu"},
        split={"train": 2, "dev": 1, "test": 1},
    )
    cfg = load_config(_write_config(tmp_path, raw))
    run_ingest(cfg)
    splits = run_split(cfg)
    test = ingest_tsv(cfg.path("test"))
    assert test.sentences[0].wordforms == ("We", "love", "#nlp", "!")
    assert test.sentences == splits["test"].sentences
    run_induce(cfg)
    run_train_baseline(cfg)
    run_predictions(cfg, transport=forbidden_transport)
    keys = {"system": "baseline", "split": "tweets-test", "run": 0}
    _, blocks = read_predictions(cfg.path("predictions", **keys))
    _, wordforms, lemmas = blocks[0]
    assert (wordforms[2], lemmas[2]) == ("#nlp", "#nlp")
    assert run_score(cfg)[0].runs[0].total == 4
