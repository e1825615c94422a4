"""Frequency-table lemmatizer over induced edit scripts.

Lookup order per token: exact case-folded form, then longest stored suffix
(max length down to 1), then the identity script.  Stored scripts come from
training counts with ties broken by label-inventory id, so training twice
on the same corpus gives the same model.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from . import artifact
from .corpus import Sentence
from .editscript import IDENTITY, EditScript, LabelInventory, PairScript, apply
# Not called here: baseline.induce stays bound because perfbench's tracer
# test checks that binding site.
from .editscript import induce  # noqa: F401
from .errors import EmptyCorpusError, InapplicableScriptError, ModelFormatError

DEFAULT_MAX_SUFFIX = 5


@dataclass
class BaselineModel:
    form_table: dict[str, EditScript] = field(default_factory=dict)
    suffix_table: dict[str, EditScript] = field(default_factory=dict)
    max_suffix_len: int = DEFAULT_MAX_SUFFIX


def train(
    pairs: list[PairScript],
    inventory: LabelInventory,
    max_suffix_len: int = DEFAULT_MAX_SUFFIX,
) -> BaselineModel:
    """Count scripts per case-folded form and per suffix, keep the majority.

    pairs are the (wordform, script, token count) triples of
    editscript.pair_scripts, or the same triples read back with
    editscript.read_pair_labels.
    """
    if not pairs:
        raise EmptyCorpusError("cannot train on an empty training set")

    form_counts: dict[str, Counter[EditScript]] = defaultdict(Counter)
    suffix_counts: dict[str, Counter[EditScript]] = defaultdict(Counter)
    for wordform, script, count in pairs:
        key = wordform.casefold()
        form_counts[key][script] += count
        for length in range(1, min(max_suffix_len, len(key)) + 1):
            suffix_counts[key[-length:]][script] += count

    def majority(counter: Counter[EditScript]) -> EditScript:
        # highest count wins; ties go to the lower (more frequent) label id
        return min(counter.items(), key=lambda item: (-item[1], inventory.id_of(item[0])))[0]

    return BaselineModel(
        form_table={form: majority(counts) for form, counts in form_counts.items()},
        suffix_table={suffix: majority(counts) for suffix, counts in suffix_counts.items()},
        max_suffix_len=max_suffix_len,
    )


def _candidate_scripts(model: BaselineModel, key: str):
    script = model.form_table.get(key)
    if script is not None:
        yield script
    for length in range(min(model.max_suffix_len, len(key)), 0, -1):
        script = model.suffix_table.get(key[-length:])
        if script is not None:
            yield script
    yield IDENTITY


def predict(model: BaselineModel, sentence: Sentence) -> list[str]:
    """One lemma per input token, never skipping or reordering."""
    lemmas = []
    for wordform in sentence.wordforms:
        for script in _candidate_scripts(model, wordform.casefold()):
            try:
                lemmas.append(apply(script, wordform))
                break
            except InapplicableScriptError:
                continue  # script induced from a longer word; fall back
    return lemmas


def predict_identity(sentence: Sentence) -> list[str]:
    """The do-nothing lemmatizer every trained model has to beat."""
    return list(sentence.wordforms)


MODEL_FORMAT = "lemmabench-baseline/1"
MODEL_COLUMNS = ("table", "key", "script")


def write_model(model: BaselineModel, path: str | Path) -> None:
    tables = (("form", model.form_table), ("suffix", model.suffix_table))
    scripts = {script for _, table in tables for script in table.values()}
    encoded = {script: script.encode() for script in scripts}  # once per distinct script
    meta = {
        "format": MODEL_FORMAT,
        "max_suffix_len": model.max_suffix_len,
        "columns": "\t".join(MODEL_COLUMNS),
    }
    rows = ((name, key, encoded[table[key]]) for name, table in tables for key in sorted(table))
    artifact.write(path, meta, rows)


def read_model(path: str | Path) -> BaselineModel:
    """A row that is not form|suffix<TAB>key<TAB>script, or a
    max_suffix_len header that is not an integer, is a ModelFormatError
    naming the file and line."""
    model = BaselineModel()
    tables = {"form": model.form_table, "suffix": model.suffix_table}
    scripts: dict[str, EditScript] = {}  # each distinct script is decoded once

    def decode(fields: list[str]) -> None:
        table, key, encoded = fields
        if table not in tables:
            raise ValueError(f"table {table!r} is not form or suffix")
        if encoded not in scripts:
            scripts[encoded] = EditScript.decode(encoded)
        tables[table][key] = scripts[encoded]

    headers = {"max_suffix_len": lambda value: artifact.natural(value, "max_suffix_len")}
    meta, _ = artifact.read(path, MODEL_COLUMNS, ModelFormatError, decode, headers)
    model.max_suffix_len = meta.get("max_suffix_len", model.max_suffix_len)
    return model
