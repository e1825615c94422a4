"""Frequency-table lemmatizer over induced edit scripts.

Lookup order per token: exact case-folded form, then longest stored suffix
(max length down to 1), then the identity script.  Stored scripts come from
training counts with ties broken by label-inventory id, so training twice
on the same corpus gives the same model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from . import artifact
from .corpus import Sentence
from .editscript import IDENTITY, EditScript, LabelInventory, PairScript, apply
# Not called here: baseline.induce stays bound because perfbench's tracer
# test checks that binding site.
from .editscript import induce  # noqa: F401
from .errors import EmptyCorpusError, InapplicableScriptError

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
    editscript.read_pair_labels.  Each pair's script is looked up in the
    inventory once, and every form and suffix tallies tokens per label id
    in a plain dict; the majority label is mapped back to its script.
    """
    if not pairs:
        raise EmptyCorpusError("cannot train on an empty training set")

    form_counts: dict[str, dict[int, int]] = {}
    suffix_counts: dict[str, dict[int, int]] = {}
    for wordform, script, count in pairs:
        label = inventory.id_of(script)
        key = wordform.casefold()
        tally = form_counts.setdefault(key, {})
        tally[label] = tally.get(label, 0) + count
        for length in range(1, min(max_suffix_len, len(key)) + 1):
            tally = suffix_counts.setdefault(key[-length:], {})
            tally[label] = tally.get(label, 0) + count

    def majority(tally: dict[int, int]) -> EditScript:
        # highest count wins; ties go to the lower (more frequent) label id
        if len(tally) == 1:
            return inventory.script_of(next(iter(tally)))
        return inventory.script_of(min(tally, key=lambda label: (-tally[label], label)))

    return BaselineModel(
        form_table={form: majority(tally) for form, tally in form_counts.items()},
        suffix_table={suffix: majority(tally) for suffix, tally in suffix_counts.items()},
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
    """A row that is not form|suffix<TAB>key<TAB>script, a second row for
    the same table and key, or a max_suffix_len header that is not an
    integer, is a FileFormatError naming the file and line."""
    model = BaselineModel()
    tables = {"form": model.form_table, "suffix": model.suffix_table}
    scripts: dict[str, EditScript] = {}  # each distinct script is decoded once

    def decode(fields: list[str]) -> None:
        table, key, encoded = fields
        if table not in tables:
            raise ValueError(f"table {table!r} is not form or suffix")
        if encoded not in scripts:
            scripts[encoded] = EditScript.decode(encoded)
        if key in tables[table]:
            raise ValueError(f"repeats the {table} row for {key!r}")
        tables[table][key] = scripts[encoded]

    headers = {"max_suffix_len": lambda value: artifact.natural(value, "max_suffix_len")}
    meta, _ = artifact.read(path, MODEL_COLUMNS, decode, headers)
    model.max_suffix_len = meta.get("max_suffix_len", model.max_suffix_len)
    return model
