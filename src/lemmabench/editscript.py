"""Minimum edit scripts mapping a wordform to its lemma.

A script is a casing flag plus a prefix and a suffix operation, each
"delete N leading/trailing characters, then splice in a replacement".
This family keeps the label inventory finite while covering concatenative
morphology; a whole-word replacement is always representable, so induction
is total.  All counts are Unicode code points, never bytes.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from . import artifact
from .corpus import Corpus
from .errors import (
    InapplicableScriptError,
    InventoryFormatError,
    LemmabenchError,
    MissingLemmaError,
)

PRESERVE = "preserve"
LOWER_FIRST = "lowercase-first"
UPPER_FIRST = "uppercase-first"

_CASE_FLAGS = (PRESERVE, LOWER_FIRST, UPPER_FIRST)


@dataclass(frozen=True, order=True)
class EditScript:
    case_flag: str = PRESERVE
    prefix_drop: int = 0
    prefix_add: str = ""
    suffix_drop: int = 0
    suffix_add: str = ""

    @property
    def edit_size(self) -> int:
        """Total characters deleted or inserted (the minimality measure)."""
        return self.prefix_drop + len(self.prefix_add) + self.suffix_drop + len(self.suffix_add)

    def is_identity(self) -> bool:
        return self == IDENTITY

    def encode(self) -> str:
        """Stable single-field encoding (JSON escapes tabs/newlines)."""
        return json.dumps(
            [self.case_flag, self.prefix_drop, self.prefix_add, self.suffix_drop, self.suffix_add],
            ensure_ascii=False,
            separators=(",", ":"),
        )

    @classmethod
    def decode(cls, encoded: str) -> "EditScript":
        """The script encode wrote; ValueError for any other text or field type."""
        try:
            case_flag, prefix_drop, prefix_add, suffix_drop, suffix_add = json.loads(encoded)
        except (ValueError, TypeError) as exc:
            raise ValueError(f"script {encoded!r} does not decode: {exc}") from exc
        fields = (prefix_drop, prefix_add, suffix_drop, suffix_add)
        typed = tuple(map(type, fields)) == (int, str, int, str)
        if case_flag not in _CASE_FLAGS or not typed or min(prefix_drop, suffix_drop) < 0:
            raise ValueError(f"script {encoded!r} is not [case flag, int >= 0, str, int >= 0, str]")
        return cls(case_flag, *fields)


IDENTITY = EditScript()


def _recase(flag: str, word: str) -> str:
    if flag == LOWER_FIRST:
        return word[:1].lower() + word[1:]
    if flag == UPPER_FIRST:
        return word[:1].upper() + word[1:]
    return word


def apply(script: EditScript, wordform: str) -> str:
    """Run a script on a wordform; deterministic, identity-preserving.

    Raises InapplicableScriptError when the deletions do not fit the word.
    """
    word = _recase(script.case_flag, wordform)
    if script.prefix_drop + script.suffix_drop > len(word):
        raise InapplicableScriptError(
            f"script {script.encode()} deletes more than the {len(word)} characters of {wordform!r}"
        )
    core = word[script.prefix_drop : len(word) - script.suffix_drop]
    return script.prefix_add + core + script.suffix_add


def _common_cores(word: str, lemma: str) -> list[tuple[int, int, int]]:
    """(word_start, lemma_start, length) for each substring of the lemma of
    the maximal length the word shares, at its first place in the word;
    [(0, 0, 0)] when the two share no character.

    Only the longest shared substrings matter, because edit size is
    len(word) + len(lemma) - 2 * length, and only the first place of each
    in the word, because a later one raises induce's third key field and
    leaves the earlier ones as they are.  Most pairs share a substring
    within two characters of min(len(word), len(lemma)) (96-97% of the
    calls on the benchmark's synthetic corpora), so the top three lengths
    are tried one by one: half the time of bisection from the top, where
    trying two takes a third longer and four no less.  Below them the
    maximal length is found by bisection, as a shared substring of length L
    holds one of length L - 1: a long pair that shares little costs
    O(log m) lengths of at most m finds each, not m lengths.
    """
    top = min(len(word), len(lemma))
    low, high, best, length = 0, top + 1, [(0, 0, 0)], top  # low is shared, high is not
    while length > low:
        found = []
        for at in range(len(lemma) - length + 1):
            start = word.find(lemma[at : at + length])
            if start >= 0:
                found.append((start, at, length))
        if found:
            low, best = length, found
        else:
            high = length
        length = length - 1 if not low and length > top - 2 else (low + high) // 2
    return best


def induce(wordform: str, lemma: str) -> EditScript:
    """Find a minimum-edit script transforming wordform into lemma.

    Guarantees apply(induce(w, l), w) == l.  Among minimal-edit candidates,
    ties prefer (in order): no casing change, suffix edits over prefix
    edits, shorter replacement strings, and finally the lexicographically
    smallest operation tuple, so equal inputs always yield the same script.
    The key ends in the full operation tuple, so no two candidates tie and
    the order in which _common_cores returns its hits cannot matter.
    """
    if not wordform or not lemma:
        raise LemmabenchError("induce requires non-empty wordform and lemma")

    # A flag that leaves the word as an earlier flag did (uncased first
    # character, or already in that case) offers the same candidates with a
    # worse flag_rank, so it can never win.
    recasings: dict[str, int] = {}
    for flag_rank, flag in enumerate(_CASE_FLAGS):
        recasings.setdefault(_recase(flag, wordform), flag_rank)
    size = len(lemma)
    _, flag_rank, _, _, operations = min(
        (
            len(word) + size - 2 * length,  # edit_size
            flag_rank,
            start + at,  # prefix_drop + len(prefix_add)
            size - length,  # len(prefix_add) + len(suffix_add)
            (start, lemma[:at], len(word) - start - length, lemma[at + length :]),
        )
        for word, flag_rank in recasings.items()
        for start, at, length in _common_cores(word, lemma)
    )
    return EditScript(_CASE_FLAGS[flag_rank], *operations)


class LabelInventory:
    """Distinct edit scripts of a training corpus with dense, stable ids.

    Ids sort by frequency (descending), then by encoded script, so two
    builds over the same corpus agree byte for byte.
    """

    def __init__(self, frequencies: dict[EditScript, int]):
        ordered = sorted(frequencies.items(), key=lambda item: (-item[1], item[0].encode()))
        self._scripts = [script for script, _ in ordered]
        self._ids = {script: i for i, script in enumerate(self._scripts)}
        self._freq = dict(frequencies)

    def __len__(self) -> int:
        return len(self._scripts)

    def __contains__(self, script: EditScript) -> bool:
        return script in self._ids

    def id_of(self, script: EditScript) -> int:
        return self._ids[script]

    def script_of(self, label_id: int) -> EditScript:
        return self._scripts[label_id]

    def frequency(self, script: EditScript) -> int:
        return self._freq[script]

    def items(self) -> list[tuple[int, EditScript, int]]:
        return [(i, s, self._freq[s]) for i, s in enumerate(self._scripts)]


PairScript = tuple[str, EditScript, int]  # (wordform, induced script, token count)


def pair_scripts(train: Corpus) -> list[PairScript]:
    """(wordform, induced script, token count) per distinct gold pair.

    The one place scripts are induced from gold pairs.  All gold pairs are
    counted first, so a token without a gold lemma raises MissingLemmaError
    before any induction, and each distinct (wordform, lemma) pair is then
    induced once, in order of first occurrence.
    """
    pairs = Counter(pair for sentence in train.sentences for pair in sentence.gold_pairs())
    return [
        (wordform, induce(wordform, lemma), count) for (wordform, lemma), count in pairs.items()
    ]


def _token_counts(pairs: list[PairScript]) -> Counter[EditScript]:
    counts: Counter[EditScript] = Counter()
    for _, script, count in pairs:
        counts[script] += count
    return counts


def build_inventory(pairs: list[PairScript]) -> LabelInventory:
    """Tabulate the label set of pair_scripts' triples, each script weighted
    by the tokens that carry it."""
    counts = _token_counts(pairs)
    if not counts:
        raise MissingLemmaError("no training tokens to induce labels from")
    return LabelInventory(counts)


INVENTORY_FORMAT = "lemmabench-inventory/1"
INVENTORY_COLUMNS = ("id", "script", "frequency")


def write_inventory(inventory: LabelInventory, path: str | Path) -> None:
    meta = {"format": INVENTORY_FORMAT, "columns": "\t".join(INVENTORY_COLUMNS)}
    artifact.write(path, meta, ((str(i), s.encode(), str(f)) for i, s, f in inventory.items()))


def read_inventory(path: str | Path) -> LabelInventory:
    """The inventory write_inventory stored.  A row that is not
    id<TAB>script<TAB>positive frequency, whose id is not its 0-based
    position, whose script repeats an earlier row's, or which breaks the
    inventory's order (frequency descending, then script) and so would be
    renumbered, is an InventoryFormatError naming the file and line."""
    frequencies: dict[EditScript, int] = {}
    last_key = None

    def decode(fields: list[str]) -> None:
        nonlocal last_key
        label_id, encoded, frequency = fields
        script = EditScript.decode(encoded)
        if label_id != str(len(frequencies)):
            raise ValueError(f"id {label_id!r} is not the row's position {len(frequencies)}")
        if script in frequencies:
            raise ValueError(f"script {encoded} repeats an earlier row")
        count = artifact.natural(frequency, "frequency")
        if not count:
            raise ValueError(f"frequency {frequency!r} is not a positive integer")
        key = (-count, script.encode())
        if last_key is not None and key < last_key:
            raise ValueError("row is out of frequency order, so its id would change")
        frequencies[script] = count
        last_key = key

    artifact.read(path, INVENTORY_COLUMNS, InventoryFormatError, decode)
    return LabelInventory(frequencies)


PAIR_LABELS_FORMAT = "lemmabench-pair-labels/1"
PAIR_LABELS_COLUMNS = ("wordform", "label id", "token count")


def write_pair_labels(
    pairs: list[PairScript], inventory: LabelInventory, path: str | Path
) -> None:
    """One wordform<TAB>label id<TAB>token count row per distinct training
    pair, in pair_scripts order, so training needs neither the train split
    nor induce."""
    meta = {"format": PAIR_LABELS_FORMAT, "columns": ", ".join(PAIR_LABELS_COLUMNS)}
    rows = ((form, str(inventory.id_of(script)), str(n)) for form, script, n in pairs)
    artifact.write(path, meta, rows)


def read_pair_labels(path: str | Path, inventory: LabelInventory) -> list[PairScript]:
    """The triples write_pair_labels stored, scripts looked up in the
    inventory the same stage wrote.

    A row without three fields, with a label id outside the inventory or
    with a count that is not a positive integer is an InventoryFormatError
    naming the file and line; so is a file whose counts do not sum to each
    label's inventory frequency, which names the first label that disagrees.
    """
    sums = [0] * len(inventory)  # tokens per label id

    def decode(fields: list[str]) -> PairScript:
        wordform, label_field, count_field = fields
        label_id = artifact.natural(label_field, "label id")
        if label_id >= len(inventory):
            raise ValueError(f"label id {label_field!r} is not one of {len(inventory)} labels")
        count = artifact.natural(count_field, "count")
        if not count:
            raise ValueError(f"count {count_field!r} is not a positive integer")
        sums[label_id] += count
        return wordform, inventory.script_of(label_id), count

    _, pairs = artifact.read(path, PAIR_LABELS_COLUMNS, InventoryFormatError, decode)
    for label_id, _, frequency in inventory.items():
        if sums[label_id] != frequency:
            raise InventoryFormatError(
                path, None, f"label {label_id} covers {sums[label_id]} tokens here but "
                f"{frequency} in the inventory: the pairs file is from another induce run"
            )
    return pairs
