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
from functools import lru_cache
from pathlib import Path
from typing import Iterable

from . import artifact
from .corpus import Sentence
from .errors import (
    FileFormatError,
    InapplicableScriptError,
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


@lru_cache(maxsize=1 << 16)
def _shared(*fields) -> EditScript:
    """The script with these fields, one object for every call that asks:
    a dict then finds it by identity, without comparing fields.  A pipeline
    meets few distinct scripts (one per label); the cache is bounded, so
    inducing arbitrary text cannot grow it without end."""
    return EditScript(*fields)


def induce(wordform: str, lemma: str) -> EditScript:
    """Find a minimum-edit script transforming wordform into lemma.

    Guarantees apply(induce(w, l), w) == l.  Among minimal-edit candidates,
    ties prefer (in order): no casing change, suffix edits over prefix
    edits, shorter replacement strings, and finally the lexicographically
    smallest operation tuple, so equal inputs always yield the same script.
    The key ends in the full operation tuple, so no two candidates tie and
    the order in which _common_cores returns its hits cannot matter.
    Equal scripts are one object.
    """
    if not wordform or not lemma:
        raise LemmabenchError("induce requires non-empty wordform and lemma")

    # Half the pairs of a corpus are identical or one is a prefix of the
    # other.  Every candidate edits at least the length difference of its
    # recased word and the lemma, and recasing never shortens the word, so
    # the unrecased word's own prefix wins at the best flag rank.  Only when
    # the word is the shorter one can a longer recasing (ß -> SS, ŉ -> ʼN,
    # İ -> i̇) share more of the lemma, so there both case mappings of the
    # first character must keep it one character.
    if wordform.startswith(lemma):
        return _shared(PRESERVE, 0, "", len(wordform) - len(lemma), "")
    head, rest = wordform[0], wordform[1:]
    if lemma.startswith(wordform) and len(head.lower()) == len(head.upper()) == 1:
        return _shared(PRESERVE, 0, "", 0, lemma[len(wordform) :])

    # A recasing equal to an earlier word (uncased first character, or
    # already in that case) offers the same candidates at a worse flag rank.
    # So does one whose recased head has no character in the lemma: its
    # common substrings then lie in rest, which the unrecased word ends with,
    # and they leave it no fewer characters to delete.
    recasings = {wordform: 0}
    for flag_rank, recased in enumerate((head.lower(), head.upper()), 1):
        if any(c in lemma for c in recased):
            recasings.setdefault(recased + rest, flag_rank)
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
    return _shared(_CASE_FLAGS[flag_rank], *operations)


class LabelInventory:
    """Distinct edit scripts of a training corpus with dense, stable ids.

    Ids sort by frequency (descending), then by encoded script, so two
    builds over the same corpus agree byte for byte.
    """

    def __init__(self, frequencies: dict[EditScript, int]):
        self._ordered = sorted(frequencies.items(), key=lambda item: (-item[1], item[0].encode()))
        self._ids = {script: i for i, (script, _) in enumerate(self._ordered)}

    def __len__(self) -> int:
        return len(self._ordered)

    def id_of(self, script: EditScript) -> int:
        return self._ids[script]

    def script_of(self, label_id: int) -> EditScript:
        return self._ordered[label_id][0]

    def items(self) -> list[tuple[int, EditScript, int]]:
        return [(i, s, f) for i, (s, f) in enumerate(self._ordered)]


PairScript = tuple[str, EditScript, int]  # (wordform, induced script, token count)


def pair_scripts(train: Iterable[Sentence]) -> list[PairScript]:
    """(wordform, induced script, token count) per distinct gold pair of the
    training sentences, which are read once, one at a time.

    The one place scripts are induced from gold pairs.  All gold pairs are
    counted first, so a token without a gold lemma raises MissingLemmaError
    before any induction, and each distinct (wordform, lemma) pair is then
    induced once, in order of first occurrence.
    """
    pairs: Counter[tuple[str, str]] = Counter()
    for sentence in train:
        sentence.require_lemmas()
        pairs.update(zip(sentence.wordforms, sentence.lemmas, strict=True))
    return [
        (wordform, induce(wordform, lemma), count) for (wordform, lemma), count in pairs.items()
    ]


def build_inventory(pairs: list[PairScript]) -> LabelInventory:
    """Tabulate the label set of pair_scripts' triples, each script weighted
    by the tokens that carry it."""
    counts: Counter[EditScript] = Counter()
    for _, script, count in pairs:
        counts[script] += count
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
    renumbered, is a FileFormatError naming the file and line."""
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

    artifact.read(path, INVENTORY_COLUMNS, decode)
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
    with a count that is not a positive integer is a FileFormatError
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

    _, pairs = artifact.read(path, PAIR_LABELS_COLUMNS, decode)
    for label_id, _, frequency in inventory.items():
        if sums[label_id] != frequency:
            raise FileFormatError(
                path, None, f"label {label_id} covers {sums[label_id]} tokens here but "
                f"{frequency} in the inventory: the pairs file is from another induce run"
            )
    return pairs
