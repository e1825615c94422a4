"""Model-output parsing and order-preserving alignment to input tokens.

Raw completions are messy: words get skipped, wordforms come back with
case changes or typos, and extra material appears (quoted fields,
explanation lines, duplicated answer blocks).  Parsing keeps every
plausible word/lemma line and rejects the rest; alignment then matches
output rows to input tokens in order and classifies the damage:

- missing: input tokens no output row aligned to
- wrong:   rows whose wordform only nearly matches (case change or one edit)
- random:  output rows that align to nothing, plus unparseable lines

Aligned lemmas land in one slot per input token (None where missing) so
downstream scoring never loses or reorders words.
"""

from __future__ import annotations

import json
import re
import unicodedata
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from .artifact import publish
from .corpus import Block, Sentence, _read_blocks, _write_blocks
from .errors import FileFormatError, ScoringError

# Tab(s) or runs of 2+ spaces separate fields; a single space never does,
# since wordforms themselves may contain one.
_SEPARATOR = re.compile(r"\t+| {2,}")
_QUOTE_PAIRS = {('"', '"'), ("'", "'"), ("`", "`"), ("“", "”"), ("‘", "’")}
_OPENING_QUOTES = {opening for opening, _ in _QUOTE_PAIRS}

_MATCH = 2
_NEAR = 1

PREDICTION_FORMAT = "lemmabench-predictions/1"


def _strip_quotes(field: str) -> str:
    while len(field) >= 2 and (field[0], field[-1]) in _QUOTE_PAIRS:
        field = field[1:-1]
    return field


@dataclass(frozen=True)
class ParsedOutput:
    pairs: tuple[tuple[str, str], ...]  # (wordform, lemma) rows, in output order
    rejects: tuple[str, ...]  # lines that were not two-field rows


def parse_output(raw_text: str) -> ParsedOutput:
    """Extract candidate wordform/lemma rows from a raw completion.

    A clean row, one tab with no whitespace beside it, no double space and
    no field opening with a quote, is its two fields as they stand; other
    lines go through the separator split.  Fields are NFC-normalised unless
    the whole response already is NFC: a field is then cut from it at
    whitespace, tabs and quotes, none of which composes with a neighbour,
    so it is NFC too.
    """
    pairs: list[tuple[str, str]] = []
    rejects: list[str] = []
    split, quotes = _SEPARATOR.split, _OPENING_QUOTES
    for line in raw_text.splitlines():
        line = line.strip()
        if not line:
            continue
        word, tab, lemma = line.partition("\t")
        if (
            tab
            and "\t" not in lemma
            and "  " not in line
            and not word[-1].isspace()
            and not lemma[0].isspace()
            and word[0] not in quotes
            and lemma[0] not in quotes
        ):
            pairs.append((word, lemma))
            continue
        fields = []
        for field in split(line):
            field = field.strip()
            if field[:1] in quotes:  # else _strip_quotes has nothing to strip
                field = _strip_quotes(field)
            if field:
                fields.append(field)
        if len(fields) == 2:
            pairs.append((fields[0], fields[1]))
        else:
            rejects.append(line)
    if not unicodedata.is_normalized("NFC", raw_text):
        normalize = unicodedata.normalize
        pairs = [(normalize("NFC", word), normalize("NFC", lemma)) for word, lemma in pairs]
    return ParsedOutput(pairs=tuple(pairs), rejects=tuple(rejects))


def _distance_is_one(a: str, b: str) -> bool:
    """True when Levenshtein distance is exactly 1 (single edit)."""
    if a == b or abs(len(a) - len(b)) > 1:
        return False
    if len(a) > len(b):
        a, b = b, a
    i = 0
    while i < len(a) and a[i] == b[i]:
        i += 1
    if len(a) == len(b):
        return a[i + 1 :] == b[i + 1 :]
    return a[i:] == b[i + 1 :]


def _pair_score(out_word: str, in_word: str) -> int | None:
    if out_word == in_word:
        return _MATCH
    if out_word.casefold() == in_word.casefold() or _distance_is_one(out_word, in_word):
        return _NEAR
    return None


def _match_keys(word: str) -> set[str]:
    """Strings that two words both produce whenever _pair_score pairs them:
    the word itself (exact), its case fold (case change) and every string
    one deletion away (one edit)."""
    return {word, word.casefold(), *[word[:k] + word[k + 1 :] for k in range(len(word))]}


def _candidate_cells(out_words: Sequence[str], in_words: Sequence[str]) -> list[dict[int, int]]:
    """Per output row, {input index: weight} for every input token the row
    can match, in ascending index order; the weight is the pair score + 2.

    Each distinct word of either side is filed under its match keys; words
    sharing a key are candidates, confirmed with _pair_score.  Rows with the
    same word share one dict, so repeated words and duplicated blocks cost
    one lookup.
    """
    positions: dict[str, list[int]] = {}
    for j, word in enumerate(in_words):
        positions.setdefault(word, []).append(j)
    groups: dict[str, list[str]] = {}
    shared: set[str] = set()
    for word in {*positions, *out_words}:
        for key in _match_keys(word):
            if key in groups:
                groups[key].append(word)
                shared.add(key)
            else:
                groups[key] = [word]
    related: dict[str, set[str]] = {}
    for key in shared:
        for word in groups[key]:
            related.setdefault(word, set()).update(groups[key])

    cells: dict[str, dict[int, int]] = {}
    for word in out_words:
        if word in cells:
            continue
        found = []
        for in_word in related.get(word, (word,)):
            if in_word in positions:
                s = _pair_score(word, in_word)
                if s is not None:
                    found.extend((j, s + 2) for j in positions[in_word])
        cells[word] = dict(sorted(found))
    return [cells[word] for word in out_words]


def _embedding(short: Sequence[str], long: Sequence[str]) -> list[int] | None:
    """The position in long of each word of short, each at its first exact
    occurrence after the previous word's; None if short is no subsequence."""
    positions, start = [], 0
    for word in short:
        try:
            start = long.index(word, start) + 1
        except ValueError:
            return None
        positions.append(start - 1)
    return positions


def align_sequences(out_words: Sequence[str], in_words: Sequence[str]) -> list[tuple[int, int]]:
    """Globally align output words to input words, preserving order.

    Returns matched (output_index, input_index) pairs, ascending in both.
    Ties prefer leaving later output rows unmatched, so a duplicated
    answer block matches on its first copy and the copy counts as noise.

    The score of an alignment is the sum of its pair scores minus one per
    unmatched word on either side.  W[i][j] = score[i][j] + i + j turns that
    into a weighted LCS: a gap adds 0 and a match adds its pair score + 2,
    so every row of W is nondecreasing.  Row i starts as a copy of row i-1
    and only its candidate cells raise it, each with one slice assignment
    up to the first cell already as high.  The traceback keeps the full
    DP's preference order on W: skip the output row, else match, else skip
    the input token.

    Two exact rules skip all of this; the README gives their proofs.  When
    the lists have equal length and every diagonal pair scores with at most
    3 near, the diagonal is the unique optimum.  When one list is an exact
    subsequence of the other, the optima are exactly its full exact
    embeddings, and the traceback picks the right-greedy one of a shorter
    output and the left-greedy one of a shorter input.
    """
    n, m = len(out_words), len(in_words)
    if n == m:
        near = 0
        for out_word, in_word in zip(out_words, in_words):
            if out_word != in_word:
                near += 1
                if near > 3 or _pair_score(out_word, in_word) is None:
                    break
        else:
            return [(k, k) for k in range(n)]
    elif n < m:
        found = _embedding(out_words[::-1], in_words[::-1])
        if found is not None:
            return [(i, m - 1 - j) for i, j in enumerate(reversed(found))]
    else:
        found = _embedding(in_words, out_words)
        if found is not None:
            return [(i, j) for j, i in enumerate(found)]
    candidates = _candidate_cells(out_words, in_words)
    rows = [[0] * (m + 1)]
    for cells in candidates:
        prev = rows[-1]
        cur = prev[:] if cells else prev  # a row without candidates is never written
        for j, weight in cells.items():
            val = prev[j] + weight
            if val > cur[j + 1]:
                k = bisect_left(cur, val, j + 1)
                cur[j + 1 : k] = [val] * (k - j - 1)
        rows.append(cur)

    matched: list[tuple[int, int]] = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and rows[i][j] == rows[i - 1][j]:
            i -= 1  # output row left unmatched
            continue
        if i > 0 and j > 0:
            weight = candidates[i - 1].get(j - 1)
            if weight is not None and rows[i][j] == rows[i - 1][j - 1] + weight:
                matched.append((i - 1, j - 1))
                i, j = i - 1, j - 1
                continue
        j -= 1  # input token left unmatched
    matched.reverse()
    return matched


@dataclass(frozen=True)
class AlignedPrediction:
    """Per-token lemma slots for one sentence plus the error tallies."""

    lemmas: tuple[str | None, ...]  # one slot per input token; None = missing
    wrong: int  # input tokens aligned via a near match
    random: int  # output rows aligned to nothing + rejected lines

    def counts(self) -> dict[str, int]:
        return {"missing": self.lemmas.count(None), "wrong": self.wrong, "random": self.random}


def align(parsed: ParsedOutput, sentence: Sentence) -> AlignedPrediction:
    """Assign each parsed row to an input token and classify the errors."""
    in_words = sentence.wordforms
    out_words = [w for w, _ in parsed.pairs]
    matched = align_sequences(out_words, in_words)

    lemmas: list[str | None] = [None] * len(in_words)
    wrong = 0
    for out_idx, in_idx in matched:
        lemmas[in_idx] = parsed.pairs[out_idx][1]
        wrong += out_words[out_idx] != in_words[in_idx]
    random = len(out_words) - len(matched) + len(parsed.rejects)
    return AlignedPrediction(tuple(lemmas), wrong, random)


def write_predictions(
    path: str | Path, blocks: list[Block], metadata: dict[str, str] | None = None
):
    """Write sentence-per-block prediction TSV; each block is (sentence_id,
    wordforms, lemma slots), and a missing lemma an empty second field."""
    meta = {"format": PREDICTION_FORMAT, **(metadata or {})}
    _write_blocks(path, meta, blocks)


def _prediction_row(fields: list[str], path, line_no: int) -> tuple[str, str | None]:
    if len(fields) != 2:
        raise ScoringError(
            f"{path}:{line_no}: prediction row has {len(fields)} tab-separated "
            "fields, expected wordform<TAB>lemma"
        )
    return fields[0], fields[1] or None


def read_predictions(path: str | Path) -> tuple[dict[str, str], list[Block]]:
    """Metadata plus ordered blocks of a prediction file, external ones too:
    sent_id headers are optional (scoring then matches blocks to sentences
    by order), and a row that is not wordform<TAB>lemma, the lemma possibly
    empty, is a ScoringError naming the file and line."""
    metadata: dict[str, str] = {}
    return metadata, list(_read_blocks(path, _prediction_row, True, metadata))


def write_diagnostics(path: str | Path, metadata: dict, sentences: dict[str, dict]):
    """Persist per-sentence error counts as deterministic JSON."""
    payload = {"metadata": metadata, "sentences": sentences}
    text = json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True)
    publish(path, [text, "\n"])


def read_diagnostics(path: str | Path) -> tuple[dict, dict[str, dict[str, int]]]:
    """(metadata, per-sentence counts) of a .diag.json file; a FileFormatError
    names the file when it is not a JSON object with a "sentences" object
    whose entries are objects of non-negative integers."""
    try:
        payload = json.loads(Path(path).read_text("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError is a ValueError too
        raise FileFormatError(path, None, f"diagnostics are not JSON: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("sentences"), dict):
        raise FileFormatError(path, None, 'diagnostics are not an object with a "sentences" object')
    for sentence_id, counts in payload["sentences"].items():
        if not isinstance(counts, dict) or any(
            type(n) is not int or n < 0 for n in counts.values()
        ):
            message = f"diagnostics are not non-negative integer counts for sentence {sentence_id}"
            raise FileFormatError(path, None, message)
    return payload.get("metadata", {}), payload["sentences"]
