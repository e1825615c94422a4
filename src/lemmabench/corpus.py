"""Corpus ingestion and split management.

Two input formats are supported: CoNLL-U (UD v2, 10 tab-separated columns)
and a plain two-column ``wordform<TAB>lemma`` TSV with blank lines between
sentences.  Only FORM and LEMMA are kept; everything is NFC-normalized on
the way in so downstream comparisons can be exact string equality.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from itertools import compress, repeat
from pathlib import Path
from random import Random
from typing import Iterable, Iterator

from . import artifact
from .errors import CorpusFormatError, EmptyCorpusError, MissingLemmaError, SplitError

# Syntactic-word IDs are plain integers (str.isdecimal); "3-4" is a
# multiword-token range line and "5.1" an empty node, neither of which
# carries a scorable lemma.
_TOKEN_ID = re.compile(r"\d+(?:[-.]\d+)?")

FIRST_N = "first-n"
SEEDED_RANDOM = "seeded-random"
SELECTION_RULES = (FIRST_N, SEEDED_RANDOM)


@dataclass(frozen=True)
class Token:
    """One surface wordform with its gold lemma and 1-based position."""

    index: int
    wordform: str
    lemma: str | None = None


@dataclass(frozen=True)
class Sentence:
    """Two columns with an entry per token: wordforms and gold lemmas (None: unannotated)."""

    id: str
    wordforms: tuple[str, ...]
    lemmas: tuple[str | None, ...]

    @property
    def tokens(self) -> tuple[Token, ...]:
        """The columns as Tokens, built on each call."""
        return tuple(Token(i, *pair) for i, pair in enumerate(zip(self.wordforms, self.lemmas), 1))

    def require_lemmas(self) -> None:
        """MissingLemmaError naming the first token without a gold lemma, if any."""
        if None in self.lemmas:
            i = self.lemmas.index(None)
            form = self.wordforms[i]
            raise MissingLemmaError(f"token {i + 1} ({form!r}) of {self.id} has no lemma")

    def gold_pairs(self) -> tuple[tuple[str, str], ...]:
        """(wordform, lemma) per token; MissingLemmaError if any token lacks a lemma."""
        self.require_lemmas()
        return tuple(zip(self.wordforms, self.lemmas, strict=True))

    def __len__(self) -> int:
        return len(self.wordforms)


@dataclass(frozen=True)
class Corpus:
    name: str
    sentences: tuple[Sentence, ...]

    def __len__(self) -> int:
        return len(self.sentences)

    def sentence_by_id(self, sentence_id: str) -> Sentence:
        for sentence in self.sentences:
            if sentence.id == sentence_id:
                return sentence
        raise KeyError(sentence_id)


@dataclass(frozen=True)
class SplitSpec:
    train_count: int
    dev_count: int
    test_count: int
    selection_rule: str = FIRST_N  # first-n | seeded-random
    seed: int = 0

    def __post_init__(self):
        if min(self.train_count, self.dev_count, self.test_count) < 0:
            raise SplitError("split counts must be non-negative")
        if self.selection_rule not in SELECTION_RULES:
            raise SplitError(f"unknown selection rule: {self.selection_rule!r}")


_PIECE = 1 << 16  # characters _pieces reads at a time

# A canonical block: NFC text, header lines (``#``, no tab), then rows of
# exactly one tab that do not start with whitespace.  A row may start with
# ``#`` (a hashtag), but not with ``# columns = ``, which artifact.is_header
# reads as a header.  The backtracking state re keeps grows with each line a
# match spans, so the pattern is matched one block at a time, none over _PIECE.
_CANONICAL_BLOCK = re.compile(
    r"((?:#[^\t\n]*(?:\n|\Z))*)(?:(?!# columns = )\S[^\t\n]*\t[^\t\n]*(?:\n|\Z))*"
)


def _pieces(handle):
    """The text of handle in pieces of about _PIECE characters, each up to
    its last blank line, then the rest; a stretch of more than _PIECE
    without a blank line comes as lines instead, read before the next piece."""
    rest = ""
    while chunk := handle.read(_PIECE):
        text = rest + chunk
        cut = text.rfind("\n\n", max(len(rest) - 1, 0))
        if cut >= 0:
            yield text[:cut]
            rest = text[cut + 2 :]
        elif len(text) > _PIECE:
            yield _stretch(text, handle)
            rest = ""
        else:
            rest = text
    yield rest


def _stretch(text: str, handle):
    """The lines of text, then of handle a line at a time up to the next
    empty line, which comes last ("" at the end of the file)."""
    *lines, line = text.split("\n")
    yield from lines
    line += handle.readline()
    while line.strip("\n"):
        yield line.rstrip("\n")
        line = handle.readline()
    yield ""


def _tsv_block(block: str):
    """(header lines, wordforms, lemmas) of a block that matches
    _CANONICAL_BLOCK, else None.  The line step would meet no malformed row
    there and take each ``#`` line for a header where the pattern does."""
    match = _CANONICAL_BLOCK.fullmatch(block)
    if match is None:
        return None
    head = match.end(1)
    fields = block[head:].replace("\n", "\t").split("\t") if head < len(block) else []
    lemmas = fields[1::2]
    if "" in lemmas:
        lemmas = [lemma or None for lemma in lemmas]
    heads = block[:head].rstrip("\n").split("\n") if head else ()
    return heads, tuple(fields[::2]), tuple(lemmas)


def _conllu_block(block: str):
    """((), wordforms, lemmas) of a CoNLL-U block whose lines, ``#``
    comments aside, each hold 9 tabs (a tab total would pass 9 columns
    beside 11) and a word, range or empty-node ID, and whose word rows each
    hold a FORM; else None.  Lines end only at "\n", as in text mode."""
    rows = [line for line in block.split("\n") if line[:1] != "#"]
    if not rows:
        return (), (), ()
    if {*map(str.count, rows, repeat("\t"))} != {9}:
        return None
    ids, forms, lemmas, _ = zip(*map(str.split, rows, repeat("\t"), repeat(3)))
    if not all(map(str.isdecimal, ids)):  # drop range and empty-node rows, FORM unchecked
        if not all(map(_TOKEN_ID.fullmatch, ids)):
            return None
        words = list(map(str.isdecimal, ids))
        forms, lemmas = tuple(compress(forms, words)), tuple(compress(lemmas, words))
    if "" in forms:
        return None
    if "_" in lemmas:
        lemmas = tuple(None if lemma == "_" else lemma for lemma in lemmas)
    return (), forms, lemmas


def _line_step(lines, line_no: int, path: str | Path, tsv: bool):
    """The (header lines, wordforms, lemmas) parts of a block read a line at
    a time from line line_no, each ended by a whitespace-only line or a
    ``# sent_id`` after rows.  The row rule tsv picks, _tsv_row or
    _conllu_row, gives a row, NFC-normalized here, or None, and names the
    line of a fault.  Returns the number of the line after the block."""
    parse_row = _tsv_row if tsv else _conllu_row
    heads, forms, lemmas = [], [], []
    normalize = unicodedata.normalize
    for line_no, line in enumerate(lines, line_no):
        head = tsv and artifact.is_header(line)
        sent_id = head and (artifact.header(line) or ("",))[0] == "sent_id"
        if forms and (sent_id or not line.strip()):
            yield heads, tuple(forms), tuple(lemmas)
            heads, forms, lemmas = [], [], []
        if head:
            heads.append(line)
        elif line.strip() and (row := parse_row(line.split("\t"), path, line_no)):
            forms.append(normalize("NFC", row[0]))
            lemmas.append(row[1] and normalize("NFC", row[1]))
    yield heads, tuple(forms), tuple(lemmas)
    return line_no + 1


def _parts(path: str | Path, tsv: bool):
    """The parts of a sentence-block file, read once: a block (the lines
    between blank lines) of a piece is one part from the bulk step tsv picks
    unless that step refuses it, it is not NFC (the line step normalizes
    fields) or it is longer than _PIECE; then, as a stretch, it takes the line step."""
    read_block = _tsv_block if tsv else _conllu_block
    line_no = 1  # of the next piece's first line
    with open(path, encoding="utf-8-sig") as handle:
        try:
            for piece in _pieces(handle):
                if not isinstance(piece, str):
                    line_no = yield from _line_step(piece, line_no, path, tsv)
                    continue
                start = 0  # of raw in piece
                for raw in piece.split("\n\n"):
                    if block := raw.strip("\n"):
                        bulk = len(block) <= _PIECE and unicodedata.is_normalized("NFC", block)
                        if bulk and (part := read_block(block)):
                            yield part
                        else:
                            first = line_no + piece.count("\n", 0, start)
                            yield from _line_step(raw.split("\n"), first, path, tsv)
                    start += len(raw) + 2
                line_no += piece.count("\n") + 2  # the piece ended at a blank line
        except UnicodeDecodeError:
            for _ in artifact.lines(path):  # raises the error naming the first such line
                pass


# A block of a sentence-block file, as its readers yield it and its writer
# takes it: (sent_id or None, wordforms, lemmas with None for a token without one).
Block = tuple[str | None, tuple[str, ...], tuple[str | None, ...]]


def _read_blocks(path: str | Path, tsv: bool, meta: dict[str, str]) -> Iterator[Block]:
    """The (sent_id or None, wordforms, lemmas) blocks of a block file, each
    yielded as it ends: ``# sent_id = X`` starts a block named X, which may
    end without rows, a part with rows ends one, other headers go into meta."""
    block_id = None  # a sent_id whose block has no rows yet
    for heads, forms, lemmas in _parts(path, tsv):
        for line in heads:
            key, value = artifact.header(line) or (None, None)
            if key == "sent_id":
                if block_id is not None:
                    yield block_id, (), ()
                block_id = value
            elif key is not None:
                meta[key] = value
        if forms:
            yield block_id, forms, lemmas
            block_id = None
    if block_id is not None:
        yield block_id, (), ()


def _corpus(path: str | Path, name: str | None, tsv: bool) -> Corpus:
    """The sentences of a block file: blocks without rows are dropped, and a
    block without a sent_id is named by its position.  A sentence id that
    names an earlier sentence, given or generated, is a CorpusFormatError."""
    corpus_name = name or Path(path).stem
    sentences: dict[str, Sentence] = {}
    for block_id, forms, lemmas in _read_blocks(path, tsv, {}):
        if forms:
            sentence_id = f"{corpus_name}-{len(sentences):04d}" if block_id is None else block_id
            if sentence_id in sentences:
                raise CorpusFormatError(path, None, f"sentence id {sentence_id!r} repeats")
            sentences[sentence_id] = Sentence(sentence_id, forms, lemmas)
    if not sentences:
        raise EmptyCorpusError(f"{path}: no sentences found")
    return Corpus(corpus_name, tuple(sentences.values()))


def _conllu_row(columns: list[str], path: Path, line_no: int) -> tuple[str, str | None] | None:
    if columns[0][:1] == "#":  # every # line is a comment
        return None
    if len(columns) != 10:
        raise CorpusFormatError(path, line_no, f"expected 10 columns, found {len(columns)}")
    token_id = columns[0]
    if not token_id.isdecimal():
        if _TOKEN_ID.fullmatch(token_id):
            return None
        raise CorpusFormatError(path, line_no, f"unrecognized token ID {token_id!r}")
    if not columns[1]:
        raise CorpusFormatError(path, line_no, "empty FORM column")
    return columns[1], None if columns[2] == "_" else columns[2]


def ingest_conllu(path: str | Path, name: str | None = None) -> Corpus:
    """Read a CoNLL-U file into a Corpus.

    Keeps FORM as wordform and LEMMA as lemma ("_" maps to no lemma).
    Multiword-token range lines and empty-node lines are dropped; comments,
    sent_id included, are ignored, so sentence ids are ordinal.  Raises
    CorpusFormatError on a token line that does not have exactly 10
    tab-separated columns, EmptyCorpusError if no sentence survives.
    """
    return _corpus(path, name, tsv=False)


def _tsv_row(fields: list[str], path: Path, line_no: int) -> tuple[str, str | None]:
    if len(fields) != 2:
        raise CorpusFormatError(
            path, line_no, f"expected 2 tab-separated fields, found {len(fields)}"
        )
    if not fields[0]:
        raise CorpusFormatError(path, line_no, "empty wordform field")
    return fields[0], fields[1] or None


def ingest_tsv(path: str | Path, name: str | None = None) -> Corpus:
    """Read a two-column ``wordform<TAB>lemma`` file, blank line between
    sentences; an empty lemma field means the token is unannotated, and a
    row with another field count is a CorpusFormatError naming the line."""
    return _corpus(path, name, tsv=True)


def _write_blocks(path: str | Path, meta: dict[str, str], blocks: Iterable[Block]) -> None:
    """The one writer of sentence-block files (corpus, splits, predictions):
    per block a ``# sent_id`` line unless its sent_id is None, a row per
    token (a missing lemma is an empty field), then a blank line."""

    def rows():
        for sentence_id, forms, lemmas in blocks:
            if sentence_id is not None:
                yield (f"# sent_id = {sentence_id}",)
            yield from zip(forms, ["" if lemma is None else lemma for lemma in lemmas], strict=True)
            yield ()

    artifact.write(path, meta, rows())


def write_tsv(corpus: Corpus, path: str | Path, meta: dict[str, str] | None = None) -> None:
    """Serialize a corpus in the two-column TSV format ingest_tsv reads back;
    sentence ids survive the round trip as sent_id headers, which keeps
    split members traceable on disk."""
    blocks = ((s.id, s.wordforms, s.lemmas) for s in corpus.sentences)
    _write_blocks(path, meta or {}, blocks)


def corpus_stats(corpus: Corpus) -> tuple[int, int]:
    """(token count, sentence count)."""
    return sum(len(s) for s in corpus.sentences), len(corpus.sentences)


def reduce_corpus(
    corpus: Corpus, max_sentences: int, rule: str = FIRST_N, seed: int = 0
) -> Corpus:
    """Cap a corpus at max_sentences, keeping original sentence order."""
    if len(corpus) <= max_sentences:
        return corpus
    if rule == FIRST_N:
        kept = corpus.sentences[:max_sentences]
    elif rule == SEEDED_RANDOM:
        picked = set(Random(seed).sample(range(len(corpus)), max_sentences))
        kept = tuple(s for i, s in enumerate(corpus.sentences) if i in picked)
    else:
        raise SplitError(f"unknown reduction rule: {rule!r}")
    return Corpus(corpus.name, kept)


def make_splits(corpus: Corpus, spec: SplitSpec) -> tuple[Corpus, Corpus, Corpus]:
    """Partition a corpus into disjoint train/dev/test corpora.

    first-n takes consecutive prefixes in corpus order; seeded-random
    shuffles sentence indices reproducibly, then assigns consecutive
    blocks.  Sentence ids are preserved so splits stay traceable.
    """
    total = spec.train_count + spec.dev_count + spec.test_count
    if total > len(corpus):
        raise SplitError(
            f"split sizes sum to {total} but corpus {corpus.name} has {len(corpus)} sentences"
        )
    order = list(range(len(corpus)))
    if spec.selection_rule == SEEDED_RANDOM:
        Random(spec.seed).shuffle(order)
    cuts = (
        order[: spec.train_count],
        order[spec.train_count : spec.train_count + spec.dev_count],
        order[spec.train_count + spec.dev_count : total],
    )
    # Each split keeps the corpus's own sentence order.
    train, dev, test = (
        Corpus(f"{corpus.name}-{part}", tuple(corpus.sentences[i] for i in sorted(indices)))
        for part, indices in zip(("train", "dev", "test"), cuts)
    )
    return train, dev, test


def write_split_manifest(
    splits: dict[str, Corpus], path: str | Path, meta: dict[str, str] | None = None
) -> None:
    """Record which sentence ids landed in which split (split<TAB>sentence_id)."""
    rows = ((name, s.id) for name, part in splits.items() for s in part.sentences)
    artifact.write(path, meta or {}, rows)
