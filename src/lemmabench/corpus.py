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
from pathlib import Path
from random import Random
from typing import Iterable

from . import artifact
from .errors import CorpusFormatError, EmptyCorpusError, MissingLemmaError, SplitError

# Syntactic-word IDs are plain integers; "3-4" is a multiword-token range
# line and "5.1" an empty node, neither of which carries a scorable lemma.
_RANGE_ID = re.compile(r"^\d+-\d+$")
_EMPTY_NODE_ID = re.compile(r"^\d+\.\d+$")
_WORD_ID = re.compile(r"^\d+$")

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

    def gold_pairs(self) -> tuple[tuple[str, str], ...]:
        """(wordform, lemma) per token; MissingLemmaError if any token lacks a lemma."""
        if None in self.lemmas:
            i = self.lemmas.index(None)
            form = self.wordforms[i]
            raise MissingLemmaError(f"token {i + 1} ({form!r}) of {self.id} has no lemma")
        return tuple(zip(self.wordforms, self.lemmas))

    def __len__(self) -> int:
        return len(self.wordforms)


@dataclass(frozen=True)
class Corpus:
    name: str
    language: str
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


def _read_corpus(path: str | Path, parse_row, tsv: bool, meta: dict[str, str]):
    """The sentence-block line loop: the reader of CoNLL-U files and of TSV
    block files that _read_canonical refuses, and the one place that names
    the line of a fault.

    Yields each block as it ends, a (sent_id or None, wordforms, lemmas)
    triple of tuples, and puts the other ``# key = value`` headers into
    meta.  parse_row(fields, path, line_no) gives a (form, lemma-or-None)
    row, NFC-normalized here, or None for a line without a token.  A
    ``# sent_id = X`` header starts a block named X, which may end without
    rows; a blank line ends a block that has rows.  In CoNLL-U every ``#``
    line is a comment.
    """
    block_id, forms, lemmas = None, [], []
    normalize = unicodedata.normalize
    for line_no, line in artifact.lines(path):
        if not line.strip():
            if forms:
                yield block_id, tuple(forms), tuple(lemmas)
                block_id, forms, lemmas = None, [], []
        elif line.startswith("#") and (not tsv or artifact.is_header(line)):
            key, value = (artifact.header(line) if tsv else None) or (None, None)
            if key == "sent_id":
                if forms or block_id is not None:
                    yield block_id, tuple(forms), tuple(lemmas)
                block_id, forms, lemmas = value, [], []
            elif key is not None:
                meta[key] = value
        else:
            row = parse_row(line.split("\t"), path, line_no)
            if row is not None:
                form, lemma = row
                forms.append(normalize("NFC", form))
                lemmas.append(lemma and normalize("NFC", lemma))
    if forms or block_id is not None:
        yield block_id, tuple(forms), tuple(lemmas)


_PIECE = 1 << 16  # characters _read_canonical reads at a time

# A canonical block: header lines (``#``, no tab), then rows of exactly one
# tab that do not start with whitespace.  A row may start with ``#`` (a
# hashtag), but not with ``# columns = ``, which artifact.is_header reads as
# a header.  The pattern is matched one block at a time: the backtracking
# state re keeps grows with each line a match spans.
_CANONICAL_BLOCK = re.compile(
    r"((?:#[^\t\n]*(?:\n|\Z))*)(?:(?!# columns = )\S[^\t\n]*\t[^\t\n]*(?:\n|\Z))*"
)


def _pieces(handle):
    """The text of handle in pieces of about _PIECE characters, each cut at
    its last blank line; the last piece is the rest of the text.  A None
    piece ends them early: more than _PIECE characters after a cut hold no
    blank line, so the file is not made of short blocks."""
    rest = ""
    while chunk := handle.read(_PIECE):
        text = rest + chunk
        cut = text.rfind("\n\n", max(len(rest) - 1, 0))
        if cut >= 0:
            yield text[:cut]
            rest = text[cut:]
        elif len(text) > _PIECE:
            yield None
            return
        else:
            rest = text
    yield rest


def _read_canonical(path: str | Path, meta: dict[str, str]):
    """The blocks of a TSV block file as _read_corpus yields them, read a
    piece at a time; None if the file is not UTF-8, a piece is not
    canonical, or more than _PIECE characters pass without a blank line.

    A piece is canonical when it is NFC and each of its blocks matches
    _CANONICAL_BLOCK.  On such a piece the line loop would normalize
    nothing, meet no blank-looking line inside a block and no malformed
    row, and take every ``#`` line for a header exactly where the pattern
    does, so splitting the rows at tabs and line breaks gives its columns.
    meta is updated only when every piece is canonical.
    """
    blocks, found = [], {}
    block_id = None  # a sent_id whose block has no rows yet
    try:
        with open(path, encoding="utf-8-sig") as handle:
            for piece in _pieces(handle):
                if piece is None or not unicodedata.is_normalized("NFC", piece):
                    return None
                for block in piece.split("\n\n"):
                    block = block.strip("\n")
                    match = _CANONICAL_BLOCK.fullmatch(block)
                    if match is None:
                        return None
                    head = match.end(1)
                    for line in block[:head].rstrip("\n").split("\n") if head else ():
                        key, value = artifact.header(line) or (None, None)
                        if key == "sent_id":
                            if block_id is not None:
                                blocks.append((block_id, (), ()))
                            block_id = value
                        elif key is not None:
                            found[key] = value
                    if head < len(block):
                        fields = block[head:].replace("\n", "\t").split("\t")
                        lemmas = fields[1::2]
                        if "" in lemmas:
                            lemmas = [lemma or None for lemma in lemmas]
                        blocks.append((block_id, tuple(fields[::2]), tuple(lemmas)))
                        block_id = None
    except UnicodeDecodeError:
        return None
    if block_id is not None:
        blocks.append((block_id, (), ()))
    meta.update(found)
    return blocks


def _read_blocks(path: str | Path, parse_row, tsv: bool, meta: dict[str, str]):
    """The blocks of a sentence-block file, behind ingest_conllu, ingest_tsv
    and align.read_predictions: a TSV file that _read_canonical accepts is
    read by it, any other file by the line loop _read_corpus."""
    blocks = _read_canonical(path, meta) if tsv else None
    return _read_corpus(path, parse_row, tsv, meta) if blocks is None else blocks


def _corpus(path: str | Path, name: str | None, language: str, parse_row, tsv: bool) -> Corpus:
    """The sentences of a block file: blocks without rows are dropped, and a
    block without a sent_id is named by its position."""
    corpus_name = name or Path(path).stem
    sentences: list[Sentence] = []
    for block_id, forms, lemmas in _read_blocks(path, parse_row, tsv, {}):
        if forms:
            sentence_id = f"{corpus_name}-{len(sentences):04d}" if block_id is None else block_id
            sentences.append(Sentence(sentence_id, forms, lemmas))
    if not sentences:
        raise EmptyCorpusError(f"{path}: no sentences found")
    return Corpus(name=corpus_name, language=language, sentences=tuple(sentences))


def _conllu_row(columns: list[str], path: Path, line_no: int) -> tuple[str, str | None] | None:
    if len(columns) != 10:
        raise CorpusFormatError(path, line_no, f"expected 10 columns, found {len(columns)}")
    token_id = columns[0]
    if _RANGE_ID.match(token_id) or _EMPTY_NODE_ID.match(token_id):
        return None
    if not _WORD_ID.match(token_id):
        raise CorpusFormatError(path, line_no, f"unrecognized token ID {token_id!r}")
    if not columns[1]:
        raise CorpusFormatError(path, line_no, "empty FORM column")
    return columns[1], None if columns[2] == "_" else columns[2]


def ingest_conllu(path: str | Path, name: str | None = None, language: str = "und") -> Corpus:
    """Read a CoNLL-U file into a Corpus.

    Keeps FORM as wordform and LEMMA as lemma ("_" maps to no lemma).
    Multiword-token range lines and empty-node lines are dropped; comments,
    sent_id included, are ignored, so sentence ids are ordinal.  Raises
    CorpusFormatError on a token line that does not have exactly 10
    tab-separated columns, EmptyCorpusError if no sentence survives.
    """
    return _corpus(path, name, language, _conllu_row, tsv=False)


def _tsv_row(fields: list[str], path: Path, line_no: int) -> tuple[str, str | None]:
    if len(fields) != 2:
        raise CorpusFormatError(
            path, line_no, f"expected 2 tab-separated fields, found {len(fields)}"
        )
    if not fields[0]:
        raise CorpusFormatError(path, line_no, "empty wordform field")
    return fields[0], fields[1] or None


def ingest_tsv(path: str | Path, name: str | None = None, language: str = "und") -> Corpus:
    """Read a two-column ``wordform<TAB>lemma`` file, blank line between
    sentences; an empty lemma field means the token is unannotated, and a
    row with another field count is a CorpusFormatError naming the line."""
    return _corpus(path, name, language, _tsv_row, tsv=True)


def _write_blocks(path: str | Path, meta: dict[str, str], blocks: Iterable) -> None:
    """The one writer of sentence-block files (corpus, splits, predictions):
    per (sent_id, wordforms, lemmas) block a ``# sent_id`` line, a row per
    token (a missing lemma is an empty field), then a blank line."""

    def rows():
        for sentence_id, forms, lemmas in blocks:
            yield (f"# sent_id = {sentence_id}",)
            yield from zip(forms, ["" if lemma is None else lemma for lemma in lemmas])
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
    return Corpus(name=corpus.name, language=corpus.language, sentences=kept)


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
    parts = []
    for part_name, indices in zip(("train", "dev", "test"), cuts):
        indices = sorted(indices)  # keep original document order inside each split
        parts.append(
            Corpus(
                name=f"{corpus.name}-{part_name}",
                language=corpus.language,
                sentences=tuple(corpus.sentences[i] for i in indices),
            )
        )
    return parts[0], parts[1], parts[2]


def write_split_manifest(
    splits: dict[str, Corpus], path: str | Path, meta: dict[str, str] | None = None
) -> None:
    """Record which sentence ids landed in which split (split<TAB>sentence_id)."""
    rows = ((name, s.id) for name, part in splits.items() for s in part.sentences)
    artifact.write(path, meta or {}, rows)
