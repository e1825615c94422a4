"""Corpus ingestion and split management.

Two input formats are supported: CoNLL-U (UD v2, 10 tab-separated columns)
and a plain two-column ``wordform<TAB>lemma`` TSV with blank lines between
sentences.  Only FORM and LEMMA are kept; everything is NFC-normalized on
the way in so downstream comparisons can be exact string equality.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

from .errors import CorpusFormatError, EmptyCorpusError, MissingLemmaError, SplitError

# Syntactic-word IDs are plain integers; "3-4" is a multiword-token range
# line and "5.1" an empty node, neither of which carries a scorable lemma.
_RANGE_ID = re.compile(r"^\d+-\d+$")
_EMPTY_NODE_ID = re.compile(r"^\d+\.\d+$")
_WORD_ID = re.compile(r"^\d+$")

FIRST_N = "first-n"
SEEDED_RANDOM = "seeded-random"


def _nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


@dataclass(frozen=True)
class Token:
    """One surface wordform with its gold lemma and 1-based position."""

    index: int
    wordform: str
    lemma: str | None = None


@dataclass(frozen=True)
class Sentence:
    id: str
    tokens: tuple[Token, ...]

    def wordforms(self) -> list[str]:
        return [t.wordform for t in self.tokens]

    def lemmas(self) -> list[str | None]:
        return [t.lemma for t in self.tokens]

    def gold_pairs(self) -> tuple[tuple[str, str], ...]:
        """(wordform, lemma) per token; MissingLemmaError if any token lacks a lemma."""
        for token in self.tokens:
            if token.lemma is None:
                raise MissingLemmaError(
                    f"token {token.index} ({token.wordform!r}) of {self.id} has no lemma"
                )
        return tuple((t.wordform, t.lemma) for t in self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)


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
        if self.selection_rule not in (FIRST_N, SEEDED_RANDOM):
            raise SplitError(f"unknown selection rule: {self.selection_rule!r}")


def _read_corpus(
    path: str | Path, name: str | None, language: str, parse_row, tsv: bool
) -> Corpus:
    """The one sentence-building loop behind ingest_conllu and ingest_tsv.

    parse_row(fields, path, line_no) returns (form, lemma-or-None) for a
    token line, or None for a line without a token.  In a TSV file a
    ``# sent_id = X`` comment names the next sentence (others get ordinal
    ids), and a ``#`` line is a comment only when it holds no tab, so a
    token such as ``#nlp`` is kept.  In CoNLL-U every ``#`` line is a
    comment and ids are ordinal.
    """
    path = Path(path)
    corpus_name = name or path.stem
    sentences: list[Sentence] = []
    tokens: list[Token] = []
    pending_id: str | None = None  # explicit id from a "# sent_id = ..." comment

    def close_sentence():
        nonlocal pending_id
        if tokens:
            if pending_id is None:
                pending_id = f"{corpus_name}-{len(sentences):04d}"
            sentences.append(Sentence(id=pending_id, tokens=tuple(tokens)))
            tokens.clear()
            pending_id = None

    with open(path, encoding="utf-8-sig") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip():
                close_sentence()
                continue
            if line.startswith("#") and not (tsv and "\t" in line):
                body = line[1:].strip()
                if tsv and body.startswith("sent_id") and "=" in body:
                    close_sentence()
                    pending_id = body.split("=", 1)[1].strip()
                continue
            row = parse_row(line.split("\t"), path, line_no)
            if row is None:
                continue
            form, lemma = row
            lemma = None if lemma is None else _nfc(lemma)
            tokens.append(Token(index=len(tokens) + 1, wordform=_nfc(form), lemma=lemma))
    close_sentence()
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
    return _read_corpus(path, name, language, _conllu_row, tsv=False)


def _tsv_row(fields: list[str], path: Path, line_no: int) -> tuple[str, str | None]:
    if len(fields) != 2:
        raise CorpusFormatError(
            path, line_no, f"expected 2 tab-separated fields, found {len(fields)}"
        )
    if not fields[0]:
        raise CorpusFormatError(path, line_no, "empty wordform field")
    return fields[0], fields[1] or None


def ingest_tsv(path: str | Path, name: str | None = None, language: str = "und") -> Corpus:
    """Read a two-column ``wordform<TAB>lemma`` file, blank line between sentences.

    An empty lemma field means the token is unannotated.  A line with any
    other field count is a CorpusFormatError naming the line.  A ``#`` line
    without a tab is a comment, and a ``# sent_id = X`` comment names the
    sentence that follows it; a ``#`` line with a tab is a token row.
    """
    return _read_corpus(path, name, language, _tsv_row, tsv=True)


def write_tsv(
    corpus: Corpus,
    path: str | Path,
    header_lines: list[str] | None = None,
    include_ids: bool = True,
) -> None:
    """Serialize a corpus in the two-column TSV format ingest_tsv reads back.

    With include_ids, sentence ids ride along as sent_id comments and
    survive the round trip, which keeps split members traceable on disk.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for line in header_lines or []:
            handle.write(f"# {line}\n")
        for sentence in corpus.sentences:
            if include_ids:
                handle.write(f"# sent_id = {sentence.id}\n")
            for token in sentence.tokens:
                handle.write(f"{token.wordform}\t{token.lemma or ''}\n")
            handle.write("\n")


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
    splits: dict[str, Corpus], path: str | Path, header_lines: list[str] | None = None
) -> None:
    """Record which sentence ids landed in which split (split<TAB>sentence_id)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for line in header_lines or []:
            handle.write(f"# {line}\n")
        for split_name, part in splits.items():
            for sentence in part.sentences:
                handle.write(f"{split_name}\t{sentence.id}\n")


def read_split_manifest(path: str | Path) -> dict[str, list[str]]:
    manifest: dict[str, list[str]] = {}
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            split_name, sentence_id = line.split("\t")
            manifest.setdefault(split_name, []).append(sentence_id)
    return manifest
