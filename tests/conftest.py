"""Shared test fixtures and corpus-building helpers."""

from pathlib import Path

import pytest

from lemmabench.corpus import Corpus, Sentence

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def sentence(sid: str, *pairs: tuple[str, str | None]) -> Sentence:
    return Sentence(id=sid, wordforms=tuple(w for w, _ in pairs), lemmas=tuple(l for _, l in pairs))


def corpus(name: str, *sentences: Sentence, language: str = "und") -> Corpus:
    return Corpus(name=name, language=language, sentences=tuple(sentences))


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def es_corpus():
    from lemmabench.corpus import ingest_conllu

    return ingest_conllu(FIXTURES / "corpora" / "es_fix.conllu", "es_fix", "Spanish")


@pytest.fixture(scope="session")
def eu_corpus():
    from lemmabench.corpus import ingest_tsv

    return ingest_tsv(FIXTURES / "corpora" / "eu_fix.tsv", "eu_fix", "Basque")


@pytest.fixture(scope="session")
def en_corpus():
    from lemmabench.corpus import ingest_conllu

    return ingest_conllu(FIXTURES / "corpora" / "en_fix.conllu", "en_fix", "English")
