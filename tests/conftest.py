"""Shared test fixtures and corpus-building helpers."""

import errno
from pathlib import Path

import pytest

from lemmabench.corpus import Corpus, Sentence

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def sentence(sid: str, *pairs: tuple[str, str | None]) -> Sentence:
    return Sentence(id=sid, wordforms=tuple(w for w, _ in pairs), lemmas=tuple(l for _, l in pairs))


def corpus(name: str, *sentences: Sentence) -> Corpus:
    return Corpus(name=name, sentences=tuple(sentences))


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def es_corpus():
    from lemmabench.corpus import ingest_conllu

    return ingest_conllu(FIXTURES / "corpora" / "es_fix.conllu", "es_fix")


@pytest.fixture(scope="session")
def eu_corpus():
    from lemmabench.corpus import ingest_tsv

    return ingest_tsv(FIXTURES / "corpora" / "eu_fix.tsv", "eu_fix")


@pytest.fixture(scope="session")
def en_corpus():
    from lemmabench.corpus import ingest_conllu

    return ingest_conllu(FIXTURES / "corpora" / "en_fix.conllu", "en_fix")


class _HalfWriter:
    """A file handle that writes half of the text it is given, then raises
    as a full disk would."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()

    def writelines(self, chunks):
        text = "".join(chunks)
        self.handle.write(text[: len(text) // 2])
        self.handle.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.fixture()
def disk_full(monkeypatch):
    """disk_full(name): from then on, lemmabench.artifact's write of a file
    named name stops halfway with ENOSPC."""
    from lemmabench import artifact

    def arm(name):
        def half_open(path, *args, **kwargs):
            handle = open(path, *args, **kwargs)
            return _HalfWriter(handle) if Path(path).name.startswith(f".{name}.") else handle

        monkeypatch.setattr(artifact, "open", half_open, raising=False)

    return arm
