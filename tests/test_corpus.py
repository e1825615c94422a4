"""Corpus ingestion, serialization, and split behavior."""

import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemmabench import artifact
from lemmabench.align import PREDICTION_FORMAT, read_predictions, write_predictions
from lemmabench.corpus import (
    FIRST_N,
    SEEDED_RANDOM,
    SplitSpec,
    corpus_stats,
    ingest_conllu,
    ingest_tsv,
    make_splits,
    reduce_corpus,
    write_split_manifest,
    write_tsv,
)
from lemmabench.errors import CorpusFormatError, EmptyCorpusError, FileFormatError, SplitError

from conftest import corpus, sentence
from oracles import oracle_ingest_conllu, oracle_ingest_tsv, token_sentences

CONLLU_SAMPLE = """\
# sent_id = demo-1
# text = The dogs don't run .
1\tThe\tthe\tDET\t_\t_\t2\tdet\t_\t_
2\tdogs\tdog\tNOUN\t_\t_\t0\troot\t_\t_
3-4\tdon't\t_\t_\t_\t_\t_\t_\t_\t_
3\tdo\tdo\tAUX\t_\t_\t5\taux\t_\t_
4\tn't\tnot\tPART\t_\t_\t5\tadvmod\t_\t_
5\trun\trun\tVERB\t_\t_\t2\tconj\t_\t_
5.1\t_\t_\t_\t_\t_\t_\t_\t0:root\t_
6\t.\t.\tPUNCT\t_\t_\t2\tpunct\t_\t_

1\tUnknown\t_\tX\t_\t_\t0\troot\t_\t_
2\t.\t.\tPUNCT\t_\t_\t1\tpunct\t_\t_
"""


def test_conllu_parses_words_only(tmp_path):
    path = tmp_path / "demo.conllu"
    path.write_text(CONLLU_SAMPLE, "utf-8")
    c = ingest_conllu(path, name="demo")
    assert len(c) == 2
    first = c.sentences[0]
    # Range line 3-4 and empty node 5.1 carry no scorable tokens.
    assert first.wordforms == ("The", "dogs", "do", "n't", "run", ".")
    assert first.lemmas == ("the", "dog", "do", "not", "run", ".")
    assert [t.index for t in first.tokens] == [1, 2, 3, 4, 5, 6]


def test_conllu_underscore_lemma_is_unannotated(tmp_path):
    path = tmp_path / "demo.conllu"
    path.write_text(CONLLU_SAMPLE, "utf-8")
    c = ingest_conllu(path)
    assert c.sentences[1].lemmas == (None, ".")


def test_conllu_sentence_ids_are_ordinal(tmp_path):
    path = tmp_path / "demo.conllu"
    path.write_text(CONLLU_SAMPLE, "utf-8")
    c = ingest_conllu(path, name="demo")
    assert [s.id for s in c.sentences] == ["demo-0000", "demo-0001"]
    assert c.sentence_by_id("demo-0001").wordforms == ("Unknown", ".")


def test_conllu_bad_column_count_names_line(tmp_path):
    path = tmp_path / "bad.conllu"
    path.write_text("1\tword\tlemma\n", "utf-8")
    with pytest.raises(CorpusFormatError) as err:
        ingest_conllu(path)
    assert ":1:" in str(err.value)


def test_conllu_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.conllu"
    path.write_text("# only a comment\n\n", "utf-8")
    with pytest.raises(EmptyCorpusError):
        ingest_conllu(path)


def test_conllu_nfc_normalization(tmp_path):
    # NFD "é" (e + combining acute) must come out as the single NFC code point.
    decomposed = unicodedata.normalize("NFD", "café")
    assert len(decomposed) == 5
    path = tmp_path / "nfd.conllu"
    path.write_text(f"1\t{decomposed}\t{decomposed}\tNOUN\t_\t_\t0\troot\t_\t_\n", "utf-8")
    c = ingest_conllu(path)
    assert c.sentences[0].wordforms == ("café",)
    assert len(c.sentences[0].wordforms[0]) == 4


def test_conllu_bom_tolerated(tmp_path):
    path = tmp_path / "bom.conllu"
    path.write_bytes("﻿1\tword\tlemma\tX\t_\t_\t0\troot\t_\t_\n".encode("utf-8"))
    assert ingest_conllu(path).sentences[0].wordforms == ("word",)


def test_tsv_round_trip_preserves_ids(tmp_path):
    c = corpus(
        "toy",
        sentence("toy-0000", ("Perros", "perro"), (".", ".")),
        sentence("toy-0001", ("María", "María"), ("canta", "cantar")),
    )
    path = tmp_path / "toy.tsv"
    write_tsv(c, path, {"origin": "unit-test"})
    back = ingest_tsv(path, name="toy")
    assert [s.id for s in back.sentences] == ["toy-0000", "toy-0001"]
    assert back.sentences[0].wordforms == ("Perros", ".")
    assert back.sentences[1].lemmas == ("María", "cantar")


def test_tsv_round_trip_keeps_hash_initial_wordforms(tmp_path):
    c = corpus("toy", sentence("toy-0000", ("Love", "love"), ("#nlp", "#nlp"), ("!", "!")))
    path = tmp_path / "toy.tsv"
    write_tsv(c, path, {"origin": "unit-test"})
    back = ingest_tsv(path, name="toy")
    assert back.sentences == c.sentences


def test_conllu_hash_lines_stay_comments_even_with_tabs(tmp_path):
    plain, tabbed = tmp_path / "plain.conllu", tmp_path / "tabbed.conllu"
    plain.write_text(CONLLU_SAMPLE, "utf-8")
    tabbed.write_text("# text = Love\t#nlp\n" + CONLLU_SAMPLE, "utf-8")
    assert ingest_conllu(tabbed, name="x") == ingest_conllu(plain, name="x")


def test_tsv_empty_lemma_field_means_unannotated(tmp_path):
    path = tmp_path / "partial.tsv"
    path.write_text("word\t\nother\tlemma\n", "utf-8")
    c = ingest_tsv(path)
    assert c.sentences[0].lemmas == (None, "lemma")


def test_tsv_wrong_field_count_names_line(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tb\nc\tb\tX\n", "utf-8")
    with pytest.raises(CorpusFormatError) as err:
        ingest_tsv(path)
    assert ":2:" in str(err.value)


@pytest.mark.parametrize("text, repeated", [
    ("# sent_id = s-10\na\ta\nb\tb\nc\tc\n\n# sent_id = s-10\nd\td\ne\te\n", "s-10"),
    ("# sent_id = c-0001\na\ta\n\nb\tb\n", "c-0001"),
    ("a\ta\n\n# sent_id = c-0000\nb\tb\n", "c-0000"),
], ids=["given twice", "given then generated", "generated then given"])
# A last block that is not NFC takes the line step; a malformed last row is
# reported only after the repeated id, which the reader yields as it ends.
@pytest.mark.parametrize(
    "tail", ["", "\ne\u0301\te\n", "\nf\tf\tf\n"], ids=["bulk", "line loop", "malformed row"]
)
def test_tsv_repeated_sentence_id_is_refused_naming_it(tmp_path, text, repeated, tail):
    path = tmp_path / "dup.tsv"
    path.write_text(text + tail, "utf-8")
    with pytest.raises(CorpusFormatError) as err:
        ingest_tsv(path, name="c")
    assert str(err.value) == f"{path}: sentence id '{repeated}' repeats"


# Precomposed letters, so drawn words are NFC and several change under NFD.
_WORD = st.text(st.sampled_from("abnñeéuüAÅcçßö"), min_size=1, max_size=5)


@given(
    drafts=st.lists(
        st.tuples(
            st.booleans(),  # sentence carries a "# sent_id" comment
            st.lists(st.tuples(_WORD, st.none() | _WORD), min_size=1, max_size=4),
        ),
        min_size=1,
        max_size=4,
    ),
    nfd=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_readers_round_trip_both_formats(tmp_path_factory, drafts, nfd):
    def on_disk(text):
        return unicodedata.normalize("NFD", text) if nfd else text

    tsv, conllu, expected = [], [], []
    for ordinal, (with_id, pairs) in enumerate(drafts):
        sentence_id = f"s{ordinal}" if with_id else f"rt-{ordinal:04d}"
        if with_id:
            tsv.append(f"# sent_id = {sentence_id}")
            conllu.append(f"# sent_id = {sentence_id}")
        conllu.append("# text = " + " ".join(on_disk(w) for w, _ in pairs))
        for index, (form, lemma) in enumerate(pairs, start=1):
            tsv.append(f"{on_disk(form)}\t{on_disk(lemma or '')}")
            conllu.append(
                f"{index}\t{on_disk(form)}\t{on_disk(lemma or '_')}\tX\t_\t_\t0\troot\t_\t_"
            )
        tsv.append("")
        conllu.append("")
        expected.append(sentence(sentence_id, *pairs))

    directory = tmp_path_factory.mktemp("round-trip")
    (directory / "rt.tsv").write_text("\n".join(tsv), "utf-8")
    (directory / "rt.conllu").write_text("\n".join(conllu), "utf-8")

    assert ingest_tsv(directory / "rt.tsv") == corpus("rt", *expected)
    from_conllu = ingest_conllu(directory / "rt.conllu")
    assert [s.id for s in from_conllu.sentences] == [f"rt-{i:04d}" for i in range(len(drafts))]
    assert [s.tokens for s in from_conllu.sentences] == [s.tokens for s in expected]

    # A prediction file of the same text: one (sent_id or None, wordforms,
    # lemmas) block per sentence, which the writer takes back as it is.
    _, blocks = read_predictions(directory / "rt.tsv")
    assert blocks == [
        (s.id if with_id else None, s.wordforms, s.lemmas)
        for (with_id, _), s in zip(drafts, expected)
    ]
    write_predictions(directory / "again.tsv", blocks)
    assert read_predictions(directory / "again.tsv") == ({"format": PREDICTION_FORMAT}, blocks)


@pytest.mark.parametrize("file_name, ingest, oracle", [
    ("es_fix.conllu", ingest_conllu, oracle_ingest_conllu),
    ("en_fix.conllu", ingest_conllu, oracle_ingest_conllu),
    ("eu_fix.tsv", ingest_tsv, oracle_ingest_tsv),
])
def test_fixture_columns_match_the_token_oracle(fixtures_dir, file_name, ingest, oracle):
    path = fixtures_dir / "corpora" / file_name
    assert token_sentences(ingest(path)) == oracle(path)


def _toy(n: int):
    return corpus("toy", *(sentence(f"toy-{i:04d}", (f"w{i}", f"l{i}")) for i in range(n)))


def test_first_n_split_takes_prefixes():
    train, dev, test = make_splits(_toy(10), SplitSpec(5, 2, 3))
    assert [s.id for s in train.sentences] == [f"toy-{i:04d}" for i in range(5)]
    assert [s.id for s in dev.sentences] == ["toy-0005", "toy-0006"]
    assert [s.id for s in test.sentences] == ["toy-0007", "toy-0008", "toy-0009"]
    assert (train.name, dev.name, test.name) == ("toy-train", "toy-dev", "toy-test")


def test_seeded_random_split_reproducible_and_order_preserving():
    c = _toy(30)
    spec = SplitSpec(10, 10, 10, selection_rule=SEEDED_RANDOM, seed=7)
    first = make_splits(c, spec)
    second = make_splits(c, spec)
    assert [s.id for part in first for s in part.sentences] == [
        s.id for part in second for s in part.sentences
    ]
    other = make_splits(c, SplitSpec(10, 10, 10, selection_rule=SEEDED_RANDOM, seed=8))
    assert [s.id for s in first[0].sentences] != [s.id for s in other[0].sentences]
    for part in first:
        ids = [int(s.id.split("-")[1]) for s in part.sentences]
        assert ids == sorted(ids)  # document order survives within a split


def test_split_sizes_must_fit():
    with pytest.raises(SplitError):
        make_splits(_toy(5), SplitSpec(3, 2, 1))


def test_split_spec_rejects_negative_counts():
    with pytest.raises(SplitError):
        SplitSpec(-1, 2, 3)


@given(
    n=st.integers(min_value=3, max_value=60),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_splits_partition_the_corpus(n, data):
    c = _toy(n)
    a = data.draw(st.integers(1, n - 2))
    b = data.draw(st.integers(1, n - a - 1))
    rule = data.draw(st.sampled_from([FIRST_N, SEEDED_RANDOM]))
    seed = data.draw(st.integers(0, 10))
    c_count = n - a - b if data.draw(st.booleans()) else data.draw(st.integers(1, n - a - b))
    parts = make_splits(c, SplitSpec(a, b, c_count, selection_rule=rule, seed=seed))
    ids = [s.id for part in parts for s in part.sentences]
    assert len(ids) == len(set(ids)) == a + b + c_count  # disjoint
    assert set(ids) <= {s.id for s in c.sentences}
    assert (len(parts[0]), len(parts[1]), len(parts[2])) == (a, b, c_count)


def test_reduce_corpus_first_n_and_seeded():
    c = _toy(10)
    assert [s.id for s in reduce_corpus(c, 4).sentences] == [f"toy-{i:04d}" for i in range(4)]
    r1 = reduce_corpus(c, 4, rule=SEEDED_RANDOM, seed=3)
    r2 = reduce_corpus(c, 4, rule=SEEDED_RANDOM, seed=3)
    assert [s.id for s in r1.sentences] == [s.id for s in r2.sentences]
    assert len(r1) == 4
    assert reduce_corpus(c, 99) is c  # already small enough


def test_corpus_stats_counts_tokens_and_sentences():
    c = corpus("x", sentence("x-0", ("a", "a"), ("b", "b")), sentence("x-1", ("c", "c")))
    assert corpus_stats(c) == (3, 2)


def test_split_manifest_round_trip(tmp_path):
    train, dev, test = make_splits(_toy(6), SplitSpec(3, 2, 1))
    path = tmp_path / "manifest.tsv"
    write_split_manifest({p.name: p for p in (train, dev, test)}, path, {"experiment": "toy"})
    meta, rows = artifact.read(path, ("split", "sentence id"), FileFormatError, list)
    assert meta == {"experiment": "toy"}
    assert rows == [
        ["toy-train", "toy-0000"], ["toy-train", "toy-0001"], ["toy-train", "toy-0002"],
        ["toy-dev", "toy-0003"], ["toy-dev", "toy-0004"], ["toy-test", "toy-0005"],
    ]
