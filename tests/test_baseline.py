"""Frequency-table baseline: training, lookup order, fallbacks."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemmabench.baseline import (
    BaselineModel,
    predict,
    predict_identity,
    read_model,
    train,
    write_model,
)
from lemmabench.editscript import (
    _CASE_FLAGS,
    IDENTITY,
    PRESERVE,
    EditScript,
    build_inventory,
    pair_scripts,
    read_inventory,
    read_pair_labels,
    write_inventory,
    write_pair_labels,
)
from lemmabench.errors import EmptyCorpusError, MissingLemmaError, ModelFormatError

from conftest import corpus, sentence
from oracles import gold_corpora, oracle_train, oracle_train_tables


def _fit(c, **kwargs):
    pairs = pair_scripts(c)
    return train(pairs, build_inventory(pairs), **kwargs)


def _train_corpus():
    return corpus(
        "toy",
        sentence("toy-0000", ("dogs", "dog"), ("cats", "cat"), ("runs", "run")),
        sentence("toy-0001", ("dogs", "dog"), ("walk", "walk"), (".", ".")),
    )


def test_train_learns_form_and_suffix_tables():
    c = _train_corpus()
    model = _fit(c)
    strip_s = EditScript(PRESERVE, 0, "", 1, "")
    assert model.form_table["dogs"] == strip_s
    assert model.suffix_table["s"] == strip_s  # majority of s-final tokens
    assert model.form_table["."] == IDENTITY


def test_predict_exact_form_beats_suffix():
    model = BaselineModel(
        form_table={"was": EditScript(PRESERVE, 0, "", 3, "be")},
        suffix_table={"s": EditScript(PRESERVE, 0, "", 1, "")},
    )
    assert predict(model, sentence("s-0", ("was", None))) == ["be"]


def test_predict_prefers_longest_suffix():
    model = BaselineModel(
        suffix_table={
            "es": EditScript(PRESERVE, 0, "", 2, ""),
            "s": EditScript(PRESERVE, 0, "", 1, ""),
        }
    )
    assert predict(model, sentence("s-0", ("ciudades", None))) == ["ciudad"]


def test_predict_unknown_word_falls_back_to_identity():
    model = BaselineModel()
    assert predict(model, sentence("s-0", ("zzz", None))) == ["zzz"]


def test_predict_lookup_is_case_insensitive_but_applies_to_original():
    c = corpus("toy", sentence("toy-0000", ("perros", "perro"), ("perros", "perro")))
    model = _fit(c)
    # "Perros" hits the casefolded form entry; the script runs on the
    # original form, so the capital P survives.
    assert predict(model, sentence("s-0", ("Perros", None))) == ["Perro"]


def test_predict_skips_inapplicable_scripts():
    # Suffix entry induced from a longer word cannot apply to a 2-letter one.
    model = BaselineModel(
        suffix_table={"n": EditScript(PRESERVE, 0, "", 4, "x")},
    )
    assert predict(model, sentence("s-0", ("en", None))) == ["en"]


def test_casefold_length_change_is_survivable():
    # "ß".casefold() == "ss": the table key is longer than the wordform, and
    # a script induced for the casefolded key may not apply to the original.
    c = corpus("toy", sentence("toy-0000", ("straße", "straße")))
    model = _fit(c)
    out = predict(model, sentence("s-0", ("STRASSE", None), ("straße", None)))
    assert len(out) == 2


def test_majority_ties_break_by_inventory_id():
    # "as"-final forms map to two scripts with equal counts; the inventory
    # id (overall frequency, then encoding) must decide deterministically.
    c = corpus(
        "toy",
        sentence("toy-0000", ("casas", "casa"), ("rojas", "rojo")),
    )
    pairs = pair_scripts(c)
    inventory = build_inventory(pairs)
    model = train(pairs, inventory)
    winner = min(
        [EditScript(PRESERVE, 0, "", 1, ""), EditScript(PRESERVE, 0, "", 2, "o")],
        key=inventory.id_of,
    )
    assert model.suffix_table["as"] == winner


def test_train_rejects_empty_and_unannotated():
    inventory = build_inventory(pair_scripts(_train_corpus()))
    with pytest.raises(EmptyCorpusError):
        train(pair_scripts(corpus("toy")), inventory)
    bad = corpus("toy", sentence("toy-0000", ("word", None)))
    with pytest.raises(MissingLemmaError):
        train(pair_scripts(bad), inventory)


@given(c=gold_corpora(), max_suffix_len=st.integers(1, 6))
@settings(max_examples=150, deadline=None)
def test_train_matches_per_token_oracle(c, max_suffix_len):
    model = _fit(c, max_suffix_len=max_suffix_len)
    assert (model.form_table, model.suffix_table) == oracle_train_tables(c, max_suffix_len)


@given(c=gold_corpora(), max_suffix_len=st.integers(1, 6))
@settings(max_examples=150, deadline=None)
def test_train_from_pair_labels_file_matches_per_token_oracle(c, max_suffix_len):
    # The induce stage writes the inventory and the pair labels; the
    # train-baseline stage reads both back and trains on them alone.
    pairs = pair_scripts(c)
    built = build_inventory(pairs)
    with tempfile.TemporaryDirectory() as tmp:
        write_inventory(built, Path(tmp) / "inventory.tsv")
        write_pair_labels(pairs, built, Path(tmp) / "pairs.tsv")
        inventory = read_inventory(Path(tmp) / "inventory.tsv")
        back = read_pair_labels(Path(tmp) / "pairs.tsv", inventory)
    assert back == pairs
    model = train(back, inventory, max_suffix_len=max_suffix_len)
    assert (model.form_table, model.suffix_table) == oracle_train_tables(c, max_suffix_len)


# Forms whose case folding changes their length or letters (ß, İ) or depends
# on position (final sigma), drawn from a few letters so suffixes are shared.
_FOLDING_FORMS = st.text(st.sampled_from("aAsSßİiΣσς"), min_size=1, max_size=5)
_SCRIPTS = st.builds(
    EditScript,
    st.sampled_from(_CASE_FLAGS),
    st.integers(0, 2),
    st.sampled_from(["", "a", "ß"]),
    st.integers(0, 2),
    st.sampled_from(["", "s", "σ"]),
)


@st.composite
def pair_triples(draw):
    """(wordform, script, count) triples over small pools of forms and
    scripts, so that one form carries several scripts and labels tie."""
    forms = draw(st.lists(_FOLDING_FORMS, min_size=1, max_size=4))
    scripts = draw(st.lists(_SCRIPTS, min_size=1, max_size=4))
    triple = st.tuples(st.sampled_from(forms), st.sampled_from(scripts), st.integers(1, 4))
    return draw(st.lists(triple, min_size=1, max_size=12))


@given(pairs=pair_triples(), max_suffix_len=st.integers(0, 6))
@settings(max_examples=300, deadline=None)
def test_train_matches_the_counter_oracle(pairs, max_suffix_len):
    inventory = build_inventory(pairs)
    model = train(pairs, inventory, max_suffix_len)
    old = oracle_train(pairs, inventory, max_suffix_len)
    assert model == old
    with tempfile.TemporaryDirectory() as tmp:
        write_model(model, Path(tmp) / "new.tsv")
        write_model(old, Path(tmp) / "old.tsv")
        assert (Path(tmp) / "new.tsv").read_bytes() == (Path(tmp) / "old.tsv").read_bytes()


def test_predict_identity_copies_forms():
    s = sentence("s-0", ("Los", None), ("niños", None), (".", None))
    assert predict_identity(s) == ["Los", "niños", "."]


@given(
    words=st.lists(
        st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=100, deadline=None)
def test_predict_always_yields_one_lemma_per_token(words):
    c = _train_corpus()
    model = _fit(c)
    s = sentence("s-0", *[(w, None) for w in words])
    assert len(predict(model, s)) == len(words)


def test_model_round_trip(tmp_path):
    c = _train_corpus()
    model = _fit(c, max_suffix_len=3)
    path = tmp_path / "model.tsv"
    write_model(model, path)
    back = read_model(path)
    assert back.form_table == model.form_table
    assert back.suffix_table == model.suffix_table
    assert back.max_suffix_len == 3


@pytest.mark.parametrize(
    "row",
    [
        "form\tcasas",  # two fields
        "form\tcasas\t" + IDENTITY.encode() + "\textra",  # four fields
        "frm\tcasas\t" + IDENTITY.encode(),  # no such table
        "suffix\tas\t[\"preserve\",0,",  # script is not JSON
        "suffix\tas\t7",  # script is not a list
        'form\t,\t["preserve","0","",0,""]',  # a drop that is a str
        'suffix\tas\t["keep",0,"",0,""]',  # no such case flag
        'suffix\tas\t["preserve",0,"",-1,""]',  # a negative drop
        'suffix\tas\t["preserve",true,"",0,""]',  # a drop that is a bool
        'suffix\tas\t["preserve",0,"",1.0,""]',  # a drop that is a float
        'suffix\tas\t["preserve",0,null,0,""]',  # an add that is not a str
    ],
)
def test_read_model_names_a_bad_row(tmp_path, row):
    path = tmp_path / "model.tsv"
    write_model(_fit(_train_corpus()), path)
    line_no = len(path.read_text("utf-8").splitlines()) + 1
    path.write_text(path.read_text("utf-8") + row + "\n", "utf-8")
    with pytest.raises(ModelFormatError, match=rf"model\.tsv:{line_no}: "):
        read_model(path)


def test_read_model_refuses_a_repeated_row(tmp_path):
    # A second form row for "," used to replace the first row's script.
    path = tmp_path / "model.tsv"
    write_model(BaselineModel({",": IDENTITY}, {",": IDENTITY}), path)
    assert read_model(path).form_table == {",": IDENTITY}  # one key in two tables reads
    line_no = len(path.read_text("utf-8").splitlines()) + 1
    path.write_text(path.read_text("utf-8") + 'form\t,\t["preserve",0,"",0,"r"]\n', "utf-8")
    message = rf"model\.tsv:{line_no}: repeats the form row for ','$"
    with pytest.raises(ModelFormatError, match=message):
        read_model(path)


def test_read_model_names_a_bad_max_suffix_len(tmp_path):
    path = tmp_path / "model.tsv"
    write_model(_fit(_train_corpus()), path)
    path.write_text(path.read_text("utf-8").replace("max_suffix_len = 5", "max_suffix_len = five"), "utf-8")
    with pytest.raises(ModelFormatError, match=r"model\.tsv:2: max_suffix_len 'five'"):
        read_model(path)


def test_write_model_encodes_each_script_once(tmp_path, es_corpus, monkeypatch):
    model = _fit(es_corpus)
    distinct = set(model.form_table.values()) | set(model.suffix_table.values())
    calls = []
    encode = EditScript.encode
    monkeypatch.setattr(EditScript, "encode", lambda self: calls.append(self) or encode(self))
    write_model(model, tmp_path / "model.tsv")
    assert len(calls) == len(distinct) < len(model.form_table) + len(model.suffix_table)


def test_read_model_decodes_each_script_once(tmp_path, es_corpus, monkeypatch):
    model = _fit(es_corpus)
    write_model(model, tmp_path / "model.tsv")
    calls = []
    decode = EditScript.decode
    monkeypatch.setattr(EditScript, "decode", lambda text: calls.append(text) or decode(text))
    back = read_model(tmp_path / "model.tsv")
    assert (back.form_table, back.suffix_table) == (model.form_table, model.suffix_table)
    distinct = set(model.form_table.values()) | set(model.suffix_table.values())
    assert sorted(calls) == sorted(script.encode() for script in distinct)


def test_baseline_beats_identity_on_fixture(es_corpus):
    from lemmabench.corpus import SplitSpec, make_splits
    from lemmabench.evaluation import word_accuracy

    train_c, dev_c, _ = make_splits(es_corpus, SplitSpec(40, 15, 25))
    model = _fit(train_c)
    learned = {s.id: predict(model, s) for s in dev_c.sentences}
    identity = {s.id: predict_identity(s) for s in dev_c.sentences}
    assert word_accuracy(learned, dev_c) >= word_accuracy(identity, dev_c)
    assert word_accuracy(learned, dev_c) > 0.5
