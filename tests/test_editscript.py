"""Edit-script induction, application, and the label inventory."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemmabench import editscript
from lemmabench.baseline import train
from lemmabench.editscript import (
    IDENTITY,
    LOWER_FIRST,
    PRESERVE,
    UPPER_FIRST,
    EditScript,
    LabelInventory,
    apply,
    build_inventory,
    induce,
    read_inventory,
    write_inventory,
)
from lemmabench.errors import (
    InapplicableScriptError,
    LemmabenchError,
    MissingLemmaError,
)

from conftest import corpus, sentence
from oracles import (
    gold_corpora,
    oracle_induce,
    oracle_inventory_items,
    oracle_min_edit_size,
    related_pairs,
)


WORDS = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    min_size=1,
    max_size=10,
)


def test_induce_hand_cases():
    assert induce("chosen", "choose") == EditScript(PRESERVE, 0, "", 3, "ose")
    assert induce("dogs", "dog") == EditScript(PRESERVE, 0, "", 1, "")
    assert induce("The", "the") == EditScript(LOWER_FIRST, 0, "", 0, "")
    assert induce("los", "el") == EditScript(PRESERVE, 0, "e", 2, "")
    assert induce("walk", "walk") == IDENTITY
    # no shared substring: whole word replaced on the suffix side
    assert induce("xy", "ab") == EditScript(PRESERVE, 0, "", 2, "ab")


def test_induce_prefers_suffix_edits_on_ties():
    # "abxa" -> "aba": dropping prefix or suffix both cost 1; suffix wins
    script = induce("aaxa", "aaa")
    assert script.prefix_drop == 0 and script.prefix_add == ""


def test_induce_case_flags_rank_after_edit_size():
    # Using lowercase-first is free, so it beats spending edits on the letter.
    assert induce("Casas", "casa") == EditScript(LOWER_FIRST, 0, "", 1, "")
    # But preserve wins when the form is already lowercase.
    assert induce("casas", "casa").case_flag == PRESERVE


def test_apply_order_recase_then_prefix_then_suffix():
    script = EditScript(LOWER_FIRST, 1, "z", 1, "q")
    # "Abc" -> "abc" -> drop "a", add "z" -> "zbc" -> drop "c", add "q" -> "zbq"
    assert apply(script, "Abc") == "zbq"


def test_apply_rejects_overlong_deletions():
    with pytest.raises(InapplicableScriptError):
        apply(EditScript(PRESERVE, 2, "", 2, ""), "abc")


def test_induce_rejects_empty_inputs():
    with pytest.raises(LemmabenchError):
        induce("", "lemma")
    with pytest.raises(LemmabenchError):
        induce("word", "")


def test_induce_counts_code_points_not_bytes():
    script = induce("niños", "niño")
    assert script == EditScript(PRESERVE, 0, "", 1, "")
    assert apply(script, "niños") == "niño"


@given(word=WORDS, lemma=WORDS)
@settings(max_examples=300, deadline=None)
def test_apply_induce_round_trip(word, lemma):
    script = induce(word, lemma)
    assert apply(script, word) == lemma


@given(word=WORDS, lemma=WORDS)
@settings(max_examples=150, deadline=None)
def test_induce_is_minimal_against_oracle(word, lemma):
    assert induce(word, lemma).edit_size == oracle_min_edit_size(word, lemma)


@given(pair=related_pairs() | st.tuples(WORDS, WORDS))
@settings(max_examples=300, deadline=None)
def test_induce_matches_three_flag_oracle(pair):
    assert induce(*pair) == oracle_induce(*pair)


@given(word=WORDS, lemma=WORDS)
@settings(max_examples=100, deadline=None)
def test_induce_deterministic(word, lemma):
    assert induce(word, lemma) == induce(word, lemma)


def test_encode_decode_round_trip():
    script = EditScript(UPPER_FIRST, 2, "ün", 1, "ß")
    assert EditScript.decode(script.encode()) == script
    assert "\t" not in script.encode()  # safe inside TSV columns


def test_identity_script():
    assert IDENTITY.is_identity()
    assert not EditScript(LOWER_FIRST).is_identity()
    assert IDENTITY.edit_size == 0


def test_inventory_orders_by_frequency_then_encoding():
    c = corpus(
        "toy",
        sentence("toy-0000", ("dogs", "dog"), ("cats", "cat"), ("runs", "run")),
        sentence("toy-0001", ("walk", "walk")),
    )
    inventory = build_inventory(c)
    # strip-s occurs three times -> id 0; identity once -> id 1
    strip_s = EditScript(PRESERVE, 0, "", 1, "")
    assert inventory.id_of(strip_s) == 0
    assert inventory.frequency(strip_s) == 3
    assert inventory.id_of(IDENTITY) == 1
    assert len(inventory) == 2
    assert strip_s in inventory


@given(c=gold_corpora())
@settings(max_examples=150, deadline=None)
def test_inventory_matches_per_token_oracle(c):
    assert build_inventory(c).items() == oracle_inventory_items(c)


def test_each_stage_induces_each_distinct_pair_once(monkeypatch):
    c = corpus(
        "toy",
        sentence("toy-0000", ("Perros", "perro"), ("perros", "perro"), ("1", "1")),
        sentence("toy-0001", ("perros", "perro"), ("ladran", "ladrar"), ("1", "1")),
    )
    calls = []
    real_induce = editscript.induce

    def counting_induce(wordform, lemma):
        calls.append((wordform, lemma))
        return real_induce(wordform, lemma)

    monkeypatch.setattr(editscript, "induce", counting_induce)
    distinct = {("Perros", "perro"), ("perros", "perro"), ("1", "1"), ("ladran", "ladrar")}
    inventory = build_inventory(c)
    assert sorted(calls) == sorted(distinct)
    calls.clear()
    train(c, inventory)
    assert sorted(calls) == sorted(distinct)


def test_inventory_requires_lemmas():
    c = corpus("toy", sentence("toy-0000", ("word", None)))
    with pytest.raises(MissingLemmaError):
        build_inventory(c)


def test_inventory_round_trip(tmp_path):
    c = corpus(
        "toy",
        sentence("toy-0000", ("Perros", "perro"), ("comieron", "comer"), (".", ".")),
    )
    inventory = build_inventory(c)
    path = tmp_path / "inventory.tsv"
    write_inventory(inventory, path)
    back = read_inventory(path)
    assert list(back.items()) == list(inventory.items())


def test_inventory_script_of_is_inverse_of_id_of():
    inventory = LabelInventory({IDENTITY: 5, EditScript(PRESERVE, 0, "", 1, ""): 2})
    for label_id, script, _ in inventory.items():
        assert inventory.script_of(label_id) == script
        assert inventory.id_of(script) == label_id
