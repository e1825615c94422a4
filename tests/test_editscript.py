"""Edit-script induction, application, and the label inventory."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemmabench import editscript
from lemmabench.editscript import (
    IDENTITY,
    LOWER_FIRST,
    PRESERVE,
    UPPER_FIRST,
    EditScript,
    LabelInventory,
    _common_cores,
    apply,
    build_inventory,
    induce,
    pair_scripts,
    read_inventory,
    read_pair_labels,
    write_inventory,
    write_pair_labels,
)
from lemmabench.errors import (
    InapplicableScriptError,
    InventoryFormatError,
    LemmabenchError,
    MissingLemmaError,
)

from conftest import corpus, sentence
from oracles import (
    gold_corpora,
    oracle_common_cores,
    oracle_induce,
    oracle_induce_from_cores,
    oracle_inventory_items,
    oracle_min_edit_size,
    oracle_pair_scripts,
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
    assert induce(*pair) == oracle_induce(*pair) == oracle_induce_from_cores(*pair)


# Letters whose first-character recasing is longer than one code point (ß,
# ŉ, İ), what that recasing gives (SS, ʼN, i̇), a title-case digraph and
# plain letters in both cases.
_PREFIX_CHARS = "aAbBsSiIßŉİǅǆǄʼN\u0307x"


@st.composite
def prefix_pairs(draw):
    """(w, w + s) or (w + s, w), s often holding w with its first character
    recased: identical pairs, each prefix shortcut, and the pairs in which a
    recasing longer than w shares more of the lemma than w does."""
    word = draw(st.text(_PREFIX_CHARS, min_size=1, max_size=5))
    recased = st.sampled_from([word[0].upper() + word[1:], word[0].lower() + word[1:]])
    tail = "".join(draw(st.lists(recased | st.text(_PREFIX_CHARS, max_size=3), max_size=2)))
    return draw(st.sampled_from([(word, word + tail), (word + tail, word)]))


@given(pair=prefix_pairs())
@settings(max_examples=300, deadline=None)
def test_induce_on_prefix_pairs_matches_the_oracles(pair):
    assert induce(*pair) == oracle_induce(*pair) == oracle_induce_from_cores(*pair)


@pytest.mark.parametrize(
    "word, lemma, script",
    [
        ("ŉ", "ŉʼN", EditScript(UPPER_FIRST, 0, "ŉ", 0, "")),
        ("ß", "ßSS", EditScript(UPPER_FIRST, 0, "ß", 0, "")),
        ("İ", "İi̇x", EditScript(LOWER_FIRST, 0, "İ", 0, "x")),
    ],
)
def test_induce_recases_a_word_that_is_a_prefix_of_its_lemma(word, lemma, script):
    # The word is a prefix of the lemma, yet its recasing is longer and
    # shares more: returning the word's own prefix script would give
    # PRESERVE, which edits more.
    assert induce(word, lemma) == oracle_induce(word, lemma) == script


@pytest.mark.parametrize(
    "first, second",
    [
        (("dogs", "dog"), ("cats", "cat")),  # the lemma is a prefix of the word
        (("habl", "hablar"), ("cant", "cantar")),  # the word is a prefix of the lemma
        (("Casas", "casa"), ("Mesas", "mesa")),  # the substring search
    ],
)
def test_equal_scripts_from_induce_are_one_object(first, second):
    assert induce(*first) is induce(*second)
    assert induce(*first) == oracle_induce(*second)


# A two-letter alphabet gives many tied and overlapping hits; letters whose
# first-character recasing is two code points give lemmas that hold part of
# a recased head (ßa -> Sa); the last strategy draws pairs whose alphabets
# are disjoint, so nothing is shared.
_AWKWARD = st.text("aSsßŉʼNİi\u0307", min_size=1, max_size=6)
_CORE_PAIRS = (
    st.tuples(st.text("ab", min_size=1, max_size=12), st.text("ab", min_size=1, max_size=12))
    | st.tuples(WORDS, WORDS)
    | st.tuples(_AWKWARD, _AWKWARD)
    | st.tuples(
        st.text("abcñé", min_size=1, max_size=10), st.text("xyzßİ", min_size=1, max_size=10)
    )
)


@given(pair=_CORE_PAIRS)
@settings(max_examples=400, deadline=None)
def test_common_cores_lead_induce_to_the_oracle_script(pair):
    # _common_cores keeps only the first place of each shared substring in
    # the word; the brute-force oracle and induce over every overlapping hit
    # of the character-pair scan must pick the same script.
    assert induce(*pair) == oracle_induce(*pair) == oracle_induce_from_cores(*pair)
    longest = oracle_common_cores(*pair)[0][2]
    assert {length for _, _, length in _common_cores(*pair)} == {longest}


def test_common_cores_hand_cases():
    assert _common_cores("aaaa", "aa") == [(0, 0, 2)]
    assert _common_cores("aba", "ab") == [(0, 0, 2)]
    assert set(_common_cores("abab", "bab")) == {(1, 0, 3)}
    assert set(_common_cores("xaby", "abab")) == {(1, 0, 2), (1, 2, 2)}
    assert _common_cores("xy", "ab") == [(0, 0, 0)]


def _long_pair(kind, n, seed):
    """Two n-character strings: disjoint alphabets, or two URLs that share
    their scheme and scattered fragments."""
    rng = random.Random(seed)
    if kind == "disjoint":
        return "".join(rng.choices("abcdefgh", k=n)), "".join(rng.choices("stuvwxyz", k=n))
    text = "abcdefghijklmnopqrstuvwxyz0123456789/.-_?=&"
    return (
        "https://www." + "".join(rng.choices(text, k=n - 12)),
        "http://" + "".join(rng.choices(text, k=n - 7)),
    )


@pytest.mark.parametrize("kind", ["disjoint", "url"])
@pytest.mark.parametrize("n", [200, 600])
def test_induce_on_long_tokens_matches_the_oracles(kind, n):
    word, lemma = _long_pair(kind, n, seed=n)
    script = induce(word, lemma)
    assert script == oracle_induce_from_cores(word, lemma)
    if n == 200:  # the brute-force oracle is cubic: about a second here
        assert script == oracle_induce(word, lemma)
    if kind == "disjoint":
        assert script == EditScript(PRESERVE, 0, "", n, lemma)
    assert apply(script, word) == lemma


@pytest.mark.parametrize(
    "word, lemma, script",
    [
        # ß and ŉ upper-case to two code points, İ lower-cases to two.
        ("ßen", "SSen", EditScript(UPPER_FIRST, 0, "", 0, "")),
        ("ŉa", "ʼNa", EditScript(UPPER_FIRST, 0, "", 0, "")),
        # The lemma holds one of the two characters of the recased head.
        ("ßa", "Sa", EditScript(UPPER_FIRST, 1, "", 0, "")),
        ("İstanbul", "i̇stanbul", EditScript(LOWER_FIRST, 0, "", 0, "")),
        # The title-case digraph ǅ recases to one code point, not to "dž".
        ("ǅemal", "džemal", EditScript(PRESERVE, 1, "dž", 0, "")),
    ],
)
def test_induce_when_recasing_changes_the_length_of_the_word(word, lemma, script):
    assert induce(word, lemma) == oracle_induce(word, lemma) == script
    assert apply(induce(word, lemma), word) == lemma


@given(word=WORDS, lemma=WORDS)
@settings(max_examples=100, deadline=None)
def test_induce_deterministic(word, lemma):
    assert induce(word, lemma) == induce(word, lemma)


def test_encode_decode_round_trip():
    script = EditScript(UPPER_FIRST, 2, "ün", 1, "ß")
    assert EditScript.decode(script.encode()) == script
    assert "\t" not in script.encode()  # safe inside TSV columns


def test_identity_script():
    assert IDENTITY == EditScript()
    assert EditScript(LOWER_FIRST) != IDENTITY
    assert IDENTITY.edit_size == 0


def test_inventory_orders_by_frequency_then_encoding():
    c = corpus(
        "toy",
        sentence("toy-0000", ("dogs", "dog"), ("cats", "cat"), ("runs", "run")),
        sentence("toy-0001", ("walk", "walk")),
    )
    inventory = build_inventory(pair_scripts(c))
    # strip-s occurs three times -> id 0; identity once -> id 1
    strip_s = EditScript(PRESERVE, 0, "", 1, "")
    assert inventory.id_of(strip_s) == 0
    assert inventory.id_of(IDENTITY) == 1
    assert inventory.items() == [(0, strip_s, 3), (1, IDENTITY, 1)]
    assert len(inventory) == 2


@given(c=gold_corpora())
@settings(max_examples=150, deadline=None)
def test_inventory_matches_per_token_oracle(c):
    assert build_inventory(pair_scripts(c)).items() == oracle_inventory_items(c)


@given(c=gold_corpora())
@settings(max_examples=100, deadline=None)
def test_pair_scripts_matches_the_counter_of_gold_pairs(c):
    pairs = pair_scripts(c)
    assert pairs == oracle_pair_scripts(c)
    first = {script: script for _, script, _ in pairs}
    assert all(script is first[script] for _, script, _ in pairs)


def test_inventory_requires_lemmas(monkeypatch):
    c = corpus(
        "toy",
        sentence("toy-0000", ("dogs", "dog")),
        sentence("toy-0001", ("a", "a"), ("word", None)),
    )
    calls = []
    monkeypatch.setattr(editscript, "induce", lambda *pair: calls.append(pair))
    message = re.escape("token 2 ('word') of toy-0001 has no lemma")
    with pytest.raises(MissingLemmaError, match=f"^{message}$"):
        build_inventory(pair_scripts(c))
    assert calls == []  # refused before any pair is induced


def test_inventory_round_trip(tmp_path):
    c = corpus(
        "toy",
        sentence("toy-0000", ("Perros", "perro"), ("comieron", "comer"), (".", ".")),
    )
    inventory = build_inventory(pair_scripts(c))
    path = tmp_path / "inventory.tsv"
    write_inventory(inventory, path)
    back = read_inventory(path)
    assert list(back.items()) == list(inventory.items())


@pytest.mark.parametrize(
    "row",
    ['7\t["preserve",0,"",1,""]', "bogus", '0\t["preserve",0]\t3', "0\tnot json\t3", "0\t5\t3",
     '1\t["preserve",0,"",0,""]\t2',  # repeats row 0's script
     '2\t["preserve",0,"",1,""]\t2',  # id is not the row's position
     '1\t["preserve",0,"",1,""]\t9',  # more frequent than row 0: would be renumbered
     '1\t["preserve","0","",0,""]\t2',  # a drop that is a str
     '1\t["upper",0,"",0,""]\t2',  # no such case flag
     '1\t["preserve",false,"",1,""]\t2',  # a drop that is a bool
     '1\t["preserve",0,"",1,3]\t2',  # an add that is not a str
     '1\t["preserve",0,"",1,""]\t-3',  # a negative frequency
     '1\t["preserve",0,"",1,""]\t0',  # a zero frequency
     '1\t["preserve",0,"",1,""]\t+2'],  # a frequency that is not in plain digits
)
def test_read_inventory_names_a_malformed_row(tmp_path, row):
    path = tmp_path / "inventory.tsv"
    write_inventory(LabelInventory({IDENTITY: 5}), path)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(row + "\n")
    with pytest.raises(InventoryFormatError, match=re.escape(f"{path}:4: ")):
        read_inventory(path)


def test_pair_labels_round_trip_keeps_hash_initial_wordforms(tmp_path):
    c = corpus(
        "toy",
        sentence("toy-0000", ("Love", "love"), ("#nlp", "#nlp"), ("#", "#"), ("perros", "perro")),
        sentence("toy-0001", ("#nlp", "#nlp"), ("!", "!")),
    )
    pairs = pair_scripts(c)
    inventory = build_inventory(pairs)
    path = tmp_path / "toy.pairs.tsv"
    write_pair_labels(pairs, inventory, path)
    lines = path.read_text("utf-8").splitlines()
    assert lines[0] == "# format = lemmabench-pair-labels/1"
    assert [line for line in lines if "\t" not in line] == lines[:2]  # headers hold no tab
    assert "#nlp\t0\t2" in lines
    assert read_pair_labels(path, inventory) == pairs


@pytest.mark.parametrize(
    "row, problem",
    [
        ("perros\t0", "found 2 fields"),
        ("perros", "found 1 fields"),
        ("perros\t0\t1\tNOUN", "found 4 fields"),
        ("perros\t2\t1", "label id '2'"),
        ("perros\t-1\t1", "label id '-1'"),
        ("perros\tx\t1", "label id 'x'"),
        ("perros\t0\t0", "count '0'"),
        ("perros\t0\t-3", "count '-3'"),
        ("perros\t0\t1.5", "count '1.5'"),
        ("perros\t0\t", "count ''"),
    ],
)
def test_read_pair_labels_rejects_bad_rows(tmp_path, row, problem):
    inventory = LabelInventory({IDENTITY: 5, EditScript(PRESERVE, 0, "", 1, ""): 2})
    path = tmp_path / "toy.pairs.tsv"
    path.write_text(f"# format = lemmabench-pair-labels/1\nperro\t0\t3\n{row}\n", "utf-8")
    where = re.escape(f"{path}:3: ")
    with pytest.raises(InventoryFormatError, match=where + ".*" + re.escape(problem)) as info:
        read_pair_labels(path, inventory)
    assert info.value.line_no == 3


def test_inventory_script_of_is_inverse_of_id_of():
    inventory = LabelInventory({IDENTITY: 5, EditScript(PRESERVE, 0, "", 1, ""): 2})
    for label_id, script, _ in inventory.items():
        assert inventory.script_of(label_id) == script
        assert inventory.id_of(script) == label_id
