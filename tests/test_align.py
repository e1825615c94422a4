"""Output parsing, alignment taxonomy, and prediction file round trips."""

import random
import unicodedata

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lemmabench import align as align_mod
from lemmabench.align import (
    _QUOTE_PAIRS,
    AlignedPrediction,
    _candidate_cells,
    _distance_is_one,
    _match_keys,
    _pair_score,
    align,
    align_sequences,
    parse_output,
    read_diagnostics,
    read_predictions,
    write_diagnostics,
    write_predictions,
)
from lemmabench.errors import FileFormatError

from conftest import sentence
from oracles import oracle_align_sequences, oracle_levenshtein, oracle_parse_output
from synthgen import make_case


def _aligned(raw_text, *pairs):
    return align(parse_output(raw_text), sentence("s-0", *pairs))


# --- parsing ----------------------------------------------------------------


def test_parse_tab_separated_rows():
    parsed = parse_output("dogs\tdog\ncats\tcat")
    assert parsed.pairs == (("dogs", "dog"), ("cats", "cat"))
    assert parsed.rejects == ()


def test_parse_accepts_multi_tab_and_double_space():
    parsed = parse_output("dogs\t\tdog\ncats  cat\nbirds   bird")
    assert parsed.pairs == (("dogs", "dog"), ("cats", "cat"), ("birds", "bird"))


def test_parse_single_space_is_not_a_separator():
    parsed = parse_output("dogs dog")
    assert parsed.pairs == ()
    assert parsed.rejects == ("dogs dog",)


def test_parse_strips_paired_quotes_only():
    parsed = parse_output(
        '"dogs"\t"dog"\n'
        "'cats'\t'cat'\n"
        "`birds`\t`bird`\n"
        "“fish”\t“fish”\n"
        "l'eau\tle\n"
    )
    assert parsed.pairs == (
        ("dogs", "dog"),
        ("cats", "cat"),
        ("birds", "bird"),
        ("fish", "fish"),
        ("l'eau", "le"),  # internal apostrophe untouched
    )


def test_parse_strips_nested_quote_layers():
    parsed = parse_output("\"'dogs'\"\tdog")
    assert parsed.pairs == (("dogs", "dog"),)


def test_parse_rejects_odd_field_counts():
    parsed = parse_output("one\none\ttwo\tthree\nHere is an explanation.\n```tsv")
    assert parsed.pairs == ()
    assert len(parsed.rejects) == 4


def test_parse_skips_blank_lines_and_pads():
    parsed = parse_output("\n  dogs \t dog  \n\n\t\n")
    assert parsed.pairs == (("dogs", "dog"),)
    assert parsed.rejects == ()


def test_parse_drops_empty_fields_from_edges():
    parsed = parse_output("\tdogs\tdog\t")
    assert parsed.pairs == (("dogs", "dog"),)


def test_parse_normalizes_to_nfc():
    decomposed = "café"
    parsed = parse_output(f"{decomposed}\t{decomposed}")
    composed = unicodedata.normalize("NFC", decomposed)
    assert parsed.pairs == ((composed, composed),)
    assert len(parsed.pairs[0][0]) == 4


# --- parsing against the per-field-call parser -----------------------------------

_NFD = ["cafe\u0301", "n\u0303o", "A\u030a"]
# Every str.splitlines boundary, "\r\n" included.
_LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# Whitespace that is not a space: str.strip removes it, the separator split
# does not; NFC turns U+2000 into U+2002.
_ODD_SPACES = ["\xa0", "\x1f", "\u3000", "\u2003", "\u2000"]
_FIELD_SEPARATORS = ["\t", "\t\t", "  ", "   ", " \t ", " ", *[f"{s}\t" for s in _ODD_SPACES], "\t\xa0"]
_QUOTES = sorted({q for pair in _QUOTE_PAIRS for q in pair})
_PARSE_WORDS = st.sampled_from(["dogs", "dog", "l'eau", "b a", "Los", "", *_NFD, *_QUOTES, *_ODD_SPACES]) | st.text(
    st.sampled_from("ab é'\"`“”‘’\t" + "".join(_ODD_SPACES)), max_size=4
)


@st.composite
def _quoted_fields(draw):
    """A word in up to three quote layers, each a full pair or only one side of one."""
    field = draw(_PARSE_WORDS)
    for _ in range(draw(st.integers(0, 3))):
        opening, closing = draw(st.sampled_from(sorted(_QUOTE_PAIRS)))
        sides = draw(st.sampled_from(["both", "opening", "closing"]))
        field = (opening if sides != "closing" else "") + field + (closing if sides != "opening" else "")
    return field


@st.composite
def _response_lines(draw):
    fields = draw(st.lists(_quoted_fields(), max_size=4))
    line = ""
    for field in fields:
        line += draw(st.sampled_from(_FIELD_SEPARATORS)) if line else ""
        line += field
    pad = st.sampled_from(["", " ", "\t", "  "])
    return draw(pad) + line + draw(pad)


# Responses built from rows of quoted fields, or fragments thrown together.
_RESPONSES = st.one_of(
    st.builds(
        "".join,
        st.lists(
            st.tuples(_response_lines(), st.sampled_from(_LINE_BREAKS)).map("".join)
            | st.sampled_from(["\n", "   \n", "\t\r\n", "\u2028"]),
            max_size=8,
        ),
    ),
    st.builds(
        "".join,
        st.lists(
            st.sampled_from(_LINE_BREAKS + _FIELD_SEPARATORS + _QUOTES + _NFD + ["dogs", "l'eau", "\u0301"]),
            max_size=20,
        ),
    ),
)


@settings(max_examples=500, deadline=None)
@given(_RESPONSES)
@example('""\t\'\n"\t“x”\r\n‘’  ‘a’\x1cb\u2028\t \n')  # only-quote fields, a lone quote
@example("x\xa0\tb")  # whitespace beside the tab that is not a space
@example("x\tb\x1f\n")
@example("x\t\u3000b")
@example("x\u2003\tb")
@example("x\u2000\tb\ncafe\u0301\tb")  # NFC turns U+2000 into U+2002; the text is not NFC
def test_parse_output_matches_the_per_field_parser(raw_text):
    assert parse_output(raw_text) == oracle_parse_output(raw_text)


# --- alignment hand cases ----------------------------------------------------


def test_align_perfect_output():
    result = _aligned("Los\tel\nperros\tperro", ("Los", "el"), ("perros", "perro"))
    assert result.lemmas == ("el", "perro")
    assert result.counts() == {"missing": 0, "wrong": 0, "random": 0}


def test_align_skipped_word_is_missing():
    result = _aligned(
        "Los\tel\ncorren\tcorrer",
        ("Los", "el"),
        ("perros", "perro"),
        ("corren", "correr"),
    )
    assert result.lemmas == ("el", None, "correr")
    assert result.counts() == {"missing": 1, "wrong": 0, "random": 0}


def test_align_case_change_is_wrong_but_scored():
    result = _aligned("los\tel\nperros\tperro", ("Los", "el"), ("perros", "perro"))
    assert result.lemmas == ("el", "perro")  # lemma still lands in the slot
    assert result.counts() == {"missing": 0, "wrong": 1, "random": 0}


def test_align_one_edit_typo_is_wrong():
    result = _aligned("perro\tperro", ("perros", "perro"))
    assert result.counts() == {"missing": 0, "wrong": 1, "random": 0}
    assert result.lemmas == ("perro",)


def test_align_two_edits_is_not_a_match():
    result = _aligned("gato\tgato", ("perros", "perro"))
    assert result.lemmas == (None,)
    assert result.counts() == {"missing": 1, "wrong": 0, "random": 1}


def test_align_unmatched_output_is_random():
    result = _aligned(
        "Los\tel\nextra\textra\nperros\tperro",
        ("Los", "el"),
        ("perros", "perro"),
    )
    assert result.lemmas == ("el", "perro")
    assert result.counts() == {"missing": 0, "wrong": 0, "random": 1}


def test_align_rejected_lines_count_as_random():
    result = _aligned(
        "Sure, here you go:\nLos\tel\nperros\tperro",
        ("Los", "el"),
        ("perros", "perro"),
    )
    assert result.counts() == {"missing": 0, "wrong": 0, "random": 1}


def test_align_duplicated_block_matches_first_copy():
    block = "Los\tel\nperros\tperro"
    result = _aligned(block + "\n" + block, ("Los", "el"), ("perros", "perro"))
    assert result.lemmas == ("el", "perro")
    assert result.counts() == {"missing": 0, "wrong": 0, "random": 2}


def test_align_empty_output_is_all_missing():
    result = _aligned("", ("Los", "el"), ("perros", "perro"))
    assert result.lemmas == (None, None)
    assert result.counts() == {"missing": 2, "wrong": 0, "random": 0}


def test_align_out_of_order_rows_cannot_both_match():
    result = _aligned("perros\tperro\nLos\tel", ("Los", "el"), ("perros", "perro"))
    assert result.counts()["missing"] == 1
    assert result.counts()["random"] == 1
    assert sum(1 for lemma in result.lemmas if lemma is not None) == 1


def test_align_repeated_wordforms_stay_positional():
    result = _aligned(
        "la\tel\nla\tel",
        ("la", "el"),
        ("casa", "casa"),
        ("la", "el"),
    )
    assert result.lemmas == ("el", None, "el")
    assert result.counts() == {"missing": 1, "wrong": 0, "random": 0}


def test_align_sequences_is_monotonic():
    rng = random.Random(7)
    for _ in range(50):
        _, raw, _, _ = make_case(rng)
        parsed = parse_output(raw)
        out_words = [w for w, _ in parsed.pairs]
        in_words = [f"tok{i}{i}end" for i in range(12)]
        matched = align_sequences(out_words, in_words)
        for (o1, i1), (o2, i2) in zip(matched, matched[1:]):
            assert o1 < o2 and i1 < i2


def test_align_duplicated_long_block_matches_first_copy():
    function_words = ["la", "de", "el"]
    pairs = []
    for k in range(120):
        word = function_words[k % 3] if k % 2 else f"palabra{k}"
        pairs.append((word, word.upper()))
    raw = "\n".join(f"{w}\t{l}" for w, l in pairs)
    words = [w for w, _ in pairs]
    assert align_sequences(words + words, words) == [(k, k) for k in range(120)]
    result = _aligned(raw + "\n" + raw, *pairs)
    assert result.lemmas == tuple(l for _, l in pairs)
    assert result.counts() == {"missing": 0, "wrong": 0, "random": 120}


def test_align_duplicate_row_matches_first_copy_not_a_common_suffix():
    # Trimming the common suffix first would pair the second "a".
    assert align_sequences(["a", "a"], ["a"]) == [(0, 0)]


@pytest.mark.parametrize(
    "words",
    [
        [],
        ["a"],
        ["la", "de", "la", "la", "el", "de"],  # repeated words
        ["a", "A", "a", "A"],  # case twins
        ["ab", "a", "b", "ab", "ba"],  # one-edit neighbours
        ["ß", "SS", "ss", "ß"],  # equal case folds, two edits apart
        ["", "a", "", ""],  # the empty word
    ],
)
def test_align_sequences_of_an_echo_is_the_full_dp_diagonal(words):
    expected = oracle_align_sequences(words, words)
    assert expected == [(k, k) for k in range(len(words))]
    assert align_sequences(words, words) == expected


def test_align_echo_with_an_explanation_and_a_quoted_field():
    pairs = [("Los", "el"), ("perros", "perro"), ("ladran", "ladrar")]
    raw = 'Here are the lemmas:\nLos\tel\n"perros"\t"perro"\nladran\tladrar'
    parsed = parse_output(raw)
    assert [w for w, _ in parsed.pairs] == [w for w, _ in pairs]
    result = align(parsed, sentence("s-0", *pairs))
    assert result.lemmas == ("el", "perro", "ladrar")
    assert result.counts() == {"missing": 0, "wrong": 0, "random": len(parsed.rejects)}
    assert len(parsed.rejects) == 1


def test_align_takes_the_echo_shortcut_on_sentences_read_from_disk(es_corpus, monkeypatch):
    """A sentence read from disk keeps its wordforms as a tuple and a parsed
    output is a list of rows; align still sees an echo as one, so no echoed
    sentence reaches the sparse alignment.  Nor does an answer that drops a
    word, doubles a block or lowercases its initial: each takes one of the
    exact rules, and each still equals the full DP."""

    def refuse(out_words, in_words):
        raise AssertionError("an echo-like answer reached _candidate_cells")

    monkeypatch.setattr(align_mod, "_candidate_cells", refuse)
    for sent in es_corpus.sentences:
        raw = "\n".join(f"{w}\t{l}" for w, l in zip(sent.wordforms, sent.lemmas))
        result = align(parse_output(raw), sent)
        assert result.lemmas == sent.lemmas
        assert result.counts() == {"missing": 0, "wrong": 0, "random": 0}

        words, half = list(sent.wordforms), len(sent.wordforms) // 2
        for out_words in (
            words[:half] + words[half + 1 :],  # a dropped word
            words[: half + 1] * 2 + words[half + 1 :],  # a doubled block
            [words[0].lower(), *words[1:]],  # a lowercased initial
        ):
            assert align_sequences(out_words, sent.wordforms) == oracle_align_sequences(
                out_words, sent.wordforms
            )


# --- sparse alignment against the full DP --------------------------------------

# Case variants, one-edit neighbours, an inner space, the empty word and
# letters whose case mapping changes length.
_ALIGN_WORDS = st.sampled_from(["a", "A", "ab", "ba", "abc", "b a", "", "la", "de", "el", "ß", "SS", "é"])
_ALIGN_LISTS = st.lists(_ALIGN_WORDS | st.text("abAé ", max_size=3), max_size=12)


@st.composite
def word_list_pairs(draw):
    """(out_words, in_words): independent lists or the input itself, the
    output block optionally repeated."""
    in_words = draw(_ALIGN_LISTS)
    out_words = draw(_ALIGN_LISTS | st.just(list(in_words)))
    return out_words * draw(st.integers(1, 3)), in_words


@settings(max_examples=300, deadline=None)
@given(word_list_pairs())
def test_align_sequences_matches_full_dp(words):
    out_words, in_words = words
    assert align_sequences(out_words, in_words) == oracle_align_sequences(out_words, in_words)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_tokens=st.integers(1, 150), copies=st.integers(1, 2))
@example(seed=11, n_tokens=150, copies=2)
@example(seed=12, n_tokens=150, copies=1)
def test_align_sequences_matches_full_dp_on_long_synthetic_output(seed, n_tokens, copies):
    sent, raw, _, _ = make_case(random.Random(seed), n_tokens=n_tokens)
    out_words = [w for w, _ in parse_output(raw).pairs] * copies
    in_words = list(sent.wordforms)
    assert align_sequences(out_words, in_words) == oracle_align_sequences(out_words, in_words)


# --- the exact rules: near diagonals and exact subsequences ---------------------

# Few words, so that repeats are common and a greedy embedding has choices.
_FEW_WORDS = st.lists(st.sampled_from(["a", "b", "ab", "la", "de", "B", "el"]), max_size=10)


def _variant(word, k):
    """A case variant or a one-edit neighbour of word."""
    return [word.upper(), word.lower(), word.swapcase(), word + "s", word[1:], "x" + word[1:]][k]


@st.composite
def echo_like_pairs(draw):
    """(out_words, in_words) in the shapes the exact rules take: the input
    with words deleted; with words inserted, or repeated 1-3 times; or of
    the same length with 1-5 words changed to a case or one-edit variant."""
    in_words = draw(_FEW_WORDS)
    shape = draw(st.sampled_from(["deleted", "inserted", "repeated", "changed"]))
    out_words = list(in_words)
    if shape == "deleted":
        for _ in range(draw(st.integers(1, 4))):
            if out_words:
                del out_words[draw(st.integers(0, len(out_words) - 1))]
    elif shape == "inserted":
        for word in draw(st.lists(st.sampled_from(["a", "b", "ab", "x"]), min_size=1, max_size=4)):
            out_words.insert(draw(st.integers(0, len(out_words))), word)
    elif shape == "repeated":
        out_words *= draw(st.integers(1, 3))
    elif in_words:
        for _ in range(draw(st.integers(1, 5))):
            k = draw(st.integers(0, len(out_words) - 1))
            out_words[k] = _variant(out_words[k], draw(st.integers(0, 5)))
    return out_words, in_words


@settings(max_examples=500, deadline=None)
@given(echo_like_pairs())
@example((["B", "A", "c", "B"], ["d", "B", "A", "c"]))  # 4 near pairs: the diagonal only ties
@example((["a"], ["a", "a"]))  # a shorter output embeds right-greedily
@example((["a", "a"], ["a"]))  # a shorter input embeds left-greedily
def test_align_sequences_matches_full_dp_on_echo_like_answers(words):
    out_words, in_words = words
    assert align_sequences(out_words, in_words) == oracle_align_sequences(out_words, in_words)


def test_align_four_near_pairs_need_not_be_the_diagonal():
    out_words, in_words = ["B", "A", "c", "B"], ["d", "B", "A", "c"]
    assert all(_pair_score(o, i) == 1 for o, i in zip(out_words, in_words))
    assert align_sequences(out_words, in_words) == [(0, 1), (1, 2), (2, 3)]
    assert align_sequences(out_words[:3], in_words[:3]) == [(0, 0), (1, 1), (2, 2)]


def test_align_exact_embeddings_take_the_tracebacks_copy():
    assert align_sequences(["a"], ["a", "a"]) == [(0, 1)]  # the later input token
    assert align_sequences(["a", "b"], ["a", "b", "a", "b"]) == [(0, 2), (1, 3)]
    assert align_sequences(["a", "b", "a", "b"], ["a", "b"]) == [(0, 0), (1, 1)]


@settings(max_examples=200, deadline=None)
@given(word_list_pairs())
def test_candidate_cells_are_exactly_the_scored_cells(words):
    out_words, in_words = words
    cells = _candidate_cells(out_words, in_words)
    assert all(list(row) == sorted(row) for row in cells)
    found = {(i, j, weight) for i, row in enumerate(cells) for j, weight in row.items()}
    scored = {
        (i, j, s + 2)
        for i, out_word in enumerate(out_words)
        for j, in_word in enumerate(in_words)
        if (s := _pair_score(out_word, in_word)) is not None
    }
    assert found == scored


_SHORT_TEXT = st.text(st.sampled_from("abAsSéÉßİı "), max_size=5) | st.text(max_size=4)


@settings(max_examples=500)
@given(_SHORT_TEXT, _SHORT_TEXT)
@example("ß", "SS")  # equal case folds, two edits apart
def test_distance_is_one_matches_levenshtein(a, b):
    distance = oracle_levenshtein(a, b)
    assert _distance_is_one(a, b) == (distance == 1)
    if distance <= 1 or a.casefold() == b.casefold():
        assert _match_keys(a) & _match_keys(b)


# --- synthetic taxonomy property ---------------------------------------------


def test_alignment_taxonomy_on_synthetic_perturbations():
    rng = random.Random(20240818)
    for case_no in range(300):
        sent, raw, expected_counts, expected_slots = make_case(rng, f"synth-{case_no}")
        result = align(parse_output(raw), sent)
        assert result.counts() == expected_counts, f"case {case_no}: {raw!r}"
        assert result.lemmas == expected_slots, f"case {case_no}: {raw!r}"


# --- prediction and diagnostic files -----------------------------------------


def test_prediction_file_round_trip(tmp_path):
    path = tmp_path / "run0.tsv"
    blocks = [
        ("es-0000", ["Los", "perros"], ["el", None]),
        ("es-0001", ["ladran", "."], ["ladrar", "."]),
    ]
    write_predictions(path, blocks, metadata={"system": "demo", "run": "0"})
    metadata, read = read_predictions(path)
    assert metadata["system"] == "demo" and metadata["run"] == "0"
    assert metadata["format"] == "lemmabench-predictions/1"
    assert read == [
        ("es-0000", ("Los", "perros"), ("el", None)),
        ("es-0001", ("ladran", "."), ("ladrar", ".")),
    ]


def test_prediction_file_keeps_hash_initial_wordforms(tmp_path):
    path = tmp_path / "run0.tsv"
    write_predictions(path, [("s-0", ["Love", "#nlp", "#", "!"], ["love", "#nlp", None, "!"])])
    _, read = read_predictions(path)
    assert read == [("s-0", ("Love", "#nlp", "#", "!"), ("love", "#nlp", None, "!"))]


def test_prediction_missing_lemma_is_empty_field(tmp_path):
    path = tmp_path / "run0.tsv"
    write_predictions(path, [("s-0", ["a", "b"], ["x", None])])
    lines = path.read_text("utf-8").splitlines()
    assert "a\tx" in lines and "b\t" in lines


@pytest.mark.parametrize("slots", [["x"], ["x", None, "y"]])
def test_write_predictions_refuses_a_slot_count_unlike_the_wordforms(tmp_path, slots):
    with pytest.raises(ValueError):
        write_predictions(tmp_path / "run0.tsv", [("s-0", ["a", "b"], slots)])


def test_read_predictions_accepts_anonymous_blocks(tmp_path):
    path = tmp_path / "external.tsv"
    path.write_text("Los\tel\nperros\tperro\n\nladran\tladrar\n", "utf-8")
    metadata, blocks = read_predictions(path)
    assert metadata == {}
    assert blocks == [
        (None, ("Los", "perros"), ("el", "perro")),
        (None, ("ladran",), ("ladrar",)),
    ]


@pytest.mark.parametrize("row, message", [
    ("perro\tperro\tNOUN", "expected 2 tab-separated fields, found 3"),
    ("ladra", "expected 2 tab-separated fields, found 1"),
    ("\tel", "empty wordform field"),
])
def test_read_predictions_rejects_malformed_rows(tmp_path, row, message):
    """A prediction row follows the corpus TSV rule, so a bad one is the
    FileFormatError a split row gets, naming the file and line."""
    path = tmp_path / "external.tsv"
    path.write_text(f"# sent_id = s-0\nLos\tel\n{row}\nmuy\t\n", "utf-8")
    with pytest.raises(FileFormatError, match=rf"external\.tsv:3: {message}$"):
        read_predictions(path)


def test_prediction_round_trip_is_byte_stable(tmp_path):
    blocks = [("s-0", ["a"], ["b"])]
    write_predictions(tmp_path / "one.tsv", blocks, metadata={"k": "v"})
    write_predictions(tmp_path / "two.tsv", blocks, metadata={"k": "v"})
    assert (tmp_path / "one.tsv").read_bytes() == (tmp_path / "two.tsv").read_bytes()


def test_diagnostics_round_trip(tmp_path):
    path = tmp_path / "diag.json"
    sentences = {
        "s-0": {"missing": 1, "wrong": 0, "random": 2, "incorrect": 1},
        "s-1": {"missing": 0, "wrong": 0, "random": 0, "incorrect": 0},
    }
    write_diagnostics(path, {"system": "demo"}, sentences)
    metadata, read = read_diagnostics(path)
    assert metadata == {"system": "demo"}
    assert read == sentences
    assert path.read_text("utf-8").endswith("\n")


def test_read_diagnostics_skips_a_byte_order_mark(fixtures_dir, tmp_path):
    plain = fixtures_dir / "diagnostics" / "es_fix-dev.diag.json"
    bom = tmp_path / "bom.diag.json"
    bom.write_text("\ufeff" + plain.read_text("utf-8"), "utf-8")
    assert read_diagnostics(bom) == read_diagnostics(plain)


def test_a_diagnostics_write_that_fails_keeps_the_old_file_and_leaves_no_other(
    tmp_path, disk_full
):
    path = tmp_path / "run0.diag.json"
    write_diagnostics(path, {"system": "old"}, {})
    before = path.read_bytes()
    disk_full(path.name)
    with pytest.raises(OSError, match="No space left on device"):
        write_diagnostics(path, {"system": "new"}, {"s-0": {"missing": 1}})
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_counts_shape():
    prediction = AlignedPrediction(("a", None), 0, 3)
    assert prediction.counts() == {"missing": 1, "wrong": 0, "random": 3}
