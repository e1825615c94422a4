"""Prompt rendering against golden texts, and example selection."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemmabench.corpus import Sentence
from lemmabench.errors import MissingLemmaError, PromptError
from lemmabench.prompt import (
    BASIC,
    FULL,
    MANUAL,
    MOST_ERRORS,
    RANDOM,
    SENTENCE_STRING,
    WORD_LIST,
    PromptSpec,
    render_prompt,
    select_examples,
)

from conftest import corpus, sentence
from oracles import oracle_render_prompt


def _plain_sentence(sid, words):
    return Sentence(id=sid, wordforms=tuple(words), lemmas=(None,) * len(words))


def _example(sid, words, lemmas):
    return Sentence(id=sid, wordforms=tuple(words), lemmas=tuple(lemmas))


@pytest.fixture(scope="module")
def golden(fixtures_dir):
    data = json.loads((fixtures_dir / "prompts" / "examples.json").read_text("utf-8"))

    def load(name):
        return (fixtures_dir / "prompts" / f"{name}.txt").read_text("utf-8")

    return data, load


def test_basic_0shot_sentence_string_matches_golden(golden):
    data, load = golden
    spec = PromptSpec(BASIC, SENTENCE_STRING, 0, RANDOM, language_name="Spanish")
    target = _plain_sentence("t-0", data["golden_gate_words"])
    assert render_prompt(spec, [], target) == load("basic_0shot_sentence_string")


def test_full_0shot_sentence_string_matches_golden(golden):
    data, load = golden
    spec = PromptSpec(FULL, SENTENCE_STRING, 0, RANDOM, language_name="Spanish")
    target = _plain_sentence("t-0", data["golden_gate_words"])
    assert render_prompt(spec, [], target) == load("full_0shot_sentence_string")


def test_basic_1shot_word_list_matches_golden(golden):
    data, load = golden
    spec = PromptSpec(BASIC, WORD_LIST, 1, MANUAL, language_name="Spanish")
    example = _example("e-0", data["tina"]["words"], data["tina"]["lemmas"])
    target = _plain_sentence("t-0", data["venice_words"])
    assert render_prompt(spec, [example], target) == load("basic_1shot_word_list")


def test_full_1shot_word_list_matches_golden(golden):
    data, load = golden
    spec = PromptSpec(FULL, WORD_LIST, 1, MANUAL, language_name="Spanish")
    example = _example("e-0", data["tina"]["words"], data["tina"]["lemmas"])
    target = _plain_sentence("t-0", data["venice_words"])
    assert render_prompt(spec, [example], target) == load("full_1shot_word_list")


def test_basic_2shot_second_example_starts_own_block(golden):
    data, load = golden
    spec = PromptSpec(BASIC, WORD_LIST, 2, MANUAL, language_name="Spanish")
    examples = [
        _example("e-0", data["tina"]["words"], data["tina"]["lemmas"]),
        _example("e-1", data["ninos"]["words"], data["ninos"]["lemmas"]),
    ]
    target = _plain_sentence("t-0", data["venice_words"])
    assert render_prompt(spec, examples, target) == load("basic_2shot_word_list")


def test_render_has_no_trailing_newline(golden):
    data, _ = golden
    spec = PromptSpec(BASIC, WORD_LIST, 0, RANDOM, language_name="Spanish")
    text = render_prompt(spec, [], _plain_sentence("t-0", data["venice_words"]))
    assert not text.endswith("\n")


def test_language_name_is_templated():
    spec = PromptSpec(BASIC, SENTENCE_STRING, 0, RANDOM, language_name="Basque")
    text = render_prompt(spec, [], _plain_sentence("t-0", ["Kaixo", "."]))
    assert text.startswith("Your task is to lemmatize a sentence in Basque.")


def test_word_list_quoting_escapes_apostrophes():
    spec = PromptSpec(BASIC, WORD_LIST, 0, RANDOM, language_name="English")
    text = render_prompt(spec, [], _plain_sentence("t-0", ["n't", "l'eau"]))
    assert "['n\\'t', 'l\\'eau']" in text


def test_render_rejects_example_count_mismatch(golden):
    data, _ = golden
    spec = PromptSpec(BASIC, WORD_LIST, 2, MANUAL, language_name="Spanish")
    example = _example("e-0", data["tina"]["words"], data["tina"]["lemmas"])
    with pytest.raises(PromptError):
        render_prompt(spec, [example], _plain_sentence("t-0", ["x"]))


_PROMPT_WORDS = st.text(st.sampled_from("aé'\"\\\t\n\r\x85\u2028 "), min_size=1, max_size=4)
_PROMPT_SENTENCES = st.lists(st.tuples(_PROMPT_WORDS, _PROMPT_WORDS), min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([BASIC, FULL]),
    st.sampled_from([SENTENCE_STRING, WORD_LIST]),
    st.lists(_PROMPT_SENTENCES, max_size=5),
    st.lists(_PROMPT_SENTENCES, min_size=1, max_size=3),
    st.sampled_from(["Spanish", "Basque"]),
)
def test_render_matches_the_line_by_line_renderer(template, mode, shots, targets, language):
    spec = PromptSpec(template, mode, len(shots), RANDOM, language_name=language)
    examples = [_example(f"e-{i}", *zip(*pairs)) for i, pairs in enumerate(shots)]
    for i, pairs in enumerate(targets):
        target = _plain_sentence(f"t-{i}", [w for w, _ in pairs])
        assert render_prompt(spec, examples, target) == oracle_render_prompt(spec, examples, target)


def test_spec_validation():
    with pytest.raises(PromptError):
        PromptSpec(template="fancy")
    with pytest.raises(PromptError):
        PromptSpec(input_mode="csv")
    with pytest.raises(PromptError):
        PromptSpec(shots=6)
    with pytest.raises(PromptError):
        PromptSpec(shots=-1)
    with pytest.raises(PromptError):
        PromptSpec(selection="best")


def test_example_requires_gold_lemmas():
    spec = PromptSpec(BASIC, WORD_LIST, 1, MANUAL)
    example = _example("s-0", ["word", "two"], ["word", None])
    with pytest.raises(MissingLemmaError, match=r"token 2 \('two'\) of s-0 has no lemma"):
        render_prompt(spec, [example], _plain_sentence("t-0", ["x"]))


def test_gold_pairs_refuses_columns_of_different_lengths():
    with pytest.raises(ValueError):
        _example("s-0", ["a", "b"], ["a"]).gold_pairs()
    with pytest.raises(ValueError):
        _example("s-0", ["a"], ["a", "b"]).gold_pairs()


def _pool():
    return corpus(
        "dev",
        sentence("dev-0000", ("a", "a")),
        sentence("dev-0001", ("b", "b")),
        sentence("dev-0002", ("c", "c")),
        sentence("dev-0003", ("d", "d")),
    )


def test_select_zero_shots_is_empty():
    assert select_examples(MOST_ERRORS, 0, _pool()) == []


def test_select_manual_uses_exact_ids_in_order():
    picked = select_examples(MANUAL, 2, _pool(), manual_ids=["dev-0002", "dev-0000"])
    assert [e.id for e in picked] == ["dev-0002", "dev-0000"]
    with pytest.raises(PromptError):
        select_examples(MANUAL, 2, _pool(), manual_ids=["dev-0002"])
    with pytest.raises(PromptError, match="'dev-9999' is not in pool"):
        select_examples(MANUAL, 1, _pool(), manual_ids=["dev-9999"])
    with pytest.raises(PromptError, match="'dev-0001' is repeated"):
        select_examples(MANUAL, 3, _pool(), manual_ids=["dev-0001", "dev-0002", "dev-0001"])


def test_select_random_is_seeded():
    first = select_examples(RANDOM, 2, _pool(), seed=5)
    second = select_examples(RANDOM, 2, _pool(), seed=5)
    assert [e.id for e in first] == [e.id for e in second]


def test_select_random_draws_only_fully_annotated_sentences():
    pool = corpus(
        "dev",
        sentence("dev-0000", ("a", "a")),
        sentence("dev-0001", ("b", None), ("c", "c")),
        sentence("dev-0002", ("d", "d")),
        sentence("dev-0003", ("e", "e")),
    )
    # Seed 0 drew dev-0003 and dev-0001 from all four; dev-0001 cannot be a worked example.
    picked = select_examples(RANDOM, 2, pool, seed=0)
    assert [e.id for e in picked] == ["dev-0002", "dev-0003"]
    with pytest.raises(PromptError, match="pool dev has 3 to choose from"):
        select_examples(RANDOM, 4, pool)
    assert len(select_examples(MANUAL, 4, pool, manual_ids=[f"dev-000{i}" for i in range(4)])) == 4


def test_select_most_errors_ranks_only_fully_annotated_sentences():
    pool = corpus("dev", sentence("dev-0000", ("a", "a")), sentence("dev-0001", ("b", None)))
    diagnostics = {"dev-0000": {"incorrect": 0}, "dev-0001": {"incorrect": 1}}
    picked = select_examples(MOST_ERRORS, 1, pool, dev_diagnostics=diagnostics)
    assert [e.id for e in picked] == ["dev-0000"]
    # Coverage counts only the sentences it may rank.
    picked = select_examples(MOST_ERRORS, 1, pool, dev_diagnostics={"dev-0000": {"incorrect": 0}})
    assert [e.id for e in picked] == ["dev-0000"]


def test_select_most_errors_ranks_by_total_then_id():
    diagnostics = {
        "dev-0000": {"missing": 1, "wrong": 0, "random": 0, "incorrect": 0},
        "dev-0001": {"missing": 2, "wrong": 1, "random": 0, "incorrect": 1},
        "dev-0002": {"missing": 0, "wrong": 0, "random": 0, "incorrect": 1},
        "dev-0003": {"missing": 1, "wrong": 0, "random": 0, "incorrect": 0},
    }
    picked = select_examples(MOST_ERRORS, 3, _pool(), dev_diagnostics=diagnostics)
    # totals: 4, then the three-way tie at 1 broken by id ascending
    assert [e.id for e in picked] == ["dev-0001", "dev-0000", "dev-0002"]


def test_select_most_errors_requires_full_coverage():
    with pytest.raises(PromptError):
        select_examples(MOST_ERRORS, 1, _pool(), dev_diagnostics={"dev-0000": 1})
    with pytest.raises(PromptError):
        select_examples(MOST_ERRORS, 1, _pool())


def test_select_rejects_oversized_k():
    with pytest.raises(PromptError):
        select_examples(RANDOM, 5, _pool())


def test_select_reads_fixture_diagnostics(fixtures_dir, es_corpus):
    from lemmabench.align import read_diagnostics
    from lemmabench.corpus import SplitSpec, make_splits

    _, dev, _ = make_splits(es_corpus, SplitSpec(40, 15, 25))
    _, diagnostics = read_diagnostics(fixtures_dir / "diagnostics" / "es_fix-dev.diag.json")
    picked = select_examples(MOST_ERRORS, 4, dev, dev_diagnostics=diagnostics)
    assert len(picked) == 4
    totals = [sum(diagnostics[e.id].values()) for e in picked]
    assert totals == sorted(totals, reverse=True)
