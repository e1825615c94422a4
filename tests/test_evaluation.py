"""Metrics against brute-force oracles; McNemar against exact enumeration."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemmabench.errors import MissingLemmaError, ScoringError
from lemmabench.evaluation import (
    EXACT_THRESHOLD,
    POLICIES,
    RENORMALIZE,
    RUNS_COLUMNS,
    STRICT,
    EvalReport,
    RunScore,
    aggregate_runs,
    correctness_vector,
    mcnemar,
    render_mcnemar_tsv,
    render_report_text,
    render_scores_tsv,
    score_run,
)

from conftest import corpus, sentence
from oracles import exact_mcnemar_p as exact_oracle_p
from oracles import oracle_score_run
from oracles import random_eval_case as random_case


def _gold():
    return corpus(
        "toy",
        sentence("toy-0000", ("Los", "el"), ("perros", "perro")),
        sentence("toy-0001", ("ladran", "ladrar"), (".", ".")),
    )


# --- accuracies vs a brute-force oracle --------------------------------------


def test_accuracies_match_brute_force_oracle():
    rng = random.Random(99)
    for _ in range(100):
        gold, predictions = random_case(rng)
        strict_hits = renorm_hits = attempted = total = 0
        correct_sentences = 0
        for sent in gold.sentences:
            slots = predictions[sent.id]
            sentence_ok = True
            for lemma, predicted in zip(sent.lemmas, slots):
                total += 1
                if predicted is None:
                    sentence_ok = False
                    continue
                attempted += 1
                if predicted == lemma:
                    strict_hits += 1
                    renorm_hits += 1
                else:
                    sentence_ok = False
            if sentence_ok:
                correct_sentences += 1
        assert score_run(predictions, gold, STRICT).word_accuracy == strict_hits / total
        expected_renorm = renorm_hits / attempted if attempted else 0.0
        assert score_run(predictions, gold, RENORMALIZE).word_accuracy == expected_renorm
        expected_sentences = correct_sentences / len(gold.sentences)
        assert score_run(predictions, gold).sentence_accuracy == expected_sentences


def test_policies_differ_only_in_denominator():
    gold = _gold()
    predictions = {"toy-0000": ["el", None], "toy-0001": ["ladrar", "."]}
    assert score_run(predictions, gold, STRICT).word_accuracy == 3 / 4
    assert score_run(predictions, gold, RENORMALIZE).word_accuracy == 3 / 3


def test_sentence_accuracy_is_all_or_nothing():
    gold = _gold()
    one_miss = {"toy-0000": ["el", None], "toy-0001": ["ladrar", "."]}
    assert score_run(one_miss, gold).sentence_accuracy == 0.5
    one_wrong = {"toy-0000": ["el", "gato"], "toy-0001": ["ladrar", "."]}
    assert score_run(one_wrong, gold).sentence_accuracy == 0.5


def test_correctness_vector_is_strict_and_ordered():
    gold = _gold()
    predictions = {"toy-0000": ["el", None], "toy-0001": ["wrong", "."]}
    assert correctness_vector(predictions, gold) == [True, False, False, True]


def test_scoring_errors():
    gold = _gold()
    with pytest.raises(ScoringError):
        score_run({"toy-0000": ["el", "perro"]}, gold)  # missing sentence
    with pytest.raises(ScoringError):
        score_run({"toy-0000": ["el"], "toy-0001": ["ladrar", "."]}, gold)
    with pytest.raises(ScoringError):
        score_run({"toy-0000": ["el", "perro"], "toy-0001": ["ladrar", "."]}, gold, "lenient")
    unannotated = corpus("u", sentence("u-0000", ("word", None)))
    message = r"^token 1 \('word'\) of u-0000 has no lemma$"
    with pytest.raises(MissingLemmaError, match=message):
        score_run({"u-0000": ["word"]}, unannotated)


# --- aggregation --------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20))
def test_aggregate_matches_numpy(values):
    numpy = pytest.importorskip("numpy")
    mean, std = aggregate_runs(values)
    assert math.isclose(mean, float(numpy.mean(values)), rel_tol=0, abs_tol=1e-12)
    assert math.isclose(std, float(numpy.std(values, ddof=0)), rel_tol=0, abs_tol=1e-12)


def test_aggregate_requires_values():
    with pytest.raises(ScoringError):
        aggregate_runs([])


def test_aggregate_single_run_has_zero_std():
    assert aggregate_runs([0.93]) == (0.93, 0.0)


# --- McNemar -------------------------------------------------------------------


def _vectors(b01, b10, both_right=5, both_wrong=3):
    first, second = [], []
    first += [False] * b01 + [True] * b10 + [True] * both_right + [False] * both_wrong
    second += [True] * b01 + [False] * b10 + [True] * both_right + [False] * both_wrong
    return first, second


def test_mcnemar_exact_branch_matches_enumeration():
    for b01 in range(EXACT_THRESHOLD):
        for b10 in range(EXACT_THRESHOLD - b01):
            result = mcnemar(*_vectors(b01, b10))
            assert result.method == "exact"
            assert (result.b01, result.b10) == (b01, b10)
            assert result.statistic == float(min(b01, b10))
            assert math.isclose(result.p_value, exact_oracle_p(b01, b10), abs_tol=1e-9)


def test_mcnemar_no_discordance_is_p_one():
    result = mcnemar([True, False, True], [True, False, True])
    assert (result.b01, result.b10, result.statistic, result.p_value) == (0, 0, 0.0, 1.0)
    assert result.method == "exact"
    assert not result.significant()


def test_mcnemar_balanced_discordance_is_p_one():
    result = mcnemar(*_vectors(7, 7))
    assert result.p_value == 1.0


def test_mcnemar_symmetry():
    for b01, b10 in [(2, 9), (0, 14), (20, 30), (13, 40)]:
        forward = mcnemar(*_vectors(b01, b10))
        backward = mcnemar(*_vectors(b10, b01))
        assert forward.p_value == backward.p_value
        assert (forward.b01, forward.b10) == (backward.b10, backward.b01)


def test_mcnemar_threshold_boundary():
    assert mcnemar(*_vectors(12, 12)).method == "exact"  # n = 24
    assert mcnemar(*_vectors(12, 13)).method == "chi-square"  # n = 25


def test_mcnemar_chi_square_statistic_and_p():
    result = mcnemar(*_vectors(5, 30))
    assert result.method == "chi-square"
    assert result.statistic == (abs(5 - 30) - 1) ** 2 / 35
    assert result.p_value == math.erfc(math.sqrt(result.statistic / 2.0))


def test_mcnemar_chi_square_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    for b01, b10 in [(5, 30), (0, 25), (40, 41), (18, 60), (100, 130)]:
        result = mcnemar(*_vectors(b01, b10))
        assert result.method == "chi-square"
        expected = float(stats.chi2.sf(result.statistic, df=1))
        assert math.isclose(result.p_value, expected, rel_tol=1e-12, abs_tol=1e-15)


def test_mcnemar_requires_equal_lengths():
    with pytest.raises(ScoringError):
        mcnemar([True], [True, False])


def test_mcnemar_significance_flag():
    assert mcnemar(*_vectors(0, 9)).significant()  # p = 2/512 ~ 0.0039
    assert not mcnemar(*_vectors(7, 7)).significant()


# --- score_run and reports ------------------------------------------------------


def test_score_run_counts_and_diagnostics():
    gold = _gold()
    predictions = {"toy-0000": ["el", None], "toy-0001": ["wrong", "."]}
    diagnostics = {
        "toy-0000": {"missing": 1, "wrong": 0, "random": 2, "incorrect": 1},
        "toy-0001": {"missing": 0, "wrong": 1, "random": 0, "incorrect": 1},
    }
    score = score_run(predictions, gold, STRICT, diagnostics)
    assert (score.correct, score.total) == (2, 4)
    assert (score.correct_sentences, score.sentences) == (0, 2)
    assert (score.missing, score.wrong, score.random) == (1, 1, 2)
    renorm = score_run(predictions, gold, RENORMALIZE, diagnostics)
    assert (renorm.correct, renorm.total) == (2, 3)
    assert renorm.sentence_accuracy == score.sentence_accuracy  # never renormalized


def test_score_run_refuses_diagnostics_of_no_gold_sentence():
    # An all-correct one-sentence run used to score wrong=5, random=7 here.
    gold = corpus("g", sentence("g-0000", ("a", "A")))
    diagnostics = {"g-0000": {"wrong": 0, "random": 0}, "dev-0099": {"wrong": 5, "random": 7}}
    with pytest.raises(ScoringError, match="entry for dev-0099, no gold sentence"):
        score_run({"g-0000": ("A",)}, gold, "strict", diagnostics)


def test_score_run_refuses_diagnostics_that_miss_a_gold_sentence():
    # Summing the entries present used to score the first case wrong=0, random=2.
    gold = _gold()
    predictions = {"toy-0000": ["el", None], "toy-0001": ["wrong", "."]}
    complete = {"toy-0000": {"wrong": 0, "random": 2}, "toy-0001": {"wrong": 1, "random": 0}}
    for sentence_id, diagnostics in [
        ("toy-0001", {"toy-0000": complete["toy-0000"]}),
        ("toy-0000", {**complete, "toy-0000": {"wrong": 0}}),
        ("toy-0001", {**complete, "toy-0001": {"wrong": 1, "random": True}}),
    ]:
        message = f"^diagnostics have no wrong and random counts for {sentence_id}$"
        with pytest.raises(ScoringError, match=message):
            score_run(predictions, gold, STRICT, diagnostics)
    score = score_run(predictions, gold, STRICT, complete)
    assert (score.missing, score.wrong, score.random) == (1, 1, 2)
    score = score_run(predictions, gold, STRICT)  # no diagnostics: no wrong or random rows
    assert (score.missing, score.wrong, score.random) == (1, 0, 0)


@st.composite
def _scoring_cases(draw):
    """A small gold corpus (now and then a token without a lemma), slots
    that are None, the gold lemma or another lemma (now and then a sentence
    without a prediction or with a slot too many), a policy, and
    diagnostics that are absent, complete, missing a count or an entry, or
    complete plus an entry for an unknown id."""
    sentences, predictions = [], {}
    for i in range(draw(st.integers(0, 4))):
        lemmas = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=5))
        if draw(st.sampled_from([False] * 19 + [True])):
            lemmas[draw(st.integers(0, len(lemmas) - 1))] = None
        sid = f"g-{i:04d}"
        sentences.append(sentence(sid, *((f"w{t}", lemma) for t, lemma in enumerate(lemmas))))
        slots = [draw(st.sampled_from([None, lemma, f"{lemma}x"])) for lemma in lemmas]
        shape = draw(st.sampled_from(["slots"] * 18 + ["absent", "one too many"]))
        if shape != "absent":
            predictions[sid] = slots + ["a"] if shape == "one too many" else slots
    gold = corpus("g", *sentences)
    diagnostics = None
    kind = draw(st.sampled_from(["absent", "complete", "unknown id", "short"]))
    if kind != "absent":
        count = st.integers(0, 3)
        diagnostics = {s.id: {"wrong": draw(count), "random": draw(count)} for s in sentences}
    if kind == "unknown id":
        diagnostics["dev-0099"] = {"wrong": 5, "random": 7}
    if kind == "short" and sentences:
        sid = draw(st.sampled_from([s.id for s in sentences]))
        del diagnostics[sid][draw(st.sampled_from(["wrong", "random"]))]
        if draw(st.booleans()):
            del diagnostics[sid]
    return gold, predictions, draw(st.sampled_from(POLICIES)), diagnostics


def _outcome(score, *args):
    try:
        return score(*args)
    except (ScoringError, MissingLemmaError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(_scoring_cases())
def test_score_run_matches_the_per_token_oracle(case):
    gold, predictions, policy, diagnostics = case
    new = _outcome(score_run, predictions, gold, policy, diagnostics)
    if isinstance(new, RunScore):
        new = (new.word_accuracy, new.sentence_accuracy, *dataclasses.astuple(new))
    old = _outcome(oracle_score_run, predictions, gold, policy, diagnostics)
    uncovered = [
        s.id for s in gold.sentences
        if diagnostics is not None and {"wrong", "random"} - set(diagnostics.get(s.id, {}))
    ]
    if new != old:  # the one departure: diagnostics that miss a gold sentence
        assert uncovered
        message = f"diagnostics have no wrong and random counts for {uncovered[0]}"
        assert new == (ScoringError, message)
    else:  # and such diagnostics never give a score
        assert not uncovered or isinstance(old[0], type)


def _report(system="sys", corpus_name="demo", correct=(90, 95)):
    """Runs of 100 words and 10 sentences, with missing=2, wrong=1, random=4."""
    runs = tuple(RunScore(c, 100, c // 20, 10, missing=2, wrong=1, random=4) for c in correct)
    return EvalReport(system, corpus_name, runs)


def test_report_stats():
    report = _report(correct=(90, 95))
    for run in report.runs:
        assert run.word_accuracy == float(Fraction(run.correct, run.total))
        assert run.sentence_accuracy == float(Fraction(run.correct_sentences, run.sentences))
    mean, std = report.word_stats()
    assert math.isclose(mean, 0.925) and math.isclose(std, 0.025)
    assert report.mean_errors() == (2.0, 1.0, 4.0)


def test_run_score_is_the_count_columns_of_runs_tsv():
    score = RunScore(3, 4, 1, 2, 1, 0, 5)
    assert tuple(f.name for f in dataclasses.fields(RunScore)) == RUNS_COLUMNS[3:]
    assert (score.word_accuracy, score.sentence_accuracy) == (0.75, 0.5)
    empty = RunScore(0, 0, 0, 0, 0, 0, 0)
    assert (empty.word_accuracy, empty.sentence_accuracy) == (0.0, 0.0)
    for name in ("word_accuracy", "sentence_accuracy"):
        with pytest.raises(AttributeError):
            setattr(score, name, 1.0)


def test_render_scores_tsv_shape():
    text = render_scores_tsv([_report()], {"config": "abc123"})
    lines = text.splitlines()
    assert lines[0] == "# config = abc123"
    assert lines[1].startswith("system\tcorpus\truns\t")
    fields = lines[2].split("\t")
    assert fields[:3] == ["sys", "demo", "2"]
    assert fields[3] == "0.9250"
    assert text.endswith("\n")


def test_render_mcnemar_tsv_shape():
    rows = [("demo", "a", "b", mcnemar(*_vectors(2, 9)))]
    text = render_mcnemar_tsv(rows, {}, alpha=0.05)
    lines = text.splitlines()
    assert lines[0].startswith("corpus\tsystem_a\tsystem_b\t")
    fields = lines[1].split("\t")
    assert fields[:6] == ["demo", "a", "b", "2", "9", "exact"]
    assert fields[8] in ("yes", "no")


def test_render_report_marks_best_system():
    reports = [_report("weak", correct=(80, 80)), _report("strong", correct=(99, 99))]
    text = render_report_text(reports, [], {"experiment": "demo"})
    assert "strong *" in text
    assert "weak *" not in text
    assert text.splitlines()[0] == "Lemmatization report"
    assert text.rstrip().endswith("* best word accuracy on the corpus")
