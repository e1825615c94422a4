"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v`` — every test prints a
single ``[PASS]``/``[FAIL]`` line naming the guarantee it checked.
"""

import json
import os
import random
import shutil
import time
from pathlib import Path

import lemmabench.evaluation as eval_mod
from lemmabench.align import align, parse_output
from lemmabench.baseline import predict, predict_identity, train
from lemmabench.corpus import SplitSpec, corpus_stats, ingest_conllu, make_splits, reduce_corpus
from lemmabench.editscript import apply, build_inventory, induce, pair_scripts
from lemmabench.evaluation import mcnemar, score_run
from lemmabench.experiment import (
    load_config,
    run_compare,
    run_induce,
    run_ingest,
    run_predictions,
    run_report,
    run_score,
    run_split,
    run_train_baseline,
)
from lemmabench.prompt import (
    BASIC,
    FULL,
    MANUAL,
    RANDOM,
    SENTENCE_STRING,
    WORD_LIST,
    PromptSpec,
    render_prompt,
)

from conftest import sentence as make_sentence
from oracles import exact_mcnemar_p, oracle_min_edit_size, random_eval_case
from synthgen import make_case


def _verdict(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


def _fixture_pairs(*corpora):
    pairs = []
    for corpus in corpora:
        for sent in corpus.sentences:
            for form, lemma in zip(sent.wordforms, sent.lemmas):
                if lemma is not None:
                    pairs.append((form, lemma))
    return pairs


_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "áéíóúñüçßàêôœ"
    "αβγδεζηθΑΒΓΔ"
    "абвгдежзиАБВГ"
    "ğışİIıofficial"
    "漢字かなカナ한글"
    "👍🏽🌍"
    "́̈"  # combining marks
    "-'. 0123456789"
)


def _random_pair(rng: random.Random) -> tuple[str, str]:
    def word():
        return "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(1, 12)))

    w, l = word(), word()
    if rng.random() < 0.5:
        # half the pairs share material, like real inflection does
        stem = word()
        w, l = stem + w[:3], stem + l[:3]
    return (w or "x", l or "x")


def test_criterion_1_edit_script_round_trip(es_corpus, en_corpus, eu_corpus):
    start = time.perf_counter()
    pairs = _fixture_pairs(es_corpus, en_corpus, eu_corpus)
    rng = random.Random(20240819)
    pairs += [_random_pair(rng) for _ in range(10_000)]
    bad = [(w, l) for w, l in pairs if apply(induce(w, l), w) != l]
    elapsed = time.perf_counter() - start
    _verdict(
        "edit-script round trip (fixtures + 10,000 random Unicode pairs, < 5 s)",
        not bad and elapsed < 5.0,
        f"{len(pairs)} pairs, {len(bad)} failures, {elapsed:.2f} s",
    )


def test_criterion_2_edit_script_minimality(es_corpus, en_corpus, eu_corpus):
    pairs = {
        (w, l)
        for w, l in _fixture_pairs(es_corpus, en_corpus, eu_corpus)
        if len(w) <= 12 and len(l) <= 12
    }
    mismatches = [
        (w, l, induce(w, l).edit_size, oracle_min_edit_size(w, l))
        for w, l in sorted(pairs)
        if induce(w, l).edit_size != oracle_min_edit_size(w, l)
    ]
    _verdict(
        "edit-script minimality vs exhaustive oracle (fixture pairs ≤ 12 chars)",
        not mismatches,
        f"{len(pairs)} unique pairs, {len(mismatches)} mismatches",
    )


def test_criterion_3_alignment_taxonomy():
    rng = random.Random(20240820)
    failures = 0
    for case_no in range(1_000):
        sent, raw, expected_counts, expected_slots = make_case(rng, f"acc-{case_no}")
        result = align(parse_output(raw), sent)
        if result.counts() != expected_counts or result.lemmas != expected_slots:
            failures += 1
    _verdict(
        "alignment taxonomy exact on 1,000 synthetic perturbations",
        failures == 0,
        f"{failures} mismatching cases",
    )


def test_criterion_4_metrics_oracle():
    rng = random.Random(20240821)
    failures = 0
    for _ in range(100):
        gold, predictions = random_eval_case(rng)
        strict_hits = renorm_hits = attempted = total = correct_sentences = 0
        for sent in gold.sentences:
            slots = predictions[sent.id]
            ok = True
            for lemma, predicted in zip(sent.lemmas, slots):
                total += 1
                if predicted is None:
                    ok = False
                    continue
                attempted += 1
                if predicted == lemma:
                    strict_hits += 1
                    renorm_hits += 1
                else:
                    ok = False
            correct_sentences += ok
        expected_renorm = renorm_hits / attempted if attempted else 0.0
        expected_sentences = correct_sentences / len(gold.sentences)
        if (
            score_run(predictions, gold, "strict").word_accuracy != strict_hits / total
            or score_run(predictions, gold, "renormalize").word_accuracy != expected_renorm
            or score_run(predictions, gold).sentence_accuracy != expected_sentences
        ):
            failures += 1
    _verdict(
        "word/sentence accuracy equal brute force on 100 random fixtures",
        failures == 0,
        f"{failures} disagreeing fixtures",
    )


def _discordant_vectors(b01, b10):
    first = [False] * b01 + [True] * b10 + [True] * 5 + [False] * 3
    second = [True] * b01 + [False] * b10 + [True] * 5 + [False] * 3
    return first, second


def test_criterion_5_mcnemar_against_enumeration():
    worst = 0.0
    original = eval_mod.EXACT_THRESHOLD
    try:
        eval_mod.EXACT_THRESHOLD = 51  # drive the exact branch over the full range
        for total in range(51):
            for b01 in range(total + 1):
                result = mcnemar(*_discordant_vectors(b01, total - b01))
                assert result.method == "exact"
                worst = max(worst, abs(result.p_value - exact_mcnemar_p(b01, total - b01)))
    finally:
        eval_mod.EXACT_THRESHOLD = original

    symmetric = all(
        mcnemar(*_discordant_vectors(a, b)).p_value == mcnemar(*_discordant_vectors(b, a)).p_value
        for a, b in [(0, 7), (3, 18), (12, 40)]
    )
    degenerate = (
        mcnemar([True, False], [True, False]).p_value == 1.0
        and mcnemar(*_discordant_vectors(9, 9)).p_value == 1.0
    )
    boundary = (
        mcnemar(*_discordant_vectors(12, 12)).method == "exact"
        and mcnemar(*_discordant_vectors(12, 13)).method == "chi-square"
    )
    _verdict(
        "McNemar exact branch vs binomial enumeration (b01+b10 ≤ 50, tol 1e-9)",
        worst <= 1e-9 and symmetric and degenerate and boundary,
        f"max |Δp| = {worst:.2e}, symmetry {symmetric}, p=1 degenerates {degenerate}, "
        f"threshold dispatch {boundary}",
    )


def test_criterion_6_prompt_fidelity(fixtures_dir):
    prompts_dir = fixtures_dir / "prompts"
    data = json.loads((prompts_dir / "examples.json").read_text("utf-8"))
    tina = make_sentence("e-0", *zip(data["tina"]["words"], data["tina"]["lemmas"]))
    ninos = make_sentence("e-1", *zip(data["ninos"]["words"], data["ninos"]["lemmas"]))
    gate = make_sentence("t-0", *((w, None) for w in data["golden_gate_words"]))
    venice = make_sentence("t-1", *((w, None) for w in data["venice_words"]))

    renders = {
        "basic_0shot_sentence_string": render_prompt(
            PromptSpec(BASIC, SENTENCE_STRING, 0, RANDOM, language_name="Spanish"), [], gate
        ),
        "full_0shot_sentence_string": render_prompt(
            PromptSpec(FULL, SENTENCE_STRING, 0, RANDOM, language_name="Spanish"), [], gate
        ),
        "basic_1shot_word_list": render_prompt(
            PromptSpec(BASIC, WORD_LIST, 1, MANUAL, language_name="Spanish"), [tina], venice
        ),
        "full_1shot_word_list": render_prompt(
            PromptSpec(FULL, WORD_LIST, 1, MANUAL, language_name="Spanish"), [tina], venice
        ),
        "basic_2shot_word_list": render_prompt(
            PromptSpec(BASIC, WORD_LIST, 2, MANUAL, language_name="Spanish"),
            [tina, ninos],
            venice,
        ),
    }
    mismatched = [
        name
        for name, text in renders.items()
        if text.encode("utf-8") != (prompts_dir / f"{name}.txt").read_bytes()
    ]
    anchored = (
        "Your task is to lemmatize a sentence" in renders["basic_0shot_sentence_string"]
        and "**Process Every Word**" in renders["full_0shot_sentence_string"]
    )
    _verdict(
        "prompt fidelity: 5 golden templates byte-identical",
        not mismatched and anchored,
        f"mismatched: {mismatched or 'none'}; anchor strings present: {anchored}",
    )


def _official_ud_check(ud_dir: Path) -> tuple[bool, str]:
    """(ok, note): whether the official tr_pud and cs_pud test files under
    ud_dir, whole or cut to their first 100 sentences, give the paper's
    (token count, sentence count)."""
    ok, notes = True, []
    for stem, want in (("tr_pud", (1795, 100)), ("cs_pud", (1930, 100))):
        matches = sorted(ud_dir.rglob(f"*{stem.replace('_pud', '')}*pud*.conllu"))
        if not matches:
            notes.append(f"{stem}: no file found")
            ok = False
            continue
        corpus = ingest_conllu(matches[0], stem)
        stats = corpus_stats(corpus)
        if stats == want:
            notes.append(f"{stem}: full file matches {want}")
            continue
        reduced = corpus_stats(reduce_corpus(corpus, want[1], "first-n", 0))
        if reduced == want:
            notes.append(f"{stem}: first-{want[1]} reduction matches {want}")
        else:
            notes.append(f"{stem}: got full={stats} first-{want[1]}={reduced}, want {want}")
            ok = False
    return ok, "; ".join(notes)


def test_official_ud_check_reads_each_file_it_finds(fixtures_dir, tmp_path):
    shutil.copy(fixtures_dir / "corpora" / "es_fix.conllu", tmp_path / "tr_pud-ud-test.conllu")
    ok, note = _official_ud_check(tmp_path)
    assert not ok
    assert "tr_pud: got full=" in note and "cs_pud: no file found" in note


def test_criterion_7_pinned_corpus_statistics(fixtures_dir, es_corpus, en_corpus, eu_corpus):
    pinned = {}
    for line in (fixtures_dir / "pinned_stats.tsv").read_text("utf-8").splitlines():
        if line.startswith("#"):
            continue
        name, sentences, tokens = line.split("\t")
        pinned[name] = (int(tokens), int(sentences))

    observed = {
        "es_fix": corpus_stats(es_corpus),
        "en_fix": corpus_stats(en_corpus),
        "eu_fix": corpus_stats(eu_corpus),
    }
    train, dev, test = make_splits(es_corpus, SplitSpec(40, 15, 25))
    observed["es_fix-train"] = corpus_stats(train)
    observed["es_fix-dev"] = corpus_stats(dev)
    observed["es_fix-test"] = corpus_stats(test)
    snapshot_ok = observed == pinned

    ud_dir = os.environ.get("LEMMABENCH_UD_DIR")
    official_ok, official_note = True, "official UD check skipped: LEMMABENCH_UD_DIR not set"
    if ud_dir:
        official_ok, official_note = _official_ud_check(Path(ud_dir))

    _verdict(
        "pinned corpus statistics reproduced exactly",
        snapshot_ok and official_ok,
        f"snapshots {'ok' if snapshot_ok else observed}; {official_note}",
    )


class _CountingForbiddenTransport:
    def __init__(self):
        self.calls = 0

    def __call__(self, config, prompt):
        self.calls += 1
        raise AssertionError("acceptance replay attempted a network call")


def _run_replay_pipeline(config_path, out_dir):
    transport = _CountingForbiddenTransport()
    cfg = load_config(config_path, out_dir=out_dir)
    run_ingest(cfg)
    run_split(cfg)
    run_induce(cfg)
    run_train_baseline(cfg)
    run_predictions(cfg, transport=transport)
    run_score(cfg)
    run_compare(cfg)
    run_report(cfg)
    return cfg, transport.calls


def test_criterion_8_replay_reproducibility(fixtures_dir, tmp_path):
    config_path = fixtures_dir / "replay" / "config.json"
    start = time.perf_counter()
    first_cfg, first_calls = _run_replay_pipeline(config_path, tmp_path / "first")
    second_cfg, second_calls = _run_replay_pipeline(config_path, tmp_path / "second")
    elapsed = time.perf_counter() - start

    reports = ["scores.tsv", "mcnemar.tsv", "report.txt"]
    identical = all(
        (Path(first_cfg.out_dir) / "reports" / name).read_bytes()
        == (Path(second_cfg.out_dir) / "reports" / name).read_bytes()
        for name in reports
    )
    frozen = all(
        (Path(first_cfg.out_dir) / "reports" / name).read_bytes()
        == (fixtures_dir / "replay" / "expected" / name).read_bytes()
        for name in reports
    )
    _verdict(
        "replay experiment bit-identical, zero network calls, < 60 s",
        first_calls == 0 and second_calls == 0 and identical and frozen and elapsed < 60.0,
        f"network calls {first_calls + second_calls}, reruns identical {identical}, "
        f"matches frozen reports {frozen}, {elapsed:.1f} s",
    )


def test_criterion_9_baseline_sanity(es_corpus, en_corpus, eu_corpus):
    notes = []
    ok = True
    splits = {"es_fix": (40, 15, 25), "en_fix": (15, 7, 8), "eu_fix": (20, 10, 10)}
    for corpus in (es_corpus, en_corpus, eu_corpus):
        train_part, dev, _ = make_splits(corpus, SplitSpec(*splits[corpus.name]))
        pairs = pair_scripts(train_part.sentences)
        model = train(pairs, build_inventory(pairs))
        length_ok = True
        baseline_slots, identity_slots = {}, {}
        for sent in dev.sentences:
            predicted = predict(model, sent)
            length_ok &= len(predicted) == len(sent.wordforms)
            baseline_slots[sent.id] = predicted
            identity_slots[sent.id] = predict_identity(sent)
        base_acc = score_run(baseline_slots, dev).word_accuracy
        ident_acc = score_run(identity_slots, dev).word_accuracy
        ok &= length_ok and base_acc >= ident_acc
        notes.append(
            f"{corpus.name}: baseline {base_acc:.4f} vs identity {ident_acc:.4f}, "
            f"lengths {'ok' if length_ok else 'BROKEN'}"
        )
    _verdict(
        "baseline dev accuracy ≥ identity; output length always equals input",
        ok,
        "; ".join(notes),
    )
