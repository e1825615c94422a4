"""Independent oracles shared by the unit and acceptance suites.

Each is deliberately written with plain loops and exact arithmetic —
no code under test is reused beyond the EditScript value type and the
alignment's word-pair score (itself checked against a textbook
Levenshtein DP) — so agreement is real evidence.  The exception is
oracle_report_text: it is the earlier `report` stage, which re-scored
every prediction file, kept as a differential oracle for the stage that
now reads only the tallies `score` and `compare` wrote; likewise
oracle_parse_output is the parser before it skipped per-field calls.
"""

import math
import random
import re
import unicodedata
from fractions import Fraction

from hypothesis import strategies as st

from lemmabench import evaluation as eval_mod
from lemmabench.align import ParsedOutput, _pair_score, read_diagnostics, read_predictions
from lemmabench.editscript import LOWER_FIRST, PRESERVE, UPPER_FIRST, EditScript
from lemmabench.experiment import Layout, _load_split, _meta, blocks_to_slots

from conftest import corpus, sentence


def _oracle_recase(flag, word):
    if flag == LOWER_FIRST:
        return word[0].lower() + word[1:]
    if flag == UPPER_FIRST:
        return word[0].upper() + word[1:]
    return word


def oracle_min_edit_size(word: str, lemma: str) -> int:
    """Cheapest (case flag, prefix cut, suffix cut, lemma position) split,
    found by trying every one of them with plain string ops."""
    best = None
    for flag in (PRESERVE, LOWER_FIRST, UPPER_FIRST):
        w = _oracle_recase(flag, word)
        for p in range(len(w) + 1):
            for s in range(len(w) - p + 1):
                core = w[p : len(w) - s]
                if core == "":
                    cost = p + s + len(lemma)
                    best = cost if best is None else min(best, cost)
                    continue
                pos = lemma.find(core)
                while pos != -1:
                    cost = p + s + pos + (len(lemma) - pos - len(core))
                    best = cost if best is None else min(best, cost)
                    pos = lemma.find(core, pos + 1)
    return best


def oracle_induce(word: str, lemma: str) -> EditScript:
    """The three-flag minimum-edit search with induce's tie-break key, by
    brute force: every case flag (none skipped), prefix cut, suffix cut and
    placement of the kept core in the lemma."""
    best_key = None
    for flag_rank, flag in enumerate((PRESERVE, LOWER_FIRST, UPPER_FIRST)):
        w = _oracle_recase(flag, word)
        for p in range(len(w) + 1):
            for s in range(len(w) - p + 1):
                core = w[p : len(w) - s]
                for pos in range(len(lemma) - len(core) + 1):
                    if lemma[pos : pos + len(core)] != core:
                        continue
                    prefix_add, suffix_add = lemma[:pos], lemma[pos + len(core) :]
                    key = (
                        p + len(prefix_add) + s + len(suffix_add),
                        flag_rank,
                        p + len(prefix_add),
                        len(prefix_add) + len(suffix_add),
                        (p, prefix_add, s, suffix_add),
                    )
                    if best_key is None or key < best_key:
                        best_key, best = key, EditScript(flag, p, prefix_add, s, suffix_add)
    return best


def _oracle_token_scripts(c):
    """One (wordform, script) per training token, inducing every token anew."""
    out = []
    for sent in c.sentences:
        for token in sent.tokens:
            out.append((token.wordform, oracle_induce(token.wordform, token.lemma)))
    return out


def oracle_inventory_items(c):
    """(id, script, frequency) rows: token counts, ids by frequency then encoding."""
    freq = {}
    for _, script in _oracle_token_scripts(c):
        freq[script] = freq.get(script, 0) + 1
    ordered = sorted(freq, key=lambda script: (-freq[script], script.encode()))
    return [(i, script, freq[script]) for i, script in enumerate(ordered)]


def oracle_train_tables(c, max_suffix_len):
    """(form table, suffix table): per case-folded form and per suffix, the
    script seen on most tokens, ties to the lower inventory id."""
    ids = {script: i for i, script, _ in oracle_inventory_items(c)}
    form_counts, suffix_counts = {}, {}
    for wordform, script in _oracle_token_scripts(c):
        key = wordform.casefold()
        keys = [(form_counts, key)]
        for length in range(1, min(max_suffix_len, len(key)) + 1):
            keys.append((suffix_counts, key[-length:]))
        for table, k in keys:
            table.setdefault(k, {})
            table[k][script] = table[k].get(script, 0) + 1

    def majority(counts):
        return min(counts, key=lambda script: (-counts[script], ids[script]))

    return (
        {k: majority(v) for k, v in form_counts.items()},
        {k: majority(v) for k, v in suffix_counts.items()},
    )


# Letters whose case mapping is awkward (ß upper-cases to SS, İ lower-cases to
# two code points), uncased first characters (digits, punctuation) and plain
# Spanish-like letters.
_GOLD_CHARS = st.sampled_from(list("aesonrlmíñßİIE1,."))


_RECASINGS = (str, str.upper, str.lower, lambda w: w[:1].upper() + w[1:], lambda w: w[:1].lower() + w[1:])


@st.composite
def related_pairs(draw):
    """(wordform, lemma) sharing a stem, each side recased on its own."""
    stem = draw(st.text(_GOLD_CHARS, min_size=1, max_size=6))
    suffix = draw(st.sampled_from(["", "s", "es", "ß", "1"]))
    form_case, lemma_case = draw(st.sampled_from(_RECASINGS)), draw(st.sampled_from(_RECASINGS))
    return form_case(stem + suffix), lemma_case(stem)


@st.composite
def gold_corpora(draw):
    """Small annotated corpora with repeated pairs, capitalised sentence
    starts and all-caps words."""
    pool = draw(st.lists(related_pairs(), min_size=1, max_size=6))
    sentences = []
    for n in range(draw(st.integers(1, 5))):
        pairs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
        if draw(st.booleans()):
            form, lemma = pairs[0]
            pairs[0] = (form[:1].upper() + form[1:], lemma)
        sentences.append(sentence(f"g-{n:04d}", *pairs))
    return corpus("gold", *sentences)


def oracle_levenshtein(a: str, b: str) -> int:
    """Textbook edit distance: insertions, deletions and substitutions cost 1."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


_ORACLE_SEPARATOR = re.compile(r"\t+| {2,}")
_ORACLE_QUOTE_PAIRS = {('"', '"'), ("'", "'"), ("`", "`"), ("“", "”"), ("‘", "’")}


def _oracle_strip_quotes(field: str) -> str:
    while len(field) >= 2 and (field[0], field[-1]) in _ORACLE_QUOTE_PAIRS:
        field = field[1:-1]
    return field


def oracle_parse_output(raw_text: str) -> ParsedOutput:
    """The parser as it was before it skipped per-field calls: it strips
    quotes from and NFC-normalises every field through a function call."""
    pairs: list[tuple[str, str]] = []
    rejects: list[str] = []
    for line in raw_text.splitlines():
        line = line.strip()
        if not line:
            continue
        fields = [_oracle_strip_quotes(f.strip()) for f in _ORACLE_SEPARATOR.split(line)]
        fields = [f for f in fields if f]
        if len(fields) == 2:
            pairs.append((_oracle_nfc(fields[0]), _oracle_nfc(fields[1])))
        else:
            rejects.append(line)
    return ParsedOutput(pairs=tuple(pairs), rejects=tuple(rejects))


def _oracle_nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


_GAP = -1


def oracle_align_sequences(out_words, in_words):
    """The full n*m alignment DP: it fills every cell, calling the pair
    score in each, and align_sequences must return the same pairs."""
    n, m = len(out_words), len(in_words)
    neg = float("-inf")
    score = [[0.0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        score[i][0] = i * _GAP
    for j in range(1, m + 1):
        score[0][j] = j * _GAP
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            s = _pair_score(out_words[i - 1], in_words[j - 1])
            diag = score[i - 1][j - 1] + s if s is not None else neg
            score[i][j] = max(diag, score[i - 1][j] + _GAP, score[i][j - 1] + _GAP)

    matched = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and score[i][j] == score[i - 1][j] + _GAP:
            i -= 1  # output row left unmatched
            continue
        if i > 0 and j > 0:
            s = _pair_score(out_words[i - 1], in_words[j - 1])
            if s is not None and score[i][j] == score[i - 1][j - 1] + s:
                matched.append((i - 1, j - 1))
                i, j = i - 1, j - 1
                continue
        j -= 1  # input token left unmatched
    matched.reverse()
    return matched


def exact_mcnemar_p(b01: int, b10: int) -> float:
    """Two-sided exact binomial (sign test, p = 1/2) via rationals."""
    n = b01 + b10
    if n == 0:
        return 1.0
    k = min(b01, b10)
    tail = Fraction(sum(math.comb(n, i) for i in range(k + 1)), 2**n)
    return float(min(Fraction(1), 2 * tail))


def random_eval_case(rng: random.Random, n_sentences=None):
    """Random gold corpus plus predictions with holes and mistakes."""
    n_sentences = n_sentences or rng.randint(1, 6)
    sentences = []
    predictions = {}
    for s in range(n_sentences):
        n_tokens = rng.randint(1, 8)
        pairs = [(f"w{s}_{t}", f"l{s}_{t}") for t in range(n_tokens)]
        sentences.append(sentence(f"r-{s:04d}", *pairs))
        slots = []
        for _, gold_lemma in pairs:
            roll = rng.random()
            if roll < 0.2:
                slots.append(None)
            elif roll < 0.45:
                slots.append(gold_lemma + "!")
            else:
                slots.append(gold_lemma)
        predictions[f"r-{s:04d}"] = slots
    return corpus("rand", *sentences), predictions


def _oracle_evaluate(cfg, test, score_runs, mcnemar_run):
    """Each system's scores on score_runs and its McNemar correctness vector
    on mcnemar_run (None for none).  Each prediction file is read once, and
    only what is derived from it is kept."""
    layout = Layout(cfg)
    runs = sorted({*score_runs, *([] if mcnemar_run is None else [mcnemar_run])})
    scores = {}
    vectors = {}
    for system in cfg.systems:
        scores[system.name] = []
        for run in runs:
            _, blocks = read_predictions(layout.predictions(system.name, test.name, run))
            slots = blocks_to_slots(blocks, test)
            if run in score_runs:
                diag_path = layout.diagnostics(system.name, test.name, run)
                diag = read_diagnostics(diag_path)[1] if diag_path.exists() else {}
                scores[system.name].append(eval_mod.score_run(slots, test, cfg.policy, diag))
            if run == mcnemar_run:
                vectors[system.name] = eval_mod.correctness_vector(slots, test)
    return scores, vectors


def oracle_report_text(cfg):
    """report.txt as the earlier `report` stage rendered it: by scoring every
    run again from the prediction files and the test split.  (That stage also
    rewrote scores.tsv and mcnemar.tsv; this oracle writes nothing.)"""
    test = _load_split(cfg, "test")
    mcnemar_run = cfg.mcnemar_run if cfg.comparisons else None
    scores, vectors = _oracle_evaluate(cfg, test, range(cfg.runs), mcnemar_run)
    reports = [
        eval_mod.EvalReport(system.name, test.name, tuple(scores[system.name]))
        for system in cfg.systems
    ]
    rows = [
        (test.name, a, b, eval_mod.mcnemar(vectors[a], vectors[b]))
        for a, b in cfg.comparisons
    ]
    meta = _meta(cfg, corpus=cfg.corpus_name, language=cfg.language, policy=cfg.policy)
    return eval_mod.render_report_text(reports, rows, meta, cfg.alpha)


def oracle_run_score(correct, total, correct_sentences, sentences, missing, wrong, random):
    """A RunScore whose accuracies are the exact ratios of its tallies, each
    rounded once to the nearest float."""
    return eval_mod.RunScore(
        float(Fraction(correct, total)) if total else 0.0,
        float(Fraction(correct_sentences, sentences)) if sentences else 0.0,
        correct, total, correct_sentences, sentences, missing, wrong, random,
    )


def oracle_mcnemar(b01, b10, agree=3):
    """McNemar's test run on correctness vectors with b01 and b10 discordant
    words, plus `agree` words both systems got right."""
    first = [False] * b01 + [True] * b10 + [True] * agree
    second = [True] * b01 + [False] * b10 + [True] * agree
    return eval_mod.mcnemar(first, second)
