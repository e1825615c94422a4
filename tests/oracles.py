"""Independent oracles shared by the unit and acceptance suites.

Each is deliberately written with plain loops and exact arithmetic —
no code under test is reused beyond the EditScript value type and the
alignment's word-pair score (itself checked against a textbook
Levenshtein DP) — so agreement is real evidence.  The exception is
oracle_report_text: it is the earlier `report` stage, which re-scored
every prediction file, kept as a differential oracle for the stage that
now reads only the tallies `score` and `compare` wrote; likewise
oracle_parse_output is the parser before it skipped per-field calls and
took clean rows without the separator split,
oracle_request_fingerprint is the fingerprint as it was before a batch
hashed each prompt's JSON prefix once, oracle_render_prompt is the
renderer before it rendered each system's few-shot head once,
oracle_common_cores is induce's O(n*m) dynamic-programming scan of every
character pair from before it searched substrings with str.find,
oracle_induce_from_cores is induce over every hit of that scan and every
recasing, as it was before _common_cores kept one place per shared
substring and before induce returned prefix pairs at once and skipped
recasings that cannot win,
oracle_pair_scripts is pair_scripts before it counted each sentence's
columns with Counter.update (it induces with oracle_induce), oracle_train
is baseline.train as it was before it tallied label ids in plain dicts,
counting EditScripts in Counters, and the oracle_read_* / oracle_ingest_*
functions are the TSV artifact readers as they were before
lemmabench.artifact, each with its own loop; the corpus ones read a line
at a time into Sentences and refuse a repeated sentence id as the reader
does now, as oracle_read_model refuses a repeated (table, key)
row as read_model does now; oracle_load_config is load_config with its
per-type helpers as they were before one _SCHEMA table and one walker
checked every key; _read_blocks, with _read_canonical, _pieces and the line loop
_read_corpus, is the sentence-block reader as it was before it read each
file once and sent only a refused block line by line; and
oracle_read_prediction_blocks and oracle_blocks_to_slots are the
prediction read path before its rows followed the corpus TSV rule and
anonymous blocks went through the loop that checks named ones;
oracle_complete and oracle_run_batch are the gateway's batch as it was
before its worker threads left the cache appends to the calling thread
and replay ran without a pool; and oracle_score_run is score_run as it
was before it counted each sentence's slots in place of building a
True/False/None outcome per token, and before it required diagnostics
to cover every gold sentence; oracle_run_ingest, oracle_run_split and
oracle_run_induce are those stages as they were before they read their
input a block at a time: each holds its whole input as Sentences and
writes block files a row per token, as corpus._write_blocks did before it
wrote each block's rows as one text, and ingest caps the corpus by
reduce_corpus's own rule from before it shared its index rule.
"""

import dataclasses
import hashlib
import itertools
import json
import math
import random
import re
import time
import unicodedata
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

from lemmabench import artifact
from lemmabench import corpus as corpus_mod
from lemmabench import editscript as editscript_mod
from lemmabench import evaluation as eval_mod
from lemmabench import gateway as gateway_mod
from lemmabench import prompt as prompt_mod
from lemmabench.align import (
    ParsedOutput,
    _pair_score,
    read_diagnostics,
    read_predictions,
)
from lemmabench.baseline import DEFAULT_MAX_SUFFIX, BaselineModel
from lemmabench.corpus import Corpus, _conllu_block, _tsv_block
from lemmabench.editscript import (
    LOWER_FIRST,
    PRESERVE,
    UPPER_FIRST,
    EditScript,
    LabelInventory,
    PairScript,
)
from lemmabench.errors import (
    CacheMissError,
    ConfigError,
    EmptyCorpusError,
    FileFormatError,
    PromptError,
    ScoringError,
    TransportError,
)
from lemmabench.experiment import (
    BASELINE,
    CONLLU,
    EXTERNAL,
    LLM,
    TSV,
    ExperimentConfig,
    SystemSpec,
    _load_split,
    _meta,
    blocks_to_slots,
)

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


def oracle_common_cores(word: str, lemma: str) -> list[tuple[int, int, int]]:
    """All (word_start, lemma_start, length) with maximal shared-substring length.

    length runs over contiguous substrings common to both strings; only the
    longest matter because edit size is len(word)+len(lemma)-2*length.
    """
    n, m = len(word), len(lemma)
    best = 0
    hits: list[tuple[int, int, int]] = []
    # run[j] = length of common suffix of word[:i] and lemma[:j]
    run = [0] * (m + 1)
    for i in range(1, n + 1):
        prev_diag = 0
        for j in range(1, m + 1):
            current = run[j]
            if word[i - 1] == lemma[j - 1]:
                run[j] = prev_diag + 1
                if run[j] > best:
                    best = run[j]
                    hits = [(i - run[j], j - run[j], run[j])]
                elif run[j] == best and best > 0:
                    hits.append((i - run[j], j - run[j], run[j]))
            else:
                run[j] = 0
            prev_diag = current
    return hits if best > 0 else [(0, 0, 0)]


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


def oracle_induce_from_cores(word: str, lemma: str) -> EditScript:
    """induce's tie-break key minimised over every hit oracle_common_cores
    finds, overlapping ones included, for each of the three case flags:
    induce as it was while _common_cores returned every hit.  It scales as
    n*m, so it reaches the long pairs that oracle_induce cannot."""
    candidates = []
    for flag_rank, flag in enumerate((PRESERVE, LOWER_FIRST, UPPER_FIRST)):
        w = _oracle_recase(flag, word)
        for start, at, length in oracle_common_cores(w, lemma):
            prefix_add, suffix_add = lemma[:at], lemma[at + length :]
            operations = (start, prefix_add, len(w) - start - length, suffix_add)
            size = start + len(prefix_add) + operations[2] + len(suffix_add)
            key = (size, flag_rank, start + at, len(prefix_add) + len(suffix_add), operations)
            candidates.append((key, flag))
    key, flag = min(candidates)
    return EditScript(flag, *key[-1])


def _oracle_token_scripts(c):
    """One (wordform, script) per training token, inducing every token anew."""
    out = []
    for sent in c.sentences:
        for form, lemma in zip(sent.wordforms, sent.lemmas):
            out.append((form, oracle_induce(form, lemma)))
    return out


def oracle_pair_scripts(c):
    """pair_scripts as it was before it counted each sentence's columns with
    Counter.update: one Counter over every sentence's gold_pairs(), each
    distinct pair induced by oracle_induce."""
    pairs = Counter(pair for sentence in c.sentences for pair in sentence.gold_pairs())
    return [(form, oracle_induce(form, lemma), count) for (form, lemma), count in pairs.items()]


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


def oracle_train(
    pairs: list[PairScript], inventory: LabelInventory, max_suffix_len: int = DEFAULT_MAX_SUFFIX
) -> BaselineModel:
    """baseline.train over EditScripts counted in Counters."""
    if not pairs:
        raise EmptyCorpusError("cannot train on an empty training set")

    form_counts: dict[str, Counter[EditScript]] = defaultdict(Counter)
    suffix_counts: dict[str, Counter[EditScript]] = defaultdict(Counter)
    for wordform, script, count in pairs:
        key = wordform.casefold()
        form_counts[key][script] += count
        for length in range(1, min(max_suffix_len, len(key)) + 1):
            suffix_counts[key[-length:]][script] += count

    def majority(counter: Counter[EditScript]) -> EditScript:
        # highest count wins; ties go to the lower (more frequent) label id
        return min(counter.items(), key=lambda item: (-item[1], inventory.id_of(item[0])))[0]

    return BaselineModel(
        form_table={form: majority(counts) for form, counts in form_counts.items()},
        suffix_table={suffix: majority(counts) for suffix, counts in suffix_counts.items()},
        max_suffix_len=max_suffix_len,
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


def oracle_request_fingerprint(config, prompt: str, run_index: int) -> str:
    """The sha256 of the whole request JSON, encoded in one piece."""
    payload = {
        "model": config.model,
        "prompt": prompt,
        "run": run_index,
        "sampling": config.sampling(),
    }
    blob = json.dumps(payload, ensure_ascii=False, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def oracle_render_prompt(spec, examples, target) -> str:
    """The renderer that built every line of every prompt, examples too."""
    if len(examples) != spec.shots:
        raise PromptError(f"spec asks for {spec.shots} examples, got {len(examples)}")
    lines = [prompt_mod._TASK_HEADER.format(language_name=spec.language_name)]
    if spec.template == prompt_mod.FULL:
        lines.extend(prompt_mod._INSTRUCTIONS.splitlines())
    for i, example in enumerate(examples):
        if i == 0:
            lines[-1] = f"{lines[-1]} {prompt_mod._EXAMPLE_INTRO}"
        else:
            lines.append(prompt_mod._EXAMPLE_INTRO)
        lines.extend(w for w, _ in example.gold_pairs())
        lines.append(prompt_mod._EXAMPLE_OUTPUT_INTRO)
        lines.extend(f"{w}\t{l}" for w, l in example.gold_pairs())
    lines.extend(prompt_mod._OUTPUT_FORMAT.splitlines())
    words = target.wordforms
    if spec.input_mode == prompt_mod.SENTENCE_STRING:
        block = f'Sentence: "{" ".join(words)}"'
    else:
        quoted = ("'" + re.sub(r"([\\'])", r"\\\1", w) + "'" for w in words)  # \ and ' escaped
        block = "Sentence:\n[" + ", ".join(quoted) + "]"
    lines.extend(block.splitlines())
    lines.append(prompt_mod._CLOSING)
    return "\n".join(lines)


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
    runs = sorted({*score_runs, *([] if mcnemar_run is None else [mcnemar_run])})
    scores = {}
    vectors = {}
    for system in cfg.systems:
        scores[system.name] = []
        for run in runs:
            keys = {"system": system.name, "split": test.name, "run": run}
            _, blocks = read_predictions(cfg.path("predictions", **keys))
            slots = blocks_to_slots(blocks, test)
            if run in score_runs:
                diag_path = cfg.path("diagnostics", system=system.name, split=test.name, run=run)
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


def oracle_accuracies(correct, total, correct_sentences, sentences, missing, wrong, random):
    """Word and sentence accuracy as the exact ratios of a run's tallies,
    each rounded once to the nearest float."""
    return (
        float(Fraction(correct, total)) if total else 0.0,
        float(Fraction(correct_sentences, sentences)) if sentences else 0.0,
    )


def _oracle_token_outcomes(predictions, gold: Corpus) -> list[list[bool | None]]:
    """Per gold sentence, one entry per token: True/False, None = missing."""
    outcomes: list[list[bool | None]] = []
    for sentence in gold.sentences:
        if sentence.id not in predictions:
            raise ScoringError(f"no prediction for sentence {sentence.id}")
        slots = predictions[sentence.id]
        if len(slots) != len(sentence):
            raise ScoringError(
                f"{sentence.id}: {len(slots)} lemma slots for {len(sentence)} tokens"
            )
        sentence.require_lemmas()
        outcomes.append([None if p is None else p == g for p, g in zip(slots, sentence.lemmas)])
    return outcomes


def oracle_score_run(predictions, gold: Corpus, policy=eval_mod.STRICT, diagnostics=None):
    """(word accuracy, sentence accuracy, correct, total, correct sentences,
    sentences, missing, wrong, random) of one run, scored by per-token
    outcome lists."""
    if policy not in eval_mod.POLICIES:
        raise ScoringError(f"unknown missing-word policy {policy!r}")
    by_sentence = _oracle_token_outcomes(predictions, gold)
    outcomes = [o for row in by_sentence for o in row]
    scored = [o for o in outcomes if o is not None] if policy == eval_mod.RENORMALIZE else outcomes
    correct = sum(o is True for o in scored)
    total = len(scored)
    correct_sentences = sum(all(o is True for o in row) for row in by_sentence)
    wrong = rand = 0
    gold_ids = {sentence.id for sentence in gold.sentences}
    for sentence_id, counts in (diagnostics or {}).items():
        if sentence_id not in gold_ids:
            raise ScoringError(f"diagnostics have an entry for {sentence_id}, no gold sentence")
        wrong, rand = wrong + counts.get("wrong", 0), rand + counts.get("random", 0)
    missing = sum(o is None for o in outcomes)
    sentences = len(gold.sentences)
    return (
        correct / total if total else 0.0,
        correct_sentences / sentences if sentences else 0.0,
        correct, total, correct_sentences, sentences, missing, wrong, rand,
    )


def oracle_mcnemar(b01, b10, agree=3):
    """McNemar's test run on correctness vectors with b01 and b10 discordant
    words, plus `agree` words both systems got right."""
    first = [False] * b01 + [True] * b10 + [True] * agree
    second = [True] * b01 + [False] * b10 + [True] * agree
    return eval_mod.mcnemar(first, second)


# --- the TSV artifact readers before lemmabench.artifact ------------------------


def _nfc(text):
    return unicodedata.normalize("NFC", text)


def oracle_read_predictions(path):
    metadata: dict[str, str] = {}
    blocks: list[corpus_mod.Block] = []
    current_id: str | None = None
    current_pairs: list[tuple[str, str | None]] = []
    seen_block = False

    def flush():
        nonlocal current_id, current_pairs, seen_block
        if seen_block and (current_pairs or current_id is not None):
            forms, lemmas = zip(*current_pairs) if current_pairs else ((), ())
            blocks.append((current_id, forms, lemmas))
        current_id, current_pairs, seen_block = None, [], False

    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                flush()
                continue
            if line.startswith("#") and "\t" not in line:  # "#nlp<TAB>nlp" is a row
                body = line[1:].strip()
                if "=" in body:
                    key, value = body.split("=", 1)
                    key, value = key.strip(), value.strip()
                    if key == "sent_id":
                        flush()
                        current_id = value
                        seen_block = True
                    else:
                        metadata[key] = value
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ScoringError(
                    f"{path}:{line_no}: prediction row has {len(fields)} tab-separated "
                    "fields, expected wordform<TAB>lemma"
                )
            wordform = _nfc(fields[0])
            lemma = _nfc(fields[1]) if fields[1] != "" else None
            current_pairs.append((wordform, lemma))
            seen_block = True
    flush()
    return metadata, blocks


def _oracle_read_corpus(path, name, parse_row, tsv):
    """The corpus reader as one plain line loop: a Corpus of Sentences."""
    path = Path(path)
    corpus_name = name or path.stem
    sentences: list[corpus_mod.Sentence] = []
    forms: list[str] = []
    lemmas: list[str | None] = []
    pending_id: str | None = None  # explicit id from a "# sent_id = ..." comment

    def close_sentence():
        nonlocal pending_id
        if forms:
            if pending_id is None:
                pending_id = f"{corpus_name}-{len(sentences):04d}"
            if any(s.id == pending_id for s in sentences):
                raise FileFormatError(path, None, f"sentence id {pending_id!r} repeats")
            sentences.append(corpus_mod.Sentence(pending_id, tuple(forms), tuple(lemmas)))
            forms.clear()
            lemmas.clear()
            pending_id = None

    with open(path, encoding="utf-8-sig") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip():
                close_sentence()
                continue
            if line.startswith("#") and not (tsv and "\t" in line):
                body = line[1:].strip()
                if tsv and body.startswith("sent_id") and "=" in body:
                    close_sentence()
                    pending_id = body.split("=", 1)[1].strip()
                continue
            row = parse_row(line.split("\t"), path, line_no)
            if row is None:
                continue
            form, lemma = row
            forms.append(_nfc(form))
            lemmas.append(None if lemma is None else _nfc(lemma))
    close_sentence()
    if not sentences:
        raise EmptyCorpusError(f"{path}: no sentences found")
    return Corpus(name=corpus_name, sentences=tuple(sentences))


def _oracle_tsv_row(fields, path, line_no):
    if len(fields) != 2:
        raise FileFormatError(
            path, line_no, f"expected 2 tab-separated fields, found {len(fields)}"
        )
    if not fields[0]:
        raise FileFormatError(path, line_no, "empty wordform field")
    return fields[0], fields[1] or None


def oracle_ingest_tsv(path, name=None):
    return _oracle_read_corpus(path, name, _oracle_tsv_row, tsv=True)


def _oracle_conllu_row(fields, path, line_no):
    if len(fields) != 10:
        raise FileFormatError(path, line_no, f"expected 10 columns, found {len(fields)}")
    if re.fullmatch(r"\d+[-.]\d+", fields[0]):  # a multiword range or an empty node
        return None
    if not re.fullmatch(r"\d+", fields[0]):
        raise FileFormatError(path, line_no, f"unrecognized token ID {fields[0]!r}")
    if not fields[1]:
        raise FileFormatError(path, line_no, "empty FORM column")
    return fields[1], None if fields[2] == "_" else fields[2]


def oracle_ingest_conllu(path, name=None):
    return _oracle_read_corpus(path, name, _oracle_conllu_row, tsv=False)


# --- the sentence-block readers before one reader read each block in bulk ---------
# corpus._read_blocks as it was before it read each file once: _read_canonical
# read every block of a file in bulk or refused the whole file, and then the
# line loop _read_corpus read the file again.


def _read_corpus(path: str | Path, parse_row, tsv: bool, meta: dict[str, str]):
    """The sentence-block line loop: the reader of the CoNLL-U and TSV block
    files that _read_canonical refuses, and the one place that names the
    line of a fault.

    Yields each block as it ends, a (sent_id or None, wordforms, lemmas)
    triple of tuples, and puts the other ``# key = value`` headers into
    meta.  parse_row(fields, path, line_no) gives a (form, lemma-or-None)
    row, NFC-normalized here, or None for a line without a token.  A
    ``# sent_id = X`` header starts a block named X, which may end without
    rows; a blank line ends a block that has rows.  In CoNLL-U every ``#``
    line is a comment.
    """
    block_id, forms, lemmas = None, [], []
    normalize = unicodedata.normalize
    for line_no, line in artifact.lines(path):
        if not line.strip():
            if forms:
                yield block_id, tuple(forms), tuple(lemmas)
                block_id, forms, lemmas = None, [], []
        elif line.startswith("#") and (not tsv or artifact.is_header(line)):
            key, value = (artifact.header(line) if tsv else None) or (None, None)
            if key == "sent_id":
                if forms or block_id is not None:
                    yield block_id, tuple(forms), tuple(lemmas)
                block_id, forms, lemmas = value, [], []
            elif key is not None:
                meta[key] = value
        else:
            row = parse_row(line.split("\t"), path, line_no)
            if row is not None:
                form, lemma = row
                forms.append(normalize("NFC", form))
                lemmas.append(lemma and normalize("NFC", lemma))
    if forms or block_id is not None:
        yield block_id, tuple(forms), tuple(lemmas)


_PIECE = 1 << 16  # characters _read_canonical reads at a time


def _pieces(handle):
    """The text of handle in pieces of about _PIECE characters, each cut at
    its last blank line; the last piece is the rest of the text.  A None
    piece ends them early: more than _PIECE characters after a cut hold no
    blank line, so the file is not made of short blocks."""
    rest = ""
    while chunk := handle.read(_PIECE):
        text = rest + chunk
        cut = text.rfind("\n\n", max(len(rest) - 1, 0))
        if cut >= 0:
            yield text[:cut]
            rest = text[cut:]
        elif len(text) > _PIECE:
            yield None
            return
        else:
            rest = text
    yield rest


def _read_canonical(path: str | Path, tsv: bool, meta: dict[str, str]):
    """The blocks of a sentence-block file as _read_corpus yields them, read
    a piece at a time; None if the file is not UTF-8, a piece is not NFC
    (the line loop normalizes fields), more than _PIECE characters pass
    without a blank line, or the format's block step refuses a block.  meta
    is updated only when every block is accepted."""
    read_block = _tsv_block if tsv else _conllu_block
    blocks, found = [], {}
    block_id = None  # a sent_id whose block has no rows yet
    try:
        with open(path, encoding="utf-8-sig") as handle:
            for piece in _pieces(handle):
                if piece is None or not unicodedata.is_normalized("NFC", piece):
                    return None
                for block in piece.split("\n\n"):
                    if not (block := block.strip("\n")):
                        continue
                    if (read := read_block(block)) is None:
                        return None
                    heads, forms, lemmas = read[:3]  # the bulk steps also give the rows text
                    for line in heads:
                        key, value = artifact.header(line) or (None, None)
                        if key == "sent_id":
                            if block_id is not None:
                                blocks.append((block_id, (), ()))
                            block_id = value
                        elif key is not None:
                            found[key] = value
                    if forms:
                        blocks.append((block_id, forms, lemmas))
                        block_id = None
    except UnicodeDecodeError:
        return None
    if block_id is not None:
        blocks.append((block_id, (), ()))
    meta.update(found)
    return blocks


def _read_blocks(path: str | Path, parse_row, tsv: bool, meta: dict[str, str]):
    """The blocks of a sentence-block file, behind ingest_conllu, ingest_tsv
    and align.read_predictions: read by _read_canonical when it accepts the
    file, else by the line loop _read_corpus."""
    blocks = _read_canonical(path, tsv, meta)
    return _read_corpus(path, parse_row, tsv, meta) if blocks is None else blocks


# --- the prediction read path before it took the corpus TSV row rule -------------
# align.read_predictions read rows with a third row rule, and
# experiment.blocks_to_slots matched anonymous blocks on a branch of their own.


def _prediction_row(fields, path, line_no):
    if len(fields) != 2:
        raise ScoringError(
            f"{path}:{line_no}: prediction row has {len(fields)} tab-separated "
            "fields, expected wordform<TAB>lemma"
        )
    return fields[0], fields[1] or None


def oracle_read_prediction_blocks(path):
    """align.read_predictions with its own row rule: a row that is not
    wordform<TAB>lemma is a ScoringError, and an empty wordform is read."""
    metadata: dict[str, str] = {}
    return metadata, list(_read_blocks(path, _prediction_row, True, metadata))


def oracle_blocks_to_slots(blocks, gold):
    """blocks_to_slots with a branch for named blocks and one for anonymous ones."""
    with_ids = [b for b in blocks if b[0] is not None]
    if with_ids and len(with_ids) != len(blocks):
        raise ScoringError("prediction file mixes sent_id blocks with anonymous blocks")
    if with_ids:
        gold_ids = {sentence.id for sentence in gold.sentences}
        by_id: dict[str, corpus_mod.Block] = {}
        for block in blocks:
            block_id = block[0]
            if block_id in by_id:
                raise ScoringError(f"prediction file repeats sent_id {block_id}")
            if block_id not in gold_ids:
                raise ScoringError(f"prediction file has a block for {block_id}, no gold sentence")
            by_id[block_id] = block
    elif len(blocks) != len(gold.sentences):
        raise ScoringError(
            f"{len(blocks)} anonymous prediction blocks for {len(gold.sentences)} sentences"
        )
    else:
        by_id = {s.id: b for s, b in zip(gold.sentences, blocks)}
    for sentence in gold.sentences:
        block = by_id.get(sentence.id)
        if block is None:
            raise ScoringError(f"prediction file has no block for {sentence.id}")
        if block[1] != sentence.wordforms:
            raise ScoringError(
                f"prediction block for {sentence.id} does not repeat its gold wordforms"
            )
    return {sentence_id: lemmas for sentence_id, (_, _, lemmas) in by_id.items()}


def oracle_read_inventory(path):
    frequencies: dict[EditScript, int] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            try:
                _, encoded, freq = line.split("\t")
                frequencies[EditScript.decode(encoded)] = int(freq)
            except (ValueError, TypeError) as exc:
                raise FileFormatError(
                    path, line_no, f"expected id<TAB>script<TAB>frequency: {exc}"
                ) from exc
    return LabelInventory(frequencies)


def _oracle_natural(field):
    return int(field) if field.isascii() and field.isdigit() else None


def oracle_read_pair_labels(path, inventory):
    pairs: list[PairScript] = []
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line or (line.startswith("#") and "\t" not in line):
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise FileFormatError(
                    path, line_no, f"expected wordform, label id, count; found {len(fields)} fields"
                )
            wordform, label_field, count_field = fields
            label_id, count = _oracle_natural(label_field), _oracle_natural(count_field)
            if label_id is None or label_id >= len(inventory):
                raise FileFormatError(
                    path, line_no, f"label id {label_field!r} is not one of {len(inventory)} labels"
                )
            if not count:
                raise FileFormatError(
                    path, line_no, f"count {count_field!r} is not a positive integer"
                )
            pairs.append((wordform, inventory.script_of(label_id), count))
    counts: Counter[EditScript] = Counter()
    for _, script, count in pairs:
        counts[script] += count
    for label_id, script, frequency in inventory.items():
        if counts[script] != frequency:
            raise FileFormatError(
                path, None, f"label {label_id} covers {counts[script]} tokens here but "
                f"{frequency} in the inventory: the pairs file is from another induce run"
            )
    return pairs


def oracle_read_model(path):
    model = BaselineModel()
    tables = {"form": model.form_table, "suffix": model.suffix_table}
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if line.startswith("# max_suffix_len = "):
                value = line.rsplit(" ", 1)[1]
                if not (value.isascii() and value.isdigit()):
                    raise FileFormatError(path, line_no, f"max_suffix_len {value!r} is not an integer")
                model.max_suffix_len = int(value)
                continue
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3 or fields[0] not in tables:
                raise FileFormatError(path, line_no, "expected form|suffix<TAB>key<TAB>script")
            table_name, key, encoded = fields
            try:
                script = EditScript.decode(encoded)
            except (ValueError, TypeError) as exc:
                raise FileFormatError(path, line_no, f"script does not decode: {exc}") from exc
            if key in tables[table_name]:
                raise FileFormatError(path, line_no, f"repeats the {table_name} row for {key!r}")
            tables[table_name][key] = script
    return model


def oracle_read_counts(path, columns, width=None):
    lines = Path(path).read_text("utf-8").splitlines()
    meta: dict[str, str] = {}
    n = 0  # header lines
    while n < len(lines) and lines[n].startswith("#") and "\t" not in lines[n]:
        key, _, value = lines[n][2:].partition(" = ")
        meta[key] = value
        n += 1
    if lines[n : n + 1] != [columns]:
        raise FileFormatError(path, n + 1, f"expected the column line {columns!r}")
    rows = {}
    for line_no, line in enumerate(lines[n + 1 :], start=n + 2):
        parts = line.split("\t")
        counts = parts[3:] if width is None else parts[3 : 3 + width]
        if len(parts) != columns.count("\t") + 1:
            raise FileFormatError(path, line_no, f"expected the fields {columns!r}")
        if not all(c.isascii() and c.isdigit() for c in counts):
            raise FileFormatError(path, line_no, "a count is not a non-negative integer")
        if tuple(parts[:3]) in rows:
            raise FileFormatError(path, line_no, f"repeats the row for {' '.join(parts[:3])}")
        rows[tuple(parts[:3])] = [int(c) for c in counts]
    return meta, rows


# --- load_config before the _SCHEMA table, key by key --------------------------


def _hash_config(raw: dict) -> str:
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def _expect(ok: bool, name: str, what: str, value) -> None:
    if not ok:
        raise ConfigError(f"{name} must be {what}, got {json.dumps(value)}")


def _section(value, name: str, keys: tuple[str, ...] | None = None) -> dict:
    """value when it is a JSON object whose keys are all in keys (any key
    when keys is None)."""
    _expect(isinstance(value, dict), name, "a JSON object", value)
    for key in value:
        if keys is not None and key not in keys:
            raise ConfigError(f"{name}.{key} is not a known key; use one of {', '.join(keys)}")
    return value


def _string(value, name: str) -> str:
    _expect(isinstance(value, str), name, "a string", value)
    return value


def _choice(value, name: str, choices: tuple[str, ...]) -> str:
    _expect(value in choices, name, " or ".join(choices), value)
    return value


def _integer(value, name: str, nullable: bool = False) -> int | None:
    """value when it is a JSON integer (true and false are not), or null
    where that is allowed."""
    _expect(type(value) is int or (value is None and nullable), name, "an integer", value)
    return value


def _number(value, name: str) -> float:
    """value when it is a JSON number, integer or not (true and false are not)."""
    _expect(type(value) in (int, float), name, "a number", value)
    return value


def _build(cls, values, name: str, integers: tuple[str, ...], numbers: tuple[str, ...] = ()):
    """cls(**values), refusing a key that is not one of cls's fields, a
    non-string value of a field whose default is a string, a non-integer
    value of a key in integers (null where the default is None) and a
    non-number value of a key in numbers."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key, value in _section(values, name, tuple(fields)).items():
        if isinstance(fields[key].default, str):
            _string(value, f"{name}.{key}")
        if key in integers:
            _integer(value, f"{name}.{key}", nullable=fields[key].default is None)
        if key in numbers:
            _number(value, f"{name}.{key}")
    return cls(**values)


def _parse_system(entry: dict, base: Path, runs: int, language: str) -> SystemSpec:
    entry = _section(entry, "systems entry")
    try:
        name, kind = _string(entry["name"], "systems entry name"), entry["kind"]
    except KeyError as exc:
        raise ConfigError(f"system entry missing {exc}") from exc
    label = f"system {name}"
    if kind == BASELINE:
        _section(entry, label, ("name", "kind"))
        return SystemSpec(name=name, kind=kind)
    if kind == LLM:
        _section(entry, label, ("name", "kind", "prompt", "manual_ids", "dev_diagnostics"))
        prompt = {"language_name": language, **_section(entry.get("prompt", {}), "prompt")}
        spec = _build(prompt_mod.PromptSpec, prompt, "prompt", integers=("shots", "seed"))
        diag = entry.get("dev_diagnostics")
        diag_ok = diag is None or isinstance(diag, str)
        _expect(diag_ok, f"{label}.dev_diagnostics", "a file path", diag)
        manual_ids = entry.get("manual_ids", [])
        ids_ok = isinstance(manual_ids, list) and all(isinstance(i, str) for i in manual_ids)
        _expect(ids_ok, f"{label}.manual_ids", "a list of sentence ids", manual_ids)
        return SystemSpec(
            name=name,
            kind=kind,
            prompt=spec,
            manual_ids=tuple(manual_ids),
            dev_diagnostics=str(base / diag) if diag else None,
        )
    if kind == EXTERNAL:
        _section(entry, label, ("name", "kind", "predictions"))
        paths = entry.get("predictions")
        if not paths:
            raise ConfigError(f"external system {name} needs a predictions path list")
        if isinstance(paths, str):
            paths = [paths]
        paths_ok = isinstance(paths, list) and all(isinstance(p, str) for p in paths)
        _expect(paths_ok, f"{label}.predictions", "a file path or a list of them", paths)
        if len(paths) not in (1, runs):
            raise ConfigError(f"external system {name}: give 1 or {runs} prediction files")
        return SystemSpec(name=name, kind=kind, predictions=tuple(str(base / p) for p in paths))
    raise ConfigError(f"{label}: unknown kind {kind!r}")


def oracle_load_config(
    path: str | Path, out_dir: str | None = None, cache_mode: str | None = None
) -> ExperimentConfig:
    """Load and validate a JSON experiment config.

    Relative paths are resolved against the config file's directory;
    out_dir and cache_mode accept command-line overrides.
    """
    path = Path(path)
    base = path.parent
    try:
        raw = json.loads(path.read_text("utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    _section(raw, "config", tuple(
        "name language corpus split reduce baseline systems provider runs parallelism"
        " cache_dir cache_mode out_dir scoring comparisons".split()
    ))

    try:
        corpus_raw = _section(raw["corpus"], "corpus", ("path", "format", "name"))
        split_raw = _section(raw["split"], "split", ("train", "dev", "test", "rule", "seed"))
    except KeyError as exc:
        raise ConfigError(f"config missing section {exc}") from exc

    corpus_path = corpus_raw.get("path")
    _expect(isinstance(corpus_path, str), "corpus.path", "a file path", corpus_path)
    corpus_format = _choice(corpus_raw.get("format", CONLLU), "corpus.format", (CONLLU, TSV))

    rules = corpus_mod.SELECTION_RULES
    split = corpus_mod.SplitSpec(
        train_count=_integer(split_raw.get("train"), "split.train"),
        dev_count=_integer(split_raw.get("dev"), "split.dev"),
        test_count=_integer(split_raw.get("test"), "split.test"),
        selection_rule=_choice(split_raw.get("rule", corpus_mod.FIRST_N), "split.rule", rules),
        seed=_integer(split_raw.get("seed", 0), "split.seed"),
    )
    reduce_raw = _section(raw.get("reduce", {}), "reduce", ("max_sentences", "rule", "seed"))
    reduce_to = _integer(reduce_raw.get("max_sentences"), "reduce.max_sentences", nullable=True)
    _expect(reduce_to is None or reduce_to >= 1, "reduce.max_sentences", "at least 1", reduce_to)
    reduce_rule = _choice(reduce_raw.get("rule", corpus_mod.FIRST_N), "reduce.rule", rules)
    baseline_raw = _section(raw.get("baseline", {}), "baseline", ("max_suffix_len",))
    max_suffix_len = _integer(baseline_raw.get("max_suffix_len", 5), "baseline.max_suffix_len")
    _expect(max_suffix_len >= 0, "baseline.max_suffix_len", "at least 0", max_suffix_len)
    runs = _integer(raw.get("runs", 1), "runs")
    _expect(runs >= 1, "runs", "at least 1", runs)
    parallelism = _integer(raw.get("parallelism", 4), "parallelism")
    _expect(parallelism >= 1, "parallelism", "at least 1", parallelism)

    language = _string(raw.get("language", "English"), "language")
    raw_systems = raw.get("systems")
    _expect(raw_systems is not None, "systems", "a list of system entries", raw_systems)
    _expect(raw_systems != [], "systems", "non-empty", raw_systems)
    systems = tuple(_parse_system(e, base, runs, language) for e in raw_systems)
    if len({s.name for s in systems}) != len(systems):
        raise ConfigError("system names must be unique")

    provider = _build(
        gateway_mod.ProviderConfig,
        raw.get("provider", {}),
        "provider",
        integers=("max_tokens", "max_retries"),
        numbers=("temperature", "top_p", "timeout", "retry_backoff"),
    )
    tokens = provider.max_tokens
    for key, ok, what in (
        ("max_retries", provider.max_retries >= 0, "at least 0"),
        ("retry_backoff", provider.retry_backoff >= 0, "at least 0"),
        ("timeout", provider.timeout > 0, "above 0"),
        ("max_tokens", tokens is None or tokens >= 1, "null or at least 1"),
    ):
        _expect(ok, f"provider.{key}", what, getattr(provider, key))
    scoring = _section(raw.get("scoring", {}), "scoring", ("policy", "alpha", "mcnemar_run"))
    policy = _choice(scoring.get("policy", eval_mod.STRICT), "scoring.policy", eval_mod.POLICIES)
    comparisons_raw = raw.get("comparisons", "all-pairs")
    if comparisons_raw == "all-pairs":
        comparisons = tuple(itertools.combinations([s.name for s in systems], 2))
    else:
        pairs_ok = isinstance(comparisons_raw, list) and all(
            isinstance(p, list) and len(p) == 2 for p in comparisons_raw
        )
        _expect(pairs_ok, "comparisons", '"all-pairs" or a list of name pairs', comparisons_raw)
        comparisons = tuple((a, b) for a, b in comparisons_raw)
    known = [s.name for s in systems]  # a list: a name that is not a string is unknown too
    for a, b in comparisons:
        if a not in known or b not in known:
            raise ConfigError(f"comparison ({a}, {b}) names an unknown system")

    name = _string(raw.get("name", path.stem), "name")
    corpus_name = _string(corpus_raw.get("name", Path(corpus_path).stem), "corpus.name")
    # These values land in "# key = value" artifact headers, where a tab
    # would turn the line into a row and a line break would end it early.
    for label, value in (
        ("name", name),
        ("language", language),
        ("corpus file name", Path(corpus_path).name),
        ("corpus name", corpus_name),
        ("provider model", provider.model),
        *(("system name", s.name) for s in systems),
    ):
        if any(c in str(value) for c in "\t\n\r"):
            raise ConfigError(f"{label} {value!r} holds a tab or a line break")

    mcnemar_run = _integer(scoring.get("mcnemar_run", 0), "scoring.mcnemar_run")
    if not 0 <= mcnemar_run < runs:
        raise ConfigError(f"scoring.mcnemar_run {mcnemar_run} is not a run in 0..{runs - 1}")

    alpha = _number(scoring.get("alpha", 0.05), "scoring.alpha")
    _expect(0 < alpha < 1, "scoring.alpha", "between 0 and 1, exclusive", alpha)
    cache_dir = _string(raw.get("cache_dir", "cache"), "cache_dir")
    configured_out = _string(raw.get("out_dir", "out"), "out_dir")
    modes = gateway_mod.CACHE_MODES
    mode = _choice(cache_mode or raw.get("cache_mode", gateway_mod.REPLAY), "cache_mode", modes)
    return ExperimentConfig(
        name=name,
        language=language,
        corpus_path=str(base / corpus_path),
        corpus_format=corpus_format,
        corpus_name=corpus_name,
        split=split,
        reduce_to=reduce_to,
        reduce_rule=reduce_rule,
        reduce_seed=_integer(reduce_raw.get("seed", 0), "reduce.seed"),
        max_suffix_len=max_suffix_len,
        systems=systems,
        provider=provider,
        runs=runs,
        parallelism=parallelism,
        cache_dir=str(base / cache_dir),
        cache_mode=mode,
        out_dir=str(Path(out_dir) if out_dir else base / configured_out),
        policy=policy,
        alpha=float(alpha),
        mcnemar_run=mcnemar_run,
        comparisons=comparisons,
        config_hash=_hash_config(raw),
    )


def oracle_complete(gateway, prompt: str, run_index: int = 0, prefix=None):
    """LlmGateway.complete as it was: a provider response is logged at once."""
    fingerprint = gateway_mod.request_fingerprint(gateway.config, prompt, run_index, prefix)
    if gateway.mode in (gateway_mod.RECORD, gateway_mod.REPLAY) and fingerprint in gateway.cache:
        return gateway_mod.LlmResponse(gateway.cache.get(fingerprint), fingerprint, 0.0, "cache")
    if gateway.mode == gateway_mod.REPLAY:
        raise CacheMissError(
            f"replay cache has no response for run {run_index} fingerprint {fingerprint}"
        )
    start = time.monotonic()
    text = gateway._call_with_retries(prompt)
    latency = time.monotonic() - start
    if gateway.mode == gateway_mod.RECORD:
        gateway.cache.put(fingerprint, gateway.config.model, text)
    return gateway_mod.LlmResponse(text, fingerprint, latency, "provider")


def oracle_run_batch(gateway, prompts, runs=1, parallelism=4):
    """LlmGateway.run_batch as it was: every job, replay too, runs oracle_complete
    on a pool of worker threads, and the results are read in (run, item) order."""
    if runs < 1:
        raise ConfigError("runs must be >= 1")
    responses = [[None] * len(prompts) for _ in range(runs)]
    failures = []
    prefixes = [gateway_mod.fingerprint_prefix(gateway.config, prompt) for prompt in prompts]
    fatal = []

    def work(order, run, item):
        if fatal and order > min(fatal):
            return None
        try:
            return oracle_complete(gateway, prompts[item], run_index=run, prefix=prefixes[item])
        except TransportError:
            raise
        except BaseException:
            fatal.append(order)
            raise

    with ThreadPoolExecutor(max_workers=max(1, parallelism)) as pool:
        jobs = {
            pool.submit(work, order, run, item): (run, item)
            for order, (run, item) in enumerate(itertools.product(range(runs), range(len(prompts))))
        }
        try:
            for job, (run, item) in jobs.items():
                try:
                    responses[run][item] = job.result()
                except TransportError as exc:
                    failures.append((run, item, str(exc)))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return gateway_mod.BatchResult(responses=responses, failures=failures)


# --- ingest, split and induce before they read a block at a time -----------------


def _oracle_write_tsv(corpus: Corpus, path: Path, meta: dict[str, str]) -> None:
    def rows():
        for sentence in corpus.sentences:
            yield (f"# sent_id = {sentence.id}",)
            yield from zip(sentence.wordforms, ["" if x is None else x for x in sentence.lemmas])
            yield ()

    artifact.write(path, meta, rows())


def oracle_run_ingest(cfg: ExperimentConfig) -> Corpus:
    read = corpus_mod.ingest_conllu if cfg.corpus_format == CONLLU else corpus_mod.ingest_tsv
    corpus = read(cfg.corpus_path, cfg.corpus_name)
    if cfg.reduce_to is not None and len(corpus) > cfg.reduce_to:
        if cfg.reduce_rule == corpus_mod.FIRST_N:
            kept = corpus.sentences[: cfg.reduce_to]
        else:
            picked = set(random.Random(cfg.reduce_seed).sample(range(len(corpus)), cfg.reduce_to))
            kept = tuple(s for i, s in enumerate(corpus.sentences) if i in picked)
        corpus = Corpus(corpus.name, kept)
    meta = _meta(cfg, source=Path(cfg.corpus_path).name, language=cfg.language)
    _oracle_write_tsv(corpus, cfg.path("corpus"), meta)
    return corpus


def oracle_run_split(cfg: ExperimentConfig) -> dict[str, Corpus]:
    corpus = corpus_mod.ingest_tsv(cfg.path("corpus"), cfg.corpus_name)
    train, dev, test = corpus_mod.make_splits(corpus, cfg.split)
    splits = {"train": train, "dev": dev, "test": test}
    for part, sub in splits.items():
        meta = _meta(cfg, split=part, rule=cfg.split.selection_rule, seed=str(cfg.split.seed))
        _oracle_write_tsv(sub, cfg.path(part), meta)
    manifest = {s.name: s for s in (train, dev, test)}
    corpus_mod.write_split_manifest(manifest, cfg.path("manifest"), _meta(cfg))
    return splits


def oracle_run_induce(cfg: ExperimentConfig) -> LabelInventory:
    pairs = editscript_mod.pair_scripts(_load_split(cfg, "train").sentences)
    inventory = editscript_mod.build_inventory(pairs)
    editscript_mod.write_inventory(inventory, cfg.path("inventory"))
    editscript_mod.write_pair_labels(pairs, inventory, cfg.path("pair_labels"))
    return inventory
