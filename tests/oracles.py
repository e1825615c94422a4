"""Independent oracles shared by the unit and acceptance suites.

Each is deliberately written with plain loops and exact arithmetic —
no code under test is reused beyond the EditScript value type and the
alignment's word-pair score (itself checked against a textbook
Levenshtein DP) — so agreement is real evidence.  The exception is
oracle_report_text: it is the earlier `report` stage, which re-scored
every prediction file, kept as a differential oracle for the stage that
now reads only the tallies `score` and `compare` wrote; likewise
oracle_parse_output is the parser before it skipped per-field calls,
oracle_common_cores is induce's O(n*m) dynamic-programming scan of every
character pair from before it searched substrings with str.find,
oracle_induce_from_cores is induce over every hit of that scan, as it was
before _common_cores kept one place per shared substring, oracle_train
is baseline.train as it was before it tallied label ids in plain dicts,
counting EditScripts in Counters, and the oracle_read_* / oracle_ingest_*
functions are the TSV artifact readers as they were before
lemmabench.artifact, each with its own loop; the corpus ones still build
one Token per token, as the reader did before a Sentence stored its
wordforms and lemmas as two columns, and refuse a repeated sentence id as
the reader does now.
"""

import math
import random
import re
import unicodedata
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

from lemmabench import evaluation as eval_mod
from lemmabench.align import (
    ParsedOutput,
    PredictionBlock,
    _pair_score,
    read_diagnostics,
    read_predictions,
)
from lemmabench.baseline import DEFAULT_MAX_SUFFIX, BaselineModel
from lemmabench.corpus import Corpus, Token
from lemmabench.editscript import (
    LOWER_FIRST,
    PRESERVE,
    UPPER_FIRST,
    EditScript,
    LabelInventory,
    PairScript,
    _token_counts,
)
from lemmabench.errors import (
    CorpusFormatError,
    EmptyCorpusError,
    FileFormatError,
    InventoryFormatError,
    ModelFormatError,
    ScoringError,
)
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
    test = _load_split(Layout(cfg), "test")
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


# --- the TSV artifact readers before lemmabench.artifact ------------------------


def _nfc(text):
    return unicodedata.normalize("NFC", text)


def oracle_read_predictions(path):
    metadata: dict[str, str] = {}
    blocks: list[PredictionBlock] = []
    current_id: str | None = None
    current_pairs: list[tuple[str, str | None]] = []
    seen_block = False

    def flush():
        nonlocal current_id, current_pairs, seen_block
        if seen_block and (current_pairs or current_id is not None):
            forms, lemmas = zip(*current_pairs) if current_pairs else ((), ())
            blocks.append(PredictionBlock(current_id, forms, lemmas))
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


@dataclass(frozen=True)
class TokenSentence:
    """A sentence as the corpus reader built it before it stored columns:
    one frozen Token per token."""

    id: str
    tokens: tuple[Token, ...]

    def __len__(self):
        return len(self.tokens)


def token_sentences(c: Corpus) -> Corpus:
    """c with each Sentence as the TokenSentence of its tokens property,
    once the property has been checked against both columns token by token,
    so that it compares equal to what _oracle_read_corpus reads."""
    for s in c.sentences:
        assert len(s.wordforms) == len(s.lemmas)
        expected = [Token(i, *pair) for i, pair in enumerate(zip(s.wordforms, s.lemmas), 1)]
        assert list(s.tokens) == expected
    return Corpus(c.name, c.language, tuple(TokenSentence(s.id, s.tokens) for s in c.sentences))


def _oracle_read_corpus(path, name, language, parse_row, tsv):
    """The corpus reader before columns: a Corpus of TokenSentences."""
    path = Path(path)
    corpus_name = name or path.stem
    sentences: list[TokenSentence] = []
    tokens: list[Token] = []
    pending_id: str | None = None  # explicit id from a "# sent_id = ..." comment

    def close_sentence():
        nonlocal pending_id
        if tokens:
            if pending_id is None:
                pending_id = f"{corpus_name}-{len(sentences):04d}"
            if any(s.id == pending_id for s in sentences):
                raise CorpusFormatError(path, None, f"sentence id {pending_id!r} repeats")
            sentences.append(TokenSentence(id=pending_id, tokens=tuple(tokens)))
            tokens.clear()
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
            lemma = None if lemma is None else _nfc(lemma)
            tokens.append(Token(index=len(tokens) + 1, wordform=_nfc(form), lemma=lemma))
    close_sentence()
    if not sentences:
        raise EmptyCorpusError(f"{path}: no sentences found")
    return Corpus(name=corpus_name, language=language, sentences=tuple(sentences))


def _oracle_tsv_row(fields, path, line_no):
    if len(fields) != 2:
        raise CorpusFormatError(
            path, line_no, f"expected 2 tab-separated fields, found {len(fields)}"
        )
    if not fields[0]:
        raise CorpusFormatError(path, line_no, "empty wordform field")
    return fields[0], fields[1] or None


def oracle_ingest_tsv(path, name=None, language="und"):
    return _oracle_read_corpus(path, name, language, _oracle_tsv_row, tsv=True)


def _oracle_conllu_row(fields, path, line_no):
    if len(fields) != 10:
        raise CorpusFormatError(path, line_no, f"expected 10 columns, found {len(fields)}")
    if re.fullmatch(r"\d+[-.]\d+", fields[0]):  # a multiword range or an empty node
        return None
    if not re.fullmatch(r"\d+", fields[0]):
        raise CorpusFormatError(path, line_no, f"unrecognized token ID {fields[0]!r}")
    if not fields[1]:
        raise CorpusFormatError(path, line_no, "empty FORM column")
    return fields[1], None if fields[2] == "_" else fields[2]


def oracle_ingest_conllu(path, name=None, language="und"):
    return _oracle_read_corpus(path, name, language, _oracle_conllu_row, tsv=False)


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
                raise InventoryFormatError(
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
                raise InventoryFormatError(
                    path, line_no, f"expected wordform, label id, count; found {len(fields)} fields"
                )
            wordform, label_field, count_field = fields
            label_id, count = _oracle_natural(label_field), _oracle_natural(count_field)
            if label_id is None or label_id >= len(inventory):
                raise InventoryFormatError(
                    path, line_no, f"label id {label_field!r} is not one of {len(inventory)} labels"
                )
            if not count:
                raise InventoryFormatError(
                    path, line_no, f"count {count_field!r} is not a positive integer"
                )
            pairs.append((wordform, inventory.script_of(label_id), count))
    counts = _token_counts(pairs)
    for label_id, script, frequency in inventory.items():
        if counts[script] != frequency:
            raise InventoryFormatError(
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
                    raise ModelFormatError(path, line_no, f"max_suffix_len {value!r} is not an integer")
                model.max_suffix_len = int(value)
                continue
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3 or fields[0] not in tables:
                raise ModelFormatError(path, line_no, "expected form|suffix<TAB>key<TAB>script")
            table_name, key, encoded = fields
            try:
                tables[table_name][key] = EditScript.decode(encoded)
            except (ValueError, TypeError) as exc:
                raise ModelFormatError(path, line_no, f"script does not decode: {exc}") from exc
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
