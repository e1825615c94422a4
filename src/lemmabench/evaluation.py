"""Scoring: word/sentence accuracy, run aggregation, McNemar's test.

Predictions are lemma slots keyed by sentence id — one slot per gold
token, None where the system produced nothing.  The strict policy counts
such holes as wrong; renormalize drops them from the denominator (useful
for diagnosing parse loss separately from lemma quality).

Paired system comparison uses McNemar's test on per-word correctness:
exact binomial when fewer than 25 discordant pairs, otherwise chi-square
with continuity correction.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import astuple, dataclass, fields
from operator import eq
from pathlib import Path
from typing import Mapping, Sequence

from . import artifact
from .corpus import Corpus
from .errors import FileFormatError, ScoringError

STRICT = "strict"
RENORMALIZE = "renormalize"
POLICIES = (STRICT, RENORMALIZE)

EXACT_THRESHOLD = 25  # discordant pairs below this use the exact binomial

LemmaSlots = Mapping[str, Sequence[str | None]]


def _checked(predictions: LemmaSlots, gold: Corpus):
    """(sentence, slots) per gold sentence, in corpus order, once the
    sentence has a prediction with one slot per token and gold lemmas."""
    for sentence in gold.sentences:
        if sentence.id not in predictions:
            raise ScoringError(f"no prediction for sentence {sentence.id}")
        slots = predictions[sentence.id]
        if len(slots) != len(sentence):
            message = f"{sentence.id}: {len(slots)} lemma slots for {len(sentence)} tokens"
            raise ScoringError(message)
        sentence.require_lemmas()
        yield sentence, slots


def correctness_vector(predictions: LemmaSlots, gold: Corpus) -> list[bool]:
    """Strict per-word correctness in corpus order (missing counts as wrong)."""
    return [hit for sentence, slots in _checked(predictions, gold)
            for hit in map(eq, slots, sentence.lemmas)]


def aggregate_runs(values: Sequence[float]) -> tuple[float, float]:
    """Mean and population standard deviation across repeat runs."""
    if not values:
        raise ScoringError("aggregate_runs needs at least one value")
    return statistics.fmean(values), statistics.pstdev(values)


@dataclass(frozen=True)
class McNemarResult:
    b01: int  # first system wrong, second right
    b10: int  # first system right, second wrong
    statistic: float
    p_value: float
    method: str  # "exact" or "chi-square"

    def significant(self, alpha: float = 0.05) -> bool:
        return self.p_value < alpha


def mcnemar(first_correct: Sequence[bool], second_correct: Sequence[bool]) -> McNemarResult:
    """Paired McNemar's test on two correctness vectors of equal length."""
    if len(first_correct) != len(second_correct):
        raise ScoringError(
            f"correctness vectors differ in length: {len(first_correct)} vs {len(second_correct)}"
        )
    b01 = sum(1 for a, b in zip(first_correct, second_correct) if not a and b)
    b10 = sum(1 for a, b in zip(first_correct, second_correct) if a and not b)
    return mcnemar_counts(b01, b10)


def mcnemar_counts(b01: int, b10: int) -> McNemarResult:
    """McNemar's test from the discordant counts alone; the only place the
    statistic and p-value are computed."""
    n = b01 + b10
    if n == 0:
        return McNemarResult(0, 0, 0.0, 1.0, "exact")
    if n < EXACT_THRESHOLD:
        k = min(b01, b10)
        tail = sum(math.comb(n, i) for i in range(k + 1)) / 2**n
        return McNemarResult(b01, b10, float(k), min(1.0, 2.0 * tail), "exact")
    statistic = (abs(b01 - b10) - 1) ** 2 / n
    p_value = math.erfc(math.sqrt(statistic / 2.0))
    return McNemarResult(b01, b10, statistic, p_value, "chi-square")


@dataclass(frozen=True)
class RunScore:
    """One system's exact tallies on one corpus, one run: the count columns
    of runs.tsv.  Both accuracies are derived from them."""

    correct: int
    total: int
    correct_sentences: int
    sentences: int
    missing: int
    wrong: int
    random: int

    @property
    def word_accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0

    @property
    def sentence_accuracy(self) -> float:
        return self.correct_sentences / self.sentences if self.sentences else 0.0


@dataclass(frozen=True)
class EvalReport:
    system: str
    corpus: str
    runs: tuple[RunScore, ...]

    def word_stats(self) -> tuple[float, float]:
        return aggregate_runs([r.word_accuracy for r in self.runs])

    def sentence_stats(self) -> tuple[float, float]:
        return aggregate_runs([r.sentence_accuracy for r in self.runs])

    def mean_errors(self) -> tuple[float, float, float]:
        missing = statistics.fmean(r.missing for r in self.runs)
        wrong = statistics.fmean(r.wrong for r in self.runs)
        rand = statistics.fmean(r.random for r in self.runs)
        return missing, wrong, rand


def score_run(
    predictions: LemmaSlots,
    gold: Corpus,
    policy: str = STRICT,
    diagnostics: Mapping[str, Mapping[str, int]] | None = None,
) -> RunScore:
    """Score one run: count correct words and sentences against the gold.

    wrong/random tallies come from alignment diagnostics, which need an
    entry of integer wrong and random counts for every gold sentence and
    none for another id; without diagnostics both are 0.
    """
    if policy not in POLICIES:
        raise ScoringError(f"unknown missing-word policy {policy!r}")
    correct = total = correct_sentences = missing = wrong = rand = 0
    for sentence, slots in _checked(predictions, gold):
        hits, holes = sum(map(eq, slots, sentence.lemmas)), slots.count(None)
        correct += hits
        total += len(slots) - holes if policy == RENORMALIZE else len(slots)
        correct_sentences += hits == len(slots)
        missing += holes
        if diagnostics is not None:
            counts = diagnostics.get(sentence.id, {})
            if not all(type(counts.get(key)) is int for key in ("wrong", "random")):
                raise ScoringError(f"diagnostics have no wrong and random counts for {sentence.id}")
            wrong, rand = wrong + counts["wrong"], rand + counts["random"]
    gold_ids = {sentence.id for sentence in gold.sentences}
    for sentence_id in diagnostics or {}:
        if sentence_id not in gold_ids:
            raise ScoringError(f"diagnostics have an entry for {sentence_id}, no gold sentence")
    return RunScore(correct, total, correct_sentences, len(gold.sentences), missing, wrong, rand)


SCORES_COLUMNS = tuple(
    "system corpus runs word_acc_mean word_acc_std sent_acc_mean sent_acc_std"
    " missing_mean wrong_mean random_mean".split()
)
RUNS_COLUMNS = ("system", "corpus", "run", *(f.name for f in fields(RunScore)))
MCNEMAR_COLUMNS = tuple(
    "corpus system_a system_b b01 b10 method statistic p_value significant".split()
)


def _render_table(metadata: Mapping[str, str], columns: tuple[str, ...], rows) -> str:
    return "".join(artifact.text(metadata, (columns, *(map(str, row) for row in rows))))


def render_scores_tsv(reports: Sequence[EvalReport], metadata: Mapping[str, str]) -> str:
    return _render_table(metadata, SCORES_COLUMNS, (
        (r.system, r.corpus, len(r.runs),
         *(f"{x:.4f}" for x in (*r.word_stats(), *r.sentence_stats())),
         *(f"{x:.1f}" for x in r.mean_errors()))
        for r in reports
    ))


def render_runs_tsv(reports: Sequence[EvalReport], metadata: Mapping[str, str]) -> str:
    """One row of exact tallies per (system, run), correct to random; every
    mean and std of scores.tsv and report.txt is a function of them."""
    return _render_table(metadata, RUNS_COLUMNS, (
        (r.system, r.corpus, run, *astuple(score))
        for r in reports for run, score in enumerate(r.runs)
    ))


def render_mcnemar_tsv(
    rows: Sequence[tuple[str, str, str, McNemarResult]],
    metadata: Mapping[str, str],
    alpha: float = 0.05,
) -> str:
    """Rows are (corpus, system_a, system_b, result)."""
    return _render_table(metadata, MCNEMAR_COLUMNS, (
        (corpus, sys_a, sys_b, res.b01, res.b10, res.method, f"{res.statistic:.6f}",
         f"{res.p_value:.6g}", "yes" if res.significant(alpha) else "no")
        for corpus, sys_a, sys_b, res in rows
    ))


def read_counts(
    path: str | Path, columns: tuple[str, ...], width: int | None = None
) -> tuple[dict[str, str], dict[tuple[str, ...], list[int]]]:
    """Metadata and rows of a runs.tsv or mcnemar.tsv: the column row
    `columns` first, then rows whose first three fields key the next
    `width` fields (default: all the rest), which must be non-negative
    integers."""
    column_line = "\t".join(columns)
    rows: dict[tuple[str, ...], list[int]] | None = None

    def decode(fields: list[str]) -> None:
        nonlocal rows
        if rows is None:
            if tuple(fields) != columns:
                raise ValueError(f"expected the column line {column_line!r}")
            rows = {}
            return
        counts = fields[3:] if width is None else fields[3 : 3 + width]
        if not all(c.isascii() and c.isdigit() for c in counts):
            raise ValueError("a count is not a non-negative integer")
        if tuple(fields[:3]) in rows:
            raise ValueError(f"repeats the row for {' '.join(fields[:3])}")
        rows[tuple(fields[:3])] = [int(c) for c in counts]

    meta, _ = artifact.read(path, columns, decode)
    if rows is None:
        raise FileFormatError(path, None, f"has no column line {column_line!r}")
    return meta, rows


def render_report_text(
    reports: Sequence[EvalReport],
    mcnemar_rows: Sequence[tuple[str, str, str, McNemarResult]],
    metadata: Mapping[str, str],
    alpha: float = 0.05,
) -> str:
    """Human-readable summary of the reports of one test split, at least
    one; '*' marks the best word accuracy."""
    lines = ["Lemmatization report", "=" * 20, "", *(f"{k}: {v}" for k, v in metadata.items())]
    if metadata:
        lines.append("")

    best = max(r.word_stats()[0] for r in reports)
    lines.append(f"Corpus: {reports[0].corpus}")
    lines.append(f"{'system':<28}{'word acc':>18}{'sent acc':>18}{'runs':>6}")
    for report in reports:
        w_mean, w_std = report.word_stats()
        s_mean, s_std = report.sentence_stats()
        marker = " *" if w_mean == best else ""
        lines.append(
            f"{report.system + marker:<28}"
            f"{f'{w_mean:.4f} ± {w_std:.4f}':>18}"
            f"{f'{s_mean:.4f} ± {s_std:.4f}':>18}"
            f"{len(report.runs):>6}"
        )
    lines.append("")

    if mcnemar_rows:
        lines.append(f"McNemar's test (alpha = {alpha})")
        for corpus, sys_a, sys_b, res in mcnemar_rows:
            verdict = "significant" if res.significant(alpha) else "not significant"
            lines.append(
                f"  {corpus}: {sys_a} vs {sys_b}: b01={res.b01} b10={res.b10} "
                f"{res.method} statistic={res.statistic:.4f} p={res.p_value:.6g} ({verdict})"
            )
        lines.append("")
    lines.append("* best word accuracy on the corpus")
    return "\n".join(lines) + "\n"
