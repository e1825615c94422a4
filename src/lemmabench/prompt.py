"""Prompt construction for in-context lemma generation.

Two templates (basic task description, or the same plus eight explicit
lemmatization instructions), two ways of presenting the target sentence
(one quoted string, or a bracketed word list), and 0-5 worked examples
chosen manually, at random, or by how many errors a prior dev run made on
each candidate sentence.  Wording lives in versioned text assets under
``templates/``; rendering is a pure function of (spec, examples, target).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from random import Random
from typing import Mapping, Sequence

from .corpus import Corpus, Sentence
from .errors import PromptError

BASIC = "basic"
FULL = "full"
SENTENCE_STRING = "sentence-string"
WORD_LIST = "word-list"
MANUAL = "manual"
RANDOM = "random"
MOST_ERRORS = "most-errors"
TEMPLATES = (BASIC, FULL)
INPUT_MODES = (SENTENCE_STRING, WORD_LIST)
SELECTIONS = (MANUAL, RANDOM, MOST_ERRORS)

MAX_SHOTS = 5


def _asset(name: str) -> str:
    return resources.files(__package__).joinpath(f"templates/{name}").read_text("utf-8")


TEMPLATE_VERSION = _asset("VERSION").strip()
_TASK_HEADER = _asset("task_header.txt").rstrip("\n")
_INSTRUCTIONS = _asset("instructions.txt").rstrip("\n")
_OUTPUT_FORMAT = _asset("output_format.txt").rstrip("\n")
_CLOSING = _asset("closing.txt").rstrip("\n")
_EXAMPLE_INTRO = _asset("example_intro.txt").rstrip("\n")
_EXAMPLE_OUTPUT_INTRO = _asset("example_output_intro.txt").rstrip("\n")


@dataclass(frozen=True)
class PromptSpec:
    """One prompt configuration; shots=0 makes the selection fields moot."""

    template: str = BASIC
    input_mode: str = WORD_LIST
    shots: int = 4
    selection: str = MOST_ERRORS
    seed: int = 0
    language_name: str = "English"

    def __post_init__(self):
        if self.template not in TEMPLATES:
            raise PromptError(f"unknown template {self.template!r}")
        if self.input_mode not in INPUT_MODES:
            raise PromptError(f"unknown input mode {self.input_mode!r}")
        if not 0 <= self.shots <= MAX_SHOTS:
            raise PromptError(f"shots must be in [0, {MAX_SHOTS}], got {self.shots}")
        if self.selection not in SELECTIONS:
            raise PromptError(f"unknown selection strategy {self.selection!r}")


def _quote_word(word: str) -> str:
    return "'" + word.replace("\\", "\\\\").replace("'", "\\'") + "'"


def _sentence_block(mode: str, sentence: Sentence) -> str:
    words = sentence.wordforms
    if mode == SENTENCE_STRING:
        return f'Sentence: "{" ".join(words)}"'
    listed = ", ".join(_quote_word(w) for w in words)
    return f"Sentence:\n[{listed}]"


def _example_lines(example: Sentence) -> list[str]:
    pairs = example.gold_pairs()
    lines = [w for w, _ in pairs]
    lines.append(_EXAMPLE_OUTPUT_INTRO)
    lines.extend(f"{w}\t{l}" for w, l in pairs)
    return lines


def render_prompt(spec: PromptSpec, examples: list[Sentence], target: Sentence) -> str:
    """Assemble the final prompt text; deterministic, no trailing newline.

    The head (task, instructions, examples, output format) is the same for
    every target of a system, so it is rendered once per (spec, examples).
    """
    if len(examples) != spec.shots:
        raise PromptError(f"spec asks for {spec.shots} examples, got {len(examples)}")
    target_lines = _sentence_block(spec.input_mode, target).splitlines()
    return "\n".join([_head(spec, tuple(examples)), *target_lines, _CLOSING])


@lru_cache(maxsize=8)
def _head(spec: PromptSpec, examples: tuple[Sentence, ...]) -> str:
    """The prompt up to its output format.  The first example's lead-in
    continues the preceding paragraph, further examples start their own
    block, mirroring the worked-example layout."""
    lines = [_TASK_HEADER.format(language_name=spec.language_name)]
    if spec.template == FULL:
        lines.extend(_INSTRUCTIONS.splitlines())
    for i, example in enumerate(examples):
        if i == 0:
            lines[-1] = f"{lines[-1]} {_EXAMPLE_INTRO}"
        else:
            lines.append(_EXAMPLE_INTRO)
        lines.extend(_example_lines(example))
    lines.extend(_OUTPUT_FORMAT.splitlines())
    return "\n".join(lines)


def check_manual_ids(k: int, manual_ids: Sequence[str] | None) -> None:
    """PromptError unless manual_ids are k ids, none repeated."""
    if manual_ids is None or len(manual_ids) != k:
        raise PromptError(f"manual selection needs exactly {k} sentence ids")
    for n, sentence_id in enumerate(manual_ids):
        if sentence_id in manual_ids[:n]:
            raise PromptError(f"manual example id {sentence_id!r} is repeated")


def select_examples(
    selection: str,
    k: int,
    pool: Corpus,
    dev_diagnostics: Mapping[str, Mapping[str, int]] | None = None,
    seed: int = 0,
    manual_ids: list[str] | None = None,
) -> list[Sentence]:
    """Pick k worked example sentences from a pool corpus.

    random and most-errors draw only from the pool sentences whose every
    token has a gold lemma, as only those can be worked examples.
    most-errors ranks them by the total error count of a prior dev run
    (ties broken by sentence id); random is reproducible from its seed;
    manual takes an explicit id list, and render_prompt refuses an id
    whose sentence lacks a lemma, naming the token.
    """
    if k == 0:
        return []
    candidates = [s for s in pool.sentences if selection == MANUAL or None not in s.lemmas]
    if k > len(candidates):
        raise PromptError(
            f"asked for {k} examples but pool {pool.name} has {len(candidates)} to choose from"
        )

    if selection == MANUAL:
        check_manual_ids(k, manual_ids)
        by_id = {s.id: s for s in pool.sentences}
        unknown = [sentence_id for sentence_id in manual_ids if sentence_id not in by_id]
        if unknown:
            raise PromptError(f"manual example id {unknown[0]!r} is not in pool {pool.name}")
        chosen = [by_id[sentence_id] for sentence_id in manual_ids]
    elif selection == RANDOM:
        chosen = Random(seed).sample(candidates, k)
    elif selection == MOST_ERRORS:
        if dev_diagnostics is None:
            raise PromptError("most-errors selection requires dev diagnostics")
        missing = [s.id for s in candidates if s.id not in dev_diagnostics]
        if missing:
            raise PromptError(f"diagnostics do not cover pool sentences: {missing[:5]}")
        ranked = sorted(candidates, key=lambda s: (-sum(dev_diagnostics[s.id].values()), s.id))
        chosen = ranked[:k]
    else:
        raise PromptError(f"unknown selection strategy {selection!r}")
    return chosen
