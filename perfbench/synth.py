"""Seeded synthetic inputs: a Zipfian corpus and a simulated chat model.

The corpus is built from suffix paradigms whose lemma is known, so every
token carries a gold lemma.  Lemma frequencies follow a Zipf law, sentence
lengths a log-normal law, and sentence-initial words are capitalised, so
type/token ratio, script diversity and sentence length look like a UD
treebank rather than a replicated fixture (replication would flatter any
memoisation of per-type work).

The simulated chat model answers a lemmatization prompt with the gold
lemmas of the prompt's target sentence, damaged the way real models damage
them.  It is a port of the fixture generator's model, with two changes: it
reads the *last* ``Sentence:`` block (so worked examples can never be
mistaken for the target), and the run index comes from the gateway call
that is in progress on the current thread (see ``run_index_hook``), so it
stays seeded per (run, prompt digest) under the gateway's thread pool.
"""

from __future__ import annotations

import ast
import bisect
import hashlib
import inspect
import itertools
import math
import random
import statistics
import threading
from contextlib import contextmanager
from dataclasses import dataclass

# Paradigm classes: (lemma ending, [(form ending, relative weight), ...]).
_PARADIGMS = {
    "noun-o": ("o", [("o", 6), ("os", 4)]),
    "noun-a": ("a", [("a", 6), ("as", 4)]),
    "noun-e": ("e", [("e", 6), ("es", 4)]),
    "noun-c": ("", [("", 6), ("es", 4)]),
    "adj-o": ("o", [("o", 4), ("a", 3), ("os", 2), ("as", 2)]),
    "verb-ar": ("ar", [("a", 5), ("an", 3), ("ó", 3), ("aron", 2), ("ando", 1), ("ado", 2),
                       ("aba", 1), ("amos", 1), ("o", 1), ("ará", 1)]),
    "verb-er": ("er", [("e", 5), ("en", 3), ("ió", 3), ("ieron", 2), ("iendo", 1), ("ido", 2),
                       ("ía", 1), ("emos", 1), ("o", 1)]),
    "verb-ir": ("ir", [("e", 5), ("en", 3), ("ió", 3), ("ieron", 2), ("iendo", 1), ("ido", 2),
                       ("imos", 1)]),
}
_CLASS_WEIGHTS = [("noun-o", 18), ("noun-a", 14), ("noun-e", 6), ("noun-c", 8), ("adj-o", 14),
                  ("verb-ar", 22), ("verb-er", 10), ("verb-ir", 8)]

# Suppletive forms: whole-word scripts the suffix paradigms never produce.
_IRREGULAR = [
    ("ser", ["es", "son", "fue", "era", "fueron", "sido"]),
    ("ir", ["va", "van", "fue", "iba", "ido"]),
    ("tener", ["tiene", "tienen", "tuvo", "tenía"]),
    ("hacer", ["hace", "hacen", "hizo", "hecho"]),
    ("poder", ["puede", "pueden", "pudo", "podía"]),
    ("decir", ["dice", "dicen", "dijo", "dicho"]),
]
_FUNCTION_WORDS = [
    (("el", "el"), 30), (("la", "el"), 28), (("los", "el"), 14), (("las", "el"), 10),
    (("un", "uno"), 10), (("una", "uno"), 9), (("de", "de"), 40), (("en", "en"), 22),
    (("a", "a"), 14), (("con", "con"), 9), (("por", "por"), 8), (("para", "para"), 6),
    (("y", "y"), 24), (("que", "que"), 20), (("se", "él"), 9), (("su", "su"), 8),
    (("sus", "su"), 4), (("no", "no"), 7), (("del", "del"), 8), (("al", "al"), 5),
    ((",", ","), 32),
]
_ONSETS = ["b", "c", "d", "f", "g", "l", "m", "n", "p", "r", "s", "t", "v", "ch", "br", "tr",
           "pl", "gr", "ñ", "j", "z", "qu"]
_VOWELS = ["a", "e", "i", "o", "u", "á", "é", "í"]
_CODAS = ["", "", "", "n", "r", "s", "l"]


@dataclass(frozen=True)
class Shape:
    """Sentence counts and length law of one generated corpus."""

    train: int
    dev: int
    test: int
    median_len: float
    sigma: float
    min_len: int
    max_len: int
    lemmas: int  # content lemmas in the lexicon


@dataclass(frozen=True)
class GeneratedCorpus:
    sentences: tuple[tuple[tuple[str, str], ...], ...]  # ((wordform, lemma), ...) per sentence
    shape: Shape

    def gold_by_words(self) -> dict[tuple[str, ...], tuple[str, ...]]:
        return {tuple(w for w, _ in s): tuple(l for _, l in s) for s in self.sentences}

    def tokens(self) -> int:
        return sum(len(s) for s in self.sentences)

    def part(self, name: str) -> tuple[tuple[tuple[str, str], ...], ...]:
        cuts = {"train": (0, self.shape.train),
                "dev": (self.shape.train, self.shape.train + self.shape.dev),
                "test": (self.shape.train + self.shape.dev, len(self.sentences))}
        lo, hi = cuts[name]
        return self.sentences[lo:hi]

    def stats(self) -> dict:
        """Type/token ratio and sentence-length quantiles, whole corpus and per split."""
        def describe(sentences) -> dict:
            lengths = sorted(len(s) for s in sentences)
            tokens = sum(lengths)
            types = len({w for s in sentences for w, _ in s})
            deciles = statistics.quantiles(lengths, n=10) if len(lengths) > 1 else lengths * 9
            return {
                "sentences": len(lengths),
                "tokens": tokens,
                "types": types,
                "type_token_ratio": types / tokens,
                "distinct_pairs": len({p for s in sentences for p in s}),
                "length_p10": deciles[0],
                "length_p50": statistics.median(lengths),
                "length_p90": deciles[-1],
                "length_max": lengths[-1],
            }

        return {"corpus": describe(self.sentences),
                **{name: describe(self.part(name)) for name in ("train", "dev", "test")}}


class _Lexicon:
    def __init__(self, rng: random.Random, lemma_count: int):
        stems: set[str] = set()
        while len(stems) < lemma_count:
            syllables = rng.choice((1, 2, 2, 2, 3))
            stems.add("".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
                              for _ in range(syllables)))
        classes, class_weights = zip(*_CLASS_WEIGHTS)
        # Each entry is one lemma with its weighted forms; order is the Zipf rank.
        self.entries: list[tuple[list[tuple[str, str]], list[float]]] = []
        for stem in sorted(stems):
            paradigm = rng.choices(classes, class_weights)[0]
            lemma_end, forms = _PARADIGMS[paradigm]
            lemma = stem + lemma_end
            self.entries.append(([(stem + end, lemma) for end, _ in forms],
                                 list(itertools.accumulate(w for _, w in forms))))
        for lemma, forms in _IRREGULAR:
            self.entries.append(([(form, lemma) for form in forms],
                                 list(itertools.accumulate(range(len(forms), 0, -1)))))
        rng.shuffle(self.entries)
        self.rank_cdf = list(itertools.accumulate(1.0 / (r + 1) ** 1.05
                                                  for r in range(len(self.entries))))
        names = rng.sample(sorted(stems), min(300, lemma_count // 4))
        self.propn = sorted({stem.capitalize() for stem in names})
        words, weights = zip(*_FUNCTION_WORDS)
        self.function_words = words
        self.function_cdf = list(itertools.accumulate(weights))

    def content(self, rng: random.Random) -> tuple[str, str]:
        forms, cdf = self.entries[_pick(rng, self.rank_cdf)]
        return forms[_pick(rng, cdf)]

    def function(self, rng: random.Random) -> tuple[str, str]:
        return self.function_words[_pick(rng, self.function_cdf)]


def _pick(rng: random.Random, cdf: list[float]) -> int:
    return bisect.bisect_right(cdf, rng.random() * cdf[-1])


def _length(rng: random.Random, median: float, sigma: float, lo: int, hi: int) -> int:
    return max(lo, min(hi, round(math.exp(rng.gauss(math.log(median), sigma)))))


def _sentence(rng: random.Random, lexicon: _Lexicon, length: int) -> tuple[tuple[str, str], ...]:
    tokens: list[tuple[str, str]] = []
    for _ in range(length - 1):
        roll = rng.random()
        if roll < 0.42:
            tokens.append(lexicon.function(rng))
        elif roll < 0.47:
            name = rng.choice(lexicon.propn)
            tokens.append((name, name))
        else:
            tokens.append(lexicon.content(rng))
    if tokens[0][0] == ",":
        tokens[0] = lexicon.content(rng)
    form, lemma = tokens[0]
    tokens[0] = (form[0].upper() + form[1:], lemma)  # lemma keeps its own case
    tokens.append((".", "."))
    return tuple(tokens)


def generate(seed: int, shape: Shape) -> GeneratedCorpus:
    """Build a corpus of train+dev+test sentences; no sentence occurs twice.

    Uniqueness keeps every test prompt distinct, so each gateway request
    has its own fingerprint and the simulated answers are well defined.
    """
    rng = random.Random(f"perfbench-corpus|{seed}")
    lexicon = _Lexicon(rng, shape.lemmas)
    seen: set[tuple[str, ...]] = set()
    sentences = []
    while len(sentences) < shape.train + shape.dev + shape.test:
        length = _length(rng, shape.median_len, shape.sigma, shape.min_len, shape.max_len)
        sentence = _sentence(rng, lexicon, length)
        key = tuple(w for w, _ in sentence)
        if key not in seen:
            seen.add(key)
            sentences.append(sentence)
    return GeneratedCorpus(tuple(sentences), shape)


def conllu_text(corpus: GeneratedCorpus) -> str:
    lines = []
    for n, sentence in enumerate(corpus.sentences, start=1):
        lines.append(f"# sent_id = synth-{n}")
        lines.append("# text = " + " ".join(w for w, _ in sentence))
        for i, (form, lemma) in enumerate(sentence, start=1):
            head, rel = (0, "root") if i == 1 else (1, "dep")
            lines.append(f"{i}\t{form}\t{lemma}\t_\t_\t_\t{head}\t{rel}\t_\t_")
        lines.append("")
    return "\n".join(lines) + "\n"


_current_run = threading.local()

HOOK_NOT_REACHED = ("benchmark hook not reached: the simulated model needs the run index "
                    "of LlmGateway.complete(prompt, run_index) (see perfbench/README.md)")


@contextmanager
def run_index_hook(gateway_cls):
    """Publish the run index of each ``complete`` call to the simulated model.

    The transport interface is ``(config, prompt)``; the run index reaches
    the model through a thread-local set around the gateway's own
    per-request method, which runs on the worker thread that calls the
    transport.  This depends on ``LlmGateway.complete`` taking a
    ``run_index`` argument and calling the transport on its own thread; if
    it does not, the hook raises, or the model counts the calls it got
    outside the hook and ``SimulatedChatModel.check_hooked`` raises.
    """
    original = gateway_cls.complete
    try:
        signature = inspect.signature(original)
    except (TypeError, ValueError):
        signature = None
    if signature is None or "run_index" not in signature.parameters:
        raise RuntimeError(HOOK_NOT_REACHED)

    def complete(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        _current_run.value = bound.arguments["run_index"]
        try:
            return original(*args, **kwargs)
        finally:
            _current_run.value = None

    gateway_cls.complete = complete
    try:
        yield
    finally:
        gateway_cls.complete = original


class SimulatedChatModel:
    """Gold lemmas with seeded, run-dependent imperfections.

    Error kinds mirror what real models do: skipped words, wordforms with
    a changed initial or a dropped letter, corrupted lemmas, quoted
    fields, leading explanation lines, and duplicated answer blocks.
    """

    def __init__(self, gold_by_words: dict[tuple[str, ...], tuple[str, ...]]):
        self.gold = gold_by_words
        self.unhooked = 0  # calls that came outside run_index_hook

    def check_hooked(self):
        if self.unhooked:
            raise RuntimeError(f"{HOOK_NOT_REACHED}; {self.unhooked} transport calls "
                               f"had no run index")

    @staticmethod
    def target_words(prompt_text: str) -> list[str]:
        lines = prompt_text.splitlines()
        for idx in range(len(lines) - 1, -1, -1):
            line = lines[idx]
            if line == "Sentence:":
                return [str(w) for w in ast.literal_eval(lines[idx + 1])]
            if line.startswith('Sentence: "'):
                return line[len('Sentence: "'):-1].split(" ")
        raise ValueError("no sentence block found in prompt")

    def __call__(self, config, prompt_text: str) -> str:
        run = getattr(_current_run, "value", None)
        if run is None:
            self.unhooked += 1  # a lost update only undercounts; compared with 0
            raise RuntimeError(HOOK_NOT_REACHED)
        words = self.target_words(prompt_text)
        lemmas = list(self.gold[tuple(words)])
        words = list(words)
        digest = hashlib.sha256(prompt_text.encode("utf-8")).hexdigest()[:16]
        rng = random.Random(f"run{run}|{digest}")

        if rng.random() < 0.20:  # wrong lemma for one word
            i = rng.randrange(len(words))
            lemmas[i] = words[i] + "o"
        if rng.random() < 0.18:  # modified wordform (near match)
            i = rng.randrange(len(words))
            if words[i][0].isupper():
                words[i] = words[i][0].lower() + words[i][1:]
            elif len(words[i]) >= 4:
                words[i] = words[i][:-1]
        if rng.random() < 0.18:  # skipped word
            i = rng.randrange(len(words))
            del words[i], lemmas[i]

        rows = [f"{w}\t{l}" for w, l in zip(words, lemmas)]
        if rng.random() < 0.10:  # one quoted field, harmless after stripping
            i = rng.randrange(len(rows))
            w, l = rows[i].split("\t")
            rows[i] = f'"{w}"\t{l}'
        if rng.random() < 0.12:  # leading explanation line
            rows.insert(0, "Here are the lemmas for each word:")
        if rng.random() < 0.08:  # duplicated answer block
            rows = rows + rows
        return "\n".join(rows)
