"""Synthetic noisy-output generator with exactly known error taxonomy.

Input tokens are built pairwise far apart (edit distance >= 2, no case
variants), so every perturbation lands in a predictable category:

- skipping a row        -> one missing word
- one-edit wordform     -> one wrong word (lemma still aligned)
- junk / reject / dup   -> one random output each
- wrong lemma, quoting  -> no taxonomy change (alignment is about words)
"""

import random

from lemmabench.corpus import Sentence


def _wordform(i: int) -> str:
    return f"tok{i}{i}end"  # doubled index keeps any two forms >= 2 edits apart


def make_case(rng: random.Random, sentence_id: str = "synth-0", n_tokens: int | None = None):
    """Build (sentence, raw_text, expected_counts, expected_slots); the
    sentence has n_tokens tokens, or 5-12 drawn from rng."""
    n = n_tokens or rng.randint(5, 12)
    words = [_wordform(i) for i in range(n)]
    golds = [f"lemma{i}" for i in range(n)]
    sentence = Sentence(id=sentence_id, wordforms=tuple(words), lemmas=tuple(golds))

    lines: list[str] = []
    slots: list[str | None] = [None] * n
    missing = wrong = noise = 0

    if rng.random() < 0.3:
        lines.append("Here are the lemmas for each word:")
        noise += 1

    for i, (word, gold) in enumerate(zip(words, golds)):
        roll = rng.random()
        if roll < 0.15:
            missing += 1  # row skipped entirely
            continue
        lemma = gold + "x" if roll < 0.35 else gold  # sometimes a wrong lemma
        slots[i] = lemma
        if roll >= 0.35 and roll < 0.50:
            word = word[0].upper() + word[1:]  # near match: case change
            wrong += 1
        elif roll >= 0.50 and roll < 0.60:
            word = word[:-1]  # near match: one deletion
            wrong += 1
        field_word = f'"{word}"' if rng.random() < 0.1 else word
        lines.append(f"{field_word}\t{lemma}")
        if rng.random() < 0.08:
            lines.append(f"{word}\t{lemma}")  # duplicated row cannot re-match
            noise += 1

    if rng.random() < 0.3:
        junk = f"zzq{rng.randint(0, 9)}junk"
        lines.insert(rng.randint(0, len(lines)), f"{junk}\t{junk}")
        noise += 1
    if rng.random() < 0.2:
        lines.append("```")
        noise += 1

    counts = {"missing": missing, "wrong": wrong, "random": noise}
    return sentence, "\n".join(lines), counts, tuple(slots)
