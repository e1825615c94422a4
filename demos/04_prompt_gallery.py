"""
Prompt gallery
==============

Prompts are rendered byte-for-byte from fixed templates: a basic and a
full (instruction-bearing) variant, the target sentence as either a plain
string or a word list, and zero to five worked examples.  Because scoring
is sensitive to every character the model sees, rendering is exact — the
test suite pins these outputs as golden files.
"""

from pathlib import Path

from lemmabench.corpus import SplitSpec, ingest_conllu, make_splits
from lemmabench.prompt import (
    BASIC,
    FULL,
    MOST_ERRORS,
    SENTENCE_STRING,
    WORD_LIST,
    PromptSpec,
    render_prompt,
    select_examples,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

corpus = ingest_conllu(FIXTURES / "corpora" / "es_fix.conllu", name="es_fix")
_, dev, test = make_splits(corpus, SplitSpec(40, 15, 25))
target = test.sentences[0]

# The basic template, zero-shot, sentence-as-string:
spec = PromptSpec(BASIC, SENTENCE_STRING, shots=0, selection="random", language_name="Spanish")
print(render_prompt(spec, [], target))

print("\n" + "=" * 72 + "\n")

# The full template adds eight numbered instructions; examples are picked
# from the dev split.  Here: the two dev sentences where a previously
# scored system made the most errors (see the diagnostics fixture).
from lemmabench.align import read_diagnostics

_, diagnostics = read_diagnostics(FIXTURES / "diagnostics" / "es_fix-dev.diag.json")
examples = select_examples(MOST_ERRORS, 2, dev, dev_diagnostics=diagnostics)
spec = PromptSpec(FULL, WORD_LIST, shots=2, selection=MOST_ERRORS, language_name="Spanish")
print(render_prompt(spec, examples, target))

print("\n" + "=" * 72 + "\n")

# Any annotated sentence can serve as a worked example.
example = dev.sentences[3]
print(f"example sentence {example.id} carries {len(example.gold_pairs())} gold pairs")
