"""
The frequency-table baseline
============================

The baseline memorizes, for every training wordform and for every
wordform suffix, the most common edit script — then lemmatizes unseen
text by longest-suffix lookup.  It is fast, deterministic, and a useful
floor for judging anything fancier.
"""

from pathlib import Path

from lemmabench.baseline import predict, predict_identity, train
from lemmabench.corpus import SplitSpec, ingest_conllu, make_splits
from lemmabench.editscript import build_inventory, pair_scripts
from lemmabench.evaluation import score_run

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

corpus = ingest_conllu(FIXTURES / "corpora" / "es_fix.conllu", name="es_fix")
train_part, dev, _ = make_splits(corpus, SplitSpec(40, 15, 25))

# Induce one script per distinct (wordform, lemma) pair; the inventory and
# the model both count them by the tokens that carry them.
pairs = pair_scripts(train_part.sentences)
inventory = build_inventory(pairs)
model = train(pairs, inventory, max_suffix_len=5)
print(f"learned {len(model.form_table)} forms and {len(model.suffix_table)} suffixes")

# Predict one dev sentence.  Lookup is casefolded, but the chosen script
# is applied to the original wordform, so capitalization is handled.
example = dev.sentences[0]
predicted = predict(model, example)
print(f"\n{example.id}:")
for form, gold, lemma in zip(example.wordforms, example.lemmas, predicted):
    marker = "" if lemma == gold else f"   (gold: {gold})"
    print(f"  {form:<14} -> {lemma:<14}{marker}")

# Against the do-nothing lemmatizer on the whole dev split:
baseline_slots = {s.id: predict(model, s) for s in dev.sentences}
identity_slots = {s.id: predict_identity(s) for s in dev.sentences}
print(f"\nbaseline dev word accuracy: {score_run(baseline_slots, dev).word_accuracy:.4f}")
print(f"identity dev word accuracy: {score_run(identity_slots, dev).word_accuracy:.4f}")
