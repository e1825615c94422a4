"""
Minimum edit scripts between wordforms and lemmas
=================================================

An edit script records how to turn a wordform into its lemma: an optional
first-letter case change, then prefix and suffix surgery.  Induction finds
the cheapest such script; a label inventory collects every script seen in
a training corpus so the whole transformation space becomes a label set.
"""

from pathlib import Path

from lemmabench.corpus import SplitSpec, ingest_conllu, make_splits
from lemmabench.editscript import apply, build_inventory, induce, pair_scripts

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

# A few instructive pairs.  Note "chosen" -> "choose": the cheapest script
# keeps the shared "cho" and rewrites only the suffix.
for wordform, lemma in [
    ("chosen", "choose"),
    ("los", "el"),
    ("Casas", "casa"),   # case flag + strip plural -s
    ("niños", "niño"),
    ("went", "go"),      # no shared material: whole-word replacement
]:
    script = induce(wordform, lemma)
    assert apply(script, wordform) == lemma
    print(f"{wordform:>8} -> {lemma:<8} {script.encode():<28} size {script.edit_size}")

# Scripts generalize: one induced on "perros" applies to any -os plural.
plural = induce("perros", "perro")
for other in ("gatos", "libros", "caminos"):
    print(f"apply {plural.encode()} to {other}: {apply(plural, other)}")

# Build the label inventory from a training split.  Frequent scripts get
# low ids; this ordering also breaks frequency ties downstream.
corpus = ingest_conllu(FIXTURES / "corpora" / "es_fix.conllu", name="es_fix")
train, _, _ = make_splits(corpus, SplitSpec(40, 15, 25))
inventory = build_inventory(pair_scripts(train))
total = sum(freq for _, _, freq in inventory.items())
print(f"\n{len(inventory)} distinct scripts cover {total} training tokens")
print("most frequent:")
for label_id, script, frequency in inventory.items()[:5]:
    print(f"  id {label_id:>2}  x{frequency:<4} {script.encode()}")
