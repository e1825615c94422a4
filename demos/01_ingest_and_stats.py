"""
Ingesting corpora and making splits
===================================

Walks through reading an annotated corpus, counting what is in it,
capping its size, and cutting reproducible train/dev/test partitions.
"""

from pathlib import Path

from lemmabench.corpus import (
    SplitSpec,
    corpus_stats,
    ingest_conllu,
    ingest_tsv,
    make_splits,
    reduce_corpus,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

# A ten-column treebank file: multiword-token ranges and empty nodes are
# skipped automatically, and "_" lemmas come back as None.
corpus = ingest_conllu(FIXTURES / "corpora" / "es_fix.conllu", name="es_fix")
tokens, sentences = corpus_stats(corpus)
print(f"{corpus.name}: {sentences} sentences, {tokens} tokens")

first = corpus.sentences[0]
print(f"first sentence ({first.id}):")
for token in first.tokens[:6]:
    print(f"  {token.wordform:<12} -> {token.lemma}")

# The same API reads two-column wordform/lemma TSV.
basque = ingest_tsv(FIXTURES / "corpora" / "eu_fix.tsv", name="eu_fix")
print(f"{basque.name}: {corpus_stats(basque)[1]} sentences, {corpus_stats(basque)[0]} tokens")

# Experiments on a budget: keep only the first 50 sentences (a seeded
# random subset is available with rule="seeded-random").
small = reduce_corpus(corpus, 50, rule="first-n")
print(f"reduced: {corpus_stats(small)[1]} sentences")

# Splits are consecutive sentence blocks; sizes are explicit so the
# arithmetic is visible in the config rather than hidden in ratios.
train, dev, test = make_splits(corpus, SplitSpec(train_count=40, dev_count=15, test_count=25))
for part in (train, dev, test):
    part_tokens, part_sentences = corpus_stats(part)
    print(f"{part.name}: {part_sentences} sentences, {part_tokens} tokens")

# Sentence ids survive splitting, so every later artifact can refer back.
print(f"dev starts at {dev.sentences[0].id}, test starts at {test.sentences[0].id}")
