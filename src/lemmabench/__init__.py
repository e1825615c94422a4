"""lemmabench: batch experiments for LLM-based contextual lemmatization.

Corpus ingestion and splits, edit-script induction, a frequency baseline,
deterministic prompt rendering, a record/replay LLM gateway, alignment of
messy model output back to input tokens, and paired statistical scoring.
The package re-exports nothing: import each name from its module, e.g.
``from lemmabench.corpus import Sentence``.
"""

__version__ = "0.1.0"
