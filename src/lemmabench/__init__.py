"""lemmabench: batch experiments for LLM-based contextual lemmatization.

Corpus ingestion and splits, edit-script induction, a frequency baseline,
deterministic prompt rendering, a record/replay LLM gateway, alignment of
messy model output back to input tokens, and paired statistical scoring.
"""

from .align import AlignedPrediction, ParsedOutput, align, parse_output
from .baseline import BaselineModel, predict, predict_identity, train
from .corpus import (
    Corpus,
    Sentence,
    SplitSpec,
    Token,
    corpus_stats,
    ingest_conllu,
    ingest_tsv,
    make_splits,
)
from .editscript import EditScript, LabelInventory, apply, build_inventory, induce
from .errors import LemmabenchError
from .evaluation import (
    EvalReport,
    McNemarResult,
    aggregate_runs,
    mcnemar,
    sentence_accuracy,
    word_accuracy,
)
from .gateway import LlmGateway, LlmResponse, ProviderConfig, ResponseCache
from .prompt import PromptSpec, render_prompt, select_examples

__version__ = "0.1.0"

__all__ = [
    "AlignedPrediction",
    "BaselineModel",
    "Corpus",
    "EditScript",
    "EvalReport",
    "LabelInventory",
    "LemmabenchError",
    "LlmGateway",
    "LlmResponse",
    "McNemarResult",
    "ParsedOutput",
    "PromptSpec",
    "ProviderConfig",
    "ResponseCache",
    "Sentence",
    "SplitSpec",
    "Token",
    "aggregate_runs",
    "align",
    "apply",
    "build_inventory",
    "corpus_stats",
    "induce",
    "ingest_conllu",
    "ingest_tsv",
    "make_splits",
    "mcnemar",
    "parse_output",
    "predict",
    "predict_identity",
    "render_prompt",
    "select_examples",
    "sentence_accuracy",
    "train",
    "word_accuracy",
    "__version__",
]
