"""Command-line entry point: staged experiment pipeline.

Every subcommand takes the same JSON config and reads/writes the shared
output directory, so a full experiment is the stages of _STAGES that write
files, run in table order.  ``verify-cache`` re-hashes every record of the
configured response cache.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterator

from . import experiment, gateway
from .errors import LemmabenchError
from .experiment import ExperimentConfig

# Each stage function runs one stage and yields its summary lines.  It calls
# experiment.run_* through the module attribute when it runs, so a wrapper
# patched onto that attribute (a tracer, a test) sees the call.


def _ingest(cfg: ExperimentConfig) -> Iterator[str]:
    tokens, sentences = experiment.run_ingest(cfg)
    yield f"{cfg.corpus_name}: {sentences} sentences, {tokens} tokens -> {cfg.path('corpus')}"


def _split(cfg: ExperimentConfig) -> Iterator[str]:
    for part, (tokens, sentences) in experiment.run_split(cfg).sizes.items():
        yield f"{cfg.split_name(part)}: {sentences} sentences, {tokens} tokens"


def _induce(cfg: ExperimentConfig) -> Iterator[str]:
    inventory = experiment.run_induce(cfg)
    yield f"{len(inventory)} edit-script labels -> {cfg.path('inventory')}"


def _train_baseline(cfg: ExperimentConfig) -> Iterator[str]:
    model = experiment.run_train_baseline(cfg)
    forms, suffixes = len(model.form_table), len(model.suffix_table)
    yield f"baseline: {forms} forms, {suffixes} suffixes -> {cfg.path('model')}"


def _run(cfg: ExperimentConfig) -> Iterator[str]:
    experiment.run_predictions(cfg)
    for system in cfg.systems:
        keys = {"system": system.name, "split": cfg.split_name("test"), "run": 0}
        folder = cfg.path("predictions", **keys).parent
        yield f"{system.name}: {cfg.runs} run(s) -> {folder}"


def _score(cfg: ExperimentConfig) -> Iterator[str]:
    for report in experiment.run_score(cfg):
        mean, std = report.word_stats()
        yield f"{report.system} on {report.corpus}: word accuracy {mean:.4f} ± {std:.4f}"
    yield f"-> {cfg.path('runs')}, {cfg.path('scores')}"


def _compare(cfg: ExperimentConfig) -> Iterator[str]:
    for corpus, sys_a, sys_b, res in experiment.run_compare(cfg):
        verdict = "significant" if res.significant(cfg.alpha) else "not significant"
        yield f"{sys_a} vs {sys_b} on {corpus}: p={res.p_value:.6g} ({verdict})"
    yield f"-> {cfg.path('mcnemar')}"


def _report(cfg: ExperimentConfig) -> Iterator[str]:
    yield experiment.run_report(cfg).removesuffix("\n")  # the text ends in a line break


def _verify_cache(cfg: ExperimentConfig) -> Iterator[str]:
    cache = experiment.open_cache(cfg, must_hold_log=True)
    cache.close()
    yield f"{len(cache)} records sound -> {cache.log_path}"


# Each stage: its help text, its function, and the experiment.PATHS names of
# the files under --out it may read and of those it writes; predictions and
# diagnostics stand for the file of any system, split and run.  A test holds
# each row to the files the stage opens.
_STAGES = {
    "ingest": ("read the source corpus and write its canonical TSV", _ingest, (), ("corpus",)),
    "split": ("partition the corpus into train/dev/test", _split,
              ("corpus",), ("train", "dev", "test", "manifest")),
    "induce": ("build the edit-script label inventory from train", _induce,
               ("train",), ("inventory", "pair_labels")),
    "train-baseline": ("train the frequency baseline and score it on dev", _train_baseline,
                       ("inventory", "pair_labels", "dev"),
                       ("model", "predictions", "diagnostics")),
    "run": ("produce predictions for every configured system and run", _run,
            ("test", "dev", "model", "diagnostics"), ("predictions", "diagnostics")),
    "score": ("compute word/sentence accuracy per system and run", _score,
              ("test", "predictions", "diagnostics"), ("runs", "scores")),
    "compare": ("McNemar's test between system pairs", _compare,
                ("test", "predictions"), ("mcnemar",)),
    "report": ("render the human-readable report from the score and compare tables", _report,
               ("runs", "mcnemar"), ("report",)),
    "verify-cache": ("re-hash every record of the response cache", _verify_cache, (), ()),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lemmabench", description="Contextual lemmatization experiment pipeline."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, *_) in _STAGES.items():
        stage = sub.add_parser(name, help=help_text)
        stage.add_argument("--config", required=True, help="experiment JSON config")
        stage.add_argument("--out", help="override the configured output directory")
        if name == "run":
            stage.add_argument(
                "--cache-mode",
                choices=gateway.CACHE_MODES,
                help="override the configured response-cache mode",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = experiment.load_config(
            args.config, out_dir=args.out, cache_mode=getattr(args, "cache_mode", None)
        )
        for line in _STAGES[args.command][1](cfg):
            print(line)
    except LemmabenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # Typically a missing artifact because an earlier stage never ran.
        print(f"error: {exc} (have the earlier stages been run?)", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
