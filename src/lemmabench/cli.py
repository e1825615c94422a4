"""Command-line entry point: staged experiment pipeline.

Every subcommand takes the same JSON config and reads/writes the shared
output directory, so a full experiment is just the stages in order:

    lemmabench ingest --config exp.json
    lemmabench split --config exp.json
    lemmabench induce --config exp.json
    lemmabench train-baseline --config exp.json
    lemmabench run --config exp.json --cache-mode replay
    lemmabench score --config exp.json
    lemmabench compare --config exp.json
    lemmabench report --config exp.json

``lemmabench verify-cache --config exp.json`` re-hashes every record of the
configured response cache.
"""

from __future__ import annotations

import argparse
import sys

from . import experiment, gateway
from .corpus import corpus_stats
from .errors import LemmabenchError

_STAGES = {
    "ingest": "read the source corpus and write its canonical TSV",
    "split": "partition the corpus into train/dev/test",
    "induce": "build the edit-script label inventory from train",
    "train-baseline": "train the frequency baseline and score it on dev",
    "run": "produce predictions for every configured system and run",
    "score": "compute word/sentence accuracy per system and run",
    "compare": "McNemar's test between system pairs",
    "report": "render the human-readable report from the score and compare tables",
    "verify-cache": "re-hash every record of the response cache",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lemmabench", description="Contextual lemmatization experiment pipeline."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _STAGES.items():
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
        layout = experiment.Layout(cfg)
        if args.command == "ingest":
            corpus = experiment.run_ingest(cfg)
            tokens, sentences = corpus_stats(corpus)
            print(f"{corpus.name}: {sentences} sentences, {tokens} tokens -> {layout.corpus_tsv()}")
        elif args.command == "split":
            splits = experiment.run_split(cfg)
            for part, sub_corpus in splits.items():
                tokens, sentences = corpus_stats(sub_corpus)
                print(f"{sub_corpus.name}: {sentences} sentences, {tokens} tokens")
        elif args.command == "induce":
            inventory = experiment.run_induce(cfg)
            print(f"{len(inventory)} edit-script labels -> {layout.inventory()}")
        elif args.command == "train-baseline":
            model = experiment.run_train_baseline(cfg)
            print(
                f"baseline: {len(model.form_table)} forms, "
                f"{len(model.suffix_table)} suffixes -> {layout.model()}"
            )
        elif args.command == "run":
            experiment.run_predictions(cfg)
            for system in cfg.systems:
                print(f"{system.name}: {cfg.runs} run(s) -> {layout.predictions(system.name, f'{cfg.corpus_name}-test', 0).parent}")
        elif args.command == "score":
            reports = experiment.run_score(cfg)
            for report in reports:
                mean, std = report.word_stats()
                print(f"{report.system} on {report.corpus}: word accuracy {mean:.4f} ± {std:.4f}")
            print(f"-> {layout.runs()}, {layout.scores()}")
        elif args.command == "compare":
            rows = experiment.run_compare(cfg)
            for corpus, sys_a, sys_b, res in rows:
                verdict = "significant" if res.significant(cfg.alpha) else "not significant"
                print(f"{sys_a} vs {sys_b} on {corpus}: p={res.p_value:.6g} ({verdict})")
            print(f"-> {layout.mcnemar()}")
        elif args.command == "report":
            print(experiment.run_report(cfg), end="")
        elif args.command == "verify-cache":
            cache = gateway.ResponseCache(cfg.cache_dir)  # loading checks every digest
            cache.close()
            print(f"{len(cache)} records sound -> {cache.log_path}")
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
