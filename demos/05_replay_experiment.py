"""
A complete experiment, replayed offline
=======================================

The pipeline is eight stages that communicate only through files in the
output directory, so any stage can be rerun or inspected in isolation.
This demo drives all of them against the bundled response cache — the
gateway replays recorded completions, so no network is involved and the
resulting report is bit-identical on every run.

The CLI equivalent, stage by stage:

    lemmabench ingest         --config fixtures/replay/config.json --out /tmp/demo
    lemmabench split          --config ... --out ...
    lemmabench induce         --config ... --out ...
    lemmabench train-baseline --config ... --out ...
    lemmabench run            --config ... --out ... --cache-mode replay
    lemmabench score          --config ... --out ...
    lemmabench compare        --config ... --out ...
    lemmabench report         --config ... --out ...
"""

import tempfile
from pathlib import Path

from lemmabench import experiment

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

with tempfile.TemporaryDirectory(prefix="lemmabench-demo-") as out_dir:
    cfg = experiment.load_config(FIXTURES / "replay" / "config.json", out_dir=out_dir)
    print(f"experiment {cfg.name} (config hash {cfg.config_hash})")
    print(f"systems: {', '.join(s.name for s in cfg.systems)}; {cfg.runs} runs each\n")

    experiment.run_ingest(cfg)
    experiment.run_split(cfg)
    experiment.run_induce(cfg)
    experiment.run_train_baseline(cfg)
    experiment.run_predictions(cfg)  # replay mode: served entirely from cache
    experiment.run_score(cfg)
    experiment.run_compare(cfg)
    report = experiment.run_report(cfg)

    produced = sorted(p.relative_to(out_dir) for p in Path(out_dir).rglob("*") if p.is_file())
    print(f"{len(produced)} artifacts under {out_dir}:")
    for path in produced[:8]:
        print(f"  {path}")
    print("  ...\n")
    print(report)
