"""Smallest-scale checks of the benchmark: results schema and tracer coverage.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import synth  # noqa: E402

WORKLOADS = ("baseline-100k", "llm-replay-long", "llm-record-short")
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
DOCUMENTED_E2E = {"setup_s", "tokens_per_s", "stage.ingest_s", "stage.split_s", "stage.induce_s",
             "stage.train_baseline_s", "stage.run_s", "stage.reporting_s", "peak_rss_mb",
             "ops_failed"}

# Per-layer counts that must be nonzero on every workload, and on the LLM ones.
EVERYWHERE = ("corpus.read_calls", "corpus.tokens_read", "corpus.write_s", "corpus.split_s",
              "editscript.induce_calls", "editscript.induce_distinct", "editscript.apply_calls",
              "editscript.inventory_io_s", "baseline.train_self_s", "baseline.predict_tokens",
              "baseline.model_io_s", "align.predictions_io_s", "align.diagnostics_io_s",
              "evaluation.score_s", "evaluation.mcnemar_s", "evaluation.render_s",
              "experiment.config_load_s", "experiment.score_s", "experiment.compare_s",
              "experiment.report_s", "experiment.self_s", "cli.self_s")
LLM = ("prompt.select_s", "prompt.render_calls", "prompt.bytes", "gateway.fingerprint_calls",
       "gateway.batch_wall_s", "gateway.complete_busy_s", "align.sequences_calls",
       "align.dp_cells", "align.parse_rows")
NONZERO = {
    "baseline-100k": EVERYWHERE,
    "llm-replay-long": EVERYWHERE + LLM + ("gateway.cache_load_s", "gateway.cache_entries",
                                           "gateway.cache_get_s", "gateway.cache_hits"),
    "llm-record-short": EVERYWHERE + LLM + ("gateway.cache_misses", "gateway.cache_put_s",
                                            "gateway.cache_puts", "gateway.transport_calls"),
}
ZERO = {
    "llm-replay-long": ("gateway.cache_misses", "gateway.cache_puts", "gateway.transport_calls",
                        "gateway.item_failures"),
    "llm-record-short": ("gateway.cache_hits", "gateway.cache_entries", "gateway.item_failures"),
}

# A seed without a pin: the small inputs below are not the pinned ones.
SEED = 1000
SCALE = 0.02

_results: dict = {}


def scaled(workload: harness.Workload, scale: float) -> harness.Workload:
    """The workload with its sentence counts and lexicon shrunk by `scale`."""
    shape = workload.shape
    return replace(workload, shape=replace(
        shape,
        train=max(8, round(shape.train * scale)),
        dev=max(6, round(shape.dev * scale)),
        test=max(4, round(shape.test * scale)),
        lemmas=max(200, round(shape.lemmas * scale)),
    ))


def _run(workload: str, trace: int, capsys, monkeypatch, tmp_path) -> tuple[dict, list[str]]:
    if (workload, trace) not in _results:
        monkeypatch.setitem(harness.WORKLOADS, workload,
                            scaled(harness.WORKLOADS[workload], SCALE))
        monkeypatch.setattr(run, "RESULTS", tmp_path)
        argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "0",
                "--trace", str(trace)]
        assert run.main(argv) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        _results[workload, trace] = (json.loads(lines[-1]), lines[:-1])
        # Each pass ran in a process of its own, none in this one.
        [record] = tmp_path.glob("*.json")
        pids = json.loads(record.read_text("utf-8"))["pass_pids"]
        assert len(pids) >= 2 and len(set(pids)) == len(pids) and os.getpid() not in pids
    return _results[workload, trace]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_results_schema(workload, trace, capsys, monkeypatch, tmp_path):
    result, lines = _run(workload, trace, capsys, monkeypatch, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    printed = {line.split()[1] for line in lines if line.startswith("# ") and " = " in line}
    if trace:
        assert {"trace.tokens_per_s", "trace.untraced_tokens_per_s", "trace.overhead"} <= printed
    else:
        assert DOCUMENTED_E2E <= printed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_match_layer_predictions(workload, capsys, monkeypatch, tmp_path):
    result = _run(workload, 1, capsys, monkeypatch, tmp_path)[0]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert [name for name in NONZERO[workload] if not metrics[name]] == []
    if workload == "baseline-100k":
        idle = [name for name, unit in run.per_layer_units().items()
                if name.split(".")[0] in ("gateway", "prompt", "align") and unit == "count"]
        assert idle and all(metrics[name] == 0 for name in idle)
    else:
        assert [name for name in ZERO[workload] if metrics[name]] == []


def test_tracer_patches_every_binding_site_by_identity():
    lb = harness.load_lemmabench()
    induce, align = lb["editscript"].induce, lb["align"].align
    tracer = spans.Tracer()
    with tracer.install(lb):
        # Names bound with `from ... import` are wrapped too.
        assert lb["baseline"].induce is lb["editscript"].induce is not induce
        assert lb["experiment"].align_prediction is lb["align"].align is not align
        lb["baseline"].induce("casas", "casa")
    assert lb["baseline"].induce is induce and lb["experiment"].align_prediction is align
    assert [s[2] for s in tracer.spans] == ["editscript.induce"]
    assert tracer.pairs == {("casas", "casa")} and tracer.untraced == []


def test_tracer_skips_names_the_program_lacks(monkeypatch):
    lb = harness.load_lemmabench()
    monkeypatch.delattr(lb["baseline"], "read_model")
    monkeypatch.delattr(lb["gateway"].ResponseCache, "__contains__")
    tracer = spans.Tracer()
    with tracer.install(lb):
        pass
    assert tracer.untraced == ["baseline.read_model", "gateway.ResponseCache.__contains__"]


def test_run_index_hook_fails_clearly_when_it_cannot_be_reached():
    class Gateway:
        def complete(self, prompt):
            return prompt

    with pytest.raises(RuntimeError, match="benchmark hook not reached"):
        with synth.run_index_hook(Gateway):
            pass
    model = synth.SimulatedChatModel({("Casas",): ("casa",)})
    with pytest.raises(RuntimeError, match="benchmark hook not reached"):
        model(None, 'Sentence: "Casas"')
    with pytest.raises(RuntimeError, match="1 transport calls"):
        model.check_hooked()
