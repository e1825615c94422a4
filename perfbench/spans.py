"""Span tracer that times lemmabench's layers from outside.

``Tracer.install`` replaces each traced function with a wrapper that
records a span (name, start, end, thread, parent, pass) and the counts for
that boundary.  Patching a module attribute does not reach a name another
module bound with ``from ... import``, so every attribute of every loaded
lemmabench module whose value *is* the traced function is patched too;
whatever binding sites the program has, they are found by identity.  A
traced name the program no longer has is skipped and listed in
``Tracer.untraced``; its metrics then read 0.  Spans stay in memory until
the pass ends; counts are taken under the same lock.

``layer_metrics`` turns one pass's spans and counts into the per-layer
metrics; self time is a span's duration minus the time of its children.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (home module or module.Class, attribute, span name or None for counting
# only, counting hook name or None).  Several functions may share a span name.
TRACED = [
    ("experiment", "load_config", "experiment.load_config", None),
    *[("experiment", f"run_{stage}", f"experiment.run_{stage}", None)
      for stage in ("ingest", "split", "induce", "train_baseline", "predictions", "score",
                    "compare", "report")],
    ("corpus", "ingest_tsv", "corpus.read", "tokens_read"),
    ("corpus", "ingest_conllu", "corpus.read", "tokens_read"),
    ("corpus", "write_tsv", "corpus.write", None),
    ("corpus", "write_split_manifest", "corpus.write", None),
    ("corpus", "make_splits", "corpus.split", None),
    ("corpus", "reduce_corpus", "corpus.split", None),
    ("corpus", "corpus_stats", "corpus.stats", None),
    ("editscript", "induce", "editscript.induce", "induce_pair"),
    ("editscript", "apply", "editscript.apply", None),
    ("editscript", "build_inventory", "editscript.build_inventory", None),
    ("editscript", "write_inventory", "editscript.inventory_io", None),
    ("editscript", "read_inventory", "editscript.inventory_io", None),
    ("baseline", "train", "baseline.train", None),
    ("baseline", "predict", "baseline.predict", "predict_tokens"),
    ("baseline", "write_model", "baseline.model_io", None),
    ("baseline", "read_model", "baseline.model_io", None),
    ("prompt", "select_examples", "prompt.select", None),
    ("prompt", "render_prompt", "prompt.render", "prompt_bytes"),
    ("gateway", "request_fingerprint", "gateway.fingerprint", None),
    ("gateway.ResponseCache", "__init__", "gateway.cache_load", "cache_entries"),
    ("gateway.ResponseCache", "__contains__", None, "cache_hit"),
    ("gateway.ResponseCache", "get", "gateway.cache_get", None),
    ("gateway.ResponseCache", "put", "gateway.cache_put", None),
    ("gateway.LlmGateway", "complete", "gateway.complete", None),
    ("gateway.LlmGateway", "run_batch", "gateway.run_batch", "item_failures"),
    ("align", "align_sequences", "align.sequences", "dp_cells"),
    ("align", "align", "align.align", None),
    ("align", "parse_output", "align.parse", "parse_rows"),
    *[("align", f"{verb}_{kind}", f"align.{kind}_io", None)
      for verb in ("read", "write") for kind in ("predictions", "diagnostics")],
    ("evaluation", "score_run", "evaluation.score", None),
    ("evaluation", "correctness_vector", "evaluation.mcnemar", None),
    ("evaluation", "mcnemar", "evaluation.mcnemar", None),
    ("evaluation", "render_scores_tsv", "evaluation.render", None),
    ("evaluation", "render_mcnemar_tsv", "evaluation.render", None),
    ("evaluation", "render_report_text", "evaluation.render", None),
]


class Tracer:
    """In-memory spans and counts of one pass; safe to use from the gateway's threads."""

    def __init__(self, pass_id: int = 0):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.spans: list[tuple[int, int, str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.pairs: set = set()
        self.pass_id = pass_id
        self.untraced: list[str] = []  # traced names the program does not have

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            record = (span_id, parent, name, start, end, threading.get_ident(), self.pass_id)
            with self._lock:
                self.spans.append(record)

    def count(self, key: str, amount: int = 1):
        with self._lock:
            self.counts[key] += amount

    def _hook(self, hook, args, result):
        if hook == "tokens_read":
            self.count("corpus.tokens_read", sum(len(s) for s in result.sentences))
        elif hook == "induce_pair":
            with self._lock:
                self.pairs.add((args[0], args[1]))
        elif hook == "predict_tokens":
            self.count("baseline.predict_tokens", len(args[1].tokens))
        elif hook == "prompt_bytes":
            self.count("prompt.bytes", len(result.encode("utf-8")))
        elif hook == "cache_entries":
            self.count("gateway.cache_entries", len(args[0]))
        elif hook == "cache_hit":
            self.count("gateway.cache_hits" if result else "gateway.cache_misses")
        elif hook == "item_failures":
            self.count("gateway.item_failures", len(result.failures))
        elif hook == "dp_cells":
            self.count("align.dp_cells", len(args[0]) * len(args[1]))
        elif hook == "parse_rows":
            self.count("align.parse_rows", len(result.pairs))
            self.count("align.parse_rejects", len(result.rejects))

    def _wrap(self, fn, name: str | None, hook: str | None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                with self.span(name):
                    result = fn(*args, **kwargs)
            if hook is not None:
                self._hook(hook, args, result)
            return result

        return traced

    @contextmanager
    def install(self, modules: dict):
        """Patch every binding site of every traced function.

        ``modules`` maps short names to lemmabench modules; a method is
        patched on its class, a function wherever a loaded lemmabench
        module binds it.
        """
        loaded = [module for name, module in list(sys.modules.items())
                  if name == "lemmabench" or name.startswith("lemmabench.")]
        saved = []
        try:
            for home, attr, name, hook in TRACED:
                head, _, cls = home.partition(".")
                owner = modules.get(head)
                if owner is not None and cls:
                    owner = getattr(owner, cls, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if not callable(original):
                    self.untraced.append(f"{home}.{attr}")
                    continue
                wrapped = self._wrap(original, name, hook)
                sites = [owner] if cls else loaded
                for site in sites:
                    for key, value in list(vars(site).items()):
                        if value is original:
                            saved.append((site, key, value))
                            setattr(site, key, wrapped)
            yield self
        finally:
            for site, key, original in reversed(saved):
                setattr(site, key, original)

    def wrap_transport(self, transport):
        """Span around the benchmark's own transport callable."""
        return self._wrap(transport, "gateway.transport", None)

    def write(self, path):
        """Append every span as TSV: id, parent, name, start, end, thread, pass."""
        with open(path, "a", encoding="utf-8") as fh:
            if fh.tell() == 0:
                fh.write("# columns = id\tparent\tname\tstart_s\tend_s\tthread\tpass\n")
            for span_id, parent, name, start, end, thread, pass_id in self.spans:
                fh.write(f"{span_id}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\t"
                         f"{thread}\t{pass_id}\n")


# Per-layer metric name -> (kind, span or count name); kinds: dur (summed
# duration), self (summed self time), calls (span count), count (counter).
_SIMPLE = {
    "corpus.read_s": ("dur", "corpus.read"),
    "corpus.read_calls": ("calls", "corpus.read"),
    "corpus.tokens_read": ("count", "corpus.tokens_read"),
    "corpus.write_s": ("dur", "corpus.write"),
    "corpus.split_s": ("dur", "corpus.split"),
    "editscript.induce_s": ("dur", "editscript.induce"),
    "editscript.induce_calls": ("calls", "editscript.induce"),
    "editscript.apply_s": ("dur", "editscript.apply"),
    "editscript.apply_calls": ("calls", "editscript.apply"),
    "editscript.inventory_io_s": ("dur", "editscript.inventory_io"),
    "baseline.train_self_s": ("self", "baseline.train"),
    "baseline.predict_s": ("dur", "baseline.predict"),
    "baseline.predict_tokens": ("count", "baseline.predict_tokens"),
    "baseline.model_io_s": ("dur", "baseline.model_io"),
    "prompt.select_s": ("dur", "prompt.select"),
    "prompt.render_s": ("dur", "prompt.render"),
    "prompt.render_calls": ("calls", "prompt.render"),
    "prompt.bytes": ("count", "prompt.bytes"),
    "gateway.cache_load_s": ("dur", "gateway.cache_load"),
    "gateway.cache_entries": ("count", "gateway.cache_entries"),
    "gateway.fingerprint_s": ("dur", "gateway.fingerprint"),
    "gateway.fingerprint_calls": ("calls", "gateway.fingerprint"),
    "gateway.cache_get_s": ("dur", "gateway.cache_get"),
    "gateway.cache_hits": ("count", "gateway.cache_hits"),
    "gateway.cache_misses": ("count", "gateway.cache_misses"),
    "gateway.cache_put_s": ("dur", "gateway.cache_put"),
    "gateway.cache_puts": ("calls", "gateway.cache_put"),
    "gateway.transport_s": ("dur", "gateway.transport"),
    "gateway.transport_calls": ("calls", "gateway.transport"),
    "gateway.item_failures": ("count", "gateway.item_failures"),
    "gateway.batch_wall_s": ("dur", "gateway.run_batch"),
    "gateway.complete_busy_s": ("dur", "gateway.complete"),
    "align.sequences_s": ("dur", "align.sequences"),
    "align.sequences_calls": ("calls", "align.sequences"),
    "align.dp_cells": ("count", "align.dp_cells"),
    "align.parse_s": ("dur", "align.parse"),
    "align.parse_rows": ("count", "align.parse_rows"),
    "align.parse_rejects": ("count", "align.parse_rejects"),
    "align.predictions_io_s": ("dur", "align.predictions_io"),
    "align.diagnostics_io_s": ("dur", "align.diagnostics_io"),
    "evaluation.score_s": ("dur", "evaluation.score"),
    "evaluation.mcnemar_s": ("dur", "evaluation.mcnemar"),
    "evaluation.render_s": ("dur", "evaluation.render"),
    "experiment.config_load_s": ("dur", "experiment.load_config"),
    "cli.self_s": ("self", "cli.main"),
}

METRIC_UNITS = {
    name: ("s" if name.endswith("_s") else "count") for name in _SIMPLE
} | {
    "editscript.induce_distinct": "count",
    "editscript.induce_useful_ratio": "ratio",
    "gateway.parallel_efficiency": "ratio",
    "experiment.score_s": "s",
    "experiment.compare_s": "s",
    "experiment.report_s": "s",
    "experiment.self_s": "s",
}


def layer_metrics(spans, counts: Counter, pairs: set, parallelism: int) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans and counts."""
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for span_id, parent, _, start, end, _, _ in spans:
        if parent in by_id:
            child_time[parent] += end - start
    dur: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for span_id, parent, name, start, end, _, _ in spans:
        dur[name] += end - start
        self_time[name] += end - start - child_time[span_id]
        calls[name] += 1
    sources = {"dur": dur, "self": self_time, "calls": calls, "count": counts}
    out = {metric: float(sources[kind].get(key, 0)) for metric, (kind, key) in _SIMPLE.items()}

    induce_calls = out["editscript.induce_calls"]
    out["editscript.induce_distinct"] = float(len(pairs))
    out["editscript.induce_useful_ratio"] = len(pairs) / induce_calls if induce_calls else 0.0
    wall = out["gateway.batch_wall_s"]
    out["gateway.parallel_efficiency"] = (
        out["gateway.complete_busy_s"] / (wall * parallelism) if wall else 0.0
    )
    # The reporting stages as the CLI invoked them (run_report nests the others).
    for stage in ("score", "compare", "report"):
        out[f"experiment.{stage}_s"] = sum(
            end - start
            for _, parent, name, start, end, _, _ in spans
            if name == f"experiment.run_{stage}" and parent in by_id
            and by_id[parent][2] == "cli.main"
        )
    out["experiment.self_s"] = sum(
        t for name, t in self_time.items() if name.startswith("experiment.run_")
    )
    return out
