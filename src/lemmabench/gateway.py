"""Chat-completion gateway with a record/replay response cache.

Every request is identified by a fingerprint over (model, prompt, run
index, sampling parameters).  In ``record`` mode responses are fetched
from the provider and appended to an on-disk cache; in ``replay`` mode
the cache is the only source and any miss is an error, which makes whole
experiments reproducible offline.  ``live`` bypasses the cache entirely.

The HTTP layer is a plain callable ``(config, prompt) -> str`` so tests
can substitute a stub without any network or monkeypatching.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .errors import CacheFormatError, CacheMissError, ConfigError, TransportError

LIVE = "live"
RECORD = "record"
REPLAY = "replay"

CACHE_FORMAT = "lemmabench-cache/1"

# HTTP statuses worth retrying: rate limits and transient server errors.
_RETRY_STATUSES = {429, 500, 502, 503, 504}


@dataclass(frozen=True)
class ProviderConfig:
    """Where and how to call an OpenAI-style chat-completions endpoint."""

    base_url: str = "https://api.openai.com/v1"
    model: str = "gpt-4o-mini"
    api_key_env: str = "OPENAI_API_KEY"
    temperature: float = 1.0
    top_p: float = 1.0
    max_tokens: int | None = None
    timeout: float = 60.0
    max_retries: int = 4
    retry_backoff: float = 1.0

    def sampling(self) -> dict:
        params: dict = {"temperature": self.temperature, "top_p": self.top_p}
        if self.max_tokens is not None:
            params["max_tokens"] = self.max_tokens
        return params


@dataclass(frozen=True)
class LlmResponse:
    raw_text: str
    request_fingerprint: str
    latency: float
    origin: str  # "provider" or "cache"


@dataclass
class BatchResult:
    """Outcome of a multi-run batch; failures are recorded, not raised."""

    responses: list[list[LlmResponse | None]]
    failures: list[tuple[int, int, str]] = field(default_factory=list)  # (run, item, reason)

    def failed_items(self, run: int) -> set[int]:
        return {item for r, item, _ in self.failures if r == run}


def request_fingerprint(config: ProviderConfig, prompt: str, run_index: int) -> str:
    """Stable identity of one request; run index makes repeat runs distinct."""
    payload = {
        "model": config.model,
        "prompt": prompt,
        "run": run_index,
        "sampling": config.sampling(),
    }
    blob = json.dumps(payload, ensure_ascii=False, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResponseCache:
    """Append-only store: an index TSV plus one text file per response."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._lock = threading.Lock()
        self._index: dict[str, str] = {}
        self._torn_tail = 0  # bytes of an unfinished last index line
        self._prepared = False  # directories and index header exist
        self._load()

    @property
    def index_path(self) -> Path:
        return self.root / "index.tsv"

    def _record_path(self, fingerprint: str) -> Path:
        return self.root / "records" / f"{fingerprint}.txt"

    def _load(self):
        if not self.index_path.exists():
            return
        lines = self.index_path.read_text("utf-8").split("\n")
        for line_no, line in enumerate(lines, start=1):
            if not line or line.startswith("#"):
                continue
            if "\t" not in line:
                if line_no == len(lines):
                    # No newline yet: an append cut short, whose record was
                    # never indexed.  put() cuts it off before appending.
                    self._torn_tail = len(line.encode("utf-8"))
                    continue
                raise CacheFormatError(f"{self.index_path}:{line_no}: index line has no tab")
            fingerprint, model = line.split("\t", 1)
            self._index[fingerprint] = model

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._index

    def get(self, fingerprint: str) -> str:
        if fingerprint not in self._index:
            raise CacheMissError(f"no cached response for {fingerprint}")
        return self._record_path(fingerprint).read_text("utf-8")

    def put(self, fingerprint: str, model: str, raw_text: str):
        with self._lock:
            if fingerprint in self._index:
                return
            if not self._prepared:
                (self.root / "records").mkdir(parents=True, exist_ok=True)
                if not self.index_path.exists():
                    self.index_path.write_text(f"# cache-format = {CACHE_FORMAT}\n", "utf-8")
                self._prepared = True
            self._record_path(fingerprint).write_text(raw_text, "utf-8")
            if self._torn_tail:
                os.truncate(self.index_path, self.index_path.stat().st_size - self._torn_tail)
                self._torn_tail = 0
            with open(self.index_path, "a", encoding="utf-8") as fh:
                fh.write(f"{fingerprint}\t{model}\n")
            self._index[fingerprint] = model


def http_transport(config: ProviderConfig, prompt: str) -> str:
    """Default transport: POST to {base_url}/chat/completions via requests."""
    import requests

    api_key = os.environ.get(config.api_key_env)
    if not api_key:
        raise TransportError(f"environment variable {config.api_key_env} is not set")
    payload = {
        "model": config.model,
        "messages": [{"role": "user", "content": prompt}],
        **config.sampling(),
    }
    try:
        resp = requests.post(
            f"{config.base_url.rstrip('/')}/chat/completions",
            json=payload,
            headers={"Authorization": f"Bearer {api_key}"},
            timeout=config.timeout,
        )
    except requests.RequestException as exc:
        raise TransportError(str(exc)) from exc
    if resp.status_code in _RETRY_STATUSES:
        raise TransportError(f"HTTP {resp.status_code}", retryable=True)
    if resp.status_code != 200:
        raise TransportError(f"HTTP {resp.status_code}: {resp.text[:200]}")
    try:
        return resp.json()["choices"][0]["message"]["content"]
    except (KeyError, IndexError, ValueError) as exc:
        raise TransportError(f"malformed completion payload: {exc}") from exc


Transport = Callable[[ProviderConfig, str], str]


class LlmGateway:
    """Issues completions through the cache policy of the chosen mode."""

    def __init__(
        self,
        config: ProviderConfig,
        cache: ResponseCache | None = None,
        mode: str = RECORD,
        transport: Transport | None = None,
        rng: random.Random | None = None,
    ):
        if mode not in (LIVE, RECORD, REPLAY):
            raise ConfigError(f"unknown gateway mode {mode!r}")
        if mode in (RECORD, REPLAY) and cache is None:
            raise ConfigError(f"{mode} mode requires a response cache")
        self.config = config
        self.cache = cache
        self.mode = mode
        self.transport = transport if transport is not None else http_transport
        self._rng = rng or random.Random()

    def _call_with_retries(self, prompt: str) -> str:
        last: Exception | None = None
        for attempt in range(self.config.max_retries + 1):
            try:
                return self.transport(self.config, prompt)
            except TransportError as exc:
                last = exc
                if not exc.retryable or attempt == self.config.max_retries:
                    raise
                delay = self.config.retry_backoff * (2**attempt)
                time.sleep(delay + self._rng.uniform(0, delay / 2))
        raise last  # pragma: no cover - loop always returns or raises

    def complete(self, prompt: str, run_index: int = 0) -> LlmResponse:
        fingerprint = request_fingerprint(self.config, prompt, run_index)
        if self.mode in (RECORD, REPLAY) and fingerprint in self.cache:
            return LlmResponse(self.cache.get(fingerprint), fingerprint, 0.0, "cache")
        if self.mode == REPLAY:
            raise CacheMissError(
                f"replay cache has no response for run {run_index} fingerprint {fingerprint}"
            )
        start = time.monotonic()
        text = self._call_with_retries(prompt)
        latency = time.monotonic() - start
        if self.mode == RECORD:
            self.cache.put(fingerprint, self.config.model, text)
        return LlmResponse(text, fingerprint, latency, "provider")

    def run_batch(self, prompts: list[str], runs: int = 1, parallelism: int = 4) -> BatchResult:
        """Complete every prompt for every run index, preserving order.

        Transport failures for individual items are collected in the result
        rather than raised, so one bad sentence cannot sink a batch.  Every
        other exception propagates: a replay cache miss is a configuration
        error, anything else a bug that must not be scored as missing words.
        """
        if runs < 1:
            raise ConfigError("runs must be >= 1")
        responses: list[list[LlmResponse | None]] = [[None] * len(prompts) for _ in range(runs)]
        failures: list[tuple[int, int, str]] = []

        def work(run: int, item: int):
            return self.complete(prompts[item], run_index=run)

        with ThreadPoolExecutor(max_workers=max(1, parallelism)) as pool:
            jobs = {
                pool.submit(work, run, item): (run, item)
                for run in range(runs)
                for item in range(len(prompts))
            }
            for job in jobs:
                run, item = jobs[job]
                try:
                    responses[run][item] = job.result()
                except TransportError as exc:
                    failures.append((run, item, str(exc)))
        failures.sort()
        return BatchResult(responses=responses, failures=failures)
