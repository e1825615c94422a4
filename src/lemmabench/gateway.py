"""Chat-completion gateway with a record/replay response cache.

Every request is identified by a fingerprint over (model, prompt, run
index, sampling parameters).  In ``record`` mode responses are fetched
from the provider and appended to an on-disk cache; in ``replay`` mode
the cache is the only source and any miss is an error, which makes whole
experiments reproducible offline.  ``live`` bypasses the cache entirely.

The HTTP layer is a plain callable ``(config, prompt) -> str`` so tests
can substitute a stub without any network or monkeypatching.

A batch gives threads only the work that may call the provider: its
worker threads run ``complete``, which then appends nothing, and the thread
that called ``run_batch`` appends every provider response to the cache.  A
replay batch calls no provider, so it reads every response on the calling
thread and starts no thread.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import random
import re
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from itertools import count, product
from pathlib import Path
from typing import Callable

from .errors import CacheFormatError, CacheMissError, ConfigError, TransportError

LIVE = "live"
RECORD = "record"
REPLAY = "replay"
CACHE_MODES = (LIVE, RECORD, REPLAY)

CACHE_FORMAT = "lemmabench-cache/2"
_LOG_HEADER = f"# cache-format = {CACHE_FORMAT}\n".encode("utf-8")
_FINGERPRINT = re.compile(r"[0-9a-f]{64}")
_RECORD_HEADER = re.compile(rb"([0-9a-f]{64})\t[^\t\n]*\t([0-9a-f]{64})\t([0-9]{1,12})\n")

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
    """Outcome of a multi-run batch; a failed item is None in responses, its
    reason in failures, which are in (run, item) order."""

    responses: list[list[LlmResponse | None]]
    failures: list[tuple[int, int, str]] = field(default_factory=list)  # (run, item, reason)


def fingerprint_prefix(config: ProviderConfig, prompt: str):
    """sha256 state of a fingerprint's JSON up to ``"run": ``; its keys sort
    as model, prompt, run, sampling, so the prefix is the same for every run."""
    head = json.dumps({"model": config.model, "prompt": prompt}, ensure_ascii=False, sort_keys=True)
    return hashlib.sha256(f'{head[:-1]}, "run": '.encode("utf-8"))


def request_fingerprint(config: ProviderConfig, prompt: str, run_index: int, prefix=None) -> str:
    """Stable identity of one request; run index makes repeat runs distinct.

    It is the sha256 of json.dumps({"model", "prompt", "run", "sampling"},
    ensure_ascii=False, sort_keys=True); prefix, if given, is
    fingerprint_prefix(config, prompt), which a batch hashes once per prompt.
    """
    digest = (prefix or fingerprint_prefix(config, prompt)).copy()
    sampling = json.dumps(config.sampling(), ensure_ascii=False, sort_keys=True)
    digest.update(f'{json.dumps(run_index)}, "sampling": {sampling}}}'.encode("utf-8"))
    return digest.hexdigest()


class ResponseCache:
    """Append-only log of responses: cache/log.tsv, format lemmabench-cache/2.

    After a format line, each record is a header line
    fingerprint<TAB>model<TAB>sha256<TAB>byte length, then the response's
    UTF-8 bytes and a newline.  Loading reads the log once and keeps only
    {fingerprint: (offset, length, digest)}; get() reads one record back
    and checks its digest.  The first record of a fingerprint wins, and a
    last record cut short (by its length or its digest) is skipped on load
    and cut off by the next put().  put() appends under an advisory flock,
    so several processes can record into one cache.  In a batch, only the
    thread that called LlmGateway.run_batch appends; its worker threads at
    most read a response logged before the batch began.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._lock = threading.Lock()
        self._index: dict[str, tuple[int, int, str]] = {}
        self._end = 0  # where the sound records read so far end
        self._reader = None  # read-only handle for get()
        self._writer = None  # append handle, opened by the first put()
        if self.log_path.exists():
            self._scan(self.log_path.stat().st_size)
            self._reader = open(self.log_path, "rb", buffering=0)
        elif (self.root / "index.tsv").exists():
            raise CacheFormatError(
                f"{self.root}: holds a lemmabench-cache/1 index.tsv; re-record it "
                f"into a {CACHE_FORMAT} log"
            )

    @property
    def log_path(self) -> Path:
        return self.root / "log.tsv"

    def _scan(self, stop: int):
        """Index the records between self._end and byte stop of the log."""
        with open(self.log_path, "rb") as fh:
            fh.seek(self._end)
            if self._end == 0:
                line = fh.readline(stop)
                if len(line) < len(_LOG_HEADER) and _LOG_HEADER.startswith(line):
                    return  # a format line cut short: the log holds nothing yet
                if line != _LOG_HEADER:
                    raise CacheFormatError(f"{self.log_path}: byte 0: not a {CACHE_FORMAT} log")
                self._end = len(line)
            while self._end < stop:
                offset = self._end
                line = fh.readline(stop - offset)
                if not line.endswith(b"\n"):
                    return  # torn inside a header line
                match = _RECORD_HEADER.fullmatch(line)
                if match is None:
                    raise CacheFormatError(f"{self.log_path}: byte {offset}: bad record header")
                fingerprint, digest, length = match[1].decode(), match[2].decode(), int(match[3])
                start, end = offset + len(line), offset + len(line) + length + 1
                if end > stop:
                    return  # torn inside the text
                body = fh.read(length + 1)
                if body[-1:] != b"\n" or hashlib.sha256(body[:-1]).hexdigest() != digest:
                    if end == stop:
                        return  # the last record, torn
                    raise CacheFormatError(
                        f"{self.log_path}: byte {offset}: record does not match its sha256"
                    )
                self._index.setdefault(fingerprint, (start, length, digest))
                self._end = end

    def close(self):
        """Close the log's handles; the cache cannot be used afterwards."""
        for handle in (self._reader, self._writer):
            if handle is not None:
                handle.close()

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._index

    def get(self, fingerprint: str) -> str:
        if fingerprint not in self._index:
            raise CacheMissError(f"no cached response for {fingerprint}")
        offset, length, digest = self._index[fingerprint]
        data = os.pread(self._reader.fileno(), length, offset)
        if hashlib.sha256(data).hexdigest() != digest:
            raise CacheFormatError(f"{self.log_path}: byte {offset}: record changed since load")
        return data.decode("utf-8")

    def put(self, fingerprint: str, model: str, raw_text: str):
        if not _FINGERPRINT.fullmatch(fingerprint) or "\t" in model or "\n" in model:
            raise ValueError(f"cannot log fingerprint {fingerprint!r} with model {model!r}")
        data = raw_text.encode("utf-8")
        with self._lock:
            if fingerprint in self._index:
                return
            if self._writer is None:
                self.root.mkdir(parents=True, exist_ok=True)
                self._writer = open(self.log_path, "ab")
                if self._reader is None:
                    self._reader = open(self.log_path, "rb", buffering=0)
            fcntl.flock(self._writer, fcntl.LOCK_EX)
            try:
                size = os.fstat(self._writer.fileno()).st_size
                if size != self._end:
                    # Another process appended, or a torn record ends the log.
                    self._scan(size)
                    if self._end < size:
                        os.ftruncate(self._writer.fileno(), self._end)
                if fingerprint in self._index:
                    return
                digest = hashlib.sha256(data).hexdigest()
                header = f"{fingerprint}\t{model}\t{digest}\t{len(data)}\n".encode("utf-8")
                if self._end == 0:
                    header = _LOG_HEADER + header
                self._writer.write(header + data + b"\n")
                self._writer.flush()
                start = self._end + len(header)
                self._index[fingerprint] = (start, len(data), digest)
                self._end = start + len(data) + 1
            finally:
                fcntl.flock(self._writer, fcntl.LOCK_UN)


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
        content = resp.json()["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise TransportError(f"malformed completion payload: {exc}") from exc
    if not isinstance(content, str):
        raise TransportError(f"malformed completion payload: content is {content!r}")
    return content


Transport = Callable[[ProviderConfig, str], str]


class LlmGateway:
    """Issues completions through the cache policy of the chosen mode."""

    def __init__(
        self,
        config: ProviderConfig,
        cache: ResponseCache | None = None,
        mode: str = RECORD,
        transport: Transport | None = None,
    ):
        if mode not in CACHE_MODES:
            raise ConfigError(f"unknown gateway mode {mode!r}")
        if mode in (RECORD, REPLAY) and cache is None:
            raise ConfigError(f"{mode} mode requires a response cache")
        self.config = config
        self.cache = cache
        self.mode = mode
        self.transport = transport if transport is not None else http_transport

    def _call_with_retries(self, prompt: str) -> str:
        for attempt in count():
            try:
                return self.transport(self.config, prompt)
            except TransportError as exc:
                if not exc.retryable or attempt >= self.config.max_retries:
                    raise
                delay = self.config.retry_backoff * (2**attempt)
                time.sleep(delay + random.uniform(0, delay / 2))

    def complete(
        self, prompt: str, run_index: int = 0, prefix=None, *, log: bool = True
    ) -> LlmResponse:
        """One request; prefix is the prompt's fingerprint_prefix, if known.

        In record mode a provider response is appended to the cache, unless
        log is False: a batch's worker threads leave that to the batch's
        calling thread.
        """
        fingerprint = request_fingerprint(self.config, prompt, run_index, prefix)
        if self.mode in (RECORD, REPLAY) and fingerprint in self.cache:
            return LlmResponse(self.cache.get(fingerprint), fingerprint, 0.0, "cache")
        if self.mode == REPLAY:
            raise CacheMissError(
                f"replay cache has no response for run {run_index} fingerprint {fingerprint}"
            )
        start = time.monotonic()
        text = self._call_with_retries(prompt)
        latency = time.monotonic() - start
        if self.mode == RECORD and log:
            self.cache.put(fingerprint, self.config.model, text)
        return LlmResponse(text, fingerprint, latency, "provider")

    def run_batch(self, prompts: list[str], runs: int = 1, parallelism: int = 4) -> BatchResult:
        """Complete every prompt for every run index, preserving order.

        Transport failures for individual items are collected in the result
        rather than raised, so one bad sentence cannot sink a batch.  Every
        other exception propagates: a replay cache miss is a configuration
        error, anything else a bug that must not be scored as missing words.
        The error raised is the first in (run, item) order, as if every job
        had run in that order, and a job later in order than the failing one
        makes no request unless it started before the error.

        Replay reads every response on the calling thread, in order, and
        starts no thread.  Record and live send requests from up to
        parallelism worker threads (see _send); a prompt repeated within a
        run is sent once in record mode, and its copies are read back from
        the cache here, as they would be if the jobs ran one by one.  Each
        prompt's fingerprint prefix is hashed once.
        """
        if runs < 1:
            raise ConfigError("runs must be >= 1")
        prefixes = [fingerprint_prefix(self.config, prompt) for prompt in prompts]
        jobs = list(product(range(runs), range(len(prompts))))
        sent = {} if self.mode == REPLAY else self._send(prompts, prefixes, jobs, parallelism)
        responses: list[list[LlmResponse | None]] = [[None] * len(prompts) for _ in range(runs)]
        failures: list[tuple[int, int, str]] = []
        for run, item in jobs:
            try:
                if (run, item) in sent:
                    responses[run][item] = sent[run, item].result()
                else:  # a cache read; a repeat whose first copy failed is sent again
                    responses[run][item] = self.complete(
                        prompts[item], run_index=run, prefix=prefixes[item]
                    )
            except TransportError as exc:
                failures.append((run, item, str(exc)))
        return BatchResult(responses=responses, failures=failures)

    def _send(self, prompts, prefixes, jobs, parallelism) -> dict[tuple[int, int], Future]:
        """Run the jobs that may need the provider on a thread pool; in record
        mode, that is the first job of each (run, prompt).

        The workers only call complete, which appends nothing; the calling
        thread appends each provider response as its job returns, so a slow
        early request holds no later response back.  On an interrupt, or an
        append that fails, it cancels the jobs not yet started and appends
        what the running ones return before it re-raises.  A job later in
        order than one that raised a non-transport error makes no request
        (in live and record mode each is a paid call).
        """
        fatal: list[int] = []  # order of each job that raised a non-transport error
        firsts: dict[tuple, tuple[int, int, int]] = {}
        for order, (run, item) in enumerate(jobs):
            key = (run, prompts[item]) if self.mode == RECORD else (run, item)
            firsts.setdefault(key, (order, run, item))

        def work(order: int, run: int, item: int):
            if fatal and order > min(fatal):
                return None  # never read: run_batch raises the earlier job's error
            try:
                return self.complete(prompts[item], run_index=run, prefix=prefixes[item], log=False)
            except TransportError:
                raise
            except BaseException:
                fatal.append(order)
                raise

        with ThreadPoolExecutor(max_workers=max(1, parallelism)) as pool:
            sent = {(run, item): pool.submit(work, order, run, item)
                    for order, run, item in firsts.values()}
            try:
                for job in as_completed(sent.values()):
                    self._log(job)
            except BaseException:
                pool.shutdown(cancel_futures=True)  # waits for the running jobs
                for job in sent.values():
                    self._log(job)
                raise
        return sent

    def _log(self, job: Future):
        """Append a finished job's provider response to the cache, in record mode."""
        if self.mode == RECORD and not job.cancelled() and job.exception() is None:
            response = job.result()
            if response is not None and response.origin == "provider":
                self.cache.put(response.request_fingerprint, self.config.model, response.raw_text)
