"""Gateway behaviour: fingerprints, cache discipline, retries, batching."""

import ast
import hashlib
import inspect
import io
import json
import socket
import sys
import tempfile
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor, as_completed
from contextlib import ExitStack, closing
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lemmabench import gateway as gateway_mod
from lemmabench.errors import CacheFormatError, CacheMissError, ConfigError, TransportError
from lemmabench.gateway import (
    LIVE,
    RECORD,
    REPLAY,
    LlmGateway,
    ProviderConfig,
    ResponseCache,
    fingerprint_prefix,
    http_transport,
    request_fingerprint,
)

from oracles import oracle_request_fingerprint, oracle_run_batch


def _config(**overrides):
    base = dict(
        base_url="http://unit.invalid/v1",
        model="sim-chat-1",
        api_key_env="LEMMABENCH_API_KEY",
        max_retries=2,
        retry_backoff=0.0,
    )
    base.update(overrides)
    return ProviderConfig(**base)


class CountingTransport:
    """Scripted transport: pops canned results, records every call."""

    def __init__(self, script=None):
        self.script = list(script or [])
        self.calls = []
        self._lock = threading.Lock()
        self.active = 0
        self.max_active = 0

    def __call__(self, config, prompt):
        with self._lock:
            self.calls.append(prompt)
            self.active += 1
            self.max_active = max(self.max_active, self.active)
        try:
            result = self.script.pop(0) if self.script else f"echo\t{prompt}"
            if isinstance(result, Exception):
                raise result
            return result
        finally:
            with self._lock:
                self.active -= 1


def forbidden_transport(config, prompt):
    raise AssertionError("transport must not be called")


# --- fingerprints -----------------------------------------------------------


def test_fingerprints_match_pinned_values(fixtures_dir):
    rows = []
    for line in (fixtures_dir / "fingerprints.tsv").read_text("utf-8").splitlines():
        if line.startswith("#"):
            continue
        model, temperature, top_p, run, prompt, expected = line.split("\t")
        rows.append((model, float(temperature), float(top_p), int(run), ast.literal_eval(prompt), expected))
    assert len(rows) == 3
    for model, temperature, top_p, run, prompt, expected in rows:
        config = ProviderConfig(model=model, temperature=temperature, top_p=top_p)
        assert request_fingerprint(config, prompt, run) == expected


def test_fingerprint_distinguishes_every_input():
    config = _config()
    base = request_fingerprint(config, "hello", 0)
    assert request_fingerprint(config, "hello", 1) != base
    assert request_fingerprint(config, "hello!", 0) != base
    assert request_fingerprint(_config(model="other"), "hello", 0) != base
    assert request_fingerprint(_config(temperature=0.5), "hello", 0) != base
    assert request_fingerprint(_config(top_p=0.9), "hello", 0) != base
    assert request_fingerprint(_config(max_tokens=32), "hello", 0) != base
    # equal configs agree
    assert request_fingerprint(_config(), "hello", 0) == base


_FINGERPRINT_PROMPTS = st.text(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\u2028", "\U0001f600", "é", "a", " "]),
    max_size=12,
) | st.text(max_size=12)
_FINGERPRINT_CONFIGS = st.builds(
    _config,
    model=st.sampled_from(["sim-chat-1", 'm"\\\u2028']),
    temperature=st.sampled_from([0.0, 0.7, 1.0]),
    top_p=st.sampled_from([0.9, 1.0]),
    max_tokens=st.none() | st.integers(1, 4096),
)


@settings(max_examples=200, deadline=None)
@given(_FINGERPRINT_CONFIGS, st.lists(_FINGERPRINT_PROMPTS, min_size=1, max_size=3), st.integers(1, 6))
def test_fingerprint_matches_the_whole_json_hash_directly_and_in_a_batch(config, prompts, runs):
    for prompt in prompts:
        for run in range(runs):
            expected = oracle_request_fingerprint(config, prompt, run)
            assert request_fingerprint(config, prompt, run) == expected
            assert request_fingerprint(config, prompt, run, fingerprint_prefix(config, prompt)) == expected
    batch = LlmGateway(config, mode=LIVE, transport=lambda c, p: "ok").run_batch(prompts, runs, 2)
    for run in range(runs):
        for item, prompt in enumerate(prompts):
            fingerprint = batch.responses[run][item].request_fingerprint
            assert fingerprint == oracle_request_fingerprint(config, prompt, run)


# --- response cache ---------------------------------------------------------


def test_cache_round_trip_and_reload(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    assert len(cache) == 0
    cache.put("f" * 64, "sim-chat-1", "line one\nline two")
    assert "f" * 64 in cache
    assert cache.get("f" * 64) == "line one\nline two"
    reloaded = ResponseCache(tmp_path / "cache")
    assert len(reloaded) == 1
    assert reloaded.get("f" * 64) == "line one\nline two"


LOG_HEADER = b"# cache-format = lemmabench-cache/2\n"


@pytest.fixture(autouse=True)
def _close_caches(monkeypatch):
    """Close the log handles of every cache a test opened."""
    opened = []
    init = ResponseCache.__init__
    monkeypatch.setattr(ResponseCache, "__init__", lambda self, *a: opened.append(self) or init(self, *a))
    yield
    for cache in opened:
        cache.close()


def _fp(n: int) -> str:
    return f"{n:064x}"


def _record(fingerprint, model, text):
    data = text.encode("utf-8")
    return f"{fingerprint}\t{model}\t{hashlib.sha256(data).hexdigest()}\t{len(data)}\n".encode() + data + b"\n"


def test_cache_is_append_only(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    cache.put("a" * 64, "m", "first")
    cache.put("a" * 64, "m", "second attempt is ignored")
    assert cache.get("a" * 64) == "first"
    assert cache.log_path.read_bytes() == LOG_HEADER + _record("a" * 64, "m", "first")
    assert sorted(p.name for p in cache.root.iterdir()) == ["log.tsv"]


def test_cache_prepares_its_directories_once(tmp_path, monkeypatch):
    cache = ResponseCache(tmp_path / "cache")
    cache.put("a" * 64, "m", "a")
    mkdirs, opens = [], []
    mkdir = type(tmp_path).mkdir
    with monkeypatch.context() as patch:
        patch.setattr(type(tmp_path), "mkdir", lambda self, *a, **k: mkdirs.append(self) or mkdir(self, *a, **k))
        patch.setattr("builtins.open", lambda *a, **k: opens.append(a) or io.open(*a, **k))
        for c in "bc":
            cache.put(c * 64, "m", c)
    assert mkdirs == [] and opens == []  # one append handle, kept open
    assert cache.log_path.read_bytes() == LOG_HEADER + b"".join(_record(c * 64, "m", c) for c in "abc")
    assert [ResponseCache(tmp_path / "cache").get(c * 64) for c in "abc"] == ["a", "b", "c"]


def test_cache_skips_torn_final_record(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    cache.put("a" * 64, "m", "first")
    whole = cache.log_path.read_bytes()
    for torn in (_record("b" * 64, "m", "second")[:-3], _record("b" * 64, "m", "second")[:70]):
        cache.log_path.write_bytes(whole + torn)  # an append cut short
        reloaded = ResponseCache(tmp_path / "cache")
        assert len(reloaded) == 1 and reloaded.get("a" * 64) == "first"
        assert "b" * 64 not in reloaded
    reloaded.put("c" * 64, "m", "third")
    assert cache.log_path.read_bytes() == whole + _record("c" * 64, "m", "third")
    assert len(ResponseCache(tmp_path / "cache")) == 2


def test_cache_skips_final_record_whose_digest_fails(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    cache.put("a" * 64, "m", "first")
    whole = cache.log_path.read_bytes()
    zeroed = _record("b" * 64, "m", "second").replace(b"second", b"\0" * 6)  # length right, data never written
    cache.log_path.write_bytes(whole + zeroed)
    reloaded = ResponseCache(tmp_path / "cache")
    assert len(reloaded) == 1
    reloaded.put("b" * 64, "m", "again")
    assert cache.log_path.read_bytes() == whole + _record("b" * 64, "m", "again")


def test_cache_rejects_bad_record_header_before_the_end(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    cache.put("a" * 64, "m", "first")
    offset = cache.log_path.stat().st_size
    with open(cache.log_path, "ab") as fh:
        fh.write(b"b" * 20 + b"\n" + _record("c" * 64, "m", "third"))
    with pytest.raises(CacheFormatError, match=rf"log\.tsv: byte {offset}: bad record header"):
        ResponseCache(tmp_path / "cache")


def test_cache_rejects_bad_final_record_header(tmp_path):
    # a whole header line is no torn append, even at the end of the log
    cache = ResponseCache(tmp_path / "cache")
    cache.put("a" * 64, "m", "first")
    offset = cache.log_path.stat().st_size
    with open(cache.log_path, "ab") as fh:
        fh.write(_record("b" * 64, "m", "x").replace(b"\t1\n", b"\tone\n"))
    with pytest.raises(CacheFormatError, match=rf"byte {offset}: bad record header"):
        ResponseCache(tmp_path / "cache")


def test_cache_rejects_flipped_byte_in_middle_record(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    for n, text in enumerate(["first", "second", "third"]):
        cache.put(_fp(n), "m", text)
    data = bytearray(cache.log_path.read_bytes())
    offset = len(LOG_HEADER) + len(_record(_fp(0), "m", "first"))
    data[data.index(b"second")] ^= 0x01
    cache.log_path.write_bytes(bytes(data))
    with pytest.raises(CacheFormatError, match=rf"log\.tsv: byte {offset}: record does not match its sha256"):
        ResponseCache(tmp_path / "cache")


def test_cache_rejects_a_log_in_another_format(tmp_path):
    (tmp_path / "cache").mkdir()
    (tmp_path / "cache" / "log.tsv").write_bytes(LOG_HEADER.replace(b"/2", b"/3"))
    with pytest.raises(CacheFormatError, match=r"byte 0: not a lemmabench-cache/2 log"):
        ResponseCache(tmp_path / "cache")


def test_cache_refuses_a_v1_directory(tmp_path):
    root = tmp_path / "cache"
    (root / "records").mkdir(parents=True)
    (root / "index.tsv").write_text("# cache-format = lemmabench-cache/1\n" + "a" * 64 + "\tm\n", "utf-8")
    (root / "records" / ("a" * 64 + ".txt")).write_text("first", "utf-8")
    with pytest.raises(CacheFormatError, match="lemmabench-cache/1.*re-record"):
        ResponseCache(root)
    assert sorted(p.name for p in root.iterdir()) == ["index.tsv", "records"]


def test_cache_get_checks_the_digest(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    cache.put("a" * 64, "m", "first")
    data = cache.log_path.read_bytes()
    cache.log_path.write_bytes(data.replace(b"first", b"fIrst"))
    with pytest.raises(CacheFormatError, match="changed since load"):
        cache.get("a" * 64)


def test_cache_get_returns_exactly_what_put_stored(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    cache.put("a" * 64, "m", "x\r\ny\rz\n")
    assert cache.get("a" * 64) == "x\r\ny\rz\n"
    assert ResponseCache(tmp_path / "cache").get("a" * 64) == "x\r\ny\rz\n"


@pytest.mark.parametrize("fingerprint, model", [("short", "m"), ("A" * 64, "m"), ("a" * 64, "m\tx"), ("a" * 64, "m\n")])
def test_cache_put_refuses_what_a_header_cannot_hold(tmp_path, fingerprint, model):
    cache = ResponseCache(tmp_path / "cache")
    with pytest.raises(ValueError):
        cache.put(fingerprint, model, "text")
    assert not cache.log_path.exists()


def test_two_caches_on_one_directory_share_the_log(tmp_path):
    first, second = ResponseCache(tmp_path / "cache"), ResponseCache(tmp_path / "cache")
    expected = {}
    for n in range(6):
        writer = (first, second)[n % 2]
        writer.put(_fp(n), "m", f"text {n}")
        expected[_fp(n)] = f"text {n}"
    second.put(_fp(0), "m", "a later text for a logged fingerprint")  # first record wins
    first.put(_fp(6), "m", "after the other's")
    expected[_fp(6)] = "after the other's"
    reloaded = ResponseCache(tmp_path / "cache")
    assert {fp: reloaded.get(fp) for fp in expected} == expected and len(reloaded) == 7
    assert first.get(_fp(5)) == "text 5"  # read in when first appended after it


def test_a_put_finds_the_fingerprint_another_cache_logged_since_it_loaded(tmp_path):
    first, second = ResponseCache(tmp_path / "cache"), ResponseCache(tmp_path / "cache")
    first.put(_fp(0), "m", "first text")
    second.put(_fp(0), "m", "second text")  # found on the rescan under the lock
    assert second.log_path.read_bytes() == LOG_HEADER + _record(_fp(0), "m", "first text")
    assert second.get(_fp(0)) == "first text" and len(second) == 1


def test_cache_stress_many_threads_on_two_instances(tmp_path):
    caches = [ResponseCache(tmp_path / "cache") for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            jobs = [pool.submit(caches[n % 2].put, _fp(n % 40), "m", f"text {n % 40}") for n in range(400)]
            for job in jobs:
                job.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    expected = {_fp(n): f"text {n}" for n in range(40)}
    reloaded = ResponseCache(tmp_path / "cache")
    assert {fp: reloaded.get(fp) for fp in expected} == expected and len(reloaded) == 40
    # each fingerprint logged once: each instance reads the other's records in before it appends
    size = len(LOG_HEADER) + sum(len(_record(fp, "m", text)) for fp, text in expected.items())
    assert reloaded.log_path.stat().st_size == size


_TEXT = st.one_of(st.text(st.sampled_from("a\t\r\n é€😀")), st.text())
_OPS = st.lists(
    st.one_of(st.tuples(st.integers(0, 4), _TEXT), st.just("reload")), max_size=12
)


_EACH_EXAMPLE_CLOSES = dict(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@settings(max_examples=60, **_EACH_EXAMPLE_CLOSES)
@given(_OPS)
def test_cache_behaves_like_a_dict_across_reloads(ops):
    with tempfile.TemporaryDirectory() as tmp, ExitStack() as caches:
        cache, model = caches.enter_context(closing(ResponseCache(tmp))), {}
        for op in ops:
            if op == "reload":
                cache = caches.enter_context(closing(ResponseCache(tmp)))
            else:
                n, text = op
                cache.put(_fp(n), "m", text)
                model.setdefault(_fp(n), text)
            assert len(cache) == len(model)
            assert {fp: cache.get(fp) for fp in model} == model
            assert all(_fp(n) in cache for n in range(5) if _fp(n) in model)
            assert not any(_fp(n) in cache for n in range(5) if _fp(n) not in model)


@settings(max_examples=8, **_EACH_EXAMPLE_CLOSES)
@given(st.lists(_TEXT.filter(lambda t: len(t) < 12), min_size=1, max_size=3))
def test_cache_cut_at_every_byte_keeps_exactly_the_complete_records(texts):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        with closing(ResponseCache(root / "whole")) as cache:
            ends = [len(LOG_HEADER)]
            for n, text in enumerate(texts):
                cache.put(_fp(n), "m", text)
                ends.append(cache.log_path.stat().st_size)
        data = cache.log_path.read_bytes()
        for cut in range(len(data) + 1):
            (root / "cut").mkdir(exist_ok=True)
            (root / "cut" / "log.tsv").write_bytes(data[:cut])
            with closing(ResponseCache(root / "cut")) as torn:
                complete = sum(1 for end in ends[1:] if end <= cut)
                assert len(torn) == complete
                assert [torn.get(_fp(n)) for n in range(complete)] == texts[:complete]
                assert _fp(complete) not in torn
                torn.put(_fp(9), "m", "appended")
            kept = max((end for end in ends if end <= cut), default=0)
            assert torn.log_path.read_bytes() == (data[:kept] or LOG_HEADER) + _record(_fp(9), "m", "appended")
            with closing(ResponseCache(root / "cut")) as reloaded:
                assert len(reloaded) == complete + 1 and reloaded.get(_fp(9)) == "appended"


def test_cache_miss_raises(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    with pytest.raises(CacheMissError):
        cache.get("0" * 64)


def test_fixture_cache_loads(fixtures_dir):
    cache = ResponseCache(fixtures_dir / "replay" / "cache")
    assert len(cache) == 150


# --- gateway modes ----------------------------------------------------------


def test_record_mode_calls_provider_once_then_hits_cache(tmp_path):
    transport = CountingTransport(["answer"])
    cache = ResponseCache(tmp_path / "cache")
    gateway = LlmGateway(_config(), cache=cache, mode=RECORD, transport=transport)
    first = gateway.complete("prompt", run_index=0)
    assert (first.origin, first.raw_text) == ("provider", "answer")
    assert first.latency >= 0.0
    second = gateway.complete("prompt", run_index=0)
    assert (second.origin, second.raw_text, second.latency) == ("cache", "answer", 0.0)
    assert second.request_fingerprint == first.request_fingerprint
    assert transport.calls == ["prompt"]


def test_record_mode_distinguishes_runs(tmp_path):
    transport = CountingTransport(["r0", "r1"])
    cache = ResponseCache(tmp_path / "cache")
    gateway = LlmGateway(_config(), cache=cache, mode=RECORD, transport=transport)
    assert gateway.complete("p", run_index=0).raw_text == "r0"
    assert gateway.complete("p", run_index=1).raw_text == "r1"
    assert len(cache) == 2


def test_replay_mode_never_touches_transport(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    config = _config()
    cache.put(request_fingerprint(config, "p", 0), config.model, "cached")
    gateway = LlmGateway(config, cache=cache, mode=REPLAY, transport=forbidden_transport)
    response = gateway.complete("p", run_index=0)
    assert (response.origin, response.raw_text) == ("cache", "cached")
    with pytest.raises(CacheMissError):
        gateway.complete("p", run_index=1)


def test_live_mode_bypasses_cache(tmp_path):
    transport = CountingTransport(["one", "two"])
    cache = ResponseCache(tmp_path / "cache")
    cache.put(request_fingerprint(_config(), "p", 0), "sim-chat-1", "stale")
    gateway = LlmGateway(_config(), cache=cache, mode=LIVE, transport=transport)
    assert gateway.complete("p").raw_text == "one"
    assert gateway.complete("p").raw_text == "two"
    assert len(transport.calls) == 2
    assert len(cache) == 1  # live mode never writes


def test_gateway_validation():
    with pytest.raises(ConfigError):
        LlmGateway(_config(), mode="offline")
    with pytest.raises(ConfigError):
        LlmGateway(_config(), cache=None, mode=RECORD)
    with pytest.raises(ConfigError):
        LlmGateway(_config(), cache=None, mode=REPLAY)
    LlmGateway(_config(), cache=None, mode=LIVE)  # cache optional only here


# --- retries ----------------------------------------------------------------


def test_retry_until_success():
    transport = CountingTransport(
        [TransportError("429", retryable=True), TransportError("500", retryable=True), "ok"]
    )
    gateway = LlmGateway(_config(max_retries=3), mode=LIVE, transport=transport)
    assert gateway.complete("p").raw_text == "ok"
    assert len(transport.calls) == 3


def test_retry_budget_exhausted():
    transport = CountingTransport([TransportError("503", retryable=True)] * 10)
    gateway = LlmGateway(_config(max_retries=2), mode=LIVE, transport=transport)
    with pytest.raises(TransportError):
        gateway.complete("p")
    assert len(transport.calls) == 3  # initial try + 2 retries


def test_non_retryable_fails_immediately():
    transport = CountingTransport([TransportError("401 unauthorized"), "never reached"])
    gateway = LlmGateway(_config(max_retries=5), mode=LIVE, transport=transport)
    with pytest.raises(TransportError):
        gateway.complete("p")
    assert len(transport.calls) == 1


# --- batches ----------------------------------------------------------------


def test_run_batch_preserves_order(tmp_path):
    transport = CountingTransport()
    cache = ResponseCache(tmp_path / "cache")
    gateway = LlmGateway(_config(), cache=cache, mode=RECORD, transport=transport)
    prompts = [f"prompt-{i}" for i in range(12)]
    result = gateway.run_batch(prompts, runs=2, parallelism=5)
    assert result.failures == []
    for run in range(2):
        for i, response in enumerate(result.responses[run]):
            assert response.raw_text == f"echo\tprompt-{i}"


def test_run_batch_collects_per_item_failures(tmp_path):
    def transport(config, prompt):
        if prompt == "bad":
            raise TransportError("boom")
        return "fine"

    cache = ResponseCache(tmp_path / "cache")
    gateway = LlmGateway(_config(max_retries=0), cache=cache, mode=RECORD, transport=transport)
    result = gateway.run_batch(["good", "bad", "good"], runs=2, parallelism=3)
    assert [(r, i) for r, i, _ in result.failures] == [(0, 1), (1, 1)]
    assert [response is None for response in result.responses[0]] == [False, True, False]
    assert result.responses[1][0].raw_text == "fine"


def test_run_batch_propagates_programming_errors(tmp_path):
    def transport(config, prompt):
        raise TypeError("transport bug")

    cache = ResponseCache(tmp_path / "cache")
    gateway = LlmGateway(_config(max_retries=0), cache=cache, mode=RECORD, transport=transport)
    with pytest.raises(TypeError, match="transport bug"):
        gateway.run_batch(["one", "two"], runs=1, parallelism=2)


def test_run_batch_stops_calling_the_provider_after_a_fatal_error():
    prompts = [f"prompt-{i}" for i in range(200)]
    for _ in range(5):  # a fast transport lets a worker run far ahead of the loop that sees the error
        transport = CountingTransport([ValueError("transport bug")])
        gateway = LlmGateway(_config(), mode=LIVE, transport=transport)
        with pytest.raises(ValueError, match="transport bug"):
            gateway.run_batch(prompts, runs=3, parallelism=2)
        assert len(transport.calls) < 10


def test_run_batch_raises_the_first_fatal_error_in_order(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    gateway = LlmGateway(_config(), cache=cache, mode=REPLAY, transport=forbidden_transport)
    first = request_fingerprint(_config(), "p0", 0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that jobs race
    try:
        for _ in range(20):
            with pytest.raises(CacheMissError, match=f"run 0 fingerprint {first}"):
                gateway.run_batch([f"p{i}" for i in range(8)], runs=2, parallelism=4)
    finally:
        sys.setswitchinterval(interval)


def test_run_batch_propagates_replay_misses(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    gateway = LlmGateway(_config(), cache=cache, mode=REPLAY, transport=forbidden_transport)
    with pytest.raises(CacheMissError):
        gateway.run_batch(["unseen"], runs=1)


def test_run_batch_validates_runs(tmp_path):
    gateway = LlmGateway(_config(), mode=LIVE, transport=CountingTransport())
    with pytest.raises(ConfigError):
        gateway.run_batch(["p"], runs=0)


def test_run_batch_respects_parallelism_bound():
    class SlowTransport(CountingTransport):
        def __call__(self, config, prompt):
            with self._lock:
                self.active += 1
                self.max_active = max(self.max_active, self.active)
            time.sleep(0.02)
            with self._lock:
                self.active -= 1
            return "ok"

    transport = SlowTransport()
    gateway = LlmGateway(_config(), mode=LIVE, transport=transport)
    gateway.run_batch(["a", "b", "c", "d", "e", "f"], runs=2, parallelism=3)
    assert 1 <= transport.max_active <= 3


def _log_records(root) -> Counter:
    """The (fingerprint, model, text) records of a cache's log.tsv."""
    path = Path(root) / "log.tsv"
    if not path.exists():
        return Counter()
    data = path.read_bytes()
    assert data.startswith(LOG_HEADER)
    records, at = Counter(), len(LOG_HEADER)
    while at < len(data):
        end = data.index(b"\n", at)
        fingerprint, model, _, length = data[at:end].decode("utf-8").split("\t")
        start, stop = end + 1, end + 1 + int(length)
        records[fingerprint, model, data[start:stop].decode("utf-8")] += 1
        at = stop + 1
    return records


def test_record_batch_appends_every_response_on_the_calling_thread(tmp_path, monkeypatch):
    put_threads, transport_threads = [], []
    put = ResponseCache.put
    monkeypatch.setattr(
        ResponseCache, "put", lambda self, *a: put_threads.append(threading.get_ident()) or put(self, *a)
    )

    def transport(config, prompt):
        transport_threads.append(threading.get_ident())
        return f"answer {prompt}"

    gateway = LlmGateway(_config(), ResponseCache(tmp_path / "cache"), RECORD, transport)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that jobs race
    try:
        result = gateway.run_batch([f"p{i}" for i in range(100)], runs=2, parallelism=8)
    finally:
        sys.setswitchinterval(interval)
    assert result.failures == [] and len(put_threads) == len(transport_threads) == 200
    assert set(put_threads) == {threading.get_ident()}
    assert threading.get_ident() not in transport_threads  # the provider calls stay on workers
    records = _log_records(tmp_path / "cache")
    assert sorted(records) == sorted(
        (r.request_fingerprint, "sim-chat-1", r.raw_text) for run in result.responses for r in run
    )


def test_replay_batch_starts_no_thread(tmp_path, monkeypatch):
    config, cache = _config(), ResponseCache(tmp_path / "cache")
    prompts = [f"p{i}" for i in range(6)]
    for run in range(2):
        for prompt in prompts:
            cache.put(request_fingerprint(config, prompt, run), config.model, f"{prompt} {run}")
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    result = LlmGateway(config, cache, REPLAY, forbidden_transport).run_batch(prompts, runs=2)
    assert started == []
    assert [[(r.raw_text, r.origin) for r in run] for run in result.responses] == [
        [(f"{prompt} {run}", "cache") for prompt in prompts] for run in range(2)
    ]


@pytest.mark.parametrize("parallelism", [1, 3])
def test_record_batch_logs_every_response_returned_before_a_programming_error(
    tmp_path, parallelism
):
    returned = []

    def transport(config, prompt):
        if prompt == "p7":
            raise ValueError("transport bug")
        returned.append(f"answer {prompt}")
        return returned[-1]

    gateway = LlmGateway(_config(), ResponseCache(tmp_path / "cache"), RECORD, transport)
    with pytest.raises(ValueError, match="transport bug"):
        gateway.run_batch([f"p{i}" for i in range(30)], runs=2, parallelism=parallelism)
    assert {f"answer p{i}" for i in range(7)} <= set(returned)  # every job before the bug ran
    assert Counter(text for _, _, text in _log_records(tmp_path / "cache")) == Counter(returned)


def test_interrupted_record_batch_logs_what_returned_and_sends_no_more(tmp_path, monkeypatch):
    returned = []

    def transport(config, prompt):
        time.sleep(0.01)
        returned.append(f"answer {prompt}")
        return returned[-1]

    def interrupted(jobs):  # Ctrl-C on the calling thread once the first job is in
        yield next(as_completed(jobs))
        raise KeyboardInterrupt

    monkeypatch.setattr(gateway_mod, "as_completed", interrupted)
    gateway = LlmGateway(_config(), ResponseCache(tmp_path / "cache"), RECORD, transport)
    with pytest.raises(KeyboardInterrupt):
        gateway.run_batch([f"p{i}" for i in range(40)], runs=1, parallelism=2)
    assert 2 <= len(returned) < 40  # the jobs still queued were cancelled
    assert Counter(text for _, _, text in _log_records(tmp_path / "cache")) == Counter(returned)


def test_run_batch_calls_the_transport_inside_complete_with_its_run_index(tmp_path, monkeypatch):
    """perfbench's simulated model learns a request's run index from a
    thread-local set around LlmGateway.complete, which its run_index_hook
    wraps by name, binding run_index through complete's signature.  So every
    provider call of a batch must be made inside complete, on its thread."""
    current = threading.local()
    original = LlmGateway.complete
    signature = inspect.signature(original)

    def complete(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        current.run = bound.arguments["run_index"]
        try:
            return original(*args, **kwargs)
        finally:
            current.run = None

    monkeypatch.setattr(LlmGateway, "complete", complete)
    prompts = ["p0", "p0", "bad", "bad"]
    for mode, sends in ((RECORD, [1, 2]), (LIVE, [2, 2])):  # record sends "p0" once a run
        seen = []

        def transport(config, prompt):
            seen.append((prompt, getattr(current, "run", None)))
            if prompt == "bad":
                raise TransportError("refused")
            return f"answer {prompt}"

        gateway = LlmGateway(_config(), ResponseCache(tmp_path / mode), mode, transport)
        result = gateway.run_batch(prompts, runs=2, parallelism=3)
        assert [(run, item) for run, item, _ in result.failures] == [(0, 2), (0, 3), (1, 2), (1, 3)]
        assert Counter(seen) == {
            (prompt, run): n for run in range(2) for prompt, n in zip(("p0", "bad"), sends)
        }


# The earlier batch (oracle_run_batch) ran every job, replay too, on the pool
# and read the results in order; run one job at a time, its outcome is the one
# the batch promises at any parallelism (with a prompt repeated within a run,
# its outcome at higher parallelism depends on thread timing).
_PROMPT_IDS = st.integers(0, 4)


@settings(max_examples=150, **_EACH_EXAMPLE_CLOSES)
@given(
    mode=st.sampled_from([LIVE, RECORD, REPLAY]),
    runs=st.integers(1, 3),
    parallelism=st.integers(1, 4),
    items=st.lists(_PROMPT_IDS, max_size=8),
    behaviour=st.dictionaries(_PROMPT_IDS, st.sampled_from(["refused", "bug"])),
    prelogged=st.sets(st.tuples(st.integers(0, 2), _PROMPT_IDS)),
)
def test_run_batch_matches_the_batch_it_replaced(mode, runs, parallelism, items, behaviour, prelogged):
    config, prompts = _config(max_retries=0), [f"prompt {i}" for i in items]
    outcomes, logs, calls = [], [], []
    for batch, workers in ((oracle_run_batch, 1), (LlmGateway.run_batch, parallelism)):
        sent = []

        def transport(config, prompt):
            sent.append(prompt)
            time.sleep(0.001)  # let other jobs run meanwhile, as a provider call does
            kind = behaviour.get(int(prompt.split()[1]))
            if kind == "refused":
                raise TransportError(f"{prompt} refused")
            if kind == "bug":
                raise ValueError(f"bug on {prompt}")
            return f"answer to {prompt}"

        with tempfile.TemporaryDirectory() as tmp, closing(ResponseCache(tmp)) as cache:
            for run, i in sorted(prelogged):
                cache.put(request_fingerprint(config, f"prompt {i}", run), config.model, f"logged {i}")
            gateway = LlmGateway(config, cache, mode, transport)
            try:
                result = batch(gateway, prompts, runs, workers)
            except Exception as exc:  # noqa: BLE001 - the raised error is compared
                outcomes.append(("raised", type(exc), str(exc)))
            else:
                outcomes.append((
                    "returned",
                    [[r and (r.raw_text, r.request_fingerprint, r.origin) for r in run]
                     for run in result.responses],
                    result.failures,
                ))
            logs.append(_log_records(tmp))
        calls.append(Counter(sent))
    assert outcomes[0] == outcomes[1]
    if outcomes[0][0] == "raised":
        # Jobs later in order than the error may have started before it was
        # seen; what they returned is logged too, and nothing else is.
        assert logs[0] <= logs[1]
        assert all(text.startswith("answer") for _, _, text in logs[1] - logs[0])
    else:
        assert logs[0] == logs[1]
        assert calls[0] == calls[1]


# --- real HTTP transport against a local stub -------------------------------


def _completion(content):
    return {"choices": [{"message": {"content": content}}]}


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 - http.server naming
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.requests.append((self.path, dict(self.headers), body))
        status = self.server.script.pop(0) if self.server.script else 200
        if status != 200:
            self.send_response(status)
            self.end_headers()
            self.wfile.write(b"stub failure")
            return
        data = json.dumps(self.server.payload(body)).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):  # silence the default stderr chatter
        pass


@pytest.fixture()
def http_stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.script = []
    server.requests = []
    server.payload = lambda body: _completion(f"lemmas for: {body['model']}")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def _stub_config(server, **overrides):
    host, port = server.server_address
    return _config(base_url=f"http://{host}:{port}/v1", timeout=5.0, **overrides)


def test_http_transport_round_trip(http_stub, monkeypatch):
    monkeypatch.setenv("LEMMABENCH_API_KEY", "sk-test")
    config = _stub_config(http_stub)
    assert http_transport(config, "Lemmatize this") == "lemmas for: sim-chat-1"
    path, headers, body = http_stub.requests[0]
    assert path == "/v1/chat/completions"
    assert headers["Authorization"] == "Bearer sk-test"
    assert body["messages"] == [{"role": "user", "content": "Lemmatize this"}]
    assert body["temperature"] == 1.0 and body["top_p"] == 1.0


def test_http_transport_requires_api_key(http_stub, monkeypatch):
    monkeypatch.delenv("LEMMABENCH_API_KEY", raising=False)
    with pytest.raises(TransportError):
        http_transport(_stub_config(http_stub), "p")
    assert http_stub.requests == []  # failed before any request


def test_http_transport_marks_retryable_statuses(http_stub, monkeypatch):
    monkeypatch.setenv("LEMMABENCH_API_KEY", "sk-test")
    http_stub.script[:] = [503]
    with pytest.raises(TransportError) as info:
        http_transport(_stub_config(http_stub), "p")
    assert info.value.retryable


def test_http_transport_client_errors_not_retryable(http_stub, monkeypatch):
    monkeypatch.setenv("LEMMABENCH_API_KEY", "sk-test")
    http_stub.script[:] = [404]
    with pytest.raises(TransportError) as info:
        http_transport(_stub_config(http_stub), "p")
    assert not info.value.retryable


@pytest.mark.parametrize(
    "payload, reason",
    [
        (_completion(None), "content is None"),
        ({"choices": None}, "not subscriptable"),
        ({"choices": [{"message": "x"}]}, "string indices must be integers"),
        ([_completion("lemmas")], "list indices must be integers"),
    ],
    ids=["null-content", "null-choices", "message-a-string", "list-body"],
)
def test_http_transport_refuses_a_completion_without_string_content(
    http_stub, monkeypatch, payload, reason
):
    monkeypatch.setenv("LEMMABENCH_API_KEY", "sk-test")
    http_stub.payload = lambda body: payload
    with pytest.raises(TransportError, match=f"^malformed completion payload: .*{reason}") as info:
        http_transport(_stub_config(http_stub), "p")
    assert not info.value.retryable


def test_record_batch_records_the_others_when_one_completion_has_null_content(
    http_stub, monkeypatch, tmp_path
):
    monkeypatch.setenv("LEMMABENCH_API_KEY", "sk-test")
    http_stub.payload = lambda body: _completion(
        None if body["messages"][0]["content"] == "bad" else "fine"
    )
    config = _stub_config(http_stub, max_retries=0)
    cache = ResponseCache(tmp_path / "cache")
    result = LlmGateway(config, cache=cache, mode=RECORD).run_batch(["good", "bad", "also good"])
    assert result.failures == [(0, 1, "malformed completion payload: content is None")]
    assert [r and r.raw_text for r in result.responses[0]] == ["fine", None, "fine"]
    assert len(cache) == 2
    assert request_fingerprint(config, "bad", 0) not in cache
    cache.close()


def test_live_batch_to_a_port_with_no_listener_fails_each_item(monkeypatch):
    monkeypatch.setenv("LEMMABENCH_API_KEY", "sk-test")
    with socket.socket() as bound:  # bound but not listening: connections are refused
        bound.bind(("127.0.0.1", 0))
        host, port = bound.getsockname()
        config = _config(base_url=f"http://{host}:{port}/v1", timeout=5.0)
        with pytest.raises(TransportError) as info:
            http_transport(config, "p")
        assert not info.value.retryable
        result = LlmGateway(config, mode=LIVE).run_batch(["a", "b"], runs=2, parallelism=2)
    assert result.responses == [[None, None], [None, None]]
    assert [(run, item) for run, item, _ in result.failures] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(f"port={port}" in reason for _, _, reason in result.failures)


def test_gateway_retries_through_real_transport(http_stub, monkeypatch):
    monkeypatch.setenv("LEMMABENCH_API_KEY", "sk-test")
    http_stub.script[:] = [500, 429, 200]
    gateway = LlmGateway(_stub_config(http_stub, max_retries=3), mode=LIVE)
    response = gateway.complete("p")
    assert response.raw_text == "lemmas for: sim-chat-1"
    assert len(http_stub.requests) == 3
