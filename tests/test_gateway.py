"""Gateway behaviour: fingerprints, cache discipline, retries, batching."""

import ast
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from lemmabench.errors import CacheFormatError, CacheMissError, ConfigError, TransportError
from lemmabench.gateway import (
    LIVE,
    RECORD,
    REPLAY,
    LlmGateway,
    ProviderConfig,
    ResponseCache,
    http_transport,
    request_fingerprint,
)


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


def test_cache_is_append_only(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    cache.put("a" * 64, "m", "first")
    cache.put("a" * 64, "m", "second attempt is ignored")
    assert cache.get("a" * 64) == "first"
    lines = cache.index_path.read_text("utf-8").splitlines()
    assert lines[0] == "# cache-format = lemmabench-cache/1"
    assert len(lines) == 2


def test_cache_prepares_its_directories_once(tmp_path, monkeypatch):
    cache = ResponseCache(tmp_path / "cache")
    cache.put("a" * 64, "m", "a")
    mkdirs = []
    mkdir = type(tmp_path).mkdir
    monkeypatch.setattr(type(tmp_path), "mkdir", lambda self, *a, **k: mkdirs.append(self) or mkdir(self, *a, **k))
    for c in "bc":
        cache.put(c * 64, "m", c)
    assert mkdirs == []
    lines = cache.index_path.read_text("utf-8").splitlines()
    assert lines == ["# cache-format = lemmabench-cache/1"] + [c * 64 + "\tm" for c in "abc"]
    assert [ResponseCache(tmp_path / "cache").get(c * 64) for c in "abc"] == ["a", "b", "c"]


def test_cache_skips_torn_final_index_line(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    cache.put("a" * 64, "m", "first")
    with open(cache.index_path, "a", encoding="utf-8") as fh:
        fh.write("b" * 20)  # an append cut short: no tab, no newline
    reloaded = ResponseCache(tmp_path / "cache")
    assert len(reloaded) == 1 and reloaded.get("a" * 64) == "first"
    reloaded.put("c" * 64, "m", "third")
    assert cache.index_path.read_text("utf-8").splitlines()[1:] == [
        "a" * 64 + "\tm",
        "c" * 64 + "\tm",
    ]
    assert len(ResponseCache(tmp_path / "cache")) == 2


def test_cache_rejects_tabless_index_line_before_the_end(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    cache.put("a" * 64, "m", "first")
    with open(cache.index_path, "a", encoding="utf-8") as fh:
        fh.write("b" * 20 + "\n")
    with pytest.raises(CacheFormatError, match=r"index\.tsv:3:"):
        ResponseCache(tmp_path / "cache")


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
    assert result.failed_items(0) == {1}
    assert result.responses[0][1] is None
    assert result.responses[1][0].raw_text == "fine"


def test_run_batch_propagates_programming_errors(tmp_path):
    def transport(config, prompt):
        raise TypeError("transport bug")

    cache = ResponseCache(tmp_path / "cache")
    gateway = LlmGateway(_config(max_retries=0), cache=cache, mode=RECORD, transport=transport)
    with pytest.raises(TypeError, match="transport bug"):
        gateway.run_batch(["one", "two"], runs=1, parallelism=2)


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
    import time

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


# --- real HTTP transport against a local stub -------------------------------


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
        payload = {"choices": [{"message": {"content": f"lemmas for: {body['model']}"}}]}
        data = json.dumps(payload).encode("utf-8")
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


def test_gateway_retries_through_real_transport(http_stub, monkeypatch):
    monkeypatch.setenv("LEMMABENCH_API_KEY", "sk-test")
    http_stub.script[:] = [500, 429, 200]
    gateway = LlmGateway(_stub_config(http_stub, max_retries=3), mode=LIVE)
    response = gateway.complete("p")
    assert response.raw_text == "lemmas for: sim-chat-1"
    assert len(http_stub.requests) == 3
