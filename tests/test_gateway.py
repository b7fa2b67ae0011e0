import json
import os
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from cfc import gateway as gateway_module
from cfc.gateway import (
    GatewayConfig,
    GatewayError,
    LLMGateway,
    ParseError,
    _http_transport,
    mock_prompt_hash,
)
from conftest import write_jsonl


def mock_gateway(tmp_path, rules, **cfg_kw):
    path = write_jsonl(tmp_path / "fixture.jsonl", rules)
    cfg = GatewayConfig(mode="mock", mock_fixture_path=path, **cfg_kw)
    return LLMGateway(cfg)


# ---------------------------------------------------------------- mock mode

def test_prompt_hash_collapses_whitespace():
    assert mock_prompt_hash("hello   world") == mock_prompt_hash("hello\n world ")
    assert mock_prompt_hash("hello world") != mock_prompt_hash("hello word")
    assert len(mock_prompt_hash("x")) == 16


def test_mock_exact_hash_beats_substring(tmp_path):
    prompt = "classify this paper about owls"
    gw = mock_gateway(tmp_path, [
        {"match": "substr:owls", "response": "from substring"},
        {"match": f"hash:{mock_prompt_hash(prompt)}", "response": "from hash"},
    ])
    assert gw.complete(prompt).response_text == "from hash"


def test_mock_substring_rules_apply_in_file_order(tmp_path):
    gw = mock_gateway(tmp_path, [
        {"match": "substr:paper", "response": "first"},
        {"match": "substr:owls", "response": "second"},
    ])
    assert gw.complete("a paper about owls").response_text == "first"


def test_mock_miss_raises(tmp_path):
    gw = mock_gateway(tmp_path, [{"match": "substr:zzz", "response": "x"}])
    with pytest.raises(GatewayError, match="no rule"):
        gw.complete("nothing matches this")


def test_mock_without_fixture_always_misses():
    gw = LLMGateway(GatewayConfig(mode="mock"))
    with pytest.raises(GatewayError):
        gw.complete("anything")


def test_mock_fixture_rejects_bad_match_prefix(tmp_path):
    path = write_jsonl(tmp_path / "f.jsonl", [{"match": "regex:x", "response": "y"}])
    with pytest.raises(ValueError, match="hash:"):
        LLMGateway(GatewayConfig(mode="mock", mock_fixture_path=path))


def test_mock_exchange_fields(tmp_path):
    gw = mock_gateway(tmp_path, [{"match": "substr:q", "response": "a"}])
    ex = gw.complete("q1")
    assert ex.attempt_count == 1
    assert ex.response_text == "a"
    assert ex.model_name == "mock-model"
    assert ex.latency_s >= 0.0


def test_exchange_log_appends(tmp_path):
    path = write_jsonl(tmp_path / "f.jsonl", [{"match": "substr:", "response": "ok"}])
    log = tmp_path / "log.jsonl"
    gw = LLMGateway(GatewayConfig(mode="mock", mock_fixture_path=path), log_path=str(log))
    gw.complete("one")
    gw.complete("two")
    lines = [json.loads(l) for l in log.read_text().splitlines()]
    assert [l["prompt_text"] for l in lines] == ["one", "two"]
    assert all(l["response_text"] == "ok" for l in lines)


# ---------------------------------------------------------------- live mode

def live_cfg(**kw):
    kw.setdefault("mode", "live")
    kw.setdefault("base_url", "http://api.example")
    kw.setdefault("model_name", "m1")
    return GatewayConfig(**kw)


def chat_body(text):
    return {"choices": [{"message": {"content": text}}]}


def test_live_retries_on_429_then_succeeds(monkeypatch):
    monkeypatch.setenv("CFC_LLM_API_KEY", "k")
    calls = []
    sleeps = []

    def transport(url, payload, headers, timeout):
        calls.append((url, payload, headers, timeout))
        if len(calls) == 1:
            return 429, {"error": "slow down"}
        return 200, chat_body("fine")

    gw = LLMGateway(live_cfg(), transport=transport, sleep_fn=sleeps.append)
    ex = gw.complete("hello")
    assert ex.response_text == "fine"
    assert ex.attempt_count == 2
    assert sleeps == [1.0]
    url, payload, headers, timeout = calls[0]
    assert url == "http://api.example/chat/completions"
    assert payload["messages"] == [{"role": "user", "content": "hello"}]
    assert payload["temperature"] == 0.0
    assert headers["Authorization"] == "Bearer k"


def test_live_backoff_doubles_until_exhausted(monkeypatch):
    monkeypatch.setenv("CFC_LLM_API_KEY", "k")
    sleeps = []
    gw = LLMGateway(live_cfg(max_retries=3),
                    transport=lambda *a: (503, {}), sleep_fn=sleeps.append)
    with pytest.raises(GatewayError, match="giving up after 4 attempts"):
        gw.complete("x")
    assert sleeps == [1.0, 2.0, 4.0]


def test_live_non_retryable_status_fails_fast(monkeypatch):
    monkeypatch.setenv("CFC_LLM_API_KEY", "k")
    calls = []

    def transport(url, payload, headers, timeout):
        calls.append(url)
        return 400, {"error": "bad request"}

    gw = LLMGateway(live_cfg(), transport=transport, sleep_fn=lambda s: None)
    with pytest.raises(GatewayError, match="non-retryable"):
        gw.complete("x")
    assert len(calls) == 1


def test_live_transport_exception_is_retryable(monkeypatch):
    monkeypatch.setenv("CFC_LLM_API_KEY", "k")
    state = {"n": 0}

    def transport(url, payload, headers, timeout):
        state["n"] += 1
        if state["n"] < 3:
            raise ConnectionError("refused")
        return 200, chat_body("ok")

    gw = LLMGateway(live_cfg(), transport=transport, sleep_fn=lambda s: None)
    assert gw.complete("x").attempt_count == 3


def test_live_requires_api_key(monkeypatch):
    monkeypatch.delenv("CFC_LLM_API_KEY", raising=False)
    gw = LLMGateway(live_cfg(), transport=lambda *a: (200, chat_body("y")))
    with pytest.raises(GatewayError, match="CFC_LLM_API_KEY"):
        gw.complete("x")


def test_base_url_env_override(monkeypatch):
    monkeypatch.setenv("CFC_LLM_API_KEY", "k")
    monkeypatch.setenv("CFC_LLM_BASE_URL", "http://other.example/v1/")
    seen = []

    def transport(url, payload, headers, timeout):
        seen.append(url)
        return 200, chat_body("y")

    gw = LLMGateway(live_cfg(), transport=transport)
    gw.complete("x")
    assert seen == ["http://other.example/v1/chat/completions"]


def test_concurrency_cap_is_enforced(monkeypatch):
    monkeypatch.setenv("CFC_LLM_API_KEY", "k")
    lock = threading.Lock()
    state = {"now": 0, "peak": 0}
    go = threading.Event()

    def transport(url, payload, headers, timeout):
        with lock:
            state["now"] += 1
            state["peak"] = max(state["peak"], state["now"])
        go.wait(0.2)
        with lock:
            state["now"] -= 1
        return 200, chat_body("y")

    gw = LLMGateway(live_cfg(max_concurrent=3), transport=transport)
    threads = [threading.Thread(target=gw.complete, args=(f"p{i}",)) for i in range(8)]
    for t in threads:
        t.start()
    go.set()
    for t in threads:
        t.join()
    assert state["peak"] <= 3


# ---------------------------------------------------------------- HTTP transport


class _Canned(BaseHTTPRequestHandler):
    """Answers each POST with the next (status, body bytes) of server.replies
    and records (path, Authorization, JSON payload) in server.seen."""

    def log_message(self, format, *args):
        pass

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.seen.append((self.path, self.headers.get("Authorization"),
                                 json.loads(body)))
        status, data = self.server.replies.pop(0)
        self.send_response(status)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


@pytest.fixture
def loopback(monkeypatch):
    monkeypatch.setenv("CFC_LLM_API_KEY", "k")
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Canned)
    server.daemon_threads = True
    server.replies, server.seen = [], []
    server.url = f"http://127.0.0.1:{server.server_address[1]}/v1"
    worker = threading.Thread(target=server.serve_forever, daemon=True)
    worker.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        worker.join(timeout=5)
        assert not worker.is_alive()


def test_http_transport_posts_json_and_reads_json(loopback):
    loopback.replies.append((200, json.dumps(chat_body("hi")).encode()))
    gw = LLMGateway(live_cfg(base_url=loopback.url))
    assert gw.complete("hello").response_text == "hi"
    path, auth, payload = loopback.seen[0]
    assert path == "/v1/chat/completions" and auth == "Bearer k"
    assert payload["messages"] == [{"role": "user", "content": "hello"}]


def test_http_transport_wraps_a_body_that_is_not_json(loopback):
    loopback.replies += [(200, b"plain words"), (502, b"<html>bad gateway</html>")]
    url = loopback.url + "/chat/completions"
    assert _http_transport(url, {}, {}, 5.0) == (200, {"raw": "plain words"})
    assert _http_transport(url, {}, {}, 5.0) == (502, {"raw": "<html>bad gateway</html>"})


def test_http_transport_503_is_retried(loopback):
    loopback.replies += [(503, b'{"error": "busy"}'),
                         (200, json.dumps(chat_body("ok")).encode())]
    sleeps = []
    gw = LLMGateway(live_cfg(base_url=loopback.url, max_retries=1),
                    sleep_fn=sleeps.append)
    ex = gw.complete("x")
    assert (ex.response_text, ex.attempt_count) == ("ok", 2)
    assert sleeps == [1.0] and len(loopback.seen) == 2


def test_http_transport_400_fails_without_retry(loopback):
    loopback.replies += [(400, b'{"error": "bad"}'), (200, b"{}")]
    gw = LLMGateway(live_cfg(base_url=loopback.url, max_retries=3),
                    sleep_fn=lambda s: None)
    with pytest.raises(GatewayError, match="non-retryable HTTP 400"):
        gw.complete("x")
    assert len(loopback.seen) == 1


def test_http_transport_refused_port_is_a_transport_error(monkeypatch):
    monkeypatch.setenv("CFC_LLM_API_KEY", "k")
    with socket.socket() as probe:          # a port nothing listens on
        probe.bind(("127.0.0.1", 0))
        url = f"http://127.0.0.1:{probe.getsockname()[1]}/v1"
    with pytest.raises(OSError):
        _http_transport(url + "/chat/completions", {}, {}, 5.0)
    sleeps = []
    gw = LLMGateway(live_cfg(base_url=url, max_retries=1), sleep_fn=sleeps.append)
    with pytest.raises(GatewayError, match="giving up after 2 attempts "
                                           r"\(transport error"):
        gw.complete("x")
    assert sleeps == [1.0]


def test_config_validation():
    with pytest.raises(ValueError):
        GatewayConfig(mode="dream")
    with pytest.raises(ValueError):
        GatewayConfig(temperature=-1.0)
    with pytest.raises(ValueError):
        GatewayConfig(max_concurrent=0)


# ---------------------------------------------------------------- fan-out and reply cache

def parse_int(reply):
    try:
        return int(reply)
    except ValueError:
        raise ParseError(f"not an integer: {reply!r}") from None


def echo_transport(calls, replies=None, delay=0.0):
    """Answers each prompt with replies[prompt] (default: the prompt's
    trailing number) and records every prompt it receives."""
    lock = threading.Lock()

    def transport(url, payload, headers, timeout):
        prompt = payload["messages"][0]["content"]
        with lock:
            calls.append(prompt)
        time.sleep(delay)
        reply = (replies or {}).get(prompt, prompt.split()[-1])
        if reply is None:
            return 400, {"error": "refused"}
        return 200, chat_body(reply)
    return transport


def test_ask_all_keeps_prompt_order_and_retries_parse_failures(monkeypatch):
    monkeypatch.setenv("CFC_LLM_API_KEY", "k")
    calls = []
    gw = LLMGateway(live_cfg(max_concurrent=3),
                    transport=echo_transport(calls, {"q 2": "two"}))
    got = gw.ask_all([f"q {i}" for i in range(6)], parse_int, retries=2)
    assert got == [(0, "0"), (1, "1"), (None, "two"), (3, "3"), (4, "4"), (5, "5")]
    assert calls.count("q 2") == 3                  # 1 + 2 retries


@pytest.mark.parametrize("delay", [0.0, 0.01])
def test_ask_all_first_failure_cancels_pending_prompts(monkeypatch, delay):
    monkeypatch.setenv("CFC_LLM_API_KEY", "k")
    calls = []
    prompts = [f"q {i}" for i in range(2000)]
    gw = LLMGateway(live_cfg(max_concurrent=4, max_retries=0),
                    transport=echo_transport(calls, {"q 3": None}, delay=delay))
    with pytest.raises(GatewayError, match="non-retryable"):
        gw.ask_all(prompts, parse_int)
    assert len(calls) < 20


def test_reply_cache_answers_without_calling_endpoint(monkeypatch, tmp_path):
    monkeypatch.setenv("CFC_LLM_API_KEY", "k")
    cache, log = str(tmp_path / "cache.jsonl"), tmp_path / "log.jsonl"
    calls = []
    transport = echo_transport(calls, {"q 1": "never"})
    first = LLMGateway(live_cfg(), transport=transport, cache_path=cache)
    assert first.ask_all(["q 0", "q 1"], parse_int) == [(0, "0"), (None, "never")]
    # a new gateway (a later run) reads the cache; only what never parsed is asked
    calls.clear()
    again = LLMGateway(live_cfg(), transport=transport, cache_path=cache,
                       log_path=str(log))
    assert again.ask_all(["q 0", "q 1"], parse_int) == [(0, "0"), (None, "never")]
    assert calls == ["q 1"]
    assert [json.loads(l)["prompt_text"] for l in log.read_text().splitlines()] == ["q 1"]
    # the key covers model and temperature
    other = LLMGateway(live_cfg(model_name="m2"), transport=transport, cache_path=cache)
    calls.clear()
    other.ask_all(["q 0"], parse_int)
    assert calls == ["q 0"]


def test_reply_cache_drops_torn_final_line(monkeypatch, tmp_path):
    monkeypatch.setenv("CFC_LLM_API_KEY", "k")
    cache = tmp_path / "cache.jsonl"
    calls = []
    LLMGateway(live_cfg(), transport=echo_transport(calls),
               cache_path=str(cache)).ask_all(["q 0", "q 1"], parse_int)
    whole = cache.read_bytes()
    cache.write_bytes(whole + b'{"key": "abc", "resp')      # killed mid-append
    gw = LLMGateway(live_cfg(), transport=echo_transport(calls), cache_path=str(cache))
    assert cache.read_bytes() == whole
    calls.clear()
    assert gw.ask_all(["q 0", "q 2"], parse_int) == [(0, "0"), (2, "2")]
    assert calls == ["q 2"]
    lines = cache.read_text().splitlines()
    assert len(lines) == 3 and json.loads(lines[-1])["response"] == "2"


def test_reply_cache_appends_survive_many_workers(monkeypatch, tmp_path):
    monkeypatch.setenv("CFC_LLM_API_KEY", "k")
    cache = tmp_path / "cache.jsonl"
    prompts = [f"q {i}" for i in range(400)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        gw = LLMGateway(live_cfg(max_concurrent=16), transport=echo_transport([]),
                        cache_path=str(cache))
        got = gw.ask_all(prompts, parse_int)
    finally:
        sys.setswitchinterval(old)
    assert got == [(i, str(i)) for i in range(400)]
    lines = cache.read_text().splitlines()
    assert sorted(int(json.loads(l)["response"]) for l in lines) == list(range(400))
    calls = []
    again = LLMGateway(live_cfg(), transport=echo_transport(calls), cache_path=str(cache))
    assert again.ask_all(prompts, parse_int) == got and calls == []


def test_a_batch_opens_the_log_and_the_reply_cache_once(monkeypatch, tmp_path):
    monkeypatch.setenv("CFC_LLM_API_KEY", "k")
    log, cache = tmp_path / "log.jsonl", tmp_path / "cache.jsonl"
    echo = echo_transport([])
    lines_seen = []

    def transport(*args):
        # each line is flushed before the next prompt is asked
        lines_seen.append(tuple(len(f.read_bytes().splitlines()) if f.exists() else 0
                                for f in (log, cache)))
        return echo(*args)

    gw = LLMGateway(live_cfg(max_concurrent=1), transport=transport,
                    log_path=str(log), cache_path=str(cache))
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(os.path.basename(file))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(gateway_module, "open", counting_open, raising=False)
    assert gw.ask_all([f"q {i}" for i in range(5)], parse_int) == \
        [(i, str(i)) for i in range(5)]
    assert sorted(opened) == ["cache.jsonl", "log.jsonl"]
    assert lines_seen == [(k, k) for k in range(5)]
    # one line per record, as json.dumps writes it
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert log.read_text() == "".join(
        json.dumps(r, ensure_ascii=False) + "\n" for r in records)
    assert gw._open_files is None           # closed when the batch ends
    gw.complete("q 5")                      # outside a batch: opened per line
    assert opened.count("log.jsonl") == 2
    assert len(log.read_text().splitlines()) == 6


def test_mock_mode_ignores_reply_cache(tmp_path):
    cache = tmp_path / "cache.jsonl"
    path = write_jsonl(tmp_path / "f.jsonl", [{"match": "substr:", "response": "7"}])
    gw = LLMGateway(GatewayConfig(mode="mock", mock_fixture_path=path),
                    cache_path=str(cache))
    assert gw.ask_all(["q"], parse_int) == [(7, "7")]
    assert not cache.exists()
