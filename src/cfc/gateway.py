"""Gateway to an OpenAI-compatible chat endpoint, plus a deterministic mock
mode for offline runs and tests.

LLMGateway.ask_all is the one concurrent fan-out: it asks a batch of prompts,
re-asks a prompt whose reply does not parse, and stops at the first gateway
failure. Only a live batch with two or more prompts to ask and max_concurrent
of 2 or more goes through a thread pool; any other batch (every mock batch)
is asked in the calling thread, in prompt order, so its exchange log is in
prompt order too. In live mode it also keeps a content-addressed reply cache
(append-only JSONL) of every paid reply, keyed by prompt and attempt, so an
answer already paid for, parsed or not, is never bought twice, whether a
stage reruns after an edit or after a crash. A gateway keeps its HTTP
connections alive between calls, so it opens at most one per concurrent
slot, and keeps them and its JSONL files open until it is closed.

Mock fixtures are JSONL rule files. Each line is
    {"match": "hash:<hex>" | "substr:<text>", "response": "<reply>"}
Exact hash rules are consulted before substring rules; substring rules apply in
file order. The hash key is the stable hash of the whitespace-collapsed prompt
(see mock_prompt_hash), so tests can pin individual prompts while bulk-handling
the rest with substrings.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from .config import BASE_URL_ENV, GatewayConfig
from .jsonl import read_jsonl
from .records import ChatExchange

API_KEY_ENV = "CFC_LLM_API_KEY"

RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})


class GatewayError(RuntimeError):
    """Raised when a request cannot be satisfied (after retries, or mock miss)."""


class ParseError(ValueError):
    """LLM reply did not contain the expected JSON payload."""


def mock_prompt_hash(prompt: str) -> str:
    """Stable 64-bit prompt key: sha256 of the whitespace-collapsed prompt,
    first 16 hex digits. Whitespace runs collapse so reflowed prompts match:
    str.split's whitespace is the same set of code points as the \\s of re."""
    collapsed = " ".join(prompt.split())
    return hashlib.sha256(collapsed.encode("utf-8")).hexdigest()[:16]


def _load_fixture(path: str) -> tuple[dict[str, str], list[tuple[str, str]]]:
    by_hash: dict[str, str] = {}
    substr: list[tuple[str, str]] = []
    for lineno, rec in read_jsonl(path):
        match, response = (rec.get("match"), rec.get("response")) \
            if isinstance(rec, dict) else (None, None)
        if not isinstance(match, str) or not isinstance(response, str):
            raise ValueError(f"{path}:{lineno}: fixture line needs string match and response")
        if match.startswith("hash:"):
            by_hash[match[5:]] = response
        elif match.startswith("substr:"):
            substr.append((match[7:], response))
        else:
            raise ValueError(f"{path}:{lineno}: match must start with 'hash:' or 'substr:'")
    return by_hash, substr


def _load_cache(path: str) -> dict[str, str]:
    """Reply cache: key -> reply. A torn final line (a kill mid-append) is
    dropped and cut off the file, so the next append starts a whole line."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return {}
    end = data.rfind(b"\n") + 1
    if end < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(end)
    cache: dict[str, str] = {}
    for lineno, line in enumerate(data[:end].decode("utf-8").splitlines(), start=1):
        try:
            rec = json.loads(line)
            cache[rec["key"]] = rec["response"]
        except (ValueError, KeyError, TypeError) as exc:
            raise GatewayError(f"{path}:{lineno}: malformed cache line") from exc
    return cache


# how a request on a kept-alive connection fails when the server closed or
# reset that connection while it was idle
_CLOSED_BY_SERVER = (BrokenPipeError, ConnectionResetError, ConnectionAbortedError)


def _open_connection(url: str, timeout: float):
    """A new HTTP/1.1 connection for url (it connects on its first request),
    the request target to send on it, and the headers the proxy needs. The
    proxy is the one urllib would use: http_proxy or https_proxy, unless
    no_proxy covers the host. An http URL is asked of the proxy by its
    absolute URI, an https URL through a CONNECT tunnel. Certificates are
    checked against the system CA store."""
    import base64
    import http.client
    import ssl
    from urllib.parse import unquote, urlsplit
    from urllib.request import getproxies, proxy_bypass

    parts = urlsplit(url)
    target = parts.path + ("?" + parts.query if parts.query else "") or "/"
    scheme, host, port = parts.scheme, parts.hostname, parts.port
    proxy, proxy_headers, tunnel = getproxies().get(scheme), {}, None
    if proxy and not proxy_bypass(parts.netloc):
        via = urlsplit(proxy if "://" in proxy else "http://" + proxy)
        auth = {}
        if via.username and via.password:
            creds = f"{unquote(via.username)}:{unquote(via.password)}".encode("utf-8")
            auth = {"Proxy-Authorization":
                    "Basic " + base64.b64encode(creds).decode("ascii")}
        if scheme == "https":
            tunnel = (host, port, auth)
        else:
            scheme, target, proxy_headers = via.scheme, url, auth
        host, port = via.hostname, via.port
    if scheme != "https":
        return http.client.HTTPConnection(host, port, timeout=timeout), target, proxy_headers
    conn = http.client.HTTPSConnection(host, port, timeout=timeout,
                                       context=ssl.create_default_context())
    if tunnel:
        conn.set_tunnel(*tunnel)
    return conn, target, proxy_headers


def _request(conn, target: str, body: bytes, headers: dict):
    """Send one POST on conn and read the reply's status line and headers."""
    import socket

    conn.request("POST", target, body, headers)
    # ack each reply segment at once: a server that writes its headers and
    # its body apart would otherwise wait for our delayed ACK (about 40 ms)
    # before it sends the body
    if hasattr(socket, "TCP_QUICKACK"):
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
    return conn.getresponse()


class _Connections:
    """The transport of live mode: transport(url, payload, headers, timeout)
    -> (status, body), over HTTP/1.1 connections kept alive between calls.

    A call takes an idle connection to its URL, or opens one, and gives it
    back after a complete reply. After an error, a timeout, or a reply that
    ends the connection, the connection is closed instead. So concurrent
    callers hold at most one connection each. close() closes the idle ones.
    """

    def __init__(self):
        self._idle: dict[str, list] = {}        # url -> [(conn, target, proxy headers)]
        self._lock = threading.Lock()

    def __call__(self, url: str, payload: dict, headers: dict, timeout: float):
        """POST payload as JSON; returns (status, body) for every HTTP
        status, with a non-JSON body as {"raw": text}. Connection errors and
        timeouts raise. An idle connection that the server has closed is
        opened again once, and the request sent again."""
        body = json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json", **headers}
        with self._lock:
            idle = self._idle.get(url)
            kept = idle.pop() if idle else None
        conn, target, proxy_headers = kept or _open_connection(url, timeout)
        resp = None
        try:
            if kept:
                conn.sock.settimeout(timeout)
                try:
                    resp = _request(conn, target, body, {**headers, **proxy_headers})
                except _CLOSED_BY_SERVER:
                    conn.close()
                    conn, target, proxy_headers = _open_connection(url, timeout)
            if resp is None:
                resp = _request(conn, target, body, {**headers, **proxy_headers})
            status, raw = resp.status, resp.read()
        except BaseException:
            if resp is not None:
                resp.close()
            conn.close()
            raise
        if resp.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.setdefault(url, []).append((conn, target, proxy_headers))
        text = raw.decode("utf-8", errors="replace")
        try:
            return status, json.loads(text)
        except ValueError:
            return status, {"raw": text}

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, {}
        for kept in idle.values():
            for conn, _, _ in kept:
                conn.close()


class LLMGateway:
    """Thread-safe client; in live mode ask_all's pool of cfg.max_concurrent
    workers caps the calls in flight, and a batch that cannot overlap (mock
    mode, one slot, one prompt) starts no thread. The optional exchange log
    and, in live mode, the optional reply cache are append-only JSONL, each
    open from its first line until close(), which also closes the kept-alive
    connections; use a gateway in a with block. transport(url, payload,
    headers, timeout) -> (status, body) replaces HTTP, for tests."""

    def __init__(self, cfg: GatewayConfig, transport=None, sleep_fn=time.sleep,
                 log_path: str | None = None, cache_path: str | None = None):
        self.cfg = cfg
        self._connections = _Connections()
        self._transport = transport or self._connections
        self._sleep = sleep_fn
        self._log_path = log_path
        # mock replies are already a local lookup: nothing to cache
        self._cache_path = cache_path if cfg.mode == "live" else None
        self._cache = _load_cache(self._cache_path) if self._cache_path else {}
        self._write_lock = threading.Lock()
        self._open_files: dict = {}             # path -> append handle
        self._fixture_hash: dict[str, str] = {}
        self._fixture_substr: list[tuple[str, str]] = []
        if cfg.mode == "mock" and cfg.mock_fixture_path:
            self._fixture_hash, self._fixture_substr = _load_fixture(cfg.mock_fixture_path)

    def close(self) -> None:
        """Close the kept-alive connections and the JSONL files; idempotent."""
        with self._write_lock:
            files, self._open_files = self._open_files, {}
        self._connections.close()
        for fh in files.values():
            fh.close()

    def __enter__(self) -> LLMGateway:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- fan-out

    def ask_all(self, prompts, parse, retries: int = 0) -> list[tuple]:
        """Ask every prompt; returns (parse(reply) or None, reply) per prompt,
        in prompt order.

        A reply on which parse raises ParseError is asked again, up to retries
        more times; if none parses, the value is None and the reply is the
        last one. A pass over the reply cache alone settles what it can first;
        only endpoint calls are logged. In live mode, two or more prompts left
        run on a pool of cfg.max_concurrent workers (when that is 2 or more),
        and the log is in completion order; otherwise they are asked one after
        another in the calling thread, and the log is in prompt order. After
        the first failure no further prompt is started, and a failure is
        raised once the prompts in flight have finished.
        """
        results: list = [None] * len(prompts)
        if self._cache:             # empty in mock mode: no prompt is hashed
            results = [self._ask(p, parse, retries, pay=False) for p in prompts]
        todo = [k for k, result in enumerate(results) if result is None]

        if self.cfg.mode != "live" or self.cfg.max_concurrent < 2 or len(todo) < 2:
            # no two calls can overlap (a mock reply is a lookup that holds
            # the GIL): ask in this thread, in prompt order; a failure
            # propagates before the next prompt is started
            for k in todo:
                results[k] = self._ask(prompts[k], parse, retries)
            return results

        failed = threading.Event()

        def ask(prompt: str):
            if failed.is_set():         # after a failure, start nothing new
                return None
            try:
                return self._ask(prompt, parse, retries)
            except BaseException:
                failed.set()
                raise

        with ThreadPoolExecutor(max_workers=self.cfg.max_concurrent) as pool:
            futures = {k: pool.submit(ask, prompts[k]) for k in todo}
        for k, fut in futures.items():
            results[k] = fut.result()
        return results

    def _ask(self, prompt: str, parse, retries: int, pay: bool = True) -> tuple | None:
        """The attempts at one prompt, in order, until a reply parses. An
        attempt the reply cache holds is replayed; any other is bought from
        the endpoint and cached, parsed or not, so no paid reply is bought
        twice. Without pay, returns None at the first attempt not cached."""
        reply = ""
        for attempt in range(retries + 1):
            key = self._cache_key(prompt, attempt) if self._cache_path else None
            reply = self._cache.get(key)
            if reply is None:
                if not pay:
                    return None
                reply = self.complete(prompt).response_text
                if key is not None:
                    self._append(self._cache_path, {"key": key, "response": reply})
                    self._cache[key] = reply
            try:
                return parse(reply), reply
            except ParseError:
                continue
        return None, reply

    def _cache_key(self, prompt: str, attempt: int) -> str:
        # the base URL is left out: the same model answers wherever it is served
        ident = [self.cfg.model_name, float(self.cfg.temperature), prompt]
        if attempt:
            ident.append(attempt)
        return hashlib.sha256(json.dumps(ident).encode("utf-8")).hexdigest()

    # ------------------------------------------------------------- chat

    def complete(self, prompt: str) -> ChatExchange:
        if not isinstance(prompt, str) or not prompt:
            raise ValueError("prompt must be a non-empty string")
        start = time.perf_counter()
        if self.cfg.mode == "mock":
            text, attempts = self._mock_lookup(prompt), 1
        else:
            text, attempts = self._live_complete(prompt)
        exchange = ChatExchange(
            prompt_text=prompt,
            response_text=text,
            latency_s=time.perf_counter() - start,
            attempt_count=attempts,
            model_name=self.cfg.model_name,
        )
        self._append_log(exchange)
        return exchange

    def _mock_lookup(self, prompt: str) -> str:
        key = mock_prompt_hash(prompt)
        if key in self._fixture_hash:
            return self._fixture_hash[key]
        for needle, response in self._fixture_substr:
            if needle in prompt:
                return response
        raise GatewayError(
            f"mock fixture has no rule for prompt hash {key} "
            f"(prompt starts: {prompt[:60]!r})")

    def _resolve_base_url(self) -> str:
        """$CFC_LLM_BASE_URL, else base_url: a live config must set one."""
        return (os.environ.get(BASE_URL_ENV) or self.cfg.base_url).rstrip("/")

    def _auth_headers(self) -> dict:
        key = os.environ.get(API_KEY_ENV)
        if not key:
            raise GatewayError(f"live mode needs {API_KEY_ENV} set")
        return {"Authorization": f"Bearer {key}"}

    def _post_with_retries(self, url: str, payload: dict) -> tuple[dict, int]:
        headers = self._auth_headers()
        last_err = "no attempt made"
        for attempt in range(1, self.cfg.max_retries + 2):
            try:
                status, body = self._transport(url, payload, headers, self.cfg.request_timeout)
            except Exception as exc:     # transport-level failure, retryable
                last_err = f"transport error: {exc}"
            else:
                if status == 200:
                    return body, attempt
                last_err = f"HTTP {status}: {str(body)[:200]}"
                if status not in RETRYABLE_STATUS:
                    raise GatewayError(f"{url}: non-retryable {last_err}")
            if attempt <= self.cfg.max_retries:
                self._sleep(1.0 * (2 ** (attempt - 1)))
        raise GatewayError(f"{url}: giving up after {self.cfg.max_retries + 1} attempts ({last_err})")

    def _live_complete(self, prompt: str) -> tuple[str, int]:
        url = self._resolve_base_url() + "/chat/completions"
        payload = {
            "model": self.cfg.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.cfg.temperature,
        }
        body, attempts = self._post_with_retries(url, payload)
        try:
            return body["choices"][0]["message"]["content"], attempts
        except (KeyError, IndexError, TypeError) as exc:
            raise GatewayError(f"unexpected completion payload shape: {exc}") from exc

    # ------------------------------------------------------------- JSONL files

    def _append_log(self, exchange: ChatExchange) -> None:
        if self._log_path is not None:
            self._append(self._log_path, vars(exchange))

    def _append(self, path: str, record: dict) -> None:
        """Append one line, flushed before the lock is released. A file is
        opened on its first line, so nothing creates it before then."""
        line = json.dumps(record, ensure_ascii=False) + "\n"
        with self._write_lock:
            fh = self._open_files.get(path)
            if fh is None:
                fh = self._open_files[path] = open(path, "a", encoding="utf-8")
            fh.write(line)
            fh.flush()
