"""Loopback OpenAI-compatible chat endpoint for the text-live workload.

One process, stdlib only. POST /chat/completions is answered from the plan
that gen.py wrote, after a fixed service delay. The prompt kind is told apart
by its template wording and the node by the "[nNNNNN]" marker that starts
every node text. A prompt the plan cannot answer gets HTTP 400, which the
program treats as a non-retryable failure.

GET /stats returns the counters: accepted TCP connections and answered
requests, not counting /stats itself. The server speaks HTTP/1.1, so a client
that keeps connections alive is served over one connection.

    python3 stub.py --plan stub_plan.json --delay 0.01

prints "port <n>" once listening on 127.0.0.1 and exits when its stdin closes.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_NODE = re.compile(r"\[n(\d{5})\]")


class Plan:
    def __init__(self, doc: dict):
        self.major = doc["major"]
        self.candidates = doc["candidates"]
        self.screen = doc["screen"]
        self.classify = doc["classify"]

    def answer(self, prompt: str) -> str | None:
        if "Which major category" in prompt:
            return json.dumps([{"answer": self.major}])
        if "possible paper" in prompt:
            return json.dumps([{"answer": c} for c in self.candidates])
        m = _NODE.search(prompt)
        if m is None:
            return None
        node = int(m.group(1))
        if node >= len(self.screen):
            return None
        if "Is the topic of this paper in the category list" in prompt:
            return self.screen[node]
        if "Which category does this paper belong to" in prompt:
            return json.dumps([{"answer": self.classify[node],
                                "confidence": 0.9}])
        return None


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, plan: Plan, delay: float):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.plan = plan
        self.delay = delay
        self.lock = threading.Lock()
        self.connections = 0
        self.stats_connections = 0
        self.requests = 0

    def process_request(self, request, client_address):
        with self.lock:
            self.connections += 1
        super().process_request(request, client_address)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: StubServer

    def log_message(self, format, *args):       # keep stderr quiet
        pass

    def _send(self, status: int, body: dict) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        if self.path.rstrip("/") != "/stats":
            self._send(404, {"error": "not found"})
            return
        s = self.server
        with s.lock:
            # connections that asked for /stats are not the program's
            s.stats_connections += 1
            body = {"connections": s.connections - s.stats_connections,
                    "requests": s.requests}
        self._send(200, body)
        self.close_connection = True

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        raw = self.rfile.read(length)
        s = self.server
        with s.lock:
            s.requests += 1
        if not self.path.endswith("/chat/completions"):
            self._send(404, {"error": "not found"})
            return
        try:
            prompt = json.loads(raw)["messages"][-1]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            self._send(400, {"error": "malformed request"})
            return
        text = s.plan.answer(prompt)
        time.sleep(s.delay)
        if text is None:
            self._send(400, {"error": "prompt not in plan"})
            return
        self._send(200, {"choices": [{"index": 0, "message": {
            "role": "assistant", "content": text}}]})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--plan", required=True)
    ap.add_argument("--delay", type=float, required=True,
                    help="service delay per request, seconds")
    args = ap.parse_args(argv)
    with open(args.plan, "r", encoding="utf-8") as fh:
        plan = Plan(json.load(fh))
    server = StubServer(plan, args.delay)
    worker = threading.Thread(target=server.serve_forever, daemon=True)
    worker.start()
    print(f"port {server.server_address[1]}", flush=True)
    sys.stdin.read()          # the parent closes our stdin to stop us
    server.shutdown()
    server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
