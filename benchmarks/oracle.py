"""The benchmark's LLM: an oracle completer and a fake OpenAI-compatible endpoint.

The oracle knows every test question's gold SQL. For SQL prompts it answers
the gold SQL for a fixed, hash-chosen share of the test questions and a valid
query that can never match for the rest, so the expected execution accuracy
is known without running the program. Every other prompt (knowledge
generation, refinement) gets one deterministic knowledge line.

`FakeEndpoint` serves the same oracle over stdlib `http.server` with a slept
latency and a fixed fault schedule, and counts requests, error statuses and
the most requests in flight at once.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

# One row, one column, a value no generated table holds: never equals a gold result.
MISS_SQL = "SELECT 'oracle-miss'"
GOLD_SHARE = 0.6  # share of test questions the benchmark's oracle answers with gold SQL
KNOWLEDGE_VARIANTS = 2


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def target_question(prompt: str) -> str:
    """The question of the prompt's final (open) block."""
    tail = prompt.rsplit("Question: ", 1)[-1]
    return tail.split("\n", 1)[0]


def gold_hits(questions: list[str], share: float, salt: str) -> set[str]:
    """The round(share * n) questions with the smallest salted hash."""
    ranked = sorted(questions, key=lambda q: _sha(f"{salt}:{q}"))
    return set(ranked[: round(share * len(ranked))])


class Oracle:
    """Deterministic completion function, usable as `LlmClient(fallback=...)`."""

    def __init__(self, gold_sql: dict[str, str], share: float, salt: str) -> None:
        self.gold_sql = gold_sql
        self.hits = gold_hits(sorted(gold_sql), share, salt)

    def __call__(self, prompt: str) -> str:
        question = target_question(prompt)
        if prompt.endswith("SQL: "):
            return self.gold_sql[question] if question in self.hits else MISS_SQL
        # Up to KNOWLEDGE_VARIANTS distinct lines per question, so repeated
        # iterations over one question exercise the KB's dedup.
        variant = int(_sha(prompt)[:8], 16) % KNOWLEDGE_VARIANTS
        return f"{question.rstrip('?.')} refers to variant {variant}"


class FaultSchedule:
    """Answers the first attempt of every `every`-th distinct prompt (the
    every/2-th, 3*every/2-th, ...) with an error: 429 or 503 by prompt hash.

    The schedule is by arrival order of first attempts, so the fault count is
    exactly the same for every seed and every order of arrival.
    """

    def __init__(self, every: int = 100) -> None:
        self.every = every
        self.seen: set[str] = set()
        self.faults = 0

    def status(self, prompt: str) -> int:
        digest = _sha(prompt)
        if digest in self.seen:
            return 200
        self.seen.add(digest)
        if len(self.seen) % self.every != self.every // 2:
            return 200
        self.faults += 1
        return 429 if int(digest[:2], 16) % 2 == 0 else 503


class FakeEndpoint:
    """Localhost chat-completions server; `start()` returns its base URL."""

    def __init__(self, completer, latency: float = 0.02, fault_every: int = 100) -> None:
        self.completer = completer
        self.latency = latency
        self.schedule = FaultSchedule(fault_every)
        self.requests = 0
        self.errors = 0
        self.inflight = 0
        self.inflight_max = 0
        self._lock = threading.Lock()
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def _handle(self, body: bytes) -> tuple[int, dict]:
        prompt = json.loads(body)["messages"][0]["content"]
        with self._lock:
            self.requests += 1
            self.inflight += 1
            self.inflight_max = max(self.inflight_max, self.inflight)
            status = self.schedule.status(prompt)
            if status != 200:
                self.errors += 1
        try:
            time.sleep(self.latency)
            if status != 200:
                return status, {"error": {"message": "injected fault"}}
            content = self.completer(prompt)
            return 200, {"choices": [{"message": {"role": "assistant", "content": content}}]}
        finally:
            with self._lock:
                self.inflight -= 1

    def start(self) -> str:
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self) -> None:
                body = self.rfile.read(int(self.headers["Content-Length"]))
                status, payload = endpoint._handle(body)
                data = json.dumps(payload).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args) -> None:
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = False  # server_close() joins request threads
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1"

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._thread.join(timeout=10)
            self._server = None

    def __enter__(self) -> str:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
