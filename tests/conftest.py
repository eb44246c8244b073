import json
import math
import socket
import threading
import time
from contextlib import contextmanager
from fractions import Fraction
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterator

import numpy as np
import pytest

from sqlkb import transport
from sqlkb.dataset import load_dataset
from sqlkb.llm import LlmClient, LlmConfig, RetryPolicy, prompt_sha256, synthetic_completer
from sqlkb.retriever import EmbeddingProvider
from sqlkb.toy import generate_toy

GOLDEN_DIR = Path(__file__).parent / "goldens"
STUB_TIMEOUT = 30.0  # seconds any one stub-backed call, or the shutdown, may take


@pytest.fixture(scope="session")
def toy_dir(tmp_path_factory) -> Path:
    target = tmp_path_factory.mktemp("toy")
    return generate_toy(target)


@pytest.fixture(scope="session")
def train_ds(toy_dir):
    return load_dataset(toy_dir / "train.json", toy_dir / "databases")


@pytest.fixture(scope="session")
def test_ds(toy_dir):
    return load_dataset(toy_dir / "test.json", toy_dir / "databases", split="test")


@pytest.fixture()
def provider() -> EmbeddingProvider:
    return EmbeddingProvider(dim=256)


@pytest.fixture(scope="session")
def goldens() -> Path:
    return GOLDEN_DIR


TIE_VOCAB = ("alpha", "beta", "gamma", "delta", "omega")


@pytest.fixture(scope="session")
def tie_heavy_texts() -> Callable[[int, int], list[str]]:
    """n distinct texts over a five-word vocabulary: reorderings of one bag
    of words embed identically, so many rows and scores tie exactly."""

    def make(n: int, seed: int = 0) -> list[str]:
        rng = np.random.default_rng(seed)
        texts: dict[str, None] = {}
        while len(texts) < n:
            words = rng.choice(TIE_VOCAB, size=rng.integers(1, 7))
            texts[" ".join(words)] = None
        return list(texts)

    return make


@pytest.fixture(scope="session")
def count_best_cosines() -> Callable[[EmbeddingProvider, list[str], list[str]], list[float]]:
    """Per probe text, the best cosine over `texts` as `kb_coverage` reports
    it, from the hash backend's token counts pair by pair in exact arithmetic:
    the largest key d·|d| / ‖row‖² (0 for an all-zero row), then
    sign(key)·sqrt(|key|) / ‖probe‖ (0 for an all-zero probe)."""

    def best(provider: EmbeddingProvider, texts: list[str], probes: list[str]) -> list[float]:
        rows = [[int(c) for c in row] for row in provider.raw_many(texts)]
        out = []
        for probe in map(provider.raw, probes):
            q = [int(c) for c in probe]
            keys = []
            for row in rows:
                d, rr = sum(a * b for a, b in zip(row, q)), sum(a * a for a in row)
                keys.append(Fraction(d * abs(d), rr) if rr else Fraction(0))
            key = float(max(keys))
            qq = sum(a * a for a in q)
            out.append(math.copysign(math.sqrt(abs(key)), key) / math.sqrt(qq) if qq else 0.0)
        return out

    return best


@pytest.fixture()
def sent(monkeypatch) -> SimpleNamespace:
    """The URLs `transport` posts to (`posts`) and the retry waits it takes
    (`sleeps`), recorded in place of sleeping."""
    sent = SimpleNamespace(posts=[], sleeps=[])
    post_json = transport.post_json

    def counting_post(*args):
        sent.posts.append(args[0])
        return post_json(*args)

    monkeypatch.setattr(transport, "post_json", counting_post)
    monkeypatch.setattr(transport, "time", SimpleNamespace(sleep=sent.sleeps.append))
    return sent


@pytest.fixture()
def refused_url() -> str:
    """A localhost URL nothing listens on: connecting to it is refused."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return f"http://127.0.0.1:{sock.getsockname()[1]}/v1"


class StubServer(ThreadingHTTPServer):
    # socketserver's listen backlog is 5; a connect that overflows it waits
    # out a 1 s SYN retransmit, so leave room for a full fan_out window
    request_queue_size = 64


@contextmanager
def serving(handle: Callable[[str, dict], tuple]) -> Iterator[str]:
    """Serve `handle` on a threaded localhost server and yield its base URL.

    Each POST's path and JSON body go to `handle(path, body)`, which returns
    the answer's status and JSON payload, and optionally a dict of headers
    to add. On exit the server shuts down and joins its request threads,
    failing the test if that takes over STUB_TIMEOUT.
    """

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self) -> None:
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            status, payload, *headers = handle(self.path, body)
            data = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            for name, value in (headers[0] if headers else {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args) -> None:
            pass

    server = StubServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = False  # server_close() joins the request threads
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:

        def stop() -> None:
            server.shutdown()
            server.server_close()

        stopping = threading.Thread(target=stop, daemon=True)
        stopping.start()
        stopping.join(timeout=STUB_TIMEOUT)
        assert not stopping.is_alive(), "stub server did not shut down"


class ChatStub:
    """Threaded localhost chat-completions endpoint answering `synthetic_completer`.

    Each request sleeps between half and all of `latency` seconds, by
    prompt hash, so concurrent completions finish out of submission order. `status(prompt)`
    picks the answer's HTTP status (200 by default). A client made with
    `gated=True` sets `gate`, a barrier of max_inflight parties that each
    request waits on before sleeping: every window of max_inflight requests
    is then in flight at once, however loaded the machine is.
    Counts requests in arrival order and the most in flight at once.
    """

    def __init__(self) -> None:
        self.url = ""
        self.latency = 0.0
        self.status: Callable[[str], int] = lambda prompt: 200
        self.gate: threading.Barrier | None = None
        self.seen: list[str] = []
        self.inflight = 0
        self.inflight_max = 0
        self._lock = threading.Lock()

    def handle(self, path: str, body: dict) -> tuple[int, dict]:
        prompt = body["messages"][0]["content"]
        with self._lock:
            self.seen.append(prompt)
            self.inflight += 1
            self.inflight_max = max(self.inflight_max, self.inflight)
        try:
            if self.gate is not None:
                self.gate.wait()
            time.sleep(self.latency * (1 + int(prompt_sha256(prompt)[:2], 16) / 255) / 2)
            status = self.status(prompt)
            if status != 200:
                return status, {"error": {"message": "stub refused"}}
            return 200, {"choices": [{"message": {"content": synthetic_completer(prompt)}}]}
        finally:
            with self._lock:
                self.inflight -= 1

    def client(self, max_inflight: int, backoff: float = 0.01, gated: bool = False) -> LlmClient:
        if gated:
            self.gate = threading.Barrier(max_inflight, timeout=STUB_TIMEOUT)
        config = LlmConfig(
            backend="http",
            endpoint=self.url,
            timeout=STUB_TIMEOUT,
            max_inflight=max_inflight,
            retry=RetryPolicy(attempts=3, backoff=backoff),
        )
        return LlmClient(config)

    def bounded(self, fn: Callable, *args):
        """Return fn(*args), failing the test if it takes over STUB_TIMEOUT."""
        outcome: dict = {}

        def run() -> None:
            try:
                outcome["result"] = fn(*args)
            except BaseException as exc:  # re-raised on the test's thread
                outcome["error"] = exc

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=STUB_TIMEOUT)
        assert not worker.is_alive(), f"{fn.__name__} did not finish in {STUB_TIMEOUT}s"
        if "error" in outcome:
            raise outcome["error"]
        return outcome["result"]


@pytest.fixture()
def chat_stub():
    stub = ChatStub()
    with serving(stub.handle) as url:
        stub.url = f"{url}/v1"
        yield stub


class EmbedStub:
    """Threaded localhost embedding endpoint.

    Answers {"texts": [...]} with `status` and, for a 2xx, {"embeddings":
    rows(path, texts)}; by default the texts' hash rows at dim 256. The
    (status, headers) pairs in `script` answer the first requests instead
    of `status`. Records each request's texts, in arrival order, in `batches`.
    """

    def __init__(self) -> None:
        self.url = ""
        self.status = 200
        self.script: list[tuple[int, dict]] = []
        hashed = EmbeddingProvider(dim=256)
        self.rows: Callable[[str, list[str]], list] = (
            lambda path, texts: hashed.raw_many(texts).tolist()
        )
        self.batches: list[list[str]] = []
        self._lock = threading.Lock()

    def handle(self, path: str, body: dict) -> tuple[int, dict, dict]:
        with self._lock:
            self.batches.append(body["texts"])
            status, headers = self.script.pop(0) if self.script else (self.status, {})
        if status >= 300:
            return status, {"error": "stub refused"}, headers
        return status, {"embeddings": self.rows(path, body["texts"])}, headers


@pytest.fixture()
def embed_stub():
    stub = EmbedStub()
    with serving(stub.handle) as url:
        stub.url = f"{url}/embed"
        yield stub
