import dataclasses
import hashlib
import json
import subprocess
import sys
import threading
import time
import tracemalloc
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from types import SimpleNamespace

import pytest

import sqlkb
from sqlkb import transport
from sqlkb.errors import (
    ContextOverflowError,
    LlmError,
    MockMissError,
    ParseError,
    ReplayDriftError,
)
from sqlkb.llm import (
    CallLedger,
    LedgerRecord,
    LlmClient,
    LlmConfig,
    RetryPolicy,
    load_fixture,
    prompt_sha256,
    synthetic_completer,
)
from sqlkb.transport import post_json


def test_prompt_sha256_is_plain_sha256():
    assert prompt_sha256("abc") == hashlib.sha256(b"abc").hexdigest()


def test_temperature_validation():
    with pytest.raises(ValueError):
        LlmConfig(temperature=-0.1)


# --- mock backend ---

def test_mock_canned_response():
    digest = prompt_sha256("hello")
    client = LlmClient(LlmConfig(backend="mock"), responses={digest: "world"})
    assert client.complete("hello") == "world"


def test_mock_fallback():
    client = LlmClient(LlmConfig(backend="mock"), fallback=lambda p: p.upper())
    assert client.complete("abc") == "ABC"


def test_mock_canned_wins_over_fallback():
    digest = prompt_sha256("hi")
    client = LlmClient(
        LlmConfig(backend="mock"), responses={digest: "canned"}, fallback=lambda p: "fb"
    )
    assert client.complete("hi") == "canned"


def test_mock_miss():
    client = LlmClient(LlmConfig(backend="mock"))
    with pytest.raises(MockMissError):
        client.complete("nothing canned")


def test_empty_prompt_rejected():
    client = LlmClient(LlmConfig(backend="mock"), fallback=lambda p: "x")
    with pytest.raises(LlmError):
        client.complete("")


def test_context_overflow_checked_before_backend():
    calls = []
    client = LlmClient(
        LlmConfig(backend="mock", max_context_chars=10),
        fallback=lambda p: calls.append(p) or "x",
    )
    with pytest.raises(ContextOverflowError):
        client.complete("a" * 11)
    assert calls == []


def test_unknown_backend():
    with pytest.raises(ValueError, match="expected http or mock, got 'carrier-pigeon'"):
        LlmConfig(backend="carrier-pigeon")


def test_synthetic_completer_deterministic():
    assert synthetic_completer("some prompt") == synthetic_completer("some prompt")
    sql = synthetic_completer("whatever\n\nSQL: ")
    assert sql.startswith("SELECT ")
    int(sql.split()[1])  # numeric literal, trivially executable
    know = synthetic_completer("whatever\n\nEvidence: ")
    assert "refers to" in know


# --- ledger ---

def test_ledger_records_success_and_failure():
    ledger = CallLedger()
    client = LlmClient(LlmConfig(backend="mock"), fallback=lambda p: "ok", ledger=ledger)
    client.complete("good prompt")
    bare = LlmClient(LlmConfig(backend="mock"), ledger=ledger)
    with pytest.raises(MockMissError):
        bare.complete("bad prompt")
    assert len(ledger) == 2
    good, bad = ledger.records
    assert good.ok and good.completion == "ok"
    assert not bad.ok and bad.completion == ""
    assert bad.prompt_sha256 == prompt_sha256("bad prompt")


def test_fallback_exception_leaves_failed_record():
    def broken(prompt):
        raise ValueError("fallback bug")

    client = LlmClient(LlmConfig(backend="mock"), fallback=broken)
    with pytest.raises(ValueError, match="fallback bug"):
        client.complete("hello")
    (record,) = client.ledger.records
    assert not record.ok and record.completion == "" and record.prompt == "hello"


def test_ledger_thread_safety():
    ledger = CallLedger()
    client = LlmClient(LlmConfig(backend="mock"), fallback=lambda p: p, ledger=ledger)

    def worker(i):
        for j in range(50):
            client.complete(f"prompt {i} {j}")

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(ledger) == 8 * 50


def replay(path) -> LlmClient:
    """A mock client answering from the fixture at `path`, as `llm.fixture` replays."""
    return LlmClient(LlmConfig(backend="mock"), responses=load_fixture(path))


def test_streamed_ledger_replays(tmp_path):
    path = tmp_path / "fixture.jsonl"
    with open(path, "w") as sink:
        client = LlmClient(
            LlmConfig(backend="mock"), fallback=lambda p: f"answer to {p}", ledger=CallLedger(sink)
        )
        client.complete("first question")
        client.complete("second question")

    replayed = replay(path)
    assert replayed.complete("first question") == "answer to first question"
    assert replayed.complete("second question") == "answer to second question"
    with pytest.raises(MockMissError):
        replayed.complete("third question")


def test_ledger_lines_keep_backend_and_old_fixtures_replay(tmp_path):
    """A ledger line names the backend that made the call; a fixture written
    before lines carried `backend` still replays."""
    path = tmp_path / "fixture.jsonl"
    with open(path, "w") as sink:
        ledger = CallLedger(sink, stage="generate")
        client = LlmClient(
            LlmConfig(backend="mock"), fallback=lambda p: f"answer to {p}", ledger=ledger
        )
        client.complete("question")
    (line,) = map(json.loads, path.read_text().splitlines())
    assert line["backend"] == "mock"
    del line["backend"]
    path.write_text(json.dumps(line, sort_keys=True) + "\n")
    replayed = replay(path)
    assert replayed.complete("question") == "answer to question"


def _complete_all(client, prompts):
    for prompt in prompts:
        try:
            client.complete(prompt)
        except LlmError:
            pass


def test_replay_fails_a_recorded_failure_again(tmp_path):
    answers = {"flaky": ["boom", "fine"], "broken": ["boom"], "good": ["fine"]}

    def fallback(prompt):
        answer = answers[prompt].pop(0)
        if answer == "boom":
            raise LlmError("http status 429")
        return f"answer to {prompt}"

    path = tmp_path / "fixture.jsonl"
    with open(path, "w") as sink:
        client = LlmClient(LlmConfig(backend="mock"), fallback=fallback, ledger=CallLedger(sink))
        _complete_all(client, ("flaky", "broken", "flaky", "good"))

    replayed = replay(path)
    # a prompt answered once replays its answer, however often it failed
    assert replayed.complete("flaky") == "answer to flaky"
    with pytest.raises(LlmError, match="recorded failure") as failure:
        replayed.complete("broken")
    assert not isinstance(failure.value, MockMissError)
    with pytest.raises(MockMissError):
        replayed.complete("never asked")
    assert [r.ok for r in replayed.ledger.records] == [True, False, False]


def test_streamed_ledger_holds_no_prompts_and_writes_every_call(tmp_path):
    """A ledger with a sink writes each call's line at once and keeps only its
    summary: 2,000 calls with 4 KB prompts leave under 1 MiB held, and the
    file holds one sorted-key line per call, failures included."""
    prompts = [f"{i:04d} " + "x" * 4096 for i in range(2000)]

    def fallback(prompt):
        if int(prompt[:4]) % 100 == 7:
            raise LlmError("http status 503")
        return f"answer {prompt[:4]}"

    config = LlmConfig(backend="mock")
    streamed = tmp_path / "streamed.jsonl"
    tracemalloc.start()
    try:
        with open(streamed, "w") as sink:
            ledger = CallLedger(sink, stage="build-kb")
            client = LlmClient(config, fallback=fallback, ledger=ledger)
            before = tracemalloc.get_traced_memory()[0]
            _complete_all(client, prompts)
            held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1 << 20
    assert len(ledger) == 2000
    assert [r.ok for r in ledger.records] == [int(p[:4]) % 100 != 7 for p in prompts]
    assert ledger.records[0].prompt_sha256 == prompt_sha256(prompts[0])

    in_memory = CallLedger()
    _complete_all(LlmClient(config, fallback=fallback, ledger=in_memory), prompts)
    lines = [
        json.dumps({**dataclasses.asdict(r), "stage": "build-kb"}, sort_keys=True) + "\n"
        for r in in_memory.records
    ]
    assert streamed.read_text() == "".join(lines)


def test_streamed_ledger_of_no_call_replays_nothing(tmp_path):
    path = tmp_path / "empty.jsonl"
    with open(path, "w") as sink:
        CallLedger(sink)
    assert path.read_text() == ""
    assert load_fixture(path) == {}


def test_fixture_drift_detection(tmp_path):
    path = tmp_path / "fixture.jsonl"
    path.write_text(
        json.dumps(
            {
                "prompt_sha256": prompt_sha256("original"),
                "prompt": "tampered",
                "completion": "x",
                "ok": True,
            }
        )
        + "\n"
    )
    with pytest.raises(ReplayDriftError):
        load_fixture(path)


def test_fixture_maps_a_failed_prompt_to_none(tmp_path):
    """A prompt whose every record failed maps to None, so a replay fails it again."""
    path = tmp_path / "fixture.jsonl"
    with open(path, "w") as sink:
        ledger = CallLedger(sink)
        for ok in (False, False):
            ledger.append(LedgerRecord(prompt_sha256("failed"), "failed", "", "mock", ok))
    assert load_fixture(path) == {prompt_sha256("failed"): None}


# --- http backend (against a local stub server) ---

class _Handler(BaseHTTPRequestHandler):
    script = []  # (status, body_dict) or (status, body_dict, headers), one per request
    seen = []
    headers_seen = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        _Handler.seen.append(
            (self.path, json.loads(self.rfile.read(length).decode()))
        )
        _Handler.headers_seen.append(self.headers)
        status, body, *extra = _Handler.script.pop(0)
        payload = json.dumps(body).encode()
        self.send_response(status)
        headers = {"Content-Type": "application/json", "Content-Length": str(len(payload))}
        for name, value in {**headers, **(extra[0] if extra else {})}.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    _Handler.script = []
    _Handler.seen = []
    _Handler.headers_seen = []
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/v1", _Handler
    server.shutdown()
    server.server_close()


def http_config(endpoint, **changes):
    config = LlmConfig(
        backend="http",
        endpoint=endpoint,
        model="test-model",
        api_key="sk-test",
        retry=RetryPolicy(attempts=3, backoff=0.01),
        timeout=5.0,
    )
    return dataclasses.replace(config, **changes)


def ok_body(text):
    return {"choices": [{"message": {"content": text}}]}


def test_http_success(stub_server):
    endpoint, handler = stub_server
    handler.script = [(200, ok_body("the completion"))]
    client = LlmClient(http_config(endpoint))
    assert client.complete("hello") == "the completion"
    path, payload = handler.seen[0]
    assert path == "/v1/chat/completions"
    assert payload["messages"] == [{"role": "user", "content": "hello"}]
    assert payload["temperature"] == 0.0
    headers = handler.headers_seen[0]
    assert headers["Authorization"] == "Bearer sk-test"
    assert headers["User-Agent"] == f"sqlkb/{sqlkb.__version__}"
    assert headers["Content-Type"] == "application/json"


def test_http_retries_on_429_then_succeeds(stub_server):
    endpoint, handler = stub_server
    handler.script = [(429, {}), (500, {}), (200, ok_body("finally"))]
    client = LlmClient(http_config(endpoint))
    assert client.complete("hello") == "finally"
    assert len(handler.seen) == 3


def test_http_retry_after_replaces_the_backoff(stub_server):
    endpoint, handler = stub_server
    handler.script = [(429, {}, {"Retry-After": "0"}), (200, ok_body("after"))]
    client = LlmClient(http_config(endpoint, retry=RetryPolicy(attempts=3, backoff=30.0)))
    started = time.monotonic()
    assert client.complete("hello") == "after"
    assert time.monotonic() - started < 1.0
    assert len(handler.seen) == 2


@pytest.mark.parametrize(
    "status, retry_after, slept",
    [
        (503, "2.5", 2.5),
        (429, "600", 5.0),  # capped at the timeout
        (429, "Wed, 21 Oct 2015 07:28:00 GMT", 0.25),  # an HTTP-date: the backoff
        (503, "soon", 0.25),
        (429, "-1", 0.25),
        (429, "nan", 0.25),
        (500, "0", 0.25),  # only a 429 or a 503 sets the wait
    ],
)
def test_http_retry_after_wait(stub_server, monkeypatch, status, retry_after, slept):
    endpoint, handler = stub_server
    handler.script = [(status, {}, {"Retry-After": retry_after}), (200, ok_body("after"))]
    sleeps = []
    monkeypatch.setattr(transport, "time", SimpleNamespace(sleep=sleeps.append))
    client = LlmClient(http_config(endpoint, retry=RetryPolicy(attempts=3, backoff=0.25)))
    assert client.complete("hello") == "after"
    assert sleeps == [slept]


def test_http_gives_up_after_attempts(stub_server):
    endpoint, handler = stub_server
    handler.script = [(500, {})] * 3
    client = LlmClient(http_config(endpoint))
    with pytest.raises(LlmError):
        client.complete("hello")
    assert len(handler.seen) == 3


def test_http_retries_a_truncated_answer(stub_server):
    endpoint, handler = stub_server
    handler.script = [(200, ok_body("cut"), {"Content-Length": "1000"}), (200, ok_body("whole"))]
    client = LlmClient(http_config(endpoint))
    assert client.complete("hello") == "whole"
    assert len(handler.seen) == 2


def test_http_refused_connection_tried_attempts_times(refused_url, monkeypatch):
    calls = []

    def counting_post(*args):
        calls.append(args[0])
        return post_json(*args)

    monkeypatch.setattr(transport, "post_json", counting_post)
    client = LlmClient(http_config(refused_url))
    with pytest.raises(LlmError, match="request failed"):
        client.complete("hello")
    assert calls == [f"{refused_url}/chat/completions"] * 3


def test_http_timeout(chat_stub):
    chat_stub.latency = 1.0  # each request sleeps 0.5-1 s
    client = LlmClient(http_config(chat_stub.url, timeout=0.2))
    with pytest.raises(LlmError, match=r"timeout after 0.2s"):
        chat_stub.bounded(client.complete, "hello")
    assert chat_stub.seen == ["hello"] * 3


def test_http_client_error_not_retried(stub_server):
    endpoint, handler = stub_server
    handler.script = [(400, {"error": "bad request"})]
    client = LlmClient(http_config(endpoint))
    with pytest.raises(LlmError):
        client.complete("hello")
    assert len(handler.seen) == 1


@pytest.mark.parametrize("status", [201, 204])
def test_http_only_a_200_is_an_answer(stub_server, status):
    endpoint, handler = stub_server
    handler.script = [(status, ok_body("not an answer"))]
    client = LlmClient(http_config(endpoint))
    with pytest.raises(LlmError, match=f"^http status {status}$"):
        client.complete("hello")
    assert len(handler.seen) == 1


def test_payload_that_is_not_json_is_not_sent(stub_server):
    endpoint, handler = stub_server
    with pytest.raises(ValueError, match="not JSON compliant"):
        post_json(endpoint, {"temperature": float("nan")}, 5.0)
    with pytest.raises(ValueError, match="not JSON compliant"):
        transport.request_json(endpoint, [float("inf")], 5.0, RetryPolicy(attempts=3))
    assert handler.seen == []


@pytest.mark.parametrize(
    "body",
    [
        {"unexpected": "shape"},
        [],
        {"choices": []},
        {"choices": [{"message": {"content": None}}]},
    ],
)
def test_http_malformed_body(stub_server, body):
    endpoint, handler = stub_server
    handler.script = [(200, body)]
    client = LlmClient(http_config(endpoint))
    with pytest.raises(LlmError, match="malformed response"):
        client.complete("hello")
    assert len(handler.seen) == 1


def test_http_endpoint_must_be_http(tmp_path):
    client = LlmClient(http_config(f"file://{tmp_path}"))
    with pytest.raises(LlmError, match="not an http"):
        client.complete("hello")


def test_http_failure_lands_in_ledger(stub_server):
    endpoint, handler = stub_server
    handler.script = [(400, {})]
    ledger = CallLedger()
    client = LlmClient(http_config(endpoint), ledger=ledger)
    with pytest.raises(LlmError):
        client.complete("hello")
    assert len(ledger) == 1 and not ledger.records[0].ok


def test_recorded_response_answers_before_http(chat_stub):
    client = LlmClient(
        chat_stub.client(1).config, responses={prompt_sha256("hello"): "recorded"}
    )
    assert client.complete("hello") == "recorded"
    assert chat_stub.seen == []
    (record,) = client.ledger.records
    assert record.ok and record.completion == "recorded" and record.backend == "http"


def test_max_inflight_validation():
    with pytest.raises(ValueError, match="max_inflight"):
        LlmConfig(max_inflight=0)


# --- fan_out (against the threaded chat_stub in conftest) ---

@pytest.mark.parametrize("max_inflight", [1, 4, LlmConfig().max_inflight])
def test_fan_out_keeps_item_order(chat_stub, max_inflight):
    chat_stub.latency = 0.1
    prompts = [f"prompt {i}" for i in range(16)]  # fills every gated window
    client = chat_stub.client(max_inflight, gated=True)
    results = chat_stub.bounded(client.fan_out, LlmClient.complete, prompts)
    assert results == [synthetic_completer(p) for p in prompts]
    assert [r.prompt for r in client.ledger.records] == prompts
    assert all(r.ok and r.backend == "http" for r in client.ledger.records)
    assert chat_stub.inflight_max == max_inflight


def test_fan_out_streams_the_serial_ledger_lines(chat_stub, tmp_path):
    """Through a pool, a streamed ledger's lines come in item order, as a
    serial run's do."""
    chat_stub.latency = 0.05
    prompts = [f"prompt {i}" for i in range(16)]
    for max_inflight in (1, 4):
        client = chat_stub.client(max_inflight)
        with open(tmp_path / f"ledger{max_inflight}.jsonl", "w") as sink:
            client.ledger = CallLedger(sink, stage="generate")
            chat_stub.bounded(client.fan_out, LlmClient.complete, prompts)
    assert (tmp_path / "ledger4.jsonl").read_bytes() == (tmp_path / "ledger1.jsonl").read_bytes()
    assert [r.prompt_sha256 for r in client.ledger.records] == list(map(prompt_sha256, prompts))


def test_fan_out_stress_more_workers_than_cores(chat_stub):
    prompts = [f"prompt {i}" for i in range(60)]
    client = chat_stub.client(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        results = chat_stub.bounded(client.fan_out, LlmClient.complete, prompts)
    finally:
        sys.setswitchinterval(interval)
    assert results == [synthetic_completer(p) for p in prompts]
    assert [r.prompt for r in client.ledger.records] == prompts
    assert sorted(chat_stub.seen) == sorted(prompts)


@pytest.mark.parametrize(
    "config", [LlmConfig(backend="mock"), LlmConfig(backend="http", max_inflight=1)]
)
def test_fan_out_runs_inline_without_a_pool(config):
    client = LlmClient(config)
    calls = client.fan_out(lambda c, item: (item, c is client, threading.get_ident()), "abc")
    assert calls == [(item, True, threading.get_ident()) for item in "abc"]


def test_fan_out_retry_backoff_does_not_stall_others(chat_stub):
    prompts = [f"prompt {i}" for i in range(8)]
    refused = set()

    def status(prompt):
        if prompt == prompts[0] and prompt not in refused:
            refused.add(prompt)
            return 503
        return 200

    chat_stub.status = status
    client = chat_stub.client(4, backoff=0.5)
    results = chat_stub.bounded(client.fan_out, LlmClient.complete, prompts)
    assert results == [synthetic_completer(p) for p in prompts]
    # Every other prompt was answered while prompt 0 waited out its backoff.
    assert chat_stub.seen[-1] == prompts[0]
    assert sorted(chat_stub.seen[:-1]) == prompts


@pytest.mark.parametrize("max_inflight", [1, 4, LlmConfig().max_inflight])
def test_fan_out_error_ends_like_a_serial_loop(chat_stub, max_inflight):
    prompts = [f"prompt {i}" for i in range(16)]

    def complete_then_fail_on_third(client, prompt):
        completion = client.complete(prompt)
        if prompt == prompts[2]:
            raise ValueError("task failed")
        return completion

    client = chat_stub.client(max_inflight)
    with pytest.raises(ValueError, match="task failed"):
        chat_stub.bounded(client.fan_out, complete_then_fail_on_third, prompts)
    assert [r.prompt for r in client.ledger.records] == prompts[:3]


def test_load_fixture_rejects_non_string_completion(tmp_path):
    path = tmp_path / "fixture.jsonl"
    path.write_text(json.dumps({"prompt_sha256": prompt_sha256("p"), "completion": 5}) + "\n")
    with pytest.raises(ParseError, match=r"fixture.jsonl:1: completion is not a string"):
        load_fixture(path)


def test_http_backends_run_without_requests(chat_stub, embed_stub):
    """The http LLM and embedding backends need only the standard library."""
    script = (
        "import sys\n"
        "sys.modules['requests'] = None  # any import of it fails\n"
        "from sqlkb.llm import LlmClient, LlmConfig\n"
        "from sqlkb.retriever import EmbeddingProvider\n"
        "chat, embed = sys.argv[1:]\n"
        "print(LlmClient(LlmConfig(backend='http', endpoint=chat)).complete('hello'))\n"
        "provider = EmbeddingProvider(dim=256, backend='http', endpoint=embed)\n"
        "print(provider.raw_many(['hello world']).sum())\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", script, chat_stub.url, embed_stub.url],
        capture_output=True, text=True, timeout=30, env={"PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [synthetic_completer("hello"), "2.0"]
    assert chat_stub.seen == ["hello"] and embed_stub.batches == [["hello world"]]
