"""Completion backends: OpenAI-compatible HTTP client plus a hermetic mock.

Every call, including failures, is appended to a ledger that can be
streamed to a file as the calls complete, and replayed so pipeline runs
are bit-reproducible in tests.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence, TextIO, TypeVar

from .errors import (
    ContextOverflowError,
    LlmError,
    MockMissError,
    ParseError,
    ReplayDriftError,
)
from .jsonl import jsonl_line, read_jsonl
from .transport import RetryPolicy, request_json

T = TypeVar("T")
R = TypeVar("R")

API_KEY_ENV = "SQLKB_API_KEY"
ENDPOINT_ENV = "SQLKB_LLM_ENDPOINT"


def prompt_sha256(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


@dataclass
class LlmConfig:
    backend: str = "mock"  # "http" | "mock"
    model: str = ""
    endpoint: str = ""
    api_key: str = ""
    temperature: float = 0.0
    max_tokens: int = 1024
    timeout: float = 120.0
    max_context_chars: int = 200_000
    # Most http completions in flight at once in fan_out; 16 is the measured
    # knee against a 20 ms endpoint. Output-neutral: outputs are
    # byte-identical at any window, so the config hash leaves it out.
    max_inflight: int = field(default=16, metadata={"output_neutral": True})
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if self.backend not in ("http", "mock"):
            raise ValueError(f"backend: expected http or mock, got {self.backend!r}")
        if not self.temperature >= 0:  # also rejects NaN
            raise ValueError("temperature must be >= 0")
        if self.temperature == float("inf"):
            raise ValueError("temperature must be finite")
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")
        if not 0 < self.timeout < float("inf"):
            raise ValueError("timeout must be > 0 and finite")
        if self.timeout > threading.TIMEOUT_MAX:  # the most a socket can wait
            raise ValueError(f"timeout must be <= {threading.TIMEOUT_MAX:.0f}s")
        if self.max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {self.max_inflight}")


@dataclass
class LedgerRecord:
    prompt_sha256: str
    prompt: str
    completion: str
    backend: str
    ok: bool = True


class CallSummary(NamedTuple):
    """What a streamed ledger keeps of a call once its line is written."""

    prompt_sha256: str
    backend: str
    ok: bool


_LINE_KEYS = ("prompt_sha256", "prompt", "completion", "backend", "ok")


def _ledger_obj(record: LedgerRecord, stage: str) -> dict:
    """A record's ledger line; a `stage` tags it with the command that made the call."""
    tag = {"stage": stage} if stage else {}
    return {**{k: getattr(record, k) for k in _LINE_KEYS}, **tag}


class CallLedger:
    """Append-only, thread-safe record of every complete() invocation.

    With a `sink`, each appended record's line (tagged with `stage`) is
    written to it at once and only its CallSummary is kept, so the ledger
    holds no prompt or completion.
    """

    def __init__(self, sink: Optional[TextIO] = None, stage: str = "") -> None:
        self._records: list[LedgerRecord | CallSummary] = []
        self._lock = threading.Lock()
        self._sink = sink
        self._stage = stage

    def append(self, record: LedgerRecord) -> None:
        with self._lock:
            if self._sink is None:
                self._records.append(record)
                return
            self._sink.write(jsonl_line(_ledger_obj(record, self._stage)))
            self._records.append(CallSummary(record.prompt_sha256, record.backend, record.ok))

    @property
    def records(self) -> list[LedgerRecord | CallSummary]:
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


def load_fixture(path: Path | str) -> dict[str, Optional[str]]:
    """Load a replay fixture as {prompt hash: completion}.

    A record whose stored prompt does not hash to its recorded
    prompt_sha256 indicates a corrupted or hand-edited fixture. A prompt
    whose records all failed maps to None, so it fails again in a replay.
    """
    responses = {}
    for n, obj in read_jsonl(path):
        try:
            digest = obj["prompt_sha256"]
            completion = obj["completion"] if obj.get("ok", True) else None
        except KeyError as exc:
            raise ParseError(f"{path}:{n}: missing key {exc}") from exc
        for key in ("prompt_sha256", "prompt", "completion"):
            if key in obj and not isinstance(obj[key], str):
                raise ParseError(f"{path}:{n}: {key} is not a string")
        if "prompt" in obj and prompt_sha256(obj["prompt"]) != digest:
            raise ReplayDriftError(f"{path}:{n}: prompt does not match its hash")
        if completion is not None:
            responses[digest] = completion
        else:
            responses.setdefault(digest, None)
    return responses


def synthetic_completer(prompt: str) -> str:
    """Deterministic stand-in completion, a pure function of the prompt.

    SQL prompts get a trivially executable statement; anything else gets a
    one-line synthetic knowledge sentence. Used by the CLI mock backend
    when no replay fixture is configured.
    """
    digest = prompt_sha256(prompt)
    if prompt.endswith("SQL: "):
        return f"SELECT {int(digest[:4], 16)}"
    return f"synthetic mapping {digest[:8]} refers to code_{digest[8:12]}"


class LlmClient:
    """Uniform completion interface over HTTP and mock backends."""

    def __init__(
        self,
        config: LlmConfig,
        responses: Optional[dict[str, Optional[str]]] = None,
        fallback: Optional[Callable[[str], str]] = None,
        ledger: Optional[CallLedger] = None,
    ) -> None:
        self.config = config
        self.responses = responses or {}
        self.fallback = fallback
        self.ledger = ledger if ledger is not None else CallLedger()

    def fan_out(self, fn: Callable[["LlmClient", T], R], items: Sequence[T]) -> list[R]:
        """Return [fn(client, item) for item in items], in item order.

        With the http backend and max_inflight > 1 the calls run on a pool of
        max_inflight threads, all submitted at once. A call sleeping through
        a retry backoff (or a Retry-After) keeps its pool slot: the other
        max_inflight - 1 threads go on with the later items. Each call
        writes to its own ledger through a twin of this client; those
        ledgers are appended to this client's in item order, so the ledger
        reads exactly as a serial run's, and each twin is let go once its
        records are appended. Mock completions take microseconds
        and run inline.
        """
        if self.config.backend != "http" or self.config.max_inflight == 1:
            return [fn(self, item) for item in items]
        from concurrent.futures import ThreadPoolExecutor

        twins = [LlmClient(self.config, self.responses, self.fallback) for _ in items]
        results = []
        with ThreadPoolExecutor(self.config.max_inflight) as pool:
            futures = [pool.submit(fn, twin, item) for twin, item in zip(twins, items)]
            try:
                for k, future in enumerate(futures):
                    future.exception()  # wait, so the ledger is complete
                    # drop the twin with its records once they are merged
                    twin, twins[k] = twins[k], None
                    for record in twin.ledger.records:
                        self.ledger.append(record)
                    results.append(future.result())
            finally:
                # A raising call ends the fan-out as it ends a serial loop.
                for future in futures:
                    future.cancel()
        return results

    def complete(self, prompt: str) -> str:
        """Return the recorded completion (None: a recorded failure), else the
        http backend's or the mock fallback's. Every call past the prompt
        checks leaves one ledger record."""
        if not prompt:
            raise LlmError("prompt must be non-empty")
        if len(prompt) > self.config.max_context_chars:
            raise ContextOverflowError(
                f"prompt length {len(prompt)} exceeds "
                f"{self.config.max_context_chars} chars"
            )
        digest = prompt_sha256(prompt)
        completion: Optional[str] = None
        try:
            if digest in self.responses:
                completion = self.responses[digest]
                if completion is None:
                    raise LlmError(f"recorded failure for prompt hash {digest[:12]}")
            elif self.config.backend == "http":
                completion = self._complete_http(prompt)
            elif self.fallback is not None:
                completion = self.fallback(prompt)
            else:
                raise MockMissError(f"no canned completion for prompt hash {digest[:12]}")
            return completion
        finally:
            self.ledger.append(
                LedgerRecord(
                    prompt_sha256=digest,
                    prompt=prompt,
                    completion=completion or "",
                    backend=self.config.backend,
                    ok=completion is not None,
                )
            )

    def _complete_http(self, prompt: str) -> str:
        payload = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_tokens,
        }
        headers: dict[str, str] = {}
        if self.config.api_key:
            headers["Authorization"] = f"Bearer {self.config.api_key}"
        url = self.config.endpoint.rstrip("/")
        if not url.endswith("/chat/completions"):
            url += "/chat/completions"
        try:
            body = request_json(url, payload, self.config.timeout, self.config.retry, headers)
        except ValueError as exc:
            raise LlmError(f"request failed: {exc}") from exc
        except OSError as exc:
            raise LlmError(str(exc)) from exc
        try:
            content = json.loads(body)["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise LlmError(f"malformed response: {exc}") from exc
        if not isinstance(content, str):
            raise LlmError(f"malformed response: content is {content!r}")
        return content
