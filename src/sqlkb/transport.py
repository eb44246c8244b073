"""One JSON POST over the standard library, and one retry policy for it,
shared by the http LLM and embedding backends.

`urllib.request` honours the `http_proxy`/`https_proxy`/`no_proxy`
environment variables and verifies HTTPS against the system CA store.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional

from . import __version__

if TYPE_CHECKING:
    from email.message import Message

logger = logging.getLogger(__name__)

# Some gateways refuse urllib's default agent.
USER_AGENT = f"sqlkb/{__version__}"


@dataclass
class RetryPolicy:
    attempts: int = 3
    backoff: float = 1.0  # seconds, doubled per retry


def request_json(
    url: str,
    payload: object,
    timeout: float,
    retry: RetryPolicy,
    headers: Optional[Mapping[str, str]] = None,
) -> bytes:
    """POST `payload` as JSON until a 200 answers; return that answer's body.

    A transport failure, a 429 and a 5xx are tried again, up to
    `retry.attempts` requests in all, after `retry.backoff` seconds doubled
    per retry. A 429 or 503 whose Retry-After gives seconds waits that long
    instead, at most `timeout`; an HTTP-date there keeps the backoff. Any
    other status is final. The last failure raises OSError: `timeout after
    {timeout}s` (a TimeoutError), `request failed: {error}` or `http status
    {status}`. A request that cannot be sent raises ValueError at once.
    """
    error = OSError("no attempts made")
    delay = retry.backoff
    for attempt in range(retry.attempts):
        sleep = delay
        try:
            status, resp_headers, body = post_json(url, payload, timeout, headers)
        except TimeoutError:
            error = TimeoutError(f"timeout after {timeout}s")
        except OSError as exc:
            error = OSError(f"request failed: {exc}")
        else:
            if status == 200:
                return body
            error = OSError(f"http status {status}")
            if status != 429 and status < 500:
                break
            if status in (429, 503):
                sleep = _retry_after(resp_headers, timeout, delay)
        if attempt + 1 < retry.attempts:
            logger.warning("%s; retrying in %.1fs", error, sleep)
            time.sleep(sleep)
            delay *= 2
    raise error


def _retry_after(headers: Message, timeout: float, default: float) -> float:
    """The wait a 429 or 503 asks for in seconds, at most `timeout`;
    `default` when Retry-After is absent, an HTTP-date or unparsable."""
    try:
        seconds = float(headers.get("Retry-After", ""))
    except ValueError:
        return default
    return min(seconds, timeout) if seconds >= 0 else default


def post_json(
    url: str, payload: object, timeout: float, headers: Optional[Mapping[str, str]] = None
) -> tuple[int, Message, bytes]:
    """POST `payload` as JSON; return the status, headers and body of any
    HTTP answer, an error status included.

    Every transport failure raises OSError: `TimeoutError` for a connect or
    read timeout, `ConnectionError` for a broken answer (an
    `http.client.HTTPException` such as `IncompleteRead`), and otherwise
    another OSError, such as a `urllib.error.URLError` or a refused or
    reset connection. A request that cannot be sent at all, such as one to
    a URL that is not http(s) or a payload holding NaN or infinity, raises
    ValueError.
    """
    # Imported here: with ssl they take ~3 MB and ~30 ms, which runs that
    # make no http call need not pay.
    import http.client
    import urllib.error
    import urllib.parse
    import urllib.request

    if urllib.parse.urlsplit(url).scheme not in ("http", "https"):
        raise ValueError(f"not an http(s) URL: {url!r}")
    request = urllib.request.Request(
        url,
        data=json.dumps(payload, allow_nan=False).encode("utf-8"),
        headers={"Content-Type": "application/json", "User-Agent": USER_AGENT, **(headers or {})},
        method="POST",
    )
    try:
        try:
            with urllib.request.urlopen(request, timeout=timeout) as resp:
                return resp.status, resp.headers, resp.read()
        except urllib.error.HTTPError as exc:
            with exc:
                return exc.code, exc.headers, exc.read()
    except urllib.error.URLError as exc:
        if isinstance(exc.reason, TimeoutError):  # a connect timeout
            raise exc.reason from exc
        raise
    except http.client.HTTPException as exc:
        raise ConnectionError(repr(exc)) from exc
