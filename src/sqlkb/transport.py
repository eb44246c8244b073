"""One JSON POST over the standard library, shared by the http LLM and
embedding backends.

`urllib.request` honours the `http_proxy`/`https_proxy`/`no_proxy`
environment variables and verifies HTTPS against the system CA store.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Mapping, Optional

from . import __version__

if TYPE_CHECKING:
    from email.message import Message

# Some gateways refuse urllib's default agent.
USER_AGENT = f"sqlkb/{__version__}"


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
    a URL that is not http(s), raises ValueError.
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
        data=json.dumps(payload).encode("utf-8"),
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
