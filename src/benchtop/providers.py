"""The HTTP chat provider with record-replay fixtures, and the one HTTP
transport of the program. Chat is all the program asks of a provider.

Three modes:

- LIVE: POST to ``CHAT_ENDPOINT`` under the base URL, nothing touches disk.
- RECORD: same network calls, but each response body is written to the
  fixtures directory keyed by a content hash of the request.
- REPLAY: requests are served purely from fixtures; any miss raises
  MissingFixture and the network is never touched. Replay runs are fully
  deterministic and work offline.

The request body is the canonical JSON of the payload (``jsonio.dumps``:
sorted keys, no spaces, floats with six decimals). The fixture key is
sha256 over the canonical JSON of ``{"endpoint": ..., "payload": ...}``, so
any byte-identical request maps to the same file regardless of dict
ordering in the caller.

The API key is read from the ``PROVIDER_API_KEY`` environment variable; it
is sent as a bearer header on live traffic and is never written to any file.
An exchange that does not end within 30 s, a connection error, a 429 or a
5xx is retried 3 times. A reply body longer than ``MAX_BODY_BYTES`` (1 MiB)
fails as ``MalformedResponse`` at once, without a retry, and so does a
reply that no fixture could hold (a number beyond the float range), in live
mode as in record mode.

``HttpTransport`` POSTs to one URL over ``http.client`` and keeps its
connection open for the next request. It serves one caller at a time:
``HttpProvider`` is called from one thread, and each ``run`` worker builds
its own ``http:`` policy client. ``http.client`` and ``urllib.request``, and
with them ``ssl``, ``email`` and ``socket``, are imported when the first
transport is built, so a command that never speaks HTTP does not load them;
``hashlib`` likewise waits for the first fixture key. When a transport is
built, it reads:

- ``HTTP_PROXY``, ``HTTPS_PROXY``, ``ALL_PROXY`` and ``NO_PROXY``, in either
  case, through ``urllib.request``'s ``getproxies`` and ``proxy_bypass``.
  ``NO_PROXY`` takes ``*``, hosts, ``host:port`` and domain suffixes. An
  ``http://`` URL goes through the proxy as an absolute-form request, an
  ``https://`` URL through a CONNECT tunnel, and credentials in the proxy
  URL are sent as ``Proxy-Authorization``. The proxy is spoken to in plain
  HTTP.
- ``SSL_CERT_FILE`` and ``SSL_CERT_DIR``, through the ``ssl`` module's
  default context, which verifies HTTPS.

Credentials in the URL are sent as Basic auth; the provider's bearer
``PROVIDER_API_KEY`` replaces them when it is set. Redirects are not
followed: a provider fails a 3xx reply as a client error and a policy as a
protocol error.
"""

from __future__ import annotations

import base64
import os
import random
import re
import select
import tempfile
import time
import urllib.parse
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import (
    HttpStatusError,
    InvalidConfig,
    MalformedResponse,
    MissingFixture,
    RetriesExhausted,
    UsageError,
)
from .jsonio import dumps, parse_json

API_KEY_ENV_VAR = "PROVIDER_API_KEY"
TIMEOUT_S = 30.0
MAX_RETRIES = 3
BACKOFF_S = 0.25
CHAT_ENDPOINT = "/v1/chat/completions"
MAX_BODY_BYTES = 1 << 20  # a chat reply is a few KiB


class ProviderMode(str, Enum):
    LIVE = "live"
    RECORD = "record"
    REPLAY = "replay"


@dataclass(frozen=True)
class ChatRequest:
    system: str
    few_shot: tuple[tuple[str, str], ...]
    user: str
    temperature: float = 0.0


def _basic_auth(parts: urllib.parse.SplitResult) -> str:
    unquote = urllib.parse.unquote
    pair = f"{unquote(parts.username)}:{unquote(parts.password or '')}"
    try:
        return "Basic " + base64.b64encode(pair.encode("latin-1")).decode("ascii")
    except UnicodeEncodeError:
        raise UsageError("credentials in a URL must be Latin-1") from None


def _split_url(url: str) -> tuple[urllib.parse.SplitResult, int | None]:
    """The parts and port of ``url``; a URL that does not parse is a UsageError."""
    try:
        parts = urllib.parse.urlsplit(url)
        return parts, parts.port
    except ValueError as exc:
        raise UsageError(f"cannot parse the URL {url!r}: {exc}") from None


class HttpTransport:
    """POSTs to one URL over one kept-alive ``http.client`` connection.

    The request target, proxy and credentials are resolved once, at
    construction (see the module docstring); a URL that does not parse, or
    whose request target holds a space or a control character, is a
    ``UsageError`` there, before any request. A transport serves one
    caller at a time. Its connection stays open between requests unless the
    server asks to close it or closed it while idle (its socket has become
    readable), or an exchange fails; ``http.client`` then opens a new one
    for the next request. ``post`` raises ``TimeoutError`` when the
    exchange does not end within ``timeout_s``, ``MalformedResponse`` when
    the reply body is longer than ``max_body_bytes``, and another
    ``OSError`` when it fails; a reply that breaks the HTTP protocol is a
    ``ConnectionError``.
    """

    def __init__(self, url: str, timeout_s: float, max_body_bytes: int) -> None:
        import http.client
        import urllib.request

        self._timeout_s = timeout_s
        self._max_body_bytes = max_body_bytes
        parts, port = _split_url(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise UsageError(f"not an http:// or https:// URL: {url!r}")
        tls = parts.scheme == "https"
        host, port = parts.hostname, port or (443 if tls else 80)
        authority = parts.netloc.rpartition("@")[2]  # host[:port]
        self._headers = {"Content-Type": "application/json"}
        if parts.username:
            self._headers["Authorization"] = _basic_auth(parts)
        proxies = urllib.request.getproxies()
        proxy = proxies.get(parts.scheme) or proxies.get("all")
        try:
            if proxy and urllib.request.proxy_bypass(authority):
                proxy = None
        except (TypeError, OSError):
            pass
        self._target = parts.path or "/"
        if parts.query:
            self._target += "?" + parts.query
        tunnel = None
        if proxy:
            proxy_parts, proxy_port = _split_url(
                proxy if "://" in proxy else "http://" + proxy
            )
            proxy_headers = {}
            if proxy_parts.username:
                proxy_headers["Proxy-Authorization"] = _basic_auth(proxy_parts)
            if tls:
                tunnel = (host, port, proxy_headers)
            else:
                # absolute form: the proxy forwards it to the URL's origin
                self._target = "http://" + authority + self._target
                self._headers.update(proxy_headers)
            host, port = proxy_parts.hostname, proxy_port or 80
        if re.search(r"[\x00-\x20\x7f]", self._target):
            # http.client would refuse it on every request, each one retried
            raise UsageError(
                f"the URL {url!r} holds a space or a control character"
            )
        connection = http.client.HTTPSConnection if tls else http.client.HTTPConnection
        try:
            self._conn = connection(host, port, timeout=timeout_s)
        except http.client.InvalidURL as exc:  # a control character in the host
            raise UsageError(str(exc)) from None
        if tunnel is not None:
            self._conn.set_tunnel(*tunnel)

    def post(
        self, body: bytes, headers: dict[str, str] | None = None
    ) -> tuple[int, bytes]:
        """POST ``body`` to the URL; the reply's status and body.

        The exchange has one deadline, ``timeout_s`` after the call. The
        socket timeout is set to the time left before the request is sent
        and before each read of the body, and ``TimeoutError`` is raised once
        the deadline has passed. The status line and headers are bounded
        only per read, each by the time left when the request was sent. A
        ``Content-Length`` above ``max_body_bytes``, or a chunked or unsized
        body that grows past it, closes the connection.
        """
        import http.client

        deadline = time.monotonic() + self._timeout_s
        conn = self._conn
        if conn.sock is not None and select.select([conn.sock], [], [], 0)[0]:
            conn.close()
        response = None
        try:
            if conn.sock is None:
                conn.connect()
            sock = conn.sock  # dropped by http.client when the reply will close
            sock.settimeout(self._time_left(deadline))
            conn.request(
                "POST", self._target, body,
                {**self._headers, **headers} if headers else self._headers,
            )
            response = conn.getresponse()
            data = bytearray()
            while response.length != 0:  # None for a chunked or unsized body
                if len(data) + (response.length or 0) > self._max_body_bytes:
                    raise MalformedResponse(
                        f"reply body is longer than {self._max_body_bytes} bytes"
                    )
                sock.settimeout(self._time_left(deadline))
                chunk = response.read1(65536)
                if not chunk:
                    break
                data += chunk
            if response.length:
                raise http.client.IncompleteRead(bytes(data), response.length)
        except BaseException as exc:
            conn.close()
            if response is not None:
                response.close()
            if isinstance(exc, http.client.HTTPException):
                raise ConnectionError(f"HTTP protocol error: {exc!r}") from exc
            raise
        response.close()
        return response.status, bytes(data)

    def _time_left(self, deadline: float) -> float:
        left = deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError(f"no reply within {self._timeout_s}s")
        return left

    def close(self) -> None:
        """Close the kept-alive connection, if it is open."""
        self._conn.close()


def fixture_key(endpoint: str, payload: dict) -> str:
    import hashlib

    blob = dumps({"endpoint": endpoint, "payload": payload})
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class HttpProvider:
    """Chat client over a JSON HTTP API; RECORD and REPLAY need ``fixtures_dir``."""

    def __init__(
        self, base_url: str, model_name: str,
        mode: ProviderMode = ProviderMode.LIVE, fixtures_dir: str | None = None,
    ) -> None:
        if mode is not ProviderMode.LIVE and not fixtures_dir:
            raise InvalidConfig(f"{mode.value} mode requires fixtures_dir")
        self.model_name = model_name
        self.mode = mode
        self.fixtures_dir = fixtures_dir
        self._url = base_url.rstrip("/") + CHAT_ENDPOINT
        self._transport = HttpTransport(self._url, TIMEOUT_S, MAX_BODY_BYTES)

    def close(self) -> None:
        """Close the kept-alive connection."""
        self._transport.close()

    # -- fixture plumbing ---------------------------------------------------

    def _fixture_path(self, key: str) -> Path:
        assert self.fixtures_dir is not None
        return Path(self.fixtures_dir) / f"{key}.json"

    def _read_fixture(self, key: str) -> dict:
        path = self._fixture_path(key)
        try:
            fixture = parse_json(path.read_bytes())
        except FileNotFoundError:
            raise MissingFixture(f"no fixture for request {key}") from None
        except ValueError as exc:  # not UTF-8, or not JSON
            raise MalformedResponse(f"fixture {path} is not JSON") from exc
        body = fixture.get("response_body") if isinstance(fixture, dict) else None
        if not isinstance(body, dict):
            raise MalformedResponse(f"fixture {path} has no response_body object")
        return body

    def _write_fixture(self, key: str, response_body: dict) -> None:
        text = dumps({"key": key, "response_body": response_body})
        path = self._fixture_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- transport ----------------------------------------------------------

    def _headers(self) -> dict[str, str]:
        key = os.environ.get(API_KEY_ENV_VAR)
        return {"Authorization": f"Bearer {key}"} if key else {}

    def _http_post(self, payload: dict) -> dict:
        body = dumps(payload).encode("utf-8")
        attempts = MAX_RETRIES + 1
        last_error = ""
        for attempt in range(attempts):
            if attempt > 0:
                delay = BACKOFF_S * (2 ** (attempt - 1))
                time.sleep(delay + random.uniform(0.0, BACKOFF_S))
            try:
                status, data = self._transport.post(body, self._headers())
            except TimeoutError:
                last_error = f"timeout talking to {self._url}"
                continue
            except OSError:
                last_error = f"connection error talking to {self._url}"
                continue
            if status == 429 or status >= 500:
                last_error = f"HTTP {status} from {self._url}"
                continue
            if status >= 300:  # redirects are not followed
                raise HttpStatusError(status, f"HTTP {status} from {self._url}")
            try:
                reply = parse_json(data)
            except ValueError as exc:
                raise MalformedResponse(f"non-JSON response from {self._url}") from exc
            try:
                # a number such as 1e999 reads as infinity, which no fixture
                # can hold, so live mode refuses what record mode could not write
                dumps(reply)
            except ValueError as exc:
                raise MalformedResponse(f"cannot record the reply: {exc}") from None
            return reply
        raise RetriesExhausted(
            f"gave up on {self._url} after {attempts} attempts: {last_error}"
        )

    def _roundtrip(self, payload: dict) -> dict:
        if self.mode is ProviderMode.REPLAY:
            return self._read_fixture(fixture_key(CHAT_ENDPOINT, payload))
        body = self._http_post(payload)
        if self.mode is ProviderMode.RECORD:
            self._write_fixture(fixture_key(CHAT_ENDPOINT, payload), body)
        return body

    # -- API ----------------------------------------------------------------

    def chat(self, request: ChatRequest) -> str:
        messages = [{"role": "system", "content": request.system}]
        for user_turn, assistant_turn in request.few_shot:
            messages.append({"role": "user", "content": user_turn})
            messages.append({"role": "assistant", "content": assistant_turn})
        messages.append({"role": "user", "content": request.user})
        payload = {
            "model": self.model_name,
            "messages": messages,
            "temperature": request.temperature,
        }
        body = self._roundtrip(payload)
        try:
            content = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise MalformedResponse("chat response missing choices[0].message.content") from exc
        if not isinstance(content, str):
            raise MalformedResponse("chat content is not a string")
        return content

