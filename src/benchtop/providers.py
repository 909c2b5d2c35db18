"""The HTTP chat provider with record-replay fixtures, and the one HTTP
transport of the program. Chat is all the program asks of a provider.

Three modes:

- LIVE: POST to the configured endpoint, nothing touches disk.
- RECORD: same network calls, but each response body is written to the
  fixtures directory keyed by a content hash of the request.
- REPLAY: requests are served purely from fixtures; any miss raises
  MissingFixture and the network is never touched. Replay runs are fully
  deterministic and work offline.

The fixture key is sha256 over the canonical JSON of
``{"endpoint": ..., "payload": ...}``, so any byte-identical request maps
to the same file regardless of dict ordering in the caller.

The API key is read from an environment variable (name configurable); it is
sent as a bearer header on live traffic and is never written to fixtures or
any other file.

``HttpTransport`` POSTs over ``http.client`` and keeps idle connections
open for the next request. ``HttpProvider`` and the runner's ``http:``
policy client both use it. It reads the environment once, when it is built
for a URL, and resolves it by the rules of the ``requests`` library:

- The proxy is ``urllib.request.getproxies()``'s entry for the URL's scheme,
  else its ``all`` entry (``ALL_PROXY``). ``NO_PROXY`` bypasses it for
  ``*``, for a host suffix, and for a CIDR block that holds an IPv4 host.
  An ``http://`` URL goes through the proxy as an absolute-form request, an
  ``https://`` URL through a CONNECT tunnel, and credentials in the proxy
  URL are sent as ``Proxy-Authorization``. The proxy itself is spoken to in
  plain HTTP.
- TLS is verified against ``REQUESTS_CA_BUNDLE``, else ``CURL_CA_BUNDLE``,
  else the ``ssl`` module's default context.
- The URL host's entry in ``NETRC`` (default ``~/.netrc``), else
  credentials in the URL, are sent as Basic auth.

What differs from ``requests``: redirects are not followed, so a provider
fails a 3xx reply as a client error and a policy as a protocol error; the
default CA store is the system's, not certifi's; replies are not asked for
with ``gzip``; and a bearer API key wins over a netrc entry, where
``requests`` let netrc replace it.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import http.client
import ipaddress
import json
import netrc
import os
import random
import select
import ssl
import tempfile
import threading
import time
import urllib.parse
import urllib.request
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .errors import (
    HttpStatusError,
    InvalidConfig,
    MalformedResponse,
    MissingFixture,
    ProviderTimeout,
    RetriesExhausted,
)
from .jsonio import canonical_dumps

DEFAULT_API_KEY_ENV_VAR = "PROVIDER_API_KEY"
MAX_RETRIES_CAP = 5


class ProviderMode(str, Enum):
    LIVE = "live"
    RECORD = "record"
    REPLAY = "replay"


@dataclass(frozen=True)
class ProviderConfig:
    base_url: str
    model_name: str
    mode: ProviderMode = ProviderMode.LIVE
    fixtures_dir: str | None = None
    api_key_env_var: str = DEFAULT_API_KEY_ENV_VAR
    timeout_s: float = 30.0
    max_retries: int = 3
    max_concurrent_requests: int = 4
    backoff_s: float = 0.25

    def __post_init__(self) -> None:
        if self.max_retries < 0 or self.max_retries > MAX_RETRIES_CAP:
            raise InvalidConfig(
                f"max_retries must be in [0, {MAX_RETRIES_CAP}], got {self.max_retries}"
            )
        if self.max_concurrent_requests < 1:
            raise InvalidConfig("max_concurrent_requests must be >= 1")
        if self.mode is not ProviderMode.LIVE and not self.fixtures_dir:
            raise InvalidConfig(f"{self.mode.value} mode requires fixtures_dir")


@dataclass(frozen=True)
class ChatRequest:
    system: str
    few_shot: tuple[tuple[str, str], ...]
    user: str
    temperature: float = 0.0


def _basic_auth(user: str, password: str) -> str:
    token = base64.b64encode(f"{user}:{password}".encode("latin-1"))
    return "Basic " + token.decode("ascii")


def _bypasses_proxy(host: str, port: int | None) -> bool:
    """Whether ``NO_PROXY`` exempts ``host``, by the rules of ``requests``.

    ``urllib.request.proxy_bypass`` covers ``*`` and dotted suffixes but
    not CIDR blocks, so an IPv4 host is also matched against those here.
    """
    no_proxy = os.environ.get("no_proxy") or os.environ.get("NO_PROXY") or ""
    entries = [entry for entry in no_proxy.replace(" ", "").split(",") if entry]
    try:
        address = ipaddress.IPv4Address(host)
    except ValueError:
        address = None
    host_port = f"{host}:{port}" if port else host
    for entry in entries:
        if address is None:
            if host.endswith(entry) or host_port.endswith(entry):
                return True
        elif "/" in entry:
            try:
                if address in ipaddress.IPv4Network(entry, strict=False):
                    return True
            except ValueError:
                pass
        elif host == entry:
            return True
    try:
        return bool(urllib.request.proxy_bypass(host))
    except (TypeError, OSError):
        return False


def _netrc_auth(host: str) -> tuple[str, str] | None:
    """The login and password for ``host`` in ``NETRC`` or ``~/.netrc``."""
    path = os.environ.get("NETRC")
    for candidate in (path,) if path is not None else ("~/.netrc", "~/_netrc"):
        candidate = os.path.expanduser(candidate)
        if not os.path.exists(candidate):
            continue
        try:
            entry = netrc.netrc(candidate).authenticators(host)
        except (netrc.NetrcParseError, OSError):
            return None
        return (entry[0] or entry[1], entry[2]) if entry else None
    return None


def _tls_context() -> ssl.SSLContext:
    bundle = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
    if bundle and os.path.isdir(bundle):
        return ssl.create_default_context(capath=bundle)
    return ssl.create_default_context(cafile=bundle)


class HttpTransport:
    """POSTs to one origin over kept-alive ``http.client`` connections.

    The proxy, CA bundle and credentials are resolved once, for the URL
    given at construction (see the module docstring); every URL posted to
    must have its scheme, host and port. Idle connections wait in a list
    under a lock, so threads may share one transport. A connection whose
    socket has become readable was closed by the server and is dropped
    instead of reused. ``post`` raises ``TimeoutError`` when the server does
    not answer within ``timeout_s``, and another ``OSError`` or an
    ``http.client.HTTPException`` when the exchange fails.
    """

    def __init__(self, url: str, timeout_s: float) -> None:
        parts = urllib.parse.urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"not an http:// or https:// URL: {url!r}")
        tls = parts.scheme == "https"
        host, port = parts.hostname, parts.port or (443 if tls else 80)
        self._headers = {"Content-Type": "application/json"}
        auth = _netrc_auth(host)
        if auth is None and parts.username:
            auth = (
                urllib.parse.unquote(parts.username),
                urllib.parse.unquote(parts.password or ""),
            )
        if auth is not None:
            self._headers["Authorization"] = _basic_auth(*auth)
        proxies = urllib.request.getproxies()
        proxy = proxies.get(parts.scheme) or proxies.get("all")
        if proxy and _bypasses_proxy(host, parts.port):
            proxy = None
        self._target_prefix = ""  # a request's target is this plus its path
        self._tunnel = None
        if proxy:
            proxy_parts = urllib.parse.urlsplit(
                proxy if "://" in proxy else "http://" + proxy
            )
            proxy_headers = {}
            if proxy_parts.username:
                proxy_headers["Proxy-Authorization"] = _basic_auth(
                    urllib.parse.unquote(proxy_parts.username),
                    urllib.parse.unquote(proxy_parts.password or ""),
                )
            if tls:
                self._tunnel = (host, port, proxy_headers)
            else:
                self._target_prefix = "http://" + parts.netloc.rpartition("@")[2]
                self._headers.update(proxy_headers)
            host, port = proxy_parts.hostname, proxy_parts.port or 80
        if tls:
            self._connect = functools.partial(
                http.client.HTTPSConnection, host, port,
                timeout=timeout_s, context=_tls_context(),
            )
        else:
            self._connect = functools.partial(
                http.client.HTTPConnection, host, port, timeout=timeout_s
            )
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def _connection(self) -> http.client.HTTPConnection:
        with self._lock:
            while self._idle:
                conn = self._idle.pop()
                if not select.select([conn.sock], [], [], 0)[0]:
                    return conn
                conn.close()
        conn = self._connect()
        if self._tunnel is not None:
            conn.set_tunnel(*self._tunnel)
        return conn

    def post(
        self, url: str, body: bytes, headers: dict[str, str] | None = None
    ) -> tuple[int, bytes]:
        """POST ``body`` to ``url``; the reply's status and body."""
        parts = urllib.parse.urlsplit(url)
        target = self._target_prefix + (parts.path or "/")
        if parts.query:
            target += "?" + parts.query
        conn = self._connection()
        try:
            conn.request(
                "POST", target, body,
                {**self._headers, **headers} if headers else self._headers,
            )
            response = conn.getresponse()
            data = response.read()
        except BaseException:
            conn.close()
            raise
        if response.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.append(conn)
        return response.status, data

    def close(self) -> None:
        """Close the idle connections."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


def fixture_key(endpoint: str, payload: dict) -> str:
    blob = canonical_dumps({"endpoint": endpoint, "payload": payload})
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class HttpProvider:
    """Chat client over a JSON HTTP API."""

    def __init__(self, config: ProviderConfig) -> None:
        self.config = config
        self._semaphore = threading.Semaphore(config.max_concurrent_requests)
        self._transport = HttpTransport(config.base_url, config.timeout_s)

    def close(self) -> None:
        """Close the kept-alive connections."""
        self._transport.close()

    # -- fixture plumbing ---------------------------------------------------

    def _fixture_path(self, key: str) -> Path:
        assert self.config.fixtures_dir is not None
        return Path(self.config.fixtures_dir) / f"{key}.json"

    def _read_fixture(self, key: str) -> dict:
        path = self._fixture_path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)["response_body"]
        except FileNotFoundError:
            raise MissingFixture(f"no fixture for request {key}") from None

    def _write_fixture(self, key: str, response_body: dict) -> None:
        path = self._fixture_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = canonical_dumps({"key": key, "response_body": response_body})
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
        key = os.environ.get(self.config.api_key_env_var)
        return {"Authorization": f"Bearer {key}"} if key else {}

    def _http_post(self, endpoint: str, payload: dict) -> dict:
        url = self.config.base_url.rstrip("/") + endpoint
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        attempts = self.config.max_retries + 1
        last_error: Exception | None = None
        for attempt in range(attempts):
            if attempt > 0:
                delay = self.config.backoff_s * (2 ** (attempt - 1))
                time.sleep(delay + random.uniform(0.0, self.config.backoff_s))
            try:
                with self._semaphore:
                    status, data = self._transport.post(url, body, self._headers())
            except TimeoutError as exc:
                last_error = ProviderTimeout(f"timeout talking to {url}")
                last_error.__cause__ = exc
                continue
            except (OSError, http.client.HTTPException) as exc:
                last_error = HttpStatusError(0, f"connection error talking to {url}")
                last_error.__cause__ = exc
                continue
            if status == 429 or status >= 500:
                last_error = HttpStatusError(status, f"HTTP {status} from {url}")
                continue
            if status >= 300:  # redirects are not followed
                raise HttpStatusError(status, f"HTTP {status} from {url}")
            try:
                return json.loads(data)
            except ValueError as exc:
                raise MalformedResponse(f"non-JSON response from {url}") from exc
        raise RetriesExhausted(
            f"gave up on {url} after {attempts} attempts: {last_error}"
        )

    def _roundtrip(self, endpoint: str, payload: dict) -> dict:
        mode = self.config.mode
        if mode is ProviderMode.REPLAY:
            return self._read_fixture(fixture_key(endpoint, payload))
        body = self._http_post(endpoint, payload)
        if mode is ProviderMode.RECORD:
            self._write_fixture(fixture_key(endpoint, payload), body)
        return body

    # -- API ----------------------------------------------------------------

    def chat(self, request: ChatRequest) -> str:
        messages = [{"role": "system", "content": request.system}]
        for user_turn, assistant_turn in request.few_shot:
            messages.append({"role": "user", "content": user_turn})
            messages.append({"role": "assistant", "content": assistant_turn})
        messages.append({"role": "user", "content": request.user})
        payload = {
            "model": self.config.model_name,
            "messages": messages,
            "temperature": request.temperature,
        }
        body = self._roundtrip("/v1/chat/completions", payload)
        try:
            content = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise MalformedResponse("chat response missing choices[0].message.content") from exc
        if not isinstance(content, str):
            raise MalformedResponse("chat content is not a string")
        return content


@dataclass
class ScriptedChatProvider:
    """Deterministic in-process stand-in for tests and offline runs."""

    replies: list[str]
    calls: list[ChatRequest] = field(default_factory=list)

    def chat(self, request: ChatRequest) -> str:
        self.calls.append(request)
        if not self.replies:
            raise MalformedResponse("scripted provider ran out of replies")
        return self.replies.pop(0)
