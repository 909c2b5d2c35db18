"""HTTP chat/embedding providers with record-replay fixtures.

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
"""

from __future__ import annotations

import hashlib
import os
import random
import tempfile
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Protocol

import requests

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
    embed_page_size: int = 128

    def __post_init__(self) -> None:
        if self.max_retries < 0 or self.max_retries > MAX_RETRIES_CAP:
            raise InvalidConfig(
                f"max_retries must be in [0, {MAX_RETRIES_CAP}], got {self.max_retries}"
            )
        if self.max_concurrent_requests < 1:
            raise InvalidConfig("max_concurrent_requests must be >= 1")
        if self.embed_page_size < 1:
            raise InvalidConfig("embed_page_size must be >= 1")
        if self.mode is not ProviderMode.LIVE and not self.fixtures_dir:
            raise InvalidConfig(f"{self.mode.value} mode requires fixtures_dir")


@dataclass(frozen=True)
class ChatRequest:
    system: str
    few_shot: tuple[tuple[str, str], ...]
    user: str
    temperature: float = 0.0


class ChatProvider(Protocol):
    def chat(self, request: ChatRequest) -> str: ...


class EmbeddingProvider(Protocol):
    def embed_batch(self, texts: list[str]) -> list[list[float]]: ...


def resolved_session(url: str) -> requests.Session:
    """A session for ``url`` with the environment's settings read once.

    A session that trusts the environment re-reads the proxy variables,
    ``NO_PROXY``, the CA bundle variables and netrc on every request. Here
    requests' own rules resolve them for ``url`` once; the session then
    uses the result and no longer looks at the environment.
    """
    session = requests.Session()
    settings = session.merge_environment_settings(url, {}, None, None, None)
    session.proxies = settings["proxies"]
    session.verify = settings["verify"]
    session.auth = requests.utils.get_netrc_auth(url)
    session.trust_env = False
    return session


def fixture_key(endpoint: str, payload: dict) -> str:
    blob = canonical_dumps({"endpoint": endpoint, "payload": payload})
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class HttpProvider:
    """Chat + embedding client over a JSON HTTP API."""

    def __init__(self, config: ProviderConfig) -> None:
        self.config = config
        self._semaphore = threading.Semaphore(config.max_concurrent_requests)
        self._session = resolved_session(config.base_url)

    # -- fixture plumbing ---------------------------------------------------

    def _fixture_path(self, key: str) -> Path:
        assert self.config.fixtures_dir is not None
        return Path(self.config.fixtures_dir) / f"{key}.json"

    def _read_fixture(self, key: str) -> dict:
        path = self._fixture_path(key)
        try:
            import json

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
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.config.api_key_env_var)
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def _http_post(self, endpoint: str, payload: dict) -> dict:
        url = self.config.base_url.rstrip("/") + endpoint
        attempts = self.config.max_retries + 1
        last_error: Exception | None = None
        for attempt in range(attempts):
            if attempt > 0:
                delay = self.config.backoff_s * (2 ** (attempt - 1))
                time.sleep(delay + random.uniform(0.0, self.config.backoff_s))
            try:
                with self._semaphore:
                    resp = self._session.post(
                        url,
                        json=payload,
                        headers=self._headers(),
                        timeout=self.config.timeout_s,
                    )
            except requests.Timeout as exc:
                last_error = ProviderTimeout(f"timeout talking to {url}")
                last_error.__cause__ = exc
                continue
            except requests.ConnectionError as exc:
                last_error = HttpStatusError(0, f"connection error talking to {url}")
                last_error.__cause__ = exc
                continue
            if resp.status_code == 429 or resp.status_code >= 500:
                last_error = HttpStatusError(
                    resp.status_code, f"HTTP {resp.status_code} from {url}"
                )
                continue
            if resp.status_code >= 400:
                raise HttpStatusError(
                    resp.status_code, f"HTTP {resp.status_code} from {url}"
                )
            try:
                return resp.json()
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

    def embed_batch(self, texts: list[str]) -> list[list[float]]:
        out: list[list[float]] = []
        page_size = self.config.embed_page_size
        for start in range(0, len(texts), page_size):
            page = texts[start : start + page_size]
            payload = {"model": self.config.model_name, "input": page}
            body = self._roundtrip("/v1/embeddings", payload)
            try:
                rows = sorted(body["data"], key=lambda r: r["index"])
                vectors = [[float(v) for v in row["embedding"]] for row in rows]
            except (KeyError, TypeError, ValueError) as exc:
                raise MalformedResponse("embedding response malformed") from exc
            if len(vectors) != len(page):
                raise MalformedResponse(
                    f"embedding response has {len(vectors)} rows for {len(page)} inputs"
                )
            out.extend(vectors)
        return out


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
