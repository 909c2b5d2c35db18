"""In-process HTTP chat stub for the plan-provider workload.

It answers ``POST /v1/chat/completions`` the way the planner's three
prompts expect:

- the object prompt gets a JSON array naming every object the scene
  description names, plus fill models drawn from the object list in the
  prompt;
- the environment prompt gets ``{"lighting": null, "camera": null}``;
- the paraphrase prompt gets a JSON array of template rewrites.

Every reply depends only on the request: fill models come from a random
stream seeded with a hash of the prompt. Before each reply the stub waits a
fixed latency, standing in for model inference. It sends each response in a
single write, because a header write followed by a body write on a
keep-alive connection meets the client's delayed ACK and stalls every
request by about 40 ms. It never answers 429, which would make the client
back off with unseeded jitter. It counts the requests it answers and the
highest number it had in flight at once.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

PARAPHRASE_TEMPLATES = (
    "please {}",
    "{} now",
    "kindly {}",
    "{} carefully",
    "now {}",
    "{} please",
    "just {}",
    "{} gently",
)

_COUNT_RE = re.compile(r"exactly (\d+) add operation")
_DESC_RE = re.compile(r"Scene description: (.*)")
_MENTION_RE = re.compile(r"one is ([^,.;]+)")
_WAYS_RE = re.compile(r"in (\d+) different ways")
_MORE_RE = re.compile(r"Need (\d+) more distinct rewrites of: (.*)")
_INSTRUCTION_RE = re.compile(r"Instruction: (.*)")


class StubError(ValueError):
    """The request is not one of the planner's prompts."""


def _object_reply(user: str) -> str:
    listed_block = user.split("Available objects:\n", 1)[1].split("\n\n", 1)[0]
    listed = [line[2:] for line in listed_block.splitlines() if line.startswith("- ")]
    count = int(_COUNT_RE.search(user).group(1))
    description = _DESC_RE.search(user).group(1)
    named = [m.strip() for m in _MENTION_RE.findall(description)]
    if any(name not in listed for name in named) or len(named) > count:
        raise StubError(f"description names objects not in the list: {named}")
    pool = [name for name in listed if name not in named]
    seed = int.from_bytes(hashlib.sha256(user.encode("utf-8")).digest()[:8], "big")
    fill = random.Random(seed).sample(pool, count - len(named))
    return json.dumps([{"model_id": name, "pose": None} for name in named + fill])


def _paraphrase_reply(user: str) -> str:
    more = _MORE_RE.search(user)
    if more is not None:
        k, original = int(more.group(1)), more.group(2)
    else:
        k = int(_WAYS_RE.search(user).group(1))
        original = _INSTRUCTION_RE.search(user).group(1)
    return json.dumps([t.format(original) for t in PARAPHRASE_TEMPLATES[:k]])


def reply_for(payload: dict) -> str:
    """The assistant text for one chat request."""
    messages = payload["messages"]
    system, user = messages[0]["content"], messages[-1]["content"]
    if system.startswith("You configure tabletop manipulation scenes"):
        return _object_reply(user)
    if system.startswith("You configure tabletop scene environments"):
        return '{"lighting": null, "camera": null}'
    if system.startswith("You rewrite robot manipulation instructions"):
        return _paraphrase_reply(user)
    raise StubError("unknown prompt")


class ChatStub:
    """A local chat endpoint on a free port; use as a context manager."""

    def __init__(self, latency_s: float) -> None:
        self.latency_s = latency_s
        self.requests = 0
        self.max_in_flight = 0
        self._in_flight = 0
        self._lock = threading.Lock()
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), self._handler())
        self._server.daemon_threads = True
        self._server.block_on_close = False
        self._thread = threading.Thread(target=self._server.serve_forever)
        self.url = f"http://127.0.0.1:{self._server.server_port}"

    def __enter__(self) -> "ChatStub":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)

    def reset_counts(self) -> None:
        with self._lock:
            self.requests = 0
            self.max_in_flight = 0

    def _handler(self):
        stub = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            timeout = 60

            def do_POST(self):
                with stub._lock:
                    stub._in_flight += 1
                    stub.max_in_flight = max(stub.max_in_flight, stub._in_flight)
                try:
                    length = int(self.headers.get("Content-Length", 0))
                    status, body = 200, None
                    try:
                        payload = json.loads(self.rfile.read(length))
                        if self.path != "/v1/chat/completions":
                            raise StubError(f"unknown path {self.path}")
                        text = reply_for(payload)
                        body = {"choices": [{"message": {
                            "role": "assistant", "content": text}}]}
                    except (StubError, ValueError, KeyError, IndexError,
                            AttributeError, TypeError) as exc:
                        status, body = 400, {"error": str(exc)}
                    data = json.dumps(body).encode("utf-8")
                    time.sleep(stub.latency_s)
                    head = (
                        f"HTTP/1.1 {status} {'OK' if status == 200 else 'Bad Request'}\r\n"
                        "Content-Type: application/json\r\n"
                        f"Content-Length: {len(data)}\r\n\r\n"
                    ).encode("ascii")
                    self.wfile.write(head + data)
                    with stub._lock:
                        stub.requests += 1
                finally:
                    with stub._lock:
                        stub._in_flight -= 1

            def log_message(self, *args):
                pass

        return Handler
