from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from benchtop.catalog import load_default_catalog
from benchtop.errors import MalformedResponse
from benchtop.providers import ChatRequest


@dataclass
class ScriptedChatProvider:
    """A chat provider that answers with ``replies`` in order."""

    replies: list[str]
    calls: list[ChatRequest] = field(default_factory=list)

    def chat(self, request: ChatRequest) -> str:
        self.calls.append(request)
        if not self.replies:
            raise MalformedResponse("scripted provider ran out of replies")
        return self.replies.pop(0)


@pytest.fixture(scope="session")
def catalog():
    return load_default_catalog()


@pytest.fixture
def closed_proxy(monkeypatch):
    """Points ``HTTP_PROXY`` at a local port that nothing listens on.

    Every other proxy variable is cleared, ``NO_PROXY`` included.
    """
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{port}")


@pytest.fixture
def stub_server():
    """Factory for a scriptable local JSON API.

    ``start(respond, protocol="HTTP/1.0", idle_timeout_s=None)`` takes a
    callable (path, payload, call_number) -> (status, body) and returns
    (base_url, state). A ``bytes`` body is sent as it is, anything else as
    JSON. An ``HTTP/1.0`` server closes the connection after every reply; an
    ``HTTP/1.1`` one keeps it open until it has been idle for
    ``idle_timeout_s``. ``state`` tracks the request count, the accepted TCP
    connections, each raw request body and path, and the last request's
    headers. A ``CONNECT`` request is answered 501 and its target and
    ``Proxy-Authorization`` are kept in ``state["tunnels"]``.
    """
    servers = []

    def start(respond, protocol="HTTP/1.0", idle_timeout_s=None):
        state = {
            "count": 0, "connections": 0,
            "bodies": [], "paths": [], "tunnels": [],
        }
        lock = threading.Lock()

        class Handler(BaseHTTPRequestHandler):
            protocol_version = protocol
            disable_nagle_algorithm = True
            timeout = idle_timeout_s

            def setup(self):
                super().setup()
                with lock:
                    state["connections"] += 1

            def do_CONNECT(self):
                with lock:
                    state["tunnels"].append(
                        (self.path, self.headers.get("Proxy-Authorization"))
                    )
                self.send_error(501)

            def do_POST(self):
                with lock:
                    state["count"] += 1
                    state["last_auth"] = self.headers.get("Authorization")
                    state["last_headers"] = dict(self.headers)
                    call = state["count"]
                try:
                    length = int(self.headers.get("Content-Length", 0))
                    raw = self.rfile.read(length)
                    with lock:
                        state["bodies"].append(raw)
                        state["paths"].append(self.path)
                    status, body = respond(self.path, json.loads(raw or b"{}"), call)
                    if isinstance(body, bytes):
                        data = body
                    else:
                        data = json.dumps(body).encode("utf-8")
                    self.send_response(status)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(data)))
                    self.end_headers()
                    self.wfile.write(data)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # the client gave up waiting

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # a kept-alive connection blocks its handler until the client closes it
        server.block_on_close = protocol == "HTTP/1.0"
        # shutdown() waits for the serve loop's next poll
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        thread.start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_port}", state

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


DRIP_BODY = b'{"type":"act","delta_position":[0.0,0.0,0.0],"gripper":"HOLD"}'

# the head and the 64 KiB body frame of each streamed reply, by first path segment
_STREAMS = {
    b"chunked": (
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
        b"10000\r\n" + b" " * 65536 + b"\r\n",
    ),
    b"unsized": (b"HTTP/1.0 200 OK\r\n\r\n", b" " * 65536),
    b"sized": (
        b"HTTP/1.0 200 OK\r\nContent-Length: 1073741824\r\n\r\n",
        b" " * 65536,
    ),
}

# the whole reply to any request, by first path segment, sent before closing
_FAULTS = {
    b"short": b"HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (
        len(DRIP_BODY), DRIP_BODY[:20]
    ),
    b"garbled": b"HELLO THERE\r\n\r\n",
}


@pytest.fixture
def drip_server():
    """A raw-socket HTTP/1.0 server that sends each reply's headers at once
    and then the 62-byte act body ``DRIP_BODY``, 8 bytes every 0.2 s.

    A request whose path begins ``/chunked``, ``/unsized`` or ``/sized`` is
    streamed instead: 64 KiB body frames of a chunked reply, a reply with no
    length, or one that states a length of 1 GiB, sent for 3 s, up to 16
    MiB, or until the client closes. A request whose body holds ``"reset"``
    gets the whole ``DRIP_BODY`` at once, so an ``http:`` policy's episode
    reaches its first act. Any request whose path begins ``/short`` or
    ``/garbled`` breaks the protocol: the first gets 20 bytes of a 62-byte
    body and the second a status line that is not HTTP, and then the
    connection closes. Yields the URL.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    stop = threading.Event()
    threads = []

    def serve(conn):
        with conn, conn.makefile("rb") as rfile:
            try:
                conn.settimeout(5.0)
                path = rfile.readline().split()[1]  # of the request line
                headers = http.client.parse_headers(rfile)
                body = rfile.read(int(headers.get("Content-Length", 0)))
                fault = _FAULTS.get(path.split(b"/")[1])
                if fault is not None:
                    conn.sendall(fault)
                    return
                stream = _STREAMS.get(path.split(b"/")[1])
                if stream is not None and b'"reset"' not in body:
                    conn.sendall(stream[0])
                    end = time.monotonic() + 3.0
                    for _ in range(256):
                        if time.monotonic() > end or stop.is_set():
                            break
                        conn.sendall(stream[1])
                    return
                conn.sendall(
                    b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n"
                    b"Content-Length: %d\r\n\r\n" % len(DRIP_BODY)
                )
                step = len(DRIP_BODY) if b'"reset"' in body else 8
                for start in range(0, len(DRIP_BODY), step):
                    if start and stop.wait(0.2):
                        return
                    conn.sendall(DRIP_BODY[start:start + step])
            except OSError:
                pass  # the client gave up waiting

    def accept():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            threads.append(threading.Thread(target=serve, args=(conn,)))
            threads[-1].start()

    acceptor = threading.Thread(target=accept)
    acceptor.start()
    yield f"http://127.0.0.1:{listener.getsockname()[1]}"
    stop.set()
    acceptor.join(timeout=5.0)  # it starts no thread after this
    for thread in threads:
        thread.join(timeout=5.0)
    listener.close()
    assert not any(t.is_alive() for t in [acceptor, *threads])
