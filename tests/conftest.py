from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from benchtop.catalog import load_default_catalog


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
    ``idle_timeout_s``. ``state`` tracks the request count, the concurrency
    high-water mark, the accepted TCP connections, each raw request body and
    path, and the last request's headers. A ``CONNECT`` request is answered
    501 and its target and ``Proxy-Authorization`` are kept in
    ``state["tunnels"]``.
    """
    servers = []

    def start(respond, protocol="HTTP/1.0", idle_timeout_s=None):
        state = {
            "count": 0, "active": 0, "high_water": 0, "connections": 0,
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
                    state["active"] += 1
                    state["high_water"] = max(state["high_water"], state["active"])
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
                finally:
                    with lock:
                        state["active"] -= 1

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # a kept-alive connection blocks its handler until the client closes it
        server.block_on_close = protocol == "HTTP/1.0"
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_port}", state

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()
