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

    ``start(respond)`` takes a callable (path, payload, call_number) ->
    (status, body) and returns (base_url, state). A ``bytes`` body is sent
    as it is, anything else as JSON. ``state`` tracks the request count and
    the concurrency high-water mark.
    """
    servers = []

    def start(respond):
        state = {"count": 0, "active": 0, "high_water": 0}
        lock = threading.Lock()

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                with lock:
                    state["count"] += 1
                    state["active"] += 1
                    state["high_water"] = max(state["high_water"], state["active"])
                    state["last_auth"] = self.headers.get("Authorization")
                    call = state["count"]
                try:
                    length = int(self.headers.get("Content-Length", 0))
                    payload = json.loads(self.rfile.read(length) or b"{}")
                    status, body = respond(self.path, payload, call)
                    if isinstance(body, bytes):
                        data = body
                    else:
                        data = json.dumps(body).encode("utf-8")
                    self.send_response(status)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(data)))
                    self.end_headers()
                    self.wfile.write(data)
                except BrokenPipeError:
                    pass
                finally:
                    with lock:
                        state["active"] -= 1

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_port}", state

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()
