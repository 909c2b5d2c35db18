import base64
import json
import time

import pytest

from benchtop import providers
from benchtop.errors import (
    HttpStatusError,
    InvalidConfig,
    MalformedResponse,
    MissingFixture,
    RetriesExhausted,
)
from benchtop.jsonio import dumps
from benchtop.providers import (
    ChatRequest,
    HttpProvider,
    HttpTransport,
    ProviderMode,
    fixture_key,
)


def _chat_body(text):
    return {"choices": [{"message": {"role": "assistant", "content": text}}]}


REQ = ChatRequest(system="sys", few_shot=(), user="hello")


@pytest.fixture
def make_provider(monkeypatch):
    """Builds ``HttpProvider``s for model ``m`` and closes them.

    The timeout is 5 s and the backoff 10 ms. Each keyword argument, such as
    ``max_retries=0``, sets the module constant of its upper-cased name for
    the rest of the test.
    """
    monkeypatch.setattr(providers, "TIMEOUT_S", 5.0)
    monkeypatch.setattr(providers, "BACKOFF_S", 0.01)
    built = []

    def make(base_url, mode=ProviderMode.LIVE, fixtures_dir=None, **constants):
        for name, value in constants.items():
            monkeypatch.setattr(providers, name.upper(), value)
        built.append(HttpProvider(base_url, "m", mode, fixtures_dir))
        return built[-1]

    yield make
    for provider in built:
        provider.close()


def test_fixture_key_ignores_dict_ordering():
    a = fixture_key("/v1/x", {"b": 1, "a": [1.5, 2.0]})
    b = fixture_key("/v1/x", {"a": [1.5, 2.0], "b": 1})
    assert a == b
    assert len(a) == 64
    assert fixture_key("/v1/y", {"b": 1, "a": [1.5, 2.0]}) != a


def test_config_validation(tmp_path, make_provider):
    for mode in (ProviderMode.RECORD, ProviderMode.REPLAY):
        with pytest.raises(InvalidConfig, match=f"{mode.value} mode requires"):
            make_provider("http://x", mode=mode)
    make_provider("http://x", mode=ProviderMode.RECORD, fixtures_dir=str(tmp_path))


def test_live_chat(stub_server, make_provider):
    url, _ = stub_server(lambda path, payload, call: (200, _chat_body("hi there")))
    provider = make_provider(url)
    assert provider.chat(REQ) == "hi there"


def test_chat_sends_few_shot_turns(stub_server, make_provider):
    captured = {}

    def respond(path, payload, call):
        captured["payload"] = payload
        return 200, _chat_body("ok")

    url, _ = stub_server(respond)
    provider = make_provider(url)
    provider.chat(
        ChatRequest(system="s", few_shot=(("q1", "a1"),), user="q2", temperature=0.0)
    )
    roles = [m["role"] for m in captured["payload"]["messages"]]
    assert roles == ["system", "user", "assistant", "user"]
    assert captured["payload"]["temperature"] == 0.0


def test_record_then_replay_round_trip(stub_server, make_provider, tmp_path):
    url, state = stub_server(lambda p, q, c: (200, _chat_body("recorded!")))
    recorder = make_provider(url, mode=ProviderMode.RECORD, fixtures_dir=str(tmp_path))
    assert recorder.chat(REQ) == "recorded!"
    assert state["count"] == 1
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1

    # replay against an address that cannot answer: must never be contacted
    replayer = make_provider(
        "http://127.0.0.1:9",
        mode=ProviderMode.REPLAY,
        fixtures_dir=str(tmp_path),
    )
    assert replayer.chat(REQ) == "recorded!"
    assert state["count"] == 1


def test_replay_missing_fixture(tmp_path, make_provider):
    provider = make_provider(
        "http://127.0.0.1:9",
        mode=ProviderMode.REPLAY,
        fixtures_dir=str(tmp_path),
    )
    with pytest.raises(MissingFixture):
        provider.chat(REQ)


def test_fixture_files_are_keyed_and_atomic(stub_server, make_provider, tmp_path):
    url, _ = stub_server(lambda p, q, c: (200, _chat_body("x")))
    provider = make_provider(url, mode=ProviderMode.RECORD, fixtures_dir=str(tmp_path))
    provider.chat(REQ)
    leftovers = list(tmp_path.glob("*.tmp"))
    assert leftovers == []
    (path,) = tmp_path.glob("*.json")
    stored = json.loads(path.read_text())
    assert path.stem == stored["key"]
    assert stored["response_body"]["choices"][0]["message"]["content"] == "x"


def test_retry_on_429_then_succeed(stub_server, make_provider):
    def respond(path, payload, call):
        if call <= 2:
            return 429, {"error": "slow down"}
        return 200, _chat_body("third time lucky")

    url, state = stub_server(respond)
    provider = make_provider(url, max_retries=3)
    assert provider.chat(REQ) == "third time lucky"
    assert state["count"] == 3


def test_retry_on_500_exhausts(stub_server, make_provider):
    url, state = stub_server(lambda p, q, c: (500, {"error": "boom"}))
    provider = make_provider(url, max_retries=2)
    with pytest.raises(RetriesExhausted, match=r"after 3 attempts: HTTP 500 from "):
        provider.chat(REQ)
    assert state["count"] == 3


def test_client_errors_do_not_retry(stub_server, make_provider):
    url, state = stub_server(lambda p, q, c: (400, {"error": "bad request"}))
    provider = make_provider(url, max_retries=3)
    with pytest.raises(HttpStatusError) as err:
        provider.chat(REQ)
    assert err.value.status == 400
    assert state["count"] == 1


def test_api_key_sent_live_but_never_stored(
    stub_server, make_provider, tmp_path, monkeypatch
):
    monkeypatch.setenv("TEST_PROVIDER_KEY", "sekrit-token")
    url, state = stub_server(lambda p, q, c: (200, _chat_body("ok")))
    provider = make_provider(
        url,
        mode=ProviderMode.RECORD,
        fixtures_dir=str(tmp_path),
        api_key_env_var="TEST_PROVIDER_KEY",
    )
    provider.chat(REQ)
    assert state["last_auth"] == "Bearer sekrit-token"
    for path in tmp_path.glob("*"):
        assert "sekrit-token" not in path.read_text()


def test_no_auth_header_without_key(stub_server, make_provider, monkeypatch):
    monkeypatch.delenv("PROVIDER_API_KEY", raising=False)
    url, state = stub_server(lambda p, q, c: (200, _chat_body("ok")))
    provider = make_provider(url)
    provider.chat(REQ)
    assert state["last_auth"] is None


@pytest.mark.usefixtures("closed_proxy")
def test_proxy_settings_are_read_once_at_construction(
    stub_server, make_provider, monkeypatch
):
    url, state = stub_server(lambda p, q, c: (200, _chat_body("ok")))
    proxied = make_provider(url, max_retries=0)
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    direct = make_provider(url, max_retries=0)
    monkeypatch.delenv("NO_PROXY")
    with pytest.raises(RetriesExhausted, match="connection error"):
        proxied.chat(REQ)
    assert state["count"] == 0
    assert direct.chat(REQ) == "ok"
    assert state["count"] == 1


def test_redirect_is_a_client_error_and_is_not_followed(stub_server, make_provider):
    url, state = stub_server(lambda p, q, c: (302, {"moved": "elsewhere"}))
    provider = make_provider(url, max_retries=3)
    with pytest.raises(HttpStatusError) as err:
        provider.chat(REQ)
    assert err.value.status == 302
    assert state["count"] == 1


def test_timeout_ends_in_retries_exhausted(stub_server, make_provider):
    def respond(path, payload, call):
        time.sleep(0.5)
        return 200, _chat_body("too late")

    url, state = stub_server(respond)
    provider = make_provider(url, timeout_s=0.1, max_retries=1)
    with pytest.raises(RetriesExhausted, match="timeout talking to"):
        provider.chat(REQ)
    assert state["count"] == 2


def test_a_reply_that_drips_past_the_deadline_ends_in_retries_exhausted(
    drip_server, make_provider
):
    provider = make_provider(drip_server, timeout_s=0.5, max_retries=0)
    with pytest.raises(RetriesExhausted, match="timeout talking to"):
        provider.chat(REQ)


def test_a_transport_times_out_a_reply_that_drips_past_its_deadline(drip_server):
    transport = HttpTransport(drip_server, 0.5, 65536)
    began = time.monotonic()
    try:
        with pytest.raises(TimeoutError):
            transport.post(b"{}")
    finally:
        transport.close()
    assert time.monotonic() - began < 1.0  # the whole body takes 1.4 s


@pytest.mark.parametrize("shape", ["chunked", "unsized", "sized"])
def test_a_transport_closes_a_reply_body_past_its_cap(drip_server, shape):
    transport = HttpTransport(f"{drip_server}/{shape}", 5.0, 65536)
    began = time.monotonic()
    try:
        with pytest.raises(MalformedResponse) as err:
            transport.post(b"{}")
        assert transport._conn.sock is None
    finally:
        transport.close()
    assert str(err.value) == "reply body is longer than 65536 bytes"
    assert time.monotonic() - began < 1.0  # the stub streams for 3 s


@pytest.mark.parametrize("fault", ["short", "garbled"])
def test_a_reply_that_breaks_the_protocol_ends_in_retries_exhausted(
    drip_server, make_provider, fault
):
    provider = make_provider(f"{drip_server}/{fault}", max_retries=1)
    with pytest.raises(RetriesExhausted, match="connection error talking to"):
        provider.chat(REQ)


def test_a_reply_body_at_the_cap_is_read_whole(stub_server):
    url, _ = stub_server(lambda p, q, c: (200, b"x" * 1000))
    for cap, fits in ((1000, True), (999, False)):
        transport = HttpTransport(url, 5.0, cap)
        try:
            if fits:
                assert transport.post(b"{}") == (200, b"x" * 1000)
            else:
                with pytest.raises(MalformedResponse):
                    transport.post(b"{}")
        finally:
            transport.close()


def test_a_chat_reply_past_the_body_cap_fails_without_retry(
    drip_server, make_provider
):
    provider = make_provider(f"{drip_server}/chunked")
    with pytest.raises(MalformedResponse) as err:
        provider.chat(REQ)
    cap = providers.MAX_BODY_BYTES
    assert str(err.value) == f"reply body is longer than {cap} bytes"


def test_request_bodies_are_the_json_of_the_payload(stub_server, make_provider):
    url, state = stub_server(lambda p, q, c: (200, _chat_body("ok")))
    provider = make_provider(url)
    request = ChatRequest(
        system='sys "quoted"\\', few_shot=(("q1", "a1"),),
        user="put the café cup ☃ on\nthe plate", temperature=0.7,
    )
    provider.chat(request)
    chat_payload = {
        "model": "m",
        "messages": [
            {"role": "system", "content": request.system},
            {"role": "user", "content": "q1"},
            {"role": "assistant", "content": "a1"},
            {"role": "user", "content": request.user},
        ],
        "temperature": 0.7,
    }
    body = dumps(chat_payload).encode("utf-8")
    assert state["bodies"] == [body]
    assert json.loads(body) == chat_payload
    assert state["last_headers"]["Content-Type"] == "application/json"


def test_calls_share_one_kept_alive_connection(stub_server, make_provider):
    url, state = stub_server(
        lambda p, q, c: (200, _chat_body(f"reply {c}")), protocol="HTTP/1.1"
    )
    provider = make_provider(url)
    assert [provider.chat(REQ) for _ in range(6)] == [f"reply {c}" for c in range(1, 7)]
    assert state["count"] == 6
    assert state["connections"] == 1


def test_a_server_that_closes_after_each_reply_still_works(stub_server, make_provider):
    url, state = stub_server(lambda p, q, c: (200, _chat_body(f"reply {c}")))
    provider = make_provider(url, max_retries=0)
    assert [provider.chat(REQ) for _ in range(6)] == [f"reply {c}" for c in range(1, 7)]
    assert state["connections"] == 6


def test_a_connection_the_server_closed_while_idle_is_replaced(
    stub_server, make_provider
):
    url, state = stub_server(
        lambda p, q, c: (200, _chat_body("ok")),
        protocol="HTTP/1.1", idle_timeout_s=0.05,
    )
    provider = make_provider(url, max_retries=0)
    assert provider.chat(REQ) == "ok"
    time.sleep(0.3)  # the server times the idle connection out and closes it
    assert provider.chat(REQ) == "ok"
    assert state["connections"] == 2


def test_a_transport_posts_to_the_path_and_query_of_its_url(stub_server):
    url, state = stub_server(
        lambda p, q, c: (200, {"n": c}), protocol="HTTP/1.1"
    )
    transport = HttpTransport(
        url + "/api/act?policy=a", timeout_s=5.0, max_body_bytes=65536
    )
    try:
        replies = [transport.post(b"{}") for _ in range(3)]
    finally:
        transport.close()
    assert replies == [(200, b'{"n": %d}' % c) for c in range(1, 4)]
    assert state["paths"] == ["/api/act?policy=a"] * 3
    assert state["connections"] == 1


@pytest.mark.usefixtures("closed_proxy")
@pytest.mark.parametrize(
    "no_proxy, proxied",
    [
        ("*", False),
        ("127.0.0.1", False),
        ("127.0.0.2", True),
    ],
)
def test_no_proxy_matches_cidr_blocks(
    stub_server, make_provider, monkeypatch, no_proxy, proxied
):
    url, state = stub_server(lambda p, q, c: (200, _chat_body("ok")))
    monkeypatch.setenv("NO_PROXY", no_proxy)
    provider = make_provider(url, max_retries=0)
    if proxied:
        with pytest.raises(RetriesExhausted, match="connection error"):
            provider.chat(REQ)
    else:
        assert provider.chat(REQ) == "ok"
    assert state["count"] == (0 if proxied else 1)


@pytest.mark.usefixtures("closed_proxy")
def test_all_proxy_alone_routes_http_through_the_proxy(
    stub_server, make_provider, monkeypatch
):
    proxy, state = stub_server(lambda p, q, c: (200, _chat_body("via proxy")))
    monkeypatch.delenv("HTTP_PROXY")
    monkeypatch.setenv("ALL_PROXY", proxy.replace("//", "//pat:p%40ss@"))
    provider = make_provider("http://benchtop.invalid:8080/api/", max_retries=0)
    assert provider.chat(REQ) == "via proxy"
    assert state["paths"] == ["http://benchtop.invalid:8080/api/v1/chat/completions"]
    headers = state["last_headers"]
    assert headers["Host"] == "benchtop.invalid:8080"
    assert headers["Proxy-Authorization"] == (
        "Basic " + base64.b64encode(b"pat:p@ss").decode("ascii")
    )


@pytest.mark.usefixtures("closed_proxy")
def test_https_goes_through_a_connect_tunnel(stub_server, make_provider, monkeypatch):
    proxy, state = stub_server(lambda p, q, c: (200, _chat_body("never")))
    monkeypatch.setenv("HTTPS_PROXY", proxy.replace("//", "//pat:secret@"))
    provider = make_provider("https://benchtop.invalid", max_retries=0)
    with pytest.raises(RetriesExhausted, match="connection error"):
        provider.chat(REQ)  # the stub refuses the tunnel
    assert state["tunnels"] == [(
        "benchtop.invalid:443",
        "Basic " + base64.b64encode(b"pat:secret").decode("ascii"),
    )]
    assert state["count"] == 0


@pytest.mark.parametrize(
    "url_userinfo, api_key, expected",
    [
        ("b%40b:p%3Aw@", None, ("Basic", b"b@b:p:w")),
        ("b%40b:p%3Aw@", "sekrit-token", ("Bearer", b"sekrit-token")),
    ],
    ids=["url", "api_key_over_url"],
)
def test_basic_auth_from_the_url_unless_an_api_key_is_set(
    stub_server, make_provider, monkeypatch, url_userinfo, api_key, expected
):
    if api_key is None:
        monkeypatch.delenv("PROVIDER_API_KEY", raising=False)
    else:
        monkeypatch.setenv("PROVIDER_API_KEY", api_key)
    url, state = stub_server(lambda p, q, c: (200, _chat_body("ok")))
    make_provider(url.replace("//", "//" + url_userinfo)).chat(REQ)
    scheme, credentials = expected
    if scheme == "Basic":
        credentials = base64.b64encode(credentials)
    assert state["last_auth"] == f"{scheme} {credentials.decode('ascii')}"
