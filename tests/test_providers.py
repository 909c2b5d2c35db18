import json
import threading
import time

import pytest

from benchtop.errors import (
    HttpStatusError,
    InvalidConfig,
    MissingFixture,
    RetriesExhausted,
)
from benchtop.providers import (
    ChatRequest,
    HttpProvider,
    ProviderConfig,
    ProviderMode,
    fixture_key,
)


def _chat_body(text):
    return {"choices": [{"message": {"role": "assistant", "content": text}}]}


def _config(base_url, **over):
    base = dict(
        base_url=base_url,
        model_name="m",
        timeout_s=5.0,
        backoff_s=0.01,
    )
    base.update(over)
    return ProviderConfig(**base)


REQ = ChatRequest(system="sys", few_shot=(), user="hello")


def test_fixture_key_ignores_dict_ordering():
    a = fixture_key("/v1/x", {"b": 1, "a": [1.5, 2.0]})
    b = fixture_key("/v1/x", {"a": [1.5, 2.0], "b": 1})
    assert a == b
    assert len(a) == 64
    assert fixture_key("/v1/y", {"b": 1, "a": [1.5, 2.0]}) != a


def test_config_validation(tmp_path):
    with pytest.raises(InvalidConfig):
        _config("http://x", max_retries=9)
    with pytest.raises(InvalidConfig):
        _config("http://x", mode=ProviderMode.REPLAY, fixtures_dir=None)
    with pytest.raises(InvalidConfig):
        _config("http://x", max_concurrent_requests=0)
    _config("http://x", mode=ProviderMode.RECORD, fixtures_dir=str(tmp_path))


def test_live_chat(stub_server):
    url, _ = stub_server(lambda path, payload, call: (200, _chat_body("hi there")))
    provider = HttpProvider(_config(url))
    assert provider.chat(REQ) == "hi there"


def test_chat_sends_few_shot_turns(stub_server):
    captured = {}

    def respond(path, payload, call):
        captured["payload"] = payload
        return 200, _chat_body("ok")

    url, _ = stub_server(respond)
    provider = HttpProvider(_config(url))
    provider.chat(
        ChatRequest(system="s", few_shot=(("q1", "a1"),), user="q2", temperature=0.0)
    )
    roles = [m["role"] for m in captured["payload"]["messages"]]
    assert roles == ["system", "user", "assistant", "user"]
    assert captured["payload"]["temperature"] == 0.0


def test_record_then_replay_round_trip(stub_server, tmp_path):
    url, state = stub_server(lambda p, q, c: (200, _chat_body("recorded!")))
    recorder = HttpProvider(
        _config(url, mode=ProviderMode.RECORD, fixtures_dir=str(tmp_path))
    )
    assert recorder.chat(REQ) == "recorded!"
    assert state["count"] == 1
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1

    # replay against an address that cannot answer: must never be contacted
    replayer = HttpProvider(
        _config(
            "http://127.0.0.1:9",
            mode=ProviderMode.REPLAY,
            fixtures_dir=str(tmp_path),
        )
    )
    assert replayer.chat(REQ) == "recorded!"
    assert state["count"] == 1


def test_replay_missing_fixture(tmp_path):
    provider = HttpProvider(
        _config(
            "http://127.0.0.1:9",
            mode=ProviderMode.REPLAY,
            fixtures_dir=str(tmp_path),
        )
    )
    with pytest.raises(MissingFixture):
        provider.chat(REQ)


def test_fixture_files_are_keyed_and_atomic(stub_server, tmp_path):
    url, _ = stub_server(lambda p, q, c: (200, _chat_body("x")))
    provider = HttpProvider(
        _config(url, mode=ProviderMode.RECORD, fixtures_dir=str(tmp_path))
    )
    provider.chat(REQ)
    leftovers = list(tmp_path.glob("*.tmp"))
    assert leftovers == []
    (path,) = tmp_path.glob("*.json")
    stored = json.loads(path.read_text())
    assert path.stem == stored["key"]
    assert stored["response_body"]["choices"][0]["message"]["content"] == "x"


def test_retry_on_429_then_succeed(stub_server):
    def respond(path, payload, call):
        if call <= 2:
            return 429, {"error": "slow down"}
        return 200, _chat_body("third time lucky")

    url, state = stub_server(respond)
    provider = HttpProvider(_config(url, max_retries=3))
    assert provider.chat(REQ) == "third time lucky"
    assert state["count"] == 3


def test_retry_on_500_exhausts(stub_server):
    url, state = stub_server(lambda p, q, c: (500, {"error": "boom"}))
    provider = HttpProvider(_config(url, max_retries=2))
    with pytest.raises(RetriesExhausted):
        provider.chat(REQ)
    assert state["count"] == 3


def test_client_errors_do_not_retry(stub_server):
    url, state = stub_server(lambda p, q, c: (400, {"error": "bad request"}))
    provider = HttpProvider(_config(url, max_retries=3))
    with pytest.raises(HttpStatusError) as err:
        provider.chat(REQ)
    assert err.value.status == 400
    assert state["count"] == 1


def test_embed_pagination_preserves_order(stub_server):
    pages = []

    def respond(path, payload, call):
        assert path == "/v1/embeddings"
        texts = payload["input"]
        pages.append(list(texts))
        # reply rows shuffled; client must reorder by index
        rows = [
            {"index": i, "embedding": [float(len(t)), float(i)]}
            for i, t in enumerate(texts)
        ]
        return 200, {"data": list(reversed(rows))}

    url, _ = stub_server(respond)
    provider = HttpProvider(_config(url, embed_page_size=2))
    texts = ["a", "bb", "ccc", "dddd", "eeeee"]
    out = provider.embed_batch(texts)
    assert pages == [["a", "bb"], ["ccc", "dddd"], ["eeeee"]]
    assert out == [[1.0, 0.0], [2.0, 1.0], [3.0, 0.0], [4.0, 1.0], [5.0, 0.0]]


def test_concurrency_capped(stub_server):
    def respond(path, payload, call):
        time.sleep(0.05)
        return 200, _chat_body("ok")

    url, state = stub_server(respond)
    provider = HttpProvider(_config(url, max_concurrent_requests=2))
    threads = [
        threading.Thread(target=lambda: provider.chat(REQ)) for _ in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert state["count"] == 8
    assert state["high_water"] <= 2


def test_api_key_sent_live_but_never_stored(stub_server, tmp_path, monkeypatch):
    monkeypatch.setenv("TEST_PROVIDER_KEY", "sekrit-token")
    url, state = stub_server(lambda p, q, c: (200, _chat_body("ok")))
    provider = HttpProvider(
        _config(
            url,
            mode=ProviderMode.RECORD,
            fixtures_dir=str(tmp_path),
            api_key_env_var="TEST_PROVIDER_KEY",
        )
    )
    provider.chat(REQ)
    assert state["last_auth"] == "Bearer sekrit-token"
    for path in tmp_path.glob("*"):
        assert "sekrit-token" not in path.read_text()


def test_no_auth_header_without_key(stub_server, monkeypatch):
    monkeypatch.delenv("PROVIDER_API_KEY", raising=False)
    url, state = stub_server(lambda p, q, c: (200, _chat_body("ok")))
    provider = HttpProvider(_config(url))
    provider.chat(REQ)
    assert state["last_auth"] is None


@pytest.mark.usefixtures("closed_proxy")
def test_proxy_settings_are_read_once_at_construction(stub_server, monkeypatch):
    url, state = stub_server(lambda p, q, c: (200, _chat_body("ok")))
    proxied = HttpProvider(_config(url, max_retries=0))
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    direct = HttpProvider(_config(url, max_retries=0))
    monkeypatch.delenv("NO_PROXY")
    with pytest.raises(RetriesExhausted, match="connection error"):
        proxied.chat(REQ)
    assert state["count"] == 0
    assert direct.chat(REQ) == "ok"
    assert state["count"] == 1
