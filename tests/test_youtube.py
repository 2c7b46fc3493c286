import os
import subprocess
import sys
from pathlib import Path

import pytest
import requests

from sentimen.youtube import FetchError, InvalidUrlError, fetch_comments


class FakeSession:
    """Answers every request with ``reply``, or raises it."""

    def __init__(self, reply):
        self.reply = reply

    def get(self, url, params, timeout):
        if isinstance(self.reply, Exception):
            raise self.reply
        resp = requests.Response()
        resp.status_code, resp._content = self.reply
        return resp


class TestPagination:
    def test_two_pages_in_order(self, comments_server):
        server = comments_server(n_pages=2, page_size=3)
        out = fetch_comments("vid123", api_key="k", max_pages=5,
                             base_url=server.url)
        assert len(out) == 6
        assert [c.id for c in out] == ["c0-0", "c0-1", "c0-2",
                                       "c1-0", "c1-1", "c1-2"]
        assert all(c.label is None for c in out)
        assert all(c.source == "vid123" for c in out)
        assert out[0].text == "komentar 0 0"

    def test_max_pages_respected(self, comments_server):
        server = comments_server(n_pages=4, page_size=2)
        out = fetch_comments("vid", api_key="k", max_pages=2,
                             base_url=server.url)
        assert len(out) == 4
        assert len(server.requests) == 2

    def test_max_pages_zero_no_network(self, comments_server):
        server = comments_server()
        out = fetch_comments("vid", api_key="k", max_pages=0,
                             base_url=server.url)
        assert out == []
        assert server.requests == []

    def test_page_token_forwarded(self, comments_server):
        server = comments_server(n_pages=2, page_size=1)
        fetch_comments("vid", api_key="k", max_pages=2, base_url=server.url)
        assert "pageToken" not in server.requests[0]
        assert server.requests[0]["maxResults"] == ["100"]
        assert server.requests[1]["pageToken"] == ["page-1"]


class TestErrors:
    def test_missing_key_fails_before_network(self, comments_server,
                                              monkeypatch):
        monkeypatch.delenv("SENTIMEN_API_KEY", raising=False)
        server = comments_server()
        with pytest.raises(FetchError, match="^no API key: "):
            fetch_comments("vid", max_pages=1, base_url=server.url)
        assert server.requests == []

    def test_env_key_used(self, comments_server, monkeypatch):
        monkeypatch.setenv("SENTIMEN_API_KEY", "env-key")
        server = comments_server(n_pages=1, page_size=1)
        out = fetch_comments("vid", max_pages=1, base_url=server.url)
        assert len(out) == 1
        assert server.requests[0]["key"] == ["env-key"]

    def test_401_auth_error_no_partial_results(self, comments_server):
        server = comments_server(fail_status=401)
        with pytest.raises(FetchError,
                           match=r"^authentication failed \(HTTP 401\)$"):
            fetch_comments("vid", api_key="bad", max_pages=3,
                           base_url=server.url)

    def test_quota_exhaustion_distinguished(self, comments_server):
        server = comments_server(fail_status=403, fail_body={
            "error": {"errors": [{"reason": "quotaExceeded"}]}})
        with pytest.raises(FetchError, match="^API quota exceeded$"):
            fetch_comments("vid", api_key="k", base_url=server.url)

    def test_unknown_video(self, comments_server):
        server = comments_server(fail_status=404)
        with pytest.raises(FetchError, match="^video not found$"):
            fetch_comments("vid", api_key="k", base_url=server.url)

    def test_server_error_is_transient_failure(self, comments_server):
        server = comments_server(fail_status=500)
        with pytest.raises(FetchError,
                           match=r"^transient API failure \(HTTP 500\)$"):
            fetch_comments("vid", api_key="k", base_url=server.url)

    def test_negative_max_pages(self, comments_server):
        server = comments_server()
        with pytest.raises(ValueError):
            fetch_comments("vid", api_key="k", max_pages=-1,
                           base_url=server.url)

    def test_connection_failure_hides_key(self):
        session = FakeSession(requests.ConnectionError("url?key=secret-key"))
        with pytest.raises(FetchError, match="^request to .* failed: "
                                             "ConnectionError$") as info:
            fetch_comments("vid", api_key="secret-key", session=session)
        assert "secret-key" not in str(info.value)
        assert info.value.__cause__ is None and info.value.__suppress_context__

    @pytest.mark.parametrize("body", [b"<html>oops</html>", b"[1, 2]"])
    def test_200_body_not_a_json_object(self, body):
        with pytest.raises(FetchError, match=r"^API response body is not a "
                                             r"JSON object \(HTTP 200\)$"):
            fetch_comments("vid", api_key="k", session=FakeSession((200, body)))

    def test_error_body_not_a_json_object(self):
        with pytest.raises(FetchError,
                           match=r"^transient API failure \(HTTP 503\)$"):
            fetch_comments("vid", api_key="k",
                           session=FakeSession((503, b"[1, 2]")))

    @pytest.mark.parametrize("body,shown", [
        (b'{"error": "quota"}', "authentication failed"),
        (b'{"error": {"errors": "x"}}', "authentication failed"),
        (b'{"error": {"errors": [1]}}', "authentication failed"),
        (b'{"error": {"errors": [1, {"reason": "quotaExceeded"}]}}',
         "API quota exceeded"),
    ])
    def test_error_body_of_the_wrong_shape(self, body, shown):
        with pytest.raises(FetchError, match=f"^{shown}"):
            fetch_comments("vid", api_key="k",
                           session=FakeSession((403, body)))

    @pytest.mark.parametrize("body", [
        b'{"items": "x"}',
        b'{"items": {"0": {}}}',
        b'{"items": ["x"]}',
        b'{"items": [{"snippet": "x"}]}',
        b'{"items": [{"snippet": {"topLevelComment": 3}}]}',
        b'{"items": [{"snippet": {"topLevelComment": {"snippet": []}}}]}',
        b'{"items": [{"snippet": {"topLevelComment": {"id": 7, '
        b'"snippet": {"textOriginal": {"a": 1}}}}}]}',
        b'{"items": [{"snippet": {"topLevelComment": {"id": null, '
        b'"snippet": {"textOriginal": ["x"]}}}}]}',
    ])
    def test_200_body_of_the_wrong_shape(self, body):
        with pytest.raises(FetchError, match=r"^API response .* \(HTTP 200\)$"):
            fetch_comments("vid", api_key="k", session=FakeSession((200, body)))

    @pytest.mark.parametrize("comment,what", [
        (b'{"id": "c1", "snippet": {"textOriginal": {"a": 1}}}', "text"),
        (b'{"id": "c1", "snippet": {"textDisplay": 5}}', "text"),
        (b'{"id": 7, "snippet": {"textOriginal": "bagus"}}', "id"),
    ])
    def test_comment_field_not_a_string(self, comment, what):
        body = b'{"items": [{"snippet": {"topLevelComment": %s}}]}' % comment
        with pytest.raises(FetchError, match=f"^API response comment {what} "
                                             r"is not a string \(HTTP 200\)$"):
            fetch_comments("vid", api_key="k", session=FakeSession((200, body)))

    def test_missing_or_null_id_and_text_read_empty(self):
        body = (b'{"items": [{"snippet": {"topLevelComment": {}}}, '
                b'{"snippet": {"topLevelComment": {"id": null, "snippet": '
                b'{"textOriginal": null, "textDisplay": "lihat"}}}}]}')
        out = fetch_comments("vid", api_key="k",
                             session=FakeSession((200, body)))
        assert [(c.id, c.text) for c in out] == [("", ""), ("", "lihat")]

    @pytest.mark.parametrize("base_url,kind", [
        ("notaurl", "MissingSchema"), ("ftp2://host/x", "InvalidSchema"),
        ("http://", "InvalidURL")])
    def test_bad_base_url_is_invalid_url(self, base_url, kind):
        # requests rejects these URLs before it opens a connection
        with pytest.raises(InvalidUrlError) as info:
            fetch_comments("vid", api_key="secret-key", base_url=base_url)
        assert base_url in str(info.value) and kind in str(info.value)
        assert "secret-key" not in str(info.value)


def test_cli_import_leaves_requests_unloaded():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, sentimen.cli; print('requests' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "False"
