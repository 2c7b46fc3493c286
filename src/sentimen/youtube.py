"""Paginated comment-thread fetcher for the YouTube Data API v3 shape.

Only top-level comment id + text are kept; records come back Unlabeled and
verbatim (preprocessing is a separate stage).  Requests on one key run
strictly sequentially.  The API key is read from ``SENTIMEN_API_KEY`` when
not passed explicitly and is never logged or echoed.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from .ingest import LabeledComment

if TYPE_CHECKING:
    import requests

DEFAULT_BASE_URL = "https://www.googleapis.com/youtube/v3/commentThreads"
API_KEY_ENV = "SENTIMEN_API_KEY"
PAGE_SIZE = 100  # API maximum
TIMEOUT_S = 30.0  # per request


class FetchError(Exception):
    """A failed fetch: no key, an HTTP error status, a request that did not
    complete, or a 200 response that is not the API's shape.  The message
    says which, and never holds the key."""


class InvalidUrlError(FetchError):
    """A base URL that ``requests`` rejects before connecting."""


def _error_for(status: int, payload: dict) -> FetchError:
    error = payload.get("error")
    entries = error.get("errors") if isinstance(error, dict) else None
    if not isinstance(entries, list):
        entries = []
    reasons = {e.get("reason") for e in entries if isinstance(e, dict)}
    if status == 403 and "quotaExceeded" in reasons:
        return FetchError("API quota exceeded")
    if status in (401, 403):
        return FetchError(f"authentication failed (HTTP {status})")
    if status == 404:
        return FetchError("video not found")
    if status == 429 or status >= 500:
        return FetchError(f"transient API failure (HTTP {status})")
    return FetchError(f"API request failed (HTTP {status})")


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise FetchError(f"API response {what} is not a JSON object (HTTP 200)")
    return value


def _string(value, what: str) -> str:
    """A comment's id or text; a missing or null one reads as ``""``."""
    if value is None:
        return ""
    if not isinstance(value, str):
        raise FetchError(f"API response {what} is not a string (HTTP 200)")
    return value


def fetch_comments(video_id: str, api_key: str | None = None,
                   max_pages: int = 1, base_url: str = DEFAULT_BASE_URL,
                   session: requests.Session | None = None,
                   ) -> list[LabeledComment]:
    """Fetch up to ``max_pages`` pages of top-level comments, page order
    preserved.  Raises before any network call on a missing key.  A base URL
    that ``requests`` rejects raises ``InvalidUrlError``; any other failure
    (a rejected key, an HTTP error status, a request that did not complete,
    a 200 response whose body is not the API's shape of JSON objects or
    whose comment id or text is not a string) raises ``FetchError``.  No
    message holds the key."""
    key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
    if not key:
        raise FetchError(f"no API key: pass api_key or set {API_KEY_ENV}")
    if max_pages < 0:
        raise ValueError("max_pages must be >= 0")
    if max_pages == 0:
        return []

    # imported here: it costs every other command about 0.1 s and 12 MB
    import requests

    # requests raises these before any connection is made
    url_errors = (requests.exceptions.MissingSchema,
                  requests.exceptions.InvalidSchema,
                  requests.exceptions.InvalidURL)
    sess = session or requests.Session()
    comments: list[LabeledComment] = []
    page_token: str | None = None
    for _ in range(max_pages):
        params = {"part": "snippet", "videoId": video_id, "key": key,
                  "maxResults": PAGE_SIZE, "textFormat": "plainText"}
        if page_token:
            params["pageToken"] = page_token
        try:
            resp = sess.get(base_url, params=params, timeout=TIMEOUT_S)
        # the exceptions' text holds the request URL, key included
        except url_errors as exc:
            raise InvalidUrlError(
                f"bad base URL {base_url}: {type(exc).__name__}") from None
        except requests.RequestException as exc:
            raise FetchError(
                f"request to {base_url} failed: {type(exc).__name__}") from None
        try:
            body = resp.json()
        except ValueError:
            body = None
        if resp.status_code != 200:
            raise _error_for(resp.status_code,
                             body if isinstance(body, dict) else {})
        items = _json_object(body, "body").get("items", [])
        if not isinstance(items, list):
            raise FetchError("API response items is not a list (HTTP 200)")
        for item in items:
            outer = _json_object(_json_object(item, "item").get("snippet", {}),
                                 "item snippet")
            top = _json_object(outer.get("topLevelComment", {}),
                               "topLevelComment")
            snippet = _json_object(top.get("snippet", {}), "comment snippet")
            text = (_string(snippet.get("textOriginal"), "comment text")
                    or _string(snippet.get("textDisplay"), "comment text"))
            comments.append(LabeledComment(
                id=_string(top.get("id"), "comment id"), source=video_id,
                text=text, label=None))
        page_token = body.get("nextPageToken")
        if not page_token:
            break
    return comments
