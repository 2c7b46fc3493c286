"""Paginated comment-thread fetcher for the YouTube Data API v3 shape.

Only top-level comment id + text are kept; records come back Unlabeled and
verbatim (preprocessing is a separate stage).  Requests on one key run
strictly sequentially.  The API key is read from ``SENTIMEN_API_KEY`` when
not passed explicitly and is never logged or echoed.
"""

from __future__ import annotations

import os

import requests

from .ingest import LabeledComment

DEFAULT_BASE_URL = "https://www.googleapis.com/youtube/v3/commentThreads"
API_KEY_ENV = "SENTIMEN_API_KEY"
PAGE_SIZE = 100  # API maximum


class FetchError(Exception):
    retryable = False


class AuthError(FetchError):
    """Bad or missing API key (HTTP 401/403)."""


class QuotaExceededError(FetchError):
    """Daily quota exhausted (403 with reason quotaExceeded)."""


class VideoNotFoundError(FetchError):
    """Unknown video id (HTTP 404)."""


class TransientFetchError(FetchError):
    """Server-side or rate-limit failure worth retrying (429/5xx)."""
    retryable = True


def _error_for(status: int, payload: dict) -> FetchError:
    reasons = {e.get("reason") for e in
               payload.get("error", {}).get("errors", [])}
    if status == 403 and "quotaExceeded" in reasons:
        return QuotaExceededError("API quota exceeded")
    if status in (401, 403):
        return AuthError(f"authentication failed (HTTP {status})")
    if status == 404:
        return VideoNotFoundError("video not found")
    if status == 429 or status >= 500:
        return TransientFetchError(f"transient API failure (HTTP {status})")
    return FetchError(f"API request failed (HTTP {status})")


def fetch_comments(video_id: str, api_key: str | None = None,
                   max_pages: int = 1, base_url: str = DEFAULT_BASE_URL,
                   page_size: int = PAGE_SIZE, timeout: float = 30.0,
                   session: requests.Session | None = None,
                   ) -> list[LabeledComment]:
    """Fetch up to ``max_pages`` pages of top-level comments, page order
    preserved.  Raises before any network call on a missing key.  A failed
    request raises ``TransientFetchError``, and a 200 response whose body is
    not a JSON object ``FetchError``; neither message holds the key."""
    key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
    if not key:
        raise AuthError(f"no API key: pass api_key or set {API_KEY_ENV}")
    if max_pages < 0:
        raise ValueError("max_pages must be >= 0")
    if max_pages == 0:
        return []

    sess = session or requests.Session()
    comments: list[LabeledComment] = []
    page_token: str | None = None
    for _ in range(max_pages):
        params = {"part": "snippet", "videoId": video_id, "key": key,
                  "maxResults": page_size, "textFormat": "plainText"}
        if page_token:
            params["pageToken"] = page_token
        try:
            resp = sess.get(base_url, params=params, timeout=timeout)
        except requests.RequestException as exc:
            # the exception's text holds the request URL, key included
            raise TransientFetchError(
                f"request to {base_url} failed: {type(exc).__name__}") from None
        try:
            body = resp.json()
        except ValueError:
            body = None
        if resp.status_code != 200:
            raise _error_for(resp.status_code,
                             body if isinstance(body, dict) else {})
        if not isinstance(body, dict):
            raise FetchError("API response is not a JSON object (HTTP 200)")
        for item in body.get("items", []):
            top = item.get("snippet", {}).get("topLevelComment", {})
            snippet = top.get("snippet", {})
            text = snippet.get("textOriginal") or snippet.get("textDisplay") or ""
            comments.append(LabeledComment(
                id=top.get("id", ""), source=video_id, text=text, label=None))
        page_token = body.get("nextPageToken")
        if not page_token:
            break
    return comments
