"""Thin stdlib client for the ``repro serve`` job API.

``repro submit/status/fetch/cancel`` are wrappers over these helpers;
everything speaks JSON over ``urllib.request`` so the client has the
same zero-dependency footprint as the server.

The client is built to ride out a service that is overloaded (429),
draining (503), or mid-restart (connection refused): :func:`request`
retries those with capped exponential backoff and *deterministic* jitter
(hash-derived, so behaviour is reproducible run-to-run), honouring any
``Retry-After`` the server sends.
"""

from __future__ import annotations

import hashlib
import json
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ServiceError
from repro.service.jobs import DEFAULT_HOST, DEFAULT_PORT

#: Default service URL the CLI talks to.
DEFAULT_URL = f"http://{DEFAULT_HOST}:{DEFAULT_PORT}"

#: Poll cadence of ``submit --wait`` / ``status --wait``.
POLL_SECONDS = 0.25

#: HTTP statuses worth retrying: overload backpressure and drain.
RETRY_STATUSES = (429, 503)

#: Default retry budget and backoff shape of :func:`request`.
DEFAULT_RETRIES = 4
BACKOFF_BASE = 0.25
BACKOFF_CAP = 8.0


def _jitter_fraction(token: str) -> float:
    """Deterministic jitter in [0, 1): same token, same fraction.

    Hash-derived instead of ``random`` so client behaviour (and every
    test that exercises it) is reproducible, while distinct tokens still
    de-synchronize a thundering herd of pollers.
    """
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") / 2**32


def _backoff_delay(
    token: str,
    attempt: int,
    retry_after: Optional[float] = None,
    base: float = BACKOFF_BASE,
    cap: float = BACKOFF_CAP,
) -> float:
    """Capped exponential backoff with deterministic jitter.

    A server-provided ``Retry-After`` wins outright — the server knows
    its queue depth better than any client-side guess.
    """
    if retry_after is not None and retry_after >= 0:
        return min(cap, retry_after)
    delay = min(cap, base * (2.0 ** attempt))
    return delay * (0.5 + _jitter_fraction(f"{token}:{attempt}"))


def _retry_after_seconds(headers: Any) -> Optional[float]:
    """Parse a ``Retry-After`` header (delta-seconds form only)."""
    raw = headers.get("Retry-After") if headers is not None else None
    if raw is None:
        return None
    try:
        return max(0.0, float(raw))
    except (TypeError, ValueError):
        return None


def request(
    url: str,
    path: str,
    method: str = "GET",
    payload: Optional[Dict[str, Any]] = None,
    timeout: float = 30.0,
    retries: int = DEFAULT_RETRIES,
    backoff_base: float = BACKOFF_BASE,
    backoff_cap: float = BACKOFF_CAP,
    sleep: Callable[[float], None] = time.sleep,
) -> Tuple[int, Any]:
    """One API call; returns ``(http_status, decoded_body)``.

    Error responses (4xx/5xx) are returned, not raised — the server puts
    the explanation in the body's ``error`` key.  Connection errors, 429
    (overload) and 503 (draining) are retried up to ``retries`` times
    with capped exponential backoff and deterministic jitter, honouring
    ``Retry-After``; once the budget is spent, the last 429/503 body is
    returned and a transport failure raises :class:`ServiceError`.
    Submissions are safe to retry: specs are content-addressed, so a
    replay dedupes against the in-flight job or hits the result cache.
    """
    full = url.rstrip("/") + path
    data = None
    headers = {"Accept": "application/json"}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    last_error: Optional[str] = None
    for attempt in range(max(0, retries) + 1):
        req = urllib.request.Request(
            full, data=data, headers=headers, method=method
        )
        retry_after: Optional[float] = None
        try:
            with urllib.request.urlopen(req, timeout=timeout) as response:
                return response.status, _decode(response)
        except urllib.error.HTTPError as error:
            if error.code not in RETRY_STATUSES or attempt >= retries:
                return error.code, _decode(error)
            retry_after = _retry_after_seconds(error.headers)
            _decode(error)  # fully drain the body before reconnecting
        except urllib.error.URLError as error:
            last_error = str(getattr(error, "reason", error))
            if attempt >= retries:
                break
        sleep(
            _backoff_delay(
                path, attempt, retry_after=retry_after,
                base=backoff_base, cap=backoff_cap,
            )
        )
    raise ServiceError(
        f"cannot reach repro service at {url!r}: {last_error}"
    ) from None


def _decode(response: Any) -> Any:
    raw = response.read().decode("utf-8")
    content_type = (response.headers.get("Content-Type") or "").lower()
    if "json" in content_type:
        try:
            return json.loads(raw)
        except ValueError:
            pass
    return raw


def _expect(status: int, body: Any, what: str) -> Dict[str, Any]:
    if status >= 400:
        message = body.get("error") if isinstance(body, dict) else str(body)
        raise ServiceError(f"{what} failed (HTTP {status}): {message}")
    if not isinstance(body, dict):
        raise ServiceError(f"{what} returned a non-JSON body")
    return body


def submit_job(url: str, spec: Dict[str, Any]) -> Dict[str, Any]:
    status, body = request(url, "/jobs", method="POST", payload=spec)
    return _expect(status, body, "job submission")


def job_status(url: str, job_id: str) -> Dict[str, Any]:
    status, body = request(url, f"/jobs/{job_id}")
    return _expect(status, body, f"status of {job_id}")


def cancel_job(url: str, job_id: str) -> Dict[str, Any]:
    status, body = request(url, f"/jobs/{job_id}/cancel", method="POST")
    return _expect(status, body, f"cancel of {job_id}")


def fetch_manifest(url: str, job_id: str) -> Dict[str, Any]:
    status, body = request(url, f"/jobs/{job_id}/manifest")
    return _expect(status, body, f"manifest of {job_id}")


def fetch_result(url: str, job_id: str) -> str:
    status, body = request(url, f"/jobs/{job_id}/result")
    if status >= 400:
        message = body.get("error") if isinstance(body, dict) else str(body)
        raise ServiceError(f"result of {job_id} failed (HTTP {status}): {message}")
    return body if isinstance(body, str) else json.dumps(body)


def fetch_matrix(url: str, job_id: str) -> Dict[str, Any]:
    status, body = request(url, f"/jobs/{job_id}/matrix")
    return _expect(status, body, f"survival matrix of {job_id}")


def fetch_events(url: str, job_id: str, cursor: int = 0) -> Dict[str, Any]:
    """One page of the job's event log, starting after ``cursor``.

    The returned ``cursor`` is the value to pass on the next poll; an
    empty ``events`` list means nothing happened since.
    """
    status, body = request(url, f"/jobs/{job_id}/events?cursor={int(cursor)}")
    return _expect(status, body, f"events of {job_id}")


def fetch_metrics_text(url: str) -> str:
    """The service's ``/metrics`` in Prometheus text format."""
    full = url.rstrip("/") + "/metrics"
    req = urllib.request.Request(full, headers={"Accept": "text/plain"})
    try:
        with urllib.request.urlopen(req, timeout=30.0) as response:
            return response.read().decode("utf-8")
    except urllib.error.URLError as error:
        raise ServiceError(
            f"cannot reach repro service at {url!r}: {error}"
        ) from None


def wait_for_job(
    url: str,
    job_id: str,
    timeout: Optional[float] = None,
    poll: float = POLL_SECONDS,
    on_progress=None,
    sleep: Callable[[float], None] = time.sleep,
) -> Dict[str, Any]:
    """Poll until the job reaches a terminal state; returns the final state.

    ``on_progress(state_json)`` fires on every poll so callers can render
    live trial counters.  Polling is jittered (deterministically, per
    job id and attempt) so many waiting clients do not beat on the
    service in lockstep, and the ``timeout`` is a real deadline: the
    final sleep is clamped to whatever time remains, and the deadline is
    re-checked against the clock rather than counting fixed sleeps.
    Raises :class:`ServiceError` once the deadline passes.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    attempt = 0
    while True:
        state = job_status(url, job_id)
        if on_progress is not None:
            on_progress(state)
        if state.get("state") in ("done", "cancelled", "failed"):
            return state
        if deadline is not None and time.monotonic() >= deadline:
            raise ServiceError(
                f"job {job_id} still {state.get('state')!r} after {timeout:g}s"
            )
        delay = poll * (0.75 + 0.5 * _jitter_fraction(f"{job_id}:{attempt}"))
        if deadline is not None:
            delay = min(delay, max(0.0, deadline - time.monotonic()))
        sleep(delay)
        attempt += 1


def format_state_line(state: Dict[str, Any]) -> str:
    """One human-readable status line for ``repro status``/``submit --wait``."""
    progress = state.get("progress") or {}
    bits = [f"{state.get('job_id')}: {state.get('state')}"]
    total = progress.get("total")
    if total:
        finished = (progress.get("cached") or 0) + (progress.get("done") or 0)
        bits.append(f"{finished}/{total} trials")
        if progress.get("cached"):
            bits.append(f"{progress['cached']} cached")
        if progress.get("failed"):
            bits.append(f"{progress['failed']} failed")
    result = state.get("result") or {}
    if result.get("pure_cache_hit"):
        bits.append("pure cache hit")
    if state.get("error"):
        first = str(state["error"]).strip().splitlines()
        if first:
            bits.append(f"error: {first[-1]}")
    return "  ".join(bits)
