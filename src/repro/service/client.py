"""Stdlib HTTP client for the simulation service.

``repro submit`` is a thin wrapper over :class:`ServiceClient`:
submit a plan body, follow the NDJSON event stream line by line, fetch
the tidy result.  One :class:`http.client.HTTPConnection` per request
(the server closes connections after each response).

The client speaks the versioned ``/v1`` API.
"""

from __future__ import annotations

import json
from http.client import HTTPConnection, HTTPResponse
from typing import Iterator
from urllib.parse import urlsplit

#: The current (only) API version prefix.
API_PREFIX = "/v1"

#: Content types the server uses to pick a plan parser.
PLAN_CONTENT_TYPES = {"json": "application/json", "toml": "application/toml"}


class ServiceError(RuntimeError):
    """A non-success response from the service."""

    def __init__(self, status: int, payload: dict | str):
        detail = payload.get("error", payload) if isinstance(payload, dict) \
            else payload
        super().__init__(f"service returned {status}: {detail}")
        self.status = status
        self.payload = payload


class ServiceClient:
    """Talk to one ``repro serve`` instance."""

    def __init__(self, url: str, timeout: float = 60.0):
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme not in ("", "http"):
            raise ValueError(f"unsupported service URL scheme "
                             f"{parts.scheme!r} (plain http only)")
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port or 80
        self.timeout = timeout

    def _request(self, method: str, path: str, body: bytes | None = None,
                 content_type: str | None = None) -> HTTPResponse:
        headers = {"Content-Type": content_type} if content_type else {}
        conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
        conn.request(method, path, body=body, headers=headers)
        return conn.getresponse()

    def _json(self, method: str, path: str, body: bytes | None = None,
              content_type: str | None = None,
              ok: tuple[int, ...] = (200, 202)) -> dict:
        response = self._request(method, path, body, content_type)
        raw = response.read().decode("utf-8", errors="replace")
        response.close()
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError:
            payload = raw
        if response.status not in ok:
            raise ServiceError(response.status, payload)
        return payload

    # -- the job API ---------------------------------------------------

    def health(self) -> dict:
        return self._json("GET", f"{API_PREFIX}/healthz")

    def submit(self, plan_text: str, fmt: str = "json",
               run_config: dict | None = None) -> dict:
        """POST a plan body; returns the submission payload (job id).

        ``run_config`` (``engine``/``max_steps`` — a dict or a
        :class:`~repro.experiments.config.RunConfig`) rides along as
        per-job overrides, wrapped with the plan in the ``/v1`` JSON
        submit envelope; it requires a JSON plan body.  The server's
        own backend decides where cells run.
        """
        try:
            content_type = PLAN_CONTENT_TYPES[fmt]
        except KeyError:
            raise ValueError(f"unknown plan format {fmt!r} "
                             "(use json or toml)") from None
        body = plan_text.encode()
        if run_config is not None:
            if fmt != "json":
                raise ValueError("run_config requires a JSON plan body")
            if hasattr(run_config, "to_dict"):
                run_config = run_config.to_dict()
            try:
                plan = json.loads(plan_text)
            except json.JSONDecodeError as exc:
                raise ValueError(f"invalid JSON plan: {exc}") from None
            body = json.dumps({"plan": plan,
                               "run_config": run_config}).encode()
        return self._json("POST", f"{API_PREFIX}/jobs", body, content_type)

    def status(self, job_id: str) -> dict:
        return self._json("GET", f"{API_PREFIX}/jobs/{job_id}")

    def events(self, job_id: str) -> Iterator[dict]:
        """Follow the job's NDJSON stream, yielding one dict per event.

        The stream ends with the job's terminal ``done`` / ``failed``
        event; iterating to exhaustion therefore waits for the job.
        """
        response = self._request("GET", f"{API_PREFIX}/jobs/{job_id}/events")
        if response.status != 200:
            raw = response.read().decode("utf-8", errors="replace")
            response.close()
            try:
                payload = json.loads(raw)
            except json.JSONDecodeError:
                payload = raw
            raise ServiceError(response.status, payload)
        try:
            while True:
                line = response.readline()
                if not line:
                    return
                line = line.strip()
                if line:
                    yield json.loads(line)
        finally:
            response.close()

    def result(self, job_id: str) -> dict:
        """The finished job's result payload (raises on a failed job)."""
        return self._json("GET", f"{API_PREFIX}/jobs/{job_id}/result",
                          ok=(200,))

    def run(self, plan_text: str, fmt: str = "json",
            on_event=None, run_config: dict | None = None) -> dict:
        """Submit, follow to completion, return the summary payload.

        ``on_event`` observes every raw event dict as it streams;
        ``run_config`` passes per-job overrides through
        :meth:`submit`.  Returns ``{"job", "coalesced", "state",
        "events": {source: count}, "result": <records payload> |
        None, "error": ...}``.
        """
        submission = self.submit(plan_text, fmt, run_config=run_config)
        job_id = submission["job"]
        counts: dict[str, int] = {}
        state, error = "running", None
        for event in self.events(job_id):
            if on_event is not None:
                on_event(event)
            kind = event.get("event")
            if kind == "cell":
                source = event.get("source", "unknown")
                counts[source] = counts.get(source, 0) + 1
            elif kind in ("done", "failed"):
                state = kind
                error = event.get("error")
        out = {"job": job_id, "coalesced": submission.get("coalesced",
                                                          False),
               "state": state, "events": counts, "error": error,
               "result": None}
        if state == "done":
            out["result"] = self.result(job_id)
        return out
