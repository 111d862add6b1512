"""The asyncio HTTP front end of ``repro serve``.

Stdlib only (``asyncio`` streams + ``http.HTTPStatus``): requests are
parsed by hand — one request per connection, ``Connection: close`` —
which keeps the dependency-free install and is all the job API needs.
Job execution is synchronous (thread pool + process pool inside the
:class:`~repro.service.jobs.JobManager`); the event loop only parses
requests, serializes JSON and follows event buffers, bridging into the
manager's blocking long-poll via ``run_in_executor`` so a slow
simulation never stalls other connections.

The API is versioned under ``/v1``::

    GET  /v1/healthz             liveness + job counts
    POST /v1/jobs                submit a plan body (json or toml)
    GET  /v1/jobs/<id>           job status summary
    GET  /v1/jobs/<id>/events    NDJSON per-cell progress stream
    GET  /v1/jobs/<id>/result    the tidy result records

Paths outside ``/v1`` answer ``404``.

A JSON submit body may be a bare plan, or an envelope ``{"plan":
{...}, "run_config": {...}}`` whose ``run_config`` maps onto a per-job
:class:`~repro.experiments.config.RunConfig` restricted to ``engine``
and ``max_steps``.  Where cells run is the server's choice (its
injected backend), so a submission cannot pick workers.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
from http import HTTPStatus

from repro.experiments.config import SUBMIT_RUN_CONFIG_FIELDS, RunConfig
from repro.experiments.spec import ExperimentSpec, PlanError, parse_plan
from repro.service.client import API_PREFIX
from repro.service.jobs import JobManager

#: Largest accepted plan body; a plan file is small by construction.
MAX_BODY = 1 << 20

#: How long one events long-poll blocks before re-checking the
#: connection (seconds); purely a liveness knob, not a rate limit.
POLL_INTERVAL = 0.25


class ReproService:
    """Route HTTP requests into a :class:`JobManager`."""

    def __init__(self, manager: JobManager):
        self.manager = manager

    # -- connection handling ------------------------------------------

    async def handle_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            request = await self._read_request(reader, writer)
            if request is not None:
                await self._route(*request, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request/stream
        finally:
            with contextlib.suppress(ConnectionError, OSError):
                writer.close()
                await writer.wait_closed()

    async def _read_request(self, reader, writer):
        line = await reader.readline()
        if not line:
            return None
        try:
            method, target, _version = line.decode("latin-1").split()
        except ValueError:
            await _send_json(writer, HTTPStatus.BAD_REQUEST,
                             {"error": "malformed request line"})
            return None
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        if length > MAX_BODY:
            await _send_json(writer, HTTPStatus.REQUEST_ENTITY_TOO_LARGE,
                             {"error": f"plan body over {MAX_BODY} bytes"})
            return None
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target.split("?", 1)[0], headers, body

    # -- routing -------------------------------------------------------

    async def _route(self, method, path, headers, body, writer) -> None:
        if not path.startswith(API_PREFIX + "/"):
            await _send_json(writer, HTTPStatus.NOT_FOUND,
                             {"error": f"no route for {method} {path}"})
            return
        path = path[len(API_PREFIX):]
        if path == "/healthz" and method == "GET":
            await _send_json(writer, HTTPStatus.OK,
                             {"ok": True, **self.manager.jobs_summary()})
            return
        if path == "/jobs" and method == "POST":
            await self._submit(headers, body, writer)
            return
        parts = [part for part in path.split("/") if part]
        if len(parts) in (2, 3) and parts[0] == "jobs" and method == "GET":
            try:
                job = self.manager.get(parts[1])
            except KeyError:
                await _send_json(writer, HTTPStatus.NOT_FOUND,
                                 {"error": f"unknown job {parts[1]!r}"})
                return
            if len(parts) == 2:
                await _send_json(writer, HTTPStatus.OK, job.summary())
            elif parts[2] == "events":
                await self._stream_events(job, writer)
            elif parts[2] == "result":
                await self._result(job, writer)
            else:
                await _send_json(writer, HTTPStatus.NOT_FOUND,
                                 {"error": f"unknown endpoint {parts[2]!r}"})
            return
        await _send_json(writer, HTTPStatus.NOT_FOUND,
                         {"error": f"no route for {method} {path}"})

    async def _submit(self, headers, body, writer) -> None:
        fmt = "toml" if "toml" in headers.get("content-type", "") else "json"
        try:
            spec, config = _parse_submission(
                body.decode("utf-8", errors="replace"), fmt)
        except PlanError as exc:
            await _send_json(writer, HTTPStatus.BAD_REQUEST,
                             {"error": str(exc)})
            return
        # Planning touches the kernel registry; keep it off the loop.
        loop = asyncio.get_running_loop()
        try:
            job, coalesced = await loop.run_in_executor(
                None, self.manager.submit, spec, config)
        except (KeyError, ValueError, RuntimeError) as exc:
            await _send_json(writer, HTTPStatus.BAD_REQUEST,
                             {"error": str(exc)})
            return
        await _send_json(writer, HTTPStatus.ACCEPTED, {
            "job": job.id, "name": job.name, "state": job.state,
            "coalesced": coalesced,
            "events": f"{API_PREFIX}/jobs/{job.id}/events",
            "result": f"{API_PREFIX}/jobs/{job.id}/result",
        })

    async def _stream_events(self, job, writer) -> None:
        writer.write(_head(HTTPStatus.OK, "application/x-ndjson"))
        await writer.drain()
        loop = asyncio.get_running_loop()
        index = 0
        while True:
            events, finished = await loop.run_in_executor(
                None, self.manager.events_since, job.id, index,
                POLL_INTERVAL)
            if events:
                writer.write(b"".join(
                    (json.dumps(event) + "\n").encode() for event in events))
                await writer.drain()
                index += len(events)
            if finished:
                return

    async def _result(self, job, writer) -> None:
        if job.state == "done":
            await _send_json(writer, HTTPStatus.OK, job.result.to_dict())
        elif job.state == "failed":
            await _send_json(writer, HTTPStatus.INTERNAL_SERVER_ERROR,
                             job.summary())
        else:
            # Not terminal yet: report status, client may poll or
            # follow the event stream to completion first.
            await _send_json(writer, HTTPStatus.ACCEPTED, job.summary())


def _parse_submission(text: str,
                      fmt: str) -> tuple[ExperimentSpec, RunConfig | None]:
    """Parse a submit body into a spec plus optional per-job config.

    A JSON body holding a ``"plan"`` key is the envelope form:
    ``{"plan": {...}, "run_config": {...}}``.  Anything else — a bare
    JSON plan, or any TOML body — parses as a plan directly.
    """
    if fmt == "json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PlanError(f"invalid JSON plan: {exc}") from None
        if isinstance(data, dict) and "plan" in data:
            unknown = set(data) - {"plan", "run_config"}
            if unknown:
                raise PlanError("unknown submit key(s): "
                                + ", ".join(sorted(unknown)))
            spec = ExperimentSpec.from_dict(data["plan"])
            config = None
            if "run_config" in data:
                try:
                    config = RunConfig.from_dict(
                        data["run_config"], allowed=SUBMIT_RUN_CONFIG_FIELDS)
                except ValueError as exc:
                    raise PlanError(f"bad run_config: {exc}") from exc
            return spec, config
        return ExperimentSpec.from_dict(data), None
    return parse_plan(text, fmt), None


def _head(status: HTTPStatus, content_type: str,
          length: int | None = None) -> bytes:
    lines = [f"HTTP/1.1 {status.value} {status.phrase}",
             f"Content-Type: {content_type}",
             "Connection: close"]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode()


async def _send_json(writer, status: HTTPStatus, payload: dict) -> None:
    body = (json.dumps(payload) + "\n").encode()
    writer.write(_head(status, "application/json", len(body)) + body)
    await writer.drain()


class ServiceHandle:
    """A running server: its bound port, and a stop switch.

    The server owns a dedicated thread with its own event loop, so the
    same handle serves the blocking CLI (``repro serve`` starts it and
    joins) and tests (start, talk over HTTP, stop).  Stopping does not
    close the :class:`JobManager` — the caller owns that.
    """

    def __init__(self, manager: JobManager, host: str, port: int):
        self.manager = manager
        self.host = host
        self.port = port  # rewritten with the bound port once serving
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started = threading.Event()
        self._stopped = threading.Event()
        self._failure: BaseException | None = None
        self._thread = threading.Thread(target=self._run,
                                        name="repro-serve", daemon=True)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()
            self._failure = exc
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        service = ReproService(self.manager)
        server = await asyncio.start_server(service.handle_connection,
                                            self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        stop = asyncio.Event()
        self._stop_event = stop
        self._started.set()
        async with server:
            await stop.wait()

    def start(self) -> "ServiceHandle":
        self._thread.start()
        self._started.wait()
        if self._failure is not None:
            raise self._failure
        return self

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def join(self) -> None:
        """Block until the server stops (the CLI foreground mode)."""
        self._thread.join()

    def stop(self) -> None:
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=10)
        self._stopped.set()


def start_in_thread(manager: JobManager, host: str = "127.0.0.1",
                    port: int = 0) -> ServiceHandle:
    """Start serving ``manager`` on a background thread.

    ``port=0`` binds an ephemeral port; read it back from
    ``handle.port`` / ``handle.url``.
    """
    return ServiceHandle(manager, host, port).start()
