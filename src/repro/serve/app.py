"""The ``repro serve`` HTTP/JSON application.

A long-running simulation service over stdlib
:class:`http.server.ThreadingHTTPServer` -- no dependencies beyond the
library itself.  Endpoints:

====================  ========================================================
``POST /v1/run``      scenario + experiment/benchmark selection -> reports
                      and structured results (the ``repro reproduce`` text,
                      byte-identical); identical in-flight requests coalesce
                      onto one underlying run.
``POST /v1/compare``  N scenarios (or one plus ``set`` overrides) -> the
                      side-by-side delta table of ``repro compare``.
``POST /v1/sweep``    sweep spec/axes -> streamed NDJSON progress events
                      (chunked transfer), terminated by a ``summary`` event.
``POST /v1/optimize`` objective + search space -> adaptive design-space
                      search; one NDJSON ``probe_completed`` event per
                      evaluated probe, terminated by a ``summary`` event
                      carrying the Pareto frontier and best probes.
``GET /v1/workloads`` the server's workload catalog.
``GET /v1/presets``   scenario and sweep presets, plus endpoint discovery.
``GET /healthz``      liveness; 503 + ``"draining"`` during shutdown drain.
``GET /metrics``      JSON counters: requests by endpoint/status, p50/p99
                      latency, coalescing, session LRU and persistent-cache
                      hit rates.
====================  ========================================================

Request bodies are JSON objects carrying the CLI's options as fields
(``scenario``, ``set``, ``experiments``, ``axes``, ...).  This module only
reads the body (:meth:`ReproRequestHandler._json_body`), rejects unknown
fields and streams; :mod:`repro.api.request` resolves and validates the
fields for the CLI and the server alike, and never reads a file a request
names.  Its :class:`~repro.api.request.RequestError` answers a structured
400 carrying the error's code; the other intentional errors answer with
the structured 4xx body of :class:`~repro.serve.errors.ServeError`;
unexpected exceptions are logged server-side and answer an opaque 500 --
never a stack trace.

:class:`ReproServer` adds the lifecycle: SIGINT/SIGTERM flip the shared
:class:`~repro.serve.state.ServerState` into draining (new work is refused
with 503, ``/healthz`` reports it), in-flight requests finish, buffered
cache entries are flushed to disk, and ``serve_forever`` returns 0.
"""

from __future__ import annotations

import json
import math
import signal
import sys
import threading
import time
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from repro.api.request import (
    FIELDS,
    RequestError,
    compare_request,
    optimize_request,
    run_request,
    sweep_request,
)
from repro.api.scenario import Scenario, preset_names
from repro.api.session import compare_scenarios
from repro.engine.serialize import to_jsonable
from repro.faults import point as fault_point
from repro.serve.errors import (
    BadRequest,
    InternalError,
    MethodNotAllowed,
    NotFound,
    PayloadTooLarge,
    RequestTimeout,
    ServeError,
)
from repro.serve.progress import optimize_events, sweep_events
from repro.serve.state import ServeConfig, ServerState

#: Upper bound on accepted request bodies (inline workloads stay small).
MAX_BODY_BYTES = 8 * 1024 * 1024

_GET_PATHS = ("/healthz", "/metrics", "/v1/workloads", "/v1/presets")
_POST_PATHS = ("/v1/run", "/v1/compare", "/v1/sweep", "/v1/optimize")


# ----------------------------------------------------------- request parsing


def _check_fields(body: Mapping, allowed: Sequence[str], endpoint: str) -> None:
    unknown = sorted(set(body) - set(allowed))
    if unknown:
        raise BadRequest(
            f"unknown field(s) {unknown} for {endpoint}; "
            f"valid fields: {sorted(allowed)}",
            code="unknown_field",
        )


# ------------------------------------------------------------------- handler


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    #: Shared serve state; assigned by :class:`ReproServer` right after bind.
    state: ServerState


class ReproRequestHandler(BaseHTTPRequestHandler):
    """Routes requests onto the shared :class:`ServerState`."""

    protocol_version = "HTTP/1.1"
    #: Headers and body go out as separate writes; with Nagle on, a
    #: keep-alive client waits for its delayed ACK (~40 ms) before the body.
    disable_nagle_algorithm = True

    @property
    def state(self) -> ServerState:
        return self.server.state  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib name
        if not self.state.config.quiet:
            sys.stderr.write(
                f"[serve] {self.address_string()} {format % args}\n"
            )

    # ------------------------------------------------------------- dispatch

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        self._started = time.perf_counter()
        path = urlsplit(self.path).path.rstrip("/") or "/"
        self._endpoint = f"{method} {path}"
        self._recorded = False
        self.state.metrics.begin()
        status = 500
        try:
            try:
                handler = self._route(method, path)
                result = handler()
                if isinstance(result, int):  # streaming handler sent itself
                    status = result
                else:
                    status, payload = result
                    self._record(status)
                    self._send_json(status, payload)
            except (ServeError, RequestError) as error:
                if isinstance(error, RequestError):
                    error = BadRequest(str(error), code=error.code)
                status = error.status
                self._record(status)
                retry_after = getattr(error, "retry_after", None)
                headers = (
                    (("Retry-After", str(max(1, math.ceil(retry_after)))),)
                    if retry_after is not None
                    else ()
                )
                self._send_json(status, error.to_dict(), headers=headers)
            except (BrokenPipeError, ConnectionResetError):
                # The client went away mid-response; nothing left to send.
                status = 499
                self.close_connection = True
            # Last-resort 500 handler: a request must never kill the server
            # thread, and the traceback is preserved on stderr.
            except Exception:  # repro: allow(RPR-H001)
                traceback.print_exc(file=sys.stderr)
                status = 500
                self._record(status)
                self._send_json(
                    status, InternalError("internal server error").to_dict()
                )
        finally:
            # Fallback for paths that never reached a pre-send record (client
            # disconnects); everything else recorded before its bytes left.
            self._record(status)

    def _record(self, status: int) -> None:
        """Record the request's metrics exactly once, *before* the response
        bytes hit the socket -- a client that has read its response is then
        guaranteed to see the request in an immediate ``/metrics`` probe."""
        if self._recorded:
            return
        self._recorded = True
        self.state.metrics.record(
            self._endpoint, status, time.perf_counter() - self._started
        )

    def _route(self, method: str, path: str):
        routes = {
            "/healthz": self._get_healthz,
            "/metrics": self._get_metrics,
            "/v1/workloads": self._get_workloads,
            "/v1/presets": self._get_presets,
            "/v1/run": self._post_run,
            "/v1/compare": self._post_compare,
            "/v1/sweep": self._post_sweep,
            "/v1/optimize": self._post_optimize,
        }
        handler = routes.get(path)
        if handler is None:
            raise NotFound(
                f"unknown endpoint {path!r}; endpoints: "
                f"{sorted(_GET_PATHS + _POST_PATHS)}"
            )
        expected = "GET" if path in _GET_PATHS else "POST"
        if method != expected:
            raise MethodNotAllowed(f"{path} only accepts {expected}")
        if expected == "POST":
            return lambda: self._admitted(path, handler)
        return handler

    # ---------------------------------------------------------------- plumbing

    def _send_json(
        self,
        status: int,
        payload: object,
        headers: Sequence[Tuple[str, str]] = (),
    ) -> None:
        # Payloads are already JSON-ready (`.to_dict()` shapes, the same the
        # CLI dumps); to_jsonable is NOT applied wholesale here because its
        # tuple-key convention escapes literal slashes in string keys, which
        # would mangle the metrics' "GET /healthz"-style endpoint keys.
        body = (json.dumps(payload) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _execute_with_timeout(self, fn):
        """Run one work callable, bounded by ``config.request_timeout``.

        The work runs in a helper thread; when the deadline passes the
        request answers 504 while the work keeps running server-side -- its
        results still land in the warm caches, so a retried request usually
        completes instantly.  Without a configured timeout the callable runs
        inline (no thread hop).
        """
        timeout = self.state.config.request_timeout
        if timeout is None:
            return fn()
        box: dict = {}
        done = threading.Event()

        def run() -> None:
            try:
                box["value"] = fn()
            # Everything is relayed verbatim to the request thread below;
            # nothing is swallowed.
            except BaseException as error:  # repro: allow(RPR-H001)
                box["error"] = error
            finally:
                done.set()

        worker = threading.Thread(target=run, name="repro-serve-work", daemon=True)
        worker.start()
        if not done.wait(timeout):
            self.state.record_timeout()
            raise RequestTimeout(
                f"request exceeded the {timeout:g}s handler timeout; the "
                "work continues server-side and a retry will reuse its "
                "cached results"
            )
        if "error" in box:
            raise box["error"]
        return box["value"]

    def _json_body(self) -> dict:
        length = self.headers.get("Content-Length")
        if length is None:
            raise BadRequest(
                "request needs a JSON body (and a Content-Length header)",
                code="missing_body",
            )
        try:
            size = int(length)
        except ValueError:
            raise BadRequest("invalid Content-Length header", code="missing_body") from None
        if size > MAX_BODY_BYTES:
            raise PayloadTooLarge(
                f"request body over the {MAX_BODY_BYTES} byte limit"
            )
        raw = self.rfile.read(size)
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise BadRequest(f"invalid JSON body: {error}", code="invalid_json") from None
        if not isinstance(data, dict):
            raise BadRequest(
                "request body must be a JSON object", code="invalid_body"
            )
        return data

    def _write_chunk(self, data: bytes) -> None:
        """One chunk of a ``Transfer-Encoding: chunked`` response."""
        self.wfile.write(f"{len(data):X}\r\n".encode("ascii"))
        if data:
            self.wfile.write(data)
        self.wfile.write(b"\r\n")
        self.wfile.flush()

    # --------------------------------------------------------------- GET views

    def _get_healthz(self) -> Tuple[int, dict]:
        state = self.state
        draining = state.draining
        payload = {
            "status": "draining" if draining else "ok",
            "uptime_seconds": time.time() - state.metrics.started,
            "active_work": state.active_work,
            "sessions": state.session_count,
        }
        return (503 if draining else 200), payload

    def _get_metrics(self) -> Tuple[int, dict]:
        return 200, self.state.metrics_snapshot()

    def _get_workloads(self) -> Tuple[int, dict]:
        catalog = self.state.base_scenario.catalog
        return 200, {
            "count": len(catalog),
            "workloads": [spec.to_dict() for spec in catalog.specs()],
        }

    def _get_presets(self) -> Tuple[int, dict]:
        # Imported here: sweep presets lazily import an experiment module.
        from repro.sweep.spec import sweep_presets

        return 200, {
            "scenarios": {
                name: Scenario.preset(name).describe() for name in preset_names()
            },
            "sweeps": {
                name: spec.describe() for name, spec in sorted(sweep_presets().items())
            },
            "endpoints": {
                "GET": sorted(_GET_PATHS),
                "POST": sorted(_POST_PATHS),
            },
        }

    # -------------------------------------------------------------- POST views

    def _admitted(self, path: str, view) -> object:
        """Read and check a POST body, then run ``view(body)`` as admitted work."""
        body = self._json_body()
        _check_fields(body, FIELDS[path.rsplit("/", 1)[-1]], f"POST {path}")
        self.state.begin_work()
        try:
            return view(body)
        finally:
            self.state.end_work()

    def _post_run(self, body: dict) -> Tuple[int, dict]:
        state = self.state
        scenario, names, benchmarks = run_request(body, state.base_scenario)
        # Identical concurrent requests (same scenario *content*, same
        # selection) coalesce onto one underlying run; the scenario name is a
        # label and deliberately not part of the identity.
        key = ("run", scenario.content_hash(), tuple(names), tuple(benchmarks or ()))

        def execute() -> dict:
            fault_point("serve.handler.execute")
            session = state.session_for(scenario)
            result = session.run(names, benchmarks=benchmarks)
            return {
                "scenario": {
                    "name": session.scenario.name,
                    "content_hash": scenario.content_hash(),
                },
                "experiments": names,
                "report": result.report(),
                "data": result.runner.to_dict(),
            }

        return self._coalesced(key, execute)

    def _post_compare(self, body: dict) -> Tuple[int, dict]:
        state = self.state
        scenarios, only, skip, benchmarks = compare_request(body, state.base_scenario)
        key = (
            "compare",
            tuple((s.name, s.content_hash()) for s in scenarios),
            tuple(only or ()),
            tuple(skip or ()),
            tuple(benchmarks or ()),
        )

        def execute() -> dict:
            fault_point("serve.handler.execute")
            sessions = [state.session_for(scenario) for scenario in scenarios]
            comparison = compare_scenarios(
                scenarios,
                only=only,
                skip=skip,
                benchmarks=benchmarks,
                sessions=sessions,
            )
            return {
                "scenarios": [
                    {"name": s.name, "content_hash": s.content_hash()}
                    for s in scenarios
                ],
                "report": comparison.format_report(),
                "data": comparison.to_dict(),
            }

        return self._coalesced(key, execute)

    def _coalesced(self, key: tuple, execute) -> Tuple[int, dict]:
        """Run ``execute`` once per identical in-flight ``key``, within the timeout."""
        payload, coalesced = self._execute_with_timeout(
            lambda: self.state.coalescer.run(key, execute)
        )
        return 200, {**payload, "coalesced": coalesced}

    def _post_sweep(self, body: dict) -> int:
        """Streamed sweep: NDJSON progress events over chunked transfer."""
        state = self.state
        request = sweep_request(body, state.base_scenario, name="serve-sweep")
        return self._stream_ndjson(sweep_events(request, disk_cache=state.disk_cache))

    def _post_optimize(self, body: dict) -> int:
        """Streamed design-space search: NDJSON probe events per evaluation."""
        state = self.state
        request = optimize_request(body, state.base_scenario, name="serve-sweep")
        return self._stream_ndjson(optimize_events(request, disk_cache=state.disk_cache))

    def _stream_ndjson(self, events) -> int:
        """Send an event iterator as chunked NDJSON; returns the status.

        The first event is pulled *before* headers go out, so validation
        errors (including ones only a first probe can surface) still answer
        as structured 4xx JSON.  Metrics are recorded immediately before the
        terminal empty chunk -- a client that has read the whole stream sees
        this request in ``/metrics`` without polling.
        """
        first = next(events)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        event = first
        try:
            try:
                while True:
                    line = json.dumps(to_jsonable(event)) + "\n"
                    self._write_chunk(line.encode("utf-8"))
                    event = next(events)
            except StopIteration:
                pass
            except (BrokenPipeError, ConnectionResetError):
                return 499
            except Exception as error:  # repro: allow(RPR-H001)
                # Headers are long gone; report the failure in-band as the
                # stream's last event (no summary event = the run failed).
                # A rejected request field (a later probe's axis values)
                # keeps its code and counts as a 400.
                if isinstance(error, RequestError):
                    status, code = 400, error.code
                else:
                    traceback.print_exc(file=sys.stderr)
                    status, code = 500, "internal"
                failure = {
                    "event": "error",
                    "code": code,
                    "message": str(error) or type(error).__name__,
                }
                self._record(status)
                self._write_chunk((json.dumps(failure) + "\n").encode("utf-8"))
                self._write_chunk(b"")
                return status
            self._record(200)
            self._write_chunk(b"")
            return 200
        finally:
            # Tear the generator down promptly: a streaming search stops its
            # worker through the generator's own finally clause.
            events.close()


# -------------------------------------------------------------------- server


class ReproServer:
    """A bound serve process: lifecycle around :class:`_HTTPServer`.

    Construction binds the socket (``port=0`` picks a free port, exposed as
    :attr:`port`).  :meth:`serve_forever` blocks until :meth:`shutdown` (or
    SIGINT/SIGTERM) initiates the drain: new work is refused with 503,
    in-flight requests finish (bounded by ``config.drain_timeout``), buffered
    cache shards are flushed, and the call returns ``0`` -- the CLI's clean
    exit code.
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config if config is not None else ServeConfig()
        self.state = ServerState(self.config)
        self._httpd = _HTTPServer(
            (self.config.host, self.config.port), ReproRequestHandler
        )
        self._httpd.state = self.state
        self.host = self._httpd.server_address[0]
        self.port = int(self._httpd.server_address[1])
        self._shutdown_started = threading.Event()
        self._stopped = threading.Event()

    @property
    def url(self) -> str:
        """Base URL of the bound listener."""
        return f"http://{self.host}:{self.port}"

    def install_signal_handlers(self) -> None:
        """Route SIGINT/SIGTERM into a graceful drain (main thread only)."""
        try:
            signal.signal(signal.SIGINT, self._on_signal)
            signal.signal(signal.SIGTERM, self._on_signal)
        except ValueError:
            # Not the main thread (in-process test/benchmark servers); the
            # owner triggers shutdown() directly instead.
            pass

    def _on_signal(self, signum, frame) -> None:  # pragma: no cover - signals
        self.shutdown()

    def shutdown(self) -> None:
        """Initiate the graceful drain (idempotent, returns immediately)."""
        if self._shutdown_started.is_set():
            return
        self._shutdown_started.set()
        self.state.start_draining()
        # The listener must close from a helper thread: shutdown() blocks
        # until the serve loop exits, and a signal handler runs *inside*
        # that loop's thread.
        threading.Thread(
            target=self._finish_shutdown, name="repro-serve-drain", daemon=True
        ).start()

    def _finish_shutdown(self) -> None:
        self.state.drain(timeout=self.config.drain_timeout)
        self._httpd.shutdown()

    def serve_forever(self, install_signals: bool = True) -> int:
        """Serve until drained shutdown; returns the process exit code (0)."""
        if install_signals:
            self.install_signal_handlers()
        try:
            self._httpd.serve_forever(poll_interval=0.1)
        finally:
            self.state.start_draining()
            self.state.drain(timeout=self.config.drain_timeout)
            self.state.flush()
            self._httpd.server_close()
            self._stopped.set()
        return 0

    def wait_stopped(self, timeout: Optional[float] = None) -> bool:
        """Block until :meth:`serve_forever` has fully exited."""
        return self._stopped.wait(timeout)
