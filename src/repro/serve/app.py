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

Request bodies are JSON objects; scenarios arrive as preset names or inline
scenario objects (the server never reads client-named files), with
``"set"`` carrying the CLI's dotted ``KEY=VALUE`` overrides.  Intentional
errors answer with the structured 4xx body of
:class:`~repro.serve.errors.ServeError`; unexpected exceptions are logged
server-side and answer an opaque 500 -- never a stack trace.

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
from typing import List, Mapping, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from repro.api.scenario import Scenario, preset_names
from repro.api.session import compare_scenarios
from repro.engine.runner import select_experiments
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


def _string_list(body: Mapping, field: str) -> Optional[List[str]]:
    """An optional list-of-strings field (``None`` when absent/empty)."""
    value = body.get(field)
    if value is None:
        return None
    if isinstance(value, str) or not isinstance(value, (list, tuple)):
        raise BadRequest(
            f"field {field!r} must be a list of strings", code="invalid_field"
        )
    items = [str(item) for item in value]
    return items or None


def scenario_from_request(state: ServerState, body: Mapping) -> Scenario:
    """Resolve a request's ``scenario`` / ``workloads`` / ``set`` fields.

    ``scenario`` is a preset name or an inline scenario object; ``workloads``
    must be inline spec objects (file paths are rejected -- the server never
    reads files a client names); ``set`` applies dotted CLI-style overrides.
    The server's base scenario is the default.
    """
    raw = body.get("scenario")
    if raw is None:
        scenario = state.base_scenario
    elif isinstance(raw, str):
        try:
            scenario = Scenario.preset(raw)
        except ValueError as error:
            raise BadRequest(str(error), code="unknown_scenario") from None
    elif isinstance(raw, Mapping):
        try:
            scenario = Scenario.from_dict(raw)
        except ValueError as error:
            raise BadRequest(str(error), code="invalid_scenario") from None
    else:
        raise BadRequest(
            "field 'scenario' must be a preset name or a scenario object",
            code="invalid_scenario",
        )
    workloads = body.get("workloads")
    if workloads is not None:
        if not isinstance(workloads, (list, tuple)) or any(
            not isinstance(entry, Mapping) for entry in workloads
        ):
            raise BadRequest(
                "field 'workloads' must be a list of inline workload spec "
                "objects (the server does not read workload files)",
                code="invalid_workloads",
            )
        try:
            scenario = scenario.with_workloads(workloads)
        except ValueError as error:
            raise BadRequest(str(error), code="invalid_workloads") from None
    overrides = _string_list(body, "set")
    if overrides:
        try:
            scenario = scenario.with_set(overrides)
        except ValueError as error:
            raise BadRequest(str(error), code="invalid_override") from None
    return scenario


def _validated_benchmarks(
    benchmarks: Optional[List[str]], scenario: Scenario
) -> Optional[List[str]]:
    if not benchmarks:
        return None
    catalog = scenario.catalog
    unknown = [name for name in benchmarks if name not in catalog]
    if unknown:
        raise BadRequest(
            f"unknown benchmark(s) {unknown}; choose from {catalog.names()}",
            code="unknown_benchmark",
        )
    return [catalog.canonical_name(name) for name in benchmarks]


def _selected_experiments(
    only: Optional[List[str]], skip: Optional[List[str]]
) -> List[str]:
    try:
        names = select_experiments(only=only, skip=skip)
    except ValueError as error:
        raise BadRequest(str(error), code="unknown_experiment") from None
    if not names:
        raise BadRequest(
            "the experiment selection matches no experiments",
            code="empty_selection",
        )
    return names


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
            except ServeError as error:
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

    def _post_run(self) -> Tuple[int, dict]:
        state = self.state
        body = self._json_body()
        _check_fields(
            body,
            ("scenario", "set", "workloads", "experiments", "skip", "benchmarks"),
            "POST /v1/run",
        )
        state.begin_work()
        try:
            scenario = scenario_from_request(state, body)
            names = _selected_experiments(
                _string_list(body, "experiments"), _string_list(body, "skip")
            )
            benchmarks = _validated_benchmarks(
                _string_list(body, "benchmarks"), scenario
            )
            # Identical concurrent requests (same scenario *content*, same
            # selection) coalesce onto one underlying run; the scenario name
            # is a label and deliberately not part of the identity.
            key = (
                "run",
                scenario.content_hash(),
                tuple(names),
                tuple(benchmarks or ()),
            )

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

            payload, coalesced = self._execute_with_timeout(
                lambda: state.coalescer.run(key, execute)
            )
            return 200, {**payload, "coalesced": coalesced}
        finally:
            state.end_work()

    def _post_compare(self) -> Tuple[int, dict]:
        state = self.state
        body = self._json_body()
        _check_fields(
            body,
            ("scenarios", "set", "workloads", "experiments", "skip", "benchmarks"),
            "POST /v1/compare",
        )
        state.begin_work()
        try:
            raw_scenarios = body.get("scenarios")
            if raw_scenarios is None:
                bases = [state.base_scenario]
            elif isinstance(raw_scenarios, (list, tuple)) and raw_scenarios:
                bases = [
                    scenario_from_request(
                        state, {"scenario": raw, "workloads": body.get("workloads")}
                    )
                    for raw in raw_scenarios
                ]
            else:
                raise BadRequest(
                    "field 'scenarios' must be a non-empty list of preset "
                    "names or scenario objects",
                    code="invalid_scenario",
                )
            overrides = _string_list(body, "set")
            if overrides:
                try:
                    variants = [base.with_set(overrides) for base in bases]
                except ValueError as error:
                    raise BadRequest(str(error), code="invalid_override") from None
                # One base + overrides compares base vs. variant (the CLI
                # convention); several bases compare the overridden variants.
                scenarios = [bases[0]] + variants if len(bases) == 1 else variants
            else:
                scenarios = bases
            if len(scenarios) < 2:
                raise BadRequest(
                    "compare needs at least two scenarios: list several in "
                    "'scenarios', or add 'set' overrides to compare one "
                    "against its variant",
                    code="invalid_scenario",
                )
            only = _string_list(body, "experiments")
            skip = _string_list(body, "skip")
            if only or skip:
                _selected_experiments(only, skip)
            benchmarks = _string_list(body, "benchmarks")
            if benchmarks:
                canonical = [
                    _validated_benchmarks(benchmarks, scenario)
                    for scenario in scenarios
                ]
                benchmarks = canonical[0]
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

            payload, coalesced = self._execute_with_timeout(
                lambda: state.coalescer.run(key, execute)
            )
            return 200, {**payload, "coalesced": coalesced}
        finally:
            state.end_work()

    def _post_sweep(self) -> int:
        """Streamed sweep: NDJSON progress events over chunked transfer."""
        state = self.state
        body = self._json_body()
        _check_fields(
            body,
            ("spec", "axes", "scenario", "set", "workloads", "benchmarks"),
            "POST /v1/sweep",
        )
        state.begin_work()
        try:
            base = scenario_from_request(state, body)
            spec = self._sweep_spec(body)
            benchmarks = _string_list(body, "benchmarks")
            events = sweep_events(
                spec, base, benchmarks=benchmarks, disk_cache=state.disk_cache
            )
            return self._stream_ndjson(events)
        finally:
            state.end_work()

    def _post_optimize(self) -> int:
        """Streamed design-space search: NDJSON probe events per evaluation."""
        state = self.state
        body = self._json_body()
        _check_fields(
            body,
            (
                "objective",
                "objectives",
                "constraints",
                "spec",
                "axes",
                "budget",
                "driver",
                "refine",
                "scenario",
                "set",
                "workloads",
                "benchmarks",
            ),
            "POST /v1/optimize",
        )
        state.begin_work()
        try:
            base = scenario_from_request(state, body)
            spec = self._sweep_spec(body)
            objective = self._objective_spec(body)
            benchmarks = _string_list(body, "benchmarks")
            budget = body.get("budget")
            if budget is not None and (
                isinstance(budget, bool) or not isinstance(budget, int) or budget < 1
            ):
                raise BadRequest(
                    "field 'budget' must be a positive integer",
                    code="invalid_budget",
                )
            driver = body.get("driver", "auto")
            if not isinstance(driver, str):
                raise BadRequest(
                    "field 'driver' must be a string", code="invalid_driver"
                )
            refine = body.get("refine", 1)
            if isinstance(refine, bool) or not isinstance(refine, int) or refine < 0:
                raise BadRequest(
                    "field 'refine' must be a non-negative integer",
                    code="invalid_refine",
                )
            events = optimize_events(
                objective,
                spec,
                base,
                benchmarks=benchmarks,
                budget=budget,
                driver=driver,
                refine=refine,
                disk_cache=state.disk_cache,
            )
            return self._stream_ndjson(events)
        finally:
            state.end_work()

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
                traceback.print_exc(file=sys.stderr)
                failure = {
                    "event": "error",
                    "code": "internal",
                    "message": str(error) or type(error).__name__,
                }
                self._record(500)
                self._write_chunk((json.dumps(failure) + "\n").encode("utf-8"))
                self._write_chunk(b"")
                return 500
            self._record(200)
            self._write_chunk(b"")
            return 200
        finally:
            # Tear the generator down promptly: a streaming search stops its
            # worker through the generator's own finally clause.
            events.close()

    @staticmethod
    def _objective_spec(body: Mapping):
        """The request's objective + constraints as an ``ObjectiveSpec``."""
        raw = body.get("objectives", body.get("objective"))
        if raw is None:
            raise BadRequest(
                "an optimization needs 'objectives' (or 'objective'): a "
                "dotted metric path like 'fig17.average_speedup', optionally "
                "with ':max'/':min', an objective object, or a list of them",
                code="missing_objective",
            )
        constraints = body.get("constraints")
        if constraints is not None:
            if isinstance(constraints, (str, Mapping)):
                constraints = [constraints]
            elif not isinstance(constraints, (list, tuple)):
                raise BadRequest(
                    "field 'constraints' must be a constraint (string or "
                    "object) or a list of them",
                    code="invalid_constraint",
                )
        # Validate eagerly so malformed objectives answer 4xx here rather
        # than surfacing from the driver's constructor.
        from repro.optimize.objective import ObjectiveSpec

        try:
            return ObjectiveSpec.coerce(raw, constraints=constraints)
        except (TypeError, ValueError) as error:
            raise BadRequest(str(error), code="invalid_objective") from None

    @staticmethod
    def _sweep_spec(body: Mapping):
        from repro.sweep.spec import SweepAxis, SweepSpec, sweep_preset_names, sweep_presets

        raw = body.get("spec")
        axes = body.get("axes")
        spec = None
        if isinstance(raw, str):
            presets = sweep_presets()
            if raw not in presets:
                raise BadRequest(
                    f"unknown sweep preset {raw!r}; presets: {sweep_preset_names()}",
                    code="unknown_sweep",
                )
            spec = presets[raw]
        elif isinstance(raw, Mapping):
            try:
                spec = SweepSpec.from_dict(raw)
            except ValueError as error:
                raise BadRequest(str(error), code="invalid_spec") from None
        elif raw is not None:
            raise BadRequest(
                "field 'spec' must be a sweep preset name or a sweep spec object",
                code="invalid_spec",
            )
        if axes is not None:
            if not isinstance(axes, Mapping) or not axes:
                raise BadRequest(
                    "field 'axes' must be a non-empty {override-key: [values]} "
                    "object",
                    code="invalid_axis",
                )
            try:
                extra = tuple(
                    SweepAxis(str(key), tuple(values)) for key, values in axes.items()
                )
                if spec is None:
                    spec = SweepSpec(name="serve-sweep", axes=extra)
                else:
                    import dataclasses

                    spec = dataclasses.replace(spec, axes=spec.axes + extra)
            except (TypeError, ValueError) as error:
                raise BadRequest(str(error), code="invalid_axis") from None
        if spec is None:
            raise BadRequest(
                "a sweep needs a 'spec' (preset name or object) or 'axes'",
                code="missing_spec",
            )
        return spec


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
