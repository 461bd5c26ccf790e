"""Shared warm context of the serve process.

One :class:`ServerState` is shared by every handler thread of a
:class:`~repro.serve.app.ReproServer`:

* an LRU of the resolved ``/v1/run`` bodies, keyed by their bytes, so a
  repeated body reuses one :class:`~repro.api.scenario.Scenario` (its
  content hash computed once);
* a bounded LRU of :class:`WarmSession` entries, keyed by
  :meth:`~repro.api.scenario.Scenario.content_hash` -- every request for
  the same scenario (regardless of its name) lands on the same memoizing
  :class:`~repro.engine.context.SimulationContext`, whose ``RLock`` makes
  concurrent simulation lookups safe, and each entry keeps the
  ``/v1/run`` replies of its session asked for more than once, so a
  repeated run writes stored bytes instead of re-encoding its result;
* the process-wide persistent caches
  (:class:`~repro.engine.diskcache.SimulationCache` /
  :class:`~repro.engine.diskcache.TrainedModelCache`) threaded into every
  session's context, so warm state survives restarts and is shared across
  scenarios;
* the request :class:`~repro.serve.coalesce.Coalescer`;
* request metrics (per-endpoint/status counters, p50/p99 latency); and
* the drain lifecycle: once :meth:`ServerState.start_draining` is called no
  new work is admitted (:class:`~repro.serve.errors.Draining`), and
  :meth:`ServerState.drain` blocks until every in-flight work request has
  finished.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Dict, Hashable, Mapping, Optional

from repro.api.request import RunRequest, run_request
from repro.api.scenario import Scenario
from repro.api.session import Session
from repro.engine.context import SimulationContext
from repro.serve.coalesce import Coalescer
from repro.serve.errors import Draining, Overloaded

#: Default bound of the warm-session LRU.
DEFAULT_MAX_SESSIONS = 8
#: Latency samples kept per endpoint (a bounded sliding window).
LATENCY_WINDOW = 4096


@dataclass
class ServeConfig:
    """Configuration of one serve process.

    Attributes:
        host: bind address (loopback by default; bind ``0.0.0.0`` explicitly
            to serve other machines).
        port: TCP port (``0`` picks a free one -- used by tests/benchmarks).
        scenario: base scenario requests default to when they send none.
        cache_dir: persistent cache root (``None``: ``$REPRO_CACHE_DIR`` or
            ``~/.cache/repro``).
        use_cache: disable both persistent caches with ``False``.
        max_sessions: warm sessions kept in the LRU, with their encoded
            ``/v1/run`` replies; also the number of resolved ``/v1/run``
            bodies kept.
        drain_timeout: seconds shutdown waits for in-flight work before
            closing anyway.
        quiet: suppress per-request access logging.
        max_inflight: admit at most this many concurrent work (POST)
            requests; the rest get a 503 + ``Retry-After`` instead of
            queueing unboundedly (``None``: unlimited, the old behavior).
        request_timeout: seconds a run/compare handler may take before the
            request is answered with a 504 (``None``: no timeout).
        retry_after: ``Retry-After`` seconds suggested on backpressure 503s.
    """

    host: str = "127.0.0.1"
    port: int = 8752
    scenario: Optional[Scenario] = None
    cache_dir: Optional[str] = None
    use_cache: bool = True
    max_sessions: int = DEFAULT_MAX_SESSIONS
    drain_timeout: float = 30.0
    quiet: bool = False
    max_inflight: Optional[int] = None
    request_timeout: Optional[float] = None
    retry_after: float = 1.0

    def __post_init__(self) -> None:
        if self.scenario is None:
            self.scenario = Scenario.default()
        if int(self.max_sessions) < 1:
            raise ValueError("max_sessions must be >= 1")
        self.max_sessions = int(self.max_sessions)
        if self.max_inflight is not None:
            if int(self.max_inflight) < 1:
                raise ValueError("max_inflight must be >= 1")
            self.max_inflight = int(self.max_inflight)
        if self.request_timeout is not None and float(self.request_timeout) <= 0:
            raise ValueError("request_timeout must be > 0")


def _percentile(samples: list, q: float) -> float:
    """Nearest-rank percentile of a non-empty sorted sample list."""
    index = min(len(samples) - 1, max(0, round(q * (len(samples) - 1))))
    return samples[int(index)]


class Metrics:
    """Thread-safe request counters and latency windows."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started = time.time()
        #: ``"POST /v1/run" -> {"200": count, ...}``
        self._requests: Dict[str, Dict[str, int]] = {}
        self._latency: Dict[str, Deque[float]] = {}
        self.in_flight = 0

    def begin(self) -> None:
        with self._lock:
            self.in_flight += 1

    def record(self, endpoint: str, status: int, seconds: float) -> None:
        with self._lock:
            self.in_flight = max(0, self.in_flight - 1)
            by_status = self._requests.setdefault(endpoint, {})
            key = str(int(status))
            by_status[key] = by_status.get(key, 0) + 1
            window = self._latency.setdefault(endpoint, deque(maxlen=LATENCY_WINDOW))
            window.append(float(seconds))

    def snapshot(self) -> dict:
        """Counters plus p50/p99 latency per endpoint and overall."""
        with self._lock:
            requests = {
                endpoint: dict(by_status)
                for endpoint, by_status in self._requests.items()
            }
            windows = {
                endpoint: list(window) for endpoint, window in self._latency.items()
            }
            in_flight = self.in_flight
        latency: Dict[str, dict] = {}
        combined: list = []
        for endpoint, samples in windows.items():
            combined.extend(samples)
            samples.sort()
            latency[endpoint] = {
                "count": len(samples),
                "p50_seconds": _percentile(samples, 0.50),
                "p99_seconds": _percentile(samples, 0.99),
            }
        if combined:
            combined.sort()
            latency["overall"] = {
                "count": len(combined),
                "p50_seconds": _percentile(combined, 0.50),
                "p99_seconds": _percentile(combined, 0.99),
            }
        return {
            "uptime_seconds": time.time() - self.started,
            "requests_in_flight": in_flight,
            "requests": requests,
            "latency_seconds": latency,
        }


class WarmSession:
    """One LRU entry: a scenario's warm :class:`Session` and its encoded replies.

    ``replies`` maps a ``/v1/run`` reply key (the run key plus the
    ``coalesced`` flag) to the reply body, stored from the reply's first
    repeat on; ``None`` marks a reply answered once.  A reply
    depends only on the session (its scenario name included) and the
    session's memoized run, so the bytes stay valid for as long as the
    session does, and are dropped with it: when the LRU evicts the entry,
    or rebuilds it under another scenario name.  Each stored reply pairs
    with one memoized run the session already holds, so ``max_sessions``
    bounds both.
    """

    __slots__ = ("session", "replies")

    def __init__(self, session: Session) -> None:
        self.session = session
        self.replies: Dict[Hashable, Optional[bytes]] = {}


class ServerState:
    """Everything the handler threads share (see module docstring)."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config if config is not None else ServeConfig()
        self.base_scenario: Scenario = self.config.scenario  # type: ignore[assignment]
        self.disk_cache = None
        self.model_cache = None
        if self.config.use_cache:
            # Imported here: only cache-enabled servers need the disk layer.
            from repro.engine.diskcache import SimulationCache, TrainedModelCache

            self.disk_cache = SimulationCache(self.config.cache_dir)
            self.model_cache = TrainedModelCache(self.config.cache_dir)
        self.metrics = Metrics()
        self.coalescer = Coalescer()
        self._lock = threading.RLock()
        self._sessions: "OrderedDict[str, WarmSession]" = OrderedDict()
        self._runs: "OrderedDict[bytes, RunRequest]" = OrderedDict()
        self.sessions_evicted = 0
        self._draining = threading.Event()
        self._work_done = threading.Condition()
        self._active_work = 0
        #: Degradation counters (mutated under ``_work_done``).
        self.requests_rejected_overload = 0
        self.requests_timed_out = 0

    # ---------------------------------------------------------------- sessions

    def resolve_run(self, raw: bytes, fields: Mapping) -> RunRequest:
        """:func:`~repro.api.request.run_request` of one ``/v1/run`` body.

        ``fields`` is the parsed body ``raw``.  Memoized by ``raw`` in an LRU
        of ``max_sessions`` entries: a repeated body reuses one resolved
        scenario, whose content hash is already memoized and which
        :meth:`warm_session` finds to be the very object its session holds.
        Only resolutions are kept: a rejected body raises every time.
        """
        with self._lock:
            resolved = self._runs.get(raw)
            if resolved is not None:
                self._runs.move_to_end(raw)
                return resolved
        resolved = run_request(fields, self.base_scenario)
        with self._lock:
            # A racing thread may have stored the same body first: keep its
            # scenario, the one its session may already hold.
            resolved = self._runs.setdefault(raw, resolved)
            while len(self._runs) > self.config.max_sessions:
                self._runs.popitem(last=False)
        return resolved

    def warm_session(self, scenario: Scenario) -> WarmSession:
        """The LRU entry of one scenario (created and LRU-tracked on demand).

        Sessions are keyed by content hash, so two scenarios differing only
        in name share one warm context.  Evicting the least-recently-used
        entry drops only in-memory memos and encoded replies; everything it
        simulated stays in the persistent caches.
        """
        key = scenario.content_hash()
        with self._lock:
            warm = self._sessions.get(key)
            if warm is not None:
                if warm.session.scenario == scenario:
                    self._sessions.move_to_end(key)
                    return warm
                # Same content, different name: the name is only a label,
                # but downstream consumers (compare legends, run replies)
                # must see the requested one, so rebuild under it.  The
                # persistent caches keep the replacement warm.
                del self._sessions[key]
            context = SimulationContext(
                scenario=scenario,
                disk_cache=self.disk_cache,
                model_cache=self.model_cache,
            )
            warm = WarmSession(Session(scenario, context=context))
            self._sessions[key] = warm
            while len(self._sessions) > self.config.max_sessions:
                self._sessions.popitem(last=False)
                self.sessions_evicted += 1
            return warm

    def session_for(self, scenario: Scenario) -> Session:
        """The warm session of one scenario (see :meth:`warm_session`)."""
        return self.warm_session(scenario).session

    @property
    def session_count(self) -> int:
        with self._lock:
            return len(self._sessions)

    @property
    def simulations_executed(self) -> int:
        """Simulations actually executed across every warm session."""
        with self._lock:
            entries = list(self._sessions.values())
        return sum(warm.session.context.simulations_executed for warm in entries)

    # ------------------------------------------------------------------- drain

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def start_draining(self) -> None:
        """Stop admitting work; already-running requests keep going."""
        self._draining.set()
        with self._work_done:
            self._work_done.notify_all()

    def begin_work(self) -> None:
        """Admit one work (POST) request.

        Raises :class:`Draining` during shutdown and :class:`Overloaded`
        (503 + ``Retry-After``) when ``max_inflight`` concurrent work
        requests are already running -- bounded admission instead of an
        unbounded thread pile-up.
        """
        with self._work_done:
            if self._draining.is_set():
                raise Draining()
            limit = self.config.max_inflight
            if limit is not None and self._active_work >= limit:
                self.requests_rejected_overload += 1
                raise Overloaded(
                    f"server is at its in-flight work limit ({limit}); "
                    f"retry shortly",
                    retry_after=self.config.retry_after,
                )
            self._active_work += 1

    def record_timeout(self) -> None:
        """Count one request answered with a 504 handler timeout."""
        with self._work_done:
            self.requests_timed_out += 1

    def end_work(self) -> None:
        with self._work_done:
            self._active_work = max(0, self._active_work - 1)
            self._work_done.notify_all()

    @property
    def active_work(self) -> int:
        with self._work_done:
            return self._active_work

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every in-flight work request finished (or timeout)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._work_done:
            while self._active_work > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._work_done.wait(remaining)
            return True

    def flush(self) -> None:
        """Publish buffered simulation results to disk."""
        if self.disk_cache is not None:
            self.disk_cache.flush()

    # ----------------------------------------------------------------- metrics

    def metrics_snapshot(self) -> dict:
        """The ``/metrics`` payload: requests, latency, coalescing, caches."""
        snapshot = self.metrics.snapshot()
        snapshot["draining"] = self.draining
        snapshot["runs"] = {
            "executed": self.coalescer.executed,
            "coalesced": self.coalescer.coalesced,
            "in_flight": self.coalescer.in_flight,
            "waiting": self.coalescer.waiting,
        }
        snapshot["sessions"] = {
            "active": self.session_count,
            "capacity": self.config.max_sessions,
            "evicted": self.sessions_evicted,
        }
        snapshot["simulations_executed"] = self.simulations_executed
        snapshot["disk_cache"] = _cache_stats(self.disk_cache)
        snapshot["model_cache"] = _cache_stats(self.model_cache)
        with self._work_done:
            snapshot["degradation"] = {
                "requests_rejected_overload": self.requests_rejected_overload,
                "requests_timed_out": self.requests_timed_out,
            }
        return snapshot


def _cache_stats(cache) -> dict:
    """Hit/miss and degradation counters of one persistent cache."""
    if cache is None:
        return {
            "enabled": False,
            "hits": 0,
            "misses": 0,
            "hit_rate": 0.0,
            "corrupt_artifacts": 0,
            "write_errors": 0,
            "read_only": False,
        }
    stats = cache.stats
    return {
        "enabled": True,
        "hits": stats.hits,
        "misses": stats.misses,
        "hit_rate": stats.hit_rate,
        "corrupt_artifacts": stats.corrupt_artifacts,
        "write_errors": stats.write_errors,
        "read_only": bool(getattr(cache, "read_only", False)),
    }
