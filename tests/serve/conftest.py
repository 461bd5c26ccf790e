"""Shared fixtures for the ``repro serve`` test suite.

The servers under test run in-process (a daemon thread around
:meth:`~repro.serve.app.ReproServer.serve_forever`) on an OS-assigned port,
and are driven over real sockets with :mod:`urllib.request` -- the tests
exercise the exact byte stream a curl client would see, including chunked
NDJSON sweep streams.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import ReproServer, ServeConfig


class ServeClient:
    """A minimal JSON client for one bound test server."""

    def __init__(self, url: str):
        self.url = url

    def raw(self, method: str, path: str, body=None, timeout: float = 120.0):
        """(status, body bytes exactly as sent) of one request; 4xx/5xx do not raise."""
        data = None
        headers = {}
        if body is not None:
            data = body if isinstance(body, bytes) else json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as error:
            return error.code, error.read()

    def request(self, method: str, path: str, body=None, timeout: float = 120.0):
        """(status, parsed JSON body) of one request; 4xx/5xx do not raise."""
        status, raw = self.raw(method, path, body=body, timeout=timeout)
        text = raw.decode()
        try:
            return status, json.loads(text)
        except ValueError:
            if status < 400:
                raise
            return status, text

    def get(self, path: str, timeout: float = 120.0):
        return self.request("GET", path, timeout=timeout)

    def post(self, path: str, body=None, timeout: float = 120.0):
        return self.request("POST", path, body=body, timeout=timeout)

    def post_raw(self, path: str, body=None, timeout: float = 120.0):
        """(status, reply bytes) of one POST, unparsed, to compare byte for byte."""
        return self.raw("POST", path, body=body, timeout=timeout)

    def stream(self, path: str, body, timeout: float = 300.0):
        """(status, headers, parsed NDJSON events) of one streaming POST."""
        data = json.dumps(body).encode()
        request = urllib.request.Request(
            self.url + path,
            data=data,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=timeout) as response:
            status = response.status
            headers = dict(response.headers)
            text = response.read().decode()
        events = [json.loads(line) for line in text.splitlines() if line.strip()]
        return status, headers, events

    def wait_metrics(self, predicate, timeout: float = 20.0) -> dict:
        """Poll ``/metrics`` until ``predicate(snapshot)`` holds (or fail)."""
        deadline = time.monotonic() + timeout
        snapshot = {}
        while time.monotonic() < deadline:
            status, snapshot = self.get("/metrics")
            assert status == 200
            if predicate(snapshot):
                return snapshot
            time.sleep(0.02)
        raise AssertionError(f"metrics never satisfied predicate: {snapshot}")


@pytest.fixture
def serve_factory():
    """Start in-process servers on free ports; guarantees shutdown."""
    running = []

    def factory(**overrides):
        overrides.setdefault("port", 0)
        overrides.setdefault("quiet", True)
        server = ReproServer(ServeConfig(**overrides))
        exit_code = {}

        def target():
            exit_code["value"] = server.serve_forever()

        thread = threading.Thread(target=target, name="serve-test", daemon=True)
        thread.start()
        # Attached for tests asserting the clean-exit contract.
        server.test_exit_code = exit_code
        running.append(server)
        return server

    yield factory
    for server in running:
        server.shutdown()
        assert server.wait_stopped(timeout=30)


@pytest.fixture
def server(serve_factory):
    return serve_factory()


@pytest.fixture
def client(server):
    return ServeClient(server.url)


@pytest.fixture
def make_client():
    """Build a :class:`ServeClient` for a server the test started itself."""
    return lambda server: ServeClient(server.url)


@pytest.fixture
def blocking_experiment():
    """A registered experiment that blocks until the test releases its gate.

    Lets tests hold requests in flight deterministically (coalescing, drain)
    and count underlying executions exactly.  The registration is removed --
    and any stuck run released -- on teardown so the process-global registry
    stays clean for the rest of the suite.
    """
    from repro.engine import experiment as experiment_registry

    class BlockingExperiment(experiment_registry.Experiment):
        name = "serve-test-block"
        title = "Blocks until released (serve test fixture)"
        gate = threading.Event()
        started = threading.Event()
        runs = 0
        _runs_lock = threading.Lock()

        def run(self, context, benchmarks=None):
            cls = type(self)
            with cls._runs_lock:
                cls.runs += 1
            cls.started.set()
            assert cls.gate.wait(timeout=60), "test never released the gate"
            return {"released": True}

        def format_report(self, result) -> str:
            return "serve-test-block: released"

        def to_dict(self, result) -> dict:
            return {"experiment": self.name, "title": self.title, "data": result}

    experiment_registry.register_experiment(BlockingExperiment)
    try:
        yield BlockingExperiment
    finally:
        BlockingExperiment.gate.set()
        with experiment_registry._REGISTRY_LOCK:
            experiment_registry._REGISTRY.pop(BlockingExperiment.name, None)
