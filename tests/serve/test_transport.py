"""What one connection costs ``repro serve``, counted.

A connection is served on a parked handler thread (a thread starts only
when none is parked, and at most ``MAX_PARKED_THREADS`` wait), and a
``/v1/run`` body resolves once: a repeat reuses the scenario it resolved to.
Replies stay byte for byte what ``tests/serve/test_protocol.py`` checks.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time

from repro.serve import state as serve_state
from repro.serve.app import MAX_PARKED_THREADS

BODY = {"experiments": ["fig16"], "benchmarks": ["Caps-MN1"]}


def _handler_threads() -> set:
    return {t for t in threading.enumerate() if t.name == "repro-serve-handler"}


def _wait_until(predicate, timeout: float = 20.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.002)


def _parked(server) -> int:
    return len(server._httpd._parked)


def _hold_connections(server, count: int) -> list:
    """``count`` open connections, each holding a handler thread that waits
    for its request line."""
    before = _handler_threads()
    sockets = [
        socket.create_connection((server.host, server.port), timeout=30)
        for _ in range(count)
    ]
    _wait_until(lambda: len(_handler_threads() - before) == count)
    return sockets


def _finish(sock: socket.socket) -> None:
    """Send one request on a held connection and read its reply to EOF."""
    with sock:
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            reply += chunk
    assert reply.startswith(b"HTTP/1.1 200"), reply[:200]


def test_sequential_requests_start_no_thread_once_one_is_parked(
    server, client, monkeypatch
):
    assert client.post_raw("/v1/run", BODY)[0] == 200  # warm-up
    started = []
    start = threading.Thread.start

    def counting(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting)
    for _ in range(20):
        # The previous connection's thread parks a moment after its reply.
        _wait_until(lambda: _parked(server) >= 1)
        assert client.post_raw("/v1/run", BODY)[0] == 200
    assert started == []


def test_a_repeated_run_body_resolves_once(serve_factory, make_client, monkeypatch):
    calls = []
    resolve = serve_state.run_request

    def counting(fields, default=None):
        calls.append(fields)
        return resolve(fields, default)

    monkeypatch.setattr(serve_state, "run_request", counting)
    client = make_client(serve_factory(max_sessions=2))
    first = client.post_raw("/v1/run", BODY)
    assert first[0] == 200
    for _ in range(4):
        assert client.post_raw("/v1/run", BODY) == first
    assert len(calls) == 1
    # Only resolutions are kept: a rejected body resolves every time.
    for _ in range(2):
        assert client.post("/v1/run", {"benchmarks": ["Caps-Nope"]})[0] == 400
    assert len(calls) == 3
    # Bodies are told apart by their bytes: the same fields spaced otherwise
    # resolve anew.  max_sessions + 1 distinct bodies evict the first.
    spaced = json.dumps(BODY, indent=1).encode()
    assert client.post_raw("/v1/run", spaced) == first
    assert client.post_raw("/v1/run", {**BODY, "benchmarks": ["Caps-MN2"]})[0] == 200
    assert len(calls) == 5
    assert client.post_raw("/v1/run", BODY) == first
    assert len(calls) == 6


def test_more_connections_than_the_bound_leave_the_bound_parked(server):
    before = _handler_threads()
    sockets = _hold_connections(server, MAX_PARKED_THREADS + 4)
    for sock in sockets:
        _finish(sock)
    _wait_until(lambda: len(_handler_threads() - before) == MAX_PARKED_THREADS)
    assert _parked(server) == MAX_PARKED_THREADS


def test_server_close_ends_every_handler_thread(serve_factory):
    before = _handler_threads()
    server = serve_factory()
    for sock in _hold_connections(server, 3):
        _finish(sock)
    _wait_until(lambda: _parked(server) == 3)
    server.shutdown()
    assert server.wait_stopped(timeout=30)
    assert _handler_threads() - before == set()


def test_concurrent_clients_leave_every_live_handler_thread_parked(
    serve_factory, make_client
):
    before = _handler_threads()
    server = serve_factory(max_sessions=2)
    client = make_client(server)
    bodies = [{**BODY, "benchmarks": [name]} for name in ("Caps-MN1", "Caps-MN2", "Caps-MN3")]
    expected = [client.post_raw("/v1/run", body) for body in bodies]
    wrong = []

    def run(offset):
        for i in range(12):
            index = (offset + i) % len(bodies)
            if client.post_raw("/v1/run", bodies[index]) != expected[index]:
                wrong.append(index)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        clients = [threading.Thread(target=run, args=(k,)) for k in range(6)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    # Every live handler thread parks exactly once: none is lost waiting on
    # a mailbox nobody holds, and none is parked twice.
    _wait_until(lambda: len(_handler_threads() - before) == _parked(server))
    assert _parked(server) <= MAX_PARKED_THREADS
    assert len(server.state._runs) <= 2
