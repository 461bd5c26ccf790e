"""End-to-end protocol tests for the ``repro serve`` HTTP/JSON service.

Every test drives a real in-process server over sockets (see
``tests/serve/conftest.py``), so these cover the full stack: routing, JSON
parsing, structured errors, coalescing, warm caches, NDJSON sweep streaming
and the graceful drain lifecycle.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api.scenario import Scenario
from repro.api.session import Session
from repro.cli import main


# ----------------------------------------------------------------- GET views


def test_healthz_reports_ok(client):
    status, payload = client.get("/healthz")
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["active_work"] == 0
    assert payload["uptime_seconds"] >= 0


def test_keep_alive_connection_answers_without_delayed_ack_stalls(server):
    # A JSON reply leaves in one write, but stream chunks and replies larger
    # than the handler's write buffer leave in several.  With Nagle's
    # algorithm on, each later write on a reused connection waited for the
    # client's delayed ACK (~40 ms on Linux).
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    latencies = []
    try:
        for _ in range(10):
            started = time.perf_counter()
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            response.read()
            latencies.append(time.perf_counter() - started)
            assert response.status == 200
            assert not response.will_close
    finally:
        connection.close()
    assert statistics.median(latencies) < 0.02, latencies


def test_workloads_lists_the_catalog(client):
    status, payload = client.get("/v1/workloads")
    assert status == 200
    assert payload["count"] == len(payload["workloads"])
    names = [spec["name"] for spec in payload["workloads"]]
    assert "Caps-MN1" in names
    assert "Caps-SV3" in names


def test_presets_lists_scenarios_and_sweeps(client):
    status, payload = client.get("/v1/presets")
    assert status == 200
    assert "paper-default" in payload["scenarios"]
    assert "fig18-frequency" in payload["sweeps"]


def test_metrics_shape(client):
    status, _ = client.post(
        "/v1/run", {"experiments": ["fig16"], "benchmarks": ["Caps-MN1"]}
    )
    assert status == 200
    # Counters are recorded *before* the response bytes go out, so a client
    # that has read its response sees the request on an immediate probe.
    status, payload = client.get("/metrics")
    assert status == 200
    assert payload["requests"]["POST /v1/run"]["200"] == 1
    overall = payload["latency_seconds"]["overall"]
    assert overall["count"] >= 1
    assert overall["p99_seconds"] >= overall["p50_seconds"] >= 0
    assert payload["sessions"]["capacity"] >= 1
    assert payload["disk_cache"]["enabled"] is True
    assert payload["draining"] is False


# ------------------------------------------------------------------ /v1/run


def test_run_report_is_byte_identical_to_cli_reproduce(client, capsys):
    status, payload = client.post("/v1/run", {"experiments": ["fig15", "fig16"]})
    assert status == 200
    assert payload["experiments"] == ["fig15", "fig16"]
    assert payload["scenario"]["name"] == "paper-default"
    assert payload["coalesced"] is False

    assert main(["reproduce", "--only", "fig15", "fig16"]) == 0
    cli_text = capsys.readouterr().out
    assert payload["report"] + "\n" == cli_text


def test_second_identical_run_is_warm(client):
    body = {"experiments": ["fig15"], "benchmarks": ["Caps-MN1", "Caps-CF1"]}
    status, first = client.post("/v1/run", body)
    assert status == 200
    _, metrics = client.get("/metrics")
    executed_simulations = metrics["simulations_executed"]
    assert executed_simulations > 0

    status, second = client.post("/v1/run", body)
    assert status == 200
    assert second["report"] == first["report"]
    assert second["data"] == first["data"]
    _, metrics = client.get("/metrics")
    # The warm session memoized everything: the repeat ran no simulations.
    assert metrics["simulations_executed"] == executed_simulations
    assert metrics["runs"]["executed"] == 2  # sequential, so no coalescing
    assert metrics["runs"]["coalesced"] == 0


def test_run_honors_set_overrides(client):
    body = {"experiments": ["fig16"], "set": ["hmc.pe_frequency_mhz=625"]}
    status, payload = client.post("/v1/run", body)
    assert status == 200
    expected = Scenario.default().with_set(["hmc.pe_frequency_mhz=625"])
    assert payload["scenario"]["content_hash"] == expected.content_hash()


def test_novel_run_reply_equals_a_fresh_uncached_session(
    serve_factory, make_client, tmp_path
):
    # Every memo layer shares one result object per simulation: a novel
    # frequency's reply must still equal a run with no cache at all, from a
    # cold server and from a second one reading that cache from disk.
    overrides = ["hmc.pe_frequency_mhz=437.5"]
    names = ["fig15", "fig16", "fig17"]
    fresh = Session(Scenario.default().with_set(overrides)).run(names)
    expected_data = json.loads(json.dumps(fresh.runner.to_dict()))
    cache_dir = str(tmp_path / "cache")
    for warm_disk in (False, True):
        client = make_client(serve_factory(cache_dir=cache_dir))
        status, payload = client.post("/v1/run", {"experiments": names, "set": overrides})
        assert status == 200
        assert payload["report"] == fresh.report()
        assert payload["data"] == expected_data
        status, metrics = client.get("/metrics")
        assert status == 200
        assert (metrics["simulations_executed"] == 0) is warm_disk
        assert (metrics["disk_cache"]["hits"] > 0) is warm_disk


def test_run_accepts_inline_workloads(client):
    spec = Scenario.default().catalog.get("Caps-MN1").to_dict()
    spec["name"] = "Caps-Inline"
    body = {
        "workloads": [spec],
        "benchmarks": ["Caps-Inline"],
        "experiments": ["fig15"],
    }
    status, payload = client.post("/v1/run", body)
    assert status == 200
    assert "Caps-Inline" in payload["report"]


def test_run_with_scenario_preset_name(client):
    status, payload = client.post(
        "/v1/run", {"scenario": "paper-default", "experiments": ["fig16"]}
    )
    assert status == 200
    assert payload["scenario"]["name"] == "paper-default"


# ----------------------------------------------------- encoded /v1/run replies

RUN_EXPERIMENTS = ["fig15", "fig16", "fig17"]


def _expected_reply(scenario, names, coalesced=False) -> bytes:
    """The reply body of a run: ``json.dumps`` of the whole payload, built
    from a fresh session."""
    result = Session(scenario).run(names)
    payload = {
        "scenario": {"name": scenario.name, "content_hash": scenario.content_hash()},
        "experiments": list(names),
        "report": result.report(),
        "data": result.runner.to_dict(),
    }
    return (json.dumps({**payload, "coalesced": coalesced}) + "\n").encode("utf-8")


@pytest.fixture
def encodes(monkeypatch):
    """Count the server's JSON encodes (replies answered from stored bytes skip it)."""
    from repro.serve import app

    calls = []
    encode = app.encode_json

    def counting(payload):
        calls.append(payload)
        return encode(payload)

    monkeypatch.setattr(app, "encode_json", counting)
    return calls


def test_cold_and_warm_run_replies_equal_the_encoded_payload(client):
    expected = _expected_reply(Scenario.default(), RUN_EXPERIMENTS)
    body = {"experiments": RUN_EXPERIMENTS}
    assert client.post_raw("/v1/run", body) == (200, expected)  # cold
    assert client.post_raw("/v1/run", body) == (200, expected)  # warm


def test_a_warm_repeat_calls_the_encoder_zero_times(client, encodes):
    body = {"experiments": RUN_EXPERIMENTS, "set": ["hmc.pes_per_vault=8"]}
    status, cold = client.post_raw("/v1/run", body)
    assert status == 200
    # The first repeat encodes again and stores the bytes; every later
    # repeat writes them.
    assert client.post_raw("/v1/run", body) == (200, cold)
    assert len(encodes) == 2
    for _ in range(3):
        assert client.post_raw("/v1/run", body) == (200, cold)
    assert len(encodes) == 2


def _held_replies(server) -> list:
    """The reply bytes every warm session of ``server`` holds."""
    sessions = list(server.state._sessions.values())
    return [reply for warm in sessions for reply in warm.replies.values() if reply is not None]


def test_a_reply_is_stored_from_its_first_repeat_on(server, client):
    once = {"experiments": RUN_EXPERIMENTS, "set": ["hmc.pe_frequency_mhz=437.5"]}
    twice = {"experiments": RUN_EXPERIMENTS, "set": ["hmc.pe_frequency_mhz=875"]}
    status, reply = client.post_raw("/v1/run", once)
    assert status == 200
    # A scenario asked for once holds no reply bytes.
    assert _held_replies(server) == []
    first = client.post_raw("/v1/run", twice)
    assert _held_replies(server) == []
    # Asked for twice, it holds one reply: the bytes it answered with.
    assert client.post_raw("/v1/run", twice) == first
    assert _held_replies(server) == [first[1]]
    assert client.post_raw("/v1/run", twice) == first
    assert _held_replies(server) == [first[1]]
    scenario = Scenario.default().with_set(["hmc.pe_frequency_mhz=875"])
    assert first == (200, _expected_reply(scenario, RUN_EXPERIMENTS))
    assert reply == _expected_reply(
        Scenario.default().with_set(["hmc.pe_frequency_mhz=437.5"]), RUN_EXPERIMENTS
    )


def test_a_coalesced_follower_gets_the_same_bytes_flagged_coalesced(
    client, blocking_experiment
):
    body = {"experiments": [blocking_experiment.name]}
    replies = []
    replies_lock = threading.Lock()

    def invoke():
        outcome = client.post_raw("/v1/run", body, timeout=120.0)
        with replies_lock:
            replies.append(outcome)

    threads = [threading.Thread(target=invoke) for _ in range(2)]
    for thread in threads:
        thread.start()
    assert blocking_experiment.started.wait(30)
    client.wait_metrics(lambda m: m["runs"]["waiting"] == 1)
    blocking_experiment.gate.set()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()

    names = [blocking_experiment.name]
    leader = _expected_reply(Scenario.default(), names)
    follower = _expected_reply(Scenario.default(), names, coalesced=True)
    assert sorted(replies) == sorted([(200, leader), (200, follower)])
    # A later, uncoalesced repeat is the leader's reply again.
    assert client.post_raw("/v1/run", body) == (200, leader)
    _, metrics = client.get("/metrics")
    assert metrics["runs"]["executed"] == 2
    assert metrics["runs"]["coalesced"] == 1


def test_one_content_under_two_names_keeps_each_reply_name(client):
    preset = Scenario.preset("hmc-625mhz")
    override = Scenario.default().with_set(["hmc.pe_frequency_mhz=625"])
    assert preset.content_hash() == override.content_hash()
    assert preset.name != override.name
    bodies = [
        ({"scenario": "hmc-625mhz", "experiments": RUN_EXPERIMENTS}, preset),
        ({"set": ["hmc.pe_frequency_mhz=625"], "experiments": RUN_EXPERIMENTS}, override),
    ]
    replies = {}
    for body, scenario in bodies * 2:
        status, reply = client.post_raw("/v1/run", body)
        assert (status, reply) == (200, _expected_reply(scenario, RUN_EXPERIMENTS))
        replies[scenario.name] = json.loads(reply)
    named, renamed = replies[preset.name], replies[override.name]
    assert named["scenario"]["name"] == "hmc-625mhz"
    assert renamed["scenario"]["name"] == override.name
    assert named["report"] == renamed["report"]
    assert named["data"] == renamed["data"]


def test_an_evicted_session_drops_its_encoded_reply(serve_factory, make_client, encodes):
    client = make_client(serve_factory(max_sessions=1))
    first = {"experiments": RUN_EXPERIMENTS}
    second = {"experiments": RUN_EXPERIMENTS, "set": ["pipeline_batches=16"]}
    status, reply = client.post_raw("/v1/run", first)
    assert status == 200
    for _ in range(2):
        assert client.post_raw("/v1/run", first) == (200, reply)
    assert len(encodes) == 2
    assert client.post_raw("/v1/run", second)[0] == 200
    assert len(encodes) == 3
    # The second scenario evicted the first one's session and its reply:
    # the first scenario's next reply is encoded anew, with equal bytes.
    assert client.post_raw("/v1/run", first) == (200, reply)
    assert len(encodes) == 4
    _, metrics = client.get("/metrics")
    assert metrics["sessions"]["evicted"] == 2


# ----------------------------------------------------------- structured 4xx


def _error_code(payload) -> str:
    assert isinstance(payload, dict), f"expected a JSON error body, got {payload!r}"
    assert "Traceback" not in str(payload)  # stack traces never leak
    return payload["error"]["code"]


def test_malformed_json_is_a_structured_400(client):
    status, payload = client.post("/v1/run", b"{not json")
    assert status == 400
    assert _error_code(payload) == "invalid_json"


def test_missing_body_is_a_structured_400(client):
    status, payload = client.post("/v1/run", b"")
    assert status == 400
    assert _error_code(payload) in ("missing_body", "invalid_json")


def _raw_head(server, length: str, *headers: str) -> bytes:
    """The head of a raw ``POST /v1/run`` declaring ``Content-Length: length``."""
    lines = [
        "POST /v1/run HTTP/1.1",
        f"Host: {server.host}:{server.port}",
        "Content-Type: application/json",
        f"Content-Length: {length}",
        *headers,
    ]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


def _read_reply(sock: socket.socket):
    """(status, body bytes) of the next final reply on ``sock``."""
    response = http.client.HTTPResponse(sock)
    response.begin()
    try:
        return response.status, response.read()
    finally:
        response.close()


def test_a_negative_content_length_is_a_structured_400_not_a_hang(server):
    # rfile.read(-1) reads to EOF, which a client waiting for its reply
    # never sends: the length must be rejected before the body is read.
    with socket.create_connection((server.host, server.port), timeout=5) as sock:
        sock.sendall(_raw_head(server, "-1") + b'{"experiments": ["fig16"]}')
        status, raw = _read_reply(sock)
    assert status == 400
    payload = json.loads(raw)
    assert _error_code(payload) == "missing_body"
    assert payload["error"]["message"] == "invalid Content-Length header"


def test_expect_100_continue_gets_its_interim_reply_before_the_body(server, client):
    body = json.dumps({"experiments": ["fig16"], "benchmarks": ["Caps-MN1"]}).encode()
    plain = client.post_raw("/v1/run", body)
    assert plain[0] == 200
    with socket.create_connection((server.host, server.port), timeout=5) as sock:
        sock.sendall(_raw_head(server, str(len(body)), "Expect: 100-continue"))
        interim = b""
        while not interim.endswith(b"\r\n\r\n"):
            chunk = sock.recv(1024)
            assert chunk, interim
            interim += chunk
        assert interim.startswith(b"HTTP/1.1 100"), interim
        sock.sendall(body)
        assert _read_reply(sock) == plain


def test_unknown_field_is_a_structured_400(client):
    status, payload = client.post("/v1/run", {"experiment": ["fig15"]})
    assert status == 400
    assert _error_code(payload) == "unknown_field"
    assert "experiment" in payload["error"]["message"]


def test_unknown_experiment_is_a_structured_400(client):
    status, payload = client.post("/v1/run", {"experiments": ["fig99"]})
    assert status == 400
    assert _error_code(payload) == "unknown_experiment"


def test_a_scenario_that_would_break_the_run_is_a_structured_400(client):
    # A GPU without shading units would divide by zero inside the run; the
    # request must be rejected before it starts.
    body = {"scenario": {"gpu": {"shading_units": 0}}, "experiments": ["fig15"]}
    status, payload = client.post("/v1/run", body)
    assert status == 400
    assert _error_code(payload) == "invalid_scenario"
    assert "shading_units must be finite and positive" in payload["error"]["message"]


def test_unknown_benchmark_is_a_structured_400(client):
    status, payload = client.post("/v1/run", {"benchmarks": ["Caps-Nope"]})
    assert status == 400
    assert _error_code(payload) == "unknown_benchmark"
    message = payload["error"]["message"]
    assert message.startswith("unknown benchmark(s) ['Caps-Nope']; choose from")
    axes = {"hmc.pe_frequency_mhz": [625.0]}
    for path, body in (
        ("/v1/compare", {"set": ["pipeline_batches=4"], "benchmarks": ["Caps-Nope"]}),
        ("/v1/sweep", {"axes": axes, "benchmarks": ["Caps-Nope"]}),
        (
            "/v1/optimize",
            {"objective": "fig15.average_speedup", "axes": axes, "benchmarks": ["Caps-Nope"]},
        ),
    ):
        status, payload = client.post(path, body)
        assert status == 400, path
        assert _error_code(payload) == "unknown_benchmark", path
        assert payload["error"]["message"] == message, path


def test_request_named_workload_files_are_never_read(client, tmp_path):
    path = tmp_path / "secret.json"
    spec = dict(Scenario.default().catalog.get("Caps-MN1").to_dict(), name="Caps-Secret")
    path.write_text(json.dumps(spec), encoding="utf-8")
    axes = {"hmc.pe_frequency_mhz": [625.0]}
    for endpoint, body in (
        ("/v1/run", {"scenario": {"workloads": [str(path)]}, "experiments": ["fig15"]}),
        ("/v1/run", {"set": [f"workloads={path}"], "experiments": ["fig15"]}),
        ("/v1/sweep", {"axes": {**axes, "workloads": [str(path)]}}),
        (
            "/v1/optimize",
            {"objective": "fig15.average_speedup", "axes": {**axes, "workloads": [str(path)]}},
        ),
    ):
        status, payload = client.post(endpoint, body)
        assert status == 400, body
        assert "Caps-Secret" not in json.dumps(payload), body


@pytest.mark.parametrize(
    "path, body, code",
    [
        ("/v1/run", {"scenario": {"hmc": {"pe_frequency_mhz": None}}}, "invalid_scenario"),
        ("/v1/run", {"scenario": {"hmc": {"num_vaults": [1]}}}, "invalid_scenario"),
        ("/v1/run", {"scenario": {"designs": 5}}, "invalid_scenario"),
        ("/v1/run", {"scenario": {"pipeline_batches": None}}, "invalid_scenario"),
        ("/v1/run", {"scenario": {"workloads": 5}}, "invalid_workloads"),
        ("/v1/compare", {"scenarios": [{"designs": 5}], "set": ["pipeline_batches=4"]},
         "invalid_scenario"),
        ("/v1/sweep", {"axes": {"hmc.pe_frequency_mhz": 5}}, "invalid_axis"),
        ("/v1/sweep", {"spec": {"axes": {"hmc.pe_frequency_mhz": [625]}, "designs": 5}},
         "invalid_spec"),
        ("/v1/sweep", {"spec": {"axes": {"hmc.pe_frequency_mhz": [625]}, "benchmarks": 5}},
         "invalid_spec"),
    ],
)
def test_wrongly_typed_json_is_a_structured_400(client, path, body, code):
    status, payload = client.post(path, body)
    assert status == 400
    assert _error_code(payload) == code


def test_unknown_scenario_preset_is_a_structured_400(client):
    status, payload = client.post("/v1/run", {"scenario": "warp-drive"})
    assert status == 400
    assert _error_code(payload) == "unknown_scenario"


def test_invalid_override_is_a_structured_400(client):
    for override in ("hmc.warp_factor=9", "hmc.pe_frequency_mhz=nan"):
        status, payload = client.post("/v1/run", {"set": [override]})
        assert status == 400
        assert _error_code(payload) == "invalid_override"


def test_non_object_body_is_a_structured_400(client):
    status, payload = client.post("/v1/run", b"[1, 2, 3]")
    assert status == 400
    assert _error_code(payload) == "invalid_body"


def test_unknown_path_is_404(client):
    status, payload = client.get("/v1/nope")
    assert status == 404
    assert _error_code(payload) == "not_found"


def test_wrong_method_is_405(client):
    status, payload = client.get("/v1/run")
    assert status == 405
    assert _error_code(payload) == "method_not_allowed"
    status, payload = client.post("/healthz", {})
    assert status == 405


# -------------------------------------------------------------- /v1/compare


def test_compare_base_against_override_variant(client):
    body = {
        "set": ["hmc.pe_frequency_mhz=625"],
        "experiments": ["fig16"],
        "benchmarks": ["Caps-MN1"],
    }
    status, payload = client.post("/v1/compare", body)
    assert status == 200
    assert len(payload["data"]["scenarios"]) == 2
    assert "Scenarios:" in payload["report"]
    assert payload["coalesced"] is False


def test_compare_latency_includes_encoding_the_reply(client, monkeypatch):
    from repro.serve import app

    encode = app.encode_json

    def slow(payload):
        time.sleep(0.25)
        return encode(payload)

    body = {"set": ["hmc.pe_frequency_mhz=625"], "experiments": ["fig16"]}
    assert client.post("/v1/compare", body)[0] == 200
    monkeypatch.setattr(app, "encode_json", slow)
    started = time.perf_counter()
    assert client.post("/v1/compare", body)[0] == 200
    assert time.perf_counter() - started >= 0.25
    monkeypatch.setattr(app, "encode_json", encode)
    _, metrics = client.get("/metrics")
    latency = metrics["latency_seconds"]["POST /v1/compare"]
    # The warm compare runs in microseconds; only the encoding sleeps.
    assert latency["count"] == 2
    assert latency["p99_seconds"] >= 0.25


def test_compare_needs_two_scenarios(client):
    status, payload = client.post("/v1/compare", {"experiments": ["fig16"]})
    assert status == 400
    assert _error_code(payload) == "invalid_scenario"


# ---------------------------------------------------------------- /v1/sweep


def test_sweep_streams_ndjson_progress(client):
    body = {
        "axes": {"hmc.pe_frequency_mhz": [312.5, 625.0]},
        "benchmarks": ["Caps-MN1"],
    }
    status, headers, events = client.stream("/v1/sweep", body)
    assert status == 200
    assert headers["Content-Type"] == "application/x-ndjson"
    assert headers.get("Transfer-Encoding") == "chunked"

    kinds = [event["event"] for event in events]
    assert kinds[0] == "sweep_started"
    assert kinds[-1] == "summary"
    assert kinds.count("point_started") == 2
    assert kinds.count("point_completed") == 2
    started = events[0]
    assert started["points"] == 2
    summary = events[-1]
    assert summary["points"] == 2
    assert summary["simulations"] > 0
    for event in events:
        if event["event"] == "point_completed":
            assert isinstance(event["cache_hit"], bool)
            assert event["elapsed_seconds"] >= 0


def test_sweep_repeat_is_fully_cached(client):
    body = {
        "axes": {"hmc.pe_frequency_mhz": [200.0, 400.0]},
        "benchmarks": ["Caps-MN1"],
    }
    status, _, _ = client.stream("/v1/sweep", body)
    assert status == 200
    status, _, events = client.stream("/v1/sweep", body)
    assert status == 200
    summary = events[-1]
    assert summary["event"] == "summary"
    assert summary["simulations"] == 0
    assert summary["points_from_cache"] == summary["points"] == 2
    completed = [event for event in events if event["event"] == "point_completed"]
    assert all(event["cache_hit"] for event in completed)


def test_sweep_preset_spec_by_name(client):
    status, _, events = client.stream(
        "/v1/sweep", {"spec": "fig18-frequency", "benchmarks": ["Caps-MN1"]}
    )
    assert status == 200
    assert events[0]["event"] == "sweep_started"
    assert events[0]["sweep"] == "fig18-frequency"
    assert events[-1]["event"] == "summary"


@pytest.mark.parametrize(
    "axes",
    [
        {"hmc.pe_frequency_mhz": ["abc"]},
        {"hmc.num_vaults": [0]},
        {"hmc.pe_frequency_mhz": [-5]},
        {"hmc.pe_frequency_mhz": [625.0], "hmc.num_vaults": [32, 0]},
    ],
)
def test_bad_axis_values_are_invalid_axis_on_every_path(client, capsys, axes):
    status, payload = client.post("/v1/sweep", {"axes": axes, "benchmarks": ["Caps-MN1"]})
    assert status == 400
    assert _error_code(payload) == "invalid_axis"
    argv = ["sweep", "--benchmarks", "Caps-MN1", "--no-cache"]
    for key, values in axes.items():
        argv += ["--axis", f"{key}={','.join(map(str, values))}"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert str(exit_info.value.code) == payload["error"]["message"]
    capsys.readouterr()
    status, payload = client.post(
        "/v1/optimize",
        {"objective": "fig15.average_speedup", "axes": axes, "benchmarks": ["Caps-MN1"]},
    )
    assert status == 400
    assert _error_code(payload) == "invalid_axis"
    _, metrics = client.get("/metrics")
    assert all("500" not in statuses for statuses in metrics["requests"].values())


def test_a_later_probe_with_a_bad_axis_value_ends_the_stream_in_band(client):
    body = {
        "objective": "fig15.average_speedup",
        "axes": {"hmc.num_vaults": [0, 16, 32]},
        "benchmarks": ["Caps-MN1"],
        "driver": "descent",
    }
    status, _, events = client.stream("/v1/optimize", body)
    assert status == 200  # the median probe (16 vaults) streamed first
    assert events[-1]["event"] == "error"
    assert events[-1]["code"] == "invalid_axis"
    _, metrics = client.get("/metrics")
    assert metrics["requests"]["POST /v1/optimize"] == {"400": 1}


def test_sweep_validation_errors_arrive_before_the_stream(client):
    status, payload = client.post("/v1/sweep", {"spec": "not-a-sweep"})
    assert status == 400
    assert _error_code(payload) == "unknown_sweep"
    status, payload = client.post("/v1/sweep", {})
    assert status == 400
    assert _error_code(payload) == "missing_spec"
    status, payload = client.post(
        "/v1/sweep",
        {"axes": {"hmc.pe_frequency_mhz": [312.5]}, "benchmarks": ["Caps-Nope"]},
    )
    assert status == 400
    assert _error_code(payload) == "unknown_benchmark"


# -------------------------------------------------------------- coalescing


def test_identical_concurrent_runs_execute_once(client, blocking_experiment):
    body = {"experiments": [blocking_experiment.name]}
    concurrency = 3
    results = []
    results_lock = threading.Lock()

    def invoke():
        outcome = client.post("/v1/run", body, timeout=120.0)
        with results_lock:
            results.append(outcome)

    threads = [threading.Thread(target=invoke) for _ in range(concurrency)]
    for thread in threads:
        thread.start()
    assert blocking_experiment.started.wait(30)
    # Followers pile up behind the single in-flight leader.
    client.wait_metrics(
        lambda m: m["runs"]["waiting"] == concurrency - 1
        and m["runs"]["in_flight"] == 1
    )
    blocking_experiment.gate.set()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()

    assert blocking_experiment.runs == 1  # exactly one underlying execution
    statuses = [status for status, _ in results]
    assert statuses == [200] * concurrency
    reports = {payload["report"] for _, payload in results}
    assert len(reports) == 1
    flags = sorted(payload["coalesced"] for _, payload in results)
    assert flags == [False, True, True]
    _, metrics = client.get("/metrics")
    assert metrics["runs"]["executed"] == 1
    assert metrics["runs"]["coalesced"] == concurrency - 1
    assert metrics["runs"]["in_flight"] == 0
    assert metrics["runs"]["waiting"] == 0


# ------------------------------------------------------------------- drain


def test_graceful_drain_finishes_inflight_work(
    serve_factory, make_client, blocking_experiment
):
    server = serve_factory(drain_timeout=60.0)
    client = make_client(server)
    outcome = {}

    def invoke():
        outcome["response"] = client.post(
            "/v1/run", {"experiments": [blocking_experiment.name]}, timeout=120.0
        )

    thread = threading.Thread(target=invoke)
    thread.start()
    assert blocking_experiment.started.wait(30)

    server.shutdown()
    # The drain refuses new work but reports liveness while finishing.
    status, payload = client.get("/healthz")
    assert status == 503
    assert payload["status"] == "draining"
    status, payload = client.post("/v1/run", {"experiments": ["fig16"]})
    assert status == 503
    assert payload["error"]["code"] == "draining"

    blocking_experiment.gate.set()
    thread.join(timeout=60)
    assert not thread.is_alive()
    status, payload = outcome["response"]
    assert status == 200  # the in-flight request completed despite shutdown
    assert "serve-test-block: released" in payload["report"]

    assert server.wait_stopped(timeout=30)
    assert server.test_exit_code["value"] == 0
    with pytest.raises(urllib.error.URLError):
        urllib.request.urlopen(client.url + "/healthz", timeout=5)


# ------------------------------------------------------------- /v1/optimize


def test_optimize_streams_probe_events(client):
    body = {
        "objective": "fig15.average_speedup",
        "axes": {"hmc.pe_frequency_mhz": [312.5, 625.0, 1250.0]},
        "benchmarks": ["Caps-MN1"],
        "driver": "exhaustive",
    }
    status, headers, events = client.stream("/v1/optimize", body)
    assert status == 200
    assert headers["Content-Type"] == "application/x-ndjson"
    assert headers.get("Transfer-Encoding") == "chunked"

    kinds = [event["event"] for event in events]
    assert kinds[0] == "optimize_started"
    assert kinds[-1] == "summary"
    assert kinds.count("probe_completed") == 3
    started = events[0]
    assert started["objectives"] == ["maximize fig15.average_speedup"]
    assert started["grid_size"] == 3
    assert started["driver"] == "exhaustive"
    probes = [event for event in events if event["event"] == "probe_completed"]
    assert [probe["index"] for probe in probes] == [0, 1, 2]
    for probe in probes:
        assert "fig15.average_speedup" in probe["values"]
    summary = events[-1]
    assert summary["probes"] == 3
    assert summary["best"]["fig15.average_speedup"]["assignment"]
    assert summary["frontier"]


def test_optimize_repeat_is_fully_cached(client):
    body = {
        "objective": "fig15.average_speedup",
        "axes": {"hmc.pe_frequency_mhz": [200.0, 400.0]},
        "benchmarks": ["Caps-MN1"],
    }
    status, _, cold = client.stream("/v1/optimize", body)
    assert status == 200
    status, _, warm = client.stream("/v1/optimize", body)
    assert status == 200
    summary = warm[-1]
    assert summary["event"] == "summary"
    assert summary["simulations"] == 0
    assert summary["probes_from_cache"] == summary["probes"]
    assert summary["best"] == cold[-1]["best"]
    probes = [event for event in warm if event["event"] == "probe_completed"]
    assert all(event["cache_hit"] for event in probes)
    # The shared server cache also feeds /v1/sweep and vice versa.
    status, _, events = client.stream(
        "/v1/sweep", {"axes": {"hmc.pe_frequency_mhz": [200.0, 400.0]},
                      "benchmarks": ["Caps-MN1"]}
    )
    assert status == 200


def test_optimize_constrained_query(client):
    body = {
        "objectives": ["overhead.total_area_mm2:min"],
        "constraints": ["fig15.average_speedup:within_pct_of_best=5"],
        "axes": {"hmc.pe_frequency_mhz": [625.0, 1250.0]},
        "benchmarks": ["Caps-MN1"],
        "driver": "exhaustive",
    }
    status, _, events = client.stream("/v1/optimize", body)
    assert status == 200
    assert events[0]["constraints"] == [
        "fig15.average_speedup within 5% of best"
    ]
    summary = events[-1]
    best = summary["best"]["overhead.total_area_mm2"]
    assert "hmc.pe_frequency_mhz" in best["assignment"]


def test_optimize_validation_errors_arrive_before_the_stream(client):
    status, payload = client.post(
        "/v1/optimize", {"axes": {"hmc.pe_frequency_mhz": [625.0]}}
    )
    assert status == 400
    assert _error_code(payload) == "missing_objective"
    status, payload = client.post(
        "/v1/optimize", {"objective": "fig15.average_speedup"}
    )
    assert status == 400
    assert _error_code(payload) == "missing_spec"
    # A metric typo only surfaces on the first probe -- still a 4xx, because
    # the first event is awaited before headers go out.
    status, payload = client.post(
        "/v1/optimize",
        {
            "objective": "fig15.no_such_metric",
            "axes": {"hmc.pe_frequency_mhz": [625.0]},
            "benchmarks": ["Caps-MN1"],
        },
    )
    assert status == 400
    assert _error_code(payload) == "invalid_objective"
    status, payload = client.post(
        "/v1/optimize",
        {
            "objective": "fig15.average_speedup",
            "axes": {"hmc.pe_frequency_mhz": [625.0]},
            "budget": 0,
        },
    )
    assert status == 400
    assert _error_code(payload) == "invalid_budget"
    status, payload = client.post(
        "/v1/optimize",
        {
            "objective": "fig15.average_speedup",
            "axes": {"hmc.pe_frequency_mhz": [625.0]},
            "driver": "annealing",
        },
    )
    assert status == 400
    assert _error_code(payload) == "invalid_optimize"


def test_optimize_is_discoverable_and_counted(client):
    status, payload = client.get("/v1/presets")
    assert status == 200
    assert "/v1/optimize" in payload["endpoints"]["POST"]
    assert "/metrics" in payload["endpoints"]["GET"]

    body = {
        "objective": "fig15.average_speedup",
        "axes": {"hmc.pe_frequency_mhz": [625.0]},
        "benchmarks": ["Caps-MN1"],
    }
    status, _, events = client.stream("/v1/optimize", body)
    assert status == 200
    assert events[-1]["event"] == "summary"
    # Single shot: streamed requests are recorded before the terminal chunk.
    status, metrics = client.get("/metrics")
    assert status == 200
    assert metrics["requests"]["POST /v1/optimize"]["200"] == 1
