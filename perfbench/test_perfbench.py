"""Fast tests of the benchmark's own logic; no workload runs here.

Every output check must reject altered bytes, the span arithmetic must
attribute self time correctly, the seeded inputs must be reproducible, and
``BENCHMARK.json`` must list exactly the metrics the code reports.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from perfbench import checks, inputs, metrics, tracing
from perfbench.run import MAIN_LAYER

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "benchmarks" / "reports"
ORDER = tuple(checks.GOLDEN_REPORTS)


def _combined(bodies):
    """A ``repro reproduce --skip table5`` stdout built the way the CLI prints it."""
    sections = [f"{'=' * 78}\n{name}\n{'=' * 78}\n{bodies[name]}" for name in ORDER]
    return "\n\n".join(sections) + "\n"


def _golden_bodies():
    return {
        name: (GOLDEN_DIR / filename).read_text(encoding="utf-8")[:-1]
        for name, filename in checks.GOLDEN_REPORTS.items()
    }


def _flip(text: str, index: int) -> str:
    return text[:index] + ("x" if text[index] != "x" else "y") + text[index + 1 :]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(MAIN_LAYER)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]


def test_golden_check_accepts_the_golden_reports():
    assert checks.check_golden(_combined(_golden_bodies()), GOLDEN_DIR) == []


@pytest.mark.parametrize("name", ORDER)
def test_golden_check_rejects_an_altered_section(name):
    bodies = _golden_bodies()
    bodies[name] = _flip(bodies[name], len(bodies[name]) // 2)
    problems = checks.check_golden(_combined(bodies), GOLDEN_DIR)
    assert len(problems) == 1 and name in problems[0]


def test_golden_check_rejects_a_renamed_section_or_stray_text():
    text = _combined(_golden_bodies())
    renamed = text.replace(f"{'=' * 78}\nfig07\n", f"{'=' * 78}\nfig07x\n")
    assert checks.check_golden(renamed, GOLDEN_DIR)
    for altered in ("warning\n" + text, text + "\n", text.replace("\n\n" + "=" * 78, "\n" + "=" * 78, 1)):
        assert checks.check_golden(altered, GOLDEN_DIR)


def test_golden_check_rejects_an_extra_section():
    # A full `repro reproduce` report is not the `--skip table5` one.
    extra = _combined(_golden_bodies()) + f"\n{'=' * 78}\ntable5\n{'=' * 78}\nTable 5\n"
    assert checks.check_golden(extra, GOLDEN_DIR) == ["reproduce: sections out of order, or text outside them"]


def test_digest_and_warm_checks_reject_altered_bytes():
    report = "Sweep 'perfbench' -- end-to-end speedup\n1.25 2.5\n"
    assert checks.check_digest("sweep", report, checks.digest(report)) == []
    assert checks.check_digest("sweep", _flip(report, 3), checks.digest(report))
    assert checks.check_digest("sweep", report, None)
    assert checks.check_warm("sweep", report, report) == []
    assert checks.check_warm("sweep", report, _flip(report, 0))


def test_warm_sweep_must_not_simulate():
    line = "sweep 'x': 4 points, {cells} cells, {sims} simulations executed, disk cache: 7 hits, {miss} misses, 0.1s"
    assert checks.check_warm_sweep(line.format(cells=16, sims=0, miss=0)) == []
    assert checks.check_warm_sweep(line.format(cells=16, sims=3, miss=0))
    assert checks.check_warm_sweep(line.format(cells=16, sims=0, miss=2))
    assert checks.check_warm_sweep("no statistics")
    assert checks.sweep_stats(line.format(cells=16, sims=3, miss=2)) == (16, 3, 7, 2)


def test_warm_pass_must_not_write_the_cache(tmp_path):
    shard = tmp_path / "v1" / "ab" / "shard.json"
    shard.parent.mkdir(parents=True)
    shard.write_text("{}")
    before = checks.snapshot(tmp_path)
    assert checks.check_untouched("x", before, checks.snapshot(tmp_path)) == []
    time.sleep(0.01)
    shard.write_text("{} ")
    assert checks.check_untouched("x", before, checks.snapshot(tmp_path))
    (tmp_path / "models-v1").mkdir()
    (tmp_path / "models-v1" / "new.npz").write_bytes(b"0")
    assert checks.check_untouched("x", before, checks.snapshot(tmp_path))


def test_run_response_check():
    report = "=====\nfig15\n=====\nbody"
    body = json.dumps({"report": report}).encode()
    assert checks.check_run_response(200, body, report + "\n") == []
    assert checks.check_run_response(200, body, None) == []
    assert checks.check_run_response(200, body, _flip(report, 12) + "\n")
    assert checks.check_run_response(503, body, report + "\n")
    assert checks.check_run_response(200, b"not json", None)
    assert checks.check_run_response(200, json.dumps({"report": ""}).encode(), None)


def test_recorded_digests_cover_every_plan():
    digests = checks.load_digests()
    assert len(digests["reproduce"]) == 64
    assert sorted(digests["sweep-freq"], key=int) == [str(plan) for plan in range(inputs.PLANS)]


def test_self_time_subtracts_children_and_coverage_merges_threads():
    spans = [
        {"id": 1, "parent": None, "name": tracing.ROOT, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "name": "experiments.table5", "start": 0.0, "end": 8.0},
        {"id": 3, "parent": 2, "name": "capsnet.step", "start": 1.0, "end": 7.0},
        {"id": 4, "parent": 3, "name": "capsnet.conv_fwd", "start": 1.0, "end": 3.0},
        # Another thread: overlaps the step, so coverage counts it once.
        {"id": 5, "parent": None, "name": "engine.context", "start": 6.0, "end": 9.0},
    ]
    totals = tracing.self_times(spans)
    assert totals["capsnet.step"] == pytest.approx(4.0)
    assert totals["experiments.table5"] == pytest.approx(2.0)
    assert totals[tracing.ROOT] == pytest.approx(2.0)
    assert tracing.coverage(spans) == pytest.approx(0.8)
    values = metrics.layer_metrics(totals, {"capsnet.train_steps_n": 3})
    assert values["capsnet.step_s"] == pytest.approx(4.0)
    assert values["capsnet.train_steps_n"] == 3
    assert values["serve.hot_p50_ms"] == 0.0


def test_recorder_nests_spans_and_carries_request_ids(tmp_path):
    recorder = tracing.Recorder()
    recorder.out_dir = tmp_path
    inner = recorder.wrap(lambda: time.sleep(0.002), "cache.sim_get")
    outer = recorder.wrap(lambda: inner() or inner(), "serve.request", request=True)
    outer()
    outer()
    recorder.dump()
    (process,) = tracing.load(tmp_path)
    spans = process["spans"]
    requests = {span["request"] for span in spans}
    assert len(requests) == 2 and None not in requests
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        if span["name"] == "cache.sim_get":
            assert by_id[span["parent"]]["name"] == "serve.request"
            assert by_id[span["parent"]]["request"] == span["request"]
    totals = tracing.self_times(spans)
    assert totals["cache.sim_get"] >= 0.008


def test_inputs_are_seeded():
    assert inputs.sweep_freq_spec(3) == inputs.sweep_freq_spec(3)
    assert inputs.sweep_freq_spec(3) == inputs.sweep_freq_spec(3 + inputs.PLANS)
    assert inputs.sweep_freq_spec(3) != inputs.sweep_freq_spec(4)
    assert len(inputs.sweep_freq_spec(5)["axes"][0]["values"]) == inputs.FREQUENCIES
    first, second = inputs.RequestPlan(9), inputs.RequestPlan(9)
    drawn = [first.next() for _ in range(2000)]
    assert drawn == [second.next() for _ in range(2000)]
    novel = [body["set"][0] for hot, body in drawn if hot is None]
    assert 100 < len(novel) < 300 and len(set(novel)) == len(novel)
    assert drawn != [inputs.RequestPlan(10).next() for _ in range(2000)]


def test_statistics():
    assert metrics.percentile([5.0, 1.0, 3.0], 0.5) == 3.0
    assert metrics.percentile(list(range(1, 101)), 0.99) == 99
