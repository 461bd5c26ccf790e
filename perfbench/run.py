"""The repository benchmark: three workloads against the real ``repro`` entry points.

Run from the root of a checkout::

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 30 --trace 0

Workloads (each a closed loop over fixed jobs, sized for two CPUs):

``reproduce``   ``repro reproduce --benchmarks Caps-MN1`` (all ten
                experiments, Table 5 training the MNIST network) in a fresh
                interpreter on an empty cache directory, then again on the
                warm cache; such cycles for ``--seconds``.  Once per run,
                ``repro reproduce --skip table5`` over every benchmark is
                checked against the golden reports.
``sweep-freq``  ``repro sweep`` over seeded PE frequencies x PEs per vault,
                four end-to-end designs: the vectorized, cache-heavy path.
                Cycles of one cold and one warm pass.
``serve``       ``repro serve``, started afresh on an empty cache directory
                several times a run; this process sends each instance a
                seeded plan of ``POST /v1/run`` requests from two closed-loop
                clients, ~1 in 10 naming a scenario never seen before.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
and traced passes -- ``launch.py`` wraps public ``repro`` calls in spans
(:mod:`perfbench.tracing`) -- and prints the per-layer metrics.  Every
pass's output is checked (:mod:`perfbench.checks`); a pass or request that
fails a check counts in ``failed``.  The last stdout line is the JSON
result; the full record, stamped with version, git sha, python, numpy,
``cpu_count``, repeats and seed, is written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import http.client
import importlib.metadata
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import checks, inputs, metrics, tracing  # noqa: E402

LAUNCH = Path(__file__).resolve().parent / "launch.py"

#: The layer whose share of traced span time ``trace.main_layer_share`` reports;
#: why each workload is in the benchmark is recorded in ``BENCHMARK.json``.
MAIN_LAYER = {"reproduce": "capsnet", "sweep-freq": "cache", "serve": "cache"}

#: Warm passes after each cold pass of a batch workload.
WARM_PASSES = 1
#: ``repro serve`` instances per run, each on an empty cache directory with
#: an equal share of ``--seconds`` of traffic.
SERVER_LAUNCHES = 6
#: Closed-loop clients of the serve load generator, and the shortest loop
#: an instance gets (a slow host may spend much of ``--seconds`` elsewhere).
CLIENTS = 2
MIN_LOOP_SECONDS = 2.0
#: Per-process timeout; a run must end well within three minutes.
PASS_TIMEOUT = 150.0
#: Client timeout of one HTTP request, and the latency a failed one counts as.
REQUEST_TIMEOUT = 60.0


class Pass(NamedTuple):
    """One launched CLI pass, timed from outside and by ``launch.py``."""

    code: int
    stdout: str
    stderr: str
    wall: float
    #: ``None`` when the launcher wrote no statistics (the pass failed).
    setup: Optional[float]
    main: Optional[float]
    peak_rss_mb: Optional[float]
    train_steps: int


class Request(NamedTuple):
    """One ``POST /v1/run`` of a closed loop."""

    #: Index into :data:`perfbench.inputs.HOT_SETS`; ``None`` for a novel scenario.
    hot: Optional[int]
    #: The server had not answered this scenario yet, so it simulates.
    cold: bool
    #: Client-side latency; :data:`REQUEST_TIMEOUT` when the request failed.
    seconds: float
    problems: List[str]


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, seconds: int, trace: bool) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = root / ".perfbench" / f"{workload}-{os.getpid()}"
        self.work.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.env["REPRO_CACHE_DIR"] = str(self.work / "default-cache")
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.samples: Dict[str, List[float]] = {}
        self.values: Dict[str, float] = {}
        self._serial = 0

    # ------------------------------------------------------------- plumbing

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def record(self, problems: List[str]) -> bool:
        """Count one operation; ``problems`` non-empty marks it failed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems

    def fresh(self, label: str) -> Path:
        self._serial += 1
        path = self.work / f"{label}-{self._serial}"
        path.mkdir()
        return path

    def launch(self, argv: List[str], trace_dir: Optional[Path] = None) -> Pass:
        stats_path = self.fresh("pass") / "stats.json"
        command = [sys.executable, str(LAUNCH), str(stats_path)]
        if trace_dir is not None:
            command += ["--trace", str(trace_dir)]
        start = time.monotonic()
        try:
            proc = subprocess.run(
                command + ["--", *argv],
                cwd=self.root,
                env=self.env,
                stdin=subprocess.DEVNULL,
                capture_output=True,
                text=True,
                timeout=PASS_TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            # subprocess.run has killed and reaped the pass: a failed operation.
            wall = time.monotonic() - start
            return Pass(-9, "", f"timed out after {PASS_TIMEOUT:.0f} s", wall, None, None, None, 0)
        wall = time.monotonic() - start
        try:
            stats = json.loads(stats_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            stats = None
        if stats is None:
            return Pass(proc.returncode or 1, proc.stdout, proc.stderr, wall, None, None, None, 0)
        return Pass(
            proc.returncode,
            proc.stdout,
            proc.stderr,
            wall,
            stats["ready"] - start,
            stats["end"] - stats["start"],
            stats["peak_rss_kb"] / 1024.0,
            stats["train_steps"],
        )

    def exit_problems(self, label: str, run: Pass) -> List[str]:
        if run.code == 0:
            return []
        tail = run.stderr.strip().splitlines()[-1:] or [""]
        return [f"{label}: exit code {run.code}: {tail[0][:200]}"]

    def note_pass(self, kind: str, run: Pass) -> None:
        if run.code == 0 and run.setup is not None:
            self.sample("setup_s", run.setup)
            self.sample(f"{kind}_s", run.main)
            self.sample("peak_rss_mb", run.peak_rss_mb)

    def import_times(self) -> None:
        """``setup.numpy_s`` / ``setup.repro_s`` from ``-X importtime`` (median of 3)."""
        pattern = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)\s*$")
        for _ in range(3):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
                cwd=self.root, env=self.env, capture_output=True, text=True, timeout=PASS_TIMEOUT,
            )
            found = {}
            for line in proc.stderr.splitlines():
                match = pattern.match(line)
                if match:
                    found[match.group(2)] = int(match.group(1)) / 1e6
            self.sample("setup.numpy_s", found.get("numpy", 0.0))
            self.sample("setup.repro_s", found.get("repro.cli", 0.0))

    def end_to_end(self) -> Dict[str, float]:
        s = self.samples
        return {
            "setup_s": metrics.median(s.get("setup_s", [PASS_TIMEOUT])),
            # A pass's time varies by +-20% with the shared host's load.  Over
            # ten seeds the mean of a run's ~10 passes (or 6 server instances)
            # spread less from run to run than their minimum, lower quartile
            # or median did.
            "cold_s": metrics.mean(s.get("cold_s", [PASS_TIMEOUT])),
            "warm_s": metrics.mean(s.get("warm_s", [PASS_TIMEOUT])),
            "peak_rss_mb": max(s.get("peak_rss_mb", [0.0])),
        }

    # ---------------------------------------------------------- batch jobs

    def batch_argv(self, cache: Path) -> List[str]:
        if self.workload == "reproduce":
            return ["reproduce", "--benchmarks", inputs.REPRODUCE_BENCHMARK, "--cache-dir", str(cache)]
        return ["sweep", "--spec", str(self.spec_path), "--cache-dir", str(cache)]

    def check_cold(self, run: Pass) -> List[str]:
        problems = self.exit_problems(f"{self.workload} cold", run)
        if problems:
            return problems
        if self.workload == "reproduce":
            return checks.check_digest(self.workload, run.stdout, self.digests["reproduce"])
        plan = str(inputs.plan_of(self.seed))
        return checks.check_digest(self.workload, run.stdout, self.digests[self.workload].get(plan))

    def check_warm(self, cold: Pass, run: Pass, before: dict, cache: Path) -> List[str]:
        problems = self.exit_problems(f"{self.workload} warm", run)
        if problems:
            return problems
        problems = checks.check_warm(self.workload, cold.stdout, run.stdout)
        problems += checks.check_untouched(self.workload, before, checks.snapshot(cache))
        if run.train_steps:
            problems.append(f"{self.workload}: warm pass ran {run.train_steps} training steps")
        if self.workload != "reproduce":
            problems += checks.check_warm_sweep(run.stderr)
        return problems

    def prepare_batch(self) -> None:
        self.digests = checks.load_digests()
        if self.workload == "reproduce":
            # The cycles run one benchmark; the deterministic reports of
            # every benchmark are checked once per run.
            golden = self.launch(["reproduce", "--skip", "table5", "--cache-dir", str(self.fresh("cache"))])
            self.record(
                self.exit_problems("reproduce --skip table5", golden)
                or checks.check_golden(golden.stdout, self.root / "benchmarks" / "reports")
            )
        else:
            self.spec_path = self.work / "spec.json"
            self.spec_path.write_text(json.dumps(inputs.sweep_freq_spec(self.seed), indent=2), encoding="utf-8")

    def warm_up(self) -> None:
        """One untimed launch, so the first timed one finds files in the page cache."""
        self.launch([])

    def run_batch(self) -> None:
        self.prepare_batch()
        self.warm_up()
        started = time.monotonic()
        cycles = 0
        while cycles == 0 or time.monotonic() - started < self.seconds:
            cache = self.fresh("cache")
            cold = self.launch(self.batch_argv(cache))
            self.note_pass("cold", cold)
            cold_ok = self.record(self.check_cold(cold))
            before = checks.snapshot(cache)
            for _ in range(WARM_PASSES):
                warm = self.launch(self.batch_argv(cache))
                self.note_pass("warm", warm)
                self.record(self.check_warm(cold, warm, before, cache) if cold_ok else ["warm after failed cold"])
            cycles += 1
        self.values.update(self.end_to_end())

    def trace_batch(self) -> None:
        self.prepare_batch()
        self.import_times()
        baseline = self.launch(self.batch_argv(self.fresh("cache")))
        self.record(self.check_cold(baseline))
        cache = self.fresh("cache")
        cold_dir, warm_dir = self.fresh("trace-cold"), self.fresh("trace-warm")
        cold = self.launch(self.batch_argv(cache), trace_dir=cold_dir)
        cold_ok = self.record(self.check_cold(cold))
        before = checks.snapshot(cache)
        warm = self.launch(self.batch_argv(cache), trace_dir=warm_dir)
        self.record(self.check_warm(cold, warm, before, cache) if cold_ok else ["warm after failed cold"])

        cold_spans = tracing.load(cold_dir)
        processes = cold_spans + tracing.load(warm_dir)
        counts = tracing.merged_counters(processes)
        if self.workload != "reproduce":
            # Vectorized cells are not PIMCapsNet simulations: take the
            # sweep's own statistics line for its counts.
            counts.pop("engine.simulations_n", None)
            for run in (cold, warm):
                stats = checks.sweep_stats(run.stderr) or (0, 0, 0, 0)
                counts["engine.simulations_n"] = counts.get("engine.simulations_n", 0) + stats[1]
            cells, simulations, _, _ = checks.sweep_stats(cold.stderr) or (0, 0, 0, 0)
            counts["sweep.cells_n"] = cells
            counts["sweep.cells_per_sim"] = cells / simulations if simulations else 0.0
        counts["cache.sim_bytes"] = _bytes(cache / "v1")
        main = [process for process in cold_spans if process["pid"] == _root_pid(cold_spans)]
        coverage = tracing.coverage(main[0]["spans"]) if main else 0.0
        if self.workload == "reproduce" and coverage < 0.95:
            self.record([f"reproduce: named layer spans cover only {coverage:.1%} of the cold pass"])
        self.finish_trace(
            processes,
            counts,
            coverage=coverage,
            overhead=cold.main - baseline.main if cold.main and baseline.main else 0.0,
            cold_processes=cold_spans,
        )

    def finish_trace(self, processes, counts, coverage, overhead, cold_processes) -> None:
        self_times = tracing.merged_self_times(processes)
        values = metrics.layer_metrics(self_times, counts)
        values["setup.numpy_s"] = metrics.median(self.samples["setup.numpy_s"])
        values["setup.repro_s"] = metrics.median(self.samples["setup.repro_s"])
        values["trace.coverage"] = coverage
        values["trace.overhead_s"] = overhead
        cold_self = tracing.merged_self_times(cold_processes)
        cold_self.pop(tracing.ROOT, None)
        layer = MAIN_LAYER[self.workload]
        total = sum(cold_self.values())
        values["trace.main_layer_share"] = (
            sum(v for k, v in cold_self.items() if k.startswith(layer + ".")) / total if total else 0.0
        )
        self.values.update(values)
        self.span_totals = self_times

    # ---------------------------------------------------------------- serve

    def cli_references(self) -> Dict[int, str]:
        """What ``repro reproduce`` prints for each hot request."""
        references = {}
        cache = self.fresh("reference-cache")
        for index, overrides in enumerate(inputs.HOT_SETS):
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *inputs.cli_argv(overrides), "--cache-dir", str(cache)],
                cwd=self.root, env=self.env, capture_output=True, text=True, timeout=PASS_TIMEOUT,
            )
            if self.record([] if proc.returncode == 0 else [f"serve reference: exit code {proc.returncode}"]):
                references[index] = proc.stdout
        return references

    def closed_loop(self, server: "Server", plan, references, seconds: float) -> Tuple[List[Request], float]:
        """``CLIENTS`` clients send ``plan``'s requests for ``seconds``.

        Returns every request and the loop's duration.  A request is cold
        when the server had not yet answered its scenario.
        """
        lock = threading.Lock()
        answered = set()
        requests: List[Request] = []
        started = time.monotonic()
        deadline = started + seconds

        def client() -> None:
            while time.monotonic() < deadline:
                with lock:
                    hot, body = plan.next()
                    cold = hot is None or hot not in answered
                sent = time.monotonic()
                status, payload = server.post(body)
                elapsed = time.monotonic() - sent
                expected = references.get(hot) if hot is not None else None
                problems = checks.check_run_response(status, payload, expected)
                with lock:
                    if not problems:
                        answered.add(hot)
                    requests.append(Request(hot, cold, REQUEST_TIMEOUT if problems else elapsed, problems))

        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return requests, time.monotonic() - started

    def run_serve(self) -> None:
        references = self.cli_references()
        self.warm_up()
        plan = inputs.RequestPlan(self.seed)
        started = time.monotonic()
        for launch in range(1, SERVER_LAUNCHES + 1):
            with Server(self, self.fresh("cache")) as server:
                self.sample("setup_s", server.setup)
                share = started + self.seconds * launch / SERVER_LAUNCHES - time.monotonic()
                requests, _ = self.closed_loop(server, plan, references, max(share, MIN_LOOP_SECONDS))
            for request in requests:
                self.record(request.problems)
            # One figure per instance: an instance keeps one speed for most
            # of its life, like a CLI pass.
            for kind in ("cold", "warm"):
                latencies = [r.seconds for r in requests if r.cold == (kind == "cold")]
                if latencies:
                    self.sample(f"{kind}_s", metrics.median(latencies))
            self.sample("peak_rss_mb", server.stats.get("peak_rss_kb", 0) / 1024.0)
            self.record(server.problems)
        self.values.update(self.end_to_end())

    def trace_serve(self) -> None:
        """An untraced closed loop for the client-side figures, then a traced one for the spans."""
        self.import_times()
        references = self.cli_references()
        with Server(self, self.fresh("cache")) as server:
            untraced, elapsed = self.closed_loop(server, inputs.RequestPlan(self.seed), references, self.seconds / 2)
            server_metrics = server.get_json("/metrics")
        self.record(server.problems)
        trace_dir, cache = self.fresh("trace-serve"), self.fresh("cache")
        with Server(self, cache, trace_dir=trace_dir) as server:
            traced, _ = self.closed_loop(server, inputs.RequestPlan(self.seed), references, self.seconds / 2)
        self.record(server.problems)
        for request in untraced + traced:
            self.record(request.problems)
        processes = tracing.load(trace_dir)
        counts = tracing.merged_counters(processes)
        counts["cache.sim_bytes"] = _bytes(cache / "v1")
        overhead = _cold_seconds(traced) - _cold_seconds(untraced)
        self.finish_trace(processes, counts, coverage=0.0, overhead=overhead, cold_processes=processes)
        every = _milliseconds(untraced)
        novel = _milliseconds(untraced, hot=False)
        server_p50 = server_metrics["latency_seconds"].get("POST /v1/run", {}).get("p50_seconds", 0.0) * 1e3
        self.values.update(
            {
                "serve.p50_ms": metrics.percentile(every, 0.50),
                "serve.p99_ms": metrics.percentile(every, 0.99),
                "serve.rps": sum(not request.problems for request in untraced) / elapsed,
                "serve.hot_p50_ms": metrics.percentile(_milliseconds(untraced, hot=True), 0.50),
                "serve.novel_p50_ms": metrics.percentile(novel, 0.50),
                "serve.novel_p99_ms": metrics.percentile(novel, 0.99),
                "serve.server_p50_ms": server_p50,
                "serve.transport_p50_ms": metrics.percentile(every, 0.50) - server_p50,
                "serve.sessions_evicted_n": server_metrics["sessions"]["evicted"],
                "serve.runs_coalesced_n": server_metrics["runs"]["coalesced"],
            }
        )


class Server:
    """One ``repro serve`` process started through ``launch.py``."""

    def __init__(self, bench: Bench, cache: Path, trace_dir: Optional[Path] = None) -> None:
        self.bench = bench
        self.cache = cache
        self.trace_dir = trace_dir
        self.problems: List[str] = []
        self.stats: dict = {}

    def __enter__(self) -> "Server":
        folder = self.bench.fresh("server")
        self.stats_path = folder / "stats.json"
        self.log_path = folder / "stderr.txt"
        command = [sys.executable, str(LAUNCH), str(self.stats_path)]
        if self.trace_dir is not None:
            command += ["--trace", str(self.trace_dir)]
        command += ["--", "serve", "--port", "0", "--quiet", "--cache-dir", str(self.cache)]
        started = time.monotonic()
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            command, cwd=self.bench.root, env=self.bench.env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=self._log,
        )
        try:
            self.port = self._wait_for_port(started + 60.0)
            self._wait_healthy(started + 60.0)
        except BaseException:
            self._stop()
            raise
        self.setup = time.monotonic() - started
        return self

    def _wait_for_port(self, deadline: float) -> int:
        pattern = re.compile(r"listening on http://[^:/]+:(\d+)")
        while time.monotonic() < deadline:
            match = pattern.search(self.log_path.read_text(encoding="utf-8"))
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited early: {self.log_path.read_text()[-500:]}")
            time.sleep(0.002)
        raise RuntimeError("repro serve did not report its port")

    def _wait_healthy(self, deadline: float) -> None:
        while time.monotonic() < deadline:
            try:
                connection = self.connect()
                try:
                    connection.request("GET", "/healthz")
                    if connection.getresponse().status == 200:
                        return
                finally:
                    connection.close()
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("repro serve never answered /healthz")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT)

    def post(self, body: dict):
        """``POST /v1/run`` on a new connection, as urllib and curl do.

        Returns ``(status, body)``; a transport error is status 0.
        """
        connection = self.connect()
        try:
            data = json.dumps(body).encode("utf-8")
            connection.request("POST", "/v1/run", body=data, headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException) as error:
            return 0, str(error).encode("utf-8")
        finally:
            connection.close()

    def get_json(self, path: str) -> dict:
        connection = self.connect()
        try:
            connection.request("GET", path)
            return json.loads(connection.getresponse().read().decode("utf-8"))
        finally:
            connection.close()

    def _stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()

    def __exit__(self, *exc) -> None:
        self._stop()
        if self.proc.returncode != 0:
            self.problems.append(f"serve: server exited {self.proc.returncode}")
        try:
            self.stats = json.loads(self.stats_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.problems.append("serve: no launcher statistics")


def _cold_seconds(requests: List[Request]) -> float:
    return metrics.median([request.seconds for request in requests if request.cold] or [REQUEST_TIMEOUT])


def _milliseconds(requests: List[Request], hot: Optional[bool] = None) -> List[float]:
    """Latencies of every request, or of the hot (``True``) or novel ones."""
    chosen = [r.seconds * 1e3 for r in requests if hot is None or (r.hot is not None) == hot]
    return chosen or [REQUEST_TIMEOUT * 1e3]


def _bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*") if path.is_file()) if directory.is_dir() else 0


def _root_pid(processes: List[dict]) -> Optional[int]:
    for process in processes:
        if any(span["name"] == tracing.ROOT for span in process["spans"]):
            return process["pid"]
    return None


def stamps(root: Path, bench: Bench) -> dict:
    version = re.search(r'__version__ = "([^"]+)"', (root / "src" / "repro" / "__init__.py").read_text())
    sha = "unknown"
    if (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "unknown"
    return {
        "version": version.group(1) if version else "unknown",
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy,
        "cpu_count": os.cpu_count(),
        "repeats": {name: len(values) for name, values in bench.samples.items()},
        "seed": bench.seed,
        "workload": bench.workload,
        "trace": int(bench.trace),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MAIN_LAYER))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    missing = [
        path for path in ("src/repro/cli.py", "benchmarks/reports/fig04_layer_breakdown.txt")
        if not (root / path).is_file()
    ]
    if missing:
        print(f"perfbench: run from a repository checkout; missing {missing}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(root / "src" / "repro"), quiet=1)
    bench = Bench(root, args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        if args.workload == "serve":
            bench.trace_serve() if bench.trace else bench.run_serve()
        else:
            bench.trace_batch() if bench.trace else bench.run_batch()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    if bench.trace:
        bench.values["failed_frac"] = bench.failed / bench.attempted if bench.attempted else 1.0
        table = [(m.name, m.unit, f"moves {m.moves} on {m.on}") for m in metrics.PER_LAYER]
    else:
        table = [(m.name, m.unit, m.meaning) for m in metrics.END_TO_END]
    stamp = stamps(root, bench)
    print(f"perfbench {args.workload}: " + json.dumps(stamp))
    for problem in bench.problems[:20]:
        print(f"FAILED CHECK: {problem}")
    for name, unit, note in table:
        print(f"  {name:28s} {bench.values[name]:>14.6g} {unit:6s} {note}")
    result = {
        "correct": bench.failed == 0 and bench.attempted > 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": bench.values[name], "unit": unit} for name, unit, _ in table},
    }
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {**result, "stamps": stamp, "samples": bench.samples, "problems": bench.problems}
    if bench.trace:
        record["span_self_seconds"] = getattr(bench, "span_totals", {})
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
