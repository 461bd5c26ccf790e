"""Spans recorded from outside the program, and the arithmetic over them.

The benchmark never edits ``src/repro``: a traced pass starts the CLI from
``launch.py``, which calls :func:`install` to replace a fixed list of public
``repro`` functions and methods with timing wrappers before running the
entry point.  Each wrapper call records one span -- name, start, end, parent
span and, inside ``repro serve``, the id of the HTTP request it belongs to
-- in this process's memory.  :meth:`Recorder.dump` writes them out once at
the end; worker processes forked by a sweep inherit the wrappers and dump
their own file when they exit.

Span names are the per-layer metric names without their ``_s`` suffix, so a
layer's metric is the sum of the *self time* of its spans: a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import itertools
import json
import multiprocessing.util
import os
import sys
import threading
import time
import weakref
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Field order of one span record (kept as a list while the span is open).
FIELDS = ("id", "parent", "name", "start", "end", "thread", "request")

#: Name of the span around the whole CLI entry point of a pass.
ROOT = "cli.main"


class Recorder:
    """Per-process span and counter store (thread-safe appends)."""

    def __init__(self) -> None:
        self._reset()
        self.out_dir: Optional[Path] = None
        #: Convolutions owned by a PrimaryCaps layer (their time is primary's).
        self.primary_convs: "weakref.WeakSet" = weakref.WeakSet()
        multiprocessing.util.register_after_fork(self, Recorder._after_fork)

    def _reset(self) -> None:
        self.records: List[list] = []
        self.counters: Dict[str, float] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._lock = threading.Lock()
        self.pid = os.getpid()

    def _after_fork(self) -> None:
        # A forked sweep worker starts empty (the parent's spans stay with
        # the parent) and writes its own spans when multiprocessing exits it.
        self._reset()
        multiprocessing.util.Finalize(None, self.dump, exitpriority=0)

    def stack(self) -> List[list]:
        """The calling thread's open spans, innermost last."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn: Callable, name, request: bool = False, after=None) -> Callable:
        """``fn`` recording one span per call.

        ``name`` is a span name or a callable choosing it from the call's
        arguments.  ``request`` starts a new request id for the span tree
        below it; ``after(args, result)`` runs once the call returned.
        """
        recorder = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder.stack()
            parent = stack[-1] if stack else None
            if request:
                rid = f"{recorder.pid}-{next(recorder._requests)}"
            else:
                rid = parent[6] if parent is not None else None
            record = [
                next(recorder._ids),
                parent[0] if parent is not None else None,
                name if isinstance(name, str) else name(args),
                0.0,
                0.0,
                threading.get_ident(),
                rid,
            ]
            stack.append(record)
            record[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
                recorder.records.append(record)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def propagate(self, submit: Callable) -> Callable:
        """``ThreadPoolExecutor.submit`` whose tasks run under the caller's span.

        Records no span itself: the open span of the submitting thread
        becomes the parent of the spans its task records in a pool thread,
        so experiments run concurrently under ``Session.run`` are its
        children and share its request id.
        """
        recorder = self

        @functools.wraps(submit)
        def wrapper(pool, fn, /, *args, **kwargs):
            stack = recorder.stack()
            if not stack:
                return submit(pool, fn, *args, **kwargs)
            parent = stack[-1]

            def task(*task_args, **task_kwargs):
                own = recorder.stack()
                own.append(parent)
                try:
                    return fn(*task_args, **task_kwargs)
                finally:
                    own.pop()

            return submit(pool, task, *args, **kwargs)

        return wrapper

    def dump(self) -> None:
        """Write this process's spans and counters to ``out_dir``."""
        if self.out_dir is None:
            return
        payload = {
            "pid": self.pid,
            "spans": [dict(zip(FIELDS, record)) for record in self.records],
            "counters": self.counters,
        }
        (self.out_dir / f"spans-{self.pid}.json").write_text(json.dumps(payload), encoding="utf-8")


# ------------------------------------------------------------------ install


def _patch(owner, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Replace ``owner.attr`` (function, method, classmethod) by ``make(fn)``."""
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in klass.__dict__:
                raw = klass.__dict__[attr]
                break
        else:
            raise AttributeError(f"{owner.__name__}.{attr}")
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attr, type(raw)(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))
        return
    original = getattr(owner, attr)
    wrapped = make(original)
    # Rebind every `from module import name` copy inside the package too.
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and (
            getattr(module, attr, None) is original
        ):
            setattr(module, attr, wrapped)


def install(recorder: Recorder) -> None:
    """Wrap the public ``repro`` calls behind every per-layer metric."""
    mods = {
        name: importlib.import_module(f"repro.{name}")
        for name in (
            "api.scenario",
            "api.session",
            "capsnet.datasets",
            "capsnet.kernels",
            "capsnet.layers",
            "capsnet.model",
            "capsnet.routing",
            "capsnet.training",
            "core.accelerator",
            "engine.context",
            "engine.diskcache",
            "engine.experiment",
            "serve.app",
            "sweep.runner",
            "sweep.spec",
            "sweep.vectorized",
        )
    }
    importlib.import_module("repro.experiments")
    rec = recorder

    def span(name, **options):
        return lambda fn: rec.wrap(fn, name, **options)

    layers = mods["capsnet.layers"]

    def conv(kind):
        return lambda args: (
            f"capsnet.primary_{kind}" if args[0] in rec.primary_convs else f"capsnet.conv_{kind}"
        )

    def tag_primary(init):
        @functools.wraps(init)
        def tagged(self, *args, **kwargs):
            init(self, *args, **kwargs)
            rec.primary_convs.add(self.conv)

        return tagged

    _patch(layers.Conv2D, "forward", lambda fn: rec.wrap(fn, conv("fwd")))
    _patch(layers.Conv2D, "backward", lambda fn: rec.wrap(fn, conv("bwd")))
    _patch(layers.PrimaryCaps, "__init__", tag_primary)
    _patch(layers.PrimaryCaps, "forward", span("capsnet.primary_fwd"))
    _patch(layers.PrimaryCaps, "backward", span("capsnet.primary_bwd"))
    _patch(mods["capsnet.kernels"], "predict_vectors", span("capsnet.predict"))
    _patch(mods["capsnet.routing"].DynamicRouting, "__call__", span("capsnet.routing"))
    _patch(layers.CapsuleLayer, "backward", span("capsnet.caps_bwd"))
    _patch(
        mods["capsnet.training"].Trainer,
        "train_step",
        span("capsnet.step", after=lambda args, result: rec.count("capsnet.train_steps_n")),
    )
    _patch(mods["capsnet.datasets"], "dataset_for_spec", span("capsnet.dataset"))
    _patch(mods["capsnet.model"], "evaluate_accuracies", span("capsnet.eval"))

    diskcache = mods["engine.diskcache"]

    def model_lookup(args, result):
        rec.count("cache.model_misses_n" if result is None else "cache.model_hits_n")

    def sim_lookup(args, result):
        rec.count("cache.sim_misses_n" if result is None else "cache.sim_hits_n")

    def sim_lookups(args, results):
        misses = sum(1 for result in results if result is None)
        rec.count("cache.sim_misses_n", misses)
        rec.count("cache.sim_hits_n", len(results) - misses)

    _patch(diskcache.TrainedModelCache, "get", span("cache.model_get", after=model_lookup))
    _patch(diskcache.TrainedModelCache, "put", span("cache.model_put"))
    _patch(diskcache.SimulationCache, "get", span("cache.sim_get", after=sim_lookup))
    _patch(diskcache.SimulationCache, "get_many", span("cache.sim_get", after=sim_lookups))
    _patch(diskcache.SimulationCache, "put", span("cache.sim_put"))
    _patch(diskcache.SimulationCache, "put_many", span("cache.sim_put"))
    _patch(diskcache.SimulationCache, "flush", span("cache.sim_flush"))

    engine_experiment = mods["engine.experiment"]
    for name in engine_experiment.experiment_names():
        klass = type(engine_experiment.get_experiment(name))
        _patch(klass, "run", span(f"experiments.{name}"))
        _patch(klass, "format_report", span("report.render"))

    accelerator = mods["core.accelerator"].PIMCapsNet

    def simulate(fn):
        timed = rec.wrap(fn, "core.simulate")

        def counted(model, *args, **kwargs):
            # Only the outermost simulate call counts: nested routing
            # simulations of an end-to-end call are inside its delta.
            stack = rec.stack()
            outermost = not stack or stack[-1][2] != "core.simulate"
            before = model.simulations_executed
            result = timed(model, *args, **kwargs)
            if outermost:
                rec.count("engine.simulations_n", model.simulations_executed - before)
            return result

        return functools.wraps(fn)(counted)

    _patch(accelerator, "__init__", span("core.model_build", after=lambda a, r: rec.count("core.models_n")))
    _patch(accelerator, "simulate_routing", simulate)
    _patch(accelerator, "simulate_end_to_end", simulate)

    context = mods["engine.context"].SimulationContext
    _patch(context, "routing", span("engine.context"))
    _patch(context, "end_to_end", span("engine.context"))

    scenario = mods["api.scenario"].Scenario
    for attr in ("from_dict", "to_dict", "with_set", "hardware_hash"):
        _patch(scenario, attr, span("api.scenario"))
    _patch(mods["api.session"].Session, "run", span("api.session_run"))

    sweep_spec = mods["sweep.spec"].SweepSpec
    _patch(sweep_spec, "assignments", span("sweep.expand"))
    _patch(sweep_spec, "scenario_for", span("sweep.expand"))
    _patch(mods["sweep.runner"].SweepResult, "format_report", span("sweep.render"))
    _patch(mods["sweep.vectorized"], "evaluate_grid", span("sweep.vectorized"))

    handler = mods["serve.app"].ReproRequestHandler
    _patch(handler, "do_GET", span("serve.request", request=True))
    _patch(handler, "do_POST", span("serve.request", request=True))
    _patch(concurrent.futures.ThreadPoolExecutor, "submit", rec.propagate)


# ----------------------------------------------------------------- analysis


def load(directory: Path) -> List[dict]:
    """Every process dump in ``directory`` (main process and workers)."""
    return [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(Path(directory).glob("spans-*.json"))
    ]


def _union(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_times(spans: Sequence[dict]) -> Dict[str, float]:
    """Seconds of self time per span name, over one process's spans.

    Children may run concurrently (an experiment pool under one
    ``Session.run``), so the time they cover is the union of their intervals.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    totals: Dict[str, float] = {}
    for span in spans:
        own = (span["end"] - span["start"]) - _union(children.get(span["id"], ()))
        totals[span["name"]] = totals.get(span["name"], 0.0) + max(0.0, own)
    return totals


def merged_self_times(processes: Iterable[dict]) -> Dict[str, float]:
    """:func:`self_times` summed over several processes."""
    totals: Dict[str, float] = {}
    for process in processes:
        for name, seconds in self_times(process["spans"]).items():
            totals[name] = totals.get(name, 0.0) + seconds
    return totals


def merged_counters(processes: Iterable[dict]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for process in processes:
        for name, value in process["counters"].items():
            totals[name] = totals.get(name, 0.0) + value
    return totals


#: Spans whose own time is not a layer's: each experiment's ``run``.
CONTAINERS = ("experiments.",)


def coverage(spans: Sequence[dict]) -> float:
    """Share of the root span's wall time inside named layer spans.

    Layer spans are every span except the root and the containers (each
    experiment's ``run``, whose own time is not a layer); their intervals
    are merged across threads, so concurrent experiments are not counted
    twice.
    """
    roots = [span for span in spans if span["name"] == ROOT]
    if not roots:
        return 0.0
    root = roots[0]
    lo, hi = root["start"], root["end"]
    layers = (
        (max(lo, span["start"]), min(hi, span["end"]))
        for span in spans
        if span["name"] != ROOT and not span["name"].startswith(CONTAINERS)
    )
    return _union(layers) / (hi - lo) if hi > lo else 0.0
