"""Command line interface for the PIM-CapsNet reproduction.

Nine subcommands cover the common workflows::

    python -m repro characterize [--benchmarks ...]      # Figs. 4-7 (GPU bottleneck)
    python -m repro evaluate [--benchmarks ...]          # Figs. 15-17 (PIM-CapsNet)
    python -m repro sweep [--spec S | --axis K=V1,V2]    # design-space sweeps (Fig. 18)
    python -m repro optimize --objective M [--axis ...]  # design-space search (DSE)
    python -m repro reproduce [--skip ...] [--only ...]  # everything via the engine
    python -m repro compare --scenario A --scenario B    # N scenarios side by side
    python -m repro workloads list|show NAME             # the workload catalog
    python -m repro serve [--host H] [--port P]          # HTTP/JSON service
    python -m repro check [PATHS ...]                    # static analysis (lint)

``optimize`` searches the grid ``--spec``/``--axis`` declare instead of
enumerating it: repeatable ``--objective METRIC[:max|min]`` options name
dotted metric paths into the experiments' headline numbers
(``fig17.average_speedup``, ``overhead.total_area_mm2``), repeatable
``--constraint METRIC:OP=VALUE`` options restrict the feasible set
(``fig17.average_speedup:within_pct_of_best=5``), and the adaptive drivers
(coordinate descent, successive halving) find the Pareto frontier and the
best probe per objective in a fraction of the grid.  Probes share the sweep
cache, so repeated searches execute zero simulations.

``serve`` starts the long-running HTTP/JSON simulation service
(:mod:`repro.serve`): ``POST /v1/run`` / ``/v1/compare`` answer the same
reports the CLI prints, ``POST /v1/sweep`` streams NDJSON progress events,
and ``GET /healthz`` / ``GET /metrics`` expose liveness and counters.
Handler threads share warm per-scenario sessions plus the persistent disk
caches, identical in-flight requests coalesce onto one underlying run, and
SIGINT/SIGTERM drain in-flight work before exiting 0.

``sweep`` without ``--spec``/``--axis`` prints the classic Fig. 18 frequency
heat map.  With them it runs a generalized design-space sweep: every axis is
a dotted scenario override path with the values to try, the grid is their
cartesian product, eligible grids evaluate as numpy batches (PE frequency x
PEs per vault) and the rest point by point over ``--jobs`` worker
processes, and every simulation is memoized in a persistent on-disk cache
(``--cache-dir``, ``--no-cache``), so repeated and overlapping sweeps are
incremental -- a fully warm sweep executes zero simulations.  Execution
statistics (cache hits/misses, wall clock) go to stderr; stdout stays
byte-identical between cold and warm runs.

Every command prints the same plain-text tables the benchmark harness writes
to ``benchmarks/reports/`` by default; ``--format json`` emits the
experiments' structured ``to_dict()`` output instead, and ``--output PATH``
writes either format to a file.

Every command also accepts a hardware scenario: ``--scenario PATH|PRESET``
loads a preset (``paper-default``, ``v100-host``, ...) or a JSON scenario
file, and repeatable ``--set KEY=VALUE`` options apply dotted-path overrides
(``--set hmc.pe_frequency_mhz=625 --set gpu=V100``).  ``compare`` runs the
selected experiments under several scenarios (one cached simulation context
each) and renders a side-by-side delta table; with a
single ``--scenario`` plus ``--set`` it compares the base scenario against
the overridden variant.

The *workload* axis is just as open as the hardware axis: a repeatable
``--workload PATH`` option on every subcommand merges user-defined capsule
networks (:class:`~repro.workloads.catalog.WorkloadSpec` JSON files) into
the run's catalog, so they appear in every figure, report, sweep and
comparison next to the Table-1 benchmarks; ``repro workloads list`` shows
the resulting catalog and ``repro workloads show NAME`` one spec.

The CLI and ``repro serve`` share one request schema
(:mod:`repro.api.request`): this module parses argv and reads the files
``--scenario``, ``--spec``, ``--objective`` and ``--workload`` name, then
hands the options to the same resolvers a serve body goes through.  Every
rejected input -- a :class:`~repro.api.request.RequestError` or an
unreadable file -- exits non-zero with its message, never a traceback.

``reproduce`` (alias ``run``) shares one simulation context across all
experiments, so identical simulations run once.  Every command except a
``sweep`` grid simulates in the calling thread: the analytic models are pure
Python, so a thread pool would only contend for the interpreter lock.

``check`` runs the repo's own static-analysis rules
(:mod:`repro.analysis.check`) over the given paths (default: ``src`` and
``tests``): determinism, concurrency, consistency and hygiene invariants,
each under a stable rule ID (``repro check --list-rules``).  Exit code 0
means clean, 1 means findings, 2 means a usage error -- CI runs
``repro check --format json --output findings.json`` and archives the
artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.api.request import (
    compare_request,
    optimize_request,
    run_request,
    scenario_from,
    sweep_request,
)
from repro.api.scenario import Scenario, preset_names
from repro.engine.context import SimulationContext
from repro.engine.runner import run_experiments
from repro.workloads.catalog import WorkloadSpec

#: Experiments run by the `characterize` / `evaluate` groups, in report order.
CHARACTERIZE_EXPERIMENTS = ("fig04", "fig05", "fig06", "fig07")
EVALUATE_EXPERIMENTS = ("fig15", "fig16", "fig17")


def _scenario_fields(args: argparse.Namespace) -> dict:
    """The request's scenario fields, with the files the options name read.

    ``--scenario`` names a preset or a scenario file (repeatable on
    ``compare``), ``--workload`` names workload spec files; what the fields
    may hold is :mod:`repro.api.request`'s business.
    """
    fields = {
        "workloads": [WorkloadSpec.from_file(path) for path in args.workload or ()],
        "set": args.set,
    }
    if isinstance(args.scenario, list):
        fields["scenarios"] = [Scenario.load(spec) for spec in args.scenario]
    elif args.scenario:
        fields["scenario"] = Scenario.load(args.scenario)
    return fields


def _space_fields(args: argparse.Namespace) -> dict:
    """The scenario fields plus the ``--spec``/``--axis``/``--benchmarks`` grid."""
    from repro.sweep import SweepSpec

    return {
        **_scenario_fields(args),
        "spec": SweepSpec.load(args.spec) if args.spec else None,
        "axes": _parse_axes(args.axis),
        "benchmarks": args.benchmarks,
    }


def _emit(text: str, output: Optional[str]) -> None:
    """Print the rendered output, or write it to ``--output PATH``."""
    if output:
        path = Path(output)
        try:
            path.write_text(text + "\n", encoding="utf-8")
        except OSError as error:
            raise SystemExit(f"cannot write {path}: {error}")
        print(f"wrote {path}")
    else:
        print(text)


def _run_and_emit(
    args: argparse.Namespace, fields: dict, combined: bool = False
) -> int:
    """Run a selection of experiments and emit text or JSON output.

    ``fields`` selects the experiments and benchmarks (see
    :func:`repro.api.request.run_request`).  ``combined`` picks the
    `reproduce`-style report (sections with ``===`` separators); otherwise
    reports are joined with a blank line, preserving the classic
    `characterize`/`evaluate` layout byte-for-byte.
    """
    scenario, experiments, benchmarks = run_request({**_scenario_fields(args), **fields})
    disk_cache = model_cache = None
    if not getattr(args, "no_cache", False):
        # Imported here: only experiment execution needs the cache layer.
        from repro.engine.diskcache import SimulationCache, TrainedModelCache

        cache_dir = getattr(args, "cache_dir", None)
        disk_cache = SimulationCache(cache_dir)
        model_cache = TrainedModelCache(cache_dir)
    context = SimulationContext(
        scenario=scenario, disk_cache=disk_cache, model_cache=model_cache
    )
    result = run_experiments(only=experiments, benchmarks=benchmarks, context=context)
    if disk_cache is not None:
        disk_cache.flush()
    if args.format == "json":
        text = json.dumps(result.to_dict(), indent=2)
    elif combined:
        text = result.combined_report()
    else:
        text = "\n\n".join(result.reports.values())
    _emit(text, args.output)
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    fields = {"experiments": CHARACTERIZE_EXPERIMENTS, "benchmarks": args.benchmarks}
    return _run_and_emit(args, fields)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    fields = {"experiments": EVALUATE_EXPERIMENTS, "benchmarks": args.benchmarks}
    return _run_and_emit(args, fields)


def _activate_faults(source: Optional[str]) -> None:
    """Arm a ``--faults`` plan (file or inline JSON) for this process tree."""
    if source is None:
        return
    from repro.faults import FaultPlan, activate

    try:
        plan = FaultPlan.load(source)
    except (OSError, ValueError) as error:
        raise SystemExit(f"invalid --faults plan: {error}") from None
    # Exported so worker subprocesses inherit the same plan.
    activate(plan, export=True)


def _cmd_sweep(args: argparse.Namespace) -> int:
    _activate_faults(args.faults)
    if args.spec or args.axis:
        return _cmd_sweep_grid(args)
    if args.max_attempts is not None:
        raise SystemExit(
            "--max-attempts only applies to queued sweeps (--spec/--axis "
            "with --workers or --resume)"
        )
    return _run_and_emit(args, {"experiments": ["fig18"], "benchmarks": args.benchmarks})


def _cmd_sweep_grid(args: argparse.Namespace) -> int:
    """``repro sweep --spec PATH|PRESET`` / ``--axis KEY=V1,V2,...``."""
    # Imported here: only the generalized sweep needs the sweep engine.
    from repro.sweep import SweepRunner, run_queued_sweep

    queued = args.workers is not None or args.resume
    if args.max_attempts is not None and not queued:
        raise SystemExit(
            "--max-attempts only applies to queued sweeps "
            "(add --workers or --resume)"
        )
    base, spec, _ = sweep_request(_space_fields(args), name="cli-sweep")
    try:
        if queued:
            queued_options = {}
            if args.max_attempts is not None:
                queued_options["max_attempts"] = args.max_attempts
            result = run_queued_sweep(
                spec,
                base,
                workers=args.workers if args.workers is not None else 1,
                resume=args.resume,
                shard_size=args.shard_size,
                workdir=args.workdir,
                cache_dir=args.cache_dir,
                use_cache=not args.no_cache,
                backend=args.backend,
                verify=args.verify,
                **queued_options,
            )
        else:
            result = SweepRunner(
                spec,
                base,
                jobs=args.jobs,
                cache_dir=args.cache_dir,
                use_cache=not args.no_cache,
                backend=args.backend,
                verify=args.verify,
            ).run()
    except (FileNotFoundError, RuntimeError) as error:
        raise SystemExit(str(error)) from None
    if args.format == "json":
        # to_jsonable keeps the dump loadable everywhere: non-finite floats
        # (inf speedups on degenerate grids) become null instead of the
        # non-standard `Infinity` token json.dumps would emit.
        from repro.engine.serialize import to_jsonable

        text = json.dumps(to_jsonable(result.to_dict()), indent=2)
    else:
        text = result.format_report()
    _emit(text, args.output)
    # Execution statistics go to stderr so stdout/--output stays
    # byte-identical between cold and warm runs.
    print(result.describe_stats(), file=sys.stderr)
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    """``repro optimize``: adaptive design-space search over a sweep grid."""
    # Imported here: only this subcommand needs the optimize subsystem.
    from repro.engine.serialize import to_jsonable
    from repro.optimize import ObjectiveSpec, OptimizeDriver

    # A single --objective naming an existing file loads a full JSON
    # objective spec; otherwise every --objective is a METRIC[:max|min] path.
    objectives = args.objective
    if objectives and len(objectives) == 1 and Path(objectives[0]).exists():
        objectives = ObjectiveSpec.from_file(objectives[0])
    fields = {
        **_space_fields(args),
        "objectives": objectives,
        "constraints": args.constraint,
        "budget": args.budget,
        "driver": args.driver,
        "refine": args.refine,
    }
    base, space, objective, budget, driver, refine = optimize_request(
        fields, name="cli-optimize"
    )
    search = OptimizeDriver(
        objective,
        space,
        base,
        budget=budget,
        driver=driver,
        refine=refine,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
    )
    try:
        result = search.run()
    except RuntimeError as error:
        raise SystemExit(str(error)) from None
    if args.format == "json":
        text = json.dumps(to_jsonable(result.to_dict()), indent=2)
    else:
        text = result.format_report()
    _emit(text, args.output)
    # Execution statistics go to stderr so stdout/--output stays
    # byte-identical between cold and warm runs.
    print(result.describe_stats(), file=sys.stderr)
    return 0


def _parse_axes(assignments: Optional[List[str]]) -> Optional[dict]:
    """The ``--axis KEY=V1,V2,...`` options as one ``{key: values}`` mapping."""
    if not assignments:
        return None
    expected = "expected KEY=V1,V2,... (e.g. --axis hmc.pe_frequency_mhz=312.5,625,1250)"
    axes: dict = {}
    for assignment in assignments:
        # Split on the FIRST '=' only: axis values may themselves contain '='.
        key, sep, raw = str(assignment).partition("=")
        key = key.strip()
        if not sep or not key:
            raise SystemExit(f"invalid --axis {assignment!r}; {expected}")
        values = [_parse_axis_value(part.strip()) for part in raw.split(",") if part.strip()]
        if not values:
            raise SystemExit(f"--axis {key!r} has no values; {expected}")
        if key in axes:
            raise SystemExit(
                f"duplicate --axis key {key!r}; merge the values into one "
                f"--axis {key}=V1,V2,..."
            )
        axes[key] = values
    return axes


def _parse_axis_value(text: str):
    """Coerce a CLI axis value: int, then float, then bare string."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            continue
    return text


def _cmd_reproduce(args: argparse.Namespace) -> int:
    fields = {"experiments": args.only, "skip": args.skip, "benchmarks": args.benchmarks}
    return _run_and_emit(args, fields, combined=True)


def _cmd_compare(args: argparse.Namespace) -> int:
    # Imported here: compare is the only subcommand needing the session layer.
    from repro.api.session import compare_scenarios

    fields = {
        **_scenario_fields(args),
        "experiments": args.only,
        "skip": args.skip,
        "benchmarks": args.benchmarks,
    }
    scenarios, only, skip, benchmarks = compare_request(fields)
    comparison = compare_scenarios(scenarios, only=only, skip=skip, benchmarks=benchmarks)
    if args.format == "json":
        text = json.dumps(comparison.to_dict(), indent=2)
    else:
        text = comparison.format_report()
    _emit(text, args.output)
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    """``repro workloads list`` / ``repro workloads show NAME``."""
    # Imported here: only this subcommand renders catalog tables.
    from repro.analysis.tables import format_table

    if args.action == "show" and not args.name:
        raise SystemExit("workloads show requires a workload NAME")
    catalog = scenario_from(_scenario_fields(args)).catalog
    if args.action == "show":
        try:
            spec = catalog.get(args.name)
        except KeyError as error:
            raise SystemExit(str(error.args[0])) from None
        if args.format == "json":
            text = json.dumps(spec.to_dict(), indent=2)
        else:
            text = "\n".join(
                [
                    spec.describe(),
                    f"  dataset:            {spec.dataset_name} "
                    f"{spec.dataset_spec.image_shape}, {spec.dataset_spec.num_classes} classes"
                    + (" (custom)" if spec.is_custom_dataset else ""),
                    f"  batch size:         {spec.batch_size}",
                    f"  low capsules:       {spec.num_low_capsules} x {spec.low_dim}",
                    f"  high capsules:      {spec.num_high_capsules} x {spec.high_dim}",
                    f"  routing:            {spec.routing.value}, "
                    f"{spec.routing_iterations} iterations",
                    f"  network scale:      {spec.network_scale:g}",
                ]
            )
    else:
        if args.format == "json":
            text = json.dumps([spec.to_dict() for spec in catalog.specs()], indent=2)
        else:
            text = format_table(
                headers=["Workload", "Dataset", "BS", "L", "H", "CL", "CH", "Routing", "Iter"],
                rows=[
                    [
                        spec.name,
                        spec.dataset_name + ("*" if spec.is_custom_dataset else ""),
                        spec.batch_size,
                        spec.num_low_capsules,
                        spec.num_high_capsules,
                        spec.low_dim,
                        spec.high_dim,
                        spec.routing.value,
                        spec.routing_iterations,
                    ]
                    for spec in catalog.specs()
                ],
                title=f"Workload catalog ({len(catalog)} networks; * = custom dataset)",
            )
    _emit(text, args.output)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the HTTP/JSON service until drained shutdown."""
    # Imported here: only this subcommand needs the serve subsystem.
    from repro.serve import ReproServer, ServeConfig

    _activate_faults(args.faults)
    scenario = scenario_from(_scenario_fields(args))
    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            scenario=scenario,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
            max_sessions=args.max_sessions,
            drain_timeout=args.drain_timeout,
            quiet=args.quiet,
            max_inflight=args.max_inflight,
            request_timeout=args.request_timeout,
        )
        server = ReproServer(config)
    except OSError as error:
        raise SystemExit(str(error)) from None
    print(
        f"repro serve listening on {server.url} "
        f"(base scenario {scenario.name!r}; SIGTERM/Ctrl-C drains and exits)",
        file=sys.stderr,
    )
    return server.serve_forever()


def _positive_int(text: str) -> int:
    """Argparse type for counts (``--jobs``, ``--workers``, ...): a strictly
    positive integer, so zero and negative values are rejected up front with
    a clear message instead of being clamped deep inside the engine.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer (1 = serial), got {value}"
        )
    return value


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format: plain-text tables (default) or structured JSON",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the output to PATH instead of stdout",
    )


def _add_cache_options(parser: argparse.ArgumentParser) -> None:
    """Persistent-cache options shared by the experiment-running commands.

    ``sweep`` declares its own copies (same flags) because it threads them
    into the sweep runner rather than a simulation context.
    """
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help=(
            "persistent cache root for simulation results and trained "
            "CapsNet models (default: $REPRO_CACHE_DIR or ~/.cache/repro)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help=(
            "disable the persistent caches for this run (table5 then always "
            "retrains its networks)"
        ),
    )


def _add_scenario_options(parser: argparse.ArgumentParser, repeatable: bool = False) -> None:
    if repeatable:
        parser.add_argument(
            "--scenario",
            action="append",
            default=None,
            metavar="PATH|PRESET",
            help=(
                "hardware scenario to compare (repeatable): a preset "
                f"({', '.join(preset_names())}) or a JSON scenario file"
            ),
        )
    else:
        parser.add_argument(
            "--scenario",
            default=None,
            metavar="PATH|PRESET",
            help=(
                "hardware scenario: a preset "
                f"({', '.join(preset_names())}) or a JSON scenario file "
                "(paper-default when omitted)"
            ),
        )
    parser.add_argument(
        "--workload",
        action="append",
        default=None,
        metavar="PATH",
        help=(
            "workload spec JSON file merged into the run's catalog, "
            "repeatable; the networks run alongside the Table-1 benchmarks"
        ),
    )
    parser.add_argument(
        "--set",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        help=(
            "dotted-path scenario override, repeatable "
            "(e.g. --set hmc.pe_frequency_mhz=625 --set gpu=V100)"
        ),
    )


def _cmd_check(args: argparse.Namespace) -> int:
    """``repro check``: run the static-analysis rules (exit 1 on findings)."""
    # Imported here: only this subcommand needs the checker.
    from repro.analysis.check import format_rule_table, run_check

    if args.list_rules:
        _emit(format_rule_table(), args.output)
        return 0
    paths = args.paths or ["src", "tests"]
    try:
        result = run_check(paths, select=args.select, ignore=args.ignore)
    except (ValueError, FileNotFoundError) as error:
        print(f"repro check: {error}", file=sys.stderr)
        return 2
    text = result.format_json() if args.format == "json" else result.format_text()
    _emit(text, args.output)
    return 0 if result.ok(max_severity=args.severity) else 1


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser.

    Building the parser is side-effect free: experiment names are validated
    against the registry only after parsing, so startup never imports the
    experiment modules.
    """
    # Imported here (cheap -- repro/__init__ pulls no experiment modules)
    # so --version always matches the installed package.
    from repro import __version__

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    characterize = subparsers.add_parser(
        "characterize", help="GPU characterization (Figs. 4-7)"
    )
    characterize.add_argument("--benchmarks", nargs="*", default=None)
    _add_scenario_options(characterize)
    _add_output_options(characterize)
    _add_cache_options(characterize)
    characterize.set_defaults(func=_cmd_characterize)

    evaluate = subparsers.add_parser("evaluate", help="PIM-CapsNet evaluation (Figs. 15-17)")
    evaluate.add_argument("--benchmarks", nargs="*", default=None)
    _add_scenario_options(evaluate)
    _add_output_options(evaluate)
    _add_cache_options(evaluate)
    evaluate.set_defaults(func=_cmd_evaluate)

    sweep = subparsers.add_parser(
        "sweep",
        help=(
            "design-space sweep: --spec/--axis run a grid of scenario "
            "variants (vectorized or process-parallel, persistently "
            "cached); without them the classic Fig. 18 frequency sweep runs"
        ),
    )
    sweep.add_argument("--benchmarks", nargs="*", default=None)
    sweep.add_argument(
        "--spec",
        default=None,
        metavar="PATH|PRESET",
        help=(
            "sweep specification: a preset (fig18-frequency) or a JSON "
            "sweep-spec file"
        ),
    )
    sweep.add_argument(
        "--axis",
        action="append",
        default=None,
        metavar="KEY=V1,V2,...",
        help=(
            "swept scenario axis, repeatable; the grid is the cartesian "
            "product of all axes (e.g. --axis hmc.pe_frequency_mhz=312.5,625,1250)"
        ),
    )
    sweep.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help=(
            "persistent simulation cache root (default: $REPRO_CACHE_DIR "
            "or ~/.cache/repro)"
        ),
    )
    sweep.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent simulation cache for this run",
    )
    sweep.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "worker processes for grids evaluated point by point (1 = in "
            "this process; default: bounded CPU count); vectorized grids "
            "and the classic Fig. 18 sweep ignore it"
        ),
    )
    sweep.add_argument(
        "--backend",
        choices=("auto", "vectorized", "scalar"),
        default="auto",
        help=(
            "evaluation backend (default auto: batch PE frequencies and PE "
            "counts through numpy when the sweep is eligible, bit-exact with the "
            "scalar path; 'vectorized' demands it, 'scalar' forbids it)"
        ),
    )
    sweep.add_argument(
        "--verify",
        choices=("full", "sample", "off"),
        default="sample",
        help=(
            "vectorized equivalence gate: re-simulate freshly computed "
            "points through the scalar path and require exact equality "
            "(default sample: first+last fresh frequency per PE count's plane)"
        ),
    )
    sweep.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "run through the sharded work queue with N worker processes "
            "(resumable; workers coordinate via lease files only)"
        ),
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume a killed/incomplete queued sweep: completed shards are "
            "reused, only missing ones execute"
        ),
    )
    sweep.add_argument(
        "--shard-size",
        type=_positive_int,
        default=None,
        metavar="N",
        help="grid points per work-queue shard (default 256)",
    )
    sweep.add_argument(
        "--workdir",
        default=None,
        metavar="PATH",
        help=(
            "work-queue directory (default: content-addressed dir under "
            "the cache root, so --resume finds the previous run by itself)"
        ),
    )
    sweep.add_argument(
        "--max-attempts",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "queued sweeps only: attempts before a crashing (poison) shard "
            "is marked failed and the sweep completes with a partial-results "
            "report (default 3)"
        ),
    )
    sweep.add_argument(
        "--faults",
        default=None,
        metavar="PATH|JSON",
        help=(
            "arm a deterministic fault-injection plan (JSON file or inline "
            "object; exported to worker processes) -- for testing the "
            "sweep's crash-consistency story"
        ),
    )
    _add_scenario_options(sweep)
    _add_output_options(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    optimize = subparsers.add_parser(
        "optimize",
        help=(
            "design-space search: find the best scenario variants under "
            "--objective metrics (Pareto frontier, constraints, adaptive "
            "drivers) without enumerating the whole grid"
        ),
    )
    optimize.add_argument(
        "--objective",
        action="append",
        default=None,
        metavar="METRIC[:max|min]",
        help=(
            "optimization objective, repeatable: a dotted metric path into "
            "the experiments' headline numbers (maximize by default, e.g. "
            "--objective fig17.average_speedup "
            "--objective overhead.total_area_mm2:min); a single PATH loads "
            "a JSON objective-spec file instead"
        ),
    )
    optimize.add_argument(
        "--constraint",
        action="append",
        default=None,
        metavar="METRIC:OP=VALUE",
        help=(
            "feasibility constraint, repeatable; OP is within_pct_of_best, "
            "min or max (e.g. "
            "--constraint fig17.average_speedup:within_pct_of_best=5)"
        ),
    )
    optimize.add_argument(
        "--spec",
        default=None,
        metavar="PATH|PRESET",
        help=(
            "search space: a sweep preset (fig18-frequency) or a JSON "
            "sweep-spec file; --axis options extend it"
        ),
    )
    optimize.add_argument(
        "--axis",
        action="append",
        default=None,
        metavar="KEY=V1,V2,...",
        help=(
            "searched scenario axis, repeatable; the candidate grid is the "
            "cartesian product of all axes"
        ),
    )
    optimize.add_argument(
        "--budget",
        type=_positive_int,
        default=None,
        metavar="N",
        help="maximum number of probes (default: unlimited)",
    )
    optimize.add_argument(
        "--driver",
        choices=("auto", "exhaustive", "halving", "descent"),
        default="auto",
        help=(
            "search driver (default auto: coordinate descent on numeric "
            "axes, successive halving otherwise; exhaustive probes the "
            "whole grid)"
        ),
    )
    optimize.add_argument(
        "--refine",
        type=int,
        default=1,
        metavar="N",
        help=(
            "bracketing-refinement levels after coordinate descent: probe "
            "midpoints between the winner and its grid neighbours "
            "(0 disables; default 1)"
        ),
    )
    optimize.add_argument("--benchmarks", nargs="*", default=None)
    optimize.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help=(
            "persistent simulation cache root shared with sweeps "
            "(default: $REPRO_CACHE_DIR or ~/.cache/repro)"
        ),
    )
    optimize.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent simulation cache for this run",
    )
    _add_scenario_options(optimize)
    _add_output_options(optimize)
    optimize.set_defaults(func=_cmd_optimize)

    reproduce = subparsers.add_parser(
        "reproduce", aliases=["run"], help="run every experiment"
    )
    reproduce.add_argument("--skip", nargs="*", default=[])
    reproduce.add_argument("--only", nargs="*", default=None)
    reproduce.add_argument("--benchmarks", nargs="*", default=None)
    _add_scenario_options(reproduce)
    _add_output_options(reproduce)
    _add_cache_options(reproduce)
    reproduce.set_defaults(func=_cmd_reproduce)

    compare = subparsers.add_parser(
        "compare", help="run the suite under N scenarios and diff the results"
    )
    compare.add_argument("--skip", nargs="*", default=[])
    compare.add_argument("--only", nargs="*", default=None)
    compare.add_argument("--benchmarks", nargs="*", default=None)
    _add_scenario_options(compare, repeatable=True)
    _add_output_options(compare)
    compare.set_defaults(func=_cmd_compare)

    serve = subparsers.add_parser(
        "serve",
        help=(
            "run the HTTP/JSON simulation service (request coalescing, "
            "shared warm caches, streaming sweep progress)"
        ),
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default 127.0.0.1; use 0.0.0.0 to serve remotely)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8752,
        metavar="N",
        help="TCP port (default 8752; 0 picks a free port)",
    )
    serve.add_argument(
        "--max-sessions",
        type=_positive_int,
        default=8,
        metavar="N",
        help="warm per-scenario sessions kept in the LRU (default 8)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="seconds shutdown waits for in-flight requests (default 30)",
    )
    serve.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-request access logging on stderr",
    )
    serve.add_argument(
        "--max-inflight",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "admit at most N concurrent work (POST) requests; extra ones "
            "get 503 + Retry-After instead of queueing (default: unlimited)"
        ),
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "answer run/compare requests that exceed this deadline with a "
            "504; the work continues server-side and warms the caches "
            "(default: no timeout)"
        ),
    )
    serve.add_argument(
        "--faults",
        default=None,
        metavar="PATH|JSON",
        help=(
            "arm a deterministic fault-injection plan (JSON file or inline "
            "object) -- for testing the service's degradation story"
        ),
    )
    _add_scenario_options(serve)
    _add_cache_options(serve)
    serve.set_defaults(func=_cmd_serve)

    workloads = subparsers.add_parser(
        "workloads", help="list or inspect the run's workload catalog"
    )
    workloads.add_argument(
        "action", choices=("list", "show"), help="list the catalog or show one spec"
    )
    workloads.add_argument(
        "name", nargs="?", default=None, help="workload name (for `show`)"
    )
    _add_scenario_options(workloads)
    _add_output_options(workloads)
    workloads.set_defaults(func=_cmd_workloads)

    check = subparsers.add_parser(
        "check",
        help=(
            "static analysis: determinism/concurrency/consistency/hygiene "
            "rules with stable IDs (exit 0 clean, 1 findings, 2 usage)"
        ),
    )
    check.add_argument(
        "paths",
        nargs="*",
        default=None,
        metavar="PATH",
        help=(
            "files or directories to check -- .py/.md/.json files, "
            "directories recurse (default: src tests)"
        ),
    )
    check.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="RULE",
        help="check only the named rule(s), repeatable (e.g. --select RPR-D001)",
    )
    check.add_argument(
        "--ignore",
        action="append",
        default=None,
        metavar="RULE",
        help="skip the named rule(s), repeatable",
    )
    check.add_argument(
        "--severity",
        choices=("error", "warning"),
        default="warning",
        help=(
            "findings that fail the check: 'warning' (default, any finding "
            "fails) or 'error' (warnings pass)"
        ),
    )
    check.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table (IDs, families, severities) and exit",
    )
    check.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format: one line per finding (default) or structured JSON",
    )
    check.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the report to PATH instead of stdout (the CI artifact)",
    )
    check.set_defaults(func=_cmd_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    A rejected input -- a :class:`~repro.api.request.RequestError`, or a file
    an option names that cannot be read or parsed -- is a ``ValueError``, and
    exits with its message instead of a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except ValueError as error:
        raise SystemExit(str(error)) from None


if __name__ == "__main__":  # pragma: no cover - module CLI
    raise SystemExit(main())
