"""One request schema for both front ends: resolve and validate their inputs.

``repro`` (:mod:`repro.cli`) and ``repro serve`` (:mod:`repro.serve.app`)
take the same inputs under the same field names -- a serve body *is* the
CLI's options.  A front end collects one request's fields into a mapping
(the CLI from argv, serve from the JSON body) and calls the resolver of
its command:

* :func:`run_request` -- ``scenario``, ``workloads``, ``set``,
  ``experiments``, ``skip`` and ``benchmarks``;
* :func:`compare_request` -- the same with ``scenarios`` (a list) in place
  of ``scenario``;
* :func:`sweep_request` -- the scenario fields, ``spec``, ``axes`` and
  ``benchmarks``;
* :func:`optimize_request` -- the sweep fields plus ``objective`` (or
  ``objectives``), ``constraints``, ``budget``, ``driver`` and ``refine``.

``scenario`` is a preset name, an inline scenario object or a
:class:`~repro.api.scenario.Scenario` the CLI loaded; inline ``workloads``
merge next and ``set`` overrides apply last.  Every rejection raises
:class:`RequestError` carrying a stable code (``unknown_scenario``,
``invalid_override``, ``unknown_benchmark``, ...): the CLI prints its
message and exits non-zero, serve answers a structured 400.

Nothing here reads a file.  The CLI reads the files its options name
before their contents arrive here, and a workload entry of a request must
be an inline spec object, at the top level and inside an inline scenario.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Mapping, NamedTuple, Optional, Sequence, TypeVar

from repro.api.scenario import Scenario
from repro.engine.runner import select_experiments
from repro.optimize.objective import ObjectiveSpec
from repro.sweep.spec import SweepAxis, SweepSpec, sweep_preset_names, sweep_presets
from repro.workloads.catalog import WorkloadSpec

_T = TypeVar("_T")

_SCENARIO_FIELDS = ("scenario", "workloads", "set")
_SPACE_FIELDS = _SCENARIO_FIELDS + ("spec", "axes", "benchmarks")
#: Every field each request kind takes: the schema both front ends share.
FIELDS = {
    "run": _SCENARIO_FIELDS + ("experiments", "skip", "benchmarks"),
    "compare": ("scenarios", "workloads", "set", "experiments", "skip", "benchmarks"),
    "sweep": _SPACE_FIELDS,
    "optimize": _SPACE_FIELDS
    + ("objective", "objectives", "constraints", "budget", "driver", "refine"),
}


class RequestError(ValueError):
    """A rejected request field; ``code`` names the mistake for clients."""

    def __init__(self, message: str, code: str) -> None:
        super().__init__(message)
        self.code = code


class RunRequest(NamedTuple):
    scenario: Scenario
    experiments: List[str]
    benchmarks: Optional[List[str]]


class CompareRequest(NamedTuple):
    scenarios: List[Scenario]
    only: Optional[List[str]]
    skip: Optional[List[str]]
    benchmarks: Optional[List[str]]


class SweepRequest(NamedTuple):
    base: Scenario
    spec: SweepSpec
    benchmarks: Optional[List[str]]


class OptimizeRequest(NamedTuple):
    base: Scenario
    space: SweepSpec
    objective: ObjectiveSpec
    budget: Optional[int]
    driver: str
    refine: int


def run_request(fields: Mapping, default: Optional[Scenario] = None) -> RunRequest:
    """The scenario, experiments and canonical benchmarks of one run."""
    scenario = scenario_from(fields, default)
    experiments = _experiments(fields)
    benchmarks = _benchmarks(_strings(fields, "benchmarks"), scenario)
    return RunRequest(scenario, experiments, benchmarks)


def compare_request(
    fields: Mapping, default: Optional[Scenario] = None
) -> CompareRequest:
    """The compared scenarios: one base plus ``set`` is base vs. variant,
    several bases compare their variants."""
    raw = fields.get("scenarios")
    if raw is not None and (not isinstance(raw, (list, tuple)) or not raw):
        raise RequestError(
            "field 'scenarios' must be a non-empty list of preset names or "
            "scenario objects",
            "invalid_scenario",
        )
    scoped = {"workloads": fields.get("workloads")}
    bases = [_scenario(entry, scoped, default) for entry in raw or [None]]
    overrides = _strings(fields, "set")
    scenarios = bases
    if overrides:
        variants = [_checked("invalid_override", base.with_set, overrides) for base in bases]
        scenarios = bases[:1] + variants if len(bases) == 1 else variants
    if len(scenarios) < 2:
        raise RequestError(
            "compare needs at least two scenarios: name several (repeat "
            "--scenario, or list them in 'scenarios'), or add overrides "
            "(--set, 'set') to compare one against its variant",
            "invalid_scenario",
        )
    _experiments(fields)
    # A restriction must resolve in every compared scenario's catalog; the
    # first scenario's canonical spelling is used for the run.
    names = _strings(fields, "benchmarks")
    benchmarks = [_benchmarks(names, scenario) for scenario in scenarios][0]
    return CompareRequest(
        scenarios, _strings(fields, "experiments"), _strings(fields, "skip"), benchmarks
    )


def sweep_request(
    fields: Mapping, default: Optional[Scenario] = None, *, name: str = "sweep"
) -> SweepRequest:
    """The base scenario and sweep spec; ``name`` labels an axes-only spec.

    ``benchmarks`` replaces the spec's own restriction as given; the
    canonical names come back separately.
    """
    base = scenario_from(fields, default)
    spec = _sweep_spec(fields, name)
    names = _strings(fields, "benchmarks")
    if names:
        spec = dataclasses.replace(spec, benchmarks=tuple(names))
    return SweepRequest(base, spec, _benchmarks(spec.benchmarks, base))


def optimize_request(
    fields: Mapping, default: Optional[Scenario] = None, *, name: str = "sweep"
) -> OptimizeRequest:
    """The search: sweep space, objective with constraints, and driver knobs."""
    base, space, _ = sweep_request(fields, default, name=name)
    objective = _objective(fields)
    budget = fields.get("budget")
    if budget is not None and not _whole(budget, minimum=1):
        raise RequestError("field 'budget' must be a positive integer", "invalid_budget")
    driver = fields.get("driver", "auto")
    if not isinstance(driver, str):
        raise RequestError("field 'driver' must be a string", "invalid_driver")
    refine = fields.get("refine", 1)
    if not _whole(refine, minimum=0):
        raise RequestError(
            "field 'refine' must be a non-negative integer", "invalid_refine"
        )
    return OptimizeRequest(base, space, objective, budget, driver, refine)


def scenario_from(fields: Mapping, default: Optional[Scenario] = None) -> Scenario:
    """The request's scenario: ``scenario``, then ``workloads``, then ``set``.

    Without ``scenario`` the front end's ``default`` applies (the server's
    base scenario; the paper default when ``None``).
    """
    scenario = _scenario(fields.get("scenario"), fields, default)
    overrides = _strings(fields, "set")
    if overrides:
        scenario = _checked("invalid_override", scenario.with_set, overrides)
    return scenario


# ------------------------------------------------------------------ fields


def _checked(code: str, build: Callable[..., _T], *args: object, **kwargs: object) -> _T:
    """``build(...)``, its :class:`ValueError` re-raised under ``code``."""
    try:
        return build(*args, **kwargs)
    except ValueError as error:
        raise RequestError(str(error), code) from None


def _scenario(raw: object, fields: Mapping, default: Optional[Scenario]) -> Scenario:
    """One base scenario with the request's inline workloads merged in."""
    if raw is None:
        scenario = default if default is not None else Scenario.default()
    elif isinstance(raw, Scenario):
        scenario = raw
    elif isinstance(raw, str):
        scenario = _checked("unknown_scenario", Scenario.preset, raw)
    elif isinstance(raw, Mapping):
        _workload_objects(raw.get("workloads"), "scenario.workloads")
        scenario = _checked("invalid_scenario", Scenario.from_dict, raw)
    else:
        raise RequestError(
            "field 'scenario' must be a preset name or a scenario object",
            "invalid_scenario",
        )
    workloads = _workload_objects(fields.get("workloads"), "workloads")
    if workloads:
        scenario = _checked("invalid_workloads", scenario.with_workloads, workloads)
    return scenario


def _workload_objects(value: object, field: str) -> Sequence[object]:
    """Inline workload specs; a string would name a file, so it is refused."""
    if value is None:
        return ()
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(entry, (Mapping, WorkloadSpec)) for entry in value
    ):
        raise RequestError(
            f"field {field!r} must be a list of inline workload spec objects "
            "(a request never names a workload file)",
            "invalid_workloads",
        )
    return value


def _strings(fields: Mapping, field: str) -> Optional[List[str]]:
    """An optional list-of-strings field (``None`` when absent or empty)."""
    value = fields.get(field)
    if value is None:
        return None
    if not isinstance(value, (list, tuple)):
        raise RequestError(f"field {field!r} must be a list of strings", "invalid_field")
    return [str(item) for item in value] or None


def _whole(value: object, minimum: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def _experiments(fields: Mapping) -> List[str]:
    names = _checked(
        "unknown_experiment",
        select_experiments,
        _strings(fields, "experiments"),
        _strings(fields, "skip"),
    )
    if not names:
        raise RequestError(
            "the experiment selection matches no experiments", "empty_selection"
        )
    return names


def _benchmarks(names: Optional[Sequence[str]], scenario: Scenario) -> Optional[List[str]]:
    if not names:
        return None
    return _checked("unknown_benchmark", scenario.catalog.resolve, names)


def _sweep_spec(fields: Mapping, name: str) -> SweepSpec:
    """``spec`` (preset, inline object or loaded spec) extended by ``axes``."""
    raw = fields.get("spec")
    spec: Optional[SweepSpec] = None
    if isinstance(raw, SweepSpec):
        spec = raw
    elif isinstance(raw, str):
        presets = sweep_presets()
        if raw not in presets:
            raise RequestError(
                f"unknown sweep preset {raw!r}; presets: {sweep_preset_names()}",
                "unknown_sweep",
            )
        spec = presets[raw]
    elif isinstance(raw, Mapping):
        spec = _checked("invalid_spec", SweepSpec.from_dict, raw)
    elif raw is not None:
        raise RequestError(
            "field 'spec' must be a sweep preset name or a sweep spec object",
            "invalid_spec",
        )
    axes = fields.get("axes")
    if axes is not None:
        if not isinstance(axes, Mapping) or not axes:
            raise RequestError(
                "field 'axes' must be a non-empty {override-key: [values]} object",
                "invalid_axis",
            )
        extra = tuple(
            _checked("invalid_axis", SweepAxis, str(key), values)
            for key, values in axes.items()
        )
        if spec is None:
            spec = _checked("invalid_axis", SweepSpec, name, extra)
        else:
            spec = _checked("invalid_axis", dataclasses.replace, spec, axes=spec.axes + extra)
    if spec is None:
        raise RequestError(
            "a sweep or search needs a space: 'spec' (--spec PATH|PRESET) "
            "and/or 'axes' (--axis KEY=V1,V2,...)",
            "missing_spec",
        )
    return spec


def _objective(fields: Mapping) -> ObjectiveSpec:
    """``objectives`` (or ``objective``) with ``constraints`` merged in."""
    raw = fields.get("objectives", fields.get("objective"))
    if raw is None:
        raise RequestError(
            "an optimization needs an objective (--objective, 'objective' or "
            "'objectives'): a dotted metric path like 'fig17.average_speedup', "
            "optionally with ':max'/':min', an objective object or spec, or a "
            "list of them",
            "missing_objective",
        )
    constraints = fields.get("constraints")
    if isinstance(constraints, (str, Mapping)):
        constraints = [constraints]
    elif constraints is not None and not isinstance(constraints, (list, tuple)):
        raise RequestError(
            "field 'constraints' must be a constraint (string or object) or a "
            "list of them",
            "invalid_constraint",
        )
    return _checked("invalid_objective", ObjectiveSpec.coerce, raw, constraints=constraints)
