"""Declarative optimization objectives over experiment metric paths.

An :class:`Objective` names one scalar to optimize as a dotted *metric path*
into the headline metrics of the experiment modules -- the same numbers
``repro compare`` aligns -- e.g. ``fig17.average_speedup`` (the paper's
end-to-end speedup), ``fig17.average_energy_saving`` or
``overhead.total_area_mm2`` (the PIM logic area).  A :class:`Constraint`
restricts the feasible set, either with absolute bounds or relative to the
best value observed anywhere in the search (``within_pct_of_best`` -- the
"within 5% of peak fig17 speedup" query of ROADMAP item 3).

:class:`ObjectiveSpec` bundles objectives + constraints into one frozen,
validated, JSON-round-trippable problem statement, mirroring
:class:`~repro.api.scenario.Scenario` and :class:`~repro.sweep.spec.
SweepSpec`::

    spec = ObjectiveSpec.coerce(
        ["overhead.total_area_mm2:min"],
        constraints=["fig17.average_speedup:within_pct_of_best=5"],
    )
    spec.to_file("cheapest.json")
    ObjectiveSpec.from_file("cheapest.json")    # round-trips

:func:`extract_metric` resolves a dotted path against any nested metric
mapping (experiment headline metrics, sweep-point aggregates), and
:func:`metric_paths` enumerates what a mapping offers -- every path error
lists the valid alternatives.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

#: Optimization senses: whether larger or smaller metric values win.
SENSES = ("maximize", "minimize")

_SENSE_ALIASES = {
    "max": "maximize",
    "maximize": "maximize",
    "min": "minimize",
    "minimize": "minimize",
}

#: Constraint operators accepted by :meth:`Constraint.parse`.
CONSTRAINT_OPS = ("within_pct_of_best", "min", "max")


def _canonical_sense(sense: object) -> str:
    resolved = _SENSE_ALIASES.get(str(sense).strip().lower())
    if resolved is None:
        raise ValueError(
            f"unknown sense {sense!r}; choose from {list(SENSES)} (or max/min)"
        )
    return resolved


def _number(value: object, label: str) -> float:
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{label} must be a number, got {value!r}") from None


def _canonical_metric(metric: object) -> str:
    metric = str(metric).strip()
    if not metric or any(not part for part in metric.split(".")):
        raise ValueError(
            f"invalid metric path {metric!r}; expected a dotted path like "
            f"'fig17.average_speedup'"
        )
    return metric


@dataclass(frozen=True)
class Objective:
    """One scalar to optimize: a dotted metric path and a sense."""

    metric: str
    sense: str = "maximize"

    def __post_init__(self) -> None:
        object.__setattr__(self, "metric", _canonical_metric(self.metric))
        object.__setattr__(self, "sense", _canonical_sense(self.sense))

    @classmethod
    def parse(cls, text: str) -> "Objective":
        """Parse the CLI form ``METRIC[:max|min]`` (maximize by default)."""
        text = str(text).strip()
        metric, sep, sense = text.rpartition(":")
        if not sep:
            return cls(metric=text)
        return cls(metric=metric, sense=sense)

    @classmethod
    def from_dict(cls, data: Union[str, Mapping]) -> "Objective":
        """Build from a plain string (``parse`` form) or a mapping."""
        if isinstance(data, str):
            return cls.parse(data)
        if not isinstance(data, Mapping):
            raise ValueError(
                f"an objective must be a string or a mapping, got "
                f"{type(data).__name__}"
            )
        unknown = sorted(set(data) - {"metric", "sense"})
        if unknown:
            raise ValueError(
                f"unknown objective key(s) {unknown}; valid keys: "
                f"['metric', 'sense']"
            )
        if "metric" not in data:
            raise ValueError("an objective needs a 'metric' path")
        return cls(metric=str(data["metric"]), sense=str(data.get("sense", "maximize")))

    def to_dict(self) -> Dict[str, str]:
        """Plain (JSON-ready) form."""
        return {"metric": self.metric, "sense": self.sense}

    @property
    def sign(self) -> float:
        """``+1`` when larger values win, ``-1`` when smaller values win."""
        return 1.0 if self.sense == "maximize" else -1.0

    def scalar(self, value: float) -> float:
        """The value on a higher-is-better scale (search ranks by this)."""
        return self.sign * float(value)

    def describe(self) -> str:
        """Human-readable one-liner (``maximize fig17.average_speedup``)."""
        return f"{self.sense} {self.metric}"


@dataclass(frozen=True)
class Constraint:
    """One feasibility restriction on a metric path.

    Exactly one family of bounds applies: either ``within_pct_of_best``
    (relative to the best value of this metric observed across the whole
    search, in the direction of ``sense``) or absolute ``min_value`` /
    ``max_value`` bounds.
    """

    metric: str
    within_pct_of_best: Optional[float] = None
    min_value: Optional[float] = None
    max_value: Optional[float] = None
    sense: str = "maximize"

    def __post_init__(self) -> None:
        object.__setattr__(self, "metric", _canonical_metric(self.metric))
        object.__setattr__(self, "sense", _canonical_sense(self.sense))
        relative = self.within_pct_of_best is not None
        absolute = self.min_value is not None or self.max_value is not None
        if relative and absolute:
            raise ValueError(
                f"constraint on {self.metric!r} mixes within_pct_of_best with "
                f"absolute min/max bounds; pick one family"
            )
        if not relative and not absolute:
            raise ValueError(
                f"constraint on {self.metric!r} needs within_pct_of_best, "
                f"min_value or max_value"
            )
        for bound in ("within_pct_of_best", "min_value", "max_value"):
            value = getattr(self, bound)
            if value is not None:
                object.__setattr__(self, bound, _number(value, bound))
        if relative and self.within_pct_of_best < 0:
            raise ValueError(
                f"within_pct_of_best must be >= 0, got {self.within_pct_of_best}"
            )

    @classmethod
    def parse(cls, text: str) -> "Constraint":
        """Parse the CLI form ``METRIC:OP=VALUE``.

        ``OP`` is ``within_pct_of_best`` (best taken as the maximum; append
        ``:min`` to the metric to take the minimum instead), ``min`` or
        ``max``: ``fig17.average_speedup:within_pct_of_best=5``,
        ``overhead.total_area_mm2:max=40``.
        """
        text = str(text).strip()
        head, sep, bound = text.rpartition(":")
        if not sep or "=" not in bound:
            raise ValueError(
                f"invalid constraint {text!r}; expected METRIC:OP=VALUE with "
                f"OP in {list(CONSTRAINT_OPS)}"
            )
        op, _, raw_value = bound.partition("=")
        op = op.strip().lower()
        if op not in CONSTRAINT_OPS:
            raise ValueError(
                f"unknown constraint operator {op!r}; choose from "
                f"{list(CONSTRAINT_OPS)}"
            )
        try:
            value = float(raw_value)
        except ValueError:
            raise ValueError(
                f"invalid constraint value {raw_value!r} in {text!r}"
            ) from None
        metric, sense = head, "maximize"
        tail = head.rpartition(":")
        if tail[1] and tail[2].strip().lower() in _SENSE_ALIASES:
            metric, sense = tail[0], tail[2]
        if op == "within_pct_of_best":
            return cls(metric=metric, within_pct_of_best=value, sense=sense)
        if op == "min":
            return cls(metric=metric, min_value=value, sense=sense)
        return cls(metric=metric, max_value=value, sense=sense)

    @classmethod
    def from_dict(cls, data: Union[str, Mapping]) -> "Constraint":
        """Build from a plain string (``parse`` form) or a mapping."""
        if isinstance(data, str):
            return cls.parse(data)
        if not isinstance(data, Mapping):
            raise ValueError(
                f"a constraint must be a string or a mapping, got "
                f"{type(data).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown constraint key(s) {unknown}; valid keys: {sorted(known)}"
            )
        if "metric" not in data:
            raise ValueError("a constraint needs a 'metric' path")
        return cls(**{key: data[key] for key in data})  # type: ignore[arg-type]

    def to_dict(self) -> Dict[str, object]:
        """Plain (JSON-ready) form (only the bounds that are set)."""
        payload: Dict[str, object] = {"metric": self.metric, "sense": self.sense}
        if self.within_pct_of_best is not None:
            payload["within_pct_of_best"] = self.within_pct_of_best
        if self.min_value is not None:
            payload["min_value"] = self.min_value
        if self.max_value is not None:
            payload["max_value"] = self.max_value
        return payload

    def threshold(self, best: Optional[float]) -> Optional[Tuple[str, float]]:
        """The resolved ``(op, bound)`` of this constraint.

        For ``within_pct_of_best`` the bound derives from ``best`` (the best
        observed value of the metric; ``None`` until something was observed);
        absolute constraints resolve independently.
        """
        if self.within_pct_of_best is not None:
            if best is None:
                return None
            band = abs(best) * self.within_pct_of_best / 100.0
            if self.sense == "maximize":
                return (">=", best - band)
            return ("<=", best + band)
        if self.min_value is not None:
            return (">=", self.min_value)
        return ("<=", self.max_value)  # type: ignore[arg-type]

    def feasible(self, value: float, best: Optional[float] = None) -> bool:
        """Whether ``value`` satisfies this constraint (given ``best``)."""
        resolved = self.threshold(best)
        if resolved is None:
            # No best observed yet: relative constraints cannot reject.
            return True
        op, bound = resolved
        ok = value >= bound if op == ">=" else value <= bound
        if self.min_value is not None and self.max_value is not None:
            ok = ok and value <= self.max_value
        return ok

    def describe(self) -> str:
        """Human-readable one-liner."""
        if self.within_pct_of_best is not None:
            best = "best" if self.sense == "maximize" else "lowest"
            return (
                f"{self.metric} within {self.within_pct_of_best:g}% of {best}"
            )
        parts = []
        if self.min_value is not None:
            parts.append(f">= {self.min_value:g}")
        if self.max_value is not None:
            parts.append(f"<= {self.max_value:g}")
        return f"{self.metric} {' and '.join(parts)}"


def _entries(value: object, key: str) -> Sequence[object]:
    """One entry (string or mapping) or a list of them."""
    if isinstance(value, (str, Mapping)):
        return [value]
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{key!r} must be an entry or a list of entries, got {value!r}")
    return value


@dataclass(frozen=True)
class ObjectiveSpec:
    """One declarative optimization problem (frozen, validated, JSON-ready).

    Attributes:
        name: label used in reports.
        objectives: the metrics to optimize (at least one); the first is the
            *primary* objective the adaptive drivers rank candidates by,
            further objectives shape the Pareto frontier.
        constraints: feasibility restrictions applied when the result is
            assembled (relative constraints resolve against the best value
            observed across all probes).
    """

    name: str = "optimize"
    objectives: Tuple[Objective, ...] = ()
    constraints: Tuple[Constraint, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not str(self.name).strip():
            raise ValueError("optimization name must be a non-empty string")
        object.__setattr__(self, "name", str(self.name).strip())
        objectives = tuple(
            obj if isinstance(obj, Objective) else Objective.from_dict(obj)
            for obj in self.objectives
        )
        if not objectives:
            raise ValueError("an optimization needs at least one objective")
        metrics = [obj.metric for obj in objectives]
        if len(set(metrics)) != len(metrics):
            raise ValueError(f"duplicate objective metrics {metrics}")
        object.__setattr__(self, "objectives", objectives)
        constraints = tuple(
            c if isinstance(c, Constraint) else Constraint.from_dict(c)
            for c in self.constraints
        )
        object.__setattr__(self, "constraints", constraints)

    # ------------------------------------------------------------- constructors

    @classmethod
    def coerce(
        cls,
        objective: object,
        *,
        constraints: Optional[Sequence[object]] = None,
        name: Optional[str] = None,
    ) -> "ObjectiveSpec":
        """Coerce any reasonable objective description into a spec.

        Accepts an :class:`ObjectiveSpec` (returned with extra ``constraints``
        merged in), an :class:`Objective`, a ``METRIC[:max|min]`` string, a
        spec-shaped mapping, or a sequence mixing any of the scalar forms.
        """
        extra = tuple(
            c if isinstance(c, Constraint) else Constraint.from_dict(c)
            for c in (constraints or ())
        )
        if isinstance(objective, ObjectiveSpec):
            spec = objective
        elif isinstance(objective, Objective):
            spec = cls(objectives=(objective,))
        elif isinstance(objective, str):
            spec = cls(objectives=(Objective.parse(objective),))
        elif isinstance(objective, Mapping):
            spec = cls.from_dict(objective)
        elif isinstance(objective, Sequence):
            spec = cls(
                objectives=tuple(
                    obj if isinstance(obj, Objective) else Objective.from_dict(obj)
                    for obj in objective
                )
            )
        else:
            raise ValueError(
                f"cannot build an objective spec from {type(objective).__name__}"
            )
        replacements: Dict[str, object] = {}
        if extra:
            replacements["constraints"] = spec.constraints + extra
        if name is not None:
            replacements["name"] = name
        if replacements:
            spec = dataclasses.replace(spec, **replacements)
        return spec

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ObjectiveSpec":
        """Build a spec from a plain (JSON-shaped) dictionary."""
        if not isinstance(data, Mapping):
            raise ValueError(
                f"objective data must be a mapping, got {type(data).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown objective-spec key(s) {unknown}; valid keys: "
                f"{sorted(known)}"
            )
        if not data.get("objectives"):
            raise ValueError(
                "objective spec is missing the required 'objectives' section"
            )
        kwargs: Dict[str, object] = {
            "objectives": tuple(
                Objective.from_dict(obj) for obj in _entries(data["objectives"], "objectives")
            )
        }
        if "name" in data:
            kwargs["name"] = str(data["name"])
        if data.get("constraints") is not None:
            kwargs["constraints"] = tuple(
                Constraint.from_dict(c) for c in _entries(data["constraints"], "constraints")
            )
        return cls(**kwargs)  # type: ignore[arg-type]

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "ObjectiveSpec":
        """Load a spec from a JSON file (``name`` defaults to the file stem)."""
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except OSError as error:
            raise ValueError(f"cannot read objective file {path}: {error}") from None
        except json.JSONDecodeError as error:
            raise ValueError(
                f"invalid JSON in objective file {path}: {error}"
            ) from None
        if isinstance(data, Mapping) and "name" not in data:
            data = {**data, "name": path.stem}
        return cls.from_dict(data)

    # ------------------------------------------------------------ serialization

    def to_dict(self) -> Dict[str, object]:
        """Plain (JSON-ready) dictionary round-tripping through :meth:`from_dict`."""
        return {
            "name": self.name,
            "objectives": [obj.to_dict() for obj in self.objectives],
            "constraints": [c.to_dict() for c in self.constraints],
        }

    def to_file(self, path: Union[str, Path]) -> None:
        """Write the spec as JSON."""
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8"
        )

    # ------------------------------------------------------------------ queries

    @property
    def primary(self) -> Objective:
        """The objective adaptive drivers rank candidates by."""
        return self.objectives[0]

    def metric_paths(self) -> List[str]:
        """Every metric path this problem reads, objectives first, unique."""
        seen: Dict[str, None] = {}
        for obj in self.objectives:
            seen.setdefault(obj.metric, None)
        for constraint in self.constraints:
            seen.setdefault(constraint.metric, None)
        return list(seen)

    def experiments(self) -> List[str]:
        """The experiment modules the metric paths read, in first-use order."""
        seen: Dict[str, None] = {}
        for path in self.metric_paths():
            seen.setdefault(path.split(".", 1)[0], None)
        return list(seen)

    def describe(self) -> str:
        """Human-readable one-liner."""
        parts = "; ".join(obj.describe() for obj in self.objectives)
        if self.constraints:
            parts += " s.t. " + "; ".join(c.describe() for c in self.constraints)
        return f"{self.name}: {parts}"


# ------------------------------------------------------------ path resolution


def extract_metric(metrics: Mapping[str, object], path: str) -> float:
    """Resolve a dotted metric path against a nested metric mapping.

    Raises :class:`ValueError` (listing every available path) when a segment
    is missing or the leaf is not a finite number.
    """
    value: object = metrics
    for segment in _canonical_metric(path).split("."):
        if not isinstance(value, Mapping) or segment not in value:
            raise ValueError(
                f"metric path {path!r} not found; available paths: "
                f"{metric_paths(metrics)}"
            )
        value = value[segment]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(
            f"metric path {path!r} is not a scalar metric; available paths: "
            f"{metric_paths(metrics)}"
        )
    return float(value)


def metric_paths(metrics: Mapping[str, object]) -> List[str]:
    """Every dotted path to a numeric leaf of a nested metric mapping."""
    paths: List[str] = []

    def walk(value: object, prefix: str) -> None:
        if isinstance(value, Mapping):
            for key, item in value.items():
                walk(item, f"{prefix}.{key}" if prefix else str(key))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            paths.append(prefix)

    walk(metrics, "")
    return sorted(paths)
