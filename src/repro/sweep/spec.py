"""Declarative sweep specifications over scenario override axes.

A :class:`SweepSpec` names the slice of the design space to explore: every
axis is a dotted :class:`~repro.api.scenario.Scenario` override path (the
same keys ``--set`` accepts, e.g. ``hmc.pe_frequency_mhz``) with the values
to try, and the grid is the cartesian product of all axes.  Specs are
frozen, validated at construction and JSON-round-trippable, mirroring
:class:`~repro.api.scenario.Scenario` / :class:`~repro.workloads.catalog.
WorkloadSpec`::

    spec = SweepSpec.from_axes(
        {"hmc.pe_frequency_mhz": [312.5, 625, 1250], "hmc.pes_per_vault": [8, 16]},
        name="freq-x-pe",
    )
    spec.to_file("freq_x_pe.json")
    SweepSpec.load("freq_x_pe.json")        # or a preset name, see sweep_presets()

Axis keys may abbreviate a unique override key (``hmc.pe_frequency``
resolves to ``hmc.pe_frequency_mhz``); ambiguous or unknown keys raise
:class:`ValueError` listing the candidates.  Fig. 18's frequency sweep ships
as the ``fig18-frequency`` preset -- the paper figure is just one point grid
of this machinery.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.scenario import Scenario, _selection, override_keys

#: Simulation kinds a sweep can evaluate per cell.
SWEEP_KINDS = ("routing", "end-to-end")

#: Scenario keys that cannot be swept (labels / selection bookkeeping).
_UNSWEEPABLE_KEYS = ("name",)

#: Axis value types that serialize to JSON and label grid points cleanly.
_VALUE_TYPES = (str, int, float, bool)


def canonical_axis_key(key: str) -> str:
    """Resolve an axis key against the scenario override keys.

    Exact matches win; otherwise a key that unambiguously abbreviates one
    override key (``hmc.pe_frequency`` -> ``hmc.pe_frequency_mhz``) resolves
    to it.  Unknown or ambiguous keys raise :class:`ValueError`.
    """
    key = str(key).strip()
    valid = [name for name in override_keys() if name not in _UNSWEEPABLE_KEYS]
    if key in valid:
        return key
    candidates = [name for name in valid if name.startswith(key)]
    if len(candidates) == 1:
        return candidates[0]
    if candidates:
        raise ValueError(f"ambiguous sweep axis {key!r}; candidates: {candidates}")
    raise ValueError(f"unknown sweep axis {key!r}; valid keys: {valid}")


def _format_value(value: object) -> str:
    """Deterministic, compact label form of one axis value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


@dataclass(frozen=True)
class SweepAxis:
    """One swept dimension: a scenario override key and the values to try."""

    key: str
    values: Tuple[object, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", canonical_axis_key(self.key))
        if isinstance(self.values, (str, Mapping)) or not isinstance(self.values, Iterable):
            raise ValueError(
                f"sweep axis {self.key!r} values must be a list, got {self.values!r}"
            )
        values = tuple(self.values)
        if not values:
            raise ValueError(f"sweep axis {self.key!r} has no values")
        for value in values:
            if not isinstance(value, _VALUE_TYPES):
                raise ValueError(
                    f"sweep axis {self.key!r} values must be scalars "
                    f"(str/int/float/bool), got {type(value).__name__}"
                )
        if len(set(map(_format_value, values))) != len(values):
            raise ValueError(f"sweep axis {self.key!r} has duplicate values")
        object.__setattr__(self, "values", values)

    def to_dict(self) -> Dict[str, object]:
        """Plain (JSON-ready) form."""
        return {"key": self.key, "values": list(self.values)}


@dataclass(frozen=True)
class SweepSpec:
    """One declarative design-space sweep (frozen, validated, JSON-ready).

    Attributes:
        name: label used in reports and cache bookkeeping.
        axes: the swept dimensions; the grid is their cartesian product, in
            declaration order (the last axis varies fastest).
        benchmarks: restrict every point to these catalog workloads (``None``
            = the base scenario's own selection, then the whole catalog).
        designs: design points evaluated per cell; the GPU baseline is always
            simulated too (it normalizes every metric) and need not be listed.
        kind: per-cell simulation, ``"routing"`` (routing-procedure time and
            energy, the Fig. 15/18 metric) or ``"end-to-end"`` (whole
            inference, the Fig. 17 metric).
    """

    name: str = "sweep"
    axes: Tuple[SweepAxis, ...] = ()
    benchmarks: Optional[Tuple[str, ...]] = None
    designs: Tuple[str, ...] = ("pim-capsnet",)
    kind: str = "routing"

    def __post_init__(self) -> None:
        if not self.name or not str(self.name).strip():
            raise ValueError("sweep name must be a non-empty string")
        object.__setattr__(self, "name", str(self.name).strip())
        axes = tuple(
            axis if isinstance(axis, SweepAxis) else _axis_from(axis)
            for axis in self.axes
        )
        if not axes:
            raise ValueError("a sweep needs at least one axis")
        keys = [axis.key for axis in axes]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate sweep axes {keys}")
        object.__setattr__(self, "axes", axes)
        if self.benchmarks is not None:
            benchmarks = tuple(str(name) for name in self.benchmarks)
            if not benchmarks:
                raise ValueError("benchmarks must be None or a non-empty selection")
            object.__setattr__(self, "benchmarks", benchmarks)
        kind = str(self.kind).strip().lower().replace("_", "-")
        if kind not in SWEEP_KINDS:
            raise ValueError(f"unknown sweep kind {self.kind!r}; choose from {list(SWEEP_KINDS)}")
        object.__setattr__(self, "kind", kind)
        designs = tuple(str(design) for design in self.designs)
        if not designs:
            raise ValueError("a sweep needs at least one design point")
        # Custom strategies must be registered before the spec is built;
        # typos then fail here instead of mid-run.
        from repro.core.accelerator import DesignPoint
        from repro.engine.strategies import strategy_names

        known = set(strategy_names())
        unknown = [design for design in designs if design not in known]
        if unknown:
            raise ValueError(
                f"unknown design point(s) {unknown}; "
                f"registered design points: {sorted(known)}"
            )
        baseline = DesignPoint.BASELINE_GPU.value
        designs = tuple(design for design in designs if design != baseline)
        if not designs:
            raise ValueError(
                "a sweep needs at least one non-baseline design point "
                "(the GPU baseline is always simulated for normalization)"
            )
        object.__setattr__(self, "designs", designs)

    # ------------------------------------------------------------- constructors

    @classmethod
    def from_axes(
        cls, axes: Mapping[str, Sequence[object]], **kwargs
    ) -> "SweepSpec":
        """Build a spec from an ``{override-key: values}`` mapping."""
        return cls(
            axes=tuple(SweepAxis(key, values) for key, values in axes.items()),
            **kwargs,
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepSpec":
        """Build a spec from a plain (JSON-shaped) dictionary.

        ``axes`` is required and may be an ``{key: values}`` mapping or a
        list of ``{"key": ..., "values": [...]}`` entries; unknown keys raise
        :class:`ValueError`.
        """
        if not isinstance(data, Mapping):
            raise ValueError(f"sweep data must be a mapping, got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown sweep key(s) {unknown}; valid keys: {sorted(known)}"
            )
        if "axes" not in data or not data["axes"]:
            raise ValueError("sweep spec is missing the required 'axes' section")
        kwargs: Dict[str, object] = {"axes": _axes_from(data["axes"])}
        if "name" in data:
            kwargs["name"] = str(data["name"])
        for selection in ("benchmarks", "designs"):
            if data.get(selection) is not None:
                kwargs[selection] = _selection(data[selection], f"sweep key {selection!r}")
        if "kind" in data:
            kwargs["kind"] = str(data["kind"])
        return cls(**kwargs)  # type: ignore[arg-type]

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "SweepSpec":
        """Load a spec from a JSON file (``name`` defaults to the file stem)."""
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except OSError as error:
            raise ValueError(f"cannot read sweep file {path}: {error}") from None
        except json.JSONDecodeError as error:
            raise ValueError(f"invalid JSON in sweep file {path}: {error}") from None
        if isinstance(data, Mapping) and "name" not in data:
            data = {**data, "name": path.stem}
        return cls.from_dict(data)

    @classmethod
    def load(cls, spec: str) -> "SweepSpec":
        """Resolve a CLI sweep spec: a preset name or a JSON file path."""
        presets = sweep_presets()
        if spec in presets:
            return presets[spec]
        path = Path(spec)
        if path.exists():
            return cls.from_file(path)
        raise ValueError(
            f"unknown sweep spec {spec!r}: not a preset ({sweep_preset_names()}) "
            f"and no such file"
        )

    # ------------------------------------------------------------ serialization

    def to_dict(self) -> Dict[str, object]:
        """Plain (JSON-ready) dictionary round-tripping through :meth:`from_dict`."""
        return {
            "name": self.name,
            "axes": [axis.to_dict() for axis in self.axes],
            "benchmarks": list(self.benchmarks) if self.benchmarks is not None else None,
            "designs": list(self.designs),
            "kind": self.kind,
        }

    def to_file(self, path: Union[str, Path]) -> None:
        """Write the spec as JSON."""
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8"
        )

    # ---------------------------------------------------------------- expansion

    @property
    def axis_keys(self) -> List[str]:
        """The canonical override keys of every axis, in declaration order."""
        return [axis.key for axis in self.axes]

    def grid_size(self) -> int:
        """Number of grid points (product of the axis value counts)."""
        size = 1
        for axis in self.axes:
            size *= len(axis.values)
        return size

    def assignments(self) -> List[Dict[str, object]]:
        """Every grid point's ``{key: value}`` assignment, in grid order.

        The grid is the cartesian product of the axes in declaration order;
        the last axis varies fastest (row-major, like nested loops).
        """
        grid: List[Dict[str, object]] = [{}]
        for axis in self.axes:
            grid = [
                {**assignment, axis.key: value}
                for assignment in grid
                for value in axis.values
            ]
        return grid

    def scenario_for(self, base: Scenario, assignment: Mapping[str, object]) -> Scenario:
        """The variant scenario of one grid point, deterministically named.

        The name is ``<base>+<key>=<value>,...`` so reports, comparisons and
        logs keep every point distinguishable.
        """
        label = ",".join(
            f"{key}={_format_value(value)}" for key, value in assignment.items()
        )
        try:
            variant = base.with_overrides(assignment)
        except ValueError as error:
            # The base is valid, so the axis values are at fault (alone or in
            # combination); every front end answers this with one code.
            from repro.api.request import RequestError

            raise RequestError(str(error), "invalid_axis") from None
        return variant.with_overrides({"name": f"{base.name}+{label}"})

    def describe(self) -> str:
        """Human-readable one-liner."""
        axes = " x ".join(f"{axis.key}[{len(axis.values)}]" for axis in self.axes)
        return f"{self.name}: {axes} = {self.grid_size()} points, {self.kind} metric"


def _axis_from(value: object) -> SweepAxis:
    """Coerce one ``axes`` entry (mapping or pair) to a :class:`SweepAxis`."""
    if isinstance(value, SweepAxis):
        return value
    if isinstance(value, Mapping):
        unknown = sorted(set(value) - {"key", "values"})
        if unknown:
            raise ValueError(
                f"unknown sweep axis key(s) {unknown}; valid keys: ['key', 'values']"
            )
        if "key" not in value or "values" not in value:
            raise ValueError("a sweep axis needs both 'key' and 'values'")
        return SweepAxis(str(value["key"]), value["values"])  # type: ignore[arg-type]
    if isinstance(value, Sequence) and not isinstance(value, str) and len(value) == 2:
        key, values = value
        return SweepAxis(str(key), values)
    raise ValueError(
        f"sweep axes entries must be SweepAxis, {{'key', 'values'}} mappings "
        f"or (key, values) pairs, got {type(value).__name__}"
    )


def _axes_from(value: object) -> Tuple[SweepAxis, ...]:
    """Coerce the whole ``axes`` section (mapping or sequence of entries)."""
    if isinstance(value, Mapping):
        return tuple(SweepAxis(str(key), values) for key, values in value.items())
    if isinstance(value, Iterable) and not isinstance(value, str):
        return tuple(_axis_from(entry) for entry in value)
    raise ValueError(
        f"sweep 'axes' must be a {{key: values}} mapping or a list of axis "
        f"entries, got {type(value).__name__}"
    )


#: Lazily built preset sweeps (see :func:`sweep_presets`).
_PRESET_SWEEPS: Optional[Dict[str, SweepSpec]] = None


def sweep_presets() -> Dict[str, SweepSpec]:
    """Named preset sweeps selectable via ``repro sweep --spec NAME``.

    Fig. 18's frequency sweep is the canonical example: the paper figure is
    this grid (plus its per-dimension force, which the figure's own
    experiment renders).  Built lazily -- the frequencies come from the
    Fig. 18 experiment module, and importing experiment modules at CLI
    startup would defeat the parser's laziness guarantee.
    """
    global _PRESET_SWEEPS
    if _PRESET_SWEEPS is None:
        from repro.experiments.fig18_frequency_sweep import FIG18_FREQUENCIES_MHZ

        _PRESET_SWEEPS = {
            "fig18-frequency": SweepSpec(
                name="fig18-frequency",
                axes=(SweepAxis("hmc.pe_frequency_mhz", FIG18_FREQUENCIES_MHZ),),
            ),
        }
    return dict(_PRESET_SWEEPS)


def sweep_preset_names() -> List[str]:
    """Names of the built-in preset sweeps."""
    return sorted(sweep_presets())
