"""Typed hardware scenarios: the unit of configuration of the public API.

A :class:`Scenario` bundles everything that defines *which hardware* (and
which slice of the evaluation) an experiment run simulates:

* the HMC configuration (:class:`~repro.hmc.config.HMCConfig`, Table 4),
* the host GPU and its cost-model calibration
  (:class:`~repro.gpu.devices.GPUDevice`,
  :class:`~repro.gpu.kernels.GPUCostParameters`),
* the pipeline depth and RMAS queue depth of the end-to-end model,
* an optional benchmark selection (Table 1 names) and an optional
  design-point selection for the evaluation figures.

Scenarios are frozen, validated and hashable, so they key result caches
directly.  They serialize to/from plain JSON (:meth:`Scenario.to_dict`,
:meth:`Scenario.from_dict`, :meth:`Scenario.from_file`), ship with named
presets (:data:`PRESETS`, e.g. ``paper-default``) and support dotted-path
overrides::

    scenario = Scenario.preset("paper-default").with_overrides(
        {"hmc.pe_frequency_mhz": 625.0, "gpu": "V100"}
    )
    scenario = scenario.with_set(["pipeline_batches=16"])   # CLI-style KEY=VALUE

The **invariant** of the whole scenario layer is that the default scenario
(``Scenario()`` == ``Scenario.preset("paper-default")``) reproduces the
golden reports in ``benchmarks/reports/`` byte-for-byte.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.core.pipeline import PipelineModel
from repro.gpu.devices import GPU_DEVICES, GPUDevice, baseline_device, get_device
from repro.gpu.kernels import GPUCostParameters
from repro.hmc.config import HMCConfig
from repro.workloads.catalog import WorkloadCatalog, WorkloadSpec, default_catalog
from repro.workloads.parallelism import Dimension

#: Default pipeline depth (batch groups) of :class:`~repro.core.pipeline.PipelineModel`.
DEFAULT_PIPELINE_BATCHES = 8
#: Default average PE queue depth seen by the RMAS.
DEFAULT_RMAS_QUEUE_DEPTH = 8.0


@dataclass(frozen=True)
class Scenario:
    """One hardware + evaluation-slice configuration (frozen, hashable).

    Attributes:
        name: label used in reports, comparisons and cache directories.
        hmc: Hybrid Memory Cube configuration (paper Table 4 by default).
        gpu: host GPU device (the paper's P100 baseline by default).
        gpu_params: GPU cost-model calibration constants.
        pipeline_batches: batch groups in the evaluated stream (Sec. 4).
        rmas_queue_depth: average PE queue depth ``Q`` seen by the RMAS.
        workloads: user-defined capsule-network workloads
            (:class:`~repro.workloads.catalog.WorkloadSpec` values, inline
            spec dictionaries, or paths to workload JSON files) merged on top
            of the Table-1 catalog; they run in every figure, report, sweep
            and comparison alongside the paper's benchmarks.
        benchmarks: restrict runs to these catalog workloads (``None`` = the
            whole catalog); names are case-insensitive and stored in their
            canonical catalog form.
        designs: design-point selection for the evaluation figures
            (Figs. 15/17); ``None`` keeps each figure's paper defaults.  The
            GPU baseline is always evaluated (it normalizes the bars).
    """

    name: str = "paper-default"
    hmc: HMCConfig = field(default_factory=HMCConfig)
    gpu: GPUDevice = field(default_factory=baseline_device)
    gpu_params: GPUCostParameters = field(default_factory=GPUCostParameters)
    pipeline_batches: int = DEFAULT_PIPELINE_BATCHES
    rmas_queue_depth: float = DEFAULT_RMAS_QUEUE_DEPTH
    workloads: Tuple[WorkloadSpec, ...] = ()
    benchmarks: Optional[Tuple[str, ...]] = None
    designs: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if not self.name or not str(self.name).strip():
            raise ValueError("scenario name must be a non-empty string")
        if not isinstance(self.hmc, HMCConfig):
            raise ValueError("hmc must be an HMCConfig")
        if not isinstance(self.gpu, GPUDevice):
            raise ValueError("gpu must be a GPUDevice")
        if not isinstance(self.gpu_params, GPUCostParameters):
            raise ValueError("gpu_params must be a GPUCostParameters")
        if not isinstance(self.pipeline_batches, int):
            batches = float(self.pipeline_batches)
            if not batches.is_integer():
                raise ValueError("pipeline_batches must be an integer")
            object.__setattr__(self, "pipeline_batches", int(batches))
        if self.pipeline_batches < 1:
            raise ValueError("pipeline_batches must be >= 1")
        if float(self.rmas_queue_depth) <= 0:
            raise ValueError("rmas_queue_depth must be positive")
        object.__setattr__(self, "workloads", _workloads_from(self.workloads))
        for attr in ("benchmarks", "designs"):
            value = getattr(self, attr)
            if value is not None:
                if not value:
                    raise ValueError(f"{attr} must be None or a non-empty selection")
                object.__setattr__(self, attr, tuple(str(item) for item in value))
        if self.benchmarks is not None:
            # One catalog lookup normalizes the selection: names are matched
            # case-insensitively (like get_benchmark) and stored canonically.
            object.__setattr__(
                self, "benchmarks", tuple(self.catalog.resolve(self.benchmarks))
            )
        if self.designs is not None:
            # Custom strategies must be registered before the scenario is
            # built; typos then fail here instead of mid-run.
            from repro.engine.strategies import strategy_names

            known_designs = set(strategy_names())
            unknown = [design for design in self.designs if design not in known_designs]
            if unknown:
                raise ValueError(
                    f"unknown design point(s) {unknown}; "
                    f"registered design points: {sorted(known_designs)}"
                )

    # ------------------------------------------------------------- constructors

    @classmethod
    def default(cls) -> "Scenario":
        """The paper's configuration (reproduces the golden reports)."""
        return cls()

    @classmethod
    def preset(cls, name: str) -> "Scenario":
        """Look up a named preset scenario."""
        try:
            return PRESETS[name]
        except KeyError:
            raise ValueError(
                f"unknown scenario preset {name!r}; presets: {preset_names()}"
            ) from None

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Scenario":
        """Build a scenario from a (possibly partial) plain dictionary.

        Missing keys keep their paper defaults; unknown keys raise
        :class:`ValueError`.  ``gpu`` accepts either a catalog name
        (``"V100"``) or a partial attribute dictionary applied on top of the
        baseline device.
        """
        if not isinstance(data, Mapping):
            raise ValueError(f"scenario data must be a mapping, got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown scenario key(s) {unknown}; valid keys: {sorted(known)}"
            )
        default = cls()
        kwargs: Dict[str, object] = {}
        if "name" in data:
            kwargs["name"] = str(data["name"])
        if "hmc" in data:
            kwargs["hmc"] = _nested_from(default.hmc, data["hmc"], "hmc")
        if "gpu" in data:
            gpu = data["gpu"]
            if isinstance(gpu, str):
                try:
                    kwargs["gpu"] = get_device(gpu)
                except KeyError as error:
                    raise ValueError(str(error)) from None
            else:
                kwargs["gpu"] = _nested_from(default.gpu, gpu, "gpu")
        if "gpu_params" in data:
            kwargs["gpu_params"] = _nested_from(default.gpu_params, data["gpu_params"], "gpu_params")
        for scalar in ("pipeline_batches", "rmas_queue_depth"):
            if scalar in data:
                kwargs[scalar] = _coerce(data[scalar], getattr(default, scalar), scalar)
        if "workloads" in data and data["workloads"] is not None:
            # __post_init__ coerces scalars, dicts, and file references.
            kwargs["workloads"] = data["workloads"]
        for selection in ("benchmarks", "designs"):
            if selection in data and data[selection] is not None:
                kwargs[selection] = _selection(data[selection], f"scenario key {selection!r}")
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "Scenario":
        """Load a scenario from a JSON file."""
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except OSError as error:
            raise ValueError(f"cannot read scenario file {path}: {error}") from None
        except json.JSONDecodeError as error:
            raise ValueError(f"invalid JSON in scenario file {path}: {error}") from None
        if isinstance(data, Mapping) and data.get("workloads") is not None:
            workloads = data["workloads"]
            if isinstance(workloads, (str, Mapping)):
                workloads = [workloads]
            # Workload file references resolve relative to the scenario file,
            # falling back to the working directory when no sibling exists.
            resolved: List[object] = []
            for entry in workloads:
                if isinstance(entry, str):
                    candidate = Path(entry)
                    if not candidate.is_absolute():
                        sibling = path.parent / candidate
                        if sibling.exists():
                            entry = str(sibling)
                resolved.append(entry)
            data = {**data, "workloads": resolved}
        scenario = cls.from_dict(data)
        if "name" not in data:
            scenario = dataclasses.replace(scenario, name=path.stem)
        return scenario

    @classmethod
    def load(cls, spec: str) -> "Scenario":
        """Resolve a CLI scenario spec: a preset name or a JSON file path."""
        if spec in PRESETS:
            return PRESETS[spec]
        path = Path(spec)
        if path.exists():
            return cls.from_file(path)
        raise ValueError(
            f"unknown scenario {spec!r}: not a preset ({preset_names()}) "
            f"and no such file"
        )

    # ------------------------------------------------------------ serialization

    def to_dict(self) -> Dict[str, object]:
        """Plain (JSON-ready) dictionary round-tripping through :meth:`from_dict`."""
        gpu = dataclasses.asdict(self.gpu)
        gpu["memory_technology"] = self.gpu.memory_technology.value
        return {
            "name": self.name,
            "hmc": dataclasses.asdict(self.hmc),
            "gpu": gpu,
            "gpu_params": dataclasses.asdict(self.gpu_params),
            "pipeline_batches": self.pipeline_batches,
            "rmas_queue_depth": self.rmas_queue_depth,
            "workloads": [spec.to_dict() for spec in self.workloads],
            "benchmarks": list(self.benchmarks) if self.benchmarks is not None else None,
            "designs": list(self.designs) if self.designs is not None else None,
        }

    def to_file(self, path: Union[str, Path]) -> None:
        """Write the scenario as JSON."""
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8"
        )

    # ----------------------------------------------------------------- hashing

    def hardware_dict(self) -> Dict[str, object]:
        """The simulation-relevant slice of :meth:`to_dict`.

        Only the fields that change what a single ``(benchmark, design)``
        simulation computes: HMC, GPU, GPU cost model, pipeline depth and
        RMAS queue depth.  The scenario ``name`` is a label, and the
        ``workloads``/``benchmarks``/``designs`` selections only pick *which*
        simulations run, so none of them belong in a result cache key.
        """
        data = self.to_dict()
        for selection in ("name", "workloads", "benchmarks", "designs"):
            data.pop(selection)
        return data

    def hardware_hash(self) -> str:
        """Content hash (SHA-256 hex) of :meth:`hardware_dict`.

        Scenarios that differ only in name (or in selections) hash equal;
        any hardware change differs.  Memoized per instance (the scenario is
        frozen), so repeated calls hash in O(1).
        """
        cached = self.__dict__.get("_hardware_hash")
        if cached is None:
            cached = self._memoize_digest("_hardware_hash", self.hardware_dict())
        return cached

    def plane_hash(self) -> str:
        """Content hash (SHA-256 hex) of :meth:`hardware_dict` without the PE frequency.

        The shard the persistent simulation cache
        (:class:`~repro.engine.diskcache.SimulationCache`) files results
        under: scenarios differing at most in ``hmc.pe_frequency_mhz`` form
        one frequency plane (the paper's Fig. 18 is such a plane), whose
        results share one shard, keyed within it by frequency.  Memoized
        like :meth:`hardware_hash`, so cache lookups hash in O(1).
        """
        cached = self.__dict__.get("_plane_hash")
        if cached is None:
            data = self.hardware_dict()
            del data["hmc"]["pe_frequency_mhz"]
            cached = self._memoize_digest("_plane_hash", data)
        return cached

    def _memoize_digest(self, attribute: str, payload: Dict[str, object]) -> str:
        """Store ``canonical_digest(payload)`` on this (frozen) instance."""
        from repro.engine.diskcache import canonical_digest

        digest = canonical_digest(payload)
        object.__setattr__(self, attribute, digest)
        return digest

    def content_hash(self) -> str:
        """Content hash (SHA-256 hex) of the whole scenario except its name."""
        from repro.engine.diskcache import canonical_digest

        data = self.to_dict()
        data.pop("name")
        return canonical_digest(data)

    # ---------------------------------------------------------------- overrides

    def with_overrides(self, overrides: Mapping[str, object]) -> "Scenario":
        """Apply dotted-path overrides (``{"hmc.pe_frequency_mhz": 625}``).

        Values may be strings (coerced to the target field's type) or already
        typed.  Unknown keys raise :class:`ValueError` listing the valid ones.
        """
        scenario = self
        for key, raw in overrides.items():
            scenario = scenario._apply_override(str(key), raw)
        return scenario

    def with_set(self, assignments: Iterable[str]) -> "Scenario":
        """Apply CLI-style ``KEY=VALUE`` overrides (the ``--set`` option).

        Unless ``name`` itself is assigned, the result is renamed to
        ``<name>+<assignments>`` so compared scenarios stay distinguishable.
        """
        pairs: List[Tuple[str, str]] = []
        for assignment in assignments:
            key, sep, raw = str(assignment).partition("=")
            if not sep or not key.strip():
                raise ValueError(
                    f"invalid override {assignment!r}; expected KEY=VALUE "
                    f"(e.g. hmc.pe_frequency_mhz=625)"
                )
            pairs.append((key.strip(), raw.strip()))
        scenario = self
        for key, raw in pairs:
            scenario = scenario._apply_override(key, raw)
        if pairs and not any(key == "name" for key, _ in pairs):
            suffix = ",".join(f"{key}={raw}" for key, raw in pairs)
            scenario = dataclasses.replace(scenario, name=f"{self.name}+{suffix}")
        return scenario

    def _apply_override(self, key: str, raw: object) -> "Scenario":
        head, _, rest = key.partition(".")
        if head not in _OVERRIDABLE:
            raise ValueError(
                f"unknown scenario key {key!r}; valid keys: {override_keys()}"
            )
        if rest:
            sub = getattr(self, head)
            if not dataclasses.is_dataclass(sub):
                raise ValueError(f"scenario key {head!r} has no nested fields")
            if "." in rest:
                raise ValueError(f"scenario key {key!r} nests too deep")
            sub_fields = {f.name for f in dataclasses.fields(type(sub))}
            if rest not in sub_fields:
                raise ValueError(
                    f"unknown scenario key {key!r}; valid keys: {override_keys()}"
                )
            value = _coerce(raw, getattr(sub, rest), key)
            return dataclasses.replace(self, **{head: dataclasses.replace(sub, **{rest: value})})
        if head == "gpu":
            if isinstance(raw, str):
                try:
                    return dataclasses.replace(self, gpu=get_device(raw))
                except KeyError as error:
                    raise ValueError(str(error)) from None
            if isinstance(raw, GPUDevice):
                return dataclasses.replace(self, gpu=raw)
            raise ValueError(f"gpu must name a catalog device ({sorted(GPU_DEVICES)})")
        if head in ("hmc", "gpu_params"):
            if not isinstance(raw, type(getattr(self, head))):
                raise ValueError(
                    f"{head} cannot be assigned directly from {type(raw).__name__}; "
                    f"override its fields (e.g. {head}.<field>=<value>)"
                )
            return dataclasses.replace(self, **{head: raw})
        if head in ("benchmarks", "designs"):
            value = _selection(raw, f"scenario key {head!r}")
            return dataclasses.replace(self, **{head: value})
        value = _coerce(raw, getattr(self, head), key)
        return dataclasses.replace(self, **{head: value})

    # ----------------------------------------------------------------- workloads

    @property
    def catalog(self) -> WorkloadCatalog:
        """The workload catalog of this scenario (Table 1 + own workloads).

        Every benchmark lookup of a run under this scenario resolves through
        this catalog; with no scenario workloads it is exactly the shared
        Table-1 default catalog.
        """
        if not self.workloads:
            return default_catalog()
        return default_catalog().with_specs(self.workloads)

    def with_workloads(self, workloads: Iterable[object]) -> "Scenario":
        """A scenario with extra workloads merged in (the ``--workload`` path).

        Accepts :class:`~repro.workloads.catalog.WorkloadSpec` values, inline
        spec dictionaries or workload JSON file paths.
        """
        return dataclasses.replace(
            self, workloads=self.workloads + _workloads_from(workloads)
        )

    # ------------------------------------------------------------- model wiring

    def model_kwargs(
        self,
        pe_frequency_mhz: Optional[float] = None,
        force_dimension: Optional[Dimension] = None,
    ) -> Dict[str, object]:
        """Constructor kwargs for :class:`~repro.core.accelerator.PIMCapsNet`.

        Only parameters deviating from the paper default are passed, so the
        default scenario constructs ``PIMCapsNet(benchmark)`` exactly as the
        pre-scenario engine did (golden-report invariant) and keeps simple
        test stub factories working.
        """
        default = _PAPER_DEFAULT
        kwargs: Dict[str, object] = {}
        if pe_frequency_mhz is not None:
            kwargs["hmc_config"] = self.hmc.with_pe_frequency(pe_frequency_mhz)
        elif self.hmc != default.hmc:
            kwargs["hmc_config"] = self.hmc
        if self.gpu != default.gpu:
            kwargs["gpu_device"] = self.gpu
        if self.gpu_params != default.gpu_params:
            kwargs["gpu_params"] = self.gpu_params
        if self.pipeline_batches != default.pipeline_batches:
            kwargs["pipeline"] = PipelineModel(num_batches=self.pipeline_batches)
        if self.rmas_queue_depth != default.rmas_queue_depth:
            kwargs["rmas_queue_depth"] = self.rmas_queue_depth
        if force_dimension is not None:
            kwargs["force_dimension"] = force_dimension
        return kwargs

    def benchmark_selection(self) -> Optional[List[str]]:
        """The benchmark restriction as a list (``None`` = all of Table 1)."""
        return list(self.benchmarks) if self.benchmarks is not None else None

    def describe(self) -> str:
        """Human-readable one-liner."""
        extra = (
            f", +{len(self.workloads)} workload(s)" if self.workloads else ""
        )
        return (
            f"{self.name}: {self.gpu.name} host, "
            f"{self.hmc.num_vaults}x{self.hmc.pes_per_vault} PEs @ "
            f"{self.hmc.pe_frequency_mhz:g} MHz{extra}"
        )


def _split_csv(text: str) -> Tuple[str, ...]:
    return tuple(part.strip() for part in str(text).split(",") if part.strip())


def _selection(value: object, label: str) -> Tuple[str, ...]:
    """A benchmark or design selection: a list of names or one CSV string."""
    if isinstance(value, str):
        return _split_csv(value)
    if not isinstance(value, (list, tuple)):
        raise ValueError(
            f"{label} must be a list of names or a comma-separated string, "
            f"got {value!r}"
        )
    return tuple(str(item) for item in value)


def _workloads_from(value: object) -> Tuple[WorkloadSpec, ...]:
    """Coerce a scenario's ``workloads`` entries to :class:`WorkloadSpec` s.

    Each entry may already be a spec, an inline spec dictionary, or a path to
    a workload JSON file (the scenario-file ``workloads:`` section supports
    all three).
    """
    if value is None:
        return ()
    if isinstance(value, (str, Mapping, WorkloadSpec)):
        value = (value,)
    elif not isinstance(value, (list, tuple)):
        raise ValueError(
            f"scenario key 'workloads' must be a list of workload specs, "
            f"got {value!r}"
        )
    specs = []
    for entry in value:
        if isinstance(entry, WorkloadSpec):
            specs.append(entry)
        elif isinstance(entry, Mapping):
            specs.append(WorkloadSpec.from_dict(entry))
        elif isinstance(entry, (str, Path)):
            specs.append(WorkloadSpec.from_file(entry))
        else:
            raise ValueError(
                f"workloads entries must be WorkloadSpec, spec mappings or "
                f"file paths, got {type(entry).__name__}"
            )
    return tuple(specs)


def _coerce(raw: object, current: object, key: str) -> object:
    """Coerce an override value to the type of the field it replaces.

    Strings are parsed (the ``--set`` path); any other value must already
    fit the field -- a number for a numeric field -- so malformed JSON fails
    with a :class:`ValueError` naming the key.
    """
    try:
        if not isinstance(raw, str):
            return _typed(raw, current)
        text = raw.strip()
        if isinstance(current, bool):
            lowered = text.lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"expected a boolean, got {text!r}")
        if isinstance(current, Enum):
            return type(current)(text)
        if isinstance(current, int):
            return int(text)
        if isinstance(current, float):
            return float(text)
        if isinstance(current, str) or current is None:
            return text
        if isinstance(current, tuple):
            return _split_csv(text)
    except (ValueError, OverflowError) as error:
        raise ValueError(f"invalid value for {key!r}: {error}") from None
    raise ValueError(f"cannot coerce a value for scenario key {key!r}")


def _typed(raw: object, current: object) -> object:
    """A non-string override value, checked against the field's type."""
    if isinstance(current, Enum):
        return type(current)(raw)
    if isinstance(current, bool) or isinstance(raw, bool):
        if isinstance(current, bool) and isinstance(raw, bool):
            return raw
    elif isinstance(current, float) and isinstance(raw, (int, float)):
        return float(raw)
    elif isinstance(current, int) and isinstance(raw, (int, float)):
        if isinstance(raw, int) or raw.is_integer():
            return int(raw)
        raise ValueError(f"expected an integer, got {raw}")
    raise ValueError(f"expected a {type(current).__name__}, got {raw!r}")


def _nested_from(default_value, data: object, label: str):
    """A nested config dataclass from a partial attribute dictionary."""
    if isinstance(data, type(default_value)):
        return data
    if not isinstance(data, Mapping):
        raise ValueError(
            f"scenario key {label!r} must be a mapping of field overrides, "
            f"got {type(data).__name__}"
        )
    known = {f.name for f in dataclasses.fields(type(default_value))}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"unknown {label} key(s) {unknown}; valid keys: {sorted(known)}"
        )
    coerced = {
        key: _coerce(value, getattr(default_value, key), f"{label}.{key}")
        for key, value in data.items()
    }
    return dataclasses.replace(default_value, **coerced)


#: Top-level fields a dotted override may assign.  ``workloads`` is not one:
#: networks join a scenario only as specs (``--workload``, a scenario file's
#: ``workloads`` section, inline objects), so no override names a file.
_OVERRIDABLE = tuple(
    f.name for f in dataclasses.fields(Scenario) if f.name != "workloads"
)


def override_keys() -> List[str]:
    """Every valid dotted override key (for error messages and docs)."""
    keys: List[str] = []
    for name in _OVERRIDABLE:
        keys.append(name)
        default = getattr(_PAPER_DEFAULT, name)
        if dataclasses.is_dataclass(default):
            keys.extend(f"{name}.{sub.name}" for sub in dataclasses.fields(type(default)))
    return keys


#: The paper's configuration, used as the deviation reference by
#: :meth:`Scenario.model_kwargs` (constructed once, after the class exists).
_PAPER_DEFAULT = Scenario()

#: Named scenario presets selectable via ``--scenario NAME``.
PRESETS: Dict[str, Scenario] = {
    "paper-default": _PAPER_DEFAULT,
    "hmc-625mhz": Scenario(name="hmc-625mhz", hmc=HMCConfig().with_pe_frequency(625.0)),
    "hmc-8pe": Scenario(name="hmc-8pe", hmc=HMCConfig().with_pes_per_vault(8)),
    "v100-host": Scenario(name="v100-host", gpu=GPU_DEVICES["V100"]),
    "deep-pipeline": Scenario(name="deep-pipeline", pipeline_batches=32),
}


def preset_names() -> List[str]:
    """Names of the built-in scenario presets."""
    return sorted(PRESETS)
