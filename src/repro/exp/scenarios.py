"""Scenario registry: the names a campaign spec can refer to.

Campaign specs reference scenarios *by name* so that a run is fully
described by JSON-serialisable data (name + params + seed) — that is
what makes the content hash and the worker-pool handoff possible.  The
registered callable takes the run's params as keyword arguments plus
``seed`` and ``obs``, and returns a
:class:`repro.core.outcome.ScenarioResult` (anything with a
``summary_record()`` method works).

Every built-in is a :mod:`repro.build.presets` factory wrapped by
:func:`_preset_runner`: the runnable builds the factory's
:class:`~repro.build.WorldSpec` and runs it through
:class:`~repro.build.WorldBuilder`.  The wrapper exposes the factory's
signature and docstring, so ``repro scenarios`` introspects every
scenario's parameters and defaults without running anything, and
campaign grids can sweep structural parameters (interface sets,
traffic mixes) rather than only scalars.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.build import WorldBuilder, WorldSpec, presets

ScenarioFn = Callable[..., object]

#: Parameters the engine manages; never part of a scenario's sweepable set.
_ENGINE_PARAMS = ("seed", "obs")


@dataclass(frozen=True)
class ScenarioParameter:
    """One sweepable scenario parameter and its default."""

    name: str
    default: Any = inspect.Parameter.empty
    annotation: str = ""

    @property
    def required(self) -> bool:
        return self.default is inspect.Parameter.empty

    def default_repr(self) -> str:
        return "<required>" if self.required else repr(self.default)

    def describe(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"name": self.name, "required": self.required}
        if not self.required:
            payload["default"] = _json_safe(self.default)
        if self.annotation:
            payload["annotation"] = self.annotation
        return payload


@dataclass(frozen=True)
class ScenarioEntry:
    """One registered scenario: its runnable and introspected parameters."""

    name: str
    fn: ScenarioFn
    description: str = ""
    _parameters: List[ScenarioParameter] = field(default_factory=list)

    def __post_init__(self) -> None:
        # inspect.signature follows ``__wrapped__`` to a preset factory.
        for param in inspect.signature(self.fn).parameters.values():
            if param.name in _ENGINE_PARAMS:
                continue
            if param.kind in (
                inspect.Parameter.VAR_POSITIONAL,
                inspect.Parameter.VAR_KEYWORD,
            ):
                continue
            annotation = ""
            if param.annotation is not inspect.Parameter.empty:
                annotation = (
                    param.annotation
                    if isinstance(param.annotation, str)
                    else getattr(param.annotation, "__name__", str(param.annotation))
                )
            self._parameters.append(
                ScenarioParameter(
                    name=param.name,
                    default=param.default,
                    annotation=annotation,
                )
            )

    @property
    def parameters(self) -> List[ScenarioParameter]:
        return list(self._parameters)

    @property
    def declarative(self) -> bool:
        """True when the runnable wraps a WorldSpec factory."""
        target = inspect.unwrap(self.fn)
        return target is not self.fn and inspect.signature(
            target
        ).return_annotation in (WorldSpec, "WorldSpec")

    def describe(self) -> Dict[str, Any]:
        """JSON-ready entry summary (``repro scenarios --json``)."""
        return {
            "name": self.name,
            "description": self.description,
            "declarative": self.declarative,
            "parameters": [p.describe() for p in self._parameters],
        }


def _json_safe(value: Any) -> Any:
    """Defaults as JSON-friendly values (tuples → lists, objects → repr)."""
    if isinstance(value, (tuple, list)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _first_doc_line(fn: ScenarioFn) -> str:
    doc = inspect.getdoc(fn) or ""
    return doc.splitlines()[0].strip() if doc else ""


_SCENARIOS: Dict[str, ScenarioEntry] = {}


def register_scenario(
    name: str,
    fn: ScenarioFn,
    description: Optional[str] = None,
) -> None:
    """Register ``fn`` under ``name`` (idempotent for the same callable).

    ``description`` defaults to the first line of ``fn``'s docstring.
    """
    existing = _SCENARIOS.get(name)
    if existing is not None and existing.fn is not fn:
        raise ValueError(f"scenario {name!r} already registered")
    _SCENARIOS[name] = ScenarioEntry(
        name=name,
        fn=fn,
        description=(
            description if description is not None else _first_doc_line(fn)
        ),
    )


def get_scenario(name: str) -> ScenarioFn:
    return scenario_entry(name).fn


def scenario_entry(name: str) -> ScenarioEntry:
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {scenario_names()}"
        ) from None


def scenario_entries() -> List[ScenarioEntry]:
    return [_SCENARIOS[name] for name in scenario_names()]


def scenario_names() -> List[str]:
    return sorted(_SCENARIOS)


def _preset_runner(factory: Callable[..., WorldSpec]) -> ScenarioFn:
    """The runnable for a preset: build its WorldSpec, then run it."""

    @functools.wraps(factory)
    def run(*, obs=None, **params: Any) -> object:
        return WorldBuilder(factory(**params)).run(obs=obs)

    return run


def _register_builtins() -> None:
    builtins = {
        "hotspot": presets.hotspot_world,
        "faulty-hotspot": presets.faulty_hotspot_world,
        "unscheduled": presets.unscheduled_world,
        "psm-baseline": presets.psm_baseline_world,
        "psm-crossval": presets.psm_crossval_world,
        "unap-hotspot": presets.unap_hotspot_world,
        "pamas": presets.pamas_world,
        "ecmac": presets.ecmac_world,
        "fleet-hotspot": presets.fleet_hotspot_world,
        "city-grid": presets.city_grid_world,
    }
    descriptions = {
        "psm-baseline": (
            "802.11 PSM on the packet MAC — when a standard beacon/TIM "
            "doze cycle is the right power-saving technique"
        ),
        "unap-hotspot": (
            "μNap micro-sleeps through overheard NAV reservations — when "
            "traffic is too chatty for PSM but the air is busy with "
            "other stations' exchanges"
        ),
        "pamas": (
            "PAMAS battery-level-driven independent sleep — when node "
            "lifetime matters more than reachability and there is no "
            "coordinator to ask"
        ),
        "ecmac": (
            "EC-MAC centrally scheduled doze windows — when a base "
            "station can broadcast exact transmission times and "
            "contention (and its energy waste) should be designed out"
        ),
    }
    for name, factory in builtins.items():
        register_scenario(
            name, _preset_runner(factory), description=descriptions.get(name)
        )


_register_builtins()
