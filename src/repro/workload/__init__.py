"""The open-system workload subsystem.

Everything about *what load a simulation run sees* lives here:

* :mod:`repro.workload.spec` -- the declarative
  :class:`~repro.workload.spec.WorkloadSpec` (skew, size mixture,
  arrival discipline, optional schedule), strictly dict/JSON
  round-trippable;
* :mod:`repro.workload.schedule` -- :class:`ArrivalSchedule` and its
  phase grammar (constant / ramp / spike / diurnal / pause);
* :mod:`repro.workload.scenarios` -- the ``@register_scenario``
  registry and the built-in presets (``bank``, ``kv``, ``read-heavy``,
  ``write-storm``, ``diurnal``);
* :mod:`repro.workload.source` -- the
  :class:`~repro.workload.source.ScheduledWorkloadSource` arrival
  source behind the :class:`~repro.sim.ports.WorkloadSource` port;
* :mod:`repro.workload.cells` -- scenarios as sweepable points.

``source`` and ``cells`` are exported lazily (module ``__getattr__``):
they import :mod:`repro.txn.workload` (the generator), which imports
this package for the spec -- the lazy hop keeps that cycle-free, the
same pattern :mod:`repro.sim` uses.
"""

from __future__ import annotations

from typing import Any

from .schedule import (
    PHASE_KINDS,
    ArrivalSchedule,
    SchedulePhase,
    constant,
    diurnal,
    pause,
    ramp,
    spike,
)
from .scenarios import (
    WorkloadScenario,
    get_scenario,
    register_scenario,
    resolve_workload,
    scenario_names,
    unregister_scenario,
)
from .spec import AccessDistribution, WorkloadSpec

__all__ = [
    "AccessDistribution",
    "ArrivalSchedule",
    "PHASE_KINDS",
    "SchedulePhase",
    "ScheduledWorkloadSource",
    "WorkloadScenario",
    "WorkloadSpec",
    "constant",
    "diurnal",
    "get_scenario",
    "pause",
    "ramp",
    "register_scenario",
    "resolve_workload",
    "run_scenario_cell",
    "scenario_names",
    "scenario_points",
    "spike",
    "unregister_scenario",
]

_LAZY = {
    "ScheduledWorkloadSource": ("repro.workload.source",
                                "ScheduledWorkloadSource"),
    "run_scenario_cell": ("repro.workload.cells", "run_scenario_cell"),
    "scenario_points": ("repro.workload.cells", "scenario_points"),
}


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value
