"""Run export/import: one JSONL file per run, spans plus metrics.

The export format is line-oriented JSON with two line shapes:

* a **meta** header -- ``{"type": "meta", ...}`` with the scenario
  identity (algorithm, seed, duration, preset name, ...);
* a **metrics** footer -- ``{"type": "metrics", "summary": {...},
  "telemetry": {...}, "checkpoints": [...], "spans": [...]}`` holding
  the final :class:`~repro.sim.system.SimulationMetrics` dict, the
  :class:`~repro.obs.metrics.MetricsRegistry` snapshot, the
  per-checkpoint phase history, and -- for a span-recorded run -- the
  :meth:`~repro.obs.spans.SpanRecorder.snapshot` span list, lifecycle
  events (``arrival``, ``commit``, ...) included as zero-duration
  spans (``null`` when spans were off, so the absence is
  distinguishable from an empty trace).

Every value is a plain JSON scalar/dict/list, so a file written by
:func:`export_run` reloads with :func:`load_run` into exactly the
structures that produced it -- the round-trip determinism contract
``tests/test_obs.py`` enforces.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, TYPE_CHECKING, Union

from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.system import SimulatedSystem

PathLike = Union[str, "os.PathLike[str]"]


@dataclass
class RunRecord:
    """One exported run, reloaded."""

    meta: Dict[str, Any] = field(default_factory=dict)
    summary: Optional[Dict[str, Any]] = None
    telemetry: Optional[Dict[str, Any]] = None
    checkpoints: List[Dict[str, Any]] = field(default_factory=list)
    spans: Optional[List[Dict[str, Any]]] = None


def export_run(
    path: PathLike,
    *,
    summary: Optional[Dict[str, Any]] = None,
    telemetry: Optional[Dict[str, Any]] = None,
    checkpoints: Optional[List[Dict[str, Any]]] = None,
    spans: Optional[List[Dict[str, Any]]] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Write one run to ``path``; returns the number of lines written."""
    header = {"type": "meta", **(meta or {})}
    footer = {
        "type": "metrics",
        "summary": summary,
        "telemetry": telemetry,
        "checkpoints": checkpoints or [],
        "spans": spans,
    }
    with open(path, "w", encoding="utf-8") as fp:
        for line in (header, footer):
            fp.write(json.dumps(line, sort_keys=True) + "\n")
    return 2


def export_system_run(path: PathLike, system: "SimulatedSystem",
                      meta: Optional[Dict[str, Any]] = None) -> int:
    """Export a simulated system's spans, metrics, and checkpoint history."""
    return export_run(
        path,
        summary=asdict(system.metrics()),
        telemetry=system.telemetry_snapshot(),
        checkpoints=[asdict(stats) for stats in system.checkpointer.history],
        spans=system.spans_snapshot(),
        meta={
            "algorithm": system.config.algorithm,
            "seed": system.config.seed,
            "n_segments": system.params.n_segments,
            "spans_dropped": system.spans.dropped,
            **(meta or {}),
        },
    )


def load_run(path: PathLike) -> RunRecord:
    """Reload a run written by :func:`export_run`."""
    record = RunRecord()
    saw_any = False
    with open(path, "r", encoding="utf-8") as fp:
        for line in fp:
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            saw_any = True
            if data.get("type") == "meta":
                record.meta = {k: v for k, v in data.items() if k != "type"}
            elif data.get("type") == "metrics":
                record.summary = data.get("summary")
                record.telemetry = data.get("telemetry")
                record.checkpoints = data.get("checkpoints") or []
                record.spans = data.get("spans")
            else:
                raise ConfigurationError(
                    f"{path}: unrecognised line in run export: {line[:80]!r}")
    if not saw_any:
        raise ConfigurationError(f"{path}: empty run export")
    return record
