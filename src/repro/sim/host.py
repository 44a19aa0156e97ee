"""The simulated host: discrete-event time behind the host-adapter seam.

The kernel (transaction manager, WAL, checkpointers, checkpoint
scheduler, workload sources) consumes time exclusively through the
:class:`~repro.sim.ports.SchedulerPort` / :class:`~repro.sim.ports.ClockPort`
pair.  Two hosts provide those ports:

* **SimHost** (this module) -- the discrete-event loop.  Time is a float
  that jumps from event to event; a 20-second run finishes in
  milliseconds; fixed seeds give bit-identical results.
* **LiveHost** (:mod:`repro.live.host`) -- real threads on the monotonic
  wall clock, a durable WAL file with group-commit fsync, and
  atomic-rename checkpoint images.

``SimHost`` wraps :class:`~repro.sim.system.SimulatedSystem` without
changing it: the system *is* the simulated host's kernel assembly, and
its ``engine`` attribute is the ``SchedulerPort`` implementation.  The
wrapper exists so call sites that choose a host by name get a symmetric
surface (``host.scheduler``, ``host.clock``, ``host.run``), and so the
golden arrival-stream test can drive the same seeded
:class:`~repro.sim.ports.WorkloadSource` through either host.
"""

from __future__ import annotations

from typing import List, Optional

from ..recovery.restore import RecoveryResult
from .oracle import RecordMismatch
from .system import SimulatedSystem, SimulationConfig, SimulationMetrics

__all__ = ["SimHost"]


class SimHost:
    """Discrete-event host adapter over :class:`SimulatedSystem`."""

    #: registry name of this host adapter
    name = "sim"

    def __init__(self, config: SimulationConfig,
                 system: Optional[SimulatedSystem] = None) -> None:
        self.config = config
        self.system = system if system is not None else SimulatedSystem(config)

    # -- the port pair ------------------------------------------------------
    @property
    def scheduler(self):
        """The host's :class:`~repro.sim.ports.SchedulerPort` (the engine)."""
        return self.system.engine

    @property
    def clock(self):
        """The host's :class:`~repro.sim.ports.ClockPort`."""
        return self.system.engine.clock

    @property
    def now(self) -> float:
        return self.system.engine.now

    # -- lifecycle (delegated) ----------------------------------------------
    def run(self, duration: float) -> SimulationMetrics:
        """Advance simulated time by ``duration`` seconds of load."""
        return self.system.run(duration)

    def crash(self) -> None:
        self.system.crash()

    def recover(self) -> RecoveryResult:
        return self.system.recover()

    def verify_recovery(self, limit: int = 10) -> List[RecordMismatch]:
        return self.system.verify_recovery(limit=limit)

    def arrival_log(self) -> List[dict]:
        """The recorded arrival stream (requires ``config.spans``).

        Each entry is ``{"time", "txn_id"}`` in arrival order, read from
        the ``arrival`` spans -- the stream the offline replay in
        :mod:`repro.workload.replay` must reproduce exactly (the
        host-agnostic workload golden test).
        """
        return [{"time": span["start"], "txn_id": span["fields"]["txn_id"]}
                for span in self.system.spans.spans
                if span["name"] == "arrival"]
