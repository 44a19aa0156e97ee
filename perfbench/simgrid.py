"""The Fig 4a simulator grid, run in a process of its own.

    python3 perfbench/simgrid.py --src SRC --seed N
        --low-duration D --high-duration D

One grid is the five Fig 4a checkpointers at two loads.  Every cell is
``run()`` (in timed steps) -> ``crash()`` -> ``recover()`` ->
``verify_recovery()``:

* low load, ``SystemParameters.scaled_down(256)``: the paper's ratios,
  where the checkpointer's per-segment loop is almost all of the time;
* high load, 128 segments at lambda=300 with 8 backup disks: the
  transaction path does the work.

Each stdin line ``plain`` or ``traced`` runs one grid and answers one
JSON line; ``traced`` wraps ``SimulatedSystem.run``/``recover``/
``verify_recovery`` for that grid, so the tracing overhead is measured in
the same process.  ``exit`` (or end of input) answers the process's
peak RSS and ends it.  A process of its own keeps the grid's memory peak
and heap apart from the live phases, and lets the benchmark interleave
grids with restarts.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer  # noqa: E402

ALGORITHMS = ("FUZZYCOPY", "2CFLUSH", "2CCOPY", "COUFLUSH", "COUCOPY")

#: a cell's ``run()`` is called in this many equal steps, each timed on
#: its own, so that the benchmark can take every step at its fastest
#: repetition; the engine stops its clock exactly at each step's end, so
#: the events are those of one call (the exact counts are checked)
RUN_STEPS = 20


def grid_params():
    from repro.params import SystemParameters
    return {
        "low": SystemParameters.scaled_down(256),
        "high": SystemParameters(s_db=128 * 8192, lam=300.0, t_seek=0.002,
                                 n_bdisks=8),
    }


def run_grid(params, seed: int, durations, tracer=None) -> dict:
    """One pass over the grid; per-cell timings, counts and verdicts."""
    from repro.checkpoint.scheduler import CheckpointPolicy
    from repro.sim.system import SimulatedSystem, SimulationConfig

    cells = []
    started = perf_counter()
    for load in ("low", "high"):
        for algorithm in ALGORITHMS:
            t0 = perf_counter()
            system = SimulatedSystem(SimulationConfig(
                params=params[load], algorithm=algorithm, seed=seed,
                policy=CheckpointPolicy(), preload_backup=True))
            t1 = perf_counter()
            steps = []
            for _ in range(RUN_STEPS):
                step = perf_counter()
                system.run(durations[load] / RUN_STEPS)
                steps.append(perf_counter() - step)
            t2 = perf_counter()
            system.crash()
            result = system.recover()
            t3 = perf_counter()
            mismatches = system.verify_recovery()
            t4 = perf_counter()
            stats = system.txn_manager.stats
            cells.append({
                "load": load, "algorithm": algorithm,
                "wall_s": t4 - t0, "run_s": t2 - t1, "recover_s": t3 - t2,
                "verify_s": t4 - t3,
                # every timed part of the cell, in order
                "parts_s": [t1 - t0, *steps, t3 - t2, t4 - t3],
                "events": system.engine.dispatched,
                "committed": stats.committed,
                "aborts": sum(stats.aborts.values()),
                "replayed": result.transactions_replayed,
                "mismatches": len(mismatches),
            })
    return {"wall_s": perf_counter() - started, "traced": tracer is not None,
            "cells": cells}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--low-duration", type=float, required=True)
    parser.add_argument("--high-duration", type=float, required=True)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from repro.sim.system import SimulatedSystem

    params = grid_params()
    durations = {"low": args.low_duration, "high": args.high_duration}
    plain = {name: getattr(SimulatedSystem, name)
             for name in ("run", "recover", "verify_recovery")}
    tracer = Tracer()
    for line in sys.stdin:
        command = line.strip()
        if command == "exit":
            break
        traced = command == "traced"
        if traced:
            for name in plain:
                tracer.wrap(SimulatedSystem, name, "sim." + name)
        grid = run_grid(params, args.seed, durations,
                        tracer if traced else None)
        for name, method in plain.items():
            setattr(SimulatedSystem, name, method)
        print(json.dumps(grid), flush=True)
    print(json.dumps({
        "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
