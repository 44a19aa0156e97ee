"""The canonical perf harness: the per-PR ``BENCH_*.json`` trajectory.

ROADMAP item 2's kernel-optimization work needs a fixed yardstick, and
this module is it.  Four measurements, each a wall-clock rate of the
testbed substrate:

* **engine events/sec** -- raw :class:`~repro.sim.engine.EventEngine`
  dispatch throughput over self-rescheduling no-op callback chains (the
  heap push/pop + dispatch floor every simulation pays);
* **simulated txns/sec** -- committed transactions per wall-clock
  second of a standard FUZZYCOPY run (the benchmark configuration of
  ``benchmarks/bench_simulator.py``: 128-segment database, lam=300);
* **recovery replay rate** -- transactions replayed per wall-clock
  second by :meth:`SimulatedSystem.recover` after an end-of-run crash,
  with the oracle verdict recorded;
* **sweep wall-clock** -- one serial 4-cell algorithm x load sweep
  through :class:`~repro.sweep.SweepRunner` (cache off), the shape
  every figure driver runs.

:func:`run_harness` produces a plain-JSON payload that validates
against ``schemas/bench.schema.json`` (enforced by
``scripts/check_schema.py bench`` and ``tests/test_spans.py``);
:func:`write_bench` writes it to ``BENCH_<pr>.json``.  Each repeat
builds a fresh system and the *best* wall time is kept -- the standard
way to suppress scheduler noise on shared CI runners.  Every simulated
workload is fixed-seed, so the work measured is bit-identical from run
to run and PR to PR; only the wall clock varies.

Entry points: ``repro bench`` (the CLI) and ``python
benchmarks/harness.py`` (standalone).
"""

from __future__ import annotations

import json
import platform
import sys
import time
from typing import Any, Callable, Dict, Optional, Tuple

from .checkpoint.scheduler import CheckpointPolicy
from .params import SystemParameters
from .sim.engine import EventEngine
from .sim.system import SimulatedSystem, SimulationConfig

#: bumped when the payload layout changes incompatibly
BENCH_SCHEMA_VERSION = 1

#: the PR ordinal this tree's ``repro bench`` stamps by default; the
#: next perf-touching PR bumps it and commits a fresh ``BENCH_<n>.json``
#: beside the old ones -- that growing series *is* the trajectory.
CURRENT_PR = 10

#: the rate metrics ``repro bench --compare`` gates on, as
#: ``(results section, metric key)`` pairs -- all higher-is-better
COMPARED_METRICS: Tuple[Tuple[str, str], ...] = (
    ("engine_events", "events_per_second"),
    ("simulated_txns", "txns_per_second"),
    ("simulated_txns", "events_per_second"),
    ("recovery_replay", "replayed_per_second"),
    ("sweep_wall_clock", "cells_per_second"),
)

#: default allowed wall-clock slowdown before ``--compare`` fails: CI
#: runners are shared, so a tight gate would flake; a 30% drop on the
#: *best-of* wall time is a real regression, not scheduler noise
DEFAULT_COMPARE_TOLERANCE = 0.30

#: full-fidelity workload sizes (the committed trajectory points)
FULL = {
    "engine_events": 300_000,
    "engine_chains": 16,
    "sim_duration": 4.0,
    "recovery_duration": 3.0,
    "sweep_duration": 1.5,
    "repeats": 3,
}

#: CI smoke sizes (``repro bench --quick``): same shape, ~10x cheaper
QUICK = {
    "engine_events": 50_000,
    "engine_chains": 16,
    "sim_duration": 1.0,
    "recovery_duration": 1.0,
    "sweep_duration": 0.5,
    "repeats": 1,
}


def _bench_params() -> SystemParameters:
    """The standard benchmark configuration (bench_simulator.py's)."""
    return SystemParameters(
        s_db=128 * 8192, lam=300.0, t_seek=0.002, n_bdisks=8)


def _best_of(fn: Callable[[], Any], repeats: int) -> Tuple[float, Any]:
    """(best wall seconds, last result) over ``repeats`` fresh runs."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_engine_events(n_events: int = FULL["engine_events"],
                        chains: int = FULL["engine_chains"],
                        repeats: int = FULL["repeats"]) -> Dict[str, Any]:
    """Raw event-dispatch rate over ``chains`` self-rescheduling chains.

    Each chain's callback re-schedules itself a fixed interval ahead, so
    the heap holds ``chains`` live events throughout -- small enough to
    isolate dispatch cost, deep enough that sift-down is not a no-op.
    """
    per_chain = n_events // chains

    def once() -> int:
        engine = EventEngine()

        def start_chain(offset: float) -> None:
            remaining = per_chain

            def tick() -> None:
                nonlocal remaining
                remaining -= 1
                if remaining > 0:
                    engine.schedule_after(1e-3, tick)

            engine.schedule_at(offset, tick)

        for chain in range(chains):
            start_chain(1e-4 * chain)
        engine.run()
        return engine.dispatched

    wall, dispatched = _best_of(once, repeats)
    return {
        "events": dispatched,
        "wall_seconds": wall,
        "events_per_second": dispatched / wall,
    }


def bench_simulated_txns(duration: float = FULL["sim_duration"],
                         repeats: int = FULL["repeats"],
                         algorithm: str = "FUZZYCOPY") -> Dict[str, Any]:
    """Committed txns (and engine events) per wall second of one run."""

    def once() -> SimulatedSystem:
        system = SimulatedSystem(SimulationConfig(
            params=_bench_params(), algorithm=algorithm, seed=7,
            policy=CheckpointPolicy(), preload_backup=True))
        system.run(duration)
        return system

    wall, system = _best_of(once, repeats)
    committed = system.txn_manager.stats.committed
    return {
        "algorithm": algorithm,
        "simulated_seconds": duration,
        "committed": committed,
        "engine_events": system.engine.dispatched,
        "wall_seconds": wall,
        "txns_per_second": committed / wall,
        "events_per_second": system.engine.dispatched / wall,
    }


def bench_recovery_replay(duration: float = FULL["recovery_duration"],
                          repeats: int = FULL["repeats"],
                          algorithm: str = "FUZZYCOPY") -> Dict[str, Any]:
    """REDO replay rate of crash recovery, with the oracle verdict."""

    def prepare() -> SimulatedSystem:
        system = SimulatedSystem(SimulationConfig(
            params=_bench_params(), algorithm=algorithm, seed=7,
            policy=CheckpointPolicy(), preload_backup=True))
        system.run(duration)
        system.crash()
        return system

    best = float("inf")
    replayed = 0
    verified = True
    for _ in range(max(1, repeats)):
        system = prepare()  # rebuilt each round: recovery is one-shot
        start = time.perf_counter()
        result = system.recover()
        best = min(best, time.perf_counter() - start)
        replayed = result.transactions_replayed
        verified = verified and not system.verify_recovery()
    return {
        "algorithm": algorithm,
        "transactions_replayed": replayed,
        "wall_seconds": best,
        "replayed_per_second": replayed / best if best > 0 else 0.0,
        "verified": verified,
    }


def bench_sweep_wall_clock(duration: float = FULL["sweep_duration"],
                           repeats: int = FULL["repeats"],
                           workers: int = 1) -> Dict[str, Any]:
    """Wall clock of a 4-cell sweep (the figure-driver shape).

    ``workers > 1`` exercises the process-pool path of
    :class:`~repro.sweep.SweepRunner` -- the committed trajectory points
    stay serial (``workers=1``) so they remain comparable across PRs,
    but ``repro bench --workers N`` lets the pool's scaling be measured
    on any machine.
    """
    from .api import simulate
    from .sweep import SweepRunner, SweepSpec

    grid = {"algorithm": ["FUZZYCOPY", "COUCOPY"], "lam": [150.0, 300.0]}

    def once() -> int:
        spec = SweepSpec.from_grid(
            simulate, grid,
            fixed={"scale": 1024, "duration": duration, "seed": 7})
        result = SweepRunner(workers=workers, cache_dir=None).run(spec)
        result.raise_failures()
        return len(result)

    wall, cells = _best_of(once, repeats)
    return {
        "cells": cells,
        "simulated_seconds_per_cell": duration,
        "wall_seconds": wall,
        "cells_per_second": cells / wall,
        "workers": workers,
    }


def run_harness(quick: bool = False,
                pr: Optional[int] = None,
                repeats: Optional[int] = None,
                workers: int = 1) -> Dict[str, Any]:
    """The full measurement pass; returns the ``BENCH_*.json`` payload."""
    sizes = dict(QUICK if quick else FULL)
    if repeats is not None:
        sizes["repeats"] = repeats
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "pr": CURRENT_PR if pr is None else pr,
        "created_unix": time.time(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "quick": quick,
        "repeats": sizes["repeats"],
        "results": {
            "engine_events": bench_engine_events(
                sizes["engine_events"], sizes["engine_chains"],
                sizes["repeats"]),
            "simulated_txns": bench_simulated_txns(
                sizes["sim_duration"], sizes["repeats"]),
            "recovery_replay": bench_recovery_replay(
                sizes["recovery_duration"], sizes["repeats"]),
            "sweep_wall_clock": bench_sweep_wall_clock(
                sizes["sweep_duration"], sizes["repeats"], workers),
        },
    }


def compare_bench(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    tolerance: float = DEFAULT_COMPARE_TOLERANCE,
) -> Tuple[str, list]:
    """Per-metric deltas of ``current`` against ``baseline``.

    Returns ``(report, regressions)``: a human-readable table of every
    metric in :data:`COMPARED_METRICS`, and the list of regression
    descriptions -- metrics whose rate fell more than ``tolerance``
    (fractional, e.g. ``0.30`` = 30%) below the baseline.  An empty
    ``regressions`` list is the gate passing.  Metrics absent from
    either payload are reported but never counted as regressions, so
    older baselines stay usable after additive schema growth.
    """
    if not 0 <= tolerance < 1:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance!r}")
    base_results = baseline.get("results", {})
    cur_results = current.get("results", {})
    lines = [
        f"bench compare: PR {current.get('pr', '?')} vs "
        f"PR {baseline.get('pr', '?')} baseline "
        f"(tolerance -{tolerance:.0%})"
    ]
    regressions = []
    for section, key in COMPARED_METRICS:
        name = f"{section}.{key}"
        base = base_results.get(section, {}).get(key)
        cur = cur_results.get(section, {}).get(key)
        if not isinstance(base, (int, float)) or not isinstance(cur, (int, float)):
            lines.append(f"  {name:<40} (missing; skipped)")
            continue
        if base > 0:
            delta = (cur - base) / base
            verdict = "REGRESSION" if delta < -tolerance else "ok"
            lines.append(
                f"  {name:<40} {base:>14,.0f} -> {cur:>14,.0f}  "
                f"{delta:+.1%}  {verdict}")
            if delta < -tolerance:
                regressions.append(
                    f"{name}: {base:,.0f} -> {cur:,.0f} ({delta:+.1%}, "
                    f"allowed -{tolerance:.0%})")
        else:
            lines.append(f"  {name:<40} baseline rate is 0; skipped")
    lines.append(
        "  PASS: no metric regressed beyond tolerance" if not regressions
        else f"  FAIL: {len(regressions)} metric(s) regressed")
    return "\n".join(lines), regressions


def write_bench(path: Optional[str] = None,
                *,
                quick: bool = False,
                pr: Optional[int] = None,
                repeats: Optional[int] = None,
                workers: int = 1,
                profile: Optional[str] = None) -> Tuple[str, Dict[str, Any]]:
    """Run the harness and write ``BENCH_<pr>.json``; returns (path, payload).

    ``path=None`` writes ``BENCH_<pr>.json`` in the current directory --
    the repo root in the committed-trajectory workflow.  ``profile``
    additionally runs the whole measurement pass under :mod:`cProfile`
    and dumps binary pstats there (load with ``pstats.Stats(path)`` or
    ``snakeviz``); the profiled wall times are *not* comparable to
    unprofiled trajectory points, so profile runs should not be
    committed as ``BENCH_<n>.json``.
    """
    if profile is not None:
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            payload = run_harness(quick=quick, pr=pr, repeats=repeats,
                                  workers=workers)
        finally:
            profiler.disable()
            profiler.dump_stats(profile)
    else:
        payload = run_harness(quick=quick, pr=pr, repeats=repeats,
                              workers=workers)
    if path is None:
        path = f"BENCH_{payload['pr']}.json"
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, indent=2, sort_keys=True)
        fp.write("\n")
    return path, payload


def render_bench(payload: Dict[str, Any]) -> str:
    """The human-readable ``repro bench`` summary of one payload."""
    results = payload["results"]
    engine = results["engine_events"]
    sim = results["simulated_txns"]
    rec = results["recovery_replay"]
    sweep = results["sweep_wall_clock"]
    mode = "quick" if payload.get("quick") else "full"
    return "\n".join([
        f"bench (PR {payload['pr']}, {mode}, "
        f"{payload['repeats']} repeat(s), best wall time kept)",
        f"  engine dispatch      {engine['events_per_second']:,.0f} "
        f"events/s ({engine['events']:,} events in "
        f"{engine['wall_seconds']:.3f}s)",
        f"  simulation           {sim['txns_per_second']:,.0f} txns/s, "
        f"{sim['events_per_second']:,.0f} events/s "
        f"({sim['algorithm']}, {sim['committed']:,} commits)",
        f"  recovery replay      {rec['replayed_per_second']:,.0f} txns/s "
        f"({rec['transactions_replayed']:,} replayed, oracle "
        + ("PASS)" if rec["verified"] else "FAIL)"),
        f"  sweep                {sweep['cells']} cells in "
        f"{sweep['wall_seconds']:.2f}s "
        f"({sweep['cells_per_second']:.2f} cells/s, serial)",
    ])


def main(argv: Optional[list] = None) -> int:  # pragma: no cover - thin
    """Standalone entry point (``python benchmarks/harness.py``)."""
    import argparse
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", default=None)
    parser.add_argument("--pr", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--profile", default=None, metavar="PATH")
    parser.add_argument("--compare", default=None, metavar="BASELINE.json")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_COMPARE_TOLERANCE)
    args = parser.parse_args(argv)
    path, payload = write_bench(args.out, quick=args.quick, pr=args.pr,
                                repeats=args.repeats, workers=args.workers,
                                profile=args.profile)
    print(render_bench(payload))
    print(f"bench written to {path}", file=sys.stderr)
    if args.profile:
        print(f"profile written to {args.profile}", file=sys.stderr)
    if args.compare:
        with open(args.compare, encoding="utf-8") as fp:
            baseline = json.load(fp)
        report, regressions = compare_bench(baseline, payload,
                                            tolerance=args.tolerance)
        print(report)
        if regressions:
            return 1
    return 0
