"""The repository benchmark: live service, crash restart and simulator grid.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Every run covers the three paths the paper judges a checkpointer by,
and prints every end-to-end metric (``--trace 0``) or every per-layer
metric (``--trace 1``) as the last stdout line:

1. **Set-up**, done several times (median reported): build the crashed
   restart state with the live host's ``DurableLog``/``ImageStore`` and
   start a live server on an empty directory.
2. Eight repetitions of three phases, interleaved so that each phase
   samples the machine across the whole run (ten restarts in all):

   * **live service**: closed-loop get/txn load from two connections
     (fsync on, 5 ms group commit, a checkpoint every second), 0.4 of
     ``--seconds`` in all; the server is frozen between windows;
   * **restart**: the server restarts on the crashed state and is timed
     to its ready line (a low percentile is reported); it must report
     the torn tail, the exact record count and the committed values;
   * **simulator grid**: the five Fig 4a checkpointers at two loads, each
     cell crash -> recover -> verify; exact counts must repeat, and
     each part of a cell is timed at its fastest repetition.

3. **Crash audit**: the live server is SIGKILLed under load, its files
   are cut to their last fsynced size, and the oracle verdict, every
   acknowledged write and every read are checked.

The workloads differ in database size, the input property checkpoint
stalls and image loads depend on.  ``--trace 1`` runs a traced copy of
each repetition (see ``launcher.py``) and reports the per-layer split
and the tracing overhead against the untraced copies in the same run.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import signal
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import livephase  # noqa: E402
import restartphase  # noqa: E402
from serverproc import BenchError, Server  # noqa: E402
from stats import median, percentile  # noqa: E402

SIMGRID = str(Path(__file__).resolve().parent / "simgrid.py")

#: The grid's seed is fixed, as in ``repro bench``: at low load a cell
#: sees only 5-20 arrivals, and its cost swung by half between seeds, so
#: a per-seed grid would measure the seed.  ``--seed`` drives the live
#: and restart inputs.
SIM_SEED = 7

#: ``restart_s`` is this percentile of a run's restarts.  One run's
#: restarts of one state took 1.1-2.3 s on a shared 2-vCPU VM; a
#: slowdown only adds time, so a low percentile moves least between runs
#: (resampled from those restarts, 10 per run: a 10-run spread of 0.09
#: of the median, against 0.13 for the median), and the 3rd fastest of
#: 10 is not one lucky sample.
RESTART_QUANTILE = 25

#: seconds between the live server's checkpoint starts
CHECKPOINT_INTERVAL = 1.0

#: workload -> ``SystemParameters.scaled_down`` divisor of the live and
#: restart databases (BENCHMARK.json says why each was chosen)
SCALES = {"db-8mb": 8, "db-1mb": 64}

#: a run ends (and stops its children) before the 180 s it is allowed
DEADLINE_S = 170


@dataclass(frozen=True)
class Sizes:
    restart_txns: int = 20_000
    setups: int = 3
    #: load before each live window, after the server is unfrozen
    warmup: float = 0.5
    #: share of --seconds the live windows take, split over the reps
    live_share: float = 0.4
    #: repetitions of (live window, restart, grid), interleaved; the
    #: machine's speed swings by half within seconds, so more, shorter
    #: samples give steadier medians
    reps: int = 8
    #: untraced restarts per run: ``restart_s`` is a low percentile of
    #: them, which needs more samples than a median to hold still
    restarts: int = 10
    low_duration: float = 1.0
    high_duration: float = 2.0


#: minimal sizes for the benchmark's own smoke tests
SMOKE = Sizes(restart_txns=400, setups=2, warmup=0.2, reps=2, restarts=3,
              low_duration=0.2, high_duration=0.3)


def declared_units(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


class Run:
    """One benchmark run: its scratch directory and its child processes."""

    def __init__(self, args, sizes: Sizes) -> None:
        self.args = args
        self.sizes = sizes
        self.scale = SCALES[args.workload]
        self.src = str(Path("src").resolve())
        self.work = Path(".perfbench-work").resolve() / f"run-{os.getpid()}"
        self.servers: List[Server] = []
        self.children: List[subprocess.Popen] = []
        self.counter = 0

    def scratch(self, name: str) -> Path:
        self.counter += 1
        path = self.work / f"{self.counter:02d}-{name}"
        path.mkdir(parents=True)
        return path

    def close(self) -> None:
        for proc in self.children + [server.proc for server in self.servers]:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=30)
        for server in self.servers:
            server.stop()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass                    # another run still uses it

    # -- phases --------------------------------------------------------------
    def setup(self, txns) -> dict:
        """Build the restart state and start a live server, several times."""
        scale = self.scale
        times, builds = [], []
        server = None
        for i in range(self.sizes.setups):
            state = self.scratch("state")
            live = self.scratch("live")
            started = perf_counter()
            values = restartphase.build_state(state, scale, txns)
            server = Server(self.src, live, live / "data", scale,
                            CHECKPOINT_INTERVAL, False, self.servers)
            times.append(perf_counter() - started)
            builds.append(state)
            if i < self.sizes.setups - 1:
                server.shutdown()
        digests = {restartphase.digest(state) for state in builds}
        if len(digests) != 1:
            raise BenchError("set-ups built different WALs from one seed")
        return {"times": times, "states": builds, "values": values,
                "torn": restartphase.torn_tail(builds[0]),
                "wal_digest": digests.pop(), "server": server}

    def interleaved(self, setup: dict, txns, traced: bool) -> dict:
        """Live windows, restarts and simulator grids, ``reps`` of each.

        Each repetition measures a live window (the server is frozen
        between windows), one restart and one grid, so every phase
        samples the machine across the whole run.  With ``traced`` each
        repetition also runs a traced copy of all three on a second
        live server, so the tracing overhead compares like with like.
        """
        sizes, scale = self.sizes, self.scale
        expected = restartphase.expected_recovery(len(txns))
        keys = restartphase.sample_keys(self.args.seed, setup["values"], txns)
        states = setup["states"]
        loads = {False: livephase.LiveLoad(setup["server"],
                                           seed=self.args.seed, scale=scale)}
        if traced:
            work = self.scratch("live-traced")
            loads[True] = livephase.LiveLoad(
                Server(self.src, work, work / "data", scale,
                       CHECKPOINT_INTERVAL, True, self.servers),
                seed=self.args.seed, scale=scale)
        sim = SimGrid(self.src, SIM_SEED, sizes, self.children)
        window = self.args.seconds * sizes.live_share / sizes.reps
        restarts: Dict[bool, List[dict]] = {mode: [] for mode in loads}
        grids: Dict[bool, List[dict]] = {mode: [] for mode in loads}
        for j in range(sizes.reps):
            for mode, load in loads.items():
                load.resume()
                load.measure(sizes.warmup, window)
                load.pause()
                # the traced copy only splits a restart into layers; the
                # untraced restarts, spread evenly over the reps, give
                # ``restart_s``
                count = 1 if mode else (sizes.restarts * (j + 1) // sizes.reps
                                         - sizes.restarts * j // sizes.reps)
                for _ in range(count):
                    restarts[mode].append(restartphase.restart_once(
                        self.src, self.scratch("restart"),
                        states[len(restarts[mode]) % len(states)],
                        scale, trace=mode, registry=self.servers,
                        values=setup["values"], torn=setup["torn"],
                        wal_digest=setup["wal_digest"], expected=expected,
                        keys=keys))
                grids[mode].append(sim.grid(mode))
        max_rss_mb = sim.close()
        _check_grids(grids[False] + grids.get(True, []))
        live = {mode: load.kill(traced=mode) for mode, load in loads.items()}
        return {"live": live, "restarts": restarts, "grids": grids,
                "sim_max_rss_mb": max_rss_mb}


class SimGrid:
    """``simgrid.py`` in a child process, one grid per request."""

    def __init__(self, src: str, seed: int, sizes: Sizes,
                 registry: List[subprocess.Popen]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, SIMGRID, "--src", src, "--seed", str(seed),
             "--low-duration", str(sizes.low_duration),
             "--high-duration", str(sizes.high_duration)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            # one dict layout in every run, so runs differ only in the
            # machine's speed
            env=dict(os.environ, PYTHONHASHSEED="0"))
        registry.append(self.proc)

    def _ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("simulator grid process failed")
        return json.loads(line)

    def grid(self, traced: bool) -> dict:
        return self._ask("traced" if traced else "plain")

    def close(self) -> float:
        """End the process; return its peak RSS in MB."""
        max_rss_mb = self._ask("exit")["max_rss_mb"]
        self.proc.wait(timeout=30)
        self.proc.stdin.close()
        self.proc.stdout.close()
        return max_rss_mb


def _check_grids(grids: List[dict]) -> None:
    """Every cell verifies, and exact counts repeat across repetitions."""
    exact = ("events", "committed", "aborts", "replayed")
    first = [{k: cell[k] for k in exact} for cell in grids[0]["cells"]]
    for grid in grids:
        for cell, want in zip(grid["cells"], first):
            if cell["mismatches"]:
                raise BenchError(f"sim cell did not verify: {cell}")
            got = {k: cell[k] for k in exact}
            if got != want:
                raise BenchError(f"sim counts changed between repetitions "
                                 f"of one seed: {got} != {want}")


def _fastest_cells(grids: List[dict]) -> List[dict]:
    """Each cell of the grid with every part at its fastest repetition.

    The parts are set-up, each of the ``run()`` steps, recovery and
    verification, a few to a few tens of milliseconds each.  On a shared
    2-vCPU VM the grid ran up to half slower in stretches lasting
    minutes, longer than a run: the median grid of one run swung
    0.8-1.3 s between runs.  A slowdown only ever adds time, and a short
    part is more often run once without one than a whole cell is, so
    the sum of the parts' fastest repetitions is the estimate those
    stretches move least; a change that slows a part slows every
    repetition of it, its fastest too.  ``wall_s`` of each returned cell
    is that sum.
    """
    fastest = []
    for cells in zip(*(g["cells"] for g in grids)):
        parts = zip(*(c["parts_s"] for c in cells))
        fastest.append(dict(cells[0], wall_s=sum(map(min, parts))))
    return fastest


def _high_load_rate(cells: List[dict]) -> float:
    """Committed simulated txns per wall second over the high-load cells."""
    high = [c for c in cells if c["load"] == "high"]
    return sum(c["committed"] for c in high) / sum(c["wall_s"] for c in high)


def _sim_layers(grids: List[dict]) -> dict:
    def per_grid(grid):
        cells = grid["cells"]
        run_s = sum(c["run_s"] for c in cells)
        committed = sum(c["committed"] for c in cells)
        attempts = committed + sum(c["aborts"] for c in cells)
        events = sum(c["events"] for c in cells)
        return {
            "sim.low_load_run_s": sum(c["run_s"] for c in cells
                                      if c["load"] == "low"),
            "sim.high_load_run_s": sum(c["run_s"] for c in cells
                                       if c["load"] == "high"),
            "sim.recover_s": sum(c["recover_s"] for c in cells),
            "sim.events": events,
            "sim.events_per_s": events / run_s,
            "sim.commit_ratio": committed / attempts,
        }

    rows = [per_grid(g) for g in grids]
    return {key: median([row[key] for row in rows]) for key in rows[0]}


def _require(metrics: Dict[str, Optional[float]], units: Dict[str, str],
             smoke: bool) -> Dict[str, dict]:
    missing = [name for name in units if metrics.get(name) is None]
    if missing and not smoke:
        raise BenchError(f"too few samples to report {missing}; "
                         f"raise --seconds")
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if metrics.get(name) is not None}


def bench(args, sizes: Sizes, run: Run) -> dict:
    scale = run.scale
    traced = bool(args.trace)
    txns = restartphase.restart_inputs(args.seed, scale, sizes.restart_txns)

    setup = run.setup(txns)
    phases = run.interleaved(setup, txns, traced)
    live = phases["live"][False]
    restarts = phases["restarts"][False]
    grids = phases["grids"][False]
    restart_times = [r["restart_s"] for r in restarts]

    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "nproc": os.cpu_count(),
        "live": {
            "scale": scale, "n_records": setup["values"].size,
            "image_bytes": setup["values"].nbytes,
            "flush_policy": {"fsync": True, "group_commit_ms": 5,
                             "checkpoint_interval_s": CHECKPOINT_INTERVAL},
            "loop": "closed", "connections": livephase.CONNECTIONS,
            "get_fraction": livephase.GET_FRACTION,
            "keys": "HOTSPOT: 10% of records take 80% of accesses",
            "windows_s": [end - start for start, end in live["windows"].spans],
            "samples": {"commits": live["commits"], "reads": live["reads"]},
            "written_bytes": live["written_bytes"],
            "acked_user_bytes": live["acked_user_bytes"],
            "audit": live["audit"],
        },
        "restart": {
            "scale": scale, "txns": len(txns),
            "wal_records": restarts[0]["recovery"]["records_scanned"],
            "wal_bytes": restarts[0]["wal_bytes"],
            "times_s": restart_times,
            "traced_times_s": [r["restart_s"]
                               for r in phases["restarts"].get(True, [])],
            "peak_rss_mb": [r["peak_rss_mb"] for r in restarts],
        },
        "sim": {"seed": SIM_SEED, "grid_walls_s": [g["wall_s"] for g in grids],
                "traced_grid_walls_s": [g["wall_s"]
                                        for g in phases["grids"].get(True, [])],
                "max_rss_mb": phases["sim_max_rss_mb"]},
        "setup_times_s": setup["times"],
        "caveat": "fsync latency is that of the machine's (virtual) disk, "
                  "not of a reference device",
    }

    if traced:
        metrics = traced_metrics(phases)
        units = declared_units("per_layer")
        provenance["accounting"] = {
            "commit_p50_ms_untraced": metrics["commit_p50_ms"],
            "commit_path_sum_ms": sum(v for k, v in metrics.items()
                                      if k.startswith("commit_path.")),
            "restart_s_untraced": median(restart_times),
            "restart_parts_sum_s": sum(
                metrics[f"restart.{k}"] for k in restartphase.TELESCOPING),
        }
        traced_live = phases["live"][True]
        provenance["span_counts"] = dict(collections.Counter(
            row[2] for row in traced_live["spans"]
            if row[3] in traced_live["windows"]))
    else:
        figures = livephase.client_figures(live)
        fastest = _fastest_cells(grids)
        metrics = {
            "commit_p50_ms": figures["commit_p50_ms"],
            "cpu_ms_per_op": figures["cpu_ms_per_op"],
            "restart_s": percentile(restart_times, RESTART_QUANTILE),
            "sim_grid_s": sum(c["wall_s"] for c in fastest),
            "sim_txn_per_s": _high_load_rate(fastest),
            "setup_s": median(setup["times"]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in restarts]),
        }
        units = declared_units("end_to_end")
    print(json.dumps({"provenance": provenance}))
    attempted = (live["attempted"] + sum(map(len, phases["restarts"].values()))
                 + sum(len(g["cells"]) for mode in phases["grids"].values()
                       for g in mode))
    return {"correct": True, "attempted": attempted, "failed": live["failed"],
            "metrics": _require(metrics, units, args.smoke)}


def traced_metrics(phases: dict) -> dict:
    """The per-layer figures, from the traced repetition of each phase."""
    live, traced_live = phases["live"][False], phases["live"][True]
    metrics = livephase.live_layers(traced_live["ops"], traced_live["spans"],
                                    traced_live["windows"])
    # client-side figures that swing too much between runs to be gated
    metrics.update(livephase.client_figures(live))
    restarts, traced = phases["restarts"][False], phases["restarts"][True]
    plain_restart = median([r["restart_s"] for r in restarts])
    rows = [restartphase.restart_layers(r["spans"], r["restart_s"])
            for r in traced]
    metrics.update({f"restart.{k}": v for k, v in
                    restartphase.median_layers(rows).items()})
    records = restarts[0]["recovery"]["records_scanned"]
    metrics["restart.records_scanned"] = records
    metrics["restart.us_per_record"] = plain_restart / records * 1e6
    grids, traced_grids = phases["grids"][False], phases["grids"][True]
    metrics.update(_sim_layers(traced_grids))
    metrics["sim.peak_rss_mb"] = phases["sim_max_rss_mb"]

    metrics["trace.live_overhead_frac"] = (
        percentile(traced_live["commit_rtt"], 50)
        / percentile(live["commit_rtt"], 50) - 1)
    metrics["trace.restart_overhead_frac"] = (
        median([r["restart_s"] for r in traced]) / plain_restart - 1)
    metrics["trace.sim_overhead_frac"] = (
        median([g["wall_s"] for g in traced_grids])
        / median([g["wall_s"] for g in grids]) - 1)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCALES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal sizes, for the benchmark's own tests")
    args = parser.parse_args()
    if not Path("src/repro/__init__.py").is_file():
        print("run from the root of a checkout: src/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    sizes = SMOKE if args.smoke else Sizes()
    run = Run(args, sizes)

    def give_up(signum, frame):
        raise BenchError(f"stopped by signal {signum} before finishing")

    signal.signal(signal.SIGTERM, give_up)
    signal.signal(signal.SIGALRM, give_up)
    signal.alarm(DEADLINE_S)
    try:
        result = bench(args, sizes, run)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    except Exception:  # noqa: BLE001 - report, then fail the run
        traceback.print_exc()
        return 1
    finally:
        signal.alarm(0)
        run.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
