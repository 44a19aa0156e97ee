"""``repro live-bench``: drive the live server with a real-rate open
workload, then crash it mid-checkpoint and demand its data back.

The closed loop the host-adapter refactor exists to enable:

1. **Load** -- spawn ``repro serve`` as a subprocess, then replay a
   seeded :class:`~repro.txn.workload.WorkloadGenerator` arrival stream
   *on the wall clock*: arrivals are scheduled at absolute times (open
   system -- a slow server does not slow the arrival process), worker
   connections submit them, and latency is measured from the scheduled
   arrival to the durable acknowledgement.  The same seed fed to the
   simulated host produces the same stream in virtual time; the golden
   test in ``tests/test_workload_replay_golden.py`` pins that equality.
2. **Report** -- client-side latency percentiles, plus the server's span
   snapshot pushed through the PR 7 attribution layer
   (:func:`~repro.obs.attribution.attribute_stalls`), so
   checkpoint-induced stall time is decomposed exactly as in simulation.
3. **Crash** -- quiesce the load, arm a checkpoint hold at a phase
   boundary, SIGKILL the server inside the window, run ``repro serve
   --check`` against what is left on disk, and compare the restarted
   server's values against the client's own shadow of every
   acknowledged write.  Zero oracle mismatches and an exact shadow match
   are the pass criteria.

The emitted JSON report is validated by ``schemas/livebench.schema.json``
(``scripts/check_schema.py livebench``); CI runs the loop and that check
on every push.  Performance is measured by ``perfbench/``, not here.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..obs.attribution import attribute_stalls, checkpoint_intervals, \
    decompose_quantiles
from ..params import SystemParameters
from ..sim.rng import RandomStreams
from ..txn.workload import WorkloadGenerator
from ..workload import WorkloadSpec

__all__ = ["LiveBenchConfig", "LiveClient", "run_live_bench"]

#: report format version, checked by the schema
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class LiveBenchConfig:
    """One live benchmark run."""

    duration: float = 3.0
    rate: float = 200.0
    seed: int = 0
    scale: int = 2048
    workers: int = 4
    checkpoint_interval: float = 1.0
    flush_interval: float = 0.005
    #: SIGKILL the server mid-checkpoint and verify recovery afterwards
    kill: bool = True
    hold_phase: str = "pre-install"
    hold_seconds: float = 2.0
    data_dir: Optional[str] = None


class LiveClient:
    """A line-JSON connection to a running live server."""

    def __init__(self, port: int, timeout: float = 30.0) -> None:
        self._conn = socket.create_connection(("127.0.0.1", port),
                                              timeout=timeout)
        self._file = self._conn.makefile("rb")

    def request(self, payload: dict) -> dict:
        self._conn.sendall(json.dumps(payload).encode() + b"\n")
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._conn.close()


class _ServerProcess:
    """The ``repro serve`` subprocess plus its ready-line metadata."""

    def __init__(self, data_dir: str, config: LiveBenchConfig,
                 checkpoint_interval: Optional[float]) -> None:
        cmd = [sys.executable, "-m", "repro", "serve",
               "--data-dir", data_dir, "--port", "0",
               "--scale", str(config.scale),
               "--flush-interval", str(config.flush_interval)]
        if checkpoint_interval is None:
            cmd += ["--no-checkpoints"]
        else:
            cmd += ["--checkpoint-interval", str(checkpoint_interval)]
        env = dict(os.environ)
        src = str((os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True,
                                     env=env)
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if not line:
            stderr = (self.proc.stderr.read()
                      if self.proc.stderr is not None else "")
            raise RuntimeError(f"server failed to start: {stderr}")
        self.ready = json.loads(line)
        self.port: int = self.ready["port"]
        self.pid: int = self.ready["pid"]

    def sigkill(self) -> None:
        os.kill(self.pid, signal.SIGKILL)
        self.proc.wait(timeout=30)

    def shutdown(self) -> None:
        try:
            LiveClient(self.port).request({"op": "shutdown"})
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - safety net
            self.proc.kill()
            self.proc.wait(timeout=10)


def _arrival_plan(config: LiveBenchConfig,
                  n_records: int) -> List[Tuple[float, List[Tuple[int, int]]]]:
    """The seeded open-system arrival stream, materialised.

    ``(offset_seconds, updates)`` per transaction -- the same draw
    sequence the simulated host consumes, replayed onto the wall clock.
    """
    params = SystemParameters.scaled_down(config.scale, lam=config.rate)
    generator = WorkloadGenerator(params, WorkloadSpec(),
                                  RandomStreams(config.seed))
    plan: List[Tuple[float, List[Tuple[int, int]]]] = []
    t = 0.0
    while True:
        delay = generator.next_interarrival(t)
        if delay is None:
            break
        t += delay
        if t > config.duration:
            break
        txn = generator.make_transaction(t)
        updates = [(int(r) % n_records, txn.txn_id) for r in txn.record_ids]
        plan.append((t, updates))
    return plan


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(q / 100.0 * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def _run_load(config: LiveBenchConfig, port: int, n_records: int,
              shadow: Dict[int, int]) -> dict:
    """Replay the arrival plan against the server; returns load metrics."""
    plan = _arrival_plan(config, n_records)
    lock = threading.Lock()
    latencies: List[float] = []
    failures = [0]
    origin = time.monotonic() + 0.05  # small lead so arrival 0 is on time

    def worker(assignments: List[Tuple[float, List[Tuple[int, int]]]]) -> None:
        client = LiveClient(port)
        try:
            for offset, updates in assignments:
                delay = origin + offset - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                try:
                    response = client.request({"op": "txn", "updates": updates})
                except (OSError, ConnectionError):
                    with lock:
                        failures[0] += 1
                    continue
                acked = time.monotonic()
                if response.get("ok"):
                    with lock:
                        latencies.append(acked - (origin + offset))
                        for record_id, value in updates:
                            shadow[record_id] = value
                else:
                    with lock:
                        failures[0] += 1
        finally:
            client.close()

    threads = [
        threading.Thread(target=worker, args=(plan[i::config.workers],),
                         daemon=True)
        for i in range(config.workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    latencies.sort()
    return {
        "offered": len(plan),
        "acked": len(latencies),
        "failed": failures[0],
        "duration": config.duration,
        "rate": config.rate,
        "latency": {
            "unit": "seconds",
            "count": len(latencies),
            "mean": (sum(latencies) / len(latencies)) if latencies else 0.0,
            "p50": _percentile(latencies, 50.0),
            "p95": _percentile(latencies, 95.0),
            "p99": _percentile(latencies, 99.0),
            "max": latencies[-1] if latencies else 0.0,
        },
    }


def _stall_report(spans: List[dict]) -> dict:
    """The PR 7 decomposition over the server's spans."""
    attributions = attribute_stalls(spans)
    windows = checkpoint_intervals(spans)
    quantiles = decompose_quantiles(attributions)
    total_ckpt = sum(
        sum(a.causes.get(name, 0.0)
            for name in ("ckpt.quiesce", "ckpt.lock", "ckpt.backoff"))
        for a in attributions)
    return {
        "transactions_attributed": len(attributions),
        "checkpoint_windows": len(windows),
        "checkpoint_stall_seconds": total_ckpt,
        "quantiles": quantiles,
    }


def _check_on_disk(data_dir: str, scale: int) -> dict:
    """Run ``repro serve --check`` in a fresh process (restart + REDO)."""
    env = dict(os.environ)
    src = str((os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--check",
         "--data-dir", data_dir, "--scale", str(scale)],
        capture_output=True, text=True, env=env, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"check failed: {proc.stderr}")
    return json.loads(proc.stdout)


def run_live_bench(config: LiveBenchConfig) -> dict:
    """The full loop; returns the schema-valid report dict."""
    import tempfile
    cleanup = None
    data_dir = config.data_dir
    if data_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-live-")
        data_dir, cleanup = tmp.name, tmp
    try:
        server = _ServerProcess(data_dir, config, config.checkpoint_interval)
        n_records = server.ready["n_records"]
        shadow: Dict[int, int] = {}
        load = _run_load(config, server.port, n_records, shadow)
        control = LiveClient(server.port)
        spans = control.request({"op": "spans"})["spans"]
        stats = control.request({"op": "stats"})["stats"]
        stalls = _stall_report(spans)

        crash: dict = {"killed": False}
        if config.kill:
            # Quiesce first: with no requests in flight, every
            # acknowledged write is durable and the shadow is exact.
            response = control.request({
                "op": "checkpoint",
                "hold_phase": config.hold_phase,
                "hold_seconds": config.hold_seconds,
            })
            if not response.get("started"):
                # a scheduled checkpoint is mid-flight; wait and retry
                time.sleep(config.checkpoint_interval)
                response = control.request({
                    "op": "checkpoint",
                    "hold_phase": config.hold_phase,
                    "hold_seconds": config.hold_seconds,
                })
            control.close()
            # Land inside the hold window, then pull the plug.
            time.sleep(min(0.3, config.hold_seconds / 4))
            server.sigkill()
            verdict = _check_on_disk(data_dir, config.scale)
            # Restart for real and audit every acknowledged write.
            restarted = _ServerProcess(data_dir, config, None)
            verified = 0
            client = LiveClient(restarted.port)
            try:
                for record_id, value in shadow.items():
                    got = client.request({"op": "get", "record": record_id})
                    if got.get("value") == value:
                        verified += 1
            finally:
                client.close()
            restarted.shutdown()
            crash = {
                "killed": True,
                "hold_phase": config.hold_phase,
                "oracle_mismatches": len(verdict["mismatches"]),
                "recovery": verdict["recovery"],
                "durable_commits": verdict["durable_commits"],
                "shadow_records": len(shadow),
                "shadow_verified": verified,
                "consistent": (verdict["consistent"]
                               and verified == len(shadow)),
            }
        else:
            control.close()
            server.shutdown()

        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "livebench",
            "config": {
                "duration": config.duration,
                "rate": config.rate,
                "seed": config.seed,
                "scale": config.scale,
                "workers": config.workers,
                "checkpoint_interval": config.checkpoint_interval,
                "flush_interval": config.flush_interval,
            },
            "workload": {key: load[key] for key in
                         ("offered", "acked", "failed", "duration", "rate")},
            "latency": load["latency"],
            "stalls": stalls,
            "checkpoints": {
                "completed": stats["checkpoints_completed"],
                "wal_fsyncs": stats["wal_fsyncs"],
            },
            "crash": crash,
        }
    finally:
        if cleanup is not None:
            cleanup.cleanup()
