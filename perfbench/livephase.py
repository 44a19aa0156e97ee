"""Closed-loop get/txn load on the live server, then SIGKILL and audit.

Two connections, each with one request in flight (the line protocol
allows no more).  An operation is a ``get`` with probability
:data:`GET_FRACTION`, otherwise a 5-update ``txn``; keys come from the
repo's seeded HOTSPOT distribution (10% of records take 80% of
accesses).  Every txn writes one value that no other txn writes, so a
value read back names the transaction that wrote it.
"""

from __future__ import annotations

import bisect
import json
import signal
import threading
import time
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Set

import numpy as np

from serverproc import BenchError, Client, Server
from stats import (UPDATE_BYTES, cut_to_durable, durable_sizes, median,
                   percentile, write_amp)

GET_FRACTION = 0.8
CONNECTIONS = 2
#: seconds of load between the last resume and the SIGKILL
KILL_AFTER = 0.3


class Op:
    """One request: what was sent, when, and what came back."""

    __slots__ = ("keys", "value", "sent", "done", "reply")

    def __init__(self, keys, value: Optional[int]) -> None:
        self.keys = keys
        self.value = value          # None for a get
        self.sent = 0.0
        self.done: Optional[float] = None
        self.reply: Optional[dict] = None

    @property
    def is_txn(self) -> bool:
        return self.value is not None

    @property
    def ok(self) -> bool:
        return self.reply is not None and bool(self.reply.get("ok"))


def _generators(seed: int, connection: int, scale: int):
    from repro.params import SystemParameters
    from repro.sim.rng import RandomStreams
    from repro.txn.workload import WorkloadGenerator
    from repro.workload.spec import AccessDistribution, WorkloadSpec

    params = SystemParameters.scaled_down(scale)
    spec = WorkloadSpec(distribution=AccessDistribution.HOTSPOT)
    base = (seed * CONNECTIONS + connection) * 2
    txns = WorkloadGenerator(params, spec, RandomStreams(base))
    gets = WorkloadGenerator(params.replace(n_ru=1), spec,
                             RandomStreams(base + 1))
    return txns, gets, np.random.default_rng([seed, connection])


class Windows:
    """The measured intervals of one live server, ``[start, end)`` each."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []

    def add(self, start: float, end: float) -> None:
        self.spans.append((start, end))

    def __contains__(self, t: float) -> bool:
        return any(start <= t < end for start, end in self.spans)

    @property
    def total(self) -> float:
        return sum(end - start for start, end in self.spans)


class LiveLoad:
    """Closed-loop load on one server, measured in windows between pauses.

    Between windows the load stops and the server is frozen with
    SIGSTOP, so the restarts and simulator grids measured meanwhile
    share the machine with nothing, and the windows sample the machine
    at several moments of the run rather than one.
    """

    def __init__(self, server: Server, *, seed: int, scale: int) -> None:
        self.server = server
        self.scale = scale
        self.windows = Windows()
        self.written = 0
        self.cpu_s = 0.0
        self.stop = threading.Event()
        self.go = threading.Event()
        self.idle = [threading.Event() for _ in range(CONNECTIONS)]
        self.ops: List[List[Op]] = [[] for _ in range(CONNECTIONS)]
        self.threads = [threading.Thread(target=self._load,
                                         args=(c, seed), daemon=True)
                        for c in range(CONNECTIONS)]
        for thread in self.threads:
            thread.start()
        self.pause()

    def _load(self, connection: int, seed: int) -> None:
        txns, gets, mix = _generators(seed, connection, self.scale)
        client = Client(self.server.port)
        ops = self.ops[connection]
        written = 0
        try:
            while not self.stop.is_set():
                if not self.go.is_set():
                    self.idle[connection].set()
                    self.go.wait()
                    continue
                if mix.random() < GET_FRACTION:
                    key = gets.make_transaction(0.0).record_ids[0]
                    op = Op((key,), None)
                    payload = {"op": "get", "record": key}
                else:
                    keys = txns.make_transaction(0.0).record_ids
                    value = CONNECTIONS * written + connection + 1
                    written += 1
                    op = Op(keys, value)
                    payload = {"op": "txn",
                               "updates": [[k, value] for k in keys]}
                data = json.dumps(payload).encode() + b"\n"
                ops.append(op)
                op.sent = perf_counter()
                try:
                    client.conn.sendall(data)
                except OSError:
                    break
                reply = client.receive()
                if reply is None:
                    break
                op.done = perf_counter()
                op.reply = reply
        finally:
            client.close()

    def measure(self, warmup: float, seconds: float) -> None:
        """Let the load settle for ``warmup`` s, then measure ``seconds``."""
        time.sleep(warmup)
        server = self.server
        start, io0, cpu0 = perf_counter(), server.proc_io(), server.cpu_s()
        time.sleep(seconds)
        end, io1, cpu1 = perf_counter(), server.proc_io(), server.cpu_s()
        self.windows.add(start, end)
        self.written += io1["write_bytes"] - io0["write_bytes"]
        self.cpu_s += cpu1 - cpu0

    def pause(self) -> None:
        """Stop sending, let in-flight requests finish, freeze the server."""
        self.go.clear()
        for idle in self.idle:
            if not idle.wait(timeout=60):
                raise BenchError("a load connection did not go idle")
        self.server.signal(signal.SIGSTOP)

    def resume(self) -> None:
        for idle in self.idle:
            idle.clear()
        self.server.signal(signal.SIGCONT)
        self.go.set()

    def kill(self, traced: bool) -> dict:
        """SIGKILL the server under load and audit what it left on disk."""
        self.resume()
        time.sleep(KILL_AFTER)
        rss = self.server.peak_rss_mb()
        spans = self.server.dump_spans() if traced else None
        # Both connections still have requests in flight.
        self.server.sigkill()
        self.stop.set()
        self.go.set()
        for thread in self.threads:
            thread.join(timeout=30)
            if thread.is_alive():
                raise BenchError("load thread did not stop after the kill")
        ops = [op for batch in self.ops for op in batch]
        measured = _measure(ops, self.windows, self.written, self.cpu_s)
        measured.update(peak_rss_mb=rss, windows=self.windows, ops=ops,
                        spans=spans)
        measured["audit"] = _audit(ops, self.server.data_dir,
                                   self.server.fsync_log, self.scale)
        return measured


def _measure(ops: List[Op], windows: Windows, written: int,
             cpu_s: float) -> dict:
    """End-to-end figures over the operations sent inside the windows.

    An operation still in flight at the kill is neither attempted nor
    failed: the kill, not the server, cut it off.
    """
    window = [op for op in ops if op.done is not None and op.sent in windows]
    commits = [op for op in window if op.is_txn and op.ok]
    reads = [op for op in window if not op.is_txn and op.ok]
    failed = sum(1 for op in window if not op.ok)
    completed = [op for op in window if op.ok and op.done in windows]
    acked_updates = sum(len(op.keys) for op in commits)
    return {
        "attempted": len(window),
        "failed": failed,
        "commit_rtt": [op.done - op.sent for op in commits],
        "read_rtt": [op.done - op.sent for op in reads],
        "ops_per_s": len(completed) / windows.total,
        "cpu_ms_per_op": cpu_s * 1e3 / len(completed) if completed else None,
        "write_amp": write_amp(written, acked_updates),
        "written_bytes": written,
        "acked_user_bytes": acked_updates * UPDATE_BYTES,
        "commits": len(commits),
        "reads": len(reads),
    }


def _audit(ops: List[Op], data_dir: Path, fsync_log: Path,
           scale: int) -> dict:
    """The post-kill gates.  Raises :class:`BenchError` on any breach.

    1. Cut every file back to its last fsynced size.
    2. ``repro.live.server.check`` recovers and must report zero oracle
       mismatches.
    3. Every record holds its last acknowledged value (by commit LSN)
       or a value of a txn that was unacknowledged at the kill; a
       record no txn wrote holds 0.
    4. Every get returned 0 or a value of a txn that wrote that key and
       had been sent before the get's reply arrived.
    """
    from repro.live.host import LiveConfig, LiveHost
    from repro.live.server import check

    cut = cut_to_durable(data_dir, durable_sizes(fsync_log.read_text()))
    verdict = check(str(data_dir), scale=scale)
    if verdict["mismatches"] or not verdict["consistent"]:
        raise BenchError(f"oracle mismatches after restart: {verdict}")
    host = LiveHost(LiveConfig(data_dir=str(data_dir), scale=scale,
                               checkpoint_interval=None, spans=False))
    try:
        host.recover()
        values = host.database.values_snapshot()
    finally:
        host.log.close()

    last_acked: Dict[int, tuple] = {}
    maybe: Dict[int, Set[int]] = {}
    writers: Dict[int, Op] = {}
    unacked = 0
    for op in ops:
        if not op.is_txn:
            continue
        writers[op.value] = op
        if op.ok:
            lsn = op.reply["commit_lsn"]
            for key in op.keys:
                if key not in last_acked or last_acked[key][0] < lsn:
                    last_acked[key] = (lsn, op.value)
        else:
            unacked += 1
            for key in op.keys:
                maybe.setdefault(key, set()).add(op.value)
    touched = set(last_acked) | set(maybe)
    lost = []
    for key in touched:
        allowed = maybe.get(key, set()) | {last_acked.get(key, (0, 0))[1]}
        if int(values[key]) not in allowed:
            lost.append((key, int(values[key]), sorted(allowed)[:4]))
    untouched = np.ones(values.size, dtype=bool)
    untouched[list(touched)] = False
    stray = np.nonzero(values[untouched])[0]
    if lost or stray.size:
        raise BenchError(f"acknowledged writes lost after SIGKILL: "
                         f"{lost[:5]} stray={stray[:5].tolist()}")

    bad_reads = 0
    for op in ops:
        if op.is_txn or not op.ok:
            continue
        value = op.reply["value"]
        if value == 0:
            continue
        writer = writers.get(value)
        if (writer is None or op.keys[0] not in writer.keys
                or writer.sent >= op.done):
            bad_reads += 1
    if bad_reads:
        raise BenchError(f"{bad_reads} gets returned a value no txn wrote")
    return {
        "cut_bytes": cut,
        "recovery": verdict["recovery"],
        "durable_commits": verdict["durable_commits"],
        "records_checked": len(touched),
        "unacked_txns": unacked,
        "reads_checked": sum(1 for op in ops if not op.is_txn and op.ok),
    }


def commit_path(ops: List[Op], spans: list, windows: Windows) -> dict:
    """Split each traced commit's client round trip into layer parts.

    Per transaction (matched to its ``host.submit`` span by txn id), the
    parts telescope exactly to the client round trip:

    * ``server``: round trip minus the ``host.submit`` span (socket,
      framing, JSON and the socket thread's wake-up);
    * ``queue_wait``: submit entry to the dispatcher starting ``execute``;
    * ``execute``: the dispatcher running it (appends, installs);
    * ``tick_wait``: until the next ``DurableLog.flush`` starts;
    * ``encode``/``fsync``/``flush_self``: that flush, split, up to the
      ack;
    * ``ack_wake``: from the flush's end to ``submit`` returning.

    Returned values are means over the commits whose round trip lies
    between the 45th and 55th percentile, so they sum to a round trip
    at the median.
    """
    by_parent: Dict[int, list] = {}
    submits = {}
    flushes = []
    for row in spans:
        by_parent.setdefault(row[1], []).append(row)
        if row[2] == "host.submit" and row[5] is not None:
            submits[row[5]] = row
        elif row[2] == "wal.flush":
            flushes.append(row)
    flushes.sort(key=lambda row: row[3])
    starts = [row[3] for row in flushes]

    parts = []
    for op in ops:
        if not (op.is_txn and op.ok and op.sent in windows):
            continue
        submit = submits.get(op.reply["txn_id"])
        if submit is None:
            continue
        kids = by_parent.get(submit[0], [])
        run = next((k for k in kids if k[2] == "dispatch.run"), None)
        if run is None:
            continue
        i = bisect.bisect_left(starts, run[4])
        if i == len(flushes):
            continue
        flush = flushes[i]
        ack = min(flush[4], submit[4])
        inner = by_parent.get(flush[0], [])
        encode = sum(k[4] - k[3] for k in inner if k[2] == "wal.encode")
        fsync = sum(k[4] - k[3] for k in inner if k[2] == "fsync")
        rtt = op.done - op.sent
        parts.append({
            "rtt": rtt,
            "server": rtt - (submit[4] - submit[3]),
            "queue_wait": run[3] - submit[3],
            "execute": run[4] - run[3],
            "tick_wait": flush[3] - run[4],
            "encode": encode,
            "fsync": fsync,
            "flush_self": ack - flush[3] - encode - fsync,
            "ack_wake": submit[4] - ack,
        })
    if not parts:
        raise BenchError("no traced commit could be matched to its spans")
    rtts = [p["rtt"] for p in parts]
    lo, hi = percentile(rtts, 45), percentile(rtts, 55)
    band = [p for p in parts if lo <= p["rtt"] <= hi]
    return {key: sum(p[key] for p in band) / len(band) for key in parts[0]}


def client_figures(live: dict) -> dict:
    """What the clients saw over the measured windows of one server."""
    return {
        "commit_p50_ms": _ms(percentile(live["commit_rtt"], 50)),
        "commit_p95_ms": _ms(percentile(live["commit_rtt"], 95)),
        "commit_p99_ms": _ms(percentile(live["commit_rtt"], 99)),
        "read_p50_ms": _ms(percentile(live["read_rtt"], 50)),
        "read_p99_ms": _ms(percentile(live["read_rtt"], 99)),
        "ops_per_s": live["ops_per_s"],
        "cpu_ms_per_op": live["cpu_ms_per_op"],
        "write_amp": live["write_amp"],
        # Laplace's rule of succession, (failed + 1) / (attempted + 2):
        # never 0, so a regression can be stated as a ratio.
        "failed_frac": (live["failed"] + 1) / (live["attempted"] + 2),
        "live.peak_rss_mb": live["peak_rss_mb"],
    }


def live_layers(ops: List[Op], spans: list, windows: Windows) -> dict:
    """Per-layer figures of the live service over the traced windows."""
    inside = [row for row in spans if row[3] in windows]
    named: Dict[str, list] = {}
    for row in inside:
        named.setdefault(row[2], []).append(row)

    def durations(name: str) -> List[float]:
        return [row[4] - row[3] for row in named.get(name, [])]

    flush_ids = {row[0] for row in named.get("wal.flush", [])}
    truncate_ids = {row[0] for row in named.get("wal.truncate", [])}
    install_ids = {row[0] for row in named.get("store.install", [])}
    encodes = [row for row in spans if row[2] == "wal.encode"]
    fsyncs = [row for row in spans if row[2] == "fsync"]
    flush_writes = [row for row in encodes if row[1] in flush_ids]
    written_flushes = {row[1] for row in flush_writes}
    truncate_bytes = [row[5][0] for row in encodes if row[1] in truncate_ids]

    commits = [op for op in ops
               if op.is_txn and op.ok and op.sent in windows]
    reads = [op for op in ops
             if not op.is_txn and op.ok and op.sent in windows]
    submit_ms = [d * 1e3 for d in durations("host.submit")]
    read_s = durations("host.read")
    wait_ms = [d * 1e3 for d in durations("dispatch.wait")]
    # flushes that wrote something (an encode under them)
    flush_ms = [(row[4] - row[3]) * 1e3 for row in named.get("wal.flush", [])
                if row[0] in written_flushes]
    n_flushes = len(named.get("wal.flush", []))
    updates = sum(1 for row in flush_writes if row[5][1] == "U")
    wal_fsyncs = [row for row in fsyncs if row[1] in flush_ids]

    # ack wait: execute's end to host.submit returning
    run_end = {row[1]: row[4] for row in named.get("dispatch.run", [])}
    ack_ms = [(row[4] - run_end[row[0]]) * 1e3
              for row in named.get("host.submit", []) if row[0] in run_end]

    read_rtt = [op.done - op.sent for op in reads]
    out = {
        "server.txn_overhead_ms_p50": percentile(
            [(op.done - op.sent - op.reply["latency"]) * 1e3
             for op in commits], 50),
        "server.read_overhead_ms_p50": (
            (median(read_rtt) - median(read_s)) * 1e3
            if read_rtt and read_s else None),
        "dispatch.queue_wait_ms_p50": percentile(wait_ms, 50),
        "dispatch.queue_wait_ms_p99": percentile(wait_ms, 99),
        "dispatch.busy_frac": sum(durations("dispatch.run")) / windows.total,
        "host.commit_ms_p50": percentile(submit_ms, 50),
        "host.commit_ms_p99": percentile(submit_ms, 99),
        "host.read_us_p50": _scaled(percentile(read_s, 50), 1e6),
        "host.ack_wait_ms_p50": percentile(ack_ms, 50),
        "wal.flush_ms_p50": percentile(flush_ms, 50),
        "wal.flush_ms_p99": percentile(flush_ms, 99),
        "wal.flushes": n_flushes,
        "wal.commits_per_flush": (len(commits) / len(written_flushes)
                                  if written_flushes else None),
        "wal.fsyncs_per_commit": (len(wal_fsyncs) / len(commits)
                                  if commits else None),
        "wal.empty_flush_frac": ((n_flushes - len(written_flushes))
                                 / n_flushes if n_flushes else None),
        "wal.bytes_per_update": (sum(row[5][0] for row in flush_writes)
                                 / updates if updates else None),
        "wal.truncate_ms_max": _ms(max(durations("wal.truncate"),
                                       default=None)),
        "wal.truncate_bytes": (sum(truncate_bytes) / len(truncate_ids)
                               if truncate_ids else None),
        "ckpt.count": len(named.get("ckpt.start", [])),
        "ckpt.snapshot_ms_max": _ms(max(durations("ckpt.start"),
                                        default=None)),
        "ckpt.install_ms_p50": _ms(percentile(durations("store.install"),
                                              50)),
        "ckpt.bytes_per_install": median(
            [row[5] for row in fsyncs
             if row[1] in install_ids and row[5] is not None]),
    }
    for key, value in commit_path(ops, spans, windows).items():
        if key != "rtt":
            out[f"commit_path.{key}_ms"] = value * 1e3
    return out


def _scaled(value: Optional[float], factor: float) -> Optional[float]:
    return None if value is None else value * factor


def _ms(value: Optional[float]) -> Optional[float]:
    return _scaled(value, 1e3)
