"""Start the live server in this process with the benchmark's probes.

    python3 perfbench/launcher.py --src SRC --data-dir DIR --scale N
        --fsync-log PATH [--checkpoint-interval S] [--trace-out PATH]

The server is the public ``repro.live.server.serve(..., spans=False)``,
so the program records no spans of its own.  Two probes are installed
first, both from outside the program:

* every ``os.fsync`` of a regular file appends ``<inode> <size>`` to
  ``--fsync-log`` after it returns.  After a SIGKILL the benchmark cuts
  each file back to that size, which discards what never reached an
  fsync, as a power cut would;
* with ``--trace-out``, wrappers around the public entry points of each
  layer record spans in memory (see :func:`install_trace`).  A line
  ``dump`` on stdin writes them to the file and answers ``{"event":
  "dumped"}`` on stdout, after the server's ready line.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer  # noqa: E402


def record_fsyncs(log_path: str, tracer: Optional[Tracer]) -> None:
    """Wrap ``os.fsync`` to log ``inode size`` of each regular file."""
    log_fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    real_fsync = os.fsync

    def fsync(fd) -> None:
        fd = fd if isinstance(fd, int) else fd.fileno()
        parent = tracer.current() if tracer is not None else 0
        start = perf_counter()
        real_fsync(fd)
        end = perf_counter()
        info = os.fstat(fd)
        size = None
        if stat.S_ISREG(info.st_mode):
            size = info.st_size
            os.write(log_fd, b"%d %d\n" % (info.st_ino, size))
        if tracer is not None:
            tracer.add("fsync", parent, start, end, size)

    os.fsync = fsync


def install_trace(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (see the module docstring)."""
    from repro.live import host, scheduler, store, wal
    from repro.recovery.replay import RedoApplier
    from repro.sim.oracle import CommittedStateOracle

    tracer.wrap(host.LiveHost, "submit", "host.submit",
                attr=lambda result: result.txn_id)
    tracer.wrap(host.LiveHost, "read", "host.read")
    tracer.wrap(host.LiveHost, "recover", "host.recover")
    tracer.wrap(host.LiveCheckpointer, "start_checkpoint", "ckpt.start")
    tracer.wrap(wal.DurableLog, "flush", "wal.flush")
    tracer.wrap(wal.DurableLog, "truncate_stable_before", "wal.truncate")
    tracer.wrap(wal.DurableLog, "hydrate", "wal.hydrate")
    # Module globals: wal.py looks these up at call time, and host.py
    # holds its own binding of read_wal.
    tracer.wrap(wal, "encode_record", "wal.encode",
                attr=lambda line: [len(line), line[2:3].decode()])
    tracer.wrap(wal, "scan_wal", "wal.scan")
    tracer.wrap(host, "read_wal", "wal.read")
    tracer.wrap(store.ImageStore, "install", "store.install")
    tracer.wrap(store.ImageStore, "load", "store.load")
    tracer.wrap(RedoApplier, "feed", "redo.feed")
    tracer.wrap(RedoApplier, "finish", "redo.finish")
    tracer.wrap(CommittedStateOracle, "seed_values", "oracle.seed")
    tracer.wrap(CommittedStateOracle, "feed", "oracle.feed")

    # LiveScheduler.submit enqueues through schedule_at, as do the flush
    # ticks and checkpoint pacing, so this one wrapper sees every
    # callback.  A submitted callback (time 0) also gets its queue wait.
    schedule_at = scheduler.LiveScheduler.schedule_at

    def traced_schedule_at(self, time, callback, label=""):
        parent = tracer.current()
        enqueued = perf_counter()
        submitted = time == 0.0

        def run() -> None:
            if submitted:
                tracer.add("dispatch.wait", parent, enqueued, perf_counter())
            tracer.call("dispatch.run", parent, callback)

        return schedule_at(self, time, run, label)

    scheduler.LiveScheduler.schedule_at = traced_schedule_at


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--scale", type=int, required=True)
    parser.add_argument("--fsync-log", required=True)
    parser.add_argument("--checkpoint-interval", type=float, default=None)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    tracer = Tracer() if args.trace_out else None
    record_fsyncs(args.fsync_log, tracer)
    if tracer is not None:
        install_trace(tracer)

        def answer_dumps() -> None:
            for line in sys.stdin:
                if line.strip() == "dump":
                    tracer.dump(args.trace_out)
                    print(json.dumps({"event": "dumped"}), flush=True)

        threading.Thread(target=answer_dumps, daemon=True).start()

    from repro.live.server import serve
    return serve(args.data_dir, port=0, scale=args.scale,
                 checkpoint_interval=args.checkpoint_interval,
                 flush_interval=0.005, fsync=True, spans=False)


if __name__ == "__main__":
    sys.exit(main())
