"""The live server as a child process, and a line-JSON client for it."""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import List, Optional

from stats import parse_proc_io

LAUNCHER = str(Path(__file__).resolve().parent / "launcher.py")


class BenchError(RuntimeError):
    """A correctness gate or a required measurement failed."""


class Client:
    """One connection; one request in flight, as the protocol allows."""

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self.conn = socket.create_connection(("127.0.0.1", port),
                                             timeout=timeout)
        self.conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.file = self.conn.makefile("rb")

    def send(self, payload: dict) -> None:
        self.conn.sendall(json.dumps(payload).encode() + b"\n")

    def receive(self) -> Optional[dict]:
        """The next reply, or None when the server has gone away."""
        try:
            line = self.file.readline()
        except OSError:
            return None
        return json.loads(line) if line else None

    def request(self, payload: dict) -> dict:
        self.send(payload)
        reply = self.receive()
        if reply is None:
            raise BenchError(f"server closed the connection on {payload}")
        return reply

    def close(self) -> None:
        self.file.close()
        self.conn.close()


class Server:
    """``perfbench/launcher.py`` running the live server on ``data_dir``.

    ``ready_s`` is the time from spawning the process to reading its
    ready line.  Every instance is added to ``registry`` so the run can
    stop whatever is still alive when it ends.
    """

    def __init__(self, src: str, work: Path, data_dir: Path, scale: int,
                 checkpoint_interval: Optional[float], trace: bool,
                 registry: List["Server"]) -> None:
        self.work = work
        self.data_dir = data_dir
        self.fsync_log = work / "fsync.log"
        self.trace_out = work / "spans.json" if trace else None
        cmd = [sys.executable, LAUNCHER, "--src", src,
               "--data-dir", str(data_dir), "--scale", str(scale),
               "--fsync-log", str(self.fsync_log)]
        if checkpoint_interval is not None:
            cmd += ["--checkpoint-interval", str(checkpoint_interval)]
        if trace:
            cmd += ["--trace-out", str(self.trace_out)]
        self.stderr = open(work / "server.err", "wb")
        started = perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=self.stderr, text=True)
        registry.append(self)
        line = self.proc.stdout.readline()
        self.ready_s = perf_counter() - started
        if not line:
            self.proc.wait(timeout=30)
            raise BenchError("server did not start: "
                             + (work / "server.err").read_text()[-2000:])
        self.ready = json.loads(line)
        self.port: int = self.ready["port"]
        self.pid: int = self.proc.pid

    def proc_io(self) -> dict:
        return parse_proc_io(Path(f"/proc/{self.pid}/io").read_text())

    def cpu_s(self) -> float:
        """User plus system CPU seconds the server has used so far."""
        fields = Path(f"/proc/{self.pid}/stat").read_text().rsplit(")", 1)[1]
        utime, stime = fields.split()[11:13]
        return (int(utime) + int(stime)) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def dump_spans(self) -> list:
        """Have the launcher write its spans; return them."""
        self.proc.stdin.write("dump\n")
        self.proc.stdin.flush()
        if not self.proc.stdout.readline():
            raise BenchError("server exited before writing its spans")
        return json.loads(self.trace_out.read_text())

    def signal(self, signum: int) -> None:
        os.kill(self.pid, signum)

    def sigkill(self) -> None:
        self.signal(signal.SIGKILL)
        self.stop()

    def shutdown(self) -> None:
        client = Client(self.port)
        try:
            client.request({"op": "shutdown"})
        finally:
            client.close()
        self.stop()

    def stop(self) -> None:
        """Wait for the process (killing it if it lingers); release pipes."""
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        for stream in (self.proc.stdin, self.proc.stdout, self.stderr):
            stream.close()
