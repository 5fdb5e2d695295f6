"""The daemon_edit workload: closed-loop editor clients against `repro serve`.

One pass starts a fresh daemon (``--lanes nproc``), waits for its
first answered ``ping`` (the cold start a user pays), then runs
``nproc`` client threads, one connection each.  Without an affinity
key the daemon routes each new connection to its least-loaded lane,
so every client gets a lane of its own.  Each client walks its share
of the modules through one editor cycle per module:

    fresh     check_text original   -> accept, cached false
    resubmit  check_text original   -> accept, cached true
    edit      check_text mutant     -> reject, cached false
    revert    check_text original   -> accept, cached false
    ping

and sends the next request only after the previous answer (closed
loop).  The wire client here is a few lines of JSON over the socket,
so the program under test is only the daemon.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

#: the cycle's check_text requests: (kind, text key, known ok, known cached)
CYCLE = (
    ("fresh", "source", True, False),
    ("resubmit", "source", True, True),
    ("edit", "mutant", False, False),
    ("revert", "source", True, False),
)


class Wire:
    """One connection speaking the daemon's newline-delimited JSON."""

    def __init__(self, path: str, timeout: float = 60.0) -> None:
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        self._sock.connect(path)
        self._reader = self._sock.makefile("rb")

    def call(self, message: Dict[str, object]):
        """Send one request; returns (response, seconds)."""
        started = time.perf_counter()
        self._sock.sendall(json.dumps(message).encode("utf-8") + b"\n")
        line = self._reader.readline()
        elapsed = time.perf_counter() - started
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line), elapsed

    def close(self) -> None:
        self._reader.close()
        self._sock.close()


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc status")


def _client(wire: Wire, modules, start: threading.Barrier, out: list) -> None:
    """Walk ``modules`` through the editor cycle; append one row per request."""
    start.wait()
    sequence = 0
    try:
        for module in modules:
            for kind, key, ok, cached in CYCLE:
                response, seconds = wire.call({
                    "op": "check_text", "name": module["name"],
                    "text": module[key],
                })
                good = (
                    response.get("ok") is ok
                    and response.get("cached") is cached
                    and (ok or response.get("code") == "check-error")
                )
                out.append({
                    "kind": kind, "s": seconds, "good": good, "seq": sequence,
                    "lane": response.get("lane"),
                    "sites": module[f"{key}_sites"],
                })
                sequence += 1
            response, seconds = wire.call({"op": "ping"})
            out.append({"kind": "ping", "s": seconds, "good": response.get("ok") is True})
    except (OSError, ValueError) as exc:
        out.append({"kind": "error", "s": 0.0, "good": False, "error": repr(exc)})
    finally:
        wire.close()


def start_daemon(
    clients: int, socket_path: str, workdir: str, env: Dict[str, str],
    trace_file: Optional[str] = None,
):
    """Spawn ``repro serve``; returns (process, seconds to the first ping)."""
    argv = ["serve", "--socket", socket_path, "--lanes", str(clients)]
    if trace_file is None:
        command = [sys.executable, "-m", "repro", *argv]
    else:
        launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "serve_traced.py")
        command = [sys.executable, launcher, trace_file, *argv]
    err_path = os.path.join(workdir, f"daemon-{time.monotonic_ns()}.err")
    with open(err_path, "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=err, env=env)
    try:
        banner = proc.stdout.readline()
        if not banner.startswith(b"listening"):
            raise RuntimeError(f"daemon did not start: {banner!r}, see {err_path}")
        probe = Wire(socket_path)
        pong, _ = probe.call({"op": "ping"})
        setup_s = time.monotonic() - spawned
        probe.close()
        if pong.get("ok") is not True:
            raise RuntimeError(f"first ping failed: {pong}")
    except BaseException:
        stop_daemon(proc, socket_path, clean=False)
        raise
    return proc, setup_s


def stop_daemon(proc: subprocess.Popen, socket_path: str, clean: bool = True) -> None:
    """Ask for a shutdown (``clean``), kill if it hangs; remove the socket."""
    try:
        if clean:
            control = Wire(socket_path)
            control.call({"op": "shutdown"})
            control.close()
            proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        if os.path.exists(socket_path):
            os.unlink(socket_path)


def run_pass(
    modules: List[Dict[str, object]],
    clients: int,
    socket_path: str,
    workdir: str,
    env: Dict[str, str],
    trace_file: Optional[str] = None,
) -> Dict[str, object]:
    """Start a daemon, drive one pass of editor cycles, stop the daemon."""
    proc, setup_s = start_daemon(clients, socket_path, workdir, env, trace_file)
    try:
        start = threading.Barrier(clients + 1)
        rows: List[list] = [[] for _ in range(clients)]
        threads = [
            threading.Thread(
                target=_client,
                args=(Wire(socket_path), modules[c::clients], start, rows[c]),
            )
            for c in range(clients)
        ]
        for thread in threads:
            thread.start()
        start.wait()
        began = time.perf_counter()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - began

        control = Wire(socket_path)
        stats, _ = control.call({"op": "stats"})
        control.close()
        rss_mb = _peak_rss_mb(proc.pid)
    except BaseException:
        stop_daemon(proc, socket_path, clean=False)
        raise
    stop_daemon(proc, socket_path)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "rss_mb": rss_mb,
        "rows": rows,
        "stats": stats,
    }
