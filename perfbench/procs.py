"""Child processes of the benchmark: the `liar` CLI run as users run it.

Children are started by a spawner: a bare interpreter that imports only
the standard library, started before the benchmark loads numpy or
generates inputs.  A child's ``ru_maxrss`` starts from the resident set
of the process that forked it, so forking from the benchmark itself
would report the benchmark's memory as the child's peak.

The spawner waits for each child with ``os.wait4``, so the child's own
user+sys time and peak resident set come back with it, and a watchdog
kills a child that outlives its timeout.  The environment is passed
through unchanged apart from ``PYTHONPATH``, so worker and BLAS thread
counts stay at the program's defaults.

Run as a script, this module is the spawner: it reads one JSON request
per line on stdin and answers each with one JSON line on stdout.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class ChildResult:
    __slots__ = ("returncode", "wall", "cpu", "rss_mb", "timed_out", "stderr")

    def __init__(self, returncode, wall, cpu, rss_mb, timed_out, stderr):
        self.returncode = returncode
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb
        self.timed_out = timed_out
        self.stderr = stderr


def _child_env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _run(args, timeout, log_path):
    """Run ``python3 <args>`` (spawner side); stdout and stderr go to
    ``log_path`` and the tail of a failing child's log is kept."""
    argv = [sys.executable] + list(args)
    with open(log_path, "w+b") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log)
        lock = threading.Lock()
        state = {"exited": False, "killed": False}

        def kill():
            with lock:
                if not state["exited"]:
                    state["killed"] = True
                    os.kill(proc.pid, signal.SIGKILL)

        watchdog = threading.Timer(max(timeout, 0.0), kill)
        watchdog.start()
        try:
            # wait without reaping, so the watchdog can never signal a
            # recycled pid; then reap and collect the child's own rusage
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
            with lock:
                state["exited"] = True
        finally:
            watchdog.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        tail = b""
        if proc.returncode != 0 and log_path != os.devnull:
            log.seek(0)
            tail = log.read()[-600:]
    return {
        "returncode": proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "timed_out": state["killed"],
        "stderr": tail.decode(errors="replace"),
    }


def serve():
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps(_run(req["args"], req["timeout"], req["log_path"])), flush=True)


class Spawner:
    """Client of a spawner process; close it (or use ``with``) when done."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, "-S", __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        if self._proc.poll() is None:
            self._proc.stdin.close()
            self._proc.wait()
            self._proc.stdout.close()

    def python(self, args, timeout, log_path=os.devnull):
        """Run ``python3 <args>``; its wall time, CPU time and peak RSS."""
        req = {"args": list(args), "timeout": timeout, "log_path": str(log_path)}
        self._proc.stdin.write(json.dumps(req) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process exited")
        return ChildResult(**json.loads(line))

    def cli(self, args, timeout, log_path=os.devnull):
        """One `liar` invocation: ``python -m liargrid.cli <args>``."""
        return self.python(["-m", "liargrid.cli"] + list(args), timeout, log_path)

    def import_seconds(self, timeout):
        """Wall time of a fresh interpreter importing ``liargrid.cli``."""
        res = self.python(["-c", "import liargrid.cli"], timeout)
        if res.returncode != 0:
            raise RuntimeError(f"importing liargrid.cli failed (exit {res.returncode})")
        return res.wall


def tree_bytes(path):
    """Bytes in every regular file below ``path``."""
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


if __name__ == "__main__":
    serve()
