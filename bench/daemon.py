"""The program under test as subprocesses, and the closed-loop HTTP clients.

Daemons are started through the public CLI (``python -m repro serve --port
0``) in their own session, so the load generator never shares an
interpreter lock with the program, and are always stopped with SIGINT and
reaped -- with a kill of the whole session as the fallback -- on every exit
path.  A worker process that survives its daemon fails the run.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

SRC = Path(__file__).resolve().parents[1] / "src"
_BANNER = re.compile(r"on http://([^:\s]+):(\d+)")
#: Seconds a daemon may take to print its banner / to exit after SIGINT.
START_TIMEOUT = 120.0
STOP_TIMEOUT = 30.0
#: Seconds a client waits for one reply before counting it as failed.
REQUEST_TIMEOUT = 60.0


class BenchError(RuntimeError):
    """The benchmark could not run or a check failed; exits non-zero."""


def program_env(workdir: Path) -> Dict[str, str]:
    """The program's environment: this checkout's ``src``, temp files in ``workdir``."""
    env = os.environ.copy()
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) if not existing else str(SRC) + os.pathsep + existing
    env["TMPDIR"] = str(workdir)
    return env


def _children(pid: int) -> List[int]:
    """Direct child processes of ``pid`` (Linux ``/proc`` scan)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                # Field 4 (ppid) follows the parenthesised command name.
                fields = handle.read().rsplit(b")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of ``pid`` in MB (0 when the process is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _is_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return b"repro.server.workers" in handle.read()
    except OSError:
        return False


class Daemon:
    """One ``repro serve`` subprocess rooted in ``workdir``.

    Paths in ``arguments`` are relative to ``workdir`` (the daemon's cwd),
    which keeps the workers' Unix-socket paths short wherever the checkout
    lives.
    """

    def __init__(self, workdir: Path, arguments: Sequence[str]) -> None:
        self.workdir = workdir
        self.command = [sys.executable, "-m", "repro", "serve", "--port", "0", *arguments]
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self.spawned_at = 0.0
        self._log = None
        self._worker_pids: List[int] = []

    def __enter__(self) -> "Daemon":
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._log = open(self.workdir / "daemon.log", "wb")
        self.spawned_at = time.perf_counter()
        self.process = subprocess.Popen(
            self.command,
            cwd=self.workdir,
            env=program_env(self.workdir.resolve()),
            stdout=subprocess.PIPE,
            stderr=self._log,
            start_new_session=True,
        )
        try:
            self._read_banner()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _read_banner(self) -> None:
        assert self.process is not None and self.process.stdout is not None
        descriptor = self.process.stdout.fileno()
        deadline = time.monotonic() + START_TIMEOUT
        seen = b""
        while True:
            match = _BANNER.search(seen.decode("utf-8", "replace"))
            if match:
                self.port = int(match.group(2))
                return
            remaining = deadline - time.monotonic()
            ready = select.select([descriptor], [], [], max(remaining, 0.0))[0]
            chunk = os.read(descriptor, 65536) if ready else b""
            if not chunk:
                raise BenchError(
                    f"daemon printed no banner ({' '.join(self.command)}): "
                    f"{seen!r} {self.log_tail()}"
                )
            seen += chunk

    def log_tail(self) -> str:
        """The end of the daemon's stderr, for error messages."""
        try:
            return (self.workdir / "daemon.log").read_text("utf-8", "replace")[-2000:]
        except OSError:
            return ""

    def pids(self) -> List[int]:
        """The daemon and its worker processes."""
        assert self.process is not None
        self._worker_pids = _children(self.process.pid)
        return [self.process.pid, *self._worker_pids]

    def peak_rss_mb(self) -> float:
        """Peak resident memory of daemon + workers, summed."""
        return sum(peak_rss_mb(pid) for pid in self.pids())

    def connect(self) -> http.client.HTTPConnection:
        """A keep-alive connection to the daemon."""
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT)

    def get(self, path: str) -> bytes:
        """One ``GET`` on a fresh connection; the 200 body."""
        connection = self.connect()
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
        finally:
            connection.close()
        if response.status != 200:
            raise BenchError(f"GET {path} -> {response.status}: {body[:200]!r}")
        return body

    def stats(self) -> dict:
        """``GET /v1/stats`` decoded."""
        return json.loads(self.get("/v1/stats"))

    def __exit__(self, *exc_info: object) -> None:
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            self.pids()  # remember the workers before they are told to stop
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                pass
        # Whatever is left of the session (a wedged daemon, an orphaned
        # worker) is killed; a surviving worker additionally fails the run.
        survivors = [pid for pid in self._worker_pids if _is_worker(pid)]
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        self.process = None
        if process.stdout is not None:
            process.stdout.close()
        if self._log is not None:
            self._log.close()
        if survivors and exc_info[0] is None:
            raise BenchError(f"worker processes {survivors} outlived their daemon")


def post(
    connection: http.client.HTTPConnection, path: str, body: bytes
) -> Tuple[int, bytes]:
    """One ``POST`` on a keep-alive connection: ``(status, body)``."""
    connection.request("POST", path, body=body, headers={"Content-Type": "application/json"})
    response = connection.getresponse()
    return response.status, response.read()


def topk_body(query, k: int) -> bytes:
    """A ``POST /v1/topk`` body: single form for a name, batch form for a list."""
    key = "entity" if isinstance(query, str) else "entities"
    return json.dumps({key: query, "k": k}).encode("utf-8")


class Client(threading.Thread):
    """One closed-loop connection: send, wait for the reply, send the next.

    ``requests`` yields ``(path, body, check)``; ``check(status, reply)``
    says whether the reply is correct.  Stops at ``deadline`` (perf_counter
    clock), when ``stop`` is set, or when ``requests`` runs out.  Every
    attempt is recorded as ``(start, end, ok)``; a transport error or a
    timeout counts as a failed attempt and reconnects.
    """

    def __init__(
        self,
        daemon: Daemon,
        requests: Iterator[Tuple[str, bytes, Callable[[int, bytes], bool]]],
        deadline: float,
        stop: Optional[threading.Event] = None,
        on_done: Optional[Callable[[], None]] = None,
    ) -> None:
        super().__init__(daemon=True)
        self.daemon_process = daemon
        self.requests = requests
        self.deadline = deadline
        self.stop = stop if stop is not None else threading.Event()
        self.on_done = on_done
        self.attempts: List[Tuple[float, float, bool]] = []
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        connection = self.daemon_process.connect()
        try:
            for path, body, check in self.requests:
                if self.stop.is_set() or time.perf_counter() >= self.deadline:
                    break
                started = time.perf_counter()
                try:
                    status, reply = post(connection, path, body)
                    ok = check(status, reply)
                except (OSError, http.client.HTTPException):
                    ok = False
                    connection.close()
                    connection = self.daemon_process.connect()
                self.attempts.append((started, time.perf_counter(), ok))
        except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
            self.error = exc
        finally:
            connection.close()
            if self.on_done is not None:
                self.on_done()

    def finish(self) -> List[Tuple[float, float, bool]]:
        """Join the thread and return its attempts (re-raising its error)."""
        self.join(timeout=REQUEST_TIMEOUT + 30.0)
        if self.is_alive():
            raise BenchError("a client thread did not finish")
        if self.error is not None:
            raise self.error
        return self.attempts
