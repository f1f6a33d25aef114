"""Child processes of the benchmark: CLI commands and servers via ``launch.py``.

Every child runs ``python3 bench/launch.py`` with the checkout's ``src`` on
``PYTHONPATH``, so the benchmark builds nothing and measures the code as
checked out.  Each child writes its launcher report to a file in the run's
scratch directory; the parent reads it once the child has ended.
"""

from __future__ import annotations

import json
import os
import select
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Longest a single CLI command or server start may take.
CHILD_TIMEOUT = 150.0


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def _launch_argv(result: Path, trace: bool, argv: list[str]) -> list[str]:
    return [
        sys.executable,
        str(BENCH / "launch.py"),
        "--result",
        str(result),
        *(["--trace"] if trace else []),
        "--",
        *argv,
    ]


@dataclass
class Finished:
    """A completed CLI command."""

    exit_code: int
    wall_s: float
    setup_s: float
    stdout: str
    stderr: str
    report: dict


class Scratch:
    """Numbered file names inside one run's scratch directory."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self._count = 0

    def path(self, stem: str) -> Path:
        self._count += 1
        return self.directory / f"{self._count:03d}-{stem}"


def run_command(scratch: Scratch, argv: list[str], trace: bool = False) -> Finished:
    """Run one CLI command to completion through the launcher."""
    result = scratch.path("launch.json")
    started = time.perf_counter()
    proc = subprocess.run(
        _launch_argv(result, trace, argv),
        env=_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
    )
    wall = time.perf_counter() - started
    report = _read_report(result)
    return Finished(
        exit_code=proc.returncode,
        wall_s=wall,
        setup_s=report.get("main_entered", started) - started,
        stdout=proc.stdout,
        stderr=proc.stderr,
        report=report,
    )


def _read_report(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {}


class Server:
    """A ``repro serve`` child, started on an ephemeral port.

    ``setup_s`` is the time from spawning the process to reading its
    ``serving on HOST:PORT`` line.  Always :meth:`stop` it (or use it as a
    context manager): a server that does not shut down is killed.
    """

    def __init__(self, scratch: Scratch, argv: list[str], trace: bool = False) -> None:
        self.argv = argv
        self.result = scratch.path("launch.json")
        self._stderr = open(scratch.path("server.log"), "w", encoding="utf-8")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            _launch_argv(self.result, trace, argv),
            env=_env(),
            stdout=subprocess.PIPE,
            stderr=self._stderr,
        )
        self.report: dict = {}
        self._stopped = False
        self.host, self.port = self._wait_ready()
        self.setup_s = time.perf_counter() - self.started

    def _wait_ready(self) -> tuple[str, int]:
        deadline = self.started + CHILD_TIMEOUT
        buffer = b""
        fd = self.proc.stdout.fileno()
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if not ready:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                break
            buffer += chunk
            for line in buffer.decode("utf-8", "replace").splitlines():
                if line.startswith("serving on "):
                    host, _, port = line[len("serving on ") :].rpartition(":")
                    return host, int(port)
        self.proc.kill()
        self.proc.communicate()
        self._stderr.close()
        self._stopped = True
        raise RuntimeError(f"server did not start: {' '.join(self.argv)}")

    def request(self, payload: dict, timeout: float = 30.0) -> dict:
        """One blocking request on a fresh connection."""
        with socket.create_connection((self.host, self.port), timeout=timeout) as conn:
            conn.sendall(json.dumps(payload).encode("utf-8") + b"\n")
            with conn.makefile("rb") as reader:
                line = reader.readline()
        if not line:
            raise ConnectionError(f"no response to {payload!r}")
        return json.loads(line)

    def stop(self) -> int:
        """Shut the server down (kill it if it will not stop); return its exit code."""
        if self._stopped:
            return self.proc.returncode
        self._stopped = True
        if self.proc.poll() is None:
            try:
                self.request({"op": "shutdown"}, timeout=10.0)
            except (OSError, ValueError):
                pass
            try:
                self.proc.communicate(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        else:
            self.proc.communicate()
        self._stderr.close()
        self.report = _read_report(self.result)
        return self.proc.returncode

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
