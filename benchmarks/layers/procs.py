"""The program under test as real processes: ``python -m repro serve`` nodes
and an optional ``python -m repro route`` tier, launched, measured from
``/proc``, crashed, restarted, and always torn down.
"""

from __future__ import annotations

import compileall
import os
import re
import select
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
SRC = REPO_ROOT / "src"
#: every file the benchmark writes lives under here (git-ignored)
OUT = HERE / "out"

#: the partitioner weight ``w`` every workload runs with
WEIGHT = 0.3

_BANNER = re.compile(rb"listening on ([\d.]+):(\d+)")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_LAUNCH_TIMEOUT_S = 30.0


def scratch_dir() -> tempfile.TemporaryDirectory:
    """A private directory under :data:`OUT`, removed when closed."""
    OUT.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="run-", dir=OUT)


class ProgramError(RuntimeError):
    """A process of the program failed to start or died under load."""


def build() -> None:
    """The build step: ``src`` compiled to byte code, as an installed
    package is.

    Every launch of the program is timed (``setup_s``, the restart).  A
    fresh checkout has no ``__pycache__`` and, where the environment
    sets ``PYTHONDONTWRITEBYTECODE``, never gets one: every launch then
    compiles every module from source, which nearly doubles the launch
    time — and where it does not, the first run differs from the rest.
    Files already up to date are skipped, so this costs the first run in
    a checkout a second and the others nothing.
    """
    if not compileall.compile_dir(SRC, quiet=2):
        raise ProgramError(f"could not compile {SRC}")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}{inherited}" if inherited else str(SRC)
    return env


def cpu_seconds(pid: int) -> float:
    """User + system CPU time a live process has consumed."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat[stat.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` — the high-water mark of a live process's resident set."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise ProgramError(f"no VmHWM for pid {pid}")


def split_cores(processes: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(cores of the program, cores of the generator)``.

    This sandbox's cores change speed independently of each other.  A
    program that is one process gets a core of its own and the generator
    the rest, so that the speed sampled on that core is the speed the
    program ran at; a program of several processes shares every core
    with the generator, as the scheduler sees fit.
    """
    allowed = tuple(sorted(os.sched_getaffinity(0)))
    if processes == 1 and len(allowed) > 1:
        return allowed[-1:], allowed[:-1]
    return allowed, allowed


class Program:
    """One topology of the program: *nodes* durable serve processes and,
    with *router*, a route process in front of them.

    Every node journals to its own WAL under a private scratch
    directory with the stock group-commit fsync policy; observability
    is off unless *obs* is set; adaptation is off; every other flag is
    the CLI default.  The processes run on ``cores`` and, while the
    program is up, the calling thread (and every thread it starts) on
    the generator's cores (:func:`split_cores`).  Use as a context
    manager: leaving the block kills every process, waits for it, and
    removes the scratch directory, whatever happened inside.
    """

    def __init__(
        self,
        partition_size: float,
        nodes: int = 1,
        router: bool = False,
        replication_factor: int = 1,
        obs: bool = False,
    ) -> None:
        self.partition_size = partition_size
        self.n_nodes = nodes
        self.with_router = router
        self.replication_factor = replication_factor
        self.obs = obs
        self.cores, self._generator_cores = split_cores(nodes + router)
        self._own_cores = os.sched_getaffinity(0)
        self._scratch: Optional[tempfile.TemporaryDirectory] = None
        self.workdir: Optional[Path] = None
        self.node_procs: list[subprocess.Popen] = []
        self.node_ports: list[int] = []
        self.router_proc: Optional[subprocess.Popen] = None
        self.router_port = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "Program":
        self._scratch = scratch_dir()
        self.workdir = Path(self._scratch.name)
        os.sched_setaffinity(0, self._generator_cores)
        try:
            for index in range(self.n_nodes):
                proc, port = self._launch_node(index)
                self.node_procs.append(proc)
                self.node_ports.append(port)
            if self.with_router:
                self.router_proc, self.router_port = self._launch_router()
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def close(self) -> None:
        for proc in self.processes():
            if proc.poll() is None:
                proc.kill()
        for proc in self.processes():
            proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
        if self._scratch is not None:
            self._scratch.cleanup()
        os.sched_setaffinity(0, self._own_cores)

    def leaked(self) -> list[str]:
        """What :meth:`close` failed to clean up (empty when tidy)."""
        problems = [
            f"pid {proc.pid} still running"
            for proc in self.processes() if proc.poll() is None
        ]
        if self.workdir is not None and self.workdir.exists():
            problems.append(f"scratch directory {self.workdir} left behind")
        return problems

    def processes(self) -> list[subprocess.Popen]:
        router = [self.router_proc] if self.router_proc is not None else []
        return self.node_procs + router

    def dead(self) -> list[int]:
        """Pids of processes that exited although nobody stopped them."""
        return [p.pid for p in self.processes() if p.poll() is not None]

    # ------------------------------------------------------------------
    # launching
    # ------------------------------------------------------------------
    def wal_path(self, index: int) -> Path:
        assert self.workdir is not None
        return self.workdir / f"node{index}.wal"

    def _spawn(self, args: list[str], tag: str) -> tuple[subprocess.Popen, int]:
        assert self.workdir is not None
        with open(self.workdir / f"{tag}.err", "ab") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *args],
                env=child_env(), cwd=self.workdir,
                stdout=subprocess.PIPE, stderr=stderr,
            )
        os.sched_setaffinity(proc.pid, self.cores)
        ready, _, _ = select.select([proc.stdout], [], [], _LAUNCH_TIMEOUT_S)
        banner = proc.stdout.readline() if ready else b""
        match = _BANNER.search(banner)
        if match is None:
            proc.kill()
            proc.wait()
            proc.stdout.close()
            detail = (self.workdir / f"{tag}.err").read_text()[-2000:]
            raise ProgramError(f"{tag} did not start: {banner!r}\n{detail}")
        return proc, int(match.group(2))

    def _launch_node(self, index: int) -> tuple[subprocess.Popen, int]:
        args = [
            "serve", "--port", "0", "--name", f"node{index}",
            "--wal", str(self.wal_path(index)),
            "--partition-size", str(self.partition_size),
            "--weight", str(WEIGHT),
            "--adapt-every", "0",
        ]
        if self.obs:
            args.append("--obs")
        return self._spawn(args, f"node{index}")

    def _launch_router(self) -> tuple[subprocess.Popen, int]:
        specs = [
            f"node{index}=127.0.0.1:{port}"
            for index, port in enumerate(self.node_ports)
        ]
        args = [
            "route", *specs, "--port", "0",
            "--replication-factor", str(self.replication_factor),
        ]
        return self._spawn(args, "router")

    # ------------------------------------------------------------------
    # crash and restart
    # ------------------------------------------------------------------
    def crash_and_restart(self, index: int = 0) -> None:
        """``SIGKILL`` one node and start it again on the same WAL.

        The restarted node replays its journal before it binds, so the
        caller's first answered request marks the end of recovery.  The
        kernel's page cache survives a ``SIGKILL``: this exercises
        replay, not the medium's durability.
        """
        proc = self.node_procs[index]
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        proc.stdout.close()
        self.node_procs[index], self.node_ports[index] = self._launch_node(index)

    # ------------------------------------------------------------------
    # measurement from outside
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """Where a client connects: the router when there is one."""
        port = self.router_port if self.with_router else self.node_ports[0]
        return "127.0.0.1", port

    def node_address(self, index: int) -> tuple[str, int]:
        return "127.0.0.1", self.node_ports[index]

    def cpu_seconds(self) -> float:
        return sum(cpu_seconds(proc.pid) for proc in self.processes())

    def router_cpu_seconds(self) -> float:
        return cpu_seconds(self.router_proc.pid) if self.router_proc else 0.0

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(proc.pid) for proc in self.processes())

    def wal_bytes(self) -> int:
        return sum(
            self.wal_path(index).stat().st_size for index in range(self.n_nodes)
        )


def launch_embedded(code: str) -> None:
    """A fresh interpreter running *code* against ``src``, to its end."""
    subprocess.run(
        [sys.executable, "-c", code], env=child_env(), check=True,
        stdout=subprocess.DEVNULL,
    )
