"""Host probes, the provenance block and the span recorder.

The benchmark's CPU time is that of the driver's whole process tree (the
driver starts Ray's daemons, which start the workers), so it counts
every worker and actor, including those that have already exited, and
nothing else running on the machine.  Machine-wide CPU time is recorded
beside it, so that other load on the host shows in the artifact.
"""

from __future__ import annotations

import ctypes
import errno
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import uuid
from contextlib import contextmanager

_CPUACCT = "/sys/fs/cgroup/cpuacct/cpuacct.usage"
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _proc_stat_cpu() -> list[int]:
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def machine_cpu_seconds() -> float:
    """Machine-wide CPU seconds consumed so far."""
    try:
        with open(_CPUACCT) as fh:
            return int(fh.read()) / 1e9
    except OSError:
        f = _proc_stat_cpu()
        # user nice system idle iowait irq softirq steal ...
        return (f[0] + f[1] + f[2] + f[5] + f[6]) / _CLK_TCK


def _process_table() -> dict[int, tuple[int, int]]:
    """pid -> (ppid, CPU ticks of the process and its reaped children)."""
    table = {}
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as fh:
                f = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue      # exited while listing
        # fields after the command: state ppid ... utime(12) stime cutime cstime
        table[int(pid)] = (int(f[1]), int(f[11]) + int(f[12]) + int(f[13]) + int(f[14]))
    return table


def _descendants(table: dict[int, tuple[int, int]]) -> list[int]:
    """This process and every process below it in ``table``."""
    children: dict[int, list[int]] = {}
    for pid, (ppid, _) in table.items():
        children.setdefault(ppid, []).append(pid)
    out, todo = [], [os.getpid()]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, []))
    return out


def cpu_seconds() -> float:
    """CPU seconds consumed so far by this process and all its
    descendants: Ray's daemons, which this driver starts, and their
    workers.  A reaped process's time stays counted in its parent's
    children time, so exited workers and actors are included."""
    table = _process_table()
    return sum(table[pid][1] for pid in _descendants(table) if pid in table) / _CLK_TCK


def adopt_orphans() -> None:
    """Make this process the subreaper of everything it starts.

    Ray's workers outlive the raylet that started them by a moment; as a
    subreaper this process inherits them instead of init, so
    ``stop_descendants`` can find, stop and reap them."""
    PR_SET_CHILD_SUBREAPER = 36
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def stop_descendants(grace_s: float = 10.0, timeout_s: float = 30.0) -> list[int]:
    """Stop every process below this one and wait until each has ended.

    SIGTERM first, SIGKILL for whatever outlives ``grace_s``; exited
    children are reaped.  Returns the pids still present after
    ``timeout_s`` (empty when all have ended)."""
    me = os.getpid()
    deadline_term = time.monotonic() + grace_s
    deadline = time.monotonic() + timeout_s
    signalled: dict[int, int] = {}
    while True:
        while True:       # reap every child that has exited
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break
            if pid == 0:
                break
        left = [p for p in _descendants(_process_table()) if p != me]
        if not left or time.monotonic() > deadline:
            return left
        sig = signal.SIGTERM if time.monotonic() < deadline_term else signal.SIGKILL
        for pid in left:
            if signalled.get(pid) != sig:
                try:
                    os.kill(pid, sig)
                except OSError as e:
                    if e.errno != errno.ESRCH:
                        raise
                signalled[pid] = sig
        time.sleep(0.05)


def steal_seconds() -> float:
    """Machine-wide CPU time stolen by the hypervisor so far."""
    f = _proc_stat_cpu()
    return f[7] / _CLK_TCK if len(f) > 7 else 0.0


def reset_peak_rss() -> None:
    """Reset this process's VmHWM to its current RSS."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mib() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def loadavg() -> list[float]:
    with open("/proc/loadavg") as fh:
        return [float(x) for x in fh.read().split()[:3]]


def nproc() -> int:
    """What ``nproc`` reports (it honours OMP_NUM_THREADS and affinity)."""
    out = subprocess.run(["nproc"], capture_output=True, text=True, check=True)
    return int(out.stdout.strip())


def _driver_cpu() -> float:
    t = os.times()
    return t.user + t.system


def timed(fn, *args, **kwargs):
    """(result, Sample) of one call."""
    c0, d0, s0 = cpu_seconds(), _driver_cpu(), steal_seconds()
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    wall = time.perf_counter() - t0
    return out, Sample(wall, cpu_seconds() - c0, _driver_cpu() - d0, steal_seconds() - s0)


class Sample:
    """Wall, CPU (process tree, and the driver alone) and machine steal
    seconds of one call."""

    def __init__(self, wall: float, cpu: float, driver_cpu: float, steal: float):
        self.wall, self.cpu, self.driver_cpu, self.steal = wall, cpu, driver_cpu, steal

    @property
    def unstolen(self) -> float:
        """Wall time with the hypervisor's steal taken out.

        While the benchmark runs, nothing else on the machine wants a CPU,
        so the steal that accrues is time its own processes were ready
        to run but not running: they got ``cpu`` of ``cpu + steal``
        seconds of demanded CPU, and progressed that much slower."""
        return self.wall * self.cpu / (self.cpu + self.steal)

    @property
    def unstolen_cpu(self) -> float:
        """Process-tree CPU time with the driver's share scaled to the
        steal-free time.  The driver mostly runs Ray Data's executor
        loop, which polls for as long as the call lasts, so its CPU time
        grows with stolen wall time; the workers' and daemons' CPU time
        is the work itself and is counted as measured."""
        return self.cpu - self.driver_cpu * (1 - self.unstolen / self.wall)

    def as_dict(self) -> dict:
        return {"wall_s": self.wall, "cpu_s": self.cpu, "driver_cpu_s": self.driver_cpu,
                "steal_s": self.steal, "unstolen_s": self.unstolen,
                "unstolen_cpu_s": self.unstolen_cpu}


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def provenance(root: str, num_cpus: int) -> dict:
    """Host and provenance block written into every artifact."""
    import numpy
    import pyarrow
    import ray

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_sha = None
    # the benchmark checkout is not always a git repository: a digest of
    # the package sources identifies the code under test either way
    digest = hashlib.sha256()
    pkg = os.path.join(root, "osf_data_validator_tool_ray")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames.sort()
        for f in sorted(filenames):
            if f.endswith(".py"):
                p = os.path.join(dirpath, f)
                digest.update(os.path.relpath(p, root).encode())
                with open(p, "rb") as fh:
                    digest.update(fh.read())
    return {
        "nproc": nproc(),
        "os_cpu_count": os.cpu_count(),
        "ray_num_cpus": num_cpus,
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
        "versions": {"python": sys.version.split()[0], "ray": ray.__version__,
                     "pyarrow": pyarrow.__version__, "numpy": numpy.__version__},
    }


class Tracer:
    """In-memory spans (name, start, end, parent, run id), written out
    once at the end of the run."""

    def __init__(self, run_id: str | None = None):
        self.run_id = run_id or uuid.uuid4().hex[:12]
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name, "run_id": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part of it its children cover."""
        kids: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                kids.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = {}
        for s in self.spans:
            covered, cur_end = 0.0, s["start"]
            for a, b in sorted(kids.get(s["id"], [])):
                a, b = max(a, cur_end), min(b, s["end"])
                if b > a:
                    covered += b - a
                    cur_end = b
            out[s["id"]] = (s["end"] - s["start"]) - covered
        return out

    def dump(self, path: str) -> None:
        selfs = self.self_times()
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(s, duration=s["end"] - s["start"],
                                         self_time=selfs[s["id"]])) + "\n")
