"""Process-tree, memory, shared-memory and CPU-steal probes (Linux /proc).

Nothing here imports the program: the orchestrator in ``run.py`` uses
these to watch the benchmark process from outside.
"""

from __future__ import annotations

import ctypes
import os
import re
import signal
import threading
import time
from pathlib import Path

SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "reproshm_"
PR_SET_CHILD_SUBREAPER = 36
ADDR_NO_RANDOMIZE = 0x0040000
TRACEBACK = re.compile(r"^Traceback \(most recent call last\):", re.M)
#: The resource tracker's report of segments it had to unlink itself.
TRACKER_LEAK = re.compile(r"There appear to be (\d+) leaked shared_memory")


def become_subreaper() -> bool:
    """Adopt orphaned descendants, so a leaked grandchild stays visible."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def fix_address_layout() -> bool:
    """Turn off address-space randomization for processes started from
    here on: each fresh interpreter then gets the same memory layout,
    instead of one whose cache behaviour differs from run to run."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current == -1:
            return False
        return libc.personality(current | ADDR_NO_RANDOMIZE) != -1
    except (OSError, AttributeError):
        return False


def children(pid: int) -> list[int]:
    """Direct children of ``pid`` (every thread's children)."""
    out: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                out.extend(int(field) for field in handle.read().split())
        except OSError:
            continue
    return out


def descendants(pid: int) -> list[int]:
    out, frontier = [], [pid]
    while frontier:
        kids = children(frontier.pop())
        out.extend(kids)
        frontier.extend(kids)
    return out


def peak_rss_kb(pid: int) -> int:
    """The kernel's record of the process's peak resident set (VmHWM)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class TreeMemorySampler:
    """Samples the memory of a process tree until stopped.

    Each sample sums the peak resident set (VmHWM) of the root and every
    descendant alive at that instant; ``peak_kb`` is the largest sum.  A
    per-process peak does not depend on when the sample lands, which
    keeps short-lived workers from making the figure jitter.  Pages a
    forked worker shares with its parent count in both.
    """

    def __init__(self, root: int, interval_s: float = 0.1) -> None:
        self.root = root
        self.interval_s = interval_s
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "TreeMemorySampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.is_set():
            pids = [self.root] + descendants(self.root)
            total = sum(peak_rss_kb(pid) for pid in pids)
            self.peak_kb = max(self.peak_kb, total)
            self._stop.wait(self.interval_s)


def shm_segments() -> set[str]:
    try:
        return {name for name in os.listdir(SHM_DIR)
                if name.startswith(SHM_PREFIX)}
    except OSError:
        return set()


def reclaim_segments(names) -> None:
    for name in names:
        try:
            os.unlink(SHM_DIR / name)
        except OSError:
            pass


def reap_leaked_children(grace_s: float = 3.0) -> list[int]:
    """Reap this process's children; kill those still alive after
    ``grace_s`` and return their pids (leaked).

    With the subreaper flag set, orphaned grandchildren are among the
    children.  The grace period lets helpers that exit on their parent's
    exit (the multiprocessing resource tracker) finish on their own.
    """
    deadline = time.monotonic() + grace_s
    while True:
        _reap_exited()
        alive = [pid for pid in children(os.getpid()) if _alive(pid)]
        if not alive or time.monotonic() >= deadline:
            break
        time.sleep(0.02)
    for pid in alive:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while children(os.getpid()):
        if not _reap_exited():
            time.sleep(0.01)
    return alive


def _reap_exited() -> bool:
    """Reap exited children without blocking; True if any were reaped."""
    reaped = False
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return reaped
        if pid == 0:
            return reaped
        reaped = True


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


def cpu_times() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs since boot."""
    with open("/proc/stat") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total else 0.0


def count_tracebacks(text: str) -> int:
    return len(TRACEBACK.findall(text))


def tracker_reclaimed(text: str) -> int:
    """Segments the resource tracker reports having cleaned up at exit:
    leaked by the program, then hidden by the tracker."""
    return sum(int(n) for n in TRACKER_LEAK.findall(text))
