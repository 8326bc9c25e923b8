"""Shared fixtures: the paper's running example (Fig. 1–3) and helpers."""

from __future__ import annotations

import multiprocessing
import os
import time
from multiprocessing import managers, shared_memory

import pytest

from repro import (
    Arithmetic,
    Demonstration,
    Env,
    Group,
    Partition,
    Proj,
    Table,
    TableRef,
    cell,
    func,
    partial_func,
)

ENROLLMENT = {
    "A": [(1667, 1367), (256, 347), (148, 237), (556, 432)],
    "B": [(2578, 1200), (300, 400), (500, 600), (768, 801)],
}
POPULATION = {"A": 5668, "B": 10541}


def make_health_table() -> Table:
    """The running example's input table T (Fig. 1)."""
    rows = []
    for city in ("A", "B"):
        for quarter, (youth, adult) in enumerate(ENROLLMENT[city], start=1):
            rows.append([city, quarter, "Youth", youth, POPULATION[city]])
            rows.append([city, quarter, "Adult", adult, POPULATION[city]])
    return Table.from_rows(
        "T", ["City", "Quarter", "Group", "Enrolled", "Population"], rows)


def make_ground_truth() -> Proj:
    """The paper's solution query q (Fig. 2), with the final projection."""
    q1 = Group(TableRef("T"), keys=(0, 1, 4), agg_func="sum", agg_col=3,
               alias="C1")
    q2 = Partition(q1, keys=(0,), agg_func="cumsum", agg_col=3, alias="C2")
    q3 = Arithmetic(q2, func="percent", cols=(4, 2), alias="Percentage")
    return Proj(q3, cols=(0, 1, 5))


def make_paper_demo() -> Demonstration:
    """The demonstration E exactly as shown in Fig. 3 (0-based indices)."""
    return Demonstration.of([
        [cell("T", 0, 0), cell("T", 0, 1),
         func("percent",
              func("sum", cell("T", 0, 3), cell("T", 1, 3)),
              cell("T", 0, 4))],
        [cell("T", 6, 0), cell("T", 6, 1),
         func("percent",
              partial_func("sum", cell("T", 0, 3), cell("T", 1, 3),
                           cell("T", 7, 3)),
              cell("T", 6, 4))],
    ])


@pytest.fixture(scope="session")
def health_table() -> Table:
    return make_health_table()


@pytest.fixture(scope="session")
def health_env(health_table) -> Env:
    return Env.of(health_table)


@pytest.fixture(scope="session")
def ground_truth() -> Proj:
    return make_ground_truth()


@pytest.fixture(scope="session")
def paper_demo() -> Demonstration:
    return make_paper_demo()


@pytest.fixture
def tiny_table() -> Table:
    """The introduction's table T (ID / Quarter / Sales)."""
    return Table.from_rows("T", ["ID", "Quarter", "Sales"], [
        ["A", 1, 10],
        ["A", 2, 20],
        ["A", 3, 15],
        ["B", 1, 20],
        ["B", 2, 15],
    ])


def _shm_entries(prefix: str = "reproshm_") -> set[str]:
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith(prefix)}
    except FileNotFoundError:       # pragma: no cover - no /dev/shm
        return set()


@pytest.fixture
def dispatch_side_channels(monkeypatch):
    """Record every shared-memory segment created and every
    ``multiprocessing`` manager started in this process, plus new
    ``/dev/shm/reproshm_*`` entries from any process.  Call the fixture
    value to get the list of what was seen (empty means inputs travelled
    pickled only)."""
    seen: list[tuple[str, str]] = []
    real_init = shared_memory.SharedMemory.__init__
    real_start = managers.BaseManager.start

    def init(self, name=None, create=False, size=0, *args, **kwargs):
        if create:
            seen.append(("segment", str(name)))
        real_init(self, name, create, size, *args, **kwargs)

    def start(self, *args, **kwargs):
        seen.append(("manager", type(self).__name__))
        return real_start(self, *args, **kwargs)

    monkeypatch.setattr(shared_memory.SharedMemory, "__init__", init)
    monkeypatch.setattr(managers.BaseManager, "start", start)
    before = _shm_entries()

    def report() -> list[tuple[str, str]]:
        return seen + [("dev_shm", name)
                       for name in sorted(_shm_entries() - before)]
    return report


@pytest.fixture
def no_leaked_children():
    """Fail a test that leaves a ``multiprocessing`` child running: every
    pool worker and shard process it started must be gone within a 3 s
    grace period after it ends (``active_children`` also reaps them)."""
    yield
    deadline = time.monotonic() + 3.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []
