"""Per-operation output checks.

Two independent checks, both run outside the timed region:

* a *digest* of the operation's ``SearchStats`` counters and its target
  (experiment mode) or ranked queries (interactive mode), compared with
  the digest the serial run recorded in ``golden.json``.  Sharded and
  served operations must match the serial digest: that is the
  determinism pledge.
* an *oracle* check of every found target: rendered in the ``sqlite``
  dialect, executed by :class:`repro.oracle.Oracle`, and compared with the
  ground truth's database output under ``tables_equivalent``.  Queries the
  oracle cannot express are counted as unchecked, never as passed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.errors import OracleError, OracleUnsupportedError, SqlRenderError
from repro.oracle import Oracle
from repro.synthesis.equivalence import tables_equivalent
from repro.table.table import Table

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

#: The ``SearchStats`` fields the digest covers: every counter of the
#: search, none of its timings.
STATS_FIELDS = ("visited", "pruned", "expanded", "concrete_checked",
                "consistent_found", "timed_out", "skeletons",
                "max_skeleton_size")

# Oracle verdicts.
PASSED = "passed"
FAILED = "failed"
UNCHECKED = "unchecked"


def op_key(task: str, technique: str, budget: int, mode: str) -> str:
    """The identity of one operation's expected output."""
    return f"{task}|{technique}|{budget}|{mode}"


def result_digest(result, mode: str) -> str:
    """Digest of the counters and the answer of one synthesis result."""
    payload: dict = {"stats": {name: getattr(result.stats, name)
                               for name in STATS_FIELDS}}
    if mode == "experiment":
        payload["target"] = None if result.target is None \
            else str(result.target)
        payload["target_rank"] = result.target_rank
    else:
        payload["queries"] = [str(query) for query in result.queries]
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def load_golden(path: Path = GOLDEN_PATH) -> dict[str, str]:
    with open(path) as handle:
        return json.load(handle)["digests"]


def _as_table(rows) -> Table:
    width = len(rows[0]) if rows else 0
    return Table.from_rows("out", [f"c{j}" for j in range(width)], rows)


class OracleCheck:
    """Checks queries against each task's ground truth on SQLite.

    One database per task, loaded on first use; verdicts are memoized per
    ``(task, query text)`` because the check is a pure function of both.
    Use as a context manager so the databases are closed.
    """

    def __init__(self) -> None:
        self._oracles: dict[str, tuple[Oracle, Table] | None] = {}
        self._verdicts: dict[tuple[str, str], str] = {}

    def verdict(self, task, query) -> str:
        key = (task.name, str(query))
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._check(task, query)
            self._verdicts[key] = verdict
        return verdict

    def _oracle(self, task) -> tuple[Oracle, Table] | None:
        if task.name not in self._oracles:
            try:
                oracle = Oracle(task.env, "sqlite")
            except OracleUnsupportedError:
                self._oracles[task.name] = None
            else:
                try:
                    expected = _as_table(oracle.execute(task.ground_truth))
                except BaseException:
                    oracle.close()
                    raise
                self._oracles[task.name] = (oracle, expected)
        return self._oracles[task.name]

    def _check(self, task, query) -> str:
        loaded = self._oracle(task)
        if loaded is None:
            return UNCHECKED
        oracle, expected = loaded
        try:
            actual = oracle.execute(query)
        except (OracleUnsupportedError, SqlRenderError):
            return UNCHECKED
        except OracleError:
            return FAILED
        return PASSED if tables_equivalent(expected, _as_table(actual)) \
            else FAILED

    def close(self) -> None:
        for loaded in self._oracles.values():
            if loaded is not None:
                loaded[0].close()
        self._oracles.clear()

    def __enter__(self) -> "OracleCheck":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def check_operation(record: dict, result, task, golden: dict[str, str],
                    oracle: OracleCheck) -> None:
    """Fill ``record`` with the verdicts for one finished operation.

    Sets ``digest_ok``, ``oracle`` (the verdict on a found target),
    ``solved`` and ``failed``.  An operation fails when its digest is
    missing from or differs from the serial one, or when the oracle
    refutes its target.
    """
    mode = record["mode"]
    key = op_key(task.name, record["technique"], record["budget"], mode)
    record["digest_ok"] = golden.get(key) == result_digest(result, mode)
    if mode == "experiment":
        record["solved"] = result.target is not None
        record["oracle"] = None if result.target is None \
            else oracle.verdict(task, result.target)
    else:
        # Interactive requests have no target: q_gt counts as found when
        # one of the ranked candidates reproduces its database output.
        verdicts = [oracle.verdict(task, query) for query in result.queries]
        record["solved"] = PASSED in verdicts
        record["oracle"] = None
    record["failed"] = not record["digest_ok"] or record["oracle"] == FAILED
