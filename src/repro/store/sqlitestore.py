"""SQLite/WAL result store: one database safe for concurrent writers.

The directory backend is perfect for one process but N sharded
campaign parents hammering one NFS-exported tree of tiny JSON files is
where local-dir stores go to die. This backend keeps the exact same
*logical* contract — JSON payload per content-addressed key, write-once
campaign manifests, an append-only done frontier, job leases — in a
single SQLite database opened in WAL mode, so concurrent readers never
block the one writer and short write transactions from many processes
interleave safely on one (local) filesystem. Payloads are stored as
canonical JSON text, byte-identical to what the directory backend
writes into ``<key>.json``, so records replayed from either backend are
indistinguishable.

Connections are per-process and per-instance: a store object that
crosses a ``fork`` (e.g. pickled into a pool worker) transparently
reopens, because SQLite connections must never be shared across
processes. Claims use ``BEGIN IMMEDIATE`` so lease takeover is a real
transaction, not the directory backend's advisory ``O_EXCL`` dance.

Corrupt rows — undecodable payload text — are quarantined into a
``corrupt`` table on first read (mirroring the directory backend's
``*.corrupt`` rename) and counted by :meth:`stats`.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Mapping, Sequence

from .base import (
    LEASE_TTL_S,
    CampaignCheckpoint,
    ResultStore,
    lease_is_stale,
    lease_owner,
)

__all__ = ["SQLiteStore"]

_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS results ("
    " key TEXT PRIMARY KEY, payload TEXT NOT NULL)",
    "CREATE TABLE IF NOT EXISTS corrupt ("
    " key TEXT PRIMARY KEY, payload TEXT)",
    "CREATE TABLE IF NOT EXISTS campaigns ("
    " id TEXT PRIMARY KEY, manifest TEXT NOT NULL)",
    "CREATE TABLE IF NOT EXISTS done ("
    " campaign TEXT NOT NULL, key TEXT NOT NULL,"
    " PRIMARY KEY (campaign, key))",
    "CREATE TABLE IF NOT EXISTS leases ("
    " campaign TEXT NOT NULL, key TEXT NOT NULL,"
    " owner TEXT NOT NULL, expires REAL NOT NULL,"
    " PRIMARY KEY (campaign, key))",
)

#: keys per IN (...) clause in get_many (SQLite's parameter cap is 999
#: in older builds)
_CHUNK = 400


class SQLiteStore(ResultStore):
    """Key -> JSON-payload store backed by one SQLite/WAL database."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._conn: sqlite3.Connection | None = None
        self._pid: int | None = None
        self._lock = threading.Lock()

    def describe(self) -> str:
        return f"sqlite:{self.path}"

    def _connection(self) -> sqlite3.Connection:
        # reopen after a fork: SQLite connections are process-private
        if self._conn is None or self._pid != os.getpid():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(
                self.path,
                timeout=30.0,
                isolation_level=None,  # autocommit; explicit BEGIN where needed
                check_same_thread=False,  # guarded by self._lock
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            for statement in _SCHEMA:
                conn.execute(statement)
            self._conn = conn
            self._pid = os.getpid()
        return self._conn

    def close(self) -> None:
        with self._lock:
            if self._conn is not None and self._pid == os.getpid():
                self._conn.close()
            self._conn = None
            self._pid = None

    # pickling (into pool workers) ships only the path; the worker's
    # first use opens its own connection
    def __getstate__(self) -> dict[str, Any]:
        return {"path": self.path}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.path = state["path"]
        self._conn = None
        self._pid = None
        self._lock = threading.Lock()

    # -- result entries -------------------------------------------------

    def get(self, key: str) -> dict[str, Any] | None:
        with self._lock:
            conn = self._connection()
            row = conn.execute(
                "SELECT payload FROM results WHERE key = ?", (key,)
            ).fetchone()
            if row is None:
                return None
            try:
                payload = json.loads(row[0])
            except ValueError:
                payload = None
            if not isinstance(payload, dict):
                self._quarantine(conn, key, row[0])
                return None
            return payload

    @staticmethod
    def _quarantine(conn: sqlite3.Connection, key: str, blob: Any) -> None:
        conn.execute("BEGIN IMMEDIATE")
        try:
            conn.execute(
                "INSERT OR REPLACE INTO corrupt (key, payload) VALUES (?, ?)",
                (key, blob if isinstance(blob, str) else None),
            )
            conn.execute("DELETE FROM results WHERE key = ?", (key,))
            conn.execute("COMMIT")
        except sqlite3.Error:
            conn.execute("ROLLBACK")

    def get_many(self, keys: Sequence[str]) -> dict[str, dict[str, Any]]:
        found: dict[str, dict[str, Any]] = {}
        bad: list[tuple[str, str]] = []
        with self._lock:
            conn = self._connection()
            for start in range(0, len(keys), _CHUNK):
                chunk = list(keys[start : start + _CHUNK])
                marks = ",".join("?" * len(chunk))
                rows = conn.execute(
                    f"SELECT key, payload FROM results WHERE key IN ({marks})",
                    chunk,
                ).fetchall()
                for key, blob in rows:
                    try:
                        payload = json.loads(blob)
                    except ValueError:
                        payload = None
                    if isinstance(payload, dict):
                        found[key] = payload
                    else:
                        bad.append((key, blob))
            for key, blob in bad:
                self._quarantine(conn, key, blob)
        return found

    def _write(self, key: str, payload: Mapping[str, Any]) -> None:
        blob = json.dumps(dict(payload), sort_keys=True)
        with self._lock:
            self._connection().execute(
                "INSERT OR REPLACE INTO results (key, payload) VALUES (?, ?)",
                (key, blob),
            )

    def clear(self) -> int:
        with self._lock:
            conn = self._connection()
            (removed,) = conn.execute("SELECT COUNT(*) FROM results").fetchone()
            conn.execute("BEGIN IMMEDIATE")
            try:
                for table in ("results", "corrupt", "campaigns", "done", "leases"):
                    conn.execute(f"DELETE FROM {table}")
                conn.execute("COMMIT")
            except sqlite3.Error:
                conn.execute("ROLLBACK")
                raise
        return removed

    def __len__(self) -> int:
        with self._lock:
            (count,) = (
                self._connection()
                .execute("SELECT COUNT(*) FROM results")
                .fetchone()
            )
        return count

    def stats(self) -> dict[str, Any]:
        with self._lock:
            conn = self._connection()
            (entries,) = conn.execute("SELECT COUNT(*) FROM results").fetchone()
            (size,) = conn.execute(
                "SELECT COALESCE(SUM(LENGTH(payload)), 0) FROM results"
            ).fetchone()
            (corrupt,) = conn.execute("SELECT COUNT(*) FROM corrupt").fetchone()
        return {
            "entries": entries,
            "bytes": size,
            "corrupt": corrupt,
            "backend": "sqlite",
        }

    # -- campaign checkpoints -------------------------------------------

    def save_checkpoint(self, checkpoint: CampaignCheckpoint) -> None:
        blob = json.dumps(checkpoint.to_dict(), sort_keys=True)
        with self._lock:
            # INSERT OR IGNORE: write-once, first manifest wins
            self._connection().execute(
                "INSERT OR IGNORE INTO campaigns (id, manifest) VALUES (?, ?)",
                (checkpoint.campaign_id, blob),
            )

    def load_checkpoint(self, campaign_id: str) -> CampaignCheckpoint | None:
        with self._lock:
            row = (
                self._connection()
                .execute(
                    "SELECT manifest FROM campaigns WHERE id = ?", (campaign_id,)
                )
                .fetchone()
            )
        if row is None:
            return None
        try:
            return CampaignCheckpoint.from_dict(json.loads(row[0]))
        except (ValueError, KeyError):
            return None

    def list_campaigns(self) -> list[str]:
        with self._lock:
            rows = (
                self._connection()
                .execute("SELECT id FROM campaigns ORDER BY id")
                .fetchall()
            )
        return [row[0] for row in rows]

    def mark_done(self, campaign_id: str, key: str) -> None:
        with self._lock:
            self._connection().execute(
                "INSERT OR IGNORE INTO done (campaign, key) VALUES (?, ?)",
                (campaign_id, key),
            )

    def done_keys(self, campaign_id: str) -> set[str]:
        with self._lock:
            rows = (
                self._connection()
                .execute(
                    "SELECT key FROM done WHERE campaign = ?", (campaign_id,)
                )
                .fetchall()
            )
        return {row[0] for row in rows}

    # -- job leases -----------------------------------------------------

    def claim(
        self, campaign_id: str, key: str, ttl_s: float | None = None
    ) -> bool:
        ttl = LEASE_TTL_S if ttl_s is None else float(ttl_s)
        me = lease_owner()
        with self._lock:
            conn = self._connection()
            conn.execute("BEGIN IMMEDIATE")
            try:
                row = conn.execute(
                    "SELECT 1 FROM done WHERE campaign = ? AND key = ?",
                    (campaign_id, key),
                ).fetchone()
                if row is not None:
                    conn.execute("ROLLBACK")
                    return False
                row = conn.execute(
                    "SELECT owner, expires FROM leases"
                    " WHERE campaign = ? AND key = ?",
                    (campaign_id, key),
                ).fetchone()
                if row is not None:
                    try:
                        holder = json.loads(row[0])
                    except ValueError:
                        holder = {}
                    holder["expires"] = row[1]
                    ours = (
                        holder.get("pid") == me["pid"]
                        and holder.get("host") == me["host"]
                    )
                    if not ours and not lease_is_stale(holder):
                        conn.execute("ROLLBACK")
                        return False
                conn.execute(
                    "INSERT OR REPLACE INTO leases"
                    " (campaign, key, owner, expires) VALUES (?, ?, ?, ?)",
                    (campaign_id, key, json.dumps(me), time.time() + ttl),
                )
                conn.execute("COMMIT")
                return True
            except sqlite3.Error:
                conn.execute("ROLLBACK")
                return False

    def release(self, campaign_id: str, key: str) -> None:
        with self._lock:
            try:
                self._connection().execute(
                    "DELETE FROM leases WHERE campaign = ? AND key = ?",
                    (campaign_id, key),
                )
            except sqlite3.Error:
                pass
