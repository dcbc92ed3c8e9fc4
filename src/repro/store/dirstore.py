"""Local-directory result store: one JSON file per entry.

This is the historical ``ResultCache`` layout, unchanged byte for byte:
entries are ``<key>.json`` files written atomically via ``os.replace``
in a ``results/`` directory next to the workload cache's ``.npz``
files, so ``--cache-dir`` governs both caches, deleting the directory
resets both, and every cache written before the store abstraction
existed stays warm. The store keeps entries as plain metric dicts
rather than pickled records so they stay inspectable (``cat`` able),
diffable, and robust to refactors of the record class.

Campaign state lives out of band under ``campaigns/<id>/`` —
``manifest.json`` (the write-once job manifest), ``done.log`` (one
finished key per line, appended with ``O_APPEND`` so concurrent
markers never interleave within a line), and ``leases/<key>.json``
(ownership claims created with ``O_EXCL``). The layout keeps the
entry namespace exactly what it always was: ``*.json`` files at the
top level are results, nothing else.

Corrupt entries — present but undecodable, e.g. truncated by a dying
filesystem — are *quarantined* on first read: renamed to
``<key>.corrupt`` so every later warm pass misses cleanly instead of
re-reading and re-failing forever, and counted by :meth:`stats`.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from pathlib import Path
from typing import Any, Mapping, Sequence

from .base import (
    LEASE_TTL_S,
    CampaignCheckpoint,
    lease_is_stale,
    lease_owner,
)

__all__ = ["DirectoryStore"]


class DirectoryStore:
    """Key -> JSON-payload store backed by one directory of files.

    The parent calls :meth:`put` and :meth:`mark_done` as each record
    lands and may be SIGKILLed at any point between jobs, so a killed
    writer never leaves a half-written entry visible and a marked key
    is on disk before :meth:`mark_done` returns.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)

    def describe(self) -> str:
        """Canonical URI for manifests and provenance."""
        return f"dir:{self.directory}"

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def _campaign_dir(self, campaign_id: str) -> Path:
        return self.directory / "campaigns" / campaign_id

    # -- result entries -------------------------------------------------

    def get(self, key: str) -> dict[str, Any] | None:
        """The stored payload, or None on miss/corruption (never raises).

        A corrupt entry (present but undecodable) is *quarantined* on
        first detection — renamed aside so warm passes stop re-reading
        it — and counted by :meth:`stats`.
        """
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except OSError:
            return None
        except ValueError:
            self._quarantine(path)
            return None
        if not isinstance(payload, dict):
            self._quarantine(path)
            return None
        return payload

    def get_many(self, keys: Sequence[str]) -> dict[str, dict[str, Any]]:
        """Batched :meth:`get` for the campaign cache-probe phase.

        Returns only the keys that hit.
        """
        found: dict[str, dict[str, Any]] = {}
        for key in keys:
            payload = self.get(key)
            if payload is not None:
                found[key] = payload
        return found

    def put(self, key: str, payload: Mapping[str, Any]) -> None:
        """Store ``payload`` under ``key`` atomically (``os.replace``).

        Refuses payloads flagged as failed: a store entry asserts "this
        (spec, config) simulated successfully", and replaying a
        transient worker failure forever would poison every later
        campaign. The sweep harness never offers failed records; this
        guard catches any future caller that tries.
        """
        if payload.get("error"):
            raise ValueError(
                f"refusing to store failed sweep result under key {key!r}"
            )
        self._write(key, payload)

    def _quarantine(self, path: Path) -> None:
        """Move an undecodable entry aside (kept for post-mortems)."""
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            pass  # a concurrent reader may have quarantined it already

    def _write(self, key: str, payload: Mapping[str, Any]) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(dict(payload), sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)

    def clear(self) -> int:
        """Delete every stored result (plus quarantined entries, stale
        ``*.tmp*`` files left by killed writers, and campaign state);
        returns the number of entries removed."""
        removed = 0
        if self.directory.exists():
            stale = set(self.directory.glob("*.json"))
            stale.update(self.directory.glob("*.tmp*"))
            stale.update(self.directory.glob("*.corrupt"))
            for f in stale:
                f.unlink(missing_ok=True)
                removed += 1
            shutil.rmtree(self.directory / "campaigns", ignore_errors=True)
        return removed

    def __len__(self) -> int:
        if not self.directory.exists():
            return 0
        return sum(1 for _ in self.directory.glob("*.json"))

    def stats(self) -> dict[str, Any]:
        """Entry count, footprint, and quarantine count for telemetry."""
        entries = 0
        size = 0
        corrupt = 0
        if self.directory.exists():
            for f in self.directory.glob("*.json"):
                entries += 1
                try:
                    size += f.stat().st_size
                except OSError:
                    pass
            corrupt = sum(1 for _ in self.directory.glob("*.corrupt"))
        return {
            "entries": entries,
            "bytes": size,
            "corrupt": corrupt,
            "backend": "dir",
        }

    # -- campaign checkpoints -------------------------------------------

    def save_checkpoint(self, checkpoint: CampaignCheckpoint) -> None:
        """Persist a campaign's job manifest (write-once; saving an
        existing id again is a no-op)."""
        target = self._campaign_dir(checkpoint.campaign_id)
        path = target / "manifest.json"
        if path.exists():
            return  # write-once; the frontier carries all mutable state
        target.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(
            json.dumps(checkpoint.to_dict(), sort_keys=True), encoding="utf-8"
        )
        os.replace(tmp, path)

    def load_checkpoint(self, campaign_id: str) -> CampaignCheckpoint | None:
        path = self._campaign_dir(campaign_id) / "manifest.json"
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        return CampaignCheckpoint.from_dict(data)

    def list_campaigns(self) -> list[str]:
        root = self.directory / "campaigns"
        if not root.exists():
            return []
        return sorted(
            p.name for p in root.iterdir() if (p / "manifest.json").exists()
        )

    def mark_done(self, campaign_id: str, key: str) -> None:
        """Record one finished job key in the campaign frontier,
        durably (``fsync``) before returning."""
        target = self._campaign_dir(campaign_id)
        target.mkdir(parents=True, exist_ok=True)
        # O_APPEND: single-line writes from concurrent shards land whole
        with open(target / "done.log", "a", encoding="utf-8") as fh:
            fh.write(key + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def done_keys(self, campaign_id: str) -> set[str]:
        """Every job key the campaign has durably completed."""
        path = self._campaign_dir(campaign_id) / "done.log"
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError:
            return set()
        # a parent killed mid-append may leave a truncated final line;
        # it simply doesn't count as done and the job re-runs
        return {line.strip() for line in lines if len(line.strip()) == 32}

    # -- job leases -----------------------------------------------------

    def _lease_path(self, campaign_id: str, key: str) -> Path:
        return self._campaign_dir(campaign_id) / "leases" / f"{key}.json"

    def claim(
        self, campaign_id: str, key: str, ttl_s: float | None = None
    ) -> bool:
        """Try to take ownership of one pending job for this process.

        Returns False when another live process holds the lease (or the
        job is already done). Stale leases — expired, or held by a dead
        process on this host — are taken over. Claims are advisory for
        correctness of *results* (records are pure functions of their
        job) and load-bearing only for avoiding duplicate work.
        """
        if key in self.done_keys(campaign_id):
            return False
        path = self._lease_path(campaign_id, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        ttl = LEASE_TTL_S if ttl_s is None else float(ttl_s)
        doc = {**lease_owner(), "expires": time.time() + ttl}
        blob = json.dumps(doc)
        try:
            # O_EXCL: exactly one creator wins a fresh claim
            with open(path, "x", encoding="utf-8") as fh:
                fh.write(blob)
            return True
        except FileExistsError:
            pass
        try:
            existing = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            existing = {}
        if existing.get("pid") == os.getpid() and existing.get("host") == doc["host"]:
            return True  # already ours (re-claim after a pool rebuild)
        if not lease_is_stale(existing):
            return False
        # take over a stale lease; os.replace keeps the handoff atomic
        # (two racing claimants both "win", which costs duplicate work
        # on an already-orphaned job, never a wrong result)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        try:
            tmp.write_text(blob, encoding="utf-8")
            os.replace(tmp, path)
        except OSError:
            return False
        return True

    def release(self, campaign_id: str, key: str) -> None:
        """Drop this process's lease on a job (after completion)."""
        try:
            self._lease_path(campaign_id, key).unlink(missing_ok=True)
        except OSError:
            pass
