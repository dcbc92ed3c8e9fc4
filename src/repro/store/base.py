"""Result-store protocol: the storage contract campaigns run against.

A *result store* is the durable half of a campaign. It holds

* **result entries** — one JSON payload per content-addressed key (see
  :func:`sweep_result_key`), written by the sweep harness as each job
  finishes and replayed on later runs;
* **campaign checkpoints** — the serialized job manifest plus the
  done-key frontier of a named campaign, updated atomically as records
  complete, so a killed *parent* process can resume where it stopped
  (:class:`CampaignCheckpoint`);
* **job leases** — short-lived ownership claims that let N sharded
  processes drain one frontier into one store without duplicating
  work.

Two backends implement the contract: the local-directory JSON store
(:class:`~repro.store.dirstore.DirectoryStore`, the default —
format-compatible with the historical ``ResultCache`` so existing
caches stay warm) and a SQLite/WAL database
(:class:`~repro.store.sqlitestore.SQLiteStore`) safe for concurrent
writers on one filesystem. Stores are selected by URI —
``dir:/path/to/results`` or ``sqlite:/path/to/store.db`` — via
:func:`open_store`; a bare path means the directory backend, so every
pre-URI call site keeps its meaning.

Keys are SHA-256 digests of a canonical JSON encoding of the workload
spec, the full config dict, and
:data:`repro.core.engine.ENGINE_SEMANTICS_VERSION`. The version tag is
the safety interlock: any PR that changes simulator *outputs* bumps it,
which atomically invalidates every stored record. Job ``tag`` s are
deliberately excluded — records are stored per (spec, config), so the
same simulation tagged differently by two figures is computed once.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from ..core.engine import ENGINE_SEMANTICS_VERSION

__all__ = [
    "CHECKPOINT_SCHEMA",
    "STORE_ENV",
    "CampaignCheckpoint",
    "ResultStore",
    "default_store_uri",
    "lease_is_stale",
    "lease_owner",
    "open_store",
    "set_store_default",
    "sweep_result_key",
]

#: environment variable naming the default store URI (CLI ``--store``
#: overrides it for the process via :func:`set_store_default`)
STORE_ENV = "REPRO_STORE"

#: bump when the checkpoint layout changes incompatibly
CHECKPOINT_SCHEMA = "repro.store.campaign/v1"

#: seconds a job lease stays valid without renewal; expired leases may
#: be re-claimed by anyone
LEASE_TTL_S = 600.0


def sweep_result_key(workload_spec, config, payload=None) -> str:
    """Stable content hash of one sweep job's inputs.

    ``workload_spec`` needs ``kind``/``threads``/``seed``/``params``
    attributes (:class:`~repro.analysis.sweep.WorkloadSpec`); ``config``
    needs ``to_dict()`` (:class:`~repro.core.SimulationConfig`);
    ``payload`` is an optional
    :class:`~repro.analysis.sweep.PayloadRequest`. A truthy payload
    request is hashed into the key so fat records (carrying response
    distributions, raw series, or probe samples) never collide with
    slim records of the same (spec, config); an empty/absent request
    leaves the key bit-identical to the historical slim format, so
    caches written before payloads existed stay warm.
    """
    blob_dict = {
        "workload": {
            "kind": workload_spec.kind,
            "threads": workload_spec.threads,
            "seed": workload_spec.seed,
            "params": list(workload_spec.params),
        },
        "config": config.to_dict(),
        "engine_semantics": ENGINE_SEMANTICS_VERSION,
    }
    if payload:
        blob_dict["payload"] = payload.to_dict()
    blob = json.dumps(blob_dict, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


@dataclass(frozen=True)
class CampaignCheckpoint:
    """Durable identity of one campaign: its job manifest and metadata.

    The checkpoint is written once when a campaign first starts and
    never rewritten; the mutable *frontier* (which job keys have
    finished) lives beside it in the store and is appended to as each
    record completes. ``jobs`` holds one JSON-able dict per sweep job —
    ``{"tag", "key", "workload", "config", "payload"}`` — enough to
    reconstruct the exact job list in another process with no access to
    the code that built it. ``meta`` carries whatever the submitter
    wants a resuming process to know (the CLI stores the experiment id,
    scale, and seed so ``repro run --resume <id>`` needs no further
    arguments).
    """

    campaign_id: str
    label: str = ""
    created_at: str = ""
    jobs: tuple[dict[str, Any], ...] = ()
    meta: dict[str, Any] = field(default_factory=dict)
    schema: str = CHECKPOINT_SCHEMA

    @property
    def job_keys(self) -> set[str]:
        return {job["key"] for job in self.jobs}

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": self.schema,
            "campaign_id": self.campaign_id,
            "label": self.label,
            "created_at": self.created_at,
            "jobs": list(self.jobs),
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignCheckpoint":
        return cls(
            campaign_id=data["campaign_id"],
            label=data.get("label", ""),
            created_at=data.get("created_at", ""),
            jobs=tuple(data.get("jobs", ())),
            meta=dict(data.get("meta", {})),
            schema=data.get("schema", CHECKPOINT_SCHEMA),
        )


def lease_owner() -> dict[str, Any]:
    """This process's lease identity (host + pid + claim time)."""
    return {"host": socket.gethostname(), "pid": os.getpid(), "ts": time.time()}


def lease_is_stale(lease: Mapping[str, Any], now: float | None = None) -> bool:
    """Whether a recorded lease no longer protects its job.

    A lease is stale once it expires, or earlier when its owner lived on
    *this* host and that process no longer exists — a crashed shard on
    the same machine releases its jobs immediately instead of blocking
    a resume for the full TTL. Cross-host owners cannot be probed, so
    only expiry frees their claims.
    """
    now = time.time() if now is None else now
    expires = lease.get("expires", 0.0)
    if expires <= now:
        return True
    if lease.get("host") == socket.gethostname():
        pid = lease.get("pid")
        if isinstance(pid, int) and pid > 0 and pid != os.getpid():
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return True
            except OSError:
                pass
    return False


class ResultStore(ABC):
    """Backend contract for campaign results, checkpoints, and leases.

    Implementations must make :meth:`put` atomic (a killed writer never
    leaves a half-written entry visible) and :meth:`mark_done` durable
    before returning, since the parent calls both as each record lands
    and may be SIGKILLed at any point between jobs.
    """

    # -- result entries -------------------------------------------------

    @abstractmethod
    def get(self, key: str) -> dict[str, Any] | None:
        """The stored payload, or None on miss/corruption (never raises).

        A corrupt entry (present but undecodable) is *quarantined* on
        first detection — renamed/moved aside so warm passes stop
        re-reading it — and counted by :meth:`stats`.
        """

    def get_many(self, keys: Sequence[str]) -> dict[str, dict[str, Any]]:
        """Batched :meth:`get` for the campaign cache-probe phase.

        Returns only the keys that hit. The default loops :meth:`get`;
        backends with cheaper bulk reads override it.
        """
        found: dict[str, dict[str, Any]] = {}
        for key in keys:
            payload = self.get(key)
            if payload is not None:
                found[key] = payload
        return found

    def put(self, key: str, payload: Mapping[str, Any]) -> None:
        """Store ``payload`` under ``key`` atomically.

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

    @abstractmethod
    def _write(self, key: str, payload: Mapping[str, Any]) -> None:
        """Backend write; atomicity is the implementation's burden."""

    @abstractmethod
    def clear(self) -> int:
        """Delete every stored result (and quarantined/stale debris);
        returns the number of entries removed. Campaign checkpoints are
        cleared too — a store without its results cannot honestly claim
        any frontier progress."""

    @abstractmethod
    def stats(self) -> dict[str, Any]:
        """Entry count, on-disk footprint, quarantined-entry count, and
        backend identity, for campaign telemetry and ``repro cache``."""

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def describe(self) -> str:
        """Canonical URI for manifests/provenance (``dir:...`` etc.)."""

    # -- campaign checkpoints -------------------------------------------

    @abstractmethod
    def save_checkpoint(self, checkpoint: CampaignCheckpoint) -> None:
        """Persist a campaign's job manifest (write-once; saving an
        existing id with an identical job-key set is a no-op)."""

    @abstractmethod
    def load_checkpoint(self, campaign_id: str) -> CampaignCheckpoint | None: ...

    @abstractmethod
    def list_campaigns(self) -> list[str]: ...

    @abstractmethod
    def mark_done(self, campaign_id: str, key: str) -> None:
        """Record one finished job key in the campaign frontier."""

    @abstractmethod
    def done_keys(self, campaign_id: str) -> set[str]:
        """Every job key the campaign has durably completed."""

    # -- job leases -----------------------------------------------------

    @abstractmethod
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

    @abstractmethod
    def release(self, campaign_id: str, key: str) -> None:
        """Drop this process's lease on a job (after completion)."""

    def close(self) -> None:
        """Release backend resources (connections); idempotent."""


# -- URI resolution and process-wide default ---------------------------

_STORE_DEFAULT: str | None = None


def set_store_default(uri: str | None) -> str | None:
    """Set the process-wide store URI default; returns the old value.

    Used by the CLI's ``--store`` flag (experiment runners have no
    store parameter). ``None`` restores the environment/``cache_dir``
    resolution order.
    """
    global _STORE_DEFAULT
    previous = _STORE_DEFAULT
    if uri is not None:
        parse_store_uri(uri)  # validate before installing
    _STORE_DEFAULT = uri
    return previous


def default_store_uri() -> str | None:
    """The process default store URI: ``--store`` value if set, else the
    ``REPRO_STORE`` environment variable, else None."""
    if _STORE_DEFAULT is not None:
        return _STORE_DEFAULT
    return os.environ.get(STORE_ENV) or None


def parse_store_uri(uri: str) -> tuple[str, str]:
    """Split a store URI into ``(scheme, path)``.

    ``dir:PATH`` and ``sqlite:PATH`` are the known schemes; a bare path
    (no scheme, or a Windows drive letter) means the directory backend,
    so pre-URI call sites keep their meaning.
    """
    scheme, sep, rest = uri.partition(":")
    if sep and len(scheme) > 1:  # len == 1 would be a drive letter
        scheme = scheme.lower()
        if scheme not in ("dir", "sqlite"):
            raise ValueError(
                f"unknown result-store scheme {scheme!r} in {uri!r}; "
                "expected dir:PATH or sqlite:PATH"
            )
        if not rest:
            raise ValueError(f"store URI {uri!r} names no path")
        return scheme, rest
    return "dir", uri


def open_store(target: "ResultStore | str | os.PathLike") -> ResultStore:
    """Resolve a store argument — an instance, a URI, or a bare path —
    into a live :class:`ResultStore`."""
    if isinstance(target, ResultStore):
        return target
    scheme, path = parse_store_uri(str(target))
    if scheme == "sqlite":
        from .sqlitestore import SQLiteStore

        return SQLiteStore(path)
    from .dirstore import DirectoryStore

    return DirectoryStore(path)


def campaign_id_for(label: str, keys: Iterable[str]) -> str:
    """Deterministic campaign id: label slug + digest of the job-key set.

    Re-running the same job list under the same label maps to the same
    campaign, which is what makes resume automatic — no id needs to be
    carried between invocations (though one can be, via ``--resume``).
    """
    slug = "".join(
        ch if ch.isalnum() or ch in "._-" else "-" for ch in (label or "sweep")
    ).strip("-") or "sweep"
    digest = hashlib.sha256(
        "\n".join(sorted(keys)).encode("utf-8")
    ).hexdigest()[:12]
    return f"{slug}-{digest}"
