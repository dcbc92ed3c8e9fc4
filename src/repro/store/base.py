"""Result-store contract: keys, checkpoints, leases and store URIs.

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

The one implementation is the local-directory JSON store
(:class:`~repro.store.dirstore.DirectoryStore`, format-compatible with
the historical ``ResultCache`` so existing caches stay warm). Stores
are named by URI — ``dir:/path/to/results`` — and opened via
:func:`open_store`; a bare path means the same, so every pre-URI call
site keeps its meaning.

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
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from ..core.engine import ENGINE_SEMANTICS_VERSION

if TYPE_CHECKING:
    from .dirstore import DirectoryStore

__all__ = [
    "CHECKPOINT_SCHEMA",
    "STORE_ENV",
    "CampaignCheckpoint",
    "lease_is_stale",
    "lease_owner",
    "open_store",
    "resolve_store_uri",
    "sweep_result_key",
]

#: environment variable naming the default store URI (an explicit
#: ``--store`` or runner ``store`` argument overrides it)
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


# -- URI resolution ----------------------------------------------------


def resolve_store_uri(
    store: str | None = None, cache_dir: str | os.PathLike | None = None
) -> str | None:
    """The result store a campaign or command runs against, as a URI.

    Order: the explicit ``store`` (``--store``), then the
    ``REPRO_STORE`` environment variable, then ``<cache_dir>/results``;
    None when none is given, in which case a campaign stores nothing.
    """
    uri = store or os.environ.get(STORE_ENV)
    if uri:
        return uri
    if cache_dir is None:
        return None
    return f"dir:{Path(cache_dir) / 'results'}"


def parse_store_uri(uri: str) -> tuple[str, str]:
    """Split a store URI into ``(scheme, path)``.

    ``dir:PATH`` is the one known scheme; a bare path (no scheme, or a
    Windows drive letter) means the same, so pre-URI call sites keep
    their meaning.
    """
    scheme, sep, rest = uri.partition(":")
    if sep and len(scheme) > 1:  # len == 1 would be a drive letter
        scheme = scheme.lower()
        if scheme != "dir":
            raise ValueError(
                f"unknown result-store scheme {scheme!r} in {uri!r}; "
                "expected dir:PATH"
            )
        if not rest:
            raise ValueError(f"store URI {uri!r} names no path")
        return scheme, rest
    return "dir", uri


def open_store(target: "DirectoryStore | str | os.PathLike") -> "DirectoryStore":
    """Resolve a store argument — an instance, a URI, or a bare path —
    into a live :class:`~repro.store.dirstore.DirectoryStore`."""
    from .dirstore import DirectoryStore

    if isinstance(target, DirectoryStore):
        return target
    _, path = parse_store_uri(str(target))
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
