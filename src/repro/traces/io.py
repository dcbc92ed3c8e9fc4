"""Workload persistence and caching.

Two formats:

* **NPZ** — compact binary for cached workloads (one array per thread
  plus a JSON metadata blob);
* **text** — one page id per line with ``# thread`` separators, for
  interop with external simulators (the paper's C++ simulator ingests
  address traces of this shape).

:class:`WorkloadCache` memoizes expensive instrumented-trace generation
(a full sort/SpGEMM workload takes seconds to minutes to regenerate) by
hashing the generator kind and parameters. An entry that exists but
does not load (truncated by a dying writer or filesystem) is moved
aside as ``<entry>.corrupt`` and regenerated, so it fails no later run.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
import zlib
from pathlib import Path
from typing import Any

import numpy as np

from ..obs.log import get_logger, warn_once
from .base import Trace, Workload, make_workload

log = get_logger("traces.io")

__all__ = [
    "save_workload_npz",
    "load_workload_npz",
    "save_workload_text",
    "load_workload_text",
    "WorkloadCache",
]


#: what loading a damaged ``.npz`` raises: a truncated or garbled zip,
#: a corrupt deflate stream, or a metadata blob that does not decode
_UNREADABLE = (
    zipfile.BadZipFile,
    zlib.error,
    EOFError,
    KeyError,
    IndexError,
    ValueError,
)


def save_workload_npz(workload: Workload, path: str | os.PathLike) -> None:
    """Write a workload (source traces + metadata) to an ``.npz`` file."""
    arrays = {
        f"trace_{i}": t.pages for i, t in enumerate(workload.source_traces)
    }
    meta = {
        "name": workload.name,
        "threads": workload.num_threads,
        # Without this flag a reloaded non-disjoint workload (namespace
        # False, e.g. the shared-pages family) would be renumbered back
        # into disjoint blocks, silently destroying the sharing.
        "namespace": workload.namespaced,
        "sources": [t.source for t in workload.source_traces],
        "params": [dict(t.params) for t in workload.source_traces],
    }
    arrays["meta_json"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(path, **arrays)


def load_workload_npz(path: str | os.PathLike) -> Workload:
    """Read a workload written by :func:`save_workload_npz`."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
        traces = [
            Trace(
                data[f"trace_{i}"],
                source=meta["sources"][i],
                params=meta["params"][i],
            )
            for i in range(meta["threads"])
        ]
    return Workload(
        traces, name=meta["name"], namespace=meta.get("namespace", True)
    )


def save_workload_text(workload: Workload, path: str | os.PathLike) -> None:
    """Write a workload as newline-separated page ids per thread.

    The ``# namespace`` header records whether the workload renumbers
    per-thread pages into disjoint blocks. Without it a reloaded
    shared-page workload (``namespace=False``) would be renumbered back
    into disjoint blocks, silently destroying the sharing — the text
    twin of the NPZ round-trip bug fixed for ``save_workload_npz``.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# workload {workload.name}\n")
        fh.write(f"# namespace {'true' if workload.namespaced else 'false'}\n")
        for i, trace in enumerate(workload.source_traces):
            fh.write(f"# thread {i} source={trace.source}\n")
            fh.write("\n".join(str(p) for p in trace.pages.tolist()))
            fh.write("\n")


def load_workload_text(path: str | os.PathLike) -> Workload:
    """Read a workload written by :func:`save_workload_text`.

    Headerless files (external traces) keep the historical defaults:
    a single thread, namespaced page ids.
    """
    name = Path(path).stem
    namespace = True
    traces: list[list[int]] = []
    current: list[int] | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                header = line[1:].strip()
                if header.startswith("workload"):
                    name = line.split("workload", 1)[1].strip() or name
                elif header.startswith("namespace"):
                    value = header.split("namespace", 1)[1].strip().lower()
                    namespace = value not in ("false", "0", "no")
                elif header.startswith("thread"):
                    current = []
                    traces.append(current)
                continue
            if current is None:  # headerless file: single thread
                current = []
                traces.append(current)
            current.append(int(line))
    if not traces:
        raise ValueError(f"no traces found in {path}")
    return Workload(
        [np.asarray(t, dtype=np.int64) for t in traces],
        name=name,
        namespace=namespace,
    )


class WorkloadCache:
    """Disk cache for generated workloads, keyed by generator parameters.

    >>> cache = WorkloadCache(".cache")                 # doctest: +SKIP
    >>> wl = cache.get("sort", threads=16, n=2000)      # doctest: +SKIP
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)

    def _key(self, kind: str, threads: int, seed: int, params: dict[str, Any]) -> str:
        blob = json.dumps(
            {"kind": kind, "threads": threads, "seed": seed, "params": params},
            sort_keys=True,
            default=str,
        )
        digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]
        return f"{kind}-t{threads}-s{seed}-{digest}"

    def path_for(self, kind: str, threads: int, seed: int = 0, **params: Any) -> Path:
        return self.directory / (self._key(kind, threads, seed, params) + ".npz")

    def get(self, kind: str, threads: int, seed: int = 0, **params: Any) -> Workload:
        """Load the workload from cache, generating and storing on miss.

        An entry that does not load is quarantined (see
        :meth:`_quarantine`) and regenerated like a miss.
        """
        path = self.path_for(kind, threads, seed=seed, **params)
        try:
            workload = load_workload_npz(path)
        except FileNotFoundError:
            log.debug("workload cache miss: %s (generating)", path.name)
        except _UNREADABLE as exc:
            self._quarantine(path, exc)
        else:
            log.debug("workload cache hit: %s", path.name)
            return workload
        workload = make_workload(kind, threads, seed=seed, **params)
        self.directory.mkdir(parents=True, exist_ok=True)
        # pid-suffixed temp name (matching DirectoryStore.put): two
        # processes generating the same workload concurrently must not
        # clobber each other's half-written temp file; both finish with
        # an atomic os.replace onto the final name.
        tmp = path.with_name(f"{path.stem}.tmp{os.getpid()}.npz")
        try:
            save_workload_npz(workload, tmp)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)  # left behind only on failure
        return workload

    def _quarantine(self, path: Path, exc: Exception) -> None:
        """Move an undecodable entry aside as ``<stem>.corrupt``."""
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            pass  # a concurrent reader may have moved it already
        warn_once(
            log,
            ("corrupt-workload", str(path)),
            "workload cache entry %s does not load (%s: %s); moved aside "
            "as .corrupt and regenerating",
            path.name,
            type(exc).__name__,
            exc,
        )

    def clear(self) -> int:
        """Delete every cached workload, plus any stale ``*.tmp*``
        leftovers from killed writers and quarantined ``*.corrupt``
        entries; returns the number removed."""
        removed = 0
        if self.directory.exists():
            stale = set(self.directory.glob("*.npz"))
            stale.update(self.directory.glob("*.tmp*"))
            stale.update(self.directory.glob("*.corrupt"))
            for f in stale:
                f.unlink(missing_ok=True)
                removed += 1
        return removed

    def stats(self) -> dict[str, Any]:
        """Entry count, on-disk footprint and quarantined entries, for
        ``repro cache stats``."""
        entries = 0
        size = 0
        corrupt = 0
        if self.directory.exists():
            for f in self.directory.glob("*.npz"):
                entries += 1
                try:
                    size += f.stat().st_size
                except OSError:
                    pass
            corrupt = sum(1 for _ in self.directory.glob("*.corrupt"))
        return {"entries": entries, "bytes": size, "corrupt": corrupt}
