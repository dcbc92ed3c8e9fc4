"""Pluggable result stores for sweep campaigns.

A backend protocol (:class:`ResultStore`), the default local-directory
backend (:class:`DirectoryStore`: one ``<key>.json`` file per entry,
the layout every earlier result cache used), and a SQLite/WAL backend
(:class:`SQLiteStore`) for N concurrent campaign processes sharing one
store. :func:`sweep_result_key` is the content hash every backend keys
entries by.
"""

from .base import (
    CHECKPOINT_SCHEMA,
    STORE_ENV,
    CampaignCheckpoint,
    ResultStore,
    campaign_id_for,
    lease_is_stale,
    lease_owner,
    open_store,
    parse_store_uri,
    resolve_store_uri,
    sweep_result_key,
)
from .dirstore import DirectoryStore
from .sqlitestore import SQLiteStore

__all__ = [
    "CHECKPOINT_SCHEMA",
    "STORE_ENV",
    "CampaignCheckpoint",
    "DirectoryStore",
    "ResultStore",
    "SQLiteStore",
    "campaign_id_for",
    "lease_is_stale",
    "lease_owner",
    "open_store",
    "parse_store_uri",
    "resolve_store_uri",
    "sweep_result_key",
]
