"""The result store sweep campaigns run against.

:class:`DirectoryStore` keeps one ``<key>.json`` file per entry (the
layout every earlier result cache used) plus each campaign's
checkpoint, done-key frontier and job leases, which is what lets
N sharded campaign processes drain one store concurrently.
:func:`sweep_result_key` is the content hash entries are keyed by.
"""

from .base import (
    CHECKPOINT_SCHEMA,
    STORE_ENV,
    CampaignCheckpoint,
    campaign_id_for,
    lease_is_stale,
    lease_owner,
    open_store,
    parse_store_uri,
    resolve_store_uri,
    sweep_result_key,
)
from .dirstore import DirectoryStore

__all__ = [
    "CHECKPOINT_SCHEMA",
    "STORE_ENV",
    "CampaignCheckpoint",
    "DirectoryStore",
    "campaign_id_for",
    "lease_is_stale",
    "lease_owner",
    "open_store",
    "parse_store_uri",
    "resolve_store_uri",
    "sweep_result_key",
]
