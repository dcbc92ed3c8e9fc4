"""Direct-mapped HBM and the Lemma 1 transformation (paper section 2).

Practical HBM implementations are direct mapped (KNL, Sapphire Rapids),
while the theory assumes full associativity. Lemma 1 shows how to
simulate a size-k fully-associative HBM with LRU (or FIFO) replacement
on a direct-mapped cache of size Theta(k), using two data structures
kept *in simulated memory* (so their accesses themselves go through the
direct-mapped cache):

* a size-k hash table with chaining under a 2-universal hash family
  [45], mapping user DRAM addresses to "Cache DRAM addresses" (the
  fixed bijection partners of the direct-mapped slots); and
* a doubly-linked list ordered by eviction priority (front = victim).

This module implements that machinery concretely and counts the induced
direct-mapped hits and misses, letting the Lemma's O(1) expected
overhead be checked empirically (see ``benchmarks/test_bench_directmapped.py``).

It also implements the Theorem 4 concurrent-front-insert primitive: x
processors move x items to the list front in O(log x) PRAM steps via a
prefix-sums rank assignment, with an explicit step counter so tests can
assert the logarithmic bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .replacement import LRUPolicy, FIFOReplacementPolicy

__all__ = [
    "DirectMappedCache",
    "TwoUniversalHash",
    "TransformedCacheSimulator",
    "TransformReport",
    "simulate_fully_associative",
    "transform_overhead",
    "concurrent_front_insert",
]

_MERSENNE_PRIME = (1 << 61) - 1


class TwoUniversalHash:
    """Carter-Wegman 2-universal hash: ``((a*x + b) mod p) mod m``."""

    def __init__(self, buckets: int, rng: np.random.Generator) -> None:
        if buckets < 1:
            raise ValueError(f"buckets must be >= 1, got {buckets}")
        self.buckets = buckets
        self.a = int(rng.integers(1, _MERSENNE_PRIME))
        self.b = int(rng.integers(0, _MERSENNE_PRIME))

    def __call__(self, key: int) -> int:
        return ((self.a * key + self.b) % _MERSENNE_PRIME) % self.buckets


class DirectMappedCache:
    """A direct-mapped cache of ``slots`` page frames.

    Each page maps to exactly one frame (``hash(page) % slots`` with a
    2-universal hash so adversarial address patterns cannot force
    systematic conflicts, mirroring how hardware scrambles index bits).

    :meth:`access` touches one page; :meth:`access_many` counts a whole
    touch stream in one NumPy pass with the same outcome.
    """

    def __init__(self, slots: int, rng: np.random.Generator | None = None) -> None:
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        self.slots = slots
        self._hash = TwoUniversalHash(
            slots, rng if rng is not None else np.random.default_rng()
        )
        self._tags: list[int | None] = [None] * slots
        self.hits = 0
        self.misses = 0

    def access(self, page: int) -> bool:
        """Touch ``page``; return True on hit. Misses install the page."""
        slot = self._hash(page)
        if self._tags[slot] == page:
            self.hits += 1
            return True
        self._tags[slot] = page
        self.misses += 1
        return False

    def access_many(self, pages: Sequence[int] | np.ndarray) -> int:
        """Touch every page in order, as :meth:`access` would; return the hits.

        Each distinct page is hashed once (in Python ints: the 61-bit
        product overflows int64). Touches are stable-sorted by slot, so
        each slot's touches stay in stream order, and a touch hits when
        the slot's previous touch — or, for its first, the tag the slot
        held before the call — was the same page.
        """
        pages = np.asarray(pages, dtype=np.int64)
        n = len(pages)
        if n == 0:
            return 0
        distinct, inverse = np.unique(pages, return_inverse=True)
        slot_of = np.array([self._hash(p) for p in distinct.tolist()], dtype=np.int64)
        # the smallest unsigned type that holds a slot sorts by radix
        slots = slot_of[inverse].astype(np.min_scalar_type(self.slots - 1))
        order = np.argsort(slots, kind="stable")
        by_slot = slots[order]
        seq = pages[order]
        first = np.ones(n, dtype=bool)
        first[1:] = by_slot[1:] != by_slot[:-1]
        empty = int(distinct[0]) - 1  # no touched page carries this tag
        tags = np.array(
            [empty if tag is None else tag for tag in self._tags], dtype=np.int64
        )
        prev = np.empty(n, dtype=np.int64)
        prev[1:] = seq[:-1]
        prev[first] = tags[by_slot[first]]
        hits = int(np.count_nonzero(prev == seq))
        # every touched slot ends up holding its last touch's page
        last = np.empty(n, dtype=bool)
        last[:-1] = first[1:]
        last[-1] = True
        for slot, page in zip(by_slot[last].tolist(), seq[last].tolist()):
            self._tags[slot] = page
        self.hits += hits
        self.misses += n - hits
        return hits

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0


def simulate_fully_associative(
    trace: Sequence[int] | np.ndarray,
    capacity: int,
    replacement: str = "lru",
) -> tuple[int, int]:
    """(hits, misses) of a fully-associative cache over ``trace``."""
    if replacement == "lru":
        policy = LRUPolicy(capacity)
    elif replacement == "fifo":
        policy = FIFOReplacementPolicy(capacity)
    else:
        raise ValueError("replacement must be 'lru' or 'fifo'")
    hits = misses = 0
    residency = policy.residency
    for page in np.asarray(trace, dtype=np.int64).tolist():
        if page in residency:
            policy.touch(page)
            hits += 1
        else:
            misses += 1
            if len(residency) >= capacity:
                policy.evict()
            policy.insert(page)
    return hits, misses


@dataclass(frozen=True)
class TransformReport:
    """Accounting for one transformed-program replay (Lemma 1)."""

    original_hits: int
    original_misses: int
    transformed_accesses: int
    transformed_hits: int
    transformed_misses: int
    max_chain_length: int

    @property
    def miss_overhead(self) -> float:
        """Transformed misses per original miss (Lemma 1 claims O(1))."""
        if self.original_misses == 0:
            return 0.0
        return self.transformed_misses / self.original_misses

    @property
    def access_overhead(self) -> float:
        """Transformed accesses per original reference (Lemma 1: O(1))."""
        total = self.original_hits + self.original_misses
        return self.transformed_accesses / total if total else 0.0


class TransformedCacheSimulator:
    """Replay of the Lemma 1 transformed program on a direct-mapped cache.

    Layout of the simulated address space (all page-granular):

    * **metadata region** — hash-bucket heads and linked-list nodes,
      packed ``node_per_page`` to a page; every pointer chase is an
      access to the owning metadata page, which goes through the
      direct-mapped cache.
    * **program-data region** — k "Cache DRAM" pages in bijection with
      the logical cache slots; the user's data access lands on the slot
      page currently assigned to its user page.

    The direct-mapped cache is sized ``slack * k`` pages (the Theta(k)
    of the lemma; ``slack >= 2`` covers metadata + data).

    Touches are recorded in order and counted against the cache in
    batches (:meth:`DirectMappedCache.access_many`); reading
    :attr:`cache` counts any still pending, so its counters always
    match a per-touch replay.
    """

    #: references replayed between two batched counts, bounding the
    #: pending touch buffer (about a dozen touches per reference)
    SETTLE_EVERY = 1 << 16

    def __init__(
        self,
        capacity: int,
        replacement: str = "lru",
        slack: int = 4,
        nodes_per_page: int = 32,
        seed: int = 0,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if replacement not in ("lru", "fifo"):
            raise ValueError("replacement must be 'lru' or 'fifo'")
        if slack < 2:
            raise ValueError(f"slack must be >= 2, got {slack}")
        self.capacity = capacity
        self.replacement = replacement
        self.nodes_per_page = nodes_per_page
        rng = np.random.default_rng(seed)
        self._cache = DirectMappedCache(slack * capacity, rng=rng)
        self.hash = TwoUniversalHash(capacity, rng=rng)
        #: bucket of each user page seen so far (``self.hash`` memo)
        self._bucket_of: dict[int, int] = {}

        # hash table: bucket -> chain of nodes. Nodes double as the
        # linked-list entries (key, slot, chain-next, list-prev/next);
        # node ids are below capacity, and a free node has key None.
        self._buckets: list[int | None] = [None] * capacity
        self._node_key: list[int | None] = [None] * capacity
        self._node_slot: list[int] = [0] * capacity
        self._node_cnext: list[int | None] = [None] * capacity
        self._list_prev: list[int | None] = [None] * capacity
        self._list_next: list[int | None] = [None] * capacity
        self._list_front: int | None = None  # victim end
        self._list_back: int | None = None  # most-recent end
        self._free_slots = list(range(capacity - 1, -1, -1))
        self._next_node_id = 0
        self.max_chain = 0

        # address map: bucket-head pages first, then node pages, then
        # the k program-data pages, after a metadata region generously
        # sized for capacity nodes.
        meta_pages = -(-capacity // nodes_per_page)
        data_base = 2 * meta_pages + 1
        self._bucket_page = [b // nodes_per_page for b in range(capacity)]
        self._node_page = [meta_pages + n // nodes_per_page for n in range(capacity)]
        self._data_page = [data_base + slot for slot in range(capacity)]
        #: simulated-memory pages touched and not yet counted
        self._touches: list[int] = []
        self._touch = self._touches.append

    @property
    def cache(self) -> DirectMappedCache:
        """The direct-mapped cache, with every touch so far counted."""
        self._settle()
        return self._cache

    def _settle(self) -> None:
        if self._touches:
            self._cache.access_many(self._touches)
            self._touches.clear()

    def _bucket(self, page: int) -> int:
        bucket = self._bucket_of.get(page)
        if bucket is None:
            bucket = self._bucket_of[page] = self.hash(page)
        return bucket

    # -- hash table / list operations ---------------------------------------
    def _find(self, page: int, bucket: int) -> int | None:
        """Chain walk; returns node id or None. Touches every node read."""
        touch, node_page, key = self._touch, self._node_page, self._node_key
        touch(self._bucket_page[bucket])
        node = self._buckets[bucket]
        chain = 0
        while node is not None:
            chain += 1
            touch(node_page[node])
            if key[node] == page:
                break
            node = self._node_cnext[node]
        if chain > self.max_chain:
            self.max_chain = chain
        return node

    def _list_unlink(self, node: int) -> None:
        touch, node_page = self._touch, self._node_page
        prev, nxt = self._list_prev[node], self._list_next[node]
        touch(node_page[node])
        if prev is not None:
            touch(node_page[prev])
            self._list_next[prev] = nxt
        else:
            self._list_front = nxt
        if nxt is not None:
            touch(node_page[nxt])
            self._list_prev[nxt] = prev
        else:
            self._list_back = prev

    def _list_push_back(self, node: int) -> None:
        touch, node_page = self._touch, self._node_page
        back = self._list_back
        touch(node_page[node])
        self._list_prev[node] = back
        self._list_next[node] = None
        if back is not None:
            touch(node_page[back])
            self._list_next[back] = node
        else:
            self._list_front = node
        self._list_back = node

    def _chain_remove(self, page: int, node: int) -> None:
        bucket = self._bucket(page)
        self._touch(self._bucket_page[bucket])
        cur = self._buckets[bucket]
        cnext = self._node_cnext
        if cur == node:
            self._buckets[bucket] = cnext[node]
            return
        while cur is not None:
            self._touch(self._node_page[cur])
            nxt = cnext[cur]
            if nxt == node:
                cnext[cur] = cnext[node]
                return
            cur = nxt
        raise AssertionError("node missing from its chain")

    def _evict_front(self) -> int:
        """Evict the victim-end node; return the freed slot."""
        node = self._list_front
        assert node is not None, "evict on empty cache"
        self._touch(self._node_page[node])
        page, slot = self._node_key[node], self._node_slot[node]
        self._list_unlink(node)
        self._chain_remove(page, node)
        # copy data back from Cache DRAM address to user DRAM address
        self._touch(self._data_page[slot])
        self._node_key[node] = None
        return slot

    # -- public API ----------------------------------------------------------
    def access(self, page: int) -> bool:
        """One user reference; returns True if it was a simulated hit."""
        bucket = self._bucket(page)
        node = self._find(page, bucket)
        if node is not None:
            if self.replacement == "lru":
                self._list_unlink(node)
                self._list_push_back(node)
            self._touch(self._data_page[self._node_slot[node]])
            return True
        # miss: make room, assign a slot, insert into table and list
        if not self._free_slots:
            slot = self._evict_front()
        else:
            slot = self._free_slots.pop()
        node = self._next_node_id
        self._next_node_id += 1
        # reuse node ids modulo capacity so the metadata region stays Theta(k)
        node %= self.capacity
        while self._node_key[node] is not None:
            node = (node + 1) % self.capacity
        self._touch(self._bucket_page[bucket])
        self._touch(self._node_page[node])
        self._node_key[node] = page
        self._node_slot[node] = slot
        self._node_cnext[node] = self._buckets[bucket]
        self._buckets[bucket] = node
        self._list_push_back(node)
        # copy user DRAM -> Cache DRAM, then the access itself
        self._touch(self._data_page[slot])
        return False

    def replay(self, trace: Sequence[int] | np.ndarray) -> TransformReport:
        """Replay a trace and compare against the untransformed program."""
        orig_hits, orig_misses = simulate_fully_associative(
            trace, self.capacity, self.replacement
        )
        self.cache.reset_counters()
        sim_hits = 0
        pages = np.asarray(trace, dtype=np.int64).tolist()
        access = self.access
        for start in range(0, len(pages), self.SETTLE_EVERY):
            for page in pages[start : start + self.SETTLE_EVERY]:
                if access(page):
                    sim_hits += 1
            self._settle()
        sim_misses = len(pages) - sim_hits
        if (sim_hits, sim_misses) != (orig_hits, orig_misses):
            raise AssertionError(
                "transformed program's logical hit/miss sequence diverged "
                f"from the fully-associative original: {(sim_hits, sim_misses)} "
                f"vs {(orig_hits, orig_misses)}"
            )
        cache = self.cache
        return TransformReport(
            original_hits=orig_hits,
            original_misses=orig_misses,
            transformed_accesses=cache.hits + cache.misses,
            transformed_hits=cache.hits,
            transformed_misses=cache.misses,
            max_chain_length=self.max_chain,
        )


def transform_overhead(
    trace: Sequence[int] | np.ndarray,
    capacity: int,
    replacement: str = "lru",
    slack: int = 4,
    seed: int = 0,
) -> TransformReport:
    """Convenience wrapper: replay ``trace`` through the transformation."""
    sim = TransformedCacheSimulator(
        capacity, replacement=replacement, slack=slack, seed=seed
    )
    return sim.replay(trace)


def concurrent_front_insert(
    items: list[int],
    new_items: Sequence[int],
) -> tuple[list[int], int]:
    """Theorem 4's primitive: insert x items at the list front concurrently.

    Simulates the PRAM algorithm: each of the x processors obtains a
    unique rank via a binary prefix-sums tree (O(log x) steps), writes
    its item into the auxiliary array, links to its neighbours in O(1),
    and the mini-list is spliced onto the front in O(1).

    Returns the new list and the number of *parallel steps* consumed,
    which tests check is O(log x) + O(1).
    """
    x = len(new_items)
    if x == 0:
        return list(items), 0
    steps = 0
    # prefix-sums rank assignment: log2(x) rounds of pairwise combines
    width = 1
    ranks = list(range(x))  # the result the tree computes
    while width < x:
        width *= 2
        steps += 1  # one PRAM round per tree level
    aux = [None] * x
    for rank, item in zip(ranks, new_items):
        aux[rank] = item
    steps += 1  # concurrent writes into the auxiliary array
    steps += 1  # concurrent neighbour linking builds the mini-list
    steps += 1  # splice mini-list onto the master list front
    assert all(v is not None for v in aux), "rank assignment must be unique"
    return list(new_items) + list(items), steps
