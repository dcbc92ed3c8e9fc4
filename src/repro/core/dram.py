"""DRAM bank / row-buffer organization for FR-FCFS arbitration.

The paper (section 1.3) notes that real controllers — including,
likely, KNL's MCDRAM-miss path — arbitrate with *first-ready
first-come-first-served* (FR-FCFS [49]): among waiting requests, those
that hit a bank's currently open row ("ready" requests) are served
before older requests that would need a row activation, and ties break
by age. Much of the literature the paper cites ([32], [38]) optimizes
this basic policy.

The HBM+DRAM model has no timing distinction between row hits and row
misses (every far-channel transfer costs one tick), but FR-FCFS still
*reorders* the queue, and reordering is exactly what the paper shows
matters. This module supplies the minimal DRAM geometry needed to
express that reordering: pages map to (bank, row) by simple
interleaving, and each bank tracks its open row.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DramGeometry", "BankState"]


@dataclass(frozen=True)
class DramGeometry:
    """Page-to-(bank, row) mapping.

    Consecutive pages interleave across ``banks`` (the standard layout,
    so streams spread load), and ``row_pages`` consecutive
    same-bank pages share a row. Defaults follow a DDR4-ish shape:
    16 banks, 8KiB rows of 4KiB pages -> 2 pages per row is tiny, so we
    default to a coarser 8 pages per row to make row locality visible
    at page granularity.
    """

    banks: int = 16
    row_pages: int = 8

    def __post_init__(self) -> None:
        if self.banks < 1:
            raise ValueError(f"banks must be >= 1, got {self.banks}")
        if self.row_pages < 1:
            raise ValueError(f"row_pages must be >= 1, got {self.row_pages}")

    def bank_of(self, page: int) -> int:
        return page % self.banks

    def row_of(self, page: int) -> int:
        return (page // self.banks) // self.row_pages

    def __copy__(self) -> "DramGeometry":
        return self  # frozen: a copy would be equal and immutable


class BankState:
    """Open-row tracking across all banks of a :class:`DramGeometry`."""

    def __init__(self, geometry: DramGeometry) -> None:
        self.geometry = geometry
        self._open_rows: dict[int, int] = {}

    def __copy__(self) -> "BankState":
        copied = BankState(self.geometry)
        copied._open_rows.update(self._open_rows)
        return copied

    def is_row_hit(self, page: int) -> bool:
        """Would ``page`` hit its bank's currently open row?"""
        bank = self.geometry.bank_of(page)
        return self._open_rows.get(bank) == self.geometry.row_of(page)

    def access(self, page: int) -> bool:
        """Serve ``page``: returns row-hit status and opens its row."""
        geometry = self.geometry
        bank = geometry.bank_of(page)
        row = geometry.row_of(page)
        hit = self._open_rows.get(bank) == row
        self._open_rows[bank] = row
        return hit

    def open_row(self, bank: int) -> int | None:
        return self._open_rows.get(bank)

    def reset(self) -> None:
        self._open_rows.clear()
