"""The simulated database: pages and their disk homes.

Every page has a permanent disk-resident copy at exactly one node, its
*home* (§3).  Homes are assigned round-robin (§7.1).
"""

from __future__ import annotations


class Database:
    """A set of ``num_pages`` pages of ``page_size`` bytes each."""

    def __init__(self, num_pages: int, page_size: int, num_nodes: int):
        if num_pages < 1:
            raise ValueError("need at least one page")
        if num_nodes < 1:
            raise ValueError("need at least one node")
        self.num_pages = num_pages
        self.page_size = page_size
        self.num_nodes = num_nodes

    def home(self, page_id: int) -> int:
        """Node id holding the disk-resident copy of ``page_id``."""
        self._check(page_id)
        return page_id % self.num_nodes

    def _check(self, page_id: int) -> None:
        if not 0 <= page_id < self.num_pages:
            raise ValueError(
                f"page {page_id} outside database [0, {self.num_pages})"
            )
