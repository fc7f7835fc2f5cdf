"""Session-scoped fixtures shared by the acceptance suite.

The expensive artifact is the exhaustive sweep over every bipartite digraph
on at most six labeled vertices.  Color-swapped twins carry identical edge
sets, so the sweep walks one coloring per complement pair; recognized graphs
are recorded once per distinct (n, edge-set) pair together with the first
coloring that produced them.

The sweep is the helpers' ``pruned_mask_sweep`` with
``keep=is_qbmg_masks_delta``, the kernel that tests only the tuples through
the newest vertex.  Its precondition, that the prefix without that vertex
passes, holds at every call: the sweep calls ``keep`` only at vertex
boundaries, each after the previous boundary's call accepted, and the
vertices before the first boundary have no opposite-color vertex before
them, so they form an edgeless monochromatic prefix.  A rejected prefix
with r pairs still unset stands for its 4^r completions, which are all
counted, so ``total_graphs`` still counts every graph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import pytest

from helpers import (
    adj_masks_from_out,
    in_masks_from_out,
    is_qbmg_masks_delta,
    masks_connected,
    pruned_mask_sweep,
    symmetric_pairs_and_star,
)
from qbmg.enumeration import halved_colorings, opposite_pairs

SWEEP_MAX_N = 6


@dataclass(frozen=True)
class SweepRecord:
    """One recognized edge set.  The mask views below are computed on first
    read and kept, so the tests that read them share one computation; they
    are tuples, so no test can change what another reads.  No ``Digraph`` is
    kept: a test builds its own, so it never reads a view another test
    stored on it."""

    n: int
    out: tuple[int, ...]
    colors: tuple[int, ...]

    @cached_property
    def inn(self) -> tuple[int, ...]:
        return tuple(in_masks_from_out(self.n, self.out))

    @cached_property
    def adj(self) -> tuple[int, ...]:
        return tuple(adj_masks_from_out(self.n, self.out))

    @cached_property
    def pairs_and_star(self) -> tuple[tuple[tuple[int, int], ...], bool]:
        """The symmetric pairs (u, v), u < v, and the star condition."""
        pairs, star = symmetric_pairs_and_star(self.n, self.out)
        return tuple(pairs), star

    @cached_property
    def connected(self) -> bool:
        return masks_connected(self.n, self.adj)


@dataclass(frozen=True)
class SweepData:
    total_graphs: int
    recognized_labeled: int
    records: tuple[SweepRecord, ...]  # one per distinct recognized edge set
    elapsed_seconds: float

    def by_n(self, *sizes: int) -> list[SweepRecord]:
        wanted = set(sizes)
        return [r for r in self.records if r.n in wanted]


@pytest.fixture(scope="session")
def sweep() -> SweepData:
    started = time.monotonic()
    total = 0
    recognized = 0
    distinct: dict[tuple[int, tuple[int, ...]], tuple[int, ...]] = {}
    for n in range(1, SWEEP_MAX_N + 1):
        for colors in halved_colorings(n):
            # unset[m]: the pairs still unset when keep tests m vertices
            pairs = opposite_pairs(colors)
            unset = [sum(v >= m for _, v in pairs) for m in range(n + 1)]

            def keep(m, out, inn, unset=unset):
                nonlocal total
                if is_qbmg_masks_delta(m, out, inn):
                    return True
                total += 4 ** unset[m]
                return False

            def visit(out, inn, n=n, colors=colors):
                nonlocal recognized
                recognized += 1
                distinct.setdefault((n, tuple(out)), colors)

            # keep adds to total during the sweep, so add the return value after it
            visited = pruned_mask_sweep(colors, visit, keep)
            total += visited
    records = tuple(
        SweepRecord(n, out, colors) for (n, out), colors in distinct.items()
    )
    return SweepData(total, recognized, records, time.monotonic() - started)
