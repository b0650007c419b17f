"""Shelling-order verification and search, dual graphs, relabeling.

Facets are compared by vertex-set intersection.  KSubsets use their own
bitmasks; flag-vertex facets get their vertices interned into a
per-sequence bitmask universe, so one checker serves both alphabets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .core import (
    FacetSequence,
    FlagTuple,
    FlagVertexFacet,
    KSubset,
    LabeledGraph,
    PureComplex,
    canonical_key,
)


@dataclass(frozen=True)
class ShellingWitness:
    """Certificates (i, j, z), 1-indexed: position z < j glues facet j onto
    the earlier complex along a ridge covering its overlap with facet i.
    ``failing`` is the least (j, i) pair with no certificate, if any."""

    holds: bool
    certificates: tuple[tuple[int, int, int], ...]
    failing: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.holds == (self.failing is not None):
            raise ValueError("failing pair must be present exactly on failure")

    def __bool__(self) -> bool:
        return self.holds


def facet_masks(items: tuple) -> tuple[list[int], int]:
    """Bitmask encodings of set-like facets plus the common facet size."""
    first = items[0]
    if isinstance(first, KSubset):
        return [f.mask for f in items], len(first)
    if isinstance(first, FlagVertexFacet):
        index: dict[KSubset, int] = {}
        masks = []
        for f in items:
            m = 0
            for v in f:
                m |= 1 << index.setdefault(v, len(index))
            masks.append(m)
        return masks, len(first)
    raise TypeError(
        f"facets must be vertex sets (KSubset or FlagVertexFacet), got {type(first).__name__}"
    )


def is_shelling_order(seq: FacetSequence) -> ShellingWitness:
    """Check the gluing condition for every pair i < j.

    Ridge-vertex form: a ridge of F_j is an earlier facet F_z meeting it
    in k - 1 vertices, so it misses exactly one vertex of F_j.  Per j,
    the latest ridge missing each vertex is recorded.  F_j glues onto
    F_i's overlap along F_z iff F_z misses a vertex of F_j outside F_i,
    so the certificate z for (i, j) is the latest recorded ridge over the
    vertices of F_j minus F_i.  The first failure (least j, then least i)
    stops the scan.  O(h^2 k) mask operations.
    """
    masks, k = facet_masks(seq.items)
    h = len(masks)
    certs: list[tuple[int, int, int]] = []
    for j in range(1, h):
        bj = masks[j]
        ridges: list[tuple[int, int]] = []  # (missed vertex bit, z), latest first
        seen = 0
        for z in range(j - 1, -1, -1):
            missed = bj & ~masks[z]
            if missed.bit_count() == 1 and not seen & missed:
                seen |= missed
                ridges.append((missed, z))
                if len(ridges) == k:
                    break
        for i in range(j):
            outside = bj & ~masks[i]
            for missed, z in ridges:
                if outside & missed:
                    certs.append((i + 1, j + 1, z + 1))
                    break
            else:
                return ShellingWitness(False, tuple(certs), (i + 1, j + 1))
    return ShellingWitness(True, tuple(certs), None)


def _append_ok(placed: list[int], cand: int, k: int) -> bool:
    # Ridge-vertex form of is_shelling_order's test for one new facet:
    # every earlier facet must miss a vertex of cand that some ridge misses.
    if not placed:
        return True
    ridge_missed = 0
    for m in placed:
        inter = m & cand
        if inter.bit_count() == k - 1:
            ridge_missed |= cand & ~inter
    for m in placed:
        if not cand & ~m & ridge_missed:
            return False
    return True


def _walk_orders(
    below: list[int], masks: Optional[list[int]] = None, k: int = 0
) -> Iterator[tuple[list[int], bool]]:
    """Depth-first walk over the orders of indices 0..h-1 that place every
    index after all of its below-mask, candidates tried in ascending index.

    With facet masks, a candidate must also pass ``_append_ok`` against
    the facets already placed.  Yields ``(order, True)`` for each full
    order and ``(prefix, False)`` for each rejected prefix (ending in the
    rejected candidate), whose branch is pruned.  A full order is the
    walker's own list: copy it before resuming.  The stack is explicit,
    so h is not bounded by the recursion limit.
    """
    h = len(below)
    order: list[int] = []
    placed: list[int] = []
    used = t = 0
    while True:
        while t < h:  # the next candidate at this depth, from t on
            bit = 1 << t
            if not used & bit and not below[t] & ~used:
                if masks is None or _append_ok(placed, masks[t], k):
                    break
                yield order + [t], False
            t += 1
        else:  # none left: backtrack and resume after the last placed
            if not order:
                return
            t = order.pop()
            used ^= 1 << t
            if masks is not None:
                placed.pop()
            t += 1
            continue
        order.append(t)
        used |= bit
        if masks is not None:
            placed.append(masks[t])
        if len(order) < h:
            t = 0
        else:
            yield order, True
            t = h  # exhausted: backtrack


def shelling_orders(complex_: PureComplex) -> Iterator[FacetSequence]:
    """Every shelling order of the complex, candidates in canonical order.

    Prefix pruning is sound: a prefix of a shelling order is a shelling
    order of its support, since the condition at j only mentions z < j.
    """
    facets = sorted(complex_, key=canonical_key)
    if not facets:
        raise ValueError("empty complex has no facet orders")
    masks, k = facet_masks(tuple(facets))
    return (
        FacetSequence(tuple(facets[t] for t in order))
        for order, ok in _walk_orders([0] * len(facets), masks, k)
        if ok
    )


def find_shelling_order(complex_: PureComplex) -> Optional[FacetSequence]:
    """The first of ``shelling_orders`` (canonical candidate order), or None."""
    return next(shelling_orders(complex_), None)


def dual_graph(seq: FacetSequence) -> LabeledGraph:
    """Positions i, j are adjacent iff the facets share all but one vertex."""
    masks, k = facet_masks(seq.items)
    h = len(masks)
    edges = {
        (i + 1, j + 1)
        for i in range(h)
        for j in range(i + 1, h)
        if (masks[i] & masks[j]).bit_count() == k - 1
    }
    return LabeledGraph(h, frozenset(edges))


def relabel(sigma: FlagTuple, seq: FacetSequence) -> FacetSequence:
    """Rename every vertex through the permutation sigma, re-sorting facets."""
    if not sigma.is_permutation():
        raise ValueError("sigma must be a full permutation")
    if not isinstance(seq.items[0], KSubset):
        raise TypeError("relabeling is defined for KSubset facets")
    if sigma.n != seq.items[0].n:
        raise ValueError("sigma acts on a different universe")
    return FacetSequence(
        tuple(KSubset(f.n, tuple(sigma(v) for v in f.members)) for f in seq.items)
    )


def are_isomorphic(a: FacetSequence, b: FacetSequence) -> bool:
    """True iff some relabeling carries a onto b position by position.

    Exhaustive sweep of S_n; n <= 8 is enforced.
    """
    if not isinstance(a.items[0], KSubset) or not isinstance(b.items[0], KSubset):
        raise TypeError("isomorphism is defined for KSubset facets")
    first_a, first_b = a.items[0], b.items[0]
    if first_a.n != first_b.n or len(a) != len(b) or len(first_a) != len(first_b):
        raise ValueError("sequences have mismatched shapes")
    n = first_a.n
    if n > 8:
        raise ValueError(f"relabeling sweep requires n <= 8, got n = {n}")
    targets = [f.members for f in b.items]
    sources = [f.members for f in a.items]
    for w in itertools.permutations(range(1, n + 1)):
        if all(
            tuple(sorted(w[v - 1] for v in src)) == tgt
            for src, tgt in zip(sources, targets)
        ):
            return True
    return False
