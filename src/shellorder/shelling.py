"""Shelling-order verification and search, dual graphs, relabeling.

Facets are compared by vertex-set intersection.  KSubsets use their own
bitmasks; flag-vertex facets get their vertices interned into a
per-sequence bitmask universe, so one checker serves both alphabets.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Optional

from .core import (
    FacetSequence,
    FlagTuple,
    FlagVertexFacet,
    KSubset,
    LabeledGraph,
    PureComplex,
    _bits,
    _check_homogeneous,
    canonical_key,
)

# Facet masks whose ridge lists are kept; a fixed bound, so a long run
# of distinct facets does not grow the cache.
_RIDGE_CACHE_SIZE = 4096

# One facet's row of ``_append_tables``: a (ridge holders, vertex
# holders) pair of index bits per vertex.
_AppendRow = tuple[tuple[int, int], ...]


@dataclass(frozen=True, init=False)
class ShellingWitness:
    """Certificates (i, j, z), 1-indexed: position z < j glues facet j onto
    the earlier complex along a ridge covering its overlap with facet i.
    ``failing`` is the least (j, i) pair with no certificate, if any.

    Equality, hash and repr compare the fields ``holds``,
    ``certificates`` and ``failing``.  ``is_shelling_order`` builds the
    witness with ``_of_masks``, which keeps the facet masks and leaves
    ``certificates`` unset; the field is filled from the masks on its
    first read (by ``certificates``, ``==``, ``hash`` or ``repr``)."""

    __slots__ = ("holds", "certificates", "failing", "_masks")
    holds: bool
    certificates: tuple[tuple[int, int, int], ...]
    failing: Optional[tuple[int, int]]

    def __init__(
        self,
        holds: bool,
        certificates: tuple[tuple[int, int, int], ...],
        failing: Optional[tuple[int, int]] = None,
    ) -> None:
        if holds == (failing is not None):
            raise ValueError("failing pair must be present exactly on failure")
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "certificates", certificates)
        object.__setattr__(self, "failing", failing)

    @classmethod
    def _of_masks(
        cls, masks: list[int], k: int, failing: Optional[tuple[int, int]]
    ) -> "ShellingWitness":
        """The witness of the facet masks of a sequence whose verdict is
        already decided: ``failing`` must be its least failing pair."""
        witness = object.__new__(cls)
        object.__setattr__(witness, "holds", failing is None)
        object.__setattr__(witness, "failing", failing)
        object.__setattr__(witness, "_masks", (masks, k))
        return witness

    def __getattr__(self, name: str):
        # reached only when normal lookup fails: an unset certificates slot
        if name != "certificates":
            raise AttributeError(f"{type(self).__qualname__!r} object has no attribute {name!r}")
        certificates = _list_certificates(*self._masks)
        object.__setattr__(self, "certificates", certificates)
        return certificates

    def __bool__(self) -> bool:
        return self.holds

    def __reduce__(self):
        return ShellingWitness, (self.holds, self.certificates, self.failing)


@functools.lru_cache(maxsize=_RIDGE_CACHE_SIZE)
def _ridges(mask: int) -> tuple[int, ...]:
    """The ridges of the facet ``mask``: the mask minus one vertex bit,
    for each of its bits in ascending order."""
    out = []
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        out.append(mask ^ low)
    return tuple(out)


def facet_masks(items: tuple) -> tuple[list[int], int]:
    """Bitmask encodings of set-like facets plus the common facet size."""
    first = items[0]
    if isinstance(first, KSubset):
        return [f.mask for f in items], len(first.members)
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

    Restriction-face form (Björner, *Topological methods*, Handbook of
    Combinatorics, 1995, §11): let R_j be the set of vertices v of F_j
    whose ridge F_j - v lies in an earlier facet.  F_j glues onto the
    earlier complex iff no earlier F_i contains R_j, and a pair (i, j)
    with R_j inside F_i is exactly a pair with no certificate.  The
    ridges placed so far are kept in a set, and each vertex keeps the
    bits of the positions holding it, so R_j costs k set lookups and the
    earlier facets containing it are the AND of its vertices' position
    bits below j; the lowest bit is the least failing i, and the first
    such j stops the scan.  O(h·k) set and mask steps for h k-facets.

    The certificates are not needed for the verdict: the witness lists
    them (O(h^2 k)) on their first read.
    """
    masks, k = facet_masks(seq.items)
    held: set[int] = set()  # the ridges of the facets placed so far
    holders: dict[int, int] = {}  # vertex bit -> bits of the positions holding it
    get = holders.get
    for j, mask in enumerate(masks):
        bit = 1 << j
        meet = bit - 1  # the earlier positions holding every vertex of R_j
        own = _ridges(mask)
        for ridge in own:
            v = mask ^ ridge
            positions = get(v, 0)
            if ridge in held:
                meet &= positions
            holders[v] = positions | bit
        if meet:
            return ShellingWitness._of_masks(
                masks, k, ((meet & -meet).bit_length(), j + 1)
            )
        held.update(own)
    return ShellingWitness._of_masks(masks, k, None)


def _list_certificates(masks: list[int], k: int) -> tuple[tuple[int, int, int], ...]:
    """The certificates of ``is_shelling_order``, up to its failing pair.

    Ridge-vertex form: a ridge of F_j is an earlier facet F_z meeting it
    in k - 1 vertices, so it misses exactly one vertex of F_j.  Per j,
    the latest ridge missing each vertex is recorded.  F_j glues onto
    F_i's overlap along F_z iff F_z misses a vertex of F_j outside F_i,
    so the certificate z for (i, j) is the latest recorded ridge over the
    vertices of F_j minus F_i.  The first pair with none stops the list.
    O(h^2 k) mask operations.
    """
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
                return tuple(certs)
    return tuple(certs)


def _append_tables(masks: list[int]) -> list[_AppendRow]:
    """The restriction-face table of every facet of a universe, the rows
    that ``_append_ok`` reads: row t has one pair per vertex v of
    ``masks[t]``, ascending, of the index bits of the facets holding the
    ridge ``masks[t] - v`` and of the facets holding v.

    Both masks include t itself, which is never placed when t is tested,
    so the rows of the whole universe share one holder mask per ridge and
    per vertex.  O(h·k) dictionary steps with the ``_ridges`` cache.
    """
    ridge_holders: dict[int, int] = {}
    vertex_holders: dict[int, int] = {}
    for t, mask in enumerate(masks):
        bit = 1 << t
        for ridge in _ridges(mask):
            ridge_holders[ridge] = ridge_holders.get(ridge, 0) | bit
            v = mask ^ ridge
            vertex_holders[v] = vertex_holders.get(v, 0) | bit
    return [
        tuple((ridge_holders[ridge], vertex_holders[mask ^ ridge]) for ridge in _ridges(mask))
        for mask in masks
    ]


def _append_ok(used: int, row: _AppendRow) -> bool:
    """Whether the facet with table row ``row`` (``_append_tables``) glues
    onto the placed facets, the index bits of ``used``, which must not
    hold its own index.

    The restriction-face test of ``is_shelling_order`` for one new facet
    F_j: a vertex v is in R_j iff some placed facet holds the ridge
    F_j - v, and the placed facets containing R_j are ``used`` ANDed with
    the holders of each v in R_j.  F_j glues iff there are none: k steps,
    however many facets are placed.
    """
    meet = used
    for ridge_holders, column in row:
        if ridge_holders & used:
            meet &= column
    return not meet


def _walk_orders(
    below: list[int], tables: Optional[list[_AppendRow]] = None
) -> Iterator[list[int]]:
    """Depth-first walk over the orders of indices 0..h-1 that place every
    index after all of its below-mask, candidates tried in ascending index.
    Yields each full order as the walker's own list: copy it before
    resuming.  The stack is explicit, so h is not bounded by the
    recursion limit.

    With the tables of ``_append_tables``, a candidate must also pass
    ``_append_ok`` against the facets already placed.  That test depends
    only on the set already placed, so whether a prefix completes depends
    only on its set: the walk remembers each set whose subtree gave no
    full order and never enters it again, so it visits at most 2^h dead
    sets.  Without tables every placed set completes.
    """
    h = len(below)
    order: list[int] = []
    found: list[int] = []  # full orders yielded when each placed index went in
    dead: set[int] = set()
    complete = used = t = 0
    while True:
        while t < h:  # the next candidate at this depth, from t on
            bit = 1 << t
            if (
                not used & bit
                and not below[t] & ~used
                and used | bit not in dead
                and (tables is None or _append_ok(used, tables[t]))
            ):
                break
            t += 1
        else:  # none left: backtrack and resume after the last placed
            if not order:
                return
            if found.pop() == complete:
                dead.add(used)
            t = order.pop()
            used ^= 1 << t
            t += 1
            continue
        order.append(t)
        used |= bit
        found.append(complete)
        if len(order) < h:
            t = 0
        else:
            complete += 1
            yield order
            t = h  # exhausted: backtrack


def _tally_orders(
    below: list[int], tables: list[_AppendRow], full: int
) -> tuple[int, int, Optional[list[int]]]:
    """``(checks, rejections, first rejected prefix or None)`` of the
    orders of the indices in the mask ``full`` (rows of a larger universe
    are read on ``full`` only) with ``_append_ok`` on the universe's
    ``tables`` checked at every append, without listing the orders: one
    check per full order and one per rejected prefix (ending in the
    rejected candidate, whose branch is pruned).

    The walk below a prefix depends only on its set U, an order ideal, so
    one forward pass over the ideals, level by level, gives every count:
    with f(U) the number of accepted paths from the empty set to U, each
    candidate t of U is tested once; an accepted t adds f(U) to
    f(U + t) and a rejected one adds f(U) rejections.  The checks are
    f(full) plus the rejections.  When there are rejections, a
    depth-first descent in ascending index, over the accepted moves and
    skipping ideals already found clean, meets the first rejected prefix
    in the walk's visit order; it recurses once per placed index, so at
    most the family size deep.  The work is one ``_append_ok`` per
    candidate of each ideal reached.
    """
    rows = [(t, 1 << t, below[t], tables[t]) for t in _bits(full)]
    paths = {0: 1}  # f over the ideals of one level
    rejected: dict[int, int] = {}  # ideal -> bits of its rejected candidates
    rejections = 0
    for _ in rows:
        grown: dict[int, int] = {}
        for used, count in paths.items():
            rest = full ^ used
            for t, bit, need, row in rows:
                if rest & bit and not need & rest:
                    if _append_ok(used, row):
                        up = used | bit
                        grown[up] = grown.get(up, 0) + count
                    else:
                        rejections += count
                        rejected[used] = rejected.get(used, 0) | bit
        paths = grown
    checks = paths.get(full, 0) + rejections
    if not rejections:
        return checks, 0, None
    clean: set[int] = set()

    def descend(used: int) -> Optional[list[int]]:  # reversed, from used on
        rest = full ^ used
        for t, bit, need, _ in rows:
            if rest & bit and not need & rest:
                if rejected.get(used, 0) & bit:
                    return [t]
                if used | bit not in clean:
                    tail = descend(used | bit)
                    if tail is not None:
                        tail.append(t)
                        return tail
        clean.add(used)
        return None

    return checks, rejections, descend(0)[::-1]


def shelling_orders(complex_: PureComplex) -> Iterator[FacetSequence]:
    """Every shelling order of the complex, candidates in canonical order.

    Prefix pruning is sound: a prefix of a shelling order is a shelling
    order of its support, since the condition at j only mentions z < j.

    The facets are checked once, as ``FacetSequence`` checks a sequence
    (one alphabet, universe and size), and each order is wrapped without
    a second check.  A repeated facet is never appended after itself, so
    a facet list with a repeat has no orders.
    """
    facets = sorted(complex_, key=canonical_key)
    if not facets:
        raise ValueError("empty complex has no facet orders")
    masks, _ = facet_masks(tuple(facets))
    _check_homogeneous(facets, "sequence")
    return (
        FacetSequence._trusted(tuple(facets[t] for t in order))
        for order in _walk_orders([0] * len(facets), _append_tables(masks))
    )


def find_shelling_order(complex_: PureComplex) -> Optional[FacetSequence]:
    """The first of ``shelling_orders`` (canonical candidate order), or None."""
    return next(shelling_orders(complex_), None)


def dual_graph(seq: FacetSequence) -> LabeledGraph:
    """Positions i, j are adjacent iff the facets share all but one vertex.

    Up to 8k facets the graph is its facet masks (``LabeledGraph._of_masks``):
    ``has_edge`` and ``promotion.track`` read them, and the pair scan's
    h(h - 1)/2 popcounts fill the rows only when they are read.  Timed
    per graph on prefixes of grown and random k-subset sequences, that
    scan and the ridge table break even near h = 13 for k = 2, 21–24 for
    k = 3, 29–39 for k = 4 and 41–49 for k = 5: about 7k–10k.

    Past 8k facets the rows are built at once (``LabeledGraph._of_rows``)
    in ridge-incidence form: two distinct k-facets are adjacent iff they
    contain a common (k - 1)-ridge (their intersection).  A first pass
    ORs each position's bit into the holder mask of each of its k ridges
    (its mask minus one vertex bit); row j is then the OR of the holder
    masks of j's k ridges, minus bit j.  O(h·k) dictionary steps and
    big-int ORs for h facets, however many edges there are.  With k = 1
    every facet holds the empty ridge (all pairs adjacent); with k = 0
    the one facet has no ridge.
    """
    masks, k = facet_masks(seq.items)
    h = len(masks)
    if h <= 8 * k:
        return LabeledGraph._of_masks(h, masks, k)
    rows = [0] * (h + 1)
    holders: dict[int, int] = {}  # ridge mask -> bits of the positions holding it
    get = holders.get
    ridges: list[tuple[int, ...]] = []  # the ridge masks of each position
    for j, mask in enumerate(masks, 1):
        bit = 1 << j
        own = _ridges(mask)
        for ridge in own:
            holders[ridge] = get(ridge, 0) | bit
        ridges.append(own)
    for j, own in enumerate(ridges, 1):
        row = 0
        for ridge in own:
            row |= holders[ridge]
        rows[j] = row & ~(1 << j)
    return LabeledGraph._of_rows(h, rows)


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

    A relabeling sigma does so iff, for every vertex v, the positions
    holding v in a are the positions holding sigma(v) in b.  So a and b
    are isomorphic iff their lists of per-vertex position masks, one mask
    per vertex of the universe, are equal once sorted.  Sequences of other
    universes, lengths or facet sizes give different lists.  O(h·k) steps
    for h k-facets, plus the sort of n masks; n is not bounded.
    """
    if not isinstance(a.items[0], KSubset) or not isinstance(b.items[0], KSubset):
        raise TypeError("isomorphism is defined for KSubset facets")
    return _vertex_positions(a) == _vertex_positions(b)


def _vertex_positions(seq: FacetSequence) -> list[int]:
    """The bits of the positions holding each vertex, sorted."""
    held = [0] * seq.items[0].n
    for p, f in enumerate(seq.items):
        for v in f.members:
            held[v - 1] |= 1 << p
    return sorted(held)
