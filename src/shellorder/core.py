"""Immutable value types shared by every module.

Three facet alphabets appear throughout: ``KSubset`` (a k-element subset
of {1, ..., n}, kept sorted), ``FlagTuple`` (a tuple of k distinct values
of {1, ..., n}, order significant), and ``FlagVertexFacet`` (a nested
chain of KSubsets, the facet alphabet of flag complexes).  ``PureComplex``
and ``FacetSequence`` are thin containers enforcing pure dimension and
distinctness.  Positions in graphs, witnesses and position permutations
are 1-indexed; plain Python indexing of sequence items stays 0-indexed.

Universe sizes are capped at 64 so that facet intersection cardinality
reduces to constant-time bitmask arithmetic.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import FrozenInstanceError, dataclass, field
from typing import Iterable, Iterator

MAX_UNIVERSE = 64

# Facet masks whose ridge lists are kept; a fixed bound, so a long run
# of distinct facets does not grow the cache.
_RIDGE_CACHE_SIZE = 4096


class UniverseTooLargeError(ValueError):
    """Universe size exceeds the 64-bit facet mask bound."""


def _check_universe(n: int) -> None:
    if n < 1:
        raise ValueError(f"universe size must be a positive integer, got {n!r}")
    if n > MAX_UNIVERSE:
        raise UniverseTooLargeError(
            f"universe size {n} exceeds the supported bound of {MAX_UNIVERSE}"
        )


def _value_type(cls: type) -> type:
    """``dataclass(frozen=True, slots=True)``, with a ``__setattr__`` and
    ``__delattr__`` that raise ``FrozenInstanceError`` for every name.

    ``slots=True`` builds a copy of the class, and on CPython 3.10 to
    3.13 the frozen methods it keeps fall through to ``super()`` with
    the original class for a name that is not a field, which raises
    TypeError instead."""
    cls = dataclass(frozen=True, slots=True)(cls)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    cls.__setattr__ = __setattr__
    cls.__delattr__ = __delattr__
    return cls


@_value_type
class KSubset:
    """A subset of {1, ..., n}; members are canonicalized to sorted order.

    The empty subset is permitted as the single rank-0 element.
    """

    n: int
    members: tuple[int, ...]
    mask: int = field(init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        # equal subsets have equal masks; the generated hash would build
        # the (n, members) tuple on every call
        return self.mask

    def __post_init__(self) -> None:
        _check_universe(self.n)
        members = tuple(sorted(self.members))
        if len(set(members)) != len(members):
            least = next(a for a, b in zip(members, members[1:]) if a == b)
            raise ValueError(f"duplicate member {least}")
        if members and (members[0] < 1 or members[-1] > self.n):
            raise ValueError(f"members {members} not within [{self.n}]")
        _set_members(self, members)
        mask = 0
        for v in members:
            mask |= 1 << (v - 1)
        _set_mask(self, mask)

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "KSubset":
        return cls(n, tuple(v for v in range(1, n + 1) if mask >> (v - 1) & 1))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)


@_value_type
class ExchangeWitness:
    """A failed exchange: no partner in second for ``element`` of first."""

    first: KSubset
    second: KSubset
    element: int


@_value_type
class MatroidVerdict:
    """The verdict of an exchange axiom: its witness is the first failed
    exchange, present exactly when the axiom fails."""

    holds: bool
    witness: ExchangeWitness | None = None

    def __post_init__(self) -> None:
        if self.holds == (self.witness is not None):
            raise ValueError("witness must be present exactly when the axiom fails")

    def __bool__(self) -> bool:
        return self.holds


@_value_type
class FlagTuple:
    """A tuple of pairwise distinct values of {1, ..., n}; order matters.

    With k = n this is a permutation in one-line notation, and calling the
    value applies it: ``FlagTuple(3, (2, 1, 3))(1) == 2``.
    """

    n: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_universe(self.n)
        entries = tuple(self.entries)
        if not 1 <= len(entries) <= self.n:
            raise ValueError(f"tuple length {len(entries)} not within [1, {self.n}]")
        if len(set(entries)) != len(entries):
            raise ValueError(f"entries {entries} contain a repeat")
        if min(entries) < 1 or max(entries) > self.n:
            raise ValueError(f"entries {entries} not within [{self.n}]")
        _set_entries(self, entries)

    @classmethod
    def _trusted(cls, n: int, entries: tuple) -> "FlagTuple":
        """Wrap ``entries`` without re-validating them; the slot setters
        ``_set_tuple_n`` and ``_set_entries`` write the fields.

        Only for a tuple of distinct values of [n] known as such: an
        ordering of a validated ``KSubset``'s members (``barycentric``)."""
        y = object.__new__(cls)
        _set_tuple_n(y, n)
        _set_entries(y, entries)
        return y

    def is_permutation(self) -> bool:
        return len(self.entries) == self.n

    def __call__(self, v: int) -> int:
        if not self.is_permutation():
            raise ValueError("only full permutations act on values")
        return self.entries[v - 1]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)


@_value_type
class FlagVertexFacet:
    """A facet of a flag complex: a nested chain of KSubsets of sizes 1..k."""

    vertices: frozenset[KSubset]

    def __post_init__(self) -> None:
        vertices = frozenset(self.vertices)
        if not vertices:
            raise ValueError("flag facet needs at least one vertex")
        chain = sorted(vertices, key=len)
        if [len(v) for v in chain] != list(range(1, len(chain) + 1)):
            raise ValueError("vertex cardinalities must be exactly 1..k")
        if len({v.n for v in chain}) != 1:
            raise ValueError("vertices drawn from different universes")
        for small, big in zip(chain, chain[1:]):
            if small.mask & ~big.mask:
                raise ValueError(f"{small.members} not nested in {big.members}")
        _set_vertices(self, vertices)

    @property
    def n(self) -> int:
        return next(iter(self.vertices)).n

    def chain(self) -> tuple[KSubset, ...]:
        return tuple(sorted(self.vertices, key=len))

    def __repr__(self) -> str:
        # the vertices in chain order: the frozenset's own repr follows its
        # table order, which a pickle round trip can change
        vertices = ", ".join(map(repr, self.chain()))
        return f"FlagVertexFacet(vertices=frozenset({{{vertices}}}))"

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self) -> Iterator[KSubset]:
        return iter(self.chain())


Facet = KSubset | FlagTuple | FlagVertexFacet


def canonical_key(facet: Facet):
    """Deterministic sort key; comparable within one facet alphabet."""
    if isinstance(facet, KSubset):
        return (len(facet.members), facet.members)
    if isinstance(facet, FlagTuple):
        return (len(facet.entries), facet.entries)
    if isinstance(facet, FlagVertexFacet):
        return tuple(v.members for v in facet.chain())
    raise TypeError(f"not a facet: {facet!r}")


def _check_homogeneous(facets: Iterable[Facet], what: str) -> None:
    facets = list(facets)
    first = facets[0]
    if not isinstance(first, (KSubset, FlagTuple, FlagVertexFacet)):
        raise TypeError(f"not a facet: {first!r}")
    for f in facets[1:]:
        if type(f) is not type(first):
            raise TypeError(f"{what} mixes facet alphabets")
        if f.n != first.n or len(f) != len(first):
            raise ValueError(f"{what} mixes universes or facet sizes")


@_value_type
class PureComplex:
    """A finite set of equal-size facets over one vertex universe."""

    facets: frozenset

    def __post_init__(self) -> None:
        facets = frozenset(self.facets)
        if facets:
            _check_homogeneous(facets, "complex")
        _set_facets(self, facets)

    @classmethod
    def of(cls, facets: Iterable[Facet]) -> "PureComplex":
        return cls(frozenset(facets))

    @classmethod
    def _trusted(cls, facets: frozenset) -> "PureComplex":
        """Wrap ``facets`` without re-validating them; the slot setter
        ``_set_facets`` writes the field.

        Only for a frozenset of facets of one alphabet, universe and size,
        checked as they were built (``cli.parse_input`` checks each line)."""
        complex_ = object.__new__(cls)
        _set_facets(complex_, facets)
        return complex_

    def __len__(self) -> int:
        return len(self.facets)

    def __iter__(self) -> Iterator[Facet]:
        return iter(sorted(self.facets, key=canonical_key))

    def __contains__(self, facet: object) -> bool:
        return facet in self.facets


@_value_type
class FacetSequence:
    """An ordered, duplicate-free, nonempty tuple of equal-size facets."""

    items: tuple

    def __post_init__(self) -> None:
        items = tuple(self.items)
        if not items:
            raise ValueError("facet sequence must be nonempty")
        if len(set(items)) != len(items):
            raise ValueError("facet sequence repeats a facet")
        _check_homogeneous(items, "sequence")
        _set_items(self, items)

    @classmethod
    def _trusted(cls, items: tuple) -> "FacetSequence":
        """Wrap ``items`` without re-validating them; the slot setter
        ``_set_items`` writes the field.

        Only for items already known to form a valid sequence: a
        rearrangement or prefix of the items of a validated sequence, or
        an order of distinct facets of one universe or complex that was
        validated as a whole (the orders of ``shelling_orders``, the
        seeded corpus, family extensions, the lines ``cli.parse_input`` checked)."""
        seq = object.__new__(cls)
        _set_items(seq, items)
        return seq

    def support(self) -> frozenset:
        return frozenset(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Facet]:
        return iter(self.items)

    def __getitem__(self, i):
        return self.items[i]


@dataclass(frozen=True, init=False, repr=False)
class LabeledGraph:
    """A simple undirected graph on the vertex set {1, ..., order}.

    The graph is its adjacency rows: ``rows[v]`` has bit u set iff u and
    v are adjacent (``rows[0]`` is 0).  Equality and hash compare the
    fields ``order`` and ``rows``, which is the same as comparing order
    and edge set.  ``edges`` lists the (low, high) pairs as a frozenset
    on each read, and does not keep them; the repr shows them.

    ``edges`` may be given as any iterable of pairs in either
    orientation.  Kernels whose rows are correct by construction build
    the graph with ``_of_rows`` instead, which takes the rows as given.
    A dual graph is its facet masks (``_of_masks``), which ``has_edge``
    reads; its rows are built by ``_ridge_rows`` on their first read (by
    ``==``, hash, repr, pickling, ...)."""

    # written out, not ``slots=True``: that builds a copy of the class,
    # and on CPython 3.10 to 3.13 the copy's frozen ``__setattr__`` raises
    # TypeError, not FrozenInstanceError, for a name that is not a field
    # (``edges``); ``_masks`` is ``(masks, k)`` on a graph of facet masks
    __slots__ = ("order", "rows", "_masks")
    order: int
    rows: tuple[int, ...]

    def __init__(self, order: int, edges: Iterable[tuple[int, int]]) -> None:
        if order < 1:
            raise ValueError(f"graph order must be positive, got {order}")
        rows = [0] * (order + 1)
        for a, b in edges:
            if not (0 < a <= order and 0 < b <= order and a != b):
                if a == b:
                    raise ValueError(f"loop at vertex {a}")
                raise ValueError(f"edge ({a}, {b}) leaves [{order}]")
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        self.__post_init__(order, tuple(rows))

    @classmethod
    def _of_rows(cls, order: int, rows: Iterable[int]) -> "LabeledGraph":
        """Wrap adjacency rows without validating them; ``__post_init__``
        writes the fields with the slot setters.

        Only for the rows of a simple graph on {1, ..., order}, ``order``
        at least 1: ``order + 1`` entries, ``rows[0]`` 0, symmetric, no
        bit v in ``rows[v]`` and no bit above ``order``."""
        graph = object.__new__(cls)
        graph.__post_init__(order, tuple(rows))
        return graph

    @classmethod
    def _of_masks(cls, order: int, masks: list[int], k: int) -> "LabeledGraph":
        """The dual graph of ``order`` distinct k-facets with these masks,
        in position order; ``rows`` is left unset.  ``__post_init__``
        writes the other slots with the slot setters."""
        graph = object.__new__(cls)
        graph.__post_init__(order, None, (masks, k))
        return graph

    def __post_init__(self, order: int, rows: tuple | None, masks: tuple | None = None) -> None:
        """Set the fields; runs once per graph, from any constructor."""
        _set_order(self, order)
        if rows is not None:
            _set_rows(self, rows)
        _set_graph_masks(self, masks)

    def __getattr__(self, name: str):
        # reached only when normal lookup fails: the unset rows of a graph
        # of masks, built by the ridge table
        if name != "rows":
            raise AttributeError(f"{type(self).__qualname__!r} object has no attribute {name!r}")
        rows = _ridge_rows(self._masks[0])
        _set_rows(self, rows)
        return rows

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (a, b) for a, row in enumerate(self.rows) for b in _bits(row) if b > a
        )

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(order={self.order!r}, edges={self.edges!r})"

    def __reduce__(self):
        return LabeledGraph._of_rows, (self.order, self.rows)

    def has_edge(self, a: int, b: int) -> bool:
        if not (1 <= a <= self.order and 1 <= b <= self.order):
            return False
        if self._masks is None:
            return bool(self.rows[a] >> b & 1)
        # a facet meets itself in k vertices, so a == b is no edge
        masks, k = self._masks
        return (masks[a - 1] & masks[b - 1]).bit_count() == k - 1

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 1 <= v <= self.order:
            return ()
        return tuple(_bits(self.rows[v]))


# The slot setters of the value types, bound once: ``_set_items(seq,
# items)`` writes the slot as ``object.__setattr__(seq, "items", items)``
# does, without looking the name up on each call.  The classes' own
# ``__setattr__`` still raises ``FrozenInstanceError`` for every name.
_set_members = KSubset.__dict__["members"].__set__
_set_mask = KSubset.__dict__["mask"].__set__
_set_tuple_n = FlagTuple.__dict__["n"].__set__
_set_entries = FlagTuple.__dict__["entries"].__set__
_set_vertices = FlagVertexFacet.__dict__["vertices"].__set__
_set_facets = PureComplex.__dict__["facets"].__set__
_set_items = FacetSequence.__dict__["items"].__set__
_set_order = LabeledGraph.__dict__["order"].__set__
_set_rows = LabeledGraph.__dict__["rows"].__set__
_set_graph_masks = LabeledGraph.__dict__["_masks"].__set__


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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


def _ridge_rows(masks: list[int]) -> tuple[int, ...]:
    """The adjacency rows of the dual graph of distinct k-facets with these
    masks, in position order: two are adjacent iff they hold a common
    (k - 1)-ridge.  Each ridge gets the bits of the positions holding it,
    and row j is the OR over j's k ridges, minus bit j: O(h·k) dictionary
    steps and ORs, however many edges.  With k = 1 every facet holds the
    empty ridge; with k = 0 the one facet has none."""
    ridges = list(map(_ridges, masks))
    holders: dict[int, int] = {}  # ridge mask -> bits of the positions holding it
    get = holders.get
    for j, own in enumerate(ridges, 1):
        bit = 1 << j
        for ridge in own:
            holders[ridge] = get(ridge, 0) | bit
    rows = [0]
    for j, own in enumerate(ridges, 1):
        row = 0
        for ridge in own:
            row |= holders[ridge]
        rows.append(row & ~(1 << j))
    return tuple(rows)


def all_ksubsets(n: int, k: int) -> Iterator[KSubset]:
    """All k-subsets of {1, ..., n}, in lexicographic order."""
    for combo in itertools.combinations(range(1, n + 1), k):
        yield KSubset(n, combo)


def all_flag_tuples(n: int, k: int) -> Iterator[FlagTuple]:
    """All injective k-tuples over {1, ..., n}, in lexicographic order."""
    for arrangement in itertools.permutations(range(1, n + 1), k):
        yield FlagTuple(n, arrangement)
