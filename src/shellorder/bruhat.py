"""Order-theoretic layer.

Block sorting into parabolic quotients, prefix projections, the three
orders used downstream (Gale order on sorted k-subsets, the configuration
order on injective tuples, the full permutation order via the tableau
criterion), induced cover relations, order-ideal tests, and
linear-extension verification and enumeration.  A ``KSubsetUniverse``
compiles every k-subset of [n] once, and a ``FlagTupleUniverse`` every
injective k-tuple of [n], so that families of them, as masks of facet
ids, are decided by mask arithmetic.

The order kind is always an explicit parameter; nothing is inferred from
whether a tuple happens to be sorted.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import sys
from array import array
from enum import Enum
from typing import Iterable, Iterator

from .core import (
    ExchangeWitness,
    FacetSequence,
    FlagTuple,
    KSubset,
    MatroidVerdict,
    _bits,
    _check_homogeneous,
    _value_type,
    all_flag_tuples,
    all_ksubsets,
    canonical_key,
)
from .shelling import _walk_orders


class OrderKind(Enum):
    GALE = "gale"  # sorted k-subsets, componentwise domination
    CONF = "conf"  # injective k-tuples, all sorted prefixes dominate
    PERM = "perm"  # full permutations (CONF with k = n)


DescentSet = frozenset  # positions i in [n-1]


def _require_permutation(w: FlagTuple, name: str = "w") -> None:
    if not isinstance(w, FlagTuple):
        raise TypeError(f"{name} must be a FlagTuple, got {type(w).__name__}")
    if not w.is_permutation():
        raise ValueError(f"{name} must be a full permutation of [{w.n}]")


def sort_blocks(w: FlagTuple, positions: Iterable[int]) -> FlagTuple:
    """Sort each maximal run of positions {i, i+1 : i in positions} increasingly.

    >>> sort_blocks(FlagTuple(7, (4, 3, 1, 7, 6, 2, 5)), {1, 2, 4, 6}).entries
    (1, 3, 4, 6, 7, 2, 5)
    """
    _require_permutation(w)
    n = w.n
    positions = frozenset(positions)
    if any(not 1 <= i <= n - 1 for i in positions):
        raise ValueError(f"positions {sorted(positions)} leave [{n - 1}]")
    entries = list(w.entries)
    i = 1
    while i <= n:
        j = i
        while j < n and j in positions:
            j += 1
        if j > i:
            entries[i - 1 : j] = sorted(entries[i - 1 : j])
        i = j + 1
    return FlagTuple(n, tuple(entries))


def prefix_projection(x: FlagTuple, i: int) -> KSubset:
    """The first i entries of x, forgetting their order."""
    if not 1 <= i <= len(x):
        raise ValueError(f"prefix length {i} not within [1, {len(x)}]")
    return KSubset(x.n, x.entries[:i])


def _check_shapes(a, b) -> None:
    if type(a) is not type(b):
        raise TypeError(f"cannot compare {type(a).__name__} with {type(b).__name__}")
    if a.n != b.n or len(a) != len(b):
        raise ValueError("operands live in different quotients")


def gale_leq(a: KSubset, b: KSubset) -> bool:
    """Componentwise domination of sorted members.

    >>> gale_leq(KSubset(8, (3, 4, 5, 6)), KSubset(8, (4, 5, 6, 8)))
    True
    """
    if not isinstance(a, KSubset):
        raise TypeError(f"expected KSubset operands, got {type(a).__name__}")
    _check_shapes(a, b)
    return all(u <= v for u, v in zip(a.members, b.members))


def conf_leq(x: FlagTuple, y: FlagTuple) -> bool:
    """Domination of every sorted prefix.

    >>> conf_leq(FlagTuple(5, (3, 1, 2, 5)), FlagTuple(5, (4, 2, 5, 1)))
    True
    >>> conf_leq(FlagTuple(5, (3, 1, 5, 2)), FlagTuple(5, (4, 2, 1, 5)))
    False
    """
    if not isinstance(x, FlagTuple):
        raise TypeError(f"expected FlagTuple operands, got {type(x).__name__}")
    _check_shapes(x, y)
    px: list[int] = []
    py: list[int] = []
    for u, v in zip(x.entries, y.entries):
        bisect.insort(px, u)
        bisect.insort(py, v)
        if any(s > t for s, t in zip(px, py)):
            return False
    return True


def perm_leq(u: FlagTuple, v: FlagTuple) -> bool:
    """Bruhat order on S_n: every sorted k-prefix of u dominated by v's."""
    _require_permutation(u, "u")
    _require_permutation(v, "v")
    return conf_leq(u, v)


def leq(a, b, kind: OrderKind) -> bool:
    if kind is OrderKind.GALE:
        return gale_leq(a, b)
    if kind is OrderKind.CONF:
        return conf_leq(a, b)
    if kind is OrderKind.PERM:
        return perm_leq(a, b)
    raise ValueError(f"unknown order kind {kind!r}")


def descent_set(w: FlagTuple) -> DescentSet:
    """Positions i with w(i) > w(i+1)."""
    _require_permutation(w)
    e = w.entries
    return frozenset(i + 1 for i in range(len(e) - 1) if e[i] > e[i + 1])


def _order_of(facet) -> OrderKind:
    """The order a facet alphabet carries: the Gale order on KSubsets,
    the configuration order on FlagTuples."""
    if isinstance(facet, KSubset):
        return OrderKind.GALE
    if isinstance(facet, FlagTuple):
        return OrderKind.CONF
    raise TypeError("expected an ordered facet alphabet (KSubset or FlagTuple)")


def _conf_profile(values: Iterable[int]) -> tuple:
    """Every sorted prefix of ``values``, flattened: the coordinates that
    the configuration order compares."""
    flat: list[int] = []
    prefix: list[int] = []
    for v in values:
        bisect.insort(prefix, v)
        flat.extend(prefix)
    return tuple(flat)


def _gale_key(values: Iterable[int]) -> tuple:
    return tuple(sorted(values))


def _dominance_key(kind: OrderKind):
    """The map from an element's values (or any run of values) to the
    coordinates that ``kind`` compares: x <= y iff key(x) <= key(y) in
    every coordinate.  Sorted values for the Gale order, every sorted
    prefix flattened for the others; a tuple either way."""
    return _gale_key if kind is OrderKind.GALE else _conf_profile


def _greatest(keys: list[tuple]) -> int | None:
    """The index of the first key that dominates every key, or None.

    A key dominates every key iff it equals their column-wise maximum,
    so that maximum is the only candidate."""
    top = tuple(map(max, zip(*keys)))
    return keys.index(top) if top in keys else None


def _check_operands(elems: list, kind: OrderKind) -> None:
    """The checks that ``leq`` makes, once per list: the alphabet of
    ``kind``, one shared alphabet, n and length, and full permutations
    for PERM."""
    if kind is OrderKind.GALE:
        cls = KSubset
    elif kind is OrderKind.CONF or kind is OrderKind.PERM:
        cls = FlagTuple
    else:
        raise ValueError(f"unknown order kind {kind!r}")
    first = elems[0]
    if not isinstance(first, cls):
        raise TypeError(f"expected {cls.__name__} operands, got {type(first).__name__}")
    _check_homogeneous(elems, "operand list")
    if kind is OrderKind.PERM:
        _require_permutation(first, "u")


def strictly_below_masks(elems: list, kind: OrderKind) -> list[int]:
    """For each index i, the bitmask of the other indices j with
    elems[j] <= elems[i]; equal elements count as below each other.

    Per coordinate of the dominance key, the indices are bucketed by
    value and the buckets accumulated upwards into "at most this value"
    masks; a row is the AND of its element's masks.  O(m·d) integer
    operations for m elements with d key coordinates (k for the Gale
    order, k(k+1)/2 for the others).  The checks of ``leq`` run only
    when there is a pair to compare, as with pairwise ``leq``."""
    m = len(elems)
    if m < 2:
        return [0] * m
    _check_operands(elems, kind)
    keys = list(map(_dominance_key(kind), elems))
    n = elems[0].n
    rows = [(1 << m) - 1] * m
    for column in zip(*keys):
        at_most = [0] * (n + 1)
        for i, v in enumerate(column):
            at_most[v] |= 1 << i
        for v in range(1, n + 1):
            at_most[v] |= at_most[v - 1]
        rows = [row & at_most[v] for row, v in zip(rows, column)]
    return [row & ~(1 << i) for i, row in enumerate(rows)]


def _require_linear_extension(below: list[int]) -> None:
    """Each row i holds indices smaller than i only."""
    if any(row >> i for i, row in enumerate(below)):
        raise ValueError("the index order is not a linear extension")


def order_ideals(below: list[int]) -> Iterator[int]:
    """Every down-set of the order whose row i holds the indices strictly
    below index i, as an index mask, in ascending order of the masks.

    The index order must be a linear extension: each row holds smaller
    indices only.  Indices are decided from the top down; an index that
    a taken index needs is taken, any other is left out first and taken
    second.  So no branch dead-ends, and each down-set costs O(m)."""
    _require_linear_extension(below)
    stack = [(len(below), 0, 0)]  # (indices left, taken, needed by taken)
    while stack:
        i, taken, needed = stack.pop()
        while i:
            i -= 1
            if needed >> i & 1:
                taken |= 1 << i
                needed |= below[i]
            else:
                stack.append((i, taken | 1 << i, needed | below[i]))
        yield taken


def induced_covers(elements: Iterable, kind: OrderKind) -> set[tuple]:
    """Cover relations of the subposet induced on ``elements``.

    Returns pairs (lower, upper).  Covers are taken within the given set,
    not within the ambient quotient: i is covered by j iff i is below j
    and below no t that is itself below j.  O(m·d) for the rows plus
    O(m²) mask operations for m elements with d key coordinates.

    The covers of the last support and kind are kept, so the linear
    extensions of one support, checked one after another, share them;
    each call returns its own copy.
    """
    return set(_support_covers(frozenset(elements), kind))


@functools.lru_cache(maxsize=1)
def _support_covers(support: frozenset, kind: OrderKind) -> frozenset:
    """The covers of ``induced_covers``, kept for the last support."""
    elems = sorted(support, key=canonical_key)
    below = strictly_below_masks(elems, kind)
    covers = []
    for j, row in enumerate(below):
        deeper = 0
        for t in _bits(row):
            deeper |= below[t]
        covers.extend((elems[i], elems[j]) for i in _bits(row & ~deeper))
    return frozenset(covers)


def _gale_lower_covers(x: KSubset) -> Iterator[int]:
    """Masks of x with one member a lowered to a - 1 not in x."""
    m = x.mask
    return (m ^ (3 << (a - 2)) for a in x.members if a >= 2 and not m >> (a - 2) & 1)


def _lower_reflections(x: FlagTuple) -> Iterator[tuple]:
    """Entries of every t·x < x for a transposition t = (a b), a < b, of
    values: an entry b replaced by a smaller absent value a, or an entry
    b swapped with a smaller entry a that follows it."""
    e = x.entries
    absent = sorted(set(range(1, x.n + 1)).difference(e))
    for i, b in enumerate(e):
        head, tail = e[:i], e[i + 1 :]
        for a in absent:
            if a > b:
                break
            yield head + (a,) + tail
        for j, a in enumerate(tail):
            if a < b:
                yield head + (a,) + tail[:j] + (b,) + tail[j + 1 :]


# '0'/'1' digits to the bytes 0/1
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _first_failures(
    facets: tuple[KSubset, ...], rows: list[tuple]
) -> tuple[array, tuple[MatroidVerdict, ...]]:
    """One exchange axiom decided on every family mask X of the m facets,
    from its demand rows: ``rows[x]`` holds x's demands (1 << y, i, ids),
    and a family fails one iff it holds x and y and no id of ``ids``.
    Counted from 1 in scan order (x ascending, then row order), demand d
    has the verdict ``verdicts[d]``, failed on its witness (x, y, i);
    ``verdicts[0]`` holds.  ``table[X]`` is the first demand that X fails,
    or 0.

    The families failing a demand form a subcube: as a 2^m-bit integer
    (bit X for family X), the AND of the families holding x, holding y
    and lacking each id of ``ids``.  Its families that no earlier demand
    took take d, kept as bit planes (plane b holds the families whose d
    has bit b), which are spread into the 16-bit entries at the end.
    Each demand costs a few operations on 2^m-bit integers."""
    m = len(facets)
    size = 1 << m
    holds = []  # holds[t]: the families that hold id t
    for t in range(m):
        run = 1 << t  # runs of 2^t families without id t, then with it
        pattern, width = ((1 << run) - 1) << run, 2 * run
        while width < size:
            pattern |= pattern << width
            width *= 2
        holds.append(pattern)
    verdicts = [MatroidVerdict(True)]
    planes = [0] * sum(map(len, rows)).bit_length()
    open_ = (1 << size) - 1  # the families that no demand has taken yet
    for x, row in enumerate(rows):
        for y_bit, i, ids in row:
            y = y_bit.bit_length() - 1
            d = len(verdicts)
            verdicts.append(MatroidVerdict(False, ExchangeWitness(facets[x], facets[y], i)))
            taken = open_ & holds[x] & holds[y]
            for t in _bits(ids):
                taken &= ~holds[t]
            if not taken:
                continue
            open_ ^= taken
            for b in _bits(d):
                planes[b] |= taken
    # written little-endian: byte 2X of the table from planes 0-7, byte
    # 2X + 1 from planes 8-15
    table = array("H", [0]) * size
    entries = memoryview(table).cast("B")
    for half in (0, 1):
        lane = 0
        for b, plane in enumerate(planes[8 * half : 8 * half + 8]):
            digits = format(plane, f"0{size}b")[::-1].encode()  # family 0 first
            lane |= int.from_bytes(digits.translate(_DIGIT_BYTES), "little") << b
        entries[half::2] = lane.to_bytes(size, "little")
    entries.release()
    if sys.byteorder == "big":
        table.byteswap()
    return table, tuple(verdicts)


class KSubsetUniverse:
    """Every k-subset of [n], compiled once for the predicates that read a
    ``Family``.  A facet's id is its index in ``facets``, which are
    in canonical order; ``masks`` are their vertex masks and ``id_of``
    maps a vertex mask back to its id.  Per id t:

    - ``below[t]``: the ids strictly below t in the Gale order;
    - ``lower_bytes[c][b]``: the ids of the Gale lower covers of the ids
      8c + i for the bits i of b, one table per 8 ids (the last may be
      narrower), so a family's lower covers are one lookup per byte of
      its mask;
    - ``exchange[x]``: the demands of basis exchange on x, as triples
      (1 << y, i, ids of x - i + j for j in y\\x), for every id y and
      every i in x\\y, ascending in y and then in i; x trades i against y
      inside a family F iff ``ids & F``.  A demand whose ids hold y
      itself (y = x - i + j, one element away from x) holds in every
      family that holds y, so it is left out;
    - ``quasi[x]``: the triples of ``exchange[x]`` with i > max(y\\x),
      the demands of quasi-exchange.

    Per family mask X, ``exchange_first`` and ``quasi_first`` hold the
    axiom's verdict on X as a pair (table, verdicts): ``verdicts[table[X]]``
    (see ``_first_failures``).

    The rows take O(m²·k²) integers for the m = C(n, k) facets, and the
    two first-failure tables O(2^m): 2 MiB each at m = 20.  So only the
    sweeps that read every family of the universe compile one; the
    caller bounds m.  A table, compared by identity, as
    ``FlagTupleUniverse`` is."""

    __slots__ = (
        "facets",
        "masks",
        "id_of",
        "below",
        "lower_bytes",
        "exchange",
        "quasi",
        "exchange_first",
        "quasi_first",
    )

    def __init__(
        self,
        facets: tuple[KSubset, ...],
        masks: tuple[int, ...],
        id_of: dict[int, int],
        below: list[int],
        lower_bytes: list[list[int]],
        exchange: list[tuple],
        quasi: list[tuple],
        exchange_first: tuple[array, tuple],
        quasi_first: tuple[array, tuple],
    ) -> None:
        self.facets, self.masks, self.id_of, self.below = facets, masks, id_of, below
        self.lower_bytes, self.exchange, self.quasi = lower_bytes, exchange, quasi
        self.exchange_first, self.quasi_first = exchange_first, quasi_first

    @classmethod
    def of(cls, n: int, k: int) -> "KSubsetUniverse":
        facets = tuple(all_ksubsets(n, k))
        masks = tuple(x.mask for x in facets)
        id_of = {mask: t for t, mask in enumerate(masks)}
        lower = [sum(1 << id_of[y] for y in _gale_lower_covers(x)) for x in facets]
        lower_bytes = []
        for c in range(0, len(facets), 8):
            # chunk[b] = chunk[b without its top bit i] | lower[c + i]
            chunk = [0]
            for row in lower[c : c + 8]:
                chunk += [entry | row for entry in chunk]
            lower_bytes.append(chunk)
        exchange, quasi = [], []
        for xm in masks:
            demands, quasi_demands = [], []
            for y, ym in enumerate(masks):
                gain = ym & ~xm
                for i in _bits(xm & ~ym):
                    ids = sum(1 << id_of[xm ^ 1 << i | 1 << j] for j in _bits(gain))
                    if ids >> y & 1:  # y = x - i + j is its own partner
                        continue
                    demands.append((1 << y, i + 1, ids))
                    if i + 1 > gain.bit_length():  # i > max(y\x)
                        quasi_demands.append(demands[-1])
            exchange.append(tuple(demands))
            quasi.append(tuple(quasi_demands))
        below = strictly_below_masks(list(facets), OrderKind.GALE)
        exchange_first = _first_failures(facets, exchange)
        quasi_first = _first_failures(facets, quasi)
        return cls(
            facets, masks, id_of, below, lower_bytes, exchange, quasi, exchange_first, quasi_first
        )


# n!·n!/(n-k)! image ids, one per permutation and tuple.  (6, 5) and
# (6, 6), the largest universes a sweep compiles, have 518,400 each and
# build in under 0.1 s into about 4.2 MiB of tables (2-vCPU x86-64 VM,
# CPython 3.11); the next shape up, (7, 3), would have 1,058,400.
FLAG_UNIVERSE_MAX_ENTRIES = 600_000


class FlagTupleUniverse:
    """Every injective k-tuple of [n], compiled once for the maximality
    check that ``is_coxeter_matroid`` makes on a ``Family``.  A tuple's
    id is its index in ``facets``, which are in canonical order, and
    ``id_of`` maps its entries back to it.  Per id t, ``below[t]`` holds
    the ids strictly below t in the configuration order.  ``images``
    holds, for each permutation w of [n], the id permutation
    u -> id(w∘u) as a tuple.

    Canonical ids are a linear extension of the configuration order
    (checked when compiling), so an image set G has a greatest element
    iff G lies inside ``below[v] | 1 << v`` for its largest id v.

    A table, compared by identity, and not frozen: the maximality check
    moves the image of its last failing permutation to the front of
    ``images``.  The tables take n!·n!/(n-k)! ids, bounded by
    ``FLAG_UNIVERSE_MAX_ENTRIES`` before any is listed."""

    __slots__ = ("facets", "id_of", "below", "images")

    def __init__(self, facets: tuple, id_of: dict, below: list, images: list) -> None:
        self.facets, self.id_of, self.below, self.images = facets, id_of, below, images

    @classmethod
    def of(cls, n: int, k: int) -> "FlagTupleUniverse":
        entries = math.factorial(n) * math.perm(n, k)
        if entries > FLAG_UNIVERSE_MAX_ENTRIES:
            raise ValueError(
                f"flag-tuple universes are bounded at {FLAG_UNIVERSE_MAX_ENTRIES} "
                f"image ids, got n!·n!/(n-k)! = {n}!·{n}!/{n - k}! = {entries}"
            )
        facets = tuple(all_flag_tuples(n, k))
        id_of = {y.entries: t for t, y in enumerate(facets)}
        below = strictly_below_masks(list(facets), OrderKind.CONF)
        _require_linear_extension(below)
        # ``permutations(w, k)`` lists w∘u for every u in canonical order
        images = [
            tuple(map(id_of.__getitem__, itertools.permutations(w, k)))
            for w in itertools.permutations(range(1, n + 1))
        ]
        return cls(facets, id_of, below, images)


@_value_type
class Family:
    """A family of facets of a compiled universe, as the mask of their
    ids.  It iterates its facets in canonical order, so any predicate
    takes it as a list.  On a ``KSubsetUniverse``, ``is_matroid``,
    ``has_quasi_exchange`` and ``is_order_ideal(·, GALE)`` decide it on
    the universe's tables; on a ``FlagTupleUniverse``,
    ``is_coxeter_matroid`` does."""

    universe: KSubsetUniverse | FlagTupleUniverse
    mask: int

    def __post_init__(self) -> None:
        if not isinstance(self.universe, (KSubsetUniverse, FlagTupleUniverse)):
            raise TypeError(
                "expected a KSubsetUniverse or FlagTupleUniverse, "
                f"got {type(self.universe).__name__}"
            )
        size = len(self.universe.facets)
        if self.mask < 0 or self.mask >> size:
            raise ValueError(f"family mask {self.mask} leaves the universe's {size} ids")

    def __iter__(self) -> Iterator:
        facets = self.universe.facets
        return (facets[t] for t in _bits(self.mask))


def is_order_ideal(elements: Iterable, kind: OrderKind) -> bool:
    """True iff the set is downward closed in its ambient quotient.

    Every cover of the Bruhat order on a parabolic quotient is a
    reflection, so a set is downward closed iff it holds each lower
    neighbour of each member x.  Gale order: the lower covers, x with
    one member a lowered to a - 1 not in x, O(|X|·k).  Configuration and
    permutation orders: the lower reflections t·x < x, O(|X|·k·(n + k)).
    Nothing outside the set is listed.  A ``Family`` of a
    ``KSubsetUniverse`` under the Gale order is decided on its
    universe's ``lower_bytes``, one lookup per byte of its mask.
    """
    if (
        isinstance(elements, Family)
        and isinstance(elements.universe, KSubsetUniverse)
        and kind is OrderKind.GALE
    ):
        family = rest = elements.mask
        needed = 0
        for chunk in elements.universe.lower_bytes:
            needed |= chunk[rest & 255]
            rest >>= 8
        return not needed & ~family
    elems = list(set(elements))
    if not elems:
        return True
    _check_operands(elems, kind)
    if kind is OrderKind.GALE:
        present = {x.mask for x in elems}
        lower = _gale_lower_covers
    else:
        present = {x.entries for x in elems}
        lower = _lower_reflections
    return all(y in present for x in elems for y in lower(x))


def is_linear_extension(seq: FacetSequence, elements: Iterable, kind: OrderKind) -> bool:
    """True iff no element of the sequence is preceded by a strictly larger one."""
    items = seq.items
    if set(items) != set(elements):
        raise ValueError("sequence is not a permutation of the given facets")
    below = strictly_below_masks(list(items), kind)
    return not any(row >> (i + 1) for i, row in enumerate(below))


def linear_extensions(elements: Iterable, kind: OrderKind) -> Iterator[FacetSequence]:
    """Every linear extension exactly once, minimal candidates tried in
    canonical ascending order at each step.  The walk is iterative, so
    the number of elements is not bounded by the recursion limit.

    Each extension is wrapped unchecked: ``canonical_key`` and, from two
    elements up, ``strictly_below_masks`` check the operands once, and the
    set makes them distinct."""
    elems = sorted(set(elements), key=canonical_key)
    if not elems:
        raise ValueError("cannot extend an empty set")
    return (
        FacetSequence._trusted(tuple(elems[t] for t in order))
        for order in _walk_orders(strictly_below_masks(elems, kind))
    )
