"""Matroid and Coxeter-matroid axioms.

Basis exchange, the quasi-exchange weakening, the full symmetric-group
maximality sweep, shifts, and underlying flag matroids.  Verdicts carry
replayable counterexample witnesses.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter
from typing import Iterable, Optional

from .bruhat import (
    Family,
    FlagTupleUniverse,
    KSubsetUniverse,
    _check_operands,
    _dominance_key,
    _greatest,
    _order_of,
    prefix_projection,
)
from .core import FlagTuple, KSubset, PureComplex, _bits, _value_type, canonical_key


# The list path keys each of the |X|·n! image points afresh and keeps
# none, so its memory does not grow with n!.  All 4-subsets of [8]
# (2,822,400 points) take 2.2-2.7 s; six permutations of [9] (2,177,280)
# take about 9 s and 17 MiB.  One facet of [10] (3,628,800) is the first
# past the bound, and all of S_7 as tuples (25,401,600) would take well
# over a minute (CLI runs, 2-vCPU x86-64 VM, CPython 3.11).
MAXIMALITY_MAX_POINTS = 3_000_000


@_value_type
class ExchangeWitness:
    """A failed exchange: no partner in second for ``element`` of first."""

    first: KSubset
    second: KSubset
    element: int


@_value_type
class MatroidVerdict:
    holds: bool
    witness: Optional[ExchangeWitness] = None

    def __post_init__(self) -> None:
        if self.holds == (self.witness is not None):
            raise ValueError("witness must be present exactly when the axiom fails")

    def __bool__(self) -> bool:
        return self.holds


def _sorted_ksubsets(facets: Iterable) -> list[KSubset]:
    elems = sorted(set(facets), key=canonical_key)
    if elems and not isinstance(elems[0], KSubset):
        raise TypeError("expected KSubset facets")
    return elems


def _exchange(facets: Iterable[KSubset], quasi: bool) -> MatroidVerdict:
    """Every i in x\\y above a threshold trades for some j in y\\x inside
    the family.  The threshold is 0 for basis exchange and max(y\\x) for
    quasi-exchange; when y\\x is empty, quasi-exchange demands nothing
    (no i exceeds the maximum of the empty set) while basis exchange
    fails on any i in x\\y.

    Per x, ``reach`` maps the bit of an i in x to the bits of the j with
    x - i + j in the family, found when i is first demanded; then i
    trades against y iff ``reach[i] & (y\\x)``.  The first failure, over
    x, then y, then i ascending, is the witness.

    A ``Family`` of a ``KSubsetUniverse`` is decided on its universe's
    exchange rows: the same demands in the same order, each one AND with
    the family mask."""
    if isinstance(facets, Family) and isinstance(facets.universe, KSubsetUniverse):
        return _exchange_on_family(facets, quasi)
    elems = _sorted_ksubsets(facets)
    masks = [x.mask for x in elems]
    present = set(masks)
    span = 0
    for m in masks:
        span |= m
    for x, xm in zip(elems, masks):
        outside = span & ~xm  # a j outside the span is in no member
        reach: dict[int, int] = {}
        for y, ym in zip(elems, masks):
            gain = ym & ~xm
            if quasi:
                if not gain:
                    continue
                # only the i above max(y\x) must trade
                lost = xm & ~ym & -(1 << gain.bit_length())
            else:
                lost = xm & ~ym
            while lost:
                bit = lost & -lost
                if bit not in reach:
                    base, js, hits = xm ^ bit, outside, 0
                    while js:
                        j = js & -js
                        if base | j in present:
                            hits |= j
                        js ^= j
                    reach[bit] = hits
                if not reach[bit] & gain:
                    return MatroidVerdict(False, ExchangeWitness(x, y, bit.bit_length()))
                lost ^= bit
    return MatroidVerdict(True)


def _exchange_on_family(family: Family, quasi: bool) -> MatroidVerdict:
    universe, members = family.universe, family.mask
    demands = universe.quasi if quasi else universe.exchange
    rest = members
    while rest:  # the ids x of the members, ascending
        x_bit = rest & -rest
        rest ^= x_bit
        for y_bit, i, ids in demands[x_bit.bit_length() - 1]:
            if members & y_bit and not ids & members:
                x = universe.facets[x_bit.bit_length() - 1]
                y = universe.facets[y_bit.bit_length() - 1]
                return MatroidVerdict(False, ExchangeWitness(x, y, i))
    return MatroidVerdict(True)


def is_matroid(facets: Iterable[KSubset]) -> MatroidVerdict:
    """Basis exchange: every a in A\\B trades for some b in B\\A inside the family."""
    return _exchange(facets, quasi=False)


def has_quasi_exchange(facets: Iterable[KSubset]) -> MatroidVerdict:
    """Exchange demanded only for i in x\\y exceeding max(y\\x)."""
    return _exchange(facets, quasi=True)


def is_coxeter_matroid(elements: Iterable) -> bool:
    """Maximality property: every w-shifted image has a unique maximum.

    Accepts a set of FlagTuples (configuration order, image is entrywise
    application of w) or of KSubsets (Gale order, image is the sorted
    value set).  Sweeps all of S_n, so the |X|·n! image points are
    bounded by ``MAXIMALITY_MAX_POINTS`` before the sweep.  A ``Family``
    of a ``FlagTupleUniverse`` is decided on its universe's tables.
    """
    if isinstance(elements, Family) and isinstance(elements.universe, FlagTupleUniverse):
        return _maximality_on_family(elements)
    elems = sorted(set(elements), key=canonical_key)
    if not elems:
        raise ValueError("empty set cannot be tested for maximality")
    n = elems[0].n
    points = len(elems) * math.factorial(n)
    if points > MAXIMALITY_MAX_POINTS:
        raise ValueError(
            f"the S_n sweep is bounded at {MAXIMALITY_MAX_POINTS} image points, "
            f"got |X|·n! = {len(elems)}·{n}! = {points}"
        )
    kind = _order_of(elems[0])
    _check_operands(elems, kind)
    if len(elems) == 1:  # its own greatest element under every w
        return True
    key = _dominance_key(kind)
    points = [tuple(x) for x in elems]
    for w in itertools.permutations(range(1, n + 1)):
        if _greatest([key([w[v - 1] for v in pt]) for pt in points]) is None:
            return False
    return True


def _maximality_on_family(family: Family) -> bool:
    """One mask test per permutation w: the image ids G of the members
    have a greatest element iff G lies inside ``below[v] | 1 << v`` for
    the largest id v, since ids are a linear extension.  The image of
    the last failing w moves to the front of the universe's list, so it
    is tried first next time; only a failure stops the scan, so the
    order changes no verdict."""
    members = _bits(family.mask)
    if not members:
        raise ValueError("empty set cannot be tested for maximality")
    if len(members) == 1:  # its own greatest element under every w
        return True
    images, below = family.universe.images, family.universe.below
    bit = [1 << v for v in range(len(below))]
    image_of = itemgetter(*members)
    for j, image in enumerate(images):
        ids = sum(map(bit.__getitem__, image_of(image)))
        top = ids.bit_length() - 1
        if ids & ~below[top] != 1 << top:
            images.insert(0, images.pop(j))
            return False
    return True


def canonical_completion(x: KSubset) -> FlagTuple:
    """x as a permutation: sorted members followed by the sorted complement."""
    tail = KSubset.from_mask(x.n, ~x.mask & (1 << x.n) - 1)
    return FlagTuple(x.n, x.members + tail.members)


def shift(elements: Iterable, i: int) -> PureComplex:
    """The family of i-th prefix projections.

    KSubsets are first completed to permutations (ascending tail), so a
    rank-k family may be shifted to any rank i <= n.
    """
    elems = list(elements)
    if not elems:
        raise ValueError("cannot shift an empty family")
    if isinstance(elems[0], KSubset):
        tuples = [canonical_completion(x) for x in elems]
    else:
        tuples = elems
    if not 1 <= i <= len(tuples[0]):
        raise ValueError(f"shift rank {i} not within [1, {len(tuples[0])}]")
    return PureComplex.of(prefix_projection(x, i) for x in tuples)


def underlying_flag_matroid(facets: Iterable[KSubset]) -> set[FlagTuple]:
    """Union over the family of right cosets of the parabolic subgroup
    fixing the first k positions setwise: all permutations whose k-prefix
    uses exactly the members of some facet."""
    out: set[FlagTuple] = set()
    for x in set(facets):
        tail = KSubset.from_mask(x.n, ~x.mask & (1 << x.n) - 1)
        for head in itertools.permutations(x.members):
            for back in itertools.permutations(tail.members):
                out.add(FlagTuple(x.n, head + back))
    return out
