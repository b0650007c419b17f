"""Barycentric subdivision as a coset union, flag complexes, and flag
shellability.

A family of sorted k-subsets subdivides into the injective tuples obtained
by permuting each facet's members.  The flag complex of a tuple family has
one facet per tuple: the chain of its prefix sets, encoded as a set of
KSubsets of cardinalities 1..k.  With that encoding the generic shelling
checker applies unchanged.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable

from .bruhat import prefix_projection
from .core import (
    FacetSequence,
    FlagTuple,
    FlagVertexFacet,
    KSubset,
    PureComplex,
)
from .shelling import find_shelling_order, is_shelling_order


# |X|·k! tuples are built and, by the CLI, printed at about 10 µs each
# (2-vCPU x86-64 VM, CPython 3.11), so the bound is about a second of
# work.  The largest subdivision a sweep or the benchmark builds is far
# below it: 20 facets of size 3, 120 tuples.  One facet of size 10 has
# 3,628,800 tuples and printed nothing in 10 s.
BARYCENTRIC_MAX_TUPLES = 100_000


def barycentric(complex_: PureComplex) -> set[FlagTuple]:
    """All orderings of every facet's members; |X| * k! tuples, bounded
    by ``BARYCENTRIC_MAX_TUPLES`` before any is listed."""
    facets = list(complex_)
    if any(not isinstance(facet, KSubset) for facet in facets):
        raise TypeError("barycentric subdivision expects KSubset facets")
    tuples = sum(math.factorial(len(facet)) for facet in facets)
    if tuples > BARYCENTRIC_MAX_TUPLES:
        k = len(facets[0])
        raise ValueError(
            f"barycentric subdivisions are bounded at {BARYCENTRIC_MAX_TUPLES} "
            f"tuples, got |X|·k! = {len(facets)}·{k}! = {tuples}"
        )
    if facets and not len(facets[0]):  # the facets share one size
        raise ValueError(f"tuple length 0 not within [1, {facets[0].n}]")
    # each ordering of a nonempty validated facet's members is a valid tuple
    trusted = FlagTuple._trusted
    return {
        trusted(facet.n, arrangement)
        for facet in facets
        for arrangement in itertools.permutations(facet.members)
    }


def flag_facet(y: FlagTuple) -> FlagVertexFacet:
    """The chain of prefix sets of y, as a flag-complex facet."""
    return FlagVertexFacet(
        frozenset(prefix_projection(y, i) for i in range(1, len(y) + 1))
    )


def flag_complex(elements: Iterable[FlagTuple]) -> PureComplex:
    """The complex whose facets are the prefix chains of the given tuples."""
    return PureComplex.of(flag_facet(y) for y in set(elements))


def is_flag_shelling_order(seq: FacetSequence) -> bool:
    """True iff the prefix-chain images form a shelling order."""
    if not isinstance(seq.items[0], FlagTuple):
        raise TypeError("flag shelling orders are sequences of FlagTuples")
    image = FacetSequence(tuple(flag_facet(y) for y in seq.items))
    return is_shelling_order(image).holds


def is_flag_shellable(elements: Iterable[FlagTuple]) -> bool:
    """True iff the flag complex of the set admits some shelling order."""
    elems = set(elements)
    if not elems:
        raise ValueError("empty set cannot be tested for flag shellability")
    return find_shelling_order(flag_complex(elems)) is not None
