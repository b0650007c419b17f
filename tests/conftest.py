import concurrent.futures
import functools
import itertools
import multiprocessing
from random import Random

import pytest

from shellorder import FacetSequence, FlagVertexFacet, KSubset, PureComplex, suites


def make_ksubset(n: int, digits: str) -> KSubset:
    return KSubset(n, tuple(int(c) for c in digits))


@pytest.fixture(scope="session")
def bjorner() -> FacetSequence:
    """Björner's 11-facet shellable complex, in its standard shelling order."""
    facets = "123 125 126 234 235 134 136 145 246 356 456".split()
    return FacetSequence(tuple(make_ksubset(6, d) for d in facets))


def reference_append_ok(placed, cand, k):
    """The ridge-list form of the append test: the ridges of ``cand``
    shared with placed facets, and every placed facet's overlap with
    ``cand`` must lie in one of them."""
    if not placed:
        return True
    ridges = [m & cand for m in placed if (m & cand).bit_count() == k - 1]
    if not ridges:
        return False
    for m in placed:
        need = m & cand
        if not any(need & ~r == 0 for r in ridges):
            return False
    return True


def grow_shelling_order(seed: int, n: int, k: int, h: int) -> FacetSequence:
    """A shelling order of h k-subsets of [n], grown by appending random
    ridge neighbours of placed facets that keep the gluing condition."""
    rng = Random(seed)
    masks = [sum(1 << v for v in rng.sample(range(n), k))]
    for _ in range(100 * h):
        if len(masks) == h:
            return FacetSequence(tuple(KSubset.from_mask(n, m) for m in masks))
        base = rng.choice(masks)
        inside = [v for v in range(n) if base >> v & 1]
        outside = [v for v in range(n) if not base >> v & 1]
        cand = base ^ 1 << rng.choice(inside) ^ 1 << rng.choice(outside)
        if cand not in masks and reference_append_ok(masks, cand, k):
            masks.append(cand)
    raise ValueError(f"growth stalled at {len(masks)} of {h} facets")


def fork_pool(monkeypatch):
    """Sweeps get a two-worker pool forked from this process, so the
    workers see its patches.  ``suites`` imports the pool class from
    ``concurrent.futures`` when a sweep forks, so the patch goes there."""
    context = multiprocessing.get_context("fork")
    pool = functools.partial(concurrent.futures.ProcessPoolExecutor, mp_context=context)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(suites.os, "cpu_count", lambda: 2)


def reference_are_isomorphic(a: FacetSequence, b: FacetSequence) -> bool:
    """The sweep of S_n that ``are_isomorphic`` replaced: some permutation
    of [n] carries each facet of a onto the facet of b at its position.
    Sequences of other universes, lengths or facet sizes are not."""
    first_a, first_b = a.items[0], b.items[0]
    if first_a.n != first_b.n or len(a) != len(b) or len(first_a) != len(first_b):
        return False
    sources = [f.members for f in a.items]
    targets = [f.members for f in b.items]
    return any(
        all(tuple(sorted(w[v - 1] for v in src)) == tgt for src, tgt in zip(sources, targets))
        for w in itertools.permutations(range(1, first_a.n + 1))
    )


def apply_positions(sigma: tuple, seq: FacetSequence) -> FacetSequence:
    """Rearrange so the item at position p was at position sigma^{-1}(p)."""
    h = len(seq)
    if len(sigma) != h:
        raise ValueError(f"permutation length {len(sigma)} != sequence length {h}")
    if sorted(sigma) != list(range(1, h + 1)):
        raise ValueError(f"{sigma} is not a bijection of [{h}]")
    out: list = [None] * h
    for i, item in enumerate(seq.items):
        out[sigma[i] - 1] = item
    return FacetSequence(tuple(out))


def face_poset_order_complex(complex_: PureComplex) -> PureComplex:
    """Order complex of the face poset, built by walking maximal chains.

    Enumerates the nonempty faces explicitly and extends chains one vertex
    at a time; independent of the coset construction, and must agree with
    ``flag_complex(barycentric(complex_))``.
    """
    facets = list(complex_)
    if not facets:
        return PureComplex.of(())
    if not isinstance(facets[0], KSubset):
        raise TypeError("face posets are built over KSubset facets")
    n = facets[0].n
    faces: set[int] = set()
    for facet in facets:
        members = facet.members
        for size in range(1, len(members) + 1):
            for combo in itertools.combinations(members, size):
                m = 0
                for v in combo:
                    m |= 1 << (v - 1)
                faces.add(m)

    chains: list[tuple[int, ...]] = []

    def extend(chain: tuple[int, ...], top: int) -> None:
        ups = [
            top | 1 << b
            for b in range(n)
            if not top >> b & 1 and top | 1 << b in faces
        ]
        if not ups:
            chains.append(chain)
            return
        for up in ups:
            extend(chain + (up,), up)

    for m in faces:
        if m.bit_count() == 1:
            extend((m,), m)

    return PureComplex.of(
        FlagVertexFacet(frozenset(KSubset.from_mask(n, m) for m in chain))
        for chain in chains
    )
