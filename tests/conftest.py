import concurrent.futures
import functools
import itertools
import multiprocessing
from random import Random

import pytest

from shellorder import (
    ExchangeWitness,
    FacetSequence,
    FlagVertexFacet,
    KSubset,
    MatroidVerdict,
    PureComplex,
    suites,
)


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


def reference_exchange_on_family(family, quasi: bool) -> MatroidVerdict:
    """The per-family scan that the first-failure tables replaced: the
    demands of the family's universe (``quasi`` or ``exchange`` rows), x
    ascending over the members and then in row order, each tested by
    ANDs with the family mask; the first one failed is the witness."""
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


def reference_dual_graph(seq: FacetSequence):
    """(edges, rows) of the dual graph by testing every pair of positions
    for k - 1 shared vertices, on the facets' vertex sets (the members of
    a KSubset, the chain of a flag-vertex facet), not their masks."""
    items = seq.items
    k = len(items[0])
    vertex_sets = [set(f) for f in items]
    h = len(items)
    edges = frozenset(
        (i + 1, j + 1)
        for i in range(h)
        for j in range(i + 1, h)
        if len(vertex_sets[i] & vertex_sets[j]) == k - 1
    )
    rows = [0] * (h + 1)
    for a, b in edges:
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return edges, tuple(rows)


def reference_neighbors(edges, v):
    return tuple(sorted(b if a == v else a for a, b in edges if v in (a, b)))


def reference_track(edges):
    """From vertex 1, step to the least larger neighbour while there is one."""
    vertices = [1]
    while True:
        v = vertices[-1]
        bigger = [u for u in reference_neighbors(edges, v) if u > v]
        if not bigger:
            return tuple(vertices)
        vertices.append(min(bigger))


def reference_promote(seq: FacetSequence) -> FacetSequence:
    """Promotion read off the track of ``reference_dual_graph``: each
    position off the track moves down one place, each track position
    moves to just below the next one, and the last moves to the end."""
    h = len(seq)
    path = reference_track(reference_dual_graph(seq)[0])
    sigma = [p - 1 for p in range(1, h + 1)]  # position 1 is on the track
    for a, b in zip(path, path[1:]):
        sigma[a - 1] = b - 1
    sigma[path[-1] - 1] = h
    return apply_positions(tuple(sigma), seq)


def reference_evacuate(seq: FacetSequence) -> FacetSequence:
    """The chain of prefix promotions for r = h down to 2: each promotes
    the length-r prefix as a sequence of its own and keeps the rest."""
    for r in range(len(seq), 1, -1):
        head = reference_promote(FacetSequence(seq.items[:r]))
        seq = FacetSequence(head.items + seq.items[r:])
    return seq


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
