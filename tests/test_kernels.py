"""Differential tests: the shelling and graph kernels against reference copies.

The references are the straightforward forms the kernels replaced: the
pair-by-pair ridge scan for ``is_shelling_order``, the ridge-list test
for ``_append_ok``, and edge-set scans for ``LabeledGraph`` lookups and
``track``.  Sequences are random k-subset and flag-vertex sequences, most
of them not shelling orders, plus grown shelling orders with and without
a transposition that may break them.
"""

import itertools

from hypothesis import given, settings, strategies as st

from shellorder import (
    FacetSequence,
    FlagTuple,
    KSubset,
    LabeledGraph,
    elementary_move,
    evacuate,
    is_shelling_order,
    promote,
    r_promote,
    track,
)
from shellorder.shelling import _append_ok, facet_masks
from shellorder.subdivision import flag_facet


def reference_is_shelling_order(seq):
    """(holds, certificates, failing): for each pair the certifying z is
    searched descending from j - 1."""
    masks, k = facet_masks(seq.items)
    certs = []
    for j in range(1, len(masks)):
        bj = masks[j]
        for i in range(j):
            need = masks[i] & bj
            for z in range(j - 1, -1, -1):
                inter = masks[z] & bj
                if inter.bit_count() == k - 1 and need & ~inter == 0:
                    certs.append((i + 1, j + 1, z + 1))
                    break
            else:
                return False, tuple(certs), (i + 1, j + 1)
    return True, tuple(certs), None


def reference_append_ok(placed, cand, k):
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


def reference_neighbors(edges, v):
    return tuple(sorted(b if a == v else a for a, b in edges if v in (a, b)))


def reference_track(edges):
    vertices = [1]
    while True:
        v = vertices[-1]
        bigger = [u for u in reference_neighbors(edges, v) if u > v]
        if not bigger:
            return tuple(vertices)
        vertices.append(min(bigger))


@st.composite
def ksubset_sequences(draw):
    """Distinct k-subsets in any order; usually not a shelling order."""
    n = draw(st.integers(2, 7))
    k = draw(st.integers(1, n - 1))
    universe = list(itertools.combinations(range(1, n + 1), k))
    members = draw(
        st.lists(st.sampled_from(universe), min_size=1, max_size=10, unique=True)
    )
    return FacetSequence(tuple(KSubset(n, m) for m in members))


@st.composite
def grown_sequences(draw):
    """A shelling order grown by random gluing appends, then possibly with
    two positions swapped (which may or may not break it)."""
    n = draw(st.integers(3, 7))
    k = draw(st.integers(1, n - 1))
    rng = draw(st.randoms(use_true_random=False))
    pool = [KSubset(n, m) for m in itertools.combinations(range(1, n + 1), k)]
    rng.shuffle(pool)
    chosen = [pool.pop()]
    target = draw(st.integers(1, 12))
    while len(chosen) < target:
        placed = [f.mask for f in chosen]
        fits = [f for f in pool if reference_append_ok(placed, f.mask, k)]
        if not fits:
            break
        follower = rng.choice(fits)
        pool.remove(follower)
        chosen.append(follower)
    if len(chosen) > 1 and draw(st.booleans()):
        a, b = rng.sample(range(len(chosen)), 2)
        chosen[a], chosen[b] = chosen[b], chosen[a]
    return FacetSequence(tuple(chosen))


@st.composite
def flag_sequences(draw):
    """Distinct flag-vertex facets (chains of prefix sets of k-tuples)."""
    n = draw(st.integers(2, 5))
    k = draw(st.integers(1, n))
    universe = list(itertools.permutations(range(1, n + 1), k))
    entries = draw(
        st.lists(st.sampled_from(universe), min_size=1, max_size=10, unique=True)
    )
    return FacetSequence(tuple(flag_facet(FlagTuple(n, e)) for e in entries))


any_sequences = st.one_of(ksubset_sequences(), grown_sequences(), flag_sequences())


@settings(max_examples=400, deadline=None)
@given(any_sequences)
def test_is_shelling_order_matches_pair_scan(seq):
    witness = is_shelling_order(seq)
    assert (witness.holds, witness.certificates, witness.failing) == (
        reference_is_shelling_order(seq)
    )


@settings(max_examples=300, deadline=None)
@given(any_sequences)
def test_append_ok_matches_ridge_list(seq):
    masks, k = facet_masks(seq.items)
    for r in range(len(masks)):
        placed = masks[:r]
        for cand in masks[r:]:
            assert _append_ok(placed, cand, k) == reference_append_ok(placed, cand, k)


@settings(max_examples=200, deadline=None)
@given(st.one_of(grown_sequences(), flag_sequences()))
def test_promotion_results_are_valid_sequences(seq):
    # promote, r_promote and elementary_move skip re-validation of their
    # results; the full constructor must accept each result unchanged.
    h = len(seq)
    results = [promote(seq), evacuate(seq)]
    results += [r_promote(seq, r) for r in range(1, h + 1)]
    results += [elementary_move(seq, i) for i in range(1, h)]
    for out in results:
        assert FacetSequence(out.items) == out
        assert out.support() == seq.support()


@st.composite
def graphs(draw):
    order = draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(1, order + 1), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    # edges may be given in either orientation
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    edges = frozenset((b, a) if flip else (a, b) for (a, b), flip in zip(chosen, flips))
    return LabeledGraph(order, edges)


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_graph_lookups_match_edge_scan(graph):
    edges = graph.edges
    span = range(-2, graph.order + 4)
    for v in span:
        assert graph.neighbors(v) == reference_neighbors(edges, v)
    for a in span:
        for b in span:
            assert graph.has_edge(a, b) is ((min(a, b), max(a, b)) in edges)
    assert track(graph) == reference_track(edges)
