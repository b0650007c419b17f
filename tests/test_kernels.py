"""Differential tests: the shelling, graph, order-walk, exchange and
Bruhat-order kernels against reference copies.

The references are the straightforward forms the kernels replaced: the
pair-by-pair ridge scan for ``is_shelling_order``, the ridge-list test
for ``_append_ok`` (and, for the corpora built with it, the growth
sampler on facets and every permutation of each facet combination
filtered by the pair scan), the pair scan for the ridge-incidence
``dual_graph`` and the graph built from its edges for the rows-built one (and promotion
through the pair-scan graph for ``promote``, ``evacuate`` and
``promote_via_moves``), edge-set scans for ``LabeledGraph`` lookups
and ``track``, one recursion per enumerator for the iterative order
walker, separate basis-exchange and quasi-exchange scans for the shared
exchange routine, the list path of the exchange and Gale down-set
predicates for their path on families of a compiled universe, pairwise
``leq`` scans for the dominance-row order kernels and the
greatest-element scan, the scan of the whole ambient
quotient for the local down-set test, and, for the per-family kernels of
the subset sweeps, the extension walk for the DP over order ideals and
the per-family sweep for the pair scan of ``remark-bruhat-graph``, the
closure test of every one of the 2^m masks for the down-set enumerator, pairwise ``leq`` on every
shifted image for the Coxeter maximality sweep, and both that scan and
the list path for the maximality check on a compiled flag-tuple
universe. Sequences are random
k-subset and flag-vertex sequences, most of them not shelling orders,
plus grown shelling orders with and without a transposition that may
break them.
"""

import functools
import itertools
import math
import pickle
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from shellorder import (
    FacetSequence,
    FlagTuple,
    GraphKind,
    KSubset,
    LabeledGraph,
    OrderKind,
    PureComplex,
    ShellingWitness,
    dual_graph,
    elementary_move,
    evacuate,
    find_shelling_order,
    all_flag_tuples,
    all_ksubsets,
    gale_leq,
    has_quasi_exchange,
    induced_covers,
    is_linear_extension,
    is_coxeter_matroid,
    is_matroid,
    is_order_ideal,
    is_shelling_order,
    linear_extensions,
    promote,
    promote_via_moves,
    promotion_permutation,
    r_promote,
    shelling_orders,
    track,
)
from shellorder import bruhat, promotion, shelling, suites
from shellorder.bruhat import (
    Family,
    FlagTupleUniverse,
    KSubsetUniverse,
    leq,
    strictly_below_masks,
)
from shellorder.core import _bits, canonical_key
from shellorder.matroid import ExchangeWitness, MatroidVerdict
from shellorder.shelling import (
    _append_ok,
    _append_tables,
    _tally_orders,
    _walk_orders,
    facet_masks,
)
from shellorder.subdivision import barycentric, flag_facet
from shellorder.suites import (
    _fmt_seq,
    check_appending_swap,
    exhaustive_corpus,
    random_corpus,
)

from conftest import apply_positions, fork_pool, grow_shelling_order, reference_append_ok


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
def flag_sequences(draw, max_size=10):
    """Distinct flag-vertex facets (chains of prefix sets of k-tuples)."""
    n = draw(st.integers(2, 5))
    k = draw(st.integers(1, n))
    universe = list(itertools.permutations(range(1, n + 1), k))
    entries = draw(
        st.lists(st.sampled_from(universe), min_size=1, max_size=max_size, unique=True)
    )
    return FacetSequence(tuple(flag_facet(FlagTuple(n, e)) for e in entries))


any_sequences = st.one_of(ksubset_sequences(), grown_sequences(), flag_sequences())


def assert_append_ok_matches_ridge_list(masks, k, used):
    tables = _append_tables(masks)
    placed = [masks[i] for i in _bits(used)]
    for t in range(len(masks)):
        if not used >> t & 1:
            assert _append_ok(used, tables[t]) == reference_append_ok(placed, masks[t], k)


@settings(max_examples=300, deadline=None)
@given(any_sequences, st.data())
def test_append_ok_matches_ridge_list(seq, data):
    # any placed set, the empty one included, and every unplaced candidate
    masks, k = facet_masks(seq.items)
    used = data.draw(st.integers(0, (1 << len(masks)) - 1))
    assert_append_ok_matches_ridge_list(masks, k, used)


@pytest.mark.parametrize("universe", ["bjorner", "flags", "points"])
def test_append_ok_on_every_placed_set(universe, bjorner):
    # every placed set of an 11-facet universe, of a flag-facet one and
    # of k = 1 (points share the empty ridge, so every new point glues),
    # the empty set first, which accepts every candidate
    items = {
        "bjorner": bjorner.items,
        "flags": tuple(flag_facet(y) for y in all_flag_tuples(3, 2)),
        "points": tuple(all_ksubsets(7, 1)),
    }[universe]
    masks, k = facet_masks(items)
    tables = _append_tables(masks)
    assert all(_append_ok(0, row) for row in tables)
    for used in range(1 << len(masks)):
        assert_append_ok_matches_ridge_list(masks, k, used)


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


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_promote_matches_the_position_permutation(graph):
    seq = FacetSequence(tuple(KSubset(graph.order, (v,)) for v in range(1, graph.order + 1)))
    with mock.patch.object(promotion, "graph_of", lambda s, kind: graph):
        got = promote(seq)
    assert got == apply_positions(promotion_permutation(graph), seq)


@pytest.mark.parametrize("kind", list(GraphKind))
def test_promote_matches_the_position_permutation_on_bjorner(bjorner, kind):
    sigma = promotion_permutation(promotion.graph_of(bjorner, kind))
    assert promote(bjorner, kind) == apply_positions(sigma, bjorner)


# --- the ridge-incidence dual graph against the pair scan ------------------


def reference_dual_graph(seq):
    """(edges, rows) by testing every pair of positions for k - 1 shared
    vertices."""
    masks, k = facet_masks(seq.items)
    h = len(masks)
    edges = frozenset(
        (i + 1, j + 1)
        for i in range(h)
        for j in range(i + 1, h)
        if (masks[i] & masks[j]).bit_count() == k - 1
    )
    rows = [0] * (h + 1)
    for a, b in edges:
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return edges, tuple(rows)


@st.composite
def wide_ksubset_sequences(draw):
    """Up to 80 distinct k-subsets of [n], n <= 12 and k <= 5; about half
    are ridge neighbours of an earlier facet, so ridges shared by three or
    more facets are common."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(0, min(5, n)))
    h = draw(st.integers(1, min(80, math.comb(n, k))))
    rng = draw(st.randoms(use_true_random=False))
    masks = [sum(1 << v for v in rng.sample(range(n), k))]
    chosen = set(masks)
    while len(masks) < h:
        base = rng.choice(masks)
        if 0 < k < n and rng.random() < 0.5:
            inside = [v for v in range(n) if base >> v & 1]
            outside = [v for v in range(n) if not base >> v & 1]
            cand = base ^ 1 << rng.choice(inside) ^ 1 << rng.choice(outside)
        else:
            cand = sum(1 << v for v in rng.sample(range(n), k))
        if cand not in chosen:
            chosen.add(cand)
            masks.append(cand)
    return FacetSequence(tuple(KSubset.from_mask(n, m) for m in masks))


@settings(max_examples=400, deadline=None)
@given(st.one_of(any_sequences, wide_ksubset_sequences(), flag_sequences(max_size=40)))
def test_is_shelling_order_matches_pair_scan(seq):
    holds, certificates, failing = reference_is_shelling_order(seq)
    witness = is_shelling_order(seq)
    # the verdict is decided before any certificate is listed
    assert (witness.holds, witness.failing) == (holds, failing)
    assert witness._masks is not None
    assert witness.certificates == certificates
    # ==, hash and repr each list the certificates of a fresh witness
    eager = ShellingWitness(holds, certificates, failing)
    assert is_shelling_order(seq) == eager and eager == is_shelling_order(seq)
    assert hash(is_shelling_order(seq)) == hash(eager)
    assert repr(is_shelling_order(seq)) == repr(eager)


@settings(max_examples=300, deadline=None)
@given(st.one_of(wide_ksubset_sequences(), flag_sequences(max_size=40)))
def test_dual_graph_matches_pair_scan(seq):
    edges, rows = reference_dual_graph(seq)
    graph = dual_graph(seq)
    # track and has_edge first: up to 8k facets they read the masks
    assert track(graph) == reference_track(edges)
    span = range(-1, graph.order + 3)
    for a in span:
        for b in span:
            assert graph.has_edge(a, b) is ((min(a, b), max(a, b)) in edges)
    assert graph.rows == rows
    for a in span:
        assert graph.neighbors(a) == reference_neighbors(edges, a)
    assert graph.edges == edges
    # ==, hash and repr agree with the graph built from the edges
    want = LabeledGraph(len(seq), edges)
    assert dual_graph(seq) == want and want == dual_graph(seq)
    assert hash(dual_graph(seq)) == hash(want)
    # repr lists the edges from the rows, however they were given
    assert repr(dual_graph(seq)) == repr(LabeledGraph(len(seq), sorted(edges)))


def rows_unset(graph):
    try:
        LabeledGraph.rows.__get__(graph)
    except AttributeError:
        return True
    return False


@settings(max_examples=300, deadline=None)
@given(st.one_of(any_sequences, wide_ksubset_sequences(), flag_sequences()))
def test_dual_graph_of_masks_matches_pair_scan(seq):
    # up to 8k facets the graph is its facet masks: track, has_edge,
    # promote and elementary_move read them and leave the rows unset,
    # and each of rows, edges, ==, hash, repr and pickling fills them
    k = len(seq.items[0])
    seq = FacetSequence(seq.items[: max(1, 8 * k)])
    h = len(seq)
    edges, rows = reference_dual_graph(seq)
    graph = dual_graph(seq)
    assert track(graph) == reference_track(edges)
    span = range(-1, h + 3)
    for a in span:
        for b in span:
            assert graph.has_edge(a, b) is ((min(a, b), max(a, b)) in edges)
    assert promote(seq) == reference_promote(seq)
    for i in range(1, h):
        items = list(seq.items)
        if (i, i + 1) not in edges:
            items[i - 1], items[i] = items[i], items[i - 1]
        assert elementary_move(seq, i) == FacetSequence(tuple(items))
    # k = 0 has one facet, past 8k, so its rows are built at once
    assert rows_unset(graph) is (k > 0)
    assert graph.rows == rows
    assert dual_graph(seq).edges == edges
    want = LabeledGraph(h, edges)
    assert dual_graph(seq) == want and want == dual_graph(seq)
    assert hash(dual_graph(seq)) == hash(want)
    assert repr(dual_graph(seq)) == repr(want)
    copy = pickle.loads(pickle.dumps(dual_graph(seq)))
    assert copy == want and copy.rows == rows and copy._masks is None


def test_hasse_graph_matches_the_pair_built_graph(bjorner):
    position = {item: i + 1 for i, item in enumerate(bjorner.items)}
    covers = induced_covers(bjorner.support(), OrderKind.GALE)
    want = LabeledGraph(len(bjorner), [(position[lo], position[hi]) for lo, hi in covers])
    graph = promotion.graph_of(bjorner, GraphKind.HASSE)
    assert graph.rows == want.rows
    assert track(graph) == reference_track(want.edges)
    assert graph.edges == want.edges
    assert graph == want and want == graph and hash(graph) == hash(want)


def reference_promote(seq):
    graph = LabeledGraph(len(seq), reference_dual_graph(seq)[0])
    return apply_positions(promotion_permutation(graph), seq)


def reference_evacuate(seq):
    for r in range(len(seq), 1, -1):
        seq = FacetSequence(reference_promote(FacetSequence(seq.items[:r])).items + seq.items[r:])
    return seq


def reference_promote_via_moves(seq):
    items = list(seq.items)
    k = len(items[0])
    for i in range(len(items) - 1):
        if (items[i].mask & items[i + 1].mask).bit_count() != k - 1:
            items[i], items[i + 1] = items[i + 1], items[i]
    return FacetSequence(tuple(items))


@pytest.mark.parametrize(
    "seed, n, k, h", [(1, 9, 3, 60), (2, 10, 4, 100), (3, 11, 3, 130), (4, 12, 4, 160)]
)
def test_long_promotions_match_the_pair_scan_graph(seed, n, k, h):
    seq = grow_shelling_order(seed, n, k, h)
    assert promote(seq) == reference_promote(seq)
    assert evacuate(seq) == reference_evacuate(seq)
    assert promote_via_moves(seq) == reference_promote_via_moves(seq)


# --- the order walker against the recursions it replaced -------------------


def reference_linear_extensions(elements, kind):
    elems = sorted(set(elements), key=canonical_key)
    h = len(elems)
    below = strictly_below_masks(elems, kind)
    acc = []

    def rec(placed):
        if len(acc) == h:
            yield FacetSequence(tuple(acc))
            return
        for t in range(h):
            bit = 1 << t
            if not placed & bit and below[t] & ~placed == 0:
                acc.append(elems[t])
                yield from rec(placed | bit)
                acc.pop()

    return rec(0)


def reference_shelling_orders(complex_):
    facets = sorted(complex_, key=canonical_key)
    masks, k = facet_masks(tuple(facets))
    h = len(facets)
    order, placed = [], []

    def rec(used):
        if len(order) == h:
            yield FacetSequence(tuple(facets[t] for t in order))
            return
        for t in range(h):
            if used >> t & 1:
                continue
            if reference_append_ok(placed, masks[t], k):
                order.append(t)
                placed.append(masks[t])
                yield from rec(used | 1 << t)
                order.pop()
                placed.pop()

    return rec(0)


def reference_find_shelling_order(complex_):
    facets = sorted(complex_, key=canonical_key)
    masks, k = facet_masks(tuple(facets))
    h = len(facets)
    order, placed = [], []

    def rec(used):
        if len(order) == h:
            return True
        for t in [t for t in range(h) if not used >> t & 1]:
            if reference_append_ok(placed, masks[t], k):
                order.append(t)
                placed.append(masks[t])
                if rec(used | 1 << t):
                    return True
                order.pop()
                placed.pop()
        return False

    if rec(0):
        return FacetSequence(tuple(facets[t] for t in order))
    return None


def reference_walk_extensions_checking(below, accept, full, describe):
    """(checks, rejections, describe(first rejected prefix)) of the orders
    of the indices of ``full``, with ``accept(used, t)`` at every append:
    the extension walk that ``_tally_orders`` replaced."""
    members = list(_bits(full))
    checks = failures = 0
    first = None
    prefix = []

    def rec(used):
        nonlocal checks, failures, first
        if len(prefix) == len(members):
            checks += 1
            return
        for t in members:
            bit = 1 << t
            if used & bit or below[t] & full & ~used:
                continue
            if accept(used, t):
                prefix.append(t)
                rec(used | bit)
                prefix.pop()
            else:
                checks += 1
                failures += 1
                if first is None:
                    first = describe(prefix + [t])

    rec(0)
    return checks, failures, first


def oracle_accept(masks, k):
    """The ridge-list append test as an ``accept(used, t)`` rule."""
    return lambda used, t: reference_append_ok(
        [masks[i] for i in _bits(used)], masks[t], k
    )


def reference_walk(below, masks=None, k=0):
    """The recursion of the reference enumerators, yielding the full
    orders the walker yields."""
    h = len(below)
    prefix, placed = [], []

    def rec(used):
        if len(prefix) == h:
            yield tuple(prefix)
            return
        for t in range(h):
            bit = 1 << t
            if used & bit or below[t] & ~used:
                continue
            if masks is None or reference_append_ok(placed, masks[t], k):
                prefix.append(t)
                if masks is not None:
                    placed.append(masks[t])
                yield from rec(used | bit)
                prefix.pop()
                if masks is not None:
                    placed.pop()

    return rec(0)


@st.composite
def below_dags(draw, h):
    """Below-masks of a random DAG on h indices, in a random topological
    order, so that index order and the DAG disagree."""
    rank = draw(st.permutations(range(h)))
    below = [0] * h
    for i in range(h):
        for j in range(i):
            if draw(st.booleans()):
                below[rank[i]] |= 1 << rank[j]
    return below


@st.composite
def facet_mask_lists(draw):
    """(masks, k) of h distinct random k-subset or flag-vertex facets."""
    facets = draw(st.one_of(ksubset_sequences(), flag_sequences())).items
    return facet_masks(facets)


@st.composite
def walks(draw):
    masks, k = draw(facet_mask_lists())
    h = min(len(masks), 7)
    return draw(below_dags(h)), masks[:h], k


@settings(max_examples=300, deadline=None)
@given(walks())
def test_walker_matches_recursion(walk):
    below, masks, k = walk
    assert [tuple(o) for o in _walk_orders(below)] == list(reference_walk(below))
    got = [tuple(o) for o in _walk_orders(below, _append_tables(masks))]
    assert got == list(reference_walk(below, masks, k))


@st.composite
def gale_sets(draw):
    n = draw(st.integers(2, 6))
    k = draw(st.integers(1, n - 1))
    universe = list(itertools.combinations(range(1, n + 1), k))
    members = draw(st.lists(st.sampled_from(universe), min_size=1, max_size=7, unique=True))
    return {KSubset(n, m) for m in members}, OrderKind.GALE


@st.composite
def conf_sets(draw):
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, n))
    universe = list(itertools.permutations(range(1, n + 1), k))
    entries = draw(st.lists(st.sampled_from(universe), min_size=1, max_size=7, unique=True))
    return {FlagTuple(n, e) for e in entries}, OrderKind.CONF


@settings(max_examples=300, deadline=None)
@given(st.one_of(gale_sets(), conf_sets()))
def test_linear_extensions_and_shelling_tallies_match_recursion(case):
    elements, kind = case
    assert list(linear_extensions(elements, kind)) == list(
        reference_linear_extensions(elements, kind)
    )
    elems = sorted(elements, key=canonical_key)
    if kind is OrderKind.GALE:
        fmasks, k = facet_masks(tuple(elems))
    else:
        fmasks, k = facet_masks(tuple(flag_facet(y) for y in elems))
    below = strictly_below_masks(elems, kind)
    full = (1 << len(elems)) - 1
    checks, failures, first = _tally_orders(below, _append_tables(fmasks), full)
    assert (
        checks, failures, None if first is None else tuple(first)
    ) == reference_walk_extensions_checking(below, oracle_accept(fmasks, k), full, tuple)


@settings(max_examples=300, deadline=None)
@given(st.one_of(ksubset_sequences(), flag_sequences()))
def test_shelling_search_matches_recursion(seq):
    # at most 6 facets keeps the full enumeration within 6! orders
    complex_ = PureComplex.of(seq.items[:6])
    assert list(shelling_orders(complex_)) == list(reference_shelling_orders(complex_))
    assert find_shelling_order(complex_) == reference_find_shelling_order(complex_)


def reference_random_corpus(n, k, samples, seed, h_max):
    """The growth sampler on facets and the ridge-list test, with the
    random calls of ``random_corpus`` on lists of the same lengths."""
    rng = random.Random(seed)
    facets = list(all_ksubsets(n, k))
    out = []
    while len(out) < samples:
        target = rng.randint(1, h_max)
        pool = list(facets)
        rng.shuffle(pool)
        chosen = [pool.pop()]
        while len(chosen) < target:
            placed = [f.mask for f in chosen]
            fits = [f for f in pool if reference_append_ok(placed, f.mask, k)]
            if not fits:
                break
            follower = rng.choice(fits)
            pool.remove(follower)
            chosen.append(follower)
        out.append(FacetSequence(tuple(chosen)))
    return tuple(out)


@pytest.mark.parametrize(
    "n, k, samples, seed, h_max",
    [(8, 3, 150, 1, 12), (6, 3, 300, 13, 8), (5, 2, 300, 4, 6), (6, 1, 100, 2, 5)],
)
def test_random_corpus_matches_the_reference_sampler(n, k, samples, seed, h_max):
    assert random_corpus(n, k, samples, seed, h_max) == reference_random_corpus(
        n, k, samples, seed, h_max
    )


@pytest.mark.parametrize(
    "n, k, max_facets", [(4, 1, 4), (4, 2, 4), (5, 2, 3), (4, 3, 4), (5, 3, 3)]
)
def test_exhaustive_corpus_matches_filtered_permutations(n, k, max_facets):
    # permutations of a sorted combination come in the walker's order
    want = []
    facets = list(all_ksubsets(n, k))
    for size in range(1, max_facets + 1):
        for combo in itertools.combinations(facets, size):
            for perm in itertools.permutations(combo):
                seq = FacetSequence(perm)
                if reference_is_shelling_order(seq)[0]:
                    want.append(seq)
    assert exhaustive_corpus(n, k, max_facets) == tuple(want)


# --- the exchange routine against separate scans ---------------------------


def reference_is_matroid(facets):
    elems = sorted(set(facets), key=canonical_key)
    masks = {x.mask for x in elems}
    for a_set in elems:
        for b_set in elems:
            cut = a_set.mask & ~b_set.mask
            if not cut:
                continue
            swap_in = b_set.mask & ~a_set.mask
            for a in a_set.members:
                abit = 1 << (a - 1)
                if not cut & abit:
                    continue
                base = a_set.mask ^ abit
                if not any(
                    base | (1 << (b - 1)) in masks
                    for b in b_set.members
                    if swap_in >> (b - 1) & 1
                ):
                    return MatroidVerdict(False, ExchangeWitness(a_set, b_set, a))
    return MatroidVerdict(True)


def reference_has_quasi_exchange(facets):
    elems = sorted(set(facets), key=canonical_key)
    masks = {x.mask for x in elems}
    for x in elems:
        for y in elems:
            gain = y.mask & ~x.mask
            if not gain:
                continue
            top = gain.bit_length()
            for i in x.members:
                if i <= top or y.mask >> (i - 1) & 1:
                    continue
                base = x.mask ^ (1 << (i - 1))
                if not any(
                    base | (1 << (j - 1)) in masks
                    for j in y.members
                    if gain >> (j - 1) & 1
                ):
                    return MatroidVerdict(False, ExchangeWitness(x, y, i))
    return MatroidVerdict(True)


def _families(universe):
    for mask in range(1, 1 << len(universe)):
        yield [universe[t] for t in range(len(universe)) if mask >> t & 1]


def test_exchange_verdicts_match_on_all_families_of_2_subsets_of_5():
    universe = [KSubset(5, m) for m in itertools.combinations(range(1, 6), 2)]
    for family in _families(universe):
        assert is_matroid(family) == reference_is_matroid(family)
        assert has_quasi_exchange(family) == reference_has_quasi_exchange(family)


def test_exchange_verdicts_match_on_mixed_sizes():
    universe = [
        KSubset(3, m) for size in (1, 2, 3) for m in itertools.combinations(range(1, 4), size)
    ]
    for family in _families(universe):
        assert is_matroid(family) == reference_is_matroid(family)
        assert has_quasi_exchange(family) == reference_has_quasi_exchange(family)
    # y\x empty: basis exchange fails, quasi-exchange demands nothing
    twelve, one = KSubset(3, (1, 2)), KSubset(3, (1,))
    assert is_matroid([twelve, one]) == MatroidVerdict(
        False, ExchangeWitness(twelve, one, 2)
    )
    assert has_quasi_exchange([twelve, one]).holds


# --- compiled universes: family masks against the list path ----------------


@functools.cache
def compiled_universe(n, k):
    return KSubsetUniverse.of(n, k)


def assert_family_matches_list(n, k, mask):
    universe = compiled_universe(n, k)
    family = Family(universe, mask)
    facets = [universe.facets[t] for t in _bits(mask)]
    assert list(family) == facets
    # verdict and witness: the first failure over x, y and i ascending
    assert has_quasi_exchange(family) == has_quasi_exchange(facets)
    assert is_matroid(family) == is_matroid(facets)
    gale = OrderKind.GALE
    assert is_order_ideal(family, gale) == is_order_ideal(facets, gale)


@pytest.mark.parametrize("n, k", [(4, 2), (5, 2), (5, 3)])
def test_family_verdicts_match_the_list_path_on_every_family(n, k):
    for mask in range(1 << math.comb(n, k)):
        assert_family_matches_list(n, k, mask)


@st.composite
def wide_families(draw):
    """A family of (6, 2) or (6, 3), or the Gale down-closure of one:
    most families lack quasi-exchange, and every down-set has it."""
    n, k = draw(st.sampled_from([(6, 2), (6, 3)]))
    m = math.comb(n, k)
    if draw(st.booleans()):
        return n, k, draw(st.integers(0, (1 << m) - 1))
    below = compiled_universe(n, k).below
    mask = 0
    for t in draw(st.lists(st.integers(0, m - 1), max_size=3)):
        mask |= 1 << t | below[t]
    return n, k, mask


@given(wide_families())
@settings(max_examples=300, deadline=None)
def test_family_verdicts_match_the_list_path_on_random_families(case):
    assert_family_matches_list(*case)


@pytest.mark.parametrize("kind", [OrderKind.CONF, OrderKind.PERM])
def test_family_order_ideal_outside_the_gale_order_raises_like_the_list(kind):
    family = Family(compiled_universe(4, 2), 0b100101)
    with pytest.raises(TypeError) as want:
        is_order_ideal(list(family), kind)
    with pytest.raises(TypeError) as got:
        is_order_ideal(family, kind)
    assert str(got.value) == str(want.value)


def test_family_is_checked_at_construction():
    universe = compiled_universe(4, 2)  # 6 facets
    for mask in (-1, 1 << 6, 0b1000001):
        with pytest.raises(ValueError, match="leaves the universe's 6 ids"):
            Family(universe, mask)
    with pytest.raises(TypeError, match="expected a KSubsetUniverse"):
        Family(list(universe.facets), 1)
    assert list(Family(universe, 0)) == []


@pytest.mark.parametrize("n, k", [(4, 2), (5, 2), (5, 3), (6, 2), (6, 3)])
def test_exchange_tables_drop_exactly_the_self_partnered_demands(n, k):
    # every demand (1 << y, i, ids) of x, listed in full, against the rows
    universe = compiled_universe(n, k)
    masks, id_of = universe.masks, universe.id_of
    for x, xm in enumerate(masks):
        kept, kept_quasi = [], []
        for y, ym in enumerate(masks):
            gain = ym & ~xm
            for i in _bits(xm & ~ym):
                partners = [xm ^ 1 << i | 1 << j for j in _bits(gain)]
                demand = (1 << y, i + 1, sum(1 << id_of[p] for p in partners))
                if ym in partners:
                    # dropped only where y is x - i + j: one element away
                    assert partners == [ym] and (xm ^ ym).bit_count() == 2
                    continue
                kept.append(demand)
                if i + 1 > gain.bit_length():
                    kept_quasi.append(demand)
        assert universe.exchange[x] == tuple(kept)
        assert universe.quasi[x] == tuple(kept_quasi)


@pytest.mark.parametrize("n, k", [(4, 2), (5, 2), (5, 3), (6, 3)])
def test_lower_byte_tables_or_the_lower_covers_of_each_byte(n, k):
    # m = 6, 10, 10 and 20 ids: the last table of each is narrower than 8
    universe = compiled_universe(n, k)
    m = len(universe.facets)
    lower = [0] * m  # the ids of each id's lower covers in the whole quotient
    for a, b in reference_induced_covers(universe.facets, OrderKind.GALE):
        lower[universe.id_of[b.mask]] |= 1 << universe.id_of[a.mask]
    assert len(universe.lower_bytes) == -(-m // 8)
    for c, chunk in enumerate(universe.lower_bytes):
        ids = range(8 * c, min(8 * c + 8, m))
        assert len(chunk) == 1 << len(ids)
        for b, entry in enumerate(chunk):
            want = 0
            for t in ids:
                if b >> (t - 8 * c) & 1:
                    want |= lower[t]
            assert entry == want


def test_family_down_set_test_matches_the_list_path_on_seeded_wide_families():
    # (6, 3) has 20 ids, three byte tables; every down-set, each down-set
    # less one seeded member, and seeded masks.  Every family of (5, 2)
    # and (5, 3) is compared in the test of all family verdicts above
    universe = compiled_universe(6, 3)
    rng = random.Random(23)
    ideals = [mask for mask in bruhat.order_ideals(universe.below) if mask]
    masks = ideals + [mask ^ 1 << rng.choice(list(_bits(mask))) for mask in ideals]
    masks += [rng.getrandbits(20) for _ in range(2_000)]
    verdicts = []
    for mask in masks:
        family = Family(universe, mask)
        verdicts.append(is_order_ideal(family, OrderKind.GALE))
        assert verdicts[-1] == is_order_ideal(list(family), OrderKind.GALE)
    assert verdicts[: len(ideals)] == [True] * len(ideals)
    assert False in verdicts[len(ideals) :] and True in verdicts[len(ideals) :]


# --- the order kernels against pairwise leq --------------------------------


def reference_strictly_below_masks(elems, kind):
    m = len(elems)
    below = [0] * m
    for i in range(m):
        for j in range(m):
            if i != j and leq(elems[j], elems[i], kind):
                below[i] |= 1 << j
    return below


def reference_induced_covers(elements, kind):
    elems = sorted(set(elements), key=canonical_key)
    m = len(elems)
    lt = [[i != j and leq(elems[i], elems[j], kind) for j in range(m)] for i in range(m)]
    covers = set()
    for i in range(m):
        for j in range(m):
            if lt[i][j] and not any(lt[i][t] and lt[t][j] for t in range(m)):
                covers.add((elems[i], elems[j]))
    return covers


def reference_ambient(kind, n, k):
    if kind is OrderKind.GALE:
        return all_ksubsets(n, k)
    if kind is OrderKind.CONF:
        return all_flag_tuples(n, k)
    return all_flag_tuples(n, n)


def reference_is_order_ideal(elements, kind):
    elems = set(elements)
    if not elems:
        return True
    sample = next(iter(elems))
    n, k = sample.n, len(sample)
    for y in reference_ambient(kind, n, k):
        if y not in elems and any(leq(y, x, kind) for x in elems):
            return False
    return True


def reference_is_linear_extension(seq, elements, kind):
    items = seq.items
    if set(items) != set(elements):
        raise ValueError("sequence is not a permutation of the given facets")
    for j in range(1, len(items)):
        for i in range(j):
            if leq(items[j], items[i], kind):
                return False
    return True


@st.composite
def order_lists(draw):
    """A kind and a list over one quotient: a random set, a down-set
    (whole, or missing one random element), or a list with repeats."""
    kind = draw(st.sampled_from(list(OrderKind)))
    if kind is OrderKind.GALE:
        n = draw(st.integers(1, 7))
        k = draw(st.integers(0, n))
    else:
        n = draw(st.integers(1, 4))
        k = n if kind is OrderKind.PERM else draw(st.integers(1, n))
    universe = list(reference_ambient(kind, n, k))
    pick = st.sampled_from(universe)
    shape = draw(st.sampled_from(["set", "down-set", "repeats"]))
    if shape == "set":
        elems = draw(st.lists(pick, min_size=1, max_size=9, unique=True))
    elif shape == "repeats":
        elems = draw(st.lists(pick, min_size=1, max_size=9))
    else:
        tops = draw(st.lists(pick, min_size=1, max_size=3))
        elems = [y for y in universe if any(leq(y, top, kind) for top in tops)]
        if len(elems) > 1 and draw(st.booleans()):
            del elems[draw(st.integers(0, len(elems) - 1))]
    return kind, draw(st.permutations(elems))


# ``leq`` on immutable values, each pair compared once per test run and
# order: the maximality references meet the same pairs under many
# permutations
cached_leq = {kind: functools.cache(functools.partial(leq, kind=kind)) for kind in OrderKind}


def reference_unique_maximum(elements, kind):
    """The element above every element, by pairwise ``leq``: an element
    not below the candidate replaces it, so a greatest element, once
    met, stays the candidate; a second pass confirms it."""
    below = cached_leq[kind]
    elems = sorted(set(elements), key=canonical_key)
    cand = elems[0]
    for x in elems:
        if not below(x, cand):
            cand = x
    return cand if all(below(x, cand) for x in elems) else None


@settings(max_examples=500, deadline=None)
@given(order_lists())
def test_order_kernels_match_pairwise_leq(case):
    kind, elems = case
    assert strictly_below_masks(elems, kind) == reference_strictly_below_masks(elems, kind)
    assert induced_covers(elems, kind) == reference_induced_covers(elems, kind)
    assert is_order_ideal(elems, kind) == reference_is_order_ideal(elems, kind)
    key = bruhat._dominance_key(kind)
    best = bruhat._greatest([key(tuple(x)) for x in elems])
    assert (None if best is None else elems[best]) == reference_unique_maximum(elems, kind)


@functools.cache
def reference_shift(w, x):
    """w applied to each value of x, kept once per pair for the test run."""
    if isinstance(x, KSubset):
        return KSubset(x.n, tuple(sorted(w[v - 1] for v in x.members)))
    return FlagTuple(x.n, tuple(w[v - 1] for v in x.entries))


def reference_is_coxeter_matroid(elements):
    """Every w-shifted image has a greatest element, by pairwise ``leq``
    on each image, one permutation at a time."""
    elems = list(elements)
    n = elems[0].n
    kind = OrderKind.GALE if isinstance(elems[0], KSubset) else OrderKind.CONF
    for w in itertools.permutations(range(1, n + 1)):
        image = {reference_shift(w, x) for x in elems}
        if reference_unique_maximum(image, kind) is None:
            return False
    return True


@st.composite
def coxeter_families(draw):
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    if draw(st.booleans()):
        universe = [KSubset(n, c) for c in itertools.combinations(range(1, n + 1), k)]
    else:
        universe = [FlagTuple(n, e) for e in itertools.permutations(range(1, n + 1), k)]
    return draw(st.lists(st.sampled_from(universe), min_size=1, max_size=8, unique=True))


@settings(max_examples=200, deadline=None)
@given(coxeter_families())
def test_coxeter_maximality_matches_per_permutation_scan(family):
    assert is_coxeter_matroid(family) == reference_is_coxeter_matroid(family)


# --- compiled flag-tuple universes: the maximality kernel -------------------


@functools.cache
def compiled_flags(n, k):
    # one universe per shape for the whole test run, so each check starts
    # from the permutation order that the checks before it left
    return FlagTupleUniverse.of(n, k)


def assert_maximality_matches(n, k, mask):
    """The compiled check on a family of tuple ids against the list path
    and the pairwise scan."""
    flags = compiled_flags(n, k)
    tuples = [flags.facets[t] for t in _bits(mask)]
    got = is_coxeter_matroid(Family(flags, mask))
    assert got == is_coxeter_matroid(tuples) == reference_is_coxeter_matroid(tuples)
    return got


def subdivision_mask(n, k, ksubset_mask):
    """The tuple ids of the barycentric subdivision of a k-subset family."""
    X = Family(compiled_universe(n, k), ksubset_mask)
    id_of = compiled_flags(n, k).id_of
    return sum(1 << id_of[y.entries] for y in barycentric(PureComplex.of(X)))


@st.composite
def flag_families(draw):
    """A nonempty family of injective k-tuples of [n], n <= 5: any ids,
    or the barycentric subdivision of a k-subset family."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    if draw(st.booleans()):
        size = math.perm(n, k)
        ids = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=8))
        return n, k, sum(1 << t for t in set(ids))
    return n, k, subdivision_mask(n, k, draw(st.integers(1, (1 << math.comb(n, k)) - 1)))


@settings(max_examples=300, deadline=None)
@given(flag_families())
def test_compiled_maximality_matches_the_list_path_and_the_scan(case):
    assert_maximality_matches(*case)


@pytest.mark.parametrize("n, k", [(4, 2), (5, 2), (5, 3)])
def test_compiled_maximality_matches_on_every_subdivision(n, k):
    # every nonempty k-subset family: X is a matroid iff its subdivision
    # is a Coxeter matroid, so the verdicts are the exchange verdicts
    universe = compiled_universe(n, k)
    for mask in range(1, 1 << len(universe.facets)):
        got = assert_maximality_matches(n, k, subdivision_mask(n, k, mask))
        assert got == is_matroid(Family(universe, mask)).holds


@pytest.mark.parametrize("n, k", [(3, 2), (3, 3)])
def test_compiled_maximality_does_not_depend_on_the_permutation_order(n, k):
    # every family, with each permutation tried first: at either shape,
    # 18 of the 35 families of two or three tuples fail under exactly
    # one permutation
    flags = FlagTupleUniverse.of(n, k)
    images = list(flags.images)
    for mask in range(1, 1 << len(flags.facets)):
        want = is_coxeter_matroid(list(Family(flags, mask)))
        for image in images:
            flags.images.remove(image)
            flags.images.insert(0, image)
            assert is_coxeter_matroid(Family(flags, mask)) == want


def test_flag_tuple_universe_tables():
    flags = FlagTupleUniverse.of(4, 2)
    assert flags.facets == tuple(all_flag_tuples(4, 2))
    assert all(flags.id_of[y.entries] == t for t, y in enumerate(flags.facets))
    assert flags.below == reference_strictly_below_masks(list(flags.facets), OrderKind.CONF)
    # one id permutation per w in S_4, in lexicographic order of w
    ws = list(itertools.permutations(range(1, 5)))
    assert len(flags.images) == len(ws)
    for w, image in zip(ws, flags.images):
        for t, y in enumerate(flags.facets):
            assert image[t] == flags.id_of[tuple(w[v - 1] for v in y.entries)]


def test_flag_tuple_universe_bounded_before_listing():
    # (6, 5) and (6, 6) are the largest shapes a sweep compiles
    for n, k in [(6, 5), (6, 6)]:
        flags = FlagTupleUniverse.of(n, k)
        assert sum(map(len, flags.images)) == 518_400 <= bruhat.FLAG_UNIVERSE_MAX_ENTRIES
    # (7, 3) would list 5,040 image tuples of 210 ids each
    with mock.patch.object(bruhat, "all_flag_tuples") as listed:
        with pytest.raises(ValueError, match=r"bounded at 600000 image ids, got .* = 1058400$"):
            FlagTupleUniverse.of(7, 3)
    listed.assert_not_called()


def test_flag_family_predicates_outside_the_kernel_raise_like_the_list():
    flags = compiled_flags(4, 2)
    with pytest.raises(ValueError, match="empty set"):
        is_coxeter_matroid(Family(flags, 0))
    family = Family(flags, 0b1011)
    assert list(family) == [flags.facets[t] for t in (0, 1, 3)]
    # the k-subset kernels do not read flag universes: the list path's errors
    for check in (is_matroid, has_quasi_exchange):
        with pytest.raises(TypeError, match="expected KSubset facets"):
            check(family)
    with pytest.raises(TypeError, match="expected KSubset operands"):
        is_order_ideal(family, OrderKind.GALE)
    assert is_order_ideal(family, OrderKind.CONF) == is_order_ideal(list(family), OrderKind.CONF)


def _quotient_ideal_cases(kind, n, k, rng):
    """Sets over one CONF/PERM quotient: the down-set of every single top
    and of seeded pairs and triples of tops, each whole and without one
    seeded element, plus seeded random sets."""
    universe = list(reference_ambient(kind, n, k))
    tops = [[y] for y in universe]
    for size in (2, 3):
        if len(universe) >= size:
            tops += [rng.sample(universe, size) for _ in range(8)]
    for top in tops:
        down = [y for y in universe if any(leq(y, t, kind) for t in top)]
        yield down
        if len(down) > 1:
            drop = rng.choice(down)
            yield [y for y in down if y != drop]
    for _ in range(20):
        yield rng.sample(universe, rng.randint(1, min(6, len(universe))))


@pytest.mark.parametrize(
    "kind, n, k",
    [(OrderKind.CONF, n, k) for n in range(1, 6) for k in range(1, n + 1)]
    + [(OrderKind.PERM, n, n) for n in range(1, 6)],
)
def test_local_order_ideal_test_matches_ambient_scan(kind, n, k):
    rng = random.Random(f"{kind.value}-{n}-{k}")
    for elems in _quotient_ideal_cases(kind, n, k, rng):
        assert is_order_ideal(elems, kind) == reference_is_order_ideal(elems, kind)


@settings(max_examples=300, deadline=None)
@given(order_lists(), st.data())
def test_linear_extension_check_matches_pairwise_leq(case, data):
    kind, elems = case
    distinct = sorted(set(elems), key=canonical_key)
    if data.draw(st.booleans()):
        order = list(next(linear_extensions(distinct, kind)).items)
        if len(order) > 1:  # an adjacent swap may break it
            i = data.draw(st.integers(0, len(order) - 2))
            order[i], order[i + 1] = order[i + 1], order[i]
    else:
        order = data.draw(st.permutations(distinct))
    seq = FacetSequence(tuple(order))
    assert is_linear_extension(seq, distinct, kind) == reference_is_linear_extension(
        seq, distinct, kind
    )


# (kind, elements, error now, error from pairwise leq)
MALFORMED = [
    (OrderKind.GALE, [KSubset(4, (1, 2)), FlagTuple(4, (1, 2))], TypeError, TypeError),
    (OrderKind.GALE, [FlagTuple(4, (1, 2)), KSubset(4, (1, 2))], TypeError, TypeError),
    (OrderKind.CONF, [FlagTuple(4, (1, 2)), KSubset(4, (1, 2))], TypeError, TypeError),
    (OrderKind.CONF, [KSubset(4, (1, 2)), FlagTuple(4, (1, 2))], TypeError, TypeError),
    (OrderKind.PERM, [FlagTuple(3, (2, 1, 3)), KSubset(3, (1, 2, 3))], TypeError, TypeError),
    (OrderKind.GALE, [KSubset(4, (1, 2)), KSubset(5, (1, 2))], ValueError, ValueError),
    (OrderKind.GALE, [KSubset(4, (1, 2)), KSubset(4, (1, 2, 3))], ValueError, ValueError),
    (OrderKind.CONF, [FlagTuple(4, (1, 2)), FlagTuple(5, (1, 2))], ValueError, ValueError),
    (OrderKind.CONF, [FlagTuple(4, (1, 2)), FlagTuple(4, (2, 1, 3))], ValueError, ValueError),
    (OrderKind.PERM, [FlagTuple(3, (2, 1, 3)), FlagTuple(3, (2, 1))], ValueError, ValueError),
    (OrderKind.PERM, [FlagTuple(3, (2, 1)), FlagTuple(3, (2, 1, 3))], ValueError, ValueError),
    (
        OrderKind.PERM,
        [FlagTuple(3, (2, 1, 3)), FlagTuple(4, (1, 2, 3, 4))],
        ValueError,
        ValueError,
    ),
]


@pytest.mark.parametrize("kind, elems, error, pairwise_error", MALFORMED)
def test_order_kernels_reject_malformed_lists(kind, elems, error, pairwise_error):
    with pytest.raises(pairwise_error):
        reference_strictly_below_masks(elems, kind)
    with pytest.raises(error):
        strictly_below_masks(elems, kind)
    with pytest.raises(error):
        induced_covers(elems, kind)
    # the down-set test checks the shapes first
    with pytest.raises(error):
        is_order_ideal(elems, kind)


# --- the covers of the last support, kept between calls --------------------


@pytest.fixture
def fresh_covers():
    """An empty covers memo before and after a test that counts or
    patches what ``induced_covers`` calls."""
    bruhat._support_covers.cache_clear()
    yield
    bruhat._support_covers.cache_clear()


def test_covers_memo_hands_out_a_fresh_set_each_call():
    support = list(all_ksubsets(5, 2))
    want = reference_induced_covers(support, OrderKind.GALE)
    first = induced_covers(support, OrderKind.GALE)
    assert first == want
    first.pop()
    first.add((support[0], support[0]))
    second = induced_covers(support, OrderKind.GALE)
    assert second == want and second is not first
    second.clear()
    assert induced_covers(support, OrderKind.GALE) == want


@pytest.mark.parametrize("kind, elems, error, _", MALFORMED)
def test_covers_memo_keeps_no_error(kind, elems, error, _):
    for _ in range(2):
        with pytest.raises(error):
            induced_covers(elems, kind)


def test_covers_memo_is_keyed_on_equal_supports_and_the_kind():
    tuples = [FlagTuple(4, p) for p in itertools.permutations(range(1, 5), 2)]
    copies = [FlagTuple(4, y.entries) for y in reversed(tuples)]
    want = reference_induced_covers(tuples, OrderKind.CONF)
    assert induced_covers(tuples, OrderKind.CONF) == want
    assert induced_covers(set(copies), OrderKind.CONF) == want
    # the same tuples under PERM: not full permutations
    with pytest.raises(ValueError):
        induced_covers(copies, OrderKind.PERM)
    perms = [FlagTuple(3, p) for p in itertools.permutations(range(1, 4))]
    for kind in (OrderKind.CONF, OrderKind.PERM, OrderKind.CONF):
        assert induced_covers(perms, kind) == reference_induced_covers(perms, kind)
    subsets = list(all_ksubsets(4, 2))
    assert induced_covers(subsets, OrderKind.GALE) == reference_induced_covers(
        subsets, OrderKind.GALE
    )
    # the same subsets under CONF: not flag tuples
    with pytest.raises(TypeError):
        induced_covers(subsets, OrderKind.CONF)


def test_extensions_of_one_support_share_its_covers(monkeypatch, fresh_covers):
    support = [y for y in all_ksubsets(5, 2) if gale_leq(y, KSubset(5, (3, 5)))]
    orders = list(linear_extensions(support, OrderKind.GALE))
    want = []
    for seq in orders:
        position = {item: i + 1 for i, item in enumerate(seq.items)}
        covers = reference_induced_covers(support, OrderKind.GALE)
        graph = LabeledGraph(len(seq), [(position[a], position[b]) for a, b in covers])
        want.append(apply_positions(promotion_permutation(graph), seq))
    rows = []
    honest = bruhat.strictly_below_masks

    def counted(elems, kind):
        rows.append(len(elems))
        return honest(elems, kind)

    monkeypatch.setattr(bruhat, "strictly_below_masks", counted)
    assert [promote(seq, GraphKind.HASSE) for seq in orders] == want
    assert len(orders) > 1 and rows == [len(support)]


def _refuse_construction(monkeypatch, cls):
    """Make every later ``cls(...)`` raise: a test that a kernel lists
    nothing of the ambient quotient, which would build its elements."""

    def refuse(self):
        raise AssertionError(f"a {cls.__name__} was built")

    monkeypatch.setattr(cls, "__post_init__", refuse)


def test_gale_order_ideal_does_not_list_the_ambient_quotient(monkeypatch):
    top = KSubset(20, (4, 8, 12, 16, 20))
    ideal = [y for y in all_ksubsets(20, 5) if gale_leq(y, top)]
    bottom = KSubset(20, (1, 2, 3, 4, 5))
    _refuse_construction(monkeypatch, KSubset)
    assert is_order_ideal(ideal, OrderKind.GALE)
    assert not is_order_ideal(ideal[1:], OrderKind.GALE)  # without 12345
    assert not is_order_ideal([top], OrderKind.GALE)
    assert is_order_ideal([bottom], OrderKind.GALE)


def test_conf_and_perm_order_ideals_do_not_list_the_ambient_quotient(monkeypatch):
    n = 12
    rest = tuple(range(5, n + 1))
    identity = FlagTuple(n, tuple(range(1, n + 1)))
    s1 = FlagTuple(n, (2, 1, 3, 4) + rest)
    s2 = FlagTuple(n, (1, 3, 2, 4) + rest)
    # the Bruhat interval below 3412 lies in the copy of S_4 on [4]
    top = FlagTuple(n, (3, 4, 1, 2) + rest)
    interval = [
        FlagTuple(n, head + rest)
        for head in itertools.permutations(range(1, 5))
        if leq(FlagTuple(n, head + rest), top, OrderKind.PERM)
    ]
    conf_top = FlagTuple(n, (3, 1, 2))
    conf_ideal = [y for y in all_flag_tuples(n, 3) if leq(y, conf_top, OrderKind.CONF)]
    far = FlagTuple(n, (12, 11, 10))
    _refuse_construction(monkeypatch, FlagTuple)
    for kind in (OrderKind.CONF, OrderKind.PERM):
        assert is_order_ideal([identity, s1], kind)
        assert not is_order_ideal([identity, top], kind)
        assert is_order_ideal(interval, kind)
        assert not is_order_ideal(interval[1:], kind)  # without the identity
        assert not is_order_ideal([y for y in interval if y != s2], kind)
    assert len(interval) == 14
    assert is_order_ideal(conf_ideal, OrderKind.CONF)
    assert not is_order_ideal(conf_ideal + [far], OrderKind.CONF)
    assert not is_order_ideal([far], OrderKind.CONF)


def test_first_extension_of_1035_facets_needs_no_pairwise_leq(monkeypatch):
    facets = tuple(all_ksubsets(46, 2))

    def refuse(*args):
        raise AssertionError("pairwise leq was called")

    for name in ("leq", "gale_leq", "conf_leq", "perm_leq"):
        monkeypatch.setattr(bruhat, name, refuse)
    first = next(linear_extensions(facets, OrderKind.GALE))
    assert len(first) == 1_035
    assert first.items == facets


def test_appending_swap_builds_no_validated_sequence(monkeypatch):
    corpus = random_corpus(6, 3, 200, seed=13, h_max=8)
    broken = FacetSequence(tuple(KSubset(6, m) for m in ((1, 2), (3, 4), (5, 6))))
    want = [check_appending_swap(C) for C in corpus + (broken,)]
    assert want[-1] is not None and want.count(None) == len(corpus)
    # the swap of a validated order is wrapped, not validated again
    _refuse_construction(monkeypatch, FacetSequence)
    assert [check_appending_swap(C) for C in corpus + (broken,)] == want


@pytest.mark.parametrize("n, k", [(4, 2), (5, 2), (5, 3)])
def test_barycentric_builds_no_validated_tuple(monkeypatch, n, k):
    universe = compiled_universe(n, k)
    m = len(universe.facets)
    rng = random.Random(n * 10 + k)
    masks = [(1 << m) - 1] + [rng.randrange(1, 1 << m) for _ in range(100)]
    complexes = [PureComplex.of(Family(universe, mask)) for mask in masks]
    want = [
        {FlagTuple(n, p) for x in X for p in itertools.permutations(x.members)}
        for X in complexes
    ]
    _refuse_construction(monkeypatch, FlagTuple)
    assert [barycentric(X) for X in complexes] == want


# --- the per-family sweep kernels against recursions and per-pair scans ------


@settings(max_examples=300, deadline=None)
@given(walks())
def test_ideal_dp_matches_recursion(walk):
    below, masks, k = walk
    full = (1 << len(below)) - 1
    checks, failures, first = _tally_orders(below, _append_tables(masks), full)
    assert (
        checks, failures, None if first is None else tuple(first)
    ) == reference_walk_extensions_checking(below, oracle_accept(masks, k), full, tuple)


def recursive_tally_orders(below, tables, full):
    """The extension walk that the ideal DP replaced, as a recursion over
    the indices of ``full``, calling ``_append_ok`` through its module
    binding so that it sees any patch of it."""
    return reference_walk_extensions_checking(
        below, lambda used, t: shelling._append_ok(used, tables[t]), full, list
    )


@settings(max_examples=300, deadline=None)
@given(walks(), st.data())
def test_ideal_dp_on_a_subfamily_matches_the_renumbered_recursion(walk, data):
    # the sweeps pass universe rows and one family mask; only the
    # family's indices and the rows restricted to it may count
    below, masks, k = walk
    full = data.draw(st.integers(1, (1 << len(below)) - 1))
    tables = _append_tables(masks)
    assert _tally_orders(below, tables, full) == recursive_tally_orders(below, tables, full)
    assert _tally_orders(below, tables, full) == reference_walk_extensions_checking(
        below, oracle_accept(masks, k), full, list
    )


def _report(report):
    return report.instances, report.checks, report.failures, report.first_counterexample


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "sweep, n, k",
    [
        (suites.extensions_shell, 4, 2),
        (suites.extensions_shell, 5, 2),
        (suites.extensions_shell, 5, 3),
        (suites.conf_ideals_flagshell, 3, 2),
        (suites.conf_ideals_flagshell, 4, 2),
    ],
)
@pytest.mark.parametrize("salt", [0, 3])
def test_extension_sweeps_match_the_recursion_with_rejecting_appends(
    monkeypatch, sweep, n, k, jobs, salt
):
    fork_pool(monkeypatch)

    def rejecting(used, row):
        # a function of the placed set and the candidate's row, as the DP
        # requires; rejects about a fifth of the appends the shelling
        # condition accepts
        return _append_ok(used, row) and (used * 7 + hash(row) + salt) % 5 != 0

    monkeypatch.setattr(shelling, "_append_ok", rejecting)
    got = _report(sweep(n, k, jobs=jobs))
    monkeypatch.setattr(suites, "_tally_orders", recursive_tally_orders)
    want = _report(sweep(n, k, jobs=jobs))
    assert got == want
    assert got[2] > 0


@pytest.mark.parametrize(
    "sweep, n, k", [(suites.extensions_shell, 5, 2), (suites.conf_ideals_flagshell, 4, 2)]
)
def test_extension_sweeps_match_the_recursion(monkeypatch, sweep, n, k):
    got = _report(sweep(n, k))
    monkeypatch.setattr(suites, "_tally_orders", recursive_tally_orders)
    assert got == _report(sweep(n, k))


def reference_remark_setup(n, k):
    """The per-family sweep that the pair scan replaced: every nonempty
    family of the k-subsets of [n] counts its pairs as checks and the
    bad pairs it holds as failures, the first of them in ``combinations``
    order as its counterexample.  Each pair is judged once."""
    facets = list(all_ksubsets(n, k))
    exchange = {y: suites._transposition_neighbors(y) for y in facets}
    below = strictly_below_masks(facets, OrderKind.GALE)

    def verdict(s, t):
        a, b = facets[s], facets[t]
        pair = f"({suites._fmt_facet(a)},{suites._fmt_facet(b)})"
        is_ridge = (a.mask & b.mask).bit_count() == k - 1
        if is_ridge != (a in exchange[b]):
            return f"ridge/reflection mismatch on {pair}"
        if is_ridge and not (below[t] >> s & 1 or below[s] >> t & 1):
            return f"ridge pair {pair} incomparable"
        return None

    bad = [
        (1 << s | 1 << t, message)
        for s, t in itertools.combinations(range(len(facets)), 2)
        if (message := verdict(s, t)) is not None
    ]

    def check(mask):
        inside = [message for pair, message in bad if mask & pair == pair]
        size = mask.bit_count()
        return size * (size - 1) // 2, len(inside), inside[0] if inside else None

    return 1 << len(facets), range(1, 1 << len(facets)), check


def _broken_neighbors(drop):
    honest = suites._transposition_neighbors

    def broken(y):
        # drop the neighbours whose mask meets y's in a chosen residue
        return {z for z in honest(y) if (z.mask * 3 + y.mask) % 7 != drop}

    return broken


# (n, k, drop) at which a mutant is known to fail
_FAILING_MUTANTS = {(4, 2, 0), (5, 2, 2), (5, 3, 5), (6, 2, 1)}


@pytest.mark.parametrize("drop", [None, 0, 1, 2, 5], ids=lambda d: f"drop{d}")
@pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 7) for k in range(1, n + 1)])
def test_pair_sweep_matches_per_family_scan(monkeypatch, n, k, drop):
    # every shape with n <= 6, one-facet universes (k = n) among them,
    # with the honest neighbours (drop None) and with broken ones
    fork_pool(monkeypatch)
    if drop is not None:
        monkeypatch.setattr(suites, "_transposition_neighbors", _broken_neighbors(drop))
    got = [_report(suites.remark_bruhat_graph(n, k, jobs=jobs)) for jobs in (1, 2)]
    monkeypatch.setattr(suites, "_remark_setup", reference_remark_setup)
    want = _report(suites.remark_bruhat_graph(n, k))
    assert got == [want, want]
    if drop is None:
        assert want[2] == 0
    if (n, k, drop) in _FAILING_MUTANTS:
        assert want[2] > 0


def reference_greatest(keys):
    """The first key that dominates every key, by pairwise comparison."""
    for i, top in enumerate(keys):
        if all(all(a <= b for a, b in zip(key, top)) for key in keys):
            return i
    return None


@st.composite
def key_lists(draw):
    d = draw(st.integers(1, 4))
    keys = draw(
        st.lists(
            st.tuples(*[st.integers(0, 3)] * d), min_size=1, max_size=8
        )
    )
    if draw(st.booleans()):
        # plant the column-wise maximum, so a greatest key exists
        top = tuple(map(max, zip(*keys)))
        keys.insert(draw(st.integers(0, len(keys))), top)
    return keys


@settings(max_examples=500, deadline=None)
@given(key_lists())
def test_greatest_matches_pairwise_scan(keys):
    assert bruhat._greatest(keys) == reference_greatest(keys)


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 7).flatmap(
    lambda n: st.integers(1, n - 1).flatmap(
        lambda k: st.lists(
            st.sets(st.integers(1, n), min_size=k, max_size=k), min_size=1, max_size=12
        ).map(lambda sets: [KSubset(n, tuple(s)) for s in sets])
    )
))
def test_exchange_verdicts_match_on_random_families(family):
    assert is_matroid(family) == reference_is_matroid(family)
    assert has_quasi_exchange(family) == reference_has_quasi_exchange(family)


# --- the down-set enumerator against the 2^m closure scan -----------------


def reference_order_ideals(below):
    """The scan that ``order_ideals`` replaced: every mask in ascending
    order, kept when it holds everything below each of its members."""
    return [
        mask
        for mask in range(1 << len(below))
        if all(not below[t] & ~mask for t in _bits(mask))
    ]


def reference_ideal_and_interval_masks(n, k):
    """The families of ``suites._hasse_vs_dual_setup``, with the closure scan."""
    facets = list(all_ksubsets(n, k))
    m = len(facets)
    below = strictly_below_masks(facets, OrderKind.GALE)
    above = [0] * m
    for t, row in enumerate(below):
        for i in _bits(row):
            above[i] |= 1 << t
    supports = [mask for mask in reference_order_ideals(below) if mask]
    for i in range(m):
        for j in range(m):
            if i != j and not below[j] >> i & 1:
                continue
            mask = (above[i] | 1 << i) & (below[j] | 1 << j)
            if mask not in supports:
                supports.append(mask)
    return supports


# every Gale quotient with n <= 6 and at most 15 k-subsets
GALE_QUOTIENTS = [
    (n, k) for n in range(1, 7) for k in range(n + 1) if math.comb(n, k) <= 15
]
# every configuration quotient with at most 20 tuples
CONF_QUOTIENTS = [
    (n, k) for n in range(1, 7) for k in range(1, n + 1) if math.perm(n, k) <= 20
]


@pytest.mark.parametrize("n, k", GALE_QUOTIENTS)
def test_order_ideals_match_closure_scan_on_gale_quotients(n, k):
    below = strictly_below_masks(list(all_ksubsets(n, k)), OrderKind.GALE)
    assert list(bruhat.order_ideals(below)) == reference_order_ideals(below)


@pytest.mark.parametrize("n, k", CONF_QUOTIENTS)
def test_order_ideals_match_closure_scan_on_conf_quotients(n, k):
    below = strictly_below_masks(list(all_flag_tuples(n, k)), OrderKind.CONF)
    assert list(bruhat.order_ideals(below)) == reference_order_ideals(below)


@st.composite
def ordered_dags(draw):
    """Below-masks of a random DAG on up to 10 indices whose index order
    is a linear extension; not closed transitively."""
    h = draw(st.integers(0, 10))
    return [
        sum(1 << j for j in range(i) if draw(st.booleans())) for i in range(h)
    ]


@settings(max_examples=300, deadline=None)
@given(ordered_dags())
def test_order_ideals_match_closure_scan_on_random_dags(below):
    assert list(bruhat.order_ideals(below)) == reference_order_ideals(below)


def test_order_ideals_need_a_linear_extension():
    with pytest.raises(ValueError):
        list(bruhat.order_ideals([0b10, 0]))


@pytest.mark.parametrize("n, k", GALE_QUOTIENTS)
def test_hasse_supports_match_closure_scan(n, k):
    supports = reference_ideal_and_interval_masks(n, k)
    assert suites._hasse_vs_dual_setup(n, k)[:2] == (len(supports), supports)
