import itertools
from random import Random

import pytest

from shellorder import (
    FacetSequence,
    FlagTuple,
    KSubset,
    LabeledGraph,
    all_ksubsets,
    dual_graph,
    elementary_move,
    evacuate,
    graph_of,
    is_shelling_order,
    promote,
    promote_via_moves,
    promotion_permutation,
    r_promote,
    track,
)
from shellorder.bruhat import OrderKind
from shellorder.core import FlagVertexFacet
from shellorder.promotion import GraphKind
from shellorder.suites import random_corpus

from conftest import apply_positions, make_ksubset as ks


def seq(n, *digit_groups):
    return FacetSequence(tuple(ks(n, d) for d in digit_groups))


BJORNER_PROMOTED_DUAL = (
    "123 125 234 235 134 126 145 246 136 356 456".split()
)
BJORNER_PROMOTED_HASSE = (
    "123 125 234 235 134 126 145 136 246 356 456".split()
)
BJORNER_HASSE_EDGES = {
    (1, 2), (1, 6), (2, 3), (2, 5), (2, 8), (3, 7), (4, 5), (4, 6),
    (5, 9), (6, 7), (6, 8), (7, 9), (8, 9), (9, 10), (10, 11),
}


class TestTrack:
    def test_eleven_facet_tracks(self, bjorner):
        assert track(dual_graph(bjorner)) == (1, 2, 3, 7, 10, 11)
        assert track(graph_of(bjorner, GraphKind.HASSE)) == (1, 2, 3, 7, 9, 10, 11)

    def test_single_vertex(self):
        assert track(LabeledGraph(1, frozenset())) == (1,)

    def test_track_is_maximal_and_adjacent(self):
        rng = Random(17)
        for _ in range(60):
            h = rng.randint(1, 8)
            pairs = list(itertools.combinations(range(1, h + 1), 2))
            edges = frozenset(rng.sample(pairs, rng.randint(0, len(pairs))))
            g = LabeledGraph(h, edges)
            path = track(g)
            assert path[0] == 1
            for a, b in zip(path, path[1:]):
                assert a < b and g.has_edge(a, b)
                assert all(not g.has_edge(a, c) for c in range(a + 1, b))
            assert not any(g.has_edge(path[-1], c) for c in range(path[-1] + 1, h + 1))


class TestPromotionPermutation:
    def test_eleven_facet_permutations(self, bjorner):
        assert promotion_permutation(dual_graph(bjorner)) == (
            1, 2, 6, 3, 4, 5, 9, 7, 8, 10, 11,
        )
        assert promotion_permutation(graph_of(bjorner, GraphKind.HASSE)) == (
            1, 2, 6, 3, 4, 5, 8, 7, 9, 10, 11,
        )

    def test_complete_graph_is_identity(self):
        h = 5
        g = LabeledGraph(h, frozenset(itertools.combinations(range(1, h + 1), 2)))
        assert promotion_permutation(g) == (1, 2, 3, 4, 5)

    def test_edgeless_graph_cycles(self):
        g = LabeledGraph(4, frozenset())
        assert promotion_permutation(g) == (4, 1, 2, 3)

    def test_is_a_bijection(self):
        rng = Random(23)
        for _ in range(40):
            h = rng.randint(1, 9)
            pairs = list(itertools.combinations(range(1, h + 1), 2))
            g = LabeledGraph(h, frozenset(rng.sample(pairs, rng.randint(0, len(pairs)))))
            assert sorted(promotion_permutation(g)) == list(range(1, h + 1))


class TestApplyPositions:
    def test_identity(self):
        C = seq(6, "235", "234", "246")
        assert apply_positions((1, 2, 3), C) == C

    def test_eleven_facet_application(self, bjorner):
        sigma = (1, 2, 6, 3, 4, 5, 9, 7, 8, 10, 11)
        assert apply_positions(sigma, bjorner) == seq(6, *BJORNER_PROMOTED_DUAL)

    def test_three_cycle(self):
        got = apply_positions((1, 3, 2), seq(6, "235", "234", "246"))
        assert got == seq(6, "235", "246", "234")

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_positions((1, 2), seq(6, "235", "234", "246"))

    def test_not_a_bijection(self):
        with pytest.raises(ValueError):
            apply_positions((1, 1, 3), seq(6, "235", "234", "246"))


class TestGraphOf:
    def test_hasse_cover_positions(self):
        g = graph_of(seq(6, "235", "234", "246"), GraphKind.HASSE)
        assert g.edges == frozenset({(1, 2), (1, 3)})

    def test_hasse_path(self):
        g = graph_of(seq(5, "123", "124", "135", "145"), GraphKind.HASSE)
        assert g.edges == frozenset({(1, 2), (2, 3), (3, 4)})

    def test_eleven_facet_hasse_graph(self, bjorner):
        g = graph_of(bjorner, GraphKind.HASSE)
        assert g.edges == frozenset(BJORNER_HASSE_EDGES)

    def test_single_facet(self):
        for kind in GraphKind:
            g = graph_of(seq(5, "12"), kind)
            assert g.order == 1 and not g.edges

    def test_hasse_rejects_flag_vertex_facets(self):
        facet = FlagVertexFacet(frozenset({KSubset(3, (1,)), KSubset(3, (1, 2))}))
        other = FlagVertexFacet(frozenset({KSubset(3, (2,)), KSubset(3, (1, 2))}))
        with pytest.raises(TypeError):
            graph_of(FacetSequence((facet, other)), GraphKind.HASSE)


class TestPromote:
    def test_eleven_facet_dual(self, bjorner):
        got = promote(bjorner, GraphKind.DUAL)
        assert got == seq(6, *BJORNER_PROMOTED_DUAL)
        assert is_shelling_order(got).holds

    def test_eleven_facet_hasse(self, bjorner):
        assert promote(bjorner, GraphKind.HASSE) == seq(6, *BJORNER_PROMOTED_HASSE)

    def test_dual_fixes_path(self):
        C = seq(6, "235", "234", "246")
        assert promote(C, GraphKind.DUAL) == C

    def test_hasse_breaks_shelling(self):
        C = seq(6, "235", "234", "246")
        image = promote(C, GraphKind.HASSE)
        assert image == seq(6, "235", "246", "234")
        assert not is_shelling_order(image).holds

    def test_dual_and_hasse_disagree_without_subgraph(self):
        L = seq(5, "123", "124", "135", "145")
        assert promote(L, GraphKind.DUAL) == seq(5, "123", "135", "124", "145")
        assert promote(L, GraphKind.HASSE) == L


class TestTupleSequences:
    def test_hasse_promotion_keeps_linear_extensions(self):
        # classical poset promotion on injective-tuple sequences
        from shellorder.bruhat import is_linear_extension, linear_extensions

        Y = {FlagTuple(4, t) for t in [(1, 2), (1, 3), (2, 1), (2, 3), (1, 4)]}
        for L in linear_extensions(Y, OrderKind.CONF):
            image = promote(L, GraphKind.HASSE)
            assert is_linear_extension(image, Y, OrderKind.CONF)

    def test_dual_rejects_tuple_facets(self):
        L = FacetSequence((FlagTuple(4, (1, 2)), FlagTuple(4, (2, 1))))
        with pytest.raises(TypeError):
            promote(L, GraphKind.DUAL)


class TestElementaryMove:
    def test_swaps_far_facets(self):
        C = seq(9, "123", "456", "789")
        assert elementary_move(C, 1) == seq(9, "456", "123", "789")

    def test_keeps_adjacent_facets(self):
        C = seq(5, "123", "124", "125")
        assert elementary_move(C, 1) == C

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            elementary_move(seq(5, "123", "124"), 2)


class TestPromoteViaMoves:
    def test_agrees_on_eleven_facets(self, bjorner):
        assert promote_via_moves(bjorner) == promote(bjorner, GraphKind.DUAL)

    def test_single_facet(self):
        C = seq(5, "134")
        assert promote_via_moves(C) == C

    def test_agrees_on_random_sequences(self):
        # arbitrary sequences, not only shelling orders
        rng = Random(31)
        pool = list(all_ksubsets(6, 3))
        for _ in range(10_000):
            h = rng.randint(1, 8)
            C = FacetSequence(tuple(rng.sample(pool, h)))
            assert promote_via_moves(C) == promote(C, GraphKind.DUAL)


class TestRPromote:
    def test_full_prefix_is_promotion(self, bjorner):
        assert r_promote(bjorner, len(bjorner)) == promote(bjorner, GraphKind.DUAL)

    def test_singleton_prefix_is_identity(self, bjorner):
        assert r_promote(bjorner, 1) == bjorner

    def test_adjacent_prefix_unmoved(self):
        C = seq(6, "235", "234", "246")
        assert r_promote(C, 2) == C

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            r_promote(seq(5, "123"), 2)


class TestEvacuate:
    def test_single_facet(self):
        C = seq(5, "134")
        assert evacuate(C) == C

    def test_pair_far_apart_swaps(self):
        C = seq(9, "123", "456")
        assert evacuate(C) == seq(9, "456", "123")

    def test_pair_adjacent_stays(self):
        C = seq(5, "123", "124")
        assert evacuate(C) == C

    def test_involution_on_random_corpus(self):
        for C in random_corpus(5, 2, 400, seed=19, h_max=6):
            assert evacuate(evacuate(C)) == C

    def test_preserves_shelling_on_random_corpus(self):
        for C in random_corpus(5, 3, 300, seed=29, h_max=7):
            assert is_shelling_order(evacuate(C)).holds
