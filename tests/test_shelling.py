import copy
import dataclasses
import itertools
import pickle
import sys
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from shellorder import (
    FacetSequence,
    FlagTuple,
    KSubset,
    OrderKind,
    PureComplex,
    ShellingWitness,
    all_ksubsets,
    are_isomorphic,
    dual_graph,
    find_shelling_order,
    is_shelling_order,
    linear_extensions,
    relabel,
    shelling_orders,
)
from shellorder import shelling
from shellorder.subdivision import flag_facet
from shellorder.suites import random_corpus

from conftest import make_ksubset as ks, reference_are_isomorphic


def seq(n, *digit_groups):
    return FacetSequence(tuple(ks(n, d) for d in digit_groups))


class TestIsShellingOrder:
    def test_interval_order(self):
        assert is_shelling_order(seq(4, "12", "23", "13", "14", "24")).holds

    def test_eleven_facet_example(self, bjorner):
        assert is_shelling_order(bjorner).holds

    def test_failing_example(self):
        witness = is_shelling_order(seq(6, "235", "246", "234"))
        assert not witness.holds
        assert witness.failing == (1, 2)

    def test_single_facet(self):
        witness = is_shelling_order(seq(5, "134"))
        assert witness.holds and witness.certificates == ()

    def test_witness_replays(self, bjorner):
        witness = is_shelling_order(bjorner)
        items = bjorner.items
        k = len(items[0])
        recorded = {(i, j) for i, j, _ in witness.certificates}
        assert recorded == {
            (i, j) for j in range(2, len(items) + 1) for i in range(1, j)
        }
        for i, j, z in witness.certificates:
            assert z < j
            inter = items[z - 1].mask & items[j - 1].mask
            assert inter.bit_count() == k - 1
            assert items[i - 1].mask & items[j - 1].mask & ~inter == 0

    def test_rejects_tuple_facets(self):
        with pytest.raises(TypeError):
            is_shelling_order(FacetSequence((FlagTuple(4, (1, 2)),)))

    def test_single_facet_of_each_alphabet(self):
        for one in (
            seq(3, "123"),
            FacetSequence((KSubset(3, ()),)),
            FacetSequence((flag_facet(FlagTuple(4, (2, 4, 1))),)),
        ):
            witness = is_shelling_order(one)
            assert witness == ShellingWitness(True, (), None)

    def test_points_always_glue(self):
        # k = 1: each point meets every earlier one in the empty ridge, so
        # the latest earlier point certifies every pair
        points = FacetSequence(tuple(KSubset(6, (v,)) for v in (4, 1, 6, 2)))
        witness = is_shelling_order(points)
        assert witness.holds and witness.failing is None
        assert witness.certificates == tuple(
            (i, j, j - 1) for j in range(2, 5) for i in range(1, j)
        )

    def test_failure_lists_certificates_up_to_the_failing_pair(self):
        # R_4 = {4}: only 35 of the ridges of 345 is held, by 135; 124
        # holds vertex 4 and 123 does not
        witness = is_shelling_order(seq(5, "123", "124", "135", "345"))
        assert witness.failing == (2, 4)
        assert witness.certificates == ((1, 2, 1), (1, 3, 1), (2, 3, 1), (1, 4, 3))
        assert not witness

    def test_witness_is_frozen(self):
        witness = is_shelling_order(seq(4, "12", "23", "34"))
        for name in ("holds", "certificates", "failing", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(witness, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(witness, name)
        assert witness.certificates == ((1, 2, 1), (1, 3, 2), (2, 3, 2))

    def test_other_attributes_are_missing(self):
        order = seq(5, "123", "124", "135", "345")
        lazy = is_shelling_order(order)
        eager = ShellingWitness(False, ((1, 2, 1), (1, 3, 1), (2, 3, 1), (1, 4, 3)), (2, 4))
        for witness in (lazy, eager):
            for name in ("other", "_certificates", "__copy__"):
                with pytest.raises(AttributeError, match=repr(name)):
                    getattr(witness, name)
                assert not hasattr(witness, name)
        assert not hasattr(eager, "_masks")
        # the lazy witness lists its certificates once, and keeps them
        first = lazy.certificates
        assert lazy.certificates is first and lazy == eager

    def test_witness_pickles(self):
        # and copies, through the same __reduce__
        round_trips = (lambda w: pickle.loads(pickle.dumps(w)), copy.copy, copy.deepcopy)
        for order in (seq(4, "12", "23", "34"), seq(6, "123", "456", "124")):
            for round_trip in round_trips:
                witness = is_shelling_order(order)
                back = round_trip(witness)
                assert type(back) is ShellingWitness
                assert (back.holds, back.certificates, back.failing) == (
                    witness.holds,
                    witness.certificates,
                    witness.failing,
                )
                assert back == witness and hash(back) == hash(witness)
                assert repr(back) == repr(witness)

    def test_constructor_validates(self):
        with pytest.raises(ValueError):
            ShellingWitness(True, (), (1, 2))
        with pytest.raises(ValueError):
            ShellingWitness(False, ())
        witness = ShellingWitness(False, ((1, 2, 1),), (2, 3))
        assert repr(witness) == (
            "ShellingWitness(holds=False, certificates=((1, 2, 1),), failing=(2, 3))"
        )
        assert witness != (False, ((1, 2, 1),), (2, 3))

    def test_ridge_cache_is_bounded(self):
        shelling._ridges.cache_clear()
        # initial segments of the lex order: 6,600 distinct facets in all
        for r in range(3, 14):
            first = itertools.islice(all_ksubsets(16, r), 600)
            assert is_shelling_order(FacetSequence(tuple(first))).holds
        info = shelling._ridges.cache_info()
        assert info.maxsize == shelling._RIDGE_CACHE_SIZE
        assert 0 < info.currsize <= info.maxsize < info.misses


class TestSearch:
    def test_disjoint_pair_has_none(self):
        assert find_shelling_order(PureComplex.of({ks(6, "123"), ks(6, "456")})) is None

    def test_finds_one_for_eleven_facets(self, bjorner):
        found = find_shelling_order(PureComplex(bjorner.support()))
        assert found is not None
        assert is_shelling_order(found).holds
        assert found.support() == bjorner.support()

    def test_single_facet(self):
        X = PureComplex.of({ks(5, "25")})
        assert find_shelling_order(X) == seq(5, "25")

    def test_deterministic(self, bjorner):
        X = PureComplex(bjorner.support())
        assert find_shelling_order(X) == find_shelling_order(X)

    def test_empty_complex_rejected(self):
        with pytest.raises(ValueError):
            find_shelling_order(PureComplex.of(()))

    def test_enumeration_matches_bruteforce(self):
        rng = Random(5)
        pool = list(itertools.combinations(range(1, 6), 2))
        for _ in range(25):
            picks = rng.sample(pool, rng.randint(1, 4))
            X = PureComplex.of(KSubset(5, p) for p in picks)
            brute = {
                perm
                for perm in itertools.permutations(X.facets)
                if is_shelling_order(FacetSequence(perm)).holds
            }
            assert {s.items for s in shelling_orders(X)} == brute


    def test_facets_are_checked_once_per_call(self):
        # a facet list is not checked as a complex; the orders are wrapped
        # unchecked, so the list itself must be checked like a sequence
        facets = [KSubset(4, (1, 2)), KSubset(5, (1, 3))]
        with pytest.raises(ValueError, match="sequence mixes universes or facet sizes"):
            list(shelling_orders(facets))

    def test_repeated_facet_gives_no_orders(self):
        facets = [ks(4, "12"), ks(4, "12"), ks(4, "13")]
        assert list(shelling_orders(facets)) == []
        assert find_shelling_order(facets) is None


class TestMoreFacetsThanRecursionLimit:
    # all 2-subsets of [46]: 1,035 facets, above the default recursion
    # limit of 1,000; lex order is both a Gale extension and a shelling
    facets = tuple(all_ksubsets(46, 2))

    def test_find_shelling_order(self):
        assert len(self.facets) > sys.getrecursionlimit()
        found = find_shelling_order(PureComplex.of(self.facets))
        assert found.items == self.facets
        assert is_shelling_order(found).holds

    def test_first_linear_extension(self):
        first = next(linear_extensions(self.facets, OrderKind.GALE))
        assert first.items == self.facets


class TestDualGraph:
    def test_path_example(self):
        g = dual_graph(seq(6, "235", "234", "246"))
        assert g.edges == frozenset({(1, 2), (2, 3)})

    def test_eleven_facet_graph(self, bjorner):
        g = dual_graph(bjorner)
        assert g.order == 11 and len(g.edges) == 21
        assert {(1, b) for b in (2, 3, 4, 5, 6, 7)} <= g.edges

    def test_single_facet(self):
        g = dual_graph(seq(5, "134"))
        assert g.order == 1 and not g.edges


class TestRelabel:
    def test_identity(self):
        C = seq(4, "12", "13")
        assert relabel(FlagTuple(4, (1, 2, 3, 4)), C) == C

    def test_swap(self):
        sigma = FlagTuple(4, (2, 1, 3, 4))
        assert relabel(sigma, seq(4, "12", "13")) == seq(4, "12", "23")

    def test_preserves_length_and_shelling(self):
        rng = Random(9)
        for C in rng.sample(random_corpus(5, 2, 200, seed=4, h_max=6), 40):
            perm = list(range(1, 6))
            rng.shuffle(perm)
            sigma = FlagTuple(5, tuple(perm))
            image = relabel(sigma, C)
            assert len(image) == len(C)
            assert is_shelling_order(image).holds
            assert dual_graph(image) == dual_graph(C)


class TestIsomorphism:
    def test_reflexive(self, bjorner):
        assert are_isomorphic(bjorner, bjorner)

    def test_three_facet_family_pairwise_distinct(self):
        a1 = seq(5, "123", "124", "125")
        a2 = seq(5, "123", "124", "135")
        a3 = seq(5, "123", "124", "145")
        assert not are_isomorphic(a1, a2)
        assert not are_isomorphic(a1, a3)
        assert not are_isomorphic(a2, a3)

    def test_all_short_shelling_orders_agree(self):
        pool = [
            FacetSequence(p)
            for p in itertools.permutations(
                [ks(5, d) for d in ("123", "124", "134", "235")], 2
            )
        ]
        shellings = [C for C in pool if is_shelling_order(C).holds]
        for a in shellings:
            for b in shellings:
                assert are_isomorphic(a, b)

    def test_shape_mismatch(self):
        # sequences of other universes, lengths or facet sizes are simply
        # not relabelings of each other
        assert not are_isomorphic(seq(4, "12"), seq(5, "12"))
        assert not are_isomorphic(seq(4, "12", "23"), seq(4, "12"))
        assert not are_isomorphic(seq(4, "12"), seq(4, "123"))

    def test_no_bound_on_n(self):
        a = FacetSequence((KSubset(9, (1, 2)), KSubset(9, (2, 9))))
        b = FacetSequence((KSubset(9, (5, 7)), KSubset(9, (3, 7))))
        disjoint = FacetSequence((KSubset(9, (1, 2)), KSubset(9, (3, 4))))
        assert are_isomorphic(a, b)  # 1 -> 5, 2 -> 7, 9 -> 3
        assert not are_isomorphic(a, disjoint)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_matches_the_relabeling_sweep(self, data):
        def sequence(n, k, h=None):
            facets = data.draw(st.permutations(list(all_ksubsets(n, k))))
            if h is None:
                h = data.draw(st.integers(1, min(6, len(facets))))
            return FacetSequence(tuple(facets[:h]))

        def shape():
            n = data.draw(st.integers(1, 6))
            return n, data.draw(st.integers(0, n))

        n, k = shape()
        a = sequence(n, k)
        kind = data.draw(st.sampled_from(["relabeled", "same shape", "any shape"]))
        if kind == "relabeled":
            sigma = FlagTuple(n, tuple(data.draw(st.permutations(range(1, n + 1)))))
            b = relabel(sigma, a)
        elif kind == "same shape":
            b = sequence(n, k, len(a))
        else:
            b = sequence(*shape())
        assert are_isomorphic(a, b) == reference_are_isomorphic(a, b)
        assert are_isomorphic(b, a) == are_isomorphic(a, b)


def test_appending_swap_preserves_shelling():
    corpus = random_corpus(6, 3, 400, seed=13, h_max=8)
    swapped_any = 0
    for C in corpus:
        if len(C) < 3:
            continue
        k = len(C.items[0])
        if (C.items[-2].mask & C.items[-1].mask).bit_count() >= k - 1:
            continue
        swapped_any += 1
        moved = FacetSequence(C.items[:-2] + (C.items[-1], C.items[-2]))
        assert is_shelling_order(moved).holds
    assert swapped_any > 20
