import math
from random import Random

import pytest

from shellorder import subdivision
from shellorder import (
    FacetSequence,
    FlagTuple,
    FlagVertexFacet,
    KSubset,
    PureComplex,
    all_flag_tuples,
    all_ksubsets,
    barycentric,
    conf_leq,
    flag_complex,
    flag_facet,
    gale_leq,
    is_flag_shellable,
    is_flag_shelling_order,
    is_shelling_order,
)
from shellorder.bruhat import OrderKind, linear_extensions

from conftest import face_poset_order_complex, make_ksubset as ks


def ft(n, digits):
    return FlagTuple(n, tuple(int(c) for c in digits))


def fseq(n, *digit_groups):
    return FacetSequence(tuple(ft(n, d) for d in digit_groups))


def chain(n, *digit_groups):
    return FlagVertexFacet(frozenset(ks(n, d) for d in digit_groups))


class TestBarycentric:
    def test_two_facet_example(self):
        got = barycentric(PureComplex.of({ks(4, "24"), ks(4, "34")}))
        assert got == {ft(4, "24"), ft(4, "42"), ft(4, "34"), ft(4, "43")}

    def test_whole_quotient(self):
        got = barycentric(PureComplex.of(all_ksubsets(4, 2)))
        assert got == set(all_flag_tuples(4, 2))

    def test_single_facet(self):
        assert barycentric(PureComplex.of({ks(2, "12")})) == {ft(2, "12"), ft(2, "21")}

    def test_cardinality(self):
        rng = Random(2)
        pool = list(all_ksubsets(6, 3))
        for _ in range(20):
            X = set(rng.sample(pool, rng.randint(1, 6)))
            assert len(barycentric(PureComplex.of(X))) == len(X) * math.factorial(3)

    def test_output_bounded_before_listing(self, monkeypatch):
        # |X|·k! is computed first: at the bound the tuples are listed,
        # above it nothing is
        monkeypatch.setattr(subdivision, "BARYCENTRIC_MAX_TUPLES", 12)
        two = PureComplex.of({ks(5, "123"), ks(5, "124")})
        assert len(barycentric(two)) == 12
        monkeypatch.setattr(subdivision.itertools, "permutations", None)
        three = PureComplex.of({ks(5, "123"), ks(5, "124"), ks(5, "125")})
        with pytest.raises(ValueError) as info:
            barycentric(three)
        assert str(info.value) == (
            "barycentric subdivisions are bounded at 12 tuples, got |X|·k! = 3·3! = 18"
        )

    def test_bound_admits_the_largest_sweep_subdivision(self):
        # barycentric-coxeter (6, 3) subdivides all 20 facets: 120 tuples
        assert len(barycentric(PureComplex.of(all_ksubsets(6, 3)))) == 120
        assert subdivision.BARYCENTRIC_MAX_TUPLES == 100_000

    def test_empty_facet_has_no_tuple(self):
        # the one ordering of the empty facet is no flag tuple
        with pytest.raises(ValueError, match=r"^tuple length 0 not within \[1, 3\]$"):
            barycentric(PureComplex.of({KSubset(3, ())}))


class TestFlagComplex:
    def test_two_chains(self):
        got = flag_complex({ft(5, "132"), ft(5, "435")})
        assert got.facets == {
            chain(5, "1", "13", "123"),
            chain(5, "4", "34", "345"),
        }

    def test_subdivided_pair(self):
        got = flag_complex({ft(4, "24"), ft(4, "42"), ft(4, "34"), ft(4, "43")})
        assert got.facets == {
            chain(4, "2", "24"),
            chain(4, "4", "24"),
            chain(4, "3", "34"),
            chain(4, "4", "34"),
        }

    def test_shared_prefix(self):
        got = flag_complex({ft(4, "142"), ft(4, "143")})
        assert got.facets == {
            chain(4, "1", "14", "124"),
            chain(4, "1", "14", "134"),
        }

    def test_injective(self):
        rng = Random(8)
        pool = list(all_flag_tuples(5, 3))
        for _ in range(20):
            Y = set(rng.sample(pool, rng.randint(1, 12)))
            assert len(flag_complex(Y)) == len(Y)


class TestFlagShelling:
    def test_two_tuple_order(self):
        assert is_flag_shelling_order(fseq(4, "142", "143"))

    def test_subdivided_pair_extensions_fail(self):
        assert not is_flag_shelling_order(fseq(4, "24", "34", "42", "43"))
        assert not is_flag_shelling_order(fseq(4, "24", "42", "34", "43"))

    def test_ideal_extensions_pass(self):
        Y = {ft(4, "12"), ft(4, "13"), ft(4, "21"), ft(4, "23"), ft(4, "14")}
        for L in linear_extensions(Y, OrderKind.CONF):
            assert is_flag_shelling_order(L)

    def test_five_listed_image_orders(self):
        listed = [
            ("12", "13", "21", "23", "14"),
            ("12", "21", "13", "23", "14"),
            ("12", "13", "21", "14", "23"),
            ("12", "21", "13", "14", "23"),
            ("12", "13", "14", "21", "23"),
        ]
        images = []
        for tuples in listed:
            L = fseq(4, *tuples)
            image = FacetSequence(tuple(flag_facet(y) for y in L))
            assert is_shelling_order(image).holds
            images.append(image)
        want_first = (
            chain(4, "1", "12"),
            chain(4, "1", "13"),
            chain(4, "2", "12"),
            chain(4, "2", "23"),
            chain(4, "1", "14"),
        )
        assert images[0].items == want_first

    def test_rejects_ksubset_sequences(self):
        with pytest.raises(TypeError):
            is_flag_shelling_order(FacetSequence((ks(4, "12"),)))


class TestFlagShellable:
    def test_disjoint_chains(self):
        assert not is_flag_shellable({ft(5, "132"), ft(5, "435")})

    def test_shared_prefix(self):
        assert is_flag_shellable({ft(4, "142"), ft(4, "143")})

    def test_subdivided_pair_is_shellable_anyway(self):
        # no linear extension works, but another facet order does
        assert is_flag_shellable({ft(4, "24"), ft(4, "42"), ft(4, "34"), ft(4, "43")})

    def test_singleton(self):
        assert is_flag_shellable({ft(5, "531")})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_flag_shellable(set())


class TestFacePoset:
    def test_segment(self):
        got = face_poset_order_complex(PureComplex.of({ks(2, "12")}))
        assert got.facets == {chain(2, "1", "12"), chain(2, "2", "12")}

    def test_matches_coset_route_example(self):
        X = PureComplex.of({ks(4, "24"), ks(4, "34")})
        assert face_poset_order_complex(X) == flag_complex(barycentric(X))

    def test_single_vertex(self):
        got = face_poset_order_complex(PureComplex.of({ks(3, "1")}))
        assert got.facets == {chain(3, "1")}

    def test_matches_coset_route_exhaustively_small(self):
        for n, k in [(4, 2), (4, 3)]:
            facets = list(all_ksubsets(n, k))
            for mask in range(1, 1 << len(facets)):
                X = PureComplex.of(
                    facets[t] for t in range(len(facets)) if mask >> t & 1
                )
                assert face_poset_order_complex(X) == flag_complex(barycentric(X))

    def test_matches_coset_route_sampled(self):
        rng = Random(21)
        pool = list(all_ksubsets(6, 3))
        for _ in range(25):
            X = PureComplex.of(rng.sample(pool, rng.randint(1, 5)))
            assert face_poset_order_complex(X) == flag_complex(barycentric(X))


def gale_interval(n, k, lo, hi):
    return {
        x for x in all_ksubsets(n, k) if gale_leq(lo, x) and gale_leq(x, hi)
    }


def test_interval_subdivides_to_interval():
    # the subdivision of [x, y] is the tuple interval from ascending x
    # to reversed y
    for n, k in [(4, 2), (5, 2), (5, 3)]:
        for lo in all_ksubsets(n, k):
            for hi in all_ksubsets(n, k):
                if not gale_leq(lo, hi):
                    continue
                X = PureComplex.of(gale_interval(n, k, lo, hi))
                got = barycentric(X)
                asc = FlagTuple(n, lo.members)
                desc = FlagTuple(n, tuple(reversed(hi.members)))
                want = {
                    y
                    for y in all_flag_tuples(n, k)
                    if conf_leq(asc, y) and conf_leq(y, desc)
                }
                assert got == want, (lo, hi)
