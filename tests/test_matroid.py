import itertools
import math
from random import Random

import pytest

from shellorder import (
    FlagTuple,
    KSubset,
    all_flag_tuples,
    all_ksubsets,
    canonical_completion,
    has_quasi_exchange,
    is_coxeter_matroid,
    is_matroid,
    shift,
    underlying_flag_matroid,
)
from shellorder import matroid
from shellorder.bruhat import OrderKind, _dominance_key, _greatest, leq

from conftest import make_ksubset as ks


def ft(n, digits):
    return FlagTuple(n, tuple(int(c) for c in digits))


INTERVAL_12_24 = {ks(4, "12"), ks(4, "13"), ks(4, "14"), ks(4, "23"), ks(4, "24")}


class TestExchange:
    def test_interval_is_matroid(self):
        assert is_matroid(INTERVAL_12_24).holds

    def test_two_far_facets_fail(self):
        verdict = is_matroid({ks(4, "13"), ks(4, "24")})
        assert not verdict.holds
        w = verdict.witness
        assert (w.first, w.second, w.element) == (ks(4, "13"), ks(4, "24"), 1)

    def test_witness_replays(self):
        verdict = is_matroid({ks(4, "13"), ks(4, "24")})
        w = verdict.witness
        swaps = {
            KSubset(4, tuple(m for m in w.first.members if m != w.element) + (b,))
            for b in w.second.members
            if b not in w.first
        }
        assert swaps.isdisjoint({ks(4, "13"), ks(4, "24")})

    def test_singleton_holds(self):
        assert is_matroid({ks(5, "245")}).holds


class TestQuasiExchange:
    def test_every_small_matroid_has_it(self):
        facets = list(all_ksubsets(4, 2))
        for mask in range(1, 1 << len(facets)):
            X = {facets[t] for t in range(len(facets)) if mask >> t & 1}
            if is_matroid(X).holds:
                assert has_quasi_exchange(X).holds

    def test_failure_example(self):
        verdict = has_quasi_exchange({ks(4, "13"), ks(4, "24")})
        assert not verdict.holds
        w = verdict.witness
        assert (w.first, w.second, w.element) == (ks(4, "24"), ks(4, "13"), 4)

    def test_singleton(self):
        assert has_quasi_exchange({ks(4, "13")}).holds


class TestGreatest:
    """``bruhat._greatest`` over dominance keys, the unique-maximum test
    that ``is_coxeter_matroid`` applies to every shifted image."""

    @staticmethod
    def greatest(elements, kind=OrderKind.GALE):
        elems = sorted(elements, key=lambda x: x.members)
        best = _greatest([_dominance_key(kind)(tuple(x)) for x in elems])
        return None if best is None else elems[best]

    def test_interval_maximum(self):
        assert self.greatest(INTERVAL_12_24) == ks(4, "24")

    def test_singleton(self):
        assert self.greatest({ks(4, "23")}) == ks(4, "23")

    def test_incomparable_pair(self):
        assert self.greatest({ks(4, "23"), ks(4, "14")}) is None

    def test_empty_set_has_none(self):
        assert self.greatest(set()) is None


class TestCoxeterMatroid:
    def test_subdivided_matroid(self):
        assert is_coxeter_matroid({ft(4, "24"), ft(4, "42"), ft(4, "34"), ft(4, "43")})

    def test_subdivided_non_matroid(self):
        Y = {ft(4, "13"), ft(4, "31"), ft(4, "24"), ft(4, "42")}
        assert not is_coxeter_matroid(Y)

    def test_explicit_shift_witness(self):
        # under w = 2134 the image of the set above has no greatest element
        Y = [ft(4, "13"), ft(4, "31"), ft(4, "24"), ft(4, "42")]
        w = ft(4, "2134")
        images = [FlagTuple(4, tuple(w(v) for v in y.entries)) for y in Y]
        for cand in images:
            assert not all(leq(img, cand, OrderKind.CONF) for img in images)

    def test_singleton(self):
        assert is_coxeter_matroid({ft(5, "351")})

    def test_one_member_family_skips_the_sweep(self, monkeypatch):
        # a lone member is its own greatest image under every w, so no
        # image is compared; the point bound still comes first
        def no_sweep(keys):
            raise AssertionError("a one-member family was swept")

        monkeypatch.setattr(matroid, "_greatest", no_sweep)
        assert is_coxeter_matroid({KSubset(9, (1, 2))})
        assert is_coxeter_matroid([FlagTuple(9, tuple(range(9, 0, -1)))])
        with pytest.raises(ValueError, match=r"got \|X\|·n! = 1·10! = 3628800$"):
            is_coxeter_matroid({KSubset(10, (1, 2))})

    def test_guard(self):
        # bounded by the |X|·n! image points, not by n: one facet of [9]
        # is inside (the CLI tests sweep it), one of [10] is not
        with pytest.raises(ValueError, match=r"got \|X\|·n! = 1·10! = 3628800$"):
            is_coxeter_matroid({KSubset(10, (1, 2))})

    def test_point_bound_admits_every_ksubset_family_up_to_n_8(self):
        # all 4-subsets of [8], the largest such family: 70·8! points
        assert 70 * math.factorial(8) <= matroid.MAXIMALITY_MAX_POINTS
        assert is_coxeter_matroid(list(all_ksubsets(8, 4)))

    def test_point_bound_is_inclusive(self, monkeypatch):
        X = list(all_ksubsets(4, 2))
        monkeypatch.setattr(matroid, "MAXIMALITY_MAX_POINTS", 6 * 24)
        assert is_coxeter_matroid(X)
        monkeypatch.setattr(matroid, "MAXIMALITY_MAX_POINTS", 6 * 24 - 1)
        with pytest.raises(ValueError, match="got \\|X\\|·n! = 6·4! = 144"):
            is_coxeter_matroid(X)

    def test_maximality_equals_exchange_small(self):
        for n, k in [(4, 2), (4, 3)]:
            facets = list(all_ksubsets(n, k))
            for mask in range(1, 1 << len(facets)):
                X = {facets[t] for t in range(len(facets)) if mask >> t & 1}
                assert is_matroid(X).holds == is_coxeter_matroid(X)

    def test_maximality_equals_exchange_sampled(self):
        rng = Random(7)
        facets = list(all_ksubsets(5, 2))
        for _ in range(150):
            X = set(rng.sample(facets, rng.randint(1, 6)))
            assert is_matroid(X).holds == is_coxeter_matroid(X)

    def test_maximality_sweep_equals_minimality_sweep(self):
        # the two variants of the defining property agree across the whole
        # S_n sweep (value reversal swaps them per w); a single image may
        # well have a least element and no greatest one
        def coxeter_via_min(Y):
            n = next(iter(Y)).n
            for w in all_flag_tuples(n, n):
                images = [FlagTuple(n, tuple(w(v) for v in y.entries)) for y in Y]
                if not any(
                    all(leq(cand, img, OrderKind.CONF) for img in images)
                    for cand in images
                ):
                    return False
            return True

        rng = Random(11)
        pool = list(all_flag_tuples(4, 2))
        for _ in range(60):
            Y = set(rng.sample(pool, rng.randint(1, 6)))
            assert is_coxeter_matroid(Y) == coxeter_via_min(Y)

    def test_single_image_may_have_min_without_max(self):
        S = [ks(4, "13"), ks(4, "14"), ks(4, "23")]
        has_max = any(
            all(leq(x, cand, OrderKind.GALE) for x in S) for cand in S
        )
        has_min = any(
            all(leq(cand, x, OrderKind.GALE) for x in S) for cand in S
        )
        assert has_min and not has_max


class TestShift:
    def test_upward_completion_example(self):
        M = {ks(4, "13"), ks(4, "34")}
        assert shift(M, 3).facets == {ks(4, "123"), ks(4, "134")}

    def test_identity_shift(self):
        M = {ks(4, "13"), ks(4, "34")}
        assert shift(M, 2).facets == M

    def test_first_member_shift(self):
        M = {ks(4, "13"), ks(4, "34")}
        assert shift(M, 1).facets == {ks(4, "1"), ks(4, "3")}

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            shift({ks(4, "13")}, 5)
        with pytest.raises(ValueError):
            shift({ft(4, "13")}, 3)

    def test_flag_matroid_constituents_are_matroids(self):
        # shifting the whole coset union (truncation for i < k, spanning
        # lift for i > k) always lands on a matroid
        for n, k in [(4, 2), (4, 3), (5, 2)]:
            facets = list(all_ksubsets(n, k))
            for mask in range(1, 1 << len(facets)):
                X = {facets[t] for t in range(len(facets)) if mask >> t & 1}
                if not is_matroid(X).holds:
                    continue
                flags = underlying_flag_matroid(X)
                for i in range(1, n + 1):
                    assert is_matroid(shift(flags, i)).holds, (X, i)

    def test_representative_shift_can_break_exchange(self):
        # the representative-based shift (sorted members, ascending tail)
        # need not preserve exchange; pinned so the semantics stays put
        M = {ks(5, "12"), ks(5, "15"), ks(5, "24"), ks(5, "45")}
        assert is_matroid(M).holds
        assert shift(M, 3).facets == {
            ks(5, "123"), ks(5, "125"), ks(5, "124"), ks(5, "145")
        }
        assert not is_matroid(shift(M, 3)).holds
        T = {ks(5, "123"), ks(5, "135"), ks(5, "234"), ks(5, "345")}
        assert is_matroid(T).holds
        assert not is_matroid(shift(T, 2)).holds


class TestUnderlyingFlagMatroid:
    def test_worked_example(self):
        M = {ks(4, "13"), ks(4, "34")}
        got = {"".join(map(str, w.entries)) for w in underlying_flag_matroid(M)}
        assert got == {
            "1324", "3124", "1342", "3142", "3412", "4312", "3421", "4321",
        }

    def test_rank_one_tiny(self):
        assert underlying_flag_matroid({KSubset(2, (1,))}) == {FlagTuple(2, (1, 2))}

    def test_whole_quotient_gives_all_permutations(self):
        got = underlying_flag_matroid(set(all_ksubsets(4, 2)))
        assert got == set(all_flag_tuples(4, 4))

    def test_cosets_disjoint_with_expected_size(self):
        for n, k in [(4, 2), (5, 3)]:
            facets = list(all_ksubsets(n, k))
            M = {facets[0], facets[3], facets[-1]}
            union = underlying_flag_matroid(M)
            size = 1
            for t in range(1, k + 1):
                size *= t
            for t in range(1, n - k + 1):
                size *= t
            assert len(union) == len(M) * size
            # one coset per facet, each of full parabolic size
            by_facet = itertools.groupby(
                sorted(union, key=lambda w: tuple(sorted(w.entries[:k]))),
                key=lambda w: tuple(sorted(w.entries[:k])),
            )
            counts = {prefix: len(list(group)) for prefix, group in by_facet}
            assert counts == {x.members: size for x in M}


def test_canonical_completion():
    assert canonical_completion(ks(4, "13")) == ft(4, "1324")
    assert canonical_completion(ks(6, "256")) == ft(6, "256134")
