import itertools

import pytest
from hypothesis import given, strategies as st

from shellorder import (
    FacetSequence,
    FlagTuple,
    KSubset,
    all_flag_tuples,
    all_ksubsets,
    conf_leq,
    descent_set,
    gale_leq,
    induced_covers,
    is_linear_extension,
    is_order_ideal,
    linear_extensions,
    perm_leq,
    prefix_projection,
    sort_blocks,
)
from shellorder.bruhat import OrderKind, leq

from conftest import make_ksubset as ks


def ft(n, digits):
    return FlagTuple(n, tuple(int(c) for c in digits))


class TestSortBlocks:
    def test_worked_example(self):
        w = ft(7, "4317625")
        assert sort_blocks(w, {1, 2, 4, 6}) == ft(7, "1346725")

    def test_empty_positions(self):
        w = ft(5, "35241")
        assert sort_blocks(w, frozenset()) == w

    def test_all_positions_sorts_fully(self):
        w = ft(5, "35241")
        assert sort_blocks(w, range(1, 5)) == FlagTuple(5, (1, 2, 3, 4, 5))

    def test_rejects_bad_positions(self):
        with pytest.raises(ValueError):
            sort_blocks(ft(3, "213"), {3})

    @given(st.permutations(range(1, 7)), st.sets(st.integers(1, 5)))
    def test_idempotent(self, perm, positions):
        w = FlagTuple(6, tuple(perm))
        once = sort_blocks(w, positions)
        assert sort_blocks(once, positions) == once


class TestPrefixProjection:
    def test_worked_examples(self):
        assert prefix_projection(ft(5, "3152"), 3).members == (1, 3, 5)
        assert prefix_projection(ft(5, "4215"), 3).members == (1, 2, 4)

    def test_full_prefix_is_sort(self):
        x = ft(6, "4162")
        assert prefix_projection(x, 4) == KSubset(x.n, x.entries)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            prefix_projection(ft(5, "315"), 4)
        with pytest.raises(ValueError):
            prefix_projection(ft(5, "315"), 0)


class TestComparisons:
    def test_gale_examples(self):
        assert gale_leq(ks(8, "3456"), ks(8, "4568"))
        assert not gale_leq(ks(8, "2568"), ks(8, "3478"))
        a = ks(8, "2568")
        assert gale_leq(a, a)

    def test_conf_examples(self):
        assert conf_leq(ft(5, "3125"), ft(5, "4251"))
        assert not conf_leq(ft(5, "3152"), ft(5, "4215"))
        assert conf_leq(ft(5, "3152"), ft(5, "3152"))

    def test_perm_examples(self):
        for w in all_flag_tuples(4, 4):
            assert perm_leq(FlagTuple(4, (1, 2, 3, 4)), w)
        assert perm_leq(ft(3, "231"), ft(3, "321"))
        assert not perm_leq(ft(3, "321"), ft(3, "231"))

    def test_perm_requires_full_permutations(self):
        with pytest.raises(ValueError):
            perm_leq(ft(4, "231"), ft(4, "321"))

    def test_mismatched_shapes(self):
        with pytest.raises(ValueError):
            gale_leq(ks(4, "12"), ks(5, "12"))
        with pytest.raises(ValueError):
            conf_leq(ft(5, "12"), ft(5, "123"))
        with pytest.raises(TypeError):
            gale_leq(ft(4, "12"), ft(4, "12"))

    def test_conf_on_sorted_tuples_is_gale(self):
        for a in all_ksubsets(5, 3):
            for b in all_ksubsets(5, 3):
                assert gale_leq(a, b) == conf_leq(
                    FlagTuple(5, a.members), FlagTuple(5, b.members)
                )

    def test_perm_is_conf_at_full_length(self):
        for u in all_flag_tuples(4, 4):
            for v in all_flag_tuples(4, 4):
                assert perm_leq(u, v) == conf_leq(u, v)


@st.composite
def conf_triples(draw):
    n = draw(st.integers(2, 7))
    k = draw(st.integers(1, n))
    pool = list(itertools.permutations(range(1, n + 1), k))
    picks = draw(st.lists(st.sampled_from(pool), min_size=3, max_size=3))
    return [FlagTuple(n, p) for p in picks]


@given(conf_triples())
def test_conf_order_axioms(triple):
    x, y, z = triple
    assert conf_leq(x, x)
    if conf_leq(x, y) and conf_leq(y, x):
        assert x == y
    if conf_leq(x, y) and conf_leq(y, z):
        assert conf_leq(x, z)


@st.composite
def gale_triples(draw):
    n = draw(st.integers(2, 7))
    k = draw(st.integers(1, n))
    pool = list(itertools.combinations(range(1, n + 1), k))
    picks = draw(st.lists(st.sampled_from(pool), min_size=3, max_size=3))
    return [KSubset(n, p) for p in picks]


@given(gale_triples())
def test_gale_order_axioms(triple):
    x, y, z = triple
    assert gale_leq(x, x)
    if gale_leq(x, y) and gale_leq(y, x):
        assert x == y
    if gale_leq(x, y) and gale_leq(y, z):
        assert gale_leq(x, z)


@given(st.data())
def test_projection_is_monotone(data):
    n = data.draw(st.integers(2, 6))
    k = data.draw(st.integers(1, n))
    pool = list(itertools.permutations(range(1, n + 1), k))
    x = FlagTuple(n, data.draw(st.sampled_from(pool)))
    y = FlagTuple(n, data.draw(st.sampled_from(pool)))
    if conf_leq(x, y):
        for i in range(1, k + 1):
            assert gale_leq(prefix_projection(x, i), prefix_projection(y, i))


class TestDescentSet:
    def test_identity_has_none(self):
        assert descent_set(FlagTuple(5, (1, 2, 3, 4, 5))) == frozenset()

    def test_simple_transposition(self):
        assert descent_set(ft(5, "21345")) == frozenset({1})

    def test_direct_evaluation(self):
        assert descent_set(ft(7, "4317625")) == frozenset({1, 2, 4, 5})


@pytest.mark.parametrize("bad", [ks(3, "123"), (2, 1, 3), None])
def test_permutation_order_rejects_other_operands(bad):
    # a TypeError naming the operand, in either position of the comparison
    perm = ft(3, "213")
    for compare in (perm_leq, lambda u, v: leq(u, v, OrderKind.PERM)):
        with pytest.raises(TypeError, match=r"^u must be a FlagTuple, got "):
            compare(bad, perm)
        with pytest.raises(TypeError, match=r"^v must be a FlagTuple, got "):
            compare(perm, bad)
    for call in (lambda w: sort_blocks(w, {1}), descent_set):
        with pytest.raises(TypeError, match=rf"^w must be a FlagTuple, got {type(bad).__name__}$"):
            call(bad)


def naive_covers(elements, kind):
    elems = list(elements)
    out = set()
    for a in elems:
        for b in elems:
            if a == b or not leq(a, b, kind):
                continue
            between = [
                c for c in elems if c not in (a, b) and leq(a, c, kind) and leq(c, b, kind)
            ]
            if not between:
                out.add((a, b))
    return out


class TestInducedCovers:
    def test_gale_chain_example(self):
        S = {ks(5, "123"), ks(5, "124"), ks(5, "135"), ks(5, "145")}
        got = induced_covers(S, OrderKind.GALE)
        want = {
            (ks(5, "123"), ks(5, "124")),
            (ks(5, "124"), ks(5, "135")),
            (ks(5, "135"), ks(5, "145")),
        }
        assert got == want
        assert got == naive_covers(S, OrderKind.GALE)

    def test_skips_non_covers(self):
        S = {ks(6, "235"), ks(6, "234"), ks(6, "246")}
        got = induced_covers(S, OrderKind.GALE)
        assert got == {
            (ks(6, "234"), ks(6, "235")),
            (ks(6, "235"), ks(6, "246")),
        }

    def test_singleton(self):
        assert induced_covers({ks(4, "12")}, OrderKind.GALE) == set()

    @given(st.data())
    def test_matches_naive_oracle(self, data):
        pool = list(itertools.permutations(range(1, 5), 2))
        picks = data.draw(st.sets(st.sampled_from(pool), min_size=1, max_size=8))
        S = {FlagTuple(4, p) for p in picks}
        assert induced_covers(S, OrderKind.CONF) == naive_covers(S, OrderKind.CONF)


class TestOrderIdeal:
    def test_conf_ideal_example(self):
        Y = {ft(4, "12"), ft(4, "13"), ft(4, "21"), ft(4, "23"), ft(4, "14")}
        assert is_order_ideal(Y, OrderKind.CONF)

    def test_gale_non_ideal(self):
        assert not is_order_ideal({ks(4, "24"), ks(4, "34")}, OrderKind.GALE)

    def test_whole_quotient(self):
        assert is_order_ideal(set(all_ksubsets(5, 2)), OrderKind.GALE)

    def test_empty_set(self):
        assert is_order_ideal(set(), OrderKind.GALE)

    def test_permutation_ideal(self):
        down = {ft(3, "123"), ft(3, "213"), ft(3, "132")}
        assert is_order_ideal(down, OrderKind.PERM)
        assert not is_order_ideal({ft(3, "321")}, OrderKind.PERM)


class TestLinearExtensions:
    def test_sequence_example(self):
        L = FacetSequence((ks(8, "357"), ks(8, "268"), ks(8, "468")))
        assert is_linear_extension(L, L.support(), OrderKind.GALE)

    def test_interval_extensions(self):
        X = {ks(4, "12"), ks(4, "13"), ks(4, "14"), ks(4, "23"), ks(4, "24")}
        lex = FacetSequence(
            (ks(4, "12"), ks(4, "13"), ks(4, "14"), ks(4, "23"), ks(4, "24"))
        )
        other = FacetSequence(
            (ks(4, "12"), ks(4, "13"), ks(4, "23"), ks(4, "14"), ks(4, "24"))
        )
        bad = FacetSequence(
            (ks(4, "12"), ks(4, "23"), ks(4, "13"), ks(4, "14"), ks(4, "24"))
        )
        assert is_linear_extension(lex, X, OrderKind.GALE)
        assert is_linear_extension(other, X, OrderKind.GALE)
        assert not is_linear_extension(bad, X, OrderKind.GALE)
        assert list(linear_extensions(X, OrderKind.GALE)) == [lex, other]

    def test_not_a_permutation_of_support(self):
        L = FacetSequence((ks(4, "12"),))
        with pytest.raises(ValueError):
            is_linear_extension(L, {ks(4, "13")}, OrderKind.GALE)

    def test_conf_ideal_has_exactly_five(self):
        Y = {ft(4, "12"), ft(4, "13"), ft(4, "21"), ft(4, "23"), ft(4, "14")}
        got = [tuple(e.entries for e in L) for L in linear_extensions(Y, OrderKind.CONF)]
        want_sets = {
            ((1, 2), (1, 3), (2, 1), (2, 3), (1, 4)),
            ((1, 2), (2, 1), (1, 3), (2, 3), (1, 4)),
            ((1, 2), (1, 3), (2, 1), (1, 4), (2, 3)),
            ((1, 2), (2, 1), (1, 3), (1, 4), (2, 3)),
            ((1, 2), (1, 3), (1, 4), (2, 1), (2, 3)),
        }
        assert len(got) == 5 and set(got) == want_sets

    def test_antichain_is_free(self):
        antichain = {ks(6, "16"), ks(6, "25"), ks(6, "34")}
        assert sum(1 for _ in linear_extensions(antichain, OrderKind.GALE)) == 6

    def test_all_outputs_are_extensions(self):
        X = set(all_ksubsets(4, 2))
        for L in linear_extensions(X, OrderKind.GALE):
            assert is_linear_extension(L, X, OrderKind.GALE)

    def test_matches_bruteforce_count(self):
        X = {ks(5, "12"), ks(5, "13"), ks(5, "23"), ks(5, "25")}
        naive = 0
        for perm in itertools.permutations(sorted(X, key=lambda f: f.members)):
            ok = all(
                not gale_leq(perm[j], perm[i])
                for i in range(len(perm))
                for j in range(i + 1, len(perm))
            )
            naive += ok
        assert sum(1 for _ in linear_extensions(X, OrderKind.GALE)) == naive

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            next(linear_extensions(set(), OrderKind.GALE))
