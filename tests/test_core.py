import copy
import dataclasses
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from shellorder import (
    ExchangeWitness,
    FacetSequence,
    FlagTuple,
    FlagVertexFacet,
    KSubset,
    LabeledGraph,
    MatroidVerdict,
    PureComplex,
    is_shelling_order,
)
from shellorder.bruhat import Family, FlagTupleUniverse, KSubsetUniverse
from shellorder.core import UniverseTooLargeError
from shellorder.suites import RunReport


class TestKSubset:
    def test_members_are_canonicalized(self):
        assert KSubset(5, (3, 1, 4)).members == (1, 3, 4)

    def test_duplicate_member_rejected(self):
        with pytest.raises(ValueError):
            KSubset(5, (2, 2))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            KSubset(4, (1, 5))
        with pytest.raises(ValueError):
            KSubset(4, (0, 2))

    def test_universe_bound(self):
        with pytest.raises(UniverseTooLargeError):
            KSubset(65, (1,))
        KSubset(64, (64,))

    def test_empty_is_the_rank_zero_element(self):
        assert len(KSubset(4, ())) == 0

    def test_mask_round_trip(self):
        x = KSubset(6, (2, 5))
        assert KSubset.from_mask(6, x.mask) == x

    def test_container_protocol(self):
        x = KSubset(5, (2, 4))
        assert list(x) == [2, 4] and 2 in x and 3 not in x

    @pytest.mark.parametrize(
        "n, entries, members",
        [
            (7, (4, 3, 1, 7, 6, 2, 5), (1, 2, 3, 4, 5, 6, 7)),
            (4, (1, 3), (1, 3)),
            (4, (1, 4, 2), (1, 2, 4)),
        ],
        ids=["full_permutation", "already_sorted", "unsorted"],
    )
    def test_forgets_the_order_of_a_tuple(self, n, entries, members):
        x = FlagTuple(n, entries)
        assert KSubset(x.n, x.entries).members == members

    @given(st.data())
    def test_tuple_entries_keep_their_members(self, data):
        n = data.draw(st.integers(2, 8))
        k = data.draw(st.integers(1, n))
        entries = data.draw(
            st.permutations(range(1, n + 1)).map(lambda p: tuple(p[:k]))
        )
        x = FlagTuple(n, entries)
        y = KSubset(x.n, x.entries)
        assert list(y.members) == sorted(entries) and len(y) == len(x)

    @given(st.integers(1, 12), st.lists(st.integers(-2, 14), max_size=8))
    def test_matches_a_reference_on_any_members(self, n, members):
        repeated = sorted(v for v in set(members) if members.count(v) > 1)
        if repeated:
            with pytest.raises(ValueError) as info:
                KSubset(n, tuple(members))
            assert str(info.value) == f"duplicate member {repeated[0]}"
        elif any(not 1 <= v <= n for v in members):
            with pytest.raises(ValueError) as info:
                KSubset(n, tuple(members))
            assert str(info.value) == f"members {tuple(sorted(members))} not within [{n}]"
        else:
            x = KSubset(n, tuple(members))
            assert x.members == tuple(sorted(members))
            assert x.mask == sum(1 << (v - 1) for v in members)


class TestFlagTuple:
    def test_order_is_kept(self):
        assert FlagTuple(4, (3, 1)).entries == (3, 1)

    def test_repeat_rejected(self):
        with pytest.raises(ValueError):
            FlagTuple(4, (1, 1))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FlagTuple(4, (5,))

    def test_too_long_rejected(self):
        with pytest.raises(ValueError):
            FlagTuple(2, (1, 2, 3))

    def test_permutation_acts_on_values(self):
        w = FlagTuple(3, (2, 1, 3))
        assert (w(1), w(2), w(3)) == (2, 1, 3)
        with pytest.raises(ValueError):
            FlagTuple(3, (2, 1))(1)


class TestFlagVertexFacet:
    def test_chain_lists_the_prefix_sets(self):
        prefixes = (KSubset(4, (1,)), KSubset(4, (1, 4)), KSubset(4, (1, 2, 4)))
        f = FlagVertexFacet(frozenset(prefixes))
        assert f.chain() == prefixes
        assert f.n == 4 and len(f) == 3

    def test_not_nested_rejected(self):
        with pytest.raises(ValueError):
            FlagVertexFacet(frozenset({KSubset(4, (1,)), KSubset(4, (2, 3))}))

    def test_cardinality_gap_rejected(self):
        with pytest.raises(ValueError):
            FlagVertexFacet(frozenset({KSubset(4, (1,)), KSubset(4, (1, 2, 3))}))


class TestContainers:
    def test_pure_complex_rejects_mixed_sizes(self):
        with pytest.raises(ValueError):
            PureComplex.of({KSubset(4, (1, 2)), KSubset(4, (1, 2, 3))})

    def test_pure_complex_rejects_mixed_alphabets(self):
        with pytest.raises(TypeError):
            PureComplex.of({KSubset(4, (1, 2)), FlagTuple(4, (1, 2))})

    def test_facet_sequence_rejects_repeats(self):
        with pytest.raises(ValueError):
            FacetSequence((KSubset(4, (1, 2)), KSubset(4, (2, 1))))

    def test_facet_sequence_rejects_empty(self):
        with pytest.raises(ValueError):
            FacetSequence(())

    def test_iteration_order(self):
        seq = FacetSequence((KSubset(4, (2, 3)), KSubset(4, (1, 2))))
        assert [f.members for f in seq] == [(2, 3), (1, 2)]


class TestLabeledGraph:
    def test_edges_normalized(self):
        g = LabeledGraph(3, frozenset({(3, 1)}))
        assert g.edges == frozenset({(1, 3)})
        assert g.has_edge(3, 1)

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            LabeledGraph(3, frozenset({(2, 2)}))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            LabeledGraph(3, frozenset({(1, 4)}))

    def test_loop_message(self):
        with pytest.raises(ValueError, match=r"^loop at vertex 2$"):
            LabeledGraph(3, frozenset({(2, 2)}))
        # a loop is reported as a loop even outside the vertex range
        with pytest.raises(ValueError, match=r"^loop at vertex 5$"):
            LabeledGraph(3, [(5, 5)])

    @pytest.mark.parametrize("edge", [(4, 1), (1, 4), (0, 2), (2, 0), (-1, 3)])
    def test_out_of_range_message_keeps_the_given_orientation(self, edge):
        a, b = edge
        with pytest.raises(ValueError, match=rf"^edge \({a}, {b}\) leaves \[3\]$"):
            LabeledGraph(3, frozenset({edge}))

    def test_both_orientations_collapse_to_one_edge(self):
        g = LabeledGraph(3, frozenset({(1, 2), (2, 1)}))
        assert g.edges == frozenset({(1, 2)})
        assert g.rows == (0, 0b100, 0b010, 0)

    def test_list_and_set_inputs(self):
        want = LabeledGraph(4, frozenset({(1, 2), (3, 4)}))
        for edges in ([(2, 1), (3, 4)], {(1, 2), (4, 3)}, [[1, 2], [4, 3]], ()):
            g = LabeledGraph(4, edges)
            assert isinstance(g.edges, frozenset)
            if edges:
                assert g == want and g.rows == want.rows
            else:
                assert g.edges == frozenset() and g.rows == (0,) * 5

    def test_rows(self):
        g = LabeledGraph(5, [(1, 3), (5, 3), (2, 4)])
        assert g.rows == (0, 1 << 3, 1 << 4, 1 << 1 | 1 << 5, 1 << 2, 1 << 3)

    def test_neighbors(self):
        g = LabeledGraph(4, frozenset({(1, 2), (2, 4), (2, 3)}))
        assert g.neighbors(2) == (1, 3, 4)
        assert g.neighbors(3) == (2,)

    def test_out_of_range_lookups(self):
        g = LabeledGraph(4, frozenset({(1, 2), (2, 4), (2, 3)}))
        assert g.has_edge(0, 1) is False
        assert g.has_edge(2, -1) is False
        assert g.has_edge(2, g.order + 5) is False
        assert g.neighbors(g.order + 5) == ()
        assert g.neighbors(0) == () and g.neighbors(-1) == ()

    def test_equality_hash_and_repr_follow_order_and_edges(self):
        g = LabeledGraph(3, frozenset({(2, 1)}))
        assert repr(g) == "LabeledGraph(order=3, edges=frozenset({(1, 2)}))"
        # equal edges give equal graphs through either constructor
        for other in (
            LabeledGraph(3, [(1, 2), (2, 1)]),
            LabeledGraph._of_rows(3, (0, 0b100, 0b010, 0)),
        ):
            assert g == other and other == g and hash(g) == hash(other)
            assert repr(other) == repr(g)
        # another order, or another edge, is another graph
        for other in (
            LabeledGraph(4, [(1, 2)]),
            LabeledGraph(3, [(1, 2), (2, 3)]),
            LabeledGraph(3, [(1, 3)]),
            LabeledGraph(3, ()),
        ):
            assert g != other and other != g
        assert g != (3, frozenset({(1, 2)}))


class TestLabeledGraphOfRows:
    # the path 1 - 2 - 3
    ROWS = (0, 0b100, 0b1010, 0b100)

    def test_matches_the_edges_built_graph(self):
        g = LabeledGraph._of_rows(3, list(self.ROWS))
        want = LabeledGraph(3, [(3, 2), (1, 2)])
        assert g.rows == want.rows == self.ROWS
        assert g.edges == frozenset({(1, 2), (2, 3)})
        assert g == want and want == g and hash(g) == hash(want)
        assert repr(g) == repr(LabeledGraph(3, [(1, 2), (2, 3)]))
        assert repr(LabeledGraph._of_rows(2, (0, 0b100, 0b10))) == (
            "LabeledGraph(order=2, edges=frozenset({(1, 2)}))"
        )
        assert g != LabeledGraph(3, [(1, 2)])

    @pytest.mark.parametrize("name", ["order", "edges", "rows"])
    def test_assignment_raises(self, name):
        g = LabeledGraph._of_rows(3, self.ROWS)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(g, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(g, name)
        assert g.order == 3 and g.rows == self.ROWS
        assert g.edges == frozenset({(1, 2), (2, 3)})

    @pytest.mark.parametrize("read_first", [False, True])
    def test_pickle_round_trip(self, read_first):
        g = LabeledGraph._of_rows(3, self.ROWS)
        if read_first:
            g.edges
        back = pickle.loads(pickle.dumps(g))
        assert back.rows == g.rows and back == g and hash(back) == hash(g)
        assert back.edges == frozenset({(1, 2), (2, 3)})


_PAIR = (KSubset(4, (1, 2)), KSubset(4, (2, 3)))
_EXCHANGE = ExchangeWitness(KSubset(4, (1, 2)), KSubset(4, (3, 4)), 1)

# one value of each frozen, slotted value type
SLOTTED_VALUES = {
    "KSubset": KSubset(5, (3, 1, 4)),
    "FlagTuple": FlagTuple(4, (2, 4, 1)),
    "FlagVertexFacet": FlagVertexFacet(frozenset({KSubset(4, (2,)), KSubset(4, (2, 3))})),
    "PureComplex": PureComplex.of(_PAIR),
    "PureComplex._trusted": PureComplex._trusted(frozenset(_PAIR)),
    "FacetSequence": FacetSequence(_PAIR),
    "FacetSequence._trusted": FacetSequence._trusted(_PAIR),
    "LabeledGraph": LabeledGraph(3, [(1, 2), (3, 2)]),
    "ExchangeWitness": _EXCHANGE,
    "MatroidVerdict": MatroidVerdict(False, _EXCHANGE),
    "RunReport": RunReport("extensions-shell", 4, 3, 1, "X={12}", 0.25),
    # built with its certificates unset (the slot is filled on first read)
    "ShellingWitness": is_shelling_order(FacetSequence(_PAIR)),
    "Family": Family(KSubsetUniverse.of(4, 2), 0b100101),
    "Family.flags": Family(FlagTupleUniverse.of(3, 2), 0b11),
}


def _kept(value):
    """What a round trip keeps: a ``Family``'s universe compares by
    identity, and a pickle or deep copy builds a new one, so a family
    keeps its mask and its facets."""
    if isinstance(value, Family):
        return value.mask, tuple(value)
    return value, hash(value)


@pytest.mark.parametrize("name", SLOTTED_VALUES)
def test_slotted_value_types(name):
    value = SLOTTED_VALUES[name]
    before = _kept(value)
    for back in (
        pickle.loads(pickle.dumps(value)),
        copy.copy(value),
        copy.deepcopy(value),
    ):
        assert type(back) is type(value)
        assert _kept(back) == before
    assert not hasattr(value, "__dict__")
    # no field can be set or deleted, nor a name that is not a field
    # added or deleted: each is a FrozenInstanceError, not the TypeError
    # of a bare ``slots=True`` copy of the class on CPython 3.10 to 3.13
    for attr in [f.name for f in dataclasses.fields(value)] + ["_extra"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, attr, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, attr)
    assert _kept(value) == before


def test_trusted_constructors_build_the_checked_values():
    checked = FacetSequence(_PAIR)
    trusted = FacetSequence._trusted(_PAIR)
    assert trusted == checked and hash(trusted) == hash(checked)
    assert trusted.items == checked.items
    checked = PureComplex.of(_PAIR)
    trusted = PureComplex._trusted(frozenset(_PAIR))
    assert trusted == checked and hash(trusted) == hash(checked)
    assert list(trusted) == list(checked)


def test_only_a_sweep_that_forks_imports_the_process_pool():
    # a fresh interpreter, which has imported nothing of the pool yet
    code = """
import sys
import shellorder.cli
from shellorder import suites

def loaded():
    names = ("shellorder.suites", "concurrent.futures", "multiprocessing")
    print(sorted(m for m in names if m in sys.modules))

loaded()
suites.extensions_shell(3, 2, jobs=1)
loaded()
suites.os.cpu_count = lambda: 2
suites.extensions_shell(3, 2, jobs=2)
loaded()
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['shellorder.suites']",
        "['shellorder.suites']",
        "['concurrent.futures', 'multiprocessing', 'shellorder.suites']",
    ]
