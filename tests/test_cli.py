import functools
import itertools
import math
import os
import subprocess
import sys
import time
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from shellorder import (
    FacetSequence,
    FlagTuple,
    KSubset,
    PureComplex,
    all_flag_tuples,
    all_ksubsets,
)
from shellorder import cli, suites
from shellorder.cli import build_parser, export_dot, main, parse_input, serialize
from shellorder.promotion import GraphKind

from conftest import fork_pool, grow_shelling_order, make_ksubset as ks

BJORNER_TEXT = "n=6 mode=sorted\n" + "\n".join(
    " ".join(d) for d in "123 125 126 234 235 134 136 145 246 356 456".split()
) + "\n"


# malformed files and the full message of each: the earliest bad line is
# reported, and within a line the integers are read first, then the
# facet is built, then its size and its novelty are checked
PARSE_ERRORS = {
    "non-integer-sorted": ("n=4 mode=sorted\n1 2\n1 x\n", "line 3: not a run of integers: '1 x'"),
    "non-integer-tuple": ("n=4 mode=tuple\n1.0 2\n", "line 2: not a run of integers: '1.0 2'"),
    "out-of-range-sorted": ("n=4 mode=sorted\n5 1\n", "line 2: members (1, 5) not within [4]"),
    "out-of-range-tuple": ("n=4 mode=tuple\n5 1\n", "line 2: entries (5, 1) not within [4]"),
    "below-range-sorted": ("n=4 mode=sorted\n2 0\n", "line 2: members (0, 2) not within [4]"),
    "below-range-tuple": ("n=4 mode=tuple\n2 -1\n", "line 2: entries (2, -1) not within [4]"),
    "repeated-member": ("n=4 mode=sorted\n4 2 4 2\n", "line 2: duplicate member 2"),
    "repeated-member-out-of-range": ("n=4 mode=sorted\n9 9 0\n", "line 2: duplicate member 9"),
    "repeated-entry": ("n=4 mode=tuple\n4 2 4\n", "line 2: entries (4, 2, 4) contain a repeat"),
    "repeated-entry-out-of-range": (
        "n=4 mode=tuple\n9 9\n",
        "line 2: entries (9, 9) contain a repeat",
    ),
    "tuple-too-long": ("n=3 mode=tuple\n1 2 3 1\n", "line 2: tuple length 4 not within [1, 3]"),
    "ragged-sorted": ("n=4 mode=sorted\n1 2\n3 4\n1 2 3\n", "line 4: facet size 3 != 2"),
    "ragged-tuple": ("n=4 mode=tuple\n1 2 3\n2 1\n", "line 3: facet size 2 != 3"),
    "reordered-set": ("n=4 mode=sorted\n1 2\n3 4\n2 1\n", "line 4: duplicate facet"),
    "repeated-tuple": ("n=4 mode=tuple\n1 2\n2 1\n1 2\n", "line 4: duplicate facet"),
    "universe-too-large": (
        "n=65 mode=sorted\n1 2\n",
        "line 2: universe size 65 exceeds the supported bound of 64",
    ),
    "universe-zero": (
        "n=0 mode=tuple\n1\n",
        "line 2: universe size must be a positive integer, got 0",
    ),
    "missing-header": (
        "# no header\n\n1 2\n",
        "line 3: expected header 'n=<int> mode=<sorted|tuple>'",
    ),
    "unknown-mode": (
        "n=4 mode=list\n1 2\n",
        "line 1: expected header 'n=<int> mode=<sorted|tuple>'",
    ),
    "header-only-sorted": ("n=4 mode=sorted\n# no facets\n", "empty complex"),
    "header-only-tuple": ("n=4 mode=tuple\n", "empty complex"),
    "empty": ("", "empty input: missing header"),
    "comments-only": ("# a\n\n  # b\n", "empty input: missing header"),
    "range-before-integer": (
        "n=4 mode=sorted\n1 2\n1 5\n1 x\n",
        "line 3: members (1, 5) not within [4]",
    ),
    "integer-before-range": ("n=4 mode=tuple\n1 x\n1 5\n", "line 2: not a run of integers: '1 x'"),
    "duplicate-before-size": ("n=4 mode=sorted\n1 2\n2 1\n1 2 3\n", "line 3: duplicate facet"),
    "size-before-duplicate": ("n=4 mode=tuple\n1 2\n1 2 3\n1 2\n", "line 3: facet size 3 != 2"),
    "size-before-repeat": ("n=4 mode=sorted\n1 2\n1 2 3\n1 1\n", "line 3: facet size 3 != 2"),
    "repeat-before-duplicate": (
        "n=4 mode=tuple\n1 2\n2 2\n1 2\n",
        "line 3: entries (2, 2) contain a repeat",
    ),
    "integer-before-constructor": (
        "n=4 mode=sorted\n1 2\n5 5 x\n",
        "line 3: not a run of integers: '5 5 x'",
    ),
    "constructor-before-size": (
        "n=4 mode=tuple\n1 2\n5 1 2\n",
        "line 3: entries (5, 1, 2) not within [4]",
    ),
}


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParsing:
    def test_sequence_preserves_order(self):
        got = parse_input("n=4 mode=sorted\n1 2\n2 3\n1 3\n1 4\n2 4\n", as_sequence=True)
        assert got == FacetSequence(
            (ks(4, "12"), ks(4, "23"), ks(4, "13"), ks(4, "14"), ks(4, "24"))
        )

    def test_complex_collects_set(self):
        got = parse_input("n=4 mode=sorted\n2 4\n3 4\n")
        assert isinstance(got, PureComplex)
        assert got.facets == {ks(4, "24"), ks(4, "34")}

    def test_tuple_mode(self):
        got = parse_input("n=4 mode=tuple\n4 2\n2 4\n", as_sequence=True)
        assert got.items == (FlagTuple(4, (4, 2)), FlagTuple(4, (2, 4)))

    def test_comments_and_blank_lines(self):
        text = "# heading\nn=4 mode=sorted\n\n1 2  # trailing\n2 3\n"
        got = parse_input(text)
        assert got.facets == {ks(4, "12"), ks(4, "23")}

    @pytest.mark.parametrize("as_sequence", [False, True], ids=["complex", "sequence"])
    def test_a_tuple_written_in_another_order_is_another_facet(self, as_sequence):
        # in sorted mode the same lines repeat a facet (case reordered-set)
        assert len(parse_input("n=4 mode=tuple\n1 2\n3 4\n2 1\n", as_sequence)) == 3

    @pytest.mark.parametrize("text, message", PARSE_ERRORS.values(), ids=PARSE_ERRORS)
    @pytest.mark.parametrize("as_sequence", [False, True], ids=["complex", "sequence"])
    def test_the_first_bad_line_is_reported(self, text, message, as_sequence, tmp_path, capsys):
        with pytest.raises(ValueError) as info:
            parse_input(text, as_sequence)
        assert str(info.value) == message
        command = "check-shelling" if as_sequence else "find-shelling"
        assert main([command, write(tmp_path, "bad.txt", text)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_valid_files_match_the_checked_constructors(self, data):
        n = data.draw(st.integers(1, 9), label="n")
        k = data.draw(st.integers(1, n), label="k")
        make = data.draw(st.sampled_from([KSubset, FlagTuple]))
        written = data.draw(
            st.lists(
                st.permutations(range(1, n + 1)).map(lambda p: tuple(p[:k])),
                min_size=1,
                max_size=12,
                unique_by=tuple if make is FlagTuple else frozenset,
            ),
            label="lines",
        )
        gaps = st.sampled_from([" ", "  ", "\t"])
        lines = [
            data.draw(gaps) + data.draw(gaps).join(map(str, e)) + data.draw(
                st.sampled_from(["", " ", "  # facet"])
            )
            for e in written
        ]
        mode = "sorted" if make is KSubset else "tuple"
        text = f"# drawn\nn={n} mode={mode}\n\n" + "\n".join(lines) + "\n"
        facets = [make(n, e) for e in written]

        seq = parse_input(text, as_sequence=True)
        assert seq == FacetSequence(tuple(facets))
        assert parse_input(serialize(seq), as_sequence=True) == seq
        complex_ = parse_input(text)
        assert complex_ == PureComplex.of(facets)
        assert parse_input(serialize(complex_)) == complex_


class TestRoundTrip:
    def test_complex_round_trip_exhaustive_small(self):
        facets = list(all_ksubsets(4, 2))
        for mask in range(1, 1 << len(facets)):
            X = PureComplex.of(facets[t] for t in range(len(facets)) if mask >> t & 1)
            assert parse_input(serialize(X)) == X

    def test_sequence_round_trip_random(self):
        rng = Random(6)
        pool = list(all_flag_tuples(5, 3))
        for _ in range(30):
            C = FacetSequence(tuple(rng.sample(pool, rng.randint(1, 8))))
            assert parse_input(serialize(C), as_sequence=True) == C

    def test_serialize_is_canonical(self):
        a = PureComplex.of({ks(4, "24"), ks(4, "12")})
        b = PureComplex.of({ks(4, "12"), ks(4, "24")})
        assert serialize(a) == serialize(b) == "n=4 mode=sorted\n1 2\n2 4\n"

    def test_tuple_complex_and_sorted_sequence_round_trip(self):
        X = PureComplex.of({FlagTuple(4, (2, 4)), FlagTuple(4, (4, 2))})
        assert parse_input(serialize(X)) == X
        C = FacetSequence((ks(4, "23"), ks(4, "12")))
        assert parse_input(serialize(C), as_sequence=True) == C


class TestCommands:
    def test_check_shelling_holds(self, tmp_path, capsys):
        path = write(tmp_path, "c.txt", BJORNER_TEXT)
        assert main(["check-shelling", path]) == 0
        assert capsys.readouterr().out.startswith("holds")

    def test_check_shelling_fails(self, tmp_path, capsys):
        path = write(tmp_path, "c.txt", "n=6 mode=sorted\n2 3 5\n2 4 6\n2 3 4\n")
        assert main(["check-shelling", path]) == 1
        out = capsys.readouterr().out
        assert out.startswith("fails") and "i=1 j=2" in out

    def test_check_matroid_witness(self, tmp_path, capsys):
        path = write(tmp_path, "m.txt", "n=4 mode=sorted\n1 3\n2 4\n")
        assert main(["check-matroid", path]) == 1
        assert "1 3" in capsys.readouterr().out

    def test_check_matroid_holds(self, tmp_path, capsys):
        path = write(
            tmp_path, "m.txt", "n=4 mode=sorted\n1 2\n1 3\n1 4\n2 3\n2 4\n"
        )
        assert main(["check-matroid", path]) == 0

    def test_check_quasi_exchange(self, tmp_path):
        path = write(tmp_path, "q.txt", "n=4 mode=sorted\n1 3\n2 4\n")
        assert main(["check-quasi-exchange", path]) == 1

    def test_check_coxeter_matroid_tuple_mode(self, tmp_path):
        path = write(tmp_path, "y.txt", "n=4 mode=tuple\n2 4\n4 2\n3 4\n4 3\n")
        assert main(["check-coxeter-matroid", path]) == 0
        bad = write(tmp_path, "z.txt", "n=4 mode=tuple\n1 3\n3 1\n2 4\n4 2\n")
        assert main(["check-coxeter-matroid", bad]) == 1

    def test_check_coxeter_matroid_refuses_all_of_s7(self, tmp_path, capsys):
        # 5040·7! image points, past the sweep's bound
        lines = "".join(" ".join(map(str, w)) + "\n" for w in itertools.permutations(range(1, 8)))
        path = write(tmp_path, "s7.txt", "n=7 mode=tuple\n" + lines)
        assert main(["check-coxeter-matroid", path]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: the S_n sweep is bounded at 3000000 image points, "
            "got |X|·n! = 5040·7! = 25401600\n"
        )
        assert captured.out == ""

    def test_check_coxeter_matroid_past_n_eight(self, tmp_path, capsys):
        # the sweep is bounded by its image points, not by n: one facet
        # of [9] maps to 9! = 362,880 of them, and one of [10] to too many
        nine = write(tmp_path, "nine.txt", "n=9 mode=sorted\n1 2\n")
        assert main(["check-coxeter-matroid", nine]) == 0
        assert capsys.readouterr() == ("holds\n", "")
        ten = write(tmp_path, "ten.txt", "n=10 mode=sorted\n1 2\n")
        started = time.perf_counter()
        assert main(["check-coxeter-matroid", ten]) == 2
        assert time.perf_counter() - started < 1
        assert capsys.readouterr() == (
            "",
            "error: the S_n sweep is bounded at 3000000 image points, "
            "got |X|·n! = 1·10! = 3628800\n",
        )

    def test_check_coxeter_matroid_one_member_ends_at_once(self, tmp_path, capsys):
        # a lone permutation of [9] is its own greatest image under each
        # of the 9! shifts, so it holds without sweeping them; one of
        # [10] is still past the point bound
        nine = write(tmp_path, "nine.txt", "n=9 mode=tuple\n9 8 7 6 5 4 3 2 1\n")
        started = time.perf_counter()
        assert main(["check-coxeter-matroid", nine]) == 0
        assert time.perf_counter() - started < 1
        assert capsys.readouterr() == ("holds\n", "")
        ten = write(tmp_path, "ten.txt", "n=10 mode=tuple\n10 9 8 7 6 5 4 3 2 1\n")
        assert main(["check-coxeter-matroid", ten]) == 2
        assert capsys.readouterr() == (
            "",
            "error: the S_n sweep is bounded at 3000000 image points, "
            "got |X|·n! = 1·10! = 3628800\n",
        )

    def test_check_coxeter_matroid_sorted_mode(self, tmp_path):
        path = write(
            tmp_path, "m.txt", "n=4 mode=sorted\n1 2\n1 3\n1 4\n2 3\n2 4\n"
        )
        assert main(["check-coxeter-matroid", path]) == 0

    def test_check_flag_shelling(self, tmp_path):
        good = write(tmp_path, "g.txt", "n=4 mode=tuple\n1 4 2\n1 4 3\n")
        assert main(["check-flag-shelling", good]) == 0
        bad = write(tmp_path, "b.txt", "n=4 mode=tuple\n2 4\n4 2\n3 4\n4 3\n")
        assert main(["check-flag-shelling", bad]) == 1
        wrong_mode = write(tmp_path, "w.txt", "n=4 mode=sorted\n1 2\n")
        assert main(["check-flag-shelling", wrong_mode]) == 2

    def test_promote_hasse_on_tuple_sequence(self, tmp_path, capsys):
        path = write(tmp_path, "t.txt", "n=4 mode=tuple\n1 2\n1 3\n2 1\n2 3\n1 4\n")
        assert main(["promote", "--graph", "hasse", path]) == 0
        got = parse_input(capsys.readouterr().out, as_sequence=True)
        assert got.support() == parse_input(
            "n=4 mode=tuple\n1 2\n1 3\n2 1\n2 3\n1 4\n", as_sequence=True
        ).support()

    def test_barycentric_rejects_tuple_mode(self, tmp_path):
        path = write(tmp_path, "t.txt", "n=4 mode=tuple\n1 2\n")
        assert main(["barycentric", path]) == 2

    def test_check_order_ideal(self, tmp_path):
        good = write(tmp_path, "i.txt", "n=4 mode=tuple\n1 2\n1 3\n2 1\n2 3\n1 4\n")
        assert main(["check-order-ideal", good]) == 0
        bad = write(tmp_path, "j.txt", "n=4 mode=sorted\n2 4\n3 4\n")
        assert main(["check-order-ideal", bad]) == 1

    def test_check_order_ideal_on_permutations_of_12(self, tmp_path, capsys):
        # the local test lists nothing of S_12 (479,001,600 permutations)
        rest = " ".join(str(v) for v in range(3, 13))
        top = " ".join(str(v) for v in range(12, 0, -1))
        down = write(tmp_path, "d.txt", f"n=12 mode=tuple\n1 2 {rest}\n2 1 {rest}\n")
        up = write(tmp_path, "u.txt", f"n=12 mode=tuple\n1 2 {rest}\n{top}\n")
        start = time.perf_counter()
        assert main(["check-order-ideal", down]) == 0
        assert main(["check-order-ideal", up]) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().out == "holds\nfails\n"

    def test_check_linear_extension(self, tmp_path):
        good = write(tmp_path, "l.txt", "n=8 mode=sorted\n3 5 7\n2 6 8\n4 6 8\n")
        assert main(["check-linear-extension", good]) == 0

    def test_list_extensions(self, tmp_path, capsys):
        path = write(
            tmp_path, "x.txt", "n=4 mode=sorted\n1 2\n1 3\n1 4\n2 3\n2 4\n"
        )
        assert main(["list-extensions", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0] == "1 2, 1 3, 1 4, 2 3, 2 4"

    def test_find_shelling(self, tmp_path, capsys):
        none = write(tmp_path, "n.txt", "n=6 mode=sorted\n1 2 3\n4 5 6\n")
        assert main(["find-shelling", none]) == 1
        some = write(tmp_path, "s.txt", BJORNER_TEXT)
        assert main(["find-shelling", some]) == 0
        out = capsys.readouterr().out
        found = parse_input(out, as_sequence=True)
        from shellorder import is_shelling_order

        assert is_shelling_order(found).holds

    def test_find_shelling_prints_the_first_order_in_visit_order(self, tmp_path, capsys):
        # the sorted facets 124 135 145 245 are not a shelling order, so
        # the first shelling order found pins the walker's visit order
        path = write(tmp_path, "c.txt", "n=5 mode=sorted\n2 4 5\n1 3 5\n1 4 5\n1 2 4\n")
        assert main(["find-shelling", path]) == 0
        assert capsys.readouterr() == ("n=5 mode=sorted\n1 2 4\n1 4 5\n1 3 5\n2 4 5\n", "")

    def test_find_shelling_beyond_recursion_limit(self, tmp_path, capsys):
        facets = list(all_ksubsets(46, 2))
        assert len(facets) > sys.getrecursionlimit()
        path = write(tmp_path, "k46.txt", serialize(PureComplex.of(facets)))
        assert main(["find-shelling", path]) == 0
        found = parse_input(capsys.readouterr().out, as_sequence=True)
        assert len(found) == len(facets)

    def test_find_shelling_gives_up_fast_on_k5_plus_an_edge(self, tmp_path, capsys):
        # no order of K5's ten edges and a disjoint edge shells; the
        # search visits each set of placed facets once, not 11! orders
        edges = [" ".join(map(str, e)) for e in all_ksubsets(5, 2)]
        path = write(tmp_path, "k5.txt", "n=7 mode=sorted\n" + "\n".join(edges) + "\n6 7\n")
        start = time.perf_counter()
        assert main(["find-shelling", path]) == 1
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "no shelling order\n")

    def test_barycentric_above_its_bound_rejected(self, tmp_path, capsys):
        # 10! = 3,628,800 tuples would be listed and printed
        path = write(tmp_path, "b.txt", "n=11 mode=sorted\n1 2 3 4 5 6 7 8 9 10\n")
        started = time.perf_counter()
        assert main(["barycentric", path]) == 2
        assert time.perf_counter() - started < 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: barycentric subdivisions are bounded at 100000 tuples, "
            "got |X|·k! = 1·10! = 3628800\n"
        )
        assert captured.out == ""

    def test_barycentric_output(self, tmp_path, capsys):
        path = write(tmp_path, "b.txt", "n=4 mode=sorted\n2 4\n3 4\n")
        assert main(["barycentric", path]) == 0
        got = parse_input(capsys.readouterr().out)
        assert got.facets == {
            FlagTuple(4, t) for t in [(2, 4), (4, 2), (3, 4), (4, 3)]
        }

    def test_promote_prints_expected_tuple(self, tmp_path, capsys):
        path = write(tmp_path, "c.txt", BJORNER_TEXT)
        assert main(["promote", "--graph", "dual", path]) == 0
        got = parse_input(capsys.readouterr().out, as_sequence=True)
        want = "123 125 234 235 134 126 145 246 136 356 456".split()
        assert [f.members for f in got] == [tuple(int(c) for c in d) for d in want]

    def test_evacuate_round_trips(self, tmp_path, capsys):
        path = write(tmp_path, "c.txt", BJORNER_TEXT)
        assert main(["evacuate", "--graph", "dual", path]) == 0
        once = capsys.readouterr().out
        again = write(tmp_path, "c2.txt", once)
        assert main(["evacuate", "--graph", "dual", again]) == 0
        assert parse_input(capsys.readouterr().out, as_sequence=True) == parse_input(
            BJORNER_TEXT, as_sequence=True
        )

    def test_evacuate_twice_returns_a_long_order_byte_for_byte(self, tmp_path, capsys):
        text = serialize(grow_shelling_order(1, 12, 4, 160))
        path = write(tmp_path, "long.txt", text)
        assert main(["evacuate", "--graph", "dual", path]) == 0
        once = capsys.readouterr().out
        assert once != text
        again = write(tmp_path, "long2.txt", once)
        assert main(["evacuate", "--graph", "dual", again]) == 0
        assert capsys.readouterr().out == text

    def test_isomorphic(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "n=5 mode=sorted\n1 2 3\n1 2 4\n1 2 5\n")
        b = write(tmp_path, "b.txt", "n=5 mode=sorted\n1 2 3\n1 2 4\n1 3 5\n")
        short = write(tmp_path, "short.txt", "n=5 mode=sorted\n1 2 3\n1 2 4\n")
        assert main(["isomorphic", a, a]) == 0
        assert main(["isomorphic", a, b]) == 1
        capsys.readouterr()
        # sequences of different lengths are an answer, not a usage error
        assert main(["isomorphic", short, a]) == 1
        assert capsys.readouterr() == ("not isomorphic\n", "")

    def test_usage_errors(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.txt")
        assert main(["check-shelling", missing]) == 2
        bad = write(tmp_path, "bad.txt", "n=4 mode=sorted\n1 2\n1 2\n")
        assert main(["check-shelling", bad]) == 2
        assert "error:" in capsys.readouterr().err


def test_memory_error_is_a_usage_error(tmp_path, monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_check_shelling", exhausted)
    path = write(tmp_path, "c.txt", BJORNER_TEXT)
    assert main(["check-shelling", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: out of memory\n"
    assert captured.out == ""


IDEAL_TEXT = "n=4 mode=tuple\n1 2\n1 3\n2 1\n2 3\n1 4\n"


class TestReusedParser:
    """``main`` builds its parser once per process; a reused parser must
    behave exactly as a fresh one."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    @staticmethod
    def outcome(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        err = "".join(
            line for line in captured.err.splitlines(True)
            if not line.startswith("duration: ")
        )
        return code, captured.out, err

    def test_one_build_per_process(self, tmp_path, monkeypatch):
        builds = []
        build = cli.build_parser

        def counting():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        order = write(tmp_path, "c.txt", BJORNER_TEXT)
        ideal = write(tmp_path, "i.txt", IDEAL_TEXT)
        assert main(["check-shelling", order]) == 0
        assert main(["promote", "--graph", "dual", order]) == 0
        assert main(["check-order-ideal", ideal]) == 0
        assert len(builds) == 1

    def test_reused_parser_matches_a_fresh_one(self, tmp_path, capsys):
        order = write(tmp_path, "c.txt", BJORNER_TEXT)
        ideal = write(tmp_path, "i.txt", IDEAL_TEXT)
        calls = [
            ["check-shelling", order],
            ["promote", "--graph", "dual", order],
            ["evacuate", "--graph", "hasse", ideal],
            ["verify", "remark-bruhat-graph", "--n", "4", "--k", "2"],
            ["check-order-ideal", ideal],
        ]
        reused = [self.outcome(argv, capsys) for argv in calls]
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(self.outcome(argv, capsys))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 0, 0, 0, 0]

    def test_help_of_the_reused_parser(self, capsys):
        fresh = build_parser()
        for _ in range(2):
            assert self.outcome(["--help"], capsys) == (
                ("exit", 0), fresh.format_help(), ""
            )
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "--help"])
        verify_help = capsys.readouterr().out
        assert verify_help.startswith("usage: shellorder verify")
        for _ in range(2):
            assert self.outcome(["verify", "--help"], capsys) == (
                ("exit", 0), verify_help, ""
            )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["promote", "x.txt"], "the following arguments are required: --graph"),
            (["verify", "no-such-suite", "--n", "4", "--k", "2"], "invalid choice"),
        ],
    )
    def test_usage_error_repeats(self, argv, message, capsys):
        first = self.outcome(argv, capsys)
        assert first[0] == ("exit", 2) and first[1] == "" and message in first[2]
        assert self.outcome(argv, capsys) == first

    def test_handler_patched_after_the_build_runs(self, tmp_path, monkeypatch, capsys):
        path = write(tmp_path, "c.txt", BJORNER_TEXT)
        assert main(["check-shelling", path]) == 0
        capsys.readouterr()

        def patched(args):
            print(f"patched {args.command}")
            return 1

        monkeypatch.setattr(cli, "_cmd_check_shelling", patched)
        assert self.outcome(["check-shelling", path], capsys) == (
            1, "patched check-shelling\n", ""
        )

    def test_argv_defaults_to_the_process_arguments(self, tmp_path, monkeypatch, capsys):
        # the installed ``shellorder`` script calls ``main()`` with no argv
        path = write(tmp_path, "c.txt", BJORNER_TEXT)
        monkeypatch.setattr(sys, "argv", ["shellorder", "check-shelling", path])
        assert self.outcome(None, capsys) == (0, "holds\n", "")
        monkeypatch.setattr(sys, "argv", ["shellorder", "promote", path])
        code, out, err = self.outcome(None, capsys)
        assert code == ("exit", 2) and out == ""
        assert err.endswith("error: the following arguments are required: --graph\n")


class TestExportDot:
    def test_eleven_facet_graph(self, bjorner, tmp_path, capsys):
        path = write(tmp_path, "c.txt", BJORNER_TEXT)
        assert main(["export-dot", "--graph", "dual", path]) == 0
        out = capsys.readouterr().out
        assert out == export_dot(bjorner, GraphKind.DUAL)
        lines = out.strip().splitlines()
        assert lines[0] == "graph {" and lines[-1] == "}"
        node_lines = [l for l in lines if "--" not in l and l not in ("graph {", "}")]
        edge_lines = [l for l in lines if "--" in l]
        assert len(node_lines) == 11 and len(edge_lines) == 21
        marked = {int(l.split()[0]) for l in node_lines if "peripheries=2" in l}
        assert marked == {1, 2, 3, 7, 10, 11}

    def test_small_order_bytes(self, tmp_path, capsys):
        # export-dot is the only command that reads a graph's edge list
        path = write(tmp_path, "c.txt", "n=4 mode=sorted\n1 2\n2 3\n1 3\n1 4\n2 4\n")
        assert main(["export-dot", "--graph", "dual", path]) == 0
        nodes = "".join(f"  {v} [peripheries=2];\n" for v in range(1, 6))
        pairs = ["12", "13", "14", "15", "23", "25", "34", "45"]
        edges = "".join(f"  {a} -- {b};\n" for a, b in pairs)
        assert capsys.readouterr() == ("graph {\n" + nodes + edges + "}\n", "")

    def test_hasse_marks_its_track(self, bjorner):
        out = export_dot(bjorner, GraphKind.HASSE)
        marked = {
            int(l.split()[0])
            for l in out.splitlines()
            if "peripheries=2" in l
        }
        assert marked == {1, 2, 3, 7, 9, 10, 11}

    def test_single_facet(self):
        out = export_dot(FacetSequence((ks(4, "12"),)), GraphKind.DUAL)
        assert out == "graph {\n  1 [peripheries=2];\n}\n"

    def test_byte_deterministic(self, bjorner):
        assert export_dot(bjorner, GraphKind.DUAL) == export_dot(
            bjorner, GraphKind.DUAL
        )


# the shape at which each suite's --jobs 2 report is compared with its
# --jobs 1 report; a suite with no entry is compared at (4, 2)
PARALLEL_SHAPES = {
    # pool workers reuse the set-up of the process that forked them
    "conf-ideals-flagshell": ["--n", "4", "--k", "2"],
    # workers decide families on the universe compiled before the fork
    "extensions-shell": ["--n", "5", "--k", "3"],
    # and maximality on the compiled flag-tuple universe
    "barycentric-coxeter": ["--n", "5", "--k", "2"],
    # each worker keeps its own covers of the last support it checked
    "hasse-vs-dual": ["--n", "5", "--k", "2"],
    # workers promote and evacuate on dual graphs of facet masks
    "evacuation-shell": ["--n", "5", "--k", "3"],
    "remark-bruhat-graph": ["--n", "9", "--k", "4"],
}


# shapes that each sweep's own bound admits, all but the last past n = 6,
# with their checks: a sweep is bounded by what it lists, not by n
ADMITTED_SHAPES = [
    (["promotion-shell", "--n", "7", "--k", "2", "--max-facets", "3"], 2961),
    (["promotion-shell", "--n", "7", "--k", "1", "--max-facets", "1"], 7),
    # C(n, k) = 1 facet: one ordered choice, however many facets allowed
    (["eq2-oracle", "--n", "64", "--k", "64", "--max-facets", "1000000000"], 1),
    (["conf-ideals-flagshell", "--n", "30", "--k", "1"], 30),
    (["extensions-shell", "--n", "7", "--k", "1"], 127),
    (["extensions-shell", "--n", "7", "--k", "6"], 127),
    (["barycentric-coxeter", "--n", "7", "--k", "1"], 127),
    (["hasse-vs-dual", "--n", "20", "--k", "19"], 210),
    # (6, 6) compiles the largest flag-tuple table a sweep builds
    (["barycentric-coxeter", "--n", "6", "--k", "6"], 1),
]

# shapes past a sweep's bound, with the error that names it
REFUSED_SHAPES = [
    *(
        (
            [suite, "--n", "7", "--k", "2"],
            "k-subset sweeps are bounded at 20 facets, got C(n, k) = C(7, 2) = 21",
        )
        # extensions-shell: test_guard_rejected
        for suite in ("barycentric-coxeter", "hasse-vs-dual")
    ),
    (
        ["conf-ideals-flagshell", "--n", "31", "--k", "1"],
        "subset sweeps are guarded at universes of at most 30 elements, "
        "got 31 at n = 31, k = 1",
    ),
    (
        ["conf-ideals-flagshell", "--n", "1000000000", "--k", "2"],
        "universe size 1000000000 exceeds the supported bound of 64",
    ),
    (
        ["promotion-shell", "--n", "65", "--k", "1"],
        "universe size 65 exceeds the supported bound of 64",
    ),
    (
        ["evacuation-shell", "--n", "1000000000", "--k", "1000000000", "--samples", "1"],
        "universe size 1000000000 exceeds the supported bound of 64",
    ),
    (
        ["eq2-oracle", "--n", "64", "--k", "32", "--max-facets", "1000000000"],
        "exhaustive corpora need 1 <= sum over s <= max_facets of "
        "C(n, k)!/(C(n, k) - s)! <= 400000, got 1832624140942590534 "
        "at n = 64, k = 32, max_facets = 1000000000",
    ),
    # (9, 1) passes the k-subset bound but not the flag-tuple table's
    (
        ["barycentric-coxeter", "--n", "9", "--k", "1"],
        "flag-tuple universes are bounded at 600000 image ids, "
        "got n!·n!/(n-k)! = 9!·9!/8! = 3265920",
    ),
]


class TestVerifyCommand:
    def test_small_sweep_passes(self, capsys):
        assert main(["verify", "extensions-shell", "--n", "4", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "failed: 0" in out and "suite: extensions-shell" in out

    def test_guard_rejected(self, capsys):
        assert main(["verify", "extensions-shell", "--n", "7", "--k", "2"]) == 2
        assert capsys.readouterr() == (
            "", "error: k-subset sweeps are bounded at 20 facets, got C(n, k) = C(7, 2) = 21\n"
        )

    @pytest.mark.parametrize(
        "argv, checks", ADMITTED_SHAPES, ids=[" ".join(argv) for argv, _ in ADMITTED_SHAPES]
    )
    def test_admitted_shapes_pass(self, argv, checks, capsys):
        assert main(["verify", *argv]) == 0
        out = capsys.readouterr().out
        assert f"checks: {checks}\npassed: {checks}\nfailed: 0\n" in out

    @pytest.mark.parametrize(
        "argv, message", REFUSED_SHAPES, ids=[" ".join(argv) for argv, _ in REFUSED_SHAPES]
    )
    def test_refused_shapes_name_their_bound(self, argv, message, capsys):
        started = time.perf_counter()
        assert main(["verify", *argv]) == 2
        assert time.perf_counter() - started < 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "no-such-suite", "--n", "4", "--k", "2"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv, samples",
        [
            (["promotion-shell", "--n", "5", "--k", "2", "--max-facets", "6"], 50),
            # a corpus suite goes through the suite table with its corpus options
            (["eq2-oracle", "--n", "4", "--k", "2"], 20),
        ],
    )
    def test_randomized_suite(self, argv, samples, capsys):
        argv = ["verify", *argv, "--samples", str(samples), "--seed", "3"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            f"suite: {argv[1]}\ninstances: {samples}\nchecks: {samples}\n"
            f"passed: {samples}\nfailed: 0\n"
        )

    @pytest.mark.parametrize(
        "n, k", [("40", "20"), ("16", "8"), ("3", "5"), ("0", "1")]
    )
    def test_seeded_corpus_outside_its_bound_rejected(self, n, k, capsys):
        # C(40, 20) facets would be listed before sampling; an empty
        # universe has no facet to start from
        argv = ["verify", "promotion-shell", "--n", n, "--k", k, "--samples", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error: seeded corpora need 1 <= C(n, k) <= 10000" in captured.err
        assert captured.out == ""

    def test_seeded_corpus_at_its_bound_runs(self, capsys):
        # C(14, 7) = 3,432 and C(16, 8) = 12,870 sit either side of the bound
        argv = ["verify", "promotion-shell", "--n", "14", "--k", "7", "--samples", "1"]
        assert main(argv) == 0
        assert "instances: 1" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "suite, n, k, size",
        [("conf-ideals-flagshell", 6, 3, 120), ("conf-ideals-flagshell", 5, 3, 60)],
    )
    def test_subset_sweep_universe_above_its_bound_rejected(
        self, suite, n, k, size, capsys
    ):
        # the down-sets of these quotients are too many to check: (5, 3)
        # alone has 28,315, against 297 at the bound
        assert main(["verify", suite, "--n", str(n), "--k", str(k)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: subset sweeps are guarded at universes of at most "
            f"30 elements, got {size} at n = {n}, k = {k}\n"
        )
        assert captured.out == ""

    def test_remark_past_n_six_runs(self, capsys):
        # the pair sweep is bounded by its C(35, 2) pairs, not by n
        assert main(["verify", "remark-bruhat-graph", "--n", "7", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert f"instances: {2**35}\n" in out
        assert f"checks: {math.comb(35, 2) * 2**33}\n" in out
        assert "failed: 0\n" in out

    def test_remark_past_the_pair_bound_rejected(self, capsys):
        # (11, 5) is the first shape, by n and then k, past the bound
        inside = [
            math.comb(math.comb(n, k), 2) <= suites.REMARK_MAX_PAIRS
            for n in range(1, 12)
            for k in range(1, n + 1)
        ]
        assert inside.index(False) == sum(range(1, 11)) + 4
        started = time.perf_counter()
        assert main(["verify", "remark-bruhat-graph", "--n", "11", "--k", "5"]) == 2
        assert time.perf_counter() - started < 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: facet pairs are bounded at 100000, got "
            "C(C(n, k), 2) = C(462, 2) = 106491 at n = 11, k = 5\n"
        )
        assert captured.out == ""
        # one facet has no pair, but a k-subset still needs n <= 64; the
        # universe is refused before its range is listed
        for n in ("65", "1000000000"):
            assert main(["verify", "remark-bruhat-graph", "--n", n, "--k", n]) == 2
            captured = capsys.readouterr()
            assert captured.err == (
                f"error: universe size {n} exceeds the supported bound of 64\n"
            )
        # past k = n there is no facet, whatever n: no range is listed
        assert main(
            ["verify", "remark-bruhat-graph", "--n", "1000000000", "--k", "1000000001"]
        ) == 2
        assert capsys.readouterr().err == (
            "error: remark-bruhat-graph has no families to sweep at "
            "n = 1000000000, k = 1000000001\n"
        )
        assert time.perf_counter() - started < 1

    def test_remark_one_facet_has_no_checks(self, capsys):
        # two families, the empty one and the facet, and no pair to check
        assert main(["verify", "remark-bruhat-graph", "--n", "3", "--k", "3"]) == 0
        assert capsys.readouterr().out == (
            "suite: remark-bruhat-graph\ninstances: 2\nchecks: 0\npassed: 0\nfailed: 0\n"
        )

    def test_conf_ideals_at_the_universe_bound_runs(self, capsys):
        # 30 flag tuples: 2^30 subsets counted, their 297 down-sets checked
        assert main(["verify", "conf-ideals-flagshell", "--n", "6", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "instances: 1073741824" in out and "checks: 403210059451" in out

    def test_conf_ideals_visit_down_sets_only(self, capsys):
        # 2^24 subsets of the 24 flag tuples, 250 of them down-sets
        started = time.perf_counter()
        assert main(["verify", "conf-ideals-flagshell", "--n", "4", "--k", "3"]) == 0
        assert time.perf_counter() - started < 10
        out = capsys.readouterr().out
        assert "instances: 16777216" in out and "checks: 11618602074" in out

    @pytest.mark.parametrize(
        "suite",
        [
            "extensions-shell",
            "barycentric-coxeter",
            "conf-ideals-flagshell",
            "hasse-vs-dual",
            "remark-bruhat-graph",
        ],
    )
    def test_subset_sweep_without_families_rejected(self, suite, capsys):
        assert main(["verify", suite, "--n", "3", "--k", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {suite} has no families to sweep at n = 3, k = 5\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "suite, least_k",
        [
            ("extensions-shell", 0),
            ("barycentric-coxeter", 1),
            ("conf-ideals-flagshell", 1),
            ("hasse-vs-dual", 0),
            ("remark-bruhat-graph", 1),
        ],
    )
    def test_subset_sweep_below_its_least_k_rejected(self, suite, least_k, capsys):
        for k in range(-2, least_k):
            assert main(["verify", suite, "--n", "3", "--k", str(k)]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: {suite} needs k >= {least_k}, got k = {k}\n"
            assert captured.out == ""
        # the least k itself is swept
        assert main(["verify", suite, "--n", "3", "--k", str(least_k)]) == 0
        assert capsys.readouterr().out.startswith(f"suite: {suite}\n")

    @pytest.mark.parametrize("suite", ["promotion-shell", "evacuation-shell", "eq2-oracle"])
    @pytest.mark.parametrize("samples", ["0", "3"])
    @pytest.mark.parametrize(
        "n, k, message",
        [("3", "-1", "k >= 0, got k = -1"), ("-2", "2", "n >= 0, got n = -2")],
    )
    def test_corpus_suite_negative_n_or_k_rejected(
        self, suite, samples, n, k, message, capsys
    ):
        # the subset suites' form, for the exhaustive and the seeded corpus
        argv = ["verify", suite, "--n", n, "--k", k, "--samples", samples]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {suite} needs {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("suite", list(suites.SUITES))
    def test_negative_n_rejected(self, suite, capsys):
        assert main(["verify", suite, "--n", "-2", "--k", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {suite} needs n >= 0, got n = -2\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "suite, samples",
        [("extensions-shell", "0"), ("hasse-vs-dual", "0")]
        + [(s, z) for s in ("promotion-shell", "evacuation-shell", "eq2-oracle") for z in "01"],
    )
    def test_empty_ground_set_at_k_zero_rejected(self, suite, samples, capsys):
        # the other suites need k >= 1, and at k >= 1 the universe of
        # [0] is empty, which each suite reports in its own words
        argv = ["verify", suite, "--n", "0", "--k", "0"]
        if suite in suites.CORPUS_SUITES:
            argv += ["--samples", samples]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {suite} needs n >= 1 at k = 0, got n = 0\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [[suite, *PARALLEL_SHAPES.get(suite, ["--n", "4", "--k", "2"])] for suite in suites.SUITES]
        # a seeded corpus goes through the pool as well
        + [["evacuation-shell", "--n", "5", "--k", "3", "--samples", "300", "--seed", "3"]],
        ids=[*suites.SUITES, "evacuation-shell-seeded"],
    )
    def test_parallel_workers_match_sequential(self, argv, capsys):
        assert main(["verify", *argv]) == 0
        sequential = capsys.readouterr().out
        assert main(["verify", *argv, "--jobs", "2"]) == 0
        assert capsys.readouterr().out == sequential

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--max-facets", "0"], "--max-facets must be at least 1, got 0"),
            (["--samples", "5", "--max-facets", "0"], "--max-facets must be at least 1, got 0"),
            (["--samples", "-1"], "--samples must be at least 0, got -1"),
            (["--samples", "400001"], "--samples must be at most 400000, got 400001"),
            (["--samples", "1000000000"], "--samples must be at most 400000, got 1000000000"),
        ],
    )
    def test_bad_corpus_options_rejected(self, flags, message, capsys):
        for suite in ("promotion-shell", "evacuation-shell", "eq2-oracle"):
            assert main(["verify", suite, "--n", "4", "--k", "2", *flags]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: {message}\n"
            assert captured.out == ""

    @pytest.mark.parametrize(
        "n, k, max_facets, orders",
        [
            # the sum stops at the first s whose running total passes the
            # bound, and reports that total
            (6, 3, 20, 1984000),
            (5, 3, 10, 792100),
            (5, 3, 7, 792100),  # the smallest measured shape outside the bound
            (3, 5, 5, 0),
        ],
    )
    def test_exhaustive_corpus_outside_its_bound_rejected(
        self, n, k, max_facets, orders, capsys
    ):
        # the bound is computed, not listed: (6, 3) at 20 facets would
        # never end, and an empty universe has no order to check
        argv = ["verify", "promotion-shell", "--n", str(n), "--k", str(k)]
        started = time.perf_counter()
        assert main(argv + ["--max-facets", str(max_facets)]) == 2
        assert time.perf_counter() - started < 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: exhaustive corpora need 1 <= sum over s <= max_facets of "
            f"C(n, k)!/(C(n, k) - s)! <= 400000, got {orders} "
            f"at n = {n}, k = {k}, max_facets = {max_facets}\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_facets": 0}, "--max-facets must be at least 1, got 0"),
            ({"samples": 3, "max_facets": 0}, "--max-facets must be at least 1, got 0"),
            ({"samples": -1}, "--samples must be at least 0, got -1"),
            ({"samples": 400_001}, "--samples must be at most 400000, got 400001"),
        ],
        ids=["max-facets", "seeded-max-facets", "samples", "too-many-samples"],
    )
    def test_bad_corpus_arguments_rejected_by_the_library(self, kwargs, message):
        # the suites check what the command line passes them, so a library
        # caller gets the same error and a negative sample count never
        # falls back to the exhaustive corpus
        for suite in ("promotion-shell", "evacuation-shell", "eq2-oracle"):
            with pytest.raises(ValueError) as info:
                suites.SUITES[suite](4, 2, **kwargs)
            assert str(info.value) == message

    @pytest.mark.parametrize(
        "samples, h_max, message",
        [
            (3, 0, "h_max must be at least 1, got 0"),
            (-5, 3, "samples must be at least 1, got -5"),
            (0, 3, "samples must be at least 1, got 0"),
            (400_001, 3, "samples must be at most 400000, got 400001"),
            (10**9, 0, "samples must be at most 400000, got 1000000000"),
            # the bound itself passes on to the next check
            (400_000, 0, "h_max must be at least 1, got 0"),
        ],
        ids=[
            "h-max",
            "negative-samples",
            "no-samples",
            "over-bound",
            "far-over-bound",
            "at-bound",
        ],
    )
    def test_random_corpus_checks_its_arguments(self, samples, h_max, message):
        # the public sampler, called without the suites' checks
        with pytest.raises(ValueError) as info:
            suites.random_corpus(4, 2, samples, 0, h_max)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "n, k, max_facets, message",
        [
            (3, 5, 5, "exhaustive corpora need 1 <= sum over s <= max_facets"),
            (65, 1, 1, "universe size 65 exceeds the supported bound of 64"),
        ],
        ids=["empty-universe", "universe-bound"],
    )
    def test_exhaustive_corpus_guards_itself(self, n, k, max_facets, message):
        # the public corpus builder has the bounds of the suites that use it
        with pytest.raises(ValueError, match=message):
            suites.exhaustive_corpus(n, k, max_facets)

    def test_exhaustive_corpus_bound_admits_the_largest_measured_shape(self):
        # (6, 2) at 5 facets (bound 396,075) and (11, 1) at 6 (397,111,
        # the most ordered choices inside) take 10 and 35 s to evacuate,
        # so only the guard is asked
        suites._guard_exhaustive_corpus(6, 2, 5)
        suites._guard_exhaustive_corpus(5, 3, 6)
        suites._guard_exhaustive_corpus(11, 1, 6)

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, jobs, capsys):
        argv = ["verify", "remark-bruhat-graph", "--n", "4", "--k", "2", "--jobs", jobs]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error: --jobs must be at least 1" in captured.err
        assert captured.out == ""

    def test_pool_size_is_capped(self, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # the name ``_run_chunked`` imports when it forks
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(suites.os, "cpu_count", lambda: 3)
        assert suites._run_chunked(abs, [-1, -2, -3, -4], 8) == [1, 2, 3, 4]
        assert suites._run_chunked(abs, [-1, -2], 8) == [1, 2]
        assert suites._run_chunked(abs, [-1, -2, -3, -4], 2) == [1, 2, 3, 4]
        assert sizes == [3, 2, 2]
        # one worker's worth of work runs in-process, with no pool
        assert suites._run_chunked(abs, [-1], 8) == [1]
        monkeypatch.setattr(suites.os, "cpu_count", lambda: None)
        assert suites._run_chunked(abs, [-1, -2], 8) == [1, 2]
        assert sizes == [3, 2, 2]

    @pytest.mark.parametrize(
        "suite, setup, shape",
        [
            ("extensions-shell", "_extensions_shell_setup", (4, 2)),
            ("barycentric-coxeter", "_barycentric_coxeter_setup", (4, 2)),
            ("conf-ideals-flagshell", "_conf_ideals_setup", (3, 2)),
            ("promotion-shell", "_corpus_setup", (4, 2)),
            ("evacuation-shell", "_corpus_setup", (4, 2)),
            ("eq2-oracle", "_corpus_setup", (4, 2)),
            ("hasse-vs-dual", "_hasse_vs_dual_setup", (4, 2)),
            ("remark-bruhat-graph", "_remark_setup", (5, 2)),
        ],
    )
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_setup_runs_once_per_sweep(
        self, monkeypatch, tmp_path, suite, setup, shape, jobs
    ):
        fork_pool(monkeypatch)
        log = tmp_path / "setups.txt"
        original = getattr(suites, setup)

        # the wrapper takes the set-up's name, so chunks pickle it by
        # reference and forked workers find it in place of the original
        @functools.wraps(original)
        def logged(*args):
            with log.open("a") as out:
                out.write(f"{os.getpid()} {args}\n")
            return original(*args)

        monkeypatch.setattr(suites, setup, logged)
        chunks = []
        run_chunked = suites._run_chunked

        def counting_chunks(worker, args_list, jobs):
            chunks.append(len(args_list))
            return run_chunked(worker, args_list, jobs)

        monkeypatch.setattr(suites, "_run_chunked", counting_chunks)
        for _ in range(2):
            report = suites.SUITES[suite](*shape, jobs=jobs)
            assert report.failures == 0
            # nothing of a sweep outlives it
            assert suites._CHECKS == {}
        assert min(chunks) > 1
        # one set-up per sweep, in this process: forked workers reuse it
        lines = log.read_text().splitlines()
        assert len(lines) == 2 and lines[0] == lines[1]
        assert lines[0].startswith(f"{os.getpid()} ")


def test_module_entry_point(tmp_path):
    path = write(tmp_path, "c.txt", "n=4 mode=sorted\n1 2\n2 3\n1 3\n1 4\n2 4\n")
    proc = subprocess.run(
        [sys.executable, "-m", "shellorder", "check-shelling", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout.startswith("holds")


def test_closed_pipe_ends_quietly(tmp_path):
    # the 3-subsets of [6] have far more linear extensions than a pipe
    # buffers, so the writer meets the closed pipe while it streams
    text = "n=6 mode=sorted\n" + "".join(
        " ".join(map(str, x.members)) + "\n" for x in all_ksubsets(6, 3)
    )
    path = write(tmp_path, "c.txt", text)
    proc = subprocess.Popen(
        [sys.executable, "-m", "shellorder", "list-extensions", path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()  # what ``| head -1`` does after its line
    assert proc.wait(timeout=60) == 141
    assert first.startswith(b"1 2 3, 1 2 4, ")
    assert proc.stderr.read() == b""
    proc.stderr.close()
