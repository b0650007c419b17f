"""Command-line surface.

Input files carry one facet per line after a required header
``n=<int> mode=<sorted|tuple>``; ``#`` starts a comment.  ``sorted`` lines
become KSubsets, ``tuple`` lines become FlagTuples with the written order.
Checks print ``holds``/``fails ...`` and exit 0/1 (2 on usage errors,
141 when the reader of stdout goes away); transforms print their result
in the same file format.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from pathlib import Path
from typing import Union

from .bruhat import (
    _order_of,
    is_linear_extension,
    is_order_ideal,
    linear_extensions,
)
from .core import (
    FacetSequence,
    FlagTuple,
    KSubset,
    PureComplex,
    canonical_key,
)
from .matroid import has_quasi_exchange, is_coxeter_matroid, is_matroid
from .promotion import GraphKind, evacuate, graph_of, promote, track
from .shelling import are_isomorphic, find_shelling_order, is_shelling_order
from .subdivision import barycentric, is_flag_shelling_order
from .suites import CORPUS_SUITES, SUITES, RunReport

_HEADER = re.compile(r"^n=(\d+)\s+mode=(sorted|tuple)$")


def parse_input(text: str, as_sequence: bool = False) -> Union[PureComplex, FacetSequence]:
    """Parse file content into a complex or a facet sequence, one check per line."""
    n, make = 0, None  # the universe and facet type of the header
    facets: list = []
    seen = set()
    size: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if make is None:
            match = _HEADER.match(line)
            if not match:
                raise ValueError(
                    f"line {lineno}: expected header 'n=<int> mode=<sorted|tuple>'"
                )
            n, make = int(match[1]), KSubset if match[2] == "sorted" else FlagTuple
            continue
        try:
            values = tuple(map(int, line.split()))
        except ValueError:
            raise ValueError(f"line {lineno}: not a run of integers: {line!r}") from None
        try:
            facet = make(n, values)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if size is None:
            size = len(values)
        elif len(values) != size:
            raise ValueError(f"line {lineno}: facet size {len(values)} != {size}")
        key = facet.members if make is KSubset else values
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate facet")
        seen.add(key)
        facets.append(facet)
    if make is None:
        raise ValueError("empty input: missing header")
    if not facets:
        raise ValueError("empty complex")
    if as_sequence:
        return FacetSequence._trusted(tuple(facets))
    return PureComplex._trusted(frozenset(facets))


def _facet_line(facet) -> str:
    values = facet.members if isinstance(facet, KSubset) else facet.entries
    return " ".join(map(str, values))


def serialize(value: Union[PureComplex, FacetSequence]) -> str:
    """Canonical text: sorted facets for complexes, given order for sequences."""
    if isinstance(value, PureComplex):
        facets = sorted(value.facets, key=canonical_key)
    else:
        facets = list(value.items)
    if not facets:
        raise ValueError("cannot serialize an empty complex")
    mode = "sorted" if isinstance(facets[0], KSubset) else "tuple"
    lines = [f"n={facets[0].n} mode={mode}"]
    lines.extend(_facet_line(f) for f in facets)
    return "\n".join(lines) + "\n"


def load_input(path: str, as_sequence: bool = False) -> Union[PureComplex, FacetSequence]:
    return parse_input(Path(path).read_text(encoding="utf-8"), as_sequence)


def export_dot(seq: FacetSequence, kind: GraphKind) -> str:
    """DOT text of the dual or Hasse graph; track vertices get a node
    attribute (peripheries=2), labels stay the bare positions."""
    graph = graph_of(seq, kind)
    marked = set(track(graph))
    lines = ["graph {"]
    for v in range(1, graph.order + 1):
        lines.append(f"  {v} [peripheries=2];" if v in marked else f"  {v};")
    for a, b in sorted(graph.edges):
        lines.append(f"  {a} -- {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _graph_kind(name: str) -> GraphKind:
    return GraphKind.DUAL if name == "dual" else GraphKind.HASSE


def _verdict(ok: bool, detail: str = "") -> int:
    print(f"holds{detail}" if ok else f"fails{detail}")
    return 0 if ok else 1


def _cmd_check_shelling(args) -> int:
    seq = load_input(args.file, as_sequence=True)
    witness = is_shelling_order(seq)
    if witness.holds:
        return _verdict(True)
    i, j = witness.failing
    return _verdict(False, f": no gluing certificate for pair i={i} j={j}")


def _cmd_check_flag_shelling(args) -> int:
    seq = load_input(args.file, as_sequence=True)
    if not isinstance(seq.items[0], FlagTuple):
        raise ValueError("check-flag-shelling expects mode=tuple input")
    return _verdict(is_flag_shelling_order(seq))


def _cmd_check_exchange(args) -> int:
    complex_ = load_input(args.file)
    check = is_matroid if args.command == "check-matroid" else has_quasi_exchange
    verdict = check(complex_.facets)
    if verdict.holds:
        return _verdict(True)
    w = verdict.witness
    return _verdict(
        False,
        f": element {w.element} of {_facet_line(w.first)} has no exchange"
        f" into {_facet_line(w.second)}",
    )


def _cmd_check_coxeter(args) -> int:
    complex_ = load_input(args.file)
    return _verdict(is_coxeter_matroid(complex_.facets))


def _cmd_check_order_ideal(args) -> int:
    complex_ = load_input(args.file)
    return _verdict(is_order_ideal(complex_.facets, _order_of(next(iter(complex_.facets)))))


def _cmd_check_linear_extension(args) -> int:
    seq = load_input(args.file, as_sequence=True)
    return _verdict(is_linear_extension(seq, seq.support(), _order_of(seq.items[0])))


def _cmd_list_extensions(args) -> int:
    complex_ = load_input(args.file)
    for seq in linear_extensions(complex_, _order_of(next(iter(complex_.facets)))):
        print(", ".join(_facet_line(f) for f in seq))
    return 0


def _cmd_find_shelling(args) -> int:
    complex_ = load_input(args.file)
    found = find_shelling_order(complex_)
    if found is None:
        print("no shelling order", file=sys.stderr)
        return 1
    sys.stdout.write(serialize(found))
    return 0


def _cmd_barycentric(args) -> int:
    complex_ = load_input(args.file)
    tuples = barycentric(complex_)
    sys.stdout.write(serialize(PureComplex.of(tuples)))
    return 0


def _cmd_promote(args) -> int:
    seq = load_input(args.file, as_sequence=True)
    sys.stdout.write(serialize(promote(seq, _graph_kind(args.graph))))
    return 0


def _cmd_evacuate(args) -> int:
    seq = load_input(args.file, as_sequence=True)
    sys.stdout.write(serialize(evacuate(seq, _graph_kind(args.graph))))
    return 0


def _cmd_isomorphic(args) -> int:
    a = load_input(args.first, as_sequence=True)
    b = load_input(args.second, as_sequence=True)
    ok = are_isomorphic(a, b)
    print("isomorphic" if ok else "not isomorphic")
    return 0 if ok else 1


def _cmd_export_dot(args) -> int:
    seq = load_input(args.file, as_sequence=True)
    sys.stdout.write(export_dot(seq, _graph_kind(args.graph)))
    return 0


def _print_report(report: RunReport) -> None:
    print(f"suite: {report.suite}")
    print(f"instances: {report.instances}")
    print(f"checks: {report.checks}")
    print(f"passed: {report.passed}")
    print(f"failed: {report.failures}")
    if report.first_counterexample is not None:
        print(f"counterexample: {report.first_counterexample}")
    # timing goes to stderr so stdout stays byte-stable
    print(f"duration: {report.duration:.2f}s", file=sys.stderr)


def _cmd_verify(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    suite = SUITES[args.suite]
    kwargs = {"n": args.n, "k": args.k, "jobs": args.jobs}
    if args.suite in CORPUS_SUITES:
        kwargs.update(max_facets=args.max_facets, samples=args.samples, seed=args.seed)
    report = suite(**kwargs)
    _print_report(report)
    return 0 if report.failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    """A new parser of the whole command tree on each call."""
    parser = argparse.ArgumentParser(
        prog="shellorder",
        description="Checks and transforms for shelling orders, matroid axioms, "
        "barycentric subdivisions, and promotion of facet sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # handlers go in by name and ``main`` looks them up when it dispatches,
    # so the parser it keeps never holds on to a replaced handler
    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    for name, fn, help_ in [
        ("check-shelling", "_cmd_check_shelling", "is the sequence a shelling order"),
        (
            "check-flag-shelling",
            "_cmd_check_flag_shelling",
            "is the tuple sequence a flag shelling order",
        ),
        ("check-matroid", "_cmd_check_exchange", "does the family satisfy basis exchange"),
        (
            "check-quasi-exchange",
            "_cmd_check_exchange",
            "does the family satisfy quasi-exchange",
        ),
        (
            "check-coxeter-matroid",
            "_cmd_check_coxeter",
            "does every shifted image have a unique maximum",
        ),
        ("check-order-ideal", "_cmd_check_order_ideal", "is the set downward closed"),
        (
            "check-linear-extension",
            "_cmd_check_linear_extension",
            "is the sequence a linear extension of its support",
        ),
        ("list-extensions", "_cmd_list_extensions", "print every linear extension"),
        ("find-shelling", "_cmd_find_shelling", "search for a shelling order"),
        ("barycentric", "_cmd_barycentric", "print the barycentric subdivision"),
    ]:
        p = add(name, fn, help=help_)
        p.add_argument("file")

    for name, fn, help_ in [
        ("promote", "_cmd_promote", "promote the sequence"),
        ("evacuate", "_cmd_evacuate", "evacuate the sequence"),
        ("export-dot", "_cmd_export_dot", "emit the graph in DOT form"),
    ]:
        p = add(name, fn, help=help_)
        p.add_argument("--graph", choices=["dual", "hasse"], required=True)
        p.add_argument("file")

    p = add(
        "isomorphic", "_cmd_isomorphic", help="are two sequences relabelings of each other"
    )
    p.add_argument("first")
    p.add_argument("second")

    p = add("verify", "_cmd_verify", help="run a verification sweep")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-facets", type=int, default=5)
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built on its first call, then reused in
    this process (a build costs about as much as a small check)."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        status = globals()[args.fn](args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # the reader went away (``| head -1``): stop quietly with the
        # status a shell reports for SIGPIPE, 128 + 13; stdout now points
        # at os.devnull, so the flush at exit has nothing to fail on
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
