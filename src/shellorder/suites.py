"""Exhaustive and randomized verification sweeps.

Each suite scans a bounded universe of instances, applies an independent
check to every one, and returns a ``RunReport``.  Sweeps are deterministic:
instances are visited in a fixed order, randomized corpora are driven by a
seeded generator, and the first counterexample is selected in visit order
regardless of worker count.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import time
from random import Random
from typing import Iterable, Optional

from .bruhat import (
    Family,
    FlagTupleUniverse,
    KSubsetUniverse,
    OrderKind,
    induced_covers,
    is_order_ideal,
    linear_extensions,
    order_ideals,
    strictly_below_masks,
)
from .core import (
    FacetSequence,
    KSubset,
    PureComplex,
    _bits,
    _check_universe,
    _value_type,
    all_flag_tuples,
    all_ksubsets,
    canonical_key,
)
from .matroid import (
    canonical_completion,
    has_quasi_exchange,
    is_coxeter_matroid,
    is_matroid,
)
from .promotion import GraphKind, promote, promote_via_moves, evacuate
from .shelling import (
    _append_ok,
    _append_tables,
    _tally_orders,
    facet_masks,
    is_shelling_order,
    shelling_orders,
)
from .subdivision import barycentric, flag_facet

# The k-subset sweeps (extensions-shell, barycentric-coxeter,
# hasse-vs-dual) list the 2^C(n, k) families of the C(n, k) facets,
# bounded before any facet is listed.  (6, 3) has the most facets of
# any shape with 1 < k < n - 1 inside; past n = 6 only k in {0, 1,
# n - 1, n} is, and extensions-shell at (20, 19) and (20, 1), the
# slowest shapes inside, takes 21 and 16 s at --jobs 1 (2-vCPU x86-64
# VM, CPython 3.11).
KSUBSET_MAX_FACETS = 20
# conf-ideals-flagshell lists the n!/(n - k)! tuples, bounded before any
# is listed.  The CONF quotient (6, 2) has 30 tuples and 297 down-sets,
# and its sweep ends in 0.46 s; the next CONF universe with 1 < k,
# (5, 3), has 60 tuples and 28,315 down-sets, and its checks did not end
# in 600 s.  Past n = 6 only k = 1 is inside, up to n = 30: a chain.
FAMILY_MAX_BITS = 30
SEEDED_MAX_FACETS = 10_000  # seeded corpora list all C(n, k) facets
# An exhaustive corpus is bounded before it is listed, by the number of
# ordered choices of at most max_facets distinct facets.  The most inside
# are at C(n, k) = 11 facets and max_facets = 6 (397,111): at k = 1 or
# k = n - 1 every choice is a shelling order, and evacuation-shell at
# (11, 1, 6), the slowest corpus inside, takes 35 s at --jobs 1; (6, 2)
# at 5 facets (396,075, 152,535 orders) takes 10 s.  The next (5, 3)
# corpus past it, at 7 facets (792,100), has 310,450 orders and takes
# 2.7 s to build alone.  The default (5, 3) at 5 facets is 36,100.
# (2-vCPU x86-64 VM, CPython 3.11.)  The bound caps a seeded corpus's
# sample count too.
EXHAUSTIVE_MAX_ORDERS = 400_000
# remark-bruhat-graph checks the C(m, 2) pairs of the m = C(n, k) facets,
# bounded before any facet is listed, and not n.  Most of its time goes
# to each facet's images under the C(n, 2) transpositions, k swapped
# entries each: (64, 63) and (30, 28), the slowest shapes inside, take
# 1.0 and 0.8 s at --jobs 1, (30, 2) (94,395 pairs) 0.3 s, (9, 4) 0.04 s;
# (11, 5), with 106,491 pairs, is the first shape past it (median of
# three runs, 2-vCPU x86-64 VM, CPython 3.11).
REMARK_MAX_PAIRS = 100_000


@_value_type
class RunReport:
    suite: str
    instances: int
    checks: int
    failures: int
    first_counterexample: Optional[str]
    duration: float

    def __post_init__(self) -> None:
        if (self.failures > 0) != (self.first_counterexample is not None):
            raise ValueError("counterexample recorded iff failures > 0")

    @property
    def passed(self) -> int:
        return self.checks - self.failures


def _guard_exhaustive_corpus(n: int, k: int, max_facets: int) -> None:
    """The sum over s <= max_facets of the ordered choices of s distinct
    facets must lie in [1, EXHAUSTIVE_MAX_ORDERS].  It stops at the first
    s whose running total passes the bound, and reports that total: up
    to C(64, 32) facets, the whole sum could have about 10^18 terms."""
    _check_universe(n)
    facets = math.comb(n, k)
    orders, term = 0, 1
    for s in range(1, min(max_facets, facets) + 1):
        term *= facets - s + 1  # C(n, k)!/(C(n, k) - s)!
        orders += term
        if orders > EXHAUSTIVE_MAX_ORDERS:
            break
    if not 1 <= orders <= EXHAUSTIVE_MAX_ORDERS:
        raise ValueError(
            "exhaustive corpora need 1 <= sum over s <= max_facets of "
            f"C(n, k)!/(C(n, k) - s)! <= {EXHAUSTIVE_MAX_ORDERS}, got {orders} "
            f"at n = {n}, k = {k}, max_facets = {max_facets}"
        )


def _guard_seeded(n: int, k: int) -> None:
    if k <= n:  # past n there is no facet, whatever n is
        _check_universe(n)  # before C(n, k) is counted or its facets listed
    facets = math.comb(n, k)  # a ValueError for negative n or k
    if not 1 <= facets <= SEEDED_MAX_FACETS:
        raise ValueError(
            f"seeded corpora need 1 <= C(n, k) <= {SEEDED_MAX_FACETS}, "
            f"got C({n}, {k}) = {facets}"
        )


def _fmt_facet(f) -> str:
    vals = f.members if isinstance(f, KSubset) else f.entries
    return ("" if f.n <= 9 else " ").join(map(str, vals))


def _fmt_seq(items: Iterable) -> str:
    return "(" + ",".join(_fmt_facet(f) for f in items) + ")"


def _fmt_set(items: Iterable) -> str:
    return "{" + ",".join(_fmt_facet(f) for f in sorted(items, key=canonical_key)) + "}"


def _chunks(total: int) -> list[tuple[int, int]]:
    """At most 64 contiguous (lo, hi) slices covering range(total)."""
    step = -(-total // 64) or 1
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def _run_chunked(worker, args_list: list, jobs: int) -> list:
    workers = min(jobs, os.cpu_count() or 1, len(args_list))
    if workers <= 1:
        return [worker(a) for a in args_list]
    # imported on the first sweep that forks: the pool pulls in
    # multiprocessing, which no other path needs, and every process that
    # imports this module (each CLI call among them) would load it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, args_list))


def _tally(verdicts: Iterable[Optional[str]]) -> tuple[int, int, Optional[str]]:
    """(checks, failures, first counterexample) over one verdict per
    check: None when the check passes, else its counterexample."""
    return _sum_tallies((1, bad is not None, bad) for bad in verdicts)


def _sum_tallies(
    tallies: Iterable[tuple[int, int, Optional[str]]]
) -> tuple[int, int, Optional[str]]:
    """The sum of (checks, failures, first counterexample) tallies, taken
    in order: the first counterexample is the first one present."""
    checks = failures = 0
    first: Optional[str] = None
    for c, f, bad in tallies:
        checks += c
        failures += f
        if first is None:
            first = bad
    return checks, failures, first


# The least k of each suite, 0 where none is listed; a subset sweep with
# a larger k than n has no family.  Flag tuples (CONF ideals and
# barycentric flags) and the prefixes of permutation completions have at
# least one entry.
_LEAST_K = {
    "extensions-shell": 0,
    "barycentric-coxeter": 1,
    "conf-ideals-flagshell": 1,
    "hasse-vs-dual": 0,
    "remark-bruhat-graph": 1,
}

# (setup, shape) -> (instances, items, check), built once per process
# during one sweep; ``_sweep`` empties it when it ends
_CHECKS: dict = {}


def _chunk(args: tuple) -> tuple[int, int, Optional[str]]:
    setup, shape, lo, hi = args
    key = (setup, shape)
    entry = _CHECKS.get(key)
    if entry is None:  # a worker not forked from the sweep's process
        entry = _CHECKS[key] = setup(*shape)
    _, items, check = entry
    return _sum_tallies(map(check, items[lo:hi]))


def _sweep(suite: str, setup, shape: tuple, jobs: int) -> RunReport:
    """Every suite's driver.  ``setup(*shape)`` gives the instance count to
    report, the items to check (a list or range) and the check from an
    item to its (checks, failures, first counterexample).  It runs once
    per sweep, in this process, before the items are cut into chunks;
    pool workers forked from it inherit the set-up, and a worker started
    any other way builds it once.  Chunk tallies are summed in visit
    order, so ``jobs`` changes no report."""
    n, k = shape[:2]
    least_k = _LEAST_K.get(suite, 0)
    if k < least_k:
        raise ValueError(f"{suite} needs k >= {least_k}, got k = {k}")
    if n < 0:
        raise ValueError(f"{suite} needs n >= 0, got n = {n}")
    if n == k == 0:
        # the one 0-subset of [0] is no facet: a facet needs n >= 1
        raise ValueError(f"{suite} needs n >= 1 at k = 0, got n = 0")
    started = time.perf_counter()
    try:
        instances, items, _ = _CHECKS[setup, shape] = setup(*shape)
        if not items and instances <= 1:
            # an empty universe, as at k > n; corpora have their own guards.
            # remark-bruhat-graph checks pairs, so one facet leaves it two
            # families but no item, and a report of 0 checks
            raise ValueError(f"{suite} has no families to sweep at n = {n}, k = {k}")
        args = [(setup, shape, lo, hi) for lo, hi in _chunks(len(items))]
        checks, failures, first = _sum_tallies(_run_chunked(_chunk, args, jobs))
    finally:
        _CHECKS.clear()
    duration = time.perf_counter() - started
    return RunReport(suite, instances, checks, failures, first, duration)


# --- subset sweeps ----------------------------------------------------------
#
# A subset sweep checks nonempty families, as bitmasks over a universe
# of at most ``FAMILY_MAX_BITS`` elements in canonical order; its
# instance count includes the empty family.


def _ksubset_universe(n: int, k: int) -> tuple[KSubsetUniverse, int, range]:
    """The k-subsets of [n], compiled once per sweep (each check reads
    their tables, and forked workers inherit them), the instance count
    and every nonempty family.  The C(n, k) facets are bounded by
    ``KSUBSET_MAX_FACETS`` before any is listed."""
    _check_universe(n)
    facets = math.comb(n, k)
    if facets > KSUBSET_MAX_FACETS:
        raise ValueError(
            f"k-subset sweeps are bounded at {KSUBSET_MAX_FACETS} facets, "
            f"got C(n, k) = C({n}, {k}) = {facets}"
        )
    universe = KSubsetUniverse.of(n, k)
    size = 1 << len(universe.facets)
    return universe, size, range(1, size)


# --- extensions-shell -------------------------------------------------------


def _extensions_shell_setup(n: int, k: int):
    universe, instances, families = _ksubset_universe(n, k)
    facets, below = universe.facets, universe.below
    tables = _append_tables(universe.masks)

    def check(mask: int) -> tuple[int, int, Optional[str]]:
        X = Family(universe, mask)
        if not has_quasi_exchange(X).holds:
            # matroids and order ideals always have quasi-exchange
            if is_matroid(X).holds or is_order_ideal(X, OrderKind.GALE):
                return 1, 1, f"matroid/ideal without quasi-exchange: {_fmt_set(X)}"
            return 0, 0, None
        checks, failures, first = _tally_orders(below, tables, mask)
        if first is not None:
            prefix = _fmt_seq(facets[t] for t in first)
            first = f"X={_fmt_set(X)} extension prefix {prefix} is not a shelling prefix"
        return checks, failures, first

    return instances, families, check


def extensions_shell(n: int, k: int, jobs: int = 1) -> RunReport:
    """Every subset with the quasi-exchange property: each of its linear
    extensions must be a shelling order."""
    return _sweep("extensions-shell", _extensions_shell_setup, (n, k), jobs)


# --- barycentric-coxeter ----------------------------------------------------


def _barycentric_coxeter_setup(n: int, k: int):
    universe, instances, families = _ksubset_universe(n, k)
    # the subdivision of each family, as a family of the compiled tuples
    flags = FlagTupleUniverse.of(n, k)
    id_of = flags.id_of

    def check(mask: int) -> tuple[int, int, Optional[str]]:
        X = Family(universe, mask)
        lhs = is_matroid(X).holds
        Y = barycentric(PureComplex.of(X))
        rhs = is_coxeter_matroid(Family(flags, sum(1 << id_of[y.entries] for y in Y)))
        if lhs != rhs:
            return 1, 1, f"X={_fmt_set(X)}: exchange={lhs} but subdivision maximality={rhs}"
        return 1, 0, None

    return instances, families, check


def barycentric_coxeter(n: int, k: int, jobs: int = 1) -> RunReport:
    """Exchange property of X must coincide with the maximality property
    of its barycentric subdivision, for every subset."""
    return _sweep("barycentric-coxeter", _barycentric_coxeter_setup, (n, k), jobs)


# --- conf-ideals-flagshell --------------------------------------------------


def _conf_ideals_setup(n: int, k: int):
    # all 2^m subsets of the m tuples are instances, but only the
    # nonempty down-sets have anything to check; m is counted before any
    # tuple is listed
    _check_universe(n)
    m = math.perm(n, k)
    if m > FAMILY_MAX_BITS:
        raise ValueError(
            f"subset sweeps are guarded at universes of at most {FAMILY_MAX_BITS} "
            f"elements, got {m} at n = {n}, k = {k}"
        )
    elems = list(all_flag_tuples(n, k))
    below = strictly_below_masks(elems, OrderKind.CONF)
    ideals = [mask for mask in order_ideals(below) if mask]
    # one vertex numbering for every flag facet of the universe
    masks = facet_masks(tuple(flag_facet(y) for y in elems))[0] if elems else []
    tables = _append_tables(masks)

    def check(mask: int) -> tuple[int, int, Optional[str]]:
        checks, failures, first = _tally_orders(below, tables, mask)
        if first is not None:
            Y = _fmt_set(elems[t] for t in _bits(mask))
            prefix = _fmt_seq(elems[t] for t in first)
            first = f"Y={Y} extension prefix {prefix} is not a flag shelling prefix"
        return checks, failures, first

    return 1 << m, ideals, check


def conf_ideals_flagshell(n: int, k: int, jobs: int = 1) -> RunReport:
    """Every order ideal of the configuration quotient: each of its linear
    extensions must be a flag shelling order."""
    return _sweep("conf-ideals-flagshell", _conf_ideals_setup, (n, k), jobs)


# --- shelling-order corpus (promotion / evacuation / eq2 / swap) ------------


@functools.lru_cache(maxsize=8)
def exhaustive_corpus(n: int, k: int, max_facets: int) -> tuple[FacetSequence, ...]:
    """All shelling orders of all complexes with at most max_facets facets,
    guarded before anything is listed."""
    _guard_exhaustive_corpus(n, k, max_facets)
    facets = list(all_ksubsets(n, k))
    out: list[FacetSequence] = []
    for size in range(1, min(max_facets, len(facets)) + 1):
        for combo in itertools.combinations(facets, size):
            out.extend(shelling_orders(PureComplex.of(combo)))
    return tuple(out)


@functools.lru_cache(maxsize=8)
def random_corpus(
    n: int, k: int, samples: int, seed: int, h_max: int
) -> tuple[FacetSequence, ...]:
    """Seeded growth sampling: start from a random facet and keep appending
    a random facet that preserves the gluing condition, up to a random
    target length of 1 to ``h_max``.  Every sample is a shelling order by
    construction.  ``samples`` must be within [1, EXHAUSTIVE_MAX_ORDERS],
    the bound of the exhaustive corpora, and ``h_max`` at least 1."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if samples > EXHAUSTIVE_MAX_ORDERS:
        raise ValueError(f"samples must be at most {EXHAUSTIVE_MAX_ORDERS}, got {samples}")
    if h_max < 1:
        raise ValueError(f"h_max must be at least 1, got {h_max}")
    _guard_seeded(n, k)
    rng = Random(seed)
    facets = list(all_ksubsets(n, k))
    tables = _append_tables([f.mask for f in facets])
    out: list[FacetSequence] = []
    while len(out) < samples:
        target = rng.randint(1, h_max)
        pool = list(range(len(facets)))  # facet ids
        rng.shuffle(pool)
        chosen = [pool.pop()]
        used = 1 << chosen[0]
        near = 0  # ridge holders of the placed facets: no other facet can glue
        while len(chosen) < target:
            for ridge_holders, _ in tables[chosen[-1]]:
                near |= ridge_holders
            candidates = [t for t in pool if near >> t & 1 and _append_ok(used, tables[t])]
            if not candidates:
                break
            follower = rng.choice(candidates)
            pool.remove(follower)
            chosen.append(follower)
            used |= 1 << follower
        out.append(FacetSequence._trusted(tuple(facets[t] for t in chosen)))
    return tuple(out)


def check_promotion(seq: FacetSequence) -> Optional[str]:
    image = promote(seq, GraphKind.DUAL)
    if not is_shelling_order(image):
        return f"promotion of {_fmt_seq(seq)} gives non-shelling {_fmt_seq(image)}"
    return None


def check_evacuation(seq: FacetSequence) -> Optional[str]:
    image = evacuate(seq, GraphKind.DUAL)
    if not is_shelling_order(image):
        return f"evacuation of {_fmt_seq(seq)} gives non-shelling {_fmt_seq(image)}"
    return None


def check_involution(seq: FacetSequence) -> Optional[str]:
    twice = evacuate(evacuate(seq, GraphKind.DUAL), GraphKind.DUAL)
    if twice != seq:
        return f"evacuation applied twice moves {_fmt_seq(seq)} to {_fmt_seq(twice)}"
    return None


def check_eq2(seq: FacetSequence) -> Optional[str]:
    via_moves = promote_via_moves(seq)
    direct = promote(seq, GraphKind.DUAL)
    if via_moves != direct:
        return (
            f"elementary moves give {_fmt_seq(via_moves)} but promotion "
            f"gives {_fmt_seq(direct)} on {_fmt_seq(seq)}"
        )
    return None


def check_appending_swap(seq: FacetSequence) -> Optional[str]:
    if len(seq) < 3:
        return None
    masks, k = facet_masks(seq.items)
    if (masks[-2] & masks[-1]).bit_count() >= k - 1:
        return None
    swapped = FacetSequence._trusted(seq.items[:-2] + (seq.items[-1], seq.items[-2]))
    if not is_shelling_order(swapped):
        return f"swapping the last two of {_fmt_seq(seq)} breaks the shelling"
    return None


CORPUS_CHECKS = {
    "promotion": check_promotion,
    "evacuation": check_evacuation,
    "involution": check_involution,
    "eq2": check_eq2,
    "appending-swap": check_appending_swap,
}


def _corpus(
    n: int, k: int, max_facets: int, samples: int, seed: int
) -> tuple[FacetSequence, ...]:
    """The seeded corpus when ``samples`` is positive, else the exhaustive
    one; each guards its own shape."""
    if max_facets < 1:
        raise ValueError(f"--max-facets must be at least 1, got {max_facets}")
    if samples < 0:
        raise ValueError(f"--samples must be at least 0, got {samples}")
    if samples > EXHAUSTIVE_MAX_ORDERS:
        raise ValueError(f"--samples must be at most {EXHAUSTIVE_MAX_ORDERS}, got {samples}")
    if samples > 0:
        return random_corpus(n, k, samples, seed, max_facets)
    return exhaustive_corpus(n, k, max_facets)


def _corpus_setup(n, k, max_facets, samples, seed, check_names):
    corpus = _corpus(n, k, max_facets, samples, seed)
    fns = [CORPUS_CHECKS[name] for name in check_names]

    def check(i: int) -> tuple[int, int, Optional[str]]:
        seq = corpus[i]
        return _tally(fn(seq) for fn in fns)

    return len(corpus), range(len(corpus)), check


def sweep_shelling_corpus(
    suite: str,
    check_names: tuple[str, ...],
    n: int,
    k: int,
    max_facets: int = 5,
    samples: int = 0,
    seed: int = 0,
    jobs: int = 1,
) -> RunReport:
    """Run the named checks over every shelling order in the corpus.

    ``samples == 0`` sweeps the exhaustive corpus; a positive value runs
    the seeded random corpus instead; a negative one, or ``max_facets``
    below 1, is a ``ValueError``.  Either way the chunks check corpus
    indices, and each worker builds (or inherits) the same corpus."""
    shape = (n, k, max_facets, samples, seed, check_names)
    return _sweep(suite, _corpus_setup, shape, jobs)


# The checks each corpus suite runs on every order of its corpus:
# promotion and evacuation must give shelling orders, evacuation applied
# twice must give the order back, and promotion must factor into the
# chain of elementary moves.
CORPUS_SUITES = {
    "promotion-shell": ("promotion",),
    "evacuation-shell": ("evacuation", "involution"),
    "eq2-oracle": ("eq2",),
}


# --- hasse-vs-dual ----------------------------------------------------------


def _hasse_vs_dual_setup(n: int, k: int):
    # the families: every nonempty down-set of the k-subset quotient, in
    # ascending order, then every interval that is not one of them
    universe, _, _ = _ksubset_universe(n, k)
    facets, below = universe.facets, universe.below
    m = len(facets)
    above = [0] * m
    for t, row in enumerate(below):
        for i in _bits(row):
            above[i] |= 1 << t
    # an insertion-ordered set of masks
    supports = dict.fromkeys(mask for mask in order_ideals(below) if mask)
    for i in range(m):
        for j in range(m):
            if i == j or below[j] >> i & 1:
                supports[(above[i] | 1 << i) & (below[j] | 1 << j)] = None

    def check(mask: int) -> tuple[int, int, Optional[str]]:
        elems = [facets[t] for t in _bits(mask)]  # canonical order already
        cover_pairs = induced_covers(set(elems), OrderKind.GALE)
        dual_ok = all(
            (a.mask & b.mask).bit_count() == k - 1 for a, b in cover_pairs
        )

        def verdict(seq: FacetSequence) -> Optional[str]:
            if not dual_ok:
                return f"cover pair not a ridge pair in {_fmt_set(elems)}"
            if promote(seq, GraphKind.DUAL) != promote(seq, GraphKind.HASSE):
                return f"promotions disagree on extension {_fmt_seq(seq)}"
            return None

        return _tally(map(verdict, linear_extensions(elems, OrderKind.GALE)))

    return len(supports), list(supports), check


def hasse_vs_dual(n: int, k: int, jobs: int = 1) -> RunReport:
    """On every order ideal and every interval, the induced Hasse graph of
    a linear extension must be a subgraph of its dual graph and the two
    promotions must agree.

    The sweep lists every linear extension of every support, but its
    bound is on the C(n, k) facets (``KSUBSET_MAX_FACETS``): past n = 6
    that leaves k in {0, 1, n - 1, n}, whose Gale orders are chains, so
    each support has one extension and no shape costs more than (6, 3)."""
    return _sweep("hasse-vs-dual", _hasse_vs_dual_setup, (n, k), jobs)


# --- remark-bruhat-graph ----------------------------------------------------


def _transposition_neighbors(y: KSubset) -> set[KSubset]:
    """Images of y under every transposition, through the permutation
    completion: the independent route to ridge adjacency.  Only the
    completion's first k entries are projected, so the swap is applied
    to them alone, and each distinct image becomes one KSubset."""
    n, k = y.n, len(y)
    head = canonical_completion(y).entries[:k]
    images = set()
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            images.add(frozenset(q if v == p else p if v == q else v for v in head))
    return {KSubset(n, tuple(image)) for image in images}


def _remark_setup(n: int, k: int):
    # the pairs are counted before any facet is listed.  k > n has no
    # facet, and ``_sweep`` refuses its one empty family; otherwise a
    # k-subset of [n] needs n <= MAX_UNIVERSE, which also keeps C(n, k)
    # cheap to count
    if k > n:
        return 1, [], None
    _check_universe(n)
    m = math.comb(n, k)
    pairs = math.comb(m, 2)
    if pairs > REMARK_MAX_PAIRS:
        raise ValueError(
            f"facet pairs are bounded at {REMARK_MAX_PAIRS}, got "
            f"C(C(n, k), 2) = C({m}, 2) = {pairs} at n = {n}, k = {k}"
        )
    facets = list(all_ksubsets(n, k))
    below = strictly_below_masks(facets, OrderKind.GALE)
    exchange = {y: _transposition_neighbors(y) for y in facets}
    instances = 1 << m
    families = instances >> 2  # a pair lies in a quarter of the families

    def verdict(s: int, t: int) -> Optional[str]:
        a, b = facets[s], facets[t]
        is_ridge = (a.mask & b.mask).bit_count() == k - 1
        if is_ridge != (a in exchange[b]):
            return f"ridge/reflection mismatch on ({_fmt_facet(a)},{_fmt_facet(b)})"
        if is_ridge and not (below[t] >> s & 1 or below[s] >> t & 1):
            return f"ridge pair ({_fmt_facet(a)},{_fmt_facet(b)}) incomparable"
        return None

    def check(pair: tuple[int, int]) -> tuple[int, int, Optional[str]]:
        bad = verdict(*pair)
        return families, families if bad else 0, bad

    return instances, [(s, t) for t in range(m) for s in range(t)], check


def remark_bruhat_graph(n: int, k: int, jobs: int = 1) -> RunReport:
    """Dual-graph edges must be exactly the single-exchange (reflection)
    pairs, and every edge must join comparable facets, in every family of
    the m = C(n, k) k-subsets of [n].

    A pair's verdict depends on the pair alone, so the sweep checks the
    C(m, 2) pairs, bounded by ``REMARK_MAX_PAIRS``, and not the 2^m
    families it reports as instances.  Each pair lies in 2^(m-2) of the
    families: it counts that many checks, and as many failures when it
    is bad.  The first family in ascending mask order that holds a bad
    pair is the bad pair with the least mask 1 << s | 1 << t, on its own,
    so the pairs are visited in ascending mask (t, then s) and the first
    counterexample is the first bad pair's message."""
    return _sweep("remark-bruhat-graph", _remark_setup, (n, k), jobs)


SUITES = {
    "extensions-shell": extensions_shell,
    "barycentric-coxeter": barycentric_coxeter,
    "conf-ideals-flagshell": conf_ideals_flagshell,
    "hasse-vs-dual": hasse_vs_dual,
    "remark-bruhat-graph": remark_bruhat_graph,
    **{
        name: functools.partial(sweep_shelling_corpus, name, checks)
        for name, checks in CORPUS_SUITES.items()
    },
}
