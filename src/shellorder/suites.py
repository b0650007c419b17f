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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from random import Random
from typing import Iterable, Optional

from .bruhat import (
    OrderKind,
    induced_covers,
    is_order_ideal,
    order_ideals,
    prefix_projection,
    strictly_below_masks,
)
from .core import (
    FacetSequence,
    FlagTuple,
    KSubset,
    PureComplex,
    _bits,
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
    _tally_orders,
    _walk_orders,
    facet_masks,
    is_shelling_order,
    shelling_orders,
)
from .subdivision import barycentric, flag_facet

EXHAUSTIVE_MAX_N = 6
# The CONF quotient (6, 2) has 30 tuples and 297 down-sets, and its
# sweep ends in 0.46 s; the next CONF universe, (5, 3), has 60 tuples and
# 28,315 down-sets, and its checks did not end in 600 s.  No n <= 6
# universe lies between 30 and 60 elements.
FAMILY_MAX_BITS = 30
SEEDED_MAX_FACETS = 10_000  # seeded corpora list all C(n, k) facets


@dataclass(frozen=True)
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


def _guard_exhaustive(n: int) -> None:
    if n > EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive sweeps are guarded at n <= {EXHAUSTIVE_MAX_N}")


def _guard_seeded(n: int, k: int) -> None:
    facets = math.comb(n, k)  # a ValueError for negative n or k
    if not 1 <= facets <= SEEDED_MAX_FACETS:
        raise ValueError(
            f"seeded corpora need 1 <= C(n, k) <= {SEEDED_MAX_FACETS}, "
            f"got C({n}, {k}) = {facets}"
        )


def _fmt_facet(f) -> str:
    if isinstance(f, KSubset):
        vals = f.members
    else:
        vals = f.entries
    if f.n <= 9:
        return "".join(str(v) for v in vals)
    return " ".join(str(v) for v in vals)


def _fmt_seq(items: Iterable) -> str:
    return "(" + ",".join(_fmt_facet(f) for f in items) + ")"


def _fmt_set(items: Iterable) -> str:
    return "{" + ",".join(_fmt_facet(f) for f in sorted(items, key=canonical_key)) + "}"


def _chunks(total: int) -> list[tuple[int, int]]:
    pieces = min(64, total) or 1
    step = -(-total // pieces)
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def _run_chunked(worker, args_list: list, jobs: int) -> list:
    workers = min(jobs, os.cpu_count() or 1, len(args_list))
    if workers <= 1:
        return [worker(a) for a in args_list]
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


def _merge(suite: str, parts: list, started: float, instances: int) -> RunReport:
    checks, failures, first = _sum_tallies(parts)
    return RunReport(suite, instances, checks, failures, first, time.perf_counter() - started)


def _extension_tally(
    elems: list, kind: OrderKind, fmasks: list[int], k: int, describe
) -> tuple[int, int, Optional[str]]:
    """(checks, failures, first counterexample) over the linear extensions
    of the sorted ``elems``, with the shelling condition on ``fmasks``
    checked at every append: one check per extension and per rejected
    prefix.

    A failed append dooms every completion of that prefix, so the branch
    is pruned and counts as one failed check; its counterexample is
    ``describe`` of the formatted prefix.  The counts come from the DP
    over order ideals, ``_tally_orders``, not from listing extensions."""
    checks, failures, first = _tally_orders(strictly_below_masks(elems, kind), fmasks, k)
    if first is None:
        return checks, failures, None
    return checks, failures, describe(_fmt_seq(elems[t] for t in first))


# --- subset sweeps ----------------------------------------------------------
#
# A subset sweep visits families given as bitmasks over a universe of at
# most ``FAMILY_MAX_BITS`` elements.  Its family builder returns the
# number of instances it reports and the families it checks.  Its set-up
# runs once per chunk, in the worker, and returns the per-family check: a
# function from a nonempty family mask to its (checks, failures, first
# counterexample).  ``_FAMILY_SWEEPS`` names each sweep's builder and
# set-up.


def _family_chunk(args: tuple) -> tuple[int, int, Optional[str]]:
    suite, n, k, families = args
    check = _FAMILY_SWEEPS[suite][1](n, k)
    # the empty family has nothing to check
    return _sum_tallies(check(m) for m in families if m)


def _sweep_families(suite: str, n: int, k: int, jobs: int) -> RunReport:
    _guard_exhaustive(n)
    started = time.perf_counter()
    instances, families = _FAMILY_SWEEPS[suite][0](n, k)
    if not families:
        raise ValueError(f"{suite} has no families to sweep at n = {n}, k = {k}")
    args = [(suite, n, k, families[lo:hi]) for lo, hi in _chunks(len(families))]
    parts = _run_chunked(_family_chunk, args, jobs)
    return _merge(suite, parts, started, instances)


def _ksubset_families(n: int, k: int) -> tuple[int, range]:
    families = range(1 << sum(1 for _ in all_ksubsets(n, k)))
    return len(families), families


# --- extensions-shell -------------------------------------------------------


def _extensions_shell_setup(n: int, k: int):
    facets = list(all_ksubsets(n, k))

    def check(mask: int) -> tuple[int, int, Optional[str]]:
        X = [facets[t] for t in _bits(mask)]
        if not has_quasi_exchange(X).holds:
            # matroids and order ideals always have quasi-exchange
            if is_matroid(X).holds or is_order_ideal(X, OrderKind.GALE):
                return 1, 1, f"matroid/ideal without quasi-exchange: {_fmt_set(X)}"
            return 0, 0, None
        elems = sorted(X, key=canonical_key)
        return _extension_tally(
            elems,
            OrderKind.GALE,
            [x.mask for x in elems],
            k,
            lambda prefix: (
                f"X={_fmt_set(X)} extension prefix {prefix} is not a shelling prefix"
            ),
        )

    return check


def extensions_shell(n: int, k: int, jobs: int = 1) -> RunReport:
    """Every subset with the quasi-exchange property: each of its linear
    extensions must be a shelling order."""
    return _sweep_families("extensions-shell", n, k, jobs)


# --- barycentric-coxeter ----------------------------------------------------


def _barycentric_coxeter_setup(n: int, k: int):
    facets = list(all_ksubsets(n, k))

    def check(mask: int) -> tuple[int, int, Optional[str]]:
        X = [facets[t] for t in _bits(mask)]
        lhs = is_matroid(X).holds
        rhs = is_coxeter_matroid(barycentric(PureComplex.of(X)))
        if lhs != rhs:
            return 1, 1, f"X={_fmt_set(X)}: exchange={lhs} but subdivision maximality={rhs}"
        return 1, 0, None

    return check


def barycentric_coxeter(n: int, k: int, jobs: int = 1) -> RunReport:
    """Exchange property of X must coincide with the maximality property
    of its barycentric subdivision, for every subset."""
    return _sweep_families("barycentric-coxeter", n, k, jobs)


# --- conf-ideals-flagshell --------------------------------------------------


def _flag_tuple_families(n: int, k: int) -> tuple[int, list[int]]:
    # all 2^m subsets of the m tuples are instances, but only the
    # down-sets have anything to check.  n <= 6 keeps every k-subset
    # universe at most C(6, 3) = 20 elements, but not this one
    elems = list(all_flag_tuples(n, k))
    m = len(elems)
    if m > FAMILY_MAX_BITS:
        raise ValueError(
            f"subset sweeps are guarded at universes of at most {FAMILY_MAX_BITS} "
            f"elements, got {m} at n = {n}, k = {k}"
        )
    return 1 << m, list(order_ideals(strictly_below_masks(elems, OrderKind.CONF)))


def _conf_ideals_setup(n: int, k: int):
    elems_all = list(all_flag_tuples(n, k))

    def check(mask: int) -> tuple[int, int, Optional[str]]:
        elems = sorted((elems_all[t] for t in _bits(mask)), key=canonical_key)
        fmasks, size = facet_masks(tuple(flag_facet(y) for y in elems))
        return _extension_tally(
            elems,
            OrderKind.CONF,
            fmasks,
            size,
            lambda prefix: (
                f"Y={_fmt_set(elems)} extension prefix {prefix} is not a flag shelling prefix"
            ),
        )

    return check


def conf_ideals_flagshell(n: int, k: int, jobs: int = 1) -> RunReport:
    """Every order ideal of the configuration quotient: each of its linear
    extensions must be a flag shelling order."""
    return _sweep_families("conf-ideals-flagshell", n, k, jobs)


# --- shelling-order corpus (promotion / evacuation / eq2 / swap) ------------


@functools.lru_cache(maxsize=8)
def exhaustive_corpus(n: int, k: int, max_facets: int) -> tuple[FacetSequence, ...]:
    """All shelling orders of all complexes with at most max_facets facets."""
    facets = list(all_ksubsets(n, k))
    out: list[FacetSequence] = []
    for size in range(1, max_facets + 1):
        for combo in itertools.combinations(facets, size):
            out.extend(shelling_orders(PureComplex.of(combo)))
    return tuple(out)


@functools.lru_cache(maxsize=8)
def random_corpus(
    n: int, k: int, samples: int, seed: int, h_max: int
) -> tuple[FacetSequence, ...]:
    """Seeded growth sampling: start from a random facet and keep appending
    a random facet that preserves the gluing condition, up to a random
    target length.  Every sample is a shelling order by construction."""
    _guard_seeded(n, k)
    rng = Random(seed)
    facets = list(all_ksubsets(n, k))
    out: list[FacetSequence] = []
    while len(out) < samples:
        target = rng.randint(1, h_max)
        pool = list(facets)
        rng.shuffle(pool)
        chosen = [pool.pop()]
        placed = [chosen[0].mask]
        k_size = len(chosen[0])
        while len(chosen) < target:
            candidates = [f for f in pool if _append_ok(placed, f.mask, k_size)]
            if not candidates:
                break
            follower = rng.choice(candidates)
            pool.remove(follower)
            chosen.append(follower)
            placed.append(follower.mask)
        out.append(FacetSequence(tuple(chosen)))
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
    swapped = FacetSequence(seq.items[:-2] + (seq.items[-1], seq.items[-2]))
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


def _check_corpus(
    corpus: Iterable[FacetSequence], check_names: tuple[str, ...]
) -> tuple[int, int, Optional[str]]:
    fns = [CORPUS_CHECKS[name] for name in check_names]
    return _tally(fn(seq) for seq in corpus for fn in fns)


def _corpus_chunk(args: tuple) -> tuple[int, int, Optional[str]]:
    n, k, max_facets, lo, hi, check_names = args
    return _check_corpus(exhaustive_corpus(n, k, max_facets)[lo:hi], check_names)


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
    the seeded random corpus instead (sequentially: the sampler state is
    inherently ordered)."""
    started = time.perf_counter()
    if samples > 0:
        corpus = random_corpus(n, k, samples, seed, max_facets)
        return _merge(suite, [_check_corpus(corpus, check_names)], started, len(corpus))
    _guard_exhaustive(n)
    corpus_len = len(exhaustive_corpus(n, k, max_facets))
    args = [
        (n, k, max_facets, lo, hi, check_names) for lo, hi in _chunks(corpus_len)
    ]
    parts = _run_chunked(_corpus_chunk, args, jobs)
    return _merge(suite, parts, started, corpus_len)


def promotion_shell(
    n: int, k: int, max_facets: int = 5, samples: int = 0, seed: int = 0, jobs: int = 1
) -> RunReport:
    """Promotion of every shelling order must be a shelling order."""
    return sweep_shelling_corpus(
        "promotion-shell", ("promotion",), n, k, max_facets, samples, seed, jobs
    )


def evacuation_shell(
    n: int, k: int, max_facets: int = 5, samples: int = 0, seed: int = 0, jobs: int = 1
) -> RunReport:
    """Evacuation of every shelling order must be a shelling order, and
    applying it twice must give the order back."""
    return sweep_shelling_corpus(
        "evacuation-shell",
        ("evacuation", "involution"),
        n,
        k,
        max_facets,
        samples,
        seed,
        jobs,
    )


def eq2_oracle(
    n: int, k: int, max_facets: int = 5, samples: int = 0, seed: int = 0, jobs: int = 1
) -> RunReport:
    """Promotion must factor into the chain of elementary moves."""
    return sweep_shelling_corpus(
        "eq2-oracle", ("eq2",), n, k, max_facets, samples, seed, jobs
    )


# --- hasse-vs-dual ----------------------------------------------------------


def _ideal_and_interval_masks(n: int, k: int) -> tuple[int, list[int]]:
    """Every nonempty down-set of the k-subset quotient, in ascending
    order, then every interval that is not one of them."""
    facets = list(all_ksubsets(n, k))
    m = len(facets)
    below = strictly_below_masks(facets, OrderKind.GALE)
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
    return len(supports), list(supports)


def _hasse_vs_dual_setup(n: int, k: int):
    facets = list(all_ksubsets(n, k))

    def check(mask: int) -> tuple[int, int, Optional[str]]:
        elems = sorted((facets[t] for t in _bits(mask)), key=canonical_key)
        cover_pairs = induced_covers(set(elems), OrderKind.GALE)
        dual_ok = all(
            (a.mask & b.mask).bit_count() == k - 1 for a, b in cover_pairs
        )

        def verdict(order: list[int]) -> Optional[str]:
            seq = FacetSequence(tuple(elems[t] for t in order))
            if not dual_ok:
                return f"cover pair not a ridge pair in {_fmt_set(elems)}"
            if promote(seq, GraphKind.DUAL) != promote(seq, GraphKind.HASSE):
                return f"promotions disagree on extension {_fmt_seq(seq)}"
            return None

        below = strictly_below_masks(elems, OrderKind.GALE)
        return _tally(verdict(order) for order in _walk_orders(below))

    return check


def hasse_vs_dual(n: int, k: int, jobs: int = 1) -> RunReport:
    """On every order ideal and every interval, the induced Hasse graph of
    a linear extension must be a subgraph of its dual graph and the two
    promotions must agree."""
    return _sweep_families("hasse-vs-dual", n, k, jobs)


# --- remark-bruhat-graph ----------------------------------------------------


def _transposition_neighbors(y: KSubset) -> set[KSubset]:
    """Images of y under every transposition, through the permutation
    completion: the independent route to ridge adjacency."""
    n = y.n
    w = canonical_completion(y)
    k = len(y)
    out: set[KSubset] = set()
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            swapped = tuple(
                q if v == p else p if v == q else v for v in w.entries
            )
            out.add(prefix_projection(FlagTuple(n, swapped), k))
    return out


def _remark_setup(n: int, k: int):
    facets = list(all_ksubsets(n, k))
    exchange = {y: _transposition_neighbors(y) for y in facets}
    below = strictly_below_masks(facets, OrderKind.GALE)

    def verdict(s: int, t: int) -> Optional[str]:
        a, b = facets[s], facets[t]
        is_ridge = (a.mask & b.mask).bit_count() == k - 1
        if is_ridge != (a in exchange[b]):
            return f"ridge/reflection mismatch on ({_fmt_facet(a)},{_fmt_facet(b)})"
        if is_ridge and not (below[t] >> s & 1 or below[s] >> t & 1):
            return f"ridge pair ({_fmt_facet(a)},{_fmt_facet(b)}) incomparable"
        return None

    # a pair's verdict depends on the pair alone: judge each pair once,
    # in the order ``combinations`` visits them in any family
    bad = []
    for s, t in itertools.combinations(range(len(facets)), 2):
        message = verdict(s, t)
        if message is not None:
            bad.append((1 << s | 1 << t, message))

    def check(mask: int) -> tuple[int, int, Optional[str]]:
        inside = [message for pair, message in bad if mask & pair == pair]
        size = mask.bit_count()
        return size * (size - 1) // 2, len(inside), inside[0] if inside else None

    return check


def remark_bruhat_graph(n: int, k: int, jobs: int = 1) -> RunReport:
    """Dual-graph edges must be exactly the single-exchange (reflection)
    pairs, and every edge must join comparable facets."""
    return _sweep_families("remark-bruhat-graph", n, k, jobs)


# suite -> (its instance count and family masks, given n and k; its
# per-chunk set-up)
_FAMILY_SWEEPS = {
    "extensions-shell": (_ksubset_families, _extensions_shell_setup),
    "barycentric-coxeter": (_ksubset_families, _barycentric_coxeter_setup),
    "conf-ideals-flagshell": (_flag_tuple_families, _conf_ideals_setup),
    "hasse-vs-dual": (_ideal_and_interval_masks, _hasse_vs_dual_setup),
    "remark-bruhat-graph": (_ksubset_families, _remark_setup),
}


SUITES = {
    "extensions-shell": extensions_shell,
    "barycentric-coxeter": barycentric_coxeter,
    "conf-ideals-flagshell": conf_ideals_flagshell,
    "promotion-shell": promotion_shell,
    "evacuation-shell": evacuation_shell,
    "hasse-vs-dual": hasse_vs_dual,
    "eq2-oracle": eq2_oracle,
    "remark-bruhat-graph": remark_bruhat_graph,
}
