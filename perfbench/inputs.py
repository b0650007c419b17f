"""Seeded inputs for the ``large-inputs`` workload and the reference
oracles that give their expected outputs.

Nothing here imports ``shellorder``: facets are plain bitmasks and sorted
tuples, so the expected outputs come from code independent of the program
under test.  Inputs are written in the program's canonical file format
(header, then one facet per line), which is also what its transforms
print, so an output can be compared with an expected text byte for byte.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable, Optional

# (n, k, target length) of the long shelling orders: a fixed ladder, so the
# amount of work varies little with the seed; the seed picks the facets.
# Seven orders share the length 130 so that the calls around p90 (their
# evacuations) are many of one size: the cost of one evacuation also
# depends on the order's dual graph, by up to a quarter.
SHELLING_LADDER = (
    (9, 3, 40), (9, 3, 50), (10, 3, 60), (10, 4, 70), (11, 3, 80), (11, 4, 90),
    (11, 4, 100), (12, 4, 145), (12, 4, 160),
) + ((12, 4, 130),) * 7
# (n, k, size) of the Gale down-sets.
DOWNSET_LADDER = (
    (9, 3, 30), (10, 3, 45), (10, 4, 60), (11, 3, 75),
    (11, 4, 90), (12, 3, 100), (12, 4, 110), (12, 4, 120),
)
# One down-set in a large ambient quotient, so that ``check-order-ideal``
# spends its time enumerating all C(20, 5) = 15,504 ambient subsets.
WIDE_IDEAL = (20, 5, 25)
BARYCENTRIC_N = 9
BARYCENTRIC_SIZE = 30


def to_mask(members) -> int:
    m = 0
    for v in members:
        m |= 1 << (v - 1)
    return m


def members_of(mask: int) -> tuple[int, ...]:
    return tuple(v + 1 for v in range(mask.bit_length()) if mask >> v & 1)


def sequence_text(n: int, rows, mode: str = "sorted") -> str:
    lines = [f"n={n} mode={mode}"]
    lines.extend(" ".join(str(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def parse_text(text: str) -> tuple[int, list[tuple[int, ...]]]:
    """Header universe and rows of a file in the program's format."""
    lines = text.splitlines()
    n = int(lines[0].split()[0][2:])
    return n, [tuple(int(t) for t in line.split()) for line in lines[1:]]


# --- reference oracles ------------------------------------------------------


def shelling_failure(masks: list[int], k: int) -> Optional[tuple[int, int]]:
    """Least (j, i) pair, 1-indexed, whose overlap lies in no ridge overlap
    of an earlier facet; None when the order is a shelling order."""
    for j in range(1, len(masks)):
        bj = masks[j]
        ridges = [m & bj for m in masks[:j] if (m & bj).bit_count() == k - 1]
        for i in range(j):
            need = masks[i] & bj
            if not any(need & ~r == 0 for r in ridges):
                return i + 1, j + 1
    return None


def _append_fits(masks: list[int], cand: int, k: int) -> bool:
    ridges = [m & cand for m in masks if (m & cand).bit_count() == k - 1]
    return bool(ridges) and all(
        any((m & cand) & ~r == 0 for r in ridges) for m in masks
    )


def promoted(items: list, adjacent: Callable[[int, int], bool]) -> list:
    """Promotion through the graph on positions 1..h given by ``adjacent``:
    the greedy track from 1 moves each track item to just below the next
    track position, the last one to the end, everything else down by one."""
    h = len(items)
    path = [1]
    while True:
        v = path[-1]
        bigger = [u for u in range(v + 1, h + 1) if adjacent(v, u)]
        if not bigger:
            break
        path.append(bigger[0])
    image = list(range(h))  # position p goes to p - 1
    for a, b in zip(path, path[1:]):
        image[a - 1] = b - 1
    image[path[-1] - 1] = h
    out = [None] * h
    for i, item in enumerate(items):
        out[image[i] - 1] = item
    return out


def dual_promoted(masks: list[int], k: int) -> list[int]:
    return promoted(
        masks, lambda a, b: (masks[a - 1] & masks[b - 1]).bit_count() == k - 1
    )


def gale_le(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def hasse_promoted(rows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Promotion through the Hasse diagram of the Gale order induced on the
    rows, positions standing in for elements."""
    m = len(rows)
    above = [0] * m
    below = [0] * m
    for i in range(m):
        for j in range(m):
            if i != j and gale_le(rows[i], rows[j]):
                above[i] |= 1 << j
                below[j] |= 1 << i

    def covers(a: int, b: int) -> bool:
        lo, hi = (a - 1, b - 1) if above[a - 1] >> (b - 1) & 1 else (b - 1, a - 1)
        return bool(above[lo] >> hi & 1) and not above[lo] & below[hi]

    return promoted(rows, covers)


def barycentric_text(n: int, rows) -> str:
    tuples = sorted({p for row in rows for p in itertools.permutations(row)})
    return sequence_text(n, tuples, "tuple")


# --- generators -------------------------------------------------------------


def grow_shelling(rng: Random, n: int, k: int, h: int) -> list[int]:
    """A shelling order grown by gluing random neighbours of placed facets
    along ridges; stops early if no new facet fits after many draws."""
    masks = [to_mask(rng.sample(range(1, n + 1), k))]
    used = set(masks)
    full = (1 << n) - 1
    misses = 0
    while len(masks) < h and misses < 2000:
        base = rng.choice(masks)
        drop = rng.choice(members_of(base))
        add = rng.choice(members_of(full & ~base))
        cand = base & ~(1 << (drop - 1)) | 1 << (add - 1)
        if cand in used or not _append_fits(masks, cand, k):
            misses += 1
            continue
        masks.append(cand)
        used.add(cand)
    return masks


def _lower_covers(x: tuple[int, ...]) -> list[tuple[int, ...]]:
    out = []
    for p, v in enumerate(x):
        if v - 1 >= 1 and (p == 0 or x[p - 1] < v - 1):
            out.append(x[:p] + (v - 1,) + x[p + 1 :])
    return out


def _upper_covers(x: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    out = []
    for p, v in enumerate(x):
        if v + 1 <= n and (p == len(x) - 1 or x[p + 1] > v + 1):
            out.append(x[:p] + (v + 1,) + x[p + 1 :])
    return out


def grow_downset(rng: Random, n: int, k: int, size: int) -> list[tuple[int, ...]]:
    """A Gale order ideal listed in the order it was grown, which is a
    linear extension of it."""
    rows = [tuple(range(1, k + 1))]
    members = set(rows)
    while len(rows) < size:
        frontier = sorted(
            {
                y
                for x in rows
                for y in _upper_covers(x, n)
                if y not in members and all(z in members for z in _lower_covers(y))
            }
        )
        if not frontier:
            break
        y = rng.choice(frontier)
        rows.append(y)
        members.add(y)
    return rows


def principal_ideal(n: int, top: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every k-subset Gale-below ``top``: the bases of a Schubert matroid."""
    return [x for x in itertools.combinations(range(1, n + 1), len(top)) if gale_le(x, top)]


# --- the call list ----------------------------------------------------------


@dataclass
class CliCall:
    """One ``cli.main`` call and what it must produce.

    ``expect_text`` is compared exactly; otherwise ``check`` judges the
    output.  ``feeds`` is the path this call's output is written to, as
    the input of a later call."""

    argv: list[str]
    expect_exit: int
    expect_text: Optional[str] = None
    check: Optional[Callable[[str], bool]] = None
    feeds: Optional[str] = None
    kind: str = ""
    evacuate_length: int = 0


def _is_shelling_of(text: str, support: set[int], k: int) -> bool:
    try:
        _, rows = parse_text(text)
    except (ValueError, IndexError):
        return False
    masks = [to_mask(r) for r in rows]
    return (
        len(masks) == len(support)
        and set(masks) == support
        and shelling_failure(masks, k) is None
    )


def build_large_inputs(seed: int, workdir: Path) -> list[CliCall]:
    """Write the seeded input files under ``workdir`` and list the calls."""
    rng = Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    calls: list[CliCall] = []

    def write(name: str, text: str) -> str:
        path = workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    for t, (n, k, h) in enumerate(SHELLING_LADDER):
        masks = grow_shelling(rng, n, k, h)
        rows = [members_of(m) for m in masks]
        text = sequence_text(n, rows)
        order = write(f"shell{t}.txt", text)
        keep = len(masks) * 3 // 4
        tail = masks[keep:]
        rng.shuffle(tail)
        shuffled = masks[:keep] + tail
        failing = shelling_failure(shuffled, k)
        verdict = (
            "holds\n"
            if failing is None
            else f"fails: no gluing certificate for pair i={failing[0]} j={failing[1]}\n"
        )
        shuffle_path = write(f"shuffle{t}.txt", sequence_text(n, [members_of(m) for m in shuffled]))
        complex_path = write(f"complex{t}.txt", sequence_text(n, sorted(rows)))
        support = set(masks)
        evacuated = str(workdir / f"evacuated{t}.txt")
        calls += [
            CliCall(["check-shelling", order], 0, "holds\n", kind="check-shelling"),
            CliCall(["check-shelling", shuffle_path], 0 if failing is None else 1, verdict,
                 kind="check-shelling"),
            CliCall(["promote", "--graph", "dual", order], 0,
                 sequence_text(n, [members_of(m) for m in dual_promoted(masks, k)]),
                 kind="promote-dual"),
            CliCall(["evacuate", "--graph", "dual", order], 0,
                 check=lambda s, support=support, k=k: _is_shelling_of(s, support, k),
                 feeds=evacuated, kind="evacuate", evacuate_length=len(masks)),
            CliCall(["evacuate", "--graph", "dual", evacuated], 0, text, kind="evacuate",
                 evacuate_length=len(masks)),
            CliCall(["find-shelling", complex_path], 0,
                 check=lambda s, support=support, k=k: _is_shelling_of(s, support, k),
                 kind="find-shelling"),
        ]

    for t, (n, k, size) in enumerate(DOWNSET_LADDER):
        rows = grow_downset(rng, n, k, size)
        ideal = write(f"ideal{t}.txt", sequence_text(n, rows))
        punctured = write(f"punctured{t}.txt", sequence_text(n, rows[1:]))
        top = rows[-1]
        matroid = write(f"schubert{t}.txt", sequence_text(n, principal_ideal(n, top)))
        calls += [
            CliCall(["check-order-ideal", ideal], 0, "holds\n", kind="check-order-ideal"),
            CliCall(["check-order-ideal", punctured], 1, "fails\n", kind="check-order-ideal"),
            CliCall(["promote", "--graph", "hasse", ideal], 0,
                 sequence_text(n, hasse_promoted(rows)), kind="promote-hasse"),
            CliCall(["check-matroid", matroid], 0, "holds\n", kind="check-matroid"),
        ]

    n, k, size = WIDE_IDEAL
    wide = write("wide.txt", sequence_text(n, grow_downset(rng, n, k, size)))
    calls.append(CliCall(["check-order-ideal", wide], 0, "holds\n", kind="check-order-ideal"))

    for t in range(4):
        rows = sorted(grow_downset(rng, BARYCENTRIC_N, 3, BARYCENTRIC_SIZE))
        path = write(f"bary{t}.txt", sequence_text(BARYCENTRIC_N, rows))
        calls.append(CliCall(["barycentric", path], 0, barycentric_text(BARYCENTRIC_N, rows),
                              kind="barycentric"))
    return calls
