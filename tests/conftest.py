from random import Random

import pytest

from shellorder import FacetSequence, KSubset
from shellorder.shelling import _append_ok


def make_ksubset(n: int, digits: str) -> KSubset:
    return KSubset(n, tuple(int(c) for c in digits))


@pytest.fixture(scope="session")
def bjorner() -> FacetSequence:
    """Björner's 11-facet shellable complex, in its standard shelling order."""
    facets = "123 125 126 234 235 134 136 145 246 356 456".split()
    return FacetSequence(tuple(make_ksubset(6, d) for d in facets))


def grow_shelling_order(seed: int, n: int, k: int, h: int) -> FacetSequence:
    """A shelling order of h k-subsets of [n], grown by appending random
    ridge neighbours of placed facets that keep the gluing condition."""
    rng = Random(seed)
    masks = [sum(1 << v for v in rng.sample(range(n), k))]
    for _ in range(100 * h):
        if len(masks) == h:
            return FacetSequence(tuple(KSubset.from_mask(n, m) for m in masks))
        base = rng.choice(masks)
        inside = [v for v in range(n) if base >> v & 1]
        outside = [v for v in range(n) if not base >> v & 1]
        cand = base ^ 1 << rng.choice(inside) ^ 1 << rng.choice(outside)
        if cand not in masks and _append_ok(masks, cand, k):
            masks.append(cand)
    raise ValueError(f"growth stalled at {len(masks)} of {h} facets")
