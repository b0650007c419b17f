"""Promotion and evacuation of facet sequences through labeled graphs.

The track of a graph on {1, ..., h} is the greedy increasing neighbor
path from vertex 1.  Promotion shifts off-track positions down by one,
sends each track vertex to just below its successor, and sends the last
track vertex to h.  Specializing the graph to the dual graph of a facet
sequence gives shelling-order promotion; specializing to the Hasse
diagram of the order induced on the support gives classical poset
promotion of linear extensions.
"""

from __future__ import annotations

from enum import Enum

from .bruhat import _order_of, induced_covers
from .core import FacetSequence, LabeledGraph
from .shelling import dual_graph

PositionPermutation = tuple  # one-line notation, a bijection of [h]
Track = tuple  # strictly increasing vertices, starting at 1


class GraphKind(Enum):
    DUAL = "dual"
    HASSE = "hasse"


def track(graph: LabeledGraph) -> Track:
    """Greedy path: from each vertex, step to its least larger neighbor;
    on a dual graph of at most 8k facets, the next later facet sharing
    k - 1 vertices with the last one."""
    if graph._masks is not None:
        masks, k = graph._masks
        # past 8k, read the rows (ridge table): the masks walk would speed
        # up large-inputs, and perfbench's peak_rss_mb grows with its number
        # of passes (ROADMAP item 7); this is the only length split
        if len(masks) <= 8 * k:
            anchor, vertices = masks[0], [1]
            for v in range(1, len(masks)):
                if (anchor & masks[v]).bit_count() == k - 1:
                    anchor = masks[v]
                    vertices.append(v + 1)
            return tuple(vertices)
    rows = graph.rows
    v = 1
    vertices = [1]
    while True:
        bigger = rows[v] >> (v + 1)  # bit p: neighbor v + 1 + p
        if not bigger:
            return tuple(vertices)
        v += (bigger & -bigger).bit_length()
        vertices.append(v)


def promotion_permutation(graph: LabeledGraph) -> PositionPermutation:
    """One-line notation of the promotion induced by the graph's track."""
    h = graph.order
    path = track(graph)
    image = list(range(0, h))  # off-track: i -> i - 1
    for a, b in zip(path, path[1:]):
        image[a - 1] = b - 1
    image[path[-1] - 1] = h
    return tuple(image)


def graph_of(seq: FacetSequence, kind: GraphKind) -> LabeledGraph:
    """The dual graph, or the Hasse diagram of the order that the facet
    alphabet carries (``_order_of``), induced on the support with
    elements replaced by their positions."""
    if kind is GraphKind.DUAL:
        return dual_graph(seq)
    position = {item: i + 1 for i, item in enumerate(seq.items)}
    rows = [0] * (len(seq) + 1)
    for lo, hi in induced_covers(seq.support(), _order_of(seq.items[0])):
        a, b = position[lo], position[hi]
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return LabeledGraph._of_rows(len(seq), rows)


def promote(seq: FacetSequence, kind: GraphKind = GraphKind.DUAL) -> FacetSequence:
    """Apply ``promotion_permutation`` of the graph, read off the track: the
    items after the first shift down one place, each track item lands just
    below its successor (index b - 2 for successor b), the last at the end."""
    path = track(graph_of(seq, kind))
    items = seq.items
    out = list(items[1:])
    out.append(items[path[-1] - 1])
    for a, b in zip(path, path[1:]):
        out[b - 2] = items[a - 1]
    return FacetSequence._trusted(tuple(out))


def elementary_move(seq: FacetSequence, i: int) -> FacetSequence:
    """Swap positions i, i+1 unless they are adjacent in the dual graph."""
    h = len(seq)
    if not 1 <= i <= h - 1:
        raise ValueError(f"move position {i} not within [1, {h - 1}]")
    if graph_of(seq, GraphKind.DUAL).has_edge(i, i + 1):
        return seq
    items = list(seq.items)
    items[i - 1], items[i] = items[i], items[i - 1]
    return FacetSequence._trusted(tuple(items))


def promote_via_moves(seq: FacetSequence) -> FacetSequence:
    """Dual-graph promotion as the chain of elementary moves at positions
    1, ..., h-1, the graph recomputed from the current sequence each time."""
    for i in range(1, len(seq)):
        seq = elementary_move(seq, i)
    return seq


def r_promote(
    seq: FacetSequence, r: int, kind: GraphKind = GraphKind.DUAL
) -> FacetSequence:
    """Promote the length-r prefix as a standalone sequence; at r = h,
    the first r-promotion of ``evacuate``, that is the promotion itself."""
    items = seq.items
    h = len(items)
    if not 1 <= r <= h:
        raise ValueError(f"prefix length {r} not within [1, {h}]")
    if r == h:
        return promote(seq, kind)
    promoted = promote(FacetSequence._trusted(items[:r]), kind)
    return FacetSequence._trusted(promoted.items + items[r:])


def evacuate(seq: FacetSequence, kind: GraphKind = GraphKind.DUAL) -> FacetSequence:
    """Compose the r-promotions for r = h down to 2; an involution for
    the dual graph."""
    for r in range(len(seq.items), 1, -1):
        seq = r_promote(seq, r, kind)
    return seq
