"""Order combinatorics of pure simplicial complexes: Gale and
configuration-space orders, matroid and Coxeter-matroid axioms, shelling
orders, barycentric subdivisions as coset unions, and promotion and
evacuation of shelling orders."""

from .bruhat import (
    OrderKind,
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
from .core import (
    FacetSequence,
    FlagTuple,
    FlagVertexFacet,
    KSubset,
    LabeledGraph,
    PureComplex,
    all_flag_tuples,
    all_ksubsets,
)
from .matroid import (
    ExchangeWitness,
    MatroidVerdict,
    canonical_completion,
    has_quasi_exchange,
    is_coxeter_matroid,
    is_matroid,
    shift,
    underlying_flag_matroid,
)
from .promotion import (
    GraphKind,
    elementary_move,
    evacuate,
    graph_of,
    promote,
    promote_via_moves,
    promotion_permutation,
    r_promote,
    track,
)
from .shelling import (
    ShellingWitness,
    are_isomorphic,
    dual_graph,
    find_shelling_order,
    is_shelling_order,
    relabel,
    shelling_orders,
)
from .subdivision import (
    barycentric,
    flag_complex,
    flag_facet,
    is_flag_shellable,
    is_flag_shelling_order,
)

__version__ = "0.1.0"
