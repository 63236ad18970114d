"""Photon-weaving server simulator.

Two independent engines over the same physics: an exact linear-optical
postselection simulator (``optics``) and a graph-state rewrite engine
(``graphs``), tied together by stabilizer decoding (``states``).  The
``protocols`` module runs the distribution protocols through both layers,
and ``minors`` carries the circle-graph machinery that classifies every
state the server can distribute from zigzag-style resources.
"""

from .graphs import (
    Graph,
    ShapeClass,
    classify_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    local_complement,
    locally_equivalent,
    measure_pauli,
    path_graph,
    star_graph,
)
from .minors import (
    Multigraph,
    apply_word,
    build_circulant,
    canonical_tour,
    crosscheck,
    find_tour,
    interlacement,
    leaf_expansion,
    predict_class,
)
from .protocols import (
    ProtocolResult,
    build_block,
    fuse_chain,
    fuse_within,
    monte_carlo,
    run_caterpillar,
    run_cycle,
    run_ghz,
    run_path,
)
from .states import StateVector, state_locally_equivalent, to_state_vector

__all__ = [
    "Graph",
    "Multigraph",
    "ProtocolResult",
    "ShapeClass",
    "StateVector",
    "apply_word",
    "build_block",
    "build_circulant",
    "canonical_tour",
    "classify_graph",
    "complete_graph",
    "crosscheck",
    "cycle_graph",
    "empty_graph",
    "find_tour",
    "fuse_chain",
    "fuse_within",
    "interlacement",
    "leaf_expansion",
    "local_complement",
    "locally_equivalent",
    "measure_pauli",
    "monte_carlo",
    "path_graph",
    "predict_class",
    "run_caterpillar",
    "run_cycle",
    "run_ghz",
    "run_path",
    "star_graph",
    "state_locally_equivalent",
    "to_state_vector",
]
