"""Constructive embedding pipeline for spanning bounded-degree guests in sparse hosts.

Submodules follow the pipeline order: graph_core (bitset kernel), regularity
(pair predicates and regular partitions), reduced_graph (backbone structure and
host cleanup), guest_prep (guest-side assignment), balancing (exact cluster
sizing), pre_embedding (exceptional-vertex cover), embedder (spanning
completion), oracles (brute-force ground truth), adversary (edge deletion
down to the degree floor), harness (experiments + CLI).
"""

from .graph_core import (
    Graph,
    Labelling,
    VertexSet,
    bandwidth_of_labelling,
    degeneracy_order,
    gnp,
    paley,
)

__all__ = [
    "Graph",
    "Labelling",
    "VertexSet",
    "bandwidth_of_labelling",
    "degeneracy_order",
    "gnp",
    "paley",
]
