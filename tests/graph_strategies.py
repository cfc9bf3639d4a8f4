"""Hypothesis strategies for small random graph correspondences.

Graphs have 1-3 vertices and 1-4 edges with arbitrary endpoints, so the draws
include acyclic graphs (their tensor powers vanish past the longest path),
vertices that are no edge's source and vertices that are no edge's range.
"""

from hypothesis import strategies as st

from wfock.graphs import GraphCorrespondence


@st.composite
def small_graphs(draw, full: bool = False) -> GraphCorrespondence:
    """A random graph; ``full=True`` makes every vertex the source of an edge."""
    n = draw(st.integers(1, 3), label="vertices")
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(edge, min_size=0 if full else 1, max_size=4 - n if full else 4),
                 label="edges")
    if full:
        edges = [(v, draw(st.integers(0, n - 1), label=f"range of {v}")) for v in range(n)] + edges
    return GraphCorrespondence(n, tuple(edges))


def multiplicities(graph: GraphCorrespondence, most: int = 2):
    """A faithful representation's multiplicities, one per vertex."""
    return st.lists(st.integers(1, most), min_size=graph.n_vertices, max_size=graph.n_vertices)
