"""Graph correspondences over the vertex algebra C^n and their path bases.

The base algebra is M = C^n, functions on n vertices.  The correspondence E is
the edge space of a directed graph: the M-valued inner product of two edge
vectors lands at the common source vertex, the left action multiplies by the
value at the range vertex.  Tensor powers of E are spanned by composable
paths; a simple tensor e (x) f is nonzero exactly when r(f) = s(e), and paths
are stored leftmost-edge-first, so a path (e_1, ..., e_k) satisfies
s(e_i) = r(e_{i+1}).  The source of a path is s(e_k), its range is r(e_1).

All bases are ordered lexicographically in edge ids, and every matrix in the
package is taken relative to these orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import as_complex, rng_complex


@dataclass(frozen=True)
class GraphCorrespondence:
    """Directed graph (vertices, edges) encoding the correspondence E over C^n.

    Edges are (source, range) pairs.  ``faithful_left_action`` holds when every
    vertex is the range of at least one edge, ``full`` when every vertex is the
    source of at least one edge.
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        if len(self.edges) == 0:
            raise ValueError("edge list must be nonempty")
        object.__setattr__(self, "edges", tuple((int(s), int(r)) for s, r in self.edges))
        for s, r in self.edges:
            if not (0 <= s < self.n_vertices and 0 <= r < self.n_vertices):
                raise ValueError(f"edge ({s},{r}) out of vertex range")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def source(self, e: int) -> int:
        return self.edges[e][0]

    def range_(self, e: int) -> int:
        return self.edges[e][1]

    @property
    def faithful_left_action(self) -> bool:
        return set(r for _, r in self.edges) == set(range(self.n_vertices))

    @property
    def full(self) -> bool:
        return set(s for s, _ in self.edges) == set(range(self.n_vertices))

    @classmethod
    def free(cls, d: int) -> "GraphCorrespondence":
        """Single vertex with d loops: the free correspondence C^d."""
        return cls(1, tuple((0, 0) for _ in range(d)))

    @classmethod
    def cycle(cls, n: int) -> "GraphCorrespondence":
        """n-cycle: edge i runs from vertex i to vertex (i+1) mod n."""
        return cls(n, tuple((i, (i + 1) % n) for i in range(n)))

    def reversed(self) -> "GraphCorrespondence":
        """The graph with every edge reversed (same edge ids)."""
        return GraphCorrespondence(self.n_vertices, tuple((r, s) for s, r in self.edges))

    @lru_cache(maxsize=None)
    def cut(self, k: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Prefix and suffix index of each level-k path, cut after its first j edges.

        The prefix indexes ``path_basis(self, j)``, the suffix
        ``path_basis(self, k - j)``.  An empty prefix is the vertex unit at
        the range r(p), an empty suffix the one at the source s(p), so every
        cut 0 <= j <= k is a pair of index arrays.
        """
        if not 0 <= j <= k:
            raise ValueError("split point out of range")
        basis = path_basis(self, k)

        def indices(level, parts, units):
            if level == 0:
                out = np.array(units, dtype=np.intp)
            else:
                index = path_basis(self, level).index_map()
                out = np.array([index[p] for p in parts], dtype=np.intp)
            out.flags.writeable = False  # shared by every caller through the cache
            return out

        return (indices(j, [p[:j] for p in basis.paths], basis.ranges),
                indices(k - j, [p[j:] for p in basis.paths], basis.sources))


@dataclass(frozen=True)
class PathBasis:
    """Orthonormal basis of E^{(x)k}: composable length-k edge tuples.

    Level 0 holds the n vertex units; there ``paths`` are empty tuples and
    source = range = the vertex id.  ``index`` maps a path tuple (or, at level
    0, a vertex id) to its position.
    """

    level: int
    paths: tuple[tuple[int, ...], ...]
    sources: tuple[int, ...]
    ranges: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.paths)

    def index_map(self) -> dict:
        if self.level == 0:
            return {v: i for i, v in enumerate(self.sources)}
        return {p: i for i, p in enumerate(self.paths)}


@lru_cache(maxsize=None)
def path_basis(graph: GraphCorrespondence, k: int) -> PathBasis:
    """All composable length-k paths in lexicographic edge-id order.

    Level 0 returns the vertex units.  An empty basis at level k means
    E^{(x)k} = 0, which happens exactly beyond the longest path of an acyclic
    graph; the set of nonvanishing levels is an initial segment of N_0.
    """
    if k < 0:
        raise ValueError("level must be nonnegative")
    if k == 0:
        verts = tuple(range(graph.n_vertices))
        basis = PathBasis(0, tuple(() for _ in verts), verts, verts)
    elif k == 1:
        basis = PathBasis(
            1,
            tuple((e,) for e in range(graph.n_edges)),
            tuple(graph.source(e) for e in range(graph.n_edges)),
            tuple(graph.range_(e) for e in range(graph.n_edges)),
        )
    else:
        prev = path_basis(graph, k - 1)
        paths = []
        sources = []
        ranges = []
        for e in range(graph.n_edges):
            se, re = graph.edges[e]
            for i, p in enumerate(prev.paths):
                # e may be prepended when its source matches the range of the tail
                if prev.ranges[i] == se:
                    paths.append((e,) + p)
                    sources.append(prev.sources[i])
                    ranges.append(re)
        basis = PathBasis(k, tuple(paths), tuple(sources), tuple(ranges))
    return basis


def _masked_gather(m, rows, cols, row_keys, col_keys) -> np.ndarray:
    """out[r, c] = m[rows[r], cols[c]] if row_keys[r] == col_keys[c], else 0.

    Every operator with an identity leg is this gather: ``rows``/``cols``
    index the leg that carries ``m``, the keys index the identity leg, whose
    coordinates must agree.
    """
    out = as_complex(m)[np.asarray(rows)[:, None], cols]
    out[np.asarray(row_keys)[:, None] != col_keys] = 0.0
    return out


@dataclass
class CorrElement:
    """Element of E^{(x)k}: a complex coefficient vector over PathBasis(k)."""

    level: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = as_complex(self.coeffs).reshape(-1)

    @classmethod
    def basis_vector(cls, graph: GraphCorrespondence, k: int, idx: int) -> "CorrElement":
        basis = path_basis(graph, k)
        v = np.zeros(basis.size, dtype=complex)
        v[idx] = 1.0
        return cls(k, v)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def left_action(graph: GraphCorrespondence, a, k: int) -> np.ndarray:
    """phi_k(a): diagonal matrix with entry a(r(p)) at path p.  Unital."""
    a = as_complex(a).reshape(-1)
    if a.shape[0] != graph.n_vertices:
        raise ValueError("algebra element must be an n-vector")
    basis = path_basis(graph, k)
    return np.diag(a[list(basis.ranges)]) if basis.size else np.zeros((0, 0), dtype=complex)


def _random_module_map(graph: GraphCorrespondence, k: int, rng: np.random.Generator) -> np.ndarray:
    """A random module map on E^{(x)k}: Gaussian entries between paths of equal source."""
    basis = path_basis(graph, k)
    idx = np.arange(basis.size)
    return _masked_gather(rng_complex(rng, basis.size, basis.size), idx, idx,
                          basis.sources, basis.sources)


def insertion_matrix(graph: GraphCorrespondence, xi: CorrElement, j: int) -> np.ndarray:
    """T_xi^{(j)}: E^{(x)j} -> E^{(x)(j+k)}, eta |-> xi (x) eta.

    Path w of level j + k gets xi at its first k edges times eta at the rest;
    for k = 0 this is left multiplication phi_j(xi), for j = 0 the suffix is
    the source vertex.  Incomposable levels give correctly shaped zero
    matrices rather than errors.
    """
    pre, suf = graph.cut(j + xi.level, xi.level)
    n_in = path_basis(graph, j).size
    return _masked_gather(xi.coeffs[:, None], pre, np.zeros(n_in, dtype=np.intp),
                          suf, np.arange(n_in))


def embed_prefix(legs, a_mat: np.ndarray, a: int, k: int) -> np.ndarray:
    """(A (x) I_{k-a}) at level k for A acting on the first a legs.

    ``legs`` is anything with a ``cut(k, j)``: a graph, whose legs are edges,
    or a ``duality.DualStructure``, whose legs are dual tensor factors.  For
    a = 0 the operator A acts on the cut's empty prefix: a module map on M
    through the path range, an element of sigma(M)' through the H index.
    """
    if a == k:
        return as_complex(a_mat)
    pre, suf = legs.cut(k, a)
    return _masked_gather(a_mat, pre, pre, suf, suf)


def embed_suffix(legs, b_mat: np.ndarray, b: int, k: int) -> np.ndarray:
    """(I_{k-b} (x) B) at level k for B acting on the last b legs.

    For b = 0 on a graph the operator B lives on M; it acts through the path
    source and must commute with nothing extra, so only diagonal B is
    meaningful there.
    """
    if b == k:
        return as_complex(b_mat)
    pre, suf = legs.cut(k, k - b)
    return _masked_gather(b_mat, suf, suf, pre, pre)


def tensor_pair(legs, a_mat: np.ndarray, a: int, b_mat: np.ndarray, b: int) -> np.ndarray:
    """A (x) B at level a + b from A at level a and B at level b."""
    k = a + b
    if a == 0 or b == 0:
        raise ValueError("tensor factors must have positive level")
    return embed_prefix(legs, a_mat, a, k) @ embed_suffix(legs, b_mat, b, k)
