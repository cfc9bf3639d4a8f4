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
        return PathBasis(0, tuple(() for _ in verts), verts, verts)
    if k == 1:
        paths = tuple((e,) for e in range(graph.n_edges))
        return PathBasis(
            1,
            paths,
            tuple(graph.source(e) for e in range(graph.n_edges)),
            tuple(graph.range_(e) for e in range(graph.n_edges)),
        )
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
    return PathBasis(k, tuple(paths), tuple(sources), tuple(ranges))


def levels_nonzero(graph: GraphCorrespondence, up_to: int) -> list[int]:
    """The initial segment of levels k <= up_to with E^{(x)k} != 0."""
    out = []
    for k in range(up_to + 1):
        if path_basis(graph, k).size == 0:
            break
        out.append(k)
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


def inner_product(graph: GraphCorrespondence, xi: CorrElement, eta: CorrElement) -> np.ndarray:
    """M-valued inner product <xi, eta>: an n-vector, conjugate-linear in xi.

    Component at vertex v sums conj(xi_p) * eta_p over paths with source v.
    """
    if xi.level != eta.level:
        raise ValueError("inner product requires elements of the same level")
    basis = path_basis(graph, xi.level)
    out = np.zeros(graph.n_vertices, dtype=complex)
    prod = np.conj(xi.coeffs) * eta.coeffs
    for i, v in enumerate(basis.sources):
        out[v] += prod[i]
    return out


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
    m = rng_complex(rng, basis.size, basis.size)
    for i in range(basis.size):
        for j in range(basis.size):
            if basis.sources[i] != basis.sources[j]:
                m[i, j] = 0.0
    return m


def insertion_matrix(graph: GraphCorrespondence, xi: CorrElement, j: int) -> np.ndarray:
    """T_xi^{(j)}: E^{(x)j} -> E^{(x)(j+k)}, eta |-> xi (x) eta.

    For k = 0 this is left multiplication phi_j(xi).  Incomposable levels give
    correctly shaped zero matrices rather than errors.
    """
    k = xi.level
    if k == 0:
        return left_action(graph, xi.coeffs, j)
    src = path_basis(graph, j)
    dst = path_basis(graph, j + k)
    mat = np.zeros((dst.size, src.size), dtype=complex)
    if dst.size == 0 or src.size == 0:
        return mat
    if j == 0:
        # suffix is a vertex unit: match against the path source
        for w, path in enumerate(dst.paths):
            mat[w, dst.sources[w]] = xi.coeffs[path_basis(graph, k).index_map()[path]]
        return mat
    pre_index = path_basis(graph, k).index_map()
    suf_index = src.index_map()
    for w, path in enumerate(dst.paths):
        mat[w, suf_index[path[k:]]] = xi.coeffs[pre_index[path[:k]]]
    return mat


def embed_prefix(graph: GraphCorrespondence, a_mat: np.ndarray, a: int, k: int) -> np.ndarray:
    """(A (x) I_{k-a}) on E^{(x)k} for A acting on the first a edges."""
    if a == k:
        return as_complex(a_mat)
    basis = path_basis(graph, k)
    pre_index = path_basis(graph, a).index_map()
    out = np.zeros((basis.size, basis.size), dtype=complex)
    a_mat = as_complex(a_mat)
    if basis.size == 0:
        return out
    if a == 0:
        # module maps on M = level 0 are left multiplications: act by range
        for i in range(basis.size):
            out[i, i] = a_mat[basis.ranges[i], basis.ranges[i]]
        return out
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, p in enumerate(basis.paths):
        groups.setdefault(p[a:], []).append(i)
    for suffix, idxs in groups.items():
        rows = [pre_index[basis.paths[i][:a]] for i in idxs]
        out[np.ix_(idxs, idxs)] = a_mat[np.ix_(rows, rows)]
    return out


def embed_suffix(graph: GraphCorrespondence, b_mat: np.ndarray, b: int, k: int) -> np.ndarray:
    """(I_{k-b} (x) B) on E^{(x)k} for B acting on the last b edges.

    For b = 0 the operator B lives on M; it acts through the path source and
    must commute with nothing extra, so only diagonal B is meaningful there.
    """
    if b == k:
        return as_complex(b_mat)
    basis = path_basis(graph, k)
    out = np.zeros((basis.size, basis.size), dtype=complex)
    b_mat = as_complex(b_mat)
    if basis.size == 0:
        return out
    if b == 0:
        for i in range(basis.size):
            out[i, i] = b_mat[basis.sources[i], basis.sources[i]]
        return out
    suf_index = path_basis(graph, b).index_map()
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, p in enumerate(basis.paths):
        groups.setdefault(p[: k - b], []).append(i)
    for prefix, idxs in groups.items():
        cols = [suf_index[basis.paths[i][k - b:]] for i in idxs]
        out[np.ix_(idxs, idxs)] = b_mat[np.ix_(cols, cols)]
    return out


def tensor_pair(graph: GraphCorrespondence, a_mat: np.ndarray, a: int, b_mat: np.ndarray, b: int) -> np.ndarray:
    """A (x) B on E^{(x)(a+b)} from A on E^{(x)a} and B on E^{(x)b}."""
    k = a + b
    if a == 0 or b == 0:
        raise ValueError("tensor factors must have positive level")
    return embed_prefix(graph, a_mat, a, k) @ embed_suffix(graph, b_mat, b, k)


def factor_prefix(graph: GraphCorrespondence, xi: CorrElement, j: int) -> list[tuple[int, CorrElement]]:
    """Split a basis-path expansion xi = sum_p xi_p (p_prefix (x) p_suffix).

    Returns, for each prefix path index at level j, the suffix element it
    multiplies; used by tests of the factorization lemmas.
    """
    k = xi.level
    if not (1 <= j <= k):
        raise ValueError("prefix length out of range")
    basis = path_basis(graph, k)
    pre = path_basis(graph, j)
    suf = path_basis(graph, k - j)
    pre_index = pre.index_map()
    out: dict[int, np.ndarray] = {}
    for i, p in enumerate(basis.paths):
        if xi.coeffs[i] == 0:
            continue
        pi = pre_index[p[:j]]
        vec = out.setdefault(pi, np.zeros(suf.size, dtype=complex))
        if k - j == 0:
            vec[basis.sources[i]] += xi.coeffs[i]
        else:
            vec[suf.index_map()[p[j:]]] += xi.coeffs[i]
    return [(pi, CorrElement(k - j, vec)) for pi, vec in sorted(out.items())]
