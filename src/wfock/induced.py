"""Induced representation spaces: coordinates for F(E) (x)_sigma H.

A representation sigma of M = C^n is a multiplicity list (m_v); it acts on
H = ⊕_v C^{m_v} by sigma(a) = ⊕_v a(v) I_{m_v}.  The induced space of a path
level decomposes as ⊕_p sigma<p,p>(H) = ⊕_p C^{m_{s(p)}}, and that direct sum
is the coordinate system used for every operator here: the unitary gamma_k of
the decomposition is the identity permutation in these coordinates.

Operators of the form Y (x) I_H for a module map Y are assembled blockwise:
entry Y[p,q] contributes Y[p,q] * I on the (p,q) block, which is well-typed
because module maps preserve path sources.  ``InducedSpace`` is the one home
of that assembly, of the insertions L_xi: H -> level k, and of the dual left
action I_k (x) A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import FockOperator, TruncatedFock
from .graphs import CorrElement, GraphCorrespondence, path_basis
from .linalg import as_complex, operator_norm, residual


@dataclass(frozen=True)
class Representation:
    """sigma = ⊕_v a(v) I_{m_v} on H = ⊕_v C^{m_v}; faithful iff all m_v >= 1."""

    multiplicities: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "multiplicities", tuple(int(m) for m in self.multiplicities))
        if any(m < 1 for m in self.multiplicities):
            raise ValueError("representation must be faithful: every multiplicity >= 1")

    @property
    def n_vertices(self) -> int:
        return len(self.multiplicities)

    @property
    def h_dim(self) -> int:
        return sum(self.multiplicities)

    @property
    def offsets(self) -> tuple[int, ...]:
        out = [0]
        for m in self.multiplicities:
            out.append(out[-1] + m)
        return tuple(out)

    def block(self, v: int) -> slice:
        off = self.offsets
        return slice(off[v], off[v + 1])

    def sigma(self, a) -> np.ndarray:
        a = as_complex(a).reshape(-1)
        out = np.zeros((self.h_dim, self.h_dim), dtype=complex)
        for v, m in enumerate(self.multiplicities):
            sl = self.block(v)
            out[sl, sl] = a[v] * np.eye(m)
        return out

    def commutant_basis(self) -> list[tuple[int, int, int]]:
        """Matrix units (v, i, j) spanning sigma(M)' = ⊕_v M_{m_v}."""
        out = []
        for v, m in enumerate(self.multiplicities):
            for i in range(m):
                for j in range(m):
                    out.append((v, i, j))
        return out

    def commutant_unit(self, v: int, i: int, j: int) -> np.ndarray:
        out = np.zeros((self.h_dim, self.h_dim), dtype=complex)
        off = self.offsets[v]
        out[off + i, off + j] = 1.0
        return out

    def direct_sum(self, other: "Representation") -> "Representation":
        if self.n_vertices != other.n_vertices:
            raise ValueError("representations over different vertex algebras")
        return Representation(tuple(a + b for a, b in zip(self.multiplicities, other.multiplicities)))


@dataclass(frozen=True)
class CommutantAlgebra:
    """Block structure of sigma(M)': one full m_v x m_v block per vertex."""

    rep: Representation

    @property
    def dim(self) -> int:
        return sum(m * m for m in self.rep.multiplicities)

    def units(self) -> list[np.ndarray]:
        return [self.rep.commutant_unit(v, i, j) for v, i, j in self.rep.commutant_basis()]

    def contains(self, a: np.ndarray, tol: float = 1e-12) -> bool:
        a = as_complex(a)
        mask = np.zeros_like(a, dtype=bool)
        for v in range(self.rep.n_vertices):
            sl = self.rep.block(v)
            mask[sl, sl] = True
        off = a[~mask]
        return bool(off.size == 0 or np.abs(off).max() <= tol * max(1.0, operator_norm(a)))

    def project(self, a: np.ndarray) -> np.ndarray:
        a = as_complex(a)
        out = np.zeros_like(a)
        for v in range(self.rep.n_vertices):
            sl = self.rep.block(v)
            out[sl, sl] = a[sl, sl]
        return out


class InducedSpace:
    """Coordinates and operator assembly on ⊕_{k<=N} E^{(x)k} (x)_sigma H."""

    def __init__(self, graph: GraphCorrespondence, rep: Representation, levels: int):
        if rep.n_vertices != graph.n_vertices:
            raise ValueError("representation and graph vertex counts differ")
        self.graph = graph
        self.rep = rep
        self.levels = levels
        self.fock = TruncatedFock(graph, levels)
        m = rep.multiplicities
        self.block_sizes: list[list[int]] = []
        self.block_offsets: list[list[int]] = []
        self.level_offsets: list[int] = [0]
        for k in range(levels + 1):
            basis = path_basis(graph, k)
            sizes = [m[s] for s in basis.sources]
            offs = [0]
            for s in sizes:
                offs.append(offs[-1] + s)
            self.block_sizes.append(sizes)
            self.block_offsets.append(offs)
            self.level_offsets.append(self.level_offsets[-1] + offs[-1])
        self.dim = self.level_offsets[-1]
        self.h_dim = rep.h_dim

    # -- indexing -----------------------------------------------------------

    def level_slice(self, k: int) -> slice:
        return slice(self.level_offsets[k], self.level_offsets[k + 1])

    def level_dim(self, k: int) -> int:
        return self.level_offsets[k + 1] - self.level_offsets[k]

    def block_slice(self, k: int, p: int) -> slice:
        base = self.level_offsets[k] + self.block_offsets[k][p]
        return slice(base, base + self.block_sizes[k][p])

    def prefix_dim(self, n: int) -> int:
        """Dimension of K_n = levels 0..n."""
        return self.level_offsets[n + 1]

    def level_embed(self, k: int) -> np.ndarray:
        out = np.zeros((self.dim, self.level_dim(k)), dtype=complex)
        out[self.level_slice(k), :] = np.eye(self.level_dim(k))
        return out

    # -- operator assembly ---------------------------------------------------

    def level_tensor_identity(self, y: np.ndarray, k_out: int, k_in: int | None = None) -> np.ndarray:
        """(Y (x) I_H) for a module map Y: E^{(x)k_in} -> E^{(x)k_out}."""
        if k_in is None:
            k_in = k_out
        y = as_complex(y)
        rows = path_basis(self.graph, k_out)
        cols = path_basis(self.graph, k_in)
        out = np.zeros((self.level_dim(k_out), self.level_dim(k_in)), dtype=complex)
        if y.size == 0:
            return out
        scale = max(1.0, operator_norm(y))
        for p in range(rows.size):
            rsl = slice(self.block_offsets[k_out][p], self.block_offsets[k_out][p + 1])
            for q in range(cols.size):
                val = y[p, q]
                if abs(val) == 0.0:
                    continue
                if rows.sources[p] != cols.sources[q]:
                    if abs(val) > 1e-12 * scale:
                        raise ValueError("matrix is not a module map: sources differ")
                    continue
                csl = slice(self.block_offsets[k_in][q], self.block_offsets[k_in][q + 1])
                out[rsl, csl] = val * np.eye(self.block_sizes[k_out][p])
        return out

    def fock_tensor_identity(self, y) -> np.ndarray:
        """(Y (x) I_H) on the whole truncated induced space."""
        mat = y.matrix if isinstance(y, FockOperator) else as_complex(y)
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for i in range(self.levels + 1):
            for j in range(self.levels + 1):
                blk = mat[self.fock.level_slice(i), self.fock.level_slice(j)]
                if blk.size == 0 or operator_norm(blk) == 0.0:
                    continue
                out[self.level_slice(i), self.level_slice(j)] = \
                    self.level_tensor_identity(blk, i, j)
        return out

    def dual_left_level(self, a: np.ndarray, k: int) -> np.ndarray:
        """(I_k (x) A) on level k for an array A in sigma(M)': at path p the s(p) block of A."""
        basis = path_basis(self.graph, k)
        out = np.zeros((self.level_dim(k), self.level_dim(k)), dtype=complex)
        for p in range(basis.size):
            sl = slice(self.block_offsets[k][p], self.block_offsets[k][p + 1])
            v = basis.sources[p]
            out[sl, sl] = a[self.rep.block(v), self.rep.block(v)]
        return out

    def dual_left(self, a: np.ndarray) -> np.ndarray:
        """⊕_k I_k (x) A on the whole truncated induced space."""
        a = as_complex(a)
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for k in range(self.levels + 1):
            sl = self.level_slice(k)
            out[sl, sl] = self.dual_left_level(a, k)
        return out

    def sigma_level(self, a, k: int) -> np.ndarray:
        """The induced action of a in M on level k: a(r(p)) per block."""
        a = as_complex(a).reshape(-1)
        basis = path_basis(self.graph, k)
        out = np.zeros((self.level_dim(k), self.level_dim(k)), dtype=complex)
        for p in range(basis.size):
            sl = slice(self.block_offsets[k][p], self.block_offsets[k][p + 1])
            out[sl, sl] = a[basis.ranges[p]] * np.eye(self.block_sizes[k][p])
        return out

    # -- vectors ------------------------------------------------------------

    def insertion_map(self, xi: CorrElement) -> np.ndarray:
        """L_xi: H -> level k of the induced space, h |-> xi (x) h."""
        k = xi.level
        basis = path_basis(self.graph, k)
        out = np.zeros((self.level_dim(k), self.h_dim), dtype=complex)
        for p in range(basis.size):
            if xi.coeffs[p] == 0:
                continue
            v = basis.sources[p]
            sl = slice(self.block_offsets[k][p], self.block_offsets[k][p + 1])
            out[sl, self.rep.block(v)] = xi.coeffs[p] * np.eye(self.block_sizes[k][p])
        return out

    def simple_tensor(self, xi: CorrElement, h: np.ndarray) -> np.ndarray:
        """Coordinates of xi (x) h in the whole truncated induced space."""
        out = np.zeros(self.dim, dtype=complex)
        out[self.level_slice(xi.level)] = self.insertion_map(xi) @ as_complex(h).reshape(-1)
        return out

    def basis_inserter(self, k: int, p: int) -> np.ndarray:
        """L_{p^}: H -> K, h |-> p^ (x) h (supported on the source block)."""
        basis = path_basis(self.graph, k)
        out = np.zeros((self.dim, self.h_dim), dtype=complex)
        v = basis.sources[p]
        out[self.block_slice(k, p), self.rep.block(v)] = np.eye(self.block_sizes[k][p])
        return out

    def vacuum_inserter(self) -> np.ndarray:
        """L_{1^}: H -> K; level 0 of the induced space is a copy of H."""
        out = np.zeros((self.dim, self.h_dim), dtype=complex)
        out[self.level_slice(0), :] = np.eye(self.h_dim)
        return out

    def suffix_insert(self, t: np.ndarray, k: int, j: int) -> np.ndarray:
        """I_j (x) T for an intertwiner T: H -> level k; lands in level j+k.

        Appends the intertwiner at the end of each path: the block from path p
        (level j) to path p + q (level j+k) is the (q, r(q)) block of T, which
        requires r(q) = s(p).
        """
        t = as_complex(t)
        if j == 0:
            return t
        rows = path_basis(self.graph, j + k)
        out = np.zeros((self.level_dim(j + k), self.level_dim(j)), dtype=complex)
        if rows.size == 0:
            return out
        pre_index = path_basis(self.graph, j).index_map()
        suf = path_basis(self.graph, k)
        suf_index = suf.index_map()
        for w, wpath in enumerate(rows.paths):
            p = pre_index[wpath[:j]]
            q = suf_index[wpath[j:]]
            v = suf.ranges[q]
            rsl = slice(self.block_offsets[j + k][w], self.block_offsets[j + k][w + 1])
            csl = slice(self.block_offsets[j][p], self.block_offsets[j][p + 1])
            qsl = slice(self.block_offsets[k][q], self.block_offsets[k][q + 1])
            out[rsl, csl] = t[qsl, self.rep.block(v)]
        return out

    def lower_by_point(self, z: np.ndarray, j: int) -> np.ndarray:
        """(I_{j-1} (x) z): level j -> level j-1 for an intertwiner z^*-dual.

        Here z maps the level-1 induced space to H (a disc-point matrix); the
        result peels the last edge of each path through z.
        """
        z = as_complex(z)
        rows = path_basis(self.graph, j - 1)
        cols = path_basis(self.graph, j)
        out = np.zeros((self.level_dim(j - 1), self.level_dim(j)), dtype=complex)
        if rows.size == 0 or cols.size == 0:
            return out
        row_index = rows.index_map()
        for w, wpath in enumerate(cols.paths):
            p = cols.ranges[w] if j == 1 else row_index[wpath[:-1]]
            e = wpath[-1]
            re = self.graph.range_(e)
            rsl = slice(self.block_offsets[j - 1][p], self.block_offsets[j - 1][p + 1])
            csl = slice(self.block_offsets[j][w], self.block_offsets[j][w + 1])
            eblk = slice(self.block_offsets[1][e], self.block_offsets[1][e + 1])
            out[rsl, csl] = z[self.rep.block(re), eblk]
        return out


def gamma_decomposition(graph: GraphCorrespondence, rep: Representation, k: int):
    """The unitary gamma_k: E^{(x)k} (x) H -> ⊕_{xi} H_xi and its index map.

    In the package coordinates gamma_k is the identity matrix; the returned
    index map lists (path index, source vertex, offset, block size).
    """
    ind = InducedSpace(graph, rep, k)
    basis = path_basis(graph, k)
    blocks = [(p, basis.sources[p], ind.block_offsets[k][p], ind.block_sizes[k][p])
              for p in range(basis.size)]
    return np.eye(ind.level_dim(k), dtype=complex), blocks


def gamma_conjugation_residual(graph: GraphCorrespondence, rep: Representation,
                               y: np.ndarray, k: int) -> float:
    """Residual of gamma_k (Y (x) I) gamma_k^* = [sigma<xi, Y eta>] at level k.

    The left side is assembled by acting on simple tensors Y eta (x) h, the
    right side from the matrix entries of Y; both land in the same block
    coordinates.
    """
    ind = InducedSpace(graph, rep, k)
    basis = path_basis(graph, k)
    d = ind.level_dim(k)
    lhs = np.zeros((d, d), dtype=complex)
    for q in range(basis.size):
        eta = CorrElement.basis_vector(graph, k, q)
        y_eta = CorrElement(k, as_complex(y) @ eta.coeffs)
        cols = slice(ind.block_offsets[k][q], ind.block_offsets[k][q + 1])
        lhs[:, cols] = ind.insertion_map(y_eta)[:, rep.block(basis.sources[q])]
    rhs = ind.level_tensor_identity(as_complex(y), k)
    return residual(lhs, rhs)
