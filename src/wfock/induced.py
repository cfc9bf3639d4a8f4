"""Induced representation spaces: coordinates for F(E) (x)_sigma H.

A representation sigma of M = C^n is a multiplicity list (m_v); it acts on
H = ⊕_v C^{m_v} by sigma(a) = ⊕_v a(v) I_{m_v}.  The induced space of a path
level decomposes as ⊕_p sigma<p,p>(H) = ⊕_p C^{m_{s(p)}}, and that direct sum
is the coordinate system used for every operator here: the unitary gamma_k of
the decomposition is the identity permutation in these coordinates.

Every coordinate of a level carries a path index and an H index.  Operators
with an identity leg are gathers over these index arrays: Y (x) I_H for a
module map Y takes Y[p, q] where the H indices agree (well-typed because
module maps preserve path sources), and I_j (x) T takes T between the path
suffixes where the length-j prefixes agree.  ``InducedSpace`` is the one home
of that assembly, of the insertions L_xi: H -> level k, and of the dual left
action I_k (x) A.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fock import FockOperator, TruncatedFock
from .graphs import CorrElement, GraphCorrespondence, _masked_gather, path_basis
from .linalg import as_complex, operator_norm


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

    @cached_property
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

    def commutant_units(self) -> list[np.ndarray]:
        """The matrix units of ``commutant_basis`` as H x H matrices."""
        return [self.commutant_unit(v, i, j) for v, i, j in self.commutant_basis()]


def _check_module_map(y: np.ndarray, cross_sources: np.ndarray) -> None:
    """Entries of Y between paths of different sources (the True entries of
    ``cross_sources``) must be <= 1e-12 max(1, ||Y||).

    The norm is taken only when such an entry is nonzero.  Moduli come from
    np.hypot, which rounds as the scalar abs does; the vectorised complex
    np.abs can land one ulp higher and flip an entry sitting on the bound.
    """
    if not np.isfinite(y).all():
        raise ValueError("module map has non-finite entries")
    cross = y[cross_sources]
    cross = np.hypot(cross.real, cross.imag)
    if cross.any() and (cross > 1e-12 * max(1.0, operator_norm(y))).any():
        raise ValueError("matrix is not a module map: sources differ")


class InducedSpace:
    """Coordinates and operator assembly on ⊕_{k<=N} E^{(x)k} (x)_sigma H."""

    def __init__(self, graph: GraphCorrespondence, rep: Representation, levels: int):
        if rep.n_vertices != graph.n_vertices:
            raise ValueError("representation and graph vertex counts differ")
        self.graph = graph
        self.rep = rep
        self.levels = levels
        self.fock = TruncatedFock(graph, levels)
        m = np.array(rep.multiplicities)
        self.block_sizes: list[list[int]] = []
        self.block_offsets: list[list[int]] = []
        self.level_offsets: list[int] = [0]
        for k in range(levels + 1):
            sizes = m[np.array(path_basis(graph, k).sources, dtype=np.intp)]
            offs = np.concatenate([[0], np.cumsum(sizes)])
            self.block_sizes.append(sizes.tolist())
            self.block_offsets.append(offs.tolist())
            self.level_offsets.append(self.level_offsets[-1] + int(offs[-1]))
        self.dim = self.level_offsets[-1]
        self.h_dim = rep.h_dim
        self._cuts: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._cross: dict[tuple[int, int], np.ndarray] = {}

    # -- indexing -----------------------------------------------------------

    def level_slice(self, k: int) -> slice:
        return slice(self.level_offsets[k], self.level_offsets[k + 1])

    def level_dim(self, k: int) -> int:
        return self.level_offsets[k + 1] - self.level_offsets[k]

    def _cut(self, k: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Per coordinate of level k: the prefix index of its path cut after j
        edges, and the level-(k-j) coordinate of its suffix at the same H
        component.  Cut at j = k the second array holds H indices (level 0 is
        H), cut at j = 0 the first holds the path range."""
        if (k, j) not in self._cuts:
            offs = self.block_offsets[k]
            path = np.repeat(np.arange(len(offs) - 1), self.block_sizes[k])
            local = np.arange(offs[-1]) - np.array(offs, dtype=np.intp)[path]
            pre, suf = path_basis(self.graph, k).split(j)
            self._cuts[k, j] = (pre[path],
                                np.array(self.block_offsets[k - j], dtype=np.intp)[suf[path]] + local)
        return self._cuts[k, j]

    def _cross_sources(self, k_out: int, k_in: int) -> np.ndarray:
        """Mask of the (level-k_out path, level-k_in path) pairs with different sources."""
        if (k_out, k_in) not in self._cross:
            self._cross[k_out, k_in] = np.not_equal.outer(path_basis(self.graph, k_out).sources,
                                                          path_basis(self.graph, k_in).sources)
        return self._cross[k_out, k_in]

    def _left_identity(self, t: np.ndarray, j: int, k_out: int, k_in: int) -> np.ndarray:
        """I_j (x) T: level j + k_in -> level j + k_out, for T: level k_in -> level k_out."""
        pre_out, rows = self._cut(j + k_out, j)
        pre_in, cols = self._cut(j + k_in, j)
        return _masked_gather(t, rows, cols, pre_out, pre_in)

    # -- operator assembly ---------------------------------------------------

    def level_tensor_identity(self, y: np.ndarray, k_out: int, k_in: int | None = None) -> np.ndarray:
        """(Y (x) I_H) for a module map Y: E^{(x)k_in} -> E^{(x)k_out}."""
        if k_in is None:
            k_in = k_out
        y = as_complex(y)
        _check_module_map(y, self._cross_sources(k_out, k_in))
        (p_out, h_out), (p_in, h_in) = self._cut(k_out, k_out), self._cut(k_in, k_in)
        return _masked_gather(y, p_out, p_in, h_out, h_in)

    def fock_tensor_identity(self, op: FockOperator) -> np.ndarray:
        """(Y (x) I_H) on the whole truncated induced space, gathered block by block.

        Each level block of Y is judged by the module-map rule of
        ``level_tensor_identity``, in (i, j) order.
        """
        return self.assemble({(i, j): self.level_tensor_identity(blk, i, j)
                              for (i, j), blk in op.blocks.items()}, 0)

    def assemble(self, blocks: dict[tuple[int, int], np.ndarray], k: int) -> np.ndarray:
        """The operator with level blocks ``blocks[(i, j)]`` (level j to level i)
        as a matrix K_{<=N-k} -> K_{>=k}: for k = 0 the whole space, for an
        operator of degree k its one band block."""
        top = self.level_offsets[k]
        out = np.zeros((self.dim - top, self.level_offsets[self.levels + 1 - k]), dtype=complex)
        for (i, j), blk in blocks.items():
            out[self.level_offsets[i] - top:self.level_offsets[i + 1] - top,
                self.level_slice(j)] = blk
        return out

    @cached_property
    def _dual_left_index(self) -> tuple[np.ndarray, list[tuple[int, int]]]:
        """Every I_k (x) A as one gather: per level, flat, the index into [*A.ravel(), 0]
        of each block entry (the 0 for a cross-path one); each block's (offset, d_k)."""
        cuts = [self._cut(k, k) for k in range(self.levels + 1)]
        sizes = [h.size for _, h in cuts]
        return (np.concatenate([np.where(np.not_equal.outer(path, path), self.h_dim ** 2,
                                         h[:, None] * self.h_dim + h).ravel() for path, h in cuts]),
                list(zip(np.cumsum([0] + [d * d for d in sizes]).tolist(), sizes)))

    def dual_left_levels(self, a: np.ndarray) -> list[np.ndarray]:
        """The level blocks I_k (x) A, k = 0..N, of an array A in sigma(M)' (at path p
        the s(p) block of A), from one gather."""
        idx, spans = self._dual_left_index
        flat = np.append(as_complex(a).ravel(), 0)[idx]
        return [flat[off:off + d * d].reshape(d, d) for off, d in spans]

    def dual_left(self, a: np.ndarray) -> np.ndarray:
        """⊕_k I_k (x) A on the whole truncated induced space."""
        return self.assemble({(k, k): blk for k, blk in enumerate(self.dual_left_levels(a))}, 0)

    def sigma_level(self, a, k: int) -> np.ndarray:
        """The induced action of a in M on level k: a(r(p)) per block."""
        return np.diag(as_complex(a).reshape(-1)[self._cut(k, 0)[0]])

    # -- vectors ------------------------------------------------------------

    def insertion_map(self, xi: CorrElement) -> np.ndarray:
        """L_xi: H -> level k of the induced space, h |-> xi (x) h."""
        path, h = self._cut(xi.level, xi.level)
        return _masked_gather(xi.coeffs[:, None], path, np.zeros(self.h_dim, dtype=np.intp),
                              h, np.arange(self.h_dim))

    def suffix_insert(self, t: np.ndarray, k: int, j: int) -> np.ndarray:
        """I_j (x) T for an intertwiner T: H -> level k; lands in level j+k.

        Appends the intertwiner at the end of each path: the block from path p
        (level j) to path p + q (level j+k) is the (q, r(q)) block of T, which
        requires r(q) = s(p).
        """
        return self._left_identity(t, j, k, 0)

    def lower_by_point(self, z: np.ndarray, j: int) -> np.ndarray:
        """(I_{j-1} (x) z): level j -> level j-1 for an intertwiner z^*-dual.

        Here z maps the level-1 induced space to H (a disc-point matrix); the
        result peels the last edge of each path through z.
        """
        return self._left_identity(z, j - 1, 0, 1)
