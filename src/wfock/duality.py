"""Duality: intertwiner spaces, identification unitaries, and dual weights.

The sigma-dual of E is the space of intertwiners T: H -> E (x)_sigma H with
T sigma(a) = (phi(a) (x) I) T; it is a correspondence over the commutant
sigma(M)'.  Rather than building tensor powers of the dual abstractly, almost
everything here is transported through the identification unitaries
U_k: (E^sigma)^{(x)k} (x)_iota H -> E^{(x)k} (x)_sigma H onto the primal
induced space, where the dual algebra acts by

    rho(phi'(A))        = ⊕_k I_k (x) A,
    rho(creation by t)  blocks (j+k, j) = (C^{(j+k,k)} (x) I) (I_j (x) t),

with C^{(i,k)} = Z^{(i)} ((Z^{(i-k)})^{-1} (x) I_k) the prefix-sided weight
product.  These images generate the commutant of {Y (x) I_H}, which is what
the double-commutant checks and the interpolation solver consume.

Concretely we fix a product-structured orthonormal basis of each dual tensor
power: the level-1 elements alpha_{e,i} place the matrix unit E_{i,0} at edge
e, and longer elements chain edges by s(e_{j+1}) = r(e_j) with the row index
carried by the first factor only.  The chains are exactly the paths of the
reversed graph.  Every basis element is a matrix unit: tuple (f_1, ..., f_k; i)
sends one H coordinate to local index i of the primal path (f_k, ..., f_1).
So the decomposition unitary Theta_k of the dual induced space is a
permutation of the level-k induced coordinates, stored as the coordinate of
each tuple, and conjugating by it is a gather.  Dual module operators are
plain matrices indexed by basis tuples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .fock import phi_inf, weighted_creation
from .graphs import CorrElement, GraphCorrespondence, _masked_gather, path_basis
from .induced import InducedSpace, Representation
from .lifting import LiftModel
from .linalg import as_complex, nullspace, operator_norm, pinv, residual
from .weights import WeightSystem, _first_part_sums


# ---------------------------------------------------------------------------
# the dual correspondence as computed intertwiners
# ---------------------------------------------------------------------------


def intertwiner_basis(graph: GraphCorrespondence, rep: Representation) -> list[np.ndarray]:
    """A basis of the intertwiner space I(sigma, sigma^E phi), solved by nullspace SVD.

    The basis matrices H -> E (x) H are orthonormal for the trace inner
    product; the module inner product <T, S> = T^* S is sigma(M)'-valued.  The
    dimension always equals sum over edges of m_{r(e)} * m_{s(e)}; a mismatch
    raises, since everything downstream depends on it.
    """
    ind = InducedSpace(graph, rep, 1)
    rows_dim = ind.level_dim(1)
    h = rep.h_dim
    blocks = []
    for v in range(graph.n_vertices):
        a = np.zeros(graph.n_vertices)
        a[v] = 1.0
        sig = rep.sigma(a)
        ind_act = ind.sigma_level(a, 1)
        # vec(T sigma(a) - ind_act T) with column-major vec of T
        blocks.append(np.kron(sig.T, np.eye(rows_dim)) - np.kron(np.eye(h), ind_act))
    null = nullspace(np.vstack(blocks))
    basis = [null[:, i].reshape(h, rows_dim).T for i in range(null.shape[1])]
    expected = sum(rep.multiplicities[graph.range_(e)] * rep.multiplicities[graph.source(e)]
                   for e in range(graph.n_edges))
    if len(basis) != expected:
        raise RuntimeError(f"intertwiner dimension {len(basis)} != expected {expected}")
    return basis


# ---------------------------------------------------------------------------
# interior tensor products from operator-valued Grams
# ---------------------------------------------------------------------------


def interior_tensor(gram_blocks, h_dim: int) -> np.ndarray:
    """F (x) H for a family with B(H)-valued Gram blocks, realized as the column
    space of the PSD root of the big Gram.

    Returns the coordinate map, rank x (family size * h_dim): column (l, h)
    holds the coordinates of f_l (x) h.  Null directions of the Gram are
    quotiented away, so the rank is the numerical rank; an indefinite Gram is
    rejected.
    """
    n = len(gram_blocks)
    big = np.zeros((n * h_dim, n * h_dim), dtype=complex)
    for i in range(n):
        for j in range(n):
            big[i * h_dim:(i + 1) * h_dim, j * h_dim:(j + 1) * h_dim] = as_complex(gram_blocks[i][j])
    big = 0.5 * (big + big.conj().T)
    if big.size == 0:
        return np.zeros((0, n * h_dim), dtype=complex)
    w, v = np.linalg.eigh(big)
    scale = max(1.0, float(abs(w).max()))
    if w.min() < -1e-10 * scale:
        raise ValueError(f"Gram is indefinite: min eigenvalue {w.min():.3e}")
    keep = w > 1e-10 * scale
    return np.sqrt(w[keep])[:, None] * v[:, keep].conj().T


def _right_nested(ind: InducedSpace, factors: list[np.ndarray], tail: np.ndarray,
                  level: int) -> np.ndarray:
    """f_1 (x) ... (x) f_m (x) tail as a map H -> level m + ``level``.

    The f_i are level-one intertwiners and ``tail`` maps H to ``level``; the
    first factor is inserted outermost and ``tail`` applies to H first.
    """
    acc = tail
    for f in reversed(factors):
        acc = ind.suffix_insert(f, 1, level) @ acc
        level += 1
    return acc


# ---------------------------------------------------------------------------
# structured orthonormal bases of dual tensor powers, and Theta frames
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualBasisElement:
    """A basis element of (E^sigma)^{(x)k}: an edge chain plus one row index.

    The chain satisfies s(e_{j+1}) = r(e_j); only the first factor carries a
    free row index i < m_{s(e_1)}.  The inner product of the element is the
    rank-one matrix unit at (vertex r(e_k), coordinate 0).
    """

    edges: tuple[int, ...]
    row: int
    vertex: int


class DualStructure:
    """Structured dual bases, Theta frames, transported dual operators, and the
    dual module operators in the Theta frame: matrices of <t, A' u> over basis
    tuples (inner products are rank one, so entries are scalars), whose identity
    legs restrict to equal prefixes or equal suffixes of the tuples."""

    def __init__(self, ind: InducedSpace, ws: WeightSystem):
        if not ind.graph.full:
            raise ValueError("duality requires a full correspondence (every vertex a source)")
        self.ind = ind
        self.ws = ws
        self.graph = ind.graph
        self.rep = ind.rep
        self._levels: dict[int, tuple[list[DualBasisElement], np.ndarray]] = {}
        self._splits: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    # -- bases ----------------------------------------------------------------

    def _level(self, k: int) -> tuple[list[DualBasisElement], np.ndarray]:
        """The level-k tuples and the induced coordinate of each.

        The chains are the reversed graph's paths in lex order, grouped by
        first edge and then by row; tuple (f_1, ..., f_k; i) sits at local
        index i of the primal path (f_k, ..., f_1).
        """
        if k not in self._levels:
            if k == 0:
                self._levels[0] = ([DualBasisElement((), 0, -1)], np.arange(self.rep.h_dim))
            else:
                chains = path_basis(self.graph.reversed(), k)
                index = path_basis(self.graph, k).index_map()
                offs = self.ind.block_offsets[k]
                tuples, coords = [], []
                for e, group in itertools.groupby(zip(chains.paths, chains.sources),
                                                  key=lambda pv: pv[0][0]):
                    group = list(group)
                    for i in range(self.rep.multiplicities[self.graph.source(e)]):
                        for edges, vtx in group:
                            tuples.append(DualBasisElement(edges, i, vtx))
                            coords.append(offs[index[edges[::-1]]] + i)
                self._levels[k] = (tuples, np.array(coords, dtype=np.intp))
            self._levels[k][1].flags.writeable = False
        return self._levels[k]

    def tuples(self, k: int) -> list[DualBasisElement]:
        """The level-k basis, lex ordered in the first edge, then the row, then the rest."""
        return self._level(k)[0]

    def tuple_index(self, k: int) -> dict[tuple[tuple[int, ...], int], int]:
        return {(t.edges, t.row): n for n, t in enumerate(self.tuples(k))}

    def _split(self, k: int, a: int) -> tuple[np.ndarray, np.ndarray]:
        """Per level-k tuple: the index of its first a legs with its row in
        ``tuples(a)``, and of its remaining legs with row 0 in ``tuples(k - a)``
        (a >= 1)."""
        if (k, a) not in self._splits:
            pre, suf = self.tuple_index(a), self.tuple_index(k - a)
            ts = self.tuples(k)
            self._splits[k, a] = (np.array([pre[t.edges[:a], t.row] for t in ts], dtype=np.intp),
                                  np.array([suf[t.edges[a:], 0] for t in ts], dtype=np.intp))
        return self._splits[k, a]

    def _intertwiner(self, k: int, n: int) -> np.ndarray:
        """The identification image of the n-th level-k tuple (k >= 1), a map H -> level k
        written from its insertion.

        For the tuple (f_1, ..., f_k; i) it sends the first H coordinate of the
        vertex r(f_k) to local index i of the path (f_k, ..., f_1), the tuple's
        Theta coordinate, and everything else to zero.
        """
        out = np.zeros((self.ind.level_dim(k), self.rep.h_dim), dtype=complex)
        out[self._insertion(k, n)] = 1.0
        return out

    def _insertion(self, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The n-th level-k tuple's intertwiner (k >= 1) as (rows, cols), level-k
        coordinate rows[i] receiving H index cols[i]: one entry, at theta(k)[n]."""
        return self.theta(k)[n:n + 1], np.array([self.rep.offsets[self.tuples(k)[n].vertex]])

    def theta(self, k: int) -> np.ndarray:
        """Theta_k as the level-k induced coordinate of each dual basis tuple.

        Theta_k is the permutation matrix ``np.eye(level_dim(k))[theta(k)]``:
        row t is the adjoint of the single nonvanishing column of the t-th
        intertwiner.  At level 0 it is the identity of H.
        """
        return self._level(k)[1]

    def theta_full(self) -> np.ndarray:
        """The whole-space coordinate of each dual basis element, level by level."""
        return np.concatenate([self.ind.level_offsets[k] + self.theta(k)
                               for k in range(self.ind.levels + 1)])

    # -- transported dual operators on the primal induced space ---------------

    def rho_creation(self, t_mats: list[np.ndarray], k: int) -> list[np.ndarray]:
        """rho of the weighted creations by the dual elements with intertwiners
        ``t_mats`` (H -> level k) as band blocks K_{<=N-k} -> K_{>=k}: level block
        (j+k, j) is (C^{(j+k,k)} (x) I) (I_j (x) t), one C gather for all t."""
        ind = self.ind
        top = ind.level_offsets[k]
        out = [ind.assemble({}, k) for _ in t_mats]
        for j in range(ind.levels + 1 - k):
            if ind.level_dim(j + k) and ind.level_dim(j):
                cw = ind.level_tensor_identity(self.ws.c_between(j + k, k), j + k)
                rows = slice(ind.level_offsets[j + k] - top, ind.level_offsets[j + k + 1] - top)
                for band, t_mat in zip(out, t_mats):
                    band[rows, ind.level_slice(j)] = cw @ ind.suffix_insert(t_mat, k, j)
        return out

    def dual_generators(self) -> list[tuple[str, np.ndarray]]:
        """Transported dual algebra generators: left actions plus creations."""
        ind = self.ind
        out = [(f"phi'({v},{i},{j})", ind.dual_left(self.rep.commutant_unit(v, i, j)))
               for v, i, j in self.rep.commutant_basis()]
        bands = self.rho_creation([self._intertwiner(1, n) for n in range(len(self.tuples(1)))], 1)
        for t, band in zip(self.tuples(1), bands):  # each band padded to the whole space
            out.append((f"W'({t.edges[0]},{t.row})",
                        np.pad(band, ((ind.level_offsets[1], 0), (0, ind.dim - band.shape[1])))))
        return out

    # -- dual module operators in the Theta frame -----------------------------

    def embed_suffix(self, m: np.ndarray, a: int, k: int) -> np.ndarray:
        """I'_a (x) B' for B' on the last k - a dual legs (a >= 1)."""
        pre, suf = self._split(k, a)
        return _masked_gather(m, suf, suf, pre, pre)

    def embed_prefix(self, m: np.ndarray, b: int, k: int) -> np.ndarray:
        """B' (x) I'_b for B' on the first k - b dual legs (b >= 1)."""
        if b == k:
            # a level-0 factor is an element of sigma(M)'; it acts as phi'
            return self.phi_prime(as_complex(m), k)
        pre, suf = self._split(k, k - b)
        return _masked_gather(m, pre, pre, suf, suf)

    def tensor(self, m_a: np.ndarray, a: int, m_b: np.ndarray, b: int) -> np.ndarray:
        """A' (x) B' on level a + b of the dual powers."""
        return self.embed_prefix(m_a, b, a + b) @ self.embed_suffix(m_b, a, a + b)

    def phi_prime(self, a_mat: np.ndarray, k: int) -> np.ndarray:
        """The dual left action phi'_k(A) in the Theta frame: I_k (x) A gathered
        at the Theta-permuted coordinates."""
        pre, h = (idx[self.theta(k)] for idx in self.ind._cut(k, k))
        return _masked_gather(a_mat, h, h, pre, pre)

    def z_matrices(self) -> list[np.ndarray]:
        """Z'_k = Theta_k (C_k (x) I) Theta_k^* for all truncation levels."""
        return [np.eye(self.rep.h_dim, dtype=complex)] + [
            _in_frame(self.ind.level_tensor_identity(self.ws.c_quotient(k), k), self.theta(k))
            for k in range(1, self.ind.levels + 1)]

    def z_products(self, zp: list[np.ndarray]) -> list[np.ndarray]:
        """Telescoping products Z'^{(k)} = Z'_k (I'_1 (x) Z'_{k-1}) ... ."""
        out = [np.eye(self.rep.h_dim, dtype=complex)]
        for k in range(1, len(zp)):
            acc = zp[k].copy()
            for a in range(1, k):
                acc = acc @ self.embed_suffix(zp[k - a], a, k)
            out.append(acc)
        return out


def _in_frame(m: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Theta M Theta^* for the permutation frame Theta with the given coordinates."""
    return m[np.ix_(coords, coords)]


# ---------------------------------------------------------------------------
# lifting models for both sides
# ---------------------------------------------------------------------------


def _lift_model(ind: InducedSpace, generators: list[np.ndarray], basis) -> LiftModel:
    """The lift model whose level-k basis elements, k = 1..N, are ``basis(k)``: pairs
    of the insertion H -> level k as (rows, cols) within the level, and the band
    block of the weighted creation.  Level 0 stays empty."""
    insertions, creations = [[]], [[]]
    for k in range(1, ind.levels + 1):
        insertions.append([])
        creations.append([])
        for (rows, cols), band in basis(k):
            insertions[k].append((ind.level_offsets[k] + rows, cols))
            creations[k].append(band)
    level = np.repeat(np.arange(ind.levels + 1), np.diff(ind.level_offsets))
    return LiftModel(dim=ind.dim, levels=ind.levels, level=level, copies=1,
                     generators=generators, insertions=insertions, creations=creations)


def primal_lift_model(ind: InducedSpace, ws: WeightSystem) -> LiftModel:
    """Lifting data for the graph side: K = F(E) (x)_sigma H.

    Per level k and basis path p the bundle pairs the insertion of p (its
    block of level k, each coordinate receiving its H index) with the weighted
    creation at (Z^{(k)})^{-1} applied to p.
    """
    def basis(k):
        zinv, h = ws.z_prod_inv(k), ind._cut(k, k)[1]
        for p in range(path_basis(ind.graph, k).size):
            rows = np.arange(*ind.block_offsets[k][p:p + 2])
            w = weighted_creation(ind.fock, ws, CorrElement(k, zinv[:, p]))
            yield ((rows, h[rows]),
                   ind.assemble({ij: ind.level_tensor_identity(blk, *ij)
                                 for ij, blk in w.blocks.items()}, k))

    return _lift_model(ind, [m for _, m in primal_generators(ind, ws)], basis)


def dual_lift_model(structure: DualStructure) -> LiftModel:
    """Lifting data for the transported dual side, on the same space K.

    The algebra here is the transported dual algebra; inserters come from the
    structured tuple intertwiners, and the weighted creations carry the
    inverse dual weight product, which transports to (Z^{(k)})^{-1} (x) I.
    """
    ind, ws = structure.ind, structure.ws

    def basis(k):
        zinv_ind = ind.level_tensor_identity(ws.z_prod_inv(k), k)
        tuples = range(len(structure.tuples(k)))
        # a product: a column gather of zinv_ind would keep signs of zeros that
        # the product's sums set, and rho_creation carries them into the bands
        bands = structure.rho_creation([zinv_ind @ structure._intertwiner(k, n) for n in tuples], k)
        return zip((structure._insertion(k, n) for n in tuples), bands)

    return _lift_model(ind, [m for _, m in structure.dual_generators()], basis)


@dataclass
class DualWeightData:
    """Transported weights: C_k on the primal side, X'_k and Z'_k dual-side."""

    C: list[np.ndarray]
    X_prime: list[np.ndarray]
    Z_prime: list[np.ndarray]
    residuals: dict[str, float]


def dual_weights(structure: DualStructure, x_seq) -> DualWeightData:
    """Extract C_k, X'_k, Z'_k and verify the dual weight laws.

    X'_k and Z'_k are the unique dual module operators with
    U_k^* (X_k (x) I) U_k = X'_k (x) I and U_k^* (C_k (x) I) U_k = Z'_k (x) I;
    in the Theta frame the extraction is a gather.  The verification is
    genuinely dual-sided: R'^2_k is rebuilt from X' by the composition
    recursion, Z'^{(k)} from the Z'_j by dual products, and then the weight
    law Z'^{(k)*} Z'^{(k)} = R'^{-2}_k and the quotient law
    U_k^* (Z_k (x) I) U_k = Z'^{(k)} (Z'^{(k-1)} (x) I'_1)^{-1} are checked.
    """
    s = structure
    ind, ws = s.ind, s.ws
    levels = ind.levels
    for k in range(1, levels + 1):
        if not np.array_equal(np.sort(s.theta(k)), np.arange(ind.level_dim(k))):
            raise ValueError(f"dual basis frame at level {k} is not unitary (its coordinates "
                             "are not a permutation of the level); representation or basis invalid")
    C = [ws.c_quotient(k) for k in range(levels + 1)]
    Zp = s.z_matrices()
    Xp: list[np.ndarray] = [np.zeros((s.rep.h_dim, s.rep.h_dim), dtype=complex)]
    res = {"commutant": 0.0, "weight_law": 0.0, "quotient_law": 0.0}
    for k in range(1, levels + 1):
        Xp.append(_in_frame(ind.level_tensor_identity(as_complex(x_seq.X[k]), k), s.theta(k)))
        for v, i, j in s.rep.commutant_basis():
            phi = s.phi_prime(s.rep.commutant_unit(v, i, j), k)
            res["commutant"] = max(res["commutant"],
                                   residual(Xp[k] @ phi, phi @ Xp[k]),
                                   residual(Zp[k] @ phi, phi @ Zp[k]))
    r2p = _first_part_sums(Xp, s.tensor)
    zprod = s.z_products(Zp)
    for k in range(1, levels + 1):
        if len(s.tuples(k)) == 0:
            continue
        res["weight_law"] = max(res["weight_law"],
                                residual(zprod[k].conj().T @ zprod[k], np.linalg.inv(r2p[k])))
        lhs = _in_frame(ind.level_tensor_identity(ws.Z[k], k), s.theta(k))
        cpk = zprod[k] @ np.linalg.inv(s.embed_prefix(zprod[k - 1], 1, k))
        res["quotient_law"] = max(res["quotient_law"], residual(lhs, cpk))
    return DualWeightData(C, Xp, Zp, res)


# ---------------------------------------------------------------------------
# identification unitaries from the computed (unstructured) dual basis
# ---------------------------------------------------------------------------


def _abstract_gram(dual: list[np.ndarray], ind: InducedSpace,
                   s_tuple: tuple[int, ...], t_mats: list[np.ndarray]) -> np.ndarray:
    """<s_1 (x) ..., t_1 (x) ...> by the recursive module formula."""
    c = dual[s_tuple[0]].conj().T @ t_mats[0]
    if len(s_tuple) == 1:
        return c
    modified = [ind.dual_left_levels(c)[1] @ t_mats[1]] + list(t_mats[2:])
    return _abstract_gram(dual, ind, s_tuple[1:], modified)


def u_k_unitary(graph: GraphCorrespondence, rep: Representation, k: int):
    """U_k: (E^sigma)^{(x)k} (x)_iota H -> E^{(x)k} (x)_sigma H as a matrix.

    The domain is built by interior_tensor from the recursive operator-valued
    Gram of the ``intertwiner_basis`` tuples; the map sends a tuple tensor h to
    the product of insertions applied to h.  Returns (U_k, coord_map), the
    second the interior tensor's coordinate map.  U_k is square and unitary
    exactly when the identification is complete; a dimension mismatch between
    the two constructions signals an intertwiner-basis bug.
    """
    dual = intertwiner_basis(graph, rep)
    ind = InducedSpace(graph, rep, max(k, 1))
    h = rep.h_dim
    if k == 0:
        units = rep.commutant_units()
        coord_map = interior_tensor([[a.conj().T @ b for b in units] for a in units], h)
        cols = np.zeros((ind.level_dim(0), len(units) * h), dtype=complex)
        for l, a in enumerate(units):
            cols[:, l * h:(l + 1) * h] = a  # level-0 coordinates are H itself
        return cols @ pinv(coord_map), coord_map
    tuples = list(itertools.product(range(len(dual)), repeat=k))
    gram_blocks = [[None] * len(tuples) for _ in tuples]
    for a, s_t in enumerate(tuples):
        for b, t_t in enumerate(tuples):
            gram_blocks[a][b] = _abstract_gram(dual, ind, s_t, [dual[i] for i in t_t])
    coord_map = interior_tensor(gram_blocks, h)
    d_target = ind.level_dim(k)
    if coord_map.shape[0] != d_target:
        raise RuntimeError(
            f"interior tensor dimension {coord_map.shape[0]} != induced dimension {d_target}; "
            "the intertwiner basis is inconsistent (is the correspondence full?)")
    cols = np.zeros((d_target, len(tuples) * h), dtype=complex)
    for l, t_t in enumerate(tuples):
        cols[:, l * h:(l + 1) * h] = _right_nested(ind, [dual[i] for i in t_t[:-1]],
                                                   dual[t_t[-1]], 1)
    return cols @ pinv(coord_map), coord_map


def u_k_unitarity_residual(graph: GraphCorrespondence, rep: Representation, k: int) -> float:
    try:
        u, _ = u_k_unitary(graph, rep, k)
    except RuntimeError:
        return float("inf")
    d_target = InducedSpace(graph, rep, max(k, 1)).level_dim(k)
    eye = np.eye(d_target)
    return max(residual(u @ u.conj().T, eye), residual(u.conj().T @ u, eye))


# ---------------------------------------------------------------------------
# section-5 commutation checks and reports
# ---------------------------------------------------------------------------


def primal_generators(ind: InducedSpace, ws: WeightSystem) -> list[tuple[str, np.ndarray]]:
    """Images Y (x) I_H of the algebra generators: vertex units and edges."""
    out = []
    for v in range(ind.graph.n_vertices):
        a = np.zeros(ind.graph.n_vertices)
        a[v] = 1.0
        out.append((f"phi({v})", ind.fock_tensor_identity(phi_inf(ind.fock, a))))
    for e in range(ind.graph.n_edges):
        w = weighted_creation(ind.fock, ws, CorrElement.basis_vector(ind.graph, 1, e))
        out.append((f"W({e})", ind.fock_tensor_identity(w)))
    return out


def commutation_check_section5(ind: InducedSpace, ws: WeightSystem) -> dict:
    """Max commutator norm between primal images and transported dual images.

    Commutation holds exactly in the graded model; equality of commutants is
    not asserted at finite truncation.
    """
    s = DualStructure(ind, ws)
    prim = primal_generators(ind, ws)
    dual_gens = s.dual_generators()
    worst, worst_pair = 0.0, ""
    for name_y, y in prim:
        for name_s, t in dual_gens:
            r = operator_norm(y @ t - t @ y)
            if r > worst:
                worst, worst_pair = r, f"[{name_y}, {name_s}]"
    return {"max_commutator": worst, "worst_pair": worst_pair}


# ---------------------------------------------------------------------------
# dual of the dual: the omega identification (multiplicity-one case)
# ---------------------------------------------------------------------------


def omega_transport(ind: InducedSpace, ws: WeightSystem):
    """Double-dual identification data at multiplicities one.

    The first dual of a multiplicity-one graph correspondence is the edge
    space of the reversed graph, and dual basis tuples coincide index-by-index
    with reversed-graph paths, so the second dualization reuses the whole
    structured machinery on the reversed graph, with the first-dual weights
    as a reversed-graph weight system.  Returns (omega, s1, s2, z_second):
    omega as a permutation of the induced coordinates (its matrix is
    ``np.eye(ind.dim)[omega]``), the two dual structures, and the extracted
    double-dual weight matrices (indexed by primal path bases, which the
    double-dual tuple bases reproduce).
    """
    if any(m != 1 for m in ind.rep.multiplicities):
        raise ValueError("double-dual transport is implemented for multiplicities one")
    s1 = DualStructure(ind, ws)
    rev = ind.graph.reversed()
    ws_rev = WeightSystem(rev, ind.levels, s1.z_matrices())
    s2 = DualStructure(InducedSpace(rev, ind.rep, ind.levels), ws_rev)
    z_second = s2.z_matrices()
    return s1.theta_full()[s2.theta_full()], s1, s2, z_second


def omega_checks(ind: InducedSpace, ws: WeightSystem, x_seq) -> dict[str, float]:
    """Residuals of the double-dual identities at multiplicities one.

    Checks, against independently built second-dual data:
      * conjugation by omega_k sends Z_k to Z''_k (the second-level weight is
        extracted from telescoping quotients of the first-dual weights, so the
        two routes genuinely differ) and X_k to X''_k;
      * conjugation by omega sends generators to generators: the image of a
        weighted creation operator is the double-dual weighted creation at
        omega(xi), and left actions are fixed;
      * the identification composed with the second-level product formula
        reproduces the plain insertion of each basis path.
    """
    omega, s1, s2, z_second = omega_transport(ind, ws)
    g = ind.graph
    ws2 = WeightSystem(g, ind.levels, z_second)
    out = {"weights": 0.0, "creation": 0.0, "left_action": 0.0, "insertion": 0.0}
    for k in range(1, ind.levels + 1):
        x_k = as_complex(x_seq.X[k])
        omega_k = s1.theta(k)[s2.theta(k)]
        x2 = _in_frame(_in_frame(x_k, s1.theta(k)), s2.theta(k))
        out["weights"] = max(out["weights"],
                             residual(_in_frame(ws.Z[k], omega_k), z_second[k]),
                             residual(_in_frame(x_k, omega_k), x2))
    for e in range(g.n_edges):
        xi = CorrElement.basis_vector(g, 1, e)
        w_mat = ind.fock_tensor_identity(weighted_creation(ind.fock, ws, xi))
        lhs = _in_frame(w_mat, omega)
        coeffs = _tuple_coefficients(s2, ind.insertion_map(xi)[s1.theta(1)])
        rhs = ind.fock_tensor_identity(weighted_creation(ind.fock, ws2, CorrElement(1, coeffs)))
        out["creation"] = max(out["creation"], residual(lhs, rhs))
    for v in range(g.n_vertices):
        a = np.zeros(g.n_vertices)
        a[v] = 1.0
        mat = ind.fock_tensor_identity(phi_inf(ind.fock, a))
        out["left_action"] = max(out["left_action"],
                                 residual(_in_frame(mat, omega), mat))
    # insertion identity: U_k Lambda^iota(omega_k xi) = L_xi for basis paths
    for k in range(1, min(ind.levels, 3) + 1):
        basis = path_basis(g, k)
        for p in range(basis.size):
            edges = basis.paths[p]
            omegas = [ind.insertion_map(CorrElement.basis_vector(g, 1, f))[s1.theta(1)]
                      for f in edges]
            lam = _right_nested(s2.ind, omegas[:-1], omegas[-1], 1)
            back = np.zeros_like(lam)  # Theta_k^* lam
            back[s1.theta(k)] = lam
            l_xi = ind.insertion_map(CorrElement.basis_vector(g, k, p))
            out["insertion"] = max(out["insertion"], residual(back, l_xi))
    return out


def _tuple_coefficients(s2: DualStructure, mat: np.ndarray) -> np.ndarray:
    """Coefficients of a level-1 double-dual element over the tuple basis.

    Each tuple's intertwiner is a single 1, so its coefficient is one entry of ``mat``.
    """
    return mat[s2.theta(1), [s2.rep.offsets[t.vertex] for t in s2.tuples(1)]]
