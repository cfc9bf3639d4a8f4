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
product.  (Z^{(j)})^{-1} (x) I_k commutes past I_j (x) t, so that block is
Z^{(j+k)} (I_j (x) t) (Z^{(j)})^{-1}: the creation is Dz T Dz^{-1} with
Dz = ⊕_i Z^{(i)} (x) I_H, as on the graph side, and both lift models hold and
form their creations that way.  These images generate the commutant of
{Y (x) I_H}, which is what the double-commutant checks and the interpolation
solver consume.

The dual has the graded module calculus of E, and shares its code.  The
dual basis at level k is Theta_k, a permutation of the level-k induced
coordinates: the tuple (f_1, ..., f_k; i) is the matrix unit that sends the
first H coordinate of the vertex r(f_k) to local index i of the primal path
(f_k, ..., f_1).  Its legs are the primal edges read backwards, and only the
first leg carries a row.  ``DualStructure.cut`` reads their cuts off the
primal cuts through Theta, so the structure is the legs of
``graphs.embed_prefix``, ``embed_suffix`` and ``tensor_pair`` and of a
``WeightSystem`` of the dual weights Z'.  Dual module operators are matrices
over the tuples in Theta order, and conjugating by Theta is a gather.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .fock import phi_inf, weighted_creation
from .graphs import CorrElement, GraphCorrespondence, embed_prefix, path_basis
from .induced import InducedSpace, Representation
from .lifting import LiftModel, creation_mix
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
# the dual basis Theta, its legs, and transported dual operators
# ---------------------------------------------------------------------------


class DualStructure:
    """The dual basis Theta_k, the cuts of its legs, and the transported dual
    operators.

    A dual module operator is a matrix over the level-k tuples in Theta order
    (inner products are rank one, so entries are scalars).  ``cut`` makes this
    object the legs of ``graphs.embed_prefix``, ``embed_suffix`` and
    ``tensor_pair``, and of a ``WeightSystem`` of dual weights.
    """

    def __init__(self, ind: InducedSpace, ws: WeightSystem):
        if not ind.graph.full:
            raise ValueError("duality requires a full correspondence (every vertex a source)")
        self.ind = ind
        self.ws = ws
        self.graph = ind.graph
        self.rep = ind.rep
        self._frames: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._cuts: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    # -- the basis and its legs -----------------------------------------------

    def _frame(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Theta_k as a coordinate array, and its inverse permutation."""
        if k not in self._frames:
            ind = self.ind
            if k == 0:
                theta = np.arange(self.rep.h_dim)
            else:
                path = ind._cut(k, k)[0]
                paths = np.array(path_basis(self.graph, k).paths, dtype=np.intp).reshape(-1, k)
                offsets = np.array(ind.block_offsets[k], dtype=np.intp)
                edges, row = paths[path].T, np.arange(ind.level_dim(k)) - offsets[path]
                theta = np.lexsort((*edges[:-1], row, edges[-1]))  # the last key sorts first
            theta.flags.writeable = False
            inverse = np.empty_like(theta)
            inverse[theta] = np.arange(theta.size)
            self._frames[k] = (theta, inverse)
        return self._frames[k]

    def theta(self, k: int) -> np.ndarray:
        """Theta_k as the level-k induced coordinate of each dual basis tuple.

        The tuple (f_1, ..., f_k; i) sits at local index i of the primal path
        (f_k, ..., f_1), and the tuples are ordered by f_1, then i, then
        f_2, ..., f_k.  Theta_k is the permutation matrix
        ``np.eye(level_dim(k))[theta(k)]``: row t is the adjoint of the single
        nonvanishing column of the t-th intertwiner.  At level 0 it is the
        identity of H.
        """
        return self._frame(k)[0]

    def cut(self, k: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Per level-k tuple (f_1, ..., f_k; i): the index in Theta_j of its first
        j legs with row i, and the index in Theta_{k-j} of its last k - j legs
        with row 0.

        The dual legs run along the primal path backwards, so this is the
        primal cut after k - j edges read through Theta and its inverse.  At
        j = 0 the first array holds the H index; at j = k the second holds the
        H coordinate the tuple's intertwiner reads, the first one of r(f_k).
        """
        if (k, j) not in self._cuts:
            suf_path, pre_coord = (idx[self.theta(k)] for idx in self.ind._cut(k, k - j))
            suf_coord = np.array(self.ind.block_offsets[k - j], dtype=np.intp)[suf_path]
            self._cuts[k, j] = (self._frame(j)[1][pre_coord], self._frame(k - j)[1][suf_coord])
        return self._cuts[k, j]

    def theta_full(self) -> np.ndarray:
        """The whole-space coordinate of each dual basis element, level by level."""
        return np.concatenate([self.ind.level_offsets[k] + self.theta(k)
                               for k in range(self.ind.levels + 1)])

    # -- transported dual operators on the primal induced space ---------------

    def dual_generators(self) -> list[tuple[str, np.ndarray]]:
        """Transported dual algebra generators as whole-space matrices, named: left
        actions, then the level-1 creations in Theta order, as the dual lift model holds
        them."""
        ind = self.ind
        edge = ind._cut(1, 1)[0]  # per level-1 coordinate: its edge; its row is the local index
        names = [f"phi'({v},{i},{j})" for v, i, j in self.rep.commutant_basis()]
        names += [f"W'({edge[c]},{c - ind.block_offsets[1][edge[c]]})" for c in self.theta(1)]
        return list(zip(names, dual_lift_model(self).generators, strict=True))

    def z_matrices(self) -> list[np.ndarray]:
        """Z'_k = Theta_k (C_k (x) I) Theta_k^* for all truncation levels."""
        return [np.eye(self.rep.h_dim, dtype=complex)] + [
            _in_frame(self.ind.level_tensor_identity(self.ws.c_quotient(k), k), self.theta(k))
            for k in range(1, self.ind.levels + 1)]


def _in_frame(m: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Theta M Theta^* for the permutation frame Theta with the given coordinates."""
    return m[np.ix_(coords, coords)]


# ---------------------------------------------------------------------------
# lifting models for both sides
# ---------------------------------------------------------------------------


def _lift_model(ind: InducedSpace, ws: WeightSystem, level, units: list[np.ndarray],
                order: np.ndarray) -> LiftModel:
    """The lift model with creations Dz T Dz^{-1}: ``level(k, zinv)``, k = 1..N, gives per
    level-k coordinate the H index inserted there and its element, per level j + k the
    (key, col in level j) gather of the unweighted creations, and the elements'
    coefficient rows; zinv is the level block Z^{(k)-1} (x) I_H, gathered once here.
    The generators are the ``units``, then the dense Dz T_q Dz^{-1} of the level-1 keys q
    in ``order`` (a permutation of the keys), formed by the model's own ``compressions``."""
    zinv = [ind.level_tensor_identity(ws.z_prod_inv(i), i) for i in range(ind.levels + 1)]
    empty = (np.zeros(0, dtype=np.intp),) * 2  # level 0
    levels = [(empty, [empty], np.zeros((0, 0)))] + [level(k, zinv[k])
                                                     for k in range(1, ind.levels + 1)]
    gathers = [(np.concatenate([key for key, _ in parts]),
                np.concatenate([ind.level_offsets[j] + col for j, (_, col) in enumerate(parts)]))
               for _, parts, _ in levels]

    def runs(blocks):  # level blocks of ⊕_i B_i (x) I_H, stacked by runs of one size
        return [np.stack(list(run)) for _, run in itertools.groupby(blocks, key=np.shape)]

    model = LiftModel(
        dim=ind.dim, levels=ind.levels, level=np.repeat(np.arange(ind.levels + 1), ind.level_dims),
        copies=1, generators=[],
        z_star=runs([ind.level_tensor_identity(ws.z_prod(i).conj().T, i)
                     for i in range(ind.levels + 1)]),
        z_inv=runs(zinv), gathers=gathers,
        insertions=[(ind.level_offsets[k] + np.arange(cols.size), cols, elem)
                    for k, ((cols, elem), _, _) in enumerate(levels)],
        mixes=[creation_mix(gather, ind.dim, c) for gather, (_, _, c) in zip(gathers, levels)])
    eye = np.eye(ind.dim, dtype=complex)
    model.generators = [*units, *model.compressions(
        model.levelwise(model.z_star, eye), model.levelwise(model.z_inv, eye),
        creation_mix(gathers[1], ind.dim, np.eye(order.size)[order]))]
    return model


def primal_lift_model(ind: InducedSpace, ws: WeightSystem) -> LiftModel:
    """Lifting data for the graph side: K = F(E) (x)_sigma H.

    Per level k and basis path p the bundle pairs the insertion of p (its block of level
    k, each coordinate receiving its H index) with the weighted creation at zinv[:, p],
    the mix of the T_q (x) I, which send each coordinate's suffix to it if q is its prefix.
    The generators are the vertex units phi(v), the 0/1 diagonals [r(p) = v] per
    coordinate, then the creations W(e) by the edges in order.
    """
    def level(k, _):
        path, h = ind._cut(k, k)
        return (h, path), [ind._cut(j + k, k) for j in range(ind.levels + 1 - k)], \
            ws.z_prod_inv(k).T

    ranges = np.concatenate([ind._cut(k, 0)[0] for k in range(ind.levels + 1)])
    units = [np.diag((ranges == v).astype(complex)) for v in range(ind.graph.n_vertices)]
    return _lift_model(ind, ws, level, units, np.arange(ind.graph.n_edges))


def dual_lift_model(structure: DualStructure) -> LiftModel:
    """Lifting data for the transported dual side, on the same space K.

    The level-k elements are the Theta_k tuples t_c by coordinate c: t_c inserts at c the
    H coordinate it reads, the first of the range of c's path.  Its weighted creation is
    the mix of the I_j (x) t_{c'} by the row zinv_ind[:, c] (zinv_ind keeps ranges), which
    send the first coordinate of each coordinate's prefix to it if c' is its suffix.
    The generators are the left actions I_k (x) A of the matrix units A of sigma(M)', then
    the creations by the Theta_1 tuples in Theta order (``DualStructure.dual_generators``).
    """
    ind, ws = structure.ind, structure.ws
    first = [np.asarray(offs, dtype=np.intp) for offs in ind.block_offsets]  # per path

    def level(k, zinv):
        cuts = (ind._cut(j + k, j) for j in range(ind.levels + 1 - k))
        return ((first[0][ind._cut(k, 0)[0]], np.arange(ind.level_dim(k))),
                [(suffix, first[j][prefix]) for j, (prefix, suffix) in enumerate(cuts)],
                zinv.T)

    units = [ind.dual_left(structure.rep.commutant_unit(v, i, j)).matrix
             for v, i, j in structure.rep.commutant_basis()]
    return _lift_model(ind, ws, level, units, structure.theta(1))


@dataclass
class DualWeightData:
    """Transported weights: X'_k and Z'_k dual-side, and the laws' residuals."""

    X_prime: list[np.ndarray]
    Z_prime: list[np.ndarray]
    residuals: dict[str, float]


def dual_weights(structure: DualStructure, x_seq) -> DualWeightData:
    """Extract X'_k and Z'_k and verify the dual weight laws.

    X'_k and Z'_k are the unique dual module operators with
    U_k^* (X_k (x) I) U_k = X'_k (x) I and U_k^* (C_k (x) I) U_k = Z'_k (x) I;
    in the Theta frame the extraction is a gather.  The verification is
    genuinely dual-sided: R'^2_k is rebuilt from X' by the composition
    recursion and Z'^{(k)} from the Z'_j by the telescoping products of a
    ``WeightSystem`` over the dual legs, and then the weight law
    Z'^{(k)*} Z'^{(k)} = R'^{-2}_k and the quotient law
    U_k^* (Z_k (x) I) U_k = Z'^{(k)} (Z'^{(k-1)} (x) I'_1)^{-1} are checked.
    """
    s = structure
    ind, ws = s.ind, s.ws
    levels = ind.levels
    for k in range(1, levels + 1):
        if not np.array_equal(np.sort(s.theta(k)), np.arange(ind.level_dim(k))):
            raise ValueError(f"dual basis frame at level {k} is not unitary (its coordinates "
                             "are not a permutation of the level); representation or basis invalid")
    Zp = s.z_matrices()
    Xp: list[np.ndarray] = [np.zeros((s.rep.h_dim, s.rep.h_dim), dtype=complex)]
    res = {"commutant": 0.0, "weight_law": 0.0, "quotient_law": 0.0}
    for k in range(1, levels + 1):
        Xp.append(_in_frame(ind.level_tensor_identity(as_complex(x_seq.X[k]), k), s.theta(k)))
        for v, i, j in s.rep.commutant_basis():
            phi = embed_prefix(s, s.rep.commutant_unit(v, i, j), 0, k)
            res["commutant"] = max(res["commutant"],
                                   residual(Xp[k] @ phi, phi @ Xp[k]),
                                   residual(Zp[k] @ phi, phi @ Zp[k]))
    r2p = _first_part_sums(Xp, s)
    wsp = WeightSystem(s, levels, Zp)
    for k in range(1, levels + 1):
        if ind.level_dim(k) == 0:
            continue
        zpk = wsp.z_prod(k)
        res["weight_law"] = max(res["weight_law"],
                                residual(zpk.conj().T @ zpk, np.linalg.inv(r2p[k])))
        lhs = _in_frame(ind.level_tensor_identity(ws.Z[k], k), s.theta(k))
        res["quotient_law"] = max(res["quotient_law"], residual(lhs, wsp.c_quotient(k)))
    return DualWeightData(Xp, Zp, res)


# ---------------------------------------------------------------------------
# identification unitaries from the computed (unstructured) dual basis
# ---------------------------------------------------------------------------


def _abstract_gram(dual: list[np.ndarray], ind: InducedSpace,
                   s_tuple: tuple[int, ...], t_mats: list[np.ndarray]) -> np.ndarray:
    """<s_1 (x) ..., t_1 (x) ...> by the recursive module formula."""
    c = dual[s_tuple[0]].conj().T @ t_mats[0]
    if len(s_tuple) == 1:
        return c
    modified = [ind.dual_left_levels(c, [1])[0] @ t_mats[1]] + list(t_mats[2:])
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
        units = [rep.commutant_unit(*u) for u in rep.commutant_basis()]
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
    for v, a in enumerate(np.eye(ind.graph.n_vertices)):
        out.append((f"phi({v})", ind.fock_tensor_identity(phi_inf(ind.fock, a)).matrix))
    for e in range(ind.graph.n_edges):
        w = weighted_creation(ind.fock, ws, CorrElement.basis_vector(ind.graph, 1, e))
        out.append((f"W({e})", ind.fock_tensor_identity(w).matrix))
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
        w_mat = ind.fock_tensor_identity(weighted_creation(ind.fock, ws, xi)).matrix
        lhs = _in_frame(w_mat, omega)
        coeffs = _tuple_coefficients(s2, ind.insertion_map(xi)[s1.theta(1)])
        w2 = weighted_creation(ind.fock, ws2, CorrElement(1, coeffs))
        out["creation"] = max(out["creation"], residual(lhs, ind.fock_tensor_identity(w2).matrix))
    for a in np.eye(g.n_vertices):
        mat = ind.fock_tensor_identity(phi_inf(ind.fock, a)).matrix
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
    return mat[s2.theta(1), s2.cut(1, 1)[1]]
