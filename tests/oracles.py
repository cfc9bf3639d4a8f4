"""Reference computations that the tests compare the library against.

Each function here restates an identity of the theory by a second route, or
builds a small object only a test needs: the literal composition sum for
R_k^2, the sums over every level of X (zero levels included) behind R, the
point transform and the kernel tail bound, the M-valued inner product, the
unitary gamma_k, the dual basis as labelled tuples and pi_sigma on its frame,
the intertwiners of the tuples by the product formula and the transported dual
creations placed block by block, direct sums of representations, point
evaluation on generator words, the levelwise kernel identities, random disc
points, the Pick map's Choi matrix unit by unit and the kernel spans through
whole-space unit actions, the adjoint expansion of G_m, F's new columns by one
``compressions`` call per level, the escape scan on the whole frame of J, the
two-space lift on the whole Putnam sum and the alpha/beta step validator on
whole-space operators.  None of them is on a path
the CLI, the acceptance suite, ``tools/`` or ``perfbench/`` runs, so they live
beside the tests, which import them as ``from oracles import ...``.  A method
of a library class becomes a function of that object here, e.g.
``prefix_columns(model, n)`` for ``model.prefix_columns(n)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from wfock.duality import DualStructure, _in_frame
from wfock.fock import FockOperator, TruncatedFock, phi_inf, weighted_creation
from wfock.graphs import CorrElement, GraphCorrespondence, _random_module_map, embed_prefix, \
    path_basis, tensor_pair
from wfock.induced import InducedSpace, Representation
from wfock.interpolation import CauchyKernel, DiscPoint, PickProblem, _span_generators, \
    kernel_value
from wfock.jsonio import encode_matrix
from wfock.lifting import LiftModel, LiftState, _frame_coinvariance, _loop
from wfock.linalg import RANK_TOL, _project_out, as_complex, max_operator_norm, nullspace, \
    operator_norm, orth_columns, psd_sqrt, residual, rng_complex
from wfock.weights import AdmissibleSequence, WeightSystem


# ---------------------------------------------------------------------------
# weights: the literal composition sum behind R_k^2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompositionSet:
    """All functions alpha: {1..j} -> N with sum alpha = k, in colex order."""

    k: int
    j: int
    parts: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.parts)


def compositions(k: int, j: int) -> CompositionSet:
    """Compositions of k into j positive parts; |result| = C(k-1, j-1)."""
    if not (1 <= j <= k):
        raise ValueError("need 1 <= j <= k")
    out = []
    for cuts in itertools.combinations(range(1, k), j - 1):
        bounds = (0,) + cuts + (k,)
        out.append(tuple(bounds[i + 1] - bounds[i] for i in range(j)))
    out.sort(key=lambda t: t[::-1])
    return CompositionSet(k, j, tuple(out))


def composition_r2(x: AdmissibleSequence, k: int) -> np.ndarray:
    """R_k^2 by literal enumeration of compositions; test oracle, O(2^k)."""
    g = x.graph
    d = path_basis(g, k).size
    total = np.zeros((d, d), dtype=complex)
    for j in range(1, k + 1):
        for alpha in compositions(k, j).parts:
            term = x.X[alpha[0]]
            lvl = alpha[0]
            for part in alpha[1:]:
                term = tensor_pair(g, term, lvl, x.X[part], part)
                lvl += part
            total += term
    return total


# ---------------------------------------------------------------------------
# weights and kernels: the sums over every level of X, zero levels included
# ---------------------------------------------------------------------------


def all_levels_r(x: AdmissibleSequence) -> list[np.ndarray]:
    """R_0 .. R_N from R_k^2 = sum_{j=1}^k X_j (x) R_{k-j}^2 with a term for every
    nonempty level j, zero X_j too, and the square roots ``compute_R`` takes."""
    g = x.graph
    r2 = [np.eye(x.X[0].shape[0], dtype=complex)]
    for k in range(1, x.levels + 1):
        acc = np.zeros(x.X[k].shape, dtype=complex)
        for j in range(1, k + 1):
            if x.X[j].size:
                acc += x.X[j] if j == k else tensor_pair(g, x.X[j], j, r2[k - j], k - j)
        r2.append(acc)
    return [r2[0]] + [psd_sqrt(m) for m in r2[1:]]


def all_levels_phi(z: DiscPoint, a: np.ndarray) -> np.ndarray:
    """Phi_z(A) = sum_k z^{(k)} (X_k (x) A) z^{(k)*} with a term for every nonempty
    level k >= 1, zero X_k too, associated as ``DiscPoint.phi_value`` does."""
    ind = z.ind
    out = np.zeros((ind.rep.h_dim, ind.rep.h_dim), dtype=complex)
    blocks = ind.dual_left_levels(a)
    for k in range(1, ind.levels + 1):
        if ind.level_dim(k):
            weighted = z.powers[k] @ ind.level_tensor_identity(z.x_seq.X[k], k)
            out += weighted @ blocks[k] @ z.powers[k].conj().T
    return out


def all_levels_kernel(w: DiscPoint, z: DiscPoint, a: np.ndarray, r: list[np.ndarray]) -> np.ndarray:
    """K(w, z)(A) = sum_k w^{(k)} (R_k^2 (x) A) z^{(k)*} over every nonempty level, with R given."""
    ind = z.ind
    out = np.zeros((ind.rep.h_dim, ind.rep.h_dim), dtype=complex)
    blocks = ind.dual_left_levels(a)
    for k in range(ind.levels + 1):
        if ind.level_dim(k):
            weighted = w.powers[k] @ ind.level_tensor_identity(r[k] @ r[k], k)
            out += weighted @ blocks[k] @ z.powers[k].conj().T
    return out


def all_levels_tail_bound(z: DiscPoint, r: list[np.ndarray]) -> tuple[float, float]:
    """(phi_norm, kernel_tail_bound) of ``z`` from ``all_levels_phi`` and
    ``all_levels_kernel``, by the formulas of ``interpolation``."""
    eye = np.eye(z.ind.rep.h_dim)
    phi = operator_norm(all_levels_phi(z, eye))
    neumann, acc = eye.copy(), eye.copy()
    for _ in range(z.ind.levels):
        acc = all_levels_phi(z, acc)
        neumann = neumann + acc
    gap = residual(neumann, all_levels_kernel(z, z, eye, r))
    return phi, gap + phi ** (z.ind.levels + 1) / (1.0 - phi)


# ---------------------------------------------------------------------------
# graphs: the module inner product and path factorizations
# ---------------------------------------------------------------------------


def levels_nonzero(graph: GraphCorrespondence, up_to: int) -> list[int]:
    """The initial segment of levels k <= up_to with E^{(x)k} != 0."""
    out = []
    for k in range(up_to + 1):
        if path_basis(graph, k).size == 0:
            break
        out.append(k)
    return out


def inner_product(graph: GraphCorrespondence, xi: CorrElement, eta: CorrElement) -> np.ndarray:
    """M-valued inner product <xi, eta>: an n-vector, conjugate-linear in xi.

    Component at vertex v sums conj(xi_p) * eta_p over paths with source v.
    """
    if xi.level != eta.level:
        raise ValueError("inner product requires elements of the same level")
    out = np.zeros(graph.n_vertices, dtype=complex)
    np.add.at(out, np.array(path_basis(graph, xi.level).sources, dtype=np.intp),
              np.conj(xi.coeffs) * eta.coeffs)
    return out


def factor_prefix(graph: GraphCorrespondence, xi: CorrElement, j: int) -> list[tuple[int, CorrElement]]:
    """Split a basis-path expansion xi = sum_p xi_p (p_prefix (x) p_suffix).

    Returns, for each prefix path index at level j, the suffix element it
    multiplies; used by tests of the factorization lemmas.
    """
    k = xi.level
    if not (1 <= j <= k):
        raise ValueError("prefix length out of range")
    pre, suf = graph.cut(k, j)
    nz = xi.coeffs != 0
    table = np.zeros((path_basis(graph, j).size, path_basis(graph, k - j).size), dtype=complex)
    table[pre[nz], suf[nz]] = xi.coeffs[nz]
    return [(int(p), CorrElement(k - j, table[p])) for p in np.unique(pre[nz])]


# ---------------------------------------------------------------------------
# fock: the weight diagonals D_k
# ---------------------------------------------------------------------------


def weight_diagonal(space: TruncatedFock, Z: WeightSystem, k: int) -> FockOperator:
    """D_k = diag[0, ..., 0, Z^{(k)}, Z^{(k+1,1)}, Z^{(k+2,2)}, ...]."""
    if k > space.levels:
        raise ValueError("weight level exceeds truncation")
    return FockOperator(space, {(i, i): Z.z_between(i, i - k)
                                for i in range(k, space.levels + 1)})


# ---------------------------------------------------------------------------
# induced: commutant membership, direct sums and the unitary gamma_k
# ---------------------------------------------------------------------------


def contains(rep: Representation, a: np.ndarray, tol: float = 1e-12) -> bool:
    """Whether a lies in sigma(M)': one full m_v x m_v block per vertex."""
    a = as_complex(a)
    mask = np.zeros_like(a, dtype=bool)
    for v in range(rep.n_vertices):
        sl = rep.block(v)
        mask[sl, sl] = True
    off = a[~mask]
    return bool(off.size == 0 or np.abs(off).max() <= tol * max(1.0, operator_norm(a)))


def project(rep: Representation, a: np.ndarray) -> np.ndarray:
    a = as_complex(a)
    out = np.zeros_like(a)
    for v in range(rep.n_vertices):
        sl = rep.block(v)
        out[sl, sl] = a[sl, sl]
    return out


def direct_sum(rep: Representation, other: Representation) -> Representation:
    if rep.n_vertices != other.n_vertices:
        raise ValueError("representations over different vertex algebras")
    return Representation(tuple(a + b for a, b in zip(rep.multiplicities, other.multiplicities)))


def gamma_decomposition(graph: GraphCorrespondence, rep: Representation, k: int):
    """The unitary gamma_k: E^{(x)k} (x) H -> ⊕_{xi} H_xi and its index map.

    In the package coordinates gamma_k is the identity matrix; the returned
    index map lists (path index, source vertex, offset, block size).
    """
    ind = InducedSpace(graph, rep, k)
    blocks = list(zip(range(ind.fock.level_dims[k]), path_basis(graph, k).sources,
                      ind.block_offsets[k], ind.block_sizes[k]))
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


# ---------------------------------------------------------------------------
# duality: direct-sum spaces, pi_sigma and commutant dimensions
# ---------------------------------------------------------------------------


def direct_sum_embedding(ind1: InducedSpace, ind2: InducedSpace):
    """Identify K_1 ⊕ K_2 with the induced space of sigma_1 ⊕ sigma_2.

    Returns (ind_sum, idx1, idx2): the summed-representation space and, for
    each summand, the sum-space coordinate of each of its coordinates; a
    (level, path) block of K_1 lands at the head of the widened block, one of
    K_2 at its tail.
    """
    if ind1.graph != ind2.graph or ind1.levels != ind2.levels:
        raise ValueError("spaces must share the graph and truncation")
    rep_sum = direct_sum(ind1.rep, ind2.rep)
    ind_sum = InducedSpace(ind1.graph, rep_sum, ind1.levels)
    # H_sum = ⊕_v C^{m1_v} ⊕ C^{m2_v}: a coordinate lies in K_1 when its H index is in the first part
    first = np.concatenate([np.arange(a + b) < a for a, b in
                            zip(ind1.rep.multiplicities, ind2.rep.multiplicities)])
    first = first[np.concatenate([ind_sum._cut(k, k)[1] for k in range(ind_sum.levels + 1)])]
    return ind_sum, np.flatnonzero(first), np.flatnonzero(~first)


def pi_sigma_residuals(ind: InducedSpace, ws: WeightSystem, seed: int = 0) -> dict[str, float]:
    """Checks of pi = Ad(U_inf^*) o (- (x) I_H) on generators and short words.

    Verified: pi(I) = I; pi(phi_inf(a)) acts as sigma(a) through every
    dual-basis block; pi is isometric and multiplicative on random words; the
    image of a creation operator is one-subdiagonal in the dual frame.
    """
    rng = np.random.default_rng(seed)
    s = DualStructure(ind, ws)
    space = TruncatedFock(ind.graph, ind.levels)
    out = {"identity": residual(pi_sigma(s, phi_inf(space, np.ones(ind.graph.n_vertices))),
                                np.eye(ind.dim))}

    a = rng.standard_normal(ind.graph.n_vertices)
    img = pi_sigma(s, phi_inf(space, a))
    # diagonal in the dual frame: sigma(a) on level 0, a at the vertex of each tuple above
    vertices = [ind.graph.range_(edges[-1])
                for k in range(1, ind.levels + 1) for edges, _ in dual_tuples(s, k)]
    expected = np.diag(np.concatenate([np.diag(ind.rep.sigma(a)), a[vertices]]))
    out["left_action_formula"] = residual(img, expected)

    def w_image(e) -> np.ndarray:
        xi = CorrElement.basis_vector(ind.graph, 1, int(e))
        return ind.fock_tensor_identity(weighted_creation(space, ws, xi)).matrix

    # the words mix degrees, so they are products of induced images, and pi of
    # an image is the theta_full gather
    theta = s.theta_full()
    phi_a = ind.fock_tensor_identity(phi_inf(space, a)).matrix
    words = []
    for _ in range(3):
        e1, e2 = rng.integers(0, ind.graph.n_edges, size=2)
        words.append(w_image(e1) @ w_image(e2) + 0.3 * phi_a)
    out["isometry"] = max(abs(operator_norm(_in_frame(w, theta)) - operator_norm(w))
                          for w in words)
    out["multiplicativity"] = max(
        residual(_in_frame(w1 @ w2, theta), _in_frame(w1, theta) @ _in_frame(w2, theta))
        for w1, w2 in zip(words, words[1:]))

    band = 0.0  # the dual frame permutes each level, so its level blocks are the induced ones
    for e in range(ind.graph.n_edges):
        img = pi_sigma(s, weighted_creation(space, ws, CorrElement.basis_vector(ind.graph, 1, e)))
        for i in range(ind.levels + 1):
            for j in range(ind.levels + 1):
                if i - j == 1:
                    continue
                band = max(band, operator_norm(img[ind.level_slice(i), ind.level_slice(j)]))
    out["creation_band"] = band
    return out


def pi_sigma(s: DualStructure, y: FockOperator) -> np.ndarray:
    """pi(Y) = U_inf^* (Y (x) I_H) U_inf, written in the dual-basis frame."""
    return _in_frame(s.ind.fock_tensor_identity(y).matrix, s.theta_full())


def intertwiner(s: DualStructure, edges: tuple[int, ...], row: int) -> np.ndarray:
    """The identification image of a basis tuple: a map H -> level k, read off Theta.

    It sends the first H coordinate of the vertex r(f_k), ``s.cut(k, k)[1]``
    at the tuple, to local index ``row`` of the path (f_k, ..., f_1), the
    tuple's Theta coordinate, and everything else to zero.  At level 0 it is
    the identity of H.
    """
    k = len(edges)
    if k == 0:
        return np.eye(s.rep.h_dim, dtype=complex)
    n = dual_tuples(s, k).index((tuple(edges), row))
    out = np.zeros((s.ind.level_dim(k), s.rep.h_dim), dtype=complex)
    out[s.theta(k)[n], s.cut(k, k)[1][n]] = 1.0
    return out


def ref_intertwiner(s: DualStructure, edges: tuple[int, ...], row: int) -> np.ndarray:
    """The same image by the product formula: the first factor inserted outermost."""
    k = len(edges)
    if k == 0:
        return np.eye(s.rep.h_dim, dtype=complex)
    e = edges[0]
    alpha = np.zeros((s.ind.level_dim(1), s.rep.h_dim), dtype=complex)
    alpha[s.ind.block_offsets[1][e] + row, s.rep.offsets[s.graph.range_(e)]] = 1.0
    if k == 1:
        return alpha
    return s.ind.suffix_insert(alpha, 1, k - 1) @ ref_intertwiner(s, edges[1:], 0)


def ref_rho_creation(s: DualStructure, t_mat: np.ndarray, k: int) -> np.ndarray:
    """rho of the weighted creation by the dual element with intertwiner ``t_mat``
    (H -> level k, k >= 1) on the induced space, placed block by block: level block
    (j+k, j) is (C^{(j+k,k)} (x) I) (I_j (x) t), with the prefix-sided partial product
    C^{(i,k)} = Z^{(i)} ((Z^{(i-k)})^{-1} (x) I_k)."""
    ind, ws = s.ind, s.ws
    out = np.zeros((ind.dim, ind.dim), dtype=complex)
    for j in range(ind.levels + 1 - k):
        if ind.level_dim(j + k) == 0 or ind.level_dim(j) == 0:
            continue
        c = ws.z_prod(j + k) if j == 0 else \
            ws.z_prod(j + k) @ embed_prefix(ws.legs, ws.z_prod_inv(j), j, j + k)
        cw = ind.level_tensor_identity(c, j + k)
        out[ind.level_slice(j + k), ind.level_slice(j)] = cw @ ind.suffix_insert(t_mat, k, j)
    return out


def dual_tuples(s: DualStructure, k: int) -> list[tuple[tuple[int, ...], int]]:
    """The level-k dual basis as (edges, row) pairs, in Theta order.

    The tuple at Theta coordinate c is (f_1, ..., f_k; i) when c is local
    index i of the primal path (f_k, ..., f_1).  Level 0 is the one tuple
    ((), 0), whose intertwiner is the identity of H.
    """
    if k == 0:
        return [((), 0)]
    paths, path = path_basis(s.graph, k).paths, s.ind._cut(k, k)[0]
    return [(paths[path[c]][::-1], int(c) - s.ind.block_offsets[k][path[c]]) for c in s.theta(k)]


def _commutant_dim(gens: list[np.ndarray]) -> int:
    d = gens[0].shape[0]
    eye = np.eye(d)
    rows = [np.kron(eye, g) - np.kron(g.T, eye) for g in gens]
    return nullspace(np.vstack(rows), 1e-9).shape[1]


# ---------------------------------------------------------------------------
# interpolation: point evaluation and levelwise kernel identities
# ---------------------------------------------------------------------------


def power_residual(z: DiscPoint) -> float:
    """Check z^{(k+l)} = z^{(k)} (I_k (x) z^{(l)}) on the cached powers."""
    worst = 0.0
    for k in range(1, z.ind.levels):
        step = z.ind.lower_by_point(z.mat, k + 1)
        worst = max(worst, residual(z.powers[k + 1], z.powers[k] @ step))
    return worst


def levelwise_residual(cw: CauchyKernel, other: CauchyKernel, a: np.ndarray) -> float:
    """Both routes to <c_w(k), A . c_z(k)> = w^{(k)} (R_k^2 (x) A) z^{(k)*}."""
    ind = cw.point.ind
    worst = 0.0
    blocks = ind.dual_left_levels(a)
    for k, wr in cw.point.kernel_powers.items():
        rows = ind.level_slice(k)
        lhs = cw.column[rows].conj().T @ blocks[k] @ other.column[rows]
        rhs = wr @ blocks[k] @ other.point.powers[k].conj().T
        worst = max(worst, residual(lhs, rhs))
    return worst


def representation_eval(z: DiscPoint, word) -> np.ndarray:
    """Evaluate the point representation on a product of generators.

    ``word`` is a list of ("a", vector) left-action factors and
    ("xi", CorrElement) weighted-creation factors; the value is the product of
    sigma(a) and z^{(k)} L_xi factors, which is multiplicative by construction
    and agrees with the compression route on words of total degree within the
    truncation.
    """
    ind = z.ind
    out = np.eye(ind.rep.h_dim, dtype=complex)
    for kind, payload in word:
        if kind == "a":
            out = out @ ind.rep.sigma(payload)
        elif kind == "xi":
            xi: CorrElement = payload
            out = out @ (z.powers[xi.level] @ ind.insertion_map(xi))
        else:
            raise ValueError(f"unknown word factor {kind!r}")
    return out


def iota_w_star_check(z: DiscPoint, ws: WeightSystem, xi_mat: np.ndarray,
                      d_mat: np.ndarray) -> float:
    """Residual of (W'_xi)^* (D . c_z) = <D^* . xi, z^*> . c_z, levelwise.

    The top level is excluded: it is consumed by the truncation, and it is
    exactly the part of K outside the range of the band block's adjoint.
    """
    ind = z.ind
    band = ref_rho_creation(DualStructure(ind, ws), xi_mat, 1)[  # K_{<=N-1} -> K_{>=1}
        ind.level_offsets[1]:, :ind.level_offsets[ind.levels]]
    c = CauchyKernel(z, ws)
    lhs = band.conj().T @ (ind.dual_left(as_complex(d_mat)).matrix @ c.column)[ind.level_offsets[1]:]
    coeff = xi_mat.conj().T @ ind.dual_left_levels(as_complex(d_mat))[1] @ z.mat.conj().T
    rhs = ind.dual_left(coeff).matrix @ c.column
    return residual(lhs, rhs[:band.shape[1], :])


def quadratic_form_gap(problem: PickProblem, ws: WeightSystem,
                       rng: np.random.Generator, families: int = 20) -> float:
    """Minimum of the defining quadratic form over random (A, h) families.

    Negative values witness failure of the kernel-domination condition; the
    sign agrees with the Choi verdict up to roundoff.
    """
    cols_b, cols_f, _ = _span_generators(problem, ws)
    worst = np.inf
    n_b = cols_b.shape[1]
    for _ in range(families):
        c = rng_complex(rng, n_b)
        vb = cols_b @ c
        vf = cols_f @ c
        gap = float(np.vdot(vb, vb).real - np.vdot(vf, vf).real)
        scale = max(1.0, float(np.vdot(vb, vb).real))
        worst = min(worst, gap / scale)
    return worst


def random_point(ind: InducedSpace, x: AdmissibleSequence, rng: np.random.Generator,
                 norm: float) -> DiscPoint:
    """A random intertwiner of the given norm: block (r(e), e) free, the rest zero."""
    z = np.zeros((ind.rep.h_dim, ind.level_dim(1)), dtype=complex)
    offs = ind.block_offsets[1]
    for e in range(ind.graph.n_edges):
        rows, cols = ind.rep.block(ind.graph.range_(e)), slice(offs[e], offs[e + 1])
        z[rows, cols] = rng_complex(rng, rows.stop - rows.start, cols.stop - cols.start)
    return DiscPoint(ind, x, z * (norm / operator_norm(z)))


def choi_by_units(problem: PickProblem, ws: WeightSystem | None = None) -> np.ndarray:
    """The Pick map's Choi matrix assembled unit by unit, Hermitian part taken.

    For each vertex v, pair of points (i, j) and matrix unit E_mu,nu of
    sigma(M)', the kernel K(z_i, z_j)(E_mu,nu) is a level sum (``kernel_value``)
    or, with ``ws``, a pairing of Cauchy columns, and the block at rows (i, mu)
    and columns (j, nu) is B_i (I_s (x) K) B_j^* - F_i (I_t (x) K) F_j^*.
    """
    ind = problem.ind
    npts, s_dim = len(problem.points), problem.s * ind.h_dim
    cauchy = [CauchyKernel(z, ws) for z in problem.points] if ws is not None else None
    total = npts * s_dim * ind.h_dim
    choi = np.zeros((total, total), dtype=complex)
    pos = 0
    for v, m_v in enumerate(ind.rep.multiplicities):
        for i, mu, j, nu in itertools.product(range(npts), range(m_v), range(npts), range(m_v)):
            unit = ind.rep.commutant_unit(v, mu, nu)
            kij = (cauchy[i].pairing(cauchy[j], unit) if cauchy is not None
                   else kernel_value(problem.points[i], problem.points[j], unit))
            img = problem.B[i] @ np.kron(np.eye(problem.s), kij) @ problem.B[j].conj().T \
                - problem.F[i] @ np.kron(np.eye(problem.t), kij) @ problem.F[j].conj().T
            row, col = pos + (i * m_v + mu) * s_dim, pos + (j * m_v + nu) * s_dim
            choi[row:row + s_dim, col:col + s_dim] = img
        pos += npts * m_v * s_dim
    return 0.5 * (choi + choi.conj().T)


def dense_span_generators(problem: PickProblem, ws: WeightSystem):
    """The J_B and J_F columns of ``_span_generators`` with each unit E_mu,nu applied to
    the Cauchy columns as the whole-space matrix of ⊕_k I_k (x) E_mu,nu."""
    ind = problem.ind
    cauchy = [CauchyKernel(z, ws).column for z in problem.points]
    cols_b, cols_f = [[] for _ in cauchy], [[] for _ in cauchy]
    for v, mu, nu in ind.rep.commutant_basis():
        left = ind.dual_left(ind.rep.commutant_unit(v, mu, nu)).matrix
        for i, column in enumerate(cauchy):
            base = left @ column
            cols_b[i].append(np.kron(np.eye(problem.s), base) @ problem.B[i].conj().T)
            cols_f[i].append(np.kron(np.eye(problem.t), base) @ problem.F[i].conj().T)
    return (np.hstack([c for cols in cols_b for c in cols]),
            np.hstack([c for cols in cols_f for c in cols]))


# ---------------------------------------------------------------------------
# lifting: prefix frames, co-invariance, the G_m adjoint expansion, the Putnam sum
# ---------------------------------------------------------------------------


def prefix_columns(model: LiftModel, n: int) -> np.ndarray:
    idx = model.prefix_idx(n)
    out = np.zeros((model.dim, idx.size), dtype=complex)
    out[idx, np.arange(idx.size)] = 1.0
    return out


@dataclass
class CoinvariantSubspace:
    """An orthonormal frame for J with its co-invariance certificate."""

    model: LiftModel
    frame: np.ndarray

    def __post_init__(self):
        self.frame = as_complex(self.frame)
        if residual(self.frame.conj().T @ self.frame, np.eye(self.frame.shape[1])) > 1e-12:
            raise ValueError("frame columns are not orthonormal")

    def coinvariance_residual(self) -> float:
        return _frame_coinvariance(self.frame, self.model.generators)


def full_frame_escape(state: LiftState) -> tuple[int, np.ndarray]:
    """The escape scan on the whole frame of J (row side), as it ran before the state
    kept J' = J ⊖ K_{n_m}: the least n > n_m with ||(I - P) E_n|| > RANK_TOL on the
    dense prefix columns E_n, and an orthonormal frame of (I - P) E_n."""
    q = state.frame
    for n in range(state.n_list[-1] + 1, state.model.levels + 1):
        res = _project_out(q, prefix_columns(state.model, n))
        if res.size and operator_norm(res) > RANK_TOL:
            return n, orth_columns(res, RANK_TOL)
    raise AssertionError("a proper frame has an escaping level")


def gm_star_expansion_residual(state: LiftState, ind: InducedSpace) -> float:
    """Residual of the adjoint expansion of G_m over the basis insertions, for a
    primal lift model on ``ind``.  Lift models start at level 1, so the level-0
    term, whose basis elements are the vertices, is built here from the vertex
    projections phi(e_v) (x) I, each inserted at the H block of v."""
    model = state.model
    g_vec = model.vacuum(state.g_mat)
    acc = np.zeros((model.dim, state.dim_j), dtype=complex)
    q = state.frame
    for v, a in enumerate(np.eye(ind.graph.n_vertices)):
        alpha = q.conj().T @ ind.fock_tensor_identity(phi_inf(ind.fock, a)).matrix @ q
        block = ind.rep.block(v)
        acc[block] += (g_vec.conj().T @ alpha.conj().T)[block]
    acc += compression_f_columns(model, model, q, q, state.g_mat)
    return residual(acc, state.g_mat.conj().T)


def compression_f_columns(model: LiftModel, row_model: LiftModel, q_new: np.ndarray,
                          q_m: np.ndarray, g_mat: np.ndarray) -> np.ndarray:
    """F's columns on the directions ``q_new`` of the row side, by one ``compressions``
    call per level: beta(W_{Z^{(k)-1} xi}) g = q_new^* W q_m g with g = G_m L_{1^},
    placed by the insertions of the domain ``model``."""
    z_new = row_model.levelwise(row_model.z_star, q_new)
    z_g = row_model.levelwise(row_model.z_inv, q_m @ model.vacuum(g_mat))
    out = np.zeros((model.dim, q_new.shape[1]), dtype=complex)
    for k in range(1, model.levels + 1):
        rows, cols, elem = model.insertions[k]
        out[rows] = row_model.compressions(z_new, z_g, row_model.mixes[k])[elem, :, cols].conj()
    return out


def sum_space_lift(base: LiftModel, t: int, s: int, j1_frame: np.ndarray,
                   j2_frame: np.ndarray, g12: np.ndarray):
    """The two-space corollary by the Putnam trick on the whole sum: the one-frame
    loop lifting [[0, 0], [G, 0]] on J_1 (+) J_2, with the block-diagonal frame, in
    K^(t+s) = ``base.amplify(t + s)``, whose copy-major layout puts K^(t) in the
    first t dim coordinates.  Returns the lift on all of K^(t+s), whose lower-left
    block K^(t) -> K^(s) is the corollary's lift, and the ledger."""
    model = base.amplify(t + s)
    split = t * base.dim
    d1, d2 = j1_frame.shape[1], j2_frame.shape[1]
    j_frame = np.zeros((model.dim, d1 + d2), dtype=complex)
    j_frame[:split, :d1] = j1_frame
    j_frame[split:, d1:] = j2_frame
    g0 = np.zeros((d1 + d2, d1 + d2), dtype=complex)
    g0[d1:, :d1] = g12
    g_tilde, steps, *_ = _loop(model, j_frame, g0, None)
    return g_tilde, steps


# ---------------------------------------------------------------------------
# the alpha/beta step validator on whole-space operators
# ---------------------------------------------------------------------------


def whole_space_creation(ind: InducedSpace, ws: WeightSystem, xi: CorrElement) -> np.ndarray:
    """W_xi (x) I_H on the whole truncated induced space, as a dense matrix."""
    return ind.fock_tensor_identity(weighted_creation(ind.fock, ws, xi)).matrix


def dense_alphabeta_validator(ind: InducedSpace, ws: WeightSystem, seed: int = 0):
    """``liftcheck.alphabeta_validator`` on whole-space operators, one residual per identity.

    alpha(Y) = V_m^* (Y (x) I) V_m and beta(Y) = V_{m+1}^* (Y (x) I) V_m; the
    identities tie them to the vacuum vector g = G_m L_{1^} and to the module
    structure.  Every W_xi (x) I and phi(a) (x) I is built as a whole-space matrix
    and compressed by the full frames, with the rng draws of the library's
    validator, so the two evaluate the same identities on the same draws.  The
    step callable returns each identity's residual under its name.
    """
    rng = np.random.default_rng(seed)
    graph = ind.graph

    def w_tensor(xi: CorrElement) -> np.ndarray:
        return whole_space_creation(ind, ws, xi)

    def validator(state: LiftState, new_state: LiftState) -> dict[str, float]:
        model = state.model
        q_m, q_m1 = state.frame, new_state.frame
        g_mat = state.g_mat
        g_vec = model.vacuum(g_mat)
        qh_m, qh_m1 = q_m.conj().T, q_m1.conj().T

        def alpha(mat):
            return qh_m @ mat @ q_m

        def beta(mat):
            return qh_m1 @ mat @ q_m

        out: dict[str, float] = {}
        k = int(rng.integers(1, ind.levels + 1))
        while path_basis(graph, k).size == 0:
            k = int(rng.integers(1, ind.levels + 1))
        d_k = path_basis(graph, k).size
        xi = CorrElement(k, rng_complex(rng, d_k))
        w_xi = w_tensor(xi)
        y_word = model.generators[int(rng.integers(0, len(model.generators)))] @ \
            model.generators[int(rng.integers(0, len(model.generators)))]
        alpha_y, alpha_xi, beta_xi = alpha(y_word), alpha(w_xi), beta(w_xi)

        # (1) alpha is unital and multiplicative under co-invariance
        out["alpha_unital"] = residual(qh_m @ q_m, np.eye(q_m.shape[1]))
        out["alpha_multiplicative"] = residual(alpha(w_xi @ y_word), alpha_xi @ alpha_y)
        # (2) alpha(Y) G_m = G_m (Y (x) I)
        out["alpha_intertwines"] = residual(alpha_y @ g_mat, g_mat @ y_word)
        # (3) beta(W_xi) alpha(Y) = beta(W_xi Y)
        out["beta_absorbs"] = residual(beta_xi @ alpha_y, beta(w_xi @ y_word))
        # (4) beta(W_xi)^* V_+^*(phi(a) (x) I)V_+ = beta(W_{a^* . xi})^*
        a = rng_complex(rng, graph.n_vertices)
        phi_a = ind.fock_tensor_identity(phi_inf(ind.fock, a)).matrix
        basis_k = path_basis(graph, k)
        a_conj_xi = CorrElement(k, np.conj(a)[list(basis_k.ranges)] * xi.coeffs)
        out["beta_left_module"] = residual(
            beta_xi.conj().T @ (qh_m1 @ phi_a @ q_m1),
            beta(w_tensor(a_conj_xi)).conj().T)
        # (5) alpha(W_{Z^{(k)-1} xi}) g = G_m L_{xi^} over the whole basis
        zinv = ws.z_prod_inv(k)
        out["alpha_vacuum"] = max_operator_norm([
            alpha(w_tensor(CorrElement(k, zinv[:, p]))) @ g_vec - ins
            for p, ins in enumerate(model.inserted(g_mat, k))])
        # (5d) alpha(W_{xi . a}) g = alpha(W_xi) g sigma(a)
        w_xi_a = w_tensor(CorrElement(k, xi.coeffs * a[list(basis_k.sources)]))
        out["alpha_right_module"] = residual(alpha(w_xi_a) @ g_vec,
                                             alpha_xi @ g_vec @ ind.rep.sigma(a))
        # (6) g^* beta(W_{xi . a})^* = sigma(a^*) g^* beta(W_xi)^*
        out["beta_right_module"] = residual(
            g_vec.conj().T @ beta(w_xi_a).conj().T,
            ind.rep.sigma(np.conj(a)) @ g_vec.conj().T @ beta_xi.conj().T)
        # (7)/(8) basis expansions of W_{T eta} through alpha and beta
        t_map = _random_module_map(graph, k, rng)
        eta = CorrElement(k, rng_complex(rng, d_k))
        w_t_eta = w_tensor(CorrElement(k, t_map @ eta.coeffs))
        acc_a = np.zeros((q_m.shape[1], ind.rep.h_dim), dtype=complex)
        acc_b = np.zeros((ind.rep.h_dim, q_m1.shape[1]), dtype=complex)
        for p in range(d_k):
            piece = CorrElement(k, t_map[:, p] * eta.coeffs[p])
            w_piece = w_tensor(piece)
            acc_a += alpha(w_piece) @ g_vec
            acc_b += g_vec.conj().T @ beta(w_piece).conj().T
        out["alpha_expansion"] = residual(acc_a, alpha(w_t_eta) @ g_vec)
        out["beta_expansion"] = residual(acc_b, g_vec.conj().T @ beta(w_t_eta).conj().T)
        return out

    return validator



# ---------------------------------------------------------------------------
# jsonio: the matrix form of X
# ---------------------------------------------------------------------------


def encode_x(x: AdmissibleSequence) -> dict:
    return {"matrices": {str(k): encode_matrix(x.X[k]) for k in range(1, x.levels + 1)}}
