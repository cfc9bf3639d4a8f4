"""Reference computations that the tests compare the library against.

Each function here restates an identity of the theory by a second route, or
builds a small object only a test needs: the literal composition sum for
R_k^2, the M-valued inner product, the unitary gamma_k, pi_sigma on the dual
frame, direct sums of representations, point evaluation on generator words,
the levelwise kernel identities and the adjoint expansion of G_m.  None of
them is on a path the CLI, the acceptance suite, ``tools/`` or ``perfbench/``
runs, so they live beside the tests, which import them as ``from oracles
import ...``.  A method of a library class becomes a function of that object
here, e.g. ``prefix_columns(model, n)`` for ``model.prefix_columns(n)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from wfock.duality import DualStructure, _in_frame
from wfock.fock import FockOperator, TruncatedFock, phi_inf, weighted_creation
from wfock.graphs import CorrElement, GraphCorrespondence, path_basis, tensor_pair
from wfock.induced import InducedSpace, Representation
from wfock.interpolation import CauchyKernel, DiscPoint, PickProblem, _span_generators
from wfock.jsonio import encode_matrix
from wfock.lifting import LiftModel, LiftState, _frame_coinvariance
from wfock.linalg import as_complex, nullspace, operator_norm, residual, rng_complex
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
    pre, suf = path_basis(graph, k).split(j)
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
    vertices = [t.vertex for k in range(1, ind.levels + 1) for t in s.tuples(k)]
    expected = np.diag(np.concatenate([np.diag(ind.rep.sigma(a)), a[vertices]]))
    out["left_action_formula"] = residual(img, expected)

    def w_image(e) -> np.ndarray:
        xi = CorrElement.basis_vector(ind.graph, 1, int(e))
        return ind.fock_tensor_identity(weighted_creation(space, ws, xi))

    # the words mix degrees, so they are products of induced images, and pi of
    # an image is the theta_full gather
    theta = s.theta_full()
    phi_a = ind.fock_tensor_identity(phi_inf(space, a))
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
    return _in_frame(s.ind.fock_tensor_identity(y), s.theta_full())


def intertwiner(s: DualStructure, edges: tuple[int, ...], row: int) -> np.ndarray:
    """The identification image of a basis tuple: a map H -> level k.

    It sends the first H coordinate of the vertex r(f_k) to local index
    ``row`` of the path (f_k, ..., f_1), the tuple's Theta coordinate, and
    everything else to zero.  At level 0 it is the identity of H.
    """
    k = len(edges)
    if k == 0:
        return np.eye(s.rep.h_dim, dtype=complex)
    return s._intertwiner(k, s.tuple_index(k)[tuple(edges), row])


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
        lhs = cw.levels[k].conj().T @ blocks[k] @ other.levels[k]
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
    band = DualStructure(ind, ws).rho_creation([xi_mat], 1)[0]  # K_{<=N-1} -> K_{>=1}
    c = CauchyKernel(z, ws)
    lhs = band.conj().T @ (ind.dual_left(as_complex(d_mat)) @ c.column)[ind.level_offsets[1]:]
    coeff = xi_mat.conj().T @ ind.dual_left_levels(as_complex(d_mat))[1] @ z.mat.conj().T
    rhs = ind.dual_left(coeff) @ c.column
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


# ---------------------------------------------------------------------------
# lifting: prefix frames, co-invariance and the G_m adjoint expansion
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
        alpha = q.conj().T @ ind.fock_tensor_identity(phi_inf(ind.fock, a)) @ q
        block = ind.rep.block(v)
        acc[block] += (g_vec.conj().T @ alpha.conj().T)[block]
    for k in range(1, model.levels + 1):
        for alpha, (rows, cols) in model.compressions(k, q, q):
            acc[rows] += (g_vec.conj().T @ alpha.conj().T)[cols]
    return residual(acc, state.g_mat.conj().T)


# ---------------------------------------------------------------------------
# jsonio: the matrix form of X
# ---------------------------------------------------------------------------


def encode_x(x: AdmissibleSequence) -> dict:
    return {"matrices": {str(k): encode_matrix(x.X[k]) for k in range(1, x.levels + 1)}}
