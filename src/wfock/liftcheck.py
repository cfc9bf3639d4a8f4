"""Instance generation and step validators for the lifting loop.

The lifting hypotheses are awkward to sample directly, so instances are built
the way the theory says they arise: a random element of the commutant algebra
(a polynomial in the transported dual generators) is compressed to a subspace
that is closed under both the generator adjoints and the adjoint of the
element itself; the compression then commutes with every compressed algebra
element, and the subspace is co-invariant by construction.

The step validator evaluates the eight identities relating the compression
maps alpha and beta to the basis insertions, which the induction leans on;
they are finite matrix identities on the truncation.
"""

from __future__ import annotations

import numpy as np

from .fock import phi_inf, weighted_creation
from .graphs import CorrElement, _random_module_map, path_basis
from .induced import InducedSpace
from .lifting import LiftModel, LiftState
from .linalg import _complement, _project_out, max_operator_norm, operator_norm, orth_columns, \
    residual, rng_complex
from .weights import WeightSystem


def krylov_closure(model: LiftModel, seeds: np.ndarray, extra_ops: list[np.ndarray]) -> np.ndarray:
    """Smallest subspace containing the seeds, closed under the adjoints.

    Closes under (Y (x) I)^* for every model generator and under each extra
    operator's adjoint; returns an orthonormal frame.  Operators are
    normalized first (the closure is scale invariant) and the loop runs until
    every adjoint maps the frame into itself to roughly machine precision, so
    the co-invariance certificate of the result is tight.  A residual whose
    Frobenius norm is at most 0.5e-13 maps nothing out, and takes no SVD.
    """
    ops = [g.conj().T / max(operator_norm(g), 1e-30)
           for g in list(model.generators) + list(extra_ops)]
    frame = orth_columns(seeds, 1e-12)
    for _ in range(4 * (model.dim + 1)):
        escaped = []
        for op in ops:
            res = _project_out(frame, op @ frame)
            if np.linalg.norm(res) <= 0.5e-13:
                continue
            norm = operator_norm(res)
            if norm > 1e-13:
                escaped.append(res / norm)
        if not escaped:
            return frame
        add = orth_columns(np.hstack(escaped), 1e-9)
        add = orth_columns(_complement(frame, add), 0.5)
        if add.shape[1] == 0:
            return frame
        frame = np.hstack([frame, add])
        if frame.shape[1] >= model.dim:
            return orth_columns(np.eye(model.dim, dtype=complex), 0.5)
    raise RuntimeError("closure did not stabilize")


def random_commutant_element(dual_generators: list[np.ndarray],
                             rng: np.random.Generator) -> np.ndarray:
    """A random polynomial in the commutant generators: four words of length 1 to 3."""
    dim = dual_generators[0].shape[0]
    out = np.zeros((dim, dim), dtype=complex)
    for _ in range(4):
        length = int(rng.integers(1, 4))
        term = np.eye(dim, dtype=complex)
        for _ in range(length):
            term = term @ dual_generators[int(rng.integers(0, len(dual_generators)))]
        out += (rng.standard_normal() + 1j * rng.standard_normal()) * term
    return out


def compression_instance(model: LiftModel, dual_generators: list[np.ndarray],
                         rng: np.random.Generator):
    """A random co-invariant subspace and a commuting compression on it.

    Returns (frame, g_on_j, theta): the subspace frame, the compression of a
    random commutant element theta, and theta itself for cross-checks.  The
    compression commutes with every compressed algebra element because the
    subspace is also invariant under theta^*.

    The one random seed vector lives below the top truncation level (all the
    closing operators are level non-increasing), so the subspace is usually
    proper.
    """
    theta = random_commutant_element(dual_generators, rng)
    theta = theta / max(operator_norm(theta), 1e-30)
    below_top = model.prefix_idx(max(model.levels - 1, 0))
    seeds = np.zeros((model.dim, 1), dtype=complex)
    seeds[below_top, :] = rng_complex(rng, below_top.size, 1)
    frame = krylov_closure(model, seeds, [theta])
    g_on_j = frame.conj().T @ theta @ frame
    nrm = operator_norm(g_on_j)
    if nrm > 0:
        g_on_j = g_on_j / nrm * min(1.0, nrm)  # keep scale tame, not unit
    return frame, g_on_j, theta


def alphabeta_validator(ind: InducedSpace, ws: WeightSystem, seed: int = 0):
    """Step validator evaluating the eight alpha/beta identities.

    alpha(Y) = V_m^* (Y (x) I) V_m and beta(Y) = V_{m+1}^* (Y (x) I) V_m; the
    identities tie them to the vacuum vector g = G_m L_{1^} and to the module
    structure.  Each whole-space operator and compression a step reads is built
    once.  Returns a callable suitable for the lifting loop.
    """
    rng = np.random.default_rng(seed)
    graph = ind.graph

    def w_tensor(xi: CorrElement) -> np.ndarray:
        return ind.fock_tensor_identity(weighted_creation(ind.fock, ws, xi))

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
        phi_a = ind.fock_tensor_identity(phi_inf(ind.fock, a))
        basis_k = path_basis(graph, k)
        a_conj_xi = CorrElement(k, np.conj(a)[list(basis_k.ranges)] * xi.coeffs)
        out["beta_left_module"] = residual(
            beta_xi.conj().T @ (qh_m1 @ phi_a @ q_m1),
            beta(w_tensor(a_conj_xi)).conj().T)
        # (5) alpha(W_{Z^{(k)-1} xi}) g = G_m L_{xi^} over the whole basis
        out["alpha_vacuum"] = max_operator_norm([alpha_w @ g_vec - model.inserted(g_mat, ins) for
                                                 alpha_w, ins in model.compressions(k, q_m, q_m)])
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

