"""Instance generation and step validators for the lifting loop.

The lifting hypotheses are awkward to sample directly, so instances are built
the way the theory says they arise: a random element of the commutant algebra
(a polynomial in the transported dual generators) is compressed to a subspace
that is closed under both the generator adjoints and the adjoint of the
element itself; the compression then commutes with every compressed algebra
element, and the subspace is co-invariant by construction.

The step validator evaluates the eight identities relating the compression
maps alpha and beta to the basis insertions, which the induction leans on;
they are finite matrix identities on the truncation, read through
``LiftModel.compressions``.  The lift step reads F's new columns by another
route (its ``FPattern``), so identity (5) checks the step's F independently.
"""

from __future__ import annotations

import numpy as np

from .graphs import _random_module_map, path_basis
from .induced import InducedSpace
from .lifting import LiftModel, LiftState, creation_mix
from .linalg import _complement, _project_out, max_operator_norm, operator_norm, orth_columns, \
    rng_complex


def krylov_closure(model: LiftModel, seeds: np.ndarray, extra_ops: list[np.ndarray]) -> np.ndarray:
    """Smallest subspace containing the seeds, closed under the adjoints.

    Closes under (Y (x) I)^* for every model generator and under each extra
    operator's adjoint; returns an orthonormal frame.  Operators are
    normalized first (the closure is scale invariant; the generators by the
    model's ``generator_norms``) and the loop runs until
    every adjoint maps the frame into itself to roughly machine precision, so
    the co-invariance certificate of the result is tight.  A residual whose
    Frobenius norm is at most 0.5e-13 maps nothing out, and takes no SVD.
    """
    norms = list(model.generator_norms) + [operator_norm(g) for g in extra_ops]
    ops = [g.conj().T / max(norm, 1e-30)
           for g, norm in zip(list(model.generators) + list(extra_ops), norms)]
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


def alphabeta_validator(ind: InducedSpace, seed: int = 0):
    """Step validator evaluating the eight alpha/beta identities, for a graph-side model
    on ``ind``.

    alpha(Y) = V_m^* (Y (x) I) V_m and beta(Y) = V_{m+1}^* (Y (x) I) V_m; the
    identities tie them to the vacuum vector g = G_m L_{1^} and to the module
    structure.  Returns a callable suitable for the lifting loop, which returns
    ``{"alpha_beta_worst": r}``: r is the largest operator norm of the residual
    matrices of all eight identities, from one ``max_operator_norm``.

    No whole-space operator is formed.  Every compression V_{m+1}^* (W_c (x) I) B the
    identities read, for coefficient rows c over the level-k paths, comes from the
    model's ``compressions``; alpha is its first d_m rows, since V_m is the first d_m
    columns of V_{m+1}.  The lift step forms F's new columns from its gather pattern
    (``lifting.FPattern``), not from ``compressions``, so identity (5),
    alpha(W_{Z^{(k)-1} xi}) g = G_m L_{xi^} over the whole basis, is an independent
    check of that route.  Stacks over the basis are compressed onto g only, which has
    H's width.  The left action phi(a) (x) I is the diagonal a(r(p)) per coordinate.
    """
    rng = np.random.default_rng(seed)
    graph = ind.graph
    ranges = np.concatenate([ind._cut(k, 0)[0] for k in range(ind.levels + 1)])  # r(p) per row

    def validator(state: LiftState, new_state: LiftState) -> dict[str, float]:
        model = state.model
        q_m, q_m1 = state.frame, new_state.frame  # q_m is the first d_m columns of q_m1
        d_m = q_m.shape[1]
        g_mat = state.g_mat
        g_vec = model.vacuum(g_mat)
        qh_m, qh_m1 = q_m.conj().T, q_m1.conj().T

        k = int(rng.integers(1, ind.levels + 1))
        while path_basis(graph, k).size == 0:
            k = int(rng.integers(1, ind.levels + 1))
        basis_k = path_basis(graph, k)
        d_k = basis_k.size
        xi = rng_complex(rng, d_k)
        y_left = model.generators[int(rng.integers(0, len(model.generators)))]
        y_right = model.generators[int(rng.integers(0, len(model.generators)))]
        a = rng_complex(rng, graph.n_vertices)
        t_map = _random_module_map(graph, k, rng)
        eta = rng_complex(rng, d_k)

        # beta(W_xi) on V_m and Y V_m, and beta(W_{a^* . xi}) on V_m, from one call
        sources, path_ranges = np.asarray(basis_k.sources), np.asarray(basis_k.ranges)
        y_q = y_left @ (y_right @ q_m)
        z_out = model.levelwise(model.z_star, q_m1)
        z_in = model.levelwise(model.z_inv, np.hstack([q_m, y_q]))
        z_g = z_in[:, :d_m] @ g_vec
        gather, dim = model.gathers[k], model.dim // model.copies
        both = model.compressions(z_out, z_in, creation_mix(gather, dim, np.array(
            [xi, np.conj(a)[path_ranges] * xi])))
        beta_xi, beta_xi_y, beta_conj_a_xi = both[0, :, :d_m], both[0, :, d_m:], both[1, :, :d_m]
        # W_{xi . a} and W_{T eta} are read only on g, and for (7)/(8) per basis piece p
        # beta(W_{T (eta_p e_p)}) g, summed over the pieces
        on_g = model.compressions(z_out, z_g, creation_mix(gather, dim, np.vstack(
            [xi * a[sources], t_map @ eta, (t_map * eta).T])))
        beta_xi_a_g, beta_t_eta_g, pieces = on_g[0], on_g[1], on_g[2:].sum(axis=0)
        alpha_xi, alpha_y = beta_xi[:d_m], qh_m @ y_q
        alpha_xi_g, g_star = alpha_xi @ g_vec, g_vec.conj().T

        res = [
            # (1) alpha is unital and multiplicative under co-invariance
            qh_m @ q_m - np.eye(d_m),
            beta_xi_y[:d_m] - alpha_xi @ alpha_y,
            # (2) alpha(Y) G_m = G_m (Y (x) I)
            alpha_y @ g_mat - (g_mat @ y_left) @ y_right,
            # (3) beta(W_xi) alpha(Y) = beta(W_xi Y)
            beta_xi @ alpha_y - beta_xi_y,
            # (4) beta(W_xi)^* V_+^*(phi(a) (x) I)V_+ = beta(W_{a^* . xi})^*
            ((beta_xi.conj().T @ qh_m1) * a[ranges]) @ q_m1 - beta_conj_a_xi.conj().T,
            # (5) alpha(W_{Z^{(k)-1} xi}) g = G_m L_{xi^} over the whole basis
            *(model.compressions(z_out, z_g, model.mixes[k])[:, :d_m] - model.inserted(g_mat, k)),
            # (5d) alpha(W_{xi . a}) g = alpha(W_xi) g sigma(a)
            beta_xi_a_g[:d_m] - alpha_xi_g @ ind.rep.sigma(a),
            # (6) g^* beta(W_{xi . a})^* = sigma(a^*) g^* beta(W_xi)^*
            beta_xi_a_g.conj().T - ind.rep.sigma(np.conj(a)) @ g_star @ beta_xi.conj().T,
            # (7)/(8) basis expansions of W_{T eta} through alpha and beta
            pieces[:d_m] - beta_t_eta_g[:d_m],
            pieces.conj().T - beta_t_eta_g.conj().T,
        ]
        return {"alpha_beta_worst": max_operator_norm(res)}

    return validator
