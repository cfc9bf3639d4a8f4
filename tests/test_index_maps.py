"""Identity legs and dual frames as index maps, checked against reference loops.

Each assembly built by the single masked gather is compared, entry for entry
(``np.array_equal``), with a test-local copy of the per-path loop it replaced,
on random small graphs.  The dual frames Theta_k, now coordinate
permutations, are compared the same way with the recursive intertwiner
products and the dense conjugations they replaced, and the lift models'
coordinate insertions and band blocks with the dense whole-space basis
operators and the kron amplification they replaced.  Graded operators on the
induced space are compared with test-local copies of the block writers that
``FockOperator.band`` and ``matrix`` replaced.  The last tests check tensor and
creation identities on the same graphs.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from graph_strategies import multiplicities, small_graphs
from oracles import direct_sum_embedding, dual_tuples, factor_prefix, inner_product, intertwiner, \
    pi_sigma, ref_intertwiner, ref_rho_creation, weight_diagonal, whole_space_creation
from wfock.acceptance import _random_graph_x
from wfock.duality import (
    DualStructure,
    dual_lift_model,
    dual_weights,
    omega_transport,
    primal_generators,
    primal_lift_model,
)
from wfock.fock import FockOperator, TruncatedFock, creation, multiplicativity_residual, phi_inf, \
    tensor_element, weighted_creation
from wfock.graphs import (
    CorrElement,
    _masked_gather,
    _random_module_map,
    embed_prefix,
    embed_suffix,
    insertion_matrix,
    left_action,
    path_basis,
    tensor_pair,
)
from wfock.induced import InducedSpace, Representation
from wfock.interpolation import DiscPoint, kernel_value
from wfock.lifting import LiftModel, per_copy_left, per_copy_right
from wfock.linalg import operator_norm, residual, rng_complex
from wfock.weights import AdmissibleSequence, WeightSystem, weight_system_from

SETTINGS = settings(max_examples=40, deadline=None)


def _rng(data):
    return np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))


def _module_map(rng, graph, k, keep_ranges=False):
    """Random entries between paths of equal source (and equal range if asked)."""
    basis = path_basis(graph, k)
    m = rng_complex(rng, basis.size, basis.size)
    src = np.array(basis.sources)
    keep = np.equal.outer(src, src)
    if keep_ranges:
        rng_ = np.array(basis.ranges)
        keep &= np.equal.outer(rng_, rng_)
    return np.where(keep, m, 0)


# -- reference copies of the per-path loops -------------------------------------


def ref_inner_product(graph, xi, eta):
    basis = path_basis(graph, xi.level)
    out = np.zeros(graph.n_vertices, dtype=complex)
    prod = np.conj(xi.coeffs) * eta.coeffs
    for i, v in enumerate(basis.sources):
        out[v] += prod[i]
    return out


def ref_random_module_map(graph, k, rng):
    basis = path_basis(graph, k)
    m = rng_complex(rng, basis.size, basis.size)
    for i in range(basis.size):
        for j in range(basis.size):
            if basis.sources[i] != basis.sources[j]:
                m[i, j] = 0.0
    return m


def ref_insertion_matrix(graph, xi, j):
    k = xi.level
    if k == 0:
        return left_action(graph, xi.coeffs, j)
    src = path_basis(graph, j)
    dst = path_basis(graph, j + k)
    mat = np.zeros((dst.size, src.size), dtype=complex)
    if dst.size == 0 or src.size == 0:
        return mat
    if j == 0:
        for w, path in enumerate(dst.paths):
            mat[w, dst.sources[w]] = xi.coeffs[path_basis(graph, k).index_map()[path]]
        return mat
    pre_index = path_basis(graph, k).index_map()
    suf_index = src.index_map()
    for w, path in enumerate(dst.paths):
        mat[w, suf_index[path[k:]]] = xi.coeffs[pre_index[path[:k]]]
    return mat


def ref_embed_prefix(graph, a_mat, a, k):
    if a == k:
        return a_mat
    basis = path_basis(graph, k)
    out = np.zeros((basis.size, basis.size), dtype=complex)
    if basis.size == 0:
        return out
    if a == 0:
        for i in range(basis.size):
            out[i, i] = a_mat[basis.ranges[i], basis.ranges[i]]
        return out
    pre_index = path_basis(graph, a).index_map()
    groups = {}
    for i, p in enumerate(basis.paths):
        groups.setdefault(p[a:], []).append(i)
    for idxs in groups.values():
        rows = [pre_index[basis.paths[i][:a]] for i in idxs]
        out[np.ix_(idxs, idxs)] = a_mat[np.ix_(rows, rows)]
    return out


def ref_embed_suffix(graph, b_mat, b, k):
    if b == k:
        return b_mat
    basis = path_basis(graph, k)
    out = np.zeros((basis.size, basis.size), dtype=complex)
    if basis.size == 0:
        return out
    if b == 0:
        for i in range(basis.size):
            out[i, i] = b_mat[basis.sources[i], basis.sources[i]]
        return out
    suf_index = path_basis(graph, b).index_map()
    groups = {}
    for i, p in enumerate(basis.paths):
        groups.setdefault(p[: k - b], []).append(i)
    for idxs in groups.values():
        cols = [suf_index[basis.paths[i][k - b:]] for i in idxs]
        out[np.ix_(idxs, idxs)] = b_mat[np.ix_(cols, cols)]
    return out


def ref_factor_prefix(graph, xi, j):
    k = xi.level
    basis = path_basis(graph, k)
    suf = path_basis(graph, k - j)
    pre_index = path_basis(graph, j).index_map()
    out = {}
    for i, p in enumerate(basis.paths):
        if xi.coeffs[i] == 0:
            continue
        vec = out.setdefault(pre_index[p[:j]], np.zeros(suf.size, dtype=complex))
        if k - j == 0:
            vec[basis.sources[i]] += xi.coeffs[i]
        else:
            vec[suf.index_map()[p[j:]]] += xi.coeffs[i]
    return sorted(out.items())


def _block(ind, k, p):
    return slice(ind.block_offsets[k][p], ind.block_offsets[k][p + 1])


def ref_level_tensor_identity(ind, y, k_out, k_in):
    rows, cols = path_basis(ind.graph, k_out), path_basis(ind.graph, k_in)
    out = np.zeros((ind.level_dim(k_out), ind.level_dim(k_in)), dtype=complex)
    if y.size == 0:
        return out
    if not np.isfinite(y).all():
        raise ValueError("module map has non-finite entries")
    scale = None
    for p in range(rows.size):
        for q in range(cols.size):
            if abs(y[p, q]) == 0.0:
                continue
            if rows.sources[p] != cols.sources[q]:
                if scale is None:
                    scale = max(1.0, operator_norm(y))
                if abs(y[p, q]) > 1e-12 * scale:
                    raise ValueError("matrix is not a module map: sources differ")
                continue
            out[_block(ind, k_out, p), _block(ind, k_in, q)] = \
                y[p, q] * np.eye(ind.block_sizes[k_out][p])
    return out


def ref_fock_tensor_identity(ind, mat):
    out = np.zeros((ind.dim, ind.dim), dtype=complex)
    for i in range(ind.levels + 1):
        for j in range(ind.levels + 1):
            blk = mat[ind.fock.level_slice(i), ind.fock.level_slice(j)]
            if blk.any():
                out[ind.level_slice(i), ind.level_slice(j)] = \
                    ref_level_tensor_identity(ind, blk, i, j)
    return out


def ref_weighted_creation(space, ws, xi):
    """W_xi as the product of the whole matrices D_k and T_xi, as before the blocks."""
    k, g = xi.level, space.graph
    t = np.zeros((space.dim, space.dim), dtype=complex)
    for j in range(space.levels + 1 - k):
        t[space.level_slice(j + k), space.level_slice(j)] = \
            left_action(g, xi.coeffs, j) if k == 0 else insertion_matrix(g, xi, j)
    if k == 0:
        return t
    d = np.zeros((space.dim, space.dim), dtype=complex)
    for i in range(k, space.levels + 1):
        d[space.level_slice(i), space.level_slice(i)] = ws.z_between(i, i - k)
    return d @ t


def _split_levels(fock, mat):
    """The dense Fock matrix ``mat`` as a FockOperator with every level block."""
    return FockOperator(fock, {(i, j): mat[fock.level_slice(i), fock.level_slice(j)]
                               for i in range(fock.levels + 1) for j in range(fock.levels + 1)})


def ref_check_band(space, matrix, degree):
    if not np.isfinite(matrix).all():
        raise ValueError(f"degree-{degree} operator has non-finite entries")
    tol = None
    for j in range(space.levels + 1):
        for i in range(space.levels + 1):
            if i - j == degree:
                continue
            block = matrix[space.level_slice(i), space.level_slice(j)]
            if not block.any():
                continue
            if tol is None:
                tol = 1e-13 * max(1.0, operator_norm(matrix))
            if operator_norm(block) > tol:
                raise ValueError(f"degree-{degree} operator has mass at block ({i},{j})")


def ref_dual_left_level(ind, a, k):
    basis = path_basis(ind.graph, k)
    out = np.zeros((ind.level_dim(k), ind.level_dim(k)), dtype=complex)
    for p in range(basis.size):
        v = basis.sources[p]
        out[_block(ind, k, p), _block(ind, k, p)] = a[ind.rep.block(v), ind.rep.block(v)]
    return out


def ref_dual_left(ind, a):
    out = np.zeros((ind.dim, ind.dim), dtype=complex)
    for k in range(ind.levels + 1):
        out[ind.level_slice(k), ind.level_slice(k)] = ref_dual_left_level(ind, a, k)
    return out


def ref_sigma_level(ind, a, k):
    basis = path_basis(ind.graph, k)
    out = np.zeros((ind.level_dim(k), ind.level_dim(k)), dtype=complex)
    for p in range(basis.size):
        out[_block(ind, k, p), _block(ind, k, p)] = \
            a[basis.ranges[p]] * np.eye(ind.block_sizes[k][p])
    return out


def ref_insertion_map(ind, xi):
    k = xi.level
    basis = path_basis(ind.graph, k)
    out = np.zeros((ind.level_dim(k), ind.h_dim), dtype=complex)
    for p in range(basis.size):
        if xi.coeffs[p] != 0:
            out[_block(ind, k, p), ind.rep.block(basis.sources[p])] = \
                xi.coeffs[p] * np.eye(ind.block_sizes[k][p])
    return out


def ref_basis_inserter(ind, k, p):
    out = np.zeros((ind.dim, ind.h_dim), dtype=complex)
    base = ind.level_offsets[k] + ind.block_offsets[k][p]
    v = path_basis(ind.graph, k).sources[p]
    out[base:base + ind.block_sizes[k][p], ind.rep.block(v)] = np.eye(ind.block_sizes[k][p])
    return out


def ref_suffix_insert(ind, t, k, j):
    if j == 0:
        return t
    rows = path_basis(ind.graph, j + k)
    out = np.zeros((ind.level_dim(j + k), ind.level_dim(j)), dtype=complex)
    pre_index = path_basis(ind.graph, j).index_map()
    suf = path_basis(ind.graph, k)
    suf_index = suf.index_map()
    for w, wpath in enumerate(rows.paths):
        p, q = pre_index[wpath[:j]], suf_index[wpath[j:]]
        out[_block(ind, j + k, w), _block(ind, j, p)] = \
            t[_block(ind, k, q), ind.rep.block(suf.ranges[q])]
    return out


def ref_lower_by_point(ind, z, j):
    rows, cols = path_basis(ind.graph, j - 1), path_basis(ind.graph, j)
    out = np.zeros((ind.level_dim(j - 1), ind.level_dim(j)), dtype=complex)
    row_index = rows.index_map()
    for w, wpath in enumerate(cols.paths):
        p = cols.ranges[w] if j == 1 else row_index[wpath[:-1]]
        e = wpath[-1]
        out[_block(ind, j - 1, p), _block(ind, j, w)] = \
            z[ind.rep.block(ind.graph.range_(e)), _block(ind, 1, e)]
    return out


def _tuple_index(s, k):
    return {t: n for n, t in enumerate(dual_tuples(s, k))}


def ref_dual_embed_suffix(s, m, a, k):
    """I'_a (x) B' for B' on the last k - a dual legs (a >= 1)."""
    tuples, idx_suf = dual_tuples(s, k), _tuple_index(s, k - a)
    out = np.zeros((len(tuples), len(tuples)), dtype=complex)
    for r, (t_edges, t_row) in enumerate(tuples):
        for c, (u_edges, u_row) in enumerate(tuples):
            if u_edges[:a] == t_edges[:a] and u_row == t_row:
                out[r, c] = m[idx_suf[(t_edges[a:], 0)], idx_suf[(u_edges[a:], 0)]]
    return out


def ref_dual_embed_prefix(s, m, b, k):
    """B' (x) I'_b for B' on the first k - b dual legs (b < k)."""
    a = k - b
    tuples, idx_pre = dual_tuples(s, k), _tuple_index(s, a)
    out = np.zeros((len(tuples), len(tuples)), dtype=complex)
    for r, (t_edges, t_row) in enumerate(tuples):
        for c, (u_edges, u_row) in enumerate(tuples):
            if u_edges[a:] == t_edges[a:]:
                out[r, c] = m[idx_pre[(t_edges[:a], t_row)], idx_pre[(u_edges[:a], u_row)]]
    return out


def ref_direct_sum_embedding(ind1, ind2, ind_sum):
    emb1 = np.zeros((ind_sum.dim, ind1.dim), dtype=complex)
    emb2 = np.zeros((ind_sum.dim, ind2.dim), dtype=complex)
    for k in range(ind1.levels + 1):
        for p in range(path_basis(ind1.graph, k).size):
            m1, m2 = ind1.block_sizes[k][p], ind2.block_sizes[k][p]
            start = ind_sum.level_offsets[k] + ind_sum.block_offsets[k][p]
            c1 = ind1.level_offsets[k] + ind1.block_offsets[k][p]
            c2 = ind2.level_offsets[k] + ind2.block_offsets[k][p]
            emb1[start:start + m1, c1:c1 + m1] = np.eye(m1)
            emb2[start + m1:start + m1 + m2, c2:c2 + m2] = np.eye(m2)
    return emb1, emb2


def ref_chains(graph, start, length):
    """Edge chains (f_1..f_len) with s(f_1) = start and s(f_{j+1}) = r(f_j)."""
    if length == 0:
        return [((), start)]
    return [((f,) + chain, vtx) for f in range(graph.n_edges) if graph.source(f) == start
            for chain, vtx in ref_chains(graph, graph.range_(f), length - 1)]


def ref_tuples(s, k):
    """The level-k dual basis as (edges, row, vertex): chains lex ordered in the
    first edge, then the row, then the rest; the vertex is where the chain ends."""
    if k == 0:
        return [((), 0, -1)]
    g = s.graph
    return [((e,) + chain, i, vtx) for e in range(g.n_edges)
            for i in range(s.rep.multiplicities[g.source(e)])
            for chain, vtx in ref_chains(g, g.range_(e), k - 1)]


def ref_theta(s, k):
    if k == 0:
        return np.eye(s.rep.h_dim, dtype=complex)
    tuples = ref_tuples(s, k)
    out = np.zeros((len(tuples), s.ind.level_dim(k)), dtype=complex)
    for n, (edges, row, vtx) in enumerate(tuples):
        out[n, :] = ref_intertwiner(s, edges, row)[:, s.rep.offsets[vtx]].conj()
    return out


def ref_theta_full(s):
    blocks = [ref_theta(s, k) for k in range(s.ind.levels + 1)]
    out = np.zeros((sum(b.shape[0] for b in blocks), s.ind.dim), dtype=complex)
    r = 0
    for k, b in enumerate(blocks):
        out[r:r + b.shape[0], s.ind.level_slice(k)] = b
        r += b.shape[0]
    return out


def ref_conjugate(th, m):
    return th @ m @ th.conj().T


def ref_level_embed(ind, k):
    out = np.zeros((ind.dim, ind.level_dim(k)), dtype=complex)
    out[ind.level_slice(k), :] = np.eye(ind.level_dim(k))
    return out


def ref_assemble(ind, blocks):
    """Level blocks (level j to level i) placed by hand into a whole-space matrix: the
    reference for ``FockOperator.matrix``."""
    out = np.zeros((ind.dim, ind.dim), dtype=complex)
    for (i, j), blk in blocks.items():
        out[ind.level_slice(i), ind.level_slice(j)] = blk
    return out


def ref_placed_dual_generators(s):
    """The dual generators as hand-assembled left actions, then the level-1 creations
    placed block by block, in Theta order."""
    ind = s.ind
    out = [ref_assemble(ind, {(k, k): blk for k, blk in enumerate(
        ind.dual_left_levels(s.rep.commutant_unit(*u)))}) for u in s.rep.commutant_basis()]
    return out + [ref_rho_creation(s, intertwiner(s, edges, row), 1)
                  for edges, row in dual_tuples(s, 1)]


def ref_primal_basis_ops(ind, ws):
    """Per level k >= 1, (insertion L_{p^}, weighted creation at Z^{(k)-1} p) as whole-space
    matrices; level 0 is empty, as in the lift models."""
    space = TruncatedFock(ind.graph, ind.levels)
    out = [[]]
    for k in range(1, ind.levels + 1):
        zinv, emb = ws.z_prod_inv(k), ref_level_embed(ind, k)
        out.append([(emb @ ind.insertion_map(CorrElement.basis_vector(ind.graph, k, p)),
                     ref_fock_tensor_identity(
                         ind, weighted_creation(space, ws, CorrElement(k, zinv[:, p])).matrix))
                    for p in range(path_basis(ind.graph, k).size)])
    return out


def ref_dual_basis_ops(s):
    ind, ws = s.ind, s.ws
    out = [[]]
    for k in range(1, ind.levels + 1):
        zinv_ind = ind.level_tensor_identity(ws.z_prod_inv(k), k)
        level = []
        for edges, row in dual_tuples(s, k):
            t_mat = intertwiner(s, edges, row)
            level.append((ref_level_embed(ind, k) @ t_mat,
                          ref_rho_creation(s, zinv_ind @ t_mat, k)))
        out.append(level)
    return out


def ref_amplify(basis_ops, copies):
    eye = np.eye(copies)
    return [[(np.kron(eye, ins), np.kron(eye, wc)) for ins, wc in level] for level in basis_ops]


def _dense_insertion(model, k, e):
    """The insertion of the e-th level-k basis element, as a matrix H -> K."""
    rows, cols, elem = model.insertions[k]
    out = np.zeros((model.dim, model.prefix_idx(0).size), dtype=complex)
    out[rows[elem == e], cols[elem == e]] = 1.0
    return out


def ref_dz(ind, prod):
    """⊕_i prod(i) (x) I_H as a whole-space matrix, for the weight products ``prod``."""
    return ref_assemble(ind, {(i, i): ind.level_tensor_identity(prod(i), i)
                              for i in range(ind.levels + 1)})


def _dense_gather(dim, gather, key):
    """The 0/1 creation of ``gather`` = (keys, cols) at one key, as a whole-space matrix."""
    keys, cols = gather
    band = np.flatnonzero(keys == key)
    out = np.zeros((dim, dim), dtype=complex)
    out[dim - keys.size + band, cols[band]] = 1.0
    return out


def _dense_mix(dim, mix, e):
    """Row e of a creation mix, as a whole-space matrix of one copy."""
    rows, cols, weights = mix
    out = np.zeros((dim, dim), dtype=complex)
    np.add.at(out, (rows[e], cols[e]), weights[e])
    return out


def _close(got, want, scale=1.0):
    return np.abs(got - want).max(initial=0.0) <= 1e-13 * max(scale, np.abs(want).max(initial=1.0))


# -- the gathers against the loops ----------------------------------------------


@SETTINGS
@given(small_graphs(), st.integers(0, 4), st.data())
def test_graph_assemblies_match_the_loops(graph, k, data):
    rng = _rng(data)
    d = path_basis(graph, k).size
    xi, eta = CorrElement(k, rng_complex(rng, d)), CorrElement(k, rng_complex(rng, d))
    xi.coeffs[rng.random(d) < 0.3] = 0.0
    assert np.array_equal(inner_product(graph, xi, eta), ref_inner_product(graph, xi, eta))
    seed = int(rng.integers(2 ** 32))
    assert np.array_equal(_random_module_map(graph, k, np.random.default_rng(seed)),
                          ref_random_module_map(graph, k, np.random.default_rng(seed)))
    for j in range(4 - k):
        assert np.array_equal(insertion_matrix(graph, xi, j), ref_insertion_matrix(graph, xi, j))
    m = _module_map(rng, graph, k)
    for n in range(k, 5):
        for emb, ref in ((embed_prefix, ref_embed_prefix), (embed_suffix, ref_embed_suffix)):
            assert np.array_equal(emb(graph, m, k, n), ref(graph, m, k, n))
    for j in range(1, k + 1):
        got = factor_prefix(graph, xi, j)
        want = ref_factor_prefix(graph, xi, j)
        assert [p for p, _ in got] == [p for p, _ in want]
        assert all(np.array_equal(e.coeffs, v) for (_, e), (_, v) in zip(got, want))


@SETTINGS
@given(small_graphs(), st.integers(1, 3), st.data())
def test_induced_assemblies_match_the_loops(graph, n, data):
    rep = Representation(tuple(data.draw(multiplicities(graph), label="sigma")))
    ind = InducedSpace(graph, rep, n)
    rng = _rng(data)
    h = rep.h_dim
    model = primal_lift_model(ind, weight_system_from(
        AdmissibleSequence.from_scalar(graph, [0.5, 0.1], levels=n)))
    a_mat = _commutant_element(rng, rep)
    assert np.array_equal(ind.dual_left(a_mat).matrix, ref_dual_left(ind, a_mat))
    blocks = {}
    for i in range(n + 1):
        for j in range(n + 1):
            y = blocks[i, j] = _module_map_between(rng, graph, i, j)
            assert np.array_equal(ind.level_tensor_identity(y, i, j),
                                  ref_level_tensor_identity(ind, y, i, j))
    big = FockOperator(TruncatedFock(graph, n), blocks)
    assert np.array_equal(ind.fock_tensor_identity(big).matrix,
                          ref_fock_tensor_identity(ind, big.matrix))
    a = rng_complex(rng, graph.n_vertices)
    vertex_of_h = np.repeat(np.arange(graph.n_vertices), rep.multiplicities)
    z = np.zeros((h, ind.level_dim(1)), dtype=complex)
    for e in range(graph.n_edges):
        rows, cols = rep.block(graph.range_(e)), _block(ind, 1, e)
        z[rows, cols] = rng_complex(rng, rows.stop - rows.start, cols.stop - cols.start)
    for k in range(n + 1):
        d = path_basis(graph, k).size
        assert np.array_equal(ind.dual_left_levels(a_mat)[k], ref_dual_left_level(ind, a_mat, k))
        assert np.array_equal(ind.sigma_level(a, k), ref_sigma_level(ind, a, k))
        xi = CorrElement(k, rng_complex(rng, d))
        xi.coeffs[rng.random(d) < 0.3] = 0.0
        assert np.array_equal(ind.insertion_map(xi), ref_insertion_map(ind, xi))
        if k >= 1:  # the lift models start at level 1
            for p in range(d):
                assert np.array_equal(_dense_insertion(model, k, p), ref_basis_inserter(ind, k, p))
            assert np.array_equal(ind.lower_by_point(z, k), ref_lower_by_point(ind, z, k))
        # an intertwiner H -> level k: block v of H lands on paths with range v
        ranges = np.repeat(np.array(path_basis(graph, k).ranges, dtype=int), ind.block_sizes[k])
        t = np.where(np.equal.outer(ranges, vertex_of_h), rng_complex(rng, ind.level_dim(k), h), 0)
        for j in range(n + 1 - k if k else 0):  # the loop had no level-0 suffix
            assert np.array_equal(ind.suffix_insert(t, k, j), ref_suffix_insert(ind, t, k, j))
    vacuum = ind.insertion_map(CorrElement(0, np.ones(graph.n_vertices)))
    assert np.array_equal(model.vacuum(np.eye(ind.dim)), ref_level_embed(ind, 0) @ vacuum)
    assert np.array_equal(model.vacuum(np.eye(ind.dim)), np.eye(ind.dim, h))


@SETTINGS
@given(small_graphs(), st.integers(1, 4), st.data())
def test_dual_left_levels_is_the_per_level_gather_and_keeps_the_kernel_sums(graph, n, data):
    """Every block of the one gather is the bytes of that level's masked gather, and
    phi_value and kernel_value are the bytes of the per-level loops."""
    rep = Representation(tuple(data.draw(multiplicities(graph), label="sigma")))
    ind = InducedSpace(graph, rep, n)
    rng = _rng(data)
    a_mat = _commutant_element(rng, rep)
    blocks = ind.dual_left_levels(a_mat)
    assert len(blocks) == n + 1
    for k, blk in enumerate(blocks):
        path, h = ind._cut(k, k)
        want = _masked_gather(a_mat, h, h, path, path)
        assert blk.flags.c_contiguous and blk.shape == want.shape
        assert blk.tobytes() == want.tobytes()
    x = AdmissibleSequence.from_scalar(graph, [0.5, 0.1], levels=n)
    points = []
    for _ in range(2):  # intertwiners of norm 0.3: block (r(e), e) free, the rest zero
        z = np.zeros((rep.h_dim, ind.level_dim(1)), dtype=complex)
        for e in range(graph.n_edges):
            rows, cols = rep.block(graph.range_(e)), _block(ind, 1, e)
            z[rows, cols] = rng_complex(rng, rows.stop - rows.start, cols.stop - cols.start)
        points.append(DiscPoint(ind, x, z * (0.3 / operator_norm(z))))
    w, z = points
    phi = np.zeros((rep.h_dim, rep.h_dim), dtype=complex)
    for k, zx in z.weighted_powers.items():
        phi += zx @ ind.dual_left_levels(a_mat)[k] @ z.powers[k].conj().T
    assert z.phi_value(a_mat).tobytes() == phi.tobytes()
    kernel = np.zeros((rep.h_dim, rep.h_dim), dtype=complex)
    for k, wr in w.kernel_powers.items():
        kernel += wr @ ind.dual_left_levels(a_mat)[k] @ z.powers[k].conj().T
    assert kernel_value(w, z, a_mat).tobytes() == kernel.tobytes()


def _module_map_between(rng, graph, i, j):
    """Random entries between level-j and level-i paths of equal source."""
    rows, cols = path_basis(graph, i), path_basis(graph, j)
    keep = np.equal.outer(np.array(rows.sources, dtype=int), np.array(cols.sources, dtype=int))
    return np.where(keep, rng_complex(rng, rows.size, cols.size), 0)


@settings(max_examples=20, deadline=None)
@given(small_graphs(full=True), st.integers(1, 3), st.data())
def test_dual_assemblies_match_the_loops(graph, n, data):
    rep = Representation(tuple(data.draw(multiplicities(graph), label="sigma")))
    rep2 = Representation(tuple(data.draw(multiplicities(graph), label="sigma2")))
    ind = InducedSpace(graph, rep, n)
    ws = weight_system_from(AdmissibleSequence.from_scalar(graph, [0.5, 0.1], levels=n))
    s = DualStructure(ind, ws)
    rng = _rng(data)
    for k in range(2, n + 1):
        for a in range(1, k):
            m = rng_complex(rng, ind.level_dim(k - a), ind.level_dim(k - a))
            assert np.array_equal(embed_suffix(s, m, k - a, k), ref_dual_embed_suffix(s, m, a, k))
            m = rng_complex(rng, ind.level_dim(a), ind.level_dim(a))
            assert np.array_equal(embed_prefix(s, m, a, k), ref_dual_embed_prefix(s, m, k - a, k))
    ind2 = InducedSpace(graph, rep2, n)
    ind_sum, idx1, idx2 = direct_sum_embedding(ind, ind2)
    emb1, emb2 = np.eye(ind_sum.dim)[:, idx1], np.eye(ind_sum.dim)[:, idx2]
    ref1, ref2 = ref_direct_sum_embedding(ind, ind2, ind_sum)
    assert np.array_equal(emb1, ref1) and np.array_equal(emb2, ref2)


def _commutant_element(rng, rep):
    a = np.zeros((rep.h_dim, rep.h_dim), dtype=complex)
    for v in range(rep.n_vertices):
        blk = rep.block(v)
        a[blk, blk] = rng_complex(rng, blk.stop - blk.start, blk.stop - blk.start)
    return a


def _fock_module_map(rng, fock):
    return FockOperator(fock, {(i, j): _module_map_between(rng, fock.graph, i, j)
                               for i in range(fock.levels + 1) for j in range(fock.levels + 1)})


@settings(max_examples=20, deadline=None)
@given(small_graphs(full=True), st.integers(1, 3), st.data())
def test_dual_frames_match_the_dense_products(graph, n, data):
    rep = Representation(tuple(data.draw(multiplicities(graph), label="sigma")))
    ind = InducedSpace(graph, rep, n)
    rng = _rng(data)
    x = _random_graph_x(graph, n, rng)
    s = DualStructure(ind, weight_system_from(x))
    a = _commutant_element(rng, rep)
    for k in range(n + 1):
        assert dual_tuples(s, k) == [(edges, row) for edges, row, _ in ref_tuples(s, k)]
        for edges, row in dual_tuples(s, k):
            assert np.array_equal(intertwiner(s, edges, row), ref_intertwiner(s, edges, row))
        th = ref_theta(s, k)
        assert np.array_equal(np.eye(ind.level_dim(k))[s.theta(k)], th)
        assert np.array_equal(embed_prefix(s, a, 0, k), ref_conjugate(th, ind.dual_left_levels(a)[k]))
    dw = dual_weights(s, x)
    for k in range(1, n + 1):
        th = ref_theta(s, k)
        z_k = ind.level_tensor_identity(s.ws.c_quotient(k), k)
        assert np.array_equal(dw.Z_prime[k], ref_conjugate(th, z_k))
        assert np.array_equal(dw.X_prime[k],
                              ref_conjugate(th, ind.level_tensor_identity(x.X[k], k)))
    y = _fock_module_map(rng, ind.fock)
    assert np.array_equal(pi_sigma(s, y),
                          ref_conjugate(ref_theta_full(s), ind.fock_tensor_identity(y).matrix))


@settings(max_examples=20, deadline=None)
@given(small_graphs(full=True), st.integers(1, 3), st.data())
def test_dual_weight_system_matches_the_loops(graph, n, data):
    """A WeightSystem over the dual legs gives, bit for bit, the telescoping products
    and quotients of the per-tuple loop embeddings, and the cut(k, 0) gather is
    Theta_k (I_k (x) A) Theta_k^*."""
    rep = Representation(tuple(data.draw(multiplicities(graph), label="sigma")))
    ind = InducedSpace(graph, rep, n)
    rng = _rng(data)
    s = DualStructure(ind, weight_system_from(_random_graph_x(graph, n, rng)))
    zp = s.z_matrices()
    ws = WeightSystem(s, n, zp)
    a_mat = _commutant_element(rng, rep)
    zprod = [np.eye(rep.h_dim, dtype=complex)]
    for k in range(1, n + 1):
        path, h = (idx[s.theta(k)] for idx in ind._cut(k, k))
        phi = _masked_gather(a_mat, h, h, path, path)
        assert _same_bytes(embed_prefix(s, a_mat, 0, k), phi)
        assert np.array_equal(phi, ref_conjugate(ref_theta(s, k), ind.dual_left_levels(a_mat)[k]))
        acc = zp[k].copy()
        for a in range(1, k):
            acc = acc @ ref_dual_embed_suffix(s, zp[k - a], a, k)
        zprod.append(acc)
        assert _same_bytes(ws.z_prod(k), acc)
        prev = (_masked_gather(zprod[0], h, h, path, path) if k == 1
                else ref_dual_embed_prefix(s, zprod[k - 1], 1, k))
        assert _same_bytes(ws.c_quotient(k), acc @ np.linalg.inv(prev))


@settings(max_examples=20, deadline=None)
@given(small_graphs(full=True), st.integers(1, 3))
def test_omega_matches_the_dense_frame_product(graph, n):
    assume(graph.faithful_left_action)  # the second dual needs the reversed graph full
    ind = InducedSpace(graph, Representation((1,) * graph.n_vertices), n)
    ws = weight_system_from(AdmissibleSequence.from_scalar(graph, [0.5, 0.1], levels=n))
    omega, s1, s2, _ = omega_transport(ind, ws)
    assert np.array_equal(np.eye(ind.dim)[omega], ref_theta_full(s2) @ ref_theta_full(s1))


@SETTINGS
@given(small_graphs(), st.integers(1, 3), st.data())
def test_amplified_prefix_sets_match_the_concatenation(graph, n, data):
    ind = InducedSpace(graph, Representation(tuple(data.draw(multiplicities(graph)))), n)
    model = LiftModel(dim=ind.dim, levels=n, level=np.repeat(np.arange(n + 1), ind.level_dims),
                      copies=1, generators=[], insertions=[], z_star=[], z_inv=[], gathers=[],
                      mixes=[])
    for copies in (1, 2, 3):
        amp = model.amplify(copies)
        for m in range(n + 1):
            ref = np.concatenate([np.arange(ind.level_offsets[m + 1]) + r * ind.dim
                                  for r in range(copies)])
            assert np.array_equal(amp.prefix_idx(m), ref)


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=20, deadline=None)
@given(st.booleans().flatmap(lambda full: small_graphs(full=full)), st.integers(1, 3),
       st.sampled_from([1, 2, 3]), st.data())
def test_lift_models_match_the_dense_basis_operators(graph, n, copies, data):
    """Each lift model against the whole-space basis operators and the kron amplification
    they replaced, on non-scalar weights: the insertions, densified, byte for byte; the
    level blocks of Dz^* and Dz^{-1} as the gathers of the weight products; each 0/1
    gather, made dense and conjugated by Dz, against the weighted creation of its key (a
    path on the graph side, a Theta tuple by its coordinate on the dual side); each
    element's mix, so conjugated, against its weighted creation; and on the amplified
    model the compressions q_out^* W q_in, the vacuum gather and the per-copy generator
    products against the dense products.  The dual side is built on full graphs only."""
    rep = Representation(tuple(data.draw(multiplicities(graph), label="sigma")))
    ind = InducedSpace(graph, rep, n)
    rng = _rng(data)
    ws = weight_system_from(_random_graph_x(graph, n, rng))
    dz, dz_inv = ref_dz(ind, ws.z_prod), ref_dz(ind, ws.z_prod_inv)
    primal_keys = [[whole_space_creation(ind, ws, CorrElement.basis_vector(graph, k, q))
                    for q in range(path_basis(graph, k).size)] for k in range(n + 1)]
    sides = [(primal_lift_model(ind, ws), ref_primal_basis_ops(ind, ws), primal_keys)]
    if graph.full:
        s = DualStructure(ind, ws)
        model = dual_lift_model(s)
        ref, keys = ref_dual_basis_ops(s), [[] for _ in range(n + 1)]
        for k in range(1, n + 1):  # the tuple at coordinate theta(k)[t] is the t-th
            by_coord = np.argsort(s.theta(k))
            ref[k] = [ref[k][t] for t in by_coord]
            tuples = dual_tuples(s, k)
            keys[k] = [ref_rho_creation(s, intertwiner(s, *tuples[t]), k) for t in by_coord]
        sides.append((model, ref, keys))
    for model, ref, keys in sides:
        for runs, want in ((model.z_star, lambda i: ws.z_prod(i).conj().T),
                           (model.z_inv, ws.z_prod_inv)):
            blocks = [blk for run in runs for blk in run]
            assert len(blocks) == n + 1 and all(np.array_equal(
                blk, ind.level_tensor_identity(want(i), i)) for i, blk in enumerate(blocks))
        assert model.insertions[0][0].size == model.mixes[0][0].shape[0] == 0
        for k in range(1, n + 1):
            rows, cols, elem = model.insertions[k]
            assert np.array_equal(rows, np.arange(ind.level_offsets[k], ind.level_offsets[k + 1]))
            assert model.mixes[k][0].shape[0] == len(ref[k])
            for e, (ref_ins, ref_wc) in enumerate(ref[k]):
                ref_rows, ref_cols = np.nonzero(ref_ins)
                assert np.array_equal(rows[elem == e], ref_rows)
                assert np.array_equal(cols[elem == e], ref_cols)
                assert _close(dz @ _dense_mix(ind.dim, model.mixes[k], e) @ dz_inv, ref_wc)
            for key, want in enumerate(keys[k]):
                assert _close(dz @ _dense_gather(ind.dim, model.gathers[k], key) @ dz_inv, want)
        amp, ref = model.amplify(copies), ref_amplify(ref, copies)
        assert amp.copies == copies and amp.mixes is model.mixes and amp.z_inv is model.z_inv
        x, y = rng_complex(rng, amp.dim, 3), rng_complex(rng, 2, amp.dim)
        for gen in amp.generators:  # per copy against I_c (x) g
            dense, tol = np.kron(np.eye(copies), gen), 1e-13 * max(1.0, np.abs(gen).max())
            assert np.abs(per_copy_left(gen, x) - dense @ x).max() <= tol
            assert np.abs(per_copy_right(y, gen) - y @ dense).max() <= tol
        q_out, q_in = rng_complex(rng, amp.dim, 3), rng_complex(rng, amp.dim, 2)
        z_out, z_in = amp.levelwise(amp.z_star, q_out), amp.levelwise(amp.z_inv, q_in)
        assert _close(z_out, np.kron(np.eye(copies), dz).conj().T @ q_out)
        assert _close(z_in, np.kron(np.eye(copies), dz_inv) @ q_in)
        g = rng_complex(rng, 2, amp.dim)
        for k in range(1, n + 1):
            got = amp.compressions(z_out, z_in, amp.mixes[k])
            assert got.shape == (len(ref[k]), 3, 2)
            inserted = amp.inserted(g, k)
            for e, (beta, (ref_ins, ref_wc)) in enumerate(zip(got, ref[k], strict=True)):
                assert np.array_equal(_dense_insertion(amp, k, e), ref_ins)
                scale = np.abs(z_out).max() * np.abs(z_in).max() * amp.dim
                assert _close(beta, q_out.conj().T @ ref_wc @ q_in, scale)
                assert np.array_equal(inserted[e], g @ ref_ins)
        assert np.array_equal(amp.vacuum(g), g @ np.kron(np.eye(copies), ref_level_embed(ind, 0)))


@settings(max_examples=30, deadline=None)
@given(st.booleans().flatmap(lambda full: small_graphs(full=full)), st.integers(1, 3), st.data())
def test_lift_model_generators_match_the_definition_route(graph, n, data):
    """The generators each lift model forms from its own level data, Dz T Dz^{-1} by its
    ``compressions``, against the definition route.  Graph side: ``primal_generators``
    (the vertex units and W_e (x) I from ``weighted_creation``), byte for byte on scalar
    weights and within 1e-13 max(1, max|g|) on random non-scalar ones.  Dual side, on
    full graphs: the hand-placed left actions byte for byte, and the creations of the
    Theta_1 tuples, (C^{(j+1,1)} (x) I) (I_j (x) t) placed block by block, within the
    same bound; ``dual_generators`` names them in that order."""
    rep = Representation(tuple(data.draw(multiplicities(graph), label="sigma")))
    ind = InducedSpace(graph, rep, n)
    rng = _rng(data)
    scalar = weight_system_from(AdmissibleSequence.from_scalar(graph, [0.5, 0.1], levels=n))
    got, want = primal_lift_model(ind, scalar).generators, primal_generators(ind, scalar)
    assert len(got) == len(want) == graph.n_vertices + graph.n_edges
    assert all(_same_bytes(g, ref) for g, (_, ref) in zip(got, want))
    ws = weight_system_from(_random_graph_x(graph, n, rng))
    got, want = primal_lift_model(ind, ws).generators, primal_generators(ind, ws)
    assert all(_close(g, ref) for g, (_, ref) in zip(got, want, strict=True))
    if not graph.full:
        return
    s = DualStructure(ind, ws)
    got, want, units = dual_lift_model(s).generators, ref_placed_dual_generators(s), \
        len(rep.commutant_basis())
    assert len(got) == len(want) == units + ind.level_dim(1)
    assert all(_same_bytes(g, ref) for g, ref in zip(got[:units], want[:units]))
    assert all(_close(g, ref) for g, ref in zip(got[units:], want[units:]))
    named = s.dual_generators()
    assert [name for name, _ in named] == \
        [f"phi'({v},{i},{j})" for v, i, j in rep.commutant_basis()] + \
        [f"W'({edges[0]},{row})" for edges, row in dual_tuples(s, 1)]
    assert all(_same_bytes(g, m) for g, (_, m) in zip(got, named, strict=True))


@settings(max_examples=30, deadline=None)
@given(st.booleans().flatmap(lambda full: small_graphs(full=full)), st.integers(1, 3), st.data())
def test_induced_graded_operators_place_blocks_as_before(graph, n, data):
    """FockOperator on an InducedSpace against the block writers it replaced,
    byte for byte: the induced image of a weighted creation and of a module map
    and the dual left action against the hand-placed assembly.  A wrong-shaped or
    non-finite block is named by its level pair."""
    rep = Representation(tuple(data.draw(multiplicities(graph), label="sigma")))
    ind = InducedSpace(graph, rep, n)
    rng = _rng(data)
    ws = weight_system_from(_random_graph_x(graph, n, rng))
    k = data.draw(st.integers(0, n), label="degree")
    w = weighted_creation(ind.fock, ws, CorrElement(k, rng_complex(rng, path_basis(graph, k).size)))
    y = _fock_module_map(rng, ind.fock)
    for op in (w, y):
        image = ind.fock_tensor_identity(op)
        gathered = {ij: ind.level_tensor_identity(blk, *ij) for ij, blk in op.blocks.items()}
        assert list(image.blocks) == list(gathered)
        assert _same_bytes(image.matrix, ref_assemble(ind, gathered))
    a = _commutant_element(rng, rep)
    assert _same_bytes(ind.dual_left(a).matrix, ref_assemble(
        ind, {(j, j): blk for j, blk in enumerate(ind.dual_left_levels(a))}))
    image = ind.fock_tensor_identity(w)
    levels = [lvl for lvl in range(n + 1) if ind.level_dims[lvl]]
    i, j = data.draw(st.sampled_from(levels), label="i"), data.draw(st.sampled_from(levels), label="j")
    blocks = dict(image.blocks)
    blocks[i, j] = np.zeros((ind.level_dims[i] + 1, ind.level_dims[j]))
    with pytest.raises(ValueError, match=rf"block \({i},{j}\) has shape"):
        FockOperator(ind, blocks)
    blocks[i, j] = np.zeros((ind.level_dims[i], ind.level_dims[j]), dtype=complex)
    blocks[i, j][rng.integers(ind.level_dims[i]), rng.integers(ind.level_dims[j])] = np.nan
    with pytest.raises(ValueError, match=rf"block \({i},{j}\) has non-finite entries"):
        FockOperator(ind, blocks)


def _outcome(build):
    """The built array, or the message of the ValueError raised instead."""
    try:
        return build()
    except ValueError as exc:
        return str(exc)


def _same(a, b):
    return a == b if isinstance(a, str) or isinstance(b, str) else np.array_equal(a, b)


@SETTINGS
@given(small_graphs(), st.integers(1, 3), st.data())
def test_graded_checks_judge_like_the_block_loops(graph, n, data):
    """Several cross-source bumps at 0.5-2x their thresholds: the same verdict
    and message as the block loop.  A non-finite entry is rejected when the
    blocks are built, with its level pair named."""
    rep = Representation(tuple(data.draw(multiplicities(graph), label="sigma")))
    ind = InducedSpace(graph, rep, n)
    fock = ind.fock
    rng = _rng(data)
    mod = np.zeros((fock.dim, fock.dim), dtype=complex)
    for i in range(n + 1):
        for j in range(n + 1):
            mod[fock.level_slice(i), fock.level_slice(j)] = _module_map_between(rng, graph, i, j)
    src = np.array([v for k in range(n + 1) for v in path_basis(graph, k).sources])
    lvl = np.repeat(np.arange(n + 1), fock.level_dims)
    cross = np.argwhere(np.not_equal.outer(src, src))
    for _ in range(data.draw(st.integers(0, 3), label="bumps")):
        factor = data.draw(st.floats(0.5, 2.0), label="factor")
        if len(cross):
            r, c = cross[data.draw(st.integers(0, len(cross) - 1), label="cross entry")]
            blk = mod[fock.level_slice(lvl[r]), fock.level_slice(lvl[c])]
            mod[r, c] = factor * 1e-12 * max(1.0, operator_norm(blk))
    got = _outcome(lambda: ind.fock_tensor_identity(_split_levels(fock, mod)).matrix)
    assert _same(got, _outcome(lambda: ref_fock_tensor_identity(ind, mod)))
    if data.draw(st.booleans(), label="non-finite"):
        r, c = rng.integers(fock.dim, size=2)
        mod[r, c] = np.nan
        assert isinstance(_outcome(lambda: ref_fock_tensor_identity(ind, mod)), str)
        assert _outcome(lambda: _split_levels(fock, mod)) == \
            f"block ({lvl[r]},{lvl[c]}) has non-finite entries"


@SETTINGS
@given(small_graphs(), st.integers(1, 3), st.data())
def test_graded_operators_match_the_dense_construction(graph, n, data):
    """The block constructors against the whole-matrix ones they replaced: the
    weighted creation against the product D_k T_xi, every operator inside its
    degree band, and its induced image against the gather of the dense matrix.

    With scalar X the weights are multiples of the identity and the products
    agree at every entry.  With matrix X the block product and the product of
    the whole matrices run different BLAS kernels and may differ in the last bit.
    """
    rep = Representation(tuple(data.draw(multiplicities(graph), label="sigma")))
    ind = InducedSpace(graph, rep, n)
    space = ind.fock
    rng = _rng(data)
    scalar = data.draw(st.booleans(), label="scalar X")
    if scalar:
        xs = [data.draw(st.floats(0.2, 1.5), label="x1"),
              data.draw(st.floats(0.0, 0.3), label="x2")]
        x = AdmissibleSequence.from_scalar(graph, xs, levels=n)
    else:
        x = _random_graph_x(graph, n, rng)
    ws = weight_system_from(x)
    k = data.draw(st.integers(0, n), label="level")
    xi = CorrElement(k, rng_complex(rng, path_basis(graph, k).size))
    xi.coeffs[rng.random(xi.coeffs.size) < 0.3] = 0.0
    w = weighted_creation(space, ws, xi)
    assert w.degree == k
    ref = ref_weighted_creation(space, ws, xi)
    if scalar:
        assert np.array_equal(w.matrix, ref)
    else:
        scale = max(1.0, np.abs(ref).max(initial=0.0))
        assert np.abs(w.matrix - ref).max(initial=0.0) <= 1e-15 * scale
    ops = [w, creation(space, xi), weight_diagonal(space, ws, k),
           phi_inf(space, rng_complex(rng, graph.n_vertices))]
    for op in ops:
        ref_check_band(space, op.matrix, op.degree)
        assert np.array_equal(ind.fock_tensor_identity(op).matrix,
                              ref_fock_tensor_identity(ind, op.matrix))


@SETTINGS
@given(small_graphs(), st.data())
def test_random_graph_x_mask_matches_the_loop(graph, data):
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    x = _random_graph_x(graph, 3, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    for k in range(1, 4):
        basis = path_basis(graph, k)
        b = rng_complex(rng, basis.size, basis.size)
        for i in range(basis.size):
            for j in range(basis.size):
                if basis.sources[i] != basis.sources[j] or basis.ranges[i] != basis.ranges[j]:
                    b[i, j] = 0.0
        m = 0.2 * (0.5 ** k) * (b @ b.conj().T)
        if k == 1:
            m = m + 0.5 * np.eye(basis.size)
        assert np.array_equal(x.X[k], m)


# -- invariants on the same graphs ----------------------------------------------


@SETTINGS
@given(small_graphs(), st.integers(1, 2), st.integers(1, 2), st.data())
def test_prefix_and_suffix_legs_commute_to_the_tensor(graph, a, b, data):
    rng = _rng(data)
    ma = _module_map(rng, graph, a, keep_ranges=True)
    mb = _module_map(rng, graph, b, keep_ranges=True)
    k = a + b
    full = tensor_pair(graph, ma, a, mb, b)
    assert residual(full, embed_prefix(graph, ma, a, k) @ embed_suffix(graph, mb, b, k)) == 0.0
    assert residual(full, embed_suffix(graph, mb, b, k) @ embed_prefix(graph, ma, a, k)) < 1e-12
    xi = CorrElement(a, rng_complex(rng, path_basis(graph, a).size))
    eta = CorrElement(b, rng_complex(rng, path_basis(graph, b).size))
    lhs = full @ tensor_element(graph, xi, eta).coeffs
    rhs = tensor_element(graph, CorrElement(a, ma @ xi.coeffs), CorrElement(b, mb @ eta.coeffs))
    assert np.allclose(lhs, rhs.coeffs, atol=1e-12)


@SETTINGS
@given(small_graphs(), st.integers(0, 2), st.integers(0, 2), st.data())
def test_weighted_creation_is_multiplicative(graph, a, b, data):
    n = 4
    rng = _rng(data)
    xs = [data.draw(st.floats(0.2, 1.5), label="x1"), data.draw(st.floats(0.0, 0.3), label="x2")]
    ws = weight_system_from(AdmissibleSequence.from_scalar(graph, xs, levels=n))
    space = TruncatedFock(graph, n)
    xi = CorrElement(a, rng_complex(rng, path_basis(graph, a).size))
    eta = CorrElement(b, rng_complex(rng, path_basis(graph, b).size))
    lhs = weighted_creation(space, ws, xi).matrix @ weighted_creation(space, ws, eta).matrix
    rhs = weighted_creation(space, ws, tensor_element(graph, xi, eta)).matrix
    assert residual(lhs, rhs) < 1e-10 * max(1.0, np.abs(lhs).max())
    assert multiplicativity_residual(space, ws, xi, eta) == residual(lhs, rhs)
