"""Sums over the levels of X run on its support, the levels k >= 1 with X_k != 0.

Dropping a zero level drops an exact zero from each sum, so R, the point
transform, the kernel and its tail bound are compared bit for bit with the
sums over every level in ``oracles``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graph_strategies import multiplicities, small_graphs
from oracles import all_levels_kernel, all_levels_phi, all_levels_r, all_levels_tail_bound
from wfock.acceptance import _random_graph_x
from wfock.fock import TruncatedFock, sums_to_projection_check
from wfock.graphs import GraphCorrespondence, path_basis
from wfock.induced import InducedSpace, Representation
from wfock.interpolation import DiscPoint, _neumann_partial_sum, kernel_tail_bound, kernel_value
from wfock.linalg import operator_norm, rng_complex
from wfock.weights import AdmissibleSequence, weight_system_from

PATTERNS = ({1}, {1, 3}, {1, 2, 5})


def _gapped_x(graph, n, pattern, rng):
    """A random admissible X (``acceptance._random_graph_x``) with X_k = 0 off ``pattern``."""
    dense = _random_graph_x(graph, n, rng)
    mats = [xk if k == 0 or k in pattern else np.zeros_like(xk) for k, xk in enumerate(dense.X)]
    return AdmissibleSequence(graph, n, mats)


def _point(ind, x, rng, norm):
    """A random intertwiner of the given norm: block (r(e), e) free, the rest zero."""
    z = np.zeros((ind.rep.h_dim, ind.level_dim(1)), dtype=complex)
    offs = ind.block_offsets[1]
    for e in range(ind.graph.n_edges):
        rows, cols = ind.rep.block(ind.graph.range_(e)), slice(offs[e], offs[e + 1])
        z[rows, cols] = rng_complex(rng, rows.stop - rows.start, cols.stop - cols.start)
    return DiscPoint(ind, x, z * (norm / operator_norm(z)))


@settings(max_examples=40, deadline=None)
@given(small_graphs(), st.data())
def test_support_sums_are_bit_equal_to_the_sums_over_every_level(graph, data):
    # N up to 6, where the top level holds at most 32 paths
    n = data.draw(st.sampled_from([k for k in range(1, 7) if path_basis(graph, k).size <= 32]),
                  label="N")
    pattern = data.draw(st.sampled_from(PATTERNS) | st.sets(st.integers(2, 6)).map({1}.union),
                        label="pattern")
    rep = Representation(tuple(data.draw(multiplicities(graph), label="sigma")))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    x = _gapped_x(graph, n, pattern, rng)
    assert x.support == tuple(k for k in sorted(pattern) if k <= n and x.X[k].size)
    r = all_levels_r(x)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(x.R, r, strict=True))
    ind = InducedSpace(graph, rep, n)
    w, z = _point(ind, x, rng, 0.3), _point(ind, x, rng, 0.25)
    assert list(z.weighted_powers) == list(x.support)
    a = np.zeros((rep.h_dim, rep.h_dim), dtype=complex)
    for v in range(rep.n_vertices):
        blk = rep.block(v)
        a[blk, blk] = rng_complex(rng, blk.stop - blk.start, blk.stop - blk.start)
    full = ind.dual_left_levels(a)
    some = data.draw(st.lists(st.integers(0, n), unique=True), label="levels")
    assert [b.tobytes() for b in ind.dual_left_levels(a, some)] == [full[k].tobytes() for k in some]
    for arg in (np.eye(rep.h_dim), a):
        assert z.phi_value(arg).tobytes() == all_levels_phi(z, arg).tobytes()
        assert kernel_value(w, z, arg).tobytes() == all_levels_kernel(w, z, arg, r).tobytes()
    for p in (w, z):
        assert (p.phi_norm, kernel_tail_bound(p)) == all_levels_tail_bound(p, r)


@pytest.mark.parametrize("xs", [[1.0], [0.5, 0.0, 0.25]], ids=["szego", "gapped"])
def test_the_neumann_tail_gathers_one_block_per_support_level_and_power(monkeypatch, xs):
    n = 40
    free1 = GraphCorrespondence.free(1)
    x = AdmissibleSequence.from_scalar(free1, xs, levels=n)
    ind = InducedSpace(free1, Representation((1,)), n)
    gathers, blocks = [], []
    tensor, left = ind.level_tensor_identity, ind.dual_left_levels
    monkeypatch.setattr(ind, "level_tensor_identity",
                        lambda m, *ij: gathers.append(ij) or tensor(m, *ij))
    monkeypatch.setattr(ind, "dual_left_levels",
                        lambda a, levels=None: blocks.extend(left(a, levels)) or left(a, levels))
    z = DiscPoint.scalar(ind, x, 0.6)
    assert len(gathers) == len(x.support) + n + 1  # X_k (x) I on the support, R_k^2 (x) I on all
    blocks.clear()
    _neumann_partial_sum(z, np.eye(1))
    assert len(blocks) == n * len(x.support)
    blocks.clear()
    kernel_tail_bound(z)
    assert len(blocks) == n * len(x.support) + n + 1  # and kernel_value reads every level


def test_validation_checks_only_the_support():
    """A zero level passes the Hermitian, PSD and commutator checks, so they read the
    support; the shape check still reads every level."""
    cycle = GraphCorrespondence.cycle(2)
    x = AdmissibleSequence.from_scalar(cycle, [0.5, 0.0, 0.25], levels=4)
    assert x.support == (1, 3)
    bad = [m.copy() for m in x.X]
    bad[2] = np.zeros((3, 3), dtype=complex)
    with pytest.raises(ValueError, match=r"X_2 has shape \(3, 3\), expected \(2, 2\)"):
        AdmissibleSequence(cycle, 4, bad)
    bad[2] = np.zeros((2, 2), dtype=complex)
    bad[3] = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="X_3 is not Hermitian"):
        AdmissibleSequence(cycle, 4, bad)


def test_sums_to_projection_reads_the_support(monkeypatch):
    import wfock.fock as fock

    free2 = GraphCorrespondence.free(2)
    x = AdmissibleSequence.from_scalar(free2, [0.5, 0.0, 0.25], levels=4)
    roots = []
    sqrt = fock.psd_sqrt
    monkeypatch.setattr(fock, "psd_sqrt", lambda m: roots.append(m.shape) or sqrt(m))
    assert sums_to_projection_check(TruncatedFock(free2, 4), x, weight_system_from(x)) < 1e-10
    assert roots == [(2, 2), (8, 8)]
