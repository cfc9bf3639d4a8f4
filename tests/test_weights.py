from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import composition_r2, compositions
from wfock.duality import primal_generators
from wfock.graphs import GraphCorrespondence, path_basis
from wfock.induced import InducedSpace, Representation
from wfock.linalg import residual
from wfock.weights import (
    AdmissibleSequence,
    WeightSystem,
    admissible_from_kernel_coeffs,
    canonical_weights,
    compute_R,
    scalar_r2,
    weight_system_from,
)

FREE1 = GraphCorrespondence.free(1)
FREE2 = GraphCorrespondence.free(2)
CYCLE2 = GraphCorrespondence.cycle(2)


def test_compositions_small():
    assert compositions(3, 2).parts == ((2, 1), (1, 2)) or set(compositions(3, 2).parts) == {(1, 2), (2, 1)}
    assert compositions(4, 1).parts == ((4,),)
    assert compositions(6, 3).size == 10  # C(5, 2)


def test_compositions_sizes_binomial():
    from math import comb

    for k in range(1, 9):
        for j in range(1, k + 1):
            assert compositions(k, j).size == comb(k - 1, j - 1)


def scalar_sequence(xs, n, graph=FREE1):
    return AdmissibleSequence.from_scalar(graph, xs, levels=n)


def test_r_szego_scalar():
    x = scalar_sequence([1.0], 6)
    R = compute_R(x)
    for r in R:
        assert np.allclose(r, np.eye(r.shape[0]))


def test_r_dirichlet_values():
    x = scalar_sequence([0.5, 1 / 12], 2)
    R = compute_R(x)
    assert np.isclose(R[1][0, 0] ** 2, 0.5)
    assert np.isclose(R[2][0, 0] ** 2, 1 / 3)


def test_r_unweighted_on_graph():
    # X_1 = I, X_k = 0 gives R_k = I on the free graph with two loops
    x = scalar_sequence([1.0], 4, graph=FREE2)
    for r in compute_R(x):
        assert np.allclose(r, np.eye(r.shape[0]), atol=1e-12)


def test_r_matches_composition_enumeration():
    rng = np.random.default_rng(2)
    for graph in (FREE1, CYCLE2, FREE2):
        n = 5
        mats = [np.zeros((graph.n_vertices,) * 2, dtype=complex)]
        for k in range(1, n + 1):
            d = path_basis(graph, k).size
            basis = path_basis(graph, k)
            b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for i in range(d):
                for j in range(d):
                    if basis.sources[i] != basis.sources[j] or basis.ranges[i] != basis.ranges[j]:
                        b[i, j] = 0.0
            m = b @ b.conj().T * 0.2
            if k == 1:
                m += 0.5 * np.eye(d)
            mats.append(m)
        x = AdmissibleSequence(graph, n, mats)
        R = compute_R(x)
        for k in range(1, n + 1):
            assert residual(R[k] @ R[k], composition_r2(x, k)) < 1e-9


def test_canonical_weights_szego_is_unweighted():
    x = scalar_sequence([1.0], 5)
    ws = canonical_weights(FREE1, compute_R(x))
    for z in ws.Z:
        assert np.allclose(z, np.eye(z.shape[0]), atol=1e-12)


def test_canonical_weights_dirichlet_values():
    x = scalar_sequence([0.5, 1 / 12, 1 / 120], 2)
    ws = weight_system_from(x)
    assert np.isclose(ws.Z[1][0, 0], np.sqrt(2))
    assert np.isclose(ws.z_prod(2)[0, 0], np.sqrt(3))
    assert np.isclose((ws.z_prod(2).conj().T @ ws.z_prod(2))[0, 0], 3.0)


def test_weight_system_invariants_dirichlet():
    xs, ok, _ = admissible_from_kernel_coeffs([1 / (k + 1) for k in range(9)])
    assert ok
    x = scalar_sequence(xs, 8)
    ws = weight_system_from(x)
    res = ws.validate()
    assert max(res.values()) < 1e-10


def test_weight_system_invariants_graph():
    x = scalar_sequence([0.7, 0.1, 0.05], 4, graph=CYCLE2)
    ws = weight_system_from(x)
    assert max(ws.validate().values()) < 1e-10


def test_recursion_identity():
    # sum_j X_j (x) R_{k-j}^2 = R_k^2 against stored square roots
    from wfock.graphs import embed_prefix, embed_suffix

    x = scalar_sequence([0.5, 1 / 12, 1 / 120], 5, graph=FREE2)
    R = compute_R(x)
    g = FREE2
    for k in range(1, 6):
        acc = np.zeros((path_basis(g, k).size,) * 2, dtype=complex)
        for j in range(1, k + 1):
            if k - j == 0:
                acc += x.X[j]
            else:
                acc += embed_prefix(g, x.X[j], j, k) @ embed_suffix(g, R[k - j] @ R[k - j], k - j, k)
        assert residual(acc, R[k] @ R[k]) < 1e-10


def test_hardy_bridge():
    xs, ok, _ = admissible_from_kernel_coeffs([1.0] * 10)
    assert ok
    assert np.isclose(xs[0], 1.0)
    assert np.allclose(xs[1:], 0.0, atol=1e-14)


def test_dirichlet_bridge():
    xs, ok, _ = admissible_from_kernel_coeffs([1 / (k + 1) for k in range(10)])
    assert ok
    assert np.isclose(xs[0], 0.5)
    assert np.isclose(xs[1], 1 / 12)


def test_bergman_rejected():
    xs, ok, reason = admissible_from_kernel_coeffs([k + 1 for k in range(6)])
    assert not ok
    assert np.isclose(xs[0], 2.0)
    assert np.isclose(xs[1], -1.0)
    assert "x_2" in reason


def test_bridge_requires_unit_constant():
    with pytest.raises(ValueError):
        admissible_from_kernel_coeffs([2.0, 1.0])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=0.05, max_value=2.0), min_size=1, max_size=12))
def test_bridge_round_trip(a_tail):
    a = [1.0] + a_tail
    xs, _, _ = admissible_from_kernel_coeffs(a)
    back = scalar_r2(xs, len(a) - 1)
    assert np.allclose(back, a, atol=1e-10)


def test_round_trip_through_matrices():
    a = [1 / (k + 1) for k in range(12)]
    xs, ok, _ = admissible_from_kernel_coeffs(a)
    assert ok
    x = scalar_sequence(xs, 11)
    R = compute_R(x)
    for k in range(12):
        assert np.isclose(R[k][0, 0] ** 2, a[k], atol=1e-10)


def test_admissibility_validation_rejects():
    with pytest.raises(ValueError):
        scalar_sequence([0.0, 1.0], 2)  # X_1 not invertible
    bad = [np.zeros((1, 1)), np.eye(1), -np.eye(1)]
    with pytest.raises(ValueError):
        AdmissibleSequence(FREE1, 2, bad)  # X_2 negative


def test_z_between_inverts_each_pair_once(monkeypatch):
    """Z^{(k,j)} is memoized: the weighted creations of all primal generators invert each
    (k, j) at most once."""
    ws = weight_system_from(scalar_sequence([0.5, 1 / 12], 4, FREE2))
    counts, current = Counter(), []
    inv, z_between = np.linalg.inv, WeightSystem.z_between

    def counting_inv(a):
        if current:
            counts[current[-1]] += 1
        return inv(a)

    def tracked(self, k, j):
        current.append((k, j))
        try:
            return z_between(self, k, j)
        finally:
            current.pop()

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    monkeypatch.setattr(WeightSystem, "z_between", tracked)
    primal_generators(InducedSpace(FREE2, Representation((1,)), 4), ws)
    assert counts and max(counts.values()) == 1, counts
