import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from wfock.linalg import operator_norm, orth_columns, pinv

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
shapes = st.tuples(st.integers(0, 6), st.integers(0, 6))


def _old_operator_norm(a) -> float:
    """operator_norm as it was: the 2-norm through np.linalg.norm."""
    a = np.asarray(a, dtype=complex)
    return 0.0 if a.size == 0 else float(np.linalg.norm(a, 2))


@st.composite
def matrices(draw):
    shape = draw(shapes, label="shape")
    re = draw(arrays(float, shape, elements=finite), label="re")
    if draw(st.booleans(), label="complex"):
        return re + 1j * draw(arrays(float, shape, elements=finite), label="im")
    return re


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_operator_norm_is_bit_identical_to_the_numpy_2_norm(a):
    assert operator_norm(a).hex() == _old_operator_norm(a).hex()


@given(shapes, st.booleans())
def test_operator_norm_of_zero_takes_no_svd(shape, complex_):
    calls = []
    svd = np.linalg.svd
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a) or svd(*a, **k))
        value = operator_norm(np.zeros(shape, dtype=complex if complex_ else float))
        assert calls == []
        if 0 not in shape:
            operator_norm(np.ones(shape))  # the patch does see the SVD of a nonzero matrix
            assert len(calls) == 1
    assert value.hex() == (0.0).hex()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 80), st.integers(1, 80), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_operator_norm_is_bit_identical_on_larger_random_matrices(rows, cols, complex_, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, cols))
    if complex_:
        a = a + 1j * rng.standard_normal((rows, cols))
    assert operator_norm(a).hex() == _old_operator_norm(a).hex()


def _gapped(rng, rows, cols, rank, complex_):
    """U diag(s) V^* of the given rank with s in [0.5, 2]: a clear gap below the kept
    singular values, and the dropped ones at roundoff."""
    def frame(n):
        a = rng.standard_normal((n, rank))
        return np.linalg.qr(a + 1j * rng.standard_normal((n, rank)) if complex_ else a)[0]
    return (frame(rows) * rng.uniform(0.5, 2.0, rank)) @ frame(cols).conj().T


@pytest.mark.parametrize("rows, cols", [(9, 5), (5, 9), (7, 7)], ids=["tall", "wide", "square"])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("deficient", [False, True], ids=["full-rank", "rank-deficient"])
def test_nan_factors_from_lapack_fall_back_to_the_hermitian_dilation(monkeypatch, rows, cols,
                                                                     complex_, deficient):
    # gesdd can return NaN factors for a finite input without raising; pinv and
    # orth_columns then factor [[0, A], [A^*, 0]] with eigh
    rng = np.random.default_rng([rows, cols, complex_, deficient])
    a = _gapped(rng, rows, cols, min(rows, cols) - 2 if deficient else min(rows, cols), complex_)
    want_pinv, want_frame = pinv(a), orth_columns(a)
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: tuple(
        np.full_like(f, np.nan) for f in svd(*args, **kwargs)))
    monkeypatch.setattr(np.linalg, "pinv", lambda a, *args, **kwargs: np.full(
        a.shape[::-1], np.nan, dtype=complex))
    got_pinv, got_frame = pinv(a), orth_columns(a)
    monkeypatch.undo()
    assert np.linalg.norm(got_pinv - want_pinv, 2) <= 1e-12 * np.linalg.norm(want_pinv, 2)
    assert got_frame.shape == want_frame.shape
    # the frame is unique up to a unitary on the columns: compare the projectors
    got_p, want_p = got_frame @ got_frame.conj().T, want_frame @ want_frame.conj().T
    assert np.linalg.norm(got_p - want_p, 2) <= 1e-12
    assert np.linalg.norm(got_frame.conj().T @ got_frame - np.eye(got_frame.shape[1]), 2) <= 1e-12
