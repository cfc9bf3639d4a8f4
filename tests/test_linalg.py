import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import wfock.linalg
from wfock.linalg import max_operator_norm, operator_norm, orth_columns, pinv, rng_complex

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


@st.composite
def matrix_lists(draw):
    """1-5 matrices whose norms spread over decades, repeat exactly (copies with rows
    permuted or negated), or vanish."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    mats = []
    for kind in draw(st.lists(st.sampled_from(["spread", "equal", "zero"]), min_size=1,
                              max_size=5), label="kinds"):
        shape = (draw(st.integers(1, 6), label="rows"), draw(st.integers(1, 6), label="cols"))
        if kind == "spread":
            mats.append(rng_complex(rng, *shape) * 10.0 ** draw(st.integers(-8, 8), label="e"))
        elif kind == "equal" and mats:
            mats.append(-rng.permutation(mats[draw(st.integers(0, len(mats) - 1))]))
        else:
            mats.append(np.zeros(shape, dtype=complex))
    return mats


@settings(max_examples=200, deadline=None)
@given(matrix_lists())
def test_max_operator_norm_is_the_plain_max_and_prunes_by_the_frobenius_norm(mats):
    plain = max(operator_norm(m) for m in mats)
    seen = []

    def recording(m):
        value = operator_norm(m)
        seen.append((float(np.linalg.norm(m)), value))
        return value

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wfock.linalg, "operator_norm", recording)
        assert max_operator_norm(mats).hex() == plain.hex()
    best = 0.0
    for fro, value in seen:  # no candidate the running maximum already rules out
        assert fro >= best * (1.0 - 1e-12)
        best = max(best, value)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_max_operator_norm_of_a_non_finite_matrix_is_the_plain_max(bad):
    rng = np.random.default_rng(5)
    mats = [rng_complex(rng, 3, 3), rng_complex(rng, 3, 3), rng_complex(rng, 3, 3)]
    mats[1][0, 2] = bad
    try:
        plain = max(operator_norm(m) for m in mats)
    except np.linalg.LinAlgError as exc:
        with pytest.raises(np.linalg.LinAlgError, match=str(exc)):
            max_operator_norm(mats)
    else:  # gesdd returns NaN singular values for an inf entry
        assert max_operator_norm(mats).hex() == plain.hex()


def test_max_operator_norm_of_nothing_raises_as_max_does():
    with pytest.raises(ValueError, match="empty"):
        max(operator_norm(m) for m in [])
    with pytest.raises(ValueError, match="empty"):
        max_operator_norm([])


def test_max_operator_norm_does_not_trust_an_underflowed_frobenius_norm():
    # the squares of 1e-162 round to 0, so ||a||_F reads 0 while ||a|| = 6e-162
    a, b = np.full((6, 6), 1e-162, dtype=complex), np.array([[3e-162]], dtype=complex)
    assert np.linalg.norm(a) < operator_norm(b) < operator_norm(a)
    assert max_operator_norm([a, b]).hex() == operator_norm(a).hex()


def test_max_operator_norm_widens_its_margin_with_the_matrix_size(monkeypatch):
    # 5e-12 below the running max in Frobenius norm, a 2 x 2 matrix is ruled out, but a
    # 100 x 100 one is not: its margin is 4 m.size eps = 8.9e-12
    rng = np.random.default_rng(3)
    big, small = rng_complex(rng, 100, 100), rng_complex(rng, 2, 2)
    big *= (1 - 5e-12) / np.linalg.norm(big)
    small *= (1 - 5e-12) / np.linalg.norm(small)
    seen = []
    monkeypatch.setattr(wfock.linalg, "operator_norm", lambda m: seen.append(m.shape) or
                        operator_norm(m))
    assert max_operator_norm([small, np.eye(1), big]) == 1.0
    assert seen == [(1, 1), (100, 100)]
