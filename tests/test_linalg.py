import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from wfock.linalg import operator_norm

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
