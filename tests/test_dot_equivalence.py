"""The hot path computes its small products with ndarray.dot instead of @,
for the call overhead alone; the tick log's bytes rest on the two giving
the same bits.  A Python-float sum would not (it rounds differently from
the BLAS kernel), so the package never uses one for a dot product.

The one difference: with one entry, ndarray.dot returns the product itself
and @ adds it to 0.0, so an exact zero can come out as -0.0 from the first
and 0.0 from the second.  Every 1-axis product in run() feeds a comparison
or a sum with a term that is never -0.0, so that sign cannot reach the log.

summarize takes its per-row products over a whole log at once with stacked
matmul, which must give each row's ndarray.dot bits; so must a batched
controller.  The arm computes its model on Python floats with math.sin and
math.cos, which must give np.sin's and np.cos's bits."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pfltank.sim_harness import _row_dot

# magnitudes that keep every product and sum finite, so no NaN sign can differ
ENTRIES = st.floats(min_value=-1e100, max_value=1e100, allow_nan=False, width=64)


def _same_bits(got, want, m):
    got, want = np.asarray(got), np.asarray(want)
    if m == 1:
        # adding 0.0 folds -0.0 into 0.0 and changes no other value
        got, want = got + 0.0, want + 0.0
    return got.tobytes() == want.tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(m=st.integers(min_value=1, max_value=3), data=st.data())
def test_ndarray_dot_equals_matmul_bitwise(m, data):
    a = data.draw(arrays(np.float64, m, elements=ENTRIES))
    b = data.draw(arrays(np.float64, m, elements=ENTRIES))
    mat = data.draw(arrays(np.float64, (m, m), elements=ENTRIES))
    assert _same_bits(a.dot(b), a @ b, m)  # vector . vector
    assert _same_bits(mat.dot(a), mat @ a, m)  # matrix . vector
    assert _same_bits(mat.T.dot(a), mat.T @ a, m)  # transposed view, as the arm's J^T
    assert _same_bits(a.dot(mat), a @ mat, m)  # vector . matrix
    assert _same_bits(a.dot(mat).dot(b), a @ mat @ b, m)  # the kinetic-energy form


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(m=st.integers(min_value=1, max_value=3), n=st.integers(min_value=1, max_value=8),
       data=st.data())
def test_stacked_matmul_equals_per_row_dot_bitwise(m, n, data):
    a = data.draw(arrays(np.float64, (n, m), elements=ENTRIES))
    b = data.draw(arrays(np.float64, (n, m), elements=ENTRIES))
    mats = data.draw(arrays(np.float64, (n, m, m), elements=ENTRIES))
    # vector . vector, as summarize takes it
    assert _same_bits(_row_dot(a, b), [a[i].dot(b[i]) for i in range(n)], m)
    # matrix . vector, (n, m, m) @ (n, m, 1)
    assert _same_bits((mats @ a[:, :, None]).reshape(n, m),
                      [mats[i].dot(a[i]) for i in range(n)], m)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_math_trig_equals_numpy_trig_bitwise(x):
    for on_float, on_numpy in ((math.sin, np.sin), (math.cos, np.cos)):
        assert np.float64(on_float(x)).tobytes() == on_numpy(np.float64(x)).tobytes()
