"""Which arithmetic the hot path may take off numpy without moving a logged byte.

Elementwise + - * / and negation are exact IEEE operations: each result is
the correctly rounded value, so Python floats give numpy's bits, signed
zeros included, and the hot path does that arithmetic on floats.  Products
are not: numpy's small dot products run in the BLAS kernel (on OpenBLAS a
chain of fused multiply-adds), which a Python-float sum a0*b0 + a1*b1 rounds
differently from, so every product stays ndarray.dot (chosen over @ for the call
overhead alone; the log's bytes rest on the two giving the same bits).  So
does the arm's 2x2 solve, which calls np.linalg.solve's gufunc directly.

The one difference: with one entry, ndarray.dot returns the product itself
and @ adds it to 0.0, so an exact zero can come out as -0.0 from the first
and 0.0 from the second.  Every 1-axis product in run() feeds a comparison
or a sum with a term that is never -0.0, so that sign cannot reach the log.

summarize takes its per-row products over a whole log at once with stacked
matmul, which must give each row's ndarray.dot bits; so must a batched
controller.  The arm computes its model on Python floats with math.sin and
math.cos, which must give np.sin's and np.cos's bits.  summarize sums the
damper's and the injection's terms with np.add.accumulate, which must give a
loop of += its bits: a reduction such as np.sum may add pairwise instead."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pfltank.robot_dynamics import PlanarArm, solve1
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


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(lengths=st.tuples(st.floats(0.05, 5.0), st.floats(0.05, 5.0)),
       masses=st.tuples(st.floats(0.01, 100.0), st.floats(0.01, 100.0)),
       q=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
       rhs=arrays(np.float64, 2, elements=ENTRIES))
def test_solve_gufunc_equals_linalg_solve_bitwise(lengths, masses, q, rhs):
    # the arm's mass matrix: symmetric positive definite, its conditioning
    # set by the link lengths and masses and by the elbow angle
    mass = PlanarArm(*lengths, *masses).mass_matrix(q)
    assert solve1(mass, rhs).tobytes() == np.linalg.solve(mass, rhs).tobytes()
    assert solve1(mass, rhs.tolist()).tobytes() == np.linalg.solve(mass, rhs).tobytes()


# signed zeros, subnormals, the largest finite magnitudes and anything between
EDGES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308),
    st.floats(min_value=1e307, max_value=1.7976931348623157e308),
    st.floats(min_value=-1.7976931348623157e308, max_value=-1e307),
    st.floats(allow_nan=False, allow_infinity=False, width=64))


def _same_floats(got: list, want: np.ndarray) -> bool:
    # an overflow can meet its negation (inf - inf); a NaN is written 'nan'
    # whatever its sign and payload, so only its being NaN must agree
    want = want.tolist()
    return all(a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
               or math.isnan(a) and math.isnan(b) for a, b in zip(got, want))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(m=st.integers(min_value=1, max_value=3), data=st.data())
def test_float_elementwise_forms_equal_numpys_bitwise(m, data):
    a, b, c, d, e = (data.draw(arrays(np.float64, m, elements=EDGES)) for _ in range(5))
    s = data.draw(EDGES)
    fa, fb, fc, fd, fe = a.tolist(), b.tolist(), c.tolist(), d.tolist(), e.tolist()
    with np.errstate(all="ignore"):
        # the negated PD force
        assert _same_floats([-(kp * (t - x) - kd * v) for kp, kd, t, x, v
                             in zip(fa, fb, fc, fd, fe)], -(a * (c - d) - b * e))
        # the trapezoidal velocity and the command f_c + b xd
        assert _same_floats([0.5 * (x + y) for x, y in zip(fa, fb)], 0.5 * (a + b))
        assert _same_floats([x + s * y for x, y in zip(fa, fb)], a + s * b)
        # the scaled force, and the arm's right-hand side
        assert _same_floats([s * x for x in fa], s * a)
        assert _same_floats([x + y + z - w - y for x, y, z, w in zip(fa, fb, fc, fd)],
                            a + b + c - d - b)
        assert _same_floats([x - y for x, y in zip(fa, fb)], a - b)
        assert _same_floats([-x for x in fa], -a)
        assert _same_floats([x / y for x, y in zip(fa, fb) if y != 0.0], a[b != 0] / b[b != 0])


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(terms=arrays(np.float64, st.tuples(st.integers(min_value=0, max_value=40), st.just(2)),
                    elements=EDGES))
def test_add_accumulate_equals_a_plus_equals_loop_bitwise(terms):
    # as summarize lays them out: a row of zeros, then one row of the two
    # terms per armed interval, summed down each column
    with np.errstate(all="ignore"):
        got = np.add.accumulate(np.vstack([np.zeros((1, 2)), terms]))[-1]
    damper = injection = 0.0
    for d, i in terms.tolist():
        damper += d
        injection += i
    assert _same_floats([damper, injection], got)
