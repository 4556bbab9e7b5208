"""Simulated force-driven plants: a constant-inertia Cartesian point mass
and a planar two-link arm.

Both plants integrate with fixed-step semi-implicit Euler (velocity first,
pose with the new velocity).  Energy drifts second order in the step size for
the constant-inertia point mass but first order for the arm, whose inertia
varies with q.  The port seen by a controller is Cartesian: a commanded
wrench plus an external wrench in, a pose/twist snapshot out.  The commanded
wrench enters with a minus sign, i.e. the plant advances

    Lambda xdd + S xd = -f_c + f_e

so that tank bookkeeping and plant work use one sign convention.  The arm's
gravity compensation cancels its gravity, so the Cartesian port behaves like
a gravity-free model.

Numpy versus floats: products (ndarray.dot) and the arm's solve run in numpy,
whose rounding the logged bytes rest on; elementwise + - * / and negation run
on Python floats, which round alike at a fraction of the cost, except where
the result is only a product's operand (the Cartesian f_e - f_c) and stays an
array.  The arm forms only the products its bits rest on (no J^T f_e of an
all-zero f_e), folds -f_c's sign into its float right-hand side, and builds
its next model as views of one float array made from floats.  It converts
joint values to floats once, where they enter (the constructor and the model
methods), and its step keeps q, qd and the gravity torque as float pairs, so
no joint value goes from floats to an array and back per step; qd's view in
the model array serves the products.  A zero net wrench keeps
the Cartesian velocity and energy: v + tau (+-0.0) is v unless v is -0.0, which
x + y is only when both x and y are, so only a -0.0 in xdot0 can bring one.
No step holds a comprehension, whose frame (inlined only from Python 3.12) costs
about one ndarray.dot: the arm writes its two joints out, the Cartesian plant loops.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

import numpy as np
from numpy.linalg._umath_linalg import solve1  # np.linalg.solve's kernel, without its checks

from .errors import DomainError, IntegrationFault, _real, _reals

__all__ = [
    "PlantState",
    "WrenchInput",
    "CartesianPlant",
    "PlanarArm",
]

#: Gravitational acceleration on the arm, m/s^2.
GRAVITY = 9.81


# PlantState and WrenchInput, built every cycle, are named tuples: as immutable
# as a frozen dataclass, at a fraction of the cost to build.  Only the plants
# build a PlantState, by _snapshot; callers build a WrenchInput to step a plant,
# so it keeps a checking __new__.

class PlantState(NamedTuple):
    """Immutable snapshot of a plant: pose, twist, true kinetic energy.

    A plant builds it by _snapshot from arrays it keeps no reference to, so
    its arrays are its own.
    """

    x: np.ndarray
    xdot: np.ndarray
    kinetic_energy_truth: float


def _snapshot(x: np.ndarray, xdot: np.ndarray, energy: float, stepped=False) -> PlantState:
    """A PlantState owning float arrays x and xdot; a step's energy must be finite."""
    if stepped and not math.isfinite(energy):
        raise IntegrationFault(f"non-finite kinetic energy {energy!r}")
    if energy < 0:
        raise DomainError("kinetic energy cannot be negative")
    return tuple.__new__(PlantState, (x, xdot, energy))


def _check_initial_energy(plant, name: str):
    """Refuse an initial twist, the argument name, whose kinetic energy is not
    finite, so that every state a plant reports has a finite energy."""
    with np.errstate(over="ignore", invalid="ignore"):  # the inf or NaN is the finding
        energy = plant.state().kinetic_energy_truth
    if not math.isfinite(energy):
        raise DomainError(f"{name} must give a finite kinetic energy, got {energy!r}")


class _WrenchFields(NamedTuple):
    f_c: np.ndarray
    f_e: np.ndarray


class WrenchInput(_WrenchFields):
    """One control interval's wrenches: commanded f_c and external f_e."""

    __slots__ = ()

    def __new__(cls, f_c, f_e):
        f_c, f_e = np.array(_reals(f_c, "f_c")), np.array(_reals(f_e, "f_e"))
        if f_c.shape != f_e.shape:
            raise DomainError(f"wrench shapes differ: {f_c.shape} vs {f_e.shape}")
        return tuple.__new__(cls, (f_c, f_e))


class CartesianPlant:
    """Point mass with constant symmetric positive-definite inertia Lambda."""

    def __init__(self, inertia, x0, xdot0):
        try:
            rows = list(inertia)
        except TypeError:
            rows = None
        if not rows or isinstance(inertia, str):
            raise DomainError("inertia must be a non-empty sequence of rows, "
                              f"got a {type(inertia).__name__}")
        if len(rows) == 1 and isinstance(rows[0], numbers.Real):
            rows = [rows]  # a flat inertia such as (2.0,) is a 1 x 1 matrix
        self.m = m = len(rows)
        lam = np.array([_reals(row, f"inertia[{i}]", m) for i, row in enumerate(rows)])
        if np.max(np.abs(lam - lam.T)) > 1e-12 * max(np.max(np.abs(lam)), 1.0):
            raise DomainError("inertia must be symmetric")
        try:
            np.linalg.cholesky(lam)
        except np.linalg.LinAlgError:
            raise DomainError("inertia must be positive definite") from None
        self.inertia = lam
        self._lam_inv = np.linalg.inv(lam)
        if not np.all(np.isfinite(self._lam_inv)):  # e.g. [[1e-310]], whose inverse is inf
            raise DomainError("inertia must have a finite inverse")
        # pose and twist as the Python floats step computes them; every reading
        # builds arrays of its own from them
        self._x, self._xdot = list(_reals(x0, "x0", m)), list(_reals(xdot0, "xdot0", m))
        # _xdot's energy once a step forms it; steps coast if xdot0 holds no -0.0
        self._h, self._coasts = None, "-0.0" not in map(repr, self._xdot)
        _check_initial_energy(self, "xdot0")

    @property
    def pose(self) -> np.ndarray:
        return np.array(self._x)

    @property
    def twist(self) -> np.ndarray:
        return np.array(self._xdot)

    @property
    def kinetic_energy(self) -> float:
        return self.state().kinetic_energy_truth

    def state(self) -> PlantState:
        return self._state(self._x, self._xdot)

    def _state(self, x: list, v: list, h=None, stepped=False) -> PlantState:
        """The PlantState of pose x and twist v, lists of floats, and energy h."""
        xdot = np.array(v)
        # ndarray.dot gives @'s bits (bar a zero's sign at one axis) at half the
        # call overhead; a Python-float sum would round differently, moving bytes
        h = 0.5 * float(xdot.dot(self.inertia).dot(xdot)) if h is None else h
        return _snapshot(np.array(x), xdot, h, stepped)

    def step(self, wrench: WrenchInput, tau: float) -> PlantState:
        """Advance one interval holding the wrenches constant.

        tau > 0 is checked once where the run is configured, not per step.
        """
        # f_e - f_c has the bits of -f_c + f_e; a product's operand stays an array
        net = wrench.f_e - wrench.f_c
        v, h = self._xdot, self._h
        if h is None or not self._coasts or any(net.tolist()):
            v, h = [], None
            for vi, ai in zip(self._xdot, self._lam_inv.dot(net).tolist()):
                v.append(vi + tau * ai)
        x = []
        for xi, vi in zip(self._x, v):
            x.append(xi + tau * vi)
        if not all(map(math.isfinite, v + x)):
            raise IntegrationFault("non-finite plant state")
        state = self._state(x, v, h, stepped=True)
        self._xdot, self._x, self._h = v, x, state.kinetic_energy_truth
        return state


class PlanarArm:
    """Two-revolute-joint arm in a vertical plane, uniform rod links.

    The Cartesian port is the end-effector point (x, y).  Actuation maps the
    commanded wrench through J^T and adds gravity compensation, so the arm
    presents the same force-driven port as the Cartesian plant, with a
    configuration-dependent operational-space inertia.
    """

    m = 2  # workspace dimension

    def __init__(self, l1=0.5, l2=0.5, m1=4.0, m2=4.0, q0=(0.0, 0.0), qdot0=(0.0, 0.0)):
        sizes = {"l1": l1, "l2": l2, "m1": m1, "m2": m2}
        for label, value in sizes.items():
            sizes[label] = value = _real(value, label)
            if not value > 0:
                raise DomainError(f"{label} must be positive and finite, got {value!r}")
        self.l1, self.l2, self.m1, self.m2 = l1, l2, m1, m2 = sizes.values()
        self.i1 = m1 * l1 * l1 / 12.0
        self.i2 = i2 = m2 * l2 * l2 / 12.0
        lc1, lc2 = 0.5 * l1, 0.5 * l2
        # _terms's configuration-free factors, grouped as its expressions round
        # them: (m1 lc1 + m2 l1) g c1 is ((m1 lc1 + m2 l1) g) c1
        self._factors = ((m1 * lc1 + m2 * l1) * GRAVITY, m2 * lc2 * GRAVITY,
                         l1 * l1 + lc2 * lc2, 2.0 * l1 * lc2, m1 * lc1 * lc1 + self.i1,
                         lc2 * lc2, l1 * lc2, m2 * lc2 * lc2 + i2, -m2 * l1 * 0.5 * l2)
        gl1, gl2, a0, a1, b1, b12, b2, m22, _ = self._factors
        # rounding is monotone, so J's entries are at most the reach l1 + l2
        # (finite with l1 l1 + lc2 lc2) and the gravity torques at most gl1 + gl2
        if not all(map(math.isfinite, (*self._factors, gl1 + gl2))):
            raise DomainError("the arm's model overflows at these link lengths and masses")
        # M11 is linear and det M a concave quadratic in cos q2, so M is positive
        # definite at every q if it is at cos q2 = -1 and 1.  det M must clear
        # 1e-9 M11 M22, far above its rounding, so that no solve meets a zero pivot
        for c2 in (-1.0, 1.0):
            m11, m12 = b1 + m2 * (a0 + a1 * c2) + i2, m2 * (b12 + b2 * c2) + i2
            if not (0.0 < m11 < math.inf and 0.0 < m22
                    and (m12 / m11) * (m12 / m22) < 1.0 - 1e-9):
                raise DomainError("the arm's mass matrix must be positive definite at every "
                                  "elbow angle, with det M above 1e-9 M11 M22")
        # the joint state as step computes it, and the model at it, shared by
        # the port readings and the next step
        (q1, q2, qd1, qd2), terms = self._model(q0, qdot0, ("q0", "qdot0"))
        self._q, self._qd = (q1, q2), (qd1, qd2)
        self._jac, self._ee, self._grav, self._mass, self._cor, self._qdot, _ = terms
        _check_initial_energy(self, "qdot0")

    def _model(self, q, qdot=(0.0, 0.0), names=("q", "qdot")) -> tuple:
        """The joint floats [q1, q2, qd1, qd2] of the joint vectors q and qdot,
        each read by _reals as two entries, and _terms at them.  The model
        forms the sum of each pair (the sine of q1 + q2, and h (qd1 + qd2) in
        C), so each sum must be finite, which it is only when both entries are."""
        joints = []
        for values, name in zip((q, qdot), names):
            pair = _reals(values, name, 2)
            if not math.isfinite(pair[0] + pair[1]):
                raise DomainError(f"{name} must have two finite entries with a finite sum, "
                                  f"got {list(pair)}")
            joints += pair
        return joints, self._terms(*joints)

    def _terms(self, q1, q2, qd1, qd2) -> tuple:
        """J, the end-effector point, the gravity torque (a float pair), M,
        C(q, qd) and qd, each array a view of one 16-entry buffer, and the
        Coriolis factor h at the joint floats (q1, q2, qd1, qd2): math.sin and
        math.cos give np.sin's and np.cos's bits, as the numpy model had.  The
        buffer's dtype is given, which spares numpy its discovery."""
        q12 = q1 + q2
        s1, c1, s12, c12 = math.sin(q1), math.cos(q1), math.sin(q12), math.cos(q12)
        c2 = math.cos(q2)
        l1, l2, m2, i2 = self.l1, self.l2, self.m2, self.i2
        gl1, gl2, a0, a1, b1, b12, b2, m22, hl = self._factors
        x2, y2 = l2 * c12, l2 * s12
        x = l1 * c1 + x2
        g2 = gl2 * c12
        m12 = m2 * (b12 + b2 * c2) + i2
        h = hl * math.sin(q2)
        buf = np.array([-l1 * s1 - y2, -y2, x, x2, x, l1 * s1 + y2,
                        b1 + m2 * (a0 + a1 * c2) + i2, m12, m12, m22,
                        h * qd2, h * (qd1 + qd2), -h * qd1, 0.0, qd1, qd2],
                       dtype=float).reshape(8, 2)
        return buf[:2], buf[2], (gl1 * c1 + g2, g2), buf[3:5], buf[5:7], buf[7], h

    # -- model quantities ----------------------------------------------------

    def mass_matrix(self, q) -> np.ndarray:
        return self._model(q)[1][3]

    def coriolis_matrix(self, q, qdot) -> np.ndarray:
        """Christoffel-consistent C(q, qd), so dM/dt - 2C is skew-symmetric."""
        return self._model(q, qdot)[1][4]

    def mass_matrix_rate(self, q, qdot) -> np.ndarray:
        """Analytic dM/dt; only the elbow angle enters M."""
        joints, terms = self._model(q, qdot)
        d = terms[6] * joints[3]
        return np.array([[2.0 * d, d], [d, 0.0]])

    def gravity_vector(self, q) -> np.ndarray:
        return np.array(self._model(q)[1][2])

    def jacobian(self, q) -> np.ndarray:
        """Planar linear Jacobian (2x2): end-effector (xd, yd) = J qd."""
        return self._model(q)[1][0]

    # -- plant port ----------------------------------------------------------

    @property
    def pose(self) -> np.ndarray:
        return self._ee.copy()

    @property
    def twist(self) -> np.ndarray:
        return self._jac.dot(self._qdot)

    @property
    def kinetic_energy(self) -> float:
        return self.state().kinetic_energy_truth

    def state(self) -> PlantState:
        return self._state(self._jac, self._ee, self._mass, self._qdot)

    @staticmethod
    def _state(jac, ee, mass, qdot, stepped=False) -> PlantState:
        # joint-space energy is the ground truth; it equals the
        # operational-space energy wherever J is invertible
        return _snapshot(ee.copy(), jac.dot(qdot), 0.5 * float(qdot.dot(mass).dot(qdot)),
                         stepped)

    def step(self, wrench: WrenchInput, tau: float) -> PlantState:
        jt, f_e = self._jac.T, wrench.f_e
        d1, d2 = jt.dot(wrench.f_c).tolist()
        # J^T f_e of an f_e with no non-zero entry is a pair of zeros (J is
        # finite: the constructor bounds the reach l1 + l2)
        p1, p2 = jt.dot(f_e).tolist() if any(f_e.tolist()) else (0.0, 0.0)
        c1, c2 = self._cor.dot(self._qdot).tolist()
        g1, g2 = self._grav
        # rhs = J^T (-f_c) + g + J^T f_e - C qd - g: gravity and its compensation
        # cancel, but deleting them moves the arm's bytes.  g - J^T f_c stands
        # for J^T (-f_c) + g and (0.0, 0.0) for a zero push: each differs at most
        # in a zero's sign (negating a dot's operand negates its roundings).  A
        # sum is -0.0 only when both terms are, so the first two sums agree
        # unless g is -0.0 (an underflow: g1 cancels only to +0.0), and then the
        # closing - g adds +0.0, which makes any zero +0.0.
        a1, a2 = solve1(self._mass, [g1 - d1 + p1 - c1 - g1, g2 - d2 + p2 - c2 - g2]).tolist()
        v1, v2 = self._qd
        v1, v2 = v1 + tau * a1, v2 + tau * a2
        q1, q2 = self._q
        q1, q2 = q1 + tau * v1, q2 + tau * v2
        # q1 + q2 is finite only if both are, and _terms takes its sine
        isfinite = math.isfinite
        if not (isfinite(v1) and isfinite(v2) and isfinite(q1 + q2)):
            raise IntegrationFault("non-finite arm state")
        jac, ee, grav, mass, cor, qdot, _ = self._terms(q1, q2, v1, v2)
        state = self._state(jac, ee, mass, qdot, stepped=True)
        # the arm moves only once its snapshot is built: a refused one leaves it
        self._q, self._qd, self._jac, self._ee, self._grav = (q1, q2), (v1, v2), jac, ee, grav
        self._mass, self._cor, self._qdot = mass, cor, qdot
        return state


def power_balance_residual(prev: PlantState, new: PlantState,
                           wrench: WrenchInput, tau: float) -> float:
    """|dH - tau (-f_c + f_e) . xd_mid| for one step; O(tau^2) per step.

    The trapezoidal velocity makes the work of a constant wrench over a
    semi-implicit Euler step exact for constant inertia, so this residual
    isolates genuine integration error.
    """
    v_mid = 0.5 * (prev.xdot + new.xdot)
    work = tau * float((-wrench.f_c + wrench.f_e) @ v_mid)
    return abs((new.kinetic_energy_truth - prev.kinetic_energy_truth) - work)
