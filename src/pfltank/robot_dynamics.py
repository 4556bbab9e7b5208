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
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, IntegrationFault

__all__ = [
    "PlantState",
    "WrenchInput",
    "CartesianPlant",
    "PlanarArm",
]

#: Gravitational acceleration on the arm, m/s^2.
GRAVITY = 9.81


# PlantState and WrenchInput, built every cycle, are named tuples with a checking
# __new__: as immutable as a frozen dataclass, at a fraction of the cost to build.

class _PlantStateFields(NamedTuple):
    x: np.ndarray
    xdot: np.ndarray
    kinetic_energy_truth: float


class PlantState(_PlantStateFields):
    """Immutable snapshot of a plant: pose, twist, true kinetic energy.

    Its arrays are its own: the constructor copies what it is given, and a
    plant hands _snapshot arrays it keeps no reference to.
    """

    __slots__ = ()

    def __new__(cls, x, xdot, kinetic_energy_truth):
        return _snapshot(np.array(x, dtype=float), np.array(xdot, dtype=float),
                         kinetic_energy_truth)


def _snapshot(x: np.ndarray, xdot: np.ndarray, kinetic_energy_truth: float) -> PlantState:
    """A PlantState that takes ownership of float arrays x and xdot."""
    if kinetic_energy_truth < 0:
        raise DomainError("kinetic energy cannot be negative")
    return tuple.__new__(PlantState, (x, xdot, kinetic_energy_truth))


class _WrenchFields(NamedTuple):
    f_c: np.ndarray
    f_e: np.ndarray


class WrenchInput(_WrenchFields):
    """One control interval's wrenches: commanded f_c and external f_e."""

    __slots__ = ()

    def __new__(cls, f_c, f_e):
        f_c = np.asarray(f_c, dtype=float)
        f_e = np.asarray(f_e, dtype=float)
        if f_c.shape != f_e.shape:
            raise DomainError(f"wrench shapes differ: {f_c.shape} vs {f_e.shape}")
        if not _all_finite(f_c, f_e):
            raise DomainError("wrench entries must be finite")
        return tuple.__new__(cls, (f_c, f_e))


def _all_finite(a: np.ndarray, b: np.ndarray) -> bool:
    """np.all(np.isfinite(a)) and np.all(np.isfinite(b)), in a tenth of the
    time for the 1-3 entries a port vector has."""
    return all(map(math.isfinite, a.ravel().tolist() + b.ravel().tolist()))


class CartesianPlant:
    """Point mass with constant symmetric positive-definite inertia Lambda."""

    def __init__(self, inertia, x0, xdot0):
        lam = np.atleast_2d(np.asarray(inertia, dtype=float))
        if lam.shape[0] != lam.shape[1]:
            raise DomainError(f"inertia must be square, got {lam.shape}")
        if not np.all(np.isfinite(lam)):
            raise DomainError("inertia entries must be finite")
        if np.max(np.abs(lam - lam.T)) > 1e-12 * max(np.max(np.abs(lam)), 1.0):
            raise DomainError("inertia must be symmetric")
        try:
            np.linalg.cholesky(lam)
        except np.linalg.LinAlgError:
            raise DomainError("inertia must be positive definite") from None
        self.inertia = lam
        self._lam_inv = np.linalg.inv(lam)
        self.m = lam.shape[0]
        self._x = np.array(x0, dtype=float)
        self._xdot = np.array(xdot0, dtype=float)
        if self._x.shape != (self.m,) or self._xdot.shape != (self.m,):
            raise DomainError("x0/xdot0 dimensions do not match the inertia")
        if not _all_finite(self._x, self._xdot):
            raise DomainError("x0/xdot0 must be finite")

    @property
    def pose(self) -> np.ndarray:
        return self._x.copy()

    @property
    def twist(self) -> np.ndarray:
        return self._xdot.copy()

    @property
    def kinetic_energy(self) -> float:
        # ndarray.dot gives @'s bits (bar a zero's sign at one axis) at half the
        # call overhead; a Python-float sum would round differently, moving bytes
        return 0.5 * float(self._xdot.dot(self.inertia).dot(self._xdot))

    def state(self) -> PlantState:
        return _snapshot(self.pose, self.twist, self.kinetic_energy)

    def step(self, wrench: WrenchInput, tau: float) -> PlantState:
        """Advance one interval holding the wrenches constant.

        tau > 0 is checked once where the run is configured, not per step.
        """
        f = wrench.f_e - wrench.f_c  # the same bits as -f_c + f_e, one temporary less
        v = self._xdot + tau * self._lam_inv.dot(f)
        x = self._x + tau * v
        if not _all_finite(v, x):
            raise IntegrationFault("non-finite plant state")
        self._xdot = v
        self._x = x
        return self.state()


class PlanarArm:
    """Two-revolute-joint arm in a vertical plane, uniform rod links.

    The Cartesian port is the end-effector point (x, y).  Actuation maps the
    commanded wrench through J^T and adds gravity compensation, so the arm
    presents the same force-driven port as the Cartesian plant, with a
    configuration-dependent operational-space inertia.
    """

    m = 2  # workspace dimension

    def __init__(self, l1=0.5, l2=0.5, m1=4.0, m2=4.0, q0=(0.0, 0.0), qdot0=(0.0, 0.0)):
        for label, value in (("l1", l1), ("l2", l2), ("m1", m1), ("m2", m2)):
            if not 0 < value < math.inf:
                raise DomainError(f"{label} must be positive and finite, got {value!r}")
        self.l1, self.l2 = float(l1), float(l2)
        self.m1, self.m2 = float(m1), float(m2)
        self.i1 = self.m1 * self.l1 * self.l1 / 12.0
        self.i2 = self.m2 * self.l2 * self.l2 / 12.0
        self._q = np.array(q0, dtype=float)
        self._qdot = np.array(qdot0, dtype=float)
        if (self._q.shape != (2,) or self._qdot.shape != (2,)
                or not _all_finite(self._q, self._qdot)):
            raise DomainError("q0/qdot0 must have two finite entries")
        self._update_model()

    def _update_model(self):
        # J, the end-effector point, the gravity torque and M at the current
        # configuration, shared by the port readings and the next step
        self._jac, self._ee, self._grav = self._trig_terms(self._q)
        self._mass = self.mass_matrix(self._q)

    # -- model quantities ----------------------------------------------------

    def mass_matrix(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        lc1, lc2 = 0.5 * self.l1, 0.5 * self.l2
        c2 = np.cos(q[1])
        a = self.m2 * (self.l1 * self.l1 + lc2 * lc2 + 2.0 * self.l1 * lc2 * c2)
        m11 = self.m1 * lc1 * lc1 + self.i1 + a + self.i2
        m12 = self.m2 * (lc2 * lc2 + self.l1 * lc2 * c2) + self.i2
        m22 = self.m2 * lc2 * lc2 + self.i2
        return np.array([[m11, m12], [m12, m22]])

    def coriolis_matrix(self, q, qdot) -> np.ndarray:
        """Christoffel-consistent C(q, qd), so dM/dt - 2C is skew-symmetric."""
        q = np.asarray(q, dtype=float)
        qdot = np.asarray(qdot, dtype=float)
        h = -self.m2 * self.l1 * 0.5 * self.l2 * np.sin(q[1])
        return np.array([
            [h * qdot[1], h * (qdot[0] + qdot[1])],
            [-h * qdot[0], 0.0],
        ])

    def mass_matrix_rate(self, q, qdot) -> np.ndarray:
        """Analytic dM/dt; only the elbow angle enters M."""
        q = np.asarray(q, dtype=float)
        qdot = np.asarray(qdot, dtype=float)
        h = -self.m2 * self.l1 * 0.5 * self.l2 * np.sin(q[1])
        d = h * qdot[1]
        return np.array([[2.0 * d, d], [d, 0.0]])

    def _trig_terms(self, q) -> tuple:
        """J, the end-effector point and the gravity torque at q, from one
        evaluation of sin and cos of q1 and of q1 + q2."""
        q = np.asarray(q, dtype=float)
        q12 = q[0] + q[1]
        s1, c1, s12, c12 = np.sin(q[0]), np.cos(q[0]), np.sin(q12), np.cos(q12)
        l1, l2 = self.l1, self.l2
        jac = np.array([
            [-l1 * s1 - l2 * s12, -l2 * s12],
            [l1 * c1 + l2 * c12, l2 * c12],
        ])
        ee = np.array([l1 * c1 + l2 * c12, l1 * s1 + l2 * s12])
        lc1, lc2 = 0.5 * l1, 0.5 * l2
        g = GRAVITY
        g1 = (self.m1 * lc1 + self.m2 * l1) * g * c1 + self.m2 * lc2 * g * c12
        g2 = self.m2 * lc2 * g * c12
        return jac, ee, np.array([g1, g2])

    def gravity_vector(self, q) -> np.ndarray:
        return self._trig_terms(q)[2]

    def jacobian(self, q) -> np.ndarray:
        """Planar linear Jacobian (2x2): end-effector (xd, yd) = J qd."""
        return self._trig_terms(q)[0]

    # -- plant port ----------------------------------------------------------

    @property
    def pose(self) -> np.ndarray:
        return self._ee.copy()

    @property
    def twist(self) -> np.ndarray:
        return self._jac.dot(self._qdot)

    @property
    def kinetic_energy(self) -> float:
        # joint-space energy is the ground truth; it equals the
        # operational-space energy wherever J is invertible
        return 0.5 * float(self._qdot.dot(self._mass).dot(self._qdot))

    def state(self) -> PlantState:
        return _snapshot(self.pose, self.twist, self.kinetic_energy)

    def step(self, wrench: WrenchInput, tau: float) -> PlantState:
        q, qdot = self._q, self._qdot
        jt = self._jac.T
        # gravity and its compensation cancel, but deleting them moves the arm's bytes
        grav = self._grav
        torque = jt.dot(-wrench.f_c) + grav
        rhs = torque + jt.dot(wrench.f_e) - self.coriolis_matrix(q, qdot).dot(qdot) - grav
        qdd = np.linalg.solve(self._mass, rhs)
        qdot_new = qdot + tau * qdd
        q_new = q + tau * qdot_new
        if not _all_finite(qdot_new, q_new):
            raise IntegrationFault("non-finite arm state")
        self._qdot = qdot_new
        self._q = q_new
        self._update_model()
        return self.state()


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
