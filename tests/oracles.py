"""Independent reference implementations used to check the package.

Everything here is derived from first principles (symbolic Lagrangian
mechanics, brute-force feasibility search, KKT enumeration) without calling
into the package, so agreement is evidence rather than tautology.  The
tick-by-tick summary borrows only the package's result types.  The numpy-form
steps read a plant's private fields, the one input they share with it: the
Cartesian plant's inverse inertia, twist and pose, the arm's joint angles and
rates.
"""

import bisect
import csv
import functools
import math

import numpy as np
import sympy as sp

from pfltank.sim_harness import (
    _CHUNK,
    _FIELDS,
    _VECTORS,
    SegmentSummary,
    Summary,
    TickLog,
    _tick_columns,
)


# region names outside the name rule, by the class each stands for: ticks.csv
# holds a name as a bare field, so none may be empty, break a line, hold a
# field or quote character, or fail to print
REFUSED_REGION_NAMES = {
    "empty": "", "not_str": 5, "comma": "a,b", "quote": 'q"q', "cr": "a\rb",
    "lf": "a\nb", "nul": "a\0b", "surrogate": "a\ud800", "nbsp": "a\u00a0b",
    "blank_line": "z\r\n\r\n" + "c" * 140_000,
}


# -- planar 2R dynamics from the Lagrangian ------------------------------------

@functools.lru_cache(maxsize=1)
def _symbolic_arm():
    q1, q2, qd1, qd2 = sp.symbols("q1 q2 qd1 qd2")
    l1, l2, m1, m2, i1, i2, g = sp.symbols("l1 l2 m1 m2 i1 i2 g", positive=True)

    # centers of mass at mid-link, links rigid rods in the plane
    p1 = sp.Matrix([l1 / 2 * sp.cos(q1), l1 / 2 * sp.sin(q1)])
    p2 = sp.Matrix([l1 * sp.cos(q1) + l2 / 2 * sp.cos(q1 + q2),
                    l1 * sp.sin(q1) + l2 / 2 * sp.sin(q1 + q2)])
    pe = sp.Matrix([l1 * sp.cos(q1) + l2 * sp.cos(q1 + q2),
                    l1 * sp.sin(q1) + l2 * sp.sin(q1 + q2)])

    q = sp.Matrix([q1, q2])
    qd = sp.Matrix([qd1, qd2])
    v1 = p1.jacobian(q) * qd
    v2 = p2.jacobian(q) * qd
    kinetic = (m1 * (v1.T * v1)[0] + m2 * (v2.T * v2)[0]
               + i1 * qd1 ** 2 + i2 * (qd1 + qd2) ** 2) / 2
    potential = g * (m1 * p1[1] + m2 * p2[1])

    mass = sp.hessian(kinetic, (qd1, qd2))
    # Christoffel symbols of the first kind
    coriolis = sp.zeros(2, 2)
    qs = (q1, q2)
    qds = (qd1, qd2)
    for i in range(2):
        for j in range(2):
            coriolis[i, j] = sum(
                sp.Rational(1, 2)
                * (sp.diff(mass[i, j], qs[k]) + sp.diff(mass[i, k], qs[j])
                   - sp.diff(mass[j, k], qs[i]))
                * qds[k]
                for k in range(2))
    gravity = sp.Matrix([sp.diff(potential, q1), sp.diff(potential, q2)])
    jac = pe.jacobian(q)

    args = (q1, q2, qd1, qd2, l1, l2, m1, m2, i1, i2, g)
    return {
        "mass": sp.lambdify(args, mass, "numpy"),
        "coriolis": sp.lambdify(args, coriolis, "numpy"),
        "gravity": sp.lambdify(args, gravity, "numpy"),
        "jacobian": sp.lambdify(args, jac, "numpy"),
        "ee": sp.lambdify(args, pe, "numpy"),
    }


class ArmOracle:
    """Lambdified symbolic dynamics for a planar 2R arm with rod links."""

    def __init__(self, l1=0.5, l2=0.5, m1=4.0, m2=4.0):
        # uniform rods under standard gravity, as PlanarArm assumes
        self.params = (l1, l2, m1, m2, m1 * l1 ** 2 / 12.0, m2 * l2 ** 2 / 12.0, 9.81)
        self._f = _symbolic_arm()

    def mass(self, q):
        return np.asarray(self._f["mass"](q[0], q[1], 0.0, 0.0, *self.params), float)

    def coriolis(self, q, qd):
        return np.asarray(self._f["coriolis"](q[0], q[1], qd[0], qd[1], *self.params), float)

    def gravity_vec(self, q):
        return np.asarray(self._f["gravity"](q[0], q[1], 0.0, 0.0, *self.params),
                          float).reshape(2)

    def jacobian(self, q):
        return np.asarray(self._f["jacobian"](q[0], q[1], 0.0, 0.0, *self.params), float)

    def ee(self, q):
        return np.asarray(self._f["ee"](q[0], q[1], 0.0, 0.0, *self.params),
                          float).reshape(2)

    def mobility(self, q):
        jac = self.jacobian(q)
        return jac @ np.linalg.solve(self.mass(q), jac.T)

    def apparent_mass(self, q, n):
        n = np.asarray(n, float)
        return 1.0 / float(n @ self.mobility(q) @ n)


# -- energy-feasible scaling by brute force -------------------------------------

def alpha_oracle(f_des, xdot, tank_energy, p_ext, epsilon, tau, tol,
                 grid=100_001, refine=60):
    """Largest feasible scaling in [0, 1] by dense grid plus bisection.

    Feasible means the booked next-step energy stays at or above the floor:
    tank_energy + tau*(p_ext + a*f_des.xdot) >= epsilon - tol.
    """
    c = tau * float(np.dot(f_des, xdot))
    base = tank_energy + tau * p_ext - (epsilon - tol)
    alphas = np.linspace(0.0, 1.0, grid)
    ok = base + alphas * c >= 0.0
    if ok[-1]:
        return 1.0
    if not ok[0]:
        return 0.0
    lo = float(alphas[ok][-1])
    hi = lo + (alphas[1] - alphas[0])
    for _ in range(refine):
        mid = 0.5 * (lo + hi)
        if base + mid * c >= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def projection_oracle(f_des, xdot, committed, epsilon, tau):
    """Closest force to f_des keeping committed + tau*F.xdot >= epsilon.

    Solves the KKT system of the one-constraint QP by enumeration: either the
    constraint is inactive, or the optimum lies on the boundary with the
    correction parallel to xdot.
    """
    f_des = np.asarray(f_des, float)
    xdot = np.asarray(xdot, float)
    if committed + tau * float(f_des @ xdot) >= epsilon:
        return f_des.copy()
    speed_sq = float(xdot @ xdot)
    if speed_sq == 0.0:
        return None  # constraint cannot be met by any finite force
    lam = (epsilon - committed - tau * float(f_des @ xdot)) / (tau * speed_sq)
    return f_des + lam * xdot


# -- region schedule lookup by bisection -------------------------------------------

def region_index(schedule, time: float) -> int:
    """Index of the region that a RegionSchedule has in force at ``time``:
    the last whose switch time is at most ``time``."""
    return max(bisect.bisect_right(schedule.times, time) - 1, 0)


# -- constant-force kinematics ---------------------------------------------------

def semi_implicit_constant_force(mass, force, tau, n_steps):
    """Exact per-step closed form of the symplectic Euler free particle."""
    accel = force / mass
    v = accel * tau * np.arange(1, n_steps + 1)
    x = np.cumsum(v) * tau
    return x, v


# -- row-by-row tick log writer ---------------------------------------------------

def write_ticks_csv_rowwise(path, ticks):
    """The tick log written one row and one repr() at a time: the reference
    that the package's block-wise writer must match byte for byte."""
    axes = "xyz"
    m = len(ticks[0].xdot)

    def spread(stem):
        return [f"{stem}_{axes[i]}" for i in range(m)]

    header = ["k", "t", "active_region", "alpha"]
    header += spread("f_des") + spread("f_c") + spread("f_e")
    header += ["b", "p_ext", "tank_T", "epsilon", "h_est", "h_truth"]
    header += spread("x") + spread("xdot")

    def fmt(value):
        return repr(float(value))

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for tk in ticks:
            row = [str(tk.k), fmt(tk.t), tk.active_region, fmt(tk.alpha)]
            for vec in (tk.f_des, tk.f_c, tk.f_e):
                row += [fmt(v) for v in vec]
            row += [fmt(tk.b), fmt(tk.p_ext), fmt(tk.tank_T), fmt(tk.epsilon),
                    fmt(tk.h_est), fmt(tk.h_truth)]
            for vec in (tk.x, tk.xdot):
                row += [fmt(v) for v in vec]
            writer.writerow(row)


def write_ticks_csv_per_cell(path, ticks):
    """The block-wise tick log writer that calls repr once per float cell:
    the reference for the package's writer, which formats each distinct bit
    pattern of a block once.  It shares the header with the package, which
    the row-by-row writer checks."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_tick_columns(ticks.xdot.shape[1])) + "\r\n")
        for start in range(0, len(ticks), _CHUNK):
            columns = []
            for name in _FIELDS:
                values = getattr(ticks, name)[start:start + _CHUNK]
                if name == "k":
                    columns.append(map(str, values.tolist()))
                elif name == "active_region":
                    columns.append(map(ticks.region_names.__getitem__, values.tolist()))
                elif name in _VECTORS:
                    columns += (map(repr, axis) for axis in values.T.tolist())
                else:
                    columns.append(map(repr, values.tolist()))
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


# -- tick logs from records ------------------------------------------------------

def tick_log(rows) -> TickLog:
    """The TickLog of a nonempty list of ControlTick records, its regions
    numbered in order of first appearance."""
    names = list(dict.fromkeys(tk.active_region for tk in rows))
    columns = {name: np.array([getattr(tk, name) for tk in rows],
                              dtype=np.int64 if name == "k" else float)
               for name in _FIELDS if name != "active_region"}
    columns["active_region"] = np.array([names.index(tk.active_region) for tk in rows],
                                        dtype=np.int64)
    return TickLog(columns, names)


# -- tick-by-tick summary ---------------------------------------------------------

def summarize_rowwise(ticks) -> Summary:
    """The run summary reduced one ControlTick at a time: the reference that
    the package's column-wise summarize must match bit for bit."""
    if not ticks:
        raise ValueError("cannot summarize an empty tick log")
    h0 = ticks[0].h_truth
    t0 = ticks[0].tank_T
    budget = h0 + t0
    tau = ticks[1].t - ticks[0].t if len(ticks) > 1 else 0.0

    segments = []
    start = 0
    for i in range(1, len(ticks) + 1):
        if i < len(ticks) and ticks[i].active_region == ticks[start].active_region:
            continue
        chunk = ticks[start:i]
        bound = budget - chunk[0].epsilon
        above = sum(1 for tk in chunk if tk.h_truth > bound + 1e-9)
        segments.append(SegmentSummary(
            region=chunk[0].active_region,
            t_start=chunk[0].t,
            t_end=chunk[-1].t + tau,
            ticks=len(chunk),
            h_max=max(tk.h_truth for tk in chunk),
            speed_max=math.sqrt(max(tk.xdot.dot(tk.xdot) for tk in chunk)),
            energy_bound=bound,
            time_above_bound=above * tau,
        ))
        start = i

    damper_energy = 0.0
    injection = 0.0
    for prev, nxt in zip(ticks, ticks[1:]):
        if prev.b > 0.0:
            v_mid = 0.5 * (prev.xdot + nxt.xdot)
            damper_energy += tau * prev.b * float(v_mid.dot(v_mid))
            injection += tau * float(prev.f_e.dot(v_mid))

    return Summary(
        scenario="",
        n_ticks=len(ticks),
        tau=tau,
        t_final=ticks[-1].t,
        segments=segments,
        min_tank=min(tk.tank_T for tk in ticks),
        min_tank_minus_epsilon=min(tk.tank_T - tk.epsilon for tk in ticks),
        conservation_residual=max(abs(tk.h_truth + tk.tank_T - budget) for tk in ticks),
        h_est_error_max=max(abs(tk.h_est - tk.h_truth) for tk in ticks),
        damper_energy=damper_energy,
        injection_excess=injection,
    )


# -- the hot path in numpy form ----------------------------------------------------
#
# The plants and the controller do their elementwise arithmetic on Python
# floats; these are the same steps with every operation on numpy arrays, as
# the package once wrote them.  The lean forms must give their bits.

def cartesian_step_numpy(plant, f_c, f_e, tau):
    """A CartesianPlant's next (xdot, x) from its current state."""
    v = plant._xdot + tau * plant._lam_inv.dot(-f_c + f_e)
    return v, plant._x + tau * v


def arm_model_numpy(arm, q):
    """A PlanarArm's J, end-effector point, gravity torque, M and Coriolis
    factor h at q, from its parameters alone: each expression written whole,
    no factor taken out, so agreement shows the arm's hoisted factors round
    as these do.  math.sin and math.cos stand for np.sin and np.cos."""
    q1, q2 = map(float, q)
    s1, c1 = math.sin(q1), math.cos(q1)
    s12, c12 = math.sin(q1 + q2), math.cos(q1 + q2)
    c2 = math.cos(q2)
    l1, l2, m1, m2, g = arm.l1, arm.l2, arm.m1, arm.m2, 9.81
    lc1, lc2 = 0.5 * l1, 0.5 * l2
    i1, i2 = m1 * l1 * l1 / 12.0, m2 * l2 * l2 / 12.0
    m12 = m2 * (lc2 * lc2 + l1 * lc2 * c2) + i2
    return (np.array([[-l1 * s1 - l2 * s12, -l2 * s12], [l1 * c1 + l2 * c12, l2 * c12]]),
            np.array([l1 * c1 + l2 * c12, l1 * s1 + l2 * s12]),
            np.array([(m1 * lc1 + m2 * l1) * g * c1 + m2 * lc2 * g * c12,
                      m2 * lc2 * g * c12]),
            np.array([[m1 * lc1 * lc1 + i1 + m2 * (l1 * l1 + lc2 * lc2 + 2.0 * l1 * lc2 * c2)
                       + i2, m12], [m12, m2 * lc2 * lc2 + i2]]),
            -m2 * l1 * 0.5 * l2 * math.sin(q2))


def arm_step_numpy(arm, f_c, f_e, tau):
    """A PlanarArm's next (qdot, q) from its current joint state, by
    np.linalg.solve on the model of arm_model_numpy."""
    q, qdot = arm._q, arm._qdot
    jac, _, grav, mass, h = arm_model_numpy(arm, q)
    jt = jac.T
    coriolis = np.array([[h * qdot[1], h * (qdot[0] + qdot[1])], [-h * qdot[0], 0.0]])
    torque = jt.dot(-f_c) + grav
    rhs = torque + jt.dot(f_e) - coriolis.dot(qdot) - grav
    qdot_new = qdot + tau * np.linalg.solve(mass, rhs)
    return qdot_new, q + tau * qdot_new


def arm_port_numpy(arm, q, qdot):
    """The PlantState fields of an arm at joint state (q, qdot): the
    end-effector point, J qd and the joint-space energy."""
    jac, ee, _, mass, _ = arm_model_numpy(arm, q)
    return ee, jac.dot(qdot), 0.5 * float(qdot.dot(mass).dot(qdot))


def pd_force(gains, x, xdot) -> list:
    """Plain PD attraction kp (target - x) - kd xd, in the plant frame, on
    floats: the controller's f_des is its negation."""
    return [kp * (tg - xi) - kd * vi
            for kp, kd, tg, xi, vi in zip(gains.kp, gains.kd, gains.target, x, xdot)]


def tank_port_force_numpy(gains, x, xdot):
    """The controller's f_des, the negated PD force."""
    return -(gains.kp * (gains.target - x) - gains.kd * xdot)


def trapezoidal_velocity_numpy(xdot, xdot_next):
    return 0.5 * (xdot + xdot_next)


def command_numpy(f_des, alpha, b, xdot):
    """The scaled force f_c and the wrench commanded, f_c + b xd."""
    f_c = alpha * f_des
    return f_c, f_c + b * xdot
