"""Tank-mediated task controller.

A PD task force is scaled by a single factor alpha in [0, 1], chosen each
cycle as the value closest to 1 that keeps the predicted tank energy above
its floor.  The floor itself encodes the active body region's energy budget,
so bounding the tank from below bounds the robot's kinetic energy from
above without ever reading the plant's inertia.

Sign convention: f_des and f_c live on the tank port, where the plant
receives -f_c (see robot_dynamics).  A command that physically accelerates
the robot therefore has f_c . xd < 0 and drains the tank; braking commands
refill it.

Discrete-time bookkeeping: the decision at cycle k uses the sampled
velocity, but the actual energy exchanged over [k, k+1) is metered with the
trapezoidal velocity once the next sample is available.  Committing the
previous interval first keeps the ledger within O(tau^2) of the true work,
which the sampled-velocity form cannot do.  The fixed FEASIBILITY_MARGIN on
the floor absorbs the half-step difference between the two velocities.

Numpy versus floats: dot products stay ndarray.dot, which a Python-float sum
would round differently; the PD force, v_mid and the command run on floats and
f_c = f_des * alpha is one numpy multiply, all with numpy's bits.  Nothing that
depends only on the schedule or the gains is looked up per cycle, and no product
whose bits are known is formed.  At alpha 1 f_c is f_des.  At b = 0 and a finite
speed the command is f_c, off f_c + 0.0 xd only in a zero's sign, which no plant
sees: run()'s f_e sums from +0.0, so the Cartesian f_e - f_c is +0.0 either way,
and the arm folds it.  An all-zero f_e (at a finite speed) or f_c books p_in or
p_task = 0.0: in (p_task - p_in) + p_damp, p_damp = b v_mid . v_mid is never
-0.0 (NaN for a non-finite v_mid).  A calm interval (b = 0, no push, squared
speeds under 1e300 at both ends) books p_in = p_damp = 0.0 without forming
v_mid . v_mid, finite as |v_mid_i| <= max(|v_i|, |w_i|).  The per-axis floats are
built by loops that append: a comprehension runs in a frame of its own before
Python 3.12, which costs about one ndarray.dot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .energy_tank import (
    DAMPER_BAND,
    EPSILON_MIN,
    FLOOR_TOL,
    V_FLOOR,
    TankState,
    commit_step,
    damper_coefficient,
    make_tank,
)
from .errors import DomainError, EmergencyFault, _reals
from .iso15066 import BodyRegion, max_energy

__all__ = [
    "PdGains",
    "PlantObservation",
    "RegionSchedule",
    "ControlTick",
    "SafetyController",
    "solve_alpha",
    "supervise",
]

#: Slack (J) added to the optimizer's floor so that the committed
#: (trapezoidal) energy cannot undershoot the real floor.
FEASIBILITY_MARGIN = 5e-4


@dataclass(frozen=True)
class PdGains:
    """Per-axis PD gains and the pose setpoint, each a tuple of floats."""

    kp: tuple
    kd: tuple
    target: tuple

    def __post_init__(self):
        for label in ("kp", "kd", "target"):
            object.__setattr__(self, label, _reals(getattr(self, label), label))
        if not len(self.kp) == len(self.kd) == len(self.target):
            raise DomainError("kp, kd and target must have matching lengths")
        if any(g < 0 for g in self.kp + self.kd):
            raise DomainError("PD gains must be non-negative")


@dataclass(slots=True)
class PlantObservation:
    """Everything the controller is allowed to see: pose, twist, external
    wrench, as float arrays.  Deliberately free of inertia, joint state, or
    plant internals."""

    x: np.ndarray
    xdot: np.ndarray
    f_e: np.ndarray


def solve_alpha(f_des, xdot, t_prev: float, epsilon: float,
                tau: float, p_ext: float) -> float:
    """Scaling alpha in [0, 1] closest to 1 with
    tau alpha (f_des . xd) + tau p_ext + t_prev >= epsilon.

    The constraint is affine in alpha, so the optimum is on the boundary or
    at 1.  When no alpha satisfies it the least-draining admissible value is
    returned instead (1 for replenishing commands, 0 otherwise); the caller
    decides whether that situation is a fault or a bound-raise transient.
    f_des and xdot are float arrays.
    """
    # ndarray.dot gives @'s bits (bar a zero's sign at one axis) at half the
    # call overhead; a Python-float sum would round differently, moving bytes
    c = tau * float(f_des.dot(xdot))
    avail = t_prev + tau * p_ext
    if c > 0.0:
        return 1.0
    if c == 0.0:
        # scaling cannot change the tank; pass the command through only if
        # the budget is intact (keeps a starved tank from kicking a resting robot)
        return 1.0 if avail >= epsilon - FLOOR_TOL else 0.0
    if avail + c >= epsilon:
        return 1.0
    alpha = (epsilon - avail) / c
    return min(1.0, max(0.0, alpha))


def project_halfspace(f_des, xdot, t_prev: float, epsilon: float, tau: float,
                      p_ext: float) -> np.ndarray:
    """Nearest force to f_des satisfying the same tank constraint.

    Direction is not preserved: the optimum adds a multiple of xd.  Kept as
    the comparison baseline for the direction-preserving alpha rule.  Below
    V_FLOOR the constraint cannot be met by any force, so the safe zero
    command is returned when f_des is inadmissible.
    """
    f_des = np.asarray(f_des, dtype=float)
    xdot = np.asarray(xdot, dtype=float)
    avail = t_prev + tau * p_ext
    slack = tau * float(f_des @ xdot) + avail - epsilon
    if slack >= 0.0:
        return f_des.copy()
    speed_sq = float(xdot @ xdot)
    if speed_sq <= V_FLOOR * V_FLOOR:
        return np.zeros_like(f_des)
    lam = (epsilon - avail - tau * float(f_des @ xdot)) / (tau * speed_sq)
    return f_des + lam * xdot


@dataclass(frozen=True)
class RegionSchedule:
    """Piecewise-constant body-region schedule: ``regions[i]`` governs from
    ``times[i]`` on.  Each region's energy budget is derived from the region
    itself (max_energy), so a budget cannot disagree with its label."""

    times: tuple
    regions: tuple
    energies: tuple = field(init=False)

    def __post_init__(self):
        times = _reals(self.times, "times")
        regions = tuple(self.regions)
        if len(times) != len(regions):
            raise DomainError(
                f"schedule has {len(times)} switch times but {len(regions)} regions")
        if not times:
            raise DomainError("schedule cannot be empty")
        if times[0] != 0.0:
            raise DomainError(f"first schedule entry must be at t = 0, got {times[0]!r}")
        for a, b in zip(times, times[1:]):
            if not b > a:
                raise DomainError("switch times must be strictly increasing")
        for region in regions:
            if not isinstance(region, BodyRegion):
                raise DomainError(f"schedule entries need BodyRegion values, got {region!r}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "regions", regions)
        object.__setattr__(self, "energies", tuple(max_energy(r) for r in regions))

    def floors(self, t_initial: float, h_initial: float) -> tuple:
        """The tank floor each region implies for a tank that started with
        t_initial and a robot that started with h_initial of kinetic energy.
        Raises DomainError, naming the region, for a floor under EPSILON_MIN."""
        floors = []
        for region, energy in zip(self.regions, self.energies):
            eps = t_initial - energy + h_initial
            if eps < EPSILON_MIN:
                raise DomainError(
                    f"region {region.name!r} needs {energy!r} J of budget but the tank "
                    f"holds {t_initial!r} J; floor would be {eps!r} J, "
                    f"under the minimum {EPSILON_MIN!r} J")
            floors.append(eps)
        return tuple(floors)


def supervise(floors: tuple, idx: int, tank: TankState) -> TankState:
    """Retarget the tank floor to ``floors[idx]``; the same tank when it is
    already there.  A floor above the tank's energy takes effect at once: the
    controller then admits only replenishing commands until the deficit is
    worked off."""
    eps = floors[idx]
    if eps == tank.epsilon:
        return tank
    return tank._replace(epsilon=eps)


class ControlTick(NamedTuple):
    """One cycle's record, in the column order of the CSV log: a named tuple,
    which control_cycle builds with tuple.__new__ every cycle.

    tank_T is the committed energy the cycle's decision used; h_est is the
    ledger-implied kinetic energy, the tank's capacity minus tank_T. h_truth is
    carried along for logging only and never read by the controller.
    """

    k: int
    t: float
    active_region: str
    alpha: float
    f_des: np.ndarray
    f_c: np.ndarray
    f_e: np.ndarray
    b: float
    p_ext: float
    tank_T: float
    epsilon: float
    h_est: float
    h_truth: float
    x: np.ndarray
    xdot: np.ndarray


class SafetyController:
    """Stateful per-cycle controller: supervise, damp, scale, account.

    Owns the tank, charged with t_initial for a robot that starts with
    h_initial of kinetic energy.  Reads only PlantObservation fields, never
    the plant; the kinetic-energy estimate it logs comes from the tank ledger
    alone.  Every scheduled region's floor is derived and checked when the
    controller is built, so cycle k only picks the floor of the region in force
    at k tau + tau / 2: half a tick of slack for a switch time's float dust.
    """

    def __init__(self, gains: PdGains, schedule: RegionSchedule, t_initial: float,
                 h_initial: float, tau: float, *, damper_band: float = DAMPER_BAND):
        if not 0 < tau < math.inf:
            raise DomainError(f"tau must be positive and finite, got {tau!r}")
        if not 0 <= damper_band < math.inf:
            raise DomainError(
                f"damper band must be non-negative and finite, got {damper_band!r}")
        self.tau = float(tau)
        self.damper_band = float(damper_band)
        self._pd = tuple(zip(gains.kp, gains.kd, gains.target))  # per axis
        self._floors = schedule.floors(t_initial, h_initial)
        self.tank = make_tank(t_initial, self._floors[0], h_initial)
        # the last cycle's (xdot as floats, f_c or None if all zero, f_e, whether
        # f_e has a non-zero entry, b, floor, calm), booked at the next sample
        self._pending: tuple | None = None
        self._deficit = False
        self._k = self._idx = 0  # the cycle and the active region's index only grow
        self._switches = (*schedule.times[1:], math.nan)  # no probe passes the NaN
        self._names = tuple(region.name for region in schedule.regions)

    @property
    def in_deficit(self) -> bool:
        return self._deficit

    def _commit_pending(self, xdot_now: list, speed_sq: float):
        """Book the last cycle's interval; speed_sq is xdot_now . xdot_now (or inf)."""
        xdot, f_c, f_e, pushed, b, floor, calm = self._pending
        calm = calm and speed_sq < 1e300
        if f_c is not None or not calm:
            mid = []
            for v, w in zip(xdot, xdot_now):
                mid.append(0.5 * (v + w))
            v_mid = np.array(mid)
        # calm: b and pushed are 0, and 0.0 stands for a finite v_mid . v_mid
        speed_sq = 0.0 if calm else float(v_mid.dot(v_mid))
        p_in = float(f_e.dot(v_mid)) if pushed or not speed_sq < math.inf else 0.0
        p_task = 0.0 if f_c is None else float(f_c.dot(v_mid))
        self.tank = commit_step(self.tank, p_task, p_in, b * speed_sq, self.tau, floor=floor)
        self._pending = None

    def control_cycle(self, obs: PlantObservation,
                      h_truth: float = float("nan")) -> tuple[np.ndarray, ControlTick]:
        """Run one cycle; returns the wrench to command and the tick record.

        The returned wrench includes the damper share b xd, so the plant applies
        -(f_c + b xd) + f_e in total.  The observation's arrays are kept, not
        copied, in the tick and in the interval booked next cycle, so the caller
        must not change them, nor the wrench returned: at alpha 1 the tick's f_c
        and f_des may be one array, and the wrench may be the tick's f_c array.
        """
        k = self._k
        tau = self.tau
        t = k * tau
        x, xdot, f_e = obs.x, obs.xdot, obs.f_e
        v = xdot.tolist()
        speed_sq = float(xdot.dot(xdot))  # before the commit, which bounds it

        # settle the previous interval with its trapezoidal velocity first,
        # then let the schedule move the floor for this cycle
        if self._pending is not None:
            self._commit_pending(v, speed_sq)
        idx = self._idx
        while self._switches[idx] <= t + 0.5 * tau:
            idx += 1
        if idx != self._idx:
            self._idx = idx
            self.tank = supervise(self._floors, idx, self.tank)
        tank = self.tank

        t_now = tank.energy
        eps = tank.epsilon
        if self._deficit and t_now >= eps:
            self._deficit = False
        elif not self._deficit and t_now < eps - FLOOR_TOL:
            self._deficit = True

        # -(kp (target - x) - kd xd): the PD force, negated onto the tank port
        des = []
        for (kp, kd, tg), xi, vi in zip(self._pd, x.tolist(), v):
            des.append(-(kp * (tg - xi) - kd * vi))
        f_des = np.array(des)
        finite = speed_sq < math.inf
        pushed = any(f_e.tolist())
        p_in = float(f_e.dot(xdot)) if pushed or not finite else 0.0
        b = damper_coefficient(p_in, speed_sq, tank, tol_b=self.damper_band)
        p_ext = -p_in + b * speed_sq
        avail = t_now + tau * p_ext
        if not self._deficit and avail < eps - FLOOR_TOL:
            raise EmergencyFault(
                "zero-scale command infeasible "
                f"(T = {t_now!r}, epsilon = {eps!r}, p_ext = {p_ext!r}); "
                "the damper band is too narrow for this wrench")

        alpha = solve_alpha(f_des, xdot, t_now, eps + FEASIBILITY_MARGIN, tau, p_ext)
        f_c = f_des if alpha == 1.0 else f_des * alpha
        scaled = des if f_c is f_des else f_c.tolist()
        floor = None if self._deficit else eps - FEASIBILITY_MARGIN
        self._pending = (v, f_c if any(scaled) else None, f_e, pushed, b, floor,
                         b == 0.0 and not pushed and speed_sq < 1e300)

        tick = tuple.__new__(ControlTick, (
            k, t, self._names[idx], alpha, f_des, f_c, f_e, b, p_ext, t_now, eps,
            tank.capacity - t_now, float(h_truth), x, xdot))
        self._k = k + 1
        if b == 0.0 and finite:
            return f_c, tick
        command = []
        for f, vi in zip(scaled, v):
            command.append(f + b * vi)
        return np.array(command), tick

    def finalize(self, xdot_final: np.ndarray) -> TankState:
        """Commit the last interval once the final velocity sample exists."""
        if self._pending is not None:
            self._commit_pending(np.asarray(xdot_final, dtype=float).tolist(), math.inf)
        return self.tank
