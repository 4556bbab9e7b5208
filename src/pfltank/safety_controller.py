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
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace

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
from .errors import ConfigError, EmergencyFault
from .iso15066 import BodyRegion, max_energy

__all__ = [
    "PdGains",
    "PlantObservation",
    "RegionSchedule",
    "ControlTick",
    "SafetyController",
    "pd_force",
    "solve_alpha",
    "supervise",
]

#: Slack (J) added to the optimizer's floor so that the committed
#: (trapezoidal) energy cannot undershoot the real floor.
FEASIBILITY_MARGIN = 5e-4


@dataclass(frozen=True)
class PdGains:
    """Per-axis proportional/derivative gains and the pose setpoint."""

    kp: np.ndarray
    kd: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        for label in ("kp", "kd", "target"):
            object.__setattr__(self, label, np.array(getattr(self, label), dtype=float))
        if not (self.kp.shape == self.kd.shape == self.target.shape):
            raise ConfigError("kp, kd and target must have matching shapes")
        if not np.all(np.isfinite((self.kp, self.kd, self.target))):
            raise ConfigError("kp, kd and target must be finite")
        if np.any(self.kp < 0) or np.any(self.kd < 0):
            raise ConfigError("PD gains must be non-negative")


@dataclass(slots=True)
class PlantObservation:
    """Everything the controller is allowed to see: pose, twist, external
    wrench, as float arrays.  Deliberately free of inertia, joint state, or
    plant internals."""

    x: np.ndarray
    xdot: np.ndarray
    f_e: np.ndarray


def pd_force(gains: PdGains, x, xdot) -> np.ndarray:
    """Plain PD attraction kp (target - x) - kd xd, in the plant frame."""
    return gains.kp * (gains.target - x) - gains.kd * xdot


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
    c = tau * float(f_des @ xdot)
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
        times = tuple(float(t) for t in self.times)
        regions = tuple(self.regions)
        if len(times) != len(regions):
            raise ConfigError(
                f"schedule has {len(times)} switch times but {len(regions)} regions")
        if not times:
            raise ConfigError("schedule cannot be empty")
        if times[0] != 0.0:
            raise ConfigError(f"first schedule entry must be at t = 0, got {times[0]!r}")
        for a, b in zip(times, times[1:]):
            if not b > a:
                raise ConfigError("switch times must be strictly increasing")
        for region in regions:
            if not isinstance(region, BodyRegion):
                raise ConfigError(f"schedule entries need BodyRegion values, got {region!r}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "regions", regions)
        object.__setattr__(self, "energies", tuple(max_energy(r) for r in regions))

    def active_index(self, time: float, slack: float = 0.0) -> int:
        """Index of the region governing ``time``; ``slack`` forgives float
        dust so a switch scripted at a tick boundary lands on that tick."""
        idx = bisect.bisect_right(self.times, time + slack) - 1
        return max(idx, 0)

    def floors(self, t_initial: float, h_initial: float) -> tuple:
        """The tank floor each region implies for a tank that started with
        t_initial and a robot that started with h_initial of kinetic energy.
        Raises ConfigError, naming the region, for a floor under EPSILON_MIN."""
        floors = []
        for region, energy in zip(self.regions, self.energies):
            eps = t_initial - energy + h_initial
            if eps < EPSILON_MIN:
                raise ConfigError(
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
    return replace(tank, epsilon=eps)


@dataclass(slots=True)
class ControlTick:
    """One cycle's record, in the column order of the CSV log.

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
    controller is built, so a cycle only picks one.
    """

    def __init__(self, gains: PdGains, schedule: RegionSchedule, t_initial: float,
                 h_initial: float, tau: float, *, damper_band: float = DAMPER_BAND):
        if not 0 < tau < math.inf:
            raise ConfigError(f"tau must be positive and finite, got {tau!r}")
        if not 0 <= damper_band < math.inf:
            raise ConfigError(
                f"damper band must be non-negative and finite, got {damper_band!r}")
        self.gains = gains
        self.schedule = schedule
        self.tau = float(tau)
        self.damper_band = float(damper_band)
        self._floors = schedule.floors(t_initial, h_initial)
        self.tank = make_tank(t_initial, self._floors[0], h_initial)
        # the last cycle's (xdot, f_c, f_e, b, floor), booked once the next
        # velocity sample exists
        self._pending: tuple | None = None
        self._deficit = False
        self._k = 0

    @property
    def in_deficit(self) -> bool:
        return self._deficit

    def _commit_pending(self, xdot_now: np.ndarray):
        xdot, f_c, f_e, b, floor = self._pending
        v_mid = 0.5 * (xdot + xdot_now)
        self.tank = commit_step(self.tank, float(f_c @ v_mid), f_e, v_mid, b,
                                self.tau, floor=floor)
        self._pending = None

    def control_cycle(self, obs: PlantObservation,
                      h_truth: float = float("nan")) -> tuple[np.ndarray, ControlTick]:
        """Run one cycle; returns the wrench to command and the tick record.

        The returned wrench already includes the damper share b xd, so the
        plant applies -(f_c + b xd) + f_e in total.  The observation's arrays
        are kept, not copied, in the tick record and in the interval booked
        next cycle, so each cycle needs fresh arrays.
        """
        k = self._k
        tau = self.tau
        t = k * tau
        xdot = obs.xdot
        f_e = obs.f_e

        # settle the previous interval with its trapezoidal velocity first,
        # then let the schedule move the floor for this cycle
        if self._pending is not None:
            self._commit_pending(xdot)
        idx = self.schedule.active_index(t, 0.5 * tau)
        self.tank = tank = supervise(self._floors, idx, self.tank)

        t_now = tank.energy
        eps = tank.epsilon
        if self._deficit and t_now >= eps:
            self._deficit = False
        elif not self._deficit and t_now < eps - FLOOR_TOL:
            self._deficit = True

        f_des = -pd_force(self.gains, obs.x, xdot)
        p_in = float(f_e @ xdot)
        speed_sq = float(xdot @ xdot)
        b = damper_coefficient(p_in, speed_sq, tank, tol_b=self.damper_band)
        p_ext = -p_in + b * speed_sq
        avail = t_now + tau * p_ext
        if not self._deficit and avail < eps - FLOOR_TOL:
            raise EmergencyFault(
                "zero-scale command infeasible "
                f"(T = {t_now!r}, epsilon = {eps!r}, p_ext = {p_ext!r}); "
                "the damper band is too narrow for this wrench")

        alpha = solve_alpha(f_des, xdot, t_now, eps + FEASIBILITY_MARGIN, tau, p_ext)
        f_c = alpha * f_des
        floor = None if self._deficit else eps - FEASIBILITY_MARGIN
        self._pending = (xdot, f_c, f_e, b, floor)

        tick = ControlTick(k, t, self.schedule.regions[idx].name, alpha, f_des, f_c,
                           f_e, b, p_ext, t_now, eps, tank.capacity - t_now,
                           float(h_truth), obs.x, xdot)
        self._k = k + 1
        return f_c + b * xdot, tick

    def finalize(self, xdot_final: np.ndarray) -> TankState:
        """Commit the last interval once the final velocity sample exists."""
        if self._pending is not None:
            self._commit_pending(np.asarray(xdot_final, dtype=float))
        return self.tank
