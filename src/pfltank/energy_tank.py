"""Scalar modulated energy tank with floor and capacity accounting.

The tank stores T = x_t^2 / 2 and exchanges energy with the robot through
three channels per control interval: the task channel (work done by the
commanded force), the external channel (work done by the environment,
re-routed into the tank with opposite sign), and the emergency damper
channel (always non-negative).  Its lower bound epsilon encodes how much
kinetic energy the robot may still acquire; raising the bound immediately
tightens the budget.  make_tank checks the tank it builds; after that only
commit_step's faults guard it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, EmergencyFault

__all__ = [
    "TankState",
    "make_tank",
    "damper_coefficient",
    "commit_step",
]

#: Committed tank energy may sit below the floor by at most this much.
FLOOR_TOL = 1e-9
#: Default half-width of the band above epsilon in which the damper arms.
DAMPER_BAND = 1e-3
#: Speed (m/s) below which the damper quotient f_e.xd / xd.xd is unsafe.
V_FLOOR = 1e-6
#: Smallest admissible lower bound (J); keeps x_t = sqrt(2 T) away from 0.
EPSILON_MIN = 1e-3


@dataclass(frozen=True)
class TankState:
    """Immutable tank snapshot.

    ``capacity`` is the run's total energy t_initial + h_initial, the most the
    tank can ever legitimately hold; ``discarded`` accumulates surplus dumped
    at the capacity so the ledger stays exact.  Build the first one with
    make_tank, which checks it; commit_step builds the rest.
    """

    x_t: float
    epsilon: float
    capacity: float
    discarded: float = 0.0

    @property
    def energy(self) -> float:
        return 0.5 * self.x_t * self.x_t


def make_tank(t_initial: float, epsilon: float, h_initial: float = 0.0) -> TankState:
    """A tank charged with t_initial and floored at epsilon, for a robot that
    starts with h_initial of kinetic energy; the one place a tank is checked."""
    if not 0 < t_initial < math.inf:
        raise ConfigError(
            f"initial tank energy must be positive and finite, got {t_initial!r}")
    if not 0 <= h_initial < math.inf:
        raise ConfigError(
            f"initial kinetic energy must be non-negative and finite, got {h_initial!r}")
    if not epsilon > 0:
        raise ConfigError(f"epsilon must be positive, got {epsilon!r}")
    if epsilon > t_initial + FLOOR_TOL:
        raise ConfigError(
            f"initial tank energy {t_initial!r} is below the floor {epsilon!r}")
    return TankState(x_t=math.sqrt(2.0 * t_initial), epsilon=float(epsilon),
                     capacity=float(t_initial) + float(h_initial))


def damper_coefficient(p_in: float, speed_sq: float, state: TankState,
                       tol_b: float = DAMPER_BAND) -> float:
    """Emergency damping coefficient b >= 0 from the port's injected power
    p_in = f_e . xd and its squared speed speed_sq = xd . xd.

    Arms only when the environment is injecting power (p_in > 0) while the
    tank sits within tol_b of its floor, and the speed is above V_FLOOR.
    The value p_in / speed_sq makes the damper dissipate exactly the
    injected power, so the tank's external channel books zero net flow.
    """
    if p_in <= 0.0:
        return 0.0
    if state.energy > state.epsilon + tol_b:
        return 0.0
    if speed_sq <= V_FLOOR * V_FLOOR:
        return 0.0
    return p_in / speed_sq


def commit_step(state: TankState, p_task: float, f_e, xdot, b: float,
                tau: float, floor: float | None = None) -> TankState:
    """Book one interval's flows: T(k) = T(k-1) + tau (p_task - f_e.xd + b xd.xd).

    Surplus beyond the capacity is discarded and recorded.  ``floor`` is the
    energy level below which the commit is treated as an accounting fault;
    pass None while a raised bound is legitimately being worked off.
    """
    flow = p_task - float(f_e @ xdot) + b * float(xdot @ xdot)
    t_new = state.energy + tau * flow
    if not math.isfinite(t_new):
        raise EmergencyFault("tank update is not finite")
    discard = 0.0
    if t_new > state.capacity:
        discard = t_new - state.capacity
        t_new = state.capacity
    if floor is not None and t_new < floor - FLOOR_TOL:
        raise EmergencyFault(
            f"committed tank energy {t_new!r} fell under the floor {floor!r}; "
            "the optimizer or the damper band is mis-sized")
    if t_new <= 0.0:
        raise EmergencyFault(f"tank depleted: committed energy {t_new!r}")
    return TankState(math.sqrt(2.0 * t_new), state.epsilon, state.capacity,
                     state.discarded + discard)

