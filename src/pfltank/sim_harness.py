"""Closed-loop scenario runner and log tooling.

A Scenario bundles one plant, one PD task, a body-region schedule, scripted
external wrenches, and the tank sizing.  run() executes the fixed-step loop

    observe -> settle previous interval -> supervise -> damp -> scale -> apply

and returns the full tick log plus a summary that is recomputable from the
log alone.  Runs are deterministic: the same scenario reproduces the log
bit-exactly.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .energy_tank import DAMPER_BAND, EPSILON_MIN, make_tank
from .errors import ConfigError, DomainError, EmergencyFault, IntegrationFault
from .iso15066 import RobotMassSpec, robot_effective_mass, v_max
from .robot_dynamics import CartesianPlant, PlanarArm, PlantState, WrenchInput
from .safety_controller import (
    FEASIBILITY_MARGIN,
    ControlTick,
    PdGains,
    PlantObservation,
    RegionSchedule,
    SafetyController,
)

__all__ = [
    "CartesianPlantConfig",
    "PlanarArmConfig",
    "WrenchSegment",
    "Scenario",
    "RunResult",
    "SegmentSummary",
    "Summary",
    "make_plant",
    "wrench_at",
    "run",
    "summarize",
    "write_ticks_csv",
    "read_ticks_csv",
]

log = logging.getLogger(__name__)

_AXES = "xyz"


@dataclass(frozen=True)
class CartesianPlantConfig:
    inertia: tuple
    x0: tuple
    v0: tuple


@dataclass(frozen=True)
class PlanarArmConfig:
    l1: float = 0.5
    l2: float = 0.5
    m1: float = 4.0
    m2: float = 4.0
    inertia1: float | None = None
    inertia2: float | None = None
    q0: tuple = (0.0, 0.0)
    qd0: tuple = (0.0, 0.0)
    gravity: float = 9.81


@dataclass(frozen=True)
class WrenchSegment:
    """Constant external wrench active on [t_start, t_end)."""

    t_start: float
    t_end: float
    force: tuple

    def __post_init__(self):
        if not self.t_end > self.t_start:
            raise ConfigError(
                f"wrench segment must have t_end > t_start, got "
                f"[{self.t_start!r}, {self.t_end!r})")


@dataclass(frozen=True)
class Scenario:
    """Complete, self-contained description of one closed-loop run."""

    name: str
    plant: CartesianPlantConfig | PlanarArmConfig
    gains: PdGains
    schedule: RegionSchedule
    t_initial: float
    wrench_script: tuple = ()
    tau: float = 1e-3
    duration: float = 10.0
    feasibility_margin: float = FEASIBILITY_MARGIN
    damper_band: float = DAMPER_BAND
    iso_mass: RobotMassSpec | None = None

    def __post_init__(self):
        if not self.tau > 0:
            raise ConfigError(f"tau must be positive, got {self.tau!r}")
        if not self.duration > 0:
            raise ConfigError(f"duration must be positive, got {self.duration!r}")
        if not self.t_initial > 0:
            raise ConfigError(f"initial tank energy must be positive, got {self.t_initial!r}")


def make_plant(cfg):
    if isinstance(cfg, CartesianPlantConfig):
        return CartesianPlant(cfg.inertia, cfg.x0, cfg.v0)
    if isinstance(cfg, PlanarArmConfig):
        return PlanarArm(l1=cfg.l1, l2=cfg.l2, m1=cfg.m1, m2=cfg.m2,
                         inertia1=cfg.inertia1, inertia2=cfg.inertia2,
                         q0=cfg.q0, qdot0=cfg.qd0, gravity=cfg.gravity)
    raise ConfigError(f"unknown plant config {type(cfg).__name__}")


def wrench_at(script, t: float, m: int, slack: float = 0.0) -> np.ndarray:
    """Sum of all scripted wrenches active at time t (overlaps add)."""
    total = np.zeros(m)
    shifted = t + slack
    for seg in script:
        if seg.t_start <= shifted < seg.t_end:
            total += np.asarray(seg.force, dtype=float)
    return total


def initial_epsilons(scenario: Scenario, h_initial: float) -> list[float]:
    """Floor value each scheduled region implies; validates them all."""
    floors = []
    for region, energy in zip(scenario.schedule.regions, scenario.schedule.energies):
        eps = scenario.t_initial - energy + h_initial
        if eps < EPSILON_MIN:
            raise ConfigError(
                f"region {region.name!r} needs {energy!r} J of budget but the tank "
                f"holds {scenario.t_initial!r} J; floor would be {eps!r} J, "
                f"under the minimum {EPSILON_MIN!r} J")
        floors.append(eps)
    return floors


@dataclass
class RunResult:
    scenario: Scenario
    ticks: list
    summary: "Summary | None"
    fault: str | None
    final_plant: PlantState | None
    final_tank_energy: float | None
    discarded_energy: float = 0.0


def run(scenario: Scenario) -> RunResult:
    """Execute the scenario; on a fault, return the partial log instead of raising."""
    plant = make_plant(scenario.plant)
    h_initial = plant.kinetic_energy
    floors = initial_epsilons(scenario, h_initial)
    tank = make_tank(scenario.t_initial, floors[0], h_initial)
    controller = SafetyController(
        scenario.gains, scenario.schedule, tank, scenario.tau,
        feasibility_margin=scenario.feasibility_margin,
        damper_band=scenario.damper_band)

    n_steps = int(round(scenario.duration / scenario.tau))
    if n_steps < 1:
        raise ConfigError("duration must cover at least one cycle")
    m = plant.m
    half = 0.5 * scenario.tau

    ticks: list[ControlTick] = []
    fault = None
    final_plant = None
    try:
        for k in range(n_steps):
            t = k * scenario.tau
            f_e = wrench_at(scenario.wrench_script, t, m, slack=half)
            obs = PlantObservation(x=plant.pose, xdot=plant.twist, f_e=f_e)
            command, tick = controller.control_cycle(obs, h_truth=plant.kinetic_energy)
            ticks.append(tick)
            plant.step(WrenchInput(f_c=command, f_e=f_e), scenario.tau)
        controller.finalize(plant.twist)
        final_plant = plant.state()
    except IntegrationFault as exc:
        fault = "integration"
        log.error("scenario %s: integration fault: %s", scenario.name, exc)
    except EmergencyFault as exc:
        fault = "emergency"
        log.error("scenario %s: emergency fault: %s", scenario.name, exc)

    summary = None
    if ticks:
        summary = summarize(ticks)
        summary.scenario = scenario.name
        summary.fault = fault
        _attach_iso_comparison(summary, scenario)
    return RunResult(scenario=scenario, ticks=ticks, summary=summary, fault=fault,
                     final_plant=final_plant,
                     final_tank_energy=controller.tank.energy,
                     discarded_energy=controller.tank.discarded)


@dataclass
class SegmentSummary:
    region: str
    t_start: float
    t_end: float
    ticks: int
    h_max: float
    speed_max: float
    energy_bound: float
    time_above_bound: float
    v_max_quasi_static: float | None = None
    v_max_transient: float | None = None
    exceeded_quasi_static: bool | None = None
    exceeded_transient: bool | None = None


@dataclass
class Summary:
    """Derived per-run figures; every field except the ISO comparison is a
    pure function of the tick log."""

    scenario: str
    n_ticks: int
    tau: float
    t_final: float
    segments: list
    min_tank: float
    min_tank_minus_epsilon: float
    conservation_residual: float
    h_est_error_max: float
    damper_energy: float
    injection_excess: float
    fault: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def summarize(ticks) -> Summary:
    """Reduce a tick log to the run summary.  Pure; raises on an empty log."""
    if not ticks:
        raise DomainError("cannot summarize an empty tick log")
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
            speed_max=max(float(np.linalg.norm(tk.xdot)) for tk in chunk),
            energy_bound=bound,
            time_above_bound=above * tau,
        ))
        start = i

    damper_energy = 0.0
    injection = 0.0
    for prev, nxt in zip(ticks, ticks[1:]):
        if prev.b > 0.0:
            v_mid = 0.5 * (prev.xdot + nxt.xdot)
            damper_energy += tau * prev.b * float(v_mid @ v_mid)
            injection += tau * float(prev.f_e @ v_mid)

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


def _attach_iso_comparison(summary: Summary, scenario: Scenario):
    """Fill in the standard's velocity limits where the data exists."""
    if scenario.iso_mass is None:
        return
    m_r = robot_effective_mass(scenario.iso_mass)
    by_name = {r.name: r for r in scenario.schedule.regions}
    for seg in summary.segments:
        region = by_name.get(seg.region)
        if region is None or region.f_max is None or region.k is None \
                or region.m_h is None:
            continue
        seg.v_max_quasi_static = v_max(region, m_r, "quasi_static")
        seg.v_max_transient = v_max(region, m_r, "transient")
        seg.exceeded_quasi_static = seg.speed_max > seg.v_max_quasi_static
        seg.exceeded_transient = seg.speed_max > seg.v_max_transient


# -- tick log I/O -------------------------------------------------------------

def _tick_columns(m: int) -> list[str]:
    cols = ["k", "t", "active_region", "alpha"]
    for stem in ("f_des", "f_c", "f_e"):
        cols += [f"{stem}_{_AXES[i]}" for i in range(m)]
    cols += ["b", "p_ext", "tank_T", "epsilon", "h_est", "h_truth"]
    for stem in ("x", "xdot"):
        cols += [f"{stem}_{_AXES[i]}" for i in range(m)]
    return cols


def _fmt(value: float) -> str:
    # shortest representation that round-trips the double exactly
    return repr(float(value))


def write_ticks_csv(path, ticks):
    if not ticks:
        raise DomainError("refusing to write an empty tick log")
    m = len(ticks[0].xdot)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_tick_columns(m))
        for tk in ticks:
            row = [str(tk.k), _fmt(tk.t), tk.active_region, _fmt(tk.alpha)]
            for vec in (tk.f_des, tk.f_c, tk.f_e):
                row += [_fmt(v) for v in vec]
            row += [_fmt(tk.b), _fmt(tk.p_ext), _fmt(tk.tank_T), _fmt(tk.epsilon),
                    _fmt(tk.h_est), _fmt(tk.h_truth)]
            for vec in (tk.x, tk.xdot):
                row += [_fmt(v) for v in vec]
            writer.writerow(row)


def read_ticks_csv(path) -> list[ControlTick]:
    """Inverse of write_ticks_csv; floats round-trip exactly."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DomainError(f"{path}: empty tick log")
        m = sum(1 for c in reader.fieldnames if c.startswith("xdot_"))
        if m == 0:
            raise DomainError(f"{path}: no velocity columns found")
        ticks = []
        for row in reader:
            def vec(stem):
                return np.array([float(row[f"{stem}_{_AXES[i]}"]) for i in range(m)])
            ticks.append(ControlTick(
                k=int(row["k"]), t=float(row["t"]),
                active_region=row["active_region"], alpha=float(row["alpha"]),
                f_des=vec("f_des"), f_c=vec("f_c"), f_e=vec("f_e"),
                b=float(row["b"]), p_ext=float(row["p_ext"]),
                tank_T=float(row["tank_T"]), epsilon=float(row["epsilon"]),
                h_est=float(row["h_est"]), h_truth=float(row["h_truth"]),
                x=vec("x"), xdot=vec("xdot"),
            ))
    if not ticks:
        raise DomainError(f"{path}: empty tick log")
    return ticks
