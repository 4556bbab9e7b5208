"""Energy-tank speed limiting for power- and force-limited collaboration.

The package wires three layers together: ISO/TS 15066 body-region limit
tables (:mod:`pfltank.iso15066`), a modulated energy tank with a time-varying
floor (:mod:`pfltank.energy_tank`), and a passivity-preserving command filter
(:mod:`pfltank.safety_controller`) that scales the task force so the
manipulator's kinetic energy can never outrun the active limit.
:mod:`pfltank.sim_harness` closes the loop against either a constant-inertia
Cartesian plant or a planar two-link arm and emits verifiable per-cycle logs.
"""

from .errors import ConfigError, DomainError, EmergencyFault, IntegrationFault
from .iso15066 import (
    BUILTIN_REGIONS,
    BodyRegion,
    RobotMassSpec,
    apparent_mass,
    endpoint_mobility,
    max_energy,
    reduced_mass,
    robot_effective_mass,
    v_max,
)
from .energy_tank import (
    TankState,
    commit_step,
    damper_coefficient,
    make_tank,
)
from .robot_dynamics import CartesianPlant, PlanarArm, PlantState, WrenchInput
from .safety_controller import (
    ControlTick,
    PdGains,
    PlantObservation,
    RegionSchedule,
    SafetyController,
    pd_force,
    solve_alpha,
)
from .sim_harness import (
    RunResult,
    Scenario,
    SegmentSummary,
    Summary,
    WrenchSegment,
    read_ticks_csv,
    run,
    summarize,
    write_ticks_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_REGIONS",
    "BodyRegion",
    "CartesianPlant",
    "ConfigError",
    "ControlTick",
    "DomainError",
    "EmergencyFault",
    "IntegrationFault",
    "PdGains",
    "PlanarArm",
    "PlantObservation",
    "PlantState",
    "RegionSchedule",
    "RobotMassSpec",
    "RunResult",
    "SafetyController",
    "Scenario",
    "SegmentSummary",
    "Summary",
    "TankState",
    "WrenchInput",
    "WrenchSegment",
    "apparent_mass",
    "commit_step",
    "damper_coefficient",
    "endpoint_mobility",
    "make_tank",
    "max_energy",
    "pd_force",
    "read_ticks_csv",
    "reduced_mass",
    "robot_effective_mass",
    "run",
    "solve_alpha",
    "summarize",
    "v_max",
    "write_ticks_csv",
]
