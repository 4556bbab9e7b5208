"""Energy-tank speed limiting for power- and force-limited collaboration.

The package wires three layers together: ISO/TS 15066 body-region limit
tables (:mod:`pfltank.iso15066`), a modulated energy tank with a time-varying
floor (:mod:`pfltank.energy_tank`), and a passivity-preserving command filter
(:mod:`pfltank.safety_controller`) that scales the task force so the
manipulator's kinetic energy can never outrun the active limit.
:mod:`pfltank.sim_harness` closes the loop against either a constant-inertia
Cartesian plant or a planar two-link arm and emits verifiable per-cycle logs.

The package namespace holds what a caller needs to build a Scenario, run it,
catch its errors and read or write its log; everything else imports from its
module.
"""

from .errors import DomainError, EmergencyFault, IntegrationFault
from .iso15066 import BodyRegion, RobotMassSpec
from .robot_dynamics import CartesianPlant, PlanarArm
from .safety_controller import PdGains, RegionSchedule
from .sim_harness import (
    Scenario,
    WrenchSegment,
    read_ticks_csv,
    run,
    summarize,
    write_ticks_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BodyRegion",
    "CartesianPlant",
    "DomainError",
    "EmergencyFault",
    "IntegrationFault",
    "PdGains",
    "PlanarArm",
    "RegionSchedule",
    "RobotMassSpec",
    "Scenario",
    "WrenchSegment",
    "read_ticks_csv",
    "run",
    "summarize",
    "write_ticks_csv",
]
