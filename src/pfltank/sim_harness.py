"""Closed-loop scenario runner and log tooling.

A Scenario bundles one plant, one PD task, a body-region schedule, scripted
external wrenches, and the tank sizing.  run() executes the fixed-step loop

    observe -> settle previous interval -> supervise -> damp -> scale -> apply

and returns the full tick log plus a summary that is recomputable from the
log alone.  Runs are deterministic: the same scenario reproduces the log
bit-exactly.
"""

from __future__ import annotations

import copy
import csv
import io
import logging
import math
from dataclasses import asdict, dataclass, fields
from itertools import islice
from operator import attrgetter
from pathlib import Path

import numpy as np

from .energy_tank import DAMPER_BAND
from .errors import ConfigError, DomainError, EmergencyFault, IntegrationFault
from .iso15066 import RobotMassSpec, robot_effective_mass, v_max
from .robot_dynamics import CartesianPlant, PlanarArm, PlantState, WrenchInput
from .safety_controller import (
    ControlTick,
    PdGains,
    PlantObservation,
    RegionSchedule,
    SafetyController,
)

__all__ = [
    "WrenchSegment",
    "Scenario",
    "RunResult",
    "SegmentSummary",
    "Summary",
    "wrench_at",
    "run",
    "summarize",
    "write_ticks_csv",
    "read_ticks_csv",
]

log = logging.getLogger(__name__)

_AXES = "xyz"


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
        if not np.all(np.isfinite(np.asarray(self.force, dtype=float))):
            raise ConfigError(f"wrench force must be finite, got {self.force!r}")


@dataclass(frozen=True)
class Scenario:
    """Complete, self-contained description of one closed-loop run.

    ``plant`` is the plant at its initial state; run() steps a copy of it, so
    a scenario runs again byte for byte.  Building a Scenario checks that the
    gains and wrench forces have one entry per plant axis and runs run()'s
    set-up, so every scenario that builds is one that run() can start.
    """

    name: str
    plant: CartesianPlant | PlanarArm
    gains: PdGains
    schedule: RegionSchedule
    t_initial: float
    wrench_script: tuple = ()
    tau: float = 1e-3
    duration: float = 10.0
    damper_band: float = DAMPER_BAND
    iso_mass: RobotMassSpec | None = None

    def __post_init__(self):
        # finite as well as positive: the cycle count is duration / tau
        if not 0 < self.duration < math.inf:
            raise ConfigError(f"duration must be positive and finite, got {self.duration!r}")
        m = self.plant.m
        if m > len(_AXES):  # the tick log names the axes x, y and z
            raise ConfigError(f"plant: at most {len(_AXES)} axes are supported, got {m}")
        if self.gains.kp.shape != (m,):
            raise ConfigError(f"kp, kd and target need one entry per plant axis ({m}), "
                              f"got shape {self.gains.kp.shape}")
        for i, seg in enumerate(self.wrench_script):
            if np.shape(seg.force) != (m,):
                raise ConfigError(f"wrench_script[{i}].force needs one entry per plant "
                                  f"axis ({m}), got shape {np.shape(seg.force)}")
        _start(self)  # the controller checks tau
        # n_cycles >= 1 exactly when the ratio exceeds 0.5; a subnormal tau
        # can still overflow it
        if not 0.5 < self.duration / self.tau < math.inf:
            raise ConfigError(
                f"duration must cover at least one cycle and finitely many, got "
                f"{self.duration!r} s at tau = {self.tau!r} s")

    @property
    def n_cycles(self) -> int:
        return int(round(self.duration / self.tau))


def wrench_at(script, t: float, m: int, slack: float = 0.0) -> np.ndarray:
    """Sum of all scripted wrenches active at time t (overlaps add)."""
    total = np.zeros(m)
    shifted = t + slack
    for seg in script:
        if seg.t_start <= shifted < seg.t_end:
            total += seg.force
    return total


def initial_epsilons(scenario: Scenario, h_initial: float) -> list[float]:
    """Floor value each scheduled region implies; validates them all."""
    return list(scenario.schedule.floors(scenario.t_initial, h_initial))


def _start(scenario: Scenario):
    """run()'s set-up: a copy of the plant, its initial state, and the
    controller, which sizes its tank for every scheduled region's floor.
    Raises ConfigError where the scenario cannot start."""
    plant = copy.deepcopy(scenario.plant)
    state = plant.state()
    controller = SafetyController(
        scenario.gains, scenario.schedule, scenario.t_initial,
        state.kinetic_energy_truth, scenario.tau, damper_band=scenario.damper_band)
    return plant, state, controller


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
    """Execute the scenario; on a fault, return the partial log instead of raising.

    The scenario was validated when it was built and the loop does not check
    it again; per cycle only the wrench handed to the plant, the plant's new
    state and the tank's commit are checked.  Those checks catch every
    non-finite value, so numpy's floating-point warnings are silenced.
    """
    plant, state, controller = _start(scenario)
    tau = scenario.tau
    m = plant.m
    half = 0.5 * tau
    script = scenario.wrench_script

    ticks: list[ControlTick] = []
    fault = None
    final_plant = None
    try:
        with np.errstate(all="ignore"):
            for k in range(scenario.n_cycles):
                f_e = wrench_at(script, k * tau, m, slack=half)
                # each step's fresh PlantState is the next cycle's observation
                command, tick = controller.control_cycle(
                    PlantObservation(x=state.x, xdot=state.xdot, f_e=f_e),
                    h_truth=state.kinetic_energy_truth)
                ticks.append(tick)
                state = plant.step(WrenchInput(f_c=command, f_e=f_e), tau)
            controller.finalize(state.xdot)
        final_plant = state
    except (IntegrationFault, DomainError) as exc:
        # a DomainError here is WrenchInput refusing a non-finite command,
        # e.g. an overflowing PD force; the plant cannot take the step
        fault = "integration"
        log.error("scenario %s: integration fault at cycle %d: %s",
                  scenario.name, k, exc)
    except EmergencyFault as exc:
        fault = "emergency"
        log.error("scenario %s: emergency fault at cycle %d: %s", scenario.name, k, exc)

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
            # ndarray.dot gives @'s bits (bar a zero's sign at one axis) at half the
            # call overhead; a Python-float sum would round differently, moving bytes
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
#
# The CSV columns follow ControlTick's fields in order; each vector field
# spreads over one column per axis.  Both directions work on blocks of
# _CHUNK rows, so the extra memory they hold stays bounded by the block.
# The writer formats the fields itself, exactly as csv.writer's default
# dialect would: floats by repr, k by str, commas between fields, "\r\n"
# after each row, and the region name quoted where csv quotes it.

_CHUNK = 256
_VECTORS = {"f_des", "f_c", "f_e", "x", "xdot"}
_FIELDS = [f.name for f in fields(ControlTick)]


def _field_columns(name: str, m: int) -> list[str]:
    if name in _VECTORS:
        return [f"{name}_{_AXES[i]}" for i in range(m)]
    return [name]


def _tick_columns(m: int) -> list[str]:
    return [col for name in _FIELDS for col in _field_columns(name, m)]


def _csv_field(text: str) -> str:
    """text as csv.writer writes it between other fields of a row."""
    buf = io.StringIO()
    csv.writer(buf).writerow((text, ""))
    return buf.getvalue()[:-3]  # the empty field's "," and the "\r\n"


def write_ticks_csv(path, ticks):
    """Write the tick log; every float as its shortest exact repr."""
    if not ticks:
        raise DomainError("refusing to write an empty tick log")
    m = len(ticks[0].xdot)
    region_fields = {}
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_tick_columns(m)) + "\r\n")
        for start in range(0, len(ticks), _CHUNK):
            chunk = ticks[start:start + _CHUNK]
            columns = []
            for name in _FIELDS:
                values = list(map(attrgetter(name), chunk))
                if name == "k":
                    columns.append(map(str, values))
                elif name == "active_region":
                    for region in set(values) - region_fields.keys():
                        region_fields[region] = _csv_field(region)
                    columns.append(map(region_fields.__getitem__, values))
                elif name in _VECTORS:
                    # tolist() yields Python floats; repr is csv's format for them
                    for column in np.array(values, dtype=float).reshape(-1, m).T.tolist():
                        columns.append(map(repr, column))
                else:
                    columns.append(map(repr, np.array(values, dtype=float).tolist()))
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def read_ticks_csv(path) -> list[ControlTick]:
    """Inverse of write_ticks_csv; floats round-trip exactly.

    A malformed log raises DomainError naming the file and the missing
    columns or the offending line.
    """
    path = Path(path)
    ticks = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            layout = _column_layout(header, path)
            while True:
                rows, lines = [], []
                for row in islice(reader, _CHUNK):
                    if not row:
                        continue  # blank line
                    if len(row) != len(header):
                        raise DomainError(
                            f"{path}: line {reader.line_num}: expected "
                            f"{len(header)} fields, got {len(row)}")
                    rows.append(row)
                    lines.append(reader.line_num)
                if not rows:
                    break
                ticks += _parse_rows(rows, lines, layout, path)
        except csv.Error as exc:
            raise DomainError(f"{path}: line {reader.line_num}: {exc}") from None
    if not ticks:
        raise DomainError(f"{path}: empty tick log")
    return ticks


def _column_layout(header, path) -> list[list[int]]:
    """Header positions of each ControlTick field's columns."""
    if header is None:
        raise DomainError(f"{path}: empty tick log")
    m = sum(1 for c in header if c.startswith("xdot_"))
    if m == 0:
        raise DomainError(f"{path}: no velocity columns found")
    position = {name: i for i, name in enumerate(header)}
    missing = [c for c in _tick_columns(m) if c not in position]
    if missing:
        raise DomainError(f"{path}: missing columns {missing}")
    return [[position[c] for c in _field_columns(name, m)] for name in _FIELDS]


def _parse_rows(rows, lines, layout, path) -> list[ControlTick]:
    try:
        return _ticks_from_rows(rows, layout)
    except ValueError:
        # find the row that failed, for the message
        for line, row in zip(lines, rows):
            try:
                _ticks_from_rows([row], layout)
            except ValueError as exc:
                raise DomainError(f"{path}: line {line}: {exc}") from None
        raise


def _ticks_from_rows(rows, layout) -> list[ControlTick]:
    columns = list(zip(*rows))
    values = []
    for name, cols in zip(_FIELDS, layout):
        if name == "k":
            values.append(map(int, columns[cols[0]]))
        elif name == "active_region":
            values.append(columns[cols[0]])
        elif name in _VECTORS:
            # one contiguous block per field; each tick holds a row of it
            block = np.array([list(map(float, columns[c])) for c in cols]).T.copy()
            values.append(list(block))
        else:
            values.append(list(map(float, columns[cols[0]])))
    return list(map(ControlTick, *values))
