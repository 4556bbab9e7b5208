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
import itertools
import logging
import math
import os
import warnings
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from pathlib import Path

import numpy as np

from .energy_tank import DAMPER_BAND
from .errors import DomainError, EmergencyFault, IntegrationFault, _real, _reals
from .iso15066 import RobotMassSpec, _check_region_name, robot_effective_mass, v_max
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
    "TickLog",
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
    """Constant external wrench, a tuple of floats, active on [t_start, t_end)."""

    t_start: float
    t_end: float
    force: tuple

    def __post_init__(self):
        for label in ("t_start", "t_end"):
            object.__setattr__(self, label, _real(getattr(self, label), label))
        if not self.t_end > self.t_start:
            raise DomainError(f"wrench segment must have t_end > t_start, got "
                              f"[{self.t_start!r}, {self.t_end!r})")
        object.__setattr__(self, "force", _reals(self.force, "force"))


@dataclass(frozen=True)
class Scenario:
    """Complete, self-contained description of one closed-loop run.

    ``plant`` is the plant at its initial state; run() steps a copy of it, so
    a scenario runs again byte for byte.  Building a Scenario checks that the
    name is a non-empty printable str, holds tau, duration, t_initial and
    damper_band as finite floats, checks that the gains and wrench forces have
    one entry per plant axis, runs run()'s set-up and takes the ISO speed
    limits its summary will carry, so every scenario that builds is one that
    run() can start and summarize.
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
        # printed and logged as it is, so a line break must not forge a line
        if not (isinstance(self.name, str) and self.name and self.name.isprintable()):
            raise DomainError("a scenario name must be a non-empty printable string, "
                              f"got {self.name!r}")
        for label in ("tau", "duration", "t_initial", "damper_band"):
            object.__setattr__(self, label, _real(getattr(self, label), label))
        m = self.plant.m
        if m > len(_AXES):  # the tick log names the axes x, y and z
            raise DomainError(f"plant: at most {len(_AXES)} axes are supported, got {m}")
        if len(self.gains.kp) != m:
            raise DomainError(f"kp, kd and target need one entry per plant axis ({m}), "
                              f"got {len(self.gains.kp)}")
        object.__setattr__(self, "wrench_script", tuple(self.wrench_script))
        for i, seg in enumerate(self.wrench_script):
            if len(seg.force) != m:
                raise DomainError(f"wrench_script[{i}].force needs one entry per plant "
                                  f"axis ({m}), got {len(seg.force)}")
        # the active set changes only at a segment bound
        for t in sorted({b for s in self.wrench_script for b in (s.t_start, s.t_end)}):
            if not all(map(math.isfinite, _sum_active(self.wrench_script, t, m))):
                raise DomainError(f"wrench_script: the forces active at t = {t!r} s "
                                  "sum to a non-finite wrench")
        _start(self)  # the controller checks tau
        _iso_limits(self)  # refused here, not after the run
        # n_cycles >= 1 exactly when the ratio exceeds 0.5, which also refuses
        # a duration <= 0 or NaN; an infinite one, or a subnormal tau, overflows
        if not 0.5 < self.duration / self.tau < math.inf:
            raise DomainError(
                f"duration must cover at least one cycle and finitely many, got "
                f"{self.duration!r} s at tau = {self.tau!r} s")
        # a tick takes 80 + 40 m bytes of log (TickLog), and numpy sizes no
        # array past the largest intp
        if self.n_cycles * (80 + 40 * m) > np.iinfo(np.intp).max:
            raise DomainError(f"duration {self.duration!r} s at tau = {self.tau!r} s needs a "
                              f"tick log of more than {np.iinfo(np.intp).max} bytes")

    @property
    def n_cycles(self) -> int:
        return int(round(self.duration / self.tau))


def _sum_active(script, t: float, m: int) -> list:
    """The forces of the segments active at time t summed in script order, as
    floats: the bits of np.zeros(m) with each force added in turn."""
    total = [0.0] * m
    for seg in script:
        if seg.t_start <= t < seg.t_end:
            total = [a + f for a, f in zip(total, seg.force)]
    return total


def wrench_at(script, t: float, m: int) -> np.ndarray:
    """Sum of all scripted wrenches active at time t (overlaps add)."""
    return np.array(_sum_active(script, t, m))


def _wrench_table(script, n: int, tau: float, m: int) -> list:
    """The external wrench of each of n cycles, sampled at k tau + tau / 2 as
    run() samples it.  The cycles between the same two segment bounds share
    one array, so no cycle may change it in place."""
    samples = np.arange(n) * tau + 0.5 * tau
    bounds = sorted({b for seg in script for b in (seg.t_start, seg.t_end)})
    between = np.searchsorted(bounds, samples, side="right")
    starts = np.flatnonzero(np.diff(between, prepend=-1)).tolist()
    table = []
    for start, stop in zip(starts, [*starts[1:], n]):
        table += [wrench_at(script, samples[start].item(), m)] * (stop - start)
    return table


def initial_epsilons(scenario: Scenario, h_initial: float) -> list[float]:
    """Floor value each scheduled region implies; validates them all."""
    return list(scenario.schedule.floors(scenario.t_initial, h_initial))


def _start(scenario: Scenario):
    """run()'s set-up: a copy of the plant, its initial state, and the
    controller, which sizes its tank for every scheduled region's floor.
    Raises DomainError where the scenario cannot start."""
    plant = copy.deepcopy(scenario.plant)
    state = plant.state()
    controller = SafetyController(
        scenario.gains, scenario.schedule, scenario.t_initial,
        state.kinetic_energy_truth, scenario.tau, damper_band=scenario.damper_band)
    return plant, state, controller


@dataclass
class RunResult:
    scenario: Scenario
    ticks: "TickLog"
    summary: "Summary | None"
    fault: str | None
    final_plant: PlantState | None
    final_tank_energy: float | None
    discarded_energy: float = 0.0


def run(scenario: Scenario, ticks_csv=None) -> RunResult:
    """Execute the scenario; on a fault, return the partial log instead of raising.

    Given a path, ticks_csv, run() also writes the log there, the bytes that
    write_ticks_csv writes, as the loop goes: a helper process formats each
    block of the log into a temporary file next to the path, and run()
    renames that file onto the path once the helper is done.  So the file
    appears complete or not at all, and a run that logs no tick removes the
    file an earlier run left there.  A failed write raises OSError; on any
    exception the helper is stopped and its file removed.  Blocks go to the
    helper by non-blocking writes, buffered where its pipe is full, so the
    loop never waits on the helper and no thread runs beside the loop.

    The scenario, its wrench script included, was validated when it was built
    and the loop does not check it again; per cycle only the plant's new state
    and the tank's commit are checked.  A non-finite command makes the plant's
    new velocity non-finite on the same cycle (0 * inf is NaN), so the plant's
    check is also the command's.  These checks catch every non-finite value,
    so numpy's floating-point warnings are silenced.
    One PlantObservation is refilled each cycle, and the tick records are
    packed into the log's columns _CHUNK at a time.
    """
    if ticks_csv is None:
        return _run(scenario, None)
    # imported here, so that importing the package or a run without a path
    # compiles and holds none of it
    from ._tick_writer import Stream

    stream = Stream(ticks_csv, ",".join(_tick_columns(scenario.plant.m)))
    try:
        result = _run(scenario, stream)
        stream.close(bool(result.ticks))
    finally:
        stream.kill()
    return result


def _run(scenario: Scenario, stream) -> RunResult:
    """run(), each block of the log sent to stream as it is packed."""
    plant, state, controller = _start(scenario)
    tau = scenario.tau
    wrenches = _wrench_table(scenario.wrench_script, scenario.n_cycles, tau, plant.m)

    new_tuple = tuple.__new__
    obs = PlantObservation(state.x, state.xdot, None)
    ticks = TickLog._empty(scenario.n_cycles, plant.m)
    codes = _RegionCodes()
    block: list[ControlTick] = []
    written = 0
    fault = None
    final_plant = None
    try:
        with np.errstate(all="ignore"):
            for k, f_e in enumerate(wrenches):
                # each step's fresh PlantState is the next cycle's observation
                obs.x, obs.xdot, h_truth = state
                obs.f_e = f_e
                command, tick = controller.control_cycle(obs, h_truth)
                block.append(tick)
                # _make without its length check
                state = plant.step(new_tuple(WrenchInput, (command, f_e)), tau)
                if len(block) == _CHUNK:
                    ticks._put(written, block, codes)
                    if stream is not None:
                        stream.send(_block(ticks, written, written + _CHUNK), codes)
                    written += _CHUNK
                    block = []
            controller.finalize(state.xdot)
        final_plant = state
    except (IntegrationFault, DomainError) as exc:
        # a non-finite plant state or command, or a kinetic energy rounded below 0
        fault = "integration"
        log.error("scenario %s: integration fault at cycle %d: %s",
                  scenario.name, k, exc)
    except EmergencyFault as exc:
        fault = "emergency"
        log.error("scenario %s: emergency fault at cycle %d: %s", scenario.name, k, exc)
    ticks._put(written, block, codes)
    if stream is not None and block:
        stream.send(_block(ticks, written, written + len(block)), codes)
    ticks = ticks[:written + len(block)]
    ticks.region_names = list(codes)

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
        # every value is a str, a number, a bool or None: nothing to deep-copy.
        # __init__ sets every field in declared order, so vars() lists them so
        return {**vars(self), "segments": [dict(vars(seg)) for seg in self.segments]}


def summarize(ticks: TickLog) -> Summary:
    """Reduce a tick log to the run summary.  Pure; raises on an empty log.

    It reads the log's columns and gives the bits the tick-by-tick reduction
    gives: per-row products by stacked matmul, which rounds as ndarray.dot
    does; min and max by np.minimum.reduce and np.maximum.reduce, mended by
    _extreme where a NaN or a zero's sign differs; sums by np.add.accumulate,
    adding left to right as += does.  Scalars are read by ndarray.item(i),
    which gives the float a[i].item() gives without forming a numpy scalar.
    Where the damper is armed on no interval, damper_energy and
    injection_excess are the sums' +0.0 start, and no product is formed.
    A log may hold infinities and NaNs, which read_ticks_csv accepts, so
    numpy's floating-point warnings are silenced.
    """
    n = len(ticks)
    if not n:
        raise DomainError("cannot summarize an empty tick log")
    with np.errstate(all="ignore"):
        h, tank, times = ticks.h_truth, ticks.tank_T, ticks.t
        budget = h.item(0) + tank.item(0)
        tau = times.item(1) - times.item(0) if n > 1 else 0.0

        codes = ticks.active_region
        cuts = ((codes[1:] != codes[:-1]).nonzero()[0] + 1).tolist()
        speed_sq = _row_dot(ticks.xdot, ticks.xdot)
        segments = []
        for start, stop in zip([0, *cuts], [*cuts, n]):
            bound = budget - ticks.epsilon.item(start)
            h_seg = h[start:stop]
            above = int(np.count_nonzero(h_seg > bound + 1e-9))
            segments.append(SegmentSummary(
                ticks.region_names[codes.item(start)], times.item(start),
                times.item(stop - 1) + tau, stop - start, _max(h_seg),
                math.sqrt(_max(speed_sq[start:stop])), bound, above * tau))

        # the damper's share of each armed interval, at its trapezoidal velocity
        armed = (ticks.b[:-1] > 0.0).nonzero()[0]
        damper_energy = injection = 0.0  # the sums' start, and their value unarmed
        if len(armed):
            v_mid = 0.5 * (ticks.xdot[armed] + ticks.xdot[armed + 1])
            terms = np.zeros((len(armed) + 1, 2))
            terms[1:, 0] = tau * ticks.b[armed] * _row_dot(v_mid, v_mid)
            terms[1:, 1] = tau * _row_dot(ticks.f_e[armed], v_mid)
            damper_energy, injection = np.add.accumulate(terms)[-1].tolist()

        return Summary(
            scenario="",
            n_ticks=n,
            tau=tau,
            t_final=times.item(-1),
            segments=segments,
            min_tank=_min(tank),
            min_tank_minus_epsilon=_min(tank - ticks.epsilon),
            conservation_residual=_max(np.abs(h + tank - budget)),
            h_est_error_max=_max(np.abs(ticks.h_est - h)),
            damper_energy=damper_energy,
            injection_excess=injection,
        )


def _extreme(python, reduce, a: np.ndarray) -> float:
    """python(a.tolist()) for python max or min, whose ufunc reduce is given.
    That is numpy's answer unless it is NaN (Python skips a NaN after a[0]) or
    a zero (Python keeps the first)."""
    m = reduce(a).item()
    if m != m:
        return python(a.tolist())
    return a.item((a == m).argmax()) if m == 0.0 else m


_max = partial(_extreme, max, np.maximum.reduce)
_min = partial(_extreme, min, np.minimum.reduce)


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i].dot(b[i]) for every row i of two (n, m) arrays, with its bits."""
    return (a[:, None, :] @ b[:, :, None]).reshape(len(a))


def _iso_limits(scenario: Scenario) -> dict:
    """The standard's (quasi-static, transient) velocity limits of each region
    name, where the scenario gives the robot's mass and the region its
    contact data; v_max refuses limits that are not positive and finite."""
    if scenario.iso_mass is None:
        return {}
    m_r = robot_effective_mass(scenario.iso_mass)
    by_name = {r.name: r for r in scenario.schedule.regions}
    return {name: v_max(region, m_r) for name, region in by_name.items()
            if not (region.f_max is None or region.k is None or region.m_h is None)}


def _attach_iso_comparison(summary: Summary, scenario: Scenario):
    """Fill in the standard's velocity limits where the data exists."""
    limits = _iso_limits(scenario)
    for seg in summary.segments:
        if seg.region in limits:
            seg.v_max_quasi_static, seg.v_max_transient = limits[seg.region]
            seg.exceeded_quasi_static = seg.speed_max > seg.v_max_quasi_static
            seg.exceeded_transient = seg.speed_max > seg.v_max_transient


# -- the tick log --------------------------------------------------------------

_CHUNK = 256
_VECTORS = {"f_des", "f_c", "f_e", "x", "xdot"}
_FIELDS = ControlTick._fields
_INTS = {"k", "active_region"}


class TickLog:
    """A run's tick log, held by column.

    Each float field of ControlTick is a float64 array shaped (n,) and each
    vector field an (n, m) array, all under the field's name; ``k`` is an
    int64 array, and ``active_region`` holds each tick's index into
    ``region_names``.  A tick of an m-axis plant takes 80 + 40 m bytes, where
    a ControlTick with arrays of its own takes about 0.9 KB.

    The log reads as a sequence of ControlTick rows, built on demand with
    Python scalars and arrays of their own: ``log[i]`` is one row, a slice
    is a TickLog of views of the columns, and iteration builds the rows
    _CHUNK at a time.
    """

    __slots__ = (*_FIELDS, "region_names")

    def __init__(self, columns: dict, region_names: list):
        for name in _FIELDS:
            setattr(self, name, columns[name])
        self.region_names = region_names

    @classmethod
    def _empty(cls, n: int, m: int) -> "TickLog":
        """Unfilled columns for n ticks of an m-axis plant."""
        return cls({name: np.empty((n, m) if name in _VECTORS else n,
                                   dtype=np.int64 if name in _INTS else float)
                    for name in _FIELDS}, [])

    def _put(self, start: int, ticks: list, codes: "_RegionCodes"):
        """Store run()'s records ``ticks`` as rows start, start + 1, ...,
        their regions numbered by ``codes``, which run() keeps for the run.

        run() makes every vector a float64 array of m entries, so their bytes
        are joined as they stand, at a third of np.concatenate's cost.
        """
        stop = start + len(ticks)
        for name, values in zip(_FIELDS, zip(*ticks)):  # a record is a tuple
            if name in _VECTORS:
                values = np.frombuffer(b"".join(values)).reshape(len(ticks), -1)
            elif name == "active_region":
                values = list(map(codes.__getitem__, values))
            getattr(self, name)[start:stop] = values

    def __len__(self) -> int:
        return len(self.k)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return TickLog({name: getattr(self, name)[index] for name in _FIELDS},
                           self.region_names)
        i = range(len(self))[index]  # a negative index counts from the end
        return self._rows(i, i + 1)[0]

    def __iter__(self):
        for start in range(0, len(self), _CHUNK):
            yield from self._rows(start, start + _CHUNK)

    def _rows(self, start: int, stop: int) -> list[ControlTick]:
        values = []
        for name in _FIELDS:
            column = getattr(self, name)[start:stop]
            if name in _VECTORS:
                values.append(list(column.copy()))  # each row a view of one copy
            elif name == "active_region":
                values.append(map(self.region_names.__getitem__, column.tolist()))
            else:
                values.append(column.tolist())  # Python ints and floats
        return list(map(ControlTick, *values))


class _RegionCodes(dict):
    """Each region name's code, numbered in order of first appearance."""

    def __missing__(self, name):
        self[name] = code = len(self)
        return code


# -- tick log I/O -------------------------------------------------------------
#
# The CSV columns follow ControlTick's fields in order; each vector field
# spreads over one column per axis.  One formatter, _tick_writer's
# format_block, writes every log: in-process for write_ticks_csv, and in a
# helper process for run() given a path.  It takes blocks of _CHUNK rows, as
# one contiguous array per CSV column, and formats the fields itself, exactly
# as csv.writer's default dialect would: floats by repr, k by str, commas
# between fields, "\r\n" after each row.
# Region names hold no comma, quote or line break (BodyRegion's rule), so no
# field is quoted.  The reader hands the file's raw lines, undecoded, to one
# np.loadtxt call, which decodes and parses them in C into one record array
# with a field per column of the log, so the log it returns holds no more
# than those bytes.  A line end is "\r\n" or "\n": numpy refuses a lone "\r"
# inside a line and the reader one that ends the file, and a blank line,
# which numpy skips, shows as fewer rows than lines.


def _tick_columns(m: int) -> list[str]:
    columns = []
    for name in _FIELDS:
        columns += [f"{name}_{axis}" for axis in _AXES[:m]] if name in _VECTORS else [name]
    return columns


def _block(ticks: TickLog, start: int, stop: int) -> list[np.ndarray]:
    """Rows start to stop of each field, in CSV order, as contiguous int64
    and float64 arrays: a vector field transposed, so that its bytes are its
    CSV columns one after another, as format_block reads them."""
    return [np.ascontiguousarray(getattr(ticks, name)[start:stop].T,
                                 np.int64 if name in _INTS else float)
            for name in _FIELDS]


def write_ticks_csv(path, ticks: TickLog):
    """Write the tick log, every float as its shortest exact repr: the bytes
    run() given a path writes, by the same formatter run in-process.  A name
    outside BodyRegion's rule, which a hand-built log may hold and the reader
    would refuse, is refused before the file is created."""
    from ._tick_writer import format_block  # here, as run() imports its Stream

    if not ticks:
        raise DomainError("refusing to write an empty tick log")
    for name in ticks.region_names:
        _check_region_name(name)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_tick_columns(ticks.xdot.shape[1])) + "\r\n")
        for start in range(0, len(ticks), _CHUNK):
            stop = min(start + _CHUNK, len(ticks))
            fh.write(format_block(b"".join(_block(ticks, start, stop)), stop - start,
                                  ticks.region_names))


def read_ticks_csv(path) -> TickLog:
    r"""Inverse of write_ticks_csv; floats round-trip exactly.

    The file must be UTF-8, every line end "\r\n" or "\n", its header
    exactly the tick-log header for its number of axes, every later line a
    row of as many fields (so no blank lines) whose numbers numpy parses,
    and every region name one that BodyRegion takes.  The body's raw lines
    are parsed in one np.loadtxt call, with no quoting, into one record
    array whose fields are the log's columns.  A failed check raises
    DomainError naming the file and the missing columns, the header, the
    region name, a blank line, a lone "\r" that ends a seekable file or,
    for a row numpy refuses (a lone "\r" inside a line among them), numpy's
    own message, whose row numbers are not the file's line numbers.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        try:
            header = fh.readline().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DomainError(f"{path}: {exc}") from None
        # DomainError is a ValueError, so the header is checked outside the
        # handler of numpy's errors
        m = _axis_count(header, path)
        codes = _RegionCodes()
        lines = itertools.count()  # advanced once per body line numpy reads
        try:
            with warnings.catch_warnings():
                # numpy 1.x warns where it parses k as a float, and without
                # encoding hands the converter bytes; no rows is answered below
                warnings.simplefilter("error")
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                records = np.loadtxt(map(itemgetter(0), zip(fh, lines)), _record_dtype(m),
                                     delimiter=",", comments=None, ndmin=1,
                                     encoding="utf-8",
                                     converters={_FIELDS.index("active_region"):
                                                 codes.__getitem__})
            for name in codes:  # numpy takes any text, '"' included
                _check_region_name(name)
        # UnicodeDecodeError and the name check's DomainError are ValueErrors
        except (ValueError, OverflowError, Warning) as exc:
            raise DomainError(f"{path}: {exc}") from None
        # numpy skips a blank line, which write_ticks_csv never writes
        if next(lines) != len(records):
            raise DomainError(f"{path}: blank line")
        # numpy refuses a lone "\r" inside a line but takes one that ends the
        # file; a stream that cannot seek, such as a pipe, is not checked
        if fh.seekable():
            fh.seek(-1, os.SEEK_END)  # past the header, so there is a byte
            if fh.read(1) == b"\r":
                raise DomainError(f'{path}: the last line ends in a lone "\\r"')
    if not len(records):
        raise DomainError(f"{path}: empty tick log")
    return TickLog({name: records[name] for name in _FIELDS}, list(codes))


def _axis_count(line: str, path) -> int:
    """The number of axes of a header line that is exactly the tick-log header."""
    if not line:
        raise DomainError(f"{path}: empty tick log")
    header = line.rstrip("\r\n").split(",")
    m = sum(1 for c in header if c.startswith("xdot_"))
    if m == 0:
        raise DomainError(f"{path}: no velocity columns found")
    expected = _tick_columns(m)
    missing = [c for c in expected if c not in header]
    if missing:
        raise DomainError(f"{path}: missing columns {missing}")
    if header != expected:
        raise DomainError(f"{path}: header is not the tick-log header {expected}")
    return m


def _record_dtype(m: int) -> np.dtype:
    """One CSV row as a record: a field per ControlTick field, in CSV order."""
    return np.dtype([(name, np.int64) if name in _INTS else
                     (name, float, (m,)) if name in _VECTORS else (name, float)
                     for name in _FIELDS])
