import copy
import csv
import dataclasses
import gc
import json
import math
import os
import pickle
import re
import resource
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfltank import robot_dynamics, sim_harness
from pfltank._tick_writer import Stream
from pfltank.cli import load_scenario, scenario_from_config
from pfltank.energy_tank import make_tank
from pfltank.errors import DomainError
from pfltank.iso15066 import BodyRegion, RobotMassSpec, v_max
from pfltank.robot_dynamics import CartesianPlant, PlanarArm
from pfltank.safety_controller import (
    FEASIBILITY_MARGIN,
    ControlTick,
    PdGains,
    RegionSchedule,
    SafetyController,
)
from pfltank.sim_harness import (
    Scenario,
    TickLog,
    WrenchSegment,
    initial_epsilons,
    read_ticks_csv,
    run,
    summarize,
    wrench_at,
    write_ticks_csv,
)

from oracles import (
    REFUSED_REGION_NAMES,
    summarize_rowwise,
    tick_log,
    write_ticks_csv_per_cell,
    write_ticks_csv_rowwise,
)


def _region(name, e):
    return BodyRegion(name=name, e_max_override=e)


def _schedule(*pairs):
    return RegionSchedule(tuple(t for t, _, _ in pairs),
                          tuple(_region(n, e) for _, n, e in pairs))


def _cart_scenario(**over):
    base = dict(
        name="unit",
        plant=CartesianPlant((2.0,), (0.0,), (0.0,)),
        gains=PdGains(kp=(4.0,), kd=(6.0,), target=(2.0,)),
        schedule=_schedule((0.0, "zone", 0.5)),
        t_initial=2.0,
        tau=1e-3,
        duration=1.0,
    )
    base.update(over)
    return Scenario(**base)


# -- scripted wrenches ---------------------------------------------------------

def test_wrench_overlaps_add_and_windows_are_half_open():
    script = (WrenchSegment(0.0, 1.0, (1.0, 0.0)),
              WrenchSegment(0.5, 2.0, (0.25, 0.5)))
    assert wrench_at(script, 0.75, 2) == pytest.approx([1.25, 0.5])
    assert wrench_at(script, 0.0, 2) == pytest.approx([1.0, 0.0])
    # t_end excluded, t_start included
    assert wrench_at(script, 1.0, 2) == pytest.approx([0.25, 0.5])
    assert wrench_at(script, 2.0, 2) == pytest.approx([0.0, 0.0])
    # run() samples cycle k at k tau + tau / 2: cycle 1 starts at 1 ms, inside
    # [0, 1.5 ms), but is sampled at its end
    table = sim_harness._wrench_table((WrenchSegment(0.0, 1.5e-3, (1.0,)),), 3, 1e-3, 1)
    assert [f_e.tolist() for f_e in table] == [[1.0], [0.0], [0.0]]
    assert wrench_at((), 0.3, 3) == pytest.approx([0.0, 0.0, 0.0])


# segment bounds on and off the sampling grid, before t = 0 and at the lowest
# float (a segment's times must be finite)
_SCRIPT_TIMES = st.integers(-4, 40).map(lambda i: i * 5e-4) | st.sampled_from(
    [-sys.float_info.max, -3.3e-3, 1e-12, 2.2e-3, 7.7e-3, 0.1 * 0.3])
_SCRIPT_FORCES = st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.1, 1e-300, 3e200])


@st.composite
def _wrench_scripts(draw):
    """(m, script): overlapping segments, some lasting to the largest float,
    with signed zeros among the forces."""
    m = draw(st.integers(1, 3))
    script = []
    for _ in range(draw(st.integers(0, 6))):
        t_start, t_end = sorted(draw(st.tuples(_SCRIPT_TIMES, _SCRIPT_TIMES)))
        force = draw(st.lists(_SCRIPT_FORCES, min_size=m, max_size=m))
        script.append(WrenchSegment(t_start, t_end if t_end > t_start else sys.float_info.max,
                                    force))
    return m, tuple(script)


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(case=_wrench_scripts(), n=st.integers(1, 40))
def test_wrench_table_samples_each_cycle_as_wrench_at(case, n):
    m, script = case
    tau = 1e-3
    table = sim_harness._wrench_table(script, n, tau, m)
    assert len(table) == n
    for k, f_e in enumerate(table):
        t = k * tau + 0.5 * tau
        assert f_e.tobytes() == wrench_at(script, t, m).tobytes(), k
        # the sum's bits are numpy's, forces added in script order
        total = np.zeros(m)
        for seg in script:
            if seg.t_start <= t < seg.t_end:
                total += seg.force
        assert f_e.tobytes() == total.tobytes(), k


def test_wrench_segment_rejects_empty_window():
    with pytest.raises(DomainError):
        WrenchSegment(1.0, 1.0, (0.0,))


def test_wrench_segment_times_must_be_numbers():
    # strings compare among themselves, so "0.2" > "0.1" alone would let the
    # segment build and fail as a TypeError in the Scenario or in run()
    with pytest.raises(DomainError, match="t_start must be a finite number, got '0.1'"):
        WrenchSegment("0.1", "0.2", (1.0,))


# the two value types that hold tuples of floats, built from one vector
_VALUE_TYPES = {
    "gains": lambda v: PdGains(kp=v, kd=v, target=v),
    "segment": lambda v: WrenchSegment(0.0, 1.0, v),
}


@pytest.mark.parametrize("build", _VALUE_TYPES.values(), ids=_VALUE_TYPES.keys())
def test_value_types_compare_hash_copy_and_pickle_as_values(build):
    forms = [build(make([1.5, -0.0])) for make in (list, tuple, np.array)]
    for value in [*forms, build((1.5, 0.0))]:  # 0.0 == -0.0, so they hash alike
        assert value == forms[0] and hash(value) == hash(forms[0])
    assert forms[0] != build((1.5, 1.0))
    for value in forms:
        for same in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            # repr tells -0.0 from 0.0
            assert same == value and hash(same) == hash(value)
            assert repr(same) == repr(value) == repr(forms[0])


@pytest.mark.parametrize("build", _VALUE_TYPES.values(), ids=_VALUE_TYPES.keys())
@pytest.mark.parametrize("bad", ["1.5", 1.5, [[1.5, 0.0]], ["1.5"], np.array(1.5),
                                 np.zeros((1, 2))],
                         ids=["string", "scalar", "nested_list", "list_of_strings",
                              "0d_array", "2d_array"])
def test_value_types_refuse_what_is_not_a_flat_sequence_of_numbers(build, bad):
    # the whole vector, or its first entry, named by its argument
    with pytest.raises(DomainError, match=r"^(kp|force)(\[0\])? must be a (sequence of|finite) "):
        build(bad)


def _assert_same_run(got, want):
    assert got.fault is None
    for name in sim_harness._FIELDS:
        assert getattr(got.ticks, name).tobytes() == getattr(want.ticks, name).tobytes()
    assert repr(got.summary.to_dict()) == repr(want.summary.to_dict())


def test_a_scenario_keeps_its_own_copy_of_a_list_force():
    force = [0.7]
    scenario = _cart_scenario(wrench_script=(WrenchSegment(0.05, 0.1, force),),
                              duration=0.2)
    hash(scenario)
    # the caller's list is not the segment's: changing it after the build
    # reaches neither the scenario nor run()
    force[0] = math.inf
    _assert_same_run(run(scenario), run(_cart_scenario(
        wrench_script=(WrenchSegment(0.05, 0.1, [0.7]),), duration=0.2)))


def test_a_scenario_keeps_its_own_copy_of_a_list_script():
    script = [WrenchSegment(0.05, 0.1, (0.7,))]
    scenario = _cart_scenario(wrench_script=script, duration=0.2)
    assert scenario.wrench_script == tuple(script)
    hash(scenario)
    # segments appended after the build skip the overflow check, so they
    # must not reach run(): these two would end it in an emergency fault
    script += [WrenchSegment(0.05, 0.1, (1e308,))] * 2
    _assert_same_run(run(scenario), run(_cart_scenario(
        wrench_script=(WrenchSegment(0.05, 0.1, (0.7,)),), duration=0.2)))


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("build", [
    lambda: PdGains(kp=(_NAN,), kd=(1.0,), target=(0.0,)),
    lambda: PdGains(kp=(1.0,), kd=(_INF,), target=(0.0,)),
    lambda: PdGains(kp=(1.0,), kd=(1.0,), target=(_INF,)),
    lambda: WrenchSegment(0.0, 1.0, (_NAN,)),
    lambda: CartesianPlant((_INF,), (0.0,), (0.0,)),
    lambda: CartesianPlant((_NAN,), (0.0,), (0.0,)),
    lambda: CartesianPlant((2.0,), (_NAN,), (0.0,)),
    lambda: CartesianPlant((2.0,), (0.0,), (_INF,)),
    lambda: PlanarArm(l1=_INF),
    lambda: PlanarArm(l2=_NAN),
    lambda: PlanarArm(m1=_INF),
    lambda: PlanarArm(m2=_NAN),
    lambda: PlanarArm(q0=(_NAN, 0.0)),
    lambda: PlanarArm(qdot0=(0.0, _INF)),
    lambda: make_tank(_INF, 1.0),
    lambda: make_tank(2.0, 1.0, h_initial=_NAN),
    lambda: make_tank(2.0, 1.0, h_initial=_INF),
    lambda: _cart_scenario(damper_band=_INF),
], ids=["kp_nan", "kd_inf", "target_inf", "force_nan", "inertia_inf", "inertia_nan",
        "x0_nan", "xdot0_inf", "l1_inf", "l2_nan", "m1_inf", "m2_nan", "q0_nan",
        "qdot0_inf", "t_initial_inf", "h_initial_nan", "h_initial_inf",
        "damper_band_inf"])
def test_constructors_reject_non_finite_values(build):
    # refused where they enter, with a message that names the cause, instead
    # of a fault at cycle 0 or a misleading error further down
    with pytest.raises(DomainError, match="finite"):
        build()


# -- the one number rule -------------------------------------------------------

_ZONE = BodyRegion(name="zone", e_max_override=1.0)
_PLANT = CartesianPlant((2.0,), (0.0,), (0.0,))

#: every public constructor and builder, with integral floats in each
#: numeric argument, so that each number has an int form
_BUILDS = {
    BodyRegion: dict(name="chest", f_max=140.0, k=25000.0, m_h=40.0,
                     transient_multiplier=2.0, e_max_override=3.0),
    RobotMassSpec: dict(moving_mass=16.0, payload=1.0),
    PdGains: dict(kp=(8.0, 8.0), kd=(11.0, 11.0), target=(6.0, 0.0)),
    RegionSchedule: dict(times=(0.0, 1.0), regions=(_ZONE, _ZONE)),
    WrenchSegment: dict(t_start=0.0, t_end=1.0, force=(2.0, 0.0)),
    robot_dynamics.WrenchInput: dict(f_c=(1.0, 0.0), f_e=(0.0, 2.0)),
    CartesianPlant: dict(inertia=((4.0, 1.0), (1.0, 4.0)), x0=(0.0, 1.0), xdot0=(1.0, 0.0)),
    PlanarArm: dict(l1=1.0, l2=1.0, m1=4.0, m2=3.0, q0=(0.0, 1.0), qdot0=(1.0, 0.0)),
    Scenario: dict(name="unit", plant=_PLANT, gains=PdGains((4.0,), (6.0,), (2.0,)),
                   schedule=RegionSchedule((0.0,), (_ZONE,)), t_initial=5.0, tau=1.0,
                   duration=2.0, damper_band=0.0),
    SafetyController: dict(gains=PdGains((4.0,), (6.0,), (2.0,)),
                           schedule=RegionSchedule((0.0,), (_ZONE,)), t_initial=5.0,
                           h_initial=1.0, tau=1.0, damper_band=0.0),
    make_tank: dict(t_initial=5.0, epsilon=2.0, h_initial=1.0),
}


def _indices(value, index=()):
    """The index of value itself and of every number inside it."""
    yield index
    if isinstance(value, tuple):
        for i, entry in enumerate(value):
            yield from _indices(entry, (*index, i))


#: (constructor, argument, index): a numeric argument, or a number inside one
_SLOTS = [(build, arg, index) for build, kwargs in _BUILDS.items()
          for arg, value in kwargs.items()
          if arg not in ("name", "regions", "plant", "gains", "schedule")
          for index in _indices(value)]


def _put(value, index, new):
    """value with the entry at index replaced by new."""
    if not index:
        return new
    items = list(value)
    items[index[0]] = _put(items[index[0]], index[1:], new)
    return tuple(items)


def _at(value, index):
    """The entry of value at index."""
    for i in index:
        value = value[i]
    return value


def _deep(form, value):
    """value, a number or a tuple (of tuples) of numbers, with form applied to each number."""
    return tuple(_deep(form, v) for v in value) if isinstance(value, tuple) else form(value)


#: the other forms of a number, and of a vector or a matrix of them
_NUMBER_FORMS = (int, np.float64, np.int64, np.float32)
_VECTOR_FORMS = (list, np.array, lambda v: np.array(v, dtype=np.int64),
                 lambda v: _deep(int, v), lambda v: _deep(np.float64, v))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(slot=st.sampled_from(_SLOTS),
       bad=st.sampled_from([True, False, np.True_, "2", "2.0", None, math.nan, math.inf,
                            -math.inf, 10 ** 400, -10 ** 400]))
def test_every_numeric_argument_takes_finite_reals_only(slot, bad):
    # one rule in every public constructor: a bool, a numeric string, None, a
    # non-finite value and an int past the float range are refused with a
    # DomainError naming the argument (and the entry), never a TypeError or an
    # OverflowError, and never coerced; ints, numpy scalars and arrays of the
    # same values build the object that floats build, floats inside
    build, arg, index = slot
    if bad is None and build is BodyRegion and arg != "transient_multiplier":
        return  # None leaves out a region's optional contact data or override
    kwargs = _BUILDS[build]
    label = arg + "".join(f"[{i}]" for i in index)
    with pytest.raises(DomainError, match=re.escape(label) + " must be a "):
        build(**{**kwargs, arg: _put(kwargs[arg], index, bad)})
    want = pickle.dumps(build(**kwargs))
    value = _at(kwargs[arg], index)
    for form in _VECTOR_FORMS if isinstance(value, tuple) else _NUMBER_FORMS:
        got = build(**{**kwargs, arg: _put(kwargs[arg], index, form(value))})
        assert pickle.dumps(got) == want, form


@pytest.mark.parametrize("build", [
    # each of these raised a TypeError
    lambda: BodyRegion(name="a", f_max="140", k=1.0),
    lambda: PlanarArm(l1="0.5"),
    lambda: RobotMassSpec(moving_mass="16"),
    lambda: dataclasses.replace(_cart_scenario(), tau="0.001"),
    # these took a numeric string as its number
    lambda: PlanarArm(q0=("0.3", "1.2")),
    lambda: CartesianPlant([["2"]], ["0"], ["0"]),
    lambda: RegionSchedule(("0",), (_ZONE,)),
    lambda: robot_dynamics.WrenchInput(["1"], [0.0]),
    # and these a bool: tau=True was a 1 s tick
    lambda: _cart_scenario(tau=True),
    lambda: PdGains(kp=(True,), kd=(1.0,), target=(0.0,)),
    lambda: BodyRegion(name="a", e_max_override=True),
], ids=["region_f_max", "arm_l1", "moving_mass", "replaced_tau", "arm_q0", "inertia",
        "schedule_times", "wrench_input", "tau", "kp", "e_max_override"])
def test_numeric_arguments_that_raised_or_were_coerced_are_refused(build):
    with pytest.raises(DomainError, match=" must be a finite number, got "):
        build()


# -- scenario plumbing ---------------------------------------------------------

def test_scenario_validation():
    with pytest.raises(DomainError):
        _cart_scenario(tau=0.0)
    with pytest.raises(DomainError):
        _cart_scenario(duration=-1.0)
    with pytest.raises(DomainError):
        _cart_scenario(t_initial=0.0)


@pytest.mark.parametrize("name", [None, 5, "", "fake\nOK: paper_replica", "a\ud800"],
                         ids=["none", "not_str", "empty", "line_break", "surrogate"])
def test_scenario_refuses_a_name_outside_the_rule(name):
    # the console and the logs print the name as it is
    with pytest.raises(DomainError, match="a scenario name must be a non-empty "
                                          "printable string, got "):
        _cart_scenario(name=name)


@pytest.mark.parametrize("over, message", [
    (dict(gains=PdGains(kp=(4.0, 4.0), kd=(6.0, 6.0), target=(2.0, 0.0))),
     r"kp, kd and target need one entry per plant axis \(1\), got 2$"),
    (dict(wrench_script=(WrenchSegment(0.0, 0.1, (1.0,)),
                         WrenchSegment(0.2, 0.3, (1.0, 0.0)))),
     r"wrench_script\[1\]\.force needs one entry per plant axis \(1\)"),
    (dict(plant=CartesianPlant(np.eye(4), np.zeros(4), np.zeros(4)),
          gains=PdGains(kp=(1.0,) * 4, kd=(1.0,) * 4, target=(0.0,) * 4)),
     "plant: at most 3 axes are supported, got 4"),
], ids=["gains", "wrench_force", "four_axes"])
def test_scenario_checks_the_axis_contract(over, message):
    # each of these used to build and then fail inside run() or the CSV writer
    with pytest.raises(DomainError, match=message):
        _cart_scenario(**over)


def test_scenario_refuses_active_wrenches_whose_sum_overflows():
    # numpy forces too: the check sums Python floats, so numpy never warns
    big = np.array([1e308])
    with pytest.raises(DomainError, match=r"forces active at t = 0\.2 s sum to a "
                                          r"non-finite wrench"):
        _cart_scenario(wrench_script=(WrenchSegment(0.1, 0.3, big),
                                      WrenchSegment(0.2, 0.4, big)))
    # the same pushes one after the other, or cancelling, are finite
    _cart_scenario(wrench_script=(WrenchSegment(0.1, 0.2, big),
                                  WrenchSegment(0.2, 0.4, big)))
    _cart_scenario(wrench_script=(WrenchSegment(0.1, 0.3, big),
                                  WrenchSegment(0.2, 0.4, -big)))


def test_run_needs_at_least_one_cycle():
    with pytest.raises(DomainError, match="at least one cycle"):
        _cart_scenario(duration=1e-4, tau=1e-3)


def test_initial_epsilons_arithmetic_and_region_naming():
    scenario = _cart_scenario(
        schedule=_schedule((0.0, "wide", 0.5), (1.0, "narrow", 0.2)))
    assert initial_epsilons(scenario, 0.25) == pytest.approx([1.75, 2.05])
    # building the scenario runs the same check
    with pytest.raises(DomainError, match="greedy"):
        _cart_scenario(schedule=_schedule((0.0, "greedy", 1.99951)))


# -- closed-loop runs ----------------------------------------------------------

def test_clean_run_shape_and_budget_books():
    scenario = _cart_scenario()
    res = run(scenario)
    assert res.fault is None
    assert len(res.ticks) == 1000
    assert [tk.k for tk in res.ticks[:4]] == [0, 1, 2, 3]
    assert res.ticks[7].t == pytest.approx(0.007)
    assert res.final_plant is not None

    s = res.summary
    assert s.scenario == "unit"
    assert s.fault is None
    assert s.n_ticks == 1000
    assert s.tau == pytest.approx(1e-3)
    assert len(s.segments) == 1
    seg = s.segments[0]
    assert seg.region == "zone"
    assert seg.t_start == 0.0
    assert seg.t_end == pytest.approx(1.0)
    assert seg.ticks == 1000
    assert seg.energy_bound == pytest.approx(0.5)
    assert seg.time_above_bound == 0.0
    # point-mass plant: the ledger is exact to machine precision
    assert s.conservation_residual < 1e-12
    assert s.h_est_error_max < 1e-12
    assert s.min_tank_minus_epsilon >= -1e-12


def test_final_tank_closes_the_energy_ledger():
    res = run(_cart_scenario())
    h_final = res.final_plant.kinetic_energy_truth
    # finalize() already booked the last interval
    assert res.final_tank_energy + h_final == pytest.approx(2.0, abs=1e-12)


def test_starved_budget_plant_never_moves():
    scenario = _cart_scenario(
        schedule=_schedule((0.0, "drained", 1e-9)),
        gains=PdGains(kp=(8.0,), kd=(0.0,), target=(6.0,)),
        t_initial=1.0, duration=0.2)
    res = run(scenario)
    assert res.fault is None
    assert all(tk.alpha == 0.0 for tk in res.ticks)
    assert all(float(tk.x[0]) == 0.0 for tk in res.ticks)
    assert res.summary.segments[0].h_max == 0.0
    assert res.summary.segments[0].speed_max == 0.0
    assert res.summary.min_tank == pytest.approx(1.0, abs=1e-15)


def test_emergency_fault_keeps_the_partial_log(caplog):
    scenario = _cart_scenario(
        plant=CartesianPlant((2.0,), (0.0,), (0.1,)),
        gains=PdGains(kp=(0.0,), kd=(0.0,), target=(0.0,)),
        schedule=_schedule((0.0, "tight", 0.02)),
        t_initial=0.51,
        wrench_script=(WrenchSegment(0.5, 1.0, (200.0,)),),
        duration=1.0)
    res = run(scenario)
    assert res.fault == "emergency"
    # the violent wrench lands at k = 500 and that cycle never books a tick
    assert len(res.ticks) == 500
    assert "scenario unit: emergency fault at cycle 500: " in caplog.text
    assert res.final_plant is None
    assert res.summary is not None
    assert res.summary.fault == "emergency"
    assert res.summary.n_ticks == 500
    # the tank never moved while coasting force-free
    assert res.final_tank_energy == pytest.approx(0.51, abs=1e-15)


def test_a_negative_kinetic_energy_is_an_integration_fault(monkeypatch, caplog):
    scenario = _cart_scenario(duration=0.02)
    step = CartesianPlant.step
    cycles = iter(range(scenario.n_cycles))

    def step_rounding_below_zero(self, wrench, tau):
        state = step(self, wrench, tau)
        if next(cycles) < 4:
            return state
        # the plant's snapshot refuses an energy rounded below zero
        return robot_dynamics._snapshot(state.x, state.xdot, -5e-324)

    monkeypatch.setattr(CartesianPlant, "step", step_rounding_below_zero)
    res = run(scenario)
    assert res.fault == "integration"
    # cycle 4 books its tick before its step
    assert len(res.ticks) == 5 and res.summary.fault == "integration"
    assert res.final_plant is None
    assert ("scenario unit: integration fault at cycle 4: kinetic energy cannot be "
            "negative") in caplog.text


def test_a_step_whose_energy_overflows_faults_on_its_own_cycle(caplog):
    # a push across a plant at rest injects no power on the cycle it starts,
    # so nothing brakes it: the step leaves a finite state, v = 2.5e155 m/s,
    # whose energy 0.5 m v^2 overflows.  Without the step's check the log
    # would hold h_truth = inf and the next cycle's commit an emergency fault
    scenario = _cart_scenario(plant=CartesianPlant((4.0,), (0.0,), (0.0,)),
                              gains=PdGains(kp=(0.0,), kd=(0.0,), target=(0.0,)),
                              wrench_script=(WrenchSegment(0.002, 1.0, (1e159,)),),
                              duration=0.01)
    res = run(scenario)
    assert res.fault == "integration" and res.summary.fault == "integration"
    # cycle 2 books its tick before its step
    assert len(res.ticks) == 3 and np.isfinite(res.ticks.h_truth).all()
    assert res.final_plant is None
    assert ("scenario unit: integration fault at cycle 2: non-finite kinetic "
            "energy inf") in caplog.text


# a moderate gain, and one a PD force overflows through: kp by 200 m or more,
# kd by 1.6 m/s or more
_MILD_GAIN = st.floats(0.0, 50.0)
_HUGE_GAIN = st.floats(1.2e308, 1.79e308)


@st.composite
def _overflowing_runs(draw):
    """(scenario, cycle): a Cartesian run of 1-3 axes, coupled through its
    inertia, whose PD force on axis j overflows first on ``cycle``.  On cycle
    0 through kp, kd or both (inf - inf is NaN); on cycle 1 through kd, once a
    push from rest has moved axis j at 1.8-3 m/s."""
    m = draw(st.integers(1, 3))
    j = draw(st.integers(0, m - 1))
    way = draw(st.sampled_from(["kp", "kd", "both", "push"]))
    coupling = draw(st.floats(-0.2, 0.2))
    # diagonally dominant, so symmetric positive definite
    inertia = [[draw(st.floats(0.5, 4.0)) if r == c else coupling for c in range(m)]
               for r in range(m)]
    kp, kd = (draw(st.lists(_MILD_GAIN, min_size=m, max_size=m)) for _ in "pd")
    target = draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m))
    x0 = draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m))
    v0 = draw(st.lists(st.floats(-0.5, 0.5), min_size=m, max_size=m))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    if way in ("kp", "both"):
        kp[j] = draw(_HUGE_GAIN)
        x0[j] = target[j] + sign * draw(st.floats(200.0, 1e3))
    if way in ("kd", "both", "push"):
        kd[j] = draw(_HUGE_GAIN)
        v0[j] = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1.6, 2.0))
    script = ()
    if way == "push":
        x0[j], v0[j] = target[j], 0.0
        push = [0.0] * m
        push[j] = sign * draw(st.floats(2.0, 3.0)) / (1e-3 * np.linalg.inv(inertia)[j, j])
        script = (WrenchSegment(0.0, 1.0, push),)
    scenario = _cart_scenario(
        plant=CartesianPlant(inertia, x0, v0), gains=PdGains(kp, kd, target),
        schedule=_schedule((0.0, "zone", 100.0)), t_initial=110.0,
        wrench_script=script, duration=0.01)
    return scenario, 1 if way == "push" else 0


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(case=_overflowing_runs())
def test_a_non_finite_command_faults_on_its_own_cycle(case):
    # run() does not test the command: a non-finite entry makes the plant's
    # new velocity non-finite, so the plant's state check ends the run on the
    # command's own cycle.  Without that check the NaN state would reach the
    # tank a cycle later, as an emergency fault.
    scenario, cycle = case
    result = run(scenario)
    ticks = result.ticks
    with np.errstate(all="ignore"):
        command = ticks.f_c + ticks.b[:, None] * ticks.xdot  # as control_cycle forms it
    finite = np.isfinite(command).all(axis=1)
    assert finite.tolist() == [True] * cycle + [False]
    assert result.fault == "integration" and result.summary.fault == "integration"
    assert result.final_plant is None
    # the faulting cycle's decision is the tank's last
    assert result.final_tank_energy == ticks.tank_T[-1].item()


def test_arm_scenario_conserves_through_the_cartesian_port():
    scenario = _cart_scenario(
        name="arm",
        plant=PlanarArm(q0=(0.3, 0.8)),
        gains=PdGains(kp=(20.0, 20.0), kd=(8.0, 8.0), target=(0.55, 0.45)),
        schedule=_schedule((0.0, "zone", 0.5)),
        t_initial=1.0, duration=0.5)
    res = run(scenario)
    assert res.fault is None
    assert res.ticks[0].x.shape == (2,)
    s = res.summary
    # gravity is compensated inside the wrapper, so the port ledger closes
    # up to the integrator's O(tau) drift
    assert s.conservation_residual < 1e-3
    assert s.min_tank_minus_epsilon >= -1e-9
    assert s.segments[0].h_max <= 0.5 + 1e-6


def test_the_log_holds_the_records_the_controller_returned(monkeypatch):
    records = []
    cycle = SafetyController.control_cycle

    def recording(self, *args, **kwargs):
        command, tick = cycle(self, *args, **kwargs)
        records.append(tick)
        return command, tick

    monkeypatch.setattr(SafetyController, "control_cycle", recording)
    res = run(_cart_scenario(
        wrench_script=(WrenchSegment(0.2, 0.6, (1.5,)),),
        duration=(sim_harness._CHUNK + 3) * 1e-3))
    _assert_same_ticks(res.ticks, records)


def test_runs_are_deterministic(tmp_path):
    scenario = _cart_scenario(
        wrench_script=(WrenchSegment(0.2, 0.6, (1.5,)),), duration=0.8)
    a, b = run(scenario), run(scenario)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_ticks_csv(pa, a.ticks)
    write_ticks_csv(pb, b.ticks)
    assert pa.read_bytes() == pb.read_bytes()


def test_a_scenario_runs_again_from_its_initial_plant():
    scenario = _cart_scenario(
        name="arm", plant=PlanarArm(q0=(0.3, 0.8), qdot0=(0.2, -0.1)),
        gains=PdGains(kp=(20.0, 20.0), kd=(8.0, 8.0), target=(0.55, 0.45)),
        wrench_script=(WrenchSegment(0.1, 0.2, (0.5, -0.25)),),
        t_initial=1.0, duration=0.3)
    before = scenario.plant.state()
    first, second = run(scenario), run(scenario)
    _assert_same_ticks(second.ticks, first.ticks)
    after = scenario.plant.state()
    for name in ("x", "xdot", "kinetic_energy_truth"):
        assert np.array_equal(getattr(after, name), getattr(before, name)), name


_ARM_REACH = str(Path(__file__).resolve().parents[1] / "perfbench" / "arm_reach.json")


@pytest.mark.parametrize("spec, duration", [
    ("stricter_switch", None),
    ("push_at_floor", None),
    pytest.param(_ARM_REACH, 1.0, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 1: the arm's integrator drifts over the bound")),
], ids=["stricter_switch", "push_at_floor", "arm_reach"])
def test_bound_invariant_holds_from_the_log_alone(tmp_path, bundled_runs, spec, duration):
    # outside a deficit the robot's energy stays within the active budget
    # E_active = H(0) + T(0) - epsilon, up to the fixed feasibility margin;
    # every term is a ticks.csv column
    if duration is None:
        result = bundled_runs[spec]
    else:
        result = run(dataclasses.replace(load_scenario(spec), duration=duration))
    path = tmp_path / "ticks.csv"
    write_ticks_csv(path, result.ticks)
    ticks = read_ticks_csv(path)
    h0, t0 = ticks[0].h_truth, ticks[0].tank_T
    broken = [tk.k for tk in ticks if tk.tank_T >= tk.epsilon
              and not tk.h_truth <= (h0 + t0 - tk.epsilon) + FEASIBILITY_MARGIN]
    assert broken == []


def _pushed3_scenario():
    """Three axes pushed through the damper band and a tightening switch; the
    third axis has no gains, so its PD force is -0.0 on every tick."""
    return _cart_scenario(
        name="pushed3",
        plant=CartesianPlant(np.diag([3.0, 2.0, 1.5]), (0.0, 0.1, 0.0), (0.3, 0.0, 0.0)),
        gains=PdGains(kp=(40.0, 50.0, 0.0), kd=(2.0, 2.0, 0.0), target=(0.5, -0.5, 0.0)),
        schedule=_schedule((0.0, "wide", 0.3), (0.4, "narrow", 0.2)),
        t_initial=1.0, wrench_script=(WrenchSegment(0.2, 0.5, (2.0, -1.5, 0.0)),),
        duration=0.8)


@pytest.mark.parametrize("name", ["paper_replica", "push_at_floor", "stricter_switch",
                                  "budget_starved", "arm_reach", "pushed3"])
def test_the_ledger_recomputes_from_the_log_alone(bundled_runs, arm_reach_run, name):
    # each tick's commit, T' = T + tau (f_c.v - f_e.v + b v.v) at the
    # trapezoidal velocity v and clamped at the tank's capacity, read back as
    # the tank reads its energy, is the next tick's tank_T bit for bit
    result = {"arm_reach": arm_reach_run, "pushed3": None, **bundled_runs}[name]
    result = result or run(_pushed3_scenario())
    ticks = result.ticks
    if name == "pushed3":  # the path this scenario is here for
        assert (ticks.b > 0.0).any() and (ticks.alpha < 1.0).any()
        assert (ticks.tank_T < ticks.epsilon).any()
        assert np.signbit(ticks.f_des[:, 2]).all() and not ticks.f_des[:, 2].any()
    tau = ticks.t[1].item()
    capacity = result.scenario.t_initial + ticks.h_truth[0].item()
    v_mid = 0.5 * (ticks.xdot[:-1] + ticks.xdot[1:])
    flow = np.array([f_c.dot(v) - f_e.dot(v) + b * v.dot(v) for f_c, f_e, b, v
                     in zip(ticks.f_c[:-1], ticks.f_e[:-1], ticks.b[:-1].tolist(), v_mid)])
    booked = np.minimum(ticks.tank_T[:-1] + tau * flow, capacity)
    x_t = np.sqrt(2.0 * booked)
    mismatched = np.flatnonzero((0.5 * x_t * x_t).view(np.int64)
                                != ticks.tank_T[1:].view(np.int64))
    assert mismatched.tolist() == []


# -- summarize on crafted logs -------------------------------------------------

def _tick(k, t, region, h, T, eps, b=0.0, f_e=0.0, v=0.0):
    return ControlTick(
        k=k, t=t, active_region=region, alpha=1.0,
        f_des=np.array([0.0]), f_c=np.array([0.0]), f_e=np.array([f_e]),
        b=b, p_ext=0.0, tank_T=T, epsilon=eps, h_est=h, h_truth=h,
        x=np.array([0.0]), xdot=np.array([v]))


def test_summarize_splits_segments_and_counts_violations():
    budget = 2.0
    hs = [0.2, 0.6, 0.9, 1.05]
    ticks = [
        _tick(0, 0.0, "A", hs[0], budget - hs[0], 1.5, b=2.0, f_e=3.0, v=1.0),
        _tick(1, 0.1, "A", hs[1], budget - hs[1], 1.5, v=0.8),
        _tick(2, 0.2, "B", hs[2], budget - hs[2], 1.0, v=0.5),
        _tick(3, 0.3, "B", hs[3], budget - hs[3], 1.0, v=0.4),
    ]
    s = summarize(tick_log(ticks))
    assert s.n_ticks == 4
    assert s.tau == pytest.approx(0.1)
    assert s.t_final == pytest.approx(0.3)
    assert [seg.region for seg in s.segments] == ["A", "B"]
    a, b = s.segments
    assert (a.t_start, a.t_end) == (0.0, pytest.approx(0.2))
    assert (b.t_start, b.t_end) == (pytest.approx(0.2), pytest.approx(0.4))
    assert a.energy_bound == pytest.approx(0.5)
    assert b.energy_bound == pytest.approx(1.0)
    assert a.h_max == pytest.approx(0.6)
    assert b.h_max == pytest.approx(1.05)
    # one tick above each bound
    assert a.time_above_bound == pytest.approx(0.1)
    assert b.time_above_bound == pytest.approx(0.1)
    assert a.speed_max == pytest.approx(1.0)
    # tank_T built as budget - h, so the ledger closes exactly
    assert s.conservation_residual == 0.0
    assert s.min_tank == pytest.approx(0.95)
    assert s.min_tank_minus_epsilon == pytest.approx(-0.1)
    # damper armed on the first interval only: v_mid = 0.9
    assert s.damper_energy == pytest.approx(0.1 * 2.0 * 0.81)
    assert s.injection_excess == pytest.approx(0.1 * 3.0 * 0.9)


def test_summarize_single_tick_and_empty():
    log = tick_log([_tick(0, 0.0, "A", 0.1, 1.9, 1.5)])
    s = summarize(log)
    assert s.tau == 0.0
    assert s.segments[0].ticks == 1
    assert s.segments[0].time_above_bound == 0.0
    with pytest.raises(DomainError):
        summarize(log[:0])


def test_iso_comparison_attaches_only_where_data_exists():
    chest = BodyRegion(name="chest", f_max=140.0, k=25000.0, m_h=40.0,
                       e_max_override=1.6)
    scenario = _cart_scenario(
        schedule=RegionSchedule((0.0,), (chest,)),
        gains=PdGains(kp=(0.0,), kd=(0.0,), target=(0.0,)),
        duration=0.05,
        iso_mass=RobotMassSpec(moving_mass=16.0))
    seg = run(scenario).summary.segments[0]
    assert seg.v_max_quasi_static == pytest.approx(v_max(chest, 8.0)[0])
    assert seg.v_max_transient == pytest.approx(v_max(chest, 8.0)[1])
    assert seg.exceeded_quasi_static is False
    assert seg.exceeded_transient is False

    bare = run(_cart_scenario(duration=0.05,
                              iso_mass=RobotMassSpec(moving_mass=16.0)))
    assert bare.summary.segments[0].v_max_quasi_static is None

    unspecified = run(_cart_scenario(duration=0.05))
    assert unspecified.summary.segments[0].v_max_quasi_static is None


# -- log I/O -------------------------------------------------------------------

def test_csv_round_trip_is_exact(tmp_path):
    res = run(_cart_scenario(
        wrench_script=(WrenchSegment(0.05, 0.1, (0.7,)),), duration=0.2))
    path = tmp_path / "ticks.csv"
    write_ticks_csv(path, res.ticks)
    loaded = read_ticks_csv(path)
    assert len(loaded) == len(res.ticks)
    for got, want in zip(loaded, res.ticks):
        assert got.k == want.k
        assert got.t == want.t
        assert got.active_region == want.active_region
        assert got.alpha == want.alpha
        assert got.b == want.b and got.p_ext == want.p_ext
        assert got.tank_T == want.tank_T and got.epsilon == want.epsilon
        assert got.h_est == want.h_est and got.h_truth == want.h_truth
        for name in ("f_des", "f_c", "f_e", "x", "xdot"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    # the summary is a pure function of the log, so it round-trips too
    again = summarize(loaded)
    again.scenario = res.summary.scenario
    again.fault = res.summary.fault
    assert again.to_dict() == res.summary.to_dict()


def test_a_region_seen_again_in_a_later_block_keeps_its_code(tmp_path):
    # wide governs ticks 0-99, in the log's first block of 256 ticks, and
    # returns at tick 400, in the second block, which narrow opens
    assert sim_harness._CHUNK == 256
    schedule = _schedule((0.0, "wide", 0.5), (0.1, "narrow", 0.3), (0.4, "wide", 0.5))
    res = run(_cart_scenario(schedule=schedule, duration=0.6))
    assert res.fault is None
    path = tmp_path / "ticks.csv"
    write_ticks_csv(path, res.ticks)
    for log in (res.ticks, read_ticks_csv(path)):
        assert log.region_names == ["wide", "narrow"]
        assert log.active_region.tolist() == [0] * 100 + [1] * 300 + [0] * 200
        segments = summarize(log).segments
        assert [(s.region, s.ticks) for s in segments] == [
            ("wide", 100), ("narrow", 300), ("wide", 200)]


def _cart3_scenario(**over):
    base = dict(
        name="cart3",
        plant=CartesianPlant(((3.0, 0.2, 0.0), (0.2, 2.0, 0.1), (0.0, 0.1, 1.5)),
                             (0.0, 0.1, -0.2), (0.3, 0.0, -0.1)),
        gains=PdGains(kp=(4.0, 5.0, 6.0), kd=(2.0, 2.0, 2.0), target=(0.5, -0.5, 0.2)),
        wrench_script=(WrenchSegment(0.1, 0.2, (0.5, -0.25, 1.0)),),
        duration=0.3)
    base.update(over)
    return _cart_scenario(**base)


def test_tick_log_rows_are_control_ticks_of_python_scalars():
    ticks = run(_cart3_scenario(
        schedule=_schedule((0.0, "wide", 0.5), (0.1, "narrow", 0.4)))).ticks
    assert isinstance(ticks, TickLog)
    rows = list(ticks)
    assert len(rows) == len(ticks) == 300
    tk = ticks[-1]
    assert type(tk) is ControlTick
    assert type(tk.k) is int and type(tk.active_region) is str
    assert all(type(getattr(tk, name)) is float for name in
               ("t", "alpha", "b", "p_ext", "tank_T", "epsilon", "h_est", "h_truth"))
    for name in sim_harness._VECTORS:
        value = getattr(tk, name)
        assert value.dtype == np.float64 and value.shape == (3,), name
    assert (ticks[0].active_region, tk.active_region) == ("wide", "narrow")

    # negative indices count from the end; a slice is a log of the same rows
    for i in (0, 1, -1, -2, -300, 299):
        _assert_same_ticks([ticks[i]], [rows[i]])
    for i in (300, -301):
        with pytest.raises(IndexError):
            ticks[i]
    for part in (slice(None, 5), slice(-7, -2), slice(None, None, -3), slice(10, 2),
                 slice(3, None, 2), slice(-1000, 1000)):
        assert isinstance(ticks[part], TickLog)
        _assert_same_ticks(ticks[part], rows[part])
    assert (repr(summarize(ticks[100:200]).to_dict())
            == repr(summarize_rowwise(rows[100:200]).to_dict()))

    # a row's arrays are its own
    tk.x[0] = 99.0
    assert ticks[-1].x[0] != 99.0


def test_iterating_a_tick_log_holds_one_block_of_rows():
    ticks = run(_cart_scenario(duration=(3 * sim_harness._CHUNK + 5) * 1e-3)).ticks

    def live_rows():
        return sum(1 for obj in gc.get_objects() if type(obj) is ControlTick)

    before = live_rows()
    seen = 0
    for i, _ in enumerate(ticks):
        if i % 128 == 0:
            assert 1 <= live_rows() - before <= sim_harness._CHUNK, i
        seen += 1
    assert seen == len(ticks)


def test_tick_log_memory_per_tick():
    # a ControlTick with five arrays of its own takes about 0.9 KB; the
    # columns take 200 B at three axes
    scenario = _cart3_scenario(duration=2.0)
    run(scenario)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ticks = run(scenario).ticks
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(ticks) == 2000
    assert held / len(ticks) < 400


def test_reading_a_log_holds_little_beyond_its_columns(tmp_path):
    # 34 copies of a 300-tick run, where a join of parsed blocks would show,
    # and 2,000-tick logs at one and three axes, where a block of parsed text
    # would weigh more than the columns; the reader holds one record array
    one = run(_cart_scenario(duration=0.3)).ticks
    logs = {"34x300": TickLog({name: np.concatenate([getattr(one, name)] * 34)
                               for name in sim_harness._FIELDS}, one.region_names),
            "2000x1": run(_cart_scenario(duration=2.0)).ticks,
            "2000x3": run(_cart3_scenario(duration=2.0)).ticks}
    for name, log in logs.items():
        path = tmp_path / f"{name}.csv"
        write_ticks_csv(path, log)
        tracemalloc.start()
        try:
            ticks = read_ticks_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ticks) == len(log), name
        # copying the fields out of the record array reads 2.0x
        assert peak < 1.6 * sum(getattr(ticks, f).nbytes for f in sim_harness._FIELDS), name


def _assert_same_ticks(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in ControlTick._fields:
            x, y = getattr(a, name), getattr(b, name)
            if isinstance(y, np.ndarray):
                # bitwise, so -0.0 and 0.0 stay apart
                assert x.tobytes() == y.tobytes(), name
            else:
                assert type(x) is type(y) and repr(x) == repr(y), name


def _parity_logs():
    arm = _cart_scenario(
        name="arm", plant=PlanarArm(q0=(0.3, 0.8)),
        gains=PdGains(kp=(20.0, 20.0), kd=(8.0, 8.0), target=(0.55, 0.45)),
        t_initial=1.0, duration=0.3)
    spaced = _cart_scenario(
        name="spaced",
        schedule=_schedule((0.0, "chest (upper)", 0.5), (0.1, "hand", 0.4)),
        duration=0.2)
    long_log = _cart_scenario(
        name="long", wrench_script=(WrenchSegment(0.2, 0.4, (-0.7,)),),
        duration=(2 * sim_harness._CHUNK + 17) * 1e-3)
    return {"cart1": run(_cart_scenario(duration=0.3)).ticks,
            "cart3": run(_cart3_scenario()).ticks, "arm": run(arm).ticks,
            "spaced": run(spaced).ticks, "long": run(long_log).ticks,
            "edges": _edge_ticks()}


def _edge_ticks():
    """Region names at the edges of the name rule, which csv writes bare, and
    floats at the edges of repr: -0.0, the smallest subnormal and a value
    near the top of the range."""
    names = ["space here", " padded ", "quote'q", "#hash", "é ü", "plain"]
    values = [-0.0, 5e-324, 1e308]
    ticks = run(_cart_scenario(duration=0.012)).ticks
    return tick_log([tk._replace(active_region=names[i % len(names)],
                                 b=values[i % 3], h_truth=-values[i % 3],
                                 f_c=np.array([values[(i + 1) % 3]]),
                                 x=np.array([-values[(i + 2) % 3]]))
                     for i, tk in enumerate(ticks)])


def test_csv_writer_matches_the_rowwise_reference(tmp_path):
    for name, ticks in _parity_logs().items():
        if name == "long":
            assert len(ticks) > 2 * sim_harness._CHUNK
        ours, ref = tmp_path / f"{name}.csv", tmp_path / f"{name}_ref.csv"
        write_ticks_csv(ours, ticks)
        write_ticks_csv_rowwise(ref, ticks)
        assert ours.read_bytes() == ref.read_bytes(), name
        _assert_same_ticks(read_ticks_csv(ours), ticks)
    assert ",chest (upper)," in (tmp_path / "spaced.csv").read_text()
    edges = (tmp_path / "edges.csv").read_bytes()
    for text in (b",space here,", b", padded ,", b",quote'q,", b",#hash,",
                 ",é ü,".encode(), b",plain,", b",-0.0,", b",5e-324,", b",1e+308,"):
        assert text in edges, text


@pytest.mark.parametrize("name", REFUSED_REGION_NAMES.values(), ids=REFUSED_REGION_NAMES)
def test_csv_writer_refuses_a_name_outside_the_rule(tmp_path, name):
    # a hand-built TickLog may hold any name; the reader could not read it back
    ticks = run(_cart_scenario(duration=0.005)).ticks
    path = tmp_path / "ticks.csv"
    with pytest.raises(DomainError, match="a region name must be a non-empty printable"):
        write_ticks_csv(path, TickLog({f: getattr(ticks, f) for f in sim_harness._FIELDS},
                                      [name]))
    assert not path.exists()


# float bit patterns that repr must keep apart: signed zeros, two NaN payloads,
# infinities, subnormals and the values where repr switches notation
_SPECIAL_BITS = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -1e-310, 1e16, 1e-5,
                          9999999999999998.0, 0.0001]).view(np.int64).tolist() + [
    0x7FF8000000000000, 0x7FF800000000BEEF]
_CHUNK = sim_harness._CHUNK


def _pool_log(m, n, pool, seed, names) -> TickLog:
    """An n-tick, m-axis log of values drawn from a pool of float bit patterns,
    and region names drawn from names."""
    rng = np.random.default_rng(seed)

    def values(*shape):
        # runs of one pool value, some longer than a block, along each column
        size = int(np.prod(shape))
        runs = rng.choice([1, 2, 7, 3 * _CHUNK], size=size)
        picks = np.repeat(rng.integers(len(pool), size=size), runs)[:size]
        return np.array(pool, dtype=np.int64)[picks].view(float).reshape(shape).T

    columns = {name: values(m, n) if name in sim_harness._VECTORS else values(n)
               for name in sim_harness._FIELDS}
    columns["k"] = np.arange(n) - int(rng.integers(-10**6, 10**6))
    columns["active_region"] = rng.integers(len(names), size=n)
    return TickLog(columns, names)


_POOLS = st.lists(st.sampled_from(_SPECIAL_BITS) | st.floats(width=64).map(
    lambda v: int(np.array(v).view(np.int64))), min_size=1, max_size=12)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(m=st.integers(min_value=1, max_value=3),
       n=st.sampled_from([1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]),
       pool=_POOLS, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_csv_writer_matches_the_per_cell_reference(tmp_path_factory, m, n, pool, seed):
    # in-process, and streamed to run()'s helper process block by block
    log = _pool_log(m, n, pool, seed, ["zone", "chest (upper)", " é "])
    ours = tmp_path_factory.mktemp("writer") / "ticks.csv"
    ref, streamed = ours.with_name("per_cell.csv"), ours.with_name("streamed.csv")
    write_ticks_csv(ours, log)
    write_ticks_csv_per_cell(ref, log)
    _stream(streamed, log)
    assert ours.read_bytes() == ref.read_bytes() == streamed.read_bytes()


def _stream(path, log: TickLog):
    """Write log to path through run()'s helper process, sent as run() sends
    it: _CHUNK rows at a time, each block with the names it adds."""
    m = log.xdot.shape[1]
    stream = Stream(path, ",".join(sim_harness._tick_columns(m)))
    try:
        for start in range(0, len(log), _CHUNK):
            stop = min(start + _CHUNK, len(log))
            stream.send(sim_harness._block(log, start, stop),
                        log.region_names[:log.active_region[:stop].max() + 1])
        stream.close(True)
    finally:
        stream.kill()


# region names at the edges of the name rule: spaces inside and around a
# name, which numpy hands over unchanged, a '#', which would start a comment
# if the reader took comments, a single quote, non-ASCII and digits
_READER_NAMES = ["zone", "a b", " padded ", "#hash", "q'q", "é", "-1"]


def _row_spans(text) -> list:
    """(start, end) of each row's text before its terminator.  A row starts
    after each "\r\n" but the last, since no region name holds a line break."""
    starts = [match.end() for match in re.finditer("\r\n", text)][:-1]
    return [(start, stop - 2) for start, stop in zip(starts, [*starts[1:], len(text)])]


def _edit_field(text, span, field, edit):
    """text with the field-th field of the row at span (k, t or, at -1, the
    last) replaced by edit(field)."""
    start, end = span
    row = text[start:end]
    if field < 0:
        head, cell = row.rsplit(",", 1)
        row = f"{head},{edit(cell)}"
    else:
        cells = row.split(",", 2)  # k and t hold no comma
        cells[field] = edit(cells[field])
        row = ",".join(cells)
    return text[:start] + row + text[end:]


def _insert(text, at, what):
    return text[:at] + what + text[at:]


def _in_a_number(edit):
    """A mutation that edits k, t or the last field of one row."""
    return lambda text, spans, pick: _edit_field(text, spans[pick % len(spans)],
                                                 (0, 1, -1)[pick % 3], edit)


def _in_k(new):
    return lambda text, spans, pick: _edit_field(text, spans[pick % len(spans)], 0,
                                                 lambda _: new[pick % len(new)])


def _in_body(text, spans, pick) -> int:
    """An offset in text past the header."""
    return spans[0][0] + pick % (len(text) - spans[0][0])


_MUTATIONS = {
    "none": lambda text, spans, pick: text,
    "blank_first": lambda text, spans, pick: _insert(text, spans[0][0], "\r\n"),
    "blank_middle": lambda text, spans, pick: _insert(
        text, spans[len(spans) // 2][1] + 2, ("\r\n", "\n", "\r")[pick % 3]),
    "blank_last": lambda text, spans, pick: text + ("\r\n", "\n", "\r")[pick % 3],
    "spaces_around_number": _in_a_number(lambda cell: f" {cell}\t "),
    "quoted_number": _in_a_number(lambda cell: f'"{cell}"'),
    "k_with_underscore": _in_k(["0_0", "1_000"]),
    "k_as_float": _in_k(["1.0", "1e3"]),
    "k_past_int64": _in_k([str(2**63), str(-2**63 - 1), "1" + "0" * 20]),
    "minus_nan": lambda text, spans, pick: _edit_field(
        text, spans[pick % len(spans)], (1, -1)[pick % 2], lambda _: "-nan"),
    "lone_cr": lambda text, spans, pick: _insert(text, _in_body(text, spans, pick), "\r"),
    # a row's "\r\n" cut to "\r", a line end that Python's newline handling
    # reads and that numpy refuses inside a line
    "cr_terminator": lambda text, spans, pick: (
        text[:spans[pick % len(spans)][1]] + "\r" + text[spans[pick % len(spans)][1] + 2:]),
    "no_last_terminator": lambda text, spans, pick: text[:-2],
    "unterminated_quote": lambda text, spans, pick: _edit_field(
        text, spans[pick % len(spans)], (1, -1)[pick % 2], lambda cell: '"' + cell),
    "stray_quote": lambda text, spans, pick: _insert(text, _in_body(text, spans, pick), '"'),
    # a row of one field too many, which np.loadtxt's usecols would let through
    "extra_field": lambda text, spans, pick: _insert(
        text, spans[pick % len(spans)][1], (",0.0", ",")[pick % 2]),
}


# the edits read as the same numbers, or as NaN for "-nan"
_TOLERATED = {"spaces_around_number", "minus_nan", "no_last_terminator"}


@pytest.mark.parametrize("mutation", list(_MUTATIONS))
@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(m=st.integers(min_value=1, max_value=3),
       n=st.sampled_from([1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]),
       pool=_POOLS, seed=st.integers(min_value=0, max_value=2**32 - 1),
       names=st.lists(st.sampled_from(_READER_NAMES), min_size=1, max_size=4, unique=True),
       pick=st.integers(min_value=0, max_value=2**20))
def test_reader_matches_the_blockwise_reference(tmp_path_factory, mutation, m, n, pool,
                                                 seed, names, pick):
    # the reference is the log write_ticks_csv wrote: read unedited, it
    # comes back bit for bit; each edit of it is refused with a DomainError
    # naming the file, or read where numpy tolerates the form
    path = tmp_path_factory.mktemp("reader") / "ticks.csv"
    log = _pool_log(m, n, pool, seed, names)
    write_ticks_csv(path, log)
    text = path.read_bytes().decode("utf-8")
    path.write_bytes(_MUTATIONS[mutation](text, _row_spans(text), pick).encode("utf-8"))
    if mutation != "none" and mutation not in _TOLERATED:
        with pytest.raises(DomainError, match=re.escape(f"{path}: ")):
            read_ticks_csv(path)
        return
    got = read_ticks_csv(path)
    # every column a field of one record array, not a copy
    records = got.k.base
    assert records is not None and records.dtype.names == sim_harness._FIELDS
    assert all(getattr(got, name).base is records for name in sim_harness._FIELDS)
    if mutation == "minus_nan":
        return
    assert ([got.region_names[c] for c in got.active_region.tolist()]
            == [log.region_names[c] for c in log.active_region.tolist()])
    for name in sim_harness._FIELDS:
        if name != "active_region":
            # repr writes every NaN payload and sign as "nan", numpy's one NaN
            a, b = getattr(got, name), getattr(log, name)
            b = np.where(np.isnan(b), np.nan, b) if b.dtype == float else b
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def test_writing_a_read_log_gives_its_bytes(tmp_path, cli_runs):
    # pfltank run streams the bytes that write_ticks_csv writes of the log
    # run() returned; the reader's columns are strided views of one record array
    for name, (result, streamed) in cli_runs.items():
        ours, again = tmp_path / f"{name}.csv", tmp_path / f"{name}_again.csv"
        write_ticks_csv(ours, result.ticks)
        write_ticks_csv(again, read_ticks_csv(streamed))
        assert streamed.read_bytes() == ours.read_bytes() == again.read_bytes(), name


# -- the log run() streams ------------------------------------------------------

def _helpers(monkeypatch) -> list:
    """Every helper process run() starts from now on, recorded as started."""
    import subprocess

    helpers = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            helpers.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return helpers


def test_a_faulted_run_streams_its_partial_log(tmp_path):
    # the 200 N push from t = 0.5 s breaks the ledger of a 0.02 J region:
    # 500 ticks, the last block a partial one
    scenario = _cart_scenario(plant=CartesianPlant((2.0,), (0.0,), (0.1,)),
                              gains=PdGains((0.0,), (0.0,), (0.0,)),
                              schedule=_schedule((0.0, "tight", 0.02)), t_initial=0.51,
                              wrench_script=(WrenchSegment(0.5, 1.0, (200.0,)),))
    streamed, ref = tmp_path / "ticks.csv", tmp_path / "ref.csv"
    result = run(scenario, ticks_csv=streamed)
    assert (result.fault, len(result.ticks)) == ("emergency", 500)
    write_ticks_csv(ref, result.ticks)
    assert streamed.read_bytes() == ref.read_bytes()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["ref.csv", "ticks.csv"]


def test_a_run_that_streams_no_tick_removes_the_old_log(tmp_path):
    # 1 J of motion, a budget 1e-4 J above it and no damper band: the 100 N
    # push feeds the robot 100 W, which the tank cannot book on cycle 0
    scenario = _cart_scenario(plant=CartesianPlant((2.0,), (0.0,), (1.0,)),
                              gains=PdGains((0.0,), (0.0,), (0.0,)),
                              schedule=_schedule((0.0, "zone", 1.0001)), t_initial=1.0,
                              damper_band=0.0,
                              wrench_script=(WrenchSegment(0.0, 1.0, (100.0,)),))
    path = tmp_path / "ticks.csv"
    path.write_text("an earlier run's log")
    result = run(scenario, ticks_csv=path)
    assert (result.fault, len(result.ticks)) == ("emergency", 0)
    assert list(tmp_path.iterdir()) == []


def test_an_interrupted_stream_leaves_no_file_and_no_process(tmp_path, monkeypatch):
    helpers = _helpers(monkeypatch)
    cycle = SafetyController.control_cycle

    def interrupted(self, obs, h_truth):
        if self._k == 2 * _CHUNK + 10:  # two blocks have gone to the helper
            raise KeyboardInterrupt
        return cycle(self, obs, h_truth)

    monkeypatch.setattr(SafetyController, "control_cycle", interrupted)
    threads = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        run(_cart_scenario(), ticks_csv=tmp_path / "ticks.csv")
    assert list(tmp_path.iterdir()) == []
    assert len(helpers) == 1 and helpers[0].returncode is not None  # stopped and reaped
    assert threading.active_count() == threads


def test_a_stream_runs_no_thread_beside_the_loop(tmp_path, monkeypatch):
    counts = []
    cycle = SafetyController.control_cycle

    def counted(self, obs, h_truth):
        if self._k == 2 * _CHUNK + 10:  # two blocks have gone to the helper
            counts.append(threading.active_count())
        return cycle(self, obs, h_truth)

    monkeypatch.setattr(SafetyController, "control_cycle", counted)
    threads = threading.active_count()
    run(_cart_scenario(), ticks_csv=tmp_path / "ticks.csv")
    assert counts == [threads]


def test_a_run_without_a_path_never_imports_the_stream():
    # importing the package, validating a scenario and running it without a
    # path compile and hold none of the helper's module, in a fresh interpreter
    code = ("import sys, pfltank\n"
            "from pfltank.cli import load_scenario, main\n"
            "assert main(['validate', 'budget_starved']) == 0\n"
            "assert pfltank.run(load_scenario('budget_starved')).fault is None\n"
            "print('pfltank._tick_writer' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == "False"


def test_a_stream_that_cannot_be_written_raises_and_leaves_nothing(tmp_path, monkeypatch):
    # the helper's file may grow to 100 kB here, and 1000 ticks take twice that
    helpers = _helpers(monkeypatch)
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (100_000, hard))
    try:
        with pytest.raises(OSError, match="^File too large$"):
            run(_cart_scenario(), ticks_csv=tmp_path / "ticks.csv")
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
    assert list(tmp_path.iterdir()) == []
    assert len(helpers) == 1 and helpers[0].returncode == 1


def test_a_140000_character_region_name_reads_back(tmp_path):
    # longer than csv.field_size_limit(), which csv.reader would refuse
    name = "c" * 140_000
    assert len(name) > csv.field_size_limit()
    doc = json.loads((Path(sim_harness.__file__).parent / "scenarios"
                      / "paper_replica.json").read_text())
    doc["regions"][name] = doc["regions"].pop("chest")
    doc["schedule"][0]["region"] = name
    doc["duration"] = 0.01
    result = run(scenario_from_config(doc))
    path = tmp_path / "ticks.csv"
    write_ticks_csv(path, result.ticks)
    assert path.stat().st_size > len(name) * len(result.ticks)  # a name per row
    ticks = read_ticks_csv(path)
    assert ticks.region_names == [name]
    again = summarize(ticks)
    again.scenario, again.fault = result.summary.scenario, result.summary.fault
    sim_harness._attach_iso_comparison(again, result.scenario)
    assert repr(again.to_dict()) == repr(result.summary.to_dict())


def test_summarize_matches_the_rowwise_reference(bundled_runs):
    logs = _parity_logs()
    logs.update((name, result.ticks) for name, result in bundled_runs.items())
    for name, ticks in logs.items():
        # repr tells -0.0 from 0.0
        assert (repr(summarize(ticks).to_dict())
                == repr(summarize_rowwise(list(ticks)).to_dict())), name


def _armed_last_only():
    # the damper armed on the last tick opens no interval, so nothing is armed
    ticks = run(_cart_scenario(duration=0.05)).ticks
    ticks.b[-1] = 1.5
    return ticks


def _armed_on_zeros():
    # every armed product a zero, -0.0 among them: the sums still start at +0.0
    return tick_log([_tick(0, 0.0, "A", 0.1, 1.9, 1.5, b=2.0, f_e=-3.0, v=0.0),
                     _tick(1, 0.1, "A", 0.1, 1.9, 1.5, b=2.0, f_e=-3.0, v=-0.0),
                     _tick(2, 0.2, "A", 0.1, 1.9, 1.5, v=0.0)])


@pytest.mark.parametrize("logs, armed", [
    (lambda: run(_cart_scenario(duration=0.3)).ticks, False),
    (_armed_last_only, False),
    (lambda: tick_log([_tick(0, 0.0, "A", 0.1, 1.9, 1.5, b=2.0)]), False),
    (lambda: run(_cart_scenario(duration=0.4, wrench_script=(
        WrenchSegment(0.1, 0.3, (5.0,)),))).ticks, True),
    (_armed_on_zeros, True),
], ids=["calm_run", "armed_on_the_last_tick", "one_armed_tick", "pushed_run", "armed_on_zeros"])
def test_summarize_gives_the_damper_sums_with_and_without_an_armed_interval(logs, armed):
    ticks = logs()
    assert bool(np.any(ticks.b[:-1] > 0.0)) is armed
    s = summarize(ticks)
    assert repr(s.to_dict()) == repr(summarize_rowwise(list(ticks)).to_dict())
    if not armed:  # the sums' +0.0 start, no product formed
        assert (math.copysign(1.0, s.damper_energy) == math.copysign(1.0, s.injection_excess)
                == 1.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(m=st.integers(min_value=1, max_value=3), n=st.integers(min_value=1, max_value=40),
       pool=st.lists(st.sampled_from(_SPECIAL_BITS) | st.floats(width=64).map(
           lambda v: int(np.array(v).view(np.int64))), min_size=1, max_size=6),
       first=st.none() | st.sampled_from(_SPECIAL_BITS),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_summarize_matches_the_rowwise_reference_on_special_values(m, n, pool, first, seed):
    # numpy's min and max give any NaN and either signed zero where Python's
    # keep the first; the sums must add from 0.0 in tick order
    rng = np.random.default_rng(seed)

    def values(*shape):
        # runs of one pool value, so zeros of both signs tie
        size = int(np.prod(shape))
        picks = np.repeat(rng.integers(len(pool), size=size), rng.choice([1, 3], size=size))
        column = np.array(pool, dtype=np.int64)[picks[:size]].view(float).reshape(shape)
        if first is not None:  # a NaN, a zero or an infinity on the first row
            column[0] = np.array(first).view(float)
        return column

    names = ["zone", "chest", "hand"]
    columns = {name: values(n, m) if name in sim_harness._VECTORS else values(n)
               for name in sim_harness._FIELDS}
    columns["k"] = np.arange(n)
    columns["active_region"] = np.repeat(rng.integers(len(names), size=n),
                                         rng.choice([1, 4], size=n))[:n]
    columns["b"][rng.random(n) < 0.5] = 1.5  # the damper armed on some rows
    log = TickLog(columns, names)
    summary = summarize(log)  # with no warning, which the suite makes an error
    with np.errstate(all="ignore"):
        reference = summarize_rowwise(list(log))
    assert repr(summary.to_dict()) == repr(reference.to_dict())

    # to_dict is asdict without the deep copy, ISO comparison unset and set
    assert repr(summary.to_dict()) == repr(dataclasses.asdict(summary))
    summary.scenario, summary.fault = "unit", "emergency"
    for i, seg in enumerate(summary.segments):
        seg.v_max_quasi_static, seg.v_max_transient = 0.25 * i, -0.0
        seg.exceeded_quasi_static, seg.exceeded_transient = True, i % 2 == 0
    assert repr(summary.to_dict()) == repr(dataclasses.asdict(summary))


def _malformed(tmp_path, edit):
    path = tmp_path / "ticks.csv"
    write_ticks_csv(path, run(_cart_scenario(duration=0.005)).ticks)
    lines = path.read_text().splitlines(keepends=True)
    # surrogateescape writes a lone "\udcff" as the byte 0xff
    path.write_bytes("".join(edit(lines)).encode("utf-8", "surrogateescape"))
    return path


def _each_line(lines, edit_fields):
    out = []
    for line in lines:
        fields = line.rstrip("\r\n").split(",")
        edit_fields(fields)
        out.append(",".join(fields) + "\r\n")
    return out


def _drop_column(lines, name="f_des_x"):
    col = lines[0].rstrip("\r\n").split(",").index(name)
    return _each_line(lines, lambda fields: fields.pop(col))


def _swap_columns(lines):
    def swap(fields):
        fields[4], fields[5] = fields[5], fields[4]  # f_des_x and f_c_x
    return _each_line(lines, swap)


def _extra_column(lines):
    return _each_line(lines, lambda fields: fields.append("0.0"))


def _short_row(lines):
    lines[3] = lines[3].rsplit(",", 1)[0] + "\r\n"
    return lines


def _non_numeric(lines):
    fields = lines[4].split(",")
    fields[1] = "soon"
    lines[4] = ",".join(fields)
    return lines


def _k_overflow(lines):
    lines[3] = "1" + "0" * 20 + lines[3][lines[3].index(","):]
    return lines


def _blank_line(lines):
    lines.insert(3, "\r\n")
    return lines


def _cr_line_ends(lines):
    return [line.rstrip("\r\n") + "\r" for line in lines]


def _cr_after_header(lines):
    lines[0] = lines[0].rstrip("\r\n") + "\r"
    return lines


def _cr_at_the_end(lines):
    lines[-1] = lines[-1].rstrip("\r\n") + "\r"
    return lines


def _no_velocity(lines):
    lines[0] = lines[0].replace("xdot_", "v_")
    return lines


def _fourth_axis(lines):
    lines[0] = ",".join(sim_harness._tick_columns(3)) + ",xdot_w\r\n"
    return lines


def _k_underscore(lines):
    lines[3] = "0_0" + lines[3][lines[3].index(","):]  # int() takes it
    return lines


def _quoted_name(lines):
    fields = lines[3].split(",")
    fields[2] = f'"{fields[2]}"'  # csv.reader reads the bare name back
    lines[3] = ",".join(fields)
    return lines


def _not_utf8(lines):
    fields = lines[3].split(",")
    fields[2] += "\udcff"  # the region name
    lines[3] = ",".join(fields)
    return lines


# None where the message is numpy's, which names no file line
@pytest.mark.parametrize("edit, message", [
    (_drop_column, "missing columns ['f_des_x']"),
    (_short_row, None),
    (_non_numeric, None),
    (_not_utf8, "codec can't decode byte 0xff"),
    (_swap_columns, "header is not the tick-log header"),
    (_extra_column, "header is not the tick-log header"),
    (_blank_line, "blank line"),
    (_fourth_axis, "header is not the tick-log header"),
    (_k_overflow, None),
    (_k_underscore, None),
    (_quoted_name, "a region name must be"),
    (_no_velocity, "no velocity columns found"),
    # a lone "\r" ends no line, so the header runs on into the rows
    (_cr_line_ends, "missing columns"),
    (_cr_after_header, "missing columns"),
    # numpy reads it as a line end, as it does no other lone "\r"
    (_cr_at_the_end, 'the last line ends in a lone "\\r"'),
], ids=["missing_column", "short_row", "non_numeric", "not_utf8", "reordered_header",
        "extra_column", "blank_line", "fourth_axis", "k_overflow", "k_underscore",
        "quoted_name", "no_velocity", "cr_line_ends", "cr_after_header", "cr_at_the_end"])
def test_malformed_logs_raise_domain_errors(tmp_path, edit, message):
    path = _malformed(tmp_path, edit)
    with pytest.raises(DomainError) as info:
        read_ticks_csv(path)
    assert str(info.value).startswith(f"{path}: ")
    assert message is None or message in str(info.value)


def test_csv_refuses_empty_logs(tmp_path):
    with pytest.raises(DomainError, match="refusing to write an empty tick log"):
        write_ticks_csv(tmp_path / "none.csv", run(_cart_scenario(duration=0.005)).ticks[:0])
    # the whole header and no row, where numpy only warns that it read no
    # data; a zero-byte file has no header
    header_only = tmp_path / "header.csv"
    header_only.write_bytes((",".join(sim_harness._tick_columns(1)) + "\r\n").encode())
    empty = tmp_path / "empty.csv"
    empty.write_bytes(b"")
    for path in (header_only, empty):
        with pytest.raises(DomainError) as info:
            read_ticks_csv(path)
        assert str(info.value) == f"{path}: empty tick log"


def test_a_log_reads_from_a_pipe(tmp_path):
    # a pipe cannot seek, so its last byte goes unchecked, and it reads
    path, fifo, again = tmp_path / "ticks.csv", tmp_path / "fifo", tmp_path / "again.csv"
    write_ticks_csv(path, run(_cart_scenario(duration=0.005)).ticks)
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),),
                              daemon=True)  # the log fits in the pipe's buffer
    writer.start()
    try:
        log = read_ticks_csv(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    write_ticks_csv(again, log)
    assert again.read_bytes() == path.read_bytes()
