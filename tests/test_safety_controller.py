import ast
import contextlib
import copy
import dataclasses
import inspect
import math
import pickle
import struct
import textwrap
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfltank import safety_controller
from pfltank.energy_tank import (
    EPSILON_MIN,
    FLOOR_TOL,
    commit_step,
    damper_coefficient,
    make_tank,
)
from pfltank.errors import DomainError, EmergencyFault, IntegrationFault
from pfltank.iso15066 import BUILTIN_REGIONS, BodyRegion, max_energy
from pfltank.robot_dynamics import CartesianPlant, PlanarArm, WrenchInput, _snapshot
from pfltank.safety_controller import (
    FEASIBILITY_MARGIN,
    ControlTick,
    PdGains,
    PlantObservation,
    RegionSchedule,
    SafetyController,
    project_halfspace,
    solve_alpha,
    supervise,
)
from pfltank.sim_harness import WrenchSegment, _wrench_table

from oracles import (
    alpha_oracle,
    command_numpy,
    pd_force,
    projection_oracle,
    region_index,
    tank_port_force_numpy,
    trapezoidal_velocity_numpy,
)


def _schedule(*pairs):
    return RegionSchedule(tuple(t for t, _, _ in pairs),
                          tuple(BodyRegion(name=name, e_max_override=e)
                                for _, name, e in pairs))


# -- command scaling --------------------------------------------------------------

def test_alpha_passes_replenishing_commands():
    # braking force aligned with motion refills the tank: never scaled
    assert solve_alpha(np.array([2.0]), np.array([1.0]), 0.6, 0.5, 1e-3, 0.0) == 1.0


def test_alpha_zero_power_tie_break():
    at_rest = np.zeros(2)
    f = np.array([3.0, 0.0])
    assert solve_alpha(f, at_rest, 1.0, 0.5, 1e-3, 0.0) == 1.0
    # starved budget: scaling cannot help, hold the command at zero
    assert solve_alpha(f, at_rest, 0.4999, 0.5, 1e-3, 0.0) == 0.0


def test_alpha_clamps_draining_commands_to_the_floor():
    f_des = np.array([-10.0])
    xdot = np.array([2.0])
    t_prev, eps, tau = 0.52, 0.5, 1e-3
    alpha = solve_alpha(f_des, xdot, t_prev, eps, tau, 0.0)
    # hand arithmetic: c = -0.02, alpha = (0.5 - 0.52) / -0.02
    assert alpha == pytest.approx(1.0, abs=1e-12)
    alpha = solve_alpha(f_des, xdot, 0.51, eps, tau, 0.0)
    assert alpha == pytest.approx(0.5)
    # post: the booked step lands exactly on the floor
    assert 0.51 + tau * alpha * float(f_des @ xdot) == pytest.approx(eps)


def test_alpha_accounts_external_power():
    f_des = np.array([-10.0])
    xdot = np.array([2.0])
    # external drain makes the same command tighter
    a_neutral = solve_alpha(f_des, xdot, 0.51, 0.5, 1e-3, 0.0)
    a_drained = solve_alpha(f_des, xdot, 0.51, 0.5, 1e-3, -5.0)
    assert a_drained < a_neutral


def test_alpha_matches_bruteforce_oracle():
    rng = np.random.RandomState(23)
    for _ in range(300):
        m = rng.randint(1, 4)
        f_des = rng.uniform(-20.0, 20.0, size=m)
        xdot = rng.uniform(-2.0, 2.0, size=m)
        eps = rng.uniform(0.1, 2.0)
        t_prev = eps + rng.uniform(0.0, 1.5)  # controller guarantees T >= eps
        tau = 10.0 ** rng.uniform(-4, -2)
        # the fault check upstream guarantees t_prev + tau p_ext >= eps too
        p_ext = rng.uniform(-0.9 * (t_prev - eps) / tau, 30.0)
        got = solve_alpha(f_des, xdot, t_prev, eps, tau, p_ext)
        want = alpha_oracle(f_des, xdot, t_prev, p_ext, eps, tau, tol=0.0)
        assert got == pytest.approx(want, abs=1e-6)


def test_projection_matches_kkt_oracle():
    rng = np.random.RandomState(29)
    for _ in range(300):
        m = rng.randint(1, 4)
        f_des = rng.uniform(-20.0, 20.0, size=m)
        xdot = rng.uniform(-2.0, 2.0, size=m)
        eps = rng.uniform(0.1, 2.0)
        t_prev = eps + rng.uniform(0.0, 1.5)
        p_ext = rng.uniform(-30.0, 30.0)
        tau = 10.0 ** rng.uniform(-4, -2)
        got = project_halfspace(f_des, xdot, t_prev, eps, tau, p_ext)
        want = projection_oracle(f_des, xdot, t_prev + tau * p_ext, eps, tau)
        assert want is not None
        assert got == pytest.approx(want, abs=1e-6)
        # post: admissible up to float dust
        assert t_prev + tau * p_ext + tau * float(got @ xdot) >= eps - 1e-9


def test_projection_zeroes_command_when_unmeetable_at_rest():
    f_des = np.array([5.0, 0.0])
    got = project_halfspace(f_des, np.zeros(2), 0.3, 0.5, 1e-3, 0.0)
    assert got == pytest.approx(np.zeros(2))


def test_projection_keeps_feasible_commands_untouched():
    f_des = np.array([1.0, -2.0])
    got = project_halfspace(f_des, np.array([0.5, 0.5]), 1.0, 0.5, 1e-3, 0.0)
    assert got == pytest.approx(f_des)


# -- pd force and schedule ---------------------------------------------------------

def test_pd_force_hand_value():
    gains = PdGains(kp=(2.0, 0.0), kd=(0.5, 0.0), target=(1.0, 0.0))
    f = pd_force(gains, np.array([0.25, 0.0]), np.array([0.1, 0.0]))
    assert f == pytest.approx([2.0 * 0.75 - 0.5 * 0.1, 0.0])


def test_gains_are_immutable_in_every_copy():
    # the controller unpacks the gains' tuples once, so no copy may let them drift
    gains = PdGains(kp=[2.0, 0.0], kd=np.array([0.5, 0.0]), target=(1.0, 0.0))
    for same in (gains, copy.copy(gains), copy.deepcopy(gains),
                 pickle.loads(pickle.dumps(gains))):
        with pytest.raises(TypeError):
            same.kp[0] = 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            same.kp = (5.0, 0.0)
        assert (same.kp, same.kd, same.target) == ((2.0, 0.0), (0.5, 0.0), (1.0, 0.0))
        assert all(type(v) is float for v in same.kp + same.kd + same.target)
        assert pd_force(same, [0.25, 0.0], [0.1, 0.0]) == [2.0 * 0.75 - 0.5 * 0.1, 0.0]


def test_gains_compare_by_value_on_every_axis():
    gains = PdGains(kp=(2.0, 1.0), kd=(0.5, 0.0), target=(1.0, 0.0))
    # 0.0 == -0.0 for the gains as for their floats, and equal gains hash alike
    same = PdGains(kp=[2.0, 1.0], kd=np.array([0.5, -0.0]), target=(1.0, -0.0))
    assert gains == same and hash(gains) == hash(same)
    assert {gains, same, copy.deepcopy(gains)} == {gains}
    for other in (PdGains(kp=(2.0, 1.0), kd=(0.5, 0.0), target=(1.0, 0.5)),
                  PdGains(kp=(2.0,), kd=(0.5,), target=(1.0,)),
                  (gains.kp, gains.kd, gains.target)):
        assert gains != other and not gains == other


def test_gains_validation():
    with pytest.raises(DomainError):
        PdGains(kp=(1.0,), kd=(1.0, 1.0), target=(0.0,))
    with pytest.raises(DomainError):
        PdGains(kp=(-1.0,), kd=(1.0,), target=(0.0,))


def test_schedule_validation():
    with pytest.raises(DomainError):
        _schedule((1.0, "late", 1.0))
    with pytest.raises(DomainError):
        _schedule((0.0, "a", 1.0), (0.0, "b", 2.0))
    with pytest.raises(DomainError):
        RegionSchedule((0.0,), ("not-a-region",))
    chest = BUILTIN_REGIONS["chest"]
    with pytest.raises(DomainError, match="first schedule entry must be at t = 0"):
        RegionSchedule((0.5,), (chest,))
    with pytest.raises(DomainError, match="1 switch times but 2 regions"):
        RegionSchedule((0.0,), (chest, chest))
    with pytest.raises(DomainError, match="empty"):
        RegionSchedule((), ())


def test_schedule_derives_its_budgets():
    chest, shoulders = BUILTIN_REGIONS["chest"], BUILTIN_REGIONS["shoulders"]
    sched = RegionSchedule((0.0,), (chest,))
    assert sched.energies == (max_energy(chest),)
    assert RegionSchedule([0, 4], [chest, shoulders]).times == (0.0, 4.0)
    # a budget is not a constructor argument, so it cannot contradict its region
    with pytest.raises(TypeError):
        RegionSchedule((0.0,), (chest,), (100.0,))


def test_a_switch_on_a_tick_boundary_governs_that_tick_on():
    # float dust either side of the boundary does not move the switch by a cycle
    gains = PdGains(kp=(0.0,), kd=(0.0,), target=(0.0,))
    for switch in (4e-3, 4e-3 - 1e-13, 4e-3 + 1e-13):
        sched = _schedule((0.0, "a", 1.0), (switch, "b", 2.0))
        ctl = SafetyController(gains, sched, 3.0, 0.0, 1e-3)
        ticks = [ctl.control_cycle(_obs(0.0, 0.0))[1] for _ in range(10)]
        assert [tk.active_region for tk in ticks] == ["a"] * 4 + ["b"] * 6, switch
        assert [tk.epsilon for tk in ticks] == [2.0] * 4 + [1.0] * 6, switch


def test_supervise_moves_floor_only_on_change():
    sched = _schedule((0.0, "a", 1.6), (4.0, "b", 2.5))
    tank = make_tank(5.0, 3.4)
    floors = sched.floors(5.0, 0.0)
    same = supervise(floors, 0, tank)
    assert same is tank  # no churn inside a segment
    moved = supervise(floors, 1, tank)
    assert moved.epsilon == pytest.approx(2.5)


def test_supervise_takes_effect_in_deficit():
    sched = _schedule((0.0, "wide", 2.5), (1.0, "narrow", 1.6))
    floors = sched.floors(3.0, 0.0)
    tank = make_tank(3.0, floors[0])
    drained = commit_step(tank, p_task=-250.0, p_in=0.0, p_damp=0.0, tau=0.01)
    assert drained.energy == pytest.approx(0.5)
    raised = supervise(floors, 1, drained)  # floor 1.4 above current energy
    assert raised.epsilon == pytest.approx(1.4)
    assert raised.energy < raised.epsilon  # legal snapshot, handled upstream


# -- the per-cycle controller ------------------------------------------------------

def _controller(t_initial=1.0, e_max=0.5, kp=2.0, kd=0.0, target=1.0, tau=0.01,
                **kwargs):
    sched = _schedule((0.0, "zone", e_max))
    gains = PdGains(kp=(kp,), kd=(kd,), target=(target,))
    return SafetyController(gains, sched, t_initial, 0.0, tau, **kwargs)


def _obs(x, xdot, f_e=0.0):
    return PlantObservation(x=np.array([float(x)]), xdot=np.array([float(xdot)]),
                            f_e=np.array([float(f_e)]))


def test_commit_floor_is_the_margin_below_epsilon(monkeypatch):
    # commit_step applies FLOOR_TOL itself, so the controller must not
    floors = []

    def spy(*args, floor=None, **kwargs):
        floors.append(floor)
        return commit_step(*args, floor=floor, **kwargs)

    monkeypatch.setattr(safety_controller, "commit_step", spy)
    ctl = _controller()
    ctl.control_cycle(_obs(0.0, 0.3))
    ctl.control_cycle(_obs(0.0, 0.3))
    assert floors == [ctl.tank.epsilon - FEASIBILITY_MARGIN]


def test_supervise_runs_once_per_switch_and_commit_once_per_tick(monkeypatch):
    calls = {"supervise": 0, "commit_step": 0}

    def counting(name):
        original = getattr(safety_controller, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return spy

    for name in calls:
        monkeypatch.setattr(safety_controller, name, counting(name))
    sched = _schedule((0.0, "a", 0.5), (0.03, "b", 0.4), (0.07, "c", 0.45))
    ctl = SafetyController(PdGains(kp=(2.0,), kd=(0.5,), target=(1.0,)), sched,
                           1.0, 0.0, 0.01)
    ticks = [ctl.control_cycle(_obs(0.0, 0.1))[1] for _ in range(10)]
    ctl.finalize(np.array([0.1]))
    assert [tk.active_region for tk in ticks] == ["a"] * 3 + ["b"] * 4 + ["c"] * 3
    assert [tk.epsilon for tk in ticks] == [0.5] * 3 + [0.6] * 4 + [0.55] * 3
    # the floor moves at each of the two switches and nowhere else; each
    # tick's interval is booked once, the last by finalize
    assert calls == {"supervise": 2, "commit_step": 10}


def test_controller_sizes_its_tank_from_the_charge():
    sched = _schedule((0.0, "wide", 0.5), (1.0, "narrow", 0.2))
    gains = PdGains(kp=(2.0,), kd=(0.0,), target=(1.0,))
    ctl = SafetyController(gains, sched, 2.0, 0.25, tau=1e-3)
    assert ctl.tank.energy == pytest.approx(2.0)
    assert ctl.tank.epsilon == 2.0 - 0.5 + 0.25  # the first region's floor
    assert ctl.tank.capacity == 2.25
    with pytest.raises(DomainError, match="kinetic energy"):
        SafetyController(gains, sched, 2.0, -0.25, tau=1e-3)


def test_cycle_sign_convention_and_tick_fields():
    ctl = _controller()
    command, tick = ctl.control_cycle(_obs(0.0, 0.3), h_truth=0.123)
    # pd force pulls toward +1, so the tank-port command is its negation
    assert tick.f_des == pytest.approx([-2.0])
    assert tick.alpha == 1.0
    assert command == pytest.approx([-2.0])
    assert tick.k == 0 and tick.t == 0.0
    assert tick.active_region == "zone"
    assert tick.tank_T == pytest.approx(1.0)
    assert tick.epsilon == pytest.approx(0.5)
    assert tick.h_est == pytest.approx(0.0)
    assert tick.h_truth == pytest.approx(0.123)
    _, tick2 = ctl.control_cycle(_obs(0.0, 0.3))
    assert tick2.k == 1 and tick2.t == pytest.approx(0.01)


def test_deferred_commit_uses_trapezoidal_velocity():
    ctl = _controller()
    ctl.control_cycle(_obs(0.0, 0.3))
    _, tick2 = ctl.control_cycle(_obs(0.003, 0.4))
    # interval booked at v_mid = 0.35 with f_c = -2: dT = 0.01 * (-0.7)
    assert tick2.tank_T == pytest.approx(1.0 - 0.007, abs=1e-15)
    assert tick2.h_est == pytest.approx(0.007, abs=1e-15)


_VALUES = st.one_of(st.sampled_from([0.0, -0.0]),
                    st.floats(min_value=-10.0, max_value=10.0, width=64))
#: PD targets whose f_des = -(kp target) is a signed zero, subnormal or near overflow
_EDGE_TARGETS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -1e-310, 2.2250738585072014e-308,
                                 1.7976931348623157e308, -1e308, 1.5, -3.25])


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(m=st.integers(min_value=1, max_value=3), t_initial=st.floats(0.1, 10.0),
       budget=st.one_of(st.floats(1e-5, 1e-3), st.floats(1e-3, 0.9)),
       scale=st.sampled_from(["solved", "unit", "just_under_unit"]), data=st.data())
def test_cycle_elementwise_arithmetic_gives_the_numpy_forms_bits(m, t_initial, budget, scale,
                                                                   data):
    def vector(values=_VALUES):
        return np.array(data.draw(st.lists(values, min_size=m, max_size=m)))

    tau = 1e-3
    energy = budget * t_initial
    if scale == "solved":
        gains = PdGains(kp=vector(st.floats(0.0, 100.0)), kd=vector(st.floats(0.0, 100.0)),
                        target=vector())
        x, xdot, f_e, xdot_next = vector(), vector(), vector(), vector()
    else:
        # kd = 0 and x = +-0 give f_des = -(kp target) at any velocity
        zero = np.zeros(m)
        x = data.draw(st.sampled_from([zero, -zero]))
        speeds = vector(st.floats(0.1, 10.0))
        if scale == "unit":
            gains = PdGains(kp=vector(st.sampled_from([0.0, 0.5, 1.0])), kd=zero,
                            target=vector(_EDGE_TARGETS))
            f_des = tank_port_force_numpy(gains, x, zero)
            # moving along f_des books c >= 0, so alpha is 1; at c = 0 only
            # with the margin's headroom above the floor
            xdot, f_e = np.copysign(speeds, f_des), vector()
            energy += FEASIBILITY_MARGIN
        else:
            gains = PdGains(kp=vector(st.floats(1.0, 10.0)), kd=zero,
                            target=vector(st.floats(0.1, 10.0)))
            f_des = tank_port_force_numpy(gains, x, zero)
            # moving against f_des with no push drains the tank, and this
            # budget puts the floor where alpha_target meets it
            xdot, f_e = -np.copysign(speeds, f_des), zero
            alpha_target = data.draw(st.floats(0.9991, 0.99999))
            energy = FEASIBILITY_MARGIN - alpha_target * tau * float(f_des.dot(xdot))
        xdot_next = xdot  # no inf - inf in the booked power
        t_initial += energy  # the floor stays at the drawn t_initial
    # a band this wide arms the damper whenever the push injects power, so no
    # cycle is infeasible
    ctl = SafetyController(gains, _schedule((0.0, "zone", energy)),
                           t_initial, 0.0, tau, damper_band=1e6)
    with np.errstate(all="ignore"):  # as run(): a product near overflow is inf
        command, tick = ctl.control_cycle(PlantObservation(x, xdot, f_e))
    if scale == "unit":
        assert tick.alpha == 1.0
    elif scale == "just_under_unit":
        assert 0.999 < tick.alpha < 1.0
    f_des = tank_port_force_numpy(gains, x, xdot)
    f_c, wire = command_numpy(f_des, tick.alpha, tick.b, xdot)
    assert tick.f_des.tobytes() == f_des.tobytes()
    assert tick.f_c.tobytes() == f_c.tobytes()
    # at alpha 1 the scaled force is the desired one, array and all; with no
    # damper and a finite speed the command is f_c itself, whose zeros may
    # keep a sign f_c + 0.0 xd drops: adding +0.0 clears a zero's sign alone
    assert (tick.f_c is tick.f_des) == (tick.alpha == 1.0)
    with np.errstate(all="ignore"):
        finite = float(xdot.dot(xdot)) < math.inf
    assert (command is tick.f_c) == (tick.b == 0.0 and finite)
    assert (command + 0.0).tobytes() == (wire + 0.0).tobytes()
    if command is not tick.f_c:
        assert command.tobytes() == wire.tobytes()
    # the interval is booked as three powers at the trapezoidal velocity
    booked = []

    def spy(tank, p_task, p_in, p_damp, *args, **kwargs):
        booked.append((p_task, p_in, p_damp))
        return commit_step(tank, p_task, p_in, p_damp, *args, **kwargs)

    with mock.patch.object(safety_controller, "commit_step", spy), \
            contextlib.suppress(EmergencyFault), np.errstate(all="ignore"):
        ctl.finalize(xdot_next)
    v_mid = trapezoidal_velocity_numpy(xdot, xdot_next)
    [(p_task, p_in, p_damp)] = booked
    with np.errstate(all="ignore"):
        speed_sq = float(v_mid.dot(v_mid))
        # an all-zero f_c books 0.0, whatever sign its product's zero had
        assert _bits(p_task) == _bits(float(f_c.dot(v_mid)) if f_c.any() else 0.0)
        # an all-zero push books 0.0, whatever sign its product's zero had
        pushed = bool(f_e.any()) or not speed_sq < math.inf
        assert _bits(p_in) == _bits(float(f_e.dot(v_mid)) if pushed else 0.0)
        assert _bits(p_damp) == _bits(tick.b * speed_sq)


def _bits(value: float) -> bytes:
    """A float's bytes, so -0.0 and 0.0 stay apart."""
    return struct.pack("<d", value)


#: velocity entries whose squares straddle the calm bound 1e300 and overflow
#: (from about 1.34e154 on), zeros of both signs and moderate values
_SPEEDS = st.one_of(_VALUES, st.sampled_from([1e150, -1e150, 2e154, -1e300]),
                    st.floats(9e149, 1.1e150), st.floats(-1.1e300, -9e299))


def _outcome(act) -> list | str:
    """The bits of the tuple of floats and arrays act returns, or its fault."""
    try:
        with np.errstate(all="ignore"):
            return [np.asarray(value, dtype=float).tobytes() for value in act()]
    except (IntegrationFault, EmergencyFault) as exc:
        return repr(exc)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(m=st.integers(min_value=1, max_value=3),
       energy=st.one_of(st.just(1e-4), st.floats(5e-4, 0.9)), data=st.data())
def test_coasting_outcomes_and_the_ledger_give_the_numpy_forms_bits(m, energy, data):
    # where the command is f_c itself and the ledger books 0.0 for a product
    # it skips, the plants' next states and the committed tank have the bits
    # that the command f_c + b xd and the numpy-form powers give
    def vector(values=_SPEEDS):
        return np.array(data.draw(st.lists(values, min_size=m, max_size=m)))

    tau = 1e-3
    gains = PdGains(kp=vector(st.sampled_from([0.0, 1.0, 50.0])),
                    kd=vector(st.sampled_from([0.0, 2.0])), target=vector(_VALUES))
    x, xdot, xdot_next = vector(_VALUES), vector(), vector()
    # run() samples f_e from _wrench_table, a sum from +0.0, so no -0.0
    push = data.draw(st.one_of(st.none(), st.lists(_VALUES, min_size=m, max_size=m)))
    f_e = _wrench_table(() if push is None else (WrenchSegment(0.0, 1.0, push),),
                        1, tau, m)[0]
    band = data.draw(st.sampled_from([1e-3, 1e6]))

    def controller():
        # energy 1e-4 sits under the margin: a draining command gets alpha 0
        return SafetyController(gains, _schedule((0.0, "zone", energy)), 1.0, 0.0, tau,
                                damper_band=band)

    ctl, following = controller(), controller()  # one books by finalize, one by a cycle
    try:
        with np.errstate(all="ignore"):
            command, tick = ctl.control_cycle(PlantObservation(x, xdot, f_e))
            following.control_cycle(PlantObservation(x, xdot, f_e))
    except EmergencyFault:
        return
    f_c, wire = command_numpy(tick.f_des, tick.alpha, tick.b, xdot)
    with np.errstate(all="ignore"):  # 0.0 * inf is NaN, so an infinite speed forms it
        assert (command is tick.f_c) == (tick.b == 0.0 and float(xdot.dot(xdot)) < math.inf)
    plants = [lambda: CartesianPlant(np.eye(m) + 0.5, x, xdot)]
    if m == 2:
        plants.append(lambda: PlanarArm(q0=(0.3, -0.7), qdot0=(0.4, 0.0)))
    for plant in plants:
        try:
            plant()
        except DomainError:  # an xdot whose energy overflows: the plant refuses it
            continue
        outcomes = [_outcome(lambda: plant().step(tuple.__new__(WrenchInput, (c, f_e)), tau))
                    for c in (command, wire)]
        assert outcomes[0] == outcomes[1]
    # the interval booked by the next cycle or by finalize, against
    # commit_step fed f_c . v_mid, f_e . v_mid and b v_mid . v_mid
    tank, floor = ctl.tank, None if ctl.in_deficit else tick.epsilon - FEASIBILITY_MARGIN
    v_mid = trapezoidal_velocity_numpy(xdot, xdot_next)
    with np.errstate(all="ignore"):
        powers = (float(f_c.dot(v_mid)), float(f_e.dot(v_mid)),
                  tick.b * float(v_mid.dot(v_mid)))
    want = _outcome(lambda: commit_step(tank, *powers, tau, floor=floor))

    def next_cycle():
        before = following.tank
        try:
            following.control_cycle(PlantObservation(x, xdot_next, f_e))
        except EmergencyFault:  # a fault after the commit leaves its tank
            if following.tank is before:
                raise
        return following.tank

    assert _outcome(next_cycle) == want
    assert _outcome(lambda: ctl.finalize(xdot_next)) == want


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(tau=st.sampled_from([5e-4, 1e-3, 2e-3]),
       switches=st.lists(st.tuples(st.integers(1, 30),
                                   st.sampled_from(["at", "below", "above", "twice"])),
                         min_size=1, max_size=6))
def test_region_cursor_gives_what_bisection_gives(tau, switches):
    times = {0.0}
    for k, where in switches:
        probe = k * tau + 0.5 * tau  # the time cycle k looks the schedule up at
        if where == "twice":  # two switches after cycle k - 1's probe
            times |= {probe - 0.75 * tau, probe - 0.25 * tau}
        else:
            times.add({"at": probe, "below": math.nextafter(probe, 0.0),
                       "above": math.nextafter(probe, math.inf)}[where])
    sched = _schedule(*((t, f"r{i}", 0.1 + 0.01 * i) for i, t in enumerate(sorted(times))))
    floors = sched.floors(1.0, 0.0)
    ctl = SafetyController(PdGains(kp=(0.0,), kd=(0.0,), target=(0.0,)), sched, 1.0, 0.0, tau)
    for k in range(33):
        _, tick = ctl.control_cycle(_obs(0.0, 0.0))
        idx = region_index(sched, k * tau + 0.5 * tau)
        assert (tick.active_region, tick.epsilon) == (sched.regions[idx].name, floors[idx]), k


def test_finalize_commits_the_last_interval():
    ctl = _controller()
    ctl.control_cycle(_obs(0.0, 0.3))
    tank = ctl.finalize(np.array([0.4]))
    assert tank.energy == pytest.approx(1.0 - 0.007, abs=1e-15)
    # idempotent once drained of pending work
    assert ctl.finalize(np.array([9.9])).energy == tank.energy


def test_closed_loop_drains_to_floor_and_pins():
    # 1D plant integrated by hand right here, far target so the pull never flips
    ctl = _controller(t_initial=1.0, e_max=0.2, kp=4.0, target=5.0, tau=1e-3)
    mass, x, v = 2.0, 0.0, 0.0
    alphas, tanks = [], []
    for _ in range(2000):
        command, tick = ctl.control_cycle(_obs(x, v))
        a = -command[0] / mass
        v += 1e-3 * a
        x += 1e-3 * v
        alphas.append(tick.alpha)
        tanks.append(tick.tank_T)
    ctl.finalize(np.array([v]))
    assert min(alphas) < 0.05          # the clamp engaged hard
    assert alphas[0] == 1.0            # and not from the start
    floor = 0.8
    assert min(tanks) >= floor - 1e-9
    assert ctl.tank.energy >= floor - 1e-9
    # kinetic energy stays at the budget: H = 0.5 m v^2 <= 0.2 (+ margin slack)
    assert 0.5 * mass * v * v <= 0.2 + 1e-3


def test_starved_budget_never_kicks_a_resting_plant():
    # headroom far below the feasibility margin: scaling cannot admit the command
    ctl = _controller(t_initial=0.5, e_max=1e-9, kp=8.0, target=6.0)
    for _ in range(5):
        command, tick = ctl.control_cycle(_obs(0.0, 0.0))
        assert tick.alpha == 0.0
        assert command == pytest.approx([0.0])


def test_deficit_mode_blocks_drain_and_recovers():
    sched = _schedule((0.0, "wide", 0.5), (0.05, "narrow", 0.2))
    gains = PdGains(kp=(2.0,), kd=(0.0,), target=(10.0,))
    ctl = SafetyController(gains, sched, 1.0, 0.0, tau=0.01)
    # five cycles in the wide segment at speed: tank drains toward 0.5
    x, v = 0.0, 0.8
    for k in range(5):
        command, tick = ctl.control_cycle(_obs(x, v))
    assert not ctl.in_deficit
    # switch tick: floor jumps to 0.8 above the drained level -> deficit
    command, tick = ctl.control_cycle(_obs(x, v))
    assert tick.epsilon == pytest.approx(0.8)
    assert ctl.in_deficit
    assert tick.alpha == 0.0           # draining command suppressed, no fault
    assert command == pytest.approx([0.0])
    # braking motion (command aligned with velocity) refills without scaling:
    # past the target the PD force pulls back against the motion
    refills = 0
    for _ in range(40):
        command, tick = ctl.control_cycle(_obs(20.0, v))
        refills += tick.alpha == 1.0
    ctl.finalize(np.array([v]))
    assert refills > 0
    assert ctl.tank.energy > 0.8 - 1e-9
    assert not ctl.in_deficit


def test_emergency_fault_when_wrench_outruns_the_band():
    # tank above the damper band, violent injecting wrench: no feasible cycle
    ctl = _controller(t_initial=0.51, e_max=0.01, tau=1e-3,
                      damper_band=1e-3)
    with pytest.raises(EmergencyFault):
        ctl.control_cycle(_obs(0.0, 1.0, f_e=200.0))


def test_damper_share_added_to_command():
    # tank sitting on its floor, so the injecting wrench must be cancelled
    ctl = _controller(t_initial=0.3, e_max=1e-9, kp=0.0, target=0.0)
    v, push = 0.5, 2.0
    command, tick = ctl.control_cycle(_obs(0.0, v, f_e=push))
    assert tick.b == pytest.approx(push / v)
    assert tick.p_ext == pytest.approx(0.0, abs=1e-12)
    assert command == pytest.approx([tick.b * v])


def test_controller_sees_no_inertia():
    fields = set(PlantObservation.__dataclass_fields__)
    assert fields == {"x", "xdot", "f_e"}
    tick_fields = set(ControlTick._fields)
    assert "inertia" not in tick_fields and "mass" not in tick_fields


def test_unreachable_floor_is_refused_at_construction():
    # the later region leaves 1.0 - 0.9995 = 0.0005 J in the tank, under
    # EPSILON_MIN; it is refused before the first cycle, not at its switch
    sched = _schedule((0.0, "wide", 0.5), (0.005, "tight", 0.9995))
    gains = PdGains(kp=(2.0,), kd=(0.0,), target=(1.0,))
    with pytest.raises(DomainError, match="region 'tight' .* under the minimum"):
        SafetyController(gains, sched, 1.0, 0.0, tau=1e-3)
    # exactly at the minimum is allowed
    assert _controller(t_initial=5.0, e_max=5.0 - EPSILON_MIN).tank.epsilon == \
        pytest.approx(EPSILON_MIN)


def test_controller_config_validation():
    with pytest.raises(DomainError):
        _controller(tau=0.0)
    with pytest.raises(DomainError):
        _controller(damper_band=-1e-3)
    with pytest.raises(DomainError):
        _controller(damper_band=np.nan)


# the code that runs every tick; before Python 3.12 each comprehension,
# generator expression or lambda runs in a function frame of its own, which
# costs about as much as one ndarray.dot.  C-level map, zip, any and all do not.
# The plant steps' helpers run every tick too: the arm's model, both plants'
# snapshots and the PlantState they build.
TICK_CODE = (SafetyController.control_cycle, SafetyController._commit_pending,
             CartesianPlant.step, PlanarArm.step, solve_alpha, damper_coefficient,
             commit_step, PlanarArm._terms, CartesianPlant._state, PlanarArm._state,
             _snapshot)
FRAME_NODES = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp, ast.Lambda)


@pytest.mark.parametrize("function", TICK_CODE, ids=lambda f: f.__qualname__)
def test_the_tick_runs_no_comprehension_frame(function):
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    frames = [f"line {node.lineno}: {type(node).__name__}" for node in ast.walk(tree)
              if isinstance(node, FRAME_NODES)]
    assert frames == []
