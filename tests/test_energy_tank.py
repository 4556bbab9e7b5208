import math

import numpy as np
import pytest

from pfltank.energy_tank import (
    DAMPER_BAND,
    FLOOR_TOL,
    TankState,
    commit_step,
    damper_coefficient,
    make_tank,
)
from pfltank.errors import DomainError, EmergencyFault


def test_energy_reading():
    assert make_tank(5.0, 3.4).energy == pytest.approx(5.0)
    assert TankState(x_t=2.0, epsilon=0.1, capacity=2.0).energy == 2.0
    assert TankState(x_t=math.sqrt(10.0), epsilon=0.1,
                     capacity=5.0).energy == pytest.approx(5.0)
    # the capacity is the run's total energy, charge plus initial motion
    assert make_tank(2.0, 0.5, h_initial=1.0).capacity == 3.0
    # floor boundary is a legal state
    t = make_tank(1.0, 1.0)
    assert t.energy == pytest.approx(t.epsilon)
    with pytest.raises(AttributeError):  # a snapshot, never edited in place
        t.epsilon = 0.5


def test_tank_construction_guards():
    with pytest.raises(DomainError):
        make_tank(0.0, 0.5)
    with pytest.raises(DomainError):
        make_tank(1.0, 2.0)  # starts under its own floor
    with pytest.raises(DomainError):
        make_tank(1.0, 0.0)  # floor must be positive
    with pytest.raises(DomainError):
        make_tank(1.0, 0.5, h_initial=-0.1)


def test_tank_refuses_a_charge_that_overflows():
    # each input is finite, but sqrt(2 T) or the capacity T + H is not
    with pytest.raises(DomainError, match="overflows"):
        make_tank(1e308, 1.0)
    with pytest.raises(DomainError, match="overflows"):
        make_tank(8e307, 1.0, h_initial=1.7e308)
    assert make_tank(8e307, 1.0, h_initial=1e307).x_t == math.sqrt(1.6e308)


def test_commit_books_the_three_channels():
    tank = make_tank(2.0, 0.5)
    # flow = p_task - p_in + p_damp = -0.3 - 0.5 + 0.1
    new = commit_step(tank, p_task=-0.3, p_in=0.5, p_damp=0.1, tau=0.01)
    assert new.energy == pytest.approx(2.0 + 0.01 * (-0.3 - 0.5 + 0.1), abs=1e-15)
    assert new.discarded == 0.0
    assert new.epsilon == tank.epsilon
    # the powers are added left to right, as the flow above is written; these
    # give other bits in either other order
    half = make_tank(0.5, 0.01)
    booked = commit_step(half, p_task=0.1, p_in=0.7, p_damp=0.3, tau=1.0)
    assert booked.x_t == math.sqrt(2.0 * (0.5 + ((0.1 - 0.7) + 0.3))) == 0.6324555320336759
    assert math.sqrt(2.0 * (0.5 + (0.1 - (0.7 - 0.3)))) != booked.x_t
    assert math.sqrt(2.0 * (0.5 + ((0.1 + 0.3) - 0.7))) != booked.x_t


def test_commit_respects_capacity_and_records_discard():
    tank = make_tank(2.0, 0.5, h_initial=1.0)  # capacity 3.0
    new = commit_step(tank, p_task=200.0, p_in=0.0, p_damp=0.0, tau=0.01)
    assert new.energy == pytest.approx(3.0)
    assert new.discarded == pytest.approx(1.0)
    # ledger stays exact: energy + discarded equals the raw booking
    assert new.energy + new.discarded == pytest.approx(2.0 + 2.0)


def test_commit_floor_fault_and_override():
    tank = make_tank(1.0, 0.9)
    drain = dict(p_task=-50.0, p_in=0.0, p_damp=0.0, tau=0.01)
    with pytest.raises(EmergencyFault):
        commit_step(tank, floor=tank.epsilon, **drain)
    # the same booking with no floor is legal while a deficit is worked off
    new = commit_step(tank, floor=None, **drain)
    assert new.energy == pytest.approx(0.5)


def test_commit_faults_on_depletion_and_nonfinite():
    tank = make_tank(0.5, 0.1)
    with pytest.raises(EmergencyFault):
        commit_step(tank, p_task=-100.0, p_in=0.0, p_damp=0.0, tau=0.01)
    with pytest.raises(EmergencyFault):
        commit_step(tank, p_task=math.inf, p_in=0.0, p_damp=0.0, tau=0.01)
    with pytest.raises(EmergencyFault, match="not finite"):  # 0.0 * inf in the damper
        commit_step(tank, p_task=0.0, p_in=0.0, p_damp=0.0 * math.inf, tau=0.01)


def test_commit_ledger_linearity_random_sequence():
    rng = np.random.RandomState(17)
    tank = make_tank(10.0, 0.01, h_initial=5.0)
    booked = 0.0
    for _ in range(200):
        p_task = rng.uniform(-5.0, 5.0)
        f_e = rng.uniform(-2.0, 2.0, size=2)
        xdot = rng.uniform(-1.0, 1.0, size=2)
        b = rng.uniform(0.0, 0.5)
        tau = 1e-2
        booked += tau * (p_task - f_e @ xdot + b * xdot @ xdot)
        tank = commit_step(tank, p_task, float(f_e @ xdot), b * float(xdot @ xdot), tau)
    assert tank.energy + tank.discarded == pytest.approx(10.0 + booked, abs=1e-12)


def test_damper_arms_only_with_all_three_conditions():
    at_floor = make_tank(1.0, 1.0)
    xdot = np.array([0.5, 0.0])
    push = np.array([2.0, 0.0])

    def damper(f_e, v, tank):
        return damper_coefficient(float(f_e @ v), float(v @ v), tank)

    b = damper(push, xdot, at_floor)
    assert b == pytest.approx((push @ xdot) / (xdot @ xdot))
    # pulling instead of pushing: no damper
    assert damper(-push, xdot, at_floor) == 0.0
    # tank above the band: no damper
    high = make_tank(1.0 + 2.0 * DAMPER_BAND, 1.0)
    assert damper(push, xdot, high) == 0.0
    # inside the band: damper armed
    inside = TankState(x_t=math.sqrt(2.0 * (1.0 + 0.5 * DAMPER_BAND)),
                       epsilon=1.0, capacity=1.0)
    assert damper(push, xdot, inside) > 0.0
    # negligible speed: no damper (the plant cannot dissipate through it)
    crawl = np.array([1e-9, 0.0])
    assert damper(push, crawl, at_floor) == 0.0


def test_damper_cancels_injection_exactly():
    tank = make_tank(1.0, 1.0)
    xdot = np.array([0.3, -0.4])
    f_e = np.array([1.0, 0.5])
    b = damper_coefficient(float(f_e @ xdot), float(xdot @ xdot), tank)
    assert -(f_e @ xdot) + b * (xdot @ xdot) == pytest.approx(0.0, abs=1e-15)
    new = commit_step(tank, 0.0, float(f_e @ xdot), b * float(xdot @ xdot), tau=1e-3,
                      floor=tank.epsilon)
    assert new.energy == pytest.approx(tank.energy, abs=1e-15)


def test_floor_tolerance_is_tight():
    tank = make_tank(1.0, 1.0)
    # a loss within FLOOR_TOL of the floor must not fault
    ok = commit_step(tank, p_task=-FLOOR_TOL / 2.0, p_in=0.0, p_damp=0.0, tau=1.0,
                     floor=tank.epsilon)
    assert ok.energy == pytest.approx(1.0 - FLOOR_TOL / 2.0)
    with pytest.raises(EmergencyFault):
        commit_step(tank, p_task=-1e-6, p_in=0.0, p_damp=0.0, tau=1.0,
                    floor=tank.epsilon)
