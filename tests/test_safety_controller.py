import numpy as np
import pytest

from pfltank import safety_controller
from pfltank.energy_tank import EPSILON_MIN, FLOOR_TOL, commit_step, make_tank
from pfltank.errors import ConfigError, EmergencyFault
from pfltank.iso15066 import BUILTIN_REGIONS, BodyRegion, max_energy
from pfltank.safety_controller import (
    FEASIBILITY_MARGIN,
    ControlTick,
    PdGains,
    PlantObservation,
    RegionSchedule,
    SafetyController,
    pd_force,
    project_halfspace,
    solve_alpha,
    supervise,
)

from oracles import alpha_oracle, projection_oracle


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


def test_gains_validation():
    with pytest.raises(ConfigError):
        PdGains(kp=(1.0,), kd=(1.0, 1.0), target=(0.0,))
    with pytest.raises(ConfigError):
        PdGains(kp=(-1.0,), kd=(1.0,), target=(0.0,))


def test_schedule_validation():
    with pytest.raises(ConfigError):
        _schedule((1.0, "late", 1.0))
    with pytest.raises(ConfigError):
        _schedule((0.0, "a", 1.0), (0.0, "b", 2.0))
    with pytest.raises(ConfigError):
        RegionSchedule((0.0,), ("not-a-region",))
    chest = BUILTIN_REGIONS["chest"]
    with pytest.raises(ConfigError, match="first schedule entry must be at t = 0"):
        RegionSchedule((0.5,), (chest,))
    with pytest.raises(ConfigError, match="1 switch times but 2 regions"):
        RegionSchedule((0.0,), (chest, chest))
    with pytest.raises(ConfigError, match="empty"):
        RegionSchedule((), ())


def test_schedule_derives_its_budgets():
    chest, shoulders = BUILTIN_REGIONS["chest"], BUILTIN_REGIONS["shoulders"]
    sched = RegionSchedule((0.0,), (chest,))
    assert sched.energies == (max_energy(chest),)
    assert RegionSchedule([0, 4], [chest, shoulders]).times == (0.0, 4.0)
    # a budget is not a constructor argument, so it cannot contradict its region
    with pytest.raises(TypeError):
        RegionSchedule((0.0,), (chest,), (100.0,))


def test_schedule_active_index_and_slack():
    sched = _schedule((0.0, "a", 1.0), (4.0, "b", 2.0))
    assert sched.active_index(0.0) == 0
    assert sched.active_index(3.9995) == 0
    assert sched.active_index(4.0) == 1
    # a switch scripted on a tick boundary lands on that tick despite float dust
    assert sched.active_index(3.9999999999, slack=5e-4) == 1
    assert sched.active_index(10.0) == 1


def test_supervise_moves_floor_only_on_change():
    sched = _schedule((0.0, "a", 1.6), (4.0, "b", 2.5))
    tank = make_tank(5.0, 3.4)
    floors = sched.floors(5.0, 0.0)
    same = supervise(floors, sched.active_index(1.0), tank)
    assert same is tank  # no churn inside a segment
    moved = supervise(floors, sched.active_index(4.0), tank)
    assert moved.epsilon == pytest.approx(2.5)


def test_supervise_takes_effect_in_deficit():
    sched = _schedule((0.0, "wide", 2.5), (1.0, "narrow", 1.6))
    floors = sched.floors(3.0, 0.0)
    tank = make_tank(3.0, floors[0])
    drained = commit_step(tank, p_task=-250.0, f_e=np.zeros(1),
                          xdot=np.zeros(1), b=0.0, tau=0.01)
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


def test_controller_sizes_its_tank_from_the_charge():
    sched = _schedule((0.0, "wide", 0.5), (1.0, "narrow", 0.2))
    gains = PdGains(kp=(2.0,), kd=(0.0,), target=(1.0,))
    ctl = SafetyController(gains, sched, 2.0, 0.25, tau=1e-3)
    assert ctl.tank.energy == pytest.approx(2.0)
    assert ctl.tank.epsilon == 2.0 - 0.5 + 0.25  # the first region's floor
    assert ctl.tank.capacity == 2.25
    with pytest.raises(ConfigError, match="kinetic energy"):
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
    # braking motion (command aligned with velocity) refills without scaling
    ctl2_gains = PdGains(kp=(2.0,), kd=(0.0,), target=(-10.0,))
    ctl.gains = ctl2_gains
    refills = 0
    for _ in range(40):
        command, tick = ctl.control_cycle(_obs(x, v))
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
    tick_fields = set(ControlTick.__dataclass_fields__)
    assert "inertia" not in tick_fields and "mass" not in tick_fields


def test_unreachable_floor_is_refused_at_construction():
    # the later region leaves 1.0 - 0.9995 = 0.0005 J in the tank, under
    # EPSILON_MIN; it is refused before the first cycle, not at its switch
    sched = _schedule((0.0, "wide", 0.5), (0.005, "tight", 0.9995))
    gains = PdGains(kp=(2.0,), kd=(0.0,), target=(1.0,))
    with pytest.raises(ConfigError, match="region 'tight' .* under the minimum"):
        SafetyController(gains, sched, 1.0, 0.0, tau=1e-3)
    # exactly at the minimum is allowed
    assert _controller(t_initial=5.0, e_max=5.0 - EPSILON_MIN).tank.epsilon == \
        pytest.approx(EPSILON_MIN)


def test_controller_config_validation():
    with pytest.raises(ConfigError):
        _controller(tau=0.0)
    with pytest.raises(ConfigError):
        _controller(damper_band=-1e-3)
    with pytest.raises(ConfigError):
        _controller(damper_band=np.nan)
