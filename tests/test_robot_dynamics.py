import copy
import itertools
import math
import pickle
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfltank.errors import DomainError, IntegrationFault
from pfltank.robot_dynamics import (
    CartesianPlant,
    PlanarArm,
    WrenchInput,
    _snapshot,
    power_balance_residual,
)

from oracles import (
    ArmOracle,
    arm_model_numpy,
    arm_port_numpy,
    arm_step_numpy,
    cartesian_step_numpy,
    semi_implicit_constant_force,
)

ZERO2 = np.zeros(2)


def _wrench(f_c, f_e=None):
    return WrenchInput(f_c=np.asarray(f_c, float),
                       f_e=ZERO2 if f_e is None else np.asarray(f_e, float))


# -- closed-form plant checks ---------------------------------------------------

def test_free_particle_drifts_at_constant_velocity():
    plant = CartesianPlant(np.eye(2), x0=np.zeros(2), xdot0=np.array([1.0, 0.0]))
    tau = 1e-3
    plant.step(_wrench(ZERO2), tau)
    assert plant.twist == pytest.approx([1.0, 0.0])
    assert plant.pose == pytest.approx([tau, 0.0])


def test_constant_force_matches_kinematics_oracle():
    tau = 1e-3
    n = 1000
    plant = CartesianPlant(np.array([[2.0]]), x0=np.zeros(1), xdot0=np.zeros(1))
    for _ in range(n):
        plant.step(WrenchInput(f_c=np.zeros(1), f_e=np.array([1.0])), tau)
    x_ref, v_ref = semi_implicit_constant_force(2.0, 1.0, tau, n)
    assert plant.twist[0] == pytest.approx(v_ref[-1], abs=1e-12)
    assert plant.twist[0] == pytest.approx(0.5, abs=1e-9)
    assert plant.pose[0] == pytest.approx(x_ref[-1], abs=1e-12)
    assert plant.kinetic_energy == pytest.approx(0.25, abs=1e-3)


def test_control_force_enters_with_negative_sign():
    # commanded f_c decelerates motion along +x: the plant port is -F_c + F_e
    plant = CartesianPlant(np.eye(2), x0=np.zeros(2), xdot0=np.array([1.0, 0.0]))
    plant.step(_wrench(np.array([1.0, 0.0])), 0.1)
    assert plant.twist[0] < 1.0


def test_plant_rejects_non_spd_inertia():
    with pytest.raises(DomainError):
        CartesianPlant(np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros(2), np.zeros(2))
    with pytest.raises(DomainError):
        CartesianPlant(np.diag([1.0, 0.0]), np.zeros(2), np.zeros(2))


@pytest.mark.filterwarnings("ignore:overflow")
def test_integration_fault_on_overflow():
    plant = CartesianPlant(np.eye(1) * 1e-300, np.zeros(1), np.zeros(1))
    with pytest.raises(IntegrationFault):
        for _ in range(10):
            plant.step(WrenchInput(f_c=np.zeros(1), f_e=np.array([1e300])), 1.0)


def _arm_and_step(q0, f_c):
    """An arm at q0 and a step of it with command f_c, built as run() builds
    it: through tuple.__new__, so WrenchInput checks nothing."""
    arm = PlanarArm(q0=q0, qdot0=(0.4, -0.3))
    wrench = tuple.__new__(WrenchInput, (np.array(f_c), ZERO2))
    return arm, lambda: arm.step(wrench, 1e-3)


def _arm_bits(arm) -> tuple:
    """The arm's joint state (its floats and qd's view) and port readings, as bytes."""
    return tuple(np.array(value).tobytes() for value in
                 (arm._q, arm._qd, arm._qdot, arm.pose, arm.twist, arm.kinetic_energy))


def _stepped(arm, tau):
    """An arm and a step of it at rest under a zero wrench."""
    return arm, lambda: arm.step(_wrench(ZERO2, ZERO2), tau)


def _refused(build):
    return lambda: (None, build)


@pytest.mark.parametrize("case, error, message", [
    # the arm's state check is its only per-cycle finiteness check; at
    # q = (0, 0) the first row of J is zero, and 0 * inf is NaN
    (lambda: _arm_and_step((0.3, 0.8), (math.inf, 0.0)), IntegrationFault,
     "non-finite arm state"),
    (lambda: _arm_and_step((0.3, 0.8), (1.0, math.nan)), IntegrationFault,
     "non-finite arm state"),
    (lambda: _arm_and_step((0.0, 0.0), (-math.inf, 0.0)), IntegrationFault,
     "non-finite arm state"),
    (lambda: _arm_and_step((0.0, 0.0), (0.0, math.inf)), IntegrationFault,
     "non-finite arm state"),
    # each new angle is finite, but not q1 + q2, whose sine the model takes:
    # math.sin(inf) raised ValueError from inside the step
    (lambda: _stepped(PlanarArm(m1=1e-300, m2=1e-300, q0=(1.7e308, 0.0),
                                qdot0=(0.0, 1e151)), 1e156),
     IntegrationFault, "non-finite arm state"),
    (_refused(lambda: CartesianPlant([[1.0, 0.0]], (0.0,), (0.0,))), DomainError,
     "inertia[0] must have length 1, got 2"),
    (_refused(lambda: CartesianPlant([[2.0, 0.5], [0.0, 2.0]], (0.0, 0.0), (0.0, 0.0))),
     DomainError, "inertia must be symmetric"),
    (_refused(lambda: CartesianPlant([[2.0]], (0.0, 1.0), (0.0,))), DomainError,
     "x0 must have length 1, got 2"),
    # positive definite, but 1 / 1e-310 is inf: every step would fault, even at rest
    (_refused(lambda: CartesianPlant([[1e-310]], (0.0,), (0.0,))), DomainError,
     "inertia must have a finite inverse"),
    # arms that built but could not step: M = inf, then an energy of NaN
    (_refused(lambda: PlanarArm(l1=1e300, l2=1e300)), DomainError,
     "the arm's model overflows at these link lengths and masses"),
    # g1 + g2 overflows at q = 0, so rest under a zero wrench was inf - inf
    (_refused(lambda: PlanarArm(l1=1.0, l2=1.0, m1=1e307, m2=1e307)), DomainError,
     "the arm's model overflows at these link lengths and masses"),
    # M = [[1e-323, 5e-324], [5e-324, 0.0]] is singular: solve1 warned, then faulted
    (_refused(lambda: PlanarArm(m1=5e-324, m2=5e-324, q0=(2.0, 0.5))), DomainError,
     "the arm's mass matrix must be positive definite at every elbow angle"),
    # positive definite, but det M is at most 4e-12 M11 M22, near its rounding
    (_refused(lambda: PlanarArm(l1=1e-6, l2=1.0)), DomainError,
     "the arm's mass matrix must be positive definite at every elbow angle"),
    # the model takes the sine of q1 + q2: math.sin(inf) raised ValueError
    (_refused(lambda: PlanarArm(q0=(1e308, 1e308))), DomainError,
     "q0 must have two finite entries with a finite sum, got [1e+308, 1e+308]"),
    (_refused(lambda: PlanarArm(qdot0=(0.0, 0.0, 0.0))), DomainError,
     "qdot0 must have length 2, got 3"),
    # finite twists whose energy overflows: no step could start from them
    (_refused(lambda: CartesianPlant([[4.0]], [0.0], [1e155])), DomainError,
     "xdot0 must give a finite kinetic energy, got inf"),
    (_refused(lambda: CartesianPlant([[4.0, -1.9], [-1.9, 1.0]], [0.0, 0.0], [1e308, 1.0])),
     DomainError, "xdot0 must give a finite kinetic energy, got nan"),
    (_refused(lambda: PlanarArm(q0=(0.3, 0.0), qdot0=(2e154, 0.0))), DomainError,
     "qdot0 must give a finite kinetic energy, got inf"),
], ids=["arm_inf", "arm_nan", "arm_inf_at_zero_row", "arm_inf_at_q0", "arm_angle_sum_overflows",
        "not_square", "asymmetric", "x0_length", "inverse_overflows", "arm_model_overflows",
        "arm_gravity_overflows", "arm_mass_matrix_singular", "arm_mass_matrix_ill_conditioned",
        "arm_angle_sum_at_q0", "arm_qdot0_length", "cartesian_energy_overflows",
        "cartesian_energy_nan", "arm_energy_overflows"])
def test_plants_fault_and_refuse_with_their_messages(case, error, message):
    arm, act = case()
    before = None if arm is None else _arm_bits(arm)
    # run() steps a plant with numpy's floating-point warnings silenced
    with pytest.raises(error, match=re.escape(message)), np.errstate(all="ignore"):
        act()
    if arm is not None:  # the arm raised before its state changed
        assert _arm_bits(arm) == before


# what the scenario loader lets through: any positive finite length and mass,
# any finite angles; log-spaced magnitudes and a human-sized range beside
# hypothesis's own floats, so that arms of every scale are built and refused
_POSITIVE = st.one_of(st.floats(min_value=5e-324, max_value=sys.float_info.max),
                      st.integers(-323, 308).map(lambda e: float(f"1e{e}")),
                      st.floats(0.01, 100.0))
_ANGLE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(-10.0, 10.0))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(factors=st.tuples(_POSITIVE, _POSITIVE, _POSITIVE, _POSITIVE),
       q0=st.tuples(_ANGLE, _ANGLE), tau=_POSITIVE)
def test_every_arm_that_builds_steps_at_rest(factors, q0, tau):
    # the constructor refuses, with a DomainError, every arm it cannot step:
    # one that builds holds still at rest under a zero wrench, with no fault
    # and none of numpy's floating-point warnings
    with warnings.catch_warnings(), np.errstate(all="warn", under="ignore"):
        warnings.simplefilter("error")
        try:
            arm = PlanarArm(*factors, q0=q0)
        except DomainError:
            return
        pose = arm.pose
        state = arm.step(_wrench(ZERO2, ZERO2), tau)
    assert np.array_equal(state.x, pose) and not state.xdot.any()
    assert state.kinetic_energy_truth == 0.0


@pytest.mark.parametrize("plant, push, energy", [
    # 0.5 * 4 * (2.5e154)^2 overflows
    (lambda: CartesianPlant([[4.0]], [0.0], [0.0]), [1e155], "inf"),
    # xdot = (1.7e308, 1.7e308): each entry of xdot . Lambda overflows in both
    # of its products, 10 * 1.7e308 and -9 * 1.7e308, and inf - inf is NaN
    (lambda: CartesianPlant([[10.0, -9.0], [-9.0, 10.0]], [0.0, 0.0], [0.0, 0.0]),
     [1.7e308, 1.7e308], "nan"),
    # from rest the joint velocity is tau M^-1 J^T f_e, and qd M qd overflows
    (lambda: PlanarArm(q0=(0.3, 0.0)), [1e156, 0.0], "inf"),
], ids=["cartesian_inf", "cartesian_nan", "arm_inf"])
def test_a_finite_state_whose_energy_overflows_faults_the_step(plant, push, energy):
    # the constructors refuse an initial energy that overflows, so each plant
    # starts at rest; one 1 s step under a push leaves a finite state whose
    # energy is not
    plant = plant()
    with np.errstate(all="ignore"):
        with pytest.raises(IntegrationFault, match=f"non-finite kinetic energy {energy}"):
            plant.step(_wrench(np.zeros(plant.m), push), 1.0)
    # -inf, which a dot's fused multiply-adds can give, is a fault too, not
    # the DomainError of an energy rounded below zero
    with pytest.raises(IntegrationFault, match="non-finite kinetic energy -inf"):
        _snapshot(np.zeros(2), np.zeros(2), -math.inf, stepped=True)


def test_a_refused_snapshot_leaves_the_arm_unmoved():
    # the new state is finite, but its energy qd M qd overflows, so the
    # snapshot refuses it after the state check has passed
    arm = PlanarArm(q0=(0.3, 0.0))
    pose, twist, state, bits = arm.pose, arm.twist, arm.state(), _arm_bits(arm)
    with np.errstate(all="ignore"):
        with pytest.raises(IntegrationFault, match="non-finite kinetic energy inf"):
            arm.step(_wrench(ZERO2, [1e156, 0.0]), 1.0)
    after = arm.state()
    assert _arm_bits(arm) == bits
    # the joint floats the next step starts from, and qd's view the products read
    assert arm._q == (0.3, 0.0) and arm._qd == (0.0, 0.0)
    assert arm._qdot.tolist() == [0.0, 0.0]
    assert arm.pose.tobytes() == pose.tobytes() and arm.twist.tobytes() == twist.tobytes()
    assert after.x.tobytes() == state.x.tobytes()
    assert after.xdot.tobytes() == state.xdot.tobytes()
    assert repr(after.kinetic_energy_truth) == repr(state.kinetic_energy_truth) == "0.0"


def _state_bits(state) -> tuple:
    return state.x.tobytes(), state.xdot.tobytes(), repr(state.kinetic_energy_truth)


_CLONES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
           "pickle": lambda arm: pickle.loads(pickle.dumps(arm))}


@pytest.mark.parametrize("clone", _CLONES.values(), ids=_CLONES.keys())
def test_copies_of_a_stepped_arm_are_independent_and_step_alike(clone):
    # the arm writes each step's model into the idle one of two buffers whose
    # views it holds, so a copy needs buffers of its own with views into them
    pushes = [_wrench([3.0, -2.0], [0.5, 1.0]), _wrench([-1.0, 4.0]), _wrench([2.0, 2.0])]
    arm = PlanarArm(q0=(0.3, 1.2), qdot0=(0.4, -0.3))
    stepped = arm.step(pushes[0], 1e-3)
    twin = clone(arm)
    assert _arm_bits(twin) == _arm_bits(arm)
    # a snapshot and the model methods' arrays are the caller's: later steps leave them
    kept = (stepped.x, stepped.xdot, arm.mass_matrix((0.3, 1.2)), arm.jacobian((0.3, 1.2)))
    kept_bits = [a.tobytes() for a in kept]
    runs = []
    for moving, still in ((arm, twin), (twin, arm)):
        before = _arm_bits(still)
        runs.append([_state_bits(moving.step(wrench, 1e-3)) for wrench in pushes])
        assert _arm_bits(still) == before
    assert runs[0] == runs[1]
    assert _arm_bits(twin) == _arm_bits(arm)
    assert [a.tobytes() for a in kept] == kept_bits


def test_wrench_validation():
    with pytest.raises(DomainError):
        WrenchInput(f_c=np.array([np.nan, 0.0]), f_e=ZERO2)
    with pytest.raises(DomainError):
        WrenchInput(f_c=np.zeros(2), f_e=np.zeros(3))
    with pytest.raises(AttributeError):
        WrenchInput(f_c=ZERO2, f_e=ZERO2).f_c = ZERO2


def test_state_snapshots_are_isolated():
    plant = CartesianPlant(np.eye(2), np.zeros(2), np.array([1.0, 0.0]))
    snap = plant.state()
    stepped = plant.step(_wrench(ZERO2), 0.5)
    assert snap.x == pytest.approx([0.0, 0.0])
    snap.x[0] = 99.0  # mutating the copy must not reach the plant
    stepped.x[0] = stepped.xdot[0] = 99.0
    assert plant.pose[0] != 99.0 and plant.twist[0] != 99.0
    arm = PlanarArm(q0=(0.3, 0.8), qdot0=(0.1, 0.2))
    arm_snap = arm.state()
    arm_snap.x[0] = arm_snap.xdot[0] = 99.0
    assert arm.pose[0] != 99.0 and arm.twist[0] != 99.0
    # a snapshot is read-only, and a plant's snapshot refuses a negative energy
    with pytest.raises(AttributeError):
        snap.x = np.zeros(2)
    with pytest.raises(DomainError, match="kinetic energy cannot be negative"):
        _snapshot(np.zeros(2), np.zeros(2), -1e-12)


# -- the lean steps against their numpy forms -------------------------------------

# zeros of both signs and magnitudes a run meets, with no overflow
_VALUES = st.one_of(st.sampled_from([0.0, -0.0]),
                    st.floats(min_value=-1e3, max_value=1e3, width=64))
_TAU = st.floats(min_value=1e-5, max_value=1e-2)


def _vector(data, m):
    return np.array(data.draw(st.lists(_VALUES, min_size=m, max_size=m)))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(m=st.integers(min_value=1, max_value=3), tau=_TAU, data=st.data())
def test_cartesian_step_gives_the_numpy_forms_bits(m, tau, data):
    rows = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=m * m,
                                       max_size=m * m))).reshape(m, m)
    xdot0 = _vector(data, m)
    if data.draw(st.booleans()):  # a -0.0 a zero net wrench would turn to +0.0
        xdot0[data.draw(st.integers(0, m - 1))] = -0.0
    plant = CartesianPlant(rows @ rows.T + 0.1 * np.eye(m), _vector(data, m), xdot0)
    f_c, f_e = _vector(data, m), _vector(data, m)
    # 20 steps in a row, so a velocity or an energy kept from an earlier step
    # shows: 19 from a seeded generator, half with a zero net wrench (f_c = f_e,
    # or zeros of either sign), then one with f_c and f_e
    rng = np.random.RandomState(data.draw(st.integers(0, 2**32 - 1)))
    wrenches = rng.uniform(-1e3, 1e3, size=(19, 2, m))
    wrenches[rng.random_sample(wrenches.shape) < 0.5] *= 0.0
    coast = rng.random_sample(19) < 0.5
    wrenches[coast, 0] = wrenches[coast, 1]
    for step_c, step_e in [*wrenches, (f_c, f_e)]:
        v, x = cartesian_step_numpy(plant, step_c, step_e, tau)
        energy = np.float64(0.5 * float(v.dot(plant.inertia).dot(v))).tobytes()
        state = plant.step(WrenchInput(step_c, step_e), tau)
        for snapshot in (state, plant.state()):
            assert snapshot.xdot.tobytes() == v.tobytes()
            assert snapshot.x.tobytes() == x.tobytes()
            assert np.float64(snapshot.kinetic_energy_truth).tobytes() == energy


def test_a_cartesian_plant_at_minus_zero_gives_the_numpy_forms_bits():
    # -0.0 + tau * (+0.0) is +0.0, so a plant whose velocity can hold -0.0
    # forms each step's product, zero net wrench or not: a net -0.0 keeps the
    # -0.0, then a net +0.0 clears it
    plant = CartesianPlant([[2.0]], [0.0], [-0.0])
    for f_c, f_e in [(0.0, -0.0), (1.0, 1.0)]:
        f_c, f_e = np.array([f_c]), np.array([f_e])
        v, x = cartesian_step_numpy(plant, f_c, f_e, 1e-3)
        state = plant.step(WrenchInput(f_c, f_e), 1e-3)
        assert (state.xdot.tobytes(), state.x.tobytes()) == (v.tobytes(), x.tobytes())
    assert state.xdot.tobytes() == np.zeros(1).tobytes()


def _assert_arm_step_gives_the_numpy_forms_bits(arm, f_c, f_e, tau):
    """Step the arm; its joint state, the snapshot step returns and state()
    after it must all have the numpy forms' bits."""
    qdot, q = arm_step_numpy(arm, f_c, f_e, tau)
    state = arm.step(WrenchInput(f_c, f_e), tau)
    assert arm._qdot.tobytes() == qdot.tobytes()
    # the arm keeps q and qd as floats, beside qd's view in its model
    assert np.array(arm._qd).tobytes() == qdot.tobytes()
    assert np.array(arm._q).tobytes() == q.tobytes()
    want = [np.float64(value).tobytes() for value in arm_port_numpy(arm, q, qdot)]
    for snapshot in (state, arm.state()):
        assert [np.float64(value).tobytes() for value in snapshot] == want


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(lengths=st.tuples(st.floats(0.1, 2.0), st.floats(0.1, 2.0)),
       masses=st.tuples(st.floats(0.1, 20.0), st.floats(0.1, 20.0)),
       tau=_TAU, data=st.data())
def test_arm_step_gives_the_numpy_forms_bits(lengths, masses, tau, data):
    arm = PlanarArm(*lengths, *masses, q0=np.array(data.draw(st.lists(
        st.floats(-4.0, 4.0), min_size=2, max_size=2))), qdot0=_vector(data, 2) / 100)
    f_c, f_e = _vector(data, 2), _vector(data, 2)
    # 20 steps in a row, so a model or a rate kept from an earlier step shows:
    # 19 with wrenches scaled to the arm's mass and size, then one with f_c
    # and f_e, whose entries reach 1e3
    rng = np.random.RandomState(data.draw(st.integers(0, 2**32 - 1)))
    small = rng.uniform(-1.0, 1.0, size=(19, 2, 2)) * (min(masses) * min(lengths))
    # half the entries zeros of either sign: all-zero pairs, a zero beside a
    # value and two values, as hypothesis draws cost 20 times the steps
    small[rng.random_sample(small.shape) < 0.5] *= 0.0
    for small_c, small_e in small:
        _assert_arm_step_gives_the_numpy_forms_bits(arm, small_c, small_e, tau)
    _assert_arm_step_gives_the_numpy_forms_bits(arm, f_c, f_e, tau)


@pytest.mark.parametrize("params, q0, entry, zero", [
    # the shoulder's gravity torque cancels to exactly +0.0
    ({}, (1.5, 0.2846338837565632), 0, 0.0),
    # the elbow's underflows to -0.0 (cos(q1 + q2) is about -1.6e-16)
    ({"m2": 1e-310}, (0.5, 1.0707963267948968), 1, -0.0),
], ids=["shoulder_plus_zero", "elbow_minus_zero"])
def test_arm_step_gives_the_numpy_forms_bits_where_gravity_is_zero(params, q0, entry, zero):
    # a zero's sign in J^T f_c, J^T f_e or C qd could reach rhs only here
    zeros = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)]
    for qdot0, f_c, f_e in itertools.product(zeros, repeat=3):
        arm = PlanarArm(**params, q0=q0, qdot0=qdot0)
        assert np.float64(arm.gravity_vector(q0)[entry]).tobytes() == np.float64(zero).tobytes()
        _assert_arm_step_gives_the_numpy_forms_bits(arm, np.array(f_c), np.array(f_e), 1e-3)


@pytest.mark.parametrize("form", [list, tuple, np.array], ids=["list", "tuple", "ndarray"])
def test_the_arm_model_gives_the_numpy_forms_bits_for_any_joint_vector(form):
    # each public model method converts its q to floats once, where it enters
    rng = np.random.RandomState(31)
    arm = PlanarArm(l1=0.8, l2=0.3, m1=6.0, m2=1.5)
    for q, (qd1, qd2) in zip(rng.uniform(-4.0, 4.0, size=(25, 2)).tolist(),
                             rng.uniform(-3.0, 3.0, size=(25, 2)).tolist()):
        jac, _, grav, mass, h = arm_model_numpy(arm, q)
        d = h * qd2
        want = {"mass_matrix": mass, "jacobian": jac, "gravity_vector": grav,
                "coriolis_matrix": np.array([[h * qd2, h * (qd1 + qd2)], [-h * qd1, 0.0]]),
                "mass_matrix_rate": np.array([[2.0 * d, d], [d, 0.0]])}
        for name, value in want.items():
            args = (form(q), form([qd1, qd2])) if name in ("coriolis_matrix",
                                                           "mass_matrix_rate") else (form(q),)
            got = getattr(arm, name)(*args)
            assert (got.dtype, got.tobytes()) == (value.dtype, value.tobytes()), name
    for name in ("mass_matrix", "jacobian", "gravity_vector"):
        with pytest.raises(DomainError, match=re.escape("q must have length 2, got 3")):
            getattr(arm, name)(form([0.0, 0.0, 0.0]))
        # an infinite angle, or finite ones whose sum is not, raised ValueError
        # from math.sin; a NaN gave NaN entries
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError, match=re.escape(
                    f"q[0] must be a finite number, got {bad}")):
                getattr(arm, name)(form([bad, 0.0]))
        with pytest.raises(DomainError, match=re.escape(
                "q must have two finite entries with a finite sum, got [1e+308, 1e+308]")):
            getattr(arm, name)(form([1e308, 1e308]))
    # mass_matrix_rate read qdot[1] alone: a short qdot raised IndexError, a long one passed
    for name in ("coriolis_matrix", "mass_matrix_rate"):
        for qdot in ([1.0], [1.0, 2.0, 3.0]):
            with pytest.raises(DomainError, match=re.escape(
                    f"qdot must have length 2, got {len(qdot)}")):
                getattr(arm, name)(form([0.1, 0.2]), form(qdot))


# -- arm dynamics against the symbolic oracle ------------------------------------

def test_arm_terms_match_lagrangian_oracle():
    rng = np.random.RandomState(11)
    arm = PlanarArm()
    oracle = ArmOracle()
    for _ in range(100):
        q = rng.uniform(-np.pi, np.pi, size=2)
        qd = rng.uniform(-2.0, 2.0, size=2)
        assert arm.mass_matrix(q) == pytest.approx(oracle.mass(q), abs=1e-9)
        assert arm.coriolis_matrix(q, qd) == pytest.approx(oracle.coriolis(q, qd), abs=1e-9)
        assert arm.jacobian(q) == pytest.approx(oracle.jacobian(q), abs=1e-9)
        assert arm.gravity_vector(q) == pytest.approx(oracle.gravity_vec(q), abs=1e-9)
        assert PlanarArm(q0=q).pose == pytest.approx(oracle.ee(q), abs=1e-9)


def test_arm_terms_match_oracle_for_other_parameters():
    rng = np.random.RandomState(12)
    arm = PlanarArm(l1=0.8, l2=0.3, m1=6.0, m2=1.5)
    oracle = ArmOracle(l1=0.8, l2=0.3, m1=6.0, m2=1.5)
    for _ in range(25):
        q = rng.uniform(-np.pi, np.pi, size=2)
        qd = rng.uniform(-2.0, 2.0, size=2)
        assert arm.mass_matrix(q) == pytest.approx(oracle.mass(q), abs=1e-9)
        assert arm.coriolis_matrix(q, qd) == pytest.approx(oracle.coriolis(q, qd), abs=1e-9)


def test_stretched_arm_has_largest_joint1_inertia():
    arm = PlanarArm()
    m_stretched = arm.mass_matrix(np.zeros(2))
    rng = np.random.RandomState(1)
    for _ in range(50):
        q2 = rng.uniform(-np.pi, np.pi)
        assert arm.mass_matrix(np.array([0.0, q2]))[0, 0] <= m_stretched[0, 0] + 1e-12


def test_coriolis_vanishes_at_rest():
    arm = PlanarArm()
    assert arm.coriolis_matrix(np.array([0.4, -1.1]), ZERO2) == pytest.approx(np.zeros((2, 2)))


def test_skew_symmetry_of_mdot_minus_2c():
    rng = np.random.RandomState(21)
    arm = PlanarArm()
    for _ in range(1000):
        q = rng.uniform(-np.pi, np.pi, size=2)
        qd = rng.uniform(-3.0, 3.0, size=2)
        x = rng.uniform(-1.0, 1.0, size=2)
        mdot = arm.mass_matrix_rate(q, qd)
        c = arm.coriolis_matrix(q, qd)
        assert abs(x @ (mdot - 2.0 * c) @ x) < 1e-9


def test_mass_rate_matches_finite_difference_and_christoffel_split():
    arm = PlanarArm()
    q = np.array([0.7, -0.9])
    qd = np.array([0.8, 1.3])
    eps = 1e-7
    fd = (arm.mass_matrix(q + eps * qd) - arm.mass_matrix(q - eps * qd)) / (2.0 * eps)
    assert arm.mass_matrix_rate(q, qd) == pytest.approx(fd, abs=1e-6)
    c = arm.coriolis_matrix(q, qd)
    assert arm.mass_matrix_rate(q, qd) == pytest.approx(c + c.T, abs=1e-9)


def test_arm_rest_is_equilibrium_under_gravity_compensation():
    arm = PlanarArm(q0=(0.3, 0.8))
    for _ in range(1000):
        arm.step(_wrench(ZERO2), 1e-3)
    assert arm.kinetic_energy <= 1e-12
    assert arm.state().x == pytest.approx(PlanarArm(q0=(0.3, 0.8)).pose, abs=1e-12)


# -- energy audit -----------------------------------------------------------------

def _audit_arm_run(tau, n_steps, amplitude, seed=5):
    rng = np.random.RandomState(seed)
    arm = PlanarArm(q0=(0.2, 1.8))
    # piecewise-constant random force, held for 50 ms so halving tau keeps
    # the same physical drive
    hold = max(1, int(round(0.05 / tau)))
    worst = 0.0
    total = 0.0
    force = ZERO2
    for k in range(n_steps):
        if k % hold == 0:
            force = rng.uniform(-amplitude, amplitude, size=2)
        w = _wrench(force)
        prev = arm.state()
        arm.step(w, tau)
        r = power_balance_residual(prev, arm.state(), w, tau)
        worst = max(worst, r)
        total += r
    return worst, total


def test_per_step_power_balance_small_on_cartesian():
    plant = CartesianPlant(np.diag([2.0, 3.0]), np.zeros(2), np.array([0.4, -0.1]))
    tau = 1e-3
    rng = np.random.RandomState(9)
    for _ in range(200):
        w = _wrench(rng.uniform(-5.0, 5.0, size=2), rng.uniform(-2.0, 2.0, size=2))
        prev = plant.state()
        plant.step(w, tau)
        assert power_balance_residual(prev, plant.state(), w, tau) < 1e-12


def test_arm_energy_audit_accumulated():
    worst, total = _audit_arm_run(1e-3, 1000, amplitude=0.3)
    assert total < 1e-4
    assert worst < 1e-6


def test_arm_energy_audit_is_second_order_in_tau():
    # the same 1 s drive at tau and tau/2: the per-step defect drops ~4x
    worst_1, _ = _audit_arm_run(1e-3, 1000, amplitude=2.0)
    worst_2, _ = _audit_arm_run(5e-4, 2000, amplitude=2.0)
    assert worst_1 > 1e-10  # measurable, not roundoff
    assert worst_1 / worst_2 >= 3.5


def test_arm_passivity_in_free_motion():
    # zero input power: H may never climb above H(0) by more than the
    # integration allowance of 1e-4 J per simulated second
    arm = PlanarArm(q0=(0.2, 1.8), qdot0=(1.0, -0.5))
    h0 = arm.kinetic_energy
    worst_gain = 0.0
    for _ in range(1000):
        arm.step(_wrench(ZERO2), 1e-3)
        worst_gain = max(worst_gain, arm.kinetic_energy - h0)
    assert worst_gain <= 1e-4


def test_arm_step_determinism():
    def trajectory():
        arm = PlanarArm(q0=(0.1, 1.0), qdot0=(0.2, 0.3))
        out = []
        for k in range(500):
            st = arm.step(_wrench(np.array([np.sin(0.01 * k), 0.5])), 1e-3)
            out.append((tuple(st.x), tuple(st.xdot), st.kinetic_energy_truth))
        return out

    assert trajectory() == trajectory()


def test_kinetic_energy_truth_uses_joint_inertia():
    q, qd = np.array([0.2, 1.8]), np.array([0.7, -0.4])
    arm = PlanarArm(q0=q, qdot0=qd)
    assert arm.kinetic_energy == pytest.approx(0.5 * qd @ arm.mass_matrix(q) @ qd)
    st = arm.state()
    assert st.kinetic_energy_truth == pytest.approx(arm.kinetic_energy)
    assert st.kinetic_energy_truth >= 0.0
