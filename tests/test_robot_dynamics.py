import numpy as np
import pytest

from pfltank.errors import DomainError, IntegrationFault
from pfltank.robot_dynamics import (
    CartesianPlant,
    PlanarArm,
    PlantState,
    WrenchInput,
    power_balance_residual,
)

from oracles import ArmOracle, semi_implicit_constant_force

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
    # a snapshot built by hand copies its arrays too, and is read-only
    x = np.array([1.0, 2.0])
    built = PlantState(x, ZERO2, 0.0)
    x[0] = 99.0
    assert built.x[0] == 1.0
    with pytest.raises(AttributeError):
        built.x = x
    with pytest.raises(DomainError, match="kinetic energy cannot be negative"):
        PlantState(x, ZERO2, -1e-12)


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
