import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfltank.errors import DomainError
from pfltank.iso15066 import (
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
from pfltank.robot_dynamics import PlanarArm

from oracles import REFUSED_REGION_NAMES, ArmOracle


def test_chest_energy_limit_value():
    chest = BUILTIN_REGIONS["chest"]
    # (2 * 140)^2 / (2 * 25000) by hand
    assert max_energy(chest) == pytest.approx(1.568, abs=1e-12)


def test_energy_limit_formula_against_hand_arithmetic():
    region = BodyRegion(name="hand", f_max=100.0, k=20_000.0, m_h=10.0)
    assert max_energy(region) == pytest.approx((2.0 * 100.0) ** 2 / (2.0 * 20_000.0))
    gentle = BodyRegion(name="hand", f_max=100.0, k=20_000.0, m_h=10.0,
                        transient_multiplier=1.0)
    assert max_energy(gentle) == pytest.approx(100.0 ** 2 / (2.0 * 20_000.0))


def test_override_wins_over_table_data():
    region = BodyRegion(name="x", f_max=140.0, k=25_000.0, m_h=40.0,
                        e_max_override=1.6)
    assert max_energy(region) == 1.6


def test_region_validation():
    with pytest.raises(DomainError):
        BodyRegion(name="bad", f_max=140.0)  # k missing, no override
    with pytest.raises(DomainError):
        BodyRegion(name="bad", f_max=-1.0, k=25_000.0)
    with pytest.raises(DomainError):
        BodyRegion(name="bad", f_max=140.0, k=25_000.0, transient_multiplier=0.5)
    with pytest.raises(DomainError):
        BodyRegion(name="bad", e_max_override=0.0)
    with pytest.raises(DomainError):
        BodyRegion(name="")


@pytest.mark.parametrize("field", ["f_max", "k", "m_h", "e_max_override",
                                   "transient_multiplier"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_region_rejects_non_finite_values(field, value):
    # an infinite k gives E_max = 0 J, an infinite f_max E_max = inf
    values = dict(f_max=140.0, k=25_000.0, m_h=40.0)
    values[field] = value
    with pytest.raises(DomainError, match=field):
        BodyRegion(name="bad", **values)


@pytest.mark.parametrize("name", REFUSED_REGION_NAMES.values(), ids=REFUSED_REGION_NAMES)
def test_region_refuses_a_name_outside_the_rule(name):
    with pytest.raises(DomainError, match="a region name must be a non-empty printable"):
        BodyRegion(name=name, e_max_override=1.0)


def test_region_takes_a_printable_name_without_comma_or_quote():
    for name in ("a b", " padded ", "quote'q", "#hash", "é ü", "c" * 140_000):
        assert BodyRegion(name=name, e_max_override=1.0).name == name


def test_reduced_mass_hand_values():
    assert reduced_mass(40.0, 8.0) == pytest.approx(1.0 / (1.0 / 40.0 + 1.0 / 8.0))
    assert reduced_mass(40.0, 8.0) == pytest.approx(6.666666666666667)
    # symmetric and below both masses
    assert reduced_mass(3.0, 7.0) == pytest.approx(reduced_mass(7.0, 3.0))
    assert reduced_mass(3.0, 7.0) < 3.0
    with pytest.raises(DomainError):
        reduced_mass(0.0, 8.0)


def test_robot_effective_mass():
    assert robot_effective_mass(RobotMassSpec(moving_mass=16.0)) == 8.0
    assert robot_effective_mass(RobotMassSpec(moving_mass=16.0, payload=2.0)) == 10.0
    with pytest.raises(DomainError):
        RobotMassSpec(moving_mass=-1.0)
    for bad in (dict(moving_mass=math.inf), dict(moving_mass=16.0, payload=math.inf),
                dict(moving_mass=16.0, payload=math.nan)):
        with pytest.raises(DomainError):
            RobotMassSpec(**bad)


@pytest.mark.parametrize("m_h, m_r", [(40.0, 5e-324), (5e-324, 8.0), (math.inf, math.inf)],
                         ids=["subnormal_m_r", "subnormal_m_h", "both_infinite"])
def test_reduced_mass_refuses_a_result_that_is_not_positive_and_finite(m_h, m_r):
    # a subnormal mass's inverse is inf, so mu was 0.0; two infinite masses
    # divided by zero
    with pytest.raises(DomainError) as info:
        reduced_mass(m_h, m_r)
    assert str(info.value) == ("masses must give a positive finite reduced mass, "
                               f"got m_h={m_h!r}, m_r={m_r!r}")


@pytest.mark.parametrize("spec, m_r", [
    (dict(moving_mass=5e-324), 0.0),
    (dict(moving_mass=1.7e308, payload=1.7e308), math.inf),
], ids=["half_rounds_to_zero", "sum_overflows"])
def test_robot_mass_spec_refuses_an_effective_mass_that_is_not_positive_and_finite(spec, m_r):
    with pytest.raises(DomainError) as info:
        RobotMassSpec(**spec)
    assert str(info.value) == ("the effective mass 0.5 moving_mass + payload must be "
                               f"positive and finite, got {m_r!r} kg")


def test_v_max_refuses_a_root_that_rounds_to_zero():
    # mu k = 0.05 * 5e-324 rounds to 0, which numpy divided by with a warning
    soft = BodyRegion(name="soft", f_max=1e-160, k=5e-324, m_h=0.1)
    with pytest.raises(DomainError) as info:
        v_max(soft, 0.1)
    assert str(info.value) == ("region 'soft': the speed limits at m_r = 0.1 kg must be "
                               "positive and finite, got (inf, inf)")


def test_v_max_both_modes():
    chest = BUILTIN_REGIONS["chest"]
    mu = reduced_mass(40.0, 8.0)
    assert v_max(chest, 8.0)[0] == pytest.approx(140.0 / np.sqrt(mu * 25_000.0))
    assert v_max(chest, 8.0)[1] == pytest.approx(280.0 / np.sqrt(mu * 25_000.0))
    shoulders = BUILTIN_REGIONS["shoulders"]
    with pytest.raises(DomainError):
        v_max(shoulders, 8.0)  # no force/stiffness table data


@pytest.mark.parametrize("region, message", [
    (BUILTIN_REGIONS["shoulders"], "region 'shoulders' has no contact-model data"),
    (BodyRegion(name="no_k", f_max=140.0, m_h=40.0, e_max_override=1.0),
     "region 'no_k' has no contact-model data"),
    (BodyRegion(name="no_m_h", f_max=140.0, k=25_000.0),
     "region 'no_m_h' has no body mass m_h"),
], ids=["table_region", "no_k", "no_m_h"])
def test_v_max_refuses_a_region_without_its_data(region, message):
    with pytest.raises(DomainError) as info:
        v_max(region, 8.0)
    assert str(info.value) == message


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(f_max=st.floats(10.0, 500.0), k=st.floats(1e3, 1e6), m_h=st.floats(0.5, 80.0),
       multiplier=st.floats(1.0, 5.0), m_r=st.floats(0.1, 100.0))
def test_v_max_gives_each_limit_as_its_own_quotient(f_max, k, m_h, multiplier, m_r):
    # the bits of f / sqrt(mu k) for f = f_max and f = multiplier * f_max;
    # multiplier * (f_max / root) rounds differently for most multipliers
    drawn = BodyRegion(name="drawn", f_max=f_max, k=k, m_h=m_h,
                       transient_multiplier=multiplier)
    for region, mass in ((BUILTIN_REGIONS["chest"], 8.0), (drawn, m_r)):
        root = np.sqrt(reduced_mass(region.m_h, mass) * region.k)
        want = (float(region.f_max / root),
                float(region.transient_multiplier * region.f_max / root))
        got = v_max(region, mass)
        assert got == want
        assert tuple(map(type, got)) == (float, float)


def test_v_max_decreases_with_robot_mass():
    chest = BUILTIN_REGIONS["chest"]
    masses = [2.0, 4.0, 8.0, 16.0, 32.0]
    speeds = [v_max(chest, m)[1] for m in masses]
    assert all(a > b for a, b in zip(speeds, speeds[1:]))


def test_apparent_mass_diagonal_case():
    mobility = np.diag([1.0 / 4.0, 1.0 / 9.0])
    assert apparent_mass(np.array([1.0, 0.0]), mobility) == pytest.approx(4.0)
    assert apparent_mass(np.array([0.0, 1.0]), mobility) == pytest.approx(9.0)


def test_apparent_mass_requires_unit_direction():
    mobility = np.eye(2)
    with pytest.raises(DomainError):
        apparent_mass(np.array([2.0, 0.0]), mobility)


def test_apparent_mass_rejects_asymmetric_mobility():
    with pytest.raises(DomainError):
        apparent_mass(np.array([1.0, 0.0]), np.array([[1.0, 0.5], [-0.5, 1.0]]))



@pytest.mark.parametrize("n, mobility, message", [
    ([1.0], [[1.0, 0.0]], "mobility must be square, got shape (1, 2)"),
    ([1.0, 0.0, 0.0], np.eye(2), "direction shape (3,) does not match mobility (2, 2)"),
    ([1.0, 0.0], np.zeros((2, 2)), "mobility tensor has no positive eigenvalue"),
    ([1.0, 0.0], np.diag([1.0, -1.0]),
     "mobility tensor is not positive semidefinite (eigenvalues [-1.  1.])"),
], ids=["not_square", "direction_shape", "no_positive_eigenvalue", "indefinite"])
def test_apparent_mass_refuses_with_its_message(n, mobility, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        apparent_mass(n, mobility)


class _IndefiniteModel:
    """A model whose mass matrix no arm could have."""

    def jacobian(self, q):
        return np.eye(2)

    def mass_matrix(self, q):
        return np.diag([1.0, -1.0])


def test_endpoint_mobility_refuses_a_mass_matrix_that_is_not_positive_definite():
    with pytest.raises(DomainError, match="^mass matrix is not positive definite$"):
        endpoint_mobility(_IndefiniteModel(), [0.0, 0.0])


# NaN fails every comparison, so without a finiteness check it went in and
# came out as the apparent mass or the mobility tensor
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call, message", [
    (lambda bad: apparent_mass([bad, 0.0], np.eye(2)), "direction must be finite, got [{}, 0.0]"),
    (lambda bad: apparent_mass([1.0, 0.0], [[bad, 0.0], [0.0, 1.0]]),
     "mobility tensor entries must be finite"),
    (lambda bad: endpoint_mobility(PlanarArm(), [bad, 0.0]),
     "joint angles must be finite, got [{}, 0.0]"),
], ids=["direction", "mobility", "joint_angles"])
def test_iso_functions_refuse_a_non_finite_argument(call, message, bad):
    with pytest.raises(DomainError, match=f"^{re.escape(message.format(bad))}$"):
        call(bad)

def test_apparent_mass_matches_symbolic_oracle():
    rng = np.random.RandomState(7)
    arm = PlanarArm()
    oracle = ArmOracle()
    for _ in range(100):
        q = rng.uniform(-np.pi, np.pi, size=2)
        # keep away from the kinematic singularity where mobility loses rank
        if abs(np.sin(q[1])) < 0.15:
            continue
        theta = rng.uniform(0.0, 2.0 * np.pi)
        n = np.array([np.cos(theta), np.sin(theta)])
        mob = endpoint_mobility(arm, q)[:2, :2]
        assert apparent_mass(n, mob) == pytest.approx(oracle.apparent_mass(q, n), abs=1e-9)


def test_apparent_mass_faults_on_immobile_direction():
    arm = PlanarArm()
    # fully stretched: the end effector cannot accelerate radially
    mob = endpoint_mobility(arm, np.array([0.0, 0.0]))
    assert mob.shape == (2, 2)  # one row and column per workspace axis
    with pytest.raises(DomainError):
        apparent_mass(np.array([1.0, 0.0]), mob)
    # tangentially it can, and the result is finite and positive
    assert apparent_mass(np.array([0.0, 1.0]), mob) > 0.0


def test_apparent_mass_below_lumped_iso_estimate():
    # direction-awareness is the point of the comparison: along its most
    # mobile direction the default arm sits well under moving_mass/2, even
    # though stiff directions can exceed it
    arm = PlanarArm()
    rng = np.random.RandomState(3)
    lumped = robot_effective_mass(RobotMassSpec(moving_mass=16.0))
    checked = 0
    for _ in range(20):
        q = rng.uniform(-np.pi, np.pi, size=2)
        if abs(np.sin(q[1])) < 0.3:
            continue
        mob = endpoint_mobility(arm, q)[:2, :2]
        vals, vecs = np.linalg.eigh(mob)
        best = vecs[:, np.argmax(vals)]
        assert apparent_mass(best, mob) < lumped
        checked += 1
    assert checked > 10


def test_builtin_regions_complete():
    assert set(BUILTIN_REGIONS) >= {"chest", "shoulders"}
    assert BUILTIN_REGIONS["chest"].f_max == 140.0
    assert BUILTIN_REGIONS["chest"].k == 25_000.0
    assert BUILTIN_REGIONS["chest"].m_h == 40.0
    assert max_energy(BUILTIN_REGIONS["shoulders"]) == 2.5
