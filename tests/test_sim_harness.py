import dataclasses
from pathlib import Path

import numpy as np
import pytest

from pfltank import sim_harness
from pfltank.cli import load_scenario
from pfltank.energy_tank import make_tank
from pfltank.errors import ConfigError, DomainError
from pfltank.iso15066 import BodyRegion, RobotMassSpec, v_max
from pfltank.robot_dynamics import CartesianPlant, PlanarArm
from pfltank.safety_controller import (
    FEASIBILITY_MARGIN,
    ControlTick,
    PdGains,
    RegionSchedule,
)
from pfltank.sim_harness import (
    Scenario,
    WrenchSegment,
    initial_epsilons,
    read_ticks_csv,
    run,
    summarize,
    wrench_at,
    write_ticks_csv,
)

from oracles import write_ticks_csv_rowwise


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
    # the slack shifts the sampling instant, not the segment
    assert wrench_at(script, 0.999, 2, slack=0.002) == pytest.approx([0.25, 0.5])
    assert wrench_at((), 0.3, 3) == pytest.approx([0.0, 0.0, 0.0])


def test_wrench_segment_rejects_empty_window():
    with pytest.raises(ConfigError):
        WrenchSegment(1.0, 1.0, (0.0,))


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("build, error", [
    (lambda: PdGains(kp=(_NAN,), kd=(1.0,), target=(0.0,)), ConfigError),
    (lambda: PdGains(kp=(1.0,), kd=(_INF,), target=(0.0,)), ConfigError),
    (lambda: PdGains(kp=(1.0,), kd=(1.0,), target=(_INF,)), ConfigError),
    (lambda: WrenchSegment(0.0, 1.0, (_NAN,)), ConfigError),
    (lambda: CartesianPlant((_INF,), (0.0,), (0.0,)), DomainError),
    (lambda: CartesianPlant((_NAN,), (0.0,), (0.0,)), DomainError),
    (lambda: CartesianPlant((2.0,), (_NAN,), (0.0,)), DomainError),
    (lambda: CartesianPlant((2.0,), (0.0,), (_INF,)), DomainError),
    (lambda: PlanarArm(l1=_INF), DomainError),
    (lambda: PlanarArm(l2=_NAN), DomainError),
    (lambda: PlanarArm(m1=_INF), DomainError),
    (lambda: PlanarArm(m2=_NAN), DomainError),
    (lambda: PlanarArm(q0=(_NAN, 0.0)), DomainError),
    (lambda: PlanarArm(qdot0=(0.0, _INF)), DomainError),
    (lambda: make_tank(_INF, 1.0), ConfigError),
    (lambda: make_tank(2.0, 1.0, h_initial=_NAN), ConfigError),
    (lambda: make_tank(2.0, 1.0, h_initial=_INF), ConfigError),
    (lambda: _cart_scenario(damper_band=_INF), ConfigError),
], ids=["kp_nan", "kd_inf", "target_inf", "force_nan", "inertia_inf", "inertia_nan",
        "x0_nan", "xdot0_inf", "l1_inf", "l2_nan", "m1_inf", "m2_nan", "q0_nan",
        "qdot0_inf", "t_initial_inf", "h_initial_nan", "h_initial_inf",
        "damper_band_inf"])
def test_constructors_reject_non_finite_values(build, error):
    # refused where they enter, with a message that names the cause, instead
    # of a fault at cycle 0 or a misleading error further down
    with pytest.raises(error, match="finite"):
        build()


# -- scenario plumbing ---------------------------------------------------------

def test_scenario_validation():
    with pytest.raises(ConfigError):
        _cart_scenario(tau=0.0)
    with pytest.raises(ConfigError):
        _cart_scenario(duration=-1.0)
    with pytest.raises(ConfigError):
        _cart_scenario(t_initial=0.0)


@pytest.mark.parametrize("over, message", [
    (dict(gains=PdGains(kp=(4.0, 4.0), kd=(6.0, 6.0), target=(2.0, 0.0))),
     r"kp, kd and target need one entry per plant axis \(1\), got shape \(2,\)"),
    (dict(wrench_script=(WrenchSegment(0.0, 0.1, (1.0,)),
                         WrenchSegment(0.2, 0.3, (1.0, 0.0)))),
     r"wrench_script\[1\]\.force needs one entry per plant axis \(1\)"),
    (dict(plant=CartesianPlant(np.eye(4), np.zeros(4), np.zeros(4)),
          gains=PdGains(kp=(1.0,) * 4, kd=(1.0,) * 4, target=(0.0,) * 4)),
     "plant: at most 3 axes are supported, got 4"),
], ids=["gains", "wrench_force", "four_axes"])
def test_scenario_checks_the_axis_contract(over, message):
    # each of these used to build and then fail inside run() or the CSV writer
    with pytest.raises(ConfigError, match=message):
        _cart_scenario(**over)


def test_run_needs_at_least_one_cycle():
    with pytest.raises(ConfigError, match="at least one cycle"):
        _cart_scenario(duration=1e-4, tau=1e-3)


def test_initial_epsilons_arithmetic_and_region_naming():
    scenario = _cart_scenario(
        schedule=_schedule((0.0, "wide", 0.5), (1.0, "narrow", 0.2)))
    assert initial_epsilons(scenario, 0.25) == pytest.approx([1.75, 2.05])
    # building the scenario runs the same check
    with pytest.raises(ConfigError, match="greedy"):
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
def test_bound_invariant_holds_from_the_log_alone(tmp_path, spec, duration):
    # outside a deficit the robot's energy stays within the active budget
    # E_active = H(0) + T(0) - epsilon, up to the fixed feasibility margin;
    # every term is a ticks.csv column
    scenario = load_scenario(spec)
    if duration is not None:
        scenario = dataclasses.replace(scenario, duration=duration)
    path = tmp_path / "ticks.csv"
    write_ticks_csv(path, run(scenario).ticks)
    ticks = read_ticks_csv(path)
    h0, t0 = ticks[0].h_truth, ticks[0].tank_T
    broken = [tk.k for tk in ticks if tk.tank_T >= tk.epsilon
              and not tk.h_truth <= (h0 + t0 - tk.epsilon) + FEASIBILITY_MARGIN]
    assert broken == []


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
    s = summarize(ticks)
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
    only = _tick(0, 0.0, "A", 0.1, 1.9, 1.5)
    s = summarize([only])
    assert s.tau == 0.0
    assert s.segments[0].ticks == 1
    assert s.segments[0].time_above_bound == 0.0
    with pytest.raises(DomainError):
        summarize([])


def test_iso_comparison_attaches_only_where_data_exists():
    chest = BodyRegion(name="chest", f_max=140.0, k=25000.0, m_h=40.0,
                       e_max_override=1.6)
    scenario = _cart_scenario(
        schedule=RegionSchedule((0.0,), (chest,)),
        gains=PdGains(kp=(0.0,), kd=(0.0,), target=(0.0,)),
        duration=0.05,
        iso_mass=RobotMassSpec(moving_mass=16.0))
    seg = run(scenario).summary.segments[0]
    assert seg.v_max_quasi_static == pytest.approx(v_max(chest, 8.0, "quasi_static"))
    assert seg.v_max_transient == pytest.approx(v_max(chest, 8.0, "transient"))
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


def _assert_same_ticks(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for field in dataclasses.fields(ControlTick):
            x, y = getattr(a, field.name), getattr(b, field.name)
            if isinstance(y, np.ndarray):
                # bitwise, so -0.0 and 0.0 stay apart
                assert x.tobytes() == y.tobytes(), field.name
            else:
                assert type(x) is type(y) and repr(x) == repr(y), field.name


def _parity_logs():
    arm = _cart_scenario(
        name="arm", plant=PlanarArm(q0=(0.3, 0.8)),
        gains=PdGains(kp=(20.0, 20.0), kd=(8.0, 8.0), target=(0.55, 0.45)),
        t_initial=1.0, duration=0.3)
    cart3 = _cart_scenario(
        name="cart3",
        plant=CartesianPlant(((3.0, 0.2, 0.0), (0.2, 2.0, 0.1), (0.0, 0.1, 1.5)),
                             (0.0, 0.1, -0.2), (0.3, 0.0, -0.1)),
        gains=PdGains(kp=(4.0, 5.0, 6.0), kd=(2.0, 2.0, 2.0), target=(0.5, -0.5, 0.2)),
        wrench_script=(WrenchSegment(0.1, 0.2, (0.5, -0.25, 1.0)),),
        duration=0.3)
    quoted = _cart_scenario(
        name="quoted",
        schedule=_schedule((0.0, 'chest, "upper"', 0.5), (0.1, "hand", 0.4)),
        duration=0.2)
    long_log = _cart_scenario(
        name="long", wrench_script=(WrenchSegment(0.2, 0.4, (-0.7,)),),
        duration=(2 * sim_harness._CHUNK + 17) * 1e-3)
    return {"cart1": run(_cart_scenario(duration=0.3)).ticks,
            "cart3": run(cart3).ticks, "arm": run(arm).ticks,
            "quoted": run(quoted).ticks, "long": run(long_log).ticks,
            "edges": _edge_ticks()}


def _edge_ticks():
    """Region names that csv quotes, and floats at the edges of repr: -0.0,
    the smallest subnormal and a value near the top of the range."""
    names = ["comma, here", 'quote "q"', "cr\rhere", "lf\nhere", "crlf\r\nhere", "plain"]
    values = [-0.0, 5e-324, 1e308]
    ticks = run(_cart_scenario(duration=0.012)).ticks
    return [dataclasses.replace(tk, active_region=names[i % len(names)],
                                b=values[i % 3], h_truth=-values[i % 3],
                                f_c=np.array([values[(i + 1) % 3]]),
                                x=np.array([-values[(i + 2) % 3]]))
            for i, tk in enumerate(ticks)]


def test_csv_writer_matches_the_rowwise_reference(tmp_path):
    for name, ticks in _parity_logs().items():
        if name == "long":
            assert len(ticks) > 2 * sim_harness._CHUNK
        ours, ref = tmp_path / f"{name}.csv", tmp_path / f"{name}_ref.csv"
        write_ticks_csv(ours, ticks)
        write_ticks_csv_rowwise(ref, ticks)
        assert ours.read_bytes() == ref.read_bytes(), name
        _assert_same_ticks(read_ticks_csv(ours), ticks)
    assert '"chest, ""upper"""' in (tmp_path / "quoted.csv").read_text()
    edges = (tmp_path / "edges.csv").read_bytes()
    for text in (b'"comma, here"', b'"quote ""q"""', b'"cr\rhere"', b'"lf\nhere"',
                 b'"crlf\r\nhere",', b",plain,", b",-0.0,", b",5e-324,", b",1e+308,"):
        assert text in edges, text


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


def _blank_line(lines):
    lines.insert(3, "\r\n")
    return lines


def _fourth_axis(lines):
    lines[0] = ",".join(sim_harness._tick_columns(3)) + ",xdot_w\r\n"
    return lines


def _not_utf8(lines):
    fields = lines[3].split(",")
    fields[2] += "\udcff"  # the region name
    lines[3] = ",".join(fields)
    return lines


@pytest.mark.parametrize("edit, message", [
    (_drop_column, "missing columns ['f_des_x']"),
    (_short_row, "line 4: expected 15 fields, got 14"),
    (_non_numeric, "line 5: could not convert string to float: 'soon'"),
    (_not_utf8, "not UTF-8"),
    (_swap_columns, "header is not the tick-log header"),
    (_extra_column, "header is not the tick-log header"),
    (_blank_line, "line 4: expected 15 fields, got 0"),
    (_fourth_axis, "header is not the tick-log header"),
], ids=["missing_column", "short_row", "non_numeric", "not_utf8", "reordered_header",
        "extra_column", "blank_line", "fourth_axis"])
def test_malformed_logs_raise_domain_errors(tmp_path, edit, message):
    path = _malformed(tmp_path, edit)
    with pytest.raises(DomainError) as info:
        read_ticks_csv(path)
    assert str(path) in str(info.value)
    assert message in str(info.value)


def test_csv_refuses_empty_logs(tmp_path):
    with pytest.raises(DomainError):
        write_ticks_csv(tmp_path / "none.csv", [])
    headers_only = tmp_path / "bare.csv"
    headers_only.write_text("k,t,active_region,alpha,b,p_ext,tank_T,"
                            "epsilon,h_est,h_truth,x_x,xdot_x\n")
    with pytest.raises(DomainError):
        read_ticks_csv(headers_only)
