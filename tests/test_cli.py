import json
import math
import subprocess
import sys
import warnings
from importlib import resources

import numpy as np
import pytest

from pfltank.cli import EXIT_CONFIG, EXIT_FAULT, EXIT_OK, load_scenario, main
from pfltank.iso15066 import BodyRegion, max_energy, reduced_mass, v_max

BUNDLED = ["paper_replica", "push_at_floor", "stricter_switch", "budget_starved"]


def _doc(**over):
    doc = {
        "name": "tiny",
        "plant": {"type": "cartesian", "inertia": [[2.0]], "x0": [0.0], "v0": [0.0]},
        "controller": {"kp": [4.0], "kd": [6.0], "target": [1.5]},
        "regions": {"zone": {"e_max_override": 0.5}},
        "schedule": [{"t": 0.0, "region": "zone"}],
        "tank": {"t_initial": 2.0},
        "tau": 0.001,
        "duration": 0.2,
    }
    doc.update(over)
    return doc


def _write(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _replica(edit):
    doc = json.loads(resources.files("pfltank").joinpath(
        "scenarios", "paper_replica.json").read_text())
    edit(doc)
    return doc


# -- validate ------------------------------------------------------------------

def test_validate_accepts_all_bundled_scenarios(capsys):
    for name in BUNDLED:
        assert main(["validate", name]) == EXIT_OK
        assert capsys.readouterr().out.startswith(f"OK: {name}")


def test_unknown_scenario_name(capsys):
    assert main(["validate", "no_such_thing"]) == EXIT_CONFIG
    assert "no such file or bundled scenario" in capsys.readouterr().err


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert "invalid JSON" in capsys.readouterr().err


def test_unknown_keys_are_path_qualified(tmp_path, capsys):
    doc = _doc()
    doc["regions"]["zone"]["stiffnes"] = 25.0
    assert main(["validate", _write(tmp_path, doc)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "regions.zone" in err and "stiffnes" in err


def test_schedule_must_reference_defined_regions(tmp_path, capsys):
    doc = _doc(schedule=[{"t": 0.0, "region": "ghost"}])
    assert main(["validate", _write(tmp_path, doc)]) == EXIT_CONFIG
    assert "'ghost' is not defined" in capsys.readouterr().err
    # a JSON list is no region name (and cannot be looked up as one)
    doc = _doc(schedule=[{"t": 0.0, "region": ["zone"]}])
    assert main(["validate", _write(tmp_path, doc)]) == EXIT_CONFIG
    assert "['zone'] is not defined" in capsys.readouterr().err


def test_tank_takes_exactly_one_sizing_key(tmp_path, capsys):
    both = _doc(tank={"t_initial": 2.0, "epsilon_initial": 1.5})
    assert main(["validate", _write(tmp_path, both)]) == EXIT_CONFIG
    assert "exactly one" in capsys.readouterr().err
    neither = _doc(tank={})
    assert main(["validate", _write(tmp_path, neither)]) == EXIT_CONFIG


def test_epsilon_initial_sizes_the_tank(tmp_path, capsys):
    doc = _doc(tank={"epsilon_initial": 1.5})
    path = _write(tmp_path, doc)
    assert main(["validate", path]) == EXIT_OK
    # floor 1.5 + first budget 0.5 - h0 0 => 2 J in the tank
    assert "tank 2 J" in capsys.readouterr().out
    assert load_scenario(path).t_initial == pytest.approx(2.0)


def test_stiffness_unit_is_required_with_k(tmp_path, capsys):
    doc = _doc(regions={"zone": {"f_max": 140.0, "k": 25.0, "m_h": 40.0}})
    assert main(["validate", _write(tmp_path, doc)]) == EXIT_CONFIG
    assert "stiffness_unit" in capsys.readouterr().err


@pytest.mark.parametrize("unit", ["N/cm", ["N/m"]], ids=["other_unit", "list"])
def test_stiffness_unit_must_be_known(tmp_path, capsys, unit):
    doc = _doc(regions={"zone": {"f_max": 140.0, "k": 25.0, "stiffness_unit": unit,
                                 "m_h": 40.0}})
    assert main(["validate", _write(tmp_path, doc)]) == EXIT_CONFIG
    assert (f"regions.zone.stiffness_unit: expected 'N/m' or 'N/mm', got {unit!r}\n"
            in capsys.readouterr().err)


def test_stiffness_unit_conversion(tmp_path):
    mm = _doc(regions={"zone": {"f_max": 140.0, "k": 25.0,
                                "stiffness_unit": "N/mm", "m_h": 40.0}})
    m = _doc(regions={"zone": {"f_max": 140.0, "k": 25000.0,
                               "stiffness_unit": "N/m", "m_h": 40.0}})
    k_mm = load_scenario(_write(tmp_path, mm, "mm.json")).schedule.regions[0].k
    k_m = load_scenario(_write(tmp_path, m, "m.json")).schedule.regions[0].k
    assert k_mm == k_m == 25000.0


def test_removed_keys_rejected(tmp_path, capsys):
    # nothing is random, so there is no seed; v_floor, epsilon_min and
    # feasibility_margin are the fixed constants V_FLOOR, EPSILON_MIN and
    # FEASIBILITY_MARGIN, not scenario settings
    cases = [("scenario", "seed", _doc(seed=0))]
    for key in ("v_floor", "epsilon_min", "feasibility_margin"):
        doc = _doc()
        doc["controller"][key] = 1e-3
        cases.append(("controller", key, doc))
    # the arm's links are uniform rods under standard gravity
    for key in ("gravity", "inertia1", "inertia2"):
        arm = {"type": "planar_arm", "l1": 0.5, "l2": 0.5, "m1": 4.0, "m2": 4.0,
               "q0": [0.3, 1.2], "qd0": [0.0, 0.0], key: 1.0}
        cases.append(("plant", key, _doc(plant=arm)))
    for path, key, doc in cases:
        assert main(["validate", _write(tmp_path, doc)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{path}: unknown keys ['{key}']" in err


# every JSON object of the document, and how to put a value at its path
MAPPING_SITES = {
    "regions.zone": lambda doc, v: doc["regions"].update(zone=v),
    "plant": lambda doc, v: doc.update(plant=v),
    "controller": lambda doc, v: doc.update(controller=v),
    "schedule[0]": lambda doc, v: doc.update(schedule=[v]),
    "wrench_script[0]": lambda doc, v: doc.update(wrench_script=[v]),
    "tank": lambda doc, v: doc.update(tank=v),
    "iso_comparison": lambda doc, v: doc.update(iso_comparison=v),
}


@pytest.mark.parametrize("path", list(MAPPING_SITES))
def test_non_mappings_rejected(tmp_path, capsys, path):
    doc = _doc()
    MAPPING_SITES[path](doc, [1.0])
    assert main(["validate", _write(tmp_path, doc)]) == EXIT_CONFIG
    assert f"scenario.json: {path}: expected a mapping\n" in capsys.readouterr().err


# scenario, controller and plant are covered by test_removed_keys_rejected
@pytest.mark.parametrize("path, value", [
    ("regions.zone", {"e_max_override": 0.5, "bogus": 1}),
    ("schedule[0]", {"t": 0.0, "region": "zone", "bogus": 1}),
    ("wrench_script[0]", {"t_start": 0.0, "t_end": 0.1, "force": [1.0], "bogus": 1}),
    ("tank", {"t_initial": 2.0, "bogus": 1}),
    ("iso_comparison", {"moving_mass": 8.0, "bogus": 1}),
])
def test_unknown_keys_rejected(tmp_path, capsys, path, value):
    doc = _doc()
    MAPPING_SITES[path](doc, value)
    assert main(["validate", _write(tmp_path, doc)]) == EXIT_CONFIG
    assert f"scenario.json: {path}: unknown keys ['bogus']\n" in capsys.readouterr().err


NON_FINITE_SITES = {
    "controller.kp": ("controller", "kp", 0),
    "controller.target": ("controller", "target", 0),
    "controller.damper_band": ("controller", "damper_band"),
    "plant.x0": ("plant", "x0", 0),
    "plant.inertia": ("plant", "inertia", 0, 0),
    "wrench_script[0].force": ("wrench_script", 0, "force", 0),
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("path", list(NON_FINITE_SITES))
def test_non_finite_numbers_rejected(tmp_path, capsys, path, value):
    # json.dumps writes NaN and Infinity literals, which json.loads accepts
    doc = _doc(wrench_script=[{"t_start": 0.0, "t_end": 0.1, "force": [1.0]}])
    keys = NON_FINITE_SITES[path]
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    assert main(["validate", _write(tmp_path, doc)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "scenario.json" in err and path in err and "finite" in err


@pytest.mark.parametrize("plant", [
    {"type": "cartesian", "inertia": [[1.0, 2.0], [2.0, 1.0]],
     "x0": [0.0, 0.0], "v0": [0.0, 0.0]},
    {"type": "planar_arm", "l1": -0.5, "l2": 0.5, "m1": 4.0, "m2": 4.0,
     "q0": [0.3, 1.2], "qd0": [0.0, 0.0]},
], ids=["non_spd_inertia", "negative_l1"])
def test_plant_errors_are_path_qualified(tmp_path, capsys, plant):
    doc = _doc(plant=plant, controller={"kp": [4.0, 4.0], "kd": [6.0, 6.0],
                                        "target": [1.5, 1.5]})
    assert main(["validate", _write(tmp_path, doc)]) == EXIT_CONFIG
    assert "scenario.json: plant: " in capsys.readouterr().err


@pytest.mark.parametrize("over, message", [
    ({"controller": {"kp": [-4.0], "kd": [6.0], "target": [1.5]}},
     "controller: PD gains must be non-negative"),
    ({"wrench_script": [{"t_start": 0.2, "t_end": 0.1, "force": [1.0]}]},
     "wrench_script[0]: wrench segment must have t_end > t_start"),
    ({"schedule": [{"t": 0.1, "region": "zone"}]},
     "schedule: first schedule entry must be at t = 0"),
], ids=["negative_kp", "empty_wrench_window", "late_first_entry"])
def test_value_errors_are_path_qualified(tmp_path, capsys, over, message):
    assert main(["validate", _write(tmp_path, _doc(**over))]) == EXIT_CONFIG
    assert f"scenario.json: {message}" in capsys.readouterr().err


# documents each of which validate and run both reject, naming the file
RUN_REJECTS = {
    "below_one_cycle": lambda doc: doc.update(duration=0.0004),
    "overflowing_cycle_count": lambda doc: doc.update(tau=1e-320),
    # 2 J of kinetic energy against the 1.6 J chest budget
    "start_over_budget": lambda doc: doc["plant"].update(v0=[1.0, 0.0]),
    # a removed key, refused by both before anything runs
    "negative_feasibility_margin":
        lambda doc: doc["controller"].update(feasibility_margin=-1.0),
    "negative_damper_band": lambda doc: doc["controller"].update(damper_band=-1.0),
    # axis counts that disagree with the plant; the Scenario checks them
    "gain_lengths": lambda doc: doc["controller"].update(
        kp=[8.0] * 3, kd=[11.0] * 3, target=[6.0, 0.0, 0.0]),
    "wrench_force_length": lambda doc: doc.update(wrench_script=[
        {"t_start": 0.5, "t_end": 1.0, "force": [1.0, 0.0, 0.0]}]),
    "four_axes": lambda doc: doc.update(
        plant={"type": "cartesian", "inertia": np.eye(4).tolist(),
               "x0": [0.0] * 4, "v0": [0.0] * 4},
        controller={"kp": [8.0] * 4, "kd": [11.0] * 4, "target": [6.0, 0.0, 0.0, 0.0]}),
}


@pytest.mark.parametrize("case", list(RUN_REJECTS))
def test_validate_rejects_what_run_rejects(tmp_path, capsys, case):
    path = _write(tmp_path, _replica(RUN_REJECTS[case]))
    assert main(["validate", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"error: {path}: " in err
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == err
    assert not out.exists()


# a file that cannot be read or written exits 3 naming it, not with a traceback
def _config_is_a_directory(tmp):
    return ["validate", str(tmp)], f"{tmp}: Is a directory"


def _config_not_utf8(tmp):
    path = tmp / "latin1.json"
    path.write_bytes('{"name": "caf\xe9"}'.encode("latin-1"))
    return ["validate", str(path)], f"{path}: 'utf-8' codec can't decode byte 0xe9"


def _out_is_a_file(tmp):
    out = tmp / "taken"
    out.write_text("")
    return (["run", "paper_replica", "--duration", "0.01", "--out", str(out)],
            f"{out}: File exists")


@pytest.mark.parametrize("case", [_config_is_a_directory, _config_not_utf8, _out_is_a_file],
                         ids=lambda case: case.__name__[1:])
def test_file_errors_exit_3(tmp_path, capsys, case):
    argv, message = case(tmp_path)
    assert main(argv) == EXIT_CONFIG
    assert f"error: {message}" in capsys.readouterr().err


# -- run -----------------------------------------------------------------------

@pytest.mark.parametrize("flag", ["--duration", "--tau"])
def test_non_finite_overrides_exit_3(tmp_path, capsys, flag):
    # an infinite duration or cycle time would ask for an unbounded cycle count
    rc = main(["run", "paper_replica", "--out", str(tmp_path / "out"), flag, "inf"])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{flag[2:]} must be positive and finite, got inf" in err
    assert not (tmp_path / "out").exists()


def test_run_writes_log_and_summary(tmp_path, capsys):
    rc = main(["run", "push_at_floor", "--out", str(tmp_path),
               "--duration", "0.5"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "500 cycles" in out
    ticks = (tmp_path / "ticks.csv").read_text().splitlines()
    assert len(ticks) == 501  # header + one row per cycle
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["scenario"] == "push_at_floor"
    assert summary["n_ticks"] == 500
    assert summary["fault"] is None


def test_zero_budget_later_region_runs_in_deficit(tmp_path, capsys):
    # the second region's budget underflows to 0 J: its floor is the tank's
    # capacity, a tightening switch like any other
    doc = _doc(regions={"zone": {"e_max_override": 0.5},
                        "zero": {"f_max": 1e-170, "k": 1, "stiffness_unit": "N/m"}},
               schedule=[{"t": 0.0, "region": "zone"}, {"t": 0.5, "region": "zero"}],
               duration=0.6)
    path = _write(tmp_path, doc)
    assert main(["validate", path]) == EXIT_OK
    assert main(["run", path, "--out", str(tmp_path)]) == EXIT_OK
    assert len((tmp_path / "ticks.csv").read_text().splitlines()) == 601
    segments = json.loads((tmp_path / "summary.json").read_text())["segments"]
    assert [seg["region"] for seg in segments] == ["zone", "zero"]
    assert segments[1]["energy_bound"] == 0.0


def test_overrides_change_the_cycle_count(tmp_path):
    rc = main(["run", "push_at_floor", "--out", str(tmp_path),
               "--tau", "0.002", "--duration", "0.1"])
    assert rc == EXIT_OK
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["n_ticks"] == 50
    assert summary["tau"] == pytest.approx(0.002)


def test_faulting_run_exits_2_with_partial_log(tmp_path, capsys):
    doc = _doc(
        plant={"type": "cartesian", "inertia": [[2.0]], "x0": [0.0], "v0": [0.1]},
        controller={"kp": [0.0], "kd": [0.0], "target": [0.0]},
        regions={"tight": {"e_max_override": 0.02}},
        schedule=[{"t": 0.0, "region": "tight"}],
        tank={"t_initial": 0.51},
        wrench_script=[{"t_start": 0.5, "t_end": 1.0, "force": [200.0]}],
        duration=1.0)
    rc = main(["run", _write(tmp_path, doc), "--out", str(tmp_path)])
    assert rc == EXIT_FAULT
    assert "FAULT (emergency)" in capsys.readouterr().err
    assert len((tmp_path / "ticks.csv").read_text().splitlines()) == 501
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["fault"] == "emergency"


def test_non_finite_command_is_an_integration_fault(tmp_path, capsys, caplog):
    # every number is finite, but the PD force overflows on the first cycle
    doc = _replica(lambda doc: doc["controller"].update(kp=[1e308, 1e308]))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["run", _write(tmp_path, doc), "--out", str(out)])
    # the fault line explains the end of the run; numpy adds nothing to it
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert rc == EXIT_FAULT
    assert "FAULT (integration) after 1 cycles" in capsys.readouterr().err
    assert "integration fault at cycle 0: wrench entries must be finite" in caplog.text
    assert len((out / "ticks.csv").read_text().splitlines()) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["fault"] == "integration"
    assert summary["n_ticks"] == 1


def test_run_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["run", "push_at_floor", "--out", str(out),
                     "--duration", "0.3"]) == EXIT_OK
    assert (a / "ticks.csv").read_bytes() == (b / "ticks.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


# -- iso -----------------------------------------------------------------------

def test_iso_table_matches_the_library(capsys):
    rc = main(["iso", "--fmax", "140", "--k", "25", "--k-unit", "N/mm",
               "--mh", "40", "--mr", "8"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    region = BodyRegion(name="chest", f_max=140.0, k=25000.0, m_h=40.0)
    for value in (max_energy(region), reduced_mass(40.0, 8.0),
                  v_max(region, 8.0, "quasi_static"), v_max(region, 8.0, "transient")):
        assert f"{value:.6g}" in out


def test_iso_units_only_change_the_echo_line(capsys):
    main(["iso", "--fmax", "140", "--k", "25", "--k-unit", "N/mm",
          "--mh", "40", "--mr", "8"])
    table_mm = capsys.readouterr().out.splitlines()[1:]
    main(["iso", "--fmax", "140", "--k", "25000", "--k-unit", "N/m",
          "--mh", "40", "--mr", "8"])
    table_m = capsys.readouterr().out.splitlines()[1:]
    assert table_mm == table_m


def test_iso_sweep_emits_exact_csv(capsys):
    rc = main(["iso", "--fmax", "140", "--k", "25", "--k-unit", "N/mm",
               "--mh", "40", "--sweep-mr", "4:12:4"])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "m_r,mu,v_max_quasi_static,v_max_transient"
    assert len(lines) == 4
    region = BodyRegion(name="chest", f_max=140.0, k=25000.0, m_h=40.0)
    row = lines[2].split(",")
    assert float(row[0]) == 8.0
    assert float(row[1]) == reduced_mass(40.0, 8.0)
    assert float(row[2]) == v_max(region, 8.0, "quasi_static")
    assert float(row[3]) == v_max(region, 8.0, "transient")


def test_iso_needs_a_robot_mass(capsys):
    rc = main(["iso", "--fmax", "140", "--k", "25", "--k-unit", "N/mm",
               "--mh", "40"])
    assert rc == EXIT_CONFIG
    assert "--mr" in capsys.readouterr().err


def test_iso_rejects_bad_sweeps(capsys):
    base = ["iso", "--fmax", "140", "--k", "25", "--k-unit", "N/mm", "--mh", "40"]
    assert main(base + ["--sweep-mr", "12:4:1"]) == EXIT_CONFIG
    assert main(base + ["--sweep-mr", "1:2"]) == EXIT_CONFIG
    assert main(base + ["--sweep-mr", "a:b:c"]) == EXIT_CONFIG
    # non-finite bounds or steps ask for an unbounded sweep
    for sweep in ("1:inf:1", "1:2:inf", "nan:2:1", "1:2:nan"):
        assert main(base + ["--sweep-mr", sweep]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""  # no CSV header before the error
        assert "--sweep-mr needs finite" in captured.err
    # finite bounds whose point count overflows, or is merely huge, are refused
    # before anything is allocated
    for sweep in ("1:1e300:1e-300", "1:1e9:1e-3"):
        assert main(base + ["--sweep-mr", sweep]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--sweep-mr gives more than 1000000 points" in captured.err


def test_iso_rejects_nonphysical_region(capsys):
    # an infinite k printed E_max 0 J, an infinite f_max E_max inf
    for fmax, k in (("-1", "25"), ("inf", "25"), ("140", "inf"), ("nan", "25")):
        rc = main(["iso", "--fmax", fmax, "--k", k, "--k-unit", "N/mm",
                   "--mh", "40", "--mr", "8"])
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be positive and finite" in captured.err


# -- argument plumbing ---------------------------------------------------------

def test_bad_flags_exit_3():
    with pytest.raises(SystemExit) as ei:
        main(["iso", "--nonsense"])
    assert ei.value.code == EXIT_CONFIG
    with pytest.raises(SystemExit) as ei:
        main([])
    assert ei.value.code == EXIT_CONFIG


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "pfltank", "validate",
                           "budget_starved"], capture_output=True, text=True)
    assert proc.returncode == EXIT_OK
    assert proc.stdout.startswith("OK: budget_starved")
