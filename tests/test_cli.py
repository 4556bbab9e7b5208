import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pfltank import cli
from pfltank.cli import EXIT_CONFIG, EXIT_FAULT, EXIT_OK, load_scenario, main
from pfltank.iso15066 import BodyRegion, max_energy, reduced_mass, v_max

from oracles import REFUSED_REGION_NAMES

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
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # a document may hold an integer of any length
    try:
        path.write_text(json.dumps(doc))
    finally:
        sys.set_int_max_str_digits(limit)
    return str(path)


def _arm(**over) -> dict:
    """A planar-arm plant document, the bundled arm's values updated by over."""
    return {"type": "planar_arm", "l1": 0.5, "l2": 0.5, "m1": 4.0, "m2": 4.0,
            "q0": [0.3, 1.2], "qd0": [0.0, 0.0], **over}


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
        cases.append(("plant", key, _doc(plant=_arm(**{key: 1.0}))))
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


# each site's keys, and the argument its constructor names after the path of
# the object it builds (the Scenario, which takes damper_band, has none)
NON_FINITE_SITES = {
    "controller.kp": (("controller", "kp", 0), "controller: kp[0]"),
    "controller.target": (("controller", "target", 0), "controller: target[0]"),
    "controller.damper_band": (("controller", "damper_band"), "damper_band"),
    "plant.x0": (("plant", "x0", 0), "plant: x0[0]"),
    "plant.inertia": (("plant", "inertia", 0, 0), "plant: inertia[0][0]"),
    "wrench_script[0].force": (("wrench_script", 0, "force", 0), "wrench_script[0]: force[0]"),
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("path", list(NON_FINITE_SITES))
def test_non_finite_numbers_rejected(tmp_path, capsys, path, value):
    # json.dumps writes NaN and Infinity literals, which json.loads accepts
    doc = _doc(wrench_script=[{"t_start": 0.0, "t_end": 0.1, "force": [1.0]}])
    keys, argument = NON_FINITE_SITES[path]
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    assert main(["validate", _write(tmp_path, doc)]) == EXIT_CONFIG
    assert capsys.readouterr().err.endswith(
        f"scenario.json: {argument} must be a finite number, got {value!r}\n")


@pytest.mark.parametrize("plant", [
    {"type": "cartesian", "inertia": [[1.0, 2.0], [2.0, 1.0]],
     "x0": [0.0, 0.0], "v0": [0.0, 0.0]},
    _arm(l1=-0.5),
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


# documents each of which validate and run both reject with one line, naming
# the file: the edit of paper_replica and the message after the file's name
RUN_REJECTS = {
    "below_one_cycle": (lambda doc: doc.update(duration=0.0004),
                        "duration must cover at least one cycle and finitely many, "
                        "got 0.0004 s at tau = 0.001 s"),
    "overflowing_cycle_count": (lambda doc: doc.update(tau=1e-320),
                                "duration must cover at least one cycle and finitely many, "
                                "got 10.0 s at tau = 1e-320 s"),
    # 2 J of kinetic energy against the 1.6 J chest budget
    "start_over_budget": (lambda doc: doc["plant"].update(v0=[1.0, 0.0]),
                          "initial tank energy 5.0 is below the floor 5.4"),
    # a removed key, refused by both before anything runs
    "negative_feasibility_margin": (
        lambda doc: doc["controller"].update(feasibility_margin=-1.0),
        "controller: unknown keys ['feasibility_margin']"),
    "negative_damper_band": (lambda doc: doc["controller"].update(damper_band=-1.0),
                             "damper band must be non-negative and finite, got -1.0"),
    # axis counts that disagree with the plant; the Scenario checks them
    "gain_lengths": (lambda doc: doc["controller"].update(
        kp=[8.0] * 3, kd=[11.0] * 3, target=[6.0, 0.0, 0.0]),
        "kp, kd and target need one entry per plant axis (2), got 3"),
    "wrench_force_length": (lambda doc: doc.update(wrench_script=[
        {"t_start": 0.5, "t_end": 1.0, "force": [1.0, 0.0, 0.0]}]),
        "wrench_script[0].force needs one entry per plant axis (2), got 3"),
    # each push is finite but their sum on [0.2, 0.3) s is not; run used to
    # warn from numpy and end in an integration fault at cycle 200
    "wrench_sum_overflows": (lambda doc: doc.update(wrench_script=[
        {"t_start": 0.1, "t_end": 0.3, "force": [1e308, 0.0]},
        {"t_start": 0.2, "t_end": 0.4, "force": [1e308, 0.0]}]),
        "wrench_script: the forces active at t = 0.2 s sum to a non-finite wrench"),
    # a finite floor sizes a tank of 1e308 J, whose x_t = sqrt(2 T) is inf;
    # run used to exit 2 with "tank update is not finite" at cycle 1
    "tank_charge_overflows": (lambda doc: doc.update(tank={"epsilon_initial": 1e308}),
                              "tank charge 1e+308 J with 0.0 J of kinetic energy overflows: "
                              "sqrt(2 T) or T + H is not finite"),
    "four_axes": (lambda doc: doc.update(
        plant={"type": "cartesian", "inertia": np.eye(4).tolist(),
               "x0": [0.0] * 4, "v0": [0.0] * 4},
        controller={"kp": [8.0] * 4, "kd": [11.0] * 4, "target": [6.0, 0.0, 0.0, 0.0]}),
        "plant: at most 3 axes are supported, got 4"),
    # the inverse of a positive-definite 1e-310 is inf, so run used to fault
    # at cycle 0 with "non-finite plant state", even at rest
    "inertia_inverse_overflows": (
        lambda doc: doc["plant"].update(inertia=[[1e-310, 0.0], [0.0, 1e-310]]),
        "plant: inertia must have a finite inverse"),
    # arms that built but could not step: the tank refused the first with the
    # misleading "initial kinetic energy ... got nan"; with the second, M is
    # singular, validate exited 0 and run exited 2 at cycle 1, warning from numpy
    "arm_model_overflows": (lambda doc: doc.update(plant=_arm(l1=1e300, l2=1e300)),
                            "plant: the arm's model overflows at these link lengths and masses"),
    "arm_mass_matrix_singular": (
        lambda doc: doc.update(plant=_arm(m1=5e-324, m2=5e-324, q0=[2.0, 0.5])),
        "plant: the arm's mass matrix must be positive definite at every elbow angle, "
        "with det M above 1e-9 M11 M22"),
    # numbers a float cannot hold: the 401-digit integer used to end in an
    # OverflowError traceback, the 5001-digit one in json's ValueError; each
    # now reads as 1e400 does
    "integer_past_the_float_range": (lambda doc: doc["controller"].update(kp=[10**400, 8.0]),
                                     "controller: kp[0] must be a finite number, got inf"),
    "integer_past_the_digit_limit": (lambda doc: doc.update(duration=10**5000),
                                     "duration must be a finite number, got inf"),
    # finitely many cycles, but a log numpy cannot size: validate printed the
    # count and exited 0, run died in np.arange
    "log_past_the_largest_array": (
        lambda doc: doc.update(duration=1e300),
        "duration 1e+300 s at tau = 0.001 s needs a tick log of more than "
        f"{np.iinfo(np.intp).max} bytes"),
    # half of it rounds to 0 kg: validate exited 0, and run refused the mass
    # only after the whole run, writing no summary.json
    "subnormal_moving_mass": (
        lambda doc: doc.update(iso_comparison={"moving_mass": 5e-324}),
        "iso_comparison: the effective mass 0.5 moving_mass + payload must be positive "
        "and finite, got 0.0 kg"),
    # mu k = 0.05 * 5e-324 rounds to 0: validate exited 0, and run warned from
    # numpy and wrote speed limits of inf
    "iso_limits_not_finite": (
        lambda doc: (doc["regions"].update(chest={
            "f_max": 1e-160, "k": 5e-324, "stiffness_unit": "N/m", "m_h": 0.1,
            "e_max_override": 1.6}), doc.update(iso_comparison={"moving_mass": 0.2})),
        "region 'chest': the speed limits at m_r = 0.1 kg must be positive and finite, "
        "got (inf, inf)"),
    # values the loader hands on and a constructor refuses, naming its argument
    "tau_not_a_number": (lambda doc: doc.update(tau="1 ms"),
                         "tau must be a finite number, got '1 ms'"),
    "empty_gain_list": (lambda doc: doc["controller"].update(kp=[]),
                        "controller: kp, kd and target must have matching lengths"),
    "short_inertia_row": (lambda doc: doc["plant"].update(inertia=[[4.0, 0.0], [4.0]]),
                          "plant: inertia[1] must have length 2, got 1"),
    "stiffness_unit_without_k": (
        lambda doc: doc["regions"].update(
            shoulders={"stiffness_unit": "N/mm", "e_max_override": 2.5}),
        "regions.shoulders: stiffness_unit given without k"),
    "inertia_not_rows": (lambda doc: doc["plant"].update(inertia=4.0),
                         "plant: inertia must be a non-empty sequence of rows, got a float"),
    # the loader's own refusals, one per line of cli.py that raises them
    "unknown_plant_type": (lambda doc: doc["plant"].update(type="scara"),
                           "plant.type: expected 'cartesian' or 'planar_arm', got 'scara'"),
    "no_regions": (lambda doc: doc.update(regions={}),
                   "regions: expected a non-empty mapping"),
    "empty_schedule": (lambda doc: doc.update(schedule=[]),
                       "schedule: expected a non-empty list"),
    # a number, null or a bool ended in "TypeError: ... is not iterable"; a
    # string or an object was iterated and refused as "wrench_script[0]"
    **{f"wrench_script_{label}": (lambda doc, value=value: doc.update(wrench_script=value),
                                  "wrench_script: expected a list")
       for label, value in (("number", 1), ("null", None), ("negative_zero", -0.0),
                            ("bool", True), ("string", "push"), ("object", {}))},
    # 0.5 v0 Lambda v0 overflows at 4 kg, as 0.5 qd0 M qd0 does for the arm:
    # each printed numpy's overflow warning before this line, and later the
    # controller refused the plant's energy as its h_initial.  Each plant's
    # constructor refuses its initial twist, by the plant's own argument name
    "cartesian_energy_overflows": (lambda doc: doc["plant"].update(v0=[1e200, 0.0]),
                                   "plant: xdot0 must give a finite kinetic energy, got inf"),
    "arm_energy_overflows": (lambda doc: doc.update(plant=_arm(qd0=[1e308, 0.0])),
                             "plant: qdot0 must give a finite kinetic energy, got inf"),
    # (2 f_max)^2 / (2 k) overflows: the tank's floor check refused it as a
    # region needing inf J of budget
    "region_energy_overflows": (
        lambda doc: doc["regions"].update(chest={
            "f_max": 140.0, "k": 5e-324, "stiffness_unit": "N/m", "m_h": 40.0}),
        "schedule: region 'chest': the energy limit (transient_multiplier f_max)^2 / (2 k) "
        "must be positive and finite, got inf J"),
    # (2e-170)^2 / 2 rounds to 0 J: validate and run took it as a 0 J budget,
    # where a quoted e_max_override of 0 is refused
    "region_energy_underflows": (
        lambda doc: doc["regions"].update(shoulders={
            "f_max": 1e-170, "k": 1, "stiffness_unit": "N/m"}),
        "schedule: region 'shoulders': the energy limit (transient_multiplier f_max)^2 / (2 k) "
        "must be positive and finite, got 0.0 J"),
}


def _rejected_by_validate_and_run(tmp_path, capsys, path, message):
    """validate and run both exit 3 with the same one line naming the file."""
    assert main(["validate", path]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("case", list(RUN_REJECTS))
def test_validate_rejects_what_run_rejects(tmp_path, capsys, case):
    edit, message = RUN_REJECTS[case]
    _rejected_by_validate_and_run(tmp_path, capsys, _write(tmp_path, _replica(edit)), message)


def test_run_refuses_a_tau_whose_log_numpy_cannot_size(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "paper_replica", "--tau", "1e-300", "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: duration 10.0 s at tau = 1e-300 s needs a tick log of more than "
        f"{np.iinfo(np.intp).max} bytes\n")
    assert not out.exists()


@pytest.mark.parametrize("text", ["[]", '"paper_replica"', "1", "null"])
def test_a_document_that_is_not_an_object_exits_3(tmp_path, capsys, text):
    path = tmp_path / "scenario.json"
    path.write_text(text)
    _rejected_by_validate_and_run(tmp_path, capsys, str(path),
                                  "scenario document must be a JSON object")


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


def _ticks_csv_is_a_directory(tmp):
    (tmp / "ticks.csv").mkdir()
    return (["run", "paper_replica", "--duration", "0.01", "--out", str(tmp)],
            f"{tmp / 'ticks.csv'}: Is a directory")


@pytest.mark.parametrize("case", [_config_is_a_directory, _config_not_utf8, _out_is_a_file,
                                  _ticks_csv_is_a_directory],
                         ids=lambda case: case.__name__[1:])
def test_file_errors_exit_3(tmp_path, capsys, case):
    argv, message = case(tmp_path)
    assert main(argv) == EXIT_CONFIG
    assert f"error: {message}" in capsys.readouterr().err


def test_a_log_that_cannot_be_written_exits_3(tmp_path, capsys):
    # the helper that writes ticks.csv may write 100 kB here, and 1 s of
    # paper_replica takes 190 kB: no summary, and no file left behind
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (100_000, hard))
    try:
        rc = main(["run", "paper_replica", "--duration", "1", "--out", str(tmp_path)])
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {tmp_path / 'ticks.csv'}: File too large\n"
    assert list(tmp_path.iterdir()) == []


def test_bundled_scenario_wins_over_a_directory_of_its_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "paper_replica").mkdir()
    assert main(["validate", "paper_replica"]) == 0
    assert capsys.readouterr().out.startswith("OK: paper_replica ")


@pytest.mark.parametrize("edit, message", [
    # BodyRegion's name rule refuses it, as it refuses every unprintable name
    (lambda doc: doc.update(regions={"a\ud800": {"e_max_override": 0.5}},
                            schedule=[{"t": 0.0, "region": "a\ud800"}]),
     "a region name must be a non-empty printable string without ',' or '\"', "
     "got 'a\\ud800'"),
    (lambda doc: doc.update(name="a\ud800"),
     "a scenario name must be a non-empty printable string, got 'a\\ud800'"),
], ids=["region", "scenario"])
def test_names_that_do_not_encode_as_utf8_exit_3(tmp_path, capsys, edit, message):
    # a JSON escape can spell a lone surrogate, which ticks.csv and the
    # console cannot hold; run used to die writing ticks.csv
    doc = _doc()
    edit(doc)
    path = _write(tmp_path, doc)
    out = tmp_path / "out"
    for argv in (["validate", path], ["run", path, "--out", str(out)]):
        assert main(argv) == EXIT_CONFIG
        assert message in capsys.readouterr().err
    assert not out.exists()


def test_a_forged_name_exits_3_and_prints_no_ok_line(tmp_path, capsys):
    # a line break in the name used to print a second, forged "OK:" line
    path = _write(tmp_path, _doc(name="fake\nOK: paper_replica"))
    out = tmp_path / "out"
    for argv in (["validate", path], ["run", path, "--out", str(out)]):
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"error: {path}: a scenario name must be a non-empty printable string, "
                "got 'fake\\nOK: paper_replica'") in captured.err
    assert not out.exists()


_STR_NAMES = {i: name for i, name in REFUSED_REGION_NAMES.items() if isinstance(name, str)}


@pytest.mark.parametrize("name", list(_STR_NAMES.values()), ids=list(_STR_NAMES))
def test_region_names_outside_the_rule_exit_3(tmp_path, capsys, name):
    # BodyRegion checks the name; a JSON key is always a string
    path = _write(tmp_path, _doc(regions={name: {"e_max_override": 0.5}},
                                 schedule=[{"t": 0.0, "region": name}]))
    assert main(["validate", path]) == EXIT_CONFIG
    assert f"got {name!r}" in capsys.readouterr().err


# -- run -----------------------------------------------------------------------

@pytest.mark.parametrize("flag, message", [
    ("--duration", "duration must be a finite number, got inf"),
    ("--tau", "tau must be a finite number, got inf"),
], ids=["--duration", "--tau"])
def test_non_finite_overrides_exit_3(tmp_path, capsys, flag, message):
    # an infinite duration or cycle time would ask for an unbounded cycle count
    rc = main(["run", "paper_replica", "--out", str(tmp_path / "out"), flag, "inf"])
    assert rc == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_log_too_large_for_memory_exits_3(tmp_path, capsys, monkeypatch):
    # run() allocates the log's columns for every cycle before the first
    # one, so an absurd duration fails there; stood in for by a raising run
    def out_of_memory(scenario, ticks_csv=None):
        raise MemoryError

    monkeypatch.setattr(cli, "run", out_of_memory)
    rc = main(["run", "paper_replica", "--out", str(tmp_path), "--duration", "1e12"])
    assert rc == EXIT_CONFIG
    assert ("error: paper_replica: the log of 1000000000000000 cycles does not fit "
            "in memory") in capsys.readouterr().err


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


def test_a_run_that_logs_no_tick_leaves_no_log_behind(tmp_path, capsys):
    # a ticks.csv an earlier run left in --out would pass for this run's log
    out = str(tmp_path / "out")
    assert main(["run", "paper_replica", "--out", out, "--duration", "0.05"]) == EXIT_OK
    # 1 J of motion, a budget 1e-4 J above it and no damper band: the 100 N
    # push feeds the robot 100 W, which the tank cannot book on cycle 0
    doc = _doc(
        plant={"type": "cartesian", "inertia": [[2.0]], "x0": [0.0], "v0": [1.0]},
        controller={"kp": [0.0], "kd": [0.0], "target": [0.0], "damper_band": 0.0},
        regions={"zone": {"e_max_override": 1.0001}},
        tank={"t_initial": 1.0},
        wrench_script=[{"t_start": 0.0, "t_end": 1.0, "force": [100.0]}])
    path = _write(tmp_path, doc)
    capsys.readouterr()
    for _ in range(2):  # a leftover log, then none
        assert main(["run", path, "--out", out]) == EXIT_FAULT
        err = capsys.readouterr().err
        assert "tiny: FAULT (emergency) after 0 cycles; no tick logged\n" in err
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["summary.json"]
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary == {"scenario": "tiny", "n_ticks": 0, "fault": "emergency"}


def test_non_finite_command_is_an_integration_fault(tmp_path, capsys, caplog):
    # every number is finite, but the PD force overflows on the first cycle.
    # run() does not test the command: the plant multiplies it by its inverse
    # inertia, so the plant's new state is non-finite on that same cycle and
    # the plant's state check, the loop's only finiteness check, ends the run
    doc = _replica(lambda doc: doc["controller"].update(kp=[1e308, 1e308]))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["run", _write(tmp_path, doc), "--out", str(out)])
    # the fault line explains the end of the run; numpy adds nothing to it
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert rc == EXIT_FAULT
    assert "FAULT (integration) after 1 cycles" in capsys.readouterr().err
    assert "integration fault at cycle 0: non-finite plant state" in caplog.text
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
                  v_max(region, 8.0)[0], v_max(region, 8.0)[1]):
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
    assert float(row[2]) == v_max(region, 8.0)[0]
    assert float(row[3]) == v_max(region, 8.0)[1]


@pytest.mark.parametrize("mass", [["--mr", "5e-324"], ["--sweep-mr", "5e-324:1e-323:5e-324"]],
                         ids=["mr", "sweep_mr"])
def test_iso_refuses_a_subnormal_robot_mass(capsys, mass):
    # 1 / 5e-324 is inf, so mu was 0.0 and v_max inf, after numpy's
    # divide-by-zero warnings, with exit 0
    rc = main(["iso", "--fmax", "140", "--k", "25", "--k-unit", "N/mm", "--mh", "40", *mass])
    assert rc == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: masses must give a positive finite reduced mass, "
                            "got m_h=40.0, m_r=5e-324\n")


_ISO_ARGV = ["iso", "--fmax", "140", "--k", "25", "--k-unit", "N/mm", "--mh", "40", "--mr", "8"]


@pytest.mark.parametrize("option, value, limits", [
    ("--fmax", "1e308", "(2.449489742783178e+305, inf)"),
    ("--fmax", "5e-324", "(0.0, 0.0)"),
    ("--transient-mult", "1e308", "(0.3429285639896449, inf)"),
], ids=["fmax_overflows", "fmax_rounds_to_zero", "multiplier_overflows"])
def test_iso_refuses_speed_limits_that_are_not_positive_and_finite(capsys, option, value,
                                                                   limits):
    assert main([*_ISO_ARGV, f"{option}={value}"]) == EXIT_CONFIG
    assert capsys.readouterr().err == ("error: region 'cli': the speed limits at m_r = 8.0 kg "
                                       f"must be positive and finite, got {limits}\n")


# (2 f_max)^2 / (2 k) is inf at a subnormal k, NaN where (2 f_max)^2 and
# 2 k both overflow, and 0 where it underflows: iso printed E_max inf, nan or
# 0 J (beside a positive v_max) and exited 0
@pytest.mark.parametrize("fmax, k, masses, e_max", [
    ("140", "5e-324", ["--mh", "40", "--mr", "8"], "inf"),
    ("1e200", "1.5e308", ["--mh", "0.5", "--mr", "0.5"], "nan"),
    ("1e-200", "1e200", ["--mh", "40", "--mr", "8"], "0.0"),
], ids=["inf", "nan", "zero"])
def test_iso_refuses_an_energy_limit_that_overflows(capsys, fmax, k, masses, e_max):
    assert main(["iso", "--fmax", fmax, "--k", k, "--k-unit", "N/m", *masses]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: region 'cli': the energy limit (transient_multiplier f_max)^2 "
                            f"/ (2 k) must be positive and finite, got {e_max} J\n")


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
    for fmax, k, rule in (("-1", "25", "f_max must be positive and finite, got -1.0"),
                          ("inf", "25", "f_max must be a finite number, got inf"),
                          ("140", "inf", "k must be a finite number, got inf"),
                          ("nan", "25", "f_max must be a finite number, got nan")):
        rc = main(["iso", "--fmax", fmax, "--k", k, "--k-unit", "N/mm",
                   "--mh", "40", "--mr", "8"])
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: region 'cli': {rule}\n"


# -- extreme numbers -------------------------------------------------------------

# integers of 300 to 5,000 digits, the ends of the float range, the smallest
# subnormal, 0 and -1, each as a JSON value and as command-line text (str()
# writes no int past 4,300 digits)
_EXTREMES = (st.integers(300, 5000).map(lambda d: (10 ** (d - 1), "1" + "0" * (d - 1)))
             | st.sampled_from([(v, repr(v)) for v in (1e308, -1e308, 5e-324, 0, -1)]))


def _bundled(name: str) -> dict:
    """A bundled document cut to 0.02 s, so that a run of it takes 20 cycles."""
    doc = json.loads(resources.files("pfltank").joinpath("scenarios", f"{name}.json")
                     .read_text())
    doc["duration"] = 0.02
    return doc


def _quietly(argv) -> int:
    """main(argv)'s exit code, checked to come with no warning and no
    traceback; its output is dropped."""
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("always")
        code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    assert "Traceback" not in err.getvalue()
    return code


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(name=st.sampled_from(BUNDLED), leaf=st.sampled_from(["tau", "duration", "moving_mass"]),
       extreme=_EXTREMES, option=st.sampled_from(["--fmax", "--k", "--mh", "--mr",
                                                  "--transient-mult"]),
       iso_extreme=_EXTREMES)
def test_extreme_numbers_exit_0_2_or_3_without_a_traceback_or_warning(name, leaf, extreme,
                                                                       option, iso_extreme):
    doc = _bundled(name)
    if leaf == "moving_mass":
        doc.setdefault("iso_comparison", {})["moving_mass"] = extreme[0]
    else:
        doc[leaf] = extreme[0]
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp), doc)
        assert _quietly(["validate", path]) in (EXIT_OK, EXIT_FAULT, EXIT_CONFIG)
        argv = ["run", path, "--out", str(Path(tmp) / "out")]
        assert _quietly(argv) in (EXIT_OK, EXIT_FAULT, EXIT_CONFIG)
    # "=" keeps argparse from reading -1e308 as an option
    assert _quietly([*_ISO_ARGV, f"{option}={iso_extreme[1]}"]) in (EXIT_OK, EXIT_FAULT,
                                                                    EXIT_CONFIG)


# -- documents of any shape -----------------------------------------------------

# what a mutation puts in place of a leaf or a container: each JSON type, an
# integer past the float range and the ends of it
_ANY_VALUE = st.sampled_from([None, True, False, "x", [], [0.5], {}, {"x": 0.5},
                              10 ** 399, 1e308, -1e308, 5e-324, -0.0])


def _paths(node, path=()):
    """The path of every object member and list entry below node."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield (*path, key)
        yield from _paths(child, (*path, key))


@st.composite
def _mutated_documents(draw):
    """A bundled document mutated once or twice.  A mutation replaces one
    member or entry by _ANY_VALUE, deletes it, puts a finite number in place
    of a number (a multiple of it, or 0 or 1, as an int or a float), or adds
    an unknown key to one of the document's objects."""
    doc = _bundled(draw(st.sampled_from(BUNDLED)))
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(doc))
        how = draw(st.sampled_from(["replace", "delete", "add", "number"]))
        if how == "add":
            objects = [()] + [path for path in paths if isinstance(_node(doc, path), dict)]
            _node(doc, draw(st.sampled_from(objects)))["unknown"] = draw(_ANY_VALUE)
            continue
        if how == "number":  # a bool is an int, but not a JSON number
            paths = [path for path in paths if type(_node(doc, path)) in (int, float)
                     and abs(_node(doc, path)) < 1e300]
        if not paths:
            continue
        *parent, key = draw(st.sampled_from(paths))
        if how == "number":
            value = _node(doc, parent)[key] * draw(st.sampled_from([0.5, 2, 10, -1]))
            value = draw(st.sampled_from([value, 0, 1]))
            _node(doc, parent)[key] = int(value) if draw(st.booleans()) else float(value)
        elif how == "replace":
            _node(doc, parent)[key] = draw(_ANY_VALUE)
        else:
            del _node(doc, parent)[key]
    return doc


def _node(doc, path):
    """The member or entry of doc at path."""
    for key in path:
        doc = doc[key]
    return doc


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(doc=_mutated_documents(), name=st.sampled_from(BUNDLED),
       option=st.sampled_from(["--tau", "--duration"]), extreme=_EXTREMES)
@example(doc=_replica(RUN_REJECTS["cartesian_energy_overflows"][0]), name="paper_replica",
         option="--tau", extreme=(0, "0"))
@example(doc=_replica(RUN_REJECTS["arm_energy_overflows"][0]), name="paper_replica",
         option="--duration", extreme=(1e308, "1e308"))
@example(doc=_replica(RUN_REJECTS["wrench_script_number"][0]), name="push_at_floor",
         option="--duration", extreme=(-1, "-1"))
def test_documents_of_any_shape_exit_0_2_or_3_without_a_traceback_or_warning(doc, name, option,
                                                                              extreme):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp), doc)
        assert _quietly(["validate", path]) in (EXIT_OK, EXIT_FAULT, EXIT_CONFIG)
        argv = ["run", path, "--out", str(Path(tmp) / "out")]
        assert _quietly(argv) in (EXIT_OK, EXIT_FAULT, EXIT_CONFIG)
        # "=" keeps argparse from reading -1e308 as an option
        argv = ["run", name, "--out", str(Path(tmp) / "override"), f"{option}={extreme[1]}"]
        assert _quietly(argv) in (EXIT_OK, EXIT_FAULT, EXIT_CONFIG)


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


@pytest.mark.parametrize("name", ["BASIC_FORMAT", "no_such_level"])
def test_a_log_name_that_is_not_a_level_falls_back_to_warning(name):
    # logging.BASIC_FORMAT exists but is a str, not a level
    proc = subprocess.run([sys.executable, "-m", "pfltank", "validate", "paper_replica"],
                          capture_output=True, text=True,
                          env={**os.environ, "PFLTANK_LOG": name})
    assert proc.returncode == EXIT_OK
    assert proc.stdout.startswith("OK: paper_replica")
    assert "Traceback" not in proc.stderr
