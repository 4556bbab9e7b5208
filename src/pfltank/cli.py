"""Command-line entry points.

Three subcommands: ``run`` executes a scenario JSON and writes ticks.csv plus
summary.json, ``iso`` prints the standard's limit quantities for one body
region, ``validate`` checks a scenario document without running it.

Exit codes are the machine contract: 0 clean, 2 controller fault during a
run, 3 configuration error.  The environment variable PFLTANK_LOG sets the
diagnostic verbosity (DEBUG, INFO, WARNING, ...).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from .energy_tank import DAMPER_BAND
from .errors import DomainError, _real
from .iso15066 import (
    BodyRegion,
    RobotMassSpec,
    max_energy,
    reduced_mass,
    robot_effective_mass,
    v_max,
)
from .robot_dynamics import CartesianPlant, PlanarArm
from .safety_controller import PdGains, RegionSchedule
from .sim_harness import Scenario, WrenchSegment, run, write_ticks_csv

__all__ = ["main", "load_scenario", "scenario_from_config"]

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_FAULT = 2
EXIT_CONFIG = 3

MAX_SWEEP_POINTS = 1_000_000

#: N/m per unit of contact stiffness, for the scenario's stiffness_unit and
#: iso's --k-unit.
STIFFNESS_UNITS = {"N/m": 1.0, "N/mm": 1000.0}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad arguments, which collides with the fault
    # exit code; bad command lines are configuration errors here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


# -- scenario document --------------------------------------------------------

def _mapping(value, path: str, keys: set | None = None) -> dict:
    """``value``, checked to be a JSON object with no keys outside ``keys``."""
    if not isinstance(value, dict):
        raise DomainError(f"{path}: expected a mapping")
    if keys is not None and not keys.issuperset(value):
        raise DomainError(f"{path}: unknown keys {sorted(set(value) - keys)}")
    return value


@contextmanager
def _at(path):
    """Prefix a constructor's DomainError with its document path, and turn a
    failure to read or write the file ``path`` into one."""
    try:
        yield
    except (DomainError, OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None


def _need(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise DomainError(f"{path}: missing required key {key!r}")
    return mapping[key]


def _region_from_config(name: str, cfg, path: str) -> BodyRegion:
    _mapping(cfg, path, {"f_max", "k", "stiffness_unit", "m_h",
                         "transient_multiplier", "e_max_override"})
    if "k" in cfg:
        unit = _need(cfg, "stiffness_unit", path)
        if not isinstance(unit, str) or unit not in STIFFNESS_UNITS:
            raise DomainError(f"{path}.stiffness_unit: expected "
                              f"{' or '.join(map(repr, STIFFNESS_UNITS))}, got {unit!r}")
    elif "stiffness_unit" in cfg:
        raise DomainError(f"{path}: stiffness_unit given without k")
    kwargs = {key: cfg[key] for key in ("f_max", "m_h", "transient_multiplier",
                                        "e_max_override") if key in cfg}
    with _at(path):
        if "k" in cfg:
            kwargs["k"] = _real(cfg["k"], "k") * STIFFNESS_UNITS[unit]
        return BodyRegion(name=name, **kwargs)


def _plant_from_config(cfg, path: str):
    """The plant at its initial state; the constructors check the values."""
    kind = _need(_mapping(cfg, path), "type", path)
    if kind == "cartesian":
        plant, keys = CartesianPlant, ("inertia", "x0", "v0")
    elif kind == "planar_arm":
        plant, keys = PlanarArm, ("l1", "l2", "m1", "m2", "q0", "qd0")
    else:
        raise DomainError(f"{path}.type: expected 'cartesian' or 'planar_arm', got {kind!r}")
    _mapping(cfg, path, {"type", *keys})
    args = [_need(cfg, key, path) for key in keys]
    with _at(path):
        return plant(*args)


def scenario_from_config(doc: dict, fallback_name: str = "scenario") -> Scenario:
    """Build a Scenario from a parsed JSON document.  The loader checks the
    document's shape (its objects and their keys, its lists and the regions
    the schedule names) and hands the values to the constructors, which check
    them; a constructor's error is prefixed with its document path."""
    if not isinstance(doc, dict):
        raise DomainError("scenario document must be a JSON object")
    _mapping(doc, "scenario", {"name", "plant", "controller", "regions", "schedule",
                               "tank", "wrench_script", "tau", "duration",
                               "iso_comparison"})

    plant = _plant_from_config(_need(doc, "plant", "scenario"), "plant")

    ctl = _mapping(_need(doc, "controller", "scenario"), "controller",
                   {"kp", "kd", "target", "damper_band"})
    args = [_need(ctl, key, "controller") for key in ("kp", "kd", "target")]
    with _at("controller"):
        gains = PdGains(*args)

    regions_doc = _need(doc, "regions", "scenario")
    if not isinstance(regions_doc, dict) or not regions_doc:
        raise DomainError("regions: expected a non-empty mapping")
    regions = {}
    for rname, rcfg in regions_doc.items():
        # BodyRegion checks the name; the path shows one that may not print by repr
        label = rname if rname.isprintable() else repr(rname)
        regions[rname] = _region_from_config(rname, rcfg, f"regions.{label}")

    sched_doc = _need(doc, "schedule", "scenario")
    if not isinstance(sched_doc, list) or not sched_doc:
        raise DomainError("schedule: expected a non-empty list")
    times, scheduled = [], []
    for i, entry in enumerate(sched_doc):
        path = f"schedule[{i}]"
        _mapping(entry, path, {"t", "region"})
        rname = _need(entry, "region", path)
        if not isinstance(rname, str) or rname not in regions:
            raise DomainError(f"{path}.region: {rname!r} is not defined under regions")
        times.append(_need(entry, "t", path))
        scheduled.append(regions[rname])
    with _at("schedule"):
        schedule = RegionSchedule(times, scheduled)

    script = doc.get("wrench_script", [])
    if not isinstance(script, list):
        raise DomainError("wrench_script: expected a list")
    wrench = []
    for i, entry in enumerate(script):
        path = f"wrench_script[{i}]"
        _mapping(entry, path, {"t_start", "t_end", "force"})
        args = [_need(entry, key, path) for key in ("t_start", "t_end", "force")]
        with _at(path):
            wrench.append(WrenchSegment(*args))
    tau, duration = (_need(doc, key, "scenario") for key in ("tau", "duration"))

    tank_doc = _mapping(_need(doc, "tank", "scenario"), "tank",
                        {"t_initial", "epsilon_initial"})
    if ("t_initial" in tank_doc) == ("epsilon_initial" in tank_doc):
        raise DomainError("tank: give exactly one of t_initial or epsilon_initial")
    if "t_initial" in tank_doc:
        t_initial = tank_doc["t_initial"]
    else:
        # size the tank so the first region's budget is exactly available;
        # the Scenario rejects the floor if it is under EPSILON_MIN
        with _at("tank"):
            eps1 = _real(tank_doc["epsilon_initial"], "epsilon_initial")
        t_initial = eps1 + schedule.energies[0] - plant.kinetic_energy

    iso_mass = None
    if "iso_comparison" in doc:
        iso_doc = _mapping(doc["iso_comparison"], "iso_comparison",
                           {"moving_mass", "payload"})
        args = (_need(iso_doc, "moving_mass", "iso_comparison"), iso_doc.get("payload", 0.0))
        with _at("iso_comparison"):
            iso_mass = RobotMassSpec(*args)

    return Scenario(name=doc.get("name", fallback_name), plant=plant, gains=gains,
                    schedule=schedule, t_initial=t_initial, wrench_script=tuple(wrench),
                    tau=tau, duration=duration, damper_band=ctl.get("damper_band", DAMPER_BAND),
                    iso_mass=iso_mass)


def _read_config_text(spec: str) -> tuple[str, str]:
    path = Path(spec)
    name = spec if spec.endswith(".json") else spec + ".json"
    res = resources.files(__package__).joinpath("scenarios", name)
    # a directory is never a scenario, so it does not hide a bundled namesake
    if path.exists() and not (path.is_dir() and res.is_file()):
        with _at(path):
            return path.read_text(encoding="utf-8"), str(path)
    if res.is_file():
        return res.read_text(), f"bundled scenario {name}"
    raise DomainError(f"no such file or bundled scenario: {spec!r}")


def _json_int(text: str):
    """A JSON integer as an int or, past 300 digits, as the float it spells:
    1 and 400 zeros reads as 1e400 does, as inf.  An int that long could not
    become a float, and past Python's 4300-digit limit would not parse."""
    return int(text) if len(text) <= 300 else float(text)


def load_scenario(spec: str) -> Scenario:
    """Load a scenario from a path or from the bundled scenario set."""
    text, origin = _read_config_text(spec)
    try:
        doc = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{origin}: invalid JSON: {exc}") from None
    with _at(origin):
        return scenario_from_config(doc, fallback_name=Path(origin).stem)


# -- subcommands ---------------------------------------------------------------

def cmd_run(args) -> int:
    scenario = load_scenario(args.config)
    overrides = {key: value for key in ("tau", "duration")
                 if (value := getattr(args, key)) is not None}
    if overrides:
        scenario = replace(scenario, **overrides)

    out_dir = Path(args.out)
    with _at(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    log.info("running scenario %s (%d cycles)", scenario.name, scenario.n_cycles)
    try:
        result = run(scenario)
    except MemoryError:
        # run() allocates the whole log's columns before the first cycle
        raise DomainError(f"{scenario.name}: the log of {scenario.n_cycles} cycles "
                          "does not fit in memory") from None

    ticks_path = out_dir / "ticks.csv"
    summary_path = out_dir / "summary.json"
    if result.ticks:
        with _at(ticks_path):
            write_ticks_csv(ticks_path, result.ticks)
        payload = result.summary.to_dict()
    else:  # a log an earlier run left in --out must not pass for this run's
        with _at(ticks_path):
            ticks_path.unlink(missing_ok=True)
        payload = {"scenario": scenario.name, "n_ticks": 0, "fault": result.fault}
    if result.discarded_energy:
        log.info("tank overflow discarded %.6g J", result.discarded_energy)
    with _at(summary_path), open(summary_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    if result.fault is not None:
        where = f"partial log in {ticks_path}" if result.ticks else "no tick logged"
        print(f"{scenario.name}: FAULT ({result.fault}) after {len(result.ticks)} "
              f"cycles; {where}", file=sys.stderr)
        return EXIT_FAULT
    print(f"{scenario.name}: {len(result.ticks)} cycles -> {ticks_path}, {summary_path}")
    return EXIT_OK


def _parse_sweep(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"--sweep-mr expects LO:HI:STEP, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise DomainError(f"--sweep-mr expects numbers, got {text!r}") from None
    if not (0 < lo <= hi < math.inf and 0 < step < math.inf):
        raise DomainError(f"--sweep-mr needs finite 0 < LO <= HI and STEP > 0, got {text!r}")
    # checked before anything is allocated; the quotient may be infinite
    span = (hi - lo) / step + 1e-12
    if not span < MAX_SWEEP_POINTS:
        raise DomainError(f"--sweep-mr gives more than {MAX_SWEEP_POINTS} points, "
                          f"got {text!r}")
    return lo + step * np.arange(math.floor(span) + 1)


def cmd_iso(args) -> int:
    k = args.k * STIFFNESS_UNITS[args.k_unit]
    region = BodyRegion(name="cli", f_max=args.fmax, k=k, m_h=args.mh,
                        transient_multiplier=args.transient_mult)
    if args.sweep_mr is not None:
        masses = _parse_sweep(args.sweep_mr)
        # mu rises and both limits fall with m_r, so where any point is
        # refused an end is, and it is refused before a line is printed
        for m_r in masses[[0, -1]].tolist():
            v_max(region, m_r)
        print("m_r,mu,v_max_quasi_static,v_max_transient")
        for m_r in masses.tolist():
            quasi_static, transient = v_max(region, m_r)
            print(f"{m_r!r},{reduced_mass(args.mh, m_r)!r},{quasi_static!r},{transient!r}")
        return EXIT_OK
    if args.mr is None:
        raise DomainError("iso: give --mr, or --sweep-mr for a range")
    quasi_static, transient = v_max(region, args.mr)
    rows = [
        ("E_max", max_energy(region), "J"),
        ("mu", reduced_mass(args.mh, args.mr), "kg"),
        ("v_max quasi-static", quasi_static, "m/s"),
        ("v_max transient", transient, "m/s"),
    ]
    print(f"f_max {args.fmax:g} N, k {args.k:g} {args.k_unit}, m_h {args.mh:g} kg, "
          f"m_r {args.mr:g} kg, transient x{args.transient_mult:g}")
    for label, value, unit in rows:
        print(f"{label:<22}{value:<16.6g}{unit}")
    return EXIT_OK


def cmd_validate(args) -> int:
    scenario = load_scenario(args.config)
    print(f"OK: {scenario.name} ({scenario.n_cycles} cycles, "
          f"{len(scenario.schedule.regions)} schedule segments, "
          f"tank {scenario.t_initial:g} J)")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="pfltank",
                     description="Energy-tank speed limiting for PFL collaboration")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write ticks.csv + summary.json")
    p_run.add_argument("config", help="scenario JSON path or bundled scenario name")
    p_run.add_argument("--out", default=".", help="output directory (default: .)")
    p_run.add_argument("--tau", type=float, default=None, help="override cycle time, s")
    p_run.add_argument("--duration", type=float, default=None, help="override run length, s")
    p_run.set_defaults(func=cmd_run)

    p_iso = sub.add_parser("iso", help="print PFL limit quantities for one region")
    p_iso.add_argument("--fmax", type=float, required=True, help="quasi-static force limit, N")
    p_iso.add_argument("--k", type=float, required=True, help="contact spring constant")
    p_iso.add_argument("--k-unit", choices=list(STIFFNESS_UNITS), required=True,
                       help="unit of --k")
    p_iso.add_argument("--mh", type=float, required=True, help="body-part mass, kg")
    p_iso.add_argument("--mr", type=float, default=None, help="robot effective mass, kg")
    p_iso.add_argument("--transient-mult", type=float, default=2.0,
                       help="transient force multiplier (default 2)")
    p_iso.add_argument("--sweep-mr", default=None, metavar="LO:HI:STEP",
                       help="emit a CSV sweep over robot mass instead of a table")
    p_iso.set_defaults(func=cmd_iso)

    p_val = sub.add_parser("validate", help="check a scenario document")
    p_val.add_argument("config", help="scenario JSON path or bundled scenario name")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    # only an int attribute of logging is a level (BASIC_FORMAT is a str)
    level = getattr(logging, os.environ.get("PFLTANK_LOG", "WARNING").upper(), None)
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING,
                        stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
