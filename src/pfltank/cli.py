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
from .errors import ConfigError, DomainError
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
        raise ConfigError(f"{path}: expected a mapping")
    if keys is not None and not keys.issuperset(value):
        raise ConfigError(f"{path}: unknown keys {sorted(set(value) - keys)}")
    return value


@contextmanager
def _at(path):
    """Prefix a constructor's ConfigError or DomainError with its document
    path, and turn a failure to read or write the file ``path`` into one."""
    try:
        yield
    except (ConfigError, DomainError, OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None


def _need(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"{path}: missing required key {key!r}")
    return mapping[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return value


def _vector(value, path: str, length: int | None = None) -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list of numbers")
    vec = tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(value))
    if length is not None and len(vec) != length:
        raise ConfigError(f"{path}: expected {length} entries, got {len(vec)}")
    return vec


def _region_from_config(name: str, cfg, path: str) -> BodyRegion:
    _mapping(cfg, path, {"f_max", "k", "stiffness_unit", "m_h",
                         "transient_multiplier", "e_max_override"})
    k = None
    if "k" in cfg:
        unit = _need(cfg, "stiffness_unit", path)
        if not isinstance(unit, str) or unit not in STIFFNESS_UNITS:
            raise ConfigError(f"{path}.stiffness_unit: expected "
                              f"{' or '.join(map(repr, STIFFNESS_UNITS))}, got {unit!r}")
        k = _number(cfg["k"], f"{path}.k") * STIFFNESS_UNITS[unit]
    elif "stiffness_unit" in cfg:
        raise ConfigError(f"{path}: stiffness_unit given without k")
    kwargs = {}
    for key in ("f_max", "m_h", "transient_multiplier", "e_max_override"):
        if key in cfg:
            kwargs[key] = _number(cfg[key], f"{path}.{key}")
    with _at(path):
        return BodyRegion(name=name, k=k, **kwargs)


def _plant_from_config(cfg, path: str):
    """The plant at its initial state; the constructors check the values."""
    kind = _need(_mapping(cfg, path), "type", path)
    if kind == "cartesian":
        _mapping(cfg, path, {"type", "inertia", "x0", "v0"})
        rows = _need(cfg, "inertia", path)
        if not isinstance(rows, list) or not rows:
            raise ConfigError(f"{path}.inertia: expected a list of rows")
        m = len(rows)
        args = ([_vector(r, f"{path}.inertia[{i}]", m) for i, r in enumerate(rows)],
                _vector(_need(cfg, "x0", path), f"{path}.x0"),
                _vector(_need(cfg, "v0", path), f"{path}.v0"))
        with _at(path):
            return CartesianPlant(*args)
    if kind == "planar_arm":
        _mapping(cfg, path, {"type", "l1", "l2", "m1", "m2", "q0", "qd0"})
        args = [_number(_need(cfg, key, path), f"{path}.{key}")
                for key in ("l1", "l2", "m1", "m2")]
        args += [_vector(_need(cfg, "q0", path), f"{path}.q0"),
                 _vector(_need(cfg, "qd0", path), f"{path}.qd0")]
        with _at(path):
            return PlanarArm(*args)
    raise ConfigError(f"{path}.type: expected 'cartesian' or 'planar_arm', got {kind!r}")


def scenario_from_config(doc: dict, fallback_name: str = "scenario") -> Scenario:
    """Build a Scenario from a parsed JSON document, validating strictly."""
    if not isinstance(doc, dict):
        raise ConfigError("scenario document must be a JSON object")
    _mapping(doc, "scenario", {"name", "plant", "controller", "regions", "schedule",
                               "tank", "wrench_script", "tau", "duration",
                               "iso_comparison"})
    name = doc.get("name", fallback_name)
    if not isinstance(name, str) or not name:
        raise ConfigError("scenario.name: expected a non-empty string")

    plant = _plant_from_config(_need(doc, "plant", "scenario"), "plant")

    ctl = _mapping(_need(doc, "controller", "scenario"), "controller",
                   {"kp", "kd", "target", "damper_band"})
    kp = _vector(_need(ctl, "kp", "controller"), "controller.kp")
    kd = _vector(_need(ctl, "kd", "controller"), "controller.kd")
    target = _vector(_need(ctl, "target", "controller"), "controller.target")
    with _at("controller"):
        gains = PdGains(kp=kp, kd=kd, target=target)
    damper_band = _number(ctl.get("damper_band", DAMPER_BAND), "controller.damper_band")

    regions_doc = _need(doc, "regions", "scenario")
    if not isinstance(regions_doc, dict) or not regions_doc:
        raise ConfigError("regions: expected a non-empty mapping")
    regions = {}
    for rname, rcfg in regions_doc.items():
        if not isinstance(rname, str) or not rname:
            raise ConfigError("regions: region names must be non-empty strings")
        regions[rname] = _region_from_config(rname, rcfg, f"regions.{rname}")

    sched_doc = _need(doc, "schedule", "scenario")
    if not isinstance(sched_doc, list) or not sched_doc:
        raise ConfigError("schedule: expected a non-empty list")
    times, scheduled = [], []
    for i, entry in enumerate(sched_doc):
        path = f"schedule[{i}]"
        _mapping(entry, path, {"t", "region"})
        rname = _need(entry, "region", path)
        if not isinstance(rname, str) or rname not in regions:
            raise ConfigError(f"{path}.region: {rname!r} is not defined under regions")
        times.append(_number(_need(entry, "t", path), f"{path}.t"))
        scheduled.append(regions[rname])
    with _at("schedule"):
        schedule = RegionSchedule(times, scheduled)

    wrench = []
    for i, entry in enumerate(doc.get("wrench_script", [])):
        path = f"wrench_script[{i}]"
        _mapping(entry, path, {"t_start", "t_end", "force"})
        t_start = _number(_need(entry, "t_start", path), f"{path}.t_start")
        t_end = _number(_need(entry, "t_end", path), f"{path}.t_end")
        force = _vector(_need(entry, "force", path), f"{path}.force")
        with _at(path):
            wrench.append(WrenchSegment(t_start=t_start, t_end=t_end, force=force))

    tau = _number(_need(doc, "tau", "scenario"), "tau")
    duration = _number(_need(doc, "duration", "scenario"), "duration")

    tank_doc = _mapping(_need(doc, "tank", "scenario"), "tank",
                        {"t_initial", "epsilon_initial"})
    if ("t_initial" in tank_doc) == ("epsilon_initial" in tank_doc):
        raise ConfigError("tank: give exactly one of t_initial or epsilon_initial")
    if "t_initial" in tank_doc:
        t_initial = _number(tank_doc["t_initial"], "tank.t_initial")
    else:
        # size the tank so the first region's budget is exactly available;
        # the Scenario rejects the floor if it is under EPSILON_MIN
        eps1 = _number(tank_doc["epsilon_initial"], "tank.epsilon_initial")
        t_initial = eps1 + schedule.energies[0] - plant.kinetic_energy

    iso_mass = None
    if "iso_comparison" in doc:
        iso_doc = _mapping(doc["iso_comparison"], "iso_comparison",
                           {"moving_mass", "payload"})
        moving_mass = _number(_need(iso_doc, "moving_mass", "iso_comparison"),
                              "iso_comparison.moving_mass")
        payload = _number(iso_doc.get("payload", 0.0), "iso_comparison.payload")
        with _at("iso_comparison"):
            iso_mass = RobotMassSpec(moving_mass=moving_mass, payload=payload)

    return Scenario(name=name, plant=plant, gains=gains, schedule=schedule,
                    t_initial=t_initial, wrench_script=tuple(wrench), tau=tau,
                    duration=duration, damper_band=damper_band, iso_mass=iso_mass)


def _read_config_text(spec: str) -> tuple[str, str]:
    path = Path(spec)
    if path.exists():
        with _at(path):
            return path.read_text(encoding="utf-8"), str(path)
    name = spec if spec.endswith(".json") else spec + ".json"
    res = resources.files(__package__).joinpath("scenarios", name)
    if res.is_file():
        return res.read_text(), f"bundled scenario {name}"
    raise ConfigError(f"no such file or bundled scenario: {spec!r}")


def load_scenario(spec: str) -> Scenario:
    """Load a scenario from a path or from the bundled scenario set."""
    text, origin = _read_config_text(spec)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{origin}: invalid JSON: {exc}") from None
    with _at(origin):
        return scenario_from_config(doc, fallback_name=Path(origin).stem)


# -- subcommands ---------------------------------------------------------------

def cmd_run(args) -> int:
    scenario = load_scenario(args.config)
    if args.tau is not None or args.duration is not None:
        overrides = {}
        if args.tau is not None:
            overrides["tau"] = args.tau
        if args.duration is not None:
            overrides["duration"] = args.duration
        scenario = replace(scenario, **overrides)

    out_dir = Path(args.out)
    with _at(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    log.info("running scenario %s (%d cycles)", scenario.name, scenario.n_cycles)
    result = run(scenario)

    ticks_path = out_dir / "ticks.csv"
    summary_path = out_dir / "summary.json"
    if result.ticks:
        with _at(ticks_path):
            write_ticks_csv(ticks_path, result.ticks)
    if result.summary is not None:
        payload = result.summary.to_dict()
    else:
        payload = {"scenario": scenario.name, "n_ticks": 0, "fault": result.fault}
    if result.discarded_energy:
        log.info("tank overflow discarded %.6g J", result.discarded_energy)
    with _at(summary_path), open(summary_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    if result.fault is not None:
        print(f"{scenario.name}: FAULT ({result.fault}) after {len(result.ticks)} "
              f"cycles; partial log in {ticks_path}", file=sys.stderr)
        return EXIT_FAULT
    print(f"{scenario.name}: {len(result.ticks)} cycles -> {ticks_path}, {summary_path}")
    return EXIT_OK


def _parse_sweep(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--sweep-mr expects LO:HI:STEP, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"--sweep-mr expects numbers, got {text!r}") from None
    if not (0 < lo <= hi < math.inf and 0 < step < math.inf):
        raise ConfigError(f"--sweep-mr needs finite 0 < LO <= HI and STEP > 0, got {text!r}")
    # checked before anything is allocated; the quotient may be infinite
    span = (hi - lo) / step + 1e-12
    if not span < MAX_SWEEP_POINTS:
        raise ConfigError(f"--sweep-mr gives more than {MAX_SWEEP_POINTS} points, "
                          f"got {text!r}")
    return lo + step * np.arange(math.floor(span) + 1)


def cmd_iso(args) -> int:
    k = args.k * STIFFNESS_UNITS[args.k_unit]
    region = BodyRegion(name="cli", f_max=args.fmax, k=k, m_h=args.mh,
                        transient_multiplier=args.transient_mult)
    e_max = max_energy(region)
    if args.sweep_mr is not None:
        masses = _parse_sweep(args.sweep_mr)
        print("m_r,mu,v_max_quasi_static,v_max_transient")
        for m_r in masses:
            mu = reduced_mass(args.mh, float(m_r))
            print(f"{float(m_r)!r},{mu!r},{v_max(region, float(m_r), 'quasi_static')!r},"
                  f"{v_max(region, float(m_r), 'transient')!r}")
        return EXIT_OK
    if args.mr is None:
        raise ConfigError("iso: give --mr, or --sweep-mr for a range")
    mu = reduced_mass(args.mh, args.mr)
    rows = [
        ("E_max", e_max, "J"),
        ("mu", mu, "kg"),
        ("v_max quasi-static", v_max(region, args.mr, "quasi_static"), "m/s"),
        ("v_max transient", v_max(region, args.mr, "transient"), "m/s"),
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

    p_run = sub.add_parser("run", help="run a scenario and write ticks.csv + summary.json",
                           parents=[], add_help=True)
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
    level = os.environ.get("PFLTANK_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
