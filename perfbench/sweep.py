"""Seeded scenario generator for the ``sweep`` workload.

``generate(seed)`` returns plain scenario documents (the JSON the CLI reads);
the program under test sees nothing else.  The same seed gives the same
documents.  The batch composition is fixed so that the work per iteration
does not depend on the seed: every batch holds RUNS_PER_KIND runs of each
plant kind, and each kind's runs share a fixed tick total.  What the seed
varies is everything the controller's behaviour depends on: inertia, gains,
targets, run lengths, step size, region schedules and pushes.

Forces are sized under the README margin rule
``tau^2 |f|^2 / (2 lambda_min) < feasibility_margin`` so every run stays
inside the documented operating envelope and none is expected to fault.
"""

from __future__ import annotations

import math
import random

import numpy as np

#: Plant kinds, each run RUNS_PER_KIND times per batch.
KINDS = ("cartesian1", "cartesian2", "cartesian3", "planar_arm")
RUNS_PER_KIND = 4
#: Ticks shared by one kind's runs: a fixed total keeps the batch's work
#: independent of the seed, so run_s compares across seeds.
TICKS_PER_KIND = 4000
#: Shortest run: long enough to cross a schedule switch and a push window.
MIN_TICKS = 400

#: Cycle times a controller may run at; all are used by real PFL stacks.
TAUS = (0.0005, 0.001, 0.002)
#: Cartesian inertia eigenvalues, kg: from a light wrist to a heavy arm.
EIG_RANGE = (1.0, 10.0)
#: Per-axis stiffness and damping draws before force sizing, N/m and N s/m.
KP_RANGE = (4.0, 60.0)
KD_RANGE = (4.0, 25.0)
#: Distance to the Cartesian target, m: a bench-top reach.
REACH_RANGE = (0.3, 2.5)
#: Energy budget per region, J: brackets the bundled 1.6 J chest and 2.5 J
#: shoulder limits; below 0.2 J a run barely moves.
ENERGY_RANGE = (0.2, 3.0)
#: ISO/TS 15066 contact data ranges (quasi-static force N, stiffness N/mm,
#: body mass kg) as tabulated for the body regions.
F_MAX_RANGE = (65.0, 210.0)
K_RANGE = (10.0, 75.0)
M_H_RANGE = (0.6, 40.0)
#: Tank charge above the largest budget, J: keeps every floor above the
#: controller's epsilon_min and varies how long braking refills take.
TANK_EXTRA_RANGE = (0.05, 2.0)
#: Push magnitude, N: a deliberate human nudge, not an impact.
PUSH_RANGE = (0.5, 4.0)
#: Planar-arm link lengths m and masses kg: a small collaborative arm.
LINK_RANGE = (0.35, 0.6)
LINK_MASS_RANGE = (2.0, 6.0)
#: Elbow angles kept away from the stretched and folded singularities.
ELBOW_RANGE = (0.5, 2.2)
#: Default controller slack the README's margin rule is written against.
FEASIBILITY_MARGIN = 5e-4
#: Fraction of the margin rule a run may use; the rest covers the PD
#: force growing past its initial value during overshoot.
MARGIN_SHARE = 0.5
#: Damper band default; widened when one cycle of push work could cross it.
DAMPER_BAND = 1e-3


def generate(seed: int) -> list[dict]:
    """Scenario documents for one sweep batch, fixed by ``seed``."""
    rng = random.Random(seed)
    docs = []
    for kind in KINDS:
        for i, ticks in enumerate(_split_ticks(rng)):
            docs.append(_scenario(rng, kind, f"sweep-{seed}-{kind}-{i}", ticks,
                                  direction=len(docs) % 2))
    rng.shuffle(docs)
    return docs


def _split_ticks(rng: random.Random) -> list[int]:
    spare = TICKS_PER_KIND - RUNS_PER_KIND * MIN_TICKS
    cuts = sorted(rng.randint(0, spare) for _ in range(RUNS_PER_KIND - 1))
    edges = [0, *cuts, spare]
    return [MIN_TICKS + b - a for a, b in zip(edges, edges[1:])]


def _uniform(rng: random.Random, bounds) -> float:
    return rng.uniform(*bounds)


def _unit(rng: random.Random, m: int) -> np.ndarray:
    while True:
        v = np.array([rng.gauss(0.0, 1.0) for _ in range(m)])
        norm = float(np.linalg.norm(v))
        if norm > 1e-3:
            return v / norm


def _region(rng: random.Random) -> dict:
    """Half the regions carry contact data so iso15066 sizes their budget."""
    if rng.random() < 0.5:
        return {"e_max_override": _uniform(rng, ENERGY_RANGE)}
    while True:
        f_max, k = _uniform(rng, F_MAX_RANGE), _uniform(rng, K_RANGE)
        energy = (2.0 * f_max) ** 2 / (2.0 * k * 1000.0)
        if ENERGY_RANGE[0] <= energy <= ENERGY_RANGE[1]:
            return {"f_max": f_max, "k": k, "stiffness_unit": "N/mm",
                    "m_h": _uniform(rng, M_H_RANGE)}


def _energy(region: dict) -> float:
    if "e_max_override" in region:
        return region["e_max_override"]
    return (2.0 * region["f_max"]) ** 2 / (2.0 * region["k"] * 1000.0)


def _schedule(rng: random.Random, duration: float, direction: int):
    """One to three regions; with a switch, ``direction`` picks whether the
    first one raises (0) or tightens (1) the bound, so a batch has both."""
    count = rng.choice((1, 2, 3))
    regions = [_region(rng) for _ in range(count)]
    if count > 1:
        regions[:2] = sorted(regions[:2], key=_energy, reverse=bool(direction))
    times = [0.0] + sorted(rng.uniform(0.15, 0.85) * duration for _ in range(count - 1))
    names = [f"r{i}" for i in range(count)]
    return (dict(zip(names, regions)),
            [{"t": t, "region": n} for t, n in zip(times, names)],
            max(_energy(r) for r in regions))


def _arm_model(l1, l2, m1, m2, q):
    """Operational-space inertia of the bundled planar arm's model
    (uniform rods) at joint angles q; used only to size forces."""
    lc1, lc2 = 0.5 * l1, 0.5 * l2
    i1, i2 = m1 * l1 * l1 / 12.0, m2 * l2 * l2 / 12.0
    c2 = math.cos(q[1])
    m11 = m1 * lc1 * lc1 + i1 + m2 * (l1 * l1 + lc2 * lc2 + 2 * l1 * lc2 * c2) + i2
    m12 = m2 * (lc2 * lc2 + l1 * lc2 * c2) + i2
    m22 = m2 * lc2 * lc2 + i2
    mass = np.array([[m11, m12], [m12, m22]])
    s1, c1 = math.sin(q[0]), math.cos(q[0])
    s12, c12 = math.sin(q[0] + q[1]), math.cos(q[0] + q[1])
    jac = np.array([[-l1 * s1 - l2 * s12, -l2 * s12], [l1 * c1 + l2 * c12, l2 * c12]])
    jinv = np.linalg.inv(jac)
    return jinv.T @ mass @ jinv


def _ee(l1, l2, q) -> np.ndarray:
    return np.array([l1 * math.cos(q[0]) + l2 * math.cos(q[0] + q[1]),
                     l1 * math.sin(q[0]) + l2 * math.sin(q[0] + q[1])])


def _ik(l1, l2, p) -> tuple:
    """Elbow-up inverse kinematics (elbow angle in (0, pi))."""
    r2 = float(p @ p)
    c2 = (r2 - l1 * l1 - l2 * l2) / (2 * l1 * l2)
    q2 = math.acos(max(-1.0, min(1.0, c2)))
    q1 = math.atan2(p[1], p[0]) - math.atan2(l2 * math.sin(q2), l1 + l2 * math.cos(q2))
    return q1, q2


def _arm_plant(rng: random.Random):
    """Arm, start and target whose straight Cartesian path keeps the elbow
    inside ELBOW_RANGE; returns the plant document, target and lambda_min
    sampled along that path."""
    while True:
        l1, l2 = _uniform(rng, LINK_RANGE), _uniform(rng, LINK_RANGE)
        m1, m2 = _uniform(rng, LINK_MASS_RANGE), _uniform(rng, LINK_MASS_RANGE)
        q0 = (rng.uniform(-0.5, 1.5), _uniform(rng, ELBOW_RANGE))
        qt = (q0[0] + rng.uniform(-0.8, 0.8), _uniform(rng, ELBOW_RANGE))
        start, target = _ee(l1, l2, q0), _ee(l1, l2, qt)
        path = [start + s * (target - start) for s in np.linspace(0.0, 1.0, 11)]
        elbows = [_ik(l1, l2, p)[1] for p in path]
        if min(elbows) >= ELBOW_RANGE[0] and max(elbows) <= ELBOW_RANGE[1]:
            break
    lam_min = min(float(np.linalg.eigvalsh(_arm_model(l1, l2, m1, m2, _ik(l1, l2, p)))[0])
                  for p in path)
    plant = {"type": "planar_arm", "l1": l1, "l2": l2, "m1": m1, "m2": m2,
             "q0": list(q0), "qd0": [0.0, 0.0]}
    return plant, start, target, lam_min


def _cartesian_plant(rng: random.Random, m: int):
    """SPD inertia Q diag(e) Q^T with a seeded rotation Q."""
    eig = np.array([_uniform(rng, EIG_RANGE) for _ in range(m)])
    basis = np.array([[rng.gauss(0.0, 1.0) for _ in range(m)] for _ in range(m)])
    q, _ = np.linalg.qr(basis)
    inertia = q @ np.diag(eig) @ q.T
    inertia = 0.5 * (inertia + inertia.T)
    x0 = np.array([rng.uniform(-0.5, 0.5) for _ in range(m)])
    target = x0 + _uniform(rng, REACH_RANGE) * _unit(rng, m)
    plant = {"type": "cartesian", "inertia": inertia.tolist(),
             "x0": x0.tolist(), "v0": [0.0] * m}
    return plant, x0, target, float(np.linalg.eigvalsh(inertia)[0])


def _scenario(rng: random.Random, kind: str, name: str, ticks: int,
              direction: int) -> dict:
    if kind == "planar_arm":
        plant, start, target, lam_min = _arm_plant(rng)
        m = 2
    else:
        m = int(kind[-1])
        plant, start, target, lam_min = _cartesian_plant(rng, m)
    tau = rng.choice(TAUS)
    duration = ticks * tau
    regions, schedule, e_top = _schedule(rng, duration, direction)

    kp = np.array([_uniform(rng, KP_RANGE) for _ in range(m)])
    kd = np.array([_uniform(rng, KD_RANGE) for _ in range(m)])
    push = None
    if rng.random() < 0.5:
        t_start = rng.uniform(0.1, 0.6) * duration
        push = {"t_start": t_start,
                "t_end": t_start + rng.uniform(0.1, 0.3) * duration,
                "force": (_uniform(rng, PUSH_RANGE) * _unit(rng, m)).tolist()}

    # Margin rule: the largest force on the plant (PD at the start, damping
    # at the top speed the budget allows, the push and the damper that
    # cancels it) must satisfy tau^2 |f|^2 / (2 lambda_min) <= share * margin.
    v_cap = math.sqrt(2.0 * e_top / lam_min)
    reach = float(np.linalg.norm(target - start))
    f_push = 0.0 if push is None else float(np.linalg.norm(push["force"]))
    f_gain = float(np.max(kp)) * reach + float(np.max(kd)) * v_cap
    f_allow = math.sqrt(2.0 * lam_min * MARGIN_SHARE * FEASIBILITY_MARGIN) / tau
    if f_gain + 2.0 * f_push > f_allow:
        scale = f_allow / (f_gain + 2.0 * f_push)
        kp, kd = kp * scale, kd * scale
        if push is not None:
            push["force"] = [f * scale for f in push["force"]]
            f_push *= scale

    controller = {"kp": kp.tolist(), "kd": kd.tolist(), "target": target.tolist()}
    # The controller faults when one cycle of push work can cross the band
    # above the floor before the damper arms; widen the band to cover it.
    band = 2.0 * tau * f_push * v_cap
    if band > DAMPER_BAND:
        controller["damper_band"] = band

    extra = _uniform(rng, TANK_EXTRA_RANGE)
    if rng.random() < 0.5:
        tank = {"t_initial": e_top + extra}
    else:
        first = regions[schedule[0]["region"]]
        tank = {"epsilon_initial": e_top - _energy(first) + extra}

    doc = {"name": name, "plant": plant, "controller": controller,
           "regions": regions, "schedule": schedule, "tank": tank,
           "tau": tau, "duration": duration}
    if push is not None:
        doc["wrench_script"] = [push]
    if rng.random() < 0.5:
        doc["iso_comparison"] = {"moving_mass": rng.uniform(5.0, 40.0)}
    return doc
