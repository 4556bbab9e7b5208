"""ISO/TS 15066 power-and-force-limiting quantities.

Energy limit per body region, the standard's lumped robot mass, the two-body
reduced mass, the velocity limit derived from them, and the
configuration-dependent apparent mass of a manipulator at its end effector.

Everything here is a pure function over immutable value types; stiffnesses
are stored in N/m throughout (unit conversion happens at config load).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "BodyRegion",
    "RobotMassSpec",
    "BUILTIN_REGIONS",
    "max_energy",
    "robot_effective_mass",
    "reduced_mass",
    "v_max",
    "apparent_mass",
    "endpoint_mobility",
]

# Relative tolerance for the positive-semidefiniteness check on mobility
# tensors: eigenvalues above -SPD_REL_TOL * lambda_max are treated as zero.
SPD_REL_TOL = 1e-9
UNIT_NORM_TOL = 1e-9


@dataclass(frozen=True)
class BodyRegion:
    """Biomechanical contact parameters for one human body area.

    A region either carries the two-body contact-model data (quasi-static
    force limit f_max in N, effective spring constant k in N/m, optionally
    the effective body mass m_h in kg), or quotes an energy limit directly
    via ``e_max_override`` in J.  The transient multiplier scales f_max for
    short impacts; it enters the energy limit, which is what makes the limit
    usable as a kinetic-energy budget for brief contact.
    """

    name: str
    f_max: float | None = None
    k: float | None = None
    m_h: float | None = None
    transient_multiplier: float = 2.0
    e_max_override: float | None = None

    def __post_init__(self):
        _check_region_name(self.name)
        if self.e_max_override is None and (self.f_max is None or self.k is None):
            raise DomainError(
                f"region {self.name!r}: give f_max and k, or an e_max_override")
        for label in ("f_max", "k", "m_h", "e_max_override"):
            value = getattr(self, label)
            if value is not None and not 0 < value < math.inf:
                raise DomainError(f"region {self.name!r}: {label} must be positive "
                                  f"and finite, got {value!r}")
        if not 1.0 <= self.transient_multiplier < math.inf:
            raise DomainError(
                f"region {self.name!r}: transient_multiplier must be >= 1 and finite")


def _check_region_name(name):
    """Refuse a region name that ticks.csv cannot hold as a bare field: it must
    be a non-empty printable str with no ',' or '"'.  isprintable() refuses
    line breaks, NUL and lone surrogates."""
    if not (isinstance(name, str) and name and name.isprintable()
            and "," not in name and '"' not in name):
        raise DomainError("a region name must be a non-empty printable string "
                          f"without ',' or '\"', got {name!r}")


@dataclass(frozen=True)
class RobotMassSpec:
    """Lumped robot data for the standard's effective-mass formula."""

    moving_mass: float     # total mass of the moving parts, kg
    payload: float = 0.0   # end-effector load, kg

    def __post_init__(self):
        if not 0 < self.moving_mass < math.inf:
            raise DomainError(
                f"moving_mass must be positive and finite, got {self.moving_mass!r}")
        if not 0 <= self.payload < math.inf:
            raise DomainError(f"payload must be >= 0 and finite, got {self.payload!r}")
        # half a subnormal moving mass rounds to 0, and a sum near the largest
        # float overflows
        m_r = robot_effective_mass(self)
        if not 0 < m_r < math.inf:
            raise DomainError("the effective mass 0.5 moving_mass + payload must be "
                              f"positive and finite, got {m_r!r} kg")


#: Regions used by the bundled scenarios.  Chest carries the full contact
#: model; the shoulder entry quotes its energy budget directly.
BUILTIN_REGIONS = {
    "chest": BodyRegion(name="chest", f_max=140.0, k=25_000.0, m_h=40.0),
    "shoulders": BodyRegion(name="shoulders", e_max_override=2.5),
}


def max_energy(region: BodyRegion) -> float:
    """Transfer-energy limit of a body region in J.

    For regions with contact-model data this is f**2 / (2 k) with
    f = transient_multiplier * f_max, i.e. the elastic energy the contact
    spring can absorb before the transient force limit is exceeded.  Regions
    with an explicit override return it unchanged.  A limit that overflows is
    refused; one that rounds to 0 J is a 0 J budget, a tightening switch like
    any other.
    """
    if region.e_max_override is not None:
        return float(region.e_max_override)
    f = region.transient_multiplier * region.f_max
    e_max = float(f * f / (2.0 * region.k))
    if not e_max < math.inf:  # inf, or NaN where f f and 2 k both overflow
        raise DomainError(f"region {region.name!r}: the energy limit (transient_multiplier "
                          f"f_max)^2 / (2 k) must be finite, got {e_max!r} J")
    return e_max


def robot_effective_mass(spec: RobotMassSpec) -> float:
    """Lumped robot mass at the contact point: half the moving mass plus payload."""
    return 0.5 * spec.moving_mass + spec.payload


def reduced_mass(m_h: float, m_r: float) -> float:
    """Two-body reduced mass (1/m_h + 1/m_r)^-1 in kg, refused unless it is
    positive and finite."""
    if not (m_h > 0 and m_r > 0):
        raise DomainError(f"masses must be positive, got m_h={m_h!r}, m_r={m_r!r}")
    # a subnormal mass has an infinite inverse, and two infinite ones sum to 0
    inverse = 1.0 / m_h + 1.0 / m_r
    if not 0 < inverse < math.inf:
        raise DomainError("masses must give a positive finite reduced mass, "
                          f"got m_h={m_h!r}, m_r={m_r!r}")
    return 1.0 / inverse


def v_max(region: BodyRegion, m_r: float) -> tuple[float, float]:
    """Relative-speed limits f / sqrt(mu k) in m/s for the given robot mass,
    as (quasi_static, transient).

    The quasi-static limit uses f_max as published, the transient one
    transient_multiplier * f_max.  Both are returned because published worked
    examples are not consistent about which applies; the CLI prints both.
    """
    if region.f_max is None or region.k is None:
        raise DomainError(f"region {region.name!r} has no contact-model data")
    if region.m_h is None:
        raise DomainError(f"region {region.name!r} has no body mass m_h")
    root = math.sqrt(reduced_mass(region.m_h, m_r) * region.k)
    f = region.f_max
    # mu k may round to 0, and a quotient may overflow or round to 0; the
    # transient limit is never below the quasi-static one
    limits = (f / root, region.transient_multiplier * f / root) if root else (math.inf,) * 2
    if not (0 < limits[0] and limits[1] < math.inf):
        raise DomainError(f"region {region.name!r}: the speed limits at m_r = {m_r!r} kg "
                          f"must be positive and finite, got {limits}")
    return limits


def apparent_mass(n, mobility) -> float:
    """Apparent mass (n^T Lambda^-1 n)^-1 along unit direction n, in kg.

    ``mobility`` is the end-point mobility tensor Lambda^-1.  It must be
    symmetric positive-semidefinite within tolerance; directions with no
    mobility (e.g. radially for a fully stretched arm) have unbounded apparent
    mass and raise DomainError.
    """
    n = np.asarray(n, dtype=float)
    a = np.asarray(mobility, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"mobility must be square, got shape {a.shape}")
    if n.shape != (a.shape[0],):
        raise DomainError(f"direction shape {n.shape} does not match mobility {a.shape}")
    # NaN passes every comparison below unrefused
    if not np.all(np.isfinite(n)):
        raise DomainError(f"direction must be finite, got {n.tolist()}")
    if not np.all(np.isfinite(a)):
        raise DomainError("mobility tensor entries must be finite")
    norm = float(np.linalg.norm(n))
    if abs(norm - 1.0) > UNIT_NORM_TOL:
        raise DomainError(f"direction must be unit length, |n| = {norm!r}")

    scale = float(np.max(np.abs(a))) or 1.0
    if float(np.max(np.abs(a - a.T))) > 1e-9 * scale:
        raise DomainError("mobility tensor is not symmetric")
    sym = 0.5 * (a + a.T)
    evals, evecs = np.linalg.eigh(sym)
    lam_max = float(evals[-1])
    if lam_max <= 0:
        raise DomainError("mobility tensor has no positive eigenvalue")
    if float(evals[0]) < -SPD_REL_TOL * lam_max:
        raise DomainError(
            f"mobility tensor is not positive semidefinite (eigenvalues {evals})")
    clamped = evecs @ np.diag(np.clip(evals, 0.0, None)) @ evecs.T

    quad = float(n @ clamped @ n)
    if quad <= 1e-12 * lam_max:
        raise DomainError("no mobility along the requested direction")
    return 1.0 / quad


def endpoint_mobility(model, q) -> np.ndarray:
    """End-point mobility tensor J M(q)^-1 J^T.

    ``model`` must expose mass_matrix(q) and jacobian(q); the Jacobian has
    one row per workspace axis, so the tensor is m x m (2x2 for the planar
    arm).
    """
    q = np.asarray(q, dtype=float)
    if not np.all(np.isfinite(q)):
        raise DomainError(f"joint angles must be finite, got {q.tolist()}")
    jv = np.atleast_2d(np.asarray(model.jacobian(q), dtype=float))
    m = np.atleast_2d(np.asarray(model.mass_matrix(q), dtype=float))
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise DomainError("mass matrix is not positive definite") from None
    return jv @ np.linalg.solve(m, jv.T)
