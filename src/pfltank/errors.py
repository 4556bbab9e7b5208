"""Exception types shared across the package, and the one number check.

Every public constructor reads its numeric arguments through _real and
_reals before its own range checks, so a scenario document, a library caller
and a replaced field meet one rule: a finite real number, held as a float.
"""

import math
import numbers


class DomainError(ValueError):
    """Input breaks a rule: a scenario document, a constructor argument (a
    non-positive mass, a non-finite gain, an unprintable name, ...) or a tick
    log.  The one error for bad input."""


class IntegrationFault(RuntimeError):
    """Plant state or its energy became non-finite; the simulation cannot continue."""


class EmergencyFault(RuntimeError):
    """Tank accounting was violated.  Points at a controller or
    configuration bug, not at a recoverable runtime condition."""


def _real(value, label: str, index: int | None = None) -> float:
    """value as a float.  DomainError naming label, or label[index], unless it
    is a finite numbers.Real: a str, None and a bool are refused (numpy
    registers its float and int scalars as Real, np.bool_ not), and an int
    past the float range reads as the infinity it rounds to, as a JSON integer
    that long does.  float and int, both Real, are tried before the slower
    abstract-class check."""
    if isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf if value > 0 else -math.inf
        if math.isfinite(number):
            return number
        value = number  # an int's repr may hold thousands of digits
    label = label if index is None else f"{label}[{index}]"
    raise DomainError(f"{label} must be a finite number, got {value!r}")


def _reals(values, label: str, length: int | None = None) -> tuple:
    """values as a tuple of floats, entry i read by _real as label[i]: a flat
    sequence (a list, a tuple, a 1-D array), so a str, a scalar or a nested
    list is refused, of exactly length entries where length is given."""
    try:
        items = None if isinstance(values, str) else tuple(values)
    except TypeError:  # a scalar, or a 0-d array
        items = None
    if items is None:
        raise DomainError(f"{label} must be a sequence of numbers, "
                          f"got a {type(values).__name__}")
    if length is not None and len(items) != length:
        raise DomainError(f"{label} must have length {length}, got {len(items)}")
    return tuple(_real(v, label, i) for i, v in enumerate(items))
