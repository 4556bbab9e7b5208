"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input breaks a rule: a scenario document, a constructor argument (a
    non-positive mass, a non-finite gain, an unprintable name, ...) or a tick
    log.  The one error for bad input."""


class IntegrationFault(RuntimeError):
    """Plant state or its energy became non-finite; the simulation cannot continue."""


class EmergencyFault(RuntimeError):
    """Tank accounting was violated.  Points at a controller or
    configuration bug, not at a recoverable runtime condition."""
