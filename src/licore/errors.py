"""Exception types shared across the package, and the check that output
holds finite numbers only.

The CLI maps these onto exit codes: ConfigError -> 2, DomainError and
its subclasses -> 3, I/O failures -> 4.
"""

import math


class LicoreError(Exception):
    pass


class ConfigError(LicoreError):
    """Invalid configuration document or rejected input file."""


class DomainError(LicoreError):
    """Valid-looking input outside the domain of a formula or solver."""


class NoSolutionError(DomainError):
    """A requested root or fixed point does not exist for these parameters."""


class DegenerateSteadyStateError(DomainError):
    """The Liouvillian kernel is not one-dimensional."""


class CalibrationError(DomainError):
    """Absorption data cannot be matched by the spectrum model."""


def require_finite(node) -> None:
    """Refuse to emit output holding a non-finite number: a DomainError
    where a float in ``node``, or in the dicts and lists it nests, is not
    finite."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for item in node:
            require_finite(item)
    elif isinstance(node, float) and not math.isfinite(node):
        raise DomainError("result is not finite for these parameters")
