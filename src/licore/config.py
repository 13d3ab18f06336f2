"""Parameter container for the driven two-level atom, and Record, the
immutable slotted base of licore's input types.

All frequencies and rates are internal angular frequencies (hbar = k_B = 1);
only ``laser_power`` stays in watts, carried through for cell-level output.
"""

from __future__ import annotations

import math

from .units import thz_to_internal

_set = object.__setattr__   # how a record's __init__ writes its fields


class Record:
    """Fields are the subclass's ``__slots__``, in constructor order; equal
    fields give equal records and hashes within one type, never across
    types.  __init__ checks its arguments, then writes each field with
    ``_set``: writing through ``__dict__`` would slow every field read."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle would restore the slots through __setattr__; the
        # constructor restores them and checks them again
        return self.__class__, self._values()


class AtomDriveConfig(Record):
    """Two-level atom plus drive: resonance omega0, spontaneous rate gamma,
    laser-atom coupling g and laser frequency nu."""

    __slots__ = ("omega0", "gamma", "g", "nu", "laser_power")

    def __init__(self, omega0: float, gamma: float, g: float, nu: float,
                 laser_power: float = 0.0):
        values = (omega0, gamma, g, nu, laser_power)
        if not all(map(math.isfinite, values)):
            for name, value in zip(self.__slots__, values):
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be finite")
        if omega0 <= 0:
            raise ValueError("omega0 must be positive")
        if nu <= 0:
            raise ValueError("nu must be positive")
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        if g < 0:
            raise ValueError("g must be non-negative")
        if laser_power < 0:
            raise ValueError("laser_power must be non-negative")
        _set(self, "omega0", omega0)
        _set(self, "gamma", gamma)
        _set(self, "g", g)
        _set(self, "nu", nu)
        _set(self, "laser_power", laser_power)

    @property
    def detuning(self) -> float:
        """Signed detuning omega0 - nu; positive means red-detuned drive."""
        return self.omega0 - self.nu

    @property
    def rabi(self) -> float:
        """Dressed-state splitting sqrt(4 g^2 + detuning^2)."""
        return math.hypot(2.0 * self.g, self.detuning)

    def with_laser_frequency(self, nu: float) -> "AtomDriveConfig":
        """Config driven at ``nu``.  Only nu is new, so only nu is checked,
        with the constructor's messages; the other fields are copied, as
        this record's constructor checked them."""
        if not math.isfinite(nu):
            raise ValueError("nu must be finite")
        if nu <= 0:
            raise ValueError("nu must be positive")
        derived = object.__new__(AtomDriveConfig)
        _write_omega0(derived, self.omega0)
        _write_gamma(derived, self.gamma)
        _write_g(derived, self.g)
        _write_nu(derived, nu)
        _write_laser_power(derived, self.laser_power)
        return derived

    def attenuated(self, power_fraction: float) -> "AtomDriveConfig":
        """Config at a point where the laser power is scaled by
        ``power_fraction``; the coupling scales as its square root.  It
        calls the constructor, which checks the new coupling."""
        if power_fraction < 0:
            raise ValueError("power_fraction must be non-negative")
        return AtomDriveConfig(self.omega0, self.gamma,
                               self.g * math.sqrt(power_fraction), self.nu,
                               self.laser_power)

    @classmethod
    def from_thz(cls, omega0_thz, gamma_thz, g_thz, nu_thz, laser_power_w=0.0):
        return cls(
            omega0=thz_to_internal(omega0_thz),
            gamma=thz_to_internal(gamma_thz),
            g=thz_to_internal(g_thz),
            nu=thz_to_internal(nu_thz),
            laser_power=laser_power_w,
        )


# each field's slot writer: with_laser_frequency writes a derived record's
# fields with these, which skip the name lookup that _set makes per field
_write_omega0, _write_gamma, _write_g, _write_nu, _write_laser_power = (
    getattr(AtomDriveConfig, name).__set__ for name in AtomDriveConfig.__slots__)
