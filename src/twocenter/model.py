"""Domain types for the two-center Coulomb problem.

Conventions
-----------
Prolate spheroidal coordinates xi = (r1+r2)/R in [1, inf) and
eta = (r2-r1)/R in [-1, 1], with the azimuthal angle phi about the
internuclear axis.  A bound state is labelled (n, m, Lambda, parity):
n and m count the nodes of the xi- and eta-channel functions, Lambda is
the magnetic quantum number and parity is the symmetry of the eta factor
under eta -> -eta (+1 for the cosh branch, -1 for the sinh branch).  The
spatial gerade/ungerade character is parity * (-1)**Lambda.

Energies: E_total and E' = E_total - 2*Z1*Z2/R are in Rydbergs, and
p**2 = -E' R**2 / 4 for bound channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class UnboundChannelError(ValueError):
    """Raised when an energy does not correspond to a bound channel (E' >= 0)."""


class UnsupportedStateError(LookupError):
    """Raised when a variational solve is asked for a label outside
    SUPPORTED_LABELS."""


@dataclass(frozen=True)
class StateLabel:
    """Quantum numbers (n, m, Lambda, parity) of a separated state."""

    n: int
    m: int
    lam: int
    parity: int  # +1 (cosh branch) or -1 (sinh branch)

    def __post_init__(self):
        if self.n < 0 or self.m < 0 or self.lam < 0:
            raise ValueError(f"quantum numbers must be non-negative: {self}")
        if self.parity not in (+1, -1):
            raise ValueError(f"parity must be +1 or -1, got {self.parity}")

    @property
    def sigma(self) -> int:
        """0 for the even (cosh) branch, 1 for the odd (sinh) branch."""
        return 0 if self.parity == +1 else 1

    @property
    def gerade(self) -> bool:
        """Spatial inversion symmetry: parity of Y times (-1)**Lambda."""
        return (self.sigma + self.lam) % 2 == 0

    @property
    def atomic_l(self) -> int:
        """Orbital quantum number of the coalesced-centers atomic orbital."""
        return self.lam + 2 * self.m + self.sigma

    @property
    def atomic_n(self) -> int:
        """Principal quantum number of the coalesced-centers atomic orbital."""
        return self.atomic_l + self.n + 1

    def __str__(self):
        sign = "+" if self.parity == +1 else "-"
        return f"({self.n},{self.m},{self.lam},{sign})"


_L_LETTER = "spdfgh"
_LAM_GREEK = "σπδφ"  # sigma pi delta phi
_LAM_ASCII = "spdf"

# The eight states the variational solve supports; seed_for and
# optimize_state raise UnsupportedStateError for any other label, through
# require_supported.  The oracle takes any label.
SUPPORTED_LABELS = (
    StateLabel(0, 0, 0, +1),
    StateLabel(0, 0, 0, -1),
    StateLabel(0, 0, 1, +1),
    StateLabel(0, 0, 1, -1),
    StateLabel(0, 0, 2, +1),
    StateLabel(0, 0, 2, -1),
    StateLabel(1, 0, 0, +1),
    StateLabel(1, 0, 0, -1),
)

# Labels with a tabulated coalesced-centers designation; the last two are
# outside the variational solve but keep their designation entry.
_DESIGNATED_LABELS = SUPPORTED_LABELS + (
    StateLabel(0, 1, 0, +1),
    StateLabel(0, 1, 0, -1),
)


def united_atom_designation(label: StateLabel) -> str | None:
    """Spectroscopic name like '1ssg' (1s sigma_g), or None if untabulated."""
    if label not in _DESIGNATED_LABELS:
        return None
    letter = _L_LETTER[label.atomic_l]
    greek = _LAM_ASCII[label.lam]
    gu = "g" if label.gerade else "u"
    return f"{label.atomic_n}{letter}{greek}{gu}"


def require_supported(label: StateLabel) -> None:
    """Raise UnsupportedStateError for a label outside SUPPORTED_LABELS."""
    if label not in SUPPORTED_LABELS:
        names = ", ".join(map(united_atom_designation, SUPPORTED_LABELS))
        raise UnsupportedStateError(
            f"no variational solve for state {label}; supported: {names}")


def united_atom_designation_unicode(label: StateLabel) -> str | None:
    """Same as :func:`united_atom_designation` with the Greek Lambda letter."""
    name = united_atom_designation(label)
    if name is None:
        return None
    return name[:-2] + _LAM_GREEK[label.lam] + name[-1]


def label_from_designation(name: str) -> StateLabel:
    """Inverse lookup: spectroscopic name (ascii or unicode) to StateLabel."""
    key = name.strip().lower()
    for greek, ascii_ in zip(_LAM_GREEK, _LAM_ASCII):
        key = key.replace(greek, ascii_)
    for label in _DESIGNATED_LABELS:
        if united_atom_designation(label) == key:
            return label
    raise KeyError(f"unknown state designation {name!r}")


# Largest internuclear distance [bohr] a setup accepts.  At R = 1000 the
# ground state lies 4.5e-12 Ry below the separated-atom limit, under the
# package's 10-11 significant digits, so larger R carries no molecular
# information; it also keeps R**2 and p**2 far inside float range.
R_MAX = 1000.0


@dataclass(frozen=True)
class PhysicalSetup:
    """Internuclear distance R [bohr] and the two nuclear charges."""

    R: float
    Z1: float = 1.0
    Z2: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.R <= R_MAX:
            raise ValueError(
                f"R must be positive, finite and at most {R_MAX:g} bohr, "
                f"got {self.R}")

    @property
    def a(self) -> float:
        """Half the internuclear distance, the prolate focal parameter."""
        return 0.5 * self.R

    @property
    def repulsion(self) -> float:
        """Nuclear repulsion 2*Z1*Z2/R in Ry."""
        return 2.0 * self.Z1 * self.Z2 / self.R


def p_from_energy(E_total: float, setup: PhysicalSetup) -> float:
    """Momentum-like parameter p = sqrt(-E' R^2/4) of a bound channel."""
    E_prime = E_total - setup.repulsion
    if E_prime >= 0.0:
        raise UnboundChannelError(
            f"unbound channel: E'={E_prime} >= 0 at R={setup.R}"
        )
    return math.sqrt(-E_prime) * setup.R / 2.0


def energy_from_p(p: float, setup: PhysicalSetup) -> float:
    """Total energy in Ry with E' = -4 p^2 / R^2."""
    return -4.0 * p * p / (setup.R * setup.R) + setup.repulsion


@dataclass(frozen=True)
class EnergyPair:
    """Total energy, the shifted energy E', and the channel parameter p."""

    E_total: float
    E_prime: float
    p: float

    @classmethod
    def from_total(cls, E_total: float, setup: PhysicalSetup) -> "EnergyPair":
        p = p_from_energy(E_total, setup)
        return cls(E_total, E_total - setup.repulsion, p)

    @classmethod
    def from_p(cls, p: float, setup: PhysicalSetup) -> "EnergyPair":
        E_total = energy_from_p(p, setup)
        return cls(E_total, E_total - setup.repulsion, p)


@dataclass(frozen=True)
class SeparatedState:
    """A solved state at fixed R: energies, separation constant, norm."""

    label: StateLabel
    setup: PhysicalSetup
    energy: EnergyPair
    A: float
    norm: float

    def __post_init__(self):
        if not math.isfinite(self.A):
            raise ValueError("separation constant must be finite")
        if not self.norm > 0.0:
            raise ValueError("norm must be positive")


# Coalesced-centers limit bookkeeping: (n, l, m) of the atomic orbital the
# label flows to as R -> 0, and the constant term of the limiting polynomial
# factor where one is present.
_LIMIT_CONSTANT = {
    StateLabel(1, 0, 0, +1): Fraction(2),
    StateLabel(1, 0, 0, -1): Fraction(3),
    StateLabel(0, 1, 0, +1): Fraction(1, 3),
    StateLabel(0, 1, 0, -1): Fraction(3, 5),
}


def limit_constant(label: StateLabel) -> Fraction | None:
    """Constant term of the limiting polynomial, if the label carries one."""
    return _LIMIT_CONSTANT.get(label)
