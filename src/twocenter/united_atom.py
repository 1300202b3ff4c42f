"""Coalesced-centers (R -> 0) limit machinery.

As R -> 0 the two-center problem flows to the one-center ion of charge
Z = Z1 + Z2: R xi -> 2r, eta -> cos(theta), and R/p approaches the
principal quantum number of the limiting atomic orbital.  This module
provides the symbolic limit descriptors and numerical convergence probes
along a fixed geometric R sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import (PhysicalSetup, StateLabel, limit_constant,
                    united_atom_designation)
from .oracle import OracleResult, solve_bispectral


class UntabulatedLimitError(KeyError):
    """No coalesced-centers limit is tabulated for the label.  A KeyError,
    as before, whose str() is the bare message rather than its repr."""

    def __str__(self):
        return str(self.args[0])


@dataclass(frozen=True)
class LimitForm:
    """Symbolic descriptor of the R -> 0 limit of a molecular label."""

    label: StateLabel
    designation: str
    orbital: tuple          # (n, l, m) of the limiting atomic orbital
    constant: Fraction | None  # constant term of the polynomial factor


def limit_form(label: StateLabel) -> LimitForm:
    name = united_atom_designation(label)
    if name is None:
        raise UntabulatedLimitError(f"no tabulated limit for {label}")
    return LimitForm(label, name,
                     (label.atomic_n, label.atomic_l, label.lam),
                     limit_constant(label))


@dataclass(frozen=True)
class LimitProbePoint:
    R: float
    E_total: float
    E_prime: float
    R_over_p: float
    A: float


def limit_convergence_probe(label: StateLabel, R_sequence=None) -> dict:
    """Track R/p -> n and E' -> -(Z1+Z2)^2/n^2 along a sequence R -> 0."""
    if R_sequence is None:
        R_sequence = [0.5 * 2.0**-k for k in range(5)]
    form = limit_form(label)
    n_atomic = form.orbital[0]
    points = []
    for R in sorted(R_sequence, reverse=True):
        res: OracleResult = solve_bispectral(label, PhysicalSetup(R))
        E_prime = res.E_total - res.setup.repulsion
        points.append(LimitProbePoint(R, res.E_total, E_prime,
                                      R / res.p, res.A))
    if not points:
        raise ValueError("the probe needs at least one R")
    E_lim = -((res.setup.Z1 + res.setup.Z2) / n_atomic) ** 2
    return {
        "points": points,
        "n_atomic": n_atomic,
        "E_prime_limit": E_lim,
        "R_over_p_errors": [abs(pt.R_over_p - n_atomic) for pt in points],
        "E_prime_errors": [abs(pt.E_prime - E_lim) for pt in points],
    }
