"""Radiative transition matrix elements and oscillator strengths.

Electron position is measured from the midpoint between the centers:
z = a xi eta, x +- iy = a sqrt((xi^2-1)(1-eta^2)) exp(+-i phi), a = R/2.
The azimuthal integrals are done analytically, so every matrix element
reduces to products of 1D channel integrals of the two states involved.
Both states must be solved at the same R; the quadrature rule of a pair
is matched to the combined decay scale (p_i + p_f)/2.

Conventions (energies in Ry, lengths in bohr):

    electric dipole     f = (1/3) G dE S1,  S1 = |<i| r |f_m>|^2,
    magnetic dipole     f = (1/3) dE mu_B^2 sum_m |<i| L |f_m>|^2,
    electric quadrupole f = (alpha^2/240) G dE^3 S2,
                        S2 = |<i| r^2 C2_mu |f_m>|^2 (Racah tensor),

with G the number of degenerate final orbitals (2 for pi/delta, 1 for
sigma) and S1/S2 evaluated for a single member of the multiplet.  The
magnetic sum over m = +-1 collapses to |<i|L_-|f_+>|^2, so no explicit
degeneracy factor appears in the magnetic strength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import BOHR_MAGNETON, FINE_STRUCTURE
from .model import StateLabel
from .quadrature import build_rules, integrate
from .states import SolvedState


class TransitionOrderingError(ValueError):
    """Final state not above the initial state."""


@dataclass(frozen=True)
class TransitionRecord:
    kind: str                  # "E1", "B1" or "E2"
    initial: StateLabel
    final: StateLabel
    R: float
    deltaE: float              # Ry
    S: float                   # squared matrix element, per final member
    G: int                     # final-orbital degeneracy factor
    f: float                   # oscillator strength
    forbidden: bool = False

    def __post_init__(self):
        if self.f < 0.0:
            raise ValueError("oscillator strength must be non-negative")


def degeneracy(final: StateLabel) -> int:
    return 1 if final.lam == 0 else 2


def _parity_flips(i: StateLabel, f: StateLabel) -> bool:
    return ((i.sigma + i.lam) - (f.sigma + f.lam)) % 2 == 1


def pair_rules(state_i: SolvedState, state_f: SolvedState, N: int = 96):
    p_scale = 0.5 * (state_i.params.p + state_f.params.p)
    return build_rules(p_scale, N)


class _Pair:
    """1D channel integrals of a state pair on a shared rule."""

    def __init__(self, state_i: SolvedState, state_f: SolvedState, rules):
        self.rx, self.re = rules
        self.a = state_i.setup.a
        ci = state_i.xi_arrays(self.rx.nodes)
        cf = state_f.xi_arrays(self.rx.nodes)
        ei = state_i.eta_arrays(self.re.nodes)
        ef = state_f.eta_arrays(self.re.nodes)
        self.Xi, self.dXi = ci.vals * math.exp(-ci.logscale), ci.dvals * math.exp(-ci.logscale)
        self.Xf, self.dXf = cf.vals * math.exp(-cf.logscale), cf.dvals * math.exp(-cf.logscale)
        self.Yi, self.dYi = ei.vals * math.exp(-ei.logscale), ei.dvals * math.exp(-ei.logscale)
        self.Yf, self.dYf = ef.vals * math.exp(-ef.logscale), ef.dvals * math.exp(-ef.logscale)
        self.norm = math.sqrt(state_i.norm_squared() * state_f.norm_squared())

    def mxi(self, k: int, w: int) -> float:
        x = self.rx.nodes
        return integrate(self.rx, x**k * (x * x - 1.0) ** w * self.Xi * self.Xf)

    def meta(self, k: int, w: int) -> float:
        e = self.re.nodes
        return integrate(self.re, e**k * (1.0 - e * e) ** w * self.Yi * self.Yf)

    def mxi_dfinal(self) -> float:
        """int Xi [(xi^2-1) Xf' + xi Xf] dxi (transverse gradient piece)."""
        x = self.rx.nodes
        return integrate(self.rx,
                         self.Xi * ((x * x - 1.0) * self.dXf + x * self.Xf))

    def meta_dfinal(self) -> float:
        """int Yi [(1-eta^2) Yf' - eta Yf] deta."""
        e = self.re.nodes
        return integrate(self.re,
                         self.Yi * ((1.0 - e * e) * self.dYf - e * self.Yf))


# ----------------------------------------------------------------------
# electric dipole


def dipole_matrix_element(state_i: SolvedState, state_f: SolvedState,
                          rules=None) -> float:
    """S1 = |<i| r |f>|^2 for one final member; 0 when |dLambda| > 1."""
    dlam = abs(state_f.label.lam - state_i.label.lam)
    if dlam > 1 or not _parity_flips(state_i.label, state_f.label):
        return 0.0
    rules = rules or pair_rules(state_i, state_f)
    pr = _Pair(state_i, state_f, rules)
    a = pr.a
    lam = min(state_i.label.lam, state_f.label.lam)
    if dlam == 0:
        zme = 2.0 * math.pi * a**4 * (pr.mxi(3, lam) * pr.meta(1, lam)
                                      - pr.mxi(1, lam) * pr.meta(3, lam))
        return zme * zme / pr.norm**2
    J = pr.mxi(0, lam + 2) * pr.meta(0, lam + 1) \
        + pr.mxi(0, lam + 1) * pr.meta(0, lam + 2)
    tme2 = 2.0 * (math.pi * a**4 * J) ** 2
    return tme2 / pr.norm**2


def oscillator_strength_E1(state_i: SolvedState, state_f: SolvedState,
                           rules=None) -> TransitionRecord:
    dE = state_f.energy.E_total - state_i.energy.E_total
    if dE <= 0.0:
        raise TransitionOrderingError(f"E_f <= E_i for {state_f.label}")
    S1 = dipole_matrix_element(state_i, state_f, rules)
    G = degeneracy(state_f.label)
    f = G * dE * S1 / 3.0
    return TransitionRecord("E1", state_i.label, state_f.label,
                            state_i.setup.R, dE, S1, G, f,
                            forbidden=(S1 == 0.0))


# ----------------------------------------------------------------------
# magnetic dipole


def magnetic_matrix_element(state_i: SolvedState, state_f: SolvedState,
                            rules=None) -> float:
    """Sum over final members of |<i| L |f_m>|^2 = |<i| L_- |f_+>|^2."""
    li, lf = state_i.label, state_f.label
    if abs(lf.lam - li.lam) != 1 or _parity_flips(li, lf):
        return 0.0
    if li.lam != 0 or lf.lam != 1:
        raise NotImplementedError("magnetic elements wired for sigma -> pi")
    rules = rules or pair_rules(state_i, state_f)
    pr = _Pair(state_i, state_f, rules)
    a3 = pr.a**3
    termA = -a3 * (pr.mxi_dfinal() * pr.meta(1, 1)
                   - pr.mxi(1, 1) * pr.meta_dfinal())
    termB = -a3 * (pr.mxi(3, 0) * pr.meta(1, 0)
                   - pr.mxi(1, 0) * pr.meta(3, 0))
    Lminus = 2.0 * math.pi * (termA + termB)
    return (Lminus / pr.norm) ** 2


def oscillator_strength_B1(state_i: SolvedState, state_f: SolvedState,
                           rules=None) -> TransitionRecord:
    dE = state_f.energy.E_total - state_i.energy.E_total
    if dE <= 0.0:
        raise TransitionOrderingError(f"E_f <= E_i for {state_f.label}")
    L2 = magnetic_matrix_element(state_i, state_f, rules)
    S = BOHR_MAGNETON**2 * L2
    f = dE * S / 3.0
    return TransitionRecord("B1", state_i.label, state_f.label,
                            state_i.setup.R, dE, S, 1, f,
                            forbidden=(L2 == 0.0))


# ----------------------------------------------------------------------
# electric quadrupole


def quadrupole_matrix_element(state_i: SolvedState, state_f: SolvedState,
                              rules=None) -> float:
    """S2 = |<i| r^2 C2_mu |f>|^2 for one final member, mu = dLambda."""
    li, lf = state_i.label, state_f.label
    dlam = abs(lf.lam - li.lam)
    if dlam > 2 or _parity_flips(li, lf):
        return 0.0
    if li.lam != 0:
        raise NotImplementedError("quadrupole elements wired for sigma initial")
    rules = rules or pair_rules(state_i, state_f)
    pr = _Pair(state_i, state_f, rules)
    a = pr.a
    if dlam == 0:
        raw = 0.5 * (3.0 * pr.mxi(4, 0) * pr.meta(2, 0)
                     - 3.0 * pr.mxi(2, 0) * pr.meta(4, 0)
                     - pr.mxi(4, 0) * pr.meta(0, 0)
                     + pr.mxi(2, 0) * pr.meta(0, 0)
                     - pr.mxi(0, 0) * pr.meta(2, 0)
                     + pr.mxi(0, 0) * pr.meta(4, 0))
    elif dlam == 1:
        raw = math.sqrt(1.5) * (pr.mxi(1, 2) * pr.meta(1, 1)
                                + pr.mxi(1, 1) * pr.meta(1, 2))
    else:
        raw = math.sqrt(3.0 / 8.0) * (pr.mxi(0, 3) * pr.meta(0, 2)
                                      + pr.mxi(0, 2) * pr.meta(0, 3))
    me = 2.0 * math.pi * a**5 * raw
    return (me / pr.norm) ** 2


def oscillator_strength_E2(state_i: SolvedState, state_f: SolvedState,
                           rules=None) -> TransitionRecord:
    dE = state_f.energy.E_total - state_i.energy.E_total
    if dE <= 0.0:
        raise TransitionOrderingError(f"E_f <= E_i for {state_f.label}")
    S2 = quadrupole_matrix_element(state_i, state_f, rules)
    G = degeneracy(state_f.label)
    f = FINE_STRUCTURE**2 / 240.0 * G * dE**3 * S2
    return TransitionRecord("E2", state_i.label, state_f.label,
                            state_i.setup.R, dE, S2, G, f,
                            forbidden=(S2 == 0.0))


_KINDS = {"E1": oscillator_strength_E1, "B1": oscillator_strength_B1,
          "E2": oscillator_strength_E2}


def oscillator_strength(kind: str, state_i: SolvedState,
                        state_f: SolvedState, rules=None) -> TransitionRecord:
    try:
        fn = _KINDS[kind.upper()]
    except KeyError:
        raise ValueError(f"unknown transition kind {kind!r}") from None
    return fn(state_i, state_f, rules)
