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

Every strength comes from one table, _KINDS, which gives each kind its
squared matrix element, its G and its f(G, dE, S); oscillator_strength
is the one path that looks a kind up and assembles its record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import StateLabel
from .quadrature import QuadratureError, build_rules, integrate
from .states import SolvedState

# fine structure constant, dimensionless (CODATA 2018)
FINE_STRUCTURE = 7.2973525693e-3

# Bohr magneton expressed as an equivalent length in bohr (hbar/2mc),
# which is the factor that turns <L> into a dipole-type matrix element
# in Rydberg atomic units.
BOHR_MAGNETON = FINE_STRUCTURE / 2.0


class TransitionOrderingError(ValueError):
    """Final state not above the initial state."""


class UnwiredTransitionError(ValueError):
    """A pair whose matrix element is not wired: B1 beyond sigma -> pi,
    E2 from a non-sigma initial state."""


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


def _pair_moments(state_i: SolvedState, state_f: SolvedState,
                  *kw: tuple[int, int], gradient: bool = False):
    """({key: xi integral}, {key: eta integral}, |i| |f|) of a state pair,
    on one 96-point rule pair at the combined decay scale (p_i + p_f)/2,
    each channel summed by one stacked `integrate` call: per (k, w) in kw

        int xi^k (xi^2-1)^w Xi Xf dxi,    int eta^k (1-eta^2)^w Yi Yf deta,

    and with gradient=True, keyed by "grad", the magnetic element's pieces

        int Xi [(xi^2-1) Xf' + xi Xf] dxi, int Yi [(1-eta^2) Yf' - eta Yf] deta.

    The norms come from the same call and rule: for each state s in
    (i, f), with L its Lambda, the rows (s, k) for k = 0, 2 hold

        int xi^k (xi^2-1)^L Xs^2 dxi,     int eta^k (1-eta^2)^L Ys^2 deta,

    and <s|s> = 2 pi a^3 [(s, 2)_xi (s, 0)_eta - (s, 0)_xi (s, 2)_eta].
    Each row sums as if it came alone, so the norm rows leave the others'
    bits as they are.  The rows take the channels on their own scales
    (ChannelArrays.vals): every element and |i| |f| carry the same four
    channel scales, so a squared element over |i|^2 |f|^2 is free of them.
    """
    rules = build_rules(0.5 * (state_i.params.p + state_f.params.p), 96)
    out = []
    for rule, ci, cf in zip(rules, state_i.channels(rules),
                            state_f.channels(rules)):
        x = rule.nodes
        sign = 1.0 if rule.channel == "xi" else -1.0
        base = sign * (x * x - 1.0)
        vi, vf, dvf = ci.vals, cf.vals, cf.dvals
        rows = {(k, w): x**k * base**w * vi * vf for k, w in kw}
        if gradient:
            rows["grad"] = vi * (base * dvf + sign * x * vf)
        for s, state, v in (("i", state_i, vi), ("f", state_f, vf)):
            wv2 = base**state.label.lam * v * v
            rows[s, 0], rows[s, 2] = wv2, x * x * wv2
        sums = integrate(rule, np.array(list(rows.values())))
        out.append(dict(zip(rows, sums)))
    X, Y = out
    norms = [X[s, 2] * Y[s, 0] - X[s, 0] * Y[s, 2] for s in "if"]
    for n in norms:
        if not 0.0 < n < math.inf:
            raise QuadratureError(
                f"norm integral not finite and positive: {n!r}")
    return X, Y, 2.0 * math.pi * state_i.setup.a**3 * math.sqrt(
        norms[0] * norms[1])


# ----------------------------------------------------------------------
# electric dipole


def dipole_matrix_element(state_i: SolvedState,
                          state_f: SolvedState) -> float:
    """S1 = |<i| r |f>|^2 for one final member; 0 when |dLambda| > 1."""
    dlam = abs(state_f.label.lam - state_i.label.lam)
    if dlam > 1 or not _parity_flips(state_i.label, state_f.label):
        return 0.0
    a = state_i.setup.a
    lam = min(state_i.label.lam, state_f.label.lam)
    if dlam == 0:
        X, Y, norm = _pair_moments(state_i, state_f, (3, lam), (1, lam))
        zme = 2.0 * math.pi * a**4 * (X[3, lam] * Y[1, lam]
                                      - X[1, lam] * Y[3, lam])
        return zme * zme / norm**2
    X, Y, norm = _pair_moments(state_i, state_f, (0, lam + 2), (0, lam + 1))
    J = X[0, lam + 2] * Y[0, lam + 1] + X[0, lam + 1] * Y[0, lam + 2]
    tme2 = 2.0 * (math.pi * a**4 * J) ** 2
    return tme2 / norm**2


# ----------------------------------------------------------------------
# magnetic dipole


def magnetic_matrix_element(state_i: SolvedState,
                            state_f: SolvedState) -> float:
    """Sum over final members of |<i| L |f_m>|^2 = |<i| L_- |f_+>|^2."""
    li, lf = state_i.label, state_f.label
    if abs(lf.lam - li.lam) != 1 or _parity_flips(li, lf):
        return 0.0
    if li.lam != 0 or lf.lam != 1:
        raise UnwiredTransitionError(
            f"magnetic elements wired for sigma -> pi only, not {li} -> {lf}")
    a3 = state_i.setup.a**3
    X, Y, norm = _pair_moments(state_i, state_f, (1, 1), (3, 0), (1, 0),
                               gradient=True)
    termA = -a3 * (X["grad"] * Y[1, 1] - X[1, 1] * Y["grad"])
    termB = -a3 * (X[3, 0] * Y[1, 0] - X[1, 0] * Y[3, 0])
    Lminus = 2.0 * math.pi * (termA + termB)
    return (Lminus / norm) ** 2


# ----------------------------------------------------------------------
# electric quadrupole


def quadrupole_matrix_element(state_i: SolvedState,
                              state_f: SolvedState) -> float:
    """S2 = |<i| r^2 C2_mu |f>|^2 for one final member, mu = dLambda."""
    li, lf = state_i.label, state_f.label
    dlam = abs(lf.lam - li.lam)
    if dlam > 2 or _parity_flips(li, lf):
        return 0.0
    if li.lam != 0:
        raise UnwiredTransitionError(
            f"quadrupole elements wired for a sigma initial state, not {li}")
    if dlam == 0:
        X, Y, norm = _pair_moments(state_i, state_f, (4, 0), (2, 0), (0, 0))
        raw = 0.5 * (3.0 * X[4, 0] * Y[2, 0]
                     - 3.0 * X[2, 0] * Y[4, 0]
                     - X[4, 0] * Y[0, 0]
                     + X[2, 0] * Y[0, 0]
                     - X[0, 0] * Y[2, 0]
                     + X[0, 0] * Y[4, 0])
    elif dlam == 1:
        X, Y, norm = _pair_moments(state_i, state_f, (1, 2), (1, 1))
        raw = math.sqrt(1.5) * (X[1, 2] * Y[1, 1] + X[1, 1] * Y[1, 2])
    else:
        X, Y, norm = _pair_moments(state_i, state_f, (0, 3), (0, 2))
        raw = math.sqrt(3.0 / 8.0) * (X[0, 3] * Y[0, 2] + X[0, 2] * Y[0, 3])
    me = 2.0 * math.pi * state_i.setup.a**5 * raw
    return (me / norm) ** 2


# kind -> (squared matrix element S, degeneracy G of the final label,
#          f as a function of (G, dE, S))
_KINDS = {
    "E1": (dipole_matrix_element, degeneracy,
           lambda G, dE, S: G * dE * S / 3.0),
    "B1": (lambda i, f: BOHR_MAGNETON**2 * magnetic_matrix_element(i, f),
           lambda final: 1, lambda G, dE, S: dE * S / 3.0),
    "E2": (quadrupole_matrix_element, degeneracy,
           lambda G, dE, S: FINE_STRUCTURE**2 / 240.0 * G * dE**3 * S),
}


def oscillator_strength(kind: str, state_i: SolvedState,
                        state_f: SolvedState) -> TransitionRecord:
    """Record of the i -> f transition of kind E1, B1 or E2 (any case)."""
    try:
        element, weight, strength = _KINDS[kind.upper()]
    except KeyError:
        raise ValueError(f"unknown transition kind {kind!r}") from None
    dE = state_f.energy.E_total - state_i.energy.E_total
    if dE <= 0.0:
        raise TransitionOrderingError(f"E_f <= E_i for {state_f.label}")
    S = element(state_i, state_f)
    G = weight(state_f.label)
    return TransitionRecord(kind.upper(), state_i.label, state_f.label,
                            state_i.setup.R, dE, S, G, strength(G, dE, S),
                            forbidden=(S == 0.0))
