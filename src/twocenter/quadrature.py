"""Quadrature rules and prolate-spheroidal matrix elements.

All 3D integrals factorize through the volume element (R/2)^3 (xi^2-eta^2)
dxi deta dphi into products of 1D channel moments.  The xi rule is a
Gauss-Laguerre rule mapped as xi = 1 + t/(2 p_scale), matched to the
exp(-2p xi) decay of the squared channel function; the eta rule is
Gauss-Legendre on [-1, 1].  Moment accumulation uses Shewchuk (fsum)
summation, so reruns are deterministic to the bit.  The long-double
accumulator of the extended mode is reached only through `integrate` and
`channel_moments`; the trial-state front ends always sum in the standard
mode.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_laguerre

from .model import EnergyPair, PhysicalSetup, StateLabel
from .trial import (ChannelArrays, TrialParams, channel_factor, eta_channel,
                    xi_channel)


class QuadratureError(RuntimeError):
    """Quadrature produced an unusable result (non-positive norm, ...)."""


class QuadratureConvergenceError(QuadratureError):
    """Doubling the rule moved the result beyond tolerance."""

    def __init__(self, coarse: float, fine: float, rtol: float):
        self.coarse = coarse
        self.fine = fine
        self.rtol = rtol
        super().__init__(
            f"no quadrature plateau: N gave {coarse!r}, 2N gave {fine!r} "
            f"(rtol {rtol:g})"
        )


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of one channel rule."""

    nodes: np.ndarray
    weights: np.ndarray
    channel: str  # "xi" or "eta"
    count: int


@functools.lru_cache(maxsize=None)
def _base_rules(N: int) -> tuple[np.ndarray, ...]:
    """Gauss-Laguerre roots and exp(t)-scaled weights, Gauss-Legendre nodes
    and weights: shared by every call, hence read-only."""
    t, w = roots_laguerre(N)
    with np.errstate(divide="ignore"):
        wt = np.where(w > 0.0, np.exp(np.log(w) + t), 0.0)
    out = (t, wt, *np.polynomial.legendre.leggauss(N))
    for a in out:
        a.flags.writeable = False
    return out


def build_rules(p_scale: float, N: int) -> tuple[QuadratureRule, QuadratureRule]:
    """Deterministic (xi, eta) rules adapted to decay scale exp(-2 p_scale xi)."""
    if N < 8:
        raise ValueError(f"rule size N={N} is too small (need N >= 8)")
    if not p_scale > 0.0:
        raise ValueError(f"p_scale must be positive, got {p_scale}")
    t, wt, nodes_e, w_e = _base_rules(N)
    scale = 2.0 * p_scale
    return (
        QuadratureRule(1.0 + t / scale, wt / scale, "xi", N),
        QuadratureRule(nodes_e, w_e, "eta", N),
    )


def integrate(rule: QuadratureRule, values: np.ndarray,
              extended: bool = False) -> float:
    """Sum weights*values with error-free-transform accumulation."""
    prod = rule.weights * values
    if extended:
        return float(np.sum(prod.astype(np.longdouble)))
    return math.fsum(prod.tolist())


@dataclass(frozen=True)
class ChannelMoments:
    """The 1D integrals of one channel for a state pair.

    s0/s1/s2 are overlap-type moments with weight (xi^2-1)^L (resp.
    (1-eta^2)^L); kin/cross/cent assemble the gradient-form kinetic
    energy.  True values carry the factor exp(-logscale).
    """

    s0: float
    s1: float
    s2: float
    kin: float
    cross: float
    cent: float
    logscale: float


def _channel_weight(rule: QuadratureRule, lam: int):
    x = rule.nodes
    if rule.channel == "xi":
        base = x * x - 1.0
        kinw = base
        crossfac = float(lam) * x
        cent = lam * lam * (x * x + 1.0) * base ** (lam - 1) if lam >= 1 else None
    else:
        base = 1.0 - x * x
        kinw = base
        crossfac = -float(lam) * x
        cent = lam * lam * (1.0 + x * x) * base ** (lam - 1) if lam >= 1 else None
    return base**lam, kinw, crossfac, cent


def channel_moments(ca: ChannelArrays, cb: ChannelArrays, rule: QuadratureRule,
                    lam: int, extended: bool = False) -> ChannelMoments:
    """Pair moments of two (scaled) channel evaluations on the same rule."""
    x = rule.nodes
    w, kinw, crossfac, cent = _channel_weight(rule, lam)
    ab = ca.vals * cb.vals
    dd = ca.dvals * cb.dvals
    cr = ca.dvals * cb.vals + ca.vals * cb.dvals
    s0 = integrate(rule, ab * w, extended)
    s1 = integrate(rule, x * ab * w, extended)
    s2 = integrate(rule, x * x * ab * w, extended)
    kin = integrate(rule, kinw * dd * w, extended)
    cross = integrate(rule, crossfac * cr * w, extended)
    centm = integrate(rule, cent * ab, extended) if cent is not None else 0.0
    return ChannelMoments(s0, s1, s2, kin, cross, centm,
                          ca.logscale + cb.logscale)


def assemble_energy(mx: ChannelMoments, me: ChannelMoments,
                    setup: PhysicalSetup) -> EnergyPair:
    """E' and E_total from the channel moments of a normalized-in-place state."""
    a2 = setup.a * setup.a
    denom = mx.s2 * me.s0 - mx.s0 * me.s2
    if denom <= 0.0:
        raise QuadratureError(f"non-positive norm integral: {denom!r}")
    zsum = setup.Z1 + setup.Z2
    zdif = setup.Z1 - setup.Z2
    num = (
        (mx.kin + mx.cross + mx.cent) * me.s0
        + (me.kin + me.cross + me.cent) * mx.s0
        - 2.0 * setup.a * (zsum * mx.s1 * me.s0 + zdif * mx.s0 * me.s1)
    )
    E_prime = num / (a2 * denom)
    E_total = E_prime + setup.repulsion
    p = math.sqrt(-E_prime) * setup.R / 2.0 if E_prime < 0.0 else float("nan")
    return EnergyPair(E_total, E_prime, p)


def norm_from_moments(m_xi: ChannelMoments, m_eta: ChannelMoments,
                      setup: PhysicalSetup) -> float:
    """<Psi|Psi> = 2 pi (R/2)^3 [S2_xi S0_eta - S0_xi S2_eta], true scale.

    The moment logscales already carry the scale of both factors, so a
    single exp(-logscale) per channel restores the true magnitude."""
    val = m_xi.s2 * m_eta.s0 - m_xi.s0 * m_eta.s2
    if val <= 0.0:
        raise QuadratureError(f"non-positive norm integral: {val!r}")
    return 2.0 * math.pi * setup.a**3 * val * math.exp(-(m_xi.logscale + m_eta.logscale))


# ----------------------------------------------------------------------
# trial-state front ends


def trial_channels(params: TrialParams, label: StateLabel,
                   setup: PhysicalSetup, rules):
    """The trial state's scaled (xi, eta) channels on the rule pair."""
    rx, re = rules
    return (xi_channel(params, label, setup, rx.nodes),
            eta_channel(params, label, re.nodes))


def trial_moments(channels, label: StateLabel, rules):
    """Self-pair moments of a trial state's (xi, eta) channels."""
    (cx, ce), (rx, re) = channels, rules
    return (channel_moments(cx, cx, rx, label.lam),
            channel_moments(ce, ce, re, label.lam))


def norm_squared(params: TrialParams, label: StateLabel, setup: PhysicalSetup,
                 rules) -> float:
    """Full 3D squared norm of the (unnormalized) trial state."""
    mx, me = trial_moments(trial_channels(params, label, setup, rules), label,
                           rules)
    return norm_from_moments(mx, me, setup)


def energy_from_channels(channels, label: StateLabel, setup: PhysicalSetup,
                         rules) -> EnergyPair:
    """rayleigh_quotient of the trial state with these channels on rules."""
    return assemble_energy(*trial_moments(channels, label, rules), setup)


def rayleigh_quotient(params: TrialParams, label: StateLabel,
                      setup: PhysicalSetup, rules) -> EnergyPair:
    """Variational energy <H>/<1> in Ry, gradient-form kinetic energy."""
    return energy_from_channels(trial_channels(params, label, setup, rules),
                                label, setup, rules)


def rayleigh_converged(params: TrialParams, label: StateLabel,
                       setup: PhysicalSetup, p_scale: float, N: int,
                       rtol: float = 1e-11) -> tuple[EnergyPair, float]:
    """Rayleigh quotient with an (N, 2N) plateau check.

    Returns the fine-rule energy and the relative shift; raises
    QuadratureConvergenceError when doubling moves E beyond rtol.
    """
    coarse = rayleigh_quotient(params, label, setup, build_rules(p_scale, N))
    fine = rayleigh_quotient(params, label, setup, build_rules(p_scale, 2 * N))
    shift = abs(fine.E_total - coarse.E_total) / max(1.0, abs(fine.E_total))
    if shift > rtol:
        raise QuadratureConvergenceError(coarse.E_total, fine.E_total, rtol)
    return fine, shift


def kinetic_energy(params: TrialParams, label: StateLabel, setup: PhysicalSetup,
                   rules, form: str = "weak") -> float:
    """<Psi|-Laplacian|Psi> in Ry; strong form is a cross-check oracle."""
    rx, re = rules
    lam = label.lam
    cx, ce = channels = trial_channels(params, label, setup, rules)
    mx, me = trial_moments(channels, label, rules)
    scale = math.exp(-(mx.logscale + me.logscale))
    if form == "weak":
        val = (mx.kin + mx.cross + mx.cent) * me.s0 \
            + (me.kin + me.cross + me.cent) * mx.s0
        return 2.0 * math.pi * setup.a * val * scale
    if form != "strong":
        raise ValueError(f"unknown kinetic form {form!r}")

    xi = rx.nodes
    ddX = channel_factor(params, label, setup, xi, "xi", cx.logscale)[2]
    lx = -(xi**2 - 1.0) * ddX - 2.0 * (lam + 1.0) * xi * cx.dvals \
        - lam * (lam + 1.0) * cx.vals
    tx = integrate(rx, lx * cx.vals * (xi**2 - 1.0) ** lam)

    eta = re.nodes
    ddY = channel_factor(params, label, setup, eta, "eta", ce.logscale)[2]
    ly = -(1.0 - eta**2) * ddY + 2.0 * (lam + 1.0) * eta * ce.dvals \
        + lam * (lam + 1.0) * ce.vals
    te = integrate(re, ly * ce.vals * (1.0 - eta**2) ** lam)

    return 2.0 * math.pi * setup.a * (tx * me.s0 + mx.s0 * te) * scale
