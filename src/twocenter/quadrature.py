"""Quadrature rules and prolate-spheroidal matrix elements.

All 3D integrals factorize through the volume element (R/2)^3 (xi^2-eta^2)
dxi deta dphi into products of 1D channel moments.  The xi rule is a
Gauss-Laguerre rule mapped as xi = 1 + t/(2 p_scale), matched to the
exp(-2p xi) decay of the squared channel function; the eta rule is
Gauss-Legendre on [-1, 1].  `integrate` is the one moment kernel: each
result makes one call per rule, with its integrands stacked as rows, and
each row is summed by Shewchuk's fsum, so sums do not depend on numpy's
summation order and reruns are deterministic to the bit.  Its long-double
accumulator (extended) is reached only through `integrate` and
`channel_moments`; the trial-state front ends sum in the standard mode.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import EnergyPair, PhysicalSetup, StateLabel
from .trial import ChannelArrays, TrialParams, eta_channel, xi_channel


class QuadratureError(RuntimeError):
    """Quadrature produced an unusable result (non-positive norm, ...)."""


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of one channel rule."""

    nodes: np.ndarray
    weights: np.ndarray
    channel: str  # "xi" or "eta"
    count: int


def _gauss(N: int, laguerre: bool) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the N-point Gauss-Laguerre (weights times
    exp(t)) or Gauss-Legendre rule.

    Golub-Welsch nodes (Math. Comp. 23, 221 (1969)), the eigenvalues of the
    Jacobi matrix of the orthonormal recurrence x p_k = b_(k+1) p_(k+1)
    + a_k p_k + b_k p_(k-1), take two Newton steps on p_N in long double;
    each weight is then 1 / sum_(k<N) p_k^2 = 1 / (b_N (p_N' p_(N-1)
    - p_(N-1)' p_N)) (Christoffel-Darboux), whose second term takes out
    the first-order error of a node rounded to long double.  The
    Laguerre recurrence starts from exp(-t/2), so its weights come out
    exp(t)-scaled and stay in range for any N."""
    k = np.arange(N + 1, dtype=np.longdouble)
    a = 2.0 * k + 1.0 if laguerre else 0.0 * k
    b = k if laguerre else k / np.sqrt(np.maximum(4.0 * k * k - 1.0, 1.0))
    jacobi = np.diag(a[:N]) + np.diag(b[1:N], 1) + np.diag(b[1:N], -1)
    x = np.linalg.eigvalsh(jacobi.astype(float)).astype(np.longdouble)
    for step in range(3):
        p_prev, dp_prev = 0.0 * x, 0.0 * x
        p = (np.exp(-0.5 * x) if laguerre
             else np.full_like(x, np.sqrt(np.longdouble(0.5))))
        dp = 0.0 * x  # the derivative of p_k, scaled as p_k is
        for j in range(N):
            p_prev, p, dp_prev, dp = (
                p, ((x - a[j]) * p - b[j] * p_prev) / b[j + 1],
                dp, ((x - a[j]) * dp + p - b[j] * dp_prev) / b[j + 1])
        if step < 2:
            x = x - p / dp
    w = 1.0 / (b[N] * (dp * p_prev - dp_prev * p))
    if not laguerre:  # exactly symmetric, so odd integrands sum to zero
        x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    return x.astype(float), w.astype(float)


@functools.lru_cache(maxsize=None)
def _base_rules(N: int) -> tuple[np.ndarray, ...]:
    """Gauss-Laguerre roots and exp(t)-scaled weights, Gauss-Legendre nodes
    and weights: shared by every call, hence read-only."""
    out = (*_gauss(N, True), *_gauss(N, False))
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
              extended: bool = False) -> float | list[float]:
    """Sum weights*values along the last axis: a float for one row of N
    values, the list of row sums for a (k, N) stack.  Each row is summed
    by fsum, or in long double under extended, as if it came alone."""
    prod = rule.weights * values
    if extended:
        sums = np.sum(prod.astype(np.longdouble), axis=-1)
        return sums.astype(float).tolist()
    rows = prod.tolist()
    return math.fsum(rows) if prod.ndim == 1 else list(map(math.fsum, rows))


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


def channel_moments(ca: ChannelArrays, cb: ChannelArrays, rule: QuadratureRule,
                    lam: int, extended: bool = False) -> ChannelMoments:
    """Pair moments of two (scaled) channel evaluations on the same rule.

    The weight base is xi^2-1 on the xi rule and 1-eta^2 on the eta rule,
    one sign times x^2-1; the cross factor is that sign times lam x.
    A cb of k stacked rows gives each moment as an array of k values,
    all from the same integrate call; row i sums as if it came alone.
    """
    x = rule.nodes
    sign = 1.0 if rule.channel == "xi" else -1.0
    base = sign * (x * x - 1.0)
    w = base**lam
    ab = ca.vals * cb.vals
    rows = [ab * w, x * ab * w, x * x * ab * w,
            base * (ca.dvals * cb.dvals) * w]
    if lam:  # the cross and centrifugal moments vanish for lam = 0
        rows += [sign * lam * x * (ca.dvals * cb.vals + ca.vals * cb.dvals) * w,
                 lam * lam * (x * x + 1.0) * base ** (lam - 1) * ab]
    rows = np.array(rows)
    sums, zero = integrate(rule, rows.reshape(-1, x.size), extended), 0.0
    if rows.ndim == 3:
        sums = list(np.reshape(sums, rows.shape[:2]))
        zero = np.zeros(rows.shape[1])
    return ChannelMoments(*(sums + [zero, zero])[:6],
                          ca.logscale + cb.logscale)


def _forms(mx: ChannelMoments, me: ChannelMoments, setup: PhysicalSetup):
    """(numerator, denominator) of E' a^2: each linear in mx and in me."""
    zsum = setup.Z1 + setup.Z2
    zdif = setup.Z1 - setup.Z2
    num = (
        (mx.kin + mx.cross + mx.cent) * me.s0
        + (me.kin + me.cross + me.cent) * mx.s0
        - 2.0 * setup.a * (zsum * mx.s1 * me.s0 + zdif * mx.s0 * me.s1)
    )
    return num, mx.s2 * me.s0 - mx.s0 * me.s2


def assemble_energy(mx: ChannelMoments, me: ChannelMoments,
                    setup: PhysicalSetup) -> EnergyPair:
    """E' and E_total from the channel moments of a normalized-in-place state."""
    num, denom = _forms(mx, me, setup)
    if denom <= 0.0:
        raise QuadratureError(f"non-positive norm integral: {denom!r}")
    E_prime = num / (setup.a * setup.a * denom)
    E_total = E_prime + setup.repulsion
    p = math.sqrt(-E_prime) * setup.R / 2.0 if E_prime < 0.0 else float("nan")
    return EnergyPair(E_total, E_prime, p)


def _split(m: ChannelMoments) -> tuple[ChannelMoments, ChannelMoments]:
    """Moments M(c, [c; dc]) of a channel stack as M(c, c) in floats and
    the derivative moments d M(c, c) = 2 M(c, dc), one per row of dc."""
    rows = (m.s0, m.s1, m.s2, m.kin, m.cross, m.cent)
    return (ChannelMoments(*(float(v[0]) for v in rows), m.logscale),
            ChannelMoments(*(2.0 * v[1:] for v in rows), m.logscale))


def energy_gradient(channels, label: StateLabel, setup: PhysicalSetup,
                    rules) -> tuple[EnergyPair, np.ndarray]:
    """energy_from_channels of row 0 of each channel stack, to the bit,
    and the gradient of E_total over the other rows, xi first: num and
    den of E' = num/(a^2 den) are linear in each channel's moments, so
    dE' = (d num - a^2 E' d den) / (a^2 den)."""
    mx, me = (_split(channel_moments(
        ChannelArrays(c.vals[0], c.dvals[0], c.logscale), c, rule, label.lam))
        for c, rule in zip(channels, rules))
    energy = assemble_energy(mx[0], me[0], setup)
    a2 = setup.a * setup.a
    den = _forms(mx[0], me[0], setup)[1]
    grad = [(dnum - a2 * energy.E_prime * dden) / (a2 * den)
            for dnum, dden in (_forms(mx[1], me[0], setup),
                               _forms(mx[0], me[1], setup))]
    return energy, np.concatenate(grad)


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
                   setup: PhysicalSetup, rules, grad: bool = False):
    """The trial state's scaled (xi, eta) channels on the rule pair, with
    their derivative rows when grad."""
    rx, re = rules
    return (xi_channel(params, label, setup, rx.nodes, grad=grad),
            eta_channel(params, label, re.nodes, grad))


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
