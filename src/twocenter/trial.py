"""Compact trial wavefunctions for the two-center Coulomb problem.

The ansatz factorizes as

    Psi = X(xi) (xi^2-1)^(L/2) Y(eta) (1-eta^2)^(L/2) exp(+-i L phi),

with

    X(xi)  = P_n(xi) (gamma+xi)^(-(1+n+L-kappa)) exp(-xi(alpha+p xi)/(gamma+xi)),
    Y(eta) = Q_m(eta^2) (1+b2 eta^2+b3 eta^4)^(-(1+2m+L)/4) * cosh-or-sinh(w),
    w      = eta (a1 + p a2 eta^2 + p b3 eta^4) / (1 + b2 eta^2 + b3 eta^4),

where kappa = (Z1+Z2) R / (2p) and L is the magnetic quantum number.  The
exponent of the (gamma+xi) power reproduces the logarithmic term of the
large-xi WKB phase, so the growing parts of the phase are exact by
construction.  The package implements n <= 1 and m = 0, so P_n is 1 or
xi - xi0 (xi0 > 1, the nodal spheroid radius) and Q_m == 1.

For numerics the smooth, nonvanishing part of each channel lives in a
phase: X = f exp(-phi0) with f = P_n, and Y = g exp(-rho0) with g = 1
(even branch) or g = eta (odd branch, the kinematic parity node); the
closed-form `prefactor` gives f or g with two derivatives.
Channel evaluation is done relative to a per-grid log offset so that
p xi of several hundreds never overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .model import PhysicalSetup, StateLabel
from .oracle import OracleResult


class ParamDomainError(ValueError):
    """Trial parameters violate their domain constraints."""


@dataclass(frozen=True)
class TrialParams:
    """Parameters of the trial wavefunction of one state at one R.

    `origin`, set by presets.seed_for, is the oracle solution the
    parameters were projected from; it takes no part in comparison,
    hashing or repr, and `replace` carries it along.
    """

    alpha: float
    gamma: float
    a1: float
    a2: float
    b2: float
    b3: float
    p: float
    xi0: float | None = None
    origin: OracleResult | None = field(default=None, compare=False,
                                        repr=False)

    def validate(self) -> None:
        if not self.p > 0.0:
            raise ParamDomainError(f"p must be positive, got {self.p}")
        if not self.gamma > -1.0:
            raise ParamDomainError(
                f"gamma must exceed -1 so gamma+xi > 0 on xi >= 1, got {self.gamma}"
            )
        check_eta_shape(self.a1, self.a2, self.b2, self.b3, self.p)
        if self.xi0 is not None and not self.xi0 > 1.0:
            raise ParamDomainError(f"node position must satisfy xi0 > 1, got {self.xi0}")

    def replace(self, **kw) -> "TrialParams":
        from dataclasses import replace as _replace

        return _replace(self, **kw)


def check_eta_shape(a1: float, a2: float, b2: float, b3: float, p: float,
                    odd: bool = False) -> None:
    """The eta shape's one domain rule, exact rather than sampled: for all
    s = eta^2 in [0, 1] the denominator D = 1 + b2 s + b3 s^2 of w = eta N/D
    is positive, and on the odd branch, whose phase takes log(N/D), so is
    N = a1 + p a2 s + p b3 s^2.  Raises ParamDomainError."""
    for name, c0, c1, c2 in (("denominator", 1.0, b2, b3),
                             ("sinh argument", a1, p * a2, p * b3))[:1 + odd]:
        low = min(c0 + c1 + c2, c0)  # a NaN coefficient stays in low
        if c2 != 0.0 and 0.0 < -0.5 * c1 / c2 < 1.0:
            low = min(low, c0 - 0.25 * c1 * c1 / c2)
        if not low > 0.0:
            raise ParamDomainError(f"eta {name} not positive on [-1,1] at "
                                   f"(a1, a2, b2, b3, p) = {a1, a2, b2, b3, p}")


def xi_exponent(label: StateLabel, setup: PhysicalSetup, p: float) -> float:
    """q of X's (gamma+xi)^(-q): 1 + n + L - kappa, kappa = (Z1+Z2) R/(2p)."""
    return (1.0 + label.n + label.lam
            - (setup.Z1 + setup.Z2) * setup.R / (2.0 * p))


def eta_exponent(label: StateLabel) -> float:
    """nu of Y's (1 + b2 eta^2 + b3 eta^4)^(-nu): (1 + 2m + L)/4."""
    return (1.0 + 2 * label.m + label.lam) / 4.0


# ----------------------------------------------------------------------
# smooth phase of the xi channel


def _xi_terms(params: TrialParams, label: StateLabel, setup: PhysicalSetup,
              xi):
    """(q, gamma + xi, u, c) of phi0 = q log(gamma+xi) + u, with
    u = xi (alpha + p xi)/(gamma+xi) and c = gamma (p gamma - alpha)."""
    xi = np.asarray(xi, dtype=float)
    al, g, p = params.alpha, params.gamma, params.p
    gx = g + xi
    return (xi_exponent(label, setup, p), gx, xi * (al + p * xi) / gx,
            g * (p * g - al))


def phase_of_trial_xi(params: TrialParams, label: StateLabel,
                      setup: PhysicalSetup, xi):
    """Phase phi0 of X = P_n exp(-phi0) and its first two derivatives.

    The prefactors carrying zeros ((xi^2-1)^(L/2), P_n) are excluded:
    phi0 = (1+n+L-kappa) log(gamma+xi) + xi (alpha + p xi)/(gamma+xi).
    """
    q, gx, u, c = _xi_terms(params, label, setup, xi)
    return (q * np.log(gx) + u, q / gx + (params.p - c / gx**2),
            -q / gx**2 + 2.0 * c / gx**3)


# ----------------------------------------------------------------------
# smooth phase of the eta channel

_SMALL_W = 0.25
# below _SMALL_W, coth w - 1/w = sum_n 2^(2n) B_2n w^(2n-1) / (2n)! to n = 11
# (Abramowitz & Stegun 4.5.67) and sinh w / w - 1 = sum_k w^(2k) / (2k+1)!
# to k = 9 are complete to double precision; coefficients highest first
_B2N = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
        Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6),
        Fraction(-3617, 510), Fraction(43867, 798), Fraction(-174611, 330),
        Fraction(854513, 138))
_COTH = [float(4**n * b / math.factorial(2 * n))
         for n, b in enumerate(_B2N, start=1)][::-1]
_DCOTH = [(2 * n - 1) * c for n, c in zip(range(len(_COTH), 0, -1), _COTH)]
_SINHC = [1.0 / math.factorial(2 * k + 1) for k in range(9, 0, -1)]


def _coth_minus_inv(w):
    """S(w) = coth w - 1/w, stable through w = 0."""
    w = np.asarray(w, dtype=float)
    out = np.empty_like(w)
    small = np.abs(w) < _SMALL_W
    ws = w[small]
    out[small] = ws * np.polyval(_COTH, ws * ws)
    wl = w[~small]
    out[~small] = 1.0 / np.tanh(wl) - 1.0 / wl
    return out


def _dcoth_minus_inv(w):
    """S'(w) = 1/w^2 - 1/sinh^2 w, stable through w = 0."""
    w = np.asarray(w, dtype=float)
    out = np.empty_like(w)
    small = np.abs(w) < _SMALL_W
    out[small] = np.polyval(_DCOTH, w[small] ** 2)
    wl = w[~small]
    sh = np.sinh(np.clip(np.abs(wl), None, 350.0))
    out[~small] = 1.0 / wl**2 - 1.0 / sh**2
    return out


def _log_sinh_over_w(w):
    """log(sinh w / w), even, stable through w = 0."""
    w = np.abs(np.asarray(w, dtype=float))
    out = np.empty_like(w)
    small = w < _SMALL_W
    w2 = w[small] ** 2
    out[small] = np.log1p(w2 * np.polyval(_SINHC, w2))
    wl = w[~small]
    out[~small] = wl + np.log(-np.expm1(-2.0 * wl)) - np.log(2.0 * wl)
    return out


def _log_cosh(w):
    w = np.abs(np.asarray(w, dtype=float))
    return w + np.log1p(np.exp(-2.0 * w)) - math.log(2.0)


def _eta_rationals(params: TrialParams, eta):
    """N, D polynomials of the cosh/sinh argument w = eta N/D and derivatives."""
    p = params.p
    e2 = eta * eta
    N = params.a1 + p * params.a2 * e2 + p * params.b3 * e2 * e2
    D = 1.0 + params.b2 * e2 + params.b3 * e2 * e2
    dN = 2.0 * p * params.a2 * eta + 4.0 * p * params.b3 * eta * e2
    dD = 2.0 * params.b2 * eta + 4.0 * params.b3 * eta * e2
    ddN = 2.0 * p * params.a2 + 12.0 * p * params.b3 * e2
    ddD = 2.0 * params.b2 + 12.0 * params.b3 * e2
    return N, D, dN, dD, ddN, ddD


def _eta_slope(params: TrialParams, label: StateLabel, eta):
    """rho0, rho0' and the terms that rho0'' and the gradient reuse:
    (nu, N, D, dN, dD, ddN, ddD, w, w', T) with T = d lt/dw, where lt is
    log cosh w (even branch) or log(sinh w / w) + log(N/D) (odd)."""
    check_eta_shape(params.a1, params.a2, params.b2, params.b3, params.p,
                    odd=label.parity == -1)
    nu = eta_exponent(label)
    N, D, dN, dD, ddN, ddD = _eta_rationals(params, eta)
    P = eta * N
    w = P / D
    dw = (N + eta * dN) / D - P * dD / D**2
    if label.parity == +1:
        T = np.tanh(w)
        lt = _log_cosh(w)
        dlt = T * dw
    else:
        T = _coth_minus_inv(w)
        lt = _log_sinh_over_w(w) + np.log(N / D)
        dlt = T * dw + (dN / N - dD / D)
    return (nu * np.log(D) - lt, nu * (dD / D) - dlt,
            (nu, N, D, dN, dD, ddN, ddD, w, dw, T))


def phase_of_trial_eta(params: TrialParams, label: StateLabel, eta):
    """Phase rho0 of Y = g exp(-rho0) with its first two derivatives.

    g = 1 on the even branch and eta on the odd one, so rho0 is smooth
    and even; check_eta_shape holds the shape's domain.
    """
    eta = np.asarray(eta, dtype=float)
    rho, drho, (nu, N, D, dN, dD, ddN, ddD, w, dw, T) = \
        _eta_slope(params, label, eta)
    P, dP = eta * N, N + eta * dN
    ddw = ((2.0 * dN + eta * ddN) / D - (2.0 * dP * dD + P * ddD) / D**2
           + 2.0 * P * dD**2 / D**3)
    if label.parity == +1:
        ddlt = (1.0 - T * T) * dw * dw + T * ddw
    else:
        ddlt = (_dcoth_minus_inv(w) * dw * dw + T * ddw
                + (ddN / N - (dN / N) ** 2 - ddD / D + (dD / D) ** 2))
    return rho, drho, nu * (ddD / D - (dD / D) ** 2) - ddlt


def _eta_gradient(params: TrialParams, label: StateLabel, eta, terms):
    """(d rho0, d rho0'): (4, N) stacks over (a1, a2, b2, b3)."""
    nu, N, D, dN, dD, _, _, w, dw, T = terms
    p, e2, zero = params.p, eta * eta, np.zeros_like(eta)
    # d/d(a1, a2, b2, b3) of N, D and of their eta-slopes dN, dD
    gN = np.array([zero + 1.0, p * e2, zero, p * e2 * e2])
    gD = np.array([zero, zero, e2, e2 * e2])
    gdN = np.array([zero, 2.0 * p * eta, zero, 4.0 * p * eta * e2])
    gdD = np.array([zero, zero, 2.0 * eta, 4.0 * eta * e2])
    gw = (eta * gN - w * gD) / D
    gdw = (gN + eta * gdN - gw * dD - w * gdD - dw * gD) / D
    glogD, gdlogD = gD / D, (gdD - dD * gD / D) / D
    if label.parity == +1:
        return (nu * glogD - T * gw,
                nu * gdlogD - (1.0 - T * T) * dw * gw - T * gdw)
    # lt carries log(N/D), and T = S(w)
    return (nu * glogD - T * gw - gN / N + glogD,
            nu * gdlogD - _dcoth_minus_inv(w) * dw * gw - T * gdw
            - (gdN - dN * gN / N) / N + gdlogD)


def channel_phase(params: TrialParams, label: StateLabel,
                  setup: PhysicalSetup, x, channel: str):
    """phase_of_trial_xi or phase_of_trial_eta, by channel name."""
    if channel == "xi":
        return phase_of_trial_xi(params, label, setup, x)
    return phase_of_trial_eta(params, label, x)


def prefactor(params: TrialParams, label: StateLabel, x, channel: str):
    """(g, g', g'') of the channel's prefactor: xi - xi0 on the xi channel
    of a single-node state, eta on the odd eta branch, 1 otherwise."""
    if channel == "xi" and params.xi0 is not None:
        return np.asarray(x, dtype=float) - params.xi0, 1.0, 0.0
    if channel == "eta" and label.parity == -1:
        return np.asarray(x, dtype=float), 1.0, 0.0
    return 1.0, 0.0, 0.0


def channel_factor(params: TrialParams, label: StateLabel,
                   setup: PhysicalSetup, x, channel: str, logscale: float,
                   phase=None):
    """(X, X', X'') of one channel (sans its (x^2-1)^(L/2) factor) on x,
    times exp(logscale), reusing `phase` (channel_phase on x) when given."""
    phi, dphi, ddphi = phase or channel_phase(params, label, setup, x,
                                              channel)
    g, dg, ddg = prefactor(params, label, x, channel)
    e = np.exp(-(phi - logscale))
    return (g * e, (dg - g * dphi) * e,
            (ddg - 2.0 * dg * dphi - g * ddphi + g * dphi * dphi) * e)


# ----------------------------------------------------------------------
# scaled channel evaluation for quadrature


@dataclass
class ChannelArrays:
    """Channel function and derivative on a grid, times exp(logscale)."""

    vals: np.ndarray
    dvals: np.ndarray
    logscale: float  # true value = vals * exp(-logscale)
    nodes: np.ndarray = field(repr=False, default=None)


def xi_envelope(params: TrialParams, label: StateLabel, setup: PhysicalSetup,
                nodes, grad: bool = False):
    """(exp(-(phi0 - logscale)), phi0', logscale): xi channel sans P_n.
    With grad a fourth item holds (d phi0, d phi0'), (2, N) stacks over
    (alpha, gamma)."""
    nodes = np.asarray(nodes, dtype=float)
    q, gx, u, c = _xi_terms(params, label, setup, nodes)
    phi = q * np.log(gx) + u
    dphi = q / gx + (params.p - c / gx**2)
    logscale = float(np.min(phi))
    out = (np.exp(-(phi - logscale)), dphi, logscale)
    if not grad:
        return out
    g, g2 = params.gamma, gx * gx
    return out + ((np.array([nodes / gx, (q - u) / gx]),
                   np.array([g / g2, (2.0 * c / gx - q
                                      - (2.0 * params.p * g - params.alpha))
                             / g2])),)


def _with_gradient(ch: ChannelArrays, gphase, gslope) -> ChannelArrays:
    """ch with its derivative rows stacked below it, for a channel
    g exp(-phase) whose prefactor g takes no part: d vals = -vals d phase,
    d dvals = -dvals d phase - vals d phase'."""
    return ChannelArrays(
        np.vstack([ch.vals, -ch.vals * gphase]),
        np.vstack([ch.dvals, -ch.dvals * gphase - ch.vals * gslope]),
        ch.logscale, ch.nodes)


def xi_channel(params: TrialParams, label: StateLabel, setup: PhysicalSetup,
               nodes, envelope=None, grad: bool = False) -> ChannelArrays:
    """X (sans (xi^2-1)^(L/2)) and X' on a grid, in scaled form, reusing
    `envelope` (xi_envelope on these nodes, with grad as here) when given.

    With grad, rows below the channel's hold its derivatives over (alpha,
    gamma), then xi0 when the trial has a node.  The logscale is held
    fixed, which the energy, a ratio, does not see.
    """
    nodes = np.asarray(nodes, dtype=float)
    env = envelope or xi_envelope(params, label, setup, nodes, grad)
    e, dphi, logscale = env[:3]
    f, df, _ = prefactor(params, label, nodes, "xi")
    ch = ChannelArrays(f * e, (df - f * dphi) * e, logscale, nodes)
    if not grad:
        return ch
    ch = _with_gradient(ch, *env[3])
    if params.xi0 is not None:  # f = xi - xi0
        ch.vals = np.vstack([ch.vals, -e])
        ch.dvals = np.vstack([ch.dvals, dphi * e])
    return ch


def eta_channel(params: TrialParams, label: StateLabel, nodes,
                grad: bool = False) -> ChannelArrays:
    """Y (sans (1-eta^2)^(L/2)) and Y' on a grid, in scaled form; with
    grad, rows below the channel's hold its derivatives over (a1, a2, b2,
    b3)."""
    nodes = np.asarray(nodes, dtype=float)
    rho, drho, terms = _eta_slope(params, label, nodes)
    logscale = float(np.min(rho))
    e = np.exp(-(rho - logscale))
    g, dg, _ = prefactor(params, label, nodes, "eta")
    ch = ChannelArrays(g * e, (dg - g * drho) * e, logscale, nodes)
    if not grad:
        return ch
    return _with_gradient(ch, *_eta_gradient(params, label, nodes, terms))


# ----------------------------------------------------------------------
# public point evaluation


def eval_X(params: TrialParams, label: StateLabel, setup: PhysicalSetup, xi):
    """Full xi factor of the trial state, including (xi^2-1)^(L/2)."""
    params.validate()
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < 1.0):
        raise ParamDomainError("xi must be >= 1")
    with np.errstate(under="ignore"):
        out = (xi**2 - 1.0) ** (label.lam / 2.0) * channel_factor(
            params, label, setup, xi, "xi", 0.0)[0]
    return out if out.ndim else float(out)


def eval_Y(params: TrialParams, label: StateLabel, eta):
    """Full eta factor of the trial state, including (1-eta^2)^(L/2)."""
    params.validate()
    eta = np.asarray(eta, dtype=float)
    if np.any(np.abs(eta) > 1.0):
        raise ParamDomainError("eta must lie in [-1, 1]")
    out = (1.0 - eta**2) ** (label.lam / 2.0) * channel_factor(
        params, label, None, eta, "eta", 0.0)[0]
    return out if out.ndim else float(out)


def eval_psi(params: TrialParams, label: StateLabel, setup: PhysicalSetup,
             xi, eta, phi_angle):
    """Complete (unnormalized) trial wavefunction X * Y * exp(i L phi)."""
    xy = eval_X(params, label, setup, xi) * eval_Y(params, label, eta)
    return xy * np.exp(1j * label.lam * np.asarray(phi_angle, dtype=float))
