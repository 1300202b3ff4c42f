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
        # 1 + b2 s + b3 s^2 > 0 on s = eta^2 in [0, 1]
        ends = min(1.0, 1.0 + self.b2 + self.b3)
        if self.b3 != 0.0:
            s_star = -0.5 * self.b2 / self.b3
            if 0.0 < s_star < 1.0:
                ends = min(ends, 1.0 + self.b2 * s_star + self.b3 * s_star**2)
        if not ends > 0.0:
            raise ParamDomainError(
                f"eta denominator not positive on [-1,1]: b2={self.b2}, b3={self.b3}"
            )
        if self.xi0 is not None and not self.xi0 > 1.0:
            raise ParamDomainError(f"node position must satisfy xi0 > 1, got {self.xi0}")

    def replace(self, **kw) -> "TrialParams":
        from dataclasses import replace as _replace

        return _replace(self, **kw)


def effective_kappa(params: TrialParams, setup: PhysicalSetup) -> float:
    """(Z1+Z2) R / (2p): equals R/p for the symmetric singly-charged pair."""
    return (setup.Z1 + setup.Z2) * setup.R / (2.0 * params.p)


# ----------------------------------------------------------------------
# smooth phase of the xi channel


def phase_of_trial_xi(params: TrialParams, label: StateLabel,
                      setup: PhysicalSetup, xi):
    """Phase phi0 of X = P_n exp(-phi0) and its first two derivatives.

    The prefactors carrying zeros ((xi^2-1)^(L/2), P_n) are excluded:
    phi0 = (1+n+L-kappa) log(gamma+xi) + xi (alpha + p xi)/(gamma+xi).
    """
    xi = np.asarray(xi, dtype=float)
    al, g, p = params.alpha, params.gamma, params.p
    q = 1.0 + label.n + label.lam - effective_kappa(params, setup)
    gx = g + xi
    u = xi * (al + p * xi) / gx
    c = g * (p * g - al)
    du = p - c / gx**2
    ddu = 2.0 * c / gx**3
    phi = q * np.log(gx) + u
    dphi = q / gx + du
    ddphi = -q / gx**2 + ddu
    return phi, dphi, ddphi


# ----------------------------------------------------------------------
# smooth phase of the eta channel

_SMALL_W = 0.25


def _coth_minus_inv(w):
    """S(w) = coth w - 1/w, stable through w = 0."""
    w = np.asarray(w, dtype=float)
    out = np.empty_like(w)
    small = np.abs(w) < _SMALL_W
    ws = w[small]
    w2 = ws * ws
    out[small] = ws * (1.0 / 3.0 + w2 * (-1.0 / 45.0 + w2 * (2.0 / 945.0 - w2 / 4725.0)))
    wl = w[~small]
    out[~small] = 1.0 / np.tanh(wl) - 1.0 / wl
    return out


def _dcoth_minus_inv(w):
    """S'(w) = 1/w^2 - 1/sinh^2 w, stable through w = 0."""
    w = np.asarray(w, dtype=float)
    out = np.empty_like(w)
    small = np.abs(w) < _SMALL_W
    ws = w[small]
    w2 = ws * ws
    out[small] = 1.0 / 3.0 + w2 * (-1.0 / 15.0 + w2 * (2.0 / 189.0 - 7.0 * w2 / 4725.0))
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
    out[small] = np.log1p(w2 / 6.0 * (1.0 + w2 / 20.0 * (1.0 + w2 / 42.0)))
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


def phase_of_trial_eta(params: TrialParams, label: StateLabel, eta):
    """Phase rho0 of Y = g exp(-rho0) with its first two derivatives.

    g = 1 on the even branch and eta on the odd one, so rho0 is smooth
    and even; the odd branch requires the cosh/sinh argument to stay
    positive for eta > 0 (a1 > 0 for the seeds).
    """
    eta = np.asarray(eta, dtype=float)
    nu = (1.0 + 2 * label.m + label.lam) / 4.0
    N, D, dN, dD, ddN, ddD = _eta_rationals(params, eta)
    P = eta * N
    dP = N + eta * dN
    ddP = 2.0 * dN + eta * ddN
    w = P / D
    dw = dP / D - P * dD / D**2
    ddw = ddP / D - (2.0 * dP * dD + P * ddD) / D**2 + 2.0 * P * dD**2 / D**3

    logD = np.log(D)
    dlogD = dD / D
    ddlogD = ddD / D - (dD / D) ** 2

    if label.parity == +1:
        th = np.tanh(w)
        lt = _log_cosh(w)
        dlt = th * dw
        ddlt = (1.0 - th * th) * dw * dw + th * ddw
    else:
        if not params.a1 > 0.0:
            raise ParamDomainError("odd-branch phase requires a1 > 0")
        if np.any(N <= 0.0):
            raise ParamDomainError("odd-branch phase requires a positive sinh argument")
        S = _coth_minus_inv(w)
        dS = _dcoth_minus_inv(w)
        M = dN / N - dD / D
        dM = ddN / N - (dN / N) ** 2 - ddD / D + (dD / D) ** 2
        lt = _log_sinh_over_w(w) + np.log(N / D)
        dlt = S * dw + M
        ddlt = dS * dw * dw + S * ddw + dM

    rho = nu * logD - lt
    drho = nu * dlogD - dlt
    ddrho = nu * ddlogD - ddlt
    return rho, drho, ddrho


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
                   setup: PhysicalSetup, x, channel: str, logscale: float):
    """(X, X', X'') of one channel (sans its (x^2-1)^(L/2) factor) on x,
    times exp(logscale)."""
    phi, dphi, ddphi = channel_phase(params, label, setup, x, channel)
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
                nodes):
    """(exp(-(phi0 - logscale)), phi0', logscale): xi channel sans P_n."""
    phi, dphi, _ = phase_of_trial_xi(params, label, setup, nodes)
    logscale = float(np.min(phi))
    return np.exp(-(phi - logscale)), dphi, logscale


def xi_channel(params: TrialParams, label: StateLabel, setup: PhysicalSetup,
               nodes, envelope=None) -> ChannelArrays:
    """X (sans (xi^2-1)^(L/2)) and X' on a grid, in scaled form, reusing
    `envelope` (xi_envelope on these nodes) when given."""
    nodes = np.asarray(nodes, dtype=float)
    e, dphi, logscale = envelope or xi_envelope(params, label, setup, nodes)
    f, df, _ = prefactor(params, label, nodes, "xi")
    return ChannelArrays(f * e, (df - f * dphi) * e, logscale, nodes)


def eta_channel(params: TrialParams, label: StateLabel,
                nodes) -> ChannelArrays:
    """Y (sans (1-eta^2)^(L/2)) and Y' on a grid, in scaled form."""
    nodes = np.asarray(nodes, dtype=float)
    rho, drho, _ = phase_of_trial_eta(params, label, nodes)
    logscale = float(np.min(rho))
    e = np.exp(-(rho - logscale))
    g, dg, _ = prefactor(params, label, nodes, "eta")
    return ChannelArrays(g * e, (dg - g * drho) * e, logscale, nodes)


# ----------------------------------------------------------------------
# public point evaluation


def eval_X(params: TrialParams, label: StateLabel, setup: PhysicalSetup, xi):
    """Full xi factor of the trial state, including (xi^2-1)^(L/2)."""
    params.validate()
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < 1.0):
        raise ParamDomainError("xi must be >= 1")
    phi, _, _ = phase_of_trial_xi(params, label, setup, xi)
    f = prefactor(params, label, xi, "xi")[0]
    with np.errstate(under="ignore"):
        out = (xi**2 - 1.0) ** (label.lam / 2.0) * f * np.exp(-phi)
    return out if out.ndim else float(out)


def eval_Y(params: TrialParams, label: StateLabel, eta):
    """Full eta factor of the trial state, including (1-eta^2)^(L/2)."""
    params.validate()
    eta = np.asarray(eta, dtype=float)
    if np.any(np.abs(eta) > 1.0):
        raise ParamDomainError("eta must lie in [-1, 1]")
    e2 = eta * eta
    N, D, *_ = _eta_rationals(params, eta)
    w = eta * N / D
    nu = (1.0 + 2 * label.m + label.lam) / 4.0
    branch = np.cosh(w) if label.parity == +1 else np.sinh(w)
    out = (1.0 - e2) ** (label.lam / 2.0) * D ** (-nu) * branch
    return out if out.ndim else float(out)


def eval_psi(params: TrialParams, label: StateLabel, setup: PhysicalSetup,
             xi, eta, phi_angle):
    """Complete (unnormalized) trial wavefunction X * Y * exp(i L phi)."""
    xy = eval_X(params, label, setup, xi) * eval_Y(params, label, eta)
    return xy * np.exp(1j * label.lam * np.asarray(phi_angle, dtype=float))


# ----------------------------------------------------------------------
# asymptotic phase expansions


def wkb_phase_xi_large(E_total: float, A: float, label: StateLabel,
                       setup: PhysicalSetup, xi):
    """Three printed terms of the large-xi WKB phase of X = exp(-phase)."""
    from .model import p_from_energy

    xi = np.asarray(xi, dtype=float)
    p = p_from_energy(E_total, setup)
    kap = (setup.Z1 + setup.Z2) * setup.R / (2.0 * p)
    lam = label.lam
    tail = (A + (kap - lam - 1.0) * (kap + lam)) / p - p
    out = p * xi - (kap - lam - 1.0) * np.log(xi) + tail / (2.0 * xi)
    return out if out.ndim else float(out)


def pt_phase_xi_small(E_total: float, A: float, label: StateLabel,
                      setup: PhysicalSetup, xi):
    """Quartic truncation of the small-xi phase series of X = exp(-phase)."""
    from .model import p_from_energy

    xi = np.asarray(xi, dtype=float)
    p = p_from_energy(E_total, setup)
    lam = label.lam
    c3 = (setup.Z1 + setup.Z2) * setup.R / 6.0
    c4 = (p * p + A * A - A * (2 * lam + 3)) / 12.0
    out = -0.5 * A * xi**2 - c3 * xi**3 + c4 * xi**4
    return out if out.ndim else float(out)


def wkb_phase_eta_large(E_total: float, A: float, label: StateLabel,
                        setup: PhysicalSetup, eta):
    """Large-argument phase of the analytically continued eta channel."""
    from .model import p_from_energy

    eta = np.asarray(eta, dtype=float)
    p = p_from_energy(E_total, setup)
    lam = label.lam
    tail = (A - lam * (lam + 1.0)) / p - p
    out = -p * eta + (lam + 1.0) * np.log(eta) - tail / (2.0 * eta)
    return out if out.ndim else float(out)


def pt_phase_eta_small(E_total: float, A: float, label: StateLabel,
                       setup: PhysicalSetup, eta):
    """Quartic truncation of the small-eta phase series of Y = exp(-phase)."""
    from .model import p_from_energy

    eta = np.asarray(eta, dtype=float)
    p = p_from_energy(E_total, setup)
    c4 = (p * p + A * A - A * (2 * label.lam + 3)) / 12.0
    out = -0.5 * A * eta**2 + c4 * eta**4
    return out if out.ndim else float(out)


# ----------------------------------------------------------------------
# classic baseline functions


def eval_hund_mulliken(alpha2: float, setup: PhysicalSetup, parity: int, xi, eta):
    """Two-exponential baseline: 2 exp(-a2 R xi) cosh-or-sinh(a2 R eta)."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    branch = np.cosh if parity == +1 else np.sinh
    with np.errstate(under="ignore"):
        out = 2.0 * np.exp(-alpha2 * setup.R * xi) * branch(alpha2 * setup.R * eta)
    return out if out.ndim else float(out)


def eval_guillemin_zener(alpha3: float, alpha4: float, setup: PhysicalSetup,
                         parity: int, xi, eta):
    """Screened-pair baseline: 2 exp(-(a3+a4) R xi) cosh-or-sinh((a3-a4) R eta)."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    branch = np.cosh if parity == +1 else np.sinh
    with np.errstate(under="ignore"):
        out = 2.0 * np.exp(-(alpha3 + alpha4) * setup.R * xi) \
            * branch((alpha3 - alpha4) * setup.R * eta)
    return out if out.ndim else float(out)
