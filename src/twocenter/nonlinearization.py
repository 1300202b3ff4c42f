"""Perturbation theory built on the trial state (non-linearization).

The trial channel function X0 = f0 exp(-phi0) defines an unperturbed
"potential" V0 = [(xi^2-1) X0'' + 2(L+1) xi X0'] / X0 (with A0 = 0), and
the defect V1 = V - V0 against the true channel potential
V(xi) = p^2 xi^2 - (Z1+Z2) R xi is the perturbation.  The first-order
separation constant and phase correction are

    A1 = int Q1 w X0^2 / int w X0^2,        Q1 = V1,  w = (xi^2-1)^L,
    x1(xi) = F(xi) / [(xi^2-1)^(L+1) X0^2], F = int_1^xi (A1-Q1) w X0^2,
    phi1(xi) = int_1^xi x1,                 phi1(1) = 0,

and the eta channel mirrors this with W(eta) = p^2 eta^2 on [-1, 1].
Higher orders of a nodeless xi channel repeat the step with
Q_n = -(xi^2-1) sum x_i x_{n-i} in place of V1.  Both channels and every
order run one shared pass: A from the channel's quadrature rule, then F
and G = int_1^xi w X0^2 accumulated on the tabulation grid, and a single
consistency pass A -> A - F(end)/G(end) that makes F vanish at the grid
end before the division by (x^2-1)^(L+1) X0^2.  The channel builders keep
only what differs: the xi tail cut and spline, the eta mirror, and the
node's log-regular split.
The physical p entering V and W comes from the variational energy, not
from the shape parameter p; with that choice the two channel estimates
A1_xi and A1_eta coincide identically for equal charges, so their spread
measures only the p source and the quadrature.

Products like V1 * X0^2 are always assembled in the pole-free form
(A1 w X0^2 - w V X0^2 + w [(xi^2-1) X0'' + 2(L+1) xi X0'] X0), which
stays analytic through the node of a single-node state.  For such states
the first-order node displacement f1 is produced by the boundary formula
at xi0, and the function correction acquires the exact local structure
X0 -> exp(-phi0) [d + f1 + c1 d log|d| + d r(d)],  d = xi - xi0, with
r regular; r' is integrated directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline

from .model import PhysicalSetup, StateLabel
from .quadrature import build_rules, integrate
from .trial import (TrialParams, channel_factor, channel_phase, prefactor,
                    phase_of_trial_eta, phase_of_trial_xi)

_GL8 = np.polynomial.legendre.leggauss(8)


@dataclass
class ChannelPT:
    """First-order perturbation data of one channel."""

    channel: str                       # "xi" or "eta"
    V1: Callable                       # perturbation potential on the channel
    A1: float
    correction_phase: Callable         # phi1 (xi) or rho1 (eta), interpolated
    correction_slope: Callable         # x1 = phi1' (resp. y1 = rho1')
    bound_C: float                     # sup of |V1| on the sampled domain
    pole: float | None = None          # node-state pole of V1, if any

    def __post_init__(self):
        if not (math.isfinite(self.A1) and math.isfinite(self.bound_C)):
            raise ValueError("non-finite first-order correction data")


# ----------------------------------------------------------------------
# channel potentials


def channel_potential_xi(params: TrialParams, label: StateLabel,
                         setup: PhysicalSetup, xi):
    """V0 reconstructed from the trial xi channel (pole at an f0 zero)."""
    xi = np.asarray(xi, dtype=float)
    _, dphi, ddphi = phase_of_trial_xi(params, label, setup, xi)
    f, df, ddf = prefactor(params, label, xi, "xi")
    lam = label.lam
    base = (xi * xi - 1.0) * (dphi * dphi - ddphi) - 2.0 * (lam + 1.0) * xi * dphi
    extra = (xi * xi - 1.0) * (ddf - 2.0 * df * dphi) + 2.0 * (lam + 1.0) * xi * df
    with np.errstate(divide="ignore", invalid="ignore"):
        out = base + extra / f
    return out


def channel_potential_eta(params: TrialParams, label: StateLabel, eta):
    """W0 reconstructed from the trial eta channel (smooth on [-1, 1])."""
    eta = np.asarray(eta, dtype=float)
    _, drho, ddrho = phase_of_trial_eta(params, label, eta)
    lam = label.lam
    base = (eta * eta - 1.0) * (drho * drho - ddrho) - 2.0 * (lam + 1.0) * eta * drho
    if label.parity == +1:
        return base
    # the odd branch has g = eta, the kinematic eta=0 zero; the ratio terms
    # stay smooth because drho/eta is even (rho0 is even)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(eta != 0.0, drho / eta, 0.0)
    if np.any(eta == 0.0):
        # rho0'(0)/0 -> rho0''(0), from the analytic second derivative
        idx = np.nonzero(eta == 0.0)
        ratio[idx] = ddrho[idx]
    return base + 2.0 * (lam + 1.0) - 2.0 * (eta * eta - 1.0) * ratio


def true_potential_xi(setup: PhysicalSetup, p_phys: float, xi):
    xi = np.asarray(xi, dtype=float)
    return p_phys**2 * xi * xi - (setup.Z1 + setup.Z2) * setup.R * xi


def true_potential_eta(p_phys: float, eta):
    eta = np.asarray(eta, dtype=float)
    return p_phys**2 * eta * eta


def riccati_residual_xi(params: TrialParams, label: StateLabel,
                        setup: PhysicalSetup, A: float, xi,
                        p_phys: float | None = None):
    """Residual of the xi channel equation in Riccati form; zero iff
    (X0, A) solve the channel ODE with the physical potential."""
    p = p_phys if p_phys is not None else params.p
    return channel_potential_xi(params, label, setup, xi) \
        - (true_potential_xi(setup, p, xi) - A)


def residual_custom_phase(phi_d1, phi_d2, V, A, lam, x):
    """Riccati residual for X = exp(-phase): fixture hook for exact cases."""
    x = np.asarray(x, dtype=float)
    d1, d2 = phi_d1(x), phi_d2(x)
    v0 = (x * x - 1.0) * (d1 * d1 - d2) - 2.0 * (lam + 1.0) * x * d1
    return v0 - (V(x) - A)


# ----------------------------------------------------------------------
# the first-order pass shared by both channels and all orders

_RULE_N = 96          # quadrature rule size of the A integrals
_SAMPLE_MAX = 50.0    # V1 is sampled on [1, _SAMPLE_MAX] for its bound
_XI_PTS = 2400        # xi tabulation points, up to 2 p (xi-1) = _TAU_CUT
_TAU_CUT = 30.0
_TAU_KEEP = 24.0      # the xi slope is kept up to 2 p (xi-1) = _TAU_KEEP
_ETA_PTS = 1601       # eta tabulation points on [-1, 0]


def _parts(params, label, setup, p_phys, x, scale, channel):
    """(w X0^2, pole-free V1 w X0^2 without its A term) on x."""
    lam = label.lam
    X, dX, ddX = channel_factor(params, label, setup, x, channel, scale)
    w = (x * x - 1.0) ** lam
    wX2 = w * X * X
    lhs = ((x * x - 1.0) * ddX + 2.0 * (lam + 1.0) * x * dX) * X * w
    V = (true_potential_xi(setup, p_phys, x) if channel == "xi"
         else true_potential_eta(p_phys, x))
    return wX2, V * wX2 - lhs


def _cumulative(fn, grid):
    """Cumulative integrals int_{grid_0}^{grid_j} of each array that fn
    returns, from one evaluation on the per-interval 8-point Gauss nodes."""
    gl_x, gl_w = _GL8
    a = grid[:-1]
    b = grid[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    pts = mid[:, None] + half[:, None] * gl_x[None, :]
    return [np.concatenate([[0.0], np.cumsum(half * (v.reshape(pts.shape)
                                                     @ gl_w))])
            for v in fn(pts.ravel())]


def _xi_grid(p_scale: float):
    u = np.linspace(0.0, 1.0, _XI_PTS)
    return 1.0 + (_TAU_CUT / (2.0 * p_scale)) * u * u


def _first_order(params, label, setup, p_phys, channel, q=None):
    """(A, grid, F, scale) of one channel: the first-order pass.

    A = int Q w X0^2 / int w X0^2 on the channel rule, where Q is the
    pole-free V1, or the callable q at higher orders.  F = int (A-Q) w X0^2
    and G = int w X0^2 accumulate on the tabulation grid from one parts
    evaluation per node; one consistency pass then makes F vanish exactly
    at the grid end, so the exponentially growing division by the slope
    denominator cannot amplify the quadrature floor."""
    if channel == "xi":
        rule = build_rules(params.p, _RULE_N)[0]
        grid = _xi_grid(params.p)
    else:
        rule = build_rules(max(params.p, 1.0), _RULE_N)[1]
        grid = np.linspace(-1.0, 0.0, _ETA_PTS)  # mirrored by the caller
    scale = float(np.min(channel_phase(params, label, setup, rule.nodes,
                                       channel)[0]))

    def parts(x):
        wX2, VwX2 = _parts(params, label, setup, p_phys, x, scale, channel)
        return wX2, (VwX2 if q is None else q(x) * wX2)

    wX2, QwX2 = parts(rule.nodes)
    num, den = integrate(rule, np.array([QwX2, wX2]))
    A = num / den

    def integrands(x):
        wX2, QwX2 = parts(x)
        return A * wX2 - QwX2, wX2

    F, G = _cumulative(integrands, grid)
    return A - F[-1] / G[-1], grid, F - F[-1] * (G / G[-1]), scale


def _slope(params, label, setup, channel, grid, F, scale, A, Q):
    """x1 = F / [(x^2-1)^(L+1) X0^2] on the grid; at its first point
    x = +-1 the regular limit (A - Q) / (2 (L+1) x)."""
    lam = label.lam
    phi = channel_phase(params, label, setup, grid, channel)[0]
    f = prefactor(params, label, grid, channel)[0]
    denom = (grid**2 - 1.0) ** (lam + 1) * f * f * np.exp(-2.0 * (phi - scale))
    with np.errstate(divide="ignore", invalid="ignore"):
        x1 = np.where(denom != 0.0, F / denom, 0.0)
    x1[0] = (A - float(Q(grid[:1])[0])) / (2.0 * (lam + 1.0)) * grid[0]
    return x1


# ----------------------------------------------------------------------
# first-order corrections, xi channel


def build_V1_xi(params: TrialParams, label: StateLabel, setup: PhysicalSetup,
                p_phys: float | None = None):
    """Perturbation V1 = V - V0 as a callable, with its sampled bound."""
    p = p_phys if p_phys is not None else params.p

    def V1(xi):
        return true_potential_xi(setup, p, xi) \
            - channel_potential_xi(params, label, setup, xi)

    pole = params.xi0
    xs = np.linspace(1.0, _SAMPLE_MAX, 4001)
    if pole is not None:
        xs = xs[np.abs(xs - pole) > 0.05]
    bound = float(np.max(np.abs(V1(xs))))
    if not math.isfinite(bound):
        raise ValueError("perturbation potential unbounded on sample set")
    return V1, bound, pole


def first_correction_xi(params: TrialParams, label: StateLabel,
                        setup: PhysicalSetup, p_phys: float) -> ChannelPT:
    """A1_xi and the tabulated phase correction phi1 of a nodeless xi
    channel (single-node states go through node_correction_xi)."""
    if label.n != 0:
        raise ValueError("first_correction_xi needs a nodeless state")
    A1, grid, F, scale = _first_order(params, label, setup, p_phys, "xi")
    V1, bound, pole = build_V1_xi(params, label, setup, p_phys)
    x1 = _slope(params, label, setup, "xi", grid, F, scale, A1, V1)
    return _package_xi(grid, x1, A1, V1, bound, pole, params.p)


def _package_xi(grid, x1, A1, V1, bound, pole, p_scale) -> ChannelPT:
    # the slope is cut beyond _TAU_KEEP, where the exponentially growing
    # division has nothing left to resolve; the slope spline and its
    # antiderivative give an exact, C2-smooth (function, derivative)
    # pair: smooth enough for the spectral rules and derivative-consistent
    # so the corrected state stays variational
    tail = int(np.searchsorted(grid, 1.0 + _TAU_KEEP / (2.0 * p_scale)))
    x1[tail:] = 0.0
    sl = slice(0, max(tail, 8))
    x1_ip = CubicSpline(grid[sl], x1[sl])
    phi1_ip = x1_ip.antiderivative()
    hi = grid[sl][-1]
    phi1_end = float(phi1_ip(hi))

    def phi1(x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= hi, phi1_end, phi1_ip(np.clip(x, grid[0], hi)))
        return out if out.ndim else float(out)

    def slope(x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= hi, 0.0, x1_ip(np.clip(x, grid[0], hi)))
        return out if out.ndim else float(out)

    return ChannelPT("xi", V1, A1, phi1, slope, bound, pole)


# ----------------------------------------------------------------------
# first-order corrections, eta channel


def build_W1_eta(params: TrialParams, label: StateLabel, p_phys: float):
    def W1(eta):
        return true_potential_eta(p_phys, eta) \
            - channel_potential_eta(params, label, eta)

    es = np.linspace(-1.0, 1.0, 4001)
    bound = float(np.max(np.abs(W1(es))))
    if not math.isfinite(bound):
        raise ValueError("perturbation potential unbounded on [-1, 1]")
    return W1, bound


def first_correction_eta(params: TrialParams, label: StateLabel,
                         p_phys: float) -> ChannelPT:
    """A1_eta and the tabulated phase correction rho1 (even in eta)."""
    A1, grid, F, scale = _first_order(params, label, None, p_phys, "eta")
    W1, bound = build_W1_eta(params, label, p_phys)
    # computed on [-1, 0] and mirrored: y1 is odd, rho1 even
    y1 = _slope(params, label, None, "eta", grid, F, scale, A1, W1)
    y1[-1] = 0.0

    full = np.concatenate([grid, -grid[-2::-1]])
    y1_full = np.concatenate([y1, -y1[-2::-1]])
    y1_ip = CubicSpline(full, y1_full)
    rho1_anti = y1_ip.antiderivative()
    rho1_mid = float(rho1_anti(0.0))  # gauge rho1(0) = 0

    def rho1(x):
        out = rho1_anti(np.clip(np.asarray(x, dtype=float), -1.0, 1.0)) - rho1_mid
        return out if out.ndim else float(out)

    def slope(x):
        out = y1_ip(np.clip(np.asarray(x, dtype=float), -1.0, 1.0))
        return out if out.ndim else float(out)

    return ChannelPT("eta", W1, A1, rho1, slope, bound)


def consistency_residual(A1_xi: float, A1_eta: float) -> tuple[float, float]:
    """Absolute and relative spread of the two channel estimates."""
    d = abs(A1_xi - A1_eta)
    return d, d / max(abs(A1_xi), abs(A1_eta), 1e-300)


# ----------------------------------------------------------------------
# single-node xi channel: node displacement and regularized correction


@dataclass
class NodeCorrection:
    """First-order data of a single-node xi channel.

    The corrected channel function is
        X = exp(-phi0) [ d + f1 + c1 d log|d| + d r(d) ],   d = xi - xi0,
    where r (regular) is tabulated; f1 is the node displacement
    (node moves to xi0 - f1 at first order).
    """

    f1: float
    c1: float
    r: Callable
    dr: Callable
    xi0: float
    A1: float


def node_correction_xi(params: TrialParams, label: StateLabel,
                       setup: PhysicalSetup, p_phys: float) -> NodeCorrection:
    if label.n != 1 or params.xi0 is None:
        raise ValueError("node_correction_xi needs a single-node state")
    lam = label.lam
    xi0 = params.xi0
    # h' = -F/denom has a double pole at xi0: split off its log-regular part
    A1, grid, F, scale0 = _first_order(params, label, setup, p_phys, "xi")
    Fip = CubicSpline(grid, F)

    phi0_0, dphi0_0, _ = phase_of_trial_xi(params, label, setup,
                                           np.array([xi0]))
    # D0 = (xi^2-1)^(L+1) exp(-2(phi0-scale0)); f0' = 1 (monic node factor)
    D0 = (xi0**2 - 1.0) ** (lam + 1) * math.exp(-2.0 * (phi0_0[0] - scale0))
    f1 = float(Fip(xi0)) / D0
    dlogD0 = 2.0 * (lam + 1.0) * xi0 / (xi0**2 - 1.0) - 2.0 * dphi0_0[0]
    c1 = f1 * float(dlogD0)

    def dr_raw(x):
        x = np.asarray(x, dtype=float)
        phi, dphi, _ = phase_of_trial_xi(params, label, setup, x)
        d = x - xi0
        denom = (x * x - 1.0) ** (lam + 1) * d * d * np.exp(-2.0 * (phi - scale0))
        with np.errstate(divide="ignore", invalid="ignore"):
            hp = -Fip(np.clip(x, grid[0], grid[-1])) / denom
            return hp + f1 / (d * d) - c1 / d

    def dr_fn(x):
        # r' is regular through xi0 but its formula is 0/0 there; bridge
        # the immediate neighbourhood linearly from clean side points
        x = np.asarray(x, dtype=float)
        d = x - xi0
        eps = 1e-5
        out = dr_raw(np.where(np.abs(d) < eps, xi0 + 2.0 * eps, x))
        near = np.abs(d) < eps
        if np.any(near):
            lo = dr_raw(np.array([xi0 - eps]))[0]
            hi = dr_raw(np.array([xi0 + eps]))[0]
            t = (d[near] + eps) / (2.0 * eps)
            out[near] = lo + (hi - lo) * t
        return out

    # r' is regular through xi0; integrate it on the tabulation grid,
    # then anchor the gauge with h(1) = 0 on the left branch.
    rp, = _cumulative(lambda x: (dr_fn(x),), grid)
    r0 = -(f1 / (grid[0] - xi0) + c1 * math.log(abs(grid[0] - xi0)))
    r_ip = CubicSpline(grid, rp + r0)

    def r_fn(x):
        return r_ip(np.clip(np.asarray(x, dtype=float), grid[0], grid[-1]))

    def dr_pub(x):
        return dr_fn(np.clip(np.asarray(x, dtype=float), grid[0], grid[-1]))

    return NodeCorrection(f1=f1, c1=c1, r=r_fn, dr=dr_pub, xi0=xi0, A1=A1)


# ----------------------------------------------------------------------
# generic higher-order recurrence (nodeless gauge f_k = 0 for k >= 1)


def higher_Q_xi(prev_slopes: list, x):
    """Q_n for nodeless states: -(xi^2-1) sum_{i=1}^{n-1} x_i x_{n-i}."""
    x = np.asarray(x, dtype=float)
    n = len(prev_slopes) + 1
    acc = np.zeros_like(x)
    for i in range(1, n):
        acc += prev_slopes[i - 1](x) * prev_slopes[n - i - 1](x)
    return -(x * x - 1.0) * acc


def next_correction_xi(params: TrialParams, label: StateLabel,
                       setup: PhysicalSetup, prev: list) -> ChannelPT:
    """Order-(len(prev)+1) correction of a nodeless xi channel."""
    if label.n != 0:
        raise ValueError("higher orders are implemented for nodeless states")

    def qn(x):
        return higher_Q_xi([c.correction_slope for c in prev], x)

    An, grid, F, scale = _first_order(params, label, setup, params.p, "xi",
                                      q=qn)
    xn = _slope(params, label, setup, "xi", grid, F, scale, An, qn)
    return _package_xi(grid, xn, An, qn, float(np.max(np.abs(qn(grid)))),
                       None, params.p)
