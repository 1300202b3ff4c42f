"""Optimization seeds projected from the exact solution.

seed_for(label, R) solves the bispectral oracle and projects its exact
channel functions (oracle.exact_channels) onto the trial ansatz on a
Gauss rule pair at the oracle's p, each fit weighted by the quadrature
density w X_ex^2 of its channel:

- p is the oracle's p, and the seed's `origin` is the oracle's solution,
  whose energy lets optimize_state certify the seed;
- xi: with q = 1 + n + L - kappa fixed and u = gamma + xi,
  -log|X_ex/P_n| - q log u - p xi^2/u = alpha xi/u + c is linear in
  (alpha, c), so gamma in (-1, 20] is a bounded 1-D search over weighted
  linear fits; P_1 = xi - xi0 at the exact node;
- eta: log|Y_ex| = log C + log|cosh or sinh w| - nu log D is a weighted
  Levenberg-Marquardt fit over (a1, a2, b2, b3, log C) from two starts,
  a generic shape and one of the branch's own, and the lower residual
  wins.  The even branch starts from Levy's linearized rational fit of
  w D = eta N (IRE Trans. Autom. Control 4, 37 (1959)), iterated as
  Sanathanan and Koerner do (IEEE Trans. Autom. Control 8, 56 (1963));
  the odd branch from sinh(p eta), the shape the channel takes as R
  grows.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize_scalar

from .model import PhysicalSetup, StateLabel, require_supported
from .oracle import exact_channels, exact_node, solve_bispectral
from .quadrature import build_rules
from .trial import TrialParams

_FIT_N = 64          # Gauss rule size of the projection
_ETA_EVALS = 120     # cap on each eta fit's residual evaluations
_ETA_FTOL = 1e-9     # an eta fit stops on a smaller relative decrease
_SK_PASSES = 6       # Sanathanan-Koerner reweightings of Levy's fit


def _density(log_w, log_f, base, lam: int):
    """Fit weights w f^2 base^lam, scaled to a largest value of 1; nodes
    below 1e-20 of it are dropped (mask)."""
    d = log_w + 2.0 * log_f + lam * np.log(base)
    keep = d > d.max() - 46.0
    return np.exp(d[keep] - d.max()), keep


def _fit_xi(x, log_x, weights, p: float, q: float):
    """(alpha, gamma) of the xi phase fitted to log|X_ex/P_n|."""
    sw = np.sqrt(weights)

    def fit(gamma):
        u = gamma + x
        rhs = (-log_x - q * np.log(u) - p * x * x / u) * sw
        M = np.column_stack([x / u, np.ones_like(x)]) * sw[:, None]
        coef, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        return coef, float(np.sum((rhs - M @ coef) ** 2))

    best = minimize_scalar(lambda g: fit(g)[1], bounds=(-1.0, 20.0),
                           method="bounded", options=dict(xatol=1e-8))
    return fit(best.x)[0][0], float(best.x)


def _positive_on_unit(c0: float, c1: float, c2: float) -> bool:
    """Whether c0 + c1 s + c2 s^2 > 0 for every s in [0, 1]."""
    low = min(c0, c0 + c1 + c2)
    if c2 != 0.0 and 0.0 < -0.5 * c1 / c2 < 1.0:
        low = min(low, c0 - 0.25 * c1 * c1 / c2)
    return low > 0.0


def _in_domain(theta, p: float, odd: bool) -> bool:
    """Whether the eta shape keeps D, and on the odd branch the sinh
    argument's N, positive on s = eta^2 in [0, 1]."""
    a1, a2, b2, b3 = theta[:4]
    return (_positive_on_unit(1.0, b2, b3)
            and (not odd or _positive_on_unit(a1, p * a2, p * b3)))


def _fit_eta(starts, eta, log_y, weights, p: float, nu: float, odd: bool):
    """Of weighted least-squares fits of log|Y_ex| from each start shape
    (a1, a2, b2, b3), with log C at its weighted mean offset, the one of
    lower residual: (a1, a2, b2, b3)."""
    sw = np.sqrt(weights)
    e2 = eta * eta
    # d(w D)/d(a1, a2, b2, b3) at fixed w is rows - w * dD, dD = dD/d(...)
    rows = np.array([eta, p * eta * e2, 0.0 * eta, p * eta * e2 * e2])
    dD = np.array([0.0 * eta, 0.0 * eta, e2, e2 * e2])

    def parts(theta):
        a1, a2, b2, b3 = theta[:4]
        D = 1.0 + (b2 + b3 * e2) * e2
        w = eta * (a1 + p * (a2 + b3 * e2) * e2) / D
        # log|cosh or sinh w| up to the constant log 2; w > 0 when odd
        branch = (w + np.log(-np.expm1(-2.0 * w)) if odd
                  else np.abs(w) + np.log1p(np.exp(-2.0 * np.abs(w))))
        return D, w, branch - nu * np.log(D)

    def residual(theta):
        if not _in_domain(theta, p, odd):
            return np.full_like(eta, 1e6)
        return sw * (theta[4] + parts(theta)[2] - log_y)

    def jacobian(theta):
        """The transposed Jacobian, one row per parameter."""
        D, w, _ = parts(theta)
        slope = 1.0 / np.tanh(w) if odd else np.tanh(w)
        J = (slope * (rows - w * dD) - nu * dD) / D
        return np.vstack([J, np.ones_like(eta)]) * sw

    best = None
    for start in starts:
        if start is None or not _in_domain(start, p, odd):
            continue
        offset = np.sum(weights * (log_y - parts(start)[2])) / np.sum(weights)
        fit = _levenberg_marquardt(residual, jacobian,
                                   np.append(start, offset))
        if best is None or fit[1] < best[1]:
            best = fit
    return best[0][:4]


def _levenberg_marquardt(residual, jacobian, x):
    """(x, cost) of a least-squares minimum of residual(x) near x, by
    Levenberg-Marquardt steps scaled by the Jacobian's row norms (jacobian
    gives the transpose), within _ETA_EVALS residual evaluations.  Written
    out rather than taken from MINPACK, whose result varies in the last
    bits with the heap addresses of its work arrays."""
    r = residual(x)
    cost, mu, scale = float(r @ r), 1e-3, np.zeros_like(x)
    Jt = jacobian(x)
    for _ in range(_ETA_EVALS - 1):
        scale = np.maximum(scale, np.sqrt(np.sum(Jt * Jt, axis=1)))
        try:
            step = np.linalg.solve(Jt @ Jt.T + np.diag(mu * scale * scale),
                                   -(Jt @ r))
            r_try = residual(x + step)
            cost_try = float(r_try @ r_try)
        except np.linalg.LinAlgError:
            cost_try = math.inf
        if cost_try < cost:
            done = cost - cost_try <= _ETA_FTOL * cost
            x, r, cost = x + step, r_try, cost_try
            if done:
                break
            Jt = jacobian(x)
            mu = max(mu / 3.0, 1e-12)
        else:
            mu *= 4.0
            if mu > 1e12:
                break
    return x, cost


def _levy_start(eta, log_y, log_y0, weights, p: float, nu: float):
    """Even-branch start: w = arccosh(Y_ex D^nu / Y_ex(0)), then the
    linear fit of w D = eta N, reweighted by 1/D until D settles."""
    theta = np.zeros(4)
    D = np.ones_like(eta)
    e2 = eta * eta
    for _ in range(_SK_PASSES):
        z = np.maximum(log_y + nu * np.log(D) - log_y0, 0.0)
        w = z + np.log1p(np.sqrt(-np.expm1(-2.0 * z)))
        M = np.column_stack([eta, p * eta * e2, -w * e2,
                             (p * eta - w) * e2 * e2])
        sw = np.sqrt(weights) / D
        theta, *_ = np.linalg.lstsq(M * sw[:, None], w * sw, rcond=None)
        D = 1.0 + theta[2] * e2 + theta[3] * e2 * e2
        if not np.all(D > 0.0):
            return None
    return theta


def seed_for(label: StateLabel, R: float) -> TrialParams:
    """The oracle's exact solution at (label, R) projected onto the trial
    ansatz, with that solution as its origin; raises
    UnsupportedStateError, before any oracle call, for a label the
    variational solve does not cover."""
    require_supported(label)
    setup = PhysicalSetup(R)
    res = solve_bispectral(label, setup)
    p, lam = res.p, label.lam
    rx, re = build_rules(p, _FIT_N)
    half = re.nodes > 0.0
    eta = np.append(re.nodes[half], 0.0)
    (log_x, _), (log_y, _) = exact_channels(res, rx.nodes, eta)
    log_y0, log_y = log_y[-1], log_y[:-1]

    wx, keep = _density(np.log(rx.weights), log_x, rx.nodes ** 2 - 1.0, lam)
    x = rx.nodes[keep]
    log_x = log_x[keep]
    if label.n == 1:
        log_x = log_x - np.log(np.abs(x - exact_node(res)))
    kappa = (setup.Z1 + setup.Z2) * R / (2.0 * p)
    alpha, gamma = _fit_xi(x, log_x, wx, p, 1.0 + label.n + lam - kappa)

    eta = eta[:-1]
    we, keep = _density(np.log(re.weights[half]), log_y, 1.0 - eta ** 2, lam)
    eta, log_y = eta[keep], log_y[keep]
    nu = (1.0 + 2 * label.m + lam) / 4.0
    odd = label.parity == -1
    # a generic shape, and the branch's own start
    starts = [(0.8 * p, 0.015 * R * R, 0.015 * R * R, 0.0),
              (p, 0.0, 0.0, 0.0) if odd
              else _levy_start(eta, log_y, log_y0, we, p, nu)]
    a1, a2, b2, b3 = (float(v) for v in
                      _fit_eta(starts, eta, log_y, we, p, nu, odd))
    seed = TrialParams(float(alpha), gamma, a1, a2, b2, b3, p, origin=res)
    seed.validate()
    return seed
