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
  least-squares fit over the shape (a1, a2, b2, b3) from two starts, a
  generic shape and one of the branch's own, and the lower residual
  wins.  log C enters linearly, so it is projected out (variable
  projection: Golub and Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)),
  and Levenberg-Marquardt runs over the shape alone, within 50 evaluations.
  The even branch starts from Levy's linearized rational fit of w D = eta N
  (IRE Trans. Autom. Control 4, 37 (1959)), iterated as Sanathanan and
  Koerner do (IEEE Trans. Autom. Control 8, 56 (1963)); the odd branch
  from sinh(p eta), the shape the channel takes as R grows.  The fit
  rejects a start or step outside the shape's domain by the
  ParamDomainError of trial.check_eta_shape.
"""

from __future__ import annotations

import math

import numpy as np

from .model import PhysicalSetup, StateLabel, require_supported
from .oracle import exact_channels, exact_node, solve_bispectral
from .quadrature import build_rules
from .trial import (ParamDomainError, TrialParams, check_eta_shape,
                    eta_exponent, xi_exponent)

_FIT_N = 64          # Gauss rule size of the projection
_ETA_EVALS = 50      # cap on each eta fit's model evaluations
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

    gamma = _brent_min(lambda g: fit(g)[1], -1.0, 20.0, 1e-8)
    return fit(gamma)[0][0], gamma


def _brent_min(f, a: float, b: float, xtol: float) -> float:
    """A local minimum of f on [a, b] to xtol: Brent's golden-section
    search with parabolic steps (Algorithms for Minimization without
    Derivatives, 1973, ch. 5, as Forsythe, Malcolm and Moler's fmin
    writes it), within 500 evaluations.  x is the best point so far, w
    the second best and v the one before."""
    golden = 0.5 * (3.0 - math.sqrt(5.0))
    x = w = v = a + golden * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    for _ in range(499):
        xm = 0.5 * (a + b)
        tol1 = math.sqrt(2.2e-16) * abs(x) + xtol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            break
        parabolic = False
        if abs(e) > tol1:  # the parabola through (v, w, x)
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                parabolic, d = True, p / q
                if x + d - a < tol2 or b - (x + d) < tol2:
                    d = tol1 if xm >= x else -tol1
        if not parabolic:
            e = a - x if x >= xm else b - x
            d = golden * e
        u = x + (1.0 if d >= 0.0 else -1.0) * max(abs(d), tol1)
        fu = f(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x


def _eta_model(eta, log_y, weights, p: float, nu: float, odd: bool):
    """theta = (a1, a2, b2, b3) -> (r, jacobian): r = sw (log C + log|cosh
    or sinh w| - nu log D - log|Y_ex|) at the log C that minimizes |r|, the
    weighted mean offset, i.e. projected off sw; jacobian() gives r's
    transposed Jacobian, projected alike, from the same D and w."""
    sw = np.sqrt(weights)
    u = sw / math.sqrt(weights.sum())
    e2 = eta * eta
    # d(w D)/d(a1, a2, b2, b3) at fixed w is rows - w * dD, dD = dD/d(...)
    rows = np.array([eta, p * eta * e2, 0.0 * eta, p * eta * e2 * e2])
    dD = np.array([0.0 * eta, 0.0 * eta, e2, e2 * e2])

    def model(theta):
        a1, a2, b2, b3 = theta
        check_eta_shape(a1, a2, b2, b3, p, odd)
        D = 1.0 + (b2 + b3 * e2) * e2
        w = eta * (a1 + p * (a2 + b3 * e2) * e2) / D
        # log|cosh or sinh w| up to the constant log 2; w > 0 when odd
        branch = (w + np.log(-np.expm1(-2.0 * w)) if odd
                  else np.abs(w) + np.log1p(np.exp(-2.0 * np.abs(w))))
        r = sw * (branch - nu * np.log(D) - log_y)

        def jacobian():
            slope = 1.0 / np.tanh(w) if odd else np.tanh(w)
            Jt = (slope * (rows - w * dD) - nu * dD) * (sw / D)
            return Jt - np.outer(Jt @ u, u)
        return r - u * (u @ r), jacobian
    return model


def _fit_eta(starts, eta, log_y, weights, p: float, nu: float, odd: bool):
    """The best fit of _eta_model from the start shapes in its domain;
    ParamDomainError when no start is in it."""
    model = _eta_model(eta, log_y, weights, p, nu, odd)
    best = None
    for start in starts:
        try:
            fit = _levenberg_marquardt(model, np.array(start, dtype=float))
        except ParamDomainError:  # a start off the domain
            continue
        if best is None or fit[1] < best[1]:
            best = fit
    if best is None:
        raise ParamDomainError("no eta start shape in the parameter domain")
    return best[0]


def _levenberg_marquardt(model, x):
    """(x, cost) of a least-squares minimum of model(x)[0] near x, by
    Levenberg-Marquardt steps scaled by the Jacobian's row norms, within
    _ETA_EVALS evaluations, a step off the domain (ParamDomainError) or of
    a singular system rejected.  A rejected step only raises mu; mu follows
    the gain ratio by Nielsen's rule (IMM-REP-1999-05), which stops it
    see-sawing along curved valleys.  Written out rather than taken from
    MINPACK, whose result varies in the last bits with the heap addresses
    of its work arrays."""
    r, jacobian = model(x)
    cost, mu, grow, scale, moved = float(r @ r), 1e-3, 2.0, 0.0, True
    for _ in range(_ETA_EVALS - 1):
        if moved:
            Jt = jacobian()
            scale = np.maximum(scale, np.sqrt(np.sum(Jt * Jt, axis=1)))
            JtJ, g = Jt @ Jt.T, Jt @ r
        try:
            damp = mu * scale * scale
            step = np.linalg.solve(JtJ + np.diag(damp), -g)
            r_try, jacobian_try = model(x + step)
            cost_try = float(r_try @ r_try)
        except (np.linalg.LinAlgError, ParamDomainError):
            cost_try = math.inf
        moved = cost_try < cost
        if moved:
            rho = (cost - cost_try) / (step @ (damp * step) - g @ step)
            done = cost - cost_try <= _ETA_FTOL * cost
            x, r, cost, jacobian = x + step, r_try, cost_try, jacobian_try
            if done:
                break
            mu, grow = max(mu * max(1 / 3, 1 - (2 * rho - 1) ** 3), 1e-12), 2.0
        else:
            mu, grow = mu * grow, 2.0 * grow
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
        try:
            check_eta_shape(*theta, p)
        except ParamDomainError:
            break  # _fit_eta skips the start
        D = 1.0 + theta[2] * e2 + theta[3] * e2 * e2
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
    alpha, gamma = _fit_xi(x, log_x, wx, p, xi_exponent(label, setup, p))

    eta = eta[:-1]
    we, keep = _density(np.log(re.weights[half]), log_y, 1.0 - eta ** 2, lam)
    eta, log_y = eta[keep], log_y[keep]
    nu = eta_exponent(label)
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
