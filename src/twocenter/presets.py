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
  linear fits in closed form; P_1 = xi - xi0 at the exact node;
- eta: log|Y_ex| = log C + log|cosh or sinh w| - nu log D is a weighted
  least-squares fit over the shape (a1, a2, b2, b3) from two starts, a
  generic shape and one of the branch's own, and the lower residual
  wins.  log C enters linearly, so it is projected out (variable
  projection: Golub and Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)),
  and Levenberg-Marquardt runs over the shape alone, within 50 evaluations.
  D and w D = eta N come from one product over fixed rows in eta, and
  each damped 4x4 step is an unrolled Cholesky solve on Python floats.
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


def _xi_regression(x, log_x, weights, p: float, q: float):
    """gamma -> (alpha, c, cost) of the weighted fit of alpha xi/u + c to
    -log|X_ex/P_n| - q log u - p xi^2/u, u = gamma + xi, from weighted means:
    alpha = sum w dz dy / sum w dz^2 for the deviations dz of z = xi/u and dy,
    c = mean(y) - alpha mean(z), cost = sum w (dy - alpha dz)^2."""
    total, y0, px = weights.sum(), -log_x, p * x

    def fit(gamma):
        u = gamma + x
        z = x / u
        y = y0 - q * np.log(u) - px * z
        z_bar, y_bar = weights @ z / total, weights @ y / total
        dz, dy = z - z_bar, y - y_bar
        wdz = weights * dz
        szz = wdz @ dz  # 0 at gamma = 0, where z = 1 leaves alpha free
        alpha = (wdz @ dy) / szz if szz > 0.0 else 0.0
        res = dy - alpha * dz
        return alpha, y_bar - alpha * z_bar, float(weights @ (res * res))
    return fit


def _fit_xi(x, log_x, weights, p: float, q: float):
    """(alpha, gamma) of the xi phase fitted to log|X_ex/P_n|."""
    fit = _xi_regression(x, log_x, weights, p, q)
    gamma = _brent_min(lambda g: fit(g)[2], -1.0, 20.0, 1e-8)
    return fit(gamma)[0], gamma


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
    transposed Jacobian, projected alike, from the same D and w.  D and
    eta N = w D are one product over the rows (1, eta^2, eta^4, eta,
    p eta^3, p eta^5), and the Jacobian is formed from the same rows."""
    sw = np.sqrt(weights)
    u = sw / math.sqrt(weights.sum())
    e2 = eta * eta
    rows = np.array([np.ones_like(eta), e2, e2 * e2,
                     eta, p * eta * e2, p * eta * e2 * e2])
    zero = np.zeros_like(eta)
    # d(eta N) and dD by (a1, a2, b2, b3), from the same rows
    dN = np.array([rows[3], rows[4], zero, rows[5]])
    dD = np.array([zero, zero, rows[1], rows[2]])

    def model(theta):
        a1, a2, b2, b3 = theta
        check_eta_shape(a1, a2, b2, b3, p, odd)
        D, wD = np.array([[1.0, b2, b3, 0.0, 0.0, 0.0],
                          [0.0, 0.0, 0.0, a1, a2, b3]]) @ rows
        w = wD / D
        # log|cosh or sinh w| up to the constant log 2; w > 0 when odd
        branch = (w + np.log(-np.expm1(-2.0 * w)) if odd
                  else np.abs(w) + np.log1p(np.exp(-2.0 * np.abs(w))))
        r = sw * (branch - nu * np.log(D) - log_y)

        def jacobian():
            # dw = (d(eta N) - w dD)/D and d log|cosh or sinh w| = slope dw
            swD = sw / D
            s = (1.0 / np.tanh(w) if odd else np.tanh(w)) * swD
            Jt = s * dN - (s * w + nu * swD) * dD
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
            fit = _levenberg_marquardt(model, [float(v) for v in start])
        except ParamDomainError:  # a start off the domain
            continue
        if best is None or fit[1] < best[1]:
            best = fit
    if best is None:
        raise ParamDomainError("no eta start shape in the parameter domain")
    return best[0]


def _levenberg_marquardt(model, x):
    """(x, cost) of a least-squares minimum of model(x)[0] near x, by
    Levenberg-Marquardt steps scaled by the running maximum of diag(J^T J),
    within _ETA_EVALS evaluations, a step off the domain (ParamDomainError)
    or of a system without a positive Cholesky pivot rejected.  A rejected
    step only raises mu; mu follows the gain ratio by Nielsen's rule
    (IMM-REP-1999-05), which stops it see-sawing along curved valleys.
    Written out rather than taken from MINPACK, whose result varies in the
    last bits with the heap addresses of its work arrays; the 4x4 steps
    run on Python floats, where numpy's call overhead would outweigh them."""
    r, jacobian = model(x)
    cost, mu, grow, scale, moved = float(r @ r), 1e-3, 2.0, [0.0] * 4, True
    for _ in range(_ETA_EVALS - 1):
        if moved:
            Jt = jacobian()
            JtJ, b = (Jt @ Jt.T).tolist(), (Jt @ -r).tolist()
            scale = [max(s, JtJ[i][i]) for i, s in enumerate(scale)]
        try:
            damp = [mu * s for s in scale]
            step = _damped_step(JtJ, damp, b)
            x_try = [v + h for v, h in zip(x, step)]
            r_try, jacobian_try = model(x_try)
            cost_try = float(r_try @ r_try)
        except (np.linalg.LinAlgError, ParamDomainError):
            cost_try = math.inf
        moved = cost_try < cost
        if moved:
            rho = (cost - cost_try) / sum(
                h * (d * h + c) for h, d, c in zip(step, damp, b))
            done = cost - cost_try <= _ETA_FTOL * cost
            x, r, cost, jacobian = x_try, r_try, cost_try, jacobian_try
            if done:
                break
            mu, grow = max(mu * max(1 / 3, 1 - (2 * rho - 1) ** 3), 1e-12), 2.0
        else:
            mu, grow = mu * grow, 2.0 * grow
            if mu > 1e12:
                break
    return x, cost


def _pivot(d: float) -> float:
    if not d > 0.0:  # a NaN pivot too
        raise np.linalg.LinAlgError("damped system not positive definite")
    return math.sqrt(d)


def _damped_step(A, damp, b):
    """h with (A + diag(damp)) h = b, A symmetric 4x4 (nested lists), by an
    unrolled Cholesky factorization L L^T on Python floats; LinAlgError
    on a pivot that is not positive."""
    (a00, a01, a02, a03), (_, a11, a12, a13), (_, _, a22, a23), \
        (_, _, _, a33) = A
    l00 = _pivot(a00 + damp[0])
    l10, l20, l30 = a01 / l00, a02 / l00, a03 / l00
    l11 = _pivot(a11 + damp[1] - l10 * l10)
    l21, l31 = (a12 - l20 * l10) / l11, (a13 - l30 * l10) / l11
    l22 = _pivot(a22 + damp[2] - l20 * l20 - l21 * l21)
    l32 = (a23 - l30 * l20 - l31 * l21) / l22
    l33 = _pivot(a33 + damp[3] - l30 * l30 - l31 * l31 - l32 * l32)
    y0 = b[0] / l00
    y1 = (b[1] - l10 * y0) / l11
    y2 = (b[2] - l20 * y0 - l21 * y1) / l22
    y3 = (b[3] - l30 * y0 - l31 * y1 - l32 * y2) / l33
    h3 = y3 / l33
    h2 = (y2 - l32 * h3) / l22
    h1 = (y1 - l21 * h2 - l31 * h3) / l11
    return (y0 - l10 * h1 - l20 * h2 - l30 * h3) / l00, h1, h2, h3


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
