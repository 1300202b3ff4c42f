"""Checks of the perturbation theory that only the tests use.

channel_potential_xi and channel_potential_eta reconstruct V0 and W0 from
the trial phases in Riccati form, independently of the pole-free products
the first-order pass forms; V1 gives V - V0 (or W - W0) from them, the
perturbation that the pass's bound_C is held against.
residual_custom_phase is the Riccati residual of an analytically given
phase, for the exact one-center fixtures; p_reopt_shift measures how far
the phase correction moves the re-optimized p (acceptance criterion 6).
hermite_corrections is the first-order pass on fixed grids that the
panels replaced: the reference the panel tables are held to, sampled by
correction_values on the bulk of the channels (bulk_points) with the
rounding floor two passes may differ by.
exact_deviation measures a corrected state pointwise against the exact
eigenfunctions of the oracle.
"""

import math

import numpy as np

from twocenter import nonlinearization as nl
from twocenter.model import p_from_energy
from twocenter.oracle import exact_channels, solve_bispectral
from twocenter.quadrature import build_rules, integrate, rayleigh_quotient
from twocenter.states import SolvedState
from twocenter.trial import (channel_factor, channel_phase, eta_channel,
                             phase_of_trial_eta, phase_of_trial_xi,
                             prefactor, xi_channel)


def channel_potential_xi(params, label, setup, xi):
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


def channel_potential_eta(params, label, eta):
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


def V1(params, label, setup, p_phys, x, channel):
    """V - V0 on x of the xi channel, or W - W0 of the eta one (where
    setup is unused), from the reconstructed potentials."""
    if channel == "xi":
        return (nl.true_potential_xi(setup, p_phys, x)
                - channel_potential_xi(params, label, setup, x))
    return (nl.true_potential_eta(p_phys, x)
            - channel_potential_eta(params, label, x))


def residual_custom_phase(phi_d1, phi_d2, V, A, lam, x):
    """Riccati residual for X = exp(-phase): fixture hook for exact cases."""
    x = np.asarray(x, dtype=float)
    d1, d2 = phi_d1(x), phi_d2(x)
    v0 = (x * x - 1.0) * (d1 * d1 - d2) - 2.0 * (lam + 1.0) * x * d1
    return v0 - (V(x) - A)


def _p_landscape(state: SolvedState, corrected: bool, delta: float):
    """(argmin, min value) of E(p) by a three-point parabola at fixed
    remaining parameters, which beats direct minimization here."""
    p0 = state.params.p

    def E(p: float) -> float:
        pars = state.params.replace(p=p)
        if corrected:
            trial = SolvedState(state.label, state.setup, pars,
                                state.energy, pt_xi=state.pt_xi,
                                pt_eta=state.pt_eta, node=state.node)
            return trial.rayleigh(state.rules()).E_total
        return rayleigh_quotient(pars, state.label, state.setup,
                                 state.rules()).E_total

    d = delta * p0
    em, e0, ep = E(p0 - d), E(p0), E(p0 + d)
    curv = ep - 2.0 * e0 + em
    if curv <= 0.0:
        raise RuntimeError("no local curvature in p")
    shift = -0.5 * d * (ep - em) / curv
    return p0 + shift, e0 - 0.125 * (ep - em) ** 2 / curv


def p_reopt_shift(state: SolvedState, delta: float = 1e-4,
                  method: str = "energy") -> float:
    """Relative change of the re-optimized p caused by the correction.

    method="energy" follows the production optimizer semantics, where the
    reported p is pinned to the energy (p = p(E_min)), so the shift is the
    energy change propagated through that relation.  method="parabola"
    compares the raw 1D landscape minima instead; that raw location is a
    property of the nearly degenerate parameter valley and wanders at the
    1e-9..1e-8 level between equivalent optima, so it is exposed as a
    diagnostic only."""
    if not state.corrected:
        raise ValueError("state carries no corrections")
    p_b, e_b = _p_landscape(state, corrected=False, delta=delta)
    p_c, e_c = _p_landscape(state, corrected=True, delta=delta)
    if method == "parabola":
        return abs(p_c - p_b) / state.params.p
    if method != "energy":
        raise ValueError(f"unknown method {method!r}")
    return abs(p_from_energy(e_c, state.setup)
               - p_from_energy(e_b, state.setup)) / state.params.p


# ----------------------------------------------------------------------
# the first-order pass on fixed grids: cumulative integrals by the 3-point
# Gauss rule of each grid interval, cubic Hermite tables on the values and
# exact slopes it forms

XI_PTS = 2400     # the grid sizes of the pass the panels replaced
ETA_PTS = 1601
RULE_N = 96       # the size of the rule its A integrals came from


def _cumulative(fn, grid):
    """Cumulative integrals int_{grid_0}^{grid_j} of each array that fn
    returns, on the closed-form 3-point Gauss-Legendre rule of each
    interval (nodes 0, +-sqrt(3/5), weights 8/9, 5/9)."""
    half = 0.5 * np.diff(grid)
    mid = 0.5 * (grid[1:] + grid[:-1])
    nodes = math.sqrt(0.6) * np.array([-1.0, 0.0, 1.0])
    weights = np.array([5.0, 8.0, 5.0]) / 9.0
    pts = mid[:, None] + half[:, None] * nodes
    return [np.concatenate([[0.0], np.cumsum(half * (v.reshape(pts.shape)
                                                     @ weights))])
            for v in fn(pts.ravel())]


def hermite(x, y, dy):
    """The piecewise cubic Hermite interpolant of the values y and slopes
    dy on the knots x, and its exact antiderivative from x[0]: two
    vectorized callables, constant beyond the knots."""
    h = np.diff(x)
    y0, m0, m1 = y[:-1], h * dy[:-1], h * dy[1:]
    c2 = 3.0 * (y[1:] - y0) - 2.0 * m0 - m1
    c3 = 2.0 * (y0 - y[1:]) + m0 + m1
    a1, a2, a3, a4 = h * y0, h * m0 / 2.0, h * c2 / 3.0, h * c3 / 4.0
    cum = np.concatenate([[0.0], np.cumsum(a1 + a2 + a3 + a4)])
    inner = x[1:-1]

    def locate(u):
        i = np.searchsorted(inner, u, side="right")
        return i, np.minimum(np.maximum((u - x[i]) / h[i], 0.0), 1.0)

    def value(u):
        i, s = locate(u)
        return y0[i] + s * (m0[i] + s * (c2[i] + s * c3[i]))

    def integral(u):
        i, s = locate(u)
        return cum[i] + s * (a1[i] + s * (a2[i] + s * (a3[i] + s * a4[i])))
    return value, integral


def _end_slope(x, y):
    """Slope at x[0] of the cubic through the first four points."""
    d = [float(x[k] - x[0]) for k in (1, 2, 3)]
    slope = -float(y[0]) * sum(1.0 / dk for dk in d)
    for j in range(3):
        a, b = (d[k] for k in range(3) if k != j)
        slope += float(y[j + 1]) * a * b / (d[j] * (d[j] - a) * (d[j] - b))
    return slope


def xi_grid(p_scale, pts=XI_PTS):
    u = np.linspace(0.0, 1.0, pts)
    return 1.0 + (nl._TAU_CUT / (2.0 * p_scale)) * u * u


def _first_order(params, label, setup, p_phys, channel, grid):
    """(A, (F, F', D, D'/D), scale) of one channel on a fixed grid."""
    lam = label.lam
    rule = build_rules(params.p if channel == "xi" else max(params.p, 1.0),
                       RULE_N)[0 if channel == "xi" else 1]
    scale = float(np.min(channel_phase(params, label, setup, rule.nodes,
                                       channel)[0]))

    def parts(x):
        X, dX, ddX = channel_factor(params, label, setup, x, channel, scale)
        w = (x * x - 1.0) ** lam
        wX2, VwX2, _ = nl._parts(params, label, setup, p_phys, x, scale,
                                 channel)
        return wX2, VwX2, w * X * dX

    wX2, QwX2, _ = parts(rule.nodes)
    num, den = integrate(rule, np.array([QwX2, wX2]))
    A = num / den

    def integrands(x):
        wX2, QwX2, _ = parts(x)
        return A * wX2 - QwX2, wX2

    F, G = _cumulative(integrands, grid)
    A, F = A - F[-1] / G[-1], F - F[-1] * (G / G[-1])
    wX2, QwX2, wXdX = parts(grid)
    base = grid * grid - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        dlog = 2.0 * (lam + 1.0) * grid / base + 2.0 * wXdX / wX2
    return A, (F, A * wX2 - QwX2, base * wX2, dlog), scale


def _slope(lam, grid, tab, A, Q0):
    """x1 = F / D on the grid and its slope F'/D - x1 D'/D; where D
    vanishes (at grid[0], where the perturbation is Q0), the regular
    limit and the slope of a four-point cubic."""
    F, dF, D, dlog = tab
    with np.errstate(divide="ignore", invalid="ignore"):
        x1 = np.where(D != 0.0, F / D, 0.0)
        dx1 = dF / D - x1 * dlog
    x1[0] = (A - Q0) / (2.0 * (lam + 1.0)) * grid[0]
    for i in np.flatnonzero(D == 0.0):
        side = slice(i, None) if i == 0 else slice(i, None, -1)
        dx1[i] = _end_slope(grid[side], x1[side])
    return x1, dx1


def hermite_corrections(state, xi_pts=XI_PTS, eta_pts=ETA_PTS):
    """(xi data, eta ChannelPT) of a solved state on fixed grids of
    xi_pts and eta_pts points: the xi data is a ChannelPT for a nodeless
    state and a NodeCorrection for a single-node one.  Each ChannelPT's
    bound is the largest |V1| on its grid."""
    params, label, setup = state.params, state.label, state.setup
    p_phys = p_from_energy(state.energy.E_total, setup)
    grid = xi_grid(params.p, xi_pts)
    A, tab, scale0 = _first_order(params, label, setup, p_phys, "xi", grid)
    if label.n == 0:
        v1 = V1(params, label, setup, p_phys, grid, "xi")
        x1, dx1 = _slope(label.lam, grid, tab, A, v1[0])
        tail = int(np.searchsorted(grid, 1.0 + nl._TAU_KEEP
                                   / (2.0 * params.p)))
        x1[tail:] = dx1[tail:] = 0.0
        sl = slice(0, max(tail, 8))
        x1_ip, phi1_ip = hermite(grid[sl], x1[sl], dx1[sl])
        hi = grid[sl][-1]

        def xi_pair(x):
            x = np.asarray(x, dtype=float)
            return phi1_ip(x), np.where(x >= hi, 0.0, x1_ip(x))

        xi_data = nl.ChannelPT("xi", A, xi_pair,
                               float(np.max(np.abs(v1))))
    else:
        xi_data = _node(params, label, setup, p_phys, grid, A, tab, scale0)

    egrid = np.linspace(-1.0, 0.0, eta_pts)
    A_eta, tab, _ = _first_order(params, label, None, p_phys, "eta", egrid)
    w1 = V1(params, label, None, p_phys, egrid, "eta")
    y1, dy1 = _slope(label.lam, egrid, tab, A_eta, w1[0])
    y1[-1] = 0.0
    full = np.concatenate([egrid, -egrid[-2::-1]])
    y1_ip, rho1_anti = hermite(full, np.concatenate([y1, -y1[-2::-1]]),
                               np.concatenate([dy1, dy1[-2::-1]]))
    mid = float(rho1_anti(0.0))

    def eta_pair(x):
        x = np.asarray(x, dtype=float)
        return rho1_anti(x) - mid, y1_ip(x)

    eta_data = nl.ChannelPT("eta", A_eta, eta_pair,
                           float(np.max(np.abs(w1))))
    return xi_data, eta_data


def _node(params, label, setup, p_phys, grid, A1, tab, scale0):
    """The node channel's (f1, c1, r, r') on a fixed grid."""
    lam, xi0 = label.lam, params.xi0
    F, dF = tab[:2]
    Fip = hermite(grid, F, dF)[0]
    phi0_0, dphi0_0, _ = phase_of_trial_xi(params, label, setup,
                                           np.array([xi0]))
    D0 = (xi0**2 - 1.0) ** (lam + 1) * math.exp(-2.0 * (phi0_0[0] - scale0))
    f1 = float(Fip(xi0)) / D0
    c1 = f1 * float(2.0 * (lam + 1.0) * xi0 / (xi0**2 - 1.0)
                    - 2.0 * dphi0_0[0])
    hp_1 = -(A1 - float(V1(params, label, setup, p_phys, 1.0, "xi"))) \
        / (2.0 * (lam + 1.0))

    def dr_raw(x):
        phi = phase_of_trial_xi(params, label, setup, x)[0]
        d = x - xi0
        denom = (x * x - 1.0) ** (lam + 1) * d * d \
            * np.exp(-2.0 * (phi - scale0))
        with np.errstate(divide="ignore", invalid="ignore"):
            hp = np.where(x != 1.0, -Fip(x) / denom, hp_1)
            return hp + f1 / (d * d) - c1 / d

    def dr_fn(x):
        x = np.asarray(x, dtype=float)
        d, eps = x - xi0, 1e-5
        out = dr_raw(np.where(np.abs(d) < eps, xi0 + 2.0 * eps, x))
        near = np.abs(d) < eps
        if np.any(near):
            lo, hi = dr_raw(np.array([xi0 - eps, xi0 + eps]))
            out[near] = lo + (hi - lo) * (d[near] + eps) / (2.0 * eps)
        return out

    rp, = _cumulative(lambda x: (dr_fn(x),), grid)
    r0 = -(f1 / (grid[0] - xi0) + c1 * math.log(abs(grid[0] - xi0)))
    r_ip = hermite(grid, rp + r0, dr_fn(grid))[0]

    def regular(x):
        x = np.asarray(x, dtype=float)
        return r_ip(x), dr_fn(np.clip(x, grid[0], grid[-1]))

    return nl.NodeCorrection(f1=f1, c1=c1, xi0=xi0, A1=A1, regular=regular)


def bulk_points(state, tau_max=40.0, bulk=1e-2, points=4001):
    """(xi, eta) sample points where the uncorrected channel's modulus is
    at least `bulk` of its largest, each with its largest first: xi on
    2p(xi-1) in [0, tau_max], eta on [-1, 1]."""
    params, label = state.params, state.label
    xs = 1.0 + np.linspace(0.0, tau_max, points) / (2.0 * params.p)
    es = np.linspace(-1.0, 1.0, points)
    out = []
    for x, ca in ((xs, xi_channel(params, label, state.setup, xs)),
                  (es, eta_channel(params, label, es))):
        v = np.abs(ca.vals)
        out.append(np.r_[x[np.argmax(v)], x[v >= bulk * np.max(v)]])
    return tuple(out)


def correction_values(state, xi_data, eta_data):
    """{name: (values, rounding floor)} of one state's first-order tables
    on its bulk points (phi1, x1 or r, r', and rho1, y1), and its
    {name: value} of A1 (and f1, c1 on a single-node state).  phi1 and
    rho1 are taken relative to their value at the channel's largest
    modulus: a constant phase only scales the channel, and normalization
    takes it out.

    A slope's floor is one part in 1e15 of the size |A1| + p^2 x^2 of the
    potential terms whose difference it integrates, and a phase's floor
    that times the length of the bulk: where a correction is that small,
    its tables hold rounding, and two passes differ by it."""
    xs, es = bulk_points(state)
    p = state.params.p
    floor_x = 1e-15 * (abs(xi_data.A1) + (p * np.max(xs)) ** 2)
    floor_e = 1e-15 * (abs(eta_data.A1) + p * p)

    def phase(pair, x):
        vals = pair(x)[0]
        return vals[1:] - vals[0]

    tables = {"rho1": (phase(eta_data.correction, es), 2.0 * floor_e),
              "y1": (eta_data.correction(es[1:])[1], floor_e)}
    scalars = {"A1_xi": xi_data.A1, "A1_eta": eta_data.A1}
    xs_len = np.max(xs) - 1.0
    if state.label.n == 0:
        tables["phi1"] = (phase(xi_data.correction, xs),
                          xs_len * floor_x)
        tables["x1"] = (xi_data.correction(xs[1:])[1], floor_x)
    else:
        tables["r"] = (xi_data.regular(xs[1:])[0], xs_len * floor_x)
        tables["dr"] = (xi_data.regular(xs[1:])[1], floor_x)
        scalars.update(f1=xi_data.f1, c1=xi_data.c1)
    return tables, scalars


# ----------------------------------------------------------------------
# the corrected channels against the exact ones


def exact_deviation(state, tau_max=40.0, bulk=1e-2, node_gap=0.02,
                    points=2001):
    """(xi, eta) worst relative deviations of a corrected state's channels
    (X0 exp(-phi1), or the node form, and Y0 exp(-rho1)) from the exact
    eigenfunctions that solve_bispectral gives at the state's R.

    Each channel and its exact counterpart are normalized to 1 where the
    exact channel's modulus is largest on the sample, and compared where
    that modulus is at least `bulk`: xi on 2p(xi-1) in [0, tau_max],
    leaving out |xi - xi0| < node_gap on a single-node state, and eta on
    [-1, 1].  Both sides leave out (xi^2-1)^(L/2) and (1-eta^2)^(L/2)."""
    exact = solve_bispectral(state.label, state.setup)
    xi = 1.0 + np.linspace(0.0, tau_max, points) / (2.0 * state.params.p)
    if state.params.xi0 is not None:
        xi = xi[np.abs(xi - state.params.xi0) >= node_gap]
    eta = np.linspace(-1.0, 1.0, points)
    out = []
    for (log, sign), vals in zip(exact_channels(exact, xi, eta),
                                 (state.xi_arrays(xi).vals,
                                  state.eta_arrays(eta).vals)):
        top = int(np.argmax(log))
        ref = sign * np.exp(log - log[top]) * sign[top]
        got = vals / vals[top]
        keep = np.abs(ref) >= bulk
        out.append(float(np.max(np.abs(got[keep] - ref[keep])
                                / np.abs(ref[keep]))))
    return tuple(out)
