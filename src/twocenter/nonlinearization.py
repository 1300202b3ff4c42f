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
Order n of either channel of a nodeless state repeats the step with
Q_n = -(x^2-1) sum_{i=1}^{n-1} y_i y_{n-i}, from the slopes of the
orders below (the builders' prev), in place of V1; p then drops out.
Both channels and every order run one pass on panels of 12
Gauss-Legendre nodes, graded geometrically toward the zeros of
D = (x^2-1)^(L+1) X0^2 (xi = 1, eta = -1, and eta = 0 on the odd
branch), where no node sits.  One
evaluation of the trial phase per node gives the pass's log scale (the
phase's minimum on the nodes), and A and F by each panel's spectral
integration and the running panel totals, with A the panel quadrature
that the consistency pass A -> A - F(end)/G(end) lands on, so F vanishes
at both ends before the division by D.  A slope anywhere is the
polynomial interpolant of its node values on their panel, and its phase
that polynomial's exact antiderivative, so every (phase, slope) pair is
derivative-consistent; one call reads both, from one panel search.  The
channel builders keep only what differs: the xi tail cut, the eta
mirror, and the node's log-regular split.  The same pass reports the
perturbation's bound: the largest |Q| on the nodes where it integrates Q.
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
r regular; r' is integrated directly, and the node is a panel edge.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import PhysicalSetup, StateLabel
from .quadrature import QuadratureError, _gauss
from .trial import (TrialParams, channel_factor, channel_phase,
                    phase_of_trial_xi)

@dataclass
class ChannelPT:
    """Perturbation data of one channel at order n: A1 holds A_n, and
    bound_C the largest |Q_n| (V1 at first order) on the nodes where its
    pass integrates Q_n."""

    channel: str                       # "xi" or "eta"
    A1: float
    correction: Callable               # x -> (phi_n, x_n = phi_n') on xi,
                                       # or (rho_n, y_n = rho_n') on eta
    bound_C: float

    def __post_init__(self):
        if not (math.isfinite(self.A1) and math.isfinite(self.bound_C)):
            raise QuadratureError("non-finite perturbation data")


# ----------------------------------------------------------------------
# the true channel potentials


def true_potential_xi(setup: PhysicalSetup, p_phys: float, xi):
    xi = np.asarray(xi, dtype=float)
    return p_phys**2 * xi * xi - (setup.Z1 + setup.Z2) * setup.R * xi


def true_potential_eta(p_phys: float, eta):
    eta = np.asarray(eta, dtype=float)
    return p_phys**2 * eta * eta


# ----------------------------------------------------------------------
# the first-order pass shared by both channels and all orders

_TAU_CUT = 30.0       # the xi panels end at 2 p (xi-1) = _TAU_CUT
_TAU_KEEP = 24.0      # the xi slope is kept up to 2 p (xi-1) = _TAU_KEEP
_PANEL_N = 12         # Gauss-Legendre nodes per panel
# panel widths grow by _GROWTH from each graded end up to their cap: in
# tau = 2 p (xi-1) from _XI_FIRST times the distance 2 p (1+gamma) to the
# channel's singularity at xi = -gamma, up to _XI_WIDTH; in p eta (p at
# least 1) from _ETA_FIRST up to _ETA_WIDTH.  The values come from a
# convergence sweep against refined layouts and finer fixed grids.
_GROWTH = 1.5
_XI_FIRST = 0.2
_XI_WIDTH = 2.5
_ETA_FIRST = 0.2
_ETA_WIDTH = 0.5


def _panel_rule():
    """The Gauss-Legendre nodes t and weights w of [-1, 1], and the
    monomial coefficients C[j, k] of the Lagrange basis l_k on t, from
    the interpolant's Legendre coefficients (2m+1)/2 sum_k w_k P_m f_k
    and the monomial coefficients M[m, j] of each P_m."""
    t, w = _gauss(_PANEL_N, False)
    P, M = np.zeros((2, _PANEL_N, _PANEL_N))
    P[0], P[1], M[0, 0], M[1, 1] = 1.0, t, 1.0, 1.0
    for m in range(1, _PANEL_N - 1):
        P[m + 1] = ((2 * m + 1) * t * P[m] - m * P[m - 1]) / (m + 1)
        M[m + 1] = ((2 * m + 1) * np.roll(M[m], 1) - m * M[m - 1]) / (m + 1)
    return t, w, M.T @ ((np.arange(_PANEL_N)[:, None] + 0.5) * w * P)


_T, _W, _C = _panel_rule()


@functools.lru_cache(maxsize=None)
def _zero_matrix(order: int):
    """M[j, k] = int_0^1 u^order l_k(-1 + (1+t_j) u) du, so that
    int_-1^t_j (1+t)^order g = (1+t_j)^(order+1) (M g)_j."""
    u, w = 0.5 * (_T + 1.0), 0.5 * _W * (0.5 * (_T + 1.0)) ** order
    y = -1.0 + (1.0 + _T)[:, None] * u
    return np.einsum("q,jqm,mk->jk", w,
                     y[..., None] ** np.arange(_PANEL_N), _C)


def _from_edge(f, half, order=0, left=True):
    """int_edge^x f on the nodes of each panel (a row of f) from its left
    edge, or int_x^edge from its right one, to full relative accuracy for
    node values f that vanish at that edge to the given order."""
    if not left:
        return _from_edge(f[..., ::-1], half, order)[..., ::-1]
    s = 1.0 + _T
    return (np.asarray(half)[..., None] * s ** (order + 1)
            * ((f / s ** order) @ _zero_matrix(order).T))


class _Panels:
    """Panels between increasing edges, each carrying the _PANEL_N
    Gauss-Legendre nodes (Greengard, SIAM J. Numer. Anal. 28, 1071
    (1991)); node values are one row per panel.  The nodes are built on
    first read: the panels of a finished table never read them."""

    def __init__(self, edges):
        self.edges = np.asarray(edges, dtype=float)
        self.half = 0.5 * np.diff(self.edges)
        self.mid = 0.5 * (self.edges[1:] + self.edges[:-1])

    @functools.cached_property
    def nodes(self):
        return self.mid[:, None] + self.half[:, None] * _T

    def integrals(self, f):
        """(int_edge0^x f, int_x^edgeN f) on the nodes, by panel and totals."""
        tot = self.half * (f @ _W)
        before = np.cumsum(tot) - tot
        after = np.cumsum(tot[::-1])[::-1] - tot
        return (before[:, None] + _from_edge(f, self.half),
                after[:, None] + _from_edge(f, self.half, left=False))

    def table(self, vals, start=0.0):
        """u -> (start + int_edge0^u P, P) for the panel polynomials P
        through a slope's vals.  The antiderivative is each panel's
        left-edge value plus (1+s) Q(s), exact at every left edge and held
        beyond the last one, where P is zero.  One panel search and one
        coefficient gather serve both."""
        p = vals @ _C.T
        # (sum_k a_k s^(k+1) - its value at -1) / (1+s) has coefficients
        # q_k = a_k - q_(k+1): an alternating sum from the top
        sign = (-1.0) ** np.arange(_PANEL_N)
        a = self.half[:, None] * p / np.arange(1, _PANEL_N + 1) * sign
        q = np.cumsum(a[:, ::-1], axis=1)[:, ::-1] * sign
        tot = 2.0 * np.sum(q, axis=1)
        left = start + np.cumsum(tot) - tot
        coef = np.stack([q, p]).transpose(2, 0, 1).copy()  # (k, 2, panel)

        def evaluate(u):
            u = np.asarray(u, dtype=float)
            i = np.minimum(np.maximum(np.searchsorted(self.edges, u, "right")
                                      - 1, 0), self.half.size - 1)
            s = np.minimum(np.maximum((u - self.mid[i]) / self.half[i], -1.0),
                           1.0)
            c = np.take(coef, i, axis=2)
            out = c[-1]
            for ck in c[-2::-1]:
                out = out * s + ck
            phase = left[i] + (1.0 + s) * out[0]
            slope = np.where(u > self.edges[-1], 0.0, out[1])
            if u.ndim:
                return phase, slope
            return float(phase), float(slope)
        return evaluate


def _grown(length, first, cap):
    """Edge offsets 0 < ... < length of panels whose widths grow by
    _GROWTH from first up to cap, stretched to end at length."""
    widths = [min(first, cap)]
    total = widths[0]
    while total < length:
        widths.append(min(widths[-1] * _GROWTH, cap))
        total += widths[-1]
    edges = np.cumsum([0.0] + widths) * (length / total)
    edges[-1] = length
    return edges


def _xi_panels(params) -> _Panels:
    """Graded toward xi = 1, where F vanishes as (xi-1)^(L+1), with edges
    at the slope cut _TAU_KEEP, at _TAU_CUT and at the node xi0 of a
    single-node state, which replaces the inner edges within a quarter of
    its panel's width."""
    tau = np.concatenate([
        _grown(_TAU_KEEP, _XI_FIRST * 2.0 * params.p * (1.0 + params.gamma),
               _XI_WIDTH),
        _TAU_KEEP + _grown(_TAU_CUT - _TAU_KEEP, _XI_WIDTH, _XI_WIDTH)[1:]])
    edges = 1.0 + tau / (2.0 * params.p)
    if params.xi0 is not None:
        j = np.searchsorted(edges, params.xi0)
        near = np.abs(edges - params.xi0) < 0.25 * (edges[j] - edges[j - 1])
        near[[0, -1]] = False
        edges = np.sort(np.append(edges[~near], params.xi0))
    return _Panels(edges)


def _eta_panels(p_scale: float, parity: int) -> _Panels:
    """Panels on [-1, 0], graded toward eta = -1 and, on the odd branch,
    eta = 0, where F vanishes; at most _ETA_WIDTH / p wide, as the zeros
    of cosh w and sinh w lie about pi / (2p) off the axis."""
    first, cap = np.array([_ETA_FIRST, _ETA_WIDTH]) / max(p_scale, 1.0)
    if parity == +1:
        return _Panels(_grown(1.0, first, cap) - 1.0)
    half = _grown(0.5, first, cap)
    return _Panels(np.concatenate([half, 1.0 - half[-2::-1]]) - 1.0)


def _parts(params, label, setup, p_phys, x, scale, channel):
    """(w X0^2, pole-free V1 w X0^2 without its A term, scale) on x, from
    one evaluation of the phase, with X0 taken times exp(scale): by
    default (scale None) the phase's minimum on x."""
    lam = label.lam
    phase = channel_phase(params, label, setup, x, channel)
    if scale is None:
        scale = float(np.min(phase[0]))
    X, dX, ddX = channel_factor(params, label, setup, x, channel, scale,
                                phase)
    w = (x * x - 1.0) ** lam
    wX2 = w * X * X
    lhs = ((x * x - 1.0) * ddX + 2.0 * (lam + 1.0) * x * dX) * X * w
    V = (true_potential_xi(setup, p_phys, x) if channel == "xi"
         else true_potential_eta(p_phys, x))
    return wX2, V * wX2 - lhs, scale


def _first_order(params, label, setup, p_phys, channel, prev=()):
    """(A, panels, f, F, D, scale, bound) of order n = len(prev) + 1 on
    the panel nodes: f = (A-Q) w X0^2 and F = int f, Q the pole-free V1
    at n = 1 and Q_n = -(x^2-1) sum_{i=1}^{n-1} y_i y_{n-i} from the
    slopes of the orders prev below it, A = int Q w X0^2 / int w X0^2 on
    the panels, where the consistency pass A -> A - F(end)/G(end) puts
    it, and bound the largest |Q| there.  F vanishes at both ends, so
    each node takes it from the end nearer in the mass of f: a short
    integral, not a cancelling difference, where D vanishes or its
    division grows."""
    panels = (_xi_panels(params) if channel == "xi"  # eta: mirrored later
              else _eta_panels(params.p, label.parity))
    x = panels.nodes.ravel()
    wX2, QwX2, scale = _parts(params, label, setup, p_phys, x, None, channel)
    if prev:
        y = [c.correction(x)[1] for c in prev]
        Q = -(x * x - 1.0) * sum(y[i] * y[-1 - i] for i in range(len(y)))
        QwX2 = Q * wX2
    bound = float(np.max(np.abs(QwX2 / wX2)))
    wts = (panels.half[:, None] * _W).ravel()
    A = math.fsum((wts * QwX2).tolist()) / math.fsum((wts * wX2).tolist())
    wX2, QwX2 = (v.reshape(panels.nodes.shape) for v in (wX2, QwX2))
    f = A * wX2 - QwX2
    left, right = panels.integrals(f)
    m = panels.half * (np.abs(f) @ _W)
    nearer_left = np.cumsum(m) - 0.5 * m <= 0.5 * np.sum(m)
    F = np.where(nearer_left[:, None], left, -right)
    # at xi = 1 and eta = -1, where D vanishes, f vanishes to order L
    F[0] = _from_edge(f[0], panels.half[0], label.lam)
    return A, panels, f, F, (panels.nodes ** 2 - 1.0) * wX2, scale, bound


# ----------------------------------------------------------------------
# the nodeless corrections of every order, xi and eta channels


def first_correction_xi(params: TrialParams, label: StateLabel,
                        setup: PhysicalSetup, p_phys: float,
                        prev=()) -> ChannelPT:
    """A_n and the tabulated phase correction phi_n of a nodeless xi
    channel at order n = len(prev) + 1, prev its corrections of orders
    1 .. n-1 (single-node states go through node_correction_xi)."""
    if label.n != 0:
        raise ValueError("first_correction_xi needs a nodeless state")
    # the slope is cut at the _TAU_KEEP edge, where the exponentially
    # growing division has nothing left to resolve; phi_n is the exact
    # antiderivative of the slope's panel polynomials, so the pair is
    # derivative-consistent and the corrected state stays variational
    A, panels, _, F, D, _, bound = _first_order(params, label, setup,
                                                p_phys, "xi", prev)
    cut = np.argmin(np.abs(panels.edges - 1.0 - _TAU_KEEP / (2.0 * params.p)))
    keep, x1 = _Panels(panels.edges[:cut + 1]), (F / D)[:cut]
    return ChannelPT("xi", A, keep.table(x1), bound)


def first_correction_eta(params: TrialParams, label: StateLabel,
                         p_phys: float, prev=()) -> ChannelPT:
    """A_n and the tabulated phase correction rho_n (even in eta) at
    order n = len(prev) + 1, prev its corrections of orders 1 .. n-1."""
    A, panels, _, F, D, _, bound = _first_order(params, label, None,
                                                p_phys, "eta", prev)
    # tabulated on [-1, 0] and mirrored: y_n is odd, rho_n even, and the
    # gauge is rho_n(0) = 0
    y = F / D
    gauge = -np.sum(panels.half * (y @ _W))
    full = _Panels(np.concatenate([panels.edges, -panels.edges[-2::-1]]))
    y = np.concatenate([y, -y[::-1, ::-1]])
    return ChannelPT("eta", A, full.table(y, gauge), bound)


# ----------------------------------------------------------------------
# single-node xi channel: node displacement and regularized correction


@dataclass
class NodeCorrection:
    """First-order data of a single-node xi channel.

    The corrected channel function is
        X = exp(-phi0) [ d + f1 + c1 d log|d| + d r(d) ],   d = xi - xi0,
    where r (regular) is tabulated; f1 is the node displacement
    (node moves to xi0 - f1 at first order).  There is no second order
    yet: x1 carries f1/d, so Q2 w X0^2 is not integrable at the node.
    """

    f1: float
    c1: float
    xi0: float
    A1: float
    regular: Callable  # xi -> (r, r'), tabulated


def node_correction_xi(params: TrialParams, label: StateLabel,
                       setup: PhysicalSetup, p_phys: float) -> NodeCorrection:
    if label.n != 1 or params.xi0 is None:
        raise ValueError("node_correction_xi needs a single-node state")
    lam, xi0 = label.lam, params.xi0
    # h' = -F/D has a double pole at xi0 (D = (xi^2-1)^(L+1) X0^2 holds
    # the node's d^2): split off its log-regular part
    A1, panels, f, F, D, scale0, _ = _first_order(params, label, setup,
                                                  p_phys, "xi")
    k = int(np.searchsorted(panels.edges, xi0))  # xi0 is edge k
    tot, m = (panels.half * (g @ _W) for g in (f, np.abs(f)))
    F0 = np.sum(tot[:k]) if np.sum(m[:k]) <= np.sum(m[k:]) else -np.sum(tot[k:])

    phi0_0, dphi0_0, _ = phase_of_trial_xi(params, label, setup,
                                           np.array([xi0]))
    # D0 = (xi^2-1)^(L+1) exp(-2(phi0-scale0)); f0' = 1 (monic node factor)
    D0 = (xi0**2 - 1.0) ** (lam + 1) * math.exp(-2.0 * (phi0_0[0] - scale0))
    f1 = float(F0) / D0
    c1 = f1 * float(2.0 * (lam + 1.0) * xi0 / (xi0**2 - 1.0) - 2.0 * dphi0_0[0])

    # r' = h' + f1/d^2 - c1/d is regular through xi0.  Nearer xi0 than
    # xi = 1, F - F0 = int_xi0^x f (f vanishes as d there) is taken from
    # xi0 itself, so the 1/d^2 terms cancel without F's rounding
    d = panels.nodes - xi0
    dr = -F / D + f1 / (d * d) - c1 / d
    for row, left in ((k, True), (k - 1, False)):
        Ft = _from_edge(f[row], panels.half[row], 1, left)
        local = ((-1.0 if left else 1.0) * Ft / D[row]
                 + f1 * (1.0 / d[row] ** 2 - D0 / D[row]) - c1 / d[row])
        dr[row] = np.where(np.abs(d[row]) < panels.nodes[row] - 1.0, local,
                           dr[row])

    # r is the exact antiderivative of r' on the panels, gauged by h(1) = 0
    # on the left branch; it is flat beyond the last edge, where r' = 0
    return NodeCorrection(f1=f1, c1=c1, xi0=xi0, A1=A1, regular=panels.table(
        dr, -(f1 / (1.0 - xi0) + c1 * math.log(xi0 - 1.0))))
