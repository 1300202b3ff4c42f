"""Variational optimization of the trial parameters.

A deterministic BFGS descent on the exact gradient minimizes the
Rayleigh quotient over the six shape parameters (alpha, gamma, a1, a2,
b2, b3).  The decay p is pinned at the seed's, for a presets.seed_for
seed the oracle's exact decay; a seed within GAP_TOL of the exact energy
it carries is not descended.
For single-node states the node position xi0 is not a descent variable:
each objective evaluation pins it through the orthogonality condition
against the nodeless state of the same parity; that overlap is linear in
xi0, so solve_node places the node in closed form, on channels that the
Rayleigh quotient then reuses, and differentiates xi0 for the gradient.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .model import EnergyPair, PhysicalSetup, StateLabel, require_supported
from .quadrature import (build_rules, channel_moments, energy_gradient,
                         integrate, trial_channels)
from .trial import (ParamDomainError, TrialParams, eta_channel, xi_channel,
                    xi_envelope)

_FIELDS = ("alpha", "gamma", "a1", "a2", "b2", "b3", "p")
_SHAPE = _FIELDS[:-1]  # the descent variables; p stays the seed's
# a seed within this gap of the exact energy, relative to max(1, |E|),
# is returned undescended; a descent run ends on a smaller predicted gain
GAP_TOL = 1e-11
_ARMIJO = 1e-4  # sufficient decrease (Nocedal & Wright, sec. 3.1)


@dataclass
class OptimizationResult:
    """Outcome of one variational minimization."""

    label: StateLabel
    setup: PhysicalSetup
    params: TrialParams
    energy: EnergyPair
    iterations: int  # quasi-Newton iterations, one line search each
    evaluations: int
    converged: bool
    rule_N: int
    # E_total - E_exact when the seed carried its state's exact energy
    gap: float | None = None

    def as_dict(self) -> dict:
        d = {k: getattr(self.params, k) for k in _FIELDS}
        if self.params.xi0 is not None:
            d["xi0"] = self.params.xi0
        return {
            "label": str(self.label),
            "R": self.setup.R,
            "params": d,
            "energy": self.energy.E_total,
            "p": self.energy.p,
            "converged": self.converged,
        }


def default_rule_size(p_scale: float) -> int:
    """Rule size giving a <=1e-12 plateau for the squared-trial integrands."""
    if p_scale < 8.0:
        return 64
    if p_scale < 16.0:
        return 96
    return 128


def solve_node(label: StateLabel, setup: PhysicalSetup, params: TrialParams,
               partner, rules) -> tuple[float, tuple, np.ndarray]:
    """Node xi0 of a single-node trial, its (xi, eta) channels there with
    their derivative rows, and the gradient of xi0 over the shape
    parameters.

    The overlap with the nodeless partner of the same parity (its channels
    on `rules`) is c1 - xi0 c0, c_k = int g e xi^k (xi^2 S0 - S2), with g
    the partner's xi channel, e the trial's without its factor xi - xi0
    and S0, S2 the eta moments.  Both integrands are positive, so
    xi0 = c1/c0 is a weighted mean of the nodes, free of cancellation;
    its gradient follows by the quotient rule from derivative rows of c0
    and c1.
    """
    if label.n != 1:
        raise ValueError(f"solve_node applies to n=1 states, got {label}")
    (rx, re), (cg_x, cg_e) = rules, partner
    x = rx.nodes
    ce = eta_channel(params, label, re.nodes, grad=True)
    # S0 and S2, and below them their derivatives over (a1, a2, b2, b3)
    me = channel_moments(cg_e, ce, re, label.lam)
    envelope = xi_envelope(params, label, setup, x, grad=True)
    u = cg_x.vals * envelope[0] * (x * x - 1.0) ** label.lam \
        * (x * x * me.s0[:, None] - me.s2[:, None])
    # rows: u, then its derivatives over alpha, gamma, a1..b3
    u = np.vstack([u[:1], -u[0] * envelope[3][0], u[1:]])
    c0, c1 = np.reshape(integrate(rx, np.vstack([u, x * u])), (2, -1))
    xi0 = float(c1[0] / c0[0]) if c0[0] != 0.0 else math.inf
    if not 1.0 < xi0 < math.inf:
        raise ParamDomainError(f"node xi0 must be finite and > 1, got {xi0}")
    cx = xi_channel(params.replace(xi0=xi0), label, setup, x,
                    envelope=envelope, grad=True)
    return xi0, (cx, ce), (c1[1:] - xi0 * c0[1:]) / c0[0]


def _partner(label: StateLabel, setup: PhysicalSetup,
             ortho_ref: TrialParams | None, rules):
    """Channels on `rules` of a single-node state's nodeless partner."""
    if label.n != 1:
        return None
    glabel = StateLabel(0, label.m, label.lam, label.parity)
    return trial_channels(ortho_ref, glabel, setup, rules)


def _evaluate(label: StateLabel, setup: PhysicalSetup, params: TrialParams,
              partner, rules) -> tuple[TrialParams, EnergyPair, np.ndarray]:
    """The trial with its node placed against `partner`, its energy, and
    the energy's gradient over the six shape parameters, which for a
    single-node state carries xi0's: dE = dE|xi0 + dE/dxi0 dxi0."""
    if label.n != 1:
        return (params, *energy_gradient(trial_channels(
            params, label, setup, rules, grad=True), label, setup, rules))
    xi0, channels, dxi0 = solve_node(label, setup, params, partner, rules)
    energy, g = energy_gradient(channels, label, setup, rules)
    # the xi rows are (alpha, gamma, xi0), the eta rows follow
    return params.replace(xi0=xi0), energy, np.delete(g, 2) + g[2] * dxi0


def _initial_inverse_hessian(gradient, z: np.ndarray,
                             g: np.ndarray) -> np.ndarray:
    """Inverse of the symmetrized forward-difference Hessian B of the exact
    gradient at z, with steps sqrt(eps) max(1, |z_i|).  B's asymmetry
    measures its error; an eigenvalue not above it is set to it."""
    B = np.empty((z.size, z.size))
    for i in range(z.size):
        step = np.zeros_like(z)
        step[i] = math.sqrt(np.finfo(float).eps) * max(1.0, abs(z[i]))
        B[:, i] = (gradient(z + step) - g) / step[i]
    lam, V = np.linalg.eigh(0.5 * (B + B.T))
    error = np.max(np.abs(B - B.T))
    return (V / np.maximum(lam, error)) @ V.T


def _armijo(evaluate, z: np.ndarray, E: float, d: np.ndarray, slope: float,
            shorten: bool = True):
    """(step, evaluate's result there) of an Armijo backtracking search
    from z along d (slope = g.d < 0) from the full step, or None once no
    shorter step moves z, or at once when not `shorten`.  A step must
    lower the energy.  A failed trial shrinks the step to the minimum of
    the quadratic through E, slope and its energy, within [0.1, 0.5] of
    it; one outside the domain halves it."""
    t = 1.0
    while not np.array_equal(z + t * d, z):
        try:
            trial = evaluate(z + t * d)
        except ParamDomainError:
            trial = None
        E_new = math.inf if trial is None else trial[1].E_total
        if E_new < E and E_new <= E + _ARMIJO * t * slope:
            return t * d, trial
        if not shorten:
            return None
        t *= 0.5 if trial is None else min(0.5, max(
            0.1, -0.5 * t * slope / (E_new - E - t * slope)))
    return None


def optimize_state(label: StateLabel, setup: PhysicalSetup, init: TrialParams,
                   rule_N: int | None = None,
                   ortho_ref: TrialParams | None = None,
                   frozen: dict[str, float] | None = None) -> OptimizationResult:
    """Rayleigh-quotient optimum over the six shape parameters at init.p.

    p is not a descent variable, and the quadrature rule is built once at
    it.  When init carries the exact energy of this label at this setup
    (seed_for's seeds do; a hand-built TrialParams, or a seed moved to
    another label or R, does not), one evaluation gives the seed's gap
    g = E_var - E_exact, and g <= GAP_TOL * max(1, |E_exact|) returns the
    seed without descending.  Otherwise BFGS on the exact gradient
    descends (Nocedal & Wright, Numerical Optimization, ch. 6) by Armijo
    backtracking along -H g, H from a forward-difference Hessian; a step
    outside the domain raises ParamDomainError, which shortens it.  Once
    the gain the model predicts, g.H.g/2, is at most GAP_TOL * max(1, |E|),
    full steps go on while they lower the energy (they place the xi0 of
    node states, which the energy fixes only to second order), and the
    run ends, converged, at the first that does not.  A run that finds no
    step at all ends the descent, not converged.  Runs from fresh models
    follow, since a curved valley outlasts one model, until a run gains at
    most GAP_TOL * max(1, |E|).  The result is never above the seed and
    is deterministic for a given init.  `frozen` fixes named shape
    parameters, and the descent sees the gradient over the others; any
    other key, p included, raises ValueError.
    For n=1 states `ortho_ref` must hold the converged nodeless parameters
    of the same parity; xi0 then follows from solve_node at every step.
    A label outside SUPPORTED_LABELS raises UnsupportedStateError before
    any evaluation; a seed outside the domain raises ParamDomainError.
    """
    require_supported(label)
    init.validate()
    if label.n == 1 and ortho_ref is None:
        raise ValueError("n=1 optimization needs ortho_ref (nodeless state)")
    frozen = frozen or {}
    if set(frozen) - set(_SHAPE):
        raise ValueError(f"frozen takes only {_SHAPE}, got {sorted(frozen)}")
    p = init.p
    free = [i for i, k in enumerate(_SHAPE) if k not in frozen]
    x0 = np.array([frozen.get(k, getattr(init, k)) for k in _SHAPE])
    N = rule_N if rule_N is not None else default_rule_size(p)
    rules = build_rules(p, N)
    partner = _partner(label, setup, ortho_ref, rules)
    origin = init.origin
    E_exact = (origin.E_total if origin is not None and origin.label == label
               and origin.setup == setup else None)
    evaluations = 0

    def evaluate(z: np.ndarray):
        """(params, energy, gradient over the free coordinates) at z."""
        nonlocal evaluations
        evaluations += 1
        x = x0.copy()
        x[free] = z
        pars = TrialParams(*(float(v) for v in x), p)
        pars.validate()
        pars, energy, grad = _evaluate(label, setup, pars, partner, rules)
        return pars, energy, grad[free]

    z = x0[free]
    pars, energy, g = evaluate(z)
    E, iterations, converged = energy.E_total, 0, True
    if E_exact is None or E - E_exact > GAP_TOL * max(1.0, abs(E_exact)):
        while True:  # BFGS runs, each from a fresh model, to an idle one
            E_run = E
            H = _initial_inverse_hessian(lambda v: evaluate(v)[2], z, g)
            while True:
                d = -H @ g
                slope = float(g @ d)
                converged = -0.5 * slope <= GAP_TOL * max(1.0, abs(E))
                # a step the model deems idle is still taken if it gains
                step = _armijo(evaluate, z, E, d, slope, not converged)
                iterations += 1
                if step is None:
                    break
                s, (pars, energy, g_new) = step
                y, z, E, g = g_new - g, z + s, energy.E_total, g_new
                sy = float(s @ y)
                if sy > 0.0:  # BFGS update of the inverse Hessian
                    Hy = H @ y
                    H = (H + ((sy + y @ Hy) / sy**2) * np.outer(s, s)
                         - (np.outer(Hy, s) + np.outer(s, Hy)) / sy)
            if not converged or E_run - E <= GAP_TOL * max(1.0, abs(E)):
                break

    gap = None if E_exact is None else energy.E_total - E_exact
    return OptimizationResult(label, setup, pars, energy, iterations,
                              evaluations, converged, N, gap)


# ----------------------------------------------------------------------
# cold R-scans


def scan_R(label: StateLabel, R_grid) -> list[OptimizationResult]:
    """Optimize one state at each R of a grid: a loop over one StateBank.

    Every point is StateBank.get's cold solve, so a point's result does
    not depend on the rest of the grid or its order.  A failed point
    raises its typed error; an unsupported label raises before any solve.
    """
    from .states import StateBank  # states imports this module

    require_supported(label)
    bank = StateBank()
    return [bank.get(label, R).result for R in R_grid]


# ----------------------------------------------------------------------
# optimized-parameter store, written by `twocenter optimize --store`


def store_dir() -> str:
    return os.environ.get("TWOCENTER_DATA_DIR",
                          os.path.join(os.path.expanduser("~"), ".twocenter"))


def _store_key(label: StateLabel, R: float) -> str:
    """File name of a stored result, keyed by the exact R (its repr)."""
    sign = "p" if label.parity == +1 else "m"
    return f"{label.n}{label.m}{label.lam}{sign}_R{float(R)!r}.json"


def save_result(result: OptimizationResult, A: float | None = None,
                directory: str | None = None, git_rev: str = "unknown") -> str:
    directory = directory or store_dir()
    os.makedirs(directory, exist_ok=True)
    doc = result.as_dict()
    doc["A"] = A
    doc["meta"] = {"git_rev": git_rev, "rule_N": result.rule_N}
    path = os.path.join(directory, _store_key(result.label, result.setup.R))
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path
