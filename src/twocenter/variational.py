"""Variational optimization of the trial parameters.

A deterministic simplex descent (Nelder-Mead with a fixed restart ladder
of shrinking initial steps) minimizes the Rayleigh quotient over
(alpha, gamma, a1, a2, b2, b3, p).  For single-node states the node
position xi0 is not a descent variable: each objective evaluation pins it
through the orthogonality condition against the nodeless state of the
same parity; that overlap is linear in xi0, so solve_node places the node
in closed form, on channels that the Rayleigh quotient then reuses.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .model import (EnergyPair, PhysicalSetup, StateLabel,
                    UnboundChannelError, p_from_energy)
from .quadrature import (QuadratureError, build_rules, channel_moments,
                         energy_from_channels, integrate, rayleigh_quotient,
                         trial_channels)
from .trial import (ParamDomainError, TrialParams, eta_channel, xi_channel,
                    xi_envelope)

_FIELDS = ("alpha", "gamma", "a1", "a2", "b2", "b3", "p")
# initial simplex steps of optimize_state's Nelder-Mead runs, in order
STEP_LADDER = (0.05, 0.01, 0.002, 0.0005)


@dataclass
class OptimizationResult:
    """Outcome of one variational minimization."""

    label: StateLabel
    setup: PhysicalSetup
    params: TrialParams
    energy: EnergyPair
    iterations: int
    evaluations: int
    converged: bool
    p_consistency: float
    rule_N: int

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


def p_consistency_check(result: OptimizationResult) -> float:
    """|p_opt - p(E_opt)|: how closely the shape parameter tracks the energy."""
    return abs(result.params.p - p_from_energy(result.energy.E_total,
                                               result.setup))


def solve_node(label: StateLabel, setup: PhysicalSetup, params: TrialParams,
               partner, rules) -> tuple[float, tuple]:
    """Node xi0 of a single-node trial, and its (xi, eta) channels there.

    The overlap with the nodeless partner of the same parity (its channels
    on `rules`) is c1 - xi0 c0, c_k = int g e xi^k (xi^2 S0 - S2), with g
    the partner's xi channel, e the trial's without its factor xi - xi0
    and S0, S2 the eta moments.  Both integrands are positive, so
    xi0 = c1/c0 is a weighted mean of the nodes, free of cancellation.
    """
    if label.n != 1:
        raise ValueError(f"solve_node applies to n=1 states, got {label}")
    (rx, re), (cg_x, cg_e) = rules, partner
    x = rx.nodes
    ce = eta_channel(params, label, re.nodes)
    me = channel_moments(cg_e, ce, re, label.lam)
    envelope = xi_envelope(params, label, setup, x)
    u = cg_x.vals * envelope[0] * (x * x - 1.0) ** label.lam \
        * (x * x * me.s0 - me.s2)
    c0, c1 = integrate(rx, np.array([u, x * u]))
    xi0 = c1 / c0 if c0 != 0.0 else math.inf
    if not 1.0 < xi0 < math.inf:
        raise ParamDomainError(f"node xi0 must be finite and > 1, got {xi0}")
    return xi0, (xi_channel(params.replace(xi0=xi0), label, setup, x,
                            envelope=envelope), ce)


def _partner(label: StateLabel, setup: PhysicalSetup,
             ortho_ref: TrialParams | None, rules):
    """Channels on `rules` of a single-node state's nodeless partner."""
    if label.n != 1:
        return None
    glabel = StateLabel(0, label.m, label.lam, label.parity)
    return trial_channels(ortho_ref, glabel, setup, rules)


def _energy(label: StateLabel, setup: PhysicalSetup, params: TrialParams,
            partner, rules) -> tuple[TrialParams, EnergyPair]:
    """The trial, with its node placed against `partner`, and its energy."""
    if label.n != 1:
        return params, rayleigh_quotient(params, label, setup, rules)
    xi0, channels = solve_node(label, setup, params, partner, rules)
    return (params.replace(xi0=xi0),
            energy_from_channels(channels, label, setup, rules))


def optimize_state(label: StateLabel, setup: PhysicalSetup, init: TrialParams,
                   budget: int | None = None, rule_N: int | None = None,
                   ortho_ref: TrialParams | None = None,
                   frozen: dict[str, float] | None = None) -> OptimizationResult:
    """Locally minimal Rayleigh quotient over the seven shape parameters.

    Derivative-free and deterministic for a given (init, budget): a fixed
    ladder of Nelder-Mead runs with the shrinking initial simplex steps of
    STEP_LADDER, the quadrature rule rebuilt from the current best p
    between runs.  Steps that violate the parameter domain are rejected
    inside the objective.
    For n=1 states `ortho_ref` must hold the converged nodeless parameters
    of the same parity; xi0 then follows from solve_node at every step.
    """
    init.validate()
    if label.n == 1 and ortho_ref is None:
        raise ValueError("n=1 optimization needs ortho_ref (nodeless state)")
    frozen = dict(frozen or {})
    free = [i for i, k in enumerate(_FIELDS) if k not in frozen]
    x_full = np.array([frozen.get(k, getattr(init, k)) for k in _FIELDS])
    # budget caps each simplex run; the restart ladder is fixed-length
    budget = budget if budget is not None else 400 * len(free)
    evaluations = 0
    iterations = 0

    def rules_for(p_scale: float):
        N = rule_N if rule_N is not None else default_rule_size(p_scale)
        return build_rules(p_scale, N), N

    def run(x0: np.ndarray, step: float, rules) -> tuple[np.ndarray, float, bool]:
        nonlocal evaluations, iterations
        scales = np.maximum(0.2, 0.15 * np.abs(x0))
        partner = _partner(label, setup, ortho_ref, rules)

        def objective(z: np.ndarray) -> float:
            nonlocal evaluations
            evaluations += 1
            x = x_full.copy()
            x[free] = z
            try:
                pars = TrialParams(*[float(v) for v in x])
                pars.validate()
                return _energy(label, setup, pars, partner, rules)[1].E_total
            except (ParamDomainError, ValueError, FloatingPointError,
                    OverflowError):
                return 1e6

        z0 = x0[free]
        simplex = np.vstack([z0] + [z0 + step * scales[free] * row
                                    for row in np.eye(len(free))])
        res = minimize(objective, z0, method="Nelder-Mead",
                       options=dict(initial_simplex=simplex, xatol=1e-9,
                                    fatol=1e-14, maxfev=budget,
                                    maxiter=10**9))
        iterations += res.nit
        xr = x_full.copy()
        xr[free] = res.x
        return xr, float(res.fun), bool(res.success)

    x_best, f_best, ok = x_full, math.inf, False
    for step in STEP_LADDER:
        rules, N = rules_for(x_best[-1] if f_best < 1e5 else init.p)
        x_try, f_try, run_ok = run(x_best, step, rules)
        if f_try < f_best:
            x_best, f_best, ok = x_try, f_try, run_ok

    # the energy is nearly degenerate along a valley in which p trades
    # against the other parameters; among those optima, pick the one with
    # p equal to the p implied by the energy itself (the coincidence the
    # optimum exhibits anyway), re-relaxing the remaining parameters
    if "p" not in frozen and f_best < 1e5:
        p_idx = _FIELDS.index("p")
        try:
            p_snap = p_from_energy(f_best, setup)
        except UnboundChannelError:
            p_snap = None
        if p_snap is not None and abs(p_snap - x_best[p_idx]) < 0.01 * p_snap:
            x_snap = x_best.copy()
            x_snap[p_idx] = p_snap
            saved_free = list(free)
            free = [i for i in free if i != p_idx]
            x_full = x_snap
            rules, N = rules_for(p_snap)
            accepted = False
            for step in (0.002, 0.0004):
                x_try, f_try, run_ok = run(x_snap, step, rules)
                # the valley floor is degenerate at the quadrature-noise
                # level; prefer the snapped member within that degeneracy
                if f_try < f_best + 5e-12 * max(1.0, abs(f_best)):
                    x_snap, accepted = x_try, True
                    if f_try < f_best:
                        f_best, ok = f_try, run_ok
            if accepted:
                x_best = x_snap
            free = saved_free

    rules, N = rules_for(x_best[-1])
    pars = TrialParams(*[float(v) for v in x_best])
    pars, energy = _energy(label, setup, pars,
                           _partner(label, setup, ortho_ref, rules), rules)
    p_cons = abs(pars.p - p_from_energy(energy.E_total, setup))
    return OptimizationResult(label, setup, pars, energy, iterations,
                              evaluations, ok, p_cons, N)


# ----------------------------------------------------------------------
# R-continuation scans


def scan_R(label: StateLabel, R_grid, warm_start: bool = True,
           rule_N: int | None = None) -> list:
    """Optimize one state over a sorted R grid.

    Every point has a cold seed, the built-in preset.  With warm_start
    the continuation seed (the previous optimum, p-like parameters
    rescaled by the R ratio) competes with it: the optimization starts
    from whichever of the two has the lower starting Rayleigh quotient, so
    a continuation seed from a neighbouring valley cannot displace a
    better preset.  A continuation seed outside the parameter domain is
    dropped.  A point that fails with a domain or quadrature error
    (ValueError, QuadratureError) is returned in place as the exception
    object without aborting the scan; anything else propagates.
    """
    from .presets import seed_for

    R_grid = list(R_grid)
    if sorted(R_grid) != R_grid:
        raise ValueError("R_grid must be sorted ascending")
    out: list = []
    prev: OptimizationResult | None = None
    for R in R_grid:
        try:
            setup = PhysicalSetup(R)
            ref = None
            if label.n == 1:
                glabel = StateLabel(0, label.m, label.lam, label.parity)
                ref = optimize_state(glabel, setup, seed_for(glabel, R),
                                     rule_N=rule_N).params
            seed = seed_for(label, R)
            if warm_start and prev is not None and prev.converged:
                warm = rescale_seed(prev.params, prev.setup.R, R)
                seed = _lower_seed(label, setup, warm, seed, ref, rule_N)
            res = optimize_state(label, setup, seed,
                                 rule_N=rule_N, ortho_ref=ref)
            out.append(res)
            prev = res
        except (ValueError, QuadratureError) as exc:  # failed point, in place
            out.append(exc)
            prev = None
    _warn_on_parameter_jumps(out, R_grid)
    return out


def _start_energy(label: StateLabel, setup: PhysicalSetup, seed: TrialParams,
                  ortho_ref: TrialParams | None, rule_N: int | None) -> float:
    """The objective optimize_state(label, setup, seed) starts from."""
    N = rule_N if rule_N is not None else default_rule_size(seed.p)
    rules = build_rules(seed.p, N)
    partner = _partner(label, setup, ortho_ref, rules)
    return _energy(label, setup, seed, partner, rules)[1].E_total


def _lower_seed(label: StateLabel, setup: PhysicalSetup, warm: TrialParams,
                cold: TrialParams, ortho_ref: TrialParams | None,
                rule_N: int | None) -> TrialParams:
    """Of a continuation seed and a cold seed, the one of lower starting
    energy; the cold one if the continuation seed leaves the domain."""
    try:
        warm.validate()
    except ParamDomainError:
        return cold
    e_warm = _start_energy(label, setup, warm, ortho_ref, rule_N)
    e_cold = _start_energy(label, setup, cold, ortho_ref, rule_N)
    return warm if e_warm < e_cold else cold


def _warn_on_parameter_jumps(results, R_grid) -> None:
    """Optimized parameters should drift smoothly in R; a step exceeding
    ten times the local secant trend, compared per unit R so that uneven
    grids do not raise false alarms, is flagged (heuristic, not fatal)."""
    ok = [r for r in results if isinstance(r, OptimizationResult)]
    if len(ok) < 3 or len(ok) != len(results):
        return
    dR = np.diff(np.asarray(R_grid, dtype=float))
    for k in _FIELDS:
        vals = np.array([getattr(r.params, k) for r in ok])
        steps = np.abs(np.diff(vals))
        for i in range(1, len(steps)):
            if not dR[i - 1] > 0.0:
                continue
            # the previous secant slope carried over this step's width
            trend = max(steps[i - 1] / dR[i - 1] * dR[i],
                        1e-3 * max(1.0, abs(vals[i])))
            if steps[i] > 10.0 * trend:
                warnings.warn(
                    f"parameter {k} jumps at R={R_grid[i + 1]:g}: "
                    f"step {steps[i]:.3g} vs trend {trend:.3g}",
                    RuntimeWarning, stacklevel=2)


def rescale_seed(params: TrialParams, R_from: float, R_to: float) -> TrialParams:
    """Continuation seed: p-like parameters scale ~R, quadratic ones ~R^2."""
    s = R_to / R_from
    return TrialParams(alpha=params.alpha * s, gamma=params.gamma,
                       a1=params.a1 * s, a2=params.a2 * s * s,
                       b2=params.b2 * s * s, b3=params.b3 * s * s,
                       p=params.p * s)


# ----------------------------------------------------------------------
# optimized-parameter store


def store_dir() -> str:
    return os.environ.get("TWOCENTER_DATA_DIR",
                          os.path.join(os.path.expanduser("~"), ".twocenter"))


def _store_key(label: StateLabel, R: float) -> str:
    sign = "p" if label.parity == +1 else "m"
    return f"{label.n}{label.m}{label.lam}{sign}_R{R:.6f}.json"


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


def load_params(label: StateLabel, R: float,
                directory: str | None = None) -> TrialParams | None:
    path = os.path.join(directory or store_dir(), _store_key(label, R))
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        doc = json.load(fh)
    d = doc["params"]
    return TrialParams(alpha=d["alpha"], gamma=d["gamma"], a1=d["a1"],
                       a2=d["a2"], b2=d["b2"], b3=d["b3"], p=d["p"],
                       xi0=d.get("xi0"))
