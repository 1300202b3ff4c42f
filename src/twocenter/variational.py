"""Variational optimization of the trial parameters.

A deterministic simplex descent (Nelder-Mead with a fixed restart ladder
of shrinking initial steps) minimizes the Rayleigh quotient over the six
shape parameters (alpha, gamma, a1, a2, b2, b3).  The decay p is pinned
at the seed's, for a presets.seed_for seed the oracle's exact decay; a
seed within GAP_TOL of the exact energy it carries is not descended.
For single-node states the node position xi0 is not a descent variable:
each objective evaluation pins it through the orthogonality condition
against the nodeless state of the same parity; that overlap is linear in
xi0, so solve_node places the node in closed form, on channels that the
Rayleigh quotient then reuses.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .model import (EnergyPair, PhysicalSetup, StateLabel, p_from_energy,
                    require_supported)
from .presets import seed_for
from .quadrature import (QuadratureError, build_rules, channel_moments,
                         energy_from_channels, integrate, rayleigh_quotient,
                         trial_channels)
from .trial import (ParamDomainError, TrialParams, eta_channel, xi_channel,
                    xi_envelope)

_FIELDS = ("alpha", "gamma", "a1", "a2", "b2", "b3", "p")
_SHAPE = _FIELDS[:-1]  # the descent variables; p stays the seed's
# a seed within this gap of the exact energy, relative to max(1, |E|),
# is returned undescended
GAP_TOL = 1e-11
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
    """Rayleigh-quotient optimum over the six shape parameters at init.p.

    p is not a descent variable, and the quadrature rule is built once at
    it.  When init carries the exact energy of this label at this setup
    (seed_for's seeds do; a hand-built TrialParams, or a seed moved to
    another label or R, does not), one evaluation gives the seed's gap
    g = E_var - E_exact, and g <= GAP_TOL * max(1, |E_exact|) returns the
    seed without descending.  Otherwise a fixed ladder of Nelder-Mead
    runs, with the shrinking initial simplex steps of STEP_LADDER,
    descends from it; steps that violate the parameter domain are
    rejected inside the objective.  Deterministic for a given (init,
    budget).  The energy is within GAP_TOL + the quadrature floor of the
    ansatz optimum; at a stopped point the result is the projected seed,
    not a local minimum.  `frozen` fixes named parameters at given values.
    For n=1 states `ortho_ref` must hold the converged nodeless parameters
    of the same parity; xi0 then follows from solve_node at every step.
    A label outside SUPPORTED_LABELS raises UnsupportedStateError before
    any evaluation.
    """
    require_supported(label)
    init.validate()
    if label.n == 1 and ortho_ref is None:
        raise ValueError("n=1 optimization needs ortho_ref (nodeless state)")
    frozen = dict(frozen or {})
    p = frozen.pop("p", init.p)
    free = [i for i, k in enumerate(_SHAPE) if k not in frozen]
    x0 = np.array([frozen.get(k, getattr(init, k)) for k in _SHAPE])
    N = rule_N if rule_N is not None else default_rule_size(p)
    rules = build_rules(p, N)
    partner = _partner(label, setup, ortho_ref, rules)
    origin = init.origin
    E_exact = (origin.E_total if origin is not None and origin.label == label
               and origin.setup == setup else None)
    # budget caps each simplex run; the restart ladder is fixed-length
    budget = budget if budget is not None else 400 * len(free)
    evaluations = 0
    iterations = 0

    def objective(z: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        x = x0.copy()
        x[free] = z
        try:
            pars = TrialParams(*[float(v) for v in x], p)
            pars.validate()
            return _energy(label, setup, pars, partner, rules)[1].E_total
        except (ParamDomainError, ValueError, FloatingPointError,
                OverflowError):
            return 1e6

    x_best, ok = x0, True
    if E_exact is None or (objective(x0[free]) - E_exact
                           > GAP_TOL * max(1.0, abs(E_exact))):
        f_best, ok = math.inf, False
        for step in STEP_LADDER:  # each run starts from the best so far
            z0 = x_best[free]
            scales = np.maximum(0.2, 0.15 * np.abs(z0))
            simplex = np.vstack([z0] + [z0 + step * scales * row
                                        for row in np.eye(len(free))])
            res = minimize(objective, z0, method="Nelder-Mead",
                           options=dict(initial_simplex=simplex, xatol=1e-9,
                                        fatol=1e-14, maxfev=budget,
                                        maxiter=10**9))
            iterations += res.nit
            if res.fun < f_best:
                x_best = x_best.copy()
                x_best[free] = res.x
                f_best, ok = float(res.fun), bool(res.success)

    pars, energy = _energy(label, setup,
                           TrialParams(*[float(v) for v in x_best], p),
                           partner, rules)
    gap = None if E_exact is None else energy.E_total - E_exact
    return OptimizationResult(label, setup, pars, energy, iterations,
                              evaluations, ok, N, gap)


# ----------------------------------------------------------------------
# cold R-scans


def scan_R(label: StateLabel, R_grid) -> list:
    """Optimize one state over a sorted R grid, each point on its own.

    Every point is the cold solve StateBank.get makes: seed_for's
    projection of the exact solution, optimized, with the nodeless
    partner of an n=1 state solved the same way first.  A point's result
    therefore does not depend on the rest of the grid.  A point that
    fails with a domain or quadrature error (ValueError, QuadratureError)
    is returned in place as the exception object without aborting the
    scan; anything else propagates, an UnsupportedStateError included,
    which is raised before any solve.
    """
    require_supported(label)
    R_grid = list(R_grid)
    if sorted(R_grid) != R_grid:
        raise ValueError("R_grid must be sorted ascending")
    out: list = []
    for R in R_grid:
        try:
            setup = PhysicalSetup(R)
            ref = None
            if label.n == 1:
                glabel = StateLabel(0, label.m, label.lam, label.parity)
                ref = optimize_state(glabel, setup,
                                     seed_for(glabel, R)).params
            out.append(optimize_state(label, setup, seed_for(label, R),
                                      ortho_ref=ref))
        except (ValueError, QuadratureError) as exc:  # failed point, in place
            out.append(exc)
    return out


# ----------------------------------------------------------------------
# optimized-parameter store


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
