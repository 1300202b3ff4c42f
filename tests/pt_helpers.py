"""Checks of the perturbation theory that only the tests use.

residual_custom_phase is the Riccati residual of an analytically given
phase, for the exact one-center fixtures; p_reopt_shift measures how far
the phase correction moves the re-optimized p (acceptance criterion 6).
"""

import numpy as np

from twocenter.model import p_from_energy
from twocenter.quadrature import rayleigh_quotient
from twocenter.states import SolvedState


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
