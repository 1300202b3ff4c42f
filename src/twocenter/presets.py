"""Built-in optimization seeds.

BAKED (`_preset_data.py`, written by tools/bake_presets.py) holds
converged parameter sets for the eight supported states on the working R
grid, produced by this package's own continuation scans and shipped so
optimizations start near their basin.  seed_for() falls back to rescaling
the nearest preset in R and, failing that, to a crude seed built around
the exact p of the bispectral oracle.
"""

from __future__ import annotations

import math

from ._preset_data import BAKED
from .model import PhysicalSetup, StateLabel
from .oracle import solve_bispectral
from .trial import TrialParams


def rescale_seed(params: TrialParams, R_from: float, R_to: float) -> TrialParams:
    """Continuation seed: p-like parameters scale ~R, quadratic ones ~R^2."""
    s = R_to / R_from
    return TrialParams(alpha=params.alpha * s, gamma=params.gamma,
                       a1=params.a1 * s, a2=params.a2 * s * s,
                       b2=params.b2 * s * s, b3=params.b3 * s * s,
                       p=params.p * s)


def crude_seed(label: StateLabel, R: float) -> TrialParams:
    """Cold-start guess: the oracle's exact p with generic shape ratios.

    An oracle failure propagates as the oracle's own error."""
    p = solve_bispectral(label, PhysicalSetup(R)).p
    return TrialParams(alpha=0.97 * p, gamma=1.0, a1=0.8 * p,
                       a2=0.015 * R * R, b2=0.015 * R * R, b3=0.0, p=p)


def seed_for(label: StateLabel, R: float) -> TrialParams:
    """Best available optimization seed for (label, R).

    The baked preset at R itself; else the nearest preset of the same
    label within a factor of about two in R, rescaled to R; else
    crude_seed.  Only the eight supported labels have presets, so any
    other label gets a crude seed, which optimize_state then rejects.
    """
    key = (label.n, label.m, label.lam, label.parity)
    exact = BAKED.get(key + (R,))
    if exact is not None:
        return TrialParams(*exact)
    near = [k[-1] for k in BAKED if k[:4] == key]
    if near:
        R_near = min(near, key=lambda r: abs(math.log(r / R)))
        if 0.45 < R_near / R < 2.2:
            return rescale_seed(TrialParams(*BAKED[key + (R_near,)]),
                                R_near, R)
    return crude_seed(label, R)
