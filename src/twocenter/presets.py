"""Built-in optimization seeds.

BAKED (`_preset_data.py`, written by tools/bake_presets.py) holds
converged parameter sets for the eight supported states on the working R
grid, produced by this package's own continuation scans and shipped so
optimizations start near their basin.  seed_for() falls back to rescaling
the nearest preset in R and, failing that, to a crude build from the
tabulated p trend.
"""

from __future__ import annotations

import math

from ._preset_data import BAKED
from .model import StateLabel
from .trial import TrialParams
from .variational import rescale_seed

# p(R) anchors per state, used only for crude cold starts.
_P_TREND = {
    (0, 0, 0, +1): {1.0: 0.8519936, 2.0: 1.485015, 4.0: 2.2046, 6.0: 3.49506,
                    10.0: 5.47987, 12.5: 6.73221, 20.0: 10.4882, 30.0: 15.492,
                    40.0: 20.4939, 50.0: 25.49511},
    (0, 0, 0, -1): {1.0: 0.5314196, 2.0: 1.155452, 4.0: 2.3589, 6.0: 3.43971,
                    10.0: 5.47678, 12.54525: 6.75434, 20.0: 10.4882,
                    30.0: 15.492, 40.0: 20.4939},
    (0, 0, 1, +1): {1.0: 0.486882, 2.0: 0.926037, 4.0: 1.67529, 6.0: 2.31211,
                    8.0: 2.881725, 10.0: 3.41113, 14.0: 4.417514, 20.0: 5.9175,
                    30.0: 8.43772, 40.0: 10.9521, 50.0: 13.4613},
    (0, 0, 1, -1): {1.0: 0.3343325, 2.0: 0.673349, 4.0: 1.3592746,
                    6.0: 2.023784, 8.0: 2.649628, 10.0: 3.23973, 14.0: 4.3444,
                    20.0: 5.905531, 30.0: 8.4374, 40.0: 10.9521,
                    50.0: 13.46126},
    (0, 0, 2, +1): {1.0: 0.331316537, 2.0: 0.652277061, 4.0: 1.247220956,
                    6.0: 1.781834745, 8.0: 2.267875022, 10.0: 2.716125923,
                    14.0: 3.530338183, 20.0: 4.623398216, 30.0: 6.321870831,
                    40.0: 8.014690427, 50.0: 9.706846056},
    (0, 0, 2, -1): {1.0: 0.249997537, 2.0: 0.499925080, 4.0: 0.998020549,
                    6.0: 1.488636608, 8.0: 1.965396909, 10.0: 2.424721809,
                    14.0: 3.290125373, 20.0: 4.479105705, 30.0: 6.288970023,
                    40.0: 8.010733322, 50.0: 9.706500079},
    (1, 0, 0, +1): {1.0: 0.459850295, 2.0: 0.849546791, 4.0: 1.519249466,
                    6.0: 2.110919849, 8.0: 2.663995993, 10.0: 3.199301689,
                    20.0: 5.805158111, 30.0: 8.359177003, 40.0: 10.889970797,
                    50.0: 13.409749785},
    (1, 0, 0, -1): {1.0: 0.345916, 2.0: 0.714721, 4.0: 1.40031296,
                    6.0: 2.02331, 8.0: 2.60758, 10.0: 3.16691, 20.0: 5.80435,
                    30.0: 8.35916, 40.0: 10.88997, 50.0: 13.40975},
}


def _p_guess(label: StateLabel, R: float) -> float:
    try:
        trend = _P_TREND[(label.n, label.m, label.lam, label.parity)]
    except KeyError:
        raise KeyError(
            f"no optimization presets for state {label}; supported states "
            "are the nodeless ones with lam <= 2 and the single-node "
            "sigma pair") from None
    Rs = sorted(trend)
    if R <= Rs[0]:
        return trend[Rs[0]] * R / Rs[0]
    if R >= Rs[-1]:
        return trend[Rs[-1]] * R / Rs[-1]
    for lo, hi in zip(Rs, Rs[1:]):
        if lo <= R <= hi:
            t = (R - lo) / (hi - lo)
            return trend[lo] * (1 - t) + trend[hi] * t
    raise AssertionError


def crude_seed(label: StateLabel, R: float) -> TrialParams:
    """Cold-start guess from the tabulated p trend and generic shape ratios."""
    p = _p_guess(label, R)
    return TrialParams(alpha=0.97 * p, gamma=1.0, a1=0.8 * p,
                       a2=0.015 * R * R, b2=0.015 * R * R, b3=0.0, p=p)


def seed_for(label: StateLabel, R: float) -> TrialParams:
    """Best available optimization seed for (label, R)."""
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
