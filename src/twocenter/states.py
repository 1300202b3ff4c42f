"""Solved states: optimized parameters plus optional phase corrections.

A SolvedState bundles the optimized trial parameters of one (label, R)
with the first-order phase corrections once attached, and serves scaled
channel arrays to the quadrature and transition code.  The
corrected channel functions are X0 exp(-phi1) and Y0 exp(-rho1); for a
single-node state the xi channel instead carries the exact local node
structure produced by the node-correction builder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (EnergyPair, PhysicalSetup, StateLabel, p_from_energy,
                    require_supported)
from .nonlinearization import (ChannelPT, NodeCorrection, first_correction_eta,
                               first_correction_xi, node_correction_xi)
from .presets import seed_for
from .quadrature import (build_rules, energy_from_channels, norm_from_moments,
                         trial_moments)
from .trial import (ChannelArrays, TrialParams, eta_channel, xi_channel,
                    xi_envelope)
from .variational import (OptimizationResult, default_rule_size,
                          optimize_state)


@dataclass
class SolvedState:
    label: StateLabel
    setup: PhysicalSetup
    params: TrialParams
    energy: EnergyPair
    result: OptimizationResult | None = None
    pt_xi: ChannelPT | None = None
    pt_eta: ChannelPT | None = None
    node: NodeCorrection | None = None

    @property
    def corrected(self) -> bool:
        return self.pt_eta is not None

    def xi_arrays(self, nodes) -> ChannelArrays:
        nodes = np.asarray(nodes, dtype=float)
        if self.node is not None:
            return self._node_corrected_xi(nodes)
        return _damped(xi_channel(self.params, self.label, self.setup, nodes),
                       self.pt_xi)

    def eta_arrays(self, nodes) -> ChannelArrays:
        return _damped(eta_channel(self.params, self.label, nodes),
                       self.pt_eta)

    def _node_corrected_xi(self, nodes) -> ChannelArrays:
        nc = self.node
        e, dphi, logscale = xi_envelope(self.params, self.label, self.setup,
                                        nodes)
        d = nodes - nc.xi0
        absd = np.maximum(np.abs(d), 1e-300)
        r, dr = nc.regular(nodes)
        G = d + nc.f1 + nc.c1 * d * np.log(absd) + d * r
        dG = 1.0 + nc.c1 * (np.log(absd) + 1.0) + r + d * dr
        return ChannelArrays(G * e, (dG - G * dphi) * e, logscale, nodes)

    def channels(self, rules):
        """The state's (xi, eta) channel arrays on a rule pair."""
        return self.xi_arrays(rules[0].nodes), self.eta_arrays(rules[1].nodes)

    def norm_squared(self, rules=None) -> float:
        rules = rules or self.rules()
        mx, me = trial_moments(self.channels(rules), self.label, rules)
        return norm_from_moments(mx, me, self.setup)

    def rayleigh(self, rules=None) -> EnergyPair:
        rules = rules or self.rules()
        return energy_from_channels(self.channels(rules), self.label,
                                    self.setup, rules)

    def rules(self):
        """The rule pair of the solve: its size, or the default at p."""
        N = (self.result.rule_N if self.result is not None
             else default_rule_size(self.params.p))
        return build_rules(self.params.p, N)


def _damped(ca: ChannelArrays, pt: ChannelPT | None) -> ChannelArrays:
    """The channel times exp(-phase correction), when one is attached."""
    if pt is None:
        return ca
    phase, slope = pt.correction(ca.nodes)
    damp = np.exp(-phase)
    return ChannelArrays(ca.vals * damp, (ca.dvals - ca.vals * slope) * damp,
                         ca.logscale, ca.nodes)


def attach_corrections(state: SolvedState) -> SolvedState:
    """Compute and attach the first-order phase corrections in place."""
    p_phys = p_from_energy(state.energy.E_total, state.setup)
    if state.label.n == 0:
        state.pt_xi = first_correction_xi(state.params, state.label,
                                          state.setup, p_phys)
    else:
        state.node = node_correction_xi(state.params, state.label,
                                        state.setup, p_phys)
    state.pt_eta = first_correction_eta(state.params, state.label, p_phys)
    return state


def correction_energy_shift(state: SolvedState) -> float:
    """|E(corrected) - E(base)|: how much the phase correction moves the
    variational energy (a quality measurement, small for a good ansatz)."""
    if not state.corrected:
        raise ValueError("state carries no corrections")
    return abs(state.rayleigh().E_total - state.energy.E_total)


class StateBank:
    """Cache of solved states keyed by (label, R); resolves the nodeless
    prerequisite of single-node states automatically.  Plain and corrected
    requests return independent views over the shared solve, so asking for
    corrections never changes what a plain request sees."""

    def __init__(self, rule_N: int | None = None):
        self.rule_N = rule_N
        self._solves: dict = {}
        self._corrections: dict = {}

    def get(self, label: StateLabel, R: float,
            corrected: bool = False) -> SolvedState:
        key = (label, R)
        if key not in self._solves:
            require_supported(label)
            setup = PhysicalSetup(R)
            ortho = None
            if label.n == 1:
                glabel = StateLabel(0, label.m, label.lam, label.parity)
                ortho = self.get(glabel, R).params
            self._solves[key] = optimize_state(
                label, setup, seed_for(label, R), rule_N=self.rule_N,
                ortho_ref=ortho)
        res = self._solves[key]
        state = SolvedState(label, res.setup, res.params, res.energy,
                            result=res)
        if corrected:
            if key not in self._corrections:
                attach_corrections(state)
                self._corrections[key] = (state.pt_xi, state.pt_eta,
                                          state.node)
            state.pt_xi, state.pt_eta, state.node = self._corrections[key]
        return state
