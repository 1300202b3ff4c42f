import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies
from scipy.optimize import brentq

from twocenter.model import (EnergyPair, PhysicalSetup, StateLabel,
                             UnsupportedStateError)
from twocenter.oracle import solve_bispectral
from twocenter.presets import seed_for
from twocenter.quadrature import (build_rules, channel_moments,
                                  rayleigh_quotient, trial_channels)
from twocenter.trial import (ParamDomainError, TrialParams, eta_channel,
                             xi_channel)
from twocenter.variational import (GAP_TOL, OptimizationResult, _energy,
                                   _partner, default_rule_size, load_params,
                                   optimize_state, p_consistency_check,
                                   save_result, scan_R, solve_node)

GS = StateLabel(0, 0, 0, +1)


def test_optimize_ground_state_from_published_seed():
    # cold start from the printed equilibrium parameter set
    seed = TrialParams(alpha=1.48407, gamma=1.0299, a1=0.9164, a2=0.05384,
                       b2=0.06, b3=0.00011, p=1.485015)
    res = optimize_state(GS, PhysicalSetup(2.0), seed)
    assert res.energy.E_total == pytest.approx(-1.20526842899, abs=5e-10)
    assert res.params.p == pytest.approx(1.485015, abs=2e-5)
    assert res.converged


def test_optimize_descends_from_seed():
    seed = seed_for(GS, 6.0).replace(alpha=3.1)  # deliberately detuned
    setup = PhysicalSetup(6.0)
    e_seed = rayleigh_quotient(seed, GS, setup,
                               build_rules(seed.p, 64)).E_total
    res = optimize_state(GS, setup, seed)
    assert res.energy.E_total <= e_seed + 1e-14


def test_optimize_odd_state(bank):
    st = bank.get(StateLabel(0, 0, 0, -1), 4.0)
    assert st.energy.E_total == pytest.approx(-0.8911012787, abs=5e-10)


def test_optimize_lam1_state(bank):
    st = bank.get(StateLabel(0, 0, 1, -1), 6.0)
    assert st.energy.E_total == pytest.approx(-0.12174444493, abs=5e-9)


def test_solve_node_even(bank):
    st = bank.get(StateLabel(1, 0, 0, +1), 4.0)
    assert st.params.xi0 == pytest.approx(1.477672193, abs=2e-6)


def test_solve_node_odd_small_R(bank):
    # at R = 1 the nodal spheroid radius inherits the flat-direction
    # freedom of both optimizations; agreement is a few parts in 1e5
    st = bank.get(StateLabel(1, 0, 0, -1), 1.0)
    assert st.params.xi0 == pytest.approx(5.360475264, abs=5e-5)
    assert st.energy.E_total == pytest.approx(1.521369039285, abs=5e-9)


def test_node_position_shrinks_toward_axis_end(bank):
    # xi0 - 1 decreases roughly like 1/R at large separations
    x10 = bank.get(StateLabel(1, 0, 0, +1), 10.0).params.xi0
    x20 = bank.get(StateLabel(1, 0, 0, +1), 20.0).params.xi0
    x50 = bank.get(StateLabel(1, 0, 0, +1), 50.0).params.xi0
    assert x50 - 1.0 == pytest.approx(0.0407, abs=5e-4)
    assert x50 < x20 < x10
    assert (x20 - 1.0) / (x50 - 1.0) == pytest.approx(2.5, rel=0.05)


def test_node_orthogonality_enforced(bank):
    from twocenter.quadrature import channel_moments

    g = bank.get(GS, 4.0)
    e = bank.get(StateLabel(1, 0, 0, +1), 4.0)
    rx, re = build_rules(0.5 * (g.params.p + e.params.p), 96)
    mx = channel_moments(g.xi_arrays(rx.nodes), e.xi_arrays(rx.nodes), rx, 0)
    me = channel_moments(g.eta_arrays(re.nodes), e.eta_arrays(re.nodes), re, 0)
    overlap = mx.s2 * me.s0 - mx.s0 * me.s2
    norm = np.sqrt(g.norm_squared((rx, re)) * e.norm_squared((rx, re)))
    a3 = 2.0 * np.pi * PhysicalSetup(4.0).a**3
    scaled = abs(overlap) * a3 * np.exp(-(mx.logscale + me.logscale)) / norm
    assert scaled <= 1e-10


def test_solve_node_rejects_root_below_one():
    # a partner with a node of its own moves the overlap root below xi = 1
    label, setup = StateLabel(1, 0, 0, +1), PhysicalSetup(4.0)
    pars = seed_for(label, 4.0)
    rules = build_rules(pars.p, 64)
    partner = trial_channels(seed_for(GS, 4.0).replace(xi0=1.6), GS, setup,
                             rules)
    with pytest.raises(ParamDomainError, match="finite and > 1"):
        solve_node(label, setup, pars, partner, rules)


def _node_overlap(label, setup, pars, partner, rules):
    """Overlap with the partner as a function of xi0, scaled by both norms."""
    (rx, re), (cg_x, cg_e) = rules, partner
    ce = eta_channel(pars, label, re.nodes)
    me = channel_moments(cg_e, ce, re, label.lam)
    mgx = channel_moments(cg_x, cg_x, rx, label.lam)
    mge = channel_moments(cg_e, cg_e, re, label.lam)
    mee = channel_moments(ce, ce, re, label.lam)
    ng = mgx.s2 * mge.s0 - mgx.s0 * mge.s2

    def overlap(xi0):
        cx = xi_channel(pars.replace(xi0=xi0), label, setup, rx.nodes)
        mx = channel_moments(cg_x, cx, rx, label.lam)
        mxx = channel_moments(cx, cx, rx, label.lam)
        nt = mxx.s2 * mee.s0 - mxx.s0 * mee.s2
        return (mx.s2 * me.s0 - mx.s0 * me.s2) / math.sqrt(ng * nt)

    return overlap


@settings(max_examples=40)
@given(R=strategies.floats(0.5, 50.0),
       parity=strategies.sampled_from((+1, -1)))
def test_closed_form_node_zeroes_overlap(R, parity):
    # 2ssg (even) and 3psu (odd) from their seeds, on the objective's rule
    label, glabel = StateLabel(1, 0, 0, parity), StateLabel(0, 0, 0, parity)
    setup = PhysicalSetup(R)
    pars = seed_for(label, R)
    rules = build_rules(pars.p, default_rule_size(pars.p))
    partner = trial_channels(seed_for(glabel, R), glabel, setup, rules)
    xi0, _ = solve_node(label, setup, pars, partner, rules)
    overlap = _node_overlap(label, setup, pars, partner, rules)
    assert abs(overlap(xi0)) <= 1e-13
    root = brentq(overlap, 1.0 + 1e-9, 60.0, xtol=1e-300,
                  rtol=4.0 * np.finfo(float).eps)
    assert abs(xi0 - root) <= 4.0 * math.ulp(root)


@pytest.mark.parametrize("parity,R", [(+1, 4.0), (-1, 10.0), (-1, 1.0)])
def test_node_objective_is_the_rayleigh_quotient(parity, R):
    label, glabel = StateLabel(1, 0, 0, parity), StateLabel(0, 0, 0, parity)
    setup = PhysicalSetup(R)
    pars = seed_for(label, R)
    rules = build_rules(pars.p, 64)
    partner = _partner(label, setup, seed_for(glabel, R), rules)
    xi0, _ = solve_node(label, setup, pars, partner, rules)
    placed, energy = _energy(label, setup, pars, partner, rules)
    assert placed == pars.replace(xi0=xi0)
    plain = rayleigh_quotient(placed, label, setup, rules)
    assert repr(energy) == repr(plain)


@pytest.mark.parametrize("label,R", [(GS, 2.0), (GS, 6.0),
                                     (StateLabel(0, 0, 1, -1), 6.0)])
def test_optimize_keeps_the_seed_p_and_reports_its_gap(label, R):
    # p is the oracle's decay, carried by the seed, never a descent
    # variable; stopped (1ssg R = 2) and descended results report g
    seed = seed_for(label, R)
    res = optimize_state(label, PhysicalSetup(R), seed)
    assert res.params.p == seed.p
    assert res.gap == res.energy.E_total - seed.origin.E_total
    assert -1e-11 <= res.gap <= 5e-10


def test_node_state_keeps_the_seed_p(bank):
    label = StateLabel(1, 0, 0, +1)
    st = bank.get(label, 4.0)
    assert st.params.p == seed_for(label, 4.0).p


def test_certified_seed_stops_after_one_evaluation():
    # the 1ssg R = 2 seed sits 9.9e-14 Ry above the exact energy
    setup = PhysicalSetup(2.0)
    seed = seed_for(GS, 2.0)
    E_exact = solve_bispectral(GS, setup).E_total
    res = optimize_state(GS, setup, seed)
    assert (res.evaluations, res.iterations) == (1, 0)
    assert res.converged
    assert res.params == seed
    eps = GAP_TOL * max(1.0, abs(E_exact))
    assert res.gap == res.energy.E_total - E_exact
    assert abs(res.gap) <= eps
    plain = rayleigh_quotient(seed, GS, setup,
                              build_rules(seed.p, res.rule_N))
    assert repr(res.energy) == repr(plain)


def test_uncertified_seeds_descend():
    # the same parameters without their exact energy, or carried to
    # another R or label, are not certified and take the full descent
    seed = seed_for(GS, 2.0)
    hand_built = TrialParams(seed.alpha, seed.gamma, seed.a1, seed.a2,
                             seed.b2, seed.b3, seed.p)
    for label, R, init in ((GS, 2.0, hand_built), (GS, 2.2, seed),
                           (StateLabel(0, 0, 0, -1), 2.0, seed)):
        res = optimize_state(label, PhysicalSetup(R), init)
        assert res.evaluations > 1 and res.iterations > 0
        assert res.gap is None
        assert res.params.p == seed.p


def test_optimized_node_energy_is_the_rayleigh_quotient(bank):
    st = bank.get(StateLabel(1, 0, 0, +1), 4.0)
    rules = build_rules(st.params.p, st.result.rule_N)
    plain = rayleigh_quotient(st.params, st.label, st.setup, rules)
    assert repr(st.energy) == repr(plain)


def test_scan_R_matches_energy_table():
    refs = {1.0: -0.90357262676, 2.0: -1.20526842899, 6.0: -1.0239380968,
            10.0: -1.0011574578}
    out = scan_R(GS, sorted(refs))
    for res, (R, ref) in zip(out, sorted(refs.items())):
        assert isinstance(res, OptimizationResult)
        assert res.energy.E_total == pytest.approx(ref, abs=5e-10)


def test_scan_point_does_not_depend_on_its_grid(bank):
    in_grid = scan_R(GS, [4.0, 6.0])[1]
    alone = scan_R(GS, [6.0])[0]
    banked = bank.get(GS, 6.0).result
    for res in (alone, banked):
        assert repr(res.params) == repr(in_grid.params)
        assert repr(res.energy) == repr(in_grid.energy)


def test_scan_empty_grid():
    assert scan_R(GS, []) == []


def test_p_consistency_ground_state(bank):
    st = bank.get(GS, 2.0)
    assert p_consistency_check(st.result) <= 1e-6 * st.params.p


def test_p_consistency_perturbation_probe(bank):
    st = bank.get(GS, 2.0)
    base = p_consistency_check(st.result)
    pars = st.params.replace(alpha=1.1 * st.params.alpha)
    e = rayleigh_quotient(pars, GS, st.setup, build_rules(pars.p, 64))
    perturbed = OptimizationResult(GS, st.setup, pars, e, 0, 0, True, 64)
    assert p_consistency_check(perturbed) >= 10.0 * base


def test_p_consistency_closed_form_fixture():
    # E' = -4 at R = 2 with p stored as exactly 2: zero residual
    setup = PhysicalSetup(2.0)
    pars = TrialParams(alpha=1.0, gamma=1.0, a1=1.0, a2=0.0, b2=0.0, b3=0.0,
                       p=2.0)
    pair = EnergyPair.from_total(-4.0 + setup.repulsion, setup)
    res = OptimizationResult(GS, setup, pars, pair, 0, 0, True, 64)
    assert p_consistency_check(res) <= 1e-12


def test_lambda_orthogonality_by_phase_integration(bank):
    # <(0,0,0,+) | (0,0,1,+)> vanishes through the azimuthal factor alone;
    # direct numeric integration over phi confirms it at trapezoid level
    from twocenter.trial import eval_psi

    g = bank.get(GS, 2.0)
    u = bank.get(StateLabel(0, 0, 1, +1), 2.0)
    phi = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    # fixed (xi, eta): the phi integral of conj(psi_g) psi_u is zero
    vals = (np.conj(eval_psi(g.params, g.label, g.setup, 1.4, 0.3, phi))
            * eval_psi(u.params, u.label, u.setup, 1.4, 0.3, phi))
    assert abs(np.mean(vals)) <= 1e-13 * np.max(np.abs(vals))


def test_budget_exhaustion_still_returns():
    seed = seed_for(GS, 6.0)
    res = optimize_state(GS, PhysicalSetup(6.0), seed, budget=25)
    assert not res.converged
    assert res.energy.E_total < -1.0  # still a usable variational value


def test_scan_returns_typed_failures_in_place(monkeypatch):
    import twocenter.variational as variational

    def fake(label, setup, init, **kw):
        if setup.R == 2.0:
            raise ParamDomainError("off the domain")
        return "solved"

    monkeypatch.setattr(variational, "optimize_state", fake)
    out = scan_R(GS, [2.0, 4.0])
    assert isinstance(out[0], ParamDomainError) and out[1] == "solved"

    def broken(label, setup, init, **kw):
        raise RuntimeError("a bug, not a failed point")

    monkeypatch.setattr(variational, "optimize_state", broken)
    with pytest.raises(RuntimeError):
        scan_R(GS, [2.0, 4.0])


def test_crude_seed_takes_the_oracle_p():
    label, R = StateLabel(1, 0, 0, -1), 30.0
    p = solve_bispectral(label, PhysicalSetup(R)).p
    assert seed_for(label, R).p == p


def test_unsupported_label_is_rejected_before_any_evaluation(monkeypatch):
    import twocenter.variational as variational

    def evaluated(*args, **kwargs):
        raise AssertionError("objective evaluated")

    monkeypatch.setattr(variational, "_energy", evaluated)
    with pytest.raises(UnsupportedStateError, match=r"\(2,0,0,\+\)"):
        optimize_state(StateLabel(2, 0, 0, +1), PhysicalSetup(2.0),
                       seed_for(GS, 2.0))
    assert not issubclass(UnsupportedStateError, ValueError)


def test_scan_propagates_unsupported_state():
    with pytest.raises(UnsupportedStateError):
        scan_R(StateLabel(2, 0, 0, +1), [2.0, 4.0])


def test_unsupported_label_is_rejected_before_the_oracle(monkeypatch):
    import twocenter.presets as presets
    from twocenter.states import StateBank

    def solved(*args, **kwargs):
        raise AssertionError("oracle called")

    monkeypatch.setattr(presets, "solve_bispectral", solved)
    for label in (StateLabel(2, 0, 0, +1), StateLabel(1, 0, 1, +1)):
        with pytest.raises(UnsupportedStateError):
            StateBank().get(label, 2.0)
        with pytest.raises(UnsupportedStateError):
            scan_R(label, [2.0, 4.0])
        with pytest.raises(UnsupportedStateError):
            seed_for(label, 2.0)


@settings(max_examples=40, deadline=1000)
@given(R=strategies.floats(0.5, 50.0),
       label=strategies.sampled_from([StateLabel(0, 0, lam, parity)
                                      for lam in (0, 1, 2)
                                      for parity in (+1, -1)]))
def test_projected_seed_is_a_tight_upper_bound(R, label):
    # each nodeless label is the lowest state of its symmetry, so the
    # Rayleigh-Ritz bound holds for any trial, the seed included
    setup = PhysicalSetup(R)
    seed = seed_for(label, R)
    seed.validate()
    exact = solve_bispectral(label, setup)
    assert seed.p == exact.p
    rules = build_rules(seed.p, default_rule_size(seed.p))
    E = rayleigh_quotient(seed, label, setup, rules).E_total
    assert exact.E_total - 1e-11 <= E <= exact.E_total + 1e-5


def test_store_round_trip(tmp_path, bank, monkeypatch):
    monkeypatch.setenv("TWOCENTER_DATA_DIR", str(tmp_path))
    st = bank.get(GS, 2.0)
    path = save_result(st.result, A=0.8117295846)
    assert os.path.exists(path)
    doc = json.load(open(path))
    assert doc["meta"]["rule_N"] == st.result.rule_N
    loaded = load_params(GS, 2.0)
    assert loaded == st.params
    assert load_params(GS, 33.0) is None


def test_store_keys_by_exact_R(tmp_path, bank):
    # the two R values of the mislabelled 2psu cell, 1e-7 apart
    res = bank.get(GS, 2.0).result
    paths = {}
    for R, alpha in ((1.997193, 1.0), (1.9971931, 2.0)):
        stored = OptimizationResult(GS, PhysicalSetup(R),
                                    res.params.replace(alpha=alpha),
                                    res.energy, 0, 0, True, res.rule_N)
        paths[R] = save_result(stored, directory=str(tmp_path))
    assert paths[1.997193] != paths[1.9971931]
    assert load_params(GS, 1.997193, str(tmp_path)).alpha == 1.0
    assert load_params(GS, 1.9971931, str(tmp_path)).alpha == 2.0
