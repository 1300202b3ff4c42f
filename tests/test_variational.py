import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies
from scipy.optimize import brentq

from twocenter.model import EnergyPair, PhysicalSetup, StateLabel
from twocenter.presets import seed_for
from twocenter.quadrature import (build_rules, channel_moments,
                                  rayleigh_quotient, trial_channels)
from twocenter.trial import (ParamDomainError, TrialParams, eta_channel,
                             xi_channel)
from twocenter.variational import (OptimizationResult, _energy, _partner,
                                   default_rule_size, load_params,
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
    # 2ssg (even) and 3psu (odd) from their presets, on the objective's rule
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


def test_optimized_node_energy_is_the_rayleigh_quotient(bank):
    st = bank.get(StateLabel(1, 0, 0, +1), 4.0)
    rules = build_rules(st.params.p, st.result.rule_N)
    plain = rayleigh_quotient(st.params, st.label, st.setup, rules)
    assert repr(st.energy) == repr(plain)


def test_scan_R_matches_energy_table():
    refs = {1.0: -0.90357262676, 2.0: -1.20526842899, 6.0: -1.0239380968,
            10.0: -1.0011574578}
    out = scan_R(GS, sorted(refs), warm_start=True)
    for res, (R, ref) in zip(out, sorted(refs.items())):
        assert isinstance(res, OptimizationResult)
        assert res.energy.E_total == pytest.approx(ref, abs=5e-10)


def test_scan_warm_and_cold_agree():
    grid = [4.0, 6.0]
    warm = scan_R(GS, grid, warm_start=True)
    cold = scan_R(GS, grid, warm_start=False)
    for w, c in zip(warm, cold):
        assert abs(w.energy.E_total - c.energy.E_total) <= 1e-10


def test_scan_empty_grid():
    assert scan_R(GS, []) == []


def test_jump_heuristic_fires_only_on_jumps():
    # unit-test the smoothness warning on synthetic scans: near-degenerate
    # valley directions make real scans occasionally jump legitimately
    from twocenter.variational import _warn_on_parameter_jumps

    def fake(R, b3):
        pars = TrialParams(alpha=R, gamma=1.0, a1=R, a2=0.0, b2=0.0, b3=b3,
                           p=R / 2.0 + 0.5)
        pair = EnergyPair.from_total(-1.0, PhysicalSetup(R))
        return OptimizationResult(GS, PhysicalSetup(R), pars, pair, 0, 0,
                                  True, 0.0, 64)

    grid = [4.0, 6.0, 8.0, 10.0]
    smooth = [fake(R, 0.01 * R) for R in grid]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _warn_on_parameter_jumps(smooth, grid)
    jumped = [fake(4.0, 0.04), fake(6.0, 0.06), fake(8.0, 0.08),
              fake(10.0, 3.0)]
    with pytest.warns(RuntimeWarning, match="b3 jumps"):
        _warn_on_parameter_jumps(jumped, grid)


def test_jump_heuristic_compares_steps_per_unit_R():
    # parameters linear in R take uneven raw steps on an uneven grid
    from twocenter.variational import _warn_on_parameter_jumps

    grid = [1.0, 1.1, 6.0]
    linear = []
    for R in grid:
        pars = TrialParams(alpha=R, gamma=1.0, a1=R, a2=0.0, b2=0.0,
                           b3=0.0, p=R / 2.0 + 0.5)
        pair = EnergyPair.from_total(-1.0, PhysicalSetup(R))
        linear.append(OptimizationResult(GS, PhysicalSetup(R), pars, pair,
                                         0, 0, True, 0.0, 64))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _warn_on_parameter_jumps(linear, grid)


def test_scan_seed_choice_by_starting_energy():
    from twocenter.variational import _lower_seed

    setup = PhysicalSetup(10.0)
    preset = seed_for(GS, 10.0)
    detuned = preset.replace(alpha=1.2 * preset.alpha)
    assert _lower_seed(GS, setup, detuned, preset, None, None) is preset
    assert _lower_seed(GS, setup, preset, detuned, None, None) is preset
    # a continuation seed outside the parameter domain is dropped
    outside = preset.replace(gamma=-2.0)
    assert _lower_seed(GS, setup, outside, detuned, None, None) is detuned


def test_p_consistency_ground_state(bank):
    st = bank.get(GS, 2.0)
    assert p_consistency_check(st.result) <= 1e-6 * st.params.p


def test_p_consistency_perturbation_probe(bank):
    st = bank.get(GS, 2.0)
    base = p_consistency_check(st.result)
    pars = st.params.replace(alpha=1.1 * st.params.alpha)
    e = rayleigh_quotient(pars, GS, st.setup, build_rules(pars.p, 64))
    perturbed = OptimizationResult(GS, st.setup, pars, e, 0, 0, True,
                                   abs(pars.p - e.p), 64)
    assert p_consistency_check(perturbed) >= 10.0 * base


def test_p_consistency_closed_form_fixture():
    # E' = -4 at R = 2 with p stored as exactly 2: zero residual
    setup = PhysicalSetup(2.0)
    pars = TrialParams(alpha=1.0, gamma=1.0, a1=1.0, a2=0.0, b2=0.0, b3=0.0,
                       p=2.0)
    pair = EnergyPair.from_total(-4.0 + setup.repulsion, setup)
    res = OptimizationResult(GS, setup, pars, pair, 0, 0, True, 0.0, 64)
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


def test_parallel_cold_scan_matches_serial():
    grid = [4.0, 6.0]
    serial = scan_R(GS, grid, warm_start=False, workers=1)
    parallel = scan_R(GS, grid, warm_start=False, workers=2)
    for s, p in zip(serial, parallel):
        assert s.energy.E_total == p.energy.E_total  # deterministic


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
