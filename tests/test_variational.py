import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies
from scipy.optimize import brentq

from twocenter.model import (SUPPORTED_LABELS, PhysicalSetup, StateLabel,
                             UnsupportedStateError)
from twocenter.oracle import solve_bispectral
from twocenter.presets import _brent_min, seed_for
from twocenter.reference import energy_table
from twocenter.quadrature import (build_rules, channel_moments,
                                  rayleigh_quotient, trial_channels)
from twocenter.states import StateBank
from twocenter.trial import (ParamDomainError, TrialParams, eta_channel,
                             xi_channel)
from twocenter.variational import (_SHAPE, GAP_TOL, OptimizationResult,
                                   _evaluate, _partner, default_rule_size,
                                   optimize_state, save_result, scan_R,
                                   solve_node)

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
    xi0 = solve_node(label, setup, pars, partner, rules)[0]
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
    xi0 = solve_node(label, setup, pars, partner, rules)[0]
    placed, energy, _ = _evaluate(label, setup, pars, partner, rules)
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


def test_scan_point_does_not_depend_on_its_grid():
    # each point is the fresh StateBank solve, whatever the grid's order,
    # the partner-first solve of a single-node label included
    node = StateLabel(1, 0, 0, -1)
    for label, grid in ((GS, [4.0, 6.0]), (GS, [6.0]), (GS, [6.0, 4.0]),
                        (node, [4.0])):
        for R, res in zip(grid, scan_R(label, grid)):
            fresh = StateBank().get(label, R).result
            assert repr(res.params) == repr(fresh.params)
            assert repr(res.energy) == repr(fresh.energy)


def test_scan_empty_grid():
    assert scan_R(GS, []) == []


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


def test_ladder_reaches_the_table_where_every_run_gains(bank):
    # 2ppu R = 30: the seed sits 6.7e-9 Ry above exact, at the head of a
    # curved valley that outlasts one quasi-Newton model
    label = StateLabel(0, 0, 1, +1)
    row, = [r for r in energy_table("lam12")
            if r["R"] == 30.0 and r["label"] == label]
    assert abs(bank.get(label, 30.0).energy.E_total - row["E"]) <= 5e-9


def test_scan_raises_a_failed_point(monkeypatch):
    import twocenter.states as states

    def failed(label, setup, init, **kw):
        raise ParamDomainError("off the domain")

    monkeypatch.setattr(states, "optimize_state", failed)
    with pytest.raises(ParamDomainError, match="off the domain"):
        scan_R(GS, [2.0, 4.0])


def test_frozen_takes_shape_parameters_only():
    seed = seed_for(GS, 2.0)
    for frozen in ({"p": 1.0}, {"alpah": 1.0}):
        with pytest.raises(ValueError, match="frozen"):
            optimize_state(GS, PhysicalSetup(2.0), seed, frozen=frozen)


def test_crude_seed_takes_the_oracle_p():
    label, R = StateLabel(1, 0, 0, -1), 30.0
    p = solve_bispectral(label, PhysicalSetup(R)).p
    assert seed_for(label, R).p == p


def test_unsupported_label_is_rejected_before_any_evaluation(monkeypatch):
    import twocenter.variational as variational

    def evaluated(*args, **kwargs):
        raise AssertionError("objective evaluated")

    monkeypatch.setattr(variational, "_evaluate", evaluated)
    with pytest.raises(UnsupportedStateError, match=r"\(2,0,0,\+\)"):
        optimize_state(StateLabel(2, 0, 0, +1), PhysicalSetup(2.0),
                       seed_for(GS, 2.0))
    assert not issubclass(UnsupportedStateError, ValueError)


def test_scan_propagates_unsupported_state():
    with pytest.raises(UnsupportedStateError):
        scan_R(StateLabel(2, 0, 0, +1), [2.0, 4.0])


def test_unsupported_label_is_rejected_before_the_oracle(monkeypatch):
    import twocenter.presets as presets

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
    # Rayleigh-Ritz bound holds for any trial, the seed included, down to
    # the quadrature floor |E_N - E_2N| + 8 ulp
    setup = PhysicalSetup(R)
    seed = seed_for(label, R)
    seed.validate()
    exact = solve_bispectral(label, setup)
    assert seed.p == exact.p
    E, floor = _energy_and_floor(seed, label, setup,
                                 default_rule_size(seed.p))
    assert exact.E_total - floor <= E <= exact.E_total + 1e-5


def _energy_and_floor(params, label, setup, N):
    """E on the N-point rules and its quadrature floor |E_N - E_2N| + 8 ulp."""
    E_N, E_2N = (rayleigh_quotient(params, label, setup,
                                   build_rules(params.p, n)).E_total
                 for n in (N, 2 * N))
    return E_N, abs(E_N - E_2N) + 8.0 * math.ulp(E_N)


@settings(max_examples=12, deadline=5000)
@given(R=strategies.floats(0.5, 50.0),
       label=strategies.sampled_from([StateLabel(0, 0, lam, parity)
                                      for lam in (0, 1, 2)
                                      for parity in (+1, -1)]))
def test_solve_never_widens_the_seed_gap(R, label):
    # the descent starts at the seed and keeps the best point it meets;
    # a solve that stopped at the seed did so because it was certified
    setup = PhysicalSetup(R)
    seed = seed_for(label, R)
    res = optimize_state(label, setup, seed)
    rules = build_rules(seed.p, res.rule_N)
    seed_gap = (rayleigh_quotient(seed, label, setup, rules).E_total
                - seed.origin.E_total)
    floor = _energy_and_floor(res.params, label, setup, res.rule_N)[1]
    assert -floor <= res.gap <= seed_gap
    if res.evaluations == 1:
        assert res.gap <= GAP_TOL * max(1.0, abs(res.energy.E_total))


def test_store_round_trip(tmp_path, bank, monkeypatch):
    monkeypatch.setenv("TWOCENTER_DATA_DIR", str(tmp_path))
    st = bank.get(GS, 2.0)
    path = save_result(st.result, A=0.8117295846)
    assert os.path.exists(path)
    doc = json.load(open(path))
    assert doc["meta"]["rule_N"] == st.result.rule_N
    assert TrialParams(**doc["params"]) == st.params


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
    for R, alpha in ((1.997193, 1.0), (1.9971931, 2.0)):
        assert json.load(open(paths[R]))["params"]["alpha"] == alpha


# ----------------------------------------------------------------------
# the exact-gradient descent


def _objective(label, R):
    """(energy-and-gradient at a shape vector, seed shape vector) on the
    rule optimize_state builds, node states against their partner's seed."""
    setup = PhysicalSetup(R)
    seed = seed_for(label, R)
    rules = build_rules(seed.p, default_rule_size(seed.p))
    glabel = StateLabel(0, label.m, label.lam, label.parity)
    partner = _partner(label, setup, seed_for(glabel, R), rules)

    def at(x):
        pars = TrialParams(*x, seed.p)
        _, energy, grad = _evaluate(label, setup, pars, partner, rules)
        return energy.E_total, grad

    return at, np.array([getattr(seed, k) for k in _SHAPE])


@pytest.mark.parametrize("label,R", [
    (GS, 2.0), (StateLabel(0, 0, 0, -1), 6.0),
    (StateLabel(0, 0, 1, +1), 30.0), (StateLabel(0, 0, 2, -1), 6.0),
    (StateLabel(1, 0, 0, +1), 4.0), (StateLabel(1, 0, 0, -1), 10.0),
], ids=["1ssg", "2psu", "2ppu", "4fdu", "2ssg", "3psu"])
def test_exact_gradient_matches_central_differences(label, R):
    # away from the optimum; each component within 1e-6 of its central
    # difference, or within ten rounding errors of E over the step.  For
    # the node states the gradient carries xi0's dependence on the shape
    at, x = _objective(label, R)
    x = x * (1.0 + 0.03 * np.array([1, -1, 1, 1, -1, 1])) \
        + np.array([0.0, 0.0, 0.0, 0.01, 0.01, 0.001])
    E, grad = at(x)
    for i in range(6):
        h = np.zeros(6)
        h[i] = 1e-5 * max(1.0, abs(x[i]))
        fd = (at(x + h)[0] - at(x - h)[0]) / (2.0 * h[i])
        floor = 10.0 * np.finfo(float).eps * max(1.0, abs(E)) / h[i]
        assert abs(grad[i] - fd) <= 1e-6 * abs(fd) + floor, _SHAPE[i]


def test_frozen_solve_is_stationary_in_its_free_coordinates():
    # the descent sees only the free part of the gradient: at a frozen
    # solve that part vanishes, the frozen part does not
    setup = PhysicalSetup(2.0)
    seed = seed_for(GS, 2.0).replace(a2=0.0, b2=0.0)
    res = optimize_state(GS, setup, seed, frozen={"a2": 0.0, "b2": 0.0})
    assert (res.params.a2, res.params.b2) == (0.0, 0.0)
    assert res.converged and res.iterations > 0
    rules = build_rules(seed.p, res.rule_N)
    grad = _evaluate(GS, setup, res.params, None, rules)[2]
    free, fixed = grad[[0, 1, 2, 5]], grad[[3, 4]]
    assert np.max(np.abs(free)) <= 1e-3 * np.min(np.abs(fixed))


def test_domain_violating_steps_are_rejected_by_type(monkeypatch):
    # a descent in gamma alone, from gamma = 0.5 with alpha held at -3:
    # the energy's curvature there (0.04) is far above the difference
    # Hessian's rounding, and the model's first full step aims at
    # gamma = -1.78, past the domain's gamma > -1 by 0.78, so the
    # rejection does not hang on last bits; it raises ParamDomainError,
    # which shortens the step, and no stand-in energy or residual is left
    # in any module
    import pathlib

    import twocenter.variational as variational

    rejected, energies = [], []
    validate = TrialParams.validate

    def watched_validate(self):
        try:
            validate(self)
        except ParamDomainError:
            rejected.append(self)
            raise

    real = variational._evaluate

    def watched(*args):
        out = real(*args)
        energies.append(out[1].E_total)
        return out

    monkeypatch.setattr(TrialParams, "validate", watched_validate)
    monkeypatch.setattr(variational, "_evaluate", watched)
    seed = TrialParams(-3.0, 0.5, 2.6, 0.54, 0.59, 0.006, 3.5)
    res = optimize_state(GS, PhysicalSetup(6.0), seed, frozen={
        k: getattr(seed, k) for k in ("alpha", "a1", "a2", "b2", "b3")})
    assert rejected
    assert res.evaluations == len(energies) + len(rejected)
    assert max(energies) < 0.0
    assert res.energy.E_total in energies[1:]
    assert res.energy.E_total < energies[0]
    with pytest.raises(ParamDomainError):
        _evaluate(StateLabel(0, 0, 0, -1), PhysicalSetup(2.0),
                  seed.replace(a1=-0.5), None, build_rules(seed.p, 64))
    for path in sorted(pathlib.Path(variational.__file__).parent.rglob("*.py")):
        assert "1e6" not in path.read_text(), path.name


def test_seed_fit_rejects_out_of_domain_shapes_by_type(monkeypatch):
    # the eta fit's residual raises ParamDomainError off the domain, by
    # the trial's own rule, rather than returning a stand-in residual
    import twocenter.presets as presets

    residuals = []
    fit = presets._levenberg_marquardt

    def watched(residual, x):
        residuals.append(residual)
        return fit(residual, x)

    monkeypatch.setattr(presets, "_levenberg_marquardt", watched)
    seed_for(StateLabel(0, 0, 0, -1), 2.0)
    assert residuals
    for residual in residuals:
        # (a1, a2, b2, b3): N(0) = a1 < 0, then D(1) = 1 + b2 + b3 < 0
        for theta in ([-0.5, 0.0, 0.0, 0.0], [1.0, 0.0, -2.0, 0.5]):
            with pytest.raises(ParamDomainError):
                residual(np.array(theta))


def _eta_fit_inputs(monkeypatch, label, R):
    """seed_for(label, R), and the (eta, log|Y_ex|, weights, p, nu, odd)
    its eta fit was given."""
    import twocenter.presets as presets

    calls = []
    fit = presets._fit_eta

    def watched(starts, *inputs):
        calls.append(inputs)
        return fit(starts, *inputs)

    monkeypatch.setattr(presets, "_fit_eta", watched)
    seed = seed_for(label, R)
    (inputs,) = calls
    return seed, inputs


_EVEN_ODD_SEEDS = [(GS, 6.0), (StateLabel(0, 0, 0, -1), 2.0)]


@pytest.mark.parametrize("label,R", _EVEN_ODD_SEEDS)
def test_eta_fit_jacobian_matches_central_differences(monkeypatch, label, R):
    # the projected Jacobian rows against central differences of the
    # projected residual, at the fitted shape and at a detuned one
    from twocenter.presets import _eta_model

    seed, inputs = _eta_fit_inputs(monkeypatch, label, R)
    model = _eta_model(*inputs)
    fitted = np.array([seed.a1, seed.a2, seed.b2, seed.b3])
    for theta in (fitted, fitted * np.array([1.05, 0.9, 0.95, 1.1])):
        jacobian = model(theta)[1]()
        central = np.empty_like(jacobian)
        for i in range(4):
            h = 1e-6 * max(1.0, abs(theta[i]))
            step = np.zeros(4)
            step[i] = h
            central[i] = (model(theta + step)[0]
                          - model(theta - step)[0]) / (2.0 * h)
        assert np.abs(jacobian - central).max() \
            <= 1e-6 * np.abs(jacobian).max()


@pytest.mark.parametrize("label,R", _EVEN_ODD_SEEDS)
def test_eta_fit_projects_out_log_c(monkeypatch, label, R):
    # the projected residual is the five-parameter one at log C = the
    # weighted mean of log|Y_ex| - model, the offset that minimizes it
    from twocenter.presets import _eta_model

    seed, (eta, log_y, weights, p, nu, odd) = _eta_fit_inputs(
        monkeypatch, label, R)
    a1, a2, b2, b3 = seed.a1, seed.a2, seed.b2, seed.b3
    r, jacobian = _eta_model(eta, log_y, weights, p, nu, odd)(
        np.array([a1, a2, b2, b3]))
    e2 = eta * eta
    D = 1.0 + b2 * e2 + b3 * e2 * e2
    w = eta * (a1 + p * a2 * e2 + p * b3 * e2 * e2) / D
    model = np.log(np.sinh(w) if odd else np.cosh(w)) - nu * np.log(D)
    log_C = np.average(log_y - model, weights=weights)
    sw = np.sqrt(weights)
    assert r == pytest.approx(sw * (log_C + model - log_y), abs=1e-12)
    assert abs(sw @ r) <= 1e-12
    assert np.abs(jacobian() @ sw).max() <= 1e-12


@pytest.mark.parametrize("label,R", _EVEN_ODD_SEEDS)
def test_eta_fit_without_a_start_in_the_domain_raises_by_type(monkeypatch,
                                                               label, R):
    # when every start shape is off the domain, D(1) = 1 + b2 + b3 <= 0
    # on both branches, the fit raises ParamDomainError
    from twocenter.presets import _fit_eta

    _, inputs = _eta_fit_inputs(monkeypatch, label, R)
    with pytest.raises(ParamDomainError, match="no eta start"):
        _fit_eta([(1.0, 0.0, -2.0, 0.5), (0.5, 0.0, -1.0, 0.0)], *inputs)


def test_damped_step_matches_numpy_solve(monkeypatch):
    # the unrolled Cholesky step is numpy's dense solve of the same damped
    # normal equations, on the first and last system of each start behind
    # the seeds: to 1e-10, or to the condition number times 10 eps where
    # the late steps' small damping leaves the system near singular; each
    # is backward stable, and where numpy finds the system singular the
    # step is rejected too
    import twocenter.presets as presets

    runs = []
    step, fit = presets._damped_step, presets._levenberg_marquardt

    def recorded(A, damp, b):
        runs[-1].append((A, damp, b))
        return step(A, damp, b)

    def started(model, x):
        runs.append([])
        return fit(model, x)

    monkeypatch.setattr(presets, "_damped_step", recorded)
    monkeypatch.setattr(presets, "_levenberg_marquardt", started)
    for label in SUPPORTED_LABELS:
        for R in (1.0, 10.0, 50.0):
            seed_for(label, R)
    systems = [system for run in runs if run for system in (run[0], run[-1])]
    assert len(systems) >= 2 * 3 * len(SUPPORTED_LABELS)
    eps = np.finfo(float).eps
    for A, damp, b in systems:
        M = np.array(A) + np.diag(damp)
        try:
            ref = np.linalg.solve(M, b)
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                step(A, damp, b)
            continue
        h = np.array(step(A, damp, b))
        assert np.linalg.norm(h - ref) \
            <= max(1e-10, 10.0 * eps * np.linalg.cond(M)) * np.linalg.norm(ref)
        assert np.linalg.norm(M @ h - b) \
            <= 1e-15 * np.linalg.norm(M) * np.linalg.norm(h)


def test_damped_step_rejects_a_non_positive_pivot():
    # a pivot at zero, below it or NaN, at each position, raises as a
    # singular np.linalg.solve does, so the fit rejects the step
    from twocenter.presets import _damped_step

    for k in range(4):
        for pivot in (0.0, -1e-3, math.nan):
            A = np.eye(4)
            A[k, k] = pivot
            with pytest.raises(np.linalg.LinAlgError):
                _damped_step(A.tolist(), [0.0] * 4, [1.0] * 4)
    rank_one = np.ones((4, 4)).tolist()  # the second pivot cancels to 0
    with pytest.raises(np.linalg.LinAlgError):
        _damped_step(rank_one, [0.0] * 4, [1.0] * 4)
    assert _damped_step(rank_one, [1.0] * 4, [5.0] * 4) \
        == pytest.approx((1.0, 1.0, 1.0, 1.0), rel=1e-15)


@pytest.mark.parametrize("label,R", [(GS, 2.0), (StateLabel(1, 0, 0, -1), 6.0),
                                     (StateLabel(0, 0, 2, +1), 40.0)])
def test_xi_regression_matches_lstsq(monkeypatch, label, R):
    # the closed-form regression at fixed gamma is the weighted linear
    # least-squares fit of the same columns, and leaves the same cost
    import twocenter.presets as presets

    calls = []
    fit = presets._fit_xi

    def watched(*inputs):
        calls.append(inputs)
        return fit(*inputs)

    monkeypatch.setattr(presets, "_fit_xi", watched)
    seed_for(label, R)
    ((x, log_x, weights, p, q),) = calls
    regression = presets._xi_regression(x, log_x, weights, p, q)
    sw = np.sqrt(weights)
    for gamma in (-0.5, 0.0, 2.0, 19.0):
        u = gamma + x
        y = -log_x - q * np.log(u) - p * x * x / u
        M = np.column_stack([x / u, np.ones_like(x)]) * sw[:, None]
        coef, *_ = np.linalg.lstsq(M, y * sw, rcond=None)
        alpha, c, cost = regression(gamma)
        assert abs(cost - np.sum((y * sw - M @ coef) ** 2)) \
            <= 1e-12 * (weights @ (y * y))
        if gamma != 0.0:  # at 0 the columns coincide: only alpha + c is fixed
            assert alpha == pytest.approx(coef[0], rel=1e-12)
            assert c == pytest.approx(coef[1], rel=1e-12)
        assert alpha + c == pytest.approx(coef[0] + coef[1], rel=1e-12)


def test_eta_fit_stays_within_its_cap(monkeypatch):
    # each Levenberg-Marquardt run evaluates the model at most _ETA_EVALS
    # times, and some runs reach the cap
    import twocenter.presets as presets

    counts = []
    fit = presets._levenberg_marquardt

    def counted(model, x):
        counts.append(0)

        def evaluated(theta):
            counts[-1] += 1
            return model(theta)
        return fit(evaluated, x)

    monkeypatch.setattr(presets, "_levenberg_marquardt", counted)
    for label in SUPPORTED_LABELS:
        for R in (1.0, 10.0, 30.0):
            seed_for(label, R)
    assert len(counts) == 2 * 3 * len(SUPPORTED_LABELS)
    assert max(counts) == presets._ETA_EVALS


def test_eta_fit_keeps_the_first_of_equal_starts(monkeypatch):
    # the lower cost wins, and of equal costs the first start's fit
    import twocenter.presets as presets

    costs = {}
    monkeypatch.setattr(presets, "_levenberg_marquardt",
                        lambda model, x: (x, costs[tuple(x)]))
    first, second = (0.5, 0.0, 0.0, 0.0), (1.5, 0.0, 0.0, 0.0)
    eta = np.linspace(0.1, 0.9, 9)
    inputs = (eta, np.zeros_like(eta), np.ones_like(eta), 1.0, 0.25, False)
    for cost_1, cost_2, kept in ((1.0, 1.0, first), (1.0, 0.5, second),
                                 (0.5, 1.0, first)):
        costs.update({first: cost_1, second: cost_2})
        assert tuple(presets._fit_eta([first, second], *inputs)) == kept


def test_seed_is_reproducible_around_another_seed():
    # the fit's reuse of J^T J and of the model's D and w stays inside
    # one call: the same seed twice, with another label's seed between
    for label, other in ((StateLabel(0, 0, 1, -1), GS),
                         (GS, StateLabel(0, 0, 2, +1))):
        first = seed_for(label, 7.3)
        seed_for(other, 7.3)
        assert repr(seed_for(label, 7.3)) == repr(first)


@pytest.mark.parametrize("rule_N", [24, 128])
def test_solved_state_keeps_its_rule_size(rule_N):
    # a state solved under StateBank(rule_N=...) is evaluated on that
    # rule: its Rayleigh quotient is the solve's energy, to the bit
    plain = StateBank(rule_N=rule_N).get(GS, 2.0)
    assert plain.rayleigh().E_total == plain.energy.E_total
    assert plain.rules()[0].count == rule_N


@pytest.mark.xfail(strict=True, reason="the seed's basin holds a local "
                   "minimum 2.35e-9 Ry above exact")
def test_2ppu_gap_at_R_36():
    # R = 36.0821233, a draw of the gap property: the ladder ended 3.54e-9
    # above exact, against 3.5e-10 and 1.3e-10 at its neighbours
    label, R = StateLabel(0, 0, 1, +1), 36.0821233
    res = optimize_state(label, PhysicalSetup(R), seed_for(label, R))
    assert res.gap <= 1e-9


def test_xi_fit_gamma_matches_minimize_scalar(monkeypatch):
    # the written-out Brent search lands where scipy's bounded
    # minimize_scalar does on the same gamma objective, to 1e-7
    from scipy.optimize import minimize_scalar

    import twocenter.presets as presets

    pairs = []

    def both(f, a, b, xtol):
        ref = minimize_scalar(f, bounds=(a, b), method="bounded",
                              options=dict(xatol=xtol))
        pairs.append((_brent_min(f, a, b, xtol), float(ref.x)))
        return pairs[-1][0]

    monkeypatch.setattr(presets, "_brent_min", both)
    for label in SUPPORTED_LABELS:
        for R in (1.0, 20.0):
            seed_for(label, R)
    assert len(pairs) == 2 * len(SUPPORTED_LABELS)
    assert all(abs(gamma - ref) <= 1e-7 for gamma, ref in pairs)


def test_seed_lower_gap_within_its_floor_at_R_50():
    # the lower half of the seed's Rayleigh-Ritz bound at the draws where
    # numpy's Gauss-Legendre weights, 4e-11 off near eta = +-1, put 1ssg
    # and 2psu seeds 2.2e-13 below exact against floors of 1.3e-13; on
    # last-bit weights they sit 2e-14 above it
    setup = PhysicalSetup(50.0)
    for label in (GS, StateLabel(0, 0, 0, -1)):
        seed = seed_for(label, 50.0)
        E_N, floor = _energy_and_floor(seed, label, setup,
                                       default_rule_size(seed.p))
        assert E_N - seed.origin.E_total >= -floor


_DETERMINISM_LABELS = [StateLabel(0, 0, lam, parity) for lam in (0, 1, 2)
                       for parity in (+1, -1)] + [StateLabel(1, 0, 0, -1)]


@settings(max_examples=10, deadline=None, derandomize=True)
@given(R=strategies.floats(0.5, 50.0),
       label=strategies.sampled_from(_DETERMINISM_LABELS))
def test_optimize_state_is_deterministic(R, label):
    # the same solve twice in one process, with a solve of another state
    # between them, gives the same bits; 3psu goes through its partner
    setup = PhysicalSetup(R)

    def solve(label):
        ortho = None
        if label.n == 1:
            glabel = StateLabel(0, label.m, label.lam, label.parity)
            ortho = solve(glabel).params
        return optimize_state(label, setup, seed_for(label, R),
                              ortho_ref=ortho)

    first = solve(label)
    solve(StateLabel(0, 0, 1, +1) if label.lam != 1 else GS)
    second = solve(label)
    assert repr(first.params) == repr(second.params)
    assert repr(first.energy) == repr(second.energy)
    assert first.evaluations == second.evaluations
