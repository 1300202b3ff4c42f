import math

import numpy as np
import pytest

from twocenter.model import (SUPPORTED_LABELS, PhysicalSetup, StateLabel,
                             p_from_energy)
from twocenter.nonlinearization import (ChannelPT, first_correction_eta,
                                        first_correction_xi,
                                        true_potential_xi)
from twocenter.quadrature import QuadratureError
from twocenter.states import (StateBank, attach_corrections,
                              correction_energy_shift)
from twocenter.trial import TrialParams

from pt_helpers import (V1, channel_potential_eta, channel_potential_xi,
                        residual_custom_phase)

GS = StateLabel(0, 0, 0, +1)


def riccati_residual_xi(params: TrialParams, label: StateLabel,
                        setup: PhysicalSetup, A: float, xi,
                        p_phys: float | None = None):
    """Residual of the xi channel equation in Riccati form; zero iff
    (X0, A) solve the channel ODE with the physical potential."""
    p = p_phys if p_phys is not None else params.p
    return channel_potential_xi(params, label, setup, xi) \
        - (true_potential_xi(setup, p, xi) - A)


def consistency_residual(A1_xi: float, A1_eta: float) -> tuple[float, float]:
    """Absolute and relative spread of the two channel estimates."""
    d = abs(A1_xi - A1_eta)
    return d, d / max(abs(A1_xi), abs(A1_eta), 1e-300)


def test_true_potential_vanishes_at_origin():
    assert true_potential_xi(PhysicalSetup(2.0), 1.3, 0.0) == 0.0


def test_riccati_residual_exact_one_center_fixture():
    # Z2 = 0 with p = R/2 makes X = exp(-p xi) an exact channel solution
    # at A = p^2, and that phase is inside the trial family (alpha = p
    # gamma kills the rational part, kappa = 1 kills the power)
    R = 3.0
    setup = PhysicalSetup(R, Z1=1.0, Z2=0.0)
    p = R / 2.0
    xs = np.linspace(1.0, 12.0, 400)
    res = residual_custom_phase(lambda x: p * np.ones_like(x),
                                lambda x: np.zeros_like(x),
                                lambda x: true_potential_xi(setup, p, x),
                                p * p, 0, xs)
    assert np.max(np.abs(res)) <= 1e-10
    pars = TrialParams(alpha=p * 0.9, gamma=0.9, a1=0.5, a2=0.0, b2=0.0,
                       b3=0.0, p=p)
    res2 = riccati_residual_xi(pars, GS, setup, p * p, xs, p_phys=p)
    assert np.max(np.abs(res2)) <= 1e-10


def test_riccati_residual_optimized_state_small(bank):
    st = bank.get(GS, 2.0)
    p_phys = p_from_energy(st.energy.E_total, st.setup)
    xs = np.linspace(1.0, 10.0, 500)
    res = riccati_residual_xi(st.params, GS, st.setup, 0.8117295846, xs,
                              p_phys=p_phys)
    assert np.max(np.abs(res)) < 1e-3 * p_phys**2
    assert np.max(np.abs(res)) > 0.0


def test_exact_phase_gives_constant_perturbation():
    # for the exact one-center fixture V1 = V - V0 is the constant A
    # (A0 = 0 gauge), so the first-order A equals A exactly and the phase
    # correction vanishes identically
    R = 3.0
    setup = PhysicalSetup(R, Z1=1.0, Z2=0.0)
    p = R / 2.0
    pars = TrialParams(alpha=p * 1.1, gamma=1.1, a1=0.5, a2=0.0, b2=0.0,
                       b3=0.0, p=p)
    xs = np.linspace(1.0, 30.0, 500)
    assert np.max(np.abs(V1(pars, GS, setup, p, xs, "xi") - p * p)) <= 1e-10
    pt = first_correction_xi(pars, GS, setup, p_phys=p)
    assert pt.A1 == pytest.approx(p * p, abs=1e-10)
    assert pt.bound_C == pytest.approx(p * p, abs=1e-10)
    assert np.max(np.abs(pt.correction(np.linspace(1, 8, 100))[0])) <= 1e-12


def test_perturbation_bounded_no_poles(bank):
    st = bank.get(GS, 2.0, corrected=True)
    p_phys = p_from_energy(st.energy.E_total, st.setup)
    assert st.params.xi0 is None
    assert math.isfinite(st.pt_xi.bound_C)
    # tail flattens to a constant: growing terms are matched exactly
    far, mid = V1(st.params, GS, st.setup, p_phys, np.array([80.0, 40.0]),
                  "xi")
    assert abs(far - mid) < 2e-3 * abs(mid)


def test_first_corrections_match_reference(bank):
    st = bank.get(GS, 2.0, corrected=True)
    ref = 0.8117295846248
    assert st.pt_xi.A1 == pytest.approx(ref, rel=1e-8)
    assert st.pt_eta.A1 == pytest.approx(ref, rel=1e-8)
    # published first-order values agree with these to their own accuracy
    assert st.pt_xi.A1 == pytest.approx(0.8117295877, rel=1e-7)
    assert st.pt_eta.A1 == pytest.approx(0.8117295852, rel=1e-7)
    absd, reld = consistency_residual(st.pt_xi.A1, st.pt_eta.A1)
    assert reld <= 1e-12  # identity at the energy-consistent p


def test_consistency_degrades_with_raw_shape_p(bank):
    # using the raw shape parameter p instead of the energy-consistent one
    # reproduces the few-toleranced published spread
    st = bank.get(GS, 2.0)
    p_raw = st.params.p * (1.0 + 3e-6)
    xi = first_correction_xi(st.params, GS, st.setup, p_phys=p_raw)
    eta = first_correction_eta(st.params, GS, p_phys=p_raw)
    _, reld_raw = consistency_residual(xi.A1, eta.A1)
    st2 = bank.get(GS, 2.0, corrected=True)
    _, reld_phys = consistency_residual(st2.pt_xi.A1, st2.pt_eta.A1)
    assert reld_raw > 100.0 * max(reld_phys, 1e-14)


def test_phase_correction_magnitude_and_gauge(bank):
    st = bank.get(GS, 2.0, corrected=True)
    xs = np.linspace(1.0, 10.0, 200)
    assert st.pt_xi.correction(1.0)[0] == 0.0
    sup = np.max(np.abs(st.pt_xi.correction(xs)[0]))
    assert 1e-7 < sup < 1e-4
    es = np.linspace(-1.0, 1.0, 201)
    sup_e = np.max(np.abs(st.pt_eta.correction(es)[0]))
    assert sup_e < 1e-4
    # rho1 is even and gauged to zero at the midplane
    assert st.pt_eta.correction(0.0)[0] == pytest.approx(0.0, abs=1e-15)
    evens = st.pt_eta.correction(es)[0] - st.pt_eta.correction(-es)[0]
    assert np.max(np.abs(evens)) <= 1e-14


def test_odd_branch_midplane_regular(bank):
    # for the odd state the eta integrand has a 0/0 at the midplane that
    # cancels analytically; the tabulated slope stays finite and odd
    st = bank.get(StateLabel(0, 0, 0, -1), 2.0, corrected=True)
    es = np.array([-1e-3, -1e-5, 0.0, 1e-5, 1e-3])
    slopes = st.pt_eta.correction(es)[1]
    assert np.all(np.isfinite(slopes))
    assert slopes[2] == pytest.approx(0.0, abs=1e-10)
    assert slopes[4] == pytest.approx(-slopes[0], rel=1e-6, abs=1e-12)


def test_A1_invariant_under_rescaling(bank, monkeypatch):
    from twocenter import trial

    st = bank.get(GS, 2.0)
    p_phys = p_from_energy(st.energy.E_total, st.setup)
    a = first_correction_eta(st.params, GS, p_phys=p_phys)
    unscaled = trial.prefactor

    def doubled(params, label, x, channel):
        g = unscaled(params, label, x, channel)
        return tuple(2.0 * v for v in g) if channel == "eta" else g

    # Y -> 2 Y: the eta prefactor of the same state, with its derivatives
    monkeypatch.setattr(trial, "prefactor", doubled)
    b = first_correction_eta(st.params, GS, p_phys=p_phys)
    assert b.A1 == pytest.approx(a.A1, rel=1e-13)


def test_bound_grows_for_reduced_parameter_set(bank):
    from twocenter.presets import seed_for
    from twocenter.variational import optimize_state

    st = bank.get(GS, 2.0)
    p_phys = p_from_energy(st.energy.E_total, st.setup)
    seed = seed_for(GS, 2.0).replace(a2=0.0, b2=0.0)
    red = optimize_state(GS, PhysicalSetup(2.0), seed,
                         frozen={"a2": 0.0, "b2": 0.0})
    p_red = p_from_energy(red.energy.E_total, red.setup)
    es = np.linspace(-1.0, 1.0, 801)
    W1_full = V1(st.params, GS, None, p_phys, es, "eta")
    W1_red = V1(red.params, GS, None, p_red, es, "eta")
    defect_full = np.max(np.abs(W1_full - np.mean(W1_full)))
    defect_red = np.max(np.abs(W1_red - np.mean(W1_red)))
    # the defect around the constant shift is what convergence cares about
    assert defect_red > 3.0 * defect_full


def test_corrected_energy_shift_small(bank):
    st = bank.get(GS, 2.0, corrected=True)
    assert correction_energy_shift(st) <= 1e-8


def test_node_state_corrections(bank):
    st = bank.get(StateLabel(1, 0, 0, +1), 4.0, corrected=True)
    assert st.node is not None
    assert st.node.A1 == pytest.approx(0.853531800197, rel=1e-8)
    assert st.pt_eta.A1 == pytest.approx(0.853531800197, rel=1e-8)
    assert abs(st.node.f1) < 1e-4  # orthogonality node ~ first-order node
    assert correction_energy_shift(st) <= 1e-8
    # corrected channel stays finite through the node region
    xs = np.linspace(st.node.xi0 - 0.01, st.node.xi0 + 0.01, 101)
    ca = st.xi_arrays(xs)
    assert np.all(np.isfinite(ca.vals)) and np.all(np.isfinite(ca.dvals))


def test_first_correction_xi_rejects_node_state(bank):
    # single-node states take node_correction_xi; the nodeless builder
    # must refuse them instead of returning a zero phase
    st = bank.get(StateLabel(1, 0, 0, +1), 4.0)
    p_phys = p_from_energy(st.energy.E_total, st.setup)
    with pytest.raises(ValueError):
        first_correction_xi(st.params, st.label, st.setup, p_phys)


def test_second_order_is_much_smaller(bank):
    st = bank.get(GS, 2.0, corrected=True)
    p_phys = p_from_energy(st.energy.E_total, st.setup)
    second = first_correction_xi(st.params, GS, st.setup, p_phys,
                                 prev=[st.pt_xi])
    assert abs(second.A1) < 1e-6 * abs(st.pt_xi.A1)
    xs = np.linspace(1.0, 8.0, 100)
    sup2 = np.max(np.abs(second.correction(xs)[0]))
    sup1 = np.max(np.abs(st.pt_xi.correction(xs)[0]))
    assert sup2 < 1e-2 * sup1


NODELESS = [label for label in SUPPORTED_LABELS if label.n == 0]


def _second_order(st):
    """(xi, eta) ChannelPT of order 2 on a corrected nodeless state."""
    p_phys = p_from_energy(st.energy.E_total, st.setup)
    return (first_correction_xi(st.params, st.label, st.setup, p_phys,
                                prev=[st.pt_xi]),
            first_correction_eta(st.params, st.label, p_phys,
                                 prev=[st.pt_eta]))


@pytest.mark.parametrize("label", NODELESS, ids=str)
def test_second_order_signs(bank, label):
    # Q2 = -(x^2-1) y1^2 is <= 0 on xi and >= 0 on eta, and the pass
    # divides two sums of one sign each: A2_xi <= 0 <= A2_eta exactly
    for R in PT_RS:
        xi2, eta2 = _second_order(bank.get(label, R, corrected=True))
        assert xi2.A1 <= 0.0 <= eta2.A1, (R, xi2.A1, eta2.A1)


@pytest.mark.parametrize("label", NODELESS, ids=str)
def test_order_n_is_Q_n_from_the_slopes_below(bank, label):
    # at order n the pass integrates Q_n = -(x^2-1) sum y_i y_(n-i) from
    # the lower orders' slopes: bound_C is its largest modulus on the
    # pass's nodes, for n = 2 and 3 on both channels.  rho2 is even and
    # gauged to zero at the midplane, as rho1 is
    import twocenter.nonlinearization as nl

    es = np.linspace(-1.0, 1.0, 201)
    for R in (0.5, 2.0, 50.0):
        st = bank.get(label, R, corrected=True)
        p_phys = p_from_energy(st.energy.E_total, st.setup)
        for first, nodes, build in (
                (st.pt_xi, nl._xi_panels(st.params).nodes,
                 lambda prev: first_correction_xi(st.params, label, st.setup,
                                                  p_phys, prev=prev)),
                (st.pt_eta, nl._eta_panels(st.params.p, label.parity).nodes,
                 lambda prev: first_correction_eta(st.params, label, p_phys,
                                                   prev=prev))):
            second = build([first])
            third = build([first, second])
            y1, y2 = first.correction(nodes)[1], second.correction(nodes)[1]
            for pt, Q in ((second, -(nodes**2 - 1.0) * y1 * y1),
                          (third, -(nodes**2 - 1.0) * 2.0 * y1 * y2)):
                top = np.max(np.abs(Q))
                assert pt.bound_C == pytest.approx(top, rel=1e-12), R
        rho2 = second.correction(es)[0]
        top = np.max(np.abs(rho2))
        assert np.max(np.abs(rho2 - second.correction(-es)[0])) <= 1e-12 * top
        assert abs(second.correction(0.0)[0]) <= 1e-12 * top


@pytest.mark.parametrize("name,R", [("1ssg", 2.0), ("3dpg", 20.0),
                                    ("4fdu", 50.0)])
def test_second_order_matches_an_adaptive_quadrature(bank, name, R):
    # A2 = int Q2 w X0^2 / int w X0^2 by scipy's adaptive quad, with the
    # panel edges as break points, the xi slope cut at 2p(xi-1) = 24 and
    # the xi norm taken to 2p(xi-1) = 30, as the pass does
    from scipy.integrate import quad

    import twocenter.nonlinearization as nl
    from twocenter.model import label_from_designation
    from twocenter.trial import channel_factor, channel_phase

    label = label_from_designation(name)
    st = bank.get(label, R, corrected=True)
    p = st.params.p
    keep = 1.0 + nl._TAU_KEEP / (2.0 * p)
    half = nl._eta_panels(p, label.parity).edges
    domains = {"xi": (st.setup, nl._xi_panels(st.params).edges, st.pt_xi),
               "eta": (None, np.r_[half, -half[-2::-1]], st.pt_eta)}
    for pt2 in _second_order(st):
        setup, edges, first = domains[pt2.channel]
        lo, hi = edges[0], edges[-1]
        scale = float(np.min(channel_phase(st.params, label, setup,
                                           np.linspace(lo, hi, 101),
                                           pt2.channel)[0]))

        def wX2(x):
            X = channel_factor(st.params, label, setup, np.array([x]),
                               pt2.channel, scale)[0][0]
            return (x * x - 1.0) ** label.lam * X * X

        def Q2wX2(x):
            return -(x * x - 1.0) * first.correction(x)[1] ** 2 * wX2(x)

        top = keep if pt2.channel == "xi" else hi
        inner = edges[(edges > lo) & (edges < top)]
        num = quad(Q2wX2, lo, top, points=inner, limit=500, epsabs=0.0)[0]
        den = quad(wX2, lo, hi, points=edges[1:-1], limit=500,
                   epsabs=0.0)[0]
        assert abs(pt2.A1) >= 1e-20
        assert num / den == pytest.approx(pt2.A1, rel=1e-9), pt2.channel


def test_channel_potentials_finite_on_domains(bank):
    st = bank.get(StateLabel(0, 0, 1, -1), 6.0)
    xs = np.linspace(1.0, 20.0, 300)
    assert np.all(np.isfinite(channel_potential_xi(st.params, st.label,
                                                   st.setup, xs)))
    es = np.linspace(-0.999, 0.999, 301)
    assert np.all(np.isfinite(channel_potential_eta(st.params, st.label, es)))


def test_panel_interpolant_matches_barycentric():
    # on graded panels over [1, 11], each panel's polynomial of a smooth
    # function's node values is scipy's barycentric interpolant of that
    # panel's nodes to 1e-13 and the function to 1e-9; the antiderivative
    # of the same values is the exact integral to 1e-10.  Beyond the last
    # edge the interpolant of a slope is zero and its antiderivative
    # holds its end value.  A degree-11 polynomial, and the antiderivative
    # of one, are reproduced to rounding.
    from scipy.interpolate import BarycentricInterpolator

    from twocenter.nonlinearization import _grown, _Panels

    panels = _Panels(1.0 + _grown(10.0, 0.05, 2.0))

    def f(x):
        return np.exp(-0.3 * x) * np.sin(2.0 * x)

    def anti(x):  # int_1^x f
        def F(u):
            return np.exp(-0.3 * u) * (-0.3 * np.sin(2.0 * u)
                                       - 2.0 * np.cos(2.0 * u)) / 4.09
        return F(x) - F(1.0)

    table = panels.table(f(panels.nodes))

    def value(u):
        return table(u)[1]

    def integral(u):
        return table(u)[0]

    x = np.linspace(1.0, 11.0, 7919)
    which = np.minimum(np.searchsorted(panels.edges, x, side="right") - 1,
                       panels.half.size - 1)
    ref = np.empty_like(x)
    for j, nodes in enumerate(panels.nodes):
        ref[which == j] = BarycentricInterpolator(nodes, f(nodes))(
            x[which == j])
    assert np.max(np.abs(value(x) - ref)) <= 1e-13
    assert np.max(np.abs(value(x) - f(x))) <= 1e-9
    assert integral(1.0) == 0.0
    assert np.max(np.abs(integral(x) - anti(x))) <= 1e-10
    assert value(0.5) == value(1.0) and value(11.0 + 1e-9) == 0.0
    assert integral(0.5) == 0.0 and integral(12.0) == integral(11.0)

    def poly(x):
        return np.polynomial.polynomial.polyval(x - 6.0, np.cos(np.arange(12)))

    def poly_anti(x):
        c = np.cos(np.arange(12)) / np.arange(1, 13)
        return (np.polynomial.polynomial.polyval(x - 6.0, np.r_[0.0, c])
                - np.polynomial.polynomial.polyval(-5.0, np.r_[0.0, c]))

    panels = _Panels(np.linspace(1.0, 11.0, 4))
    integral, value = panels.table(poly(panels.nodes))(x)
    assert np.max(np.abs(value - poly(x))) <= 1e-12 * np.max(np.abs(poly(x)))
    assert np.max(np.abs(integral - poly_anti(x))) \
        <= 1e-12 * np.max(np.abs(poly_anti(x)))


PT_RS = (0.5, 1.0, 2.0, 4.0, 10.0, 20.0, 50.0)


def _panel_corrections(state):
    """(xi data, eta ChannelPT) of the panel pass on a solved state."""
    view = attach_corrections(state)
    return view.node if view.label.n else view.pt_xi, view.pt_eta


def _within(got, ref, allowed):
    """Every table of got within allowed[name] of ref's, and each A1 to
    1e-12 relative."""
    (tables, scalars), (ref_tables, ref_scalars) = got, ref
    for name, (vals, _) in tables.items():
        err = np.max(np.abs(vals - ref_tables[name][0]))
        assert err <= allowed[name], (name, err, allowed[name])
    for name, val in scalars.items():
        if name.startswith("A1"):
            assert val == pytest.approx(ref_scalars[name], rel=1e-12), name


@pytest.mark.parametrize("label", SUPPORTED_LABELS, ids=str)
def test_panels_match_a_refined_layout(bank, label, monkeypatch):
    # bisecting every panel moves each table by at most 1e-10 of its
    # largest value on the bulk, or by its rounding floor (see
    # correction_values); the worst over this sweep was half of that
    import twocenter.nonlinearization as nl

    from pt_helpers import correction_values

    xi_panels, eta_panels = nl._xi_panels, nl._eta_panels

    def bisected(panels):
        e = panels.edges
        return nl._Panels(np.sort(np.r_[e, 0.5 * (e[1:] + e[:-1])]))

    for R in PT_RS:
        st = bank.get(label, R)
        coarse = correction_values(st, *_panel_corrections(st))
        with monkeypatch.context() as m:
            m.setattr(nl, "_xi_panels", lambda params: bisected(
                xi_panels(params)))
            m.setattr(nl, "_eta_panels", lambda p, parity: bisected(
                eta_panels(p, parity)))
            fine = correction_values(st, *_panel_corrections(
                bank.get(label, R)))
        _within(coarse, fine, {
            name: max(1e-10 * np.max(np.abs(vals)), floor)
            for name, (vals, floor) in fine[0].items()})


@pytest.mark.parametrize("label", SUPPORTED_LABELS, ids=str)
def test_panels_match_the_hermite_pass_on_finer_grids(bank, label):
    # against the fixed-grid Hermite pass the panels replaced, run on 4x
    # its grids, each panel table is no further off than that pass on its
    # own grids was, or than 1e-10 of the table's largest value on the
    # bulk, or than its rounding floor (see correction_values)
    from pt_helpers import ETA_PTS, XI_PTS, correction_values, \
        hermite_corrections

    for R in PT_RS:
        st = bank.get(label, R)
        ref = correction_values(st, *hermite_corrections(
            st, 4 * XI_PTS - 3, 4 * ETA_PTS - 3))
        today = correction_values(st, *hermite_corrections(st))
        _within(correction_values(st, *_panel_corrections(st)), ref, {
            name: max(np.max(np.abs(today[0][name][0] - vals)),
                      1e-10 * np.max(np.abs(vals)), floor)
            for name, (vals, floor) in ref[0].items()})


@pytest.mark.parametrize("label", SUPPORTED_LABELS, ids=str)
def test_bound_is_the_largest_perturbation_on_the_pass_nodes(bank, label):
    # bound_C is the largest |V1| on the panel nodes where the pass
    # integrates V1: the same as V - V0 from the reconstructed reference
    # potentials there, on every nodeless xi channel and every eta one
    import twocenter.nonlinearization as nl

    for R in PT_RS:
        st = bank.get(label, R, corrected=True)
        p_phys = p_from_energy(st.energy.E_total, st.setup)
        channels = [(st.pt_eta, nl._eta_panels(st.params.p, label.parity))]
        if label.n == 0:
            channels.append((st.pt_xi, nl._xi_panels(st.params)))
        for pt, panels in channels:
            ref = np.max(np.abs(V1(st.params, label, st.setup, p_phys,
                                   panels.nodes, pt.channel)))
            assert pt.bound_C == pytest.approx(ref, rel=1e-10), (R, pt.channel)


@pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf])
def test_channel_pt_rejects_a_non_finite_bound(bound):
    with pytest.raises(QuadratureError):
        ChannelPT("xi", 0.5, lambda x: (x, x), bound)


@pytest.mark.parametrize("label,R", [(GS, 2.0), (StateLabel(1, 0, 0, -1),
                                                4.0)], ids=["1ssg", "3psu"])
def test_one_phase_evaluation_per_pass(bank, label, R, monkeypatch):
    # each pass, of the first order or of the second, evaluates its
    # channel's phase once, on the panel nodes, and takes its log scale
    # and the perturbation's bound from those same values; the second
    # order reads the first one's slopes from its tables
    import twocenter.nonlinearization as nl
    import twocenter.trial as trial

    real, calls = trial.channel_phase, []

    def counted(*args):
        calls.append(args[-1])
        return real(*args)

    st = bank.get(label, R, corrected=True)
    p_phys = p_from_energy(st.energy.E_total, st.setup)
    xi_pass = (nl.first_correction_xi if label.n == 0
               else nl.node_correction_xi)
    passes = [
        (lambda: xi_pass(st.params, label, st.setup, p_phys), "xi"),
        (lambda: nl.first_correction_eta(st.params, label, p_phys), "eta"),
        (lambda: nl.first_correction_eta(st.params, label, p_phys,
                                         prev=[st.pt_eta]), "eta")]
    if label.n == 0:
        passes.append((lambda: nl.first_correction_xi(
            st.params, label, st.setup, p_phys, prev=[st.pt_xi]), "xi"))
    for binding in (nl, trial):
        monkeypatch.setattr(binding, "channel_phase", counted)
    for run, channel in passes:
        calls.clear()
        run()
        assert calls == [channel]


def _separate_reads(panels, vals, start):
    """(phase, slope) callables of a slope's panel values, each read by its
    own panel search and per-coefficient Horner pass: the pair that
    _Panels.table serves from one search and one gather."""
    from twocenter.nonlinearization import _C, _PANEL_N

    def piecewise(coef, left=None):
        coef = coef.T.copy()

        def evaluate(u):
            u = np.asarray(u, dtype=float)
            i = np.minimum(np.maximum(np.searchsorted(panels.edges, u,
                                                      "right") - 1, 0),
                           panels.half.size - 1)
            s = np.minimum(np.maximum((u - panels.mid[i]) / panels.half[i],
                                      -1.0), 1.0)
            out = coef[-1, i]
            for c in coef[-2::-1]:
                out = out * s + c[i]
            if left is None:
                return np.where(u > panels.edges[-1], 0.0, out)
            return left[i] + (1.0 + s) * out
        return evaluate

    p = vals @ _C.T
    a = panels.half[:, None] * p / np.arange(1, _PANEL_N + 1)
    q = np.empty_like(a)
    q[:, -1] = a[:, -1]
    for k in range(_PANEL_N - 2, -1, -1):
        q[:, k] = a[:, k] - q[:, k + 1]
    tot = 2.0 * np.sum(q, axis=1)
    return piecewise(q, start + np.cumsum(tot) - tot), piecewise(p)


@pytest.mark.parametrize("name,R", [("1ssg", 2.0), ("3psu", 4.0),
                                    ("3ddg", 50.0)])
def test_table_pair_is_the_separate_reads(bank, name, R):
    # a table's (phase, slope) pair is, to the bit, what reading each
    # polynomial alone gives: on the panel nodes, at every edge, before
    # the first edge and beyond the last one, and at a scalar point
    import twocenter.nonlinearization as nl
    from twocenter.model import label_from_designation

    label = label_from_designation(name)
    st = bank.get(label, R)
    p_phys = p_from_energy(st.energy.E_total, st.setup)
    for channel in ("xi", "eta"):
        _, panels, _, F, D, _, _ = nl._first_order(
            st.params, label, st.setup, p_phys, channel)
        lo, hi = panels.edges[0], panels.edges[-1]
        u = np.concatenate([panels.nodes.ravel(), panels.edges,
                            np.nextafter(panels.edges, -np.inf),
                            [lo - 0.5, hi + 1e-9, hi + 0.5, 2.0 * hi + 3.0]])
        phase, slope = _separate_reads(panels, F / D, 0.3)
        pair = panels.table(F / D, 0.3)
        got = pair(u)
        assert got[0].tobytes() == phase(u).tobytes()
        assert got[1].tobytes() == slope(u).tobytes()
        assert np.all(got[1][u > hi] == 0.0)
        for x in (float(panels.nodes[1, 3]), hi + 0.5):
            assert pair(x) == (float(phase(x)), float(slope(x)))


@pytest.mark.parametrize("name", ["2ssg", "3psu"])
@pytest.mark.parametrize("R", [2.0, 10.0])
def test_node_correction_finite_at_xi_one(bank, name, R, monkeypatch):
    # r' = -F/D + f1/d^2 - c1/d is 0/0 at xi = 1, where D vanishes; no
    # panel node sits there, so r, r' and the corrected channel are
    # finite and smooth up to xi = 1, and nothing the corrected state
    # reports reads the channel there
    import twocenter.nonlinearization as nl
    from twocenter.model import label_from_designation
    from twocenter.transitions import oscillator_strength

    label = label_from_designation(name)
    st = bank.get(label, R, corrected=True)
    nc = st.node
    x = np.array([1.0, 1.0 + 1e-9, 1.0 + 1e-7, 1.0 + 1e-5])
    ca = st.xi_arrays(x)
    for vals in (*nc.regular(x), ca.vals, ca.dvals):
        assert np.all(np.isfinite(vals))
    # on the first panel, r's central differences are r' to 1e-7 of its
    # largest value there
    g0, g1 = nl._xi_panels(st.params).edges[:2]
    h = 1e-4 * (g1 - g0)
    u = np.linspace(g0 + h, g1, 33)
    central = (nc.regular(u + h)[0] - nc.regular(u - h)[0]) / (2.0 * h)
    dr = nc.regular(u)[1]
    assert np.max(np.abs(central - dr)) <= 1e-7 * np.max(np.abs(dr))
    # with the channel left undefined at xi = 1, A1, f1, c1, r and r'
    # from xi = 1 on and the gated strength are the same bits
    gs = bank.get(GS, R, corrected=True)
    kind = "E1" if label.parity == -1 else "E2"
    f = oscillator_strength(kind, gs, st).f
    p_phys = p_from_energy(st.energy.E_total, st.setup)
    parts = nl._parts

    def undefined_at_one(*args):
        x = args[4]
        *vals, scale = parts(*args)
        return (*(np.where(x == 1.0, math.nan, v) for v in vals), scale)

    monkeypatch.setattr(nl, "_parts", undefined_at_one)
    undefined = nl.node_correction_xi(st.params, label, st.setup, p_phys)
    assert (undefined.A1, undefined.f1, undefined.c1) \
        == (nc.A1, nc.f1, nc.c1)
    beyond = np.linspace(1.0, 1.0 + 20.0 / st.params.p, 200)
    for got, ref in zip(undefined.regular(beyond), nc.regular(beyond)):
        assert got.tobytes() == ref.tobytes()
    st.node = undefined
    assert oscillator_strength(kind, gs, st).f == f


@pytest.mark.parametrize("name,R", [("3psu", 4.0), ("2ssg", 2.0)])
def test_node_correction_flat_beyond_the_table(bank, name, R):
    # r holds its end value past the last panel edge, 2p(xi-1) = 30, and
    # r' is its slope there: central differences of r match r' exactly
    # beyond that edge, where most of the xi rule's nodes lie, and to
    # 1e-5 of r's largest slope before and at it (r' ends in the
    # rounding of F/D where D is smallest, 1.7e-6 of that slope for 3psu)
    import twocenter.nonlinearization as nl
    from twocenter.model import label_from_designation

    st = bank.get(label_from_designation(name), R, corrected=True)
    nc = st.node
    end = 1.0 + nl._TAU_CUT / (2.0 * st.params.p)
    assert np.sum(st.rules()[0].nodes > end) > 16
    h = 1e-6 * (end - 1.0)

    def central(u):
        return (nc.regular(u + h)[0] - nc.regular(u - h)[0]) / (2.0 * h)

    bulk = np.linspace(1.0 + 2.0 * h, end, 401)
    dr = nc.regular(bulk)[1]
    assert np.max(np.abs(central(bulk) - dr)) <= 1e-5 * np.max(np.abs(dr))
    beyond = np.r_[end + 2.0 * h, np.linspace(end + 1.0, 10.0 * end, 50)]
    dr = nc.regular(beyond)[1]
    assert np.array_equal(central(beyond), dr)
    assert np.all(dr == 0.0)


def _edge_jump(fn, edges):
    """Largest change of fn across the given points, from just below."""
    return np.max(np.abs(fn(np.nextafter(edges, -np.inf)) - fn(edges)),
                  initial=0.0)


@pytest.mark.parametrize("label", SUPPORTED_LABELS, ids=str)
def test_tables_continuous_and_derivative_consistent(bank, label):
    # each phase is the antiderivative of its slope's panel polynomials:
    # a fourth-order central difference of phi1, rho1 and r is x1, y1
    # and r' on the bulk to 1e-7 of the slope's largest value there; the
    # phases are continuous across every panel edge to 1e-12 of their
    # largest value, and the slopes across the edges in the bulk, both up
    # to the rounding floor of correction_values.  Everything is finite
    # where the slope denominator vanishes: xi = 1, eta = +-1 and, on the
    # odd branch, eta = 0.
    import twocenter.nonlinearization as nl

    from pt_helpers import bulk_points
    from twocenter.trial import eta_channel, xi_channel

    for R in (0.5, 2.0, 50.0):
        st = bank.get(label, R, corrected=True)
        p = st.params.p
        xs, es = bulk_points(st)
        xi_edges = nl._xi_panels(st.params).edges[1:-1]
        half = nl._eta_panels(p, label.parity).edges
        eta_edges = np.r_[half, -half]
        if label.n == 0:
            xi_edges = xi_edges[xi_edges < 1.0 + nl._TAU_KEEP / (2.0 * p)]
            xi_pair, A1 = st.pt_xi.correction, st.pt_xi.A1
        else:
            xi_pair, A1 = st.node.regular, st.node.A1
        channels = (
            (xi_pair, xs, xi_edges,
             1e-15 * (abs(A1) + (p * np.max(xs)) ** 2),
             lambda x: xi_channel(st.params, label, st.setup, x).vals),
            (st.pt_eta.correction, es, eta_edges,
             1e-15 * (abs(st.pt_eta.A1) + p * p),
             lambda x: eta_channel(st.params, label, x).vals))
        for pair, pts, edges, floor, channel in channels:
            def phase(x):
                return pair(x)[0]

            def slope(x):
                return pair(x)[1]

            h = 1e-4 * (np.max(pts) - np.min(pts))
            u = pts[(pts - 2.0 * h >= np.min(pts))
                    & (pts + 2.0 * h <= np.max(pts))]
            central = (8.0 * (phase(u + h) - phase(u - h))
                       - (phase(u + 2.0 * h) - phase(u - 2.0 * h))) / (12.0 * h)
            top = np.max(np.abs(slope(pts)))
            assert np.max(np.abs(central - slope(u))) \
                <= max(1e-7 * top, floor)
            assert _edge_jump(phase, edges) \
                <= max(1e-12 * np.max(np.abs(phase(pts))), floor)
            in_bulk = np.abs(channel(edges)) \
                >= 1e-2 * np.max(np.abs(channel(pts)))
            assert _edge_jump(slope, edges[in_bulk]) <= max(1e-12 * top, floor)
        ends = [st.xi_arrays(np.array([1.0])),
                st.eta_arrays(np.array([-1.0, 0.0, 1.0]))]
        for ca in ends:
            assert np.all(np.isfinite(ca.vals)) and np.all(np.isfinite(ca.dvals))
        for pair in (xi_pair, st.pt_eta.correction):
            assert np.all(np.isfinite(pair(np.array([-1.0, 0.0, 1.0]))))


@pytest.mark.parametrize("label", SUPPORTED_LABELS, ids=str)
def test_corrected_channels_match_the_exact_ones(bank, label):
    # X0 exp(-phi1) (or the node form) and Y0 exp(-rho1) against the
    # oracle's exact channels, by exact_deviation's metric: over R in
    # {1, 2, 6, 10, 20} the fixed-grid Hermite pass these tables replaced
    # was at worst 1.03e-8 off in xi (2ppu, R = 20) and 1.71e-7 in eta
    # (2ppu, R = 20); the bounds are those, rounded up
    from pt_helpers import exact_deviation

    for R in (1.0, 2.0, 6.0, 10.0, 20.0):
        dev_xi, dev_eta = exact_deviation(bank.get(label, R, corrected=True))
        assert dev_xi <= 2e-8 and dev_eta <= 2e-7, (R, dev_xi, dev_eta)


