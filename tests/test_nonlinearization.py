import math

import numpy as np
import pytest

from twocenter.model import (SUPPORTED_LABELS, PhysicalSetup, StateLabel,
                             p_from_energy)
from twocenter.nonlinearization import (_first_order, _hermite, _xi_grid,
                                        build_V1_xi, build_W1_eta,
                                        channel_potential_eta,
                                        channel_potential_xi,
                                        first_correction_eta,
                                        first_correction_xi,
                                        next_correction_xi,
                                        true_potential_xi)
from twocenter.states import (StateBank, attach_corrections,
                              correction_energy_shift)
from twocenter.trial import TrialParams

from pt_helpers import residual_custom_phase

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
    V1, bound, pole = build_V1_xi(pars, GS, setup, p_phys=p)
    xs = np.linspace(1.0, 30.0, 500)
    assert np.max(np.abs(V1(xs) - p * p)) <= 1e-10
    assert pole is None
    pt = first_correction_xi(pars, GS, setup, p_phys=p)
    assert pt.A1 == pytest.approx(p * p, abs=1e-10)
    assert np.max(np.abs(pt.correction_phase(np.linspace(1, 8, 100)))) <= 1e-12


def test_perturbation_bounded_no_poles(bank):
    st = bank.get(GS, 2.0)
    p_phys = p_from_energy(st.energy.E_total, st.setup)
    V1, bound, pole = build_V1_xi(st.params, GS, st.setup, p_phys)
    assert pole is None
    assert math.isfinite(bound)
    # tail flattens to a constant: growing terms are matched exactly
    assert abs(V1(80.0) - V1(40.0)) < 2e-3 * abs(V1(40.0))


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
    assert st.pt_xi.correction_phase(1.0) == 0.0
    sup = np.max(np.abs(st.pt_xi.correction_phase(xs)))
    assert 1e-7 < sup < 1e-4
    es = np.linspace(-1.0, 1.0, 201)
    sup_e = np.max(np.abs(st.pt_eta.correction_phase(es)))
    assert sup_e < 1e-4
    # rho1 is even and gauged to zero at the midplane
    assert st.pt_eta.correction_phase(0.0) == pytest.approx(0.0, abs=1e-15)
    evens = st.pt_eta.correction_phase(es) - st.pt_eta.correction_phase(-es)
    assert np.max(np.abs(evens)) <= 1e-14


def test_odd_branch_midplane_regular(bank):
    # for the odd state the eta integrand has a 0/0 at the midplane that
    # cancels analytically; the tabulated slope stays finite and odd
    st = bank.get(StateLabel(0, 0, 0, -1), 2.0, corrected=True)
    es = np.array([-1e-3, -1e-5, 0.0, 1e-5, 1e-3])
    slopes = st.pt_eta.correction_slope(es)
    assert np.all(np.isfinite(slopes))
    assert slopes[2] == pytest.approx(0.0, abs=1e-10)
    assert slopes[4] == pytest.approx(-slopes[0], rel=1e-6, abs=1e-12)


def test_A1_invariant_under_rescaling(bank, monkeypatch):
    from twocenter import nonlinearization, trial

    st = bank.get(GS, 2.0)
    p_phys = p_from_energy(st.energy.E_total, st.setup)
    a = first_correction_eta(st.params, GS, p_phys=p_phys)
    unscaled = trial.prefactor

    def doubled(params, label, x, channel):
        g = unscaled(params, label, x, channel)
        return tuple(2.0 * v for v in g) if channel == "eta" else g

    # Y -> 2 Y: the eta prefactor of the same state, with its derivatives
    monkeypatch.setattr(trial, "prefactor", doubled)
    monkeypatch.setattr(nonlinearization, "prefactor", doubled)
    b = first_correction_eta(st.params, GS, p_phys=p_phys)
    assert b.A1 == pytest.approx(a.A1, rel=1e-13)


def test_bound_grows_for_reduced_parameter_set(bank):
    from twocenter.presets import seed_for
    from twocenter.variational import optimize_state

    st = bank.get(GS, 2.0)
    p_phys = p_from_energy(st.energy.E_total, st.setup)
    W1_full, _ = build_W1_eta(st.params, GS, p_phys)
    seed = seed_for(GS, 2.0).replace(a2=0.0, b2=0.0)
    red = optimize_state(GS, PhysicalSetup(2.0), seed,
                         frozen={"a2": 0.0, "b2": 0.0})
    p_red = p_from_energy(red.energy.E_total, red.setup)
    W1_red, _ = build_W1_eta(red.params, GS, p_red)
    es = np.linspace(-1.0, 1.0, 801)
    defect_full = np.max(np.abs(W1_full(es) - np.mean(W1_full(es))))
    defect_red = np.max(np.abs(W1_red(es) - np.mean(W1_red(es))))
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
    second = next_correction_xi(st.params, GS, st.setup, [st.pt_xi])
    assert abs(second.A1) < 1e-6 * abs(st.pt_xi.A1)
    xs = np.linspace(1.0, 8.0, 100)
    sup2 = np.max(np.abs(second.correction_phase(xs)))
    sup1 = np.max(np.abs(st.pt_xi.correction_phase(xs)))
    assert sup2 < 1e-2 * sup1


def test_channel_potentials_finite_on_domains(bank):
    st = bank.get(StateLabel(0, 0, 1, -1), 6.0)
    xs = np.linspace(1.0, 20.0, 300)
    assert np.all(np.isfinite(channel_potential_xi(st.params, st.label,
                                                   st.setup, xs)))
    es = np.linspace(-0.999, 0.999, 301)
    assert np.all(np.isfinite(channel_potential_eta(st.params, st.label, es)))


def test_hermite_interpolant_matches_cubic_spline():
    # on the xi tabulation grid at p = 1.5, the Hermite cubics of a smooth
    # function's values and slopes agree with scipy's not-a-knot spline of
    # its values to 1e-10 and with the function to 2e-11 (the spline to
    # 5e-11); both antiderivatives agree with the exact one to 1e-11
    from scipy.interpolate import CubicSpline

    grid = _xi_grid(1.5)

    def f(x):
        return np.exp(-0.3 * x) * np.sin(2.0 * x)

    def df(x):
        return np.exp(-0.3 * x) * (2.0 * np.cos(2.0 * x)
                                   - 0.3 * np.sin(2.0 * x))

    def anti(x):  # int_1^x f
        def F(u):
            return np.exp(-0.3 * u) * (-0.3 * np.sin(2.0 * u)
                                       - 2.0 * np.cos(2.0 * u)) / 4.09
        return F(x) - F(1.0)

    value, integral = _hermite(grid, f(grid), df(grid))
    spline = CubicSpline(grid, f(grid))
    x = np.linspace(grid[0], grid[-1], 7919)
    assert np.array_equal(value(grid[:-1]), f(grid[:-1]))
    assert integral(grid[0]) == 0.0
    assert np.max(np.abs(value(x) - spline(x))) <= 1e-10
    assert np.max(np.abs(value(x) - f(x))) <= 2e-11
    for antiderivative in (integral, spline.antiderivative()):
        assert np.max(np.abs(antiderivative(x) - anti(x))) <= 1e-11


def _gauss8_cumulative(fn, grid):
    """The cumulative integrals of _cumulative on the 8-point
    Gauss-Legendre rule of each grid interval: the reference that the
    3-point rule is held to."""
    x, w = np.polynomial.legendre.leggauss(8)
    half = 0.5 * np.diff(grid)
    pts = 0.5 * (grid[1:] + grid[:-1])[:, None] + half[:, None] * x
    return [np.concatenate([[0.0], np.cumsum(half * (v.reshape(pts.shape)
                                                     @ w))])
            for v in fn(pts.ravel())]


@pytest.mark.parametrize("label", SUPPORTED_LABELS, ids=str)
def test_three_point_rule_matches_eight_points(bank, label, monkeypatch):
    # the tabulation intervals are short enough that the 3-point rule's
    # error is rounding: over R in {0.5, 2, 10, 50} the 8-point rule moved
    # A by at most 2.6e-14 relative, F by 2.9e-14 of |A G(end)| (the size
    # of each of its two terms) and G by 1.2e-15 of |G(end)|.  A 2-point
    # rule moves G by 2.2e-10.
    from twocenter import nonlinearization

    three = nonlinearization._cumulative
    for R in (0.5, 2.0, 10.0, 50.0):
        st = bank.get(label, R)
        p_phys = p_from_energy(st.energy.E_total, st.setup)
        for channel, setup in (("xi", st.setup), ("eta", None)):
            pair = []

            def both(fn, grid):
                pair.extend([three(fn, grid), _gauss8_cumulative(fn, grid)])
                return pair[0]

            runs = []
            for cumulative in (both, _gauss8_cumulative):
                monkeypatch.setattr(nonlinearization, "_cumulative",
                                    cumulative)
                runs.append(_first_order(st.params, label, setup, p_phys,
                                         channel))
            (A3, _, tab3, _), (A8, _, tab8, _) = runs
            (F3, G3), (F8, G8) = pair
            size = abs(A8 * G8[-1])
            assert abs(A3 - A8) <= 1e-13 * abs(A8)
            assert np.max(np.abs(F3 - F8)) <= 1e-13 * size
            assert np.max(np.abs(tab3[0] - tab8[0])) <= 1e-13 * size
            assert np.max(np.abs(G3 - G8)) <= 1e-14 * abs(G8[-1])


@pytest.mark.parametrize("label,R", [(GS, 2.0), (StateLabel(1, 0, 0, -1),
                                                4.0)], ids=["1ssg", "3psu"])
def test_bound_is_sampled_only_when_read(bank, label, R, monkeypatch):
    from twocenter import nonlinearization

    def refuse(*args, **kwargs):
        raise AssertionError("the pass sampled the perturbation bound")

    st = bank.get(label, R)
    with monkeypatch.context() as m:
        m.setattr(nonlinearization, "build_V1_xi", refuse)
        m.setattr(nonlinearization, "build_W1_eta", refuse)
        attach_corrections(st)
    p_phys = p_from_energy(st.energy.E_total, st.setup)
    assert st.pt_eta.bound_C == build_W1_eta(st.params, label, p_phys)[1]
    if label.n == 0:
        assert st.pt_xi.bound_C == build_V1_xi(st.params, label, st.setup,
                                               p_phys)[1]


@pytest.mark.parametrize("name", ["2ssg", "3psu"])
@pytest.mark.parametrize("R", [2.0, 10.0])
def test_node_correction_finite_at_xi_one(bank, name, R, monkeypatch):
    # r' = -F/denom + f1/d^2 - c1/d is 0/0 at xi = 1, which made r, r'
    # and the corrected channel NaN on the first tabulation interval; its
    # limit there keeps them finite and smooth, and nothing the corrected
    # state reports reads that interval
    import twocenter.nonlinearization as nl
    from twocenter.model import label_from_designation
    from twocenter.transitions import oscillator_strength

    label = label_from_designation(name)
    st = bank.get(label, R, corrected=True)
    nc = st.node
    x = np.array([1.0, 1.0 + 1e-9, 1.0 + 1e-7, 1.0 + 1e-5])
    ca = st.xi_arrays(x)
    for vals in (nc.r(x), nc.dr(x), ca.vals, ca.dvals):
        assert np.all(np.isfinite(vals))
    # r runs on into the second interval: the secant of the first one
    # matches r' at both of its ends
    g0, g1 = _xi_grid(st.params.p)[:2]
    secant = (nc.r(g1) - nc.r(g0)) / (g1 - g0)
    for end in (g0, g1):
        assert float(nc.dr(end)) == pytest.approx(secant, rel=1e-4)
    assert abs(nc.r(g1) - nc.r(g1 - 1e-3 * (g1 - g0))) \
        <= 2e-3 * (g1 - g0) * abs(secant)
    # with the xi = 1 value of r' left undefined, as before the limit,
    # A1, f1, c1, r past the first interval and the gated strength are
    # the same bits
    gs = bank.get(GS, R, corrected=True)
    kind = "E1" if label.parity == -1 else "E2"
    f = oscillator_strength(kind, gs, st).f
    p_phys = p_from_energy(st.energy.E_total, st.setup)
    monkeypatch.setattr(nl, "_V1_xi", lambda *args: lambda xi: math.nan)
    undefined = nl.node_correction_xi(st.params, label, st.setup, p_phys)
    assert math.isnan(float(undefined.dr(1.0)))
    assert (undefined.A1, undefined.f1, undefined.c1) \
        == (nc.A1, nc.f1, nc.c1)
    beyond = np.linspace(g1, 1.0 + 20.0 / st.params.p, 200)
    assert undefined.r(beyond).tobytes() == nc.r(beyond).tobytes()
    assert undefined.dr(beyond).tobytes() == nc.dr(beyond).tobytes()
    st.node = undefined
    assert oscillator_strength(kind, gs, st).f == f
