import math

import numpy as np
import pytest

from twocenter.model import PhysicalSetup, StateLabel, p_from_energy
from twocenter.quadrature import build_rules
from twocenter.trial import (ParamDomainError, TrialParams, eta_channel,
                             eval_psi, eval_X, eval_Y, phase_of_trial_eta,
                             phase_of_trial_xi)

# published parameter set at the equilibrium distance
SETUP_EQ = PhysicalSetup(1.997193)
PARS_EQ = TrialParams(alpha=1.48407, gamma=1.0299, a1=0.9164, a2=0.05384,
                      b2=0.06, b3=0.00011, p=1.483403)
GS = StateLabel(0, 0, 0, +1)


def test_eval_X_closed_form_at_axis_end():
    # X(1) = (gamma+1)^(R/p-1) exp(-(alpha+p)/(gamma+1)) for the nodeless
    # sigma states; finite and positive with the published parameters
    kappa = SETUP_EQ.R / PARS_EQ.p
    expected = (PARS_EQ.gamma + 1.0) ** (kappa - 1.0) * math.exp(
        -(PARS_EQ.alpha + PARS_EQ.p) / (PARS_EQ.gamma + 1.0))
    got = eval_X(PARS_EQ, GS, SETUP_EQ, 1.0)
    assert got == pytest.approx(expected, rel=1e-14)
    assert got > 0.0


def test_eval_X_boundary_zero_for_lam1():
    lab = StateLabel(0, 0, 1, +1)
    assert eval_X(PARS_EQ, lab, SETUP_EQ, 1.0) == 0.0


def test_eval_X_node_zero():
    pars = PARS_EQ.replace(xi0=1.5)
    lab = StateLabel(1, 0, 0, +1)
    assert eval_X(pars, lab, SETUP_EQ, 1.5) == 0.0


def test_eval_Y_odd_branch_vanishes_at_origin():
    lab = StateLabel(0, 0, 0, -1)
    assert eval_Y(PARS_EQ, lab, 0.0) == 0.0


def test_eval_Y_even_branch_symmetric():
    # exact negation in, bit-identical values out
    half = np.linspace(0.0, 1.0, 21)
    etas = np.concatenate([-half[::-1], half])
    vals = eval_Y(PARS_EQ, GS, etas)
    assert np.array_equal(vals, vals[::-1])


def test_eval_Y_reduces_to_sinh():
    pars = TrialParams(alpha=1.0, gamma=1.0, a1=1.0, a2=0.0, b2=0.0, b3=0.0,
                       p=1.0)
    lab = StateLabel(0, 0, 0, -1)
    assert eval_Y(pars, lab, 0.5) == pytest.approx(math.sinh(0.5), rel=1e-15)


def test_eval_psi_phase_structure():
    lab = StateLabel(0, 0, 1, +1)
    psi = eval_psi(PARS_EQ, lab, SETUP_EQ, 1.5, 0.3, 0.0)
    assert psi.imag == 0.0
    mags = [abs(eval_psi(PARS_EQ, lab, SETUP_EQ, 1.5, 0.3, phi))
            for phi in (0.0, 0.7, 2.1, 5.5)]
    assert max(mags) - min(mags) < 1e-15 * max(mags)
    # sigma states are real
    assert eval_psi(PARS_EQ, GS, SETUP_EQ, 1.5, 0.3, 1.2).imag == 0.0


def test_eval_psi_parity():
    lab = StateLabel(0, 0, 0, -1)
    plus = eval_psi(PARS_EQ, lab, SETUP_EQ, 1.4, 0.6, 0.4)
    minus = eval_psi(PARS_EQ, lab, SETUP_EQ, 1.4, -0.6, 0.4)
    assert minus == pytest.approx(-plus, rel=1e-14)


def test_param_domain_checks():
    with pytest.raises(ParamDomainError):
        TrialParams(1.0, -1.5, 1.0, 0.0, 0.0, 0.0, 1.0).validate()
    with pytest.raises(ParamDomainError):
        TrialParams(1.0, 1.0, 1.0, 0.0, -2.0, 0.5, 1.0).validate()
    with pytest.raises(ParamDomainError):
        TrialParams(1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, xi0=0.8).validate()
    with pytest.raises(ParamDomainError):
        eval_X(PARS_EQ, GS, SETUP_EQ, 0.5)


def test_eta_shape_domain_holds_between_rule_nodes():
    # an odd-branch shape whose sinh argument N = a1 + p a2 s + p b3 s^2,
    # s = eta^2, dips below zero at s = 0.49375, strictly between two
    # 64-point rule nodes, and stays positive at every node: the domain
    # rule covers all of [0, 1], not the rule's nodes
    pars = TrialParams(1.0, 1.0, 9.75, -39.5, 0.0, 40.0, 1.0)
    lab = StateLabel(0, 0, 0, -1)
    nodes = build_rules(pars.p, 64)[1].nodes

    def N(s):
        return pars.a1 + pars.p * (pars.a2 * s + pars.b3 * s * s)

    assert np.min(N(nodes**2)) > 0.02 and N(0.49375) < 0.0
    pars.validate()  # D = 1 + 40 s^2 is positive; the label adds N's rule
    with pytest.raises(ParamDomainError, match="sinh argument"):
        eta_channel(pars, lab, nodes)
    with pytest.raises(ParamDomainError, match="sinh argument"):
        eval_Y(pars, lab, 0.5)


def test_eta_shape_domain_rejects_nan():
    for b2, b3 in ((math.nan, 0.0), (0.0, math.nan)):
        with pytest.raises(ParamDomainError, match="denominator"):
            PARS_EQ.replace(b2=b2, b3=b3).validate()


# ----------------------------------------------------------------------
# phase machinery


def test_odd_branch_helpers_match_mpmath():
    # S = coth w - 1/w, S' and log(sinh w / w) on w in [-1, 1] against
    # 40-digit values: below the series cutoff within 4 ulp of the value;
    # above it the closed forms lose what their cancelling terms (1/w,
    # 1/w^2 and order one) carry, within 4 ulp of those
    import mpmath

    from twocenter.trial import (_SMALL_W, _coth_minus_inv, _dcoth_minus_inv,
                                 _log_sinh_over_w)

    eps = np.finfo(float).eps
    half = np.concatenate([np.linspace(0.0, 1.0, 201),
                           [1e-8, 1e-3, 0.2499, np.nextafter(_SMALL_W, 0.0),
                            _SMALL_W, 0.2501]])
    ws = np.concatenate([half, -half[half > 0.0]])
    with mpmath.workdps(40):
        def exact(fn, at_zero):
            return np.array([float(fn(mpmath.mpf(w))) if w else at_zero
                             for w in ws])

        cases = [
            (_coth_minus_inv, exact(lambda w: mpmath.coth(w) - 1 / w, 0.0),
             lambda w: 1.0 / np.abs(w)),
            (_dcoth_minus_inv,
             exact(lambda w: 1 / w**2 - 1 / mpmath.sinh(w) ** 2, 1.0 / 3.0),
             lambda w: 1.0 / w**2),
            (_log_sinh_over_w, exact(lambda w: mpmath.log(mpmath.sinh(w) / w),
                                     0.0), np.ones_like),
        ]
    small = np.abs(ws) < _SMALL_W
    for fn, ref, terms in cases:
        err = np.abs(fn(ws) - ref)
        assert np.all(err[small] <= 4.0 * eps * np.abs(ref[small])), fn
        assert np.all(err[~small] <= 4.0 * eps * terms(ws[~small])), fn


def test_phase_derivatives_vs_finite_differences():
    # central-difference oracle at xi = 2 with the published parameters;
    # the second derivative gets a larger step to stay above the
    # cancellation floor
    xi = 2.0
    h = 1e-5
    phi, dphi, ddphi = phase_of_trial_xi(PARS_EQ, GS, SETUP_EQ,
                                         np.array([xi - h, xi, xi + h]))
    fd1 = (phi[2] - phi[0]) / (2.0 * h)
    assert dphi[1] == pytest.approx(fd1, rel=1e-8)
    h = 5e-4
    phi, _, ddphi = phase_of_trial_xi(PARS_EQ, GS, SETUP_EQ,
                                      np.array([xi - h, xi, xi + h]))
    fd2 = (phi[2] - 2.0 * phi[1] + phi[0]) / h**2
    assert ddphi[1] == pytest.approx(fd2, rel=1e-5)


@pytest.mark.parametrize("parity", [+1, -1])
def test_eta_phase_derivatives_vs_finite_differences(parity):
    lab = StateLabel(0, 0, 0, parity)
    h = 1e-5
    for eta in (0.02, 0.4, -0.75):
        grid = np.array([eta - h, eta, eta + h])
        rho, drho, ddrho = phase_of_trial_eta(PARS_EQ, lab, grid)
        assert drho[1] == pytest.approx((rho[2] - rho[0]) / (2 * h), rel=1e-7,
                                        abs=1e-9)
        assert ddrho[1] == pytest.approx(
            (rho[2] - 2 * rho[1] + rho[0]) / h**2, rel=1e-4, abs=1e-6)


def test_phase_slope_approaches_p():
    _, dphi, _ = phase_of_trial_xi(PARS_EQ, GS, SETUP_EQ,
                                   np.array([1e4, 1e6, 1e9]))
    gaps = np.abs(dphi - PARS_EQ.p)
    assert gaps[2] < 1e-9 * PARS_EQ.p
    assert gaps[0] / gaps[1] == pytest.approx(100.0, rel=0.01)  # ~ 1/xi


def test_phase_large_gamma_degeneration():
    # gamma -> inf with alpha/gamma fixed: the exponent degenerates to a
    # linear slope alpha/gamma * xi without overflow
    c = 0.7
    gamma = 1e9
    pars = TrialParams(alpha=c * gamma, gamma=gamma, a1=0.5, a2=0.0, b2=0.0,
                       b3=0.0, p=1.3)
    xi = np.array([1.0, 5.0, 20.0])
    phi, dphi, _ = phase_of_trial_xi(pars, GS, SETUP_EQ, xi)
    assert np.all(np.isfinite(phi))
    # subtract the log term; the remainder slope is ~ alpha/gamma
    kappa = SETUP_EQ.R / pars.p
    u_slope = dphi - (1.0 - kappa) / (gamma + xi)
    assert u_slope == pytest.approx(np.full(3, c), rel=1e-6)


def test_phase_asymptotic_matching_growing_terms():
    # the ansatz exponent reproduces p xi and the power of (gamma+xi)
    # reproduces the log-xi coefficient: the residual slope decays ~ 1/xi^2
    kappa = SETUP_EQ.R / PARS_EQ.p
    for xi in (1e3, 1e4):
        _, dphi, _ = phase_of_trial_xi(PARS_EQ, GS, SETUP_EQ, xi)
        resid = dphi - PARS_EQ.p - (1.0 - kappa) / xi
        assert abs(resid) * xi**2 < 10.0


# ----------------------------------------------------------------------
# printed asymptotic series


def wkb_phase_xi_large(E_total: float, A: float, label: StateLabel,
                       setup: PhysicalSetup, xi):
    """Three printed terms of the large-xi WKB phase of X = exp(-phase)."""
    xi = np.asarray(xi, dtype=float)
    p = p_from_energy(E_total, setup)
    kap = (setup.Z1 + setup.Z2) * setup.R / (2.0 * p)
    lam = label.lam
    tail = (A + (kap - lam - 1.0) * (kap + lam)) / p - p
    out = p * xi - (kap - lam - 1.0) * np.log(xi) + tail / (2.0 * xi)
    return out if out.ndim else float(out)


def pt_phase_xi_small(E_total: float, A: float, label: StateLabel,
                      setup: PhysicalSetup, xi):
    """Quartic truncation of the small-xi phase series of X = exp(-phase)."""
    xi = np.asarray(xi, dtype=float)
    p = p_from_energy(E_total, setup)
    lam = label.lam
    c3 = (setup.Z1 + setup.Z2) * setup.R / 6.0
    c4 = (p * p + A * A - A * (2 * lam + 3)) / 12.0
    out = -0.5 * A * xi**2 - c3 * xi**3 + c4 * xi**4
    return out if out.ndim else float(out)


def wkb_phase_eta_large(E_total: float, A: float, label: StateLabel,
                        setup: PhysicalSetup, eta):
    """Large-argument phase of the analytically continued eta channel."""
    eta = np.asarray(eta, dtype=float)
    p = p_from_energy(E_total, setup)
    lam = label.lam
    tail = (A - lam * (lam + 1.0)) / p - p
    out = -p * eta + (lam + 1.0) * np.log(eta) - tail / (2.0 * eta)
    return out if out.ndim else float(out)


def pt_phase_eta_small(E_total: float, A: float, label: StateLabel,
                       setup: PhysicalSetup, eta):
    """Quartic truncation of the small-eta phase series of Y = exp(-phase)."""
    eta = np.asarray(eta, dtype=float)
    p = p_from_energy(E_total, setup)
    c4 = (p * p + A * A - A * (2 * label.lam + 3)) / 12.0
    out = -0.5 * A * eta**2 + c4 * eta**4
    return out if out.ndim else float(out)


def _fit_coefficients(fn, basis, grid):
    vals = fn(grid)
    M = np.vstack([b(grid) for b in basis]).T
    coef, *_ = np.linalg.lstsq(M, vals, rcond=None)
    return coef


def test_small_xi_series_printed_coefficients():
    # fit the module series on a tiny grid and compare with the printed
    # closed forms; no constant or linear term is present
    E, A = -1.20526842899, 0.8117295846
    setup = PhysicalSetup(2.0)
    from twocenter.model import p_from_energy
    p = p_from_energy(E, setup)
    assert pt_phase_xi_small(E, A, GS, setup, 0.0) == 0.0
    # divide out xi^2 first: the remaining quadratic fit is well conditioned
    grid = np.linspace(1e-3, 6e-3, 9)
    c = _fit_coefficients(
        lambda x: pt_phase_xi_small(E, A, GS, setup, x) / x**2,
        [lambda x: np.ones_like(x), lambda x: x, lambda x: x**2], grid)
    assert c[0] == pytest.approx(-A / 2.0, rel=1e-12)
    assert c[1] == pytest.approx(-setup.R / 3.0, rel=1e-10)
    assert c[2] == pytest.approx((p * p + A * A - 3.0 * A) / 12.0, rel=1e-8)


def test_large_xi_series_printed_coefficients():
    E, A = -1.20526842899, 0.8117295846
    setup = PhysicalSetup(2.0)
    from twocenter.model import p_from_energy
    p = p_from_energy(E, setup)
    kap = setup.R / p
    grid = np.geomspace(50.0, 5e3, 12)
    c = _fit_coefficients(lambda x: wkb_phase_xi_large(E, A, GS, setup, x),
                          [lambda x: x, np.log, lambda x: 1.0 / x], grid)
    assert c[0] == pytest.approx(p, rel=1e-12)
    assert c[1] == pytest.approx(-(kap - 1.0), rel=1e-9)
    assert c[2] == pytest.approx(
        0.5 * ((A + (kap - 1.0) * kap) / p - p), rel=1e-6)


def test_wkb_coefficient_zeros():
    # E' = -4 makes p = R, i.e. kappa = R/p = 1: the log coefficient
    # vanishes, and at A = p^2 the 1/(2 xi) coefficient vanishes too, so
    # the phase is exactly p xi
    setup = PhysicalSetup(1.5)
    E = -4.0 + setup.repulsion
    p = setup.R
    xi = np.array([50.0, 500.0])
    ph = wkb_phase_xi_large(E, p * p, GS, setup, xi)
    assert np.max(np.abs(ph - p * xi)) < 1e-12


def test_eta_series_printed_coefficients():
    # eta-channel analogues with the printed signs (no cubic term)
    E, A = -1.20526842899, 0.8117295846
    setup = PhysicalSetup(2.0)
    from twocenter.model import p_from_energy
    p = p_from_energy(E, setup)
    grid = np.linspace(1e-3, 6e-3, 9)
    c = _fit_coefficients(
        lambda x: pt_phase_eta_small(E, A, GS, setup, x) / x**2,
        [lambda x: np.ones_like(x), lambda x: x**2, lambda x: x], grid)
    assert c[0] == pytest.approx(-A / 2.0, rel=1e-12)
    assert c[1] == pytest.approx((p * p + A * A - 3.0 * A) / 12.0, rel=1e-8)
    assert abs(c[2]) < 1e-8  # odd term absent (b = 0 in this channel)
    grid = np.geomspace(50.0, 5e3, 12)
    c = _fit_coefficients(lambda x: wkb_phase_eta_large(E, A, GS, setup, x),
                          [lambda x: x, np.log, lambda x: 1.0 / x], grid)
    assert c[0] == pytest.approx(-p, rel=1e-12)
    assert c[1] == pytest.approx(1.0, rel=1e-9)
    assert c[2] == pytest.approx(-0.5 * (A / p - p), rel=1e-6)


# ----------------------------------------------------------------------
# baseline two-exponential functions


def eval_hund_mulliken(alpha2: float, setup: PhysicalSetup, parity: int, xi, eta):
    """Two-exponential baseline: 2 exp(-a2 R xi) cosh-or-sinh(a2 R eta)."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    branch = np.cosh if parity == +1 else np.sinh
    with np.errstate(under="ignore"):
        out = 2.0 * np.exp(-alpha2 * setup.R * xi) * branch(alpha2 * setup.R * eta)
    return out if out.ndim else float(out)


def eval_guillemin_zener(alpha3: float, alpha4: float, setup: PhysicalSetup,
                         parity: int, xi, eta):
    """Screened-pair baseline: 2 exp(-(a3+a4) R xi) cosh-or-sinh((a3-a4) R eta)."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    branch = np.cosh if parity == +1 else np.sinh
    with np.errstate(under="ignore"):
        out = 2.0 * np.exp(-(alpha3 + alpha4) * setup.R * xi) \
            * branch((alpha3 - alpha4) * setup.R * eta)
    return out if out.ndim else float(out)


def test_hund_mulliken_matches_distance_form():
    setup = PhysicalSetup(2.0)
    alpha2 = 0.7
    rng = np.random.default_rng(7)
    xi = 1.0 + 3.0 * rng.random(20)
    eta = -1.0 + 2.0 * rng.random(20)
    a = setup.a
    r1 = a * (xi - eta)
    r2 = a * (xi + eta)
    direct = np.exp(-2 * alpha2 * r1) + np.exp(-2 * alpha2 * r2)
    prolate = eval_hund_mulliken(alpha2, setup, +1, xi, eta)
    assert np.max(np.abs(prolate / direct - 1.0)) < 1e-13


def test_hund_mulliken_odd_vanishes_at_midplane():
    assert eval_hund_mulliken(0.7, PhysicalSetup(2.0), -1, 1.5, 0.0) == 0.0


def test_guillemin_zener_reduces_to_hund_mulliken():
    setup = PhysicalSetup(2.0)
    xi, eta = 1.7, 0.3
    gz = eval_guillemin_zener(0.6, 0.6, setup, +1, xi, eta)
    # alpha3 = alpha4 kills the eta dependence entirely (cosh(0) = 1)
    gz_other_eta = eval_guillemin_zener(0.6, 0.6, setup, +1, xi, -0.9)
    assert gz == pytest.approx(gz_other_eta, rel=1e-15)
    hm = eval_hund_mulliken(0.6, setup, +1, xi, 0.0)
    assert gz == pytest.approx(2.0 * math.exp(-1.2 * setup.R * xi), rel=1e-15)
    assert hm == pytest.approx(2.0 * math.exp(-0.6 * setup.R * xi), rel=1e-15)
