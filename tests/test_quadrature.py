import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twocenter.model import EnergyPair, PhysicalSetup, StateLabel
from twocenter.presets import seed_for
from twocenter.quadrature import (ChannelMoments, QuadratureError,
                                  _base_rules, assemble_energy, build_rules,
                                  channel_moments, integrate,
                                  norm_from_moments, norm_squared,
                                  rayleigh_quotient, trial_channels,
                                  trial_moments)
from twocenter.trial import (ChannelArrays, TrialParams, channel_factor,
                             eta_channel, xi_channel)
from twocenter.variational import default_rule_size

GS = StateLabel(0, 0, 0, +1)
SETUP_EQ = PhysicalSetup(1.997193)
PARS_EQ = TrialParams(alpha=1.48407, gamma=1.0299, a1=0.9164, a2=0.05384,
                      b2=0.06, b3=0.00011, p=1.483403)


# ----------------------------------------------------------------------
# the plateau check and the strong-form kinetic energy, used only here


class QuadratureConvergenceError(QuadratureError):
    """Doubling the rule moved the result beyond tolerance."""

    def __init__(self, coarse: float, fine: float, rtol: float):
        self.coarse = coarse
        self.fine = fine
        self.rtol = rtol
        super().__init__(
            f"no quadrature plateau: N gave {coarse!r}, 2N gave {fine!r} "
            f"(rtol {rtol:g})"
        )


def rayleigh_converged(params: TrialParams, label: StateLabel,
                       setup: PhysicalSetup, p_scale: float, N: int,
                       rtol: float = 1e-11) -> tuple[EnergyPair, float]:
    """Rayleigh quotient with an (N, 2N) plateau check.

    Returns the fine-rule energy and the relative shift; raises
    QuadratureConvergenceError when doubling moves E beyond rtol.
    """
    coarse = rayleigh_quotient(params, label, setup, build_rules(p_scale, N))
    fine = rayleigh_quotient(params, label, setup, build_rules(p_scale, 2 * N))
    shift = abs(fine.E_total - coarse.E_total) / max(1.0, abs(fine.E_total))
    if shift > rtol:
        raise QuadratureConvergenceError(coarse.E_total, fine.E_total, rtol)
    return fine, shift


def kinetic_energy(params: TrialParams, label: StateLabel, setup: PhysicalSetup,
                   rules, form: str = "weak") -> float:
    """<Psi|-Laplacian|Psi> in Ry; strong form is a cross-check oracle."""
    rx, re = rules
    lam = label.lam
    cx, ce = channels = trial_channels(params, label, setup, rules)
    mx, me = trial_moments(channels, label, rules)
    scale = math.exp(-(mx.logscale + me.logscale))
    if form == "weak":
        val = (mx.kin + mx.cross + mx.cent) * me.s0 \
            + (me.kin + me.cross + me.cent) * mx.s0
        return 2.0 * math.pi * setup.a * val * scale
    if form != "strong":
        raise ValueError(f"unknown kinetic form {form!r}")

    xi = rx.nodes
    ddX = channel_factor(params, label, setup, xi, "xi", cx.logscale)[2]
    lx = -(xi**2 - 1.0) * ddX - 2.0 * (lam + 1.0) * xi * cx.dvals \
        - lam * (lam + 1.0) * cx.vals
    tx = integrate(rx, lx * cx.vals * (xi**2 - 1.0) ** lam)

    eta = re.nodes
    ddY = channel_factor(params, label, setup, eta, "eta", ce.logscale)[2]
    ly = -(1.0 - eta**2) * ddY + 2.0 * (lam + 1.0) * eta * ce.dvals \
        + lam * (lam + 1.0) * ce.vals
    te = integrate(re, ly * ce.vals * (1.0 - eta**2) ** lam)

    return 2.0 * math.pi * setup.a * (tx * me.s0 + mx.s0 * te) * scale


def test_rule_construction_contracts():
    rx, re = build_rules(1.485015, 64)
    assert rx.count == re.count == 64
    assert np.all(rx.weights > 0) and np.all(re.weights > 0)
    assert np.all(rx.nodes > 1.0)
    assert np.all(np.abs(re.nodes) < 1.0)
    with pytest.raises(ValueError):
        build_rules(1.0, 7)
    with pytest.raises(ValueError):
        build_rules(-1.0, 64)


def _mpmath_rule(N, laguerre, x0):
    """40-digit nodes and weights (the Laguerre ones times exp(t)), by
    Newton steps on mpmath's own polynomials from the nodes x0."""
    import mpmath

    out = []
    with mpmath.workdps(40):
        for x in map(mpmath.mpf, x0):
            for step in range(3):
                if laguerre:
                    P, Q = (mpmath.laguerre(n, 0, x) for n in (N, N - 1))
                    dP = N * (P - Q) / x
                else:
                    P, Q = (mpmath.legendre(n, x) for n in (N, N - 1))
                    dP = N * (x * P - Q) / (x * x - 1)
                if step < 2:
                    x -= P / dP
            w = (x * mpmath.exp(x) / ((N + 1) * mpmath.laguerre(N + 1, 0, x))
                 ** 2 if laguerre else 2 / ((1 - x * x) * dP * dP))
            out.append((float(x), float(w)))
    return np.array(out).T


@pytest.mark.parametrize("N", [48, 64, 96, 128, 256])
def test_rules_rescale_memoized_roots(N):
    from scipy.special import roots_laguerre

    p = 1.485015
    t, wt = _base_rules(N)[:2]
    for _ in range(2):  # the first call may fill the cache, the second reads it
        rx, re = build_rules(p, N)
        assert np.array_equal(rx.nodes, 1.0 + t / (2.0 * p))
        assert np.array_equal(rx.weights, wt / (2.0 * p))
    # the nodes of scipy's and numpy's rules to 8 ulp, nodes and weights
    # to 2 ulp of 40-digit ones (numpy's weights were 1e-12..4e-11 off)
    ulp = np.finfo(float).eps
    assert np.allclose(t, roots_laguerre(N)[0], rtol=8.0 * ulp, atol=0.0)
    assert np.allclose(re.nodes, np.polynomial.legendre.leggauss(N)[0],
                       rtol=0.0, atol=8.0 * ulp)
    sample = np.unique(np.r_[0:8, N - 8:N, 0:N:N // 16])
    for (x, w), laguerre in (((t, wt), True), ((re.nodes, re.weights), False)):
        x_ref, w_ref = _mpmath_rule(N, laguerre, x[sample])
        assert np.all(np.abs(x[sample] - x_ref)
                      <= 2.0 * np.spacing(np.abs(x_ref)))
        assert np.all(np.abs(w[sample] - w_ref) <= 2.0 * np.spacing(w_ref))
    # exactly symmetric, so odd integrands sum to zero
    assert np.array_equal(re.nodes, -re.nodes[::-1])
    assert np.array_equal(re.weights, re.weights[::-1])
    for arr in re.nodes, re.weights:
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert build_rules(2.0 * p, N)[1].nodes is re.nodes


def test_xi_rule_exponential_exactness():
    # int_1^inf exp(-2p(xi-1)) dxi = 1/(2p)
    p = 1.485015
    rx, _ = build_rules(p, 64)
    val = integrate(rx, np.exp(-2.0 * p * (rx.nodes - 1.0)))
    assert val == pytest.approx(1.0 / (2.0 * p), rel=1e-13)


def test_eta_rule_polynomial_exactness():
    _, re = build_rules(1.0, 16)
    assert integrate(re, re.nodes**2) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert integrate(re, 1.0 - re.nodes**2) == pytest.approx(4.0 / 3.0,
                                                             rel=1e-15)


@given(k=st.integers(1, 6), N=st.sampled_from([16, 64, 96]),
       channel=st.sampled_from([0, 1]), extended=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_integrate_matches_rows(k, N, channel, extended, seed):
    rule = build_rules(1.3, N)[channel]
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((k, N)) * 10.0 ** rng.integers(-8, 9, (k, 1))
    sums = integrate(rule, stack, extended)
    rows = [integrate(rule, row, extended) for row in stack]
    assert [s.hex() for s in sums] == [r.hex() for r in rows]


def _hm_channels(alpha2, setup, rules):
    # X = exp(-a2 R xi), Y = 2 cosh(a2 R eta) as generic channel arrays
    rx, re = rules
    s = alpha2 * setup.R
    X = np.exp(-s * (rx.nodes - 1.0))  # scale exp(-s) folded into logscale
    cx = ChannelArrays(X, -s * X, s, rx.nodes)
    Y = 2.0 * np.cosh(s * re.nodes)
    ce = ChannelArrays(Y, 2.0 * s * np.sinh(s * re.nodes), 0.0, re.nodes)
    return cx, ce


def _hm_norm_closed_form(alpha2, setup):
    # <HM+|HM+> = 2 int exp(-4 a r) dV + 2 int exp(-2 a R xi) dV
    a3 = setup.a**3
    s = 2.0 * alpha2 * setup.R
    direct = 2.0 * 4.0 * math.pi * 2.0 / (4.0 * alpha2) ** 3
    i2 = math.exp(-s) * (1.0 / s + 2.0 / s**2 + 2.0 / s**3)
    i0 = math.exp(-s) / s
    cross = 8.0 * math.pi * a3 * (i2 - i0 / 3.0)
    return direct + cross


@pytest.mark.parametrize("alpha2", [0.55, 0.9])
def test_hund_mulliken_norm_closed_form(alpha2):
    setup = PhysicalSetup(2.0)
    rules = build_rules(alpha2 * setup.R / 2.0, 80)
    cx, ce = _hm_channels(alpha2, setup, rules)
    mx = channel_moments(cx, cx, rules[0], 0)
    me = channel_moments(ce, ce, rules[1], 0)
    got = norm_from_moments(mx, me, setup)
    assert got == pytest.approx(_hm_norm_closed_form(alpha2, setup), rel=1e-12)


def test_hund_mulliken_norm_separated_limit():
    # alpha2 R large: the cross term dies and the norm is twice the
    # squared norm of a single exp(-2 alpha2 r) orbital
    setup = PhysicalSetup(30.0)
    alpha2 = 1.0
    rules = build_rules(alpha2 * setup.R / 2.0, 96)
    cx, ce = _hm_channels(alpha2, setup, rules)
    mx = channel_moments(cx, cx, rules[0], 0)
    me = channel_moments(ce, ce, rules[1], 0)
    got = norm_from_moments(mx, me, setup)
    single = 4.0 * math.pi * 2.0 / (4.0 * alpha2) ** 3
    assert got == pytest.approx(2.0 * single, rel=1e-10)


def test_norm_plateau_under_doubling():
    n1 = norm_squared(PARS_EQ, GS, SETUP_EQ, build_rules(PARS_EQ.p, 64))
    n2 = norm_squared(PARS_EQ, GS, SETUP_EQ, build_rules(PARS_EQ.p, 128))
    assert abs(n2 - n1) / n1 <= 1e-12


def test_norm_quadratic_scaling():
    rules = build_rules(PARS_EQ.p, 64)
    base = norm_squared(PARS_EQ, GS, SETUP_EQ, rules)
    cx, ce = trial_channels(PARS_EQ, GS, SETUP_EQ, rules)
    ce2 = dataclasses.replace(ce, vals=2.0 * ce.vals, dvals=2.0 * ce.dvals)
    doubled = norm_from_moments(*trial_moments((cx, ce2), GS, rules),
                                SETUP_EQ)
    assert doubled == pytest.approx(4.0 * base, rel=1e-14)


def test_rayleigh_quotient_published_parameters():
    rules = build_rules(PARS_EQ.p, 64)
    e = rayleigh_quotient(PARS_EQ, GS, SETUP_EQ, rules)
    assert e.E_total == pytest.approx(-1.20526923821, abs=1e-6)
    # the parameters are printed to 5-6 digits yet the functional is flat
    # enough to recover the energy to ~1e-11 here
    assert e.E_total == pytest.approx(-1.20526923821, abs=1e-9)
    assert e.E_prime == pytest.approx(e.E_total - SETUP_EQ.repulsion,
                                      rel=1e-15)


def test_rayleigh_reflection_symmetry():
    # reversing the eta rule must reproduce the energy exactly: the
    # integrand is parity-even and accumulation is order-insensitive
    # at the error-free-transform level
    rx, re = build_rules(PARS_EQ.p, 64)
    e1 = rayleigh_quotient(PARS_EQ, GS, SETUP_EQ, (rx, re))
    re_flipped = type(re)(-re.nodes[::-1], re.weights[::-1], "eta", re.count)
    e2 = rayleigh_quotient(PARS_EQ, GS, SETUP_EQ, (rx, re_flipped))
    assert e1.E_total == e2.E_total


@pytest.mark.parametrize("label, setup, pars", [
    (GS, SETUP_EQ, PARS_EQ),
    (StateLabel(1, 0, 0, +1), PhysicalSetup(4.0),                # 2ssg
     seed_for(StateLabel(1, 0, 0, +1), 4.0).replace(xi0=2.5)),
    (StateLabel(1, 0, 0, -1), PhysicalSetup(2.0),                # 3psu
     seed_for(StateLabel(1, 0, 0, -1), 2.0).replace(xi0=2.5)),
    (StateLabel(0, 0, 0, -1), PhysicalSetup(2.0),                # 2psu
     seed_for(StateLabel(0, 0, 0, -1), 2.0)),
], ids=["1ssg", "2ssg", "3psu", "2psu"])
def test_weak_equals_strong_kinetic(label, setup, pars):
    rules = build_rules(pars.p, 96)
    kw = kinetic_energy(pars, label, setup, rules, "weak")
    ks = kinetic_energy(pars, label, setup, rules, "strong")
    assert ks == pytest.approx(kw, rel=1e-10)


def test_weak_equals_strong_kinetic_odd_lam1():
    lab = StateLabel(0, 0, 1, -1)
    pars = TrialParams(alpha=1.3, gamma=1.0, a1=1.1, a2=0.05, b2=0.06,
                       b3=0.001, p=1.36)
    rules = build_rules(pars.p, 96)
    kw = kinetic_energy(pars, lab, PhysicalSetup(4.0), rules, "weak")
    ks = kinetic_energy(pars, lab, PhysicalSetup(4.0), rules, "strong")
    assert ks == pytest.approx(kw, rel=1e-10)


def test_moments_symmetric_in_pair():
    rx, re = build_rules(PARS_EQ.p, 48)
    other = TrialParams(alpha=1.2, gamma=0.9, a1=0.8, a2=0.04, b2=0.05,
                        b3=0.0, p=1.5)
    ca = xi_channel(PARS_EQ, GS, SETUP_EQ, rx.nodes)
    cb = xi_channel(other, GS, SETUP_EQ, rx.nodes)
    mab = channel_moments(ca, cb, rx, 0)
    mba = channel_moments(cb, ca, rx, 0)
    assert (mab.s0, mab.s1, mab.s2, mab.kin) == (mba.s0, mba.s1, mba.s2,
                                                 mba.kin)


def test_reduced_parameter_set_loses_digits():
    # freezing a2 = b2 = 0 degrades the energy to 5-6 significant digits
    from twocenter.presets import seed_for
    from twocenter.variational import optimize_state

    seed = seed_for(GS, 2.0).replace(a2=0.0, b2=0.0)
    res = optimize_state(GS, PhysicalSetup(2.0), seed,
                         frozen={"a2": 0.0, "b2": 0.0})
    diff = abs(res.energy.E_total - (-1.20526842899))
    assert 1e-8 < diff < 1e-4


def test_plateau_failure_reports_both_estimates():
    # a wildly wrong decay scale cannot reach a plateau at small N
    with pytest.raises(QuadratureConvergenceError) as exc:
        rayleigh_converged(PARS_EQ, GS, SETUP_EQ, p_scale=60.0, N=8,
                           rtol=1e-13)
    assert exc.value.coarse != exc.value.fine


@settings(max_examples=30, deadline=2000)
@given(R=st.floats(0.5, 50.0),
       label=st.sampled_from([StateLabel(0, 0, lam, parity)
                              for lam in (0, 1, 2) for parity in (+1, -1)]))
def test_seed_rule_sits_on_the_plateau(R, label):
    # the (N, 2N) shift of the rule optimize_state builds, on the projected
    # seed: the plateau part of the floor under the oracle gap
    seed = seed_for(label, R)
    _, shift = rayleigh_converged(seed, label, PhysicalSetup(R), seed.p,
                                  default_rule_size(seed.p), rtol=1e-11)
    assert shift <= 1e-11


def test_non_positive_norm_raises():
    rx, re = build_rules(1.0, 16)
    zero = ChannelArrays(np.zeros(16), np.zeros(16), 0.0, rx.nodes)
    mz = channel_moments(zero, zero, rx, 0)
    ce = eta_channel(PARS_EQ, GS, re.nodes)
    me = channel_moments(ce, ce, re, 0)
    with pytest.raises(QuadratureError):
        norm_from_moments(mz, me, PhysicalSetup(2.0))


def test_extended_precision_mode_agrees():
    rules = build_rules(PARS_EQ.p, 64)
    e_std = rayleigh_quotient(PARS_EQ, GS, SETUP_EQ, rules)
    channels = trial_channels(PARS_EQ, GS, SETUP_EQ, rules)
    e_ext = assemble_energy(*[channel_moments(c, c, r, GS.lam, extended=True)
                              for c, r in zip(channels, rules)], SETUP_EQ)
    assert e_ext.E_total == pytest.approx(e_std.E_total, abs=5e-14)
