import dataclasses
import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq
from scipy.special import obl_cv

from twocenter.model import (SUPPORTED_LABELS, PhysicalSetup, StateLabel,
                             label_from_designation, p_from_energy)
from twocenter.oracle import (RadialRootError, _Radial, _Table, _angular,
                              _angular_fraction, _angular_rows, _fraction,
                              _legendre_terms, _pivots, _radial_eigenvalue,
                              _ratio, _series, _settle, _sweep,
                              angular_eigenvalue,
                              exact_channels, exact_node,
                              find_root, hydrogenic_seed, radial_mismatch,
                              radial_solution, solve_bispectral)
from twocenter.reference import energy_table
from twocenter.united_atom import limit_form


def _node_grid(res):
    """exact_node's node grid t on (0, t_far], Jaffe's series g of the
    solution res and the indices i where the series changes sign between
    t[i] and t[i+1]."""
    p, A, b = res.p, res.A, 2.0 * res.setup.R
    xi_far = (b + math.sqrt(b * b + 4.0 * p * p * max(A, 0.0))) \
        / (2.0 * p * p) + 1.0 / p
    t = np.linspace(0.0, 1.0, 1400)[1:] * (xi_far - 1.0) / (xi_far + 1.0)
    g = _series(res, t[-1])[0]
    s = np.sign(np.polynomial.polynomial.polyval(t, g))
    return t, g, np.flatnonzero(s[:-1] * s[1:] < 0.0)


def _series_nodes(A, p, R, lam):
    # the interior node count as the sign changes of Jaffe's series at
    # (A, p) on the node grid, as exact_node finds them: the check
    # independent of the pivot count that radial_solution reads
    res = SimpleNamespace(setup=PhysicalSetup(R), A=A, p=p,
                          label=StateLabel(0, 0, lam, +1))
    return _node_grid(res)[2].size


def _angular_table(p, lam, parity):
    return _Table(p, functools.partial(_angular_rows, p, lam, parity))


@pytest.mark.parametrize("lam,m,parity,l", [
    (0, 0, -1, 1),   # 2p-type
    (3 - 1, 0, -1, 3),  # 4f-type (lam = 2)
    (0, 0, +1, 0),
    (1, 0, -1, 2),
    (0, 1, +1, 2),   # second even eigenvalue
])
def test_angular_legendre_limit(lam, m, parity, l):
    A = angular_eigenvalue(1e-30, lam, m, parity)
    assert A == pytest.approx(-(l - lam) * (l + lam + 1.0), abs=1e-12)


@pytest.mark.parametrize("p", [0.5, 1.485015, 5.0])
def test_angular_matches_scipy_oblate(p):
    # the p^2 eta^2 sign of this separation matches the oblate convention
    A = angular_eigenvalue(p, 0, 0, +1)
    assert A == pytest.approx(-obl_cv(0, 0, p), rel=1e-11)


def _angular_by_eigh_tridiagonal(p, lam, m, parity):
    """A, dA/dp (Hellmann-Feynman) and the eigenvector from scipy's
    tridiagonal eigensolver, the basis doubled until A settles."""
    K, prev = 24 + lam, None
    while True:
        _, L, s = _legendre_terms(lam, parity, K)
        s_diag, s_off = s[0], s[1, :-1]
        diag, off = L - p * p * s_diag, -p * p * s_off
        mu, v = eigh_tridiagonal(diag, off, select="i", select_range=(m, m),
                                 tol=2.0 * np.finfo(float).tiny)
        A, v = -mu[0], v[:, 0]
        if prev is not None and abs(A - prev) < 1e-13 * max(1.0, abs(A)):
            vSv = s_diag @ (v * v) + 2.0 * s_off @ (v[:-1] * v[1:])
            return A, 2.0 * p * vSv, v
        prev, K = A, 2 * K


@pytest.mark.parametrize("p", [0.05, 0.5, 1.485015, 5.0, 12.0, 25.0])
@pytest.mark.parametrize("lam", [0, 1, 2])
def test_angular_fraction_matches_scipy(p, lam):
    # m = 1 covers the designated labels 3dsg and 4fsu outside the solve;
    # the fraction's A sits within the rounding of its terms of the
    # eigensolver's and of obl_cv's, which are 1e-14 apart themselves
    for m in (0, 1):
        for parity in (+1, -1):
            A, dA, K, v = _angular(p, lam, m, parity)
            A_ref, dA_ref, v_ref = _angular_by_eigh_tridiagonal(p, lam, m,
                                                                parity)
            assert abs(A - A_ref) <= 16.0 * math.ulp(max(1.0, abs(A_ref)))
            assert dA == pytest.approx(dA_ref, rel=1e-12, abs=1e-15)
            n = lam + (1 - parity) // 2 + 2 * m
            assert A == pytest.approx(lam * (lam + 1) - obl_cv(lam, n, p),
                                      rel=1e-11, abs=1e-12)
            size = min(v.size, v_ref.size)
            v, v_ref = (u[:size] / u[np.argmax(np.abs(u))] for u in (v, v_ref))
            assert np.max(np.abs(v - v_ref)) <= 1e-12


def test_angular_even_in_p():
    assert angular_eigenvalue(1.3, 1, 0, -1) == angular_eigenvalue(-1.3, 1, 0,
                                                                   -1)


def test_angular_table_trend():
    # odd sigma class at R = 1: A close to its coalesced-centers value -2;
    # p is taken from the tabulated energy, not the 7-digit p column
    p = p_from_energy(0.8703727498, PhysicalSetup(1.0))
    A = angular_eigenvalue(p, 0, 0, -1)
    assert A == pytest.approx(-1.8300104198, abs=2e-9)
    A0 = angular_eigenvalue(0.05, 0, 0, -1)
    assert abs(A0 + 2.0) < abs(A + 2.0)


def test_radial_root_at_reference_energy():
    # the mismatch changes sign across the tabulated ground-state energy,
    # and the pivot count reads the root's index, 0, on both sides
    setup = PhysicalSetup(2.0)
    A = 0.8117295846248
    lo, lo_index = radial_solution(-1.20526842899 - 1e-7, A, setup, 0)
    hi, hi_index = radial_solution(-1.20526842899 + 1e-7, A, setup, 0)
    assert lo * hi < 0.0
    assert (lo_index, hi_index) == (0, 0)


def test_radial_node_count():
    setup = PhysicalSetup(4.0)
    _, nodes = radial_solution(-0.0770297349, 0.853531800197, setup, 0)
    assert nodes == 1
    with pytest.raises(RadialRootError):
        radial_mismatch(-0.0770297349, 0.853531800197, setup, 0, n=0)


def test_wrong_separation_constant_has_no_nearby_root():
    # A detuned by +0.1: no sign change within +-0.01 Ry of the true E
    setup = PhysicalSetup(2.0)
    A = 0.8117295846248 + 0.1
    Es = np.linspace(-1.20526842899 - 0.01, -1.20526842899 + 0.01, 41)
    signs = np.sign([radial_solution(E, A, setup, 0)[0] for E in Es])
    assert np.all(signs == signs[0])


def test_solve_ground_state(bank):
    res = solve_bispectral(StateLabel(0, 0, 0, +1), PhysicalSetup(2.0),
                           E_seed=bank.get(StateLabel(0, 0, 0, +1),
                                           2.0).energy.E_total)
    assert res.E_total == pytest.approx(-1.20526842899, abs=2e-11)
    assert res.A == pytest.approx(0.8117295846248, abs=1e-10)
    assert abs(res.radial_mismatch) <= 1e-12
    # (E, A, p) identity holds by construction
    assert res.p == p_from_energy(res.E_total, res.setup)


def test_solve_mesh_rows():
    r = solve_bispectral(StateLabel(0, 0, 0, +1), PhysicalSetup(12.5),
                         E_seed=-1.00026)
    assert r.E_total == pytest.approx(-1.0002611116, abs=1e-10)
    r = solve_bispectral(StateLabel(0, 0, 0, -1), PhysicalSetup(12.54525),
                         E_seed=-1.00012)
    assert r.E_total == pytest.approx(-1.0001215811, abs=1e-10)


def test_solve_separation_constant_row():
    r = solve_bispectral(StateLabel(0, 0, 0, +1), PhysicalSetup(6.0),
                         E_seed=-1.0239)
    assert r.A == pytest.approx(6.4536037429, abs=1e-8)


def test_near_degenerate_pair_resolved():
    # at R = 30 the even state sits below the odd one by ~8e-12 Ry and
    # both match the tabulated -1.0000055815
    g = solve_bispectral(StateLabel(0, 0, 0, +1), PhysicalSetup(30.0),
                         E_seed=-1.0000056)
    u = solve_bispectral(StateLabel(0, 0, 0, -1), PhysicalSetup(30.0),
                         E_seed=-1.0000056)
    assert g.E_total == pytest.approx(-1.0000055815, abs=1e-9)
    assert u.E_total == pytest.approx(-1.0000055815, abs=1e-9)
    assert g.E_total < u.E_total


def test_cold_seed_from_one_center_estimate():
    label = StateLabel(0, 0, 2, +1)
    setup = PhysicalSetup(0.5)
    r = solve_bispectral(label, setup)
    # flows toward the Z=2, n=3 ion level E' = -4/9
    assert r.E_total - setup.repulsion == pytest.approx(-4.0 / 9.0, abs=0.03)
    assert hydrogenic_seed(label, setup) == pytest.approx(
        -4.0 / 9.0 + setup.repulsion)


def test_find_root_filters_node_count(bank):
    # seeding near the n=1 level but asking for n=0 walks away from it
    setup = PhysicalSetup(4.0)
    E1 = bank.get(StateLabel(1, 0, 0, +1), 4.0).energy.E_total
    E = find_root(StateLabel(0, 0, 0, +1), setup, E1)[0]
    assert E == pytest.approx(-1.0921697666, abs=1e-6)


@pytest.mark.parametrize("name", ["1ssg", "2ppu", "3ddg", "3psu"])
@pytest.mark.parametrize("R", [0.1, 1.0, 6.0, 30.0])
def test_p_slopes_match_central_differences(name, R):
    # dA_n/dp from the differentiated continued fraction and dA_ang/dp by
    # Hellmann-Feynman, at the oracle's p
    label = label_from_designation(name)
    lam, b = label.lam, 2.0 * R
    p = solve_bispectral(label, PhysicalSetup(R)).p
    h = 3e-5 * p

    def radial(q):
        return _radial_eigenvalue(q, b, lam, label.n)

    def angular(q):
        return _angular(q, lam, label.m, label.parity)

    for slope_of in (radial, angular):
        central = (slope_of(p + h)[0] - slope_of(p - h)[0]) / (2.0 * h)
        assert slope_of(p)[1] == pytest.approx(central, rel=1e-7)


@pytest.mark.parametrize("label", SUPPORTED_LABELS, ids=str)
def test_cold_solves_toward_the_united_atom(label):
    # 30 geometric R in [0.01, 0.5] and R = 0.02, 0.025: a secant polish
    # of A_n(p) once ran away there, and the p root it gave failed the
    # node count, for 2ssg at R = 0.02247 and 0.025 and for 3psu at
    # 0.01963, 0.02 and 0.02571.  The node count is checked inside
    # solve_bispectral, and again here by the pivots and by the series.
    # The first radial node r = R xi0 / 2 tends to the united-atom
    # orbital's, N (l + 1) / (Z1 + Z2), as R -> 0.
    N, l, _ = limit_form(label).orbital
    for R in [*np.geomspace(0.01, 0.5, 30), 0.02, 0.025]:
        res = solve_bispectral(label, PhysicalSetup(float(R)))
        assert radial_solution(res.E_total, res.A, res.setup,
                               label.lam)[1] == label.n
        assert _node_grid(res)[2].size == label.n
        if label.n == 1:
            r_node = R * exact_node(res) / 2.0
            assert abs(r_node - N * (l + 1) / 2.0) <= 2.0 * R * R


@pytest.mark.parametrize("label", SUPPORTED_LABELS, ids=str)
def test_small_seed_truncation_lands_on_the_same_roots(label, monkeypatch):
    # the n-th eigenvalue of the truncated recurrence only seeds the Newton
    # polish of A_n(p) on the dense path: at the p of cold solves and of
    # their one-center seeds, polishes from the 24-term truncation and from
    # the 48-term one agree in node count and to 8e-15 relative
    import twocenter.oracle as oracle

    cases = []
    for R in np.geomspace(0.05, 50.0, 10):
        setup = PhysicalSetup(float(R))
        cases += [(solve_bispectral(label, setup).p, 2.0 * R),
                  (p_from_energy(hydrogenic_seed(label, setup), setup),
                   2.0 * R)]
    small = [_radial_eigenvalue(p, b, label.lam, label.n)
             for p, b in cases]
    monkeypatch.setattr(oracle, "_N_ESTIMATE", 48)

    def index(A, rad, K):
        _, _, K, _, out = _settle(A, rad, 0, K // 2, _pivots)
        return K - out[3]

    for (A, dA, K, rad), (p, b) in zip(small, cases):
        A_ref, dA_ref, K_ref, rad_ref = _radial_eigenvalue(p, b, label.lam,
                                                           label.n)
        assert index(A, rad, K) == index(A_ref, rad_ref, K_ref) == label.n
        assert abs(A - A_ref) <= 8e-15 * max(1.0, abs(A_ref))
        assert abs(dA - dA_ref) <= 1e-12 * max(1.0, abs(dA_ref))


@pytest.mark.parametrize("label", SUPPORTED_LABELS, ids=str)
def test_short_radial_tail_start_lands_on_the_same_roots(label, monkeypatch):
    # the polish's first tail only starts the doubling that finds the
    # settled length: cold solves from a 16-term start and from a 128-term
    # one are identical to the last bit
    import twocenter.oracle as oracle

    setups = [PhysicalSetup(float(R)) for R in np.geomspace(0.05, 50.0, 10)]
    short = [solve_bispectral(label, setup) for setup in setups]
    monkeypatch.setattr(oracle, "_K_RADIAL", 128)
    for res, setup in zip(short, setups):
        ref = solve_bispectral(label, setup)
        assert (res.E_total, res.A, res.p) == (ref.E_total, ref.A, ref.p)


def _fraction_30_digits(A, p, b, lam, K):
    """k = 0 row of the radial recurrence with its ratio tail, at the
    working precision of mpmath."""
    kap = b / (2 * p)

    def c(k):
        return (b * (k + (lam + 1) / 2) / p + b - 2 * k * k - 2 * k * lam
                - 4 * k * p - 2 * k - (lam + 1) ** 2 - 2 * lam * p - p * p
                - 2 * p)

    r = 0
    for k in range(K, 0, -1):
        r = -(k - kap) * (k + lam - kap) / (A + c(k)
                                             + (k + 1) * (k + lam + 1) * r)
    return A + c(0) + (lam + 1) * r


@pytest.mark.parametrize("label,R,E", [
    (StateLabel(0, 0, 0, +1), 2.0, -1.20526842899),   # 1ssg
    (StateLabel(1, 0, 0, -1), 10.0, -0.20117150595),  # 3psu, one node
])
def test_radial_eigenvalue_matches_30_digit_fraction(label, R, E):
    import mpmath

    setup = PhysicalSetup(R)
    p, b = p_from_energy(E, setup), 2.0 * R
    A = _radial_eigenvalue(p, b, label.lam, label.n)[0]
    with mpmath.workdps(30):
        pm, bm = mpmath.mpf(p), mpmath.mpf(b)
        roots = [mpmath.findroot(
            lambda a: _fraction_30_digits(a, pm, bm, label.lam, K),
            (mpmath.mpf(A) - 1e-6, mpmath.mpf(A) + 1e-6), solver="anderson")
            for K in (300, 600)]
        # the tail is long enough for every one of the 30 digits
        assert abs(roots[1] - roots[0]) <= mpmath.mpf(10) ** -27
    assert A == pytest.approx(float(roots[1]), rel=1e-12, abs=0.0)


def test_angular_eigenvalue_smooth_at_the_3psu_root():
    # the bisection tolerance, not the basis size, used to set a ~1e-12
    # floor here: A_ang jumped by 1e-12 between neighbouring p
    r = solve_bispectral(StateLabel(1, 0, 0, -1), PhysicalSetup(10.0),
                         E_seed=-0.20117150595)
    assert abs(r.radial_mismatch) <= 1e-13
    A = [angular_eigenvalue(r.p + k * 1e-15, 0, 0, -1) for k in range(3)]
    assert np.all(np.abs(np.diff(A)) <= 1e-13)


def _second_differences(log_and_sign, h):
    """Values, first and second central differences of a channel given as
    (log|f|, sign f) on the stacked grids x - h, x, x + h."""
    log_f, sign = log_and_sign
    f = (sign * np.exp(log_f - np.max(log_f))).reshape(3, -1)
    return f[1], (f[2] - f[0]) / (2.0 * h), (f[2] - 2.0 * f[1] + f[0]) / h**2


@pytest.mark.parametrize("label,R", [
    (StateLabel(0, 0, 0, +1), 2.0), (StateLabel(0, 0, 1, -1), 6.0),
    (StateLabel(1, 0, 0, +1), 4.0), (StateLabel(0, 0, 2, +1), 50.0)])
def test_exact_channels_solve_the_channel_equations(label, R):
    setup, h = PhysicalSetup(R), 1e-4
    res = solve_bispectral(label, setup)
    p, A, lam = res.p, res.A, label.lam
    xi = np.linspace(1.05, 1.0 + 20.0 / p, 40)
    eta = np.linspace(-0.9, 0.9, 37)
    X, Y = exact_channels(res, np.concatenate([xi - h, xi, xi + h]),
                          np.concatenate([eta - h, eta, eta + h]))
    f, df, ddf = _second_differences(X, h)
    terms = [(xi * xi - 1.0) * ddf, 2.0 * (lam + 1) * xi * df,
             (A + 2.0 * R * xi - p * p * xi * xi) * f]
    assert np.max(np.abs(sum(terms))) <= 1e-6 * max(np.max(np.abs(t))
                                                    for t in terms)
    f, df, ddf = _second_differences(Y, h)
    terms = [(1.0 - eta * eta) * ddf, -2.0 * (lam + 1) * eta * df,
             (p * p * eta * eta - A) * f]
    assert np.max(np.abs(sum(terms))) <= 1e-6 * max(np.max(np.abs(t))
                                                    for t in terms)


def test_exact_node_matches_node_table():
    for row in energy_table("node"):
        res = solve_bispectral(row["label"], PhysicalSetup(row["R"]))
        error = exact_node(res) - row["xi0"]
        if (row["label"].parity, row["R"]) == (-1, 1.0):
            # the 3psu R = 1 cell is off by 3.2e-5, a fault of the table
            assert error == pytest.approx(3.2e-5, abs=1e-6)
        else:
            assert abs(error) <= 2e-6


@pytest.mark.parametrize("name", ["2ssg", "3psu"])
def test_exact_node_matches_brentq(name):
    # Newton steps on the series polynomial land where scipy's brentq does
    # on the same sign change, to 1e-15 in t = (xi - 1)/(xi + 1)
    label = label_from_designation(name)
    for R in np.geomspace(0.05, 50.0, 8):
        res = solve_bispectral(label, PhysicalSetup(float(R)))
        t, g, change = _node_grid(res)
        i = change[0]
        root = brentq(lambda u: np.polynomial.polynomial.polyval(u, g),
                      t[i], t[i + 1], xtol=1e-16, rtol=8.9e-16)
        xi0 = exact_node(res)
        assert abs((xi0 - 1.0) / (xi0 + 1.0) - root) <= 1e-15


# ----------------------------------------------------------------------
# work shared within one p: each reuse gives the bits of the unshared one


def _radial_terms(p, b, lam, k):
    """The radial rows c_k, alpha_k, gamma_k, dc_k and dgamma_k at the
    integers k, each as the array of its terms, summed one by one."""
    kap = b / (2.0 * p)
    return ([b * k / p, b * 0.5 * (lam + 1.0) / p + 0.0 * k, b + 0.0 * k,
             -2.0 * k * k, -2.0 * k * lam, -4.0 * k * p, -2.0 * k,
             -(lam + 1.0) ** 2 - 2.0 * lam * p - p * p - 2.0 * p + 0.0 * k],
            [(k + 1.0) * (k + lam + 1.0)],
            [k * k, k * (lam - 2.0 * kap), kap * (kap - lam) + 0.0 * k],
            [-b * k / (p * p), -b * 0.5 * (lam + 1.0) / (p * p) + 0.0 * k,
             -4.0 * k, -2.0 * lam - 2.0 * p - 2.0 + 0.0 * k],
            [kap / p * 2.0 * k, kap / p * (lam - 2.0 * kap) + 0.0 * k])


@pytest.mark.parametrize("p,b,lam", [(0.0033, 0.02, 1), (0.46, 1.0, 0),
                                     (2.3, 12.0, 2), (25.5, 100.0, 0),
                                     (500.5, 2000.0, 2)])
def test_radial_rows_match_their_terms(p, b, lam):
    # the rows as polynomials in k equal the sum of their terms, within
    # 8 eps of the sum of the terms' sizes, on a table grown in two steps
    k = np.arange(0.0, 2048.0)
    rad = _Radial(p, b, lam)
    rad.rows(100)
    c, alpha, gamma, dc, dalpha, dgamma = map(np.array, rad.rows(2048))
    assert not dalpha.any()
    eps = np.finfo(float).eps
    for got, terms in zip((c, alpha, gamma, dc, dgamma),
                          _radial_terms(p, b, lam, k)):
        size = sum(np.abs(t) for t in terms)
        assert np.all(np.abs(got - sum(terms)) <= 8.0 * eps * size)


class _FreshRadial(_Radial):
    """A radial table that builds every request anew at its exact length,
    as each tail of the continued fraction once built its own rows; the
    tail start and its conventions are _Radial's."""

    def rows(self, n):
        return self.build(0, n)


class _FreshAngular(_Table):
    """An angular table that builds every request anew at its exact
    length, as each tail of the fraction once built its own matrix: the
    tridiagonal of eta^2 truncated to n rows, its upper diagonal padded
    with a last 0 and its lower one starting at 0."""

    def __init__(self, p, lam, parity):
        super().__init__(p, None)
        self.lam, self.parity = lam, parity

    def rows(self, n):
        p, (_, L, s) = self.p, _legendre_terms(self.lam, self.parity, n)
        s_diag, s_off = s[0], np.append(s[1, :-1], 0.0)
        c, e, dc, de = (a.tolist() for a in (
            L - p * p * s_diag, -p * p * s_off, -2.0 * p * s_diag,
            -2.0 * p * s_off))
        return c, e, [0.0] + e[:-1], dc, de, [0.0] + de[:-1]


_SHARED_CASES = [("1ssg", 2.0), ("2ppu", 0.1), ("3psu", 50.0),
                 ("3ddg", 6.0), ("2ssg", 0.02)]


@pytest.mark.parametrize("name,R", _SHARED_CASES)
def test_fraction_on_a_shared_table_matches_fresh_tables(name, R):
    # one table grown in place across tails of 16 to 1024 terms, at the
    # root and off it, gives the fraction, its slopes and its ratios of a
    # table built anew for every tail, and holds the floats of one build
    label = label_from_designation(name)
    res = solve_bispectral(label, PhysicalSetup(R))
    b = 2.0 * R
    shared = _Radial(res.p, b, label.lam)
    for A in (res.A, res.A + 0.37, res.A - 2.5):
        for K in (16, 32, 64, 128, 256, 512, 1024):
            F, slopes, r = _fraction(A, shared, K)
            assert (F, slopes, r) == _fraction(
                A, _FreshRadial(res.p, b, label.lam), K)
            assert (F, slopes, r) == _fraction(A, _Radial(res.p, b,
                                                          label.lam), K)
    n = len(shared.cols[0])
    assert n >= 2049
    assert shared.cols == _FreshRadial(res.p, b, label.lam).rows(n)


@pytest.mark.parametrize("name,R", _SHARED_CASES)
def test_angular_fraction_on_a_longer_table_matches_exact_tables(name, R):
    # the angular fraction on a table grown past its tail, whose upper
    # diagonal at the tail's last row is the true one, equals the fraction
    # on tables of the exact length, whose upper diagonal ends in a padded
    # 0, for every twist row
    label = label_from_designation(name)
    p = solve_bispectral(label, PhysicalSetup(R)).p
    A0 = angular_eigenvalue(p, label.lam, label.m, label.parity)
    for A in (A0, A0 + 0.37, A0 - 2.5):
        for K in (4, 12, 24, 48):
            for j in {0, 1, K // 2, K - 2, K - 1}:
                shared = _angular_table(p, label.lam, label.parity)
                shared.rows(K)
                shared.rows(4 * K)
                F, slopes, below, v = _angular_fraction(A, shared, j, K)
                F2, slopes2, below2, v2 = _angular_fraction(
                    A, _FreshAngular(p, label.lam, label.parity), j, K)
                assert (F, slopes, below) == (F2, slopes2, below2)
                assert v.tobytes() == v2.tobytes()


@pytest.mark.parametrize("name,R", [("1ssg", 60.0), ("2ppu", 400.0),
                                    ("3ddg", 1000.0), ("3psu", 400.0)])
def test_each_angular_row_is_built_once(name, R, monkeypatch):
    # at large p the angular tail doubles past the truncation's rows; the
    # solve asks its table's builder only for rows the table does not
    # hold yet: the ranges [lo, hi) tile [0, n) in order, one per tail
    # past the rows so far, and a table grown in those steps holds the
    # floats of one build of n rows
    import twocenter.oracle as oracle

    label = label_from_designation(name)
    p = solve_bispectral(label, PhysicalSetup(R)).p
    build, ranges = oracle._angular_rows, []

    def counted(p, lam, parity, lo, hi):
        ranges.append((lo, hi))
        return build(p, lam, parity, lo, hi)

    monkeypatch.setattr(oracle, "_angular_rows", counted)
    K = _angular(p, label.lam, label.m, label.parity)[2]
    assert len(ranges) >= 2 and ranges[-1][1] >= K
    assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
    assert all(lo < hi for lo, hi in ranges)
    grown = _angular_table(p, label.lam, label.parity)
    for _, hi in ranges:
        grown.rows(hi)
    assert list(grown.cols) == build(p, label.lam, label.parity, 0,
                                     ranges[-1][1])


@pytest.mark.parametrize("name,R", _SHARED_CASES)
def test_value_only_check_matches_the_full_sweep(name, R):
    # the tail check's value-only sweep gives the bits of _sweep's ratio,
    # on the radial rows and on both angular directions, and the polish's
    # sweep without ratios gives the bits of _sweep's on the radial rows
    label = label_from_designation(name)
    res = solve_bispectral(label, PhysicalSetup(R))
    rad = _Radial(res.p, 2.0 * R, label.lam)
    c, alpha, gamma, dc, dalpha, dgamma = rad.rows(257)
    ca, e, lower, dca, de, dlower = _angular_table(
        res.p, label.lam, label.parity).rows(64)
    for A in (res.A, res.A + 0.37, res.A - 2.5):
        for K in (8, 16, 64, 256):
            ks = range(K, 0, -1)
            assert _ratio(A, c, alpha, gamma, ks) == _sweep(
                A, c, alpha, gamma, dc, dalpha, dgamma, ks)[0]
            x = rad.tail(K + 1, A)
            assert _pivots(A, c, alpha, gamma, dc, dalpha, dgamma, ks,
                           x) == _sweep(A, c, alpha, gamma, dc, dalpha,
                                        dgamma, ks, x)[:4]
        for j in (0, 3, 20):
            up, down = range(63, j, -1), range(j)
            assert _ratio(A, ca, e, lower, up) == _sweep(
                A, ca, e, lower, dca, de, dlower, up)[0]
            assert _ratio(A, ca, lower, e, down) == _sweep(
                A, ca, lower, e, dca, dlower, de, down)[0]


@pytest.mark.parametrize("label", SUPPORTED_LABELS, ids=str)
def test_carried_radial_tail_lands_on_the_same_roots(label, monkeypatch):
    # each p-step's polish starts from the tail length the last one
    # settled on; find_root with every polish restarted at _K_RADIAL
    # gives the same E, A, eigenvector, tail length and p-steps
    import twocenter.oracle as oracle

    setups = [PhysicalSetup(float(R)) for R in np.geomspace(0.02, 50.0, 10)]
    seeds = [hydrogenic_seed(label, setup) for setup in setups]
    carried = [find_root(label, setup, E)
               for setup, E in zip(setups, seeds)]
    polish = oracle._radial_eigenvalue
    monkeypatch.setattr(oracle, "_radial_eigenvalue",
                        lambda p, b, lam, n, K, A: polish(
                            p, b, lam, n, oracle._K_RADIAL, A))
    for got, setup, E in zip(carried, setups, seeds):
        E_r, A_r, v_r, K_r, steps_r = find_root(label, setup, E)
        E_c, A_c, v_c, K_c, steps_c = got
        assert (E_c, A_c, K_c, steps_c) == (E_r, A_r, K_r, steps_r)
        assert v_c.tobytes() == v_r.tobytes()


@pytest.mark.parametrize("label", SUPPORTED_LABELS, ids=str)
def test_kept_eigenvector_matches_a_fresh_angular_solve(label, monkeypatch):
    # the result keeps the eigenvector of find_root's last _angular call,
    # at p(E) from the warm start it was given: that call run again gives
    # its bytes.  A cold solve at p(E) lands within the polish's stop: A
    # within 4 ulp, and exact_channels on its eigenvector give X to the
    # bit (X reads no eigenvector) and Y, on the kept Y's scale, within
    # 64 eps of the kept Y's largest value on the grid
    import twocenter.oracle as oracle

    angular, calls = oracle._angular, []

    def recorded(*args):
        calls.append(args)
        return angular(*args)

    monkeypatch.setattr(oracle, "_angular", recorded)
    for R in (0.05, 1.0, 6.0, 50.0):
        res = solve_bispectral(label, PhysicalSetup(R))
        assert calls[-1][0] == res.p and calls[-1][4] is not None
        v = angular(*calls[-1])[3]
        assert res.eigenvector.tobytes() == v.tobytes()
        assert res.angular_basis_size == v.size
        A, _, _, v_cold = angular(res.p, label.lam, label.m, label.parity)
        assert abs(A - res.A) <= 4.0 * math.ulp(max(1.0, abs(A)))
        xi = np.linspace(1.0, 1.0 + 20.0 / res.p, 9)
        eta = np.linspace(-1.0, 1.0, 11)
        kept = exact_channels(res, xi, eta)
        cold = exact_channels(dataclasses.replace(res, eigenvector=v_cold),
                              xi, eta)
        assert kept[0][0].tobytes() == cold[0][0].tobytes()
        assert kept[0][1].tobytes() == cold[0][1].tobytes()
        Y_kept, Y_cold = (sign * np.exp(log) for log, sign in (kept[1],
                                                              cold[1]))
        top = np.argmax(np.abs(Y_kept))
        Y_cold *= Y_kept[top] / Y_cold[top]
        assert (np.max(np.abs(Y_kept - Y_cold))
                <= 64.0 * np.finfo(float).eps * abs(Y_kept[top]))


@pytest.mark.parametrize("label", SUPPORTED_LABELS, ids=str)
def test_warm_angular_start_lands_on_the_cold_root(label, monkeypatch):
    # at every p-step after the first of cold solves from R = 0.01 to
    # 1000, the warm _angular's Sturm count puts its A on A_m (m + 1
    # eigenvalues above A just below it, m just above), and A lies within
    # _settled's stop of a cold solve at the same p.  Most warm starts run
    # no dense estimate; one that does (a long p-step) returns the cold
    # solve's bytes, as a warm start on A_(m+1) does
    import twocenter.oracle as oracle

    angular, warm = oracle._angular, []

    def recorded(*args):
        if args[4] is not None:
            warm.append(args)
        return angular(*args)

    monkeypatch.setattr(oracle, "_angular", recorded)
    for R in np.geomspace(0.01, 1000.0, 13):
        solve_bispectral(label, PhysicalSetup(float(R)))
    assert len(warm) > 13
    eigh, dense = np.linalg.eigh, []

    def counted_eigh(M):
        dense.append(M.shape)
        return eigh(M)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    lam, m, parity, cold_starts = label.lam, label.m, label.parity, 0
    for args in warm:
        p = args[0]
        A, dA, K, v = angular(*args)
        fell_back = bool(dense)
        j, tol = int(np.argmax(np.abs(v))), 2e-12 * max(1.0, abs(A))
        for shift, above in ((-tol, m + 1), (tol, m)):
            F, _, below, _ = _angular_fraction(
                A + shift, _angular_table(p, lam, parity), j, K // 2)
            assert below + (F < 0.0) == above
        cold = angular(p, lam, m, parity)
        dense.clear()
        assert abs(A - cold[0]) <= tol
        if fell_back:
            assert (A, dA, K) == cold[:3] and v.tobytes() == cold[3].tobytes()
        cold_starts += fell_back
    assert cold_starts <= len(warm) // 4
    p, other = warm[-1][0], angular(warm[-1][0], lam, m + 1, parity)
    dense.clear()
    got = angular(p, lam, m, parity, (other[0], other[3]))
    assert len(dense) == 1
    cold = angular(p, lam, m, parity)
    assert got[:3] == cold[:3] and got[3].tobytes() == cold[3].tobytes()


def test_each_p_step_builds_its_tables_once(monkeypatch):
    # over criterion 7's 21 reference-seeded solves and the default 1ssg
    # probe toward the united atom: every p-step starts one radial table,
    # at 2K + 1 rows for the tail length K it carries, and extends it only
    # for a tail settled past them; each solve's verification starts one
    # table of its own at p(E).  Rows are computed once, radial and
    # angular alike, and no dense estimate runs
    import twocenter.oracle as oracle
    import twocenter.united_atom as united_atom

    GS, US = StateLabel(0, 0, 0, +1), StateLabel(0, 0, 0, -1)
    radial, angular, tables, polishes = [], [], [], []
    recurrence, angular_rows = oracle._recurrence, oracle._angular_rows

    def counted_recurrence(p, b, lam, lo, hi):
        radial.append((p, lo, hi))
        return recurrence(p, b, lam, lo, hi)

    def counted_rows(p, lam, parity, lo, hi):
        angular.append(((p, lam, parity), lo, hi))
        return angular_rows(p, lam, parity, lo, hi)

    def no_eigvals(M):
        raise AssertionError("a dense radial estimate ran")

    def tables_started_in(fn):
        def wrapped(*args, **kwargs):
            first = len(radial)
            out = fn(*args, **kwargs)
            tables.append(sum(lo == 0 for _, lo, _ in radial[first:]))
            return out
        return wrapped

    polish = oracle._radial_eigenvalue

    def recorded_polish(p, b, lam, n, K, A):
        first = len(radial)
        out = polish(p, b, lam, n, K, A)
        polishes.append((K, out[2], [row[1:] for row in radial[first:]]))
        return out

    monkeypatch.setattr(oracle, "_recurrence", counted_recurrence)
    monkeypatch.setattr(oracle, "_angular_rows", counted_rows)
    monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
    monkeypatch.setattr(oracle, "_radial_eigenvalue",
                        tables_started_in(recorded_polish))
    monkeypatch.setattr(oracle, "radial_solution",
                        tables_started_in(oracle.radial_solution))

    refs = {(row["label"], row["R"]): row["E"]
            for which in ("1ssg", "2psu", "lam12", "node")
            for row in energy_table(which)}
    points = [(GS, R) for R in (1.0, 2.0, 6.0, 10.0, 50.0)]
    points += [(US, R) for R in (1.0, 4.0, 10.0, 20.0)]
    points += [(row["label"], row["R"]) for row in energy_table("lam12")
               if row["R"] in (4.0, 6.0, 10.0) and row["neg_explicit"]]
    points += [(row["label"], row["R"]) for row in energy_table("node")
               if row["R"] in (4.0, 10.0)]
    assert len(points) == 21
    results = []

    def recorded(*args, **kwargs):
        results.append(solve_bispectral(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(united_atom, "solve_bispectral", recorded)
    for label, R in points:
        recorded(label, PhysicalSetup(R), E_seed=refs[(label, R)])
    united_atom.limit_convergence_probe(GS)
    assert len(results) == 26
    steps = sum(res.bracket_iterations for res in results)

    # one table per p-step and one per radial_solution, and nothing else
    assert len(polishes) == steps
    assert tables == [1] * len(tables)
    assert len(tables) == steps + len(results)
    # a p-step builds rows 0..2K once, then one extension per doubling of
    # the tail past them
    for K, K_settled, builds in polishes:
        assert builds[0] == (0, 2 * K + 1)
        assert len(builds) == 1 + max(0, (K_settled // (2 * K)).bit_length()
                                      - 1)
    # a table's rows are computed once: each extension starts where the
    # rows so far end
    end = {}
    for p, lo, hi in radial:
        assert lo == 0 or lo == end[p]
        end[p] = hi
    end = {}
    for key, lo, hi in angular:
        assert lo == end.get(key, 0) < hi
        end[key] = hi


# ----------------------------------------------------------------------
# warm radial starts checked by the pivot count


@pytest.mark.parametrize("label", SUPPORTED_LABELS, ids=str)
def test_settled_radial_sweep_has_n_non_negative_pivots(label, monkeypatch):
    # at every p-step of cold solves from R = 0.01 to 1000, the sweep over
    # the settled tail at A_n has exactly n non-negative pivots, and the
    # series there has n nodes: the count that checks each warm start
    # picks the root the node count verifies.  The same holds at each
    # solve's verification point, A_ang at p(E), on a fresh table there
    import twocenter.oracle as oracle

    polish, verify, seen, verified = (oracle._radial_eigenvalue,
                                      oracle.radial_solution, [], [])

    def checked(p, b, lam, n, K, A):
        A_n, dA_n, K_n, rad = polish(p, b, lam, n, K, A)
        below = _pivots(A_n, *rad.rows(K_n + 1), range(K_n, 0, -1),
                        rad.tail(K_n + 1, A_n))[3]
        seen.append((K_n - below, _series_nodes(A_n, p, 0.5 * b, lam)))
        return A_n, dA_n, K_n, rad

    def checked_verification(E, A, setup, lam, K):
        defect, index = verify(E, A, setup, lam, K)
        verified.append((index, _series_nodes(A, p_from_energy(E, setup),
                                              setup.R, lam)))
        return defect, index

    monkeypatch.setattr(oracle, "_radial_eigenvalue", checked)
    monkeypatch.setattr(oracle, "radial_solution", checked_verification)
    for R in np.geomspace(0.01, 1000.0, 31):
        solve_bispectral(label, PhysicalSetup(float(R)))
    assert len(seen) > 31
    assert set(seen) == {(label.n, label.n)}
    assert len(verified) == 31
    assert set(verified) == {(label.n, label.n)}


@pytest.mark.parametrize("label", SUPPORTED_LABELS, ids=str)
def test_start_on_another_root_falls_back_to_one_estimate(label,
                                                          monkeypatch):
    # a first radial start forced onto the neighbouring root A_(1-n)
    # settles there with the wrong pivot count; the polish runs again
    # from the dense estimate, once, and the solve returns the unforced
    # E, A and p
    import twocenter.oracle as oracle

    polish, estimate = oracle._radial_eigenvalue, oracle._estimate
    for R in (1.0, 10.0):
        setup = PhysicalSetup(R)
        E_seed = solve_bispectral(label, setup).E_total
        ref = solve_bispectral(label, setup, E_seed)
        p = p_from_energy(E_seed, setup)
        other = polish(p, 2.0 * R, label.lam, 1 - label.n)[0]
        starts, estimates = [], []

        def forced(p, b, lam, n, K, A):
            starts.append(A)
            return polish(p, b, lam, n, K, other if len(starts) == 1 else A)

        def counted(rad, n):
            estimates.append(n)
            return estimate(rad, n)

        with monkeypatch.context() as m:
            m.setattr(oracle, "_radial_eigenvalue", forced)
            m.setattr(oracle, "_estimate", counted)
            res = solve_bispectral(label, setup, E_seed)
        assert estimates == [label.n]
        assert (res.E_total, res.A, res.p) == (ref.E_total, ref.A, ref.p)


@pytest.mark.parametrize("name,R", [("1ssg", 0.03125), ("2ppu", 0.1),
                                    ("3psu", 1.0), ("3ddg", 6.0),
                                    ("2ssg", 10.0)])
def test_tail_start_is_near_a_long_sweep(name, R):
    # where the radial sweeps start from it (k >= 64 p), the ratios'
    # large-k expansion is within 5 (max(1, p)/k)^(3/2) of the r_k that a
    # 4096-term sweep from 0 gives at the oracle's root
    label = label_from_designation(name)
    res = solve_bispectral(label, PhysicalSetup(R))
    rad = _Radial(res.p, 2.0 * R, label.lam)
    c, alpha, gamma, dc, dalpha, dgamma = rad.rows(4097)
    xs = _sweep(res.A, c, alpha, gamma, dc, dalpha, dgamma,
                range(4096, 0, -1))[4]
    ks = [k for k in (64, 128, 256, 512, 1024) if k >= 64.0 * res.p]
    assert ks
    for k in ks:
        r_k = xs[4096 - k]
        assert (abs(rad.tail(k, res.A) - r_k)
                <= 5.0 * (max(1.0, res.p) / k) ** 1.5)


@pytest.mark.parametrize("label", SUPPORTED_LABELS, ids=str)
def test_five_term_tail_start_is_near_a_long_sweep(label):
    # where the start takes d3..d5 (k >= 16 p and k p >= 4) it is within
    # 8 (max(1, p)/k)^3 / min(1, p)^2 of the r_k that an 8192-term sweep
    # from 0 gives at the oracle's root, the order of the first term it
    # drops (4fdu at R = 1 reaches 4.3 of it); from k = 16 p to k p = 4
    # it is the two-term start to the bit, and below k = 16 p it is 0.
    # Plugged into the recurrence, alpha_k r_(k+1) r_k + (A + c_k) r_k +
    # gamma_k, the start leaves a residual of O(k^(-3/2)), which a wrong
    # d3..d5 raises to O(k^(-1)) at least: where k = 1024 is well inside
    # the five-term region (k >= 16 p, k p >= 16), it falls by 4 or more
    # from k = 1024 to 4096, past the rounding of its terms
    for R in (0.03125, 0.5, 1.0, 6.0, 10.0, 50.0):
        res = solve_bispectral(label, PhysicalSetup(R))
        p, A, b = res.p, res.A, 2.0 * R
        rad = _Radial(p, b, label.lam)
        xs = _sweep(A, *rad.rows(8193), range(8192, 0, -1))[4]
        c, alpha, gamma = rad.cols[:3]
        terms = [(alpha[k] * rad.tail(k + 1, A) * rad.tail(k, A),
                  (A + c[k]) * rad.tail(k, A), gamma[k])
                 for k in (1024, 4096)]
        if 16.0 * p <= 1024.0 and 1024.0 * p >= 16.0:
            big, small = (abs(sum(t)) for t in terms)
            noise = 8.0 * np.finfo(float).eps * sum(map(abs, terms[1]))
            assert small <= 0.25 * big + noise
        five = 0
        for k in (1 << j for j in range(11)):
            two = 1.0 - 2.0 * math.sqrt(p / k) + (2.0 * p - 0.5 * b / p
                                                  - 0.75) / k
            if k < 16.0 * p:
                assert rad.tail(k, A) == 0.0
            elif k * p < 4.0:
                assert rad.tail(k, A) == two
            else:
                five += 1
                bound = (max(1.0, p) / k) ** 3 / min(1.0, p) ** 2
                assert abs(rad.tail(k, A) - xs[8192 - k]) <= 8.0 * bound
        assert five
