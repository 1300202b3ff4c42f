import numpy as np
import pytest
from scipy.special import obl_cv

from twocenter.model import PhysicalSetup, StateLabel, p_from_energy
from twocenter.oracle import (RadialRootError, _radial_eigenvalue,
                              angular_eigenvalue, find_root, hydrogenic_seed,
                              radial_mismatch, radial_solution,
                              solve_bispectral)


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
    # the mismatch changes sign across the tabulated ground-state energy
    setup = PhysicalSetup(2.0)
    A = 0.8117295846248
    lo = radial_solution(-1.20526842899 - 1e-7, A, setup, 0)[0]
    hi = radial_solution(-1.20526842899 + 1e-7, A, setup, 0)[0]
    assert lo * hi < 0.0


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
    signs = np.sign([radial_solution(E, A, setup, 0, count_nodes=False)[0]
                     for E in Es])
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
    E, _ = find_root(StateLabel(0, 0, 0, +1), setup, E1, window=2e-3)
    assert E == pytest.approx(-1.0921697666, abs=1e-6)


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
    A = _radial_eigenvalue(p, b, label.lam, label.n)
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
