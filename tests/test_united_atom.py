import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, lpmv

from twocenter.model import StateLabel
from twocenter.united_atom import limit_convergence_probe, limit_form


@dataclass(frozen=True)
class HydrogenicOrbital:
    """Closed-form one-electron orbital of a Z-charged nucleus."""

    n: int
    l: int
    m: int
    Z: float

    @property
    def energy(self) -> float:
        """Total energy -Z^2/n^2 in Ry."""
        return -(self.Z / self.n) ** 2

    def radial(self, r):
        """Normalized radial factor R_nl(r), r in bohr."""
        r = np.asarray(r, dtype=float)
        n, l, Z = self.n, self.l, self.Z
        rho = 2.0 * Z * r / n
        norm = math.sqrt((2.0 * Z / n) ** 3
                         * math.factorial(n - l - 1)
                         / (2.0 * n * math.factorial(n + l)))
        with np.errstate(under="ignore"):
            out = norm * np.exp(-0.5 * rho) * rho**l \
                * eval_genlaguerre(n - l - 1, 2 * l + 1, rho)
        return out if out.ndim else float(out)

    def angular(self, theta):
        """Theta factor of the (unnormalized in phi) spherical harmonic."""
        theta = np.asarray(theta, dtype=float)
        l, m = self.l, self.m
        norm = math.sqrt((2 * l + 1) / (4.0 * math.pi)
                         * math.factorial(l - m) / math.factorial(l + m))
        out = norm * lpmv(m, l, np.cos(theta))
        return out if out.ndim else float(out)

    def __call__(self, r, theta, phi):
        return self.radial(r) * self.angular(theta) \
            * np.exp(1j * self.m * np.asarray(phi, dtype=float))


def hydrogenic_reference(n: int, l: int, m: int, Z: float = 2.0) -> HydrogenicOrbital:
    """Closed-form orbital handle with E = -Z^2/n^2 Ry."""
    if not (0 <= m <= l < n):
        raise ValueError(f"bad quantum numbers (n,l,m)=({n},{l},{m})")
    return HydrogenicOrbital(n, l, m, Z)


def test_hydrogenic_energies():
    assert hydrogenic_reference(1, 0, 0).energy == pytest.approx(-4.0)
    assert hydrogenic_reference(3, 2, 1).energy == pytest.approx(-4.0 / 9.0)


def test_hydrogenic_angular_shapes():
    orb = hydrogenic_reference(2, 1, 0)
    thetas = np.array([0.3, 1.0, 2.2])
    ratio = orb.angular(thetas) / np.cos(thetas)
    assert np.max(np.abs(ratio - ratio[0])) <= 1e-14 * abs(ratio[0])


def test_hydrogenic_radial_normalized():
    orb = hydrogenic_reference(2, 0, 0, Z=2.0)
    r = np.linspace(0.0, 30.0, 20001)
    val = np.trapezoid(orb.radial(r) ** 2 * r * r, r)
    assert val == pytest.approx(1.0, rel=1e-7)


def test_hydrogenic_quantum_number_validation():
    with pytest.raises(ValueError):
        hydrogenic_reference(2, 2, 0)
    with pytest.raises(ValueError):
        hydrogenic_reference(2, 1, -1)


def test_limit_forms_follow_table():
    f = limit_form(StateLabel(1, 0, 0, +1))
    assert f.orbital == (2, 0, 0)
    assert f.constant == Fraction(2)
    f = limit_form(StateLabel(0, 0, 2, -1))
    assert f.orbital == (4, 3, 2)
    assert f.constant is None
    f = limit_form(StateLabel(0, 1, 0, -1))
    assert f.constant == Fraction(3, 5)
    assert f.orbital == (4, 3, 0)
    with pytest.raises(KeyError):
        limit_form(StateLabel(3, 2, 1, +1))


def test_probe_ground_state_ratio():
    probe = limit_convergence_probe(StateLabel(0, 0, 0, +1),
                                    R_sequence=[0.5, 0.25])
    # R/p -> principal quantum number 1, errors shrinking with R
    errs = probe["R_over_p_errors"]
    assert probe["n_atomic"] == 1
    assert errs[-1] < errs[0] < 0.1


def test_probe_default_sequence_small_p():
    # the default sequence R = 0.5 ... 0.03125 reaches p ~ 0.03, where the
    # radial expansion converges slowest; energies from an independent
    # ODE-shooting solve of the same channel equations
    probe = limit_convergence_probe(StateLabel(0, 0, 0, +1))
    ref = [0.5300240000534546, 4.202885779033309, 12.0646464824799,
           28.01834823069355, 60.004889381287704]
    assert [pt.R for pt in probe["points"]] == [0.5 * 2.0**-k
                                               for k in range(5)]
    for pt, E in zip(probe["points"], ref):
        assert pt.E_total == pytest.approx(E, abs=1e-10)
    errs = probe["R_over_p_errors"]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 0.01


def test_probe_odd_state_separation_constant():
    probe = limit_convergence_probe(StateLabel(0, 0, 0, -1),
                                    R_sequence=[0.5, 0.25])
    A_vals = [pt.A for pt in probe["points"]]
    assert abs(A_vals[-1] + 2.0) < abs(A_vals[0] + 2.0) < 0.1


def test_probe_delta_state_energy():
    probe = limit_convergence_probe(StateLabel(0, 0, 2, +1),
                                    R_sequence=[0.5, 0.2, 0.1])
    errs = probe["E_prime_errors"]
    assert errs[-1] < errs[0]
    assert errs[-1] < 5e-3
    assert probe["E_prime_limit"] == pytest.approx(-4.0 / 9.0)


def test_probe_needs_a_point():
    # the limit's charge Z1 + Z2 is read from the solved setups
    with pytest.raises(ValueError, match="at least one R"):
        limit_convergence_probe(StateLabel(0, 0, 0, +1), R_sequence=[])


def test_limit_nodal_structure_counts():
    # the label algebra reproduces the (n-l-1, l-m) one-center node counts
    for lab in (StateLabel(0, 0, 0, +1), StateLabel(1, 0, 0, -1),
                StateLabel(0, 1, 0, +1), StateLabel(0, 0, 2, -1)):
        n_hat, l, m = limit_form(lab).orbital
        assert lab.n == n_hat - l - 1          # radial node count
        assert 2 * lab.m + lab.sigma == l - m  # polar node count


def test_limit_nodal_structure_numeric():
    # eta nodes of the limiting trial shape: setting the shape parameters
    # to their limiting values leaves sinh(eps eta)/Q pattern with exactly
    # sigma + 2m polar zeros in (-1, 1)
    from twocenter.model import PhysicalSetup
    from twocenter.trial import TrialParams, eval_Y, eval_X

    lab = StateLabel(0, 0, 1, -1)
    pars = TrialParams(alpha=1e-6, gamma=1.0, a1=1e-4, a2=0.0, b2=0.0,
                       b3=0.0, p=0.05)
    eta = np.linspace(-0.999, 0.999, 2001)
    vals = eval_Y(pars, lab, eta)
    signs = np.sign(vals)
    crossings = int(np.sum(signs[:-1] * signs[1:] < 0))
    assert crossings == 1  # the kinematic midplane node only
    # xi channel of a single-node state keeps its single node
    lab2 = StateLabel(1, 0, 0, +1)
    pars2 = pars.replace(xi0=3.0)
    xs = np.linspace(1.0, 40.0, 4001)
    vx = eval_X(pars2, lab2, PhysicalSetup(0.05), xs)
    signs = np.sign(vx[vx != 0.0])
    assert int(np.sum(signs[:-1] * signs[1:] < 0)) == 1
