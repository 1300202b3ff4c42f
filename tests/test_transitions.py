import numpy as np
import pytest

from twocenter.model import StateLabel
from twocenter.transitions import (TransitionOrderingError,
                                   dipole_matrix_element,
                                   magnetic_matrix_element,
                                   oscillator_strength,
                                   oscillator_strength_B1,
                                   oscillator_strength_E1,
                                   oscillator_strength_E2,
                                   quadrupole_matrix_element)

GS = StateLabel(0, 0, 0, +1)


def test_dipole_selection_rules(bank):
    g = bank.get(GS, 2.0)
    # |dLambda| = 2 is dipole-forbidden
    rec = oscillator_strength_E1(g, bank.get(StateLabel(0, 0, 2, +1), 2.0))
    assert rec.forbidden and rec.f == 0.0
    # parity-conserving dipole is forbidden
    rec = oscillator_strength_E1(g, bank.get(StateLabel(1, 0, 0, +1), 2.0))
    assert rec.forbidden and rec.f == 0.0


def test_magnetic_selection_rules(bank):
    g = bank.get(GS, 2.0)
    # parity must be conserved: the even pi state is magnetically dark
    assert magnetic_matrix_element(g, bank.get(StateLabel(0, 0, 1, +1),
                                               2.0)) == 0.0


def test_quadrupole_selection_rules(bank):
    g = bank.get(GS, 2.0)
    # parity flip is quadrupole-forbidden
    assert quadrupole_matrix_element(g, bank.get(StateLabel(0, 0, 0, -1),
                                                 2.0)) == 0.0


def test_ordering_error(bank):
    g = bank.get(GS, 2.0)
    u = bank.get(StateLabel(0, 0, 1, +1), 2.0)
    with pytest.raises(TransitionOrderingError):
        oscillator_strength_E1(u, g)


@pytest.mark.parametrize("element, final", [
    (dipole_matrix_element, StateLabel(0, 0, 1, +1)),
    (quadrupole_matrix_element, StateLabel(1, 0, 0, +1)),
], ids=["dipole", "quadrupole"])
def test_dipole_hermitian_symmetry(bank, element, final):
    g = bank.get(GS, 4.0)
    f = bank.get(final, 4.0)
    assert element(g, f) == pytest.approx(element(f, g), rel=1e-12)


def test_magnetic_strength_example(bank):
    g = bank.get(GS, 2.0, corrected=True)
    d = bank.get(StateLabel(0, 0, 1, -1), 2.0, corrected=True)
    rec = oscillator_strength_B1(g, d)
    assert rec.f == pytest.approx(1.6661760e-7, rel=5e-6)
    assert rec.G == 1  # the magnetic sum over members is already inside S


def test_quadrupole_strength_example(bank):
    g = bank.get(GS, 2.0, corrected=True)
    d = bank.get(StateLabel(0, 0, 2, +1), 2.0, corrected=True)
    rec = oscillator_strength_E2(g, d)
    assert rec.G == 2
    assert rec.f == pytest.approx(1.5573573e-6, rel=5e-6)


def test_normalization_invariance(bank):
    import dataclasses

    from twocenter.states import SolvedState

    class EtaTripled(SolvedState):
        def eta_arrays(self, nodes):
            ca = super().eta_arrays(nodes)
            return dataclasses.replace(ca, vals=3.0 * ca.vals,
                                       dvals=3.0 * ca.dvals)

    g = bank.get(GS, 2.0)
    f = bank.get(StateLabel(0, 0, 1, +1), 2.0)
    f_scaled = EtaTripled(f.label, f.setup, f.params, f.energy)
    r1 = oscillator_strength_E1(g, f)
    r2 = oscillator_strength_E1(g, f_scaled)
    assert r2.f == pytest.approx(r1.f, rel=1e-11)


def test_phase_factor_never_sampled(bank):
    # the azimuthal integral is analytic: no phi ever enters the machinery;
    # the magnitude of the full wavefunction is phi-independent
    from twocenter.trial import eval_psi

    u = bank.get(StateLabel(0, 0, 1, +1), 2.0)
    mags = [abs(eval_psi(u.params, u.label, u.setup, 1.3, 0.4, phi))
            for phi in np.linspace(0, 2 * np.pi, 7)]
    assert max(mags) - min(mags) <= 1e-15 * max(mags)


def test_one_center_limit_pins_conventions(bank):
    # R -> 0: the summed dipole strength to both n=2 final orbitals flows
    # to the closed-form one-electron value 2^13/3^9 (Z-independent)
    g = bank.get(GS, 0.1)
    f_sigma = oscillator_strength_E1(g, bank.get(StateLabel(0, 0, 0, -1),
                                                 0.1)).f
    f_pi = oscillator_strength_E1(g, bank.get(StateLabel(0, 0, 1, +1),
                                              0.1)).f
    assert f_sigma + f_pi == pytest.approx(8192.0 / 19683.0, abs=0.02)
    # equal sharing among the three members: the pi pair carries ~ 2/3
    assert f_pi / (f_sigma + f_pi) == pytest.approx(2.0 / 3.0, abs=0.02)


def test_magnetic_suppressed_toward_one_center(bank):
    # dl = 2 kills the magnetic element in the one-center limit
    f1 = oscillator_strength_B1(bank.get(GS, 1.0, corrected=True),
                                bank.get(StateLabel(0, 0, 1, -1), 1.0,
                                         corrected=True)).f
    f2 = oscillator_strength_B1(bank.get(GS, 2.0, corrected=True),
                                bank.get(StateLabel(0, 0, 1, -1), 2.0,
                                         corrected=True)).f
    assert f1 < 0.1 * f2


def test_magnitude_hierarchy_at_equilibrium(bank):
    g = bank.get(GS, 2.0, corrected=True)
    e1 = oscillator_strength_E1(g, bank.get(StateLabel(0, 0, 1, +1), 2.0,
                                            corrected=True)).f
    b1 = oscillator_strength_B1(g, bank.get(StateLabel(0, 0, 1, -1), 2.0,
                                            corrected=True)).f
    e2 = oscillator_strength_E2(g, bank.get(StateLabel(0, 0, 1, -1), 2.0,
                                            corrected=True)).f
    assert e1 / e2 == pytest.approx(1.764e5, rel=0.05)
    assert e1 / b1 == pytest.approx(2.76e6, rel=0.05)


def test_kind_dispatch(bank):
    g = bank.get(GS, 2.0)
    f = bank.get(StateLabel(0, 0, 1, +1), 2.0)
    rec = oscillator_strength("e1", g, f)
    assert rec.kind == "E1"
    with pytest.raises(ValueError):
        oscillator_strength("M9", g, f)
