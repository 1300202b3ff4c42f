import dataclasses
import functools

import numpy as np
import pytest

from twocenter.model import EnergyPair, PhysicalSetup, StateLabel
from twocenter.oracle import OracleResult, exact_channels, solve_bispectral
from twocenter.reference import oscillator_table
from twocenter.states import SolvedState
from twocenter.transitions import (TransitionOrderingError,
                                   UnwiredTransitionError,
                                   dipole_matrix_element,
                                   magnetic_matrix_element,
                                   oscillator_strength,
                                   quadrupole_matrix_element)
from twocenter.trial import ChannelArrays, TrialParams

GS = StateLabel(0, 0, 0, +1)


_FINALS = {"2psu": StateLabel(0, 0, 0, -1), "2ppu": StateLabel(0, 0, 1, +1),
           "3dpg": StateLabel(0, 0, 1, -1), "3ddg": StateLabel(0, 0, 2, +1),
           "2ssg": StateLabel(1, 0, 0, +1)}


@pytest.mark.parametrize("final", _FINALS)
@pytest.mark.parametrize("kind", ["E1", "B1", "E2"])
def test_record_selection_rules(bank, kind, final):
    # every kind's record from 1ssg (Lambda = 0, gerade) at R = 2, asked
    # in lower case: the label rule decides the exact zero, and G counts
    # the final orbitals the strength sums over
    label = _FINALS[final]
    rec = oscillator_strength(kind.lower(), bank.get(GS, 2.0),
                              bank.get(label, 2.0))
    dlam, flips = label.lam, not label.gerade
    allowed = {"E1": dlam <= 1 and flips,
               "B1": dlam == 1 and not flips,
               "E2": dlam <= 2 and not flips}[kind]
    assert rec.kind == kind
    assert rec.forbidden == (not allowed)
    assert (rec.f == 0.0) == rec.forbidden and rec.f >= 0.0
    assert rec.G == (1 if kind == "B1" or dlam == 0 else 2)


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
        oscillator_strength("E1", u, g)


@pytest.mark.parametrize("kind", ["B1", "E2"])
def test_unwired_pair_is_a_value_error(bank, kind):
    # B1 is wired for sigma -> pi and E2 from sigma; 2ppu -> 4fdu is
    # allowed by both selection rules but wired for neither
    pi = bank.get(StateLabel(0, 0, 1, +1), 2.0)
    delta = bank.get(StateLabel(0, 0, 2, -1), 2.0)
    with pytest.raises(UnwiredTransitionError):
        oscillator_strength(kind, pi, delta)
    assert issubclass(UnwiredTransitionError, ValueError)


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
    rec = oscillator_strength("B1", g, d)
    assert rec.f == pytest.approx(1.6661760e-7, rel=5e-6)
    assert rec.G == 1  # the magnetic sum over members is already inside S


def test_quadrupole_strength_example(bank):
    g = bank.get(GS, 2.0, corrected=True)
    d = bank.get(StateLabel(0, 0, 2, +1), 2.0, corrected=True)
    rec = oscillator_strength("E2", g, d)
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
    r1 = oscillator_strength("E1", g, f)
    r2 = oscillator_strength("E1", g, f_scaled)
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
    f_sigma = oscillator_strength("E1", g, bank.get(StateLabel(0, 0, 0, -1),
                                                    0.1)).f
    f_pi = oscillator_strength("E1", g, bank.get(StateLabel(0, 0, 1, +1),
                                                 0.1)).f
    assert f_sigma + f_pi == pytest.approx(8192.0 / 19683.0, abs=0.02)
    # equal sharing among the three members: the pi pair carries ~ 2/3
    assert f_pi / (f_sigma + f_pi) == pytest.approx(2.0 / 3.0, abs=0.02)


def test_magnetic_suppressed_toward_one_center(bank):
    # dl = 2 kills the magnetic element in the one-center limit
    f1 = oscillator_strength("B1", bank.get(GS, 1.0, corrected=True),
                             bank.get(StateLabel(0, 0, 1, -1), 1.0,
                                      corrected=True)).f
    f2 = oscillator_strength("B1", bank.get(GS, 2.0, corrected=True),
                             bank.get(StateLabel(0, 0, 1, -1), 2.0,
                                      corrected=True)).f
    assert f1 < 0.1 * f2


def test_magnitude_hierarchy_at_equilibrium(bank):
    g = bank.get(GS, 2.0, corrected=True)
    e1 = oscillator_strength("E1", g, bank.get(StateLabel(0, 0, 1, +1), 2.0,
                                               corrected=True)).f
    b1 = oscillator_strength("B1", g, bank.get(StateLabel(0, 0, 1, -1), 2.0,
                                               corrected=True)).f
    e2 = oscillator_strength("E2", g, bank.get(StateLabel(0, 0, 1, -1), 2.0,
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


# ----------------------------------------------------------------------
# normalization on the pair's own rule


# every (kind, final label) pair of the reference tables, all from 1ssg;
# each holds a cell at every tabulated R
_TABLE_PAIRS = sorted({(kind, column[2:]) for kind in ("E1", "B1", "E2")
                       for column in oscillator_table(kind)[0]
                       if column.startswith("f_")
                       and not column.endswith("_ext")})


@pytest.mark.parametrize("R", [row["R"] for row in oscillator_table("e1")])
def test_pair_rule_norms_match_own_rule_norms(bank, R):
    # a strength takes |i| |f| from the pair's 96-point rule; normalized
    # by each state's own-rule norm_squared() instead, every tabulated
    # strength moves by at most 5e-11 relative (2.2e-11 measured)
    from twocenter.model import label_from_designation
    from twocenter.transitions import _pair_moments

    g = bank.get(GS, R, corrected=True)
    for kind, name in _TABLE_PAIRS:
        f = bank.get(label_from_designation(name), R, corrected=True)
        strength = oscillator_strength(kind, g, f).f
        pair_norm2 = _pair_moments(g, f)[2] ** 2
        own = strength * pair_norm2 / (g.norm_squared() * f.norm_squared())
        assert own == pytest.approx(strength, rel=5e-11, abs=0.0), \
            (kind, name)


def test_strength_pass_reads_no_own_norm(bank, monkeypatch):
    # the strength path has one normalization: the pair's rule
    def refuse(self, rules=None):
        raise AssertionError("a strength read a state's own-rule norm")

    g = bank.get(GS, 2.0, corrected=True)
    finals = {name: bank.get(label, 2.0, corrected=True)
              for name, label in _FINALS.items()}
    monkeypatch.setattr(SolvedState, "norm_squared", refuse)
    for kind, name in (("E1", "2ppu"), ("E1", "2psu"), ("B1", "3dpg"),
                       ("E2", "3dpg"), ("E2", "3ddg"), ("E2", "2ssg")):
        assert oscillator_strength(kind, g, finals[name]).f > 0.0


# ----------------------------------------------------------------------
# E1 1ssg -> 3psu against the exact eigenfunctions


@dataclasses.dataclass
class _ExactState(SolvedState):
    """A state whose channels are the oracle's exact functions, on the
    default rule at the oracle's p; only p is read from params, and the
    E1 element and the norm read no channel derivative (dvals are 0)."""

    oracle: OracleResult | None = None

    @classmethod
    def solve(cls, label, R):
        setup = PhysicalSetup(R)
        res = solve_bispectral(label, setup)
        return cls(label, setup, TrialParams(0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                                             res.p),
                   EnergyPair(res.E_total, res.E_total - setup.repulsion,
                              res.p), oracle=res)

    def _arrays(self, nodes, channel):
        nodes = np.asarray(nodes, dtype=float)
        other = np.zeros(1) if channel == 0 else np.full(1, 2.0)
        xi, eta = (nodes, other) if channel == 0 else (other, nodes)
        log, sign = exact_channels(self.oracle, xi, eta)[channel]
        top = float(np.max(log))
        return ChannelArrays(sign * np.exp(log - top), np.zeros_like(nodes),
                             -top, nodes)

    def xi_arrays(self, nodes):
        return self._arrays(nodes, 0)

    def eta_arrays(self, nodes):
        return self._arrays(nodes, 1)


_SU = StateLabel(1, 0, 0, -1)


@functools.lru_cache(maxsize=None)
def _exact_f_3psu(R):
    return oscillator_strength("E1", _ExactState.solve(GS, R),
                               _ExactState.solve(_SU, R)).f


@pytest.mark.parametrize("R", [2.0, 4.0])
def test_f_3psu_matches_the_exact_functions(bank, R):
    # the corrected E1 strength to 3psu within 1e-8 of the one the exact
    # eigenfunctions give (8.24920180033e-4 at R = 2, 1.61436314667e-2 at
    # R = 4), far inside criterion 8's 2e-6
    f = oscillator_strength("E1", bank.get(GS, R, corrected=True),
                            bank.get(_SU, R, corrected=True)).f
    assert f == pytest.approx(_exact_f_3psu(R), rel=1e-8)


@pytest.mark.xfail(
    strict=True,
    reason="The f_3psu reference column is off the exact-function strength "
           "by -1.63e-5 (R = 2) and +1.01e-5 (R = 4), relative, while the "
           "package is within 1.9e-9 of it: the reference's own error "
           "exceeds a 2e-6 match there, as at the R = 1 quadrupole row.")
@pytest.mark.parametrize("R", [2.0, 4.0])
def test_f_3psu_reference_column_meets_the_exact_functions(R):
    ref = {r["R"]: r for r in oscillator_table("e1")}[R]["f_3psu"]
    exact = _exact_f_3psu(R)
    assert abs(ref - exact) <= 2e-6 * exact
