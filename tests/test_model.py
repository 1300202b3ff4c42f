from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from twocenter.model import (_LAM_GREEK, EnergyPair, PhysicalSetup,
                             StateLabel, UnboundChannelError, energy_from_p,
                             label_from_designation, limit_constant,
                             p_from_energy, united_atom_designation)


def united_atom_designation_unicode(label: StateLabel) -> str | None:
    """Same as :func:`united_atom_designation` with the Greek Lambda letter."""
    name = united_atom_designation(label)
    if name is None:
        return None
    return name[:-2] + _LAM_GREEK[label.lam] + name[-1]


def test_designations_match_table():
    assert united_atom_designation(StateLabel(0, 0, 1, -1)) == "3dpg"
    assert united_atom_designation(StateLabel(0, 0, 0, +1)) == "1ssg"
    assert united_atom_designation(StateLabel(0, 1, 0, +1)) == "3dsg"
    assert united_atom_designation(StateLabel(0, 0, 1, +1)) == "2ppu"
    assert united_atom_designation(StateLabel(1, 0, 0, -1)) == "3psu"
    assert united_atom_designation_unicode(StateLabel(0, 0, 2, -1)) == "4fδu"


def test_designation_unknown_label_is_none_not_error():
    assert united_atom_designation(StateLabel(2, 1, 3, -1)) is None


def test_designation_inverse_lookup():
    for lab in (StateLabel(0, 0, 0, +1), StateLabel(1, 0, 0, -1),
                StateLabel(0, 1, 0, -1)):
        assert label_from_designation(united_atom_designation(lab)) == lab
    assert label_from_designation("3dπg") == StateLabel(0, 0, 1, -1)
    with pytest.raises(KeyError):
        label_from_designation("7zzq")


def test_p_from_energy_table_rows():
    # ground state at R = 2 and the odd state at R = 10
    assert p_from_energy(-1.20526842899, PhysicalSetup(2.0)) == pytest.approx(
        1.485015, abs=1e-6)
    assert p_from_energy(-0.9998021372, PhysicalSetup(10.0)) == pytest.approx(
        5.47678, abs=1e-5)


def test_p_from_energy_pure_arithmetic():
    # E' = -4 at R = 2 (repulsion removed by hand) gives p = 2 exactly
    setup = PhysicalSetup(2.0)
    E_total = -4.0 + setup.repulsion
    assert p_from_energy(E_total, setup) == pytest.approx(2.0, rel=1e-15)


def test_unbound_channel_rejected():
    # E' = E - 2/R = +0.5 here: not a bound channel
    with pytest.raises(UnboundChannelError):
        p_from_energy(2.5, PhysicalSetup(1.0))


@settings(max_examples=60, deadline=None)
@given(R=st.floats(0.2, 60.0), Eprime=st.floats(-30.0, -1e-6))
def test_energy_p_round_trip(R, Eprime):
    setup = PhysicalSetup(R)
    E = Eprime + setup.repulsion
    p = p_from_energy(E, setup)
    assert energy_from_p(p, setup) == pytest.approx(E, rel=1e-14, abs=1e-14)


def test_energy_pair_constructors():
    setup = PhysicalSetup(2.0)
    pair = EnergyPair.from_total(-1.20526842899, setup)
    assert pair.E_prime == pytest.approx(pair.E_total - 1.0, rel=1e-15)
    back = EnergyPair.from_p(pair.p, setup)
    assert back.E_total == pytest.approx(pair.E_total, rel=1e-14)


def test_atomic_correspondence_quantum_numbers():
    # (n_atomic, l) from the label algebra against the tabulated rows
    expect = {
        StateLabel(0, 0, 0, +1): (1, 0), StateLabel(0, 0, 0, -1): (2, 1),
        StateLabel(0, 0, 1, +1): (2, 1), StateLabel(0, 0, 1, -1): (3, 2),
        StateLabel(0, 0, 2, +1): (3, 2), StateLabel(0, 0, 2, -1): (4, 3),
        StateLabel(1, 0, 0, +1): (2, 0), StateLabel(1, 0, 0, -1): (3, 1),
        StateLabel(0, 1, 0, +1): (3, 2), StateLabel(0, 1, 0, -1): (4, 3),
    }
    for lab, (na, la) in expect.items():
        assert (lab.atomic_n, lab.atomic_l) == (na, la)


def test_limit_constants():
    assert limit_constant(StateLabel(1, 0, 0, +1)) == Fraction(2)
    assert limit_constant(StateLabel(1, 0, 0, -1)) == Fraction(3)
    assert limit_constant(StateLabel(0, 1, 0, +1)) == Fraction(1, 3)
    assert limit_constant(StateLabel(0, 1, 0, -1)) == Fraction(3, 5)
    assert limit_constant(StateLabel(0, 0, 0, +1)) is None


def test_setup_validation():
    with pytest.raises(ValueError):
        PhysicalSetup(-1.0)
    with pytest.raises(ValueError):
        StateLabel(0, 0, 0, 2)
