"""Two-center Coulomb bound states in prolate spheroidal coordinates.

Compact variational wavefunctions for the low-lying states of the
one-electron diatomic ion, verified by an independent bispectral solver
and refined by a convergent perturbation scheme; electric and magnetic
multipole oscillator strengths between them.
"""

from .model import (EnergyPair, PhysicalSetup, StateLabel, energy_from_p,
                    label_from_designation, p_from_energy,
                    united_atom_designation)
from .trial import TrialParams, eval_X, eval_Y, eval_psi
from .quadrature import build_rules, norm_squared, rayleigh_quotient
from .variational import OptimizationResult, optimize_state, scan_R, solve_node
from .states import SolvedState, StateBank, attach_corrections
from .oracle import OracleResult, angular_eigenvalue, solve_bispectral
from .transitions import TransitionRecord, oscillator_strength

__version__ = "0.1.0"

__all__ = [
    "EnergyPair", "PhysicalSetup", "StateLabel",
    "TrialParams", "OptimizationResult", "OracleResult", "SolvedState",
    "StateBank", "TransitionRecord", "angular_eigenvalue",
    "attach_corrections", "build_rules", "energy_from_p", "eval_X", "eval_Y",
    "eval_psi", "label_from_designation", "norm_squared", "optimize_state",
    "oscillator_strength", "p_from_energy", "rayleigh_quotient", "scan_R",
    "solve_bispectral", "solve_node", "united_atom_designation",
]
