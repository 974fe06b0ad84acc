"""Exactly solvable urn chains: spectra, mixing bounds, and simulation.

Four ball-swapping Markov chains on two racks of an n-ball urn, each with a
fully explicit spectral decomposition: the classical forced-swap chain, a
lazier variant that may swap a ball with itself, and two signed extensions
where balls carry a charge that the walk can flip (independently, or only
in pairs).  The package computes component catalogs (dimension,
multiplicity, eigenvalue), exact distribution evolution, spectral upper
bounds and a matching lower bound for the variant chain, and vectorized
Monte Carlo with a counter-based deterministic stream.
"""

from .bounds import (
    bound_curve,
    l2n_sq_bound,
    leading_l2_term,
    lower_bound,
    theorem_k,
    tv_upper,
)
from .catalog import (
    catalog_entries,
    eig_classical,
    eig_independent,
    eig_paired,
    eig_variant,
)
from .chains import initial_state, kernel_row, step, step_units
from .exact import distance_curve, evolve, evolve_sequence, spectrum, tv_distance
from .models import Family, ModelSpec
from .montecarlo import SimConfig, WalkerStream, run

__version__ = "0.1.0"

__all__ = [
    "Family",
    "ModelSpec",
    "SimConfig",
    "WalkerStream",
    "bound_curve",
    "catalog_entries",
    "distance_curve",
    "eig_classical",
    "eig_independent",
    "eig_paired",
    "eig_variant",
    "evolve",
    "evolve_sequence",
    "initial_state",
    "kernel_row",
    "l2n_sq_bound",
    "leading_l2_term",
    "lower_bound",
    "run",
    "spectrum",
    "step",
    "step_units",
    "theorem_k",
    "tv_distance",
    "tv_upper",
]
