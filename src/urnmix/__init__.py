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

import importlib

__version__ = "0.1.0"

# Each export lives in its home submodule and is imported on first use (PEP
# 562), so `import urnmix` and the numpy-free subcommands never load numpy.
_HOMES = {
    "bounds": ("bound_curve", "l2n_sq_bound", "leading_l2_term", "lower_bound", "theorem_k", "tv_upper"),
    "catalog": ("catalog_entries", "eig_classical", "eig_independent", "eig_paired", "eig_variant"),
    "chains": ("initial_state", "kernel_row", "step", "step_units"),
    "exact": ("distance_curve", "evolve", "evolve_sequence", "spectrum", "tv_distance"),
    "models": ("Family", "ModelSpec"),
    "montecarlo": ("SimConfig", "WalkerStream", "run"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
