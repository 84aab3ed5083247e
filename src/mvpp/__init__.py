"""Simulation and verification lab for measure-valued Polya urn processes."""

__version__ = "0.1.0"

from .kernels import (
    DColourKernel,
    KDiscreteKernel,
    MMInfQueueKernel,
    RandomWalkKernel,
    companion_chain,
    leading_eigenpair,
    walk_kernel_stable,
)
from .measures import AtomicMeasure, Rescaling, normalize, sample_atom, theta_rescale, z_n
from .process import (
    mvpp_direct,
    mvpp_forest,
    mvpp_kdiscrete,
    mvpp_via_bst,
    mvpp_via_rrt,
    sample_colour,
    sample_pair,
    verify_main_theorem,
)
from .randomness import RngStream, derive_stream
from .trees import grow_bst_leaf, grow_bst_permutation, grow_kary, grow_rrt, profile, rotation

__all__ = [
    "AtomicMeasure",
    "DColourKernel",
    "KDiscreteKernel",
    "MMInfQueueKernel",
    "RandomWalkKernel",
    "Rescaling",
    "RngStream",
    "companion_chain",
    "derive_stream",
    "grow_bst_leaf",
    "grow_bst_permutation",
    "grow_kary",
    "grow_rrt",
    "leading_eigenpair",
    "mvpp_direct",
    "mvpp_forest",
    "mvpp_kdiscrete",
    "mvpp_via_bst",
    "mvpp_via_rrt",
    "normalize",
    "profile",
    "rotation",
    "sample_atom",
    "sample_colour",
    "sample_pair",
    "theta_rescale",
    "verify_main_theorem",
    "walk_kernel_stable",
    "z_n",
]
