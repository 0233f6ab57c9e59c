"""Homogeneous 2-local representations of the twin group: construction,
reduction, and irreducibility decisions with independent oracle validation."""

from .scalars import set_default_eps
from .reps import RepSpec, build_all_generators, verify_relations
from .reduction import (invariant_vector, build_Q, build_reduced_gen,
                        reduced_generators, build_P, build_S)
from .chains import chain_vectors, delta
from .irreducibility import cleared_poly, roots_of_P, decide
from .oracle import algebra_closure, common_eigenlines

__all__ = [
    "set_default_eps",
    "RepSpec", "build_all_generators", "verify_relations",
    "invariant_vector", "build_Q", "build_reduced_gen", "reduced_generators",
    "build_P", "build_S",
    "chain_vectors", "delta",
    "cleared_poly", "roots_of_P", "decide",
    "algebra_closure", "common_eigenlines",
]

__version__ = "0.1.0"
