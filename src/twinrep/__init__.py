"""Homogeneous 2-local representations of the twin group: construction,
reduction, and irreducibility decisions with independent oracle validation."""

from .scalars import (Scalar, Tolerance, scalar_parse, scalar_format,
                      set_default_eps, default_tolerance)
from .linalg import (Matrix, Subspace, mat_det, mat_inverse, mat_rank,
                     rank_with_gap, kernel)
from .reps import (RepSpec, GeneratorImage, BlockClass, build_block,
                   build_generator, build_all_generators, verify_relations,
                   classify_block)
from .reduction import (invariant_vector, build_Q, build_reduced_gen,
                        reduced_generators, eigvec_w, build_P, build_S,
                        reduction_bundle, basis_b_bundle)
from .chains import (chain_vectors, closed_chain_vector, closure_check,
                     lemma_matrix, det_closed_form, delta, delta_direct)
from .irreducibility import (ClearedPoly, Verdict, cleared_poly, eval_P,
                             roots_of_P, decide, witness_check,
                             IRREDUCIBLE, REDUCIBLE)
from .oracle import (algebra_dimension, algebra_closure, is_irreducible_oracle,
                     common_eigenlines)

__all__ = [
    "Scalar", "Tolerance", "scalar_parse", "scalar_format",
    "set_default_eps", "default_tolerance",
    "Matrix", "Subspace", "mat_det", "mat_inverse", "mat_rank",
    "rank_with_gap", "kernel",
    "RepSpec", "GeneratorImage", "BlockClass", "build_block",
    "build_generator", "build_all_generators", "verify_relations",
    "classify_block",
    "invariant_vector", "build_Q", "build_reduced_gen", "reduced_generators",
    "eigvec_w", "build_P", "build_S", "reduction_bundle", "basis_b_bundle",
    "chain_vectors", "closed_chain_vector", "closure_check", "lemma_matrix",
    "det_closed_form", "delta", "delta_direct",
    "ClearedPoly", "Verdict", "cleared_poly", "eval_P", "roots_of_P",
    "decide", "witness_check", "IRREDUCIBLE", "REDUCIBLE",
    "algebra_dimension", "algebra_closure", "is_irreducible_oracle",
    "common_eigenlines",
]

__version__ = "0.1.0"
