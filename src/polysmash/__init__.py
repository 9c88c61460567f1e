"""Exact combinatorial models of polyhedral smash products of disk/sphere
pairs, vertex-doubling reductions, and geometric-join verification, all over
exact integer and rational arithmetic."""

from .chains import (
    ChainComplex,
    HomologyGroup,
    HomologyTable,
    MalformedComplexError,
    homology,
    simplicial_chain_complex,
)
from .complexes import (
    SimplicialComplex,
    double,
    double_iterated,
    doubled_face_count,
    empty_complex,
    from_facets,
    full_simplex,
    random_complex,
    simplex_boundary,
)
from .exactlin import (
    InvariantError,
    LPResult,
    RationalLP,
    SmithForm,
    SparseIntMatrix,
    lp_max,
    rank_rational,
    smith_normal_form,
)
from .geomjoin import (
    EmbeddedComplex,
    StandardConfig,
    geometric_join,
    joinable,
    standard_config,
    verify_W_union,
    verify_gji,
    verify_gjs,
)
from .report import Check, VerificationReport
from .smashmodel import (
    direct_smash_model,
    expected_homology,
    reduction_path_model,
    verify_main,
)

__version__ = "1.0.0"

__all__ = [
    "ChainComplex",
    "Check",
    "EmbeddedComplex",
    "HomologyGroup",
    "HomologyTable",
    "InvariantError",
    "LPResult",
    "MalformedComplexError",
    "RationalLP",
    "SimplicialComplex",
    "SmithForm",
    "SparseIntMatrix",
    "StandardConfig",
    "VerificationReport",
    "direct_smash_model",
    "double",
    "double_iterated",
    "doubled_face_count",
    "empty_complex",
    "expected_homology",
    "from_facets",
    "full_simplex",
    "geometric_join",
    "homology",
    "joinable",
    "lp_max",
    "random_complex",
    "rank_rational",
    "reduction_path_model",
    "simplex_boundary",
    "simplicial_chain_complex",
    "smith_normal_form",
    "standard_config",
    "verify_W_union",
    "verify_gji",
    "verify_gjs",
    "verify_main",
]
