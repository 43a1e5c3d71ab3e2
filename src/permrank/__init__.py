"""Exact permanental-rank computations and linear preserver decisions.

The package computes matrix permanents and permanental rank over the
rationals and over prime fields of odd characteristic, classifies maximal
subspaces of the bounded-rank sets, builds the maximal subspace graph with
its threshold subgraph, decomposes bijective preservers into canonical form,
lifts permanental rank constructively over the rationals, and ships
verification suites replaying all of it at desk scale.
"""

from . import errors
from .density import (
    PolyConstraint,
    constant_one,
    entry_constraint,
    lift_chain,
    lift_rank,
    subpermanent_constraint,
)
from .fields import Field, PrimeField, QQ, Rationals, Scalar, field_from_name
from .harness import (
    VerificationReport,
    enumerate_canonical_preservers,
    verify_converse_sampled,
    verify_density_chain,
    verify_forward_exhaustive,
    verify_invariance,
    verify_theta,
)
from .matrices import (
    Matrix,
    Permutation,
    diagonal,
    identity,
    mat,
    matrix_from_json,
    matrix_to_json,
    ones,
    permutation_matrix,
    unit,
    zero_matrix,
)
from .permanent import PrkWitness, per_fast, per_naive, prk, prk_decide_leq
from .preserver import (
    CanonicalPreserver,
    LinearMap,
    PreserverVerdict,
    canonical_from_json,
    canonical_to_json,
    check_equality_variant,
    check_preserves,
    compose_canonical,
    decompose,
    linear_map_from_json,
    linear_map_to_json,
    map_subspace,
    verdict_to_json,
)
from .subspace import (
    COL,
    ROW,
    CanonicalSubspace,
    SpanVerdict,
    SubspaceBasis,
    canonical_basis,
    classify_maximal,
    maximal_subspaces,
    within_prk_bound,
)
from .theta import (
    ThetaGraph,
    ThetaHat,
    build_theta,
    build_theta_hat,
    components,
    graph_json,
    interpolating_supports,
    pair_weight,
    to_dot,
    verify_component_structure,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
