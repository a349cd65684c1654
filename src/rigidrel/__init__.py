"""Hereditary rigidity of finite relations.

Core objects live in :mod:`rigidrel.kernel` (relations as bit-masks,
partial functions as graphs); :mod:`rigidrel.preserve` decides
preservation with replayable certificates; :mod:`rigidrel.rigidity`
holds the rigidity decision procedure and trace machinery;
:mod:`rigidrel.construct` builds rigid relations from pattern
antichains; :mod:`rigidrel.strongrigid` covers the two-element chain of
near-full relations whose joint polymorphisms shrink to the trivial
functions.
"""

from .kernel import (
    CapacityError, DomainMismatchError, EncodingError, PartialFn,
    PartialUnaryFn, Relation, all_partial_fns, all_partial_unary, beta,
    beta_lt, is_partial_constant, is_partial_projection, is_trivial,
    tuple_rank, tuple_unrank,
)
from .preserve import (
    PreservationVerdict, ViolationCertificate, check_certificate, ppol1,
    preserves, unary_preserves,
)
from .rigidity import (
    EmptyRelationError, RigidityReport, TraceMap,
    brute_force_rigidity, f_arrow, is_hereditarily_ell_rigid,
    omega_contained, omega_member, trace, trace_incomparability,
    verify_report,
)
from .construct import (
    AbstractTrace, BoundError, ConstructionError, TraceError, bound_sides,
    construct_2rigid, construct_ellrigid, max_k_2rigid, r_bounds,
    rho_from_trace, sperner_bound_holds, surjection_count,
)
from .strongrigid import (
    NontrivialityWitness, NoWitnessError, chain_inclusion, delta,
    delta_preserves, excluded_tuple, limit_is_trivial_clone, phi,
    phi_facts, phi_preserves_all, prefix_escape, repeat_identifies,
    verify_witness, witness_nontrivial,
)

__all__ = [
    "CapacityError", "DomainMismatchError", "EncodingError", "PartialFn",
    "PartialUnaryFn", "Relation", "all_partial_fns", "all_partial_unary",
    "beta", "beta_lt", "is_partial_constant", "is_partial_projection",
    "is_trivial", "tuple_rank", "tuple_unrank",
    "PreservationVerdict", "ViolationCertificate", "check_certificate",
    "ppol1", "preserves", "unary_preserves",
    "EmptyRelationError", "RigidityReport", "TraceMap",
    "brute_force_rigidity", "f_arrow", "is_hereditarily_ell_rigid",
    "omega_contained", "omega_member", "trace", "trace_incomparability",
    "verify_report",
    "AbstractTrace", "BoundError", "ConstructionError", "TraceError",
    "bound_sides", "construct_2rigid", "construct_ellrigid",
    "max_k_2rigid", "r_bounds", "rho_from_trace",
    "sperner_bound_holds", "surjection_count",
    "NontrivialityWitness", "NoWitnessError", "chain_inclusion", "delta",
    "delta_preserves", "excluded_tuple", "limit_is_trivial_clone", "phi",
    "phi_facts", "phi_preserves_all", "prefix_escape", "repeat_identifies",
    "verify_witness", "witness_nontrivial",
]
__version__ = "0.1.0"
