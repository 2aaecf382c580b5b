"""Invariants of splice-quotient surface singularities from resolution graphs."""

__version__ = "0.1.0"

from .discgroup import GroupData, group_data
from .genus import (
    GenusReport,
    euler_char_on_cycle,
    genus_report,
    h1_eigensheaf,
    h1_twisted,
    minimal_nef_correction,
    pg,
    pg_uac,
)
from .graph import ResolutionGraph, parse_graph
from .molien import (
    a_invariant,
    c_v_chi,
    c_v_chi_routes,
    c_v_route_a,
    hilbert_data,
    molien_closed,
    molien_coeffs,
    P_chi,
    truncation_m,
)
from .oracle import artin_rational, bruteforce_eigendims, oracle_verify
from .series import RationalFunctionQ, polynomial_part
from .splice import (
    check_monomial_condition,
    emit_splice_system,
    find_admissible_monomial,
    v_degree,
    validate_witness,
    verify_equivariance,
)

__all__ = [
    "GroupData", "GenusReport", "ResolutionGraph",
    "RationalFunctionQ", "parse_graph",
    "euler_char_on_cycle", "genus_report", "h1_eigensheaf",
    "h1_twisted", "minimal_nef_correction", "pg", "pg_uac", "a_invariant",
    "c_v_chi", "c_v_chi_routes", "c_v_route_a", "group_data", "hilbert_data",
    "molien_closed", "molien_coeffs", "P_chi", "truncation_m",
    "artin_rational", "bruteforce_eigendims", "oracle_verify",
    "polynomial_part", "check_monomial_condition", "emit_splice_system",
    "find_admissible_monomial", "v_degree", "validate_witness",
    "verify_equivariance",
]
