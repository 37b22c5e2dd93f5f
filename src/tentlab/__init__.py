"""tentlab: exact-arithmetic toolkit for tent-map self-semiconjugations."""

__version__ = "0.1.0"

from .rationals import (
    ONE,
    BinaryExpansion,
    format_rational,
    parse_rational,
    rational_to_binary,
)
from .tent import (
    PreimageSet,
    address_to_point,
    grid_points,
    inverse_branch,
    preimage_set,
    skew_tent,
    tent,
    tent_digits,
)
from .piecewise import PiecewiseLinearMap
from .sawtooth import (
    Classification,
    ProbeResult,
    classify_solution,
    linearity_probe,
    sawtooth,
    sawtooth_breakpoints,
    sawtooth_eval,
    secant_slopes,
    verify_commutation,
)
from .commutants import (
    AddressConflict,
    CommutingTable,
    PsiTilde,
    audit_counts,
    brute_force_commuting,
    commutant_count_formula,
    pair_from_psi,
    psi_from_pair,
)
from .continuation import (
    ContinuationProblem,
    continuable_from_point,
    enumerate_continuable,
    is_tent_continuable,
    solve_k0,
)
from .conjugacy import (
    conjugacy_value,
    conjugate_point,
    density_probe,
    graph_length,
    h_step,
    identity_iterate,
    iterate_to,
    slope_measure,
)
from .audit import claims_audit

__all__ = [
    "AddressConflict",
    "BinaryExpansion",
    "Classification",
    "CommutingTable",
    "ContinuationProblem",
    "ONE",
    "PiecewiseLinearMap",
    "PreimageSet",
    "ProbeResult",
    "PsiTilde",
    "address_to_point",
    "audit_counts",
    "brute_force_commuting",
    "claims_audit",
    "classify_solution",
    "commutant_count_formula",
    "conjugacy_value",
    "conjugate_point",
    "continuable_from_point",
    "density_probe",
    "enumerate_continuable",
    "format_rational",
    "graph_length",
    "grid_points",
    "h_step",
    "identity_iterate",
    "inverse_branch",
    "is_tent_continuable",
    "iterate_to",
    "linearity_probe",
    "pair_from_psi",
    "parse_rational",
    "preimage_set",
    "psi_from_pair",
    "rational_to_binary",
    "sawtooth",
    "sawtooth_breakpoints",
    "sawtooth_eval",
    "secant_slopes",
    "skew_tent",
    "slope_measure",
    "solve_k0",
    "tent",
    "tent_digits",
    "verify_commutation",
]
