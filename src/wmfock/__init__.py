"""Symbolic and numeric workbench for weakly monotone operator families.

Three index disciplines share one engine: the integer case (creators compose
non-increasingly and every annihilation relation telescopes downward), the
natural-index case (the same discipline cut off at index zero, where the
lowest range projections sum to support projections), and the anti-monotone
mirror (non-decreasing composition, with a co-isometry at the bottom index).

The package provides an expression grammar, rewriting to canonical normal
forms with exact scalar arithmetic, truncated tensor-space evaluation with
certified interior checks, relation-matrix verification, shift-average and
state computations, level-shifted representations with exact gauge
bookkeeping, and a JSON-reporting command line.
"""

from .errors import (
    FinitenessError,
    FuelError,
    InternalConsistencyError,
    SizeLimitError,
    WindowError,
)
from .expr import Case, Element, ParseError, parse, word_str
from .scalars import GaussianRational, gaussian
from .rewrite import (
    NormalFormN,
    NormalFormZ,
    classify_word,
    equal_n,
    equal_z,
    normalize_n,
    normalize_z,
)
from .fock import (
    SparseMat,
    TruncSpace,
    apply_element_to_vector,
    build_generator,
    enumerate_basis,
    evaluate,
    verify_identity,
)
from .exel_laca import a_coeff, support_set, verify_el_suite
from .ergodic import (
    cesaro_average,
    check_cesaro_bound,
    check_nonconvergence,
    fixed_point_check,
    omega_t,
    vacuum_certificate,
)
from .spectral import (
    Polynomial,
    RepSpec,
    build_direct_sum,
    commutant_dim,
    decompose,
    limit_residual,
    moment_sequence,
    position_element,
    recurrence_family,
    rep_matrix,
    vacuum_moment,
    verify_qn,
    verify_rep,
)
from .suites import anti_suite, relations_z_suite
from .reports import Instance, Report

__version__ = "0.1.0"

__all__ = [
    "Case", "Element", "ParseError", "parse", "word_str",
    "GaussianRational", "gaussian",
    "NormalFormZ", "NormalFormN", "classify_word",
    "normalize_z", "normalize_n", "equal_z", "equal_n",
    "TruncSpace", "SparseMat", "enumerate_basis", "evaluate",
    "build_generator", "apply_element_to_vector", "verify_identity",
    "a_coeff", "support_set", "verify_el_suite",
    "cesaro_average", "check_cesaro_bound",
    "check_nonconvergence", "omega_t", "fixed_point_check", "vacuum_certificate",
    "Polynomial", "recurrence_family", "position_element", "vacuum_moment",
    "moment_sequence", "verify_qn", "limit_residual", "commutant_dim",
    "RepSpec", "rep_matrix", "verify_rep", "build_direct_sum", "decompose",
    "anti_suite", "relations_z_suite",
    "Instance", "Report",
    "FuelError", "InternalConsistencyError", "SizeLimitError",
    "WindowError", "FinitenessError",
]
