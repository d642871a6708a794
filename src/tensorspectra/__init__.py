"""Spectral calculus for dense tensors.

Higher-order SVD and per-mode spectra, Schatten-type and nuclear tensor
norms, trace-inequality diagnostics for tensor pairs, and construction plus
certification of norm subgradients at symmetric and orthogonally
decomposable points.
"""

from .linalg import (
    SvdConvergenceError,
    SvdResult,
    complete_orthonormal,
    is_orthogonal,
    random_orthogonal,
    singular_values,
    svd,
)
from .odeco import (
    OdecoRep,
    make_odeco,
    odeco_hosvd,
    random_odeco,
    random_symmetric_odeco,
    to_dense,
)
from .spectral import (
    Hosvd,
    SchattenParams,
    all_mode_spectra,
    combined_spectrum,
    core_orthogonality_report,
    hosvd,
    hosvd_reconstruct,
    mode_spectrum,
    nuclear_norm,
    schatten_norm,
)
from .subdiff import (
    ConjugateEstimate,
    DualExponents,
    DualMaximizer,
    MembershipCertificate,
    TupleSubgradient,
    check_membership,
    conjugate_value_tuple,
    dual_vector_maximizer,
    estimate_tensor_conjugate,
    holder_conjugate,
    lp_norm,
    mixed_norm,
    schatten_subgradient,
    schatten_value_tuple,
    subgradient_inequality_test,
    tuple_membership,
    tuple_subgradient,
)
from .tensor import (
    as_tensor,
    frobenius,
    inner,
    is_symmetric,
    matricize,
    mode_mul,
    multi_mode_mul,
    outer,
    symmetrize,
    tensorize,
)
from .vonneumann import (
    BlockPartition,
    EqualityStructure,
    VnReport,
    check_equality_via_structure,
    find_block_partition,
    verify_equality_structure,
    vn_report,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # tensor primitives
    "as_tensor",
    "inner",
    "frobenius",
    "matricize",
    "tensorize",
    "mode_mul",
    "multi_mode_mul",
    "outer",
    "is_symmetric",
    "symmetrize",
    # matrix helpers
    "SvdResult",
    "SvdConvergenceError",
    "svd",
    "singular_values",
    "is_orthogonal",
    "random_orthogonal",
    "complete_orthonormal",
    # spectra and norms
    "Hosvd",
    "SchattenParams",
    "hosvd",
    "hosvd_reconstruct",
    "mode_spectrum",
    "all_mode_spectra",
    "combined_spectrum",
    "schatten_norm",
    "nuclear_norm",
    "core_orthogonality_report",
    # orthogonally decomposable tensors
    "OdecoRep",
    "make_odeco",
    "to_dense",
    "odeco_hosvd",
    "random_odeco",
    "random_symmetric_odeco",
    # trace-inequality diagnostics
    "VnReport",
    "BlockPartition",
    "EqualityStructure",
    "vn_report",
    "find_block_partition",
    "verify_equality_structure",
    "check_equality_via_structure",
    # subgradients and conjugates
    "DualExponents",
    "DualMaximizer",
    "TupleSubgradient",
    "MembershipCertificate",
    "ConjugateEstimate",
    "holder_conjugate",
    "lp_norm",
    "mixed_norm",
    "dual_vector_maximizer",
    "schatten_value_tuple",
    "tuple_subgradient",
    "tuple_membership",
    "schatten_subgradient",
    "check_membership",
    "subgradient_inequality_test",
    "conjugate_value_tuple",
    "estimate_tensor_conjugate",
]
