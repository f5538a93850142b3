"""Correlation/communication complexity of bipartite state generation.

qcorr answers, at desk scale, how large a shared seed state two parties
need in order to produce a target bipartite quantum state using local
operations only. Pure targets are settled exactly by approximate-rank
analysis of the amplitude matrix; classical targets by psd-rank bounds,
a factorization solver, and explicit protocol synthesis; general mixed
targets by the purification/factorization correspondence. A dense
simulator executes synthesized protocols and verifies their fidelity and
seed-size claims.
"""

from .classical import (
    DEFAULT_CONFIG,
    DistMatrix,
    PsdFactorization,
    RankReport,
    SolverConfig,
    gram_extract,
    nonneg_rank_bounds,
    psd_fit,
    psd_rank_lower_bound,
    psd_rank_search,
    synth_from_psd,
    validate_dist,
)
from .errors import (
    FactorizationMismatch,
    InvalidInput,
    NotNormalized,
    NotPsd,
    ParseError,
    QcorrError,
)
from .general import Purification, canonical_purification, q_upper_bound
from .linalg import (
    DensityMatrix,
    RegisterState,
    SvdResult,
    ceil_log2,
    density_from_pure,
    eigh,
    fidelity,
    matrix_rank,
    partial_trace,
    schmidt_rank,
    svd,
)
from .pure import (
    PureState,
    build_approximant,
    q_eps,
    rank_eps,
    schmidt_decompose,
    srank_eps,
    state_from_matrix,
    tensor_product,
    vec_inv,
)
from .sim import (
    GenerationReport,
    LocalChannel,
    ProtocolSpec,
    apply_protocol,
    measure_computational,
    protocol_from_purification,
    synth_pure_protocol,
    transfer_qubit,
    verify_generation,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_CONFIG",
    "DensityMatrix",
    "DistMatrix",
    "FactorizationMismatch",
    "GenerationReport",
    "InvalidInput",
    "LocalChannel",
    "NotNormalized",
    "NotPsd",
    "ParseError",
    "ProtocolSpec",
    "PsdFactorization",
    "PureState",
    "Purification",
    "QcorrError",
    "RankReport",
    "RegisterState",
    "SolverConfig",
    "SvdResult",
    "apply_protocol",
    "build_approximant",
    "canonical_purification",
    "ceil_log2",
    "density_from_pure",
    "eigh",
    "fidelity",
    "gram_extract",
    "matrix_rank",
    "measure_computational",
    "nonneg_rank_bounds",
    "partial_trace",
    "protocol_from_purification",
    "psd_fit",
    "psd_rank_lower_bound",
    "psd_rank_search",
    "q_eps",
    "q_upper_bound",
    "rank_eps",
    "schmidt_decompose",
    "schmidt_rank",
    "srank_eps",
    "state_from_matrix",
    "svd",
    "synth_from_psd",
    "synth_pure_protocol",
    "tensor_product",
    "transfer_qubit",
    "validate_dist",
    "vec_inv",
    "verify_generation",
]
