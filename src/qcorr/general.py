"""General mixed-state machinery.

A mixed bipartite state can always be written as a reduction of a pure
state on enlarged local spaces, and the Schmidt rank of that purification
is exactly captured by matrix families {A_x}, {B_y} with r columns via

    rho = sum |x><x'| (x) |y><y'| . tr((A_x'^dag A_x)^T (B_y'^dag B_y)).

This module converts between the three views (density matrix,
purification, factorization) and derives seed-qubit upper bounds from
them. For classical states it cross-checks against the psd-rank route.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .classical import psd_rank_search, synth_from_psd, validate_dist, SolverConfig
from .errors import InvalidInput
from .linalg import (
    DensityMatrix,
    Purification,
    _sq_norm,
    as_complex_stack,
    ceil_log2,
    comp_reduction,
)


@dataclass(frozen=True)
class GeneralFactorization:
    """Families {A_x} (dim_a of them, each k_a x r) and {B_y} (dim_b of
    them, each k_b x r), each held as one read-only complex stack
    (``linalg.as_complex_stack``). Normalized when the induced purification
    has unit norm; unnormalized inputs are accepted and rescaled downstream.
    """

    r: int
    a_mats: np.ndarray
    b_mats: np.ndarray

    def __post_init__(self):
        if self.r < 1:
            raise InvalidInput("factorization size r must be positive")
        a_mats, b_mats = as_complex_stack(self.a_mats, "A"), as_complex_stack(self.b_mats, "B")
        for fam, tag in ((a_mats, "A"), (b_mats, "B")):
            if fam.shape[2] != self.r:
                raise InvalidInput(f"{tag}[0] has {fam.shape[2]} columns, expected {self.r}")
        object.__setattr__(self, "a_mats", a_mats)
        object.__setattr__(self, "b_mats", b_mats)

    @property
    def dim_a(self) -> int:
        return len(self.a_mats)

    @property
    def dim_b(self) -> int:
        return len(self.b_mats)

    @property
    def rows_a(self) -> int:
        return self.a_mats.shape[1]

    @property
    def rows_b(self) -> int:
        return self.b_mats.shape[1]


def factorization_norm(f: GeneralFactorization) -> float:
    """sum_xy tr((A_x^dag A_x)^T (B_y^dag B_y)); the squared norm of the
    purification assembled from the factors."""
    return _sq_norm(f.a_mats, f.b_mats)


def reconstruct_from_factors(f: GeneralFactorization) -> DensityMatrix:
    """Density matrix encoded by a factorization.

    Evaluates the bilinear form tr((A_x'^dag A_x)^T (B_y'^dag B_y)) for
    every basis pair (``comp_reduction``); the result is psd by
    construction with trace equal to the factorization norm. The output is
    rescaled to unit trace, with a warning when the input deviates from
    normalization beyond 1e-8. A zero factorization raises InvalidInput.
    """
    rho, trace = comp_reduction(f.a_mats, f.b_mats)
    if abs(trace - 1.0) > 1e-8:
        warnings.warn(
            f"factorization norm {trace!r} deviates from 1; renormalizing",
            stacklevel=2,
        )
    return rho


def canonical_purification(rho: DensityMatrix) -> Purification:
    """Spectral purification with all purifying freedom on Alice's side.

    |psi> = sum_k sqrt(lambda_k) |e_k>_(AB) (x) |k>_aux on registers
    (A, A1, B, B1) where A1 is the aux register of dimension rank(rho) and
    B1 is trivial: the amplitudes are those of ``rho.factor``. Tracing out
    the aux registers reproduces rho. A state held as its factor
    (``form == "factor"``) gives one aux dimension per column of that
    factor instead, with the same Schmidt coefficients across the cut. The
    pair is read straight off the factor W: a[x, k, y] = W[(x, y), k] and
    b[y, 0, y'] = delta_yy', so the Schmidt rank is at most dim_b.
    """
    if not isinstance(rho, DensityMatrix):
        raise InvalidInput("expected a DensityMatrix")
    da, db, k = rho.dim_a, rho.dim_b, rho.factor.shape[1]
    a = np.transpose(rho.factor.reshape(da, db, k), (0, 2, 1))  # (x, aux, y)
    return Purification(a / float(np.linalg.norm(a)), np.eye(db).reshape(db, 1, db),
                        names=("A", "A1", "B", "B1"))


def factor_from_purification(p: Purification) -> GeneralFactorization:
    """Matrix families whose columns are the aux blocks of the
    coefficient-absorbed Schmidt vectors of the purification.

    r equals the Schmidt rank across the Alice|Bob cut;
    ``reconstruct_from_factors`` of the result equals the purification's
    reduction.
    """
    pair = p.schmidt_pair()
    return GeneralFactorization(r=pair.a.shape[2], a_mats=pair.a, b_mats=pair.b)


def q_upper_bound(
    rho: DensityMatrix, cfg: SolverConfig | None = None
) -> tuple[int, Purification]:
    """Seed-qubit upper bound with a purification witness.

    Uses ceil(log2) of the canonical purification's Schmidt rank. For
    classical states the psd-rank search provides an alternative witness;
    the smaller bound wins (the psd route is preferred on ties, since it
    comes with an exactly classical reduction). For non-classical mixed
    states the bound is an upper bound only, not the exact complexity.
    """
    purif = canonical_purification(rho)
    q_spectral = ceil_log2(purif.srank())
    if rho.is_classical:
        dist = validate_dist(rho.born_diagonal.reshape(rho.dim_a, rho.dim_b),
                             renormalize=True)
        report = psd_rank_search(dist, cfg)
        if report.witness is not None:
            q_psd = ceil_log2(report.upper)
            if q_psd <= q_spectral:
                return q_psd, synth_from_psd(dist, report.witness)
    return q_spectral, purif
