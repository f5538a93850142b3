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
from .errors import InvalidInput, NotNormalized
from .linalg import (
    DensityMatrix,
    RegisterState,
    absorbed_schmidt_vectors,
    as_complex_array,
    ceil_log2,
    comp_aux_dims,
    comp_reduction,
    eigh,
    rank_from_singulars,
    schmidt_rank,
)


@dataclass(frozen=True)
class GeneralFactorization:
    """Families {A_x} (dim_a of them, each k_a x r) and {B_y} (dim_b of
    them, each k_b x r). Normalized when the induced purification has
    unit norm; unnormalized inputs are accepted and rescaled downstream.
    """

    r: int
    a_mats: tuple[np.ndarray, ...]
    b_mats: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.r < 1:
            raise InvalidInput("factorization size r must be positive")
        a_mats = tuple(as_complex_array(a, f"A[{x}]") for x, a in enumerate(self.a_mats))
        b_mats = tuple(as_complex_array(b, f"B[{y}]") for y, b in enumerate(self.b_mats))
        if not a_mats or not b_mats:
            raise InvalidInput("both factor families must be nonempty")
        for fam, tag in ((a_mats, "A"), (b_mats, "B")):
            shape = fam[0].shape
            if len(shape) != 2 or shape[1] != self.r:
                raise InvalidInput(f"{tag} factors must be 2-D with {self.r} columns")
            for idx, mat in enumerate(fam):
                if mat.shape != shape:
                    raise InvalidInput(f"{tag}[{idx}] shape {mat.shape} differs "
                                       f"from {shape}")
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
        return self.a_mats[0].shape[0]

    @property
    def rows_b(self) -> int:
        return self.b_mats[0].shape[0]


def factorization_norm(f: GeneralFactorization) -> float:
    """sum_xy tr((A_x^dag A_x)^T (B_y^dag B_y)); the squared norm of the
    purification assembled from the factors."""
    sa = sum(a.conj().T @ a for a in f.a_mats)
    sb = sum(b.conj().T @ b for b in f.b_mats)
    return float(np.trace(sa.T @ sb).real)


def assemble_purification(f: GeneralFactorization) -> RegisterState:
    """Explicit pure state on (A, A1 | B, B1) whose reduction the
    factorization encodes: amplitudes sum_i A_x[:, i] (x) B_y[:, i] laid
    out on registers of dims (dim_a, k_a, dim_b, k_b). Not normalized."""
    a = np.stack(f.a_mats)  # (dim_a, k_a, r)
    b = np.stack(f.b_mats)
    amps = np.einsum("xai,ybi->xayb", a, b)
    return RegisterState(
        amps.reshape(-1),
        dims=(f.dim_a, f.rows_a, f.dim_b, f.rows_b),
        sides=("A", "A", "B", "B"),
        names=("A", "A1", "B", "B1"),
    )


def reconstruct_from_factors(f: GeneralFactorization) -> DensityMatrix:
    """Density matrix encoded by a factorization.

    Evaluates the bilinear form tr((A_x'^dag A_x)^T (B_y'^dag B_y)) for
    every basis pair; the result is Hermitian psd with trace equal to the
    factorization norm. The output is rescaled to unit trace, with a
    warning when the input deviates from normalization beyond 1e-8.
    """
    mat = comp_reduction(np.stack(f.a_mats), np.stack(f.b_mats))
    trace = float(np.trace(mat).real)
    if trace <= 0.0:
        raise InvalidInput("factorization encodes a non-positive trace")
    if abs(trace - 1.0) > 1e-8:
        warnings.warn(
            f"factorization norm {trace!r} deviates from 1; renormalizing",
            stacklevel=2,
        )
    return DensityMatrix(f.dim_a, f.dim_b, mat / trace)


@dataclass(frozen=True)
class Purification:
    """Normalized pure state with a declared Alice|Bob cut whose reduction
    to the computational registers (the first register on each side) is
    the state being purified."""

    state: RegisterState

    def __post_init__(self):
        comp_aux_dims(self.state)  # raises unless both sides hold registers
        norm = self.state.norm()
        if abs(norm - 1.0) > 1e-10:
            raise NotNormalized(f"purification norm {norm!r} deviates from 1")

    @property
    def dim_a(self) -> int:
        return comp_aux_dims(self.state)[0]

    @property
    def dim_b(self) -> int:
        return comp_aux_dims(self.state)[1]

    def reduction(self) -> DensityMatrix:
        """The purified state on (computational A) (x) (computational B),
        read off the Schmidt factors of the cut."""
        return DensityMatrix(self.dim_a, self.dim_b,
                             comp_reduction(*absorbed_schmidt_vectors(self.state)))

    def srank(self) -> int:
        return schmidt_rank(self.state)


def canonical_purification(rho: DensityMatrix) -> Purification:
    """Spectral purification with all purifying freedom on Alice's side.

    |psi> = sum_k sqrt(lambda_k) |e_k>_(AB) (x) |k>_aux on registers
    (A, A1, B, B1) where A1 is the aux register of dimension rank(rho) and
    B1 is trivial. Tracing out the aux registers reproduces rho.
    """
    if not isinstance(rho, DensityMatrix):
        raise InvalidInput("expected a DensityMatrix")
    vals, vecs = eigh(rho.mat)
    vals = np.clip(vals, 0.0, None)
    k = max(rank_from_singulars(vals), 1)
    da, db = rho.dim_a, rho.dim_b
    basis = vecs[:, :k].reshape(da, db, k)
    amps = np.transpose(basis * np.sqrt(vals[:k]), (0, 2, 1))  # (x, aux, y)
    amps = amps.reshape(da, k, db, 1)
    flat = amps.reshape(-1)
    flat = flat / float(np.linalg.norm(flat))
    state = RegisterState(
        flat, dims=(da, k, db, 1), sides=("A", "A", "B", "B"),
        names=("A", "A1", "B", "B1"),
    )
    return Purification(state)


def factor_from_purification(p: Purification) -> GeneralFactorization:
    """Matrix families whose columns are the aux blocks of the
    coefficient-absorbed Schmidt vectors of the purification.

    r equals the Schmidt rank across the Alice|Bob cut;
    ``reconstruct_from_factors`` of the result equals the purification's
    reduction.
    """
    a, b = absorbed_schmidt_vectors(p.state)
    return GeneralFactorization(r=a.shape[2], a_mats=tuple(a), b_mats=tuple(b))


def _is_classical(rho: DensityMatrix) -> bool:
    off = rho.mat - np.diag(np.diag(rho.mat))
    return float(np.abs(off).max(initial=0.0)) <= 1e-10


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
    if _is_classical(rho):
        diag = np.clip(np.real(np.diag(rho.mat)), 0.0, None)
        dist = validate_dist(diag.reshape(rho.dim_a, rho.dim_b), renormalize=True)
        report = psd_rank_search(dist, cfg)
        if report.witness is not None:
            q_psd = ceil_log2(report.upper)
            if q_psd <= q_spectral:
                return q_psd, Purification(synth_from_psd(dist, report.witness))
    return q_spectral, purif
