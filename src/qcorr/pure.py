"""Pure-state analysis for bipartite generation complexity.

A normalized bipartite pure state is summarized by its amplitude matrix
(the ``vec_inv`` image) and its Schmidt decomposition, an ``SvdResult`` of
that matrix from ``linalg.cut_svd``, the one dense Schmidt route, cached
on the state. The approximate rank of the amplitude matrix and the
approximate Schmidt rank of the state determine how many seed qubits are
needed to generate the state within a fidelity target, and the optimal
approximant is an explicit truncation of the Schmidt sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInput, NotNormalized
from .linalg import (
    DensityMatrix,
    RegisterState,
    SvdResult,
    as_complex_array,
    ceil_log2,
    cut_svd,
    rank_from_singulars,
    read_only_copy,
)

#: Additive slack, in favor of the smaller rank, applied to every
#: cumulative-weight threshold comparison. Keeps exact ties deterministic
#: under roundoff.
RANK_SLACK = 1e-12


@dataclass(frozen=True)
class PureState:
    """Normalized pure state on A (x) B, amplitude index ``x * dim_b + y``.

    ``amps`` is a read-only copy of the amplitudes given.
    """

    dim_a: int
    dim_b: int
    amps: np.ndarray

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise InvalidInput("state dimensions must be positive")
        vec = as_complex_array(self.amps, "state vector").reshape(-1)
        if vec.size != self.dim_a * self.dim_b:
            raise InvalidInput(
                f"amplitude length {vec.size} does not match "
                f"{self.dim_a} x {self.dim_b}"
            )
        norm = math.sqrt(np.vdot(vec, vec).real)
        if abs(norm - 1.0) > 1e-10:
            raise NotNormalized(f"state norm {norm!r} deviates from 1 beyond 1e-10")
        # Read-only, so that the cached Schmidt form stays valid.
        object.__setattr__(self, "amps", read_only_copy(vec))

    def to_density(self) -> DensityMatrix:
        """|psi><psi|, held as its factor: a read-only (d, 1) view of
        ``amps``, which this state has already checked and copied."""
        return DensityMatrix._of_factor(self.dim_a, self.dim_b, self.amps[:, None])

    @cached_property
    def _schmidt(self) -> SvdResult:
        """The state's one Schmidt form (``schmidt_decompose``): ``cut_svd``
        of its registers, cut to its rank, computed on first use, with
        read-only arrays."""
        res = cut_svd(self.to_registers())
        r = res.rank
        left = res.left[:, :r].copy()
        right = res.right[:, :r].conj()
        for i in range(r):
            k = int(np.argmax(np.abs(left[:, i])))
            pivot = left[k, i]
            phase = pivot / abs(pivot)
            left[:, i] *= phase.conjugate()
            right[:, i] *= phase
        # Phased on the product-form vectors conj(right), then conjugated
        # back exactly: rotating right by conj(phase) instead would flip
        # the sign of some zeros that ``schmidt --json`` prints.
        right = right.conj()
        left.flags.writeable = right.flags.writeable = False
        return SvdResult(left=left, singulars=read_only_copy(res.singulars[:r]), right=right)

    def to_registers(self) -> RegisterState:
        return RegisterState(
            self.amps, (self.dim_a, self.dim_b), ("A", "B"), ("A", "B")
        )


def vec_inv(psi: PureState) -> np.ndarray:
    """Amplitude matrix of a state: entry (x, y) is the amplitude of |x>|y>.

    The Frobenius norm of the result equals the state norm.
    """
    return psi.amps.reshape(psi.dim_a, psi.dim_b).copy()


def state_from_matrix(a) -> PureState:
    """Inverse of :func:`vec_inv`: wrap a unit-Frobenius-norm matrix."""
    arr = as_complex_array(a, "amplitude matrix")
    if arr.ndim != 2:
        raise InvalidInput("amplitude matrix must be 2-D")
    return PureState(arr.shape[0], arr.shape[1], arr.reshape(-1))


def tensor_product(psi: PureState, theta: PureState) -> PureState:
    """Joint state psi (x) theta on the combined cut (A, A1)|(B, B1)."""
    m = np.kron(vec_inv(psi), vec_inv(theta))
    return PureState(psi.dim_a * theta.dim_a, psi.dim_b * theta.dim_b, m.reshape(-1))


def schmidt_decompose(psi: PureState) -> SvdResult:
    """Schmidt decomposition with a canonical phase convention.

    The thin SVD of the amplitude matrix, vec_inv(psi) = left
    diag(singulars) right^dag, by ``cut_svd`` on its nonzero rows and
    columns, cut at the relative zero threshold: the Schmidt coefficients
    are ``singulars ** 2`` and psi = sum_i singulars[i] left_i (x)
    conj(right_i). Degenerate coefficients keep the SVD's ordering; each
    left vector is rotated so its largest-magnitude entry is real positive,
    with the compensating phase on the right vector, so decompositions are
    reproducible. A state is decomposed once: every call returns the same
    form, cached on ``psi``, whose arrays are read-only. Any input other
    than a PureState raises InvalidInput.
    """
    if not isinstance(psi, PureState):
        raise InvalidInput("expected a PureState")
    return psi._schmidt


def require_eps(eps: float) -> float:
    """Return an accuracy parameter eps after checking its domain [0, inf].

    The one check of eps, for fidelity slacks and squared distances alike:
    NaN and negative values raise InvalidInput.
    """
    if not eps >= 0.0:
        raise InvalidInput(f"eps must be a nonnegative number, got {eps!r}")
    return eps


def _kept_weight(eps: float) -> float:
    """Schmidt weight an approximant within fidelity 1 - eps must keep:
    (1 - eps)^2 below eps = 1, and 0 from there on, where the empty
    protocol suffices."""
    return (1.0 - eps) ** 2 if require_eps(eps) < 1.0 else 0.0


def _min_terms(cum: np.ndarray, target: float) -> int:
    """Minimal k with cum[k-1] >= target - RANK_SLACK, capped at len(cum)."""
    if target - RANK_SLACK <= 0.0:
        return 0
    idx = int(np.searchsorted(cum, target - RANK_SLACK, side="left"))
    return min(idx + 1, cum.size)


def rank_eps(a, eps: float) -> int:
    """Smallest rank of a matrix within squared Frobenius distance eps of ``a``.

    Requires ``a`` to have unit Frobenius norm (within 1e-9). Equals the
    minimal k whose leading cumulative squared singular values reach
    1 - eps; the best approximant of that rank is the truncated SVD.
    """
    arr = as_complex_array(a, "rank_eps input")
    if arr.ndim != 2 or arr.size == 0:
        raise InvalidInput("rank_eps expects a nonempty 2-D matrix")
    require_eps(eps)
    fro = float(np.linalg.norm(arr))
    if abs(fro - 1.0) > 1e-9:
        raise NotNormalized(f"Frobenius norm {fro!r} deviates from 1 beyond 1e-9")
    s = np.linalg.svd(arr, compute_uv=False)
    cum = np.cumsum(s**2)
    k = _min_terms(cum, 1.0 - eps)
    # A matrix is a zero-distance approximant of itself, so never exceed rank.
    return min(k, rank_from_singulars(s)) if k else 0


def srank_eps(psi: PureState, eps: float) -> int:
    """Approximate Schmidt rank: the smallest Schmidt rank among states
    within fidelity 1 - eps of ``psi``.

    Equals the minimal r' whose leading Schmidt coefficients sum to at
    least (1 - eps)^2. For 0 <= eps <= 1 it coincides with
    ``rank_eps(vec_inv(psi), 2*eps - eps**2)``; beyond 1 that distance
    shrinks again, while this returns 0 for every eps >= 1 (the empty
    protocol suffices).
    """
    return _min_terms(np.cumsum(schmidt_decompose(psi).singulars ** 2), _kept_weight(eps))


def q_eps(psi: PureState, eps: float) -> int:
    """Seed qubits needed to generate ``psi`` within fidelity 1 - eps.

    ceil(log2) of the approximate Schmidt rank. Mixed approximants give no
    advantage over pure ones, so this single number is the generation
    complexity of the state at accuracy eps.
    """
    return ceil_log2(srank_eps(psi, eps))


def _truncation(psi: PureState, eps: float) -> SvdResult:
    """Schmidt form of the approximant of ``build_approximant``: the
    r' = max(srank_eps(psi, eps), 1) leading Schmidt terms of psi with
    their coefficients renormalized, one column per kept term.
    ``sim.synth_pure_protocol`` builds its protocol straight from this
    form, so psi is decomposed once per protocol."""
    form = schmidt_decompose(psi)
    coeffs = form.singulars ** 2
    cum = np.cumsum(coeffs)
    r = max(_min_terms(cum, _kept_weight(eps)), 1)
    return SvdResult(left=form.left[:, :r], singulars=np.sqrt(coeffs[:r] / float(cum[r - 1])),
                     right=form.right[:, :r])


def build_approximant(psi: PureState, eps: float) -> tuple[PureState, float]:
    """Best low-Schmidt-rank approximant of ``psi`` at accuracy ``eps``.

    Truncates the Schmidt sum to r' = srank_eps(psi, eps) terms and
    renormalizes. Returns ``(phi, fid)`` where fid = |<psi|phi>| equals
    the square root of the retained coefficient mass and is >= 1 - eps.
    For eps >= 1 the single leading term is kept.
    """
    amps = _truncation(psi, eps).reconstruct().reshape(-1)
    phi = PureState(psi.dim_a, psi.dim_b, amps)
    fid = float(abs(np.vdot(psi.amps, phi.amps)))
    return phi, fid
