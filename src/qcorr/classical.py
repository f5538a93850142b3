"""Classical-distribution generation complexity.

A classical bipartite state is a probability matrix P. The number of
seed qubits needed to generate it is ceil(log2) of the psd-rank of P,
the smallest r admitting r x r Hermitian psd families {C_x}, {D_y} with
tr(C_x D_y) = P(x, y). Exact psd-rank is intractable in general, so this
module provides a certified lower bound, a multi-start Levenberg-Marquardt
solver that searches for witnesses, a synthesis step that turns a witness
into an explicit generating purification, and the reverse Gram extraction
that reads a witness back off any purification. The nonnegative rank, which
sets the randomized (classical-seed) complexity, is bracketed by the same
solver and the same bracketing loop: a nonnegative factorization is a psd
factorization with diagonal factors, and real diagonal starts stay diagonal.

Every bracket [lower, upper] is a bracket on the rank at tolerance ``tol``
(the solver's Frobenius residual, at most WITNESS_TOL): ``upper`` comes
with a witness whose trace products lie within ``tol`` of P, and every P'
within Frobenius distance ``tol`` of P has rank at least ``lower``. A
bracket is certified when the two meet. The one exception is a ``tol``
below roundoff, which no fit reaches: ``upper`` is then min(n, m), proved
by the exact diagonal construction, and its witness is off by rounding.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import FactorizationMismatch, InvalidInput, NotNormalized
from .linalg import (
    REL_RANK_TOL,
    Purification,
    _grams,
    _require_unit_norm,
    _sq_norm,
    _trace_form,
    as_complex_array,
    as_complex_stack,
    hermitize,
    read_only_copy,
    require_psd,
)

#: Entries of a distribution below this are clamped to exact zeros.
ZERO_CLAMP = 1e-14

#: Largest Frobenius residual a factorization may have and still count as
#: a witness: the default and the upper limit of ``SolverConfig.tol``, and
#: the residual above which ``synth_from_psd`` refuses a factorization.
WITNESS_TOL = 1e-7


@dataclass(frozen=True)
class DistMatrix:
    """Probability matrix: n x m, entries >= 0, summing to 1 within 1e-10,
    held as a read-only copy of the array given."""

    n: int
    m: int
    p: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.p, dtype=float)
        if arr.shape != (self.n, self.m) or self.n < 1 or self.m < 1:
            raise InvalidInput(f"distribution shape {arr.shape} does not match "
                               f"{self.n} x {self.m}")
        if not np.isfinite(arr).all():
            raise InvalidInput("distribution contains non-finite entries")
        if arr.min() < 0.0:
            raise InvalidInput("distribution contains negative entries")
        total = float(arr.sum())
        if abs(total - 1.0) > 1e-10:
            raise NotNormalized(f"distribution sums to {total!r}, not 1")
        object.__setattr__(self, "p", read_only_copy(arr))


def validate_dist(p, renormalize: bool = False) -> DistMatrix:
    """Validate a raw matrix as a probability distribution.

    Entries below ZERO_CLAMP (including roundoff negatives down to -1e-12)
    are clamped to zero. A total deviating from 1 by more than 1e-8 raises
    NotNormalized unless ``renormalize`` is set; the accepted matrix is
    always rescaled to sum exactly to 1.
    """
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise InvalidInput("distribution must be a nonempty 2-D matrix")
    if not np.isfinite(arr).all():
        raise InvalidInput("distribution contains non-finite entries")
    low = float(arr.min())
    if low < -1e-12:
        i, j = np.unravel_index(int(np.argmin(arr)), arr.shape)
        raise InvalidInput(f"negative entry {arr[i, j]!r} at row {i}, column {j}")
    arr = arr.copy()
    arr[arr < ZERO_CLAMP] = 0.0
    total = float(arr.sum())
    if total <= 0.0:
        raise InvalidInput("distribution is identically zero")
    if abs(total - 1.0) > 1e-8 and not renormalize:
        raise NotNormalized(
            f"distribution sums to {total!r}; pass renormalize=True to rescale"
        )
    arr = arr / total
    return DistMatrix(arr.shape[0], arr.shape[1], arr)


#: Added to every off-diagonal term of the fidelity Gram matrix, so that
#: rounding in the Bhattacharyya sums can only loosen the fidelity bound.
FIDELITY_ROUNDOFF = 1e-12


def rank_at_tol(p: DistMatrix, tol: float = WITNESS_TOL) -> int:
    """Number of singular values of P above ``tol``, and above REL_RANK_TOL
    times the largest one (the rounding floor of ``matrix_rank``).

    By Weyl's inequality sigma_i(P') >= sigma_i(P) - ||P' - P||_F, so every
    P' within Frobenius distance ``tol`` of P has at least this rank.
    """
    if not isinstance(p, DistMatrix):
        raise InvalidInput("expected a DistMatrix")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidInput(f"tol must be finite and >= 0, got {tol!r}")
    s = np.linalg.svd(p.p, compute_uv=False)
    return int(np.count_nonzero(s > max(tol, REL_RANK_TOL * float(s[0]))))


def _fidelity_gram(P: np.ndarray, tol: float) -> np.ndarray:
    """Upper bounds g[i, j] >= F_B(p'_i, p'_j)^2 over every P' within
    Frobenius distance ``tol`` of P, for the rows i of P with sum above
    2 sqrt(m) tol; see ``psd_rank_lower_bound``.
    """
    m = P.shape[1]
    sums = P.sum(axis=1)
    keep = sums > 2.0 * math.sqrt(m) * tol
    u = np.sqrt(P[keep] / sums[keep, None])
    delta = np.sqrt(2.0 * math.sqrt(m) * tol / sums[keep])
    fid = u @ u.T
    grow = 2.0 * (delta[:, None] + delta[None, :] + np.outer(delta, delta))
    g = np.minimum(fid * fid + grow + FIDELITY_ROUNDOFF, 1.0)
    np.fill_diagonal(g, 1.0)
    return g


def _best_subset_ratio(*grams: np.ndarray) -> float:
    """Largest k^2 / sum(g[S, S]) over the row subsets S of size k grown
    greedily from each row of each Gram g: each step adds, to every subset
    at once, the row of its own g that raises its sum least, ties going to
    the lowest row. At least 1, the value of one row.

    The Grams are laid out as one block-diagonal matrix with +inf off the
    blocks and grown in one loop of (largest size - 1) steps. A subset only
    ever adds a row of its own block, since +inf is never the least cost
    while a finite one is left; a subset whose block is used up gets total
    +inf and drops out of the min. The value is the max of the values of
    the Grams taken alone, bit for bit.
    """
    sizes = [g.shape[0] for g in grams]
    k = sum(sizes)
    seeds = np.arange(k)
    double = np.full((k, k), np.inf)
    start = 0
    for g, size in zip(grams, sizes):
        double[start:start + size, start:start + size] = 2.0 * g
        start += size
    # twice[s] = 2 x (sum of the rows of g in the subset grown from s), +inf
    # on the rows already in it and off its block; doubling is exact, so
    # cost = twice + 1 is the raise in the subset's sum, bit for bit.
    twice = double.copy()
    twice[seeds, seeds] = np.inf
    cost = np.empty_like(twice)
    totals = np.ones(k)
    best = 1.0
    for size in range(2, max(sizes, default=0) + 1):
        np.add(twice, 1.0, out=cost)
        add = cost.argmin(axis=1)
        totals += cost[seeds, add]
        twice[seeds, add] = np.inf
        twice += double[add]
        best = max(best, size * size / float(totals.min()))
    return best


#: Relative margin by which the closed-form cap of ``_with_fidelity`` must
#: clear the rank bound before the greedy subset search is skipped; it
#: covers rounding in the cap and in the greedy's float totals.
CAP_MARGIN = 1e-9


def _subset_ratio_cap(*grams: np.ndarray) -> float:
    """The largest K / (1 + (K - 1) g_min) over the Grams, K a Gram's row
    count and g_min its least off-diagonal entry (1 when K <= 1); see
    ``_with_fidelity``. Entries are at most 1 on a unit diagonal, so g_min
    is g.min().
    """
    return max((g.shape[0] / (1.0 + (g.shape[0] - 1) * float(g.min()))
                for g in grams if g.shape[0] > 1), default=1.0)


def _with_fidelity(bound: int, p: DistMatrix, tol: float) -> tuple[int, str]:
    """The larger of a rank ``bound`` and the fidelity bound at ``tol``, and
    the name of the one that set it ("rank" on ties). No bound can prove more
    than min(n, m), the size of the exact diagonal construction, so at that
    cap the fidelity bound is not computed.

    Cap. A subset S of k <= K rows of a K-row Gram with least off-diagonal
    entry g_min has sum(g[S, S]) >= k + k (k - 1) g_min, so its ratio is at
    most k / (1 + (k - 1) g_min), which grows with k since g_min <= 1: no
    subset, greedy or not, beats K / (1 + (K - 1) g_min). When that cap of
    both Grams, raised by CAP_MARGIN, is at most ``bound``, the fidelity
    bound cannot exceed ``bound`` and the greedy search is skipped; the
    margin covers rounding, so the result is the greedy's, bit for bit.
    """
    if bound < min(p.n, p.m):
        grams = _fidelity_gram(p.p, tol), _fidelity_gram(p.p.T, tol)
        if _subset_ratio_cap(*grams) * (1.0 + CAP_MARGIN) <= bound:
            return bound, "rank"
        fidelity = math.ceil(_best_subset_ratio(*grams))
        if fidelity > bound:
            return fidelity, "fidelity"
    return bound, "rank"


def _lower_bounds(p: DistMatrix, tol: float) -> tuple[int, int, str]:
    """The rank of P at ``tol``, the psd-rank lower bound at ``tol`` and the
    bound that set it ("rank" or "fidelity"); see ``psd_rank_lower_bound``.
    """
    rank = rank_at_tol(p, tol)
    weyl = math.isqrt(rank - 1) + 1 if rank >= 1 else 1
    return (rank, *_with_fidelity(weyl, p, tol))


def psd_rank_lower_bound(p: DistMatrix, tol: float = WITNESS_TOL) -> int:
    """Lower bound on the psd-rank of every P' within Frobenius distance
    ``tol`` of P: the larger of a rank bound and a fidelity bound.

    Rank (Weyl). tr(C_x D_y) is bilinear in the r^2-dimensional
    vectorizations of the factors, so rank(P') <= r^2 for any size-r psd
    factorization of P'. Since rank(P') >= ``rank_at_tol(p, tol)``, the
    psd-rank is at least ceil(sqrt(rank_at_tol(p, tol))).

    Fidelity (Bhattacharyya). Take a size-r factorization of P', the
    normalized rows p'_x = P'(x, .) / P'_x with P'_x = sum_y P'(x, y), and
    D = sum_y D_y. Then sigma_x = D^1/2 C_x D^1/2 / P'_x is a density
    matrix of rank <= r, and E_y = D^-1/2 D_y D^-1/2 (on the support of D)
    is a POVM with tr(sigma_x E_y) = p'_x(y). Measuring cannot lower the
    fidelity, and F(sigma, tau)^2 >= tr(sigma tau), so for any k rows S

        sum_{i,j in S} F_B(p'_i, p'_j)^2 >= tr((sum_i sigma_i)^2) >= k^2 / r,

    with F_B(p, q) = sum_y sqrt(p(y) q(y)) the Bhattacharyya coefficient:
    r >= k^2 / sum_{i,j in S} F_B(p'_i, p'_j)^2. The same holds for P'^T.

    Margin. P' is only known to lie within ``tol`` of P, and is nonnegative
    (its entries are traces of products of psd matrices). Let u_i =
    sqrt(p_i) entrywise and R_i the i-th row sum of P. Since
    (sqrt a - sqrt b)^2 <= |a - b|, and |R'_i - R_i| <= ||P'_i - P_i||_1,
    ||u'_i - u_i||^2 <= ||p'_i - p_i||_1 <= 2 ||P'_i - P_i||_1 / R_i
    <= 2 sqrt(m) tol / R_i =: delta_i^2. As F_B(p_i, p_j) = <u_i, u_j> with
    unit vectors, F_B moves by at most delta_i + delta_j + delta_i delta_j,
    and its square (at most 1) by at most twice that. So each off-diagonal
    term is bounded by min(F_B^2 + 2 (delta_i + delta_j + delta_i delta_j)
    + FIDELITY_ROUNDOFF, 1); diagonal terms are exactly 1. Only rows with
    R_i > 2 sqrt(m) tol enter, so that the row of P' cannot vanish.

    Subsets. Any S gives a valid bound. The subsets tried are those grown
    greedily from each row of P and of P^T; each ends at the full row set.

    Cap. The psd-rank is at most min(n, m), so when the rank bound reaches
    it the fidelity bound is not computed. Below that, each Gram caps every
    subset's ratio in closed form: with K rows and least off-diagonal term
    g_min, sum_{i,j in S} g_ij >= k + k (k - 1) g_min for |S| = k, so
    k^2 / sum <= k / (1 + (k - 1) g_min) <= K / (1 + (K - 1) g_min), the
    last step since g_min <= 1. When the larger cap times 1 + CAP_MARGIN is
    at most the rank bound, no subset can raise the bound and the greedy
    is not run; the margin covers rounding in the cap and in the greedy's
    sums, so the bound and the name that set it do not change.
    """
    return _lower_bounds(p, tol)[1]


#: Levenberg-Marquardt damping in ``_descend``: the first lam is LM_LAMBDA0
#: times the mean diagonal of J J^T; accepted steps divide it by LM_DOWN,
#: rejected ones multiply it by LM_UP.
LM_LAMBDA0 = 1e-3
LM_DOWN = 3.0
LM_UP = 4.0
#: lam never drops below LM_LAMBDA_FLOOR times its first value, so J J^T +
#: lam I stays invertible when J J^T is singular (zero rows of P).
LM_LAMBDA_FLOOR = 1e-15
#: A start has stalled when lam passes LM_LAMBDA_CAP times its first value,
#: or when STALL_WINDOW accepted steps lower the squared residual by less
#: than the fraction STALL_DROP.
LM_LAMBDA_CAP = 1e12
STALL_WINDOW = 10
STALL_DROP = 1e-3
#: A start stops once its squared residual is below this.
VALUE_FLOOR = 1e-28


def _require_int(value, name: str, least: int) -> None:
    """Raise InvalidInput naming ``name`` unless ``value`` is a Python or
    numpy integer, not a bool, of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InvalidInput(f"{name} must be >= {least}, got {value!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the factorization searches; one seed drives all randomness.

    ``starts`` is the number of seeded random Levenberg-Marquardt starts
    per size, for the psd fits of ``psd_fit`` and the nonnegative fits of
    ``nonneg_rank_bounds`` alike; ``max_iters`` caps the trial steps,
    accepted or rejected, of one start; ``tol`` is the Frobenius residual
    below which a fit counts as a witness, at most WITNESS_TOL, so that
    every witness can be synthesized. Invalid values raise InvalidInput
    naming the field.
    """

    starts: int = 16
    max_iters: int = 5000
    tol: float = WITNESS_TOL
    seed: int = 0

    def __post_init__(self):
        for field, least in (("starts", 0), ("max_iters", 1), ("seed", 0)):
            _require_int(getattr(self, field), f"SolverConfig.{field}", least)
        if not isinstance(self.tol, numbers.Real) or not 0.0 < self.tol <= WITNESS_TOL:
            raise InvalidInput(
                f"SolverConfig.tol must be a number in (0, {WITNESS_TOL:g}], got {self.tol!r}")


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True)
class PsdFactorization:
    """Nonempty families {C_x}, {D_y} of r x r Hermitian psd matrices, each
    held as one read-only complex stack (``linalg.as_complex_stack``), with
    the Frobenius residual of [tr(C_x D_y) - P(x, y)] against their target.
    """

    r: int
    cs: np.ndarray
    ds: np.ndarray
    residual: float

    def __post_init__(self):
        self._settle(psd=True)

    @classmethod
    def _built(cls, r: int, cs: np.ndarray, ds: np.ndarray, residual: float) -> "PsdFactorization":
        """A factorization the library built psd, without the psd check.

        Every caller must pass complex Hermitian matrices of the form
        E^dag E, computed in floating point and hermitized: their least
        eigenvalue is then within roundoff of zero, far inside
        -EIG_CLAMP_TOL. The ``r``, shape and residual checks still run.
        """
        fact = object.__new__(cls)
        object.__setattr__(fact, "r", r)
        object.__setattr__(fact, "cs", cs)
        object.__setattr__(fact, "ds", ds)
        object.__setattr__(fact, "residual", residual)
        fact._settle(psd=False)
        return fact

    def _settle(self, psd: bool) -> None:
        if self.r < 1:
            raise InvalidInput("factorization size r must be positive")
        cs, ds = as_complex_stack(self.cs, "C"), as_complex_stack(self.ds, "D")
        for fam, tag in ((cs, "C"), (ds, "D")):
            if fam.shape[1:] != (self.r, self.r):
                raise InvalidInput(f"{tag}[0] has shape {fam.shape[1:]}, "
                                   f"expected {(self.r, self.r)}")
            if psd:
                for idx, mat in enumerate(fam):
                    require_psd(mat, name=f"{tag}[{idx}]")
        if self.residual < 0.0 or not math.isfinite(self.residual):
            raise InvalidInput("residual must be finite and nonnegative")
        object.__setattr__(self, "cs", cs)
        object.__setattr__(self, "ds", ds)

    @property
    def n(self) -> int:
        return len(self.cs)

    @property
    def m(self) -> int:
        return len(self.ds)

    def trace_products(self) -> np.ndarray:
        """The bilinear form t[x, y] = tr(C_x D_y), real nonnegative."""
        return _trace_form(self.cs, self.ds)


@dataclass(frozen=True)
class RankReport:
    """Bracketing [lower, upper] for a rank quantity; ``certified`` only
    when the bracket is tight. ``lower_by`` names the bound that set
    ``lower``: "rank" (the rank of P at the solver's tol) or "fidelity"
    (the Bhattacharyya bound of ``psd_rank_lower_bound``). ``witness`` is
    the fit of size ``upper``; it realizes the upper bound when its
    residual is below the solver's tol.
    """

    lower: int
    upper: int
    status: str
    lower_by: str
    witness: PsdFactorization | None = None

    def __post_init__(self):
        if self.lower < 1 or self.upper < self.lower:
            raise InvalidInput("rank bracket must satisfy 1 <= lower <= upper")
        if self.status not in ("certified", "heuristic"):
            raise InvalidInput(f"unknown status {self.status!r}")
        if self.lower_by not in ("rank", "fidelity"):
            raise InvalidInput(f"unknown lower bound {self.lower_by!r}")
        if self.status == "certified" and self.lower != self.upper:
            raise InvalidInput("certified reports require lower == upper")


def _jacobian(
    e: np.ndarray, f: np.ndarray, c: np.ndarray, d: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Half the Jacobian of t[x, y] = tr(C_x D_y) with respect to E and F.

    Returns (ke, kf) of shapes (n, m, r, r) and (m, n, r, r): ke[x, y] =
    E_x D_y is half the derivative of t[x, y] with respect to E_x and
    kf[y, x] = F_y C_x half the one with respect to F_y. The real part
    holds the derivatives with respect to the real coordinates, the
    imaginary part those with respect to the imaginary coordinates.
    t[x, y] does not depend on E_x' or F_y' for x' != x, y' != y. Both come
    from broadcast products, each laid out by the factor it differentiates,
    so that each E_x's and each F_y's block set is contiguous.
    """
    return e[:, None] @ d[None], f[:, None] @ c[None]


def _residual(P: np.ndarray, ef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Gram blocks of a parameter stack ef, E_x = ef[x] and F_y =
    ef[n + y], in one batched product, and the residuals tr(C_x D_y) -
    P(x, y)."""
    grams = _grams(ef)
    return grams, _trace_form(grams[:len(P)], grams[len(P):]) - P


def _descend(
    P: np.ndarray, ef0: np.ndarray, cfg: SolverConfig
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Levenberg-Marquardt on the n*m residuals tr(C_x D_y) - P(x, y) over
    the real and imaginary parts of E and F, held as one (n + m, r, r)
    stack ``ef0``: E_x = ef0[x], F_y = ef0[n + y].

    The step is delta = -J^T (J J^T + lam I)^-1 res. A step is accepted
    when it lowers the squared residual; lam is divided by LM_DOWN after an
    accepted step and multiplied by LM_UP after a rejected one, or when
    J J^T + lam I is singular in floating point. It is taken with the half
    Jacobian K = J / 2 of ``_jacobian``: w solves (K K^T + lam' I) w = res,
    lam' = lam / 4, and delta = -K^T (w / 2). J J^T, lam, its floor and its
    cap all scale by exactly 4 and w by exactly 1/4, so the step is J's,
    bit for bit. Real diagonal E and F give real diagonal J, so every step
    keeps them real diagonal: from such a start this is Levenberg-Marquardt
    on the nonnegative factorization P ~ W H with W[x, i] = E_x[i, i]^2 and
    H[i, y] = F_y[i, i]^2. The start stops when the squared residual is
    below VALUE_FLOOR, when it stalls (lam passes LM_LAMBDA_CAP times its
    first value, or STALL_WINDOW accepted steps lower it by less than the
    fraction STALL_DROP), or after ``cfg.max_iters`` trial steps, accepted
    or not. Returns the final stack, its Gram blocks and the squared
    residual after every accepted step, a non-increasing sequence.
    """
    n, m = P.shape
    ef = ef0.astype(np.complex128, copy=False)
    cd, resid = _residual(P, ef)
    history = [float((resid * resid).sum())]
    if history[-1] < VALUE_FLOOR:  # an exact start: no solver state to build
        return ef, cd, history
    rows, cols, diag = np.arange(n), np.arange(m), np.arange(n * m)
    step = np.empty((n + m, 2 * ef.shape[1] * ef.shape[2]))
    lam = floor = cap = None
    accepted = True

    for _ in range(cfg.max_iters):
        if accepted:
            ke, kf = _jacobian(ef[:n], ef[n:], cd[:n], cd[n:])
            # The rows of K in real coordinates (real and imaginary parts
            # side by side), grouped by E_x and by F_y. (K K^T)[(x, y),
            # (x', y')] couples residuals through a shared E_x (x = x') or a
            # shared F_y (y = y'): one batched product per block set.
            ka = ke.reshape(n, m, -1).view(np.float64)
            kb = kf.reshape(m, n, -1).view(np.float64)
            kkt = np.zeros((n, m, n, m))
            kkt[rows, :, rows, :] = ka @ ka.swapaxes(1, 2)
            kkt[:, cols, :, cols] += kb @ kb.swapaxes(1, 2)
            kkt = kkt.reshape(n * m, n * m)
            if lam is None:
                scale = float(np.trace(kkt)) / (n * m)
                if scale <= 0.0:  # J = 0: a stationary point
                    break
                lam = LM_LAMBDA0 * scale
                floor, cap = LM_LAMBDA_FLOOR * lam, LM_LAMBDA_CAP * lam
        shifted = kkt.copy()
        shifted[diag, diag] += lam
        try:
            half = 0.5 * np.linalg.solve(shifted, resid.reshape(-1)).reshape(n, m)
        except np.linalg.LinAlgError:
            # K K^T can be singular (diagonal starts have at most r(n+m-1)
            # independent columns), and lam near its floor is lost in
            # rounding: reject the step so that lam grows.
            value = math.inf
        else:
            # The step K^T (w / 2), per E_x and per F_y.
            np.matmul(half[:, None], ka, out=step[:n, None])
            np.matmul(half.T[:, None], kb, out=step[n:, None])
            ef_try = ef - step.view(np.complex128).reshape(ef.shape)
            cd_try, r_try = _residual(P, ef_try)
            value = float((r_try * r_try).sum())
        accepted = value < history[-1]
        if accepted:
            ef, cd, resid = ef_try, cd_try, r_try
            history.append(value)
            lam = max(lam / LM_DOWN, floor)
            if value < VALUE_FLOOR or (
                    len(history) > STALL_WINDOW
                    and value > (1.0 - STALL_DROP) * history[-1 - STALL_WINDOW]):
                break
        else:
            lam *= LM_UP
            if lam > cap:
                break
    return ef, cd, history


def _witness(
    e: np.ndarray, f: np.ndarray, P: np.ndarray, grams: np.ndarray | None = None
) -> PsdFactorization:
    """The factorization C_x = E_x^dag E_x, D_y = F_y^dag F_y, with its
    Frobenius residual against P. E_x and F_y may be k x r. ``grams``, when
    given, holds those Gram blocks already stacked, C_x then D_y, and is
    read instead of recomputed."""
    n = e.shape[0]
    if grams is None:
        grams = np.concatenate([_grams(e), _grams(f)])
    grams = hermitize(grams)
    residual = float(np.linalg.norm(_trace_form(grams[:n], grams[n:]) - P))
    return PsdFactorization._built(e.shape[-1], grams[:n], grams[n:], residual)


def _random_start(
    rng: np.random.Generator, n: int, m: int, r: int
) -> tuple[np.ndarray, np.ndarray]:
    scale = (1.0 / (n * m)) ** 0.25 / math.sqrt(r)
    e = scale * (rng.standard_normal((n, r, r)) + 1j * rng.standard_normal((n, r, r)))
    f = scale * (rng.standard_normal((m, r, r)) + 1j * rng.standard_normal((m, r, r)))
    return e, f


def _random_diagonal_start(
    rng: np.random.Generator, n: int, m: int, r: int
) -> tuple[np.ndarray, np.ndarray]:
    # Real diagonal factors: the nonnegative factorization W H with
    # W[x, i] = E_x[i, i]^2 and H[i, y] = F_y[i, i]^2.
    scale = (1.0 / (n * m * r)) ** 0.25
    diag = np.arange(r)
    e = np.zeros((n, r, r))
    f = np.zeros((m, r, r))
    e[:, diag, diag] = scale * rng.uniform(0.0, 1.0, (n, r))
    f[:, diag, diag] = scale * rng.uniform(0.0, 1.0, (m, r))
    return e, f


def _exact_start(P: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The closed-form size-r factorization, real diagonal so that the
    nonnegative fits share it, or None when 1 < r < min(n, m).

    At r = 1 the square roots of the marginals, E_x = sqrt(P_A(x)) and
    F_y = sqrt(P_B(y)), exact on every rank-one P, which is P_A (x) P_B;
    ``_bracket`` tries r = 1 only when P is within ``tol`` of rank one. At
    r >= min(n, m) the diagonal construction, exact on every P: the smaller
    side gets basis projectors, the other diagonal square roots of its
    rows/columns of P.
    """
    n, m = P.shape
    if r == 1 < min(n, m):
        return (np.sqrt(P.sum(axis=1)).reshape(n, 1, 1).astype(np.complex128),
                np.sqrt(P.sum(axis=0)).reshape(m, 1, 1).astype(np.complex128))
    if r < min(n, m):
        return None
    e = np.zeros((n, r, r), dtype=np.complex128)
    f = np.zeros((m, r, r), dtype=np.complex128)
    if m <= n:
        diag = np.arange(m)
        e[:, diag, diag] = np.sqrt(P)
        f[diag, diag, diag] = 1.0
    else:
        diag = np.arange(n)
        e[diag, diag, diag] = 1.0
        f[:, diag, diag] = np.sqrt(P.T)
    return e, f


def _multistart(
    P: np.ndarray,
    r: int,
    cfg: SolverConfig,
    random_start,
) -> PsdFactorization:
    """Best size-r factorization over the closed-form start of
    ``_exact_start`` (when r = 1 or r >= min(n, m)) and ``cfg.starts``
    draws of ``random_start``, in that order. Stops at the first start whose
    residual is below ``cfg.tol``; otherwise the best start wins, ties going
    to the lowest start index. An exact closed-form start takes no step:
    ``_descend`` stops at its first evaluation and hands back the Grams
    that the witness reads. With no start to run
    (``cfg.starts == 0`` and 1 < r < min(n, m)) it returns the zero
    factors, whose residual is the norm of P.
    """
    n, m = P.shape
    # Zero rows/columns impose no constraint; their factors are pinned to
    # zero, in one stack with E_x at x and F_y at n + y.
    zero = np.concatenate([P.sum(axis=1), P.sum(axis=0)]) <= 0.0

    def stacked(e0, f0):
        ef0 = np.concatenate([e0, f0])
        ef0[zero] = 0.0
        return ef0

    def starts():
        # Built lazily: the search often stops before the later starts.
        exact = _exact_start(P, r)
        if exact is not None:
            yield stacked(*exact)
        rng = np.random.default_rng(cfg.seed)
        for _ in range(cfg.starts):
            yield stacked(*random_start(rng, n, m, r))

    best_val = math.inf
    best_ef = best_grams = np.zeros((n + m, r, r))  # the zero factors' Grams are zero
    for ef0 in starts():
        ef, grams, history = _descend(P, ef0, cfg)
        if history[-1] < best_val:
            best_val = history[-1]
            best_ef, best_grams = ef, grams
        if best_val < cfg.tol * cfg.tol:
            break
    return _witness(best_ef[:n], best_ef[n:], P, best_grams)


def psd_fit(
    p: DistMatrix,
    r: int,
    cfg: SolverConfig | None = None,
) -> PsdFactorization:
    """Best size-r psd factorization found by seeded multi-start
    Levenberg-Marquardt.

    Parameterizing C_x = E_x^dag E_x and D_y = F_y^dag F_y keeps the
    factors psd without any projection; each start runs a
    Levenberg-Marquardt least-squares solve on the n*m residuals
    tr(C_x D_y) - P(x, y) until its squared residual is below 1e-28, it
    stalls, or it has taken ``cfg.max_iters`` trial steps. A closed-form
    start is tried first: the exact diagonal construction when
    r >= min(n, m), the square roots of the marginals (exact on a product
    distribution) when r = 1; then ``cfg.starts`` random complex starts.
    The search stops at the first start whose residual is below
    ``cfg.tol``; otherwise the best start wins, ties going to the lowest
    start index. With no start to run (``cfg.starts == 0`` and
    1 < r < min(n, m)) the zero factors are returned. Deterministic given
    ``cfg.seed``.
    """
    if not isinstance(p, DistMatrix):
        raise InvalidInput("expected a DistMatrix")
    _require_int(r, "factorization size r", 1)
    return _multistart(p.p, r, cfg or DEFAULT_CONFIG, _random_start)


def _bracket(lower: int, lower_by: str, rmax: int, fit, tol: float) -> RankReport:
    """Try sizes lower..rmax upward; the first fit with residual below
    ``tol`` sets the upper bound and is the witness. Certified iff that
    size is ``lower``.
    """
    for r in range(lower, rmax + 1):
        fact = fit(r)
        if fact.residual < tol:
            break
    # Falls through with r = rmax = min(n, m) only when no fit reaches tol,
    # that is when tol is below roundoff: the exact diagonal start at
    # min(n, m) leaves only rounding, and that size is proved. The last fit
    # is reported as the witness.
    status = "certified" if r == lower else "heuristic"
    return RankReport(lower=lower, upper=r, status=status, lower_by=lower_by,
                      witness=fact)


def psd_rank_search(p: DistMatrix, cfg: SolverConfig | None = None) -> RankReport:
    """Bracket the psd-rank of P at ``cfg.tol`` between
    ``psd_rank_lower_bound(p, cfg.tol)`` and the smallest size at which
    ``psd_fit`` finds a witness.

    Sizes are tried upward from the lower bound; a size succeeds when the
    residual drops below ``cfg.tol``. The exact diagonal construction
    guarantees success at r = min(n, m), and the marginal start settles a
    product distribution at r = 1. The report is certified only when
    the first success equals the lower bound; the generation complexity in
    seed qubits is ceil(log2(upper)).
    """
    cfg = cfg or DEFAULT_CONFIG
    _, lower, lower_by = _lower_bounds(p, cfg.tol)
    return _bracket(lower, lower_by, min(p.n, p.m),
                    lambda r: psd_fit(p, r, cfg), cfg.tol)


def nonneg_rank_bounds(p: DistMatrix, cfg: SolverConfig | None = None) -> RankReport:
    """Bracket the nonnegative rank of P.

    A nonnegative factorization is a psd factorization with diagonal
    factors, so the fits are the Levenberg-Marquardt starts of ``psd_fit``
    from the closed-form starts of ``psd_fit`` (real diagonal too) and
    ``cfg.starts`` random real diagonal starts, all of which stay diagonal
    (see ``_descend``); ``max_iters`` and ``tol`` apply as there. With no
    start to run (``cfg.starts == 0`` and 1 < r < min(n, m)) a size gets
    the zero factors. The lower bound holds at ``cfg.tol``: the larger of
    ``rank_at_tol(p, cfg.tol)`` and ``psd_rank_lower_bound(p, cfg.tol)``,
    since the nonnegative rank is at least the psd-rank; at min(n, m) the
    fidelity bound is not computed. Sizes are tried upward from it, and the
    exact diagonal construction guarantees success at min(n, m). The witness
    has diagonal C_x and D_y. The randomized generation complexity in seed
    bits is ceil(log2(upper)).
    """
    cfg = cfg or DEFAULT_CONFIG
    # The Weyl bound is at most the rank, so the psd-rank bound can only
    # raise the rank through its fidelity half.
    lower, lower_by = _with_fidelity(rank_at_tol(p, cfg.tol), p, cfg.tol)
    return _bracket(lower, lower_by, min(p.n, p.m),
                    lambda r: _multistart(p.p, r, cfg, _random_diagonal_start),
                    cfg.tol)


def synth_from_psd(p: DistMatrix, f: PsdFactorization) -> Purification:
    """Generating purification of the classical state of P from a psd witness.

    Returns the pair a[x, (x', i), j] = delta_xx' sqrt(C_x^T)[i, j] and
    b[y, (y', i), j] = delta_yy' sqrt(D_y)[i, j], scaled to unit norm, on
    registers (A, A', A1 | B, B', B1) of dims (n, n, r, m, m, r). Its
    reduction to (A, B) is exactly the classical state with diagonal
    tr(C_x D_y), and its Schmidt rank across the Alice|Bob cut is at most r.
    A file holds the pair (``general_factorization``, as ``synth
    --out-state`` writes it); the dense state is built only on request
    (``Purification.to_state``).
    """
    if not isinstance(p, DistMatrix):
        raise InvalidInput("expected a DistMatrix")
    if f.n != p.n or f.m != p.m:
        raise InvalidInput(f"factorization is {f.n} x {f.m}, distribution "
                           f"is {p.n} x {p.m}")
    if f.residual > WITNESS_TOL:
        raise FactorizationMismatch(
            f"residual {f.residual:.3e} exceeds {WITNESS_TOL:g}; refusing to synthesize"
        )
    n, m, r = p.n, p.m, f.r
    # One stacked eigh for the square roots of every C_x^T and D_y, each
    # checked psd when the factorization was built: clamp and take roots.
    vals, vecs = np.linalg.eigh(np.concatenate([f.cs.transpose(0, 2, 1), f.ds]))
    roots = (vecs * np.sqrt(np.clip(vals, 0.0, None))[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
    v, w = roots[:n], roots[n:]  # v[x, :, i] = i-th column of sqrt(C_x^T)
    # The norm of sum_i v[:, :, i] (x) w[:, :, i], from its two r x r Grams.
    norm = math.sqrt(max(_sq_norm(v, w), 0.0))
    if norm <= 0.0:
        raise FactorizationMismatch("factorization synthesizes the zero vector")
    a = np.zeros((n, n, r, r), dtype=np.complex128)
    b = np.zeros((m, m, r, r), dtype=np.complex128)
    a[np.arange(n), np.arange(n)] = v / norm
    b[np.arange(m), np.arange(m)] = w
    return Purification(
        a.reshape(n, n * r, r), b.reshape(m, m * r, r),
        dims_a=(n, n, r), dims_b=(m, m, r),
        names=("A", "A'", "A1", "B", "B'", "B1"),
    )


def gram_extract(purif: Purification) -> PsdFactorization:
    """Read a psd factorization off a purification.

    With coefficient-absorbed Schmidt vectors v_x^i (the aux slice of the
    i-th left vector at computational index x) and w_y^i on the right, the
    Gram families C_x(j, i) = <v_x^j|v_x^i> and D_y(i, j) = <w_y^j|w_y^i>
    are psd and reproduce the computational-basis outcome probabilities as
    tr(C_x D_y). The vectors are read straight off ``purif.schmidt``
    (v = left sqrt(s), w = right sqrt(s), the pair of ``schmidt_pair`` with
    Bob's side conjugated) and checked as that pair would be: finite, and of
    unit norm within 1e-10 (NotNormalized otherwise). The residual is taken
    against the distribution of the held pair, P(x, y) = sum_ij
    (a_x^dag a_x)[j, i] (b_y^dag b_y)[j, i], so it cross-checks the Schmidt
    form. Any input other than a Purification raises InvalidInput; a dense
    state goes through ``Purification.from_state`` first.
    """
    if not isinstance(purif, Purification):
        raise InvalidInput("expected a Purification")
    # P(x, y) = tr(G_x G'_y^T) with G_x = a_x^dag a_x and G'_y = b_y^dag b_y.
    P = _trace_form(_grams(purif.a), _grams(purif.b).swapaxes(1, 2))
    res = purif.schmidt
    root = np.sqrt(res.singulars)
    v = as_complex_array(res.left * root, "Schmidt vectors").reshape(*purif.a.shape[:2], -1)
    w = as_complex_array(res.right * root, "Schmidt vectors").reshape(*purif.b.shape[:2], -1)
    _require_unit_norm(v, w.conj())
    # D_y(i, j) = <w_y^j|w_y^i> is the Gram matrix of w_y.
    return _witness(v, w, P)
