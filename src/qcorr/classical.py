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
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import FactorizationMismatch, InvalidInput, NotNormalized
from .linalg import (
    REL_RANK_TOL,
    RegisterState,
    absorbed_schmidt_vectors,
    comp_aux_dims,
    hermitize,
    psd_sqrt,
    require_psd,
    schmidt_matrix,
)

#: Entries of a distribution below this are clamped to exact zeros.
ZERO_CLAMP = 1e-14

#: Largest Frobenius residual a factorization may have and still count as
#: a witness: the default and the upper limit of ``SolverConfig.tol``, and
#: the residual above which ``synth_from_psd`` refuses a factorization.
WITNESS_TOL = 1e-7


@dataclass(frozen=True)
class DistMatrix:
    """Probability matrix: n x m, entries >= 0, summing to 1 within 1e-10."""

    n: int
    m: int
    p: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.p, dtype=float)
        if arr.shape != (self.n, self.m) or self.n < 1 or self.m < 1:
            raise InvalidInput(f"distribution shape {arr.shape} does not match "
                               f"{self.n} x {self.m}")
        if not np.all(np.isfinite(arr)):
            raise InvalidInput("distribution contains non-finite entries")
        if arr.min() < 0.0:
            raise InvalidInput("distribution contains negative entries")
        total = float(arr.sum())
        if abs(total - 1.0) > 1e-10:
            raise NotNormalized(f"distribution sums to {total!r}, not 1")
        object.__setattr__(self, "p", arr)


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
    if not np.all(np.isfinite(arr)):
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


def _best_subset_ratio(g: np.ndarray) -> float:
    """Largest k^2 / sum(g[S, S]) over the row subsets S of size k grown
    greedily from each row: each step adds, to every subset at once, the
    row that raises its sum least. At least 1, the value of one row.
    """
    k = g.shape[0]
    seeds = np.arange(k)
    chosen = np.eye(k, dtype=bool)
    load = g.copy()  # load[s] = sum of the rows of g in the subset grown from s
    totals = np.ones(k)
    best = 1.0
    for size in range(2, k + 1):
        cost = np.where(chosen, np.inf, 2.0 * load + 1.0)
        add = cost.argmin(axis=1)
        totals += cost[seeds, add]
        chosen[seeds, add] = True
        load += g[add]
        best = max(best, size * size / float(totals.min()))
    return best


def _lower_bounds(p: DistMatrix, tol: float) -> tuple[int, int, str]:
    """The rank of P at ``tol``, the psd-rank lower bound at ``tol`` and the
    bound that set it ("rank" or "fidelity"); see ``psd_rank_lower_bound``.
    """
    rank = rank_at_tol(p, tol)
    weyl = math.isqrt(rank - 1) + 1 if rank >= 1 else 1
    fidelity = math.ceil(max(_best_subset_ratio(_fidelity_gram(p.p, tol)),
                             _best_subset_ratio(_fidelity_gram(p.p.T, tol))))
    if weyl >= fidelity:
        return rank, weyl, "rank"
    return rank, fidelity, "fidelity"


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
        if self.starts < 0:
            raise InvalidInput(f"SolverConfig.starts must be >= 0, got {self.starts!r}")
        if self.max_iters < 1:
            raise InvalidInput(
                f"SolverConfig.max_iters must be >= 1, got {self.max_iters!r}")
        if not 0.0 < self.tol <= WITNESS_TOL:
            raise InvalidInput(
                f"SolverConfig.tol must be in (0, {WITNESS_TOL:g}], got {self.tol!r}")


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True)
class PsdFactorization:
    """Families {C_x}, {D_y} of r x r Hermitian psd matrices with the
    Frobenius residual of [tr(C_x D_y) - P(x, y)] against their target.
    """

    r: int
    cs: tuple[np.ndarray, ...]
    ds: tuple[np.ndarray, ...]
    residual: float

    def __post_init__(self):
        if self.r < 1:
            raise InvalidInput("factorization size r must be positive")
        cs = tuple(require_psd(c, name=f"C[{x}]") for x, c in enumerate(self.cs))
        ds = tuple(require_psd(d, name=f"D[{y}]") for y, d in enumerate(self.ds))
        for fam, tag in ((cs, "C"), (ds, "D")):
            for idx, mat in enumerate(fam):
                if mat.shape != (self.r, self.r):
                    raise InvalidInput(f"{tag}[{idx}] has shape {mat.shape}, "
                                       f"expected {(self.r, self.r)}")
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
        return _trace_form(np.stack(self.cs), np.stack(self.ds))


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


def _grams(e: np.ndarray) -> np.ndarray:
    # C_x = E_x^dag E_x, psd Hermitian by construction.
    return np.einsum("xba,xbc->xac", e.conj(), e)


def _trace_form(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    return np.einsum("xab,yba->xy", c, d).real


def _jacobian(
    e: np.ndarray, f: np.ndarray, c: np.ndarray, d: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Jacobian of t[x, y] = tr(C_x D_y) with respect to E and F.

    Returns (je, jf), both of shape (n, m, r, r): je[x, y] = 2 E_x D_y is
    the derivative of t[x, y] with respect to E_x and jf[x, y] = 2 F_y C_x
    the one with respect to F_y. The real part holds the derivatives with
    respect to the real coordinates, the imaginary part those with respect
    to the imaginary coordinates. t[x, y] does not depend on E_x' or F_y'
    for x' != x, y' != y.
    """
    je = 2.0 * np.einsum("xab,ybc->xyac", e, d)
    jf = 2.0 * np.einsum("yab,xbc->xyac", f, c)
    return je, jf


def _descend(
    P: np.ndarray, e0: np.ndarray, f0: np.ndarray, cfg: SolverConfig
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Levenberg-Marquardt on the n*m residuals tr(C_x D_y) - P(x, y) over
    the real and imaginary parts of E and F.

    The step is delta = -J^T (J J^T + lam I)^-1 res. A step is accepted
    when it lowers the squared residual; lam is divided by LM_DOWN after an
    accepted step and multiplied by LM_UP after a rejected one, or when
    J J^T + lam I is singular in floating point. Real diagonal E and F give
    real diagonal J, so every step keeps them real diagonal: from such a
    start this is Levenberg-Marquardt on the nonnegative factorization
    P ~ W H with W[x, i] = E_x[i, i]^2 and H[i, y] = F_y[i, i]^2. The start
    stops when the squared residual is below VALUE_FLOOR, when it stalls
    (lam passes LM_LAMBDA_CAP times its first value, or STALL_WINDOW
    accepted steps lower it by less than the fraction STALL_DROP), or after
    ``cfg.max_iters`` trial steps, accepted or not. Returns the final
    factors and the squared residual after every accepted step, a
    non-increasing sequence.
    """
    e = e0.astype(np.complex128).copy()
    f = f0.astype(np.complex128).copy()
    n, m = P.shape
    rows, cols, eye = np.arange(n), np.arange(m), np.eye(n * m)
    c, d = _grams(e), _grams(f)
    resid = _trace_form(c, d) - P
    history = [float((resid * resid).sum())]
    lam = floor = cap = None
    accepted = True

    for _ in range(cfg.max_iters):
        if history[-1] < VALUE_FLOOR:
            break
        if accepted:
            je, jf = _jacobian(e, f, c, d)
            # (J J^T)[(x, y), (x', y')] couples residuals through a shared
            # E_x (x = x') or a shared F_y (y = y'); real coordinates make
            # each inner product the real part of a complex one.
            jjt = np.zeros((n, m, n, m))
            jjt[rows, :, rows, :] = np.einsum("xyab,xzab->xyz", je.conj(), je).real
            jjt[:, cols, :, cols] += np.einsum("xyab,wyab->yxw", jf.conj(), jf).real
            jjt = jjt.reshape(n * m, n * m)
            if lam is None:
                scale = float(np.trace(jjt)) / (n * m)
                if scale <= 0.0:  # J = 0: a stationary point
                    break
                lam = LM_LAMBDA0 * scale
                floor, cap = LM_LAMBDA_FLOOR * lam, LM_LAMBDA_CAP * lam
        try:
            w = np.linalg.solve(jjt + lam * eye, resid.reshape(-1)).reshape(n, m)
        except np.linalg.LinAlgError:
            # J J^T can be singular (diagonal starts have at most r(n+m-1)
            # independent columns), and lam near its floor is lost in
            # rounding: reject the step so that lam grows.
            value = math.inf
        else:
            e_try = e - np.einsum("xy,xyab->xab", w, je)
            f_try = f - np.einsum("xy,xyab->yab", w, jf)
            c_try, d_try = _grams(e_try), _grams(f_try)
            r_try = _trace_form(c_try, d_try) - P
            value = float((r_try * r_try).sum())
        accepted = value < history[-1]
        if accepted:
            e, f, c, d, resid = e_try, f_try, c_try, d_try, r_try
            history.append(value)
            lam = max(lam / LM_DOWN, floor)
            if (len(history) > STALL_WINDOW
                    and value > (1.0 - STALL_DROP) * history[-1 - STALL_WINDOW]):
                break
        else:
            lam *= LM_UP
            if lam > cap:
                break
    return e, f, history


def _witness(e: np.ndarray, f: np.ndarray, P: np.ndarray) -> PsdFactorization:
    """The factorization C_x = E_x^dag E_x, D_y = F_y^dag F_y, with its
    Frobenius residual against P. E_x and F_y may be k x r."""
    cs = tuple(hermitize(ex.conj().T @ ex) for ex in e)
    ds = tuple(hermitize(fy.conj().T @ fy) for fy in f)
    residual = float(np.linalg.norm(_trace_form(np.stack(cs), np.stack(ds)) - P))
    return PsdFactorization(r=e.shape[-1], cs=cs, ds=ds, residual=residual)


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


def _diagonal_exact_start(P: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Exact factorization available whenever r >= min(n, m): the smaller
    side gets basis projectors, the other diagonal square roots of its
    rows/columns of P.
    """
    n, m = P.shape
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
    inits: Iterable[tuple[np.ndarray, np.ndarray]],
    random_start,
) -> PsdFactorization:
    """Best size-r factorization over ``inits``, the exact diagonal start
    (when r >= min(n, m)) and ``cfg.starts`` draws of ``random_start``, in
    that order. Stops at the first start whose residual is below
    ``cfg.tol``; otherwise the best start wins, ties going to the lowest
    start index. With no start to run it returns the zero factors, whose
    residual is the norm of P.
    """
    n, m = P.shape
    zero_rows = P.sum(axis=1) <= 0.0
    zero_cols = P.sum(axis=0) <= 0.0

    def starts():
        # Built lazily: the search often stops before the later starts.
        for e0, f0 in inits:
            yield np.array(e0, dtype=np.complex128), np.array(f0, dtype=np.complex128)
        exact = _diagonal_exact_start(P, r)
        if exact is not None:
            yield exact
        rng = np.random.default_rng(cfg.seed)
        for _ in range(cfg.starts):
            yield random_start(rng, n, m, r)

    best_val = math.inf
    best_e, best_f = np.zeros((n, r, r)), np.zeros((m, r, r))
    for e0, f0 in starts():
        # Zero rows/columns impose no constraint; pin their factors to zero.
        e0[zero_rows] = 0.0
        f0[zero_cols] = 0.0
        e, f, history = _descend(P, e0, f0, cfg)
        if history[-1] < best_val:
            best_val = history[-1]
            best_e, best_f = e, f
        if best_val < cfg.tol * cfg.tol:
            break
    return _witness(best_e, best_f, P)


def psd_fit(
    p: DistMatrix,
    r: int,
    cfg: SolverConfig | None = None,
    inits: Iterable[tuple[np.ndarray, np.ndarray]] = (),
) -> PsdFactorization:
    """Best size-r psd factorization found by seeded multi-start
    Levenberg-Marquardt.

    Parameterizing C_x = E_x^dag E_x and D_y = F_y^dag F_y keeps the
    factors psd without any projection; each start runs a
    Levenberg-Marquardt least-squares solve on the n*m residuals
    tr(C_x D_y) - P(x, y) until its squared residual is below 1e-28, it
    stalls, or it has taken ``cfg.max_iters`` trial steps. ``inits``
    supplies starting points, tried first; the exact diagonal construction
    (available whenever r >= min(n, m)) comes next, then ``cfg.starts``
    random complex starts. The search stops at the first start whose
    residual is below ``cfg.tol``; otherwise the best start wins, ties
    going to the lowest start index. With no start to run (no ``inits``,
    ``cfg.starts == 0`` and r < min(n, m)) the zero factors are returned.
    Deterministic given ``cfg.seed``.
    """
    if not isinstance(p, DistMatrix):
        raise InvalidInput("expected a DistMatrix")
    if r < 1:
        raise InvalidInput("factorization size r must be positive")
    return _multistart(p.p, r, cfg or DEFAULT_CONFIG, inits, _random_start)


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
    guarantees success at r = min(n, m). The report is certified only when
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
    from ``cfg.starts`` random real diagonal starts, which stay diagonal
    (see ``_descend``); ``max_iters`` and ``tol`` apply as there. The lower
    bound holds at ``cfg.tol``: the larger of ``rank_at_tol(p, cfg.tol)``
    and ``psd_rank_lower_bound(p, cfg.tol)``, since the nonnegative rank is
    at least the psd-rank. Sizes are tried upward from it, and the exact
    diagonal construction guarantees success at min(n, m). The witness has
    diagonal C_x and D_y. The randomized generation complexity in seed bits
    is ceil(log2(upper)).
    """
    cfg = cfg or DEFAULT_CONFIG
    rank, psd_lower, _ = _lower_bounds(p, cfg.tol)
    lower, lower_by = (rank, "rank") if rank >= psd_lower else (psd_lower, "fidelity")
    return _bracket(lower, lower_by, min(p.n, p.m),
                    lambda r: _multistart(p.p, r, cfg, (), _random_diagonal_start),
                    cfg.tol)


def synth_from_psd(p: DistMatrix, f: PsdFactorization) -> RegisterState:
    """Generating purification of the classical state of P from a psd witness.

    Builds the pure state on registers (A, A', A1 | B, B', B1), dims
    (n, n, r, m, m, r), whose reduction to (A, B) is exactly the classical
    state with diagonal tr(C_x D_y). Columns of sqrt(C_x^T) feed the
    Alice aux block and columns of sqrt(D_y) the Bob aux block, so the
    Schmidt rank across the Alice|Bob cut is at most r.
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
    v = np.stack([psd_sqrt(c.T) for c in f.cs])  # v[x, :, i] = i-th column
    w = np.stack([psd_sqrt(d) for d in f.ds])
    block = np.einsum("xai,ybi->xayb", v, w)
    amps = np.zeros((n, n, r, m, m, r), dtype=np.complex128)
    for x in range(n):
        for y in range(m):
            amps[x, x, :, y, y, :] = block[x, :, y, :]
    flat = amps.reshape(-1)
    norm = float(np.linalg.norm(flat))
    if norm <= 0.0:
        raise FactorizationMismatch("factorization synthesizes the zero vector")
    return RegisterState(
        flat / norm,
        dims=(n, n, r, m, m, r),
        sides=("A", "A", "A", "B", "B", "B"),
        names=("A", "A'", "A1", "B", "B'", "B1"),
    )


def gram_extract(state: RegisterState) -> PsdFactorization:
    """Read a psd factorization off a purification.

    The first register on each side is the computational one; the rest of
    that side is its aux block. With coefficient-absorbed Schmidt vectors
    v_x^i (the aux slice of the i-th left vector at computational index x)
    and w_y^i on the right, the Gram families C_x(j, i) = <v_x^j|v_x^i>
    and D_y(i, j) = <w_y^j|w_y^i> are psd and reproduce the
    computational-basis outcome probabilities as tr(C_x D_y).
    """
    norm = state.norm()
    if abs(norm - 1.0) > 1e-9:
        raise NotNormalized(f"state norm {norm!r} deviates from 1 beyond 1e-9")
    n, m, ka, kb = comp_aux_dims(state)
    v, w = absorbed_schmidt_vectors(state)
    probs = np.abs(schmidt_matrix(state).reshape(n, ka, m, kb)) ** 2
    # D_y(i, j) = <w_y^j|w_y^i> is the Gram matrix of conj(w_y).
    return _witness(v, w.conj(), probs.sum(axis=(1, 3)))
