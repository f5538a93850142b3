"""Dense complex linear-algebra core.

Singular value decomposition, Hermitian eigendecomposition, positive
semi-definite square roots, partial traces over declared registers,
Schmidt cuts and the reductions their factors encode, and Uhlmann
fidelity. Everything here is a pure function of plain numpy arrays plus a
few small frozen dataclasses; all other modules build on this layer.

Conventions
-----------
* A pure state on registers (R1, ..., Rk) is a complex vector indexed
  row-major in declared register order.
* A bipartite operator on A (x) B uses the basis index ``x * dim_b + y``
  for ``|x>|y>``.
* A singular value counts as nonzero iff it exceeds ``REL_RANK_TOL``
  times the largest one (scale-free rank decisions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import InvalidInput, NotNormalized, NotPsd

#: Relative cutoff for rank decisions.
REL_RANK_TOL = 1e-10

#: Eigenvalues in [-EIG_CLAMP_TOL, 0) are clamped to zero in psd contexts;
#: anything below -EIG_CLAMP_TOL is rejected as genuinely negative.
EIG_CLAMP_TOL = 1e-10

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def as_complex_array(a, name: str = "input") -> np.ndarray:
    """Coerce to a complex128 ndarray, rejecting NaN/Inf entries."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.size and not np.all(np.isfinite(arr)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return arr


def hermitize(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (a + a^dag) / 2."""
    return (a + a.conj().T) / 2.0


def require_hermitian(h, tol: float = 1e-10, name: str = "matrix") -> np.ndarray:
    """Validate that ``h`` is square and Hermitian within ``tol``.

    The tolerance is scaled by ``max(1, max|entry|)`` so that matrices of
    moderate norm are judged consistently.
    """
    arr = as_complex_array(h, name)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {arr.shape}")
    if arr.size:
        scale = max(1.0, float(np.abs(arr).max()))
        if float(np.abs(arr - arr.conj().T).max()) > tol * scale:
            raise InvalidInput(f"{name} is not Hermitian within {tol:g}")
    return arr


def ceil_log2(n: int) -> int:
    """Smallest q >= 0 with 2**q >= n; returns 0 for n <= 1."""
    if n <= 1:
        return 0
    return int(n - 1).bit_length()


def rank_from_singulars(s, rel_tol: float = REL_RANK_TOL) -> int:
    """Number of singular values above the relative threshold."""
    arr = np.asarray(s, dtype=float)
    if arr.size == 0:
        return 0
    top = float(arr.max())
    if top <= 0.0:
        return 0
    return int(np.count_nonzero(arr > rel_tol * top))


def matrix_rank(a) -> int:
    """Rank of a complex matrix under the relative singular threshold."""
    arr = as_complex_array(a, "rank input")
    if arr.ndim != 2 or arr.size == 0:
        raise InvalidInput("rank expects a nonempty 2-D matrix")
    return rank_from_singulars(np.linalg.svd(arr, compute_uv=False))


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``a = left @ diag(singulars) @ right^dag``.

    ``left`` and ``right`` both have orthonormal columns; ``singulars``
    are nonnegative and sorted in descending order.
    """

    left: np.ndarray
    singulars: np.ndarray
    right: np.ndarray

    @property
    def rank(self) -> int:
        return rank_from_singulars(self.singulars)

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.singulars) @ self.right.conj().T


def svd(a) -> SvdResult:
    """Thin singular value decomposition of a nonempty complex matrix.

    Raises
    ------
    InvalidInput
        If the input is empty, not 2-D, or contains non-finite entries.
    """
    arr = as_complex_array(a, "svd input")
    if arr.ndim != 2 or arr.size == 0:
        raise InvalidInput("svd expects a nonempty 2-D matrix")
    u, s, vh = np.linalg.svd(arr, full_matrices=False)
    return SvdResult(left=u, singulars=s, right=vh.conj().T)


def eigh(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(vals, vecs)`` with ``h = vecs @ diag(vals) @ vecs^dag`` and
    ``vecs`` unitary. ``vals[i]`` belongs to column ``vecs[:, i]``.
    """
    arr = require_hermitian(h, name="eigh input")
    vals, vecs = np.linalg.eigh(arr)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def psd_sqrt(h) -> np.ndarray:
    """Hermitian psd square root S with S @ S = h.

    Eigenvalues in [-EIG_CLAMP_TOL, 0) are clamped to zero; anything more
    negative raises NotPsd.
    """
    arr = require_hermitian(h, name="psd_sqrt input")
    vals, vecs = np.linalg.eigh(arr)
    if vals.size and float(vals[0]) < -EIG_CLAMP_TOL:
        raise NotPsd(f"minimum eigenvalue {vals[0]:.3e} below -{EIG_CLAMP_TOL:g}")
    vals = np.clip(vals, 0.0, None)
    return hermitize((vecs * np.sqrt(vals)) @ vecs.conj().T)


@dataclass(frozen=True)
class DensityMatrix:
    """Trace-one positive semi-definite operator on A (x) B.

    Row/column index ``x * dim_b + y`` encodes the basis ket ``|x>|y>``.
    A system without a declared bipartition uses ``dim_b = 1``.
    """

    dim_a: int
    dim_b: int
    mat: np.ndarray

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise InvalidInput("density matrix dimensions must be positive")
        arr = require_hermitian(self.mat, name="density matrix")
        d = self.dim_a * self.dim_b
        if arr.shape != (d, d):
            raise InvalidInput(
                f"density matrix shape {arr.shape} does not match dims "
                f"{self.dim_a} x {self.dim_b}"
            )
        vals = np.linalg.eigvalsh(arr)
        if float(vals[0]) < -EIG_CLAMP_TOL:
            raise NotPsd(f"minimum eigenvalue {vals[0]:.3e} below -{EIG_CLAMP_TOL:g}")
        tr = float(np.trace(arr).real)
        if abs(tr - 1.0) > 1e-10:
            raise NotNormalized(f"trace {tr!r} deviates from 1 beyond 1e-10")
        object.__setattr__(self, "mat", arr)

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b


def density_from_pure(amps, dim_a: int, dim_b: int) -> DensityMatrix:
    """Rank-one density matrix |psi><psi| from a normalized amplitude vector."""
    vec = as_complex_array(amps, "state vector").reshape(-1)
    if vec.size != dim_a * dim_b:
        raise InvalidInput("amplitude length does not match dims")
    return DensityMatrix(dim_a, dim_b, np.outer(vec, vec.conj()))


@dataclass(frozen=True)
class RegisterState:
    """Pure state on named registers with a declared Alice/Bob assignment.

    ``amps`` is indexed row-major in declared register order; ``sides[i]``
    is ``"A"`` or ``"B"``. Norm is not enforced here; operations that need
    a normalized state check at their own boundary.
    """

    amps: np.ndarray
    dims: tuple[int, ...]
    sides: tuple[str, ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        vec = as_complex_array(self.amps, "register state").reshape(-1)
        dims = tuple(int(d) for d in self.dims)
        sides = tuple(self.sides)
        if not dims or any(d < 1 for d in dims):
            raise InvalidInput("register dims must be positive")
        if len(sides) != len(dims):
            raise InvalidInput("sides and dims length mismatch")
        if any(s not in ("A", "B") for s in sides):
            raise InvalidInput("sides must be 'A' or 'B'")
        total = int(np.prod(dims))
        if vec.size != total:
            raise InvalidInput(
                f"amplitude length {vec.size} does not match register dims {dims}"
            )
        names = tuple(self.names) if self.names is not None else None
        if names is not None and len(names) != len(dims):
            raise InvalidInput("names and dims length mismatch")
        object.__setattr__(self, "amps", vec)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "sides", sides)
        object.__setattr__(self, "names", names)

    def registers_on(self, side: str) -> list[int]:
        return [i for i, s in enumerate(self.sides) if s == side]

    def side_dim(self, side: str) -> int:
        return int(np.prod([self.dims[i] for i in self.registers_on(side)], initial=1))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def schmidt_matrix(state: RegisterState) -> np.ndarray:
    """Amplitudes rearranged as an (Alice-dim x Bob-dim) matrix.

    Alice-side registers (in declared order) index the rows, Bob-side
    registers the columns. The singular values of this matrix are the
    Schmidt coefficients across the declared cut.
    """
    a_regs = state.registers_on("A")
    b_regs = state.registers_on("B")
    tensor = state.amps.reshape(state.dims)
    tensor = np.transpose(tensor, a_regs + b_regs)
    return tensor.reshape(state.side_dim("A"), state.side_dim("B"))


def comp_aux_dims(state: RegisterState) -> tuple[int, int, int, int]:
    """``(n, m, ka, kb)`` of a purification layout.

    The first register on each side is the computational one (dims n and
    m); the rest of that side is its aux block (total dims ka and kb), so
    each side's space factors as comp (x) aux with comp major.
    """
    a_regs = state.registers_on("A")
    b_regs = state.registers_on("B")
    if not a_regs or not b_regs:
        raise InvalidInput("state needs registers on both sides of the cut")
    n = state.dims[a_regs[0]]
    m = state.dims[b_regs[0]]
    return n, m, state.side_dim("A") // n, state.side_dim("B") // m


def cut_svd(state: RegisterState) -> SvdResult:
    """Thin SVD of the Alice|Bob cut matrix, computed on its support.

    Zero rows and columns of the cut matrix carry no singular value, so
    the SVD runs on the submatrix of nonzero rows and columns and the
    singular vectors are put back to full length with zeros elsewhere.
    This is exact for any state, and cheap for purifications whose
    amplitudes vanish off a small support. A zero state gives zero
    singular vectors and rank 0.
    """
    mat = schmidt_matrix(state)
    nonzero = mat != 0
    rows = np.flatnonzero(nonzero.any(axis=1))
    cols = np.flatnonzero(nonzero.any(axis=0))
    k = min(rows.size, cols.size)
    left = np.zeros((mat.shape[0], k), dtype=np.complex128)
    right = np.zeros((mat.shape[1], k), dtype=np.complex128)
    if k == 0:
        return SvdResult(left=left, singulars=np.zeros(0), right=right)
    sub = svd(mat[np.ix_(rows, cols)])
    left[rows] = sub.left
    right[cols] = sub.right
    return SvdResult(left=left, singulars=sub.singulars, right=right)


def schmidt_rank(state: RegisterState) -> int:
    """Schmidt rank across the declared Alice|Bob cut."""
    return cut_svd(state).rank


def absorbed_schmidt_vectors(state: RegisterState) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient-absorbed Schmidt vectors of the declared cut, read as
    comp-major factor families.

    Returns ``(a, b)`` of shapes (n, ka, r) and (m, kb, r) (see
    ``comp_aux_dims``): ``a[x, :, i]`` is the aux block at computational
    index x of sqrt(s_i) u_i, and ``b[y, :, i]`` that of
    sqrt(s_i) conj(v_i), so that the state equals
    sum_i a[:, :, i] (x) b[:, :, i].
    """
    n, m, ka, kb = comp_aux_dims(state)
    res = cut_svd(state)
    r = res.rank
    if r == 0:
        raise InvalidInput("zero state has no Schmidt vectors")
    root = np.sqrt(res.singulars[:r])
    a = (res.left[:, :r] * root).reshape(n, ka, r)
    b = (res.right[:, :r].conj() * root).reshape(m, kb, r)
    return a, b


def comp_reduction(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reduction to the computational registers of sum_i a[:, :, i] (x)
    b[:, :, i], without forming that state.

    ``a`` is (n, ka, r) and ``b`` is (m, kb, r), as from
    ``absorbed_schmidt_vectors``. Returns the (n m) x (n m) matrix
    rho[(x, y), (x', y')] = sum_ij (a_x'^dag a_x)[j, i] (b_y'^dag b_y)[j, i]
    in the basis index ``x * m + y``; its trace is the squared norm of the
    state.
    """
    ga = np.einsum("paj,xai->pxji", a.conj(), a)  # (a_x'^dag a_x)[j, i]
    gb = np.einsum("qbj,ybi->qyji", b.conj(), b)
    coeff = np.einsum("pxji,qyji->xypq", ga, gb)
    d = a.shape[0] * b.shape[0]
    return coeff.reshape(d, d)


StateLike = Union[DensityMatrix, RegisterState, np.ndarray]


def partial_trace(
    state: StateLike,
    keep: Sequence[int],
    dims: Sequence[int] | None = None,
    out_split: tuple[int, int] | None = None,
) -> DensityMatrix:
    """Trace out every register not in ``keep`` and return the reduction.

    Parameters
    ----------
    state:
        A DensityMatrix, a RegisterState, a pure-state vector, or a square
        density operator as an ndarray.
    keep:
        Indices of the registers to keep, in any order; the result is laid
        out with kept registers in their original declared order.
    dims:
        Register dimensions. Required for raw ndarrays; inferred for
        DensityMatrix ``(dim_a, dim_b)`` and RegisterState inputs.
    out_split:
        Bipartition ``(dim_a, dim_b)`` of the result. Defaults to the
        A|B split of the kept registers when the input is a RegisterState
        whose kept A registers all precede its kept B registers, and to
        ``(K, 1)`` otherwise.
    """
    sides = None
    if isinstance(state, DensityMatrix):
        mat, vec = state.mat, None
        dims = (state.dim_a, state.dim_b) if dims is None else tuple(dims)
        sides = ("A", "B") if dims == (state.dim_a, state.dim_b) else None
    elif isinstance(state, RegisterState):
        mat, vec = None, state.amps
        dims = state.dims
        sides = state.sides
    else:
        arr = as_complex_array(state, "partial_trace input")
        if dims is None:
            raise InvalidInput("dims are required for raw array input")
        dims = tuple(int(d) for d in dims)
        if arr.ndim == 1:
            mat, vec = None, arr
        elif arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
            mat, vec = arr, None
        else:
            raise InvalidInput("state must be a vector or a square matrix")

    n = len(dims)
    total = int(np.prod(dims))
    size = vec.size if vec is not None else mat.shape[0]
    if total != size:
        raise InvalidInput(f"register dims {dims} do not multiply to {size}")
    keep_list = sorted(set(int(k) for k in keep))
    if not keep_list:
        raise InvalidInput("keep must be a nonempty register subset")
    if keep_list[0] < 0 or keep_list[-1] >= n:
        raise InvalidInput(f"keep indices out of range for {n} registers")
    traced = [i for i in range(n) if i not in keep_list]

    if vec is not None:
        tensor = vec.reshape(dims)
        red = np.tensordot(tensor, tensor.conj(), axes=(traced, traced))
    else:
        if 2 * n > len(_LETTERS):
            raise InvalidInput("too many registers")
        row, col, out_row, out_col = [], [], [], []
        fresh = iter(_LETTERS)
        for i in range(n):
            if i in keep_list:
                a, b = next(fresh), next(fresh)
                row.append(a)
                col.append(b)
                out_row.append(a)
                out_col.append(b)
            else:
                a = next(fresh)
                row.append(a)
                col.append(a)
        eq = "".join(row + col) + "->" + "".join(out_row + out_col)
        red = np.einsum(eq, mat.reshape(dims + dims))

    k = int(np.prod([dims[i] for i in keep_list]))
    red = red.reshape(k, k)

    if out_split is None:
        if sides is not None:
            kept_sides = [sides[i] for i in keep_list]
            if "B" not in kept_sides or "A" not in kept_sides:
                da = k if "A" in kept_sides else 1
                out_split = (da, k // da)
            elif kept_sides.index("B") > max(
                i for i, s in enumerate(kept_sides) if s == "A"
            ):
                da = int(
                    np.prod(
                        [dims[j] for i, j in enumerate(keep_list) if kept_sides[i] == "A"]
                    )
                )
                out_split = (da, k // da)
            else:
                out_split = (k, 1)
        else:
            out_split = (k, 1)
    if out_split[0] * out_split[1] != k:
        raise InvalidInput(f"out_split {out_split} does not factor dimension {k}")
    return DensityMatrix(out_split[0], out_split[1], red)


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity tr sqrt(sigma^1/2 rho sigma^1/2), not squared.

    Symmetric in its arguments; reduces to sqrt(<psi|rho|psi>) when sigma
    is the pure state |psi><psi|.

    Evaluated on the support of sigma: with sigma = V diag(lam) V^dag and
    W the columns sqrt(lam_k) V_k for lam_k > 0, sigma^1/2 rho sigma^1/2
    and W^dag rho W share their nonzero eigenvalues, so the sum of square
    roots runs over the small matrix W^dag rho W.
    """
    if not isinstance(rho, DensityMatrix) or not isinstance(sigma, DensityMatrix):
        raise InvalidInput("fidelity expects two DensityMatrix inputs")
    if rho.mat.shape != sigma.mat.shape:
        raise InvalidInput("fidelity requires states of equal dimension")
    lam, vecs = np.linalg.eigh(sigma.mat)
    keep = lam > 0.0
    w = vecs[:, keep] * np.sqrt(lam[keep])
    inner = hermitize(w.conj().T @ rho.mat @ w)
    vals = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    return float(np.sqrt(vals).sum())
