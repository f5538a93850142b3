"""Dense complex linear-algebra core.

Singular value decomposition, Hermitian eigendecomposition, partial
traces over declared registers, Schmidt cuts and the reductions their
factors encode, purifications held as their factor pair, and Uhlmann
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
* A ``DensityMatrix`` holds one form, recorded in ``form`` where it is
  built: ``"dense"``, ``"factor"`` (a W with mat = W W^dag) or
  ``"diagonal"`` (the real p of a classical state sum_i p_i |i><i|).
  Only this module reads the held form; ``mat`` is formed on first read.
* One psd rule: dense is checked, factor and diagonal are psd by form.
  ``DensityMatrix(...)`` runs ``require_psd`` (a least eigenvalue down to
  ``-EIG_CLAMP_TOL``, by a Cholesky factorization) on every file, random
  draw, partial trace, user matrix and non-diagonal contracted reduction.
* One reduction: ``comp_reduction`` turns every factor pair (a
  purification, a general factorization, a default target, a pure seed's
  dilated pair) into its reduction to the computational registers, held
  as a diagonal, a factor or a contracted dense matrix.
* Two block kernels: ``_grams`` forms the per-index Gram blocks
  G[x] = f_x^dag f_x of a stack as one batched product, and
  ``_trace_form`` pairs two stacks of blocks, t[x, y] = tr(c_x d_y), as
  one matrix product. Every per-index Gram and trace form of the
  classical chain, and the diagonal of a classical reduction, goes
  through them.
* One factor: ``DensityMatrix.factor`` is a W with mat = W W^dag, which
  fidelity, purification and seed ranks read. Fidelity has one formula,
  the trace norm of sigma.factor^dag rho.factor, which reads low only
  through a computed factor's rank cutoff; a product that is a row or a
  column is read by its 2-norm, its one singular value, with no SVD, and
  two diagonal states are read off their diagonals.
* One representation of a purification: the pair (a, b) of
  ``Purification``, whose Schmidt form comes from thin QRs of the nonzero
  rows of its two factors and an r x r SVD, or is kept from the
  decomposition that made the pair. A dense ``RegisterState`` is
  decomposed once, by ``Purification.from_state``, and built only for
  files and tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InvalidInput, NotNormalized, NotPsd

#: Relative cutoff for rank decisions.
REL_RANK_TOL = 1e-10

#: Eigenvalues in [-EIG_CLAMP_TOL, 0) are clamped to zero in psd contexts;
#: anything below -EIG_CLAMP_TOL is rejected as genuinely negative.
EIG_CLAMP_TOL = 1e-10


def as_complex_array(a, name: str = "input") -> np.ndarray:
    """Coerce to a complex128 ndarray, rejecting non-numeric and NaN/Inf
    entries."""
    try:
        arr = np.asarray(a, dtype=np.complex128)
    except (TypeError, ValueError):
        raise InvalidInput(f"{name} has non-numeric entries") from None
    if not np.isfinite(arr).all():
        raise InvalidInput(f"{name} contains non-finite entries")
    return arr


def read_only_copy(arr: np.ndarray) -> np.ndarray:
    """A read-only copy of ``arr``, so that the checks run on it stay true."""
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def as_complex_stack(mats, name: str) -> np.ndarray:
    """One read-only complex128 (K, rows, cols) copy of a family of K >= 1
    equally shaped matrices ``name[0]``, ``name[1]``, ... A family that is
    empty or does not stack raises InvalidInput, naming the first member at
    fault: not 2-D, of a shape that differs from ``name[0]``'s, or with a
    non-finite entry."""
    if not len(mats):
        raise InvalidInput(f"{name} family is empty")
    try:
        arr = np.array(mats, dtype=np.complex128)  # always a copy
        stacked = arr.ndim == 3 and bool(np.isfinite(arr).all())
    except (TypeError, ValueError):  # ragged or non-numeric
        stacked = False
    if not stacked:
        for i, mat in enumerate(mats):
            if len(np.shape(mat)) != 2:
                raise InvalidInput(f"{name}[{i}] must be 2-D, got shape {np.shape(mat)}")
            if np.shape(mat) != np.shape(mats[0]):
                raise InvalidInput(f"{name}[{i}] shape {np.shape(mat)} differs from "
                                   f"{np.shape(mats[0])}")
            as_complex_array(mat, f"{name}[{i}]")
        raise InvalidInput(f"{name} family does not stack into one complex array")
    arr.flags.writeable = False
    return arr


def hermitize(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (a + a^dag) / 2 of a matrix, or of each
    matrix in a stack over the leading axes."""
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def require_hermitian(h, name: str = "matrix") -> np.ndarray:
    """Validate that ``h`` is square and Hermitian within 1e-10.

    The tolerance is scaled by ``max(1, max|entry|)`` so that matrices of
    moderate norm are judged consistently.
    """
    arr = as_complex_array(h, name)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {arr.shape}")
    if arr.size:
        scale = max(1.0, float(np.abs(arr).max()))
        if float(np.abs(arr - arr.conj().T).max()) > 1e-10 * scale:
            raise InvalidInput(f"{name} is not Hermitian within 1e-10")
    return arr


def require_psd(h, name: str = "matrix") -> np.ndarray:
    """Validate that ``h`` is Hermitian with least eigenvalue at least
    ``-EIG_CLAMP_TOL``: h + EIG_CLAMP_TOL I must have a Cholesky factor.
    An eigensolver runs only to word the error.
    """
    arr = require_hermitian(h, name=name)
    try:
        np.linalg.cholesky(arr + EIG_CLAMP_TOL * np.eye(arr.shape[0]))
    except np.linalg.LinAlgError:
        low = float(np.linalg.eigvalsh(arr)[0])
        raise NotPsd(f"{name} has minimum eigenvalue {low:.3e} below "
                     f"-{EIG_CLAMP_TOL:g}") from None
    return arr


def ceil_log2(n: int) -> int:
    """Smallest q >= 0 with 2**q >= n; returns 0 for n <= 1."""
    if n <= 1:
        return 0
    return int(n - 1).bit_length()


def rank_from_singulars(s) -> int:
    """Number of singular values above ``REL_RANK_TOL`` times the largest."""
    arr = np.asarray(s, dtype=float)
    if arr.size == 0:
        return 0
    top = float(arr.max())
    if top <= 0.0:
        return 0
    return int(np.count_nonzero(arr > REL_RANK_TOL * top))


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


@dataclass(frozen=True)
class DensityMatrix:
    """Trace-one positive semi-definite operator on A (x) B.

    Row/column index ``x * dim_b + y`` encodes the basis ket ``|x>|y>``.
    A system without a declared bipartition uses ``dim_b = 1``.

    ``form`` records the one form the state is held in. The constructor
    takes a dense matrix, runs the psd check and keeps a read-only copy as
    ``mat``; it holds an exactly diagonal input (every off-diagonal entry
    0.0) as ``"diagonal"`` and any other as ``"dense"``. A state the
    library builds psd by form comes from ``_of_factor`` (``"factor"``) or
    ``_of_diagonal`` (``"diagonal"``), and forms ``mat`` only when it is
    first read.
    """

    dim_a: int
    dim_b: int
    mat: np.ndarray
    form: str = field(init=False, compare=False)

    def __post_init__(self):
        self._hold("dense", self.mat)

    @classmethod
    def _of_factor(cls, dim_a: int, dim_b: int, w: np.ndarray) -> "DensityMatrix":
        """The density matrix W W^dag, held as its factor W: (dim_a dim_b)
        x k for any k, whose ``factor`` is this W, exactly as given."""
        return cls._held_as("factor", dim_a, dim_b, w)

    @classmethod
    def _of_diagonal(cls, dim_a: int, dim_b: int, p: np.ndarray) -> "DensityMatrix":
        """The classical state diag(p), held as its real diagonal p of
        length dim_a dim_b."""
        return cls._held_as("diagonal", dim_a, dim_b, p)

    @classmethod
    def _held_as(cls, form: str, dim_a: int, dim_b: int, arr) -> "DensityMatrix":
        rho = object.__new__(cls)
        object.__setattr__(rho, "dim_a", dim_a)
        object.__setattr__(rho, "dim_b", dim_b)
        rho._hold(form, arr)
        return rho

    def _hold(self, form: str, arr) -> None:
        """Check the dims and the array of ``form``, then record the form
        and hold the array. Every form gets the shape, finiteness and trace
        checks; a dense matrix gets the psd check and a diagonal its
        entry-wise form, no entry below -EIG_CLAMP_TOL. An exactly diagonal
        dense matrix is held as its diagonal, beside the ``mat`` given."""
        if self.dim_a < 1 or self.dim_b < 1:
            raise InvalidInput("density matrix dimensions must be positive")
        d = self.dim_a * self.dim_b
        name = "density matrix" if form == "dense" else f"density {form}"
        if form == "dense":
            arr = read_only_copy(require_psd(arr, name=name))
            shaped, tr = arr.shape == (d, d), np.trace(arr).real
        elif form == "factor":
            arr = as_complex_array(arr, name)
            shaped, tr = arr.ndim == 2 and arr.shape[0] == d, np.vdot(arr, arr).real
        else:
            arr = np.asarray(arr, dtype=np.float64)
            if not np.isfinite(arr).all():
                raise InvalidInput(f"{name} contains non-finite entries")
            shaped, tr = arr.shape == (d,), arr.sum()
        if not shaped:
            raise InvalidInput(f"{name} shape {arr.shape} does not match dims "
                               f"{self.dim_a} x {self.dim_b}")
        if form == "diagonal" and arr.min() < -EIG_CLAMP_TOL:
            raise NotPsd(f"{name} has minimum eigenvalue {arr.min():.3e} "
                         f"below -{EIG_CLAMP_TOL:g}")
        if abs(float(tr) - 1.0) > 1e-10:
            raise NotNormalized(f"trace {float(tr)!r} deviates from 1 beyond 1e-10")
        if form == "dense":
            object.__setattr__(self, "mat", arr)
            if _is_diagonal(arr):
                form, arr = "diagonal", arr.diagonal().real.copy()
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "_held", arr)

    def __getattr__(self, name):
        # Reached only when ``name`` is not set: the one place the ``mat``
        # of a state held as its factor or its diagonal is formed. W W^dag
        # keeps the real parts of the product; its diagonal is set real.
        held = vars(self).get("_held")
        if name != "mat" or held is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        if self.form == "factor":
            mat = held @ held.conj().T
            mat.reshape(-1)[::self.dim + 1].imag = 0.0
        else:
            mat = np.diag(held.astype(np.complex128))
        object.__setattr__(self, "mat", mat)
        return mat

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    @cached_property
    def factor(self) -> np.ndarray:
        """W with mat ~ W W^dag, one column per eigenvalue that
        ``rank_from_singulars`` counts, largest first: V_k sqrt(lam_k) from
        an eigendecomposition of a dense state, sqrt(p_i) e_i of a diagonal
        one. A state held as its factor has the W it was built from
        instead, which can have more columns than the rank
        (``comp_reduction`` gives one per acting aux pair)."""
        held = self._held
        if self.form == "factor":
            return held
        if self.form == "diagonal":
            keep = np.argsort(-held, kind="stable")[:rank_from_singulars(held)]
            w = np.zeros((self.dim, keep.size), dtype=np.complex128)
            w[keep, np.arange(keep.size)] = np.sqrt(held[keep])
            return w
        vals, vecs = eigh(held)
        k = rank_from_singulars(vals)
        return vecs[:, :k] * np.sqrt(vals[:k])

    @property
    def born_diagonal(self) -> np.ndarray:
        """Born-rule probabilities <x,y|rho|x,y>, real and clipped at zero:
        the held diagonal, the row sums of |W|^2 of a held factor, or the
        diagonal of a dense matrix. No dense matrix is formed."""
        held = self._held
        if self.form == "factor":
            return (held.real ** 2 + held.imag ** 2).sum(axis=1)
        return np.clip(held if self.form == "diagonal" else held.diagonal().real, 0.0, None)

    @property
    def is_classical(self) -> bool:
        """True when every off-diagonal entry is at most 1e-10 in modulus:
        always for a state held as its diagonal, which forms no ``mat``;
        a scan of ``mat`` otherwise."""
        if self.form == "diagonal":
            return True
        off = np.abs(self.mat)
        off.reshape(-1)[::self.dim + 1] = 0.0
        return float(off.max()) <= 1e-10


def density_from_pure(amps, dim_a: int, dim_b: int) -> DensityMatrix:
    """|psi><psi| from a normalized amplitude vector, held as its factor psi."""
    vec = as_complex_array(amps, "state vector").reshape(-1)
    if vec.size != dim_a * dim_b:
        raise InvalidInput("amplitude length does not match dims")
    return DensityMatrix._of_factor(dim_a, dim_b, vec[:, None].copy())


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

    The cut matrix is the amplitudes with Alice's registers (in declared
    order) indexing the rows and Bob's the columns. Zero rows and columns of the cut matrix carry no singular value, so
    the SVD runs on the submatrix of nonzero rows and columns and the
    singular vectors are put back to full length with zeros elsewhere.
    This is exact for any state, and cheap for purifications whose
    amplitudes vanish off a small support. A zero state gives zero
    singular vectors and rank 0.
    """
    regs = state.registers_on("A") + state.registers_on("B")
    mat = np.transpose(state.amps.reshape(state.dims), regs).reshape(
        state.side_dim("A"), state.side_dim("B"))
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


def _contract_cut(ga: np.ndarray, gb: np.ndarray, n: int, m: int) -> np.ndarray:
    """The (n m) x (n m) matrix rho[(x, y), (x', y')] = sum_J ga[(x, x'), J]
    gb[(y, y'), J], in the basis index ``x * m + y``: one product and a
    permute. A row of ``ga`` or ``gb`` that is exactly zero gives exact
    zeros."""
    return (ga @ gb.T).reshape(n, n, m, m).transpose(0, 2, 1, 3).reshape(n * m, n * m)


def _cut_grams(f: np.ndarray) -> np.ndarray:
    """g[(x, x'), (j, i)] = (f_x'^dag f_x)[j, i] of an aux-major factor f
    of shape (aux, k, r), f_x = f[:, x, :]: every Gram block from one
    matrix product."""
    aux, k, r = f.shape
    flat = f.reshape(aux, k * r)
    return (flat.conj().T @ flat).reshape(k, r, k, r).transpose(2, 0, 1, 3).reshape(k * k, r * r)


def _grams(f: np.ndarray) -> np.ndarray:
    """The per-index Gram blocks G[x] = f_x^dag f_x of a stack f of shape
    (n, k, r), f_x = f[x], in any memory layout: one batched product."""
    return f.conj().swapaxes(1, 2) @ f


def _trace_form(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The real part of t[x, y] = sum_ab c[x, a, b] d[y, b, a] = tr(c_x d_y)
    of two stacks of r x r blocks: one matrix product."""
    return (c.reshape(len(c), -1) @ d.swapaxes(1, 2).reshape(len(d), -1).T).real


def _sq_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Squared norm of sum_i a[:, :, i] (x) b[:, :, i]: sum_ij (a^dag a)_ij
    (b^dag b)_ij, from the two r x r Grams."""
    ga, gb = (f.conj().T @ f for f in (a.reshape(-1, a.shape[2]), b.reshape(-1, b.shape[2])))
    return float(np.vdot(ga.conj(), gb).real)


def _nonzero_rows(f: np.ndarray) -> np.ndarray:
    """Indices of the rows of a finite 2-D complex matrix that are not
    exactly zero: those whose sum of absolute real and imaginary parts, one
    matrix-vector product, is positive. A sum of nonnegative terms is
    positive iff one of them is, whatever the rounding."""
    parts = np.ascontiguousarray(f).view(np.float64)
    return np.flatnonzero(np.abs(parts) @ np.ones(parts.shape[1]))


def _require_unit_norm(a: np.ndarray, b: np.ndarray) -> None:
    """Raise NotNormalized unless sum_i a[:, :, i] (x) b[:, :, i] has unit
    norm within 1e-10."""
    norm = float(np.sqrt(max(_sq_norm(a, b), 0.0)))
    if abs(norm - 1.0) > 1e-10:
        raise NotNormalized(f"purification norm {norm!r} deviates from 1")


def comp_reduction(a: np.ndarray, b: np.ndarray) -> tuple[DensityMatrix, float]:
    """The reduction to the computational registers of the state
    sum_i a[:, :, i] (x) b[:, :, i], scaled to unit trace, and that state's
    squared norm, the trace it had; the state itself is never formed.

    ``a`` is (n, ka, r) and ``b`` is (m, kb, r), complex, as in
    ``Purification``: rho[(x, y), (x', y')] =
    sum_ij (a_x'^dag a_x)[j, i] (b_y'^dag b_y)[j, i] in the basis index
    ``x * m + y``. An aux slice that is exactly zero acts on nothing. The
    form is picked in this order:

    * diagonal, when every acting aux slice touches one computational
      index per side (aux registers that copy x and y): every Gram block
      off x = x' and y = y' is then exactly zero, and
      p[x, y] = sum_ij (a_x^dag a_x)[j, i] (b_y^dag b_y)[j, i] is the trace
      form of the n + m per-index Grams (``_grams``), read from the pair
      in the layout it was given;
    * factor, with at most n m acting aux pairs:
      W[(x, y), (alpha, beta)] = sum_i a[x, alpha, i] b[y, beta, i];
    * dense otherwise, contracted by ``_contract_cut`` with an exactly real
      diagonal, through the psd-checked constructor.

    A zero pair raises InvalidInput.
    """
    n, m, r = a.shape[0], b.shape[0], a.shape[2]
    trace = _sq_norm(a, b)
    if not trace > 0.0:
        raise InvalidInput("factor pair encodes the zero state")
    touch_a, touch_b = a.any(axis=2), b.any(axis=2)  # (comp, aux) index pairs
    if touch_a.sum(axis=0).max() <= 1 and touch_b.sum(axis=0).max() <= 1:
        p = _trace_form(_grams(a) / trace, _grams(b).swapaxes(1, 2))
        return DensityMatrix._of_diagonal(n, m, p.reshape(-1)), trace
    # Aux-major, one contiguous block per aux slice; a pair built that way,
    # as the simulator's is, is read without a copy.
    fa, fb = (np.ascontiguousarray(f.transpose(1, 0, 2)) for f in (a, b))
    acting_a, acting_b = touch_a.any(axis=0), touch_b.any(axis=0)
    ka, kb = np.count_nonzero(acting_a), np.count_nonzero(acting_b)
    if ka * kb <= n * m:
        w = (fa[acting_a] / np.sqrt(trace)).reshape(-1, r) @ fb[acting_b].reshape(-1, r).T
        w = w.reshape(ka, n, kb, m).transpose(1, 3, 0, 2).reshape(n * m, ka * kb)
        return DensityMatrix._of_factor(n, m, w), trace
    out = _contract_cut(_cut_grams(fa) / trace, _cut_grams(fb), n, m)
    out.reshape(-1)[::n * m + 1].imag = 0.0
    return DensityMatrix(n, m, out), trace


@dataclass(frozen=True)
class Purification:
    """Normalized pure state sum_i a[:, :, i] (x) b[:, :, i] across the
    Alice|Bob cut, held as its factor pair.

    ``a`` is (n, ka, r) and ``b`` is (m, kb, r): a[x, alpha, i] is the
    i-th term's amplitude at Alice's computational index x and aux index
    alpha, and b the same for Bob, so the Schmidt rank is at most r. The
    reduction to the computational registers is the state purified.
    Construction checks the shapes, finiteness and unit norm within 1e-10,
    and holds read-only copies of the two factors.

    ``dims_a`` and ``dims_b`` are each side's register dims, the
    computational register first, by default (n, ka) and (m, kb);
    ``names`` names Alice's registers, then Bob's. Only the dense state
    (``amps``, ``to_state``, Alice's registers before Bob's) reads them; the
    library reads the pair and its cached ``schmidt`` form.
    """

    a: np.ndarray
    b: np.ndarray
    dims_a: tuple[int, ...] | None = None
    dims_b: tuple[int, ...] | None = None
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        a = as_complex_array(self.a, "purification factor a")
        b = as_complex_array(self.b, "purification factor b")
        if a.ndim != 3 or b.ndim != 3 or a.shape[2] != b.shape[2] or 0 in a.shape + b.shape:
            raise InvalidInput(f"factor shapes {a.shape} and {b.shape} are not "
                               "nonempty (n, ka, r) and (m, kb, r)")
        object.__setattr__(self, "a", read_only_copy(a))
        object.__setattr__(self, "b", read_only_copy(b))
        for field, f in (("dims_a", a), ("dims_b", b)):
            dims = f.shape[:2] if getattr(self, field) is None else tuple(getattr(self, field))
            if dims[:1] != f.shape[:1] or int(math.prod(dims[1:])) != f.shape[1]:
                raise InvalidInput(f"registers {dims} do not lay out a factor of shape {f.shape}")
            object.__setattr__(self, field, dims)
        _require_unit_norm(a, b)

    @classmethod
    def _of_schmidt(cls, res: SvdResult, n: int, ka: int, m: int, kb: int,
                    **layout) -> "Purification":
        """The pair of coefficient-absorbed Schmidt vectors sqrt(s_i) u_i and
        sqrt(s_i) conj(v_i) of a Schmidt form of the (n ka) x (m kb) cut
        matrix, which it keeps as its ``schmidt``."""
        t = res.rank
        root = np.sqrt(res.singulars[:t])
        purif = cls((res.left[:, :t] * root).reshape(n, ka, t),
                    (res.right[:, :t].conj() * root).reshape(m, kb, t), **layout)
        vars(purif)["schmidt"] = SvdResult(res.left[:, :t], res.singulars[:t], res.right[:, :t])
        return purif

    @classmethod
    def from_state(cls, state: RegisterState) -> "Purification":
        """The coefficient-absorbed Schmidt pair of a dense state, on its
        registers with Alice's before Bob's: the one place a dense state is
        decomposed (``cut_svd``). A zero state raises InvalidInput."""
        n, m, ka, kb = comp_aux_dims(state)
        res = cut_svd(state)
        if res.rank == 0:
            raise InvalidInput("zero state has no Schmidt vectors")
        regs_a, regs_b = state.registers_on("A"), state.registers_on("B")
        names = None if state.names is None else tuple(state.names[i] for i in regs_a + regs_b)
        return cls._of_schmidt(res, n, ka, m, kb, names=names,
                               dims_a=tuple(state.dims[i] for i in regs_a),
                               dims_b=tuple(state.dims[i] for i in regs_b))

    @cached_property
    def schmidt(self) -> SvdResult:
        """Schmidt form across the cut, one column per counted coefficient:
        the (n ka) x (m kb) cut matrix a b^T equals left diag(singulars)
        right^dag. From thin QRs a = Q_a R_a, b = Q_b R_b of the rows of
        the flattened factors that are not exactly zero, and an SVD of the
        small matrix R_a R_b^T; ``left`` and ``right`` are exactly zero on
        the zero rows. A pair made from a Schmidt form (``from_state``)
        keeps that form instead."""
        fa, fb = self.a.reshape(-1, self.a.shape[2]), self.b.reshape(-1, self.b.shape[2])
        rows_a, rows_b = _nonzero_rows(fa), _nonzero_rows(fb)
        qa, ra = np.linalg.qr(fa[rows_a])
        qb, rb = np.linalg.qr(fb[rows_b])
        u, s, vh = np.linalg.svd(ra @ rb.T)
        t = rank_from_singulars(s)
        left = np.zeros((fa.shape[0], t), dtype=np.complex128)
        right = np.zeros((fb.shape[0], t), dtype=np.complex128)
        left[rows_a] = qa @ u[:, :t]
        right[rows_b] = qb.conj() @ vh[:t].conj().T
        return SvdResult(left=left, singulars=s[:t], right=right)

    def srank(self) -> int:
        return self.schmidt.singulars.size  # one column per counted coefficient

    def schmidt_pair(self) -> "Purification":
        """The same state held as its coefficient-absorbed Schmidt vectors:
        factors of shapes (n, ka, t) and (m, kb, t), t the Schmidt rank."""
        return Purification._of_schmidt(self.schmidt, *self.a.shape[:2], *self.b.shape[:2])

    def reduction(self) -> DensityMatrix:
        """The purified state on (computational A) (x) (computational B),
        (x, y) ordered: ``comp_reduction`` of the pair."""
        return comp_reduction(self.a, self.b)[0]

    @cached_property
    def amps(self) -> np.ndarray:
        """Dense amplitudes, Alice's registers before Bob's, built on first use."""
        return (self.a.reshape(-1, self.a.shape[2]) @ self.b.reshape(-1, self.b.shape[2]).T).reshape(-1)

    def to_state(self) -> RegisterState:
        """The dense state on the declared registers."""
        sides = ("A",) * len(self.dims_a) + ("B",) * len(self.dims_b)
        return RegisterState(self.amps, self.dims_a + self.dims_b, sides, self.names)


def partial_trace(state: RegisterState | DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace out every register not in ``keep`` and return the reduction.

    ``state`` is a RegisterState, or a DensityMatrix read as the two
    registers ``(dim_a, dim_b)``; any other input raises InvalidInput.
    ``keep`` lists register indices in any order; the result keeps them
    in declared order. It is split as (kept A dims) x (kept B dims) when
    every kept A register precedes every kept B register, and as (K, 1)
    otherwise.
    """
    if isinstance(state, RegisterState):
        dims, sides = state.dims, state.sides
    elif isinstance(state, DensityMatrix):
        dims, sides = (state.dim_a, state.dim_b), ("A", "B")
    else:
        raise InvalidInput("partial_trace expects a RegisterState or a DensityMatrix")
    n = len(dims)
    keep_list = sorted(set(int(k) for k in keep))
    if not keep_list or keep_list[0] < 0 or keep_list[-1] >= n:
        raise InvalidInput(f"keep must be a nonempty subset of the {n} registers")
    if isinstance(state, RegisterState):
        traced = [i for i in range(n) if i not in keep_list]
        tensor = state.amps.reshape(dims)
        red = np.tensordot(tensor, tensor.conj(), axes=(traced, traced))
    else:
        eq = {(0,): "ijkj->ik", (1,): "ijil->jl", (0, 1): "ijkl->ijkl"}[tuple(keep_list)]
        red = np.einsum(eq, state.mat.reshape(dims + dims))
    k = int(np.prod([dims[i] for i in keep_list]))
    red = red.reshape(k, k)
    kept_sides = [sides[i] for i in keep_list]
    if "B" in kept_sides and "A" in kept_sides[kept_sides.index("B"):]:
        return DensityMatrix(k, 1, red)
    da = int(np.prod([dims[i] for i in keep_list if sides[i] == "A"]))
    return DensityMatrix(da, k // da, red)


def _is_diagonal(mat: np.ndarray) -> bool:
    """True when every off-diagonal entry of the square ``mat`` is 0.0.

    A dense matrix is rejected from its first row in O(N); only when that
    row is clear is the off-diagonal view scanned: the N^2 - 1 entries
    after mat[0, 0], read as N - 1 rows of N + 1, end each row on a
    diagonal entry.
    """
    n = mat.shape[0]
    if np.any(mat[0, 1:]):
        return False
    return not np.any(mat.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n])


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity tr sqrt(sigma^1/2 rho sigma^1/2), not squared.

    One formula: the trace norm (sum of singular values) of
    ``sigma.factor``^dag ``rho.factor``, which equals ||rho^1/2 sigma^1/2||_1
    for any pair of factors. A state held as its factor (a pure state from
    ``density_from_pure``, the output of a pure seed) uses that factor, so
    no dense matrix is formed or decomposed: a pure target psi gives
    ||W^dag psi||, exactly sqrt(<psi|rho|psi>). A factor computed from a
    dense matrix drops the eigenvalues at most REL_RANK_TOL times the
    largest; sqrt is operator monotone, so that is the only way the value
    can read low, by at most the square root of the trace of the dropped
    part. Beyond rounding it never reads high.

    When the product is a row or a column, as it is whenever either state
    has a one-column factor (a pure target, a rank-one state, the output
    of a protocol with one acting Kraus pair), its one singular value is
    its 2-norm, and ``_vector_norm`` takes it with no SVD: within a few
    ulps of the SVD's value, and the same bits for a 1 x 1 product.

    Two states held as diagonals, as classical states
    sum_xy P(x, y)|xy><xy| are, commute, and the value is the
    Bhattacharyya sum sum_i sqrt(p_i q_i) of their Born diagonals, exact
    with no rank cutoff and no eigensolver.
    """
    if not isinstance(rho, DensityMatrix) or not isinstance(sigma, DensityMatrix):
        raise InvalidInput("fidelity expects two DensityMatrix inputs")
    if rho.dim != sigma.dim:
        raise InvalidInput("fidelity requires states of equal dimension")
    if rho.form == sigma.form == "diagonal":
        return float(np.sqrt(rho.born_diagonal * sigma.born_diagonal).sum())
    inner = sigma.factor.conj().T @ rho.factor
    if 1 in inner.shape:
        return _vector_norm(inner)
    return float(np.linalg.svd(inner, compute_uv=False).sum())


def _vector_norm(v: np.ndarray) -> float:
    """2-norm of a C-contiguous complex row or column ``v``, its one
    singular value: w sqrt(sum_i (p_i / w)^2) over the real and imaginary
    parts p_i, w the largest |p_i|. For a single entry z this is the
    sequence of operations LAPACK's dlapy3 applies to (Re z, Im z, 0), so a
    1 x 1 product reads bit for bit the value its SVD gives."""
    parts = v.reshape(-1).view(np.float64)
    w = float(np.abs(parts).max(initial=0.0))
    if w == 0.0:
        return 0.0
    q = parts / w
    return w * math.sqrt(float((q * q).sum()))
