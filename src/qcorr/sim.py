"""Protocol execution and verification.

A generation protocol is a shared seed state plus one local channel per
party. Applying the channels and comparing the output against the target
at the declared fidelity slack verifies a protocol end to end; a
single-qubit register transfer models communication, which can at most
double the Schmidt rank per qubit moved. Simulation is exact: "the
distribution produced" always means the exact Born-rule diagonal, so
acceptance checks carry no statistical noise.

A channel holds its Kraus operators as one read-only stacked (K, out, in)
array, checked once and read whole by the simulator. Where it is checked
depends on where it comes from: a channel from a ``qcorr/1`` file or from
user code is checked on its stack by the public ``LocalChannel``
constructor, and a channel the library builds from Schmidt vectors is
checked on those columns by ``LocalChannel._of_isometry``, which then lays
out the padded stack without checking it again. Every seed enters the
channels as a factor W with seed = W W^dag: a pure seed as its amplitude
column, a mixed one as its cached ``DensityMatrix.factor``. With W_kappa
the da x db slices of W, the output is the reduction
(``linalg.comp_reduction``) of the dilated pair
a[x, (alpha, kappa), j] = (K_alpha W_kappa)[x, j] and
b[y, beta, j] = K_beta[y, j]: held as its diagonal when the channels copy
x and y (a classical output), as its factor when few Kraus pairs act, and
contracted otherwise. It costs |K_A| k + |K_B| Kraus products for a
k-column W, not one per Kraus pair. The psd rule is ``linalg``'s: a
diagonal or factor output is psd by form, and a contracted one is checked.

Verification is ``linalg.fidelity``: for a pure target, held as its
vector psi, against an output held as W, it is ||W^dag psi||, so a pure
state stays a vector from target to verdict; a classical target against
a classical output is the Bhattacharyya sum of their diagonals.

Every protocol is built by one function, ``_protocol_from_schmidt``, from
a Schmidt form across the Alice|Bob cut and the layout of each side. A
pure target is generated straight from its truncated Schmidt form
(``synth_pure_protocol``), with no purification in between; a mixed or
classical target comes from the Schmidt form of a purification
(``protocol_from_purification``), which a ``Purification`` computes from
its factor pair without forming the dense state, and is the reduction that
the Schmidt vectors encode, read off them without forming the state's
density matrix. Both forms are ``linalg.SvdResult``s. The builder takes a
``Purification`` only; a dense state comes in through
``Purification.from_state``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .classical import DistMatrix, _require_int, validate_dist
from .errors import InvalidInput
from .linalg import (
    DensityMatrix,
    Purification,
    RegisterState,
    SvdResult,
    as_complex_array,
    as_complex_stack,
    ceil_log2,
    comp_reduction,
    fidelity,
    rank_from_singulars,
)
# srank_eps is not used here, but stays importable from this module:
# benchmarks/tracing.py wraps the name on this module too.
from .pure import PureState, _truncation, require_eps, schmidt_decompose, srank_eps  # noqa: F401


def _require_isometry(flat: np.ndarray) -> None:
    """Raise InvalidInput unless V^dag V = I within 1e-9 entrywise, for V
    the rows of ``flat``: the trace-preservation check of a channel, on its
    stacked Kraus operators or on its isometry columns."""
    gram = flat.conj().T @ flat
    gram.reshape(-1)[::flat.shape[1] + 1] -= 1.0  # V^dag V - I, in place
    if float(np.abs(gram).max()) > 1e-9:
        raise InvalidInput("channel is not trace preserving within 1e-9")


@dataclass(frozen=True)
class LocalChannel:
    """Completely positive trace-preserving map given by Kraus operators,
    each out_dim x in_dim; a single-Kraus channel is an isometry.

    ``kraus`` holds the operators as one read-only complex
    (K, out_dim, in_dim) array (``linalg.as_complex_stack``)."""

    kraus: np.ndarray

    def __post_init__(self):
        if not len(self.kraus):
            raise InvalidInput("channel needs at least one Kraus operator")
        ops = as_complex_stack(self.kraus, "Kraus")
        _require_isometry(ops.reshape(-1, ops.shape[2]))
        object.__setattr__(self, "kraus", ops)

    @property
    def in_dim(self) -> int:
        return self.kraus.shape[2]

    @property
    def out_dim(self) -> int:
        return self.kraus.shape[1]

    @classmethod
    def identity(cls, dim: int) -> "LocalChannel":
        return cls(np.eye(dim, dtype=np.complex128)[None])

    @classmethod
    def _of_isometry(cls, columns: np.ndarray, in_dim: int, comp: int,
                     aux: int) -> "LocalChannel":
        """The channel that sends seed index i < t to ``columns[:, i]`` and
        then traces out the aux block, built from and checked on the
        (comp aux) x t isometry U = ``columns``; a seed index t <= i <
        in_dim goes to |0> of the computational register.

        The side's space factors as comp (x) aux with comp major. The Kraus
        stack is (I_comp (x) <alpha|) U, padded with zero columns to in_dim,
        for each alpha < aux, then one padding operator |0><i| for each
        i >= t. The padding adds exact zeros and ones, so K^dag K - I of
        the stack equals blockdiag(U^dag U - I_t, 0) entry for entry: the
        public constructor's checks, finiteness and ``_require_isometry``,
        run on U, decide the same. The stack is written once, read-only,
        and not checked again.
        """
        out_dim, t = columns.shape
        if out_dim != comp * aux:
            raise InvalidInput("column length does not factor as comp x aux")
        columns = as_complex_array(columns, "isometry")
        _require_isometry(columns)
        ops = np.zeros((aux + in_dim - t, comp, in_dim), dtype=np.complex128)
        ops[:aux, :, :t] = columns.reshape(comp, aux, t).transpose(1, 0, 2)
        ops[np.arange(aux, aux + in_dim - t), 0, np.arange(t, in_dim)] = 1.0
        ops.flags.writeable = False
        channel = object.__new__(cls)
        object.__setattr__(channel, "kraus", ops)
        return channel


Seed = Union[PureState, DensityMatrix]


def _seed_marginal_ranks(seed: Seed) -> tuple[int, int]:
    """Schmidt rank of a pure seed; ranks of a mixed seed's two marginals.

    The Schmidt coefficients of a pure seed whose amplitude matrix is
    exactly diagonal, as ``protocol_from_purification`` builds it, are the
    moduli of its diagonal, so it needs no SVD; any other pure seed reads
    its one cached Schmidt decomposition. A mixed seed with factor W,
    reshaped to (da, db, k), has marginals M M^dag for M its two
    matricizations, da x (db k) and db x (da k): their ranks count the
    squared singulars of M, under the eigenvalue cutoff of
    ``DensityMatrix.factor``, with no marginal formed."""
    if isinstance(seed, PureState):
        psi = seed.amps.reshape(seed.dim_a, seed.dim_b)
        diag = np.diagonal(psi)
        exact = np.count_nonzero(psi) == np.count_nonzero(diag)
        r = rank_from_singulars(np.abs(diag)) if exact else schmidt_decompose(seed).rank
        return r, r
    w = seed.factor.reshape(seed.dim_a, seed.dim_b, -1)
    return tuple(rank_from_singulars(np.linalg.svd(m, compute_uv=False) ** 2)
                 for m in (w.reshape(seed.dim_a, -1),
                           w.transpose(1, 0, 2).reshape(seed.dim_b, -1)))


@dataclass(frozen=True)
class ProtocolSpec:
    """Everything needed to run and judge one generation protocol: the
    shared seed, its declared size in qubits (half the total, i.e. per
    side), the two local channels, the target, and the fidelity slack."""

    seed: Seed
    seed_size_qubits: int
    alice: LocalChannel
    bob: LocalChannel
    target: DensityMatrix
    eps: float

    def __post_init__(self):
        require_eps(self.eps)
        _require_int(self.seed_size_qubits, "ProtocolSpec.seed_size_qubits", 0)
        if not isinstance(self.seed, (PureState, DensityMatrix)):
            raise InvalidInput("seed must be a PureState or a DensityMatrix")
        if not isinstance(self.target, DensityMatrix):
            raise InvalidInput("ProtocolSpec.target must be a DensityMatrix")
        da, db = self.seed.dim_a, self.seed.dim_b
        if self.alice.in_dim != da or self.bob.in_dim != db:
            raise InvalidInput(
                f"channel input dims ({self.alice.in_dim}, {self.bob.in_dim}) "
                f"do not match seed dims ({da}, {db})"
            )
        ra, rb = _seed_marginal_ranks(self.seed)
        if isinstance(self.seed, PureState):
            if self.seed_size_qubits != ceil_log2(ra):
                raise InvalidInput(
                    f"declared seed size {self.seed_size_qubits} does not match "
                    f"ceil(log2(srank)) = {ceil_log2(ra)}"
                )
        elif 2**self.seed_size_qubits < max(ra, rb):
            raise InvalidInput("declared seed size cannot hold the seed marginals")


def apply_protocol(spec: ProtocolSpec) -> DensityMatrix:
    """Run the protocol: (Phi_A (x) Phi_B)(seed) on the target's space.

    Every seed enters as a factor W, (da db) x k, with seed = W W^dag: a
    pure seed as its amplitude column (k = 1), a mixed one as its cached
    ``DensityMatrix.factor``, which drops every eigenvalue at or below the
    rank cutoff, so a negative one that the psd check accepted enters as
    zero, clamped as ``EIG_CLAMP_TOL`` says. With W reshaped to
    (da, db, k), the output is the reduction of the dilated pair
    a[x, (alpha, kappa), j] = (K_alpha W_kappa)[x, j] and
    b[y, beta, j] = K_beta[y, j], j over Bob's seed support, so a padding
    operator has a zero slice and drops out (``comp_reduction``). The
    output is psd by form or checked there, and its trace must equal
    ||W||_F^2, the seed's held mass, within 1e-9. The cost grows with
    |K_A| k + |K_B|, not with the number of Kraus pairs.
    """
    seed = spec.seed
    oa, ob = spec.target.dim_a, spec.target.dim_b
    if spec.alice.out_dim != oa or spec.bob.out_dim != ob:
        raise InvalidInput("channel output dims do not match the target")
    alice, bob = spec.alice.kraus, spec.bob.kraus  # aux-major (K, out, in)
    w = seed.amps[:, None] if isinstance(seed, PureState) else seed.factor
    da, k = seed.dim_a, w.shape[1]
    w = w.reshape(da, seed.dim_b, k)
    on = w.any(axis=(0, 2))  # Bob's seed support
    # left[alpha, x, j, kappa] = (K_alpha W_kappa)[x, j], from one product.
    left = alice.reshape(-1, da) @ w.compress(on, axis=1).reshape(da, -1)
    a = left.reshape(len(alice), oa, -1, k).transpose(1, 0, 3, 2).reshape(oa, len(alice) * k, -1)
    rho, trace = comp_reduction(a, bob.compress(on, axis=2).transpose(1, 0, 2))
    mass = float(np.vdot(w, w).real)
    if abs(trace - mass) > 1e-9:
        raise InvalidInput(f"protocol output trace {trace!r} deviates from the seed's "
                           f"{mass!r} beyond 1e-9")
    return rho


def measure_computational(rho: DensityMatrix) -> DistMatrix:
    """Born-rule diagonal P(x, y) = <x,y|rho|x,y> as a distribution, read
    in whatever form rho is held (``DensityMatrix.born_diagonal``)."""
    if not isinstance(rho, DensityMatrix):
        raise InvalidInput("expected a DensityMatrix")
    return validate_dist(rho.born_diagonal.reshape(rho.dim_a, rho.dim_b), renormalize=True)


def transfer_qubit(state: RegisterState, which: int, frm: str, to: str) -> RegisterState:
    """Move one qubit register across the cut; amplitudes are unchanged.

    The Schmidt rank across the new cut is at most twice (and at least
    half) the old one, which is what makes qubit communication and seed
    size interchangeable resources.
    """
    if which < 0 or which >= len(state.dims):
        raise InvalidInput(f"register index {which} out of range")
    if frm not in ("A", "B") or to not in ("A", "B") or frm == to:
        raise InvalidInput("transfer must move a register between distinct sides")
    if state.dims[which] != 2:
        raise InvalidInput(f"register {which} has dim {state.dims[which]}, not 2")
    if state.sides[which] != frm:
        raise InvalidInput(f"register {which} is not on side {frm}")
    sides = list(state.sides)
    sides[which] = to
    return RegisterState(state.amps, state.dims, tuple(sides), state.names)


@dataclass(frozen=True)
class GenerationReport:
    fidelity: float
    passed: bool
    seed_size: int


def verify_generation(spec: ProtocolSpec) -> GenerationReport:
    """Run the protocol and judge it against its declared fidelity target."""
    out = apply_protocol(spec)
    fid = fidelity(out, spec.target)
    return GenerationReport(
        fidelity=fid,
        passed=fid >= 1.0 - spec.eps - 1e-9,
        seed_size=spec.seed_size_qubits,
    )


def synth_pure_protocol(psi: PureState, eps: float) -> ProtocolSpec:
    """Protocol generating ``psi`` within fidelity 1 - eps from the
    smallest possible seed.

    The protocol of the approximant of ``build_approximant(psi, eps)``,
    with ``psi`` as its target, built straight from the approximant's
    truncated Schmidt form, so psi is decomposed once. The seed is the
    Schmidt-diagonal state of the approximant, padded to full qubits per
    side, and the local channels rotate the seed basis onto the
    approximant's Schmidt vectors. The declared seed size is exactly the
    generation complexity of ``psi`` at accuracy eps. For eps >= 1 the
    approximant is the leading Schmidt term, generated from no seed qubits.
    """
    return _protocol_from_schmidt(_truncation(psi, eps), psi.dim_a, 1, psi.dim_b, 1,
                                  psi.to_density(), eps)


def protocol_from_purification(purif: Purification,
                               target: DensityMatrix | None = None,
                               eps: float = 0.0) -> ProtocolSpec:
    """Protocol realizing the reduction of a purification.

    The protocol of the pair's ``schmidt`` form (``_protocol_from_schmidt``),
    laid out as the pair's factors. Any input other than a Purification
    raises InvalidInput; a dense state goes through
    ``Purification.from_state`` first.
    """
    if not isinstance(purif, Purification):
        raise InvalidInput("expected a Purification")
    (n, ka, _), (m, kb, _) = purif.a.shape, purif.b.shape
    return _protocol_from_schmidt(purif.schmidt, n, ka, m, kb, target, eps)


def _protocol_from_schmidt(res: SvdResult, n: int, ka: int, m: int, kb: int,
                           target: DensityMatrix | None, eps: float) -> ProtocolSpec:
    """The one protocol builder: the protocol of a Schmidt form ``res`` of
    the (n ka) x (m kb) Alice|Bob cut matrix, one column per counted
    coefficient.

    The seed is the Schmidt-diagonal state; each party's channel rotates
    its seed register onto its Schmidt vectors and then traces out its aux
    block, keeping the computational register. The declared seed size is
    ceil(log2) of the Schmidt rank. The default target is the reduction to
    the computational registers, (x, y) ordered, read off the same Schmidt
    vectors by ``comp_reduction``, a diagonal for a classical target. Seed
    and target both use the Schmidt coefficients divided by their norm,
    the norm of the state.
    """
    t = res.singulars.size  # one column per counted coefficient: the rank
    # One dot: bit for bit np.linalg.norm of a real vector.
    coeffs = res.singulars / math.sqrt(res.singulars @ res.singulars)
    left, right = res.left, res.right.conj()
    if target is None:
        target = comp_reduction((left * coeffs).reshape(n, ka, t), right.reshape(m, kb, t))[0]

    d = 2 ** ceil_log2(t)
    seed_amps = np.zeros(d * d, dtype=np.complex128)
    seed_amps[:t * (d + 1):d + 1] = coeffs  # the diagonal of the d x d matrix
    seed = PureState(d, d, seed_amps)

    alice = LocalChannel._of_isometry(left, d, n, ka)
    bob = LocalChannel._of_isometry(right, d, m, kb)
    return ProtocolSpec(seed, ceil_log2(t), alice, bob, target, eps)

