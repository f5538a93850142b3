"""Protocol execution and verification.

A generation protocol is a shared seed state plus one local channel per
party. Applying the channels and comparing the output against the target
at the declared fidelity slack verifies a protocol end to end; a
single-qubit register transfer models communication, which can at most
double the Schmidt rank per qubit moved. All simulation is dense and
exact: "the distribution produced" always means the exact Born-rule
diagonal, so acceptance checks carry no statistical noise. A channel
acts through its transfer matrix sum_k K_k (x) conj(K_k), formed once
per side, so a protocol costs |K_A| + |K_B| Kraus operators, not their
product.

Every protocol is built by one function, ``protocol_from_purification``,
from the Schmidt decomposition of a purification across the Alice|Bob
cut, computed on the support of the cut matrix. A pure target is
generated through its truncated Schmidt sum (``synth_pure_protocol``);
a mixed or classical target is the reduction that the Schmidt factors
encode, read off them without forming the state's density matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .classical import DistMatrix, validate_dist
from .errors import InvalidInput
from .linalg import (
    DensityMatrix,
    RegisterState,
    as_complex_array,
    ceil_log2,
    comp_aux_dims,
    comp_reduction,
    cut_svd,
    fidelity,
    hermitize,
    rank_from_singulars,
)
# srank_eps is not used here, but stays importable from this module:
# benchmarks/tracing.py wraps the name on this module too.
from .pure import PureState, build_approximant, require_eps, srank_eps  # noqa: F401


@dataclass(frozen=True)
class LocalChannel:
    """Completely positive trace-preserving map given by Kraus operators,
    each out_dim x in_dim; a single-Kraus channel is an isometry."""

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(as_complex_array(k, f"Kraus[{i}]") for i, k in enumerate(self.kraus))
        if not ops:
            raise InvalidInput("channel needs at least one Kraus operator")
        shape = ops[0].shape
        if len(shape) != 2:
            raise InvalidInput("Kraus operators must be 2-D")
        for i, k in enumerate(ops):
            if k.shape != shape:
                raise InvalidInput(f"Kraus[{i}] shape {k.shape} differs from {shape}")
        total = sum(k.conj().T @ k for k in ops)
        if float(np.abs(total - np.eye(shape[1])).max()) > 1e-9:
            raise InvalidInput("channel is not trace preserving within 1e-9")
        object.__setattr__(self, "kraus", ops)

    @property
    def in_dim(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.kraus[0].shape[0]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return sum(k @ rho @ k.conj().T for k in self.kraus)

    @classmethod
    def identity(cls, dim: int) -> "LocalChannel":
        return cls((np.eye(dim, dtype=np.complex128),))


Seed = Union[PureState, DensityMatrix]


def _seed_density(seed: Seed) -> tuple[np.ndarray, int, int]:
    if isinstance(seed, PureState):
        return np.outer(seed.amps, seed.amps.conj()), seed.dim_a, seed.dim_b
    if isinstance(seed, DensityMatrix):
        return seed.mat, seed.dim_a, seed.dim_b
    raise InvalidInput("seed must be a PureState or a DensityMatrix")


def _seed_marginal_ranks(seed: Seed) -> tuple[int, int]:
    if isinstance(seed, PureState):
        s = np.linalg.svd(seed.amps.reshape(seed.dim_a, seed.dim_b),
                          compute_uv=False)
        r = rank_from_singulars(s)
        return r, r
    mat, da, db = _seed_density(seed)
    tensor = mat.reshape(da, db, da, db)
    ra = rank_from_singulars(
        np.sqrt(np.clip(np.linalg.eigvalsh(np.einsum("xyzy->xz", tensor)), 0, None))
    )
    rb = rank_from_singulars(
        np.sqrt(np.clip(np.linalg.eigvalsh(np.einsum("xyxz->yz", tensor)), 0, None))
    )
    return ra, rb


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
        if self.seed_size_qubits < 0:
            raise InvalidInput("seed size must be nonnegative")
        _, da, db = _seed_density(self.seed)
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


def _transfer(channel: LocalChannel) -> np.ndarray:
    """Transfer matrix T[(x, X), (i, I)] = sum_k K_k[x, i] conj(K_k[X, I])
    of a channel, from one product of its stacked Kraus operators."""
    ops = np.stack(channel.kraus)
    t = np.tensordot(ops, ops.conj(), axes=(0, 0))  # t[x, i, X, I]
    o, i = channel.out_dim, channel.in_dim
    return t.transpose(0, 2, 1, 3).reshape(o * o, i * i)


def apply_protocol(spec: ProtocolSpec) -> DensityMatrix:
    """Run the protocol: (Phi_A (x) Phi_B)(seed) on the target's space.

    The seed sigma[(i, j), (I, J)] is contracted with Alice's transfer
    matrix over (i, I), then with Bob's over (j, J): the cost grows with
    |K_A| + |K_B|, not with the number of Kraus pairs.
    """
    sigma, da, db = _seed_density(spec.seed)
    oa, ob = spec.target.dim_a, spec.target.dim_b
    if spec.alice.out_dim != oa or spec.bob.out_dim != ob:
        raise InvalidInput("channel output dims do not match the target")
    s = sigma.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)
    out = (_transfer(spec.alice) @ s) @ _transfer(spec.bob).T
    out = out.reshape(oa, oa, ob, ob).transpose(0, 2, 1, 3).reshape(oa * ob, oa * ob)
    trace = float(np.trace(out).real)
    if abs(trace - 1.0) > 1e-9:
        raise InvalidInput(f"protocol output trace {trace!r} deviates beyond 1e-9")
    return DensityMatrix(oa, ob, hermitize(out) / trace)


def measure_computational(rho: DensityMatrix) -> DistMatrix:
    """Born-rule diagonal P(x, y) = <x,y|rho|x,y> as a distribution."""
    if not isinstance(rho, DensityMatrix):
        raise InvalidInput("expected a DensityMatrix")
    diag = np.clip(np.real(np.diag(rho.mat)), 0.0, None)
    return validate_dist(diag.reshape(rho.dim_a, rho.dim_b), renormalize=True)


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

    The protocol of the purification ``build_approximant(psi, eps)``, with
    ``psi`` as its target: the seed is the Schmidt-diagonal state of the
    truncated approximant, padded to full qubits per side, and the local
    channels rotate the seed basis onto the approximant's Schmidt vectors.
    The declared seed size is exactly the generation complexity of ``psi``
    at accuracy eps. For eps >= 1 the approximant is the leading Schmidt
    term, generated from no seed qubits.
    """
    phi, _ = build_approximant(psi, eps)
    return protocol_from_purification(phi.to_registers(), psi.to_density(), eps)


def protocol_from_purification(
    state: RegisterState, target: DensityMatrix | None = None, eps: float = 0.0
) -> ProtocolSpec:
    """Protocol realizing the reduction of a purification.

    The seed is the Schmidt-diagonal state of the purification across the
    Alice|Bob cut; each party's channel rotates its seed register onto its
    Schmidt vectors and then traces out everything but the computational
    register (the first register on its side). The declared seed size is
    ceil(log2) of the purification's Schmidt rank. The default target is
    the reduction to the computational registers, (x, y) ordered, read off
    the same Schmidt vectors.
    """
    n, m, ka, kb = comp_aux_dims(state)
    res = cut_svd(state)
    t = res.rank
    if t == 0:
        raise InvalidInput("zero state cannot seed a protocol")
    coeffs = res.singulars[:t]
    left = res.left[:, :t]
    right = res.right[:, :t].conj()
    if target is None:
        target = DensityMatrix(n, m, comp_reduction((left * coeffs).reshape(n, ka, t),
                                                    right.reshape(m, kb, t)))

    d = 2 ** ceil_log2(t)
    seed_amps = np.zeros((d, d), dtype=np.complex128)
    seed_amps[np.arange(t), np.arange(t)] = coeffs / float(np.linalg.norm(coeffs))
    seed = PureState(d, d, seed_amps.reshape(-1))

    alice = _rotate_and_discard(left, d, n, ka)
    bob = _rotate_and_discard(right, d, m, kb)
    return ProtocolSpec(seed, ceil_log2(t), alice, bob, target, eps)


def _rotate_and_discard(columns: np.ndarray, in_dim: int, comp: int, aux: int) -> LocalChannel:
    """Compose |i> -> columns[:, i] with tracing out the aux block.

    The side's space factors as comp (x) aux with comp major; the trace-out
    Kraus operators are (I_comp (x) <alpha|).
    """
    out_dim, t = columns.shape
    if out_dim != comp * aux:
        raise InvalidInput("column length does not factor as comp x aux")
    ops = np.zeros((aux + in_dim - t, comp, in_dim), dtype=np.complex128)
    ops[:aux, :, :t] = columns.reshape(comp, aux, t).transpose(1, 0, 2)
    ops[np.arange(aux, aux + in_dim - t), 0, np.arange(t, in_dim)] = 1.0
    return LocalChannel(tuple(ops))
