"""Tests for protocol execution, measurement, transfers and verification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr.classical import PsdFactorization, gram_extract, synth_from_psd, validate_dist
from qcorr.errors import InvalidInput
from qcorr.linalg import (
    DensityMatrix,
    RegisterState,
    ceil_log2,
    fidelity,
    partial_trace,
    schmidt_rank,
)
from qcorr.general import Purification
from qcorr.pure import PureState, build_approximant, q_eps
from qcorr.rand import (
    random_density_matrix,
    random_psd_factorization,
    random_pure_state,
    random_register_state,
)
from qcorr.sim import (
    LocalChannel,
    ProtocolSpec,
    apply_protocol,
    measure_computational,
    protocol_from_purification,
    synth_pure_protocol,
    transfer_qubit,
    verify_generation,
)

EPR = PureState(2, 2, np.array([1, 0, 0, 1]) / np.sqrt(2))
SKEWED = PureState(2, 2, np.array([np.sqrt(0.9), 0, 0, np.sqrt(0.1)]))


def identity_epr_spec(eps: float = 0.0) -> ProtocolSpec:
    return ProtocolSpec(
        seed=EPR,
        seed_size_qubits=1,
        alice=LocalChannel.identity(2),
        bob=LocalChannel.identity(2),
        target=EPR.to_density(),
        eps=eps,
    )


def test_channel_requires_trace_preservation():
    with pytest.raises(InvalidInput):
        LocalChannel((np.array([[1.0, 0.0], [0.0, 0.5]]),))


def test_protocol_spec_rejects_nan_and_negative_eps():
    for eps in (-0.1, float("nan")):
        with pytest.raises(InvalidInput, match="eps"):
            identity_epr_spec(eps)


def test_apply_protocol_identity_on_epr():
    out = apply_protocol(identity_epr_spec())
    np.testing.assert_allclose(out.mat, EPR.to_density().mat, atol=1e-12)


def test_apply_protocol_synthesized_pure_target():
    rng = np.random.default_rng(113)
    psi = random_pure_state(rng, 4, 4)
    spec = synth_pure_protocol(psi, 0.0)
    out = apply_protocol(spec)
    assert fidelity(out, psi.to_density()) >= 1 - 1e-9


def test_depolarizing_channel_preserves_maximally_mixed_reductions():
    p = 0.37
    kraus = (
        np.sqrt(1 - 3 * p / 4) * np.eye(2),
        np.sqrt(p / 4) * np.array([[0, 1], [1, 0]]),
        np.sqrt(p / 4) * np.array([[0, -1j], [1j, 0]]),
        np.sqrt(p / 4) * np.array([[1, 0], [0, -1]]),
    )
    spec = ProtocolSpec(
        seed=EPR,
        seed_size_qubits=1,
        alice=LocalChannel(kraus),
        bob=LocalChannel.identity(2),
        target=EPR.to_density(),
        eps=1.0,
    )
    out = apply_protocol(spec)
    assert abs(np.trace(out.mat).real - 1.0) <= 1e-9
    red_a = partial_trace(out, keep=[0])
    red_b = partial_trace(out, keep=[1])
    np.testing.assert_allclose(red_a.mat, np.eye(2) / 2, atol=1e-10)
    np.testing.assert_allclose(red_b.mat, np.eye(2) / 2, atol=1e-10)


def kraus_pair_sum(spec: ProtocolSpec) -> np.ndarray:
    """Reference: sum over all Kraus pairs of (K_a (x) K_b) sigma (K_a (x) K_b)^dag."""
    seed = spec.seed
    sigma = seed.to_density().mat if isinstance(seed, PureState) else seed.mat
    out = np.zeros((spec.target.dim, spec.target.dim), dtype=np.complex128)
    for ka in spec.alice.kraus:
        for kb in spec.bob.kraus:
            op = np.kron(ka, kb)
            out += op @ sigma @ op.conj().T
    return out


def random_channel(rng, in_dim: int, out_dim: int, n_kraus: int, pad: int) -> LocalChannel:
    """n_kraus random Kraus operators on the first inputs, plus one padding
    operator (|0><i|) for each of the last ``pad`` inputs."""
    t = min(in_dim - pad, n_kraus * out_dim)
    pad = in_dim - t
    shape = (n_kraus * out_dim, t)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ops = np.zeros((n_kraus + pad, out_dim, in_dim), dtype=np.complex128)
    ops[:n_kraus, :, :t] = np.linalg.qr(g)[0].reshape(n_kraus, out_dim, t)
    ops[np.arange(n_kraus, n_kraus + pad), 0, np.arange(t, in_dim)] = 1.0
    return LocalChannel(tuple(ops))


#: (in_dim, out_dim, Kraus operators, padding operators) of one side.
channel_shape = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
                          st.integers(0, 3))


@settings(max_examples=30, deadline=None)
@given(alice=channel_shape, bob=channel_shape, mixed=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_apply_protocol_matches_kraus_pair_sum(alice, bob, mixed, seed):
    rng = np.random.default_rng(seed)
    (da, oa, na, pa), (db, ob, nb, pb) = alice, bob
    if mixed:
        sigma = random_density_matrix(rng, da, db, int(rng.integers(1, da * db + 1)))
        size = ceil_log2(max(da, db))
    else:
        sigma = random_pure_state(rng, da, db)
        size = ceil_log2(min(da, db))
    spec = ProtocolSpec(
        seed=sigma,
        seed_size_qubits=size,
        alice=random_channel(rng, da, oa, na, min(pa, da - 1)),
        bob=random_channel(rng, db, ob, nb, min(pb, db - 1)),
        target=DensityMatrix(oa, ob, np.eye(oa * ob) / (oa * ob)),
        eps=1.0,
    )
    np.testing.assert_allclose(apply_protocol(spec).mat, kraus_pair_sum(spec),
                               rtol=0, atol=1e-12)


def test_measure_computational_diagonal():
    rho = DensityMatrix(2, 2, np.diag([0.5, 0, 0, 0.5]))
    dist = measure_computational(rho)
    np.testing.assert_allclose(dist.p, [[0.5, 0], [0, 0.5]], atol=1e-12)


def test_measure_computational_discards_coherences():
    dist = measure_computational(EPR.to_density())
    np.testing.assert_allclose(dist.p, [[0.5, 0], [0, 0.5]], atol=1e-12)


def test_measure_matches_source_distribution():
    rng = np.random.default_rng(127)
    from qcorr.rand import random_psd_factorization

    dist, fact = random_psd_factorization(rng, 3, 2, 2)
    state = synth_from_psd(dist, fact)
    red = partial_trace(state, keep=[0, 3])
    measured = measure_computational(red)
    np.testing.assert_allclose(measured.p, dist.p, atol=1e-8)


def test_transfer_product_state():
    amps = np.zeros(4)
    amps[0] = 1.0
    state = RegisterState(amps, (2, 2), ("A", "B"))
    moved = transfer_qubit(state, 1, "B", "A")
    assert moved.sides == ("A", "A")
    assert schmidt_rank(moved) == 1


def test_transfer_epr_half_collapses_cut():
    state = EPR.to_registers()
    assert schmidt_rank(state) == 2
    moved = transfer_qubit(state, 1, "B", "A")
    assert schmidt_rank(moved) == 1
    np.testing.assert_array_equal(moved.amps, state.amps)


def register_state_of_rank(rng, dims, sides, k: int) -> RegisterState:
    """Random state whose Alice|Bob Schmidt rank is at most k (generically
    min(k, dim_a, dim_b)); the registers of the two sides may interleave."""
    a_regs = [i for i, s in enumerate(sides) if s == "A"]
    b_regs = [i for i, s in enumerate(sides) if s == "B"]
    da = int(np.prod([dims[i] for i in a_regs]))
    db = int(np.prod([dims[i] for i in b_regs]))
    left = rng.standard_normal((da, k)) + 1j * rng.standard_normal((da, k))
    right = rng.standard_normal((k, db)) + 1j * rng.standard_normal((k, db))
    amps = (left @ right).reshape([dims[i] for i in a_regs + b_regs])
    amps = amps.transpose(np.argsort(a_regs + b_regs)).reshape(-1)
    return RegisterState(amps / np.linalg.norm(amps), tuple(dims), tuple(sides))


@settings(max_examples=60, deadline=None)
@given(regs=st.lists(st.tuples(st.integers(1, 3), st.sampled_from("AB")),
                     min_size=1, max_size=5),
       k=st.integers(1, 9), which=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
def test_transfer_rank_at_most_doubles(regs, k, which, seed):
    # Moving one qubit across the cut changes the Schmidt rank by a factor
    # of at most 2 either way.
    dims = [d for d, _ in regs] + [2]
    sides = [s for _, s in regs] + ["A"]
    which = which % len(dims)
    dims[which] = 2
    state = register_state_of_rank(np.random.default_rng(seed), dims, sides, k)
    src = sides[which]
    moved = transfer_qubit(state, which, src, "B" if src == "A" else "A")
    before, after = schmidt_rank(state), schmidt_rank(moved)
    assert after <= 2 * before
    assert before <= 2 * after


def test_transfer_validates_register():
    state = EPR.to_registers()
    with pytest.raises(InvalidInput):
        transfer_qubit(state, 0, "B", "A")  # register 0 is Alice's
    with pytest.raises(InvalidInput):
        transfer_qubit(RegisterState(np.ones(3) / np.sqrt(3), (3,), ("A",)),
                       0, "A", "B")  # not a qubit


def test_verify_exact_protocol():
    report = verify_generation(identity_epr_spec())
    assert report.passed
    assert report.fidelity >= 1 - 1e-9
    assert report.seed_size == 1


def test_verify_truncated_protocol_at_two_slacks():
    spec = synth_pure_protocol(SKEWED, 0.06)
    report = verify_generation(spec)
    assert report.passed
    assert abs(report.fidelity - np.sqrt(0.9)) <= 1e-9
    assert report.seed_size == 0

    strict = ProtocolSpec(
        seed=spec.seed,
        seed_size_qubits=spec.seed_size_qubits,
        alice=spec.alice,
        bob=spec.bob,
        target=spec.target,
        eps=0.01,
    )
    assert not verify_generation(strict).passed


def test_synth_pure_protocol_epr():
    spec = synth_pure_protocol(EPR, 0.0)
    assert spec.seed_size_qubits == 1
    assert isinstance(spec.seed, PureState)
    np.testing.assert_allclose(np.abs(spec.seed.amps),
                               np.abs(EPR.amps), atol=1e-10)
    assert verify_generation(spec).passed


def test_synth_pure_protocol_seed_size_matches_q_eps():
    rng = np.random.default_rng(137)
    for _ in range(5):
        psi = random_pure_state(rng, 5, 3)
        for eps in (0.0, 0.05, 0.2, 1.0):
            spec = synth_pure_protocol(psi, eps)
            assert spec.seed_size_qubits == q_eps(psi, eps)
            assert verify_generation(spec).passed
            np.testing.assert_allclose(apply_protocol(spec).mat,
                                       build_approximant(psi, eps)[0].to_density().mat,
                                       rtol=0, atol=1e-10)


def test_synth_pure_protocol_vacuous_target():
    psi = PureState(2, 2, [1, 0, 0, 0])
    spec = synth_pure_protocol(psi, 1.0)
    assert spec.seed_size_qubits == 0
    assert verify_generation(spec).passed


def test_protocol_from_purification_half_i2():
    half = validate_dist([[0.5, 0.0], [0.0, 0.5]])
    cs = tuple(np.diag([1.0 if x == i else 0.0 for i in range(2)]).astype(complex)
               for x in range(2))
    ds = tuple((0.5 * np.diag([1.0 if y == i else 0.0 for i in range(2)])).astype(complex)
               for y in range(2))
    state = synth_from_psd(half, PsdFactorization(r=2, cs=cs, ds=ds, residual=0.0))
    spec = protocol_from_purification(state)
    assert spec.seed_size_qubits == 1
    report = verify_generation(spec)
    assert report.passed
    out = apply_protocol(spec)
    np.testing.assert_allclose(out.mat, np.diag([0.5, 0, 0, 0.5]), atol=1e-8)


def test_planted_protocol_rung_20_5():
    dist, fact = random_psd_factorization(np.random.default_rng(20), 20, 20, 5)
    state = synth_from_psd(dist, fact)
    assert gram_extract(state).r == 5
    spec = protocol_from_purification(state)
    np.testing.assert_allclose(spec.target.mat, partial_trace(state, [0, 3]).mat,
                               rtol=0, atol=1e-12)
    out = apply_protocol(spec)
    assert fidelity(out, spec.target) >= 1 - 1e-12
    np.testing.assert_allclose(measure_computational(out).p, dist.p, rtol=0, atol=1e-8)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 5), m=st.integers(1, 5), r=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_synthesis_extraction_round_trip(n, m, r, seed):
    # synth_from_psd followed by gram_extract gives back a witness of P of
    # size at most r, and the protocol of the purification generates its
    # reduction.
    dist, fact = random_psd_factorization(np.random.default_rng(seed), n, m, r)
    state = synth_from_psd(dist, fact)
    back = gram_extract(state)
    assert back.r <= r
    np.testing.assert_allclose(back.trace_products(), dist.p, rtol=0, atol=1e-8)
    spec = protocol_from_purification(state)
    np.testing.assert_allclose(spec.target.mat, partial_trace(state, [0, 3]).mat,
                               rtol=0, atol=1e-12)
    assert verify_generation(spec).passed


#: Register dims of one side: the computational register, then the aux ones.
side_dims = st.lists(st.integers(1, 3), min_size=1, max_size=3)


@settings(max_examples=30, deadline=None)
@given(a_dims=side_dims, b_dims=side_dims, seed=st.integers(0, 2**32 - 1))
def test_purification_reduction_matches_aux_contraction(a_dims, b_dims, seed):
    # Registers of the two sides interleave in a random order; the first
    # register on each side is its computational one.
    rng = np.random.default_rng(seed)
    sides = rng.permutation(["A"] * len(a_dims) + ["B"] * len(b_dims)).tolist()
    fill = {"A": iter(a_dims), "B": iter(b_dims)}
    dims = tuple(next(fill[side]) for side in sides)
    state = random_register_state(rng, dims, tuple(sides))
    ia, ib = sides.index("A"), sides.index("B")
    aux = [i for i in range(len(dims)) if i not in (ia, ib)]
    tensor = state.amps.reshape(dims)
    ref = np.tensordot(tensor, tensor.conj(), axes=(aux, aux))  # kept axes in declared order
    if ib < ia:
        ref = ref.transpose(1, 0, 3, 2)
    d = a_dims[0] * b_dims[0]
    red = Purification(state).reduction()
    assert (red.dim_a, red.dim_b) == (a_dims[0], b_dims[0])
    np.testing.assert_allclose(red.mat, ref.reshape(d, d), rtol=0, atol=1e-12)


def test_protocol_from_purification_rejects_zero_state():
    with pytest.raises(InvalidInput, match="zero state"):
        protocol_from_purification(RegisterState(np.zeros(4), (2, 2), ("A", "B")))


def test_protocol_spec_validates_seed_size():
    with pytest.raises(InvalidInput):
        ProtocolSpec(
            seed=EPR,
            seed_size_qubits=0,  # EPR needs 1
            alice=LocalChannel.identity(2),
            bob=LocalChannel.identity(2),
            target=EPR.to_density(),
            eps=0.0,
        )


def test_protocol_spec_validates_channel_dims():
    with pytest.raises(InvalidInput):
        ProtocolSpec(
            seed=EPR,
            seed_size_qubits=1,
            alice=LocalChannel.identity(3),
            bob=LocalChannel.identity(2),
            target=EPR.to_density(),
            eps=0.0,
        )


def test_random_channels_preserve_trace_and_positivity():
    rng = np.random.default_rng(139)
    for _ in range(10):
        d_in = int(rng.integers(2, 5))
        d_out = int(rng.integers(2, 5))
        n_kraus = int(rng.integers(1, 4))
        raw = [rng.standard_normal((d_out, d_in))
               + 1j * rng.standard_normal((d_out, d_in)) for _ in range(n_kraus)]
        total = sum(g.conj().T @ g for g in raw)
        vals, vecs = np.linalg.eigh(total)
        inv_root = (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T
        channel = LocalChannel(tuple(g @ inv_root for g in raw))
        g = rng.standard_normal((d_in, d_in)) + 1j * rng.standard_normal((d_in, d_in))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        out = channel.apply(rho)
        assert abs(np.trace(out).real - 1.0) <= 1e-9
        assert np.linalg.eigvalsh((out + out.conj().T) / 2)[0] >= -1e-9


def test_mixed_seed_protocol():
    # Classical shared randomness as a mixed seed: diag(1/2, 1/2) on A x B.
    seed = DensityMatrix(2, 2, np.diag([0.5, 0, 0, 0.5]))
    spec = ProtocolSpec(
        seed=seed,
        seed_size_qubits=1,
        alice=LocalChannel.identity(2),
        bob=LocalChannel.identity(2),
        target=seed,
        eps=0.0,
    )
    report = verify_generation(spec)
    assert report.passed
    assert report.fidelity >= 1 - 1e-9
