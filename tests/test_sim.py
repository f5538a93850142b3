"""Tests for protocol execution, measurement, transfers and verification."""

import os
import tempfile

import numpy as np
import pytest

from qcorr import io as qio
from qcorr import linalg, sim
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcorr.classical import PsdFactorization, gram_extract, synth_from_psd, validate_dist
from qcorr.errors import InvalidInput, NotPsd
from qcorr.linalg import (
    DensityMatrix,
    RegisterState,
    ceil_log2,
    cut_svd,
    fidelity,
    partial_trace,
    require_psd,
    schmidt_rank,
)
from qcorr.general import Purification
from qcorr.pure import PureState, _truncation, build_approximant, q_eps, state_from_matrix
from qcorr.rand import (
    random_density_matrix,
    random_psd_factorization,
    random_pure_state,
    random_register_state,
)
from qcorr.sim import (
    LocalChannel,
    ProtocolSpec,
    _seed_marginal_ranks,
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


HALF = np.eye(2) / np.sqrt(2)

#: For each matrix family: its constructor from the family's members, and
#: the stacked array the constructed object holds them in.
FAMILIES = {
    "Kraus": (LocalChannel, lambda ch: ch.kraus),
    "C": (lambda mats: PsdFactorization(r=2, cs=mats, ds=[np.eye(2) / 2], residual=0.0),
          lambda fact: fact.cs),
    "A": (lambda mats: qio._pair_from_families(2, mats, [HALF]), lambda pair: pair.a),
}


def _columns(kraus) -> np.ndarray:
    """The isometry U of a Kraus stack, the (out aux) x in matrix whose row
    (x, alpha) is row x of K_alpha: what ``LocalChannel._of_isometry``
    lays out as that stack."""
    ops = np.asarray(kraus, dtype=np.complex128)
    return ops.transpose(1, 0, 2).reshape(-1, ops.shape[2])


def _builders(kraus):
    """The two builders of the channel of a Kraus stack: the public
    constructor on the stack, and ``_of_isometry`` on its columns, padded
    by one seed index."""
    k, out, t = np.shape(kraus)
    return (lambda: LocalChannel(kraus),
            lambda: LocalChannel._of_isometry(_columns(kraus), t + 1, out, k))


def test_channel_validation_messages():
    # The family checks of the Kraus operators are in the table below.
    with pytest.raises(InvalidInput, match="channel needs at least one Kraus operator"):
        LocalChannel(())
    for build in _builders((HALF, HALF, HALF)):
        with pytest.raises(InvalidInput, match="not trace preserving within 1e-9"):
            build()
    for build in _builders((HALF, np.diag([np.nan, 1.0]))):
        with pytest.raises(InvalidInput, match="contains non-finite entries"):
            build()
    with pytest.raises(InvalidInput, match="column length does not factor as comp x aux"):
        LocalChannel._of_isometry(np.eye(3, 2), 2, 2, 2)
    ops = (HALF, np.array([[0, 1j], [1j, 0]]) / np.sqrt(2))
    ch = LocalChannel(ops)
    assert ch.kraus.shape == (2, 2, 2) and ch.kraus.dtype == np.complex128
    assert not ch.kraus.flags.writeable
    assert (len(ch.kraus), ch.in_dim, ch.out_dim) == (2, 2, 2)
    # Unpadded, the columns give back the stack, byte for byte.
    built = LocalChannel._of_isometry(_columns(ops), 2, 2, 2)
    assert not built.kraus.flags.writeable
    assert built.kraus.shape == ch.kraus.shape
    assert built.kraus.tobytes() == ch.kraus.tobytes()
    padded = _builders(ops)[1]()
    assert padded.kraus.shape == (3, 2, 3)
    assert padded.kraus.tobytes() == LocalChannel(padded.kraus).kraus.tobytes()


@pytest.mark.parametrize("delta, accepted", [(2e-9, False), (5e-10, True)])
def test_trace_preservation_bound_at_its_edge(delta, accepted):
    # K^dag K - I is delta on one diagonal entry: above it, from an extra
    # Kraus operator, and below it, from a scaled isometry; the columns of
    # the same stacks, padded, are judged alike.
    extra = np.zeros((2, 2))
    extra[0, 0] = np.sqrt(delta)
    above = (np.eye(2), extra)
    below = (np.diag([np.sqrt(1.0 - delta), 1.0]),)
    for kraus in (above, below):
        for build in _builders(kraus):
            if accepted:
                build()
            else:
                with pytest.raises(InvalidInput, match="not trace preserving within 1e-9"):
                    build()


@pytest.mark.parametrize("tag", list(FAMILIES))
@pytest.mark.parametrize("members, message", [
    ((HALF, np.eye(3)), r"{tag}\[1\] shape \(3, 3\) differs from \(2, 2\)"),
    ((HALF, np.diag([np.nan, 1.0])), r"{tag}\[1\] contains non-finite entries"),
    ((np.array([["1", "x"], ["0", "1"]]),), r"{tag}\[0\] has non-numeric entries"),
    ((np.ones(2), np.ones(2)), r"{tag}\[0\] must be 2-D"),
    ((HALF, np.ones(2)), r"{tag}\[1\] must be 2-D"),
    ((), "{empty}"),
], ids=["ragged", "non-finite", "non-numeric", "1-D", "1-D-second", "empty"])
def test_family_validation_messages(tag, members, message):
    build, _ = FAMILIES[tag]
    empty = "at least one Kraus operator" if tag == "Kraus" else f"{tag} family is empty"
    with pytest.raises(InvalidInput, match=message.format(tag=tag, empty=empty)):
        build(members)


@pytest.mark.parametrize("tag", list(FAMILIES))
def test_families_hold_read_only_copies(tag):
    # Mutating the members, or the stacked array, given to a constructor
    # changes nothing the constructor checked, and the held stack is not
    # writeable.
    build, held = FAMILIES[tag]
    want = np.stack([HALF, HALF])
    members = [HALF.copy(), HALF.copy()]
    stacked = want.astype(complex)
    for source in (members, stacked):
        got = held(build(source))
        source[0][0, 0] = 5.0
        np.testing.assert_array_equal(got, want)
        assert got.dtype == np.complex128 and not got.flags.writeable
        with pytest.raises(ValueError):
            got[0, 0, 0] = 5.0


def test_overwritten_factor_leaves_the_witness():
    # Overwriting C[0] of the source after construction leaves the witness,
    # its residual and the protocol synthesized from it as they were.
    dist, planted = random_psd_factorization(np.random.default_rng(19), 4, 4, 2)
    cs = [c.copy() for c in planted.cs]
    fact = PsdFactorization(r=2, cs=cs, ds=planted.ds, residual=planted.residual)
    cs[0][:] = 25.0 * np.eye(2)
    np.testing.assert_array_equal(fact.cs, planted.cs)
    assert np.linalg.norm(fact.trace_products() - dist.p) <= 1e-12
    spec = protocol_from_purification(synth_from_psd(dist, fact))
    assert verify_generation(spec).passed
    measured = measure_computational(apply_protocol(spec))
    np.testing.assert_allclose(measured.p, dist.p, rtol=0, atol=1e-12)


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


@pytest.mark.parametrize("alice, bob, columns", [
    ((3, 3, 2), (3, 3, 3), 6), ((2, 2, 2), (2, 2, 2), 4), ((4, 2, 2), (2, 4, 1), 2),
    ((2, 3, 1), (2, 2, 1), 1),
])
def test_pure_target_against_a_pure_seed_output_is_the_trace_norm(alice, bob, columns):
    # A pure seed through channels with several acting Kraus operators a
    # side: the output is held as a factor W with one column per acting
    # pair, so psi^dag W is a row and W^dag psi a column, each read by its
    # 2-norm, which is their one singular value. One column gives a 1 x 1
    # product, read bit for bit.
    (da, oa, na), (db, ob, nb) = alice, bob
    rng = np.random.default_rng(157)
    for _ in range(20):
        spec = ProtocolSpec(
            seed=random_pure_state(rng, da, db),
            seed_size_qubits=ceil_log2(min(da, db)),
            alice=random_channel(rng, da, oa, na, 0),
            bob=random_channel(rng, db, ob, nb, 0),
            target=random_pure_state(rng, oa, ob).to_density(),
            eps=1.0,
        )
        out = apply_protocol(spec)
        assert out.form == "factor" and out.factor.shape == (oa * ob, columns)
        psi, w = spec.target.factor, out.factor
        for rho, sigma, inner in ((out, spec.target, psi.conj().T @ w),
                                  (spec.target, out, w.conj().T @ psi)):
            ref = float(np.linalg.svd(inner, compute_uv=False).sum())
            if columns == 1:
                assert fidelity(rho, sigma) == ref
            else:
                assert abs(fidelity(rho, sigma) - ref) <= 1e-14 * ref


@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_pure_seed_output_factor_is_the_approximant(eps):
    psi = random_pure_state(np.random.default_rng(149), 8, 64)
    out = apply_protocol(synth_pure_protocol(psi, eps))
    assert out.form == "factor"  # held by apply_protocol, not computed on access
    w = out.factor
    assert w.shape == (8 * 64, 1)
    phi = build_approximant(psi, eps)[0].amps
    assert abs(np.vdot(phi, w[:, 0])) >= 1 - 1e-12


def with_padding(channel: LocalChannel, extra: int) -> LocalChannel:
    """The channel on ``extra`` more inputs, each sent to |0> by its own
    padding Kraus operator."""
    out_dim, in_dim = channel.out_dim, channel.in_dim
    ops = [np.pad(k, ((0, 0), (0, extra))) for k in channel.kraus]
    for i in range(extra):
        pad = np.zeros((out_dim, in_dim + extra), dtype=np.complex128)
        pad[0, in_dim + i] = 1.0
        ops.append(pad)
    return LocalChannel(tuple(ops))


def test_padding_kraus_operators_leave_a_pure_seed_output_unchanged():
    psi = random_pure_state(np.random.default_rng(151), 5, 3)
    spec = synth_pure_protocol(psi, 0.0)
    d = spec.seed.dim_a
    amps = np.zeros((d + 2, d + 2), dtype=np.complex128)
    amps[:d, :d] = spec.seed.amps.reshape(d, d)
    padded = ProtocolSpec(PureState(d + 2, d + 2, amps.reshape(-1)), spec.seed_size_qubits,
                          with_padding(spec.alice, 2), with_padding(spec.bob, 2),
                          spec.target, spec.eps)
    out, out_padded = apply_protocol(spec), apply_protocol(padded)
    assert out_padded.form == out.form == "factor"
    assert out_padded.factor.shape == out.factor.shape
    np.testing.assert_allclose(out_padded.mat, out.mat, rtol=0, atol=1e-15)


def test_pure_seed_with_more_acting_pairs_than_outputs_matches_kraus_pair_sum():
    dist, fact = random_psd_factorization(np.random.default_rng(6), 6, 6, 3)
    spec = protocol_from_purification(synth_from_psd(dist, fact))
    psi = spec.seed.amps.reshape(spec.seed.dim_a, spec.seed.dim_b)
    acting_a = sum(bool(np.any(k @ psi)) for k in spec.alice.kraus)
    acting_b = sum(bool(np.any(k @ psi.T)) for k in spec.bob.kraus)
    assert acting_a * acting_b > spec.target.dim
    out = apply_protocol(spec)
    assert out.form == "diagonal"  # its aux registers copy x and y
    np.testing.assert_allclose(out.mat, kraus_pair_sum(spec), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n, r", [(6, 3), (10, 4)])
def test_planted_output_is_exactly_diagonal(n, r, monkeypatch):
    # Aux registers that copy x and y make every Gram block off x = x' and
    # y = y' exactly zero, so output and target are held as diagonals, psd
    # by form with no dense matrix checked, and fidelity is the
    # Bhattacharyya sum of their diagonals.
    checked = []
    require = linalg.require_psd
    monkeypatch.setattr(linalg, "require_psd",
                        lambda h, name="matrix": checked.append(name) or require(h, name))
    dist, fact = random_psd_factorization(np.random.default_rng(n), n, n, r)
    spec = protocol_from_purification(synth_from_psd(dist, fact))
    out = apply_protocol(spec)
    assert out.form == spec.target.form == "diagonal" and checked == []
    off = ~np.eye(n * n, dtype=bool)
    for rho in (out, spec.target):
        assert np.all(rho.mat[off] == 0.0)
        assert np.all(rho.mat.diagonal().imag == 0.0)
    p, q = (np.clip(np.diag(rho.mat).real, 0.0, None) for rho in (out, spec.target))
    assert fidelity(out, spec.target) == float(np.sqrt(p * q).sum())
    assert verify_generation(spec).passed


def embedded_channel(rng, in_dim: int, out_dim: int, rows: int) -> LocalChannel:
    """A random channel into the first ``rows`` of ``out_dim`` outputs:
    every Kraus operator is zero on the rows below."""
    inner = random_channel(rng, in_dim, rows, 2, 0)
    ops = np.zeros((len(inner.kraus), out_dim, in_dim), dtype=np.complex128)
    ops[:, :rows] = inner.kraus
    return LocalChannel(tuple(ops))


def test_mixed_seed_through_channels_with_zero_rows(monkeypatch):
    rng = np.random.default_rng(167)
    seed = random_density_matrix(rng, 3, 2, 4)
    spec = ProtocolSpec(seed, ceil_log2(3), embedded_channel(rng, 3, 4, 2),
                        embedded_channel(rng, 2, 3, 1),
                        DensityMatrix(4, 3, np.eye(12) / 12), 1.0)
    checked = []
    require = linalg.require_psd
    monkeypatch.setattr(linalg, "require_psd",
                        lambda h, name="matrix": checked.append(name) or require(h, name))
    out = apply_protocol(spec)
    assert checked == ["density matrix"]
    np.testing.assert_allclose(out.mat, kraus_pair_sum(spec), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(out.mat, out.mat.conj().T)
    block = out.mat.reshape(4, 3, 4, 3)
    assert not block[2:].any() and not block[:, 1:].any()


def test_measure_reads_a_held_factor_without_a_dense_matrix():
    psi = random_pure_state(np.random.default_rng(149), 8, 64)
    out = apply_protocol(synth_pure_protocol(psi, 0.0))
    dist = measure_computational(out)
    assert out.form == "factor" and "mat" not in vars(out)
    np.testing.assert_allclose(dist.p.reshape(-1), np.diag(out.mat).real, rtol=0, atol=1e-15)


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
    red = partial_trace(state.to_state(), keep=[0, 3])
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
    np.testing.assert_allclose(spec.target.mat, partial_trace(state.to_state(), [0, 3]).mat,
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
    # reduction. Every step reads the pair; its dense state, decomposed by
    # cut_svd, is the reference each step must match.
    dist, fact = random_psd_factorization(np.random.default_rng(seed), n, m, r)
    state = synth_from_psd(dist, fact)
    dense = state.to_state()
    ref = cut_svd(dense)
    np.testing.assert_allclose(state.schmidt.singulars, ref.singulars[:ref.rank],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(state.reduction().mat, partial_trace(dense, [0, 3]).mat,
                               rtol=0, atol=1e-12)
    dense_pair = Purification.from_state(dense)
    np.testing.assert_allclose(dense_pair.to_state().amps, dense.amps, rtol=0, atol=1e-12)
    back, dense_back = gram_extract(state), gram_extract(dense_pair)
    assert back.r == dense_back.r <= r
    np.testing.assert_allclose(back.trace_products(), dist.p, rtol=0, atol=1e-8)
    np.testing.assert_allclose(back.trace_products(), dense_back.trace_products(),
                               rtol=0, atol=1e-12)
    spec = protocol_from_purification(state)
    np.testing.assert_allclose(spec.target.mat, partial_trace(dense, [0, 3]).mat,
                               rtol=0, atol=1e-12)
    report, dense_report = verify_generation(spec), verify_generation(
        protocol_from_purification(dense_pair))
    assert report.passed and dense_report.passed
    assert report.seed_size == dense_report.seed_size


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
    red = Purification.from_state(state).reduction()
    assert (red.dim_a, red.dim_b) == (a_dims[0], b_dims[0])
    np.testing.assert_allclose(red.mat, ref.reshape(d, d), rtol=0, atol=1e-12)


def assert_built_psd(spec: ProtocolSpec) -> None:
    """The output of a pure-seeded protocol, which skips the psd check, is
    psd far inside its tolerance and is stored as the checked constructor
    stores it."""
    out = apply_protocol(spec)
    require_psd(out.mat)
    assert np.linalg.eigvalsh(out.mat)[0] >= -1e-12
    np.testing.assert_array_equal(DensityMatrix(out.dim_a, out.dim_b, out.mat).mat,
                                  out.mat)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), m=st.integers(1, 4), ka=st.integers(1, 3),
       kb=st.integers(1, 3), k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_purification_protocol_output_is_psd(n, m, ka, kb, k, seed):
    state = register_state_of_rank(np.random.default_rng(seed), (n, ka, m, kb),
                                   ("A", "A", "B", "B"), k)
    assert_built_psd(protocol_from_purification(Purification.from_state(state)))


@settings(max_examples=40, deadline=None)
@given(da=st.integers(1, 6), db=st.integers(1, 6), eps=st.floats(0.0, 0.5),
       seed=st.integers(0, 2**32 - 1))
def test_pure_protocol_output_is_psd(da, db, eps, seed):
    psi = random_pure_state(np.random.default_rng(seed), da, db)
    assert_built_psd(synth_pure_protocol(psi, eps))


def test_protocol_from_purification_rejects_zero_state():
    # A dense state reaches the builder through Purification.from_state,
    # which refuses a zero state.
    with pytest.raises(InvalidInput, match="zero state"):
        protocol_from_purification(
            Purification.from_state(RegisterState(np.zeros(4), (2, 2), ("A", "B"))))


def test_dense_inputs_are_refused_by_the_pair_readers():
    # protocol_from_purification and gram_extract take a Purification only;
    # a dense state goes through Purification.from_state first.
    for bad in (EPR.to_registers(), EPR, EPR.amps):
        for read in (protocol_from_purification, gram_extract):
            with pytest.raises(InvalidInput, match="expected a Purification"):
                read(bad)


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


@pytest.mark.parametrize("field, value, message", [
    ("seed_size_qubits", True, "ProtocolSpec.seed_size_qubits must be an integer"),
    ("seed_size_qubits", 1.0, "ProtocolSpec.seed_size_qubits must be an integer"),
    ("seed_size_qubits", "1", "ProtocolSpec.seed_size_qubits must be an integer"),
    ("seed_size_qubits", -1, "ProtocolSpec.seed_size_qubits must be >= 0"),
    ("target", EPR, "ProtocolSpec.target must be a DensityMatrix"),
    ("target", np.eye(4) / 4, "ProtocolSpec.target must be a DensityMatrix"),
])
def test_protocol_spec_validates_field_types(field, value, message):
    fields = dict(seed=EPR, seed_size_qubits=1, alice=LocalChannel.identity(2),
                  bob=LocalChannel.identity(2), target=EPR.to_density(), eps=0.0)
    with pytest.raises(InvalidInput, match=message):
        ProtocolSpec(**{**fields, field: value})
    assert verify_generation(ProtocolSpec(**{**fields, "seed_size_qubits": np.int64(1)})).passed


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
        spec = ProtocolSpec(
            seed=DensityMatrix(d_in, 1, rho),
            seed_size_qubits=ceil_log2(d_in),
            alice=channel,
            bob=LocalChannel.identity(1),
            target=DensityMatrix(d_out, 1, np.eye(d_out) / d_out),
            eps=0.0,
        )
        out = apply_protocol(spec).mat
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


def test_mixed_seed_enters_as_its_clamped_factor():
    # Each negative eigenvalue of the seed is within tolerance, so the seed
    # is accepted, and it enters the channels as its factor, which clamps
    # them to zero: the channel that would pour both into one output state
    # gives exactly diag(0, 1), and the protocol verifies.
    seed = DensityMatrix(3, 1, np.diag([1 + 1.8e-10, -0.9e-10, -0.9e-10]))
    alice = LocalChannel((np.array([[0, 0, 0], [1, 0, 0]]),
                          np.array([[0, 1, 0], [0, 0, 0]]),
                          np.array([[0, 0, 1], [0, 0, 0]])))
    target = DensityMatrix(2, 1, np.diag([0.0, 1.0]))
    spec = ProtocolSpec(seed, 0, alice, LocalChannel.identity(1), target, 0.0)
    out = apply_protocol(spec)
    assert out.form == "diagonal"
    np.testing.assert_array_equal(out.mat, np.diag([0.0, 1.0]))
    report = verify_generation(spec)
    assert report.passed and report.fidelity == 1.0


def test_mixed_seed_trace_is_checked_against_its_factor_mass():
    # One large eigenvalue and 255 at 0.9e-10 of it, below the rank cutoff:
    # the factor holds 1 - 2.3e-8 of the trace, and the output's trace is
    # compared with that mass, not with 1.
    rng = np.random.default_rng(173)
    vals = np.full(256, 0.9e-10)
    vals[0] = 1.0
    vals /= vals.sum()
    u = np.linalg.qr(rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256)))[0]
    seed = DensityMatrix(16, 16, (u * vals) @ u.conj().T)
    assert 1e-9 < 1.0 - np.vdot(seed.factor, seed.factor).real < 1e-7
    spec = ProtocolSpec(seed, 4, random_channel(rng, 16, 3, 2, 0),
                        random_channel(rng, 16, 2, 3, 0),
                        DensityMatrix(3, 2, np.eye(6) / 6), 1.0)
    np.testing.assert_allclose(apply_protocol(spec).mat, kraus_pair_sum(spec),
                               rtol=0, atol=1e-7)


@settings(max_examples=60, deadline=None)
@given(da=st.integers(1, 4), db=st.integers(1, 4), diagonal=st.booleans(), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_seed_marginal_ranks_match_the_partial_traces(da, db, diagonal, data, seed):
    # The ranks read off the seed's factor equal the column counts of the
    # factors of its two dense marginals, the reference.
    rng = np.random.default_rng(seed)
    if diagonal:
        weights = rng.integers(0, 3, da * db)
        weights[rng.integers(da * db)] += 1  # exact zeros, but not all zero
        sigma = DensityMatrix(da, db, np.diag(weights / weights.sum()))
        assert sigma.form == "diagonal"
    else:
        sigma = random_density_matrix(rng, da, db, data.draw(st.integers(1, da * db)))
    assert _seed_marginal_ranks(sigma) == tuple(
        partial_trace(sigma, [side]).factor.shape[1] for side in (0, 1))


def test_shared_randomness_seed_stays_diagonal():
    # k = 16 shared values, held as their diagonal, through a dephasing
    # channel a side: the output is diagonal, and the seed never forms mat.
    k = 16
    p = np.zeros((k, k))
    p[np.arange(k), np.arange(k)] = np.arange(1.0, k + 1)
    seed = DensityMatrix._of_diagonal(k, k, p.reshape(-1) / p.sum())
    dephase = LocalChannel(np.eye(k)[:, None, :] * np.eye(k)[:, :, None])
    spec = ProtocolSpec(seed, ceil_log2(k), dephase, dephase, seed, 0.0)
    out = apply_protocol(spec)
    report = verify_generation(spec)
    assert out.form == "diagonal"
    assert "mat" not in vars(seed)
    assert report.passed


def test_mixed_seed_ranks_ignore_rounding_eigenvalues():
    # Each marginal of this rank-2 seed has two eigenvalues of 1/2 and two at
    # rounding level (~5e-17): one qubit per side holds it, none does not.
    rng = np.random.default_rng(5)

    def haar(d):
        q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        return q * (np.diag(r) / np.abs(np.diag(r)))

    ua, ub = haar(4), haar(4)
    terms = [np.kron(ua[:, i], ub[:, i]) for i in range(2)]
    seed = DensityMatrix(4, 4, sum(0.5 * np.outer(t, t.conj()) for t in terms))
    ident = LocalChannel.identity(4)
    assert verify_generation(ProtocolSpec(seed, 1, ident, ident, seed, 0.0)).passed
    with pytest.raises(InvalidInput, match="cannot hold"):
        ProtocolSpec(seed, 0, ident, ident, seed, 0.0)


@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_pure_protocol_verifies_without_a_dense_matrix(eps, monkeypatch, tmp_path):
    psi = random_pure_state(np.random.default_rng(157), 8, 16)
    spec = synth_pure_protocol(psi, eps)
    outputs = []

    def recording(spec):
        outputs.append(apply_protocol(spec))
        return outputs[-1]

    monkeypatch.setattr(sim, "apply_protocol", recording)
    assert verify_generation(spec).passed
    (out,) = outputs
    assert out.form == spec.target.form == "factor"
    assert "mat" not in vars(out) and "mat" not in vars(spec.target)
    # Read later, the matrix is W W^dag to the bit with its diagonal set
    # real, and a saved file holds the same bytes as the file of that
    # matrix entered densely.
    w = out.factor
    ww = w @ w.conj().T
    ww.reshape(-1)[::ww.shape[0] + 1].imag = 0.0
    held, dense = tmp_path / "held.json", tmp_path / "dense.json"
    qio.save(str(held), out)
    qio.save(str(dense), DensityMatrix(out.dim_a, out.dim_b, ww))
    np.testing.assert_array_equal(out.mat, ww)
    assert held.read_bytes() == dense.read_bytes()


def test_diagonal_seed_rank_matches_the_schmidt_rank():
    # Exactly diagonal seeds, square and rectangular, with zero and
    # below-cutoff coefficients, take the diagonal; any other seed the SVD.
    coeffs = np.array([0.6, -0.8j, 0.0, 1e-12])
    rng = np.random.default_rng(163)
    for da, db in ((4, 4), (4, 6), (5, 4)):
        amps = np.zeros((da, db), dtype=np.complex128)
        amps[np.arange(4), np.arange(4)] = coeffs / np.linalg.norm(coeffs)
        u = np.linalg.qr(rng.standard_normal((da, da)))[0]
        v = np.linalg.qr(rng.standard_normal((db, db)))[0]
        for seed in (PureState(da, db, amps.reshape(-1)),
                     PureState(da, db, (u @ amps @ v).reshape(-1))):
            r = schmidt_rank(seed.to_registers())
            assert r == 2
            assert _seed_marginal_ranks(seed) == (r, r)
    seed = PureState(4, 4, amps[:4, :4].reshape(-1))
    ident = LocalChannel.identity(4)
    target = seed.to_density()
    assert ProtocolSpec(seed, 1, ident, ident, target, 0.0).seed_size_qubits == 1
    with pytest.raises(InvalidInput, match="does not match"):
        ProtocolSpec(seed, 2, ident, ident, target, 0.0)


def _spectrum_state(rng, da, db, kind):
    """A state on da x db with Schmidt coefficients of the given kind:
    random, rank-deficient (half the terms, at least one, are zero), flat
    (all equal, a degenerate spectrum) or geometric."""
    k = min(da, db)
    if kind == "random":
        s = rng.random(k) + 1e-3
    elif kind == "deficient":
        s = np.zeros(k)
        s[:max(k // 2, 1)] = rng.random(max(k // 2, 1)) + 1e-3
    elif kind == "flat":
        s = np.ones(k)
    else:
        s = 0.5 ** np.arange(k)

    def isometry(d):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        return q[:, :k]

    m = (isometry(da) * s) @ isometry(db).conj().T
    return state_from_matrix(m / np.linalg.norm(m))


@settings(max_examples=200, deadline=None)
@given(da=st.integers(1, 8), db=st.integers(1, 8),
       kind=st.sampled_from(["random", "deficient", "flat", "geometric"]),
       eps=st.sampled_from([0.0, 1e-3, 0.05, 0.5, 1.0, 2.0]),
       seed=st.integers(0, 2**32 - 1))
def test_pure_protocol_equals_the_protocol_of_its_truncated_pair(da, db, kind, eps, seed):
    # The protocol built straight from the truncated Schmidt form is, bit
    # for bit, the one built from the purification that form lays out.
    psi = _spectrum_state(np.random.default_rng(seed), da, db, kind)
    spec = synth_pure_protocol(psi, eps)
    pair = linalg.Purification._of_schmidt(_truncation(psi, eps), da, 1, db, 1)
    ref = protocol_from_purification(pair, psi.to_density(), eps)
    assert np.array_equal(spec.seed.amps, ref.seed.amps)
    assert np.array_equal(spec.alice.kraus, ref.alice.kraus)
    assert np.array_equal(spec.bob.kraus, ref.bob.kraus)
    assert np.array_equal(spec.target.factor, ref.target.factor)
    assert spec.seed_size_qubits == ref.seed_size_qubits
    assert verify_generation(spec).fidelity == verify_generation(ref).fidelity
    assert qio.protocol_to_obj(spec) == qio.protocol_to_obj(ref)


def test_synth_pure_protocol_builds_no_purification(monkeypatch):
    def refuse(self):
        raise AssertionError("a Purification was built")

    monkeypatch.setattr(linalg.Purification, "__post_init__", refuse)
    rng = np.random.default_rng(163)
    for da, db, eps in ((1, 1, 0.0), (2, 2, 0.1), (5, 3, 0.0), (12, 24, 0.05), (4, 4, 1.0)):
        psi = random_pure_state(rng, da, db)
        spec = synth_pure_protocol(psi, eps)
        assert verify_generation(spec).passed
        # The patch is live: the route through a pair would have raised.
        with pytest.raises(AssertionError, match="Purification"):
            linalg.Purification._of_schmidt(_truncation(psi, eps), da, 1, db, 1)


@settings(max_examples=60, deadline=None)
@given(builder=st.sampled_from(["pure", "purification"]), da=st.integers(1, 8),
       db=st.integers(1, 8), r=st.integers(1, 4), eps=st.floats(0.0, 0.2),
       seed=st.integers(0, 2**32 - 1))
def test_built_channels_pass_the_public_check_and_a_file_round_trip(builder, da, db, r,
                                                                      eps, seed):
    # Channels checked on their columns pass the public check on their
    # stacks, and their protocol reads back from a qcorr/1 file to the
    # same file and the same report. A file holds a target densely, so a
    # pure target's fidelity is read off an eigh on the way back, to
    # rounding. A pure target keeps t Schmidt terms, t not a power of two,
    # so each side has padding operators; a planted pair is the
    # purification of a random psd factorization.
    rng = np.random.default_rng(seed)
    if builder == "pure":
        spec = synth_pure_protocol(random_pure_state(rng, da, db), eps)
        t = np.count_nonzero(spec.seed.amps)
        assume(t & (t - 1))
    else:
        spec = protocol_from_purification(synth_from_psd(*random_psd_factorization(rng, da, db, r)))
    for ch in (spec.alice, spec.bob):
        assert LocalChannel(ch.kraus).kraus.tobytes() == ch.kraus.tobytes()
    with tempfile.TemporaryDirectory() as tmp:
        path, again = os.path.join(tmp, "protocol.json"), os.path.join(tmp, "again.json")
        qio.save(path, spec)
        back = qio.load(path)
        qio.save(again, back)
        with open(path, "rb") as f, open(again, "rb") as g:
            assert f.read() == g.read()
    report, back_report = verify_generation(spec), verify_generation(back)
    assert (back_report.passed, back_report.seed_size) == (report.passed, report.seed_size)
    assert back_report.fidelity == pytest.approx(report.fidelity, rel=0, abs=1e-12)
