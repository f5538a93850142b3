"""Tests for the dense linear-algebra core."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr.classical import PsdFactorization, synth_from_psd
from qcorr.errors import InvalidInput, NotNormalized, NotPsd
from qcorr import linalg
from qcorr.linalg import (
    DensityMatrix,
    Purification,
    RegisterState,
    _contract_cut,
    _grams,
    _nonzero_rows,
    _trace_form,
    ceil_log2,
    comp_aux_dims,
    comp_reduction,
    cut_svd,
    density_from_pure,
    eigh,
    fidelity,
    hermitize,
    matrix_rank,
    partial_trace,
    require_psd,
    schmidt_rank,
    svd,
)
from qcorr.rand import random_density_matrix, random_psd_factorization, random_pure_state
from qcorr.sim import apply_protocol, protocol_from_purification


def test_svd_permutation_matrix():
    res = svd([[0, 1], [1, 0]])
    np.testing.assert_allclose(res.singulars, [1.0, 1.0], atol=1e-12)


def test_svd_diagonal():
    res = svd(np.diag([np.sqrt(0.9), np.sqrt(0.1)]))
    np.testing.assert_allclose(res.singulars, [np.sqrt(0.9), np.sqrt(0.1)], atol=1e-12)


def test_svd_random_reconstruction_and_gram_oracle():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    res = svd(a)
    err = np.linalg.norm(res.reconstruct() - a)
    assert err <= 1e-10 * max(1.0, np.linalg.norm(a))
    # Independent oracle: eigenvalues of a^dag a are the squared singulars.
    gram_eigs = np.sort(np.linalg.eigvalsh(a.conj().T @ a))[::-1]
    np.testing.assert_allclose(res.singulars**2, gram_eigs, atol=1e-10)


def test_svd_properties_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n, m = rng.integers(1, 7, size=2)
        a = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        res = svd(a)
        assert np.all(np.diff(res.singulars) <= 1e-12)
        assert np.all(res.singulars >= 0)
        k = min(n, m)
        np.testing.assert_allclose(
            res.left.conj().T @ res.left, np.eye(k), atol=1e-10
        )
        np.testing.assert_allclose(
            res.right.conj().T @ res.right, np.eye(k), atol=1e-10
        )
        err = np.linalg.norm(res.reconstruct() - a)
        assert err <= 1e-10 * max(1.0, np.linalg.norm(a))


def test_svd_rejects_nonfinite():
    with pytest.raises(InvalidInput):
        svd([[np.nan, 0], [0, 1]])


def test_eigh_pauli_x():
    vals, vecs = eigh([[0, 1], [1, 0]])
    np.testing.assert_allclose(vals, [1.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(
        (vecs * vals) @ vecs.conj().T, [[0, 1], [1, 0]], atol=1e-10
    )


def test_eigh_identity():
    vals, _ = eigh(np.eye(3))
    np.testing.assert_allclose(vals, [1.0, 1.0, 1.0], atol=1e-12)


def test_eigh_random_hermitian_trace_oracle():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (g + g.conj().T) / 2
    vals, vecs = eigh(h)
    assert abs(vals.sum() - np.trace(h).real) <= 1e-10
    np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(4), atol=1e-10)
    np.testing.assert_allclose((vecs * vals) @ vecs.conj().T, h, atol=1e-10)


def test_eigh_rejects_non_hermitian():
    with pytest.raises(InvalidInput):
        eigh([[0, 1], [0, 0]])


def psd_sqrt(h) -> np.ndarray:
    """Oracle: the Hermitian psd square root S with S @ S = h. Eigenvalues
    in [-EIG_CLAMP_TOL, 0) are clamped to zero; a more negative one raises
    NotPsd."""
    vals, vecs = np.linalg.eigh(require_psd(h))
    return hermitize((vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T)


def test_psd_sqrt_diagonal():
    np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]),
                               atol=1e-12)


def test_psd_sqrt_zero():
    np.testing.assert_allclose(psd_sqrt(np.zeros((2, 2))), np.zeros((2, 2)),
                               atol=1e-15)


def test_psd_sqrt_random_square_oracle():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = g.conj().T @ g
    s = psd_sqrt(h)
    np.testing.assert_allclose(s @ s, h, atol=1e-9)
    np.testing.assert_allclose(s, s.conj().T, atol=1e-12)


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NotPsd):
        psd_sqrt(np.diag([1.0, -1.0]))


def _epr_registers():
    amps = np.array([1, 0, 0, 1]) / np.sqrt(2)
    return RegisterState(amps, (2, 2), ("A", "B"))


def test_register_state_holds_a_read_only_copy():
    # Overwriting the source after construction leaves the checked
    # amplitudes, and so the norm, as they were.
    amps = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    state = RegisterState(amps, (2, 2), ("A", "B"))
    amps[:] = np.nan
    assert abs(np.linalg.norm(state.amps) - 1.0) <= 1e-15
    np.testing.assert_array_equal(state.amps, _epr_registers().amps)
    with pytest.raises(ValueError, match="read-only"):
        state.amps[0] = 0.0


def test_partial_trace_epr_is_maximally_mixed():
    red = partial_trace(_epr_registers(), keep=[0])
    np.testing.assert_allclose(red.mat, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_state():
    amps = np.zeros(4)
    amps[1] = 1.0  # |0>|1>
    red = partial_trace(RegisterState(amps, (2, 2), ("A", "B")), keep=[0])
    np.testing.assert_allclose(red.mat, [[1, 0], [0, 0]], atol=1e-12)


def test_partial_trace_schmidt_symmetry():
    rng = np.random.default_rng(13)
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    amps /= np.linalg.norm(amps)
    state = RegisterState(amps, (2, 2), ("A", "B"))
    spec_a = np.linalg.eigvalsh(partial_trace(state, [0]).mat)
    spec_b = np.linalg.eigvalsh(partial_trace(state, [1]).mat)
    np.testing.assert_allclose(spec_a, spec_b, atol=1e-10)


def test_partial_trace_density_input():
    rho = density_from_pure(np.array([1, 0, 0, 1]) / np.sqrt(2), 2, 2)
    red = partial_trace(rho, keep=[1])
    np.testing.assert_allclose(red.mat, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_rejects_ndarray():
    with pytest.raises(InvalidInput):
        partial_trace(np.ones(4) / 2, keep=[0])


@settings(max_examples=40, deadline=None)
@given(da=st.integers(1, 5), db=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_partial_trace_registers_and_density_agree(da, db, seed):
    psi = random_pure_state(np.random.default_rng(seed), da, db)
    for i, split in ((0, (da, 1)), (1, (1, db))):
        from_regs = partial_trace(psi.to_registers(), [i])
        from_rho = partial_trace(psi.to_density(), [i])
        assert (from_regs.dim_a, from_regs.dim_b) == split
        assert (from_rho.dim_a, from_rho.dim_b) == split
        np.testing.assert_allclose(from_regs.mat, from_rho.mat, rtol=0, atol=1e-12)


def test_partial_trace_splits():
    rho = random_density_matrix(np.random.default_rng(23), 2, 3)
    for keep, split in (([0], (2, 1)), ([1], (1, 3)), ([0, 1], (2, 3))):
        red = partial_trace(rho, keep)
        assert (red.dim_a, red.dim_b) == split
    np.testing.assert_array_equal(partial_trace(rho, [0, 1]).mat, rho.mat)
    amps = np.ones(12) / np.sqrt(12)
    interleaved = RegisterState(amps, (2, 3, 2), ("A", "B", "A"))
    red = partial_trace(interleaved, [0, 1, 2])
    assert (red.dim_a, red.dim_b) == (12, 1)


def test_fidelity_self_is_one():
    rng = np.random.default_rng(17)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    mat = g @ g.conj().T
    rho = DensityMatrix(2, 2, mat / np.trace(mat).real)
    assert abs(fidelity(rho, rho) - 1.0) <= 1e-9


def test_fidelity_orthogonal_pure_states():
    zero = density_from_pure([1, 0], 2, 1)
    one = density_from_pure([0, 1], 2, 1)
    assert abs(fidelity(zero, one)) <= 1e-9


def test_fidelity_pure_vs_maximally_mixed():
    zero = density_from_pure([1, 0], 2, 1)
    mixed = DensityMatrix(2, 1, np.eye(2) / 2)
    # Oracle: sqrt(<0| I/2 |0>) = sqrt(0.5).
    assert abs(fidelity(zero, mixed) - np.sqrt(0.5)) <= 1e-9


def test_fidelity_symmetry_and_range():
    rng = np.random.default_rng(19)
    for _ in range(10):
        g1 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        g2 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = DensityMatrix(2, 2, g1 @ g1.conj().T / np.trace(g1 @ g1.conj().T).real)
        sig = DensityMatrix(2, 2, g2 @ g2.conj().T / np.trace(g2 @ g2.conj().T).real)
        f1 = fidelity(rho, sig)
        f2 = fidelity(sig, rho)
        assert abs(f1 - f2) <= 1e-9
        assert -1e-9 <= f1 <= 1 + 1e-9


def _dense_fidelity(rho, sigma) -> float:
    # tr sqrt(sigma^1/2 rho sigma^1/2) with the full square root, which
    # keeps every eigenvalue lam > 0 of sigma.
    root = psd_sqrt(sigma.mat)
    inner = hermitize(root @ rho.mat @ root)
    return float(np.sqrt(np.clip(np.linalg.eigvalsh(inner), 0.0, None)).sum())


def test_fidelity_matches_dense_formula():
    rng = np.random.default_rng(29)
    for rank in (1, 2, 3, 6):
        rho = random_density_matrix(rng, 2, 3)
        sigma = random_density_matrix(rng, 2, 3, rank)
        # Eigenvalues at rounding level (~1e-16) enter the reference through
        # square roots, so the two evaluations may differ by ~1e-8 each.
        assert abs(fidelity(rho, sigma) - _dense_fidelity(rho, sigma)) <= 1e-7


@settings(max_examples=30, deadline=None)
@given(da=st.integers(1, 6), db=st.integers(1, 6), rank=st.integers(1, 36),
       sigma_rank=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_fidelity_exact_for_pure_targets_and_one_sided_for_dense(
    da, db, rank, sigma_rank, seed
):
    rng = np.random.default_rng(seed)
    d = da * db
    psi = random_pure_state(rng, da, db)
    rho = random_density_matrix(rng, da, db, min(rank, d))
    exact = np.sqrt(np.vdot(psi.amps, rho.mat @ psi.amps).real)
    fid = fidelity(rho, psi.to_density())
    assert abs(fid - exact) <= 1e-12
    assert fid <= 1 + 1e-12
    _assert_vector_route(rho, psi.to_density())
    _assert_vector_route(psi.to_density(), rho)
    phi = random_pure_state(rng, da, db).to_density()  # a 1 x 1 product
    _assert_vector_route(phi, psi.to_density())
    # A dense target drops only eigenvalues at rounding level, which can
    # only lower the fidelity, also against a rank-deficient rho: the trace
    # norm of sigma.factor^dag rho.factor takes no square root of an inner
    # eigenvalue that is zero up to rounding.
    sigma = random_density_matrix(rng, da, db, min(sigma_rank, d))
    assert fidelity(rho, sigma) <= _dense_fidelity(rho, sigma) + 1e-12


@settings(max_examples=60, deadline=None)
@given(da=st.integers(1, 6), db=st.integers(1, 6), sigma_rank=st.integers(1, 36),
       seed=st.integers(0, 2**32 - 1))
def test_fidelity_of_a_rank_one_rho_is_the_closed_form(da, db, sigma_rank, seed):
    # rho = w w^dag enters through the public constructor, so both factors
    # are computed; F(rho, sigma) = sqrt(w^dag sigma w) for sigma of any rank.
    rng = np.random.default_rng(seed)
    d = da * db
    w = random_pure_state(rng, da, db).amps
    rho = DensityMatrix(da, db, np.outer(w, w.conj()))
    sigma = random_density_matrix(rng, da, db, min(sigma_rank, d))
    exact = math.sqrt(max(np.vdot(w, sigma.mat @ w).real, 0.0))
    assert abs(fidelity(rho, sigma) - exact) <= 1e-12
    assert abs(fidelity(sigma, rho) - exact) <= 1e-12
    _assert_vector_route(rho, sigma)
    _assert_vector_route(sigma, rho)


def _assert_vector_route(rho, sigma):
    # A row or column sigma.factor^dag rho.factor is read by its 2-norm, its
    # one singular value: the SVD trace norm within 1e-14 relative, and bit
    # for bit on a 1 x 1 product. Two diagonal states take the
    # Bhattacharyya sum instead.
    if rho.form == sigma.form == "diagonal":
        return
    inner = sigma.factor.conj().T @ rho.factor
    assert 1 in inner.shape
    ref = _factor_fidelity(rho, sigma)
    if inner.size == 1:
        assert fidelity(rho, sigma) == ref
    else:
        assert abs(fidelity(rho, sigma) - ref) <= 1e-14 * ref


def _factor_fidelity(rho, sigma) -> float:
    # The general path of ``fidelity``, the trace norm of
    # sigma.factor^dag rho.factor, for pairs the diagonal rule would take.
    return float(np.linalg.svd(sigma.factor.conj().T @ rho.factor, compute_uv=False).sum())


def _diag_state(weights) -> DensityMatrix:
    p = np.asarray(weights, dtype=float)
    return DensityMatrix(p.size, 1, np.diag(p / p.sum()))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_fidelity_of_diagonal_pairs_is_the_bhattacharyya_sum(data, d, seed):
    # Entries may be 0.0, so either state may be rank deficient.
    entry = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    p = data.draw(st.lists(entry, min_size=d, max_size=d).filter(any))
    q = data.draw(st.lists(entry, min_size=d, max_size=d).filter(any))
    rho, sigma = _diag_state(p), _diag_state(q)
    exact = math.fsum(math.sqrt(a * b) for a, b in zip(np.diag(rho.mat).real,
                                                      np.diag(sigma.mat).real))
    assert abs(fidelity(rho, sigma) - exact) <= 1e-15
    assert abs(fidelity(sigma, rho) - exact) <= 1e-15
    # A shared random unitary keeps the fidelity and makes both states
    # dense, so they take the factor path; full-rank pairs agree with it.
    p = data.draw(st.lists(st.floats(0.05, 1.0), min_size=d, max_size=d))
    q = data.draw(st.lists(st.floats(0.05, 1.0), min_size=d, max_size=d))
    rho, sigma = _diag_state(p), _diag_state(q)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    u = np.linalg.qr(g)[0]
    turned = [DensityMatrix(d, 1, hermitize(u @ x.mat @ u.conj().T)) for x in (rho, sigma)]
    assert abs(fidelity(*turned) - fidelity(rho, sigma)) <= 1e-12


def test_fidelity_reads_coherences_of_either_state():
    # <+| I/2 |+> = 1/2, so F = 1/sqrt(2); the diagonals alone would give 1.
    plus = density_from_pure(np.array([1.0, 1.0]) / np.sqrt(2.0), 2, 1)
    mixed = DensityMatrix(2, 1, np.eye(2) / 2)
    assert abs(fidelity(plus, mixed) - np.sqrt(0.5)) <= 1e-12
    assert abs(fidelity(mixed, plus) - np.sqrt(0.5)) <= 1e-12
    # A first row clear of coherences does not make a state diagonal:
    # rho = diag(1/2) + |+><+|/2 on the last two levels has eigenvalues
    # (1/2, 1/2, 0), so against I/3, F = tr sqrt(rho / 3) = sqrt(2/3).
    rho = DensityMatrix(3, 1, np.array([[2, 0, 0], [0, 1, 1], [0, 1, 1]]) / 4)
    third = DensityMatrix(3, 1, np.eye(3) / 3)
    assert abs(fidelity(rho, third) - np.sqrt(2.0 / 3.0)) <= 1e-12
    assert abs(fidelity(third, rho) - np.sqrt(2.0 / 3.0)) <= 1e-12


def test_fidelity_of_diagonal_pairs_has_no_rank_cutoff():
    # A rank-deficient rho against a full-rank sigma whose smallest entry
    # lies below the REL_RANK_TOL cutoff: the factor path drops that
    # entry and reads 0, the diagonal rule keeps it.
    rho = _diag_state([0.0, 1.0])
    sigma = _diag_state([1.0 - 1e-12, 1e-12])
    assert _factor_fidelity(rho, sigma) == 0.0
    assert abs(fidelity(rho, sigma) - 1e-6) <= 1e-15 * 1e-6
    rho = _diag_state([0.0, 0.3, 0.0, 0.7])
    sigma = _diag_state([0.1, 0.2, 0.3, 0.4])
    assert abs(fidelity(rho, sigma) - (math.sqrt(0.06) + math.sqrt(0.28))) <= 1e-15


@pytest.mark.parametrize("n, r", [(6, 3), (10, 4), (12, 4), (16, 4)])
def test_planted_fidelity_matches_the_factor_path(n, r):
    p, fact = random_psd_factorization(np.random.default_rng(11), n, n, r)
    spec = protocol_from_purification(synth_from_psd(p, fact))
    out = apply_protocol(spec)
    for state in (out, spec.target):  # both classical, so the rule applies
        assert not np.any(state.mat - np.diag(np.diag(state.mat)))
    fid = fidelity(out, spec.target)
    assert abs(fid - _factor_fidelity(out, spec.target)) <= 1e-12
    assert abs(fid - 1.0) <= 1e-12


def test_fidelity_dimension_mismatch():
    with pytest.raises(InvalidInput):
        fidelity(DensityMatrix(2, 1, np.eye(2) / 2),
                 DensityMatrix(3, 1, np.eye(3) / 3))


def test_ceil_log2():
    assert [ceil_log2(n) for n in (0, 1, 2, 3, 4, 5, 8, 9)] == [0, 0, 1, 2, 2, 3, 3, 4]


def test_matrix_rank_threshold():
    assert matrix_rank(np.diag([1.0, 1e-16])) == 1
    assert matrix_rank(np.diag([1.0, 1e-5])) == 2


def test_schmidt_rank_epr():
    assert schmidt_rank(_epr_registers()) == 2


def test_cut_svd_matches_dense_svd_on_planted_zeros():
    rng = np.random.default_rng(31)
    for _ in range(10):
        # Cut matrix of a state on registers (A1 | B | A2): rows (a1, a2).
        a1, b, a2 = (int(d) for d in rng.integers(1, 5, size=3))
        mat = rng.standard_normal((a1 * a2, b)) + 1j * rng.standard_normal((a1 * a2, b))
        mat[rng.random(a1 * a2) < 0.4] = 0.0
        mat[:, rng.random(b) < 0.4] = 0.0
        if not mat.any():
            continue
        amps = mat.reshape(a1, a2, b).transpose(0, 2, 1)
        state = RegisterState(amps.reshape(-1), (a1, b, a2), ("A", "B", "A"))
        res = cut_svd(state)
        dense = np.linalg.svd(mat, compute_uv=False)
        k = res.singulars.size
        np.testing.assert_allclose(res.singulars, dense[:k], atol=1e-12)
        np.testing.assert_allclose(dense[k:], 0.0, atol=1e-12)
        np.testing.assert_allclose(res.reconstruct(), mat, atol=1e-12)
        for vecs in (res.left, res.right):
            np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(k), atol=1e-12)
        assert schmidt_rank(state) == matrix_rank(mat)


#: Which rows of one side of ``_contract_cut`` are set exactly to zero.
zero_rows = st.sampled_from(["none", "all", "some"])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), m=st.integers(1, 5), k=st.integers(1, 6),
       zero_a=zero_rows, zero_b=zero_rows, seed=st.integers(0, 2**32 - 1))
def test_contract_cut_matches_the_dense_contraction(n, m, k, zero_a, zero_b, seed):
    rng = np.random.default_rng(seed)

    def side(d, zero):
        g = rng.standard_normal((d * d, k)) + 1j * rng.standard_normal((d * d, k))
        mask = {"none": np.zeros(d * d, bool), "all": np.ones(d * d, bool),
                "some": rng.random(d * d) < 0.5}[zero]
        g[mask] = 0.0
        return g, ~mask

    (ga, on_a), (gb, on_b) = side(n, zero_a), side(m, zero_b)
    out = _contract_cut(ga, gb, n, m)
    ref = np.einsum("xpJ,yqJ->xypq", ga.reshape(n, n, k), gb.reshape(m, m, k))
    np.testing.assert_allclose(out, ref.reshape(n * m, n * m), rtol=0, atol=1e-13)
    support = on_a.reshape(n, 1, n, 1) & on_b.reshape(1, m, 1, m)
    assert np.all(out[~support.reshape(n * m, n * m)] == 0.0)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_block_kernels_match_einsum(r):
    # Random complex stacks, n != m, and Gram inputs with k != r rows, in
    # both memory layouts (comp-major and a transposed aux-major view).
    rng = np.random.default_rng(100 + r)

    def stack(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    n, m, k = 5, 3, r + 2
    for f in (stack(n, k, r), stack(k, n, r).transpose(1, 0, 2)):
        np.testing.assert_allclose(_grams(f), np.einsum("xba,xbc->xac", f.conj(), f),
                                   rtol=0, atol=1e-13)
    c, d = stack(n, r, r), stack(m, r, r)
    np.testing.assert_allclose(_trace_form(c, d), np.einsum("xab,yba->xy", c, d).real,
                               rtol=0, atol=1e-13)


def test_diagonal_reduction_reads_per_index_grams(monkeypatch):
    # A classical reduction needs no Gram half: with _cut_grams refused, a
    # planted square pair, a rectangular pair and the simulator's aux-major
    # dilated pair still give the partial-trace diagonal, held as diagonal.
    def refuse(f):
        raise AssertionError("_cut_grams called on the diagonal route")

    for n, m, r, seed in ((6, 6, 3, 7), (4, 7, 2, 8)):
        p, fact = random_psd_factorization(np.random.default_rng(seed), n, m, r)
        purif = synth_from_psd(p, fact)
        ref = partial_trace(purif.to_state(), keep=[0, 3]).mat.diagonal().real
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_cut_grams", refuse)
            rho, trace = comp_reduction(purif.a, purif.b)
            spec = protocol_from_purification(purif)
            states = (rho, spec.target, apply_protocol(spec))
        assert abs(trace - 1.0) <= 1e-12
        for state in states:
            assert state.form == "diagonal"
            np.testing.assert_allclose(state.born_diagonal, ref, rtol=0, atol=1e-13)
            np.testing.assert_allclose(state.born_diagonal.reshape(n, m), p.p,
                                       rtol=0, atol=1e-13)


def test_cut_svd_zero_state():
    state = RegisterState(np.zeros(6), (2, 3), ("A", "B"))
    assert cut_svd(state).rank == 0
    assert schmidt_rank(state) == 0
    with pytest.raises(InvalidInput):
        Purification.from_state(state)


def test_purification_validates_pair_layout_and_norm():
    a, b = np.full((2, 1, 1), 0.5), np.ones((2, 1, 1))  # |+>|+>
    purif = Purification(a, b)
    assert purif.srank() == 1
    state = purif.to_state()
    assert (state.dims, state.sides) == ((2, 1, 2, 1), ("A", "A", "B", "B"))
    np.testing.assert_allclose(state.amps, np.full(4, 0.5), rtol=0, atol=1e-15)
    for bad_a, bad_b in ((a[:, :, 0], b), (a, np.ones((2, 1, 2))), (a * np.nan, b),
                         (np.zeros((0, 1, 1)), b)):
        with pytest.raises(InvalidInput):
            Purification(bad_a, bad_b)
    for dims_a, dims_b in (((1, 2), None), (None, (2, 2)), ((), None), (None, (2, 1, 3))):
        with pytest.raises(InvalidInput, match="registers"):
            Purification(a, b, dims_a=dims_a, dims_b=dims_b)
    with pytest.raises(NotNormalized):
        Purification(2 * a, b)
    with pytest.raises(NotNormalized):
        Purification(0 * a, b)


def _schmidt_cases():
    # Planted pairs from synth_from_psd (15/16 of the rows zero at (16, 4)),
    # random pairs with zeroed (x, alpha) rows, and a pair of size r = 3
    # whose state has Schmidt rank 2.
    rng = np.random.default_rng(18)
    cases = []
    for n, r in ((3, 2), (6, 3), (16, 4)):
        cases.append(synth_from_psd(*random_psd_factorization(rng, n, n, r)))

    def stack(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for n, ka, m, kb, r in ((4, 3, 5, 2, 3), (3, 5, 2, 4, 4), (2, 2, 3, 1, 5)):
        zero_a, zero_b = rng.random((n, ka)) < 0.5, rng.random((m, kb)) < 0.5
        zero_a[0, 0] = zero_a[-1, -1] = zero_b[-1, -1] = True
        zero_a[0, 1] = zero_b[0, 0] = False
        a, b = stack(n, ka, r), stack(m, kb, r)
        a[zero_a] = 0.0
        b[zero_b] = 0.0
        cases.append((a, b))
    a, b = stack(3, 4, 3), stack(2, 5, 3)
    a[:, :, 2] = a[:, :, 0]  # sum_i a_i (x) b_i = a_0 (x) (b_0 + b_2) + a_1 (x) b_1
    a[1, 2] = b[1, 3] = 0.0
    cases.append((a, b))
    out = []
    for case in cases:
        if not isinstance(case, Purification):
            a, b = case
            scale = np.sqrt(np.linalg.norm(a.reshape(-1, a.shape[2]) @ b.reshape(-1, b.shape[2]).T))
            a, b = a / scale, b / scale
            if not a[-1, -1].any():
                a[-1, -1, 0] = 5e-324  # a subnormal entry keeps its row
            case = Purification(a, b)
        out.append(case)
    return out


def test_schmidt_form_on_the_nonzero_rows():
    for purif in _schmidt_cases():
        r = purif.a.shape[2]
        fa, fb = purif.a.reshape(-1, r), purif.b.reshape(-1, r)
        cut = fa @ fb.T
        res = purif.schmidt
        t = res.singulars.size
        # Zero rows and columns of the cut carry no singular value.
        support = cut[np.ix_(cut.any(axis=1), cut.any(axis=0))]
        dense = np.linalg.svd(support, compute_uv=False)
        assert t == matrix_rank(support)
        np.testing.assert_allclose(res.singulars, dense[:t], rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.reconstruct(), cut, rtol=0, atol=1e-12)
        for vecs in (res.left, res.right):
            np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(t), rtol=0, atol=1e-12)
        zero_a, zero_b = ~fa.any(axis=1), ~fb.any(axis=1)
        assert zero_a.any() and zero_b.any()
        assert np.all(res.left[zero_a] == 0.0) and np.all(res.right[zero_b] == 0.0)
        np.testing.assert_array_equal(_nonzero_rows(fa), np.flatnonzero(~zero_a))
    assert purif.srank() == 2  # the last case, of size 3


def test_planted_targets_and_outputs_stay_diagonal():
    for purif in _schmidt_cases()[:3]:
        spec = protocol_from_purification(purif)
        assert spec.target.form == "diagonal"
        assert apply_protocol(spec).form == "diagonal"


def test_comp_aux_dims():
    state = RegisterState(np.ones(120), (3, 2, 4, 5), ("A", "B", "A", "B"))
    assert comp_aux_dims(state) == (3, 2, 4, 5)
    with pytest.raises(InvalidInput, match="both sides"):
        comp_aux_dims(RegisterState(np.ones(6), (2, 3), ("A", "A")))


def test_density_matrix_validation():
    with pytest.raises(NotPsd):
        DensityMatrix(2, 1, np.diag([1.5, -0.5]))
    # The psd check accepts a least eigenvalue down to -1e-10, in any basis.
    rng = np.random.default_rng(31)
    u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]

    def rotated(low):
        return hermitize((u * [0.6 - low, 0.4, 0.0, low]) @ u.conj().T)

    with pytest.raises(NotPsd, match="-2.000e-10"):
        DensityMatrix(2, 2, rotated(-2e-10))
    assert DensityMatrix(2, 2, rotated(-0.5e-10)).form == "dense"
    # An exactly diagonal input is recorded as diagonal and keeps its matrix.
    mat = np.diag([0.6 + 0.5e-10 + 0.3e-10j, 0.4, 0.0, -0.5e-10])
    rho = DensityMatrix(2, 2, mat)
    assert rho.form == "diagonal"
    np.testing.assert_array_equal(rho.mat, mat)
    np.testing.assert_array_equal(rho.born_diagonal, [0.6 + 0.5e-10, 0.4, 0.0, 0.0])
    with pytest.raises(NotPsd, match=r"C\[1\]"):
        PsdFactorization(r=2, cs=(np.eye(2), np.diag([1.0, -1e-9])),
                         ds=(np.eye(2),), residual=0.0)


def test_density_from_pure_input_contract():
    # density_from_pure skips the psd check, not the input checks.
    psi = np.array([0.6, 0.8j, 0.0, 0.0])
    rho = density_from_pure(psi, 2, 2)
    np.testing.assert_array_equal(rho.mat, np.outer(psi, psi.conj()))
    np.testing.assert_array_equal(rho.factor, psi[:, None])
    with pytest.raises(NotNormalized):
        density_from_pure(1.1 * psi, 2, 2)
    with pytest.raises(InvalidInput, match="non-finite"):
        density_from_pure([np.nan, 1.0, 0.0, 0.0], 2, 2)
    with pytest.raises(InvalidInput, match="length"):
        density_from_pure(psi[:3], 2, 2)


def test_of_factor_checks_the_factor_and_forms_the_matrix_on_first_read():
    w = random_pure_state(np.random.default_rng(37), 2, 3).amps.reshape(6, 1) * [0.6, 0.8]
    rho = DensityMatrix._of_factor(2, 3, w)
    assert rho.form == "factor" and "mat" not in vars(rho)
    assert rho.factor is w
    # W W^dag with its diagonal set exactly real, formed once.
    ww = w @ w.conj().T
    ww.reshape(-1)[::7].imag = 0.0
    np.testing.assert_array_equal(rho.mat, ww)
    assert rho.mat is rho.mat and rho.form == "factor"
    with pytest.raises(NotNormalized, match="trace"):
        DensityMatrix._of_factor(2, 3, 2 * w)
    for bad in (w[:5], w[:, 0], w.reshape(2, 3, 2)):
        with pytest.raises(InvalidInput, match="shape"):
            DensityMatrix._of_factor(2, 3, bad)
    with pytest.raises(InvalidInput, match="non-finite"):
        DensityMatrix._of_factor(2, 3, np.where(np.arange(6)[:, None] == 0, np.nan, w))
    with pytest.raises(InvalidInput, match="dimensions"):
        DensityMatrix._of_factor(0, 3, w)
    with pytest.raises(AttributeError, match="other"):
        rho.other
    # The diagonal builder: psd by form, down to -EIG_CLAMP_TOL per entry.
    p = np.array([0.5, 0.25, 0.25, 0.5e-10, -0.5e-10, 0.0])
    diag = DensityMatrix._of_diagonal(2, 3, p)
    assert diag.form == "diagonal" and "mat" not in vars(diag)
    np.testing.assert_array_equal(diag.born_diagonal, np.clip(p, 0.0, None))
    np.testing.assert_array_equal(diag.mat, np.diag(p).astype(complex))
    with pytest.raises(NotPsd, match="-2.000e-10"):
        DensityMatrix._of_diagonal(2, 3, p + [0, 0, 0, 1.5e-10, -1.5e-10, 0])
    with pytest.raises(NotNormalized, match="trace"):
        DensityMatrix._of_diagonal(2, 3, 2 * p)
    for bad in (p[:5], p.reshape(2, 3), p.reshape(6, 1)):
        with pytest.raises(InvalidInput, match="shape"):
            DensityMatrix._of_diagonal(2, 3, bad)
    with pytest.raises(InvalidInput, match="non-finite"):
        DensityMatrix._of_diagonal(2, 3, np.where(np.arange(6) == 1, np.nan, p))
    with pytest.raises(InvalidInput, match="dimensions"):
        DensityMatrix._of_diagonal(2, 0, p)
