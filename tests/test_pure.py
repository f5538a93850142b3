"""Tests for pure-state analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr.errors import InvalidInput, NotNormalized
from qcorr.linalg import RegisterState, rank_from_singulars
from qcorr.pure import (
    PureState,
    build_approximant,
    q_eps,
    rank_eps,
    schmidt_decompose,
    srank_eps,
    state_from_matrix,
    tensor_product,
    vec_inv,
)
from qcorr.rand import random_pure_state
from qcorr.sim import synth_pure_protocol

EPR = PureState(2, 2, np.array([1, 0, 0, 1]) / np.sqrt(2))
SKEWED = PureState(2, 2, np.array([np.sqrt(0.9), 0, 0, np.sqrt(0.1)]))
UNIFORM4 = PureState(4, 4, np.eye(4).reshape(-1) / 2)  # coeffs (1/4, 1/4, 1/4, 1/4)


def test_vec_inv_basis_state():
    psi = PureState(2, 2, [1, 0, 0, 0])
    np.testing.assert_allclose(vec_inv(psi), [[1, 0], [0, 0]], atol=1e-15)


def test_vec_inv_epr():
    np.testing.assert_allclose(vec_inv(EPR), np.eye(2) / np.sqrt(2), atol=1e-15)


def test_vec_inv_singlet():
    singlet = PureState(2, 2, np.array([0, 1, -1, 0]) / np.sqrt(2))
    np.testing.assert_allclose(
        vec_inv(singlet), np.array([[0, 1], [-1, 0]]) / np.sqrt(2), atol=1e-15
    )


def test_schmidt_product_state():
    form = schmidt_decompose(PureState(2, 2, [1, 0, 0, 0]))
    assert form.rank == 1
    np.testing.assert_allclose(form.singulars ** 2, [1.0], atol=1e-12)


def test_schmidt_epr():
    form = schmidt_decompose(EPR)
    assert form.rank == 2
    np.testing.assert_allclose(form.singulars ** 2, [0.5, 0.5], atol=1e-12)


def test_schmidt_coeffs_match_characteristic_polynomial():
    # State with amplitude matrix [[sqrt(.5), 0], [sqrt(.3), sqrt(.2)]].
    mat = np.array([[np.sqrt(0.5), 0.0], [np.sqrt(0.3), np.sqrt(0.2)]])
    psi = state_from_matrix(mat)
    form = schmidt_decompose(psi)
    # Oracle: roots of the characteristic polynomial of A^dag A,
    # lambda^2 - tr lambda + det = 0.
    gram = mat.T @ mat
    tr, det = np.trace(gram), np.linalg.det(gram)
    disc = np.sqrt(tr * tr - 4 * det)
    roots = sorted([(tr + disc) / 2, (tr - disc) / 2], reverse=True)
    np.testing.assert_allclose(form.singulars ** 2, roots, atol=1e-12)
    assert abs((form.singulars ** 2).sum() - 1.0) <= 1e-10


def test_schmidt_reassembly_and_orthonormality():
    rng = np.random.default_rng(23)
    for _ in range(10):
        da, db = rng.integers(2, 6, size=2)
        psi = random_pure_state(rng, da, db)
        form = schmidt_decompose(psi)
        r = form.rank
        np.testing.assert_allclose(
            form.left.conj().T @ form.left, np.eye(r), atol=1e-10
        )
        np.testing.assert_allclose(
            form.right.conj().T @ form.right, np.eye(r), atol=1e-10
        )
        rebuilt = (form.left * form.singulars) @ form.right.conj().T
        np.testing.assert_allclose(rebuilt.reshape(-1), psi.amps, atol=1e-9)


def test_schmidt_canonical_phase():
    rng = np.random.default_rng(29)
    psi = random_pure_state(rng, 3, 3)
    form = schmidt_decompose(psi)
    again = schmidt_decompose(psi)
    np.testing.assert_array_equal(form.left, again.left)
    for i in range(form.rank):
        pivot = form.left[np.argmax(np.abs(form.left[:, i])), i]
        assert abs(pivot.imag) <= 1e-12
        assert pivot.real > 0


def test_rank_eps_examples():
    a = np.diag([np.sqrt(0.9), np.sqrt(0.1)])
    assert rank_eps(a, 0.05) == 2  # 0.9 < 0.95
    assert rank_eps(a, 0.10) == 1  # 0.9 >= 0.9
    assert rank_eps(a, 1.0) == 0


def test_rank_eps_brute_force_oracle():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n, m = rng.integers(1, 6, size=2)
        a = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        a /= np.linalg.norm(a)
        eps = float(rng.uniform(0.0, 1.0))
        s2 = np.linalg.svd(a, compute_uv=False) ** 2
        expected = 0
        acc = 0.0
        for k in range(s2.size):
            if acc >= (1 - eps) - 1e-12:
                break
            acc += s2[k]
            expected = k + 1
        if acc < (1 - eps) - 1e-12:
            expected = s2.size
        assert rank_eps(a, eps) == expected


def test_rank_eps_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        rank_eps(np.eye(2), 0.1)


def test_srank_eps_examples():
    assert srank_eps(UNIFORM4, 0.14) == 3  # 0.75 >= (0.86)^2 = 0.7396
    assert srank_eps(SKEWED, 0.06) == 1  # 0.9 >= (0.94)^2 = 0.8836
    assert srank_eps(EPR, 0.0) == 2


def test_srank_matches_rank_of_amplitude_matrix():
    # The identity holds on 0 <= eps <= 1, endpoints included.
    rng = np.random.default_rng(37)
    for i in range(30):
        da, db = rng.integers(2, 7, size=2)
        psi = random_pure_state(rng, da, db)
        eps = (0.0, 1.0)[i] if i < 2 else float(rng.uniform(0.0, 1.0))
        assert srank_eps(psi, eps) == rank_eps(vec_inv(psi), 2 * eps - eps * eps)


def test_srank_is_zero_beyond_eps_one_where_the_matrix_rank_is_not():
    # Past eps = 1 the distance 2 eps - eps^2 falls again, so rank_eps
    # grows back while the empty protocol still suffices.
    psi = random_pure_state(np.random.default_rng(0), 3, 3)
    for eps, matrix_rank in ((1.5, 1), (2.0, 3)):
        assert srank_eps(psi, eps) == 0
        assert rank_eps(vec_inv(psi), 2 * eps - eps * eps) == matrix_rank


def test_srank_non_increasing_in_eps():
    rng = np.random.default_rng(41)
    grid = np.append([0.0, 0.01], np.linspace(0.05, 3.0, 60))
    for psi in (random_pure_state(rng, 5, 5), EPR, UNIFORM4, SKEWED):
        values = [srank_eps(psi, e) for e in grid]
        assert values == sorted(values, reverse=True)
        # The empty protocol meets every fidelity target 1 - eps <= 0.
        assert all(v == 0 for v, e in zip(values, grid) if e >= 1.0)
    assert srank_eps(EPR, 1.5) == srank_eps(EPR, 2.0) == 0


dims = st.integers(1, 5)
eps_values = st.floats(0.0, 1.5)
seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(da=dims, db=dims, eps=eps_values, other=eps_values, seed=seeds)
def test_srank_eps_property_non_increasing_in_eps(da, db, eps, other, seed):
    psi = random_pure_state(np.random.default_rng(seed), da, db)
    low, high = sorted((eps, other))
    assert srank_eps(psi, high) <= srank_eps(psi, low)


@settings(max_examples=60, deadline=None)
@given(da=dims, db=dims, d1=dims, d2=dims, eps=eps_values, seed=seeds)
def test_srank_eps_property_monotone_under_tensoring(da, db, d1, d2, eps, seed):
    rng = np.random.default_rng(seed)
    psi, theta = random_pure_state(rng, da, db), random_pure_state(rng, d1, d2)
    assert srank_eps(tensor_product(psi, theta), eps) >= srank_eps(psi, eps)


def test_eps_domain_rejects_nan_and_negative():
    for eps in (-1.0, -1e-12, float("nan")):
        with pytest.raises(InvalidInput):
            srank_eps(EPR, eps)
        with pytest.raises(InvalidInput):
            build_approximant(EPR, eps)
        with pytest.raises(InvalidInput):
            rank_eps(np.eye(2) / np.sqrt(2), eps)


def test_approximant_keeps_leading_term_for_eps_at_least_one():
    for eps in (1.0, 1.5, 2.0):
        phi, fid = build_approximant(SKEWED, eps)
        assert np.linalg.matrix_rank(vec_inv(phi)) == 1
        assert abs(fid - np.sqrt(0.9)) <= 1e-12


def test_q_eps_examples():
    assert q_eps(EPR, 0.0) == 1
    assert q_eps(SKEWED, 0.06) == 0
    product = PureState(2, 2, [0, 0, 1, 0])
    assert q_eps(product, 0.0) == 0
    assert q_eps(product, 0.3) == 0


def test_build_approximant_exact():
    rng = np.random.default_rng(43)
    psi = random_pure_state(rng, 3, 4)
    phi, fid = build_approximant(psi, 0.0)
    assert abs(fid - 1.0) <= 1e-9
    overlap = np.vdot(psi.amps, phi.amps)
    np.testing.assert_allclose(phi.amps * np.exp(-1j * np.angle(overlap)),
                               psi.amps, atol=1e-8)


def test_build_approximant_skewed():
    phi, fid = build_approximant(SKEWED, 0.06)
    assert abs(fid - np.sqrt(0.9)) <= 1e-9
    assert schmidt_decompose(phi).rank == 1


def test_build_approximant_uniform4():
    phi, fid = build_approximant(UNIFORM4, 0.14)
    assert abs(fid - np.sqrt(0.75)) <= 1e-9
    assert schmidt_decompose(phi).rank == 3


def test_tensor_product_layout():
    rng = np.random.default_rng(47)
    psi = random_pure_state(rng, 2, 3)
    theta = random_pure_state(rng, 2, 2)
    joint = tensor_product(psi, theta)
    assert (joint.dim_a, joint.dim_b) == (4, 6)
    np.testing.assert_allclose(
        vec_inv(joint), np.kron(vec_inv(psi), vec_inv(theta)), atol=1e-12
    )
    assert abs(np.linalg.norm(joint.amps) - 1.0) <= 1e-10


def test_schmidt_form_is_cached_and_read_only():
    psi = random_pure_state(np.random.default_rng(167), 3, 5)
    form = schmidt_decompose(psi)
    assert schmidt_decompose(psi) is form
    fresh = schmidt_decompose(PureState(psi.dim_a, psi.dim_b, np.array(psi.amps)))
    assert fresh is not form
    for name in ("singulars", "left", "right"):
        np.testing.assert_array_equal(getattr(form, name), getattr(fresh, name))
        with pytest.raises(ValueError, match="read-only"):
            getattr(form, name)[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        psi.amps[0] = 0.0


def _reference_schmidt(psi):
    """Reference Schmidt form: an SVD of the whole amplitude matrix and the
    pivot-phase loop, with right the vectors of psi = sum_i s_i left_i (x)
    right_i."""
    u, s, vh = np.linalg.svd(vec_inv(psi), full_matrices=False)
    r = rank_from_singulars(s)
    left, right = u[:, :r].copy(), vh[:r].T.copy()
    for i in range(r):
        pivot = left[np.argmax(np.abs(left[:, i])), i]
        phase = pivot / abs(pivot)
        left[:, i] *= phase.conjugate()
        right[:, i] *= phase
    return s[:r], left, right


@settings(max_examples=80, deadline=None)
@given(da=dims, db=dims, k=st.integers(1, 5), zero=st.booleans(), seed=seeds)
def test_schmidt_decompose_matches_the_whole_matrix_svd(da, db, k, zero, seed):
    # Rank k (capped by the dims) with full support; with ``zero``, row 0
    # and the last column are set to exactly zero, each where it is not the
    # only one.
    rng = np.random.default_rng(seed)
    g = lambda a, b: rng.standard_normal((a, b)) + 1j * rng.standard_normal((a, b))
    mat = g(da, k) @ g(k, db)
    zero_row, zero_col = zero and da > 1, zero and db > 1
    if zero_row:
        mat[0] = 0.0
    if zero_col:
        mat[:, -1] = 0.0
    psi = state_from_matrix(mat / np.linalg.norm(mat))
    form = schmidt_decompose(psi)
    s, left, right = _reference_schmidt(psi)
    if not (zero_row or zero_col):
        np.testing.assert_array_equal(form.singulars, s)
        np.testing.assert_array_equal(form.left, left)
        np.testing.assert_array_equal(form.right.conj(), right)
        return
    assert form.rank == s.size
    np.testing.assert_allclose(form.singulars, s, rtol=0, atol=1e-14)
    if zero_row:
        assert not form.left[0].any()
    if zero_col:
        assert not form.right[-1].any()
    np.testing.assert_allclose(form.reconstruct().reshape(-1), psi.amps, rtol=0, atol=1e-12)


@pytest.mark.parametrize("call", [
    schmidt_decompose,
    lambda x: srank_eps(x, 0.1),
    lambda x: q_eps(x, 0.1),
    lambda x: build_approximant(x, 0.1),
    lambda x: synth_pure_protocol(x, 0.1),
], ids=["schmidt_decompose", "srank_eps", "q_eps", "build_approximant", "synth_pure_protocol"])
@pytest.mark.parametrize("wrong", [
    np.eye(2) / np.sqrt(2),
    RegisterState(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2), ("A", "B")),
    EPR.to_density(),
], ids=["ndarray", "RegisterState", "DensityMatrix"])
def test_pure_functions_reject_anything_but_a_pure_state(call, wrong):
    with pytest.raises(InvalidInput, match="expected a PureState"):
        call(wrong)


def test_to_density_holds_the_amplitudes_as_a_read_only_factor():
    psi = random_pure_state(np.random.default_rng(5), 3, 4)
    for rho in (psi.to_density(), synth_pure_protocol(psi, 0.1).target):
        assert rho.form == "factor"
        w = rho.factor
        assert w.shape == (12, 1)
        assert np.array_equal(w[:, 0], psi.amps)
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0, 0] = 0.0
    assert abs(float(np.trace(psi.to_density().mat).real) - 1.0) <= 1e-12
