"""Tests for pure-state analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr.errors import InvalidInput, NotNormalized
from qcorr.linalg import RegisterState
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
    np.testing.assert_allclose(form.coeffs, [1.0], atol=1e-12)


def test_schmidt_epr():
    form = schmidt_decompose(EPR)
    assert form.rank == 2
    np.testing.assert_allclose(form.coeffs, [0.5, 0.5], atol=1e-12)


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
    np.testing.assert_allclose(form.coeffs, roots, atol=1e-12)
    assert abs(form.coeffs.sum() - 1.0) <= 1e-10


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
        rebuilt = (form.left * np.sqrt(form.coeffs)) @ form.right.T
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
    rng = np.random.default_rng(37)
    for _ in range(30):
        da, db = rng.integers(2, 7, size=2)
        psi = random_pure_state(rng, da, db)
        eps = float(rng.uniform(0.0, 0.6))
        assert srank_eps(psi, eps) == rank_eps(vec_inv(psi), 2 * eps - eps * eps)


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
    for name in ("coeffs", "left", "right"):
        np.testing.assert_array_equal(getattr(form, name), getattr(fresh, name))
        with pytest.raises(ValueError, match="read-only"):
            getattr(form, name)[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        psi.amps[0] = 0.0


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
