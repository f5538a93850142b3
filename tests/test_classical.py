"""Tests for psd-rank bounds, the factorization solver, synthesis and
Gram extraction."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcorr.classical import (
    WITNESS_TOL,
    DistMatrix,
    PsdFactorization,
    SolverConfig,
    _descend,
    _grams,
    _jacobian,
    _random_start,
    _trace_form,
    gram_extract,
    nonneg_rank_bounds,
    psd_fit,
    psd_rank_lower_bound,
    psd_rank_search,
    synth_from_psd,
    validate_dist,
)
from qcorr.errors import FactorizationMismatch, InvalidInput, NotNormalized
from qcorr.linalg import ceil_log2, partial_trace, schmidt_rank
from qcorr.rand import random_psd_factorization

UNIFORM = validate_dist([[0.25, 0.25], [0.25, 0.25]])
HALF_I2 = validate_dist([[0.5, 0.0], [0.0, 0.5]])
THIRD_I3 = validate_dist(np.eye(3) / 3)


def diagonal_half_i2_factorization() -> PsdFactorization:
    # C_x = e_x e_x^T, D_y = 1/2 e_y e_y^T.
    cs = tuple(np.diag([1.0 if x == i else 0.0 for i in range(2)]).astype(complex)
               for x in range(2))
    ds = tuple(0.5 * np.diag([1.0 if y == i else 0.0 for i in range(2)]).astype(complex)
               for y in range(2))
    return PsdFactorization(r=2, cs=cs, ds=ds, residual=0.0)


def test_validate_dist_accepts_uniform():
    assert UNIFORM.n == UNIFORM.m == 2
    np.testing.assert_allclose(UNIFORM.p, 0.25)


def test_validate_dist_rejects_negative():
    with pytest.raises(InvalidInput):
        validate_dist([[0.5, -0.1], [0.3, 0.3]])


def test_validate_dist_renormalize():
    d = validate_dist([[0.3, 0.3], [0.3, 0.3]], renormalize=True)
    np.testing.assert_allclose(d.p, 0.25)
    with pytest.raises(NotNormalized):
        validate_dist([[0.3, 0.3], [0.3, 0.3]])


def test_psd_rank_lower_bound_examples():
    product = validate_dist(np.outer([0.3, 0.7], [0.5, 0.5]))
    assert psd_rank_lower_bound(product) == 1
    assert psd_rank_lower_bound(HALF_I2) == 2  # ceil(sqrt(2))
    assert psd_rank_lower_bound(THIRD_I3) == 3  # fidelity bound: 9 / 3
    with pytest.raises(InvalidInput, match="tol"):
        psd_rank_lower_bound(THIRD_I3, float("nan"))


def _noisy(p: np.ndarray, size: float, seed: int) -> DistMatrix:
    """P plus uniform noise in [0, size), renormalized."""
    noise = size * np.random.default_rng(seed).uniform(0.0, 1.0, p.shape)
    return validate_dist(p + noise, renormalize=True)


def test_perturbed_planted_rank2_brackets_at_its_witness_size():
    # Four singular values above tol, five below it: the rank at tol is 4,
    # and a size-2 witness within tol exists, so the bracket is [2, 2].
    planted, _ = random_psd_factorization(np.random.default_rng(3), 9, 9, 2)
    dist = _noisy(planted.p, 1e-9, 0)
    report = psd_rank_search(dist)
    assert (report.lower, report.upper, report.status) == (2, 2, "certified")
    assert report.lower_by == "rank"
    assert report.witness.residual < WITNESS_TOL
    nn = nonneg_rank_bounds(dist)
    assert nn.lower <= nn.upper <= 9


def test_third_i3_with_noise_keeps_fidelity_bound():
    dist = _noisy(THIRD_I3.p, 3e-8, 1)
    report = psd_rank_search(dist)
    assert (report.lower, report.upper, report.status) == (3, 3, "certified")
    assert report.lower_by == "fidelity"
    nn = nonneg_rank_bounds(dist)
    assert (nn.lower, nn.upper, nn.status) == (3, 3, "certified")


def test_mass_below_relative_rank_floor_counts_at_small_tol():
    # sigma_3 = 4e-11 is below the relative rank floor (1e-10 sigma_1), so
    # matrix_rank says 2; at tol 1e-14 the orthogonal third row still forces
    # rank 3, and no size-2 fit comes within tol.
    dist = validate_dist(np.diag([0.5, 0.5 - 4e-11, 4e-11]))
    cfg = SolverConfig(tol=1e-14)
    for report in (psd_rank_search(dist, cfg), nonneg_rank_bounds(dist, cfg)):
        assert (report.lower, report.upper, report.status) == (3, 3, "certified")
        assert report.lower_by == "fidelity"
        assert report.witness.residual < cfg.tol


def test_rank_two_fit_outside_tol_is_not_certified():
    # matrix_rank says 2 (sigma_3 = 1e-11 is below the relative rank floor),
    # and neither bound sees the third row at tol 1e-12; but no size-2 fit
    # comes within tol, so the searches go on to the exact size-3 witness.
    dist = validate_dist(np.diag([0.5, 0.5 - 1e-11, 1e-11]))
    cfg = SolverConfig(tol=1e-12)
    for report in (psd_rank_search(dist, cfg), nonneg_rank_bounds(dist, cfg)):
        assert (report.lower, report.upper, report.status) == (2, 3, "heuristic")
        assert report.witness.residual < cfg.tol


@pytest.mark.parametrize("n, m, seed", [(3, 3, 0), (5, 4, 1), (14, 5, 2), (13, 13, 3)])
def test_psd_rank_lower_bound_symmetries(n, m, seed):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.0, 1.0, (n, m)) * (rng.uniform(0.0, 1.0, (n, m)) >= 0.6)
    raw[np.arange(min(n, m)), np.arange(min(n, m))] += 1.0
    dist = validate_dist(raw, renormalize=True)
    lower = psd_rank_lower_bound(dist)
    for _ in range(3):
        permuted = dist.p[rng.permutation(n)][:, rng.permutation(m)]
        assert psd_rank_lower_bound(validate_dist(permuted)) == lower
        assert psd_rank_lower_bound(validate_dist(permuted.T)) == lower


def _sparse_nonneg(rng, n, m, r):
    # P = W H with about 30% of the entries of W and H zeroed.
    w = rng.uniform(0.0, 1.0, (n, r)) * (rng.uniform(0.0, 1.0, (n, r)) >= 0.3)
    h = rng.uniform(0.0, 1.0, (r, m)) * (rng.uniform(0.0, 1.0, (r, m)) >= 0.3)
    return w @ h


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["psd", "nonneg"]), n=st.integers(1, 14),
       m=st.integers(1, 9), r=st.integers(1, 4), noisy=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_psd_rank_lower_bound_at_most_planted_size(kind, n, m, r, noisy, seed):
    # P' has a size-r factorization; P lies within Frobenius distance
    # 0.9 tol of P' / total, which has the same psd-rank.
    rng = np.random.default_rng(seed)
    if kind == "psd":
        planted = random_psd_factorization(rng, n, m, r)[0].p
    else:
        planted = _sparse_nonneg(rng, n, m, r)
        assume(planted.sum() > 0.0)
        planted = planted / planted.sum()
    # Noise on the zeros of a sparse P', where sqrt moves fastest.
    support = planted == 0.0 if kind == "nonneg" else np.ones((n, m), dtype=bool)
    noise = rng.uniform(0.0, 1.0, (n, m)) * (support & noisy)
    if noise.any():
        noise *= 0.9 * WITNESS_TOL / np.linalg.norm(noise)
    dist = validate_dist(planted + noise, renormalize=True)
    assert psd_rank_lower_bound(dist) <= r
    if kind == "nonneg":
        cfg = SolverConfig(starts=0, max_iters=1)
        assert nonneg_rank_bounds(dist, cfg).lower <= r


def test_jacobian_matches_central_differences():
    rng = np.random.default_rng(53)
    e, f = _random_start(rng, 2, 3, 2)
    je, jf = _jacobian(e, f, _grams(e), _grams(f))

    def trace_form(e, f):
        return _trace_form(_grams(e), _grams(f))

    h = 1e-6
    for side in ("E", "F"):
        for k, a, b in [(0, 0, 0), (1, 1, 1), (0, 1, 0), (1, 0, 1)]:
            # The Jacobian packs the real-coordinate derivative as a complex
            # array: d/d(re) = Re(jac), d/d(im) = Im(jac).
            for step, part in ((h, np.real), (1j * h, np.imag)):
                ana = np.zeros((2, 3))
                if side == "E":
                    bump = np.zeros_like(e)
                    bump[k, a, b] = step
                    num = (trace_form(e + bump, f) - trace_form(e - bump, f)) / (2 * h)
                    ana[k, :] = part(je[k, :, a, b])  # only row k moves with E_k
                else:
                    bump = np.zeros_like(f)
                    bump[k, a, b] = step
                    num = (trace_form(e, f + bump) - trace_form(e, f - bump)) / (2 * h)
                    ana[:, k] = part(jf[:, k, a, b])  # only column k moves with F_k
                np.testing.assert_allclose(num, ana, rtol=1e-6, atol=1e-9)


def test_descent_objective_non_increasing():
    rng = np.random.default_rng(59)
    # I2/2 at r = 2 converges; I3/3 at r = 2 stalls at its floor.
    for P in (np.eye(2) / 2, np.eye(3) / 3):
        n = P.shape[0]
        e0, f0 = _random_start(rng, n, n, 2)
        e, f, history = _descend(P, e0, f0, SolverConfig(max_iters=300))
        assert len(history) > 1
        assert np.all(np.diff(history) <= 0.0)
        diff = _trace_form(_grams(e), _grams(f)) - P
        assert float((diff * diff).sum()) == history[-1]


#: A 4 x 3 distribution on which J J^T + lam I became singular in floating
#: point along a diagonal start, so the solve raised LinAlgError.
SINGULAR_SOLVE = np.array([
    [0.18221535964798136, 0.06808598638220775, 0.23791208179456846],
    [0.06843326807985785, 0.041309010459165296, 0.06983601493241658],
    [0.10275583814303764, 0.0, 0.18177288633010022],
    [0.017615682119370514, 0.004575571398577121, 0.02548830071271718],
])


def test_descend_rejects_singular_solve_and_converges():
    rng = np.random.default_rng(107)
    w = 0.5 * rng.uniform(0.0, 1.0, (4, 2))
    h = 0.5 * rng.uniform(0.0, 1.0, (3, 2))
    e0 = np.stack([np.diag(row) for row in w])
    f0 = np.stack([np.diag(row) for row in h])
    e, f, history = _descend(SINGULAR_SOLVE, e0, f0, SolverConfig())
    assert history[-1] < 1e-28
    assert np.all(np.diff(history) <= 0.0)
    # Real diagonal starts stay real diagonal.
    for fam in (e, f):
        assert not np.any(fam.imag)
        assert not np.any(fam - np.einsum("kii->ki", fam)[:, :, None] * np.eye(2))


def test_psd_fit_uniform_product_rank1():
    fact = psd_fit(UNIFORM, 1)
    assert fact.residual <= 1e-8


def test_psd_fit_half_i2_rank2():
    fact = psd_fit(HALF_I2, 2)
    assert fact.residual <= 1e-8


def test_psd_fit_third_i3_rank2_infeasible():
    fact = psd_fit(THIRD_I3, 2, SolverConfig(starts=64))
    assert fact.residual >= 1e-3


def test_psd_fit_pins_zero_rows_and_columns():
    p = validate_dist([[0.5, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.5]])
    fact = psd_fit(p, 2)
    assert fact.residual <= 1e-8
    # Row 1 and column 1 are zero: their factors start at zero, their
    # Jacobian entries vanish, so every step leaves them at zero.
    assert not fact.cs[1].any()
    assert not fact.ds[1].any()


def test_psd_fit_residual_consistent_with_factors():
    fact = psd_fit(HALF_I2, 2)
    recomputed = float(np.linalg.norm(fact.trace_products() - HALF_I2.p))
    assert abs(recomputed - fact.residual) <= 1e-12


def test_psd_fit_rejects_bad_rank():
    with pytest.raises(InvalidInput):
        psd_fit(UNIFORM, 0)


def test_psd_rank_search_uniform_product():
    report = psd_rank_search(UNIFORM)
    assert (report.lower, report.upper, report.status) == (1, 1, "certified")
    assert ceil_log2(report.upper) == 0


def test_psd_rank_search_half_i2():
    report = psd_rank_search(HALF_I2)
    assert (report.lower, report.upper, report.status) == (2, 2, "certified")
    assert ceil_log2(report.upper) == 1
    assert report.witness is not None and report.witness.residual < 1e-7


def test_psd_rank_search_third_i3():
    report = psd_rank_search(THIRD_I3)
    assert (report.lower, report.upper, report.status) == (3, 3, "certified")
    assert report.lower_by == "fidelity"
    assert ceil_log2(report.upper) == 2


def _uniform_draw(rng, n):
    raw = rng.uniform(0.0, 1.0, size=(n, n))
    return validate_dist(raw / raw.sum())


def _second_uniform_draw(rng, n):
    _uniform_draw(rng, n)
    return _uniform_draw(rng, n)


@pytest.mark.parametrize("make, expected", [
    (lambda: random_psd_factorization(np.random.default_rng(0), 10, 10, 3)[0], 3),
    (lambda: _uniform_draw(np.random.default_rng(0), 6), 3),
    (lambda: _second_uniform_draw(np.random.default_rng(5), 10), 4),
], ids=["planted-10x10-r3", "uniform-6x6", "uniform-10x10"])
def test_psd_rank_search_certifies_larger_inputs(make, expected):
    dist = make()
    report = psd_rank_search(dist)
    assert (report.lower, report.upper, report.status) == (expected, expected, "certified")
    resid = float(np.linalg.norm(report.witness.trace_products() - dist.p))
    assert resid < SolverConfig().tol


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), m=st.integers(1, 5), r=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_psd_rank_search_upper_at_most_planted_size(n, m, r, seed):
    dist, _ = random_psd_factorization(np.random.default_rng(seed), n, m, r)
    assert psd_rank_search(dist).upper <= r


def test_solver_config_rejects_out_of_domain_values():
    for field, value in (("starts", -5), ("max_iters", 0), ("max_iters", -2),
                         ("tol", -1.0), ("tol", 0.0), ("tol", float("nan")),
                         ("tol", float("inf")), ("tol", 0.5), ("tol", 2 * WITNESS_TOL)):
        with pytest.raises(InvalidInput, match=field):
            SolverConfig(**{field: value})
    SolverConfig(starts=0, max_iters=1, tol=1e-12)
    SolverConfig(tol=WITNESS_TOL)


def test_synth_trivial_point_mass():
    dist = DistMatrix(1, 1, np.array([[1.0]]))
    fact = PsdFactorization(r=1, cs=(np.array([[1.0]]),), ds=(np.array([[1.0]]),),
                            residual=0.0)
    state = synth_from_psd(dist, fact)
    assert state.dims == (1, 1, 1, 1, 1, 1)
    np.testing.assert_allclose(state.amps, [1.0], atol=1e-12)


def test_synth_half_i2_diagonal_witness():
    state = synth_from_psd(HALF_I2, diagonal_half_i2_factorization())
    red = partial_trace(state, keep=[0, 3])
    np.testing.assert_allclose(red.mat, np.diag([0.5, 0, 0, 0.5]), atol=1e-10)
    assert schmidt_rank(state) == 2


def test_synth_random_factorizations_reproduce_trace_form():
    rng = np.random.default_rng(61)
    for _ in range(10):
        n, m = rng.integers(1, 5, size=2)
        r = int(rng.integers(1, 4))
        dist, fact = random_psd_factorization(rng, n, m, r)
        state = synth_from_psd(dist, fact)
        red = partial_trace(state, keep=[0, 3])
        diag = np.real(np.diag(red.mat)).reshape(n, m)
        np.testing.assert_allclose(diag, fact.trace_products(), atol=1e-8)
        assert schmidt_rank(state) <= r


def test_synth_rejects_large_residual():
    bad = PsdFactorization(
        r=2,
        cs=tuple(np.eye(2, dtype=complex) for _ in range(2)),
        ds=tuple(np.eye(2, dtype=complex) for _ in range(2)),
        residual=0.5,
    )
    with pytest.raises(FactorizationMismatch):
        synth_from_psd(HALF_I2, bad)


def test_gram_extract_product_state():
    from qcorr.linalg import RegisterState

    amps = np.zeros(4)
    amps[0] = 1.0  # |0>|0>
    fact = gram_extract(RegisterState(amps, (2, 2), ("A", "B")))
    assert fact.r == 1
    np.testing.assert_allclose(fact.cs[0], [[1.0]], atol=1e-10)
    np.testing.assert_allclose(fact.cs[1], [[0.0]], atol=1e-10)
    np.testing.assert_allclose(fact.ds[0], [[1.0]], atol=1e-10)
    np.testing.assert_allclose(fact.ds[1], [[0.0]], atol=1e-10)


def test_gram_extract_round_trip_half_i2():
    state = synth_from_psd(HALF_I2, diagonal_half_i2_factorization())
    fact = gram_extract(state)
    np.testing.assert_allclose(fact.trace_products(), HALF_I2.p, atol=1e-8)


def test_gram_extract_matches_measured_distribution():
    rng = np.random.default_rng(67)
    for _ in range(10):
        dist, fact = random_psd_factorization(rng, 2, 2, 2)
        state = synth_from_psd(dist, fact)
        extracted = gram_extract(state)
        np.testing.assert_allclose(extracted.trace_products(), dist.p, atol=1e-8)
        assert extracted.residual <= 1e-8


def test_gram_extract_rejects_unnormalized():
    from qcorr.linalg import RegisterState

    with pytest.raises(NotNormalized):
        gram_extract(RegisterState(np.ones(4), (2, 2), ("A", "B")))


def test_nonneg_rank_rank1():
    product = validate_dist(np.outer([0.3, 0.7], [0.5, 0.5]))
    report = nonneg_rank_bounds(product)
    assert (report.lower, report.upper, report.status) == (1, 1, "certified")
    assert ceil_log2(report.upper) == 0


def test_nonneg_rank_half_i2():
    report = nonneg_rank_bounds(HALF_I2)
    assert (report.lower, report.upper, report.status) == (2, 2, "certified")
    assert ceil_log2(report.upper) == 1


def test_nonneg_rank_random_rank3():
    rng = np.random.default_rng(71)
    w = rng.uniform(0.1, 1.0, size=(4, 3))
    h = rng.uniform(0.1, 1.0, size=(3, 4))
    p = w @ h
    dist = validate_dist(p / p.sum(), renormalize=True)
    report = nonneg_rank_bounds(dist)
    assert report.lower == 3
    assert 3 <= report.upper <= 4


def test_rank_chain_invariant():
    rng = np.random.default_rng(73)
    cases = [UNIFORM, HALF_I2, THIRD_I3]
    for _ in range(5):
        n, m = rng.integers(2, 5, size=2)
        raw = rng.uniform(0.0, 1.0, size=(n, m))
        cases.append(validate_dist(raw / raw.sum(), renormalize=True))
    # Reduced budget. The two searches share no start: psd fits start from
    # random complex factors, nonnegative fits from random real diagonal
    # ones, and both reach min(n, m) through the exact diagonal start.
    cfg = SolverConfig(starts=6, max_iters=1200)
    for dist in cases:
        lower = psd_rank_lower_bound(dist)
        psd = psd_rank_search(dist, cfg)
        nn = nonneg_rank_bounds(dist, cfg)
        assert lower <= psd.upper <= nn.upper <= min(dist.n, dist.m)
        assert ceil_log2(psd.upper) <= ceil_log2(nn.upper)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), m=st.integers(1, 5), r=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_planted_nonneg_rank_bounds_psd_rank(n, m, r, seed):
    p = _sparse_nonneg(np.random.default_rng(seed), n, m, r)
    assume(p.sum() > 0.0)
    dist = validate_dist(p / p.sum(), renormalize=True)
    nn = nonneg_rank_bounds(dist)
    assert nn.upper <= r
    assert nn.witness.residual < SolverConfig().tol
    for mat in nn.witness.cs + nn.witness.ds:
        assert np.array_equal(mat, np.diag(np.diag(mat)))
    assert psd_rank_search(dist).upper <= nn.upper


def test_psd_fit_without_starts_returns_zero_factors():
    # No inits, no random starts and r < min(n, m): nothing to run.
    fact = psd_fit(THIRD_I3, 2, SolverConfig(starts=0))
    assert not any(mat.any() for mat in fact.cs + fact.ds)
    assert fact.residual == np.linalg.norm(THIRD_I3.p)
    report = psd_rank_search(THIRD_I3, SolverConfig(starts=0))
    assert (report.lower, report.upper, report.status) == (3, 3, "certified")


def test_rank_searches_fall_through_to_min_dim_below_roundoff():
    dist = _uniform_draw(np.random.default_rng(0), 3)
    cfg = SolverConfig(starts=2, tol=1e-300)
    psd = psd_rank_search(dist, cfg)
    nn = nonneg_rank_bounds(dist, cfg)
    assert (psd.lower, psd.upper, psd.status) == (2, 3, "heuristic")
    assert (nn.lower, nn.upper, nn.status) == (3, 3, "certified")
    assert psd.witness.r == nn.witness.r == 3
