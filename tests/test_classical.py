"""Tests for psd-rank bounds, the factorization solver, synthesis and
Gram extraction."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcorr import classical
from qcorr.classical import (
    CAP_MARGIN,
    LM_LAMBDA0,
    WITNESS_TOL,
    DistMatrix,
    PsdFactorization,
    SolverConfig,
    _best_subset_ratio,
    _descend,
    _fidelity_gram,
    _grams,
    _jacobian,
    _lower_bounds,
    _random_diagonal_start,
    _random_start,
    _subset_ratio_cap,
    _trace_form,
    _witness,
    gram_extract,
    nonneg_rank_bounds,
    psd_fit,
    psd_rank_lower_bound,
    psd_rank_search,
    rank_at_tol,
    synth_from_psd,
    validate_dist,
)
from qcorr.errors import FactorizationMismatch, InvalidInput, NotNormalized
from qcorr.linalg import (
    DensityMatrix,
    Purification,
    RegisterState,
    SvdResult,
    ceil_log2,
    fidelity,
    partial_trace,
    schmidt_rank,
)
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


def _best_subset_ratio_reference(g):
    # The greedy growth written with a chosen mask and the load itself.
    k = g.shape[0]
    seeds = np.arange(k)
    chosen = np.eye(k, dtype=bool)
    load = g.copy()
    totals = np.ones(k)
    best = 1.0
    for size in range(2, k + 1):
        cost = np.where(chosen, np.inf, 2.0 * load + 1.0)
        add = cost.argmin(axis=1)
        totals += cost[seeds, add]
        chosen[seeds, add] = True
        load += g[add]
        best = max(best, size * size / float(totals.min()))
    return best


def _draw_gram(data, k, low=0.0):
    # Symmetric g with unit diagonal; hypothesis's floats bring ties and
    # extreme values (0, 1, subnormals) that the argmin must break alike.
    upper = data.draw(st.lists(st.floats(low, 1.0), min_size=k * (k - 1) // 2,
                               max_size=k * (k - 1) // 2))
    g = np.eye(k)
    g[np.triu_indices(k, 1)] = upper
    return np.maximum(g, g.T)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), k=st.integers(1, 20), k2=st.integers(0, 20))
def test_best_subset_ratio_matches_the_reference_bit_for_bit(data, k, k2):
    # One block, and two blocks grown in one loop: the value of the pair is
    # the larger of the two blocks' values, whatever their sizes (the second
    # may be empty or a single row, and used up long before the first).
    g, g2 = _draw_gram(data, k), _draw_gram(data, k2)
    want = _best_subset_ratio_reference(g)
    assert _best_subset_ratio(g) == want
    assert _best_subset_ratio(g, g2) == max(want, _best_subset_ratio_reference(g2))
    assert _best_subset_ratio(g2, g) == max(want, _best_subset_ratio_reference(g2))
    for small in (np.eye(0), np.eye(1)):
        assert _best_subset_ratio(small, g) == want
        assert _best_subset_ratio(g, small) == want
    assert _best_subset_ratio(np.eye(0), np.eye(0)) == 1.0


@settings(max_examples=200, deadline=None)
@given(data=st.data(), k=st.integers(1, 20), k2=st.integers(0, 20),
       low=st.sampled_from([0.0, 0.5]))
def test_subset_ratio_cap_is_never_below_the_greedy(data, k, k2, low):
    # No subset beats K / (1 + (K - 1) g_min), up to the margin that covers
    # rounding; entries in [0.5, 1] make the cap close to the greedy's value.
    g, g2 = _draw_gram(data, k, low), _draw_gram(data, k2, low)
    for grams in ((g,), (g2,), (g, g2), (g2, g)):
        assert _subset_ratio_cap(*grams) * (1.0 + CAP_MARGIN) >= _best_subset_ratio(*grams)
    assert _subset_ratio_cap(g, g2) == max(_subset_ratio_cap(g), _subset_ratio_cap(g2))
    assert _subset_ratio_cap(np.eye(0), np.eye(1)) == 1.0


def _count_greedy(monkeypatch):
    calls = []
    greedy = classical._best_subset_ratio

    def counting(*grams):
        calls.append(len(grams))
        return greedy(*grams)

    monkeypatch.setattr(classical, "_best_subset_ratio", counting)
    return calls


def test_cap_equal_to_the_bound_still_runs_the_greedy(monkeypatch):
    # Uniform 2x2: one rank, identical rows, so both Grams are all ones and
    # the cap is 2 / (1 + 1) = 1, the Weyl bound. A 3x3 Gram with off-diagonal
    # 0.25 caps at 3 / 1.5 = 2 exactly. The cap only settles a bound it clears
    # by the margin, so both run the greedy and keep the rank bound.
    calls = _count_greedy(monkeypatch)
    assert _lower_bounds(UNIFORM, WITNESS_TOL) == (1, 1, "rank")
    assert len(calls) == 1
    quarter = np.full((3, 3), 0.25)
    np.fill_diagonal(quarter, 1.0)
    assert _subset_ratio_cap(quarter) == 2.0
    monkeypatch.setattr(classical, "_fidelity_gram", lambda P, tol: quarter)
    assert classical._with_fidelity(2, THIRD_I3, WITNESS_TOL) == (2, "rank")
    assert len(calls) == 2


@pytest.mark.parametrize("n, r", [(6, 3), (10, 4), (12, 4), (16, 4)])
def test_cap_settles_planted_witnesses_and_keeps_the_fidelity_bound(monkeypatch, n, r):
    # Planted distributions have near-parallel rows: the cap is near 1, far
    # below the Weyl bound, so the greedy never runs. On I3/3 the orthogonal
    # rows cap near 3 > 2, the greedy runs and the fidelity bound sets 3.
    calls = _count_greedy(monkeypatch)
    for seed in range(3):
        p, _ = random_psd_factorization(np.random.default_rng(seed), n, n, r)
        # Below n, so the fidelity half is reached and settled by the cap.
        assert _lower_bounds(p, WITNESS_TOL)[1:] == (psd_rank_lower_bound(p), "rank")
        assert 1 < psd_rank_lower_bound(p) < n
    assert calls == []
    assert _lower_bounds(THIRD_I3, WITNESS_TOL) == (3, 3, "fidelity")
    assert calls == [2]


def test_lower_bounds_keep_value_and_lower_by(monkeypatch):
    # The psd and the nonnegative lower ends and the names of the bounds
    # that set them, against the rank bounds and the rows and the columns
    # grown one Gram at a time by the reference. The reference computes the
    # fidelity bound even where the rank bound reaches min(n, m), where the
    # code skips it. Below min(n, m) the code settles each side by the
    # closed-form cap or by the greedy; both branches are counted.
    calls = _count_greedy(monkeypatch)
    rng = np.random.default_rng(18)
    seen = set()
    capped = {"psd": 0, "nonneg": 0}
    branches = {"cap": 0, "greedy": 0}
    for i, tol in enumerate((WITNESS_TOL, 1e-12, 1e-3) * 50):
        n, m = (int(d) for d in rng.integers(1, 13, size=2))
        kind = i // 3 % 3
        if kind == 0:  # full rank
            raw = rng.uniform(0.0, 1.0, (n, m))
        elif kind == 1:  # rank deficient
            k = int(rng.integers(1, min(n, m) + 1))
            raw = rng.uniform(0.0, 1.0, (n, k)) @ rng.uniform(0.0, 1.0, (k, m))
        else:  # sparse, with a heavy diagonal
            raw = rng.uniform(0.0, 1.0, (n, m)) * (rng.uniform(0.0, 1.0, (n, m)) >= 0.5)
            raw[np.arange(min(n, m)), np.arange(min(n, m))] += rng.uniform(0.0, 3.0)
        dist = validate_dist(raw, renormalize=True)
        before = len(calls)
        rank, lower, lower_by = _lower_bounds(dist, tol)
        ran = [len(calls) > before]
        assert rank == rank_at_tol(dist, tol)
        assert psd_rank_lower_bound(dist, tol) == lower
        fidelity = int(np.ceil(max(_best_subset_ratio_reference(_fidelity_gram(dist.p, tol)),
                                   _best_subset_ratio_reference(_fidelity_gram(dist.p.T, tol)))))
        weyl = int(np.floor(np.sqrt(rank - 1))) + 1 if rank >= 1 else 1
        sides = [("psd", weyl, (lower, lower_by))]
        if tol <= WITNESS_TOL:
            before = len(calls)
            nn = nonneg_rank_bounds(dist, SolverConfig(starts=0, max_iters=1, tol=tol))
            ran.append(len(calls) > before)
            sides.append(("nonneg", rank, (nn.lower, nn.lower_by)))
        for (side, bound, got), greedy in zip(sides, ran):
            want = (bound, "rank") if bound >= fidelity else (fidelity, "fidelity")
            assert got == want, (side, n, m, tol)
            capped[side] += bound == min(n, m)
            if bound < min(n, m):
                branches["greedy" if greedy else "cap"] += 1
            else:
                assert not greedy
            seen.add(want[1])
    assert seen == {"rank", "fidelity"} and min(capped.values()) >= 10
    assert min(branches.values()) >= 10, branches


def test_dist_matrix_holds_a_read_only_copy():
    # Mutating the source array after construction changes nothing: the
    # held p stays the checked distribution and its witness still fits it.
    src = np.full((2, 2), 0.25)
    dist = DistMatrix(2, 2, src)
    src[0, 0] = -5.0
    np.testing.assert_array_equal(dist.p, np.full((2, 2), 0.25))
    with pytest.raises(ValueError):
        dist.p[0, 0] = -5.0
    report = psd_rank_search(dist)
    assert (report.lower, report.upper, report.status) == (1, 1, "certified")
    assert report.witness.residual < WITNESS_TOL


def test_dense_density_matrix_holds_a_read_only_copy():
    # A dense state passes its psd check; overwriting the source's diagonal
    # with -5/5 afterwards must not reach the state or its fidelity.
    src = np.full((4, 4), 0.1, dtype=complex)
    np.fill_diagonal(src, 0.25)
    rho = DensityMatrix(2, 2, src)
    assert rho.form == "dense"
    src[np.arange(4), np.arange(4)] = [-5.0, 5.0, -5.0, 5.0]
    want = np.full((4, 4), 0.1)
    np.fill_diagonal(want, 0.25)
    np.testing.assert_array_equal(rho.mat, want)
    with pytest.raises(ValueError):
        rho.mat[0, 0] = -5.0
    assert fidelity(rho, DensityMatrix(2, 2, np.eye(4) / 4)) <= 1.0 + 1e-12


def test_purification_holds_read_only_copies():
    a = np.zeros((2, 1, 2), dtype=complex)
    b = np.zeros((2, 1, 2), dtype=complex)
    a[[0, 1], 0, [0, 1]] = b[[0, 1], 0, [0, 1]] = 2 ** -0.25
    purif = Purification(a, b)
    want_a, want_b = a.copy(), b.copy()
    a *= 5.0
    b[0] = 7.0
    np.testing.assert_array_equal(purif.a, want_a)
    np.testing.assert_array_equal(purif.b, want_b)
    assert abs(np.linalg.norm(purif.amps) - 1.0) <= 1e-12
    for held in (purif.a, purif.b):
        with pytest.raises(ValueError):
            held[0, 0, 0] = 5.0


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
    # _jacobian returns K = J / 2; the derivative checked is 2K.
    je, jf = (2.0 * k for k in _jacobian(e, f, _grams(e), _grams(f)))

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
                    ana[:, k] = part(jf[k, :, a, b])  # only column k moves with F_k
                np.testing.assert_allclose(num, ana, rtol=1e-6, atol=1e-9)


def test_descent_objective_non_increasing():
    rng = np.random.default_rng(59)
    # I2/2 at r = 2 converges; I3/3 at r = 2 stalls at its floor.
    for P in (np.eye(2) / 2, np.eye(3) / 3):
        n = P.shape[0]
        e0, f0 = _random_start(rng, n, n, 2)
        ef, grams, history = _descend(P, np.concatenate([e0, f0]),
                                      SolverConfig(max_iters=300))
        assert len(history) > 1
        assert np.all(np.diff(history) <= 0.0)
        # The Grams handed back are those of the final factors.
        np.testing.assert_array_equal(grams, _grams(ef))
        diff = _trace_form(_grams(ef[:n]), _grams(ef[n:])) - P
        assert float((diff * diff).sum()) == history[-1]


def _dense_lm_step(P, ef):
    """The Levenberg-Marquardt step delta = J^T (J J^T + lam I)^-1 res of a
    first trial, with J the true Jacobian assembled from ``_jacobian`` as an
    explicit real (n m) x 2 r^2 (n + m) matrix over the real view of ef, and
    lam = LM_LAMBDA0 times the mean diagonal of J J^T."""
    n, m = P.shape
    block = 2 * ef.shape[1] * ef.shape[2]
    grams = _grams(ef)
    ke, kf = _jacobian(ef[:n], ef[n:], grams[:n], grams[n:])
    jac = np.zeros((n, m, n + m, block))
    for x in range(n):
        for y in range(m):
            jac[x, y, x] = (2.0 * ke[x, y]).view(np.float64).ravel()
            jac[x, y, n + y] = (2.0 * kf[y, x]).view(np.float64).ravel()
    jac = jac.reshape(n * m, -1)
    jjt = jac @ jac.T
    lam = LM_LAMBDA0 * float(np.mean(np.diag(jjt)))
    res = (_trace_form(grams[:n], grams[n:]) - P).ravel()
    delta = jac.T @ np.linalg.solve(jjt + lam * np.eye(n * m), res)
    return delta.view(np.complex128).reshape(ef.shape)


@pytest.mark.parametrize("n, m, start", [
    (2, 3, _random_start), (3, 3, _random_start), (3, 4, _random_diagonal_start),
])
def test_descend_step_matches_the_dense_reference(n, m, start):
    # Folding the Jacobian's factor 2 out of the solve leaves the same step.
    rng = np.random.default_rng(71)
    ef0 = np.concatenate(start(rng, n, m, 2)).astype(complex)
    # A target within 10% of the start's trace products, so that the first
    # trial step is taken.
    grams = _grams(ef0)
    P = _trace_form(grams[:n], grams[n:]) * rng.uniform(0.9, 1.1, (n, m))
    ef, _, history = _descend(P, ef0, SolverConfig(max_iters=1))
    assert len(history) == 2  # the one trial step was accepted
    delta = _dense_lm_step(P, ef0)
    assert np.linalg.norm((ef0 - ef) - delta) <= 1e-12 * np.linalg.norm(delta)


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
    ef, _, history = _descend(SINGULAR_SOLVE, np.concatenate([e0, f0]), SolverConfig())
    assert history[-1] < 1e-28
    assert np.all(np.diff(history) <= 0.0)
    # Real diagonal starts stay real diagonal.
    assert not np.any(ef.imag)
    assert not np.any(ef - np.einsum("kii->ki", ef)[:, :, None] * np.eye(2))


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
    for r in (0, -1, 2.0, True):
        with pytest.raises(InvalidInput, match="size r"):
            psd_fit(UNIFORM, r)
    assert psd_fit(UNIFORM, np.int64(1)).residual < 1e-8


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


@settings(max_examples=60, deadline=None)
@given(a=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
       b=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_product_distributions_settle_at_rank_one_without_starts(a, b):
    # P = P_A (x) P_B is fit at r = 1 by the square roots of its marginals,
    # so no random start is needed on either bracket.
    assume(sum(a) > 0.0 and sum(b) > 0.0)
    dist = validate_dist(np.outer(np.divide(a, sum(a)), np.divide(b, sum(b))),
                         renormalize=True)
    cfg = SolverConfig(starts=0)
    for report in (psd_rank_search(dist, cfg), nonneg_rank_bounds(dist, cfg)):
        assert (report.lower, report.upper, report.status,
                report.lower_by) == (1, 1, "certified", "rank")
        assert report.witness.residual < cfg.tol


def test_exact_starts_run_no_descent(monkeypatch):
    # A closed-form start that is exact gives its witness with no LM step
    # taken, from it or from a later start: no Jacobian is ever formed.
    def refuse(*args):
        raise AssertionError("stepped from an exact start")

    monkeypatch.setattr(classical, "_jacobian", refuse)
    # Rank 3 with orthogonal columns: the fidelity bound of P^T is 3.
    full = np.zeros((5, 3))
    full[np.arange(5), [0, 1, 2, 0, 1]] = np.arange(1.0, 6.0)
    dists = [HALF_I2, THIRD_I3, validate_dist(full / full.sum()),
             validate_dist(np.outer([0.2, 0.3, 0.5], [0.6, 0.4]))]
    tol = SolverConfig().tol
    for dist, rank in zip(dists, (2, 3, 3, 1)):
        for report in (psd_rank_search(dist), nonneg_rank_bounds(dist)):
            assert (report.lower, report.upper, report.status) == (rank, rank, "certified")
            assert report.witness.residual < tol


def test_exact_start_builds_no_solver_state():
    # A full-rank 64 x 64 is fit at r = 64 by the exact diagonal start with
    # no step taken, so no n*m x n*m matrix is built: np.eye(4096) alone
    # would take 134 MB.
    dist = _uniform_draw(np.random.default_rng(20), 64)
    tracemalloc.start()
    try:
        report = nonneg_rank_bounds(dist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.lower, report.upper, report.status) == (64, 64, "certified")
    assert peak < 64 * 2**20


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
                         ("tol", float("inf")), ("tol", 0.5), ("tol", 2 * WITNESS_TOL),
                         ("seed", -1), ("starts", 2.5), ("max_iters", 10.5),
                         ("seed", 1.5), ("starts", True), ("max_iters", True),
                         ("seed", False), ("starts", np.float64(2.0)),
                         ("tol", "1e-8"), ("tol", None), ("tol", [1e-8])):
        with pytest.raises(InvalidInput, match=f"SolverConfig.{field}"):
            SolverConfig(**{field: value})
    SolverConfig(starts=0, max_iters=1, tol=1e-12)
    SolverConfig(tol=WITNESS_TOL)
    SolverConfig(starts=np.int64(2), max_iters=np.int32(10), seed=np.uint8(3))


def test_synth_trivial_point_mass():
    dist = DistMatrix(1, 1, np.array([[1.0]]))
    fact = PsdFactorization(r=1, cs=(np.array([[1.0]]),), ds=(np.array([[1.0]]),),
                            residual=0.0)
    state = synth_from_psd(dist, fact).to_state()
    assert state.dims == (1, 1, 1, 1, 1, 1)
    np.testing.assert_allclose(state.amps, [1.0], atol=1e-12)


def test_synth_half_i2_diagonal_witness():
    state = synth_from_psd(HALF_I2, diagonal_half_i2_factorization())
    red = partial_trace(state.to_state(), keep=[0, 3])
    np.testing.assert_allclose(red.mat, np.diag([0.5, 0, 0, 0.5]), atol=1e-10)
    assert schmidt_rank(state.to_state()) == 2


def test_synth_random_factorizations_reproduce_trace_form():
    rng = np.random.default_rng(61)
    for _ in range(10):
        n, m = rng.integers(1, 5, size=2)
        r = int(rng.integers(1, 4))
        dist, fact = random_psd_factorization(rng, n, m, r)
        state = synth_from_psd(dist, fact)
        red = partial_trace(state.to_state(), keep=[0, 3])
        diag = np.real(np.diag(red.mat)).reshape(n, m)
        np.testing.assert_allclose(diag, fact.trace_products(), atol=1e-8)
        assert schmidt_rank(state.to_state()) <= r


def psd_sqrt(h) -> np.ndarray:
    """Oracle: the Hermitian psd square root of a psd matrix."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def test_synth_pair_lays_out_the_dense_witness_state():
    # Reference layout: amps[x, x, :, y, y, :] = sum_i v_x[:, i] (x) w_y[:, i]
    # with v_x = sqrt(C_x^T) and w_y = sqrt(D_y), normalized.
    n, m, r = 4, 3, 2
    dist, fact = random_psd_factorization(np.random.default_rng(5), n, m, r)
    v = np.stack([psd_sqrt(c.T) for c in fact.cs])
    w = np.stack([psd_sqrt(d) for d in fact.ds])
    block = np.einsum("xai,ybi->xayb", v, w)
    amps = np.zeros((n, n, r, m, m, r), dtype=complex)
    for x in range(n):
        for y in range(m):
            amps[x, x, :, y, y, :] = block[x, :, y, :]
    state = synth_from_psd(dist, fact).to_state()
    assert state.dims == (n, n, r, m, m, r)
    assert state.sides == ("A", "A", "A", "B", "B", "B")
    assert state.names == ("A", "A'", "A1", "B", "B'", "B1")
    np.testing.assert_allclose(state.amps, amps.reshape(-1) / np.linalg.norm(amps),
                               rtol=0, atol=1e-15)


def test_synth_rejects_zero_vector():
    # The residual field is the caller's claim; zero factors give no state.
    zero = tuple(np.zeros((2, 2), dtype=complex) for _ in range(2))
    with pytest.raises(FactorizationMismatch, match="zero vector"):
        synth_from_psd(HALF_I2, PsdFactorization(r=2, cs=zero, ds=zero, residual=0.0))


def test_synth_rejects_large_residual():
    bad = PsdFactorization(
        r=2,
        cs=tuple(np.eye(2, dtype=complex) for _ in range(2)),
        ds=tuple(np.eye(2, dtype=complex) for _ in range(2)),
        residual=0.5,
    )
    with pytest.raises(FactorizationMismatch):
        synth_from_psd(HALF_I2, bad)


def test_witness_matches_the_checked_constructor():
    # _witness skips the psd check on Grams E^dag E, and only that: the same
    # matrices pass the public constructor, and _built keeps its other checks.
    rng = np.random.default_rng(67)
    e = rng.standard_normal((3, 5, 2)) + 1j * rng.standard_normal((3, 5, 2))
    f = rng.standard_normal((4, 7, 2)) + 1j * rng.standard_normal((4, 7, 2))
    p = rng.uniform(size=(3, 4))
    wit = _witness(e, f, p)
    checked = PsdFactorization(r=wit.r, cs=wit.cs, ds=wit.ds, residual=wit.residual)
    assert (wit.r, wit.n, wit.m) == (2, 3, 4)
    for got, want in zip(np.concatenate([wit.cs, wit.ds]),
                         np.concatenate([checked.cs, checked.ds])):
        np.testing.assert_array_equal(got, want)
    for x, ex in enumerate(e):
        np.testing.assert_allclose(wit.cs[x], ex.conj().T @ ex, rtol=0, atol=1e-12)
    np.testing.assert_allclose(wit.trace_products(),
                               np.einsum("xab,yba->xy", wit.cs, wit.ds).real, atol=1e-12)
    assert wit.residual == float(np.linalg.norm(wit.trace_products() - p))
    with pytest.raises(InvalidInput, match="positive"):
        PsdFactorization._built(0, wit.cs, wit.ds, 0.0)
    with pytest.raises(InvalidInput, match=r"C\[0\] has shape"):
        PsdFactorization._built(3, wit.cs, wit.ds, 0.0)
    with pytest.raises(InvalidInput, match="residual"):
        PsdFactorization._built(2, wit.cs, wit.ds, float("nan"))


def test_gram_extract_product_state():
    amps = np.zeros(4)
    amps[0] = 1.0  # |0>|0>
    fact = gram_extract(Purification.from_state(RegisterState(amps, (2, 2), ("A", "B"))))
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
    # A dense state reaches gram_extract through Purification.from_state,
    # which refuses it.
    with pytest.raises(NotNormalized):
        gram_extract(Purification.from_state(RegisterState(np.ones(4), (2, 2), ("A", "B"))))


def _gram_extract_via_schmidt_pair(purif):
    # The extraction as a second Purification held as the Schmidt pair.
    P = _trace_form(_grams(purif.a), _grams(purif.b).swapaxes(1, 2))
    vw = purif.schmidt_pair()
    return _witness(vw.a, vw.b.conj(), P)


def test_gram_extract_matches_the_schmidt_pair_path():
    rng = np.random.default_rng(18)
    pairs = []
    for n, m, r in ((3, 3, 2), (6, 6, 3), (5, 4, 2), (16, 16, 4)):
        dist, fact = random_psd_factorization(rng, n, m, r)
        purif = synth_from_psd(dist, fact)
        pairs += [purif, Purification.from_state(purif.to_state())]
    for purif in pairs:
        got, want = gram_extract(purif), _gram_extract_via_schmidt_pair(purif)
        assert (got.r, got.n, got.m) == (want.r, want.n, want.m)
        for c, d in zip(np.concatenate([got.cs, got.ds]), np.concatenate([want.cs, want.ds])):
            np.testing.assert_allclose(c, d, rtol=0, atol=1e-14)
        assert abs(got.residual - want.residual) <= 1e-14


def test_gram_extract_checks_the_schmidt_vectors(monkeypatch):
    # The Schmidt vectors are checked as the Schmidt pair's constructor
    # would check them: unit norm within 1e-10, and finite.
    dist, fact = random_psd_factorization(np.random.default_rng(5), 4, 4, 2)
    held = synth_from_psd(dist, fact).schmidt
    for scale, error in ((1.0 + 1e-8, NotNormalized), (np.nan, InvalidInput)):
        with monkeypatch.context() as patch:
            patch.setattr(Purification, "schmidt", property(
                lambda self, s=scale: SvdResult(held.left, held.singulars * s, held.right)))
            with pytest.raises(error):
                gram_extract(synth_from_psd(dist, fact))
    assert gram_extract(synth_from_psd(dist, fact)).residual <= 1e-12


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
    for mat in np.concatenate([nn.witness.cs, nn.witness.ds]):
        assert np.array_equal(mat, np.diag(np.diag(mat)))
    assert psd_rank_search(dist).upper <= nn.upper


def test_psd_fit_without_starts_returns_zero_factors():
    # No random starts and r < min(n, m): nothing to run.
    fact = psd_fit(THIRD_I3, 2, SolverConfig(starts=0))
    assert not np.concatenate([fact.cs, fact.ds]).any()
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
