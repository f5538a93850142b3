"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run pytest with -s to see them
on success) and enforces the stated tolerance and runtime budget.
"""

import time

import numpy as np

from qcorr.classical import (
    PsdFactorization,
    SolverConfig,
    gram_extract,
    psd_fit,
    psd_rank_search,
    rank_at_tol,
    synth_from_psd,
    validate_dist,
)
from qcorr.linalg import ceil_log2, partial_trace, schmidt_rank
from qcorr.pure import (
    build_approximant,
    q_eps,
    rank_eps,
    schmidt_decompose,
    srank_eps,
    tensor_product,
    vec_inv,
)
from qcorr.rand import (
    random_general_factorization,
    random_psd_factorization,
    random_pure_state,
    random_register_state,
)
from qcorr.sim import (
    apply_protocol,
    protocol_from_purification,
    synth_pure_protocol,
    transfer_qubit,
    verify_generation,
)

EPS_GRID = (0.0, 0.01, 0.05, 0.1, 0.2, 0.5)

_corpus_cache = {}


def pure_corpus():
    """200 random pure states with dims in {2..8}, shared by criteria 1-2."""
    if "states" not in _corpus_cache:
        rng = np.random.default_rng(20240801)
        states = []
        for _ in range(200):
            da, db = (int(v) for v in rng.integers(2, 9, size=2))
            states.append(random_pure_state(rng, da, db))
        _corpus_cache["states"] = states
    return _corpus_cache["states"]


def _report(num, name, ok, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num}] {status} {name} ({elapsed:.1f}s, limit {limit:.0f}s)")
    assert ok, f"criterion {num} ({name}) failed"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s: {elapsed:.1f}s"


def test_criterion_1_rank_route_consistency():
    t0 = time.time()
    ok = True
    for psi in pure_corpus():
        mat = vec_inv(psi)
        for eps in EPS_GRID:
            via_schmidt = srank_eps(psi, eps)
            via_matrix = rank_eps(mat, 2 * eps - eps * eps)
            if via_schmidt != via_matrix:
                ok = False
            if ceil_log2(via_schmidt) != ceil_log2(via_matrix):
                ok = False
    _report(1, "approximate-rank routes agree", ok, time.time() - t0, 10)


def test_criterion_2_constructive_upper_bound():
    t0 = time.time()
    ok = True
    for psi in pure_corpus():
        cum = np.cumsum(schmidt_decompose(psi).singulars ** 2)
        for eps in EPS_GRID:
            r = srank_eps(psi, eps)
            phi, fid = build_approximant(psi, eps)
            expected = float(np.sqrt(cum[r - 1]))
            if abs(fid - expected) > 1e-9 or fid < 1 - eps - 1e-9:
                ok = False
            dropped = float(np.sqrt(cum[r - 2])) if r >= 2 else 0.0
            if not dropped < 1 - eps + 1e-9:
                ok = False
    _report(2, "truncated approximant is tight", ok, time.time() - t0, 10)


def test_criterion_3_classical_synthesis_round_trip():
    t0 = time.time()
    rng = np.random.default_rng(20240803)
    ok = True
    for _ in range(100):
        n, m = (int(v) for v in rng.integers(2, 7, size=2))
        r = int(rng.integers(1, 5))
        dist, fact = random_psd_factorization(rng, n, m, r)
        state = synth_from_psd(dist, fact)
        red = partial_trace(state.to_state(), keep=[0, 3])
        off = red.mat - np.diag(np.diag(red.mat))
        if np.linalg.norm(off) > 1e-8:
            ok = False
        diag = np.real(np.diag(red.mat)).reshape(n, m)
        if np.abs(diag - dist.p).max() > 1e-8:
            ok = False
        extracted = gram_extract(state)
        if np.abs(extracted.trace_products() - dist.p).max() > 1e-8:
            ok = False
        if schmidt_rank(state.to_state()) > r:
            ok = False
    _report(3, "psd synthesis and Gram extraction round trip", ok,
            time.time() - t0, 30)


def test_criterion_4_psd_rank_landmarks():
    t0 = time.time()
    ok = True

    uniform = validate_dist([[0.25, 0.25], [0.25, 0.25]])
    rep = psd_rank_search(uniform)
    ok &= (rep.lower, rep.upper, rep.status) == (1, 1, "certified")
    ok &= ceil_log2(rep.upper) == 0

    half = validate_dist([[0.5, 0.0], [0.0, 0.5]])
    rep = psd_rank_search(half)
    ok &= (rep.lower, rep.upper, rep.status) == (2, 2, "certified")
    ok &= ceil_log2(rep.upper) == 1

    third = validate_dist(np.eye(3) / 3)
    floor = psd_fit(third, 2, SolverConfig(starts=64))
    ok &= floor.residual >= 1e-3
    rep = psd_rank_search(third)
    ok &= (rep.lower, rep.upper, rep.status) == (3, 3, "certified")
    ok &= ceil_log2(rep.upper) == 2

    _report(4, "psd-rank landmark instances", bool(ok), time.time() - t0, 60)


def test_criterion_5_factorization_reconstruction():
    t0 = time.time()
    rng = np.random.default_rng(20240805)
    ok = True
    for _ in range(100):
        da, db, ka, kb = (int(v) for v in rng.integers(1, 4, size=4))
        r = int(rng.integers(1, 4))
        purif = random_general_factorization(rng, da, db, ka, kb, r)
        rho = purif.reduction()
        if np.abs(rho.mat - rho.mat.conj().T).max() > 1e-9:
            ok = False
        if np.linalg.eigvalsh(rho.mat)[0] < -1e-9:
            ok = False
        if abs(np.trace(rho.mat).real - 1.0) > 1e-9:
            ok = False
        red = partial_trace(purif.to_state(), keep=[0, 2])
        if np.abs(rho.mat - red.mat).max() > 1e-9:
            ok = False
    _report(5, "factorization reconstruction matches purification", ok,
            time.time() - t0, 10)


def test_criterion_6_monotonicity_under_tensoring():
    t0 = time.time()
    rng = np.random.default_rng(20240806)
    ok = True
    for _ in range(100):
        da, db = (int(v) for v in rng.integers(2, 6, size=2))
        d1, d2 = (int(v) for v in rng.integers(2, 4, size=2))
        psi = random_pure_state(rng, da, db)
        theta = random_pure_state(rng, d1, d2)
        joint = tensor_product(psi, theta)
        for eps in EPS_GRID:
            if srank_eps(joint, eps) < srank_eps(psi, eps):
                ok = False
    _report(6, "approximate Schmidt rank is monotone under tensoring", ok,
            time.time() - t0, 20)


def test_criterion_7_transfer_rank_accounting():
    t0 = time.time()
    rng = np.random.default_rng(20240807)
    ok = True
    for _ in range(200):
        na = int(rng.integers(1, 4))
        nb = int(rng.integers(1, 4))
        state = random_register_state(rng, (2,) * (na + nb),
                                      ("A",) * na + ("B",) * nb)
        src = "A" if rng.integers(2) else "B"
        dst = "B" if src == "A" else "A"
        candidates = [i for i, s in enumerate(state.sides) if s == src]
        if not candidates:
            continue
        which = int(rng.choice(candidates))
        before = schmidt_rank(state)
        after = schmidt_rank(transfer_qubit(state, which, src, dst))
        if after > 2 * before:
            ok = False
    _report(7, "single-qubit transfer at most doubles the Schmidt rank", ok,
            time.time() - t0, 10)


def test_criterion_8_end_to_end_protocols():
    t0 = time.time()
    ok = True

    # Pure route: synthesized protocols hit their fidelity target with the
    # seed size equal to the computed complexity.
    rng = np.random.default_rng(20240808)
    for _ in range(100):
        da, db = (int(v) for v in rng.integers(2, 7, size=2))
        psi = random_pure_state(rng, da, db)
        for eps in (0.0, 0.01, 0.05, 0.1, 0.2):
            spec = synth_pure_protocol(psi, eps)
            report = verify_generation(spec)
            if not report.passed:
                ok = False
            if report.seed_size != q_eps(psi, eps):
                ok = False

    # Classical route: certified or heuristic witnesses synthesize
    # protocols whose declared size equals ceil(log2(upper)).
    for raw in ([[0.25, 0.25], [0.25, 0.25]],
                [[0.5, 0.0], [0.0, 0.5]],
                np.eye(3) / 3):
        dist = validate_dist(raw)
        rep = psd_rank_search(dist)
        state = synth_from_psd(dist, rep.witness)
        spec = protocol_from_purification(state, eps=0.0)
        report = verify_generation(spec)
        if not report.passed:
            ok = False
        if report.seed_size != ceil_log2(rep.upper):
            ok = False

    _report(8, "synthesized protocols verify at declared size", ok,
            time.time() - t0, 30)


def squared_disjointness(n):
    """P proportional to M(a, b) = (1 - a^T b)^2 over a, b in {0,1}^n, and
    its size n + 1 psd witness C_a = v_a v_a^T / sum M, D_b = w_b w_b^T
    with v_a = (1, a) and w_b = (1, -b): tr(C_a D_b) = (v_a . w_b)^2 / sum M.
    Its nonnegative rank grows as 2^Omega(n) (Fiorini, Massar, Pokutta,
    Tiwary and de Wolf, STOC 2012)."""
    bits = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).astype(float)
    m = (1.0 - bits @ bits.T) ** 2
    ones = np.ones((2 ** n, 1))
    cs = tuple(np.outer(v, v) / m.sum() for v in np.hstack([ones, bits]))
    ds = tuple(np.outer(w, w) for w in np.hstack([ones, -bits]))
    return validate_dist(m / m.sum()), PsdFactorization(r=n + 1, cs=cs, ds=ds, residual=0.0)


def test_criterion_9_quantum_classical_separation():
    t0 = time.time()
    ok = True
    for n in (2, 3, 4):
        dist, fact = squared_disjointness(n)
        ok &= bool(np.abs(fact.trace_products() - dist.p).max() <= 1e-12)
        spec = protocol_from_purification(synth_from_psd(dist, fact))
        report = verify_generation(spec)
        ok &= report.passed and report.seed_size == ceil_log2(n + 1)
        ok &= apply_protocol(spec).form == spec.target.form == "diagonal"
        # rank(P) bounds the nonnegative rank from below.
        ok &= rank_at_tol(dist) >= 1 + n + n * (n - 1) // 2
    _report(9, "squared disjointness verifies at ceil(log2(n + 1)) qubits", bool(ok),
            time.time() - t0, 10)
