"""Seeded inputs, the pipeline each input runs through, and its output checks.

Every instance runs through the public qcorr API with the default
SolverConfig. A chain returns an ``Answer`` (the rank bracket the user
gets) after checking every output; a failed check raises ``CheckFailed``.
Functions are looked up on their modules at call time, so the tracer in
``tracing.py`` sees every call it wraps.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qcorr import classical, linalg, pure, rand, sim

#: Seed of the fixed fit ladder of ``classical-bracket``. Fit time on
#: seeded random 3x3 inputs spans 0.5-40 s from draw to draw, so a ladder
#: that changed with ``--seed`` could not be timed steadily; see DESIGN.md.
LADDER_SEED = 0

#: Trace products and measured diagonals must equal P this closely.
DIAG_TOL = 1e-8
#: Slack on a fidelity target, as in ``sim.verify_generation``.
FID_SLACK = 1e-9
EPS_LIST = (0.0, 0.01, 0.05, 0.1, 0.2)
GEOMETRIC_RATIO = 0.7


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Answer:
    """Rank bracket [lower, upper] of one answer; certified when proved tight."""

    lower: int
    upper: int
    certified: bool


@dataclass(frozen=True)
class Instance:
    name: str
    run: Callable[[], Answer]


# ---------------------------------------------------------------- classical


def _classical_chain(p: classical.DistMatrix, psd_rank: int | None = None,
                     nn_rank: int | None = None,
                     planted_r: int | None = None) -> Answer:
    """psd_rank_search -> nonneg_rank_bounds -> synth -> protocol -> verify.

    ``psd_rank`` and ``nn_rank`` are known true ranks (landmarks);
    ``planted_r`` is the size of a planted witness, an upper bound on the
    psd-rank.
    """
    tol = classical.DEFAULT_CONFIG.tol
    rep = classical.psd_rank_search(p)
    wit = rep.witness
    require(wit is not None and wit.r == rep.upper, "witness missing or not of size upper")
    resid = float(np.linalg.norm(wit.trace_products() - p.p))
    require(resid < tol, f"witness residual {resid:.3e} >= tol {tol:g}")
    require(rep.status != "certified" or rep.lower == rep.upper, "certified but not tight")
    if psd_rank is not None:
        require(rep.lower <= psd_rank <= rep.upper,
                f"psd bracket [{rep.lower}, {rep.upper}] misses known rank {psd_rank}")
    if planted_r is not None:
        require(rep.lower <= planted_r,
                f"lower bound {rep.lower} exceeds planted size {planted_r}")

    nn = classical.nonneg_rank_bounds(p)
    require(nn.lower <= nn.upper and rep.lower <= nn.upper,
            "nonnegative bracket inconsistent with psd lower bound")
    if nn_rank is not None:
        require(nn.lower <= nn_rank <= nn.upper,
                f"nonneg bracket [{nn.lower}, {nn.upper}] misses known rank {nn_rank}")

    state = classical.synth_from_psd(p, wit)
    spec = sim.protocol_from_purification(state)
    gen = sim.verify_generation(spec)
    require(gen.passed, f"protocol fidelity {gen.fidelity:.12f} below target")
    require(gen.seed_size == spec.seed_size_qubits <= linalg.ceil_log2(rep.upper),
            "declared seed size exceeds ceil(log2(upper))")
    return Answer(rep.lower, rep.upper, rep.status == "certified")


def _uniform(rng: np.random.Generator, n: int, m: int) -> classical.DistMatrix:
    a = rng.uniform(0.0, 1.0, size=(n, m))
    return classical.validate_dist(a / a.sum())


def _classical_instances(seed: int, tiny: bool) -> list[Instance]:
    landmarks = [
        ("uniform-2x2", np.full((2, 2), 0.25), 1, 1),
        ("I2/2", np.eye(2) / 2, 2, 2),
        ("I3/3", np.eye(3) / 3, 3, 3),
    ]
    out = [Instance(name, lambda p=classical.validate_dist(mat), a=a, b=b:
                    _classical_chain(p, psd_rank=a, nn_rank=b))
           for name, mat, a, b in landmarks]
    if tiny:
        return out[:2]
    # Seeded rank-2 inputs: the fit exits at its exact start, and both
    # ranks are known to be 2.
    rng = np.random.default_rng(seed)
    for n, m in ((2, 3), (2, 5), (4, 2), (6, 2)):
        p = _uniform(rng, n, m)
        out.append(Instance(f"uniform-{n}x{m}", lambda p=p:
                            _classical_chain(p, psd_rank=2, nn_rank=2)))
    # Fixed fit ladder: each fit runs every start to its end.
    p = _uniform(np.random.default_rng(LADDER_SEED), 3, 3)
    out.append(Instance("uniform-3x3", lambda p=p: _classical_chain(p)))
    for n, r in ((3, 2), (3, 3)):
        p, _ = rand.random_psd_factorization(np.random.default_rng(LADDER_SEED), n, n, r)
        out.append(Instance(f"planted-{n}x{n}-r{r}", lambda p=p, r=r:
                            _classical_chain(p, planted_r=r)))
    return out


# ------------------------------------------------------------------ planted


def _planted_chain(p: classical.DistMatrix, fact: classical.PsdFactorization) -> Answer:
    """synth --factors path: synth -> gram_extract -> protocol -> apply ->
    fidelity -> measure, with the certified lower bound for the bracket."""
    state = classical.synth_from_psd(p, fact)
    back = classical.gram_extract(state)
    err = float(np.abs(back.trace_products() - p.p).max())
    require(err <= DIAG_TOL, f"gram_extract trace products off P by {err:.3e}")
    require(back.r <= fact.r, f"extracted size {back.r} exceeds witness size {fact.r}")

    spec = sim.protocol_from_purification(state)
    require(spec.seed_size_qubits <= linalg.ceil_log2(fact.r),
            "declared seed size exceeds ceil(log2(r))")
    out = sim.apply_protocol(spec)
    fid = linalg.fidelity(out, spec.target)
    require(fid >= 1.0 - spec.eps - FID_SLACK, f"protocol fidelity {fid:.12f} below target")
    measured = sim.measure_computational(out)
    err = float(np.abs(measured.p - p.p).max())
    require(err <= DIAG_TOL, f"measured diagonal off P by {err:.3e}")

    # The bracket holds program outputs only: the certified lower bound and
    # the size of the witness read back off the purification.
    lower = classical.psd_rank_lower_bound(p)
    require(lower <= back.r, f"lower bound {lower} exceeds extracted size {back.r}")
    return Answer(lower, back.r, lower == back.r)


PLANTED_SIZES = ((6, 3), (10, 4), (12, 4), (16, 4))


def _planted_instances(seed: int, tiny: bool) -> list[Instance]:
    rng = np.random.default_rng(seed)
    out = []
    for n, r in ((3, 2), (4, 2)) if tiny else PLANTED_SIZES:
        p, fact = rand.random_psd_factorization(rng, n, n, r)
        out.append(Instance(f"planted-{n}x{n}-r{r}", lambda p=p, f=fact: _planted_chain(p, f)))
    return out


# --------------------------------------------------------------------- pure


def _spectrum(kind: str, k: int) -> np.ndarray:
    """Schmidt probabilities, descending: flat, or decaying by GEOMETRIC_RATIO."""
    c = np.ones(k) if kind == "flat" else GEOMETRIC_RATIO ** np.arange(k)
    return c / c.sum()


def _state_with_spectrum(rng: np.random.Generator, da: int, db: int,
                         coeffs: np.ndarray) -> pure.PureState:
    """Pure state with the given Schmidt probabilities and Haar-random bases."""
    k = coeffs.size
    u = np.linalg.qr(rng.standard_normal((da, k)) + 1j * rng.standard_normal((da, k)))[0]
    v = np.linalg.qr(rng.standard_normal((db, k)) + 1j * rng.standard_normal((db, k)))[0]
    mat = (u * np.sqrt(coeffs)) @ v.T
    return pure.state_from_matrix(mat / np.linalg.norm(mat))


def _expected_srank(coeffs: np.ndarray, eps: float) -> int:
    cum = np.cumsum(coeffs)
    k = int(np.searchsorted(cum, (1.0 - eps) ** 2 - pure.RANK_SLACK)) + 1
    return min(k, coeffs.size)


def _pure_chain(psi: pure.PureState, eps: float, srank: int) -> Answer:
    """q_eps -> build_approximant -> synth_pure_protocol -> verify_generation."""
    q = pure.q_eps(psi, eps)
    require(q == linalg.ceil_log2(srank), f"q_eps {q} != ceil(log2({srank}))")
    found = pure.srank_eps(psi, eps)
    require(found == srank, f"srank_eps {found} != {srank}")
    phi, fid = pure.build_approximant(psi, eps)
    require(fid >= 1.0 - eps - FID_SLACK, f"approximant fidelity {fid:.12f} below 1 - eps")
    overlap = float(abs(np.vdot(psi.amps, phi.amps)))
    require(abs(overlap - fid) <= FID_SLACK, "reported approximant fidelity is not the overlap")
    rank = int(np.linalg.matrix_rank(pure.vec_inv(phi)))
    require(rank == srank, f"approximant Schmidt rank {rank} != {srank}")
    spec = sim.synth_pure_protocol(psi, eps)
    require(spec.seed_size_qubits == q, "declared seed size differs from q_eps")
    gen = sim.verify_generation(spec)
    require(gen.passed, f"protocol fidelity {gen.fidelity:.12f} below 1 - eps")
    # The approximate Schmidt rank the program reports is exact, so every
    # pure answer is tight.
    return Answer(found, found, True)


#: (spectrum, d_A, d_B): square and rectangular, powers of two and not.
PURE_STATES = (("flat", 12, 12), ("geometric", 12, 12), ("flat", 16, 16),
               ("geometric", 8, 64), ("flat", 12, 24))


def _pure_instances(seed: int, tiny: bool) -> list[Instance]:
    rng = np.random.default_rng(seed)
    out = []
    for kind, da, db in (("flat", 3, 3), ("geometric", 2, 4)) if tiny else PURE_STATES:
        coeffs = _spectrum(kind, min(da, db))
        psi = _state_with_spectrum(rng, da, db, coeffs)
        for eps in EPS_LIST:
            out.append(Instance(f"{kind}-{da}x{db}-eps{eps:g}", lambda psi=psi, eps=eps,
                                s=_expected_srank(coeffs, eps): _pure_chain(psi, eps, s)))
    return out


_BUILDERS = {
    "classical-bracket": _classical_instances,
    "planted-protocol": _planted_instances,
    "pure-eps": _pure_instances,
}


def instances(workload: str, seed: int, tiny: bool = False) -> list[Instance]:
    """The workload's instance list for ``seed``; ``tiny`` gives a seconds-long list."""
    return _BUILDERS[workload](seed, tiny)


def warm_up(workload: str) -> None:
    """One untimed call through the workload's chain on a tiny input.

    A failure here is reported and left for the timed passes to count.
    """
    inst = instances(workload, 0, tiny=True)[0]
    try:
        inst.run()
    except Exception as exc:  # the timed passes count failures, not set-up
        print(f"warm-up {inst.name} failed: {exc!r}", file=sys.stderr)
