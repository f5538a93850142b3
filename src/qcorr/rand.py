"""Seeded random instances of the package's domain objects.

Used by the test suite and handy for desk experiments; every function
takes an explicit numpy Generator so runs are reproducible.
"""

from __future__ import annotations

import numpy as np

from .classical import DistMatrix, PsdFactorization
from .general import GeneralFactorization, factorization_norm
from .linalg import DensityMatrix, RegisterState, _trace_form, hermitize
from .pure import PureState


def random_pure_state(rng: np.random.Generator, dim_a: int, dim_b: int) -> PureState:
    """Normalized state with iid complex Gaussian amplitudes."""
    amps = rng.standard_normal(dim_a * dim_b) + 1j * rng.standard_normal(dim_a * dim_b)
    return PureState(dim_a, dim_b, amps / np.linalg.norm(amps))


def random_register_state(
    rng: np.random.Generator, dims: tuple[int, ...], sides: tuple[str, ...]
) -> RegisterState:
    total = int(np.prod(dims))
    amps = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    return RegisterState(amps / np.linalg.norm(amps), dims, sides)


def random_psd(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    """Random psd matrix G^dag G with G of the given rank (default full)."""
    rank = dim if rank is None else rank
    g = rng.standard_normal((rank, dim)) + 1j * rng.standard_normal((rank, dim))
    return hermitize(g.conj().T @ g)


def random_density_matrix(
    rng: np.random.Generator, dim_a: int, dim_b: int, rank: int | None = None
) -> DensityMatrix:
    d = dim_a * dim_b
    mat = random_psd(rng, d, rank)
    return DensityMatrix(dim_a, dim_b, mat / float(np.trace(mat).real))


def random_classical_density(
    rng: np.random.Generator, dim_a: int, dim_b: int
) -> DensityMatrix:
    p = rng.uniform(0.0, 1.0, size=dim_a * dim_b)
    p /= p.sum()
    return DensityMatrix(dim_a, dim_b, np.diag(p.astype(complex)))


def random_psd_factorization(
    rng: np.random.Generator, n: int, m: int, r: int
) -> tuple[DistMatrix, PsdFactorization]:
    """Random exact psd factorization together with the distribution it
    generates; the residual is zero up to roundoff."""
    cs = np.array([random_psd(rng, r) for _ in range(n)])
    ds = np.array([random_psd(rng, r) for _ in range(m)])
    t = _trace_form(cs, ds)
    total = float(t.sum())
    cs = cs / total
    p = t / total
    fact = PsdFactorization(r=r, cs=cs, ds=ds,
                            residual=float(np.linalg.norm(_trace_form(cs, ds) - p)))
    return DistMatrix(n, m, p), fact


def random_general_factorization(
    rng: np.random.Generator, dim_a: int, dim_b: int, ka: int, kb: int, r: int
) -> GeneralFactorization:
    """Random normalized factorization (unit purification norm)."""
    a_mats = [rng.standard_normal((ka, r)) + 1j * rng.standard_normal((ka, r))
              for _ in range(dim_a)]
    b_mats = [rng.standard_normal((kb, r)) + 1j * rng.standard_normal((kb, r))
              for _ in range(dim_b)]
    fact = GeneralFactorization(r=r, a_mats=a_mats, b_mats=b_mats)
    scale = factorization_norm(fact) ** -0.25
    return GeneralFactorization(r=r, a_mats=fact.a_mats * scale, b_mats=fact.b_mats * scale)
