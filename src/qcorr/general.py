"""General mixed-state machinery.

A mixed bipartite state can always be written as a reduction of a pure
state on enlarged local spaces, and the Schmidt rank of that purification
is exactly captured by matrix families {A_x}, {B_y} with r columns via

    rho = sum |x><x'| (x) |y><y'| . tr((A_x'^dag A_x)^T (B_y'^dag B_y)).

Those families are the two factors of a ``Purification``: A_x = a[x] and
B_y = b[y]. A pair's ``reduction`` is the density matrix, its
``schmidt_pair`` the families of least r, the Schmidt rank. This module
purifies a density matrix and derives seed-qubit upper bounds from the
pair. For classical states it cross-checks against the psd-rank route.
"""

from __future__ import annotations

import numpy as np

from .classical import psd_rank_search, synth_from_psd, validate_dist, SolverConfig
from .errors import InvalidInput
from .linalg import DensityMatrix, Purification, ceil_log2


def canonical_purification(rho: DensityMatrix) -> Purification:
    """Spectral purification with all purifying freedom on Alice's side.

    |psi> = sum_k sqrt(lambda_k) |e_k>_(AB) (x) |k>_aux on registers
    (A, A1, B, B1) where A1 is the aux register of dimension rank(rho) and
    B1 is trivial: the amplitudes are those of ``rho.factor``. Tracing out
    the aux registers reproduces rho. A state held as its factor
    (``form == "factor"``) gives one aux dimension per column of that
    factor instead, with the same Schmidt coefficients across the cut. The
    pair is read straight off the factor W: a[x, k, y] = W[(x, y), k] and
    b[y, 0, y'] = delta_yy', so the Schmidt rank is at most dim_b.
    """
    if not isinstance(rho, DensityMatrix):
        raise InvalidInput("expected a DensityMatrix")
    da, db, k = rho.dim_a, rho.dim_b, rho.factor.shape[1]
    a = np.transpose(rho.factor.reshape(da, db, k), (0, 2, 1))  # (x, aux, y)
    return Purification(a / float(np.linalg.norm(a)), np.eye(db).reshape(db, 1, db),
                        names=("A", "A1", "B", "B1"))


def q_upper_bound(
    rho: DensityMatrix, cfg: SolverConfig | None = None
) -> tuple[int, Purification]:
    """Seed-qubit upper bound with a purification witness.

    Uses ceil(log2) of the canonical purification's Schmidt rank. For
    classical states the psd-rank search provides an alternative witness;
    the smaller bound wins (the psd route is preferred on ties, since it
    comes with an exactly classical reduction). For non-classical mixed
    states the bound is an upper bound only, not the exact complexity.
    """
    purif = canonical_purification(rho)
    q_spectral = ceil_log2(purif.srank())
    if rho.is_classical:
        dist = validate_dist(rho.born_diagonal.reshape(rho.dim_a, rho.dim_b),
                             renormalize=True)
        report = psd_rank_search(dist, cfg)
        if report.witness is not None:
            q_psd = ceil_log2(report.upper)
            if q_psd <= q_spectral:
                return q_psd, synth_from_psd(dist, report.witness)
    return q_spectral, purif
