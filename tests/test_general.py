"""Tests for purifications, factorizations and mixed-state bounds."""

import json
import warnings

import numpy as np
import pytest

from qcorr.classical import psd_rank_search, synth_from_psd, validate_dist
from qcorr.errors import InvalidInput
from qcorr.cli import main
from qcorr.general import Purification, canonical_purification, q_upper_bound
from qcorr import io as qio
from qcorr import linalg
from qcorr.linalg import (
    DensityMatrix,
    RegisterState,
    ceil_log2,
    comp_reduction,
    partial_trace,
    schmidt_rank,
)
from qcorr.pure import PureState, schmidt_decompose
from qcorr.rand import (
    random_classical_density,
    random_density_matrix,
    random_general_factorization,
    random_psd_factorization,
    random_pure_state,
    random_register_state,
)
from qcorr.sim import protocol_from_purification, verify_generation

EPR = PureState(2, 2, np.array([1, 0, 0, 1]) / np.sqrt(2))

def test_canonical_purification_of_pure_state():
    rng = np.random.default_rng(79)
    psi = random_pure_state(rng, 2, 3)
    purif = canonical_purification(psi.to_density())
    assert (purif.dims_a, purif.dims_b) == ((2, 1), (3, 1))  # trivial aux
    np.testing.assert_allclose(purif.reduction().mat, psi.to_density().mat,
                               atol=1e-9)

def test_canonical_purification_maximally_mixed():
    rho = DensityMatrix(2, 1, np.eye(2) / 2)
    purif = canonical_purification(rho)
    assert (purif.dims_a, purif.dims_b) == ((2, 2), (1, 1))  # aux dim 2
    # EPR-like across A|A1, both on Alice's side: one basis ket per
    # eigenvector, weight 1/2 each.
    probs = np.abs(purif.amps) ** 2
    np.testing.assert_allclose(sorted(probs), [0, 0, 0.5, 0.5], atol=1e-12)
    # No correlation with the trivial Bob side is needed at all.
    assert purif.srank() == 1
    np.testing.assert_allclose(purif.reduction().mat, np.eye(2) / 2, atol=1e-10)

def test_canonical_purification_random_rank3():
    rng = np.random.default_rng(83)
    rho = random_density_matrix(rng, 2, 2, rank=3)
    purif = canonical_purification(rho)
    assert purif.dims_a[1] == 3  # aux carries the rank
    np.testing.assert_allclose(purif.reduction().mat, rho.mat, atol=1e-9)

def test_factor_from_purification_epr():
    pair = Purification.from_state(EPR.to_registers()).schmidt_pair()
    assert pair.a.shape[2] == 2
    scale = 2.0 ** -0.25
    np.testing.assert_allclose(np.abs(pair.a[0]), [[scale, 0.0]], atol=1e-10)
    np.testing.assert_allclose(np.abs(pair.a[1]), [[0.0, scale]], atol=1e-10)
    # Oracle: the dense reduction of the EPR pair.
    rho = pair.reduction()
    np.testing.assert_allclose(rho.mat, EPR.to_density().mat, atol=1e-9)

def test_factor_from_purification_product_state():
    psi = PureState(2, 2, [0, 1, 0, 0])  # |0>|1>
    pair = Purification.from_state(psi.to_registers()).schmidt_pair()
    assert pair.a.shape[2] == 1
    rho = pair.reduction()
    np.testing.assert_allclose(rho.mat, psi.to_density().mat, atol=1e-9)

def test_factor_from_synth_half_i2():
    from qcorr.classical import PsdFactorization, synth_from_psd

    half = validate_dist([[0.5, 0.0], [0.0, 0.5]])
    cs = tuple(np.diag([1.0 if x == i else 0.0 for i in range(2)]).astype(complex)
               for x in range(2))
    ds = tuple((0.5 * np.diag([1.0 if y == i else 0.0 for i in range(2)])).astype(complex)
               for y in range(2))
    state = synth_from_psd(half, PsdFactorization(r=2, cs=cs, ds=ds, residual=0.0))
    rho = state.schmidt_pair().reduction()
    np.testing.assert_allclose(rho.mat, np.diag([0.5, 0, 0, 0.5]), atol=1e-8)

def test_reconstruct_trivial():
    rho = Purification(np.ones((1, 1, 1)), np.ones((1, 1, 1))).reduction()
    np.testing.assert_allclose(rho.mat, [[1.0]], atol=1e-12)

def test_reconstruct_matches_assembled_purification():
    # Draws on both sides of acting pairs <= da db, then ones with exactly
    # zero aux slices, which act on nothing, then ones whose aux slices
    # each touch one computational index (alpha = x mod da, beta = y mod
    # db), whose reduction is diagonal.
    rng = np.random.default_rng(89)
    for draw in range(22):
        da, db, ka, kb = (int(v) for v in rng.integers(1, 4, size=4))
        r = int(rng.integers(1, 4))
        pair = random_general_factorization(rng, da, db, ka, kb, r)
        a, b = pair.a.copy(), pair.b.copy()
        if draw >= 10:
            if draw < 16:
                a[:, 1:][:, rng.random(ka - 1) < 0.5] = 0.0
                b[:, 1:][:, rng.random(kb - 1) < 0.5] = 0.0
            else:
                a[np.arange(da)[:, None] != np.arange(ka) % da] = 0.0
                b[np.arange(db)[:, None] != np.arange(kb) % db] = 0.0
            a /= np.sqrt(linalg._sq_norm(a, b))
            pair = Purification(a, b)
        rho = pair.reduction()
        state = pair.to_state()
        red = partial_trace(state, keep=[0, 2])
        np.testing.assert_allclose(rho.mat, red.mat, atol=1e-9)
        vals = np.linalg.eigvalsh(rho.mat)
        assert vals[0] >= -1e-9
        assert abs(np.trace(rho.mat).real - 1.0) <= 1e-9
        acting = np.count_nonzero(a.any(axis=(0, 2))) * np.count_nonzero(b.any(axis=(0, 2)))
        copies = all(f.any(axis=2).sum(axis=0).max() <= 1 for f in (a, b))
        assert copies == (draw >= 16 or da == db == 1)
        assert rho.form == ("diagonal" if copies else "factor" if acting <= da * db else "dense")
        assert comp_reduction(a, b)[1] == linalg._sq_norm(pair.a, pair.b)
        assert np.all(rho.mat.diagonal().imag == 0.0)
        if copies:
            assert np.all(rho.mat[~np.eye(da * db, dtype=bool)] == 0.0)


def _write_pair(tmp_path, a, b) -> str:
    """A ``general_factorization`` file of the families a[x], b[y], which
    need not be normalized."""
    path = str(tmp_path / "pair.json")
    with open(path, "w") as fh:
        json.dump({"format": "qcorr/1", "kind": "general_factorization",
                   "r": np.shape(a)[2], "dim_a": len(a), "dim_b": len(b),
                   "a_mats": [qio._matrix_obj(m) for m in a],
                   "b_mats": [qio._matrix_obj(m) for m in b]}, fh)
    return path


def test_reconstruct_refuses_a_zero_factorization(tmp_path, capsys):
    # A zero pair is refused where a file is read, and by the reduction.
    path = _write_pair(tmp_path, np.zeros((1, 2, 1)), np.ones((1, 1, 1)))
    with pytest.raises(InvalidInput, match="zero state"):
        qio.load(path)
    assert main(["--json", "reconstruct", "--factors", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "zero state" in captured.err
    with pytest.raises(InvalidInput, match="zero state"):
        comp_reduction(np.zeros((1, 2, 1)), np.ones((1, 1, 1)))


def test_reconstruct_runs_no_psd_check(monkeypatch):
    # A reduction held as its factor (here 2 x 3 acting aux pairs against 6
    # outputs) is psd by form; the check runs on dense matrices only.
    pair = random_general_factorization(np.random.default_rng(91), 3, 2, 2, 3, 2)
    checked = []
    require = linalg.require_psd
    monkeypatch.setattr(linalg, "require_psd",
                        lambda h, name="matrix": checked.append(name) or require(h, name))
    rho = pair.reduction()
    assert rho.mat.shape == (6, 6) and checked == []

def test_reconstruct_renormalizes_with_warning(tmp_path, capsys):
    # An unnormalized pair file is rescaled where it is read: with a warning
    # beyond 1e-8 in the squared norm, silently where only the pair's
    # 1e-10 norm check would refuse it, and not at all within that check.
    rng = np.random.default_rng(97)
    pair = random_general_factorization(rng, 2, 2, 2, 2, 2)
    path = _write_pair(tmp_path, 2.0 * pair.a, pair.b)
    with pytest.warns(UserWarning, match="deviates from 1; renormalizing"):
        loaded = qio.load(path)
    rho = loaded.reduction()
    assert abs(np.trace(rho.mat).real - 1.0) <= 1e-10
    vals = np.linalg.eigvalsh(rho.mat)
    assert vals[0] >= -1e-9
    np.testing.assert_allclose(rho.mat, pair.reduction().mat, rtol=0, atol=1e-12)
    with pytest.warns(UserWarning, match="deviates from 1; renormalizing"):
        assert main(["--json", "reconstruct", "--factors", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["trace"] - 1.0) <= 1e-10
    for scale, rescaled in ((1 + 1e-9, True), (1 + 2e-11, False)):
        path = _write_pair(tmp_path, scale * pair.a, pair.b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = qio.load(path)
        assert np.array_equal(loaded.a, scale * pair.a) != rescaled
        assert abs(linalg._sq_norm(loaded.a, loaded.b) - 1.0) <= (1e-15 if rescaled else 1e-10)

def test_factorization_norm_is_purification_norm():
    rng = np.random.default_rng(101)
    pair = random_general_factorization(rng, 2, 3, 2, 2, 2)
    a = 2.0 * pair.a
    amps = np.einsum("xai,ybi->xayb", a, pair.b)
    assert abs(linalg._sq_norm(a, pair.b) - np.linalg.norm(amps) ** 2) <= 1e-9

def test_round_trip_purification_to_factors():
    rng = np.random.default_rng(103)
    for _ in range(5):
        purif = random_general_factorization(rng, 3, 2, 2, 3, 3)
        back = purif.schmidt_pair()
        np.testing.assert_allclose(
            back.reduction().mat,
            partial_trace(purif.to_state(), keep=[0, 2]).mat,
            atol=1e-8,
        )

def test_q_upper_bound_pure_state():
    rng = np.random.default_rng(107)
    psi = random_pure_state(rng, 4, 4)
    qubits, witness = q_upper_bound(psi.to_density())
    assert qubits == ceil_log2(schmidt_decompose(psi).rank)
    np.testing.assert_allclose(witness.reduction().mat, psi.to_density().mat,
                               atol=1e-8)

def test_q_upper_bound_half_i2():
    rho = DensityMatrix(2, 2, np.diag([0.5, 0, 0, 0.5]))
    qubits, witness = q_upper_bound(rho)
    assert qubits == 1
    assert schmidt_rank(witness.to_state()) <= 2
    red = witness.reduction()
    np.testing.assert_allclose(red.mat, rho.mat, atol=1e-8)

def test_q_upper_bound_classical_never_worse_than_spectral():
    rng = np.random.default_rng(109)
    for _ in range(5):
        rho = random_classical_density(rng, 2, 3)
        purif = canonical_purification(rho)
        spectral = ceil_log2(purif.srank())
        qubits, _ = q_upper_bound(rho)
        assert qubits <= spectral

def test_q_upper_bound_reads_a_diagonal_state_without_its_matrix():
    # The default target of a planted protocol is held as its diagonal; the
    # classical test must not form its dense matrix, and the answer is the
    # psd-rank route on its Born diagonal. A factor-held classical state
    # takes the off-diagonal scan.
    p, fact = random_psd_factorization(np.random.default_rng(113), 6, 6, 3)
    target = protocol_from_purification(synth_from_psd(p, fact)).target
    assert target.form == "diagonal"
    qubits, witness = q_upper_bound(target)
    assert "mat" not in vars(target)
    dist = validate_dist(target.born_diagonal.reshape(6, 6), renormalize=True)
    report = psd_rank_search(dist)
    assert qubits == ceil_log2(report.upper) == 2
    expected = synth_from_psd(dist, report.witness)
    np.testing.assert_array_equal(witness.a, expected.a)
    np.testing.assert_array_equal(witness.b, expected.b)
    held = DensityMatrix._of_factor(6, 6, np.diag(np.sqrt(target.born_diagonal)))
    assert held.is_classical and "mat" in vars(held)
    assert q_upper_bound(held)[0] == 2


def test_general_factorization_shape_validation():
    with pytest.raises(InvalidInput, match=r"A\[1\] shape \(3, 2\) differs"):
        qio._pair_from_families(2, (np.ones((2, 2)), np.ones((3, 2))), (np.ones((1, 2)),))
    with pytest.raises(InvalidInput, match=r"B\[0\] has 3 columns, expected 2"):
        qio._pair_from_families(2, (np.ones((2, 2)),), (np.ones((1, 3)),))

def test_extraction_paths_agree_on_classical_inputs():
    # The Gram route and the general-factorization route must assign the
    # same probabilities to every computational outcome.
    from qcorr.classical import gram_extract

    rng = np.random.default_rng(181)
    for _ in range(5):
        rho = random_classical_density(rng, 2, 3)
        purif = canonical_purification(rho)
        psd = gram_extract(purif)
        diag = np.real(np.diag(purif.schmidt_pair().reduction().mat))
        np.testing.assert_allclose(
            psd.trace_products().reshape(-1), diag, atol=1e-8
        )
        np.testing.assert_allclose(
            diag, np.real(np.diag(rho.mat)), atol=1e-8
        )


def test_bob_first_layout_reduces_in_alice_bob_order():
    # Bob's computational register (dim 3) is declared before Alice's
    # (dim 2); the reduction is still the 2 x 3 state in (x, y) order.
    state = random_register_state(np.random.default_rng(3), (3, 2, 2, 2),
                                  ("B", "A", "A", "B"))
    red = Purification.from_state(state).reduction()
    assert (red.dim_a, red.dim_b) == (2, 3)
    expected = Purification.from_state(state).schmidt_pair().reduction()
    np.testing.assert_allclose(red.mat, expected.mat, rtol=0, atol=1e-12)
    assert verify_generation(protocol_from_purification(Purification.from_state(state))).passed


@pytest.mark.parametrize("scale", [1 + 0.9e-10, 1 + 0.4e-10])
def test_purification_within_norm_check_reduces_to_unit_trace(scale):
    # The norm check admits |norm - 1| <= 1e-10, so the squared norm may be
    # off by 2e-10: the reduction and the protocol target divide it out.
    state = RegisterState(EPR.amps * scale, (2, 2), ("A", "B"))
    assert abs(np.trace(Purification.from_state(state).reduction().mat).real - 1.0) <= 1e-15
    spec = protocol_from_purification(Purification.from_state(state))
    assert abs(np.trace(spec.target.mat).real - 1.0) <= 1e-15
    report = verify_generation(spec)
    assert report.passed and report.fidelity <= 1 + 1e-12
