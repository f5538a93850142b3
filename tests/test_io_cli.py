"""Tests for file formats and the command-line interface."""

import dataclasses
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr import io as qio
from qcorr.classical import PsdFactorization, synth_from_psd, validate_dist
from qcorr.cli import main
from qcorr.errors import InvalidInput, ParseError
from qcorr.linalg import DensityMatrix, Purification, RegisterState, ceil_log2, cut_svd
from qcorr.pure import PureState
from qcorr.rand import (
    random_density_matrix,
    random_general_factorization,
    random_psd_factorization,
    random_pure_state,
    random_register_state,
)
from qcorr.sim import ProtocolSpec, protocol_from_purification, synth_pure_protocol

EPR = PureState(2, 2, np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_state_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(139)
    psi = random_pure_state(rng, 3, 4)
    path = tmp_path / "state.json"
    qio.save(str(path), psi)
    back = qio.load(str(path))
    assert isinstance(back, PureState)
    np.testing.assert_array_equal(back.amps, psi.amps)
    assert (back.dim_a, back.dim_b) == (psi.dim_a, psi.dim_b)


def test_register_state_roundtrip(tmp_path):
    rng = np.random.default_rng(149)
    state = random_register_state(rng, (2, 3, 2), ("A", "A", "B"))
    path = tmp_path / "reg.json"
    qio.save(str(path), state)
    back = qio.load(str(path))
    assert isinstance(back, RegisterState)
    np.testing.assert_array_equal(back.amps, state.amps)
    assert back.dims == state.dims
    assert back.sides == state.sides


def test_density_roundtrip(tmp_path):
    rho = DensityMatrix(2, 2, np.diag([0.5, 0.25, 0.25, 0.0]))
    path = tmp_path / "rho.json"
    qio.save(str(path), rho)
    back = qio.load(str(path))
    np.testing.assert_array_equal(back.mat, rho.mat)


def test_psd_factorization_roundtrip(tmp_path):
    rng = np.random.default_rng(151)
    _, fact = random_psd_factorization(rng, 2, 3, 2)
    path = tmp_path / "fact.json"
    qio.save(str(path), fact)
    back = qio.load(str(path))
    assert isinstance(back, PsdFactorization)
    assert back.r == fact.r
    for a, b in zip(back.cs, fact.cs):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(back.ds, fact.ds):
        np.testing.assert_array_equal(a, b)


def test_general_factorization_roundtrip(tmp_path):
    # A normalized pair loads bit for bit, with no warning.
    rng = np.random.default_rng(157)
    pair = random_general_factorization(rng, 2, 2, 3, 2, 2)
    path = tmp_path / "gf.json"
    qio.save(str(path), pair)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = qio.load(str(path))
    assert isinstance(back, Purification)
    np.testing.assert_array_equal(back.a, pair.a)
    np.testing.assert_array_equal(back.b, pair.b)
    obj = json.loads(path.read_text())
    assert sorted(obj) == ["a_mats", "b_mats", "dim_a", "dim_b", "format", "kind", "r"]
    assert (obj["kind"], obj["r"], obj["dim_a"], obj["dim_b"]) == (
        "general_factorization", 2, 2, 2)


@pytest.mark.parametrize("kind, field, family", [
    ("general_factorization", "dim_a", "a_mats"),
    ("general_factorization", "dim_b", "b_mats"),
    ("psd_factorization", "n", "cs"),
    ("psd_factorization", "m", "ds"),
])
def test_decoders_check_declared_dimensions(tmp_path, capsys, kind, field, family):
    # A file whose declared count differs from the family it holds is
    # refused, naming the field; the command reading it exits 2.
    dist, fact = random_psd_factorization(np.random.default_rng(5), 2, 2, 2)
    dist_path = str(tmp_path / "d.csv")
    qio.save(dist_path, dist)
    path = tmp_path / "f.json"
    qio.save(str(path), fact if kind == "psd_factorization" else synth_from_psd(dist, fact))
    obj = json.loads(path.read_text())
    assert obj[field] == len(obj[family]) == 2
    obj[field] = 7
    path.write_text(json.dumps(obj))
    with pytest.raises(ParseError, match=f"{kind}.{field}: declares 7, but {family} holds 2"):
        qio.load(str(path))
    command = (["synth", "--dist", dist_path, "--factors"] if kind == "psd_factorization"
               else ["reconstruct", "--factors"])
    capsys.readouterr()
    assert main(["--json", *command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{kind}.{field}" in captured.err


def test_protocol_roundtrip(tmp_path):
    spec = synth_pure_protocol(EPR, 0.0)
    path = tmp_path / "proto.json"
    qio.save(str(path), spec)
    back = qio.load(str(path))
    np.testing.assert_array_equal(back.seed.amps, spec.seed.amps)
    assert back.seed_size_qubits == spec.seed_size_qubits
    assert back.eps == spec.eps
    for a, b in zip(back.alice.kraus, spec.alice.kraus):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(back.target.mat, spec.target.mat)


def _assert_bit_identical(a, b):
    assert type(a) is type(b)
    if isinstance(a, (PureState, RegisterState)):
        np.testing.assert_array_equal(a.amps, b.amps)
    elif isinstance(a, DensityMatrix):
        np.testing.assert_array_equal(a.mat, b.mat)
        assert (a.dim_a, a.dim_b) == (b.dim_a, b.dim_b)
    elif isinstance(a, PsdFactorization):
        assert (a.r, a.residual) == (b.r, b.residual)
        assert len(a.cs) == len(b.cs) and len(a.ds) == len(b.ds)
        for x, y in zip(np.concatenate([a.cs, a.ds]), np.concatenate([b.cs, b.ds])):
            np.testing.assert_array_equal(x, y)
    else:
        assert isinstance(a, ProtocolSpec)
        assert (a.seed_size_qubits, a.eps) == (b.seed_size_qubits, b.eps)
        _assert_bit_identical(a.seed, b.seed)
        _assert_bit_identical(a.target, b.target)
        for ca, cb in ((a.alice, b.alice), (a.bob, b.bob)):
            assert len(ca.kraus) == len(cb.kraus)
            for x, y in zip(ca.kraus, cb.kraus):
                np.testing.assert_array_equal(x, y)


@settings(max_examples=30, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 3)] * 4), mixed=st.booleans(),
       eps=st.floats(0.0, 2.0), seed=st.integers(0, 2**32 - 1))
def test_qcorr1_roundtrip_bit_exact(dims, mixed, eps, seed):
    rng = np.random.default_rng(seed)
    _, fact = random_psd_factorization(rng, dims[0], dims[2], dims[1])
    state = random_register_state(rng, dims, ("A", "A", "B", "B"))
    spec = protocol_from_purification(Purification.from_state(state), eps=eps)
    if mixed:
        da, db = spec.alice.in_dim, spec.bob.in_dim
        spec = dataclasses.replace(spec, seed=random_density_matrix(rng, da, db),
                                   seed_size_qubits=ceil_log2(max(da, db)))
    with tempfile.TemporaryDirectory() as tmp:
        for obj in (fact, spec):
            path = os.path.join(tmp, "obj.json")
            qio.save(path, obj)
            _assert_bit_identical(obj, qio.load(path))


def test_dist_csv_roundtrip(tmp_path):
    dist = validate_dist([[0.125, 0.375], [0.25, 0.25]])
    path = tmp_path / "dist.csv"
    qio.save_dist(str(path), dist)
    back = qio.load_dist(str(path))
    np.testing.assert_array_equal(back.p, dist.p)


def test_csv_negative_entry_names_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.5,0.25\n0.5,-0.25\n")
    with pytest.raises(ParseError) as info:
        qio.load_dist(str(path))
    assert "row 1" in str(info.value)
    assert "column 1" in str(info.value)


def test_malformed_json_reports_location(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "qcorr/1", "kind": ')
    with pytest.raises(ParseError) as info:
        qio.load(str(path))
    assert "line" in str(info.value)


def test_unknown_kind_rejected(tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"format": "qcorr/1", "kind": "mystery"}))
    with pytest.raises(ParseError):
        qio.load(str(path))


def test_missing_field_rejected(tmp_path):
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps({"format": "qcorr/1", "kind": "state", "dim_a": 2}))
    with pytest.raises(ParseError) as info:
        qio.load(str(path))
    assert "dim_b" in str(info.value)


def _write_epr(tmp_path) -> str:
    path = tmp_path / "epr.json"
    qio.save(str(path), EPR)
    return str(path)


def _write_half_csv(tmp_path) -> str:
    path = tmp_path / "half.csv"
    path.write_text("0.5,0\n0,0.5\n")
    return str(path)


def test_cli_schmidt(tmp_path, capsys):
    rc = main(["--json", "schmidt", "--state", _write_epr(tmp_path)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rank"] == 2
    np.testing.assert_allclose(report["coeffs"], [0.5, 0.5], atol=1e-12)


def _assert_same_bits(got, want):
    """Equal JSON values, with the sign of every zero equal too."""
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            _assert_same_bits(got[key], want[key])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same_bits(g, w)
    else:
        assert type(got) is type(want) and got == want
        if isinstance(want, float):
            assert np.signbit(got) == np.signbit(want)


def _matrix(rows, cols, data):
    return {"cols": cols, "data": data, "format": "qcorr/1", "kind": "matrix", "rows": rows}


def test_cli_schmidt_and_approx_reports_are_pinned(tmp_path, capsys):
    # The state diag(0.8, 0.6): its Schmidt report, its approximant at
    # eps = 0.2 and that approximant's Schmidt report, down to the sign of
    # each zero (none is negative).
    path = tmp_path / "pure.json"
    path.write_text('{"format": "qcorr/1", "kind": "state", "dim_a": 2, "dim_b": 2, '
                    '"amps": [[0.8, 0.0], [0.0, 0.0], [0.0, 0.0], [0.6, 0.0]]}\n')
    phi = tmp_path / "phi.json"

    def run(*argv):
        assert main(["--json", *argv]) == 0
        return json.loads(capsys.readouterr().out)

    eye = _matrix(2, 2, [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    _assert_same_bits(run("schmidt", "--state", str(path)), {
        "coeffs": [0.6400000000000001, 0.36], "command": "schmidt", "config": {},
        "format": "qcorr/1", "left": eye, "rank": 2, "right": eye})
    _assert_same_bits(run("approx", "--state", str(path), "--eps", "0.2", "--out", str(phi)), {
        "command": "approx", "config": {"eps": 0.2}, "fidelity": 0.8, "format": "qcorr/1",
        "out": str(phi), "rank": 1})
    _assert_same_bits(json.loads(phi.read_text()), {
        "amps": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "dim_a": 2, "dim_b": 2,
        "format": "qcorr/1", "kind": "state"})
    e0 = _matrix(2, 1, [[1.0, 0.0], [0.0, 0.0]])
    _assert_same_bits(run("schmidt", "--state", str(phi)), {
        "coeffs": [1.0], "command": "schmidt", "config": {}, "format": "qcorr/1",
        "left": e0, "rank": 1, "right": e0})


def test_cli_qeps_skewed(tmp_path, capsys):
    path = tmp_path / "skew.json"
    qio.save(str(path), PureState(2, 2, [np.sqrt(0.9), 0, 0, np.sqrt(0.1)]))
    rc = main(["--json", "qeps", "--state", str(path), "--eps", "0.06"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["qubits"] == 0
    assert report["srank"] == 1


def test_cli_psdrank_half_i2(tmp_path, capsys):
    rc = main(["--json", "psdrank", "--dist", _write_half_csv(tmp_path)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["lower"], report["upper"]) == (2, 2)
    assert report["status"] == "certified"
    assert report["qubits"] == 1


@pytest.mark.parametrize("commands", [
    [["psdrank", "--dist", "{csv}", "--seed", "7"]],
    [["synth", "--dist", "{csv}", "--out-protocol", "{protocol}"],
     ["verify", "--protocol", "{protocol}"]],
], ids=["psdrank", "synth-verify"])
def test_cli_reports_are_byte_identical(tmp_path, capsys, commands):
    paths = {"csv": _write_half_csv(tmp_path), "protocol": str(tmp_path / "p.json")}

    def run() -> str:
        for command in commands:
            assert main(["--json"] + [arg.format(**paths) for arg in command]) == 0
        return capsys.readouterr().out

    first = run()
    assert first == run()
    if commands[-1][0] == "verify":
        assert '"pass": true' in first


#: A 4 x 3 distribution on which the solve inside the fit once raised
#: LinAlgError, so psdrank and synth exited 1.
SINGULAR_SOLVE_CSV = """0.18221535964798136,0.06808598638220775,0.23791208179456846
0.06843326807985785,0.041309010459165296,0.06983601493241658
0.10275583814303764,0.0,0.18177288633010022
0.017615682119370514,0.004575571398577121,0.02548830071271718
"""


@pytest.mark.parametrize("command", ["psdrank", "nnrank", "synth"])
def test_cli_survives_singular_solve(tmp_path, capsys, command):
    path = tmp_path / "singular.csv"
    path.write_text(SINGULAR_SOLVE_CSV)
    args = ["--json", command, "--dist", str(path)]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    report = json.loads(first)
    if command == "synth":
        assert report["r"] == 2 and report["residual"] < 1e-7
    else:
        assert (report["lower"], report["upper"], report["status"]) == (2, 2, "certified")


@pytest.mark.parametrize("command, expected", [
    # The fidelity bound proves r >= 3, and the exact diagonal start
    # settles r = 3 with no random start.
    ("psdrank", (3, 3, "certified", "fidelity")),
    ("nnrank", (3, 3, "certified", "rank")),
])
def test_cli_zero_starts(tmp_path, capsys, command, expected):
    path = tmp_path / "third.csv"
    qio.save_dist(str(path), validate_dist(np.eye(3) / 3))
    assert main(["--json", command, "--dist", str(path), "--starts", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["lower"], report["upper"], report["status"],
            report["lower_by"]) == expected


def test_cli_full_pipeline(tmp_path, capsys):
    half = _write_half_csv(tmp_path)
    purif = str(tmp_path / "purif.json")
    proto = str(tmp_path / "proto.json")
    rc = main(["--json", "synth", "--dist", half,
               "--out-state", purif, "--out-protocol", proto])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed_qubits"] == 1

    rc = main(["--json", "verify", "--protocol", proto])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert report["seed_size"] == 1

    rc = main(["--json", "simulate", "--protocol", proto])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(report["distribution"], [[0.5, 0], [0, 0.5]],
                               atol=1e-8)

    rc = main(["--json", "extract", "--state", purif, "--mode", "psd"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["r"] == 2
    assert report["residual"] <= 1e-8

    fact_path = str(tmp_path / "fact.json")
    rc = main(["--json", "extract", "--state", purif, "--out", fact_path])
    assert rc == 0
    capsys.readouterr()
    rc = main(["--json", "reconstruct", "--factors", fact_path])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["trace"] - 1.0) <= 1e-9
    assert report["qubits_upper"] == 1


def test_cli_extract_reads_a_pair_file_and_a_dense_file_alike(tmp_path, capsys):
    # One planted synth output, read as the pair file synth writes and as the
    # dense state of the same pair: the same r, both residuals within 1e-12.
    dist, fact = random_psd_factorization(np.random.default_rng(6), 6, 6, 3)
    dist_path, fact_path = str(tmp_path / "d.csv"), str(tmp_path / "f.json")
    qio.save(dist_path, dist)
    qio.save(fact_path, fact)
    pair_path, dense_path = tmp_path / "pair.json", str(tmp_path / "dense.json")
    texts = []
    for _ in range(2):
        assert main(["--json", "synth", "--dist", dist_path, "--factors", fact_path,
                     "--out-state", str(pair_path)]) == 0
        texts.append(pair_path.read_text())
    assert texts[0] == texts[1]
    assert json.loads(texts[0])["kind"] == "general_factorization"
    purif = synth_from_psd(dist, fact)
    np.testing.assert_array_equal(qio.load(str(pair_path)).a, purif.a)
    qio.save(dense_path, purif.to_state())
    reports = {}
    for path in (str(pair_path), dense_path):
        for mode in ("psd", "general"):
            capsys.readouterr()
            assert main(["--json", "extract", "--state", path, "--mode", mode]) == 0
            reports[path, mode] = json.loads(capsys.readouterr().out)
    assert {report["r"] for report in reports.values()} == {3}
    assert max(reports[path, "psd"]["residual"] for path in (str(pair_path), dense_path)) <= 1e-12
    # From a dense file, extract writes the coefficient-absorbed Schmidt
    # vectors of the cut SVD, in the layout the file kind has always had.
    out = tmp_path / "g.json"
    assert main(["--json", "extract", "--state", dense_path, "--mode", "general",
                 "--out", str(out)]) == 0
    res = cut_svd(qio.load(dense_path))
    t = res.rank
    root = np.sqrt(res.singulars[:t])
    a = (res.left[:, :t] * root).reshape(6, -1, t)
    b = (res.right[:, :t].conj() * root).reshape(6, -1, t)
    expected = {"format": "qcorr/1", "kind": "general_factorization", "r": t,
                "dim_a": 6, "dim_b": 6, "a_mats": [qio._matrix_obj(m) for m in a],
                "b_mats": [qio._matrix_obj(m) for m in b]}
    assert out.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_cli_approx(tmp_path, capsys):
    path = tmp_path / "skew.json"
    qio.save(str(path), PureState(2, 2, [np.sqrt(0.9), 0, 0, np.sqrt(0.1)]))
    out = str(tmp_path / "phi.json")
    rc = main(["--json", "approx", "--state", str(path), "--eps", "0.06",
               "--out", out])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rank"] == 1
    assert abs(report["fidelity"] - np.sqrt(0.9)) <= 1e-9
    back = qio.load(out)
    assert isinstance(back, PureState)


def test_cli_nnrank(tmp_path, capsys):
    rc = main(["--json", "nnrank", "--dist", _write_half_csv(tmp_path)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["lower"], report["upper"], report["status"]) == (
        2, 2, "certified")
    assert report["bits"] == 1


def test_cli_validation_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("0.5,-0.25\n0.5,0.25\n")
    rc = main(["psdrank", "--dist", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error" in err


@pytest.mark.parametrize("flag, value, field", [
    ("--starts", "-5", "starts"),
    ("--tol", "-1", "tol"),
    ("--tol", "nan", "tol"),
    ("--tol", "0.5", "tol"),
    ("--seed", "-1", "seed"),
])
def test_cli_rejects_out_of_domain_solver_settings(tmp_path, capsys, flag, value, field):
    rc = main(["--json", "psdrank", "--dist", _write_half_csv(tmp_path), flag, value])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err


def _protocol_with(key, value):
    # A synthesized protocol file with one field replaced; json.dumps writes
    # an infinite value as the non-JSON token Infinity.
    def make(tmp_path) -> dict:
        path = tmp_path / "p.json"
        assert main(["--json", "synth", "--dist", _write_half_csv(tmp_path),
                     "--out-protocol", str(path)]) == 0
        obj = json.loads(path.read_text())
        obj[key] = value
        return obj

    return make


@pytest.mark.parametrize("extra", [["nnrank"], ["synth"],
                                   ["synth", "--factors", "missing.json"]])
def test_cli_negative_seed_exits_2_on_the_other_solver_commands(tmp_path, capsys, extra):
    rc = main(["--json", *extra, "--dist", _write_half_csv(tmp_path), "--seed", "-1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed" in captured.err


@pytest.mark.parametrize("command, flag, make, field", [
    ("schmidt", "--state", lambda tmp: {"format": "qcorr/1", "kind": "state",
                                        "dim_a": "two", "dim_b": 2, "amps": []},
     "state.dim_a"),
    ("schmidt", "--state", lambda tmp: {"format": "qcorr/1", "kind": "state",
                                        "dim_a": 2, "dim_b": -2, "amps": []},
     "state.dim_b"),
    ("extract", "--state", lambda tmp: {"format": "qcorr/1", "kind": "register_state",
                                        "dims": 4, "sides": ["A"], "amps": []},
     "register_state.dims"),
    ("verify", "--protocol", _protocol_with("seed", [1, 2]), "protocol.seed"),
    ("verify", "--protocol", _protocol_with("eps", float("inf")), "protocol.eps"),
    ("verify", "--protocol", _protocol_with("eps", 10 ** 400), "protocol.eps"),
    ("schmidt", "--state", lambda tmp: {"format": "qcorr/1", "kind": "state",
                                        "dim_a": 1, "dim_b": 1, "amps": [[True, 0]]},
     "state.amps: entry 0"),
    ("extract", "--state", lambda tmp: {"format": "qcorr/1", "kind": "register_state",
                                        "dims": [2, 2], "sides": ["A", "B"],
                                        "amps": [[0.5, 0.0]] * 4, "names": [1, {"x": 1}]},
     "register_state.names"),
], ids=["dim_a-string", "dim_b-negative", "dims-int", "seed-list", "eps-infinity",
        "eps-huge-int", "amps-bool", "names-not-strings"])
def test_cli_rejects_malformed_qcorr1_field(tmp_path, capsys, command, flag, make, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(make(tmp_path)))
    capsys.readouterr()
    rc = main(["--json", command, flag, str(path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err


@pytest.mark.parametrize("command, flag", [
    ("reconstruct", "--factors"), ("simulate", "--protocol"), ("verify", "--protocol"),
    ("synth", "--factors"),
])
def test_cli_rejects_a_file_of_the_wrong_kind(tmp_path, capsys, command, flag):
    epr = _write_epr(tmp_path)
    extra = ["--dist", _write_half_csv(tmp_path)] if command == "synth" else []
    rc = main(["--json", command, *extra, flag, epr])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{epr} does not contain" in captured.err


@pytest.mark.parametrize("command, value", [
    ("qeps", "nan"), ("qeps", "-1"), ("approx", "-1"), ("approx", "nan"),
])
def test_cli_rejects_out_of_domain_eps(tmp_path, capsys, command, value):
    rc = main(["--json", command, "--state", _write_epr(tmp_path), "--eps", value])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "eps" in captured.err


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_cli_synth_rejects_out_of_domain_eps_before_the_search(tmp_path, capsys,
                                                               monkeypatch, value):
    def no_search(*args, **kwargs):
        raise AssertionError("psd_rank_search ran before --eps was checked")

    monkeypatch.setattr("qcorr.cli.psd_rank_search", no_search)
    rc = main(["--json", "synth", "--dist", _write_half_csv(tmp_path), "--eps", value])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "eps" in captured.err


@pytest.mark.parametrize("value", ["inf", "-inf", "1e400"])
@pytest.mark.parametrize("command, out_flag", [
    ("qeps", None), ("approx", "--out"), ("synth", "--out-protocol"),
])
def test_cli_refuses_a_non_finite_eps_and_writes_nothing(tmp_path, capsys, command,
                                                        out_flag, value):
    source = (["--dist", _write_half_csv(tmp_path)] if command == "synth"
              else ["--state", _write_epr(tmp_path)])
    out = tmp_path / "out.json"
    extra = [out_flag, str(out)] if out_flag else []
    rc = main(["--json", command, *source, "--eps", value, *extra])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "eps" in captured.err
    assert not out.exists()


def test_save_refuses_a_non_finite_number_and_writes_nothing(tmp_path):
    # The library accepts eps = inf (every state is within it); the qcorr/1
    # writer does not, since JSON has no infinity.
    spec = synth_pure_protocol(EPR, float("inf"))
    path = tmp_path / "proto.json"
    with pytest.raises(InvalidInput, match="proto.json"):
        qio.save(str(path), spec)
    assert not path.exists()


def test_cli_non_psd_target_names_the_object(tmp_path, capsys):
    proto = tmp_path / "p.json"
    assert main(["--json", "synth", "--dist", _write_half_csv(tmp_path),
                 "--out-protocol", str(proto)]) == 0
    obj = json.loads(proto.read_text())
    # A 0.6 coherence between |00> and |11> on diag(0.5, 0, 0, 0.5).
    obj["target"]["data"][3] = obj["target"]["data"][12] = [0.6, 0.0]
    proto.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["--json", "verify", "--protocol", str(proto)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "protocol.target" in captured.err
    assert "minimum eigenvalue" in captured.err


def test_cli_missing_file_exit_code(tmp_path, capsys):
    rc = main(["schmidt", "--state", str(tmp_path / "nope.json")])
    assert rc == 2


def test_cli_unknown_subcommand(capsys):
    rc = main(["frobnicate"])
    assert rc == 2


def test_protocol_manifest_with_file_references(tmp_path):
    spec = synth_pure_protocol(EPR, 0.0)
    qio.save(str(tmp_path / "seed.json"), spec.seed)
    qio.save(str(tmp_path / "alice.json"), spec.alice)
    qio.save(str(tmp_path / "bob.json"), spec.bob)
    qio.save(str(tmp_path / "target.json"), spec.target)
    manifest = {
        "format": "qcorr/1",
        "kind": "protocol",
        "eps": 0.0,
        "seed_size_qubits": 1,
        "seed": "seed.json",
        "alice": "alice.json",
        "bob": "bob.json",
        "target": "target.json",
    }
    path = tmp_path / "proto.json"
    path.write_text(json.dumps(manifest))
    back = qio.load(str(path))
    np.testing.assert_array_equal(back.seed.amps, spec.seed.amps)
    np.testing.assert_array_equal(back.target.mat, spec.target.mat)
