"""File formats: JSON objects for states, matrices, factorizations and
protocols, CSV for distributions.

Every JSON document carries ``"format": "qcorr/1"`` and a ``"kind"``
discriminator. Complex data is stored as row-major ``[re, im]`` pairs;
floats round-trip bit-exactly through the standard json encoder.
"""

from __future__ import annotations

import csv
import json
import math
import os
from typing import Any

import numpy as np

from .classical import DistMatrix, PsdFactorization, validate_dist
from .errors import InvalidInput, NotNormalized, NotPsd, ParseError
from .general import GeneralFactorization
from .linalg import DensityMatrix, RegisterState
from .pure import PureState
from .sim import LocalChannel, ProtocolSpec

FORMAT = "qcorr/1"


def _pairs(arr: np.ndarray) -> list[list[float]]:
    flat = np.asarray(arr, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def _from_pairs(obj: Any, key: str, count: int, where: str) -> np.ndarray:
    data = _require(obj, key, where)
    if not isinstance(data, list) or len(data) != count:
        raise ParseError(f"{where}.{key}: expected {count} [re, im] pairs")
    out = np.empty(count, dtype=complex)
    for i, item in enumerate(data):
        if (not isinstance(item, list) or len(item) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                           for v in item)):
            raise ParseError(f"{where}.{key}: entry {i} is not an [re, im] pair")
        out[i] = complex(item[0], item[1])
    return out


def _require(obj: Any, key: Any, where: str) -> Any:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected a JSON object, got {obj!r:.40}")
    if key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    return obj[key]


def _int(obj: Any, key: Any, where: str, least: int = 1) -> int:
    val = _require(obj, key, where)
    if isinstance(val, bool) or not isinstance(val, int) or val < least:
        raise ParseError(f"{where}.{key}: expected an integer >= {least}, got {val!r:.40}")
    return val


def _real(obj: Any, key: str, where: str) -> float:
    val = _require(obj, key, where)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ParseError(f"{where}.{key}: expected a number, got {val!r:.40}")
    try:
        out = float(val)
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        # Python's reader accepts the non-JSON tokens NaN and Infinity.
        raise ParseError(f"{where}.{key}: expected a finite number, got {val!r:.40}")
    return out


def _list(obj: Any, key: str, where: str) -> list:
    val = _require(obj, key, where)
    if not isinstance(val, list):
        raise ParseError(f"{where}.{key}: expected a list, got {val!r:.40}")
    return val


def _matrix_obj(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype=complex)
    return {
        "format": FORMAT,
        "kind": "matrix",
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "data": _pairs(arr),
    }


def _matrix_from_obj(obj: dict, where: str = "matrix") -> np.ndarray:
    rows = _int(obj, "rows", where)
    cols = _int(obj, "cols", where)
    flat = _from_pairs(obj, "data", rows * cols, where)
    return flat.reshape(rows, cols)


def state_to_obj(psi: PureState) -> dict:
    return {
        "format": FORMAT,
        "kind": "state",
        "dim_a": psi.dim_a,
        "dim_b": psi.dim_b,
        "amps": _pairs(psi.amps),
    }


def state_from_obj(obj: dict, where: str = "state") -> PureState:
    da = _int(obj, "dim_a", where)
    db = _int(obj, "dim_b", where)
    amps = _from_pairs(obj, "amps", da * db, where)
    return PureState(da, db, amps)


def register_state_to_obj(state: RegisterState) -> dict:
    obj = {
        "format": FORMAT,
        "kind": "register_state",
        "dims": list(state.dims),
        "sides": list(state.sides),
        "amps": _pairs(state.amps),
    }
    if state.names is not None:
        obj["names"] = list(state.names)
    return obj


def register_state_from_obj(obj: dict, where: str = "register_state") -> RegisterState:
    raw = dict(enumerate(_list(obj, "dims", where)))
    dims = tuple(_int(raw, i, f"{where}.dims") for i in raw)
    sides = tuple(str(s) for s in _list(obj, "sides", where))
    total = int(np.prod(dims))
    amps = _from_pairs(obj, "amps", total, where)
    names = None
    if "names" in obj:
        names = tuple(_list(obj, "names", where))
        if not all(isinstance(n, str) for n in names):
            raise ParseError(f"{where}.names: expected strings, got {list(names)!r:.40}")
    return RegisterState(amps, dims, sides, names)


def density_to_obj(rho: DensityMatrix) -> dict:
    return {
        "format": FORMAT,
        "kind": "density",
        "dim_a": rho.dim_a,
        "dim_b": rho.dim_b,
        "data": _pairs(rho.mat),
    }


def density_from_obj(obj: dict, where: str = "density") -> DensityMatrix:
    da = _int(obj, "dim_a", where)
    db = _int(obj, "dim_b", where)
    d = da * db
    flat = _from_pairs(obj, "data", d * d, where)
    try:
        return DensityMatrix(da, db, flat.reshape(d, d))
    except (InvalidInput, NotNormalized, NotPsd) as exc:
        raise type(exc)(f"{where}: {exc}") from None


def psd_factorization_to_obj(f: PsdFactorization) -> dict:
    return {
        "format": FORMAT,
        "kind": "psd_factorization",
        "r": f.r,
        "n": f.n,
        "m": f.m,
        "residual": f.residual,
        "cs": [_matrix_obj(c) for c in f.cs],
        "ds": [_matrix_obj(d) for d in f.ds],
    }


def psd_factorization_from_obj(obj: dict, where: str = "psd_factorization") -> PsdFactorization:
    r = _int(obj, "r", where)
    cs = [_matrix_from_obj(c, f"{where}.cs[{i}]")
          for i, c in enumerate(_list(obj, "cs", where))]
    ds = [_matrix_from_obj(d, f"{where}.ds[{i}]")
          for i, d in enumerate(_list(obj, "ds", where))]
    residual = _real(obj, "residual", where)
    return PsdFactorization(r=r, cs=cs, ds=ds, residual=residual)


def general_factorization_to_obj(f: GeneralFactorization) -> dict:
    return {
        "format": FORMAT,
        "kind": "general_factorization",
        "r": f.r,
        "dim_a": f.dim_a,
        "dim_b": f.dim_b,
        "a_mats": [_matrix_obj(a) for a in f.a_mats],
        "b_mats": [_matrix_obj(b) for b in f.b_mats],
    }


def general_factorization_from_obj(
    obj: dict, where: str = "general_factorization"
) -> GeneralFactorization:
    r = _int(obj, "r", where)
    a_mats = [_matrix_from_obj(a, f"{where}.a_mats[{i}]")
              for i, a in enumerate(_list(obj, "a_mats", where))]
    b_mats = [_matrix_from_obj(b, f"{where}.b_mats[{i}]")
              for i, b in enumerate(_list(obj, "b_mats", where))]
    return GeneralFactorization(r=r, a_mats=a_mats, b_mats=b_mats)


def channel_to_obj(ch: LocalChannel) -> dict:
    return {
        "format": FORMAT,
        "kind": "channel",
        "kraus": [_matrix_obj(k) for k in ch.kraus],
    }


def channel_from_obj(obj: dict, where: str = "channel") -> LocalChannel:
    return LocalChannel([_matrix_from_obj(k, f"{where}.kraus[{i}]")
                         for i, k in enumerate(_list(obj, "kraus", where))])


def protocol_to_obj(spec: ProtocolSpec) -> dict:
    seed = (state_to_obj(spec.seed) if isinstance(spec.seed, PureState)
            else density_to_obj(spec.seed))
    return {
        "format": FORMAT,
        "kind": "protocol",
        "eps": spec.eps,
        "seed_size_qubits": spec.seed_size_qubits,
        "seed": seed,
        "alice": channel_to_obj(spec.alice),
        "bob": channel_to_obj(spec.bob),
        "target": density_to_obj(spec.target),
    }


def protocol_from_obj(obj: dict, base_dir: str = ".", where: str = "protocol") -> ProtocolSpec:
    def sub(key: str) -> Any:
        val = _require(obj, key, where)
        if isinstance(val, str):
            return _load_json(os.path.join(base_dir, val))
        return val

    seed_obj = sub("seed")
    kind = _require(seed_obj, "kind", f"{where}.seed")
    if kind == "state":
        seed: PureState | DensityMatrix = state_from_obj(seed_obj, f"{where}.seed")
    elif kind == "density":
        seed = density_from_obj(seed_obj, f"{where}.seed")
    else:
        raise ParseError(f"{where}.seed: unknown kind {kind!r}")
    return ProtocolSpec(
        seed=seed,
        seed_size_qubits=_int(obj, "seed_size_qubits", where, least=0),
        alice=channel_from_obj(sub("alice"), f"{where}.alice"),
        bob=channel_from_obj(sub("bob"), f"{where}.bob"),
        target=density_from_obj(sub("target"), f"{where}.target"),
        eps=_real(obj, "eps", where),
    )


_TO_OBJ = {
    PureState: state_to_obj,
    RegisterState: register_state_to_obj,
    DensityMatrix: density_to_obj,
    PsdFactorization: psd_factorization_to_obj,
    GeneralFactorization: general_factorization_to_obj,
    LocalChannel: channel_to_obj,
    ProtocolSpec: protocol_to_obj,
}


def save(path: str, obj) -> None:
    """Write a domain object (or a DistMatrix, as CSV) to ``path``; an
    object holding a NaN or an infinity raises InvalidInput and writes
    nothing."""
    if isinstance(obj, DistMatrix):
        save_dist(path, obj)
        return
    for cls, encode in _TO_OBJ.items():
        if isinstance(obj, cls):
            # Encoded before the file is opened, so a refused object leaves
            # no file behind.
            try:
                text = json.dumps(encode(obj), indent=2, sort_keys=True, allow_nan=False)
            except ValueError as exc:
                raise InvalidInput(f"{path}: cannot write a non-finite number "
                                   f"as JSON ({exc})") from exc
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            return
    raise ParseError(f"cannot serialize object of type {type(obj).__name__}")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    return obj


_FROM_OBJ = {
    "state": state_from_obj,
    "register_state": register_state_from_obj,
    "density": density_from_obj,
    "psd_factorization": psd_factorization_from_obj,
    "general_factorization": general_factorization_from_obj,
    "channel": channel_from_obj,
    "matrix": _matrix_from_obj,
}


def load(path: str):
    """Parse a file by its kind (or CSV extension) into a domain object;
    :func:`save` then :func:`load` reproduces every value bit-exactly."""
    if path.lower().endswith(".csv"):
        return load_dist(path)
    obj = _load_json(path)
    kind = obj.get("kind")
    if kind == "protocol":
        return protocol_from_obj(obj, base_dir=os.path.dirname(path) or ".")
    decode = _FROM_OBJ.get(kind)
    if decode is None:
        raise ParseError(f"{path}: unknown kind {kind!r}")
    return decode(obj, kind)


def load_dist(path: str, renormalize: bool = False) -> DistMatrix:
    """Distribution from CSV (rows = x, columns = y) or a JSON matrix."""
    if path.lower().endswith(".csv"):
        rows: list[list[float]] = []
        with open(path, "r", encoding="utf-8", newline="") as fh:
            for i, record in enumerate(csv.reader(fh)):
                if not record or all(not cell.strip() for cell in record):
                    continue
                values = []
                for j, cell in enumerate(record):
                    try:
                        v = float(cell)
                    except ValueError as exc:
                        raise ParseError(
                            f"{path}: row {i}, column {j}: not a number: {cell!r}"
                        ) from exc
                    if v < -1e-12:
                        raise ParseError(
                            f"{path}: row {i}, column {j}: negative entry {v!r}"
                        )
                    values.append(v)
                rows.append(values)
        if not rows:
            raise ParseError(f"{path}: empty distribution")
        if len({len(r) for r in rows}) != 1:
            raise ParseError(f"{path}: rows have differing lengths")
        return validate_dist(np.array(rows), renormalize=renormalize)
    obj = _load_json(path)
    if obj.get("kind") != "matrix":
        raise ParseError(f"{path}: expected a CSV or a JSON matrix")
    mat = _matrix_from_obj(obj, path)
    if float(np.abs(mat.imag).max(initial=0.0)) > 1e-15:
        raise ParseError(f"{path}: distribution entries must be real")
    return validate_dist(mat.real, renormalize=renormalize)


def save_dist(path: str, d: DistMatrix) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for row in d.p:
            writer.writerow([repr(float(v)) for v in row])
