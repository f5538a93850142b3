"""Command-line surface.

One subcommand per pipeline: schmidt, qeps, approx (emit approximant),
psdrank, nnrank, synth (distribution -> purification + protocol),
extract (purification -> factorization), reconstruct (factorization ->
density matrix), simulate, verify. Reports go to stdout as aligned text
or, with --json, as a deterministic JSON document that echoes every
tolerance and the seed in a ``config`` block.

Exit codes: 0 success, 2 input/validation error, 1 internal failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import io
from .classical import (
    DEFAULT_CONFIG,
    PsdFactorization,
    SolverConfig,
    gram_extract,
    nonneg_rank_bounds,
    psd_rank_search,
    rank_at_tol,
    synth_from_psd,
)
from .errors import InvalidInput, QcorrError
from .general import (
    GeneralFactorization,
    Purification,
    factor_from_purification,
    reconstruct_from_factors,
)
from .linalg import RegisterState, ceil_log2
from .pure import PureState, build_approximant, require_eps, schmidt_decompose, srank_eps
from .sim import (
    ProtocolSpec,
    apply_protocol,
    measure_computational,
    protocol_from_purification,
    verify_generation,
)

FORMAT = io.FORMAT


def _config_block(args, keys) -> dict:
    block = {}
    for key in keys:
        block[key] = getattr(args, key)
    return block


def _load(path: str, kind: type | tuple[type, ...], what: str):
    obj = io.load(path)
    if not isinstance(obj, kind):
        raise InvalidInput(f"{path} does not contain {what}")
    return obj


def _load_register_state(path: str) -> RegisterState:
    obj = _load(path, (RegisterState, PureState), "a pure state with registers")
    return obj.to_registers() if isinstance(obj, PureState) else obj


def _solver_config(args) -> SolverConfig:
    return SolverConfig(starts=args.starts, tol=args.tol, seed=args.seed)


def cmd_schmidt(args) -> dict:
    psi = _load(args.state, PureState, "a bipartite pure state")
    form = schmidt_decompose(psi)
    return {
        "config": _config_block(args, []),
        "rank": form.rank,
        "coeffs": [float(c) for c in form.coeffs],
        "left": io._matrix_obj(form.left),
        "right": io._matrix_obj(form.right),
    }


def cmd_qeps(args) -> dict:
    psi = _load(args.state, PureState, "a bipartite pure state")
    r = srank_eps(psi, args.eps)
    form = schmidt_decompose(psi)
    achievable = float(np.sqrt(np.cumsum(form.coeffs)[r - 1])) if r >= 1 else 0.0
    return {
        "config": _config_block(args, ["eps"]),
        "srank": r,
        "qubits": ceil_log2(r),
        "achievable_fidelity": achievable,
    }


def cmd_approx(args) -> dict:
    psi = _load(args.state, PureState, "a bipartite pure state")
    phi, fid = build_approximant(psi, args.eps)
    if args.out:
        io.save(args.out, phi)
    form = schmidt_decompose(phi)
    return {
        "config": _config_block(args, ["eps"]),
        "rank": form.rank,
        "fidelity": fid,
        "out": args.out,
    }


def cmd_psdrank(args) -> dict:
    dist = io.load_dist(args.dist, renormalize=args.renormalize)
    cfg = _solver_config(args)
    report = psd_rank_search(dist, cfg)
    if args.witness_out and report.witness is not None:
        io.save(args.witness_out, report.witness)
    return {
        "config": _config_block(args, ["tol", "starts", "seed", "renormalize"]),
        "lower": report.lower,
        "upper": report.upper,
        "status": report.status,
        "lower_by": report.lower_by,
        "qubits": ceil_log2(report.upper),
        # Informational alternative seed-qubit lower bound via the rank of P
        # at tol.
        "quarter_log2_rank": 0.25 * float(np.log2(max(rank_at_tol(dist, cfg.tol), 1))),
        "residual": report.witness.residual if report.witness else None,
        "witness_out": args.witness_out,
    }


def cmd_nnrank(args) -> dict:
    dist = io.load_dist(args.dist, renormalize=args.renormalize)
    report = nonneg_rank_bounds(dist, _solver_config(args))
    return {
        "config": _config_block(args, ["tol", "starts", "seed", "renormalize"]),
        "lower": report.lower,
        "upper": report.upper,
        "status": report.status,
        "lower_by": report.lower_by,
        "bits": ceil_log2(report.upper),
    }


def cmd_synth(args) -> dict:
    require_eps(args.eps)  # before the search, which can take seconds
    dist = io.load_dist(args.dist, renormalize=args.renormalize)
    cfg = _solver_config(args)  # checked even when --factors skips the search
    factors = (_load(args.factors, PsdFactorization, "a psd factorization") if args.factors
               else psd_rank_search(dist, cfg).witness)
    purif = synth_from_psd(dist, factors)
    spec = protocol_from_purification(purif, eps=args.eps)
    if args.out_state:
        io.save(args.out_state, purif.to_state())
    if args.out_protocol:
        io.save(args.out_protocol, spec)
    return {
        "config": _config_block(
            args, ["eps", "tol", "starts", "seed", "renormalize"]
        ),
        "r": factors.r,
        "residual": factors.residual,
        "seed_qubits": spec.seed_size_qubits,
        "out_state": args.out_state,
        "out_protocol": args.out_protocol,
    }


def cmd_extract(args) -> dict:
    state = _load_register_state(args.state)
    if args.mode == "psd":
        fact = gram_extract(state)
        result: dict = {"r": fact.r, "residual": fact.residual}
        payload = fact
    else:
        fact = factor_from_purification(Purification.from_state(state))
        result = {"r": fact.r}
        payload = fact
    if args.out:
        io.save(args.out, payload)
    result["config"] = _config_block(args, ["mode"])
    result["out"] = args.out
    return result


def cmd_reconstruct(args) -> dict:
    fact = _load(args.factors, GeneralFactorization, "a general factorization")
    rho = reconstruct_from_factors(fact)
    if args.out:
        io.save(args.out, rho)
    return {
        "config": _config_block(args, []),
        "dim_a": rho.dim_a,
        "dim_b": rho.dim_b,
        "trace": float(np.trace(rho.mat).real),
        "qubits_upper": ceil_log2(fact.r),
        "out": args.out,
    }


def cmd_simulate(args) -> dict:
    spec = _load(args.protocol, ProtocolSpec, "a protocol")
    rho = apply_protocol(spec)
    dist = measure_computational(rho)
    if args.out:
        io.save(args.out, rho)
    return {
        "config": _config_block(args, []),
        "dim_a": rho.dim_a,
        "dim_b": rho.dim_b,
        "distribution": [[float(v) for v in row] for row in dist.p],
        "out": args.out,
    }


def cmd_verify(args) -> dict:
    spec = _load(args.protocol, ProtocolSpec, "a protocol")
    report = verify_generation(spec)
    return {
        "config": _config_block(args, []),
        "fidelity": report.fidelity,
        "pass": report.passed,
        "seed_size": report.seed_size,
        "eps": spec.eps,
    }


def _finite(text: str) -> float:
    """argparse type of ``--eps``: a finite float, so that NaN and infinities
    exit 2 before any work, and no report or file carries a non-JSON number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _add_solver_flags(sub) -> None:
    sub.add_argument("--tol", type=float, default=DEFAULT_CONFIG.tol,
                     help="solver success tolerance on the Frobenius residual")
    sub.add_argument("--starts", type=int, default=DEFAULT_CONFIG.starts,
                     help="number of random multi-starts")
    sub.add_argument("--seed", type=int, default=DEFAULT_CONFIG.seed,
                     help="seed driving all solver randomness")
    sub.add_argument("--renormalize", action="store_true",
                     help="rescale a distribution that does not sum to 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcorr",
        description="Seed-size complexity of generating bipartite states.",
    )
    parser.add_argument("--json", action="store_true",
                        help="emit the report as deterministic JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schmidt", help="Schmidt decomposition of a pure state")
    p.add_argument("--state", required=True)
    p.set_defaults(func=cmd_schmidt)

    p = sub.add_parser("qeps", help="seed qubits needed at fidelity 1 - eps")
    p.add_argument("--state", required=True)
    p.add_argument("--eps", type=_finite, required=True)
    p.set_defaults(func=cmd_qeps)

    p = sub.add_parser("approx", help="emit the optimal low-rank approximant")
    p.add_argument("--state", required=True)
    p.add_argument("--eps", type=_finite, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("psdrank", help="bracket the psd-rank of a distribution")
    p.add_argument("--dist", required=True)
    p.add_argument("--witness-out", dest="witness_out")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_psdrank)

    p = sub.add_parser("nnrank", help="bracket the nonnegative rank")
    p.add_argument("--dist", required=True)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_nnrank)

    p = sub.add_parser("synth",
                       help="synthesize a purification and protocol from a "
                            "psd factorization")
    p.add_argument("--dist", required=True)
    p.add_argument("--factors", help="factorization manifest; searched if omitted")
    p.add_argument("--eps", type=_finite, default=0.0)
    p.add_argument("--out-state", dest="out_state")
    p.add_argument("--out-protocol", dest="out_protocol")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="read a factorization off a purification")
    p.add_argument("--state", required=True)
    p.add_argument("--mode", choices=("psd", "general"), default="general")
    p.add_argument("--out")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("reconstruct", help="density matrix from a factorization")
    p.add_argument("--factors", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("simulate", help="run a protocol and measure")
    p.add_argument("--protocol", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="judge a protocol against its target")
    p.add_argument("--protocol", required=True)
    p.set_defaults(func=cmd_verify)

    return parser


def _emit_text(report: dict, indent: int = 0) -> None:
    pad = " " * indent
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _emit_text(value, indent + 2)
        elif isinstance(value, list):
            print(f"{pad}{key}: {json.dumps(value)}")
        else:
            print(f"{pad}{key}: {value}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        report = {"format": FORMAT, "command": args.command, **args.func(args)}
        if args.json:
            # Strict JSON: a NaN or infinity in a report is an internal failure.
            text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except QcorrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(text)
    else:
        _emit_text(report)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
