"""qcorr benchmark: one workload, closed loop, one caller, one process.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload classical-bracket --seed 1 --seconds 36 --trace 0

The run imports qcorr from ``src/`` of the checkout, builds the workload's
inputs from ``--seed``, and repeats the workload's instance list (one
pass) while another pass still fits in ``--seconds``, each instance
starting when the previous one returns. Every output is checked; a failed check or an
exception counts as a failed instance and the run goes on. With
``--trace 0`` a speed probe (``speed.py``) samples the CPU while the
passes run, and the last line holds the end-to-end metrics; with
``--trace 1`` each untraced pass is followed by a traced one and the last
line holds the per-layer metrics. See DESIGN.md for what each metric
should move.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Set to 1 before numpy loads, so BLAS and OpenMP use one thread each.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60

#: Metric names, units and directions, as BENCHMARK.json lists them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="seconds-long inputs, for the smoke test")
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print 'ready' and exit (times setup_s)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def load_qcorr():
    """Import qcorr from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import qcorr
    if Path(qcorr.__file__).resolve().parent != SRC / "qcorr":
        sys.exit(f"run.py: imported qcorr from {qcorr.__file__}, not from src/")


def prepare(args):
    """Everything setup_s covers after interpreter start."""
    load_qcorr()
    import workloads
    insts = workloads.instances(args.workload, args.seed, tiny=args.tiny)
    workloads.warm_up(args.workload)
    return insts


def run_pass(insts, tracer=None):
    """One closed-loop pass: returns ([seconds per instance], [(name, Answer or None)])."""
    times, results = [], []
    for i, inst in enumerate(insts):
        if tracer is not None:
            tracer.instance = i
        t0 = time.perf_counter()
        try:
            results.append((inst.name, inst.run()))
        except Exception as exc:  # one bad instance must not stop the run
            print(f"FAILED {inst.name}: {exc!r}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            results.append((inst.name, None))
        times.append(time.perf_counter() - t0)
    return times, results


def measure_setup(args):
    """Seconds from spawning a fresh process until it is ready to time.

    The probe prints the system-wide monotonic clock when it is ready, so
    its exit is not timed. A first, untimed probe writes the bytecode
    cache, so the timed ones read the same cache whatever ran before.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(1 + SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        word, _, ready = proc.stdout.partition(" ")
        if proc.returncode != 0 or word != "ready":
            raise RuntimeError(f"setup probe failed: {proc.stderr[-2000:]}")
        samples.append(float(ready) - t0)
    return samples[1:]


def environment(args):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "load": "closed loop, 1 caller, 1 process",
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(scaled, results, setup):
    answers = [a for _, a in results if a is not None]
    values = {
        "solve_s": statistics.median(scaled),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "certified_share":
            sum(a.certified for a in answers) / len(answers) if answers else 0.0,
        "bracket_width_mean":
            statistics.fmean(a.upper - a.lower + 1 for a in answers) if answers else 0.0,
    }
    return {k: metric(values[k], m["unit"]) for k, m in END_TO_END.items()}


def per_layer(layers):
    """Median over traced passes of each per-layer number."""
    return {k: metric(statistics.median(m[k] for m in layers), spec["unit"])
            for k, spec in PER_LAYER.items()}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "qcorr" / "__init__.py").is_file():
        sys.exit("run.py: no qcorr sources at src/qcorr; run from a full checkout")
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    if args.setup_probe:
        prepare(args)
        print(f"ready {time.monotonic()!r}", flush=True)
        return 0
    setup = [] if args.trace else measure_setup(args)
    insts = prepare(args)
    from speed import SpeedProbe
    from tracing import Tracer, layer_metrics

    print("env " + json.dumps(environment(args), sort_keys=True))
    results, plain, scaled, traced, layers = [], [], [], [], []
    with contextlib.ExitStack() as stack:
        # Traced passes report wall times, so only untraced runs are probed.
        probe = None if args.trace else stack.enter_context(SpeedProbe())
        start = time.perf_counter()
        last = 0.0  # a pass starts only if one more like the last still fits
        while not plain or time.perf_counter() - start + last <= args.seconds:
            begun = time.perf_counter()
            since = probe.mark() if probe else None
            times, res = run_pass(insts)
            if probe:
                scaled.append(probe.scaled(sum(times), since))
            plain.append(times)
            results += res
            if args.trace:
                tracer = Tracer()
                with tracer.installed():
                    times, res = run_pass(insts, tracer)
                traced.append(times)
                results += res
                layers.append(layer_metrics(tracer.spans))
            last = time.perf_counter() - begun
        elapsed = time.perf_counter() - start

    failed = sum(a is None for _, a in results)
    for name, ans in results[:len(insts)]:
        shown = "FAILED" if ans is None else (
            f"[{ans.lower}, {ans.upper}] {'certified' if ans.certified else 'heuristic'}")
        print(f"answer {name}: {shown}")
    sums = [sum(t) for t in plain]
    print(f"instances per pass {len(insts)}; {len(sums)} untraced passes, wall time: median "
          f"{statistics.median(sums):.4f} s, min {min(sums):.4f} s, "
          f"max {max(sums):.4f} s; each "
          + " ".join(f"{t:.4f}" for t in sums)
          + ("; traced " + " ".join(f"{sum(t):.4f}" for t in traced) if traced else ""))
    if probe:
        print(f"speed probe: {len(probe.samples)} samples, mean kernel "
              f"{statistics.fmean(probe.samples) * 1e3:.4f} ms, {probe.spent / elapsed:.2%} of "
              f"the run; passes at reference speed " + " ".join(f"{t:.4f}" for t in scaled))
    print(f"failed_share {failed / len(results):.6g} share (better: lower; "
          f"{failed} failed of {len(results)} attempted)")

    if args.trace:
        metrics = per_layer(layers)
        median_pass = statistics.median(sum(t) for t in traced)
        for key, m in metrics.items():
            share = (f"  {m['value'] / median_pass:6.1%} of the median traced pass"
                     if key.endswith("self_s") else "")
            print(f"layer {key} {m['value']:.6g} {m['unit']}{share}")
    else:
        metrics = end_to_end(scaled, results, setup)
        for key, m in metrics.items():
            print(f"metric {key} {m['value']:.6g} {m['unit']} (better: {END_TO_END[key]['better']})")
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
