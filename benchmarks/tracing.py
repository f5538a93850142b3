"""Spans around the public qcorr functions, recorded from outside the package.

``Tracer.installed()`` replaces each function on the module where its
callers look it up (``psd_rank_search`` finds ``psd_fit`` in the globals
of ``qcorr.classical``; ``verify_generation`` finds ``fidelity`` in
``qcorr.sim``), and puts the originals back on exit. Spans stay in
memory; ``layer_metrics`` turns one pass's spans into per-layer numbers.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field

import numpy as np

from qcorr import classical, linalg, pure, sim


@dataclass
class Span:
    """One wrapped call. [start, end] times the function itself; [enter,
    leave] times the whole wrapper, so the rest is the tracing cost."""

    name: str
    parent: int | None
    instance: int
    enter: float
    start: float = 0.0
    end: float = 0.0
    leave: float = 0.0
    counts: dict = field(default_factory=dict)


def _fit_counts(args, kwargs, result) -> dict:
    return {"useful": int(result.residual < classical.DEFAULT_CONFIG.tol)}


def _cut_entries(args, kwargs, result) -> dict:
    # Computed from the array size: entries of the Alice|Bob cut matrix.
    return {"cut_entries": int(args[0].amps.size)}


def _kraus_pairs(args, kwargs, result) -> dict:
    """Kraus pairs, and those where neither operator is padding.

    Computed from array contents: a padding operator acts only on seed
    basis states outside the support of the seed marginal, so every pair
    that holds one adds nothing to the output.
    """
    spec = args[0]
    if isinstance(spec.seed, pure.PureState):
        amp = spec.seed.amps.reshape(spec.seed.dim_a, spec.seed.dim_b)
        weight_a = (np.abs(amp) ** 2).sum(axis=1)
        weight_b = (np.abs(amp) ** 2).sum(axis=0)
    else:
        mat = spec.seed.mat.reshape(spec.seed.dim_a, spec.seed.dim_b,
                                    spec.seed.dim_a, spec.seed.dim_b)
        weight_a = np.einsum("xyxy->x", mat).real
        weight_b = np.einsum("xyxy->y", mat).real

    def acting(kraus, weight) -> int:
        support = weight > 1e-14
        return sum(bool(np.any(k[:, support])) for k in kraus)

    return {"kraus_pairs": len(spec.alice.kraus) * len(spec.bob.kraus),
            "useful_pairs": acting(spec.alice.kraus, weight_a)
            * acting(spec.bob.kraus, weight_b)}


#: (module, attribute, span name, counter). A function reachable under two
#: module names is wrapped on both, under one span name.
TARGETS = (
    (classical, "psd_rank_search", "classical.psd_rank_search", None),
    (classical, "psd_rank_lower_bound", "classical.psd_rank_lower_bound", None),
    (classical, "psd_fit", "classical.psd_fit", _fit_counts),
    (classical, "nonneg_rank_bounds", "classical.nonneg_rank_bounds", None),
    (classical, "synth_from_psd", "classical.synth_from_psd", None),
    (classical, "gram_extract", "classical.gram_extract", _cut_entries),
    (sim, "protocol_from_purification", "sim.protocol_from_purification", _cut_entries),
    (sim, "apply_protocol", "sim.apply_protocol", _kraus_pairs),
    (sim, "verify_generation", "sim.verify_generation", None),
    (sim, "measure_computational", "sim.measure_computational", None),
    (sim, "synth_pure_protocol", "sim.synth_pure_protocol", None),
    (sim, "fidelity", "linalg.fidelity", None),
    (linalg, "fidelity", "linalg.fidelity", None),
    (pure, "srank_eps", "pure.srank_eps", None),
    (sim, "srank_eps", "pure.srank_eps", None),
    (pure, "build_approximant", "pure.build_approximant", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))


class Tracer:
    """Records one span per wrapped call: name, parent span, instance, times."""

    def __init__(self):
        self.spans: list[Span] = []
        self.instance = -1
        self._stack: list[int] = []

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = time.perf_counter()
            span = Span(name, self._stack[-1] if self._stack else None,
                        self.instance, enter)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = span.leave = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            span.leave = time.perf_counter()
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name, counter in TARGETS:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, counter))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers of one pass. Self time is a span's duration minus
    the time its child wrappers cover; a layer never called reads 0.
    ``trace.overhead_s`` is the time spent in the wrappers themselves."""
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    overhead = 0.0
    for span in spans:
        self_s[span.name] += span.end - span.start
        calls[span.name] += 1
        overhead += (span.leave - span.enter) - (span.end - span.start)
        if span.parent is not None:
            self_s[spans[span.parent].name] -= span.leave - span.enter

    def total(name: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    fits = [s for s in spans if s.name == "classical.psd_fit"]
    pairs = total("sim.apply_protocol", "kraus_pairs")
    out = {f"{name}.self_s": self_s[name] for name in SPAN_NAMES}
    out.update({
        "classical.psd_fit.calls": calls["classical.psd_fit"],
        "classical.psd_fit.useful_share":
            sum(s.counts.get("useful", 0) for s in fits) / len(fits) if fits else 0.0,
        "classical.psd_fit.wasted_s":
            sum(s.end - s.start for s in fits if not s.counts.get("useful", 0)),
        "classical.psd_rank_lower_bound.calls": calls["classical.psd_rank_lower_bound"],
        "classical.gram_extract.cut_entries": total("classical.gram_extract", "cut_entries"),
        "sim.protocol_from_purification.cut_entries":
            total("sim.protocol_from_purification", "cut_entries"),
        "sim.apply_protocol.kraus_pairs": pairs,
        "sim.apply_protocol.useful_pair_share":
            total("sim.apply_protocol", "useful_pairs") / pairs if pairs else 0.0,
        "linalg.fidelity.calls": calls["linalg.fidelity"],
        "trace.overhead_s": overhead,
    })
    return out
