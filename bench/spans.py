"""Per-layer tracing from outside the package.

While a Tracer is entered, every public function of each layer module is
replaced by a wrapper that records a span (name, start, end, parent), in every
module namespace that holds it, the names `cli` imported included; leaving the
Tracer puts the originals back. `cli._fmt` is wrapped too, as `cli.format`,
because per-value formatting is the cli layer's hot spot.

Counts (calls, self time) are aggregated as spans close, so a long run keeps
bounded memory; the first SPAN_CAP raw spans stay in memory and are written
out at the end. A few wrappers also add counts computed from array sizes; that
arithmetic runs in a `bench.count` span so it is not billed to any layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np
from scipy.special import gammaln

LAYERS = ("spin_core", "state_prep", "evolution", "observables", "entanglement",
          "asymptotics", "oracle", "cli")
CLOSED = ("entanglement.purity_coherent_closed", "entanglement.purity_uniform_closed")
HOT = {
    "evolution.evolve_product": ("evolution.evolve_product",),
    "entanglement.reduced_density": ("entanglement.reduced_density",),
    "entanglement.purity": ("entanglement.purity",),
    "entanglement.closed": CLOSED,
    "observables.f_general": ("observables.f_general",),
    "cli.format": ("cli.format",),
}
SPAN_CAP = 100_000
_COUNT_SPAN = "bench.count"


class Tracer:
    def __init__(self) -> None:
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack: list[list[int]] = []  # [name id, start ns, child ns, raw index]
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.self_ns: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._raw_name = array("i")
        self._raw_parent = array("i")
        self._raw_start = array("q")
        self._raw_end = array("q")
        self._patched: list[tuple[object, str, object]] = []
        self._log_weights: tuple[int, np.ndarray] = (-1, np.empty(0))

    # -- span bookkeeping ------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def _enter(self, nid: int) -> None:
        start = time.perf_counter_ns()
        raw = len(self._raw_start)
        if raw < SPAN_CAP:
            self._raw_name.append(nid)
            self._raw_parent.append(self._stack[-1][3] if self._stack else -1)
            self._raw_start.append(start)
            self._raw_end.append(0)
        else:
            raw = -1
        self._stack.append([nid, start, 0, raw])

    def _exit(self) -> None:
        end = time.perf_counter_ns()
        nid, start, child, raw = self._stack.pop()
        dur = end - start
        name = self._names[nid]
        self.calls[name] += 1
        self.self_ns[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if raw >= 0:
            self._raw_end[raw] = end

    def _wrap(self, fn, name: str, counter=None):
        nid, count_id = self._id(name), self._id(_COUNT_SPAN)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if counter is not None:
                self._enter(count_id)
                try:
                    counter(signature.bind(*args, **kwargs).arguments, result)
                finally:
                    self._exit()
            return result

        return wrapper

    # -- install / restore -----------------------------------------------

    def __enter__(self) -> Tracer:
        modules = {layer: importlib.import_module(f"quditpair.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    wrappers[id(fn)] = self._wrap(fn, name, self._counter(name))
        fmt = modules["cli"]._fmt
        wrappers[id(fmt)] = self._wrap(fmt, "cli.format")
        for mod in (importlib.import_module("quditpair"), *modules.values()):
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        self._stack.clear()

    # -- counts computed from array sizes --------------------------------

    def _counter(self, name: str):
        if name in ("evolution.evolve_product", "evolution.evolve_joint"):
            return self._count_bytes
        if name == "entanglement.reduced_density":
            return self._count_flops
        if name == "entanglement.purity_coherent_closed":
            return self._count_coherent_terms
        if name == "entanglement.purity_uniform_closed":
            return self._count_uniform_terms
        return None

    def _count_bytes(self, args, result) -> None:
        # input and output amplitude arrays; temporaries and cache misses ignored
        inputs = [a.amps.nbytes for a in args.values() if hasattr(a, "amps")]
        self.counts["evolution.bytes_computed"] += sum(inputs) + result.amps.nbytes

    def _count_flops(self, args, result) -> None:
        # complex d x d times d x d product: d^3 multiply-adds of 8 real flops
        d = result.s.d
        self.counts["entanglement.reduced_density.flops_computed"] += 8 * d**3

    def _count_terms(self, terms: np.ndarray) -> None:
        self.counts["entanglement.closed.terms"] += terms.size
        self.counts["entanglement.closed.nonzero"] += np.count_nonzero(terms)

    def _count_coherent_terms(self, args, result) -> None:
        # terms C(4S, 2S+M) 2^-4S cos(M tau / 2S)^4S, M = 1..2S, in float64
        two_s, tau = args["s"].two_s, args["tau"]
        if self._log_weights[0] != two_s:
            mm = np.arange(1, two_s + 1)
            four_s = 2 * two_s
            logw = gammaln(four_s + 1) - gammaln(two_s + mm + 1) - gammaln(two_s - mm + 1)
            self._log_weights = (two_s, logw - four_s * math.log(2.0))
        logw = self._log_weights[1]
        c = np.abs(np.cos(np.arange(1, two_s + 1) * (tau / two_s)))
        with np.errstate(divide="ignore"):
            self._count_terms(np.exp(logw + 2 * two_s * np.log(c)))

    def _count_uniform_terms(self, args, result) -> None:
        # terms (d - M) [sin(d y / 2) / sin(y / 2)]^2, y = M tau / S, in float64
        s, tau = args["s"], args["tau"]
        d = s.d
        half = np.arange(1, d) * (tau / s.two_s)
        den = np.sin(half)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(den == 0.0, float(d * d), (np.sin(d * half) / den) ** 2)
        self._count_terms((d - np.arange(1, d)) * ratio)

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer calls, self time and share, hot-function self times, counts."""
        layer_ns = {layer: 0 for layer in LAYERS}
        layer_calls = {layer: 0 for layer in LAYERS}
        for name, ns in self.self_ns.items():
            layer = name.split(".")[0]
            if layer in layer_ns:
                layer_ns[layer] += ns
                layer_calls[layer] += self.calls[name]
        total = sum(layer_ns.values()) or 1
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = layer_calls[layer]
            out[f"{layer}.self_s"] = layer_ns[layer] / 1e9
            out[f"{layer}.share"] = layer_ns[layer] / total
        for hot, names in HOT.items():
            out[f"{hot}.self_s"] = sum(self.self_ns.get(n, 0) for n in names) / 1e9
        terms = self.counts["entanglement.closed.terms"]
        out["evolution.bytes_computed"] = self.counts["evolution.bytes_computed"]
        out["entanglement.reduced_density.flops_computed"] = self.counts[
            "entanglement.reduced_density.flops_computed"]
        out["entanglement.closed.terms"] = terms
        out["entanglement.closed.useful_ratio"] = (
            self.counts["entanglement.closed.nonzero"] / terms if terms else 0.0)
        return out

    def write(self, path: Path) -> None:
        """Write the retained raw spans as JSON: names, then [name, start, end, parent]."""
        spans = [
            [self._raw_name[i], self._raw_start[i], self._raw_end[i], self._raw_parent[i]]
            for i in range(len(self._raw_start))
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self._names, "span_cap": SPAN_CAP, "spans": spans}, fh)
