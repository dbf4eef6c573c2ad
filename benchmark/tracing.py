"""Spans around the package's public functions, installed from outside.

`Tracer.install` wraps every public function of the package's modules,
the public methods of `TraceFunctional`, and `np.linalg.eigh` / `svd`. A
wrapper is patched into the defining module and into every module (or
module-level dict) that holds the same function object, so names imported
with `from .linalg import eigensystem` are traced too. Nothing under
`src/` is edited; `uninstall` puts every original back.

Spans are kept in flat arrays (name, start, end, parent, op id, dim) and
written out once with `save`. Per-layer metrics are derived from them
afterwards: counts, inclusive times, and self times (a span's duration
minus the part its child spans cover).
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import re
import time
import types
from array import array

import numpy as np

LAYERS = ("linalg", "divergences", "analysis", "suites", "states", "cli", "matrixio")
TRACED_METHODS = {("analysis", "TraceFunctional"): ("value", "divergence",
                                                   "relative_entropy", "variance")}
# divergence entry points whose self time is reported per dimension bucket
DIM_FUNCTIONS = ("alpha_z_trace", "alpha_z_divergence", "petz_divergence",
                 "sandwiched_divergence", "relative_entropy")
DIM_BUCKETS = (2, 4, 8, 16)
SUITES = ("limits", "derivatives", "monotonicity", "example1", "dpi",
          "classical", "invariants")


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("i")
        self.dim = array("h")
        self._stack = [-1]
        self.op_id = -1  # -1 marks work outside a measured op
        self.eigh_operators: dict[int, set] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, *, with_dim: bool = False, digest: bool = False):
        nid = self._name_id(name)
        t = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(t.start)
            t.name.append(nid)
            t.parent.append(t._stack[-1])
            t.op.append(t.op_id)
            t.dim.append(_first_dim(args) if with_dim else 0)
            t.end.append(0)
            if digest and t.op_id >= 0 and args:
                key = hashlib.blake2b(np.ascontiguousarray(args[0]).tobytes(),
                                      digest_size=16).digest()
                t.eigh_operators.setdefault(t.op_id, set()).add(key)
            t._stack.append(i)
            t.start.append(time.perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                t.end[i] = time.perf_counter_ns()
                t._stack.pop()

        return wrapper

    def install(self) -> None:
        import alphaz

        modules = [importlib.import_module(f"alphaz.{layer}") for layer in LAYERS]
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__):
                    continue
                with_dim = layer == "divergences" and attr in DIM_FUNCTIONS
                wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj,
                                                    with_dim=with_dim))
        for (layer, cls_name), methods in TRACED_METHODS.items():
            cls = getattr(importlib.import_module(f"alphaz.{layer}"), cls_name)
            for m in methods:
                self._set(cls, m, self.wrap(f"{layer}.{cls_name}.{m}", getattr(cls, m)))
        self._set(np.linalg, "eigh", self.wrap("numpy.eigh", np.linalg.eigh, digest=True))
        self._set(np.linalg, "svd", self.wrap("numpy.svd", np.linalg.svd))
        for mod in [alphaz] + modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._set(mod, attr, wrappers[id(obj)][1])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            self._set(obj, key, wrappers[id(value)][1])

    def _set(self, container, key, value) -> None:
        if isinstance(container, dict):
            self._patched.append((container, key, container[key]))
            container[key] = value
        else:
            self._patched.append((container, key, getattr(container, key)))
            setattr(container, key, value)

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patched):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patched.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "dim": np.frombuffer(self.dim, dtype=np.int16).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, n_ops: int, n_inputs: int,
                      values_per_op: float) -> dict[str, tuple[float, str]]:
        """Per-op counts and times, and per-call self times, over the spans
        recorded while ops ran, each with its unit. states.generate_ms is
        per input made while tracing, inside ops or in their input batches
        (n_inputs)."""
        s = self.arrays()
        names = np.array(self.names + ["<none>"])
        name = s["name"]
        dur = (s["end"] - s["start"]).astype(float)
        parent = s["parent"]
        has_parent = parent >= 0
        child = np.zeros(dur.size)
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        in_op = s["op"] >= 0
        layer = np.array([n.split(".")[0] for n in names])
        span_layer = layer[name]
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], len(self.names))
        outermost = span_layer != layer[parent_name]

        def ids(*full):
            return [self._ids[n] for n in full if n in self._ids]

        def sel(*full):
            return np.isin(name, ids(*full)) & in_op

        def per_op(x):
            return float(x) / n_ops

        def per_call_us(m):
            return float(own[m].sum() / m.sum() / 1e3) if m.any() else 0.0

        out: dict[str, float] = {}
        eigh = sel("numpy.eigh")
        out["linalg.eigh_calls"] = per_op(eigh.sum())
        out["linalg.svd_calls"] = per_op(sel("numpy.svd").sum())
        distinct = sum(len(v) for v in self.eigh_operators.values())
        out["linalg.eigh_per_operator"] = float(eigh.sum() / distinct) if distinct else 0.0
        out["linalg.lapack_ms"] = per_op(dur[sel("numpy.eigh", "numpy.svd")].sum() / 1e6)
        out["linalg.zero_cutoff_calls"] = per_op(sel("linalg.zero_cutoff").sum())
        out["linalg.eigensystem_us"] = per_call_us(sel("linalg.eigensystem"))
        out["linalg.support_us"] = per_call_us(sel("linalg.support"))
        dims = s["dim"]
        for fn in DIM_FUNCTIONS:
            m = sel(f"divergences.{fn}")
            # each bucket holds the dims above the previous one (d3 -> d4)
            for lo, b in zip((0,) + DIM_BUCKETS[:-1], DIM_BUCKETS):
                bucket = m & (dims > lo) & (dims <= b)
                out[f"divergences.{fn}_us.d{b}"] = per_call_us(bucket)
        dual = sel("divergences.petz_divergence", "divergences.sandwiched_divergence")
        azd = sel("divergences.alpha_z_divergence") & has_parent
        azd_under_dual = np.zeros(dur.size)
        azd &= dual[np.maximum(parent, 0)]
        np.add.at(azd_under_dual, parent[azd], dur[azd])
        out["divergences.dual_check_ms"] = per_op((dur[dual] - azd_under_dual[dual]).sum() / 1e6)
        checks = sel("divergences.check_density", "divergences.check_reference").sum()
        out["divergences.validations_per_value"] = float(checks / (n_ops * values_per_op))
        out["analysis.sweep_ms"] = per_op(dur[sel("analysis.sweep")].sum() / 1e6)
        out["analysis.trace_functional_calls"] = per_op(
            sel("analysis.TraceFunctional.value", "analysis.TraceFunctional.divergence").sum())
        verify = np.isin(name, [i for n, i in self._ids.items()
                                if n.startswith("analysis.verify_")]) & in_op
        out["analysis.verify_ms"] = per_op(own[verify].sum() / 1e6)
        for suite in SUITES:
            out[f"suites.{suite}_ms"] = per_op(dur[sel(f"suites.suite_{suite}")].sum() / 1e6)
        states_spans = (span_layer == "states") & outermost
        out["states.generate_ms"] = float(dur[states_spans].sum() / 1e6 / n_inputs)
        matrixio = (span_layer == "matrixio") & outermost & in_op
        out["matrixio.load_ms"] = per_op(dur[matrixio].sum() / 1e6)
        out["cli.self_ms"] = per_op(own[(span_layer == "cli") & in_op].sum() / 1e6)
        return {k: (v, unit_of(k)) for k, v in out.items()}

    def calls_per_entry(self) -> dict[str, list[list[int]]]:
        """[eigh, svd, ops] for each distinct (eigh, svd) count per op,
        grouped by the package function the op entered first, most common
        first. One function has several counts when the support class or
        alpha picks its path (a Petz call on a violating pair returns inf
        before the self-check)."""
        s = self.arrays()
        ops = s["op"]
        roots = (s["parent"] < 0) & (ops >= 0)
        entry = dict(zip(ops[roots].tolist(), s["name"][roots].tolist()))
        n = max(entry, default=-1) + 1

        def per_op(name):
            m = (s["name"] == self._ids.get(name, -1)) & (ops >= 0)
            return np.bincount(ops[m], minlength=n)

        eigh, svd = per_op("numpy.eigh"), per_op("numpy.svd")
        groups: dict[str, dict] = {}
        for op, nid in entry.items():
            g = groups.setdefault(self.names[nid], {})
            key = (int(eigh[op]), int(svd[op]))
            g[key] = g.get(key, 0) + 1
        return {fn: [[e, v, n] for (e, v), n in sorted(g.items(), key=lambda kv: -kv[1])]
                for fn, g in groups.items()}


def unit_of(metric: str) -> str:
    """Unit from the metric's name suffix (a trailing .dN bucket aside)."""
    base = re.sub(r"\.d\d+$", "", metric)
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_calls", "count")):
        if base.endswith(suffix):
            return unit
    return "ratio"


def _first_dim(args) -> int:
    shape = getattr(args[0], "shape", ()) if args else ()
    return int(shape[0]) if shape else 0
