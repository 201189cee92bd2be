"""Spans around calls into the brqst layers, recorded from the benchmark side.

A traced run replaces selected module attributes of ``brqst.experiments`` and
``brqst.cli`` with thin wrappers that open a span named after the layer
(``estimators.ls``, ``povm.build``, ``io.dump``, ...), and replaces
``numpy.linalg.eigh`` / ``numpy.linalg.solve`` with counters that charge their
calls and time to the innermost open span.  Nothing inside ``src/`` is
edited.  Spans stay in memory and are written out once, when the run ends.

This module imports numpy lazily so that the CLI shim can time the import of
``brqst.cli`` (numpy included) inside its own span.
"""

from __future__ import annotations

import json
import time

# Library names wrapped in each module namespace, and the layer each belongs to.
# A name missing from a module (renamed or removed by a later change) makes
# the traced run fail.
LAYER_OF = {
    "brqst.experiments": {
        "run_robustness_sweep": "experiments.sweep",
        "run_strictness_sweep": "experiments.sweep",
        "estimate_ls": "estimators.ls",
        "estimate_trace_min": "estimators.trace",
        "estimate_mle": "estimators.mle",
        "measurement_for": "povm.build",
        "bases_to_povm": "povm.build",
        "simulate_counts": "experiments.counts",
        "fidelity_pure": "linalg.fidelity",
        "infidelity": "linalg.fidelity",
        "write_csv": "io.dump",
        "write_json": "io.dump",
    },
    "brqst.io": {
        "load_json": "io.load",
    },
    "brqst.cli": {
        "estimate_ls": "estimators.ls",
        "estimate_trace_min": "estimators.trace",
        "estimate_mle": "estimators.mle",
        "bases_to_povm": "povm.build",
        "build_goyeneche_bases": "povm.build",
        "build_random_bases": "povm.build",
        "simulate_counts": "experiments.counts",
        "extract_goyeneche": "completion.complete",
        "extract_flammia": "completion.complete",
        "complete_rankr": "completion.complete",
        "dump_json": "io.dump",
        "basis_set_to_dict": "io.dump",
        "record_to_dict": "io.dump",
        "state_to_dict": "io.dump",
        "report_to_dict": "io.dump",
        "load_artifact": "io.load",
        "load_json": "io.load",
    },
}

KERNELS = ("eigh", "solve")


class Span:
    __slots__ = ("sid", "parent", "name", "round", "t0", "t1", "counts")

    def __init__(self, sid, parent, name, rnd, t0):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.round = rnd
        self.t0 = t0
        self.t1 = t0
        self.counts = {}

    def as_dict(self) -> dict:
        return {"id": self.sid, "parent": self.parent, "name": self.name,
                "round": self.round, "t0": self.t0, "t1": self.t1,
                "counts": self.counts}


class Tracer:
    """In-memory span recorder with per-span kernel counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.round = 0
        self._undo: list[tuple] = []

    def open(self, name: str) -> Span:
        parent = self.stack[-1].sid if self.stack else None
        span = Span(len(self.spans), parent, name, self.round, time.perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span):
        span.t1 = time.perf_counter()
        self.stack.pop()

    def add_foreign(self, records: list[dict], parent: Span):
        """Adopt spans recorded by a child process under ``parent``."""
        offset = len(self.spans)
        for rec in records:
            span = Span(offset + rec["id"],
                        parent.sid if rec["parent"] is None else offset + rec["parent"],
                        rec["name"], self.round, rec["t0"])
            span.t1 = rec["t1"]
            span.counts = rec["counts"]
            self.spans.append(span)

    # -- wrappers ---------------------------------------------------------

    def wrap(self, layer: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            iterations = getattr(out, "iterations", None)
            if iterations is not None:
                span.counts["iterations"] = iterations
            return out

        traced.__wrapped__ = fn
        return traced

    def kernel(self, kind: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if tracer.stack:
                    c = tracer.stack[-1].counts
                    c[kind + "_calls"] = c.get(kind + "_calls", 0) + 1
                    c[kind + "_s"] = c.get(kind + "_s", 0.0) + time.perf_counter() - t0

        counted.__wrapped__ = fn
        return counted

    def _patch(self, owner, attr: str, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, module_names):
        """Wrap the layer calls seen from ``module_names`` plus numpy kernels."""
        import importlib

        import numpy as np

        from brqst import rng

        for mod_name in module_names:
            module = importlib.import_module(mod_name)
            for attr, layer in LAYER_OF[mod_name].items():
                self._patch(module, attr, self.wrap(layer, getattr(module, attr)))
        for kind in KERNELS:
            self._patch(np.linalg, kind, self.kernel(kind, getattr(np.linalg, kind)))
        tracer = self
        plain_generator = rng.RandomStream.generator

        def generator(stream):
            return _TimedGenerator(plain_generator(stream), tracer)

        self._patch(rng.RandomStream, "generator", generator)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path, extra: dict | None = None):
        payload = {"spans": [s.as_dict() for s in self.spans]}
        if extra:
            payload.update(extra)
        with open(path, "w") as fh:
            json.dump(payload, fh)


class _TimedGenerator:
    """numpy Generator proxy that spans multinomial draws as count simulation."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def multinomial(self, *args, **kwargs):
        span = self._tracer.open("experiments.counts")
        try:
            return self._gen.multinomial(*args, **kwargs)
        finally:
            self._tracer.close(span)

    def __getattr__(self, name):
        return getattr(self._gen, name)


# ---------------------------------------------------------------------------
# Aggregation into per-layer metrics
# ---------------------------------------------------------------------------

ESTIMATORS = ("ls", "trace", "mle")


def _layer(name: str) -> str:
    return name.split(".")[0]


def layer_summary(spans: list[Span], rounds: int) -> dict:
    """Per-layer metrics from the spans of ``rounds`` traced rounds.

    Times of a layer count only its outermost spans (a ``povm.build`` inside
    a ``povm.build`` is not counted twice).  Self time is a span's duration
    minus its child spans; ``estimators.self_s`` also takes out the numpy
    kernels, which leaves the Python overhead around them.
    """
    by_id = {s.sid: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.t1 - s.t0)

    def outermost(s: Span) -> bool:
        p = s.parent
        while p is not None:
            if by_id[p].name == s.name:
                return False
            p = by_id[p].parent
        return True

    def self_time(s: Span) -> float:
        return (s.t1 - s.t0) - child_time.get(s.sid, 0.0)

    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    selfs: dict[str, float] = {}
    sweep_self = 0.0
    per_est = {e: {"n": 0, "s": 0.0, "iters": 0, "eigh_calls": 0, "solve_calls": 0,
                   "eigh_s": 0.0, "solve_s": 0.0} for e in ESTIMATORS}
    for s in spans:
        selfs[_layer(s.name)] = selfs.get(_layer(s.name), 0.0) + self_time(s)
        if s.name == "experiments.sweep":
            sweep_self += self_time(s)
        if not outermost(s):
            continue
        total[s.name] = total.get(s.name, 0.0) + (s.t1 - s.t0)
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.name.startswith("estimators."):
            acc = per_est[s.name.split(".", 1)[1]]
            acc["n"] += 1
            acc["s"] += s.t1 - s.t0
            acc["iters"] += s.counts.get("iterations", 0)
            for k in ("eigh_calls", "solve_calls", "eigh_s", "solve_s"):
                acc[k] += s.counts.get(k, 0)

    def per_call(acc, key):
        return acc[key] / acc["n"] if acc["n"] else 0.0

    rounds = max(rounds, 1)
    out: dict[str, tuple[float, str]] = {}
    for e in ESTIMATORS:
        acc = per_est[e]
        out[f"estimators.{e}_s"] = (per_call(acc, "s"), "s")
        out[f"estimators.{e}_iters"] = (per_call(acc, "iters"), "count")
        out[f"estimators.{e}_eigh_calls"] = (per_call(acc, "eigh_calls"), "count")
        out[f"estimators.{e}_solve_calls"] = (per_call(acc, "solve_calls"), "count")
    n_est = sum(per_est[e]["n"] for e in ESTIMATORS)
    est_s = sum(per_est[e]["s"] for e in ESTIMATORS)
    eigh_s = sum(per_est[e]["eigh_s"] for e in ESTIMATORS)
    solve_s = sum(per_est[e]["solve_s"] for e in ESTIMATORS)
    out["estimators.eigh_s"] = (eigh_s / n_est if n_est else 0.0, "s")
    out["estimators.self_s"] = ((est_s - eigh_s - solve_s) / n_est if n_est else 0.0, "s")
    builds = calls.get("povm.build", 0)
    out["povm.build_s"] = (total.get("povm.build", 0.0) / builds if builds else 0.0, "s")
    out["povm.builds"] = (builds / rounds, "count")
    out["experiments.counts_s"] = (total.get("experiments.counts", 0.0) / rounds, "s")
    out["experiments.self_s"] = (sweep_self / rounds, "s")
    out["completion.complete_s"] = (total.get("completion.complete", 0.0) / rounds, "s")
    out["linalg.fidelity_s"] = (total.get("linalg.fidelity", 0.0) / rounds, "s")
    out["io.dump_s"] = (total.get("io.dump", 0.0) / rounds, "s")
    out["io.load_s"] = (total.get("io.load", 0.0) / rounds, "s")
    commands = calls.get("cli.command", 0)
    out["cli.import_s"] = (total.get("cli.import", 0.0) / commands if commands else 0.0, "s")
    out["cli.command_s"] = (total.get("cli.command", 0.0) / commands if commands else 0.0, "s")
    return {"metrics": out, "layer_totals_s": total, "layer_calls": calls,
            "layer_self_s": selfs}
