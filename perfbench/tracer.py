"""In-process span tracer for tdcheck, installed from outside the package.

`Tracer.install` wraps the functions listed in TARGETS in every
tdcheck module namespace that holds them (names bound by `from ... import`
included), so each call records a span: its name, start, end and parent span,
tagged with the id of the CLI invocation it belongs to.  Spans live in flat
arrays in memory and are written out by `dump` when the run ends.  Nothing
under src/ is modified, and `uninstall` restores every original.

A target that no longer exists (renamed or removed by a later change) is
recorded in `absent` instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter

# (module, attribute, span name).  A span name ending in "." is completed at
# call time with the field kind ("fp" or "qq") of the receiver's field.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("suites", "run_sweep", "suites.run_sweep"),
    ("tables", "load_table", "tables.load_table"),
    ("params", "random_admissible_context", "params.random_admissible_context"),
    ("params", "random_valid_parameter_array", "params.random_valid_parameter_array"),
    ("fields", "PrimeField.mat_mul", "linalg.mat_mul.fp"),
    ("fields", "Rationals.mat_mul", "linalg.mat_mul.qq"),
    ("linalg", "Matrix.apply", "linalg.apply."),
    ("linalg", "EchelonBasis.add", "linalg.echelon_add."),
    ("poly", "lagrange_idempotents", "poly.lagrange_idempotents"),
    ("realization", "realize", "realization.realize"),
    ("realization", "verify_relations", "realization.verify_relations"),
    ("realization", "mu_certificate", "realization.mu_certificate"),
    ("realization", "shape_check", "realization.shape_check"),
    ("zigzag", "enumerate_feasible", "zigzag.enumerate_feasible"),
    ("zigzag", "feasible_rank_test", "zigzag.feasible_rank_test"),
    ("zigzag", "enumerate_zz", "zigzag.enumerate_zz"),
    ("zigzag", "enumerate_convex_spanning", "zigzag.enumerate_convex_spanning"),
    ("tdsystem", "construct_from_params", "tdsystem.construct_from_params"),
    ("tdsystem", "submodule_closure", "tdsystem.submodule_closure"),
    ("tdsystem", "extract_td_system", "tdsystem.extract_td_system"),
    ("tdsystem", "irreducibility_check", "tdsystem.irreducibility_check"),
    ("tdsystem", "_corner_cyclic_irreducible", "tdsystem.corner_cyclic"),
    ("tdsystem", "roundtrip", "tdsystem.roundtrip"),
    ("report", "VerificationReport.to_json", "report.to_json"),
)

# Scalar draws counted (not spanned) while a sampler span is open; divided by
# the samples returned they give params.draws_per_sample.  Every rejected
# candidate costs draws, most of them before any validator runs.
SAMPLERS = ("params.random_admissible_context", "params.random_valid_parameter_array")
SAMPLE_DRAW = ("fields", "Sampler.scalar")

FIELD_KINDS = ("fp", "qq")


def _expand(target: str) -> list:
    return [target + k for k in FIELD_KINDS] if target.endswith(".") else [target]


class Tracer:
    """Spans of the calls made while installed.  Span i has name
    name_table[names[i]], belongs to invocation invs[i] (the caller sets
    `invocation`), and has parent span parents[i] (-1 for a root)."""

    def __init__(self):
        self.name_table: list = []
        self._name_id: dict = {}
        self.names = array("H")
        self.invs = array("I")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list = []
        self.invocation = 0
        self.counts = Counter()
        self.absent: list = []
        self._undo: list = []
        self._sampler_depth = 0

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every target; call after `tdcheck.cli` has been imported."""
        self.absent = []
        for module, attr, name in TARGETS:
            owner, fn = _resolve(module, attr)
            if fn is None:
                self.absent.append(name)
                continue
            self._replace(owner, attr, fn, self._span_wrapper(fn, name, attr))
        owner, fn = _resolve(*SAMPLE_DRAW)
        if fn is not None:
            self._replace(owner, SAMPLE_DRAW[1], fn, self._count_wrapper(fn))

    def uninstall(self):
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def _replace(self, owner, attr, fn, wrapper):
        if isinstance(owner, type):
            key = attr.rsplit(".", 1)[1]
            self._undo.append((owner, key, fn))
            setattr(owner, key, wrapper)
            return
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "tdcheck":
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, key, fn))
                    setattr(mod, key, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _name(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.name_table)
            self.name_table.append(name)
        return nid

    def _span_wrapper(self, fn, name: str, attr: str):
        if name.endswith("."):
            ids = {k: self._name(name + k) for k in FIELD_KINDS}
            name_of = lambda args: ids[args[0].field.kind]  # noqa: E731
        else:
            nid = self._name(name)
            name_of = lambda args: nid  # noqa: E731
        after = self._hook(name)
        sampler = name in SAMPLERS
        names, invs, parents = self.names, self.invs, self.parents
        starts, ends, stack = self.starts, self.ends, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_of(args))
            invs.append(self.invocation)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            if sampler:
                self._sampler_depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
                if sampler:
                    self._sampler_depth -= 1
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = attr.rsplit(".", 1)[-1]
        return wrapper

    def _hook(self, name: str):
        counts = self.counts
        if name.startswith("linalg.mat_mul."):
            def after(args, result):
                a, b = args[1], args[2]
                counts["mults"] += len(a) * len(b) * (len(b[0]) if b else 0)
        elif name == "linalg.echelon_add.":
            def after(args, result):
                counts["echelon_grew"] += result is True
        elif name == "report.to_json":
            def after(args, result):
                counts["json_bytes"] += len(result.encode())
        elif name in SAMPLERS:
            def after(args, result):
                counts["samples"] += 1
        else:
            after = None
        return after

    def _count_wrapper(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self._sampler_depth:
                counts["draws"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ------------------------------------------------------------

    def self_times(self) -> list:
        """Per span: its duration minus the durations of its direct children."""
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                out[p] -= self.ends[i] - self.starts[i]
        return out

    def metrics(self) -> dict:
        """Per-layer metric values by name.  The metrics of absent targets are
        left out.  A function this run never called has calls 0 and self
        time 0, and a ratio whose denominator is 0 reads 0."""
        calls, self_s = Counter(), Counter()
        for nid, t in zip(self.names, self.self_times()):
            calls[nid] += 1
            self_s[nid] += t
        out = {}
        for _, _, target in TARGETS:
            if target in self.absent:
                continue
            for name in _expand(target):
                nid = self._name_id[name]
                out[name + ".calls"] = calls[nid]
                out[name + ".self_s"] = float(self_s[nid])
        c = self.counts
        out["params.draws_per_sample"] = c["draws"] / c["samples"] if c["samples"] else 0.0
        if "linalg.mat_mul.fp.calls" in out or "linalg.mat_mul.qq.calls" in out:
            out["linalg.mat_mul.mults"] = c["mults"]
        adds = sum(out.get(f"linalg.echelon_add.{k}.calls", 0) for k in FIELD_KINDS)
        out["linalg.echelon_add.grew_ratio"] = c["echelon_grew"] / adds if adds else 0.0
        if "report.to_json.calls" in out:
            out["report.to_json.bytes"] = c["json_bytes"]
        return out

    def dump(self, path, invocations: list):
        """Write every span, columnar; span invocation i ran invocations[i]."""
        base = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.name_table,
                    "invocations": invocations,
                    "absent": self.absent,
                    "spans": {
                        "name": list(self.names),
                        "invocation": list(self.invs),
                        "parent": list(self.parents),
                        "start": [round(s - base, 9) for s in self.starts],
                        "end": [round(e - base, 9) for e in self.ends],
                    },
                },
                fh,
                separators=(",", ":"),
            )


def _resolve(module: str, attr: str):
    """(owner, function) for tdcheck.<module>.<attr>; (None, None) if missing."""
    try:
        owner = importlib.import_module("tdcheck." + module)
    except ImportError:
        return None, None
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    fn = vars(owner).get(last) if isinstance(owner, type) else getattr(owner, last, None)
    return (owner, fn) if callable(fn) else (None, None)
