"""Span recorder for the traced benchmark run, standard library only.

Spans are opened around calls into each layer's public functions.  The
wrappers are installed from the benchmark's own files: every module-level
name that refers to a traced function, including the copies that
``from ... import`` re-bound in other polysmash modules, is replaced for the
duration of one pass and restored afterwards.  Nothing in the library is
edited.

A span's self time is its duration minus the time covered by its child
spans.  Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import contextvars
import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter

_current = contextvars.ContextVar("perfbench_span", default=None)

# SNF calls on matrices with max(rows, cols) at or above this are "large":
# on the smash corpus, the boundary matrices of RP^2 with J = 1^6.
SNF_LARGE = 256


class Span:
    __slots__ = ("name", "case", "parent", "start", "end", "child")

    def __init__(self, name, case, parent):
        self.name = name
        self.case = case
        self.parent = parent
        self.start = self.end = 0.0
        self.child = 0.0

    @property
    def self_time(self):
        return self.end - self.start - self.child


class Recorder:
    """Spans and exact counters of one pass."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.max_digits = 0
        self.bary_refs = set()
        self.case = None
        self.scale = {}  # case name -> reference seconds per measured second

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name; returns (result, span)."""
        parent = _current.get()
        span = Span(name, self.case, parent)
        token = _current.set(span)
        span.start = perf_counter()
        try:
            return fn(*args, **kwargs), span
        finally:
            span.end = perf_counter()
            _current.reset(token)
            if parent is not None:
                parent.child += span.end - span.start
            self.spans.append(span)

    def book(self, parent, fn, *args):
        """Run counter bookkeeping; its time is not charged to parent's self time."""
        t0 = perf_counter()
        fn(*args)
        if parent is not None:
            parent.child += perf_counter() - t0

    def self_times(self):
        """Self time per span name, in reference seconds."""
        out = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.self_time * self.scale.get(s.case, 1.0)
        return out

    def calls(self, name):
        return sum(1 for s in self.spans if s.name == name)

    def dump(self):
        """Spans as [name, case, parent index, start, end], times from pass start."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        t0 = min((s.start for s in self.spans), default=0.0)
        return [
            [s.name, s.case, index.get(id(s.parent)), s.start - t0, s.end - t0]
            for s in self.spans
        ]


# -- counter hooks: (recorder, args, result, span) -------------------------


def _snf_counts(rec, args, result, span):
    M = args[0]
    rec.counts["exactlin.snf_nnz_in"] += len(M.entries)
    rec.counts["exactlin.snf_pivots"] += result.rank
    rec.counts["exactlin.snf_nonunit_factors"] += sum(1 for d in result.factors if d > 1)
    if result.factors:
        rec.max_digits = max(rec.max_digits, len(str(max(result.factors))))


def _lp_counts(rec, args, result, span):
    if result.status == "optimal" and result.value == 0:
        rec.counts["exactlin.lp_zero"] += 1
    if span.parent is not None and span.parent.name == "geomjoin.proper":
        rec.counts["geomjoin.proper_lp"] += 1


def _bary_counts(rec, args, result, span):
    rec.bary_refs.add(frozenset(args[0]))


def _assemble_counts(rec, args, result, span):
    rec.counts["smashmodel.cells"] += sum(len(b) for b in result.bases.values())
    rec.counts["smashmodel.nnz"] += sum(len(M.entries) for M in result.boundaries.values())


def _double_counts(rec, args, result, span):
    rec.counts["complexes.kj_faces"] += len(result[0].faces())


def _snf_name(args):
    M = args[0]
    return "exactlin.snf_large" if max(M.rows, M.cols) >= SNF_LARGE else "exactlin.snf"


def targets(mods):
    """(owner, attribute, span name or name function, counter hook)."""
    return [
        (mods.exactlin, "smith_normal_form", _snf_name, _snf_counts),
        (mods.exactlin, "lp_max", "exactlin.lp", _lp_counts),
        (mods.exactlin, "rank_rational", "exactlin.rank", None),
        (mods.geomjoin, "barycentric_coords", "geomjoin.bary", _bary_counts),
        (mods.geomjoin, "proper_intersection", "geomjoin.proper", None),
        (mods.geomjoin, "determinant", "geomjoin.det", None),
        (mods.geomjoin, "carrier_equal", "geomjoin.carrier", None),
        (mods.chains, "homology", "chains.homology", None),
        (mods.chains.ChainComplex, "check_dd_zero", "chains.dd_check", None),
        (mods.smashmodel, "_assemble", "smashmodel.assemble", _assemble_counts),
        (mods.complexes, "double_iterated", "complexes.double", _double_counts),
        (mods.cli, "load_complex", "cli.load", None),
        (mods.report.VerificationReport, "to_json", "report.json", None),
    ]


def _wrap(rec, fn, name, hook):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(args) if callable(name) else name
        result, span = rec.span(label, fn, *args, **kwargs)
        if hook is not None:
            rec.book(span.parent, hook, rec, args, result, span)
        return result

    return wrapper


class installed:
    """Context manager: route every binding of the traced functions to rec."""

    def __init__(self, rec, mods):
        self.rec = rec
        self.mods = mods
        self.undo = []

    def __enter__(self):
        modules = [
            m for k, m in list(sys.modules.items())
            if (k == "polysmash" or k.startswith("polysmash.")) and m is not None
        ]
        for owner, attr, name, hook in targets(self.mods):
            original = getattr(owner, attr)
            wrapper = _wrap(self.rec, original, name, hook)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        return self.rec

    def _set(self, owner, attr, value):
        self.undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self.undo):
            setattr(owner, attr, value)
        self.undo.clear()
        return False


def layer_metrics(rec):
    """Per-layer metrics of one pass, by the names BENCHMARK.json lists."""
    st = rec.self_times()
    c = rec.counts
    snf_calls = rec.calls("exactlin.snf") + rec.calls("exactlin.snf_large")
    lp_calls = rec.calls("exactlin.lp")
    proper_calls = rec.calls("geomjoin.proper")
    return {
        "exactlin.snf_large_s": st["exactlin.snf_large"],
        "exactlin.snf_large_calls": rec.calls("exactlin.snf_large"),
        "exactlin.snf_s": st["exactlin.snf"] + st["exactlin.snf_large"],
        "exactlin.snf_calls": snf_calls,
        "exactlin.snf_nnz_in": c["exactlin.snf_nnz_in"],
        "exactlin.snf_pivots": c["exactlin.snf_pivots"],
        "exactlin.snf_nonunit_factors": c["exactlin.snf_nonunit_factors"],
        "exactlin.snf_max_factor_digits": rec.max_digits,
        "exactlin.lp_s": st["exactlin.lp"],
        "exactlin.lp_calls": lp_calls,
        "exactlin.lp_zero_ratio": c["exactlin.lp_zero"] / lp_calls if lp_calls else 0.0,
        "exactlin.rank_s": st["exactlin.rank"],
        "exactlin.rank_calls": rec.calls("exactlin.rank"),
        "geomjoin.bary_s": st["geomjoin.bary"],
        "geomjoin.bary_calls": rec.calls("geomjoin.bary"),
        "geomjoin.bary_distinct_refs": len(rec.bary_refs),
        "geomjoin.proper_s": st["geomjoin.proper"],
        "geomjoin.proper_calls": proper_calls,
        "geomjoin.proper_lp_ratio": (
            c["geomjoin.proper_lp"] / proper_calls if proper_calls else 0.0
        ),
        "geomjoin.det_s": st["geomjoin.det"],
        "geomjoin.det_calls": rec.calls("geomjoin.det"),
        "geomjoin.carrier_s": st["geomjoin.carrier"],
        "chains.homology_s": st["chains.homology"],
        "chains.homology_calls": rec.calls("chains.homology"),
        "chains.dd_check_s": st["chains.dd_check"],
        "chains.dd_checks": rec.calls("chains.dd_check"),
        "smashmodel.assemble_s": st["smashmodel.assemble"],
        "smashmodel.cells": c["smashmodel.cells"],
        "smashmodel.nnz": c["smashmodel.nnz"],
        "complexes.double_s": st["complexes.double"],
        "complexes.double_calls": rec.calls("complexes.double"),
        "complexes.kj_faces": c["complexes.kj_faces"],
        "cli.load_s": st["cli.load"],
        "report.json_s": st["report.json"],
        "other_s": st["case"],
    }
