"""Traced polygram CLI job: wraps each module's public functions from outside.

Run as ``python tracer.py FD -- <polygram args>`` with polygram importable.
The job runs through ``polygram.cli.main`` as the plain CLI would, with a
span around every wrapped call.  Spans (name, start, end, parent) are kept
in memory; when the job ends, their per-name totals go out as one JSON
object on file descriptor FD.

Span names are ``<module>.<what>``.  Functions the metrics name get their
own span name; every other public function or method of a module is
``<module>.other``, so each module's whole self time is attributed to it.
Private helpers are not wrapped and count towards their caller.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import os
import sys
import time
from array import array

MODULES = ("poly", "grammar", "unipoly", "quadratic", "classical", "triangles",
           "gamma", "oracles", "parser", "report", "verify", "cli")

# (module, class or None, attribute) -> span name.
NAMED = {
    ("poly", "MultiPoly", "__mul__"): "poly.mul",
    ("poly", "MultiPoly", "__rmul__"): "poly.mul",
    ("poly", "MultiPoly", "__add__"): "poly.add",
    ("poly", "MultiPoly", "__radd__"): "poly.add",
    ("poly", "MultiPoly", "partial_derivative"): "poly.partial_derivative",
    ("poly", "MultiPoly", "substitute"): "poly.substitute",
    ("poly", "MultiPoly", "substitute_square_with_parity"): "poly.substitute",
    ("grammar", "Grammar", "derive"): "grammar.derive",
    ("grammar", None, "expansion_coefficients"): "grammar.expansion_coefficients",
    ("grammar", None, "verify_identity"): "grammar.verify_identity",
    ("unipoly", "UniPoly", "__init__"): "unipoly.init",
    ("unipoly", "UniPoly", "__mul__"): "unipoly.mul",
    ("unipoly", "UniPoly", "__rmul__"): "unipoly.mul",
    ("unipoly", "UniPoly", "__add__"): "unipoly.add",
    ("unipoly", "UniPoly", "__radd__"): "unipoly.add",
    ("quadratic", "ExtPoly", "__mul__"): "quadratic.ext_mul",
    ("quadratic", "ExtPoly", "__rmul__"): "quadratic.ext_mul",
    ("quadratic", "QuadraticRing", "root_power"): "quadratic.root_power",
    ("quadratic", "QuadraticRing", "eval_poly"): "quadratic.eval_poly",
    ("classical", None, "tangent_derivative_poly"): "classical.recurrence",
    ("classical", None, "secant_derivative_poly"): "classical.recurrence",
    ("classical", None, "chebyshev_t"): "classical.recurrence",
    ("classical", None, "chebyshev_u"): "classical.recurrence",
    ("classical", "TruncSeries", "__mul__"): "classical.series_mul",
    ("classical", "TruncSeries", "__rmul__"): "classical.series_mul",
    ("classical", "TruncSeries", "invert"): "classical.series_invert",
    ("triangles", "Triangle", "row"): "triangles.row",
    ("gamma", None, "gamma_to_h"): "gamma.gamma_to_h",
    ("gamma", None, "h_to_gamma"): "gamma.h_to_gamma",
    ("oracles", None, "count_alternating"): "oracles.count_alternating",
    ("oracles", None, "descent_distribution"): "oracles.histograms",
    ("oracles", None, "descent_b_distribution"): "oracles.histograms",
    ("oracles", None, "motzkin_up_histogram"): "oracles.histograms",
    ("oracles", None, "left_factor_h_histogram"): "oracles.histograms",
    ("oracles", None, "motzkin_with_up_steps"): "oracles.histograms",
    ("oracles", None, "left_factors_with_h"): "oracles.histograms",
    ("parser", None, "parse_grammar"): "parser.parse",
    ("parser", None, "parse_poly"): "parser.parse",
    ("cli", None, "main"): "cli.main",
}

# Dunder methods wrapped as well as the public ones.
DUNDERS = ("__init__", "__post_init__", "__add__", "__radd__", "__sub__", "__rsub__",
           "__mul__", "__rmul__", "__neg__", "__pow__", "__call__", "__eq__", "__str__")

# Per-coefficient accessors: a span would cost more than the call, so they
# count towards their caller.
UNWRAPPED = ("coefficient",)

# Only cli.main is wrapped in cli: argument parsing counts as its self time.
ONLY_NAMED = ("cli",)

RECURRENCES = ("tangent_derivative_poly", "secant_derivative_poly", "chebyshev_t", "chebyshev_u")

ROOT = -1


class Recorder:
    """Spans of one process, in call order, as parallel arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [ROOT]
        self.counters: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def count(self, key: str, value: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, fn, span: str, counter=None, dynamic=None):
        """fn with a span around each call.

        ``counter(args, result)`` adds to the counters after the span ends;
        ``dynamic(args)`` names the span from the call's arguments.
        """
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter
        sid = self.name_id(span)
        name_id = self.name_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id(dynamic(args)) if dynamic else sid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if counter is not None:
                counter(args, result)
            return result

        return wrapper

    def aggregate(self) -> dict[str, dict[str, float]]:
        return aggregate(self.names, self.name, self.start, self.end, self.parent)


def self_times(starts, ends, parents) -> array:
    """Each span's duration minus the part of it that its children cover.

    Spans are given as parallel sequences, with ``parents[i]`` the index of
    the span that caused span i, or -1.  A child is clipped to its parent.
    The program is single-threaded, so the children of one span run one
    after another and their clipped durations add up.
    """
    own = array("d", (e - s for s, e in zip(starts, ends)))
    for s, e, p in zip(starts, ends, parents):
        if p != ROOT:
            covered = min(e, ends[p]) - max(s, starts[p])
            if covered > 0:
                own[p] -= covered
    return own


def aggregate(names, name, starts, ends, parents) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (inclusive) seconds and self seconds.

    ``names`` maps name ids to strings; ``name`` holds each span's name id.
    """
    table = [{"calls": 0, "total_s": 0.0, "self_s": 0.0} for _ in names]
    for n, s, e, own in zip(name, starts, ends, self_times(starts, ends, parents)):
        row = table[n]
        row["calls"] += 1
        row["total_s"] += e - s
        row["self_s"] += own
    return {names[i]: row for i, row in enumerate(table) if row["calls"]}


# ----------------------------------------------------------------------
# installing the wrappers


def _counters(rec: Recorder, poly_mod, unipoly_mod):
    MultiPoly, UniPoly = poly_mod.MultiPoly, unipoly_mod.UniPoly

    def poly_mul(args, result):
        a, b = args
        rec.count("poly.mul.term_pairs",
                  len(a.terms) * (len(b.terms) if isinstance(b, MultiPoly) else 1))
        if isinstance(result, MultiPoly):
            rec.count("poly.mul.terms_out", len(result.terms))

    def derive(args, result):
        rec.count("grammar.derive.terms_out", len(result.terms))

    def unipoly_mul(args, result):
        a, b = args
        rec.count("unipoly.mul.coeff_pairs",
                  len(a.coeffs) * (len(b.coeffs) if isinstance(b, UniPoly) else 1))

    return {"poly.mul": poly_mul, "grammar.derive": derive, "unipoly.mul": unipoly_mul}


def _own_function(obj, module) -> bool:
    fn = obj.__func__ if isinstance(obj, (classmethod, staticmethod)) else obj
    fn = inspect.unwrap(fn)
    return (inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__
            and not inspect.isgeneratorfunction(fn))


def _wanted(modname: str, clsname: str | None, attr: str) -> bool:
    if (modname, clsname, attr) in NAMED:
        return True
    if modname in ONLY_NAMED or attr in UNWRAPPED:
        return False
    if clsname is not None and attr in DUNDERS:
        return True
    return not attr.startswith("_")


def install(rec: Recorder, modules: dict) -> None:
    """Wrap every wanted function of ``modules`` and rebind each reference."""
    counters = _counters(rec, modules["poly"], modules["unipoly"])
    wrapped: dict[int, object] = {}

    def wrapper_for(fn, modname, clsname, attr):
        if id(fn) not in wrapped:
            span = NAMED.get((modname, clsname, attr), f"{modname}.other")
            wrapped[id(fn)] = rec.wrap(fn, span, counters.get(span))
        return wrapped[id(fn)]

    for modname, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for cattr, cobj in list(vars(obj).items()):
                    if not (_wanted(modname, obj.__name__, cattr) and _own_function(cobj, mod)):
                        continue
                    if isinstance(cobj, (classmethod, staticmethod)):
                        kind = type(cobj)
                        setattr(obj, cattr, kind(wrapper_for(cobj.__func__, modname,
                                                             obj.__name__, cattr)))
                    else:
                        setattr(obj, cattr, wrapper_for(cobj, modname, obj.__name__, cattr))
            elif _wanted(modname, None, attr) and _own_function(obj, mod):
                wrapper_for(obj, modname, None, attr)

    verify = modules["verify"]
    wrapped[id(verify.run_target)] = rec.wrap(
        verify.run_target, "verify.target_s", dynamic=lambda args: f"verify.target_s.{args[0]}")

    # Rebind every module-level name that holds a wrapped original, so
    # ``from .x import f`` copies and lru_cache recursion go through wrappers.
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])

    # Functions captured in data before the wrappers existed.
    triangles = modules["triangles"]
    value_wrappers: dict[int, object] = {}

    def wrap_value(tri):
        fn = tri.value
        if id(fn) not in value_wrappers:
            value_wrappers[id(fn)] = rec.wrap(fn, "triangles.value")
        object.__setattr__(tri, "value", value_wrappers[id(fn)])
        return tri

    for mod in modules.values():
        for obj in vars(mod).values():
            if isinstance(obj, triangles.Triangle):
                wrap_value(obj)
    plain = triangles.plain_triangle.__wrapped__

    def plain_triangle(*args, **kwargs):
        return wrap_value(plain(*args, **kwargs))

    for mod in modules.values():
        if vars(mod).get("plain_triangle") is triangles.plain_triangle:
            mod.plain_triangle = rec.wrap(plain_triangle, "triangles.other")

    verify.TARGETS.update({
        name: dataclasses.replace(t, run=wrapped.get(id(t.run)) or rec.wrap(t.run, "verify.other"))
        for name, t in verify.TARGETS.items()})


def recurrence_cache(modules) -> tuple[int, int]:
    """(hits, misses) of the classical recurrences' lru caches."""
    hits = misses = 0
    for name in RECURRENCES:
        info = getattr(modules["classical"], name).__wrapped__.cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


def main(argv: list[str]) -> int:
    fd = int(argv[0])
    args = argv[argv.index("--") + 1:]
    t0 = time.perf_counter()
    importlib.import_module("polygram.cli")
    import_s = time.perf_counter() - t0
    modules = {name: importlib.import_module(f"polygram.{name}") for name in MODULES}
    rec = Recorder()
    t1 = time.perf_counter()
    install(rec, modules)
    install_s = time.perf_counter() - t1
    try:
        return modules["cli"].main(args)
    finally:
        sys.stdout.flush()
        t2 = time.perf_counter()
        hits, misses = recurrence_cache(modules)
        rec.count("classical.recurrence.hits", hits)
        rec.count("classical.recurrence.lookups", hits + misses)
        spans = rec.aggregate()
        # Time the tracer itself spent outside any span.
        bookkeeping_s = install_s + time.perf_counter() - t2
        payload = {"import_s": import_s, "bookkeeping_s": bookkeeping_s, "spans": spans,
                   "counters": rec.counters}
        with os.fdopen(fd, "w") as out:
            json.dump(payload, out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
