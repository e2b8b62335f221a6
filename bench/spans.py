"""Spans and counts around gvbound's public functions, from outside it.

install() replaces public functions of the gvbound modules, wherever a
module holds a reference to them, with wrappers that record a span
(name, start, end, parent span, tags) or only count calls.  The package
itself is not changed; uninstalling restores every reference.

Spans opened on a worker thread of the sweep thread pool take the
innermost span open on the main thread as parent.  A span's self time
is the CPU time of its thread inside the span less that of its children
on the same thread: the pool runs up to six threads on one interpreter
lock, so wall-clock self times of concurrent spans would count each
other's waits.
Calls into functions under functools.lru_cache are serialised while
traced, so that concurrent cache misses, which the thread pool can
otherwise cause, do not make the counts differ from run to run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import threading
from collections import Counter, defaultdict
from time import perf_counter, thread_time

MODULES = ("cli", "curves", "sticky", "synthesis", "numeric", "acsv", "verify")

# Functions timed as spans, by module.
SPANS = {
    "cli": ("main",),
    "curves": ("build_curves", "rows_to_csv", "render_svg"),
    "sticky": ("gv_rate", "critical_point_closed_form", "pair_count_table",
               "count_pairs_exact", "count_pairs_bruteforce"),
    "synthesis": ("capacity", "delta_max", "critical_point", "ball_rate_upper",
                  "pair_count_table", "count_pairs_exact", "count_pairs_bruteforce"),
    "numeric": ("smallest_positive_root",),
    "acsv": ("critical_system_residual", "solve_critical_point"),
    "verify": ("run_suite",),
}
# Generator functions: one span per resumption, so consumer time is excluded.
GENERATORS = {"sticky": ("iter_pair_layers",)}
# Called too often for a span each (about a million times per dense sweep).
COUNTED = {"sticky": ("ball_rate",)}


class _Frame:
    __slots__ = ("id", "name", "parent", "thread", "start", "cpu", "child_cpu", "tags")

    def __init__(self, span_id, name, parent):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.child_cpu = 0.0
        self.tags = {}


class Tracer:
    """In-memory spans and counters; thread-safe."""

    def __init__(self):
        # (id, name, start, end, parent id, self time, tags)
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._thread_counts = []
        self._main_stack = self._stack()
        self._next_id = 0

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _counter(self) -> Counter:
        try:
            return self._local.counts
        except AttributeError:
            counts = self._local.counts = Counter()
            with self._lock:
                self._thread_counts.append(counts)
            return counts

    @property
    def counts(self) -> Counter:
        """Counts summed over threads; read once the traced work has ended."""
        total = Counter()
        for counts in self._thread_counts:
            total.update(counts)
        return total

    def open(self, name: str) -> _Frame:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            self._next_id += 1
            frame = _Frame(self._next_id, name, parent)
        stack.append(frame)
        frame.start = perf_counter()
        frame.cpu = thread_time()
        return frame

    def close(self, frame: _Frame) -> None:
        cpu = thread_time() - frame.cpu
        end = perf_counter()
        self._stack().pop()
        parent = frame.parent
        if parent is not None and parent.thread == frame.thread:
            parent.child_cpu += cpu
        self.spans.append((frame.id, frame.name, frame.start, end,
                           parent.id if parent else None, cpu - frame.child_cpu,
                           frame.tags))

    def count(self, name: str, amount: int = 1) -> None:
        self._counter()[name] += amount

    def span(self, name: str, fn, tag=None):
        """Wrap fn so that each call is a span; tag(bound args, result) -> tags."""
        sig = inspect.signature(fn) if tag else None
        guard = threading.RLock() if hasattr(fn, "cache_info") else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.open(name)
            try:
                if guard is None:
                    result = fn(*args, **kwargs)
                else:
                    with guard:
                        result = fn(*args, **kwargs)
                if tag:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    frame.tags = tag(bound.arguments, result)
                return result
            finally:
                self.close(frame)

        return wrapper

    def span_generator(self, name: str, fn, tag):
        """Wrap a generator function: one span per resumption."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            inner = fn(*args, **kwargs)
            while True:
                frame = self.open(name)
                try:
                    item = next(inner, StopIteration)
                    if item is not StopIteration:
                        frame.tags = tag(bound.arguments, item)
                finally:
                    self.close(frame)
                if item is StopIteration:
                    return
                yield item

        return wrapper

    def counted(self, name: str, fn, inside: str):
        """Wrap fn to count calls, and calls made directly inside span `inside`."""
        inner = f"{name}.in.{inside}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = self._counter()
            counts[name] += 1
            stack = self._stack()
            if stack and stack[-1].name == inside:
                counts[inner] += 1
            return fn(*args, **kwargs)

        return wrapper


# ----------------------------------------------------------- tag functions

def _layer_tags(args, table):
    return {"mode": args["mode"], "cells": int(table.entries.size)}


def _synthesis_table_tags(args, table):
    return {"mode": args["mode"], "cells": int(args["n"] * table.entries.size)}


def _sticky_brute_tags(args, result):
    n1, n2, r, s = args["n1"], args["n2"], args["r"], args["s"]
    if min(n1, n2, r, s) < 0 or r == 0 or n1 < r or n2 < r:
        return {"pairs": 0}
    return {"pairs": math.comb(n1 - 1, r - 1) * math.comb(n2 - 1, r - 1)}


def _synthesis_brute_tags(args, result):
    n = args["n"]
    if n <= 0:
        return {"pairs": 0, "useful": 0}
    return {"pairs": 16 ** n, "useful": result}


def _suite_tags(args, results):
    return {"failed": sum(1 for r in results if not r.passed)}


TAGS = {
    "sticky.iter_pair_layers": _layer_tags,
    "synthesis.pair_count_table": _synthesis_table_tags,
    "sticky.count_pairs_bruteforce": _sticky_brute_tags,
    "synthesis.count_pairs_bruteforce": _synthesis_brute_tags,
    "verify.run_suite": _suite_tags,
}


def install(tracer: Tracer):
    """Wrap the traced functions in every gvbound module; return an undo."""
    package = importlib.import_module("gvbound")
    mods = {name: importlib.import_module(f"gvbound.{name}") for name in MODULES}
    holders = [package, *mods.values()]
    undo = []

    def replace(original, wrapper):
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    undo.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

    for mod, names in SPANS.items():
        for fname in names:
            name = f"{mod}.{fname}"
            original = getattr(mods[mod], fname)
            replace(original, tracer.span(name, original, TAGS.get(name)))
    for mod, names in GENERATORS.items():
        for fname in names:
            name = f"{mod}.{fname}"
            original = getattr(mods[mod], fname)
            replace(original, tracer.span_generator(name, original, TAGS[name]))
    for mod, names in COUNTED.items():
        for fname in names:
            original = getattr(mods[mod], fname)
            replace(original, tracer.counted(f"{mod}.{fname}", original,
                                             inside="sticky.gv_rate"))

    poly = mods["numeric"].RealPolynomial
    evaluate_many = poly.evaluate_many

    def counted_evaluate_many(self, xs):
        tracer.count("numeric.scan_evals", len(xs))
        return evaluate_many(self, xs)

    poly.evaluate_many = counted_evaluate_many
    undo.append((poly, "evaluate_many", evaluate_many))

    suites = mods["verify"].SUITES
    saved_suites = dict(suites)
    for suite, factory in saved_suites.items():
        suites[suite] = _traced_suite(tracer, suite, factory)

    def uninstall():
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)
        suites.update(saved_suites)

    return uninstall


def _traced_suite(tracer: Tracer, suite: str, factory):
    def make_checks(n_budget, tol):
        return [(name, _traced_check(tracer, suite, fn))
                for name, fn in factory(n_budget, tol)]

    return make_checks


def _traced_check(tracer: Tracer, suite: str, fn):
    def check():
        frame = tracer.open("verify.check")
        frame.tags = {"suite": suite}
        try:
            return fn()
        finally:
            tracer.close(frame)

    return check


# ------------------------------------------------------------- metrics

def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and counts."""
    calls = Counter()
    self_s = defaultdict(float)
    by_mode = defaultdict(float)
    tag_sums = Counter()
    suite_s = defaultdict(float)
    for _, name, start, end, _, own, tags in tracer.spans:
        calls[name] += 1
        self_s[name] += own
        if "mode" in tags:
            by_mode[name, tags["mode"]] += end - start
        for key in ("cells", "pairs", "useful", "failed"):
            if key in tags:
                tag_sums[name, key] += tags[key]
        if name == "verify.check":
            suite_s[tags["suite"]] += end - start

    def ratio(num, den):
        return num / den if den else 0.0

    counts = tracer.counts
    ball_in_gv = counts["sticky.ball_rate.in.sticky.gv_rate"]
    out = {
        "sticky.gv_rate.calls": calls["sticky.gv_rate"],
        "sticky.gv_rate.self_s": self_s["sticky.gv_rate"],
        "sticky.ball_rate.calls": counts["sticky.ball_rate"],
        "sticky.ball_rate.calls_per_gv_rate": ratio(ball_in_gv, calls["sticky.gv_rate"]),
        "sticky.iter_pair_layers.exact_s": by_mode["sticky.iter_pair_layers", "exact"],
        "sticky.iter_pair_layers.log2_s": by_mode["sticky.iter_pair_layers", "log2"],
        "sticky.iter_pair_layers.cells": tag_sums["sticky.iter_pair_layers", "cells"],
        "sticky.pair_count_table.calls": calls["sticky.pair_count_table"],
        "sticky.count_pairs_bruteforce.calls": calls["sticky.count_pairs_bruteforce"],
        "sticky.count_pairs_bruteforce.self_s": self_s["sticky.count_pairs_bruteforce"],
        "sticky.count_pairs_bruteforce.pairs": tag_sums["sticky.count_pairs_bruteforce", "pairs"],
        "synthesis.pair_count_table.exact_s": by_mode["synthesis.pair_count_table", "exact"],
        "synthesis.pair_count_table.log2_s": by_mode["synthesis.pair_count_table", "log2"],
        "synthesis.pair_count_table.calls": calls["synthesis.pair_count_table"],
        "synthesis.pair_count_table.cells": tag_sums["synthesis.pair_count_table", "cells"],
        "synthesis.count_pairs_bruteforce.calls": calls["synthesis.count_pairs_bruteforce"],
        "synthesis.count_pairs_bruteforce.self_s": self_s["synthesis.count_pairs_bruteforce"],
        "synthesis.count_pairs_bruteforce.pairs": tag_sums["synthesis.count_pairs_bruteforce", "pairs"],
        "synthesis.count_pairs_bruteforce.useful_ratio": ratio(
            tag_sums["synthesis.count_pairs_bruteforce", "useful"],
            tag_sums["synthesis.count_pairs_bruteforce", "pairs"],
        ),
        "synthesis.critical_point.calls": calls["synthesis.critical_point"],
        "synthesis.critical_point.self_s": self_s["synthesis.critical_point"],
        "synthesis.capacity.calls": calls["synthesis.capacity"],
        "numeric.smallest_positive_root.calls": calls["numeric.smallest_positive_root"],
        "numeric.smallest_positive_root.self_s": self_s["numeric.smallest_positive_root"],
        "numeric.scan_evals": counts["numeric.scan_evals"],
        "acsv.critical_system_residual.calls": calls["acsv.critical_system_residual"],
        "acsv.critical_system_residual.self_s": self_s["acsv.critical_system_residual"],
        "acsv.solve_critical_point.calls": calls["acsv.solve_critical_point"],
        "acsv.solve_critical_point.self_s": self_s["acsv.solve_critical_point"],
        "curves.build_curves.self_s": self_s["curves.build_curves"],
        "curves.render_svg.self_s": self_s["curves.render_svg"],
        "curves.rows_to_csv.self_s": self_s["curves.rows_to_csv"],
        "verify.run_suite.acsv_s": suite_s["acsv"],
        "verify.run_suite.sticky_s": suite_s["sticky"],
        "verify.run_suite.synthesis_s": suite_s["synthesis"],
        "verify.checks_failed": tag_sums["verify.run_suite", "failed"],
    }
    for mod in MODULES:
        prefix = mod + "."
        out[f"{mod}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(prefix))
    return out
