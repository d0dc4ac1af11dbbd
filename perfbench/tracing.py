"""Tracing for the traced run, installed from outside the package.

``install`` replaces each module's public entry points, wherever the
package (or the benchmark) imported them by name, with wrappers that record
a span, and swaps the ad-module and series algebra handed to the engine for
counting adapters.  Nothing under ``src/`` changes; a pass that does not
call ``install`` runs the package untouched.

A span is (name, start, end, parent, run id).  Spans stay in memory and are
written once, when the run ends.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List

from mpmath import mp

from lie_split import bounds, engine, experiments, freelie, matrices, structconst
from lie_split.series import TruncSeries

BYTES_PER_ENTRY = 8   # computed bytes: every matrix entry counts as a float64


class Tracer:
    """Spans and counts of one pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[list] = []      # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._open: List[int] = []

    def start(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(idx)
        return idx

    def stop(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def records(self) -> List[dict]:
        return [{"id": i, "name": name, "start": start, "end": end,
                 "parent": parent, "run": self.run_id}
                for i, (name, start, end, parent) in enumerate(self.spans)]

    def times(self):
        """(total, self) seconds per span name."""
        total: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            d = end - start
            total[name] += d
            own[name] += d
            if parent is not None:
                own[self.spans[parent][0]] -= d
        return total, own


def _spanned(tracer: Tracer, name, fn: Callable, after=None) -> Callable:
    """fn inside a span; name may be a function of the call's arguments;
    after(result, *args) runs outside the span."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.start(name(*args) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.stop(idx)
        if after is not None:
            after(result, *args)
        return result
    return wrapper


def _replace(module, name: str, make: Callable[[Callable], Callable]) -> None:
    """Swap module.name for make(module.name) in every loaded module that
    imported it by name."""
    original = vars(module)[name]
    wrapped = make(original)
    for mod in list(sys.modules.values()):
        if mod is not None and vars(mod).get(name) is original:
            setattr(mod, name, wrapped)


class CountingModule:
    """Ad-module adapter: forwards every call, counts brackets and the
    add/sub/scale operations of the term recursion."""

    def __init__(self, inner, counts: Counter):
        self._inner = inner
        self._counts = counts
        self._sc = isinstance(inner, structconst.ScModule)

    def bracket(self, a, b):
        self._counts["engine.brackets"] += 1
        if self._sc:
            self._counts["structconst.brackets"] += 1
        return self._inner.bracket(a, b)

    def add(self, a, b):
        self._counts["engine.module_ops"] += 1
        return self._inner.add(a, b)

    def sub(self, a, b):
        self._counts["engine.module_ops"] += 1
        return self._inner.sub(a, b)

    def scale(self, c, a):
        self._counts["engine.module_ops"] += 1
        return self._inner.scale(c, a)

    def __getattr__(self, name):
        # zero, and is_zero only where the wrapped module has it
        return getattr(self._inner, name)


class CountingAlgebra:
    """Series-algebra adapter: forwards every call, counts products."""

    def __init__(self, inner, counts: Counter):
        self._inner = inner
        self._counts = counts

    def mul(self, a, b):
        self._counts["series.muls"] += 1
        return self._inner.mul(a, b)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def install(tracer: Tracer) -> None:
    counts = tracer.counts

    def counting_engine(fn):
        @functools.wraps(fn)
        def wrapper(mod, *args, **kwargs):
            return fn(CountingModule(mod, counts), *args, **kwargs)
        return wrapper

    def counting_peel(fn):
        @functools.wraps(fn)
        def wrapper(algebra, *args, **kwargs):
            return fn(CountingAlgebra(algebra, counts), *args, **kwargs)
        return wrapper

    def count_trees(result, mod, *_):
        if isinstance(mod, freelie.FreeLieModule):
            counts["freelie.trees"] += sum(len(v) for v in result.values())

    _replace(engine, "symmetric_terms", lambda fn: _spanned(
        tracer, lambda mod, *a: f"engine.symmetric_terms:{type(mod).__name__}",
        counting_engine(fn), count_trees))
    for name in ("oracle_symmetric_terms", "standard_terms",
                 "standard_terms_left", "palindromic_product_series"):
        _replace(engine, name, lambda fn: _spanned(
            tracer, "engine.peel", counting_peel(fn)))

    # skip ratio of the Cauchy product: coefficient pairs (i, j), i + j <=
    # order, that it visits against the products it actually forms
    cauchy = TruncSeries.__mul__

    @functools.wraps(cauchy)
    def counted_cauchy(self, other):
        before = counts["series.muls"]
        result = cauchy(self, other)
        counts["series.pairs"] += (self.order + 1) * (self.order + 2) // 2
        counts["series.pair_muls"] += counts["series.muls"] - before
        return result
    TruncSeries.__mul__ = counted_cauchy

    def count_words(result, *_):
        counts["freelie.words"] += len(result.terms)
    _replace(freelie, "expand_assoc", lambda fn: _spanned(
        tracer, "freelie.expand", fn, count_words))
    _replace(freelie, "canonicalize", lambda fn: _spanned(
        tracer, "freelie.canon", fn))

    for name in ("sc_validate", "collapse_middle"):
        _replace(structconst, name, lambda fn, n=name: _spanned(
            tracer, f"structconst.{n}", fn))

    for name in ("psi_symmetric", "psi_standard", "splitting_error"):
        _replace(matrices, name, lambda fn, n=name: _spanned(
            tracer, f"matrices.{n}", fn))
    for kit in (matrices.NumpyKit, matrices.MPKit):
        _wrap_kit(kit, tracer)

    for name in ("run_fig2", "run_fig3", "run_boundary_csv"):
        _replace(experiments, name, lambda fn, n=name: _spanned(
            tracer, f"experiments.{n}", fn))

    def count(key):
        def after(*_):
            counts[key] += 1
        return after
    _replace(bounds, "converges", lambda fn: _spanned(
        tracer, "bounds.converges", fn, count("bounds.converges_calls")))
    _replace(bounds, "y_max", lambda fn: _spanned(
        tracer, "bounds.y_max", fn, count("bounds.y_max_calls")))
    for name in ("crude_r_sequence", "refined_deltas", "boundary_scan"):
        _replace(bounds, name, lambda fn, n=name: _spanned(
            tracer, f"bounds.{n}", fn))


def _wrap_kit(kit, tracer: Tracer) -> None:
    counts = tracer.counts

    def products(self, a, k: int) -> None:
        n = self.dim(a)
        counts["matrices.matmuls"] += k
        counts["matrices.flops"] += k * 2 * n ** 3
        counts["matrices.bytes"] += k * 3 * n * n * BYTES_PER_ENTRY

    matmul, bracket = kit.matmul, kit.bracket

    def counted_matmul(self, a, b):
        products(self, a, 1)
        return matmul(self, a, b)

    def counted_bracket(self, a, b):
        counts["matrices.brackets"] += 1
        products(self, a, 2)
        return bracket(self, a, b)

    def count_expm(*_):
        counts["matrices.expm_calls"] += 1

    def check_finite(result, *_):
        finite = (math.isfinite(result) if isinstance(result, float)
                  else mp.isfinite(result))
        if not finite:
            counts["matrices.nonfinite"] += 1

    kit.matmul = counted_matmul
    kit.bracket = counted_bracket
    kit.expm = _spanned(tracer, "matrices.expm", kit.expm, count_expm)
    kit.norm2 = _spanned(tracer, "matrices.norm", kit.norm2, check_finite)
    kit.frobenius = _spanned(tracer, "matrices.norm", kit.frobenius,
                             check_finite)


# Counts that do not depend on the hardware: two passes with one seed must
# give the same values.
COUNT_METRICS = (
    "engine.brackets", "engine.module_ops", "series.muls", "freelie.trees",
    "freelie.words", "structconst.brackets", "matrices.expm_calls",
    "matrices.matmuls", "matrices.brackets", "matrices.flops",
    "matrices.bytes", "matrices.nonfinite", "bounds.converges_calls",
    "bounds.y_max_calls",
)


COUNT_UNITS = {"matrices.flops": "flop_computed",
               "matrices.bytes": "B_computed"}


def layer_metrics(tracer: Tracer) -> Dict[str, tuple]:
    """The per-layer metrics of one traced pass, as (value, unit)."""
    total, own = tracer.times()

    def spent(prefix: str) -> float:
        return sum(v for k, v in total.items() if k.startswith(prefix))

    counts = tracer.counts
    pairs = counts["series.pairs"]
    out = {key: (counts[key], COUNT_UNITS.get(key, "count"))
           for key in COUNT_METRICS}
    out["series.skip_ratio"] = (
        1 - counts["series.pair_muls"] / pairs if pairs else 0.0, "ratio")
    out.update((name, (value, "s")) for name, value in {
        "engine.sym_s": spent("engine.symmetric_terms"),
        "engine.peel_s": total["engine.peel"],
        "freelie.canon_s": total["freelie.canon"],
        "freelie.expand_s": total["freelie.expand"],
        "structconst.sym_s": total["engine.symmetric_terms:ScModule"],
        "matrices.expm_s": total["matrices.expm"],
        "matrices.norm_s": total["matrices.norm"],
        "experiments.self_s": own["experiments.run_fig2"] + own["experiments.run_fig3"],
        "bounds.converges_s": total["bounds.converges"],
        "bounds.crude_s": total["bounds.crude_r_sequence"],
    }.items())
    return out
