"""Spans around qschur's public entry points, installed from outside the package.

:func:`install` replaces each traced function with a wrapper in every
``qschur`` module that binds it (``from .series import series_inverse``
gives ``determinant`` and ``identities`` bindings of their own), and wraps
the arithmetic operators on their classes.  Spans stay in memory in a
:class:`Recorder` and are written out once, when the traced process ends.

A span is ``[name, parent, open_ns, start_ns, end_ns, cover_ns, job, extra]``,
with ``name`` as ``<layer>:<function>`` and ``parent`` the index of the
enclosing span (-1 at top level).  The wrapper's own bookkeeping runs from
``open_ns`` to ``start_ns`` (its ``before`` hook) and from ``end_ns`` to
``cover_ns`` (computing ``extra``).  Self time subtracts each child's whole
``open..cover`` interval, and inclusive time subtracts the bookkeeping of
every descendant, so that bookkeeping is charged to no layer.  The wrappers'
call overhead outside those intervals is not subtracted; ``trace.overhead_frac``
gives its size.  Spans with ``job < 0`` belong to set-up and are not
aggregated.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import json
import resource
import sys
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable


class Recorder:
    """Spans of one traced process; ``job`` tags the spans opened next."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.missing: list[str] = []  # traced names qschur no longer has

    def write(self, path: str) -> None:
        """A header line ``{"missing": [...]}``, then one span per line."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"missing": self.missing}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")


# -- per-span extras, computed after the span's end timestamp ----------------


def _inverse_terms(_token, args, _result) -> int:
    """Input window length of one ``series_inverse`` call."""
    return len(args[0].coeffs)


def _pairs_below(a, b, limit: int | None) -> int:
    """Nonzero coefficient pairs ``a_i b_j`` with ``i + j < limit`` (None: all)."""
    nz_b = [j for j, c in enumerate(b) if c]
    if limit is None:
        return sum(1 for c in a if c) * len(nz_b)
    if limit <= 0:
        return 0
    below = [0] * (limit + 1)  # below[t]: nonzero b_j with j < t
    for j in nz_b:
        if j < limit:
            below[j + 1] += 1
    for t in range(1, limit + 1):
        below[t] += below[t - 1]
    return sum(below[limit - i] for i, c in enumerate(a[:limit]) if c)


def _mul_stats(_token, args, result) -> list[int] | None:
    """``[coefficient products, widest input coefficient in bits]``.

    A ``QSeries`` result keeps exponents up to its order only, a
    ``LaurentPoly`` result keeps all of them.  None when the call returned
    NotImplemented.
    """
    a, b = args
    if result is NotImplemented:
        return None
    if isinstance(b, int):
        return [sum(1 for c in a.coeffs if c), abs(b).bit_length()]
    limit = None
    if hasattr(result, "order"):
        limit = result.order - (a.min_exp + b.min_exp) + 1
    bits = max((abs(c).bit_length() for c in (*a.coeffs, *b.coeffs)), default=0)
    return [_pairs_below(a.coeffs, b.coeffs, limit), bits]


def _series_mul_stats(token, args, result) -> list[int] | None:
    """As :func:`_mul_stats`; a series times a polynomial is counted by the
    ``times_poly`` span it delegates to."""
    a, b = args
    if not isinstance(b, (int, type(a))):
        return None
    return _mul_stats(token, args, result)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _rss_growth(token, _args, _result) -> int:
    return _maxrss_kb() - token


# -- what is traced ------------------------------------------------------------

# (module, attribute, layer, before, after) for module-level functions.
FUNCTIONS = [
    ("qschur.series", "series_inverse", "series.inverse", None, _inverse_terms),
    ("qschur.series", "series_first_mismatch", "series.mismatch", None, None),
    ("qschur.series", "poly_first_mismatch", "series.mismatch", None, None),
    ("qschur.schur", "schur_D", "schur.table", _maxrss_kb, _rss_growth),
    ("qschur.schur", "schur_E", "schur.table", _maxrss_kb, _rss_growth),
    ("qschur.schur", "schur_polynomial", "schur.table", _maxrss_kb, _rss_growth),
    ("qschur.determinant", "schur_finite", "determinant.finite", None, None),
    ("qschur.determinant", "decompose", "determinant.decompose", None, None),
    ("qschur.determinant", "schur_x1_series", "determinant.sum_side", None, None),
    ("qschur.identities", "rr_product_first", "identities.product", None, None),
    ("qschur.identities", "rr_product_second", "identities.product", None, None),
    ("qschur.identities", "gis_rhs", "identities.rhs", None, None),
    ("qschur.reports", "compare_series", "reports.compare", None, None),
    ("qschur.cli", "canonical_json", "cli.render", None, None),
    ("qschur.cli", "poly_document", "cli.render", None, None),
    ("qschur.cli", "qseries_document", "cli.render", None, None),
    ("qschur.cli", "format_series_table", "cli.render", None, None),
]

# (module, class, attribute, layer, after) for methods.  Aliases such as
# ``__radd__ = __add__`` are found by identity and share the wrapper.
METHODS = [
    ("qschur.series", "LaurentPoly", "__mul__", "series.mul", _mul_stats),
    ("qschur.series", "QSeries", "__mul__", "series.mul", _series_mul_stats),
    ("qschur.series", "QSeries", "times_poly", "series.mul", _mul_stats),
    ("qschur.series", "LaurentPoly", "__add__", "series.add", None),
    ("qschur.series", "LaurentPoly", "__sub__", "series.add", None),
    ("qschur.series", "LaurentPoly", "__rsub__", "series.add", None),
    ("qschur.series", "QSeries", "__add__", "series.add", None),
    ("qschur.series", "QSeries", "__sub__", "series.add", None),
    ("qschur.series", "LaurentPoly", "__str__", "cli.render", None),
    ("qschur.series", "QSeries", "__str__", "cli.render", None),
    ("qschur.reports", "VerificationReport", "to_text", "cli.render", None),
    ("qschur.reports", "VerificationReport", "to_json_obj", "cli.render", None),
]

#: Layers whose spans are coefficient arithmetic: a table or cache call with
#: none of these below it was served from memory.
ARITHMETIC = frozenset({"series.inverse", "series.mul", "series.add"})


def _wrap(fn, name: str, recorder: Recorder, before, after):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack, spans = recorder.stack, recorder.spans
        span = [name, stack[-1] if stack else -1, 0, 0, 0, 0, recorder.job, None]
        stack.append(len(spans))
        spans.append(span)
        if before is None:
            token = None
            span[2] = span[3] = perf_counter_ns()
        else:
            span[2] = perf_counter_ns()
            token = before()
            span[3] = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[4] = span[5] = perf_counter_ns()
            stack.pop()
        if after is not None:
            span[7] = after(token, args, result)
            span[5] = perf_counter_ns()
        return result

    traced.bench_span = name
    return traced


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every traced entry point; returns a function that undoes it.

    A traced name missing from the installed qschur is skipped and listed in
    ``recorder.missing``: its work then runs unwrapped and is charged to the
    caller, so the run reports it instead of showing its layer's drop to
    zero as a gain.
    """
    importlib.import_module("qschur.cli")  # imports every layer
    wrappers: dict[int, tuple[object, Callable]] = {}  # id(original) -> pair
    for mod_name, attr, layer, before, after in FUNCTIONS:
        fn = getattr(sys.modules.get(mod_name), attr, None)
        if fn is None:
            recorder.missing.append(f"{mod_name}.{attr}")
        elif id(fn) not in wrappers:
            wrappers[id(fn)] = (fn, _wrap(fn, f"{layer}:{attr}", recorder, before, after))
    owners = []
    for mod_name, cls_name, attr, layer, after in METHODS:
        cls = getattr(sys.modules.get(mod_name), cls_name, None)
        fn = vars(cls).get(attr) if cls is not None else None
        if fn is None:
            recorder.missing.append(f"{mod_name}.{cls_name}.{attr}")
        elif id(fn) not in wrappers:
            name = f"{layer}:{cls_name}.{attr}"
            wrappers[id(fn)] = (fn, _wrap(fn, name, recorder, None, after))
            owners.append(cls)
    owners += [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "qschur"]

    undo = []
    for owner in dict.fromkeys(owners):
        for attr, value in list(vars(owner).items()):
            pair = wrappers.get(id(value))
            if pair is not None and pair[0] is value:
                setattr(owner, attr, pair[1])
                undo.append((owner, attr, value))
    cli = sys.modules["qschur.cli"]
    cli.print = _wrap(builtins.print, "cli.render:print", recorder, None, None)

    def uninstall() -> None:
        for owner, attr, value in undo:
            setattr(owner, attr, value)
        del cli.print

    return uninstall


# -- aggregation ---------------------------------------------------------------


class LayerTotals:
    """Per-layer sums over the spans of many traced jobs."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.inclusive_ns: dict[str, int] = defaultdict(int)
        self.outer_calls: dict[str, int] = defaultdict(int)
        self.outer_hits: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.extra_sum: dict[str, int] = defaultdict(int)
        self.mul_ops = 0
        self.mul_max_bits = 0

    def add(self, spans: list[list]) -> None:
        """Fold in the spans of one process (parent indices are per process)."""
        n = len(spans)
        layer = [s[0].split(":", 1)[0] for s in spans]
        child_cover = [0] * n  # open..cover of the direct children
        bookkeeping_below = [0] * n  # wrapper bookkeeping of all descendants
        arith_below = [False] * n
        for i in range(n - 1, -1, -1):  # children come after their parent
            _name, parent, opened, start, end, cover = spans[i][:6]
            if parent >= 0:
                child_cover[parent] += cover - opened
                bookkeeping_below[parent] += (
                    bookkeeping_below[i] + (start - opened) + (cover - end)
                )
                if arith_below[i] or layer[i] in ARITHMETIC:
                    arith_below[parent] = True
        on_path: list[frozenset] = [frozenset()] * n  # layers of i and its ancestors
        for i, (_name, parent, _open, start, end, _cover, job, extra) in enumerate(spans):
            lay = layer[i]
            above = on_path[parent] if parent >= 0 else frozenset()
            outermost = lay not in above
            on_path[i] = above | {lay} if outermost else above
            if job < 0:
                continue
            self.self_ns[lay] += end - start - child_cover[i]
            if outermost:
                self.inclusive_ns[lay] += end - start - bookkeeping_below[i]
                self.outer_calls[lay] += 1
                self.outer_hits[lay] += not arith_below[i]
            if lay == "series.mul":
                if extra is not None:
                    self.calls[lay] += 1
                    self.mul_ops += extra[0]
                    self.mul_max_bits = max(self.mul_max_bits, extra[1])
            else:
                self.calls[lay] += 1
                if extra is not None and (outermost or lay != "schur.table"):
                    self.extra_sum[lay] += extra

    def metrics(self, jobs: int) -> dict[str, float]:
        """Per-layer metrics; sums are per traced job, ratios over calls."""
        per_job = 1.0 / max(jobs, 1)

        def seconds(ns: int) -> float:
            return ns * 1e-9 * per_job

        def hit_ratio(lay: str) -> float:
            calls = self.outer_calls[lay]
            return self.outer_hits[lay] / calls if calls else 0.0

        return {
            "series.inverse_s": seconds(self.self_ns["series.inverse"]),
            "series.inverse_calls": self.calls["series.inverse"] * per_job,
            "series.inverse_terms": self.extra_sum["series.inverse"] * per_job,
            "series.mul_s": seconds(self.self_ns["series.mul"]),
            "series.mul_calls": self.calls["series.mul"] * per_job,
            "series.mul_ops": self.mul_ops * per_job,
            "series.mul_max_bits": float(self.mul_max_bits),
            "series.add_s": seconds(self.self_ns["series.add"]),
            "series.mismatch_s": seconds(self.self_ns["series.mismatch"]),
            "schur.table_s": seconds(self.inclusive_ns["schur.table"]),
            "schur.table_calls": self.outer_calls["schur.table"] * per_job,
            "schur.table_hit_ratio": hit_ratio("schur.table"),
            "schur.table_rss_mb": self.extra_sum["schur.table"] / 1024 * per_job,
            "determinant.finite_s": seconds(self.inclusive_ns["determinant.finite"]),
            "determinant.decompose_s": seconds(self.inclusive_ns["determinant.decompose"]),
            "determinant.sum_side_s": seconds(self.inclusive_ns["determinant.sum_side"]),
            "identities.product_s": seconds(self.inclusive_ns["identities.product"]),
            "identities.product_calls": self.outer_calls["identities.product"] * per_job,
            "identities.product_hit_ratio": hit_ratio("identities.product"),
            "identities.rhs_s": seconds(self.self_ns["identities.rhs"]),
            "reports.compare_s": seconds(self.inclusive_ns["reports.compare"]),
            "cli.render_s": seconds(self.inclusive_ns["cli.render"]),
        }
