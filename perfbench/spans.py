"""Spans and counters around calls into halfmatch's layers.

The traced run wraps the public functions listed in ``TIMED`` from outside
the package. A ``from .x import f`` statement copies the name into the
importing module, so each wrapper is installed at every module of the
package that binds the function (``blocking_edges`` alone is bound in
``core``, ``engine``, ``solvers``, ``io``, ``cli`` and the package root).
The untraced run installs nothing.

A span records name, start, end, parent span and request id. A span's
self time is its duration minus the part of it that its child spans
cover. Spans are kept in memory for one request at a time and folded
into a per-request profile when the request ends.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, NamedTuple

LAYERS = ("cli", "io", "solvers", "reductions", "engine", "core", "cover",
          "popularity", "simplex")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None  # index of the parent span in the same list
    request: int


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span: its duration minus the union of the
    intervals of its child spans, clipped to the span. Children that
    overlap one another are counted once."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out


# ---------------------------------------------------------------------------
# counters fed by the wrapped calls: hook(counts, args, result)


def _result_bytes(counts, args, result):
    counts["io.result_bytes"] += len(result.encode())


def _derived(counts, args, result):
    counts["reductions.derived_edges"] += len(result.inst.edges)
    counts["reductions.origin_edges"] += len(args[0].edges)


def _validated(counts, args, result):
    counts["core.validated_edges"] += len(result.edges)


def _scanned(counts, args, result):
    counts["core.edges_scanned"] += len(args[0].edges)


def _engine(counts, args, result):
    counts["engine.input_edges"] += len(args[0].edges)
    counts["engine.odd_cycles"] += len(result.odd_cycles)


def _cover_edges(counts, args, result):
    counts["cover.cover_edges"] += len(args[0].edges)


def _rivals(counts, args, result):
    counts["popularity.rivals_checked"] += result.checked


def _lp_cells(counts, args, result):
    costs, rows = args[0], args[1]
    counts["simplex.lp_cells"] += len(rows) * len(costs)


#: (module, function, span name, counter hook)
TIMED: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("cli", "main", "cli.main", None),
    ("io", "load_instance", "io.load_instance", None),
    ("io", "instance_digest", "io.instance_digest", None),
    ("io", "check_result", "io.check_result", None),
    ("io", "serialize_result", "io.serialize_result", _result_bytes),
    ("solvers", "solve_max_srti", "solvers.solve", None),
    ("solvers", "solve_max_gamma", "solvers.solve", None),
    ("solvers", "solve_max_pri", "solvers.solve", None),
    ("solvers", "solve_pop_crit", "solvers.solve", None),
    ("solvers", "solve_pop_maxw", "solvers.solve", None),
    ("solvers", "max_weight_dual", "solvers.max_weight_dual", None),
    ("solvers", "restrict_to_edges", "solvers.restrict_to_edges", None),
    ("reductions", "build_srti_reduction", "reductions.build", _derived),
    ("reductions", "build_gamma_reduction", "reductions.build", _derived),
    ("reductions", "build_pri_reduction", "reductions.build", _derived),
    ("reductions", "build_crit_reduction", "reductions.build", _derived),
    ("core", "validate_instance", "core.validate_instance", _validated),
    ("core", "blocking_edges", "core.blocking_edges", _scanned),
    ("engine", "stable_half_matching", "engine.stable_half_matching", _engine),
    ("engine", "brute_force_max_stable", "engine.brute_force", None),
    ("cover", "double_cover", "cover.double_cover", None),
    ("cover", "max_weight_cover_matching", "cover.max_weight_cover_matching",
     _cover_edges),
    ("cover", "max_cardinality_saturating", "cover.max_cardinality_saturating", None),
    ("popularity", "is_popular", "popularity.is_popular", _rivals),
    ("popularity", "delta_feasible", "popularity.delta_feasible", None),
    ("popularity", "delta_sensible", "popularity.delta_sensible", None),
    ("popularity", "min_cost_transport", "popularity.min_cost_transport", None),
    ("simplex", "solve_min", "simplex.solve_min", _lp_cells),
)

#: methods, wrapped on their class: (module, class, method, span name)
TIMED_METHODS = (("reductions", "DerivedInstance", "project", "reductions.project"),)

#: generators, whose yields are counted and never timed
COUNTED = (
    ("engine", "enumerate_half_matchings", "engine.enumerated"),
    ("engine", "iter_stable_half_matchings", "engine.stable_found"),
)

#: counters that depend only on the inputs and must repeat exactly
EXACT_COUNTERS = ("reductions.derived_edges", "core.validated_edges",
                  "core.edges_scanned", "engine.enumerated",
                  "popularity.rivals_checked", "simplex.lp_cells")


def is_exact(name: str) -> bool:
    return name in EXACT_COUNTERS or name.endswith(".calls")


class Tracer:
    """Records spans and counters while ``active``; wrappers pass calls
    straight through otherwise (the output checks run with it off)."""

    def __init__(self) -> None:
        self.active = False
        self.request = -1
        self.spans: list[Span | None] = []
        self.stack: list[tuple[int, str]] = []  # open spans: (index, name)
        self.counts: Counter = Counter()
        self._undo: list[tuple[Any, str, Any]] = []

    # -- installing -------------------------------------------------------

    def install(self, package: str = "halfmatch") -> None:
        mods = {name: mod for name, mod in sys.modules.items()
                if name == package or name.startswith(package + ".")}
        for mod, fname, span, hook in TIMED:
            self._rebind(mods, getattr(mods[f"{package}.{mod}"], fname),
                         self._timed(span, hook))
        for mod, fname, counter in COUNTED:
            self._rebind(mods, getattr(mods[f"{package}.{mod}"], fname),
                         self._counted(counter))
        for mod, cls_name, meth, span in TIMED_METHODS:
            cls = getattr(mods[f"{package}.{mod}"], cls_name)
            self._undo.append((cls, meth, cls.__dict__[meth]))
            setattr(cls, meth, self._timed(span, None)(cls.__dict__[meth]))

    def _rebind(self, mods, original, make_wrapper) -> None:
        wrapper = make_wrapper(original)
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name: str, hook):
        layer = name.split(".", 1)[0]

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                idx = len(self.spans)
                parent = self.stack[-1][0] if self.stack else None
                self.spans.append(None)
                self.stack.append((idx, name))
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    self.counts[f"{layer}.errors"] += 1
                    raise
                finally:
                    end = perf_counter()
                    self.stack.pop()
                    self.spans[idx] = Span(name, start, end, parent, self.request)
                if hook is not None:
                    hook(self.counts, args, result)
                return result
            return wrapper
        return make

    def _counted(self, counter: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if not self.active:
                    return gen
                in_brute = any(n == "engine.brute_force" for _, n in self.stack)
                return self._count_yields(gen, counter, in_brute)
            return wrapper
        return make

    def _count_yields(self, gen, counter, in_brute):
        for item in gen:
            self.counts[counter] += 1
            if in_brute and counter == "engine.enumerated":
                self.counts["engine.brute_enumerated"] += 1
            yield item

    # -- per request ------------------------------------------------------

    def begin(self, request: int) -> None:
        self.request = request
        self.active = True

    def end(self) -> Counter:
        """Stop recording and fold the request's spans into a profile of
        ``<span>.calls``, ``<span>.self_s`` and the raw counters."""
        self.active = False
        profile = Counter(self.counts)
        for s, t in zip(self.spans, self_times(self.spans)):
            profile[f"{s.name}.calls"] += 1
            profile[f"{s.name}.self_s"] += t
        self.spans = []
        self.counts = Counter()
        return profile
