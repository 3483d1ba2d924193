"""Exact-rational model of matching markets on general graphs.

Agents are vertices of a multigraph and rank their *incident edges*
(parallel edges are distinct alternatives, so two agents may share
several contracts). Matchings assign each edge a rational value with
per-vertex sums at most one. Every quantity is an exact rational, never
a float: valuations are `int`s when integral (as all parsed and
generated ones are; derived markets carry copy orders, not valuations),
all else is `Fraction`; predicates compare exactly. The predicates that
read a matching's masses scale it once by the lcm d of its value
denominators and sum each vertex's load as an integer over d; a market
is built with every gamma threshold scaled once, by the lcm of all
threshold denominators.

Instances and matchings are immutable by convention once built: all
operations here are pure functions of their inputs and safe to share
across concurrent tasks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count, groupby
from math import lcm
from typing import Any, Callable, Container, Iterable, Iterator, Mapping, NamedTuple, Sequence

Rational = int | str | Fraction

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)


class InstanceError(ValueError):
    """An instance description violates a structural rule."""


class MatchingError(ValueError):
    """A matching is invalid for the given instance."""


class VerificationFailed(RuntimeError):
    """A self-check failed; this indicates a bug, not bad input."""


class Edge(NamedTuple):
    eid: str
    u: str
    v: str


# the rational texts read alike on every supported Python: an optional sign
# and ASCII digits, as p, p/q or a decimal, with ASCII space around.
# ``Fraction`` alone takes more, and more from one version to the next
# ("1_000" from 3.11, "1 /2" from 3.12, non-ASCII digits on all)
_RATIONAL = re.compile(
    r"[ \t\n\r\f\v]*[-+]?(?:[0-9]+(?:/[0-9]+|\.[0-9]*)?|\.[0-9]+)[ \t\n\r\f\v]*")


def _rat(x: Rational) -> Fraction:
    """x as a ``Fraction``; anything but an int, a Fraction or a string of
    ``_RATIONAL`` with a nonzero denominator and digits ``int`` reads (a
    float, a bool, "1e5000", "1_000" or 5,000 digits, say) is an
    :class:`InstanceError`."""
    if isinstance(x, Fraction):
        return x
    if type(x) is int or (isinstance(x, str) and _RATIONAL.fullmatch(x)):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):  # ValueError: over int's digit limit
            pass
    raise InstanceError(f"{x!r} is not an exact rational (an int, str or Fraction)")


def _valuation(x: Rational) -> int | Fraction:
    """A valuation, held as an ``int`` when integral."""
    if type(x) is int:
        return x
    r = _rat(x)
    return r.numerator if r.denominator == 1 else r


def _vertex_set(critical: Iterable[str]) -> frozenset[str]:
    """``critical`` as a set; :class:`InstanceError` on a str, which would
    read as the set of its characters."""
    if isinstance(critical, str):
        raise InstanceError(
            f"a critical set is a collection of vertices, not the str {critical!r}")
    return frozenset(critical)


def _critical_set(critical: Iterable[str], known: Container[str]) -> frozenset[str]:
    """``critical`` as a set of vertices of ``known``; :class:`InstanceError`
    on a str (:func:`_vertex_set`), then on an unknown vertex, naming the least."""
    crit = _vertex_set(critical)
    unknown = sorted(v for v in crit if v not in known)
    if unknown:
        raise InstanceError(f"critical set contains unknown vertex {unknown[0]!r}")
    return crit


#: the views of an :class:`Instance`, by name
_VIEWS: dict[str, Callable[[Instance], Any]] = {
    "pref": lambda inst: {v: dict(zip(inst._ids(ranks), inst._values_of(v)))
                          for v, ranks in inst._ranks.items()},
    "gamma": lambda inst: None if inst._gamma_u is None else {
        end: (Fraction(g, inst._gamma_d), Fraction(delta, inst._gamma_d))
        for end, (g, delta) in inst.scaled_gamma()[1].items()},
    "_incident": lambda inst: {v: tuple(inst._ids(sorted(r))) for v, r in inst._ranks.items()},
}


class _View:
    """Builds a view on first read, kept as a plain attribute that shadows it
    (a ``cached_property`` turns an instance's values into a slower dict)."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __get__(self, inst: Any, owner: type) -> Any:
        if inst is None:
            return self
        object.__setattr__(inst, self.name, view := _VIEWS[self.name](inst))
        return view


@dataclass(frozen=True)
class Instance:
    """A preference market: vertices, (multi)edges, and per-vertex valuations.

    Built by ``_instance`` for :func:`validate_instance`, the front door,
    the parser, the generator and ``restrict_to_edges``. ``pref[v][eid]``
    is agent v's valuation of its incident edge (larger is better, ties
    allowed), above ``pref_empty[v]``, the value of staying unmatched.
    ``gamma`` maps ``(eid, v)`` to a pair with ``0 < gamma < delta``, or is
    None. Solvers may have to saturate the ``critical`` vertices. ``pref``,
    ``gamma`` and the id orders are views, built on first read, of the rank
    view stored: ``edges`` in id order (positions are ranks, ``_rank`` maps
    ids to them), v's edges best first, ties in id order (``_ranks[v]``),
    where each tie group starts (``_starts[v]``), and by rank, the index,
    valuation and thresholds (ints over the lcm ``_gamma_d``) of each end
    (``_end_u``, ``_value_u``, ``_gamma_u``: None where missing, empty
    without entries, None without a threshold mapping)."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    pref_empty: Mapping[str, int | Fraction]
    weights: Mapping[str, Fraction] | None
    critical: frozenset[str]
    _ranks: Mapping[str, tuple[int, ...]]
    _starts: Mapping[str, tuple[int, ...]]
    _end_u: Sequence[int]
    _end_v: Sequence[int]
    _value_u: Sequence[int | Fraction]
    _value_v: Sequence[int | Fraction]
    _rank: Mapping[str, int]
    _index: Mapping[str, int]
    _gamma_u: Sequence[tuple[int, int] | None] | None = None
    _gamma_v: Sequence[tuple[int, int] | None] | None = None
    _gamma_d: int = 1
    pref, gamma, _incident = map(_View, _VIEWS)  # not fields: views, built on first read

    def _ids(self, ranks: Iterable[int]) -> list[str]:
        return [self.edges[r].eid for r in ranks]

    def _values_of(self, v: str) -> list[int | Fraction]:  # in v's order
        x, ends, pu, pv = self._index[v], self._end_u, self._value_u, self._value_v
        return [pu[r] if ends[r] == x else pv[r] for r in self._ranks[v]]

    # -- structure ----------------------------------------------------

    def incident(self, v: str) -> tuple[str, ...]:
        """Edge ids at v, sorted by id (the canonical incidence order)."""
        return self._incident[v]

    def edge(self, eid: str) -> Edge:
        return self.edges[self._rank[eid]]

    def index(self, v: str) -> int:
        """Position of v in the canonical vertex list (fixes orientation)."""
        return self._index[v]

    # -- preferences ---------------------------------------------------

    def pval(self, v: str, eid: str) -> int | Fraction:
        try:
            return self.pref[v][eid]
        except KeyError:
            raise InstanceError(f"no preference of {v!r} for edge {eid!r}") from None

    def pempty(self, v: str) -> int | Fraction:
        return self.pref_empty[v]

    def is_strict(self) -> bool:
        """Whether every vertex's valuation is injective on its edges."""
        return all(map(self._is_strict_at, self.vertices))

    def _is_strict_at(self, v: str) -> bool:
        return len(self._starts[v]) == len(self._ranks[v])

    def require_strict(self, what: str = "this operation") -> None:
        if not self.is_strict():
            raise InstanceError(f"{what} requires strict (tie-free) preferences")

    def tie_classes(self, v: str) -> list[list[str]]:
        """Incident edges grouped by equal valuation, best group first.

        Edges inside a group are in canonical id order.
        """
        order, starts = self._ids(self._ranks[v]), self._starts[v]
        return [order[i:j] for i, j in zip(starts, starts[1:] + (len(order),))]

    def strict_order(self, v: str) -> list[str]:
        """Incident edges best-first; requires a tie-free valuation at v."""
        return self._ids(self.strict_ranks(v))

    def strict_ranks(self, v: str) -> tuple[int, ...]:
        """:meth:`strict_order` as edge ranks (positions in ``edges``)."""
        if not self._is_strict_at(v):
            raise InstanceError(f"strict preferences required: vertex {v!r} has ties")
        return self._ranks[v]

    def has_full_gamma(self) -> bool:
        gu, gv = self._gamma_u, self._gamma_v
        return None not in gu and None not in gv if gu else not self.edges  # vacuous without edges

    def scaled_gamma(self) -> tuple[int, Mapping[tuple[str, str], tuple[int, int]]]:
        """The lcm d of all threshold denominators, and each key of ``gamma``
        mapped to its pair times d, as ints (empty without thresholds)."""
        ends = ((eid, x) for eid, u, v in self.edges for x in (u, v))
        pairs = chain.from_iterable(zip(self._gamma_u or (), self._gamma_v or ()))
        return self._gamma_d, {end: t for end, t in zip(ends, pairs) if t is not None}


def _instance(
    vertices: Iterable[str],
    edges: Iterable[Edge],
    groups: Mapping[str, Sequence[Sequence[str]]],
    values: Mapping[str, Sequence[int | Fraction]] | None = None,
    pref_empty: Mapping[str, int | Fraction] | None = None,
    weights: Mapping[str, Rational] | None = None,
    gamma: Iterable[tuple[str, Mapping[str, Mapping[str, Any]]]] | None = None,
    critical: Iterable[str] | None = None,
    read: Callable[[Any], Fraction] = _rat,
) -> Instance:
    """The market whose vertex v ranks its edges in the tie groups
    ``groups[v]`` (edge ids, best first, any order inside a group; empty
    groups skipped), valued as ``values[v]`` lists them or by their count
    down to 1, with each edge's thresholds by endpoint in ``gamma``, as an
    instance file holds them (``{"gamma": g, "delta": d}``): each end's pair
    is keyed on g and d as given, equal keys being equal thresholds, and
    each distinct pair is read once, by ``read``. Each input is read in one
    pass, which notices any fault; the first is then named. Raises
    :class:`InstanceError` at the first of: duplicate vertex ids; an edge
    with a repeated id, an unknown endpoint or a loop; groups of an unknown
    vertex; a vertex whose groups miss its edge (the first by id), name
    another or name one twice; a weight or threshold of an unknown edge; a
    threshold of an endpoint off its edge or not ``0 < gamma < delta``; an
    unknown critical vertex."""
    vs = tuple(vertices)
    index = {v: i for i, v in enumerate(vs)}
    if len(index) != len(vs):
        raise InstanceError("duplicate vertex ids")
    by_id: dict[str, Edge] = {}
    for e in edges:
        eid, u, v = e
        if eid in by_id:
            raise InstanceError(f"duplicate edge id {eid!r}")
        if u not in index or v not in index:
            raise InstanceError(f"edge {eid!r} has an unknown endpoint")
        if u == v:
            raise InstanceError(f"edge {eid!r} is a loop; loops are forbidden")
        by_id[eid] = e
    rank = {eid: r for r, eid in enumerate(sorted(by_id))}  # edge id -> edge rank
    es = tuple(map(by_id.__getitem__, rank))
    for v in groups:
        if v not in index:
            raise InstanceError(f"preferences given for unknown vertex {v!r}")

    E, rank_of = len(es), rank.__getitem__
    end_u, end_v = [index[e.u] for e in es], [index[e.v] for e in es]
    value_u, value_v = [None] * E, [None] * E  # None: not valued yet
    ranks, starts, stray, placed = {}, {}, False, 0
    try:
        for x, v in enumerate(vs):
            gs = groups.get(v, ())
            order, first = [], []
            vals = iter(values.get(v, ())) if values else count(len(gs) - gs.count([]), -1)
            for group in gs:
                if group:
                    first.append(len(order))
                    rs = sorted(map(rank_of, group)) if len(group) > 1 else [rank_of(group[0])]
                    order += rs
                    p = next(vals)
                    for r in rs:
                        if end_u[r] == x:
                            value_u[r] = p
                        elif end_v[r] == x:
                            value_v[r] = p
                        else:
                            stray = True
            ranks[v], starts[v] = tuple(order), tuple(first)
            placed += len(order)
    except KeyError:  # an id of no edge
        stray = True
    # each of the 2E ends valued, by 2E mentions: each end exactly once
    if stray or placed != 2 * E or None in value_u or None in value_v:
        for v in vs:  # the first vertex at fault
            listed = [eid for group in groups.get(v, ()) for eid in group]
            mine, ends = set(listed), {e.eid for e in es if v == e.u or v == e.v}
            if ends - mine:
                raise InstanceError(f"missing preference of {v!r} for edge {min(ends - mine)!r}")
            if mine - ends:
                raise InstanceError(
                    f"preference of {v!r} for non-incident edge {min(mine - ends)!r}")
            if len(listed) > len(mine):
                raise InstanceError(f"preferences of {v!r} name an edge twice")

    w = None
    if weights is not None:
        w = {}
        for eid, val in weights.items():
            if eid not in rank:
                raise InstanceError(f"weight for unknown edge {eid!r}")
            w[eid] = _rat(val)

    at_u, at_v, d = None, None, 1
    if gamma is not None:
        distinct, empty = {}, {}  # g -> d -> (p, q, r, s): gamma is p/q and delta r/s
        at_u, at_v = [None] * E, [None] * E  # each end's (p, q, r, s), by edge rank
        for eid, sides in gamma:
            r = rank.get(eid)
            if r is None:
                raise InstanceError(f"gamma for unknown edge {eid!r}")
            _, u, other = es[r]
            for v, pair in sides.items():
                if v != u and v != other:
                    raise InstanceError(f"gamma endpoint {v!r} not on edge {eid!r}")
                ints = distinct.get(pair["gamma"], empty).get(pair["delta"])
                if ints is None:
                    glo, ghi = read(pair["gamma"]), read(pair["delta"])
                    if not (0 < glo < ghi):
                        raise InstanceError(
                            f"edge {eid!r} at {v!r}: gamma must be positive and < delta")
                    ints = glo.as_integer_ratio() + ghi.as_integer_ratio()
                    distinct.setdefault(pair["gamma"], {})[pair["delta"]] = ints
                (at_u if v == u else at_v)[r] = ints
        ints = {k for row in distinct.values() for k in row.values()}
        d = lcm(*(k[1] for k in ints), *(k[3] for k in ints))  # 1 without entries
        scaled = {k: (k[0] * (d // k[1]), k[2] * (d // k[3])) for k in ints}
        at_u, at_v = (list(map(scaled.get, side)) if ints else () for side in (at_u, at_v))

    crit = _critical_set(() if critical is None else critical, index)

    return Instance(
        vertices=vs, edges=es, weights=w, critical=crit,
        pref_empty=dict.fromkeys(vs, 0) if pref_empty is None else pref_empty,
        _ranks=ranks, _starts=starts, _end_u=end_u, _end_v=end_v, _value_u=value_u,
        _value_v=value_v, _rank=rank, _index=index, _gamma_u=at_u, _gamma_v=at_v, _gamma_d=d,
    )


def validate_instance(
    vertices: Sequence[str],
    edges: Iterable[tuple[str, str, str]],
    pref: Mapping[str, Mapping[str, Rational]],
    pref_empty: Mapping[str, Rational] | None = None,
    weights: Mapping[str, Rational] | None = None,
    gamma: Mapping[tuple[str, str], tuple[Rational, Rational]] | None = None,
    critical: Iterable[str] | None = None,
) -> Instance:
    """Check and canonicalize a raw instance description.

    ``pref_empty`` is checked first (an unknown vertex, a value above 0),
    then each vertex's valuations in edge-id order (not an exact rational,
    negative, not above its unmatched value). Equal ones form tie groups for
    the constructor the parser and the generator use, which names any other
    fault, gamma entries in the mapping's order; every (gamma, delta) pair
    is read as exact rationals before that. Pairs of equal value are stored
    once."""
    vs = tuple(vertices)
    p_empty: dict[str, int | Fraction] = dict.fromkeys(vs, 0)
    if pref_empty:
        for v, val in pref_empty.items():
            if v not in p_empty:
                raise InstanceError(f"pref_empty for unknown vertex {v!r}")
            r = _valuation(val)
            if r > 0:
                raise InstanceError(f"pref_empty of {v!r} must be <= 0")
            p_empty[v] = r
    groups, values = {}, {}
    for v, given in pref.items():
        mine: dict[str, int | Fraction] = {}
        for eid in sorted(given):
            p = mine[eid] = _valuation(given[eid])
            if p < 0:
                raise InstanceError(f"preference of {v!r} for {eid!r} is negative")
            if p <= p_empty.get(v, 0):
                raise InstanceError(
                    f"preference of {v!r} for {eid!r} must exceed the unmatched value")
        order = sorted(mine, key=mine.__getitem__, reverse=True)  # stable: ties in id order
        groups[v] = [list(g) for _, g in groupby(order, mine.__getitem__)]
        values[v] = [mine[g[0]] for g in groups[v]]
    entries = None if gamma is None else [  # read first, to (p, q): no float is a key
        (eid, {v: {"gamma": _rat(g).as_integer_ratio(), "delta": _rat(dl).as_integer_ratio()}})
        for (eid, v), (g, dl) in gamma.items()]
    return _instance(vs, map(Edge._make, edges), groups, values, p_empty, weights, entries,
                     critical, read=lambda pq: Fraction(*pq))


# ---------------------------------------------------------------------------
# matchings


def matching_size(m: Mapping[str, Fraction]) -> Fraction:
    return sum(m.values(), ZERO)


def _loads(inst: Instance, m: Mapping[str, Fraction]) -> tuple[int, dict[str, int]]:
    """m scaled once: the lcm d of its value denominators, and every
    vertex's load times d, in canonical vertex order.

    Values on edges the instance lacks are skipped.
    """
    d = lcm(*(val.denominator for val in m.values()))
    load = dict.fromkeys(inst.vertices, 0)
    rank, edges = inst._rank, inst.edges
    for eid, val in m.items():
        r = rank.get(eid)
        if r is not None:
            x = val.numerator * (d // val.denominator)
            _, u, v = edges[r]
            load[u] += x
            load[v] += x
    return d, load


def vertex_load(inst: Instance, m: Mapping[str, Fraction], v: str) -> Fraction:
    d, load = _loads(inst, {eid: m[eid] for eid in inst.incident(v) if eid in m})
    return Fraction(load[v], d)


def check_matching(inst: Instance, m: Mapping[str, Fraction], half: bool = False) -> None:
    """Raise :class:`MatchingError` unless m is a valid (half-)matching.

    Each value p/q is checked on its own numerator and denominator, in
    m's order; only then are the loads summed, as integers over the lcm
    d of the denominators, and the first vertex in canonical order whose
    load exceeds d is named.
    """
    for eid, val in m.items():
        if eid not in inst._rank:
            raise MatchingError(f"value for unknown edge {eid!r}")
        if not isinstance(val, Fraction):
            raise MatchingError(f"value of {eid!r} is not an exact rational")
        p, q = val.numerator, val.denominator
        if p < 0 or p > q:
            raise MatchingError(f"value of {eid!r} outside [0, 1]")
        if half and q > 2:  # in lowest terms, so p/q is 0, 1/2 or 1
            raise MatchingError(f"value of {eid!r} is not in {{0, 1/2, 1}}")
    d, load = _loads(inst, m)
    for v, x in load.items():
        if x > d:
            raise MatchingError(f"vertex {v!r} exceeds unit load")


def is_half_matching(m: Mapping[str, Fraction]) -> bool:
    return all(val in (ZERO, HALF, ONE) for val in m.values())


def is_saturated(inst: Instance, m: Mapping[str, Fraction], v: str) -> bool:
    return vertex_load(inst, m, v) == 1


def saturated_vertices(inst: Instance, m: Mapping[str, Fraction]) -> set[str]:
    """The vertices m saturates, from one pass over m."""
    d, load = _loads(inst, m)
    return {v for v, x in load.items() if x == d}


def _assigned_values(inst: Instance, held: Iterable[int], saturated: Sequence[bool]
                     ) -> list[int | Fraction]:
    """Every agent's assigned value, by vertex index: a saturated agent's
    minimum valuation over its edges among the ranks ``held`` (those held
    with positive value), any other agent's ``pref_empty``."""
    eu, ev, pu, pv = inst._end_u, inst._end_v, inst._value_u, inst._value_v
    empty = inst.pref_empty
    # None: a saturated agent none of whose held edges is read yet
    assigned = [None if full else empty[v] for v, full in zip(inst.vertices, saturated)]
    for r in held:
        u, v = eu[r], ev[r]
        if saturated[u] and (assigned[u] is None or pu[r] < assigned[u]):
            assigned[u] = pu[r]
        if saturated[v] and (assigned[v] is None or pv[r] < assigned[v]):
            assigned[v] = pv[r]
    return assigned


def _assigned(inst: Instance, m: Mapping[str, Fraction]) -> dict[str, int | Fraction]:
    """Every agent's assigned value, from m's loads and one pass over its support.

    Saturated agents are valued by the minimum over edges they hold with
    positive weight; unsaturated agents by ``pref_empty``.
    """
    d, load = _loads(inst, m)
    rank = inst._rank
    held = [rank[eid] for eid, val in m.items() if val.numerator > 0 and eid in rank]
    return dict(zip(inst.vertices, _assigned_values(inst, held, [x == d for x in load.values()])))


def assigned_value(inst: Instance, v: str, m: Mapping[str, Fraction]) -> int | Fraction:
    """Agent v's worst positively-held edge value, or the unmatched value."""
    return _assigned(inst, m)[v]


def _check_mode(inst: Instance, mode: str) -> None:
    """Raise unless ``mode`` names a blocking rule that ``inst`` supports."""
    if mode not in ("weak", "gamma"):
        raise ValueError(f"unknown blocking mode {mode!r}")
    if mode == "gamma" and not inst.has_full_gamma():
        raise InstanceError("gamma mode requires gamma/delta on every (edge, endpoint)")


def _blocking(inst: Instance, mode: str, assigned: Sequence[int | Fraction],
              full: Container[int]) -> Iterator[int]:
    """The ranks of the edges that block, in rank order, when the vertex of
    index x is assigned ``assigned[x]`` and ``full`` holds the ranks of the
    edges at value one or more: the rules of :func:`blocking_edges`, for a
    mode :func:`_check_mode` passed. Lazy, so a caller can stop at the first."""
    ends = zip(count(), inst._end_u, inst._end_v, inst._value_u, inst._value_v)
    if mode == "weak":
        yield from (r for r, u, v, pu, pv in ends
                    if pu > assigned[u] and pv > assigned[v] and r not in full)
        return
    d = inst._gamma_d
    for (r, u, v, pu, pv), (gu, deltau), (gv, deltav) in zip(
            ends, inst._gamma_u or (), inst._gamma_v or ()):
        du = (pu - assigned[u]) * d
        dv = (pv - assigned[v]) * d
        if (du >= gu and dv >= deltav) or (du >= deltau and dv >= gv):
            yield r


def blocking_edges(
    inst: Instance, m: Mapping[str, Fraction], mode: str = "weak"
) -> list[str]:
    """Edges that destabilize m, in canonical id order.

    ``weak`` mode lists every edge with value below one whose endpoints
    both strictly prefer it to their assigned values. ``gamma`` mode uses
    the two-threshold test: edge e=(u,v) blocks when the improvement is
    at least gamma at one endpoint and at least delta at the other, in
    either orientation; it requires gamma/delta on every (edge, endpoint).
    An empty result certifies weak stability / gamma-stability.
    """
    _check_mode(inst, mode)
    assigned = list(_assigned(inst, m).values())
    rank, edges = inst._rank, inst.edges
    full = {rank[eid] for eid, val in m.items() if val >= 1 and eid in rank}
    return [edges[r].eid for r in _blocking(inst, mode, assigned, full)]


@dataclass(frozen=True)
class MatchingStats:
    size: Fraction
    saturated: tuple[str, ...]
    unsaturated: tuple[str, ...]
    integral: bool
    critical_ok: bool


def matching_stats(
    inst: Instance, m: Mapping[str, Fraction], critical: Iterable[str] | None = None
) -> MatchingStats:
    """Aggregate size, saturation, integrality and critical coverage of m; a
    critical vertex the instance does not have counts as left open, and a
    str as a critical set is refused."""
    crit = inst.critical if critical is None else _vertex_set(critical)
    d, load = _loads(inst, m)
    sat = tuple(v for v, x in load.items() if x == d)
    sat_set = set(sat)
    return MatchingStats(
        size=matching_size(m),
        saturated=sat,
        unsaturated=tuple(v for v in inst.vertices if v not in sat_set),
        integral=all(val in (ZERO, ONE) for val in m.values()),
        critical_ok=crit <= sat_set,
    )
