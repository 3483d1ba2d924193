"""Exact-rational model of matching markets on general graphs.

Agents are vertices of a multigraph and rank their *incident edges*
(parallel edges are distinct alternatives, so two agents may share
several contracts). Matchings assign each edge a rational value with
per-vertex sums at most one. Every quantity is an exact rational, never
a float: valuations are `int`s when integral (as all parsed and
generated ones are; derived markets carry copy orders, not valuations),
all else is `Fraction`; predicates compare exactly. The predicates that
read a matching's masses scale it once by the lcm d of its value
denominators and sum each vertex's load as an integer over d; validation
likewise scales every gamma threshold once, by the lcm of all threshold
denominators.

Instances and matchings are immutable by convention once built: all
operations here are pure functions of their inputs and safe to share
across concurrent tasks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, count
from math import lcm
from operator import ne
from typing import Iterable, Mapping, NamedTuple, Sequence

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


def _preferences(v: str, ids: Sequence[str], given: Mapping[str, Rational],
                 empty: int | Fraction) -> dict[str, int | Fraction]:
    """v's valuations of its incident edges ``ids``, read entry by entry,
    so that the first bad entry is the one named."""
    mine = {}
    for eid in ids:
        if eid not in given:
            raise InstanceError(f"missing preference of {v!r} for edge {eid!r}")
        r = _valuation(given[eid])
        if r < 0:
            raise InstanceError(f"preference of {v!r} for {eid!r} is negative")
        if r <= empty:
            raise InstanceError(
                f"preference of {v!r} for {eid!r} must exceed the unmatched value")
        mine[eid] = r
    return mine


@dataclass(frozen=True)
class Instance:
    """A preference market: vertices, (multi)edges, and per-vertex valuations.

    Construct through :func:`validate_instance`, which canonicalizes and
    checks every invariant.
    ``pref[v][eid]`` is agent v's valuation of its incident edge; larger is
    better, ties allowed. ``pref_empty[v]`` is the value of staying unmatched
    and is strictly below every incident edge. ``gamma`` optionally maps
    ``(eid, v)`` to a ``(gamma, delta)`` pair of improvement thresholds with
    ``0 < gamma < delta``. ``critical`` is an optional set of vertices that
    solvers may be required to saturate. ``_order[v]`` lists v's incident
    edges best first, ties in edge-id order; ``_ranks[v]`` is the same order
    as edge ranks (positions in ``edges``, which ``_rank`` maps each edge id
    to), and ``_starts[v]`` the position in it where each tie group starts,
    so v has a tie when it has fewer starts than edges, and ``_values[v]``
    its valuations in that order. Validation scales each distinct threshold
    pair once, to ints over the lcm ``_gamma_d`` of all threshold
    denominators: ``_gamma_u[r]`` and ``_gamma_v[r]`` are the pair at the
    ``u`` and the ``v`` end of the edge of rank r, or ``None``, and
    :meth:`scaled_gamma` is a view of the two, built when called.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    pref: Mapping[str, Mapping[str, int | Fraction]]
    pref_empty: Mapping[str, int | Fraction]
    weights: Mapping[str, Fraction] | None
    gamma: Mapping[tuple[str, str], tuple[Fraction, Fraction]] | None
    critical: frozenset[str]
    _incident: Mapping[str, tuple[str, ...]]
    _order: Mapping[str, tuple[str, ...]]
    _ranks: Mapping[str, tuple[int, ...]]
    _starts: Mapping[str, tuple[int, ...]]
    _values: Mapping[str, Sequence[int | Fraction]]
    _by_id: Mapping[str, Edge]
    _rank: Mapping[str, int]
    _index: Mapping[str, int]
    _gamma_u: Sequence[tuple[int, int] | None]
    _gamma_v: Sequence[tuple[int, int] | None]
    _gamma_d: int = 1

    # -- structure ----------------------------------------------------

    def incident(self, v: str) -> tuple[str, ...]:
        """Edge ids at v, sorted by id (the canonical incidence order)."""
        return self._incident[v]

    def edge(self, eid: str) -> Edge:
        return self._by_id[eid]

    def other(self, eid: str, v: str) -> str:
        e = self._by_id[eid]
        if v == e.u:
            return e.v
        if v == e.v:
            return e.u
        raise InstanceError(f"edge {eid!r} is not incident to {v!r}")

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
        order, starts = self._order[v], self._starts[v]
        return [list(order[i:j]) for i, j in zip(starts, starts[1:] + (len(order),))]

    def strict_order(self, v: str) -> list[str]:
        """Incident edges best-first; requires a tie-free valuation at v."""
        self.strict_ranks(v)  # raises at a tie
        return list(self._order[v])

    def strict_ranks(self, v: str) -> tuple[int, ...]:
        """:meth:`strict_order` as edge ranks (positions in ``edges``)."""
        if not self._is_strict_at(v):
            raise InstanceError(f"strict preferences required: vertex {v!r} has ties")
        return self._ranks[v]

    def gamma_of(self, eid: str, v: str) -> tuple[Fraction, Fraction]:
        if self.gamma is None or (eid, v) not in self.gamma:
            raise InstanceError(f"missing gamma/delta for edge {eid!r} at {v!r}")
        return self.gamma[(eid, v)]

    def has_full_gamma(self) -> bool:
        return None not in self._gamma_u and None not in self._gamma_v  # vacuous without edges

    def scaled_gamma(self) -> tuple[int, Mapping[tuple[str, str], tuple[int, int]]]:
        """The lcm d of all threshold denominators, and each key of ``gamma``
        mapped to its pair times d, as ints (empty without thresholds)."""
        ends = ((eid, x) for eid, u, v in self.edges for x in (u, v))
        pairs = chain.from_iterable(zip(self._gamma_u, self._gamma_v))
        return self._gamma_d, {end: t for end, t in zip(ends, pairs) if t is not None}


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

    Raises :class:`InstanceError` with a specific message on loop edges,
    duplicate ids, preferences given for unknown vertices, missing or
    negative preference entries, preference entries not strictly above
    the unmatched value, ``gamma >= delta``, or unknown vertices in the
    critical set. Edges and incidence lists are in edge-id order, and
    each vertex's order is its incidence list sorted best first, so
    iteration order is deterministic. The same pass stores each order as
    edge ranks, with the position where each of its tie groups starts.

    A vertex's valuations are read and range-checked in bulk; only a
    faulty vertex is read again, entry by entry, to name its first bad
    entry. A (gamma, delta) pair object shared by several entries (the
    parser hands one per distinct pair of texts) is checked once, and
    pairs of equal value are stored and scaled once, so the first bad
    entry is still named in the mapping's order.
    """
    vs = tuple(vertices)
    if len(set(vs)) != len(vs):
        raise InstanceError("duplicate vertex ids")
    vset = set(vs)

    by_id: dict[str, Edge] = {}
    for raw in edges:
        e = Edge(*raw)
        if e.eid in by_id:
            raise InstanceError(f"duplicate edge id {e.eid!r}")
        if e.u not in vset or e.v not in vset:
            raise InstanceError(f"edge {e.eid!r} has an unknown endpoint")
        if e.u == e.v:
            raise InstanceError(f"edge {e.eid!r} is a loop; loops are forbidden")
        by_id[e.eid] = e
    rank = {eid: r for r, eid in enumerate(sorted(by_id))}  # edge id -> edge rank
    es = tuple(map(by_id.__getitem__, rank))

    incident: dict[str, list[str]] = {v: [] for v in vs}
    for e in es:
        incident[e.u].append(e.eid)
        incident[e.v].append(e.eid)
    inc = {v: tuple(ids) for v, ids in incident.items()}

    p_empty: dict[str, int | Fraction] = {v: 0 for v in vs}
    if pref_empty:
        for v, val in pref_empty.items():
            if v not in vset:
                raise InstanceError(f"pref_empty for unknown vertex {v!r}")
            r = _valuation(val)
            if r > 0:
                raise InstanceError(f"pref_empty of {v!r} must be <= 0")
            p_empty[v] = r

    for v in pref:
        if v not in vset:
            raise InstanceError(f"preferences given for unknown vertex {v!r}")
    p: dict[str, dict[str, int | Fraction]] = {}
    order: dict[str, tuple[str, ...]] = {}
    ranks: dict[str, tuple[int, ...]] = {}
    starts: dict[str, tuple[int, ...]] = {}
    values: dict[str, list[int | Fraction]] = {}
    for v in vs:
        given = dict(pref.get(v, {}))
        ids, empty = inc[v], p_empty[v]
        # read and checked in bulk; a faulty vertex is read again, entry by
        # entry, to name its first bad entry
        try:
            mine = {eid: _valuation(given[eid]) for eid in ids}
            low = min(mine.values(), default=1)
        except (KeyError, InstanceError):
            low = -1
        if low < 0 or low <= empty:
            mine = _preferences(v, ids, given, empty)
        if len(given) > len(mine):
            stray = sorted(eid for eid in given if eid not in mine)[0]
            raise InstanceError(f"preference of {v!r} for non-incident edge {stray!r}")
        p[v] = mine
        # a stable sort keeps equal valuations in edge-id order
        o = order[v] = tuple(sorted(ids, key=mine.__getitem__, reverse=True))
        ranks[v] = tuple(map(rank.__getitem__, o))
        vals = values[v] = list(map(mine.__getitem__, o))
        starts[v] = (0, *compress(count(1), map(ne, vals, vals[1:]))) if o else ()

    w = None
    if weights is not None:
        w = {}
        for eid, val in weights.items():
            if eid not in by_id:
                raise InstanceError(f"weight for unknown edge {eid!r}")
            w[eid] = _rat(val)

    g = None
    d = 1
    at_u, at_v = [None] * len(es), [None] * len(es)  # by edge rank
    if gamma is not None:
        # a market repeats a few thresholds thousands of times: each distinct
        # pair, keyed on its integers, is checked and stored once. A pair
        # object met before is found by its id alone; ``seen`` keeps every
        # object it keys on, so no id is reused while the mapping is read
        seen: dict[int, tuple[object, tuple[Fraction, Fraction]]] = {}
        distinct: dict[tuple[int, int, int, int], tuple[Fraction, Fraction]] = {}
        g = {}
        for (eid, v), pair in gamma.items():
            hit = seen.get(id(pair))  # (pair, its value)
            if hit is None:
                lo, hi = pair
            e = by_id.get(eid)
            if e is None:
                raise InstanceError(f"gamma for unknown edge {eid!r}")
            if v != e.u and v != e.v:
                raise InstanceError(f"gamma endpoint {v!r} not on edge {eid!r}")
            if hit is None:
                glo, ghi = _rat(lo), _rat(hi)
                ints = glo.as_integer_ratio() + ghi.as_integer_ratio()  # (p, q, r, s)
                value = distinct.get(ints)
                if value is None:
                    if not (0 < glo < ghi):
                        raise InstanceError(
                            f"edge {eid!r} at {v!r}: gamma must be positive and < delta"
                        )
                    value = distinct[ints] = (glo, ghi)
                hit = seen[id(pair)] = (pair, value)
            g[(eid, v)] = (at_u if v == e.u else at_v)[rank[eid]] = hit[1]
        d = lcm(*(k[1] for k in distinct), *(k[3] for k in distinct))
        ints_of = {id(value): (p * (d // q), r * (d // s))
                   for (p, q, r, s), value in distinct.items()}
        at_u, at_v = ([ints_of.get(id(t)) for t in side] for side in (at_u, at_v))

    crit = frozenset(critical or ())
    unknown = crit - vset
    if unknown:
        raise InstanceError(f"critical set contains unknown vertex {sorted(unknown)[0]!r}")

    return Instance(
        vertices=vs,
        edges=es,
        pref=p,
        pref_empty=p_empty,
        weights=w,
        gamma=g,
        critical=crit,
        _incident=inc,
        _order=order,
        _ranks=ranks,
        _starts=starts,
        _values=values,
        _by_id=by_id,
        _rank=rank,
        _index={v: i for i, v in enumerate(vs)},
        _gamma_u=at_u,
        _gamma_v=at_v,
        _gamma_d=d,
    )


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
    by_id = inst._by_id
    for eid, val in m.items():
        e = by_id.get(eid)
        if e is not None:
            x = val.numerator * (d // val.denominator)
            load[e.u] += x
            load[e.v] += x
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
        if eid not in inst._by_id:
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


def _assigned(inst: Instance, m: Mapping[str, Fraction]) -> dict[str, int | Fraction]:
    """Every agent's assigned value, from m's loads and one pass over its support.

    Saturated agents are valued by the minimum over edges they hold with
    positive weight; unsaturated agents by ``pref_empty``.
    """
    pref = inst.pref
    d, load = _loads(inst, m)
    worst: dict[str, int | Fraction] = {}
    for eid, val in m.items():
        e = inst._by_id.get(eid)
        if e is None or val.numerator <= 0:
            continue
        for x in (e.u, e.v):
            if x not in worst or pref[x][eid] < worst[x]:
                worst[x] = pref[x][eid]
    assigned = dict(inst.pref_empty)
    assigned.update((x, p) for x, p in worst.items() if load[x] == d)
    return assigned


def assigned_value(inst: Instance, v: str, m: Mapping[str, Fraction]) -> int | Fraction:
    """Agent v's worst positively-held edge value, or the unmatched value."""
    return _assigned(inst, m)[v]


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
    if mode not in ("weak", "gamma"):
        raise ValueError(f"unknown blocking mode {mode!r}")
    if mode == "gamma" and not inst.has_full_gamma():
        raise InstanceError("gamma mode requires gamma/delta on every (edge, endpoint)")
    pref = inst.pref
    assigned = _assigned(inst, m)

    if mode == "weak":
        return [
            eid for eid, u, v in inst.edges
            if pref[u][eid] > assigned[u] and pref[v][eid] > assigned[v]
            and m.get(eid, ZERO) < 1
        ]
    d = inst._gamma_d
    out = []
    for (eid, u, v), (gu, deltau), (gv, deltav) in zip(inst.edges, inst._gamma_u,
                                                       inst._gamma_v):
        du = (pref[u][eid] - assigned[u]) * d
        dv = (pref[v][eid] - assigned[v]) * d
        if (du >= gu and dv >= deltav) or (du >= deltau and dv >= gv):
            out.append(eid)
    return out


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
    """Aggregate size, saturation, integrality and critical coverage of m."""
    crit = frozenset(critical) if critical is not None else inst.critical
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
