"""Derived markets as they were materialized, kept as oracles.

The four constructions once built every copy as an ``Edge`` with a string
id and a rank valuation, through :func:`strict_instance`, and the engine
ran on such an ``Instance``, deleting entries one at a time (``_reduce``
below). The package now builds each vertex's order as copy indices and
deletes lazily, and its rotation walk keeps its path from one rotation to
the next; the tests compare it with this code, kept as it was but
for ``lower_endpoint`` and :func:`other`, methods of ``Instance`` until
their last callers in the package went, and the rank view (``_rank``,
``_ranks``, ``_starts`` and the index and valuation of each end of an
edge, ``_end_u``, ``_end_v``, ``_value_u`` and ``_value_v``) that
``strict_instance`` now fills in as validation does. The crit builder
finds the components of the kept edges by its own search and takes a
level count per component: by default the package's |C ∩ K|, while
``lambda K: len(C)`` gives the |C| levels it once had everywhere.
:func:`restarting_reduce` is the lazy engine as it was when each
rotation's walk began again at the first long list.

:func:`generic_stable` and :func:`generic_max_stable` are the brute-force
stability oracle as it was before it ran on the engine's integer
enumerator: every half-matching :func:`generic_half_matchings` yields, as
a dict of ``Fraction`` values, through the generic
:func:`halfmatch.core.blocking_edges`, keeping the first strict maximum.

:func:`swept_value` is the feasible comparison's integer value against a
rival as ``popularity._feasible_value`` found it before the vertices where
the matching checked is whole were valued by one weight per edge: every
vertex's row swept for every rival. :func:`looped_product` is the product
comparison as ``popularity`` computed it before every rival was valued by
one weight per edge: a Fraction sum over every pair of items at every
vertex. :func:`delta_product` and :func:`is_popular_mixed` are the
product comparison and the mixed verdict (Kavitha, Mestre & Nasre, TCS
2011) as ``popularity`` last computed them, on the kernels it keeps.
:func:`full_sampled_verdict` is the sampled verdict as one scan of every
enumerated rival and then every sample, as ``is_popular`` found it before
it settled an integral matching popular among the enumerated rivals
without drawing a sample; :func:`full_half_verdict` and
:func:`full_critical_verdict` are the half-scope and critical verdicts as
one scan of every enumerated rival, as ``is_popular`` and
``is_popular_critical`` found them before an integral matching that one
dual proves popular was settled without valuing a rival.
:func:`proposals` is deferred acceptance on strict bipartite markets.

:func:`named_cover_dual` is ``solvers.max_weight_dual`` as it was when it
reached the cover's Hungarian kernel through the named cover
(:func:`halfmatch.cover.double_cover`) and
:func:`halfmatch.cover.max_weight_cover_matching`'s Fraction potentials,
with no start. :func:`dual_faults` compares a dual with such a cold one on
every field but the witness, which depends on the matches a start made,
and checks that witness by its own properties.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import mul
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from halfmatch.core import (
    HALF,
    ONE,
    ZERO,
    Edge,
    Instance,
    InstanceError,
    MatchingError,
    Rational,
    VerificationFailed,
    _rat,
    blocking_edges,
    check_matching,
    matching_size,
    saturated_vertices,
)
from halfmatch.cover import double_cover, max_weight_cover_matching, scale_to_ints
from halfmatch.engine import BoundExceeded
from halfmatch.popularity import (
    SCOPES, DeltaResult, Pairing, PopularityVerdict, _by_rank, _critical, _delta_feasible,
    _enumerated, _feasible_value, _masses, _product_weights, _require, _sampled, _verdict, _worst,
    vote,
)
from halfmatch.solvers import DualSolution


def strict_instance(
    vertices: Sequence[str], edges: Iterable[tuple[str, str, str]],
    orders: Mapping[str, Sequence[str]],
) -> Instance:
    """The tie-free market whose vertex v ranks its edges as ``orders[v]``
    lists them, best first, each valued by its rank (worst 1). Raises
    :class:`VerificationFailed` unless each order lists its vertex's edges once.
    """
    vs = tuple(vertices)
    by_id = {e.eid: e for e in map(Edge._make, edges)}
    es = tuple(by_id[eid] for eid in sorted(by_id))
    rank = {e.eid: r for r, e in enumerate(es)}
    incident: dict[str, list[str]] = {v: [] for v in vs}
    for e in es:
        incident[e.u].append(e.eid)
        incident[e.v].append(e.eid)
    for v in vs:
        if v not in orders or sorted(orders[v]) != incident[v]:
            raise VerificationFailed(f"the order of {v!r} does not list its edges once each")
    value = {(eid, v): len(orders[v]) - i for v in vs for i, eid in enumerate(orders[v])}
    index = {v: i for i, v in enumerate(vs)}
    return Instance(
        vertices=vs, edges=es, pref_empty=dict.fromkeys(vs, 0), weights=None,
        critical=frozenset(),
        _ranks={v: tuple(rank[eid] for eid in orders[v]) for v in vs},
        _starts={v: tuple(range(len(orders[v]))) for v in vs},
        _end_u=[index[e.u] for e in es], _end_v=[index[e.v] for e in es],
        _value_u=[value[e.eid, e.u] for e in es], _value_v=[value[e.eid, e.v] for e in es],
        _rank=rank, _index=index,
    )


@dataclass(frozen=True)
class DerivedInstance:
    """A strict multigraph built from copies of another market's edges."""

    inst: Instance
    origin: Instance
    origin_of: Mapping[str, str]

    def project(self, m: Mapping[str, Fraction]) -> dict[str, Fraction]:
        """Sum copy values per origin edge; the result is a valid
        half-matching of the origin instance (degree sums carry over)."""
        out: dict[str, Fraction] = {}
        for cid, val in m.items():
            if val == 0:
                continue
            eid = self.origin_of.get(cid)
            if eid is None:
                raise MatchingError(f"value on unknown derived edge {cid!r}")
            out[eid] = out.get(eid, ZERO) + val
        for eid, val in out.items():
            if val > 1:
                raise MatchingError(f"projected value of {eid!r} exceeds 1")
        check_matching(self.origin, out)
        return out


def lower_endpoint(inst, eid):
    """The end of edge eid first in the canonical vertex order."""
    e = inst.edge(eid)
    return e.u if inst.index(e.u) < inst.index(e.v) else e.v


def other(inst, eid, v):
    """The end of edge eid that is not v."""
    e = inst.edge(eid)
    if v == e.u:
        return e.v
    if v == e.v:
        return e.u
    raise InstanceError(f"edge {eid!r} is not incident to {v!r}")


def _copies(origin, v, eid, low_first):
    """An edge's copies in ``low_first`` suffix order, reversed unless v is its lower end."""
    order = low_first if lower_endpoint(origin, eid) == v else low_first[::-1]
    return [eid + suffix for suffix in order]


def _finish(origin, origin_of, orders):
    """Materialize a derived instance from explicit per-vertex orders."""
    edges = [(cid, *origin.edge(eid)[1:]) for cid, eid in origin_of.items()]
    return DerivedInstance(strict_instance(origin.vertices, edges, orders), origin, origin_of)


def build_gamma_reduction(origin: Instance) -> DerivedInstance:
    """Four copies per edge with gamma/delta thresholds woven in.

    For the lower endpoint copies ``~1..~4`` are its best, second, third
    and last copy; for the higher endpoint ``~4..~1`` are. A vertex
    values its best copy at p(e), its second at p(e)-gamma, its third at
    p(e)-delta, so for edges e, f at v:

    * second(f) beats best(e)  iff  p(f) >= p(e) + gamma_f
    * third(f) beats best(e)   iff  p(f) >= p(e) + delta_f

    Equal derived values order third before second before best copies;
    remaining ties and the trailing last copies follow edge-id order.
    """
    if not origin.has_full_gamma():
        raise InstanceError("gamma reduction requires gamma/delta on every (edge, endpoint)")

    origin_of = {f"{e.eid}~{k}": e.eid for e in origin.edges for k in range(1, 5)}
    orders = {}
    for v in origin.vertices:
        values = {eid: (origin.pval(v, eid), *origin.gamma[(eid, v)])
                  for eid in origin.incident(v)}
        # scaled by the lcm of v's denominators, every sort key is an int
        scale = lcm(*(x.denominator for triple in values.values() for x in triple))
        keep = []   # (-value, third 0 / second 1 / best 2, origin eid, copy id)
        tail = []   # last copies: by origin valuation, then edge id
        for eid, triple in values.items():
            p, gam, delta = (x.numerator * (scale // x.denominator) for x in triple)
            best, second, third, last = _copies(origin, v, eid, ("~1", "~2", "~3", "~4"))
            keep.append((-p, 2, eid, best))
            keep.append((gam - p, 1, eid, second))
            keep.append((delta - p, 0, eid, third))
            tail.append((-p, eid, last))
        keep.sort()
        tail.sort()
        orders[v] = [item[-1] for item in keep] + [item[-1] for item in tail]

    return _finish(origin, origin_of, orders)


def build_srti_reduction(origin: Instance) -> DerivedInstance:
    """Three copies per edge: ``~u`` is the lower endpoint's top copy and
    the higher endpoint's bottom one, ``~w`` the reverse, ``~0`` the
    shared middle.

    Each vertex expands its weak order class by class, emitting the top
    copies of the class then the middle copies (members in edge-id
    order), and finally appends the copies it ranks bottom, ordered by
    its original valuation with edge-id tie-break.
    """
    origin_of = {e.eid + s: e.eid for e in origin.edges for s in ("~u", "~0", "~w")}
    orders = {}
    for v in origin.vertices:
        top = {eid: _copies(origin, v, eid, ("~u", "~w")) for eid in origin.incident(v)}
        seq = []
        classes = origin.tie_classes(v)
        for group in classes:
            seq.extend(top[eid][0] for eid in group)
            seq.extend(eid + "~0" for eid in group)
        seq.extend(top[eid][1] for group in classes for eid in group)
        orders[v] = seq

    return _finish(origin, origin_of, orders)


def build_pri_reduction(origin: Instance) -> DerivedInstance:
    """Two copies per edge, one good for each endpoint: ``~a`` is good
    for the lower endpoint and bad for the higher one, ``~b`` the reverse.

    Every vertex ranks all its good copies in its original strict order,
    then all its bad copies in the same order.
    """
    origin_of = {e.eid + s: e.eid for e in origin.edges for s in ("~a", "~b")}
    orders = {}
    for v in origin.vertices:
        mine = origin.strict_order(v)
        good_bad = [_copies(origin, v, eid, ("~a", "~b")) for eid in mine]
        orders[v] = [good for good, _ in good_bad] + [bad for _, bad in good_bad]

    return _finish(origin, origin_of, orders)


def build_crit_reduction(
    origin: Instance, critical: frozenset[str] | set[str],
    keep: Sequence[bool] | None = None,
    levels: Callable[[frozenset[str]], int] | None = None,
) -> DerivedInstance:
    """Middle copies plus s_K leveled copies per critical endpoint, where
    K is the component of the kept edges that holds the edge and s_K =
    ``levels(K)``, by default |C ∩ K|; ``lambda K: len(C)`` is the rule
    of one level count for the whole market.

    An extra copy at level j (1-based) is the j-th best for the
    non-critical side and the j-th worst for the critical side; an
    endpoint in C on edge (u, v) contributes copies that are worst for
    it and best for its partner: ``~u1..~u{s}`` for the lower endpoint,
    ``~w1..~w{s}`` for the higher one. With both endpoints critical, both
    bundles are added. Each vertex ranks levels +s..+1, then the middle
    copies ``~0``, then levels -1..-s, with its original strict order
    inside every level class. An empty critical set degenerates to an
    isomorphic copy of the input. ``keep``, by edge rank, drops the edges
    not kept before anything else.
    """
    crit = frozenset(critical)
    unknown = crit - set(origin.vertices)
    if unknown:
        raise InstanceError(
            f"critical set contains unknown vertex {sorted(unknown)[0]!r}"
        )
    kept = {e.eid for i, e in enumerate(origin.edges) if keep is None or keep[i]}
    level = {}  # each vertex's s, found by a breadth-first search of its component
    for v in origin.vertices:
        if v in level:
            continue
        seen, queue = {v}, deque([v])
        while queue:
            x = queue.popleft()
            for eid in origin.incident(x):
                y = other(origin, eid, x)
                if eid in kept and y not in seen:
                    seen.add(y)
                    queue.append(y)
        s = len(crit & seen) if levels is None else levels(frozenset(seen))
        level.update(dict.fromkeys(seen, s))

    origin_of = {e.eid + "~0": e.eid for e in origin.edges if e.eid in kept}
    for e in origin.edges:
        low = lower_endpoint(origin, e.eid)
        for x, tag in ((low, "u"), (other(origin, e.eid, low), "w")):
            if e.eid in kept and x in crit:
                origin_of.update((f"{e.eid}~{tag}{j}", e.eid) for j in range(1, level[x] + 1))

    orders = {}
    for v in origin.vertices:
        mine, s = [eid for eid in origin.strict_order(v) if eid in kept], level[v]
        bundles = {eid: _copies(origin, v, eid, ("~u", "~w")) for eid in mine}
        # v's own bundle (first) ranks below the middle copies, its partner's above
        up = [bundles[eid][1] for eid in mine if other(origin, eid, v) in crit]
        down = [bundles[eid][0] for eid in mine] if v in crit else []
        above = [f"{c}{j}" for j in range(s, 0, -1) for c in up]
        below = [f"{c}{j}" for j in range(1, s + 1) for c in down]
        orders[v] = above + [eid + "~0" for eid in mine] + below

    return _finish(origin, origin_of, orders)


# the engine with explicit two-sided deletions


def _reduce(inst: Instance) -> dict[str, list[str]]:
    """Every vertex's surviving list, best first, once none has three entries.

    Proposals cascade until every agent with a nonempty list is accepted;
    then, while some list holds three or more entries, one rotation is
    eliminated and the cascade resumes. Raises :class:`InstanceError` on
    tied preferences.
    """
    names = inst.vertices
    n = len(names)
    index = inst.index
    eids = [e.eid for e in inst.edges]  # id-sorted: int order is id order
    rank = {eid: i for i, eid in enumerate(eids)}
    eu = [index(e.u) for e in inst.edges]
    ends = [index(e.u) ^ index(e.v) for e in inst.edges]  # other end: ends[e] ^ x
    pos_u = [0] * len(eids)  # position of e in its u end's order
    pos_v = [0] * len(eids)  # ... and in its v end's
    order: list[list[int]] = []
    for x, v in enumerate(names):
        o = [rank[eid] for eid in inst.strict_order(v)]
        for p, e in enumerate(o):
            if eu[e] == x:
                pos_u[e] = p
            else:
                pos_v[e] = p
        order.append(o)

    alive = bytearray(b"\x01") * len(eids)
    head = [0] * n  # first live position, past the end when the list is empty
    tail = [len(o) - 1 for o in order]  # last live position
    count = [len(o) for o in order]
    held = [-1] * n
    accepted = [False] * n
    queue = deque(x for x in range(n) if order[x])

    def delete(e: int) -> None:
        """Remove an edge from both endpoint lists, freeing any proposer."""
        if not alive[e]:
            return  # already gone (deletions are always two-sided)
        alive[e] = 0
        u = eu[e]
        for x, p in ((u, pos_u[e]), (ends[e] ^ u, pos_v[e])):
            count[x] -= 1
            if held[x] == e:
                held[x] = -1
            o = order[x]
            if p == head[x]:
                accepted[x] = False
                h, t = p + 1, tail[x]
                while h <= t and not alive[o[h]]:
                    h += 1
                head[x] = h
            if p == tail[x]:
                h, t = head[x], p - 1
                while t >= h and not alive[o[t]]:
                    t -= 1
                tail[x] = t
            if not accepted[x] and count[x]:
                queue.append(x)

    def cascade() -> None:
        """Run proposals until every agent with a nonempty list is accepted."""
        while queue:
            v = queue.popleft()
            if accepted[v] or not count[v]:
                continue
            e = order[v][head[v]]
            w = ends[e] ^ v
            h = held[w]
            if h == e:
                accepted[v] = True
                continue
            p = pos_u[e] if eu[e] == w else pos_v[e]
            if h < 0 or p < (pos_u[h] if eu[h] == w else pos_v[h]):
                accepted[v] = True
                held[w] = e
                o = order[w]
                for i in range(p + 1, tail[w] + 1):
                    if alive[o[i]]:
                        delete(o[i])
            else:
                delete(e)

    cascade()
    start = 0  # lists only shrink, so no vertex before start regains 3 entries
    while True:
        while start < n and count[start] < 3:
            start += 1
        if start == n:
            break
        # walk second/last pointers to a cycle; the walk can never enter a
        # cycle whose members all have length-two lists, so eliminating it
        # never destroys a settled half-cycle
        seq: list[tuple[int, int, int]] = []  # (agent, its second entry, acceptor)
        seen: dict[int, int] = {}
        x = start
        while x not in seen:
            seen[x] = len(seq)
            if count[x] < 2:
                raise VerificationFailed(f"rotation walk meets a short list at {names[x]!r}")
            o = order[x]
            i = head[x] + 1
            while not alive[o[i]]:
                i += 1
            second = o[i]
            y = ends[second] ^ x
            if count[y] < 2:
                raise VerificationFailed(f"rotation walk meets a short list at {names[y]!r}")
            seq.append((x, second, y))
            x = ends[order[y][tail[y]]] ^ y
        # drop everything below the rotation's improved proposals, as a batch
        doomed: set[int] = set()
        for _, second, y in seq[seen[x]:]:
            p = pos_u[second] if eu[second] == y else pos_v[second]
            doomed.update(g for g in order[y][p + 1:tail[y] + 1] if alive[g])
        if not doomed:
            raise VerificationFailed("rotation eliminates nothing")
        for g in sorted(doomed):
            delete(g)
        cascade()

    return {
        v: [eids[e] for e in order[x][head[x]:tail[x] + 1] if alive[e]]
        for x, v in enumerate(names)
    }


# the engine's rotation walk as it was: each walk restarts from ``start``


def restarting_reduce(market, pu: list[int], pv: list[int]) -> tuple[list[list[int]], int]:
    """``engine._reduce`` as it was when every rotation's walk began again
    at the first vertex with three or more entries, and the number of
    rotations whose walk had, before the step preceding the rotation, a
    step whose x is one of the rotation's y's: the walks on which a kept
    path must be cut below that step.

    Walks that restart find the same rotations in the same order as one
    that keeps its path, so both return the same lists.
    """
    names = market.vertices
    n = len(names)
    eu, ev, order = market.eu, market.ev, market.orders
    tail = [len(o) - 1 for o in order]  # bound: entries past it are dead; the held one's position
    head = [0] * n  # first live position, past the tail when the list is empty
    sec = [1] * n  # at most the second live position

    # phase 1: a live entry is at or above its other end's hold, so it is accepted
    held = [-1] * n
    free = [x for x in range(n - 1, -1, -1) if order[x]]
    while free:
        v = free.pop()
        o, h, t = order[v], head[v], tail[v]
        while h <= t:
            e = o[h]
            w, p = (ev[e], pv[e]) if eu[e] == v else (eu[e], pu[e])
            if p <= tail[w]:
                g = held[w]
                held[w], tail[w] = e, p
                if g >= 0:
                    free.append(eu[g] if ev[g] == w else ev[g])
                break
            h += 1
        head[v] = h

    def second(x: int) -> int:
        """The position of x's second live entry; x has two or more."""
        o, s = order[x], max(sec[x], head[x] + 1)
        e = o[s]
        while pu[e] > tail[eu[e]] or pv[e] > tail[ev[e]]:  # dead
            s += 1
            e = o[s]
        sec[x] = s
        return s

    cuts = 0
    start = 0  # lists only shrink, so no vertex before start regains 3 entries
    while True:
        while start < n and (head[start] >= tail[start] or second(start) == tail[start]):
            start += 1
        if start == n:
            break
        # walk second/last pointers to a cycle; the walk can never enter a
        # cycle whose members all have length-two lists, so eliminating it
        # never destroys a settled half-cycle
        ys: list[int] = []  # each step's acceptor y ...
        ps: list[int] = []  # ... and the position of x's second entry at y
        seen: dict[int, int] = {}
        x = start
        while x not in seen:
            seen[x] = len(ys)
            h = head[x]
            if h >= tail[x]:
                raise VerificationFailed(f"rotation walk meets a short list at {names[x]!r}")
            o, s = order[x], sec[x]
            if s <= h:
                s = h + 1
            e = o[s]
            while pu[e] > tail[eu[e]] or pv[e] > tail[ev[e]]:  # dead: as in second()
                s += 1
                e = o[s]
            sec[x] = s
            y = ev[e] if eu[e] == x else eu[e]
            if head[y] >= tail[y]:
                raise VerificationFailed(f"rotation walk meets a short list at {names[y]!r}")
            ys.append(y)
            ps.append(pu[e] if eu[e] == y else pv[e])
            last = order[y][tail[y]]
            x = ev[last] if eu[last] == y else eu[last]
        cuts += any(seen.get(y, n) < seen[x] - 1 for y in ys[seen[x]:])
        # eliminate it from x on; y's old last entry names the next member
        for j in range(seen[x], len(ys)):
            y = ys[j]
            if ps[j] >= tail[y]:
                raise VerificationFailed("rotation eliminates nothing")
            last = order[y][tail[y]]
            x = ev[last] if eu[last] == y else eu[last]
            tail[y] = ps[j]
            head[x] = sec[x]

    # each list's head and last entry: two, one or none
    return [order[x][head[x]:tail[x] + 1:max(1, tail[x] - head[x])] for x in range(n)], cuts


def materialize(der) -> Instance:
    """The oracle market of a compact derived market: its copies as edges
    with ids, ranked by the orders the builder emitted."""
    market = der.inst
    ends = {e.eid: (e.u, e.v) for e in der.origin.edges}
    edges = [(market.copy_id(c), *ends[market.labels[market.origin[c]]])
             for c in market.edges]
    orders = {v: [market.copy_id(c) for c in market.orders[x]]
              for x, v in enumerate(market.vertices)}
    return strict_instance(market.vertices, edges, orders)


# the brute-force oracle as it was: a Fraction dict per half-matching


def generic_half_matchings(inst: Instance, bound: int) -> Iterator[dict[str, Fraction]]:
    """Every half-matching, in canonical order: edges in id order, values
    tried as 0, 1/2, 1, each value the shared ``HALF`` or ``ONE``."""
    eids = [e.eid for e in inst.edges]
    if len(eids) > bound:
        raise BoundExceeded(f"{len(eids)} edges exceed the enumeration bound {bound}")
    ends = [(inst.edge(eid).u, inst.edge(eid).v) for eid in eids]
    load = {v: 0 for v in inst.vertices}  # doubled loads: capacity 2
    cur: dict[str, Fraction] = {}

    def rec(i: int) -> Iterator[dict[str, Fraction]]:
        if i == len(eids):
            yield dict(cur)
            return
        u, v = ends[i]
        room = 2 - max(load[u], load[v])
        for doubled in (0, 1, 2):
            if doubled > room:
                break
            load[u] += doubled
            load[v] += doubled
            if doubled:
                cur[eids[i]] = HALF if doubled == 1 else ONE
            yield from rec(i + 1)
            load[u] -= doubled
            load[v] -= doubled
            cur.pop(eids[i], None)

    yield from rec(0)


def generic_stable(inst: Instance, mode: str, bound: int) -> list[dict[str, Fraction]]:
    """Every half-matching with no blocking edge, in canonical order."""
    return [m for m in generic_half_matchings(inst, bound) if not blocking_edges(inst, m, mode)]


def generic_max_stable(stable: Iterable[dict[str, Fraction]]
                       ) -> tuple[Fraction, dict[str, Fraction], int]:
    """The first strict maximum by size of the stable half-matchings, in
    the order given, and how many of them have its size."""
    best: tuple[Fraction, dict[str, Fraction]] | None = None
    ties = 0
    for m in stable:
        size = matching_size(m)
        if best is None or size > best[0]:
            best, ties = (size, m), 0
        ties += size == best[0]
    if best is None:
        raise RuntimeError("no stable half-matching found; this cannot happen")
    return (*best, ties)


# the feasible comparison's value as it was: every vertex row swept per rival


def swept_value(inst: Instance, m: Mapping[str, Fraction]
                ) -> Callable[[Sequence[int], int], tuple[int, int]]:
    """The value of ``popularity._delta_feasible`` against the rival of
    masses ``held[r] / d`` by edge rank, as the pair (t, D) meaning t/D,
    D the lcm of d and of m's denominators.

    At each vertex, every vote costs +1 or -1 and the optimum is T - 2U:
    T the surplus mass, U the largest part of it that can move to a
    strictly better demand item, found by one sweep from the best item.
    """
    base = lcm(*(val.denominator for val in m.values()))
    scaled = {inst._rank[eid]: val.numerator * (base // val.denominator)
              for eid, val in m.items()}
    rows = [[(r, scaled.get(r, 0)) for r in inst.strict_ranks(v)] for v in inst.vertices]

    def value(held: Sequence[int], d: int) -> tuple[int, int]:
        big = lcm(base, d)
        k, j = big // base, big // d
        total = 0
        for row in rows:
            pool = rest = t = 0
            for r, a in row:
                x = a * k - held[r] * j
                rest += x
                if x < 0:
                    pool -= x
                elif x > 0:
                    take = min(pool, x)
                    pool -= take
                    t += x - 2 * take
            if rest < 0:  # staying unmatched, the rest of big, ranks last
                t -= rest + 2 * min(pool, -rest)
            total += t
        return total, big

    return value


# the product comparison as it was: a Fraction sum over every pair of items


def looped_product(inst: Instance, m: Mapping[str, Fraction], n: Mapping[str, Fraction]
                   ) -> Fraction:
    """The vote mass of m against n under the product pairing: at each vertex
    v, m(x) * n(y) * vote(v, x, y) summed over pairs of items, staying
    unmatched holding each matching's unmatched rest."""
    total = ZERO
    for v in inst.vertices:
        mass_n = _masses(inst, n, v, ONE)
        for x, a in _masses(inst, m, v, ONE).items():
            if a:
                for y, b in mass_n.items():
                    if b:
                        total += a * b * vote(inst, v, x, y)
    return total


# the product comparison and the mixed verdict, on the kernels the package keeps


def delta_product(inst: Instance, m: Mapping[str, Fraction], n: Mapping[str, Fraction]
                  ) -> Fraction:
    """Vote mass under the independent product pairing of M and N."""
    _require(inst, "the product comparison", m, n)
    d, held = _by_rank(inst, n)
    return Fraction(*_product_value(inst, m)([held.get(r, 0) for r in range(len(inst.edges))], d))


def _product_value(inst: Instance, m: Mapping[str, Fraction]
                   ) -> Callable[[Sequence[int], int], tuple[int, int]]:
    """:func:`delta_product` against the rival of masses ``held[r] / d`` by
    edge rank, as the pair (t, base * d), base the lcm of m's denominators."""
    base, scaled = _by_rank(inst, m)
    weight, fixed = _product_weights(inst, base, scaled, inst.vertices)
    return lambda held, d: (sum(map(mul, weight, held)) + fixed * d, base * d)


def is_popular_mixed(inst: Instance, m: Mapping[str, Fraction], bound: int = 10
                     ) -> PopularityVerdict:
    """Whether no half-integral rival beats m under the product pairing."""
    _require(inst, "the product comparison", m)
    worst, checked = _worst(_enumerated(inst, bound), _product_value(inst, m))
    return _verdict(inst, worst, checked,
                    lambda n: DeltaResult(delta_product(inst, m, n), Pairing("product", {}), {}),
                    "popular mixed")


def full_sampled_verdict(inst: Instance, m: Mapping[str, Fraction], bound: int = 10,
                         samples: int = 200, seed: int = 0) -> PopularityVerdict:
    """``is_popular(inst, m, bound, "sampled", samples, seed)``, every sample scanned."""
    _require(inst, "delta over feasible pairings", m)
    worst, checked = _worst(chain(_enumerated(inst, bound), _sampled(inst, seed, samples)),
                            _feasible_value(inst, m))
    return _verdict(inst, worst, checked, lambda n: _delta_feasible(inst, m, n),
                    SCOPES["sampled"])


def full_half_verdict(inst: Instance, m: Mapping[str, Fraction], bound: int = 10
                      ) -> PopularityVerdict:
    """``is_popular(inst, m, bound)``, every enumerated rival scanned."""
    _require(inst, "delta over feasible pairings", m)
    worst, checked = _worst(_enumerated(inst, bound), _feasible_value(inst, m))
    return _verdict(inst, worst, checked, lambda n: _delta_feasible(inst, m, n),
                    SCOPES["half"])


def full_critical_verdict(inst: Instance, m: Mapping[str, Fraction], critical: Iterable[str],
                          bound: int = 10) -> PopularityVerdict:
    """``is_popular_critical(inst, m, critical, bound)``, every saturating rival scanned."""
    _require(inst, "delta over feasible pairings", m)
    crit = _critical(inst, m, critical)
    worst, checked = _worst(_enumerated(inst, bound, crit), _feasible_value(inst, m))
    return _verdict(inst, worst, checked, lambda n: _delta_feasible(inst, m, n),
                    "popular among critical (half-integral scope)")


# deferred acceptance on strict bipartite markets


def proposals(inst: Instance, levels: int) -> dict[str, Fraction]:
    """The even-index vertices propose along their strict orders, one
    proposal per edge, so parallel edges are separate proposals; one
    rejected along its whole list proposes again from its first edge one
    level up, while levels last. A receiver holds the best offer by level,
    then by its own order. One level is Gale–Shapley; two give the
    dominant matching, a popular matching of maximum size."""
    todo = {a: [(lv, eid) for lv in range(levels) for eid in inst.strict_order(a)][::-1]
            for a in inst.vertices if inst.index(a) % 2 == 0}
    free, held = list(todo), {}
    while free:
        a = free.pop()
        if not todo[a]:
            continue  # rejected along its whole list at every level
        lv, eid = todo[a].pop()
        b = other(inst, eid, a)
        offer, kept = (lv, inst.pval(b, eid), a, eid), held.get(b)
        if kept and kept > offer:
            free.append(a)
            continue
        if kept:
            free.append(kept[2])
        held[b] = offer
    return {eid: ONE for *_, eid in held.values()}


# the maximum-weight dual through the named cover


def named_cover_dual(inst: Instance, weights: Mapping[str, Rational]) -> DualSolution:
    """The maximum-weight dual of the cover's matching on the ints L*w_e,
    L the lcm of the weights' denominators, checked on the ints 2L*y_v and
    2L*w_e."""
    eids = [e.eid for e in inst.edges]
    scale, scaled = scale_to_ints(_rat(weights.get(eid, ZERO)) for eid in eids)
    cov = double_cover(inst)
    res = max_weight_cover_matching(cov, dict(zip(eids, scaled)))
    w_int = {eid: 2 * x for eid, x in zip(eids, scaled)}  # 2L * w_e
    y_int = {}  # 2L * y_v
    for v in inst.vertices:
        left, right = res.y_left[v], res.y_right[v]
        if left.denominator != 1 or right.denominator != 1:
            raise VerificationFailed(f"cover potential of {v!r} is not an integer")
        y_int[v] = left.numerator + right.numerator
    y = {v: Fraction(y_int[v], 2 * scale) for v in inst.vertices}
    objective_int = sum(y_int.values())
    objective = Fraction(objective_int, 2 * scale)
    tight = tuple(
        e.eid for e in inst.edges if y_int[e.u] + y_int[e.v] == w_int[e.eid]
    )
    critical = frozenset(v for v in inst.vertices if y_int[v] > 0)

    for e in inst.edges:  # dual feasibility
        if y_int[e.u] + y_int[e.v] < w_int[e.eid]:
            raise VerificationFailed(f"dual infeasible at {e.eid}")
    # one pass over the matched cover copies, each worth 1/2 of its origin:
    # the witness, and its loads and weight counted in halves
    witness: dict[str, Fraction] = {}
    load = dict.fromkeys(inst.vertices, 0)
    got = 0  # 4L times the witness weight
    for cid in sorted(res.matched):
        ce = cov.edge(cid)
        witness[ce.origin] = ONE if ce.origin in witness else HALF
        load[ce.left] += 1
        load[ce.right] += 1
        got += w_int[ce.origin]
    if any(x > 2 for x in load.values()):
        raise VerificationFailed("witness overloads a vertex")
    if got != 2 * objective_int:
        raise VerificationFailed("witness weight differs from the dual objective")
    tight_set = set(tight)
    if any(eid not in tight_set for eid in witness):
        raise VerificationFailed("witness uses a slack edge")
    if any(load[v] != 2 for v in critical):
        raise VerificationFailed("witness leaves a positive-potential vertex open")
    return DualSolution(
        y=y, objective=objective, tight_edges=tight, critical=critical,
        witness=witness,
    )


def dual_faults(inst: Instance, weights: Mapping[str, Rational], got: DualSolution,
                cold: DualSolution) -> list[str]:
    """Each way ``got`` fails to be the cold-start dual ``cold`` with a
    witness of its own: a field other than the witness that differs (``y``
    also in its insertion order and in being ``Fraction``s), or a witness
    that leaves the tight edges, weighs other than the objective, is not a
    half-matching or leaves a critical vertex open. Raises nothing, so a
    check under ``python -O`` can name what failed."""
    faults = [name for name in ("objective", "tight_edges", "critical")
              if getattr(got, name) != getattr(cold, name)]
    if list(got.y.items()) != list(cold.y.items()) or not all(
            type(x) is Fraction for x in got.y.values()):
        faults.append("y")
    if type(got.objective) is not Fraction:
        faults.append("objective is not a Fraction")
    witness = got.witness
    if not set(witness) <= set(got.tight_edges):
        faults.append("witness uses a slack edge")
    if sum((_rat(weights.get(eid, ZERO)) * x for eid, x in witness.items()),
           ZERO) != got.objective:
        faults.append("witness weight differs from the objective")
    try:
        check_matching(inst, witness, half=True)
    except MatchingError as err:
        faults.append(f"witness is no half-matching: {err}")
    if not got.critical <= saturated_vertices(inst, witness):
        faults.append("witness leaves a critical vertex open")
    return faults
