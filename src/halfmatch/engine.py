"""Stable half-matchings in strict-preference multigraphs.

The solver runs a proposal-rejection phase over edges (each agent courts
along its best surviving incident edge; an accepted proposal evicts
everything strictly worse from the acceptor's list, and every deletion
is mirrored at the other endpoint), then repeatedly eliminates rotations
until every reduced list has at most two entries. At that point the
lists encode a partition into matched pairs and half-value cycles:

* a singleton list pairs two agents through one edge (value 1);
* length-two lists chain into cycles where each agent courts along its
  first entry and holds a proposal along its last.

Odd cycles stay at value 1/2. Even cycles are resolved into alternating
value-1 edges, which preserves stability (every agent keeps one of its
two cycle edges, never below its held one) and makes the output integral
whenever no odd cycle can occur, e.g. on bipartite instances.

Two facts make any fixed point of this process stable: an edge is only
ever deleted while one endpoint holds a strictly better edge, and held
values never deteriorate. Hence a deleted edge cannot block, a surviving
edge is first or last in a list and cannot block either, and agents whose
lists emptied never held anything, so their edges are all guarded from
the other side.

The engine runs on a :class:`CopyMarket`, whose orders list copy
indices; a strict ``Instance`` is read into one. Finding every copy's
position at both ends checks that each order lists its vertex's copies
once each. Deletion is lazy, as in Irving's roommates algorithm: an
entry is live iff its position is within the tail bound at both ends.
An acceptance lowers the acceptor's bound to the proposal and frees the
displaced proposer; a rotation is eliminated in place, with no
proposals (:func:`_reduce`). Head and second-entry pointers skip dead
entries and never move back, so the work is the entries passed over,
not the copies deleted. The rotation walk keeps its path from one
rotation to the next, as Irving's phase 2 keeps its sequence (Gusfield
and Irving, *The Stable Marriage Problem*, 1989, section 4.2): only the
steps an elimination can change are walked again. The output is
certified from its values alone (:func:`_blocked`).

Also here: exhaustive half-matching enumeration and the brute-force
stability oracles used to cross-check every solver at desk scale. One
private enumerator (:class:`_Assignments`) walks every half-integral
assignment in canonical order, holding each edge's doubled value by edge
rank and each vertex's doubled load as ints; the public enumerators are
views of it, and popularity's rival scan reads it in place. The oracle
walks it once into two bytearrays, each leaf's size in halves and its
doubled values, then tests the leaves from the largest size down, those
of one size in canonical order, and stops at the first stable one. The
test is the weak or gamma blocking rule ``core.blocking_edges`` runs, on
edge ranks and per-vertex assigned values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import lt
from typing import Iterator, Sequence

from .core import (
    HALF,
    ONE,
    Instance,
    VerificationFailed,
    _assigned_values,
    _blocking,
    _check_mode,
)


class BoundExceeded(ValueError):
    """An enumeration was requested beyond its configured edge bound."""


DEFAULT_BOUND = 12
_VALUES = (None, HALF, ONE)  # by doubled value


class _Assignments:
    """Every half-integral assignment of ``inst``, in canonical order: edges
    in id order, values tried as 0, 1/2, 1.

    ``val[r]`` is edge rank r's doubled value (0, 1 or 2) and ``load[x]``
    vertex x's doubled load. Iterating moves both in place from one
    assignment to the next, as an odometer whose last edge turns fastest,
    and yields each assignment's size in halves. Raises
    :class:`BoundExceeded` when the instance has more than ``bound`` edges,
    then the errors of an unknown or unsupported blocking ``mode``.
    """

    def __init__(self, inst: Instance, bound: int, mode: str = "weak") -> None:
        if len(inst.edges) > bound:
            raise BoundExceeded(f"{len(inst.edges)} edges exceed the enumeration bound {bound}")
        _check_mode(inst, mode)
        self.inst, self.mode = inst, mode
        self.eids = [e.eid for e in inst.edges]
        self.val = [0] * len(inst.edges)
        self.load = [0] * len(inst.vertices)

    def __iter__(self) -> Iterator[int]:
        val, load, eu, ev = self.val, self.load, self.inst._end_u, self.inst._end_v
        halves = 0
        yield halves
        while True:
            # the last edge whose value can rise, once every later one is back at 0
            r = len(val) - 1
            while r >= 0:
                k, u, v = val[r], eu[r], ev[r]
                if k < 2 and load[u] < 2 and load[v] < 2:
                    break
                if k:
                    val[r], halves = 0, halves - k
                    load[u] -= k
                    load[v] -= k
                r -= 1
            else:
                return
            val[r], halves = k + 1, halves + 1
            load[u] += 1
            load[v] += 1
            yield halves

    def matching(self) -> dict[str, Fraction]:
        """The current assignment by edge id, in id order, its values the
        shared ``core.HALF`` and ``core.ONE``."""
        return {eid: _VALUES[k] for eid, k in zip(self.eids, self.val) if k}

    def blocked(self) -> bool:
        """Whether an edge blocks the current assignment, by core's rule."""
        val = self.val
        held = list(compress(range(len(val)), val))
        assigned = _assigned_values(self.inst, held, [x == 2 for x in self.load])
        full = [r for r in held if val[r] == 2]
        return next(_blocking(self.inst, self.mode, assigned, full), None) is not None


def enumerate_half_matchings(
    inst: Instance, bound: int = DEFAULT_BOUND
) -> Iterator[dict[str, Fraction]]:
    """Yield every half-matching of the instance, in canonical order.

    Edges are scanned in id order and values tried as 0, 1/2, 1, so the
    stream is deterministic. Every value is one of the shared objects
    ``core.HALF`` and ``core.ONE``. Raises :class:`BoundExceeded` when the
    instance has more than ``bound`` edges.
    """
    walk = _Assignments(inst, bound)
    for _ in walk:
        yield walk.matching()


def iter_stable_half_matchings(
    inst: Instance, mode: str = "weak", bound: int = DEFAULT_BOUND
) -> Iterator[dict[str, Fraction]]:
    """All half-matchings with no (weak or gamma) blocking edge."""
    walk = _Assignments(inst, bound, mode)
    for _ in walk:
        if not walk.blocked():
            yield walk.matching()


def brute_force_max_stable(
    inst: Instance, mode: str = "weak", bound: int = DEFAULT_BOUND
) -> tuple[Fraction, dict[str, Fraction]]:
    """Maximum size over all stable half-matchings, with a witness.

    The witness is the first maximizer in canonical enumeration order.
    One walk stores every assignment as E + 1 bytes: its size in halves
    and its doubled values by edge rank. Sizes are then tried from the
    largest down, the assignments of one size in canonical order, and
    the first stable one is the witness: no test falls on an assignment
    below the maximum. The test is core's weak or gamma blocking rule,
    the one :func:`core.blocking_edges` applies. Raises
    :class:`BoundExceeded` past ``bound`` edges, then the blocking mode's
    errors, and :class:`VerificationFailed` if no assignment is stable.
    """
    walk = _Assignments(inst, bound, mode)
    val, load, eu, ev = walk.val, walk.load, inst._end_u, inst._end_v
    width = len(val)
    sizes, vals = bytearray(), bytearray()  # per leaf: its halves, its doubled values
    for halves in walk:
        sizes.append(halves)
        vals.extend(val)
    for halves in range(max(sizes), -1, -1):
        i = sizes.find(halves)
        while i >= 0:
            val[:] = vals[i * width:(i + 1) * width]
            load[:] = [0] * len(load)
            for k, u, v in zip(val, eu, ev):
                load[u] += k
                load[v] += k
            if not walk.blocked():
                return Fraction(halves, 2), walk.matching()
            i = sizes.find(halves, i + 1)
    raise VerificationFailed("no stable half-matching found; this cannot happen")


# ---------------------------------------------------------------------------
# the engine


@dataclass(frozen=True)
class StablePartitionCert:
    """A stable half-matching of ``market`` with its support decomposition.

    ``halves`` maps each matched copy's index to its value in halves (1
    or 2); ``matching`` names them by copy id, only when read. ``odd_cycles``
    lists the half-value cycles as aligned (vertices, copy ids) tuples.
    The dataclass checks nothing itself: ``_partition`` certifies, through
    ``_blocked``, that no copy blocks the matching before it builds one.
    """

    market: CopyMarket
    halves: dict[int, int]
    odd_cycles: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]

    @property
    def matching(self) -> dict[str, Fraction]:
        return {self.market.copy_id(c): HALF if k == 1 else ONE for c, k in self.halves.items()}


@dataclass(frozen=True)
class CopyMarket:
    """A strict market whose edges are the numbered copies ``0..k-1``.

    Copy c joins the vertices of indices ``eu[c]`` and ``ev[c]``, and
    ``orders[x]`` lists vertex x's copies best first. Its id,
    ``labels[origin[c]] + tags[c]``, is made only when asked for.
    """

    vertices: tuple[str, ...]
    eu: Sequence[int]
    ev: Sequence[int]
    orders: Sequence[Sequence[int]]
    origin: Sequence[int]
    labels: Sequence[str]
    tags: Sequence[str]

    @property
    def edges(self) -> range:
        return range(len(self.eu))

    def copy_id(self, c: int) -> str:
        return self.labels[self.origin[c]] + self.tags[c]


def _positions(market: CopyMarket) -> tuple[list[int], list[int]]:
    """Each copy's position in the orders of its ``eu`` and its ``ev`` end;
    :class:`VerificationFailed`, naming the vertex, unless every order
    lists exactly the copies at its vertex, each once."""
    def misordered(x: int) -> VerificationFailed:
        return VerificationFailed(
            f"the order of {market.vertices[x]!r} does not list its copies once each")

    eu, ev = market.eu, market.ev
    pu, pv = [-1] * len(eu), [-1] * len(eu)
    position = list(range(max(map(len, market.orders), default=0)))  # one int per position
    for x, o in enumerate(market.orders):
        for p, e in zip(position, o):
            if eu[e] == x and pu[e] < 0:
                pu[e] = p
            elif ev[e] == x and pv[e] < 0:
                pv[e] = p
            else:  # listed twice, or not a copy at x
                raise misordered(x)
    for ends, pos in ((eu, pu), (ev, pv)):
        if -1 in pos:  # a copy missing at this end
            raise misordered(ends[pos.index(-1)])
    return pu, pv


def _reduce(market: CopyMarket, pu: list[int], pv: list[int]) -> list[list[int]]:
    """Every vertex's surviving list, best first, once none has three entries.

    Proposals run until every agent with a nonempty list is accepted;
    then rotations are eliminated in place while a list has three or more
    entries. By Irving's rotation lemma, eliminating an exposed rotation
    makes each member x's second entry its first and x the last entry of
    its acceptor y, and changes nothing else. A vertex that is an x and a
    y of one rotation is covered: its head moves as an x, its tail as a y,
    and neither step reads what the other writes.

    The walk to each rotation goes on from the path the last one left. A
    rotation found at step i0 keeps the steps before i0 - 1, or before the
    first step whose x is one of its y's if that comes first, and the walk
    goes on from that step's x. No other step changes: no head before i0
    moves; step i0 - 1's y is the closing step's, whose last entry moves;
    an x whose tail moves as a y can lose its second entry; and no earlier
    y is one of the rotation's, as a step's y accepts the next step's x.
    So the rotations are those, in the order, of walks that start again at
    the first long list each time, which this one does once its path is
    empty.
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

    # walk second/last pointers to a cycle; the walk can never enter a cycle
    # whose members all have length-two lists, so eliminating it never
    # destroys a settled half-cycle. The path is kept across eliminations
    at = [-1] * n  # each vertex's step on the path as x, else -1
    xs: list[int] = []  # each step's x ...
    ys: list[int] = []  # ... its acceptor y ...
    ps: list[int] = []  # ... and the position of x's second entry at y
    start = 0  # lists only shrink, so no vertex before start regains 3 entries
    while True:
        if not xs:
            while start < n and (head[start] >= tail[start] or second(start) == tail[start]):
                start += 1
            if start == n:
                break
            x = start
        while at[x] < 0:
            at[x] = len(xs)
            xs.append(x)
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
        # eliminate it from x on; y's old last entry names the next member
        i0 = at[x]
        cut = max(i0 - 1, 0)
        for j in range(i0, len(ys)):
            y = ys[j]
            if ps[j] >= tail[y]:
                raise VerificationFailed("rotation eliminates nothing")
            if 0 <= at[y] < cut:
                cut = at[y]
            last = order[y][tail[y]]
            x = ev[last] if eu[last] == y else eu[last]
            tail[y] = ps[j]
            head[x] = sec[x]
        for x in xs[cut:]:
            at[x] = -1
        x = xs[cut]
        del xs[cut:], ys[cut:], ps[cut:]

    # each list's head and last entry: two, one or none
    return [order[x][head[x]:tail[x] + 1:max(1, tail[x] - head[x])] for x in range(n)]


def stable_half_matching(market: CopyMarket | Instance) -> StablePartitionCert:
    """A stable half-matching whose support is pairs plus odd half-cycles.

    Takes a derived market or a strict ``Instance`` (parallel edges
    welcome), whose orders it reads as ranks. Deterministic: the output
    depends on the orders only, and it is certified blocking-free before
    it is returned. On instances that admit no odd half-cycle (bipartite
    ones in particular) the result is integral.
    """
    if isinstance(market, Instance):  # one copy per edge, in id order
        inst, eids = market, [e.eid for e in market.edges]
        market = CopyMarket(inst.vertices, inst._end_u, inst._end_v,
                            [inst.strict_ranks(v) for v in inst.vertices],
                            range(len(eids)), eids, [""] * len(eids))
    pu, pv = _positions(market)
    return _partition(market, _reduce(market, pu, pv), pu, pv)


def _blocked(market: CopyMarket, halves: dict[int, int], pu: list[int],
             pv: list[int]) -> list[int]:
    """The copies blocking the half-matching that gives copy c ``halves[c]``
    halves: weak :func:`core.blocking_edges` on the orders' rank valuations.
    A vertex with load 2 prefers exactly the copies above the worst one it
    holds; any other vertex prefers every copy to what it holds."""
    load = [0] * len(market.vertices)
    worst = [-1] * len(load)
    for e, k in halves.items():
        for x, p in ((market.eu[e], pu[e]), (market.ev[e], pv[e])) if k else ():
            load[x] += k
            worst[x] = max(worst[x], p)
    bound = [w if k == 2 else len(o) for w, k, o in zip(worst, load, market.orders)]
    ev = market.ev  # the eu end first: about half the copies pass it
    return [e for e in compress(range(len(pu)), map(lt, pu, map(bound.__getitem__, market.eu)))
            if pv[e] < bound[ev[e]] and halves.get(e, 0) < 2]


def _partition(market: CopyMarket, lists: list[list[int]], pu: list[int],
               pv: list[int]) -> StablePartitionCert:
    """Read pairs and half-cycles off the reduced lists; certify the result."""
    names, eu, ev = market.vertices, market.eu, market.ev
    halves: dict[int, int] = {}  # copy -> its value in halves
    odd: list[tuple[list[int], list[int]]] = []
    done = [False] * len(names)
    for v, lst in enumerate(lists):
        if done[v] or not lst:
            continue
        if len(lst) == 1:
            w = ev[lst[0]] if eu[lst[0]] == v else eu[lst[0]]
            if lists[w] != lst:
                raise VerificationFailed(f"singleton list of {names[v]!r} is not mirrored")
            halves[lst[0]] = 2
            done[v] = done[w] = True
            continue
        # trace the courting cycle; v is its lowest-indexed member
        verts, cycle, x = [v], [lst[0]], ev[lst[0]] if eu[lst[0]] == v else eu[lst[0]]
        while x != v:
            if len(lists[x]) != 2:
                raise VerificationFailed(f"courting cycle meets {names[x]!r} with a long list")
            e = lists[x][0]
            verts.append(x)
            cycle.append(e)
            done[x] = True  # v itself is never visited again
            x = ev[e] if eu[e] == x else eu[e]
        if len(cycle) % 2 == 1:
            halves.update(dict.fromkeys(cycle, 1))
            odd.append((verts, cycle))
        else:
            halves.update(dict.fromkeys(cycle[::2], 2))

    if _blocked(market, halves, pu, pv):
        raise VerificationFailed("engine produced a blocked matching")
    name = market.copy_id
    return StablePartitionCert(market, halves, tuple(
        (tuple(names[x] for x in verts), tuple(map(name, cycle))) for verts, cycle in odd))
