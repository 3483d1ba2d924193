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

The proposal state is integer-indexed. Edges are numbered by rank in
the id-sorted edge list (so integer order is id order) and vertices by
canonical index. Each vertex keeps its strict order, read from the
Instance, as a fixed list of edge ranks, and every edge knows its
position at both endpoints, so preferences compare by position. One
``alive`` bytearray records deletions (always two-sided); per vertex,
head and tail pointers step past dead entries when the first or last
live entry dies, and a live count stands in for the list length. A
deletion costs O(1) plus pointer steps, which never move back: O(m) in
all. An acceptance deletes the live entries after it, and successive
acceptances at one vertex scan disjoint ranges. Counts only fall, so a
single pointer over vertex indices finds each rotation's start.

Also here: exhaustive half-matching enumeration and the brute-force
stability oracles used to cross-check every solver at desk scale.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .core import (
    HALF,
    ONE,
    Instance,
    VerificationFailed,
    blocking_edges,
    matching_size,
)


class BoundExceeded(ValueError):
    """An enumeration was requested beyond its configured edge bound."""


DEFAULT_BOUND = 12


def enumerate_half_matchings(
    inst: Instance, bound: int = DEFAULT_BOUND
) -> Iterator[dict[str, Fraction]]:
    """Yield every half-matching of the instance, in canonical order.

    Edges are scanned in id order and values tried as 0, 1/2, 1, so the
    stream is deterministic. Raises :class:`BoundExceeded` when the
    instance has more than ``bound`` edges.
    """
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


def iter_stable_half_matchings(
    inst: Instance, mode: str = "weak", bound: int = DEFAULT_BOUND
) -> Iterator[dict[str, Fraction]]:
    """All half-matchings with no (weak or gamma) blocking edge."""
    for m in enumerate_half_matchings(inst, bound):
        if not blocking_edges(inst, m, mode):
            yield m


def brute_force_max_stable(
    inst: Instance, mode: str = "weak", bound: int = DEFAULT_BOUND
) -> tuple[Fraction, dict[str, Fraction]]:
    """Maximum size over all stable half-matchings, with a witness.

    The witness is the first maximizer in canonical enumeration order.
    """
    best: tuple[Fraction, dict[str, Fraction]] | None = None
    for m in iter_stable_half_matchings(inst, mode, bound):
        size = matching_size(m)
        if best is None or size > best[0]:
            best = (size, m)
    if best is None:
        raise RuntimeError("no stable half-matching found; this cannot happen")
    return best


# ---------------------------------------------------------------------------
# the engine


@dataclass(frozen=True)
class StablePartitionCert:
    """A stable half-matching together with its support decomposition.

    ``ones`` lists the value-1 edges; ``odd_cycles`` the half-value
    cycles as aligned (vertices, edge ids) tuples. Construction
    re-verifies that no blocking edge exists.
    """

    matching: dict[str, Fraction]
    ones: tuple[str, ...]
    odd_cycles: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]


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


def stable_half_matching(inst: Instance) -> StablePartitionCert:
    """A stable half-matching whose support is pairs plus odd half-cycles.

    Requires strict preferences (parallel edges welcome). Deterministic:
    agents court in canonical vertex order, every scan is sorted, and the
    output is certified blocking-free before it is returned. On instances
    that admit no odd half-cycle (bipartite ones in particular) the
    result is integral.
    """
    return _partition(inst, _reduce(inst))


def _partition(inst: Instance, lists: dict[str, list[str]]) -> StablePartitionCert:
    """Read pairs and half-cycles off the reduced lists; certify the result."""
    m: dict[str, Fraction] = {}
    ones: list[str] = []
    odd: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
    done: set[str] = set()
    for v in inst.vertices:
        lst = lists[v]
        if v in done or not lst:
            continue
        if len(lst) == 1:
            eid = lst[0]
            w = inst.other(eid, v)
            if lists[w] != [eid]:
                raise VerificationFailed(f"singleton list of {v!r} is not mirrored")
            m[eid] = ONE
            ones.append(eid)
            done.update((v, w))
            continue
        # trace the courting cycle; v is its lowest-indexed member
        verts = [v]
        eids = [lst[0]]
        x = inst.other(lst[0], v)
        while x != v:
            if len(lists[x]) != 2:
                raise VerificationFailed(f"courting cycle meets {x!r} with a long list")
            verts.append(x)
            eids.append(lists[x][0])
            x = inst.other(lists[x][0], x)
        done.update(verts)
        if len(eids) % 2 == 1:
            for eid in eids:
                m[eid] = HALF
            odd.append((tuple(verts), tuple(eids)))
        else:
            for t in range(0, len(eids), 2):
                m[eids[t]] = ONE
                ones.append(eids[t])

    if blocking_edges(inst, m, "weak"):
        raise VerificationFailed("engine produced a blocked matching")
    return StablePartitionCert(
        matching=m, ones=tuple(sorted(ones)), odd_cycles=tuple(odd)
    )
