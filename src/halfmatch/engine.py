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


class _Court:
    """Mutable proposal state over strict preference lists."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self.lists: dict[str, list[str]] = {
            v: inst.strict_order(v) for v in inst.vertices
        }
        self.held: dict[str, str | None] = {v: None for v in inst.vertices}
        self.accepted: dict[str, bool] = {v: False for v in inst.vertices}
        self.queue: deque[str] = deque(v for v in inst.vertices if self.lists[v])

    def delete(self, eid: str) -> None:
        """Remove an edge from both endpoint lists, freeing any proposer."""
        edge = self.inst.edge(eid)
        for x in (edge.u, edge.v):
            lst = self.lists[x]
            if eid not in lst:
                return  # already gone (deletions are always two-sided)
            was_first = lst[0] == eid
            lst.remove(eid)
            if self.held[x] == eid:
                self.held[x] = None
            if was_first:
                self.accepted[x] = False
            if not self.accepted[x] and lst:
                self.queue.append(x)

    def cascade(self) -> None:
        """Run proposals until every agent with a nonempty list is accepted."""
        while self.queue:
            v = self.queue.popleft()
            if self.accepted[v] or not self.lists[v]:
                continue
            eid = self.lists[v][0]
            w = self.inst.other(eid, v)
            h = self.held[w]
            if h == eid:
                self.accepted[v] = True
                continue
            if h is None or self.inst.pref[w][eid] > self.inst.pref[w][h]:
                self.accepted[v] = True
                self.held[w] = eid
                tail = self.lists[w][self.lists[w].index(eid) + 1:]
                for g in tail:
                    self.delete(g)
            else:
                self.delete(eid)

    def find_rotation(self) -> list[tuple[str, str, str]]:
        """Walk second/last pointers from a length>=3 list to a cycle.

        Returns the cyclic part as (agent, its second entry, acceptor)
        triples. The walk can never enter a cycle whose members all have
        length-two lists, so eliminating the result never destroys a
        settled half-cycle.
        """
        start = next(v for v in self.inst.vertices if len(self.lists[v]) >= 3)
        seq: list[tuple[str, str, str]] = []
        pos: dict[str, int] = {}
        x = start
        while x not in pos:
            pos[x] = len(seq)
            if len(self.lists[x]) < 2:
                raise VerificationFailed(f"rotation walk meets a short list at {x!r}")
            second = self.lists[x][1]
            y = self.inst.other(second, x)
            if len(self.lists[y]) < 2:
                raise VerificationFailed(f"rotation walk meets a short list at {y!r}")
            last = self.lists[y][-1]
            seq.append((x, second, y))
            x = self.inst.other(last, y)
        return seq[pos[x]:]

    def eliminate(self, rotation: list[tuple[str, str, str]]) -> None:
        """Drop everything below the rotation's improved proposals, as a batch."""
        doomed: set[str] = set()
        for _, second, y in rotation:
            tail = self.lists[y][self.lists[y].index(second) + 1:]
            doomed.update(tail)
        if not doomed:
            raise VerificationFailed("rotation eliminates nothing")
        for g in sorted(doomed):
            self.delete(g)


def stable_half_matching(inst: Instance) -> StablePartitionCert:
    """A stable half-matching whose support is pairs plus odd half-cycles.

    Requires strict preferences (parallel edges welcome). Deterministic:
    agents court in canonical vertex order, every scan is sorted, and the
    output is certified blocking-free before it is returned. On instances
    that admit no odd half-cycle (bipartite ones in particular) the
    result is integral.
    """
    court = _Court(inst)
    court.cascade()
    while any(len(court.lists[v]) >= 3 for v in inst.vertices):
        court.eliminate(court.find_rotation())
        court.cascade()

    m: dict[str, Fraction] = {}
    ones: list[str] = []
    odd: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
    done: set[str] = set()
    for v in inst.vertices:
        lst = court.lists[v]
        if v in done or not lst:
            continue
        if len(lst) == 1:
            eid = lst[0]
            w = inst.other(eid, v)
            if court.lists[w] != [eid]:
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
            if len(court.lists[x]) != 2:
                raise VerificationFailed(f"courting cycle meets {x!r} with a long list")
            verts.append(x)
            eids.append(court.lists[x][0])
            x = inst.other(court.lists[x][0], x)
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
