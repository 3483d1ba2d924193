"""Bipartite double cover of an instance and its maximum-weight matching.

Every graph G unfolds into a bipartite graph on two copies of its vertex
set: each edge (u, v) becomes the two cover edges (u, v') and (v, u').
Giving each origin edge 1/2 per matched cover copy turns a cover
matching into a half-matching of G of half its size, and the cover's
maximum weight is twice G's fractional one, which lets bipartite
machinery (augmenting paths, dual potentials) answer fractional
questions about G exactly.

The Hungarian method here (:func:`_hungarian`) runs on lists indexed by
vertex and by arc, and on Python ints. The package reaches it through one
routine, :func:`_fractional_dual`, which lays the cover's arcs out one way
(arc i joins eu[i] to ev[i]', arc k + i joins ev[i] to eu[i]'), runs the
kernel from a start it is given and makes one check of the result:
``solvers.max_weight_dual`` starts from every arc,
:func:`max_cardinality_saturating` too, with weight 1 per required
endpoint, and the popularity dual from its matching's arcs, with its
critical set to saturate and a cap that proves the matching popular.
Phases are rooted in vertex order; every other choice goes to the least
vertex, then to the least arc. The potentials depend on neither (below),
so only the witness depends on the arc layout. The named cover
(:func:`double_cover`) and its adapter :func:`max_weight_cover_matching`,
which scales the weights once by the lcm L of their denominators (L > 0
keeps every comparison's outcome, so ties break as in ``Fraction``
arithmetic), checks the kernel's result by :func:`_certify` and returns
``Fraction``s over L, are the tests' reference; every choice there goes
to the least vertex name, then to the least cover id.

A start moves the mates, never the potentials. Rights start at 0 and rise
only in a shift of delta, on the tree's rights T. Each tree left l is the
root or the mate of a right of T, its potential is its best surplus
max(0, max_r w - y_r) >= delta, reached only on its tight arcs, all in T,
and its other arcs have slack >= delta. Tree lefts that demand only
within some T' <= T, and outnumber T', hold the root and the mates of T',
so T' holds all that the tree reaches: T' = T. Let p be the least right
potentials among optimal duals (they form a lattice: Shapley and Shubik
1971), and say y_right <= p before the shift. At y_right + t on T,
0 <= t < delta, the tree lefts demand as before, so Demange, Gale and
Sotomayor's lemma (1986: if more bidders than S has items demand only
within S, and no part of S is so overdemanded by them, every equilibrium
above the prices prices all of S higher) gives p > y_right + t on T, so
y_right <= p still holds after the shift. The run ends at an optimal
dual, so y_right = p, and each y_left is the best surplus against p,
whatever was matched.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import lcm
from operator import add, mul
from typing import Iterable, Mapping, NamedTuple, Sequence

from .core import ZERO, Instance, VerificationFailed


class CoverEdge(NamedTuple):
    cid: str
    left: str   # original vertex on the plain side
    right: str  # original vertex whose primed copy is used
    origin: str


@dataclass(frozen=True)
class DoubleCover:
    """The two-sided unfolding of an instance.

    Cover edge ids derive from origin ids: ``e>`` is (u, v') and ``e<``
    is (v, u') for origin edge e=(u, v) as stored. A cover matching is a
    set of cover edge ids using each plain and each primed vertex at
    most once.
    """

    inst: Instance
    edges: tuple[CoverEdge, ...]
    _by_id: Mapping[str, CoverEdge]

    def edge(self, cid: str) -> CoverEdge:
        return self._by_id[cid]


def double_cover(inst: Instance) -> DoubleCover:
    es = tuple(sorted([CoverEdge(e.eid + ">", e.u, e.v, e.eid) for e in inst.edges]
                      + [CoverEdge(e.eid + "<", e.v, e.u, e.eid) for e in inst.edges]))
    return DoubleCover(inst=inst, edges=es, _by_id={ce.cid: ce for ce in es})


# ---------------------------------------------------------------------------
# maximum-weight cover matching with dual potentials


@dataclass(frozen=True)
class CoverMatchingResult:
    matched: frozenset[str]                 # cover edge ids
    y_left: Mapping[str, Fraction]          # potential of each plain copy
    y_right: Mapping[str, Fraction]         # potential of each primed copy
    weight: Fraction


def _phase(root, arcs, tail, head, w, y_left, y_right, mate_left, mate_right) -> None:
    """One Hungarian phase: grow an alternating tree from the unmatched left
    ``root`` until a path to a free right or to a zero-potential left flips
    into the matching, or the root itself falls to zero potential. The least
    vertex index, then the least arc index, wins a tie. Weights and
    potentials are ints, and every shift is an int.

    A shift lowers every tree left and every outside slack and raises every
    tree right by the same delta, so it only raises one ``offset``, and each
    tree vertex takes the shifts since it joined when the phase ends. Until
    then a tree left holds its potential plus the offset when it joined, and
    each outside right its least slack plus the offset (its raw slack), also
    in a heap of (raw slack, right) whose top is the least right of least
    slack; entries that the tree or a smaller slack made stale are skipped.
    """
    # the potentials are feasible when a phase starts, so no raw slack is negative
    raw = [-1] * len(y_right)  # right -> least raw slack, -1 if unreached, -2 in the tree
    via = [0] * len(y_right)  # ... and its least cover edge, tight once in the tree
    heap: list[tuple[int, int]] = []
    entry: dict[int, int] = {}  # right in the tree -> the offset when it joined
    lefts = [root]
    offset = 0
    low = y_left[root]  # the least raw potential of a tree left
    new: int | None = root
    while True:
        if new is not None:  # scan the arcs of the left that just joined
            y_left[new] = base = y_left[new] + offset
            if base < low:
                low = base
            for c in arcs[new]:
                r = head[c]
                gap = base + y_right[r] - w[c]
                s = raw[r]
                if gap < s or s == -1:
                    raw[r], via[r] = gap, c
                    heappush(heap, (gap, r))
                elif gap == s and c < via[r]:
                    via[r] = c
            new = None
        while heap and heap[0][0] != raw[heap[0][1]]:
            heappop(heap)
        if heap and heap[0][0] == offset:
            r = heappop(heap)[1]
            entry[r] = offset
            raw[r] = -2
            c = mate_right[r]
            if c is None:
                break
            if y_left[tail[c]] == 0:
                # free this zero-potential left and shift the path to the root
                mate_left[tail[c]] = mate_right[r] = None
                break
            new = tail[c]
            lefts.append(new)
            continue
        offset = min(heap[0][0], low) if heap else low
        if low == offset:
            u = min(u for u in lefts if y_left[u] == low)
            r = None  # the root may stay unmatched at zero potential
            if u != root:
                r = head[mate_left[u]]
                mate_left[u] = mate_right[r] = None
            break
    for u in lefts:
        y_left[u] -= offset
    for x, at in entry.items():
        y_right[x] += offset - at
    while r is not None:  # alternate tree arcs into the matching from r up to the root
        c = via[r]
        old = mate_left[tail[c]]
        mate_left[tail[c]] = mate_right[r] = c
        if old is None:
            return
        r = head[old]


def scale_to_ints(values: Iterable[int | Fraction]) -> tuple[int, list[int]]:
    """The lcm L of the values' denominators, and each value times L as an int."""
    vals = list(values)
    scale = lcm(*{x.denominator for x in vals})
    return scale, [x.numerator * (scale // x.denominator) for x in vals]


def _hungarian(n: int, tail: list[int], head: list[int], w: list[int],
               roots: Iterable[int], start: Iterable[int] = ()
               ) -> tuple[list[int], list[int], list[int | None]]:
    """The Hungarian method on n left and n right vertices, arc c joining
    left ``tail[c]`` to right ``head[c]`` at the int weight ``w[c]``, matched
    only if positive: each arc of ``start`` in turn is matched if tight with
    both ends free, then a phase runs from each of ``roots`` unmatched at a
    positive potential. Returns the left and the right potentials, which no
    ``start`` or order of ``roots`` changes (module docstring), and each
    left's matched arc or None."""
    arcs: list[list[int]] = [[] for _ in range(n)]
    y_left = [0] * n  # each left's largest arc weight
    for c, (u, x) in enumerate(zip(tail, w)):
        if x > 0:
            arcs[u].append(c)
            if x > y_left[u]:
                y_left[u] = x
    y_right = [0] * n
    mate_left: list[int | None] = [None] * n
    mate_right: list[int | None] = [None] * n
    for c in start:  # every right is still at 0, so tight means the left's largest
        u, r = tail[c], head[c]
        if 0 < w[c] == y_left[u] and mate_left[u] is None and mate_right[r] is None:
            mate_left[u] = mate_right[r] = c
    for u in roots:
        if y_left[u] > 0 and mate_left[u] is None:
            _phase(u, arcs, tail, head, w, y_left, y_right, mate_left, mate_right)
    return y_left, y_right, mate_left


def _fractional_dual(n: int, eu: list[int], ev: list[int], w: list[int],
                     start: Iterable[int], saturate: Iterable[int] = (),
                     cap: int | None = None) -> tuple[list[int], list[int] | None]:
    """The largest fractional matching on vertices 0..n-1, edge i joining
    ``eu[i]`` to ``ev[i]`` at the int weight ``w[i]``, by :func:`_hungarian`
    on the cover (module docstring) from the arcs of ``start``: twice the
    optimal potentials y by vertex, and the witness's doubled masses by edge,
    or None in their place when sum y <= ``cap``.

    One check, else :class:`VerificationFailed`: y >= 0 and y_u + y_v >= 2 w_i
    on every edge i, and then, unless sum y <= ``cap`` (weak duality has then
    bounded twice every fractional weight by it), the witness loads no vertex
    past 2 and each of ``saturate`` to exactly 2, and weighs sum y. By weak
    duality and complementary slackness both are then optimal, the witness
    lies on tight edges and saturates every vertex of positive potential.
    """
    k = len(w)
    y_left, y_right, mate = _hungarian(n, eu + ev, ev + eu, w + w, range(n), start)
    y = list(map(add, y_left, y_right))
    if min(y, default=0) < 0:
        raise VerificationFailed("negative dual potential")
    for i, (u, v, x) in enumerate(zip(eu, ev, w)):
        if y[u] + y[v] < 2 * x:
            raise VerificationFailed(f"dual infeasible at edge {i}")
    if cap is not None and sum(y) <= cap:
        return y, None
    held, load = [0] * k, [0] * n
    for c in mate:
        if c is not None:
            c %= k
            held[c] += 1
            load[eu[c]] += 1
            load[ev[c]] += 1
    if max(load, default=0) > 2:
        raise VerificationFailed("witness overloads a vertex")
    if any(load[x] != 2 for x in saturate):
        raise VerificationFailed("witness leaves a vertex to saturate open")
    if sum(map(mul, held, w)) != sum(y):
        raise VerificationFailed("witness weight differs from the dual objective")
    return y, held


def _certify(cids: Sequence[str], tail: Sequence[int], head: Sequence[int],
             w: Sequence[int], y_left: Sequence[int], y_right: Sequence[int],
             mate_left: Sequence[int | None]) -> int:
    """The kernel's result checked as an optimum, or :class:`VerificationFailed`
    naming the first failure: y_left + y_right >= w on every arc (named by
    ``cids``) and = w on each matched one, no negative potential, none
    positive on an unmatched copy, and the matched weight, which it returns,
    equal to the potential sum."""
    for c, (u, r, x) in enumerate(zip(tail, head, w)):
        if y_left[u] + y_right[r] < x:
            raise VerificationFailed(f"cover dual infeasible at {cids[c]}")
    matched = [c for c in mate_left if c is not None]
    right_open = [True] * len(y_right)
    for c in matched:
        if y_left[tail[c]] + y_right[head[c]] != w[c]:
            raise VerificationFailed(f"matched cover edge {cids[c]} is slack")
        right_open[head[c]] = False
    if min(y_left, default=0) < 0 or min(y_right, default=0) < 0:
        raise VerificationFailed("negative cover potential")
    if any(y > 0 and c is None for y, c in zip(y_left, mate_left)) or any(
            y > 0 and free for y, free in zip(y_right, right_open)):
        raise VerificationFailed("positive potential on an unmatched cover vertex")
    total = sum(w[c] for c in matched)
    if total != sum(y_left) + sum(y_right):
        raise VerificationFailed("cover matching weight differs from the dual objective")
    return total


def max_weight_cover_matching(
    cover: DoubleCover, weights: Mapping[str, int | Fraction]
) -> CoverMatchingResult:
    """Exact primal-dual maximum-weight matching on the cover.

    ``weights`` maps origin edge ids to rationals; both cover copies of
    an edge inherit its weight. Returns a matching and nonnegative
    potentials satisfying y_l + y_r >= w on every cover edge, tightness
    on matched edges, and positivity only on matched vertices, which
    certifies optimality. Deterministic: phases are rooted in canonical
    vertex order, and every tie goes to the least vertex name, then to
    the least cover id.

    The Hungarian method and the postconditions (:func:`_certify`) run on
    the weights times L, the lcm of their denominators, as ints; the
    potentials and the weight are returned as ``Fraction``s over L. Int
    weights make L = 1, and every returned value an integer.
    """
    verts = cover.inst.vertices
    rank = {v: i for i, v in enumerate(sorted(verts))}
    # cover.edges is sorted by cover id, so its positions are cover-id ranks
    tail = [rank[ce.left] for ce in cover.edges]
    head = [rank[ce.right] for ce in cover.edges]
    scale, w = scale_to_ints(weights.get(ce.origin, ZERO) for ce in cover.edges)
    y_left, y_right, mate_left = _hungarian(len(verts), tail, head, w,
                                            map(rank.__getitem__, verts))
    total = _certify([ce.cid for ce in cover.edges], tail, head, w, y_left, y_right, mate_left)
    matched = [c for c in mate_left if c is not None]
    return CoverMatchingResult(
        matched=frozenset(cover.edges[c].cid for c in matched),
        y_left={v: Fraction(y_left[rank[v]], scale) for v in verts},
        y_right={v: Fraction(y_right[rank[v]], scale) for v in verts},
        weight=Fraction(total, scale),
    )


def max_cardinality_saturating(inst: Instance, required: frozenset[str]) -> bool:
    """Whether some fractional matching of ``inst`` saturates every required
    vertex: with weight 1 per required endpoint its largest weight is then
    |required|, twice which is the sum of :func:`_fractional_dual`'s y."""
    need = [v in required for v in inst.vertices]
    w = [need[u] + need[v] for u, v in zip(inst._end_u, inst._end_v)]
    y, _ = _fractional_dual(len(need), inst._end_u, inst._end_v, w, range(2 * len(w)))
    return sum(y) == 2 * len(required)
