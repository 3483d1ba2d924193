"""Bipartite double cover of an instance and its maximum-weight matching.

Every graph G unfolds into a bipartite graph on two copies of its vertex
set: each edge (u, v) becomes the two cover edges (u, v') and (v, u').
Giving each origin edge 1/2 per matched cover copy turns a cover
matching into a half-matching of G of half its size, and the cover's
maximum weight is twice G's fractional one, which lets bipartite
machinery (augmenting paths, dual potentials) answer fractional
questions about G exactly.

The Hungarian method here (:func:`_hungarian`) runs on lists indexed by
vertex-name rank and cover-id rank, and on Python ints: the weights are
scaled once by the lcm L of their denominators, every potential, slack
and shift then stays integral, and the results become ``Fraction``s
(divided by L) only when they are returned. Both callers in the package
pass int weights (the dual scales its rational weights itself), so for
them L = 1 and every returned value is an integer. Phases are rooted in
canonical vertex order; every other choice goes to the least vertex
name, then to the least cover id. Scaling by L > 0 keeps every
comparison's outcome, so ties break as they would in ``Fraction``
arithmetic. The popularity dual runs the kernel on its own indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, NamedTuple

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
    edges = []
    for e in inst.edges:
        edges.append(CoverEdge(e.eid + ">", e.u, e.v, e.eid))
        edges.append(CoverEdge(e.eid + "<", e.v, e.u, e.eid))
    es = tuple(sorted(edges))
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
    into the matching, or the root itself falls to zero potential. Vertices
    are name ranks and edges cover-id ranks, so the least index wins a tie.
    Weights and potentials are ints, and every shift is an int.
    """
    lefts = [root]
    entry: dict[int, int] = {}  # right in the tree -> tight cover edge into it
    slack: dict[int, tuple[int, int]] = {}  # outside right -> least (gap, edge)
    new: int | None = root
    while True:
        if new is not None:  # scan the arcs of the left that just joined
            for c in arcs[new]:
                r = head[c]
                if r not in entry:
                    key = (y_left[new] + y_right[r] - w[c], c)
                    if r not in slack or key < slack[r]:
                        slack[r] = key
            new = None
        ready = [r for r, (gap, _) in slack.items() if gap == 0]
        if ready:
            r = min(ready)
            entry[r] = slack.pop(r)[1]
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
        bound = min(y_left[u] for u in lefts)
        delta = min([gap for gap, _ in slack.values()] + [bound])
        if delta > 0:
            for u in lefts:
                y_left[u] -= delta
            for r in entry:
                y_right[r] += delta
            for r, (gap, c) in slack.items():
                slack[r] = (gap - delta, c)
        zeroed = [u for u in lefts if y_left[u] == 0]
        if zeroed:
            u = min(zeroed)
            if u == root:
                return  # the root may stay unmatched at zero potential
            r = head[mate_left[u]]
            mate_left[u] = mate_right[r] = None
            break
    while True:  # alternate tree arcs into the matching from r up to the root
        c = entry[r]
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
    positive potential. Returns the left and the right potentials and each
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

    The Hungarian method and the five postconditions run on the weights
    times L, the lcm of their denominators, as ints; the potentials and
    the weight are returned as ``Fraction``s over L. Int weights make
    L = 1, and every returned value an integer.
    """
    verts = cover.inst.vertices
    rank = {v: i for i, v in enumerate(sorted(verts))}
    n = len(verts)
    # cover.edges is sorted by cover id, so its positions are cover-id ranks
    tail = [rank[ce.left] for ce in cover.edges]
    head = [rank[ce.right] for ce in cover.edges]
    scale, w = scale_to_ints(weights.get(ce.origin, ZERO) for ce in cover.edges)
    y_left, y_right, mate_left = _hungarian(n, tail, head, w, map(rank.__getitem__, verts))

    matched = [c for c in mate_left if c is not None]
    total = sum(w[c] for c in matched)
    for c, ce in enumerate(cover.edges):
        if y_left[tail[c]] + y_right[head[c]] < w[c]:
            raise VerificationFailed(f"cover dual infeasible at {ce.cid}")
    for c in matched:
        if y_left[tail[c]] + y_right[head[c]] != w[c]:
            raise VerificationFailed(f"matched cover edge {cover.edges[c].cid} is slack")
    if any(y < 0 for y in y_left) or any(y < 0 for y in y_right):
        raise VerificationFailed("negative cover potential")
    matched_left = {tail[c] for c in matched}
    matched_right = {head[c] for c in matched}
    if any(y_left[u] != 0 for u in range(n) if u not in matched_left) or any(
        y_right[r] != 0 for r in range(n) if r not in matched_right
    ):
        raise VerificationFailed("positive potential on an unmatched cover vertex")
    if total != sum(y_left) + sum(y_right):
        raise VerificationFailed("cover matching weight differs from the dual objective")
    return CoverMatchingResult(
        matched=frozenset(cover.edges[c].cid for c in matched),
        y_left={v: Fraction(y_left[rank[v]], scale) for v in verts},
        y_right={v: Fraction(y_right[rank[v]], scale) for v in verts},
        weight=Fraction(total, scale),
    )


def max_cardinality_saturating(
    cover: DoubleCover, required: frozenset[str]
) -> bool:
    """Whether some cover matching matches every plain and primed copy
    of the required vertices (hence some fractional matching saturates
    them all).
    """
    if not required:
        return True
    weights = {}  # ints, so the kernel's scale is 1
    for e in cover.inst.edges:
        w = 0
        if e.u in required:
            w += 1
        if e.v in required:
            w += 1
        if w > 0:
            weights[e.eid] = w
    best = max_weight_cover_matching(cover, weights)
    return best.weight == 2 * len(required)
