"""Bipartite double cover of an instance and its matching correspondence.

Every graph G unfolds into a bipartite graph on two copies of its vertex
set: each edge (u, v) becomes the two cover edges (u, v') and (v, u').
Half-matchings of G correspond to matchings of the cover at exactly
twice the size, which lets bipartite machinery (augmenting paths, dual
potentials) answer fractional questions about G exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple

from .core import HALF, ZERO, Instance, VerificationFailed, half_support


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

    def pair(self, eid: str) -> tuple[str, str]:
        """The two cover ids of an origin edge."""
        return (eid + ">", eid + "<")

    def check_cover_matching(self, cids: set[str] | frozenset[str]) -> None:
        left_used: set[str] = set()
        right_used: set[str] = set()
        for cid in cids:
            ce = self._by_id[cid]
            if ce.left in left_used or ce.right in right_used:
                raise ValueError(f"cover matching reuses a vertex at {cid!r}")
            left_used.add(ce.left)
            right_used.add(ce.right)

    def lift(self, m: Mapping[str, Fraction]) -> set[str]:
        """Unfold a half-matching into a cover matching of twice its size.

        Saturated edges contribute both cover copies. Each half-cycle on k
        vertices contributes k cover edges oriented around the cycle, and
        each half-path on k vertices contributes k-1 edges oriented from
        its lower-indexed end.
        """
        sup = half_support(self.inst, m)
        out: set[str] = set()
        for eid in sup.ones:
            out.update(self.pair(eid))
        for verts, eids in sup.cycles:
            k = len(verts)
            for t, eid in enumerate(eids):
                out.add(self._oriented(eid, verts[t], verts[(t + 1) % k]))
        for verts, eids in sup.paths:
            for t, eid in enumerate(eids):
                out.add(self._oriented(eid, verts[t], verts[t + 1]))
        self.check_cover_matching(out)
        return out

    def _oriented(self, eid: str, left: str, right: str) -> str:
        e = self.inst.edge(eid)
        if (e.u, e.v) == (left, right):
            return eid + ">"
        if (e.v, e.u) == (left, right):
            return eid + "<"
        raise ValueError(f"edge {eid!r} does not join {left!r} and {right!r}")

    def project(self, cids: set[str] | frozenset[str]) -> dict[str, Fraction]:
        """Fold a cover matching back to a half-matching of half its size."""
        self.check_cover_matching(cids)
        out: dict[str, Fraction] = {}
        for cid in sorted(cids):
            origin = self._by_id[cid].origin
            out[origin] = out.get(origin, ZERO) + HALF
        return out


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


class _Tree:
    """Alternating tree of one Hungarian phase, rooted at an unmatched left."""

    def __init__(self, solver: "_CoverSolver", root: str):
        self.solver = solver
        self.root = root
        self.lefts = {root}
        self.rights: set[str] = set()
        self.entry: dict[str, str] = {}  # right vertex -> tight cover id into it
        # least-slack tree arc toward each outside right: right -> (slack, cid)
        self.slack: dict[str, tuple[Fraction, str]] = {}
        self._scan(root)

    def _scan(self, left: str) -> None:
        s = self.solver
        for ce in s.arcs[left]:
            if ce.right in self.rights:
                continue
            gap = s.y_left[left] + s.y_right[ce.right] - s.weight_of(ce)
            key = (gap, ce.cid)
            if ce.right not in self.slack or key < self.slack[ce.right]:
                self.slack[ce.right] = key

    def add_left(self, left: str) -> None:
        self.lefts.add(left)
        self._scan(left)

    def adopt_right(self, right: str, cid: str) -> None:
        self.rights.add(right)
        self.entry[right] = cid
        del self.slack[right]

    def shift(self, delta: Fraction) -> None:
        s = self.solver
        for v in self.lefts:
            s.y_left[v] -= delta
        for r in self.rights:
            s.y_right[r] += delta
        for r, (gap, cid) in self.slack.items():
            self.slack[r] = (gap - delta, cid)


class _CoverSolver:
    def __init__(self, cover: DoubleCover, weights: Mapping[str, Fraction]):
        self.cover = cover
        self.weights = weights
        verts = cover.inst.vertices
        self.arcs: dict[str, list[CoverEdge]] = {v: [] for v in verts}
        for ce in cover.edges:
            if self.weight_of(ce) > 0:
                self.arcs[ce.left].append(ce)
        for lst in self.arcs.values():
            lst.sort()
        self.y_left = {
            v: max((self.weight_of(ce) for ce in self.arcs[v]), default=ZERO)
            for v in verts
        }
        self.y_right = {v: ZERO for v in verts}
        self.mate_left: dict[str, str | None] = {v: None for v in verts}
        self.mate_right: dict[str, str | None] = {v: None for v in verts}

    def weight_of(self, ce: CoverEdge) -> Fraction:
        return self.weights.get(ce.origin, ZERO)

    def run(self) -> None:
        for root in self.cover.inst.vertices:
            if self.y_left[root] > 0 and self.mate_left[root] is None:
                self._phase(root)

    def _phase(self, root: str) -> None:
        tree = _Tree(self, root)
        while True:
            ready = sorted(r for r, (gap, _) in tree.slack.items() if gap == 0)
            if ready:
                r = ready[0]
                cid = tree.slack[r][1]
                if self.mate_right[r] is None:
                    tree.adopt_right(r, cid)
                    self._rematch_upward(tree, r)
                    return
                tree.adopt_right(r, cid)
                nxt = self.cover.edge(self.mate_right[r]).left
                if self.y_left[nxt] == 0:
                    # free this zero-potential left and shift the path to the root
                    self.mate_left[nxt] = None
                    self.mate_right[r] = None
                    self._rematch_upward(tree, r)
                    return
                tree.add_left(nxt)
                continue
            gaps = [gap for gap, _ in tree.slack.values()]
            bound = min(self.y_left[v] for v in tree.lefts)
            delta = min(gaps + [bound])
            if delta > 0:
                tree.shift(delta)
            zeroed = sorted(v for v in tree.lefts if self.y_left[v] == 0)
            if zeroed:
                v = zeroed[0]
                if v == root:
                    return  # the root may stay unmatched at zero potential
                r = self.cover.edge(self.mate_left[v]).right
                self.mate_left[v] = None
                self.mate_right[r] = None
                self._rematch_upward(tree, r)
                return

    def _rematch_upward(self, tree: _Tree, right: str) -> None:
        """Alternate tree arcs into the matching from `right` up to the root."""
        while True:
            cid = tree.entry[right]
            left = self.cover.edge(cid).left
            old = self.mate_left[left]
            self.mate_left[left] = cid
            self.mate_right[right] = cid
            if old is None:
                return  # reached the root
            right = self.cover.edge(old).right


def max_weight_cover_matching(
    cover: DoubleCover, weights: Mapping[str, Fraction]
) -> CoverMatchingResult:
    """Exact primal-dual maximum-weight matching on the cover.

    ``weights`` maps origin edge ids to rationals; both cover copies of
    an edge inherit its weight. Returns a matching and nonnegative
    potentials satisfying y_l + y_r >= w on every cover edge, tightness
    on matched edges, and positivity only on matched vertices, which
    certifies optimality. Deterministic: roots are processed in
    canonical vertex order and every scan is sorted.
    """
    solver = _CoverSolver(cover, weights)
    solver.run()
    matched = frozenset(cid for cid in solver.mate_left.values() if cid is not None)
    total = sum((solver.weight_of(cover.edge(cid)) for cid in matched), ZERO)

    y_left, y_right = solver.y_left, solver.y_right
    for ce in cover.edges:
        if y_left[ce.left] + y_right[ce.right] < solver.weight_of(ce):
            raise VerificationFailed(f"cover dual infeasible at {ce.cid}")
    for cid in matched:
        ce = cover.edge(cid)
        if y_left[ce.left] + y_right[ce.right] != solver.weight_of(ce):
            raise VerificationFailed(f"matched cover edge {cid} is slack")
    if any(y < 0 for y in y_left.values()) or any(y < 0 for y in y_right.values()):
        raise VerificationFailed("negative cover potential")
    matched_left = {cover.edge(cid).left for cid in matched}
    matched_right = {cover.edge(cid).right for cid in matched}
    if any(y_left[v] != 0 for v in y_left if v not in matched_left) or any(
        y_right[v] != 0 for v in y_right if v not in matched_right
    ):
        raise VerificationFailed("positive potential on an unmatched cover vertex")
    if total != sum(y_left.values(), ZERO) + sum(y_right.values(), ZERO):
        raise VerificationFailed("cover matching weight differs from the dual objective")
    return CoverMatchingResult(
        matched=matched, y_left=dict(y_left), y_right=dict(y_right), weight=total
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
    weights = {}
    for e in cover.inst.edges:
        w = ZERO
        if e.u in required:
            w += 1
        if e.v in required:
            w += 1
        if w > 0:
            weights[e.eid] = w
    best = max_weight_cover_matching(cover, weights)
    return best.weight == 2 * len(required)
