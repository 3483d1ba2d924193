"""Edge-duplication constructions that turn markets into strict ones.

Each construction replaces every edge by a small bundle of parallel
copies and builds strict preference orders over the copies so that the
two endpoints rank each bundle in (almost) opposite directions. A stable
half-matching of the derived market then projects back (copy values
summed per origin edge) to a half-matching of the original market with
the guarantee the construction was designed for:

* ``build_gamma_reduction``  four copies per edge, thresholds gamma and
  delta woven into the order: the projection is gamma-stable and within
  3/2 of the largest gamma-stable half-matching;
* ``build_srti_reduction``   three copies per edge, ties expanded class
  by class: the projection is weakly stable and within 3/2 of the
  largest weakly stable half-matching;
* ``build_pri_reduction``    two copies per edge (good/bad): the
  projection is a maximum-size popular half-matching;
* ``build_crit_reduction``   one middle copy plus, per critical
  endpoint, |C| leveled copies: the projection saturates the critical
  set and is popular among matchings that do.

The orientation (which endpoint sees which copy as best) follows the
instance's canonical vertex order, and every remaining tie is broken by
edge id, so all four constructions are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .core import (
    Instance,
    InstanceError,
    MatchingError,
    VerificationFailed,
    ZERO,
    check_matching,
    validate_instance,
)


@dataclass(frozen=True)
class DerivedInstance:
    """A strict multigraph built from copies of another market's edges."""

    construction: str
    inst: Instance
    origin: Instance
    origin_of: Mapping[str, str]
    copies_of: Mapping[str, tuple[str, ...]]
    kind: Mapping[tuple[str, str], str]        # (copy id, vertex) -> role
    level: Mapping[tuple[str, str], int] | None = None

    def copies(self, origin_eid: str) -> tuple[str, ...]:
        return self.copies_of[origin_eid]

    def role(self, cid: str, v: str) -> str:
        return self.kind[(cid, v)]

    def level_of(self, cid: str, v: str) -> int:
        if self.level is None:
            raise InstanceError("levels exist only for the critical construction")
        return self.level[(cid, v)]

    def best_copy(self, v: str, origin_eid: str, j: int) -> str | None:
        """The copy of the edge at level +j for v, if any."""
        return self._leveled(v, origin_eid, j)

    def worst_copy(self, v: str, origin_eid: str, j: int) -> str | None:
        """The copy of the edge at level -j for v, if any."""
        return self._leveled(v, origin_eid, -j)

    def _leveled(self, v: str, origin_eid: str, lev: int) -> str | None:
        if self.level is None:
            raise InstanceError("levels exist only for the critical construction")
        for cid in self.copies_of[origin_eid]:
            if self.level.get((cid, v)) == lev:
                return cid
        return None

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


def _finish(construction, origin, origin_of, orders, kind, level=None):
    """Materialize a derived instance from explicit per-vertex orders."""
    pref = {}
    for v in origin.vertices:
        order = orders[v]
        pref[v] = {cid: len(order) - i for i, cid in enumerate(order)}
    inst = validate_instance(
        vertices=list(origin.vertices),
        edges=[(cid, *origin.edge(eid)[1:]) for cid, eid in origin_of.items()],
        pref=pref,
    )
    for v in origin.vertices:  # the explicit order must be a strict total order
        if not len(set(orders[v])) == len(orders[v]) == len(inst.incident(v)):
            raise VerificationFailed(f"derived order at {v!r} is not strict and total")
    copies_of: dict[str, list[str]] = {}
    for cid, eid in origin_of.items():
        copies_of.setdefault(eid, []).append(cid)
    return DerivedInstance(
        construction=construction,
        inst=inst,
        origin=origin,
        origin_of=dict(origin_of),
        copies_of={eid: tuple(sorted(cids)) for eid, cids in copies_of.items()},
        kind=kind,
        level=level,
    )


def build_gamma_reduction(origin: Instance) -> DerivedInstance:
    """Four copies per edge with gamma/delta thresholds woven in.

    For the lower endpoint copies 1..4 run best to last; for the higher
    endpoint 4..1 do. A vertex values its best copy at p(e), its second
    at p(e)-gamma, its third at p(e)-delta, so for edges e, f at v:

    * second(f) beats best(e)  iff  p(f) >= p(e) + gamma_f
    * third(f) beats best(e)   iff  p(f) >= p(e) + delta_f

    Equal derived values order third before second before best copies;
    remaining ties and the trailing last copies follow edge-id order.
    """
    if not origin.has_full_gamma():
        raise InstanceError("gamma reduction requires gamma/delta on every (edge, endpoint)")

    origin_of: dict[str, str] = {}
    kind: dict[tuple[str, str], str] = {}
    roles_low = {1: "best", 2: "second", 3: "third", 4: "last"}
    for e in origin.edges:
        low = origin.lower_endpoint(e.eid)
        high = origin.other(e.eid, low)
        for k in range(1, 5):
            cid = f"{e.eid}~{k}"
            origin_of[cid] = e.eid
            kind[(cid, low)] = roles_low[k]
            kind[(cid, high)] = roles_low[5 - k]

    role_rank = {"third": 0, "second": 1, "best": 2}
    orders = {}
    for v in origin.vertices:
        keep = []   # (-value, role rank, origin eid, copy id)
        tail = []   # last copies: by origin valuation, then edge id
        for eid in origin.incident(v):
            p = origin.pval(v, eid)
            gam, delta = origin.gamma_of(eid, v)
            value = {"best": p, "second": p - gam, "third": p - delta}
            for cid in (f"{eid}~{k}" for k in range(1, 5)):
                role = kind[(cid, v)]
                if role == "last":
                    tail.append((-p, eid, cid))
                else:
                    keep.append((-value[role], role_rank[role], eid, cid))
        keep.sort()
        tail.sort()
        orders[v] = [item[-1] for item in keep] + [item[-1] for item in tail]

    return _finish("gamma4", origin, origin_of, orders, kind)


def build_srti_reduction(origin: Instance) -> DerivedInstance:
    """Three copies per edge: own-top, shared middle, other's-top.

    Each vertex expands its weak order class by class, emitting the top
    copies of the class then the middle copies (members in edge-id
    order), and finally appends the copies it ranks bottom, ordered by
    its original valuation with edge-id tie-break.
    """
    origin_of: dict[str, str] = {}
    kind: dict[tuple[str, str], str] = {}
    top_of: dict[tuple[str, str], str] = {}
    for e in origin.edges:
        low = origin.lower_endpoint(e.eid)
        high = origin.other(e.eid, low)
        for suffix, low_role, high_role in (
            ("~u", "top", "bottom"),
            ("~0", "middle", "middle"),
            ("~w", "bottom", "top"),
        ):
            cid = e.eid + suffix
            origin_of[cid] = e.eid
            kind[(cid, low)] = low_role
            kind[(cid, high)] = high_role
            if low_role == "top":
                top_of[(e.eid, low)] = cid
            if high_role == "top":
                top_of[(e.eid, high)] = cid

    orders = {}
    for v in origin.vertices:
        seq = []
        for group in origin.tie_classes(v):
            seq.extend(top_of[(eid, v)] for eid in group)
            seq.extend(eid + "~0" for eid in group)
        bottoms = sorted(
            origin.incident(v), key=lambda eid: (-origin.pval(v, eid), eid)
        )
        other = {"~u": "~w", "~w": "~u"}
        seq.extend(
            eid + other[top_of[(eid, v)][-2:]] for eid in bottoms
        )
        orders[v] = seq

    return _finish("srti3", origin, origin_of, orders, kind)


def build_pri_reduction(origin: Instance) -> DerivedInstance:
    """Two copies per edge, one good for each endpoint.

    Every vertex ranks all its good copies in its original strict order,
    then all its bad copies in the same order.
    """
    origin.require_strict("the popular-matching reduction")
    origin_of: dict[str, str] = {}
    kind: dict[tuple[str, str], str] = {}
    good_of: dict[tuple[str, str], str] = {}
    for e in origin.edges:
        low = origin.lower_endpoint(e.eid)
        high = origin.other(e.eid, low)
        for suffix, low_role in (("~a", "good"), ("~b", "bad")):
            cid = e.eid + suffix
            origin_of[cid] = e.eid
            high_role = "bad" if low_role == "good" else "good"
            kind[(cid, low)] = low_role
            kind[(cid, high)] = high_role
            if low_role == "good":
                good_of[(e.eid, low)] = cid
            else:
                good_of[(e.eid, high)] = cid

    flip = {"~a": "~b", "~b": "~a"}
    orders = {}
    for v in origin.vertices:
        mine = origin.strict_order(v)
        good = [good_of[(eid, v)] for eid in mine]
        bad = [eid + flip[good_of[(eid, v)][-2:]] for eid in mine]
        orders[v] = good + bad

    return _finish("pri2", origin, origin_of, orders, kind)


def build_crit_reduction(
    origin: Instance, critical: frozenset[str] | set[str]
) -> DerivedInstance:
    """Middle copies plus |C| leveled copies per critical endpoint.

    An extra copy at level j (1-based) is the j-th best for the
    non-critical side and the j-th worst for the critical side; an
    endpoint in C on edge (u, v) contributes copies that are worst for
    it and best for its partner. With both endpoints critical, both
    bundles are added. Each vertex ranks levels +s..+1, then the middle
    copies, then levels -1..-s, with its original strict order inside
    every level class. An empty critical set degenerates to an
    isomorphic copy of the input.
    """
    origin.require_strict("the critical reduction")
    crit = frozenset(critical)
    unknown = crit - set(origin.vertices)
    if unknown:
        raise InstanceError(
            f"critical set contains unknown vertex {sorted(unknown)[0]!r}"
        )
    s = len(crit)

    origin_of: dict[str, str] = {}
    kind: dict[tuple[str, str], str] = {}
    level: dict[tuple[str, str], int] = {}
    for e in origin.edges:
        cid = e.eid + "~0"
        origin_of[cid] = e.eid
        for x in (e.u, e.v):
            kind[(cid, x)] = "middle"
            level[(cid, x)] = 0
        low = origin.lower_endpoint(e.eid)
        high = origin.other(e.eid, low)
        for x, tag in ((low, "u"), (high, "w")):
            if x not in crit:
                continue
            partner = high if x == low else low
            for j in range(1, s + 1):
                cid = f"{e.eid}~{tag}{j}"
                origin_of[cid] = e.eid
                kind[(cid, x)] = "worst"
                kind[(cid, partner)] = "best"
                level[(cid, x)] = -j
                level[(cid, partner)] = j

    by_vertex_level: dict[str, dict[int, list[str]]] = {v: {} for v in origin.vertices}
    for (cid, x), lev in level.items():
        by_vertex_level[x].setdefault(lev, []).append(cid)

    orders = {}
    for v in origin.vertices:
        posn = {eid: i for i, eid in enumerate(origin.strict_order(v))}
        seq = []
        for lev in range(s, -s - 1, -1):
            bucket = by_vertex_level[v].get(lev, [])
            bucket.sort(key=lambda cid: (posn[origin_of[cid]], cid))
            seq.extend(bucket)
        orders[v] = seq

    return _finish("crit", origin, origin_of, orders, kind, level=level)
