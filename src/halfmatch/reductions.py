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

A construction is nothing but each vertex's strict order over the
copies, which :func:`core.strict_instance` keeps as built. Copy ids are
``<edge id>~<suffix>``; for the endpoint first in the canonical vertex
order (the other sees the reverse) ``~u``/``~w`` is srti's top/bottom
copy, ``~1..~4`` gamma's best..last, ``~a``/``~b`` pri's good/bad,
``~u{j}``/``~w{j}`` crit's levels -j/+j, ``~0`` a shared middle copy.
Remaining ties go by edge id: all four are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping

from .core import (
    Instance,
    InstanceError,
    MatchingError,
    ZERO,
    check_matching,
    strict_instance,
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


def _copies(origin, v, eid, low_first):
    """An edge's copies in ``low_first`` suffix order, reversed unless v is its lower end."""
    order = low_first if origin.lower_endpoint(eid) == v else low_first[::-1]
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
        values = {eid: (origin.pval(v, eid), *origin.gamma_of(eid, v))
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
    origin: Instance, critical: frozenset[str] | set[str]
) -> DerivedInstance:
    """Middle copies plus |C| leveled copies per critical endpoint.

    An extra copy at level j (1-based) is the j-th best for the
    non-critical side and the j-th worst for the critical side; an
    endpoint in C on edge (u, v) contributes copies that are worst for
    it and best for its partner: ``~u1..~u{s}`` for the lower endpoint,
    ``~w1..~w{s}`` for the higher one. With both endpoints critical, both
    bundles are added. Each vertex ranks levels +s..+1, then the middle
    copies ``~0``, then levels -1..-s, with its original strict order
    inside every level class. An empty critical set degenerates to an
    isomorphic copy of the input.
    """
    crit = frozenset(critical)
    unknown = crit - set(origin.vertices)
    if unknown:
        raise InstanceError(
            f"critical set contains unknown vertex {sorted(unknown)[0]!r}"
        )
    s = len(crit)

    origin_of = {e.eid + "~0": e.eid for e in origin.edges}
    for e in origin.edges:
        low = origin.lower_endpoint(e.eid)
        for x, tag in ((low, "u"), (origin.other(e.eid, low), "w")):
            if x in crit:
                origin_of.update((f"{e.eid}~{tag}{j}", e.eid) for j in range(1, s + 1))

    orders = {}
    for v in origin.vertices:
        mine = origin.strict_order(v)
        bundles = {eid: _copies(origin, v, eid, ("~u", "~w")) for eid in mine}
        # v's own bundle (first) ranks below the middle copies, its partner's above
        up = [bundles[eid][1] for eid in mine if origin.other(eid, v) in crit]
        down = [bundles[eid][0] for eid in mine] if v in crit else []
        above = [f"{c}{j}" for j in range(s, 0, -1) for c in up]
        below = [f"{c}{j}" for j in range(1, s + 1) for c in down]
        orders[v] = above + [eid + "~0" for eid in mine] + below

    return _finish(origin, origin_of, orders)
