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
copies, emitted as an :class:`engine.CopyMarket` whose orders list copy
indices; each origin edge's copies are one block. Copy ids are ``<edge
id>~<suffix>``, made only on demand; for the endpoint first in the
canonical vertex order (the other sees the reverse) ``~u``/``~w`` is
srti's top/bottom copy, ``~1..~4`` gamma's best..last, ``~a``/``~b``
pri's good/bad, ``~u{j}``/``~w{j}`` crit's levels -j/+j, ``~0`` a shared
middle copy. Remaining ties go by edge id: all four are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .core import (
    Instance,
    InstanceError,
    MatchingError,
    ZERO,
    check_matching,
)
from .engine import CopyMarket


@dataclass(frozen=True)
class DerivedInstance:
    """A strict multigraph built from copies of another market's edges:
    the copies of origin edge eid are ``blocks[eid][0]..blocks[eid][1]``."""

    inst: CopyMarket
    origin: Instance
    blocks: Mapping[str, tuple[int, int]]

    def project(self, m: Mapping[str, Fraction]) -> dict[str, Fraction]:
        """Sum copy values per origin edge; the result is a valid
        half-matching of the origin instance (degree sums carry over)."""
        out: dict[str, Fraction] = {}
        for cid, val in m.items():
            if val == 0:
                continue
            eid, tilde, tag = cid.rpartition("~")
            first, last = self.blocks.get(eid, (0, -1))
            if tilde + tag not in self.inst.tags[first:last + 1]:
                raise MatchingError(f"value on unknown derived edge {cid!r}")
            out[eid] = out.get(eid, ZERO) + val
        for eid, val in out.items():
            if val > 1:
                raise MatchingError(f"projected value of {eid!r} exceeds 1")
        check_matching(self.origin, out)
        return out


def _derive(origin: Instance, shape, order_of) -> DerivedInstance:
    """The derived market in which an origin edge between the vertices of
    indices a < b has one copy per suffix in ``shape(a, b)``, numbered as
    one block, first to last. ``order_of(v, at)`` lists v's order, where
    ``at[eid]`` is (first copy, last copy, whether v is the lower end)
    for each edge id at v, in id order."""
    index = origin._index
    eu, ev, ranks, tags = [], [], [], []  # per copy
    block = {}  # edge id -> (first copy, last copy)
    at = [{} for _ in origin.vertices]  # per vertex, in edge-id order
    first = 0  # the next block's first copy
    for i, (eid, u, v) in enumerate(origin.edges):
        a, b = index[u], index[v]
        if a > b:
            a, b = b, a
        sfx = shape(a, b)
        k = len(sfx)
        last = first + k - 1
        block[eid] = (first, last)
        at[a][eid], at[b][eid] = (first, last, True), (first, last, False)
        eu += [a] * k
        ev += [b] * k
        ranks += [i] * k
        tags += sfx
        first = last + 1
    orders = [order_of(v, at[x]) for x, v in enumerate(origin.vertices)]
    market = CopyMarket(origin.vertices, eu, ev, orders, ranks, tuple(block), tags)
    return DerivedInstance(market, origin, block)


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
    Every value is compared times the scale d of
    :meth:`core.Instance.scaled_gamma`, against the thresholds scaled to
    ints; a positive factor keeps the order and its ties.
    """
    if not origin.has_full_gamma():
        raise InstanceError("gamma reduction requires gamma/delta on every (edge, endpoint)")
    d, scaled = origin.scaled_gamma()

    def order_of(v, at):
        pref = origin.pref[v]
        keep = []   # (-value, third 0 / second 1 / best 2, copy)
        tail = []   # last copies: by origin valuation, then edge id
        for eid, (first, last, low) in at.items():
            p = pref[eid] * d
            gam, delta = scaled[(eid, v)]
            b, step = (first, 1) if low else (last, -1)  # v's r-th best is b + step*r
            keep += [(-p, 2, b), (gam - p, 1, b + step), (delta - p, 0, b + 2 * step)]
            tail.append((-p, b, b + 3 * step))
        return [item[-1] for item in sorted(keep)] + [item[-1] for item in sorted(tail)]

    return _derive(origin, lambda a, b: ("~1", "~2", "~3", "~4"), order_of)


def build_srti_reduction(origin: Instance) -> DerivedInstance:
    """Three copies per edge: ``~u`` is the lower endpoint's top copy and
    the higher endpoint's bottom one, ``~w`` the reverse, ``~0`` the
    shared middle.

    Each vertex expands its weak order class by class, emitting the top
    copies of the class then the middle copies (members in edge-id
    order), and finally appends the copies it ranks bottom, ordered by
    its original valuation with edge-id tie-break.
    """
    def order_of(v, at):
        seq, bottom = [], []
        for group in origin.tie_classes(v):
            copies = [at[eid] for eid in group]
            seq += [first if low else last for first, last, low in copies]
            seq += [first + 1 for first, _, _ in copies]
            bottom += [last if low else first for first, last, low in copies]
        return seq + bottom

    return _derive(origin, lambda a, b: ("~u", "~0", "~w"), order_of)


def build_pri_reduction(origin: Instance) -> DerivedInstance:
    """Two copies per edge, one good for each endpoint: ``~a`` is good
    for the lower endpoint and bad for the higher one, ``~b`` the reverse.

    Every vertex ranks all its good copies in its original strict order,
    then all its bad copies in the same order.
    """
    def order_of(v, at):
        copies = [at[eid] for eid in origin.strict_order(v)]
        return ([first if low else last for first, last, low in copies]
                + [last if low else first for first, last, low in copies])

    return _derive(origin, lambda a, b: ("~a", "~b"), order_of)


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
    unknown = sorted(crit - set(origin.vertices))
    if unknown:
        raise InstanceError(f"critical set contains unknown vertex {unknown[0]!r}")
    s = len(crit)
    is_crit = [v in crit for v in origin.vertices]
    levels_u, levels_w = (tuple(f"~{t}{j}" for j in range(1, s + 1)) for t in "uw")

    def order_of(v, at):
        mine = origin.strict_order(v)
        # level j of the lower end's bundle is copy first + j, of the higher end's last - s + j;
        # v's own bundle ranks below the middle copies, its partner's above
        up = [last - s if low else first for first, last, low in
              (at[eid] for eid in mine if origin.other(eid, v) in crit)]
        down = [first if low else last - s for first, last, low in
                (at[eid] for eid in mine)] if v in crit else []
        return ([c + j for j in range(s, 0, -1) for c in up]
                + [at[eid][0] for eid in mine]
                + [c + j for j in range(1, s + 1) for c in down])

    return _derive(origin, lambda a, b: ("~0",) + levels_u * is_crit[a] + levels_w * is_crit[b],
                   order_of)
