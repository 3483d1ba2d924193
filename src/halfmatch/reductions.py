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
  endpoint, |C ∩ K| leveled copies, K the edge's connected component:
  the projection saturates the critical set and is popular among
  matchings that do.

A construction is nothing but each vertex's strict order over the
copies, emitted as an :class:`engine.CopyMarket` whose orders list copy
indices. Each origin edge's copies are one block, in edge rank order
(an edge's position in the id-sorted ``edges``): copy j of the edge of
rank r is ``k*r + j`` for srti (k = 3), gamma (4) and pri (2), and the
projection sums a certificate's halves by each copy's ``origin`` rank.
Every builder writes a vertex's order by integer arithmetic on the
vertex's order as edge ranks, which every market stores with the start
of each tie group. Copy ids are ``<edge id>~<suffix>``, made only on
demand, never parsed; for the endpoint first in the canonical vertex
order (the other sees the reverse) ``~u``/``~w`` is srti's top/bottom
copy, ``~1..~4`` gamma's best..last, ``~a``/``~b`` pri's good/bad,
``~u{j}``/``~w{j}`` crit's levels -j/+j, ``~0`` a shared middle copy.
Remaining ties go by edge id: all four are deterministic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, compress, repeat
from math import lcm
from typing import Sequence

from .core import (
    HALF,
    ONE,
    Instance,
    InstanceError,
    MatchingError,
    check_matching,
)
from .engine import CopyMarket, StablePartitionCert


@dataclass(frozen=True)
class DerivedInstance:
    """A strict multigraph built from copies of another market's edges:
    copy c is a copy of the origin edge of rank ``inst.origin[c]``."""

    inst: CopyMarket
    origin: Instance

    def project(self, cert: StablePartitionCert) -> dict[str, Fraction]:
        """Sum each origin edge's halves in a certificate of ``inst``: a valid
        half-matching of the origin instance (degree sums carry over)."""
        if cert.market is not self.inst:
            raise MatchingError("the certificate is of another market")
        total, rank, eids = {}, self.inst.origin, self.inst.labels
        for c, k in cert.halves.items():
            total[eids[rank[c]]] = total.get(eids[rank[c]], 0) + k
        for eid, k in total.items():
            if not 0 <= k <= 2:
                raise MatchingError(f"projected value of {eid!r} is outside [0, 1]")
        out = {eid: HALF if k == 1 else ONE for eid, k in total.items() if k}
        check_matching(self.origin, out)
        return out


def _ends(origin: Instance) -> tuple[list[int], list[int]]:
    """The indices of each edge's endpoints, by edge rank: lower, higher."""
    return (list(map(min, origin._end_u, origin._end_v)),
            list(map(max, origin._end_u, origin._end_v)))


def _derive(origin: Instance, lo: list[int], hi: list[int], bundles: Sequence[Sequence[str]],
            orders: list[list[int]]) -> DerivedInstance:
    """The derived market in which the edge of rank r, between the vertices
    of indices ``lo[r] < hi[r]``, has one copy per tag in ``bundles[r]``,
    numbered after the copies of the lower ranks; vertex x ranks the copies
    as ``orders[x]`` lists them."""
    rank = list(chain.from_iterable(map(repeat, range(len(lo)), map(len, bundles))))
    market = CopyMarket(origin.vertices, list(map(lo.__getitem__, rank)),
                        list(map(hi.__getitem__, rank)), orders, rank,
                        tuple(origin._rank), list(chain.from_iterable(bundles)))  # ids by rank
    return DerivedInstance(market, origin)


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
    Every value is compared times the threshold scale d of
    :class:`core.Instance` and the lcm of the valuation
    denominators (1 unless some valuation is a ``Fraction``), as an int;
    a positive factor keeps the order and its ties. A copy c of derived
    value t and kind (third 0, second 1, best 2) sorts as the one int
    ``(-t * 3 + kind) * K + c``, where K is the copy count.
    """
    if not origin.has_full_gamma():
        raise InstanceError("gamma reduction requires gamma/delta on every (edge, endpoint)")
    pu, pv, at_u, at_v = origin._value_u, origin._value_v, origin._gamma_u, origin._gamma_v
    scale = lcm(*(p.denominator for p in set(chain(pu, pv))))  # over the distinct valuations
    lo, hi = _ends(origin)
    u = origin._end_u  # the index of each edge's u end
    K = 4 * len(lo)
    ds, K2, K3, sK3 = origin._gamma_d * scale, 2 * K, 3 * K, 3 * K * scale
    orders = []
    for x, v in enumerate(origin.vertices):
        keys, tail = [], []  # tail: the last copies, in v's order
        for r in origin._ranks[v]:
            if u[r] == x:
                p, (gam, delta) = pu[r], at_u[r]
            else:
                p, (gam, delta) = pv[r], at_v[r]
            q = 4 * r - p * ds // 1 * K3  # // 1: an int, also from a Fraction
            if lo[r] == x:  # best, second, third, last: 4r, 4r + 1, 4r + 2, 4r + 3
                keys += (K2 + q, K + 1 + q + gam * sK3, 2 + q + delta * sK3)
                tail.append(4 * r + 3)
            else:  # 4r + 3, 4r + 2, 4r + 1, 4r
                keys += (K2 + 3 + q, K + 2 + q + gam * sK3, 1 + q + delta * sK3)
                tail.append(4 * r)
        keys.sort()
        orders.append([key % K for key in keys] + tail)
    return _derive(origin, lo, hi, [("~1", "~2", "~3", "~4")] * len(lo), orders)


def build_srti_reduction(origin: Instance) -> DerivedInstance:
    """Three copies per edge: ``~u`` is the lower endpoint's top copy and
    the higher endpoint's bottom one, ``~w`` the reverse, ``~0`` the
    shared middle.

    Each vertex expands its weak order class by class, emitting the top
    copies of the class then the middle copies (members in edge-id
    order), and finally appends the copies it ranks bottom, ordered by
    its original valuation with edge-id tie-break.
    """
    lo, hi = _ends(origin)
    orders = []
    for x, v in enumerate(origin.vertices):
        ranks, starts = origin._ranks[v], origin._starts[v]
        top = [3 * r + 2 * (lo[r] != x) for r in ranks]  # ~u at the lower end, else ~w
        middle = [3 * r + 1 for r in ranks]
        seq = []
        for i, j in zip(starts, starts[1:] + (len(ranks),)):
            seq += top[i:j]
            seq += middle[i:j]
        orders.append(seq + [2 * c - t for c, t in zip(middle, top)])  # the other top copy
    return _derive(origin, lo, hi, [("~u", "~0", "~w")] * len(lo), orders)


def build_pri_reduction(origin: Instance) -> DerivedInstance:
    """Two copies per edge, one good for each endpoint: ``~a`` is good
    for the lower endpoint and bad for the higher one, ``~b`` the reverse.

    Every vertex ranks all its good copies in its original strict order,
    then all its bad copies in the same order.
    """
    lo, hi = _ends(origin)
    orders = []
    for x, v in enumerate(origin.vertices):
        ranks = origin.strict_ranks(v)
        good = [2 * r + (lo[r] != x) for r in ranks]  # ~a at the lower end, else ~b
        orders.append(good + [4 * r + 1 - g for r, g in zip(ranks, good)])  # the other copy
    return _derive(origin, lo, hi, [("~a", "~b")] * len(lo), orders)


def build_crit_reduction(
    origin: Instance, critical: frozenset[str] | set[str],
    keep: Sequence[bool] | None = None,
) -> DerivedInstance:
    """Middle copies plus s = |C ∩ K| leveled copies per critical endpoint,
    K the connected component of the edge among the (kept) edges.

    An extra copy at level j (1-based) is the j-th best for the
    non-critical side and the j-th worst for the critical side; an
    endpoint in C on edge (u, v) contributes copies that are worst for
    it and best for its partner: ``~u1..~u{s}`` for the lower endpoint,
    ``~w1..~w{s}`` for the higher one. With both endpoints critical, both
    bundles are added. Each vertex ranks levels +s..+1, then the middle
    copies ``~0``, then levels -1..-s, with its original strict order
    inside every level class. An empty critical set degenerates to an
    isomorphic copy of the input.

    A vertex's order lists copies of its own edges only, all in its
    component, so one component's levels never meet another's: each
    component gets the construction of K taken as its own market, which
    needs |C ∩ K| levels (Kavitha, FSTTCS 2021), and both critical
    saturation and popularity decompose by component.

    ``keep``, one bool per edge by edge rank and all true when omitted,
    builds the market on the kept edges alone: an edge not kept has no copies
    and leaves every order, so a tie counts only between two kept edges. Copies,
    ends, orders and ids are the kept sub-market's, projected onto ``origin``.
    """
    crit = frozenset(critical)
    unknown = sorted(crit - set(origin.vertices))
    if unknown:
        raise InstanceError(f"critical set contains unknown vertex {unknown[0]!r}")
    if keep is None:
        keep = [True] * len(origin.edges)
    elif len(keep) != len(origin.edges):
        raise InstanceError(f"keep has {len(keep)} entries for {len(origin.edges)} edges")
    elif not {bool}.issuperset(map(type, keep)):
        bad = next(k for k in keep if type(k) is not bool)
        raise InstanceError(f"keep holds {bad!r}, which is not a bool")
    is_crit = [v in crit for v in origin.vertices]
    lo, hi = _ends(origin)
    root = list(range(len(is_crit)))  # union-find over the kept edges' ends, halving paths
    for a, b in zip(compress(lo, keep), compress(hi, keep)):
        while root[a] != a:
            root[a] = a = root[root[a]]
        while root[b] != b:
            root[b] = b = root[root[b]]
        root[a] = b
    for x, a in enumerate(root):  # each vertex's component, by its root
        while root[a] != a:
            a = root[a]
        root[x] = a
    count = Counter(compress(root, is_crit))  # |C ∩ K| by the root of K
    level = [count[a] for a in root]  # each vertex's s
    shapes = {}
    for s in set(level):
        levels_u, levels_w = (tuple(f"~{t}{j}" for j in range(1, s + 1)) for t in "uw")
        shapes[s] = [("~0",) + levels_u * cu + levels_w * cw for cw in (0, 1) for cu in (0, 1)]
    bundles = [shapes[level[a]][is_crit[a] + 2 * is_crit[b]] if k else ()
               for a, b, k in zip(lo, hi, keep)]
    first = list(accumulate(map(len, bundles), initial=0))
    copy = list(range(first[-1]))  # one int per copy, shared by both ends' orders
    orders = []
    for x, v in enumerate(origin.vertices):
        ranks, starts, s = origin._ranks[v], origin._starts[v], level[x]
        if len(starts) < len(ranks) and any(  # a tie counts only between two kept edges
                sum(map(keep.__getitem__, ranks[i:j])) > 1
                for i, j in zip(starts, starts[1:] + (len(ranks),))):
            raise InstanceError(f"strict preferences required: vertex {v!r} has ties")
        ranks = [r for r in ranks if keep[r]]
        # level j of the lower end's bundle is copy first + j, of the higher end's
        # last - s + j; v's own bundle ranks below the middle copies, its partner's above.
        # A bundle's levels are contiguous: zipping one slice per bundle lists them by level
        up = [first[r + 1] - 1 - s if lo[r] == x else first[r]
              for r in ranks if is_crit[lo[r] + hi[r] - x]]
        down = [first[r] if lo[r] == x else first[r + 1] - 1 - s
                for r in ranks] if is_crit[x] else []
        orders.append([*chain.from_iterable(zip(*[copy[c + s:c:-1] for c in up])),
                       *[first[r] for r in ranks],
                       *chain.from_iterable(zip(*[copy[c + 1:c + s + 1] for c in down]))])
    return _derive(origin, lo, hi, bundles, orders)
