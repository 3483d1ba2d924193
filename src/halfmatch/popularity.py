"""Head-to-head comparison of fractional matchings.

An agent votes in {-1, 0, +1} between two alternatives by their value,
staying unmatched being worth its ``pref_empty``. Matchings M and N are
compared by pairing the mass where M exceeds N against the mass where N
exceeds M:

* a *feasible* pairing at each vertex transports exactly the surplus
  masses (plus unmatched slack) onto each other, so the adversarial
  comparison Delta(M, N) decomposes into one tiny exact transportation
  problem per vertex;
* a *sensible* pairing relaxes the marginals to the full M and N masses
  with a shared-diagonal consistency condition across the two endpoints
  of every edge, which couples the vertices and is solved here as one
  exact linear program; when every vertex is *whole* for one of the two
  matchings (all of its mass on one edge, or none), the program's one
  feasible point is the product pairing, read off with no program built.

M is popular when Delta(M, N) >= 0 against every rival N; the verifiers
below check that over all enumerated half-integral rivals (the vertices
of the degree-constrained polytope), optionally supplemented by seeded
random fractional rivals. The vertices cover every fractional rival only
when M is integral, as Delta(M, N) is then linear in N; against a
half-integral M a quarter-integral rival can do worse. The linear form
also makes an integral M's worst value one maximum-weight fractional
matching: :func:`dual_worst` runs the cover's Hungarian kernel on the
product comparison's weights and proves M popular, at any size, by a
one-pass check of the potentials. A verdict on an integral M that the
check proves popular is read off the proof: its rivals are counted, not
valued, and no sample is drawn. Every other M is scanned, every rival in
one form: its integer masses by edge rank over one denominator d. An
enumerated rival is the engine's enumerator's own doubled values (d = 2),
read in place. The sampled ones take their draws from bulk
outputs of the generator, each draw the top five bits of one 32-bit
output, those above 16 rejected as randint rejects them; they are held a
column per edge, with each vertex's cap taken once per sample and each
edge's the larger of its two ends', over the lcm of each sample's caps.
At a vertex where M is whole the vote mass is linear in the rival, so
those vertices are valued together as one dot product with a weight per
edge, which is all of it when M is integral; the other vertices are
swept, every one for every rival. Rivals are compared by the value of
Delta alone, computed in integers, and a tie by size and then by masses
in edge id order, also in integers. Only the worst rival gets a Fraction
form, and a pairing (with its per-vertex votes) is built for it alone,
and only when it is a counterexample. The pairings are computed in
integers too: the comparisons scale their matchings to ints once and
make each Fraction as a result leaves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import chain, compress, repeat
from math import lcm
from operator import add, floordiv, gt, mul, or_
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .core import (
    ONE,
    ZERO,
    Instance,
    InstanceError,
    MatchingError,
    VerificationFailed,
    _critical_set,
    check_matching,
    saturated_vertices,
)
from .cover import _fractional_dual
from .engine import BoundExceeded, _Assignments
from . import simplex

Item = str | None  # an edge id, or None for staying unmatched


class ImbalancedTransport(ValueError):
    """Total supply and total demand differ."""


def vote(inst: Instance, v: str, x: Item, y: Item) -> int:
    """+1 when v strictly prefers x over y, -1 for the reverse, 0 if equal.

    None (unmatched) is valued at v's ``pref_empty``, below every edge.
    Arguments must be incident to v; preferences are assumed strict.
    """
    px = inst.pempty(v) if x is None else inst.pval(v, x)
    py = inst.pempty(v) if y is None else inst.pval(v, y)
    return (px > py) - (px < py)


# ---------------------------------------------------------------------------
# exact balanced transportation


def min_cost_transport(
    supply: Mapping[Item, Fraction],
    demand: Mapping[Item, Fraction],
    cost: Callable[[Item, Item], int | Fraction],
) -> tuple[Fraction, dict[tuple[Item, Item], Fraction]]:
    """Exact optimum of a balanced transportation problem.

    Zero-mass items are ignored; total supply must equal total demand.
    Returns the minimum cost and a canonical optimal plan. Sizes up to
    two on one side are solved in closed form (covering all comparisons
    of half-integral matchings); anything larger falls back to the
    exact simplex. Masses and costs may also be ints: the closed forms
    then keep the plan and its cost in ints, the simplex returns them as
    integral Fractions, and an empty problem costs ``ZERO``.
    """
    sup = [(k, val) for k, val in sorted(supply.items(), key=_key) if val != 0]
    dem = [(k, val) for k, val in sorted(demand.items(), key=_key) if val != 0]
    if any(val < 0 for _, val in sup + dem):
        raise ValueError("negative supply or demand")
    if sum(val for _, val in sup) != sum(val for _, val in dem):
        raise ImbalancedTransport("total supply differs from total demand")
    if not sup:
        return ZERO, {}
    if len(sup) == 1:
        s, _ = sup[0]
        plan = {(s, d): val for d, val in dem}
        return _plan_cost(plan, cost), plan
    if len(dem) == 1:
        d, _ = dem[0]
        plan = {(s, d): val for s, val in sup}
        return _plan_cost(plan, cost), plan
    if len(sup) == 2:
        return _two_row_transport(sup, dem, cost)
    if len(dem) == 2:
        flipped = lambda d, s: cost(s, d)
        best, plan = _two_row_transport(dem, sup, flipped)
        return best, {(s, d): val for (d, s), val in plan.items()}
    return _simplex_transport(sup, dem, cost)


def _key(pair):
    k = pair[0]
    return (k is None, k if k is not None else "")


def _plan_cost(plan, cost) -> int | Fraction:
    return sum(val * cost(s, d) for (s, d), val in plan.items())


def _two_row_transport(sup, dem, cost):
    """Two supply rows: the row-1 allocation solves a fractional knapsack.

    With x_d the row-1 share of column d, the cost is linear with per
    column slope cost(s1, d) - cost(s2, d); filling the cheapest slopes
    first (ties by column key) is exact.
    """
    (s1, a1), (s2, a2) = sup
    order = sorted(dem, key=lambda kv: (cost(s1, kv[0]) - cost(s2, kv[0]), _key(kv)))
    plan: dict[tuple[Item, Item], Fraction] = {}
    remaining = a1
    for d, need in order:
        take = min(remaining, need)
        if take > 0:
            plan[(s1, d)] = take
            remaining -= take
        if need - take > 0:
            plan[(s2, d)] = need - take
    return _plan_cost(plan, cost), plan


def _simplex_transport(sup, dem, cost):
    # cell i*k + j ships from supply i to demand j
    cells = [(s, d) for s, _ in sup for d, _ in dem]
    costs = [cost(s, d) for s, d in cells]
    k = len(dem)
    rows = [{i * k + j: 1 for j in range(k)} for i in range(len(sup))]
    rows += [{i * k + j: 1 for i in range(len(sup))} for j in range(k)]
    rhs = [val for _, val in sup + dem]
    x, value = simplex.solve_min(costs, rows, rhs)
    plan = {cells[i]: x[i] for i in range(len(cells)) if x[i] != 0}
    return value, plan


# ---------------------------------------------------------------------------
# Delta over feasible pairings (per-vertex decomposition)


@dataclass(frozen=True)
class Pairing:
    kind: str  # feasible | sensible
    phi: Mapping[str, Mapping[tuple[Item, Item], Fraction]]


@dataclass(frozen=True)
class DeltaResult:
    value: Fraction
    pairing: Pairing
    votes: Mapping[str, Fraction]  # per-vertex contribution under the witness


def _masses(inst: Instance, m: Mapping[str, int | Fraction], v: str,
            full: int | Fraction) -> dict[Item, int | Fraction]:
    """v's mass on each incident edge under m, and on None its unmatched
    rest of ``full``, the mass of a saturated vertex."""
    held = {eid: m.get(eid, 0) for eid in inst.incident(v)}
    held[None] = full - sum(held.values())
    return held


def delta_feasible(
    inst: Instance, m: Mapping[str, Fraction], n: Mapping[str, Fraction]
) -> DeltaResult:
    """The adversarial comparison min over feasible pairings of the vote mass.

    Each vertex transports its M-surplus (plus unmatched slack) onto its
    N-surplus at vote costs; the axioms constrain vertices independently,
    so the global minimum is the sum of the per-vertex optima.
    """
    _require(inst, "delta over feasible pairings", m, n)
    return _delta_feasible(inst, m, n)


def _require(inst: Instance, what: str, *matchings: Mapping[str, Fraction]) -> None:
    """The comparisons' input rule: strict preferences, then valid matchings."""
    inst.require_strict(what)
    for m in matchings:
        check_matching(inst, m)


def _delta_feasible(
    inst: Instance, m: Mapping[str, Fraction], n: Mapping[str, Fraction]
) -> DeltaResult:
    """:func:`delta_feasible` on a strict instance and valid matchings.

    m and n are scaled once by the lcm d of their denominators, so every
    vertex's masses, surpluses and transport are ints; the value, each
    vote and each plan entry is made a Fraction over d as it leaves.
    """
    d, m_int, n_int = _scaled(m, n)
    total = 0
    phi: dict[str, dict[tuple[Item, Item], Fraction]] = {}
    votes: dict[str, Fraction] = {}
    for v in inst.vertices:
        mass_m = _masses(inst, m_int, v, d)
        mass_n = _masses(inst, n_int, v, d)
        supply = {x: a - mass_n[x] for x, a in mass_m.items() if a > mass_n[x]}
        demand = {x: b - mass_m[x] for x, b in mass_n.items() if b > mass_m[x]}
        cost = lambda x, y, v=v: vote(inst, v, x, y)
        value, plan = min_cost_transport(supply, demand, cost)
        total += value
        phi[v] = {k: Fraction(x, d) for k, x in plan.items()}
        votes[v] = Fraction(value, d)
    return DeltaResult(value=Fraction(total, d), pairing=Pairing("feasible", phi), votes=votes)


def _scaled(m: Mapping[str, Fraction], n: Mapping[str, Fraction]
            ) -> tuple[int, dict[str, int], dict[str, int]]:
    """The lcm d of m's and n's denominators, and both matchings times d."""
    d = lcm(*(val.denominator for val in chain(m.values(), n.values())))
    return d, *({eid: val.numerator * (d // val.denominator) for eid, val in g.items()}
                for g in (m, n))


def _by_rank(inst: Instance, m: Mapping[str, Fraction]) -> tuple[int, dict[int, int]]:
    """The lcm ``base`` of m's denominators, and m's values times base by edge rank."""
    base = lcm(*(val.denominator for val in m.values()))
    return base, {inst._rank[eid]: val.numerator * (base // val.denominator)
                  for eid, val in m.items()}


def _whole(inst: Instance, m: Mapping[str, Fraction]) -> list[bool]:
    """By vertex index, whether m is *whole* at the vertex: all of its mass
    on one item, an edge at 1 or staying unmatched."""
    return [ONE in held or not any(held)
            for held in ([m.get(eid, 0) for eid in inst.incident(v)] for v in inst.vertices)]


def _feasible_value(
    inst: Instance, m: Mapping[str, Fraction]
) -> Callable[[Sequence[int], int], tuple[int, int]]:
    """The value of :func:`_delta_feasible` against a rival held as ints.

    The rival's mass on the edge of rank r is ``held[r] / d``; the value comes
    back as the pair (t, D), meaning t/D, with D the lcm of d and the lcm
    ``base`` of m's denominators. m is scaled once here, not once per
    rival, and no Fraction is made.

    Supply and demand sit on different items, so every vote costs +1 or
    -1, by v's strict order in which staying unmatched ranks last. v's
    optimum is then T - 2U: T is its surplus mass, U the largest part of
    T that can move to a strictly better demand item.

    Where m is whole at v (:func:`_whole`), U is all of the rival's mass
    above m's item, so v's term is linear in the rival and equals the
    product comparison's: d, less the rival's mass on m's edge, less twice
    its mass on the edges v ranks above that edge; or, where m leaves v
    unmatched, minus the rival's load at v. These terms are
    :func:`_product_weights` over the whole vertices, each a multiple of
    base, so they are held as one weight per edge rank and a fixed part,
    both divided by base. When m is whole everywhere it is integral, base
    is 1 and D is d, and a rival's value is one dot product.

    At the other, *split* vertices one sweep from the best item finds U:
    a demand item adds to a pool, and a surplus item takes what it can
    from it. Every rival sweeps every split row: split rows are few, and
    sweeping them all costs less than tracking which of them changed.
    """
    base, scaled = _by_rank(inst, m)
    whole = _whole(inst, m)
    weight, fixed = _product_weights(inst, base, scaled, compress(inst.vertices, whole))
    weight, fixed = [w // base for w in weight], fixed // base
    rows = [[(r, scaled.get(r, 0)) for r in inst.strict_ranks(v)]
            for v, w in zip(inst.vertices, whole) if not w]
    if not rows:
        return lambda held, d: (sum(map(mul, weight, held)) + fixed * d, d)

    def value(held: Sequence[int], d: int) -> tuple[int, int]:
        big = lcm(base, d)
        k, j = big // base, big // d
        if j != 1:
            held = [x * j for x in held]
        total = sum(map(mul, weight, held)) + fixed * big
        for row in rows:
            pool = rest = 0
            for r, a in row:
                x = a * k - held[r]
                rest += x
                if x < 0:
                    pool -= x
                elif x > 0:  # a conditional costs less than a call of min
                    take = pool if pool < x else x
                    pool -= take
                    total += x - 2 * take
            if rest < 0:  # staying unmatched, the rest of big, ranks last
                total -= rest + 2 * (pool if pool < -rest else -rest)
        return total, big

    return value


# ---------------------------------------------------------------------------
# Delta over sensible pairings (one coupled LP)


#: delta_sensible refuses programs larger than this many pair variables;
#: the count grows as the sum of (degree + 1)^2 over the vertices. A forced
#: comparison builds no program, so it answers at any size.
SENSIBLE_LP_LIMIT = 4000


def delta_sensible(
    inst: Instance, m: Mapping[str, Fraction], n: Mapping[str, Fraction]
) -> DeltaResult:
    """Exact minimum of the vote mass over sensible pairings.

    Variables are the per-vertex pair weights, with both endpoints of an
    edge sharing one diagonal variable (the cross-endpoint consistency
    condition, which is what prevents per-vertex decomposition). Row and
    column marginals equal the full M and N values; vertices saturated
    by M admit no unmatched-on-the-left mass, and vertices saturated by
    N none on the right. The coefficients (all 1) and each variable's
    summed votes are ints; the right-hand sides are the matchings' values.

    Where m is whole at v (:func:`_whole`), the program has one feasible
    point there. On m's edge a at 1, the rows of v's other edges hold
    mass 0, so their variables are 0, each edge column b leaves
    phi_v(a, b) = n(b), and a's row leaves phi_v(a, None) the rest of n.
    Where m leaves v unmatched, every edge row holds 0 and each edge
    column b leaves phi_v(None, b) = n(b). By symmetry the same holds
    where n is whole, so every variable of such a vertex equals the
    product m(a) * n(b), staying unmatched holding each side's rest. The
    product pairing meets every row at every vertex, so when each vertex
    is whole for m or for n it is the program's only feasible point, and
    its optimum, read off it with no program built (:func:`_forced_sensible`).
    """
    _require(inst, "delta over sensible pairings", m, n)
    if all(map(or_, _whole(inst, m), _whole(inst, n))):
        return _forced_sensible(inst, m, n)
    footprint = sum((len(inst.incident(v)) + 1) ** 2 for v in inst.vertices)
    if footprint > SENSIBLE_LP_LIMIT:
        raise BoundExceeded(f"sensible-pairing program needs {footprint} variables, "
                            f"over the limit of {SENSIBLE_LP_LIMIT}")

    # columns in order of first use; both endpoints share an edge's diagonal
    index: dict[tuple, int] = {}

    def var(v: str, x: Item, y: Item) -> int:
        key = (x, y) if x == y and x is not None else (v, x, y)
        return index.setdefault(key, len(index))

    rows: list[dict[int, int]] = []
    rhs: list[Fraction] = []
    costs: dict[int, int] = {}

    m_full, n_full = saturated_vertices(inst, m), saturated_vertices(inst, n)
    for v in inst.vertices:
        items: list[Item] = list(inst.incident(v))
        m_side: list[Item] = items + ([] if v in m_full else [None])
        n_side: list[Item] = items + ([] if v in n_full else [None])
        for eid in inst.incident(v):
            rows.append({var(v, eid, y): 1 for y in n_side})
            rhs.append(m.get(eid, ZERO))
            rows.append({var(v, x, eid): 1 for x in m_side})
            rhs.append(n.get(eid, ZERO))
        for x in m_side:
            for y in n_side:
                if x is None and y is None:
                    continue  # harmless mass; fix it to zero by omission
                j = var(v, x, y)
                costs[j] = costs.get(j, 0) + vote(inst, v, x, y)

    x, value = simplex.solve_min([costs.get(j, 0) for j in range(len(index))], rows, rhs)
    phi: dict[str, dict[tuple[Item, Item], Fraction]] = {v: {} for v in inst.vertices}
    votes: dict[str, Fraction] = {v: ZERO for v in inst.vertices}
    for key, val in zip(index, x):
        if val == 0:
            continue
        if len(key) == 2:
            e = inst.edge(key[0])
            phi[e.u][key] = val
            phi[e.v][key] = val
        else:
            v, a, b = key
            phi[v][(a, b)] = val
            votes[v] += val * vote(inst, v, a, b)
    return DeltaResult(value=value, pairing=Pairing("sensible", phi), votes=votes)


def _forced_sensible(inst: Instance, m: Mapping[str, Fraction], n: Mapping[str, Fraction]
                     ) -> DeltaResult:
    """:func:`delta_sensible` where each vertex is whole for m or for n: the
    product pairing (:func:`_product_entries`) as ints over d * d, for the
    lcm d of m's and n's denominators, in the program's column order (a
    diagonal at its first end in vertex order), with no program built.

    One pass stands in for the program's rows and x >= 0: at each vertex
    the row and column sums are m's and n's masses times d, the rests
    included, no entry is negative, and each diagonal, one variable of the
    program, is equal at both of its ends.
    """
    d, m_int, n_int = _scaled(m, n)
    big, total, bad, shared = d * d, 0, False, {}
    phi: dict[str, dict[tuple[Item, Item], Fraction]] = {v: {} for v in inst.vertices}
    votes: dict[str, Fraction] = {}
    for v in inst.vertices:
        mass_m, mass_n = _masses(inst, m_int, v, d), _masses(inst, n_int, v, d)
        rows, cols = {x: -a * d for x, a in mass_m.items()}, {y: -b * d for y, b in mass_n.items()}
        pref, empty, t = inst.pref[v].get, inst.pref_empty[v], 0
        for (x, y), a in _product_entries(mass_m, mass_n).items():
            rows[x], cols[y], bad = rows.get(x, 0) + a, cols.get(y, 0) + a, bad or a < 0
            if x == y is not None:
                if x not in shared:
                    e, shared[x] = inst.edge(x), a
                    phi[e.u][x, y] = phi[e.v][x, y] = Fraction(a, big)
                else:
                    bad |= shared.pop(x) != a
            elif x is not None or y is not None:  # (None, None) is no variable
                phi[v][x, y] = Fraction(a, big)
                px, py = pref(x, empty), pref(y, empty)
                t += a * ((px > py) - (px < py))
        bad |= any(rows.values()) or any(cols.values())
        votes[v], total = Fraction(t, big), total + t
    if bad or shared:
        raise VerificationFailed(
            "the product pairing is negative or misses a row of the sensible program")
    return DeltaResult(Fraction(total, big), Pairing("sensible", phi), votes)


def _product_entries(mass_m: Mapping[Item, int], mass_n: Mapping[Item, int]) -> dict[tuple, int]:
    """The product pairing m(a) * n(b) at a vertex of masses ``mass_m`` and
    ``mass_n`` (:func:`_masses`) over the items both hold, (None, None) too.
    A forced vertex's one side holds one item, so these come in the other
    side's incidence order, the order in which the program makes their
    columns: under the earlier of an entry's two items, unmatched last.
    """
    return {(x, y): a * b for x, a in mass_m.items() if a for y, b in mass_n.items() if b}


def _product_weights(
    inst: Instance, base: int, scaled: Mapping[int, int], vertices: Iterable[str]
) -> tuple[list[int], int]:
    """The product comparison of m, held as ``scaled`` over ``base`` by
    :func:`_by_rank`, summed over ``vertices``: a weight per edge rank and a
    fixed part, so that a rival of masses b over d has the value
    (weights . b + fixed * d) / (base * d) there.

    At v the value is the sum over items y of b_y * c(y), where c(y), m's
    mass above y in v's strict order less its mass below y, is fixed by m.
    Staying unmatched, ranked last, holds the rest of the rival's mass, so
    each edge weighs c(edge) - c(None) at each end, and each vertex adds
    c(None) * d.
    """
    weight = [0] * len(inst.edges)
    fixed = 0
    for v in vertices:
        ranks = inst.strict_ranks(v)
        matched = sum(map(scaled.get, ranks, repeat(0)))  # the rest of base stays unmatched
        # c(r) - c(None) = above - (base - above - a) - matched, held as
        # step = 2 * above - base - matched, plus a where m holds r
        step = -base - matched
        for r in ranks:
            a = scaled.get(r)
            if a:
                weight[r] += step + a
                step += 2 * a
            else:
                weight[r] += step
        fixed += matched
    return weight, fixed


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class PopularityVerdict:
    popular: bool
    scope: str
    checked: int  # rivals covered; an integral popular m's samples are settled, not scanned
    worst_value: Fraction
    counterexample: tuple[dict[str, Fraction], DeltaResult] | None


#: a rival as the verdict scan reads it: its mass on the edge of rank r
#: is ``held[r] / d``, all ints
Rival = tuple[Sequence[int], int]


def _fractions(inst: Instance, held: Sequence[int], d: int) -> dict[str, Fraction]:
    """A rival's Fraction form: its nonzero masses by edge id, in id order."""
    return {e.eid: Fraction(x, d) for e, x in zip(inst.edges, held) if x}


def _worst(rivals: Iterable[Rival], value_of: Callable[[Sequence[int], int], tuple[int, int]],
           worst: tuple | None = None, checked: int = 0) -> tuple[tuple | None, int]:
    """The worst rival by value (ties: larger, then lexicographically
    smallest) as (t, D, a copy of held, d), and the count of rivals, both
    taken on from ``worst`` and ``checked`` of an earlier scan.

    ``value_of`` gives each rival's value as an integer pair (t, D),
    meaning t/D with D > 0, compared by cross-multiplying; a tie is
    ordered by :func:`_precedes`.
    """
    for checked, (held, d) in enumerate(rivals, checked + 1):
        # all of held is read here, before the next rival is pulled: the
        # enumerator moves its list in place from one rival to the next
        t, big = value_of(held, d)
        if worst is not None:
            order = t * worst[1] - worst[0] * big
            if order > 0 or (order == 0 and not _precedes(held, d, worst[2], worst[3])):
                continue
        worst = (t, big, list(held), d)
    return worst, checked


def _verdict(inst: Instance, worst: tuple, checked: int,
             build: Callable[[Mapping[str, Fraction]], DeltaResult], scope: str
             ) -> PopularityVerdict:
    """The verdict on ``worst`` of :func:`_worst`, among ``checked`` rivals,
    never None: every stream starts with the empty rival or, for a critical
    m, holds a vertex of the polytope's face where m lies. Only it gets a
    Fraction form, and ``build`` runs for it alone, only for a counterexample."""
    t, big, held, d = worst
    rival = _fractions(inst, held, d)
    counter = (rival, build(rival)) if t < 0 else None
    return PopularityVerdict(t >= 0, scope, checked, Fraction(t, big), counter)


def _precedes(a: Sequence[int], da: int, b: Sequence[int], db: int) -> bool:
    """Whether the rival of masses a/da comes before that of masses b/db
    among rivals of one value: the larger first, then the one whose
    nonzero masses by edge id sort first as (edge id, mass) pairs.

    At the first edge rank where two rivals of one size differ, both
    have further mass, so the one with a zero there has its next nonzero
    edge later and comes second; with both nonzero, the smaller mass
    comes first. Sizes and masses are compared by cross-multiplying.
    """
    order = sum(a) * db - sum(b) * da
    if order:
        return order > 0
    for x, y in zip(a, b):
        x, y = x * db, y * da
        if x != y:
            return y == 0 or 0 < x < y
    return False


def _enumerated(inst: Instance, bound: int, saturating: Sequence[int] = ()) -> Iterator[Rival]:
    """Every half-integral rival whose doubled load is 2 at each vertex index
    in ``saturating``, in canonical order, over d = 2; :class:`BoundExceeded`
    at once, before any rival is asked for, on more than ``bound`` edges.

    Each is the enumerator's own list of doubled values by edge rank, which
    it moves in place to the next rival.
    """
    walk = _Assignments(inst, bound)
    load = walk.load
    return ((walk.val, 2) for _ in walk
            if not saturating or all(load[x] == 2 for x in saturating))


#: the label an :func:`is_popular` verdict carries, by the scope it checked
SCOPES = {"half": "popular (half-integral scope)", "sampled": "popular (sampled scope)"}


def is_popular(
    inst: Instance,
    m: Mapping[str, Fraction],
    bound: int = 10,
    scope: str = "half",
    samples: int = 200,
    seed: int = 0,
) -> PopularityVerdict:
    """Whether no rival beats m under adversarial feasible pairings.

    Scope ``half`` checks every enumerated half-integral rival, the
    vertex set of the fractional matching polytope, which covers every
    fractional rival only when m is integral; ``sampled`` adds ``samples``
    seeded random fractional rivals as a probabilistic supplement. Each
    rival is read as integer masses and compared by Delta's exact value
    in integers; the reported counterexample is the worst rival (ties:
    larger, then lexicographically smallest), with its feasible pairing,
    built for it alone.

    An integral m (each value 0 or 1) that :func:`dual_worst` proves
    popular against every fractional rival is settled in either scope with
    no rival valued and no sample drawn: worst value 0, no counterexample,
    and ``checked`` the enumerated rivals, counted in one walk, plus the
    samples. Every other m is scanned.
    """
    if scope not in SCOPES:
        raise ValueError(f"unknown popularity scope {scope!r}")
    _check_count(samples)
    _require(inst, "delta over feasible pairings", m)
    rivals = _enumerated(inst, bound)
    if all(val.denominator == 1 for val in m.values()) and _dual(inst, m, ()) is None:
        return PopularityVerdict(True, SCOPES[scope], sum(1 for _ in rivals)
                                 + samples * (scope == "sampled"), ZERO, None)
    value_of = _feasible_value(inst, m)
    worst, checked = _worst(rivals, value_of)
    if scope == "sampled":
        worst, checked = _worst(_sampled(inst, seed, samples), value_of, worst, checked)
    return _verdict(inst, worst, checked, lambda n: _delta_feasible(inst, m, n), SCOPES[scope])


def is_popular_critical(
    inst: Instance,
    m: Mapping[str, Fraction],
    critical: Iterable[str],
    bound: int = 10,
) -> PopularityVerdict:
    """Popularity restricted to rivals saturating the critical set.

    A rival saturates v when the enumerator's doubled load at v is 2.
    Raises :class:`InstanceError` on a critical set given as a str, then
    on an unknown critical vertex, then on one m leaves unsaturated, naming
    the least such vertex. An integral m that :func:`dual_worst` proves
    popular among the saturating fractional rivals is settled as in
    :func:`is_popular`, ``checked`` counting the saturating rivals.
    """
    _require(inst, "delta over feasible pairings", m)
    crit = _critical(inst, m, critical)
    rivals = _enumerated(inst, bound, crit)
    label = "popular among critical (half-integral scope)"
    if all(val.denominator == 1 for val in m.values()) and _dual(inst, m, crit) is None:
        return PopularityVerdict(True, label, sum(1 for _ in rivals), ZERO, None)
    worst, checked = _worst(rivals, _feasible_value(inst, m))
    return _verdict(inst, worst, checked, lambda n: _delta_feasible(inst, m, n), label)


def _critical(inst: Instance, m: Mapping[str, Fraction], critical: Iterable[str]) -> list[int]:
    """The indices of the known (:func:`~halfmatch.core._critical_set`)
    ``critical`` vertices in name order; :class:`InstanceError` naming the
    least one m leaves open."""
    crit = sorted(_critical_set(critical, inst._index))
    m_full = crit and saturated_vertices(inst, m)
    for v in crit:
        if v not in m_full:
            raise InstanceError(f"matching does not saturate critical vertex {v!r}")
    return [inst.index(v) for v in crit]


def dual_worst(
    inst: Instance,
    m: Mapping[str, Fraction],
    critical: Iterable[str] = (),
    keep: Sequence[bool] | None = None,
) -> tuple[Fraction, dict[str, Fraction]]:
    """The worst value of Delta(m, x) over the fractional rivals x on the
    kept edges (``keep``: a flag per edge rank, all true when omitted) that
    saturate ``critical``, for an integral m, and a rival of that value:
    m itself at 0, else the dual's half-integral witness.

    Delta(m, x) = K + sum c_e x_e (:func:`_product_weights`, base 1), so
    the worst value is K - nu, nu the largest weight under w_e = -c_e; B
    per critical endpoint adds B|C| to each saturating rival. The
    potentials y of ``cover._fractional_dual`` prove m popular by weak
    duality, for any B >= 0, when its check passes (y >= 0, y_u + y_v >= w_e
    on each kept edge) and sum y <= K + B|C|, its cap. B = 2 sum |c_e| + 1
    makes this exact: a half-integral x open at a critical vertex loses B/2
    there and gains at most sum |c_e|, as |x_e - m_e| <= 1, so every
    maximum saturates C. Past the cap the same check certifies the witness:
    a fractional matching saturating C, of weight sum y, else
    :class:`VerificationFailed`.

    Raises what :func:`is_popular_critical` does, then ValueError on an m
    that is not integral, InstanceError on a ``keep`` entry that is not a
    bool, and ValueError on a ``keep`` of another length or false on m.
    """
    _require(inst, "delta over feasible pairings", m)
    crit = _critical(inst, m, critical)
    if any(val.denominator != 1 for val in m.values()):
        raise ValueError("the popularity dual takes an integral matching only")
    if keep is not None and not {bool}.issuperset(map(type, keep)):
        bad = next(k for k in keep if type(k) is not bool)
        raise InstanceError(f"keep holds {bad!r}, which is not a bool")
    if keep is not None and (len(keep) != len(inst.edges)
                             or not all(keep[inst._rank[eid]] for eid, val in m.items() if val)):
        raise ValueError("keep must hold one flag per edge, true on every edge of m")
    found = _dual(inst, m, crit, keep)
    if found is None:
        return ZERO, {eid: val for eid, val in m.items() if val}
    return Fraction(found[0], 2), _fractions(inst, found[1], 2)


def _dual(inst: Instance, m: Mapping[str, Fraction], crit: Sequence[int],
          keep: Sequence[bool] | None = None) -> tuple[int, list[int]] | None:
    """:func:`dual_worst` in ints, on inputs it accepts: None when the check
    proves m popular, else twice the worst value and the witness's doubled
    masses by edge rank."""
    held_m = _by_rank(inst, m)[1]
    c, fixed = _product_weights(inst, 1, held_m, inst.vertices)
    kept = list(range(len(c))) if keep is None else list(compress(range(len(c)), keep))
    eu, ev = [inst._end_u[r] for r in kept], [inst._end_v[r] for r in kept]
    big = 2 * sum(abs(c[r]) for r in kept) + 1 if crit else 0  # B
    bonus = [0] * len(inst.vertices)
    for x in crit:
        bonus[x] = big
    w = [bonus[u] + bonus[v] - c[r] for u, v, r in zip(eu, ev, kept)]
    # m's arcs start the matching where each is its left's largest
    start = [a for a, r in enumerate(kept) if held_m.get(r)]
    found = _fractional_dual(len(bonus), eu, ev, w, start + [a + len(kept) for a in start],
                             crit, 2 * (fixed + big * len(crit)))[1]
    if found is None:
        return None
    held = [0] * len(c)
    for r, x in zip(kept, found):
        held[r] = x
    return sum(map(mul, c, held)) + 2 * fixed, held


def _check_count(count: int) -> None:
    """Refuse a sample count that is not an int (a bool is not one) or is negative."""
    if isinstance(count, bool) or not isinstance(count, int):
        raise TypeError(f"sample count {count!r} is not an int")
    if count < 0:
        raise ValueError(f"sample count {count} is negative")


#: each byte b of an output's top byte as its top five bits, b >> 3; the
#: bytes 136-255, whose five bits are 17-31, are deleted as randint rejects them
_TOP5 = bytes(b >> 3 for b in range(256))
_REJECTED = bytes(range(136, 256))


def _draws(rng: random.Random, n: int) -> bytes:
    """n draws of ``rng.randint(0, 16)``, taking the bits it takes.

    randint takes the top five bits of one 32-bit output and draws again
    while they exceed 16. ``getrandbits(32 * k)`` holds k outputs, least
    significant first, so the top bytes of its little-endian form, each
    shifted down by three with the rejected ones deleted, are the draws
    of those k outputs. Each call asks for as many outputs as draws are
    missing, and an output gives at most one draw, so the generator stops
    at the n-th kept output, where n randint calls leave it.
    """
    out = b""
    while len(out) < n:
        k = n - len(out)
        out += rng.getrandbits(32 * k).to_bytes(4 * k, "little")[3::4].translate(_TOP5, _REJECTED)
    return out


def _sums(cols: Sequence[Sequence[int]]) -> Iterable[int]:
    """Position by position, the sum of ``cols``; nothing when there is none."""
    return reduce(partial(map, add), cols) if cols else ()


def _cap(load: Sequence[int]) -> list[int]:
    """A vertex's cap in each sample, max(16, L) for its load L."""
    return [x if x > 16 else 16 for x in load]


def _sampled(inst: Instance, seed: int, count: int) -> Iterator[Rival]:
    """The seeded random rivals, as integer masses.

    Each edge draws raw in 0..16 and holds raw / max(16, L_u, L_v), where
    L is the sum of the raw draws at a vertex; a sample holds these as
    raw * (d // cap) over the lcm d of its caps. The draws of all samples
    come from :func:`_draws` at once and are held as one column per edge
    rank, so loads, caps, lcms, masses and checks are maps across the
    samples: each vertex's cap max(16, L) once per sample (:func:`_cap`),
    and each edge's cap the larger of its two ends'. Every vertex's mass
    is checked to be at most d; an overload names its first sample's least
    vertex.
    """
    width = len(inst.edges)
    if not width:  # no columns to map over: every sample is empty, over 1
        yield from repeat(((), 1), count)
        return
    flat = _draws(random.Random(f"halfmatch-sample-{seed}"), count * width)
    raw = [flat[r::width] for r in range(width)]
    at = [inst._ranks[v] for v in inst.vertices]
    cap = [_cap(_sums([raw[r] for r in ranks])) for ranks in at]  # [] if no edge
    caps = [[a if a > b else b for a, b in zip(cap[u], cap[v])]
            for u, v in zip(inst._end_u, inst._end_v)]
    d = list(map(lcm, *caps))
    held = [list(map(mul, col, map(floordiv, d, c))) for col, c in zip(raw, caps)]
    over = lambda ranks: map(gt, _sums([held[r] for r in ranks]), d)  # by sample
    if any(map(any, map(over, at))):  # the report is built only for an overload
        _, x = min((k, x) for x, ranks in enumerate(at)
                   for k in compress(range(count), over(ranks)))
        raise MatchingError(f"sampled rival overloads vertex {inst.vertices[x]!r}")
    yield from zip(zip(*held), d)


def sample_fractional_matchings(
    inst: Instance, seed: int, count: int
) -> list[dict[str, Fraction]]:
    """Deterministic random fractional matchings.

    Each edge draws raw/16 with raw in 0..16, scaled down so that no
    endpoint is over-full: raw / max(16, L_u, L_v), where L is the sum of
    the raw draws at a vertex. These are the rivals the sampled verdict
    scans as integer masses, in their Fraction form.
    """
    _check_count(count)
    return [_fractions(inst, held, d) for held, d in _sampled(inst, seed, count)]
