"""End-to-end pipelines: duplicate edges, stabilize, project back.

Every solver follows the same three-step plan: build a strict derived
market with parallel copies per edge, find a stable half-matching
there, and project copy values back onto the original edges. The choice
of construction decides what the projection guarantees:

==================  =====================================================
solve_max_srti      weakly stable, within 3/2 of the largest weakly
                    stable half-matching; integral when no odd
                    preference cycle exists (e.g. bipartite inputs)
solve_max_gamma     gamma-stable, within 3/2 of the largest gamma-stable
                    half-matching
solve_max_pri       popular, maximum size among popular half-matchings
solve_pop_crit      saturates the critical set, popular among matchings
                    that do (infeasibility found after the pipeline)
solve_pop_maxw      maximum weight exactly, popular among maximum-weight
                    matchings (via duals: restrict to tight edges, make
                    positive-potential vertices critical)
==================  =====================================================

Each solver re-verifies its own postcondition before returning and
raises :class:`VerificationFailed` otherwise; a failure signals an
implementation bug, never a property of the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Mapping

from .core import (
    HALF,
    ONE,
    ZERO,
    Instance,
    Rational,
    VerificationFailed,
    _critical_set,
    _instance,
    _rat,
    blocking_edges,
    saturated_vertices,
)
from .cover import (
    _certify, _cover_ids, _hungarian, double_cover, max_cardinality_saturating, scale_to_ints,
)
from .engine import stable_half_matching
from .reductions import (
    DerivedInstance,
    build_crit_reduction,
    build_gamma_reduction,
    build_pri_reduction,
    build_srti_reduction,
)


class InfeasibleCritical(ValueError):
    """No fractional matching can saturate the requested critical set."""


def _run_pipeline(derived: DerivedInstance, mode: str | None = None) -> dict[str, Fraction]:
    # the engine certifies its output stable on the derived market; a
    # stable solve's projection is certified in its blocking mode here
    out = derived.project(stable_half_matching(derived.inst))
    bad = mode and blocking_edges(derived.origin, out, mode)
    if bad:
        raise VerificationFailed(f"projection admits {mode}-blocking edges {bad}")
    return out


def solve_max_srti(inst: Instance) -> dict[str, Fraction]:
    """A weakly stable half-matching within 3/2 of the largest one.

    Ties and parallel edges are both welcome. The output is integral
    whenever the instance admits no odd preference cycle.
    """
    return _run_pipeline(build_srti_reduction(inst), "weak")


def solve_max_gamma(inst: Instance) -> dict[str, Fraction]:
    """A gamma-stable half-matching within 3/2 of the largest one."""
    return _run_pipeline(build_gamma_reduction(inst), "gamma")


def solve_max_pri(inst: Instance) -> dict[str, Fraction]:
    """A popular half-matching of maximum size among popular ones.

    Requires strict preferences. Popularity holds against every
    fractional rival; the desk-scale verifier certifies it against all
    half-integral rivals.
    """
    return _run_pipeline(build_pri_reduction(inst))


@dataclass(frozen=True)
class DualSolution:
    """An optimal dual of the fractional matching program, with witnesses.

    ``y`` assigns every vertex a nonnegative potential with
    y_u + y_v >= weight(e) on every edge; ``objective`` (the potential
    sum) equals the weight of the primal ``witness``, which lives on the
    ``tight_edges`` and saturates every vertex of ``critical`` (the
    positive-potential vertices). Maximum-weight fractional matchings
    are exactly the fractional matchings with both properties.
    """

    y: Mapping[str, Fraction]
    objective: Fraction
    tight_edges: tuple[str, ...]
    critical: frozenset[str]
    witness: dict[str, Fraction]


def max_weight_dual(inst: Instance, weights: Mapping[str, Rational]) -> DualSolution:
    """Optimal dual potentials via the bipartite double cover.

    The cover's maximum-weight matching comes with exact potentials on
    both copies of each vertex; averaging the two halves them into a
    feasible dual of the fractional program whose value matches the
    primal witness (1/2 per matched cover copy), so optimality and
    complementary slackness are certified rather than assumed. Missing
    weights count as zero.

    The weights are scaled once, by the lcm L of their denominators, and
    the cover's Hungarian kernel runs on the ints L*w_e, with vertices by
    name rank and arcs by cover-id rank, as :func:`max_weight_cover_matching`
    numbers them: its potentials are integers, and y_left + y_right =
    2L*y_v. Every arc, in cover-id order, is its start, so each arc tight
    from the outset is matched before any phase runs. Tightness, feasibility,
    the critical set and the witness checks run on the ints 2L*y_v and
    2L*w_e, then the cover's own postconditions; each potential becomes a
    ``Fraction`` once, on the way out.

    ``y`` (in the instance's vertex order), ``objective``, ``tight_edges``
    and ``critical`` are a function of the market and the weights alone:
    the kernel ends at the optimal dual with the least right potentials,
    whatever its start matched (``cover``'s module docstring). Only the
    ``witness`` depends on the matches the kernel made.
    """
    edges, k = inst.edges, len(inst.edges)
    scale, scaled = scale_to_ints(_rat(weights.get(e.eid, ZERO)) for e in edges)
    rank = {v: i for i, v in enumerate(sorted(inst.vertices))}
    eu, ev = [rank[e.u] for e in edges], [rank[e.v] for e in edges]
    cover = _cover_ids(edges)  # e> is (u, v') and e< is (v, u') for edge e = (u, v)
    arc = [a for _, a in cover]
    tail, head, w = ([xs[a] for a in arc] for xs in (eu + ev, ev + eu, scaled + scaled))
    y_left, y_right, mate = _hungarian(len(rank), tail, head, w, [rank[v] for v in inst.vertices],
                                       range(len(w)))
    for v in inst.vertices:
        if type(y_left[rank[v]]) is not int or type(y_right[rank[v]]) is not int:
            raise VerificationFailed(f"cover potential of {v!r} is not an integer")
    y_int = list(map(add, y_left, y_right))  # 2L * y_v by name rank
    objective_int = sum(y_int)
    sums = [y_int[u] + y_int[v] for u, v in zip(eu, ev)]
    tight = tuple(e.eid for e, s, x in zip(edges, sums, scaled) if s == 2 * x)
    critical = frozenset(v for v in inst.vertices if y_int[rank[v]] > 0)

    for e, s, x in zip(edges, sums, scaled):  # dual feasibility
        if s < 2 * x:
            raise VerificationFailed(f"dual infeasible at {e.eid}")
    # one pass over the matched cover copies in cover-id order, each worth
    # 1/2 of its origin: the witness, and its loads and weight counted in halves
    witness: dict[str, Fraction] = {}
    load = [0] * len(rank)
    got = 0  # 4L times the witness weight
    for c in sorted(c for c in mate if c is not None):
        eid = edges[arc[c] % k].eid
        witness[eid] = ONE if eid in witness else HALF
        load[tail[c]] += 1
        load[head[c]] += 1
        got += 2 * w[c]
    if max(load, default=0) > 2:
        raise VerificationFailed("witness overloads a vertex")
    if got != 2 * objective_int:
        raise VerificationFailed("witness weight differs from the dual objective")
    tight_set = set(tight)
    if any(eid not in tight_set for eid in witness):
        raise VerificationFailed("witness uses a slack edge")
    if any(load[rank[v]] != 2 for v in critical):
        raise VerificationFailed("witness leaves a positive-potential vertex open")
    _certify([cid for cid, _ in cover], tail, head, w, y_left, y_right, mate)
    return DualSolution(
        y={v: Fraction(y_int[rank[v]], 2 * scale) for v in inst.vertices},
        objective=Fraction(objective_int, 2 * scale), tight_edges=tight, critical=critical,
        witness=witness,
    )


def solve_pop_crit(
    inst: Instance, critical: frozenset[str] | set[str]
) -> dict[str, Fraction]:
    """A critical half-matching popular among critical matchings.

    Only an output leaving a critical vertex open runs the feasibility check:
    :class:`InfeasibleCritical` if it fails, else :class:`VerificationFailed`.
    """
    crit = _critical_set(critical, inst._index)
    out = _run_pipeline(build_crit_reduction(inst, crit))
    open_crit = sorted(crit - saturated_vertices(inst, out))
    if open_crit and not max_cardinality_saturating(double_cover(inst), crit):
        raise InfeasibleCritical("no fractional matching saturates the critical set")
    if open_crit:
        raise VerificationFailed(f"critical vertices left open: {open_crit}")
    return out


def restrict_to_edges(inst: Instance, keep: set[str] | frozenset[str]) -> Instance:
    """The sub-market on a subset of the edges (same vertices): each
    vertex's tie groups keep the kept edges, and every kept end its
    valuation and thresholds."""
    groups, values = {}, {}
    for v in inst.vertices:
        vals = inst._values_of(v)
        groups[v] = [[eid for eid in group if eid in keep] for group in inst.tie_classes(v)]
        values[v] = [vals[i] for i, group in zip(inst._starts[v], groups[v]) if group]
    weights = inst.weights and {eid: val for eid, val in inst.weights.items() if eid in keep}
    d, scaled = inst.scaled_gamma()  # thresholds keyed by their ints over d
    gamma = None if inst._gamma_u is None else [
        (eid, {x: {"gamma": g, "delta": delta}}) for (eid, x), (g, delta) in scaled.items()
        if eid in keep]
    return _instance(inst.vertices, [e for e in inst.edges if e.eid in keep], groups, values,
                     inst.pref_empty, weights, gamma, inst.critical, read=lambda x: Fraction(x, d))


def solve_pop_maxw(
    inst: Instance, weights: Mapping[str, Fraction]
) -> dict[str, Fraction]:
    """A maximum-weight half-matching popular among maximum-weight ones.

    Solves the dual first, keeps only tight edges, marks every
    positive-potential vertex critical, and defers to the critical
    pipeline; the output's weight is checked against the dual objective
    exactly.
    """
    return _pop_maxw(inst, weights)[0]


def _pop_maxw(
    inst: Instance, weights: Mapping[str, Fraction]
) -> tuple[dict[str, Fraction], DualSolution]:
    """:func:`solve_pop_maxw`'s matching together with the dual it used."""
    # refuses every tie before the dual; a tie that touches a slack edge
    # passes the masked crit build, so this is its only refusal
    inst.require_strict("solve_pop_maxw")
    dual = max_weight_dual(inst, weights)
    tight = set(dual.tight_edges)
    # No feasibility run or saturation scan: the dual's witness saturates
    # the critical set, and on tight edges weight = sum_v y_v * load(v) <=
    # sum_v y_v, so weight == objective saturates every y_v > 0 vertex.
    out = _run_pipeline(build_crit_reduction(
        inst, dual.critical, [e.eid in tight for e in inst.edges]))
    got = sum(
        (_rat(weights.get(eid, ZERO)) * val for eid, val in out.items()), ZERO
    )
    if got != dual.objective:
        raise VerificationFailed(
            f"output weight {got} differs from the optimum {dual.objective}"
        )
    return out, dual
