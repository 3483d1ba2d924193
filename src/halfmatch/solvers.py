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
from typing import Mapping

from .core import (
    HALF,
    ONE,
    ZERO,
    Instance,
    Rational,
    VerificationFailed,
    _instance,
    _rat,
    blocking_edges,
    saturated_vertices,
)
from .cover import (
    double_cover,
    max_cardinality_saturating,
    max_weight_cover_matching,
    scale_to_ints,
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
    the cover gets the ints L*w_e: its potentials come back as integers,
    and y_left + y_right = 2L*y_v. Tightness, feasibility, the critical
    set and the witness checks run on the ints 2L*y_v and 2L*w_e, and
    each potential becomes a ``Fraction`` once, on the way out.
    """
    eids = [e.eid for e in inst.edges]
    scale, scaled = scale_to_ints(_rat(weights.get(eid, ZERO)) for eid in eids)
    cov = double_cover(inst)
    res = max_weight_cover_matching(cov, dict(zip(eids, scaled)))
    w_int = {eid: 2 * x for eid, x in zip(eids, scaled)}  # 2L * w_e
    y_int = {}  # 2L * y_v
    for v in inst.vertices:
        left, right = res.y_left[v], res.y_right[v]
        if left.denominator != 1 or right.denominator != 1:
            raise VerificationFailed(f"cover potential of {v!r} is not an integer")
        y_int[v] = left.numerator + right.numerator
    y = {v: Fraction(y_int[v], 2 * scale) for v in inst.vertices}
    objective_int = sum(y_int.values())
    objective = Fraction(objective_int, 2 * scale)
    tight = tuple(
        e.eid for e in inst.edges if y_int[e.u] + y_int[e.v] == w_int[e.eid]
    )
    critical = frozenset(v for v in inst.vertices if y_int[v] > 0)

    for e in inst.edges:  # dual feasibility
        if y_int[e.u] + y_int[e.v] < w_int[e.eid]:
            raise VerificationFailed(f"dual infeasible at {e.eid}")
    # one pass over the matched cover copies, each worth 1/2 of its origin:
    # the witness, and its loads and weight counted in halves
    witness: dict[str, Fraction] = {}
    load = dict.fromkeys(inst.vertices, 0)
    got = 0  # 4L times the witness weight
    for cid in sorted(res.matched):
        ce = cov.edge(cid)
        witness[ce.origin] = ONE if ce.origin in witness else HALF
        load[ce.left] += 1
        load[ce.right] += 1
        got += w_int[ce.origin]
    if any(x > 2 for x in load.values()):
        raise VerificationFailed("witness overloads a vertex")
    if got != 2 * objective_int:
        raise VerificationFailed("witness weight differs from the dual objective")
    tight_set = set(tight)
    if any(eid not in tight_set for eid in witness):
        raise VerificationFailed("witness uses a slack edge")
    if any(load[v] != 2 for v in critical):
        raise VerificationFailed("witness leaves a positive-potential vertex open")
    return DualSolution(
        y=y, objective=objective, tight_edges=tight, critical=critical,
        witness=witness,
    )


def solve_pop_crit(
    inst: Instance, critical: frozenset[str] | set[str]
) -> dict[str, Fraction]:
    """A critical half-matching popular among critical matchings.

    Only an output leaving a critical vertex open runs the feasibility check:
    :class:`InfeasibleCritical` if it fails, else :class:`VerificationFailed`.
    """
    crit = frozenset(critical)
    out = _run_pipeline(build_crit_reduction(inst, crit))  # rejects unknown vertices
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
