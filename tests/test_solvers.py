import dataclasses
import hashlib
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from halfmatch import core as core_module
from halfmatch import cover as cover_module
from halfmatch import generate as generate_module
from halfmatch import io as io_module
from halfmatch import solvers as solvers_module
from halfmatch.engine import StablePartitionCert
from halfmatch.core import (
    HALF,
    ONE,
    ZERO,
    InstanceError,
    VerificationFailed,
    blocking_edges,
    is_saturated,
    matching_size,
    saturated_vertices,
    validate_instance,
)
from halfmatch.cover import (
    double_cover,
    max_cardinality_saturating,
    max_weight_cover_matching,
)
from halfmatch.engine import (
    brute_force_max_stable,
    enumerate_half_matchings,
    iter_stable_half_matchings,
    stable_half_matching,
)
from halfmatch.generate import generate_random
from halfmatch.io import parse_instance_text, serialize_instance
from halfmatch.popularity import delta_feasible, dual_worst, is_popular, is_popular_critical
from halfmatch.reductions import DerivedInstance, build_crit_reduction
from halfmatch.solvers import (
    DualSolution,
    InfeasibleCritical,
    max_weight_dual,
    restrict_to_edges,
    solve_max_gamma,
    solve_max_pri,
    solve_max_srti,
    solve_pop_crit,
    solve_pop_maxw,
)

from conftest import make_path
from materialized import dual_faults, full_critical_verdict, named_cover_dual, proposals
from test_cover import fraction_cover_matching, oracle_markets
from test_popularity import _plain

F = Fraction
H = HALF


def tied_four_path():
    return validate_instance(
        ["a", "b", "c", "d"],
        [("ab", "a", "b"), ("bc", "b", "c"), ("cd", "c", "d")],
        pref={
            "a": {"ab": 1},
            "b": {"ab": 1, "bc": 1},
            "c": {"bc": 1, "cd": 1},
            "d": {"cd": 1},
        },
    )


def with_uniform_gamma(inst, gam, delta):
    gamma = {}
    for e in inst.edges:
        gamma[(e.eid, e.u)] = (gam, delta)
        gamma[(e.eid, e.v)] = (gam, delta)
    return validate_instance(
        vertices=list(inst.vertices),
        edges=[(e.eid, e.u, e.v) for e in inst.edges],
        pref={v: dict(inst.pref[v]) for v in inst.vertices},
        gamma=gamma,
    )


# -- weakly stable maximization -------------------------------------------------


def test_srti_single_edge(single_edge):
    assert solve_max_srti(single_edge) == {"e": ONE}


def test_srti_tied_path_finds_optimum():
    out = solve_max_srti(tied_four_path())
    assert out == {"ab": ONE, "cd": ONE}
    assert brute_force_max_stable(tied_four_path())[0] == 2


def test_srti_triangle(cyclic_triangle):
    out = solve_max_srti(cyclic_triangle)
    assert out == {"ab": H, "bc": H, "ca": H}


def test_srti_stable_on_random_tied_instances():
    for seed in range(150):
        inst = generate_random(
            seed, 5 + seed % 8, edge_density=0.5, parallel_prob=0.25, tie_prob=0.4
        )
        out = solve_max_srti(inst)
        assert blocking_edges(inst, out, "weak") == [], f"seed {seed}"


def test_srti_ratio_bound_small_sweep():
    hits_above_one = 0
    for seed in range(120):
        inst = generate_random(
            seed, 5 + seed % 3, edge_density=0.55, parallel_prob=0.2, tie_prob=0.5
        )
        if len(inst.edges) > 8:
            continue
        out_size = matching_size(solve_max_srti(inst))
        best, _ = brute_force_max_stable(inst, "weak", bound=8)
        assert 2 * best <= 3 * out_size, f"seed {seed}"
        if best > out_size:
            hits_above_one += 1
    assert hits_above_one >= 1  # the bound is not vacuous on this sweep


def test_srti_integral_on_bipartite_with_ties():
    for seed in range(60):
        inst = generate_random(
            seed, 6 + seed % 5, edge_density=0.6, parallel_prob=0.2, tie_prob=0.5,
            bipartite=True,
        )
        out = solve_max_srti(inst)
        assert all(val == ONE for val in out.values()), f"seed {seed}"


# -- gamma-stable maximization ----------------------------------------------------


def test_gamma_single_edge(single_edge):
    inst = with_uniform_gamma(single_edge, F(1, 4), F(1, 2))
    assert solve_max_gamma(inst) == {"e": ONE}


def test_gamma_below_gap_matches_weak_classification():
    # thresholds strictly below every preference gap: gamma-blocking and
    # weak blocking coincide, so both solvers' outputs are weakly stable
    for seed in range(40):
        base = generate_random(seed, 6, edge_density=0.5, tie_prob=0.3)
        inst = with_uniform_gamma(base, F(1, 4), F(1, 2))
        if len(inst.edges) > 8:
            continue
        for m in enumerate_half_matchings(inst, bound=8):
            assert blocking_edges(inst, m, "gamma") == blocking_edges(inst, m, "weak")
        out = solve_max_gamma(inst)
        assert blocking_edges(inst, out, "weak") == []


def test_gamma_stable_on_random_instances():
    for seed in range(90):
        for preset in ("min-like", "max-like", "generic"):
            inst = generate_random(
                seed, 5 + seed % 5, edge_density=0.5, parallel_prob=0.2,
                tie_prob=0.4, gamma_preset=preset,
            )
            out = solve_max_gamma(inst)
            assert blocking_edges(inst, out, "gamma") == [], (seed, preset)


def test_gamma_ratio_on_tied_path():
    inst = with_uniform_gamma(tied_four_path(), F(1, 4), F(1, 2))
    out = solve_max_gamma(inst)
    best, _ = brute_force_max_stable(inst, "gamma")
    assert 3 * matching_size(out) >= 2 * best


# -- popular maximization -----------------------------------------------------------


def test_pri_single_edge(single_edge):
    assert solve_max_pri(single_edge) == {"e": ONE}


def test_pri_short_path_keeps_popular_edge():
    inst = make_path("a")  # b prefers a over c
    out = solve_max_pri(inst)
    assert out == {"ab": ONE}
    assert is_popular(inst, out).popular


def max_popular_size(inst, bound=8):
    rivals = list(enumerate_half_matchings(inst, bound))
    best = ZERO
    for cand in rivals:
        size = matching_size(cand)
        if size <= best:
            continue
        if all(delta_feasible(inst, cand, n).value >= 0 for n in rivals):
            best = size
    return best


def test_pri_five_agent_market(five_agent_market):
    inst, _, _ = five_agent_market
    out = solve_max_pri(inst)
    assert matching_size(out) == 2
    assert is_popular(inst, out).popular
    assert max_popular_size(inst) == 2


def test_pri_popular_and_largest_on_small_sweep():
    done = 0
    for seed in range(60):
        inst = generate_random(seed, 5, edge_density=0.55, parallel_prob=0.15)
        if not 1 <= len(inst.edges) <= 6:
            continue
        out = solve_max_pri(inst)
        assert all(v in (H, ONE) for v in out.values())
        assert is_popular(inst, out, bound=6).popular, f"seed {seed}"
        assert matching_size(out) == max_popular_size(inst, bound=6), f"seed {seed}"
        done += 1
    assert done >= 20


# -- textbook oracles on bipartite markets ---------------------------------------------


def test_largest_popular_half_matchings_share_the_dominant_saturated_set():
    # on bipartite desk markets, every popular half-matching of the largest
    # size (half-integral scope, by enumeration) has the size and the
    # saturated set of the dominant matching, which two-level proposals give:
    # the observation the sweep below asserts of pri's output
    markets = several = 0
    for seed in range(200):
        inst = generate_random(seed, 4 + seed % 5, edge_density=0.5, parallel_prob=0.2,
                               bipartite=True)
        if not 0 < len(inst.edges) <= 6:
            continue
        popular = [m for m in enumerate_half_matchings(inst, bound=6)
                   if is_popular(inst, m, bound=6).popular]
        top = max(map(matching_size, popular))
        largest = [m for m in popular if matching_size(m) == top]
        dominant = proposals(inst, 2)
        assert matching_size(dominant) == top, seed
        full = saturated_vertices(inst, dominant)
        assert all(saturated_vertices(inst, m) == full for m in largest), seed
        markets += 1
        several += len(largest) > 1
    assert markets >= 80 and several >= 20, (markets, several)


def test_srti_and_pri_meet_the_textbook_oracles_on_sparse_bipartite_markets():
    # every stable matching of a strict bipartite market saturates the
    # vertices Gale-Shapley's does, and a popular matching of maximum size
    # has the dominant matching's size; parallel edges are separate proposals
    sizes, apart = (10, 20, 40, 100, 200), 0
    for seed in range(300):
        n = sizes[seed % len(sizes)]
        inst = generate_random(seed, n, edge_density=5 / n, parallel_prob=0.2, bipartite=True)
        stable, dominant = proposals(inst, 1), proposals(inst, 2)
        srti, pri = solve_max_srti(inst), solve_max_pri(inst)
        assert set(srti.values()) <= {ONE} and set(pri.values()) <= {ONE}, seed
        assert saturated_vertices(inst, srti) == saturated_vertices(inst, stable), seed
        assert matching_size(pri) == matching_size(dominant), seed
        assert saturated_vertices(inst, pri) == saturated_vertices(inst, dominant), seed
        apart += matching_size(dominant) > matching_size(stable)
    assert apart >= 200, apart  # the two oracles tell the two solvers apart


# -- duals ---------------------------------------------------------------------------


def test_dual_single_edge(single_edge):
    dual = max_weight_dual(single_edge, {"e": F(4)})
    assert dual.y == {"a": F(2), "b": F(2)}
    assert dual.objective == 4
    assert dual.tight_edges == ("e",)
    assert dual.critical == {"a", "b"}
    assert dual.witness == {"e": ONE}


def test_dual_triangle_unit(cyclic_triangle):
    dual = max_weight_dual(cyclic_triangle, {e.eid: F(1) for e in cyclic_triangle.edges})
    assert dual.objective == F(3, 2)
    assert all(y == H for y in dual.y.values())
    assert set(dual.tight_edges) == {"ab", "bc", "ca"}
    assert dual.critical == {"a", "b", "c"}


def test_dual_zero_weight(single_edge):
    dual = max_weight_dual(single_edge, {"e": F(0)})
    assert dual.objective == 0 and dual.critical == frozenset()
    assert dual.tight_edges == ("e",)  # zero potentials meet a zero weight


def test_dual_oracle_on_random_weighted_instances():
    for seed in range(50):
        inst = generate_random(
            seed, 6, edge_density=0.55, parallel_prob=0.2, weight_range=(0, 5)
        )
        if len(inst.edges) > 8:
            continue
        dual = max_weight_dual(inst, inst.weights or {})
        best = max(
            (
                sum(((inst.weights or {}).get(e, ZERO) * v for e, v in m.items()), ZERO)
                for m in enumerate_half_matchings(inst, bound=8)
            ),
            default=ZERO,
        )
        assert dual.objective == best, f"seed {seed}"


def fraction_dual(inst, weights):
    """:func:`max_weight_dual`'s fields in ``Fraction`` arithmetic, on the
    ``Fraction`` kernel."""
    w = {e.eid: F(weights.get(e.eid, ZERO)) for e in inst.edges}
    cov = double_cover(inst)
    res = fraction_cover_matching(cov, w)
    y = {v: (res.y_left[v] + res.y_right[v]) / 2 for v in inst.vertices}
    witness = {}  # each matched cover copy gives its origin 1/2
    for cid in sorted(res.matched):
        origin = cov.edge(cid).origin
        witness[origin] = witness.get(origin, ZERO) + HALF
    critical = frozenset(v for v in inst.vertices if y[v] > 0)
    assert all(is_saturated(inst, witness, v) for v in critical)
    return DualSolution(
        y=y,
        objective=sum(y.values(), ZERO),
        tight_edges=tuple(e.eid for e in inst.edges if y[e.u] + y[e.v] == w[e.eid]),
        critical=critical,
        witness=witness,
    )


def test_dual_equals_the_fraction_oracle():
    # the oracle starts cold, so only the witness may differ, and is checked
    # by its own properties
    for inst, weights, _ in oracle_markets():
        ints = {eid: w.numerator for eid, w in weights.items() if w.denominator == 1}
        for ws in (weights, ints):
            got = max_weight_dual(inst, ws)
            assert dual_faults(inst, ws, got, fraction_dual(inst, ws)) == []


def _forged_kernel(monkeypatch, **change):
    """Make the cover's Hungarian kernel return its lists with ``change``:
    ``y_left`` and ``y_right`` by vertex index, ``mate`` each left's matched
    arc (arc i is edge i from its u end, arc k + i from its v end)."""
    real = cover_module._hungarian

    def forged(*args):
        got = dict(zip(("y_left", "y_right", "mate"), real(*args)))
        return tuple({**got, **change}.values())

    monkeypatch.setattr(cover_module, "_hungarian", forged)


@pytest.mark.parametrize("change, message", [
    ({"y_left": [0, 0]}, "dual infeasible at e"),
    ({"mate": [0, None]}, "witness weight differs from the dual objective"),  # (a, b') only
    # a Fraction potential too low for the edge
    ({"y_left": [F(1, 7), 4]}, "dual infeasible at edge 0"),
])
def test_a_broken_cover_result_fails_a_dual_check(monkeypatch, single_edge, change,
                                                  message):
    # the checks raise, so they hold under python -O too; arc 0 is (a, b')
    # and arc 1 is (b, a'), and the kernel matches a to arc 0 and b to arc 1
    _forged_kernel(monkeypatch, **change)
    with pytest.raises(VerificationFailed, match=message):
        max_weight_dual(single_edge, {"e": F(4, 3)})


# the arcs of the path a-b-c: ab from a = (a, b'), bc from b = (b, c'),
# ab from b = (b, a') and bc from c = (c, b')
_AB_GT, _AB_LT, _BC_LT = 0, 2, 3


def test_a_cover_result_that_overloads_a_vertex_fails(monkeypatch):
    # matching ab>, ab< and bc< gives b a load of 3/2: its plain copy once
    # and its primed copy twice
    _forged_kernel(monkeypatch, mate=[_AB_GT, _AB_LT, _BC_LT])
    with pytest.raises(VerificationFailed, match="witness overloads a vertex"):
        max_weight_dual(make_path("a"), {"ab": F(1), "bc": F(1)})


@pytest.mark.parametrize("matched, y, message", [
    # ab carries the witness's weight 1 though y_a + y_b = 4/2 exceeds it
    ([_AB_GT, _AB_LT, None], [0, 4, -2], "negative dual potential"),
    # half of ab, tight, carries the weight 1/2 while b, at 3/2, is half open
    ([_AB_GT, None, None], [-1, 3, -1], "negative dual potential"),
])
def test_a_cover_result_with_a_negative_potential_fails(monkeypatch, matched, y, message):
    # the potentials (in halves) are feasible on the path a-b-c of unit weights,
    # sum to the witness's weight and load no vertex past 1. With no potential
    # below 0 that would make every witness edge tight and every positive
    # vertex saturated (complementary slackness), so the one check that
    # refuses a negative potential also refuses a slack witness edge and an
    # open positive vertex
    _forged_kernel(monkeypatch, mate=matched, y_left=y, y_right=[0, 0, 0])
    with pytest.raises(VerificationFailed, match=message):
        max_weight_dual(make_path("a"), {"ab": F(1), "bc": F(1)})


def test_the_dual_scales_once_and_passes_the_cover_ints(monkeypatch):
    # the market of CI's "rational weights through the integer dual" step:
    # denominators 2, 3, 4 and 5, so L = 60
    inst = validate_instance(
        ["a", "b", "c", "d", "e"],
        [("ab", "a", "b"), ("bc", "b", "c"), ("ca", "c", "a"), ("cd", "c", "d"),
         ("de", "d", "e")],
        pref={"a": {"ab": 2, "ca": 1}, "b": {"bc": 2, "ab": 1},
              "c": {"ca": 3, "bc": 2, "cd": 1}, "d": {"cd": 2, "de": 1}, "e": {"de": 1}},
    )
    weights = {"ab": F(3, 2), "bc": F(5, 3), "ca": F(7, 4), "cd": F(2, 5), "de": F(-1, 2)}
    calls, real = [], cover_module._hungarian

    def spy(n, tail, head, w, roots, start):
        calls.append((list(w), list(start)))
        return real(n, tail, head, w, roots, start)

    monkeypatch.setattr(cover_module, "_hungarian", spy)
    dual = max_weight_dual(inst, weights)
    arcs = sorted(weights) * 2  # each edge from its u end, then from its v end
    # the start offers every arc, in edge-rank order
    assert calls == [([weights[eid] * 60 for eid in arcs], list(range(len(arcs))))]
    assert all(type(w) is int for w in calls[0][0])
    assert dual.objective == F(59, 24)
    assert dual_faults(inst, weights, dual, fraction_dual(inst, weights)) == []


def _renamed(inst, ids):
    """The same market with edge i's id ``ids[i]``, and weights to match."""
    new = dict(zip((e.eid for e in inst.edges), ids))
    return validate_instance(
        list(inst.vertices),
        [(new[e.eid], e.u, e.v) for e in inst.edges],
        pref={v: {new[eid]: x for eid, x in inst.pref[v].items()} for v in inst.vertices},
        weights={new[eid]: x for eid, x in (inst.weights or {}).items()},
    )


def test_the_dual_equals_the_named_cover_reference(monkeypatch):
    # field by field but the witness, which the start moves and which is
    # checked by its own properties, the potentials in their insertion order,
    # without the named cover: on the golden sweep's markets, and on markets
    # whose edge ids do not sort as their cover ids do (";" and "=" sort below
    # "<", so "a;<" and "a=>" come before "a<" and "a>"). No other solver
    # reaches it either: solve_pop_crit's outcomes on the crit sweep are the
    # named cover's feasibility-first ones, and the popularity dual gives each
    # integral crit output's worst value, among its critical rivals and among
    # all, that a scan of the rivals finds
    markets = [(inst, weights) for inst, weights, _ in _golden_markets()]
    stems, apart = ["a", "a;", "a=", "a;<", "a<", "b", "b=", "b;", "a;;", "b<<"], 0
    for seed in range(20):
        inst = generate_random(seed, 4 + seed % 5, edge_density=0.7, parallel_prob=0.3,
                               weight_range=(1, 1 + seed % 3))
        inst = _renamed(inst, [stems[i % 10] + "x" * (i // 10) for i in range(len(inst.edges))])
        markets.append((inst, inst.weights))
        eids = sorted(e.eid for e in inst.edges)
        apart += sorted(e + side for e in eids for side in "<>") != [
            e + side for e in eids for side in "<>"]
    assert apart >= 15, apart
    want = [named_cover_dual(inst, weights) for inst, weights in markets]
    crit_markets = [(inst, crit, _crit_outcome(_feasibility_first, inst, crit))
                    for inst, crit in _crit_sweep()]
    assert [out == "infeasible" for *_, out in crit_markets].count(True) >= 40
    worst = [(inst, out, among, full_critical_verdict(inst, out, among, 8).worst_value)
             for inst, crit, out in crit_markets
             if out != "infeasible" and len(inst.edges) <= 8 and set(out.values()) <= {ONE}
             for among in (crit, ())]
    assert len(worst) >= 40 and min(value for *_, value in worst) < 0, len(worst)

    def refused(*args):
        raise AssertionError("a solver reached the named cover")

    monkeypatch.setattr(cover_module, "double_cover", refused)
    monkeypatch.setattr(cover_module, "max_weight_cover_matching", refused)
    for (inst, weights), ref in zip(markets, want):
        assert dual_faults(inst, weights, max_weight_dual(inst, weights), ref) == []
    for inst, crit, out in crit_markets:
        assert _crit_outcome(solve_pop_crit, inst, crit) == out, sorted(crit)
    for inst, m, crit, value in worst:
        assert dual_worst(inst, m, crit)[0] == value, sorted(crit)


def _start_markets():
    """300 seeded markets of each of four families, n = 6 to 35: weighted
    (density 0.3, weights 1-9), unit weights, sparse (mean degree 2.5,
    parallel edges, weights 1-3), and parallel edges with Fraction weights of
    denominators 1-4, some zero or negative."""
    for seed in range(300):
        n = 6 + seed % 30
        inst = generate_random(seed, n, edge_density=0.3, weight_range=(1, 9))
        yield inst, inst.weights
        inst = generate_random(seed, n, edge_density=0.4)
        yield inst, {e.eid: 1 for e in inst.edges}
        inst = generate_random(seed, n, edge_density=2.5 / (n - 1), parallel_prob=0.2,
                               weight_range=(1, 3))
        yield inst, inst.weights
        inst = generate_random(seed, n, edge_density=0.3, parallel_prob=0.2)
        rng = random.Random(seed)
        yield inst, {e.eid: F(rng.randint(-3, 12), rng.randint(1, 4)) for e in inst.edges}


def test_the_start_moves_no_potential():
    # the kernel matches every tight arc before its first phase; the
    # potentials it ends at are the optimal dual with the least right
    # potentials, whatever it matched on the way (cover.py), so every field
    # but the witness equals the cold start's, through the named cover
    moved = 0
    for inst, weights in _start_markets():
        got, cold = max_weight_dual(inst, weights), named_cover_dual(inst, weights)
        assert dual_faults(inst, weights, got, cold) == []
        moved += got.witness != cold.witness
    assert moved > 200, moved  # the start matched other arcs


def test_the_dual_reads_only_exact_weights(single_edge):
    for bad in (0.1, float("nan"), "abc"):
        with pytest.raises(InstanceError, match=re.escape(repr(bad))):
            max_weight_dual(single_edge, {"e": bad})
    assert max_weight_dual(single_edge, {"e": "4/3"}).objective == F(4, 3)


# -- critical popularity -----------------------------------------------------------


def test_pop_crit_empty_set(single_edge):
    assert solve_pop_crit(single_edge, frozenset()) == {"e": ONE}


def test_pop_crit_path_saturates_c():
    inst = make_path("a")
    out = solve_pop_crit(inst, {"c"})
    assert is_saturated(inst, out, "c")
    assert is_popular_critical(inst, out, {"c"}).popular


def test_pop_crit_infeasible_star():
    star = validate_instance(
        ["m", "x", "y"],
        [("mx", "m", "x"), ("my", "m", "y")],
        pref={"m": {"mx": 2, "my": 1}, "x": {"mx": 1}, "y": {"my": 1}},
    )
    with pytest.raises(InfeasibleCritical):
        solve_pop_crit(star, {"x", "y"})


@pytest.mark.parametrize("solve, args, message", [
    # c can be saturated, so an output leaving it open is the pipeline's fault
    (solve_pop_crit, (make_path("a"), {"c"}), re.escape("critical vertices left open: ['c']")),
    (solve_pop_maxw, (make_path("a"), {"ab": F(2), "bc": F(1)}),
     "output weight 0 differs from the optimum 2"),
], ids=["crit", "maxw"])
def test_a_pipeline_output_that_misses_the_claim_fails(monkeypatch, solve, args, message):
    # an empty projection saturates nothing and weighs 0: both checks raise,
    # so they hold under python -O too
    monkeypatch.setattr(solvers_module, "_run_pipeline", lambda derived, mode=None: {})
    with pytest.raises(VerificationFailed, match=message):
        solve(*args)


def test_pop_crit_random_feasible_pairs():
    done = 0
    for seed in range(80):
        inst = generate_random(seed, 6, edge_density=0.6, critical_count=2)
        crit = inst.critical
        if len(inst.edges) > 8:
            continue
        feasible = any(
            all(is_saturated(inst, m, v) for v in crit)
            for m in enumerate_half_matchings(inst, bound=8)
        )
        if not feasible:
            with pytest.raises(InfeasibleCritical):
                solve_pop_crit(inst, crit)
            continue
        out = solve_pop_crit(inst, crit)
        assert all(is_saturated(inst, out, v) for v in crit), f"seed {seed}"
        assert is_popular_critical(inst, out, crit, bound=8).popular, f"seed {seed}"
        done += 1
    assert done >= 10


def _feasibility_first(inst, crit):
    """solve_pop_crit as it ran before it trusted a saturating output: the
    feasibility matching on the double cover first, then the pipeline."""
    derived = build_crit_reduction(inst, crit)
    weights = {e.eid: (e.u in crit) + (e.v in crit) for e in inst.edges}
    if max_weight_cover_matching(double_cover(inst), weights).weight != 2 * len(crit):
        raise InfeasibleCritical("no fractional matching saturates the critical set")
    out = derived.project(stable_half_matching(derived.inst))
    if not all(is_saturated(inst, out, v) for v in crit):
        raise VerificationFailed("critical vertices left open")
    return out


def _crit_outcome(solve, inst, crit):
    try:
        return solve(inst, crit)
    except InfeasibleCritical:
        return "infeasible"


def _crit_sweep():
    """Seeded strict markets, each with a random critical set of any size."""
    for seed in range(200):
        rng = random.Random(seed)
        inst = generate_random(seed, 4 + seed % 9, edge_density=0.3, parallel_prob=0.2)
        k = rng.randint(0, len(inst.vertices))
        yield inst, frozenset(rng.sample(sorted(inst.vertices), k))


def test_pop_crit_runs_no_feasibility_matching_on_feasible_sets(monkeypatch):
    # a saturating output proves the set feasible by itself
    markets = []
    for inst, crit in _crit_sweep():
        expected = _crit_outcome(_feasibility_first, inst, crit)
        if expected != "infeasible":
            markets.append((inst, crit, expected))
    assert len(markets) >= 100

    def refuse(*args, **kwargs):
        raise AssertionError("max_cardinality_saturating called on a feasible set")

    monkeypatch.setattr("halfmatch.solvers.max_cardinality_saturating", refuse)
    for inst, crit, expected in markets:
        assert solve_pop_crit(inst, crit) == expected


def test_pop_crit_outcomes_equal_the_feasibility_first_oracle():
    outcomes = []
    for inst, crit in _crit_sweep():
        expected = _crit_outcome(_feasibility_first, inst, crit)
        assert _crit_outcome(solve_pop_crit, inst, crit) == expected, sorted(crit)
        outcomes.append(expected == "infeasible")
    assert outcomes.count(True) >= 40 and outcomes.count(False) >= 100


# -- popular maximum weight -----------------------------------------------------------


def test_pop_maxw_single_edge(single_edge):
    assert solve_pop_maxw(single_edge, {"e": F(1)}) == {"e": ONE}


def test_pop_maxw_parallel_heavy_edge():
    inst = validate_instance(
        ["a", "b"],
        [("e1", "a", "b"), ("e2", "a", "b")],
        pref={"a": {"e1": 2, "e2": 1}, "b": {"e1": 1, "e2": 2}},
    )
    out = solve_pop_maxw(inst, {"e1": F(2), "e2": F(1)})
    assert out == {"e1": ONE}


def test_pop_maxw_triangle(cyclic_triangle):
    out = solve_pop_maxw(cyclic_triangle, {e.eid: F(1) for e in cyclic_triangle.edges})
    assert out == {"ab": H, "bc": H, "ca": H}
    dual = max_weight_dual(cyclic_triangle, {e.eid: F(1) for e in cyclic_triangle.edges})
    assert sum(out.values()) == dual.objective


def test_pop_maxw_weight_always_optimal():
    for seed in range(50):
        inst = generate_random(
            seed, 6, edge_density=0.6, parallel_prob=0.15, weight_range=(0, 4)
        )
        w = inst.weights or {}
        dual = max_weight_dual(inst, w)
        out = solve_pop_maxw(inst, w)
        got = sum((w.get(e, ZERO) * v for e, v in out.items()), ZERO)
        assert got == dual.objective, f"seed {seed}"


def test_pop_maxw_popular_among_max_weight_rivals():
    done = 0
    for seed in range(40):
        inst = generate_random(seed, 5, edge_density=0.6, weight_range=(1, 3))
        if len(inst.edges) > 7 or not inst.edges:
            continue
        w = inst.weights or {}
        out = solve_pop_maxw(inst, w)
        opt = sum((w.get(e, ZERO) * v for e, v in out.items()), ZERO)
        for rival in enumerate_half_matchings(inst, bound=7):
            rw = sum((w.get(e, ZERO) * v for e, v in rival.items()), ZERO)
            if rw == opt:
                assert delta_feasible(inst, out, rival).value >= 0, f"seed {seed}"
        done += 1
    assert done >= 10


def test_pop_maxw_runs_no_feasibility_matching(monkeypatch):
    # the dual witness already saturates the critical set, so the maxw
    # path must match the critical pipeline without a cover matching
    markets = []
    for seed in range(30):
        inst = generate_random(
            seed, 4 + seed % 6, edge_density=0.6, parallel_prob=0.15,
            weight_range=(0, 4),
        )
        w = inst.weights or {}
        dual = max_weight_dual(inst, w)
        reduced = restrict_to_edges(inst, set(dual.tight_edges))
        markets.append((inst, w, solve_pop_crit(reduced, dual.critical)))

    def refuse(*args, **kwargs):
        raise AssertionError("max_cardinality_saturating called on the maxw path")

    monkeypatch.setattr("halfmatch.solvers.max_cardinality_saturating", refuse)
    for inst, w, expected in markets:
        assert solve_pop_maxw(inst, w) == expected


def test_pop_maxw_builds_no_second_instance(monkeypatch):
    # the crit market is built on the tight edges of the instance itself:
    # neither restrict_to_edges nor the market constructor runs on the maxw
    # path, and the matchings are those of the restricted market
    markets = []
    for inst, weights, _ in _golden_markets():
        dual = max_weight_dual(inst, weights)
        reduced = restrict_to_edges(inst, set(dual.tight_edges))
        markets.append((inst, weights, solve_pop_crit(reduced, dual.critical)))

    def refuse(*args, **kwargs):
        raise AssertionError("a second Instance built on the maxw path")

    monkeypatch.setattr(solvers_module, "restrict_to_edges", refuse)
    for module in (core_module, solvers_module, io_module, generate_module):
        monkeypatch.setattr(module, "_instance", refuse)
    assert len(markets) >= 100
    for inst, weights, expected in markets:
        assert solve_pop_maxw(inst, weights) == expected


def test_restrict_to_edges(cyclic_triangle):
    sub = restrict_to_edges(cyclic_triangle, {"ab", "bc"})
    assert [e.eid for e in sub.edges] == ["ab", "bc"]
    assert sub.incident("a") == ("ab",)
    assert list(iter_stable_half_matchings(sub))  # still a valid market


def test_everything_tolerates_an_edgeless_market():
    inst = validate_instance(["a", "b"], [], pref={})
    assert solve_max_srti(inst) == {}
    assert solve_max_pri(inst) == {}
    assert solve_pop_crit(inst, frozenset()) == {}
    assert solve_pop_maxw(inst, {}) == {}
    assert max_weight_dual(inst, {}).objective == 0
    with pytest.raises(InfeasibleCritical):
        solve_pop_crit(inst, {"a"})


# -- golden pin ----------------------------------------------------------------


def _reordered(inst, order):
    """The same market with its vertex list in ``order``."""
    return validate_instance(
        list(order),
        [(e.eid, e.u, e.v) for e in inst.edges],
        pref={v: dict(inst.pref[v]) for v in inst.vertices},
    )


def _golden_markets():
    """Seeded markets, each also with its vertex list reversed, and weights
    that are integral, rational, negative or zero, or missing."""
    for seed in range(60):
        rng = random.Random(seed)
        inst = generate_random(seed, 3 + seed % 8, edge_density=0.6, parallel_prob=0.3)
        kind = seed % 4
        weights = {}
        for e in inst.edges:
            if kind == 0:
                weights[e.eid] = F(rng.randint(1, 9))
            elif kind == 1:
                weights[e.eid] = F(rng.randint(1, 12), rng.randint(1, 4))
            elif kind == 2:
                weights[e.eid] = F(rng.randint(-3, 3), rng.choice((1, 2)))
            elif rng.random() < 0.7:  # the rest count as zero
                weights[e.eid] = F(1)
        yield inst, weights, rng
        yield _reordered(inst, reversed(inst.vertices)), weights, rng
    for seed, n in ((1, 110), (2, 130)):  # past v99 name order and list order differ
        inst = generate_random(seed, n, edge_density=0.03, parallel_prob=0.2)
        rng = random.Random(seed)
        yield inst, {e.eid: F(rng.randint(1, 4)) for e in inst.edges}, rng


def test_dual_layer_matches_the_golden_digest():
    # cover matchings and potentials, optimal duals, saturation verdicts and
    # the maxw and crit matchings built on them, as the cover solver computed
    # them when it still ran on name-keyed maps; only the dual's witness is
    # the warm-started kernel's on the shared arc layout, so the digest with
    # it left out is the one from before the start and the layout
    full, bare = hashlib.sha256(), hashlib.sha256()

    def put(obj, *witness):
        bare.update(json.dumps(_plain(obj)).encode())
        full.update(json.dumps(_plain([*obj, *witness] if witness else obj)).encode())

    for inst, weights, rng in _golden_markets():
        cov = double_cover(inst)
        res = max_weight_cover_matching(cov, weights)
        put([sorted(res.matched), res.y_left, res.y_right, res.weight])
        dual = max_weight_dual(inst, weights)
        put([dual.y, dual.objective, dual.tight_edges, sorted(dual.critical)], dual.witness)
        names = sorted(inst.vertices)
        for k in (1, 2, 3, len(names)):
            required = frozenset(rng.sample(names, min(k, len(names))))
            put(max_cardinality_saturating(inst, required))
        if len(inst.vertices) > 10:
            continue
        put(solve_pop_maxw(inst, weights))
        crit = frozenset(rng.sample(names, rng.randint(0, len(names))))
        try:
            put(solve_pop_crit(inst, crit))
        except InfeasibleCritical:
            put("infeasible")
    assert bare.hexdigest() == (
        "b1d9af1961187e0303ede6f69556f7149bb098aef15b151425b3ed89c0588243"
    )
    assert full.hexdigest() == (
        "5f1591da4fb906126b7ed5a9f1a51a2aeef601c7f5cc9e9dcc46c07c95c8c59e"
    )


def _five_solves(tied, strict):
    """Each solver's matching on a seeded pair of markets, or ``"infeasible"``."""
    out = [solve_max_srti(tied), solve_max_gamma(tied), solve_max_pri(strict),
           solve_pop_maxw(strict, strict.weights)]
    try:
        out.append(solve_pop_crit(strict, strict.critical))
    except InfeasibleCritical:
        out.append("infeasible")
    return out


def _sweep_pairs(seeds):
    """A tied market with gamma thresholds and a strict weighted one with a
    critical set, per seed."""
    for seed in seeds:
        n = 4 + seed % 9
        yield (generate_random(seed, n, edge_density=0.5, parallel_prob=0.3, tie_prob=0.4,
                               gamma_preset="generic"),
               generate_random(seed, n, edge_density=0.5, parallel_prob=0.3,
                               weight_range=(1, 9), critical_count=seed % (n + 1)))


def test_no_solver_reads_the_certificates_copy_ids(monkeypatch):
    # the engine hands its matching to the projection by copy index: with
    # the copy-id view of a certificate unreadable, every solve still runs
    pairs = list(_sweep_pairs(range(30)))
    want = [_five_solves(tied, strict) for tied, strict in pairs]

    def unreadable(cert):
        raise AssertionError("a solver read StablePartitionCert.matching")

    monkeypatch.setattr(StablePartitionCert, "matching", property(unreadable))
    assert [_five_solves(tied, strict) for tied, strict in pairs] == want
    assert sum(m == "infeasible" for row in want for m in row) >= 2
    assert sum(bool(m) for row in want for m in row if m != "infeasible") >= 100


@pytest.mark.parametrize("rename", ["e~{}", "e{}~0", "e{}~u~"])
def test_edge_ids_with_a_tilde_give_the_renamed_result(rename):
    # a copy is its edge's id and a tag starting with "~"; an edge id that
    # holds "~" itself keeps the id order, so every solve must pick the
    # same copies and give the same matching under the new ids
    def renamed(inst):
        text = re.sub(r'"e(\d{3})"', lambda m: f'"{rename.format(m[1])}"',
                      serialize_instance(inst))
        assert text.count("~") >= len(inst.edges)
        return parse_instance_text(text)

    for seed, (tied, strict) in enumerate(_sweep_pairs(range(30))):
        want = [m if m == "infeasible" else
                {rename.format(eid[1:]): val for eid, val in m.items()}
                for m in _five_solves(tied, strict)]
        assert _five_solves(renamed(tied), renamed(strict)) == want, f"seed {seed}"


@pytest.mark.parametrize("solve, message", [
    ("solve_max_srti", "projection admits weak-blocking edges"),
    ("solve_max_gamma", "projection admits gamma-blocking edges"),
])
def test_a_stable_solve_certifies_its_projection(monkeypatch, solve, message):
    # an empty projection is blocked by every edge: each stable solve must
    # raise in its own mode, while pri certifies nothing after the engine
    inst = generate_random(1, 6, gamma_preset="generic")
    assert len(inst.edges) > 0
    monkeypatch.setattr(DerivedInstance, "project", lambda derived, cert: {})
    with pytest.raises(VerificationFailed, match=message):
        getattr(solvers_module, solve)(inst)
    assert solvers_module.solve_max_pri(inst) == {}


def test_the_readme_quick_start_runs_as_written():
    # the python block under "## Library quick start", asserts kept under -O
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library quick start\n", 1)[1].split("```python\n", 1)[1]
    exec(compile(block.split("```", 1)[0], "README.md", "exec", optimize=0), {})


def test_a_critical_set_given_as_a_str_is_refused_everywhere():
    # a str would read as the set of its characters: "v00" as {"v", "0"},
    # and "ab" on vertices a, b and c as {a, b}. Every entry point that
    # takes a critical set refuses it with one message; a set of the same
    # names is taken
    from halfmatch.popularity import dual_worst, is_popular_critical
    from halfmatch.reductions import build_crit_reduction
    with pytest.raises(InstanceError, match="^a critical set is a collection of vertices, "
                                            "not the str 'v00'$"):
        solve_pop_crit(generate_random(1, 6, edge_density=0.5), "v00")
    edges = [("ab", "a", "b"), ("bc", "b", "c")]
    pref = {"a": {"ab": 1}, "b": {"ab": 2, "bc": 1}, "c": {"bc": 1}}
    inst = validate_instance(["a", "b", "c"], edges, pref)
    m = {"ab": Fraction(1)}
    calls = [lambda crit: solve_pop_crit(inst, crit),
             lambda crit: is_popular_critical(inst, m, crit),
             lambda crit: build_crit_reduction(inst, crit),
             lambda crit: validate_instance(["a", "b", "c"], edges, pref, critical=crit),
             lambda crit: dual_worst(inst, m, crit)]
    for call in calls:
        call({"a", "b"})
        with pytest.raises(InstanceError, match="^a critical set is a collection of "
                                                "vertices, not the str 'ab'$"):
            call("ab")
