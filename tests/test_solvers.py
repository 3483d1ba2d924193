import dataclasses
import hashlib
import json
import random
import re
from fractions import Fraction

import pytest

from halfmatch import core as core_module
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
from halfmatch.popularity import delta_feasible, is_popular, is_popular_critical
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
from test_cover import assert_same_fractions, fraction_cover_matching, oracle_markets
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
    for inst, weights, _ in oracle_markets():
        ints = {eid: w.numerator for eid, w in weights.items() if w.denominator == 1}
        for ws in (weights, ints):
            got = max_weight_dual(inst, ws)
            want = fraction_dual(inst, ws)
            assert got == want
            assert_same_fractions(got.y, want.y)
            assert_same_fractions(got.witness, want.witness)
            assert type(got.objective) is Fraction


@pytest.mark.parametrize("change, message", [
    ({"y_left": {"a": ZERO, "b": ZERO}}, "dual infeasible at e"),
    ({"matched": frozenset({"e>"})}, "witness weight differs from the dual objective"),
    # the cover gets ints, so its potentials must come back as integers
    ({"y_left": {"a": F(1, 7), "b": F(4)}}, "of 'a' is not an integer"),
])
def test_a_broken_cover_result_fails_a_dual_check(monkeypatch, single_edge, change,
                                                  message):
    # the checks raise, so they hold under python -O too
    def broken(cov, weights):
        return dataclasses.replace(max_weight_cover_matching(cov, weights), **change)

    monkeypatch.setattr(solvers_module, "max_weight_cover_matching", broken)
    with pytest.raises(VerificationFailed, match=message):
        max_weight_dual(single_edge, {"e": F(4, 3)})


def test_a_cover_result_that_overloads_a_vertex_fails(monkeypatch):
    # matching both copies of ab and one of bc gives b a load of 3/2
    def broken(cov, weights):
        res = max_weight_cover_matching(cov, weights)
        return dataclasses.replace(res, matched=frozenset({"ab>", "ab<", "bc>"}))

    monkeypatch.setattr(solvers_module, "max_weight_cover_matching", broken)
    with pytest.raises(VerificationFailed, match="witness overloads a vertex"):
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
    calls = []

    def spy(cov, ws):
        calls.append(dict(ws))
        return max_weight_cover_matching(cov, ws)

    monkeypatch.setattr(solvers_module, "max_weight_cover_matching", spy)
    dual = max_weight_dual(inst, weights)
    assert calls == [{eid: w * 60 for eid, w in weights.items()}]
    assert all(type(w) is int for w in calls[0].values())
    assert dual.objective == F(59, 24)
    assert dual == fraction_dual(inst, weights)


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
    if not max_cardinality_saturating(double_cover(inst), crit):
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
    # them when it still ran on name-keyed maps
    digest = hashlib.sha256()
    put = lambda obj: digest.update(json.dumps(_plain(obj)).encode())
    for inst, weights, rng in _golden_markets():
        cov = double_cover(inst)
        res = max_weight_cover_matching(cov, weights)
        put([sorted(res.matched), res.y_left, res.y_right, res.weight])
        dual = max_weight_dual(inst, weights)
        put([dual.y, dual.objective, dual.tight_edges, sorted(dual.critical),
             dual.witness])
        names = sorted(inst.vertices)
        for k in (1, 2, 3, len(names)):
            required = frozenset(rng.sample(names, min(k, len(names))))
            put(max_cardinality_saturating(cov, required))
        if len(inst.vertices) > 10:
            continue
        put(solve_pop_maxw(inst, weights))
        crit = frozenset(rng.sample(names, rng.randint(0, len(names))))
        try:
            put(solve_pop_crit(inst, crit))
        except InfeasibleCritical:
            put("infeasible")
    assert digest.hexdigest() == (
        "2ad66290ce1e03ef7686f4173bd971767140c7be33e233ed56a01f10c8e4f266"
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
