"""Acceptance suite: one test per guarantee, exact tolerances throughout.

Each test prints a PASS line with the observed statistics (visible under
pytest -s or on failure). Every expected value is exact; there are no
float tolerances anywhere.
"""

import itertools
from fractions import Fraction

import pytest

from halfmatch.cli import main
from halfmatch.core import (
    HALF,
    ONE,
    ZERO,
    blocking_edges,
    is_half_matching,
    is_saturated,
    matching_size,
)
from halfmatch.engine import (
    brute_force_max_stable,
    enumerate_half_matchings,
    iter_stable_half_matchings,
    stable_half_matching,
)
from halfmatch.generate import generate_random
from halfmatch.io import save_instance
from halfmatch.popularity import (
    delta_feasible,
    delta_sensible,
    is_popular,
    min_cost_transport,
)
from halfmatch.solvers import (
    InfeasibleCritical,
    max_weight_dual,
    solve_max_gamma,
    solve_max_pri,
    solve_max_srti,
    solve_pop_crit,
    solve_pop_maxw,
)

from materialized import is_popular_mixed
from test_popularity import enumerate_basic_plans

F = Fraction


def test_criterion_1_outputs_are_stable():
    """Solver outputs admit no blocking edge on 1000+ generated markets."""
    instances = 0
    for seed in range(500):
        inst = generate_random(
            seed, 4 + seed % 9, edge_density=0.55, parallel_prob=0.3, tie_prob=0.45
        )
        out = solve_max_srti(inst)
        assert blocking_edges(inst, out, "weak") == [], f"srti seed {seed}"
        instances += 1
    presets = ("min-like", "max-like", "generic")
    for seed in range(500):
        inst = generate_random(
            seed, 4 + seed % 9, edge_density=0.55, parallel_prob=0.3,
            tie_prob=0.45, gamma_preset=presets[seed % 3],
        )
        out = solve_max_gamma(inst)
        assert blocking_edges(inst, out, "gamma") == [], f"gamma seed {seed}"
        instances += 1
    assert instances >= 1000
    print(f"PASS criterion 1: zero blocking edges on {instances} instances")


def test_criterion_2_three_halves_guarantee():
    """Brute-force optimum never exceeds 3/2 of the output size, exactly."""
    checked = 0
    worst = F(0)
    for seed in range(450):
        inst = generate_random(
            seed, 5 + seed % 3, edge_density=0.5, parallel_prob=0.15, tie_prob=0.5
        )
        if len(inst.edges) > 8 or not inst.edges:
            continue
        out_size = matching_size(solve_max_srti(inst))
        best, _ = brute_force_max_stable(inst, "weak", bound=8)
        assert 2 * best <= 3 * out_size, f"weak seed {seed}"
        if out_size:
            worst = max(worst, best / out_size)
        checked += 1
    worst_gamma = F(0)
    for seed in range(220):
        inst = generate_random(
            seed, 5 + seed % 3, edge_density=0.5, parallel_prob=0.15,
            tie_prob=0.5, gamma_preset="generic",
        )
        if len(inst.edges) > 8 or not inst.edges:
            continue
        out_size = matching_size(solve_max_gamma(inst))
        best, _ = brute_force_max_stable(inst, "gamma", bound=8)
        assert 2 * best <= 3 * out_size, f"gamma seed {seed}"
        if out_size:
            worst_gamma = max(worst_gamma, best / out_size)
        checked += 1
    assert checked >= 150
    assert worst > 1  # the bound is exercised, not vacuous
    assert worst <= F(3, 2) and worst_gamma <= F(3, 2)
    print(
        f"PASS criterion 2: ratio <= 3/2 on {checked} small instances "
        f"(worst weak {worst}, worst gamma {worst_gamma})"
    )


def test_criterion_3_bipartite_integrality():
    """Bipartite inputs, strict or tied, always yield integral outputs."""
    count = 0
    for seed in range(160):
        tie = 0.0 if seed % 2 else 0.5
        inst = generate_random(
            seed, 5 + seed % 7, edge_density=0.6, parallel_prob=0.25,
            tie_prob=tie, bipartite=True,
        )
        out = solve_max_srti(inst)
        assert all(val == ONE for val in out.values()), f"seed {seed}"
        count += 1
    assert count >= 160
    print(f"PASS criterion 3: integral outputs on {count} bipartite instances")


def test_criterion_4_fixture_reproduction(five_agent_market):
    """The 5-agent fixture: mixed-popular yes, popular no, delta -1/2 exact."""
    inst, m, rival = five_agent_market
    assert is_popular_mixed(inst, m).popular

    verdict = is_popular(inst, m)
    assert not verdict.popular
    counter_n, counter_delta = verdict.counterexample
    assert counter_n == rival
    assert counter_delta.value == F(-1, 2)
    assert counter_delta.votes == {
        "u1": F(-1, 2), "w1": F(-1, 2),
        "u2": F(1, 2), "w2": F(1, 2),
        "u3": F(-1, 2),
    }
    print("PASS criterion 4: fixture verdicts and votes reproduce exactly")


def _max_popular_size(inst, out, rivals):
    """Check no popular rival is larger than `out`; returns the witness size.

    Larger rivals only need one beating witness each; the solver output
    itself usually serves, with a full scan as fallback.
    """
    out_size = matching_size(out)
    for cand in rivals:
        if matching_size(cand) <= out_size:
            continue
        if delta_feasible(inst, cand, out).value < 0:
            continue
        if all(delta_feasible(inst, cand, n).value >= 0 for n in rivals):
            return matching_size(cand)
    return out_size


def test_criterion_5_popular_maximization():
    """Outputs are half-integral, popular, and largest among popular rivals."""
    checked = 0
    for seed in range(170):
        inst = generate_random(
            seed, 5 + seed % 3, edge_density=0.5, parallel_prob=0.15
        )
        if len(inst.edges) > 8 or not inst.edges:
            continue
        out = solve_max_pri(inst)
        assert is_half_matching(out), f"seed {seed}"
        verdict = is_popular(inst, out, bound=8)
        assert verdict.popular, f"seed {seed}: output not popular"
        assert verdict.scope == "popular (half-integral scope)"
        rivals = list(enumerate_half_matchings(inst, bound=8))
        assert _max_popular_size(inst, out, rivals) == matching_size(out), (
            f"seed {seed}: a larger popular half-matching exists"
        )
        checked += 1
    assert checked >= 40
    print(f"PASS criterion 5: popular and maximum on {checked} strict instances")


def test_criterion_6_popular_max_weight():
    """Weight equals the dual objective exactly; popular among optima."""
    checked = popularity_checked = 0
    for seed in range(70):
        inst = generate_random(
            seed, 5 + seed % 3, edge_density=0.55, weight_range=(0, 4)
        )
        w = inst.weights or {}
        dual = max_weight_dual(inst, w)
        # dual certificate: feasibility and complementary slackness
        for e in inst.edges:
            assert dual.y[e.u] + dual.y[e.v] >= w.get(e.eid, ZERO)
        for eid, val in dual.witness.items():
            assert val == 0 or eid in set(dual.tight_edges)
        for v in dual.critical:
            assert is_saturated(inst, dual.witness, v)

        out = solve_pop_maxw(inst, w)
        got = sum((w.get(e, ZERO) * val for e, val in out.items()), ZERO)
        assert got == dual.objective, f"seed {seed}"
        checked += 1

        if len(inst.edges) <= 7:
            for rival in enumerate_half_matchings(inst, bound=7):
                rw = sum((w.get(e, ZERO) * val for e, val in rival.items()), ZERO)
                if rw == dual.objective:
                    assert delta_feasible(inst, out, rival).value >= 0, f"seed {seed}"
            popularity_checked += 1
    assert checked >= 70 and popularity_checked >= 25
    print(
        f"PASS criterion 6: exact optimum weight on {checked} instances, "
        f"popular among optima on {popularity_checked}"
    )


def test_criterion_7_critical_saturation():
    """Feasible sets are always saturated; infeasible ones fail fast."""
    feasible = infeasible = 0
    for seed in range(120):
        inst = generate_random(
            seed, 5 + seed % 4, edge_density=0.45, critical_count=2 + seed % 2
        )
        crit = inst.critical
        if len(inst.edges) > 8:
            continue
        oracle_feasible = any(
            all(is_saturated(inst, m, v) for v in crit)
            for m in enumerate_half_matchings(inst, bound=8)
        )
        if oracle_feasible:
            out = solve_pop_crit(inst, crit)
            assert all(is_saturated(inst, out, v) for v in crit), f"seed {seed}"
            feasible += 1
        else:
            with pytest.raises(InfeasibleCritical):
                solve_pop_crit(inst, crit)
            infeasible += 1
    assert feasible >= 20 and infeasible >= 10
    print(
        f"PASS criterion 7: saturated {feasible} feasible sets, "
        f"rejected {infeasible} infeasible ones cleanly"
    )


def test_criterion_8_engine_cross_validation(cyclic_triangle):
    """Engine output always lies in the brute-force stable set."""
    cert = stable_half_matching(cyclic_triangle)
    stable_set = list(iter_stable_half_matchings(cyclic_triangle))
    assert stable_set == [{"ab": HALF, "bc": HALF, "ca": HALF}]
    assert cert.matching == stable_set[0]

    checked = 0
    for seed in range(320):
        inst = generate_random(
            seed, 4 + seed % 4, edge_density=0.5, parallel_prob=0.25
        )
        if len(inst.edges) > 8:
            continue
        cert = stable_half_matching(inst)
        assert cert.matching in list(iter_stable_half_matchings(inst, bound=8)), (
            f"seed {seed}"
        )
        checked += 1
    assert checked >= 100
    print(f"PASS criterion 8: engine agreed with brute force on {checked} instances")


def test_criterion_9_kernel_soundness():
    """Transport kernel matches plan enumeration; sensible <= feasible."""
    import random as pyrandom

    rng = pyrandom.Random(42)
    kernel_checks = 0
    for _ in range(40):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        sup = {f"s{i}": F(rng.randint(1, 3), 2) for i in range(r)}
        total = sum(sup.values())
        shares = [rng.randint(1, 3) for _ in range(c)]
        dem = {
            f"d{j}": total * share / sum(shares) for j, share in enumerate(shares)
        }
        costs = {(s, d): rng.choice((-1, 0, 1)) for s in sup for d in dem}
        val, _ = min_cost_transport(sup, dem, lambda s, d: costs[(s, d)])
        best = min(
            sum((amt * costs[cell] for cell, amt in plan.items()), ZERO)
            for plan in enumerate_basic_plans(sup, dem)
        )
        assert val == best
        kernel_checks += 1

    inst = generate_random(17, 5, edge_density=0.5, parallel_prob=0.2)
    assert 2 <= len(inst.edges) <= 5
    pair_checks = 0
    rivals = list(enumerate_half_matchings(inst, bound=5))
    for m, n in itertools.product(rivals, repeat=2):
        assert delta_sensible(inst, m, n).value <= delta_feasible(inst, m, n).value
        pair_checks += 1
    assert pair_checks == len(rivals) ** 2
    print(
        f"PASS criterion 9: {kernel_checks} transport inputs vs enumeration, "
        f"sensible<=feasible on {pair_checks} matching pairs"
    )


def test_criterion_10_byte_determinism(tmp_path, five_agent_market):
    """Every subcommand produces byte-identical files on identical runs."""
    inst_path = tmp_path / "inst.json"
    crit_inst = generate_random(9, 7, edge_density=0.6, tie_prob=0.0,
                                weight_range=(1, 4), critical_count=1)
    save_instance(crit_inst, str(inst_path))
    fixture_path = tmp_path / "fixture.json"
    save_instance(five_agent_market[0], str(fixture_path))

    runs = {
        "generate": ["generate", "--seed", "13", "--n", "8", "--tie-prob", "0.4",
                     "--gamma-preset", "generic", "--weight-min", "0",
                     "--weight-max", "3"],
        "srti": ["solve-max-srti", "--input", str(inst_path)],
        "pri": ["solve-max-pri", "--input", str(inst_path), "--oracle-bound", "8"],
        "crit": ["solve-pop-crit", "--input", str(inst_path)],
        "maxw": ["solve-pop-maxw", "--input", str(inst_path)],
        "maxw-unit": ["solve-pop-maxw", "--input", str(fixture_path),
                      "--weights", "unit"],
        "bench": ["bench", "--seeds", "5", "--n", "6", "--oracle-bound", "7"],
    }
    gamma_path = tmp_path / "gamma.json"
    assert main(["generate", "--seed", "2", "--n", "6", "--tie-prob", "0.3",
                 "--gamma-preset", "max-like", "--output", str(gamma_path)]) == 0
    runs["gamma"] = ["solve-gamma", "--input", str(gamma_path)]

    for name, argv in runs.items():
        a = tmp_path / f"{name}-a.out"
        b = tmp_path / f"{name}-b.out"
        assert main(argv + ["--output", str(a)]) == 0, name
        assert main(argv + ["--output", str(b)]) == 0, name
        assert a.read_bytes() == b.read_bytes(), name
    print(f"PASS criterion 10: {len(runs)} subcommands byte-deterministic")
