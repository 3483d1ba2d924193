import collections
import dataclasses
import hashlib
import itertools
import json
import operator
import os
import random
import re
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfmatch.core import (
    HALF, ONE, ZERO, InstanceError, MatchingError, VerificationFailed, check_matching, is_saturated,
    matching_size, validate_instance, vertex_load,
)
from halfmatch.engine import enumerate_half_matchings, stable_half_matching
from halfmatch.generate import generate_random
from halfmatch.solvers import solve_max_pri, solve_max_srti
import halfmatch
from halfmatch import cover, popularity, simplex
from halfmatch.popularity import (
    DeltaResult,
    ImbalancedTransport,
    Pairing,
    PopularityVerdict,
    _delta_feasible,
    _feasible_value,
    delta_feasible,
    delta_sensible,
    is_popular,
    is_popular_critical,
    min_cost_transport,
    sample_fractional_matchings,
    vote,
)

from conftest import make_path, make_triangle, sparse
from materialized import (
    _product_value, delta_product, full_critical_verdict, full_half_verdict,
    full_sampled_verdict, is_popular_mixed, looped_product, swept_value,
)

F = Fraction
H = HALF


# -- votes -------------------------------------------------------------------


def test_vote_basics(five_agent_market):
    inst, _, _ = five_agent_market
    assert vote(inst, "u1", "u1w1", "u1w1") == 0
    assert vote(inst, "u1", "u1w1", None) == 1
    assert vote(inst, "u1", None, "u1w1") == -1
    assert vote(inst, "w2", "u2w2", "u3w2") == 1
    assert vote(inst, "w2", "u3w2", "u2w2") == -1
    assert vote(inst, "u1", None, None) == 0


def test_vote_rejects_foreign_edge(five_agent_market):
    inst, _, _ = five_agent_market
    with pytest.raises(InstanceError):
        vote(inst, "u1", "u3w2", None)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_vote_antisymmetry(seed):
    inst = generate_random(seed % 50, 6, edge_density=0.6, tie_prob=0.0)
    for v in inst.vertices:
        items = list(inst.incident(v)) + [None]
        for x, y in itertools.product(items, repeat=2):
            assert vote(inst, v, x, y) == -vote(inst, v, y, x)


# -- transportation kernel ----------------------------------------------------


def test_transport_trivial_cases():
    cost = lambda s, d: -1
    val, plan = min_cost_transport({"a": F(1)}, {"b": F(1)}, cost)
    assert val == -1 and plan == {("a", "b"): F(1)}
    assert min_cost_transport({}, {}, cost) == (ZERO, {})


def test_transport_split_plan():
    costs = {("a", "b"): 1, (None, "b"): -1}
    val, plan = min_cost_transport(
        {"a": H, None: H}, {"b": ONE}, lambda s, d: costs[(s, d)]
    )
    assert val == 0
    assert plan == {("a", "b"): H, (None, "b"): H}


def test_transport_imbalance():
    with pytest.raises(ImbalancedTransport):
        min_cost_transport({"a": F(1)}, {"b": F(2)}, lambda s, d: 0)


def test_transport_negative_mass():
    with pytest.raises(ValueError):
        min_cost_transport({"a": F(-1)}, {"b": F(-1)}, lambda s, d: 0)


def enumerate_basic_plans(supply, demand):
    """All basic feasible plans: forest-supported, solved by leaf elimination."""
    sup = [(k, v) for k, v in supply.items() if v != 0]
    dem = [(k, v) for k, v in demand.items() if v != 0]
    cells = [(s, d) for s, _ in sup for d, _ in dem]
    max_arcs = max(0, len(sup) + len(dem) - 1)
    for size in range(len(cells) + 1):
        if size > max_arcs:
            break
        for subset in itertools.combinations(cells, size):
            plan = _solve_support(subset, dict(sup), dict(dem))
            if plan is not None:
                yield plan


def _solve_support(cells, need_s, need_d):
    active = list(cells)
    plan = {}
    while active:
        for cell in active:
            s, d = cell
            row = [c for c in active if c[0] == s]
            col = [c for c in active if c[1] == d]
            if len(row) == 1 or len(col) == 1:
                amount = need_s[s] if len(row) == 1 else need_d[d]
                if amount < 0:
                    return None
                plan[cell] = amount
                need_s[s] -= amount
                need_d[d] -= amount
                active.remove(cell)
                break
        else:
            return None  # cyclic support: not basic
    if any(v != 0 for v in need_s.values()) or any(v != 0 for v in need_d.values()):
        return None
    if any(v < 0 for v in plan.values()):
        return None
    return plan


def test_transport_matches_plan_enumeration():
    import random as pyrandom

    rng = pyrandom.Random(7)
    for trial in range(60):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        sup = {f"s{i}": F(rng.randint(1, 4), 2) for i in range(r)}
        total = sum(sup.values())
        # split the same total over the demand side
        cuts = sorted(rng.randint(0, int(total * 2)) for _ in range(c - 1))
        parts = []
        prev = 0
        for cut in cuts + [int(total * 2)]:
            parts.append(F(cut - prev, 2))
            prev = cut
        dem = {f"d{j}": parts[j] for j in range(c) if parts[j] != 0}
        if not dem:
            dem = {"d0": total}
        costs = {
            (s, d): rng.choice((-1, 0, 1)) for s in sup for d in dem
        }
        val, plan = min_cost_transport(sup, dem, lambda s, d: costs[(s, d)])
        best = min(
            sum((amt * costs[cell] for cell, amt in basic.items()), ZERO)
            for basic in enumerate_basic_plans(sup, dem)
        )
        assert val == best, f"trial {trial}"
        # the returned plan is itself feasible and achieves the optimum
        assert sum((amt * costs[cell] for cell, amt in plan.items()), ZERO) == val


# -- delta over feasible pairings ---------------------------------------------


def test_delta_self_is_zero(five_agent_market):
    inst, m, _ = five_agent_market
    assert delta_feasible(inst, m, m).value == 0


def test_fixture_delta_matches_published_values(five_agent_market):
    inst, m, rival = five_agent_market
    res = delta_feasible(inst, m, rival)
    assert res.value == F(-1, 2)
    assert res.votes == {
        "u1": F(-1, 2), "w1": F(-1, 2),
        "u2": F(1, 2), "w2": F(1, 2),
        "u3": F(-1, 2),
    }
    # the witness pairing is forced here: each agent pairs its surplus edge
    assert res.pairing.phi["u1"] == {("u1w2", "u1w1"): H}
    assert res.pairing.phi["u3"] == {(None, "u3w2"): H}


def test_delta_saturated_vs_empty(single_edge):
    res = delta_feasible(single_edge, {"e": ONE}, {})
    assert res.value == 2  # both endpoints prefer e to nothing


def monolithic_feasible_delta(inst, m, n):
    """Independent route: one LP per vertex over all pairing variables."""
    total = ZERO
    for v in inst.vertices:
        items = list(inst.incident(v)) + [None]
        cells = [(x, y) for x in items for y in items]
        idx = {cell: j for j, cell in enumerate(cells)}
        rows, rhs = [], []
        up = {e: max(m.get(e, ZERO) - n.get(e, ZERO), ZERO) for e in inst.incident(v)}
        down = {e: max(n.get(e, ZERO) - m.get(e, ZERO), ZERO) for e in inst.incident(v)}
        load_m, load_n = vertex_load(inst, m, v), vertex_load(inst, n, v)
        for e in inst.incident(v):
            row = [ZERO] * len(cells)
            for y in items:
                row[idx[(e, y)]] = ONE
            rows.append(row)
            rhs.append(up[e])
            col = [ZERO] * len(cells)
            for x in items:
                col[idx[(x, e)]] = ONE
            rows.append(col)
            rhs.append(down[e])
        empty_col = [ZERO] * len(cells)
        for x in items:
            empty_col[idx[(x, None)]] = ONE
        rows.append(empty_col)
        rhs.append(max(load_m - load_n, ZERO))
        empty_row = [ZERO] * len(cells)
        for y in items:
            empty_row[idx[(None, y)]] = ONE
        rows.append(empty_row)
        rhs.append(max(load_n - load_m, ZERO))
        costs = [F(vote(inst, v, x, y)) for x, y in cells]
        _, val = simplex.solve_min(costs, sparse(rows), rhs)
        total += val
    return total


def test_delta_decomposition_matches_monolithic_lp():
    insts = [make_triangle(), make_path("a"),
             generate_random(3, 5, edge_density=0.6, tie_prob=0.0)]
    for inst in insts:
        if len(inst.edges) > 6:
            continue
        rivals = list(enumerate_half_matchings(inst, bound=6))
        for m in rivals[:: max(1, len(rivals) // 8)]:
            for n in rivals[:: max(1, len(rivals) // 8)]:
                assert delta_feasible(inst, m, n).value == monolithic_feasible_delta(
                    inst, m, n
                )


# -- delta over sensible pairings ----------------------------------------------


def test_sensible_at_most_feasible(five_agent_market):
    inst, m, rival = five_agent_market
    assert delta_sensible(inst, m, rival).value <= F(-1, 2)


def test_sensible_leq_feasible_on_enumerated_pairs():
    inst = make_path("a")
    rivals = list(enumerate_half_matchings(inst))
    for m in rivals:
        for n in rivals:
            ds = delta_sensible(inst, m, n).value
            df = delta_feasible(inst, m, n).value
            assert ds <= df


def test_sensible_integral_self_is_zero(single_edge):
    assert delta_sensible(single_edge, {"e": ONE}, {"e": ONE}).value == 0


def test_sensible_refuses_oversized_programs():
    # the limit sizes the program, so it refuses only an unforced comparison:
    # the empty matchings, whole everywhere, build none and are compared at
    # any size, while one triangle held at 1/2 by both sides needs the program
    from halfmatch.engine import BoundExceeded

    big = generate_random(0, 40, edge_density=0.6, tie_prob=0.0)
    assert delta_sensible(big, {}, {}).value == 0
    ends = {frozenset((e.u, e.v)): e.eid for e in big.edges}
    triangle = next(t for t in itertools.combinations(big.vertices, 3)
                    if all(frozenset(p) in ends for p in itertools.combinations(t, 2)))
    cycle = {ends[frozenset(p)]: H for p in itertools.combinations(triangle, 2)}
    with pytest.raises(BoundExceeded, match="sensible-pairing program"):
        delta_sensible(big, cycle, cycle)


def test_forced_sensible_comparisons_at_scale():
    # at n = 400 every program is far over the limit, but pri's and srti's
    # outputs leave each vertex whole for one of them, so both comparisons
    # are forced; at a vertex whole for one side the feasible comparison is
    # the product comparison too, so the two values are equal
    for seed in range(10):
        inst = generate_random(seed, 400, edge_density=6 / 399, parallel_prob=0.1)
        p, a = solve_max_pri(inst), solve_max_srti(inst)
        for m, n in ((p, a), (a, p)):
            assert delta_sensible(inst, m, n).value == delta_feasible(inst, m, n).value, seed


def test_sensible_witness_satisfies_marginals(five_agent_market):
    inst, m, rival = five_agent_market
    res = delta_sensible(inst, m, rival)
    for v in inst.vertices:
        phi = res.pairing.phi[v]
        for e in inst.incident(v):
            row = sum((val for (x, y), val in phi.items() if x == e), ZERO)
            col = sum((val for (x, y), val in phi.items() if y == e), ZERO)
            assert row == m.get(e, ZERO) and col == rival.get(e, ZERO)
    # shared diagonals agree across endpoints by construction
    for e in inst.edges:
        a = res.pairing.phi[e.u].get((e.eid, e.eid), ZERO)
        b = res.pairing.phi[e.v].get((e.eid, e.eid), ZERO)
        assert a == b


def test_forced_sensible_pairings_equal_the_simplex(monkeypatch):
    # where each vertex is whole for m or for n the program's one feasible
    # point is the product pairing, read off with no program built; the
    # simplex on the same program must give the same value, pairing and
    # votes, each mapping in the same insertion order. Each market is also
    # taken with staying unmatched valued below 0 at every other vertex, and
    # that vertex's valuations shifted so that its last edge is valued 0:
    # the closed form reads pref_empty where the program calls vote(), and
    # only there would reading 0 for staying unmatched tie that edge
    solved, entries = [], []
    real_solve, real_entries = simplex.solve_min, popularity._product_entries
    monkeypatch.setattr(simplex, "solve_min",
                        lambda *args: solved.append(real_solve(*args)) or solved[-1])
    monkeypatch.setattr(popularity, "_product_entries",
                        lambda *args: entries.append(real_entries(*args)) or entries[-1])
    forced = mixed = unforced = lowered = 0
    for seed, inst, picked in _whole_sweep():
        rivals = list(enumerate_half_matchings(inst, bound=10))
        pairs = list(itertools.product([m for ms in picked.values() for m in ms][::3],
                                       rivals[:: max(1, len(rivals) // 6)] + picked["sampled"][:1]))
        # and up to 8 pairs where neither side is whole everywhere, yet each
        # vertex is whole on one side
        whole = [popularity._whole(inst, n) for n in rivals]
        pairs += itertools.islice(
            ((rivals[a], rivals[b]) for a, b in itertools.permutations(range(len(rivals)), 2)
             if not (all(whole[a]) or all(whole[b]))
             and all(map(operator.or_, whole[a], whole[b]))), 8)
        lowered_at = inst.vertices[::2]
        low = validate_instance(inst.vertices, inst.edges, {
            v: {e: x - min(p.values()) for e, x in p.items()} if v in lowered_at else p
            for v, p in inst.pref.items()
        }, pref_empty={v: F(-1 - i, 3) for i, v in enumerate(lowered_at)})
        for market, (m, n) in itertools.product((inst, low), pairs):
            wm, wn = popularity._whole(market, m), popularity._whole(market, n)
            del solved[:], entries[:]
            got = delta_sensible(market, m, n)
            if not all(map(operator.or_, wm, wn)):
                assert len(solved) == 1 and not entries
                unforced += 1
                continue
            assert not solved and len(entries) == len(market.vertices)
            with monkeypatch.context() as patch:
                patch.setattr(popularity, "_whole", lambda inst, g: [False] * len(inst.vertices))
                want = delta_sensible(market, m, n)
            assert len(solved) == 1 and got.value == solved[0][1]
            assert got == want, (seed, market is low, m, n)
            for v in market.vertices:
                assert list(got.pairing.phi[v].items()) == list(want.pairing.phi[v].items())
            assert list(got.votes.items()) == list(want.votes.items())
            forced += 1
            mixed += not (all(wm) or all(wn))
            lowered += market is low
    assert forced >= 1200 and mixed >= 300 and unforced >= 600 and lowered >= 600, (
        forced, mixed, unforced, lowered)


def test_a_wrong_forced_pairing_is_refused():
    # the forced pairing is checked before it is used: an entry off its row
    # fails; so does a negative one, moved round a cycle of entries so that
    # every row and column still balances; and so does a diagonal that
    # differs at its two ends. The check raises, so it holds under python -O
    script = textwrap.dedent("""
        from halfmatch import popularity
        from halfmatch.core import VerificationFailed
        from halfmatch.generate import generate_random
        from halfmatch.solvers import solve_max_pri, solve_max_srti

        def off_row(got, x, y, k):
            got[x, y] += 1
            return x != y

        def negative(got, a, b, k):  # (a, b) moves round (a, -), (-, -), (-, b)
            if None in (a, b) or a == b:
                return False
            got[a, b] -= k
            got[a, None] = got.get((a, None), 0) + k
            got[None, b] = got.get((None, b), 0) + k
            got[None, None] = got.get((None, None), 0) - k
            return True

        def diagonal(got, x, y, k):
            got[x, y] += 1
            return x == y

        inst = generate_random(1003, 7, edge_density=0.35, parallel_prob=0.1)
        m, n = solve_max_pri(inst), solve_max_srti(inst)
        real = popularity._product_entries
        for edit in (off_row, negative, diagonal):
            done = []

            def entries(mass_m, mass_n, edit=edit, done=done):
                got = real(mass_m, mass_n)
                for (x, y), k in got.items():
                    wrong = dict(got)
                    if not done and edit(wrong, x, y, k):
                        done.append((x, y))
                        return wrong
                return got

            popularity._product_entries = entries
            try:
                popularity.delta_sensible(inst, m, n)
            except VerificationFailed as exc:
                print(edit.__name__, done, exc)
            else:
                print(edit.__name__, done, "accepted")
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(halfmatch.__file__)))
    refused = "the product pairing is negative or misses a row of the sensible program"
    for flags in ([], ["-O"]):
        run = subprocess.run([sys.executable, *flags, "-c", script],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        lines = run.stdout.splitlines()
        assert [line.split(" ", 1)[0] for line in lines] == ["off_row", "negative", "diagonal"]
        for line in lines:
            assert line.endswith(refused) and "[]" not in line, (flags, line)


# -- product pairing ------------------------------------------------------------


def test_product_pairing_fixture(five_agent_market):
    inst, m, rival = five_agent_market
    assert delta_product(inst, m, rival) == 0


def test_comparisons_share_one_input_rule():
    # an overloaded rival and an unknown edge id: delta_product used to
    # return -8 and 6 where the other two comparisons raise
    inst = generate_random(5, 6, edge_density=0.5)
    m = solve_max_pri(inst)
    for rival in ({e.eid: ONE for e in inst.edges}, {"nope": ONE}):
        for compare in (delta_feasible, delta_sensible, delta_product):
            with pytest.raises(MatchingError):
                compare(inst, m, rival)
            with pytest.raises(MatchingError):
                compare(inst, rival, m)
    tied = generate_random(5, 6, edge_density=0.5, tie_prob=0.9)
    for compare in (delta_feasible, delta_sensible, delta_product):
        with pytest.raises(InstanceError, match="strict"):
            compare(tied, {}, {"nope": ONE})  # strictness is checked first


# -- popularity verdicts ---------------------------------------------------------


def test_fixture_popularity_verdicts(five_agent_market):
    inst, m, rival = five_agent_market
    verdict = is_popular(inst, m)
    assert not verdict.popular
    assert verdict.worst_value == F(-1, 2)
    counter_n, counter_delta = verdict.counterexample
    assert counter_n == rival
    assert counter_delta.value == F(-1, 2)

    mixed = is_popular_mixed(inst, m)
    assert mixed.popular and mixed.worst_value >= 0


def test_single_edge_verdicts(single_edge):
    assert is_popular(single_edge, {"e": ONE}).popular
    assert is_popular_mixed(single_edge, {"e": ONE}).popular
    empty = is_popular(single_edge, {})
    assert not empty.popular and empty.worst_value == -2
    assert not is_popular_mixed(single_edge, {}).popular


def test_path_popular_matching():
    inst = make_path("a")
    verdict = is_popular(inst, {"ab": ONE})
    assert verdict.popular


def test_popular_critical_cases():
    inst = make_path("a")
    # b prefers a, but c is critical: {bc} is popular among critical rivals
    verdict = is_popular_critical(inst, {"bc": ONE}, {"c"})
    assert verdict.popular
    with pytest.raises(InstanceError, match="saturate"):
        is_popular_critical(inst, {"ab": ONE}, {"c"})
    # empty critical set degenerates to plain popularity
    both = is_popular_critical(inst, {"ab": ONE}, frozenset())
    plain = is_popular(inst, {"ab": ONE})
    assert both.popular == plain.popular and both.checked == plain.checked


def test_a_critical_refusal_names_the_least_vertex_whatever_the_hash_seed():
    """An unknown critical vertex is refused first, as the crit reduction
    refuses it, and then the least vertex m leaves unsaturated is named,
    whatever order the hash seed gives the critical set."""
    script = textwrap.dedent("""
        from halfmatch.core import InstanceError
        from halfmatch.generate import generate_random
        from halfmatch.popularity import is_popular_critical

        inst = generate_random(1, 6, edge_density=0.6)
        for crit in (frozenset(inst.vertices) | {"zz", "zb", "zc"}, frozenset(inst.vertices)):
            try:
                is_popular_critical(inst, {}, crit)
            except InstanceError as exc:
                print(exc)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(halfmatch.__file__)))
    outs = []
    for hash_seed in ("1", "3"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert outs[0] == outs[1] == (
        "critical set contains unknown vertex 'zb'\n"
        "matching does not saturate critical vertex 'v00'\n"
    )


def test_stable_integral_matchings_are_popular_on_bipartite():
    checked = 0
    for seed in range(40):
        inst = generate_random(
            seed, 6, edge_density=0.6, parallel_prob=0.0, tie_prob=0.0,
            bipartite=True,
        )
        if len(inst.edges) > 8 or not inst.edges:
            continue
        cert = stable_half_matching(inst)
        assert is_popular(inst, cert.matching, bound=8).popular, f"seed {seed}"
        checked += 1
    assert checked >= 15


def test_an_unknown_scope_is_refused_before_any_rival_is_enumerated(monkeypatch,
                                                                     single_edge):
    big = generate_random(0, 10, edge_density=0.5)
    assert len(big.edges) == 21  # past the default bound of 10 edges
    with pytest.raises(ValueError, match="unknown popularity scope 'bogus'"):
        is_popular(big, {}, scope="bogus")

    def refuse(inst, bound):
        raise AssertionError("rivals enumerated before the scope was checked")

    monkeypatch.setattr(popularity, "_Assignments", refuse)
    with pytest.raises(ValueError, match="unknown popularity scope 'bogus'"):
        is_popular(single_edge, {"e": ONE}, scope="bogus")


def test_sampled_scope_runs(five_agent_market):
    inst, m, _ = five_agent_market
    verdict = is_popular(inst, m, scope="sampled", samples=25, seed=3)
    assert not verdict.popular  # half-integral rivals already beat m
    for n in sample_fractional_matchings(inst, seed=9, count=10):
        for v in inst.vertices:
            assert vertex_load(inst, n, v) <= 1


def test_an_overloaded_sample_is_refused(monkeypatch, five_agent_market):
    # caps of 16 whatever the loads: within ten samples some vertex draws
    # more than 16 in all, and the integer load check raises, not asserts
    inst, m, _ = five_agent_market
    monkeypatch.setattr(popularity, "_cap", lambda load: [16 for _ in load])
    with pytest.raises(MatchingError, match="sampled rival overloads vertex"):
        sample_fractional_matchings(inst, seed=9, count=10)
    with pytest.raises(MatchingError, match="sampled rival overloads vertex"):
        is_popular(inst, m, scope="sampled", seed=9)


def _overloads(inst, seed, count):
    """Each sample in which some vertex draws more than 16 in all, as the
    pair (sample index, its overloaded vertex of least index)."""
    rng = random.Random(f"halfmatch-sample-{seed}")
    found = []
    for k in range(count):
        load = [0] * len(inst.vertices)
        for e in inst.edges:
            raw = rng.randint(0, 16)
            load[inst.index(e.u)] += raw
            load[inst.index(e.v)] += raw
        found += [(k, x) for x, total in enumerate(load) if total > 16][:1]
    return found


def test_an_overloaded_sample_names_its_least_vertex(monkeypatch):
    # with every cap 16 the refusal names the vertex a per-sample check
    # meets first: the first overloaded sample, then its least vertex
    # index, though a later sample may overload a vertex of smaller index
    monkeypatch.setattr(popularity, "_cap", lambda load: [16 for _ in load])
    later = smaller_later = clean = 0
    for seed in range(60):
        inst = generate_random(seed, 4 + seed % 5, edge_density=0.3, parallel_prob=0.1)
        found = _overloads(inst, seed, 6)
        if not found:
            assert len(sample_fractional_matchings(inst, seed=seed, count=6)) == 6
            clean += 1
            continue
        (k, x), rest = found[0], found[1:]
        with pytest.raises(MatchingError) as info:
            sample_fractional_matchings(inst, seed=seed, count=6)
        assert str(info.value) == f"sampled rival overloads vertex {inst.vertices[x]!r}", seed
        later += k > 0
        smaller_later += any(y < x for _, y in rest)
    assert later >= 5 and smaller_later >= 5 and clean >= 3, (later, smaller_later, clean)


def test_a_negative_sample_count_is_refused(five_agent_market):
    # a count of 0 samples nothing: the half scope's rivals, worst and witness
    inst, m, _ = five_agent_market
    with pytest.raises(ValueError, match="sample count -3 is negative"):
        is_popular(inst, m, scope="sampled", samples=-3)
    edgeless = validate_instance(["a", "b"], [], {"a": {}, "b": {}})
    for market in (inst, edgeless):
        with pytest.raises(ValueError, match="sample count -1 is negative"):
            sample_fractional_matchings(market, seed=0, count=-1)
    none = is_popular(inst, m, scope="sampled", samples=0)
    half = is_popular(inst, m)
    assert none.checked == half.checked and none.worst_value == half.worst_value
    assert none.counterexample == half.counterexample


def test_a_sample_count_that_is_not_an_int_is_refused(monkeypatch, five_agent_market):
    # one TypeError naming the count, on a market with edges and on an
    # edgeless one alike, before anything is enumerated or drawn; a bool
    # is no count either
    inst, m, _ = five_agent_market
    edgeless = validate_instance(["a", "b"], [], {"a": {}, "b": {}})

    def untouched(*args):
        raise AssertionError("a rival was enumerated or drawn")

    for name in ("_Assignments", "_draws", "_sampled"):
        monkeypatch.setattr(popularity, name, untouched)
    for count in (2.0, True, False, F(2), "2", None):
        message = f"^{re.escape(f'sample count {count!r} is not an int')}$"
        for market, matching in ((inst, m), (edgeless, {})):
            with pytest.raises(TypeError, match=message):
                is_popular(market, matching, scope="sampled", samples=count)
            with pytest.raises(TypeError, match=message):
                sample_fractional_matchings(market, seed=0, count=count)


def test_the_sampler_on_edgeless_markets_and_isolated_vertices():
    # no edge: count empty rivals over 1; an isolated vertex has load 0 and
    # changes no cap; a count of 0 yields nothing
    edgeless = validate_instance(["a", "b"], [], {"a": {}, "b": {}})
    assert list(popularity._sampled(edgeless, 3, 4)) == [((), 1)] * 4
    assert sample_fractional_matchings(edgeless, seed=3, count=2) == [{}, {}]
    assert is_popular(edgeless, {}, scope="sampled", samples=5).checked == 6
    lonely = validate_instance(
        ["a", "b", "c", "d"], [("e", "a", "b"), ("f", "a", "b"), ("g", "b", "d")],
        {"a": {"e": 2, "f": 1}, "b": {"e": 1, "f": 2, "g": 3}, "c": {}, "d": {"g": 1}},
    )
    for seed in range(20):
        got = sample_fractional_matchings(lonely, seed=seed, count=15)
        assert [list(n.items()) for n in got] == [
            list(n.items()) for n in _fraction_sampler(lonely, seed, 15)
        ]
    for inst in (edgeless, lonely):
        assert list(popularity._sampled(inst, 0, 0)) == []
        assert sample_fractional_matchings(inst, seed=0, count=0) == []


def _scan_rivals(inst, crit, seed):
    """The rivals the verdicts scan, in scan order: every enumerated one,
    the critical-filtered ones, then 20 sampled ones."""
    yield from popularity._enumerated(inst, 10)
    yield from popularity._enumerated(inst, 10, crit)
    yield from popularity._sampled(inst, seed, 20)


def test_incremental_values_equal_a_full_sweep():
    # one closure values every rival a verdict scans, the enumerator's list
    # read in place, then the same rivals shuffled, some twice in a row (once
    # as a copy of another type) and enumerated ones after sampled ones, so
    # that d changes; each value must be a fresh closure's and the sweep of
    # every vertex row's, the reference kept in tests/materialized.py
    rng = random.Random(36)
    values = repeats = after_sampled = 0
    desk = ((seed, generate_random(seed, 7, edge_density=0.35, parallel_prob=0.1))
            for seed in range(1000, 1030))
    markets = [*_oracle_markets(range(30), max_edges=10),
               *((seed, inst) for seed, inst in desk if 0 < len(inst.edges) <= 10)]
    for seed, inst in markets:
        crit = [0, len(inst.vertices) - 1]
        for m in [solve_max_pri(inst), *sample_fractional_matchings(inst, seed=seed, count=2)]:
            value, want = _feasible_value(inst, m), swept_value(inst, m)

            def check(held, d):
                assert value(held, d) == _feasible_value(inst, m)(held, d) == want(held, d), (
                    seed, m, held, d)

            for held, d in _scan_rivals(inst, crit, seed):
                check(held, d)
                values += 1
            rivals = [(list(held), d) for held, d in _scan_rivals(inst, crit, seed)]
            rng.shuffle(rivals)
            last_d = None
            for held, d in rivals:
                check(held, d)
                after_sampled += d == 2 and last_d not in (None, 2)
                if rng.random() < 0.2:
                    check(tuple(held) if rng.random() < 0.5 else held, d)
                    repeats += 1
                last_d = d
                values += 1
    assert values >= 30_000 and repeats >= 3000 and after_sampled >= 1000, (
        values, repeats, after_sampled)


def _whole_sweep():
    """Markets of 5-7 vertices and at most 10 edges, parallel edges among
    them, every third with an isolated vertex z added; for each, matchings
    by kind: integral, half-integral with and without a whole vertex
    (one edge at 1, or no mass), with explicit zero entries, and sampled."""
    for seed in range(60):
        inst = generate_random(seed, 5 + seed % 3, edge_density=0.4, parallel_prob=0.3)
        if not 0 < len(inst.edges) <= 10:
            continue
        if seed % 3 == 0:
            inst = validate_instance([*inst.vertices, "z"], inst.edges, {**inst.pref, "z": {}})
        kinds = {"integral": [solve_max_pri(inst)], "whole": [], "split": []}
        for m in enumerate_half_matchings(inst, bound=10):
            kind = ("integral" if all(val == 1 for val in m.values())
                    else "whole" if any(popularity._whole(inst, m)) else "split")
            kinds[kind].append(m)
        picked = {kind: ms[:: max(1, len(ms) // 3)][:3] for kind, ms in kinds.items()}
        zeros = {e.eid: ZERO for e in inst.edges}
        picked["zeros"] = [{**zeros, **m} for m in picked["integral"][:1] + picked["whole"][:1]]
        picked["sampled"] = sample_fractional_matchings(inst, seed=seed, count=2)
        yield seed, inst, picked


def test_whole_vertices_value_rivals_as_the_full_sweep():
    # the closure values whole vertices by one weight per edge and sweeps
    # the others; on every rival a verdict scans, in scan order, its (t, D)
    # must be the pair sweeping every vertex row gives
    counts = dict.fromkeys(["integral", "whole", "split", "zeros", "sampled"], 0)
    values = lonely = parallel = 0
    for seed, inst, picked in _whole_sweep():
        crit = [0, len(inst.vertices) - 1]
        for kind, ms in picked.items():
            for m in ms:
                value, want = _feasible_value(inst, m), swept_value(inst, m)
                for held, d in _scan_rivals(inst, crit, seed):
                    assert value(held, d) == want(held, d), (seed, m, held, d)
                    values += 1
                counts[kind] += 1
        lonely += any(not inst.incident(v) for v in inst.vertices)
        parallel += len({frozenset((e.u, e.v)) for e in inst.edges}) < len(inst.edges)
    assert min(counts.values()) >= 10, counts
    assert values >= 50_000 and lonely >= 10 and parallel >= 20, (values, lonely, parallel)


def test_the_half_scope_misses_a_quarter_rival_of_a_half_integral_matching():
    # M is half-integral, so its vote mass is not linear in the rival: the
    # half-integral vertices of the polytope all tie or lose to it, but a
    # quarter-integral rival beats it, and so does a sampled one
    inst = generate_random(443, 5, edge_density=0.5)
    assert len(inst.edges) == 7
    m = {eid: H for eid in ("e000", "e001", "e002", "e005", "e006")}
    verdict = is_popular(inst, m, bound=8)
    assert verdict.popular and verdict.worst_value == 0 and verdict.checked == 125
    n = {"e001": ONE, "e002": F(1, 4), "e003": F(1, 4), "e005": F(3, 4)}
    assert delta_feasible(inst, m, n).value == F(-1, 2)
    sampled = is_popular(inst, m, bound=8, scope="sampled")
    assert not sampled.popular and sampled.worst_value == F(-1, 10)


# -- integer values and the verdict scan against the Fraction path ----------------


def _oracle_markets(seeds, max_edges):
    """Strict markets with parallel edges; every other one values staying
    unmatched below zero at half of its vertices."""
    for seed in seeds:
        inst = generate_random(seed, 3 + seed % 4, edge_density=0.6, parallel_prob=0.4)
        if seed % 2:
            inst = validate_instance(
                inst.vertices, inst.edges, inst.pref,
                pref_empty={v: F(-1 - i, 3) for i, v in enumerate(inst.vertices[::2])},
            )
        if 0 < len(inst.edges) <= max_edges:
            yield seed, inst


def _as_ints(inst, n):
    """n's masses as ints by edge rank over the lcm d of their denominators, and d."""
    d = lcm(*(val.denominator for val in n.values()))
    return [int(n.get(e.eid, 0) * d) for e in inst.edges], d


def test_integer_value_equals_the_transport_value(monkeypatch):
    # fractional M from the sampler sends the Fraction path through the
    # two-row closed form and the simplex, not only the one-sided plans;
    # the product comparison's integer value is checked on the same pairs
    calls = {"_two_row_transport": 0, "_simplex_transport": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(popularity, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(popularity, name, counted)
    pairs = parallel = negative = 0
    for seed, inst in _oracle_markets(range(90), max_edges=6):
        rivals = list(enumerate_half_matchings(inst, bound=6))
        sampled = sample_fractional_matchings(inst, seed=seed, count=12)
        mine = rivals[:: max(1, len(rivals) // 6)] + sampled[:6]
        theirs = rivals[:: max(1, len(rivals) // 20)] + sampled[6:]
        for m in mine:
            value, product = _feasible_value(inst, m), _product_value(inst, m)
            for n in theirs:
                got = Fraction(*value(*_as_ints(inst, n)))
                assert type(got) is Fraction
                assert got == _delta_feasible(inst, m, n).value, (seed, m, n)
                got = Fraction(*product(*_as_ints(inst, n)))
                assert got == looped_product(inst, m, n), (seed, m, n)
                pairs += 1
        parallel += len({frozenset((e.u, e.v)) for e in inst.edges}) < len(inst.edges)
        negative += any(p < 0 for p in inst.pref_empty.values())
    assert pairs >= 5000 and parallel >= 10 and negative >= 10
    assert all(count >= 50 for count in calls.values()), calls


def _fraction_sampler(inst, seed, count):
    """The sampler as it was written on Fractions: raw/16 capped by 1/load."""
    rng = random.Random(f"halfmatch-sample-{seed}")
    out = []
    for _ in range(count):
        raw = {e.eid: Fraction(rng.randint(0, 16), 16) for e in inst.edges}
        loads = {
            v: sum((raw[eid] for eid in inst.incident(v)), ZERO)
            for v in inst.vertices
        }
        scaled = {}
        for e in inst.edges:
            cap = min(
                ONE,
                *(ONE / loads[x] for x in (e.u, e.v) if loads[x] > 1),
            ) if (loads[e.u] > 1 or loads[e.v] > 1) else ONE
            val = raw[e.eid] * cap
            if val:
                scaled[e.eid] = val
        check_matching(inst, scaled)
        out.append(scaled)
    return out


def test_sampler_matches_the_fraction_sampler():
    for seed in range(40):
        inst = generate_random(seed, 3 + seed % 6, edge_density=0.7, parallel_prob=0.3)
        got = sample_fractional_matchings(inst, seed=seed, count=30)
        want = _fraction_sampler(inst, seed, 30)
        assert [list(n.items()) for n in got] == [list(n.items()) for n in want]
        assert all(type(val) is Fraction for n in got for val in n.values())


def test_sampler_draws_are_randint_draws():
    """The sampler's bulk draws take the bits ``randint(0, 16)`` takes, on
    the seeds the verdicts and the tests give it: the same values, and the
    generator left in the same state."""
    for seed in range(50):
        mine, ref = (random.Random(f"halfmatch-sample-{seed}") for _ in range(2))
        for count in (1, 17, 1400):
            draws = popularity._draws(mine, count)
            assert list(draws) == [ref.randint(0, 16) for _ in range(count)]
            assert mine.getstate() == ref.getstate()


def _canonical_key(n):
    """The tie key the verdict scan once made for each tied rival, after
    its size: n's nonzero (edge id, mass) pairs, sorted."""
    return tuple(sorted((eid, val) for eid, val in n.items() if val != 0))


def _oracle_scan(rivals, compare, scope):
    """The verdict scan that builds every rival's full comparison."""
    worst = None
    for checked, rival in enumerate(rivals, 1):
        result = compare(rival)
        key = (result.value, -matching_size(rival), _canonical_key(rival))
        if worst is None or key < worst[0]:
            worst = (key, dict(rival), result)
    if worst is None:
        return PopularityVerdict(True, scope, 0, ZERO, None)
    (value, _, _), rival, result = worst
    counter = (rival, result) if value < 0 else None
    return PopularityVerdict(value >= 0, scope, checked, value, counter)


def _oracle_verdicts(inst, m, bound, seed):
    feasible = lambda n: _delta_feasible(inst, m, n)
    rivals = list(enumerate_half_matchings(inst, bound))
    sampled = rivals + _fraction_sampler(inst, seed, 20)
    crit = [v for v in inst.vertices if is_saturated(inst, m, v)][:2]
    return [
        _oracle_scan(rivals, feasible, "popular (half-integral scope)"),
        _oracle_scan(sampled, feasible, "popular (sampled scope)"),
        _oracle_scan(
            rivals,
            lambda n: DeltaResult(looped_product(inst, m, n), Pairing("product", {}), {}),
            "popular mixed",
        ),
        _oracle_scan(
            [n for n in rivals if all(is_saturated(inst, n, v) for v in crit)],
            feasible, "popular among critical (half-integral scope)",
        ),
    ]


def test_verdicts_match_the_per_rival_scan():
    beaten = [0, 0, 0, 0]
    for seed, inst in _oracle_markets(range(40), max_edges=6):
        rivals = list(enumerate_half_matchings(inst, bound=6))
        mine = rivals[:: max(1, len(rivals) // 3)] + sample_fractional_matchings(
            inst, seed=seed, count=1
        )
        for m in mine:
            crit = [v for v in inst.vertices if is_saturated(inst, m, v)][:2]
            got = [
                is_popular(inst, m, bound=6),
                is_popular(inst, m, bound=6, scope="sampled", samples=20, seed=seed),
                is_popular_mixed(inst, m, bound=6),
                is_popular_critical(inst, m, crit, bound=6),
            ]
            want = _oracle_verdicts(inst, m, 6, seed)
            assert _plain(got) == _plain(want), (seed, m)
            beaten = [b + (not v.popular) for b, v in zip(beaten, want)]
    assert min(beaten) >= 20, beaten


def _out_of_order(inst, rng):
    """inst renamed and listed out of order: its vertex list not in name
    order, and its edges listed out of id order under ids such as "b",
    "a10" and "a9", which sort by text, not by number."""
    pool = ["b", "a10", "a9", "a1", "a11", "a2", "a19", "a3"]
    eids = dict(zip((e.eid for e in inst.edges), rng.sample(pool, len(inst.edges))))
    names = dict(zip(inst.vertices, rng.sample([f"w{k}" for k in range(12)], len(inst.vertices))))
    vertices = sorted(names.values(), reverse=True)
    edges = sorted(((eids[e.eid], names[e.u], names[e.v]) for e in inst.edges), reverse=True)
    pref = {names[v]: {eids[eid]: p for eid, p in row.items()} for v, row in inst.pref.items()}
    pref_empty = {names[v]: p for v, p in inst.pref_empty.items()}
    return validate_instance(vertices, edges, pref, pref_empty=pref_empty)


def test_verdicts_and_samples_hold_on_markets_built_out_of_order():
    # the scan reads rivals by edge rank and saturation by vertex index:
    # neither may lean on the vertex or edge list being given in order
    rng = random.Random(30)
    beaten = [0, 0, 0, 0]
    markets = 0
    for seed, base in _oracle_markets(range(30), max_edges=6):
        inst = _out_of_order(base, rng)
        assert list(inst.vertices) == sorted(inst.vertices, reverse=True)
        by_number = sorted(inst._rank, key=lambda eid: (eid[0], int(eid[1:] or 0)))
        markets += by_number != [e.eid for e in inst.edges]
        samples = sample_fractional_matchings(inst, seed=seed, count=20)
        fraction_form = _fraction_sampler(inst, seed, 20)
        assert [list(n.items()) for n in samples] == [list(n.items()) for n in fraction_form]
        rivals = list(enumerate_half_matchings(inst, bound=6))
        for m in rivals[:: max(1, len(rivals) // 3)] + samples[:1]:
            crit = [v for v in inst.vertices if is_saturated(inst, m, v)][:2]
            verdicts = [
                is_popular(inst, m, bound=6),
                is_popular(inst, m, bound=6, scope="sampled", samples=20, seed=seed),
                is_popular_mixed(inst, m, bound=6),
                is_popular_critical(inst, m, crit, bound=6),
            ]
            want = _oracle_verdicts(inst, m, 6, seed)
            assert _plain(verdicts) == _plain(want), (seed, m)
            beaten = [b + (not v.popular) for b, v in zip(beaten, want)]
    assert markets >= 5 and min(beaten) >= 10, (markets, beaten)


def _sampled_candidates(inst, m, samples, seed):
    """The rivals whose value ties or beats every rival scanned before them:
    how many in all, and how many of them are sampled."""
    rivals = list(enumerate_half_matchings(inst, 10))
    first = len(rivals)
    rivals += sample_fractional_matchings(inst, seed=seed, count=samples)
    worst, count, sampled = None, 0, 0
    for i, n in enumerate(rivals):
        value = _delta_feasible(inst, m, n).value
        if worst is None or value <= worst:
            worst = value
            count += 1
            sampled += i >= first
    return count, sampled


@pytest.mark.parametrize("market", ["single_edge", "five_agent_market"])
def test_a_sampled_verdict_stays_on_integers(monkeypatch, request, market):
    # single edge: m holds e at 1/2, so its samples are scanned, and those
    # with raw 16 tie the worst value, -1, of e at 1, and are ordered in ints;
    # five agents: half-integral rivals beat m, one pairing is built. Either
    # way the final worst alone gets a Fraction form
    if market == "single_edge":
        inst, m = request.getfixturevalue(market), {"e": HALF}
    else:
        inst, m, _ = request.getfixturevalue(market)
    candidates, sampled = _sampled_candidates(inst, m, 200, seed=4)
    want = is_popular(inst, m, scope="sampled", seed=4)
    calls = {"check_matching": [], "_delta_feasible": [], "_fractions": []}
    for name, seen in calls.items():
        def counted(*args, _seen=seen, _f=getattr(popularity, name, None)):
            _seen.append(args)
            return _f(*args)
        monkeypatch.setattr(popularity, name, counted, raising=False)
    got = is_popular(inst, m, scope="sampled", seed=4)
    assert _plain(got) == _plain(want)
    assert [args[1] for args in calls["check_matching"]] == [m]
    assert len(calls["_delta_feasible"]) == (not want.popular)
    assert len(calls["_fractions"]) == 1 < candidates
    assert sampled >= 5 if market == "single_edge" else sampled == 0


def test_tied_rivals_keep_the_fraction_order():
    # every ordered pair of rivals of one value on the seed-1 desk-audit
    # markets (the first 20 of each of 6, 7 and 8 edges from seed 1000 on),
    # against pri's output as the audit scans them: enumerated over d = 2
    # and sampled over the lcm of their caps. The integer comparison puts
    # them in the order of the Fraction key (-size, canonical key)
    need = {6: 20, 7: 20, 8: 20}
    pairs = mixed = sizes_tie = 0
    for seed in itertools.count(1000):
        if not any(need.values()):
            break
        inst = generate_random(seed, 7, edge_density=0.35, parallel_prob=0.1)
        if not need.get(len(inst.edges)):
            continue
        need[len(inst.edges)] -= 1
        value = _feasible_value(inst, solve_max_pri(inst))
        rivals = [(list(held), d) for held, d in popularity._enumerated(inst, 10)]
        rivals += popularity._sampled(inst, 0, 200)
        groups = {}
        for held, d in rivals:
            n = popularity._fractions(inst, held, d)
            key = (-matching_size(n), _canonical_key(n))
            groups.setdefault(Fraction(*value(held, d)), []).append((held, d, key))
        for group in groups.values():
            for (a, da, ka), (b, db, kb) in itertools.permutations(group, 2):
                assert popularity._precedes(a, da, b, db) == (ka < kb), (seed, a, da, b, db)
                pairs += 1
                mixed += da != db
                sizes_tie += ka[0] == kb[0]
    assert pairs >= 300_000 and mixed >= 10_000 and sizes_tie >= 100_000, (pairs, mixed, sizes_tie)


# -- golden pin ----------------------------------------------------------------


def _plain(x):
    """A JSON-ready copy that keeps iteration order and tells ints from Fractions."""
    if isinstance(x, Fraction):
        return f"F{x}"
    if isinstance(x, dict):
        return [[_plain(k), _plain(v)] for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return [_plain(y) for y in x]
    if dataclasses.is_dataclass(x):
        return [_plain(getattr(x, f.name)) for f in dataclasses.fields(x)]
    return x


def test_comparisons_and_verdicts_match_the_golden_digest():
    # values, votes and pairings of the three comparisons, every field of
    # the three verdicts and transport plans up to 4x4, as computed before
    # the comparison layer valued staying unmatched by pref_empty
    digest = hashlib.sha256()
    put = lambda obj: digest.update(json.dumps(_plain(obj)).encode())
    for seed in range(40):
        inst = generate_random(seed, 3 + seed % 3, edge_density=0.5, parallel_prob=0.3)
        if seed % 2:  # staying unmatched valued below zero at every other vertex
            inst = validate_instance(
                inst.vertices, inst.edges, inst.pref,
                pref_empty={v: F(-1 - i, 2) for i, v in enumerate(inst.vertices[::2])},
            )
        if len(inst.edges) > 6:
            continue
        rivals = list(enumerate_half_matchings(inst, bound=6))
        mine = rivals[:: max(1, len(rivals) // 3)]
        for m in mine:
            for n in rivals[:: max(1, len(rivals) // 5)]:
                put(delta_feasible(inst, m, n))
                put(delta_sensible(inst, m, n))
                put(delta_product(inst, m, n))
        for m in mine[:2] + [stable_half_matching(inst).matching]:
            saturated = [v for v in inst.vertices if vertex_load(inst, m, v) == 1]
            put(is_popular(inst, m, bound=6))
            put(is_popular(inst, m, bound=6, scope="sampled", samples=4, seed=seed))
            put(is_popular_mixed(inst, m, bound=6))
            put(is_popular_critical(inst, m, saturated[:2], bound=6))
    rng = random.Random(11)
    items = ["a", "b", None, "c"]
    for _ in range(300):
        sup = {k: F(rng.randint(1, 4), 2) for k in rng.sample(items, rng.randint(1, 4))}
        halves = int(sum(sup.values()) * 2)
        cuts = sorted(rng.randint(0, halves) for _ in range(rng.randint(0, 3)))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [halves])]
        dem = {k: F(p, 2) for k, p in zip(rng.sample(items, len(parts)), parts)}
        costs = {(s, d): rng.choice((-1, 0, 1, F(1, 2))) for s in sup for d in dem}
        put(min_cost_transport(sup, dem, lambda s, d: costs[(s, d)]))
    assert digest.hexdigest() == (
        "0e8fbff029466b256cea48c9ec0e041634167ddd83f8063f9d4b79588c88ba64"
    )


def _star(leaves):
    """A centre c with one edge to each of ``leaves`` leaves, ranked in leaf order."""
    edges = [(f"c{i}", "c", f"l{i}") for i in range(leaves)]
    pref = {"c": {eid: leaves - i for i, (eid, _, _) in enumerate(edges)}}
    pref.update({v: {eid: 1} for eid, _, v in edges})
    return validate_instance(["c"] + [v for _, _, v in edges], edges, pref)


def test_desk_comparisons_match_the_golden_digest(monkeypatch):
    # values, pairings and votes of delta_sensible and delta_feasible on the
    # seed-1 desk-audit markets (the first 20 of each of 6, 7 and 8 edges
    # from seed 1000 on) and the first ten of 9 or 10 edges: pri against
    # srti in both orders and against 5 sampled fractional rivals; then a
    # star whose centre moves 3 surplus items onto 3 demand items, so its
    # feasible transport runs on the simplex
    digest = hashlib.sha256()
    put = lambda obj: digest.update(json.dumps(_plain(obj)).encode())
    need, large, markets = {6: 20, 7: 20, 8: 20}, 0, 0
    for seed in itertools.count(1000):
        if large == 10 and not any(need.values()):
            break
        inst = generate_random(seed, 7, edge_density=0.35, parallel_prob=0.1)
        k = len(inst.edges)
        if need.get(k):
            need[k] -= 1
        elif k in (9, 10) and large < 10:
            large += 1
        else:
            continue
        markets += 1
        a, p = solve_max_srti(inst), solve_max_pri(inst)
        for m, n in [(p, a), (a, p)] + [(p, n) for n in sample_fractional_matchings(inst, seed, 5)]:
            put(delta_sensible(inst, m, n))
            put(delta_feasible(inst, m, n))
    assert markets == 70

    simplex_calls = []
    real = popularity._simplex_transport
    monkeypatch.setattr(popularity, "_simplex_transport",
                        lambda *args: simplex_calls.append(args) or real(*args))
    inst = _star(6)
    m = {"c0": F(1, 4), "c1": F(1, 4), "c2": F(1, 4)}
    n = {"c3": F(1, 4), "c4": F(1, 4), "c5": F(1, 4), "c0": F(0)}
    for pair in [(m, n), (n, m)]:
        put(delta_feasible(inst, *pair))
        put(delta_sensible(inst, *pair))
    assert [(len(sup), len(dem)) for sup, dem, _ in simplex_calls] == [(3, 3), (3, 3)]
    assert digest.hexdigest() == (
        "a2ce2335a0a7a6c07d5b90a20ca9912e02f55c4cbbeb0c16cdd8ec4ff223b758"
    )


def _desk_markets():
    """The seed-1 desk-audit markets: the first 20 of each of 6, 7 and 8
    edges among ``generate_random(s, 7, edge_density=0.35,
    parallel_prob=0.1)`` from s = 1000 on."""
    need = {6: 20, 7: 20, 8: 20}
    for seed in itertools.count(1000):
        if not any(need.values()):
            return
        inst = generate_random(seed, 7, edge_density=0.35, parallel_prob=0.1)
        if need.get(len(inst.edges)):
            need[len(inst.edges)] -= 1
            yield inst


def test_samples_and_sampled_verdicts_match_the_golden_digest():
    # every rival the sampler yields, as (masses by edge rank, d) with ints
    # and sequences told apart, for seeds 0, 1 and 7 and counts 0, 1, 50 and
    # 200: on the desk markets, then on 200 markets of 3 to 14 vertices,
    # parallel edges, isolated vertices and edgeless ones among them; then
    # every field of the sampled verdict on pri's output at each desk market
    desk = list(_desk_markets())
    spread = [generate_random(s, 3 + s % 12, edge_density=(0.05, 0.2, 0.4, 0.7, 1.0)[s % 5],
                              parallel_prob=0.3) for s in range(200)]
    digest = hashlib.sha256()
    for inst in desk + spread:
        for seed in (0, 1, 7):
            for count in (0, 1, 50, 200):
                got = list(popularity._sampled(inst, seed, count))
                assert len(got) == count
                assert all(type(d) is int and all(type(x) is int for x in held)
                           for held, d in got)
                digest.update(json.dumps([[list(held), d] for held, d in got]).encode())
    for inst in desk:
        put = _plain(is_popular(inst, solve_max_pri(inst), bound=10, scope="sampled"))
        digest.update(json.dumps(put).encode())
    parallel = sum(len({frozenset((e.u, e.v)) for e in g.edges}) < len(g.edges) for g in spread)
    isolated = sum(any(not g.incident(v) for v in g.vertices) for g in spread)
    edgeless = sum(not g.edges for g in spread)
    assert len(desk) == 60 and parallel >= 50 and isolated >= 30 and edgeless >= 3, (
        parallel, isolated, edgeless)
    assert digest.hexdigest() == (
        "b550db7e0e797b8efe8f0ceea4afb0fed331daf2372221aed6359e31f61767c9"
    )


# -- samples settled by the half scope ------------------------------------------


def _integral(inst, rng):
    """A random integral matching: edges in random order, each taken with
    probability 0.7 while both of its ends are free."""
    free, m = set(inst.vertices), {}
    for e in rng.sample(inst.edges, len(inst.edges)):
        if e.u in free and e.v in free and rng.random() < 0.7:
            free -= {e.u, e.v}
            m[e.eid] = ONE
    return m


def test_sampled_verdicts_equal_the_full_scan():
    # an integral m that the enumerated rivals leave popular draws no
    # sample; every sampled verdict still equals one scan of every
    # enumerated rival and then every sample. On the markets of at most 7
    # edges among 400 seeds: pri's and srti's outputs, two random integral
    # matchings and a random half-integral one, for sample seeds 0, 1 and 7
    tally = collections.Counter()
    for s in range(400):
        inst = generate_random(s, 3 + s % 5, edge_density=(0.3, 0.6, 0.9)[s % 3],
                               parallel_prob=0.3)
        if len(inst.edges) > 7:
            continue
        rng = random.Random(s)
        halves = [m for m in enumerate_half_matchings(inst, 7) if H in m.values()]
        matchings = [solve_max_pri(inst), solve_max_srti(inst), _integral(inst, rng),
                     _integral(inst, rng)] + rng.sample(halves, min(1, len(halves)))
        for m in matchings:
            for seed in (0, 1, 7):
                got = is_popular(inst, m, scope="sampled", seed=seed)
                assert got == full_sampled_verdict(inst, m, seed=seed), (s, m, seed)
                tally[set(m.values()) <= {ONE}, got.popular] += 1
        tally["parallel"] += len({frozenset((e.u, e.v)) for e in inst.edges}) < len(inst.edges)
        tally["isolated"] += any(not inst.incident(v) for v in inst.vertices)
    assert sum(tally[k] for k in itertools.product((True, False), repeat=2)) >= 2000, tally
    assert min(tally[k] for k in itertools.product((True, False), repeat=2)) >= 150, tally
    assert tally["parallel"] >= 100 and tally["isolated"] >= 50, tally


def _refuse_draws(rng, n):
    raise RuntimeError("samples drawn")


def test_an_integral_popular_matching_draws_no_sample(monkeypatch):
    # generate --seed 3 --n 7 --edge-density 0.4: pri's output is integral
    # and popular, so the sampled verdict is the half verdict with the
    # samples counted; seed 7's output is half-integral, and an unpopular
    # integral matching goes on into the samples too
    whole = generate_random(3, 7, edge_density=0.4)
    m = solve_max_pri(whole)
    assert set(m.values()) == {ONE}
    half = is_popular(whole, m, scope="half")
    monkeypatch.setattr(popularity, "_draws", _refuse_draws)
    assert half.popular
    assert is_popular(whole, m, scope="sampled", samples=0) == dataclasses.replace(
        half, scope=popularity.SCOPES["sampled"])
    for count in (1, 200, 10**6):
        assert is_popular(whole, m, scope="sampled", samples=count) == dataclasses.replace(
            half, scope=popularity.SCOPES["sampled"], checked=half.checked + count)
    split = generate_random(7, 7, edge_density=0.4)
    tie = generate_random(26, 6, edge_density=0.5)
    for inst, n in ((split, solve_max_pri(split)), (tie, {"e001": ONE})):
        assert H in n.values() or not is_popular(inst, n).popular
        with pytest.raises(RuntimeError, match="samples drawn"):
            is_popular(inst, n, scope="sampled")


def test_a_tied_sample_moves_an_unpopular_integral_counterexample():
    # samples never move an integral matching's popular flag or worst
    # value, but against an unpopular one a fractional rival of the same
    # value and size that sorts first becomes the counterexample, so only
    # a popular integral matching is settled without its samples
    inst = generate_random(26, 6, edge_density=0.5)
    m = {"e001": ONE}
    half, sampled = is_popular(inst, m), is_popular(inst, m, scope="sampled", seed=0)
    assert (half.popular, half.worst_value) == (sampled.popular, sampled.worst_value) == (False, -1)
    assert half.counterexample[0] == {"e000": H, "e002": H}
    assert sampled.counterexample[0] == {"e000": F(1, 9), "e002": F(8, 9)}
    assert sampled == full_sampled_verdict(inst, m, seed=0)


# -- integral verdicts settled by one dual ----------------------------------------


def _dual_sweep():
    """(kind, seed, market, matching): the golden sweep's markets and
    matchings, then seeded markets of at most 9 edges, strict, with parallel
    edges, staying unmatched valued below zero at every other one, each
    with pri's and srti's outputs, two random integral matchings, the empty
    one and one half-integral one."""
    for seed in range(40):  # the golden digest's markets and matchings
        inst = generate_random(seed, 3 + seed % 3, edge_density=0.5, parallel_prob=0.3)
        if seed % 2:
            inst = validate_instance(
                inst.vertices, inst.edges, inst.pref,
                pref_empty={v: F(-1 - i, 2) for i, v in enumerate(inst.vertices[::2])})
        if len(inst.edges) > 6:
            continue
        rivals = list(enumerate_half_matchings(inst, bound=6))
        for m in rivals[:: max(1, len(rivals) // 3)][:2] + [stable_half_matching(inst).matching]:
            yield "golden", seed, inst, m
    for seed in range(260):
        inst = generate_random(seed, 4 + seed % 4, edge_density=(0.35, 0.5, 0.7)[seed % 3],
                               parallel_prob=0.2)
        if seed % 2:
            inst = validate_instance(
                inst.vertices, inst.edges, inst.pref,
                pref_empty={v: F(-1 - i, 3) for i, v in enumerate(inst.vertices[::2])})
        if not 0 < len(inst.edges) <= 9:
            continue
        rng = random.Random(seed)
        halves = [m for m in enumerate_half_matchings(inst, 9) if H in m.values()]
        for m in [solve_max_pri(inst), solve_max_srti(inst), _integral(inst, rng),
                  _integral(inst, rng), {}] + rng.sample(halves, min(1, len(halves))):
            yield "seeded", seed, inst, m


def _sweep_verdicts(inst, m, seed, bound):
    """The half, sampled and critical verdicts on m, and their full scans;
    the critical set is the first two vertices m saturates."""
    crit = [v for v in inst.vertices if is_saturated(inst, m, v)][:2]
    got = [is_popular(inst, m, bound=bound),
           is_popular(inst, m, bound=bound, scope="sampled", samples=20, seed=seed),
           is_popular_critical(inst, m, crit, bound=bound)]
    want = [full_half_verdict(inst, m, bound),
            full_sampled_verdict(inst, m, bound, samples=20, seed=seed),
            full_critical_verdict(inst, m, crit, bound)]
    return got, want


def test_the_dual_settles_verdicts_as_the_full_scan():
    # every field of each verdict equals one scan of every rival: where an
    # integral matching is proved popular by the dual (its rivals counted,
    # none valued) and where it is not (unpopular, or half-integral)
    tally = collections.Counter()
    for kind, seed, inst, m in _dual_sweep():
        got, want = _sweep_verdicts(inst, m, seed, 9)
        assert got == want, (kind, seed, m)
        whole = all(val.denominator == 1 for val in m.values())
        for verdict in want:
            tally[kind, whole, verdict.popular] += 1
        tally["below zero"] += len(want) * any(x < 0 for x in inst.pref_empty.values())
    seeded = [tally["seeded", w, p] for w in (True, False) for p in (True, False)]
    assert sum(seeded) >= 2000 and min(seeded[:2]) >= 500 and sum(seeded[2:]) >= 300, tally
    assert tally["golden", True, True] >= 50 and tally["below zero"] >= 900, tally


def _refuse_values(inst, m):
    raise RuntimeError("a rival was valued")


def test_a_popular_integral_verdict_values_no_rival(monkeypatch):
    # with the rival valuation made to raise, every verdict on a popular
    # integral matching still returns, equal to the full scan; seed 26's
    # unpopular integral matching and seed 7's half-integral pri output
    # are scanned, so their verdicts raise
    popular = []
    for _, seed, inst, m in _dual_sweep():
        if all(val.denominator == 1 for val in m.values()):
            want = _sweep_verdicts(inst, m, seed, 9)[1]
            if all(v.popular for v in want):
                popular.append((inst, m, seed, want))
    split = generate_random(7, 7, edge_density=0.4)
    scanned = [(generate_random(26, 6, edge_density=0.5), {"e001": ONE}),
               (split, solve_max_pri(split))]
    monkeypatch.setattr(popularity, "_feasible_value", _refuse_values)
    for inst, m, seed, want in popular:
        assert _sweep_verdicts(inst, m, seed, 9)[0] == want
    for inst, m in scanned:
        with pytest.raises(RuntimeError, match="a rival was valued"):
            is_popular(inst, m)
    assert len(popular) >= 300, len(popular)


def test_a_tampered_dual_fails_the_one_pass_check(monkeypatch):
    # generate --seed 0 --n 7 --edge-density 0.3: pri's output is integral
    # and popular, and twice the dual's potentials prove it, summing to the
    # cap 2K, K the 6 matched vertices. Raising one potential breaks the sum,
    # moving a unit off a tight edge's end onto the isolated vertex breaks
    # that edge, and the isolated vertex at -1 breaks y >= 0, each alone.
    # A kernel returning any of them makes the dual refuse, not answer
    inst = generate_random(0, 7, edge_density=0.3)
    m = solve_max_pri(inst)
    seen, real = [], cover._hungarian
    monkeypatch.setattr(cover, "_hungarian",
                        lambda *args: seen.append((args, real(*args))) or seen[-1][1])
    assert popularity.dual_worst(inst, m) == (0, m) and set(m.values()) == {ONE}
    (n, tail, _, w2, _, _), (y_left, y_right, mate) = seen[0]
    k = len(tail) // 2
    eu, ev, w = tail[:k], tail[k:], w2[:k]
    y = list(map(operator.add, y_left, y_right))
    cap = 2 * 2 * len(m)
    isolated = [x for x in range(n) if x not in eu + ev]
    tight = [i for i in range(k) if w[i] > 0 and y[eu[i]] + y[ev[i]] == 2 * w[i] and y_left[eu[i]]]

    def holds(y):  # the three conditions, each alone
        return (min(y) >= 0, all(y[a] + y[b] >= 2 * x for a, b, x in zip(eu, ev, w)),
                sum(y) <= cap)

    assert all(holds(y)) and sum(y) == cap and isolated and tight
    z, u = isolated[0], eu[tight[0]]
    tampered = {"sum": ({0: 1}, "witness weight differs"),
                "edge": ({u: -1, z: 1}, "dual infeasible at edge"),
                "sign": ({z: -1}, "negative dual potential")}
    for broken, (shift, message) in tampered.items():
        left = [x + shift.get(v, 0) for v, x in enumerate(y_left)]
        bad = list(map(operator.add, left, y_right))
        assert holds(bad) == tuple(what != broken for what in ("sign", "edge", "sum")), broken
        monkeypatch.setattr(cover, "_hungarian", lambda *args: (left, y_right, mate))
        with pytest.raises(VerificationFailed, match=message):
            popularity.dual_worst(inst, m)


def test_a_witness_that_leaves_a_critical_vertex_open_fails(monkeypatch):
    # on generate --seed 0 --n 5 --edge-density 0.5, m = {e005} (v02-v03) is
    # unpopular among the rivals saturating v02 (worst -3), so no cap settles
    # it and the dual's witness must saturate v02. A kernel that keeps the
    # potentials but drops every mate at v02 loads no vertex past 2 and
    # leaves v02 open, and the dual refuses
    inst = generate_random(0, 5, edge_density=0.5)
    m, crit = {"e005": ONE}, ["v02"]
    worst, rival = popularity.dual_worst(inst, m, crit)
    assert worst == -3 and rival["e005"] == ONE
    real, x = cover._hungarian, inst.index("v02")

    def forged(n, tail, head, *rest):
        y_left, y_right, mate = real(n, tail, head, *rest)
        return y_left, y_right, [None if c is not None and x in (tail[c], head[c]) else c
                                 for c in mate]

    monkeypatch.setattr(cover, "_hungarian", forged)
    with pytest.raises(VerificationFailed, match="witness leaves a vertex to saturate open"):
        popularity.dual_worst(inst, m, crit)


def _best_time(call, repeat=3):
    """The least wall time of ``repeat`` calls, and the last call's result."""
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        out = call()
        spent = time.perf_counter() - start
        best = spent if best is None else min(best, spent)
    return best, out


def test_the_dual_checks_pri_at_n_400_for_less_than_the_solves():
    # generate_random(seed, 400, edge_density=d / 399, parallel_prob=0.1),
    # seeds 0-9, d = 2.5 and 6: pri's output is integral on 12 of the 20
    # strict markets, and the dual proves each popular, at any size. The
    # 12 checks together take less time than the 12 solves that gave them
    # (each the best of 3 runs)
    solves = checks = 0
    popular = []
    for d in (2.5, 6):
        for seed in range(10):
            inst = generate_random(seed, 400, edge_density=d / 399, parallel_prob=0.1)
            spent, m = _best_time(lambda: solve_max_pri(inst))
            if set(m.values()) == {ONE}:
                solves += spent
                spent, (worst, rival) = _best_time(lambda: popularity.dual_worst(inst, m))
                checks += spent
                popular.append((d, seed, worst == 0 and rival == m))
    assert [(d, seed) for d, seed, _ in popular] == [
        (2.5, 0), (2.5, 3), (2.5, 4), (2.5, 5), (2.5, 6), (2.5, 9),
        (6, 0), (6, 2), (6, 4), (6, 5), (6, 6), (6, 7)]
    assert all(ok for _, _, ok in popular)
    assert checks < solves, (checks, solves)


def test_the_dual_on_a_keep_mask_is_the_scan_on_the_sub_market():
    # maximum-weight rivals are the critical ones on the dual's tight edges:
    # on weighted markets of at most 9 edges, every integral maximum-weight
    # matching that saturates the dual's critical set gets, from the dual
    # with the tight edges as a keep mask, the worst value that one scan of
    # the sub-market's saturating rivals finds, and a rival of that value
    from halfmatch.solvers import max_weight_dual, restrict_to_edges
    tally = collections.Counter()
    for seed in range(300):
        inst = generate_random(seed, 5 + seed % 4, edge_density=0.5,
                               weight_range=((1, 4), (1, 1), (2, 9))[seed % 3])
        if not 0 < len(inst.edges) <= 9:
            continue
        dual = max_weight_dual(inst, inst.weights)
        tight = set(dual.tight_edges)
        keep = [e.eid in tight for e in inst.edges]
        sub = restrict_to_edges(inst, tight)
        for m in enumerate_half_matchings(inst, 9):
            weight = sum(inst.weights[eid] * val for eid, val in m.items())
            if (H in m.values() or weight != dual.objective
                    or not all(is_saturated(inst, m, v) for v in dual.critical)):
                continue
            worst, rival = popularity.dual_worst(inst, m, dual.critical, keep)
            assert worst == full_critical_verdict(sub, m, dual.critical, 9).worst_value
            assert delta_feasible(sub, m, rival).value == worst
            assert all(is_saturated(inst, rival, v) for v in dual.critical)
            tally[worst == 0] += 1
    assert tally[True] >= 120 and tally[False] >= 50, tally
    inst = generate_random(3, 8, edge_density=0.5, weight_range=(1, 4))
    with pytest.raises(ValueError, match="keep must hold one flag per edge"):
        popularity.dual_worst(inst, {"e000": ONE}, keep=[False] * 8)
    with pytest.raises(ValueError, match="keep must hold one flag per edge"):
        popularity.dual_worst(inst, {"e000": ONE}, keep=[True] * 7)
    with pytest.raises(InstanceError, match="^keep holds 'no', which is not a bool$"):
        popularity.dual_worst(inst, {"e000": ONE}, keep=["no"] * 8)
    with pytest.raises(ValueError, match="integral matching only"):
        popularity.dual_worst(inst, {"e000": H})
