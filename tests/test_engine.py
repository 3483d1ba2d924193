import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import halfmatch
from halfmatch.core import HALF, ONE, blocking_edges, matching_size, validate_instance
from halfmatch.engine import (
    BoundExceeded,
    brute_force_max_stable,
    enumerate_half_matchings,
    iter_stable_half_matchings,
    stable_half_matching,
)
from halfmatch.generate import generate_random

from conftest import make_path

F = Fraction


def test_enumeration_counts(single_edge, cyclic_triangle):
    assert len(list(enumerate_half_matchings(single_edge))) == 3
    two = validate_instance(
        ["a", "b", "c", "d"],
        [("ab", "a", "b"), ("cd", "c", "d")],
        pref={"a": {"ab": 1}, "b": {"ab": 1}, "c": {"cd": 1}, "d": {"cd": 1}},
    )
    assert len(list(enumerate_half_matchings(two))) == 9
    # 27 raw assignments, 11 meet the degree constraints (incl. all-zero)
    assert len(list(enumerate_half_matchings(cyclic_triangle))) == 11


def test_enumeration_bound(cyclic_triangle):
    with pytest.raises(BoundExceeded):
        list(enumerate_half_matchings(cyclic_triangle, bound=2))


def test_bruteforce_single_edge(single_edge):
    size, witness = brute_force_max_stable(single_edge)
    assert size == 1 and witness == {"e": ONE}


def test_bruteforce_triangle(cyclic_triangle):
    size, witness = brute_force_max_stable(cyclic_triangle)
    assert size == F(3, 2)
    assert witness == {"ab": HALF, "bc": HALF, "ca": HALF}
    # and it is the unique stable half-matching
    assert list(iter_stable_half_matchings(cyclic_triangle)) == [witness]


def test_bruteforce_tied_path():
    inst = validate_instance(
        ["a", "b", "c", "d"],
        [("ab", "a", "b"), ("bc", "b", "c"), ("cd", "c", "d")],
        pref={
            "a": {"ab": 1},
            "b": {"ab": 1, "bc": 1},   # tie
            "c": {"bc": 1, "cd": 1},   # tie
            "d": {"cd": 1},
        },
    )
    size, witness = brute_force_max_stable(inst)
    assert size == 2 and witness == {"ab": ONE, "cd": ONE}


def test_engine_single_edge(single_edge):
    cert = stable_half_matching(single_edge)
    assert cert.matching == {"e": ONE}
    assert cert.ones == ("e",) and cert.odd_cycles == ()


def test_engine_triangle(cyclic_triangle):
    cert = stable_half_matching(cyclic_triangle)
    assert cert.matching == {"ab": HALF, "bc": HALF, "ca": HALF}
    assert len(cert.odd_cycles) == 1
    verts, eids = cert.odd_cycles[0]
    assert set(verts) == {"a", "b", "c"} and set(eids) == {"ab", "bc", "ca"}


def test_engine_path():
    cert = stable_half_matching(make_path("a"))
    assert cert.matching == {"ab": ONE}


def test_engine_requires_strict():
    tied = validate_instance(
        ["a", "b", "c"],
        [("ab", "a", "b"), ("bc", "b", "c")],
        pref={"a": {"ab": 1}, "b": {"ab": 1, "bc": 1}, "c": {"bc": 1}},
    )
    with pytest.raises(Exception, match="strict"):
        stable_half_matching(tied)


def test_engine_parallel_edges():
    # two agents with two contracts ranked oppositely: a settled pair
    inst = validate_instance(
        ["a", "b"],
        [("e1", "a", "b"), ("e2", "a", "b")],
        pref={"a": {"e1": 2, "e2": 1}, "b": {"e1": 1, "e2": 2}},
    )
    cert = stable_half_matching(inst)
    assert matching_size(cert.matching) == 1
    assert blocking_edges(inst, cert.matching) == []


def random_strict(seed, n, density=0.6, parallel=0.25):
    return generate_random(
        seed, n, edge_density=density, parallel_prob=parallel, tie_prob=0.0
    )


def test_engine_agrees_with_oracle_on_random_instances():
    checked = 0
    for seed in range(160):
        inst = random_strict(seed, 4 + seed % 4, density=0.45, parallel=0.2)
        if len(inst.edges) > 8:
            continue
        cert = stable_half_matching(inst)
        stable_set = list(iter_stable_half_matchings(inst, bound=8))
        assert cert.matching in stable_set, f"seed {seed}"
        checked += 1
    assert checked >= 60  # enough small instances actually exercised


def test_engine_output_is_stable_on_larger_instances():
    for seed in range(120):
        inst = random_strict(seed, 6 + seed % 7, density=0.5, parallel=0.2)
        cert = stable_half_matching(inst)
        assert blocking_edges(inst, cert.matching) == [], f"seed {seed}"


def test_engine_support_is_pairs_and_odd_cycles_only():
    cycles = 0
    for seed in range(80):
        inst = random_strict(seed, 5 + seed % 6)
        cert = stable_half_matching(inst)
        halves: dict[str, list[str]] = {}  # vertex -> its 1/2-edges
        for eid, val in cert.matching.items():
            if val == HALF:
                e = inst.edge(eid)
                halves.setdefault(e.u, []).append(eid)
                halves.setdefault(e.v, []).append(eid)
        assert all(len(ids) == 2 for ids in halves.values()), (
            f"seed {seed}: engine emitted a half-path"
        )
        seen: set[str] = set()
        for start in halves:
            if start in seen:
                continue
            component, todo = {start}, [start]
            while todo:
                v = todo.pop()
                for eid in halves[v]:
                    x = inst.other(eid, v)
                    if x not in component:
                        component.add(x)
                        todo.append(x)
            seen |= component
            assert len(component) % 2 == 1, f"seed {seed}: even half-cycle survived"
            cycles += 1
    assert cycles >= 5  # enough half-cycles actually exercised


def test_engine_integral_on_bipartite():
    for seed in range(80):
        inst = generate_random(
            seed, 6 + seed % 5, edge_density=0.7, parallel_prob=0.2, bipartite=True
        )
        cert = stable_half_matching(inst)
        assert all(v == ONE for v in cert.matching.values()), f"seed {seed}"


def test_engine_deterministic():
    for seed in (3, 17):
        inst = random_strict(seed, 7)
        again = random_strict(seed, 7)
        assert stable_half_matching(inst).matching == stable_half_matching(again).matching


def test_generator_deterministic_and_tie_free():
    a = generate_random(1, 8, edge_density=0.5, parallel_prob=0.3, tie_prob=0.4)
    b = generate_random(1, 8, edge_density=0.5, parallel_prob=0.3, tie_prob=0.4)
    assert a.edges == b.edges and a.pref == b.pref
    strict = generate_random(2, 8, tie_prob=0.0)
    assert strict.is_strict()


def test_generator_gamma_presets_respect_gap_regimes():
    for seed in range(8):
        close = generate_random(seed, 6, edge_density=0.7, gamma_preset="min-like")
        gap = F(1)  # canonical valuations are integers per tie class
        for gam, delta in (close.gamma or {}).values():
            assert delta - gam < gap / 2
        loose = generate_random(seed, 6, edge_density=0.7, gamma_preset="max-like")
        for gam, delta in (loose.gamma or {}).values():
            assert gam < gap  # any strict improvement clears gamma
        generic = generate_random(seed, 6, edge_density=0.7, gamma_preset="generic")
        for gam, delta in (generic.gamma or {}).values():
            assert 0 < gam < delta


def test_engine_postcondition_raises_under_optimize():
    # python -O strips assert statements; the engine's certificate is the
    # only stability check on a derived market, so it must survive -O
    script = textwrap.dedent("""
        import halfmatch.engine as engine
        from halfmatch import VerificationFailed
        from halfmatch.core import validate_instance

        assert False, "-O must strip this"
        inst = validate_instance(["a", "b"], [("e", "a", "b")],
                                 pref={"a": {"e": 1}, "b": {"e": 1}})
        engine.blocking_edges = lambda *args, **kwargs: ["x"]
        try:
            engine.stable_half_matching(inst)
        except VerificationFailed as exc:
            print("raised:", exc)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(halfmatch.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "raised: engine produced a blocked matching\n"


def test_verification_failed_is_one_class():
    from halfmatch import core, solvers

    assert halfmatch.VerificationFailed is core.VerificationFailed
    assert solvers.VerificationFailed is core.VerificationFailed
