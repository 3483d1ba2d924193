"""Boundary behavior: fractional values, unmatched penalties, isolated agents."""

import re
from fractions import Fraction

import pytest

from halfmatch.core import (
    ONE,
    InstanceError,
    assigned_value,
    blocking_edges,
    validate_instance,
)
from halfmatch.io import parse_instance_text, serialize_instance
from halfmatch.popularity import delta_feasible, is_popular, is_popular_critical
from halfmatch.reductions import build_crit_reduction
from halfmatch.solvers import solve_max_pri, solve_max_srti

from test_popularity import monolithic_feasible_delta

F = Fraction


def test_partially_filled_edge_still_blocks(single_edge):
    # an edge below value 1 blocks when both ends are unsaturated,
    # even when the mass sits on the edge itself
    assert blocking_edges(single_edge, {"e": F(1, 3)}) == ["e"]
    assert blocking_edges(single_edge, {"e": ONE}) == []


def test_negative_unmatched_value():
    inst = validate_instance(
        ["a", "b"],
        [("e", "a", "b")],
        pref={"a": {"e": 0}, "b": {"e": 1}},
        pref_empty={"a": -1},
    )
    # a zero-valued edge is fine once the unmatched value sits below it
    assert assigned_value(inst, "a", {}) == -1
    assert blocking_edges(inst, {}) == ["e"]
    assert solve_max_srti(inst) == {"e": ONE}


def test_positive_unmatched_value_rejected():
    with pytest.raises(Exception, match="<= 0"):
        validate_instance(
            ["a", "b"], [("e", "a", "b")],
            pref={"a": {"e": 1}, "b": {"e": 1}},
            pref_empty={"a": F(1, 2)},
        )


def test_delta_on_truly_fractional_matchings():
    # a degree-six hub pushes the comparison into the general LP kernel
    leaves = [f"x{i}" for i in range(6)]
    inst = validate_instance(
        ["m"] + leaves,
        [(f"e{i}", "m", leaves[i]) for i in range(6)],
        pref={
            "m": {f"e{i}": 6 - i for i in range(6)},
            **{leaves[i]: {f"e{i}": 1} for i in range(6)},
        },
    )
    m = {f"e{i}": F(1, 3) for i in range(3)}
    n = {f"e{i}": F(1, 3) for i in range(3, 6)}
    res = delta_feasible(inst, m, n)
    assert res.value == monolithic_feasible_delta(inst, m, n)
    # m holds the hub's three favourite edges, so the hub prefers it
    assert res.votes["m"] == 1


def test_is_popular_accepts_fractional_candidate(single_edge):
    verdict = is_popular(single_edge, {"e": F(1, 3)})
    assert not verdict.popular
    rival, res = verdict.counterexample
    assert rival == {"e": ONE} and res.value == F(-4, 3)


def test_isolated_vertex_flows_through():
    inst = validate_instance(
        ["a", "b", "loner"],
        [("e", "a", "b")],
        pref={"a": {"e": 1}, "b": {"e": 1}},
    )
    assert solve_max_srti(inst) == {"e": ONE}
    assert solve_max_pri(inst) == {"e": ONE}
    text = serialize_instance(inst)
    again = parse_instance_text(text)
    assert serialize_instance(again) == text
    assert again.incident("loner") == ()


@pytest.mark.parametrize("refuse, message", [
    (lambda inst: is_popular_critical(inst, {}, {"ghost"}),
     "critical set contains unknown vertex 'ghost'"),
    (lambda inst: build_crit_reduction(inst, {"ghost"}),
     "critical set contains unknown vertex 'ghost'"),
    (lambda inst: validate_instance(inst.vertices, inst.edges, inst.pref,
                                    weights={"ghost": 1}),
     "weight for unknown edge 'ghost'"),
    (lambda inst: validate_instance(inst.vertices, inst.edges, inst.pref,
                                    pref_empty={"ghost": 0}),
     "pref_empty for unknown vertex 'ghost'"),
], ids=["is_popular_critical", "build_crit_reduction", "weights", "pref_empty"])
def test_a_name_the_market_lacks_is_refused(single_edge, refuse, message):
    with pytest.raises(InstanceError, match=f"^{re.escape(message)}$"):
        refuse(single_edge)
