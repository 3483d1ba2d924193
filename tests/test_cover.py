from fractions import Fraction

from halfmatch.core import validate_instance
from halfmatch.cover import (
    double_cover,
    max_cardinality_saturating,
    max_weight_cover_matching,
)

from conftest import make_path, make_triangle
from test_core import enumerate_all_halves

F = Fraction


def test_single_edge_cover(single_edge):
    cov = double_cover(single_edge)
    assert [ce.cid for ce in cov.edges] == ["e<", "e>"]
    assert cov.edge("e>").left == "a" and cov.edge("e>").right == "b"
    assert cov.edge("e<").left == "b" and cov.edge("e<").right == "a"


def test_triangle_cover_is_six_cycle():
    cov = double_cover(make_triangle())
    assert len(cov.edges) == 6
    # every plain and primed copy has degree 2: a 6-cycle
    for v in "abc":
        assert sum(1 for ce in cov.edges if ce.left == v) == 2
        assert sum(1 for ce in cov.edges if ce.right == v) == 2


def test_dual_single_edge_weight_four(single_edge):
    cov = double_cover(single_edge)
    res = max_weight_cover_matching(cov, {"e": F(4)})
    assert res.weight == 8  # both cover copies matched
    assert res.matched == {"e>", "e<"}
    assert res.y_left["a"] + res.y_right["a"] == 4
    assert res.y_left["a"] == 4 and res.y_right["a"] == 0


def test_dual_triangle_unit_weights():
    cov = double_cover(make_triangle())
    res = max_weight_cover_matching(cov, {e: F(1) for e in ("ab", "bc", "ca")})
    assert res.weight == 3
    assert len(res.matched) == 3


def test_dual_zero_weight(single_edge):
    cov = double_cover(single_edge)
    res = max_weight_cover_matching(cov, {"e": F(0)})
    assert res.weight == 0 and res.matched == frozenset()
    assert all(y == 0 for y in res.y_left.values())


def test_dual_negative_weight_ignored(single_edge):
    cov = double_cover(single_edge)
    res = max_weight_cover_matching(cov, {"e": F(-3)})
    assert res.weight == 0 and res.matched == frozenset()


def test_dual_parallel_edges():
    inst = validate_instance(
        ["a", "b"],
        [("e1", "a", "b"), ("e2", "a", "b")],
        pref={"a": {"e1": 2, "e2": 1}, "b": {"e1": 1, "e2": 2}},
    )
    cov = double_cover(inst)
    res = max_weight_cover_matching(cov, {"e1": F(2), "e2": F(1)})
    # only the heavy edge is worth matching on both sides
    assert res.weight == 4
    assert {cov.edge(c).origin for c in res.matched} == {"e1"}


def brute_max_weight(inst, weights):
    best = F(0)
    for m in enumerate_all_halves(inst):
        w = sum((weights.get(e, F(0)) * v for e, v in m.items()), F(0))
        best = max(best, w)
    return best


def test_dual_matches_bruteforce_on_small_instances():
    rigged = validate_instance(
        ["a", "b", "c", "d"],
        [("ab", "a", "b"), ("bc", "b", "c"), ("cd", "c", "d"), ("da", "d", "a"),
         ("ac", "a", "c")],
        pref={
            "a": {"ab": 3, "da": 2, "ac": 1},
            "b": {"ab": 2, "bc": 1},
            "c": {"bc": 3, "cd": 2, "ac": 1},
            "d": {"cd": 2, "da": 1},
        },
    )
    weights = {"ab": F(5), "bc": F(4), "cd": F(3), "da": F(3), "ac": F(1)}
    cov = double_cover(rigged)
    res = max_weight_cover_matching(cov, weights)
    # cover optimum is exactly twice the fractional optimum
    assert res.weight == 2 * brute_max_weight(rigged, weights)


def test_saturation_feasibility():
    path = make_path("a")
    cov = double_cover(path)
    assert max_cardinality_saturating(cov, frozenset())
    assert max_cardinality_saturating(cov, frozenset({"b"}))
    assert max_cardinality_saturating(cov, frozenset({"a", "b"}))
    # a and c can both be saturated (ab and bc at once is too much for b,
    # but a needs ab=1 and c needs bc=1, overloading b) -> infeasible
    assert not max_cardinality_saturating(cov, frozenset({"a", "c"}))

    star = validate_instance(
        ["m", "x", "y"],
        [("mx", "m", "x"), ("my", "m", "y")],
        pref={"m": {"mx": 2, "my": 1}, "x": {"mx": 1}, "y": {"my": 1}},
    )
    assert not max_cardinality_saturating(double_cover(star), frozenset({"x", "y"}))
    assert max_cardinality_saturating(double_cover(star), frozenset({"m"}))
