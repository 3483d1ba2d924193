import random
from fractions import Fraction
from math import lcm

import pytest

from halfmatch import cover as cover_module
from halfmatch.core import ZERO, VerificationFailed, validate_instance
from halfmatch.cover import (
    CoverMatchingResult,
    double_cover,
    max_cardinality_saturating,
    max_weight_cover_matching,
)
from halfmatch.generate import generate_random

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


# -- the Fraction kernel as the oracle -----------------------------------------


def _fraction_phase(root, arcs, tail, head, w, y_left, y_right, mate_left, mate_right):
    """The Hungarian phase in ``Fraction`` arithmetic: the oracle for the
    integer kernel."""
    lefts = [root]
    entry = {}
    slack = {}
    new = root
    while True:
        if new is not None:
            for c in arcs[new]:
                r = head[c]
                if r not in entry:
                    key = (y_left[new] + y_right[r] - w[c], c)
                    if r not in slack or key < slack[r]:
                        slack[r] = key
            new = None
        ready = [r for r, (gap, _) in slack.items() if gap == 0]
        if ready:
            r = min(ready)
            entry[r] = slack.pop(r)[1]
            c = mate_right[r]
            if c is None:
                break
            if y_left[tail[c]] == 0:
                mate_left[tail[c]] = mate_right[r] = None
                break
            new = tail[c]
            lefts.append(new)
            continue
        bound = min(y_left[u] for u in lefts)
        delta = min([gap for gap, _ in slack.values()] + [bound])
        if delta > 0:
            for u in lefts:
                y_left[u] -= delta
            for r in entry:
                y_right[r] += delta
            for r, (gap, c) in slack.items():
                slack[r] = (gap - delta, c)
        zeroed = [u for u in lefts if y_left[u] == 0]
        if zeroed:
            u = min(zeroed)
            if u == root:
                return
            r = head[mate_left[u]]
            mate_left[u] = mate_right[r] = None
            break
    while True:
        c = entry[r]
        old = mate_left[tail[c]]
        mate_left[tail[c]] = mate_right[r] = c
        if old is None:
            return
        r = head[old]


def fraction_cover_matching(cover, weights):
    """:func:`max_weight_cover_matching` with every value a ``Fraction``."""
    verts = cover.inst.vertices
    rank = {v: i for i, v in enumerate(sorted(verts))}
    n = len(verts)
    tail = [rank[ce.left] for ce in cover.edges]
    head = [rank[ce.right] for ce in cover.edges]
    w = [F(weights.get(ce.origin, ZERO)) for ce in cover.edges]
    arcs = [[] for _ in range(n)]
    for c, u in enumerate(tail):
        if w[c] > 0:
            arcs[u].append(c)
    y_left = [max((w[c] for c in arcs[u]), default=ZERO) for u in range(n)]
    y_right = [ZERO] * n
    mate_left = [None] * n
    mate_right = [None] * n
    for v in verts:
        u = rank[v]
        if y_left[u] > 0 and mate_left[u] is None:
            _fraction_phase(u, arcs, tail, head, w, y_left, y_right, mate_left, mate_right)
    matched = [c for c in mate_left if c is not None]
    return CoverMatchingResult(
        matched=frozenset(cover.edges[c].cid for c in matched),
        y_left={v: y_left[rank[v]] for v in verts},
        y_right={v: y_right[rank[v]] for v in verts},
        weight=sum((w[c] for c in matched), ZERO),
    )


def fraction_saturating(cover, required):
    """:func:`max_cardinality_saturating` on the ``Fraction`` kernel."""
    weights = {}
    for e in cover.inst.edges:
        w = (e.u in required) + (e.v in required)
        if w:
            weights[e.eid] = F(w)
    return fraction_cover_matching(cover, weights).weight == 2 * len(required)


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def oracle_markets():
    """Seeded markets with parallel edges, each with weights that are
    integral, rational over small or distinct prime denominators (so the
    lcm is large), negative, zero or missing."""
    for seed in range(48):
        rng = random.Random(seed)
        inst = generate_random(seed, 3 + seed % 10, edge_density=0.6, parallel_prob=0.3)
        kind = seed % 4
        weights = {}
        primes = rng.sample(_PRIMES, len(_PRIMES))
        for i, e in enumerate(inst.edges):
            if kind == 0:
                weights[e.eid] = F(rng.randint(1, 9))
            elif kind == 1:
                weights[e.eid] = F(rng.randint(1, 200), primes[i % len(primes)])
            elif kind == 2:
                weights[e.eid] = F(rng.randint(-4, 4), rng.choice((1, 2, 3, 5)))
            elif rng.random() < 0.6:  # the rest are missing
                weights[e.eid] = F(rng.randint(0, 5), rng.choice((1, 7, 9)))
        yield inst, weights, rng


def assert_same_fractions(got, want):
    assert got == want
    for a, b in zip(got.values(), want.values()):
        assert type(a) is Fraction and a == b


def test_kernel_equals_the_fraction_oracle():
    scales = []
    for inst, weights, _ in oracle_markets():
        cov = double_cover(inst)
        # int weights give the values their Fractions give
        ints = {eid: w.numerator for eid, w in weights.items() if w.denominator == 1}
        for ws in (weights, ints):
            got = max_weight_cover_matching(cov, ws)
            want = fraction_cover_matching(cov, ws)
            assert got.matched == want.matched
            assert list(got.y_left) == list(want.y_left)
            assert list(got.y_right) == list(want.y_right)
            assert_same_fractions(got.y_left, want.y_left)
            assert_same_fractions(got.y_right, want.y_right)
            assert type(got.weight) is Fraction and got.weight == want.weight
        scales.append(lcm(*(w.denominator for w in weights.values())))
    assert max(scales) > 10**12  # distinct prime denominators make L large


def test_saturation_verdicts_equal_the_fraction_oracle():
    verdicts = []
    for inst, _, rng in oracle_markets():
        cov = double_cover(inst)
        names = sorted(inst.vertices)
        for k in (1, 2, 3, len(names) // 2, len(names)):
            required = frozenset(rng.sample(names, k))
            got = max_cardinality_saturating(cov, required)
            assert got is fraction_saturating(cov, required)
            verdicts.append(got)
    assert True in verdicts and False in verdicts


def _unmatched_zero(root, arcs, tail, head, w, y_left, y_right, mate_left, mate_right):
    y_left[root] = 0


def _matched_slack(root, arcs, tail, head, w, y_left, y_right, mate_left, mate_right):
    c = arcs[root][0]
    mate_left[root] = mate_right[head[c]] = c
    y_right[head[c]] += 1


def _matched_negative(root, arcs, tail, head, w, y_left, y_right, mate_left, mate_right):
    c = arcs[root][0]
    mate_left[root] = mate_right[head[c]] = c
    y_left[root] += 1
    y_right[head[c]] -= 1


def _does_nothing(root, arcs, tail, head, w, y_left, y_right, mate_left, mate_right):
    pass


@pytest.mark.parametrize("phase, message", [
    (_unmatched_zero, "cover dual infeasible at"),
    (_matched_slack, "is slack"),
    (_matched_negative, "negative cover potential"),
    (_does_nothing, "positive potential on an unmatched cover vertex"),
])
def test_a_broken_kernel_fails_a_postcondition(monkeypatch, single_edge, phase, message):
    # the checks raise, so they hold under python -O too
    monkeypatch.setattr(cover_module, "_phase", phase)
    with pytest.raises(VerificationFailed, match=message):
        max_weight_cover_matching(double_cover(single_edge), {"e": F(4, 3)})
