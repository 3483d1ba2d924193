import hashlib
import json
import random
from fractions import Fraction
from collections import Counter
from itertools import accumulate, repeat
from operator import attrgetter

import pytest

from halfmatch.core import (
    HALF,
    ONE,
    InstanceError,
    MatchingError,
    VerificationFailed,
    saturated_vertices,
    validate_instance,
)
from halfmatch.engine import CopyMarket, StablePartitionCert, stable_half_matching
from halfmatch.generate import generate_random
from halfmatch.reductions import (
    build_crit_reduction,
    build_gamma_reduction,
    build_pri_reduction,
    build_srti_reduction,
)
from halfmatch.solvers import max_weight_dual, restrict_to_edges, solve_pop_maxw

import materialized
from conftest import make_triangle, rational_market
from materialized import lower_endpoint, materialize, strict_instance

F = Fraction


def derived_order(der, v):
    market = der.inst
    return [market.copy_id(c) for c in market.orders[der.origin.index(v)]]


def origin_of(der):
    """Each copy id's origin edge id."""
    market = der.inst
    return {market.copy_id(c): market.labels[market.origin[c]] for c in market.edges}


def copies(der, eid):
    return sorted(c for c, origin in origin_of(der).items() if origin == eid)


def cert_of(der, halves):
    """A certificate of der's market giving each named copy its halves."""
    index = {der.inst.copy_id(c): c for c in der.inst.edges}
    return StablePartitionCert(der.inst, {index[cid]: k for cid, k in halves.items()}, ())


def gamma_copy(inst, eid, v, rank):
    """The copy of eid that v ranks ``rank``-th of four (1 best, 4 last)."""
    return f"{eid}~{rank if lower_endpoint(inst, eid) == v else 5 - rank}"


def gamma_market(prefs, gammas, vertices, edges):
    return validate_instance(vertices, edges, pref=prefs, gamma=gammas)


def test_gamma_single_edge_order():
    inst = gamma_market(
        {"v": {"e": 1}, "x": {"e": 1}},
        {("e", "v"): (F(1, 2), F(3, 2)), ("e", "x"): (F(1, 2), F(3, 2))},
        ["v", "x"],
        [("e", "v", "x")],
    )
    der = build_gamma_reduction(inst)
    # v is the lower endpoint: copies 1..4 run best..last for it
    assert derived_order(der, "v") == ["e~1", "e~2", "e~3", "e~4"]
    assert derived_order(der, "x") == ["e~4", "e~3", "e~2", "e~1"]
    # so e~2 is v's second copy and x's third
    assert derived_order(der, "v")[1] == "e~2" and derived_order(der, "x")[2] == "e~2"


def two_edge_gamma(pe=2, pf=1, gam=F(1, 2), delta=F(3, 2)):
    return gamma_market(
        {"v": {"e": pe, "f": pf}, "x": {"e": 1}, "y": {"f": 1}},
        {
            ("e", "v"): (gam, delta),
            ("e", "x"): (gam, delta),
            ("f", "v"): (gam, delta),
            ("f", "y"): (gam, delta),
        },
        ["v", "x", "y"],
        [("e", "v", "x"), ("f", "v", "y")],
    )


def test_gamma_two_edge_order_with_tiebreak():
    der = build_gamma_reduction(two_edge_gamma())
    # derived values at v: e~1=2, e~2=3/2, f~1=1, e~3=1/2, f~2=1/2, f~3=-1/2;
    # the 1/2 tie resolves third-copies before second-copies
    assert derived_order(der, "v") == [
        "e~1", "e~2", "f~1", "e~3", "f~2", "f~3", "e~4", "f~4",
    ]


def test_gamma_threshold_boundary_is_inclusive():
    # p(f) = p(e) + gamma_f exactly: the second copy of f beats e's best
    der = build_gamma_reduction(two_edge_gamma(pe=1, pf=2, gam=F(1), delta=F(2)))
    order = derived_order(der, "v")
    assert order.index("f~2") < order.index("e~1")
    # p(f) = p(e) + delta_f exactly: even the third copy of f does
    der = build_gamma_reduction(two_edge_gamma(pe=1, pf=2, gam=F(1, 2), delta=F(1)))
    order = derived_order(der, "v")
    assert order.index("f~3") < order.index("e~1")


def test_gamma_comparator_iff_rules_exhaustively():
    for seed in range(40):
        inst = generate_random(
            seed, 6, edge_density=0.6, parallel_prob=0.2, tie_prob=0.3,
            gamma_preset="generic",
        )
        der = build_gamma_reduction(inst)
        for v in inst.vertices:
            order = derived_order(der, v)
            pos = {cid: i for i, cid in enumerate(order)}
            for e in inst.incident(v):
                for f in inst.incident(v):
                    gam_f, delta_f = inst.gamma[(f, v)]
                    best_e = gamma_copy(inst, e, v, 1)
                    second_f = gamma_copy(inst, f, v, 2)
                    third_f = gamma_copy(inst, f, v, 3)
                    assert (pos[second_f] < pos[best_e]) == (
                        inst.pval(v, f) >= inst.pval(v, e) + gam_f
                    ), (seed, v, e, f)
                    assert (pos[third_f] < pos[best_e]) == (
                        inst.pval(v, f) >= inst.pval(v, e) + delta_f
                    ), (seed, v, e, f)
            # worst copies trail every best/second/third copy
            last = {gamma_copy(inst, e, v, 4) for e in inst.incident(v)}
            lasts = [c for c in order if c in last]
            assert order[-len(lasts):] == lasts


def test_gamma_requires_parameters(single_edge):
    with pytest.raises(InstanceError, match="gamma"):
        build_gamma_reduction(single_edge)


# -- three-copy construction -------------------------------------------------


def test_srti_single_edge(single_edge):
    der = build_srti_reduction(single_edge)
    assert derived_order(der, "a") == ["e~u", "e~0", "e~w"]
    assert derived_order(der, "b") == ["e~w", "e~0", "e~u"]


def test_srti_substitution_example():
    inst = validate_instance(
        ["i", "j1", "j2", "j3", "j4"],
        [("e", "i", "j1"), ("f", "i", "j2"), ("g", "i", "j3"), ("h", "i", "j4")],
        pref={
            "i": {"e": 3, "f": 2, "g": 2, "h": 1},
            "j1": {"e": 1},
            "j2": {"f": 1},
            "j3": {"g": 1},
            "j4": {"h": 1},
        },
    )
    der = build_srti_reduction(inst)
    assert derived_order(der, "i") == [
        "e~u", "e~0",
        "f~u", "g~u", "f~0", "g~0",
        "h~u", "h~0",
        "e~w", "f~w", "g~w", "h~w",
    ]


def test_srti_tied_pair():
    inst = validate_instance(
        ["i", "x", "y"],
        [("f", "i", "x"), ("g", "i", "y")],
        pref={"i": {"f": 1, "g": 1}, "x": {"f": 1}, "y": {"g": 1}},
    )
    der = build_srti_reduction(inst)
    assert derived_order(der, "i")[:4] == ["f~u", "g~u", "f~0", "g~0"]


def test_srti_derived_is_strict_on_random_instances():
    for seed in range(30):
        inst = generate_random(seed, 7, edge_density=0.5, parallel_prob=0.3,
                               tie_prob=0.5)
        der = build_srti_reduction(inst)
        assert materialize(der).is_strict()
        for e in inst.edges:
            assert copies(der, e.eid) == [e.eid + s for s in ("~0", "~u", "~w")]


# -- two-copy construction ---------------------------------------------------


def test_pri_single_edge(single_edge):
    der = build_pri_reduction(single_edge)
    assert derived_order(der, "a") == ["e~a", "e~b"]
    assert derived_order(der, "b") == ["e~b", "e~a"]


def test_pri_good_then_bad_blocks():
    inst = validate_instance(
        ["v", "x", "y"],
        [("e", "v", "x"), ("f", "v", "y")],
        pref={"v": {"e": 2, "f": 1}, "x": {"e": 1}, "y": {"f": 1}},
    )
    der = build_pri_reduction(inst)
    assert derived_order(der, "v") == ["e~a", "f~a", "e~b", "f~b"]


def test_pri_triangle_blocks(cyclic_triangle):
    der = build_pri_reduction(cyclic_triangle)
    assert len(der.inst.edges) == 6
    for v in cyclic_triangle.vertices:
        order = derived_order(der, v)
        # ~a is good for the lower endpoint, ~b for the higher one
        good = {
            eid + ("~a" if lower_endpoint(cyclic_triangle, eid) == v else "~b")
            for eid in cyclic_triangle.incident(v)
        }
        roles = ["good" if c in good else "bad" for c in order]
        assert roles == ["good", "good", "bad", "bad"]
        # both blocks preserve the vertex's original order
        original = cyclic_triangle.strict_order(v)
        assert [origin_of(der)[c] for c in order[:2]] == original
        assert [origin_of(der)[c] for c in order[2:]] == original


def test_pri_rejects_ties():
    tied = validate_instance(
        ["a", "b", "c"],
        [("ab", "a", "b"), ("ac", "a", "c")],
        pref={"a": {"ab": 1, "ac": 1}, "b": {"ab": 1}, "c": {"ac": 1}},
    )
    with pytest.raises(InstanceError, match="strict"):
        build_pri_reduction(tied)


def test_finish_rejects_an_order_the_market_does_not_follow(single_edge):
    origin_of = {"e~a": "e", "e~b": "e"}
    # a copy listed twice
    twice = {"a": ["e~a", "e~b", "e~a"], "b": ["e~b", "e~a"]}
    with pytest.raises(VerificationFailed, match="'a'"):
        materialized._finish(single_edge, origin_of, twice)


@pytest.mark.parametrize("orders, culprit", [
    ({"a": ["ab"], "b": ["ab"], "c": ["bc"]}, "'b'"),                 # omits bc
    ({"a": ["ab"], "b": ["bc", "ab", "bc"], "c": ["bc"]}, "'b'"),     # bc twice
    ({"a": ["ab", "bc"], "b": ["bc", "ab"], "c": ["bc"]}, "'a'"),     # bc not at a
    ({"a": ["ab"], "b": ["bc", "ab"]}, "'c'"),                        # c has no order
])
def test_strict_instance_rejects_an_order_that_misses_its_edges(orders, culprit):
    with pytest.raises(VerificationFailed, match=culprit):
        strict_instance(["a", "b", "c"], [("ab", "a", "b"), ("bc", "b", "c")], orders)


def _validated_route(origin, origin_of, orders):
    """How derived markets were materialized before strict_instance: rank
    valuations, checked and sorted back into order by validate_instance."""
    return validate_instance(
        vertices=list(origin.vertices),
        edges=[(cid, *origin.edge(eid)[1:]) for cid, eid in origin_of.items()],
        pref={v: {cid: len(o) - i for i, cid in enumerate(o)} for v, o in orders.items()},
    )


def test_strict_instance_equals_the_validated_route(monkeypatch):
    built = []
    real = materialized._finish
    monkeypatch.setattr(materialized, "_finish",
                        lambda *args: built.append(args) or real(*args))
    # the markets of the golden sweep below
    for seed in range(60):
        n = 4 + seed % 9
        tied = generate_random(seed, n, edge_density=0.5, parallel_prob=0.3,
                               tie_prob=0.4, gamma_preset="generic")
        strict = generate_random(seed, n, edge_density=0.5, parallel_prob=0.3,
                                 critical_count=seed % (n + 1))
        materialized.build_srti_reduction(tied)
        materialized.build_gamma_reduction(tied)
        materialized.build_pri_reduction(strict)
        materialized.build_crit_reduction(strict, strict.critical)
        materialized.build_crit_reduction(strict, frozenset(strict.vertices))
    assert len(built) == 300
    for origin, origin_of, orders in built:
        got = real(origin, origin_of, orders).inst
        want = _validated_route(origin, origin_of, orders)
        assert got.edges == want.edges
        assert got.pref == want.pref
        assert got._ranks == want._ranks and got._starts == want._starts
        assert got._incident == want._incident
        assert got.is_strict() and want.is_strict()


def test_compact_orders_equal_the_materialized_builders():
    # the markets of the golden sweep: each order, read as copy ids, and
    # each copy's endpoints and origin edge, as the old builders made them
    kinds = (
        ("srti", "tied", build_srti_reduction, materialized.build_srti_reduction),
        ("gamma", "tied", build_gamma_reduction, materialized.build_gamma_reduction),
        ("pri", "strict", build_pri_reduction, materialized.build_pri_reduction),
    )
    checked = 0
    for seed in range(60):
        n = 4 + seed % 9
        markets = {
            "tied": generate_random(seed, n, edge_density=0.5, parallel_prob=0.3,
                                    tie_prob=0.4, gamma_preset="generic"),
            "strict": generate_random(seed, n, edge_density=0.5, parallel_prob=0.3,
                                      critical_count=seed % (n + 1)),
        }
        strict = markets["strict"]
        pairs = [(kind, build(markets[which]), oracle(markets[which]))
                 for kind, which, build, oracle in kinds]
        for crit in (strict.critical, frozenset(strict.vertices)):
            pairs.append(("crit", build_crit_reduction(strict, crit),
                          materialized.build_crit_reduction(strict, crit)))
        for kind, der, want in pairs:
            label = f"{kind} seed {seed}"
            assert len(der.inst.edges) == len(want.inst.edges), label
            for v in der.origin.vertices:
                assert derived_order(der, v) == want.inst.strict_order(v), label
            assert origin_of(der) == dict(want.origin_of), label
            assert materialize(der).edges == want.inst.edges, label
            checked += 1
    assert checked == 300


def test_gamma_orders_equal_the_materialized_builder_on_rational_markets():
    # the generic preset has two threshold values over the denominator 2 and
    # integer valuations; these markets have many thresholds over several
    # denominators, Fraction valuations and negative unmatched values
    rng = random.Random(1616)
    values, scales, fraction_prefs = set(), set(), 0
    for seed in range(80):
        inst = rational_market(rng, seed)
        der, want = build_gamma_reduction(inst), materialized.build_gamma_reduction(inst)
        for v in inst.vertices:
            assert derived_order(der, v) == want.inst.strict_order(v), seed
        assert origin_of(der) == dict(want.origin_of), seed
        assert materialize(der).edges == want.inst.edges, seed
        values |= set(inst.gamma.values())
        scales.add(inst.scaled_gamma()[0])
        fraction_prefs += any(type(p) is F for v in inst.vertices for p in inst.pref[v].values())
    assert len(values) >= 100 and max(scales) >= 12 and fraction_prefs >= 40


def _three_kind_tie(rng):
    """A market where v values best(e), second(f) and third(g) alike:
    p(f) = p(e) + gamma_f and p(g) = p(e) + delta_g at v, in Fractions."""
    def value():
        return F(rng.randint(1, 9), rng.choice((1, 2, 3, 5)))

    names = ["v", "x", "y", "z"]
    rng.shuffle(names)  # v is the lower end of some edges, the higher of others
    partner = {"e": "x", "f": "y", "g": rng.choice("xyz"), "h": rng.choice("yz")}
    edges = [(eid, "v", partner[eid]) for eid in "efg"] + [("h", "x", partner["h"])]
    p_e, gamma_f, delta_g = value(), value(), value()
    pref = {x: {} for x in names}
    pref["v"] = {"e": p_e, "f": p_e + gamma_f, "g": p_e + delta_g}
    gamma = {("f", "v"): (gamma_f, gamma_f + value()),
             ("g", "v"): (delta_g * F(rng.randint(1, 3), 4), delta_g)}
    for eid, a, b in edges:
        for x in (a, b):
            if x != "v":
                pref[x][eid] = value()
            if (eid, x) not in gamma:
                low = value()
                gamma[(eid, x)] = (low, low + value())
    return validate_instance(names, edges, pref, gamma=gamma)


def test_gamma_orders_break_a_three_kind_tie_as_the_materialized_builder():
    # equal derived values rank third before second before best copies;
    # the int keys carry the kind between the value and the copy
    rng = random.Random(2020)
    fraction_prefs = 0
    for seed in range(60):
        inst = _three_kind_tie(rng)
        fraction_prefs += type(inst.pval("v", "e")) is F
        der, want = build_gamma_reduction(inst), materialized.build_gamma_reduction(inst)
        for v in inst.vertices:
            assert derived_order(der, v) == want.inst.strict_order(v), seed
        tied = [gamma_copy(inst, eid, "v", k) for eid, k in (("g", 3), ("f", 2), ("e", 1))]
        at = [derived_order(der, "v").index(cid) for cid in tied]
        assert at == sorted(at), seed
    assert fraction_prefs >= 20


@pytest.mark.parametrize("cid", ["e~x", "e~u2", "e~w1", "f~0", "e", "e~0~0", "~0"])
def test_project_rejects_an_id_that_names_no_copy(single_edge, cid):
    # a certificate whose matching names no copy of der (copies e~0 and e~u1
    # only) is one of another market, which project refuses
    der = build_crit_reduction(single_edge, {"a"})
    eid, tilde, tag = cid.rpartition("~")
    other = CopyMarket(("a", "b"), [0], [1], [[0], [0]], [0], (eid,), (tilde + tag,))
    cert = StablePartitionCert(other, {0: 1}, ())
    assert cert.matching == {cid: HALF}
    with pytest.raises(MatchingError, match="another market"):
        der.project(cert)


def test_project_refuses_a_certificate_of_an_equal_market(single_edge):
    # the same builder on the same origin makes an equal market with the
    # same copy ids: its certificate is still not one of der
    der, twin = build_srti_reduction(single_edge), build_srti_reduction(single_edge)
    assert twin.inst == der.inst
    with pytest.raises(MatchingError, match="another market"):
        der.project(stable_half_matching(twin.inst))
    assert der.project(stable_half_matching(der.inst)) == {"e": ONE}


# -- leveled construction ----------------------------------------------------


def test_crit_empty_set_is_isomorphic(cyclic_triangle):
    der = build_crit_reduction(cyclic_triangle, frozenset())
    assert [der.inst.copy_id(c) for c in der.inst.edges] == ["ab~0", "bc~0", "ca~0"]
    for v in cyclic_triangle.vertices:
        assert [origin_of(der)[c] for c in derived_order(der, v)] == [
            g[0] for g in cyclic_triangle.tie_classes(v)
        ]


def test_crit_single_edge_one_critical(single_edge):
    der = build_crit_reduction(single_edge, {"a"})
    assert sorted(origin_of(der)) == ["e~0", "e~u1"]
    assert derived_order(der, "a") == ["e~0", "e~u1"]
    assert derived_order(der, "b") == ["e~u1", "e~0"]
    # e~u1 sits at level -1 for a (one below the middle copy), +1 for b
    order_a, order_b = derived_order(der, "a"), derived_order(der, "b")
    assert order_a[order_a.index("e~0") + 1] == "e~u1"
    assert order_b[order_b.index("e~0") - 1] == "e~u1"


def test_crit_single_edge_both_critical(single_edge):
    der = build_crit_reduction(single_edge, {"a", "b"})
    assert sorted(origin_of(der)) == [
        "e~0", "e~u1", "e~u2", "e~w1", "e~w2",
    ]
    assert derived_order(der, "a") == ["e~w2", "e~w1", "e~0", "e~u1", "e~u2"]
    assert derived_order(der, "b") == ["e~u2", "e~u1", "e~0", "e~w1", "e~w2"]
    # level +j is j places above the middle copy, level -j j places below
    order_a, order_b = derived_order(der, "a"), derived_order(der, "b")
    assert order_a[order_a.index("e~0") - 2] == "e~w2"
    assert order_a[order_a.index("e~0") + 2] == "e~u2"
    assert order_b[order_b.index("e~0") - 1] == "e~u1"


def test_crit_copy_counts_on_random_instances():
    for seed in range(12):
        inst = generate_random(seed, 6, edge_density=0.7, tie_prob=0.0)
        crit = frozenset(v for i, v in enumerate(inst.vertices) if i % 2 == 0)
        der = build_crit_reduction(inst, crit)
        s = len(crit)
        for e in inst.edges:
            endpoints_in = sum(1 for x in (e.u, e.v) if x in crit)
            assert len(copies(der, e.eid)) == 1 + s * endpoints_in
        assert materialize(der).is_strict()


@pytest.mark.parametrize("keep", [[True], "ab", [True] * 12], ids=["short", "str", "long"])
def test_crit_refuses_a_keep_mask_of_another_length(keep):
    inst = generate_random(3, 6, edge_density=0.6)
    assert len(inst.edges) == 9
    with pytest.raises(InstanceError, match=f"keep has {len(keep)} entries for 9 edges"):
        build_crit_reduction(inst, inst.vertices[:2], keep)
    with pytest.raises(InstanceError, match="unknown vertex 'ghost'"):  # refused first
        build_crit_reduction(inst, {"ghost"}, keep)


@pytest.mark.parametrize("keep, bad, copies", [("abcdefghi", "'a'", 23), ([None] * 9, "None", 0),
                                               ([1, 0, 2, 0, 1, 1, 1, 1, 1], "1", 17)],
                         ids=["str", "none", "int"])
def test_crit_refuses_a_keep_mask_of_other_than_bools(keep, bad, copies):
    # read by truthiness, each built the copies of its mask as bools
    inst = generate_random(3, 6, edge_density=0.6)
    assert len(inst.edges) == len(keep) == 9
    with pytest.raises(InstanceError, match=f"^keep holds {bad}, which is not a bool$"):
        build_crit_reduction(inst, inst.vertices[:2], keep)
    with pytest.raises(InstanceError, match="unknown vertex 'ghost'"):  # refused first
        build_crit_reduction(inst, {"ghost"}, keep)
    as_bools = build_crit_reduction(inst, inst.vertices[:2], [bool(k) for k in keep])
    assert len(as_bools.inst.origin) == copies


def test_a_masked_crit_build_refuses_ties_between_kept_edges_only():
    # a ties ab with ac; with ac dropped the masked build is the build on the
    # sub-market of ab and bc, which has no tie
    inst = validate_instance(["a", "b", "c"],
                             [("ab", "a", "b"), ("ac", "a", "c"), ("bc", "b", "c")],
                             {"a": {"ab": 1, "ac": 1}, "b": {"ab": 2, "bc": 1},
                              "c": {"ac": 1, "bc": 2}})
    der = build_crit_reduction(inst, {"a"}, [True, False, True])
    sub = build_crit_reduction(restrict_to_edges(inst, {"ab", "bc"}), {"a"})
    assert len(der.inst.edges) == 3
    assert der.inst.orders == sub.inst.orders
    assert (der.inst.eu, der.inst.ev) == (sub.inst.eu, sub.inst.ev)
    ids = [list(map(d.inst.copy_id, d.inst.edges)) for d in (der, sub)]
    assert ids[0] == ids[1] == ["ab~0", "ab~u1", "bc~0"]
    tie = "^strict preferences required: vertex 'a' has ties$"
    for keep in ([True, True, False], [True, True, True], None):
        with pytest.raises(InstanceError, match=tie):
            build_crit_reduction(inst, {"a"}, keep)
    # the maxw solve refuses any tie before its dual, whose tight edge here is ab alone
    with pytest.raises(InstanceError, match="^solve_pop_maxw requires strict"):
        solve_pop_maxw(inst, {"ab": F(5), "ac": F(1), "bc": F(1)})


def _arithmetic_crit_orders(inst, crit, keep):
    """Each vertex's crit order by the arithmetic the builder used before
    its orders shared one int per copy: level j of a bundle is ``c + j``,
    computed again at each end; s = |C ∩ K| over the kept edges' component
    K, found by a search of its own."""
    kept = [True] * len(inst.edges) if keep is None else keep
    rank = {e.eid: r for r, e in enumerate(inst.edges)}
    x_of = {v: x for x, v in enumerate(inst.vertices)}
    lo = [min(x_of[e.u], x_of[e.v]) for e in inst.edges]
    hi = [max(x_of[e.u], x_of[e.v]) for e in inst.edges]
    is_crit = [v in crit for v in inst.vertices]
    comp = _components(inst, keep)
    level = [len(crit & comp[v]) for v in inst.vertices]
    sizes = [(1 + level[lo[r]] * (is_crit[lo[r]] + is_crit[hi[r]])) * kept[r]
             for r in range(len(inst.edges))]
    first = list(accumulate(sizes, initial=0))
    orders = []
    for x, v in enumerate(inst.vertices):
        ranks, s = [rank[eid] for eid in inst.strict_order(v) if kept[rank[eid]]], level[x]
        up = [first[r + 1] - 1 - s if lo[r] == x else first[r]
              for r in ranks if is_crit[lo[r] + hi[r] - x]]
        down = [first[r] if lo[r] == x else first[r + 1] - 1 - s
                for r in ranks] if is_crit[x] else []
        orders.append([c + j for j in range(s, 0, -1) for c in up]
                      + [first[r] for r in ranks]
                      + [c + j for j in range(1, s + 1) for c in down])
    return orders


def test_crit_orders_share_one_int_per_copy():
    # both ends' orders hold one int object for a copy: past the small-int
    # cache (above 256) there are as many objects as distinct copies
    seen = Counter()
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randint(12, 40)
        inst = generate_random(seed, n, edge_density=rng.choice((0.06, 0.12, 0.4)),
                               parallel_prob=rng.uniform(0, 0.3), weight_range=(1, 9))
        dual = max_weight_dual(inst, inst.weights)
        tight = [e.eid in dual.tight_edges for e in inst.edges]
        everyone, one = frozenset(inst.vertices), frozenset(inst.vertices[:1])
        every = [True] * len(inst.edges)
        for crit, keep in ((frozenset(), None), (one, None), (everyone, None),
                           (one, every), (everyone, every),
                           (dual.critical, tight), (everyone, tight)):
            der = build_crit_reduction(inst, crit, keep)
            orders = der.inst.orders
            assert orders == _arithmetic_crit_orders(inst, crit, keep), seed
            if keep is every:  # keeping every edge is building with no mask
                fields = attrgetter("eu", "ev", "orders", "origin", "labels", "tags")
                assert fields(der.inst) == fields(build_crit_reduction(inst, crit).inst), seed
            big = [c for o in orders for c in o if c > 256]
            assert len(set(map(id, big))) == len(set(big)), seed
            comp = _components(inst, keep)
            parts = len({comp[e.u] for e, k in zip(inst.edges, keep or repeat(True)) if k})
            seen[min(parts, 2), len(set(big)) > 0] += 1
    assert min(seen[k] for k in ((1, True), (2, True), (1, False), (2, False))) >= 5, seen


def _components(inst, keep):
    """Each vertex's component over the kept edges, as a frozenset."""
    rank = {e.eid: r for r, e in enumerate(inst.edges)}
    comp = {}
    for v in inst.vertices:
        if v in comp:
            continue
        seen, stack = {v}, [v]
        while stack:
            for eid in inst.incident(stack.pop()):
                y = {inst.edge(eid).u, inst.edge(eid).v} - seen
                if (keep is None or keep[rank[eid]]) and y:
                    seen |= y
                    stack += y
        comp.update(dict.fromkeys(seen, frozenset(seen)))
    return comp


def _level_markets(seeds):
    """Seeded inputs of the crit construction: n = 3..40 (most of them
    small), density 0.08..0.6, parallel edges up to 0.3, and by seed % 4
    the market's own critical set; a random one, unsaturatable ones
    included; a random one on a random keep mask; or a weighted market's
    positive-potential vertices on its ``max_weight_dual`` tight edges."""
    for seed in seeds:
        rng = random.Random(seed)
        n = 3 + int(38 * rng.random() ** 3)
        kind = seed % 4
        inst = generate_random(seed, n, edge_density=0.08 * 7.5 ** rng.random(),
                               parallel_prob=rng.uniform(0, 0.3),
                               weight_range=(1, 9) if kind == 3 else None,
                               critical_count=rng.randint(0, n) if kind == 0 else 0)
        crit, keep = inst.critical, None
        if kind in (1, 2):
            crit = frozenset(rng.sample(inst.vertices, rng.randint(0, n)))
        if kind == 2:
            keep = [rng.random() < 0.7 for _ in inst.edges]
        if kind == 3:
            dual = max_weight_dual(inst, inst.weights)
            crit, keep = dual.critical, [e.eid in dual.tight_edges for e in inst.edges]
        yield seed, inst, crit, keep


def _projected(inst, crit, keep, levels=None):
    """The engine's projection on the materialized crit market whose
    component K has ``levels(K)`` levels (by default |C ∩ K|)."""
    der = materialized.build_crit_reduction(inst, crit, keep, levels)
    return der.project(stable_half_matching(der.inst).matching)


def test_component_levels_project_as_whole_market_levels():
    # |C ∩ K| levels per component against the |C| levels of the whole
    # market, built independently, through the same engine
    fewer = open_crit = 0
    for seed, inst, crit, keep in _level_markets(range(2000)):
        der = build_crit_reduction(inst, crit, keep)
        got = der.project(stable_half_matching(der.inst))
        assert got == _projected(inst, crit, keep, lambda K: len(crit)), seed
        whole = sum(1 + len(crit) * ((e.u in crit) + (e.v in crit))
                    for e, k in zip(inst.edges, keep or repeat(True)) if k)
        fewer += len(der.inst.edges) < whole
        open_crit += not crit <= saturated_vertices(inst, got)
    assert fewer >= 600 and open_crit >= 600, (fewer, open_crit)


def test_component_levels_equal_the_materialized_builder_with_masks():
    for seed, inst, crit, keep in _level_markets(range(300)):
        der, want = (build_crit_reduction(inst, crit, keep),
                     materialized.build_crit_reduction(inst, crit, keep))
        for v in inst.vertices:
            assert derived_order(der, v) == want.inst.strict_order(v), seed
        assert origin_of(der) == dict(want.origin_of), seed
        assert materialize(der).edges == want.inst.edges, seed


def test_levels_above_the_component_count_project_alike():
    for seed, inst, crit, keep in _level_markets(range(0, 2000, 10)):
        got = _projected(inst, crit, keep)
        for t in (1, 2, 5):
            assert _projected(inst, crit, keep, lambda K: len(crit & K) + t) == got, (seed, t)


def _ranked(vertices, orders):
    """The strict market whose vertex v ranks its edges as ``orders[v]``
    lists them, best first; an edge's ends are the two orders listing it."""
    ends = {}
    for v in vertices:
        for eid in orders.get(v, ()):
            ends.setdefault(eid, []).append(v)
    return validate_instance(
        vertices, [(eid, *ends[eid]) for eid in sorted(ends)],
        pref={v: {eid: 9 - i for i, eid in enumerate(orders.get(v, ()))} for v in vertices})


# The first market of _level_markets (seed 13) where one level fewer on a
# component changes the projection has |C ∩ K| = 1: with no level at all,
# v02 is left open. The first with |C ∩ K| >= 2 is seed 58's kept edges,
# where v01 is isolated and the other 9 vertices hold all three critical
# ones: two levels give another critical matching, three the projection of
# |C| levels
FEWER_LEVELS = [
    (("v00", "v01", "v02"),
     {"v00": ["e000", "e002", "e001"], "v01": ["e000", "e003"],
      "v02": ["e002", "e003", "e001"]},
     {"v02"}, {"e000": HALF, "e002": HALF, "e003": HALF}, {"e000": ONE}),
    (tuple(f"v{i:02d}" for i in range(10)),
     {"v00": ["e000"], "v02": ["e003", "e005", "e004", "e000"],
      "v03": ["e004", "e003", "e006", "e007"], "v04": ["e009", "e008"],
      "v05": ["e012", "e011", "e013"], "v06": ["e005"],
      "v07": ["e011", "e007", "e008", "e014", "e006"], "v08": ["e014", "e012"],
      "v09": ["e013", "e009"]},
     {"v00", "v03", "v07"}, dict.fromkeys(["e000", "e006", "e009", "e012"], ONE),
     dict.fromkeys(["e000", "e007", "e009", "e012"], ONE)),
]


@pytest.mark.parametrize("vertices, orders, crit, today, fewer", FEWER_LEVELS,
                         ids=["seed-13", "seed-58"])
def test_one_level_fewer_on_a_component_changes_the_projection(
        vertices, orders, crit, today, fewer):
    inst = _ranked(vertices, orders)
    der = build_crit_reduction(inst, crit)
    assert der.project(stable_half_matching(der.inst)) == today
    assert _projected(inst, crit, None, lambda K: len(crit)) == today
    assert _projected(inst, crit, None, lambda K: len(crit & K) - 1) == fewer


# -- projection ---------------------------------------------------------------


def test_project_sums_copies(single_edge):
    der = build_srti_reduction(single_edge)
    assert der.project(cert_of(der, {"e~0": 2})) == {"e": ONE}
    assert der.project(cert_of(der, {"e~u": 1, "e~0": 1})) == {"e": ONE}
    assert der.project(cert_of(der, {"e~w": 1})) == {"e": HALF}
    assert der.project(cert_of(der, {"e~u": 1, "e~0": -1})) == {}  # a total of 0 is dropped


def test_project_rejects_overfull(single_edge):
    der = build_srti_reduction(single_edge)
    with pytest.raises(MatchingError, match="projected value of 'e' is outside"):
        der.project(cert_of(der, {"e~0": 2, "e~u": 1}))


def test_project_rejects_a_negative_total(single_edge):
    der = build_srti_reduction(single_edge)
    with pytest.raises(MatchingError, match="projected value of 'e' is outside"):
        der.project(cert_of(der, {"e~u": 1, "e~w": -2}))


def test_pipeline_projects_triangle_to_all_halves(cyclic_triangle):
    der = build_srti_reduction(cyclic_triangle)
    cert = stable_half_matching(der.inst)
    assert der.project(cert) == {"ab": HALF, "bc": HALF, "ca": HALF}


def test_project_single_copy_identity():
    inst = make_triangle()
    der = build_srti_reduction(inst)
    assigned = {copies(der, e.eid)[0]: 1 for e in inst.edges}
    assert der.project(cert_of(der, assigned)) == {e.eid: HALF for e in inst.edges}


def _projection_markets():
    """The four builders over seeded markets with ties, parallel edges,
    gamma thresholds and critical sets of every size up to all vertices."""
    for seed in range(40):
        n = 3 + seed % 10
        tied = generate_random(seed, n, edge_density=0.5, parallel_prob=0.3, tie_prob=0.4,
                               gamma_preset="generic")
        strict = generate_random(seed, n, edge_density=0.5, parallel_prob=0.3)
        yield build_srti_reduction(tied)
        yield build_gamma_reduction(tied)
        yield build_pri_reduction(strict)
        for k in sorted({0, seed % (n + 1), n}):
            yield build_crit_reduction(strict, strict.vertices[:k])


def test_project_by_copy_index_equals_the_string_keyed_oracle():
    rng = random.Random(27)
    odd = summed = refused = 0
    for i, der in enumerate(_projection_markets()):
        oracle = materialized.DerivedInstance(materialize(der), der.origin, origin_of(der))
        cert = stable_half_matching(der.inst)
        name = der.inst.copy_id
        assert cert.matching == {name(c): HALF if k == 1 else ONE
                                 for c, k in cert.halves.items()}, i
        got = der.project(cert)
        assert got == oracle.project(cert.matching), i
        odd += HALF in got.values()
        rank = der.inst.origin
        if not rank:  # edgeless: no copy to put halves on
            continue
        # a hand-made certificate of der: halves on two copies of one edge,
        # whose sum can pass 1, and on one other copy, which can overload
        r = rng.choice(rank)
        both = [c for c in der.inst.edges if rank[c] == r]
        halves = {c: rng.choice((1, 1, 2)) for c in rng.sample(both, min(2, len(both)))}
        halves[rng.choice(der.inst.edges)] = rng.choice((1, 2))
        made = StablePartitionCert(der.inst, halves, ())
        try:
            want = oracle.project(made.matching)
        except MatchingError:
            refused += 1
            with pytest.raises(MatchingError):
                der.project(made)
        else:
            summed += len(want) < len(halves)
            assert der.project(made) == want, i
    assert odd >= 20 and summed >= 20 and refused >= 20, (odd, summed, refused)


# -- golden pin ----------------------------------------------------------------


def test_derived_markets_match_the_golden_digest():
    # edges, preferences and copy origins of 300 derived markets, as the
    # four constructions built them before they were rewritten
    digest = hashlib.sha256()
    for seed in range(60):
        n = 4 + seed % 9
        tied = generate_random(seed, n, edge_density=0.5, parallel_prob=0.3,
                               tie_prob=0.4, gamma_preset="generic")
        strict = generate_random(seed, n, edge_density=0.5, parallel_prob=0.3,
                                 critical_count=seed % (n + 1))
        for der in (
            build_srti_reduction(tied),
            build_gamma_reduction(tied),
            build_pri_reduction(strict),
            build_crit_reduction(strict, strict.critical),
            build_crit_reduction(strict, frozenset(strict.vertices)),
        ):
            market = materialize(der)
            record = {
                "edges": [list(e) for e in market.edges],
                "pref": {v: sorted(market.pref[v].items()) for v in market.vertices},
                "origin_of": sorted(origin_of(der).items()),
            }
            digest.update(json.dumps(record, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "b9360fe580cdd001e6aee540c02a1500b992437936413f880e6d51cda002e12c"
    )
