import random
import re
from collections.abc import Mapping
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfmatch.core import (
    HALF,
    ONE,
    ZERO,
    InstanceError,
    MatchingError,
    MatchingStats,
    _assigned,
    assigned_value,
    blocking_edges,
    check_matching,
    is_half_matching,
    matching_size,
    matching_stats,
    validate_instance,
    vertex_load,
)
from halfmatch.generate import GAMMA_PRESETS, generate_random
from halfmatch.io import parse_instance_text, serialize_instance
from halfmatch.popularity import sample_fractional_matchings
from halfmatch.reductions import (
    build_crit_reduction,
    build_gamma_reduction,
    build_pri_reduction,
    build_srti_reduction,
)
from halfmatch.solvers import restrict_to_edges, solve_max_gamma, solve_max_srti

from conftest import make_path, make_triangle, rational_market
from materialized import materialize

F = Fraction
H = HALF


def test_single_edge_valid(single_edge):
    assert single_edge.edges[0].eid == "e"
    assert single_edge.incident("a") == ("e",)
    assert single_edge.pval("a", "e") == 1


def test_gamma_equal_delta_rejected():
    with pytest.raises(InstanceError, match="gamma must be positive and < delta"):
        validate_instance(
            vertices=["a", "b"],
            edges=[("e", "a", "b")],
            pref={"a": {"e": 1}, "b": {"e": 1}},
            gamma={("e", "a"): (1, 1), ("e", "b"): (1, 2)},
        )


def _single_edge_with(field, value):
    kw = {"pref": {"a": {"e": 1}, "b": {"e": 1}}}
    if field == "pref":
        kw["pref"] = {"a": {"e": value}, "b": {"e": 1}}
    elif field == "pref_empty":
        kw["pref_empty"] = {"a": value}
    elif field == "weight":
        kw["weights"] = {"e": value}
    else:
        kw["gamma"] = {("e", "a"): (value, 2), ("e", "b"): (1, 2)}
    return validate_instance(["a", "b"], [("e", "a", "b")], **kw)


@pytest.mark.parametrize("value", [0.1, float("inf"), float("nan"), "abc", True])
@pytest.mark.parametrize("field", ["pref", "pref_empty", "weight", "gamma"])
def test_only_exact_rationals_are_read(field, value):
    # a float would be stored as its binary expansion, inf and nan would
    # raise OverflowError and ValueError; each is bad input naming itself
    with pytest.raises(InstanceError, match=re.escape(repr(value))):
        _single_edge_with(field, value)


@pytest.mark.parametrize("field", ["pref", "pref_empty", "weight", "gamma"])
def test_int_str_and_fraction_rationals_are_read(field):
    x = -1 if field == "pref_empty" else 1
    insts = [_single_edge_with(field, v) for v in (x, f"{2 * x}/2", F(x))]
    assert insts[0] == insts[1] == insts[2]


@pytest.mark.parametrize("value", ["1e5000", "1E3", "2e-3"])
@pytest.mark.parametrize("field", ["pref", "pref_empty", "weight", "gamma"])
def test_exponent_strings_are_refused(field, value):
    # "1e5000" is a few bytes of input but an int of 5,000 digits
    with pytest.raises(InstanceError, match=re.escape(repr(value))):
        _single_edge_with(field, value)


@pytest.mark.parametrize("field", ["pref", "pref_empty", "weight", "gamma"])
def test_plain_decimal_strings_are_read(field):
    x = F(-1, 2) if field == "pref_empty" else F(1, 2)
    assert _single_edge_with(field, str(float(x))) == _single_edge_with(field, x)


#: texts that some Python's ``Fraction`` reads but the one ASCII grammar
#: refuses: underscores (3.11 on), space around the slash (3.12 on),
#: non-ASCII digits, space or vulgar fractions (every version)
OUTSIDE_THE_GRAMMAR = ["1_000", "1 /2", "1/ 2", "\u0661/\u0662", "\uff11", "\xa01/2",
                       "\u00bd", "1/2/3", "1.5/2", "0x10"]


@pytest.mark.parametrize("value", OUTSIDE_THE_GRAMMAR)
@pytest.mark.parametrize("field", ["pref", "pref_empty", "weight", "gamma"])
def test_strings_outside_the_ascii_grammar_are_refused(field, value):
    with pytest.raises(InstanceError, match=re.escape(repr(value))):
        _single_edge_with(field, value)


@pytest.mark.parametrize("value", [pytest.param("1" * 5000, id="5000-digit-int"),
                                   pytest.param("0." + "1" * 5000, id="5000-digit-decimal")])
@pytest.mark.parametrize("field", ["pref", "pref_empty", "weight", "gamma"])
def test_strings_past_the_int_digit_limit_are_refused(field, value):
    # in the grammar, but ``int`` refuses more than 4,300 digits
    with pytest.raises(InstanceError, match=re.escape(repr(value))):
        _single_edge_with(field, value)


@pytest.mark.parametrize("text, value", [
    ("3", F(3)), ("+3", F(3)), ("-3/4", F(-3, 4)), ("007/14", F(1, 2)), (".5", H),
    ("1.", F(1)), ("-.25", F(-1, 4)), (" 1/2\n", H),
])
def test_the_ascii_grammar_reads_signs_fractions_and_decimals(text, value):
    assert _single_edge_with("weight", text).weights == {"e": value}


def _triangle_with_gamma(gamma):
    tri = make_triangle()
    return validate_instance(list(tri.vertices), [tuple(e) for e in tri.edges],
                             tri.pref, gamma=gamma)


@pytest.mark.parametrize("gamma, message", [
    # the first bad entry in the mapping's order, not in sorted key order
    pytest.param({("ca", "a"): (H, 1), ("ca", "c"): (2, 1), ("ab", "b"): (0, 1),
                  ("bc", "b"): (1, 1)},
                 "edge 'ca' at 'c': gamma must be positive and < delta", id="several-bad"),
    pytest.param({("ab", "a"): (H, 1), ("zz", "a"): (H, 1), ("ab", "b"): (2, 1)},
                 "gamma for unknown edge 'zz'", id="unknown-edge-before-a-bad-value"),
    pytest.param({("ab", "a"): (H, 1), ("ab", "b"): (2, 1), ("ab", "c"): (H, 1)},
                 "edge 'ab' at 'b': gamma must be positive and < delta",
                 id="bad-value-before-a-foreign-endpoint"),
    # a bad value met again is named where it first occurs
    pytest.param({("bc", "c"): (H, 1), ("ca", "a"): (F(3, 2), F(6, 4)), ("ab", "a"): (H, 1),
                  ("ab", "b"): (F(3, 2), F(3, 2))},
                 "edge 'ca' at 'a': gamma must be positive and < delta", id="bad-value-repeats"),
    # one value in three spellings: gamma equals delta however it is written
    pytest.param({("ab", "a"): ("1/2", 1), ("ab", "b"): ("2/4", 1), ("bc", "b"): (F(1, 2), 1),
                  ("bc", "c"): ("2/4", F(1, 2)), ("ca", "c"): ("1/2", "2/4")},
                 "edge 'bc' at 'c': gamma must be positive and < delta",
                 id="one-value-three-spellings"),
])
def test_validation_names_the_first_bad_threshold_entry(gamma, message):
    with pytest.raises(InstanceError) as exc:
        _triangle_with_gamma(gamma)
    assert str(exc.value) == message


def test_thresholds_are_scaled_once_over_one_denominator():
    # one value in three spellings is one value, read and scaled alike
    inst = _triangle_with_gamma({("ab", "a"): ("1/2", "3/2"), ("ab", "b"): ("2/4", F(3, 2)),
                                 ("bc", "b"): (F(1, 2), "6/4")})
    assert set(inst.gamma.values()) == {(H, F(3, 2))}
    assert inst.scaled_gamma() == (2, dict.fromkeys(inst.gamma, (1, 3)))
    assert not inst.has_full_gamma()
    # the integers are the Fractions times the lcm of every threshold
    # denominator, and fullness is the rescan over every (edge, endpoint)
    rng = random.Random(1616)
    full = partial = 0
    for seed in range(60):
        whole = rational_market(rng, seed)
        keys = list(whole.gamma)
        rng.shuffle(keys)
        for kept in (keys, keys[:rng.randint(0, max(len(keys) - 1, 0))]):
            inst = validate_instance(list(whole.vertices), [tuple(e) for e in whole.edges],
                                     whole.pref, pref_empty=whole.pref_empty,
                                     gamma={k: whole.gamma[k] for k in kept})
            d, scaled = inst.scaled_gamma()
            assert d == lcm(*(x.denominator for pair in inst.gamma.values() for x in pair))
            assert scaled == {k: (g * d, dl * d) for k, (g, dl) in inst.gamma.items()}
            assert all(type(x) is int for pair in scaled.values() for x in pair)
            rescan = all((e.eid, x) in inst.gamma for e in inst.edges for x in (e.u, e.v))
            assert inst.has_full_gamma() == rescan
            full += rescan
            partial += not rescan
    assert full >= 60 and partial >= 50
    assert not make_triangle().has_full_gamma() and make_triangle().scaled_gamma() == (1, {})
    assert validate_instance(["a"], [], {}, gamma={}).has_full_gamma()


class _FreshPairs(Mapping):
    """A gamma mapping that builds a new pair object on every access; the
    values repeat with period 3, so a pair freed after one entry is read
    leaves its id to a pair of another value."""

    VALUES = [(F(1, 2), F(3, 2)), (F(1, 3), F(2)), (F(1), F(3))]

    def __init__(self, keys):
        self._keys = list(keys)
        self._at = {k: i % 3 for i, k in enumerate(self._keys)}

    def __getitem__(self, key):
        gam, delta = self.VALUES[self._at[key]]
        return (gam + 0, delta + 0)  # new objects, equal values

    def __iter__(self):
        return iter(self._keys)

    def __len__(self):
        return len(self._keys)


def test_fresh_pair_objects_are_read_by_value():
    inst = generate_random(5, 12, edge_density=0.5, tie_prob=0.3)
    lazy = _FreshPairs((e.eid, x) for e in inst.edges for x in (e.u, e.v))
    got, want = (validate_instance(list(inst.vertices), [tuple(e) for e in inst.edges],
                                   inst.pref, gamma=gamma)
                 for gamma in (lazy, dict(lazy)))
    assert got.gamma == want.gamma == {k: lazy[k] for k in lazy}
    assert got.scaled_gamma() == want.scaled_gamma()
    assert set(got.gamma.values()) == set(_FreshPairs.VALUES)


@pytest.mark.parametrize("bad", [None, (F(3, 2), F(3, 2))], ids=["valid", "bad-pair"])
def test_shared_and_distinct_pair_objects_read_alike(bad):
    # the parser hands one tuple per distinct pair; a library caller may
    # hand one per entry: the instance, or the first bad entry, is the same
    tri = make_triangle()
    keys = [(e.eid, x) for e in tri.edges for x in (e.u, e.v)]
    shared = (H, F(3, 2))
    spelled = [("1/2", "3/2"), ("2/4", F(3, 2)), (H, "6/4")]
    kinds = {
        "shared": {k: shared for k in keys},
        "equal": {k: (F(1, 2), F(3, 2)) for k in keys},
        "spelled": {k: spelled[i % 3] for i, k in enumerate(keys)},
    }
    if bad is not None:
        for gamma in kinds.values():
            gamma[keys[2]] = gamma[keys[4]] = bad
    results = {}
    for name, gamma in kinds.items():
        try:
            results[name] = _triangle_with_gamma(gamma)
        except InstanceError as exc:
            results[name] = str(exc)
    assert results["shared"] == results["equal"] == results["spelled"]
    if bad is not None:
        assert results["shared"] == "edge 'bc' at 'b': gamma must be positive and < delta"
    else:
        assert results["shared"].scaled_gamma() == (2, dict.fromkeys(keys, (1, 3)))


@pytest.mark.parametrize("given, message", [
    # edges at a: ab, ca (id order); the first faulty entry wins, whatever the fault
    ({"ab": -1}, "preference of 'a' for 'ab' is negative"),
    ({"ab": 0, "ca": "x"}, "preference of 'a' for 'ab' must exceed the unmatched value"),
    ({"ab": -1, "ca": 2, "zz": 1}, "preference of 'a' for 'ab' is negative"),
    ({"ab": 1}, "missing preference of 'a' for edge 'ca'"),
    ({"ab": 1, "ca": 0.5}, "0.5 is not an exact rational (an int, str or Fraction)"),
    ({"ab": 1, "ca": 2, "zz": 1, "yy": 1}, "preference of 'a' for non-incident edge 'yy'"),
])
def test_preferences_name_their_first_bad_entry(given, message):
    tri = make_triangle()
    pref = {**tri.pref, "a": given}
    with pytest.raises(InstanceError) as exc:
        validate_instance(list(tri.vertices), [tuple(e) for e in tri.edges], pref)
    assert str(exc.value) == message


def test_five_agent_market_valid(five_agent_market):
    inst, m, _ = five_agent_market
    check_matching(inst, m, half=True)
    assert inst.tie_classes("w2") == [["u1w2"], ["u2w2"], ["u3w2"]]


def test_loop_rejected():
    with pytest.raises(InstanceError, match="loop"):
        validate_instance(["a"], [("e", "a", "a")], pref={"a": {"e": 1}})


def test_missing_pref_rejected():
    with pytest.raises(InstanceError, match="missing preference"):
        validate_instance(
            ["a", "b"], [("e", "a", "b")], pref={"a": {"e": 1}, "b": {}}
        )


def test_preferences_of_an_unknown_vertex_rejected():
    with pytest.raises(InstanceError, match="preferences given for unknown vertex 'zz'"):
        validate_instance(
            ["a", "b"], [("e", "a", "b")],
            pref={"a": {"e": 1}, "b": {"e": 1}, "zz": {"e": 5}},
        )


def test_zero_valuation_rejected():
    # default unmatched value is 0 and every edge must strictly beat it
    with pytest.raises(InstanceError, match="exceed the unmatched value"):
        validate_instance(["a", "b"], [("e", "a", "b")], pref={"a": {"e": 0}, "b": {"e": 1}})


def test_unknown_critical_vertex():
    with pytest.raises(InstanceError, match="critical"):
        validate_instance(
            ["a", "b"], [("e", "a", "b")],
            pref={"a": {"e": 1}, "b": {"e": 1}}, critical=["z"],
        )


def test_incidence_sorted_canonically():
    inst = validate_instance(
        ["a", "b"],
        [("z", "a", "b"), ("e", "a", "b")],
        pref={"a": {"e": 2, "z": 1}, "b": {"e": 1, "z": 2}},
    )
    assert inst.incident("a") == ("e", "z")
    assert [e.eid for e in inst.edges] == ["e", "z"]


def test_assigned_value_cases(five_agent_market, single_edge):
    inst, m, _ = five_agent_market
    # unmatched vertex falls back to the unmatched value
    assert assigned_value(inst, "u3", m) == 0
    # saturated vertex takes the minimum over its positive edges
    assert assigned_value(inst, "u1", m) == inst.pval("u1", "u1w2") == 1
    assert assigned_value(single_edge, "a", {"e": ONE}) == 1
    # positive-but-unsaturated vertices still count as unmatched
    assert assigned_value(single_edge, "a", {"e": H}) == 0


def test_blocking_single_edge(single_edge):
    assert blocking_edges(single_edge, {}) == ["e"]
    assert blocking_edges(single_edge, {"e": ONE}) == []


def test_blocking_triangle(cyclic_triangle):
    # v2 prefers v2v3 to its partner and v3 is unmatched
    assert "bc" in blocking_edges(cyclic_triangle, {"ab": ONE})
    assert blocking_edges(cyclic_triangle, {"ab": H, "bc": H, "ca": H}) == []


def test_blocking_gamma_mode_requires_parameters(single_edge):
    with pytest.raises(InstanceError, match="gamma"):
        blocking_edges(single_edge, {}, mode="gamma")


def gamma_inst(gam, delta):
    return validate_instance(
        ["a", "b", "c"],
        [("ab", "a", "b"), ("bc", "b", "c")],
        pref={"a": {"ab": 1}, "b": {"ab": 3, "bc": 1}, "c": {"bc": 1}},
        gamma={
            ("ab", "a"): (gam, delta),
            ("ab", "b"): (gam, delta),
            ("bc", "b"): (gam, delta),
            ("bc", "c"): (gam, delta),
        },
    )


def test_gamma_blocking_thresholds():
    # b holds bc; switching to ab improves b by 2 and a by 1
    m = {"bc": ONE}
    # gamma=1/2, delta=3/2: improvement (1, 2) passes (gamma at a, delta at b)
    assert blocking_edges(gamma_inst(F(1, 2), F(3, 2)), m, mode="gamma") == ["ab"]
    # delta=3 cannot be met at either endpoint, gamma=2 fails at a
    assert blocking_edges(gamma_inst(F(2), F(3)), m, mode="gamma") == []
    # saturated edges never gamma-block
    assert blocking_edges(gamma_inst(F(1, 2), F(1)), {"ab": ONE}, mode="gamma") == []


def test_matching_stats(five_agent_market, single_edge):
    inst, m, _ = five_agent_market
    stats = matching_stats(inst, m)
    assert stats.size == 2
    assert set(stats.saturated) == {"u1", "u2", "w1", "w2"}
    assert stats.unsaturated == ("u3",)
    assert not stats.integral

    empty = matching_stats(single_edge, {})
    assert empty.size == 0 and set(empty.unsaturated) == {"a", "b"}

    stats1 = matching_stats(single_edge, {"e": ONE}, critical=["a"])
    assert stats1.critical_ok and stats1.integral


def test_check_matching_rejects_overload(single_edge):
    inst = validate_instance(
        ["a", "b", "c"],
        [("ab", "a", "b"), ("ac", "a", "c")],
        pref={"a": {"ab": 2, "ac": 1}, "b": {"ab": 1}, "c": {"ac": 1}},
    )
    with pytest.raises(MatchingError, match="unit load"):
        check_matching(inst, {"ab": ONE, "ac": H})
    with pytest.raises(MatchingError, match="not in"):
        check_matching(single_edge, {"e": F(1, 3)}, half=True)


# -- blocking cross-check against an independent evaluator ------------------


def naive_blocking(inst, m):
    """Re-derive weak blocking with a from-scratch double loop."""
    out = []
    for e in inst.edges:
        if m.get(e.eid, ZERO) >= 1:
            continue
        ok = True
        for v in (e.u, e.v):
            load = sum(m.get(g, ZERO) for g in inst.incident(v))
            if load == 1:
                worst = min(
                    inst.pval(v, g) for g in inst.incident(v) if m.get(g, ZERO) > 0
                )
            else:
                worst = inst.pempty(v)
            if not inst.pval(v, e.eid) > worst:
                ok = False
        if ok:
            out.append(e.eid)
    return out


def enumerate_all_halves(inst):
    eids = [e.eid for e in inst.edges]

    def rec(i, loads, cur):
        if i == len(eids):
            yield dict(cur)
            return
        e = inst.edge(eids[i])
        for val in (ZERO, H, ONE):
            if loads[e.u] + val <= 1 and loads[e.v] + val <= 1:
                loads[e.u] += val
                loads[e.v] += val
                if val:
                    cur[eids[i]] = val
                yield from rec(i + 1, loads, cur)
                loads[e.u] -= val
                loads[e.v] -= val
                cur.pop(eids[i], None)

    yield from rec(0, {v: ZERO for v in inst.vertices}, {})


def test_blocking_matches_naive_everywhere(five_agent_market, cyclic_triangle):
    from halfmatch.generate import generate_random

    instances = [five_agent_market[0], cyclic_triangle, make_path("a")]
    instances += [
        generate_random(seed, 5, edge_density=0.5, parallel_prob=0.2, tie_prob=0.4)
        for seed in range(12)
    ]
    for inst in instances:
        if len(inst.edges) > 8:
            continue
        for m in enumerate_all_halves(inst):
            assert blocking_edges(inst, m) == naive_blocking(inst, m)


# -- the one-pass scan kernel against the per-vertex reference -------------


def _assigned_reference(inst, v, m):
    """assigned_value as a sum and a minimum over every incident edge."""
    positive = [inst.pval(v, eid) for eid in inst.incident(v) if m.get(eid, ZERO) > 0]
    load = sum((m.get(eid, ZERO) for eid in inst.incident(v)), ZERO)
    if positive and load == 1:
        return min(positive)
    return inst.pempty(v)


def _blocking_reference(inst, m, mode="weak"):
    """The per-vertex blocking scan the one-pass kernel replaced."""
    assigned = {v: _assigned_reference(inst, v, m) for v in inst.vertices}
    out = []
    for e in inst.edges:
        val = m.get(e.eid, ZERO)
        du = inst.pval(e.u, e.eid) - assigned[e.u]
        dv = inst.pval(e.v, e.eid) - assigned[e.v]
        if mode == "weak":
            if val < 1 and du > 0 and dv > 0:
                out.append(e.eid)
        else:
            gu, deltau = inst.gamma[(e.eid, e.u)]
            gv, deltav = inst.gamma[(e.eid, e.v)]
            if min(du - gu, dv - deltav) >= 0 or min(du - deltau, dv - gv) >= 0:
                out.append(e.eid)
    return out


def _random_half_matching(rng, inst):
    """A random half-matching, sometimes with explicit zero entries."""
    room = {v: ONE for v in inst.vertices}
    m = {}
    order = list(inst.edges)
    rng.shuffle(order)
    for e in order:
        cap = min(room[e.u], room[e.v])
        val = rng.choice([v for v in (ZERO, H, ONE) if v <= cap])
        if val or rng.random() < 0.2:
            m[e.eid] = val
            room[e.u] -= val
            room[e.v] -= val
    return m


def _random_value_map(rng, inst):
    """Arbitrary values, overloads and a stray edge id: not a matching,
    but both scans must still agree on it."""
    m = {e.eid: rng.choice([-H, ZERO, F(1, 3), H, ONE, F(3, 2)])
         for e in inst.edges if rng.random() < 0.5}
    m["stray"] = ONE
    return m


def test_blocking_kernel_matches_reference():
    rng = random.Random(20240)
    pairs = 0
    kinds = {"fraction": 0, "negative_empty": 0, "parallel": 0, "tie": 0, "gamma": 0}
    for seed in range(160):
        if seed % 2:
            inst = rational_market(rng, seed)
        else:
            inst = generate_random(seed, rng.randint(3, 8), edge_density=0.5,
                                   parallel_prob=0.3, tie_prob=0.4,
                                   gamma_preset=("none", "generic")[seed % 4 == 0])
        kinds["fraction"] += any(type(p) is F for v in inst.vertices
                                 for p in inst.pref[v].values())
        kinds["negative_empty"] += any(p < 0 for p in inst.pref_empty.values())
        kinds["parallel"] += len({frozenset((e.u, e.v)) for e in inst.edges}) < len(inst.edges)
        kinds["tie"] += not inst.is_strict()
        modes = ["weak", "gamma"] if inst.has_full_gamma() else ["weak"]
        kinds["gamma"] += len(modes) - 1
        matchings = [_random_half_matching(rng, inst) for _ in range(6)]
        matchings.append(_random_value_map(rng, inst))
        matchings.append(solve_max_srti(inst))
        if inst.has_full_gamma():
            matchings.append(solve_max_gamma(inst))
        for m in matchings:
            for mode in modes:
                assert blocking_edges(inst, m, mode) == _blocking_reference(inst, m, mode)
                pairs += 1
            for v in inst.vertices:
                assert assigned_value(inst, v, m) == _assigned_reference(inst, v, m)
                assert vertex_load(inst, m, v) == sum(
                    (m.get(eid, ZERO) for eid in inst.incident(v)), ZERO)
    assert pairs >= 1000
    assert all(count >= 20 for count in kinds.values()), kinds


# -- the integer load kernel against the Fraction sums it replaced -----------
#
# check_matching, _assigned, vertex_load and matching_stats read a matching's
# loads as integers over the lcm of its denominators. The Fraction-sum
# versions they replaced are kept here unchanged as oracles.


def _fraction_vertex_load(inst, m, v):
    return sum((m[eid] for eid in inst.incident(v) if eid in m), ZERO)


def _fraction_check_matching(inst, m, half=False):
    for eid, val in m.items():
        if eid not in inst._rank:
            raise MatchingError(f"value for unknown edge {eid!r}")
        if not isinstance(val, F):
            raise MatchingError(f"value of {eid!r} is not an exact rational")
        if val < 0 or val > 1:
            raise MatchingError(f"value of {eid!r} outside [0, 1]")
        if half and val not in (ZERO, H, ONE):
            raise MatchingError(f"value of {eid!r} is not in {{0, 1/2, 1}}")
    for v in inst.vertices:
        if _fraction_vertex_load(inst, m, v) > 1:
            raise MatchingError(f"vertex {v!r} exceeds unit load")


def _fraction_assigned(inst, m):
    pref = inst.pref
    load = {}
    worst = {}
    for eid, val in m.items():
        if eid not in inst._rank:
            continue
        e = inst.edge(eid)
        positive = val > 0
        for x in (e.u, e.v):
            load[x] = load.get(x, ZERO) + val
            if positive and (x not in worst or pref[x][eid] < worst[x]):
                worst[x] = pref[x][eid]
    assigned = dict(inst.pref_empty)
    assigned.update((x, p) for x, p in worst.items() if load[x] == 1)
    return assigned


def _fraction_matching_stats(inst, m, critical=None):
    crit = frozenset(critical) if critical is not None else inst.critical
    sat = tuple(v for v in inst.vertices if _fraction_vertex_load(inst, m, v) == 1)
    return MatchingStats(
        size=matching_size(m),
        saturated=sat,
        unsaturated=tuple(v for v in inst.vertices if v not in set(sat)),
        integral=all(val in (ZERO, ONE) for val in m.values()),
        critical_ok=crit <= set(sat),
    )


#: one faulty value each; "third" is a fault only for half-matchings
_VALUE_FAULTS = {"int": 1, "float": 0.5, "str": "1/2", "negative": F(-1, 3),
                 "above": F(4, 3), "third": F(1, 3)}


def _with_faults(rng, inst, m, faults):
    """m with each named fault applied, entries in a shuffled order."""
    m = dict(m)
    eids = [e.eid for e in inst.edges]
    rng.shuffle(eids)
    for fault in faults:
        if fault == "unknown":
            m["stray"] = rng.choice([ONE, H, F(1, 3)])
        elif fault == "overload":
            v = rng.choice([v for v in inst.vertices if len(inst.incident(v)) > 1])
            for eid in inst.incident(v):
                m[eid] = F(2, 3)
        else:
            m[eids.pop()] = _VALUE_FAULTS[fault]
    items = list(m.items())
    rng.shuffle(items)
    return dict(items)


def test_integer_loads_answer_as_the_fraction_sums():
    rng = random.Random(15015)
    faults = ["unknown", "overload", *_VALUE_FAULTS]
    seen = {fault: 0 for fault in faults}
    messages = {"valid": 0, "unknown edge": 0, "exact rational": 0, "outside": 0,
                "not in": 0, "unit load": 0}
    compared = 0
    for seed in range(120):
        inst = generate_random(seed, rng.randint(3, 8), edge_density=0.6,
                               parallel_prob=0.3, tie_prob=0.4,
                               critical_count=rng.randint(0, 3))
        if not any(len(inst.incident(v)) > 1 for v in inst.vertices):
            continue
        valid = [_random_half_matching(rng, inst) for _ in range(3)]
        valid += sample_fractional_matchings(inst, seed=seed, count=3)
        # int values: check_matching rejects them, the load readers take them
        valid.append({eid: int(val) for eid, val in valid[0].items() if val != H})
        for base in valid:
            cases = [base]
            for count in (1, 1, 2):
                chosen = rng.sample(faults, count)
                for fault in chosen:
                    seen[fault] += 1
                cases.append(_with_faults(rng, inst, base, chosen))
            for m in cases:
                for half in (False, True):
                    got = _outcome(check_matching, inst, m, half)
                    assert got == _outcome(_fraction_check_matching, inst, m, half)
                    text = "valid" if got is None else got[1]
                    messages[next(k for k in messages if k in text)] += 1
                if not all(type(val) in (int, F) for val in m.values()):
                    continue
                assert _assigned(inst, m) == _fraction_assigned(inst, m)
                for v in inst.vertices:
                    assert vertex_load(inst, m, v) == _fraction_vertex_load(inst, m, v)
                crit = rng.choice([None, rng.sample(inst.vertices, 2)])
                assert matching_stats(inst, m, crit) == _fraction_matching_stats(
                    inst, m, crit)
                compared += 1
    assert compared >= 1500
    assert all(count >= 100 for count in seen.values()), seen
    assert all(count >= 150 for count in messages.values()), messages


def test_parsed_and_derived_valuations_are_int():
    inst = generate_random(3, 8, edge_density=0.6, parallel_prob=0.3, tie_prob=0.4,
                           gamma_preset="generic")
    strict = generate_random(4, 8, edge_density=0.6, parallel_prob=0.3)
    markets = [inst, parse_instance_text(serialize_instance(inst))]
    markets += [materialize(build(inst))
                for build in (build_srti_reduction, build_gamma_reduction)]
    markets += [materialize(build_pri_reduction(strict)),
                materialize(build_crit_reduction(strict, frozenset(strict.vertices[:3])))]
    for market in markets:
        for v in market.vertices:
            assert type(market.pempty(v)) is int
            assert all(type(p) is int for p in market.pref[v].values())
    # integral library valuations become ints, non-integral ones stay Fractions
    lib = validate_instance(["a", "b"], [("e", "a", "b")],
                            pref={"a": {"e": F(4, 2)}, "b": {"e": F(1, 2)}},
                            pref_empty={"b": F(-1, 3)})
    assert type(lib.pval("a", "e")) is int and lib.pval("a", "e") == 2
    assert type(lib.pval("b", "e")) is F and type(lib.pempty("b")) is F


# -- the sort-based preference queries as an oracle --------------------------
#
# Instance once regrouped and sorted ``pref`` on every query; validation now
# stores each vertex's order once. The old queries are kept here unchanged
# (over id-sorted incidence) and the stored order must answer exactly as they do.


def _oracle_tie_classes(inst, v):
    groups = {}
    for eid in sorted(inst.incident(v)):
        groups.setdefault(inst.pref[v][eid], []).append(eid)
    return [groups[val] for val in sorted(groups, reverse=True)]


def _oracle_strict_order(inst, v):
    classes = _oracle_tie_classes(inst, v)
    if any(len(c) > 1 for c in classes):
        raise InstanceError(f"strict preferences required: vertex {v!r} has ties")
    return [c[0] for c in classes]


def _oracle_is_strict(inst):
    for v in inst.vertices:
        vals = [inst.pref[v][e] for e in inst.incident(v)]
        if len(set(vals)) != len(vals):
            return False
    return True


def _outcome(query, *args):
    try:
        return query(*args)
    except (InstanceError, MatchingError) as exc:
        return (type(exc).__name__, str(exc))


def test_stored_order_answers_as_the_sort_based_queries():
    rng = random.Random(9090)
    markets = {"generated": [], "library": [], "srti": [], "gamma": [], "pri": [],
               "crit": []}
    for seed in range(40):
        n = rng.randint(3, 8)
        tied = generate_random(seed, n, edge_density=0.6, parallel_prob=0.3,
                               tie_prob=0.4, gamma_preset="generic")
        strict = generate_random(seed, n, edge_density=0.6, parallel_prob=0.3)
        markets["generated"] += [tied, strict]
        markets["library"].append(rational_market(rng, seed))
        markets["srti"].append(materialize(build_srti_reduction(tied)))
        markets["gamma"].append(materialize(build_gamma_reduction(tied)))
        markets["pri"].append(materialize(build_pri_reduction(strict)))
        crit = frozenset(rng.sample(strict.vertices, rng.randint(1, n)))
        markets["crit"].append(materialize(build_crit_reduction(strict, crit)))
    kinds = {"tie_error": 0, "parallel": 0, "fraction": 0, "negative_empty": 0}
    for inst in (inst for group in markets.values() for inst in group):
        assert inst.is_strict() == _oracle_is_strict(inst)
        kinds["parallel"] += len({frozenset((e.u, e.v)) for e in inst.edges}) < len(inst.edges)
        kinds["fraction"] += any(type(p) is F for v in inst.vertices
                                 for p in inst.pref[v].values())
        kinds["negative_empty"] += any(p < 0 for p in inst.pref_empty.values())
        for v in inst.vertices:
            assert list(inst.incident(v)) == sorted(inst.incident(v))
            assert inst.tie_classes(v) == _oracle_tie_classes(inst, v)
            got = _outcome(inst.strict_order, v)
            assert got == _outcome(_oracle_strict_order, inst, v)
            kinds["tie_error"] += isinstance(got, tuple)
    assert all(count >= 20 for count in kinds.values()), kinds
    assert all(inst.is_strict() for name in ("srti", "gamma", "pri", "crit")
               for inst in markets[name])
    assert sum(not inst.is_strict() for inst in markets["library"]) >= 20


def test_the_stored_rank_view_answers_as_the_sort_based_queries():
    # validation also stores each vertex's order as edge ranks and the
    # position where each tie group starts; the reductions read only these
    rng = random.Random(2424)
    markets = []
    for seed in range(40):
        tied = generate_random(seed, rng.randint(3, 9), edge_density=0.6, parallel_prob=0.3,
                               tie_prob=0.4, gamma_preset="generic")
        rational = rational_market(rng, seed)
        markets += [tied, rational, *map(parse_instance_text,
                                         map(serialize_instance, (tied, rational)))]
    kinds = {"tied": 0, "strict": 0, "parallel": 0, "fraction": 0}
    for inst in markets:
        assert inst.is_strict() == _oracle_is_strict(inst)
        for v in inst.vertices:
            ranks, starts = inst._ranks[v], inst._starts[v]
            order = [inst.edges[r].eid for r in ranks]
            assert list(starts) == sorted(set(starts))
            assert starts[0] == 0 if order else not starts
            groups = [list(order[i:j]) for i, j in zip(starts, starts[1:] + (len(order),))]
            assert groups == _oracle_tie_classes(inst, v)
            got = _outcome(inst.strict_order, v)
            assert got == _outcome(_oracle_strict_order, inst, v)
            if isinstance(got, list):
                assert [inst.edges[r].eid for r in inst.strict_ranks(v)] == got
            else:
                assert _outcome(inst.strict_ranks, v) == got
            kinds["tied" if len(starts) < len(order) else "strict"] += 1
        kinds["parallel"] += len({frozenset((e.u, e.v)) for e in inst.edges}) < len(inst.edges)
        kinds["fraction"] += any(type(p) is F for v in inst.vertices
                                 for p in inst.pref[v].values())
    assert all(count >= 20 for count in kinds.values()), kinds


def test_rank_aligned_thresholds_answer_as_the_mapping():
    # validation stores each edge's scaled pair and valuation per end of its
    # record, by edge rank, and no threshold list without thresholds; the
    # writer, the gamma reduction and the blocking test read only these
    rng = random.Random(2525)
    markets = []
    for seed in range(24):
        n = rng.randint(3, 8)
        presets = [generate_random(seed, n, edge_density=0.6, parallel_prob=0.3,
                                   tie_prob=0.4, gamma_preset=preset)
                   for preset in GAMMA_PRESETS]
        whole = rational_market(rng, seed)
        kept = [k for k in whole.gamma if rng.random() < 0.6]  # some edges keep one end
        partial = validate_instance(list(whole.vertices), [tuple(e) for e in whole.edges],
                                    whole.pref, pref_empty=whole.pref_empty,
                                    gamma={k: whole.gamma[k] for k in kept})
        markets += [*presets, whole, partial,
                    *map(parse_instance_text, map(serialize_instance, (whole, partial))),
                    *(restrict_to_edges(inst, {e.eid for e in inst.edges if rng.random() < 0.7})
                      for inst in (whole, partial, presets[-1]))]
    markets.append(_triangle_with_gamma({("ab", "b"): ("1/2", 2), ("ca", "c"): (1, "7/3")}))
    kinds = {"full": 0, "partial": 0, "none": 0, "present": 0, "absent": 0, "blocking": 0}
    for inst in markets:
        d, scaled = inst.scaled_gamma()
        gamma = inst.gamma or {}
        if gamma:
            assert len(inst._gamma_u) == len(inst._gamma_v) == len(inst.edges)
        else:
            assert not inst._gamma_u and not inst._gamma_v
        assert scaled == {k: (g * d, dl * d) for k, (g, dl) in gamma.items()}
        for r, (eid, u, v) in enumerate(inst.edges):
            for x, side in ((u, inst._gamma_u), (v, inst._gamma_v)):
                if (eid, x) in gamma:
                    assert side[r] == scaled[eid, x]
                    assert all(type(t) is int for t in side[r])
                    kinds["present"] += 1
                else:
                    assert not side or side[r] is None
                    kinds["absent"] += 1
            assert (inst._value_u[r], inst._value_v[r]) == (inst.pref[u][eid], inst.pref[v][eid])
        kinds["full" if inst.has_full_gamma() else "partial" if gamma else "none"] += 1
        if inst.has_full_gamma():
            for m in [_random_half_matching(rng, inst) for _ in range(3)] + [{}]:
                assert blocking_edges(inst, m, "gamma") == _blocking_reference(inst, m, "gamma")
                kinds["blocking"] += 1
    assert all(count >= 20 for count in kinds.values()), kinds


# -- convex decomposition monotonicity ---------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_convex_mix_monotone(data):
    inst = make_triangle()
    parts = [
        data.draw(st.sampled_from(list(enumerate_all_halves(inst))))
        for _ in range(3)
    ]
    weights = [F(data.draw(st.integers(1, 5))) for _ in parts]
    total = sum(weights)
    mix = {}
    for w, part in zip(weights, parts):
        for eid, val in part.items():
            mix[eid] = mix.get(eid, ZERO) + w * val / total
    check_matching(inst, mix)
    for part in parts:
        # each component's support sits inside the mix's support
        assert set(part) <= set(mix)
        for v in inst.vertices:
            # a vertex saturated by the mix is saturated in every component,
            # and each component values every vertex at least as well
            if vertex_load(inst, mix, v) == 1:
                assert vertex_load(inst, part, v) == 1
            assert assigned_value(inst, v, part) >= assigned_value(inst, v, mix)


def test_is_half_and_size(five_agent_market):
    _, m, rival = five_agent_market
    assert is_half_matching(m) and is_half_matching(rival)
    assert matching_size(m) == 2 and matching_size(rival) == 2
