"""The instance parser against library validation, and its faults pinned.

A seeded corpus of markets is written canonically and then rewritten the
way a person or another program might: edge records, prefs keys, ids
inside each tie group and gamma entries in another order, empty tie
groups, rationals spelled "2/4" or "0.5", ids escaped or not. Each file
must parse to the market that :func:`validate_instance` builds from the
canonical file's valuations (worst tie group 1), field by field and byte
for byte when written again. A pinned list of faulty files, each one
mutation of a valid one, names every :class:`InstanceError` the parser or
validation raises, with its message.
"""

import copy
import json
import random
from fractions import Fraction

import pytest

from halfmatch.core import InstanceError, validate_instance
from halfmatch.generate import GAMMA_PRESETS, generate_random
from halfmatch.io import parse_instance_text, serialize_instance

from conftest import rational_market

F = Fraction


def _oracle(doc):
    """The market of a canonical document, through library validation: each
    vertex values its tie groups len(groups) down to 1."""
    pref = {v: {eid: len(groups) - g for g, group in enumerate(groups) for eid in group}
            for v, groups in doc["prefs"].items()}
    weights = {r["id"]: F(r["weight"]) for r in doc["edges"] if "weight" in r}
    gamma = None
    if "gamma" in doc:
        gamma = {(eid, v): (F(pair["gamma"]), F(pair["delta"]))
                 for eid, sides in doc["gamma"].items() for v, pair in sides.items()}
    return validate_instance(doc["vertices"], [(r["id"], r["u"], r["v"]) for r in doc["edges"]],
                             pref, weights=weights or None, gamma=gamma,
                             critical=doc.get("critical"))


def _spell(rng, text):
    """The rational ``text`` written another way: doubled terms, a decimal
    when one is exact, or space around it."""
    x = F(text)
    ways = [f"{2 * x.numerator}/{2 * x.denominator}", f" {text}\n"]
    k = next((k for k in range(1, 9) if 10 ** k % x.denominator == 0), None)
    if k is not None:
        n = abs(x.numerator) * (10 ** k // x.denominator)
        ways.append(f"{'-' if x < 0 else ''}{n // 10 ** k}.{n % 10 ** k:0{k}d}")
    return rng.choice(ways)


def _shuffled(rng, mapping):
    items = list(mapping.items())
    rng.shuffle(items)
    return dict(items)


def _rewrite(rng, text):
    """A non-canonical file of the market whose canonical text is ``text``."""
    doc = json.loads(text)
    records = []
    for record in doc["edges"]:
        if "weight" in record:
            record["weight"] = _spell(rng, record["weight"])
        records.append(_shuffled(rng, record))
    rng.shuffle(records)
    doc["edges"] = records
    prefs = {}
    for v, groups in doc["prefs"].items():
        for group in groups:
            rng.shuffle(group)
        for _ in range(rng.randint(0, 2)):  # an empty group values nothing, wherever it is
            groups.insert(rng.randint(0, len(groups)), [])
        prefs[v] = groups
    doc["prefs"] = _shuffled(rng, prefs)
    if "gamma" in doc:
        doc["gamma"] = _shuffled(rng, {
            eid: _shuffled(rng, {x: _shuffled(rng, {k: _spell(rng, t) for k, t in pair.items()})
                                 for x, pair in sides.items()})
            for eid, sides in doc["gamma"].items()})
    if "critical" in doc:
        rng.shuffle(doc["critical"])
    layout = rng.choice([{}, {"indent": 1}, {"separators": (",", ":")}, {"indent": "\t"}])
    return json.dumps(_shuffled(rng, doc), ensure_ascii=rng.random() < 0.5, **layout)


def _relabeled(inst, rng):
    """``inst`` with non-ASCII vertex and edge ids, in another id order."""
    marks = ["é", "中", "\U0001f600", "ß", "\\", '"']
    name = {x: rng.choice(marks) + x for x in [*inst.vertices, *(e.eid for e in inst.edges)]}
    gamma = None if inst.gamma is None else {
        (name[eid], name[x]): pair for (eid, x), pair in inst.gamma.items()}
    return validate_instance(
        [name[v] for v in inst.vertices],
        [(name[eid], name[u], name[v]) for eid, u, v in inst.edges],
        {name[v]: {name[eid]: p for eid, p in inst.pref[v].items()} for v in inst.vertices},
        weights=inst.weights and {name[eid]: w for eid, w in inst.weights.items()},
        gamma=gamma, critical=[name[v] for v in inst.critical])


def _corpus():
    rng = random.Random(2626)
    markets = []
    for seed in range(36):
        n = rng.randint(2, 12)
        markets.append(generate_random(
            seed, n, edge_density=rng.choice([0.3, 0.6, 1.0]), parallel_prob=0.3,
            tie_prob=rng.choice([0.0, 0.4, 0.9]),
            weight_range=rng.choice([None, (-3, 9)]),
            gamma_preset=GAMMA_PRESETS[seed % len(GAMMA_PRESETS)],
            critical_count=rng.randint(0, n)))
    markets += [rational_market(rng, seed) for seed in range(12)]
    markets += [_relabeled(inst, rng) for inst in markets[::4]]
    markets.append(validate_instance(["y", "x"], [], {}))
    return markets


def test_non_canonical_files_parse_as_the_validated_market():
    rng = random.Random(26)
    kinds = {"ties": 0, "gamma": 0, "weights": 0, "critical": 0, "non-ascii": 0}
    for inst in _corpus():
        text = serialize_instance(inst)
        want = _oracle(json.loads(text))
        assert serialize_instance(want) == text
        for got in [parse_instance_text(text)] + [
                parse_instance_text(_rewrite(rng, text)) for _ in range(3)]:
            assert got.vertices == want.vertices and got.edges == want.edges
            assert got._ranks == want._ranks and got._starts == want._starts
            assert got.pref == want.pref and got.pref_empty == want.pref_empty
            assert got.gamma == want.gamma and got.scaled_gamma() == want.scaled_gamma()
            assert got.weights == want.weights and got.critical == want.critical
            assert serialize_instance(got) == text
        kinds["ties"] += not want.is_strict()
        kinds["gamma"] += bool(want.gamma)
        kinds["weights"] += bool(want.weights)
        kinds["critical"] += bool(want.critical)
        kinds["non-ascii"] += not text.isascii() or "\\u" in text
    assert all(count >= 10 for count in kinds.values()), kinds


# -- every fault, one at a time ------------------------------------------------

_BASE = {
    "vertices": ["a", "b", "c", "d"],
    "edges": [{"id": "ab", "u": "a", "v": "b", "weight": "3/2"},
              {"id": "ab2", "u": "b", "v": "a"},
              {"id": "bc", "u": "b", "v": "c"},
              {"id": "cd", "u": "c", "v": "d", "weight": "2"}],
    "prefs": {"a": [["ab", "ab2"]], "b": [["bc"], ["ab2", "ab"]],
              "c": [["cd", "bc"]], "d": [["cd"]]},
    "gamma": {"ab": {"a": {"gamma": "1/2", "delta": "3/2"},
                     "b": {"gamma": "1/2", "delta": "3/2"}},
              "bc": {"c": {"gamma": "3/2", "delta": "5/2"}}},
    "critical": ["a", "c"],
}


def _set(path, value):
    """A mutation that sets the entry at ``path`` (keys and indices) to
    ``value``; an index one past a list's end appends it."""
    def mutate(doc):
        at = doc
        for key in path[:-1]:
            at = at[key]
        if isinstance(at, list) and path[-1] == len(at):
            at.append(value)
        else:
            at[path[-1]] = value
        return doc
    return mutate


def _drop(path):
    def mutate(doc):
        at = doc
        for key in path[:-1]:
            at = at[key]
        del at[path[-1]]
        return doc
    return mutate


def _text(text):
    return lambda doc: text


_GAMMA_AB_A = ("gamma", "ab", "a")

#: (id, mutation of a copy of _BASE, the message it must raise)
FAULTS = [
    ("not-json", _text('{"vertices": ['), "not valid JSON: Expecting value: line 1 column 15 "
     "(char 14)"),
    ("nested-too-deeply", _text("[" * 100000 + "]" * 100000),
     "not valid JSON: nested too deeply"),
    ("number-past-the-digit-limit", _text("1" * 5000), "not valid JSON: Exceeds the limit "
     "(4300 digits) for integer string conversion: value has 5000 digits; use "
     "sys.set_int_max_str_digits() to increase the limit"),
    ("top-level-list", _text("[]"), "an instance file must hold a JSON object"),
    ("no-vertices", _drop(["vertices"]), "instance file lacks the 'vertices' section"),
    ("no-edges", _drop(["edges"]), "instance file lacks the 'edges' section"),
    ("no-prefs", _drop(["prefs"]), "instance file lacks the 'prefs' section"),
    ("vertex-set-as-string", _set(["vertices"], "abcd"),
     "the vertex set must be a list of vertex ids"),
    ("vertex-id-a-number", _set(["vertices", 3], 4),
     "the vertex set must be a list of vertex ids"),
    ("edges-as-object", _set(["edges"], {}),
     "the edges section must be a list of edge records"),
    ("edge-record-a-string", _set(["edges", 1], "ab2"),
     "the edges section must be a list of edge records"),
    ("prefs-as-list", _set(["prefs"], []), "the prefs section must map vertex ids to tie groups"),
    ("edge-record-without-v", _drop(["edges", 3, "v"]),
     "malformed edge record {'id': 'cd', 'u': 'c', 'weight': '2'}"),
    ("edge-id-a-number", _set(["edges", 2, "id"], 7),
     "edge record {'id': 7, 'u': 'b', 'v': 'c'}: ids must be strings"),
    ("endpoint-null", _set(["edges", 2, "u"], None),
     "edge record {'id': 'bc', 'u': None, 'v': 'c'}: ids must be strings"),
    ("weight-with-exponent", _set(["edges", 0, "weight"], "1e5"), "malformed rational '1e5'"),
    ("weight-a-number", _set(["edges", 3, "weight"], 2), "malformed rational 2: not a string"),
    ("weight-null", _set(["edges", 3, "weight"], None),
     "malformed rational None: not a string"),
    ("weight-zero-denominator", _set(["edges", 0, "weight"], "1/0"),
     "malformed rational '1/0'"),
    ("tie-groups-as-string", _set(["prefs", "a"], "ab"),
     "preference list of 'a' must be a list of tie groups"),
    ("tie-group-a-string", _set(["prefs", "b", 1], "ab"),
     "preference list of 'b' must contain tie groups (lists of edge ids)"),
    ("edge-id-in-group-a-number", _set(["prefs", "c", 0, 1], 3),
     "preference list of 'c' must contain tie groups (lists of edge ids)"),
    ("unknown-edge", _set(["prefs", "c", 0, 1], "zz"),
     "line 51: preference list of 'c' mentions unknown edge 'zz'"),
    ("edge-mentioned-twice", _set(["prefs", "b", 1, 0], "bc"),
     "line 44: preference list of 'b' mentions edge 'bc' twice"),
    ("twice-in-one-group", _set(["prefs", "a", 0, 1], "ab"),
     "line 36: preference list of 'a' mentions edge 'ab' twice"),
    ("gamma-as-list", _set(["gamma"], []), "malformed gamma section: each edge maps its "
     "endpoints to objects with 'gamma' and 'delta' rationals"),
    ("gamma-null", _set(["gamma"], None), "malformed gamma section: each edge maps its "
     "endpoints to objects with 'gamma' and 'delta' rationals"),
    ("gamma-side-a-string", _set(["gamma", "bc", "c"], "3/2"), "malformed gamma section: "
     "each edge maps its endpoints to objects with 'gamma' and 'delta' rationals"),
    ("gamma-without-delta", _drop([*_GAMMA_AB_A, "delta"]), "malformed gamma section: each "
     "edge maps its endpoints to objects with 'gamma' and 'delta' rationals"),
    ("gamma-with-exponent", _set([*_GAMMA_AB_A, "gamma"], "5e-1"), "malformed gamma section: "
     "each edge maps its endpoints to objects with 'gamma' and 'delta' rationals"),
    ("gamma-a-number", _set([*_GAMMA_AB_A, "gamma"], 0.5), "malformed gamma section: each "
     "edge maps its endpoints to objects with 'gamma' and 'delta' rationals"),
    ("critical-as-string", _set(["critical"], "ac"),
     "the critical set must be a list of vertices"),
    ("critical-id-a-list", _set(["critical", 1], ["c"]),
     "the critical set must be a list of vertices"),
    ("duplicate-vertex", _set(["vertices", 3], "a"), "duplicate vertex ids"),
    ("duplicate-edge-id", _set(["edges", 4], {"id": "bc", "u": "c", "v": "b"}),
     "duplicate edge id 'bc'"),
    ("unknown-endpoint", _set(["edges", 3, "v"], "z"), "edge 'cd' has an unknown endpoint"),
    ("loop", _set(["edges", 3, "v"], "c"), "edge 'cd' is a loop; loops are forbidden"),
    ("prefs-of-an-unknown-vertex", _set(["prefs", "z"], [["cd"]]),
     "preferences given for unknown vertex 'z'"),
    ("missing-preference", _set(["prefs", "c"], [["cd"]]),
     "missing preference of 'c' for edge 'bc'"),
    ("no-preference-list", _drop(["prefs", "d"]), "missing preference of 'd' for edge 'cd'"),
    ("non-incident-edge", _set(["prefs", "d"], [["cd"], ["bc", "ab"]]),
     "preference of 'd' for non-incident edge 'ab'"),
    ("gamma-of-an-unknown-edge", _set(["gamma", "zz"], {"a": {"gamma": "1", "delta": "2"}}),
     "gamma for unknown edge 'zz'"),
    ("gamma-endpoint-off-the-edge", _set(["gamma", "ab", "c"], {"gamma": "1", "delta": "2"}),
     "gamma endpoint 'c' not on edge 'ab'"),
    ("gamma-equal-to-delta", _set([*_GAMMA_AB_A, "delta"], "2/4"),
     "edge 'ab' at 'a': gamma must be positive and < delta"),
    ("gamma-zero", _set(["gamma", "bc", "c", "gamma"], "0"),
     "edge 'bc' at 'c': gamma must be positive and < delta"),
    ("gamma-negative", _set([*_GAMMA_AB_A, "gamma"], "-1/2"),
     "edge 'ab' at 'a': gamma must be positive and < delta"),
    ("critical-unknown", _set(["critical", 1], "z"), "critical set contains unknown vertex 'z'"),
    # two faults: the one the reader meets first is named
    ("unknown-edge-and-duplicate-edge-id",
     lambda doc: _set(["edges", 4], _BASE["edges"][2])(_set(["prefs", "d", 0, 0], "zz")(doc)),
     "line 61: preference list of 'd' mentions unknown edge 'zz'"),
    ("bad-group-and-unknown-vertex",
     lambda doc: _set(["prefs", "z"], [["cd"]])(_set(["prefs", "d"], "cd")(doc)),
     "preference list of 'd' must be a list of tie groups"),
    ("missing-preference-before-a-bad-threshold",
     lambda doc: _set([*_GAMMA_AB_A, "delta"], "1/2")(_set(["prefs", "c"], [["cd"]])(doc)),
     "missing preference of 'c' for edge 'bc'"),
    ("non-incident-at-a-vertex-before-a-missing-one",
     lambda doc: _set(["prefs", "a"], [["ab", "ab2", "cd"]])(_drop(["prefs", "b", 0])(doc)),
     "preference of 'a' for non-incident edge 'cd'"),
]


def test_the_base_file_is_valid():
    inst = parse_instance_text(json.dumps(_BASE, indent=2))
    assert inst.tie_classes("b") == [["bc"], ["ab", "ab2"]]
    assert not inst.has_full_gamma() and inst.critical == {"a", "c"}


@pytest.mark.parametrize("mutate, message", [pytest.param(m, msg, id=name)
                                             for name, m, msg in FAULTS])
def test_each_fault_is_named(mutate, message):
    text = mutate(copy.deepcopy(_BASE))
    if not isinstance(text, str):
        text = json.dumps(text, indent=2)
    with pytest.raises(InstanceError) as exc:
        parse_instance_text(text)
    assert str(exc.value) == message


# -- two faults at once: the file's own fault is named before the market's ------

_MARKET = json.loads(serialize_instance(generate_random(
    1, 4, edge_density=0.7, gamma_preset="generic", weight_range=(1, 3), critical_count=1)))
_LOOP = _set(["edges", 3, "v"], "v02")  # e003 from v02 to v02
_TWIN = _set(["vertices", 3], "v00")  # a duplicate vertex id
_GAMMA = ("malformed gamma section: each edge maps its endpoints to objects with 'gamma' "
          "and 'delta' rationals")

#: (id, a fault of the market, a fault of the file itself, the message: the file's)
DOUBLE_FAULTS = [
    ("loop-and-gamma-without-delta", _LOOP, _drop(["gamma", "e000", "v00", "delta"]), _GAMMA),
    ("duplicate-vertex-and-group-not-a-list", _TWIN, _set(["prefs", "v01", 0], "e001"),
     "preference list of 'v01' must contain tie groups (lists of edge ids)"),
    ("unknown-endpoint-and-id-twice", _set(["edges", 2, "v"], "v09"),
     _set(["prefs", "v02", 2, 1], "e000"),
     "line 1: preference list of 'v02' mentions edge 'e000' twice"),
    ("bad-weight-and-gamma-not-below-delta", _set(["gamma", "e002", "v01", "gamma"], "5/2"),
     _set(["edges", 1, "weight"], "x"), "malformed rational 'x'"),
    ("gamma-of-unknown-edge-and-critical-not-names",
     _set(["gamma", "e009"], {"v00": {"gamma": "1", "delta": "2"}}), _set(["critical", 0], 7),
     "the critical set must be a list of vertices"),
    ("duplicate-vertex-and-record-without-u", _TWIN, _drop(["edges", 2, "u"]),
     "malformed edge record {'id': 'e002', 'v': 'v03', 'weight': '3'}"),
    ("duplicate-vertex-and-id-a-number", _TWIN, _set(["edges", 2, "id"], 5),
     "edge record {'id': 5, 'u': 'v01', 'v': 'v03', 'weight': '3'}: ids must be strings"),
    ("loop-and-weight-with-exponent", _LOOP, _set(["edges", 0, "weight"], "1e3"),
     "malformed rational '1e3'"),
]


@pytest.mark.parametrize("market, own, message", [
    pytest.param(market, own, msg, id=name) for name, market, own, msg in DOUBLE_FAULTS])
def test_a_files_own_fault_comes_before_the_markets(market, own, message):
    """Each file has one fault of the market and one of the file itself; the
    file's is named whichever comes first in the text."""
    with pytest.raises(InstanceError) as exc:
        parse_instance_text(json.dumps(own(market(copy.deepcopy(_MARKET)))))
    assert str(exc.value) == message
    with pytest.raises(InstanceError) as alone:  # the market's fault alone is another
        parse_instance_text(json.dumps(market(copy.deepcopy(_MARKET))))
    assert str(alone.value) != message
