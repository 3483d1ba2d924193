import contextlib
import copy
import functools
import hashlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfmatch import cli, core
from halfmatch import io as result_io
from halfmatch.cli import _popularity_claims, main
from halfmatch.core import (
    ONE, InstanceError, VerificationFailed, matching_size, validate_instance,
)
from halfmatch.generate import GAMMA_PRESETS, generate_random
from halfmatch.io import (
    MODES,
    POPULARITY_CLAIMS,
    RESULT_KEYS,
    SOLVER_CLAIMS,
    build_result,
    check_result,
    format_matching,
    format_rational,
    instance_digest,
    load_instance,
    load_result,
    parse_instance_text,
    parse_rational,
    result_weights,
    save_instance,
    serialize_instance,
    serialize_result,
    _stats_record,
)
from halfmatch.engine import enumerate_half_matchings
from halfmatch.popularity import SCOPES, is_popular
from halfmatch.solvers import max_weight_dual, solve_max_pri, solve_max_srti

from conftest import rational_market

F = Fraction


def test_rational_strings():
    assert format_rational(F(3)) == "3"
    assert format_rational(F(1, 2)) == "1/2"
    assert parse_rational("7/3") == F(7, 3)
    assert parse_rational("4") == 4
    with pytest.raises(InstanceError):
        parse_rational("1/0")
    with pytest.raises(InstanceError):
        parse_rational("nope")
    assert parse_rational(" 0.5 ") == F(1, 2)
    for text in ("1e5000", "1E3", "2e-3"):
        with pytest.raises(InstanceError, match=re.escape(f"malformed rational {text!r}")):
            parse_rational(text)
    # the writer reads a string by the same grammar as the parser
    assert format_rational(" 2/4 ") == "1/2"
    for text in ("1_000", "1 /2", "\u0661"):
        with pytest.raises(InstanceError, match=re.escape(repr(text))):
            format_rational(text)


@pytest.mark.parametrize("value", [True, False])
def test_the_writer_refuses_what_the_reader_refuses(value):
    # a bool is an int to isinstance, but no exact rational to core._rat
    with pytest.raises(InstanceError, match="not an exact rational"):
        format_rational(value)


def test_instance_roundtrip_bytes(five_agent_market, tmp_path):
    inst, _, _ = five_agent_market
    text = serialize_instance(inst)
    again = parse_instance_text(text)
    assert serialize_instance(again) == text
    path = tmp_path / "inst.json"
    save_instance(inst, str(path))
    assert serialize_instance(load_instance(str(path))) == text
    assert instance_digest(again) == instance_digest(inst)


def test_instance_roundtrip_with_everything():
    inst = generate_random(
        5, 6, edge_density=0.7, parallel_prob=0.3, tie_prob=0.4,
        weight_range=(0, 4), gamma_preset="generic", critical_count=2,
    )
    text = serialize_instance(inst)
    again = parse_instance_text(text)
    assert serialize_instance(again) == text
    assert again.critical == inst.critical
    assert again.gamma == inst.gamma
    assert again.weights == inst.weights


# -- golden pin of the instance text ------------------------------------------


def _instance_doc(inst):
    """The instance as a JSON document: the canonical text of an instance
    is ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``."""
    edges = []
    for e in inst.edges:
        record = {"id": e.eid, "u": e.u, "v": e.v}
        if inst.weights is not None and e.eid in inst.weights:
            record["weight"] = format_rational(inst.weights[e.eid])
        edges.append(record)
    doc = {
        "vertices": list(inst.vertices),
        "edges": edges,
        "prefs": {v: inst.tie_classes(v) for v in inst.vertices},
    }
    if inst.gamma:
        block = {}
        for (eid, v), (gam, delta) in sorted(inst.gamma.items()):
            block.setdefault(eid, {})[v] = {
                "gamma": format_rational(gam),
                "delta": format_rational(delta),
            }
        doc["gamma"] = block
    if inst.critical:
        doc["critical"] = sorted(inst.critical)
    return doc


def _pinned_markets():
    """300 generated markets, then hand-built ones whose ids need escaping."""
    for seed in range(60):
        n = seed % 13  # includes the empty market and a lone vertex
        yield generate_random(seed, n, edge_density=0.5, parallel_prob=0.3,
                              tie_prob=0.4, weight_range=(1, 9), gamma_preset="generic",
                              critical_count=seed % (n + 1))
        yield generate_random(seed, n, edge_density=0.6, tie_prob=0.3,
                              weight_range=(-3, 5), bipartite=True,
                              critical_count=(seed * 7) % (n + 1))
        yield generate_random(seed, n, edge_density=0.4, parallel_prob=0.5)
        yield generate_random(seed, n, edge_density=0.7, tie_prob=0.2,
                              gamma_preset=("min-like", "max-like", "generic")[seed % 3],
                              bipartite=seed % 2 == 1)
        yield generate_random(seed, n, edge_density=0.3, parallel_prob=0.2,
                              tie_prob=0.8, weight_range=(-3, 5),
                              gamma_preset="generic", critical_count=n)
    odd = ["zé", 'q"t', "b\\s", "c\t\n\x00\x1f\x7f", "日本",
           "\U0001f600", "\u2028", "plain", "alone"]
    ids = ['e"0', "e\\1", "e\n2", "eä3", "e\U0001f6004", "e/5", "e 6"]
    ends = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 1)]
    edges = [(eid, odd[a], odd[b]) for eid, (a, b) in zip(ids, ends)]
    pref = {v: {} for v in odd}
    for k, (eid, u, v) in enumerate(edges):
        pref[u][eid] = 1 + k % 2
        pref[v][eid] = 3
    yield validate_instance(
        odd, edges, pref,
        weights={ids[0]: F(-5, 2), ids[2]: F(1, 3), ids[4]: 7, ids[6]: "2/6"},
        gamma={(ids[0], odd[0]): (F(1, 3), F(7, 5)), (ids[3], odd[4]): ("1/2", 2),
               (ids[6], odd[1]): (1, F(9, 4))},
        critical=[odd[5], odd[0], odd[2]],
    )
    yield validate_instance(["y", "x"], [], {})  # no edges, only lone vertices
    yield validate_instance(["m", "a", "z"], [("za", "z", "a"), ("am", "a", "m")],
                            {"z": {"za": F(1, 2)}, "a": {"za": 2, "am": F(5, 2)},
                             "m": {"am": 1}}, weights={})


def test_instance_text_matches_the_golden_digest():
    # the canonical text of every pinned market, as the json.dumps
    # writer produced it
    digest = hashlib.sha256()
    for inst in _pinned_markets():
        digest.update(serialize_instance(inst).encode())
    assert digest.hexdigest() == (
        "8c078359cc30c5baa2a792ef3b9b6a2ac10897c34cf8dbff8397cd0a4c0d0857"
    )


def test_instance_text_equals_the_json_dumps_form():
    for inst in _pinned_markets():
        text = serialize_instance(inst)
        assert text == json.dumps(_instance_doc(inst), sort_keys=True, indent=2) + "\n"
        assert serialize_instance(parse_instance_text(text)) == text


@pytest.mark.parametrize("preset", GAMMA_PRESETS)
def test_gamma_fullness_survives_the_round_trip(preset):
    # the writer omits an empty gamma section, so an edgeless market reads
    # back without one; it has every pair it needs either way
    for seed, density in ((1, 0.0), (2, 0.3), (3, 0.8)):
        inst = generate_random(seed, 5, edge_density=density, gamma_preset=preset)
        again = parse_instance_text(serialize_instance(inst))
        assert again.has_full_gamma() == inst.has_full_gamma(), (preset, density)
        assert inst.has_full_gamma() == (preset != "none" or not inst.edges), (preset, density)
        assert bool(inst.edges) == (density > 0)


def test_many_distinct_thresholds_are_written_as_json_dumps_writes_them():
    # kept apart from the pinned markets, whose digest stays put: each
    # distinct threshold pair is formatted once, over many denominators
    rng = random.Random(1616)
    values = set()
    for seed in range(40):
        inst = rational_market(rng, seed)
        text = serialize_instance(inst)
        assert text == json.dumps(_instance_doc(inst), sort_keys=True, indent=2) + "\n"
        again = parse_instance_text(text)
        assert again.gamma == inst.gamma
        assert serialize_instance(again) == text
        values |= set(inst.gamma.values())
    assert len(values) >= 100


def test_the_one_pass_writer_writes_as_json_dumps_writes():
    # kept apart from the pinned markets, whose digest stays put: vertex
    # lists out of name order, edge records whose u sorts after v, single-end
    # thresholds, partial weights and vertices without edges
    rng = random.Random(2525)
    swapped = single = lone = 0
    for seed in range(60):
        base = generate_random(seed, rng.randint(2, 9), edge_density=0.6, parallel_prob=0.3,
                               tie_prob=0.4, gamma_preset="generic")
        vertices = list(base.vertices) + [f"z{k}" for k in range(rng.randint(0, 2))]
        rng.shuffle(vertices)
        edges = [(eid, v, u) if rng.random() < 0.5 else (eid, u, v) for eid, u, v in base.edges]
        gamma = {}
        for eid, u, v in edges:
            ends = rng.choice([(u, v)] * 3 + [(u,), (v,), ()])
            for x in ends:
                low = F(rng.randint(1, 5), rng.randint(1, 3))
                gamma[eid, x] = (low, low + F(rng.randint(1, 4), rng.randint(1, 4)))
            swapped += u > v and len(ends) == 2
            single += len(ends) == 1
        weights = {eid: F(rng.randint(-3, 9), rng.randint(1, 3))
                   for eid, _, _ in edges if rng.random() < 0.5}
        inst = validate_instance(vertices, edges, base.pref, weights=weights, gamma=gamma)
        lone += sum(not inst.incident(v) for v in inst.vertices)
        text = serialize_instance(inst)
        assert text == json.dumps(_instance_doc(inst), sort_keys=True, indent=2) + "\n"
        assert serialize_instance(parse_instance_text(text)) == text
    assert swapped >= 100 and single >= 20 and lone >= 20, (swapped, single, lone)


def test_parse_rejects_unknown_edge_in_prefs_with_line():
    doc = {
        "vertices": ["a", "b"],
        "edges": [{"id": "e", "u": "a", "v": "b"}],
        "prefs": {"a": [["e"]], "b": [["ghost"]]},
    }
    text = json.dumps(doc, sort_keys=True, indent=2)
    expected_line = next(
        i for i, row in enumerate(text.splitlines(), 1) if "ghost" in row
    )
    with pytest.raises(
        InstanceError, match=f"line {expected_line}: .*unknown edge 'ghost'"
    ):
        parse_instance_text(text)


def _line_of(text, after, token, nth=1):
    """The 1-based line of the nth row holding ``token`` after the first row
    holding ``after``."""
    rows = text.splitlines()
    start = next(i for i, row in enumerate(rows) if after in row)
    hits = [i for i, row in enumerate(rows) if i > start and token in row]
    return hits[nth - 1] + 1


def test_parse_names_the_line_of_a_repeated_edge():
    # the record's id comes first in the file; the repeat is in a's list
    doc = {
        "vertices": ["a", "b"],
        "edges": [{"id": "e1", "u": "a", "v": "b"}],
        "prefs": {"a": [["e1"], ["e1"]], "b": [["e1"]]},
    }
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    line = _line_of(text, '"a": [', '"e1"', nth=2)
    with pytest.raises(InstanceError) as exc:
        parse_instance_text(text)
    assert str(exc.value) == f"line {line}: preference list of 'a' mentions edge 'e1' twice"


def test_parse_names_the_line_of_an_unknown_edge_named_like_a_vertex():
    # "a" is first met as the record's "u", then as a vertex key in prefs
    doc = {
        "vertices": ["a", "b"],
        "edges": [{"id": "e1", "u": "a", "v": "b"}],
        "prefs": {"a": [["e1"]], "b": [["e1", "a"]]},
    }
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    line = _line_of(text, '"b": [', '"a"')
    with pytest.raises(InstanceError) as exc:
        parse_instance_text(text)
    assert str(exc.value) == f"line {line}: preference list of 'b' mentions unknown edge 'a'"
    # compact text is one line; an id escaped otherwise than json.dumps
    # escapes it is found as well, decoded as the parser decodes it
    assert re.match(r"line 1: ", _parse_error(json.dumps(doc, separators=(",", ":"))))
    doc["prefs"]["b"] = [["e1", "é"]]
    assert _parse_error(json.dumps(doc, ensure_ascii=False)) == (
        "line 1: preference list of 'b' mentions unknown edge 'é'")


@pytest.mark.parametrize("fault", ["unknown", "twice"])
@pytest.mark.parametrize("eid, write", [
    pytest.param("ghost", lambda text: text, id="ascii"),
    pytest.param("ghést", lambda text: text, id="raw-utf-8"),
    pytest.param("ghést", lambda text: text.replace("é", "\\u00E9"), id="u-escaped"),
    pytest.param("ghost", lambda text: text.replace('"ghost"', '"\\u0067host"'),
                 id="ascii-u-escaped"),
])
def test_parse_names_the_line_of_an_id_however_it_is_written(eid, write, fault):
    # the mention is found by decoding each string of the vertex's list,
    # so an id written raw or with \u escapes gets its line like any other
    doc = {
        "vertices": ["a", "b"],
        "edges": [{"id": "e", "u": "a", "v": "b"}],
        "prefs": {"a": [["e"]], "b": [["e", eid]]},
    }
    if fault == "twice":
        doc["edges"][0]["id"] = eid
        doc["prefs"] = {"a": [[eid]], "b": [[eid], [eid]]}
    text = write(json.dumps(doc, indent=2, ensure_ascii=False))
    assert (eid in text) != ("\\u" in text)  # written raw, or escaped in every mention
    # b's list closes the file, and the faulty mention is its last id
    line = max(i for i, row in enumerate(text.splitlines(), 1) if row.lstrip().startswith('"'))
    what = f"edge {eid!r} twice" if fault == "twice" else f"unknown edge {eid!r}"
    assert _parse_error(text) == f"line {line}: preference list of 'b' mentions {what}"


def _parse_error(text):
    with pytest.raises(InstanceError) as exc:
        parse_instance_text(text)
    return str(exc.value)


def test_parse_reads_each_threshold_pair_once(monkeypatch):
    # the parser hands validation one pair object per distinct pair of
    # texts, and validation reads each object once
    calls = []
    real = core._rat
    monkeypatch.setattr(core, "_rat", lambda x: calls.append(x) or real(x))
    inst = generate_random(4, 30, edge_density=0.4, parallel_prob=0.2, tie_prob=0.3,
                           weight_range=(1, 9), gamma_preset="generic")
    text = serialize_instance(inst)
    doc = json.loads(text)
    texts = {(pair["gamma"], pair["delta"])
             for sides in doc["gamma"].values() for pair in sides.values()}
    entries = sum(len(sides) for sides in doc["gamma"].values())
    weights = sum("weight" in record for record in doc["edges"])
    assert entries >= 10 * len(texts) and weights
    calls.clear()
    assert parse_instance_text(text) == inst
    assert len(calls) <= 2 * len(texts) + weights


def test_parse_accepts_third_fraction_in_matching(five_agent_market):
    assert parse_rational("1/3") == F(1, 3)


def test_check_result_detects_tampering(five_agent_market):
    inst, _, _ = five_agent_market
    m = {"u1w1": ONE, "u2w2": ONE}
    result = build_result(
        "solve-max-srti", inst, m,
        {"mode": "weak", "blocking_edges": [], "stable": True}, instance_digest(inst),
    )
    assert check_result(inst, result, instance_digest(inst)) == []
    tampered = json.loads(serialize_result(result))
    tampered["matching"]["u3w2"] = "1"
    problems = check_result(inst, tampered, instance_digest(inst))
    assert any("blocking" in p or "invalid" in p or "stats" in p for p in problems)


# -- CLI ----------------------------------------------------------------------


def write_fixture_instance(path, five_agent_market):
    inst, _, _ = five_agent_market
    save_instance(inst, str(path))
    return inst


def test_cli_generate_and_solve_roundtrip(tmp_path):
    inst_path = tmp_path / "inst.json"
    out_path = tmp_path / "result.json"
    assert main(["generate", "--seed", "3", "--n", "7", "--tie-prob", "0.4",
                 "--parallel-prob", "0.2", "--output", str(inst_path)]) == 0
    assert main(["solve-max-srti", "--input", str(inst_path),
                 "--output", str(out_path)]) == 0
    result = load_result(str(out_path))
    assert result["solver"] == "solve-max-srti"
    assert result["verification"]["stable"] is True
    assert main(["verify", "--input", str(inst_path), "--result", str(out_path)]) == 0


def test_cli_exits_1_on_a_failed_self_verification(tmp_path, monkeypatch, capsys):
    inst_path = tmp_path / "inst.json"
    out_path = tmp_path / "result.json"
    assert main(["generate", "--seed", "3", "--n", "7", "--output", str(inst_path)]) == 0

    def forced(inst):
        raise VerificationFailed("forced")

    monkeypatch.setattr(cli, "solve_max_srti", forced)
    capsys.readouterr()
    assert main(["solve-max-srti", "--input", str(inst_path),
                 "--output", str(out_path)]) == 1
    assert capsys.readouterr() == ("", "self-verification failed: forced\n")
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ["generate", "--seed", "3", "--n", "7", "--tie-prob", "0.4", "--parallel-prob", "0.2"],
    ["solve-max-srti", "--input", "{inst}"],
])
def test_cli_writes_to_stdout_what_it_writes_to_output(tmp_path, capsys, argv):
    inst_path = tmp_path / "inst.json"
    assert main(["generate", "--seed", "3", "--n", "7", "--tie-prob", "0.4",
                 "--parallel-prob", "0.2", "--output", str(inst_path)]) == 0
    argv = [arg.format(inst=inst_path) for arg in argv]
    out_path = tmp_path / "out.json"
    assert main(argv + ["--output", str(out_path)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == out_path.read_bytes()


def test_cli_solves_an_edgeless_gamma_market(tmp_path):
    inst_path = tmp_path / "inst.json"
    out_path = tmp_path / "result.json"
    assert main(["generate", "--seed", "1", "--n", "3", "--edge-density", "0",
                 "--gamma-preset", "generic", "--output", str(inst_path)]) == 0
    assert '"gamma"' not in inst_path.read_text()
    assert main(["solve-gamma", "--input", str(inst_path), "--output", str(out_path)]) == 0
    assert load_result(str(out_path))["matching"] == {}
    assert main(["verify", "--input", str(inst_path), "--result", str(out_path)]) == 0


def test_cli_byte_determinism(tmp_path):
    inst_path = tmp_path / "inst.json"
    main(["generate", "--seed", "11", "--n", "8", "--tie-prob", "0.5",
          "--output", str(inst_path)])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["solve-max-srti", "--input", str(inst_path),
                     "--output", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()

    ca, cb = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (ca, cb):
        assert main(["bench", "--seeds", "6", "--n", "6", "--oracle-bound", "7",
                     "--output", str(out)]) == 0
    assert ca.read_bytes() == cb.read_bytes()


def test_cli_verify_rejects_tampered_result(tmp_path, five_agent_market, capsys):
    inst_path = tmp_path / "inst.json"
    out_path = tmp_path / "result.json"
    write_fixture_instance(inst_path, five_agent_market)
    assert main(["solve-max-srti", "--input", str(inst_path),
                 "--output", str(out_path)]) == 0
    good = json.loads(out_path.read_text())

    # overloading a vertex makes the matching invalid outright
    doc = json.loads(json.dumps(good))
    doc["matching"]["u3w2"] = "1"
    out_path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    assert main(["verify", "--input", str(inst_path), "--result", str(out_path)]) == 1
    assert "verification failure" in capsys.readouterr().err

    # dropping an edge keeps the matching valid but leaves a blocking edge,
    # which the verifier names
    doc = json.loads(json.dumps(good))
    removed = sorted(doc["matching"])[-1]
    del doc["matching"][removed]
    out_path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    assert main(["verify", "--input", str(inst_path), "--result", str(out_path)]) == 1
    assert "blocked by" in capsys.readouterr().err


def test_cli_gamma_and_pri(tmp_path):
    inst_path = tmp_path / "inst.json"
    main(["generate", "--seed", "4", "--n", "6", "--gamma-preset", "min-like",
          "--tie-prob", "0.3", "--output", str(inst_path)])
    out_path = tmp_path / "g.json"
    assert main(["solve-gamma", "--input", str(inst_path),
                 "--output", str(out_path)]) == 0
    result = load_result(str(out_path))
    assert result["verification"]["mode"] == "gamma"
    assert result["verification"]["stable"] is True

    strict_path = tmp_path / "strict.json"
    main(["generate", "--seed", "5", "--n", "6", "--output", str(strict_path)])
    pri_path = tmp_path / "p.json"
    assert main(["solve-max-pri", "--input", str(strict_path),
                 "--output", str(pri_path), "--oracle-bound", "8"]) == 0
    result = load_result(str(pri_path))
    if "popular" in result["verification"]:
        assert result["verification"]["popular"] is True
    assert main(["verify", "--input", str(strict_path), "--result", str(pri_path),
                 "--oracle-bound", "8"]) == 0


def test_cli_pop_crit_and_maxw(tmp_path, five_agent_market, capsys):
    inst_path = tmp_path / "inst.json"
    write_fixture_instance(inst_path, five_agent_market)
    out_path = tmp_path / "c.json"
    assert main(["solve-pop-crit", "--input", str(inst_path),
                 "--critical", "w1,w2", "--output", str(out_path)]) == 0
    result = load_result(str(out_path))
    assert result["verification"]["critical"] == ["w1", "w2"]
    assert set(result["stats"]["saturated"]) >= {"w1", "w2"}

    # an unsatisfiable critical set fails cleanly
    code = main(["solve-pop-crit", "--input", str(inst_path),
                 "--critical", "u1,u2,u3", "--output", str(tmp_path / "x.json")])
    assert code == 2
    assert "no fractional matching saturates" in capsys.readouterr().err

    w_path = tmp_path / "w.json"
    assert main(["solve-pop-maxw", "--input", str(inst_path),
                 "--weights", "unit", "--output", str(w_path)]) == 0
    result = load_result(str(w_path))
    assert result["verification"]["weight"] == result["verification"]["dual_objective"]
    assert main(["verify", "--input", str(inst_path), "--result", str(w_path)]) == 0


@pytest.mark.parametrize("override", ["", ","])
def test_cli_an_empty_critical_override_records_no_critical_vertex(tmp_path, override):
    # the instance names three critical vertices; a given but empty --critical names none
    inst_path, res_path = tmp_path / "inst.json", tmp_path / "result.json"
    assert main(["generate", "--seed", "3", "--n", "8", "--edge-density", "0.5",
                 "--critical-count", "3", "--output", str(inst_path)]) == 0
    assert load_instance(str(inst_path)).critical == {"v00", "v03", "v05"}
    assert main(["solve-pop-crit", "--input", str(inst_path), "--critical", override,
                 "--output", str(res_path)]) == 0
    verification = load_result(str(res_path))["verification"]
    assert verification["critical"] == [] and verification["critical_ok"] is True
    assert main(["verify", "--input", str(inst_path), "--result", str(res_path)]) == 0


@pytest.mark.parametrize("tag, key, value, message", [
    ("solve-pop-crit", "critical_ok", False, "critical_ok flag does not re-derive"),
    ("solve-pop-maxw", "dual_objective", "999", "dual objective differs from the weight"),
])
def test_cli_verify_rejects_a_tampered_solver_claim(tmp_path, capsys, tag, key, value,
                                                    message):
    # claims the solver certified and verify re-derives from the matching:
    # every critical vertex saturated, and the dual objective equal to the weight
    inst_path, res_path = tmp_path / "inst.json", tmp_path / "result.json"
    assert main(["generate", "--seed", "2", "--n", "12", "--weight-min", "1",
                 "--weight-max", "9", "--critical-count", "2",
                 "--output", str(inst_path)]) == 0
    assert main([tag, "--input", str(inst_path), "--output", str(res_path)]) == 0
    verify = ["verify", "--input", str(inst_path), "--result", str(res_path)]
    assert main(verify) == 0
    doc = json.loads(res_path.read_text())
    doc["verification"][key] = value
    res_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(verify) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("tag, key, value, message", [
    ("solve-pop-maxw", "derived_stable", False, "derived stability flag is not true"),
    ("solve-pop-maxw", "derived_stable", "no", "derived stability flag is not true"),
    ("solve-max-pri", "popular", "yes", "popularity flag is not a JSON boolean"),
    ("solve-max-pri", "popular", 1, "popularity flag is not a JSON boolean"),
])
def test_cli_verify_rejects_a_claim_it_cannot_re_derive(tmp_path, capsys, tag, key, value,
                                                        message):
    # 22 edges, over the default oracle bound: nothing re-derives these
    # claims, so each must be the JSON value a solver writes
    inst_path, res_path = tmp_path / "inst.json", tmp_path / "result.json"
    assert main(["generate", "--seed", "2", "--n", "10", "--weight-min", "1",
                 "--weight-max", "9", "--critical-count", "2",
                 "--output", str(inst_path)]) == 0
    assert len(load_instance(str(inst_path)).edges) == 22
    assert main([tag, "--input", str(inst_path), "--output", str(res_path)]) == 0
    verify = ["verify", "--input", str(inst_path), "--result", str(res_path)]
    assert main(verify) == 0
    doc = json.loads(res_path.read_text())
    doc["verification"][key] = value
    res_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(verify) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value, message", [
    ("verification", "stable", "no", "stability flag does not re-derive"),
    ("verification", "stable", 1, "stability flag does not re-derive"),
    ("stats", "integral", 1, "stats field 'integral' does not re-derive"),
    ("stats", "critical_ok", 1, "stats field 'critical_ok' does not re-derive"),
])
def test_cli_verify_rejects_a_flag_of_the_wrong_type(tmp_path, capsys, section, key,
                                                     value, message):
    # JSON 1 equals true in Python, and any nonempty string is truthy
    inst_path, res_path = tmp_path / "inst.json", tmp_path / "result.json"
    assert main(["generate", "--seed", "1", "--n", "8", "--output", str(inst_path)]) == 0
    assert main(["solve-max-srti", "--input", str(inst_path),
                 "--output", str(res_path)]) == 0
    verify = ["verify", "--input", str(inst_path), "--result", str(res_path)]
    assert main(verify) == 0
    doc = json.loads(res_path.read_text())
    assert doc[section][key] is True
    doc[section][key] = value
    res_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(verify) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("claims", [
    {"critical_ok": False},
    {"dual_objective": "banana"},
    {"counterexample": {"matching": {}, "delta": "1"}},
    {"critical_ok": False, "dual_objective": "banana",
     "counterexample": {"matching": {}, "delta": "1"}},
], ids=["critical_ok", "dual_objective", "counterexample", "all-three"])
def test_cli_verify_rejects_a_claim_its_solver_never_writes(tmp_path, capsys, claims):
    inst_path, res_path = tmp_path / "inst.json", tmp_path / "result.json"
    assert main(["generate", "--seed", "1", "--n", "8", "--tie-prob", "0.3",
                 "--output", str(inst_path)]) == 0
    assert main(["solve-max-srti", "--input", str(inst_path),
                 "--output", str(res_path)]) == 0
    verify = ["verify", "--input", str(inst_path), "--result", str(res_path)]
    assert main(verify) == 0
    doc = json.loads(res_path.read_text())
    doc["verification"].update(claims)
    res_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(verify) == 1
    err = capsys.readouterr().err
    for key in claims:
        assert f"verification holds {key!r}, which solve-max-srti does not write" in err


@pytest.mark.parametrize("tag", list(SOLVER_CLAIMS))
def test_cli_verify_rejects_a_stats_field_no_solve_writes(tmp_path, capsys, tag):
    generate = ["--seed", "2", "--n", "12", "--weight-min", "1", "--weight-max", "9",
                "--critical-count", "2", "--gamma-preset", "generic"]
    _, inst_path, res_path = _solved(tmp_path, generate, tag)
    verify = ["verify", "--input", str(inst_path), "--result", str(res_path)]
    assert main(verify) == 0
    doc = json.loads(res_path.read_text())
    doc["stats"]["size_is_max"] = True
    res_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(verify) == 1
    assert capsys.readouterr().err == (
        "verification failure: stats holds 'size_is_max', which no solve writes\n")


@pytest.mark.parametrize("claim", ["popular", "counterexample"])
def test_cli_verify_re_derives_every_popularity_claim(tmp_path, capsys, claim):
    # each edit keeps the claims' shape, so verify passes it without the
    # oracle, and only the re-run verdict refutes it
    inst_path, res_path = tmp_path / "inst.json", tmp_path / "result.json"
    assert main(["generate", "--seed", "1", "--n", "6", "--edge-density", "0.4",
                 "--output", str(inst_path)]) == 0
    assert main(["solve-max-pri", "--input", str(inst_path), "--output", str(res_path),
                 "--oracle-bound", "8"]) == 0
    verify = ["verify", "--input", str(inst_path), "--result", str(res_path)]
    assert main([*verify, "--oracle-bound", "8"]) == 0
    doc = json.loads(res_path.read_text())
    ver = doc["verification"]
    assert ver["popular"] is True
    if claim == "popular":  # a popular matching called unpopular, beaten by no rival
        ver.update(popular=False, counterexample={"matching": {}, "delta": "-1"})
        res_path.write_text(json.dumps(doc))
    else:  # the empty matching's honest counterexample, its delta one lower
        inst = load_instance(str(inst_path))
        doc["matching"] = {}
        ver.update(_popularity_claims(inst, {}, 8, "half"))
        delta = parse_rational(ver["counterexample"]["delta"])
        assert delta < 0
        ver["counterexample"]["delta"] = format_rational(delta - 1)
        _rewrite(inst, res_path, doc)
    assert main(verify) == 0
    capsys.readouterr()
    assert main([*verify, "--oracle-bound", "8"]) == 1
    assert f"recorded {claim!r} does not re-derive" in capsys.readouterr().err


def test_cli_verify_re_runs_the_recorded_scope(tmp_path, capsys):
    # verify takes the scope off the result and has no --scope of its own,
    # so a sampled verdict re-derives from the file alone, with asserts
    # stripped too
    inst_path, res_path = tmp_path / "inst.json", tmp_path / "result.json"
    assert main(["generate", "--seed", "1", "--n", "6", "--edge-density", "0.4",
                 "--output", str(inst_path)]) == 0
    assert main(["solve-max-pri", "--input", str(inst_path), "--output", str(res_path),
                 "--oracle-bound", "8", "--scope", "sampled"]) == 0
    assert json.loads(res_path.read_text())["verification"]["popular_scope"] == \
        SCOPES["sampled"]
    verify = ["verify", "--input", str(inst_path), "--result", str(res_path),
              "--oracle-bound", "8"]
    assert main(verify) == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(core.__file__)))
    run = subprocess.run([sys.executable, "-O", "-m", "halfmatch", *verify],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                         text=True, timeout=120)
    assert (run.returncode, run.stdout, run.stderr) == (0, "ok\n", "")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([*verify, "--scope", "half"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("tag, generate, flags", [
    ("solve-max-pri", ["--seed", "1", "--n", "7", "--edge-density", "0.4"],
     ["--oracle-bound", "10"]),
    ("solve-pop-crit", ["--seed", "4", "--n", "6", "--edge-density", "0.5"],
     ["--critical", "v01,v05"]),
    ("solve-pop-maxw", ["--seed", "7", "--n", "5", "--edge-density", "0.6",
                        "--weight-min", "1", "--weight-max", "5"], []),
])
def test_check_result_re_solves_nothing_after_a_failed_one_pass_claim(
        tmp_path, monkeypatch, tag, generate, flags):
    inst_path, res_path = tmp_path / "inst.json", tmp_path / "result.json"
    assert main(["generate", *generate, "--output", str(inst_path)]) == 0
    assert main([tag, "--input", str(inst_path), "--output", str(res_path), *flags]) == 0
    inst, doc = load_instance(str(inst_path)), json.loads(res_path.read_text())
    assert len(inst.edges) <= 10
    calls = []
    for name in ("is_popular", "max_weight_dual", "is_popular_critical"):
        def counted(*args, _real=getattr(result_io, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(result_io, name, counted)
    digest = instance_digest(inst)
    assert check_result(inst, doc, digest, bound=10) == []
    assert calls  # an honest result reaches its oracle
    calls.clear()
    doc["stats"]["size"] = format_rational(parse_rational(doc["stats"]["size"]) + 1)
    assert check_result(inst, doc, digest, bound=10) == [
        "stats field 'size' does not re-derive"]
    assert calls == []


@pytest.mark.parametrize("seed, size", [(0, F(2)), (6, F(5, 2))])
def test_verify_refuses_a_popular_pri_result_below_the_maximum_size(tmp_path, capsys,
                                                                   seed, size):
    # the first popular half-matching of the given size, written as a
    # solve-max-pri result with honest stats, with and without its honest
    # popularity claims; the solver's output has size 3. Above the bound
    # its derived stability is taken on trust
    inst_path = tmp_path / "inst.json"
    assert main(["generate", "--seed", str(seed), "--n", "6", "--edge-density", "0.5",
                 "--output", str(inst_path)]) == 0
    inst = load_instance(str(inst_path))
    assert len(inst.edges) == 7 + (seed == 6)
    m = next(n for n in enumerate_half_matchings(inst, 8)
             if matching_size(n) == size and is_popular(inst, n, bound=8).popular)
    assert matching_size(solve_max_pri(inst)) == 3
    digest = instance_digest(inst)
    src = os.path.dirname(os.path.dirname(os.path.abspath(core.__file__)))
    for claims in ({}, _popularity_claims(inst, m, 8, "half")):
        res_path = tmp_path / f"pri-{len(claims)}.json"
        result = build_result("solve-max-pri", inst, m, {"derived_stable": True, **claims},
                              digest)
        res_path.write_text(serialize_result(result))
        problems = check_result(inst, result, digest, bound=8)
        assert len(problems) == 1 and problems[0].startswith(
            "a larger half-matching is popular: "), problems
        verify = ["verify", "--input", str(inst_path), "--result", str(res_path)]
        assert main(verify) == 0
        capsys.readouterr()
        assert main([*verify, "--oracle-bound", "8"]) == 1
        assert capsys.readouterr().err == f"verification failure: {problems[0]}\n"
        run = subprocess.run([sys.executable, "-O", "-m", "halfmatch", *verify,
                              "--oracle-bound", "8"], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=120)
        assert (run.returncode, run.stdout) == (1, "")
        assert run.stderr == f"verification failure: {problems[0]}\n"


DROP = object()  # stands for a deleted key
BAD_SEED = "error: the seed of a result file must be an integer or null"


@pytest.mark.parametrize("key, value, code, message", [
    ("seed", "banana", 2, BAD_SEED),
    ("seed", 1.5, 2, BAD_SEED),
    ("seed", True, 2, BAD_SEED),
    ("seed", {"seed": 1}, 2, BAD_SEED),
    ("seed", DROP, 1, "verification failure: result keys ['instance_digest', 'matching', "
     "'solver', 'stats', 'verification'] are not the six a solve writes"),
    ("note", "anything", 1, "verification failure: result keys ['instance_digest', "
     "'matching', 'note', 'seed', 'solver', 'stats', 'verification'] are not the six a "
     "solve writes"),
], ids=["seed-string", "seed-float", "seed-bool", "seed-dict", "no-seed", "extra-key"])
def test_cli_verify_reads_only_the_top_level_a_solve_writes(tmp_path, capsys, key, value,
                                                            code, message):
    # a solve writes six keys, its seed an int or null
    _, inst_path, res_path = _solved(tmp_path, ["--seed", "1", "--n", "8"], "solve-max-srti")
    verify = ["verify", "--input", str(inst_path), "--result", str(res_path)]
    doc = json.loads(res_path.read_text())
    assert sorted(doc) == RESULT_KEYS and doc["seed"] is None
    for seed in (None, 0, -3, 10 ** 30):
        res_path.write_text(json.dumps({**doc, "seed": seed}))
        assert main(verify) == 0
    if value is DROP:
        del doc[key]
    else:
        doc[key] = value
    res_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(verify) == code
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("key, value, message", [
    ("seed", "banana", "the seed of a result file must be an integer or null"),
    ("stats", [], "the 'stats' section of a result file must be an object"),
    ("verification", "weak", "the 'verification' section of a result file must be an object"),
    ("matching", ["e000"], "the 'matching' section of a result file must be an object"),
], ids=["seed-string", "stats-list", "verification-string", "matching-list"])
def test_check_result_reports_the_shape_verify_refuses(tmp_path, capsys, key, value, message):
    # one shape check: bad input to verify (exit 2), a problem to a library caller
    _, inst_path, res_path = _solved(tmp_path, ["--seed", "1", "--n", "8"], "solve-max-srti")
    inst = load_instance(str(inst_path))
    doc = {**json.loads(res_path.read_text()), key: value}
    assert check_result(inst, doc, instance_digest(inst)) == [message]
    res_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--input", str(inst_path), "--result", str(res_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


OWN = object()  # stands for the result's own matching
BAD_SCOPE = "popular_scope is not a scope label is_popular writes"
APART = "popular and popular_scope are not recorded together"
UNPAIRED = "a counterexample is recorded if and only if popular is false"


@pytest.mark.parametrize("edits, message", [
    ({"popular_scope": 7}, BAD_SCOPE),
    ({"popular_scope": "popular (every fractional rival)"}, BAD_SCOPE),
    ({"popular": None}, APART),
    ({"popular_scope": None}, APART),
    ({"counterexample": "banana"}, UNPAIRED),
    ({"popular": False}, UNPAIRED),
    ({"popular": False, "counterexample": "banana"},
     "counterexample holds other than a matching and a delta"),
    ({"popular": False, "counterexample": {"matching": OWN, "delta": "-1", "rivals": 3}},
     "counterexample holds other than a matching and a delta"),
    ({"popular": False, "counterexample": {"matching": OWN, "delta": "1/2"}},
     "counterexample invalid: its delta is not negative"),
    ({"popular": False, "counterexample": {"matching": OWN, "delta": "banana"}},
     "counterexample invalid: malformed rational 'banana'"),
    ({"popular": False, "counterexample": {"matching": {"zz": "1"}, "delta": "-1"}},
     "counterexample invalid: value for unknown edge 'zz'"),
    ({"popular": False, "counterexample": {"matching": ["e000"], "delta": "-1"}},
     "counterexample holds other than a matching and a delta"),
], ids=["scope-7", "scope-unknown", "no-popular", "no-scope", "counterexample-banana",
        "no-counterexample", "false-banana", "extra-key", "delta-positive",
        "delta-banana", "unknown-edge", "matching-list"])
def test_cli_verify_checks_popularity_claims_without_the_oracle(tmp_path, capsys, edits,
                                                                 message):
    # 8 edges: within solve-max-pri's --oracle-bound 8, over verify's default 0
    inst_path, res_path = tmp_path / "inst.json", tmp_path / "result.json"
    assert main(["generate", "--seed", "1", "--n", "6", "--output", str(inst_path)]) == 0
    assert main(["solve-max-pri", "--input", str(inst_path), "--output", str(res_path),
                 "--oracle-bound", "8"]) == 0
    verify = ["verify", "--input", str(inst_path), "--result", str(res_path)]
    assert main(verify) == 0
    doc = json.loads(res_path.read_text())
    assert doc["verification"]["popular"] is True
    for key, value in edits.items():
        if value is None:
            del doc["verification"][key]
        else:
            if isinstance(value, dict) and value.get("matching") is OWN:
                value = {**value, "matching": doc["matching"]}
            doc["verification"][key] = value
    res_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(verify) == 1
    assert f"verification failure: {message}" in capsys.readouterr().err


def test_cli_verify_accepts_an_honest_counterexample(tmp_path, capsys):
    # the single edge e000 is beaten by a rival by 4; the claims is_popular
    # writes for it pass the shape check and re-derive under the oracle.
    # A pri matching must be popular, so the oracle still refuses the
    # matching itself, and for that alone
    inst, inst_path, res_path = _solved(tmp_path, ["--seed", "1", "--n", "6"], "solve-max-pri")
    doc = json.loads(res_path.read_text())
    m = {"e000": ONE}
    doc["matching"] = format_matching(m)
    doc["verification"] = {"derived_stable": True,
                           **_popularity_claims(inst, m, 8, "half")}
    assert doc["verification"]["counterexample"]["delta"] == "-4"
    _rewrite(inst, res_path, doc)
    verify = ["verify", "--input", str(inst_path), "--result", str(res_path)]
    assert main(verify) == 0
    capsys.readouterr()
    assert main([*verify, "--oracle-bound", "8"]) == 1
    assert capsys.readouterr().err == (
        "verification failure: matching is not popular (half-integral scope)\n")


def _solved(tmp_path, generate, tag):
    """An instance from ``generate`` flags, its path and ``tag``'s result file."""
    inst_path, res_path = tmp_path / "inst.json", tmp_path / "result.json"
    assert main(["generate", *generate, "--output", str(inst_path)]) == 0
    assert main([tag, "--input", str(inst_path), "--output", str(res_path)]) == 0
    return load_instance(str(inst_path)), inst_path, res_path


def _rewrite(inst, res_path, doc):
    """Write doc back with its stats re-derived from its matching."""
    m = {eid: parse_rational(val) for eid, val in doc["matching"].items()}
    doc["stats"] = _stats_record(inst, m, doc["verification"].get("critical"))
    res_path.write_text(json.dumps(doc))


def test_cli_verify_accepts_maxw_results_under_the_oracle(tmp_path, capsys):
    # popular among maximum-weight rivals, not among all critical ones: on
    # seed 7 some critical rival beats the output by 3, but no maximum-weight one
    for seed in range(1, 41):
        _, inst_path, res_path = _solved(
            tmp_path, ["--seed", str(seed), "--n", "5", "--edge-density", "0.6",
                       "--weight-min", "1", "--weight-max", "5"], "solve-pop-maxw")
        assert main(["verify", "--input", str(inst_path), "--result", str(res_path),
                     "--oracle-bound", "10"]) == 0, seed
    capsys.readouterr()


def test_cli_verify_rejects_a_maxw_result_below_the_maximum(tmp_path, capsys):
    inst, inst_path, res_path = _solved(
        tmp_path, ["--seed", "2", "--n", "8", "--weight-min", "1", "--weight-max", "9"],
        "solve-pop-maxw")
    doc = json.loads(res_path.read_text())
    assert doc["verification"]["weight"] == "24"
    doc["matching"] = {}
    doc["verification"].update(weight="0", dual_objective="0", critical=[])
    _rewrite(inst, res_path, doc)
    capsys.readouterr()
    assert main(["verify", "--input", str(inst_path), "--result", str(res_path)]) == 1
    err = capsys.readouterr().err
    assert "recorded weight is not the maximum weight" in err
    assert "critical set is not the dual's" in err


def test_check_result_alone_rejects_a_maxw_result_below_the_maximum(tmp_path):
    # the document of the test above, with no CLI around the check
    inst, _, res_path = _solved(
        tmp_path, ["--seed", "2", "--n", "8", "--weight-min", "1", "--weight-max", "9"],
        "solve-pop-maxw")
    doc = json.loads(res_path.read_text())
    doc["matching"], doc["stats"] = {}, _stats_record(inst, {})
    doc["verification"].update(weight="0", dual_objective="0", critical=[])
    assert check_result(inst, doc, instance_digest(inst)) == [
        "recorded weight is not the maximum weight",
        "recorded critical set is not the dual's positive-potential set",
    ]


def test_check_result_alone_runs_the_critical_oracle(tmp_path):
    # seed 7's maxw output is popular among the maximum-weight rivals; as a
    # crit result on the same critical set, a critical rival beats it by 3
    inst, _, res_path = _solved(
        tmp_path, ["--seed", "7", "--n", "5", "--edge-density", "0.6", "--weight-min", "1",
                   "--weight-max", "5"], "solve-pop-maxw")
    doc, digest = json.loads(res_path.read_text()), instance_digest(inst)
    assert check_result(inst, doc, digest, bound=10) == []
    doc["solver"] = "solve-pop-crit"
    doc["verification"] = {"derived_stable": True, "critical_ok": True,
                           "critical": doc["verification"]["critical"]}
    assert check_result(inst, doc, digest) == []
    assert check_result(inst, doc, digest, bound=10) == [
        "matching is not popular among critical rivals"]


def _tied_result(tmp_path, kind):
    """A market with ties (8 edges) and a result no solver writes on it, with
    honest stats and claims: the maxw dual's witness, or an empty matching;
    both are written to files too, whose paths come last."""
    inst = generate_random(3, 8, edge_density=0.5, tie_prob=0.6, weight_range=(1, 9))
    m, ver = {}, {"derived_stable": True}
    if kind == "maxw":
        dual = max_weight_dual(inst, result_weights(inst, "instance"))
        weight = format_rational(dual.objective)
        m = dual.witness
        ver.update(weights_source="instance", weight=weight, dual_objective=weight,
                   critical=sorted(dual.critical))
    elif kind == "crit":
        ver.update(critical=[], critical_ok=True)
    elif kind == "pri-popular":
        ver.update(popular=True, popular_scope=SCOPES["half"])
    tag = {"maxw": "solve-pop-maxw", "crit": "solve-pop-crit"}.get(kind, "solve-max-pri")
    doc = build_result(tag, inst, m, ver, instance_digest(inst))
    inst_path, res_path = tmp_path / "inst.json", tmp_path / "result.json"
    save_instance(inst, str(inst_path))
    res_path.write_text(serialize_result(doc))
    return inst, doc, inst_path, res_path


@pytest.mark.parametrize("kind", ["maxw", "crit", "pri", "pri-popular"])
def test_verify_refuses_a_strict_solvers_result_on_a_market_with_ties(tmp_path, capsys,
                                                                      kind):
    inst, doc, inst_path, res_path = _tied_result(tmp_path, kind)
    assert len(inst.edges) == 8 and not inst.is_strict()
    tag = doc["solver"]
    message = f"{tag} requires strict (tie-free) preferences"
    assert main([tag, "--input", str(inst_path)]) == 2  # no solve writes such a file
    assert capsys.readouterr().err == f"error: {message}\n"
    for bound in (0, 10, 20):  # refused before any oracle runs
        assert check_result(inst, doc, instance_digest(inst), bound) == [message]
        assert main(["verify", "--input", str(inst_path), "--result", str(res_path),
                     "--oracle-bound", str(bound)]) == 1
        assert capsys.readouterr().err == f"verification failure: {message}\n"


def test_verify_refuses_popularity_claims_on_a_market_with_ties_under_python_o(tmp_path):
    # the popularity oracle would refuse the market as bad input; the
    # refusal comes first, as a failed check, with asserts stripped too
    _, _, inst_path, res_path = _tied_result(tmp_path, "pri-popular")
    src = os.path.dirname(os.path.dirname(os.path.abspath(core.__file__)))
    run = subprocess.run(
        [sys.executable, "-O", "-m", "halfmatch", "verify", "--input", str(inst_path),
         "--result", str(res_path), "--oracle-bound", "10"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stderr
    assert run.stderr == ("verification failure: solve-max-pri requires strict "
                          "(tie-free) preferences\n")


def test_verify_refuses_a_gamma_result_on_a_market_without_thresholds(tmp_path, capsys):
    # an honest srti result relabelled as solve-gamma: the market has no
    # gamma section, so the gamma rule cannot be read, and verify says so
    # as a failed check, not as bad input
    inst, inst_path, res_path = _solved(tmp_path, ["--seed", "1", "--n", "6"],
                                        "solve-max-srti")
    doc = json.loads(res_path.read_text())
    doc["solver"], doc["verification"]["mode"] = "solve-gamma", "gamma"
    res_path.write_text(serialize_result(doc))
    message = "solve-gamma requires gamma/delta on every (edge, endpoint)"
    for bound in (0, 10):
        assert check_result(inst, doc, instance_digest(inst), bound) == [message]
        capsys.readouterr()
        assert main(["verify", "--input", str(inst_path), "--result", str(res_path),
                     "--oracle-bound", str(bound)]) == 1
        assert capsys.readouterr() == ("", f"verification failure: {message}\n")


def test_solve_gamma_refuses_a_market_without_thresholds_by_its_own_name(tmp_path, capsys):
    # solve-gamma names itself, as verify and the tie refusals do, before
    # the reduction is built; no result file is written
    inst_path, res_path = tmp_path / "inst.json", tmp_path / "result.json"
    assert main(["generate", "--seed", "1", "--n", "6", "--output", str(inst_path)]) == 0
    assert not load_instance(str(inst_path)).has_full_gamma()
    capsys.readouterr()
    assert main(["solve-gamma", "--input", str(inst_path), "--output", str(res_path)]) == 2
    assert capsys.readouterr() == (
        "", "error: solve-gamma requires gamma/delta on every (edge, endpoint)\n")
    assert not res_path.exists()


def test_crit_stats_measure_the_critical_set_the_solve_used(tmp_path, capsys):
    # the file's critical set is v01, v02, v05; the solve saturates the
    # override and leaves v02 open, and both critical_ok claims say true
    inst_path, res_path = tmp_path / "inst.json", tmp_path / "result.json"
    assert main(["generate", "--seed", "2", "--n", "9", "--edge-density", "0.3",
                 "--critical-count", "3", "--output", str(inst_path)]) == 0
    inst = load_instance(str(inst_path))
    assert sorted(inst.critical) == ["v01", "v02", "v05"]
    assert main(["solve-pop-crit", "--input", str(inst_path), "--critical", "v00,v03,v04",
                 "--output", str(res_path)]) == 0
    doc = load_result(str(res_path))
    assert "v02" in doc["stats"]["unsaturated"]
    assert doc["stats"]["critical_ok"] is doc["verification"]["critical_ok"] is True
    capsys.readouterr()
    assert main(["verify", "--input", str(inst_path), "--result", str(res_path)]) == 0
    assert capsys.readouterr().out == "ok\n"
    # a stats field measured against the file's set no longer re-derives
    doc["stats"]["critical_ok"] = False
    assert check_result(inst, doc, instance_digest(inst)) == [
        "stats field 'critical_ok' does not re-derive"]


def test_maxw_stats_measure_the_dual_critical_set(tmp_path):
    # the maxw output leaves part of the file's critical set open, but
    # saturates every positive-potential vertex, the set it records
    inst, inst_path, res_path = _solved(
        tmp_path, ["--seed", "3", "--n", "8", "--weight-min", "1", "--weight-max", "9",
                   "--critical-count", "3"], "solve-pop-maxw")
    doc = load_result(str(res_path))
    assert not inst.critical <= set(doc["stats"]["saturated"])
    assert doc["stats"]["critical_ok"] is True
    assert check_result(inst, doc, instance_digest(inst), bound=10) == []


def _sweep_claims(tag, inst):
    """The claims ``tag`` writes, with values of the types it writes."""
    return {
        "solve-max-srti": {"mode": "weak", "blocking_edges": [], "stable": True},
        "solve-gamma": {"mode": "gamma", "blocking_edges": [], "stable": True},
        "solve-max-pri": {"derived_stable": True},
        "solve-pop-crit": {"derived_stable": True, "critical": sorted(inst.critical),
                           "critical_ok": True},
        "solve-pop-maxw": {"derived_stable": True, "weights_source": "instance",
                           "weight": "0", "dual_objective": "0", "critical": []},
    }[tag]


def test_check_result_returns_a_list_and_never_raises():
    calls = 0
    for seed, tie, preset, weights, count in itertools.product(
            range(4), (0, 0.4), ("none", "generic"), (None, (1, 9)), (0, 2)):
        inst = generate_random(seed, 6, tie_prob=tie, gamma_preset=preset,
                               weight_range=weights, critical_count=count)
        digest = instance_digest(inst)
        for m, tag, bound in itertools.product(
                (solve_max_srti(inst), {}), SOLVER_CLAIMS, (0, 8)):
            doc = build_result(tag, inst, m, _sweep_claims(tag, inst), digest)
            problems = check_result(inst, doc, digest, bound)
            assert isinstance(problems, list) and {str}.issuperset(map(type, problems))
            calls += 1
    assert calls == 1280


def test_cli_verify_demands_every_claim_of_the_solver(tmp_path, capsys):
    # an srti file that keeps no claim, with an empty matching every edge blocks
    inst, inst_path, res_path = _solved(tmp_path, ["--seed", "1", "--n", "8"],
                                        "solve-max-srti")
    verify = ["verify", "--input", str(inst_path), "--result", str(res_path)]
    doc = json.loads(res_path.read_text())
    doc["verification"], doc["matching"] = {}, {}
    _rewrite(inst, res_path, doc)
    capsys.readouterr()
    assert main(verify) == 1
    assert "verification lacks the 'stable' claim" in capsys.readouterr().err

    # a crit file without its critical set, leaving a critical vertex open
    inst, inst_path, res_path = _solved(
        tmp_path, ["--seed", "2", "--n", "12", "--weight-min", "1", "--weight-max", "9",
                   "--critical-count", "2"], "solve-pop-crit")
    doc = json.loads(res_path.read_text())
    assert doc["verification"]["critical"] == ["v07", "v08"]
    del doc["verification"]["critical"], doc["verification"]["critical_ok"]
    doc["matching"] = {eid: val for eid, val in doc["matching"].items()
                       if "v07" not in (inst.edge(eid).u, inst.edge(eid).v)}
    _rewrite(inst, res_path, doc)
    capsys.readouterr()
    assert main(verify) == 1
    assert "verification lacks the 'critical' claim" in capsys.readouterr().err


@pytest.mark.parametrize("critical", [
    ["v08", "v01"], ["v01", "v08", "v01", "v08"], ["v01", "v01", "v08"],
], ids=["reversed", "doubled", "repeated"])
def test_cli_verify_rejects_a_critical_list_no_solve_writes(tmp_path, capsys, critical):
    # a solve writes its critical set sorted, each vertex once; the same set
    # in another order or with repeats is a claim no solver makes
    inst, inst_path, res_path = _solved(
        tmp_path, ["--seed", "3", "--n", "10", "--critical-count", "2"], "solve-pop-crit")
    verify = ["verify", "--input", str(inst_path), "--result", str(res_path)]
    doc = json.loads(res_path.read_text())
    assert doc["verification"]["critical"] == ["v01", "v08"]
    assert main(verify) == 0
    doc["verification"]["critical"] = critical
    _rewrite(inst, res_path, doc)
    capsys.readouterr()
    assert main(verify) == 1
    assert "critical set is not sorted without repeats" in capsys.readouterr().err


def test_cli_verify_accepts_the_empty_critical_list_a_solve_writes(tmp_path):
    # --critical , names no vertex: the solve records [] and verify accepts it
    inst_path, res_path = tmp_path / "inst.json", tmp_path / "result.json"
    assert main(["generate", "--seed", "3", "--n", "10", "--critical-count", "2",
                 "--output", str(inst_path)]) == 0
    assert main(["solve-pop-crit", "--input", str(inst_path), "--critical", ",",
                 "--output", str(res_path)]) == 0
    assert json.loads(res_path.read_text())["verification"]["critical"] == []
    assert main(["verify", "--input", str(inst_path), "--result", str(res_path)]) == 0


@pytest.mark.parametrize("tag, key, value, message", [
    ("solve-max-srti", "solver", "solve-max-anything", "unknown solver tag"),
    ("solve-max-srti", "solver", ["solve-max-srti"], "unknown solver tag"),
    ("solve-max-srti", "mode", "gamma", "mode is not 'weak'"),
    ("solve-gamma", "mode", "weak", "mode is not 'gamma'"),
    ("solve-pop-maxw", "weights_source", "bogus", "weights_source is neither"),
])
def test_cli_verify_reads_the_claims_off_the_solver_tag(tmp_path, capsys, tag, key,
                                                        value, message):
    _, inst_path, res_path = _solved(
        tmp_path, ["--seed", "3", "--n", "8", "--gamma-preset", "generic",
                   "--weight-min", "1", "--weight-max", "4"], tag)
    doc = json.loads(res_path.read_text())
    if key == "solver":
        doc["solver"] = value
    else:
        doc["verification"][key] = value
    res_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--input", str(inst_path), "--result", str(res_path)]) == 1
    assert message in capsys.readouterr().err


def test_cli_bench_ratio_column(tmp_path):
    csv_path = tmp_path / "bench.csv"
    assert main(["bench", "--seeds", "12", "--n", "6", "--oracle-bound", "8",
                 "--tie-prob", "0.5", "--output", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "seed,n,edges,mode,size,oracle,ratio"
    assert len(lines) == 13
    for line in lines[1:]:
        seed, n, edges, mode, size, oracle, ratio = line.split(",")
        assert mode == "weak"
        if ratio:
            assert parse_rational(ratio) <= F(3, 2)


#: flags generate and bench share, each one, --bipartite and every gamma preset
#: covered; explicit zeros for the flags whose defaults differ between the two
MARKET_FLAGS = [
    [],
    ["--edge-density", "0.3"],
    ["--parallel-prob", "0.5"],
    ["--tie-prob", "0.6"],
    ["--parallel-prob", "0", "--tie-prob", "0", "--edge-density", "0.8"],
    ["--bipartite"],
    ["--gamma-preset", "min-like", "--edge-density", "0.3"],
    ["--gamma-preset", "max-like", "--parallel-prob", "0.3"],
    ["--gamma-preset", "generic", "--bipartite", "--edge-density", "0.7", "--tie-prob", "0.2"],
]


def _stdout(capsys, argv):
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out


def test_generate_and_bench_output_matches_the_golden_digest(capsys):
    digest = hashlib.sha256()
    for flags in MARKET_FLAGS:
        for seed in range(3):
            digest.update(_stdout(capsys, ["generate", "--seed", str(seed), "--n", "7",
                                           *flags]).encode())
        digest.update(_stdout(capsys, ["bench", "--seeds", "3", "--n", "7", *flags]).encode())
    assert digest.hexdigest() == (
        "f6cca578b9ef43c5610afed841075b71d1f2cb76e0fc8626539e952edc4923ee"
    )


def test_result_files_match_the_golden_digest(tmp_path, capsys):
    # every solve's result bytes on one market with weights, thresholds and
    # a critical set, the pri result with its popularity claims
    inst_path = tmp_path / "inst.json"
    assert main(["generate", "--seed", "2", "--n", "9", "--edge-density", "0.3",
                 "--weight-min", "1", "--weight-max", "9", "--critical-count", "2",
                 "--gamma-preset", "generic", "--output", str(inst_path)]) == 0
    digest = hashlib.sha256()
    for tag in SOLVER_CLAIMS:
        extra = ["--oracle-bound", "12"] if tag == "solve-max-pri" else []
        digest.update(_stdout(capsys, [tag, "--input", str(inst_path), "--seed", "2",
                                       *extra]).encode())
    assert digest.hexdigest() == (
        "8d7e28c16d08b4cc37a032519927157b0fd7dcb9e1320b483b0b62efcd50b2d3"
    )


@pytest.mark.parametrize("flags", MARKET_FLAGS)
def test_a_bench_row_is_the_solve_of_the_generated_market(tmp_path, capsys, flags):
    # bench's defaults given to generate explicitly; a later flag overrides them
    rows = _stdout(capsys, ["bench", "--seeds", "3", "--n", "7", *flags]).splitlines()[1:]
    tag = "solve-gamma" if "--gamma-preset" in flags else "solve-max-srti"
    inst_path, res_path = tmp_path / "inst.json", tmp_path / "result.json"
    for seed, row in enumerate(rows):
        assert main(["generate", "--seed", str(seed), "--n", "7", "--parallel-prob", "0.2",
                     "--tie-prob", "0.4", *flags, "--output", str(inst_path)]) == 0
        inst = load_instance(str(inst_path))
        assert main([tag, "--input", str(inst_path), "--output", str(res_path)]) == 0
        size = load_result(str(res_path))["stats"]["size"]
        assert row.split(",")[:5] == [str(seed), "7", str(len(inst.edges)),
                                      MODES[tag], size], (flags, seed)


def test_cli_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve-max-srti", "--input", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["solve-max-srti", "--input", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("argv", [
    ["generate", "--seed", "1", "--n", "-1"],
    ["generate", "--seed", "1", "--n", "4", "--edge-density", "2"],
    ["generate", "--seed", "1", "--n", "4", "--critical-count", "9"],
    ["generate", "--seed", "1", "--n", "4", "--weight-min", "5", "--weight-max", "1"],
    ["bench", "--seeds", "1", "--n", "4", "--edge-density", "2"],
    ["bench", "--seeds", "1", "--n", "-3"],
    ["bench", "--seeds", "-2", "--n", "4"],
])
def test_cli_rejects_out_of_range_generator_flags(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a single flag itself
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("kwargs, message", [
    ({"n": -1}, "n must be nonnegative"),
    ({"edge_density": 1.5}, r"probabilities must lie in \[0, 1\]"),
    ({"parallel_prob": -0.1}, r"probabilities must lie in \[0, 1\]"),
    ({"tie_prob": 2}, r"probabilities must lie in \[0, 1\]"),
    ({"gamma_preset": "huge"}, "gamma_preset must be one of"),
    ({"weight_range": (5, 1)}, "empty weight range"),
    ({"critical_count": 5}, "critical_count 5 is not in"),
    ({"critical_count": -1}, "critical_count -1 is not in"),
])
def test_generator_rejects_a_bad_argument(kwargs, message):
    args = {"n": 4, **kwargs}
    with pytest.raises(InstanceError, match=message):
        generate_random(1, **args)


def test_solve_writes_its_solvers_claims_without_re_checking_them(tmp_path, monkeypatch):
    """Every solve records what its solver certified; only `verify` re-derives it."""
    inst = tmp_path / "inst.json"
    assert main(["generate", "--seed", "2", "--n", "12", "--weight-min", "1", "--weight-max",
                 "9", "--critical-count", "2", "--gamma-preset", "generic",
                 "--output", str(inst)]) == 0

    def refuse(*args):
        raise AssertionError("a solve re-derived its result with check_result")

    monkeypatch.setattr("halfmatch.cli.check_result", refuse)
    for tag in SOLVER_CLAIMS:
        assert main([tag, "--input", str(inst), "--output", str(tmp_path / tag)]) == 0
    monkeypatch.undo()
    for tag in SOLVER_CLAIMS:
        assert main(["verify", "--input", str(inst), "--result", str(tmp_path / tag)]) == 0


#: every (edge, endpoint) has thresholds, with denominators 2, 3, 5 and 7
_GAMMA_2357 = {
    "ab": {"a": {"gamma": "1/2", "delta": "3/2"}, "b": {"gamma": "1/3", "delta": "5/3"}},
    "bc": {"b": {"gamma": "2/5", "delta": "7/5"}, "c": {"gamma": "3/7", "delta": "10/7"}},
    "ca": {"c": {"gamma": "1/2", "delta": "4/3"}, "a": {"gamma": "3/5", "delta": "9/7"}},
    "cd": {"c": {"gamma": "5/7", "delta": "6/5"}, "d": {"gamma": "2/3", "delta": "5/2"}},
}


def test_cli_gamma_thresholds_over_several_denominators(tmp_path, capsys):
    doc = {"vertices": ["a", "b", "c", "d"],
           "edges": [{"id": eid, "u": eid[0], "v": eid[1]} for eid in _GAMMA_2357],
           "prefs": {"a": [["ab"], ["ca"]], "b": [["bc"], ["ab"]],
                     "c": [["ca"], ["bc", "cd"]], "d": [["cd"]]},
           "gamma": _GAMMA_2357}
    path, out = tmp_path / "gamma.json", tmp_path / "out.json"
    path.write_text(json.dumps(doc))
    assert parse_instance_text(path.read_text()).scaled_gamma()[0] == 210
    assert main(["solve-gamma", "--input", str(path), "--output", str(out)]) == 0
    assert main(["verify", "--input", str(path), "--result", str(out)]) == 0
    doc = copy.deepcopy(doc)
    doc["gamma"]["ca"]["a"] = {"gamma": "3/5", "delta": "4/7"}  # 3/5 >= 4/7
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["solve-gamma", "--input", str(path), "--output", str(out)]) == 2
    assert "edge 'ca' at 'a': gamma must be positive and < delta" in capsys.readouterr().err


def _pair_market(**extra):
    doc = {
        "vertices": ["a", "b"],
        "edges": [{"id": "ab", "u": "a", "v": "b"}],
        "prefs": {"a": [["ab"]], "b": [["ab"]]},
    }
    doc.update(extra)
    return doc


def test_cli_rejects_a_critical_set_given_as_a_string(tmp_path, capsys):
    # "ab" would otherwise iterate as the vertex set {a, b}
    path = tmp_path / "crit.json"
    path.write_text(json.dumps(_pair_market(critical="ab")))
    out = tmp_path / "out.json"
    assert main(["solve-pop-crit", "--input", str(path), "--output", str(out)]) == 2
    assert "critical set must be a list" in capsys.readouterr().err
    assert not out.exists()
    path.write_text(json.dumps(_pair_market(critical=["a", "b"])))
    assert main(["solve-pop-crit", "--input", str(path), "--output", str(out)]) == 0


@pytest.mark.parametrize("sides", [
    {"a": {"gamma": "1/2"}, "b": {"gamma": "1/2", "delta": "3/2"}},
    {"a": {"delta": "3/2"}, "b": {"gamma": "1/2", "delta": "3/2"}},
    {"a": "1/2", "b": {"gamma": "1/2", "delta": "3/2"}},
    ["a", "b"],
    {"a": {"gamma": 0.5, "delta": "3/2"}, "b": {"gamma": "1/2", "delta": "3/2"}},
    # unhashable values must not reach the parser's memo of rationals
    {"a": {"gamma": ["1/2"], "delta": "3/2"}, "b": {"gamma": "1/2", "delta": "3/2"}},
    {"a": {"gamma": "1/2", "delta": {}}, "b": {"gamma": "1/2", "delta": "3/2"}},
])
def test_cli_rejects_a_malformed_gamma_entry(tmp_path, capsys, sides):
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps(_pair_market(gamma={"ab": sides})))
    with pytest.raises(InstanceError, match="malformed gamma section"):
        parse_instance_text(path.read_text())
    assert main(["solve-gamma", "--input", str(path),
                 "--output", str(tmp_path / "out.json")]) == 2
    assert "malformed gamma section" in capsys.readouterr().err


@pytest.mark.parametrize("doc, message", [
    # "ab" would otherwise iterate as the vertex set {a, b}
    pytest.param(_pair_market(vertices="ab"), "vertex set must be a list",
                 id="vertex-set-as-string"),
    pytest.param(_pair_market(vertices=[["a"], "b"]), "vertex set must be a list",
                 id="unhashable-vertex"),
    pytest.param(_pair_market(edges=3), "edges section must be a list",
                 id="edges-not-a-list"),
    pytest.param(_pair_market(edges=[{"id": ["ab"], "u": "a", "v": "b"}]),
                 "ids must be strings", id="unhashable-edge-id"),
    pytest.param(_pair_market(prefs=[["ab"]]), "prefs section must map",
                 id="prefs-as-list"),
    pytest.param(_pair_market(prefs={"a": 5, "b": [["ab"]]}),
                 "must be a list of tie groups", id="tie-groups-not-a-list"),
    pytest.param(_pair_market(prefs={"a": [[["ab"]]], "b": [["ab"]]}),
                 "must contain tie groups", id="unhashable-tie-group-entry"),
    pytest.param(_pair_market(prefs={"a": [["ab"]], "b": [["ab"]], "z": []}),
                 "unknown vertex 'z'", id="prefs-for-unknown-vertex"),
    pytest.param(_pair_market(critical=[["a"]]), "critical set must be a list",
                 id="unhashable-critical-vertex"),
    pytest.param(5, "must hold a JSON object", id="top-level-number"),
])
def test_cli_rejects_a_malformed_instance_file(tmp_path, capsys, doc, message):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InstanceError, match=message):
        parse_instance_text(path.read_text())
    out = tmp_path / "out.json"
    assert main(["solve-max-srti", "--input", str(path), "--output", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    pytest.param(None, [], id="top-level-list"),
    pytest.param("matching", ["ab"], id="matching-as-list"),
    pytest.param("stats", "size 1", id="stats-as-string"),
    pytest.param("verification", 1, id="verification-as-number"),
    pytest.param("critical", 5, id="critical-as-number"),
    pytest.param("critical", [["a"]], id="unhashable-critical-vertex"),
    # "a" would otherwise iterate as the vertex set {a}
    pytest.param("critical", "a", id="critical-as-string"),
    pytest.param("critical", None, id="critical-as-null"),
    pytest.param("matching-value", 1, id="matching-value-as-number"),
    pytest.param("matching-value", None, id="matching-value-as-null"),
    pytest.param("matching-value", ["1"], id="matching-value-as-list"),
    pytest.param("matching-value", "abc", id="matching-value-not-a-rational"),
    pytest.param("matching-value", "1/0", id="matching-value-zero-denominator"),
])
def test_cli_rejects_a_malformed_result_file(tmp_path, capsys, key, value):
    inst_path = tmp_path / "inst.json"
    res_path = tmp_path / "result.json"
    inst_path.write_text(json.dumps(_pair_market()))
    assert main(["solve-max-srti", "--input", str(inst_path),
                 "--output", str(res_path)]) == 0
    doc = json.loads(res_path.read_text())
    if key is None:
        doc = value
    elif key == "critical":
        doc["verification"]["critical"] = value
    elif key == "matching-value":
        doc["matching"]["ab"] = value
    else:
        doc[key] = value
    res_path.write_text(json.dumps(doc))
    with pytest.raises(InstanceError, match="must be an object|must hold a JSON object"
                                            "|must be a list|malformed rational"):
        load_result(str(res_path))
    for oracle in ([], ["--oracle-bound", "5"]):
        assert main(["verify", "--input", str(inst_path), "--result", str(res_path),
                     *oracle]) == 2
        assert "error:" in capsys.readouterr().err


def test_cli_verify_names_an_unknown_critical_vertex(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    res_path = tmp_path / "result.json"
    inst_path.write_text(json.dumps(_pair_market(critical=["a", "b"])))
    assert main(["solve-pop-crit", "--input", str(inst_path),
                 "--output", str(res_path)]) == 0
    doc = json.loads(res_path.read_text())
    doc["verification"]["critical"] = ["zz"]
    res_path.write_text(json.dumps(doc))
    for oracle in ([], ["--oracle-bound", "5"]):
        assert main(["verify", "--input", str(inst_path), "--result", str(res_path),
                     *oracle]) == 1
        assert "unknown vertices: ['zz']" in capsys.readouterr().err


@pytest.mark.parametrize("weight", [3, 1.5, None, ["1"]])
def test_cli_rejects_a_weight_that_is_not_a_string(tmp_path, capsys, weight):
    doc = _pair_market()
    doc["edges"][0]["weight"] = weight
    path = tmp_path / "weight.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InstanceError, match="malformed rational"):
        parse_instance_text(path.read_text())
    assert main(["solve-max-srti", "--input", str(path),
                 "--output", str(tmp_path / "out.json")]) == 2
    assert "malformed rational" in capsys.readouterr().err
    doc["edges"][0]["weight"] = "3"
    path.write_text(json.dumps(doc))
    assert main(["solve-pop-maxw", "--input", str(path),
                 "--output", str(tmp_path / "out.json")]) == 0


def test_cli_refuses_a_weight_with_an_exponent(tmp_path, capsys):
    # written back, "1e5000" would be an int past str()'s digit limit
    doc = _pair_market()
    doc["edges"][0]["weight"] = "1e5000"
    path = tmp_path / "weight.json"
    path.write_text(json.dumps(doc))
    assert main(["solve-pop-maxw", "--input", str(path),
                 "--output", str(tmp_path / "out.json")]) == 2
    assert "malformed rational '1e5000'" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("where", ["instance", "result"])
def test_cli_refuses_a_json_number_past_the_int_digit_limit(tmp_path, capsys, where):
    # json reads a number of 5,000 digits by int(), which refuses it
    many = "1" * 5000
    inst_path, out = tmp_path / "inst.json", tmp_path / "out.json"
    inst_path.write_text(json.dumps(_pair_market()))
    if where == "instance":
        text = inst_path.read_text().replace('"v": "b"', f'"v": "b", "weight": {many}')
        inst_path.write_text(text)
        argv = ["solve-pop-maxw", "--input", str(inst_path), "--output", str(out)]
    else:
        assert main(["solve-pop-maxw", "--input", str(inst_path), "--output", str(out)]) == 0
        result = json.loads(out.read_text())
        result["matching"]["ab"] = "many"
        out.write_text(json.dumps(result).replace('"many"', many))
        argv = ["verify", "--input", str(inst_path), "--result", str(out)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "not valid JSON" in err and "Traceback" not in err


# one ASCII grammar on every Python: "1_000" was read from 3.11 on, "1 /2"
# from 3.12 on and non-ASCII digits everywhere, each by Fraction's own parser
@pytest.mark.parametrize("text", ["1_000", "1 /2", "1/ 2", "\u0661/\u0662", "\uff11",
                                  "1e3", "1/0",
                                  # in the grammar, but past int's limit of 4,300 digits
                                  pytest.param("1" * 5000, id="5000-digit-int"),
                                  pytest.param("0." + "1" * 5000, id="5000-digit-decimal")])
@pytest.mark.parametrize("where", ["weight", "gamma", "matching"])
def test_cli_refuses_a_rational_outside_the_ascii_grammar(tmp_path, capsys, where, text):
    doc = _pair_market()
    pair = {"gamma": "1", "delta": "2"}
    doc["gamma"] = {"ab": {"a": pair, "b": dict(pair)}}
    inst_path, out = tmp_path / "inst.json", tmp_path / "out.json"
    if where == "weight":
        doc["edges"][0]["weight"] = text
    elif where == "gamma":
        doc["gamma"]["ab"]["b"]["delta"] = text
    inst_path.write_text(json.dumps(doc))
    if where == "matching":
        assert main(["solve-gamma", "--input", str(inst_path), "--output", str(out)]) == 0
        result = json.loads(out.read_text())
        result["matching"]["ab"] = text
        out.write_text(json.dumps(result))
        argv = ["verify", "--input", str(inst_path), "--result", str(out)]
    else:
        argv = [{"weight": "solve-pop-maxw", "gamma": "solve-gamma"}[where],
                "--input", str(inst_path), "--output", str(out)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "malformed" in err and "Traceback" not in err  # the rational, or the gamma section
    if where != "matching":
        assert not out.exists()


@pytest.mark.parametrize("text", ["1/2", " 1/2 ", "+1/2", "0.5", ".5", "1.", "2/4"])
def test_cli_reads_the_ascii_grammar(tmp_path, text):
    doc = _pair_market()
    doc["edges"][0]["weight"] = text
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    assert main(["solve-pop-maxw", "--input", str(path),
                 "--output", str(tmp_path / "out.json")]) == 0
    assert load_instance(str(path)).weights == {"ab": Fraction(1, 2) if text != "1." else 1}


@pytest.mark.parametrize("tag, flag", [
    ("solve-max-srti", ["--weights", "unit"]),
    ("solve-max-srti", ["--critical", "a"]),
    ("solve-gamma", ["--oracle-bound", "3"]),
    ("solve-gamma", ["--scope", "sampled"]),
    ("solve-max-pri", ["--weights", "unit"]),
    ("solve-pop-crit", ["--oracle-bound", "3"]),
    ("solve-pop-maxw", ["--critical", "a"]),
    ("solve-pop-maxw", ["--scope", "half"]),
])
def test_solve_subcommands_reject_flags_they_do_not_read(tmp_path, capsys, tag, flag):
    sides = {"a": {"gamma": "1/2", "delta": "3/2"}, "b": {"gamma": "1/2", "delta": "3/2"}}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_pair_market(critical=["a", "b"], gamma={"ab": sides})))
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main([tag, "--input", str(path), "--output", str(out), *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert main([tag, "--input", str(path), "--output", str(out)]) == 0


_BAD_BYTES = {
    "not-utf-8": b"\xff\xfe{}",
    "deeply-nested": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("role", [*(f"{tag} --input" for tag in SOLVER_CLAIMS),
                                  "verify --input", "verify --result"])
@pytest.mark.parametrize("content", sorted(_BAD_BYTES))
def test_cli_rejects_an_unreadable_file_as_bad_input(tmp_path, capsys, role, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(_BAD_BYTES[content])
    good = tmp_path / "inst.json"
    good.write_text(json.dumps(_pair_market()))
    result = tmp_path / "result.json"
    assert main(["solve-max-srti", "--input", str(good), "--output", str(result)]) == 0
    capsys.readouterr()
    command, flag = role.split()
    if command != "verify":
        argv = [command, "--input", str(bad), "--output", str(tmp_path / "out.json")]
    elif flag == "--input":
        argv = ["verify", "--input", str(bad), "--result", str(result)]
    else:
        argv = ["verify", "--input", str(good), "--result", str(bad)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


# -- fuzzing the CLI contract ---------------------------------------------------

SOLVE_TAGS = ("solve-max-srti", "solve-gamma", "solve-max-pri",
              "solve-pop-crit", "solve-pop-maxw")
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.sampled_from([0.5, -1.0]),
    st.text("abv0~/1", max_size=4), st.sampled_from(["v00", "e0", "1/2", "weak"]),
    st.lists(st.text("av0", max_size=3), max_size=2),
    st.just([["e0"]]), st.just({}), st.just({"gamma": "1/2"}),
)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A market every solver accepts, and one result file per solver."""
    work = tmp_path_factory.mktemp("fuzz")
    inst = generate_random(1, 5, edge_density=0.6, weight_range=(1, 3),
                           gamma_preset="generic", critical_count=1)
    inst_path = work / "inst.json"
    save_instance(inst, str(inst_path))
    files = {"instance": json.loads(inst_path.read_text())}
    for tag in SOLVE_TAGS:
        out = work / f"{tag}.json"
        extra = ["--oracle-bound", "8"] if tag == "solve-max-pri" else []
        assert main([tag, "--input", str(inst_path), "--output", str(out), *extra]) == 0
        files[tag] = json.loads(out.read_text())
    return work, files


def _paths(doc, path=()):
    """Every position in a JSON document, as a tuple of keys and indices."""
    yield path
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        return
    for key, child in children:
        yield from _paths(child, path + (key,))


def _mutate(data, doc):
    """doc with one value replaced by junk, one key dropped, or one key added."""
    path = (0,) + data.draw(st.sampled_from(list(_paths(doc))))
    action = data.draw(st.sampled_from(["replace", "drop", "add"]))
    root = [copy.deepcopy(doc)]  # so that the top level has a parent too
    parent = functools.reduce(lambda node, key: node[key], path[:-1], root)
    if action == "replace":
        parent[path[-1]] = data.draw(JUNK)
    elif action == "drop" and len(path) > 1:
        del parent[path[-1]]
    elif action == "add" and isinstance(parent[path[-1]], dict):
        key = data.draw(st.sampled_from(["critical", "gamma", "weight", "popular", "x"]))
        parent[path[-1]][key] = data.draw(JUNK)
    return root[0]


def _is_rational(text):
    try:
        Fraction(text.strip())
    except (AttributeError, TypeError, ValueError, ZeroDivisionError):
        return False
    return True


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_cli_contract_holds_on_mutated_files(valid_files, data):
    # solve-* exits 0 or 2 and verify 0, 1 or 2; main never raises
    work, files = valid_files
    inst_path, res_path = work / "mutated-inst.json", work / "mutated-result.json"
    target = data.draw(st.sampled_from(sorted(files)))
    tag = target if target != "instance" else data.draw(st.sampled_from(SOLVE_TAGS))
    mutated = _mutate(data, files[target])
    inst_path.write_text(json.dumps(mutated if target == "instance" else files["instance"]))
    res_path.write_text(json.dumps(mutated if target != "instance" else files[tag]))
    oracle = data.draw(st.sampled_from([[], ["--oracle-bound", "8"]]))
    # a matching value that is not a rational string is malformed input,
    # not a verification failure
    matching = mutated.get("matching") if isinstance(mutated, dict) else None
    malformed = (target != "instance" and isinstance(matching, dict)
                 and not all(_is_rational(x) for x in matching.values()))
    # a verification field its solver never writes is a claim verify must refuse
    ver = mutated.get("verification") if isinstance(mutated, dict) else None
    writes = SOLVER_CLAIMS[tag] + (POPULARITY_CLAIMS if tag == "solve-max-pri" else ())
    foreign = (target != "instance" and isinstance(ver, dict)
               and any(key not in writes for key in ver))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        if target == "instance":
            argv = [tag, "--input", str(inst_path), "--output", str(work / "out.json")]
            assert main(argv) in (0, 2)
        code = main(["verify", "--input", str(inst_path), "--result", str(res_path), *oracle])
    assert code in ((2,) if malformed else (1, 2) if foreign else (0, 1, 2))
