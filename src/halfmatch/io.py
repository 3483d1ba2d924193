"""Instance and result files.

Both formats are canonical JSON (sorted keys, two-space indent, trailing
newline) so identical inputs produce byte-identical files. Numbers are
exact rationals, never floats, and travel as "p/q" strings ("3", "1/2").
The canonical text of a document is, by definition,
``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``; result files are
written by that call. Instance files are written in one pass over the
stored rank view of the market, to the same bytes and without the
pure-Python encoder an indent forces: every result names its instance by
the digest of that text, so each request writes it once. The tests keep
the ``json.dumps`` form as the writer's oracle.

An instance file stores preferences *ordinally*: per vertex, a list of
tie groups of edge ids, best group first. The parser hands every section
as read to the constructor of ``core``, which reads each once: it makes
the edges, sorts each tie group by edge rank, skips empty ones and values
the rest by their count down to 1, as ``int``s, and keys each end's gamma
and delta, read on that scale, on their two texts. Only a file found at
fault is read again, to name its own first fault before the market's.
Serializing cuts each vertex's order at its tie-group starts, so parse
and serialize are inverse on canonical files.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from functools import cache, partial
from itertools import chain
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from typing import Any, Mapping

from .core import (
    ONE,
    Edge,
    Instance,
    InstanceError,
    MatchingError,
    Rational,
    ZERO,
    _instance,
    _rat,
    blocking_edges,
    check_matching,
    matching_size,
    matching_stats,
)
from .engine import enumerate_half_matchings
from .popularity import SCOPES, dual_worst, is_popular, is_popular_critical
from .solvers import max_weight_dual, restrict_to_edges


def format_rational(x: Rational) -> str:
    if type(x) is not int and not isinstance(x, Fraction):
        x = _rat(x)
    d = x.denominator
    return str(x.numerator) if d == 1 else f"{x.numerator}/{d}"


def parse_rational(text: str) -> Fraction:
    """``text`` read by ``core._rat``, in the one ASCII grammar every
    supported Python reads alike; no exponent ("1e5000" is a few bytes but
    a huge int)."""
    if not isinstance(text, str):
        raise InstanceError(f"malformed rational {text!r}: not a string")
    try:
        return _rat(text)
    except InstanceError:
        raise InstanceError(f"malformed rational {text!r}") from None


# ---------------------------------------------------------------------------
# instance files


def serialize_instance(inst: Instance) -> str:
    """The canonical text of ``inst``, in one pass over the rank view.

    Keys come in sorted order (critical, edges, gamma, prefs, vertices),
    and every id is escaped by the function ``json.dumps`` itself uses.
    Edges and thresholds go by edge rank, an edge's two ends in name order;
    tie groups are each vertex's order cut at its tie-group starts.
    """
    qv = {v: _quote(v) for v in inst.vertices}
    qe = [_quote(e.eid) for e in inst.edges]  # by edge rank
    tails = {eid: f',\n      "weight": "{format_rational(w)}"'
             for eid, w in (inst.weights or {}).items()}
    doc = []  # each section's pieces are dropped once joined
    if inst.critical:
        doc.append('  "critical": ' + _block([f"    {qv[v]}" for v in sorted(inst.critical)]))
    doc.append('  "edges": ' + _block([
        f'    {{\n      "id": {q},\n      "u": {qv[u]},\n      "v": {qv[v]}'
        f'{tails.get(eid, "")}\n    }}' for q, (eid, u, v) in zip(qe, inst.edges)]))
    if inst._gamma_u:
        pairs = dict.fromkeys(inst._gamma_u + inst._gamma_v)  # each distinct scaled pair
        for ints in filter(None, pairs):
            gam, delta = (format_rational(Fraction(x, inst._gamma_d)) for x in ints)
            pairs[ints] = (f'{{\n        "delta": "{delta}",\n'
                           f'        "gamma": "{gam}"\n      }}')
        sides = []
        for q, (_, u, v), at_u, at_v in zip(qe, inst.edges, inst._gamma_u, inst._gamma_v):
            if v < u:
                u, v, at_u, at_v = v, u, at_v, at_u
            if at_u and at_v:
                sides.append(f"    {q}: {{\n      {qv[u]}: {pairs[at_u]},\n"
                             f"      {qv[v]}: {pairs[at_v]}\n    }}")
            elif at_u or at_v:  # one end only
                x, t = (u, at_u) if at_u else (v, at_v)
                sides.append(f"    {q}: {{\n      {qv[x]}: {pairs[t]}\n    }}")
        doc.append('  "gamma": ' + _block(sides, "{}"))
        del sides
    prefs = []
    for v in sorted(inst.vertices):
        ids, starts = list(map(qe.__getitem__, inst._ranks[v])), inst._starts[v]
        if len(starts) < len(ids):  # a tie: join each group's ids first
            ids = [",\n        ".join(ids[i:j]) for i, j in zip(starts, starts[1:] + (len(ids),))]
        groups = "\n      ],\n      [\n        ".join(ids)
        prefs.append(f"    {qv[v]}: [\n      [\n        {groups}\n      ]\n    ]" if ids
                     else f"    {qv[v]}: []")
    doc.append('  "prefs": ' + _block(prefs, "{}"))
    doc.append('  "vertices": ' + _block([f"    {qv[v]}" for v in inst.vertices]))
    return "{\n" + ",\n".join(doc) + "\n}\n"


def _block(items: list[str], brackets: str = "[]") -> str:
    """A top-level JSON array or object whose members, already indented, are ``items``."""
    if not items:
        return brackets
    return f"{brackets[0]}\n" + ",\n".join(items) + f"\n  {brackets[1]}"


_DECODER = json.JSONDecoder()
_SPACE = re.compile(r"[ \t\n\r]*")
_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')  # a JSON string, escapes and all


def _members(text: str, i: int):
    """(key, start, end) of each member's value in the JSON object that
    opens at ``text[i]``; ``text`` is valid JSON."""
    space = _SPACE.match
    i = space(text, i + 1).end()
    while text[i:i + 1] == '"':
        key, i = scanstring(text, i + 1)
        i = space(text, space(text, i).end() + 1).end()  # past the colon
        end = _DECODER.raw_decode(text, i)[1]
        yield key, i, end
        i = space(text, space(text, end).end() + 1).end()  # past a comma or the brace


def _located(text: str, v: str, eid: str, nth: int, message: str) -> InstanceError:
    """Attach the 1-based line of the ``nth`` mention (1 or 2) of ``eid``, as
    decoded, in the preference list of ``v`` when findable."""
    span = {k: (s, e) for k, s, e in _members(text, _SPACE.match(text).end())}.get("prefs")
    span = span and {k: (s, e) for k, s, e in _members(text, span[0])}.get(v)
    for mention in _STRING.finditer(text, *span) if span else ():
        nth -= scanstring(text, mention.start() + 1)[0] == eid
        if not nth:
            return InstanceError(f"line {text.count(chr(10), 0, mention.start()) + 1}: {message}")
    return InstanceError(message)


def _mention_fault(text: str, v: str, groups: list, known: set[str]) -> None:
    """Raise the first fault in the tie groups of ``v``, as they are read."""
    seen = set()
    for group in groups:
        if type(group) is not list or not {str}.issuperset(map(type, group)):
            raise InstanceError(f"preference list of {v!r} must contain tie groups "
                                "(lists of edge ids)")
        for eid in group:
            if eid not in known or eid in seen:
                what = f"edge {eid!r} twice" if eid in known else f"unknown edge {eid!r}"
                raise _located(text, v, eid, 1 + (eid in known),
                               f"preference list of {v!r} mentions {what}")
            seen.add(eid)


def _file_fault(text: str, doc: dict) -> None:
    """Raise the first fault of an instance file itself, in file order: its
    edge records, tie groups, gamma section and critical set, as read."""
    known = set()
    for record in doc["edges"]:
        try:
            eid, u, v = _FIELDS(record)
        except KeyError as exc:
            raise InstanceError(f"malformed edge record {record!r}") from exc
        if type(eid) is not str or type(u) is not str or type(v) is not str:
            raise InstanceError(f"edge record {record!r}: ids must be strings")
        if "weight" in record:
            parse_rational(record["weight"])
        known.add(eid)
    for v, groups in doc["prefs"].items():
        if type(groups) is not list:
            raise InstanceError(f"preference list of {v!r} must be a list of tie groups")
        _mention_fault(text, v, groups, known)
    try:
        for sides in doc.get("gamma", {}).values():
            for pair in sides.values():
                list(map(parse_rational, (pair["gamma"], pair["delta"])))
    except (KeyError, TypeError, AttributeError, InstanceError) as exc:
        raise InstanceError("malformed gamma section: each edge maps its endpoints to "
                            "objects with 'gamma' and 'delta' rationals") from exc
    if doc.get("critical") is not None:
        _list_of(str, doc["critical"], "the critical set must be a list of vertices")


def _list_of(kind: type, items: Any, message: str, *args: Any) -> list:
    """``items`` itself if it is a list of ``kind`` values (as JSON decodes
    them), else InstanceError with ``message.format(*args)``, formatted only then."""
    if not isinstance(items, list) or not {kind}.issuperset(map(type, items)):
        raise InstanceError(message.format(*args))
    return items


_FIELDS, _EDGE = itemgetter("id", "u", "v"), partial(tuple.__new__, Edge)  # skips Edge.__new__


def parse_instance_text(text: str) -> Instance:
    """The market of an instance file, each section read once, by the
    constructor: it makes the edges, places the tie groups as read and keys
    each end's thresholds on their two texts, each distinct pair parsed
    once. A fault of the file comes before the market's, in file order: the
    top-level types are checked first, and any fault noticed after them,
    here or in the constructor, sends the parser back to the text for the
    file's own first fault (:func:`_file_fault`), named if there is one,
    else the market's, in the constructor's order. Only a faulty file pays
    for that second reading."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or a number past int's digit limit
        raise InstanceError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InstanceError("not valid JSON: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise InstanceError("an instance file must hold a JSON object")
    for key in ("vertices", "edges", "prefs"):
        if key not in doc:
            raise InstanceError(f"instance file lacks the {key!r} section")
    vertices = _list_of(str, doc["vertices"], "the vertex set must be a list of vertex ids")
    records = _list_of(dict, doc.pop("edges"), "the edges section must be a list of edge records")
    prefs = doc["prefs"]
    if not isinstance(prefs, dict):
        raise InstanceError("the prefs section must map vertex ids to tie groups")

    rational = cache(parse_rational)  # a market repeats a few rationals thousands of times
    only_str, only_lists = {str}.issuperset, {list}.issuperset
    try:
        edges = list(map(_EDGE, map(_FIELDS, records)))
        weights = {r["id"]: rational(r["weight"]) for r in records if "weight" in r}
        del records  # not kept while the market is built: a fault reads the text again
        if not (only_str(map(type, chain.from_iterable(edges)))
                and only_lists(map(type, prefs.values()))
                and only_lists(map(type, chain.from_iterable(prefs.values())))):
            raise InstanceError("an id is not a string, or a tie group not a list")
        critical = doc.get("critical")
        if critical is not None:
            _list_of(str, critical, "the critical set must be a list of vertices")
        return _instance(vertices, edges, prefs, weights=weights or None,
                         gamma=doc["gamma"].items() if "gamma" in doc else None,
                         critical=critical, read=rational)
    except (InstanceError, LookupError, TypeError, AttributeError):
        _file_fault(text, json.loads(text))
        raise


def load_instance(path: str) -> Instance:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InstanceError(f"instance file is not UTF-8 text: {exc}") from exc
    return parse_instance_text(text)


def save_instance(inst: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_instance(inst))


def instance_digest(inst: Instance) -> str:
    return hashlib.sha256(serialize_instance(inst).encode()).hexdigest()


# ---------------------------------------------------------------------------
# matchings and result files


def format_matching(m: Mapping[str, Fraction]) -> dict[str, str]:
    return {eid: format_rational(val) for eid, val in sorted(m.items()) if val != 0}


def parse_matching(doc: Mapping[str, str]) -> dict[str, Fraction]:
    return {eid: parse_rational(text) for eid, text in doc.items()}


def build_result(
    solver: str,
    inst: Instance,
    matching: Mapping[str, Fraction],
    verification: Mapping[str, Any],
    digest: str,
    seed: int | None = None,
) -> dict[str, Any]:
    """A result record; ``digest`` is :func:`instance_digest` of ``inst``."""
    return {
        "solver": solver,
        "instance_digest": digest,
        "seed": seed,
        "matching": format_matching(matching),
        "stats": _stats_record(inst, matching, verification.get("critical")),
        "verification": dict(verification),
    }


def _stats_record(inst: Instance, m: Mapping[str, Fraction],
                  critical: list[str] | None = None) -> dict[str, Any]:
    """m's stats, ``critical_ok`` against a result's recorded ``critical`` set if any."""
    stats = matching_stats(inst, m, critical)
    return {
        "size": format_rational(stats.size),
        "saturated": list(stats.saturated),
        "unsaturated": list(stats.unsaturated),
        "integral": stats.integral,
        "critical_ok": stats.critical_ok,
    }


#: the verification fields each solve writes, by the solver tag it records
SOLVER_CLAIMS: dict[str, tuple[str, ...]] = {
    "solve-max-srti": ("mode", "blocking_edges", "stable"),
    "solve-gamma": ("mode", "blocking_edges", "stable"),
    "solve-max-pri": ("derived_stable",),
    "solve-pop-crit": ("derived_stable", "critical", "critical_ok"),
    "solve-pop-maxw": ("derived_stable", "weights_source", "weight", "dual_objective",
                       "critical"),
}
POPULARITY_CLAIMS = ("popular", "popular_scope", "counterexample")  #: solve-max-pri's, if any
#: the keys build_result writes, sorted
RESULT_KEYS = ["instance_digest", "matching", "seed", "solver", "stats", "verification"]
#: the stability mode each stable solve writes, by its solver tag
MODES = {"solve-max-srti": "weak", "solve-gamma": "gamma"}


def result_weights(inst: Instance, source: str | None) -> dict[str, Fraction]:
    """The edge weights of a maxw solve: ``unit`` ones, else the instance's."""
    if source == "unit":
        return {e.eid: ONE for e in inst.edges}
    return dict(inst.weights or {})


def serialize_result(result: Mapping[str, Any]) -> str:
    return json.dumps(result, sort_keys=True, indent=2) + "\n"


def load_result(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise InstanceError(f"result file is not UTF-8 text: {exc}") from exc
        except ValueError as exc:  # a JSONDecodeError, or a number past int's digit limit
            raise InstanceError(f"result file is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise InstanceError("result file is not valid JSON: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise InstanceError("a result file must hold a JSON object")
    _result_matching(doc)  # a result of the wrong shape is bad input
    return doc


def _result_matching(doc: Mapping[str, Any]) -> dict[str, Fraction]:
    """The matching of a result, once its sections, seed, matching values
    and recorded critical set have the types a solve writes; else
    InstanceError. ``load_result`` refuses a file on it, ``check_result``
    reports it."""
    for key in ("matching", "stats", "verification"):
        if not isinstance(doc.get(key, {}), dict):
            raise InstanceError(f"the {key!r} section of a result file must be an object")
    if doc.get("seed") is not None and type(doc["seed"]) is not int:  # a bool is no seed
        raise InstanceError("the seed of a result file must be an integer or null")
    if "critical" in doc.get("verification", {}):
        _list_of(str, doc["verification"]["critical"],
                 "the recorded critical set must be a list of vertices")
    return parse_matching(doc.get("matching", {}))


def _market_fault(inst: Instance, solver: str) -> str | None:
    """Why ``solver`` reads no market like ``inst``, else None."""
    if solver not in MODES and not inst.is_strict():  # pri, crit and maxw read no ties
        return f"{solver} requires strict (tie-free) preferences"
    if MODES.get(solver) == "gamma" and not inst.has_full_gamma():
        return f"{solver} requires gamma/delta on every (edge, endpoint)"
    return None


def check_result(inst: Instance, result: Mapping[str, Any], digest: str,
                 bound: int = 0) -> list[str]:
    """Re-derive everything a result file claims; returns the failures.

    Only ``verify`` calls it: a solve writes the claims its solver has
    already certified, and this re-derives them independently. A clean
    re-verification returns an empty list. Every one-pass check runs
    first, and only a result with no problem reaches a re-solve.

    One pass: the digest must be ``digest``, :func:`instance_digest` of
    ``inst``; the keys must be the :data:`RESULT_KEYS` a solve writes, with
    values of the types ``load_result`` requires, or nothing more is
    checked; the solver tag decides which claims must and may be present
    (:data:`SOLVER_CLAIMS`); the market must be one the solver reads
    (:func:`_market_fault`); the matching, its stats (no field more than a
    solve writes) and the claims re-derive field by field, a flag as a JSON
    boolean, popularity claims by their shape.
    The re-solves: on 1 to ``bound`` edges, pri's verdict in the scope it
    records; a maxw result's dual, whose optimum the weight must be and
    whose positive-potential set the critical set (a set the market and
    weights alone fix, so a solve and this re-solve agree); a pri, crit or
    maxw matching's popularity, by :func:`_unpopular`; and on 1 to
    ``bound`` edges, no half-matching larger than a pri matching popular.
    """
    problems: list[str] = []
    within = 0 < len(inst.edges) <= bound
    if result.get("instance_digest") != digest:
        problems.append("instance digest mismatch")
    if sorted(result) != RESULT_KEYS:  # the keys build_result writes, no more, no fewer
        problems.append(f"result keys {sorted(result)} are not the six a solve writes")
    try:
        m = _result_matching(result)
    except InstanceError as exc:  # nothing below reads a result of the wrong shape
        return problems + [str(exc)]
    solver = result.get("solver")
    if not isinstance(solver, str) or solver not in SOLVER_CLAIMS:
        return problems + [f"unknown solver tag {solver!r}"]
    if fault := _market_fault(inst, solver):
        return problems + [fault]
    mode = MODES.get(solver)
    ver = result.get("verification", {})
    problems += [f"verification lacks the {key!r} claim"
                 for key in SOLVER_CLAIMS[solver] if key not in ver]
    writes = SOLVER_CLAIMS[solver] + (POPULARITY_CLAIMS if solver == "solve-max-pri" else ())
    problems += [f"verification holds {key!r}, which {solver} does not write"
                 for key in ver if key not in writes]
    if mode and ver.get("mode") != mode:
        problems.append(f"mode is not {mode!r}, the mode {solver} writes")
    try:
        check_matching(inst, m, half=True)
    except Exception as exc:
        problems.append(f"matching invalid: {exc}")
        return problems

    recorded = result.get("stats", {})
    stats = _stats_record(inst, m, ver.get("critical"))
    for key, val in stats.items():
        got = recorded.get(key)
        if type(got) is not type(val) or got != val:  # 1 == True, but 1 is no flag
            problems.append(f"stats field {key!r} does not re-derive")
    problems += [f"stats holds {key!r}, which no solve writes"
                 for key in recorded if key not in stats]

    if mode:
        bad = blocking_edges(inst, m, mode)
        if bad != ver.get("blocking_edges"):
            problems.append("recorded blocking edges do not re-derive")
        if ver.get("stable") is not (not bad):
            problems.append("stability flag does not re-derive")
        if bad:
            problems.append(f"matching is blocked by {bad}")
    if ver.get("derived_stable", True) is not True:  # what it implies re-derives below
        problems.append("derived stability flag is not true")
    if solver == "solve-max-pri" and any(key in ver for key in POPULARITY_CLAIMS):
        problems += _popularity_problems(inst, ver)
    if "critical" in ver:
        known = set(inst.vertices)
        crit = ver["critical"]
        if crit != sorted(set(crit)):  # a solve writes a set, sorted
            problems.append("critical set is not sorted without repeats")
        unknown = [v for v in crit if v not in known]
        if unknown:
            problems.append(f"critical set names unknown vertices: {unknown}")
        full = set(stats["saturated"])
        open_crit = [v for v in crit if v in known and v not in full]
        if open_crit:
            problems.append(f"critical vertices left open: {open_crit}")
        if ver.get("critical_ok", not open_crit) is not (not open_crit):
            problems.append("critical_ok flag does not re-derive")
    if ver.get("weights_source", "instance") not in ("instance", "unit"):
        problems.append("weights_source is neither 'instance' nor 'unit'")
    if "weight" in ver:
        w = result_weights(inst, ver.get("weights_source"))
        got = format_rational(sum((w.get(eid, ZERO) * val for eid, val in m.items()), ZERO))
        if got != ver["weight"]:
            problems.append("recorded weight does not re-derive")
        if ver.get("dual_objective", got) != got:  # the solver certified them equal
            problems.append("recorded dual objective differs from the weight")
    if problems:  # no re-solve below reads a result with a failed one-pass claim
        return problems
    if "popular_scope" in ver and within:  # pri's verdict reads only the instance and m
        scope = next(key for key, label in SCOPES.items() if label == ver["popular_scope"])
        claims = _popularity_claims(inst, m, bound, scope)
        problems += [f"recorded {key!r} does not re-derive"
                     for key in POPULARITY_CLAIMS if ver.get(key) != claims.get(key)]
    tight = None
    if solver == "solve-pop-maxw":  # the weight must be the optimum: solve the dual again
        dual = max_weight_dual(inst, result_weights(inst, ver["weights_source"]))
        if ver["weight"] != format_rational(dual.objective):
            problems.append("recorded weight is not the maximum weight")
        if ver["critical"] != sorted(dual.critical):
            problems.append("recorded critical set is not the dual's positive-potential set")
        tight = set(dual.tight_edges)  # the maximum-weight rivals are the critical ones on them
    if not problems and not mode:
        problems += _unpopular(inst, m, ver.get("critical"), tight, bound)
    if not problems and within and solver == "solve-max-pri":  # what derived stability implies
        size = matching_size(m)
        for n in enumerate_half_matchings(inst, bound):
            if matching_size(n) > size and not _unpopular(inst, n, None, None, bound):
                problems.append(f"a larger half-matching is popular: {format_matching(n)}")
                break
    return problems


def _unpopular(inst: Instance, m: Mapping[str, Fraction], critical: list[str] | None,
               tight: set[str] | None, bound: int) -> list[str]:
    """Why m is not popular among the rivals that saturate ``critical``
    (None for pri) on the ``tight`` edges (None: all). One rule: an
    integral m by :func:`dual_worst`, exact at any size; a half-integral
    m by :func:`is_popular_critical` on 1 to ``bound`` edges, else trusted."""
    among = " among critical rivals" if critical is not None else ""
    if all(val.denominator == 1 for val in m.values()):
        keep = None if tight is None else [e.eid in tight for e in inst.edges]
        worst, _ = dual_worst(inst, m, critical or (), keep)
        if worst < 0:
            return [f"matching is not popular{among}: a rival has delta {format_rational(worst)}"]
    elif 0 < len(inst.edges) <= bound:
        market = inst if tight is None else restrict_to_edges(inst, tight)
        if not is_popular_critical(market, m, frozenset(critical or ()), bound=bound).popular:
            return [f"matching is not popular{among or ' (half-integral scope)'}"]
    return []


def _popularity_claims(inst: Instance, m: Mapping[str, Fraction], bound: int,
                       scope: str) -> dict[str, Any]:
    """The popularity claims solve-max-pri records, from a verdict in ``scope``."""
    verdict = is_popular(inst, m, bound=bound, scope=scope)
    claims = {"popular": verdict.popular, "popular_scope": verdict.scope}
    if verdict.counterexample:
        rival, res = verdict.counterexample
        claims["counterexample"] = {"matching": format_matching(rival),
                                    "delta": format_rational(res.value)}
    return claims


def _popularity_problems(inst: Instance, ver: Mapping[str, Any]) -> list[str]:
    """What is malformed in recorded popularity claims, whose values only
    the oracle re-derives: the flag and its scope come together, the scope
    is a label :func:`~halfmatch.popularity.is_popular` writes, and a
    counterexample, a half-matching with its negative delta, comes exactly
    when the flag is false."""
    problems = []
    if "popular" not in ver or "popular_scope" not in ver:
        problems.append("popular and popular_scope are not recorded together")
    if type(ver.get("popular", False)) is not bool:
        problems.append("popularity flag is not a JSON boolean")
    if ver.get("popular_scope", SCOPES["half"]) not in SCOPES.values():
        problems.append("popular_scope is not a scope label is_popular writes")
    if ("counterexample" in ver) != (ver.get("popular") is False):
        problems.append("a counterexample is recorded if and only if popular is false")
    if "counterexample" not in ver:
        return problems
    counter = ver["counterexample"]
    if (not isinstance(counter, dict) or sorted(counter) != ["delta", "matching"]
            or not isinstance(counter["matching"], dict)):
        return problems + ["counterexample holds other than a matching and a delta"]
    try:
        check_matching(inst, parse_matching(counter["matching"]), half=True)
        if parse_rational(counter["delta"]) >= 0:
            raise InstanceError("its delta is not negative")
    except (InstanceError, MatchingError) as exc:
        problems.append(f"counterexample invalid: {exc}")
    return problems
