"""The benchmark's workloads: seeded inputs, one pass of requests, and
the check each output must pass.

Every workload is a closed loop with one client in one thread: the next
request is sent when the previous one has returned. The workload seed is
an argument of the benchmark; the program only receives the generated
instances. ``WORKLOADS`` is also the record of each workload's generator
parameters, request mix, reason and expected bypassed layers.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable


class RequestFailed(RuntimeError):
    """A request returned, but not successfully (nonzero exit code)."""


@dataclass
class Request:
    kind: str
    #: performs the request; gets a fresh output path, returns a raw outcome
    run: Callable[[str], Any]
    #: turns the raw outcome into the bytes that are digested (outside the timer)
    output: Callable[[Any, str], bytes]
    #: problems with one output, found with tracing off
    check: Callable[[bytes, str], list[str]]


@dataclass
class Pool:
    requests: list[Request]
    #: sizes of the generated inputs, for the report
    sizes: dict[str, Any] = field(default_factory=dict)
    #: index of the request sent once, untimed, at the end of set-up
    warm_up: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: dict[str, Any]
    mix: str
    bypassed: tuple[str, ...]
    #: nominal duration of one pass at the reference speed; a run makes
    #: round(seconds / nominal_pass_s) passes, at least one
    nominal_pass_s: float
    prepare: Callable[[Any, int, Path], Pool]


def _quiet_main(hm, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return hm.cli.main(argv)


def _cli_request(hm, kind: str, flags: list[str], instance: str) -> Request:
    tag = kind.split()[0]

    def run(out: str) -> int:
        return hm.cli.main([tag, "--input", instance, "--output", out, *flags])

    def output(rc: int, out: str) -> bytes:
        if rc != 0:
            raise RequestFailed(f"{kind} exited with {rc}")
        return Path(out).read_bytes()

    def check(data: bytes, out: str) -> list[str]:
        problems = []
        rc = _quiet_main(hm, ["verify", "--input", instance, "--result", out])
        if rc != 0:
            problems.append(f"halfmatch verify exited with {rc}")
        if tag == "solve-pop-maxw":
            ver = json.loads(data).get("verification", {})
            if ver.get("weight") is None or ver.get("weight") != ver.get("dual_objective"):
                problems.append("recorded weight differs from the dual objective")
        return problems

    return Request(kind, run, output, check)


def _write(hm, inst, path: Path) -> str:
    hm.io.save_instance(inst, str(path))
    return str(path)


# ---------------------------------------------------------------------------
# stable-large


STABLE_GEN = dict(edge_density=0.3, parallel_prob=0.2, tie_prob=0.4,
                  gamma_preset="generic")
#: market sizes, one instance each. A fixed ladder up to the nominal n=100
#: keeps runs of different seeds comparable, and spreads the latencies of
#: the two request kinds into one continuous range, so that neither the
#: median nor the tail falls into the gap between srti and gamma requests.
STABLE_SIZES = (72, 76, 80, 84, 88, 92, 96, 100)


def _prepare_stable(hm, seed: int, work: Path) -> Pool:
    requests = []
    edges = []
    for i, n in enumerate(STABLE_SIZES):
        s = 1000 * seed + i
        g = STABLE_GEN
        inst = hm.generate_random(s, n, edge_density=g["edge_density"],
                                  parallel_prob=g["parallel_prob"],
                                  tie_prob=g["tie_prob"],
                                  gamma_preset=g["gamma_preset"])
        path = _write(hm, inst, work / f"stable-{s}.json")
        edges.append(len(inst.edges))
        requests.append(_cli_request(hm, "solve-max-srti", [], path))
        requests.append(_cli_request(hm, "solve-gamma", [], path))
    return Pool(requests, {"instances": len(STABLE_SIZES), "edges": edges})


# ---------------------------------------------------------------------------
# maxw-critical


#: a ladder of market sizes per request kind, one instance each (as for
#: stable-large: fixed sizes, and one continuous range of latencies
#: instead of three clusters)
MAXW_GEN = {
    "solve-pop-maxw": dict(n=list(range(51, 70, 2)), edge_density=0.3,
                           weight_range=[1, 9]),
    "solve-pop-maxw --weights unit": dict(n=list(range(29, 39)), edge_density=0.3),
    "solve-pop-crit": dict(n=list(range(92, 129, 4)), edge_density=0.3,
                           critical_count=16),
}
MAXW_POOL = 10


def _prepare_maxw(hm, seed: int, work: Path) -> Pool:
    requests = []
    edges: dict[str, list[int]] = {kind: [] for kind in MAXW_GEN}
    for i in range(MAXW_POOL):
        for k, (kind, g) in enumerate(MAXW_GEN.items()):
            s = 1000 * seed + 100 * k + i
            wr = g.get("weight_range")
            inst = hm.generate_random(s, g["n"][i], edge_density=g["edge_density"],
                                      weight_range=tuple(wr) if wr else None,
                                      critical_count=g.get("critical_count", 0))
            path = _write(hm, inst, work / f"maxw-{s}.json")
            edges[kind].append(len(inst.edges))
            requests.append(_cli_request(hm, kind, kind.split()[1:], path))
    return Pool(requests, {"instances": MAXW_POOL * len(MAXW_GEN), "edges": edges})


# ---------------------------------------------------------------------------
# desk-audit


DESK_GEN = dict(n=7, edge_density=0.35, parallel_prob=0.1)
DESK_BOUND = 10
#: markets audited per pass, by edge count. The cost of an audit grows
#: steeply with the edge count, so a fixed mix keeps runs of different
#: seeds comparable; three equal classes put the median in the middle
#: class and the tail inside the top one.
DESK_MIX = {6: 20, 7: 20, 8: 20}


def _fmt(x: Fraction) -> str:
    return str(Fraction(x))


def _audit(hm, inst) -> tuple:
    a = hm.solve_max_srti(inst)
    best, _ = hm.brute_force_max_stable(inst, "weak", bound=DESK_BOUND)
    p = hm.solve_max_pri(inst)
    verdict = hm.is_popular(inst, p, bound=DESK_BOUND, scope="sampled")
    deltas = [hm.delta_sensible(inst, p, a).value, hm.delta_feasible(inst, p, a).value,
              hm.delta_sensible(inst, a, p).value, hm.delta_feasible(inst, a, p).value]
    return a, best, p, verdict, deltas


def _audit_record(hm, seed: int, inst, raw: tuple) -> bytes:
    """The audit outcome as one canonical JSON line."""
    a, best, p, verdict, deltas = raw
    record = {
        "seed": seed,
        "edges": len(inst.edges),
        "srti": hm.io.format_matching(a),
        "srti_size": _fmt(hm.matching_size(a)),
        "brute_force_max": _fmt(best),
        "pri": hm.io.format_matching(p),
        "popular": verdict.popular,
        "rivals_checked": verdict.checked,
        "worst_delta": _fmt(verdict.worst_value),
        "delta_pri_srti": [_fmt(d) for d in deltas[:2]],
        "delta_srti_pri": [_fmt(d) for d in deltas[2:]],
    }
    return (json.dumps(record, sort_keys=True) + "\n").encode()


def _audit_check(data: bytes, out: str) -> list[str]:
    rec = json.loads(data)
    problems = []
    if Fraction(rec["brute_force_max"]) > Fraction(3, 2) * Fraction(rec["srti_size"]):
        problems.append("brute-force optimum exceeds 3/2 of the srti size")
    if not rec["popular"]:
        problems.append("the pri output is not popular")
    for key in ("delta_pri_srti", "delta_srti_pri"):
        sensible, feasible = (Fraction(d) for d in rec[key])
        if sensible > feasible:
            problems.append(f"{key}: delta_sensible exceeds delta_feasible")
    return problems


def _prepare_desk(hm, seed: int, work: Path) -> Pool:
    requests = []
    edges = []
    need = dict(DESK_MIX)
    skipped = {"over_bound": 0, "outside_mix": 0}
    s = 1000 * seed
    lines = []
    while any(need.values()):
        inst = hm.generate_random(s, DESK_GEN["n"], edge_density=DESK_GEN["edge_density"],
                                  parallel_prob=DESK_GEN["parallel_prob"])
        k = len(inst.edges)
        if k > DESK_BOUND:
            skipped["over_bound"] += 1  # enumeration would raise BoundExceeded by design
        elif not need.get(k):
            skipped["outside_mix"] += 1
        else:
            need[k] -= 1
            lines.append(hm.io.serialize_instance(inst))
            edges.append(k)
            requests.append(Request(
                "audit",
                lambda out, inst=inst: _audit(hm, inst),
                lambda raw, out, s=s, inst=inst: _audit_record(hm, s, inst, raw),
                _audit_check,
            ))
        s += 1
    (work / "desk-markets.json").write_text("".join(lines), encoding="utf-8")
    return Pool(requests, {"markets": len(requests), "edges": edges,
                           "skipped": skipped, "seeds": [1000 * seed, s - 1]},
                warm_up=edges.index(min(DESK_MIX)))


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="stable-large",
        why="The workload where io, core.blocking_edges, reductions and engine "
            "do the most work: large general multigraph markets.",
        generator={"n": list(STABLE_SIZES), **STABLE_GEN,
                   "instances_per_pass": len(STABLE_SIZES),
                   "instance_seeds": "1000*seed + i"},
        mix="alternates CLI solve-max-srti and solve-gamma on each instance, "
            "in process through halfmatch.cli.main",
        bypassed=("cover", "popularity", "simplex"),
        nominal_pass_s=7.8,
        prepare=_prepare_stable,
    ),
    Workload(
        name="maxw-critical",
        why="The workload for cover (three Hungarian runs per maxw request), the "
            "critical construction in reductions and the engine on derived "
            "markets of more than 10k edges.",
        generator={"strict": True, "instances_per_pass": MAXW_POOL * len(MAXW_GEN),
                   "instance_seeds": "1000*seed + 100*k + i", **MAXW_GEN},
        mix="cycles through CLI solve-pop-maxw (instance weights), "
            "solve-pop-maxw --weights unit and solve-pop-crit",
        bypassed=("popularity", "simplex"),
        nominal_pass_s=15.0,
        prepare=_prepare_maxw,
    ),
    Workload(
        name="desk-audit",
        why="Uses engine and core the opposite way from stable-large: thousands "
            "of calls on tiny markets instead of one large call; the only "
            "workload that reaches popularity and simplex.",
        generator={**DESK_GEN, "max_edges": DESK_BOUND,
                   "markets_per_pass_by_edge_count": DESK_MIX,
                   "market_seeds": "1000*seed upward, in order; markets with more "
                                   "than 10 edges, or of an edge count whose quota "
                                   "is full, are skipped and counted"},
        mix="one library-API audit per market: solve_max_srti, "
            "brute_force_max_stable(weak, bound=10), solve_max_pri, "
            "is_popular(bound=10, scope=sampled), delta_sensible and "
            "delta_feasible of pri against srti in both orders",
        bypassed=("cli", "io", "cover"),
        nominal_pass_s=15.0,
        prepare=_prepare_desk,
    ),
)}
