"""Run one halfmatch benchmark workload and print its metrics.

    python3 perfbench/run.py --workload stable-large --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout: it imports the package from
``src/`` and refuses to run without it. One process and one thread send
the workload's requests in a closed loop. A run sets the workload up
three times (import, generate, write, one warm-up request) and reports
the median set-up time, then makes round(seconds / nominal pass time)
passes over the same requests, at least one, so that every run of a
workload times the same request mix whatever the speed of the program.

Every time is reported at the reference speed: the benchmark times a
fixed computation (``hostspeed.reference``) before and after each request
and each set-up and scales the measured seconds by how fast the host ran
it (``summary.speed_scale``), so that the drifting speed of a shared host
does not show as a change of halfmatch. The report prints the wall-clock
figures beside them.

Every output is checked outside the timed span. With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` the calls into each layer are wrapped and the
object holds the per-layer metrics instead. The lines before it are a
readable report, and the ``detail:`` line carries what ``report.py``
needs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, NamedTuple

import hostspeed
import summary
from spans import LAYERS, Tracer, is_exact
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3

#: per-layer metrics: name -> unit; values are per request unless a ratio
PER_LAYER = {
    "cli.main.calls": "count/req",
    "cli.main.self_s": "s/req",
    "io.load_instance.self_s": "s/req",
    "io.instance_digest.calls": "count/req",
    "io.instance_digest.self_s": "s/req",
    "io.check_result.self_s": "s/req",
    "io.result_bytes": "B/req",
    "solvers.solve.self_s": "s/req",
    "solvers.max_weight_dual.calls": "count/req",
    "solvers.max_weight_dual.self_s": "s/req",
    "solvers.restrict_to_edges.self_s": "s/req",
    "reductions.build.self_s": "s/req",
    "reductions.derived_edges": "count/req",
    "reductions.copies_per_edge": "ratio",
    "reductions.project.self_s": "s/req",
    "core.validate_instance.self_s": "s/req",
    "core.validated_edges": "count/req",
    "core.blocking_edges.calls": "count/req",
    "core.blocking_edges.self_s": "s/req",
    "core.edges_scanned": "count/req",
    "engine.stable_half_matching.self_s": "s/req",
    "engine.input_edges": "count/req",
    "engine.odd_cycles": "count/req",
    "engine.brute_force.self_s": "s/req",
    "engine.enumerated": "count/req",
    "engine.stable_share": "ratio",
    "cover.double_cover.self_s": "s/req",
    "cover.max_weight_cover_matching.calls": "count/req",
    "cover.max_weight_cover_matching.self_s": "s/req",
    "cover.max_cardinality_saturating.self_s": "s/req",
    "cover.cover_edges": "count/req",
    "popularity.is_popular.self_s": "s/req",
    "popularity.rivals_checked": "count/req",
    "popularity.min_cost_transport.calls": "count/req",
    "popularity.delta_feasible.self_s": "s/req",
    "popularity.delta_sensible.self_s": "s/req",
    "simplex.solve_min.calls": "count/req",
    "simplex.solve_min.self_s": "s/req",
    "simplex.lp_cells": "count/req",
    **{f"{layer}.errors": "count/req" for layer in LAYERS},
}

#: ratio metrics: name -> (numerator counter, denominator counter)
RATIOS = {
    "reductions.copies_per_edge": ("reductions.derived_edges", "reductions.origin_edges"),
    "engine.stable_share": ("engine.stable_found", "engine.brute_enumerated"),
}


class Sample(NamedTuple):
    pass_no: int
    slot: int
    out: str
    latency: float  # wall-clock seconds
    scale: float  # turns this request's wall-clock seconds into reference seconds
    raw: Any
    error: BaseException | None
    profile: Counter | None


def set_up(workload: Workload, seed: int, work: Path):
    """Import the package afresh, generate and write the inputs, and send
    one untimed warm-up request. Returns (wall-clock seconds, seconds at
    the reference speed, package, pool)."""
    before = hostspeed.probe()
    start = perf_counter()
    for name in [m for m in sys.modules if m == "halfmatch" or m.startswith("halfmatch.")]:
        del sys.modules[name]
    hm = importlib.import_module("halfmatch")
    importlib.import_module("halfmatch.cli")
    pool = workload.prepare(hm, seed, work)
    warm = pool.requests[pool.warm_up]
    out = str(work / "warm-up.out")
    warm.output(warm.run(out), out)
    took = perf_counter() - start
    scale = summary.speed_scale(before, hostspeed.probe(), hostspeed.REFERENCE_S)
    return took, took * scale, hm, pool


def timed_loop(pool, passes: int, work: Path, tracer: Tracer | None) -> list[Sample]:
    """Send every request of the pool ``passes`` times, one after another,
    and probe the host's speed before the first and after each request. A
    traced request's self times are scaled to the reference speed."""
    samples = []
    before = hostspeed.probe()
    for p in range(passes):
        for slot, req in enumerate(pool.requests):
            out = str(work / f"p{p}-r{slot}.out")
            gc.collect()  # every request starts from the same collector state
            if tracer is not None:
                tracer.begin(p * len(pool.requests) + slot)
            t0 = perf_counter()
            try:
                raw, error = req.run(out), None
            except (Exception, SystemExit) as exc:  # a failed request, not a failed run
                raw, error = None, exc
            latency = perf_counter() - t0
            profile = tracer.end() if tracer is not None else None
            after = hostspeed.probe()
            scale = summary.speed_scale(before, after, hostspeed.REFERENCE_S)
            before = after
            if profile is not None:
                for key in [k for k in profile if k.endswith("_s")]:
                    profile[key] *= scale
            samples.append(Sample(p, slot, out, latency, scale, raw, error, profile))
    return samples


def check_outputs(pool, samples: list[Sample], passes: int):
    """Check every output with tracing off. An output identical to one
    already checked for the same request shares its verdict. Returns one
    success flag per sample and the digest of each pass."""
    digests = [hashlib.sha256() for _ in range(passes)]
    verdicts: dict[tuple[int, str], list[str]] = {}
    first: dict[int, str] = {}
    outcomes = []
    for s in samples:
        req = pool.requests[s.slot]
        if s.error is not None:
            problems = [f"raised {type(s.error).__name__}: {s.error}"]
            traceback.print_exception(s.error, file=sys.stderr)
        else:
            try:
                data = req.output(s.raw, s.out)
            except Exception as exc:
                problems = [str(exc)]
            else:
                digests[s.pass_no].update(data)
                h = hashlib.sha256(data).hexdigest()
                if (s.slot, h) not in verdicts:
                    verdicts[(s.slot, h)] = req.check(data, s.out)
                problems = list(verdicts[(s.slot, h)])
                if first.setdefault(s.slot, h) != h:
                    problems.append("output differs from the first pass")
        for msg in problems:
            print(f"request {s.pass_no}/{s.slot} ({req.kind}) failed: {msg}", file=sys.stderr)
        outcomes.append(not problems)
    return outcomes, [d.hexdigest() for d in digests]


def layer_metrics(samples: list[Sample]) -> dict[str, float]:
    total: Counter = Counter()
    for s in samples:
        total.update(s.profile)
    n = len(samples)
    out = {}
    for name in PER_LAYER:
        if name in RATIOS:
            num, den = RATIOS[name]
            out[name] = total[num] / total[den] if total[den] else 0.0
        else:
            out[name] = total[name] / n
    return out


def counter_drift(samples: list[Sample], passes: int) -> list[str]:
    """Exact counters whose per-pass totals differ between passes."""
    per_pass = [Counter() for _ in range(passes)]
    for s in samples:
        per_pass[s.pass_no].update({k: v for k, v in s.profile.items() if is_exact(k)})
    names = sorted(set().union(*per_pass))
    return [k for k in names if len({c[k] for c in per_pass}) > 1]


def calls_by_kind(pool, samples: list[Sample]) -> dict[str, dict[str, float]]:
    """Mean ``*.calls`` per request, for each kind of request."""
    sums: dict[str, Counter] = {}
    counts: Counter = Counter()
    for s in samples:
        kind = pool.requests[s.slot].kind
        counts[kind] += 1
        sums.setdefault(kind, Counter()).update(
            {k: v for k, v in s.profile.items() if k.endswith(".calls")})
    return {kind: {k: v / counts[kind] for k, v in sorted(c.items())}
            for kind, c in sums.items()}


def run(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    setups, setups_wall = [], []
    for _ in range(SETUP_REPEATS):
        wall, took, hm, pool = set_up(workload, seed, work)
        setups.append(took)
        setups_wall.append(wall)
    passes = max(1, round(seconds / workload.nominal_pass_s))
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        samples = timed_loop(pool, passes, work, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    outcomes, digests = check_outputs(pool, samples, passes)
    latencies = [s.latency * s.scale for s in samples]
    wall = [s.latency for s in samples]
    loop_s = sum(latencies)
    tail = summary.tail(latencies)
    wall_tail = summary.tail(wall)
    info = {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "passes": passes, "requests_per_pass": len(pool.requests),
        "inputs": pool.sizes, "setup_runs_s": setups, "setup_wall_s": setups_wall,
        "attempted": len(outcomes), "failed": outcomes.count(False),
        "failed_frac": summary.failed_frac(outcomes),
        "latencies_ms": [1000 * x for x in latencies],
        "loop_s": loop_s, "loop_wall_s": sum(wall),
        "host_slowdown": statistics.median(1 / s.scale for s in samples),
        "wall_p50_ms": 1000 * statistics.median(wall),
        "wall_tail_ms": 1000 * wall_tail[0] if wall_tail else None,
        "setup_s": statistics.median(setups),
        "req_p50_ms": 1000 * statistics.median(latencies),
        "req_tail_ms": 1000 * tail[0] if tail else None,
        "req_tail_pct": tail[1] if tail else None,
        "req_per_s": outcomes.count(True) / loop_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_digests": digests,
        "digest": digests[0] if len(set(digests)) == 1 else None,
    }
    if trace:
        info["layers"] = layer_metrics(samples)
        info["counter_drift"] = counter_drift(samples, passes)
        info["calls_by_kind"] = calls_by_kind(pool, samples)
    return info


def print_report(info: dict) -> None:
    n = info["attempted"]
    mode = "traced" if info["trace"] else "untraced"
    print(f"workload {info['workload']}  seed {info['seed']}  {mode}  "
          f"{info['passes']} x {info['requests_per_pass']} requests per pass  "
          f"inputs {json.dumps(info['inputs'])}")
    print(f"  times at the reference speed; the host ran the reference "
          f"{info['host_slowdown']:.2f}x slower than {1000 * hostspeed.REFERENCE_S} ms "
          f"(median over requests)")
    setups = ", ".join(f"{t:.3f}" for t in info["setup_runs_s"])
    walls = ", ".join(f"{t:.3f}" for t in info["setup_wall_s"])
    print(f"  setup_s      {info['setup_s']:.4f} s    median of {len(info['setup_runs_s'])} "
          f"set-ups ({setups}; wall clock {walls})")
    print(f"  req_p50_ms   {info['req_p50_ms']:.2f} ms   n={n}; wall clock "
          f"{info['wall_p50_ms']:.2f} ms")
    if info["req_tail_ms"] is None:
        print(f"  req_tail_ms  n/a        n={n}: fewer than {summary.TAIL_BEYOND + 1} samples")
    else:
        print(f"  req_tail_ms  {info['req_tail_ms']:.2f} ms   p{info['req_tail_pct']:.1f}, "
              f"{summary.TAIL_BEYOND} samples beyond, n={n}; wall clock "
              f"{info['wall_tail_ms']:.2f} ms")
    print(f"  req_per_s    {info['req_per_s']:.4f} 1/s  over {info['loop_s']:.2f} s of loop "
          f"({info['loop_wall_s']:.2f} s wall clock)")
    print(f"  failed_frac  {info['failed_frac']:.4f}      {info['failed']} of {n} failed")
    print(f"  peak_rss_mb  {info['peak_rss_mb']:.1f} MB")
    same = (("identical in every pass" if info["passes"] > 1 else "one pass")
            if info["digest"] else "DIFFERS between passes")
    print(f"  digest       sha256:{info['pass_digests'][0]} ({same})")
    if info["trace"]:
        for name, val in info["layers"].items():
            print(f"  {name:42s} {val:.6g} {PER_LAYER[name]}")
        for kind, calls in info["calls_by_kind"].items():
            print(f"  calls per {kind} request: "
                  + ", ".join(f"{k} {v:g}" for k, v in calls.items()))
        if info["counter_drift"]:
            print(f"  EXACT COUNTERS DIFFER between passes: {', '.join(info['counter_drift'])}")


def result_line(info: dict) -> dict:
    correct = (info["failed"] == 0 and info["digest"] is not None
               and not info.get("counter_drift"))
    if info["trace"]:
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in info["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": info["setup_s"], "unit": "s"},
            "req_p50_ms": {"value": info["req_p50_ms"], "unit": "ms"},
            "req_tail_ms": {"value": info["req_tail_ms"], "unit": "ms"},
            "req_per_s": {"value": info["req_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": info["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": correct, "attempted": info["attempted"],
            "failed": info["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        print("error: refusing to run under python -O; the engine's and cover's "
              "assert postconditions are part of the measured program", file=sys.stderr)
        return 2
    if not (SRC / "halfmatch" / "__init__.py").is_file():
        print(f"error: no halfmatch sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        info = run(WORKLOADS[args.workload], args.seed, args.seconds,
                   bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if info["req_tail_ms"] is None and not args.trace:
        print("error: too few requests for the tail percentile", file=sys.stderr)
        return 1
    print_report(info)
    print("detail: " + json.dumps(info, sort_keys=True))
    print(json.dumps(result_line(info)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
