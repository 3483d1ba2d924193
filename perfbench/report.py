"""Run every workload untraced and twice traced, and print one report.

    python3 perfbench/report.py --seed 1 --seconds 15 [--out perfbench/baseline.json]

Each run is a separate process (``run.py``), so peak memory is per
workload. The end-to-end metrics come from the untraced run and the
per-layer metrics from the first traced one. The report checks that the
three runs' output digests agree, that the exact counters repeat between
the two traced runs, and that the layers a workload should bypass saw
zero calls; it states the tracing overhead as the untraced minus the
traced ``req_per_s``. ``--out`` writes everything as a JSON baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from run import PER_LAYER
from spans import is_exact
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

END_TO_END = (("setup_s", "s"), ("req_p50_ms", "ms"), ("req_tail_ms", "ms"),
              ("req_per_s", "1/s"), ("failed_frac", "ratio"), ("peak_rss_mb", "MB"))

#: which ROADMAP open item each per-layer metric is expected to move
ROADMAP_ITEMS = {
    "2 (integer-pivoting simplex)": ["simplex.*"],
    "3 (no materialized derived markets)": [
        "reductions.derived_edges", "core.validated_edges",
        "peak_rss_mb on maxw-critical"],
    "4 (delete duplicate scans and duals)": [
        "core.blocking_edges.calls", "solvers.max_weight_dual.calls",
        "io.instance_digest.calls"],
}

#: the end-to-end metric each layer's metrics should move, and where
MOVES = {
    "cli.main": "req_p50_ms on stable-large and maxw-critical",
    "io": "req_p50_ms on stable-large",
    "solvers": "req_p50_ms on maxw-critical",
    "reductions": "req_p50_ms and peak_rss_mb on maxw-critical; req_p50_ms on stable-large",
    "core.validate_instance": "as reductions: derived markets go through full validation",
    "core.blocking_edges": "req_p50_ms on stable-large; req_per_s on desk-audit",
    "engine.stable_half_matching": "req_p50_ms and req_tail_ms on maxw-critical and stable-large",
    "engine.brute_force": "req_per_s on desk-audit",
    "cover": "req_p50_ms on maxw-critical only",
    "popularity": "req_per_s on desk-audit only",
    "simplex": "req_p50_ms and req_tail_ms on desk-audit only",
}


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                          timeout=900)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    detail = next(line for line in proc.stdout.splitlines() if line.startswith("detail: "))
    info = json.loads(detail[len("detail: "):])
    info["result"] = json.loads(proc.stdout.splitlines()[-1])
    return info


def bypass_calls(info: dict, layers: tuple[str, ...]) -> dict[str, float]:
    """Calls per request into the layers that should have been bypassed."""
    return {k: v for k, v in info["layers"].items()
            if k.split(".", 1)[0] in layers and k.endswith(".calls") and v}


def counter_changes(a: dict, b: dict) -> list[str]:
    """Exact counters that differ between two traced runs of one seed."""
    return sorted(k for k in a["layers"] if is_exact(k) and a["layers"][k] != b["layers"][k])


def report(name: str, plain: dict, traced: dict, again: dict) -> dict:
    w = WORKLOADS[name]
    print(f"== {name} ==")
    print(f"  why: {w.why}")
    print(f"  mix: {w.mix}")
    print(f"  inputs: {json.dumps(plain['inputs'])}")
    print(f"  requests: {plain['attempted']} ({plain['passes']} x "
          f"{plain['requests_per_pass']} per pass), one client, closed loop")
    print(f"  times at the reference speed; host slowdown {plain['host_slowdown']:.2f}x "
          f"(traced runs {traced['host_slowdown']:.2f}x, {again['host_slowdown']:.2f}x)")
    for metric, unit in END_TO_END:
        note = ""
        if metric == "req_p50_ms":
            note = f"n={plain['attempted']}"
        elif metric == "req_tail_ms":
            note = f"p{plain['req_tail_pct']:.1f}, 10 samples beyond, n={plain['attempted']}"
        elif metric == "failed_frac":
            note = f"{plain['failed']} of {plain['attempted']} failed"
        print(f"  {metric:12s} {plain[metric]:12.4f} {unit:5s} {note}")

    same = plain["digest"] is not None and plain["digest"] == traced["digest"] == again["digest"]
    print(f"  digest       sha256:{plain['digest']}  traced runs: "
          + ("identical" if same else f"DIFFER ({traced['digest']}, {again['digest']})"))
    overhead = plain["req_per_s"] - traced["req_per_s"]
    print(f"  tracing overhead: req_per_s {plain['req_per_s']:.4f} untraced - "
          f"{traced['req_per_s']:.4f} traced = {overhead:.4f} 1/s "
          f"({100 * overhead / plain['req_per_s']:.1f}% of untraced)")
    stray = bypass_calls(traced, w.bypassed)
    print(f"  bypassed layers {', '.join(w.bypassed)}: "
          + ("zero calls" if not stray else f"UNEXPECTED CALLS {stray}"))
    drift = sorted(set(traced["counter_drift"]) | set(counter_changes(traced, again)))
    print("  exact counters: " + ("repeat in both traced runs" if not drift
                                  else f"DIFFER: {', '.join(drift)}"))
    print("  per-layer (traced run):")
    for metric, unit in PER_LAYER.items():
        print(f"    {metric:42s} {traced['layers'][metric]:14.6g} {unit}")
    for kind, calls in traced["calls_by_kind"].items():
        print(f"  calls per {kind} request:")
        for k, v in calls.items():
            print(f"    {k:42s} {v:g}")
    print()
    return {
        "why": w.why, "generator": w.generator, "mix": w.mix,
        "bypassed": list(w.bypassed),
        "digests_match": same, "tracing_overhead_req_per_s": overhead,
        "bypass_ok": not stray, "exact_counters_repeat": not drift,
        "untraced": plain, "traced": traced,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--out", help="write the report as a JSON baseline here")
    args = parser.parse_args()

    doc = {
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "seed": args.seed, "seconds": args.seconds,
        "roadmap_items": ROADMAP_ITEMS, "moves": MOVES, "workloads": {},
    }
    ok = True
    for name in WORKLOADS:
        plain = run_one(name, args.seed, args.seconds, 0)
        traced = run_one(name, args.seed, args.seconds, 1)
        again = run_one(name, args.seed, args.seconds, 1)
        rec = report(name, plain, traced, again)
        doc["workloads"][name] = rec
        ok &= (rec["digests_match"] and rec["bypass_ok"] and rec["exact_counters_repeat"]
               and all(r["result"]["correct"] for r in (plain, traced, again)))
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8")
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
