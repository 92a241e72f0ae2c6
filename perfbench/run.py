"""Whole-run benchmark of the ``repro`` scale checker.

    python3 perfbench/run.py --workload decommission --seed 42 --seconds 28 --trace 0

Runs the workload repeatedly for about ``--seconds`` seconds, each time in
a fresh process (``iteration.py``).  The runs cycle through
``SUBSEEDS`` input seeds derived from ``--seed``, so a set's medians do not
hang on one seed's cluster history.  Every run's canonical digest is
checked: against the golden digest recorded for its input seed when there
is one (``golden.json``), and against the other runs of the set with the
same input seed always.

With ``--trace 0`` it reports the end-to-end metrics (medians over the
runs): set-up, run and total wall seconds and peak RSS.  With
``--trace 1`` it alternates untraced and traced runs and reports the
per-layer metrics of the traced ones, the garbage-collector figures of the
untraced ones and the tracing overhead between them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run fails when
it raises, times out, fails a check or its digest differs.

``--record-golden`` runs each workload once per input seed of the golden
seeds (42 and the held-out 7) and rewrites
``golden.json``; do it only when the program is meant to change its
output.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
GOLDEN_SEEDS = (42, 7)
#: Input seeds per ``--seed``: run ``i`` uses ``seed * SUBSEEDS + i % SUBSEEDS``
#: (a traced run repeats the input of the untraced run before it).
SUBSEEDS = 4

WORKLOADS = ("decommission", "traffic", "pil_check", "partitioned")

#: End-to-end metrics: name -> (unit, key in an iteration result).
END_TO_END = {
    "setup_s": ("s", "setup_s"),
    "run_s": ("s", "run_s"),
    "total_s": ("s", "total_s"),
    "peak_rss_mb": ("MiB", "peak_rss_mb"),
}

#: Fewest untraced runs whose median is reported (one per input seed).
MIN_RUNS = SUBSEEDS
#: Every run of this script ends within this many seconds.
HARD_LIMIT_S = 170.0


def run_iteration(workload: str, seed: int, traced: bool,
                  timeout: float) -> Dict[str, Any]:
    """One fresh-process run; failures come back as ``{"error": ...}``."""
    command = [sys.executable, str(HERE / "iteration.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", "1" if traced else "0"]
    started = time.perf_counter()
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return {"error": f"timed out after {timeout:.0f}s", "traced": traced,
                "seed": seed, "wall_s": time.perf_counter() - started}
    wall_s = time.perf_counter() - started
    if process.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {process.returncode}: {tail[0]}",
                "traced": traced, "seed": seed, "wall_s": wall_s}
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "no result line", "traced": traced, "seed": seed,
                "wall_s": wall_s}
    result["wall_s"] = wall_s
    failed = sorted(name for name, ok in result["checks"].items() if not ok)
    if failed:
        result["error"] = "check failed: " + "; ".join(failed)
    return result


def load_golden() -> Dict[str, Dict[str, str]]:
    """Golden digests by workload and seed."""
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def input_seeds(seed: int) -> List[int]:
    """The input seeds a set derived from ``seed`` cycles through."""
    return [seed * SUBSEEDS + k for k in range(SUBSEEDS)]


def judge(results: List[Dict[str, Any]], golden: Dict[str, str]) -> None:
    """Mark runs whose digest is wrong: not the golden one for its input
    seed, or (without a golden digest) not the one most runs of the set
    with that input seed share."""
    for seed in sorted({r["seed"] for r in results}):
        same = [r for r in results if r["seed"] == seed and "error" not in r]
        digests = [r["digest"] for r in same]
        if not digests:
            continue
        expected = golden.get(str(seed))
        if expected is None:
            expected = max(sorted(set(digests)), key=digests.count)
        for result in same:
            if result["digest"] != expected:
                result["error"] = (f"digest {result['digest'][:12]} != "
                                   f"expected {expected[:12]}")


def median(results: List[Dict[str, Any]], key: str) -> float:
    return statistics.median(r[key] for r in results)


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> List[Dict[str, Any]]:
    """Run iterations until the time is used; returns every result.

    Untraced sets run at least ``MIN_RUNS`` iterations; traced sets run
    untraced/traced pairs, at least one.  No iteration starts that is
    expected to end past ``HARD_LIMIT_S``.
    """
    started = time.perf_counter()
    seeds = input_seeds(seed)
    results: List[Dict[str, Any]] = []
    while True:
        traced = trace and len(results) % 2 == 1
        turn = len(results) // 2 if trace else len(results)
        elapsed = time.perf_counter() - started
        result = run_iteration(workload, seeds[turn % SUBSEEDS], traced,
                               timeout=max(1.0, HARD_LIMIT_S - elapsed))
        results.append(result)
        tag = "traced" if traced else "untraced"
        if "error" in result:
            print(f"run {len(results)} ({tag}, seed {result['seed']}): "
                  f"FAILED {result['error']}", flush=True)
        else:
            print(f"run {len(results)} ({tag}, seed {result['seed']}): "
                  f"total {result['total_s']:.3f}s "
                  f"setup {result['setup_s']:.3f}s run {result['run_s']:.3f}s "
                  f"rss {result['peak_rss_mb']:.1f}MiB "
                  f"digest {result['digest'][:12]}", flush=True)
        elapsed = time.perf_counter() - started
        walls = [r["wall_s"] for r in results]
        step = (walls[-2] + walls[-1]) if trace and len(walls) > 1 else walls[-1]
        done = (len(results) % 2 == 0 if trace else len(results) >= MIN_RUNS)
        if done and elapsed + 0.5 * step >= seconds:
            break
        if elapsed + 1.2 * max(walls) >= HARD_LIMIT_S:
            break
    return results


def end_to_end(results: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    return {name: {"value": median(results, key), "unit": unit}
            for name, (unit, key) in END_TO_END.items()}


def per_layer(untraced: List[Dict[str, Any]],
              traced: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    from perfbench.layers import unit_of

    names = list(traced[0]["per_layer"])
    metrics = {}
    for name in names:
        value = statistics.median(r["per_layer"][name] for r in traced)
        metrics[name] = {"value": value, "unit": unit_of(name)}
    metrics["py.gc_n"] = {"value": median(untraced, "gc_n"), "unit": "count"}
    metrics["py.gc_s"] = {"value": median(untraced, "gc_s"), "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": median(traced, "total_s") - median(untraced, "total_s"),
        "unit": "s"}
    return metrics


def print_split(traced: List[Dict[str, Any]]) -> None:
    """Human-readable layer split of the first traced run."""
    split = traced[0]["layer_self_s"]
    total = sum(seconds for __, seconds in split) or 1.0
    print("layer self time (traced run):")
    for layer, seconds in split:
        if seconds > 0:
            print(f"  {layer:<10} {seconds:8.3f}s {100 * seconds / total:5.1f}%")
    if traced[0].get("missing"):
        print("not found in the program: " + ", ".join(traced[0]["missing"]))


def record_golden() -> int:
    golden: Dict[str, Dict[str, str]] = {}
    for workload in WORKLOADS:
        golden[workload] = {}
        for seed in (s for base in GOLDEN_SEEDS for s in input_seeds(base)):
            result = run_iteration(workload, seed, False, HARD_LIMIT_S)
            if "error" in result:
                print(f"{workload} seed {seed}: {result['error']}",
                      file=sys.stderr)
                return 1
            golden[workload][str(seed)] = result["digest"]
            print(f"{workload} seed {seed}: {result['digest']}")
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="whole-run benchmark of the repro scale checker")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        parser.error("--workload is required")
    golden = load_golden().get(args.workload, {})
    results = measure(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    judge(results, golden)
    ok = [r for r in results if "error" not in r]
    failed = len(results) - len(ok)
    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    correct = (failed == 0 and bool(untraced)
               and (bool(traced) or not args.trace))
    checked = sorted(s for s in input_seeds(args.seed) if str(s) in golden)
    print(f"fail_frac {failed}/{len(results)} (input seeds "
          f"{input_seeds(args.seed)}; golden digests checked for {checked})")
    metrics: Dict[str, Dict[str, Any]] = {}
    if correct:
        for name in sorted(untraced[0]["figures"]):
            values = [r["figures"][name] for r in untraced]
            print(f"  {name}: " + " ".join(f"{v:g}" for v in values))
        for name in sorted(untraced[0]["legs"]):
            print(f"  {name} (median): "
                  f"{statistics.median(r['legs'][name] for r in untraced):.3f}")
        if args.trace:
            print_split(traced)
            metrics = per_layer(untraced, traced)
        else:
            metrics = end_to_end(untraced)
    print(json.dumps({"correct": correct, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
