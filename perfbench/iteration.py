"""One measured run of one workload, in the process that runs it.

``run.py`` starts this file once per measured run, so every run starts
with a fresh heap and a fresh peak-RSS watermark.  It prints one JSON
line: the digest and checks of what the program produced, the phase
wall times, the peak RSS and, for a traced run, the per-layer metrics.

    python3 perfbench/iteration.py --workload decommission --seed 42 --trace 0
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_perf = time.perf_counter


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and check that
    ``repro`` comes from it."""
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    location = Path(repro.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise ImportError(f"repro imported from {location}, not {SRC}")


def peak_rss_mb() -> float:
    """Peak RSS of this process and of its reaped children, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Harness:
    """Phase timing (always) and layer tracing (traced runs) for one run.

    Besides the phase clock it hooks three places: ``Cluster.report``
    (harvest counters a cluster keeps on its objects), ``Shard.__init__``
    / ``Shard.finish`` (which run inside forked shard workers: reset the
    inherited counts, then ship this worker's phases and records back on
    the shard result) and ``merge_results`` (unpack the shipments in the
    coordinator).
    """

    SHIP = "_perfbench"

    def __init__(self, trace: bool) -> None:
        from perfbench.layers import LayerTrace
        from perfbench.spans import GcClock, PhaseClock

        self.pid = os.getpid()
        self.clock = PhaseClock()
        self.gc = GcClock()
        #: (collections, seconds) reported by shard workers.
        self.shard_gc = [0, 0.0]
        self.layers: Optional[LayerTrace] = LayerTrace() if trace else None
        self.partition_started = 0.0
        self.merge_started = 0.0
        #: (start, end) set-up intervals reported by shard workers.
        self.shard_setup: List[Tuple[float, float]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._worker_ready = False

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Hook the program (before the workload imports or builds)."""
        from repro.cassandra import partition
        from repro.cassandra.cluster import Cluster
        from repro.sim.kernel import Simulator

        if self.layers is not None:
            self.layers.install()
        else:
            self.gc.install()
        clock = self.clock
        clock.wrap(Cluster, "build_established", "setup")
        clock.wrap(Cluster, "build_unjoined", "setup")
        clock.wrap(Cluster, "run", "run")
        clock.wrap(Simulator, "run", "run")
        clock.wrap(partition.Shard, "__init__", "setup")
        harness = self

        report = Cluster.report

        @functools.wraps(report)
        def harvested_report(cluster, *args, **kwargs):
            if harness.layers is not None:
                harness.layers.harvest_cluster(cluster)
            return report(cluster, *args, **kwargs)
        self._patch(Cluster, "report", harvested_report)

        shard_init = partition.Shard.__init__

        @functools.wraps(shard_init)
        def worker_init(shard, *args, **kwargs):
            if os.getpid() != harness.pid and not harness._worker_ready:
                harness._worker_ready = True
                clock.reset()
                harness.gc.reset()
                if harness.layers is not None:
                    harness.layers.reset_for_worker()
            return shard_init(shard, *args, **kwargs)
        self._patch(partition.Shard, "__init__", worker_init)

        finish = partition.Shard.finish

        @functools.wraps(finish)
        def shipped_finish(shard, *args, **kwargs):
            result = finish(shard, *args, **kwargs)
            if harness.layers is not None:
                harness.layers.harvest_cluster(shard.cluster)
            if os.getpid() != harness.pid:
                shipment = {"setup": list(clock.intervals.get("setup", ())),
                            "gc": (harness.gc.collections, harness.gc.seconds)}
                if harness.layers is not None:
                    shipment["trace"] = harness.layers.ship()
                vars(result)[Harness.SHIP] = shipment
            else:
                harness.shard_setup.extend(clock.intervals.get("setup", ()))
            return result
        self._patch(partition.Shard, "finish", shipped_finish)

        merge = partition.merge_results

        @functools.wraps(merge)
        def unpacking_merge(spec, results):
            harness.merge_started = _perf()
            for result in results:
                shipment = vars(result).pop(Harness.SHIP, None)
                if shipment is None:
                    continue
                harness.shard_setup.extend(
                    tuple(interval) for interval in shipment["setup"])
                harness.shard_gc[0] += shipment["gc"][0]
                harness.shard_gc[1] += shipment["gc"][1]
                if harness.layers is not None and "trace" in shipment:
                    harness.layers.absorb(shipment["trace"])
            return merge(spec, results)
        self._patch(partition, "merge_results", unpacking_merge)

        run_partitioned = partition.run_partitioned

        @functools.wraps(run_partitioned)
        def timed_run_partitioned(spec):
            harness.partition_started = _perf()
            return run_partitioned(spec)
        self._patch(partition, "run_partitioned", timed_run_partitioned)

    def uninstall(self) -> None:
        """Restore the program."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        self.clock.uninstall()
        self.gc.uninstall()
        if self.layers is not None:
            self.layers.uninstall()

    def phases(self, partitioned: bool) -> Dict[str, float]:
        """Set-up and run seconds of the finished workload.

        A partitioned run builds its shards inside the workers, in
        parallel: set-up lasts from the call until the last shard is
        built, and the barrier loop from then until the merge starts.
        """
        if partitioned:
            built = max(end for __, end in self.shard_setup)
            return {"setup_s": built - self.partition_started,
                    "run_s": self.merge_started - built}
        return {"setup_s": self.clock.total("setup"),
                "run_s": self.clock.total("run")}


def run_once(workload: str, seed: int, trace: bool) -> Dict[str, Any]:
    """Run ``workload`` once in this process and describe the result."""
    from perfbench.workloads import IMPORTS, WORKLOADS

    for module in IMPORTS:
        importlib.import_module(module)
    harness = Harness(trace)
    harness.install()
    gc.collect()
    try:
        if harness.layers is not None:
            harness.layers.tracer.reset()
        harness.gc.reset()
        started = _perf()
        outcome = WORKLOADS[workload](seed)
        total_s = _perf() - started
        result: Dict[str, Any] = {
            "workload": workload,
            "seed": seed,
            "traced": trace,
            "digest": outcome.digest,
            "checks": outcome.checks,
            "figures": outcome.figures,
            "legs": outcome.legs,
            "total_s": total_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        result.update(harness.phases(partitioned=outcome.shards > 0))
        if harness.layers is None:
            result["gc_n"] = harness.gc.collections + harness.shard_gc[0]
            result["gc_s"] = harness.gc.seconds + harness.shard_gc[1]
        layers = harness.layers
        if layers is not None:
            layers.tracer.close_root()
            for report in outcome.reports:
                layers.harvest_report(report)
            result["per_layer"] = layers.metrics(shards=outcome.shards)
            result["layer_self_s"] = layers.layer_shares()
            result["missing"] = layers.missing
    finally:
        harness.uninstall()
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    result = run_once(args.workload, args.seed, bool(args.trace))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    status = main()
    # Skip tearing down the run's heap (half a second at N=256): the
    # result is out and every shard worker has been joined.
    sys.stderr.flush()
    os._exit(status)
