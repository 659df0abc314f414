#!/usr/bin/env python3
"""Tiamat benchmark: remote take, scan and contended ``in`` on three runtimes.

Run from the repository root::

    python3 perfbench/run.py --workload take_pair --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One process runs one workload (``all`` runs each in its own child
process).  It sets up ``sim``, ``threads`` and ``aio`` (three times, to
time set-up; the last set-up is kept), then drives them in short
alternating segments, reversing the order every round, with a fixed
pure-Python reference loop timed between every two segments.  Each
segment's wall-clock numbers are scaled by (measured reference rate /
``NOMINAL_REF_PER_S``), i.e. reported at the nominal reference speed, so a
host that is slower for a while does not read as a slower program.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``layers.py``).  Metric names and units come
from ``BENCHMARK.json``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See README.md
in this directory for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("take_pair", "read_scan", "contended_in")

perf_ns = time.perf_counter_ns

#: Reference-loop iterations per second at nominal speed; every normalised
#: number reads as if the host ran the reference loop this fast.  A round
#: figure inside the range the loop runs at on a 2-vCPU x86-64 VM with
#: CPython 3.11 (about 300k to 600k, depending on the host's load).
NOMINAL_REF_PER_S = 4.0e5
#: Iterations in one reference slice (about 5 ms at nominal speed).
REF_ITERS = 2_000
#: CPU time other threads may use during a reference slice before the run
#: is declared invalid (clock-read skew is a few microseconds).
REF_GUARD_NS = 500_000

#: Full set-ups per run; ``setup_s`` is their median, the last one is kept.
SETUPS = 3
#: Wall-clock length of one runtime's segment within a round.  Short, so
#: the reference slices on either side see the host as the segment did.
SEGMENT_NS = 50_000_000
#: Sim operations in the count window that follows warm-up.  Exact counts
#: (frames, bytes, virtual latency, kernel events) are taken over it, so
#: they repeat exactly for a seed.
COUNT_OPS = 1000


class ReferenceGuardError(RuntimeError):
    """Another thread used CPU while the reference loop was timed."""


class _RefNode:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: str, value: int, nxt) -> None:
        self.key = key
        self.value = value
        self.next = nxt

    def weight(self) -> int:
        return self.value * 3 + len(self.key)


_REF_TABLE = {f"key{i}": i for i in range(4096)}
_REF_KEYS = list(_REF_TABLE)


def reference_work(n: int) -> int:
    """Fixed pure-Python work shaped like middleware code.

    Small objects and method calls, dict and list traffic, a heap of
    tuples, string formatting and small JSON documents.  It shares nothing
    with the program under test, so its speed tracks only the host (CPU
    frequency, neighbours, caches).
    """
    acc = 0
    heap: list = []
    head = None
    for i in range(n):
        key = _REF_KEYS[(i * 7919) & 4095]
        head = _RefNode(key, _REF_TABLE[key], head if i & 63 else None)
        acc = (acc + head.weight()) & 0x7FFFFFFF
        heapq.heappush(heap, ((i * 2654435761) & 1023, i))
        if len(heap) > 256:
            acc ^= heapq.heappop(heap)[1]
        if i & 7 == 0:
            acc += len(json.dumps({"k": "q", "id": i, "p": [acc, key, 0.5]}))
    return acc


def reference_slice() -> float:
    """Time one reference slice; returns iterations per wall second.

    Process CPU time is read outside the thread's own CPU time, so their
    difference is what every other thread of the process used meanwhile.
    """
    p0 = time.process_time_ns()
    t0 = time.thread_time_ns()
    w0 = perf_ns()
    reference_work(REF_ITERS)
    w1 = perf_ns()
    t1 = time.thread_time_ns()
    p1 = time.process_time_ns()
    other = (p1 - p0) - (t1 - t0)
    if other > REF_GUARD_NS:
        raise ReferenceGuardError(
            f"other threads used {other / 1e6:.2f} ms of CPU during a "
            f"reference slice; normalised timings would be invalid")
    return REF_ITERS * 1e9 / (w1 - w0)


_GC_YOUNG, _GC_MIDDLE, _GC_OLD = gc.get_threshold()


def collect_due() -> None:
    """Run the young collection automatic GC would run now, if any.

    Measurement runs with automatic collection off and calls this between
    operations instead: collection time is charged to the segment's busy
    time (so ``ops_per_s`` pays it) but not to the operation it would have
    interrupted.  The three runtimes share one process, so a pause would
    otherwise land on one runtime's tail for garbage the others made.
    """
    young, middle, _ = gc.get_count()
    if young > _GC_YOUNG:
        gc.collect(1 if middle >= _GC_MIDDLE else 0)


def collect_old() -> None:
    """The full collection automatic GC would have run by now, untimed."""
    if gc.get_count()[2] >= _GC_OLD:
        gc.collect()


def pct(values: list, q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ---------------------------------------------------------------------------
# Segments
# ---------------------------------------------------------------------------
def run_segment(driver, budget_ns: float = float("inf"),
                max_ops: float = float("inf")):
    """Closed loop on one driver: (latencies, op starts, busy ns)."""
    if driver.runtime == "aio":
        return driver.submit(_aio_segment(driver, budget_ns, max_ops))
    lats: list = []
    starts: list = []
    op = driver.op
    begin = perf_ns()
    end = begin + budget_ns
    while len(lats) < max_ops:
        start = perf_ns()
        if start >= end:
            break
        lats.append(op())
        starts.append(start)
        collect_due()
    return lats, starts, perf_ns() - begin


async def _aio_segment(driver, budget_ns: float, max_ops: float):
    await driver.begin()
    try:
        lats: list = []
        starts: list = []
        aop = driver.aop
        begin = perf_ns()
        end = begin + budget_ns
        while len(lats) < max_ops:
            start = perf_ns()
            if start >= end:
                break
            lats.append(await aop())
            starts.append(start)
            collect_due()
        busy = perf_ns() - begin
    finally:
        await driver.end()
    return lats, starts, busy


class Timing:
    """Normalised latencies and busy time of one runtime's segments.

    Latencies are kept in compact arrays so the harness's own memory does
    not grow with the number of operations a run manages.
    """

    def __init__(self) -> None:
        self.lats = array("d")
        self.raw_lats = array("q")
        self.busy = 0.0
        self.raw_busy = 0
        self.ops = 0

    def add(self, lats: list, busy: int, factor: float) -> None:
        self.raw_lats.extend(lats)
        self.lats.extend(lat * factor for lat in lats)
        self.busy += busy * factor
        self.raw_busy += busy
        self.ops += len(lats)

    def us_per_op(self) -> float:
        return self.busy / self.ops / 1e3


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------
def _store_counters(driver) -> "tuple[int, int]":
    """Scan-cache (hits, misses) summed over a driver's stores."""
    stores = [node.space.store for node in driver.nodes.values()]
    return (sum(s.scan_cache_hits for s in stores),
            sum(s.scan_cache_misses for s in stores))


def _aio_counters(driver) -> dict:
    """Public aio counters: wire totals, QUERY probes, client hits."""
    stats = driver.registry.stats()
    reg = driver.registry.obs.registry
    probes = sum(s["value"] for s in reg.get("runtime_serve_total").samples())
    clients = {node.name for node in driver.clients}
    hits = sum(s["value"] for s in reg.get("runtime_ops_total").samples()
               if s["labels"]["outcome"] == "hit"
               and s["labels"]["node"] in clients)
    return {"datagrams": stats["frames_sent"], "bytes": stats["bytes_sent"],
            "retransmits": stats["retransmits"], "probes": probes,
            "hits": hits}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Run:
    """Set-up, count window, timed rounds and teardown of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool) -> None:
        import workloads
        from workloads import RUNTIMES

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.classes = workloads.DRIVERS[workload]
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.refs: list = []
        self.setup_norm: list = []
        self.setup_raw: list = []
        self.untraced = {rt: Timing() for rt in RUNTIMES}
        self.traced = {rt: Timing() for rt in RUNTIMES}
        self.tracer = None
        if trace:
            from layers import Tracer

            self.tracer = Tracer()
            n = len(self.tracer.points)
            self.layer_ns = {rt: [0.0] * n for rt in self.untraced}
            self.layer_calls = {rt: [0] * n for rt in self.untraced}
            self.scanned = {rt: 0 for rt in self.untraced}
            self.aio_delta = dict.fromkeys(
                ("datagrams", "bytes", "retransmits", "probes", "hits"), 0)
            self.op_spans: list = []

    def _driver(self, runtime: str):
        return next(d for d in self.drivers if d.runtime == runtime)

    def _ref(self, slices: int = 1) -> float:
        """Median rate of ``slices`` reference slices (all recorded)."""
        rates = [reference_slice() for _ in range(slices)]
        self.refs += rates
        return statistics.median(rates)

    # -- phases ----------------------------------------------------------
    def setup(self) -> None:
        """Build all three runtimes ``SETUPS`` times; keep the last."""
        for i in range(SETUPS):
            gc.collect()  # each set-up starts from the same clean heap
            r0 = self._ref(5)
            start = perf_ns()
            drivers = [cls(self.workload, self.seed) for cls in self.classes]
            for driver in drivers:
                driver.setup()
                run_segment(driver, max_ops=driver.warmup_ops)
            took = (perf_ns() - start) / 1e9
            r1 = self._ref(5)
            self.setup_raw.append(took)
            self.setup_norm.append(took * (r0 + r1) / 2 / NOMINAL_REF_PER_S)
            if i < SETUPS - 1:
                self._retire(drivers)
        self.drivers = drivers
        # What set-up built stays alive for the whole run: keep it out of
        # every later collection, then collect by hand (see collect_due).
        gc.collect()
        gc.freeze()
        gc.disable()

    def count_window(self) -> None:
        """``COUNT_OPS`` sim operations, traced in a traced run."""
        sim = self._driver("sim")
        stats = sim.network.stats
        before = (sim.sim.events_processed, stats.total_messages,
                  stats.total_bytes, _store_counters(sim),
                  sum(i.reliability.retransmits for i in sim.nodes.values()))
        sim.vlats = []
        if self.tracer is not None:
            self.tracer.install()
            self.tracer.begin("sim")
        try:
            run_segment(sim, max_ops=COUNT_OPS)
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        after = (sim.sim.events_processed, stats.total_messages,
                 stats.total_bytes, _store_counters(sim),
                 sum(i.reliability.retransmits for i in sim.nodes.values()))
        self.window = {
            "events": after[0] - before[0],
            "frames": after[1] - before[1],
            "bytes": after[2] - before[2],
            "cache_hits": after[3][0] - before[3][0],
            "cache_misses": after[3][1] - before[3][1],
            "retransmits": after[4] - before[4],
            "vlats": sim.vlats,
        }
        sim.vlats = None
        if self.tracer is not None:
            self.window["calls"] = list(self.tracer.calls)
            self.window["scanned"] = self.tracer.scanned

    def rounds(self) -> None:
        """Alternating segments until ``seconds`` have passed.

        In a traced run every other round is traced, so traced and
        untraced time per op are measured under the same host conditions.
        """
        order = list(self.drivers)
        r_prev = self._ref()
        deadline = perf_ns() + self.seconds * 1e9
        rnd = 0
        while perf_ns() < deadline or (self.trace and rnd < 2):
            traced = self.trace and rnd % 2 == 0
            for driver in order:
                rt = driver.runtime
                before = None
                if traced:
                    if rt == "aio":
                        before = _aio_counters(driver)
                    self.tracer.install()
                    self.tracer.begin(rt)
                try:
                    lats, starts, busy = run_segment(driver,
                                                     budget_ns=SEGMENT_NS)
                finally:
                    if traced:
                        self.tracer.uninstall()
                r_next = self._ref()
                factor = ((r_prev + r_next) / 2 / NOMINAL_REF_PER_S
                          if driver.cpu_bound else 1.0)
                r_prev = r_next
                (self.traced if traced else self.untraced)[rt].add(
                    lats, busy, factor)
                if traced:
                    self._fold_trace(driver, factor, lats, starts, before)
            order.reverse()
            rnd += 1
            collect_old()

    def _fold_trace(self, driver, factor, lats, starts, before) -> None:
        rt = driver.runtime
        tr = self.tracer
        ns, calls = self.layer_ns[rt], self.layer_calls[rt]
        for fid, own in enumerate(tr.self_ns):
            ns[fid] += own * factor
            calls[fid] += tr.calls[fid]
        self.scanned[rt] += tr.scanned
        index = list(self.traced).index(rt)
        self.op_spans += [(index, s, lat) for s, lat in zip(starts, lats)]
        if before is not None:
            after = _aio_counters(driver)
            for key in self.aio_delta:
                self.aio_delta[key] += after[key] - before[key]

    def _retire(self, drivers: list) -> None:
        """Close drivers, keeping only their oracle verdicts."""
        for driver in drivers:
            driver.close()
            self.attempted += driver.attempted
            self.failed += driver.failed
            self.problems += driver.failures
            self.problems += [f"{driver.runtime}/{self.workload}: {p}"
                              for p in driver.problems()]

    def close(self) -> None:
        self.peak_rss_mib = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        gc.enable()
        gc.unfreeze()
        self._retire(self.drivers)

    # -- metrics ---------------------------------------------------------
    def end_to_end(self) -> "tuple[dict, dict]":
        """(normalised metrics, raw counterparts for the table)."""
        w = self.window
        vlats_ms = [v * 1e3 for v in w["vlats"]]
        m = {
            "setup_s": statistics.median(self.setup_norm),
            "peak_rss_mib": self.peak_rss_mib,
            "ok_ratio": 1.0 - self.failed / self.attempted,
            "sim.frames_per_op": w["frames"] / COUNT_OPS,
            "sim.bytes_per_op": w["bytes"] / COUNT_OPS,
            "sim.vlat_p50_ms": pct(vlats_ms, 0.50),
            "sim.vlat_p99_ms": pct(vlats_ms, 0.99),
        }
        raw = {"setup_s": statistics.median(self.setup_raw)}
        for rt, t in self.untraced.items():
            m[f"{rt}.ops_per_s"] = t.ops / t.busy * 1e9
            m[f"{rt}.p50_us"] = pct(t.lats, 0.50) / 1e3
            m[f"{rt}.p90_us"] = pct(t.lats, 0.90) / 1e3
            raw[f"{rt}.ops_per_s"] = t.ops / t.raw_busy * 1e9
            raw[f"{rt}.p50_us"] = pct(t.raw_lats, 0.50) / 1e3
            raw[f"{rt}.p90_us"] = pct(t.raw_lats, 0.90) / 1e3
        return m, raw

    def per_layer(self) -> dict:
        tr = self.tracer
        m: dict = {}
        fids = {label: fid for fid, label in enumerate(tr.labels)}

        def layer_us(rt: str, layer: str, pred=lambda label: True) -> float:
            ns = sum(v for fid, v in enumerate(self.layer_ns[rt])
                     if tr.layer_of[fid] == layer and pred(tr.labels[fid]))
            return ns / self.traced[rt].ops / 1e3

        def per_op_calls(rt: str, label: str) -> float:
            return self.layer_calls[rt][fids[label]] / self.traced[rt].ops

        # sim: exact counts over the count window, times over traced rounds
        w, n = self.window, COUNT_OPS
        wc = w["calls"]

        def window_calls(*labels: str) -> int:
            return sum(wc[fids[label]] for label in labels)

        codec = [label for fid, label in enumerate(tr.labels)
                 if tr.layer_of[fid] == "codec"]
        accepts = window_calls("QueryServer.handle_claim_accept")
        rejects = window_calls("QueryServer.handle_claim_reject")
        m.update({
            "sim.kernel.events_per_op": w["events"] / n,
            "sim.kernel.heap_cmp_per_op": window_calls("Timer.__lt__") / n,
            "sim.kernel.schedule_per_op":
                window_calls("Simulator.schedule") / n,
            "sim.kernel.self_us": layer_us("sim", "kernel"),
            "sim.net.self_us": layer_us("sim", "net"),
            "sim.codec.calls_per_op": window_calls(*codec) / n,
            "sim.codec.self_us": layer_us("sim", "codec"),
            "sim.lease.negotiations_per_op":
                window_calls("LeaseManager.negotiate") / n,
            "sim.lease.self_us": layer_us("sim", "lease"),
            "sim.reliability.sends_per_op":
                window_calls("ReliableChannel.send") / n,
            "sim.reliability.retransmits_per_op": w["retransmits"] / n,
            "sim.reliability.self_us": layer_us("sim", "reliability"),
            "sim.serving.queries_per_op":
                window_calls("QueryServer.handle_query") / n,
            "sim.serving.self_us": layer_us("sim", "serving"),
            "sim.serving.claim_accept_ratio":
                _ratio(accepts, accepts + rejects),
            "sim.flight.appends_per_op": window_calls("FlightRing.append") / n,
            "sim.flight.self_us": layer_us("sim", "flight"),
            "sim.store.entries_scanned_per_op": w["scanned"] / n,
            "sim.store.scan_cache_hit_ratio": _ratio(
                w["cache_hits"], w["cache_hits"] + w["cache_misses"]),
        })
        m["threads.serve.calls_per_op"] = (
            per_op_calls("threads", "ThreadedTiamatNode.serve_inp")
            + per_op_calls("threads", "ThreadedTiamatNode.serve_rdp"))
        m["threads.serve.self_us"] = layer_us("threads", "serve")
        m["aio.codec.encode_us"] = layer_us(
            "aio", "codec", lambda label: "encode" in label)
        m["aio.codec.decode_us"] = layer_us(
            "aio", "codec", lambda label: "decode" in label)
        m["aio.serve.self_us"] = layer_us("aio", "serve")
        aio_ops = self.traced["aio"].ops
        d = self.aio_delta
        m["aio.net.datagrams_per_op"] = d["datagrams"] / aio_ops
        m["aio.net.bytes_per_op"] = d["bytes"] / aio_ops
        m["aio.net.retransmits_per_op"] = d["retransmits"] / aio_ops
        m["aio.probe.hit_ratio"] = _ratio(d["hits"], d["probes"])
        for rt in self.traced:
            m[f"{rt}.store.self_us"] = layer_us(rt, "store")
            if rt != "sim":
                m[f"{rt}.store.entries_scanned_per_op"] = (
                    self.scanned[rt] / self.traced[rt].ops)
                hits, misses = _store_counters(self._driver(rt))
                m[f"{rt}.store.scan_cache_hit_ratio"] = _ratio(
                    hits, hits + misses)
            traced_us = self.traced[rt].us_per_op()
            self_us = sum(self.layer_ns[rt]) / self.traced[rt].ops / 1e3
            m[f"{rt}.residual_us"] = traced_us - self_us
            m[f"{rt}.trace_overhead_ratio"] = (
                traced_us / self.untraced[rt].us_per_op())
        return m

    def write_spans(self) -> Path:
        out = ROOT / ".perfbench-out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{self.workload}-seed{self.seed}.tsv"
        self.tracer.write_spans(path, self.op_spans)
        return path


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Run one workload in this process; print the table, return the result."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    run = Run(workload, seed, seconds, trace)
    run.setup()
    run.count_window()
    run.rounds()
    run.close()
    if trace:
        metrics, raw = run.per_layer(), {}
        spans = run.write_spans()
    else:
        metrics, raw = run.end_to_end()
    names = {entry["name"] for entry in declared}
    if set(metrics) != names:
        raise RuntimeError(
            f"metrics do not match BENCHMARK.json: missing "
            f"{sorted(names - set(metrics))}, extra "
            f"{sorted(set(metrics) - names)}")
    ref = statistics.median(run.refs)
    print(f"# {workload} seed={seed} seconds={seconds} "
          f"trace={int(trace)}")
    print(f"# reference: median {ref:,.0f} iter/s over {len(run.refs)} "
          f"slices, nominal {NOMINAL_REF_PER_S:,.0f} (factor "
          f"{ref / NOMINAL_REF_PER_S:.4f})")
    for rt, t in run.untraced.items():
        print(f"# {rt}: {t.ops} untraced ops"
              + (f", {run.traced[rt].ops} traced" if trace else ""))
    print(f"# {'metric':34} {'value':>14} {'unit':8} {'raw':>14}")
    for entry in declared:
        name = entry["name"]
        raw_value = raw.get(name)
        raw_text = f"{raw_value:14.6g}" if raw_value is not None else ""
        print(f"  {name:34} {metrics[name]:14.6g} {entry['unit']:8} "
              f"{raw_text}")
    if trace:
        print(f"# spans written to {spans}")
    for problem in run.problems:
        print(f"# FAILED: {problem}")
    units = {entry["name"]: entry["unit"] for entry in declared}
    return {
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        code = 0
        for workload in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = max(code, subprocess.run(cmd, check=False).returncode)
        return code
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # One CPU for every thread of the run: the reference slices then time
    # the very core the runtimes ran on (the aio loop thread included).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except ReferenceGuardError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
