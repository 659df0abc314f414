"""Seeded workload inputs and the per-runtime drivers that run them.

A workload is a seeded stream of operations plus the benchmark's own model
of what each operation must return.  A driver runs one workload on one
runtime through that runtime's native API:

* ``sim``: ``TiamatInstance`` operations on the ``SimRuntime`` kernel; the
  driver runs the kernel until the operation's event fires.  It does not
  go through the ``repro.connect("sim")`` handle, whose ``_await_event``
  always advances whole 0.25 s virtual slices.
* ``threads``: ``ThreadedTiamatNode`` methods called from the main thread.
* ``aio``: the ``a_*`` coroutines, run on the registry's own loop, one
  submitted coroutine per measured segment (no thread hop per operation).

Every node uses the default ``TiamatConfig``.  Each driver checks every
result against the model; a wrong answer, a miss the model does not allow
or a timeout is counted in ``failed``.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections import deque
from typing import Optional

from repro.leasing import LeaseTerms, SimpleLeaseRequester
from repro.runtime.api import AioRuntime, SimRuntime, ThreadsRuntime
from repro.tuples import Pattern, Tuple

perf_ns = time.perf_counter_ns

RUNTIMES = ("sim", "threads", "aio")

#: Kernel events one sim operation may take before it counts as timed out.
SIM_MAX_EVENTS = 200_000
#: Wall-clock seconds an aio consumption may take before it counts as lost.
AIO_CONSUME_TIMEOUT = 5.0
#: Rounds of cancel() (10 ms apart) a consumer task gets before teardown
#: reports it as stuck.
CANCEL_ROUNDS = 200


def _token(rng: random.Random) -> str:
    return f"{rng.getrandbits(48):012x}"


# ---------------------------------------------------------------------------
# Workload inputs and models
# ---------------------------------------------------------------------------
class TakePairInputs:
    """``take_pair``: out a fresh small tuple on b, then take it remotely from a.

    Every tuple has a unique key, token and float, so the codec memo and the
    decode intern table see cold traffic on every operation.
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"take_pair/{seed}")
        self.k = 0

    def next(self) -> "tuple[Tuple, Pattern]":
        self.k += 1
        tup = Tuple("job", self.k, _token(self.rng), self.rng.random())
        return tup, Pattern("job", self.k, str, float)


_SHAPE_TYPES = (int, str, float)
SHAPES = [(t2, t3) for t2 in _SHAPE_TYPES for t3 in _SHAPE_TYPES]


class ReadScanInputs:
    """``read_scan``: skewed remote ``rdp``s over a preloaded working set.

    The set holds ``KEYS`` keys, each with ``PER_SHAPE`` tuples of each of
    the nine field-type shapes, so one key's index bucket holds 144 entries
    and ``KEYS * 9`` distinct patterns far exceed the store's
    ``SCAN_CACHE_MAX``.  A query names a key (Zipf-skewed) and a shape as
    formals.  Every tenth operation *replaces* a tuple instead: an ``out``
    of a fresh tuple under a key and shape, then a local take of the
    oldest tuple there.  That moves the store version the way mixed traffic does
    while the working set keeps its size, so per-operation cost does not
    depend on how many operations a run manages.
    """

    KEYS = 64
    PER_SHAPE = 16
    REPLACE_EVERY = 10
    ZIPF_S = 0.9

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"read_scan/{seed}")
        self.k = 0
        self.keys = [f"k{i:03d}" for i in range(self.KEYS)]
        weights = [1.0 / (rank + 1) ** self.ZIPF_S
                   for rank in range(self.KEYS)]
        self.rng.shuffle(self.keys)
        total, acc, self.cum = sum(weights), 0.0, []
        for w in weights:
            acc += w
            self.cum.append(acc / total)
        #: (key, shape index) -> live tuples, oldest first.
        self.model: "dict[tuple[str, int], deque]" = {}
        for key in self.keys:
            for s in range(len(SHAPES)):
                self.model[(key, s)] = deque(
                    self._fresh(key, s) for _ in range(self.PER_SHAPE))

    def _value(self, kind: type):
        if kind is int:
            return self.rng.getrandbits(40)
        if kind is str:
            return _token(self.rng)
        return self.rng.random()

    def _fresh(self, key: str, s: int) -> Tuple:
        t2, t3 = SHAPES[s]
        return Tuple("item", key, self._value(t2), self._value(t3))

    def working_set(self) -> "list[Tuple]":
        return [t for bucket in self.model.values() for t in bucket]

    def next(self):
        """``("rdp", pattern, (key, shape))`` or ``("replace", new, old)``."""
        self.k += 1
        key = self.keys[self._zipf_rank()]
        s = self.rng.randrange(len(SHAPES))
        if self.k % self.REPLACE_EVERY == 0:
            bucket = self.model[(key, s)]
            new = self._fresh(key, s)
            old = bucket.popleft()
            bucket.append(new)
            return "replace", new, old
        t2, t3 = SHAPES[s]
        return "rdp", Pattern("item", key, t2, t3), (key, s)

    def _zipf_rank(self) -> int:
        u = self.rng.random()
        lo, hi = 0, len(self.cum) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.cum[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def check(self, result: Optional[Tuple], where: "tuple[str, int]") -> bool:
        """The result matches the query and is live in the model."""
        if result is None:
            return False  # every (key, shape) always has live tuples
        key, s = where
        t2, t3 = SHAPES[s]
        fields = result.fields
        return (len(fields) == 4 and fields[0] == "item" and fields[1] == key
                and type(fields[2]) is t2 and type(fields[3]) is t3
                and result in self.model[where])


class ContendedInputs:
    """``contended_in``: one tuple at a time on a rotating producer node."""

    PRODUCERS = ("p0", "p1")
    CONSUMERS = ("c0", "c1", "c2")
    PATTERN = Pattern("task", int, str)

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"contended_in/{seed}")
        self.k = 0
        # Every tuple is unique, so "consumed multiset == deposited
        # multiset" holds iff each consumption removes a deposited,
        # not yet consumed tuple and none is left over at the end.
        self.outstanding: "set[Tuple]" = set()
        self.duplicates = 0

    def next(self) -> "tuple[int, Tuple]":
        """(producer index, tuple) of the next deposit."""
        self.k += 1
        tup = Tuple("task", self.k, _token(self.rng))
        self.outstanding.add(tup)
        return self.k % len(self.PRODUCERS), tup

    def consumed(self, tup: Tuple) -> None:
        if tup in self.outstanding:
            self.outstanding.remove(tup)
        else:
            self.duplicates += 1

    def problems(self) -> "list[str]":
        """Exactly-once check: consumed multiset == deposited multiset."""
        out = []
        if self.duplicates:
            out.append(f"{self.duplicates} consumption(s) of a tuple not "
                       f"outstanding (consumed twice, or never deposited)")
        if self.outstanding:
            out.append(f"{len(self.outstanding)} deposited tuple(s) never "
                       f"consumed")
        return out


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------
class Driver:
    """One workload on one runtime.

    ``op()`` (``aop()`` on aio) runs one closed-loop operation and returns
    its latency in ns.  ``begin``/``end`` bracket every measured segment.
    """

    runtime = "?"
    #: Whether the op's wall time is CPU work, and so is normalised by the
    #: reference loop; a timer-bound driver reports raw wall time.
    cpu_bound = True
    #: Operations run as warm-up, part of set-up.  A count, not a time, so
    #: the sim's virtual trajectory is the same on every run.
    warmup_ops = 300

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: "list[str]" = []
        self.nodes: dict = {}
        #: Nodes that hold no tuples of their own, so every hit is remote.
        self.clients: list = []

    def node(self, name: str):
        node = self.nodes[name] = self.rt.node(name)
        return node

    def pair(self) -> None:
        """Client a and server b, mutually visible."""
        self.a, self.b = self.node("a"), self.node("b")
        self.rt.set_visible("a", "b")
        self.clients = [self.a]

    def producers_and_consumers(self) -> None:
        """Every consumer sees both producers; nothing else is visible."""
        for name in ContendedInputs.PRODUCERS + ContendedInputs.CONSUMERS:
            self.node(name)
        for p in ContendedInputs.PRODUCERS:
            for c in ContendedInputs.CONSUMERS:
                self.rt.set_visible(p, c)
        self.producers = [self.nodes[p] for p in ContendedInputs.PRODUCERS]
        self.consumers = [self.nodes[c] for c in ContendedInputs.CONSUMERS]
        self.clients = self.consumers

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{self.runtime}/{self.workload}: {what}")

    def problems(self) -> "list[str]":
        """End-of-run checks beyond the per-operation oracle."""
        return []


# -- sim -----------------------------------------------------------------------
class SimDriver(Driver):
    runtime = "sim"
    warmup_ops = 200

    def __init__(self, workload: str, seed: int) -> None:
        super().__init__(workload, seed)
        self.rt = SimRuntime(seed=seed)
        self.sim = self.rt.sim
        self.network = self.rt.network
        #: Virtual latency (s) of every operation, appended when not None.
        self.vlats: "Optional[list[float]]" = None

    def node(self, name: str):
        instance = self.nodes[name] = self.rt.node(name).instance
        return instance

    def run_until(self, done: list) -> bool:
        """Run the kernel until ``done`` is non-empty; False on timeout."""
        sim = self.sim
        budget = SIM_MAX_EVENTS
        while not done and budget > 0:
            before = sim.events_processed
            sim.run(max_events=budget)
            ran = sim.events_processed - before
            if ran == 0 and not done:
                return False  # queue drained without the event firing
            budget -= ran
        return bool(done)

    def wait(self, op) -> "tuple[Optional[Tuple], bool]":
        """Run the kernel until ``op.event`` fires: (result, completed)."""
        sim = self.sim
        started = sim.now
        done: list = []

        def fired(event) -> None:
            done.append(sim.now)
            sim.stop()

        op.event.add_callback(fired)
        if not self.run_until(done):
            op.cancel()
            return None, False
        if self.vlats is not None:
            self.vlats.append(done[0] - started)
        return op.result, True

    def close(self) -> None:
        for instance in self.nodes.values():
            instance.shutdown()


class SimTakePair(SimDriver):
    def setup(self) -> None:
        self.inputs = TakePairInputs(self.seed)
        self.pair()

    def op(self) -> int:
        tup, pattern = self.inputs.next()
        self.attempted += 1
        start = perf_ns()
        self.b.out(tup)
        result, ok = self.wait(self.a.inp(pattern))
        lat = perf_ns() - start
        if result != tup:
            self.fail(f"take returned {result!r}, expected {tup!r}"
                      if ok else "take timed out")
        return lat


_LONG_LEASE = SimpleLeaseRequester(LeaseTerms(duration=3600.0))


class SimReadScan(SimDriver):
    def setup(self) -> None:
        self.inputs = ReadScanInputs(self.seed)
        self.pair()
        # Working-set tuples outlive any run: an expired lease would turn
        # a model-backed query into a miss.
        for tup in self.inputs.working_set():
            self.b.out(tup, requester=_LONG_LEASE)

    def op(self) -> int:
        kind, x, y = self.inputs.next()
        self.attempted += 1
        start = perf_ns()
        if kind == "rdp":
            result, _ = self.wait(self.a.rdp(x))
            lat = perf_ns() - start
            if not self.inputs.check(result, y):
                self.fail(f"rdp {x!r} returned {result!r}")
            return lat
        self.b.out(x, requester=_LONG_LEASE)
        result, _ = self.wait(self.b.inp(Pattern(*y.fields)))
        lat = perf_ns() - start
        if result != y:
            self.fail(f"replace took {result!r}, expected {y!r}")
        return lat


class SimContended(SimDriver):
    """Three consumers each keep a blocking ``in_`` outstanding.

    Between segments the kernel is simply not run: virtual time stands
    still, so the outstanding ``in_`` calls cost nothing and the virtual
    trajectory does not depend on where segment boundaries fall.
    """

    def setup(self) -> None:
        self.inputs = ContendedInputs(self.seed)
        self.producers_and_consumers()
        self.fired: list = []
        self.pending = [self._issue(i) for i in range(len(self.consumers))]

    def _issue(self, i: int):
        op = self.consumers[i].in_(ContendedInputs.PATTERN)
        sim = self.sim

        def fired(event) -> None:
            self.fired.append((i, sim.now))
            sim.stop()

        op.event.add_callback(fired)
        return op

    def op(self) -> int:
        p, tup = self.inputs.next()
        self.attempted += 1
        start, vstart = perf_ns(), self.sim.now
        self.producers[p].out(tup)
        while True:
            if not self.run_until(self.fired):
                self.fail(f"{tup!r} was never consumed")
                return perf_ns() - start
            i, vdone = self.fired.pop(0)
            result = self.pending[i].result
            self.pending[i] = self._issue(i)
            if result is not None:
                break
            # an in_ whose lease ran out empty-handed: renewed above
        lat = perf_ns() - start
        self.inputs.consumed(result)
        if self.vlats is not None:
            self.vlats.append(vdone - vstart)
        if result != tup:
            self.fail(f"in_ returned {result!r}, expected {tup!r}")
        return lat

    def problems(self) -> "list[str]":
        return self.inputs.problems()

    def close(self) -> None:
        for op in self.pending:
            op.cancel()
        super().close()


# -- threads -------------------------------------------------------------------
class ThreadsDriver(Driver):
    runtime = "threads"
    warmup_ops = 2000

    def __init__(self, workload: str, seed: int) -> None:
        super().__init__(workload, seed)
        self.rt = ThreadsRuntime()

    def close(self) -> None:
        self.rt.close()


class ThreadsTakePair(ThreadsDriver):
    def setup(self) -> None:
        self.inputs = TakePairInputs(self.seed)
        self.pair()

    def op(self) -> int:
        tup, pattern = self.inputs.next()
        self.attempted += 1
        start = perf_ns()
        self.b.out(tup)
        result = self.a.inp(pattern)
        lat = perf_ns() - start
        if result != tup:
            self.fail(f"take returned {result!r}, expected {tup!r}")
        return lat


class ThreadsReadScan(ThreadsDriver):
    def setup(self) -> None:
        self.inputs = ReadScanInputs(self.seed)
        self.pair()
        for tup in self.inputs.working_set():
            self.b.out(tup)

    def op(self) -> int:
        kind, x, y = self.inputs.next()
        self.attempted += 1
        start = perf_ns()
        if kind == "rdp":
            result = self.a.rdp(x)
            lat = perf_ns() - start
            if not self.inputs.check(result, y):
                self.fail(f"rdp {x!r} returned {result!r}")
            return lat
        self.b.out(x)
        result = self.b.inp(Pattern(*y.fields))
        lat = perf_ns() - start
        if result != y:
            self.fail(f"replace took {result!r}, expected {y!r}")
        return lat


class ThreadsContended(ThreadsDriver):
    """The threads arm of ``contended_in``.

    A blocking ``in_`` on this runtime needs its own OS thread (more than
    the load's thread budget) and waits in 5 ms local polls, so it would
    time the timer.  Instead a seeded consumer takes each deposit with a
    non-blocking ``inp`` over its union of both producers: a polled ``in_``
    without the sleep, which still exercises the multi-peer fan-out.
    """

    def setup(self) -> None:
        self.inputs = ContendedInputs(self.seed)
        self.producers_and_consumers()

    def op(self) -> int:
        p, tup = self.inputs.next()
        consumer = self.consumers[self.inputs.rng.randrange(3)]
        self.attempted += 1
        start = perf_ns()
        self.producers[p].out(tup)
        result = consumer.inp(ContendedInputs.PATTERN)
        lat = perf_ns() - start
        if result is not None:
            self.inputs.consumed(result)
        if result != tup:
            self.fail(f"inp returned {result!r}, expected {tup!r}")
        return lat

    def problems(self) -> "list[str]":
        return self.inputs.problems()


# -- aio -----------------------------------------------------------------------
class AioDriver(Driver):
    runtime = "aio"

    def __init__(self, workload: str, seed: int) -> None:
        super().__init__(workload, seed)
        self.rt = AioRuntime()
        self.registry = self.rt.registry

    def submit(self, coro):
        """Run ``coro`` on the registry loop and return its result."""
        return self.registry.submit(coro).result()

    async def begin(self) -> None:
        pass

    async def end(self) -> None:
        pass

    def close(self) -> None:
        self.rt.close()


class AioTakePair(AioDriver):
    def setup(self) -> None:
        self.inputs = TakePairInputs(self.seed)
        self.pair()

    async def aop(self) -> int:
        tup, pattern = self.inputs.next()
        self.attempted += 1
        start = perf_ns()
        await self.b.a_out(tup)
        result = await self.a.a_inp(pattern)
        lat = perf_ns() - start
        if result != tup:
            self.fail(f"take returned {result!r}, expected {tup!r}")
        return lat


class AioReadScan(AioDriver):
    def setup(self) -> None:
        self.inputs = ReadScanInputs(self.seed)
        self.pair()
        for tup in self.inputs.working_set():
            self.b.out(tup)

    async def aop(self) -> int:
        kind, x, y = self.inputs.next()
        self.attempted += 1
        start = perf_ns()
        if kind == "rdp":
            result = await self.a.a_rdp(x)
            lat = perf_ns() - start
            if not self.inputs.check(result, y):
                self.fail(f"rdp {x!r} returned {result!r}")
            return lat
        await self.b.a_out(x)
        result = await self.b.a_inp(Pattern(*y.fields))
        lat = perf_ns() - start
        if result != y:
            self.fail(f"replace took {result!r}, expected {y!r}")
        return lat


class AioContended(AioDriver):
    """Three consumer tasks each keep a blocking ``a_in`` outstanding.

    The tasks live only inside a segment: ``end`` cancels and awaits them
    once the last deposit of the segment has been consumed, so no task
    polls while other runtimes are measured and none leaks past teardown.
    Cancelling with no tuple outstanding cannot strand one, because every
    probe still in flight is a miss.

    The consumers find a deposit at their next 5 ms poll, so latency here
    is timer-bound and reported raw, not normalised.
    """

    cpu_bound = False
    warmup_ops = 50  # each op waits for a poll: keep set-up CPU-bound

    def setup(self) -> None:
        self.inputs = ContendedInputs(self.seed)
        self.producers_and_consumers()
        self.tasks: "list[asyncio.Task]" = []

    async def _consume(self, node) -> None:
        while True:
            result = await node.a_in(ContendedInputs.PATTERN, timeout=2.0)
            if result is not None:
                self.got.append((result, perf_ns()))
                self.signal.set()

    async def begin(self) -> None:
        self.got: list = []
        self.signal = asyncio.Event()
        self.tasks = [asyncio.ensure_future(self._consume(node))
                      for node in self.consumers]

    async def end(self) -> None:
        # On CPython 3.11 a cancel() that lands while an inner wait_for is
        # completing is swallowed and the blocking a_in polls on, so cancel
        # again until every task has ended.
        pending = set(self.tasks)
        for _ in range(CANCEL_ROUNDS):
            for task in pending:
                task.cancel()
            _, pending = await asyncio.wait(pending, timeout=0.01)
            if not pending:
                break
        if pending:
            self.fail(f"{len(pending)} consumer task(s) survived cancel()")
        for task in self.tasks:
            if task.done() and not task.cancelled():
                self.fail(f"consumer task ended with {task.exception()!r}")
        self.tasks = []
        # Let the last in-flight probe answers land before other runtimes
        # run, so none of this runtime's work leaks into their time.
        await asyncio.sleep(0.005)

    async def aop(self) -> int:
        p, tup = self.inputs.next()
        self.attempted += 1
        start = perf_ns()
        await self.producers[p].a_out(tup)
        try:
            await asyncio.wait_for(self.signal.wait(), AIO_CONSUME_TIMEOUT)
        except asyncio.TimeoutError:
            self.fail(f"{tup!r} was never consumed")
            return perf_ns() - start
        self.signal.clear()
        got, self.got = self.got, []
        for result, _ in got:
            self.inputs.consumed(result)
        result, done = got[0]
        if len(got) != 1 or result != tup:
            self.fail(f"a_in returned {[g[0] for g in got]!r}, "
                      f"expected {tup!r}")
        return done - start

    def problems(self) -> "list[str]":
        return self.inputs.problems()


DRIVERS = {
    "take_pair": (SimTakePair, ThreadsTakePair, AioTakePair),
    "read_scan": (SimReadScan, ThreadsReadScan, AioReadScan),
    "contended_in": (SimContended, ThreadsContended, AioContended),
}
