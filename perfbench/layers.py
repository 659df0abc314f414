"""The traced run: per-layer counts and self times from wrapped entry points.

The tracer replaces each layer's public functions, at the names their
callers look them up by, with a wrapper that counts the call and records a
span (start, duration, self time, depth).  A layer's self time is its
spans' durations minus the parts covered by nested wrapped calls, of any
layer.  Work reachable only through private names is not wrapped and stays
in the runtime's residual (traced time per op minus the layers' self time).

The wrappers are installed only for traced segments and removed after, so
untraced segments run the program unmodified.  Spans stay in memory (the
first ``SPAN_CAP`` of them) and are written out when the run ends.
"""

from __future__ import annotations

import bisect
import sys
import threading
import time
from typing import Callable

from workloads import RUNTIMES

perf_ns = time.perf_counter_ns

SPAN_CAP = 200_000


def _entry_points() -> "list[tuple[str, str, object, str]]":
    """(layer, function label, owner, attribute) for every wrapped name.

    ``owner`` is a class (method patched on the class) or a module (a
    module-level name patched in every ``repro`` module that imported it).
    """
    from repro.core.reliability import ReliableChannel
    from repro.core.serving import QueryServer
    from repro.leasing.manager import LeaseManager
    from repro.net.network import Network
    from repro.obs.flight import FlightRing
    from repro.runtime import aio, node, space
    from repro.sim.kernel import Simulator, Timer
    from repro.tuples import serialization, store

    points = [
        ("kernel", "Simulator.schedule", Simulator, "schedule"),
        ("kernel", "Simulator.schedule_at", Simulator, "schedule_at"),
        ("kernel", "Timer.__lt__", Timer, "__lt__"),  # counted only
        ("net", "Network.unicast", Network, "unicast"),
        ("net", "Network.multicast", Network, "multicast"),
    ]
    for name, value in sorted(vars(serialization).items()):
        if (callable(value) and getattr(value, "__module__", None)
                == serialization.__name__
                and (name.startswith(("encode_", "decode_"))
                     or name == "encoded_size")):
            points.append(("codec", name, serialization, name))
    for cls in (serialization.JsonWireCodec, serialization.BinaryWireCodec):
        points.append(("codec", f"{cls.__name__}.encoded_size", cls,
                       "encoded_size"))
    # The aio runtime's frame codec, reached as ``registry.frames``.
    for cls in (aio._JsonFrames, aio._BinaryFrames):
        points.append(("codec", f"{cls.name}_frames.encode_into", cls,
                       "encode_into"))
        points.append(("codec", f"{cls.name}_frames.decode", cls, "decode"))
    for name in ("find", "find_all", "add", "remove", "hold", "confirm",
                 "release"):
        points.append(("store", f"TupleStore.{name}", store.TupleStore, name))
    # The threads and aio spaces scan the store themselves (candidates plus
    # matching under their lock), so their public operations are store work.
    for name in ("out", "rdp", "inp", "rd", "in_"):
        points.append(("store", f"ThreadSafeTupleSpace.{name}",
                       space.ThreadSafeTupleSpace, name))
    points += [
        ("lease", "LeaseManager.negotiate", LeaseManager, "negotiate"),
        ("reliability", "ReliableChannel.send", ReliableChannel, "send"),
        ("reliability", "ReliableChannel.on_ack", ReliableChannel, "on_ack"),
        ("reliability", "ReliableChannel.on_receive", ReliableChannel,
         "on_receive"),
        ("serving", "QueryServer.handle_query", QueryServer, "handle_query"),
        ("serving", "QueryServer.handle_claim_accept", QueryServer,
         "handle_claim_accept"),
        ("serving", "QueryServer.handle_claim_reject", QueryServer,
         "handle_claim_reject"),
        ("flight", "FlightRing.append", FlightRing, "append"),
        ("serve", "ThreadedTiamatNode.serve_inp", node.ThreadedTiamatNode,
         "serve_inp"),
        ("serve", "ThreadedTiamatNode.serve_rdp", node.ThreadedTiamatNode,
         "serve_rdp"),
        # asyncio calls the endpoint by this protocol name for every
        # datagram: decode, dispatch, serve and queue the answer.
        ("serve", "aio.datagram_received", aio._AioProtocol,
         "datagram_received"),
    ]
    return points


class Tracer:
    """Counts and self times per wrapped function, one segment at a time."""

    def __init__(self) -> None:
        self.points = _entry_points()
        self.labels = [label for _, label, _, _ in self.points]
        self.layer_of = [layer for layer, _, _, _ in self.points]
        n = len(self.points)
        #: Per-function call counts and self ns of the current segment
        #: (reset by :meth:`begin`), and store candidates examined.
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.scanned = 0
        #: Index into ``RUNTIMES`` of the segment's runtime (tags spans).
        self.runtime = 0
        self.spans: list = []
        self._stacks: dict = {}
        self._saved: list = []

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point (idempotent per segment)."""
        if self._saved:
            return
        from repro.tuples.store import TupleStore

        for fid, (_, _, owner, attr) in enumerate(self.points):
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = (self._count(fn, fid) if attr == "__lt__"
                           else self._wrap(fn, fid))
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(wrapped)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            else:
                fn = getattr(owner, attr)
                wrapped = self._wrap(fn, fid)
                for mod in list(sys.modules.values()):
                    if (getattr(mod, "__name__", "").startswith("repro")
                            and getattr(mod, attr, None) is fn):
                        self._saved.append((mod, attr, fn))
                        setattr(mod, attr, wrapped)
        raw = TupleStore.__dict__["candidates"]
        self._saved.append((TupleStore, "candidates", raw))
        setattr(TupleStore, "candidates", self._count_candidates(raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []

    # -- accounting --------------------------------------------------------
    def begin(self, runtime: str) -> None:
        """Start accumulating for one segment on ``runtime``."""
        self.runtime = RUNTIMES.index(runtime)
        self.calls = [0] * len(self.points)
        self.self_ns = [0] * len(self.points)
        self.scanned = 0

    def _wrap(self, fn: Callable, fid: int) -> Callable:
        tracer = self
        stacks = self._stacks
        spans = self.spans
        get_ident = threading.get_ident

        def wrapper(*args, **kwargs):
            stack = stacks.get(get_ident())
            if stack is None:
                stack = stacks[get_ident()] = []
            stack.append(0)
            start = perf_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_ns() - start
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                tracer.calls[fid] += 1
                tracer.self_ns[fid] += dur - child
                if len(spans) < SPAN_CAP:
                    spans.append((tracer.runtime, fid, start, dur,
                                  dur - child, len(stack)))

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn: Callable, fid: int) -> Callable:
        """Count calls without timing them.

        Heap comparisons take a fraction of a microsecond; timing each would
        cost more than the call.  Their time stays in the caller's self
        time (``Simulator.schedule`` for pushes, the residual for the run
        loop's pops).
        """
        tracer = self

        def counted(*args):
            tracer.calls[fid] += 1
            return fn(*args)

        return counted

    def _count_candidates(self, fn: Callable) -> Callable:
        tracer = self

        def candidates(*args, **kwargs):
            n = 0
            try:
                for entry in fn(*args, **kwargs):
                    n += 1
                    yield entry
            finally:
                tracer.scanned += n

        return candidates

    # -- output -------------------------------------------------------------
    def write_spans(self, path, ops: "list[tuple[int, int, int]]") -> None:
        """Write the kept spans, each tagged with the op that contains it.

        ``ops`` holds ``(runtime index, start_ns, duration_ns)`` for every
        traced operation; a span belongs to the op whose interval holds its
        start (op ids are per file, in start order).
        """
        ops = sorted(ops, key=lambda o: o[1])
        starts = [o[1] for o in ops]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("kind\truntime\tlayer\tname\top\tstart_ns\tdur_ns"
                     "\tself_ns\tdepth\n")
            for i, (rt, start, dur) in enumerate(ops):
                fh.write(f"op\t{RUNTIMES[rt]}\t-\t-\t{i}\t{start}\t{dur}"
                         f"\t-\t-\n")
            for rt, fid, start, dur, own, depth in self.spans:
                i = bisect.bisect_right(starts, start) - 1
                op = i if i >= 0 and start < ops[i][1] + ops[i][2] else "-"
                fh.write(f"span\t{RUNTIMES[rt]}\t{self.layer_of[fid]}"
                         f"\t{self.labels[fid]}\t{op}\t{start}\t{dur}"
                         f"\t{own}\t{depth}\n")
