"""An indexed tuple multiset with two-phase removal.

The store is the passive data structure under every space implementation in
the repository (Tiamat's local spaces and all five baselines).  It supports:

* duplicate tuples (a multiset — two identical ``out``\\ s mean two tuples);
* candidate lookup through a **signature index**.  Matching is exact-type,
  so a pattern made only of actuals and scalar formals admits tuples of one
  type signature (:attr:`Pattern.signature`).  Entries are bucketed by their
  signature and, within it, by ``(position, value)`` of every field, so such
  a query touches only its own ``(signature, position, value)`` bucket.
  The signature already fixes each field's type, so a bucket key needs no
  type tag to keep ``1``, ``1.0`` and ``True`` apart.  Patterns that pin no
  signature (``ANY``, ``Range``, ``Formal(Tuple)``) scan the narrowest
  buckets of every compatible signature of their arity, or the whole arity
  bucket when that is smaller;
* **two-phase removal**: a destructive match can be *held* (made invisible
  to other queries), then *confirmed* (removed for good) or *released*
  (made visible again).  Tiamat's distributed `in` needs this: a remote
  instance that finds a match holds the tuple while it races other
  responders; the loser releases ("the remaining instances place the tuples
  back into their respective spaces", section 3.1.3).

**Scan caching**: repeated queries with the same pattern against an
unchanged store are the common case in polling workloads (blocking ``rd``
re-checking after every wakeup, serving instances re-matching registered
queries).  ``_scan`` memoizes its result per pattern, keyed to a
**store version** that every visibility-changing mutation (add, remove,
hold, release) bumps — so a hit is provably identical to a fresh scan and
the cache can never serve stale entries.  Hits and misses are counted
(``scan_cache_hits`` / ``scan_cache_misses``) and surface in the metrics
registry via ``Observability.observe_space``.
"""

from __future__ import annotations

import heapq
import itertools
from operator import attrgetter
from typing import Iterable, Iterator, Optional

from repro.check import probes
from repro.errors import TupleError
from repro.sim.rng import RngStream
from repro.tuples.matching import matches
from repro.tuples.model import Actual, Field, Formal, Pattern, Range, Tuple


class StoredEntry:
    """A tuple resident in a store, with bookkeeping metadata.

    ``meta`` is an open dict for the layers above (lease expiry time, the
    identity of the depositing instance, and so on); the store itself never
    interprets it.  The store that holds the entry sets ``signature``, the
    tuple's field types (the key of its index bucket), and ``seq``, its
    insertion rank, which keeps candidates merged from several buckets in
    insertion order.
    """

    __slots__ = ("entry_id", "tuple", "meta", "held", "removed",
                 "signature", "seq")

    def __init__(self, entry_id: int, tup: Tuple, meta: Optional[dict] = None,
                 signature: Optional[tuple] = None, seq: int = 0) -> None:
        self.entry_id = entry_id
        self.tuple = tup
        self.meta = meta if meta is not None else {}
        self.held = False
        self.removed = False
        self.signature = signature
        self.seq = seq

    @property
    def visible(self) -> bool:
        """Whether queries may currently see this entry."""
        return not self.held and not self.removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "held" if self.held else ("removed" if self.removed else "visible")
        return f"<StoredEntry #{self.entry_id} {self.tuple!r} {flags}>"


class _SignatureIndex:
    """The entries of one type signature and their per-field buckets."""

    __slots__ = ("signature", "entries", "by_value")

    def __init__(self, signature: tuple) -> None:
        self.signature = signature
        # entry_id -> StoredEntry, insertion-ordered
        self.entries: dict[int, StoredEntry] = {}
        # (position, value) -> insertion-ordered entry_id -> StoredEntry
        self.by_value: dict[tuple, dict[int, StoredEntry]] = {}

    def narrowest(self, pattern: Pattern) -> dict[int, StoredEntry]:
        """The smallest of this signature's bucket and the pattern's
        ``(position, value)`` buckets (empty when one of them is)."""
        best = self.entries
        for pos, spec in enumerate(pattern.specs):
            if type(spec) is Actual:
                bucket = self.by_value.get((pos, spec.value))
                if bucket is None:
                    return {}
                if len(bucket) < len(best):
                    best = bucket
        return best


def _admits_type(spec: Field, kind: type) -> bool:
    """Whether ``spec`` can admit some value of exact type ``kind``."""
    if type(spec) is Actual:
        return type(spec.value) is kind
    if type(spec) is Formal:
        return kind is spec.type or (spec.type is Tuple
                                     and issubclass(kind, Tuple))
    if type(spec) is Range:
        return kind is not bool and issubclass(kind, (int, float))
    return True


class TupleStore:
    """Signature-indexed multiset of tuples with hold/confirm/release removal."""

    #: Cached distinct patterns per store before the scan cache is wiped.
    #: Mutation-heavy workloads invalidate constantly (every bump strands
    #: the old version's entries), so the cap bounds stale-entry memory,
    #: not hit rate.
    SCAN_CACHE_MAX = 256

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        # Planted bug for oracle validation (tests only): with the `ghost`
        # canary on, candidate iteration ignores the visibility filter, so
        # scans can match tuples that were already removed or are held —
        # exactly the "ghost read after remove" class the checker's
        # GhostReadOracle exists to catch.  Read once at construction.
        self._canary_ghost = probes.canary(probes.CANARY_GHOST)
        self._entries: dict[int, StoredEntry] = {}
        self._seqs = itertools.count()
        # arity -> insertion-ordered dict of entry_id -> StoredEntry
        self._by_arity: dict[int, dict[int, StoredEntry]] = {}
        # field types -> that signature's entries and (position, value)
        # buckets (see module docstring)
        self._by_signature: dict[tuple, _SignatureIndex] = {}
        # Monotone version, bumped by every visibility-changing mutation;
        # the scan cache keys its entries to it (see module docstring).
        self._version = 0
        self._scan_cache: dict[Pattern, tuple[int, list[StoredEntry]]] = {}
        # statistics: how much work match scans do (index effectiveness)
        self.scans = 0
        self.entries_scanned = 0
        self.scan_cache_hits = 0
        self.scan_cache_misses = 0
        #: Optional ``fn(candidates_examined)`` per scan (installed by
        #: ``Observability.observe_space`` — feeds the scan-length histogram).
        #: Cache hits report 0 examined entries: that is the point.
        self.scan_observer = None

    # ------------------------------------------------------------------
    # Insertion / removal
    # ------------------------------------------------------------------
    def bump_ids(self, floor: int) -> None:
        """Ensure every future entry id is greater than ``floor``.

        Durable recovery calls this before restoring, so entry ids stay
        globally unique across a node's incarnations: peers witness
        consumed ids for the anti-entropy rejoin, and a reused id could
        let a stale witness purge an innocent survivor.
        """
        self._ids = itertools.count(max(next(self._ids), floor + 1))

    def add(self, tup: Tuple, meta: Optional[dict] = None,
            entry_id: Optional[int] = None) -> StoredEntry:
        """Insert a tuple; returns its entry (ids are unique per store).

        ``entry_id`` pins the id instead of drawing from the counter —
        durable recovery restores entries under their *original* ids
        (after :meth:`bump_ids`), so a tuple's identity survives its
        node's death and peers' witness records stay valid.
        """
        self._version += 1
        if entry_id is None:
            entry_id = next(self._ids)
        elif entry_id in self._entries:
            raise TupleError(f"entry id #{entry_id} already in store")
        signature = tuple(map(type, tup.fields))
        index = self._by_signature.get(signature)
        if index is None:
            index = self._by_signature[signature] = _SignatureIndex(signature)
        entry = StoredEntry(entry_id, tup, meta, index.signature,
                            next(self._seqs))
        self._entries[entry_id] = entry
        self._by_arity.setdefault(tup.arity, {})[entry_id] = entry
        index.entries[entry_id] = entry
        by_value = index.by_value
        for key in enumerate(tup.fields):
            bucket = by_value.get(key)
            if bucket is None:
                bucket = by_value[key] = {}
            bucket[entry_id] = entry
        if probes.SINK is not None:
            probes.emit("store.add", store=id(self), entry=entry.entry_id)
        return entry

    def remove(self, entry_id: int) -> StoredEntry:
        """Permanently remove an entry (held or visible)."""
        if self._canary_ghost:
            # Planted bug: the entry is flagged removed but never unindexed,
            # so (combined with the visibility filter the canary disables in
            # :meth:`candidates`) later scans can still match it — a ghost.
            entry = self._entries.get(entry_id)
            if entry is None:
                raise TupleError(f"no entry #{entry_id} in store")
            self._version += 1
            entry.removed = True
            entry.held = False
            if probes.SINK is not None:
                probes.emit("store.remove", store=id(self), entry=entry_id)
            return entry
        entry = self._entries.pop(entry_id, None)
        if entry is None:
            raise TupleError(f"no entry #{entry_id} in store")
        self._version += 1
        entry.removed = True
        entry.held = False
        self._by_arity[entry.tuple.arity].pop(entry_id, None)
        index = self._by_signature[entry.signature]
        index.entries.pop(entry_id, None)
        by_value = index.by_value
        for key in enumerate(entry.tuple.fields):
            bucket = by_value.get(key)
            if bucket is not None:
                bucket.pop(entry_id, None)
                if not bucket:
                    del by_value[key]
        if probes.SINK is not None:
            probes.emit("store.remove", store=id(self), entry=entry_id)
        return entry

    # ------------------------------------------------------------------
    # Two-phase removal
    # ------------------------------------------------------------------
    def hold(self, entry_id: int) -> StoredEntry:
        """Make an entry invisible pending confirm/release."""
        entry = self._require(entry_id)
        if entry.held:
            raise TupleError(f"entry #{entry_id} already held")
        self._version += 1
        entry.held = True
        return entry

    def confirm(self, entry_id: int) -> StoredEntry:
        """Finalize removal of a held entry."""
        entry = self._require(entry_id)
        if not entry.held:
            raise TupleError(f"entry #{entry_id} not held; cannot confirm")
        return self.remove(entry_id)

    def release(self, entry_id: int) -> StoredEntry:
        """Put a held entry back into visibility."""
        entry = self._require(entry_id)
        if not entry.held:
            raise TupleError(f"entry #{entry_id} not held; cannot release")
        self._version += 1
        entry.held = False
        return entry

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def candidates(self, pattern: Pattern) -> Iterator[StoredEntry]:
        """Visible entries that *may* match, in insertion order.

        A pattern with a :attr:`~Pattern.signature` reads one bucket of
        that signature's index: the smallest of the signature's entries and
        the ``(position, value)`` bucket of each of the pattern's actuals.
        A pattern without one reads the narrowest such bucket of every
        signature of its arity that its specs can admit, merged by
        insertion rank, unless the arity bucket is smaller.  Either way
        every match is a candidate and ``matches`` still decides.

        Iteration is **lazy** over the live index bucket — no per-scan
        copy of a potentially huge bucket — so callers must not add or
        remove entries until they have finished iterating.
        """
        source = self._narrowest(pattern)
        if self._canary_ghost:
            # Planted bug: visibility (removed/held) is not filtered.
            yield from source
            return
        for entry in source:
            if entry.visible:
                yield entry

    def _narrowest(self, pattern: Pattern) -> Iterable[StoredEntry]:
        signature = pattern.signature
        if signature is not None:
            index = self._by_signature.get(signature)
            return () if index is None else index.narrowest(pattern).values()
        arity = pattern.arity
        specs = pattern.specs
        picks = []
        total = 0
        for sig, index in self._by_signature.items():
            if (len(sig) == arity and index.entries
                    and all(map(_admits_type, specs, sig))):
                bucket = index.narrowest(pattern)
                if bucket:
                    picks.append(bucket.values())
                    total += len(bucket)
        everything = self._by_arity.get(arity, {})
        if total >= len(everything):
            return everything.values()
        if len(picks) == 1:
            return picks[0]
        return heapq.merge(*picks, key=attrgetter("seq"))

    def find(self, pattern: Pattern, rng: Optional[RngStream] = None) -> Optional[StoredEntry]:
        """A visible entry matching ``pattern``, or None.

        When several entries match, one is chosen non-deterministically
        (uniformly from ``rng`` when given; otherwise the oldest), per the
        Linda specification of ``rdp``.
        """
        found = self._scan(pattern)
        if not found:
            return None
        if rng is not None and len(found) > 1:
            return rng.choice(found)
        return found[0]

    def find_all(self, pattern: Pattern) -> list[StoredEntry]:
        """All visible entries matching ``pattern`` (oldest first)."""
        found = self._scan(pattern)
        found.sort(key=lambda e: e.entry_id)
        return found

    def _scan(self, pattern: Pattern) -> list[StoredEntry]:
        """Matching visible entries, with scan-cost accounting.

        Results are memoized per (pattern, store version): a repeat query
        against an unchanged store returns the cached match list without
        touching the indexes (counted as a scan that examined 0 entries).
        Both hit and miss return a fresh list — callers may sort or
        truncate their copy without corrupting the cache.
        """
        cached = self._scan_cache.get(pattern)
        if cached is not None and cached[0] == self._version:
            self.scans += 1
            self.scan_cache_hits += 1
            if self.scan_observer is not None:
                self.scan_observer(0)
            if probes.SINK is not None:
                for entry in cached[1]:
                    probes.emit("store.match", store=id(self),
                                entry=entry.entry_id)
            return list(cached[1])
        examined = 0
        found: list[StoredEntry] = []
        for entry in self.candidates(pattern):
            examined += 1
            if matches(pattern, entry.tuple):
                found.append(entry)
        if probes.SINK is not None:
            for entry in found:
                probes.emit("store.match", store=id(self),
                            entry=entry.entry_id)
        self.scans += 1
        self.entries_scanned += examined
        self.scan_cache_misses += 1
        if len(self._scan_cache) >= self.SCAN_CACHE_MAX:
            self._scan_cache.clear()
        self._scan_cache[pattern] = (self._version, found)
        if self.scan_observer is not None:
            self.scan_observer(examined)
        return list(found)

    def get(self, entry_id: int) -> Optional[StoredEntry]:
        """The entry with this id, or None if it was removed."""
        return self._entries.get(entry_id)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[StoredEntry]:
        return iter(list(self._entries.values()))

    @property
    def visible_count(self) -> int:
        """Number of entries currently visible to queries."""
        return sum(1 for e in self._entries.values() if e.visible)

    def stored_bytes(self) -> int:
        """Approximate wire size of everything stored (for resource accounting)."""
        from repro.tuples.serialization import encoded_size

        return sum(encoded_size(e.tuple) for e in self._entries.values())

    # ------------------------------------------------------------------
    def _require(self, entry_id: int) -> StoredEntry:
        entry = self._entries.get(entry_id)
        if entry is None:
            raise TupleError(f"no entry #{entry_id} in store")
        return entry
