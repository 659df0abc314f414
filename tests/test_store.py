"""Unit and property tests for the indexed tuple store."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TupleError
from repro.sim import RngStream
from repro.tuples import ANY, Actual, Formal, Pattern, Range, Tuple, TupleStore
from repro.tuples.matching import matches


def test_add_and_find():
    store = TupleStore()
    store.add(Tuple("a", 1))
    entry = store.find(Pattern("a", int))
    assert entry is not None and entry.tuple == Tuple("a", 1)


def test_find_returns_none_when_no_match():
    store = TupleStore()
    store.add(Tuple("a", 1))
    assert store.find(Pattern("b", int)) is None
    assert store.find(Pattern("a", str)) is None


def test_duplicates_are_a_multiset():
    store = TupleStore()
    e1 = store.add(Tuple("dup"))
    e2 = store.add(Tuple("dup"))
    assert e1.entry_id != e2.entry_id
    assert len(store.find_all(Pattern("dup"))) == 2
    store.remove(e1.entry_id)
    assert len(store.find_all(Pattern("dup"))) == 1


def test_remove_unknown_entry_raises():
    with pytest.raises(TupleError):
        TupleStore().remove(123)


def test_find_all_is_oldest_first():
    store = TupleStore()
    for i in range(5):
        store.add(Tuple("seq", i))
    values = [e.tuple[1] for e in store.find_all(Pattern("seq", int))]
    assert values == [0, 1, 2, 3, 4]


def test_find_without_rng_returns_oldest():
    store = TupleStore()
    store.add(Tuple("x", 10))
    store.add(Tuple("x", 20))
    assert store.find(Pattern("x", int)).tuple[1] == 10


def test_find_with_rng_is_nondeterministic_but_valid():
    store = TupleStore()
    for i in range(10):
        store.add(Tuple("x", i))
    rng = RngStream(0)
    seen = {store.find(Pattern("x", int), rng).tuple[1] for _ in range(50)}
    assert len(seen) > 1  # more than one candidate gets picked
    assert seen <= set(range(10))


def test_hold_hides_from_queries():
    store = TupleStore()
    entry = store.add(Tuple("held"))
    store.hold(entry.entry_id)
    assert store.find(Pattern("held")) is None
    assert len(store) == 1  # still resident
    assert store.visible_count == 0


def test_release_restores_visibility():
    store = TupleStore()
    entry = store.add(Tuple("held"))
    store.hold(entry.entry_id)
    store.release(entry.entry_id)
    assert store.find(Pattern("held")) is not None


def test_confirm_removes_for_good():
    store = TupleStore()
    entry = store.add(Tuple("held"))
    store.hold(entry.entry_id)
    store.confirm(entry.entry_id)
    assert store.find(Pattern("held")) is None
    assert len(store) == 0


def test_double_hold_rejected():
    store = TupleStore()
    entry = store.add(Tuple("x"))
    store.hold(entry.entry_id)
    with pytest.raises(TupleError):
        store.hold(entry.entry_id)


def test_confirm_or_release_without_hold_rejected():
    store = TupleStore()
    entry = store.add(Tuple("x"))
    with pytest.raises(TupleError):
        store.confirm(entry.entry_id)
    with pytest.raises(TupleError):
        store.release(entry.entry_id)


def test_exact_type_indexing_does_not_cross_types():
    store = TupleStore()
    store.add(Tuple("k", 1))
    store.add(Tuple("k", True))
    assert store.find(Pattern("k", 1)).tuple == Tuple("k", 1)
    assert store.find(Pattern("k", True)).tuple == Tuple("k", True)


def test_candidates_use_actual_index():
    store = TupleStore()
    for i in range(100):
        store.add(Tuple("bulk", i))
    store.add(Tuple("rare", 0))
    # Searching for the rare tag should inspect only the rare bucket.
    candidates = list(store.candidates(Pattern("rare", int)))
    assert len(candidates) == 1


def test_stored_bytes_positive_and_monotone():
    store = TupleStore()
    assert store.stored_bytes() == 0
    store.add(Tuple("payload", "x" * 100))
    size1 = store.stored_bytes()
    store.add(Tuple("payload", "y" * 100))
    assert size1 > 100
    assert store.stored_bytes() > size1


def test_get_and_iter():
    store = TupleStore()
    entry = store.add(Tuple("x"))
    assert store.get(entry.entry_id) is entry
    assert store.get(9999) is None
    assert [e.tuple for e in store] == [Tuple("x")]


# ---------------------------------------------------------------------------
# Properties: the store behaves as a multiset under add/remove
# ---------------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=30))
def test_multiset_semantics(values):
    store = TupleStore()
    ids = [store.add(Tuple("v", v)).entry_id for v in values]
    assert len(store) == len(values)
    for v in set(values):
        assert len(store.find_all(Pattern("v", v))) == values.count(v)
    for entry_id in ids:
        store.remove(entry_id)
    assert len(store) == 0
    assert store.find(Pattern("v", ANY)) is None


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=20))
def test_hold_release_preserves_contents(values):
    store = TupleStore()
    entries = [store.add(Tuple("v", v)) for v in values]
    for entry in entries:
        store.hold(entry.entry_id)
    assert store.visible_count == 0
    for entry in entries:
        store.release(entry.entry_id)
    assert store.visible_count == len(values)
    assert sorted(e.tuple[1] for e in store.find_all(Pattern("v", ANY))) == sorted(values)


# ---------------------------------------------------------------------------
# The signature index: equivalence with a brute-force scan, and narrowing
# ---------------------------------------------------------------------------
# Values that compare equal across types (1, 1.0, True), bytes, and nested
# tuples: the index must keep them apart exactly as matching does.
_VALUES = [0, 1, 1.0, 0.0, True, False, "a", "b", b"a", b"",
           Tuple("n", 1), Tuple("n", True), Tuple("n", 1.0)]
_SPECS = ([Actual(v) for v in _VALUES]
          + [Formal(t) for t in (bool, int, float, str, bytes, Tuple)]
          + [ANY, Range(0, 1), Range(0.5, None)])

# Every one- and two-field shape of spec, checked on each final store.
_FINAL_QUERIES = ([Pattern(spec) for spec in _SPECS]
                  + [Pattern(spec, other) for spec in _SPECS
                     for other in (ANY, Range(0, 1), Formal(int), Actual("a"))])

_tuples = st.lists(st.sampled_from(_VALUES), min_size=1,
                   max_size=2).map(Tuple.of)
_patterns = st.lists(st.sampled_from(_SPECS), min_size=1,
                     max_size=2).map(Pattern.of)
_ops = st.one_of(
    st.tuples(st.just("add"), _tuples),
    st.tuples(st.sampled_from(["remove", "hold", "release"]),
              st.integers(min_value=0, max_value=50)),
    st.tuples(st.just("query"), _patterns,
              st.integers(min_value=0, max_value=2**16)),
)


def _check_query(store, live, pattern, seed):
    """``live`` holds the resident entries in insertion order."""
    expected = [e for e in live if not e.held and matches(pattern, e.tuple)]
    assert store.find_all(pattern) == sorted(expected,
                                             key=lambda e: e.entry_id)
    candidates = list(store.candidates(pattern))
    assert all(e in live and not e.held for e in candidates)
    assert [e for e in candidates if matches(pattern, e.tuple)] == expected
    found = store.find(pattern, RngStream(seed))
    if not expected:
        assert found is None
    elif len(expected) == 1:
        assert found is expected[0]
    else:
        assert found is RngStream(seed).choice(expected)


@given(st.lists(_ops, max_size=60))
def test_index_agrees_with_brute_force(ops):
    store = TupleStore()
    live: list = []
    for op in ops:
        kind = op[0]
        if kind == "add":
            live.append(store.add(op[1]))
        elif kind == "query":
            _check_query(store, live, op[1], op[2])
        elif live:
            entry = live[op[1] % len(live)]
            if kind == "remove":
                store.remove(entry.entry_id)
                live.remove(entry)
            elif kind == "hold" and not entry.held:
                store.hold(entry.entry_id)
            elif kind == "release" and entry.held:
                store.release(entry.entry_id)
    for pattern in _FINAL_QUERIES:
        _check_query(store, live, pattern, 7)


def test_pinned_ids_keep_insertion_order():
    """Durable recovery restores entries under their original ids, which
    need not arrive in id order; candidates stay in insertion order and
    rng selection draws from that order, while find_all sorts by id."""
    store = TupleStore()
    store.bump_ids(100)
    live = [store.add(Tuple("r", v), entry_id=i)
            for i, v in ((40, 1), (7, "x"), (90, 2.0), (12, 3))]
    live += [store.add(Tuple("r", v)) for v in ("y", 4, 5.0)]
    assert [e.entry_id for e in live[-3:]] == [101, 102, 103]
    live += [store.add(Tuple("other", i)) for i in range(50)]
    for pattern in (Pattern("r", ANY), Pattern("r", Range(0, 10)),
                    Pattern(str, ANY), Pattern(ANY, ANY)):
        expected = [e for e in live if matches(pattern, e.tuple)]
        assert [e for e in store.candidates(pattern)
                if matches(pattern, e.tuple)] == expected
        for seed in range(5):
            assert store.find(pattern, RngStream(seed)) \
                is RngStream(seed).choice(expected)
        assert store.find_all(pattern) == sorted(
            expected, key=lambda e: e.entry_id)
    with pytest.raises(TupleError):
        store.add(Tuple("r", 0), entry_id=40)


def _shaped_store(keys=4, per_shape=16):
    """read_scan's layout: every key holds every (t2, t3) type shape."""
    store = TupleStore()
    values = {int: 7, str: "s", float: 0.5}
    for key in range(keys):
        for t2 in values:
            for t3 in values:
                for _ in range(per_shape):
                    store.add(Tuple("item", f"k{key}", values[t2],
                                    values[t3]))
    return store


def test_typed_pattern_examines_only_its_matches():
    store = _shaped_store()
    for pattern in (Pattern("item", "k1", int, str),
                    Pattern("item", "k3", float, float),
                    Pattern(str, "k0", str, int)):
        before = store.entries_scanned
        found = store.find_all(pattern)
        assert len(found) == 16
        assert store.entries_scanned - before == 16


def test_untyped_pattern_reads_only_compatible_buckets():
    store = TupleStore()
    for i in range(1000):
        store.add(Tuple("other", i))
    for i in range(5):
        store.add(Tuple("tag", i))
        store.add(Tuple("tag", f"s{i}"))
    store.add(Tuple("tag", 1, 2))          # other arity
    for pattern, n in ((Pattern("tag", ANY), 10),
                       (Pattern("tag", Range(1, 3)), 3),
                       (Pattern(ANY, str), 5)):
        before = store.entries_scanned
        assert len(store.find_all(pattern)) == n
        assert store.entries_scanned - before <= 10
    # with nothing narrower to read, the arity bucket is the candidate set
    before = store.entries_scanned
    assert len(store.find_all(Pattern(ANY, ANY))) == 1010
    assert store.entries_scanned - before == 1010
