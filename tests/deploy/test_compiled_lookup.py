"""``MatchActionTable.compile_lookup`` equals ``MatchActionTable.lookup``.

The emulated switch classifies through the matcher compiled once at
load; ``lookup`` stays the reference every other caller uses.  Random
tables mix all four match kinds (TERNARY with mask 0 included), draw
priorities from a small range so ties are common, and leave some key
fields out of the vector; every vector value sits on 0, on a constant
of some entry or one off it, or on ``2**width - 1``.
"""

from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from repro.deploy.ir import FieldMatch, MatchActionTable, MatchKind, \
    TableEntry

KEYS = ["a", "b", "c", "d"]


@st.composite
def field_match(draw, width):
    top = (1 << width) - 1
    value = st.integers(0, top)
    kind = draw(st.sampled_from(list(MatchKind)))
    if kind is MatchKind.EXACT:
        return FieldMatch.exact(draw(value))
    if kind is MatchKind.TERNARY:
        mask = draw(st.one_of(st.just(0), value))
        return FieldMatch(kind=kind, value=draw(value), mask=mask)
    if kind is MatchKind.RANGE:
        lo, hi = sorted((draw(value), draw(value)))
        return FieldMatch.range(lo, hi)
    return FieldMatch(kind=kind, value=draw(value),
                      prefix_len=draw(st.integers(0, width)))


@st.composite
def table_and_vectors(draw):
    widths = {name: draw(st.integers(1, 12)) for name in KEYS}
    table = MatchActionTable(
        name="t", key_fields=list(KEYS), key_widths=widths,
        default_action="miss", default_params={"class_id": -1})
    for i in range(draw(st.integers(0, 7))):
        keys = draw(st.lists(st.sampled_from(KEYS), unique=True))
        table.add_entry(TableEntry(
            priority=draw(st.integers(0, 2)),
            matches={k: draw(field_match(widths[k])) for k in keys},
            action=draw(st.sampled_from(["set_class", "drop"])),
            params={"class_id": i, "confidence": i / 8}))
    # the vector's fields: some key fields missing, an extra name, and
    # possibly a repeated one (its last position counts)
    fields = draw(st.lists(st.sampled_from(KEYS + ["extra"]),
                           max_size=6))
    points = {}
    for name in fields:
        width = widths.get(name, 8)
        near = {0, (1 << width) - 1}
        for entry in table.entries:
            match = entry.matches.get(name)
            if match is not None:
                for c in (match.value, match.lo, match.hi):
                    near |= {c - 1, c, c + 1}
        points[name] = sorted(near)
    vectors = draw(st.lists(
        st.tuples(*[st.sampled_from(points[name]) for name in fields]),
        min_size=1, max_size=12))
    return table, fields, vectors


@given(table_and_vectors())
@settings(max_examples=400, deadline=None)
def test_compiled_lookup_equals_lookup(drawn):
    table, fields, vectors = drawn
    match = table.compile_lookup(fields)
    for values in vectors:
        expected = table.lookup(dict(zip(fields, values)))
        assert match(list(values)) == expected


@given(data=st.data(), width=st.integers(1, 12),
       x=st.integers(-(1 << 14), 1 << 14))
@settings(max_examples=400, deadline=None)
def test_masked_range_equals_matches(data, width, x):
    match = data.draw(field_match(width))
    mask, lo, hi = match.masked_range(width)
    assert (lo <= x & mask <= hi) == match.matches(x, width)


def test_empty_table_returns_default_params():
    table = MatchActionTable(name="t", key_fields=["a"],
                             key_widths={"a": 8}, default_action="miss",
                             default_params={"class_id": 3})
    assert table.compile_lookup(["a"])([5]) == ("miss", {"class_id": 3})


def test_first_inserted_wins_a_priority_tie():
    table = MatchActionTable(name="t", key_fields=["a"],
                             key_widths={"a": 8})
    for class_id in (1, 2):
        table.add_entry(TableEntry(
            priority=4, matches={"a": FieldMatch.range(0, 9)},
            action="set_class", params={"class_id": class_id}))
    table.add_entry(TableEntry(priority=3, matches={}, action="set_class",
                               params={"class_id": 9}))
    match = table.compile_lookup(["a"])
    assert match([5]) == table.lookup({"a": 5}) == \
        ("set_class", {"class_id": 1})
    assert match([10]) == ("set_class", {"class_id": 9})


def test_absent_key_reads_zero():
    table = MatchActionTable(name="t", key_fields=["a", "b"],
                             key_widths={"a": 8, "b": 8})
    table.add_entry(TableEntry(priority=2, matches={
        "a": FieldMatch.range(1, 9), "b": FieldMatch.exact(0)},
        action="x", params={"class_id": 1}))
    table.add_entry(TableEntry(priority=1, matches={
        "b": FieldMatch.exact(1)}, action="y", params={"class_id": 2}))
    match = table.compile_lookup(["a"])
    assert match([4]) == ("x", {"class_id": 1})     # b reads 0
    assert match([0]) == ("NoAction", {})            # b = 1 never holds


def test_params_are_read_only_views():
    table = MatchActionTable(name="t", key_fields=["a"],
                             key_widths={"a": 8})
    table.add_entry(TableEntry(priority=0, matches={}, action="x",
                               params={"class_id": 1}))
    _, params = table.compile_lookup(["a"])([0])
    assert isinstance(params, MappingProxyType)
    with pytest.raises(TypeError):
        params["class_id"] = 2


def test_prefix_longer_than_width_is_refused():
    table = MatchActionTable(name="t", key_fields=["a"],
                             key_widths={"a": 8})
    table.add_entry(TableEntry(priority=0, matches={"a": FieldMatch(
        kind=MatchKind.LPM, value=1, prefix_len=9)}, action="x"))
    with pytest.raises(ValueError):
        table.compile_lookup(["a"])
