"""Match-action intermediate representation.

The IR models what a P4 target offers: tables with typed match keys
(exact / ternary / range / lpm), prioritised entries, and named
actions with parameters.  Range matches are first-class in the IR;
hardware without native range matching pays the range-to-ternary
expansion cost, which :func:`range_to_ternary` computes exactly (the
classic prefix-cover construction) so the resource model can charge
real TCAM entries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple


class MatchKind(enum.Enum):
    EXACT = "exact"
    TERNARY = "ternary"
    RANGE = "range"
    LPM = "lpm"


@dataclass(frozen=True)
class FieldMatch:
    """One key's constraint inside one entry.

    * EXACT: ``value``
    * TERNARY: ``value`` + ``mask``
    * RANGE: inclusive ``[lo, hi]``
    * LPM: ``value`` + ``prefix_len``
    """

    kind: MatchKind
    value: int = 0
    mask: int = 0
    lo: int = 0
    hi: int = 0
    prefix_len: int = 0

    def matches(self, observed: int, width: int = 32) -> bool:
        if self.kind is MatchKind.EXACT:
            return observed == self.value
        if self.kind is MatchKind.TERNARY:
            return (observed & self.mask) == (self.value & self.mask)
        if self.kind is MatchKind.RANGE:
            return self.lo <= observed <= self.hi
        if self.kind is MatchKind.LPM:
            shift = width - self.prefix_len
            return (observed >> shift) == (self.value >> shift)
        raise ValueError(f"unknown match kind {self.kind}")

    def masked_range(self, width: int = 32) -> Tuple[int, int, int]:
        """``(mask, lo, hi)`` with ``matches(x, width)`` exactly when
        ``lo <= x & mask <= hi``, for any integer ``x``: mask -1 for
        EXACT and RANGE, the mask for TERNARY, and the prefix bits for
        LPM (``x >> s == v >> s`` exactly when
        ``x & -(1 << s) == v & -(1 << s)``)."""
        if self.kind is MatchKind.EXACT:
            return -1, self.value, self.value
        if self.kind is MatchKind.RANGE:
            return -1, self.lo, self.hi
        if self.kind is MatchKind.TERNARY:
            bits = self.value & self.mask
            return self.mask, bits, bits
        if self.kind is MatchKind.LPM:
            shift = width - self.prefix_len
            if shift < 0:
                raise ValueError(f"prefix length {self.prefix_len} "
                                 f"exceeds width {width}")
            mask = -(1 << shift)
            return mask, self.value & mask, self.value & mask
        raise ValueError(f"unknown match kind {self.kind}")

    @staticmethod
    def wildcard() -> "FieldMatch":
        return FieldMatch(kind=MatchKind.TERNARY, value=0, mask=0)

    @staticmethod
    def range(lo: int, hi: int) -> "FieldMatch":
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return FieldMatch(kind=MatchKind.RANGE, lo=lo, hi=hi)

    @staticmethod
    def exact(value: int) -> "FieldMatch":
        return FieldMatch(kind=MatchKind.EXACT, value=value)


@dataclass
class TableEntry:
    """Prioritised entry: higher priority wins."""

    priority: int
    matches: Dict[str, FieldMatch]
    action: str
    params: Dict[str, object] = field(default_factory=dict)

    def hits(self, fields: Dict[str, int], widths: Dict[str, int]) -> bool:
        for name, match in self.matches.items():
            observed = fields.get(name, 0)
            if not match.matches(observed, widths.get(name, 32)):
                return False
        return True


@dataclass
class MatchActionTable:
    """One pipeline table."""

    name: str
    key_fields: List[str]
    key_widths: Dict[str, int]
    entries: List[TableEntry] = field(default_factory=list)
    default_action: str = "NoAction"
    default_params: Dict[str, object] = field(default_factory=dict)

    def add_entry(self, entry: TableEntry) -> None:
        unknown = set(entry.matches) - set(self.key_fields)
        if unknown:
            raise ValueError(f"entry matches unknown keys: {sorted(unknown)}")
        self.entries.append(entry)

    def lookup(self, fields: Dict[str, int]) -> Tuple[str, Dict]:
        """First hit in priority order (stable by insertion within ties)."""
        best: Optional[TableEntry] = None
        for entry in self.entries:
            if entry.hits(fields, self.key_widths):
                if best is None or entry.priority > best.priority:
                    best = entry
        if best is None:
            return self.default_action, dict(self.default_params)
        return best.action, dict(best.params)

    def compile_lookup(self, fields: Sequence[str]) \
            -> Callable[[Sequence[int]], Tuple[str, Mapping[str, object]]]:
        """:meth:`lookup` as a function of a vector of integer field
        values, built once for a table whose entries no longer change.

        ``values[i]`` is the value of ``fields[i]`` (a repeated name
        takes its last position, as ``dict(zip(fields, values))``
        does) and a key outside ``fields`` reads 0, so
        ``match(values)`` equals ``lookup(dict(zip(fields, values)))``
        when ``values`` is as long as ``fields``.  Every constraint is
        one check ``lo <= values[i] & mask <= hi``
        (:meth:`FieldMatch.masked_range`).  Checks that always hold
        (mask 0) are dropped, and so is an entry whose check on an
        absent key fails.  Entries are tried in priority order, ties in
        insertion order, so the first hit is the entry ``lookup``
        picks.  Params come back as read-only views, not copies.
        """
        position = {name: i for i, name in enumerate(fields)}
        compiled = []
        for entry in sorted(self.entries, key=lambda e: e.priority,
                            reverse=True):
            checks = []
            for name, match in entry.matches.items():
                mask, lo, hi = match.masked_range(
                    self.key_widths.get(name, 32))
                if name in position:
                    if mask:
                        checks.append((position[name], mask, lo, hi))
                elif not lo <= 0 & mask <= hi:
                    break                       # can never hit
            else:
                compiled.append((tuple(checks), (
                    entry.action, MappingProxyType(entry.params))))
        default = (self.default_action,
                   MappingProxyType(self.default_params))

        def match(values: Sequence[int]) \
                -> Tuple[str, Mapping[str, object]]:
            for checks, hit in compiled:
                for i, mask, lo, hi in checks:
                    if not lo <= values[i] & mask <= hi:
                        break
                else:
                    return hit
            return default

        return match

    @property
    def key_width_bits(self) -> int:
        return sum(self.key_widths[f] for f in self.key_fields)


@dataclass
class SwitchProgram:
    """A compiled pipeline: ordered tables plus metadata the control
    plane needs (feature scaling, class names)."""

    name: str
    tables: List[MatchActionTable]
    feature_fields: List[str] = field(default_factory=list)
    class_names: List[str] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    def table(self, name: str) -> MatchActionTable:
        for table in self.tables:
            if table.name == name:
                return table
        raise KeyError(f"no table named {name!r}")

    @property
    def total_entries(self) -> int:
        return sum(len(t.entries) for t in self.tables)


def range_to_ternary(lo: int, hi: int, width: int) -> List[Tuple[int, int]]:
    """Minimal prefix cover of [lo, hi] as (value, mask) pairs.

    The standard construction: repeatedly take the largest aligned
    power-of-two block that starts at ``lo`` and fits within ``hi``.
    Worst case 2*width - 2 pairs, the figure behind TCAM range
    expansion costs.
    """
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    if lo < 0 or hi >= (1 << width):
        raise ValueError(f"range [{lo}, {hi}] exceeds width {width}")
    full_mask = (1 << width) - 1
    covers: List[Tuple[int, int]] = []
    position = lo
    while position <= hi:
        # Largest block size aligned at `position`...
        max_align = position & -position if position > 0 else 1 << width
        # ...that also fits in the remaining span.
        span = hi - position + 1
        block = max_align
        while block > span:
            block >>= 1
        mask = full_mask & ~(block - 1)
        covers.append((position, mask))
        position += block
    return covers


def ternary_cost(entry: TableEntry, widths: Dict[str, int]) -> int:
    """How many pure-TCAM entries this entry expands into.

    Each RANGE key multiplies the expansion by its prefix-cover size;
    EXACT/TERNARY/LPM keys cost a factor of 1.
    """
    expansion = 1
    for name, match in entry.matches.items():
        if match.kind is MatchKind.RANGE:
            covers = range_to_ternary(match.lo, match.hi,
                                      widths.get(name, 32))
            expansion *= len(covers)
    return expansion
