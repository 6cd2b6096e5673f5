"""Per-byte reference implementations of the hex-pattern text parser,
the pattern layout, relocation masking and ``build_pattern``.

The program holds a pattern as its span, its literal runs at their
span offsets and its gaps, and a mask as intervals.  The references
here hold one element per pattern position instead: an int for a
literal byte, :data:`ANY` for a ``??``, and a :class:`Gap` for a gap; a
mask is the set of masked offsets.  The parser works one step per
character, the layout one step per element, and ``build_pattern`` is
the earlier seven-pass version (cut, merge, convert, merge gaps, trim
gaps, trim wildcards, flatten and count).  :func:`expand` turns a
program pattern into per-byte elements, so the tests compare the two
on equal terms; :func:`from_elements` builds a program pattern from
per-byte elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from provsig.elf import MAX_MASK_LEN
from provsig.sigdb import HexPattern, MalformedSigFile
from provsig.siggen import (
    MAX_PATTERN_POSITIONS,
    MIN_PATTERN_POSITIONS,
    SEGMENT_LEN,
    TOO_SHORT,
    UNANCHORABLE,
    Rejected,
)


class _AnyByte:
    """Marker for one ``??`` position."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "ANY"


ANY = _AnyByte()


@dataclass(frozen=True)
class Gap:
    """One element for a gap of exactly ``length`` arbitrary bytes."""

    length: int


def expand(pattern: HexPattern) -> tuple:
    """The pattern's per-byte elements."""
    cells: list = [ANY] * pattern.span
    for offset, literal in zip(pattern.offsets, pattern.literals):
        cells[offset:offset + len(literal)] = literal
    for offset, length in sorted(pattern.gaps, reverse=True):
        cells[offset:offset + length] = [Gap(length)]
    return tuple(cells)


def from_elements(elements) -> HexPattern:
    """The program pattern of per-byte elements: each stretch of literals
    becomes one literal run at its span offset, each ``Gap`` one gap."""
    offsets: list[int] = []
    literals: list[bytes] = []
    gaps: list[tuple[int, int]] = []
    pos = 0
    for kind, group in groupby(elements, key=type):
        group = list(group)
        if kind is int:
            offsets.append(pos)
            literals.append(bytes(group))
            pos += len(group)
        elif kind is Gap:
            for gap in group:
                gaps.append((pos, gap.length))
                pos += gap.length
        else:
            pos += len(group)
    return HexPattern(pos, tuple(offsets), tuple(literals), tuple(gaps))


def well_formed(elements) -> bool:
    """Non-empty, no gap at either end, no two gaps in a row."""
    return bool(elements) and not isinstance(elements[0], Gap) \
        and not isinstance(elements[-1], Gap) \
        and all(not (isinstance(a, Gap) and isinstance(b, Gap))
                for a, b in zip(elements, elements[1:]))


def mask_positions(size: int, relocs) -> set[int]:
    """Every offset of a ``size``-byte section that an ``(offset,
    mask_len)`` relocation covers."""
    masked: set[int] = set()
    for offset, mask_len in relocs:
        masked.update(range(max(offset, 0), min(offset + mask_len, size)))
    return masked


def contract_relocs(pairs) -> tuple[list[int], bytes]:
    """``(offset, mask_len)`` pairs, already in the order and range
    :func:`provsig.elf.parse_relocations` promises, as the
    ``(starts, lengths)`` it hands over."""
    return [offset for offset, _ in pairs], bytes(mask_len for _, mask_len in pairs)


NO_RELOCS = contract_relocs([])  # a section no relocation patches


def reader_relocs(size: int, relocs) -> tuple[list[int], bytes]:
    """``(offset, mask_len)`` pairs in any order and of any length, made
    into what :func:`provsig.elf.parse_relocations` hands over for a
    ``size``-byte section: each pair clipped to the section, cut into
    pieces of at most :data:`provsig.elf.MAX_MASK_LEN` bytes, sorted,
    and split into ``(starts, lengths)``.  They mask exactly the
    offsets :func:`mask_positions` does."""
    pairs: list[tuple[int, int]] = []
    for offset, mask_len in relocs:
        lo, hi = max(offset, 0), min(offset + mask_len, size)
        pairs += [(a, min(MAX_MASK_LEN, hi - a)) for a in range(lo, hi, MAX_MASK_LEN)]
    return contract_relocs(sorted(pairs))


def parse_pattern_text(text: str) -> tuple:
    """Character-by-character parser with the grammar of
    :func:`provsig.sigdb.parse_pattern_text`; returns per-byte
    elements."""
    elements: list = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == " ":
            i += 1
            continue
        if ch == "?":
            if text[i:i + 2] != "??":
                raise MalformedSigFile("lone '?' in pattern")
            elements.append(ANY)
            i += 2
        elif ch == "{":
            close = text.find("}", i)
            if close == -1:
                raise MalformedSigFile("unterminated gap")
            digits = text[i + 1:close]
            if not (digits.isascii() and digits.isdigit()):
                raise MalformedSigFile(f"bad gap length {digits!r}")
            length = int(digits)
            if length < 1:
                raise MalformedSigFile("gap length must be >= 1")
            elements.append(Gap(length))
            i = close + 1
        else:
            pair = text[i:i + 2]
            if len(pair) < 2 or any(c not in "0123456789abcdef" for c in pair):
                raise MalformedSigFile(f"bad hex byte {pair!r}")
            elements.append(int(pair, 16))
            i += 2
    if not elements:
        raise MalformedSigFile("empty pattern")
    if isinstance(elements[0], Gap) or isinstance(elements[-1], Gap):
        raise MalformedSigFile("pattern must not start or end with a gap")
    for a, b in zip(elements, elements[1:]):
        if isinstance(a, Gap) and isinstance(b, Gap):
            raise MalformedSigFile("adjacent gaps")
    return tuple(elements)


def literal_runs(elements) -> list[tuple[int, bytes]]:
    """Maximal runs of consecutive literals as (span offset, bytes)."""
    runs: list[tuple[int, bytes]] = []
    pos = 0
    start = 0
    current = bytearray()
    for element in elements:
        if isinstance(element, int):
            if not current:
                start = pos
            current.append(element)
            pos += 1
        else:
            if current:
                runs.append((start, bytes(current)))
                current = bytearray()
            pos += element.length if isinstance(element, Gap) else 1
    if current:
        runs.append((start, bytes(current)))
    return runs


def anchor(elements) -> tuple[int, bytes] | None:
    """The longest literal run as (span offset, bytes), earliest on ties,
    or None when it is shorter than two bytes."""
    best = None
    for run in literal_runs(elements):
        if len(run[1]) >= 2 and (best is None or len(run[1]) > len(best[1])):
            best = run
    return best


def fixed_span(elements) -> int:
    """Total bytes the pattern occupies in a buffer, gaps included."""
    return sum(e.length if isinstance(e, Gap) else 1 for e in elements)


def build_pattern(data: bytes, masked: set[int]) -> tuple | Rejected:
    """Turn a section and its masked offsets into per-byte pattern
    elements, or reject it.

    Up to 255 bytes the whole section becomes the pattern.  From 256
    bytes on, three 85-byte segments are sampled (the tail of each
    third) with gaps of l = n//3 - 85 and m = l + n%3 bytes between
    them, so the last segment always ends exactly at the section end.

    Wildcards carrying no information are normalized away: leading and
    trailing wildcard runs are trimmed, and a segment that is wildcards
    throughout dissolves into its neighbouring gap.  Patterns left with
    fewer than 16 positions are rejected as too short; patterns whose
    longest literal run is a single byte are rejected as unanchorable.
    """
    def _cells(start: int, end: int) -> list:
        return [ANY if i in masked else data[i] for i in range(start, end)]

    n = len(data)
    if n < MIN_PATTERN_POSITIONS:
        return Rejected(TOO_SHORT)

    parts: list  # alternating cell-run lists and Gaps
    if n <= MAX_PATTERN_POSITIONS:
        parts = [_cells(0, n)]
    else:
        third = n // 3
        gap_l = third - SEGMENT_LEN
        gap_m = gap_l + n % 3
        parts = [_cells(third - SEGMENT_LEN, third)]
        if gap_l:
            parts.append(Gap(gap_l))
        parts.append(_cells(2 * third - SEGMENT_LEN, 2 * third))
        if gap_m:
            parts.append(Gap(gap_m))
        parts.append(_cells(n - SEGMENT_LEN, n))

    # merge runs left adjacent by a zero-length gap
    merged: list = []
    for part in parts:
        if merged and not isinstance(part, Gap) and not isinstance(merged[-1], Gap):
            merged[-1] = merged[-1] + part
        else:
            merged.append(part)

    # an all-wildcard run tells us nothing: dissolve it into a gap
    converted = [Gap(len(p)) if not isinstance(p, Gap) and all(c is ANY for c in p) else p
                 for p in merged]
    normalized: list = []
    for part in converted:
        if isinstance(part, Gap) and normalized and isinstance(normalized[-1], Gap):
            normalized[-1] = Gap(normalized[-1].length + part.length)
        else:
            normalized.append(part)
    while normalized and isinstance(normalized[0], Gap):
        normalized.pop(0)
    while normalized and isinstance(normalized[-1], Gap):
        normalized.pop()
    if normalized:
        first = normalized[0]
        lead = 0
        while lead < len(first) and first[lead] is ANY:
            lead += 1
        if lead:
            normalized[0] = first[lead:]
        last = normalized[-1]
        tail = len(last)
        while tail > 0 and last[tail - 1] is ANY:
            tail -= 1
        if tail < len(last):
            normalized[-1] = last[:tail]

    elements: list = []
    for part in normalized:
        if isinstance(part, Gap):
            elements.append(part)
        else:
            elements.extend(part)

    positions = sum(1 for e in elements if not isinstance(e, Gap))
    if positions < MIN_PATTERN_POSITIONS:
        return Rejected(TOO_SHORT)
    runs = literal_runs(elements)
    if not runs or max(len(r[1]) for r in runs) < 2:
        return Rejected(UNANCHORABLE)
    return tuple(elements)
