"""Reference implementations of the hex-pattern text parser, the
pattern layout and ``build_pattern``.

The parser and layout work one step per character or element; the
program's parser tokenizes whole runs and its layout works per run of
same-type elements.  ``build_pattern`` is the earlier seven-pass version
(cut, merge, convert, merge gaps, trim gaps, trim wildcards, flatten and
count), kept verbatim; the program makes a pattern in one pass.  The
tests check the program against all three.
"""

from __future__ import annotations

from provsig.siggen import (
    ANY,
    MAX_PATTERN_POSITIONS,
    MIN_PATTERN_POSITIONS,
    SEGMENT_LEN,
    TOO_SHORT,
    UNANCHORABLE,
    Gap,
    HexPattern,
    MaskedText,
    PatternSyntaxError,
    Rejected,
)


def parse_pattern_text(text: str) -> HexPattern:
    """Character-by-character parser with the grammar of
    :func:`provsig.siggen.parse_pattern_text`."""
    elements: list = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == " ":
            i += 1
            continue
        if ch == "?":
            if text[i:i + 2] != "??":
                raise PatternSyntaxError("lone '?' in pattern")
            elements.append(ANY)
            i += 2
        elif ch == "{":
            close = text.find("}", i)
            if close == -1:
                raise PatternSyntaxError("unterminated gap")
            digits = text[i + 1:close]
            if not digits.isdigit():
                raise PatternSyntaxError(f"bad gap length {digits!r}")
            length = int(digits)
            if length < 1:
                raise PatternSyntaxError("gap length must be >= 1")
            elements.append(Gap(length))
            i = close + 1
        else:
            pair = text[i:i + 2]
            if len(pair) < 2 or any(c not in "0123456789abcdef" for c in pair):
                raise PatternSyntaxError(f"bad hex byte {pair!r}")
            elements.append(int(pair, 16))
            i += 2
    if not elements:
        raise PatternSyntaxError("empty pattern")
    if isinstance(elements[0], Gap) or isinstance(elements[-1], Gap):
        raise PatternSyntaxError("pattern must not start or end with a gap")
    for a, b in zip(elements, elements[1:]):
        if isinstance(a, Gap) and isinstance(b, Gap):
            raise PatternSyntaxError("adjacent gaps")
    return HexPattern(tuple(elements))


def literal_runs(pattern: HexPattern) -> list[tuple[int, bytes]]:
    """Maximal runs of consecutive literals as (span offset, bytes)."""
    runs: list[tuple[int, bytes]] = []
    pos = 0
    start = 0
    current = bytearray()
    for element in pattern.elements:
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


def fixed_span(pattern: HexPattern) -> int:
    """Total bytes the pattern occupies in a buffer, gaps included."""
    return sum(e.length if isinstance(e, Gap) else 1 for e in pattern.elements)


def _cells(masked: MaskedText, start: int, end: int) -> list:
    data, mask = masked.data, masked.masked
    return [ANY if i in mask else data[i] for i in range(start, end)]


def build_pattern(masked: MaskedText) -> HexPattern | Rejected:
    """Turn a masked section into a pattern, or reject it.

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
    n = len(masked.data)
    if n < MIN_PATTERN_POSITIONS:
        return Rejected(TOO_SHORT)

    parts: list  # alternating cell-run lists and Gaps
    if n <= MAX_PATTERN_POSITIONS:
        parts = [_cells(masked, 0, n)]
    else:
        third = n // 3
        gap_l = third - SEGMENT_LEN
        gap_m = gap_l + n % 3
        parts = [_cells(masked, third - SEGMENT_LEN, third)]
        if gap_l:
            parts.append(Gap(gap_l))
        parts.append(_cells(masked, 2 * third - SEGMENT_LEN, 2 * third))
        if gap_m:
            parts.append(Gap(gap_m))
        parts.append(_cells(masked, n - SEGMENT_LEN, n))

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
    pattern = HexPattern(tuple(elements))
    runs = pattern.literal_runs()
    if not runs or max(len(r[1]) for r in runs) < 2:
        return Rejected(UNANCHORABLE)
    return pattern
