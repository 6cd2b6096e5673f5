"""Reference implementations of the hex-pattern text parser and pattern
layout, one step per character or element.

The program's parser tokenizes whole runs and its layout works per run
of same-type elements; the tests check both against these.
"""

from __future__ import annotations

from provsig.siggen import ANY, Gap, HexPattern, PatternSyntaxError


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
