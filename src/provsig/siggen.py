"""Signature generation from compiler and library files.

Three producers, one per binary feature:

* relocation-masked hex patterns from the text sections of relocatable
  objects (and every object inside an ``ar`` archive),
* an MD5-of-``.text`` record for a shared library (stable under
  prelinking, which rewrites relocation data but not code),
* plain byte-string patterns from ``.comment`` vendor strings.

A :class:`Signature`'s target says which of these it carries; the
``.sig`` kind field (``hex``/``md5``) is :mod:`provsig.sigdb`'s alone.

A text-section pattern keeps between 16 and 255 pattern positions.
Sections shorter than 16 bytes are rejected: x86 instructions are 1-16
bytes and we never decode instruction boundaries, so anything shorter
is too ambiguous.  Sections of 256 bytes or more are cut down to three
85-byte samples, the trailing 85 bytes of each third of the section,
joined by exact-length gaps so the overall layout is preserved.
"""

from __future__ import annotations

import hashlib
import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

from provsig import elf
from provsig.elf import ArchiveMember, ElfImage

TARGET_TEXT = "text"
TARGET_COMMENT = "comment"
TARGET_DYNLIB = "dynlib"

TOO_SHORT = "too-short"
UNANCHORABLE = "unanchorable"

MIN_PATTERN_POSITIONS = 16
MAX_PATTERN_POSITIONS = 255
SEGMENT_LEN = MAX_PATTERN_POSITIONS // 3  # 85
MIN_COMMENT_BYTES = 4


class NoTextSection(ValueError):
    """Shared library has no .text section to checksum."""


class PatternSyntaxError(ValueError):
    """Hex pattern text that does not follow the pattern grammar."""


@dataclass(frozen=True)
class Wild:
    """``length`` one-byte wildcards (``??``) in a row."""

    length: int

    def __len__(self) -> int:
        return self.length


@dataclass(frozen=True)
class Gap:
    """Exactly ``length`` arbitrary bytes between two pattern runs."""

    length: int

    def __len__(self) -> int:
        return self.length


class _SharedTokens(dict):
    """One shared token per length, made on first use: ``cache[n]``.

    Tokens are immutable, and a database repeats a few hundred lengths
    at most over its wildcards and gaps (some 10^5 of them in 10,000
    code signatures), so the pattern parser and :func:`build_pattern`
    take them from here rather than making one per stretch.
    """

    def __init__(self, kind: type[Wild] | type[Gap]) -> None:
        super().__init__()
        self.kind = kind

    def __missing__(self, length: int) -> Wild | Gap:
        token = self[length] = self.kind(length)
        return token


_WILDS = _SharedTokens(Wild)
_GAPS = _SharedTokens(Gap)


@dataclass(frozen=True)
class HexPattern:
    """A byte pattern held as its runs, the tokens of its ``.sig`` text:
    ``bytes`` (a literal run), :class:`Wild` and :class:`Gap`.

    Tokens are maximal: no two neighbours are of the same kind.  The
    ``len`` of a token is the number of buffer bytes it spans.  Gaps
    never open or close a pattern, so the span the pattern occupies in a
    buffer is fixed.  A scan needs an anchor (:meth:`layout`);
    :func:`build_pattern` rejects a pattern without one and
    :func:`provsig.matcher.compile` refuses it.
    """

    elements: tuple[bytes | Wild | Gap, ...]

    def layout(self) -> tuple[int, tuple[tuple[int, bytes], ...], tuple[int, bytes] | None]:
        """The pattern's fixed span (bytes it occupies in a buffer, gaps
        included), its literal runs as (span offset, bytes), and its
        anchor: the longest literal run, earliest on ties, or None when
        it is shorter than two bytes.  One walk over the tokens."""
        runs: list[tuple[int, bytes]] = []
        anchor = None
        anchor_len = 1
        pos = 0
        for token in self.elements:
            if isinstance(token, bytes):
                run = (pos, token)
                runs.append(run)
                length = len(token)
                if length > anchor_len:
                    anchor, anchor_len = run, length
                pos += length
            else:
                pos += token.length
        return pos, tuple(runs), anchor


@dataclass(frozen=True)
class Rejected:
    """An input that produced no signature, and why.

    :func:`build_pattern` leaves ``name`` empty; :func:`sign_object` and
    :func:`sign_archive` name the section or archive member.
    """

    reason: str  # TOO_SHORT | UNANCHORABLE | why a member was skipped
    name: str = ""


class Signature(NamedTuple):
    """One detection rule; its target says what it carries.

    A ``text`` or ``comment`` signature carries a pattern against those
    bytes; a ``dynlib`` one carries the digest and size of a library's
    .text.
    """

    name: str
    target: str  # TARGET_TEXT | TARGET_COMMENT | TARGET_DYNLIB
    pattern: HexPattern | None = None
    digest: str | None = None
    text_size: int | None = None


def build_pattern(data: bytes, relocs: list[tuple[int, int]]) -> HexPattern | Rejected:
    """Turn a section's bytes into a pattern, or reject it, in one pass.

    ``relocs`` holds the ``(offset, mask_len)`` pairs of the bytes the
    linker patches, as :func:`provsig.elf.parse_relocations` returns
    them for the section: its docstring states what they hold, and
    this function relies on it.

    Up to 255 bytes the whole section is kept.  From 256 bytes on, three
    85-byte segments are kept (the tail of each third) with gaps of
    l = n//3 - 85 and m = l + n%3 bytes between them, so the last
    segment always ends exactly at the section end.  Each kept range
    reads only the pairs that can reach it, found by bisection: those
    starting before its end and no more than
    :data:`provsig.elf.MAX_MASK_LEN` bytes before its start.  (Every
    relocation is still read, and checked for its warnings, by
    :func:`provsig.elf.parse_relocations`.)  Each kept range is cut at
    its masked stretches (pairs that overlap or abut merge, and are
    clipped to the range) straight into tokens: literal runs between
    them, one :class:`Wild` per stretch, shared by length with the
    pattern parser.  Positions and the longest literal run are counted
    during the cut.

    Wildcards carrying no information are normalized away: a run of
    abutting segments (the first two abut when l == 0, for n = 256 and
    257) that is wildcards throughout dissolves into the gap around it,
    and the leading and trailing wildcards of the pattern are trimmed.
    A masked segment that abuts a literal one keeps its ``??``.  Patterns
    left with fewer than 16 positions are rejected as too short;
    patterns without an anchor (a literal run of two bytes or more, see
    :meth:`HexPattern.layout`) are rejected as unanchorable.
    """
    n = len(data)
    if n < MIN_PATTERN_POSITIONS:
        return Rejected(TOO_SHORT)
    if n <= MAX_PATTERN_POSITIONS:
        ranges = [(0, n)]
    else:
        third = n // 3
        ranges = [(third - SEGMENT_LEN, third), (2 * third - SEGMENT_LEN, 2 * third),
                  (n - SEGMENT_LEN, n)]
        if ranges[0][1] == ranges[1][0]:
            ranges[:2] = [(ranges[0][0], ranges[1][1])]

    runs: list[tuple[int, int, list]] = []  # (lo, hi, tokens) of each kept range
    positions = 0
    longest = 0  # longest literal run
    for lo, hi in ranges:
        tokens: list = []
        wild_lo = wild_hi = lo  # the masked stretch not yet cut; tokens cover [lo, wild_lo)
        for a, length in relocs[bisect_left(relocs, (lo - elf.MAX_MASK_LEN,)):
                                bisect_left(relocs, (hi,))]:
            b = a + length
            if b <= wild_hi:
                continue
            if a > wild_hi:  # a new stretch, after a literal run
                if wild_lo < wild_hi:
                    tokens.append(_WILDS[wild_hi - wild_lo])
                tokens.append(data[wild_hi:a])
                if a - wild_hi > longest:
                    longest = a - wild_hi
                wild_lo = a
            wild_hi = b
        if wild_hi > hi:
            wild_hi = hi
        if wild_lo < wild_hi:
            tokens.append(_WILDS[wild_hi - wild_lo])
        if wild_hi < hi:
            tokens.append(data[wild_hi:hi])
            if hi - wild_hi > longest:
                longest = hi - wild_hi
        if len(tokens) > 1 or type(tokens[0]) is bytes:  # not wildcards throughout
            runs.append((lo, hi, tokens))
            positions += hi - lo
    if not runs:
        return Rejected(TOO_SHORT)
    first_tokens, last_tokens = runs[0][2], runs[-1][2]
    if type(first_tokens[0]) is Wild:
        positions -= first_tokens.pop(0).length
    if type(last_tokens[-1]) is Wild:
        positions -= last_tokens.pop().length

    if positions < MIN_PATTERN_POSITIONS:
        return Rejected(TOO_SHORT)
    if longest < 2:
        return Rejected(UNANCHORABLE)
    elements = runs[0][2]
    for (_, end, _), (lo, _, tokens) in zip(runs, runs[1:]):
        elements.append(_GAPS[lo - end])
        elements += tokens
    return HexPattern(tuple(elements))


def sign_object(image: ElfImage, origin_name: str) -> tuple[list[Signature], list[Rejected]]:
    """One text-target signature per usable text section of an object,
    named ``<origin>:<section>``; a section name that repeats in the
    object is numbered as :func:`unique_name` numbers it.

    Returns the signatures plus a rejection report for every section
    that was too short or unanchorable.
    """
    signatures: list[Signature] = []
    rejections: list[Rejected] = []
    relocs = elf.parse_relocations(image)
    seen_names: dict[str, int] = {}
    for index, section in enumerate(image.sections):
        if not elf.is_text_section(section):
            continue
        name = f"{origin_name}:{unique_name(section.name, seen_names)}"
        result = build_pattern(section.data, relocs.get(index, []))
        if isinstance(result, Rejected):
            rejections.append(Rejected(result.reason, name))
        else:
            signatures.append(Signature(name=name, target=TARGET_TEXT, pattern=result))
    return signatures, rejections


def sign_archive(members: list[ArchiveMember], origin_name: str) -> tuple[list[Signature], list[Rejected]]:
    """sign_object over every archive member that is a relocatable ELF.

    Non-ELF members (linker scripts and the like) are skipped with a
    report, as are members whose headers or relocation tables fail to
    parse.
    """
    signatures: list[Signature] = []
    reports: list[Rejected] = []
    seen_names: dict[str, int] = {}
    for member in members:
        origin = f"{origin_name}/{unique_name(member.name, seen_names)}"
        if not member.data.startswith(elf.ELF_MAGIC):
            reports.append(Rejected("not an ELF object", origin))
            continue
        try:
            image = elf.parse_elf(member.data)
            if not image.is_relocatable:
                reports.append(Rejected("not a relocatable object", origin))
                continue
            sigs, rejects = sign_object(image, origin)
        except (elf.MalformedElf, elf.UnsupportedElf) as exc:
            reports.append(Rejected(f"unparseable: {exc}", origin))
            continue
        signatures.extend(sigs)
        reports.extend(rejects)
    return signatures, reports


def unique_name(name: str, seen: dict[str, int]) -> str:
    """``name`` if no call has returned it yet, else the first of
    ``name#2``, ``name#3``, ... that none has (a member may be named
    ``a.o#2``); ``seen`` maps each name returned so far to the last
    number given to it, 1 for the name itself."""
    count = seen.get(name, 1)
    unique = name
    while unique in seen:
        count += 1
        unique = f"{name}#{count}"
    seen[name] = count
    seen.setdefault(unique, 1)
    return unique


def text_md5_key(image: ElfImage) -> tuple[str, int] | None:
    """A shared library's identity key: the MD5 hex digest and the size
    of its first .text section, or None when it has none.

    Depends only on the code bytes, so on-disk churn in relocation or
    dynamic-linking data (prelinking) does not change it.
    """
    text = elf.get_section(image, ".text")
    if text is None:
        return None
    return hashlib.md5(text.data).hexdigest(), len(text.data)


def sign_shared_lib(image: ElfImage, origin_name: str) -> Signature:
    """MD5 record of a shared library: its :func:`text_md5_key`."""
    key = text_md5_key(image)
    if key is None:
        raise NoTextSection(origin_name)
    digest, text_size = key
    return Signature(name=f"{origin_name}:.text", target=TARGET_DYNLIB,
                     digest=digest, text_size=text_size)


def sign_comments(strings: list[str], origin_name: str) -> list[Signature]:
    """One literal pattern per distinct .comment string of 4+ bytes.

    Shorter strings would flood a scan with noise and are dropped.
    """
    signatures: list[Signature] = []
    for string in dict.fromkeys(strings):
        raw = string.encode("latin-1")
        if len(raw) >= MIN_COMMENT_BYTES:
            signatures.append(Signature(
                name=f"{origin_name}:.comment.{len(signatures)}",
                target=TARGET_COMMENT,
                pattern=HexPattern((raw,)),
            ))
    return signatures


def pattern_to_text(pattern: HexPattern) -> str:
    """Render a pattern: lowercase hex pairs, ``??`` wildcards, ``{n}`` gaps."""
    tokens = []
    for token in pattern.elements:
        if isinstance(token, bytes):
            tokens.append(token.hex())
        elif isinstance(token, Wild):
            tokens.append("??" * token.length)
        else:
            tokens.append(f"{{{token.length}}}")
    return "".join(tokens)


_PATTERN_TOKEN = re.compile(
    r" *(?:(?P<hex>[0-9a-f][0-9a-f ]*)"
    r"|(?P<any>\?\?(?: *\?\?)*)"
    r"|\{(?P<gap>[0-9]+)\})")


# what bytes.fromhex skips (ASCII whitespace) or reads (uppercase) and
# the grammar refuses
_FROMHEX_ONLY = (" ", "\t", "\n", "\r", "\x0b", "\x0c", "A", "B", "C", "D", "E", "F")


def _parse_canonical(text: str) -> HexPattern | None:
    """The pattern of ``text`` if it is written as :func:`pattern_to_text`
    writes it, else None.

    The text is split on ``{``: every part after the first is
    ``digits}rest``, a gap and the part it leads to.  Each gap-free
    part is split on ``??``: every boundary of that split is one
    wildcard byte, and every non-empty piece one :meth:`bytes.fromhex`.
    That call skips ASCII whitespace and reads uppercase, which the
    grammar refuses, so text holding either is declined before it is
    split.
    """
    for char in _FROMHEX_ONLY:
        if char in text:
            return None
    elements: list = []
    append = elements.append
    fromhex = bytes.fromhex
    try:
        for part in text.split("{"):
            if elements:  # every part but the first opens with a gap
                digits, brace, part = part.partition("}")
                if not (brace and digits.isascii() and digits.isdigit()):
                    return None
                length = int(digits)
                if length < 1:
                    return None
                append(_GAPS[length])
            if not part:  # empty text, a gap first, last or next to a gap
                return None
            first, *pieces = part.split("??")
            if first:
                append(fromhex(first))
            wild = 0
            for piece in pieces:
                wild += 1
                if piece:
                    append(_WILDS[wild])
                    append(fromhex(piece))
                    wild = 0
            if wild:
                append(_WILDS[wild])
    except ValueError:  # not hex pairs, or more digits than int() converts
        return None
    return HexPattern(tuple(elements))


def parse_pattern_text(text: str) -> HexPattern:
    """Inverse of :func:`pattern_to_text`; accepts optional spaces
    between tokens.

    Tokens are runs of hex pairs, runs of ``??`` and ``{n}`` gaps, with
    ASCII characters only: a gap length is ASCII digits.  Each becomes
    one pattern token; a run takes in every pair or ``??`` that follows
    it, so the tokens are maximal.

    Text as :func:`pattern_to_text` writes it is read by C-level string
    passes (:func:`_parse_canonical`).  Any other text, spaced or
    uppercase or malformed, goes to one regular-expression match per
    token, which alone judges the grammar and words every
    :class:`PatternSyntaxError`.
    """
    pattern = _parse_canonical(text)
    if pattern is not None:
        return pattern
    text = text.rstrip(" ")
    elements: list = []
    pos = 0
    while pos < len(text):
        token = _PATTERN_TOKEN.match(text, pos)
        if token is None:
            raise PatternSyntaxError(f"bad token at offset {pos}: {text[pos:pos + 12]!r}")
        hex_run, any_run, digits = token.groups()
        if hex_run is not None:
            try:  # hex pairs with optional spaces between pairs
                elements.append(bytes.fromhex(hex_run))
            except ValueError as exc:
                raise PatternSyntaxError(f"bad hex run {hex_run.strip()!r}") from exc
        elif any_run is not None:
            elements.append(_WILDS[any_run.count("?") // 2])
        else:
            try:
                length = int(digits)
            except ValueError as exc:  # more digits than int() converts
                raise PatternSyntaxError(f"bad gap length {digits!r}") from exc
            if length < 1:
                raise PatternSyntaxError("gap length must be >= 1")
            if not elements:
                raise PatternSyntaxError("pattern must not start or end with a gap")
            if isinstance(elements[-1], Gap):
                raise PatternSyntaxError("adjacent gaps")
            elements.append(_GAPS[length])
        pos = token.end()
    if not elements:
        raise PatternSyntaxError("empty pattern")
    if isinstance(elements[-1], Gap):
        raise PatternSyntaxError("pattern must not start or end with a gap")
    return HexPattern(tuple(elements))
