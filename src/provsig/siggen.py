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

import math
import re
from bisect import bisect_left
from typing import Iterable, NamedTuple

from provsig import elf
from provsig.elf import ArchiveMember, ElfImage

TARGET_TEXT = "text"
TARGET_COMMENT = "comment"
TARGET_DYNLIB = "dynlib"

TOO_SHORT = "too-short"
UNANCHORABLE = "unanchorable"
NO_TEXT = "no .text section"

MIN_PATTERN_POSITIONS = 16
MAX_PATTERN_POSITIONS = 255
SEGMENT_LEN = MAX_PATTERN_POSITIONS // 3  # 85
MIN_COMMENT_BYTES = 4


class PatternSyntaxError(ValueError):
    """Hex pattern text that does not follow the pattern grammar, or a
    pattern that no such text writes."""


class HexPattern(NamedTuple):
    """A byte pattern as a scan reads it.

    ``literals[i]`` is a literal run at span offset ``offsets[i]``;
    ``gaps`` holds ``(offset, length)`` pairs; every other position of
    the ``span`` bytes is a ``??``, which matches what a gap does: the
    two differ only in the ``.sig`` text.  Runs are in order, non-empty
    and never abut; a gap never abuts a gap, overlaps a run or opens or
    closes the pattern (:func:`pattern_to_text` refuses one that does).
    A scan needs an anchor, a literal run of two bytes or more, which
    :func:`build_pattern` ensures; :mod:`provsig.sigdb` neither reads
    nor writes a pattern without one, so
    :func:`provsig.matcher.compile` never meets one.
    """

    span: int
    offsets: tuple[int, ...]
    literals: tuple[bytes, ...]
    gaps: tuple[tuple[int, int], ...]


class Rejected(NamedTuple):
    """An input that produced no signature, and why.

    :func:`build_pattern` and :func:`sign_shared_lib` leave ``name``
    empty; :func:`sign_object` and :func:`sign_archive` name the section
    or archive member.
    """

    reason: str  # TOO_SHORT | UNANCHORABLE | NO_TEXT | why a member was skipped
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


def build_pattern(data: bytes, relocs: tuple[list[int], bytes]) -> HexPattern | Rejected:
    """Turn a section's bytes into a pattern, or reject it, in one pass.

    ``relocs`` holds the ``(starts, lengths)`` of the bytes the linker
    patches, as :func:`provsig.elf.parse_relocations` returns them for
    the section: its docstring states what they hold, and this function
    relies on it.

    Up to 255 bytes the whole section is kept.  From 256 bytes on, three
    85-byte segments are kept (the tail of each third) with gaps of
    l = n//3 - 85 and m = l + n%3 bytes between them, so the last
    segment always ends exactly at the section end.  Each kept range
    reads only the relocations that can reach it, found by bisection of
    ``starts``: those starting before its end and no more than
    :data:`provsig.elf.MAX_MASK_LEN` bytes before its start.  (Every
    relocation is still read, and checked for its warnings, by
    :func:`provsig.elf.parse_relocations`.)  Each kept range is cut at
    its masked stretches (masks that overlap or abut merge, and are
    clipped to the range) straight into the pattern's literal runs,
    found at their section offsets.  Everything between the runs is a
    ``??``, except between kept ranges, where it is a gap.

    Wildcards carrying no information are normalized away: a run of
    abutting segments (the first two abut when l == 0, for n = 256 and
    257) that is wildcards throughout dissolves into the gap around it,
    and the pattern starts at its first literal run and ends with its
    last.  A masked segment that abuts a literal one keeps its ``??``.
    Patterns left with fewer than 16 positions (the span less its gaps)
    are rejected as too short; patterns without an anchor (a literal
    run of two bytes or more) are rejected as unanchorable.
    """
    starts, lengths = relocs
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

    offsets: list[int] = []  # section offsets of the literal runs
    literals: list[bytes] = []
    gaps: list[tuple[int, int]] = []  # (section offset, length)
    gapped = 0  # bytes in gaps
    end = 0  # where the last kept range ends
    for lo, hi in ranges:
        kept = len(literals)
        masked = lo  # the masked stretch not yet cut ends here
        first, last = bisect_left(starts, lo - elf.MAX_MASK_LEN), bisect_left(starts, hi)
        for a, length in zip(starts[first:last], lengths[first:last]):
            if a > masked:  # a literal run, then a new stretch
                offsets.append(masked)
                literals.append(data[masked:a])
            if a + length > masked:
                masked = a + length
        if masked < hi:
            offsets.append(masked)
            literals.append(data[masked:hi])
        if len(literals) > kept:  # not wildcards throughout
            if kept:
                gaps.append((end, lo - end))
                gapped += lo - end
            end = hi
    if not literals:
        return Rejected(TOO_SHORT)

    start = offsets[0]
    span = offsets[-1] + len(literals[-1]) - start
    if span - gapped < MIN_PATTERN_POSITIONS:
        return Rejected(TOO_SHORT)
    if max(map(len, literals)) < 2:
        return Rejected(UNANCHORABLE)
    if start:
        offsets = [offset - start for offset in offsets]
        gaps = [(offset - start, length) for offset, length in gaps]
    return HexPattern(span, tuple(offsets), tuple(literals), tuple(gaps))


_NO_RELOCS = ([], b"")  # a section no relocation table patches


def sign_object(image: ElfImage, origin_name: str,
                warnings: list[str]) -> tuple[list[Signature], list[Rejected]]:
    """One text-target signature per usable text section of an object,
    named ``<origin>:<section>``; a section name that repeats in the
    object is numbered as :func:`unique_name` numbers it.

    Returns the signatures and a rejection per section too short or
    unanchorable; relocation warnings are appended to ``warnings``.
    """
    signatures: list[Signature] = []
    rejections: list[Rejected] = []
    relocs = elf.parse_relocations(image, warnings)
    seen_names: dict[str, int] = {}
    new = tuple.__new__  # builds a Signature as Signature._make does
    for index, section in enumerate(image.sections):
        if not elf.is_text_section(section):
            continue
        name = f"{origin_name}:{unique_name(section.name, seen_names)}"
        result = build_pattern(section.data, relocs.get(index, _NO_RELOCS))
        if isinstance(result, Rejected):
            rejections.append(Rejected(result.reason, name))
        else:
            signatures.append(new(Signature, (name, TARGET_TEXT, result, None, None)))
    return signatures, rejections


def sign_archive(members: Iterable[ArchiveMember], origin_name: str,
                 warnings: list[str]) -> tuple[list[Signature], list[Rejected]]:
    """sign_object over every archive member that is a relocatable ELF.

    ``members`` is read once, in order, so it may be an iterator that
    reads each member as it is reached (:func:`provsig.elf.read_archive`).
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
            sigs, rejects = sign_object(image, origin, warnings)
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

    The digest is CPython's own MD5 (``_md5``): :mod:`hashlib` would
    map OpenSSL's libcrypto into the process for it.  Only an
    interpreter built without ``_md5`` takes it from :mod:`hashlib`.
    The digest names a library and guards nothing, which
    ``usedforsecurity=False`` says, so an OpenSSL in FIPS mode does not
    refuse it.
    """
    text = elf.get_section(image, ".text")
    if text is None:
        return None
    # imported here, so a scan that never takes a digest loads neither
    try:
        from _md5 import md5
    except ImportError:
        from hashlib import md5
    return md5(text.data, usedforsecurity=False).hexdigest(), len(text.data)


def sign_shared_lib(image: ElfImage, origin_name: str) -> Signature | Rejected:
    """MD5 record of a shared library: its :func:`text_md5_key`, or a
    :data:`NO_TEXT` rejection when it has no .text section."""
    key = text_md5_key(image)
    if key is None:
        return Rejected(NO_TEXT)
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
                pattern=HexPattern(len(raw), (0,), (raw,), ()),
            ))
    return signatures


_NO_GAP = (math.inf, 0)  # what pattern_to_text reads once past the last gap


def pattern_to_text(pattern: HexPattern) -> str:
    """Render a pattern: lowercase hex pairs, ``??`` wildcards, ``{n}`` gaps.

    One walk over the runs, writing each gap as the walk passes it.  A
    pattern that no text reads back as itself (one that breaks a rule of
    :class:`HexPattern`, or has an empty gap, a part past its span or no
    span) raises :class:`PatternSyntaxError` during that walk.
    """
    span, offsets, literals, gaps = pattern
    if len(offsets) != len(literals) or not all(literals):
        raise PatternSyntaxError("pattern has an empty literal run or not one offset per run")
    parts: list[str] = []
    pos = 0  # the span offset written up to
    run_floor, gap_floor = 0, 1  # the least offsets the next run and gap may start at
    more_gaps = iter(gaps)
    gap_at, length = next(more_gaps, _NO_GAP)
    # the span's end closes the walk as a run without bytes
    for at, literal in zip((*offsets, span), (*literals, None)):
        while gap_at < at:
            if gap_at < gap_floor or length < 1 or gap_at + length >= span:
                raise PatternSyntaxError(f"gap at offset {gap_at} is empty, abuts a gap, "
                                         "opens or closes the pattern or is out of place")
            parts.append("??" * (gap_at - pos))
            parts.append(f"{{{length}}}")
            pos = run_floor = gap_at + length
            gap_floor = pos + 1
            gap_at, length = next(more_gaps, _NO_GAP)
        if literal is None:
            break
        if at < run_floor:
            raise PatternSyntaxError(f"literal run at offset {at} abuts a run or is out of place")
        parts.append("??" * (at - pos))
        parts.append(literal.hex())
        pos = gap_floor = at + len(literal)
        run_floor = pos + 1
    if gap_at != _NO_GAP[0] or pos > span or span < 1:
        raise PatternSyntaxError("pattern is empty or has a part past its span")
    parts.append("??" * (span - pos))
    return "".join(parts)


_PATTERN_TOKEN = re.compile(
    r" *(?:(?P<hex>[0-9a-f][0-9a-f ]*)"
    r"|(?P<any>\?\?(?: *\?\?)*)"
    r"|\{(?P<gap>[0-9]+)\})")


# what bytes.fromhex skips (ASCII whitespace) or reads (uppercase) and
# the grammar refuses
_FROMHEX_ONLY = (" ", "\t", "\n", "\r", "\x0b", "\x0c", "A", "B", "C", "D", "E", "F")


def _parse_canonical(text: str) -> HexPattern | None:
    """The pattern of ``text`` if it is written as :func:`pattern_to_text`
    writes it, else None.  The one place a pattern is built from text.

    The text is split on ``{``: every part after the first is
    ``digits}rest``, a gap and the part it leads to.  Each gap-free
    part is split on ``??``: every boundary of that split is one
    wildcard byte, and every non-empty piece one literal run, read by
    :meth:`bytes.fromhex`.  A part that holds no ``?`` is taken as one
    piece without a split.  That call skips ASCII whitespace and reads
    uppercase, which the grammar refuses, so text holding either is
    declined before it is split.  The pattern is built as
    :meth:`HexPattern._make` builds it, without a Python-level call.
    """
    for char in _FROMHEX_ONLY:
        if char in text:
            return None
    offsets: list[int] = []
    literals: list[bytes] = []
    gaps: list[tuple[int, int]] = []
    fromhex = bytes.fromhex
    pos = 0  # the span offset read up to
    try:
        for index, part in enumerate(text.split("{")):
            if index:  # every part but the first opens with a gap
                digits, brace, part = part.partition("}")
                if not (brace and digits.isascii() and digits.isdigit()):
                    return None
                length = int(digits)
                if length < 1:
                    return None
                gaps.append((pos, length))
                pos += length
            if not part:  # empty text, a gap first, last or next to a gap
                return None
            pos -= 1
            for piece in part.split("??") if "?" in part else (part,):
                pos += 1  # the ``??`` before every piece but the first
                if piece:
                    literal = fromhex(piece)
                    offsets.append(pos)
                    literals.append(literal)
                    pos += len(literal)
    except ValueError:  # not hex pairs, or more digits than int() converts
        return None
    return tuple.__new__(HexPattern, (pos, tuple(offsets), tuple(literals), tuple(gaps)))


def parse_pattern_text(text: str) -> HexPattern:
    """Inverse of :func:`pattern_to_text`; accepts optional spaces
    between tokens.

    Tokens are runs of hex pairs, runs of ``??`` and ``{n}`` gaps, with
    ASCII characters only: a gap length is ASCII digits.

    Text as :func:`pattern_to_text` writes it is read by C-level string
    passes (:func:`_parse_canonical`).  Any other text, spaced or
    uppercase or malformed, goes to one regular-expression match per
    token, which alone judges the grammar and words every
    :class:`PatternSyntaxError`; text that passes is written again as
    :func:`pattern_to_text` would write it and read by those passes.
    """
    pattern = _parse_canonical(text)
    if pattern is not None:
        return pattern
    text = text.rstrip(" ")
    parts: list[str] = []  # the canonical text of each token
    pos = 0
    while pos < len(text):
        token = _PATTERN_TOKEN.match(text, pos)
        if token is None:
            raise PatternSyntaxError(f"bad token at offset {pos}: {text[pos:pos + 12]!r}")
        hex_run, any_run, digits = token.groups()
        if hex_run is not None:
            try:  # hex pairs with optional spaces between pairs
                parts.append(bytes.fromhex(hex_run).hex())
            except ValueError as exc:
                raise PatternSyntaxError(f"bad hex run {hex_run.strip()!r}") from exc
        elif any_run is not None:
            parts.append("??" * (any_run.count("?") // 2))
        else:
            try:
                length = int(digits)
            except ValueError as exc:  # more digits than int() converts
                raise PatternSyntaxError(f"bad gap length {digits!r}") from exc
            if length < 1:
                raise PatternSyntaxError("gap length must be >= 1")
            if not parts:
                raise PatternSyntaxError("pattern must not start or end with a gap")
            if parts[-1][0] == "{":
                raise PatternSyntaxError("adjacent gaps")
            parts.append(f"{{{length}}}")
        pos = token.end()
    if not parts:
        raise PatternSyntaxError("empty pattern")
    if parts[-1][0] == "{":
        raise PatternSyntaxError("pattern must not start or end with a gap")
    return _parse_canonical("".join(parts))
