"""Signature generation from compiler and library files.

Three producers, one per binary feature:

* relocation-masked hex patterns from the text sections of relocatable
  objects (and every object inside an ``ar`` archive),
* an MD5-of-``.text`` record for a shared library (stable under
  prelinking, which rewrites relocation data but not code),
* plain byte-string patterns from ``.comment`` vendor strings.

Each becomes a :class:`provsig.sigdb.Signature`, whose target says
which of these it carries; the records, their ``.sig`` text and the
anchor rule are :mod:`provsig.sigdb`'s, and this module only fills them.

A text-section pattern keeps between 16 and 255 pattern positions.
Sections shorter than 16 bytes are rejected: x86 instructions are 1-16
bytes and we never decode instruction boundaries, so anything shorter
is too ambiguous.  Sections of 256 bytes or more are cut down to three
85-byte samples, the trailing 85 bytes of each third of the section,
joined by exact-length gaps so the overall layout is preserved.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, NamedTuple

from provsig import elf
from provsig.elf import ArchiveMember, ElfImage
from provsig.sigdb import (TARGET_COMMENT, TARGET_DYNLIB, TARGET_TEXT, HexPattern, Signature,
                           has_anchor, text_md5_key)

TOO_SHORT = "too-short"
UNANCHORABLE = "unanchorable"
NO_TEXT = "no .text section"

MIN_PATTERN_POSITIONS = 16
MAX_PATTERN_POSITIONS = 255
SEGMENT_LEN = MAX_PATTERN_POSITIONS // 3  # 85
MIN_COMMENT_BYTES = 4


class Rejected(NamedTuple):
    """An input that produced no signature, and why.

    :func:`build_pattern` and :func:`sign_shared_lib` leave ``name``
    empty; :func:`sign_object` and :func:`sign_archive` name the section
    or archive member.
    """

    reason: str  # TOO_SHORT | UNANCHORABLE | NO_TEXT | why a member was skipped
    name: str = ""


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
    are rejected as too short; patterns without an anchor
    (:func:`provsig.sigdb.has_anchor`) are rejected as unanchorable.
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
    if not has_anchor(literals):
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


def sign_shared_lib(image: ElfImage, origin_name: str) -> Signature | Rejected:
    """MD5 record of a shared library: its :func:`~provsig.sigdb.text_md5_key`,
    or a :data:`NO_TEXT` rejection when it has no .text section."""
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
