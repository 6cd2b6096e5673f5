"""Signature generation from compiler and library files.

Three producers, one per binary feature:

* relocation-masked hex patterns from the text sections of relocatable
  objects (and every object inside an ``ar`` archive),
* an MD5-of-``.text`` record for a shared library (stable under
  prelinking, which rewrites relocation data but not code),
* plain byte-string patterns from ``.comment`` vendor strings.

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
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby

from provsig import elf
from provsig.elf import ArchiveMember, ElfImage, RelocationEntry, Section

TARGET_TEXT = "text"
TARGET_COMMENT = "comment"
TARGET_DYNLIB = "dynlib"

KIND_HEX = "hex"
KIND_MD5 = "md5"

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


class _AnyByte:
    """Singleton marker for a one-byte wildcard (`??`)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "ANY"


ANY = _AnyByte()


@dataclass(frozen=True)
class Gap:
    """Exactly ``length`` arbitrary bytes between two pattern runs."""

    length: int


@dataclass(frozen=True)
class HexPattern:
    """A byte pattern: literal bytes (ints), ANY wildcards, and Gaps.

    Gaps never open or close a pattern and are never adjacent, so the
    span the pattern occupies in a buffer is fixed.
    """

    elements: tuple

    @property
    def literal_count(self) -> int:
        return sum(1 for e in self.elements if isinstance(e, int))

    @property
    def position_count(self) -> int:
        """Number of pattern positions: literals plus ?? wildcards (gaps excluded)."""
        return sum(1 for e in self.elements if not isinstance(e, Gap))

    @property
    def fixed_span(self) -> int:
        """Total bytes the pattern occupies in a buffer, gaps included."""
        return self._layout[1]

    def literal_runs(self) -> list[tuple[int, bytes]]:
        """Maximal runs of consecutive literals as (span offset, bytes)."""
        return list(self._layout[0])

    @cached_property
    def _layout(self) -> tuple[tuple[tuple[int, bytes], ...], int]:
        """Literal runs and fixed span, one step per run of same-type elements."""
        runs: list[tuple[int, bytes]] = []
        pos = 0
        for kind, group in groupby(self.elements, key=type):
            if kind is int:
                run = bytes(group)
                runs.append((pos, run))
                pos += len(run)
            elif kind is Gap:
                pos += sum(gap.length for gap in group)
            else:
                pos += sum(1 for _ in group)
        return tuple(runs), pos


@dataclass(frozen=True)
class MaskedText:
    """A text section with relocation-patched positions marked as masked."""

    data: bytes
    masked: frozenset[int]

    def __len__(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class Rejected:
    """An input that produced no signature, and why.

    :func:`build_pattern` leaves ``name`` empty; :func:`sign_object` and
    :func:`sign_archive` name the section or archive member.
    """

    reason: str  # TOO_SHORT | UNANCHORABLE | why a member was skipped
    name: str = ""


@dataclass(frozen=True)
class Signature:
    """One detection rule.

    ``kind == "hex"`` carries a pattern against .text or .comment bytes;
    ``kind == "md5"`` carries the digest and size of a library's .text.
    """

    name: str
    target: str  # TARGET_TEXT | TARGET_COMMENT | TARGET_DYNLIB
    kind: str    # KIND_HEX | KIND_MD5
    pattern: HexPattern | None = None
    digest: str | None = None
    text_size: int | None = None


def mask_text(section: Section, relocs: list[RelocationEntry]) -> MaskedText:
    """Mark every byte covered by a relocation as masked.

    Overlapping relocation ranges union; ranges are intersected with
    the section.
    """
    n = len(section.data)
    masked: set[int] = set()
    for reloc in relocs:
        lo = max(reloc.offset, 0)
        hi = min(reloc.offset + reloc.mask_len, n)
        if lo < hi:
            masked.update(range(lo, hi))
    return MaskedText(section.data, frozenset(masked))


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


def sign_object(image: ElfImage, origin_name: str) -> tuple[list[Signature], list[Rejected]]:
    """One text-target signature per usable text section of an object.

    Returns the signatures plus a rejection report for every section
    that was too short or unanchorable.
    """
    signatures: list[Signature] = []
    rejections: list[Rejected] = []
    for section in elf.list_text_sections(image):
        relocs = elf.parse_relocations(image, section.name)
        name = f"{origin_name}:{section.name}"
        result = build_pattern(mask_text(section, relocs))
        if isinstance(result, Rejected):
            rejections.append(Rejected(result.reason, name))
        else:
            signatures.append(Signature(name=name, target=TARGET_TEXT,
                                        kind=KIND_HEX, pattern=result))
    return signatures, rejections


def sign_archive(members: list[ArchiveMember], origin_name: str) -> tuple[list[Signature], list[Rejected]]:
    """sign_object over every archive member that is a relocatable ELF.

    Non-ELF members (linker scripts and the like) are skipped with a
    report, as are members that fail to parse.
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
        except (elf.MalformedElf, elf.UnsupportedElf) as exc:
            reports.append(Rejected(f"unparseable: {exc}", origin))
            continue
        if not image.is_relocatable:
            reports.append(Rejected("not a relocatable object", origin))
            continue
        sigs, rejects = sign_object(image, origin)
        signatures.extend(sigs)
        reports.extend(rejects)
    return signatures, reports


def unique_name(name: str, seen: dict[str, int]) -> str:
    """``name`` on its first use, then ``name#2``, ``name#3``, ...;
    ``seen`` counts the uses so far."""
    count = seen.get(name, 0) + 1
    seen[name] = count
    return name if count == 1 else f"{name}#{count}"


def sign_shared_lib(image: ElfImage, origin_name: str) -> Signature:
    """MD5 record over the .text bytes of a shared library.

    Depends only on the code bytes, so on-disk churn in relocation or
    dynamic-linking data (prelinking) does not change the signature.
    """
    text = elf.get_section(image, ".text")
    if text is None:
        raise NoTextSection(origin_name)
    return Signature(
        name=f"{origin_name}:.text",
        target=TARGET_DYNLIB,
        kind=KIND_MD5,
        digest=hashlib.md5(text.data).hexdigest(),
        text_size=len(text.data),
    )


def sign_comments(strings: list[str], origin_name: str) -> list[Signature]:
    """One literal pattern per distinct .comment string of 4+ bytes.

    Shorter strings would flood a scan with noise and are dropped.
    """
    signatures: list[Signature] = []
    seen: set[str] = set()
    index = 0
    for string in strings:
        if string in seen:
            continue
        seen.add(string)
        raw = string.encode("latin-1")
        if len(raw) < MIN_COMMENT_BYTES:
            continue
        signatures.append(Signature(
            name=f"{origin_name}:.comment.{index}",
            target=TARGET_COMMENT,
            kind=KIND_HEX,
            pattern=HexPattern(tuple(raw)),
        ))
        index += 1
    return signatures


def pattern_to_text(pattern: HexPattern, spaced: bool = False) -> str:
    """Render a pattern: lowercase hex pairs, ``??`` wildcards, ``{n}`` gaps."""
    tokens = []
    for element in pattern.elements:
        if isinstance(element, int):
            tokens.append(f"{element:02x}")
        elif element is ANY:
            tokens.append("??")
        else:
            tokens.append(f"{{{element.length}}}")
    return (" " if spaced else "").join(tokens)


_PATTERN_TOKEN = re.compile(
    r" *(?:(?P<hex>[0-9a-f][0-9a-f ]*)"
    r"|(?P<any>\?\?(?: *\?\?)*)"
    r"|\{(?P<gap>[0-9]+)\})")


def parse_pattern_text(text: str) -> HexPattern:
    """Inverse of :func:`pattern_to_text`; accepts optional spaces
    between tokens.

    Tokens are runs of hex pairs, runs of ``??`` and ``{n}`` gaps, with
    ASCII characters only: a gap length is ASCII digits.
    """
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
                elements.extend(bytes.fromhex(hex_run))
            except ValueError as exc:
                raise PatternSyntaxError(f"bad hex run {hex_run.strip()!r}") from exc
        elif any_run is not None:
            elements.extend((ANY,) * (any_run.count("?") // 2))
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
            elements.append(Gap(length))
        pos = token.end()
    if not elements:
        raise PatternSyntaxError("empty pattern")
    if isinstance(elements[-1], Gap):
        raise PatternSyntaxError("pattern must not start or end with a gap")
    return HexPattern(tuple(elements))
