"""ELF object and archive parsing.

Struct-based readers for the on-disk containers this toolkit consumes:
ELF executables, shared libraries and relocatable objects (sections,
``.comment`` strings, dynamic-linking records), plus System V / GNU
``ar`` archives.  Every input file is opened by :func:`open_file`,
without blocking and as a regular file only.  An ELF file is read from
its open file by :func:`read_elf`, with ``pread``: its headers, its
name table once (the names and that section's body are one read) and,
unless the caller asks for none, each other section body once, so the
file is never in memory whole beside its sections; :func:`parse_elf`
makes the same walk over bytes already in memory (an archive member).
``sigscan`` asks for no body: every header is still checked, and each
:class:`Section` keeps its body's file offset and size, so
:func:`read_body` reads a body, or a window of one, only when it is
used: :mod:`provsig.cli` says which bodies those are, and a code
section is read :data:`WINDOW` bytes (plus the scan's overlap) at a
time.  ``siggen`` reads every body.  The walk reads sections and nothing else: no section body
is decoded, ``.dynamic`` included.  The walk holds what it reads to the
size of its input: the bodies it reads, or leaves to be read, may total
no more than the input holds, since no byte of a well-formed file lies
in two sections, and the section names, one per header, no more than
:data:`STRING_BUDGET` times that size.  An archive is read from its
open file by :func:`read_archive`: one walk over its headers with
``pread``, then each member's body only when it is reached, so the
archive is never in memory whole; its long names, like the section
names, are read once per distinct offset and within the same budget.
The section-header table is read in one pass, one
``struct.iter_unpack`` over its bytes (entries wider than the native
size are cut down to it first), and each :class:`Section` is built
without a Python-level constructor call.  A relocatable object's
relocation tables are read in one pass (:func:`parse_relocations`),
each tied to the code section its ``sh_info`` names and reduced to the
bytes the linker patches, which is all that signing needs: per section,
the relocation offsets in ascending order and one mask length per
offset.  Every table is read in a few C-level passes on any host; only
a table that needs a warning is then read entry by entry, and the
warning is appended to a list the caller passes.  The string table
of ``DT_NEEDED`` entries and version definitions is found by one rule,
:func:`linked_strtab`: the section ``sh_link`` names if it is
``SHT_STRTAB``, otherwise ``.dynstr``.  Every name, section names
included, is read from its table by :func:`read_strings`: each offset
once, the terminators in one forward pass, and nothing past a budget,
so a table that many references share or that holds no terminator
costs time and memory linear in the input.  Only little-endian
ELF32/ELF64 files are supported; everything is decoded with
:mod:`struct` or :class:`memoryview` casts, no external parser
libraries.
"""

from __future__ import annotations

import os
import stat
import struct
import sys
from bisect import bisect_right
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Iterator, NamedTuple

ELF_MAGIC = b"\x7fELF"
AR_MAGIC = b"!<arch>\n"

ELFCLASS32 = 1
ELFCLASS64 = 2
ELFDATA2LSB = 1

ET_REL = 1

SHT_NULL = 0
SHT_STRTAB = 3
SHT_RELA = 4
SHT_DYNAMIC = 6
SHT_NOBITS = 8
SHT_REL = 9

SHN_XINDEX = 0xFFFF

DT_NULL = 0
DT_NEEDED = 1

EM_386 = 3
EM_X86_64 = 62

# Strings read from a string table, one per reference to them (a section
# header, a DT_NEEDED entry, a version definition), may total at most
# this many times the bytes that bound them: the input for section
# names, their string table for the others.  Over 11,087 ELF inputs of
# an x86-64 Debian host the largest ratios are 0.33 (section names),
# 0.22 (DT_NEEDED) and 0.60 (version names).
STRING_BUDGET = 2

# A body read in windows (a code section that sigscan scans, a library's
# .text that it hashes) is read this many bytes at a time, and a scan
# window this many plus its engine's overlap.  Windows of 64 KB, 256 KB
# and 1 MB give the same peak RSS on the benchmark's cold start; the
# larger the window, the fewer overlap bytes are scanned twice.
WINDOW = 1 << 20


class MalformedElf(ValueError):
    """The input is not a well-formed ELF file."""


class UnsupportedElf(ValueError):
    """Structurally valid ELF that this parser does not handle (big-endian, unknown class)."""


class MalformedArchive(ValueError):
    """The input is not a well-formed ar archive."""


class Section(NamedTuple):
    """One section: name, raw contents and the header fields we keep.

    ``data`` is None for a body the walk did not read (:func:`read_elf`
    with ``bodies=False``); :func:`read_body` reads it from ``offset``,
    its ``size`` bytes.  A section without a body (``SHT_NULL``,
    ``SHT_NOBITS`` or size 0) has ``data`` ``b""`` and ``size`` 0.
    """

    name: str
    data: bytes | None
    sh_type: int = 0
    sh_link: int = 0
    sh_info: int = 0
    offset: int = 0
    size: int = 0


class ElfImage(NamedTuple):
    """Parsed view of an ELF file.

    ``sections`` preserves file order (including the index-0 null
    section), so section-header link fields can be resolved by index.
    """

    elf_class: str  # "ELF32" | "ELF64"
    machine: int
    sections: tuple[Section, ...]
    is_relocatable: bool


class ArchiveMember(NamedTuple):
    name: str
    data: bytes


# How many bytes a relocation of a given type patches (a TLS descriptor
# call marker: its 2-byte ``ff 10`` call), at most MAX_MASK_LEN.  A type
# absent gets the largest mask: over-masking can only widen a wildcard,
# never let a stale address byte into a signature.
_MASK_X86_64 = {
    1: 8,   # 64-bit absolute
    2: 4,   # PC-relative 32
    3: 4, 4: 4, 9: 4, 10: 4, 11: 4,
    12: 2, 13: 2,
    14: 1, 15: 1,
    16: 8, 17: 8, 18: 8,
    19: 4, 20: 4, 21: 4, 22: 4, 23: 4,
    24: 8, 25: 8, 26: 4, 27: 8, 28: 8, 29: 8, 30: 8, 31: 8,
    32: 4, 33: 8, 34: 4, 35: 2,
    41: 4, 42: 4,
}
_MASK_386 = {
    1: 4, 2: 4, 3: 4, 4: 4, 9: 4, 10: 4, 11: 4,
    14: 4, 15: 4, 16: 4, 17: 4, 18: 4, 19: 4,
    20: 2, 21: 2,
    22: 1, 23: 1,
    24: 4, 25: 4, 26: 4, 27: 4, 28: 4, 29: 4,
    32: 4, 33: 4, 34: 4, 38: 4, 39: 4, 40: 2,
    43: 4,
}
_MASK_TABLES = {EM_X86_64: _MASK_X86_64, EM_386: _MASK_386}
MAX_MASK_LEN = 8
# The same tables as one bytes.translate reads them: byte t is the mask
# length of type t, 0 for type NONE and for every type not named.
_TYPE_LENGTHS = {machine: bytes(masks.get(reloc_type, 0) for reloc_type in range(256))
                 for machine, masks in _MASK_TABLES.items()}
_NO_TYPE_LENGTHS = bytes(256)


def open_file(path) -> BinaryIO:
    """The regular file at ``path``, open for reading: every input file
    of ``sigscan`` and ``siggen`` is opened here.

    The file is opened without blocking, and a FIFO or a device is
    refused with an OSError naming the path before a byte is read, so no
    input can hang the run or feed it without end.  A directory fails as
    ``open`` fails it.  The path is named as :class:`~pathlib.Path`
    prints it.  It is read whole (:func:`read_file`) or by offset
    (:func:`read_elf`, :func:`read_archive`).
    """
    path = Path(path)
    file = open(path, "rb", opener=lambda name, flags: os.open(name, flags | os.O_NONBLOCK))
    try:
        if not stat.S_ISREG(os.fstat(file.fileno()).st_mode):
            raise OSError(f"not a regular file: {str(path)!r}")
    except BaseException:
        file.close()
        raise
    return file


def read_file(path) -> bytes:
    """The bytes of the regular file at ``path``, opened by
    :func:`open_file`."""
    with open_file(path) as file:
        return file.read()


def read_strings(table: bytes, offsets, budget: int, terminator: str = "\0"
                 ) -> list[str] | None:
    """The string of ``table`` at each of ``offsets``, up to its
    ``terminator`` (a NUL unless given) or the table's end, decoded as
    latin-1 (one character per byte); None if those strings, counted
    once per offset given, total more than ``budget`` bytes.

    Every offset must be at most ``len(table)``.  The offsets are taken
    in ascending order, so the terminators are found in one forward pass
    over the table, and the strings of one offset are one object.  The
    total is checked before each string is taken: time and memory stay
    linear in the table, the offsets and the budget, however many
    offsets share a string or lie inside one.
    """
    text = table.decode("latin-1")
    find = text.find
    strings: dict[int, str] = {}
    end = -1
    spent = 0
    for offset in sorted(offsets):
        if offset > end:  # past the terminator found last: find the next one
            end = find(terminator, offset)
            if end == -1:
                end = len(text)
        spent += end - offset
        if spent > budget:
            return None
        strings[offset] = text[offset:end]
    return list(map(strings.__getitem__, offsets))


def parse_elf(data: bytes) -> ElfImage:
    """Parse the ELF file held in ``data`` into an :class:`ElfImage`.

    Raises :class:`MalformedElf` on bad magic, truncated headers or
    out-of-range string-table references; :class:`UnsupportedElf` for
    big-endian files or an unknown ELF class, and
    :class:`MalformedElf` when the section names, one per header, total
    more than :data:`STRING_BUDGET` times the input or the bodies read
    more than the input.  The section checks run in one order: table
    geometry, name-table index and bounds, every name offset, the names'
    total, then each body in section order, its bounds before the
    running total of bodies.  Each section's body is a copy of its
    bytes in ``data``.
    """
    return _parse_elf(lambda offset, length: data[offset:offset + length], len(data), True)


def read_elf(file: BinaryIO, bodies: bool = True) -> ElfImage:
    """Parse the ELF file open as ``file`` (by :func:`open_file`), as
    :func:`parse_elf` parses its bytes, reading with :func:`os.pread`:
    the header, the section-header table, the name table and, if
    ``bodies``, each other section body once each, so only the sections
    are ever in memory, never the file whole.

    Without ``bodies``, no body but the name table's is read: every
    check still runs on every header, the running total of bodies
    included, so a file fails with the line the full read fails with,
    and each body is read later, if at all, by :func:`read_body`.

    The file is sized once, by ``fstat``.  A read that comes back short
    (the file shrank after that) raises the :class:`MalformedElf` that
    the bounds check of that read raises.
    """
    fd = file.fileno()
    return _parse_elf(lambda offset, length: os.pread(fd, length, offset),
                      os.fstat(fd).st_size, bodies)


def read_body(file: BinaryIO | None, section: Section, start: int = 0,
              length: int | None = None) -> bytes:
    """``length`` bytes of ``section``'s body from ``start`` (all of them
    from there by default): out of the body the walk read, or, if it
    was left unread, read from ``file`` with :func:`os.pread`.

    ``start`` and ``length`` must lie inside the body.  A read that
    comes back short (the file shrank after the walk) raises the
    :class:`MalformedElf` the walk raises for a body past the end of
    the file.
    """
    if length is None:
        length = section.size - start
    if section.data is not None:
        return section.data[start:start + length]
    data = os.pread(file.fileno(), length, section.offset + start)
    if len(data) != length:
        raise MalformedElf(f"section {section.name!r} extends past end of file")
    return data


def _parse_elf(read_at, size: int, bodies: bool) -> ElfImage:
    """The one walk of :func:`parse_elf` and :func:`read_elf` over an
    ELF file of ``size`` bytes, whose ``length`` bytes at ``offset``
    ``read_at(offset, length)`` returns (fewer where the file ends).
    Each read is made only once the bounds check before it passes, and
    a read that comes back short fails that check's message.  The name
    table is read once: its section's body is the bytes its names were
    read from.  Without ``bodies``, no other body is read."""
    # the ELF64 header is 64 bytes and the ELF32 one 52; a shorter
    # file reads short, and the checks below see only what it holds
    header = read_at(0, 64)
    if len(header) < 16 or header[:4] != ELF_MAGIC:
        raise MalformedElf("bad ELF magic")
    ei_class = header[4]
    ei_data = header[5]
    if ei_class not in (ELFCLASS32, ELFCLASS64):
        raise UnsupportedElf(f"unknown ELF class {ei_class}")
    if ei_data != ELFDATA2LSB:
        raise UnsupportedElf("big-endian ELF is not supported")
    is64 = ei_class == ELFCLASS64

    try:
        (e_type, e_machine, _e_version, _e_entry, _e_phoff, e_shoff,
         _e_flags, _e_ehsize, _e_phentsize, _e_phnum, e_shentsize,
         e_shnum, e_shstrndx) = struct.unpack_from(
            "<HHIQQQIHHHHHH" if is64 else "<HHIIIIIHHHHHH", header, 16)
    except struct.error as exc:
        raise MalformedElf("truncated ELF header") from exc

    native_shentsize = 64 if is64 else 40
    # sh_name, sh_type, sh_offset, sh_size, sh_link, sh_info; the other
    # four fields are skipped as padding
    fmt = "<II16xQQII16x" if is64 else "<II8xIIII8x"
    if e_shoff and (e_shnum == 0 or e_shstrndx == SHN_XINDEX):
        # extended numbering: section 0's sh_size holds the section
        # count, its sh_link the name-table index
        if (e_shentsize < native_shentsize or e_shoff + native_shentsize > size
                or len(zero := read_at(e_shoff, native_shentsize)) != native_shentsize):
            raise MalformedElf("truncated section header 0")
        _, _, _, count, link, _ = struct.unpack(fmt, zero)
        e_shnum = e_shnum or count
        if e_shstrndx == SHN_XINDEX:
            e_shstrndx = link
    if not e_shnum:
        return ElfImage("ELF64" if is64 else "ELF32", e_machine, (), e_type == ET_REL)
    if e_shoff == 0 or e_shentsize < native_shentsize:
        raise MalformedElf("invalid section header table geometry")
    table_size = e_shnum * e_shentsize
    if (e_shoff + table_size > size
            or len(table := read_at(e_shoff, table_size)) != table_size):
        raise MalformedElf("truncated section header table")
    if e_shentsize > native_shentsize:  # keep each entry's native fields
        table = b"".join(table[at:at + native_shentsize]
                         for at in range(0, len(table), e_shentsize))
    headers = list(struct.iter_unpack(fmt, table))

    if e_shstrndx >= len(headers):
        raise MalformedElf("section name string table index out of range")
    _, _, str_off, str_size, _, _ = headers[e_shstrndx]
    if str_off + str_size > size or len(strtab := read_at(str_off, str_size)) != str_size:
        raise MalformedElf("section name string table out of bounds")
    name_offsets = [header[0] for header in headers]
    if max(name_offsets) > str_size:
        raise MalformedElf("section name offset out of range")
    names = read_strings(strtab, name_offsets, STRING_BUDGET * size)
    if names is None:
        raise MalformedElf(f"section names total more than {STRING_BUDGET} times "
                           f"the input's {size} bytes")

    # built as Section._make builds them, without a Python-level call
    new = tuple.__new__
    sections: list[Section] = []
    spent = 0  # the body bytes read, or left unread, so far
    for index, (name, (_n, sh_type, sh_offset, sh_size, sh_link, sh_info)) in enumerate(
            zip(names, headers)):
        # an SHT_NULL header has no section (section 0 may hold a count)
        if sh_type in (SHT_NULL, SHT_NOBITS) or sh_size == 0:
            body, sh_size = b"", 0
        elif sh_offset + sh_size > size:
            raise MalformedElf(f"section {name!r} extends past end of file")
        elif (spent := spent + sh_size) > size:
            raise MalformedElf(f"section bodies through {name!r} total more than "
                               f"the input's {size} bytes")
        elif index == e_shstrndx:
            body = strtab
        elif not bodies:
            body = None
        elif len(body := read_at(sh_offset, sh_size)) != sh_size:
            raise MalformedElf(f"section {name!r} extends past end of file")
        sections.append(new(Section, (name, body, sh_type, sh_link, sh_info,
                                      sh_offset, sh_size)))
    return ElfImage("ELF64" if is64 else "ELF32", e_machine, tuple(sections), e_type == ET_REL)


def dynamic_needed(image: ElfImage, file: BinaryIO | None = None) -> list[str]:
    """The ``DT_NEEDED`` names of the first ``SHT_DYNAMIC`` section of
    ``image``, in entry order; [] without one.  A body the walk left
    unread is read from ``file`` (:func:`read_body`): the section's and
    its string table's, and no other.

    The entries are read up to ``DT_NULL``, and one whose name offset
    lies outside the string table (:func:`linked_strtab`) is skipped.
    The names are read by :func:`read_strings` and decoded as file
    names (:func:`os.fsdecode`); names that total more than
    :data:`STRING_BUDGET` times their table raise :class:`MalformedElf`.
    """
    dyn = next((s for s in image.sections if s.sh_type == SHT_DYNAMIC), None)
    strtab = None if dyn is None else linked_strtab(image.sections, dyn, file)
    if strtab is None:
        return []
    data = read_body(file, dyn)
    entsize, fmt = (16, "<qQ") if image.elf_class == "ELF64" else (8, "<iI")
    offsets = []
    for off in range(0, len(data) - entsize + 1, entsize):
        tag, val = struct.unpack_from(fmt, data, off)
        if tag == DT_NULL:
            break
        if tag == DT_NEEDED and val < len(strtab):
            offsets.append(val)
    names = read_strings(strtab, offsets, STRING_BUDGET * len(strtab))
    if names is None:
        raise MalformedElf(f"DT_NEEDED names total more than {STRING_BUDGET} times "
                           f"their {len(strtab)}-byte string table")
    # latin-1 gives back each name's bytes, read again as a file name,
    # each distinct name once
    decoded = {name: os.fsdecode(name.encode("latin-1")) for name in set(names)}
    return list(map(decoded.__getitem__, names))


def linked_strtab(sections: list[Section] | tuple[Section, ...], section: Section,
                  file: BinaryIO | None = None) -> bytes | None:
    """The string table ``section`` links to: the one its ``sh_link``
    names if that is ``SHT_STRTAB``, otherwise the first ``.dynstr``;
    None if neither exists.  A body the walk left unread is read from
    ``file`` (:func:`read_body`)."""
    link = section.sh_link
    if 0 < link < len(sections) and sections[link].sh_type == SHT_STRTAB:
        return read_body(file, sections[link])
    fallback = next((s for s in sections if s.name == ".dynstr"), None)
    return None if fallback is None else read_body(file, fallback)


def get_section(image: ElfImage, name: str) -> Section | None:
    """First section with exactly this name, or None."""
    for section in image.sections:
        if section.name == name:
            return section
    return None


def is_text_section(section: Section) -> bool:
    """A code section: ``.text`` itself or one of the per-function
    ``.text.<fn>`` sections emitted by -ffunction-sections."""
    return section.name == ".text" or section.name.startswith(".text.")


def list_text_sections(image: ElfImage) -> list[Section]:
    """All code sections (:func:`is_text_section`), in file order."""
    return [s for s in image.sections if is_text_section(s)]


def parse_relocations(image: ElfImage, warnings: list[str]) -> dict[int, tuple[list[int], bytes]]:
    """The link-time-patched byte ranges of every code section, from one
    pass over the object's relocation tables.

    This is the one relocation contract of the package: per code-section
    index, ``(starts, lengths)``.  ``starts`` is a list of the
    relocation offsets in ascending order, ties in table order;
    ``lengths`` is a :class:`bytes` whose byte ``k`` is the mask length
    for ``starts[k]``, 1 to :data:`MAX_MASK_LEN`.  Every mask lies
    inside the section (``starts[k] + lengths[k] <= len(section.data)``).
    :func:`provsig.siggen.build_pattern` bisects ``starts`` and relies
    on all of this.

    A ``SHT_REL`` or ``SHT_RELA`` table patches the section its
    ``sh_info`` names; a table whose ``sh_info`` is out of range or
    names a section that is not code (:func:`is_text_section`) is not
    read.  All tables of one section are merged.  Type-0 (none) entries
    patch nothing and are dropped; unknown types get the largest mask;
    entries at or past the section end are dropped, and masks running
    past it are clamped; each rule applied appends a message to
    ``warnings``.  Sections are read in file order, and each section's
    tables in file order, so the messages come in that order, those of
    earlier tables included when a later one raises :class:`MalformedElf`.

    Every table is read in C-level passes on any host
    (:func:`_read_table`); only a table with an entry that needs one of
    these rules then goes through the loop that applies them.
    """
    if not image.is_relocatable:
        raise ValueError("relocation parsing requires a relocatable object")
    sections = image.sections
    tables: dict[int, list[Section]] = {}
    for rsec in sections:
        if (rsec.sh_type in (SHT_REL, SHT_RELA) and rsec.sh_info < len(sections)
                and is_text_section(sections[rsec.sh_info])):
            tables.setdefault(rsec.sh_info, []).append(rsec)
    type_lengths = _TYPE_LENGTHS.get(image.machine, _NO_TYPE_LENGTHS)
    word = 8 if image.elf_class == "ELF64" else 4

    relocs: dict[int, tuple[list[int], bytes]] = {}
    for index in sorted(tables):
        text, group = sections[index], tables[index]
        if len(group) == 1:
            relocs[index] = _read_table(group[0], text, word, type_lengths, warnings)
        else:
            parts = [_read_table(table, text, word, type_lengths, warnings) for table in group]
            relocs[index] = _by_start([start for starts, _ in parts for start in starts],
                                      b"".join(lengths for _, lengths in parts))
    return relocs


def _read_table(table: Section, text: Section, word: int, type_lengths: bytes,
                warnings: list[str]) -> tuple[list[int], bytes]:
    """One relocation table's ``(starts, lengths)`` for the code section
    ``text``, as :func:`parse_relocations` returns them.

    A record is ``r_offset``, ``r_info`` (and ``r_addend``), each
    ``word`` bytes; the type is the first byte (ELF32) or 4 bytes
    (ELF64) of ``r_info``.  The rules loop reads the table if an entry
    has type NONE or a type the mask table does not name (a 0 in
    ``lengths``, or for ELF64 a type above 255), or a mask running past
    the section end, which only an entry in its last
    :data:`MAX_MASK_LEN` bytes can have.
    """
    entsize = word * (3 if table.sh_type == SHT_RELA else 2)
    data = table.data
    if len(data) % entsize:
        raise MalformedElf(f"truncated relocation records in {table.name}")
    lengths = data[word::entsize].translate(type_lengths)
    native = data if sys.byteorder == "little" else _swap_words(data, word)
    starts = memoryview(native).cast("Q" if word == 8 else "I")[::entsize // word].tolist()
    limit = len(text.data)
    # the 3 bytes of an ELF64 type that are not translated must be 0
    if 0 not in lengths and (word == 4 or data[9::entsize] == data[10::entsize]
                             == data[11::entsize] == bytes(len(lengths))):
        ordered, ordered_lengths = ((starts, lengths) if starts == sorted(starts)
                                    else _by_start(starts, lengths))
        for k in range(bisect_right(ordered, limit - MAX_MASK_LEN), len(ordered)):
            if ordered[k] + ordered_lengths[k] > limit:
                break
        else:
            return ordered, ordered_lengths
    # the rules in table order: the only code that words a warning
    width = 4 if word == 8 else 1
    kept_starts: list[int] = []
    kept_lengths = bytearray()
    for at, offset, mask_len in zip(range(word, len(data), entsize), starts, lengths):
        reloc_type = int.from_bytes(data[at:at + width], "little")
        if reloc_type == 0:
            continue
        if mask_len == 0 or reloc_type > 0xFF:
            mask_len = MAX_MASK_LEN
            warnings.append(f"unknown relocation type {reloc_type} in {table.name}; "
                            f"masking {mask_len} bytes")
        if offset >= limit:
            warnings.append(f"relocation at 0x{offset:x} lies beyond {text.name} "
                            f"({limit} bytes); dropped")
            continue
        if offset + mask_len > limit:
            mask_len = limit - offset
            warnings.append(f"relocation mask at 0x{offset:x} clamped to section end "
                            f"of {text.name}")
        kept_starts.append(offset)
        kept_lengths.append(mask_len)
    return _by_start(kept_starts, bytes(kept_lengths))


def _by_start(starts: list[int], lengths: bytes) -> tuple[list[int], bytes]:
    """``starts`` sorted and ``lengths`` permuted with it, ties kept."""
    order = sorted(range(len(starts)), key=starts.__getitem__)
    return sorted(starts), bytes(map(lengths.__getitem__, order))


def _swap_words(data: bytes, size: int) -> bytearray:
    """``data`` with each ``size``-byte word's bytes in reverse order."""
    swapped = bytearray(len(data))
    for k in range(size):
        swapped[k::size] = data[size - 1 - k::size]
    return swapped


def parse_comment(image: ElfImage, warnings: list[str]) -> list[str]:
    """NUL-separated strings of the ``.comment`` section, empties dropped,
    order and duplicates preserved, an unterminated tail kept with a
    message appended to ``warnings``.  A missing section yields []."""
    section = get_section(image, ".comment")
    if section is None or not section.data:
        return []
    parts = section.data.split(b"\x00")
    if parts[-1]:
        warnings.append(".comment is not NUL-terminated; keeping trailing fragment")
    return [p.decode("latin-1") for p in parts if p]


def read_archive(file: BinaryIO) -> Iterator[ArchiveMember]:
    """Members of the System V / GNU ar archive open as ``file``, in
    archive order, read with :func:`os.pread`: the whole archive is
    never in memory, only the member being read.

    The ``/`` symbol index is skipped and GNU ``//`` long names are
    resolved, each distinct offset once; names that total more than
    :data:`STRING_BUDGET` times the archive are refused.  BSD ``#1/``
    names are rejected.  Member sizes and
    long-name offsets must be ASCII digits.  The magic, every member
    header and the ``//`` table are read and checked before this
    returns; each member's body is read when the iterator reaches it,
    and one that the file cuts short (it shrank after its size was
    taken) raises ``truncated member data`` as a body past the end
    does.
    """
    fd = file.fileno()
    entries = _archive_entries(fd, os.fstat(fd).st_size)
    return (ArchiveMember(name, _read_body(fd, raw_name, start, length))
            for name, raw_name, start, length in entries)


def _read_body(fd: int, raw_name: str, start: int, length: int) -> bytes:
    """The ``length`` bytes of member ``raw_name`` at ``start``, all of them."""
    body = os.pread(fd, length, start)
    if len(body) != length:
        raise MalformedArchive(f"truncated member data for {raw_name!r}")
    return body


def _archive_entries(fd: int, size: int) -> list[tuple[str, str, int, int]]:
    """``(name, raw name, body offset, body size)`` of every member of
    the archive of ``size`` bytes open as ``fd``, from one walk over its
    headers: the checks of :func:`read_archive`, in archive order.

    Long names are taken once the walk ends, by :func:`read_strings`
    (each up to its newline): one object per distinct offset, one
    forward pass over the ``//`` table, and no more than
    :data:`STRING_BUDGET` times the archive's size in all, past which
    :class:`MalformedArchive` is raised.
    """
    if os.pread(fd, len(AR_MAGIC), 0) != AR_MAGIC:
        raise MalformedArchive("bad archive magic")
    entries: list[tuple[str, str, int, int]] = []
    longnames: bytes | None = None
    # (the // table, offset into it, entry index) of each long name, in
    # archive order: a later // table serves only the members after it
    refs: list[tuple[bytes, int, int]] = []
    pos = len(AR_MAGIC)
    while pos < size:
        header = os.pread(fd, 60, pos) if pos + 60 <= size else b""
        if len(header) != 60:
            raise MalformedArchive(f"truncated member header at offset {pos}")
        if header[58:60] != b"`\n":
            raise MalformedArchive(f"bad member header magic at offset {pos}")
        raw_name = header[0:16].decode("latin-1").rstrip()
        size_field = header[48:58].strip()
        if not size_field.isdigit():  # bytes: ASCII digits only, so no sign or "_"
            raise MalformedArchive(f"member size {size_field!r} at offset {pos} "
                                   "is not a non-negative decimal number")
        length = int(size_field)
        body_start = pos + 60
        if body_start + length > size:
            raise MalformedArchive(f"truncated member data for {raw_name!r}")

        if raw_name.startswith("#1/"):
            raise MalformedArchive("BSD-style long names are not supported")
        if raw_name == "//":
            longnames = _read_body(fd, raw_name, body_start, length)
        elif raw_name in ("/", "/SYM64/", ""):
            pass  # symbol index
        elif raw_name.startswith("/"):
            ref = raw_name[1:]
            if not (ref.isascii() and ref.isdigit()):  # no sign, space or "_"
                raise MalformedArchive(f"bad long-name reference {raw_name!r}")
            name_off = int(ref)
            if longnames is None or name_off >= len(longnames):
                raise MalformedArchive(f"unresolvable long-name offset {name_off}")
            refs.append((longnames, name_off, len(entries)))
            entries.append(("", raw_name, body_start, length))
        else:
            entries.append((raw_name.rstrip("/"), raw_name, body_start, length))

        pos = body_start + length
        if length % 2:
            pos += 1  # members are 2-byte aligned
    budget = STRING_BUDGET * size
    for table, group in groupby(refs, key=itemgetter(0)):
        group = list(group)
        names = read_strings(table, [name_off for _, name_off, _ in group], budget, "\n")
        if names is None:
            raise MalformedArchive(f"long names total more than {STRING_BUDGET} times "
                                   f"the archive's {size} bytes")
        budget -= sum(map(len, names))
        stripped = {name: name.rstrip("/") for name in set(names)}  # once per distinct name
        for (_, _, index), name in zip(group, names):
            entries[index] = (stripped[name],) + entries[index][1:]
    return entries
