"""ELF object and archive parsing.

Struct-based readers for the on-disk containers this toolkit consumes:
ELF executables, shared libraries and relocatable objects (sections,
``.comment`` strings, dynamic-linking records), plus System V / GNU
``ar`` archives.  A relocatable object's relocation tables are read in
one pass (:func:`parse_relocations`), each tied to the code section its
``sh_info`` names and reduced to the bytes the linker patches, which is
all that signing needs: per section, the relocation offsets in
ascending order and one mask length per offset.  A table that needs no
warning, no sort and no merge is read in a few C-level passes over its
records; any other is read entry by entry.  Names held in a
string table (``DT_NEEDED`` entries, version definitions) are read by
one rule, :func:`linked_strtab`: the section ``sh_link`` names if it is
``SHT_STRTAB``, otherwise ``.dynstr``.  Only
little-endian ELF32/ELF64 files are supported; everything is decoded
with :mod:`struct` or :class:`memoryview` casts, no external parser
libraries.
"""

from __future__ import annotations

import logging
import os
import struct
import sys
from bisect import bisect_right
from operator import itemgetter
from typing import NamedTuple

logger = logging.getLogger(__name__)

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


class MalformedElf(ValueError):
    """The input is not a well-formed ELF file."""


class UnsupportedElf(ValueError):
    """Structurally valid ELF that this parser does not handle (big-endian, unknown class)."""


class MalformedArchive(ValueError):
    """The input is not a well-formed ar archive."""


class Section(NamedTuple):
    """One section: name, raw contents and the header fields we keep."""

    name: str
    data: bytes
    sh_type: int = 0
    sh_link: int = 0
    sh_info: int = 0


class ElfImage(NamedTuple):
    """Parsed view of an ELF file.

    ``sections`` preserves file order (including the index-0 null
    section), so section-header link fields can be resolved by index.
    """

    elf_class: str  # "ELF32" | "ELF64"
    machine: int
    sections: tuple[Section, ...]
    dynamic_needed: tuple[str, ...]
    is_relocatable: bool


class ArchiveMember(NamedTuple):
    name: str
    data: bytes


# How many bytes a relocation of a given type patches, at most
# MAX_MASK_LEN.  Covers the common x86 / x86-64 static-relocation types;
# anything absent gets the largest mask (over-masking can only widen a
# wildcard, never let a stale address byte into a signature).
_MASK_X86_64 = {
    1: 8,   # 64-bit absolute
    2: 4,   # PC-relative 32
    3: 4, 4: 4, 9: 4, 10: 4, 11: 4,
    12: 2, 13: 2,
    14: 1, 15: 1,
    16: 8, 17: 8, 18: 8,
    19: 4, 20: 4, 21: 4, 22: 4, 23: 4,
    24: 8, 25: 8, 26: 4, 27: 8, 28: 8, 29: 8, 30: 8, 31: 8,
    32: 4, 33: 8, 34: 4,
    41: 4, 42: 4,
}
_MASK_386 = {
    1: 4, 2: 4, 3: 4, 4: 4, 9: 4, 10: 4,
    14: 4, 15: 4, 16: 4, 17: 4, 18: 4, 19: 4,
    20: 2, 21: 2,
    22: 1, 23: 1,
    24: 4, 25: 4, 26: 4, 27: 4, 28: 4, 29: 4,
    32: 4, 33: 4, 34: 4,
}
_MASK_TABLES = {EM_X86_64: _MASK_X86_64, EM_386: _MASK_386}
MAX_MASK_LEN = 8
# The same tables as one bytes.translate reads them: byte t is the mask
# length of type t, 0 for type NONE and for every type not named.
_TYPE_LENGTHS = {machine: bytes(masks.get(reloc_type, 0) for reloc_type in range(256))
                 for machine, masks in _MASK_TABLES.items()}
_NO_TYPE_LENGTHS = bytes(256)
_LITTLE_ENDIAN = sys.byteorder == "little"


def read_cstr(buf: bytes, offset: int) -> bytes:
    """The string at ``offset`` of ``buf`` up to its NUL, or to the end
    of ``buf`` if none follows."""
    end = buf.find(b"\x00", offset)
    if end == -1:
        end = len(buf)
    return buf[offset:end]


def parse_elf(data: bytes) -> ElfImage:
    """Parse an ELF file into an :class:`ElfImage`.

    Raises :class:`MalformedElf` on bad magic, truncated headers or
    out-of-range string-table references; :class:`UnsupportedElf` for
    big-endian files or an unknown ELF class.
    """
    if len(data) < 16 or data[:4] != ELF_MAGIC:
        raise MalformedElf("bad ELF magic")
    ei_class = data[4]
    ei_data = data[5]
    if ei_class not in (ELFCLASS32, ELFCLASS64):
        raise UnsupportedElf(f"unknown ELF class {ei_class}")
    if ei_data != ELFDATA2LSB:
        raise UnsupportedElf("big-endian ELF is not supported")
    is64 = ei_class == ELFCLASS64

    try:
        (e_type, e_machine, _e_version, _e_entry, _e_phoff, e_shoff,
         _e_flags, _e_ehsize, _e_phentsize, _e_phnum, e_shentsize,
         e_shnum, e_shstrndx) = struct.unpack_from(
            "<HHIQQQIHHHHHH" if is64 else "<HHIIIIIHHHHHH", data, 16)
    except struct.error as exc:
        raise MalformedElf("truncated ELF header") from exc

    native_shentsize = 64 if is64 else 40
    fmt = "<IIQQQQIIQQ" if is64 else "<IIIIIIIIII"
    if e_shoff and (e_shnum == 0 or e_shstrndx == SHN_XINDEX):
        # extended numbering: section 0's sh_size holds the section
        # count, its sh_link the name-table index
        if e_shentsize < native_shentsize or e_shoff + native_shentsize > len(data):
            raise MalformedElf("truncated section header 0")
        _, _, _, _, _, count, link, *_ = struct.unpack_from(fmt, data, e_shoff)
        e_shnum = e_shnum or count
        if e_shstrndx == SHN_XINDEX:
            e_shstrndx = link
    headers: list[tuple[int, int, int, int, int, int]] = []
    if e_shnum:
        if e_shoff == 0 or e_shentsize < native_shentsize:
            raise MalformedElf("invalid section header table geometry")
        if e_shoff + e_shnum * e_shentsize > len(data):
            raise MalformedElf("truncated section header table")
        for i in range(e_shnum):
            (sh_name, sh_type, _flags, _addr, sh_offset, sh_size,
             sh_link, sh_info, _align, _entsize) = struct.unpack_from(
                fmt, data, e_shoff + i * e_shentsize)
            headers.append((sh_name, sh_type, sh_offset, sh_size, sh_link, sh_info))

    names: list[str] = []
    if headers:
        if e_shstrndx >= len(headers):
            raise MalformedElf("section name string table index out of range")
        str_off, str_size = headers[e_shstrndx][2:4]
        if str_off + str_size > len(data):
            raise MalformedElf("section name string table out of bounds")
        shstrtab = data[str_off:str_off + str_size]
        for sh_name, *_ in headers:
            if sh_name > len(shstrtab):
                raise MalformedElf("section name offset out of range")
            names.append(read_cstr(shstrtab, sh_name).decode("latin-1"))

    sections: list[Section] = []
    for name, (_n, sh_type, sh_offset, sh_size, sh_link, sh_info) in zip(names, headers):
        # an SHT_NULL header has no section (section 0 may hold a count)
        if sh_type in (SHT_NULL, SHT_NOBITS) or sh_size == 0:
            body = b""
        else:
            if sh_offset + sh_size > len(data):
                raise MalformedElf(f"section {name!r} extends past end of file")
            body = data[sh_offset:sh_offset + sh_size]
        sections.append(Section(name=name, data=body, sh_type=sh_type,
                                sh_link=sh_link, sh_info=sh_info))

    needed = _parse_dynamic_needed(sections, is64)
    return ElfImage(
        elf_class="ELF64" if is64 else "ELF32",
        machine=e_machine,
        sections=tuple(sections),
        dynamic_needed=tuple(needed),
        is_relocatable=e_type == ET_REL,
    )


def _parse_dynamic_needed(sections: list[Section], is64: bool) -> list[str]:
    dyn = next((s for s in sections if s.sh_type == SHT_DYNAMIC), None)
    if dyn is None:
        return []
    strtab = linked_strtab(sections, dyn)
    needed = []
    entsize, fmt = (16, "<qQ") if is64 else (8, "<iI")
    for off in range(0, len(dyn.data) - entsize + 1, entsize):
        tag, val = struct.unpack_from(fmt, dyn.data, off)
        if tag == DT_NULL:
            break
        if tag == DT_NEEDED and strtab is not None and val < len(strtab):
            needed.append(os.fsdecode(read_cstr(strtab, val)))
    return needed


def linked_strtab(sections: list[Section] | tuple[Section, ...],
                  section: Section) -> bytes | None:
    """The string table ``section`` links to: the one its ``sh_link``
    names if that is ``SHT_STRTAB``, otherwise the first ``.dynstr``;
    None if neither exists."""
    link = section.sh_link
    if 0 < link < len(sections) and sections[link].sh_type == SHT_STRTAB:
        return sections[link].data
    fallback = next((s for s in sections if s.name == ".dynstr"), None)
    return None if fallback is None else fallback.data


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


def parse_relocations(image: ElfImage) -> dict[int, tuple[list[int], bytes]]:
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
    patch nothing and are dropped; unknown types get the largest mask
    with a logged warning; entries at or past the section end are
    dropped, and masks running past it are clamped, each with a logged
    warning.  Sections are read in file order, and each section's
    tables in file order, so the warnings come out in that order.

    A section's only table is read in C-level passes
    (:func:`_read_clean_table`) when they show it needs none of this.
    Every other table, and every table on a big-endian host, goes
    through one loop over its entries, the only code that words a
    relocation warning.
    """
    if not image.is_relocatable:
        raise ValueError("relocation parsing requires a relocatable object")
    sections = image.sections
    tables: dict[int, list[Section]] = {}
    for rsec in sections:
        if (rsec.sh_type in (SHT_REL, SHT_RELA) and rsec.sh_info < len(sections)
                and is_text_section(sections[rsec.sh_info])):
            tables.setdefault(rsec.sh_info, []).append(rsec)
    masks = _MASK_TABLES.get(image.machine, {})
    type_lengths = _TYPE_LENGTHS.get(image.machine, _NO_TYPE_LENGTHS)
    is64 = image.elf_class == "ELF64"
    if is64:
        formats, type_bits = {SHT_REL: "<QQ", SHT_RELA: "<QQ8x"}, 0xFFFFFFFF
    else:
        formats, type_bits = {SHT_REL: "<II", SHT_RELA: "<II4x"}, 0xFF

    relocs: dict[int, tuple[list[int], bytes]] = {}
    for index in sorted(tables):
        text_name = sections[index].name
        limit = len(sections[index].data)
        group = tables[index]
        if len(group) == 1 and _LITTLE_ENDIAN:
            clean = _read_clean_table(group[0].data, struct.calcsize(formats[group[0].sh_type]),
                                      is64, type_lengths, limit)
            if clean is not None:
                relocs[index] = clean
                continue
        pairs: list[tuple[int, int]] = []
        for rsec in group:
            fmt = formats[rsec.sh_type]
            if len(rsec.data) % struct.calcsize(fmt):
                raise MalformedElf(f"truncated relocation records in {rsec.name}")
            for r_offset, r_info in struct.iter_unpack(fmt, rsec.data):
                reloc_type = r_info & type_bits
                if reloc_type == 0:
                    continue
                mask_len = masks.get(reloc_type)
                if mask_len is None:
                    mask_len = MAX_MASK_LEN
                    logger.warning("unknown relocation type %d in %s; masking %d bytes",
                                   reloc_type, rsec.name, mask_len)
                if r_offset >= limit:
                    logger.warning("relocation at 0x%x lies beyond %s (%d bytes); dropped",
                                   r_offset, text_name, limit)
                    continue
                if r_offset + mask_len > limit:
                    mask_len = limit - r_offset
                    logger.warning("relocation mask at 0x%x clamped to section end of %s",
                                   r_offset, text_name)
                pairs.append((r_offset, mask_len))
        pairs.sort(key=itemgetter(0))
        relocs[index] = ([offset for offset, _ in pairs], bytes([length for _, length in pairs]))
    return relocs


def _read_clean_table(data: bytes, entsize: int, is64: bool, type_lengths: bytes,
                      limit: int) -> tuple[list[int], bytes] | None:
    """The ``(starts, lengths)`` of a relocation table of ``entsize``-byte
    records patching a ``limit``-byte section, read in C-level passes,
    or None if :func:`parse_relocations`' loop must read the table.

    ``starts`` is read through a strided view of the ``r_offset``
    fields, so the host must be little-endian.  ``lengths`` is the
    records' type bytes translated by ``type_lengths``.  The loop reads
    the table if it is cut short, if an entry has type NONE or a type
    the machine's mask table does not name (a 0 in ``lengths``, or for
    ELF64 a type above 255), if the offsets are out of order, or if a
    mask runs past the section end: only an entry that starts within
    :data:`MAX_MASK_LEN` bytes of the end can, so only those are added
    up.
    """
    if len(data) % entsize:
        return None
    lengths = data[8 if is64 else 4::entsize].translate(type_lengths)
    if 0 in lengths:
        return None
    # an ELF64 type field is 4 bytes wide: the 3 bytes not translated
    # must be 0
    if is64 and not (data[9::entsize] == data[10::entsize] == data[11::entsize]
                     == bytes(len(lengths))):
        return None
    words = memoryview(data).cast("Q" if is64 else "I")
    starts = words[::entsize // words.itemsize].tolist()
    if starts != sorted(starts):
        return None
    for k in range(bisect_right(starts, limit - MAX_MASK_LEN), len(starts)):
        if starts[k] + lengths[k] > limit:
            return None
    return starts, lengths


def parse_comment(image: ElfImage) -> list[str]:
    """NUL-separated strings of the ``.comment`` section, empties dropped,
    order and duplicates preserved.  A missing section yields []."""
    section = get_section(image, ".comment")
    if section is None or not section.data:
        return []
    parts = section.data.split(b"\x00")
    if parts[-1]:
        logger.warning(".comment is not NUL-terminated; keeping trailing fragment")
    return [p.decode("latin-1") for p in parts if p]


def parse_archive(data: bytes) -> list[ArchiveMember]:
    """Members of a System V / GNU ar archive.

    The ``/`` symbol index is skipped and GNU ``//`` long names are
    resolved.  BSD ``#1/`` names are rejected.  Member sizes and
    long-name offsets must be ASCII digits.
    """
    if not data.startswith(AR_MAGIC):
        raise MalformedArchive("bad archive magic")
    members: list[ArchiveMember] = []
    longnames: bytes | None = None
    pos = len(AR_MAGIC)
    while pos < len(data):
        if pos + 60 > len(data):
            raise MalformedArchive(f"truncated member header at offset {pos}")
        header = data[pos:pos + 60]
        if header[58:60] != b"`\n":
            raise MalformedArchive(f"bad member header magic at offset {pos}")
        raw_name = header[0:16].decode("latin-1").rstrip()
        size_field = header[48:58].strip()
        if not size_field.isdigit():  # bytes: ASCII digits only, so no sign or "_"
            raise MalformedArchive(f"member size {size_field!r} at offset {pos} "
                                   "is not a non-negative decimal number")
        size = int(size_field)
        body_start = pos + 60
        if body_start + size > len(data):
            raise MalformedArchive(f"truncated member data for {raw_name!r}")
        body = data[body_start:body_start + size]

        if raw_name.startswith("#1/"):
            raise MalformedArchive("BSD-style long names are not supported")
        if raw_name == "//":
            longnames = body
        elif raw_name in ("/", "/SYM64/", ""):
            pass  # symbol index
        elif raw_name.startswith("/"):
            ref = raw_name[1:]
            if not (ref.isascii() and ref.isdigit()):  # no sign, space or "_"
                raise MalformedArchive(f"bad long-name reference {raw_name!r}")
            name_off = int(ref)
            if longnames is None or name_off >= len(longnames):
                raise MalformedArchive(f"unresolvable long-name offset {name_off}")
            end = longnames.find(b"\n", name_off)
            if end == -1:
                end = len(longnames)
            resolved = longnames[name_off:end].decode("latin-1").rstrip("/")
            members.append(ArchiveMember(resolved, body))
        else:
            members.append(ArchiveMember(raw_name.rstrip("/"), body))

        pos = body_start + size
        if size % 2:
            pos += 1  # members are 2-byte aligned
    return members
