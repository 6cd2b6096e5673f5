"""ELF object and archive parsing.

Struct-based readers for the on-disk containers this toolkit consumes:
ELF executables, shared libraries and relocatable objects (sections,
relocation tables, ``.comment`` strings, dynamic-linking records), plus
System V / GNU ``ar`` archives.  Only little-endian ELF32/ELF64 files
are supported; everything is decoded with :mod:`struct`, no external
parser libraries.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass

logger = logging.getLogger(__name__)

ELF_MAGIC = b"\x7fELF"
AR_MAGIC = b"!<arch>\n"

ELFCLASS32 = 1
ELFCLASS64 = 2
ELFDATA2LSB = 1

ET_REL = 1

SHT_SYMTAB = 2
SHT_STRTAB = 3
SHT_RELA = 4
SHT_DYNAMIC = 6
SHT_NOBITS = 8
SHT_REL = 9
SHT_GNU_VERDEF = 0x6FFFFFFD

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


@dataclass(frozen=True)
class Section:
    """One section: name, raw contents and the header fields we keep."""

    name: str
    data: bytes
    file_offset: int
    flags: int
    sh_type: int = 0
    sh_link: int = 0
    sh_info: int = 0
    sh_entsize: int = 0


@dataclass(frozen=True)
class ElfImage:
    """Parsed view of an ELF file.

    ``sections`` preserves file order (including the index-0 null
    section), so section-header link fields can be resolved by index.
    """

    elf_class: str  # "ELF32" | "ELF64"
    machine: int
    sections: tuple[Section, ...]
    dynamic_needed: tuple[str, ...]
    is_relocatable: bool


@dataclass(frozen=True)
class RelocationEntry:
    """A relocation against a text section, reduced to what signing needs.

    ``mask_len`` is how many bytes at ``offset`` hold a link-time-patched
    address.  Entries whose mask ran past the section end are truncated
    and flagged ``clamped``.
    """

    section_name: str
    offset: int
    reloc_type: int
    symbol_name: str
    mask_len: int
    clamped: bool = False


@dataclass(frozen=True)
class ArchiveMember:
    name: str
    data: bytes


# How many bytes a relocation of a given type patches.  Covers the
# common x86 / x86-64 static-relocation types; anything absent is
# masked with the conservative 8-byte default (over-masking can only
# widen a wildcard, never let a stale address byte into a signature).
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
_UNKNOWN_MASK_LEN = 8


def _read_cstr(buf: bytes, offset: int) -> str:
    end = buf.find(b"\x00", offset)
    if end == -1:
        end = len(buf)
    return buf[offset:end].decode("latin-1")


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
    headers: list[tuple[int, int, int, int, int, int, int, int]] = []
    if e_shnum:
        if e_shoff == 0 or e_shentsize < native_shentsize:
            raise MalformedElf("invalid section header table geometry")
        if e_shoff + e_shnum * e_shentsize > len(data):
            raise MalformedElf("truncated section header table")
        fmt = "<IIQQQQIIQQ" if is64 else "<IIIIIIIIII"
        for i in range(e_shnum):
            (sh_name, sh_type, sh_flags, _sh_addr, sh_offset, sh_size,
             sh_link, sh_info, _sh_align, sh_entsize) = struct.unpack_from(
                fmt, data, e_shoff + i * e_shentsize)
            headers.append((sh_name, sh_type, sh_flags, sh_offset, sh_size,
                            sh_link, sh_info, sh_entsize))

    names: list[str] = []
    if headers:
        if e_shstrndx >= len(headers):
            raise MalformedElf("section name string table index out of range")
        str_off, str_size = headers[e_shstrndx][3], headers[e_shstrndx][4]
        if str_off + str_size > len(data):
            raise MalformedElf("section name string table out of bounds")
        shstrtab = data[str_off:str_off + str_size]
        for sh_name, *_ in headers:
            if sh_name > len(shstrtab):
                raise MalformedElf("section name offset out of range")
            names.append(_read_cstr(shstrtab, sh_name))

    sections: list[Section] = []
    for name, (_n, sh_type, sh_flags, sh_offset, sh_size, sh_link,
               sh_info, sh_entsize) in zip(names, headers):
        if sh_type == SHT_NOBITS or sh_size == 0:
            body = b""
        else:
            if sh_offset + sh_size > len(data):
                raise MalformedElf(f"section {name!r} extends past end of file")
            body = data[sh_offset:sh_offset + sh_size]
        sections.append(Section(name=name, data=body, file_offset=sh_offset,
                                flags=sh_flags, sh_type=sh_type, sh_link=sh_link,
                                sh_info=sh_info, sh_entsize=sh_entsize))

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
    strtab = None
    if 0 < dyn.sh_link < len(sections) and sections[dyn.sh_link].sh_type == SHT_STRTAB:
        strtab = sections[dyn.sh_link].data
    else:
        fallback = next((s for s in sections if s.name == ".dynstr"), None)
        if fallback is not None:
            strtab = fallback.data
    needed = []
    entsize, fmt = (16, "<qQ") if is64 else (8, "<iI")
    for off in range(0, len(dyn.data) - entsize + 1, entsize):
        tag, val = struct.unpack_from(fmt, dyn.data, off)
        if tag == DT_NULL:
            break
        if tag == DT_NEEDED and strtab is not None and val < len(strtab):
            needed.append(_read_cstr(strtab, val))
    return needed


def get_section(image: ElfImage, name: str) -> Section | None:
    """First section with exactly this name, or None."""
    for section in image.sections:
        if section.name == name:
            return section
    return None


def list_text_sections(image: ElfImage) -> list[Section]:
    """All code sections, in file order: ``.text`` itself plus the
    per-function ``.text.<fn>`` sections emitted by -ffunction-sections."""
    return [s for s in image.sections
            if s.name == ".text" or s.name.startswith(".text.")]


def parse_relocations(image: ElfImage, text_name: str) -> list[RelocationEntry]:
    """Relocation entries patching the named text section, sorted by offset.

    Reads both ``.rel<name>`` and ``.rela<name>``.  Type-0 (none)
    entries patch nothing and are dropped; unknown types get the
    conservative 8-byte mask with a logged warning; masks running past
    the section end are clamped and flagged.
    """
    if not image.is_relocatable:
        raise ValueError("relocation parsing requires a relocatable object")
    target = get_section(image, text_name)
    if target is None:
        return []
    limit = len(target.data)
    table = _MASK_TABLES.get(image.machine, {})
    is64 = image.elf_class == "ELF64"

    entries: list[RelocationEntry] = []
    for rsec in image.sections:
        if rsec.name == ".rela" + text_name:
            with_addend = rsec.sh_type != SHT_REL
        elif rsec.name == ".rel" + text_name:
            with_addend = rsec.sh_type == SHT_RELA
        else:
            continue
        if is64:
            entsize, fmt = (24, "<QQq") if with_addend else (16, "<QQ")
        else:
            entsize, fmt = (12, "<IIi") if with_addend else (8, "<II")
        if len(rsec.data) % entsize:
            raise MalformedElf(f"truncated relocation records in {rsec.name}")
        symtab = _locate_symtab(image, rsec)
        for off in range(0, len(rsec.data), entsize):
            fields = struct.unpack_from(fmt, rsec.data, off)
            r_offset, r_info = fields[0], fields[1]
            if is64:
                sym_index, reloc_type = r_info >> 32, r_info & 0xFFFFFFFF
            else:
                sym_index, reloc_type = r_info >> 8, r_info & 0xFF
            if reloc_type == 0:
                continue
            mask_len = table.get(reloc_type)
            if mask_len is None:
                mask_len = _UNKNOWN_MASK_LEN
                logger.warning("unknown relocation type %d in %s; masking %d bytes",
                               reloc_type, rsec.name, mask_len)
            if r_offset >= limit:
                logger.warning("relocation at 0x%x lies beyond %s (%d bytes); dropped",
                               r_offset, text_name, limit)
                continue
            clamped = False
            if r_offset + mask_len > limit:
                mask_len = limit - r_offset
                clamped = True
                logger.warning("relocation mask at 0x%x clamped to section end of %s",
                               r_offset, text_name)
            entries.append(RelocationEntry(
                section_name=text_name,
                offset=r_offset,
                reloc_type=reloc_type,
                symbol_name=_symbol_name(image, symtab, sym_index),
                mask_len=mask_len,
                clamped=clamped,
            ))
    entries.sort(key=lambda e: e.offset)
    return entries


def _locate_symtab(image: ElfImage, reloc_section: Section) -> Section | None:
    link = reloc_section.sh_link
    if 0 < link < len(image.sections) and image.sections[link].sh_type == SHT_SYMTAB:
        return image.sections[link]
    return next((s for s in image.sections if s.sh_type == SHT_SYMTAB), None)


def _symbol_name(image: ElfImage, symtab: Section | None, index: int) -> str:
    if symtab is None or index == 0:
        return ""
    entsize = 24 if image.elf_class == "ELF64" else 16
    off = index * entsize
    if off + entsize > len(symtab.data):
        return ""
    st_name = struct.unpack_from("<I", symtab.data, off)[0]  # st_name leads both layouts
    link = symtab.sh_link
    if not (0 < link < len(image.sections)):
        return ""
    strtab = image.sections[link].data
    if st_name >= len(strtab):
        return ""
    return _read_cstr(strtab, st_name)


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
