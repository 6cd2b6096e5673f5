"""Per-header reference for :func:`provsig.elf.read_elf`, over bytes.

The program reads the section-header table in one ``struct.iter_unpack``
pass, after cutting entries wider than the native size down to it, and
builds each :class:`~provsig.elf.Section` without a Python-level call.
The reference here is the earlier algorithm: one ``struct.unpack_from``
per header at ``e_shoff + i * e_shentsize``, one name read per header
and one keyword constructor call per section.  Both run their checks
in one order (table geometry, name-table index and bounds, every name
offset, the names' total against :data:`~provsig.elf.STRING_BUDGET`
times the input, then each body in section order, its bounds before
the running total of bodies against the input), so on any input they
return equal images or raise the same exception class with the same
message.  The reference reads a body as a slice of its input
(:func:`read_bytes`), the program from its file by
:func:`provsig.elf.read_body`.
"""

from __future__ import annotations

import struct

from provsig.elf import (
    ELF_MAGIC,
    ELFCLASS32,
    ELFCLASS64,
    ELFDATA2LSB,
    ET_REL,
    SHN_XINDEX,
    SHT_NOBITS,
    SHT_NULL,
    STRING_BUDGET,
    ElfImage,
    MalformedElf,
    NotElf,
    Section,
    UnsupportedElf,
)


def read_cstr(buf: bytes, offset: int) -> bytes:
    """The string at ``offset`` of ``buf`` up to its NUL, or to the end
    of ``buf`` if none follows."""
    end = buf.find(b"\x00", offset)
    if end == -1:
        end = len(buf)
    return buf[offset:end]


def parse_elf(data: bytes) -> ElfImage:
    """:func:`provsig.elf.read_elf` of a file that holds ``data``, one
    section header at a time."""
    if len(data) < 16 or data[:4] != ELF_MAGIC:
        raise (MalformedElf if data[:4] == ELF_MAGIC else NotElf)("bad ELF magic")
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
        lengths = sum(len(read_cstr(shstrtab, sh_name)) for sh_name, *_ in headers)
        if lengths > STRING_BUDGET * len(data):
            raise MalformedElf(f"section names total more than {STRING_BUDGET} times "
                               f"the input's {len(data)} bytes")
        for sh_name, *_ in headers:
            names.append(read_cstr(shstrtab, sh_name).decode("latin-1"))

    sections: list[Section] = []
    read = 0
    for name, (_n, sh_type, sh_offset, sh_size, sh_link, sh_info) in zip(names, headers):
        # an SHT_NULL header has no section (section 0 may hold a count)
        if sh_type in (SHT_NULL, SHT_NOBITS) or sh_size == 0:
            sh_size = 0
        else:
            if sh_offset + sh_size > len(data):
                raise MalformedElf(f"section {name!r} extends past end of file")
            read += sh_size
            if read > len(data):
                raise MalformedElf(f"section bodies through {name!r} total more than "
                                   f"the input's {len(data)} bytes")
        sections.append(Section(name=name, sh_type=sh_type, sh_link=sh_link,
                                sh_info=sh_info, offset=sh_offset, size=sh_size))

    return ElfImage(
        elf_class="ELF64" if is64 else "ELF32",
        machine=e_machine,
        sections=tuple(sections),
        is_relocatable=e_type == ET_REL,
    )


def read_bytes(data: bytes) -> tuple[ElfImage, list[bytes]]:
    """:func:`parse_elf`'s image of ``data`` and each section's body,
    sliced out of ``data``."""
    image = parse_elf(data)
    return image, [data[s.offset:s.offset + s.size] for s in image.sections]
