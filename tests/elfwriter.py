"""Synthetic ELF, ar-archive and symbol-versioning fixtures.

Hand-rolled little-endian writers used as the independent oracle for
parser tests.  Nothing here imports from provsig: the layouts are
written straight from the published format descriptions so that the
parser and the fixtures cannot share a bug.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

SHT_NULL = 0
SHT_PROGBITS = 1
SHT_SYMTAB = 2
SHT_STRTAB = 3
SHT_RELA = 4
SHT_DYNAMIC = 6
SHT_NOBITS = 8
SHT_REL = 9
SHT_GNU_VERDEF = 0x6FFFFFFD

SHN_XINDEX = 0xFFFF

SHF_WRITE = 0x1
SHF_ALLOC = 0x2
SHF_EXECINSTR = 0x4

ET_REL = 1
ET_EXEC = 2
ET_DYN = 3

EM_386 = 3
EM_X86_64 = 62

DT_NULL = 0
DT_NEEDED = 1
DT_SONAME = 14

R_X86_64_64 = 1
R_X86_64_PC32 = 2
R_X86_64_32 = 10
R_X86_64_16 = 12
R_X86_64_8 = 14
R_386_32 = 1
R_386_PC32 = 2

VER_FLG_BASE = 0x1


@dataclass
class Sec:
    """One section to be written.  ``link`` may be a section name."""

    name: str
    data: bytes = b""
    sh_type: int = SHT_PROGBITS
    flags: int = 0
    link: object = 0
    info: int = 0
    entsize: int = 0
    nobits_size: int = 0


@dataclass
class Layout:
    """A built file plus where everything landed, for surgical mutation."""

    data: bytes
    section_span: dict  # name -> (offset, size), first occurrence
    protected: list     # [(offset, size)] spans a parser needs intact


def build_elf(secs: list[Sec], *, bits: int = 64, e_type: int = ET_REL,
              machine: int = EM_X86_64, gap: int = 0, extended: bool = False,
              shentsize: int | None = None) -> bytes:
    return build_elf_layout(secs, bits=bits, e_type=e_type, machine=machine, gap=gap,
                            extended=extended, shentsize=shentsize).data


def build_elf_layout(secs: list[Sec], *, bits: int = 64, e_type: int = ET_REL,
                     machine: int = EM_X86_64, gap: int = 0,
                     extended: bool = False, shentsize: int | None = None) -> Layout:
    """``extended`` writes extended section numbering: e_shnum 0 and
    e_shstrndx SHN_XINDEX, with the section count in section 0's
    sh_size and the name-table index in its sh_link.  ``shentsize``
    widens every section header past its native size (64 or 40 bytes)
    with zero bytes."""
    is64 = bits == 64
    ehsize = 64 if is64 else 52
    shentsize = shentsize or (64 if is64 else 40)

    shstr = bytearray(b"\x00")
    name_off = {"": 0}
    for name in [s.name for s in secs] + [".shstrtab"]:
        if name not in name_off:
            name_off[name] = len(shstr)
            shstr += name.encode("latin-1") + b"\x00"

    offset = ehsize
    sec_offsets = []
    spans = {}
    for sec in secs:
        offset += gap
        sec_offsets.append(offset)
        size = 0 if sec.sh_type == SHT_NOBITS else len(sec.data)
        spans.setdefault(sec.name, (offset, size))
        offset += size
    shstr_off = offset
    offset += len(shstr)
    shoff = offset
    shnum = len(secs) + 2  # null + sections + .shstrtab

    def sec_index(ref) -> int:
        if isinstance(ref, int):
            return ref
        for i, sec in enumerate(secs):
            if sec.name == ref:
                return i + 1
        if ref == ".shstrtab":
            return shnum - 1
        raise KeyError(ref)

    if extended:
        e_shnum, e_shstrndx, size0, link0 = 0, SHN_XINDEX, shnum, shnum - 1
    else:
        e_shnum, e_shstrndx, size0, link0 = shnum, shnum - 1, 0, 0
    if is64:
        ehdr = struct.pack("<4sBBBBB7xHHIQQQIHHHHHH", b"\x7fELF", 2, 1, 1, 0, 0,
                           e_type, machine, 1, 0, 0, shoff, 0, ehsize, 0, 0,
                           shentsize, e_shnum, e_shstrndx)
    else:
        ehdr = struct.pack("<4sBBBBB7xHHIIIIIHHHHHH", b"\x7fELF", 1, 1, 1, 0, 0,
                           e_type, machine, 1, 0, 0, shoff, 0, ehsize, 0, 0,
                           shentsize, e_shnum, e_shstrndx)

    def pack_shdr(name, typ, flags, off, size, link, info, entsize):
        fmt = "<IIQQQQIIQQ" if is64 else "<IIIIIIIIII"
        return struct.pack(fmt, name, typ, flags, 0, off, size,
                           link, info, 1, entsize).ljust(shentsize, b"\x00")

    shdrs = bytearray(pack_shdr(0, SHT_NULL, 0, 0, size0, link0, 0, 0))
    for sec, soff in zip(secs, sec_offsets):
        size = sec.nobits_size if sec.sh_type == SHT_NOBITS else len(sec.data)
        link = sec_index(sec.link) if sec.link else 0
        shdrs += pack_shdr(name_off[sec.name], sec.sh_type, sec.flags, soff,
                           size, link, sec.info, sec.entsize)
    shdrs += pack_shdr(name_off[".shstrtab"], SHT_STRTAB, 0, shstr_off,
                       len(shstr), 0, 0, 0)

    blob = bytearray(shoff + shnum * shentsize)
    blob[0:ehsize] = ehdr
    for sec, soff in zip(secs, sec_offsets):
        if sec.sh_type != SHT_NOBITS:
            blob[soff:soff + len(sec.data)] = sec.data
    blob[shstr_off:shstr_off + len(shstr)] = shstr
    blob[shoff:shoff + len(shdrs)] = shdrs
    return Layout(
        data=bytes(blob),
        section_span=spans,
        protected=[(0, ehsize), (shstr_off, len(shstr)), (shoff, shnum * shentsize)],
    )


def _symbol_sections(symbols: list[str], bits: int) -> tuple[Sec, Sec, dict[str, int]]:
    strtab = bytearray(b"\x00")
    offsets = {}
    for name in symbols:
        offsets[name] = len(strtab)
        strtab += name.encode("latin-1") + b"\x00"
    if bits == 64:
        entries = bytearray(struct.pack("<IBBHQQ", 0, 0, 0, 0, 0, 0))
        for name in symbols:
            entries += struct.pack("<IBBHQQ", offsets[name], 0x10, 0, 0, 0, 0)
        entsize = 24
    else:
        entries = bytearray(struct.pack("<IIIBBH", 0, 0, 0, 0, 0, 0))
        for name in symbols:
            entries += struct.pack("<IIIBBH", offsets[name], 0, 0, 0x10, 0, 0)
        entsize = 16
    indexes = {name: i + 1 for i, name in enumerate(symbols)}
    symtab = Sec(".symtab", bytes(entries), sh_type=SHT_SYMTAB, link=".strtab",
                 info=1, entsize=entsize)
    return symtab, Sec(".strtab", bytes(strtab), sh_type=SHT_STRTAB), indexes


def build_object(texts, relocs=None, *, bits: int = 64, machine: int = EM_X86_64,
                 rela: bool = True, comment: bytes | None = None,
                 extra: list[Sec] | None = None) -> bytes:
    """A relocatable object with the given text sections and relocations.

    ``texts`` is bytes (one .text) or {section name: bytes}.  ``relocs``
    maps a text-section name to [(offset, type, symbol)] entries.
    """
    if isinstance(texts, (bytes, bytearray)):
        texts = {".text": bytes(texts)}
    relocs = relocs or {}

    symbol_names: list[str] = []
    for entries in relocs.values():
        for _, _, symbol in entries:
            if symbol and symbol not in symbol_names:
                symbol_names.append(symbol)
    symtab, strtab, sym_index = _symbol_sections(symbol_names, bits)

    secs = [Sec(name, data, flags=SHF_ALLOC | SHF_EXECINSTR)
            for name, data in texts.items()]
    for text_name, entries in relocs.items():
        body = bytearray()
        for offset, rtype, symbol in entries:
            sym = sym_index.get(symbol, 0)
            if bits == 64:
                if rela:
                    body += struct.pack("<QQq", offset, (sym << 32) | rtype, 0)
                else:
                    body += struct.pack("<QQ", offset, (sym << 32) | rtype)
            else:
                if rela:
                    body += struct.pack("<IIi", offset, (sym << 8) | rtype, 0)
                else:
                    body += struct.pack("<II", offset, (sym << 8) | rtype)
        if bits == 64:
            entsize = 24 if rela else 16
        else:
            entsize = 12 if rela else 8
        prefix = ".rela" if rela else ".rel"
        text_index = next(i + 1 for i, s in enumerate(secs) if s.name == text_name)
        secs.append(Sec(prefix + text_name, bytes(body),
                        sh_type=SHT_RELA if rela else SHT_REL,
                        link=".symtab", info=text_index, entsize=entsize))
    secs += [symtab, strtab]
    if comment is not None:
        secs.append(Sec(".comment", comment))
    secs += list(extra or [])
    return build_elf(secs, bits=bits, e_type=ET_REL, machine=machine)


def elf_hash(name: str) -> int:
    h = 0
    for ch in name.encode("latin-1"):
        h = (h << 4) + ch
        g = h & 0xF0000000
        if g:
            h ^= g >> 24
        h &= ~g & 0xFFFFFFFF
    return h


def build_verdef_body(names_with_flags, strtab_offsets) -> bytes:
    """Verdef records: (name, flags) list chained in order; every
    non-first record also carries its predecessor as a parent aux."""
    body = bytearray()
    previous = None
    for i, (name, flags) in enumerate(names_with_flags):
        aux_names = [name] if previous is None or flags & VER_FLG_BASE else [name, previous]
        cnt = len(aux_names)
        record_len = 20 + 8 * cnt
        nxt = record_len if i + 1 < len(names_with_flags) else 0
        body += struct.pack("<HHHHIII", 1, flags, i + 1, cnt, elf_hash(name), 20, nxt)
        for j, aux_name in enumerate(aux_names):
            aux_next = 8 if j + 1 < cnt else 0
            body += struct.pack("<II", strtab_offsets[aux_name], aux_next)
        if not flags & VER_FLG_BASE:
            previous = name
    return bytes(body)


def build_shared_lib(*, text: bytes = b"\x90" * 64, versions=None,
                     base_name: str = "libsynth.so.1", needed=(),
                     soname: str | None = None, comment: bytes | None = None,
                     extra: list[Sec] | None = None, bits: int = 64,
                     include_base: bool = True) -> bytes:
    return build_shared_lib_layout(text=text, versions=versions,
                                   base_name=base_name, needed=needed,
                                   soname=soname, comment=comment, extra=extra,
                                   bits=bits, include_base=include_base).data


def build_shared_lib_layout(*, text: bytes = b"\x90" * 64, versions=None,
                            base_name: str = "libsynth.so.1", needed=(),
                            soname: str | None = None,
                            comment: bytes | None = None,
                            extra: list[Sec] | None = None, bits: int = 64,
                            include_base: bool = True) -> Layout:
    """A shared library with optional verdef chain, DT_NEEDED entries,
    .comment and extra sections."""
    versions = list(versions or [])
    dynstr = bytearray(b"\x00")
    str_off: dict[str, int] = {}

    def intern(value: str) -> int:
        if value not in str_off:
            str_off[value] = len(dynstr)
            dynstr.extend(value.encode("latin-1") + b"\x00")
        return str_off[value]

    defs = []
    if versions and include_base:
        defs.append((base_name, VER_FLG_BASE))
    defs += [(v, 0) for v in versions]
    for name, _ in defs:
        intern(name)
    for lib in needed:
        intern(lib)
    if soname:
        intern(soname)

    secs = [Sec(".text", text, flags=SHF_ALLOC | SHF_EXECINSTR)]
    if comment is not None:
        secs.append(Sec(".comment", comment))
    secs.append(Sec(".dynstr", bytes(dynstr), sh_type=SHT_STRTAB, flags=SHF_ALLOC))
    if defs:
        secs.append(Sec(".gnu.version_d", build_verdef_body(defs, str_off),
                        sh_type=SHT_GNU_VERDEF, flags=SHF_ALLOC,
                        link=".dynstr", info=len(defs)))
    dyn = bytearray()
    fmt = "<qQ" if bits == 64 else "<iI"
    for lib in needed:
        dyn += struct.pack(fmt, DT_NEEDED, str_off[lib])
    if soname:
        dyn += struct.pack(fmt, DT_SONAME, str_off[soname])
    dyn += struct.pack(fmt, DT_NULL, 0)
    secs.append(Sec(".dynamic", bytes(dyn), sh_type=SHT_DYNAMIC, flags=SHF_ALLOC,
                    link=".dynstr", entsize=16 if bits == 64 else 8))
    secs += list(extra or [])
    return build_elf_layout(secs, bits=bits, e_type=ET_DYN)


def build_executable(texts, *, needed=(), comment: bytes | None = None,
                     with_symtab: bool = False,
                     extra: list[Sec] | None = None) -> bytes:
    """A linked binary whose text sections hold the given bytes."""
    if isinstance(texts, (bytes, bytearray)):
        texts = {".text": bytes(texts)}
    secs = [Sec(name, data, flags=SHF_ALLOC | SHF_EXECINSTR)
            for name, data in texts.items()]
    if comment is not None:
        secs.append(Sec(".comment", comment))
    if needed:
        dynstr = bytearray(b"\x00")
        offsets = {}
        for lib in needed:
            offsets[lib] = len(dynstr)
            dynstr += lib.encode("latin-1") + b"\x00"
        dyn = bytearray()
        for lib in needed:
            dyn += struct.pack("<qQ", DT_NEEDED, offsets[lib])
        dyn += struct.pack("<qQ", DT_NULL, 0)
        secs.append(Sec(".dynstr", bytes(dynstr), sh_type=SHT_STRTAB, flags=SHF_ALLOC))
        secs.append(Sec(".dynamic", bytes(dyn), sh_type=SHT_DYNAMIC, flags=SHF_ALLOC,
                        link=".dynstr", entsize=16))
    if with_symtab:
        symtab, strtab, _ = _symbol_sections(["main", "helper_fn"], 64)
        secs += [symtab, strtab]
    secs += list(extra or [])
    return build_elf(secs, e_type=ET_EXEC)


def _ar_header(name_field: str, size: int) -> bytes:
    """One 60-byte ar member header."""
    text = (name_field.ljust(16) + "0".ljust(12) + "0".ljust(6)
            + "0".ljust(6) + "100644".ljust(8) + str(size).ljust(10))
    return text.encode("ascii") + b"`\n"


def build_archive(members: list[tuple[str, bytes]]) -> bytes:
    """System V/GNU ar archive; long names go through a ``//`` table."""
    out = bytearray(b"!<arch>\n")
    longtab = bytearray()
    long_offsets = {}
    for name, _ in members:
        if len(name) + 1 > 16:
            long_offsets[name] = len(longtab)
            longtab += name.encode("latin-1") + b"/\n"

    if longtab:
        out += _ar_header("//", len(longtab)) + longtab
        if len(longtab) % 2:
            out += b"\n"
    for name, data in members:
        field = name + "/" if len(name) + 1 <= 16 else f"/{long_offsets[name]}"
        out += _ar_header(field, len(data)) + data
        if len(data) % 2:
            out += b"\n"
    return bytes(out)


# -- crafted files: each is small, but read naively it costs memory, time
# or output far beyond its size

def build_overlapping(body: bytes, count: int, e_type: int) -> bytes:
    """A file whose ``count`` ``.text`` headers all name one ``body``: it
    holds the body once, and its sections, read one by one, hold it
    ``count`` times (no byte of a well-formed file lies in two sections)."""
    layout = build_elf_layout([Sec(".text", body, flags=SHF_ALLOC | SHF_EXECINSTR)]
                              + [Sec(".text")] * (count - 1), e_type=e_type)
    offset, size = layout.section_span[".text"]
    blob = bytearray(layout.data)
    shoff, = struct.unpack_from("<Q", blob, 0x28)
    for index in range(2, count + 1):  # sh_offset and sh_size of each empty .text
        struct.pack_into("<QQ", blob, shoff + index * 64 + 24, offset, size)
    return bytes(blob)


def build_shared_name(name_len: int, count: int, e_type: int) -> bytes:
    """A file whose ``count`` empty sections all name one ``name_len``-byte
    name, held once: read one per header, the names take ``count`` times it."""
    return build_elf([Sec("n" * name_len)] * count, e_type=e_type)


def build_shared_needed(name_len: int, count: int) -> bytes:
    """An executable whose ``count`` ``DT_NEEDED`` entries all name one
    ``name_len``-byte library name, held once in ``.dynstr``."""
    dyn = struct.pack("<qQ", DT_NEEDED, 1) * count + struct.pack("<qQ", DT_NULL, 0)
    return build_executable(b"\x90" * 16, extra=[
        Sec(".dynstr", b"\x00" + b"l" * name_len + b"\x00", sh_type=SHT_STRTAB,
            flags=SHF_ALLOC),
        Sec(".dynamic", dyn, sh_type=SHT_DYNAMIC, flags=SHF_ALLOC, link=".dynstr",
            entsize=16)])


def build_shared_long_name(name_len: int, count: int) -> bytes:
    """An archive whose ``count`` empty members all name one
    ``name_len``-byte long name, held once in a ``//`` table with no
    newline: read one per member, the names take ``count`` times it."""
    table = b"n" * name_len
    return (b"!<arch>\n" + _ar_header("//", len(table)) + table + b"\n" * (name_len % 2)
            + _ar_header("/0", 0) * count)
