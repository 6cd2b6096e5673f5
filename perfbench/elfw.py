"""Minimal little-endian ELF and ``ar`` writers for the benchmark corpus.

Written from the ELF and System V/GNU archive format descriptions, with
no import from ``provsig``, so the corpus bytes do not depend on the
code under measurement.
"""

from __future__ import annotations

import struct

SHT_PROGBITS = 1
SHT_SYMTAB = 2
SHT_STRTAB = 3
SHT_RELA = 4
SHT_DYNAMIC = 6
SHT_REL = 9
SHT_GNU_VERDEF = 0x6FFFFFFD

SHF_ALLOC = 0x2
SHF_EXECINSTR = 0x4
SHF_MERGE_STRINGS = 0x30

ET_REL = 1
ET_EXEC = 2
ET_DYN = 3

EM_386 = 3
EM_X86_64 = 62

R_X86_64_PLT32 = 4
R_386_PC32 = 2

_TEXT_FLAGS = SHF_ALLOC | SHF_EXECINSTR


class _Strtab:
    def __init__(self) -> None:
        self.blob = bytearray(b"\0")
        self.offsets: dict[str, int] = {"": 0}

    def add(self, name: str) -> int:
        if name not in self.offsets:
            self.offsets[name] = len(self.blob)
            self.blob += name.encode("latin-1") + b"\0"
        return self.offsets[name]


def _write(sections: list[tuple], *, bits: int, e_type: int, machine: int) -> bytes:
    """sections: (name, data, sh_type, flags, link_name, info, entsize)."""
    shstr = _Strtab()
    names = [s[0] for s in sections] + [".shstrtab"]
    index = {name: i + 1 for i, name in enumerate(names)}
    ehsize, shentsize = (64, 64) if bits == 64 else (52, 40)
    for name in names:
        shstr.add(name)
    body = bytearray()
    headers = [(0, 0, 0, 0, 0, 0, 0, 0)]
    for name, data, sh_type, flags, link, info, entsize in (
            list(sections) + [(".shstrtab", bytes(shstr.blob), SHT_STRTAB, 0, None, 0, 0)]):
        body += bytes(-(ehsize + len(body)) % 8)
        offset = ehsize + len(body)
        body += data
        headers.append((shstr.offsets[name], sh_type, flags, offset, len(data),
                        index[link] if link else 0, info, entsize))
    body += bytes(-(ehsize + len(body)) % 8)
    shoff = ehsize + len(body)
    ident = b"\x7fELF" + bytes([2 if bits == 64 else 1, 1, 1]) + bytes(9)
    if bits == 64:
        header = ident + struct.pack("<HHIQQQIHHHHHH", e_type, machine, 1, 0, 0, shoff,
                                     0, ehsize, 0, 0, shentsize, len(headers),
                                     len(headers) - 1)
        fmt = "<IIQQQQIIQQ"
    else:
        header = ident + struct.pack("<HHIIIIIHHHHHH", e_type, machine, 1, 0, 0, shoff,
                                     0, ehsize, 0, 0, shentsize, len(headers),
                                     len(headers) - 1)
        fmt = "<IIIIIIIIII"
    table = b"".join(struct.pack(fmt, name, sh_type, flags, 0, off, size, link, info,
                                 1 if sh_type != SHT_PROGBITS else 16, entsize)
                     for name, sh_type, flags, off, size, link, info, entsize in headers)
    return header + bytes(body) + table


def executable(text: bytes, comment: bytes, needed: list[str]) -> bytes:
    """A stripped ELF64 executable: .text, .comment and DT_NEEDED entries."""
    sections = [(".text", text, SHT_PROGBITS, _TEXT_FLAGS, None, 0, 0)]
    if comment:
        sections.append((".comment", comment, SHT_PROGBITS, SHF_MERGE_STRINGS, None, 0, 1))
    if needed:
        dynstr = _Strtab()
        dynamic = b"".join(struct.pack("<qQ", 1, dynstr.add(soname)) for soname in needed)
        dynamic += struct.pack("<qQ", 0, 0)
        sections.append((".dynstr", bytes(dynstr.blob), SHT_STRTAB, SHF_ALLOC, None, 0, 0))
        sections.append((".dynamic", dynamic, SHT_DYNAMIC, SHF_ALLOC, ".dynstr", 0, 16))
    return _write(sections, bits=64, e_type=ET_EXEC, machine=EM_X86_64)


def shared_lib(text: bytes, soname: str, version_defs: list[str]) -> bytes:
    """An ELF64 shared library; ``version_defs`` become .gnu.version_d
    entries after the base definition named ``soname``."""
    sections = [(".text", text, SHT_PROGBITS, _TEXT_FLAGS, None, 0, 0)]
    if version_defs:
        dynstr = _Strtab()
        names = [soname] + version_defs
        verdef = bytearray()
        for i, name in enumerate(names):
            last = i == len(names) - 1
            verdef += struct.pack("<HHHHIII", 1, 1 if i == 0 else 0, i + 1, 1, 0,
                                  20, 0 if last else 28)
            verdef += struct.pack("<II", dynstr.add(name), 0)
        sections.append((".dynstr", bytes(dynstr.blob), SHT_STRTAB, SHF_ALLOC, None, 0, 0))
        sections.append((".gnu.version_d", bytes(verdef), SHT_GNU_VERDEF, SHF_ALLOC,
                         ".dynstr", len(names), 0))
    return _write(sections, bits=64, e_type=ET_DYN, machine=EM_X86_64)


def relocatable(text_sections: list[tuple[str, bytes, list[int]]], *, bits: int = 64) -> bytes:
    """A relocatable object.  Each text section is (name, bytes, rel32
    call-site offsets); every site gets a PC-relative relocation against
    its own undefined symbol (.rela on ELF64, .rel on ELF32)."""
    strtab = _Strtab()
    symbols: list[int] = []
    relocs: list[tuple] = []
    for name, _data, sites in text_sections:
        entries = bytearray()
        for site in sites:
            symbols.append(strtab.add(f"callee_{len(symbols)}"))
            sym = len(symbols)  # index 0 is the null symbol
            if bits == 64:
                entries += struct.pack("<QQq", site, (sym << 32) | R_X86_64_PLT32, -4)
            else:
                entries += struct.pack("<II", site, (sym << 8) | R_386_PC32)
        relocs.append((name, bytes(entries)))
    if bits == 64:
        symtab = bytes(24) + b"".join(struct.pack("<IBBHQQ", off, 0x10, 0, 0, 0, 0)
                                      for off in symbols)
    else:
        symtab = bytes(16) + b"".join(struct.pack("<IIIBBH", off, 0, 0, 0x10, 0, 0)
                                      for off in symbols)
    sections = [(name, data, SHT_PROGBITS, _TEXT_FLAGS, None, 0, 0)
                for name, data, _ in text_sections]
    for i, (name, entries) in enumerate(relocs):
        if bits == 64:
            sections.append((".rela" + name, entries, SHT_RELA, 0, ".symtab", i + 1, 24))
        else:
            sections.append((".rel" + name, entries, SHT_REL, 0, ".symtab", i + 1, 8))
    sections.append((".symtab", symtab, SHT_SYMTAB, 0, ".strtab", 1, 24 if bits == 64 else 16))
    sections.append((".strtab", bytes(strtab.blob), SHT_STRTAB, 0, None, 0, 0))
    machine = EM_X86_64 if bits == 64 else EM_386
    return _write(sections, bits=bits, e_type=ET_REL, machine=machine)


def archive(members: list[tuple[str, bytes]]) -> bytes:
    """A GNU ar archive with a symbol index and a ``//`` long-name table."""
    def header(name: str, size: int) -> bytes:
        return (f"{name:<16}{0:<12}{0:<6}{0:<6}{644:<8}{size:<10}".encode("ascii")
                + b"`\n")

    def member(name: str, data: bytes) -> bytes:
        return header(name, len(data)) + data + (b"\n" if len(data) % 2 else b"")

    longnames = bytearray()
    entries = []
    for name, data in members:
        if len(name) > 15:
            ref = f"/{len(longnames)}"
            longnames += name.encode("latin-1") + b"/\n"
        else:
            ref = name + "/"
        entries.append((ref, data))
    out = bytearray(b"!<arch>\n")
    out += member("/", struct.pack(">I", 0))  # empty symbol index
    if longnames:
        out += member("//", bytes(longnames))
    for ref, data in entries:
        out += member(ref, data)
    return bytes(out)
