"""elf module: parsing of ELF files, relocations, comments and archives."""

from __future__ import annotations

import os
import re
import shutil
import string
import struct
import subprocess
import time
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from provsig import elf, sigdb, siggen, symver
from provsig.elf import (
    MalformedArchive,
    MalformedElf,
    UnsupportedElf,
    get_section,
    linked_strtab,
    list_text_sections,
    parse_comment,
    parse_relocations,
)

import elf_reference
import reloc_reference
from elfbytes import body, bytes_file, opened, read_bytes, read_image, read_with
from elfwriter import (
    EM_386,
    EM_X86_64,
    ET_DYN,
    ET_EXEC,
    ET_REL,
    R_386_32,
    R_386_PC32,
    R_X86_64_64,
    R_X86_64_PC32,
    SHT_NOBITS,
    SHT_NULL,
    SHT_PROGBITS,
    SHT_REL,
    SHT_RELA,
    SHT_DYNAMIC,
    SHT_STRTAB,
    Sec,
    build_archive,
    build_elf,
    build_executable,
    build_object,
    build_overlapping,
    build_shared_lib,
    build_shared_long_name,
    build_shared_name,
    build_shared_needed,
)
from mutation import ar_fields, elf_fields, mutate, parse_within_a_second

# 24-byte function body: prologue, a call whose 4 operand bytes the
# linker patches (offset 0xe), epilogue.
CALL_STUB_TEXT = bytes.fromhex(
    "554889e54883ec10bf0a000000e800000000488945f8c9c3")
CALL_STUB_RELOC_OFFSET = 0x0E


def _named_bodies(data: bytes) -> list[tuple[str, bytes]]:
    """Each section's name and body, read from a file that holds ``data``."""
    image, bodies = read_bytes(data)
    return [(section.name, contents) for section, contents in zip(image.sections, bodies)]


def test_magic_accepted_and_rejected():
    image = read_image(build_elf([Sec(".text", b"\x90" * 4)]))
    assert image.elf_class == "ELF64"
    with pytest.raises(elf.NotElf):
        read_image(b"\x4d\x5a" + b"\x00" * 62)
    with pytest.raises(elf.NotElf):
        read_image(b"")
    with pytest.raises(MalformedElf, match="bad ELF magic") as raised:
        read_image(elf.ELF_MAGIC + b"\x02\x01")
    assert not isinstance(raised.value, elf.NotElf)


def test_big_endian_and_unknown_class_rejected():
    data = bytearray(build_elf([Sec(".text", b"\x90" * 4)]))
    data[5] = 2  # big-endian
    with pytest.raises(UnsupportedElf):
        read_image(bytes(data))
    data[5] = 1
    data[4] = 9  # nonsense class
    with pytest.raises(UnsupportedElf):
        read_image(bytes(data))


def test_zero_sections():
    header = struct.pack("<4sBBBBB7xHHIQQQIHHHHHH", b"\x7fELF", 2, 1, 1, 0, 0,
                         1, 62, 1, 0, 0, 0, 0, 64, 0, 0, 64, 0, 0)
    image = read_image(header)
    assert image.sections == ()


def test_truncated_section_table():
    data = build_elf([Sec(".text", b"\x90" * 4)])
    with pytest.raises(MalformedElf):
        read_image(data[:-10])


# -- extended section numbering ----------------------------------------------------
# From 65,280 sections on, e_shnum is 0 and e_shstrndx is SHN_XINDEX; the
# count sits in section 0's sh_size and the name-table index in its sh_link.

def _section_zero_fields(data, bits: int) -> dict[str, tuple[int, int]]:
    """Where section 0's sh_size and sh_link lie, as (offset, width)."""
    if bits == 64:
        shoff, = struct.unpack_from("<Q", data, 0x28)
        return {"sh_size": (shoff + 32, 8), "sh_link": (shoff + 40, 4)}
    shoff, = struct.unpack_from("<I", data, 0x20)
    return {"sh_size": (shoff + 20, 4), "sh_link": (shoff + 24, 4)}


def _with_field(data: bytes, spot: tuple[int, int], value: int) -> bytes:
    offset, width = spot
    return data[:offset] + value.to_bytes(width, "little") + data[offset + width:]


@pytest.mark.parametrize("bits", [64, 32])
def test_extended_section_numbering_read_from_section_zero(bits):
    secs = [Sec(".text", CALL_STUB_TEXT), Sec(".comment", b"GCC: x\x00"),
            Sec(".text.f", b"\x90" * 24)]
    blob = build_elf(secs, bits=bits, extended=True)
    assert _named_bodies(blob) == _named_bodies(build_elf(secs, bits=bits))
    assert [s.name for s in list_text_sections(read_image(blob))] == [".text", ".text.f"]
    assert read_with(blob, parse_comment, []) == ["GCC: x"]


@pytest.mark.parametrize("bits", [64, 32])
def test_extended_section_count_past_the_file_raises_at_once(bits):
    data = build_elf([Sec(".text", b"\x90" * 4)], bits=bits, extended=True)
    huge = _with_field(data, _section_zero_fields(data, bits)["sh_size"], (1 << bits) - 1)
    start = time.perf_counter()
    with pytest.raises(MalformedElf, match="truncated section header table"):
        read_image(huge)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("bits", [64, 32])
def test_extended_name_table_index_out_of_range(bits):
    data = build_elf([Sec(".text", b"\x90" * 4)], bits=bits, extended=True)
    bad = _with_field(data, _section_zero_fields(data, bits)["sh_link"], 3)
    with pytest.raises(MalformedElf, match="string table index out of range"):
        read_image(bad)


@pytest.mark.parametrize("shoff_back", [10, 1])
def test_extended_numbering_section_zero_past_the_file(shoff_back):
    data = build_elf([Sec(".text", b"\x90" * 4)], extended=True)
    moved = _with_field(data, (0x28, 8), len(data) - shoff_back)
    with pytest.raises(MalformedElf, match="truncated section header 0"):
        read_image(moved)


@pytest.mark.skipif(shutil.which("as") is None, reason="as not installed")
def test_extended_numbering_of_an_assembled_object(tmp_path):
    count = 65300  # as switches to extended numbering from 65,280 sections
    source = tmp_path / "many.s"
    source.write_text("".join(f'.section .text.f{i},"ax"\n.byte 0xc3\n'
                              for i in range(count)))
    subprocess.run(["as", "-o", str(tmp_path / "many.o"), str(source)],
                   check=True, capture_output=True)
    assert struct.unpack_from("<HH", (tmp_path / "many.o").read_bytes(), 0x3C) == (0, 0xFFFF)
    with elf.open_file(tmp_path / "many.o") as file:
        texts = list_text_sections(elf.read_elf(file))
        assert [s.name for s in texts] == [".text"] + [f".text.f{i}" for i in range(count)]
        assert {elf.read_body(file, s) for s in texts[1:]} == {b"\xc3"}


def test_shared_lib_sections_all_retrievable():
    data = build_shared_lib(text=b"\xcc" * 24, comment=b"vendor\x00",
                            versions=["GLIBC_2.0"])
    image = read_image(data)
    for name in (".text", ".comment", ".dynamic", ".gnu.version_d"):
        section = get_section(image, name)
        assert section is not None, name
    assert body(data, ".text") == b"\xcc" * 24
    assert not image.is_relocatable


def test_get_section_missing_is_none():
    image = read_image(build_elf([Sec(".text", b"\x90" * 24)]))
    assert get_section(image, ".missing") is None


def test_dynamic_needed_empty_without_dynamic_section():
    assert read_with(build_elf([Sec(".text", b"\x90" * 24)]), elf.dynamic_needed) == []
    linked = build_executable(b"\x90" * 8, needed=["libm.so.6", "libc.so.6"])
    assert read_with(linked, elf.dynamic_needed) == ["libm.so.6", "libc.so.6"]


def test_linked_strtab_takes_a_linked_string_table_else_dynstr():
    # sections: 1 .text, 2 .dynstr, 3 .strtab, 4 .dynamic
    secs = [Sec(".text", b"\x90" * 8), Sec(".dynstr", b"\x00dyn\x00", sh_type=SHT_STRTAB),
            Sec(".strtab", b"\x00own\x00", sh_type=SHT_STRTAB)]
    with opened(build_elf(secs + [Sec(".dynamic", b"", sh_type=SHT_DYNAMIC)])) as (file, image):
        dynamic = get_section(image, ".dynamic")
        for link, want in [(3, b"\x00own\x00"), (2, b"\x00dyn\x00"), (1, b"\x00dyn\x00"),
                           (0, b"\x00dyn\x00"), (99, b"\x00dyn\x00")]:
            assert linked_strtab(image.sections, dynamic._replace(sh_link=link), file) == want
    with opened(build_elf([secs[0], secs[2]])) as (file, no_dynstr):
        assert linked_strtab(no_dynstr.sections, dynamic._replace(sh_link=1), file) is None
        assert linked_strtab(no_dynstr.sections, dynamic._replace(sh_link=2), file) == \
            b"\x00own\x00"


def test_dynamic_needed_link_to_a_section_that_is_not_a_string_table_reads_dynstr():
    dynstr = b"\x00libc.so.6\x00"
    dyn = struct.pack("<qQ", 1, 1) + struct.pack("<qQ", 0, 0)  # DT_NEEDED, DT_NULL
    for link in (".dynstr", ".text"):
        blob = build_elf([Sec(".text", b"\x90" * 8), Sec(".dynstr", dynstr, sh_type=SHT_STRTAB),
                          Sec(".dynamic", dyn, sh_type=SHT_DYNAMIC, link=link)])
        assert read_with(blob, elf.dynamic_needed) == ["libc.so.6"]


def test_dynamic_needed_past_the_budget_raises_and_the_walk_reads_none():
    with opened(build_shared_needed(4096, 64)) as (file, image):  # the walk decodes no .dynamic
        with pytest.raises(MalformedElf, match=re.escape(
                f"DT_NEEDED names total more than {elf.STRING_BUDGET} times "
                "their 4098-byte string table")):
            elf.dynamic_needed(image, file)
    # the same name twice is within the budget, and is one object
    twice = read_with(build_shared_needed(4096, 2), elf.dynamic_needed)
    assert twice == ["l" * 4096] * 2 and twice[0] is twice[1]


def test_dynamic_needed_skips_offsets_past_the_table_and_stops_at_dt_null():
    dynstr = b"\x00libc.so.6\x00"
    dyn = b"".join(struct.pack("<qQ", tag, value)
                   for tag, value in [(1, 99), (1, 1), (1, len(dynstr)), (0, 0), (1, 1)])
    blob = build_elf([Sec(".dynstr", dynstr, sh_type=SHT_STRTAB),
                      Sec(".dynamic", dyn, sh_type=SHT_DYNAMIC, link=".dynstr")])
    assert read_with(blob, elf.dynamic_needed) == ["libc.so.6"]


def test_comment_survives_symtab_removal():
    stripped = build_executable(b"\x90" * 32, comment=b"CC 1.0\x00",
                                with_symtab=False)
    image = read_image(stripped)
    assert get_section(image, ".comment") is not None
    assert get_section(image, ".symtab") is None


def test_duplicate_section_names_first_wins_and_index_access():
    data = build_elf([Sec(".text", b"\xaa" * 8), Sec(".text", b"\xbb" * 8)])
    assert body(data, ".text") == b"\xaa" * 8
    bodies = [contents for name, contents in _named_bodies(data) if name == ".text"]
    assert bodies == [b"\xaa" * 8, b"\xbb" * 8]


def test_nobits_section_has_no_bytes():
    data = build_elf([Sec(".bss", sh_type=SHT_NOBITS, nobits_size=128),
                      Sec(".text", b"\x90" * 16)])
    assert body(data, ".bss") == b""


def test_round_trip_section_names_sizes_bytes():
    specs = [(".text", b"\x11" * 5), (".data", b"\x22" * 9),
             (".comment", b"x\x00"), (".note.weird", b"")]
    recovered = [(name, contents) for name, contents in
                 _named_bodies(build_elf([Sec(n, d) for n, d in specs]))
                 if name not in ("", ".shstrtab")]
    assert recovered == specs


@settings(max_examples=100)
@given(st.lists(
    st.tuples(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=10),
              st.binary(max_size=64)),
    min_size=0, max_size=8))
def test_round_trip_property(specs):
    names = [f".s{i}.{name}" for i, (name, _) in enumerate(specs)]
    got = [(name, contents) for name, contents in
           _named_bodies(build_elf([Sec(n, d) for n, (_, d) in zip(names, specs)]))
           if name not in ("", ".shstrtab")]
    assert got == [(n, d) for n, (_, d) in zip(names, specs)]


def test_list_text_sections_order_and_filter():
    data = build_elf([Sec(".text.foo", b"\x90" * 4), Sec(".data", b"\x00" * 4),
                      Sec(".text.bar", b"\x90" * 4), Sec(".textual", b"\x90" * 4)])
    image = read_image(data)
    assert [s.name for s in list_text_sections(image)] == [".text.foo", ".text.bar"]


def test_list_text_sections_single_and_empty():
    single = read_image(build_elf([Sec(".text", b"\x90" * 4)]))
    assert [s.name for s in list_text_sections(single)] == [".text"]
    none = read_image(build_elf([Sec(".data", b"\x00" * 4)]))
    assert list_text_sections(none) == []


# -- relocations -----------------------------------------------------------

def _pairs(relocs: tuple[list[int], bytes]) -> list[tuple[int, int]]:
    """The (offset, mask_len) pairs of one section's (starts, lengths)."""
    starts, lengths = relocs
    assert isinstance(starts, list) and isinstance(lengths, bytes)
    return list(zip(starts, lengths))


def _text_relocs(data: bytes) -> tuple[list[tuple[int, int]], list[str]]:
    """The (offset, mask_len) pairs of an object's first section, .text,
    and the warnings read with them."""
    warnings: list[str] = []
    return _pairs(read_with(data, parse_relocations, warnings).get(1, ([], b""))), warnings


def _entries(bits: int, rela: bool, entries) -> bytes:
    """A relocation table body of (offset, type) entries, symbol 0."""
    fmt = {(64, True): "<QQq", (64, False): "<QQ",
           (32, True): "<IIi", (32, False): "<II"}[bits, rela]
    addend = (0,) if rela else ()
    return b"".join(struct.pack(fmt, offset, rtype, *addend) for offset, rtype in entries)


def test_call_stub_relocation():
    data = build_object(CALL_STUB_TEXT,
                        {".text": [(CALL_STUB_RELOC_OFFSET, R_X86_64_PC32, "malloc")]})
    assert read_with(data, parse_relocations, []) == {1: ([0x0E], b"\x04")}


def test_no_relocation_sections():
    assert read_with(build_object(b"\x90" * 32), parse_relocations, []) == {}


def test_unknown_reloc_type_masks_eight_with_warning(capsys):
    data = build_object(b"\x90" * 32, {".text": [(4, 0x7FFF, "mystery")]})
    assert _text_relocs(data) == (
        [(4, 8)], ["unknown relocation type 32767 in .rela.text; masking 8 bytes"])
    # the warning is the caller's to print
    assert capsys.readouterr() == ("", "")


def test_relocations_sorted_and_rel_plus_rela_merged():
    rela = build_object(b"\x90" * 64, {".text": [(40, R_X86_64_PC32, "b"),
                                                 (8, R_X86_64_64, "a")]})
    assert _text_relocs(rela) == ([(8, 8), (40, 4)], [])

    rel32 = build_object(b"\x90" * 64, {".text": [(12, R_386_PC32, "c")]},
                         bits=32, machine=EM_386, rela=False)
    assert _text_relocs(rel32) == ([(12, 4)], [])

    rel = _entries(64, False, [(20, R_X86_64_PC32), (2, R_X86_64_64)])
    both = build_object(b"\x90" * 64, {".text": [(40, R_X86_64_PC32, "b")]},
                        extra=[Sec(".rel.text", rel, sh_type=SHT_REL, info=1)])
    assert _text_relocs(both) == ([(2, 8), (20, 4), (40, 4)], [])


# the psABI field widths of types gcc 12 emits: word32 fields, and the
# 2-byte "ff 10" call a TLS descriptor call marker names
@pytest.mark.parametrize("bits, machine, rtype, length", [
    (64, EM_X86_64, 35, 2),  # R_X86_64_TLSDESC_CALL
    (32, EM_386, 11, 4),  # R_386_32PLT
    (32, EM_386, 38, 4),  # R_386_SIZE32
    (32, EM_386, 39, 4),  # R_386_TLS_GOTDESC
    (32, EM_386, 40, 2),  # R_386_TLS_DESC_CALL
    (32, EM_386, 43, 4),  # R_386_GOT32X
])
def test_gcc_relocation_types_mask_their_field(bits, machine, rtype, length):
    data = build_object(b"\x90" * 32, {".text": [(8, rtype, "s")]},
                        bits=bits, machine=machine, rela=bits == 64)
    assert _text_relocs(data) == ([(8, length)], [])


def test_reloc_mask_clamped_at_section_end():
    data = build_object(b"\x90" * 20, {".text": [(18, R_X86_64_PC32, "x")]})
    assert _text_relocs(data) == (
        [(18, 2)], ["relocation mask at 0x12 clamped to section end of .text"])


def test_reloc_beyond_section_dropped():
    data = build_object(b"\x90" * 20, {".text": [(64, R_X86_64_PC32, "x")]})
    assert _text_relocs(data) == (
        [], ["relocation at 0x40 lies beyond .text (20 bytes); dropped"])


def test_reloc_type_none_skipped():
    data = build_object(b"\x90" * 32, {".text": [(4, 0, "")]})
    assert _text_relocs(data) == ([], [])


def test_reloc_masks_inside_section_property():
    data = build_object(b"\x90" * 40, {".text": [(36, R_X86_64_64, "a"),
                                                 (4, R_X86_64_PC32, "b"),
                                                 (20, R_X86_64_64, "c")]})
    pairs, _ = _text_relocs(data)
    assert pairs == sorted(pairs)
    for offset, mask_len in pairs:
        assert offset + mask_len <= 40


def test_relocations_require_relocatable():
    with pytest.raises(ValueError):
        read_with(build_executable(b"\x90" * 16), parse_relocations, [])


def test_reloc_warnings_by_section_then_table_order():
    rel = _entries(64, False, [(70, 0x77), (77, R_X86_64_64)])
    data = build_object({".text": bytes(80), ".text.f": bytes(40)},
                        {".text": [(76, R_X86_64_64, "y"), (200, R_X86_64_PC32, "z")],
                         ".text.f": [(1, 0x55, "u"), (38, R_X86_64_PC32, "v")]},
                        extra=[Sec(".rel.text", rel, sh_type=SHT_REL, info=1)])
    warnings: list[str] = []
    relocs = read_with(data, parse_relocations, warnings)
    assert relocs == {1: ([70, 76, 77], bytes([8, 4, 3])), 2: ([1, 38], bytes([8, 2]))}
    assert warnings == [
        "relocation mask at 0x4c clamped to section end of .text",
        "relocation at 0xc8 lies beyond .text (80 bytes); dropped",
        "unknown relocation type 119 in .rel.text; masking 8 bytes",
        "relocation mask at 0x4d clamped to section end of .text",
        "unknown relocation type 85 in .rela.text.f; masking 8 bytes",
        "relocation mask at 0x26 clamped to section end of .text.f",
    ]


def test_relocation_table_bound_by_sh_info_not_name():
    # two code sections named .text, each with its own .rela.text
    data = build_elf([
        Sec(".text", bytes(48)), Sec(".text", bytes(48)),
        Sec(".rela.text", _entries(64, True, [(4, R_X86_64_PC32)]), sh_type=SHT_RELA, info=1),
        Sec(".rela.text", _entries(64, True, [(40, R_X86_64_PC32)]), sh_type=SHT_RELA, info=2)])
    assert read_with(data, parse_relocations, []) == {1: ([4], b"\x04"), 2: ([40], b"\x04")}


@pytest.mark.parametrize("info", [0, 5, 6, 7, 8, 0xFFFFFFFF])
def test_relocation_table_naming_no_code_section_not_read(info):
    # a truncated .rela.text whose sh_info names the null section, .data,
    # the table itself, .shstrtab, or no section (sh_info >= e_shnum == 8)
    data = build_object(b"\x90" * 32, {".text": [(4, R_X86_64_PC32, "f")]},
                        extra=[Sec(".data", bytes(8)),
                               Sec(".rela.text", bytes(23), sh_type=SHT_RELA, info=info)])
    image = read_image(data)
    assert [s.name for s in image.sections[5:]] == [".data", ".rela.text", ".shstrtab"]
    assert read_with(data, parse_relocations, []) == {1: ([4], b"\x04")}


_TEXT_NAMES = [".text", ".text.a", ".text.main", ".text.b"]
_KNOWN_TYPES = {64: [1, 2, 10, 12, 14, 24, 41], 32: [1, 2, 14, 20, 22, 33]}
_RELOC_TYPES = {64: [0, *_KNOWN_TYPES[64], 99, 0x102, 0x7FFF],
                32: [0, *_KNOWN_TYPES[32], 99, 200]}


@st.composite
def _relocatable_images(draw):
    """The bytes of an object with unique section names: 1-4 code sections of 0-80
    bytes with relocations of known, unknown and none types that may lie
    past the section or run over its end.  Half the objects instead have
    tables as compilers write them: in offset order, of types the
    machine's mask table names (for machine 40 it names none), mostly
    inside the section.  Sometimes one section also has a table of the
    other kind, a data section has a table, or one table is cut short."""
    bits = draw(st.sampled_from([32, 64]))
    rela = draw(st.booleans())
    machine = draw(st.sampled_from([EM_X86_64 if bits == 64 else EM_386, 40]))
    names = draw(st.lists(st.sampled_from(_TEXT_NAMES), min_size=1, max_size=4, unique=True))
    texts = {name: bytes(draw(st.integers(0, 80))) for name in names}
    if draw(st.booleans()):
        entries = st.lists(st.tuples(st.integers(0, 50), st.sampled_from(_KNOWN_TYPES[bits])),
                           max_size=8).map(sorted)
    else:
        entries = st.lists(st.tuples(st.integers(0, 100), st.sampled_from(_RELOC_TYPES[bits])),
                           max_size=8)
    relocs = {name: [(offset, rtype, "s") for offset, rtype in draw(entries)]
              for name in names if draw(st.booleans())}
    extra = []
    if draw(st.booleans()):
        index = draw(st.integers(1, len(names)))
        other = ".rel" if rela else ".rela"
        extra.append(Sec(other + names[index - 1], _entries(bits, not rela, draw(entries)),
                         sh_type=SHT_REL if rela else SHT_RELA, info=index))
    if draw(st.booleans()):
        data_index = len(names) + len(relocs) + 2 + len(extra) + 1  # after .symtab, .strtab
        extra += [Sec(".data", bytes(16)),
                  Sec(".rela.data", _entries(bits, True, draw(entries)), sh_type=SHT_RELA,
                      info=data_index)]
    blob = build_object(texts, relocs, bits=bits, machine=machine, rela=rela, extra=extra)
    sections = read_image(blob).sections
    tables = [i for i, s in enumerate(sections) if s.sh_type in (SHT_REL, SHT_RELA)]
    if tables and draw(st.booleans()):
        # three bytes longer, into what follows it (the name table at
        # least): no longer a whole number of records
        cut = draw(st.sampled_from(tables))
        blob = _with_header_field(blob, cut, "sh_size", sections[cut].size + 3)
    return blob


def _one_table(entries, size=32, **kwargs):
    """An object whose one .text of ``size`` bytes has one table of
    (offset, type) entries."""
    return build_object(bytes(size), {".text": [(o, t, "s") for o, t in entries]}, **kwargs)


# Tables for the cases the C-level passes tell apart, and for the order
# of a section's warnings and tables.
_TABLES = [
    # two entries at one offset; type 4 is R_X86_64_PLT32
    _one_table([(2, R_X86_64_64), (10, R_X86_64_PC32), (10, R_X86_64_PC32), (20, 4)]),
    _one_table([(3, R_386_PC32), (12, R_386_32)], bits=32, machine=EM_386, rela=False),
    # an 8-byte mask ending exactly at the section end
    _one_table([(4, R_X86_64_PC32), (24, R_X86_64_64)]),
    # two entries at one offset within MAX_MASK_LEN bytes of the end;
    # the second runs past it and is clamped
    _one_table([(4, R_X86_64_PC32), (26, R_X86_64_PC32), (26, R_X86_64_64)]),
    _one_table([(4, R_X86_64_PC32), (10, 0x7FFF)]),
    # type 0x102: its first byte is the known type 2
    _one_table([(4, R_X86_64_PC32), (10, 0x102)]),
    _one_table([(4, R_X86_64_PC32), (10, 0), (20, R_X86_64_PC32)]),
    _one_table([]),
    # out of order, with two entries at one offset whose masks differ:
    # they stay in table order
    _one_table([(20, R_X86_64_64), (4, R_X86_64_PC32), (20, R_X86_64_PC32)]),
    # out of order, one entry of an unknown type whose mask then runs
    # past the end: two warnings for it, in that order
    _one_table([(28, 0x7FFF), (4, R_X86_64_PC32)]),
    # an entry past the end in the first table, then a truncated second
    # table: the warning comes before the MalformedElf
    build_object(bytes(32), {".text": [(4, R_X86_64_PC32, "s"), (40, R_X86_64_PC32, "s")]},
                 extra=[Sec(".rel.text", _entries(64, False, [(8, R_X86_64_PC32)]) + bytes(3),
                            sh_type=SHT_REL, info=1)]),
    # a .rela and a .rel table of one section, each in order, whose
    # offsets interleave and tie at 12: the tie stays in table order
    build_object(bytes(48), {".text": [(4, R_X86_64_PC32, "s"), (12, R_X86_64_64, "s"),
                                       (20, R_X86_64_PC32, "s")]},
                 extra=[Sec(".rel.text", _entries(64, False, [(8, R_X86_64_PC32),
                                                              (12, R_X86_64_PC32),
                                                              (24, R_X86_64_64)]),
                            sh_type=SHT_REL, info=1)]),
]


def _with_tables(test):
    for blob in _TABLES:
        test = example(blob)(test)
    return test


def _read(blob: bytes):
    """parse_relocations' result over the object ``blob`` holds, or the
    MalformedElf it raised, with the warnings it appended."""
    warnings: list[str] = []
    try:
        got = read_with(blob, parse_relocations, warnings)
    except MalformedElf as exc:
        got = exc
    return got, warnings


@settings(max_examples=300, deadline=None)
@given(_relocatable_images())
@_with_tables
def test_one_pass_reader_agrees_with_per_section_reference(blob):
    want_warnings: list[str] = []
    try:
        want = reloc_reference.object_relocations(blob, want_warnings)
    except MalformedElf as exc:
        want = exc
    got, warnings = _read(blob)
    assert warnings == want_warnings
    if isinstance(want, MalformedElf):
        assert isinstance(got, MalformedElf) and str(got) == str(want)
        return
    assert isinstance(got, dict)
    for index, section in enumerate(read_image(blob).sections):
        if section.name in want:
            assert _pairs(got.pop(index, ([], b""))) == want[section.name]
    assert got == {}


@settings(max_examples=300, deadline=None)
@given(_relocatable_images())
@_with_tables
def test_relocation_pairs_keep_the_contract_build_pattern_relies_on(blob):
    # per code section: starts a list in ascending order, lengths one
    # byte per start, each mask 1..MAX_MASK_LEN bytes and inside the
    # section
    relocs, _ = _read(blob)
    if isinstance(relocs, MalformedElf):
        return
    sections = read_image(blob).sections
    for index, (starts, lengths) in relocs.items():
        section = sections[index]
        assert elf.is_text_section(section)
        assert isinstance(starts, list) and isinstance(lengths, bytes)
        assert len(starts) == len(lengths)
        assert starts == sorted(starts)
        for offset, mask_len in zip(starts, lengths):
            assert 1 <= mask_len <= elf.MAX_MASK_LEN
            assert offset + mask_len <= section.size


def test_mask_tables_stay_within_the_largest_mask():
    for machine, table in elf._MASK_TABLES.items():
        assert all(1 <= mask_len <= elf.MAX_MASK_LEN for mask_len in table.values())
        # the rules loop reads mask lengths from the translate tables
        # alone, so they must name the same types with the same lengths
        assert all(reloc_type < 256 for reloc_type in table)
        assert all(elf._TYPE_LENGTHS[machine][reloc_type] == table.get(reloc_type, 0)
                   for reloc_type in range(256))


@pytest.mark.parametrize("size, code, values", [
    (8, "Q", (1, 0x0102030405060708, 2**64 - 2)),
    (4, "I", (1, 0x01020304, 2**32 - 2)),
])
def test_byte_swap_turns_little_endian_words_big_endian(size, code, values):
    # the swap a big-endian host applies before its casts, run here on
    # any host
    little = struct.pack(f"<3{code}", *values)
    assert elf._swap_words(little, size) == struct.pack(f">3{code}", *values)
    assert elf._swap_words(b"", size) == b""


# -- .comment --------------------------------------------------------------

def test_comment_single_vendor_string():
    data = build_elf([Sec(".comment",
                          b"GCC: (GNU) 4.1.2 20080704 (Red Hat 4.1.2-50)\x00")])
    assert read_with(data, parse_comment, []) == [
        "GCC: (GNU) 4.1.2 20080704 (Red Hat 4.1.2-50)"]


def test_comment_empty_strings_elided():
    data = build_elf([Sec(".comment", b"\x00\x00a\x00")])
    assert read_with(data, parse_comment, []) == ["a"]


def test_comment_unterminated_tail_kept_and_flagged():
    data = build_elf([Sec(".comment", b"one\x00two")])
    warnings: list[str] = []
    assert read_with(data, parse_comment, warnings) == ["one", "two"]
    assert warnings == [".comment is not NUL-terminated; keeping trailing fragment"]


def test_comment_absent_gives_empty():
    assert read_with(build_elf([Sec(".text", b"\x90")]), parse_comment, []) == []


@settings(max_examples=100)
@given(st.lists(st.text(alphabet=string.printable.replace("\x00", ""),
                        min_size=1, max_size=20).map(lambda s: s.replace("\x00", "")),
                min_size=0, max_size=6))
def test_comment_split_round_trip(strings):
    body = b"".join(s.encode("latin-1") + b"\x00" for s in strings)
    data = build_elf([Sec(".comment", body)])
    assert read_with(data, parse_comment, []) == strings


@pytest.mark.skipif(shutil.which("readelf") is None, reason="readelf not installed")
def test_comment_agrees_with_readelf(tmp_path):
    body = b"alpha compiler 1.0\x00beta linker 2.1\x00"
    data = build_elf([Sec(".comment", body), Sec(".text", b"\x90" * 4)])
    path = tmp_path / "sample.elf"
    path.write_bytes(data)
    output = subprocess.run(["readelf", "-p", ".comment", str(path)],
                            capture_output=True, text=True, check=True).stdout
    listed = [line.split("]", 1)[1].strip()
              for line in output.splitlines() if "]" in line]
    assert listed == read_with(data, parse_comment, [])


# -- archives ---------------------------------------------------------------

def _read_archive_bytes(data: bytes) -> list[elf.ArchiveMember]:
    """The members :func:`provsig.elf.read_archive` reads from a file
    that holds ``data``."""
    with bytes_file(data) as file:
        return elf.read_archive(file)


def _member_bodies(data: bytes) -> list[tuple[str, bytes]]:
    """Each member's name and the bytes of ``data`` where it says its body lies."""
    return [(m.name, data[m.offset:m.offset + m.size]) for m in _read_archive_bytes(data)]


def test_archive_names_including_long_names():
    members = [("a.o", b"object-a"), ("verylongobjectfilename.o", b"object-b")]
    assert _member_bodies(build_archive(members)) == members


def test_archive_empty():
    assert _read_archive_bytes(b"!<arch>\n") == []


def test_archive_bad_magic():
    with pytest.raises(MalformedArchive):
        _read_archive_bytes(b"!<arch>X" + b"\x00" * 8)


def test_archive_odd_size_padding():
    members = [("odd.o", b"12345"), ("next.o", b"678")]
    assert _member_bodies(build_archive(members)) == members


def test_archive_symbol_index_skipped():
    raw = bytearray(b"!<arch>\n")
    index_body = b"\x00\x00\x00\x01junk"
    raw += ("/".ljust(16) + "0".ljust(12) + "0".ljust(6) + "0".ljust(6)
            + "0".ljust(8) + str(len(index_body)).ljust(10)).encode() + b"`\n"
    raw += index_body
    raw += build_archive([("m.o", b"body")])[8:]
    parsed = _read_archive_bytes(bytes(raw))
    assert [m.name for m in parsed] == ["m.o"]


def test_archive_truncated_member():
    data = build_archive([("a.o", b"0123456789")])
    with pytest.raises(MalformedArchive):
        _read_archive_bytes(data[:-4])


def test_archive_negative_member_size_rejected():
    raw = bytearray(b"!<arch>\n")
    raw += ("a.o/".ljust(16) + "0".ljust(12) + "0".ljust(6) + "0".ljust(6)
            + "0".ljust(8) + "-60".ljust(10)).encode() + b"`\n"
    raw += b"x" * 60
    with pytest.raises(MalformedArchive, match="negative"):
        _read_archive_bytes(bytes(raw))


def _ar_header(name: str, size: str) -> bytes:
    return (name.ljust(16) + "0".ljust(12) + "0".ljust(6) + "0".ljust(6)
            + "0".ljust(8) + size.ljust(10)).encode("latin-1") + b"`\n"


@pytest.mark.parametrize("size", ["1_0", "+10", "+1_0"])
def test_archive_member_size_must_be_ascii_digits(size):
    # int() reads each of these as 10
    raw = b"!<arch>\n" + _ar_header("a.o/", size) + b"x" * 10
    with pytest.raises(MalformedArchive, match="member size"):
        _read_archive_bytes(raw)


_LONG_NAMES = b"first_long_member_name.o/\nsecond_long_member_name.o/\n"


def _long_name_archive(ref: str) -> bytes:
    padding = b"\n" * (len(_LONG_NAMES) % 2)
    return (b"!<arch>\n" + _ar_header("//", str(len(_LONG_NAMES))) + _LONG_NAMES
            + padding + _ar_header(ref, "2") + b"xy")


def test_archive_long_name_offset_resolved():
    blob = _long_name_archive("/26")
    assert _read_archive_bytes(blob) == \
        [elf.ArchiveMember("second_long_member_name.o", "/26", len(blob) - 2, 2)]
    assert _member_bodies(blob) == [("second_long_member_name.o", b"xy")]


@pytest.mark.parametrize("ref", [
    "/-1",                          # int() gives -1: the member was named ''
    f"/-{len(_LONG_NAMES) - 26}",   # wraps round to the second name
    "/+0", "/ 0", "/0_0",           # int() reads each as 0: the first name
])
def test_archive_long_name_offset_must_be_ascii_digits(ref):
    with pytest.raises(MalformedArchive, match="long-name reference"):
        _read_archive_bytes(_long_name_archive(ref))


def test_archive_unresolvable_long_name():
    raw = bytearray(b"!<arch>\n")
    raw += ("/99".ljust(16) + "0".ljust(12) + "0".ljust(6) + "0".ljust(6)
            + "0".ljust(8) + "2".ljust(10)).encode() + b"`\n"
    raw += b"xy"
    with pytest.raises(MalformedArchive):
        _read_archive_bytes(bytes(raw))


def test_archive_long_names_at_one_offset_are_read_once_within_the_budget():
    # 256 members at one offset of a 16 KB table with no newline: one name
    # per member read 4 MB of names out of a 31 KB archive
    blob = build_shared_long_name(16 << 10, 256)
    tracemalloc.start()
    try:
        with pytest.raises(MalformedArchive, match=re.escape(
                f"long names total more than {elf.STRING_BUDGET} times "
                f"the archive's {len(blob)} bytes")):
            _read_archive_bytes(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 << 10, peak
    # within the budget, the members of one offset share one name
    members = _read_archive_bytes(build_shared_long_name(100, 4))
    assert [m.name for m in members] == ["n" * 100] * 4
    assert len({id(m.name) for m in members}) == 1


def test_archive_bsd_long_names_rejected():
    raw = bytearray(b"!<arch>\n")
    raw += ("#1/20".ljust(16) + "0".ljust(12) + "0".ljust(6) + "0".ljust(6)
            + "0".ljust(8) + "24".ljust(10)).encode() + b"`\n"
    raw += b"a" * 24
    with pytest.raises(MalformedArchive):
        _read_archive_bytes(bytes(raw))


@pytest.mark.skipif(shutil.which("ar") is None, reason="ar not installed")
def test_archive_agrees_with_system_ar(tmp_path):
    contents = {"first.o": b"\x7fELF-ish", "second_object_with_long_name.o": b"abc",
                "odd.o": b"12345"}
    paths = []
    for name, data in contents.items():
        p = tmp_path / name
        p.write_bytes(data)
        paths.append(str(p))
    archive = tmp_path / "lib.a"
    subprocess.run(["ar", "rc", str(archive)] + paths, check=True,
                   capture_output=True)
    listed = subprocess.run(["ar", "t", str(archive)], check=True,
                            capture_output=True, text=True).stdout.split()
    parsed = _member_bodies(archive.read_bytes())
    assert [name for name, _ in parsed] == listed
    assert dict(parsed) == contents


# -- mutation fuzzing ------------------------------------------------------------
# Seeds come from elfwriter, mutants from the mutation harness.  Each
# parser must return or raise one of its declared errors, and do so
# promptly.

_ELF_SEEDS = [
    build_object(CALL_STUB_TEXT, {".text": [(CALL_STUB_RELOC_OFFSET, R_X86_64_PC32, "malloc"),
                                            (0, R_X86_64_64, "table")]},
                 comment=b"GCC: (GNU) 4.4.3\x00"),
    build_object({".text": bytes(range(40)), ".text.f": b"\x90" * 24},
                 {".text.f": [(4, R_386_PC32, "puts")]}, bits=32, machine=EM_386, rela=False),
    build_shared_lib(versions=["GLIBC_2.2.5", "GLIBC_2.14"], needed=("libm.so.6",),
                     comment=b"GCC: x\x00"),
    build_shared_lib(versions=["GCC_3.0"], bits=32),
    build_executable({".text": CALL_STUB_TEXT, ".text.g": b"\xc3" * 8},
                     needed=["libc.so.6"], with_symtab=True),
    build_elf([Sec(".text", CALL_STUB_TEXT), Sec(".comment", b"GCC: y\x00")],
              bits=32, extended=True),
]
_ELF_FIELDS = [elf_fields(seed) for seed in _ELF_SEEDS]


def _parse_elf_and_sections(blob: bytes) -> None:
    with opened(blob) as (file, image):
        parse_comment(image, file, [])
        if image.is_relocatable:
            parse_relocations(image, file, [])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, len(_ELF_SEEDS) - 1), st.data())
def test_parse_elf_mutations_raise_only_declared_errors(which, data):
    blob = mutate(_ELF_SEEDS[which], _ELF_FIELDS[which], data)
    parse_within_a_second(_parse_elf_and_sections, blob, (MalformedElf, UnsupportedElf))


# -- section-header table ----------------------------------------------------------
# The one-pass reader against the per-header reference (elf_reference),
# on elfwriter images and seed mutants, and the cases that tell them apart.

# where a field of section header ``index`` lies, as (offset within the
# header, width), by ELF class
_SHDR_FIELDS = {64: {"sh_name": (0, 4), "sh_offset": (24, 8), "sh_size": (32, 8)},
                32: {"sh_name": (0, 4), "sh_offset": (16, 4), "sh_size": (20, 4)}}


def _with_header_field(data: bytes, index: int, field: str, value: int) -> bytes:
    """``data`` with ``field`` of section header ``index`` set to ``value``."""
    is64 = data[4] == 2
    shoff, = struct.unpack_from("<Q" if is64 else "<I", data, 0x28 if is64 else 0x20)
    shentsize, = struct.unpack_from("<H", data, 0x3A if is64 else 0x2E)
    offset, width = _SHDR_FIELDS[64 if is64 else 32][field]
    return _with_field(data, (shoff + index * shentsize + offset, width), value)


_WIDE = build_elf([Sec(".text", CALL_STUB_TEXT), Sec(".comment", b"GCC: x\x00")],
                  shentsize=72)
# the name table, last, shrunk by its final NUL: ".shstrtab" runs to its end
_NAMED_TO_END = _with_header_field(build_elf([Sec(".text", b"\x90" * 4)]), 2, "sh_size",
                                   len(b"\0.text\0.shstrtab"))
_BSS = build_elf([Sec(".text", b"\x90" * 4), Sec(".bss", sh_type=SHT_NOBITS, nobits_size=64)])
_BSS_PAST_END = _with_header_field(_BSS, 2, "sh_offset", len(_BSS) + 4096)
_TWO = build_elf([Sec(".text", b"\x90" * 4), Sec(".data", b"\x01" * 8)])
_BODY_PAST_END = _with_header_field(_TWO, 1, "sh_offset", len(_TWO))
_BOTH_PAST_END = _with_header_field(_BODY_PAST_END, 2, "sh_name", 0xFFFF)


@pytest.mark.parametrize("bits", [64, 32])
@pytest.mark.parametrize("extended", [False, True])
def test_section_headers_wider_than_native_read_as_native_ones(bits, extended):
    secs = [Sec(".text", CALL_STUB_TEXT), Sec(".comment", b"GCC: x\x00"),
            Sec(".bss", sh_type=SHT_NOBITS, nobits_size=32)]
    native = 64 if bits == 64 else 40
    plain = read_image(build_elf(secs, bits=bits, extended=extended))
    for shentsize in (native + 1, native + 24):
        assert read_image(build_elf(secs, bits=bits, extended=extended,
                                   shentsize=shentsize)) == plain


def test_name_running_to_the_name_table_end_needs_no_nul():
    assert [s.name for s in read_image(_NAMED_TO_END).sections] == ["", ".text", ".shstrtab"]


def test_nobits_section_offset_past_the_file_is_not_read():
    assert body(_BSS_PAST_END, ".bss") == b""


def test_name_offset_error_comes_before_a_body_past_the_file():
    with pytest.raises(MalformedElf, match="section name offset out of range"):
        read_image(_BOTH_PAST_END)
    with pytest.raises(MalformedElf, match="section '.text' extends past end of file"):
        read_image(_BODY_PAST_END)


# -- what the walk holds is bounded by its input --------------------------------
# No byte of a well-formed file lies in two sections, so the bodies the
# walk reads may total no more than the input; the names, one per
# header, no more than STRING_BUDGET times it.  Each crafted file is
# some 33 KB and would be read as 4 MB of bodies or names.

_OVERLAPPING = build_overlapping(b"\x90" * (16 << 10), 256, ET_EXEC)
_SHARED_NAME = build_shared_name(16 << 10, 256, ET_EXEC)


def test_bodies_past_the_input_are_refused_before_they_are_read(tmp_path, monkeypatch):
    want = f"section bodies through '.text' total more than the input's {len(_OVERLAPPING)} bytes"
    path = tmp_path / "overlapping"
    path.write_bytes(_OVERLAPPING)
    pread = os.pread
    read = []

    def counting(fd, length, offset):
        read.append(length)
        return pread(fd, length, offset)

    monkeypatch.setattr(os, "pread", counting)
    with pytest.raises(MalformedElf, match=re.escape(want)):
        _read_elf_at(path)
    # the header, the table and the name table: the walk reads no body
    assert len(read) == 3


def test_sections_that_fill_the_input_exactly_read():
    # a body plus the headers, name table and padding: every byte counted once
    blob = build_elf([Sec(".text", b"\x90" * 64)])
    assert sum(s.size for s in read_image(blob).sections) < len(blob)
    whole = _with_header_field(blob, 1, "sh_offset", 0)
    whole = _with_header_field(whole, 1, "sh_size", len(blob) - len(b"\0.text\0.shstrtab\0"))
    assert sum(s.size for s in read_image(whole).sections) == len(blob)
    one_more = _with_header_field(whole, 1, "sh_size", len(blob) - len(b"\0.text\0.shstrtab\0") + 1)
    with pytest.raises(MalformedElf, match="section bodies through '.shstrtab' total more"):
        read_image(one_more)


def test_section_names_past_the_budget_are_refused():
    with pytest.raises(MalformedElf, match=re.escape(
            f"section names total more than {elf.STRING_BUDGET} times "
            f"the input's {len(_SHARED_NAME)} bytes")):
        read_image(_SHARED_NAME)


def test_thousands_of_sections_named_at_one_offset_read_with_one_name():
    # clang -fno-unique-section-names: every code section is ".text"
    count = 4000
    image, bodies = read_bytes(build_elf([Sec(".text", bytes([k % 256])) for k in range(count)]))
    texts = list_text_sections(image)
    assert [contents for s, contents in zip(image.sections, bodies) if s in texts] == \
        [bytes([k % 256]) for k in range(count)]
    assert len({id(s.name) for s in texts}) == 1


def test_read_strings_reads_each_offset_once_and_keeps_the_budget():
    table = b"\0.rela.text\0tail"
    offsets = [6, 1, 0, 6, 12, 16, 15]
    want = [".text", ".rela.text", "", ".text", "tail", "", "l"]
    assert elf.read_strings(table, offsets, 25) == want
    assert elf.read_strings(table, offsets, 24) is None
    assert elf.read_strings(table, [], 0) == []
    assert elf.read_strings(b"\xe9t\xe9", [0], 3) == ["\xe9t\xe9"]
    strings = elf.read_strings(table, offsets, 25)
    assert strings[0] is strings[3]


def test_read_strings_inside_one_long_run_stays_linear():
    # every offset of a NUL-free run: read one by one, n * n / 2 bytes
    n = 1 << 16
    start = time.perf_counter()
    assert elf.read_strings(b"x" * n, range(n), 4 * n) is None
    assert time.perf_counter() - start < 1.0


def _parsed(parse, blob: bytes):
    """``parse(blob)``, or the class and message of what it raised."""
    try:
        return parse(blob)
    except Exception as exc:  # compared with the other parser's, not swallowed
        return type(exc), str(exc)


@st.composite
def _seed_mutants(draw):
    which = draw(st.integers(0, len(_ELF_SEEDS) - 1))
    return mutate(_ELF_SEEDS[which], _ELF_FIELDS[which], SimpleNamespace(draw=draw))


_SECTIONS = st.builds(
    Sec, st.sampled_from(["", ".text", ".text.f", ".data", ".bss", ".comment", ".dynstr"]),
    st.binary(max_size=24),
    st.sampled_from([SHT_PROGBITS, SHT_NULL, SHT_NOBITS, SHT_STRTAB, SHT_DYNAMIC]),
    nobits_size=st.integers(0, 64))


@st.composite
def _written_images(draw):
    """An elfwriter image of either class, perhaps with extended
    numbering, headers wider than native or gaps between sections,
    and perhaps mutated as the seeds are."""
    bits = draw(st.sampled_from([32, 64]))
    native = 64 if bits == 64 else 40
    blob = build_elf(draw(st.lists(_SECTIONS, max_size=6)), bits=bits,
                     e_type=draw(st.sampled_from([ET_REL, ET_DYN])),
                     gap=draw(st.integers(0, 3)), extended=draw(st.booleans()),
                     shentsize=draw(st.sampled_from([native, native + 4, native + 24])))
    if draw(st.booleans()):
        blob = mutate(blob, elf_fields(blob), SimpleNamespace(draw=draw))
    return blob


@settings(max_examples=300, deadline=None)
@given(st.one_of(_written_images(), _seed_mutants()))
@example(_WIDE)
@example(build_elf([Sec(".text", CALL_STUB_TEXT), Sec(".bss", sh_type=SHT_NOBITS)],
                   extended=True))
@example(_NAMED_TO_END)
@example(_BSS_PAST_END)
@example(_BOTH_PAST_END)
@example(_BODY_PAST_END)
@example(_OVERLAPPING)
@example(_SHARED_NAME)
def test_one_pass_section_reader_agrees_with_per_header_reference(blob):
    # the image, and each body read from the file as the reference slices it
    assert _parsed(read_bytes, blob) == _parsed(elf_reference.read_bytes, blob)


# -- the ELF file read section by section -----------------------------------------
# elf.read_elf reads the headers with pread and no body, and a read that
# comes back short fails that read's bounds check.  An archive member is
# read at its offset, within its size, as the same bytes alone are read.

@pytest.fixture(scope="module")
def elf_path(tmp_path_factory):
    return tmp_path_factory.mktemp("elf") / "mutant"


def _read_elf_at(path) -> elf.ElfImage:
    with elf.open_file(path) as file:
        return elf.read_elf(file)


def _used(image: elf.ElfImage, file) -> tuple:
    """What sigscan and siggen read of an image from ``file``: its
    sections' bodies, its DT_NEEDED names, its version names, its .text
    key and its signatures with their warnings, each the exception it
    raises."""
    def signed(image):
        warnings: list[str] = []
        return siggen.sign_object(image, file, "m.o", warnings), warnings
    return tuple(_parsed(read, image) for read in (
        lambda image: [elf.read_body(file, section) for section in image.sections],
        lambda image: elf.dynamic_needed(image, file),
        lambda image: symver.parse_verdef(image, file),
        lambda image: sigdb.text_md5_key(image, file),
        signed))


# an archive member's header before it, and bytes after it that a read
# past its end would take
_BEFORE, _AFTER = b"!<arch>\n" + b"m" * 60, b"\x7fELF" + bytes(range(256)) * 4


@settings(max_examples=200, deadline=None)
@given(st.one_of(_seed_mutants(), _written_images()))
@example(_BODY_PAST_END)
@example(_OVERLAPPING)
def test_a_mutant_read_at_an_offset_reads_as_the_file_alone(elf_path, blob):
    elf_path.write_bytes(_BEFORE + blob + _AFTER)
    alone = _parsed(read_image, blob)
    with elf.open_file(elf_path) as file:
        member = _parsed(lambda file: elf.read_elf(file, len(_BEFORE), len(blob)), file)
        if not isinstance(alone, elf.ElfImage):
            assert member == alone
            return
        assert member._replace(sections=()) == alone._replace(sections=())
        assert member.sections == tuple(section._replace(offset=section.offset + len(_BEFORE))
                                        for section in alone.sections)
        assert _used(member, file) == read_with(blob, _used)


@pytest.mark.parametrize("seed", range(len(_ELF_SEEDS)))
def test_a_short_read_fails_the_bounds_check_of_that_read(tmp_path, monkeypatch, seed):
    blob = _ELF_SEEDS[seed]
    path = tmp_path / "seed"
    path.write_bytes(blob)
    image = read_image(blob)
    pread = os.pread
    reads = []
    cut, short = len(blob), None

    def stub_pread(fd, length, offset):
        # as if the file ended at ``cut``, with read number ``short`` a byte shorter
        data = pread(fd, max(min(length, cut - offset), 0), offset)
        reads.append((offset, length))
        return data[:-1] if len(reads) - 1 == short else data

    monkeypatch.setattr(os, "pread", stub_pread)
    assert _read_elf_at(path) == image
    # the header, section 0 under extended numbering, the table and the
    # name table, in that order, and no body
    names = get_section(image, ".shstrtab")
    extended = len(reads) - 3
    assert extended in (0, 1)
    assert reads[-1] == (names.offset, names.size)
    messages = (["truncated section header 0"] * extended
                + ["truncated section header table", "section name string table out of bounds"])
    ends = [offset + length for offset, length in reads[1:]]
    header = 64 if image.elf_class == "ELF64" else 52
    # one read alone short; an ELF32 header read short of 64 bytes still holds all 52
    for short in range(len(ends) + 1):
        reads.clear()
        want = ((MalformedElf, messages[short - 1]) if short else
                image if header < 64 else (MalformedElf, "truncated ELF header"))
        assert _parsed(_read_elf_at, path) == want
    # the file cut after fstat: the first read the cut reaches fails
    short = None
    for cut in range(len(blob)):
        if cut < 16:
            want = (elf.NotElf if cut < len(elf.ELF_MAGIC) else MalformedElf, "bad ELF magic")
        elif cut < header:
            want = (MalformedElf, "truncated ELF header")
        else:
            want = next(((MalformedElf, message) for message, end in zip(messages, ends)
                         if end > cut), image)
        assert _parsed(_read_elf_at, path) == want
    # a file that shrinks after the walk fails the body read, or the
    # window of a code section, that the cut reaches, with that
    # section's line
    monkeypatch.setattr(elf, "WINDOW", 4)
    for index, section in enumerate(image.sections):
        for shrunk in range(section.offset, section.offset + section.size):
            cut = len(blob)
            reads.clear()
            with elf.open_file(path) as file:
                walked = elf.read_elf(file)
                assert len(reads) == 3 + extended
                cut = shrunk
                with pytest.raises(MalformedElf, match=re.escape(
                        f"section {section.name!r} extends past end of file")):
                    if elf.is_text_section(section):
                        list(elf.read_windows(file, walked.sections[index]))
                    else:
                        elf.read_body(file, walked.sections[index])


@settings(max_examples=200, deadline=None)
@given(window=st.integers(1, 24), overlap=st.integers(0, 30), size=st.integers(0, 100),
       skip=st.integers(0, 7))
@example(window=8, overlap=3, size=11, skip=0)  # a body that fits, to the byte
@example(window=8, overlap=3, size=12, skip=0)  # one byte more: two windows
@example(window=8, overlap=0, size=16, skip=0)  # whole windows, no overlap
@example(window=8, overlap=3, size=0, skip=5)  # an empty body
def test_read_windows_cuts_a_body_every_window(window, overlap, size, skip):
    """The windows of a ``size``-byte body that starts ``skip`` bytes
    into its file."""
    data = bytes(range(256))[:skip + size]
    section = elf.Section(".text", offset=skip, size=size)
    with bytes_file(data) as file, mock.patch.object(elf, "WINDOW", window):
        windows = list(elf.read_windows(file, section, overlap))
    # a window starts every WINDOW bytes and reads the overlap more, and
    # its limit is WINDOW; the last one, the only one cut short, reaches
    # the end and keeps all it read
    assert [start for start, _, _ in windows] == list(range(0, window * len(windows), window))
    assert all(chunk == data[skip + start:skip + start + window + overlap]
               and len(chunk) == window + overlap and limit == window
               for start, chunk, limit in windows[:-1])
    start, chunk, limit = windows[-1]
    assert chunk == data[skip + start:] and limit == len(chunk) <= window + overlap
    # as few windows as that takes: a body of WINDOW plus the overlap or
    # fewer bytes, an empty one included, is read at once
    assert len(windows) == max(1, -(-(size - overlap) // window))


def test_open_file_refuses_a_fifo(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    with pytest.raises(OSError, match="not a regular file"):
        elf.open_file(fifo)


_AR_SEED = build_archive([("a.o", _ELF_SEEDS[0]), ("a_member_with_a_long_name.o", b"odd"),
                          ("another_long_member_name.o", b"\x7fELF"), ("b.o", b"")])
_AR_FIELDS = ar_fields(_AR_SEED)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_archive_mutations_raise_only_declared_errors(data):
    blob = mutate(_AR_SEED, _AR_FIELDS, data)
    parse_within_a_second(_read_archive_bytes, blob, MalformedArchive)

