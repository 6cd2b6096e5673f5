"""Mutation harness shared by the parser fuzz tests.

A mutant of a seed file has up to three of its fields set to an odd
value (an ELF size, offset, count or index set to an extreme, an ar
member's name or size to one its reader must refuse or resolve), up to
four bytes flipped, and may be truncated.  Draws come from a Hypothesis ``data`` object, or from any
object with its ``draw`` method.
"""

from __future__ import annotations

import struct
import time

from hypothesis import strategies as st


def int_field(offset: int, width: int, data_len: int) -> tuple[int, tuple[bytes, ...]]:
    """A little-endian field and the extreme values it may be set to."""
    top = (1 << (8 * width)) - 1
    values = {0, 1, 2, 7, top, top - 1, top >> 1, (top >> 1) + 1,
              data_len & top, (data_len + 1) & top}
    return offset, tuple(v.to_bytes(width, "little") for v in sorted(values))


def elf_fields(data: bytes) -> list[tuple[int, tuple[bytes, ...]]]:
    """ELF header geometry plus every section header's name, type,
    offset, size, link, info and entsize fields (with extended numbering,
    the count is section 0's size)."""
    if data[4] == 2:
        shoff, = struct.unpack_from("<Q", data, 0x28)
        shentsize, shnum = struct.unpack_from("<HH", data, 0x3A)
        header = [(0x28, 8), (0x3A, 2), (0x3C, 2), (0x3E, 2)]
        per_section = [(0, 4), (4, 4), (24, 8), (32, 8), (40, 4), (44, 4), (56, 8)]
        shnum = shnum or struct.unpack_from("<Q", data, shoff + 32)[0]
    else:
        shoff, = struct.unpack_from("<I", data, 0x20)
        shentsize, shnum = struct.unpack_from("<HH", data, 0x2E)
        header = [(0x20, 4), (0x2E, 2), (0x30, 2), (0x32, 2)]
        per_section = [(0, 4), (4, 4), (16, 4), (20, 4), (24, 4), (28, 4), (36, 4)]
        shnum = shnum or struct.unpack_from("<I", data, shoff + 20)[0]
    spots = header + [(shoff + i * shentsize + off, width)
                      for i in range(shnum) for off, width in per_section]
    return [int_field(off, width, len(data)) for off, width in spots]


_AR_NAMES = ("/", "//", "/0", "/-1", "/+0", "/ 0", "/99999", "/1_0", "#1/5", "",
             "/SYM64/", "x/", "\xb2")
_AR_SIZES = ("0", "1", "-1", "-60", "+4", "1_0", "", " 7", "9999999999", "0x10", "\xb2")


def ar_fields(data: bytes) -> list[tuple[int, tuple[bytes, ...]]]:
    """Each member header's name and size field, with odd values for both."""
    fields = []
    pos = 8
    while pos < len(data):
        size = int(data[pos + 48:pos + 58])
        fields.append((pos, tuple(n.ljust(16).encode("latin-1") for n in _AR_NAMES)))
        fields.append((pos + 48, tuple(s.ljust(10).encode("latin-1") for s in _AR_SIZES)))
        pos += 60 + size + size % 2
    return fields


def mutate(seed: bytes, fields, data) -> bytes:
    """A mutant of ``seed``; ``fields`` lists (offset, replacement values)."""
    blob = bytearray(seed)
    for offset, choices in data.draw(st.lists(st.sampled_from(fields), max_size=3)):
        value = data.draw(st.sampled_from(choices))
        blob[offset:offset + len(value)] = value
    for pos, mask in data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                                  st.integers(1, 255)), max_size=4)):
        blob[pos] ^= mask
    cut = data.draw(st.one_of(st.none(), st.integers(0, len(blob))))
    return bytes(blob[:cut])


def parse_within_a_second(parse, blob, errors) -> None:
    """Run ``parse(blob)``, which may raise only ``errors`` and must end
    within a second."""
    start = time.perf_counter()
    try:
        parse(blob)
    except errors:
        pass
    assert time.perf_counter() - start < 1.0
