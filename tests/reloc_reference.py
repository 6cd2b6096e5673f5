"""Per-section reference for :func:`provsig.elf.parse_relocations`.

The program reads an object's relocation tables in one pass and ties
each table to the code section its ``sh_info`` names.  The reference
here is the earlier algorithm: one call per code section, which walks
every section of the object for the tables named ``.rel<name>`` and
``.rela<name>`` and unpacks their entries one at a time.  Symbol names
are left out; nothing reads them.  The two agree on objects whose
section names are unique and whose tables' ``sh_info`` fields name
the section their names do.  The reference reads the object from its
bytes, by the per-header reference :mod:`elf_reference`.

Warnings are appended to a list of messages, as the program appends
them, so a test can compare the two lists.
"""

from __future__ import annotations

import struct
from operator import itemgetter

from provsig.elf import (
    _MASK_TABLES,
    MAX_MASK_LEN,
    SHT_REL,
    SHT_RELA,
    ElfImage,
    MalformedElf,
    list_text_sections,
)

import elf_reference


def section_relocations(data: bytes, image: ElfImage, text_name: str,
                        warnings: list[str]) -> list[tuple[int, int]]:
    """``(offset, mask_len)`` pairs patching the first section named
    ``text_name`` of ``image``, the image of ``data``, sorted by offset
    (ties in table order); appends each warning to ``warnings``."""
    if not image.is_relocatable:
        raise ValueError("relocation parsing requires a relocatable object")
    target = next((s for s in image.sections if s.name == text_name), None)
    if target is None:
        return []
    limit = target.size
    table = _MASK_TABLES.get(image.machine, {})
    is64 = image.elf_class == "ELF64"

    pairs: list[tuple[int, int]] = []
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
        body = data[rsec.offset:rsec.offset + rsec.size]
        if len(body) % entsize:
            raise MalformedElf(f"truncated relocation records in {rsec.name}")
        for off in range(0, len(body), entsize):
            fields = struct.unpack_from(fmt, body, off)
            r_offset, r_info = fields[0], fields[1]
            reloc_type = r_info & 0xFFFFFFFF if is64 else r_info & 0xFF
            if reloc_type == 0:
                continue
            mask_len = table.get(reloc_type)
            if mask_len is None:
                mask_len = MAX_MASK_LEN
                warnings.append("unknown relocation type %d in %s; masking %d bytes"
                                % (reloc_type, rsec.name, mask_len))
            if r_offset >= limit:
                warnings.append("relocation at 0x%x lies beyond %s (%d bytes); dropped"
                                % (r_offset, text_name, limit))
                continue
            if r_offset + mask_len > limit:
                mask_len = limit - r_offset
                warnings.append("relocation mask at 0x%x clamped to section end of %s"
                                % (r_offset, text_name))
            pairs.append((r_offset, mask_len))
    pairs.sort(key=itemgetter(0))
    return pairs


def object_relocations(data: bytes, warnings: list[str]) -> dict[str, list[tuple[int, int]]]:
    """:func:`section_relocations` for every code section of the object
    ``data`` holds, in file order."""
    image = elf_reference.parse_elf(data)
    return {section.name: section_relocations(data, image, section.name, warnings)
            for section in list_text_sections(image)}
