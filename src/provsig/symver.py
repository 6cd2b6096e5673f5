"""GNU symbol-versioning extraction.

Reads the version-definition chain a shared library carries in its
``.gnu.version_d`` section and reports, for each recognized label such
as ``GLIBC`` or ``GLIBCXX``, the highest version the library defines.
Version names are read from the string table the section links to, by
the one rule of :func:`provsig.elf.linked_strtab`.  A name
``LABEL_x.y.z`` splits at its last ``_``: a version is ASCII digits
and dots, never ``_``, so the label is all that comes before.
Version components compare numerically, so 2.10 ranks above 2.9.
"""

from __future__ import annotations

import struct
from typing import BinaryIO

from provsig import elf
from provsig.elf import ElfImage

# Labels used by the common adopters of the versioning scheme: the GNU
# C/C++/Fortran/OpenMP runtimes, Myrinet MX/DAPL and InfiniBand Verbs.
DEFAULT_LABELS = ("GLIBC", "GLIBCXX", "GCC", "GFORTRAN", "GOMP",
                  "MX", "DAPL", "IBVERBS")

VER_FLG_BASE = 0x1

_VERDEF_SIZE = 20
_VERDAUX_SIZE = 8


class MalformedVerdef(ValueError):
    """Version-definition records that cannot be walked safely."""


def parse_verdef(image: ElfImage, file: BinaryIO) -> list[str]:
    """The version names the .gnu.version_d chain defines, in chain
    order, without the base (file) name; [] when the section is absent.
    Two bodies are read from ``file`` (:func:`provsig.elf.read_body`):
    the section's and its string table's.

    Iteration is bounded by the declared entry count (section sh_info,
    falling back to a size-derived cap).  No visited set is kept: the
    walk terminates because ``vd_next`` is unsigned and a zero link ends
    the chain, so every step moves forward inside ``data`` and a corrupt
    link, even one meant to wrap around, runs off the end and raises,
    within ``len(data)`` steps whatever sh_info declares.  The names are
    read once the chain is walked, by :func:`provsig.elf.read_strings`:
    names that total more than :data:`provsig.elf.STRING_BUDGET` times
    their string table raise.
    """
    section = elf.get_section(image, ".gnu.version_d")
    if section is None or not section.size:
        return []
    data = elf.read_body(file, section)
    strtab = elf.linked_strtab(image.sections, section, file)
    if strtab is None:
        raise MalformedVerdef("no string table for version names")

    declared = section.sh_info
    bound = declared if declared > 0 else len(data) // _VERDEF_SIZE
    offsets: list[int] = []  # of each version name, the base name's left out
    pos = 0
    for _ in range(bound):
        if pos + _VERDEF_SIZE > len(data):
            raise MalformedVerdef(f"truncated version definition at offset {pos}")
        _version, flags, _ndx, cnt, _hash, aux, nxt = struct.unpack_from("<HHHHIII", data, pos)
        if cnt < 1:
            raise MalformedVerdef(f"version definition at offset {pos} has no name record")
        aux_pos = pos + aux
        if aux_pos + _VERDAUX_SIZE > len(data):
            raise MalformedVerdef(f"bad auxiliary offset in definition at {pos}")
        name_off, _aux_next = struct.unpack_from("<II", data, aux_pos)
        if name_off >= len(strtab):
            raise MalformedVerdef(f"version name offset {name_off} out of range")
        if not flags & VER_FLG_BASE:
            offsets.append(name_off)
        if nxt == 0:
            break
        pos += nxt
    else:
        raise MalformedVerdef("version definition chain exceeds declared entry count")
    names = elf.read_strings(strtab, offsets, elf.STRING_BUDGET * len(strtab))
    if names is None:
        raise MalformedVerdef(f"version names total more than {elf.STRING_BUDGET} times "
                              f"their {len(strtab)}-byte string table")
    return names


def library_versions(image: ElfImage, file: BinaryIO,
                     known_labels=DEFAULT_LABELS) -> list[tuple[str, str]]:
    """``(label, version)`` of the highest defined version per known
    label, in known-label order; the names are read from ``file`` by
    :func:`parse_verdef`.

    A name counts if the part before its last ``_`` is a known label
    and the part after is ASCII-digit components joined by dots: names
    come from a string table decoded as latin-1, where ``²`` passes
    ``str.isdigit()`` but not ``int()``.  Versions compare componentwise
    and numerically, a missing component counting as zero: 2.10 ranks
    above 2.9, and of 2.1 and 2.1.0 the first defined is kept.
    """
    best: dict[str, tuple[tuple[int, ...], str]] = {}
    for name in parse_verdef(image, file):
        label, sep, version = name.rpartition("_")
        if not sep or label not in known_labels:
            continue
        components = version.split(".")
        if not all(c.isascii() and c.isdigit() for c in components):
            continue
        try:
            rank = tuple(map(int, components))
        except ValueError:  # more digits than int() converts
            continue
        while rank[-1:] == (0,):
            rank = rank[:-1]
        current = best.get(label)
        if current is None or rank > current[0]:
            best[label] = rank, version
    return [(label, best[label][1]) for label in known_labels if label in best]


def load_labels(path) -> list[str]:
    """Label list file: one label per line, blank lines and ``#`` comments
    ignored; a repeated label keeps its first place."""
    labels: dict[str, None] = {}
    for line in elf.read_file(path).decode("utf-8").splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        labels[stripped] = None
    return list(labels)
