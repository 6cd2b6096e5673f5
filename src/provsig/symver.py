"""GNU symbol-versioning extraction.

Reads the version-definition chain a shared library carries in its
``.gnu.version_d`` section and reports, for each recognized label such
as ``GLIBC`` or ``GLIBCXX``, the highest version the library defines.
Version components compare numerically, so 2.10 ranks above 2.9.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

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


@dataclass(frozen=True)
class VersionDef:
    name: str
    is_base: bool


@dataclass(frozen=True)
class LabelVersion:
    label: str
    version: str
    numeric: tuple[int, ...]


def parse_verdef(image: ElfImage) -> list[VersionDef]:
    """Walk the .gnu.version_d record chain; [] when the section is absent.

    Iteration is bounded by the declared entry count (section sh_info,
    falling back to a size-derived cap).  No visited set is kept: the
    walk terminates because ``vd_next`` is unsigned and a zero link ends
    the chain, so every step moves forward inside ``data`` and a corrupt
    link, even one meant to wrap around, runs off the end and raises,
    within ``len(data)`` steps whatever sh_info declares.
    """
    section = elf.get_section(image, ".gnu.version_d")
    if section is None:
        return []
    data = section.data
    if not data:
        return []

    strtab = None
    link = section.sh_link
    if 0 < link < len(image.sections):
        strtab = image.sections[link].data
    if strtab is None:
        dynstr = elf.get_section(image, ".dynstr")
        if dynstr is None:
            raise MalformedVerdef("no string table for version names")
        strtab = dynstr.data

    declared = section.sh_info
    bound = declared if declared > 0 else len(data) // _VERDEF_SIZE
    defs: list[VersionDef] = []
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
        end = strtab.find(b"\x00", name_off)
        if end == -1:
            end = len(strtab)
        name = strtab[name_off:end].decode("latin-1")
        defs.append(VersionDef(name=name, is_base=bool(flags & VER_FLG_BASE)))
        if nxt == 0:
            return defs
        pos += nxt
    raise MalformedVerdef("version definition chain exceeds declared entry count")


def split_label(def_name: str, known_labels: list[str]) -> LabelVersion | None:
    """Split ``LABEL_x.y.z`` into its parts, or None if the label is
    unknown or the version is not all-numeric.

    Components are ASCII digits: names come from a library's string
    table, decoded as latin-1, where ``²`` passes ``str.isdigit()`` but
    not ``int()``.
    """
    for label in known_labels:
        prefix = label + "_"
        if not def_name.startswith(prefix):
            continue
        version = def_name[len(prefix):]
        components = version.split(".")
        if all(c.isascii() and c.isdigit() for c in components):
            try:
                numeric = tuple(int(c) for c in components)
            except ValueError:  # more digits than int() converts
                continue
            return LabelVersion(label=label, version=version, numeric=numeric)
    return None


def library_versions(image: ElfImage, known_labels=DEFAULT_LABELS) -> list[LabelVersion]:
    """Highest defined version per known label, in known-label order.

    Versions compare componentwise and numerically, a missing component
    counting as zero: 2.10 ranks above 2.9, and of 2.1 and 2.1.0 the
    first defined is kept.
    """
    best: dict[str, tuple[tuple[int, ...], LabelVersion]] = {}
    for vdef in parse_verdef(image):
        if vdef.is_base:
            continue
        parsed = split_label(vdef.name, known_labels)
        if parsed is None:
            continue
        rank = parsed.numeric
        while rank[-1:] == (0,):
            rank = rank[:-1]
        current = best.get(parsed.label)
        if current is None or rank > current[0]:
            best[parsed.label] = rank, parsed
    return [best[label][1] for label in known_labels if label in best]


def load_labels(path) -> list[str]:
    """Label list file: one label per line, blank lines and ``#`` comments
    ignored."""
    labels: list[str] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        labels.append(stripped)
    return labels
