"""siggen module: masking, pattern building, object/library/comment signing,
and the pattern text grammar that ``provsig.sigdb`` holds."""

from __future__ import annotations

import hashlib
import os
import random
import struct
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from provsig import elf, matcher, sigdb
from provsig.sigdb import (
    TARGET_COMMENT,
    TARGET_DYNLIB,
    TARGET_TEXT,
    HexPattern,
    MalformedSigFile,
    Signature,
    SignatureFile,
    parse_pattern_text,
    parse_sigfile,
    pattern_to_text,
    text_md5_key,
    write_sigfile,
)
from provsig.siggen import (
    MIN_PATTERN_POSITIONS,
    NO_TEXT,
    TOO_SHORT,
    UNANCHORABLE,
    Rejected,
    build_pattern,
    sign_archive,
    sign_comments,
    sign_object,
    sign_shared_lib,
    unique_name,
)

import pattern_reference
from pattern_reference import (
    ANY,
    NO_RELOCS,
    Gap,
    contract_relocs,
    expand,
    from_elements,
    reader_relocs,
    well_formed,
)
from elfbytes import bytes_file, read_image, read_with
from elfwriter import (
    R_X86_64_PC32,
    SHT_REL,
    SHT_RELA,
    Sec,
    build_archive,
    build_elf,
    build_object,
    build_shared_lib,
)

CALL_STUB_TEXT = bytes.fromhex(
    "554889e54883ec10bf0a000000e800000000488945f8c9c3")
CALL_STUB_PATTERN = "554889e54883ec10bf0a000000e8????????488945f8c9c3"


def _segment_layout(n: int) -> tuple[list[tuple[int, int]], list[int]]:
    """Independent recomputation: the three sampled ranges are the tails
    of each third of [0, n); gap lengths follow from their distances."""
    third = n // 3
    segments = [(third - 85, third), (2 * third - 85, 2 * third), (n - 85, n)]
    gaps = [segments[1][0] - segments[0][1], segments[2][0] - segments[1][1]]
    return segments, gaps


def _kinds(pattern: HexPattern) -> list[tuple[str, int]]:
    """The pattern's stretches in order: literal runs (``lit``), ``??``
    runs (``any``) and gaps (``gap``), each with its length in bytes."""
    parts = [(offset, "lit", len(literal))
             for offset, literal in zip(pattern.offsets, pattern.literals)]
    parts += [(offset, "gap", length) for offset, length in pattern.gaps]
    shape = []
    pos = 0
    for offset, kind, length in sorted(parts):
        if offset > pos:
            shape.append(("any", offset - pos))
        shape.append((kind, length))
        pos = offset + length
    if pattern.span > pos:
        shape.append(("any", pattern.span - pos))
    return shape


def _maximal(pattern: HexPattern) -> bool:
    """Every literal run is non-empty, and no two runs and no two gaps
    abut, so the runs and gaps are those of the pattern's text."""
    run_ends = [offset + len(literal) for offset, literal in zip(pattern.offsets, pattern.literals)]
    gap_ends = [offset + length for offset, length in pattern.gaps]
    return all(pattern.literals) \
        and all(end < offset for end, offset in zip(run_ends, pattern.offsets[1:])) \
        and all(end < offset for end, (offset, _) in zip(gap_ends, pattern.gaps[1:]))


# -- masking -----------------------------------------------------------------

def test_mask_none():
    data = bytes(range(20))
    # an empty pair masks nothing, inside the section or past it
    for relocs in ([], [(5, 0)], [(0, 0), (20, 0), (30, 0)]):
        assert build_pattern(data, reader_relocs(len(data), relocs)) == \
            HexPattern(20, (0,), (data,), ())


def test_mask_overlapping_union():
    pattern = build_pattern(bytes(range(20)), contract_relocs([(4, 4), (6, 4)]))
    assert _kinds(pattern) == [("lit", 4), ("any", 6), ("lit", 10)]


def test_mask_merges_abutting_and_clips_to_section():
    data = bytes(range(24))
    relocs = [(20, 8), (2, 2), (-3, 4), (4, 2), (30, 4), (13, 1), (12, 4)]
    # masked: [0, 1), [2, 6), [12, 16), [20, 24); the edge wildcards are trimmed
    assert build_pattern(data, reader_relocs(len(data), relocs)) == HexPattern(
        19, (0, 5, 15), (data[1:2], data[6:12], data[16:20]), ())


# -- build_pattern -----------------------------------------------------------

def test_pattern_call_stub_exact():
    pattern = build_pattern(CALL_STUB_TEXT, contract_relocs([(0x0E, 4)]))
    assert isinstance(pattern, HexPattern)
    assert pattern_to_text(pattern) == CALL_STUB_PATTERN
    assert sum(map(len, pattern.literals)) == 20
    assert pattern.span == 24


def test_pattern_too_short_boundary():
    assert build_pattern(b"\x90" * 15, NO_RELOCS) == Rejected(TOO_SHORT)
    assert isinstance(build_pattern(b"\x90" * 16, NO_RELOCS), HexPattern)


def test_pattern_300_bytes_segments():
    rng = random.Random(7)
    data = bytes(rng.randrange(256) for _ in range(300))
    pattern = build_pattern(data, NO_RELOCS)
    # frozen from the independent layout computation: tails of the three
    # thirds of [0, 300) are [15,100), [115,200), [215,300); gaps 15, 15
    assert _segment_layout(300) == ([(15, 100), (115, 200), (215, 300)], [15, 15])
    assert _kinds(pattern) == [("lit", 85), ("gap", 15), ("lit", 85),
                                       ("gap", 15), ("lit", 85)]
    assert pattern == (285, (0, 100, 200), (data[15:100], data[115:200], data[215:300]),
                       ((85, 15), (185, 15)))


def test_pattern_256_boundary_zero_gap_merges():
    data = bytes((i * 37 + 11) % 256 for i in range(256))
    pattern = build_pattern(data, NO_RELOCS)
    # third = 85 so the first gap is zero: segments one and two abut
    assert _kinds(pattern) == [("lit", 170), ("gap", 1), ("lit", 85)]
    assert pattern == (256, (0, 171), (data[0:170], data[171:256]), ((170, 1),))


def test_pattern_whole_section_below_cap():
    data = bytes(range(255))
    pattern = build_pattern(data, NO_RELOCS)
    assert _kinds(pattern) == [("lit", 255)]
    assert pattern.span == 255


def test_pattern_edge_wildcards_trimmed():
    data = bytes(range(30))
    pattern = build_pattern(data, contract_relocs([(0, 4), (26, 4)]))
    assert _kinds(pattern) == [("lit", 22)]
    assert pattern[1:] == ((0,), (data[4:26],), ())


def test_pattern_trimming_rechecks_minimum():
    data = bytes(range(20))
    assert build_pattern(data, contract_relocs([(0, 4), (17, 3)])) == Rejected(TOO_SHORT)


def test_pattern_interior_wildcards_counted_as_positions():
    data = bytes(range(18))
    pattern = build_pattern(data, contract_relocs([(4, 8)]))
    assert _kinds(pattern) == [("lit", 4), ("any", 8), ("lit", 6)]
    assert sum(1 for e in expand(pattern) if not isinstance(e, Gap)) == 18


def test_pattern_all_masked_section_rejected():
    data = bytes(range(64))
    relocs = [(0, 8)] + [(o, 8) for o in range(0, 64, 8)]
    assert build_pattern(data, contract_relocs(relocs)) == Rejected(TOO_SHORT)


def test_pattern_unanchorable_rejected():
    # every second byte masked: no two adjacent literals anywhere
    data = bytes(range(40))
    relocs = [(o, 1) for o in range(1, 40, 2)]
    assert build_pattern(data, contract_relocs(relocs)) == Rejected(UNANCHORABLE)


def test_pattern_masked_segment_abutting_its_neighbour_stays_wildcards():
    # n = 256: the first gap is zero, so segments one and two form one
    # run; with the second one masked the run is not wildcards throughout
    # and its 85 ?? stay, ahead of the 1-byte gap before segment three
    data = bytes((i * 37 + 11) % 256 for i in range(256))
    pattern = build_pattern(data, reader_relocs(len(data), [(85, 85)]))
    assert _kinds(pattern) == [("lit", 85), ("any", 85), ("gap", 1), ("lit", 85)]
    assert pattern.span == 256


def test_pattern_masked_middle_segment_dissolves_into_gap():
    data = bytes((i * 13 + 5) % 256 for i in range(300))
    relocs = [(o, 8) for o in range(112, 200, 8)] + [(196, 4)]
    pattern = build_pattern(data, contract_relocs(relocs))
    assert _kinds(pattern) == [("lit", 85), ("gap", 115), ("lit", 85)]
    assert pattern.span == 285


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=256, max_value=10 ** 6))
def test_truncation_tiling_property(n):
    third = n // 3
    gap_l = third - 85
    gap_m = gap_l + n % 3
    segments, gaps = _segment_layout(n)
    assert gaps == [gap_l, gap_m]
    assert segments[0][0] + (85 + gap_l + 85 + gap_m + 85) == n
    assert segments[2][1] == n


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=256, max_value=20000))
def test_segment_placement_matches_independent_layout(n):
    rng = random.Random(n)
    data = bytes(rng.randrange(256) for _ in range(n))
    pattern = build_pattern(data, NO_RELOCS)
    segments, gaps = _segment_layout(n)
    expected_runs = [data[a:b] for a, b in segments]
    if gaps[0] == 0:
        expected_runs = [expected_runs[0] + expected_runs[1], expected_runs[2]]
        expected_gaps = [gaps[1]]
    else:
        expected_gaps = gaps
    assert list(pattern.literals) == expected_runs
    assert [length for _, length in pattern.gaps] == expected_gaps


@st.composite
def _section_with_relocs(draw):
    data = draw(st.binary(min_size=16, max_size=700))
    count = draw(st.integers(min_value=0, max_value=6))
    relocs = []
    for _ in range(count):
        offset = draw(st.integers(min_value=0, max_value=max(len(data) - 1, 0)))
        mask = draw(st.sampled_from([1, 2, 4, 8]))
        relocs.append((offset, mask))
    return data, reader_relocs(len(data), relocs)


@settings(max_examples=200, deadline=None)
@given(_section_with_relocs())
# literal runs of one byte (unanchorable), and of two: the shortest anchor
@example((bytes(range(40)), contract_relocs([(o, 1) for o in range(1, 40, 2)])))
@example((bytes(range(40)), contract_relocs([(o, 1) for o in range(2, 40, 3)])))
def test_generated_pattern_well_formed(case):
    data, relocs = case
    result = build_pattern(data, relocs)
    if isinstance(result, Rejected):
        assert result.reason in (TOO_SHORT, UNANCHORABLE)
        return
    assert _maximal(result)
    # the first and last positions are literal
    assert result.offsets[0] == 0
    assert result.offsets[-1] + len(result.literals[-1]) == result.span
    positions = result.span - sum(length for _, length in result.gaps)
    assert MIN_PATTERN_POSITIONS <= positions <= 255
    # a database holds it: the writer takes it and the reader reads it back
    sf = SignatureFile("P", "1", (Signature("s.o:.text", TARGET_TEXT, result),))
    assert parse_sigfile(write_sigfile(sf)) == sf


@settings(max_examples=200, deadline=None)
@given(_section_with_relocs())
def test_generated_pattern_matches_source_section(case):
    data, relocs = case
    result = build_pattern(data, relocs)
    if isinstance(result, Rejected):
        return
    engine = matcher.compile([result])
    assert len(matcher.scan_all(engine, data)) >= 1


def _segment_ranges(n: int) -> list[tuple[int, int]]:
    return [(0, n)] if n <= 255 else _segment_layout(n)[0]


@st.composite
def _masked_sections(draw):
    """A section of 0-3000 bytes (255-258 forced often) with relocations,
    in any order, that cover whole segments, part of a segment, every
    second byte of a segment, or a cluster of spans that overlap, abut,
    nest or are empty, near the section start, near its end or anywhere,
    some starting before the section or running past its end."""
    n = draw(st.one_of(st.sampled_from([255, 256, 257, 258]), st.integers(0, 80),
                       st.integers(16, 3000)))
    data = random.Random(draw(st.integers(0, 2 ** 32))).randbytes(n)
    relocs: list[tuple[int, int]] = []
    for lo, hi in _segment_ranges(n):
        how = draw(st.sampled_from(["none", "whole", "head", "tail", "alternate"]))
        cut = draw(st.integers(lo, hi))
        if how == "whole":
            relocs.append((lo, hi - lo))
        elif how == "head":
            relocs.append((lo, cut - lo))
        elif how == "tail":
            relocs.append((cut, hi - cut))
        elif how == "alternate":
            relocs += [(i, 1) for i in range(lo + draw(st.integers(0, 1)), hi, 2)]
    base = draw(st.one_of(st.integers(-10, 10), st.integers(n - 20, n + 5), st.integers(0, n)))
    relocs += draw(st.lists(st.tuples(st.integers(base, base + 16), st.integers(0, 12)),
                            max_size=10))
    return data, draw(st.permutations(relocs))


def _relocs_around_segments() -> tuple[bytes, list[tuple[int, int]]]:
    """A 3,000-byte section with hundreds of 4-byte relocations, in no
    order, that all stay outside the three kept segments, plus a 48-byte
    mask starting 47 bytes before the first and the last segment (so the
    last of its 8-byte reader pieces starts 7 bytes before each and
    reaches 1 byte into it) and a 4-byte mask ending exactly where the
    second one starts."""
    n = 3000
    (lo0, _), (lo1, _), (lo2, _) = ranges = _segment_layout(n)[0]
    relocs = [(o, 4) for o in range(0, n - 4, 6)
              if not any(lo - 4 < o < hi for lo, hi in ranges)]
    relocs += [(lo0 - 47, 48), (lo1 - 4, 4), (lo2 - 47, 48)]
    rng = random.Random(n)
    rng.shuffle(relocs)
    return rng.randbytes(n), relocs


@settings(max_examples=400, deadline=None)
@given(_masked_sections())
@example(_relocs_around_segments())
@example((CALL_STUB_TEXT, [(0x0E, 4)]))
@example((b"\x90" * 10, []))
@example((b"\x90" * 20, [(4, 4), (6, 4)]))
@example((b"\x90" * 20, [(16, 8), (2, 2), (-3, 4), (4, 2), (30, 4)]))
# n = 256 and 257: the first two segments abut and are kept as one range
@example((random.Random(256).randbytes(256), []))
@example((random.Random(257).randbytes(257), [(0, 5), (80, 10), (168, 4)]))
# the first kept segment starts masked, so the pattern starts past it;
# then the first segment is masked throughout and the second starts masked
@example((random.Random(300).randbytes(300), [(10, 9), (150, 2)]))
@example((random.Random(300).randbytes(300), [(15, 85), (115, 3)]))
def test_build_pattern_agrees_with_seven_pass_reference(case):
    data, relocs = case
    got = build_pattern(data, reader_relocs(len(data), relocs))
    want = pattern_reference.build_pattern(
        data, pattern_reference.mask_positions(len(data), relocs))
    if isinstance(want, Rejected):
        assert got == want
    else:
        assert expand(got) == want
        assert _maximal(got)
        assert all(got.literals)  # no empty run from an empty pair


def test_anchor_longest_literal_run_earliest_on_ties():
    pattern = parse_pattern_text("01??0203{4}0405??060708??090a0b")
    assert matcher.compile([pattern]).keys == ((b"\x06\x07\x08", 11),)


# -- sign_object / sign_archive ----------------------------------------------

def test_sign_object_call_stub():
    data = build_object(CALL_STUB_TEXT, {".text": [(0x0E, R_X86_64_PC32, "malloc")]})
    sigs, rejects = read_with(data, sign_object, "stub.o", [])
    assert rejects == []
    assert len(sigs) == 1
    assert sigs[0].name == "stub.o:.text"
    assert sigs[0].target == TARGET_TEXT
    assert pattern_to_text(sigs[0].pattern) == CALL_STUB_PATTERN


def _rela_text(offset: int, info: int) -> Sec:
    """A .rela.text with one PC32 entry, tied to section ``info``."""
    return Sec(".rela.text", struct.pack("<QQq", offset, R_X86_64_PC32, 0),
               sh_type=SHT_RELA, info=info)


def test_sign_object_masks_each_same_named_section_with_its_own_table():
    data = build_elf([Sec(".text", bytes(range(48))), Sec(".text", bytes(range(100, 148))),
                      _rela_text(4, info=1), _rela_text(40, info=2)])
    sigs, rejects = read_with(data, sign_object, "twin.o", [])
    assert rejects == []
    assert [s.name for s in sigs] == ["twin.o:.text", "twin.o:.text#2"]
    assert [pattern_to_text(s.pattern) for s in sigs] == [
        bytes(range(4)).hex() + "????????" + bytes(range(8, 48)).hex(),
        bytes(range(100, 140)).hex() + "????????" + bytes(range(144, 148)).hex()]


@pytest.mark.parametrize("table", [
    Sec(".rela.text", bytes(23), sh_type=SHT_RELA, info=0),  # truncated, names no code
    Sec(".rela.data", bytes(23), sh_type=SHT_RELA, info=5),  # truncated, names .data
    _rela_text(8, info=8),                                   # sh_info == e_shnum
    _rela_text(8, info=0xFFFFFFFF),
])
def test_sign_object_ignores_table_naming_no_code_section(table):
    data = build_object(CALL_STUB_TEXT, {".text": [(0x0E, R_X86_64_PC32, "malloc")]},
                        extra=[Sec(".data", bytes(8)), table])
    assert len(read_image(data).sections) == 8
    sigs, rejects = read_with(data, sign_object, "stub.o", [])
    assert rejects == []
    assert [pattern_to_text(s.pattern) for s in sigs] == [CALL_STUB_PATTERN]


def test_sign_object_short_section_skipped():
    data = build_object({".text.a": b"\xab" * 20, ".text.b": b"\xcd" * 10})
    sigs, rejects = read_with(data, sign_object, "obj.o", [])
    assert [s.name for s in sigs] == ["obj.o:.text.a"]
    assert [(r.name, r.reason) for r in rejects] == [("obj.o:.text.b", TOO_SHORT)]


def test_sign_object_rejects_a_short_section_without_reading_it(tmp_path, monkeypatch):
    data = build_object({".text.a": b"\xab" * 20, ".text.b": b"\xcd" * 15,
                         ".text.c": b"\xef" * MIN_PATTERN_POSITIONS})
    read_body, read = elf.read_body, []

    def spy(file, section, *args):
        read.append(section.name)
        return read_body(file, section, *args)

    monkeypatch.setattr(elf, "read_body", spy)
    sigs, rejects = read_with(data, sign_object, "obj.o", [])
    assert [s.name for s in sigs] == ["obj.o:.text.a", "obj.o:.text.c"]
    assert [(r.name, r.reason) for r in rejects] == [("obj.o:.text.b", TOO_SHORT)]
    assert read == [".text.a", ".text.c"]
    # cut after the walk inside the short section's body, the object
    # fails at the first body read that the cut reaches
    path = tmp_path / "obj.o"
    path.write_bytes(data)
    with elf.open_file(path) as file:
        image = elf.read_elf(file)
        os.truncate(path, elf.get_section(image, ".text.b").offset + 1)
        with pytest.raises(elf.MalformedElf, match="section '.text.c' extends past end of file"):
            sign_object(image, file, "obj.o", [])


def test_sign_object_empty_text():
    sigs, rejects = read_with(build_object(b""), sign_object, "empty.o", [])
    assert sigs == []
    assert rejects[0].reason == TOO_SHORT


def _sign_archive(pairs, origin_name: str, warnings: list[str]):
    """sign_archive over an archive of ``(name, data)`` members, in a file
    read by elf.read_archive."""
    with bytes_file(build_archive(pairs)) as file:
        return sign_archive(elf.read_archive(file), file, origin_name, warnings)


def test_sign_archive_additivity():
    members = [(f"m{i}.o", build_object(bytes((i + j) % 256 for j in range(32))))
               for i in range(3)]
    sigs, reports = _sign_archive(members, "libx.a", [])
    assert len(sigs) == 3
    assert [s.name for s in sigs] == [f"libx.a/m{i}.o:.text" for i in range(3)]
    assert reports == []


def test_sign_archive_skips_non_elf_member():
    members = [("script.ld", b"GROUP ( libfoo.a )\n"),
               ("real.o", build_object(b"\x42" * 24))]
    sigs, reports = _sign_archive(members, "lib.a", [])
    assert [s.name for s in sigs] == ["lib.a/real.o:.text"]
    assert any("script.ld" in r.name for r in reports)


def test_sign_archive_skips_member_with_malformed_relocation_table():
    bad = build_object(b"\x42" * 24,
                       extra=[Sec(".rela.text", bytes(23), sh_type=SHT_RELA, info=1)])
    members = [("good.o", build_object(b"\x24" * 24)), ("bad.o", bad),
               ("notes.txt", b"plain text")]
    sigs, reports = _sign_archive(members, "lib.a", [])
    assert [s.name for s in sigs] == ["lib.a/good.o:.text"]
    assert reports == [
        Rejected("unparseable: truncated relocation records in .rela.text", "lib.a/bad.o"),
        Rejected("not an ELF object", "lib.a/notes.txt")]


def test_sign_archive_hands_back_member_warnings_in_order():
    # bad.o warns, then its second table is cut short: its warning stays
    far = build_object(b"\x24" * 24, {".text": [(30, R_X86_64_PC32, "f")]})
    bad = build_object(b"\x42" * 24, {".text": [(26, R_X86_64_PC32, "g")]},
                       extra=[Sec(".rel.text", bytes(19), sh_type=SHT_REL, info=1)])
    warnings: list[str] = []
    sigs, reports = _sign_archive([("far.o", far), ("bad.o", bad)], "lib.a", warnings)
    assert [s.name for s in sigs] == ["lib.a/far.o:.text"]
    assert reports == [
        Rejected("unparseable: truncated relocation records in .rel.text", "lib.a/bad.o")]
    assert warnings == ["relocation at 0x1e lies beyond .text (24 bytes); dropped",
                        "relocation at 0x1a lies beyond .text (24 bytes); dropped"]


def test_sign_archive_duplicate_member_names_numbered():
    members = [("a.o", build_object(bytes((i * 7 + j) % 256 for j in range(32))))
               for i in range(3)] + [("b.o", b"not elf")]
    sigs, reports = _sign_archive(members, "lib.a", [])
    assert [s.name for s in sigs] == \
        ["lib.a/a.o:.text", "lib.a/a.o#2:.text", "lib.a/a.o#3:.text"]
    assert reports == [Rejected("not an ELF object", "lib.a/b.o")]


def test_unique_name_counts_each_name_separately():
    seen: dict[str, int] = {}
    assert [unique_name(n, seen) for n in ("x", "y", "x", "x", "y")] == \
        ["x", "y", "x#2", "x#3", "y#2"]
    # a name already given out, as a member "a.o#2" may be, is never reused
    seen = {}
    assert [unique_name(n, seen) for n in ("a.o", "a.o#2", "a.o", "a.o#3", "a.o#2")] == \
        ["a.o", "a.o#2", "a.o#3", "a.o#3#2", "a.o#2#2"]


def test_sign_archive_empty():
    assert _sign_archive([], "lib.a", []) == ([], [])


def test_sign_archive_names_fold_into_object_section():
    obj = build_object({".text.baz": b"\x55" * 24})
    members = [("bar.o", obj)]
    sigs, _ = _sign_archive(members, "libfoo.a", [])
    assert sigs[0].name == "libfoo.a/bar.o:.text.baz"


def test_sign_object_elf32_rel_masking():
    from elfwriter import EM_386, R_386_PC32
    data = bytes((3 * i + 1) % 256 for i in range(32))
    obj = build_object(data, {".text": [(10, R_386_PC32, "puts")]},
                       bits=32, machine=EM_386, rela=False)
    sigs, rejects = read_with(obj, sign_object, "unit.o", [])
    assert rejects == []
    shape = pattern_to_text(sigs[0].pattern)
    assert shape == data[:10].hex() + "????????" + data[14:].hex()


# -- sign_shared_lib ----------------------------------------------------------

def test_sign_shared_lib_empty_text_is_rfc_vector():
    sig = read_with(build_shared_lib(text=b""), sign_shared_lib, "libempty.so")
    assert sig.target == TARGET_DYNLIB
    # RFC 1321 empty-message digest
    assert sig.digest == "d41d8cd98f00b204e9800998ecf8427e"
    assert sig.text_size == 0


def test_sign_shared_lib_ignores_everything_outside_text():
    text = bytes(range(64))
    plain = build_shared_lib(text=text, comment=b"one\x00")
    noisy = build_shared_lib(text=text, comment=b"other!\x00", versions=["GLIBC_2.3"],
                             needed=["libm.so.6"])
    assert read_with(plain, sign_shared_lib, "lib.so") == \
        read_with(noisy, sign_shared_lib, "lib.so")


def test_sign_shared_lib_sensitive_to_text():
    text = bytearray(range(64))
    a = read_with(build_shared_lib(text=bytes(text)), sign_shared_lib, "l.so")
    text[10] ^= 0xFF
    b = read_with(build_shared_lib(text=bytes(text)), sign_shared_lib, "l.so")
    assert a.digest != b.digest
    assert hashlib.md5(bytes(text)).hexdigest() == b.digest


def test_sign_shared_lib_requires_text():
    blob = build_shared_lib(text=b"").replace(b".text", b".tex_")
    assert read_with(blob, text_md5_key) is None
    assert read_with(blob, sign_shared_lib, "x.so") == Rejected(NO_TEXT)


def test_text_md5_key_without_builtin_md5_takes_a_non_security_digest(monkeypatch):
    # an interpreter built without _md5 takes the digest from hashlib;
    # an OpenSSL in FIPS mode refuses MD5 unless told it guards nothing
    text = bytes(range(64))
    blob = build_shared_lib(text=text)
    want = (hashlib.md5(text).hexdigest(), len(text))
    assert read_with(blob, text_md5_key) == want
    openssl_md5 = hashlib.md5
    calls = []

    def fips_md5(data=b"", *, usedforsecurity=True):
        calls.append(usedforsecurity)
        if usedforsecurity:
            raise ValueError("[digital envelope routines] unsupported")
        return openssl_md5(data, usedforsecurity=False)

    monkeypatch.setitem(sys.modules, "_md5", None)
    monkeypatch.setattr(hashlib, "md5", fips_md5)
    assert read_with(blob, text_md5_key) == want
    assert calls == [False]


# -- sign_comments ------------------------------------------------------------

def test_sign_comments_vendor_string():
    sigs = sign_comments(["GCC: (GNU) 4.1.2 20080704 (Red Hat 4.1.2-50)"], "a.out")
    assert len(sigs) == 1
    assert sigs[0].target == TARGET_COMMENT
    vendor = b"GCC: (GNU) 4.1.2 20080704 (Red Hat 4.1.2-50)"
    assert sigs[0].pattern == HexPattern(len(vendor), (0,), (vendor,), ())


def test_sign_comments_floor_and_dedup():
    assert sign_comments(["abc"], "a") == []
    assert len(sign_comments(["abcd"], "a")) == 1
    assert len(sign_comments(["same", "same"], "a")) == 1


# -- pattern text syntax -------------------------------------------------------

def test_pattern_text_round_trip():
    pattern = HexPattern(17, (0, 15), (b"\x55\x48", b"\xc9\xc3"), ((3, 12),))
    text = pattern_to_text(pattern)
    assert text == "5548??{12}c9c3"
    assert parse_pattern_text(text) == pattern
    assert parse_pattern_text("55 48 ?? {12} c9 c3") == pattern


@pytest.mark.parametrize("bad", [
    "", "5", "5g", "{3}aabb", "aabb{3}", "aa{3}{4}bb", "aa{0}bb", "aa{}bb",
    "aa{x}bb", "?a", "AA bb", "aabbcc{\u00b2}ddeeff", "aa{\u0663}bb", "aa{ 3}bb",
    "a a", "??{3} ", "aa{3", "aa}3{bb",
    pytest.param("aa{" + "1" * 5000 + "}bb", id="gap-beyond-int-digit-limit"),
])
def test_pattern_text_rejects(bad):
    with pytest.raises(MalformedSigFile):
        parse_pattern_text(bad)


def test_parsed_patterns_equal_and_hash_like_built_ones():
    first = parse_pattern_text("aa??{5}bb")
    fresh = HexPattern(8, (0, 7), (b"\xaa", b"\xbb"), ((2, 5),))
    assert first == fresh and hash(first) == hash(fresh)
    assert len({first: 1, fresh: 2, parse_pattern_text("aa ?? {5} bb"): 3}) == 1


def test_pattern_text_spaces_runs_and_leading_zeros():
    assert parse_pattern_text(" aa  bb??  ??{007} cc ") == HexPattern(
        12, (0, 11), (b"\xaa\xbb", b"\xcc"), ((4, 7),))


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError:  # the reference's int() may raise a bare ValueError
        return "rejected"


def _parsed_elements(text):
    """The program's parse of ``text`` as per-byte elements."""
    pattern = parse_pattern_text(text)
    assert _maximal(pattern)
    return expand(pattern)


# ASCII whitespace and uppercase hex, which bytes.fromhex skips or reads,
# and non-ASCII digits, which str.isdigit accepts
_PATTERN_ALPHABET = "0123456789abcdefABCDEF ?{}x\t\n\r\x0b\x0c\u00b2\u0663"
_PATTERN_TOKENS = st.sampled_from(
    ["aa", "0f", "c3", "??", "{1}", "{12}", "{0}", "{", "}", " ", "  ", "?",
     "a", "F0", "{x}", "{2 }", "\t", "\n", "\r", "\x0b", "\x0c", "{\u00b2}", "{\u0663}"])


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(alphabet=_PATTERN_ALPHABET, max_size=24),
                 st.lists(_PATTERN_TOKENS, max_size=12).map("".join)))
@example("aa\tbb")
@example("aa\nbb")
@example("aa\rbb")
@example("aa\x0bbb")
@example("aa\x0cbb")
@example("AAbb")
@example("aa{\u0663}bb")
# two gaps after the last run; a gap after leading wildcards; wildcards
# on both sides of a gap; the first spaced, for the token reader
@example("aa{3}??{4}??")
@example("aa {3} ?? {4} ??")
@example("??{2}aa")
@example("aa??{5}??bb")
# parts without ``??``, each taken as one piece: an odd run, an odd run
# after a gap, a lone ``?``, uppercase after a gap, a spaced pair
@example("aab")
@example("aa{2}b")
@example("aa?b{1}cc")
@example("AA{1}bb")
@example("a a")
def test_parse_pattern_text_agrees_with_reference(text):
    assert _outcome(_parsed_elements, text) == \
        _outcome(pattern_reference.parse_pattern_text, text)


_ELEMENTS = st.lists(st.one_of(
    st.integers(0, 255), st.just(ANY), st.builds(Gap, st.integers(1, 40))), max_size=40)


@settings(max_examples=300, deadline=None)
@given(_ELEMENTS)
def test_pattern_layout_agrees_with_per_element_reference(elements):
    pattern = from_elements(elements)
    assert expand(pattern) == tuple(elements)
    assert (pattern.span, list(zip(pattern.offsets, pattern.literals))) == \
        (pattern_reference.fixed_span(elements), pattern_reference.literal_runs(elements))


@settings(max_examples=300, deadline=None)
@given(_ELEMENTS.filter(well_formed))
@example([0xAA, Gap(3), ANY, Gap(4), ANY])  # aa{3}??{4}??
@example([ANY, Gap(2), 0xAA])  # ??{2}aa
@example([0xAA, ANY, Gap(5), ANY, 0xBB])  # aa??{5}??bb
def test_pattern_text_round_trip_keeps_tokens_maximal(elements):
    pattern = from_elements(elements)
    text = pattern_to_text(pattern)
    parsed = parse_pattern_text(text)
    assert parsed == pattern
    assert hash(parsed) == hash(pattern)
    assert _maximal(parsed)
    # written text takes the string pass, not the token loop
    assert sigdb._parse_canonical(text) == pattern
