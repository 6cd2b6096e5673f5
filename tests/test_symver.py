"""symver module: verdef walking, label matching, version ordering."""

from __future__ import annotations

import random
import struct
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provsig.elf import STRING_BUDGET, MalformedElf, UnsupportedElf, get_section, parse_elf
from provsig.symver import (
    DEFAULT_LABELS,
    MalformedVerdef,
    library_versions,
    load_labels,
    parse_verdef,
)

from elfwriter import (
    ET_DYN,
    SHT_GNU_VERDEF,
    SHT_STRTAB,
    VER_FLG_BASE,
    Sec,
    build_elf,
    build_shared_lib,
    build_shared_lib_layout,
    build_verdef_body,
)
from mutation import elf_fields, int_field, mutate, parse_within_a_second

GLIBC_CHAIN = [f"GLIBC_2.{minor}" for minor in range(11)]  # 2.0 .. 2.10


# -- parse_verdef ---------------------------------------------------------------

def test_parse_verdef_glibc_chain():
    image = parse_elf(build_shared_lib(versions=GLIBC_CHAIN, base_name="libc.so.6"))
    assert parse_verdef(image) == GLIBC_CHAIN


def test_parse_verdef_leaves_out_the_base_name():
    # the base record is the library's file name, whatever it looks like
    image = parse_elf(build_shared_lib(versions=["GLIBC_2.0"], base_name="GLIBC_9.9"))
    assert parse_verdef(image) == ["GLIBC_2.0"]
    without_base = parse_elf(build_shared_lib(versions=["GLIBC_2.0"], include_base=False))
    assert parse_verdef(without_base) == ["GLIBC_2.0"]


def _verdef_linked_to(link: str) -> bytes:
    names = ["libx.so.1", "X_1.0", "X_2.0"]
    strtab = b"\x00" + b"".join(n.encode() + b"\x00" for n in names)
    offsets = {n: strtab.index(n.encode() + b"\x00") for n in names}
    body = build_verdef_body([("libx.so.1", VER_FLG_BASE), ("X_1.0", 0), ("X_2.0", 0)],
                             offsets)
    return build_elf([Sec(".text", b"\x90" * 64), Sec(".dynstr", strtab, sh_type=SHT_STRTAB),
                      Sec(".gnu.version_d", body, sh_type=SHT_GNU_VERDEF, link=link, info=3)],
                     e_type=ET_DYN)


def test_parse_verdef_link_to_a_section_that_is_not_a_string_table_reads_dynstr():
    # the one string-table rule of elf.linked_strtab, as DT_NEEDED reading has it
    linked = parse_elf(_verdef_linked_to(".dynstr"))
    to_text = parse_elf(_verdef_linked_to(".text"))
    assert get_section(to_text, ".gnu.version_d").sh_link == 1  # .text
    assert parse_verdef(to_text) == parse_verdef(linked) == ["X_1.0", "X_2.0"]
    assert library_versions(to_text, ["X"]) == library_versions(linked, ["X"]) == \
        [("X", "2.0")]


def test_parse_verdef_absent_section():
    assert parse_verdef(parse_elf(build_shared_lib(versions=None))) == []


def test_parse_verdef_cycle_guard():
    # second record's next-link wraps back onto offset 0 under 32-bit
    # unsigned arithmetic; the walk must abort instead of spinning
    strtab = b"\x00VERS_1\x00"
    body = struct.pack("<HHHHIII", 1, 0, 1, 1, 0, 20, 28) + struct.pack("<II", 1, 0)
    body += struct.pack("<HHHHIII", 1, 0, 2, 1, 0, 20,
                        (0x100000000 - 28) & 0xFFFFFFFF)
    body += struct.pack("<II", 1, 0)
    secs = [Sec(".dynstr", strtab, sh_type=SHT_STRTAB),
            Sec(".gnu.version_d", body, sh_type=SHT_GNU_VERDEF,
                link=".dynstr", info=8)]
    image = parse_elf(build_elf(secs, e_type=ET_DYN))
    with pytest.raises(MalformedVerdef):
        parse_verdef(image)


def test_parse_verdef_chain_longer_than_declared_count():
    strtab = b"\x00A_1\x00"
    offsets = {"A_1": 1}
    body = build_verdef_body([("A_1", 0), ("A_1", 0)], offsets)
    secs = [Sec(".dynstr", strtab, sh_type=SHT_STRTAB),
            Sec(".gnu.version_d", body, sh_type=SHT_GNU_VERDEF,
                link=".dynstr", info=1)]
    with pytest.raises(MalformedVerdef):
        parse_verdef(parse_elf(build_elf(secs, e_type=ET_DYN)))


def test_parse_verdef_huge_declared_count_forward_chain_ends_promptly():
    # sh_info claims 2**32 - 1 entries; every record links to the next
    # one, the last links past the end of the section
    strtab = b"\x00A_1\x00"
    record = struct.pack("<HHHHIII", 1, 0, 1, 1, 0, 20, 28) + struct.pack("<II", 1, 0)
    secs = [Sec(".dynstr", strtab, sh_type=SHT_STRTAB),
            Sec(".gnu.version_d", record * 500, sh_type=SHT_GNU_VERDEF,
                link=".dynstr", info=0xFFFFFFFF)]
    image = parse_elf(build_elf(secs, e_type=ET_DYN))
    assert get_section(image, ".gnu.version_d").sh_info == 0xFFFFFFFF
    start = time.perf_counter()
    with pytest.raises(MalformedVerdef, match="truncated"):
        parse_verdef(image)
    assert time.perf_counter() - start < 1.0


def test_parse_verdef_name_offset_out_of_range():
    body = struct.pack("<HHHHIII", 1, 0, 1, 1, 0, 20, 0) + struct.pack("<II", 999, 0)
    secs = [Sec(".dynstr", b"\x00ok\x00", sh_type=SHT_STRTAB),
            Sec(".gnu.version_d", body, sh_type=SHT_GNU_VERDEF,
                link=".dynstr", info=1)]
    with pytest.raises(MalformedVerdef):
        parse_verdef(parse_elf(build_elf(secs, e_type=ET_DYN)))


def test_parse_verdef_names_past_the_budget_raise():
    # 64 definitions of one 4 KB name, held once in .dynstr
    name = "GLIBC_" + "9" * 4090
    image = parse_elf(build_shared_lib(versions=[name] * 64))
    dynstr = get_section(image, ".dynstr").data
    with pytest.raises(MalformedVerdef, match=(
            f"version names total more than {STRING_BUDGET} times "
            f"their {len(dynstr)}-byte string table")):
        parse_verdef(image)
    # twice is within the budget, and the name is read once
    twice = parse_verdef(parse_elf(build_shared_lib(versions=[name] * 2)))
    assert twice == [name, name] and twice[0] is twice[1]


# -- label matching, through library_versions --------------------------------------

def _versions(names, labels) -> list[tuple[str, str]]:
    """library_versions of a library defining ``names`` in this order."""
    return library_versions(parse_elf(build_shared_lib(versions=list(names))), labels)


def test_label_glibc():
    assert _versions(["GLIBC_2.10"], ["GLIBC"]) == [("GLIBC", "2.10")]


def test_label_unknown_and_non_numeric():
    assert _versions(["MYLIB_1.2.3"], ["GLIBC"]) == []
    assert _versions(["GLIBC_2.x", "GLIBC", "GLIBC_", "GLIBC_2..1"], ["GLIBC"]) == []
    # latin-1 string tables: "\u00b2" passes str.isdigit() but not int()
    assert _versions(["GLIBC_2.\u00b2", "GLIBC_\u00b9.0"], ["GLIBC"]) == []
    assert _versions(["GLIBC_2." + "9" * 5000], ["GLIBC"]) == []
    assert _versions(["GLIBC_2." + "9" * 5000, "GLIBC_2.1"], ["GLIBC"]) == \
        [("GLIBC", "2.1")]


def test_label_longer_label_not_confused():
    assert _versions(["GLIBCXX_3.4.9"], ["GLIBC", "GLIBCXX"]) == [("GLIBCXX", "3.4.9")]
    assert _versions(["GLIBCXX_3.4.9"], ["GLIBC"]) == []
    assert _versions(["GLIBC_2.1", "GLIBCXX_3.4.9"], ["GLIBCXX", "GLIBC"]) == \
        [("GLIBCXX", "3.4.9"), ("GLIBC", "2.1")]


def test_label_holding_underscore_and_digits():
    # the label is all before the last "_": X_1_2 is X_1 version 2, never X
    assert _versions(["X_1_2"], ["X", "X_1"]) == [("X_1", "2")]
    assert _versions(["X_1_2"], ["X_1", "X"]) == [("X_1", "2")]
    assert _versions(["X_1_2"], ["X"]) == []


def test_label_empty_and_name_without_underscore():
    assert _versions(["_7"], ["", "X"]) == [("", "7")]
    assert _versions(["7", "X7"], ["", "X"]) == []


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DEFAULT_LABELS),
       st.lists(st.integers(min_value=0, max_value=999), min_size=1, max_size=4))
def test_label_round_trip(label, components):
    version = ".".join(str(c) for c in components)
    assert _versions([f"{label}_{version}"], list(DEFAULT_LABELS)) == [(label, version)]


def _prefix_loop(name: str, labels: list[str]) -> tuple[str, str] | None:
    """The label rule as a loop over labels: the first label whose
    ``label_`` prefixes ``name`` and leaves a version behind."""
    for label in labels:
        if name.startswith(label + "_"):
            components = name[len(label) + 1:].split(".")
            if all(c.isascii() and c.isdigit() for c in components):
                return label, name[len(label) + 1:]
    return None


_LABEL_TEXT = st.text(alphabet="X_1.\u00b2", max_size=5)


@settings(max_examples=300, deadline=None)
@given(st.lists(_LABEL_TEXT, max_size=4, unique=True), _LABEL_TEXT)
def test_label_rule_agrees_with_prefix_loop(labels, name):
    want = _prefix_loop(name, labels)
    assert _versions([name], labels) == ([] if want is None else [want])


# -- version ordering, through library_versions -------------------------------------

def _highest(*names: str) -> list[tuple[str, str]]:
    return _versions(names, ["GLIBC", "GCC", "X"])


def test_compare_numeric_not_textual():
    assert _highest("GLIBC_2.9", "GLIBC_2.10") == [("GLIBC", "2.10")]
    assert _highest("GLIBC_2.10", "GLIBC_2.9") == [("GLIBC", "2.10")]


def test_compare_zero_extension_and_major():
    # 2.1 and 2.1.0 rank equal, so the first defined is kept
    assert _highest("X_2.1", "X_2.1.0") == [("X", "2.1")]
    assert _highest("X_2.1.0", "X_2.1") == [("X", "2.1.0")]
    assert _highest("X_2.1", "X_2.1.0.1") == [("X", "2.1.0.1")]
    assert _highest("X_3", "X_2.99") == [("X", "3")]
    assert _highest("X_2.99", "X_3") == [("X", "3")]


def test_compare_label_mismatch():
    # versions of different labels are never ranked against each other
    assert _highest("GLIBC_1", "GCC_7", "GLIBC_2", "GCC_3") == \
        [("GLIBC", "2"), ("GCC", "7")]


def _padded(numeric: tuple[int, ...]) -> tuple[int, ...]:
    return numeric + (0,) * (4 - len(numeric))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=0, max_value=50),
                         min_size=1, max_size=4), min_size=1, max_size=6))
def test_compare_is_total_order(versions):
    # the result is the first of the versions that rank highest, each
    # zero-padded to four components (max keeps the first of equals)
    want = max(versions, key=lambda comps: _padded(tuple(comps)))
    assert _highest(*(f"X_{'.'.join(map(str, comps))}" for comps in versions)) == \
        [("X", ".".join(map(str, want)))]


# -- library_versions --------------------------------------------------------------

def test_library_versions_glibc_chain_highest():
    image = parse_elf(build_shared_lib(versions=GLIBC_CHAIN, base_name="libc.so.6"))
    assert library_versions(image, ["GLIBC"]) == [("GLIBC", "2.10")]


def test_library_versions_dual_label():
    versions = ["GLIBC_2.2", "GLIBCXX_3.4.9", "GLIBCXX_3.4.2"]
    image = parse_elf(build_shared_lib(versions=versions))
    assert library_versions(image, list(DEFAULT_LABELS)) == [
        ("GLIBC", "2.2"), ("GLIBCXX", "3.4.9")]


def test_library_versions_no_known_labels():
    image = parse_elf(build_shared_lib(versions=["PRIVATE_1.0"]))
    assert library_versions(image, list(DEFAULT_LABELS)) == []


def test_library_versions_permutation_invariant():
    rng = random.Random(3)
    shuffled = GLIBC_CHAIN[:]
    rng.shuffle(shuffled)
    a = parse_elf(build_shared_lib(versions=GLIBC_CHAIN))
    b = parse_elf(build_shared_lib(versions=shuffled))
    assert library_versions(a, ["GLIBC"]) == library_versions(b, ["GLIBC"])


def test_library_versions_base_entry_excluded():
    image = parse_elf(build_shared_lib(versions=["GLIBC_2.0"],
                                       base_name="GLIBC_9.9"))
    # tempting base entry carries a higher-looking name; must be ignored
    assert library_versions(image, ["GLIBC"]) == [("GLIBC", "2.0")]


# -- label file ---------------------------------------------------------------------

def test_load_labels(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("# site labels\nGLIBC\n\n  ACML\nMX\n")
    assert load_labels(path) == ["GLIBC", "ACML", "MX"]


def test_load_labels_keeps_the_first_of_repeated_labels(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("MX\nGLIBC\n MX\nGLIBC\nACML\nMX\n")
    assert load_labels(path) == ["MX", "GLIBC", "ACML"]


# -- mutation fuzzing ------------------------------------------------------------

def _verdef_seed(bits: int):
    layout = build_shared_lib_layout(versions=["GLIBC_2.2.5", "GLIBC_2.14", "GCC_3.0"],
                                     bits=bits)
    data = layout.data
    fields = elf_fields(data)
    start, size = layout.section_span[".gnu.version_d"]
    fields += [int_field(off, 2, size) for off in range(start, start + size, 2)]
    fields += [int_field(off, 4, size) for off in range(start, start + size, 4)]
    # version-name bytes, so names can gain a "\u00b2", lose a "." or end early
    start, size = layout.section_span[".dynstr"]
    fields += [(off, (b"\xb2", b".", b"9", b"\x00")) for off in range(start, start + size)]
    return data, fields


_VERDEF_SEEDS = [_verdef_seed(64), _verdef_seed(32)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, len(_VERDEF_SEEDS) - 1), st.data())
def test_parse_verdef_mutations_raise_only_malformed_verdef(which, data):
    seed, fields = _VERDEF_SEEDS[which]
    blob = mutate(seed, fields, data)
    try:
        image = parse_elf(blob)
    except (MalformedElf, UnsupportedElf):
        return
    parse_within_a_second(parse_verdef, image, MalformedVerdef)
    parse_within_a_second(library_versions, image, MalformedVerdef)
