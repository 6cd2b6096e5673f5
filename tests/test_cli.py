"""cli module: siggen/sigscan commands, resolution, report formatting."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
import re
import resource
import shutil
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import provsig
from provsig import cli, elf
from provsig.cli import (
    DynlibFinding,
    PackageHit,
    ScanReport,
    format_report,
    resolve_dynamic,
    siggen_main,
    sigscan_main,
)
from provsig.elf import STRING_BUDGET, MalformedElf, UnsupportedElf, parse_elf
from provsig.sigdb import load_db, parse_sigfile

from elfwriter import (
    EM_386,
    ET_EXEC,
    ET_REL,
    R_386_PC32,
    R_X86_64_PC32,
    SHT_REL,
    SHT_RELA,
    Sec,
    build_archive,
    build_elf,
    build_executable,
    build_object,
    build_overlapping,
    build_shared_lib,
    build_shared_lib_layout,
    build_shared_name,
    build_shared_needed,
)
from mutation import ar_fields, elf_fields, mutate

CALL_STUB_TEXT = bytes.fromhex(
    "554889e54883ec10bf0a000000e800000000488945f8c9c3")


def _report(**kwargs) -> ScanReport:
    base = {"target": "a.out", "package_hits": [], "dynlib_findings": [],
            "warnings": []}
    base.update(kwargs)
    return ScanReport(**base)


# -- format_report ---------------------------------------------------------------

def test_format_report_line_exact():
    report = _report(package_hits=[
        PackageHit("Intel Compiler Suite", "12.0", 3, 6992)])
    assert format_report(report, "human") == \
        "(3 times, 6992 bytes) Intel Compiler Suite 12.0\n"


def test_format_report_multiple_hits_and_findings():
    report = _report(
        package_hits=[PackageHit("Intel Compiler Suite", "12.0", 3, 6992),
                      PackageHit("GCC", "4.4.3", 2, 200)],
        dynlib_findings=[
            DynlibFinding("/lib/libc.so.6", "symver", "GLIBC", "2.10"),
            DynlibFinding("/lib/libacml.so", "md5", "ACML", "4.4.0"),
            DynlibFinding("/lib/libweird.so", "unknown", "", "")])
    assert format_report(report, "human").splitlines() == [
        "(3 times, 6992 bytes) Intel Compiler Suite 12.0",
        "(2 times, 200 bytes) GCC 4.4.3",
        "/lib/libc.so.6: GLIBC 2.10 [symver]",
        "/lib/libacml.so: ACML 4.4.0 [md5]",
        "/lib/libweird.so: unknown",
    ]


def test_format_report_empty():
    assert format_report(_report(), "human") == "no matches\n"
    parsed = json.loads(format_report(_report(), "json"))
    assert parsed["package_hits"] == []
    assert parsed["dynlib_findings"] == []


def test_format_report_json_round_trip():
    report = _report(
        package_hits=[PackageHit("P", "1.0", 2, 64)],
        dynlib_findings=[DynlibFinding("/l/x.so", "md5", "X", "2")],
        warnings=["unresolved dynamic library: libz.so.1"])
    parsed = json.loads(format_report(report, "json"))
    assert parsed == {
        "target": "a.out",
        "package_hits": [{"package": "P", "version": "1.0", "count": 2,
                          "total_bytes": 64}],
        "dynlib_findings": [{"library": "/l/x.so", "method": "md5", "name": "X",
                             "version": "2"}],
        "warnings": ["unresolved dynamic library: libz.so.1"],
    }
    assert format_report(report, "json") == (
        '{"target": "a.out", '
        '"package_hits": [{"package": "P", "version": "1.0", "count": 2, "total_bytes": 64}], '
        '"dynlib_findings": [{"library": "/l/x.so", "method": "md5", "name": "X", '
        '"version": "2"}], '
        '"warnings": ["unresolved dynamic library: libz.so.1"]}\n')


# -- resolve_dynamic ----------------------------------------------------------------

def test_resolve_dynamic_first_path_wins(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    first.mkdir()
    second.mkdir()
    (first / "libm.so.6").write_bytes(b"one")
    (second / "libm.so.6").write_bytes(b"two")
    (second / "libonly.so").write_bytes(b"three")
    resolved = resolve_dynamic(["libm.so.6", "libonly.so", "libnone.so"],
                               [str(first), str(second)])
    assert resolved == [
        ("libm.so.6", str(first / "libm.so.6")),
        ("libonly.so", str(second / "libonly.so")),
        ("libnone.so", None),
    ]


def test_resolve_dynamic_empty_paths():
    assert resolve_dynamic(["libc.so.6"], []) == [("libc.so.6", None)]


def test_resolve_dynamic_follows_symlink(tmp_path):
    target = tmp_path / "real" / "libreal.so.1.2"
    target.parent.mkdir()
    target.write_bytes(b"lib")
    link_dir = tmp_path / "links"
    link_dir.mkdir()
    os.symlink(target, link_dir / "libreal.so.1")
    resolved = resolve_dynamic(["libreal.so.1"], [str(link_dir)])
    assert resolved[0][1] == str(link_dir / "libreal.so.1")


def test_resolve_dynamic_does_not_look_up_path_like_names(tmp_path):
    libdir = tmp_path / "libs"
    (libdir / "sub").mkdir(parents=True)
    (libdir / "sub" / "libinner.so").write_bytes(b"lib")
    (tmp_path / "libouter.so").write_bytes(b"lib")
    names = ["", ".", "..", "../libouter.so", str(tmp_path / "libouter.so"),
             "sub/libinner.so"]
    assert resolve_dynamic(names, [str(libdir)]) == [(name, None) for name in names]


# -- siggen command -------------------------------------------------------------------

def test_siggen_obj_archive(tmp_path, capsys):
    objects = [(f"m{i}.o", build_object(bytes((i * 17 + j) % 256 for j in range(40))))
               for i in range(3)]
    archive = tmp_path / "libpgf.a"
    archive.write_bytes(build_archive(objects))
    out = tmp_path / "pgi-f-11.sig"
    rc = siggen_main(["obj", str(archive), "--package", "PGI Fortran Compiler",
                      "--version", "11.x", "-o", str(out)])
    assert rc == 0
    parsed = parse_sigfile(out.read_bytes())
    assert parsed.package == "PGI Fortran Compiler"
    assert parsed.version == "11.x"
    assert [s.name for s in parsed.signatures] == \
        [f"libpgf.a/m{i}.o:.text" for i in range(3)]


def test_siggen_lib_single_md5(tmp_path):
    lib = tmp_path / "libacml.so"
    lib.write_bytes(build_shared_lib(text=bytes(range(128))))
    out = tmp_path / "acml.sig"
    rc = siggen_main(["lib", str(lib), "--package", "ACML", "--version", "4.4.0",
                      "-o", str(out)])
    assert rc == 0
    parsed = parse_sigfile(out.read_bytes())
    assert len(parsed.signatures) == 1
    assert parsed.signatures[0].target == "dynlib"
    assert parsed.signatures[0].text_size == 128


def test_siggen_comment_mode_dedups_across_inputs(tmp_path):
    vendor = b"CC brand 9.9\x00shared note\x00"
    a = tmp_path / "a.out"
    b = tmp_path / "b.out"
    a.write_bytes(build_executable(b"\x90" * 16, comment=vendor))
    b.write_bytes(build_executable(b"\x90" * 16, comment=b"shared note\x00only b\x00"))
    out = tmp_path / "cc.sig"
    rc = siggen_main(["comment", str(a), str(b), "--package", "CC",
                      "--version", "9.9", "-o", str(out)])
    assert rc == 0
    parsed = parse_sigfile(out.read_bytes())
    texts = sorted(s.pattern.literals[0].decode() for s in parsed.signatures)
    assert texts == ["CC brand 9.9", "only b", "shared note"]


def test_siggen_inputs_with_one_basename_get_numbered_origins(tmp_path):
    paths = []
    for i, where in enumerate(("one", "two", "three")):
        (tmp_path / where).mkdir()
        paths.append(tmp_path / where / "crt.o")
        paths[-1].write_bytes(build_object(bytes((i * 31 + j) % 256 for j in range(40))))
    out = tmp_path / "crt.sig"
    rc = siggen_main(["obj", *map(str, paths), "--package", "P", "--version", "1",
                      "-o", str(out)])
    assert rc == 0
    assert [s.name for s in parse_sigfile(out.read_bytes()).signatures] == \
        ["crt.o:.text", "crt.o#2:.text", "crt.o#3:.text"]


def test_siggen_archive_member_named_like_a_numbered_repeat(tmp_path, capsys):
    # the second "a.o" must not take the name the member "a.o#2" holds
    members = [(name, build_object(bytes((i * 23 + j) % 256 for j in range(40))))
               for i, name in enumerate(("a.o", "a.o#2", "a.o"))]
    archive = tmp_path / "coll.a"
    archive.write_bytes(build_archive(members))
    out = tmp_path / "coll.sig"
    rc = siggen_main(["obj", str(archive), "--package", "P", "--version", "1",
                      "-o", str(out)])
    assert (rc, capsys.readouterr().err) == (0, "")
    assert [s.name for s in parse_sigfile(out.read_bytes()).signatures] == \
        ["coll.a/a.o:.text", "coll.a/a.o#2:.text", "coll.a/a.o#3:.text"]


def test_siggen_obj_numbers_repeated_code_section_names(tmp_path, capsys):
    twin = tmp_path / "twin.o"
    twin.write_bytes(build_elf([Sec(".text", bytes(range(48))),
                                Sec(".text", bytes(range(100, 148)))]))
    out = tmp_path / "twin.sig"
    rc = siggen_main(["obj", str(twin), "--package", "P", "--version", "1",
                      "-o", str(out)])
    assert (rc, capsys.readouterr().err) == (0, "")
    assert [s.name for s in parse_sigfile(out.read_bytes()).signatures] == \
        ["twin.o:.text", "twin.o:.text#2"]


def test_siggen_empty_archive_exit_2(tmp_path, capsys):
    archive = tmp_path / "empty.a"
    archive.write_bytes(b"!<arch>\n")
    rc = siggen_main(["obj", str(archive), "--package", "P", "--version", "1",
                      "-o", str(tmp_path / "x.sig")])
    assert rc == 2
    assert "no signatures generated" in capsys.readouterr().err


def _linker_script(tmp_path, name: str, *members: Path) -> Path:
    """A GNU ld script, as installed for libm.a or libc.so, naming members."""
    script = tmp_path / name
    script.write_text("/* GNU ld script */\nGROUP ( "
                      + " ".join(map(str, members)) + " )\n")
    return script


def test_siggen_skips_inputs_that_are_not_elf_in_every_mode(tmp_path, capsys):
    # the script's GROUP names an archive that would sign; it is not
    # followed.  An archive is signed in obj mode only.
    archive = tmp_path / "libm-2.36.a"
    archive.write_bytes(build_archive([("e_exp.o", build_object(b"\x37" * 40))]))
    script = _linker_script(tmp_path, "libm.a", archive)
    obj = tmp_path / "good.o"
    obj.write_bytes(build_object(b"\x24" * 40))
    lib = tmp_path / "libgood.so"
    lib.write_bytes(build_shared_lib(text=b"\x25" * 40, comment=b"CC 1.0\x00"))
    for mode, good, names, skipped in [
            ("obj", obj, ["good.o:.text", "libm-2.36.a/e_exp.o:.text"], [script]),
            ("lib", lib, ["libgood.so:.text"], [script, archive]),
            ("comment", lib, ["libgood.so:.comment.0"], [script, archive])]:
        out = tmp_path / f"{mode}.sig"
        rc = siggen_main([mode, str(script), str(good), str(archive),
                          "--package", "P", "--version", "1", "-o", str(out)])
        assert rc == 0, mode
        assert [s.name for s in parse_sigfile(out.read_bytes()).signatures] == names
        assert capsys.readouterr().err == "".join(
            f"siggen: skipped {path}: not an ELF object\n" for path in skipped)


def test_siggen_lib_skips_a_library_without_text(tmp_path, capsys):
    bare = tmp_path / "libbare.so"
    bare.write_bytes(build_shared_lib(text=b"").replace(b".text", b".tex_"))
    lib = tmp_path / "libgood.so"
    lib.write_bytes(build_shared_lib(text=b"\x25" * 40))
    out = tmp_path / "lib.sig"
    rc = siggen_main(["lib", str(bare), str(lib), "--package", "P", "--version", "1",
                      "-o", str(out)])
    assert rc == 0
    assert [s.name for s in parse_sigfile(out.read_bytes()).signatures] == \
        ["libgood.so:.text"]
    assert capsys.readouterr().err == f"siggen: skipped {bare}: no .text section\n"
    # alone, it leaves nothing to write
    assert siggen_main(["lib", str(bare), "--package", "P", "--version", "1",
                        "-o", str(tmp_path / "bare.sig")]) == 2
    assert not (tmp_path / "bare.sig").exists()
    assert capsys.readouterr().err == (f"siggen: skipped {bare}: no .text section\n"
                                       "siggen: no signatures generated\n")


def test_siggen_only_linker_scripts_exit_2_and_write_nothing(tmp_path, capsys):
    script = _linker_script(tmp_path, "libc.so", tmp_path / "libc.so.6")
    out = tmp_path / "c.sig"
    rc = siggen_main(["lib", str(script), "--package", "P", "--version", "1",
                      "-o", str(out)])
    assert rc == 2
    assert not out.exists()
    assert capsys.readouterr().err == (f"siggen: skipped {script}: not an ELF object\n"
                                       "siggen: no signatures generated\n")


def test_siggen_obj_skips_an_executable_and_signs_the_rest(tmp_path, capsys):
    archive = tmp_path / "libdemo.a"
    archive.write_bytes(build_archive([("unit.o", build_object(b"\x37" * 40))]))
    executable = tmp_path / "user-binary"
    executable.write_bytes(build_executable(b"\x90" * 40))
    library = tmp_path / "libc.so.6"
    library.write_bytes(build_shared_lib(text=b"\x25" * 40))
    # a skipped input takes no name: the object of the same basename keeps it
    (tmp_path / "obj").mkdir()
    namesake = tmp_path / "obj" / "user-binary"
    namesake.write_bytes(build_object(b"\x24" * 40))
    out = tmp_path / "p.sig"
    rc = siggen_main(["obj", str(archive), str(executable), str(library), str(namesake),
                      "--package", "P", "--version", "1", "-o", str(out)])
    assert rc == 0
    assert [s.name for s in parse_sigfile(out.read_bytes()).signatures] == \
        ["libdemo.a/unit.o:.text", "user-binary:.text"]
    assert capsys.readouterr().err == "".join(
        f"siggen: skipped {path}: not a relocatable object\n"
        for path in (executable, library))


def test_siggen_obj_only_executables_exit_2_and_write_nothing(tmp_path, capsys):
    executable = tmp_path / "user-binary"
    executable.write_bytes(build_executable(b"\x90" * 40))
    out = tmp_path / "p.sig"
    rc = siggen_main(["obj", str(executable), "--package", "P", "--version", "1",
                      "-o", str(out)])
    assert rc == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"siggen: skipped {executable}: not a relocatable object\n"
        "siggen: no signatures generated\n")


def test_siggen_rejections_reported_on_stderr(tmp_path, capsys):
    obj = tmp_path / "small.o"
    obj.write_bytes(build_object({".text.tiny": b"\x90" * 8,
                                  ".text.big": b"\x42" * 32}))
    rc = siggen_main(["obj", str(obj), "--package", "P", "--version", "1",
                      "-o", str(tmp_path / "p.sig")])
    assert rc == 0
    err = capsys.readouterr().err
    assert "small.o:.text.tiny" in err and "too-short" in err


def test_siggen_prints_elf_warnings_against_their_input(tmp_path, capsys):
    far = tmp_path / "far.o"
    far.write_bytes(build_object(bytes(range(40)), {".text": [(100, R_X86_64_PC32, "f")]}))
    rc = siggen_main(["obj", str(far), "--package", "P", "--version", "1",
                      "-o", str(tmp_path / "far.sig")])
    assert rc == 0
    assert capsys.readouterr().err == (
        f"siggen: warning: {far}: relocation at 0x64 lies beyond .text (40 bytes); dropped\n")
    host = tmp_path / "cc-host"
    host.write_bytes(build_executable(b"\x90" * 16, comment=b"CC brand 9.9\x00tail"))
    rc = siggen_main(["comment", str(host), "--package", "CC", "--version", "9.9",
                      "-o", str(tmp_path / "cc.sig")])
    assert rc == 0
    assert capsys.readouterr().err == (
        f"siggen: warning: {host}: .comment is not NUL-terminated; keeping trailing fragment\n")
    # an input's warnings print before its error line: the first table's
    # entry lies past .text, the second table is cut short
    cut = tmp_path / "cut.o"
    cut.write_bytes(build_object(bytes(range(40)), {".text": [(100, R_X86_64_PC32, "f")]},
                                 extra=[Sec(".rel.text", bytes(19), sh_type=SHT_REL, info=1)]))
    rc = siggen_main(["obj", str(cut), "--package", "P", "--version", "1",
                      "-o", str(tmp_path / "cut.sig")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"siggen: warning: {cut}: relocation at 0x64 lies beyond .text (40 bytes); dropped\n"
        f"siggen: {cut}: truncated relocation records in .rel.text\n")
    # a failing input after one that warns: each line against its own input
    junk = tmp_path / "junk.o"
    junk.write_bytes(b"\x7fELF" + bytes(8))
    rc = siggen_main(["obj", str(far), str(junk), "--package", "P", "--version", "1",
                      "-o", str(tmp_path / "o.sig")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"siggen: warning: {far}: relocation at 0x64 lies beyond .text (40 bytes); dropped\n"
        f"siggen: {junk}: bad ELF magic\n")


def test_siggen_archive_with_malformed_relocation_table_member(tmp_path, capsys):
    bad = build_object(b"\x42" * 24,
                       extra=[Sec(".rela.text", bytes(23), sh_type=SHT_RELA, info=1)])
    archive = tmp_path / "lib.a"
    archive.write_bytes(build_archive([("good.o", build_object(b"\x24" * 24)),
                                       ("bad.o", bad), ("notes.txt", b"plain text")]))
    out = tmp_path / "lib.sig"
    rc = siggen_main(["obj", str(archive), "--package", "P", "--version", "1",
                      "-o", str(out)])
    assert rc == 0
    assert [s.name for s in parse_sigfile(out.read_bytes()).signatures] == \
        ["lib.a/good.o:.text"]
    assert capsys.readouterr().err == (
        "siggen: skipped lib.a/bad.o: unparseable: truncated relocation records in .rela.text\n"
        "siggen: skipped lib.a/notes.txt: not an ELF object\n")


def test_siggen_usage_error_exit_1(capsys):
    assert siggen_main(["obj"]) == 1
    assert siggen_main(["bogus-mode", "x", "--package", "P", "--version", "1",
                        "-o", "o.sig"]) == 1


def test_siggen_calls_in_one_process_match_each_call_alone(tmp_path, capsys):
    # the parser is built once per process; nothing of one call's
    # arguments may reach the next
    stub = tmp_path / "stub.o"
    stub.write_bytes(build_object(CALL_STUB_TEXT))
    lib = tmp_path / "libz.so"
    lib.write_bytes(build_shared_lib(text=bytes(range(96))))
    calls = [
        ["obj", str(stub), "--package", "P", "--version", "1", "-o", "{out}/p.sig"],
        ["lib", str(lib), "--package", "Q"],  # no --version, no -o
        ["lib", str(lib), "--version", "2.0", "--package", "Zlib", "-o", "{out}/z.sig"],
    ]
    together, alone = tmp_path / "together", tmp_path / "alone"
    together.mkdir()
    alone.mkdir()
    got = []
    for argv in calls:
        rc = siggen_main([arg.format(out=together) for arg in argv])
        got.append((rc, capsys.readouterr().err))
    want = []
    for argv in calls:
        done = _run_module("siggen", *(arg.format(out=alone) for arg in argv))
        want.append((done.returncode, done.stderr))
    assert got == want
    assert [rc for rc, _ in got] == [0, 1, 0]
    for name in ("p.sig", "z.sig"):
        assert (together / name).read_bytes() == (alone / name).read_bytes()
    assert sorted(path.name for path in together.iterdir()) == ["p.sig", "z.sig"]


def test_siggen_unreadable_input_exit_2(tmp_path, capsys):
    rc = siggen_main(["obj", str(tmp_path / "missing.o"), "--package", "P",
                      "--version", "1", "-o", str(tmp_path / "o.sig")])
    assert rc == 2


def _far_object() -> bytes:
    """An object whose one relocation lies past its .text: it signs, with
    one warning."""
    return build_object(bytes(range(40)), {".text": [(100, R_X86_64_PC32, "f")]})


_FAR_WARNING = "relocation at 0x64 lies beyond .text (40 bytes); dropped"


def test_siggen_obj_reads_every_input_past_an_unreadable_one(tmp_path, capsys):
    notelf = tmp_path / "notelf.o"
    notelf.write_text("not an object\n")
    missing = tmp_path / "nonexistent.a"
    libz = tmp_path / "libz.a"
    libz.write_bytes(build_archive([("deflate.o", _far_object()), ("notes.txt", b"text")]))
    out = tmp_path / "z.sig"
    rc = siggen_main(["obj", str(notelf), str(missing), str(libz), "--package", "P",
                      "--version", "1", "-o", str(out)])
    assert rc == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"siggen: cannot read {missing}: [Errno 2] No such file or directory: "
        f"{str(missing)!r}\n"
        f"siggen: warning: {libz}: {_FAR_WARNING}\n"
        f"siggen: skipped {notelf}: not an ELF object\n"
        "siggen: skipped libz.a/notes.txt: not an ELF object\n")


def test_siggen_lib_reads_every_input_past_a_malformed_one(tmp_path, capsys):
    notelf = tmp_path / "notelf.o"
    notelf.write_text("not an object\n")
    broken = tmp_path / "broken.so"
    broken.write_bytes(build_shared_lib(text=b"\x25" * 40)[:-8])
    bare = tmp_path / "libbare.so"
    bare.write_bytes(build_shared_lib(text=b"").replace(b".text", b".tex_"))
    good = tmp_path / "libz.so.1"
    good.write_bytes(build_shared_lib(text=b"\x25" * 40))
    out = tmp_path / "z.sig"
    rc = siggen_main(["lib", str(notelf), str(broken), str(bare), str(good),
                      "--package", "P", "--version", "1", "-o", str(out)])
    assert rc == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"siggen: {broken}: truncated section header table\n"
        f"siggen: skipped {notelf}: not an ELF object\n"
        f"siggen: skipped {bare}: no .text section\n")


# -- siggen batch property ----------------------------------------------------
# Good inputs each give at least one signature; one input among them is a
# mutant of an object or an archive.

def _good_input(kind: int, index: int) -> tuple[str, bytes]:
    """A basename and the bytes of a good ``siggen obj`` input: an
    object, an object that signs with one warning, or an archive that
    also holds a member to skip."""
    text = bytes((index * 7 + j) % 256 for j in range(32))
    if kind == 0:
        return f"good{index}.o", build_object(text)
    if kind == 1:
        return f"good{index}.o", _far_object()
    return f"good{index}.a", build_archive([("m.o", build_object(text)), ("notes.txt", b"x")])


_OBJECT_SEEDS = [build_object(CALL_STUB_TEXT, {".text": [(0x0E, R_X86_64_PC32, "malloc")]},
                              comment=b"GCC: (GNU) 4.4.3\x00"),
                 build_object({".text": bytes(range(40))}, {".text": [(4, R_386_PC32, "puts")]},
                              bits=32, machine=EM_386, rela=False),
                 # warns of its first table, then fails on its second
                 build_object(b"\x42" * 24, {".text": [(26, R_X86_64_PC32, "g")]},
                              extra=[Sec(".rel.text", bytes(19), sh_type=SHT_REL, info=1)])]
_MUTANT_ARCHIVE = build_archive([("a.o", _OBJECT_SEEDS[0]), ("b.o", _far_object()),
                                 ("a_member_with_a_long_name.o", _OBJECT_SEEDS[1])])
_MUTANT_SEEDS = ([(seed, elf_fields(seed)) for seed in _OBJECT_SEEDS]
                 + [(_MUTANT_ARCHIVE, ar_fields(_MUTANT_ARCHIVE))])


def _siggen_obj(inputs, out: Path) -> tuple[int, str]:
    """``siggen obj`` over ``inputs`` to ``out``: its exit status and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = siggen_main(["obj", *map(str, inputs), "--package", "P", "--version", "1",
                          "-o", str(out)])
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def siggen_batch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("siggen-batch")


@settings(max_examples=40, deadline=2000)
@given(data=st.data())
def test_siggen_batch_prints_what_each_input_alone_prints(siggen_batch_dir, data):
    goods = [_good_input(kind, index) for index, kind in
             enumerate(data.draw(st.lists(st.integers(0, 2), min_size=2, max_size=4)))]
    seed, fields = data.draw(st.sampled_from(_MUTANT_SEEDS))
    files = goods[:]
    files.insert(data.draw(st.integers(0, len(goods))), ("mutant", mutate(seed, fields, data)))
    inputs = []
    for name, blob in files:
        inputs.append(siggen_batch_dir / name)
        inputs[-1].write_bytes(blob)

    # each input alone: its warnings and error line (in that order), its
    # skip lines, and its signatures if it exits 0
    heads, skips, signatures, failed = [], [], [], False
    lone = siggen_batch_dir / "lone.sig"
    for path in inputs:
        lone.unlink(missing_ok=True)
        rc, err = _siggen_obj([path], lone)
        lines = re.split(r"(?m)^(?=siggen: )", err)[1:]
        skips += [line for line in lines if line.startswith("siggen: skipped ")]
        errors = [line for line in lines if not line.startswith(
            ("siggen: warning: ", "siggen: skipped ", "siggen: no signatures generated\n"))]
        heads += [line for line in lines if line.startswith("siggen: warning: ")] + errors
        assert len(errors) <= 1 and lone.exists() == (rc == 0), err
        failed = failed or bool(errors)
        if rc == 0:
            signatures += parse_sigfile(lone.read_bytes()).signatures
        else:  # a good input signs alone
            assert path.name == "mutant", err

    out = siggen_batch_dir / "batch.sig"
    out.unlink(missing_ok=True)
    rc, err = _siggen_obj(inputs, out)
    assert err == "".join(heads + skips)
    assert rc == (2 if failed else 0)
    assert out.exists() == (rc == 0)
    if rc == 0:
        assert parse_sigfile(out.read_bytes()).signatures == tuple(signatures)


def test_siggen_archive_with_a_truncated_last_header_signs_no_member(tmp_path, capsys):
    # every header is read before the first member is signed: the good
    # member's warning is never raised
    members = build_archive([("far.o", _far_object()), ("good.o", build_object(b"\x24" * 40))])
    archive = tmp_path / "lib.a"
    archive.write_bytes(members + build_archive([("last.o", b"xy")])[8:8 + 30])
    out = tmp_path / "lib.sig"
    rc = siggen_main(["obj", str(archive), "--package", "P", "--version", "1",
                      "-o", str(out)])
    assert rc == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"siggen: {archive}: truncated member header at offset {len(members)}\n")


def test_siggen_obj_reads_an_archive_in_memory_below_its_size(tmp_path, capsys):
    # 48 members of 64 KB (3.2 MB): read whole and then split, the
    # archive was in memory twice over, a traced peak of 2.06 times its
    # size; read one member at a time, the peak is a few members and the
    # signatures, 0.08 times its size (CPython 3.11, x86-64)
    archive = tmp_path / "libbig.a"
    archive.write_bytes(build_archive([
        (f"m{k}.o", build_object((bytes([k]) + bytes(range(255))) * 256))
        for k in range(48)]))
    size = archive.stat().st_size
    argv = ["obj", str(archive), "--package", "P", "--version", "1",
            "-o", str(tmp_path / "big.sig")]
    assert siggen_main(argv) == 0  # untraced: the one-time costs
    tracemalloc.start()
    try:
        assert siggen_main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == ""
    assert peak < size // 8, (peak, size)


def _limit_file_size():
    """In a child: files may not grow past 8 KB, and a write that would
    fails with EFBIG rather than a SIGXFSZ that ends the process."""
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (8192, 8192))


def test_siggen_write_that_fails_leaves_the_old_sig_as_it_was(tmp_path, capsys):
    archive = tmp_path / "lib.a"
    archive.write_bytes(build_archive([
        (f"m{k}.o", build_object(bytes([k]) + bytes(range(50, 200)))) for k in range(80)]))
    out = tmp_path / "db" / "lib.sig"
    out.parent.mkdir()
    argv = ["obj", str(archive), "--package", "P", "--version", "1", "-o", str(out)]
    assert siggen_main(argv) == 0
    capsys.readouterr()
    old = out.read_bytes()
    assert len(old) > 2 * 8192
    done = _run_module("siggen", *argv, preexec_fn=_limit_file_size)
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", f"siggen: cannot write {out}: [Errno 27] File too large\n")
    assert out.read_bytes() == old
    assert os.listdir(out.parent) == ["lib.sig"]


_BREAK = "package/version may not contain colons or line breaks: "


@pytest.mark.parametrize("input_name, package, version, reason", [
    ("stub.o", "", "1", "package name must be non-empty"),
    ("stub.o", "P:Q", "1", f"{_BREAK}'P:Q'"),
    ("stub.o", "P", "1:2", f"{_BREAK}'1:2'"),
    ("stub.o", "P\nQ", "1", f"{_BREAK}'P\\nQ'"),
    ("stub.o", "P", "1\n", f"{_BREAK}'1\\n'"),
    ("stub.o", "P\u2028Q", "1", f"{_BREAK}'P\\u2028Q'"),
    ("#stub.o", "P", "1", "bad signature name '#stub.o:.text'"),
    (" #stub.o", "P", "1", "bad signature name ' #stub.o:.text'"),
    ("a\x0bb.o", "P", "1", "bad signature name 'a\\x0bb.o:.text'"),
    ("\udcffb.o", "P", "1", "'\\udcff' is not encodable as UTF-8"),
], ids=["empty-package", "package-colon", "version-colon", "package-newline",
        "version-newline", "package-line-separator", "hash-name", "space-hash-name",
        "vertical-tab-name", "non-utf8-name"])
def test_siggen_unwritable_annotation_exit_2(tmp_path, capsys, input_name, package,
                                             version, reason):
    obj = tmp_path / input_name
    obj.write_bytes(build_object(CALL_STUB_TEXT))
    out = tmp_path / "p.sig"
    rc = siggen_main(["obj", str(obj), "--package", package, "--version", version,
                      "-o", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"siggen: cannot write {out}: {reason}\n"
    assert not out.exists()


# -- sigscan command -----------------------------------------------------------------

@pytest.fixture
def small_db(tmp_path):
    """Two packages: a text-pattern package and a comment package."""
    db = tmp_path / "db"
    db.mkdir()
    stub = tmp_path / "stub.o"
    stub.write_bytes(build_object(
        CALL_STUB_TEXT, {".text": [(0x0E, R_X86_64_PC32, "malloc")]}))
    assert siggen_main(["obj", str(stub), "--package", "Intel Compiler Suite",
                        "--version", "12.0", "-o", str(db / "intel.sig")]) == 0
    gcc_host = tmp_path / "gcc-host"
    gcc_host.write_bytes(build_executable(
        b"\x90" * 16, comment=b"GCC: (GNU) 4.4.3\x00"))
    assert siggen_main(["comment", str(gcc_host), "--package", "GCC",
                        "--version", "4.4.3", "-o", str(db / "gcc.sig")]) == 0
    return db


def test_sigscan_reports_planted_package(small_db, tmp_path, capsys):
    patched = bytearray(CALL_STUB_TEXT)
    patched[14:18] = b"\x12\x34\x56\x78"  # linker-resolved address
    target = tmp_path / "prog"
    target.write_bytes(build_executable(
        b"\x00" * 7 + bytes(patched) + b"\x00" * 9,
        comment=b"GCC: (GNU) 4.4.3\x00"))
    rc = sigscan_main(["--db", str(small_db), "--no-dynamic", str(target)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "(1 times, 24 bytes) Intel Compiler Suite 12.0" in out
    assert "(1 times, 16 bytes) GCC 4.4.3" in out


def test_sigscan_no_match_still_exit_0(small_db, tmp_path, capsys):
    target = tmp_path / "clean"
    target.write_bytes(build_executable(b"\xab" * 64))
    rc = sigscan_main(["--db", str(small_db), "--no-dynamic", str(target)])
    assert rc == 0
    assert capsys.readouterr().out == "no matches\n"


def test_sigscan_json_round_trip(small_db, tmp_path, capsys):
    target = tmp_path / "prog"
    target.write_bytes(build_executable(CALL_STUB_TEXT))
    rc = sigscan_main(["--db", str(small_db), "--no-dynamic", "--format", "json",
                       str(target)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["target"] == str(target)
    assert doc["package_hits"] == [{"package": "Intel Compiler Suite",
                                    "version": "12.0", "count": 1,
                                    "total_bytes": 24}]


def test_sigscan_json_report_bytes_exact(dynlib_world, tmp_path, capsys):
    db, libdir, _ = dynlib_world
    stub = tmp_path / "stub.o"
    stub.write_bytes(build_object(
        CALL_STUB_TEXT, {".text": [(0x0E, R_X86_64_PC32, "malloc")]}))
    assert siggen_main(["obj", str(stub), "--package", "Intel Compiler Suite",
                        "--version", "12.0", "-o", str(db / "intel.sig")]) == 0
    target = tmp_path / "prog"
    target.write_bytes(build_executable(
        CALL_STUB_TEXT, needed=["libc.so.6", "libacml.so", "libmystery.so", "libgone.so"]))
    rc = sigscan_main(["--db", str(db), "--search-path", str(libdir), "--format", "json",
                       str(target)])
    assert rc == 0
    assert capsys.readouterr().out == (
        f'{{"target": "{target}", "package_hits": [{{"package": "Intel Compiler Suite", '
        f'"version": "12.0", "count": 1, "total_bytes": 24}}], "dynlib_findings": ['
        f'{{"library": "{libdir}/libc.so.6", "method": "symver", "name": "GLIBC", '
        f'"version": "2.10"}}, '
        f'{{"library": "{libdir}/libacml.so", "method": "md5", "name": "ACML", '
        f'"version": "4.4.0"}}, '
        f'{{"library": "{libdir}/libmystery.so", "method": "unknown", "name": "", '
        f'"version": ""}}], '
        f'"warnings": ["unresolved dynamic library: libgone.so"]}}\n')


def test_sigscan_stripped_binary_same_matches(small_db, tmp_path, capsys):
    comment = b"GCC: (GNU) 4.4.3\x00"
    full = tmp_path / "full"
    stripped = tmp_path / "stripped"
    full.write_bytes(build_executable(CALL_STUB_TEXT, comment=comment,
                                      with_symtab=True))
    stripped.write_bytes(build_executable(CALL_STUB_TEXT, comment=comment,
                                          with_symtab=False))
    for target in (full, stripped):
        assert sigscan_main(["--db", str(small_db), "--no-dynamic",
                             "--format", "json", str(target)]) == 0
    docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert docs[0]["package_hits"] == docs[1]["package_hits"]


def test_sigscan_multiple_text_sections_scanned_separately(small_db, tmp_path, capsys):
    target = tmp_path / "split"
    target.write_bytes(build_executable(
        {".text.a": CALL_STUB_TEXT, ".text.b": CALL_STUB_TEXT, ".data": b"\x00" * 8}))
    rc = sigscan_main(["--db", str(small_db), "--no-dynamic", "--format", "json",
                       str(target)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["package_hits"][0]["count"] == 2
    assert doc["package_hits"][0]["total_bytes"] == 48


def test_sigscan_pattern_never_straddles_sections(small_db, tmp_path, capsys):
    # snippet split across two adjacent-in-file sections must not match
    target = tmp_path / "straddle"
    target.write_bytes(build_executable(
        {".text.a": CALL_STUB_TEXT[:12], ".text.b": CALL_STUB_TEXT[12:]}))
    rc = sigscan_main(["--db", str(small_db), "--no-dynamic", str(target)])
    assert rc == 0
    assert capsys.readouterr().out == "no matches\n"


def test_sigscan_no_ghost_package_over_a_found_match(small_db, tmp_path, capsys):
    # a scan that zeroed the stub's span and rescanned would credit the
    # all-zero signature with nine matches the target does not contain
    (small_db / "zero.sig").write_text(
        "provsig 1\npackage Zero Fill\nversion 1\n"
        "zero.o:.text:text:hex:" + "00" * 16 + "\n")
    target = tmp_path / "prog"
    target.write_bytes(build_executable(b"\x90" * 8 + CALL_STUB_TEXT + b"\x90" * 8))
    rc = sigscan_main(["--db", str(small_db), "--no-dynamic", str(target)])
    assert rc == 0
    assert capsys.readouterr().out == "(1 times, 24 bytes) Intel Compiler Suite 12.0\n"


def test_sigscan_unreadable_target_exit_2_continues(small_db, tmp_path, capsys):
    good = tmp_path / "good"
    good.write_bytes(build_executable(CALL_STUB_TEXT))
    rc = sigscan_main(["--db", str(small_db), "--no-dynamic",
                       str(tmp_path / "missing"), str(good)])
    assert rc == 2
    captured = capsys.readouterr()
    assert "Intel Compiler Suite" in captured.out


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
@pytest.mark.parametrize("where", ["target", "db-entry", "labels", "siggen-input"])
def test_fifo_input_is_refused_without_a_hang(small_db, tmp_path, where):
    # a FIFO nobody writes to: reading it would block for ever, so each
    # case runs in its own process under a timeout
    fifo = small_db / "z.sig" if where == "db-entry" else tmp_path / "fifo"
    os.mkfifo(fifo)
    good = tmp_path / "good"
    good.write_bytes(build_executable(CALL_STUB_TEXT))
    refused = f"not a regular file: {str(fifo)!r}"
    report = "(1 times, 24 bytes) Intel Compiler Suite 12.0\n"
    scan = ["sigscan", "--db", str(small_db), "--no-dynamic"]
    argv, want = {
        "target": (scan + [str(good), str(fifo), str(good)],
                   (2, f"{good}:\n{report}{good}:\n{report}", f"sigscan: {fifo}: {refused}\n")),
        "db-entry": (scan + [str(good)],
                     (0, report, f"sigscan: warning: z.sig: {refused}\n")),
        "labels": (scan + ["--labels", str(fifo), str(good)],
                   (2, "", f"sigscan: cannot read labels file: {refused}\n")),
        "siggen-input": (["siggen", "obj", str(fifo), "--package", "P", "--version", "1",
                          "-o", str(tmp_path / "o.sig")],
                         (2, "", f"siggen: cannot read {fifo}: {refused}\n")),
    }[where]
    done = _run_module(*argv)
    assert (done.returncode, done.stdout, done.stderr) == want
    assert not (tmp_path / "o.sig").exists()


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_device_or_directory_target_is_refused_and_the_batch_goes_on(small_db, tmp_path):
    # /dev/null reads empty, so a reader that took devices fails this test
    # without the hang of a FIFO or the endless bytes of /dev/zero; a
    # directory keeps the error open() gives it
    good = tmp_path / "good"
    good.write_bytes(build_executable(CALL_STUB_TEXT))
    done = _run_module("sigscan", "--db", str(small_db), "--no-dynamic", "/dev/null",
                       str(tmp_path), str(good))
    assert (done.returncode, done.stdout, done.stderr) == (
        2, f"{good}:\n(1 times, 24 bytes) Intel Compiler Suite 12.0\n",
        "sigscan: /dev/null: not a regular file: '/dev/null'\n"
        f"sigscan: {tmp_path}: [Errno 21] Is a directory: {str(tmp_path)!r}\n")


# A 19-byte function body with one 0x55, so a run of copies holds it only
# at multiples of 19
_BODY = bytes.fromhex("554889e5897dfc8b45fc0fafc05dc3909090cc")


def _scan_peaks(tmp_path, capsys, sig_lines: str, texts, build=build_executable):
    """(stdout, tracemalloc peak) of one ``sigscan_main`` call per .text
    in ``texts``, each made a target by ``build``, against a DB of the
    given signature lines.  Only the call is traced, and an untraced
    first call pays the one-time costs."""
    db = tmp_path / "db"
    db.mkdir()
    (db / "p.sig").write_text(f"provsig 1\npackage P\nversion 1\n{sig_lines}")
    target = tmp_path / "t"

    def scan(text, traced):
        target.write_bytes(build(text))
        if traced:
            tracemalloc.start()
        try:
            assert sigscan_main(["--db", str(db), "--no-dynamic", str(target)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert captured.err == ""
        return captured.out, peak

    scan(texts[0], traced=False)
    return [scan(text, traced=True) for text in texts]


def _assert_flat(results, texts):
    # the target's .text is held once, and the word filter takes a few
    # slices of an eighth of it: anything that grew per key hit or per
    # match would cost dozens of bytes per byte
    (_, small), (_, large) = results
    assert large - small < 3 * (len(texts[1]) - len(texts[0]))


def test_sigscan_memory_stays_flat_over_a_body_many_signatures_hold(tmp_path, capsys):
    sig_lines = "".join(f"f{i}.o:.text:text:hex:{_BODY.hex()}\n" for i in range(8))
    texts = [_BODY * (size // 19) for size in (16 << 10, 64 << 10)]
    results = _scan_peaks(tmp_path, capsys, sig_lines, texts)
    for (out, _), text in zip(results, texts):
        count = len(text) // 19 * 8  # occurrences x holders
        assert out == f"({count} times, {count * 19} bytes) P 1\n"
    _assert_flat(results, texts)


def test_sigscan_memory_stays_flat_over_a_short_key_that_never_verifies(tmp_path, capsys):
    # the 2-byte key 50 e8 occurs at every even offset; c3 c3 never follows
    texts = [b"\x50\xe8" * (size // 2) for size in (16 << 10, 64 << 10)]
    results = _scan_peaks(tmp_path, capsys, "s.o:.text:text:hex:50e8????????c3c3\n", texts)
    assert [out for out, _ in results] == ["no matches\n"] * 2
    _assert_flat(results, texts)


def test_sigscan_holds_a_large_target_once(tmp_path, capsys):
    # the target's code is read in windows and a section nobody uses is
    # not read, so the peak is one window and what the scan of it takes,
    # whatever the target's size: 1.41 MB for both targets here (CPython
    # 3.11, x86-64; holding every section, 1.4 times the target)
    rng = random.Random(1)
    texts = [rng.randbytes(size) for size in (2 << 20, 4 << 20)]
    results = _scan_peaks(tmp_path, capsys, f"s.o:.text:text:hex:{'5a' * 20}\n", texts,
                          lambda text: build_executable(
                              text, extra=[Sec(".rodata", rng.randbytes(len(text)))]))
    assert [out for out, _ in results] == ["no matches\n"] * 2
    (_, small), (_, large) = results
    assert abs(large - small) < 64 << 10, (small, large)
    assert large < 2 * elf.WINDOW, large


def test_sigscan_empty_db_exit_2(tmp_path, capsys):
    empty = tmp_path / "db"
    empty.mkdir()
    target = tmp_path / "prog"
    target.write_bytes(build_executable(b"\x90" * 16))
    assert sigscan_main(["--db", str(empty), str(target)]) == 2
    # the directory is named as a path prints it, without a trailing slash
    assert sigscan_main(["--db", f"{empty}/", str(target)]) == 2
    assert capsys.readouterr() == ("", f"sigscan: no signature files loaded from {empty}\n" * 2)
    (empty / "x.sig").write_bytes(b"garbage")
    (empty / "y.sig").write_bytes(b"provsig 1\npackage Y\n")
    assert sigscan_main(["--db", str(empty), str(target)]) == 2
    assert capsys.readouterr() == ("", (
        "sigscan: warning: x.sig: missing 'provsig 1' magic line\n"
        "sigscan: warning: y.sig: missing version key\n"
        f"sigscan: no signature files loaded from {empty} (2 file(s) failed to parse)\n"))


def test_sigscan_skips_a_database_file_with_an_unanchorable_line(tmp_path, capsys):
    db = tmp_path / "db"
    db.mkdir()
    (db / "a.sig").write_text(
        "provsig 1\npackage A\nversion 1\n"
        f"ok.o:.text:text:hex:{CALL_STUB_TEXT.hex()}\n"
        "gcc:.comment:comment:hex:474343\n"
        "libx.so:.text:dynlib:md5:" + "ab" * 16 + ":10\n")
    target = tmp_path / "prog"
    target.write_bytes(build_executable(CALL_STUB_TEXT, comment=b"GCC: (GNU) 4.4.3\x00"))
    argv = ["--db", str(db), "--no-dynamic", str(target)]
    assert sigscan_main(argv) == 0
    clean = capsys.readouterr()
    assert (clean.out, clean.err) == ("(2 times, 27 bytes) A 1\n", "")
    warning = ("sigscan: warning: b.sig: line 5: pattern has no anchor "
               "(no literal run of two bytes or more)\n")
    # b.sig would add matches if it loaded; one line without an anchor
    # skips all of it, and the rest of the database scans as before
    for line in ("solo.o:.text:text:hex:41??42", "solo:.comment.0:comment:hex:47??43"):
        (db / "b.sig").write_text("provsig 1\npackage B\nversion 1\n"
                                  f"stub.o:.text:text:hex:{CALL_STUB_TEXT.hex()}\n{line}\n")
        assert sigscan_main(argv) == 0
        assert capsys.readouterr() == (clean.out, warning)
    # with nothing else to load, the reason is still printed, before the refusal
    (db / "a.sig").unlink()
    assert sigscan_main(argv) == 2
    assert capsys.readouterr() == ("", warning + (
        f"sigscan: no signature files loaded from {db} (1 file(s) failed to parse)\n"))


def test_sigscan_usage_error_exit_1(capsys):
    assert sigscan_main(["--db"]) == 1
    assert sigscan_main([]) == 1


@pytest.fixture
def collector_state():
    """Restore the collector after a test that switches it off."""
    yield
    gc.enable()


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("case", ["scan", "usage", "empty-db", "refused-db"])
def test_sigscan_leaves_the_collector_as_it_found_it(small_db, tmp_path, capsys,
                                                     collector_state, collecting, case):
    target = tmp_path / "prog"
    target.write_bytes(build_executable(CALL_STUB_TEXT))
    db = {"scan": small_db, "usage": small_db, "empty-db": tmp_path / "empty",
          "refused-db": tmp_path / "bad"}[case]
    if case == "empty-db":
        db.mkdir()
    elif case == "refused-db":  # the reader refuses its only file
        db.mkdir()
        (db / "b.sig").write_text("provsig 1\npackage B\nversion 1\n"
                                  "solo.o:.text:text:hex:41??42\n")
    argv = ["--db", str(db), "--no-dynamic", str(target)]
    if case == "usage":
        argv.append("--no-such-option")
    (gc.enable if collecting else gc.disable)()
    assert sigscan_main(argv) == {"scan": 0, "usage": 1}.get(case, 2)
    assert gc.isenabled() is collecting
    assert gc.get_freeze_count() == 0


# -- python -m provsig.cli -------------------------------------------------------------

def _run_module(*args, text=True, stdout=subprocess.PIPE, preexec_fn=None,
                **env) -> subprocess.CompletedProcess:
    """``python -m provsig.cli ARGS`` in a fresh interpreter that imports
    this checkout's provsig, with ``env`` added to its environment and
    ``preexec_fn`` run in the child before it starts; stderr is captured,
    and stdout too unless ``stdout`` says otherwise."""
    src = str(Path(provsig.__file__).resolve().parent.parent)
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "provsig.cli", *args], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=text, timeout=60,
                          preexec_fn=preexec_fn)


def test_cli_import_leaves_dataclasses_unloaded():
    # every audit pays provsig's start-up; dataclasses would pull in
    # inspect, ast, dis and copy, logging its own module tree, and an
    # MD5 module is needed only where a digest is taken.  -S keeps
    # site's own imports out.
    src = str(Path(provsig.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import provsig.cli; "
            "print([name in sys.modules "
            "for name in ('dataclasses', 'logging', 'hashlib', '_md5')])")
    done = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == \
        (0, "[False, False, False, False]\n", "")


def test_md5_path_leaves_openssl_unloaded(tmp_path):
    # siggen lib and sigscan's MD5 fallback take the digest with CPython's
    # own MD5; hashlib would load _hashlib, which maps OpenSSL's libcrypto
    pytest.importorskip("_md5")
    libdir = tmp_path / "libs"
    libdir.mkdir()
    lib = libdir / "libacml.so"
    lib.write_bytes(build_shared_lib(text=bytes(range(200))))
    (tmp_path / "db").mkdir()
    (tmp_path / "no.labels").write_bytes(b"")
    target = tmp_path / "app"
    target.write_bytes(build_executable(b"\x90" * 32, needed=["libacml.so"]))
    src = str(Path(provsig.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from provsig import cli\n"
            "lib, db, labels, libdir, target = sys.argv[2:]\n"
            "assert cli.siggen_main(['lib', lib, '--package', 'ACML', '--version', '4.4.0',"
            " '-o', db + '/acml.sig']) == 0\n"
            "assert cli.sigscan_main(['--db', db, '--labels', labels,"
            " '--search-path', libdir, target]) == 0\n"
            "print('_hashlib' in sys.modules)")
    done = subprocess.run([sys.executable, "-S", "-c", code, src, str(lib),
                           str(tmp_path / "db"), str(tmp_path / "no.labels"), str(libdir),
                           str(target)], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == \
        (0, f"{lib}: ACML 4.4.0 [md5]\nFalse\n", "")


def test_module_entry_runs_siggen(tmp_path):
    stub = tmp_path / "stub.o"
    stub.write_bytes(build_object(CALL_STUB_TEXT))
    out = tmp_path / "stub.sig"
    done = _run_module("siggen", "obj", str(stub), "--package", "P", "--version", "1",
                       "-o", str(out))
    assert (done.returncode, done.stderr) == (0, "")
    assert [s.name for s in parse_sigfile(out.read_bytes()).signatures] == \
        ["stub.o:.text"]


def test_module_entry_runs_sigscan(small_db, tmp_path, capsys):
    target = tmp_path / "prog"
    target.write_bytes(build_executable(CALL_STUB_TEXT, comment=b"GCC: (GNU) 4.4.3\x00"))
    argv = ["--db", str(small_db), "--no-dynamic", str(target)]
    assert sigscan_main(argv) == 0
    in_process = capsys.readouterr()
    done = _run_module("sigscan", *argv)
    assert (done.returncode, done.stdout, done.stderr) == \
        (0, in_process.out, in_process.err)
    assert "(1 times, 24 bytes) Intel Compiler Suite 12.0" in done.stdout


def test_sigscan_writes_non_utf8_paths_as_their_bytes(small_db, tmp_path):
    # a strict UTF-8 stdout, as under a UTF-8 locale, cannot encode the
    # surrogate escapes such a path decodes to; the batch must go on
    libdir = os.fsencode(tmp_path) + b"/lib\xff"
    os.mkdir(libdir)
    with open(libdir + b"/libc.so.6", "wb") as lib:
        lib.write(build_shared_lib(text=b"\x11" * 64, versions=["GLIBC_2.10"],
                                   base_name="libc.so.6"))
    good = tmp_path / "prog"
    good.write_bytes(build_executable(CALL_STUB_TEXT, needed=["libc.so.6"]))
    odd = os.fsencode(tmp_path) + b"/prog\xff"
    with open(odd, "wb") as target:
        target.write(good.read_bytes())
    done = _run_module("sigscan", "--db", str(small_db), "--search-path", os.fsdecode(libdir),
                       str(good), os.fsdecode(odd), text=False, PYTHONIOENCODING="utf-8")
    report = b"(1 times, 24 bytes) Intel Compiler Suite 12.0\n" \
        + libdir + b"/libc.so.6: GLIBC 2.10 [symver]\n"
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == os.fsencode(good) + b":\n" + report + odd + b":\n" + report


def test_sigscan_human_output_is_utf8_on_an_ascii_stdout(small_db, tmp_path):
    good = tmp_path / "prog"
    good.write_bytes(build_executable(CALL_STUB_TEXT))
    cafe = tmp_path / "caf\u00e9"
    cafe.write_bytes(good.read_bytes())
    done = _run_module("sigscan", "--db", str(small_db), "--no-dynamic", str(good),
                       str(cafe), text=False, PYTHONIOENCODING="ascii")
    report = b"(1 times, 24 bytes) Intel Compiler Suite 12.0\n"
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == os.fsencode(good) + b":\n" + report \
        + os.fsencode(cafe) + b":\n" + report
    done = _run_module("sigscan", "--db", str(small_db), "--no-dynamic", "--format", "json",
                       str(cafe), PYTHONIOENCODING="ascii")
    assert (done.returncode, json.loads(done.stdout)["target"]) == (0, str(cafe))


def test_sigscan_human_output_to_a_text_only_stdout(small_db, tmp_path):
    # a stand-in such as io.StringIO has no byte stream under it
    target = tmp_path / "caf\u00e9"
    target.write_bytes(build_executable(CALL_STUB_TEXT))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = sigscan_main(["--db", str(small_db), "--no-dynamic", str(target), str(target)])
    report = "(1 times, 24 bytes) Intel Compiler Suite 12.0\n"
    assert (rc, out.getvalue()) == (0, f"{target}:\n{report}" * 2)


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_sigscan_stops_quietly_on_a_closed_stdout(small_db, tmp_path, fmt):
    # as under ``sigscan ... | head -1``, with the reader gone before the
    # first report, so every write fails: the batch stops with exit 2
    # (not every report was delivered) and nothing on stderr, not even
    # from the flush at interpreter shutdown
    target = tmp_path / "prog"
    target.write_bytes(build_executable(CALL_STUB_TEXT, comment=b"GCC: (GNU) 4.4.3\x00"))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _run_module("sigscan", "--db", str(small_db), "--no-dynamic", "--format", fmt,
                           str(target), str(target), stdout=write_end)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (2, "")


@pytest.mark.parametrize("args", [[], ["scan", "--help"]], ids=["no-tool", "unknown-tool"])
def test_module_entry_without_known_tool_prints_usage_exit_1(args):
    done = _run_module(*args)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("usage: python -m provsig.cli {siggen,sigscan}")


# -- dynamic library resolution through the scanner ----------------------------------

@pytest.fixture
def dynlib_world(tmp_path):
    """A db with an md5 library record, plus a lib directory holding a
    versioned library, an md5-known library and a stranger."""
    db = tmp_path / "db"
    db.mkdir()
    libdir = tmp_path / "libs"
    libdir.mkdir()

    versioned = build_shared_lib(
        text=b"\x11" * 64, versions=[f"GLIBC_2.{m}" for m in range(11)],
        base_name="libc.so.6")
    (libdir / "libc.so.6").write_bytes(versioned)

    known = build_shared_lib(text=bytes(range(200)))
    known_path = libdir / "libacml.so"
    known_path.write_bytes(known)
    assert siggen_main(["lib", str(known_path), "--package", "ACML",
                        "--version", "4.4.0", "-o", str(db / "acml.sig")]) == 0

    stranger = build_shared_lib(text=b"\xfe" * 48)
    (libdir / "libmystery.so").write_bytes(stranger)

    target = tmp_path / "app"
    target.write_bytes(build_executable(
        b"\x90" * 32,
        needed=["libc.so.6", "libacml.so", "libmystery.so", "libgone.so"]))
    return db, libdir, target


def test_sigscan_dynamic_findings(dynlib_world, capsys):
    db, libdir, target = dynlib_world
    rc = sigscan_main(["--db", str(db), "--search-path", str(libdir),
                       "--format", "json", str(target)])
    assert rc == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    findings = {f["library"]: f for f in doc["dynlib_findings"]}
    libc = findings[str(libdir / "libc.so.6")]
    assert (libc["method"], libc["name"], libc["version"]) == ("symver", "GLIBC", "2.10")
    acml = findings[str(libdir / "libacml.so")]
    assert (acml["method"], acml["name"], acml["version"]) == ("md5", "ACML", "4.4.0")
    mystery = findings[str(libdir / "libmystery.so")]
    assert mystery["method"] == "unknown"
    assert doc["warnings"] == ["unresolved dynamic library: libgone.so"]


def test_sigscan_no_dynamic_flag(dynlib_world, capsys):
    db, libdir, target = dynlib_world
    rc = sigscan_main(["--db", str(db), "--search-path", str(libdir),
                       "--no-dynamic", "--format", "json", str(target)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dynlib_findings"] == []
    assert doc["warnings"] == []


def test_sigscan_env_search_path_appended(dynlib_world, capsys, monkeypatch):
    db, libdir, target = dynlib_world
    monkeypatch.setenv("PROVSIG_PATH", str(libdir))
    rc = sigscan_main(["--db", str(db), "--format", "json", str(target)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert any(f["method"] == "symver" for f in doc["dynlib_findings"])


def test_sigscan_explicit_search_path_precedes_env(dynlib_world, tmp_path,
                                                   capsys, monkeypatch):
    db, libdir, target = dynlib_world
    decoy_dir = tmp_path / "decoy"
    decoy_dir.mkdir()
    decoy = build_shared_lib(text=b"\x33" * 32, versions=["GLIBC_2.1"])
    (decoy_dir / "libc.so.6").write_bytes(decoy)
    monkeypatch.setenv("PROVSIG_PATH", str(libdir))
    rc = sigscan_main(["--db", str(db), "--search-path", str(decoy_dir),
                       "--format", "json", str(target)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    libc = next(f for f in doc["dynlib_findings"] if "libc.so.6" in f["library"])
    assert libc["library"] == str(decoy_dir / "libc.so.6")
    assert libc["version"] == "2.1"


def test_sigscan_search_path_is_not_kept_for_the_next_call(dynlib_world, capsys, monkeypatch):
    # one parser serves every call in a process: a --search-path appended
    # in one call must not stay in the option's default list
    db, libdir, target = dynlib_world
    monkeypatch.delenv("PROVSIG_PATH", raising=False)
    argv = ["--db", str(db), "--format", "json", str(target)]
    assert sigscan_main(["--search-path", str(libdir), *argv]) == 0
    first = json.loads(capsys.readouterr().out)
    assert any(f["library"] == str(libdir / "libc.so.6") for f in first["dynlib_findings"])
    assert sigscan_main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["dynlib_findings"] == []
    assert cli._sigscan_parser() is cli._sigscan_parser()


@pytest.mark.parametrize("source", ["option", "environment"])
def test_sigscan_empty_search_path_entry_is_not_the_current_directory(
        dynlib_world, capsys, monkeypatch, source):
    db, libdir, target = dynlib_world
    monkeypatch.chdir(libdir)  # every library the target needs but one
    argv = ["--db", str(db), "--format", "json", str(target)]
    if source == "option":
        monkeypatch.delenv("PROVSIG_PATH", raising=False)
        argv[:0] = ["--search-path", ""]
    else:
        monkeypatch.setenv("PROVSIG_PATH", os.pathsep)  # two empty entries
    assert sigscan_main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dynlib_findings"] == []
    assert doc["warnings"] == [f"unresolved dynamic library: {name}" for name in
                               ("libc.so.6", "libacml.so", "libmystery.so", "libgone.so")]


def test_sigscan_symver_takes_precedence_over_md5(tmp_path, capsys):
    # library both carries version definitions and has a known checksum:
    # the version wins
    db = tmp_path / "db"
    db.mkdir()
    libdir = tmp_path / "libs"
    libdir.mkdir()
    lib = build_shared_lib(text=b"\x22" * 64, versions=["GFORTRAN_1.4"])
    path = libdir / "libgfortran.so.3"
    path.write_bytes(lib)
    assert siggen_main(["lib", str(path), "--package", "GNU Fortran RT",
                        "--version", "4.4", "-o", str(db / "gf.sig")]) == 0
    target = tmp_path / "app"
    target.write_bytes(build_executable(b"\x90" * 32, needed=["libgfortran.so.3"]))
    rc = sigscan_main(["--db", str(db), "--search-path", str(libdir),
                       "--format", "json", str(target)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dynlib_findings"] == [{
        "library": str(path), "method": "symver",
        "name": "GFORTRAN", "version": "1.4"}]


def test_sigscan_corrupt_verdef_library_warns_and_batch_continues(dynlib_world, tmp_path,
                                                                  capsys):
    db, libdir, good_target = dynlib_world
    layout = build_shared_lib_layout(text=b"\x44" * 32, versions=["GLIBC_2.5"])
    verdef_off, _ = layout.section_span[".gnu.version_d"]
    corrupt = bytearray(layout.data)
    corrupt[verdef_off + 6:verdef_off + 8] = b"\x00\x00"  # vd_cnt = 0
    (libdir / "libbroken.so").write_bytes(bytes(corrupt))
    bad_target = tmp_path / "uses-broken"
    bad_target.write_bytes(build_executable(b"\x90" * 32, needed=["libbroken.so"]))
    rc = sigscan_main(["--db", str(db), "--search-path", str(libdir),
                       "--format", "json", str(bad_target), str(good_target)])
    assert rc == 0
    bad_doc, good_doc = (json.loads(line) for line in capsys.readouterr().out.splitlines())
    assert bad_doc["dynlib_findings"] == []
    assert len(bad_doc["warnings"]) == 1
    assert bad_doc["warnings"][0].startswith(str(libdir / "libbroken.so") + ": ")
    assert "no name record" in bad_doc["warnings"][0]
    assert good_doc["target"] == str(good_target)
    assert len(good_doc["dynlib_findings"]) == 3


def test_sigscan_reads_each_library_once_per_call(dynlib_world, tmp_path, capsys,
                                                  monkeypatch):
    db, libdir, first = dynlib_world
    layout = build_shared_lib_layout(text=b"\x44" * 32, versions=["GLIBC_2.5"])
    verdef_off, _ = layout.section_span[".gnu.version_d"]
    corrupt = bytearray(layout.data)
    corrupt[verdef_off + 6:verdef_off + 8] = b"\x00\x00"  # vd_cnt = 0
    (libdir / "libbroken.so").write_bytes(bytes(corrupt))
    second = tmp_path / "app2"
    second.write_bytes(build_executable(b"\x91" * 32, needed=["libbroken.so", "libc.so.6"]))
    first.write_bytes(build_executable(
        b"\x90" * 32, needed=["libc.so.6", "libacml.so", "libbroken.so", "libgone.so"]))
    argv = ["--db", str(db), "--search-path", str(libdir), "--format", "json"]
    alone = []
    for target in (first, second):
        assert sigscan_main([*argv, str(target)]) == 0
        alone.append(capsys.readouterr().out)

    read = []
    read_elf = cli.elf.read_elf

    def counting(file, **kwargs):
        read.append(os.path.realpath(file.name))
        return read_elf(file, **kwargs)

    monkeypatch.setattr(cli.elf, "read_elf", counting)
    assert sigscan_main([*argv, str(first), str(second)]) == 0
    assert capsys.readouterr().out == "".join(alone)
    assert read.count(os.path.realpath(libdir / "libc.so.6")) == 1
    assert read.count(os.path.realpath(libdir / "libbroken.so")) == 1
    assert read.count(os.path.realpath(first)) == read.count(os.path.realpath(second)) == 1
    broken = json.loads(alone[1])["warnings"]
    assert len(broken) == 1 and broken[0].startswith(f"{libdir / 'libbroken.so'}: ")
    assert broken[0] in json.loads(alone[0])["warnings"]


def test_sigscan_library_version_with_non_ascii_digit_is_skipped(dynlib_world, tmp_path,
                                                                 capsys):
    db, libdir, _ = dynlib_world
    # "\u00b2" is one latin-1 byte that passes str.isdigit() but not int()
    (libdir / "libodd.so").write_bytes(build_shared_lib(
        text=b"\x33" * 32, versions=["GLIBC_2.5", "GLIBC_2.\u00b2"]))
    target = tmp_path / "uses-odd"
    target.write_bytes(build_executable(b"\x90" * 32, needed=["libodd.so"]))
    rc = sigscan_main(["--db", str(db), "--search-path", str(libdir), "--format", "json",
                       str(target)])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["dynlib_findings"] == [{
        "library": str(libdir / "libodd.so"), "method": "symver",
        "name": "GLIBC", "version": "2.5"}]


def test_sigscan_garbage_target_and_corrupt_library_in_one_batch(dynlib_world, tmp_path,
                                                                 capsys):
    db, libdir, _ = dynlib_world
    stub = tmp_path / "stub.o"
    stub.write_bytes(build_object(
        CALL_STUB_TEXT, {".text": [(0x0E, R_X86_64_PC32, "malloc")]}))
    assert siggen_main(["obj", str(stub), "--package", "Intel Compiler Suite",
                        "--version", "12.0", "-o", str(db / "intel.sig")]) == 0
    layout = build_shared_lib_layout(text=b"\x44" * 32, versions=["GLIBC_2.5"])
    verdef_off, _ = layout.section_span[".gnu.version_d"]
    corrupt = bytearray(layout.data)
    corrupt[verdef_off + 6:verdef_off + 8] = b"\x00\x00"  # vd_cnt = 0
    (libdir / "libbroken.so").write_bytes(bytes(corrupt))
    needed = ["libc.so.6", "libacml.so", "libmystery.so", "libgone.so"]
    garbage = tmp_path / "garbage"
    garbage.write_bytes(bytes(range(256)) * 8)
    good = tmp_path / "good"
    good.write_bytes(build_executable(CALL_STUB_TEXT, needed=needed))
    again = tmp_path / "good-with-broken-lib"
    again.write_bytes(build_executable(CALL_STUB_TEXT, needed=["libbroken.so"] + needed))

    rc = sigscan_main(["--db", str(db), "--search-path", str(libdir), "--format", "json",
                       str(garbage), str(good), str(again)])
    assert rc == 2
    captured = capsys.readouterr()
    err_lines = captured.err.splitlines()
    assert len(err_lines) == 1 and err_lines[0].startswith(f"sigscan: {garbage}: ")
    good_doc, again_doc = (json.loads(line) for line in captured.out.splitlines())
    assert good_doc == {
        "target": str(good),
        "package_hits": [{"package": "Intel Compiler Suite", "version": "12.0",
                          "count": 1, "total_bytes": 24}],
        "dynlib_findings": [
            {"library": str(libdir / "libc.so.6"), "method": "symver",
             "name": "GLIBC", "version": "2.10"},
            {"library": str(libdir / "libacml.so"), "method": "md5",
             "name": "ACML", "version": "4.4.0"},
            {"library": str(libdir / "libmystery.so"), "method": "unknown",
             "name": "", "version": ""}],
        "warnings": ["unresolved dynamic library: libgone.so"]}
    assert again_doc["target"] == str(again)
    assert again_doc["package_hits"] == good_doc["package_hits"]
    assert again_doc["dynlib_findings"] == good_doc["dynlib_findings"]
    broken_warning, unresolved = again_doc["warnings"]
    assert broken_warning.startswith(str(libdir / "libbroken.so") + ": ")
    assert "no name record" in broken_warning
    assert unresolved == "unresolved dynamic library: libgone.so"


def _sigscan(argv) -> tuple[int, str, str]:
    """sigscan's exit status, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = sigscan_main(argv)
    return rc, out.getvalue(), err.getvalue()


def _mutated(data: bytes, edits, keep=None) -> bytes:
    """``data`` with each ``(position, byte)`` edit applied, positions
    taken modulo its length, then cut to its first ``keep`` bytes."""
    out = bytearray(data)
    for pos, value in edits:
        if out:
            out[pos % len(out)] = value
    return bytes(out[:keep])


# edits biased to the headers; bytes biased to pattern and .sig syntax
_EDITS = st.lists(st.tuples(st.one_of(st.integers(0, 63), st.integers(0, 1 << 16)),
                            st.one_of(st.sampled_from(b"?{}:0a \n"), st.integers(0, 255))),
                  max_size=6)
_KEEP = st.one_of(st.none(), st.integers(0, 1 << 12))


@pytest.fixture(scope="module")
def batch_world(tmp_path_factory):
    """A two-file DB, a lib directory, two good targets that need only a
    clean library, the clean run over them, and the seeds of the bad
    target and of the library only it needs, still unmutated."""
    root = tmp_path_factory.mktemp("batch")
    db = root / "db"
    db.mkdir()
    libdir = root / "libs"
    libdir.mkdir()
    stub = root / "stub.o"
    stub.write_bytes(build_object(
        CALL_STUB_TEXT, {".text": [(0x0E, R_X86_64_PC32, "malloc")]}))
    gcc_host = root / "gcc-host"
    gcc_host.write_bytes(build_executable(b"\x90" * 16, comment=b"GCC: (GNU) 4.4.3\x00"))
    with contextlib.redirect_stderr(io.StringIO()):
        assert siggen_main(["obj", str(stub), "--package", "Intel Compiler Suite",
                            "--version", "12.0", "-o", str(db / "intel.sig")]) == 0
        assert siggen_main(["comment", str(gcc_host), "--package", "GCC",
                            "--version", "4.4.3", "-o", str(db / "gcc.sig")]) == 0
    (libdir / "libc.so.6").write_bytes(build_shared_lib(
        text=b"\x11" * 64, versions=["GLIBC_2.5", "GLIBC_2.10"], base_name="libc.so.6"))
    goods = [root / "good-1", root / "good-2"]
    for path, pad in zip(goods, (0, 7)):
        path.write_bytes(build_executable(b"\x90" * pad + CALL_STUB_TEXT, needed=["libc.so.6"],
                                          comment=b"GCC: (GNU) 4.4.3\x00"))
    argv = ["--db", str(db), "--search-path", str(libdir), "--format", "json"]
    clean = _sigscan([*argv, *map(str, goods)])
    rc, out, err = clean
    assert (rc, err) == (0, "")
    assert [json.loads(line)["warnings"] for line in out.splitlines()] == [[], []]
    bad_exes = [build_executable(CALL_STUB_TEXT, needed=["libbad.so"])]
    bad_libs = [build_shared_lib(text=b"\x44" * 32, versions=["GLIBC_2.5"])]
    if shutil.which("gcc") is not None:
        bad_exes += _gcc_hello_needing_libbad(root / "gcc-built")
        libc = subprocess.run(["gcc", "-print-file-name=libc.so.6"], capture_output=True,
                              text=True).stdout.strip()
        if os.path.isabs(libc) and os.path.isfile(libc):
            bad_libs.append(Path(libc).read_bytes())
    return root, argv, goods, clean, bad_exes, bad_libs


def _gcc_hello_needing_libbad(work: Path) -> list[bytes]:
    """A gcc-built dynamic hello that needs ``libbad.so`` (built beside
    it in ``work``) and ``libc.so.6``, or nothing if gcc cannot build it."""
    work.mkdir()
    (work / "bad.c").write_text("int bad(void) { return 0; }\n")
    (work / "hello.c").write_text('#include <stdio.h>\nint bad(void);\n'
                                  'int main(void) { puts("hello"); return bad(); }\n')
    for args in (["-shared", "-fPIC", "-Wl,-soname,libbad.so", "-o", "libbad.so", "bad.c"],
                 ["-o", "hello", "hello.c", "-L.", "-lbad"]):
        if subprocess.run(["gcc", "-O2", *args], cwd=work, capture_output=True).returncode:
            return []
    return [(work / "hello").read_bytes()]


# each seed list holds the elfwriter seed first, then, where gcc is
# present, a real one: a gcc-built hello and a copy of the host libc.so.6
@settings(max_examples=40, deadline=2000)
@given(exe_edits=_EDITS, exe_keep=_KEEP, lib_edits=_EDITS, lib_keep=_KEEP,
       exe_seed=st.integers(0, 1), lib_seed=st.integers(0, 1))
@example(exe_edits=[], exe_keep=None, lib_edits=[(4, 9)], lib_keep=None, exe_seed=0, lib_seed=0)
@example(exe_edits=[(0, 0)], exe_keep=None, lib_edits=[], lib_keep=None, exe_seed=0, lib_seed=0)
@example(exe_edits=[], exe_keep=None, lib_edits=[], lib_keep=None, exe_seed=1, lib_seed=1)
def test_sigscan_one_mutated_target_spoils_only_its_own_report(
        batch_world, exe_edits, exe_keep, lib_edits, lib_keep, exe_seed, lib_seed):
    root, argv, (good_1, good_2), (_, clean_out, _), bad_exes, bad_libs = batch_world
    bad = root / "bad"
    bad.write_bytes(_mutated(bad_exes[exe_seed % len(bad_exes)], exe_edits, exe_keep))
    lib = Path(argv[3]) / "libbad.so"
    lib.write_bytes(_mutated(bad_libs[lib_seed % len(bad_libs)], lib_edits, lib_keep))
    rc, out, err = _sigscan([*argv, str(good_1), str(bad), str(good_2)])
    lines = out.splitlines()
    docs = [json.loads(line) for line in lines]
    assert [line for line, doc in zip(lines, docs) if doc["target"] != str(bad)] \
        == clean_out.splitlines()
    # a bad target that does not parse fails with exit 2 and one line on
    # stderr; one that does is scanned, and a library it alone needs can
    # only add warnings to its own report
    try:
        parse_elf(bad.read_bytes())
    except (MalformedElf, UnsupportedElf):
        assert rc == 2
        assert err.startswith(f"sigscan: {bad}: ") and err.count("\n") == 1
        assert len(docs) == 2
    else:
        assert (rc, err) == (0, "")
        (bad_doc,) = (doc for doc in docs if doc["target"] == str(bad))
        assert all(w.startswith((f"{lib}: ", "unresolved dynamic library: "))
                   for w in bad_doc["warnings"])


@settings(max_examples=40, deadline=2000)
@given(payload_edits=_EDITS, keep=_KEEP, file_edits=_EDITS)
@example(payload_edits=[], keep=2, file_edits=[])  # one literal byte: no anchor
@example(payload_edits=[], keep=None, file_edits=[(0, ord("x"))])  # no magic line
def test_sigscan_mutated_sig_file_warns_or_refuses_the_database(batch_world, payload_edits,
                                                                keep, file_edits):
    root, argv, (good, _), _, _, _ = batch_world
    db = root / "db"
    mutated_db = root / "mutated-db"
    mutated_db.mkdir(exist_ok=True)
    (mutated_db / "gcc.sig").write_bytes((db / "gcc.sig").read_bytes())
    head, sep, payload = (db / "intel.sig").read_bytes().rstrip(b"\n").rpartition(b":hex:")
    (mutated_db / "intel.sig").write_bytes(
        _mutated(head + sep + _mutated(payload, payload_edits, keep) + b"\n", file_edits))
    rc, out, err = _sigscan(["--db", str(mutated_db), *argv[2:], str(good)])
    assert rc == 0
    assert json.loads(out)["target"] == str(good)
    assert all(line.startswith("sigscan: warning: intel.sig: ") for line in err.splitlines())


@pytest.mark.parametrize("escape", ["parent", "absolute", "subdirectory"])
def test_sigscan_needed_name_cannot_leave_the_search_path(dynlib_world, tmp_path,
                                                          capsys, escape):
    db, libdir, _ = dynlib_world
    secret = build_shared_lib(text=b"\x55" * 32, versions=["GLIBC_2.99"])
    if escape == "parent":
        (tmp_path / "outside").mkdir()
        (tmp_path / "outside" / "libsecret.so").write_bytes(secret)
        soname = "../outside/libsecret.so"
    elif escape == "absolute":
        (tmp_path / "outside").mkdir()
        (tmp_path / "outside" / "libsecret.so").write_bytes(secret)
        soname = str(tmp_path / "outside" / "libsecret.so")
    else:
        (libdir / "sub").mkdir()
        (libdir / "sub" / "libsecret.so").write_bytes(secret)
        soname = "sub/libsecret.so"
    target = tmp_path / "hostile"
    target.write_bytes(build_executable(b"\x90" * 32, needed=[soname]))
    rc = sigscan_main(["--db", str(db), "--search-path", str(libdir),
                       "--format", "json", str(target)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dynlib_findings"] == []
    assert doc["warnings"] == [f"unresolved dynamic library: {soname}"]


def test_sigscan_resolves_non_ascii_needed_name_by_its_bytes(dynlib_world, tmp_path,
                                                             capsys):
    # build_executable writes each character of a name as one latin-1
    # byte, so the target needs the bytes lib\xc3\xa9.so.1: "libé.so.1" in
    # UTF-8.  A file named after their latin-1 reading ("libÃ©.so.1") is
    # not taken for it.
    db, libdir, _ = dynlib_world
    wanted = libdir / os.fsdecode(b"lib\xc3\xa9.so.1")
    wanted.write_bytes(build_shared_lib(text=b"\x66" * 32, versions=["GLIBC_2.5"]))
    (libdir / "lib\xc3\xa9.so.1").write_bytes(
        build_shared_lib(text=b"\x67" * 32, versions=["GLIBC_2.1"]))
    target = tmp_path / "accented"
    target.write_bytes(build_executable(b"\x90" * 32, needed=["lib\xc3\xa9.so.1"]))
    rc = sigscan_main(["--db", str(db), "--search-path", str(libdir),
                       "--format", "json", str(target)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["warnings"] == []
    assert [(f["library"], f["version"]) for f in doc["dynlib_findings"]] == \
        [(str(wanted), "2.5")]


def test_sigscan_unparsable_library_warns_and_keeps_exit_0(dynlib_world, tmp_path,
                                                            capsys):
    # a library is not a target: one that does not parse adds a warning
    # to its target's report and leaves the exit status unchanged
    db, libdir, _ = dynlib_world
    (libdir / "libjunk.so").write_bytes(b"not an ELF file at all")
    target = tmp_path / "uses-junk"
    target.write_bytes(build_executable(b"\x90" * 32, needed=["libjunk.so"]))
    rc = sigscan_main(["--db", str(db), "--search-path", str(libdir),
                       "--format", "json", str(target)])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert doc["dynlib_findings"] == []
    assert len(doc["warnings"]) == 1
    assert doc["warnings"][0].startswith(str(libdir / "libjunk.so") + ": ")


def test_sigscan_custom_labels_file(dynlib_world, tmp_path, capsys):
    db, libdir, target = dynlib_world
    labels = tmp_path / "labels.txt"
    labels.write_text("# only this one\nNOSUCH\n")
    rc = sigscan_main(["--db", str(db), "--search-path", str(libdir),
                       "--labels", str(labels), "--format", "json", str(target)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    libc = next(f for f in doc["dynlib_findings"]
                if f["library"] == str(libdir / "libc.so.6"))
    # GLIBC no longer recognized; falls through to md5 then unknown
    assert libc["method"] == "unknown"


def test_sigscan_repeated_label_reports_the_library_once(dynlib_world, tmp_path, capsys):
    db, libdir, target = dynlib_world
    labels = tmp_path / "labels.txt"
    labels.write_text("GLIBC\nGLIBC\n")
    rc = sigscan_main(["--db", str(db), "--search-path", str(libdir),
                       "--labels", str(labels), str(target)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines.count(f"{libdir / 'libc.so.6'}: GLIBC 2.10 [symver]") == 1
    assert len([line for line in lines if "libc.so.6" in line]) == 1


def test_sigscan_labels_file_not_utf8_exit_2(small_db, tmp_path, capsys):
    labels = tmp_path / "labels.txt"
    labels.write_bytes(b"GLIBC\n\xff\xfe\n")
    rc = sigscan_main(["--db", str(small_db), "--labels", str(labels),
                       str(tmp_path / "never-read")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("sigscan: cannot read labels file: 'utf-8' codec")


def test_report_count_descending_order(small_db, tmp_path, capsys):
    # three copies of the text-pattern snippet vs one comment hit:
    # higher match count listed first
    copies = (CALL_STUB_TEXT + b"\x00" * 11) * 3
    target = tmp_path / "multi"
    target.write_bytes(build_executable(copies, comment=b"GCC: (GNU) 4.4.3\x00"))
    rc = sigscan_main(["--db", str(small_db), "--no-dynamic", str(target)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["(3 times, 72 bytes) Intel Compiler Suite 12.0",
                     "(1 times, 16 bytes) GCC 4.4.3"]


def test_report_tie_on_count_ordered_by_bytes(tmp_path, capsys):
    db = tmp_path / "db"
    db.mkdir()
    big = tmp_path / "big.o"
    big.write_bytes(build_object(bytes((7 * i) % 256 for i in range(100))))
    small = tmp_path / "small.o"
    small.write_bytes(build_object(bytes((11 * i + 3) % 256 for i in range(40))))
    assert siggen_main(["obj", str(big), "--package", "BigPkg", "--version", "1",
                        "-o", str(db / "big.sig")]) == 0
    assert siggen_main(["obj", str(small), "--package", "SmallPkg", "--version", "1",
                        "-o", str(db / "small.sig")]) == 0
    target = tmp_path / "prog"
    target.write_bytes(build_executable(
        big.read_bytes()[64:64 + 100] + small.read_bytes()[64:64 + 40]))
    # embed both sections: easier to rebuild the exact text bytes directly
    from provsig.elf import get_section, parse_elf
    big_text = get_section(parse_elf(big.read_bytes()), ".text").data
    small_text = get_section(parse_elf(small.read_bytes()), ".text").data
    target.write_bytes(build_executable(big_text + small_text))
    rc = sigscan_main(["--db", str(db), "--no-dynamic", str(target)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["(1 times, 100 bytes) BigPkg 1",
                     "(1 times, 40 bytes) SmallPkg 1"]


# -- crafted inputs: each small, each refused alone, in memory bounded by it -----------
# Each is some 33 KB (the DT_NEEDED one 21 KB), and would be read as 4 MB
# of section bodies, section names or library names (the last printed
# again as 4 MB of "unresolved dynamic library" warnings).

def _crafted(kind: str, e_type: int) -> tuple[bytes, str]:
    """A crafted file of ``kind`` and the reason it is refused for."""
    if kind == "overlapping":
        blob = build_overlapping(b"\x90" * (16 << 10), 256, e_type)
        return blob, f"section bodies through '.text' total more than the input's {len(blob)} bytes"
    if kind == "shared-name":
        blob = build_shared_name(16 << 10, 256, e_type)
        return blob, (f"section names total more than {STRING_BUDGET} times "
                      f"the input's {len(blob)} bytes")
    return build_shared_needed(16 << 10, 256), (
        f"DT_NEEDED names total more than {STRING_BUDGET} times their 16386-byte string table")


@pytest.mark.parametrize("kind", ["overlapping", "shared-name", "shared-needed"])
def test_sigscan_crafted_target_is_refused_alone_in_bounded_memory(small_db, tmp_path, capsys,
                                                                    kind):
    blob, reason = _crafted(kind, ET_EXEC)
    crafted = tmp_path / kind
    crafted.write_bytes(blob)
    good = tmp_path / "good"
    good.write_bytes(build_executable(CALL_STUB_TEXT))
    assert sigscan_main(["--db", str(small_db), str(good)]) == 0
    alone = capsys.readouterr().out
    argv = ["--db", str(small_db), str(crafted), str(good)]
    assert sigscan_main(argv) == 2  # untraced, so the traced call pays no one-time cost
    capsys.readouterr()
    tracemalloc.start()
    try:
        status = sigscan_main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (status, *capsys.readouterr()) == (2, f"{good}:\n{alone}",
                                              f"sigscan: {crafted}: {reason}\n")
    # the database, the target's headers and no more of its sections
    # than it holds: 4 MB or more when the walk read them all
    assert peak < 8 * len(blob), (peak, len(blob))


@pytest.mark.parametrize("kind", ["overlapping", "shared-name"])
def test_siggen_skips_a_crafted_member_and_refuses_a_crafted_object(tmp_path, capsys, kind):
    blob, reason = _crafted(kind, ET_REL)
    archive = tmp_path / "lib.a"
    archive.write_bytes(build_archive([("good.o", build_object(b"\x24" * 24)),
                                       ("crafted.o", blob)]))
    out = tmp_path / "lib.sig"
    annotation = ["--package", "P", "--version", "1"]
    assert siggen_main(["obj", str(archive), *annotation, "-o", str(out)]) == 0
    assert [s.name for s in parse_sigfile(out.read_bytes()).signatures] == \
        ["lib.a/good.o:.text"]
    assert capsys.readouterr().err == f"siggen: skipped lib.a/crafted.o: unparseable: {reason}\n"
    lone = tmp_path / "crafted.o"
    lone.write_bytes(blob)
    for mode in ("obj", "lib", "comment"):
        assert siggen_main([mode, str(lone), *annotation, "-o", str(out) + mode]) == 2
        assert capsys.readouterr().err == f"siggen: {lone}: {reason}\n"
        assert not Path(str(out) + mode).exists()


def _many_versions_of_one_name() -> tuple[bytes, str]:
    """A library defining one 4 KB version name 64 times, and why it is refused."""
    name = "GLIBC_" + "9" * 4090
    blob = build_shared_lib(versions=[name] * 64)
    dynstr = len(b"\0libsynth.so.1\0" + name.encode() + b"\0")
    return blob, (f"version names total more than {STRING_BUDGET} times "
                  f"their {dynstr}-byte string table")


@pytest.mark.parametrize("kind", ["overlapping", "shared-name", "shared-versions"])
def test_sigscan_crafted_library_adds_one_warning_to_its_report(dynlib_world, tmp_path, capsys,
                                                                kind):
    db, libdir, _ = dynlib_world
    blob, reason = (_many_versions_of_one_name() if kind == "shared-versions"
                    else _crafted(kind, ET_EXEC))
    library = libdir / "libcrafted.so"
    library.write_bytes(blob)
    target = tmp_path / "uses-crafted"
    target.write_bytes(build_executable(b"\x90" * 32, needed=["libcrafted.so", "libc.so.6"]))
    assert sigscan_main(["--db", str(db), "--search-path", str(libdir), "--format", "json",
                         str(target)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert doc["warnings"] == [f"{library}: {reason}"]
    assert [f["library"] for f in doc["dynlib_findings"]] == [str(libdir / "libc.so.6")]


def test_dynamic_needed_is_read_only_for_a_target_whose_libraries_are_resolved(
        dynlib_world, tmp_path, capsys, monkeypatch):
    db, libdir, target = dynlib_world
    read = []
    dynamic_needed = cli.elf.dynamic_needed

    def counting(image, file):
        read.append(image)
        return dynamic_needed(image, file)

    monkeypatch.setattr(cli.elf, "dynamic_needed", counting)
    argv = ["--db", str(db), "--search-path", str(libdir), str(target), str(target)]
    assert sigscan_main(["--no-dynamic", *argv]) == 0
    assert read == []
    # once per target; never for the three libraries resolved
    assert sigscan_main(argv) == 0
    assert len(read) == 2
    capsys.readouterr()
    # nor for a siggen input or archive member, whose DT_NEEDED list is
    # never wanted: a crafted one signs as any other does
    crafted = tmp_path / "crafted"
    crafted.write_bytes(build_shared_needed(16 << 10, 256))
    archive = tmp_path / "lib.a"
    archive.write_bytes(build_archive([("crafted.o", crafted.read_bytes()),
                                       ("good.o", build_object(b"\x24" * 24))]))
    for mode, source in [("lib", libdir / "libc.so.6"), ("lib", crafted),
                         ("obj", archive), ("comment", target)]:
        siggen_main([mode, str(source), "--package", "P", "--version", "1",
                     "-o", str(tmp_path / "out.sig")])
    assert len(read) == 2
    assert "unparseable" not in capsys.readouterr().err
