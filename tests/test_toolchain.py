"""sigscan against the host toolchain.

* A gcc-built and a g++-built hello resolve their C and C++ runtimes
  through symbol versioning.  The expected versions are worked out
  independently of provsig, from the "Version definitions" block
  ``objdump -p`` prints for each library.  Skipped when gcc, g++ or
  objdump is missing, or when the compiler does not know where its C
  library lives.
* A database signed from the host's static C library (``siggen obj``
  over ``libc.a``) finds that library in a C hello linked with
  ``-static``, at ``-O0`` and at ``-O2``.  Skipped when gcc or
  ``libc.a`` is missing.
* A database signed from gcc's ``crtbegin.o``, ``crtbeginS.o`` and
  ``crtbeginT.o`` finds gcc in a PIE, a ``-no-pie`` and a ``-static``
  C hello whose ``.comment`` was removed and which were stripped: code
  alone names the compiler.  Skipped per tool (gcc, objcopy, strip),
  per missing crt object and per link mode that does not build here.
* A database signed from the host's C, C++ and compiler runtime
  archives (``libc.a``, ``libgcc.a``, ``libgcc_eh.a``, ``libstdc++.a``)
  finds both the C and the C++ library in a C++ program linked with
  ``-static``.  Many of its signatures share a key.  Skipped when g++ or
  an archive is missing.
* Every relocation table of the host's ``libc.a`` and ``libgcc.a``
  reads the same through :func:`provsig.elf.parse_relocations` as
  through the per-section reference (``reloc_reference``), pairs and
  warnings both.  Many of these tables list their offsets out of order.
  Skipped when gcc or an archive is missing.
* Objects gcc builds with relocation types that only the TLS
  descriptor dialect (``-mtls-dialect=gnu2``) or ``-m32 -fPIC`` emit
  sign without a warning, to the payloads their disassembly gives.
  Skipped when gcc is missing or cannot build the object (``-m32``
  needs the 32-bit multilib).
* Every ELF member of the host's ``libc.a``, ``libgcc.a``,
  ``libgcc_eh.a`` and ``libstdc++.a``, read at its offset in the archive
  (:func:`provsig.elf.read_elf`), gives the image and section bodies the
  per-header reference (``elf_reference``) gives from its bytes.
  Skipped when gcc or an archive is missing.
* Every member of those four archives reads through
  :func:`provsig.elf.read_archive` as ``ar tvO`` lists it: the same
  names, sizes and body offsets in the same order.  Skipped when gcc,
  ar or an archive is missing.
* A gcc-built and a g++-built hello, the host ``libc.so.6`` and
  ``libstdc++.so.6`` read from their files (:func:`provsig.elf.read_elf`)
  as the per-header reference reads their bytes, bodies included.  Each
  is skipped when its compiler or library is missing.
* ``sigscan`` of g++'s ``cc1plus`` (some 34 MB) peaks at least 15 MB
  lower in RSS than when the target was read whole before it was
  parsed.  Skipped when g++, its ``cc1plus`` or ``/proc`` is missing.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys

import pytest

from provsig import elf, matcher, sigdb
from provsig.cli import siggen_main, sigscan_main

import elf_reference
import reloc_reference


def _missing(*tools: str):
    return pytest.mark.skipif(any(shutil.which(tool) is None for tool in tools),
                              reason=f"one of {', '.join(tools)} not installed")


HELLO_C = '#include <stdio.h>\nint main(void) { puts("hello"); return 0; }\n'
HELLO_CXX = '#include <iostream>\nint main() { std::cout << "hello" << std::endl; }\n'
ARGS_CXX = """\
#include <iostream>
#include <string>
#include <vector>
int main(int argc, char **argv) {
    std::vector<std::string> args(argv, argv + argc);
    for (const std::string &arg : args)
        std::cout << arg << '\\n';
    return 0;
}
"""

# "2 0x00 0x09691a75 GLIBC_2.2.5": index, flags, hash, name
_VERDEF_ROW = re.compile(r"^\d+ 0x([0-9a-f]+) 0x[0-9a-f]+ (\S+)$")


def _library_dir(compiler: str, soname: str) -> str:
    path = subprocess.run([compiler, f"-print-file-name={soname}"], check=True,
                          capture_output=True, text=True).stdout.strip()
    if os.sep not in path:
        pytest.skip(f"{compiler} does not know where {soname} lives")
    return os.path.dirname(path)


def _archive(compiler: str, name: str) -> str:
    """The path of the file ``name`` the compiler links: a static
    archive, a crt object or a shared library."""
    path = subprocess.run([compiler, f"-print-file-name={name}"], check=True,
                          capture_output=True, text=True).stdout.strip()
    if not (os.path.isabs(path) and os.path.isfile(path)):  # the compiler echoes a bare name
        pytest.skip(f"{compiler} has no {name}")
    return path


def _reported(lines: list[str], package: str) -> bool:
    """Whether a report's lines hold a package hit line for ``package``."""
    return any(line.startswith("(") and line.endswith(f") {package}") for line in lines)


def _objdump_highest(library: str, label: str) -> str:
    """The numerically highest ``label`` version among the non-base
    version definitions objdump lists for ``library``."""
    dump = subprocess.run(["objdump", "-p", library], check=True,
                          capture_output=True, text=True).stdout
    block = dump.split("Version definitions:\n", 1)[1].split("\n\n", 1)[0]
    versions = []
    for line in block.splitlines():
        row = _VERDEF_ROW.match(line)
        if row is None or int(row.group(1), 16) & 1:  # parent line or base row
            continue
        found = re.fullmatch(re.escape(label) + r"_([0-9]+(?:\.[0-9]+)*)", row.group(2))
        if found:
            versions.append(found.group(1))
    assert versions, f"objdump lists no {label} versions for {library}"
    return max(versions, key=lambda v: tuple(map(int, v.split("."))))


@_missing("gcc", "g++", "objdump")
def test_gcc_and_gxx_runtimes_reported_by_symbol_version(tmp_path, capsys):
    search_paths = [_library_dir("gcc", "libc.so.6")]
    cxx_dir = _library_dir("g++", "libstdc++.so.6")
    if cxx_dir not in search_paths:
        search_paths.append(cxx_dir)

    (tmp_path / "hello.c").write_text(HELLO_C)
    (tmp_path / "hello.cc").write_text(HELLO_CXX)
    hello_c, hello_cxx = tmp_path / "hello-c", tmp_path / "hello-cxx"
    for compiler, source, binary in (("gcc", "hello.c", hello_c),
                                     ("g++", "hello.cc", hello_cxx)):
        subprocess.run([compiler, "-O2", "-o", str(binary), str(tmp_path / source)],
                       check=True, capture_output=True)

    db = tmp_path / "db"
    db.mkdir()
    assert siggen_main(["comment", str(hello_c), "--package", "host", "--version", "cc",
                        "-o", str(db / "host.sig")]) == 0
    capsys.readouterr()

    def expected(soname: str, label: str) -> str:
        library = next(os.path.join(d, soname) for d in search_paths
                       if os.path.isfile(os.path.join(d, soname)))
        return f"{library}: {label} {_objdump_highest(library, label)} [symver]"

    search_args = [arg for d in search_paths for arg in ("--search-path", d)]
    for binary, soname, label in ((hello_c, "libc.so.6", "GLIBC"),
                                  (hello_cxx, "libstdc++.so.6", "GLIBCXX")):
        assert sigscan_main(["--db", str(db), *search_args, str(binary)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert expected(soname, label) in lines, lines


@_missing("gcc")
def test_static_hello_reports_signed_libc_archive(tmp_path, capsys):
    archive = _archive("gcc", "libc.a")
    db = tmp_path / "db"
    db.mkdir()
    assert siggen_main(["obj", archive, "--package", "host libc", "--version", "static",
                        "-o", str(db / "libc.sig")]) == 0
    (tmp_path / "hello.c").write_text(HELLO_C)
    for level in ("-O0", "-O2"):
        binary = tmp_path / f"hello{level}"
        subprocess.run(["gcc", level, "-static", "-o", str(binary), str(tmp_path / "hello.c")],
                       check=True, capture_output=True)
        capsys.readouterr()
        assert sigscan_main(["--db", str(db), "--no-dynamic", str(binary)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert _reported(lines, "host libc static"), (level, lines)


@_missing("gcc", "objcopy", "strip")
@pytest.mark.parametrize("link", [["-fPIE", "-pie"], ["-no-pie"], ["-static"]],
                         ids=["pie", "no-pie", "static"])
def test_crtbegin_signatures_name_gcc_in_a_stripped_hello(tmp_path, capsys, link):
    crts = [_archive("gcc", name) for name in ("crtbegin.o", "crtbeginS.o", "crtbeginT.o")]
    db = tmp_path / "db"
    db.mkdir()
    assert siggen_main(["obj", *crts, "--package", "gcc crt", "--version", "host",
                        "-o", str(db / "crt.sig")]) == 0
    (tmp_path / "hello.c").write_text(HELLO_C)
    binary = tmp_path / "hello"
    built = subprocess.run(["gcc", "-O2", *link, "-o", str(binary), str(tmp_path / "hello.c")],
                           capture_output=True, text=True)
    if built.returncode:
        pytest.skip(f"gcc {' '.join(link)} does not link here: {built.stderr.strip()}")
    subprocess.run(["objcopy", "--remove-section", ".comment", str(binary)], check=True)
    subprocess.run(["strip", str(binary)], check=True)
    with elf.open_file(binary) as file:
        assert elf.get_section(elf.read_elf(file), ".comment") is None
    capsys.readouterr()
    assert sigscan_main(["--db", str(db), "--no-dynamic", str(binary)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert _reported(lines, "gcc crt host"), lines


@_missing("g++")
def test_static_cxx_program_reports_signed_cxx_and_c_archives(tmp_path, capsys):
    archives = {name: _archive("g++", name)
                for name in ("libc.a", "libgcc.a", "libgcc_eh.a", "libstdc++.a")}
    db = tmp_path / "db"
    db.mkdir()
    for name, archive in archives.items():
        assert siggen_main(["obj", archive, "--package", f"host {name[:-2]}",
                            "--version", "static", "-o", str(db / f"{name}.sig")]) == 0
    engine = matcher.compile([sig.pattern for sf in sigdb.load_db(db).files
                              for sig in sf.signatures if sig.target == sigdb.TARGET_TEXT])
    assert len({key for key, _ in engine.keys}) < len(engine.keys)
    (tmp_path / "args.cc").write_text(ARGS_CXX)
    binary = tmp_path / "args"
    subprocess.run(["g++", "-O2", "-static", "-o", str(binary), str(tmp_path / "args.cc")],
                   check=True, capture_output=True)
    capsys.readouterr()
    assert sigscan_main(["--db", str(db), "--no-dynamic", str(binary)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert _reported(lines, "host libstdc++ static"), lines
    assert _reported(lines, "host libc static"), lines


@_missing("gcc")
def test_host_relocation_tables_read_as_the_reference_reads_them():
    checked = 0
    for name in ("libc.a", "libgcc.a"):
        with elf.open_file(_archive("gcc", name)) as archive:
            for member in elf.read_archive(archive):
                image = elf.read_elf(archive, member.offset, member.size)
                names = [section.name for section in elf.list_text_sections(image)]
                # the reference finds a section's tables by its name
                if not image.is_relocatable or len(set(names)) < len(names):
                    continue
                want_warnings: list[str] = []
                want = reloc_reference.object_relocations(
                    os.pread(archive.fileno(), member.size, member.offset), want_warnings)
                warnings: list[str] = []
                got = {section_name: [] for section_name in names}
                for index, (starts, lengths) in elf.parse_relocations(image, archive,
                                                                      warnings).items():
                    got[image.sections[index].name] = list(zip(starts, lengths))
                assert got == want, (name, member.name)
                assert warnings == want_warnings, (name, member.name)
                checked += 1
    assert checked


TLS_C = "__thread int tv;\nint get(void) { return tv; }\n"
GOT_C = "extern int x;\nint f(void) { return x; }\n"


# the 2-byte "ff 10" descriptor call and the word32 GOT fields masked;
# the mov and add after the call stay literal
@_missing("gcc")
@pytest.mark.parametrize("source, flags, payload", [
    (TLS_C, ["-mtls-dialect=gnu2"],  # TLSDESC_CALL
     "4883ec08488d05????????????648b004883c408c3"),
    (TLS_C, ["-m32", "-mtls-dialect=gnu2"],  # TLS_GOTDESC, TLS_DESC_CALL
     "53e8????????81c3????????83ec088d83????????????658b0083c4085bc3"),
    (GOT_C, ["-m32"],  # GOT32X
     "e8????????05????????8b80????????8b00c3"),
], ids=["x86-64-tlsdesc", "i386-tlsdesc", "i386-got32x"])
def test_gcc_relocation_types_sign_without_warning(tmp_path, capsys, source, flags, payload):
    (tmp_path / "unit.c").write_text(source)
    obj = tmp_path / "unit.o"
    built = subprocess.run(["gcc", "-O2", "-fPIC", *flags, "-c", "-o", str(obj),
                            str(tmp_path / "unit.c")], capture_output=True, text=True)
    if built.returncode:
        pytest.skip(f"gcc {' '.join(flags)} -c does not work here: {built.stderr.strip()}")
    out = tmp_path / "unit.sig"
    assert siggen_main(["obj", str(obj), "--package", "P", "--version", "1",
                        "-o", str(out)]) == 0
    assert "siggen: warning:" not in capsys.readouterr().err
    (sig,) = (sig for sig in sigdb.parse_sigfile(out.read_bytes()).signatures
              if sig.name == "unit.o:.text")
    assert sigdb.pattern_to_text(sig.pattern) == payload


@_missing("gcc")
def test_host_objects_parse_as_the_per_header_reference_parses_them():
    checked = 0
    for name in ("libc.a", "libgcc.a", "libgcc_eh.a", "libstdc++.a"):
        with elf.open_file(_archive("gcc", name)) as archive:
            for member in elf.read_archive(archive):
                data = os.pread(archive.fileno(), member.size, member.offset)
                if not data.startswith(elf.ELF_MAGIC):
                    continue
                got = _image_and_bodies(archive, member.offset, member.size)
                assert got == elf_reference.read_bytes(data), (name, member.name)
                checked += got[0].is_relocatable
    assert checked


def _image_and_bodies(file, start: int = 0, size: int | None = None):
    """The image :func:`provsig.elf.read_elf` reads of ``file`` (of the
    ``size`` bytes from ``start``), with offsets from ``start`` as the
    reference gives them, and each section's body."""
    image = elf.read_elf(file, start, size)
    return (image._replace(sections=tuple(s._replace(offset=s.offset - start)
                                          for s in image.sections)),
            [elf.read_body(file, section) for section in image.sections])


@pytest.mark.parametrize("compiler, name", [
    ("gcc", "hello"), ("g++", "hello"), ("gcc", "libc.so.6"), ("g++", "libstdc++.so.6"),
], ids=["gcc-hello", "gxx-hello", "libc.so.6", "libstdc++.so.6"])
def test_host_binaries_read_from_their_files_as_from_their_bytes(tmp_path, compiler, name):
    if shutil.which(compiler) is None:
        pytest.skip(f"{compiler} not installed")
    if name == "hello":
        source = tmp_path / ("hello.c" if compiler == "gcc" else "hello.cc")
        source.write_text(HELLO_C if compiler == "gcc" else HELLO_CXX)
        path = str(tmp_path / "hello")
        subprocess.run([compiler, "-O2", "-o", path, str(source)], check=True,
                       capture_output=True)
    else:
        path = _archive(compiler, name)
    with elf.open_file(path) as file:
        got = _image_and_bodies(file)
    assert got == elf_reference.read_bytes(elf.read_file(path))
    assert elf.list_text_sections(got[0])


@_missing("g++")
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status")
def test_sigscan_of_cc1plus_holds_its_sections_not_the_file_too(tmp_path):
    path = subprocess.run(["g++", "-print-prog-name=cc1plus"], check=True,
                          capture_output=True, text=True).stdout.strip()
    if not (os.path.isabs(path) and os.path.isfile(path)):
        pytest.skip("g++ has no cc1plus")
    db = tmp_path / "db"
    db.mkdir()
    (db / "p.sig").write_text("provsig 1\npackage P\nversion 1\n"
                              f"s.o:.text:text:hex:{'5a' * 20}\n")
    # sigscan as it runs, and as it ran when a target was read whole
    # before it was parsed: the stand-in reads the file whole and holds
    # it while the target is scanned.  Each child reports its own peak
    # RSS in KB, counted from its exec (ru_maxrss may keep the parent's
    # at fork)
    src = os.path.dirname(os.path.dirname(elf.__file__))
    code = ("import re, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from provsig import cli, elf\n"
            "held, read_elf = [], elf.read_elf\n"
            "if sys.argv[2] == 'whole':\n"
            "    elf.read_elf = lambda file: held.append(file.read()) or read_elf(file)\n"
            "status = cli.sigscan_main(['--db', sys.argv[3], '--no-dynamic', sys.argv[4]])\n"
            "with open('/proc/self/status') as status_file:\n"
            "    hwm = re.search(r'VmHWM:\\s*(\\d+) kB', status_file.read()).group(1)\n"
            "print(status, hwm)\n")
    peaks = {}
    for how in ("sections", "whole"):
        done = subprocess.run([sys.executable, "-c", code, src, how, str(db), path],
                              check=True, capture_output=True, text=True, timeout=120)
        status, peaks[how] = map(int, done.stdout.split()[-2:])
        assert status == 0, done.stderr
    assert peaks["whole"] - peaks["sections"] >= 15 * 1024, peaks


# one line of ``ar tvO``: mode, owner/group, size, date, name, body offset
_AR_LISTING_LINE = re.compile(r"\S+ \S+ +(\d+) \w+ +\d+ [\d:]+ \d+ (.+) 0x([0-9a-f]+)")


@_missing("gcc", "ar")
def test_host_archives_read_member_by_member_as_ar_lists_them():
    for name in ("libc.a", "libgcc.a", "libgcc_eh.a", "libstdc++.a"):
        path = _archive("gcc", name)
        listing = subprocess.run(["ar", "tvO", path], check=True, capture_output=True,
                                 encoding="latin-1").stdout
        listed = [_AR_LISTING_LINE.fullmatch(line).groups() for line in listing.splitlines()]
        with elf.open_file(path) as file:
            members = elf.read_archive(file)
        assert [(m.name, m.size, m.offset) for m in members] == \
            [(member, int(size), int(offset, 16)) for size, member, offset in listed], name
        assert members, name
